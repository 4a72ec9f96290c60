//! A small dense, row-major matrix — the "numpy view" of a dataset.
//!
//! FairPrep datasets can be viewed "in relational form (as a pandas
//! dataframe) or in matrix form (e.g., features as numpy matrix)" (§4).
//! This type is the matrix form: complete (no missing values), numeric,
//! row-major for cache-friendly per-example access during SGD.

use fairprep_data::error::{Error, Result};
use fairprep_data::provenance::Provenance;

pub use crate::kernels::dot;

/// How many steps ahead a shuffled-order SGD loop prefetches its rows with
/// [`Matrix::prefetch_row`]. On the adult training matrix (32,561 × 64,
/// 16.7 MB, larger than L2) a logistic-regression fit ran 1.9× faster one
/// step ahead and 2.2× two steps ahead; four steps gained nothing more.
pub const SGD_PREFETCH_AHEAD: usize = 2;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
    provenance: Provenance,
}

/// Provenance is a taint tag, not part of the mathematical value: two
/// matrices with identical entries compare equal regardless of which
/// lifecycle split they came from.
impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl Matrix {
    /// Creates a zero-filled matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
            provenance: Provenance::Derived,
        }
    }

    /// Creates a matrix from row-major data.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::LengthMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix {
            data,
            rows,
            cols,
            provenance: Provenance::Derived,
        })
    }

    /// Creates a matrix from a slice of equal-length rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * n_cols);
        for row in rows {
            if row.len() != n_cols {
                return Err(Error::LengthMismatch {
                    expected: n_cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            data,
            rows: rows.len(),
            cols: n_cols,
            provenance: Provenance::Derived,
        })
    }

    /// The lifecycle split this matrix was derived from.
    #[must_use]
    pub fn provenance(&self) -> Provenance {
        self.provenance
    }

    /// Tags the matrix with a lifecycle provenance. Called by
    /// [`FittedFeaturizer::transform`](crate::transform::featurizer::FittedFeaturizer::transform)
    /// so that `fit` entry points taking matrices can reject test data.
    pub fn set_provenance(&mut self, provenance: Provenance) {
        self.provenance = provenance;
    }

    /// Builder-style [`Matrix::set_provenance`].
    #[must_use]
    pub fn with_provenance(mut self, provenance: Provenance) -> Self {
        self.provenance = provenance;
        self
    }

    /// Number of rows (examples).
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[must_use]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `i` as a slice.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Hints the CPU to start loading row `i` into cache, so that a later
    /// [`Matrix::row`] read of it does not stall. Shuffled-order SGD reads
    /// one random row per step, and on a matrix larger than the cache
    /// waiting for that row is most of the step; calling this
    /// [`SGD_PREFETCH_AHEAD`] steps early overlaps the fetch with the
    /// current step's arithmetic. Nothing is read or written, so results
    /// are bit-identical with or without the hint. A no-op for `i` out of
    /// range and on targets other than x86_64.
    #[inline]
    pub fn prefetch_row(&self, i: usize) {
        if i >= self.rows {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            /// `f64` values per 64-byte cache line.
            const F64_PER_LINE: usize = 8;
            let row = self.row(i);
            // One element in each cache line: every 8th element, plus the
            // last for the line a row that starts mid-line ends in.
            for v in row.iter().step_by(F64_PER_LINE).chain(row.last()) {
                // SAFETY: `_mm_prefetch` needs SSE, which is part of the
                // x86_64 baseline, so every x86_64 CPU has it. A prefetch
                // never faults and has no effect the program can observe,
                // and the pointer comes from a live reference into
                // `self.data` in any case.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(v).cast::<i8>()) };
            }
        }
    }

    /// Mutably borrow row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The value at (`i`, `j`).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.cols + j]
    }

    /// Sets the value at (`i`, `j`).
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] = v;
    }

    /// Copies column `j` into a new vector.
    #[must_use]
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Iterates over rows. A matrix with zero columns still yields one
    /// (empty) slice per row, so row counts survive degenerate schemas.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        let cols = self.cols;
        (0..self.rows).map(move |i| &self.data[i * cols..(i + 1) * cols])
    }

    /// Materializes the rows at `indices` into a new matrix.
    ///
    /// One preallocated output buffer filled by per-row `memcpy`s — no
    /// incremental growth or capacity checks on the hot path.
    #[must_use]
    pub fn take_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = vec![0.0; indices.len() * self.cols];
        for (dst, &i) in data.chunks_exact_mut(self.cols.max(1)).zip(indices) {
            dst.copy_from_slice(self.row(i));
        }
        Matrix {
            data,
            rows: indices.len(),
            cols: self.cols,
            provenance: self.provenance,
        }
    }

    /// Materializes the columns at `indices` into a new matrix (used by
    /// random-subspace ensembles).
    ///
    /// Writes straight into a preallocated buffer instead of `push`ing
    /// element-by-element, so the inner loop is a pure gather with no
    /// capacity checks.
    #[must_use]
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut data = vec![0.0; self.rows * indices.len()];
        for (dst, src) in data
            .chunks_exact_mut(indices.len().max(1))
            .zip(self.rows_iter())
        {
            for (d, &j) in dst.iter_mut().zip(indices) {
                *d = src[j];
            }
        }
        Matrix {
            data,
            rows: self.rows,
            cols: indices.len(),
            provenance: self.provenance,
        }
    }

    /// Single-pass submatrix gather: the rows at `rows` restricted to the
    /// columns at `cols`, without materializing the intermediate row
    /// selection (used by random-subspace ensembles, where
    /// `take_rows(..).select_columns(..)` would allocate a full bootstrap
    /// copy per tree). Like [`Matrix::select_columns`], the output is
    /// preallocated and written directly.
    #[must_use]
    pub fn gather(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut data = vec![0.0; rows.len() * cols.len()];
        for (dst, &i) in data.chunks_exact_mut(cols.len().max(1)).zip(rows) {
            let src = self.row(i);
            for (d, &j) in dst.iter_mut().zip(cols) {
                *d = src[j];
            }
        }
        Matrix {
            data,
            rows: rows.len(),
            cols: cols.len(),
            provenance: self.provenance,
        }
    }

    /// Batched matrix–vector product: `out[i] = dot(row_i, w)`. This is
    /// the predict kernel for every linear model — one pass over the
    /// row-major data, no per-row allocation. Each output element is one
    /// frozen-tree [`dot`], and a zero-column matrix yields one `0.0` per
    /// row.
    pub fn matvec(&self, w: &[f64]) -> Result<Vec<f64>> {
        if w.len() != self.cols {
            return Err(Error::LengthMismatch {
                expected: self.cols,
                actual: w.len(),
            });
        }
        let mut out = vec![0.0; self.rows];
        if self.cols > 0 {
            for (o, row) in out.iter_mut().zip(self.data.chunks_exact(self.cols)) {
                *o = dot(row, w);
            }
        }
        Ok(out)
    }

    /// `true` when every entry is finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Raw row-major data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }
}

/// Numerically-stable logistic sigmoid.
#[must_use]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0]).is_err());
    }

    #[test]
    fn from_rows_checks_raggedness() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn mutation() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 9.0);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.get(0, 1), 9.0);
        assert_eq!(m.get(1, 0), 7.0);
    }

    #[test]
    fn prefetch_row_accepts_any_index_and_changes_nothing() {
        let m = Matrix::from_rows(&[vec![1.0; 17], vec![2.0; 17]]).unwrap();
        let before = m.clone();
        for i in [0, 1, 2, usize::MAX] {
            m.prefetch_row(i);
        }
        Matrix::zeros(3, 0).prefetch_row(1);
        assert_eq!(m, before);
    }

    #[test]
    fn take_rows_duplicates_allowed() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let t = m.take_rows(&[2, 2, 0]);
        assert_eq!(t.column(0), vec![3.0, 3.0, 1.0]);
    }

    #[test]
    fn rows_iter_yields_all() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0][..], &[3.0, 4.0][..]]);
    }

    #[test]
    fn finiteness_check() {
        let mut m = Matrix::zeros(1, 2);
        assert!(m.is_finite());
        m.set(0, 0, f64::NAN);
        assert!(!m.is_finite());
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(1000.0) <= 1.0);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn dot_handles_every_tail_length() {
        // Exercise the unrolled kernel across remainder classes 0..=3.
        for n in 0..10 {
            let a: Vec<f64> = (0..n).map(f64::from).collect();
            let b: Vec<f64> = (0..n).map(|i| f64::from(i) * 0.5).collect();
            let expected: f64 = (0..n).map(|i| f64::from(i) * f64::from(i) * 0.5).sum();
            assert!((dot(&a, &b) - expected).abs() < 1e-12, "n={n}");
        }
    }

    #[test]
    fn matvec_matches_per_row_dot() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
            vec![-1.0, 0.5, 2.0, -3.0, 1.0],
        ])
        .unwrap();
        let w = [0.1, 0.2, 0.3, 0.4, 0.5];
        let out = m.matvec(&w).unwrap();
        assert_eq!(out.len(), 2);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, dot(m.row(i), &w));
        }
        // Dimension mismatch is an error, not a panic.
        assert!(m.matvec(&[1.0]).is_err());
        // A zero-column matrix still yields one 0.0 per row.
        assert_eq!(Matrix::zeros(3, 0).matvec(&[]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn gather_is_take_rows_then_select_columns() {
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        let rows = [2, 0, 2];
        let cols = [2, 0];
        let gathered = m.gather(&rows, &cols);
        let reference = m.take_rows(&rows).select_columns(&cols);
        assert_eq!(gathered, reference);
        assert_eq!(gathered.row(0), &[9.0, 7.0]);
    }

    #[test]
    fn provenance_propagates_and_is_ignored_by_eq() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
            .unwrap()
            .with_provenance(Provenance::Test);
        assert_eq!(m.take_rows(&[1]).provenance(), Provenance::Test);
        assert_eq!(m.select_columns(&[0]).provenance(), Provenance::Test);
        assert_eq!(m.gather(&[0], &[1]).provenance(), Provenance::Test);
        // Equality is about values, not tags.
        let same_values = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m, same_values);
    }

    #[test]
    fn zero_column_matrix_keeps_its_rows() {
        // A dataset whose features were all dropped still has n rows; the
        // row iterator must yield n empty slices, not zero rows.
        let m = Matrix::zeros(3, 0);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 0);
        let rows: Vec<&[f64]> = m.rows_iter().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        // Derived operations preserve the row count too.
        assert_eq!(m.take_rows(&[0, 2]).n_rows(), 2);
        assert_eq!(m.matvec(&[]).unwrap(), vec![0.0; 3]);
    }
}
