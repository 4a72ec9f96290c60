//! Property tests: `dot` is bit-identical to its scalar specification,
//! an indexed loop over the same four-accumulator reduction tree, on
//! every tail length; goldens and manifests pin that tree, so these tests
//! are the referee for it on random inputs (lengths 0..=17 cover zero, a
//! partial group, whole groups and groups plus a tail).

use fairprep_ml::kernels::dot;
use fairprep_ml::matrix::Matrix;
use proptest::prelude::*;

/// The specification of [`dot`]: accumulator `i % 4` takes the product of
/// element `i` for every element before the `len % 4` tail, and the result
/// is `(a0 + a1) + (a2 + a3) + tail`.
fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let quads = a.len() - a.len() % 4;
    for i in 0..quads {
        acc[i % 4] += a[i] * b[i];
    }
    let mut tail = 0.0;
    for i in quads..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `dot` == the indexed 4-accumulator loop, bit for bit, on every
    /// length that exercises the main loop and the scalar tail.
    #[test]
    fn dot_is_bit_identical_to_reference(
        n in 0_usize..=17,
        xs in prop::collection::vec(-1.0e6_f64..1.0e6, 64),
        ys in prop::collection::vec(-1.0e6_f64..1.0e6, 64),
    ) {
        let a = &xs[..n];
        let b = &ys[..n];
        prop_assert_eq!(dot(a, b).to_bits(), dot_ref(a, b).to_bits());
    }

    /// Long vectors too: many groups followed by every tail.
    #[test]
    fn dot_is_bit_identical_on_long_vectors(
        tail in 0_usize..=17,
        xs in prop::collection::vec(-1.0e3_f64..1.0e3, 256),
        ys in prop::collection::vec(-1.0e3_f64..1.0e3, 256),
    ) {
        let n = 128 + tail;
        let a = &xs[..n];
        let b = &ys[..n];
        prop_assert_eq!(dot(a, b).to_bits(), dot_ref(a, b).to_bits());
    }

    /// `Matrix::matvec` equals a per-row reference dot for every
    /// column-count tail shape.
    #[test]
    fn matvec_is_bit_identical_to_per_row_dots(
        cols in 1_usize..=17,
        rows in 1_usize..=6,
        data in prop::collection::vec(-1.0e4_f64..1.0e4, 128),
        w in prop::collection::vec(-1.0e4_f64..1.0e4, 17),
    ) {
        let data = &data[..rows * cols];
        let w = &w[..cols];
        let out = Matrix::from_vec(rows, cols, data.to_vec()).unwrap().matvec(w).unwrap();
        for (r, got) in out.iter().enumerate() {
            let want = dot_ref(&data[r * cols..(r + 1) * cols], w);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "row {}", r);
        }
    }
}

/// The matrix row/column gathers must return exactly what the old
/// per-row `Vec`-collecting implementations returned.
#[test]
fn matrix_gathers_match_naive_row_collection() {
    let rows: Vec<Vec<f64>> = (0..7)
        .map(|i| (0..5).map(|j| (i * 5 + j) as f64 * 1.25).collect())
        .collect();
    let m = Matrix::from_rows(&rows).unwrap();

    let take = m.take_rows(&[6, 0, 3, 3]);
    assert_eq!(take.n_rows(), 4);
    for (r, &i) in [6_usize, 0, 3, 3].iter().enumerate() {
        assert_eq!(take.row(r), &rows[i][..], "take_rows row {r}");
    }

    let sel = m.select_columns(&[4, 0, 2]);
    assert_eq!((sel.n_rows(), sel.n_cols()), (7, 3));
    for (r, src) in rows.iter().enumerate() {
        assert_eq!(sel.row(r), &[src[4], src[0], src[2]]);
    }

    let g = m.gather(&[1, 1, 5], &[3, 0]);
    assert_eq!((g.n_rows(), g.n_cols()), (3, 2));
    assert_eq!(g.row(0), &[rows[1][3], rows[1][0]]);
    assert_eq!(g.row(1), &[rows[1][3], rows[1][0]]);
    assert_eq!(g.row(2), &[rows[5][3], rows[5][0]]);
}

/// Zero-column edge cases must preserve row counts without touching data.
#[test]
fn zero_width_gathers_keep_shape() {
    let m = Matrix::zeros(4, 0);
    assert_eq!(m.take_rows(&[0, 2]).n_rows(), 2);
    assert_eq!(m.select_columns(&[]).n_rows(), 4);
    assert_eq!(m.gather(&[1, 3], &[]).n_rows(), 2);
}
