//! Property tests: the explicit-width kernels are bit-identical to the
//! scalar reference reductions on every tail length. The widened `dot`
//! keeps the seed's frozen 4-accumulator reduction tree, so goldens and
//! manifests cannot move; these tests are the referee for that claim on
//! random inputs, with lengths biased to straddle the 8-lane boundary
//! (0..=17 covers zero, sub-lane, one-lane, and lane+tail shapes).

use fairprep_ml::kernels::{dot, dot_ref};
use fairprep_ml::matrix::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// `dot` == the seed's interleaved 4-accumulator loop, bit for bit,
    /// on every length that exercises the widened main loop, the 4-wide
    /// leftover group, and the scalar tail.
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

    /// Long vectors too: many widened iterations followed by every tail.
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
