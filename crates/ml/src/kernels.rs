//! Compute kernels for the hot predict/train loops.
//!
//! Every kernel here is written against a **frozen arithmetic
//! specification**: the exact per-element operations and, for reductions,
//! the exact combine tree are part of the public contract, because the
//! golden-trace manifests, sweep journals, and 1-vs-8-thread proptests all
//! pin run results bit-for-bit. An implementation may restructure *memory
//! access* freely but must not change *float semantics*.
//!
//! [`dot`] is the pipeline reduction: four interleaved accumulators
//! combined as `(a0+a1) + (a2+a3) + tail`, written as the plain
//! `chunks_exact(4)` loop. The pipeline calls it on rows 63–65 wide, where
//! this loop measured faster than both an 8-element-per-iteration form of
//! the same tree and an indexed `acc[i % 4]` loop.
//!
//! [`sgd_step`] has no reduction at all: each output element depends on
//! one input element through a fixed expression. It stays the plain loop
//! of the seed training code, because an 8-lane unrolled form measured
//! 2–8% slower at the lifecycle's 63–65 column widths.

// audit: allow-file(index-literal, reason = "the dot kernel indexes a [f64; 4] accumulator and chunks_exact(4) blocks, so literal indices 0..=3 are always in bounds")

/// Pipeline dot product with a frozen reduction tree.
///
/// Accumulator `j` of four sums the products of the elements with index
/// ≡ `j` (mod 4) in ascending order; the result is
/// `(a0 + a1) + (a2 + a3) + tail`, where `tail` is the sequential sum of
/// the `len % 4` trailing products.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let quads = a.len() - a.len() % 4;
    let (a4, a_tail) = a.split_at(quads);
    let (b4, b_tail) = b.split_at(quads);
    let mut acc = [0.0f64; 4];
    for (xs, ys) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
    }
    let mut tail = 0.0;
    for (x, y) in a_tail.iter().zip(b_tail) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// One SGD weight update for the logistic log-loss:
/// `w[j] -= eta * (g * row[j] + l2 * w[j] + l1 * signum(w[j]))`, with the
/// `l1` term skipped entirely when `l1 == 0` (matching the seed training
/// loop, where the branch guards the `signum` call).
///
/// Element-wise with the exact per-element expression of the seed loop,
/// so training trajectories — and therefore every golden manifest — are
/// unchanged.
pub fn sgd_step(w: &mut [f64], row: &[f64], g: f64, eta: f64, l1: f64, l2: f64) {
    debug_assert_eq!(w.len(), row.len());
    if l1 > 0.0 {
        for (wj, &xj) in w.iter_mut().zip(row) {
            let grad = g * xj + l2 * *wj + l1 * wj.signum();
            *wj -= eta * grad;
        }
    } else {
        for (wj, &xj) in w.iter_mut().zip(row) {
            let grad = g * xj + l2 * *wj;
            *wj -= eta * grad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(n: usize) -> (Vec<f64>, Vec<f64>) {
        // Irrational-step values exercise rounding in every combine.
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.618_033_988_7).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.414_213_562_3).cos()).collect();
        (a, b)
    }

    #[test]
    fn dot_matches_ref_bitwise_on_every_tail() {
        // The specification: accumulator `i % 4` takes product `i` for
        // every element before the `len % 4` tail.
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
        for n in 0..=64 {
            let (a, b) = vectors(n);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_ref(&a, &b).to_bits(),
                "dot != dot_ref at n={n}"
            );
        }
    }

    #[test]
    fn dot_preserves_the_seed_reduction_tree() {
        // The seed kernel, frozen here so that any later rewrite of `dot`
        // is still checked against it.
        fn seed_dot(a: &[f64], b: &[f64]) -> f64 {
            let mut acc = [0.0f64; 4];
            let (a4, a_tail) = a.split_at(a.len() - a.len() % 4);
            let (b4, b_tail) = b.split_at(a4.len());
            for (xs, ys) in a4.chunks_exact(4).zip(b4.chunks_exact(4)) {
                acc[0] += xs[0] * ys[0];
                acc[1] += xs[1] * ys[1];
                acc[2] += xs[2] * ys[2];
                acc[3] += xs[3] * ys[3];
            }
            let mut tail = 0.0;
            for (x, y) in a_tail.iter().zip(b_tail) {
                tail += x * y;
            }
            (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
        }
        for n in 0..=64 {
            let (a, b) = vectors(n);
            assert_eq!(
                dot(&a, &b).to_bits(),
                seed_dot(&a, &b).to_bits(),
                "dot drifted from the seed tree at n={n}"
            );
        }
    }

    #[test]
    fn sgd_step_matches_seed_loop_bitwise() {
        for n in [0, 1, 5, 8, 13, 32] {
            for (l1, l2) in [(0.0, 0.0), (0.0, 1e-4), (0.01, 0.0), (0.01, 1e-4)] {
                let (row, w0) = vectors(n);
                let (g, eta) = (0.73, 0.01);
                let mut w = w0.clone();
                sgd_step(&mut w, &row, g, eta, l1, l2);
                // The seed training loop, verbatim.
                let mut expected = w0.clone();
                for (wj, &xj) in expected.iter_mut().zip(&row) {
                    let mut grad = g * xj + l2 * *wj;
                    if l1 > 0.0 {
                        grad += l1 * wj.signum();
                    }
                    *wj -= eta * grad;
                }
                let same = w
                    .iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "sgd_step drifted at n={n} l1={l1} l2={l2}");
            }
        }
    }
}
