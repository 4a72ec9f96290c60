//! Explicit-width compute kernels for the hot predict/train loops.
//!
//! Every kernel here is written against a **frozen arithmetic
//! specification**: the exact per-element operations and, for reductions,
//! the exact combine tree are part of the public contract, because the
//! golden-trace manifests, sweep journals, and 1-vs-8-thread proptests all
//! pin run results bit-for-bit. An implementation may restructure *memory
//! access* freely (wider loads, unrolling, preallocated outputs) but must
//! not change *float semantics*.
//!
//! [`dot`] is the pipeline reduction: four interleaved accumulators
//! combined as `(a0+a1) + (a2+a3) + tail`, processing [`LANES`] elements
//! per loop iteration. This is bit-identical to the seed kernel (the
//! reduction tree is unchanged; only the memory width grew), so every
//! golden manifest still verifies. [`dot_ref`] is its readable scalar
//! specification; the two are proptested bit-for-bit on every tail length.
//!
//! [`sgd_step`] has no reduction at all: each output element depends on
//! one input element through a fixed expression. It stays the plain loop
//! of the seed training code, because an 8-lane unrolled form measured
//! 2–8% slower at the lifecycle's 63–65 column widths.

// audit: allow-file(index-literal, reason = "the fixed-width dot kernels index [f64; 4] accumulators and chunks_exact blocks whose lengths are compile-time constants, so literal indices 0..=7 are always in bounds")

/// The memory width of the kernels: elements processed per loop iteration
/// (8 × f64 = one 512-bit vector register).
pub const LANES: usize = 8;

/// Pipeline dot product — frozen reduction tree, [`LANES`]-wide memory
/// access.
///
/// Semantics (unchanged from the seed kernel): accumulator `j` of four
/// sums the elements with index ≡ `j` (mod 4) in ascending order; the
/// final value is `(a0 + a1) + (a2 + a3) + tail` where `tail` is the
/// sequential sum of the `len % 4` trailing products. The implementation
/// consumes two 4-element groups per iteration so the loads use full
/// vector width, but the update order of each accumulator — and therefore
/// every intermediate rounding — is identical to [`dot_ref`].
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let split8 = a.len() - a.len() % LANES;
    let (a8, a_rest) = a.split_at(split8);
    let (b8, b_rest) = b.split_at(split8);
    for (xs, ys) in a8.chunks_exact(LANES).zip(b8.chunks_exact(LANES)) {
        acc[0] += xs[0] * ys[0];
        acc[1] += xs[1] * ys[1];
        acc[2] += xs[2] * ys[2];
        acc[3] += xs[3] * ys[3];
        acc[0] += xs[4] * ys[4];
        acc[1] += xs[5] * ys[5];
        acc[2] += xs[6] * ys[6];
        acc[3] += xs[7] * ys[7];
    }
    // At most one full 4-element group can remain before the scalar tail.
    let split4 = a_rest.len() - a_rest.len() % 4;
    let (a4, a_tail) = a_rest.split_at(split4);
    let (b4, b_tail) = b_rest.split_at(split4);
    if let (Some(xs), Some(ys)) = (a4.chunks_exact(4).next(), b4.chunks_exact(4).next()) {
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

/// Scalar specification of [`dot`]: the same four-accumulator reduction
/// tree written as the simplest possible loop. Used as the bit-for-bit
/// oracle in the kernel-equivalence proptests and as the scalar baseline
/// in `bench_kernels`.
#[must_use]
pub fn dot_ref(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
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
        // The seed kernel: 4-chunk loop with interleaved accumulators.
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
                "widened kernel drifted from the seed tree at n={n}"
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
