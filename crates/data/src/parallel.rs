//! Generic work-stealing parallelism over scoped threads.
//!
//! The paper's experiments are sweeps (1,344 runs in §5.1; 216 in §5.2;
//! 530 in §5.3), and each tuned run performs a 5-fold × many-candidate grid
//! search — hundreds of independent model fits. [`parallel_map`] is the one
//! primitive both levels share: it distributes independent items over a
//! fixed thread budget via an atomic work-stealing cursor (idle workers
//! claim the next unclaimed item, so uneven item costs cannot stall the
//! pool) and returns results in **submission order**, which keeps every
//! parallel caller bit-identical to its sequential equivalent.
//!
//! No extra dependency is needed: `std::thread::scope` lets the workers
//! borrow the closure and input non-`'static` data directly.

// audit: allow-file(expect, reason = "a poisoned slot mutex means a worker closure panicked; surfacing that panic is the intended behavior")
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A captured worker panic: the payload message of a job that unwound.
///
/// Produced by [`parallel_map_catching`] and [`catch_panic`]. Sweep
/// runners convert this into a per-slot error so one poisoned run cannot
/// discard the results of every other run in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload rendered as text (`&str` and `String` payloads
    /// verbatim; anything else becomes `"opaque panic payload"`).
    pub message: String,
}

impl JobPanic {
    fn from_payload(payload: &(dyn std::any::Any + Send)) -> JobPanic {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string());
        JobPanic { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panic: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Runs `f`, converting an unwind into `Err(JobPanic)`.
///
/// The `AssertUnwindSafe` is sound by construction for sweep jobs: each
/// job owns its state (experiments are built inside the job closure) and
/// a panicked job's partial state is dropped with the closure, so no
/// broken invariant can be observed afterwards.
pub fn catch_panic<R>(f: impl FnOnce() -> R) -> std::result::Result<R, JobPanic> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|p| JobPanic::from_payload(p.as_ref()))
}

/// Maps `f` over `items` on up to `threads` worker threads.
///
/// Results come back in submission order regardless of which worker ran
/// which item, so `parallel_map(v, t, f)` is observationally identical to
/// `v.into_iter().map(f).collect()` for any `t` — callers that derive all
/// randomness from per-item seeds therefore get bit-identical output at
/// every thread count.
///
/// `threads` is clamped to `[1, items.len()]`; a budget of 1 runs inline
/// without spawning. If `f` panics, the panic propagates to the caller
/// once the scope unwinds.
#[must_use]
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // One lock per slot: claiming item i and storing result i never
    // contends with work on any other slot. The atomic cursor is the
    // work-stealing queue — workers race to increment it and own whatever
    // index they receive.
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> = items
        .into_iter()
        .map(|item| Mutex::new((Some(item), None)))
        .collect();
    let next = AtomicUsize::new(0);

    scoped_workers(threads, |_| loop {
        let ix = next.fetch_add(1, Ordering::Relaxed);
        if ix >= n {
            break;
        }
        let item = slots[ix]
            // audit: allow(shared-mut-capture, reason = "slot i is claimed by exactly one worker via the atomic cursor; results land by index, so the merge order is submission order regardless of scheduling")
            .lock()
            .expect("slot poisoned")
            .0
            .take()
            .expect("item claimed once");
        let out = f(item);
        // audit: allow(shared-mut-capture, reason = "same per-slot lock: one writer per index, deterministic merge by position")
        slots[ix].lock().expect("slot poisoned").1 = Some(out);
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .1
                .expect("item ran")
        })
        .collect()
}

/// Like [`parallel_map`], but isolates panics per item: a job that
/// unwinds yields `Err(JobPanic)` in its slot while every other slot
/// keeps its result.
///
/// [`parallel_map`] deliberately propagates the first panic and discards
/// all completed work — correct for programming errors inside fold jobs,
/// but fatal for sweep engines where one poisoned run out of a thousand
/// must not kill hours of completed work. Sweep-level callers use this
/// variant and record the panic as a per-run failure.
///
/// The unwind-safety argument for the blanket `AssertUnwindSafe` lives on
/// [`catch_panic`]; submission order and thread-count invariance are
/// inherited from [`parallel_map`] (the catching wrapper is applied
/// per-item, inside the slot).
#[must_use]
pub fn parallel_map_catching<T, R, F>(
    items: Vec<T>,
    threads: usize,
    f: F,
) -> Vec<std::result::Result<R, JobPanic>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map(items, threads, |item| catch_panic(|| f(item)))
}

/// Spawns `threads` scoped workers running `worker(worker_index)` and
/// joins them all before returning.
///
/// This is the worker-spawn substrate under [`parallel_map`], exposed so
/// other fixed-pool callers (the scoring server's accept loop, bench
/// client fleets) share one spawning idiom instead of re-rolling
/// `std::thread::scope` each time. The closure borrows non-`'static`
/// state directly; a panic in any worker propagates once the scope
/// unwinds, exactly as in [`parallel_map`].
///
/// `threads` is clamped to at least 1.
pub fn scoped_workers<F>(threads: usize, worker: F)
where
    F: Fn(usize) + Sync,
{
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        for w in 0..threads {
            let worker = &worker;
            scope.spawn(move || worker(w));
        }
    });
}

/// Splits a total core budget between an outer job level and an inner
/// per-job level so the two do not oversubscribe: the outer level gets
/// `min(total, outer_jobs)` workers and each job's inner work gets the
/// remaining factor (`total / outer`, at least 1).
///
/// This is the contract between sweep-level parallelism
/// (`fairprep-core::runner`) and model-selection parallelism
/// (`fairprep-ml::selection`): a sweep of 4 jobs on 16 cores runs 4 jobs
/// × 4 CV threads, while a single run on 16 cores gives all 16 to CV.
#[must_use]
pub fn split_budget(total: usize, outer_jobs: usize) -> (usize, usize) {
    let total = total.max(1);
    let outer = total.min(outer_jobs.max(1));
    let inner = (total / outer).max(1);
    (outer, inner)
}

/// The machine's available parallelism, falling back to 1 when unknown.
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_submission_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items, 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let seq = parallel_map(items.clone(), 1, |i| {
            i.wrapping_mul(0x9E37_79B9).rotate_left(13)
        });
        for threads in [2, 3, 8, 64] {
            let par = parallel_map(items.clone(), threads, |i| {
                i.wrapping_mul(0x9E37_79B9).rotate_left(13)
            });
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_item_costs_are_stolen_not_stalled() {
        // One expensive item up front must not serialize the rest: with 4
        // workers the total wall time stays far below the sequential sum.
        let items: Vec<u64> = (0..16).collect();
        let start = std::time::Instant::now();
        let out = parallel_map(items, 4, |i| {
            std::thread::sleep(std::time::Duration::from_millis(if i == 0 {
                40
            } else {
                10
            }));
            i
        });
        let elapsed = start.elapsed();
        assert_eq!(out.len(), 16);
        // Sequential would take 40 + 15*10 = 190ms; 4 workers need ~50-90ms.
        assert!(elapsed.as_millis() < 190, "no speedup: {elapsed:?}");
    }

    #[test]
    fn non_static_borrows_are_allowed() {
        let base = [10.0_f64, 20.0, 30.0];
        let items: Vec<usize> = (0..3).collect();
        let out = parallel_map(items, 2, |i| base[i] + 1.0);
        assert_eq!(out, vec![11.0, 21.0, 31.0]);
    }

    #[test]
    fn budget_split_covers_the_shapes() {
        assert_eq!(split_budget(16, 4), (4, 4)); // sweep: 4 jobs x 4 CV threads
        assert_eq!(split_budget(16, 1), (1, 16)); // single run: all cores to CV
        assert_eq!(split_budget(4, 100), (4, 1)); // more jobs than cores
        assert_eq!(split_budget(0, 0), (1, 1)); // degenerate inputs clamp
        assert_eq!(split_budget(7, 2), (2, 3)); // floor division, no oversubscription
    }

    /// A zero anywhere in the budget arithmetic must clamp to 1, never
    /// underflow or hand out a zero-thread level (`0 / outer` and
    /// `total / 0` were both reachable from `--threads 0` sweeps).
    #[test]
    fn budget_split_clamps_zero_inputs_to_one() {
        assert_eq!(split_budget(0, 4), (1, 1)); // no cores, 4 jobs
        assert_eq!(split_budget(4, 0), (1, 4)); // 4 cores, empty job list
        assert_eq!(split_budget(0, 0), (1, 1)); // nothing at all
        for total in 0..6 {
            for jobs in 0..6 {
                let (outer, inner) = split_budget(total, jobs);
                assert!(outer >= 1 && inner >= 1, "({total}, {jobs}) -> zero level");
                assert!(
                    outer * inner <= total.max(1),
                    "({total}, {jobs}) oversubscribed"
                );
            }
        }
    }

    /// Regression test for the sweep-killing panic: one panicking job out
    /// of 16 must surface as a single `Err` slot while the other 15 keep
    /// their results. `parallel_map` itself deliberately propagates the
    /// panic (and with it discards all completed work); the catching
    /// variant is what sweep engines run on.
    #[test]
    fn one_panicking_job_does_not_kill_the_batch() {
        let items: Vec<usize> = (0..16).collect();
        let out = parallel_map_catching(items, 4, |i| {
            assert!(i != 7, "injected failure in job 7");
            i * 10
        });
        assert_eq!(out.len(), 16);
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 15);
        for (i, slot) in out.iter().enumerate() {
            if i == 7 {
                let panic = slot.as_ref().expect_err("job 7 panicked");
                assert!(panic.message.contains("injected failure"), "{panic}");
            } else {
                assert_eq!(slot.as_ref().ok().copied(), Some(i * 10));
            }
        }
    }

    #[test]
    fn catching_map_is_order_and_thread_invariant() {
        let run = |threads| {
            parallel_map_catching((0..20).collect::<Vec<usize>>(), threads, |i| {
                assert!(i % 5 != 3, "boom {i}");
                i
            })
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq, par);
        assert_eq!(seq.iter().filter(|r| r.is_err()).count(), 4);
    }

    #[test]
    fn catch_panic_renders_str_string_and_opaque_payloads() {
        assert_eq!(catch_panic(|| 3), Ok(3));
        let p = catch_panic(|| panic!("plain &str")).unwrap_err();
        assert_eq!(p.message, "plain &str");
        let p = catch_panic(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(p.message, "formatted 7");
        let p = catch_panic(|| std::panic::panic_any(42_i32)).unwrap_err();
        assert_eq!(p.message, "opaque panic payload");
        assert_eq!(p.to_string(), "panic: opaque panic payload");
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    fn scoped_workers_runs_each_index_once_and_joins() {
        let hits = Mutex::new(vec![0usize; 6]);
        scoped_workers(6, |w| {
            hits.lock().expect("slot poisoned")[w] += 1;
        });
        // The call returned, so every worker has been joined.
        assert_eq!(*hits.lock().expect("slot poisoned"), vec![1; 6]);
    }

    #[test]
    fn scoped_workers_clamps_zero_threads_to_one() {
        let ran = AtomicUsize::new(0);
        scoped_workers(0, |w| {
            assert_eq!(w, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
