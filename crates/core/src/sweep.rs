//! Fault-tolerant, resumable sweep execution.
//!
//! [`run_sweep`] is the crash-safe engine behind multi-seed sweeps. It
//! layers three guarantees on top of the panic-isolated runner:
//!
//! * **Panic isolation** — each seed's job runs under
//!   [`catch_panic`]; a run that
//!   unwinds becomes a failed [`SeedOutcome`] while every other seed
//!   keeps its result.
//! * **Checkpoint/resume** — with a [`SweepJournal`] attached, every
//!   finished job is appended (and flushed) to the journal *from inside
//!   the job*, so a sweep killed at any instant loses at most the jobs
//!   still in flight. A restarted sweep reuses journaled outcomes and
//!   reruns only the rest; because all randomness derives from per-seed
//!   RNGs, the merged output is bit-identical to an uninterrupted sweep.
//! * **Bounded deterministic retry** — failures carrying the injected
//!   transient-fault marker are retried up to
//!   [`SweepPlan::max_retries`] times with the attempt number folded
//!   into the fault decision, so a retried job is a pure function of its
//!   seed too.
//!
//! Failure strings, `jobs_failed`, and `jobs_retried` are recorded on
//! the caller's tracer *sequentially, in seed order, after the parallel
//! phase* — the manifest cannot observe the thread budget, interleaving,
//! or whether a resume happened.

use fairprep_data::error::{Error, Result};
use fairprep_data::parallel::{catch_panic, parallel_map};
use fairprep_trace::fault::is_transient_failure;
use fairprep_trace::{Counter, FaultPlan, Tracer};

use crate::aggregate::MetricDistribution;
use crate::experiment::Experiment;
use crate::journal::{JournalEntry, SweepJournal};

/// Everything [`run_sweep`] needs besides the experiment builder.
pub struct SweepPlan<'a> {
    /// One run per seed, in output order.
    pub seeds: &'a [u64],
    /// Worker threads for the seed-level parallel phase.
    pub threads: usize,
    /// Configuration fingerprint (see
    /// [`config_fingerprint`](crate::journal::config_fingerprint)) keying
    /// journal entries.
    pub config: String,
    /// Checkpoint journal; `None` disables checkpointing.
    pub journal: Option<&'a SweepJournal>,
    /// Deterministic fault injection; `None` in production sweeps.
    pub faults: Option<FaultPlan>,
    /// Retry budget per seed for transient failures (0 = no retries).
    pub max_retries: u32,
    /// Live progress heartbeats (`sweep --progress PATH`): every finished
    /// job — executed or journal-restored — appends one JSONL heartbeat
    /// with running done/failed/retried tallies and an ETA, rendered live
    /// by `fairprep tail`. `None` disables progress reporting. Heartbeats
    /// are observability only: they never influence outcomes, journaling,
    /// or the tracer, so the manifest stays byte-identical with and
    /// without a sink attached.
    pub progress: Option<&'a fairprep_trace::telemetry::ProgressSink>,
}

/// The terminal outcome of one seed's job.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedOutcome {
    /// The run seed.
    pub seed: u64,
    /// `true` when the run completed (possibly after retries).
    pub ok: bool,
    /// Test metrics of a completed run, sorted by name. Empty on failure.
    pub metrics: Vec<(String, f64)>,
    /// Failure string of a failed run (runner format: panics are
    /// prefixed `"panic: "`). Empty on success.
    pub error: String,
    /// Retry attempts consumed (0 = succeeded or failed on first try).
    pub retries: u32,
    /// `true` when this outcome was restored from the journal instead of
    /// executed.
    pub reused: bool,
}

impl SeedOutcome {
    fn to_entry(&self, config: &str) -> JournalEntry {
        JournalEntry {
            config: config.to_string(),
            seed: self.seed,
            ok: self.ok,
            retries: self.retries,
            metrics: self.metrics.clone(),
            error: self.error.clone(),
        }
    }

    fn from_entry(entry: &JournalEntry) -> SeedOutcome {
        SeedOutcome {
            seed: entry.seed,
            ok: entry.ok,
            metrics: entry.metrics.clone(),
            error: entry.error.clone(),
            retries: entry.retries,
            reused: true,
        }
    }
}

/// Runs one experiment per seed with panic isolation, optional
/// checkpoint/resume, and bounded retry of transient failures.
///
/// Outcomes come back in seed order. Failed seeds are reported in their
/// slot, never propagated — the only `Err` this function returns is a
/// journal I/O failure (a checkpoint that cannot be persisted would
/// silently void the resume guarantee, so it aborts loudly).
pub fn run_sweep(
    build: impl Fn(u64) -> Result<Experiment> + Sync,
    plan: &SweepPlan<'_>,
    tracer: &Tracer,
) -> Result<Vec<SeedOutcome>> {
    // Phase 1: restore journaled outcomes, collect the seeds still to run.
    let mut outcomes: Vec<Option<SeedOutcome>> = plan
        .seeds
        .iter()
        .map(|&seed| {
            plan.journal
                .and_then(|j| j.lookup(&plan.config, seed))
                .map(SeedOutcome::from_entry)
        })
        .collect();
    if let Some(progress) = plan.progress {
        for restored in outcomes.iter().flatten() {
            progress.job_finished(restored.seed, restored.ok, restored.retries, true);
        }
    }
    let pending: Vec<u64> = plan
        .seeds
        .iter()
        .zip(&outcomes)
        .filter(|(_, restored)| restored.is_none())
        .map(|(&seed, _)| seed)
        .collect();

    // Phase 2: run the pending seeds in parallel. Journal appends happen
    // inside each job, immediately on completion — kill-safety demands
    // the checkpoint exists before the next job is even scheduled.
    let fresh = parallel_map(pending, plan.threads, |seed| run_one(&build, plan, seed));

    // Phase 3: merge, surface journal failures, and record tracer state
    // sequentially in seed order so manifests are identical at any thread
    // budget and across resumes.
    let mut fresh_iter = fresh.into_iter();
    let mut merged = Vec::with_capacity(outcomes.len());
    for slot in outcomes.drain(..) {
        match slot {
            Some(restored) => merged.push(restored),
            None => {
                let (outcome, journal_error) = fresh_iter
                    .next()
                    .ok_or_else(|| Error::Io("sweep lost a pending job".to_string()))?;
                if let Some(e) = journal_error {
                    return Err(e);
                }
                merged.push(outcome);
            }
        }
    }
    for (i, outcome) in merged.iter().enumerate() {
        if outcome.retries > 0 {
            tracer.add(Counter::JobsRetried, u64::from(outcome.retries));
        }
        if !outcome.ok {
            tracer.incr(Counter::JobsFailed);
            tracer.record_failure(format!("job {i}: {}", outcome.error));
        }
    }
    if let Some(progress) = plan.progress {
        progress.finish();
    }
    Ok(merged)
}

fn run_one(
    build: &(impl Fn(u64) -> Result<Experiment> + Sync),
    plan: &SweepPlan<'_>,
    seed: u64,
) -> (SeedOutcome, Option<Error>) {
    let mut retries = 0u32;
    let outcome = loop {
        let attempt = catch_panic(|| -> Result<crate::results::RunResult> {
            let mut exp = build(seed)?;
            if let Some(faults) = &plan.faults {
                // The arm sees the attempt number, so a retried transient
                // fault re-rolls its decision deterministically.
                exp.tracer = exp.tracer.clone().with_faults(faults.arm(seed, retries));
            }
            exp.run()
        });
        let failure = match attempt {
            Ok(Ok(result)) => {
                break SeedOutcome {
                    seed,
                    ok: true,
                    metrics: result.test_metrics().into_iter().collect(),
                    error: String::new(),
                    retries,
                    reused: false,
                }
            }
            Ok(Err(e)) => e.to_string(),
            Err(panic) => format!("panic: {}", panic.message),
        };
        if is_transient_failure(&failure) && retries < plan.max_retries {
            retries += 1;
            continue;
        }
        break SeedOutcome {
            seed,
            ok: false,
            metrics: Vec::new(),
            error: failure,
            retries,
            reused: false,
        };
    };
    let journal_error = plan
        .journal
        .and_then(|j| j.append(&outcome.to_entry(&plan.config)).err());
    // Heartbeat after the checkpoint: a tailing observer never sees a job
    // reported done that a kill right now would force to rerun.
    if let Some(progress) = plan.progress {
        progress.job_finished(seed, outcome.ok, outcome.retries, false);
    }
    (outcome, journal_error)
}

/// The paper's fixed seeds (§4 lists the first three), extended
/// deterministically to any requested count: the seed list of every
/// sweep and figure harness.
#[must_use]
pub fn paper_seeds(n: usize) -> Vec<u64> {
    let base = [46947u64, 71735, 94246, 31807, 12663, 56480, 83928, 40621];
    (0..n)
        .map(|i| {
            if i < base.len() {
                base[i]
            } else {
                // Deterministic extension of the seed list.
                fairprep_data::rng::derive_seed(base[i % base.len()], &format!("seed/{i}"))
            }
        })
        .collect()
}

/// Number of completed outcomes in a sweep.
#[must_use]
pub fn count_completed(outcomes: &[SeedOutcome]) -> usize {
    outcomes.iter().filter(|o| o.ok).count()
}

/// Summarizes one test metric across the completed outcomes of a sweep
/// (the [`metric_across_runs`](crate::aggregate::metric_across_runs)
/// analogue for journaled sweeps).
#[must_use]
pub fn metric_across_outcomes(outcomes: &[SeedOutcome], metric: &str) -> MetricDistribution {
    let values: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| {
            o.metrics
                .iter()
                .find(|(name, _)| name == metric)
                .map_or(f64::NAN, |(_, v)| *v)
        })
        .collect();
    MetricDistribution::from_values(&values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::config_fingerprint;
    use crate::learners::DecisionTreeLearner;
    use fairprep_datasets::generate_german;
    use fairprep_trace::{FaultKind, Stage};

    fn build(seed: u64) -> Result<Experiment> {
        Experiment::builder("german", generate_german(120, 3)?)
            .seed(seed)
            .learner(DecisionTreeLearner { tuned: false })
            .build()
    }

    #[test]
    fn paper_seeds_start_with_the_published_ones() {
        let seeds = paper_seeds(10);
        assert_eq!(&seeds[..3], &[46947, 71735, 94246]);
        assert_eq!(seeds.len(), 10);
        // Extension is deterministic and collision-free for small n.
        let again = paper_seeds(10);
        assert_eq!(seeds, again);
        for (i, s) in seeds.iter().enumerate() {
            assert!(!seeds[i + 1..].contains(s));
        }
    }

    fn plan<'a>(seeds: &'a [u64], journal: Option<&'a SweepJournal>) -> SweepPlan<'a> {
        SweepPlan {
            seeds,
            threads: 2,
            config: config_fingerprint("german|dt|test"),
            journal,
            faults: None,
            max_retries: 2,
            progress: None,
        }
    }

    #[test]
    fn clean_sweep_completes_every_seed() {
        let seeds = [1u64, 2, 3, 4];
        let outcomes = run_sweep(build, &plan(&seeds, None), &Tracer::disabled()).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(count_completed(&outcomes), 4);
        assert!(outcomes.iter().all(|o| !o.reused && o.retries == 0));
        let acc = metric_across_outcomes(&outcomes, "overall_accuracy");
        assert_eq!(acc.n, 4);
        assert!(acc.min >= 0.0 && acc.max <= 1.0);
    }

    #[test]
    fn injected_panics_fail_their_seed_without_killing_the_sweep() {
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let mut p = plan(&seeds, None);
        // Rate 1.0 on split: every seed panics on entry, deterministically.
        p.faults = Some(FaultPlan::new(9, Stage::Split, 1.0, FaultKind::Panic));
        p.max_retries = 2;
        let tracer = Tracer::enabled();
        let outcomes = run_sweep(build, &p, &tracer).unwrap();
        assert_eq!(count_completed(&outcomes), 0);
        for (i, o) in outcomes.iter().enumerate() {
            assert!(o.error.starts_with("panic: injected fault"), "{}", o.error);
            assert_eq!(o.retries, 0, "permanent faults must not be retried");
            assert!(tracer.failures()[i].starts_with(&format!("job {i}: panic:")));
        }
        assert_eq!(tracer.counter(Counter::JobsFailed), 6);
        assert_eq!(tracer.counter(Counter::JobsRetried), 0);
    }

    #[test]
    fn transient_faults_are_retried_within_budget() {
        let seeds: Vec<u64> = (100..130).collect();
        let mut p = plan(&seeds, None);
        let faults = FaultPlan::new(7, Stage::Split, 0.5, FaultKind::Transient);
        p.faults = Some(faults.clone());
        p.max_retries = 3;
        let tracer = Tracer::enabled();
        let outcomes = run_sweep(build, &p, &tracer).unwrap();
        // Predict each outcome from the pure fault plan. A seed may still
        // fail for genuine reasons (a degenerate split on the tiny test
        // dataset); those failures must not carry the transient marker.
        for o in &outcomes {
            let expected_failed_attempts = (0..=p.max_retries)
                .take_while(|&a| faults.decide(o.seed, a).is_some())
                .count() as u32;
            if expected_failed_attempts > p.max_retries {
                assert!(!o.ok, "seed {} should exhaust retries", o.seed);
                assert_eq!(o.retries, p.max_retries);
                assert!(is_transient_failure(&o.error), "{}", o.error);
            } else {
                assert_eq!(o.retries, expected_failed_attempts, "seed {}", o.seed);
                if !o.ok {
                    assert!(!is_transient_failure(&o.error), "{}", o.error);
                }
            }
        }
        assert!(
            outcomes.iter().any(|o| o.ok && o.retries > 0),
            "no seed exercised the retry path; pick a different plan seed"
        );
        let total_retries: u64 = outcomes.iter().map(|o| u64::from(o.retries)).sum();
        assert_eq!(tracer.counter(Counter::JobsRetried), total_retries);
    }

    #[test]
    fn outcomes_are_thread_invariant_under_faults() {
        let seeds: Vec<u64> = (0..12).collect();
        let run_with = |threads: usize| {
            let mut p = plan(&seeds, None);
            p.threads = threads;
            p.faults = Some(FaultPlan::new(5, Stage::Train, 0.4, FaultKind::Mixed));
            let tracer = Tracer::enabled();
            let outcomes = run_sweep(build, &p, &tracer).unwrap();
            (outcomes, tracer.failures())
        };
        let (seq, seq_failures) = run_with(1);
        let (par, par_failures) = run_with(8);
        assert_eq!(seq_failures, par_failures);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.ok, b.ok);
            assert_eq!(a.error, b.error);
            assert_eq!(a.retries, b.retries);
            assert_eq!(a.metrics.len(), b.metrics.len());
            for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(na, nb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{na} differs across threads");
            }
        }
    }

    #[test]
    fn journaled_outcomes_are_reused_not_rerun() {
        let dir = std::env::temp_dir().join(format!("fairprep-sweep-{}", std::process::id()));
        let path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let seeds = [1u64, 2, 3];

        let journal = SweepJournal::open(&path).unwrap();
        let first = run_sweep(build, &plan(&seeds, Some(&journal)), &Tracer::disabled()).unwrap();
        assert_eq!(count_completed(&first), 3);
        drop(journal);

        // Second pass: a builder that panics unconditionally proves that
        // journaled seeds are never executed.
        let journal = SweepJournal::open(&path).unwrap();
        assert_eq!(journal.len(), 3);
        let second = run_sweep(
            |_| -> Result<Experiment> { panic!("resume executed a journaled job") },
            &plan(&seeds, Some(&journal)),
            &Tracer::disabled(),
        )
        .unwrap();
        assert!(second.iter().all(|o| o.reused));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.ok, b.ok);
            for ((na, va), (nb, vb)) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(na, nb);
                assert_eq!(va.to_bits(), vb.to_bits(), "{na} not restored bit-exactly");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_outcomes_are_journaled_and_reused_too() {
        let dir = std::env::temp_dir().join(format!("fairprep-sweepf-{}", std::process::id()));
        let path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let seeds = [1u64, 2];
        let faults = FaultPlan::new(9, Stage::Split, 1.0, FaultKind::Panic);

        let tracer = Tracer::enabled();
        let first = {
            let journal = SweepJournal::open(&path).unwrap();
            let mut p = plan(&seeds, Some(&journal));
            p.faults = Some(faults.clone());
            run_sweep(build, &p, &tracer).unwrap()
        };
        assert_eq!(count_completed(&first), 0);

        let tracer2 = Tracer::enabled();
        let journal = SweepJournal::open(&path).unwrap();
        let mut p = plan(&seeds, Some(&journal));
        p.faults = Some(faults);
        let second = run_sweep(build, &p, &tracer2).unwrap();
        assert!(second.iter().all(|o| o.reused && !o.ok));
        // Tracer state (failures + counters) is identical across resume.
        assert_eq!(tracer.failures(), tracer2.failures());
        assert_eq!(
            tracer.counter(Counter::JobsFailed),
            tracer2.counter(Counter::JobsFailed)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_sink_sees_every_job_and_restored_jobs_are_marked_reused() {
        use fairprep_trace::json::{parse, Value};
        use fairprep_trace::telemetry::ProgressSink;
        let dir = std::env::temp_dir().join(format!("fairprep-sweepp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&journal_path);
        let seeds = [1u64, 2, 3];

        let events_of = |path: &std::path::Path| -> Vec<Value> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(|l| parse(l).unwrap())
                .collect()
        };

        // Fresh sweep: start, one heartbeat per seed (none reused), done.
        let progress_path = dir.join("fresh.progress.jsonl");
        {
            let journal = SweepJournal::open(&journal_path).unwrap();
            let sink = ProgressSink::create(&progress_path, seeds.len() as u64).unwrap();
            let mut p = plan(&seeds, Some(&journal));
            p.progress = Some(&sink);
            run_sweep(build, &p, &Tracer::disabled()).unwrap();
        }
        let events = events_of(&progress_path);
        assert_eq!(events.len(), 2 + seeds.len());
        let beats: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("heartbeat"))
            .collect();
        assert_eq!(beats.len(), seeds.len());
        assert!(beats
            .iter()
            .all(|b| b.get("reused") == Some(&Value::Bool(false))));
        let done = events.last().unwrap();
        assert_eq!(done.get("event").and_then(Value::as_str), Some("done"));
        assert_eq!(done.get("done").and_then(Value::as_u64_any), Some(3));
        assert_eq!(done.get("failed").and_then(Value::as_u64_any), Some(0));

        // Resumed sweep: every heartbeat is a journal restoration.
        let progress_path = dir.join("resume.progress.jsonl");
        {
            let journal = SweepJournal::open(&journal_path).unwrap();
            let sink = ProgressSink::create(&progress_path, seeds.len() as u64).unwrap();
            let mut p = plan(&seeds, Some(&journal));
            p.progress = Some(&sink);
            run_sweep(
                |_| -> Result<Experiment> { panic!("resume executed a journaled job") },
                &p,
                &Tracer::disabled(),
            )
            .unwrap();
        }
        let events = events_of(&progress_path);
        let beats: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some("heartbeat"))
            .collect();
        assert_eq!(beats.len(), seeds.len());
        assert!(beats
            .iter()
            .all(|b| b.get("reused") == Some(&Value::Bool(true))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
