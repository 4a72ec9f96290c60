//! `fairprep` — the command-line interface of the FairPrep framework.
//!
//! ```text
//! fairprep run   --dataset german --learner lr-tuned --preprocessor reweighing --seed 46947
//! fairprep sweep --dataset compas --learner dt-tuned --seeds 8 --preprocessor di-remover-1.0
//! fairprep audit --dataset adult
//! fairprep help
//! ```
//!
//! `run` executes one lifecycle run and writes the full metric report;
//! `sweep` repeats a configuration across seeds and prints the metric
//! distributions (§2.2's variability quantification); `audit` prints
//! dataset-level fairness statistics before any model is trained, or — with
//! `--source <root>` — runs the static source audit from `fairprep-audit`
//! (test-set isolation, determinism, and panic-hygiene lints).

use std::process::ExitCode;

use crate::args;
use crate::build;

use fairprep_core::experiment::Experiment;
use fairprep_core::sweep::metric_across_outcomes;
use fairprep_data::stats::{completeness_label_rates, missing_rates};
use fairprep_fairness::metrics::DatasetMetrics;

use crate::args::Invocation;

const HELP: &str = "\
fairprep — a data-first evaluation framework for fairness-enhancing interventions

USAGE:
  fairprep run   --dataset <name> [options]   execute one experiment
  fairprep sweep --dataset <name> [options]   repeat across seeds, report distributions
  fairprep audit --dataset <name> [--rows N]  dataset-level fairness statistics
  fairprep audit --source <root>              static source audit (isolation,
                                              determinism, panic-hygiene lints)
  fairprep generate --dataset <name> --rows N [--seed S] [--out PATH]
                                              materialize a synthetic dataset as
                                              CSV (PATH, or stdout when omitted);
                                              scales to 10M+ rows
  fairprep serve --registry DIR [--port P] [--threads N]
                 [--access-log PATH [--sample-rate R]]
                 [--alerts SPECS.json] [--webhook URL]
                 [--canary FP [--canary-sample R]]
                                              serve every sealed pipeline in DIR
                                              over HTTP: POST /predict/<fingerprint>
                                              scores JSON rows through the frozen
                                              chain, GET /metrics reports request
                                              counts, latency histograms, decision
                                              rates by protected group, and PSI
                                              drift vs the sealed training profile
                                              — lifetime and rolling 1k/10k
                                              windows, as JSON (default) or
                                              Prometheus text exposition (send
                                              Accept: text/plain). --access-log
                                              appends one JSONL record per
                                              (sampled) request. --alerts arms
                                              declarative thresholds (windowed
                                              DI / PSI / rate gap / p99 / error
                                              rate) with trip/clear hysteresis;
                                              transitions emit `alert` JSONL
                                              events and optionally POST to
                                              --webhook. --canary shadow-scores
                                              sampled traffic through a second
                                              sealed pipeline and feeds the
                                              canary_divergence alert metric
  fairprep tail --file PATH [--once]          render a telemetry JSONL stream
                                              (sweep --progress heartbeats or
                                              serve --access-log records) live;
                                              --once prints what is there and
                                              exits
  fairprep help                               this message

OPTIONS (run / sweep / audit):
  --dataset        adult | german | compas | ricci | payment       (required*)
  --csv PATH       use a real CSV instead of a generator; requires
                   --label, --favorable, --protected, --privileged
                   plus --numeric and/or --categorical column lists
  --learner        lr | lr-tuned | dt | dt-tuned | nb | forest |
                   adversarial | prejudice-remover | lfr           [lr-tuned]
  --missing        complete-case | mode | mean-mode | model-based  [complete-case]
  --preprocessor   none | reweighing | di-remover-0.5 |
                   di-remover-1.0 | massaging | preferential-sampling [none]
  --postprocessor  none | reject-option | cal-eq-odds | eq-odds |
                   group-thresholds                                [none]
  --scaler         standard | min-max | none                       [standard]
  --inject-missing RATE  blank cells in the first three non-protected
                   feature columns before the run: unprivileged rows
                   lose a cell with probability RATE, privileged rows
                   with RATE/4 (the documented MAR-by-group adult
                   pattern, §2.4). Deterministic; useful with
                   --profile to watch complete-case analysis or
                   imputation shift the data distribution         [off]
  --seal DIR       (run / sweep) seal the fitted pipeline(s) — imputer,
                   featurizer, scaler, model, post-processor, plus the
                   raw-train profile — into DIR as canonical JSON keyed
                   by config fingerprint, for `fairprep serve`         [off]
  --seed           master seed (run)                               [46947]
  --seeds          seed count (sweep)                              [8]
  --rows           dataset rows, 0 = full documented size          [0]
  --threads        worker threads; a sweep splits them between
                   concurrent seeds and each run's internal
                   cross-validation, a single run hands them all
                   to cross-validation. Results are identical
                   at any thread count.                 [sweep 4, run 1]
  --out            metric CSV path (run)                           [-]
  --resume PATH    (sweep) append every finished run to a journal at
                   PATH and, on restart, reuse journaled outcomes
                   instead of rerunning them. A killed sweep resumed
                   this way produces byte-identical final output
  --inject-faults SPEC  (sweep) deterministic fault injection for
                   testing the sweep's failure containment. SPEC is
                   RATE, STAGE:RATE, or STAGE:RATE:KIND with KIND one
                   of panic | transient | mixed (default stage train,
                   kind mixed). Injected panics are isolated per run;
                   transient faults are retried                     [off]
  --max-retries N  (sweep) retry budget per run for transient
                   failures                                         [2]
  --progress PATH  (sweep) append a JSONL heartbeat per finished run
                   (done/failed/retried counts, elapsed, ETA) to
                   PATH; watch live with `fairprep tail --file PATH`.
                   Observability only: output and journals are
                   byte-identical with or without it               [off]
  --trace PATH     write a JSON run manifest: stage spans with
                   wall/CPU time, counters, failures, and a
                   canonical (timing-free) projection that is
                   byte-identical across runs and thread counts
  --trace-summary  print a human-readable stage/counter table
                   after the run (takes no value)
  --profile        profile the dataset at every lifecycle boundary
                   (raw -> split -> imputed -> preprocessed ->
                   features -> predictions), diff adjacent stages
                   (missingness, PSI, group balance, base rates),
                   embed the result as the manifest's `profile`
                   section, and surface threshold-crossing drifts
                   as manifest warnings (takes no value; implies
                   tracing)
";

/// Error-message prefix marking an *internal* failure (unreadable tree,
/// malformed baseline, bad flag) rather than findings. `fairprep audit`
/// distinguishes the two at the process level: exit 0 = clean, 1 =
/// findings, 2 = internal error.
const INTERNAL_ERROR_PREFIX: &str = "internal: ";

/// Maps an `execute` outcome to the process exit code (0/1/2).
pub fn exit_code(result: &Result<(), String>) -> u8 {
    match result {
        Ok(()) => 0,
        Err(m) if m.starts_with(INTERNAL_ERROR_PREFIX) => 2,
        Err(_) => 1,
    }
}

/// Binary entry point: parse `std::env::args`, dispatch, print errors,
/// map the outcome to an exit code.
pub fn run_main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = execute(&raw);
    if let Err(message) = &result {
        eprintln!(
            "error: {}",
            message
                .strip_prefix(INTERNAL_ERROR_PREFIX)
                .unwrap_or(message)
        );
        eprintln!("run `fairprep help` for usage");
    }
    ExitCode::from(exit_code(&result))
}

/// Dispatches a raw argument vector exactly as the binary would.
pub fn execute(raw: &[String]) -> Result<(), String> {
    let inv = args::parse(raw)?;
    match inv.command.as_str() {
        "run" => cmd_run(&inv),
        "sweep" => cmd_sweep(&inv),
        "audit" => cmd_audit(&inv),
        "generate" => cmd_generate(&inv),
        "serve" => cmd_serve(&inv),
        "tail" => crate::tail::cmd_tail(&inv),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Loads the dataset named by `--dataset`, or a user CSV when `--csv` is
/// given (with `--numeric/--categorical/--label/--favorable/--protected/
/// --privileged` describing its schema).
fn load_any_dataset(
    inv: &Invocation,
) -> Result<(String, fairprep_data::dataset::BinaryLabelDataset), String> {
    if let Ok(path) = inv.require("csv") {
        let dataset = build::load_csv_dataset(
            path,
            inv.get_or("numeric", ""),
            inv.get_or("categorical", ""),
            inv.require("label")?,
            inv.require("favorable")?,
            inv.require("protected")?,
            inv.require("privileged")?,
        )?;
        Ok((format!("csv:{path}"), dataset))
    } else {
        let dataset_name = inv.require("dataset")?;
        let rows = inv.parse_or::<usize>("rows", 0)?;
        let dataset = build::load_dataset(dataset_name, rows, 20_19)?;
        Ok((dataset_name.to_string(), inject_missing(inv, dataset)?))
    }
}

/// Applies `--inject-missing RATE`: blanks cells in the first three
/// non-protected feature columns under the documented MAR-by-group pattern
/// (§2.4) — unprivileged rows lose a cell with probability RATE, privileged
/// rows with RATE/4. Deterministic (fixed injection seed, like the dataset
/// generators), so repeated invocations see identical missingness.
fn inject_missing(
    inv: &Invocation,
    dataset: fairprep_data::dataset::BinaryLabelDataset,
) -> Result<fairprep_data::dataset::BinaryLabelDataset, String> {
    if !inv.options.contains_key("inject-missing") {
        return Ok(dataset);
    }
    let rate = inv.parse_or::<f64>("inject-missing", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("--inject-missing must be in [0, 1], got {rate}"));
    }
    let protected = dataset.protected().name.clone();
    let targets: Vec<String> = dataset
        .schema()
        .feature_names()
        .into_iter()
        .filter(|c| *c != protected)
        .take(3)
        .map(ToString::to_string)
        .collect();
    let target_refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    let injector = fairprep_impute::inject::MissingnessInjector::new(
        &target_refs,
        fairprep_impute::inject::Mechanism::MarByGroup {
            privileged_rate: rate / 4.0,
            unprivileged_rate: rate,
        },
    );
    injector.inject(&dataset, 20_19).map_err(|e| e.to_string())
}

fn build_experiment(
    inv: &Invocation,
    seed: u64,
    cv_threads: usize,
    tracer: fairprep_trace::Tracer,
) -> Result<Experiment, String> {
    let (dataset_name, dataset) = load_any_dataset(inv)?;
    let builder = Experiment::builder(&dataset_name, dataset)
        .seed(seed)
        .threads(cv_threads)
        .tracer(tracer)
        .profile(inv.flag("profile"));
    build::configure(
        builder,
        inv.get_or("learner", "lr-tuned"),
        inv.get_or("missing", "complete-case"),
        inv.get_or("preprocessor", "none"),
        inv.get_or("postprocessor", "none"),
        inv.get_or("scaler", "standard"),
    )
}

fn cmd_run(inv: &Invocation) -> Result<(), String> {
    let seed = inv.parse_or::<u64>("seed", 46947)?;
    // A single run has no outer parallelism, so the whole thread budget
    // goes to the model-selection cross-validation.
    let threads = inv.parse_or::<usize>("threads", 1)?;
    let tracing =
        inv.options.contains_key("trace") || inv.flag("trace-summary") || inv.flag("profile");
    let tracer = if tracing {
        fairprep_trace::Tracer::enabled()
    } else {
        fairprep_trace::Tracer::disabled()
    };
    let experiment = build_experiment(inv, seed, threads, tracer)?;
    let (result, sealed) = match inv.options.get("seal") {
        Some(dir) => {
            let (result, sealed) = experiment.run_sealed().map_err(|e| e.to_string())?;
            (result, Some((dir.clone(), sealed)))
        }
        None => (experiment.run().map_err(|e| e.to_string())?, None),
    };

    let t = &result.test_report;
    println!("experiment      : {}", result.metadata.experiment);
    println!("seed            : {}", result.metadata.seed);
    println!(
        "selected model  : {}",
        result.metadata.candidates[result.metadata.selected]
    );
    println!(
        "partitions      : train {} / validation {} / test {}",
        result.metadata.partition_sizes.0,
        result.metadata.partition_sizes.1,
        result.metadata.partition_sizes.2
    );
    println!("test accuracy   : {:.4}", t.overall.accuracy);
    println!("  privileged    : {:.4}", t.privileged.accuracy);
    println!("  unprivileged  : {:.4}", t.unprivileged.accuracy);
    println!("disparate impact: {:.4}", t.differences.disparate_impact);
    println!(
        "SPD / EOD / AOD : {:+.4} / {:+.4} / {:+.4}",
        t.differences.statistical_parity_difference,
        t.differences.equal_opportunity_difference,
        t.differences.average_odds_difference
    );
    if let Some(inc) = &t.incomplete_records {
        println!(
            "imputed records : {} (accuracy {:.4})",
            inc.n_instances, inc.accuracy
        );
    }

    match inv.get_or("out", "-") {
        "-" => {}
        path => {
            let mut file = std::fs::File::create(path).map_err(|e| e.to_string())?;
            result.write_csv(&mut file).map_err(|e| e.to_string())?;
            println!("full report     : {path}");
        }
    }

    if let Some((dir, pipeline)) = sealed {
        let path = pipeline
            .save(std::path::Path::new(&dir))
            .map_err(|e| e.to_string())?;
        println!("sealed pipeline : {}", path.display());
    }

    if tracing {
        let manifest = result
            .manifest
            .as_ref()
            .ok_or_else(|| "tracing was enabled but the run produced no manifest".to_string())?;
        if let Some(path) = inv.options.get("trace") {
            std::fs::write(path, manifest.to_json()).map_err(|e| e.to_string())?;
            println!("run manifest    : {path}");
        }
        if inv.flag("trace-summary") {
            // The summary already embeds the per-stage drift table when a
            // profile was recorded.
            println!("\n{}", manifest.summary());
        } else if inv.flag("profile") {
            if let Some(profile) = &manifest.profile {
                println!("\n{}", profile.drift_table());
            }
        }
    }
    Ok(())
}

/// Fingerprint of everything that shapes a sweep run's outcome.
///
/// Journal lookups, the sweep plan, and sealed-artifact registries must
/// all agree on this value, so it is computed in exactly one place — it
/// used to be recomputed from the raw descriptor at each call site, and
/// any drift between the copies would make resumed sweeps silently rerun
/// every seed.
fn sweep_config_fingerprint(inv: &Invocation, max_retries: u32) -> String {
    let descriptor = format!(
        "dataset={}|csv={}|rows={}|learner={}|missing={}|preprocessor={}|postprocessor={}|\
         scaler={}|inject-missing={}|inject-faults={}|max-retries={max_retries}",
        inv.get_or("dataset", ""),
        inv.get_or("csv", ""),
        inv.get_or("rows", "0"),
        inv.get_or("learner", "lr-tuned"),
        inv.get_or("missing", "complete-case"),
        inv.get_or("preprocessor", "none"),
        inv.get_or("postprocessor", "none"),
        inv.get_or("scaler", "standard"),
        inv.get_or("inject-missing", ""),
        inv.get_or("inject-faults", ""),
    );
    fairprep_core::journal::config_fingerprint(&descriptor)
}

fn cmd_sweep(inv: &Invocation) -> Result<(), String> {
    let n_seeds = inv.parse_or::<usize>("seeds", 8)?;
    let threads = inv.parse_or::<usize>("threads", 4)?;
    let max_retries = inv.parse_or::<u32>("max-retries", 2)?;
    let seeds = fairprep_core::sweep::paper_seeds(n_seeds);
    // An explicit error beats the old silent `unwrap_or(&0)` fallback the
    // sweep manifest used to record for an empty seed list.
    let first_seed = *seeds
        .first()
        .ok_or_else(|| "sweep needs at least one seed (--seeds >= 1)".to_string())?;

    // Deterministic fault injection (testing/CI only): the plan seed
    // derives from the sweep's first seed, so the same invocation always
    // injects the same faults.
    let faults = match inv.options.get("inject-faults") {
        Some(spec) => Some(fairprep_trace::FaultPlan::parse(
            spec,
            fairprep_data::rng::derive_seed(first_seed, "fault-plan"),
        )?),
        None => None,
    };

    // Journal entries are keyed by a fingerprint of everything that
    // shapes a run's outcome, so a journal written under one
    // configuration can never satisfy a resume of a different one.
    let fingerprint = sweep_config_fingerprint(inv, max_retries);
    let journal = match inv.options.get("resume") {
        Some(path) => Some(
            fairprep_core::journal::SweepJournal::open(std::path::Path::new(path))
                .map_err(|e| format!("cannot open journal {path}: {e}"))?,
        ),
        None => None,
    };

    // Split the budget between the two levels: concurrent seeds on the
    // outside, cross-validation threads inside each run. The product never
    // exceeds the requested thread count, so cores are not oversubscribed.
    let (outer, inner) = fairprep_data::parallel::split_budget(threads, seeds.len());
    println!("sweeping {n_seeds} seeds on {outer}x{inner} threads (runs x cv)...");
    if let Some(j) = &journal {
        let reusable = seeds
            .iter()
            .filter(|&&s| j.lookup(&fingerprint, s).is_some())
            .count();
        if reusable > 0 || j.discarded_lines() > 0 {
            println!(
                "journal {}: reusing {reusable} of {n_seeds} run(s), {} torn line(s) discarded",
                j.path().display(),
                j.discarded_lines()
            );
        }
    }
    // Concurrent runs would interleave their span events, so a sweep
    // tracer records failures and counters only; the per-run experiments
    // stay untraced.
    let tracer = if inv.options.contains_key("trace") {
        fairprep_trace::Tracer::enabled()
    } else {
        fairprep_trace::Tracer::disabled()
    };
    // Progress heartbeats are pure observability: the sink never enters
    // the config fingerprint, the journal, or the manifest.
    let progress = match inv.options.get("progress") {
        Some(path) => Some(
            fairprep_trace::telemetry::ProgressSink::create(
                std::path::Path::new(path),
                seeds.len() as u64,
            )
            .map_err(|e| format!("cannot open progress file {path}: {e}"))?,
        ),
        None => None,
    };
    let plan = fairprep_core::sweep::SweepPlan {
        seeds: &seeds,
        threads: outer,
        config: fingerprint.clone(),
        journal: journal.as_ref(),
        faults,
        max_retries,
        progress: progress.as_ref(),
    };
    let outcomes = fairprep_core::sweep::run_sweep(
        |seed| {
            build_experiment(inv, seed, inner, fairprep_trace::Tracer::disabled()).map_err(|m| {
                fairprep_data::error::Error::InvalidParameter {
                    name: "cli",
                    message: m,
                }
            })
        },
        &plan,
        &tracer,
    )
    .map_err(|e| e.to_string())?;
    let failures = outcomes.iter().filter(|o| !o.ok).count();
    if failures == outcomes.len() {
        let first = outcomes
            .into_iter()
            .find(|o| !o.ok)
            .map(|o| o.error)
            .unwrap_or_default();
        return Err(first);
    }

    const SWEEP_METRICS: &[&str] = &[
        "overall_accuracy",
        "privileged_accuracy",
        "unprivileged_accuracy",
        "disparate_impact",
        "statistical_parity_difference",
        "equal_opportunity_difference",
        "false_negative_rate_difference",
        "false_positive_rate_difference",
        "theil_index",
    ];
    println!(
        "\n{:<34} {:>8} {:>8} {:>8} {:>8} {:>4}",
        "metric", "mean", "std", "min", "max", "n"
    );
    for metric in SWEEP_METRICS {
        let d = metric_across_outcomes(&outcomes, metric);
        println!(
            "{:<34} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>4}",
            metric, d.mean, d.std, d.min, d.max, d.n
        );
    }
    let retried: u64 = outcomes.iter().map(|o| u64::from(o.retries)).sum();
    if retried > 0 {
        println!("\n({retried} transient failure(s) retried)");
    }
    if failures > 0 {
        println!("\n({failures} run(s) failed and were skipped)");
    }

    if let Some(dir) = inv.options.get("seal") {
        // Sweep outcomes come from the journal-aware runner and carry
        // metrics only, never fitted pipelines — a journal-restored seed
        // was not even refit in this process. Sealing therefore re-runs
        // each successful seed's lifecycle; determinism guarantees the
        // refit chain is the one the sweep measured. The per-seed
        // descriptor keeps artifacts from colliding in the registry.
        let dir = std::path::Path::new(dir);
        let mut sealed = 0usize;
        for outcome in outcomes.iter().filter(|o| o.ok) {
            let experiment =
                build_experiment(inv, outcome.seed, inner, fairprep_trace::Tracer::disabled())?;
            let (_, pipeline) = experiment.run_sealed().map_err(|e| e.to_string())?;
            pipeline.save(dir).map_err(|e| e.to_string())?;
            sealed += 1;
        }
        println!(
            "sealed pipelines: {sealed} artifact(s) in {}",
            dir.display()
        );
    }

    if let Some(path) = inv.options.get("trace") {
        // Digest over the mean of every reported metric: the same seed
        // list at any thread budget yields the same digest.
        let means: Vec<(String, f64)> = SWEEP_METRICS
            .iter()
            .map(|m| ((*m).to_string(), metric_across_outcomes(&outcomes, m).mean))
            .collect();
        let config = fairprep_trace::ManifestConfig {
            experiment: format!("sweep:{}", inv.get_or("dataset", "csv")),
            seed: first_seed,
            seeds: seeds.clone(),
            thread_budget: threads,
            ..fairprep_trace::ManifestConfig::default()
        };
        let manifest = fairprep_trace::RunManifest::from_tracer(
            &tracer,
            config,
            fairprep_trace::manifest::metric_digest(&means),
        );
        std::fs::write(path, manifest.to_json()).map_err(|e| e.to_string())?;
        println!("sweep manifest  : {path}");
    }
    Ok(())
}

fn cmd_audit(inv: &Invocation) -> Result<(), String> {
    // `--source <root>` switches from dataset statistics to the static
    // source audit (the same analyzer CI runs via `fairprep-audit`).
    // `--format text|json`, `--baseline <path>|none`, and
    // `--write-baseline <path>` pass straight through.
    if let Some(root) = inv.options.get("source") {
        let mut args = vec!["--root".to_string(), root.clone(), "--deny-all".to_string()];
        for flag in ["format", "baseline", "write-baseline"] {
            if let Some(value) = inv.options.get(flag) {
                args.push(format!("--{flag}"));
                args.push(value.clone());
            }
        }
        return match fairprep_audit::run(&args) {
            0 => Ok(()),
            1 => Err("source audit found new violations".to_string()),
            _ => Err(format!(
                "{INTERNAL_ERROR_PREFIX}source audit could not run (unreadable tree, \
                 malformed baseline, or bad flag)"
            )),
        };
    }
    let (dataset_name, dataset) = load_any_dataset(inv)?;
    let dataset_name = dataset_name.as_str();

    println!(
        "dataset          : {dataset_name} ({} rows)",
        dataset.n_rows()
    );
    let m = DatasetMetrics::compute(&dataset).map_err(|e| e.to_string())?;
    println!(
        "privileged rows  : {} ({:.1}%)",
        m.n_privileged,
        100.0 * m.n_privileged as f64 / m.n_instances as f64
    );
    println!("base rate        : {:.4}", m.base_rate);
    println!("  privileged     : {:.4}", m.privileged_base_rate);
    println!("  unprivileged   : {:.4}", m.unprivileged_base_rate);
    println!("label DI         : {:.4}", m.disparate_impact);
    println!("label SPD        : {:+.4}", m.statistical_parity_difference);

    let rates = missing_rates(dataset.frame());
    let with_missing: Vec<&(String, f64)> = rates.iter().filter(|(_, r)| *r > 0.0).collect();
    if with_missing.is_empty() {
        println!("missing values   : none");
    } else {
        println!("missing values   :");
        for (name, rate) in with_missing {
            println!("  {name:<22} {:.2}%", rate * 100.0);
        }
        let c = completeness_label_rates(&dataset);
        println!(
            "completeness     : {} complete (base rate {:.3}) / {} incomplete (base rate {:.3})",
            c.complete_count, c.complete_rate, c.incomplete_count, c.incomplete_rate
        );
    }
    Ok(())
}

/// `fairprep generate` — materializes a synthetic dataset as CSV, scaled
/// to `--rows` (0 = the documented full size), so `run --csv` can read
/// large inputs without shipping multi-hundred-MB fixtures.
fn cmd_generate(inv: &Invocation) -> Result<(), String> {
    let name = inv.require("dataset")?;
    let rows = inv.parse_or::<usize>("rows", 0)?;
    let seed = inv.parse_or::<u64>("seed", 20_19)?;
    let dataset = build::load_dataset(name, rows, seed)?;
    let frame = dataset.frame();
    let out = inv.get_or("out", "-");
    if out == "-" {
        use std::io::Write as _;
        let mut stdout = std::io::BufWriter::new(PipeOut {
            inner: std::io::stdout().lock(),
            closed: false,
        });
        let written = fairprep_data::csv::write_csv(frame, &mut stdout)
            .map_err(|e| format!("writing CSV to stdout: {e}"))
            .and_then(|()| stdout.flush().map_err(|e| format!("flushing stdout: {e}")));
        // A reader that stops early (`| head`) wants no more rows: not an error.
        if stdout.get_ref().closed {
            return Ok(());
        }
        written?;
    } else {
        let file = std::fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        fairprep_data::csv::write_csv(frame, &mut writer)
            .map_err(|e| format!("writing {out}: {e}"))?;
        use std::io::Write as _;
        writer.flush().map_err(|e| format!("flushing {out}: {e}"))?;
        eprintln!(
            "wrote {} rows x {} columns to {out}",
            frame.n_rows(),
            frame.column_names().len()
        );
    }
    Ok(())
}

/// A writer that notes when the reading end of its pipe has closed.
struct PipeOut<W> {
    inner: W,
    closed: bool,
}

impl<W> PipeOut<W> {
    fn note<T>(&mut self, result: std::io::Result<T>) -> std::io::Result<T> {
        if let Err(e) = &result {
            self.closed |= e.kind() == std::io::ErrorKind::BrokenPipe;
        }
        result
    }
}

impl<W: std::io::Write> std::io::Write for PipeOut<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

/// `fairprep serve` — loads every sealed pipeline in `--registry DIR`
/// and answers HTTP scoring requests until killed.
fn cmd_serve(inv: &Invocation) -> Result<(), String> {
    let registry_dir = inv.require("registry")?;
    let port = inv.parse_or::<u16>("port", 8319)?;
    let threads = inv.parse_or::<usize>("threads", 4)?;
    let mut registry = crate::serve::Registry::open(std::path::Path::new(registry_dir))?;
    if registry.is_empty() {
        return Err(format!(
            "no sealed pipelines (*.json) found in {registry_dir}; \
             create some with `fairprep run --seal {registry_dir}`"
        ));
    }
    if let Some(path) = inv.options.get("alerts") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read alerts file {path}: {e}"))?;
        let specs = fairprep_trace::alert::parse_specs(&text, &crate::serve::WINDOW_LABELS)?;
        registry.arm_alerts(&specs)?;
        println!("alerts          : {} spec(s) from {path}", specs.len());
    }
    if let Some(url) = inv.options.get("webhook") {
        registry.set_webhook(url)?;
        println!("webhook         : {url}");
    }
    if let Some(fingerprint) = inv.options.get("canary") {
        let sample_rate = inv.parse_or::<f64>("canary-sample", 0.1)?;
        registry.arm_canary(fingerprint, sample_rate)?;
        println!("canary          : {fingerprint} (sample rate {sample_rate})");
    }
    let mut server = crate::serve::Server::bind(registry, port)?;
    if let Some(path) = inv.options.get("access-log") {
        let sample_rate = inv.parse_or::<f64>("sample-rate", 1.0)?;
        server = server.with_access_log(std::path::Path::new(path), sample_rate)?;
        println!("access log      : {path} (sample rate {sample_rate})");
    }
    println!(
        "serving {} sealed pipeline(s) on http://{}",
        server.registry().len(),
        server.local_addr()?
    );
    for fingerprint in server.registry().fingerprints() {
        println!("  POST /predict/{}", fingerprint.replace(':', "-"));
    }
    println!("  GET  /healthz");
    println!("  GET  /metrics");
    server.serve_blocking(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(ToString::to_string).collect()
    }

    #[test]
    fn help_succeeds() {
        assert!(execute(&argv("help")).is_ok());
        assert!(execute(&[]).is_ok());
    }

    #[test]
    fn unknown_command_fails() {
        assert!(execute(&argv("frobnicate")).is_err());
    }

    #[test]
    fn run_requires_dataset() {
        assert!(execute(&argv("run")).is_err());
    }

    #[test]
    fn small_run_executes() {
        execute(&argv(
            "run --dataset german --rows 200 --learner dt --preprocessor reweighing --seed 7",
        ))
        .unwrap();
    }

    #[test]
    fn small_sweep_executes() {
        execute(&argv(
            "sweep --dataset german --rows 150 --learner dt --seeds 3 --threads 2",
        ))
        .unwrap();
    }

    #[test]
    fn audit_executes_for_every_dataset() {
        for name in crate::build::DATASETS {
            execute(&argv(&format!("audit --dataset {name} --rows 200"))).unwrap();
        }
    }

    #[test]
    fn source_audit_distinguishes_clean_from_dirty_trees() {
        let root = std::env::temp_dir().join("fairprep_cli_source_audit_test");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn ok() -> i32 { 1 }\n").unwrap();
        execute(&argv(&format!("audit --source {}", root.display()))).unwrap();

        std::fs::write(
            src.join("lib.rs"),
            "pub fn bad(v: Option<i32>) -> i32 { v.unwrap() }\n",
        )
        .unwrap();
        let err = execute(&argv(&format!("audit --source {}", root.display()))).unwrap_err();
        assert!(err.contains("violations"), "{err}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// `fairprep audit` exit codes: 0 clean, 1 findings, 2 internal.
    #[test]
    fn source_audit_exit_code_0_on_clean_tree() {
        let root = std::env::temp_dir().join("fairprep_cli_exit0_test");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn ok() -> i32 { 1 }\n").unwrap();
        let result = execute(&argv(&format!("audit --source {}", root.display())));
        assert_eq!(exit_code(&result), 0, "{result:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn source_audit_exit_code_1_on_findings() {
        let root = std::env::temp_dir().join("fairprep_cli_exit1_test");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn f() { panic!(\"boom\"); }\n").unwrap();
        let result = execute(&argv(&format!("audit --source {}", root.display())));
        assert_eq!(exit_code(&result), 1, "{result:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn source_audit_exit_code_2_on_internal_error() {
        // Unreadable root.
        let missing = std::env::temp_dir().join("fairprep_cli_exit2_does_not_exist");
        let result = execute(&argv(&format!("audit --source {}", missing.display())));
        assert_eq!(exit_code(&result), 2, "{result:?}");

        // Malformed baseline is also an internal error, not a finding.
        let root = std::env::temp_dir().join("fairprep_cli_exit2_baseline_test");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn ok() -> i32 { 1 }\n").unwrap();
        let bad = root.join("broken.baseline.json");
        std::fs::write(&bad, "{ not json").unwrap();
        let result = execute(&argv(&format!(
            "audit --source {} --baseline {}",
            root.display(),
            bad.display()
        )));
        assert_eq!(exit_code(&result), 2, "{result:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn source_audit_baseline_absorbs_preexisting_findings() {
        let root = std::env::temp_dir().join("fairprep_cli_baseline_flow_test");
        let src = root.join("src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn bad(v: Option<i32>) -> i32 { v.unwrap() }\n",
        )
        .unwrap();
        // Capture the dirty state, then audit against it: clean.
        let base = root.join("audit.baseline.json");
        let result = execute(&argv(&format!(
            "audit --source {} --write-baseline {}",
            root.display(),
            base.display()
        )));
        assert_eq!(exit_code(&result), 0, "{result:?}");
        let result = execute(&argv(&format!(
            "audit --source {} --baseline {}",
            root.display(),
            base.display()
        )));
        assert_eq!(exit_code(&result), 0, "{result:?}");
        // A *new* finding still fails against the old baseline.
        std::fs::write(
            src.join("lib.rs"),
            "pub fn bad(v: Option<i32>) -> i32 { v.unwrap() }\npub fn worse() { panic!(\"x\"); }\n",
        )
        .unwrap();
        let result = execute(&argv(&format!(
            "audit --source {} --baseline {}",
            root.display(),
            base.display()
        )));
        assert_eq!(exit_code(&result), 1, "{result:?}");
        std::fs::remove_dir_all(&root).ok();
    }

    /// Regression (the duplicated-fingerprint bug): the sweep used to
    /// recompute `config_fingerprint` from the raw descriptor at both
    /// the journal-lookup and the sweep-plan call sites. The single
    /// helper must produce the exact pinned hex for a fixed invocation —
    /// any change here invalidates every existing sweep journal, so it
    /// must be deliberate.
    #[test]
    fn sweep_fingerprint_hex_is_pinned() {
        let inv = args::parse(&argv(
            "sweep --dataset german --rows 150 --learner dt --seeds 3",
        ))
        .unwrap();
        assert_eq!(
            sweep_config_fingerprint(&inv, 2),
            "fnv1a64:7905925fb64df59a"
        );
        // Every outcome-shaping flag must move the fingerprint.
        assert_ne!(
            sweep_config_fingerprint(&inv, 3),
            sweep_config_fingerprint(&inv, 2)
        );
        let other = args::parse(&argv(
            "sweep --dataset german --rows 150 --learner lr --seeds 3",
        ))
        .unwrap();
        assert_ne!(
            sweep_config_fingerprint(&other, 2),
            sweep_config_fingerprint(&inv, 2)
        );
        // Seed count does NOT shape a single run's outcome, so it must
        // not move the fingerprint (that is what lets a journal satisfy
        // a wider resume).
        let wider = args::parse(&argv(
            "sweep --dataset german --rows 150 --learner dt --seeds 9",
        ))
        .unwrap();
        assert_eq!(
            sweep_config_fingerprint(&wider, 2),
            sweep_config_fingerprint(&inv, 2)
        );
    }

    /// `run --seal DIR` writes a loadable artifact whose reloaded copy
    /// scores; `sweep --seal DIR` writes one artifact per ok seed with
    /// distinct fingerprints.
    #[test]
    fn run_and_sweep_seal_artifacts() {
        let dir = std::env::temp_dir().join("fairprep_cli_seal_test");
        let _ = std::fs::remove_dir_all(&dir);
        let run_dir = dir.join("run");
        execute(&argv(&format!(
            "run --dataset german --rows 200 --learner dt --seed 7 --seal {}",
            run_dir.display()
        )))
        .unwrap();
        let artifacts: Vec<_> = std::fs::read_dir(&run_dir).unwrap().collect();
        assert_eq!(artifacts.len(), 1);
        let path = artifacts[0].as_ref().unwrap().path();
        let sealed = fairprep_core::seal::SealedPipeline::load(&path).unwrap();
        assert_eq!(sealed.experiment, "german");

        let sweep_dir = dir.join("sweep");
        execute(&argv(&format!(
            "sweep --dataset german --rows 150 --learner dt --seeds 2 --threads 2 --seal {}",
            sweep_dir.display()
        )))
        .unwrap();
        let count = std::fs::read_dir(&sweep_dir).unwrap().count();
        assert_eq!(count, 2, "one sealed artifact per ok seed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_requires_registry_with_artifacts() {
        assert!(execute(&argv("serve")).is_err());
        let dir = std::env::temp_dir().join("fairprep_cli_serve_empty_test");
        std::fs::create_dir_all(&dir).unwrap();
        let err = execute(&argv(&format!("serve --registry {}", dir.display()))).unwrap_err();
        assert!(err.contains("no sealed pipelines"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_component_name_is_reported() {
        let err = execute(&argv("run --dataset german --rows 100 --learner zzz")).unwrap_err();
        assert!(err.contains("unknown learner"));
    }

    #[test]
    fn run_writes_trace_manifest() {
        let path = std::env::temp_dir().join("fairprep_cli_test_manifest.json");
        let cmd = format!(
            "run --dataset german --rows 200 --learner dt --seed 9 --trace-summary --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"schema_version\""));
        assert!(text.contains("\"timing\""));
        assert!(text.contains("\"split\""));
        // The manifest must parse back with the in-tree JSON reader.
        let value = fairprep_trace::json::parse(&text).unwrap();
        assert!(value.get("timing").is_some());
        assert_eq!(
            value
                .get("experiment")
                .and_then(fairprep_trace::json::Value::as_str),
            Some("german")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_flag_embeds_profile_section_in_manifest() {
        let path = std::env::temp_dir().join("fairprep_cli_test_profile_manifest.json");
        let cmd = format!(
            "run --dataset payment --rows 300 --learner dt --missing mode --seed 11 \
             --profile --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fairprep_trace::json::parse(&text).unwrap();
        let profile = value.get("profile").expect("profile section present");
        let snapshots = profile
            .get("snapshots")
            .and_then(fairprep_trace::json::Value::as_array)
            .unwrap();
        assert!(snapshots.len() >= 2, "snapshots: {}", snapshots.len());
        assert!(profile.get("diffs").is_some());
        assert!(profile.get("predictions").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inject_missing_with_complete_case_surfaces_drift_warnings() {
        let path = std::env::temp_dir().join("fairprep_cli_test_inject_manifest.json");
        let cmd = format!(
            "run --dataset german --rows 400 --learner lr --missing complete-case \
             --inject-missing 0.4 --seed 7 --profile --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fairprep_trace::json::parse(&text).unwrap();
        let warnings = value
            .get("warnings")
            .and_then(fairprep_trace::json::Value::as_array)
            .unwrap();
        let rendered: Vec<&str> = warnings.iter().filter_map(|w| w.as_str()).collect();
        assert!(
            rendered
                .iter()
                .any(|w| w.contains("group-disproportionate")),
            "expected a disproportionate-drop warning, got {rendered:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inject_missing_rejects_out_of_range_rates() {
        let err = execute(&argv(
            "run --dataset german --rows 100 --inject-missing 1.5",
        ))
        .unwrap_err();
        assert!(err.contains("[0, 1]"), "{err}");
    }

    #[test]
    fn sweep_rejects_empty_seed_list() {
        let err = execute(&argv("sweep --dataset german --rows 150 --seeds 0")).unwrap_err();
        assert!(err.contains("at least one seed"), "{err}");
    }

    #[test]
    fn sweep_manifest_records_full_seed_list() {
        let path = std::env::temp_dir().join("fairprep_cli_test_sweep_seeds_manifest.json");
        let cmd = format!(
            "sweep --dataset german --rows 150 --learner dt --seeds 3 --threads 2 --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fairprep_trace::json::parse(&text).unwrap();
        let seeds = value
            .get("seeds")
            .and_then(fairprep_trace::json::Value::as_array)
            .expect("seeds list present");
        assert_eq!(seeds.len(), 3);
        assert_eq!(
            seeds[0].as_u64(),
            value
                .get("seed")
                .and_then(fairprep_trace::json::Value::as_u64)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_writes_trace_manifest() {
        let path = std::env::temp_dir().join("fairprep_cli_test_sweep_manifest.json");
        let cmd = format!(
            "sweep --dataset german --rows 150 --learner dt --seeds 3 --threads 2 --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fairprep_trace::json::parse(&text).unwrap();
        assert_eq!(
            value
                .get("experiment")
                .and_then(fairprep_trace::json::Value::as_str),
            Some("sweep:german")
        );
        assert!(value.get("failures").is_some());
        std::fs::remove_file(&path).ok();
    }

    /// With deterministic fault injection, the sweep must complete (exit
    /// cleanly), record the injected panics in the manifest's `failures`
    /// array, and count them in `jobs_failed` — one poisoned run must
    /// not kill the sweep.
    #[test]
    fn sweep_with_injected_panics_records_failures_and_completes() {
        let path = std::env::temp_dir().join("fairprep_cli_test_faults_manifest.json");
        let cmd = format!(
            "sweep --dataset german --rows 150 --learner dt --seeds 6 --threads 2 \
             --inject-faults split:0.5:panic --trace {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value = fairprep_trace::json::parse(&text).unwrap();
        let failed = value
            .get("counters")
            .and_then(|c| c.get("jobs_failed"))
            .and_then(fairprep_trace::json::Value::as_u64)
            .unwrap();
        assert!(failed > 0, "no injected fault fired; adjust the rate");
        let failures = value
            .get("failures")
            .and_then(fairprep_trace::json::Value::as_array)
            .unwrap();
        assert_eq!(failures.len() as u64, failed);
        assert!(failures
            .iter()
            .filter_map(|f| f.as_str())
            .all(|f| f.contains("injected fault")));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sweep_rejects_malformed_fault_specs() {
        for bad in ["train:2.0", "nosuchstage:0.5", "train:0.5:sometimes"] {
            let err = execute(&argv(&format!(
                "sweep --dataset german --rows 150 --seeds 2 --inject-faults {bad}"
            )))
            .unwrap_err();
            assert!(err.contains("fault spec"), "{bad}: {err}");
        }
    }

    /// Resume contract, end to end: an uninterrupted sweep, a resumed
    /// complete journal, and a resume after a simulated mid-sweep kill
    /// (truncated journal + torn trailing line) must all report the same
    /// metric digest, counters, and failures.
    #[test]
    fn sweep_resume_is_byte_identical_after_kill() {
        let dir = std::env::temp_dir().join("fairprep_cli_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("sweep.journal.jsonl");
        let _ = std::fs::remove_file(&journal);
        let sweep_cmd = |manifest: &std::path::Path, resume: bool| {
            let mut cmd = format!(
                "sweep --dataset german --rows 150 --learner dt --seeds 4 --threads 2 \
                 --inject-faults split:0.4:mixed --trace {}",
                manifest.display()
            );
            if resume {
                cmd.push_str(&format!(" --resume {}", journal.display()));
            }
            cmd
        };
        let canonical_state = |manifest: &std::path::Path| {
            let text = std::fs::read_to_string(manifest).unwrap();
            let value = fairprep_trace::json::parse(&text).unwrap();
            let digest = value
                .get("metric_digest")
                .and_then(fairprep_trace::json::Value::as_str)
                .unwrap()
                .to_string();
            let failed = value
                .get("counters")
                .and_then(|c| c.get("jobs_failed"))
                .and_then(fairprep_trace::json::Value::as_u64)
                .unwrap();
            let retried = value
                .get("counters")
                .and_then(|c| c.get("jobs_retried"))
                .and_then(fairprep_trace::json::Value::as_u64)
                .unwrap();
            let failures: Vec<String> = value
                .get("failures")
                .and_then(fairprep_trace::json::Value::as_array)
                .unwrap()
                .iter()
                .filter_map(|f| f.as_str().map(ToString::to_string))
                .collect();
            (digest, failed, retried, failures)
        };

        // Baseline: no journal at all.
        let m1 = dir.join("uninterrupted.json");
        execute(&argv(&sweep_cmd(&m1, false))).unwrap();

        // Fresh journal: populates it; output must match the baseline.
        let m2 = dir.join("journaled.json");
        execute(&argv(&sweep_cmd(&m2, true))).unwrap();
        assert_eq!(canonical_state(&m1), canonical_state(&m2));

        // Simulate a kill mid-sweep: keep the first two journal lines and
        // tear the third mid-write.
        let full = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        assert_eq!(lines.len(), 4);
        let torn = format!(
            "{}\n{}\n{}",
            lines[0],
            lines[1],
            &lines[2][..lines[2].len() / 2]
        );
        std::fs::write(&journal, torn).unwrap();

        let m3 = dir.join("resumed.json");
        execute(&argv(&sweep_cmd(&m3, true))).unwrap();
        assert_eq!(canonical_state(&m1), canonical_state(&m3));

        std::fs::remove_dir_all(&dir).ok();
    }

    /// `sweep --progress PATH` writes a start line, one heartbeat per
    /// seed, and a terminal done event — and `fairprep tail --once`
    /// renders the stream without error.
    #[test]
    fn sweep_progress_heartbeats_render_with_tail() {
        let dir = std::env::temp_dir().join("fairprep_cli_progress_test");
        std::fs::create_dir_all(&dir).unwrap();
        let progress = dir.join("progress.jsonl");
        execute(&argv(&format!(
            "sweep --dataset german --rows 150 --learner dt --seeds 2 --threads 2 --progress {}",
            progress.display()
        )))
        .unwrap();
        let text = std::fs::read_to_string(&progress).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "start + 2 heartbeats + done: {text}");
        assert!(lines[0].contains("\"event\":\"start\""), "{text}");
        assert!(lines[3].contains("\"event\":\"done\""), "{text}");
        assert!(text.contains("\"event\":\"heartbeat\""), "{text}");
        execute(&argv(&format!("tail --file {} --once", progress.display()))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_writes_output_file() {
        let path = std::env::temp_dir().join("fairprep_cli_test_out.csv");
        let cmd = format!(
            "run --dataset german --rows 200 --learner dt --seed 9 --out {}",
            path.display()
        );
        execute(&argv(&cmd)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("overall_accuracy"));
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(test)]
mod csv_cli_tests {
    use super::*;

    #[test]
    fn run_on_a_user_csv() {
        let path = std::env::temp_dir().join("fairprep_cli_run_csv.csv");
        let mut csv = String::from("score,group,outcome\n");
        for i in 0..150 {
            let g = if i % 2 == 0 { "x" } else { "y" };
            let score = 30 + (i * 7) % 60;
            let outcome = if score + (i % 2) * 10 > 60 {
                "good"
            } else {
                "bad"
            };
            csv.push_str(&format!("{score},{g},{outcome}\n"));
        }
        std::fs::write(&path, csv).unwrap();
        let cmd = format!(
            "run --csv {} --numeric score --label outcome --favorable good \
             --protected group --privileged x --learner dt --seed 5",
            path.display()
        );
        let argv: Vec<String> = cmd.split_whitespace().map(ToString::to_string).collect();
        execute(&argv).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// A numeric cell that is not a finite number stops the run at ingest,
    /// naming the CSV's own column and line, whichever learner and scaler
    /// the run would use.
    #[test]
    fn non_finite_csv_cell_is_refused_with_its_column_and_line() {
        let path = std::env::temp_dir().join(format!(
            "fairprep_cli_non_finite_{}.csv",
            std::process::id()
        ));
        for cell in ["inf", "-nan", "NaN"] {
            let mut csv = String::from("score,group,outcome\n");
            for i in 0..150 {
                let g = if i % 2 == 0 { "x" } else { "y" };
                let outcome = if i % 3 == 1 { "good" } else { "bad" };
                if i % 3 == 2 {
                    csv.push_str(&format!("{cell},{g},{outcome}\n"));
                } else {
                    csv.push_str(&format!("{},{g},{outcome}\n", 30 + i));
                }
            }
            std::fs::write(&path, csv).unwrap();
            for (learner, scaler) in [("lr", "standard"), ("dt", "none")] {
                let cmd = format!(
                    "run --csv {} --numeric score --label outcome --favorable good \
                     --protected group --privileged x --learner {learner} --scaler {scaler}",
                    path.display()
                );
                let argv: Vec<String> = cmd.split_whitespace().map(ToString::to_string).collect();
                let err = execute(&argv).unwrap_err();
                assert_eq!(
                    err,
                    format!("csv error at line 4: column score: `{cell}` is not a finite number")
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_requires_schema_options() {
        let err = execute(
            &"run --csv /tmp/whatever.csv"
                .split_whitespace()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
        )
        .unwrap_err();
        assert!(err.contains("--label"));
    }
}
