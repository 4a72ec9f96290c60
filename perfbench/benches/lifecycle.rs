//! The lifecycle workloads: `fig2_german` and `fig4_adult`.
//!
//! An op is one experiment run (closed loop). A run makes whole passes
//! over its grid until the passes add up to `--seconds`, so every pass
//! does the same work. Outside the timed window the run repeats the
//! workload's set-up at points spread over the run (`fig2_german`: after
//! every op; `fig4_adult`: between passes), and on `fig4_adult` it checks
//! each pass's reloaded artifacts after the pass. The traced run instead
//! runs each configuration untraced and then replays it through the
//! crates' public functions (`replay.rs`), back to back, with a span
//! around every call of the replay.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use fairprep_core::results::RunResult;
use fairprep_core::runner::{run_parallel, Job};
use fairprep_core::seal::{ScoredRow, SealedPipeline};
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::frame::DataFrame;
use fairprep_data::parallel::parallel_map;
use fairprep_data::split::{train_val_test_split, SplitSpec};

use crate::grid::{self, Config, CsvContract};
use crate::replay::replay;
use crate::spans::{ms, write_jsonl, Spans, OP};
use crate::stats::{mean, median, quantile};
use crate::{sys, Outcome, Run, LIFECYCLE_LAYERS};

/// Set-ups repeated after each `fig4_adult` pass (one takes about 0.1 s).
const FIG4_SETUPS_PER_PASS: usize = 3;

/// Checks each configuration's test-report digest against the digest
/// recorded for this workload seed (when there is one) and against the
/// first digest this run produced for the configuration.
pub struct DigestCheck {
    recorded: BTreeMap<String, String>,
    seen: BTreeMap<String, String>,
}

impl DigestCheck {
    pub fn new(recorded: Vec<(String, String)>) -> DigestCheck {
        DigestCheck {
            recorded: recorded.into_iter().collect(),
            seen: BTreeMap::new(),
        }
    }

    pub fn check(&mut self, config: &str, digest: &str) -> bool {
        if self.recorded.get(config).is_some_and(|r| r != digest) {
            println!("check failed: {config} digest {digest} != recorded");
            return false;
        }
        let first = self
            .seen
            .entry(config.to_string())
            .or_insert_with(|| digest.to_string());
        if first != digest {
            println!("check failed: {config} digest {digest} != first pass {first}");
            return false;
        }
        true
    }
}

/// The set-up times of one run, grouped by the point of the run they
/// were taken at. The host's speed switches within seconds between two
/// levels (see the README's host facts), so a median over single set-ups
/// lands on whichever level held most of the run; the median over points
/// of each point's mean set-up time moves smoothly with the mix instead.
#[derive(Default)]
pub struct Setups {
    points: Vec<Vec<f64>>,
}

impl Setups {
    /// Starts the next point of the run.
    pub fn next_point(&mut self) {
        self.points.push(Vec::new());
    }

    /// Runs and times one set-up, at the current point.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let started = Instant::now();
        let value = f()?;
        let elapsed = started.elapsed().as_secs_f64();
        match self.points.last_mut() {
            Some(point) => point.push(elapsed),
            None => self.points.push(vec![elapsed]),
        }
        Ok(value)
    }

    /// The median over the run's points of the mean set-up time at each,
    /// in seconds.
    pub fn median_s(&self) -> f64 {
        let means: Vec<f64> = self
            .points
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| mean(p))
            .collect();
        println!(
            "setup: {} repetitions at {} points, mean per point (s): {means:.6?}",
            self.points.iter().map(Vec::len).sum::<usize>(),
            means.len()
        );
        median(&means)
    }
}

/// One untraced op.
struct OpRecord {
    config: usize,
    pass: usize,
    wall_ms: f64,
    render_ms: f64,
}

/// The untraced timed window: the passes, without what runs between
/// them.
struct Window {
    ops: Vec<OpRecord>,
    pass_ms: Vec<f64>,
    window_s: f64,
    cpu_s: f64,
    /// Wall and CPU time of the current pass spent in [`Window::untimed`].
    untimed_s: f64,
    untimed_cpu_s: f64,
    attempted: u64,
    failed: u64,
}

impl Window {
    fn new() -> Window {
        Window {
            ops: Vec::new(),
            pass_ms: Vec::new(),
            window_s: 0.0,
            cpu_s: 0.0,
            untimed_s: 0.0,
            untimed_cpu_s: 0.0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs one pass and adds its wall time and this process's CPU time
    /// to the window.
    fn pass<T>(&mut self, f: impl FnOnce(&mut Window) -> T) -> T {
        self.untimed_s = 0.0;
        self.untimed_cpu_s = 0.0;
        let cpu0 = sys::self_cpu_s();
        let started = Instant::now();
        let out = f(self);
        let pass_s = started.elapsed().as_secs_f64() - self.untimed_s;
        self.cpu_s += sys::self_cpu_s() - cpu0 - self.untimed_cpu_s;
        self.window_s += pass_s;
        self.pass_ms.push(pass_s * 1e3);
        out
    }

    /// Runs `f` inside a sequential pass without counting its wall or CPU
    /// time toward the pass.
    fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = sys::self_cpu_s();
        let started = Instant::now();
        let out = f();
        self.untimed_s += started.elapsed().as_secs_f64();
        self.untimed_cpu_s += sys::self_cpu_s() - cpu0;
        out
    }

    /// True once the passes add up to the run's length.
    fn full(&self, run: &Run) -> bool {
        self.window_s >= run.seconds
    }

    /// Records one op and checks its digest. Returns whether its result
    /// rendered and matched the digest.
    fn record_op(
        &mut self,
        config: usize,
        name: &str,
        wall_ms: f64,
        (rendered_ok, render_ms): Rendered,
        result: &RunResult,
        check: &mut DigestCheck,
    ) -> bool {
        self.ops.push(OpRecord {
            config,
            pass: self.pass_ms.len(),
            wall_ms,
            render_ms,
        });
        let digest_ok = check.check(name, &grid::digest(&result.test_report));
        rendered_ok && digest_ok
    }

    fn end_to_end(&self, setup_s: f64, out: &mut Outcome) {
        // Rendering takes about 0.1 ms, so single renders sample one of
        // the host's two speeds; each pass's mean spans many switches.
        let renders: Vec<f64> = grouped(self.ops.iter().map(|o| (o.pass, o.render_ms)))
            .values()
            .map(|v| mean(v))
            .collect();
        let n = self.ops.len().max(1) as f64;
        out.attempted += self.attempted;
        out.failed += self.failed;
        out.set("setup_s", setup_s);
        out.set("ops_per_s", self.ops.len() as f64 / self.window_s);
        out.set("cpu_ms_per_op", self.cpu_s * 1e3 / n);
        out.set("peak_rss_mb", sys::peak_rss_mb("self"));
        out.set("batch_p50_ms", median(&self.pass_ms));
        out.set("scrape_p50_ms", median(&renders));
        // Op latency across the grid's configurations, each at its median
        // over the passes: the grid mixes ops whose costs differ 100-fold,
        // so a percentile over raw ops would sit on one op's outlier.
        let per_config: Vec<f64> = grouped(self.ops.iter().map(|o| (o.config, o.wall_ms)))
            .values()
            .map(|v| median(v))
            .collect();
        println!(
            "window {:.3} s, {} ops, op p50/p90 across configurations {:.1}/{:.1} ms, passes (ms): {:.1?}",
            self.window_s,
            self.ops.len(),
            median(&per_config),
            quantile(&per_config, 0.9),
            self.pass_ms
        );
    }
}

/// Whether a result report rendered, and in how many milliseconds.
type Rendered = (bool, f64);

/// Renders a run's result report (the sweep's point-file row) right
/// after the op, so renders spread over the pass like the ops.
fn render(result: &RunResult) -> Rendered {
    let started = Instant::now();
    let mut rendered = Vec::new();
    let ok = result.write_csv(&mut rendered).is_ok() && !rendered.is_empty();
    (ok, ms(started.elapsed()))
}

/// Samples grouped by key (a configuration or a pass).
fn grouped(samples: impl Iterator<Item = (usize, f64)>) -> BTreeMap<usize, Vec<f64>> {
    let mut grouped: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (config, v) in samples {
        grouped.entry(config).or_default().push(v);
    }
    grouped
}

// ---------------------------------------------------------------------------
// fig2_german
// ---------------------------------------------------------------------------

fn fig2_setup(run: &Run) -> Result<BinaryLabelDataset, String> {
    grid::german(run.seed).map_err(|e| e.to_string())
}

/// The passes of `fig2_german`, with one untimed set-up after every op.
fn fig2_window(
    run: &Run,
    german: &BinaryLabelDataset,
    check: &mut DigestCheck,
    setups: &mut Setups,
) -> Result<Window, String> {
    let grid = grid::fig2_grid();
    let seed = grid::experiment_seed(run.seed);
    let mut w = Window::new();
    loop {
        setups.next_point();
        w.pass(|w| -> Result<(), String> {
            for (i, config) in grid.iter().enumerate() {
                w.attempted += 1;
                let op0 = Instant::now();
                let result = config
                    .experiment("germancredit", german.clone(), seed, run.cores)
                    .and_then(|e| e.run());
                let wall_ms = ms(op0.elapsed());
                let ok = match result {
                    Ok(r) => w.record_op(i, &config.name(), wall_ms, render(&r), &r, check),
                    Err(e) => {
                        println!("op failed: {}: {e}", config.name());
                        false
                    }
                };
                if !ok {
                    w.failed += 1;
                }
                w.untimed(|| setups.time(|| fig2_setup(run)))?;
            }
            Ok(())
        })?;
        if w.full(run) {
            return Ok(w);
        }
    }
}

pub fn fig2(run: &Run, trace: bool) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    let german = setups.time(|| fig2_setup(run))?;
    let mut check = DigestCheck::new(grid::recorded_digests("fig2_german", run.seed));
    let mut out = Outcome::default();
    if !trace {
        let window = fig2_window(run, &german, &mut check, &mut setups)?;
        window.end_to_end(setups.median_s(), &mut out);
        return Ok(out);
    }
    let grid = grid::fig2_grid();
    let seed = grid::experiment_seed(run.seed);
    let traced = traced_passes(
        run,
        grid.len(),
        |config, op| {
            let c = &grid[config];
            let op0 = Instant::now();
            let result = c
                .experiment("germancredit", german.clone(), seed, run.cores)
                .and_then(|e| e.run());
            let untraced_ms = ms(op0.elapsed());
            let result = result.map_err(|e| e.to_string())?;
            let mut spans = Spans::new(op);
            spans.enter(OP);
            let replayed = replay(
                c,
                "germancredit",
                &german,
                seed,
                run.cores,
                false,
                &mut spans,
            );
            spans.exit();
            let replayed = replayed.map_err(|e| e.to_string())?;
            Ok(TracedOp {
                config,
                untraced_ms,
                untraced_digest: grid::digest(&result.test_report),
                untraced_ok: true,
                spans,
                replay_digest: replayed.test_digest,
                replay_ok: true,
                cells: replayed.cells_imputed,
                cv_fits: replayed.cv_fits,
                fold_cache_hits: replayed.fold_cache_hits,
                sealed_bytes: 0,
            })
        },
        1,
    );
    layer_metrics(run, "fig2_german", &grid, traced, &mut check, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// fig4_adult
// ---------------------------------------------------------------------------

/// What every fig4 op reads.
struct Fig4Inputs {
    csv: PathBuf,
    contract: CsvContract,
    registry: PathBuf,
    /// Test-partition rows every reloaded artifact must rescore
    /// bit-identically.
    test_rows: DataFrame,
    seed: u64,
}

/// One fig4 op: its artifact, as sealed and where it was saved, and
/// its rendered result.
struct Fig4Op {
    wall_ms: f64,
    sealed: SealedPipeline,
    path: PathBuf,
    rendered: Rendered,
}

/// One scored row as bit patterns: privileged, score, decision.
type RowBits = (bool, Option<u64>, Option<u64>);

/// True when both pipelines score `rows` to identical bits.
fn same_scores(a: &SealedPipeline, b: &SealedPipeline, rows: &DataFrame) -> Result<bool, String> {
    let bits = |p: &SealedPipeline| -> Result<Vec<RowBits>, String> {
        Ok(p.score_frame(rows.clone())
            .map_err(|e| e.to_string())?
            .iter()
            .map(|r: &ScoredRow| {
                (
                    r.privileged,
                    r.score.map(f64::to_bits),
                    r.decision.map(f64::to_bits),
                )
            })
            .collect())
    };
    Ok(bits(a)? == bits(b)?)
}

impl Fig4Op {
    /// Reads the CSV, runs `run_sealed`, saves the artifact and loads it
    /// back (the timed op), then renders the result.
    fn run(
        inputs: &Fig4Inputs,
        config: &Config,
    ) -> fairprep_data::error::Result<(RunResult, Fig4Op)> {
        let op0 = Instant::now();
        let data = inputs.contract.read(&inputs.csv)?;
        let (result, sealed) = config
            .experiment("adult", data, inputs.seed, 1)?
            .run_sealed()?;
        let path = sealed.save(&inputs.registry)?;
        SealedPipeline::load(&path)?;
        let wall_ms = ms(op0.elapsed());
        let rendered = render(&result);
        Ok((
            result,
            Fig4Op {
                wall_ms,
                sealed,
                path,
                rendered,
            },
        ))
    }

    /// True when the saved artifact, loaded again, rescores the test rows
    /// bit-identically to the artifact before saving.
    fn rescores(&self, inputs: &Fig4Inputs, name: &str) -> bool {
        let ok = SealedPipeline::load(&self.path)
            .map_err(|e| e.to_string())
            .and_then(|reloaded| same_scores(&self.sealed, &reloaded, &inputs.test_rows))
            .unwrap_or(false);
        if !ok {
            println!("check failed: {name} reloaded artifact rescored differently");
        }
        ok
    }
}

/// Generates adult and writes it to `csv`.
fn fig4_setup(run: &Run, csv: &Path) -> Result<BinaryLabelDataset, String> {
    let adult = grid::adult(run.seed).map_err(|e| e.to_string())?;
    grid::write_csv_file(&adult, csv).map_err(|e| e.to_string())?;
    Ok(adult)
}

fn fig4_window(
    run: &Run,
    inputs: &Arc<Fig4Inputs>,
    check: &mut DigestCheck,
    setups: &mut Setups,
) -> Result<Window, String> {
    let grid = grid::fig4_grid();
    let mut w = Window::new();
    loop {
        let done = w.pass(|w| {
            let slots: Arc<Mutex<Vec<Option<Fig4Op>>>> =
                Arc::new(Mutex::new((0..grid.len()).map(|_| None).collect()));
            let jobs: Vec<Job> = grid
                .iter()
                .enumerate()
                .map(|(i, config)| {
                    let inputs = Arc::clone(inputs);
                    let slots = Arc::clone(&slots);
                    let config = *config;
                    let job: Job = Box::new(move || {
                        let (result, op) = Fig4Op::run(&inputs, &config)?;
                        slots.lock().unwrap_or_else(PoisonError::into_inner)[i] = Some(op);
                        Ok(result)
                    });
                    job
                })
                .collect();
            let results = run_parallel(jobs, run.cores);
            let mut slots =
                std::mem::take(&mut *slots.lock().unwrap_or_else(PoisonError::into_inner));
            let mut done = Vec::new();
            for (i, result) in results.iter().enumerate() {
                w.attempted += 1;
                let name = grid[i].name();
                match (result, slots[i].take()) {
                    (Ok(r), Some(op)) => {
                        let ok = w.record_op(i, &name, op.wall_ms, op.rendered, r, check);
                        done.push((name, ok, op));
                    }
                    (Err(e), _) => {
                        println!("op failed: {name}: {e}");
                        w.failed += 1;
                    }
                    (Ok(_), None) => w.failed += 1,
                }
            }
            done
        });
        // The rescoring checks run after the pass, outside the window.
        for (name, ok, op) in done {
            if !(op.rescores(inputs, &name) && ok) {
                w.failed += 1;
            }
        }
        setups.next_point();
        for _ in 0..FIG4_SETUPS_PER_PASS {
            setups.time(|| fig4_setup(run, &inputs.csv))?;
        }
        if w.full(run) {
            return Ok(w);
        }
    }
}

fn fig4_inputs(run: &Run, setups: &mut Setups) -> Result<Arc<Fig4Inputs>, String> {
    let csv = run.work.join("adult.csv");
    let adult = setups.time(|| fig4_setup(run, &csv))?;
    let seed = grid::experiment_seed(run.seed);
    let test_rows = train_val_test_split(&adult, SplitSpec::paper_default(), seed)
        .map_err(|e| e.to_string())?
        .test
        .frame()
        .clone();
    let inputs = Fig4Inputs {
        csv,
        contract: CsvContract::of(&adult),
        registry: run.work.join("registry"),
        test_rows,
        seed,
    };
    Ok(Arc::new(inputs))
}

pub fn fig4(run: &Run, trace: bool) -> Result<Outcome, String> {
    let mut setups = Setups::default();
    let inputs = fig4_inputs(run, &mut setups)?;
    let mut check = DigestCheck::new(grid::recorded_digests("fig4_adult", run.seed));
    let mut out = Outcome::default();
    if !trace {
        let window = fig4_window(run, &inputs, &mut check, &mut setups)?;
        window.end_to_end(setups.median_s(), &mut out);
        return Ok(out);
    }
    let grid = grid::fig4_grid();
    let traced = traced_passes(
        run,
        grid.len(),
        |config, op| {
            let c = &grid[config];
            let name = c.name();
            let (result, untraced) = Fig4Op::run(&inputs, c).map_err(|e| e.to_string())?;
            let untraced_ok = untraced.rescores(&inputs, &name);
            let mut spans = Spans::new(op);
            spans.enter(OP);
            let replayed = spans
                .time("data.ingest_ms", || inputs.contract.read(&inputs.csv))
                .and_then(|data| replay(c, "adult", &data, inputs.seed, 1, true, &mut spans));
            let saved = spans.time("core.save_ms", || untraced.sealed.save(&inputs.registry));
            let loaded = saved
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|path| spans.time("core.load_ms", || SealedPipeline::load(path)));
            spans.exit();
            let replayed = replayed.map_err(|e| e.to_string())?;
            let path = saved.map_err(|e| e.to_string())?;
            let loaded = loaded.map_err(|e| e.to_string())?;
            let replay_ok = replayed.fingerprint.as_deref() == Some(loaded.fingerprint.as_str())
                && replayed.train_profile.as_ref() == Some(&loaded.train_profile);
            if !replay_ok {
                println!(
                    "check failed: {name} replay fingerprint/profile differ from the artifact"
                );
            }
            Ok(TracedOp {
                config,
                untraced_ms: untraced.wall_ms,
                untraced_digest: grid::digest(&result.test_report),
                untraced_ok,
                spans,
                replay_digest: replayed.test_digest,
                replay_ok,
                cells: replayed.cells_imputed,
                cv_fits: replayed.cv_fits,
                fold_cache_hits: replayed.fold_cache_hits,
                sealed_bytes: std::fs::metadata(path).map_or(0, |m| m.len()),
            })
        },
        run.cores,
    );
    layer_metrics(run, "fig4_adult", &grid, traced, &mut check, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced passes and per-layer metrics
// ---------------------------------------------------------------------------

/// One configuration run untraced and then replayed, back to back, so
/// the host's drift cancels between the two.
pub struct TracedOp {
    pub config: usize,
    pub untraced_ms: f64,
    pub untraced_digest: String,
    /// The untraced op's own checks passed (fig4: reload rescoring).
    pub untraced_ok: bool,
    pub spans: Spans,
    pub replay_digest: String,
    /// Fingerprint and training profile of the replay match the artifact.
    pub replay_ok: bool,
    pub cells: u64,
    pub cv_fits: u64,
    pub fold_cache_hits: u64,
    pub sealed_bytes: u64,
}

pub struct Traced {
    ops: Vec<Result<TracedOp, String>>,
    passes: usize,
}

/// Whole traced passes over `configs` configurations until
/// `run.seconds` have elapsed, `in_flight` ops at a time.
fn traced_passes(
    run: &Run,
    configs: usize,
    op: impl Fn(usize, u64) -> Result<TracedOp, String> + Sync,
    in_flight: usize,
) -> Traced {
    let t0 = Instant::now();
    let mut traced = Traced {
        ops: Vec::new(),
        passes: 0,
    };
    loop {
        let first_id = (traced.passes * configs) as u64;
        let items: Vec<usize> = (0..configs).collect();
        traced.ops.extend(parallel_map(items, in_flight, |c| {
            op(c, first_id + c as u64)
        }));
        traced.passes += 1;
        if t0.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
    traced
}

fn layer_metrics(
    run: &Run,
    workload: &str,
    grid: &[Config],
    traced: Traced,
    check: &mut DigestCheck,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut ops = Vec::new();
    for op in traced.ops {
        // Each traced op is two ops: the untraced run and its replay.
        out.attempted += 2;
        match op {
            Ok(op) => {
                let name = grid[op.config].name();
                if !(check.check(&name, &op.untraced_digest) && op.untraced_ok) {
                    out.failed += 1;
                }
                if !(check.check(&name, &op.replay_digest) && op.replay_ok) {
                    out.failed += 1;
                }
                ops.push(op);
            }
            Err(e) => {
                println!("traced op failed: {e}");
                out.failed += 2;
            }
        }
    }
    let n = ops.len().max(1) as f64;
    let passes = traced.passes.max(1) as f64;
    let mut covered = 0.0;
    let mut wall = 0.0;
    for layer in LIFECYCLE_LAYERS {
        let total: f64 = ops
            .iter()
            .map(|o| o.spans.self_ms().get(layer).copied().unwrap_or(0.0))
            .sum();
        out.set(layer, total / n);
        if layer != OP {
            covered += total;
        }
    }
    for op in &ops {
        wall += op.spans.wall_ms();
    }
    out.set(
        "impute.cells",
        ops.iter().map(|o| o.cells as f64).sum::<f64>() / passes,
    );
    out.set(
        "ml.cv_fits",
        ops.iter().map(|o| o.cv_fits as f64).sum::<f64>() / passes,
    );
    out.set(
        "ml.fold_cache_hits",
        ops.iter().map(|o| o.fold_cache_hits as f64).sum::<f64>() / passes,
    );
    out.set(
        "core.sealed_kb",
        ops.iter().map(|o| o.sealed_bytes as f64).sum::<f64>() / n / 1024.0,
    );
    out.set(
        "trace.coverage",
        if wall > 0.0 { covered / wall } else { 0.0 },
    );

    // The replay's op wall time beside the untraced op's, per
    // configuration: a lifecycle change the replay no longer mirrors
    // shows up as a gap. Each replay ran right after its untraced op, so
    // the host's drift mostly cancels.
    println!(
        "{:<36} {:>12} {:>12} {:>8}",
        "configuration", "untraced ms", "replay ms", "gap"
    );
    let untraced = grouped(ops.iter().map(|o| (o.config, o.untraced_ms)));
    let replayed = grouped(ops.iter().map(|o| (o.config, o.spans.wall_ms())));
    for ((config, u), r) in untraced.iter().zip(replayed.values()) {
        let (u, r) = (mean(u), mean(r));
        println!(
            "{:<36} {:>12.2} {:>12.2} {:>+7.1}%",
            grid[*config].name(),
            u,
            r,
            (r / u - 1.0) * 100.0
        );
    }
    let sum_untraced: f64 = ops.iter().map(|o| o.untraced_ms).sum();
    out.set("trace.op_ms.untraced", sum_untraced / n);
    out.set("trace.op_ms.replay", wall / n);
    out.set("trace.overhead_pct", (wall / sum_untraced - 1.0) * 100.0);

    let trace_path =
        PathBuf::from(".perfbench").join(format!("trace-{workload}-{}.jsonl", run.seed));
    let spans: Vec<Spans> = ops.into_iter().map(|o| o.spans).collect();
    if let Some(first) = spans
        .iter()
        .filter_map(|s| s.spans().first())
        .map(|s| s.start)
        .min()
    {
        write_jsonl(&trace_path, first, &spans).map_err(|e| e.to_string())?;
        println!("spans written to {}", trace_path.display());
    }
    print_predictions(workload, out);
    Ok(())
}

/// The predictions written before measuring, with this run's numbers.
fn print_predictions(workload: &str, out: &Outcome) {
    let m = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);
    let op = m("trace.op_ms.replay").max(f64::MIN_POSITIVE);
    let share = |names: &[&str]| names.iter().map(|n| m(n)).sum::<f64>() / op * 100.0;
    let data_path = share(&[
        "data.ingest_ms",
        "data.split_ms",
        "data.resample_ms",
        "data.profile_ms",
        "ml.featurize_fit_ms",
        "ml.featurize_apply_ms",
        "fairness.metrics_ms",
        "core.save_ms",
        "core.load_ms",
    ]);
    let (train, impute, data) = match workload {
        "fig2_german" => ("about 95%", "0% (complete data)", "about 1%"),
        _ => ("about 25%", "about 70% of CPU", "about 10%"),
    };
    println!("prediction ml.train_ms share of op wall: {:.1}% (predicted {train}); ml.cv_fits {} per pass", share(&["ml.train_ms"]), m("ml.cv_fits"));
    println!(
        "prediction impute.fit_ms share of op wall: {:.1}% (predicted {impute})",
        share(&["impute.fit_ms"])
    );
    println!("prediction data.*/featurize/metrics/save/load share of op wall: {data_path:.1}% (predicted {data})");
}

/// Runs one untraced pass and prints each configuration's test-report
/// digest as a `seed<TAB>config<TAB>digest` line for `expected/`.
pub fn print_digests(workload: &str, run: &Run) -> Result<Outcome, String> {
    let once = Run {
        seed: run.seed,
        seconds: 0.0,
        work: run.work.clone(),
        cores: run.cores,
    };
    let mut check = DigestCheck::new(Vec::new());
    let mut setups = Setups::default();
    let window = if workload == "fig2_german" {
        let german = setups.time(|| fig2_setup(run))?;
        fig2_window(&once, &german, &mut check, &mut setups)?
    } else {
        let inputs = fig4_inputs(&once, &mut setups)?;
        fig4_window(&once, &inputs, &mut check, &mut setups)?
    };
    for (config, digest) in &check.seen {
        println!("{}\t{config}\t{digest}", run.seed);
    }
    let mut out = Outcome::default();
    window.end_to_end(0.0, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perturbed recorded digest turns exactly the ops of that
    /// configuration into failed ops.
    #[test]
    fn perturbed_expectation_fails_its_ops() {
        let run = Run {
            seed: 3,
            seconds: 0.0,
            work: PathBuf::from("unused"),
            cores: 1,
        };
        let german = grid::german(run.seed).unwrap();
        let mut setups = Setups::default();
        let mut honest = DigestCheck::new(Vec::new());
        let clean = fig2_window(&run, &german, &mut honest, &mut setups).unwrap();
        assert_eq!((clean.attempted, clean.failed), (24, 0));

        let mut recorded: Vec<(String, String)> = honest.seen.clone().into_iter().collect();
        recorded[0].1 = "fnv1a64:0000000000000000".to_string();
        let mut perturbed = DigestCheck::new(recorded);
        let w = fig2_window(&run, &german, &mut perturbed, &mut setups).unwrap();
        assert_eq!((w.attempted, w.failed), (24, 1));
    }

    #[test]
    fn digests_must_repeat_across_passes() {
        let mut check = DigestCheck::new(vec![("a".into(), "x".into())]);
        assert!(check.check("a", "x"));
        assert!(!check.check("a", "y"));
        assert!(check.check("b", "z"));
        assert!(!check.check("b", "w"));
    }
}
