//! Run manifests: a deterministic JSON record of how a run was produced.
//!
//! A manifest has two parts:
//!
//! * the **canonical** part — seed, split, component names and
//!   hyperparameters, partition sizes, counters, gauges, the span tree
//!   *structure*, per-job failures, and a digest of the output metrics.
//!   Everything here is a pure function of `(configuration, data, seed)`
//!   and must be byte-identical across repeated runs and across thread
//!   budgets. [`RunManifest::canonical`] serializes exactly this part.
//! * the **timing** part — per-stage wall/CPU nanoseconds and the thread
//!   budget. These vary run to run and are segregated under a `timing`
//!   key so tools can diff the canonical projection byte-for-byte.

use crate::json::write_escaped;
use crate::profile::DataProfile;
use crate::{SpanEvent, Tracer, COUNTERS, GAUGES};

/// Manifest schema version; bump when the canonical layout changes.
/// Version 2 added the seed list, the `profile` section, and `warnings`.
/// Version 3 added the `jobs_retried` counter (fault-tolerant sweeps).
pub const SCHEMA_VERSION: u32 = 3;

/// Configuration snapshot supplied by the lifecycle when it assembles a
/// manifest. Component hyperparameters ride along inside the component
/// name strings (e.g. `reject_option(bound=0.05)`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ManifestConfig {
    /// Experiment name.
    pub experiment: String,
    /// Master seed all component seeds are derived from. For sweep
    /// manifests this is the first seed of the sweep.
    pub seed: u64,
    /// Every master seed the invocation covered (sweeps run one
    /// experiment per seed). Empty for single-run manifests, where
    /// `seed` alone identifies the random stream.
    pub seeds: Vec<u64>,
    /// Human-readable `SplitSpec` description (train/validation/test).
    pub split: String,
    /// Whether the split was stratified by label.
    pub stratified: bool,
    /// Ordered `(slot, component-name)` pairs for the fixed pipeline slots.
    pub components: Vec<(String, String)>,
    /// Candidate learner names, in configuration order.
    pub candidates: Vec<String>,
    /// Index of the candidate chosen by the model selector.
    pub selected: usize,
    /// (train, validation, test) partition row counts.
    pub partition_sizes: (usize, usize, usize),
    /// Worker thread budget. Timing section only — never canonical.
    pub thread_budget: usize,
}

/// One node of the recorded span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Stage identifier (see [`crate::Stage::name`]).
    pub stage: String,
    /// Wall-clock duration in nanoseconds (timing section only).
    pub wall_ns: u64,
    /// Process CPU time consumed in nanoseconds (timing section only).
    pub cpu_ns: u64,
    /// Nested child spans, in recording order.
    pub children: Vec<SpanNode>,
}

/// The assembled run manifest. See the module docs for the
/// canonical-vs-timing split.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Canonical layout version.
    pub schema_version: u32,
    /// Configuration snapshot.
    pub config: ManifestConfig,
    /// `(name, value)` counter snapshot in [`COUNTERS`] order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauge snapshot in [`GAUGES`] order.
    pub gauges: Vec<(String, u64)>,
    /// Recorded span tree (durations populated; canonical form strips them).
    pub spans: Vec<SpanNode>,
    /// Threshold-crossing drift warnings, deduplicated in first-seen order.
    pub warnings: Vec<String>,
    /// Per-job error strings surfaced by the runner.
    pub failures: Vec<String>,
    /// Dataset profiles and stage-to-stage drift diffs (present when the
    /// run was profiled; serialized after the gauges).
    pub profile: Option<DataProfile>,
    /// FNV-1a digest of the output metric names and bit patterns.
    pub metric_digest: String,
}

impl RunManifest {
    /// Assembles a manifest from a tracer's recorded state plus the
    /// lifecycle's configuration snapshot and output-metric digest.
    pub fn from_tracer(tracer: &Tracer, config: ManifestConfig, metric_digest: String) -> Self {
        RunManifest {
            schema_version: SCHEMA_VERSION,
            config,
            counters: COUNTERS
                .iter()
                .map(|&c| (c.name().to_string(), tracer.counter(c)))
                .collect(),
            gauges: GAUGES
                .iter()
                .map(|&g| (g.name().to_string(), tracer.gauge(g)))
                .collect(),
            spans: build_tree(&tracer.span_events()),
            warnings: dedup_first_seen(tracer.warnings()),
            failures: tracer.failures(),
            profile: None,
            metric_digest,
        }
    }

    /// Attaches the dataset-profile section (builder style, used by the
    /// lifecycle when the experiment ran with profiling enabled).
    #[must_use]
    pub fn with_profile(mut self, profile: DataProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Serializes the canonical projection: every field that must be
    /// bit-stable across runs and thread counts, and nothing else. The
    /// output is pretty-printed JSON ending in a newline, suitable for
    /// committing as a golden file and diffing byte-for-byte.
    pub fn canonical(&self) -> String {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.field_u64("schema_version", u64::from(self.schema_version));
        w.field_str("experiment", &self.config.experiment);
        w.field_u64("seed", self.config.seed);
        if !self.config.seeds.is_empty() {
            w.key("seeds");
            w.u64_array(&self.config.seeds);
        }
        w.field_str("split", &self.config.split);
        w.field_bool("stratified", self.config.stratified);
        w.key("components");
        w.open_obj();
        for (slot, name) in &self.config.components {
            w.field_str(slot, name);
        }
        w.close_obj();
        w.key("candidates");
        w.str_array(&self.config.candidates);
        w.field_u64("selected", self.config.selected as u64);
        w.key("partitions");
        w.open_obj();
        w.field_u64("train", self.config.partition_sizes.0 as u64);
        w.field_u64("validation", self.config.partition_sizes.1 as u64);
        w.field_u64("test", self.config.partition_sizes.2 as u64);
        w.close_obj();
        w.key("counters");
        w.open_obj();
        for (name, value) in &self.counters {
            w.field_u64(name, *value);
        }
        w.close_obj();
        w.key("gauges");
        w.open_obj();
        for (name, value) in &self.gauges {
            w.field_u64(name, *value);
        }
        w.close_obj();
        if let Some(profile) = self.profile.as_ref().filter(|p| !p.is_empty()) {
            w.key("profile");
            profile.write_json(&mut w);
        }
        w.key("spans");
        write_span_array(&mut w, &self.spans, false);
        w.key("warnings");
        w.str_array(&self.warnings);
        w.key("failures");
        w.str_array(&self.failures);
        w.field_str("metric_digest", &self.metric_digest);
        w.close_obj();
        w.finish()
    }

    /// Serializes the full manifest: the canonical fields plus a
    /// segregated `timing` object (thread budget, per-stage durations).
    pub fn to_json(&self) -> String {
        let canonical = self.canonical();
        // Splice the timing object in before the closing brace so the
        // canonical prefix of the full file is literally the canonical
        // serialization.
        let mut w = JsonWriter::new();
        w.indent = 1;
        w.key("timing");
        w.open_obj();
        w.field_u64("thread_budget", self.config.thread_budget as u64);
        w.key("spans");
        write_span_array(&mut w, &self.spans, true);
        w.close_obj();
        let timing = w.finish_fragment();
        let trimmed = canonical.trim_end();
        let body = trimmed.strip_suffix('}').unwrap_or(trimmed);
        let body = body.trim_end();
        format!("{body},\n{timing}\n}}\n")
    }

    /// Human-readable summary: the span tree with wall/CPU timings,
    /// counters, gauges, failures, and the metric digest.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "run '{}' seed {} split {} ({}) partitions {}/{}/{} threads {}\n",
            self.config.experiment,
            self.config.seed,
            self.config.split,
            if self.config.stratified {
                "stratified"
            } else {
                "random"
            },
            self.config.partition_sizes.0,
            self.config.partition_sizes.1,
            self.config.partition_sizes.2,
            self.config.thread_budget,
        ));
        out.push_str(&format!(
            "{:<32} {:>12} {:>12}\n",
            "stage", "wall ms", "cpu ms"
        ));
        fn walk(out: &mut String, nodes: &[SpanNode], depth: usize) {
            for node in nodes {
                let label = format!("{}{}", "  ".repeat(depth), node.stage);
                out.push_str(&format!(
                    "{:<32} {:>12.3} {:>12.3}\n",
                    label,
                    node.wall_ns as f64 / 1e6,
                    node.cpu_ns as f64 / 1e6,
                ));
                walk(out, &node.children, depth + 1);
            }
        }
        walk(&mut out, &self.spans, 0);
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            out.push_str(&format!("  {name} = {value}\n"));
        }
        out.push_str("gauges:\n");
        for (name, value) in &self.gauges {
            out.push_str(&format!("  {name} = {value}\n"));
        }
        if let Some(profile) = self.profile.as_ref().filter(|p| !p.is_empty()) {
            out.push_str(&profile.drift_table());
        }
        if self.warnings.is_empty() {
            out.push_str("warnings: none\n");
        } else {
            out.push_str(&format!("warnings ({}):\n", self.warnings.len()));
            for warning in &self.warnings {
                out.push_str(&format!("  - {warning}\n"));
            }
        }
        if self.failures.is_empty() {
            out.push_str("failures: none\n");
        } else {
            out.push_str(&format!("failures ({}):\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("  - {f}\n"));
            }
        }
        out.push_str(&format!("metric digest: {}\n", self.metric_digest));
        out
    }
}

/// Deduplicates while preserving first-seen order. Warnings repeat when
/// several candidates share an imputation chain; the manifest records
/// each distinct condition once.
fn dedup_first_seen(items: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(items.len());
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// FNV-1a 64-bit digest over `(metric name, f64 bit pattern)` pairs.
/// Stable across platforms because it hashes exact bit patterns, never
/// decimal renderings.
pub fn metric_digest(metrics: &[(String, f64)]) -> String {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    };
    for (name, value) in metrics {
        eat(name.as_bytes());
        eat(&[0]);
        eat(&value.to_bits().to_le_bytes());
        eat(&[0]);
    }
    format!("fnv1a64:{hash:016x}")
}

/// Folds a balanced (or best-effort) event stream into a span tree.
fn build_tree(events: &[SpanEvent]) -> Vec<SpanNode> {
    struct Open {
        stage: &'static str,
        enter_wall: u64,
        enter_cpu: u64,
        children: Vec<SpanNode>,
    }
    let mut roots: Vec<SpanNode> = Vec::new();
    let mut stack: Vec<Open> = Vec::new();
    let mut last_wall = 0u64;
    let mut last_cpu = 0u64;
    for ev in events {
        last_wall = ev.wall_ns;
        last_cpu = ev.cpu_ns;
        if ev.enter {
            stack.push(Open {
                stage: ev.stage.name(),
                enter_wall: ev.wall_ns,
                enter_cpu: ev.cpu_ns,
                children: Vec::new(),
            });
        } else if let Some(open) = stack.pop() {
            let node = SpanNode {
                stage: open.stage.to_string(),
                wall_ns: ev.wall_ns.saturating_sub(open.enter_wall),
                cpu_ns: ev.cpu_ns.saturating_sub(open.enter_cpu),
                children: open.children,
            };
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => roots.push(node),
            }
        }
        // An orphan exit (no open span) is dropped; validate_span_events
        // reports it to tests, but manifests stay best-effort.
    }
    while let Some(open) = stack.pop() {
        let node = SpanNode {
            stage: open.stage.to_string(),
            wall_ns: last_wall.saturating_sub(open.enter_wall),
            cpu_ns: last_cpu.saturating_sub(open.enter_cpu),
            children: open.children,
        };
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => roots.push(node),
        }
    }
    roots
}

fn write_span_array(w: &mut JsonWriter, nodes: &[SpanNode], with_timing: bool) {
    w.open_arr();
    for node in nodes {
        w.item();
        w.open_obj();
        w.field_str("stage", &node.stage);
        if with_timing {
            w.field_u64("wall_ns", node.wall_ns);
            w.field_u64("cpu_ns", node.cpu_ns);
        }
        w.key("children");
        write_span_array(w, &node.children, with_timing);
        w.close_obj();
    }
    w.close_arr();
}

/// Minimal pretty-printing JSON writer (2-space indent, `\n` endings),
/// kept crate-private so the exact byte layout of golden files is owned
/// by this crate (the profile module renders through it too).
pub(crate) struct JsonWriter {
    out: String,
    indent: usize,
    need_comma: Vec<bool>,
}

impl JsonWriter {
    pub(crate) fn new() -> Self {
        JsonWriter {
            out: String::new(),
            indent: 0,
            need_comma: Vec::new(),
        }
    }

    pub(crate) fn pad(&mut self) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    pub(crate) fn sep(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.out.push_str(",\n");
            } else {
                self.out.push('\n');
                *need = true;
            }
        }
        self.pad();
    }

    pub(crate) fn open_obj(&mut self) {
        self.out.push('{');
        self.indent += 1;
        self.need_comma.push(false);
    }

    pub(crate) fn close_obj(&mut self) {
        self.indent = self.indent.saturating_sub(1);
        let had_items = self.need_comma.pop().unwrap_or(false);
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push('}');
    }

    pub(crate) fn open_arr(&mut self) {
        self.out.push('[');
        self.indent += 1;
        self.need_comma.push(false);
    }

    pub(crate) fn close_arr(&mut self) {
        self.indent = self.indent.saturating_sub(1);
        let had_items = self.need_comma.pop().unwrap_or(false);
        if had_items {
            self.out.push('\n');
            self.pad();
        }
        self.out.push(']');
    }

    pub(crate) fn key(&mut self, key: &str) {
        self.sep();
        write_escaped(key, &mut self.out);
        self.out.push_str(": ");
    }

    pub(crate) fn item(&mut self) {
        self.sep();
    }

    pub(crate) fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        write_escaped(value, &mut self.out);
    }

    pub(crate) fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    pub(crate) fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        self.out.push_str(if value { "true" } else { "false" });
    }

    pub(crate) fn field_i64(&mut self, key: &str, value: i64) {
        self.key(key);
        self.out.push_str(&value.to_string());
    }

    /// Floats render via Rust's shortest-roundtrip `{:?}` formatting —
    /// a pure function of the bit pattern, so profile sections stay
    /// byte-stable. Non-finite values (JSON has no NaN/Inf) become
    /// `null`.
    pub(crate) fn field_f64(&mut self, key: &str, value: f64) {
        self.key(key);
        self.out.push_str(&render_f64(value));
    }

    pub(crate) fn f64_array(&mut self, values: &[f64]) {
        self.open_arr();
        for &v in values {
            self.item();
            self.out.push_str(&render_f64(v));
        }
        self.close_arr();
    }

    pub(crate) fn u64_array(&mut self, values: &[u64]) {
        self.open_arr();
        for &v in values {
            self.item();
            self.out.push_str(&v.to_string());
        }
        self.close_arr();
    }

    pub(crate) fn str_array(&mut self, values: &[String]) {
        self.open_arr();
        for v in values {
            self.item();
            write_escaped(v, &mut self.out);
        }
        self.close_arr();
    }

    pub(crate) fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    /// Like `finish` but without the trailing newline; the writer's
    /// starting indent supplies the leading padding (used for splicing).
    pub(crate) fn finish_fragment(self) -> String {
        self.out
    }
}

fn render_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Stage, Tracer};

    fn sample_config() -> ManifestConfig {
        ManifestConfig {
            experiment: "demo".to_string(),
            seed: 42,
            seeds: Vec::new(),
            split: "0.7/0.1/0.2".to_string(),
            stratified: false,
            components: vec![
                ("resampler".to_string(), "none".to_string()),
                (
                    "missing_value_handler".to_string(),
                    "mode_imputation".to_string(),
                ),
            ],
            candidates: vec!["decision_tree(default)".to_string()],
            selected: 0,
            partition_sizes: (70, 10, 20),
            thread_budget: 4,
        }
    }

    fn sample_manifest() -> RunManifest {
        let t = Tracer::enabled();
        {
            let _split = t.span(Stage::Split);
        }
        {
            let _cand = t.span(Stage::Candidate);
            let _train = t.span(Stage::Train);
        }
        t.incr(crate::Counter::CandidatesEvaluated);
        t.record_failure("job 2: boom".to_string());
        RunManifest::from_tracer(
            &t,
            sample_config(),
            metric_digest(&[("accuracy".to_string(), 0.75)]),
        )
    }

    #[test]
    fn canonical_excludes_every_timing_field() {
        let c = sample_manifest().canonical();
        assert!(!c.contains("wall_ns"));
        assert!(!c.contains("cpu_ns"));
        assert!(!c.contains("thread_budget"));
        assert!(!c.contains("timing"));
        assert!(c.contains("\"metric_digest\""));
        assert!(c.contains("\"job 2: boom\""));
        assert!(c.ends_with('\n'));
    }

    #[test]
    fn full_json_embeds_canonical_plus_timing() {
        let m = sample_manifest();
        let full = m.to_json();
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"thread_budget\": 4"));
        assert!(full.contains("\"wall_ns\""));
        // The canonical part is a literal prefix (up to the closing brace).
        let canon = m.canonical();
        let prefix = canon.trim_end().trim_end_matches('}').trim_end();
        assert!(full.starts_with(prefix));
    }

    #[test]
    fn canonical_is_identical_for_identical_state_despite_timings() {
        let make = || {
            let t = Tracer::enabled();
            {
                let _s = t.span(Stage::Split);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            RunManifest::from_tracer(&t, sample_config(), "fnv1a64:0".to_string())
        };
        let a = make();
        let b = make();
        assert_eq!(a.canonical(), b.canonical());
        // Wall timings almost surely differ, proving segregation matters.
        assert!(a.spans.iter().all(|s| s.wall_ns > 0));
    }

    #[test]
    fn span_tree_nests_children() {
        let m = sample_manifest();
        assert_eq!(m.spans.len(), 2);
        let names: Vec<&str> = m.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, vec!["split", "candidate"]);
        let cand = m.spans.iter().find(|s| s.stage == "candidate").unwrap();
        assert_eq!(cand.children.len(), 1);
        assert_eq!(cand.children.first().unwrap().stage, "train");
    }

    #[test]
    fn digest_is_sensitive_to_names_values_and_order() {
        let base = metric_digest(&[("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
        assert_ne!(
            base,
            metric_digest(&[("a".to_string(), 1.0), ("b".to_string(), 2.5)])
        );
        assert_ne!(
            base,
            metric_digest(&[("b".to_string(), 2.0), ("a".to_string(), 1.0)])
        );
        assert_ne!(base, metric_digest(&[("a".to_string(), 1.0)]));
        // NaN has a fixed bit pattern under to_bits, so it digests stably.
        assert_eq!(
            metric_digest(&[("n".to_string(), f64::NAN)]),
            metric_digest(&[("n".to_string(), f64::NAN)])
        );
    }

    #[test]
    fn manifest_json_parses_back() {
        let m = sample_manifest();
        let v = crate::json::parse(&m.to_json()).expect("full manifest must be valid JSON");
        assert_eq!(v.get("seed").and_then(|s| s.as_u64()), Some(42));
        assert_eq!(
            v.get("timing")
                .and_then(|t| t.get("thread_budget"))
                .and_then(|t| t.as_u64()),
            Some(4)
        );
        let vc = crate::json::parse(&m.canonical()).expect("canonical must be valid JSON");
        assert!(vc.get("timing").is_none());
        assert_eq!(
            vc.get("counters")
                .and_then(|c| c.get("candidates_evaluated"))
                .and_then(|c| c.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn summary_renders_stages_and_counters() {
        let s = sample_manifest().summary();
        assert!(s.contains("split"));
        assert!(s.contains("  train"));
        assert!(s.contains("candidates_evaluated = 1"));
        assert!(s.contains("job 2: boom"));
        assert!(s.contains("metric digest: fnv1a64:"));
    }

    #[test]
    fn seeds_list_serializes_only_when_present() {
        let single = sample_manifest();
        assert!(!single.canonical().contains("\"seeds\""));
        let mut sweep = sample_manifest();
        sweep.config.seeds = vec![42, 43, 44];
        let c = sweep.canonical();
        assert!(c.contains("\"seeds\""), "{c}");
        let v = crate::json::parse(&c).unwrap();
        let seeds: Vec<u64> = v
            .get("seeds")
            .and_then(|s| s.as_array())
            .unwrap()
            .iter()
            .filter_map(crate::json::Value::as_u64)
            .collect();
        assert_eq!(seeds, vec![42, 43, 44]);
    }

    #[test]
    fn warnings_are_deduplicated_in_first_seen_order() {
        let t = Tracer::enabled();
        t.record_warning("b-warning".to_string());
        t.record_warning("a-warning".to_string());
        t.record_warning("b-warning".to_string());
        let m = RunManifest::from_tracer(&t, sample_config(), "fnv1a64:0".to_string());
        assert_eq!(
            m.warnings,
            vec!["b-warning".to_string(), "a-warning".to_string()]
        );
        let c = m.canonical();
        assert!(c.contains("\"warnings\""));
        // Warnings appear before failures in the canonical layout.
        assert!(c.find("\"warnings\"").unwrap() < c.find("\"failures\"").unwrap());
        let s = m.summary();
        assert!(s.contains("warnings (2):"), "{s}");
    }

    #[test]
    fn profile_section_is_canonical_and_ordered_after_gauges() {
        let profile = crate::profile::tests::sample_profile();
        let m = sample_manifest().with_profile(profile);
        let c = m.canonical();
        assert!(c.contains("\"profile\""));
        let gauges_at = c.find("\"gauges\"").unwrap();
        let profile_at = c.find("\"profile\"").unwrap();
        let spans_at = c.find("\"spans\"").unwrap();
        assert!(gauges_at < profile_at && profile_at < spans_at);
        // Parses back, and the full manifest still embeds it as a prefix.
        let v = crate::json::parse(&c).unwrap();
        assert!(v.get("profile").and_then(|p| p.get("snapshots")).is_some());
        let full = m.to_json();
        let prefix = c.trim_end().trim_end_matches('}').trim_end();
        assert!(full.starts_with(prefix));
        // An empty profile is omitted entirely.
        let empty = sample_manifest().with_profile(crate::profile::DataProfile::default());
        assert!(!empty.canonical().contains("\"profile\""));
    }

    #[test]
    fn float_rendering_is_shortest_roundtrip_and_null_for_nonfinite() {
        let mut w = JsonWriter::new();
        w.open_obj();
        w.field_f64("a", 0.1);
        w.field_f64("b", f64::NAN);
        w.field_f64("c", f64::INFINITY);
        w.key("xs");
        w.f64_array(&[1.5, 2.0]);
        w.close_obj();
        let text = w.finish();
        assert!(text.contains("\"a\": 0.1"), "{text}");
        assert!(text.contains("\"b\": null"), "{text}");
        assert!(text.contains("\"c\": null"), "{text}");
        let v = crate::json::parse(&text).unwrap();
        assert_eq!(v.get("a").and_then(crate::json::Value::as_f64), Some(0.1));
        assert!(v.get("b").is_some());
    }
}
