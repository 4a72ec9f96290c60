//! Declarative alerting on live telemetry: spec parsing plus a pure,
//! deterministic trip/clear hysteresis state machine.
//!
//! An [`AlertSpec`] names a metric computed over one rolling window
//! (windowed disparate impact, per-column PSI, favorable-rate gap, p99
//! latency, error rate, or canary decision divergence), a trip
//! threshold, a clear threshold on the other side of it, a direction,
//! a for-duration (consecutive violating observations before firing),
//! and a minimum hold (observations an alert must stay armed before it
//! may clear). The separate trip/clear band plus the minimum hold are
//! the hysteresis: a metric oscillating inside the band neither fires
//! nor clears, so a flapping PSI cannot spam the event stream.
//!
//! The state machine itself ([`AlertSpec::advance`]) is a pure function
//! from `(packed state, observed value)` to `(packed state, transition)`
//! — no clocks, no randomness, no allocation — which is what makes
//! alert-firing integration tests byte-reproducible. [`AlertState`]
//! wraps one packed state in an `AtomicU64` so the scoring hot path can
//! advance it lock-free; the CAS winner alone observes a transition, so
//! concurrent workers cannot double-emit a firing event.

use crate::json::{parse, Value};
use std::sync::atomic::{AtomicU64, Ordering};

/// The telemetry signal an alert watches. All metrics are evaluated
/// over one rolling window of the serving pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertMetric {
    /// Windowed disparate impact: unprivileged favorable rate over
    /// privileged favorable rate.
    DisparateImpact,
    /// Windowed population-stability index of one input column against
    /// the sealed training profile.
    Psi {
        /// The input column whose drift is watched.
        column: String,
    },
    /// Absolute difference between the two groups' favorable rates.
    FavorableRateGap,
    /// Windowed p99 request latency in microseconds.
    P99LatencyUs,
    /// Fraction of requests in the window that were refused.
    ErrorRate,
    /// Fraction of shadow-scored rows whose canary decision diverged.
    CanaryDivergence,
}

impl AlertMetric {
    /// The spec-file name of the metric.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AlertMetric::DisparateImpact => "disparate_impact",
            AlertMetric::Psi { .. } => "psi",
            AlertMetric::FavorableRateGap => "favorable_rate_gap",
            AlertMetric::P99LatencyUs => "p99_latency_us",
            AlertMetric::ErrorRate => "error_rate",
            AlertMetric::CanaryDivergence => "canary_divergence",
        }
    }

    /// The watched column, for PSI metrics.
    #[must_use]
    pub fn column(&self) -> Option<&str> {
        match self {
            AlertMetric::Psi { column } => Some(column),
            _ => None,
        }
    }

    /// The default comparison direction: disparate impact regresses by
    /// falling, every other metric by rising.
    #[must_use]
    pub fn default_direction(&self) -> Direction {
        match self {
            AlertMetric::DisparateImpact => Direction::Below,
            _ => Direction::Above,
        }
    }
}

/// Which side of the trip threshold counts as a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Violating when the value is at or above `trip`.
    Above,
    /// Violating when the value is at or below `trip`.
    Below,
}

impl Direction {
    /// The spec-file name of the direction.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Direction::Above => "above",
            Direction::Below => "below",
        }
    }
}

/// An edge emitted by [`AlertSpec::advance`] when the alert changes
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The alert entered the firing phase.
    Fired,
    /// The alert left the firing phase.
    Cleared,
}

// Packed-state layout: 2 phase bits, then two 31-bit counters. The
// counters saturate at `COUNTER_MASK`, and specs whose counts exceed it
// are refused, so packing never loses a transition.
const PHASE_BITS: u64 = 0b11;
const PHASE_NORMAL: u64 = 0;
const PHASE_PENDING: u64 = 1;
const PHASE_FIRING: u64 = 2;

/// The largest count a packed state holds (2³¹ − 1). A spec's `for` and
/// `min_hold` may not exceed it: a counter saturated below the count it
/// must reach would leave the alert pending or firing forever.
pub const COUNTER_MASK: u64 = (1 << 31) - 1;
const RUN_SHIFT: u64 = 2;
const HOLD_SHIFT: u64 = 33;

/// The all-quiet initial state.
pub const STATE_NORMAL: u64 = PHASE_NORMAL;

#[inline]
fn pack(phase: u64, run: u64, hold: u64) -> u64 {
    phase | (run.min(COUNTER_MASK) << RUN_SHIFT) | (hold.min(COUNTER_MASK) << HOLD_SHIFT)
}

/// The phase bits of a packed state, exposed for assertions and for
/// rendering an alert's current phase in `/metrics`.
#[must_use]
pub fn phase_name(state: u64) -> &'static str {
    match state & PHASE_BITS {
        PHASE_PENDING => "pending",
        PHASE_FIRING => "firing",
        _ => "normal",
    }
}

/// `true` while the packed state is in the firing phase.
#[must_use]
pub fn is_firing(state: u64) -> bool {
    state & PHASE_BITS == PHASE_FIRING
}

/// One declarative alert: metric, window, thresholds, hysteresis.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertSpec {
    /// The unique name transitions are reported under.
    pub name: String,
    /// The watched signal.
    pub metric: AlertMetric,
    /// Label of the rolling window the metric is computed over.
    pub window: String,
    /// Threshold at which an observation counts as violating.
    pub trip: f64,
    /// Threshold the value must cross back over before the alert may
    /// clear. Equal to `trip` when no band was specified.
    pub clear: f64,
    /// Which side of `trip` violates.
    pub direction: Direction,
    /// Consecutive violating observations before firing (≥ 1). The
    /// same count of consecutive cleared observations is required to
    /// clear again.
    pub for_count: u32,
    /// Observations the alert must stay in the firing phase before it
    /// is allowed to clear, regardless of the value.
    pub min_hold: u32,
}

impl AlertSpec {
    /// `true` when `value` sits on the violating side of `trip`.
    // audit: hot-path
    #[inline]
    fn trips(&self, value: f64) -> bool {
        match self.direction {
            Direction::Above => value >= self.trip,
            Direction::Below => value <= self.trip,
        }
    }

    /// `true` when `value` has crossed back over `clear`. An undefined
    /// metric (empty window) counts as cleared.
    // audit: hot-path
    #[inline]
    fn clears(&self, value: Option<f64>) -> bool {
        let Some(value) = value else { return true };
        match self.direction {
            Direction::Above => value <= self.clear,
            Direction::Below => value >= self.clear,
        }
    }

    /// Advances the hysteresis state machine by one observation. Pure
    /// and allocation-free: the same `(state, value)` pair always
    /// yields the same `(state, transition)` pair. `None` means the
    /// metric was undefined (e.g. an empty window) and never violates.
    ///
    /// Phases: `normal` (quiet) → `pending` (violating, run counter
    /// short of `for_count`) → `firing`. While firing, a hold counter
    /// tracks observations since the fire and a run counter tracks
    /// consecutive cleared observations; the alert clears only once the
    /// run reaches `for_count` *and* the hold reaches `min_hold`.
    /// Values inside the trip/clear band reset the clear run without
    /// clearing — that is the flap suppression.
    // audit: hot-path
    #[must_use]
    pub fn advance(&self, state: u64, value: Option<f64>) -> (u64, Option<Transition>) {
        let for_count = u64::from(self.for_count.max(1));
        let run = (state >> RUN_SHIFT) & COUNTER_MASK;
        let hold = (state >> HOLD_SHIFT) & COUNTER_MASK;
        match state & PHASE_BITS {
            PHASE_FIRING => {
                let hold = hold + 1;
                let run = if self.clears(value) { run + 1 } else { 0 };
                if run >= for_count && hold >= u64::from(self.min_hold) {
                    (pack(PHASE_NORMAL, 0, 0), Some(Transition::Cleared))
                } else {
                    (pack(PHASE_FIRING, run, hold), None)
                }
            }
            _ => {
                let violating = value.is_some_and(|v| self.trips(v));
                if !violating {
                    return (pack(PHASE_NORMAL, 0, 0), None);
                }
                let run = run + 1;
                if run >= for_count {
                    (pack(PHASE_FIRING, 0, 0), Some(Transition::Fired))
                } else {
                    (pack(PHASE_PENDING, run, 0), None)
                }
            }
        }
    }
}

/// One alert's packed state behind an atomic, advanced lock-free from
/// the scoring hot path. Exactly one racing observer wins the CAS for
/// any transition, so firing events are emitted once.
#[derive(Debug, Default)]
pub struct AlertState {
    state: AtomicU64,
}

impl AlertState {
    /// A quiet alert.
    #[must_use]
    pub fn new() -> AlertState {
        AlertState {
            state: AtomicU64::new(STATE_NORMAL),
        }
    }

    /// Feeds one observation through [`AlertSpec::advance`] atomically.
    /// Lock- and allocation-free.
    // audit: hot-path
    pub fn observe(&self, spec: &AlertSpec, value: Option<f64>) -> Option<Transition> {
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            let (next, transition) = spec.advance(current, value);
            match self.state.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return transition,
                Err(seen) => current = seen,
            }
        }
    }

    /// The packed state (for phase rendering at scrape time).
    #[must_use]
    pub fn load(&self) -> u64 {
        self.state.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

const METRIC_NAMES: &str =
    "disparate_impact, psi, favorable_rate_gap, p99_latency_us, error_rate, canary_divergence";

fn parse_metric(entry: &Value, name: &str) -> Result<AlertMetric, String> {
    let metric = entry
        .get("metric")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("alert '{name}': missing string field 'metric'"))?;
    let column = entry.get("column").and_then(Value::as_str);
    let parsed = match metric {
        "disparate_impact" => AlertMetric::DisparateImpact,
        "psi" => {
            let column = column
                .ok_or_else(|| format!("alert '{name}': metric 'psi' requires a 'column' field"))?;
            AlertMetric::Psi {
                column: column.to_string(),
            }
        }
        "favorable_rate_gap" => AlertMetric::FavorableRateGap,
        "p99_latency_us" => AlertMetric::P99LatencyUs,
        "error_rate" => AlertMetric::ErrorRate,
        "canary_divergence" => AlertMetric::CanaryDivergence,
        other => {
            return Err(format!(
                "alert '{name}': unknown metric '{other}' (expected one of: {METRIC_NAMES})"
            ))
        }
    };
    if column.is_some() && !matches!(parsed, AlertMetric::Psi { .. }) {
        return Err(format!(
            "alert '{name}': 'column' is only valid with metric 'psi'"
        ));
    }
    Ok(parsed)
}

fn parse_count(entry: &Value, name: &str, key: &str, default: u32) -> Result<u32, String> {
    match entry.get(key) {
        None => Ok(default),
        Some(v) => {
            let n = v
                .as_u64_any()
                .ok_or_else(|| format!("alert '{name}': '{key}' must be a non-negative integer"))?;
            u32::try_from(n)
                .ok()
                .filter(|_| n <= COUNTER_MASK)
                .ok_or_else(|| format!("alert '{name}': '{key}' must be at most {COUNTER_MASK}"))
        }
    }
}

fn parse_spec(entry: &Value, windows: &[&str]) -> Result<AlertSpec, String> {
    let name = entry
        .get("name")
        .and_then(Value::as_str)
        .filter(|n| !n.is_empty())
        .ok_or("alert spec: missing non-empty string field 'name'")?
        .to_string();
    let metric = parse_metric(entry, &name)?;
    let window = entry
        .get("window")
        .and_then(Value::as_str)
        .or_else(|| windows.first().copied())
        .ok_or_else(|| format!("alert '{name}': missing 'window'"))?
        .to_string();
    if !windows.contains(&window.as_str()) {
        return Err(format!(
            "alert '{name}': unknown window '{window}' (expected one of: {})",
            windows.join(", ")
        ));
    }
    let trip = entry
        .get("trip")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("alert '{name}': missing numeric field 'trip'"))?;
    let direction = match entry.get("direction").and_then(Value::as_str) {
        None => metric.default_direction(),
        Some("above") => Direction::Above,
        Some("below") => Direction::Below,
        Some(other) => {
            return Err(format!(
                "alert '{name}': unknown direction '{other}' (expected 'above' or 'below')"
            ))
        }
    };
    let clear = match entry.get("clear") {
        None => trip,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("alert '{name}': 'clear' must be numeric"))?,
    };
    let band_ok = match direction {
        Direction::Above => clear <= trip,
        Direction::Below => clear >= trip,
    };
    if !band_ok || !trip.is_finite() || !clear.is_finite() {
        return Err(format!(
            "alert '{name}': 'clear' ({clear}) must be finite and on the recovery side of \
             'trip' ({trip}) for direction '{}'",
            direction.name()
        ));
    }
    let for_count = parse_count(entry, &name, "for", 1)?;
    if for_count == 0 {
        return Err(format!("alert '{name}': 'for' must be at least 1"));
    }
    let min_hold = parse_count(entry, &name, "min_hold", 0)?;
    Ok(AlertSpec {
        name,
        metric,
        window,
        trip,
        clear,
        direction,
        for_count,
        min_hold,
    })
}

/// Parses an `alerts.json` document: either a top-level array of alert
/// objects or `{"alerts": [...]}`. `windows` lists the rolling-window
/// labels the serving layer offers (the first is the default). Names
/// must be unique; every threshold band must open toward recovery.
pub fn parse_specs(text: &str, windows: &[&str]) -> Result<Vec<AlertSpec>, String> {
    let doc = parse(text).map_err(|e| format!("alerts file: {e}"))?;
    let entries = doc
        .as_array()
        .or_else(|| doc.get("alerts").and_then(Value::as_array))
        .ok_or("alerts file: expected a JSON array or an object with an 'alerts' array")?;
    if entries.is_empty() {
        return Err("alerts file: no alert specs".to_string());
    }
    let mut specs = Vec::with_capacity(entries.len());
    for entry in entries {
        let spec = parse_spec(entry, windows)?;
        if specs.iter().any(|s: &AlertSpec| s.name == spec.name) {
            return Err(format!("alerts file: duplicate alert name '{}'", spec.name));
        }
        specs.push(spec);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(trip: f64, clear: f64, for_count: u32, min_hold: u32) -> AlertSpec {
        AlertSpec {
            name: "t".to_string(),
            metric: AlertMetric::ErrorRate,
            window: "1k".to_string(),
            trip,
            clear,
            direction: Direction::Above,
            for_count,
            min_hold,
        }
    }

    /// Drives a value stream through a fresh state, returning the
    /// transitions with their observation indices.
    fn run(spec: &AlertSpec, values: &[Option<f64>]) -> Vec<(usize, Transition)> {
        let mut state = STATE_NORMAL;
        let mut out = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let (next, transition) = spec.advance(state, *v);
            state = next;
            if let Some(t) = transition {
                out.push((i, t));
            }
        }
        out
    }

    #[test]
    fn fires_after_for_count_consecutive_violations() {
        let s = spec(0.5, 0.2, 3, 0);
        let quiet = vec![Some(0.9), Some(0.9), Some(0.1), Some(0.9), Some(0.9)];
        assert_eq!(run(&s, &quiet), vec![], "interrupted run must not fire");
        let hot = vec![Some(0.1), Some(0.9), Some(0.9), Some(0.9)];
        assert_eq!(run(&s, &hot), vec![(3, Transition::Fired)]);
    }

    #[test]
    fn values_inside_the_band_neither_fire_nor_clear() {
        let s = spec(0.5, 0.2, 1, 0);
        // Fire, then oscillate inside (clear, trip): stays firing.
        let stream = vec![Some(0.9), Some(0.3), Some(0.4), Some(0.3), Some(0.4)];
        assert_eq!(run(&s, &stream), vec![(0, Transition::Fired)]);
        // Crossing below clear finally clears it.
        let stream = vec![Some(0.9), Some(0.3), Some(0.1)];
        assert_eq!(
            run(&s, &stream),
            vec![(0, Transition::Fired), (2, Transition::Cleared)]
        );
    }

    #[test]
    fn min_hold_blocks_an_early_clear() {
        let s = spec(0.5, 0.2, 1, 4);
        let stream = vec![Some(0.9), Some(0.0), Some(0.0), Some(0.0), Some(0.0)];
        assert_eq!(
            run(&s, &stream),
            vec![(0, Transition::Fired), (4, Transition::Cleared)],
            "clear must wait for min_hold observations after firing"
        );
    }

    #[test]
    fn clearing_needs_for_count_consecutive_recoveries() {
        let s = spec(0.5, 0.2, 2, 0);
        let stream = vec![
            Some(0.9),
            Some(0.9), // fires at 1
            Some(0.1),
            Some(0.3), // in-band: resets the clear run
            Some(0.1),
            Some(0.1), // clears at 5
        ];
        assert_eq!(
            run(&s, &stream),
            vec![(1, Transition::Fired), (5, Transition::Cleared)]
        );
    }

    #[test]
    fn undefined_values_never_violate_and_count_as_recovered() {
        let s = spec(0.5, 0.2, 2, 0);
        assert_eq!(run(&s, &[None, None, None]), vec![]);
        // None interrupts a pending run…
        assert_eq!(run(&s, &[Some(0.9), None, Some(0.9)]), vec![]);
        // …and counts toward clearing a firing alert.
        let stream = vec![Some(0.9), Some(0.9), None, None];
        assert_eq!(
            run(&s, &stream),
            vec![(1, Transition::Fired), (3, Transition::Cleared)]
        );
    }

    #[test]
    fn below_direction_mirrors_the_comparison() {
        let s = AlertSpec {
            direction: Direction::Below,
            ..spec(0.8, 0.95, 1, 0)
        };
        let stream = vec![Some(0.99), Some(0.7), Some(0.9), Some(0.96)];
        assert_eq!(
            run(&s, &stream),
            vec![(1, Transition::Fired), (3, Transition::Cleared)]
        );
    }

    #[test]
    fn atomic_wrapper_reports_each_transition_once() {
        let s = spec(0.5, 0.2, 1, 0);
        let state = AlertState::new();
        assert_eq!(state.observe(&s, Some(0.9)), Some(Transition::Fired));
        assert!(is_firing(state.load()));
        assert_eq!(state.observe(&s, Some(0.9)), None);
        assert_eq!(state.observe(&s, Some(0.1)), Some(Transition::Cleared));
        assert_eq!(phase_name(state.load()), "normal");
    }

    #[test]
    fn parses_a_full_spec_document() {
        let text = r#"{"alerts": [
            {"name": "di-floor", "metric": "disparate_impact", "window": "10k",
             "trip": 0.8, "clear": 0.9, "for": 25, "min_hold": 100},
            {"name": "age-drift", "metric": "psi", "column": "age", "trip": 0.2, "clear": 0.1}
        ]}"#;
        let specs = parse_specs(text, &["1k", "10k"]).unwrap();
        assert_eq!(specs.len(), 2);
        let di = &specs[0];
        assert_eq!(di.metric, AlertMetric::DisparateImpact);
        assert_eq!(di.direction, Direction::Below);
        assert_eq!(
            (di.window.as_str(), di.for_count, di.min_hold),
            ("10k", 25, 100)
        );
        let psi = &specs[1];
        assert_eq!(psi.metric.column(), Some("age"));
        assert_eq!(psi.direction, Direction::Above);
        assert_eq!(
            (psi.window.as_str(), psi.for_count, psi.min_hold),
            ("1k", 1, 0)
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        let windows = &["1k", "10k"];
        let cases: &[(&str, &str)] = &[
            ("not json", "alerts file"),
            (r#"{"alerts": []}"#, "no alert specs"),
            (
                r#"[{"metric": "psi", "trip": 0.2}]"#,
                "missing non-empty string field 'name'",
            ),
            (
                r#"[{"name": "a", "metric": "nope", "trip": 1.0}]"#,
                "unknown metric",
            ),
            (
                r#"[{"name": "a", "metric": "psi", "trip": 0.2}]"#,
                "requires a 'column'",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "column": "x", "trip": 0.5}]"#,
                "only valid with metric 'psi'",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate"}]"#,
                "missing numeric field 'trip'",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "trip": 0.5, "window": "5k"}]"#,
                "unknown window '5k'",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "trip": 0.5, "clear": 0.9}]"#,
                "recovery side",
            ),
            (
                r#"[{"name": "a", "metric": "disparate_impact", "trip": 0.8, "clear": 0.7}]"#,
                "recovery side",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "trip": 0.5, "for": 0}]"#,
                "'for' must be at least 1",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "trip": 0.5, "direction": "sideways"}]"#,
                "unknown direction",
            ),
            (
                r#"[{"name": "a", "metric": "error_rate", "trip": 0.5},
                    {"name": "a", "metric": "error_rate", "trip": 0.6}]"#,
                "duplicate alert name",
            ),
        ];
        for (text, needle) in cases {
            let err = parse_specs(text, windows).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }
}
