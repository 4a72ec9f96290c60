//! Shared definitions of the golden request/response suite.
//!
//! One fixed pipeline configuration per shipped dataset, plus the
//! benchmarked serving chain on adult, and the exact predict requests
//! the committed fixtures in `tests/golden_serve/` replay. The fixture
//! **generator** (`examples/golden_serve.rs`) and the CI **replay
//! test** (`tests/golden_serve.rs`) both build their
//! pipelines through this module, so a fixture mismatch always means
//! the serving path changed — never that the two sides disagreed about
//! the configuration.
//!
//! It also defines the two `/metrics` replays whose scrapes are
//! committed next to the request fixtures: the plain german replay, and
//! an *armed* one with a canary and one alert of every metric kind.

use fairprep_core::seal::SealedPipeline;
use fairprep_data::dataset::BinaryLabelDataset;
use fairprep_data::schema::Role;
use fairprep_trace::json::{obj, Value};

use crate::build;
use crate::serve::{http_request, http_request_accept, Registry, ServerHandle, WINDOW_LABELS};

/// Fixtures of the golden suite: one per generator the repo ships,
/// named after its dataset, plus [`DI_FIXTURE`].
pub const GOLDEN_FIXTURES: &[&str] = &["adult", "german", "compas", "ricci", "payment", DI_FIXTURE];

/// The fixture of the chain `perfbench`'s `serve_mixed` workload serves
/// (mode imputer, DI remover at repair level 1.0, standard featurizer,
/// plain LR, reject-option) on the golden adult sample: the only golden
/// chain through the DI remover.
pub const DI_FIXTURE: &str = "adult_di";

/// Rows drawn from each generator: enough for a stable lifecycle,
/// small enough for CI.
const GOLDEN_ROWS: usize = 300;

/// Generator seed shared by both sides of the suite.
const GOLDEN_GEN_SEED: u64 = 20_19;

/// Experiment seed shared by both sides of the suite.
const GOLDEN_RUN_SEED: u64 = 46_947;

/// The dataset a golden fixture draws its sample from.
#[must_use]
pub fn dataset_of(fixture: &str) -> &str {
    if fixture == DI_FIXTURE {
        "adult"
    } else {
        fixture
    }
}

/// The fixed component configuration of one golden pipeline:
/// `(learner, missing, preprocessor, postprocessor)`. Chosen so the
/// suite spans imputation, a preprocessor, a post-processor, and a
/// plain chain.
fn golden_config(fixture: &str) -> (&'static str, &'static str, &'static str, &'static str) {
    match fixture {
        DI_FIXTURE => ("lr", "mode", "di-remover-1.0", "reject-option"),
        "adult" => ("lr", "complete-case", "reweighing", "none"),
        "german" => ("dt", "complete-case", "none", "reject-option"),
        "compas" => ("lr", "complete-case", "massaging", "none"),
        "ricci" => ("dt", "complete-case", "none", "none"),
        // Payment has real missingness: the imputer is on the hot path.
        _ => ("lr", "mode", "none", "none"),
    }
}

/// The golden dataset sample every request row is drawn from.
pub fn golden_dataset(dataset: &str) -> Result<BinaryLabelDataset, String> {
    build::load_dataset(dataset, GOLDEN_ROWS, GOLDEN_GEN_SEED)
}

/// Fits and seals the fixed golden pipeline of `fixture`.
pub fn golden_pipeline(fixture: &str) -> Result<SealedPipeline, String> {
    seal(dataset_of(fixture), golden_config(fixture))
}

/// Fits and seals the german canary: the golden german sample and seed
/// through plain logistic regression, so it disagrees with the golden
/// `dt` + reject-option chain on some rows.
pub fn golden_canary_pipeline() -> Result<SealedPipeline, String> {
    seal("german", ("lr", "complete-case", "none", "none"))
}

fn seal(
    dataset: &str,
    (learner, missing, preprocessor, postprocessor): (&str, &str, &str, &str),
) -> Result<SealedPipeline, String> {
    let data = golden_dataset(dataset)?;
    let builder = fairprep_core::experiment::Experiment::builder(dataset, data)
        .seed(GOLDEN_RUN_SEED)
        .threads(1);
    let experiment = build::configure(
        builder,
        learner,
        missing,
        preprocessor,
        postprocessor,
        "standard",
    )?;
    let (_, sealed) = experiment.run_sealed().map_err(|e| e.to_string())?;
    Ok(sealed)
}

/// Renders dataset row `i` as a predict-request row object: every
/// non-label column, missing cells as `null`.
pub fn row_value(data: &BinaryLabelDataset, i: usize) -> Value {
    let members = data
        .schema()
        .fields()
        .iter()
        .filter(|f| f.role != Role::Label)
        .map(|f| {
            let cell = data
                .frame()
                .column(&f.name)
                .map_or(Value::Null, |col| match col.get(i) {
                    fairprep_data::column::Value::Numeric(x) if !x.is_nan() => Value::Num(x),
                    fairprep_data::column::Value::Categorical(s) => Value::Str(s.to_string()),
                    _ => Value::Null,
                });
            (f.name.as_str(), cell)
        })
        .collect();
    obj(members)
}

/// The golden request bodies of `fixture`: a single-row request, a
/// small batch, and — when the dataset has incomplete rows — a request
/// that routes missing cells through the sealed imputer. The DI fixture
/// adds `off_sample_batch`.
pub fn golden_bodies(fixture: &str) -> Result<Vec<String>, String> {
    let data = golden_dataset(dataset_of(fixture))?;
    let mut bodies = vec![
        obj(vec![("row", row_value(&data, 0))]).to_json(),
        obj(vec![(
            "rows",
            Value::Arr((1..9).map(|i| row_value(&data, i)).collect()),
        )])
        .to_json(),
    ];
    if let Some(&incomplete) = data.frame().incomplete_rows().first() {
        bodies.push(obj(vec![("row", row_value(&data, incomplete))]).to_json());
    }
    if fixture == DI_FIXTURE {
        bodies.push(off_sample_batch(&data));
    }
    Ok(bodies)
}

/// Rows in [`off_sample_batch`]: the batch size `serve_mixed` sends.
const OFF_SAMPLE_ROWS: usize = 256;

/// One batch of the sample's first rows, incomplete rows included, whose
/// numeric cells cycle through four placements against the training
/// values: as drawn, half a unit above (between two integer training
/// values), far above the maximum, and far below the minimum, except
/// that every eighth row's first numeric cell is `-0.0`.
fn off_sample_batch(data: &BinaryLabelDataset) -> String {
    let rows = (0..OFF_SAMPLE_ROWS.min(data.n_rows()))
        .map(|i| match row_value(data, i) {
            Value::Obj(members) => {
                let mut first = true;
                let members = members
                    .into_iter()
                    .map(|(key, cell)| match cell {
                        Value::Num(x) => {
                            let moved = match i % 4 {
                                0 => x,
                                1 => x + 0.5,
                                2 => 3.0 * x + 1e6,
                                _ if first && i % 8 == 7 => -0.0,
                                _ => -x - 1e6,
                            };
                            first = false;
                            (key, Value::Num(moved))
                        }
                        other => (key, other),
                    })
                    .collect();
                Value::Obj(members)
            }
            other => other,
        })
        .collect();
    obj(vec![("rows", Value::Arr(rows))]).to_json()
}

/// Path of the committed fixture file of `fixture`, relative to the
/// repository root.
#[must_use]
pub fn fixture_path(fixture: &str) -> String {
    format!("tests/golden_serve/{fixture}.json")
}

/// The latency every scrape replay pins, in microseconds: the only
/// nondeterministic input to `/metrics`.
const SCRAPE_LATENCY_US: u64 = 1_000;

/// Committed scrapes of [`plain_replay`]: `[JSON, Prometheus]`.
pub const PLAIN_SCRAPE_FIXTURES: [&str; 2] = [
    "tests/golden_serve/german.metrics.json",
    "tests/golden_serve/german.metrics.prom",
];

/// Committed scrapes of [`armed_replay`]: `[JSON, Prometheus]`.
pub const ARMED_SCRAPE_FIXTURES: [&str; 2] = [
    "tests/golden_serve/german.armed.metrics.json",
    "tests/golden_serve/german.armed.metrics.prom",
];

/// Single-row requests the armed replay sends to the golden pipeline:
/// more than 1,000, so every 1k window has evicted.
const ARMED_REQUESTS: usize = 1_050;

/// One alert of each metric kind, over both windows, with thresholds
/// that make some fire during the armed replay.
const ARMED_ALERTS: &str = r#"[
    {"name": "di", "metric": "disparate_impact", "window": "1k", "trip": 2.0, "clear": 3.0, "for": 10},
    {"name": "gap", "metric": "favorable_rate_gap", "window": "10k", "trip": 0.5, "clear": 0.4},
    {"name": "age-drift", "metric": "psi", "column": "age", "window": "1k",
     "trip": 0.05, "clear": 0.01, "for": 50},
    {"name": "p99", "metric": "p99_latency_us", "window": "1k", "trip": 500, "clear": 100,
     "for": 5, "min_hold": 200},
    {"name": "errors", "metric": "error_rate", "window": "1k", "trip": 0.0005, "clear": 0.0},
    {"name": "canary", "metric": "canary_divergence", "window": "10k", "trip": 0.01,
     "clear": 0.005, "for": 20}
]"#;

/// The two `/metrics` scrapes that end a replay.
pub struct Scrapes {
    /// The default JSON document (also what `Accept: application/json`
    /// gets).
    pub json: String,
    /// The Prometheus text exposition (`Accept: text/plain`).
    pub prometheus: String,
}

/// The plain replay: the german golden requests against the german
/// golden pipeline.
pub fn plain_replay() -> Result<Scrapes, String> {
    let sealed = golden_pipeline("german")?;
    let path = predict_path(&sealed);
    let requests: Vec<(String, String, u16)> = golden_bodies("german")?
        .into_iter()
        .map(|body| (path.clone(), body, 200))
        .collect();
    let mut registry = Registry::new();
    registry.insert(sealed);
    replay(registry, &requests)
}

/// The armed replay: the german golden pipeline with
/// [`golden_canary_pipeline`] shadow-scoring half its requests and
/// every `ARMED_ALERTS` spec armed; 1,050 single-row requests with one
/// body refused at parse time halfway through, then ten rows sent to
/// the canary's own endpoint.
pub fn armed_replay() -> Result<Scrapes, String> {
    let sealed = golden_pipeline("german")?;
    let canary = golden_canary_pipeline()?;
    let data = golden_dataset("german")?;
    let row_body = |i: usize| obj(vec![("row", row_value(&data, i % data.n_rows()))]).to_json();
    let (primary, shadow) = (predict_path(&sealed), predict_path(&canary));
    let mut requests = Vec::new();
    for i in 0..ARMED_REQUESTS {
        if i == ARMED_REQUESTS / 2 {
            requests.push((primary.clone(), "not json".to_string(), 400));
        }
        requests.push((primary.clone(), row_body(i), 200));
    }
    requests.extend((0..10).map(|i| (shadow.clone(), row_body(i), 200)));
    let canary_fingerprint = canary.fingerprint.clone();
    let mut registry = Registry::new();
    registry.insert(sealed);
    registry.insert(canary);
    registry.arm_alerts(&fairprep_trace::alert::parse_specs(
        ARMED_ALERTS,
        &WINDOW_LABELS,
    )?)?;
    registry.arm_canary(&canary_fingerprint, 0.5)?;
    replay(registry, &requests)
}

fn predict_path(sealed: &SealedPipeline) -> String {
    format!("/predict/{}", sealed.fingerprint.replace(':', "-"))
}

/// Serves `registry` on one worker at the pinned latency, sends every
/// `(path, body, expected status)` request in order, and scrapes
/// `/metrics` with no `Accept` header, with `application/json` (which
/// must give the same bytes), and as Prometheus text.
fn replay(registry: Registry, requests: &[(String, String, u16)]) -> Result<Scrapes, String> {
    let server = ServerHandle::spawn(registry, 0, 1)?;
    server.registry().set_fixed_latency_us(SCRAPE_LATENCY_US);
    for (path, body, expected) in requests {
        let (status, response) = http_request(server.addr(), "POST", path, Some(body))?;
        if status != *expected {
            return Err(format!(
                "{path}: expected {expected}, got {status}: {response}"
            ));
        }
    }
    let scrape = |accept| match http_request_accept(server.addr(), "GET", "/metrics", None, accept)?
    {
        (200, body) => Ok(body),
        (status, body) => Err(format!("/metrics answered {status}: {body}")),
    };
    let json = scrape(None)?;
    if scrape(Some("application/json"))? != json {
        return Err("`Accept: application/json` changed the JSON scrape".to_string());
    }
    let prometheus = scrape(Some("text/plain; version=0.0.4"))?;
    server.stop();
    Ok(Scrapes { json, prometheus })
}
