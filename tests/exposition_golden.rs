//! Golden `/metrics` scrapes of the scoring service.
//!
//! Two replays run sequentially on one worker with a pinned fake
//! latency, the only nondeterministic input (see
//! `fairprep_cli::golden`): the plain german replay, and an armed one
//! with a canary, one alert of every metric kind, a refused request and
//! enough traffic to evict the 1k windows. Both scrapes of each, the
//! JSON document and the Prometheus text exposition, must match the
//! committed fixtures byte for byte. Any drift in metric names, label
//! sets, number formatting, PSI arithmetic, rolling-window bookkeeping,
//! alert or canary sections fails the build. Regenerate with
//! `cargo run --release --example golden_serve` when a change is
//! intentional.
//!
//! The replays also pin content negotiation: `/metrics` answers JSON by
//! default and for `Accept: application/json`, Prometheus text only
//! when asked.

use fairprep_cli::golden::{
    armed_replay, plain_replay, Scrapes, ARMED_SCRAPE_FIXTURES, PLAIN_SCRAPE_FIXTURES,
};
use fairprep_trace::json::parse;

fn assert_matches_fixtures(scrapes: &Scrapes, [json_path, prom_path]: [&str; 2]) {
    for (path, scraped) in [(json_path, &scrapes.json), (prom_path, &scrapes.prometheus)] {
        let expected = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing scrape fixture {path}: {e}"));
        assert_eq!(
            scraped, &expected,
            "{path}: scrape drifted from the fixture"
        );
    }
    assert!(parse(&scrapes.json).unwrap().get("pipelines").is_some());
    // Minimal syntax sanity on top of the byte comparison.
    assert!(scrapes.prometheus.starts_with("# HELP fairprep_pipelines "));
    for line in scrapes.prometheus.lines() {
        assert!(
            line.starts_with("# HELP ") || line.starts_with("# TYPE ") || line.contains(' '),
            "malformed exposition line: {line}"
        );
    }
}

#[test]
fn golden_prometheus_exposition_replays_byte_identically() {
    assert_matches_fixtures(&plain_replay().unwrap(), PLAIN_SCRAPE_FIXTURES);
}

#[test]
fn armed_scrapes_replay_byte_identically() {
    let scrapes = armed_replay().unwrap();
    assert_matches_fixtures(&scrapes, ARMED_SCRAPE_FIXTURES);
    for section in ["\"alerts\":", "\"canary\":"] {
        assert!(
            scrapes.json.contains(section),
            "armed scrape lacks {section}"
        );
    }
}
