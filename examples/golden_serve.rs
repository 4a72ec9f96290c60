//! Regenerates the golden request/response fixtures of the scoring
//! service.
//!
//! ```text
//! cargo run --release --example golden_serve [-- --out DIR]
//! ```
//!
//! For every golden fixture (one per shipped dataset, plus the DI
//! chain on adult) this fits the fixed golden pipeline (see
//! `fairprep_cli::golden`), serves it on an ephemeral port, replays the
//! golden requests over real HTTP, and writes one fixture file per
//! fixture into `--out` (default `tests/golden_serve/`) holding the
//! requests together with their **byte-exact** response bodies, plus
//! the JSON and Prometheus `/metrics` scrapes of the plain and the armed
//! german replay. Tier-1 tests replay the committed fixtures against an
//! in-process server: any byte of drift in the serving path fails them.

use fairprep_cli::golden::{
    armed_replay, dataset_of, golden_bodies, golden_pipeline, plain_replay, ARMED_SCRAPE_FIXTURES,
    GOLDEN_FIXTURES, PLAIN_SCRAPE_FIXTURES,
};
use fairprep_cli::serve::{http_request, Registry, ServerHandle};
use fairprep_trace::json::{obj, Value};

fn main() {
    let mut out_dir = std::path::PathBuf::from("tests/golden_serve");
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(dir) = iter.next() {
                    out_dir = std::path::PathBuf::from(dir);
                }
            }
            other => {
                eprintln!("usage: golden_serve [--out DIR] (got `{other}`)");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("cannot create output directory");

    for name in GOLDEN_FIXTURES {
        let sealed = golden_pipeline(name)
            .unwrap_or_else(|e| panic!("golden pipeline `{name}` failed: {e}"));
        let fingerprint = sealed.fingerprint.clone();
        let predict_path = format!("/predict/{}", fingerprint.replace(':', "-"));
        let bodies = golden_bodies(name).expect("golden requests");

        let mut registry = Registry::new();
        registry.insert(sealed);
        let server = ServerHandle::spawn(registry, 0, 2).expect("spawn server");

        let requests: Vec<Value> = bodies
            .iter()
            .map(|body| {
                let (status, response) =
                    http_request(server.addr(), "POST", &predict_path, Some(body))
                        .expect("request");
                assert_eq!(status, 200, "{name}: {response}");
                obj(vec![
                    ("path", Value::Str(predict_path.clone())),
                    ("body", Value::Str(body.clone())),
                    ("status", Value::from_u64(u64::from(status))),
                    ("response", Value::Str(response)),
                ])
            })
            .collect();
        server.stop();

        let fixture = obj(vec![
            ("dataset", Value::Str(dataset_of(name).to_string())),
            ("fingerprint", Value::Str(fingerprint)),
            ("requests", Value::Arr(requests)),
        ])
        .to_json();
        let path = out_dir.join(format!("{name}.json"));
        std::fs::write(&path, &fixture).expect("cannot write fixture");
        println!("{} ({} bytes)", path.display(), fixture.len());
    }

    // Golden `/metrics` scrapes: the plain and the armed german replay
    // (see `fairprep_cli::golden`), each at a pinned fake latency, so the
    // committed bytes replay exactly on any machine.
    for (scrapes, paths) in [
        (plain_replay(), PLAIN_SCRAPE_FIXTURES),
        (armed_replay(), ARMED_SCRAPE_FIXTURES),
    ] {
        let scrapes = scrapes.expect("scrape replay");
        for (path, text) in paths.iter().zip([scrapes.json, scrapes.prometheus]) {
            let path = out_dir.join(
                std::path::Path::new(path)
                    .file_name()
                    .expect("fixture file name"),
            );
            std::fs::write(&path, &text).expect("cannot write scrape fixture");
            println!("{} ({} bytes)", path.display(), text.len());
        }
    }
}
