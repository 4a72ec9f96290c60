//! Golden request/response suite of the scoring service.
//!
//! For every golden fixture (one per shipped dataset, plus the DI chain
//! on adult): re-fit the fixed golden pipeline, serve it in-process on
//! an ephemeral port, replay the committed requests from
//! `tests/golden_serve/<name>.json` over real HTTP, and demand
//! the responses match the committed bytes exactly. Regenerate the
//! fixtures with `cargo run --release --example golden_serve` when a
//! serving-path change is intentional.

use fairprep_cli::golden::{fixture_path, golden_pipeline, GOLDEN_FIXTURES};
use fairprep_cli::serve::{http_request, Registry, ServerHandle};
use fairprep_trace::json::{parse, Value};

#[test]
fn golden_serve_fixtures_replay_byte_identically() {
    for name in GOLDEN_FIXTURES {
        let text = std::fs::read_to_string(fixture_path(name))
            .unwrap_or_else(|e| panic!("missing fixture for `{name}`: {e}"));
        let fixture = parse(&text).unwrap();

        let sealed = golden_pipeline(name).unwrap();
        assert_eq!(
            fixture.get("fingerprint").and_then(Value::as_str),
            Some(sealed.fingerprint.as_str()),
            "{name}: pipeline fingerprint drifted from the committed fixture"
        );

        let mut registry = Registry::new();
        registry.insert(sealed);
        let server = ServerHandle::spawn(registry, 0, 2).unwrap();

        let requests = fixture
            .get("requests")
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("{name}: fixture carries no requests"));
        assert!(requests.len() >= 2, "{name}: fixture is too small");
        for (i, request) in requests.iter().enumerate() {
            let path = request.get("path").and_then(Value::as_str).unwrap();
            let body = request.get("body").and_then(Value::as_str).unwrap();
            let expected_status = request.get("status").and_then(Value::as_u64_any).unwrap();
            let expected_response = request.get("response").and_then(Value::as_str).unwrap();

            let (status, response) = http_request(server.addr(), "POST", path, Some(body)).unwrap();
            assert_eq!(u64::from(status), expected_status, "{name} request {i}");
            assert_eq!(
                response, expected_response,
                "{name} request {i}: response bytes drifted"
            );
        }
        server.stop();
    }
}
