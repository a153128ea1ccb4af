//! Workspace acceptance for `tft-serve`: the serving layer keeps the
//! stack's determinism contract end to end.
//!
//! - An identical request trace produces **byte-identical response
//!   bodies** at workers 1, 2, and 8 — worker count is a wall-clock knob,
//!   nothing more, even through the queue, the cache, and chunked framing.
//! - A cache hit **serves without re-executing**: the execution counters
//!   stay flat while repeat submissions are answered `200` from tier 2.
//! - A saturated queue answers `429 + Retry-After`, and a client that
//!   honors the hint gets admitted on retry.
//! - A served study ends with **exactly the bytes the library renders**
//!   for the same spec: the gateway adds framing, never results of its own.

use httpwire::{Method, Request, Response, StatusCode, Target};
use netsim::{SimDuration, SimTime};
use tft_core::{render_annex, render_tables, ExecOptions, StudyConfig, StudyDriver};
use tft_serve::gateway::Gateway;
use tft_serve::loadgen::{self, LoadGenConfig};
use tft_serve::GatewayConfig;
use worldgen::WorldSpec;

fn post_spec(spec: &WorldSpec) -> Vec<u8> {
    let body = worldgen::to_json(spec).expect("spec renders");
    let mut req = Request {
        method: Method::Post,
        target: Target::Origin("/studies".into()),
        headers: httpwire::Headers::new(),
        body: body.into_bytes(),
    };
    req.headers.set("Host", "gateway");
    req.headers
        .set("Content-Length", &req.body.len().to_string());
    req.encode()
}

fn parse(raw: &[u8]) -> Response {
    Response::parse(raw).expect("gateway responses parse").0
}

/// The headline guarantee: replaying the same deterministic load trace —
/// open-loop arrivals, hot/cold spec mix, polls, retries — digests to the
/// same value over every response byte, whether studies execute on 1, 2,
/// or 8 pool workers.
#[test]
fn identical_traces_are_byte_identical_at_workers_1_2_8() {
    let cfg = |workers: usize| LoadGenConfig {
        seed: 0xE2E_5E4E,
        clients: 200,
        window: SimDuration::from_secs(60),
        hot_specs: 2,
        cold_specs: 2,
        hot_fraction: 0.85,
        gateway: GatewayConfig {
            workers,
            ..GatewayConfig::default()
        },
    };
    let w1 = loadgen::run(&cfg(1));
    let w2 = loadgen::run(&cfg(2));
    let w8 = loadgen::run(&cfg(8));

    assert_eq!(
        w1.response_digest, w2.response_digest,
        "workers=1 vs workers=2 responses diverged"
    );
    assert_eq!(
        w1.response_digest, w8.response_digest,
        "workers=1 vs workers=8 responses diverged"
    );
    // The virtual-time metrics are part of the trace, so they match too.
    assert_eq!(w1.requests, w8.requests);
    assert_eq!(w1.p95_latency_ms, w8.p95_latency_ms);
    assert_eq!(w1.stats, w8.stats);
    // And the trace actually exercised the interesting paths.
    assert!(w1.stats.cache_hits > 0, "hot set never hit: {w1:?}");
    assert!(w1.stats.studies_executed > 0, "nothing executed: {w1:?}");
}

/// Single-flight + content addressing: once a study has run, resubmitting
/// the same spec is answered from the report cache — `200`, same body as a
/// `GET`, and the execution counters never move again.
#[test]
fn cache_hit_serves_without_reexecuting() {
    let mut gw = Gateway::new(GatewayConfig::default());
    let spec = worldgen::smoke_spec(0xCAFE);
    let raw = post_spec(&spec);

    let accept = parse(&gw.handle(&raw, SimTime::EPOCH));
    assert_eq!(accept.status, StatusCode::ACCEPTED);
    let id = accept.headers.get("X-Study-Id").expect("id").to_string();

    // Step virtual time past the whole study; it executes exactly once.
    let done_t = SimTime::EPOCH + Gateway::cold_study_cost() + SimDuration::from_millis(1);
    let hit = parse(&gw.handle(&raw, done_t));
    assert_eq!(hit.status, StatusCode::OK);
    assert_eq!(hit.headers.get("X-Cache"), Some("hit"));
    assert_eq!(gw.stats().studies_executed, 1);
    assert_eq!(gw.stats().worlds_built, 1);

    // Hammer the same spec: all hits, zero additional work.
    for _ in 0..5 {
        let again = parse(&gw.handle(&raw, done_t));
        assert_eq!(again.status, StatusCode::OK);
        assert_eq!(again.body, hit.body);
    }
    let stats = gw.stats();
    assert_eq!(stats.studies_executed, 1, "cache hits re-executed");
    assert_eq!(stats.worlds_built, 1, "cache hits rebuilt the world");
    assert_eq!(stats.cache_hits, 6);

    // The POST-hit body and the GET body are the same bytes.
    let get = Request::origin_get("gateway", &format!("/studies/{id}")).encode();
    let got = parse(&gw.handle(&get, done_t));
    assert_eq!(got.status, StatusCode::OK);
    assert_eq!(got.body, hit.body);
}

/// Backpressure round-trip: a full queue refuses with `429 + Retry-After`,
/// and retrying after the hinted delay is admitted.
#[test]
fn retry_after_hint_is_honest() {
    let mut gw = Gateway::new(GatewayConfig {
        queue_depth: 1,
        ..GatewayConfig::default()
    });
    let t0 = SimTime::EPOCH;
    let first = parse(&gw.handle(&post_spec(&worldgen::smoke_spec(1)), t0));
    assert_eq!(first.status, StatusCode::ACCEPTED);

    let second_raw = post_spec(&worldgen::smoke_spec(2));
    let full = parse(&gw.handle(&second_raw, t0));
    assert_eq!(full.status, StatusCode::TOO_MANY_REQUESTS);
    let secs: u64 = full
        .headers
        .get("Retry-After")
        .expect("backpressure carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");

    // A client that honors the hint finds a slot (the first study has
    // drained off the virtual server by then).
    let retry = parse(&gw.handle(&second_raw, t0 + SimDuration::from_secs(secs)));
    assert_eq!(retry.status, StatusCode::ACCEPTED);
    assert_eq!(retry.headers.get("X-Cache"), Some("miss"));
}

/// The gateway serves what the library computes: a finished study's body
/// ends with the tables and annex that a `StudyDriver` run directly on the
/// spec's world renders, then the end marker — at gateway workers 1 and 2.
#[test]
fn served_body_ends_with_the_library_rendering() {
    let spec = worldgen::smoke_spec(0x5E4E);
    let cfg = StudyConfig::scaled(spec.scale);
    let mut driver = StudyDriver::new(
        worldgen::build(&spec).world,
        cfg.clone(),
        &ExecOptions::with_workers(1),
    );
    driver.run_to_completion();
    let (report, _world) = driver.into_parts();
    let rendered = render_tables(&report) + &render_annex(&report, &cfg);

    let served = |workers: usize| {
        let mut gw = Gateway::new(GatewayConfig {
            workers,
            ..GatewayConfig::default()
        });
        let accept = parse(&gw.handle(&post_spec(&spec), SimTime::EPOCH));
        let id = accept.headers.get("X-Study-Id").expect("id").to_string();
        let get = Request::origin_get("gateway", &format!("/studies/{id}")).encode();
        let done_t = SimTime::EPOCH + Gateway::cold_study_cost() + SimDuration::from_millis(1);
        let done = parse(&gw.handle(&get, done_t));
        assert_eq!(done.headers.get("X-Study-Complete"), Some("true"));
        (id, done.body)
    };
    let (id, body) = served(1);
    let expected = format!("{rendered}# end study {id}\n");
    assert!(
        body.ends_with(expected.as_bytes()),
        "served body does not end with the library's rendering"
    );
    assert_eq!(served(2).1, body, "workers=2 served different bytes");
}
