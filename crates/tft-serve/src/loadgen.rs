//! A deterministic load generator on virtual time.
//!
//! Simulates thousands of concurrent clients against one [`Gateway`]:
//! **open-loop** arrivals (every client's arrival time is drawn up front
//! from its own forked [`netsim::SimRng`] stream, independent of how the
//! server responds) over a mixed **hot/cold** spec distribution — a small
//! hot set most clients resubmit (exercising the cache and the
//! single-flight guard) plus cold specs with unique seeds (forcing real
//! executions and evictions).
//!
//! The entire request trace — arrival times, spec choices, poll and retry
//! schedules — is a pure function of the config, and the gateway itself is
//! deterministic, so the concatenated responses digest to the same 64-bit
//! value at any worker count. The workspace e2e test
//! (`tests/serve_gateway.rs`) pins that digest across workers 1/2/8.

use crate::cache::StudyKey;
use crate::gateway::{Gateway, GatewayConfig, GatewayStats};
use httpwire::{Request, Response};
use netsim::rng::RngExt;
use netsim::{SimDuration, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use substrate::Hasher64;
use worldgen::WorldSpec;

/// Load-generator tuning.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Master seed for the whole trace.
    pub seed: u64,
    /// Number of clients; each submits one spec (plus polls/retries).
    pub clients: usize,
    /// Window over which arrivals spread.
    pub window: SimDuration,
    /// Distinct specs in the hot set.
    pub hot_specs: usize,
    /// Distinct cold specs (unique seeds, each a real execution).
    pub cold_specs: usize,
    /// Probability a client draws from the hot set.
    pub hot_fraction: f64,
    /// Gateway under test.
    pub gateway: GatewayConfig,
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total HTTP requests issued.
    pub requests: u64,
    /// Stable digest over every response, in trace order. Equal digests ⇒
    /// byte-identical responses.
    pub response_digest: u64,
    /// 95th-percentile request latency, virtual milliseconds. Accepted
    /// submissions are charged submission→completion; immediately-answered
    /// requests (hits, polls, rejections) are charged 1 ms.
    pub p95_latency_ms: u64,
    /// Gateway request counters.
    pub stats: GatewayStats,
}

/// Offsets (from submission) at which an accepted client polls its study.
const POLL_OFFSETS_MS: [u64; 2] = [1_200, 3_600];
/// Retries a client will attempt after `429` before giving up.
const MAX_ATTEMPTS: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Post { spec: usize, attempt: u8 },
    Get { spec: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_ms: u64,
    seq: u64,
    kind: Kind,
}

/// Run the trace described by `cfg` against a fresh gateway.
pub fn run(cfg: &LoadGenConfig) -> LoadReport {
    assert!(
        cfg.hot_specs > 0 && cfg.cold_specs > 0,
        "need both spec sets"
    );
    // The spec universe: hot set first, then cold. Seeds are disjoint by
    // construction.
    let specs: Vec<WorldSpec> = (0..cfg.hot_specs)
        .map(|j| worldgen::smoke_spec(0x4070_0000 + j as u64))
        .chain((0..cfg.cold_specs).map(|i| worldgen::smoke_spec(0xC01D_0000 + i as u64)))
        .collect();
    let keys: Vec<StudyKey> = specs.iter().map(StudyKey::for_spec).collect();
    let post_wires: Vec<Vec<u8>> = specs.iter().map(encode_post).collect();
    let get_wires: Vec<Vec<u8>> = keys.iter().map(encode_get).collect();

    // Open-loop arrivals: one POST per client, spec and time drawn from the
    // client's own forked stream.
    let rng = SimRng::new(cfg.seed);
    let window_ms = cfg.window.as_millis().max(1);
    let mut events: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    for client in 0..cfg.clients {
        let mut r = rng.fork_indexed("client", client as u64);
        let time_ms: u64 = r.random_range(0..window_ms);
        let spec = if r.random_bool(cfg.hot_fraction) {
            r.random_range(0..cfg.hot_specs)
        } else {
            cfg.hot_specs + r.random_range(0..cfg.cold_specs)
        };
        events.push(Reverse(Event {
            time_ms,
            seq: client as u64,
            kind: Kind::Post { spec, attempt: 1 },
        }));
    }

    let mut gw = Gateway::new(cfg.gateway.clone());
    let mut digest = Hasher64::new();
    let mut seq = cfg.clients as u64;
    let mut requests = 0u64;
    // (arrival, key index) of every accepted/joined POST, for latency.
    let mut awaiting: Vec<(u64, usize)> = Vec::new();
    let mut immediate = 0u64; // requests answered on the spot (1 ms each)
    let mut submitted: BTreeSet<usize> = BTreeSet::new();
    let mut last_ms = 0u64;

    while let Some(Reverse(ev)) = events.pop() {
        last_ms = last_ms.max(ev.time_ms);
        let now = SimTime::from_millis(ev.time_ms);
        match ev.kind {
            Kind::Post { spec, attempt } => {
                requests += 1;
                // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "spec is an index the generator itself enqueued into 0..wires.len(); no external input involved")
                let raw = gw.handle(&post_wires[spec], now);
                absorb(&mut digest, &raw);
                // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "parsing our own gateway's in-process response, not wire input; unparseable output is a gateway bug worth crashing the bench on")
                let (resp, _) = Response::parse(&raw).expect("gateway responses parse");
                match resp.status.0 {
                    202 => {
                        submitted.insert(spec);
                        awaiting.push((ev.time_ms, spec));
                        for (i, off) in POLL_OFFSETS_MS.iter().enumerate() {
                            events.push(Reverse(Event {
                                time_ms: ev.time_ms + off,
                                seq: seq + i as u64,
                                kind: Kind::Get { spec },
                            }));
                        }
                        seq += POLL_OFFSETS_MS.len() as u64;
                    }
                    429 if attempt < MAX_ATTEMPTS => {
                        // Honor Retry-After: terminal-vs-retry dispatch.
                        immediate += 1;
                        let secs: u64 = resp
                            .headers
                            .get("Retry-After")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(1);
                        events.push(Reverse(Event {
                            time_ms: ev.time_ms + secs * 1_000,
                            seq,
                            kind: Kind::Post {
                                spec,
                                attempt: attempt + 1,
                            },
                        }));
                        seq += 1;
                    }
                    _ => immediate += 1, // cache hit, or gave up after 429s
                }
            }
            Kind::Get { spec } => {
                requests += 1;
                // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "spec is an index the generator itself enqueued into 0..wires.len(); no external input involved")
                let raw = gw.handle(&get_wires[spec], now);
                absorb(&mut digest, &raw);
                immediate += 1;
            }
        }
    }

    // Drain: step past the backlog and fetch every submitted study's final
    // body, so completed tables/annexes enter the digest.
    let drain_ms = last_ms.max(gw.busy_until().as_millis()) + 1_000;
    for &spec in &submitted {
        requests += 1;
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "spec is an index the generator itself enqueued into 0..wires.len(); no external input involved")
        let raw = gw.handle(&get_wires[spec], SimTime::from_millis(drain_ms));
        absorb(&mut digest, &raw);
        immediate += 1;
    }

    // Latencies: completion-time minus arrival for accepted/joined POSTs,
    // 1 ms for everything answered immediately.
    let mut latencies: Vec<u64> = Vec::with_capacity(awaiting.len() + immediate as usize);
    for &(arrival, spec) in &awaiting {
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "spec is an index the generator itself enqueued into 0..keys.len(); no external input involved")
        let key = &keys[spec];
        let done = gw
            .finished_at(key)
            // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "generator invariant: the drain above stepped past busy_until, so every submitted study finished")
            .expect("drain completed every submitted study")
            .as_millis();
        latencies.push(done.saturating_sub(arrival).max(1));
    }
    latencies.extend(std::iter::repeat_n(1u64, immediate as usize));
    latencies.sort_unstable();

    LoadReport {
        requests,
        response_digest: digest.finish(),
        p95_latency_ms: percentile(&latencies, 0.95),
        stats: gw.stats(),
    }
}

fn encode_post(spec: &WorldSpec) -> Vec<u8> {
    // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "the load generator renders its own hardcoded specs, not caller input; a render failure is a bug in this crate")
    let body = worldgen::to_json(spec).expect("specs render").into_bytes();
    let mut req = Request::origin_get("gateway", "/studies");
    req.method = httpwire::Method::Post;
    req.headers.set("Content-Length", &body.len().to_string());
    req.body = body;
    req.encode()
}

fn encode_get(key: &StudyKey) -> Vec<u8> {
    Request::origin_get("gateway", &format!("/studies/{}", key.study_id())).encode()
}

/// Length-prefix each response so frame boundaries are unambiguous.
fn absorb(digest: &mut Hasher64, raw: &[u8]) {
    digest.update(&(raw.len() as u64).to_le_bytes());
    digest.update(raw);
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "idx is clamped into 0..len on the line above; no input reaches this computation")
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run small enough for a unit test: one hot spec, one cold, few
    /// clients, real executions included.
    fn tiny(workers: usize) -> LoadGenConfig {
        LoadGenConfig {
            seed: 0x10AD,
            clients: 40,
            window: SimDuration::from_secs(30),
            hot_specs: 1,
            cold_specs: 1,
            hot_fraction: 0.8,
            gateway: GatewayConfig {
                workers,
                ..GatewayConfig::default()
            },
        }
    }

    #[test]
    fn trace_is_reproducible() {
        let a = run(&tiny(2));
        let b = run(&tiny(2));
        assert_eq!(a.response_digest, b.response_digest);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.p95_latency_ms, b.p95_latency_ms);
    }

    #[test]
    fn hot_traffic_hits_the_cache() {
        let r = run(&tiny(1));
        assert!(r.stats.cache_hits > 0, "hot set never hit: {r:?}");
        assert!(
            r.stats.studies_executed <= 2,
            "at most one execution per distinct spec: {r:?}"
        );
    }
}
