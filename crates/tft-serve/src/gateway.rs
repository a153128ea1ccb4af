//! The study gateway: HTTP in, study results out.
//!
//! ## Request → queue → execute → cache → respond
//!
//! `POST /studies` takes a [`worldgen::WorldSpec`] as JSON. The spec is
//! validated, content-addressed (see [`crate::cache`]), and dispatched:
//!
//! - **cache hit** — a completed study with the same address exists: `200`
//!   with the full rendered body, no execution;
//! - **in-flight join** — the same address is queued or running: `202`
//!   pointing at the existing study (single-flight: concurrent identical
//!   submissions never execute twice);
//! - **admitted** — a free queue slot: `202` with the study's URL;
//! - **backpressure** — the queue is full: `429` with a `Retry-After`
//!   computed from the queued virtual work, so a well-behaved client's
//!   retry lands when a slot is actually plausible.
//!
//! `GET /studies/{id}` serves a running study's output **incrementally**:
//! sections appear as virtual stages complete, framed with chunked
//! transfer coding ([`httpwire::chunked::Encoder`]); once complete, the
//! full body is served with a content length.
//!
//! ## Virtual time
//!
//! The gateway never reads a wall clock. Every `handle` call carries the
//! caller's virtual `now`; queued studies execute on one virtual server in
//! FIFO order, each stage completing at a fixed virtual offset. The *real*
//! work (worldgen, experiment shards on [`substrate::pool`] workers) runs
//! lazily as virtual completion times pass. Worker count changes only
//! wall-clock, so identical request traces produce byte-identical
//! responses at any worker count — the workspace e2e test pins this at
//! workers 1, 2, and 8.

use crate::cache::{StudyCache, StudyKey, TierStats};
use crate::queue::BoundedFifo;
use httpwire::{chunked, Method, Request, Response, StatusCode, Target};
use netsim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use substrate::json::Json;
use tft_core::{render_annex, render_tables, ExecOptions, StudyConfig, StudyDriver, StudyStage};
use worldgen::WorldSpec;

/// Gateway tuning.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads for study execution (a wall-clock knob only).
    pub workers: usize,
    /// Maximum studies queued or running before `429`.
    pub queue_depth: usize,
    /// Tier-1 capacity (pristine worlds).
    pub world_cache: usize,
    /// Tier-2 capacity (rendered reports).
    pub report_cache: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 1,
            queue_depth: 8,
            world_cache: 8,
            report_cache: 8,
        }
    }
}

/// Virtual cost of building a world.
const COST_BUILD: SimDuration = SimDuration::from_millis(400);

/// Virtual cost of one study stage. Constants, not measurements: virtual
/// time models queueing, it does not profile the host.
fn stage_cost(stage: StudyStage) -> SimDuration {
    SimDuration::from_millis(match stage {
        StudyStage::Dns => 1500,
        StudyStage::Http => 1200,
        StudyStage::Https => 900,
        StudyStage::Monitor => 800,
        StudyStage::Analyze => 600,
        StudyStage::Done => 0,
    })
}

/// Everything a study costs on the virtual server, end to end.
fn total_cost() -> SimDuration {
    let mut d = COST_BUILD;
    for stage in [
        StudyStage::Dns,
        StudyStage::Http,
        StudyStage::Https,
        StudyStage::Monitor,
        StudyStage::Analyze,
    ] {
        d += stage_cost(stage);
    }
    d
}

/// Request counters, split by outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// All requests handled.
    pub requests: u64,
    /// POSTs served whole from the report cache.
    pub cache_hits: u64,
    /// POSTs deduplicated onto an in-flight study.
    pub joined: u64,
    /// POSTs admitted as new studies.
    pub accepted: u64,
    /// POSTs refused with `429`.
    pub rejected: u64,
    /// Requests refused with `400` (malformed HTTP, JSON, or spec).
    pub invalid: u64,
    /// GETs (and bad routes) answered `404`.
    pub not_found: u64,
    /// Worlds actually built (tier-1 misses that did the work).
    pub worlds_built: u64,
    /// Studies actually executed end to end (tier-2 misses that did the work).
    pub studies_executed: u64,
}

/// One queued-or-running study.
struct Job {
    spec: WorldSpec,
    /// Virtual completion time of each remaining step; the first entry is
    /// the world build, the rest are [`StudyDriver`] stages in order.
    pending: VecDeque<SimTime>,
    /// Populated by the build step, taken when the last stage completes.
    driver: Option<StudyDriver>,
    /// Chunk-framed body emitted so far (what an incremental GET serves).
    wire: Vec<u8>,
    /// Plain body emitted so far (what the cache stores at completion).
    body: Vec<u8>,
    enc: chunked::Encoder,
}

/// The gateway. One instance is one virtual server; see the module docs.
pub struct Gateway {
    cfg: GatewayConfig,
    cache: StudyCache,
    /// Admission-ordered keys of queued/running studies.
    active: BoundedFifo<StudyKey>,
    jobs: BTreeMap<StudyKey, Job>,
    finished: BTreeMap<StudyKey, SimTime>,
    clock: SimTime,
    busy_until: SimTime,
    stats: GatewayStats,
}

impl Gateway {
    /// A fresh gateway at the virtual epoch.
    pub fn new(cfg: GatewayConfig) -> Gateway {
        Gateway {
            cache: StudyCache::new(cfg.world_cache, cfg.report_cache),
            active: BoundedFifo::new(cfg.queue_depth),
            jobs: BTreeMap::new(),
            finished: BTreeMap::new(),
            clock: SimTime::EPOCH,
            busy_until: SimTime::EPOCH,
            stats: GatewayStats::default(),
            cfg,
        }
    }

    /// Handle one raw HTTP request at virtual time `now`, returning the
    /// encoded response. Total: malformed input yields `400`, never a
    /// panic.
    pub fn handle(&mut self, raw: &[u8], now: SimTime) -> Vec<u8> {
        self.stats.requests += 1;
        self.advance_to(now);
        let Ok((req, _)) = Request::parse(raw) else {
            self.stats.invalid += 1;
            return plain(StatusCode::BAD_REQUEST, "malformed HTTP request\n").encode();
        };
        let response = match (&req.method, &req.target) {
            (Method::Post, Target::Origin(path)) if path == "/studies" => self.post_study(&req),
            (Method::Get, Target::Origin(path)) if path == "/healthz" => self.healthz(),
            (Method::Get, Target::Origin(path)) => match path.strip_prefix("/studies/") {
                Some(id) => self.get_study(id),
                None => self.route_not_found(),
            },
            _ => self.route_not_found(),
        };
        response.encode()
    }

    /// `GET /healthz`: liveness plus the counters an operator pages on,
    /// rendered as JSON. Always `200` — the body carries the judgement.
    fn healthz(&mut self) -> Response {
        let stats = self.stats();
        let tier = |t: TierStats| {
            Json::Obj(vec![
                ("hits".to_string(), Json::uint(t.hits)),
                ("misses".to_string(), Json::uint(t.misses)),
                ("evictions".to_string(), Json::uint(t.evictions)),
            ])
        };
        let doc = Json::Obj(vec![
            ("status".to_string(), Json::str("ok")),
            (
                "virtual_now_ms".to_string(),
                Json::uint(self.clock.as_millis()),
            ),
            (
                "busy_until_ms".to_string(),
                Json::uint(self.busy_until.as_millis()),
            ),
            (
                "queue".to_string(),
                Json::Obj(vec![
                    ("depth".to_string(), Json::uint(self.active.depth() as u64)),
                    ("len".to_string(), Json::uint(self.active.len() as u64)),
                    ("shed".to_string(), Json::uint(self.active.rejections())),
                ]),
            ),
            (
                "studies".to_string(),
                Json::Obj(vec![
                    ("requests".to_string(), Json::uint(stats.requests)),
                    ("accepted".to_string(), Json::uint(stats.accepted)),
                    ("joined".to_string(), Json::uint(stats.joined)),
                    ("cache_hits".to_string(), Json::uint(stats.cache_hits)),
                    ("rejected".to_string(), Json::uint(stats.rejected)),
                    ("invalid".to_string(), Json::uint(stats.invalid)),
                    ("executed".to_string(), Json::uint(stats.studies_executed)),
                ]),
            ),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("worlds".to_string(), tier(self.cache.world_stats())),
                    ("reports".to_string(), tier(self.cache.report_stats())),
                ]),
            ),
        ]);
        let mut resp = Response::new(StatusCode::OK, doc.render_pretty().into_bytes());
        resp.headers.set("Content-Type", "application/json");
        resp
    }

    fn route_not_found(&mut self) -> Response {
        self.stats.not_found += 1;
        plain(StatusCode::NOT_FOUND, "no such route\n")
    }

    /// `POST /studies`: validate, address, and dispatch a spec.
    fn post_study(&mut self, req: &Request) -> Response {
        let spec = match std::str::from_utf8(&req.body)
            .map_err(|_| "spec body is not UTF-8".to_string())
            .and_then(|s| worldgen::from_json(s).map_err(|e| e.to_string()))
        {
            Ok(spec) => spec,
            Err(msg) => {
                self.stats.invalid += 1;
                return plain(StatusCode::BAD_REQUEST, &format!("invalid spec: {msg}\n"));
            }
        };
        let key = StudyKey::for_spec(&spec);
        let id = key.study_id();

        if let Some(body) = self.cache.report(&key) {
            // Terminal: the study already ran; serve it without executing.
            self.stats.cache_hits += 1;
            let mut resp = plain_body(StatusCode::OK, body.clone());
            resp.headers.set("X-Study-Id", &id);
            resp.headers.set("X-Cache", "hit");
            return resp;
        }
        if self.jobs.contains_key(&key) {
            // Single-flight: identical submission joins the in-flight study.
            self.stats.joined += 1;
            return self.accepted_response(&id, "joined");
        }
        if self.active.push(key).is_err() {
            // Shed: the queue refused the key (and counted the rejection).
            // Retry, not terminal: tell the client when a slot is plausible.
            self.stats.rejected += 1;
            let mut resp = plain(
                StatusCode::TOO_MANY_REQUESTS,
                &format!("queue full ({} studies pending)\n", self.active.len()),
            );
            resp.headers
                .set("Retry-After", &self.retry_after_secs().to_string());
            return resp;
        }

        // Admit: reserve the virtual server right after the current backlog.
        let start = self.clock.max(self.busy_until);
        let mut pending = VecDeque::with_capacity(6);
        let mut t = start + COST_BUILD;
        pending.push_back(t);
        for stage in [
            StudyStage::Dns,
            StudyStage::Http,
            StudyStage::Https,
            StudyStage::Monitor,
            StudyStage::Analyze,
        ] {
            t += stage_cost(stage);
            pending.push_back(t);
        }
        self.busy_until = t;
        self.jobs.insert(
            key,
            Job {
                spec,
                pending,
                driver: None,
                wire: Vec::new(),
                body: Vec::new(),
                enc: chunked::Encoder::new(),
            },
        );
        self.stats.accepted += 1;
        self.accepted_response(&id, "miss")
    }

    fn accepted_response(&self, id: &str, cache_state: &str) -> Response {
        let mut resp = plain(
            StatusCode::ACCEPTED,
            &format!("study {id} accepted; fetch /studies/{id}\n"),
        );
        resp.headers.set("X-Study-Id", id);
        resp.headers.set("X-Cache", cache_state);
        resp.headers.set("Location", &format!("/studies/{id}"));
        resp
    }

    /// `GET /studies/{id}`: completed studies get the full body with a
    /// content length; running studies get the chunk frames emitted so far
    /// (a decodable snapshot — each poll sees strictly more).
    fn get_study(&mut self, id: &str) -> Response {
        let Some(key) = StudyKey::parse_id(id) else {
            self.stats.not_found += 1;
            return plain(StatusCode::NOT_FOUND, "malformed study id\n");
        };
        if let Some(job) = self.jobs.get(&key) {
            let mut wire = job.wire.clone();
            wire.extend_from_slice(b"0\r\n\r\n");
            let mut resp = Response::new(StatusCode::OK, wire);
            resp.headers.set("Content-Type", "text/plain");
            resp.headers.set("Transfer-Encoding", "chunked");
            resp.headers.set("X-Study-Id", id);
            resp.headers.set("X-Study-Complete", "false");
            return resp;
        }
        if let Some(body) = self.cache.peek_report(&key) {
            let mut resp = plain_body(StatusCode::OK, body.clone());
            resp.headers.set("X-Study-Id", id);
            resp.headers.set("X-Study-Complete", "true");
            return resp;
        }
        self.stats.not_found += 1;
        if self.finished.contains_key(&key) {
            // The study ran, but its cached body was evicted: the client
            // gets an honest 404, and a POST of the same spec re-executes.
            return plain(StatusCode::NOT_FOUND, "study result lost; resubmit\n");
        }
        plain(StatusCode::NOT_FOUND, "unknown study\n")
    }

    /// Move the virtual clock to `now` and run every step whose virtual
    /// completion time has passed. Jobs run strictly in admission order —
    /// the FIFO front gates everything behind it.
    fn advance_to(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
        while let Some(&key) = self.active.front() {
            let Some(job) = self.jobs.get_mut(&key) else {
                // Defensive: an active key without a job is a bug, but the
                // gateway sheds it rather than wedging the whole queue.
                self.active.pop();
                continue;
            };
            while let Some(&end) = job.pending.front() {
                if end > self.clock {
                    break;
                }
                job.pending.pop_front();
                let Some(mut driver) = job.driver.take() else {
                    // Build step: the first step of every job.
                    let world = world_for(&mut self.cache, &mut self.stats, key, &job.spec);
                    let cfg = StudyConfig::scaled(job.spec.scale);
                    let driver =
                        StudyDriver::new(world, cfg, &ExecOptions::with_workers(self.cfg.workers));
                    job.driver = Some(driver);
                    let section = format!(
                        "# study {}\nstage build complete at {end}\n",
                        key.study_id()
                    );
                    emit(job, &section);
                    continue;
                };
                let stage = driver.step();
                let section = format!("stage {} complete at {end}\n", stage.label());
                emit(job, &section);
                if !driver.is_done() {
                    job.driver = Some(driver);
                    continue;
                }
                let (report, _world) = driver.into_parts();
                let cfg = StudyConfig::scaled(job.spec.scale);
                let tail = format!(
                    "\n{}{}# end study {}\n",
                    render_tables(&report),
                    render_annex(&report, &cfg),
                    key.study_id()
                );
                emit(job, &tail);
                job.wire.extend_from_slice(&job.enc.finish());
                self.stats.studies_executed += 1;
                self.cache.insert_report(key, job.body.clone());
                self.finished.insert(key, end);
            }
            if !job.pending.is_empty() {
                break;
            }
            self.jobs.remove(&key);
            self.active.pop();
        }
    }

    /// Seconds until the virtual backlog drains (the `Retry-After` value):
    /// at least 1, rounded up.
    fn retry_after_secs(&self) -> u64 {
        let backlog = self
            .busy_until
            .checked_since(self.clock)
            .unwrap_or(SimDuration::ZERO);
        backlog.as_millis().div_ceil(1000).max(1)
    }

    /// Request counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Cache counters, `(tier-1 worlds, tier-2 reports)`.
    pub fn cache_stats(&self) -> (TierStats, TierStats) {
        (self.cache.world_stats(), self.cache.report_stats())
    }

    /// Virtual completion time of a study that has finished.
    pub fn finished_at(&self, key: &StudyKey) -> Option<SimTime> {
        self.finished.get(key).copied()
    }

    /// The gateway's virtual clock.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// When the virtual server's current backlog drains.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The worst-case virtual latency of a cold study admitted to an empty
    /// queue (used by clients to space their polls).
    pub fn cold_study_cost() -> SimDuration {
        total_cost()
    }
}

/// The pristine world for `key`: tier-1 cache hit, or build-and-cache.
fn world_for(
    cache: &mut StudyCache,
    stats: &mut GatewayStats,
    key: StudyKey,
    spec: &WorldSpec,
) -> proxynet::World {
    match cache.world(&key) {
        Some(world) => world,
        None => {
            let built = worldgen::build(spec).world;
            stats.worlds_built += 1;
            cache.insert_world(key, built.clone());
            built
        }
    }
}

/// Append one section to a job's plain body and chunk-framed wire.
fn emit(job: &mut Job, section: &str) {
    job.body.extend_from_slice(section.as_bytes());
    job.wire
        .extend_from_slice(&job.enc.push(section.as_bytes()));
}

fn plain(status: StatusCode, text: &str) -> Response {
    plain_body(status, text.as_bytes().to_vec())
}

fn plain_body(status: StatusCode, body: Vec<u8>) -> Response {
    let mut resp = Response::new(status, body);
    resp.headers.set("Content-Type", "text/plain");
    resp
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn malformed_http_and_bad_specs_get_400() {
        let mut gw = Gateway::new(GatewayConfig::default());
        let t = SimTime::EPOCH;
        assert_eq!(
            parse(&gw.handle(b"NONSENSE", t)).status,
            StatusCode::BAD_REQUEST
        );
        let mut req = Request::origin_get("gateway", "/studies");
        req.method = Method::Post;
        req.body = b"{not json".to_vec();
        req.headers.set("Content-Length", "9");
        assert_eq!(
            parse(&gw.handle(&req.encode(), t)).status,
            StatusCode::BAD_REQUEST
        );
        let mut bad_spec = worldgen::smoke_spec(1);
        bad_spec.scale = -1.0; // parses, fails validation
        let resp = parse(&gw.handle(&post_spec(&bad_spec), t));
        assert_eq!(resp.status, StatusCode::BAD_REQUEST);
        assert_eq!(gw.stats().invalid, 3);
    }

    #[test]
    fn unknown_routes_and_ids_get_404() {
        let mut gw = Gateway::new(GatewayConfig::default());
        let t = SimTime::EPOCH;
        let get = |path: &str| Request::origin_get("gateway", path).encode();
        assert_eq!(
            parse(&gw.handle(&get("/nope"), t)).status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(
            parse(&gw.handle(&get("/studies/not-a-real-id"), t)).status,
            StatusCode::NOT_FOUND
        );
        let id = StudyKey::for_spec(&worldgen::smoke_spec(1)).study_id();
        assert_eq!(
            parse(&gw.handle(&get(&format!("/studies/{id}")), t)).status,
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn admission_join_and_backpressure() {
        let mut gw = Gateway::new(GatewayConfig {
            queue_depth: 1,
            ..GatewayConfig::default()
        });
        let t = SimTime::EPOCH; // never advances: nothing executes
        let first = parse(&gw.handle(&post_spec(&worldgen::smoke_spec(1)), t));
        assert_eq!(first.status, StatusCode::ACCEPTED);
        assert_eq!(first.headers.get("X-Cache"), Some("miss"));
        let id = first.headers.get("X-Study-Id").expect("id header");
        assert_eq!(
            first.headers.get("Location").unwrap(),
            format!("/studies/{id}")
        );

        // Identical resubmission joins in-flight — no second slot consumed.
        let joined = parse(&gw.handle(&post_spec(&worldgen::smoke_spec(1)), t));
        assert_eq!(joined.status, StatusCode::ACCEPTED);
        assert_eq!(joined.headers.get("X-Cache"), Some("joined"));

        // A different spec finds the queue full: 429 + Retry-After covering
        // the backlog (5.4s of queued virtual work → 6s).
        let full = parse(&gw.handle(&post_spec(&worldgen::smoke_spec(2)), t));
        assert_eq!(full.status, StatusCode::TOO_MANY_REQUESTS);
        assert_eq!(full.headers.get("Retry-After"), Some("6"));
        let s = gw.stats();
        assert_eq!((s.accepted, s.joined, s.rejected), (1, 1, 1));
        assert_eq!(s.studies_executed, 0, "clock never moved");
    }

    #[test]
    fn incremental_get_grows_and_completes() {
        let mut gw = Gateway::new(GatewayConfig::default());
        let accept = parse(&gw.handle(&post_spec(&worldgen::smoke_spec(5)), SimTime::EPOCH));
        let id = accept.headers.get("X-Study-Id").expect("id").to_string();
        let get = Request::origin_get("gateway", &format!("/studies/{id}")).encode();

        // Mid-flight: chunked snapshot, strictly growing.
        let early = parse(&gw.handle(&get, SimTime::from_millis(500)));
        assert_eq!(early.headers.get("X-Study-Complete"), Some("false"));
        assert!(early.headers.is_chunked());
        let mid = parse(&gw.handle(&get, SimTime::from_millis(3_500)));
        assert!(
            mid.body.len() > early.body.len(),
            "later poll must have seen more stages"
        );
        assert!(String::from_utf8_lossy(&mid.body).contains("stage dns complete"));

        // Past the virtual end: complete, content-length framed, cached.
        let done = parse(&gw.handle(&get, SimTime::from_millis(10_000)));
        assert_eq!(done.headers.get("X-Study-Complete"), Some("true"));
        assert!(!done.headers.is_chunked());
        let text = String::from_utf8_lossy(&done.body);
        assert!(text.contains("Table 1"), "tables served");
        assert!(text.contains(&format!("# end study {id}")));
        assert_eq!(gw.stats().studies_executed, 1);

        // And the mid-flight snapshot (already de-chunked by the response
        // parser) was a strict prefix of the final body.
        assert!(done.body.starts_with(&mid.body));
        assert!(done.body.len() > mid.body.len());
    }

    #[test]
    fn evicted_report_answers_404_and_reexecutes_on_resubmit() {
        let mut gw = Gateway::new(GatewayConfig {
            report_cache: 1,
            ..GatewayConfig::default()
        });
        let first = worldgen::smoke_spec(5);
        let second = worldgen::smoke_spec(6);
        let get = |spec: &WorldSpec| {
            let id = StudyKey::for_spec(spec).study_id();
            Request::origin_get("gateway", &format!("/studies/{id}")).encode()
        };

        gw.handle(&post_spec(&first), SimTime::EPOCH);
        let done = parse(&gw.handle(&get(&first), SimTime::from_millis(10_000)));
        assert_eq!(done.headers.get("X-Study-Complete"), Some("true"));

        // The second study's report takes the only slot, evicting the first.
        gw.handle(&post_spec(&second), SimTime::from_millis(10_001));
        let other = parse(&gw.handle(&get(&second), SimTime::from_millis(20_000)));
        assert_eq!(other.headers.get("X-Study-Complete"), Some("true"));
        assert_eq!(gw.cache_stats().1.evictions, 1);

        let lost = parse(&gw.handle(&get(&first), SimTime::from_millis(20_001)));
        assert_eq!(lost.status, StatusCode::NOT_FOUND);
        assert!(String::from_utf8_lossy(&lost.body).contains("result lost; resubmit"));

        // A resubmission is a miss: the study re-executes from scratch and
        // serves the same report as before the eviction.
        let resub = parse(&gw.handle(&post_spec(&first), SimTime::from_millis(20_002)));
        assert_eq!(resub.status, StatusCode::ACCEPTED);
        assert_eq!(resub.headers.get("X-Cache"), Some("miss"));
        let again = parse(&gw.handle(&get(&first), SimTime::from_millis(40_000)));
        assert_eq!(again.headers.get("X-Study-Complete"), Some("true"));
        // Stage headers carry virtual completion times, which legitimately
        // differ across executions; the report itself must be identical.
        let report_of = |body: &[u8]| {
            let text = String::from_utf8_lossy(body).to_string();
            let at = text.find("=== Table 1").expect("report present");
            text[at..].to_string()
        };
        assert_eq!(
            report_of(&again.body),
            report_of(&done.body),
            "re-executed study must render the same report"
        );
        assert_eq!(gw.stats().studies_executed, 3);
    }

    #[test]
    fn healthz_reports_shed_and_cache_counters() {
        let mut gw = Gateway::new(GatewayConfig {
            queue_depth: 1,
            ..GatewayConfig::default()
        });
        let t = SimTime::EPOCH;
        gw.handle(&post_spec(&worldgen::smoke_spec(1)), t);
        gw.handle(&post_spec(&worldgen::smoke_spec(2)), t); // queue full: shed

        let resp = parse(&gw.handle(&Request::origin_get("gateway", "/healthz").encode(), t));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.headers.get("Content-Type"), Some("application/json"));
        let doc = substrate::json::parse(std::str::from_utf8(&resp.body).expect("utf8"))
            .expect("healthz body is JSON");
        assert_eq!(doc.get("status").and_then(|v| v.as_str()), Some("ok"));
        let queue = doc.get("queue").expect("queue section");
        assert_eq!(queue.get("shed").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(queue.get("len").and_then(|v| v.as_u64()), Some(1));
        let studies = doc.get("studies").expect("studies section");
        assert_eq!(studies.get("accepted").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(studies.get("rejected").and_then(|v| v.as_u64()), Some(1));
        let reports = doc
            .get("cache")
            .and_then(|c| c.get("reports"))
            .expect("report tier section");
        assert_eq!(reports.get("misses").and_then(|v| v.as_u64()), Some(2));
        let sections: Vec<&str> = doc
            .as_obj()
            .expect("healthz is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            sections,
            [
                "status",
                "virtual_now_ms",
                "busy_until_ms",
                "queue",
                "studies",
                "cache"
            ]
        );
        // /healthz is not a study route: it must not count as a 404.
        assert_eq!(gw.stats().not_found, 0);
    }
}
