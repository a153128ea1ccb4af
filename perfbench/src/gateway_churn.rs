//! `gateway-churn`: a gateway offered more cold studies than it can run.
//!
//! `GatewayConfig::default()`: one worker, queue depth 8, caches of 8/8.
//! Open-loop arrivals on virtual time ([`trace::churn`]) offer more cold
//! smoke studies than the single virtual server can run. Clients poll at
//! fixed offsets, retry `429` after `Retry-After`, resubmit a study whose
//! body was evicted, and fetch their final body. Studies execute lazily
//! inside `handle`, stage by stage, with a checkpoint sealed after the
//! build and after every non-final stage — so checkpointing, admission and
//! shedding, and cache writes and evictions show up here and nowhere else.
//!
//! A round replays the whole trace against a fresh gateway. On a 2-vCPU
//! 2.1 GHz Xeon virtual machine one round takes 16–31 s as the host's speed
//! drifts, so a 30-s run is one or two rounds.

use crate::calib::Speed;
use crate::gw::{classify, get_request, post_request, replay_request, Class, REQUEST_PATH};
use crate::report::{self, Outcome};
use crate::span::Tracer;
use crate::stats::Hist;
use crate::trace::{self, ChurnTrace};
use crate::{ns, stats, Args, Budget, Layers};
use netsim::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;
use substrate::Hasher64;
use tft_core::{render_annex, render_tables, ExecOptions, StudyConfig, StudyDriver};
use tft_serve::{Gateway, GatewayConfig, GatewayStats, StudyCache, StudyKey, TierStats};

/// `POST` attempts a client makes before it gives up (and fails).
const MAX_POSTS: u32 = 64;
/// Polls a client makes before it gives up (and fails).
const MAX_POLLS: u32 = 1_000;
/// `handle` calls between reference-kernel samples.
const SPEED_EVERY: u64 = 64;
/// Trace id of the replay of spec `i`'s study: `STUDY_IDS + i`, apart from
/// the ids of requests, which are call indices.
const STUDY_IDS: u64 = 1 << 32;

/// Virtual milliseconds between a client's polls: half a cold study.
fn poll_ms() -> u64 {
    Gateway::cold_study_cost().as_millis() / 2
}

/// Request bytes per spec.
struct Wires {
    keys: Vec<StudyKey>,
    posts: Vec<Vec<u8>>,
    gets: Vec<Vec<u8>>,
}

impl Wires {
    fn new(t: &ChurnTrace) -> Wires {
        let keys: Vec<StudyKey> = t.specs.iter().map(StudyKey::for_spec).collect();
        Wires {
            posts: t.specs.iter().map(post_request).collect(),
            gets: keys.iter().map(get_request).collect(),
            keys,
        }
    }
}

/// One `handle` call of a round, kept for the traced replay.
struct Call {
    post: bool,
    spec: usize,
    class: Class,
    answer: Vec<u8>,
}

/// What one replay of the trace produced.
struct Round {
    /// Length-prefixed digest of every answer, in trace order.
    digest: u64,
    /// Host nanoseconds spent inside `handle`.
    handle_ns: f64,
    /// `handle` calls made.
    calls: u64,
    /// Virtual ms from each client's first `POST` until its study completed;
    /// `None` for a client that never got its complete body.
    latency_ms: Vec<Option<u64>>,
    /// Each client's complete body, when it got one.
    bodies: BTreeMap<usize, Vec<u8>>,
    /// `202 miss` answers per spec: how many times each was executed.
    admits: BTreeMap<usize, u64>,
    posts: u64,
    stats: GatewayStats,
    cache: (TierStats, TierStats),
    /// Every call, when the round keeps them.
    kept: Vec<Call>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Post,
    Get,
}

/// Replay `t` against a fresh gateway, counting each call's host time in
/// `lat` (untraced, traced). With `tracer`, every other call is recorded as
/// a span named after its class; with `keep`, every call is kept for the
/// traced replay.
fn round(
    t: &ChurnTrace,
    w: &Wires,
    mut tracer: Option<&mut Tracer>,
    keep: bool,
    speed: &mut Speed,
    lat: &mut [Hist; 2],
) -> Round {
    let mut gw = Gateway::new(GatewayConfig::default());
    let poll = poll_ms();
    let n = t.clients.len();
    let mut first_post = vec![0u64; n];
    let mut post_count = vec![0u32; n];
    let mut polls = vec![0u32; n];
    let mut r = Round {
        digest: 0,
        handle_ns: 0.0,
        calls: 0,
        latency_ms: vec![None; n],
        bodies: BTreeMap::new(),
        admits: BTreeMap::new(),
        posts: 0,
        stats: GatewayStats::default(),
        cache: Default::default(),
        kept: Vec::new(),
    };
    let mut digest = Hasher64::new();
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize, Ev)>> = t
        .clients
        .iter()
        .enumerate()
        .map(|(c, a)| Reverse((a.at_ms, c as u64, c, Ev::Post)))
        .collect();
    for (c, a) in t.clients.iter().enumerate() {
        first_post[c] = a.at_ms;
    }
    let mut seq = n as u64;
    let mut schedule = |q: &mut BinaryHeap<_>, at: u64, c: usize, ev: Ev| {
        q.push(Reverse((at, seq, c, ev)));
        seq += 1;
    };
    while let Some(Reverse((at, _, c, ev))) = queue.pop() {
        let spec = t.clients[c].spec;
        let wire = match ev {
            Ev::Post => &w.posts[spec],
            Ev::Get => &w.gets[spec],
        };
        let call = r.calls;
        r.calls += 1;
        if call.is_multiple_of(SPEED_EVERY) {
            speed.sample(1);
        }
        let traced = tracer.is_some() && call % 2 == 1;
        let span = match tracer.as_deref_mut() {
            Some(tr) if traced => Some(tr.enter("tft-serve.gateway.handle", call)),
            _ => None,
        };
        let start = Instant::now();
        let raw = gw.handle(wire, SimTime::from_millis(at));
        let took = start.elapsed().as_nanos() as u64;
        if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
            tr.exit(span);
        }
        let answer = classify(&raw);
        if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
            tr.rename(span, answer.class.span());
        }
        r.handle_ns += took as f64;
        lat[usize::from(traced)].record(took);
        digest.update(&(raw.len() as u64).to_le_bytes());
        digest.update(&raw);
        if ev == Ev::Post {
            r.posts += 1;
            post_count[c] += 1;
        }
        let key = w.keys[spec];
        match answer.class {
            Class::Hit | Class::Fetch => {
                let body = answer.response.map(|resp| resp.body).unwrap_or_default();
                let tail = format!("# end study {}\n", key.study_id());
                if body.ends_with(tail.as_bytes()) {
                    let done = gw.finished_at(&key).map_or(at, |d| d.as_millis());
                    r.latency_ms[c] = Some(done.saturating_sub(first_post[c]));
                    r.bodies.insert(c, body);
                }
            }
            Class::Admit | Class::Join => {
                if answer.class == Class::Admit {
                    *r.admits.entry(spec).or_default() += 1;
                }
                schedule(&mut queue, at + poll, c, Ev::Get);
            }
            Class::Poll if polls[c] < MAX_POLLS => {
                polls[c] += 1;
                schedule(&mut queue, at + poll, c, Ev::Get);
            }
            Class::Shed if post_count[c] < MAX_POSTS => {
                schedule(&mut queue, at + answer.retry_after_s * 1_000, c, Ev::Post);
            }
            Class::Lost if post_count[c] < MAX_POSTS => {
                schedule(&mut queue, at + 1, c, Ev::Post);
            }
            Class::Poll | Class::Shed | Class::Lost | Class::Other => {}
        }
        if keep {
            r.kept.push(Call {
                post: ev == Ev::Post,
                spec,
                class: answer.class,
                answer: raw,
            });
        }
    }
    r.digest = digest.finish();
    r.stats = gw.stats();
    r.cache = gw.cache_stats();
    r
}

/// Replay what the gateway does for one study — `worldgen::build`, a
/// `StudyDriver` at the gateway's worker count, a sealed checkpoint after
/// the build and after every non-final stage, then the render — and return
/// the rendered tables and annex, the summed seal time and bytes, and the
/// whole replay's host time.
fn replay_study(tr: &mut Tracer, id: u64, spec: &worldgen::WorldSpec) -> (String, f64, usize, f64) {
    let start = Instant::now();
    let world = tr.time("worldgen.build", id, || worldgen::build(spec).world);
    let cfg = StudyConfig::scaled(spec.scale);
    let opts = ExecOptions::with_workers(GatewayConfig::default().workers);
    let mut driver = StudyDriver::new(world, cfg.clone(), &opts);
    let (mut seal_ns, mut seal_bytes) = (0.0, 0);
    let mut seal = |tr: &mut Tracer, driver: &StudyDriver| {
        let t = Instant::now();
        let sealed = tr.time("tft-core.checkpoint.encode", id, || {
            driver.checkpoint(spec).map(|cp| cp.to_canonical_json())
        });
        seal_ns += ns(t.elapsed());
        seal_bytes += sealed.map_or(0, |json| json.len());
    };
    seal(tr, &driver);
    while !driver.is_done() {
        tr.time(crate::stage_span(driver.next_stage()), id, || driver.step());
        if !driver.is_done() {
            seal(tr, &driver);
        }
    }
    let (report, _) = driver.into_parts();
    let text = tr.time("tft-core.report.render", id, || {
        format!("{}{}", render_tables(&report), render_annex(&report, &cfg))
    });
    (text, seal_ns, seal_bytes, ns(start.elapsed()))
}

/// Replay the request path of every call in `calls`, against a replica
/// cache holding the bodies the gateway served.
fn replay_requests(tr: &mut Tracer, calls: &[Call], w: &Wires, bodies: &BTreeMap<usize, Vec<u8>>) {
    let mut replica = StudyCache::new(w.keys.len().max(1), w.keys.len().max(1));
    for (&spec, body) in bodies {
        replica.insert_report(w.keys[spec], body.clone());
    }
    for (id, call) in calls.iter().enumerate() {
        let wire = if call.post {
            &w.posts[call.spec]
        } else {
            &w.gets[call.spec]
        };
        replay_request(tr, id as u64, wire, &call.answer, call.class, &mut replica);
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let t = trace::churn(args.seed);
    let listed: Vec<String> = t.specs.iter().map(|s| format!("{:016x}", s.seed)).collect();
    crate::print_run_info(
        args,
        GatewayConfig::default().workers,
        t.specs[0].scale,
        &listed.join(","),
    );

    // Set-up: generate the trace and warm the process with one cold study
    // through a throwaway gateway.
    let warm_spec = worldgen::smoke_spec(trace::derive(args.seed, "warm-up", 0));
    let ((t, w), own_setup) = crate::set_up(args, || {
        let t = trace::churn(args.seed);
        let w = Wires::new(&t);
        let mut gw = Gateway::new(GatewayConfig::default());
        gw.handle(&post_request(&warm_spec), SimTime::EPOCH);
        let done = Gateway::cold_study_cost() + netsim::SimDuration::from_millis(1);
        let key = StudyKey::for_spec(&warm_spec);
        std::hint::black_box(gw.handle(&get_request(&key), SimTime::EPOCH + done));
        (t, w)
    });

    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut rounds: Vec<Round> = Vec::new();
    let mut budget = Budget::new(args.seconds, 1);
    let mut speed = Speed::start(GatewayConfig::default().workers);
    let mut lat = [Hist::new(), Hist::new()];
    while budget.another() {
        let start = Instant::now();
        let first = rounds.is_empty();
        let tr = args.trace.then_some(&mut tracer);
        rounds.push(round(&t, &w, tr, args.trace && first, &mut speed, &mut lat));
        budget.finished(start.elapsed());
    }
    println!(
        "timed {:.3} s over {} rounds",
        budget.elapsed().as_secs_f64(),
        rounds.len()
    );

    let first = &rounds[0];
    for r in &rounds {
        out.attempted += r.latency_ms.len() as u64;
        out.failed += r.latency_ms.iter().filter(|l| l.is_none()).count() as u64;
    }
    let s = first.stats;
    let (worlds, reports) = first.cache;
    println!(
        "check round 1: digest {:016x} requests {} posts {} accepted {} joined {} cache_hits {} rejected {} studies_executed {} worlds_built {} report_evictions {} world_evictions {}",
        first.digest, s.requests, first.posts, s.accepted, s.joined, s.cache_hits, s.rejected,
        s.studies_executed, s.worlds_built, reports.evictions, worlds.evictions
    );

    let [untraced, traced] = &lat;
    if !args.trace {
        let executed: u64 = rounds.iter().map(|r| r.stats.studies_executed).sum();
        crate::put_end_to_end(
            args,
            own_setup,
            (executed as usize, untraced.total_ns() / 1e9),
            speed.slowdown(),
            &mut out,
        );
        return out;
    }

    crate::print_overhead(
        report::HANDLE_P50_US,
        untraced.percentile(500).map(|v| v / 1e3),
        traced.percentile(500).map(|v| v / 1e3),
    );
    let mut layers = Layers::default();
    crate::put_handle_percentiles(&mut layers, untraced);
    let virt = stats::sorted(
        first
            .latency_ms
            .iter()
            .map(|l| l.map_or(f64::INFINITY, |v| v as f64))
            .collect(),
    );
    if let Some(p95) = stats::percentile(&virt, 950) {
        layers.set(report::VIRTUAL_P95_MS.name, p95, virt.len());
    }
    for class in Class::TIMED {
        layers.median(class.metric(), tracer.durations(class.span()), 1e-3);
    }

    // Replay every distinct study round 1 executed, and check its render
    // against the body the gateway served for it.
    let mut exec_ns = 0.0;
    let (mut seal_ms, mut seal_bytes) = (Vec::new(), Vec::new());
    let served: BTreeMap<usize, &Vec<u8>> = first
        .bodies
        .iter()
        .map(|(&c, body)| (t.clients[c].spec, body))
        .collect();
    for (&spec, &times) in &first.admits {
        let id = STUDY_IDS + spec as u64;
        let (text, s_ns, s_bytes, took) = replay_study(&mut tracer, id, &t.specs[spec]);
        exec_ns += took * times as f64;
        seal_ms.push(s_ns / 1e6);
        seal_bytes.push(s_bytes as f64);
        let tail = format!("\n{text}# end study {}\n", w.keys[spec].study_id());
        if !served
            .get(&spec)
            .is_some_and(|b| b.ends_with(tail.as_bytes()))
        {
            out.problem(format!(
                "replayed render of spec {spec} differs from the served body"
            ));
        }
    }
    let spec_bodies: BTreeMap<usize, Vec<u8>> =
        served.iter().map(|(&s, &b)| (s, b.clone())).collect();
    replay_requests(&mut tracer, &first.kept, &w, &spec_bodies);

    let exec_share = exec_ns / first.handle_ns;
    println!(
        "explained tft-serve.gateway.handle (all calls) {:>6.1}% of their total {:.3} ms by replayed study executions",
        exec_share * 100.0,
        first.handle_ns / 1e6
    );
    layers.set(
        "tft-serve.gateway.exec_share",
        exec_share,
        first.admits.values().sum::<u64>() as usize,
    );
    layers.median("tft-core.checkpoint.encode_ms", seal_ms, 1.0);
    layers.median("tft-core.checkpoint.bytes", seal_bytes, 1.0);
    for (metric, span) in [
        ("worldgen.build_ms", "worldgen.build"),
        ("tft-core.stage.dns_ms", "tft-core.stage.dns"),
        ("tft-core.stage.http_ms", "tft-core.stage.http"),
        ("tft-core.stage.https_ms", "tft-core.stage.https"),
        ("tft-core.stage.monitor_ms", "tft-core.stage.monitor"),
        ("tft-core.stage.analyze_ms", "tft-core.stage.analyze"),
        ("tft-core.report.render_ms", "tft-core.report.render"),
    ] {
        layers.median(metric, tracer.durations(span), 1e-6);
    }
    for (metric, span) in REQUEST_PATH {
        layers.median(metric, tracer.durations(span), 1e-3);
    }
    layers.set("tft-serve.cache.report_hit_rate", reports.hit_rate(), 1);
    layers.set("tft-serve.cache.world_hit_rate", worlds.hit_rate(), 1);
    layers.set(
        "tft-serve.gateway.studies_executed",
        s.studies_executed as f64,
        1,
    );
    layers.set("tft-serve.gateway.worlds_built", s.worlds_built as f64, 1);
    layers.set("tft-serve.gateway.joined", s.joined as f64, 1);
    layers.set(
        "tft-serve.gateway.shed_share",
        s.rejected as f64 / first.posts.max(1) as f64,
        1,
    );
    crate::print_explained(&tracer);
    crate::write_spans(args, &tracer);
    layers.into_outcome(&mut out);
    out
}
