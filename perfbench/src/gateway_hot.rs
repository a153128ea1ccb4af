//! `gateway-hot`: a warm gateway answering from its report cache.
//!
//! Set-up executes every hot spec once, so each is cached with no
//! eviction. The trace is an open loop on virtual time of `POST`s of those
//! specs (answered `200` from the report cache) and `GET`s of their
//! finished bodies, issued back to back: the gateway never reads a wall
//! clock, so this measures its saturation rate. Only the request path does
//! work; no build, experiment or checkpoint runs.

use crate::gw::{classify, get_request, post_request, replay_request, Class, REQUEST_PATH};
use crate::report::{self, Outcome};
use crate::span::Tracer;
use crate::stats::Hist;
use crate::trace::{self, HotTrace};
use crate::{Args, Budget, Layers};
use netsim::SimTime;
use std::time::Instant;
use tft_serve::{Gateway, GatewayConfig, StudyCache, StudyKey, TierStats};

/// A gateway with every hot spec cached, and what it must answer.
struct Warm {
    gw: Gateway,
    /// Per spec: the `POST` and `GET` request bytes.
    wires: Vec<[Vec<u8>; 2]>,
    /// Per spec: the exact `POST` and `GET` answers seen in set-up.
    answers: Vec<[Vec<u8>; 2]>,
    /// Per spec: the study body cached in set-up.
    bodies: Vec<Vec<u8>>,
    keys: Vec<StudyKey>,
    /// Virtual time after set-up.
    now_ms: u64,
}

/// Execute every hot spec, then check that a `POST` of each is a cache hit
/// and a `GET` a complete fetch, both carrying the cached body.
fn warm(t: &HotTrace) -> Result<Warm, String> {
    let mut gw = Gateway::new(GatewayConfig::default());
    let cost = Gateway::cold_study_cost().as_millis();
    let keys: Vec<StudyKey> = t.specs.iter().map(StudyKey::for_spec).collect();
    let wires: Vec<[Vec<u8>; 2]> = t
        .specs
        .iter()
        .zip(&keys)
        .map(|(s, k)| [post_request(s), get_request(k)])
        .collect();
    let mut now_ms = 0;
    let mut bodies = Vec::new();
    for [post, get] in &wires {
        let admitted = classify(&gw.handle(post, SimTime::from_millis(now_ms)));
        if admitted.class != Class::Admit {
            return Err(format!("set-up POST answered {:?}", admitted.class));
        }
        now_ms += cost + 1;
        let fetched = classify(&gw.handle(get, SimTime::from_millis(now_ms)));
        match (fetched.class, fetched.response) {
            (Class::Fetch, Some(r)) => bodies.push(r.body),
            (class, _) => return Err(format!("set-up GET answered {class:?}")),
        }
        now_ms += 1;
    }
    // The warm-up operations: one hit and one fetch per spec, whose exact
    // bytes every timed answer must repeat.
    let mut answers = Vec::new();
    for ([post, get], body) in wires.iter().zip(&bodies) {
        let mut pair = [Vec::new(), Vec::new()];
        for (slot, (wire, want)) in pair
            .iter_mut()
            .zip([(post, Class::Hit), (get, Class::Fetch)])
        {
            now_ms += 1;
            let raw = gw.handle(wire, SimTime::from_millis(now_ms));
            let got = classify(&raw);
            if got.class != want || got.response.map(|r| r.body) != Some(body.clone()) {
                return Err(format!("warm-up answer was {:?}, not {want:?}", got.class));
            }
            *slot = raw;
        }
        answers.push(pair);
    }
    Ok(Warm {
        gw,
        wires,
        answers,
        bodies,
        keys,
        now_ms,
    })
}

/// Whether `raw` is a correct answer to request `post` for spec `spec`: a
/// `200` whose body is byte-identical to the one cached in set-up.
fn correct(w: &Warm, spec: usize, post: bool, raw: &[u8]) -> bool {
    if raw == w.answers[spec][usize::from(!post)] {
        return true;
    }
    let want = if post { Class::Hit } else { Class::Fetch };
    let got = classify(raw);
    got.class == want && got.response.is_some_and(|r| r.body == w.bodies[spec])
}

/// Replay the request path of every request in one trace round.
fn replay_requests(tr: &mut Tracer, t: &HotTrace, w: &Warm) {
    let mut replica = StudyCache::new(trace::HOT_SPECS, trace::HOT_SPECS);
    for (key, body) in w.keys.iter().zip(&w.bodies) {
        replica.insert_report(*key, body.clone());
    }
    for (id, r) in t.requests.iter().enumerate() {
        let kind = usize::from(!r.post);
        let class = if r.post { Class::Hit } else { Class::Fetch };
        let (wire, answer) = (&w.wires[r.spec][kind], &w.answers[r.spec][kind]);
        replay_request(tr, id as u64, wire, answer, class, &mut replica);
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let cfg = GatewayConfig::default();
    let t = trace::hot(args.seed);
    let listed: Vec<String> = t.specs.iter().map(|s| format!("{:016x}", s.seed)).collect();
    crate::print_run_info(args, cfg.workers, t.specs[0].scale, &listed.join(","));

    let mut out = Outcome::default();
    let (warmed, own_setup) = crate::set_up(args, || warm(&trace::hot(args.seed)));
    let mut w = match warmed {
        Ok(w) => w,
        Err(e) => {
            out.problem(format!("set-up: {e}"));
            return out;
        }
    };

    let window_ms = t.requests.last().map_or(0, |r| r.at_ms) + 1;
    let mut tracer = Tracer::new();
    // Host time per call, untraced and traced.
    let mut lat = [Hist::new(), Hist::new()];
    let mut round_stats = None;
    let mut budget = Budget::new(args.seconds, 1);
    let mut speed = crate::calib::Speed::start(cfg.workers);
    let mut call = 0u64;
    while budget.another() {
        let round_start = Instant::now();
        let before = (w.gw.stats(), w.gw.cache_stats());
        let base = w.now_ms + 1;
        for r in &t.requests {
            let is_traced = args.trace && call % 2 == 1;
            let wire = &w.wires[r.spec][usize::from(!r.post)];
            let now = SimTime::from_millis(base + r.at_ms);
            let class = if r.post { Class::Hit } else { Class::Fetch };
            let span = is_traced.then(|| tracer.enter(class.span(), call));
            let start = Instant::now();
            let raw = w.gw.handle(wire, now);
            let took = start.elapsed();
            if let Some(span) = span {
                tracer.exit(span);
            }
            out.attempted += 1;
            if correct(&w, r.spec, r.post, &raw) {
                lat[usize::from(is_traced)].record(took.as_nanos() as u64);
            } else {
                out.failed += 1;
                lat[usize::from(is_traced)].record_failed();
            }
            call += 1;
        }
        w.now_ms = base + window_ms;
        round_stats.get_or_insert((before, (w.gw.stats(), w.gw.cache_stats())));
        budget.finished(round_start.elapsed());
        speed.sample(1);
    }
    println!(
        "timed {:.3} s over {} requests",
        budget.elapsed().as_secs_f64(),
        out.attempted
    );
    if let Some(((s0, (_, r0)), (s1, (_, r1)))) = round_stats {
        println!(
            "check round 1: cache_hits {} joined {} studies_executed {} worlds_built {} report_hits {} report_misses {}",
            s1.cache_hits - s0.cache_hits,
            s1.joined - s0.joined,
            s1.studies_executed - s0.studies_executed,
            s1.worlds_built - s0.worlds_built,
            r1.hits - r0.hits,
            r1.misses - r0.misses,
        );
    }

    let [untraced, traced] = &lat;
    if !args.trace {
        crate::put_end_to_end(
            args,
            own_setup,
            (
                untraced.len() - untraced.failed(),
                untraced.total_ns() / 1e9,
            ),
            speed.slowdown(),
            &mut out,
        );
        return out;
    }

    crate::print_overhead(
        report::THROUGHPUT_PER_S,
        Some(untraced.len() as f64 / (untraced.total_ns() / 1e9)),
        Some(traced.len() as f64 / (traced.total_ns() / 1e9)),
    );
    replay_requests(&mut tracer, &t, &w);
    let mut layers = Layers::default();
    crate::put_handle_percentiles(&mut layers, untraced);
    for class in [Class::Hit, Class::Fetch] {
        layers.median(class.metric(), tracer.durations(class.span()), 1e-3);
    }
    for (metric, span) in REQUEST_PATH {
        layers.median(metric, tracer.durations(span), 1e-3);
    }
    if let Some(((s0, (w0, r0)), (s1, (w1, r1)))) = round_stats {
        let rate = |a: TierStats, b: TierStats| {
            let d = TierStats {
                hits: b.hits - a.hits,
                misses: b.misses - a.misses,
                evictions: b.evictions - a.evictions,
            };
            d.hit_rate()
        };
        layers.set("tft-serve.cache.report_hit_rate", rate(r0, r1), 1);
        layers.set("tft-serve.cache.world_hit_rate", rate(w0, w1), 1);
        layers.set(
            "tft-serve.gateway.studies_executed",
            (s1.studies_executed - s0.studies_executed) as f64,
            1,
        );
        layers.set(
            "tft-serve.gateway.worlds_built",
            (s1.worlds_built - s0.worlds_built) as f64,
            1,
        );
        layers.set(
            "tft-serve.gateway.joined",
            (s1.joined - s0.joined) as f64,
            1,
        );
        let posts = t.requests.iter().filter(|r| r.post).count();
        layers.set(
            "tft-serve.gateway.shed_share",
            (s1.rejected - s0.rejected) as f64 / posts.max(1) as f64,
            1,
        );
    }
    crate::print_explained(&tracer);
    crate::write_spans(args, &tracer);
    layers.into_outcome(&mut out);
    out
}
