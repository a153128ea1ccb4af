//! The chaos machinery's zero-fault fast path: a world armed with an idle
//! fault campaign (a rule scoped to a region no node inhabits) must cost
//! nothing measurable over a world with no campaign at all. The 20 s
//! request deadline is a constant of the attempt path, on in both.
//!
//! Two proofs, one noise-free and one wall-clock:
//!
//! 1. **Exactness** (asserted): the armed batch returns byte-identical
//!    bodies and the identical virtual clock — the machinery draws no RNG
//!    values and adds no virtual time when no fault fires.
//! 2. **Overhead** (measured): `scripts/check.sh` archives
//!    `BENCH_chaos.json`; the armed-idle median is expected within 2% of
//!    baseline (reported here rather than asserted, because wall-clock on
//!    shared CI is noisy even when the code path is provably identical).

use std::hint::black_box;

use httpwire::{Response, Uri};
use netsim::{FaultCampaign, FaultProfile, FaultRule, FaultScope};
use proxynet::{UsernameOptions, World};
use substrate::bench::{fmt_ns, Harness};

/// A small genuinely zero-fault world (even the "clean" ISP default of 1%
/// link flakiness is zeroed — a single retry would bill its extra attempt
/// to the fast path) with one registered probe host.
fn probe_world() -> (World, String) {
    use worldgen::spec::*;
    let spec = WorldSpec {
        seed: 0xC4A0,
        scale: 1.0,
        probe_apex: "bench.example".into(),
        countries: vec![CountrySpec {
            code: "AA".into(),
            has_rankings: true,
            isps: vec![IspSpec {
                flakiness: 0.0,
                ..IspSpec::clean("Bench ISP", 400)
            }],
        }],
        public_resolvers: PublicResolverSpec {
            clean_servers: 5,
            services: vec![],
            hijacking_service_weight: 0.0,
        },
        endhost: EndhostSpec::default(),
        monitors: vec![],
        sites: SiteSpec::default(),
        campaign: Vec::new(),
    };
    let mut built = worldgen::build(&spec);
    let world = &mut built.world;
    let apex = world.auth_apex().clone();
    let name = apex.child("bench-probe").expect("valid label");
    let host = name.to_string();
    let web_ip = world.web_ip();
    world.auth_server_mut().zone_mut().add_a(name, web_ip);
    world
        .web_server_mut()
        .put(&host, "/", Response::ok("text/html", vec![0x42; 4096]));
    (built.world, host)
}

/// Arm the fault machinery without letting it fire: a campaign rule
/// scoped to a region no node inhabits.
fn arm(world: &mut World) {
    world.set_fault_campaign(FaultCampaign::none().with_rule(FaultRule {
        scope: FaultScope::region("ZZ"),
        window: None,
        profile: FaultProfile::Outage,
    }));
}

/// One measured batch: distinct sessions spread requests over exit nodes.
fn run_batch(world: &mut World, host: &str, sessions: u32) -> (u64, netsim::SimTime) {
    let uri = Uri::http(host, "/");
    let mut bytes = 0u64;
    for session in 0..sessions {
        let opts = UsernameOptions::new("bench").session(session as u64);
        match world.proxy_get(&opts, &uri) {
            Ok(resp) => bytes += resp.body.len() as u64,
            Err(e) => panic!("zero-fault world failed a request: {e:?}"),
        }
    }
    (bytes, world.now())
}

fn main() {
    let mut h = Harness::new("chaos");
    let sessions: u32 = if h.is_quick() { 200 } else { 1_000 };
    let (pristine, host) = probe_world();

    // Proof 1: armed-idle is *exact* — same bytes, same virtual clock.
    let baseline_out = run_batch(&mut pristine.clone(), &host, sessions);
    let armed_out = {
        let mut world = pristine.clone();
        arm(&mut world);
        run_batch(&mut world, &host, sessions)
    };
    assert_eq!(
        baseline_out, armed_out,
        "the armed-but-idle fault machinery changed the zero-fault run"
    );

    // Proof 2: wall-clock medians, archived to BENCH_chaos.json.
    let base_ns = {
        let stats = h.bench(&format!("proxy_get/{sessions}req/baseline"), || {
            black_box(run_batch(&mut pristine.clone(), &host, sessions))
        });
        stats.median_ns
    };
    let armed_ns = {
        let stats = h.bench(&format!("proxy_get/{sessions}req/armed-idle"), || {
            let mut world = pristine.clone();
            arm(&mut world);
            black_box(run_batch(&mut world, &host, sessions))
        });
        stats.median_ns
    };
    let overhead = armed_ns / base_ns - 1.0;
    println!(
        "armed-idle fast path: baseline {} vs armed {} → {:+.2}% (budget 2%)",
        fmt_ns(base_ns),
        fmt_ns(armed_ns),
        overhead * 100.0
    );
    h.finish();
}
