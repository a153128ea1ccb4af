//! The measurement must survive an unreliable proxy network: node churn
//! and packet loss exercise the super proxy's retry machinery (the debug
//! headers are what keep the methodology sound under churn).

use tft::netsim::{FaultCampaign, FaultInjector};
use tft::prelude::*;
use tft::proxynet::AttemptOutcome;
use tft::worldgen::spec::*;

fn lossy_spec() -> WorldSpec {
    WorldSpec {
        seed: 7,
        scale: 1.0,
        probe_apex: "lab.example".into(),
        countries: vec![CountrySpec {
            code: "XA".into(),
            has_rankings: true,
            isps: vec![IspSpec {
                flakiness: 0.10,
                ..IspSpec::clean("Flaky ISP", 500)
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
    }
}

#[test]
fn study_completes_under_heavy_loss() {
    let mut built = build(&lossy_spec());
    // smoltcp's suggested starting point: 15% drop chance on the link.
    built
        .world
        .set_fault_campaign(FaultCampaign::uniform(FaultInjector::lossy(0.15)));
    let cfg = StudyConfig {
        min_nodes_per_country: 5,
        min_nodes_per_dns_server: 3,
        ..StudyConfig::default()
    };
    let data = tft::tft_core::dns_exp::run(&mut built.world, &cfg);
    assert!(
        data.observations.len() > 300,
        "only {} observations under loss",
        data.observations.len()
    );
    // Nothing should be (falsely) hijacked in a clean world.
    let hijacked = data
        .observations
        .iter()
        .filter(|o| matches!(o.outcome, tft::tft_core::obs::DnsOutcome::Hijacked { .. }))
        .count();
    assert_eq!(hijacked, 0, "loss must not fabricate hijacks");
}

#[test]
fn retries_show_up_in_debug_timeline() {
    let mut built = build(&lossy_spec());
    built
        .world
        .set_fault_campaign(FaultCampaign::uniform(FaultInjector::lossy(0.35)));
    let apex = built.world.auth_apex().clone();
    let host = apex.child("retry-probe").expect("valid").to_string();
    let web_ip = built.world.web_ip();
    built
        .world
        .auth_server_mut()
        .zone_mut()
        .add_a(apex.child("retry-probe").expect("valid"), web_ip);
    built.world.web_server_mut().put(
        &host,
        "/",
        tft::httpwire::Response::ok("text/html", b"ok".to_vec()),
    );

    let mut saw_retry = false;
    let mut successes = 0;
    for session in 0..200 {
        let opts = UsernameOptions::new("fault-test").session(session);
        match built.world.proxy_get(&opts, &Uri::http(&host, "/")) {
            Ok(resp) => {
                successes += 1;
                if resp.debug.attempts.len() > 1 {
                    saw_retry = true;
                    // Every non-final attempt failed; the final succeeded.
                    for a in &resp.debug.attempts[..resp.debug.attempts.len() - 1] {
                        assert_ne!(a.outcome, AttemptOutcome::Success);
                    }
                    assert_eq!(
                        resp.debug.attempts.last().unwrap().outcome,
                        AttemptOutcome::Success
                    );
                }
            }
            Err(ProxyError::AllRetriesFailed(debug)) => {
                assert_eq!(debug.attempts.len(), tft::proxynet::MAX_ATTEMPTS);
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(successes > 150, "retries should save most requests");
    assert!(saw_retry, "with 35% loss some requests must retry");
}

#[test]
fn offline_population_shrinks_but_does_not_break_sampling() {
    let mut built = build(&lossy_spec());
    // Take half the world offline.
    let ids: Vec<_> = built.world.node_ids().collect();
    for id in ids.iter().step_by(2) {
        built.world.node_mut(*id).online = false;
    }
    let cfg = StudyConfig {
        min_nodes_per_country: 5,
        ..StudyConfig::default()
    };
    let data = tft::tft_core::dns_exp::run(&mut built.world, &cfg);
    let unique: std::collections::HashSet<_> = data.observations.iter().map(|o| o.zid).collect();
    assert!(
        unique.len() <= ids.len() / 2 + 1,
        "measured {} nodes but only {} are online",
        unique.len(),
        ids.len() / 2
    );
    assert!(unique.len() > 150, "most online nodes still measurable");
}
