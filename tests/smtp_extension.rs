//! End-to-end test of the SMTP future-work extension: STARTTLS stripping
//! planted on three ISPs must be recovered by the comparative analysis,
//! with clean networks untouched.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use tft::certs::Certificate;
use tft::prelude::*;

struct Run {
    built: BuiltWorld,
    data: tft::tft_core::smtp_exp::SmtpDataset,
    analysis: tft::tft_core::analysis::smtp::SmtpAnalysis,
}

fn run() -> &'static Run {
    use std::sync::OnceLock;
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| {
        let scale = 0.01;
        let mut built = build(&paper_spec(scale, 0x5271));
        let cfg = StudyConfig::scaled(scale);
        let data = tft::tft_core::smtp_exp::run(&mut built.world, &cfg);
        let analysis = tft::tft_core::analysis::smtp::analyze(&data, &built.world, &cfg);
        Run {
            built,
            data,
            analysis,
        }
    })
}

#[test]
fn most_of_the_world_sees_starttls() {
    let r = run();
    assert!(r.analysis.nodes > 3_000, "{} nodes", r.analysis.nodes);
    let rate = r.analysis.starttls_seen as f64 / r.analysis.nodes as f64;
    assert!(rate > 0.95, "STARTTLS visibility {rate:.3}");
}

#[test]
fn stripping_isps_are_recovered() {
    let r = run();
    let isps: Vec<&str> = r
        .analysis
        .stripping_ases
        .iter()
        .map(|row| row.isp.as_str())
        .collect();
    // Three ISPs were planted with strippers.
    for want in ["Globe Telecom", "Meditelecom", "Telkom Indonesia"] {
        assert!(isps.contains(&want), "{want} missing from {isps:?}");
    }
    // And nothing else qualifies.
    for isp in &isps {
        assert!(
            ["Globe Telecom", "Meditelecom", "Telkom Indonesia"].contains(isp),
            "false positive: {isp}"
        );
    }
}

#[test]
fn stripping_matches_ground_truth_per_node() {
    let r = run();
    for obs in &r.data.observations {
        let node = r
            .built
            .world
            .node_ids()
            .find(|id| r.built.world.node(*id).zid == obs.zid)
            .expect("zid resolves");
        let planted = r.built.truth.smtp_stripped.contains(&node);
        let observed_missing = !obs.result.capabilities.starttls;
        assert_eq!(
            planted, observed_missing,
            "node {} planted={planted} observed_missing={observed_missing}",
            obs.zid
        );
    }
}

#[test]
fn clean_paths_complete_the_tls_upgrade() {
    let r = run();
    let upgraded = r
        .data
        .observations
        .iter()
        .filter(|o| o.result.tls_chain.is_some())
        .count();
    assert!(
        upgraded > 0 && upgraded == r.analysis.starttls_seen - r.analysis.upgrade_refused,
        "upgraded={upgraded} seen={} refused={}",
        r.analysis.starttls_seen,
        r.analysis.upgrade_refused
    );
    // Upgraded chains validate against the public store.
    let now = r.built.world.now();
    for obs in r
        .data
        .observations
        .iter()
        .filter(|o| o.result.tls_chain.is_some())
    {
        let chain = obs.result.tls_chain.as_ref().unwrap();
        assert!(
            tft::certs::verify_chain(chain, &obs.mail_host, now, &r.built.world.root_store).is_ok(),
            "mail chain for {} should validate",
            obs.mail_host
        );
    }
    // Upgrades share the mail site's chain: every upgrade to one host
    // records the same allocation, not a copy of it.
    let mut chains: HashMap<&str, &Arc<[Certificate]>> = HashMap::new();
    let mut repeats = 0;
    for obs in &r.data.observations {
        let Some(chain) = &obs.result.tls_chain else {
            continue;
        };
        match chains.entry(&obs.mail_host) {
            Entry::Occupied(first) => {
                assert!(
                    Arc::ptr_eq(first.get(), chain),
                    "two upgrades to {} hold separate chains",
                    obs.mail_host
                );
                repeats += 1;
            }
            Entry::Vacant(slot) => {
                slot.insert(chain);
            }
        }
    }
    assert!(repeats > 0, "no mail host was upgraded twice");
}

#[test]
fn render_mentions_stripping_ases() {
    let r = run();
    let text = tft::tft_core::analysis::smtp::render(&r.analysis);
    assert!(text.contains("STARTTLS stripping"));
    assert!(text.contains("Globe Telecom"));
}

/// A relay's exit link answers to the world's fault campaign, the same
/// check a proxied GET or CONNECT makes: under a global outage every relay
/// fails, each attempt dropped on the link or refused by an offline node.
#[test]
fn outage_campaign_fails_every_relay() {
    use tft::netsim::{FaultCampaign, FaultProfile, FaultRule, FaultScope};
    use tft::proxynet::AttemptOutcome;

    let mut built = build(&worldgen::smoke_spec(0x5A7F));
    built
        .world
        .set_fault_campaign(FaultCampaign::none().with_rule(FaultRule {
            scope: FaultScope::all(),
            window: None,
            profile: FaultProfile::Outage,
        }));
    let host = built
        .world
        .mail_hosts()
        .min()
        .expect("the smoke world runs mail servers")
        .to_string();
    let target = built.world.mail_site_address(&host).expect("registered");
    for session in 0..20 {
        let opts = UsernameOptions::new("smtp-outage").session(session);
        match built.world.vpn_relay_smtp(&opts, target) {
            Err(ProxyError::AllRetriesFailed(debug)) => {
                assert!(!debug.attempts.is_empty());
                assert!(debug.attempts.iter().all(|a| matches!(
                    a.outcome,
                    AttemptOutcome::Flaked | AttemptOutcome::Offline
                )));
            }
            other => panic!("relay {session} got through a global outage: {other:?}"),
        }
    }
}

/// A stalled relay burns the request budget, as a stalled GET or CONNECT
/// does: under a campaign that stalls every exit link, no relay gets
/// through, each attempt times out (or finds its node offline or flaky),
/// and the client gives up once the 20 s budget is spent.
#[test]
fn stall_campaign_fails_every_relay() {
    use tft::netsim::{FaultCampaign, FaultInjector};
    use tft::proxynet::{AttemptOutcome, DEFAULT_REQUEST_DEADLINE};

    let mut built = build(&worldgen::smoke_spec(0x5A7F));
    built
        .world
        .set_fault_campaign(FaultCampaign::uniform(FaultInjector {
            stall_chance: 1.0,
            ..FaultInjector::none()
        }));
    let host = built
        .world
        .mail_hosts()
        .min()
        .expect("the smoke world runs mail servers")
        .to_string();
    let target = built.world.mail_site_address(&host).expect("registered");
    let mut timed_out = 0;
    for session in 0..20 {
        let before = built.world.now();
        let opts = UsernameOptions::new("smtp-stall").session(session);
        let debug = match built.world.vpn_relay_smtp(&opts, target) {
            Err(ProxyError::DeadlineExceeded(debug)) => {
                assert!(built.world.now() >= before + DEFAULT_REQUEST_DEADLINE);
                timed_out += 1;
                debug
            }
            Err(ProxyError::AllRetriesFailed(debug)) => debug,
            other => panic!("relay {session} got through a stalled link: {other:?}"),
        };
        assert!(!debug.attempts.is_empty());
        assert!(debug.attempts.iter().all(|a| matches!(
            a.outcome,
            AttemptOutcome::TimedOut | AttemptOutcome::Offline | AttemptOutcome::Flaked
        )));
    }
    assert!(timed_out > 0, "no relay reached an online node");
}
