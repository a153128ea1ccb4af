//! Chaos campaigns against the full pipeline: scripted corruption must
//! never fabricate violations, damaged evidence must land in quarantine,
//! and the data-quality annex must account for every probe the study lost.
//!
//! This is the robustness counterpart of `negative_control.rs`: same clean
//! world, but with a corruption- and truncation-only fault campaign
//! running over every exit-node link.

use std::net::Ipv4Addr;
use std::sync::OnceLock;

use tft::netsim::{FaultCampaign, FaultInjector, FaultProfile, FaultRule, FaultScope};
use tft::prelude::*;
use tft::proxynet::{AttemptOutcome, DEFAULT_REQUEST_DEADLINE};
use tft::tft_core::obs::DnsOutcome;
use tft::worldgen::{chaos_corruption_spec, smoke_spec};

struct Run {
    report: StudyReport,
    cfg: StudyConfig,
}

fn run() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| {
        let scale = 0.004;
        let mut built = build(&chaos_corruption_spec(scale, 0xC405));
        let cfg = StudyConfig::scaled(scale);
        let report = run_study(&mut built.world, &cfg);
        Run { report, cfg }
    })
}

// -- the chaos negative control -------------------------------------------

#[test]
fn corruption_campaign_fabricates_no_violations() {
    let r = run();
    assert_eq!(r.report.dns.hijacked, 0);
    assert!(r
        .report
        .dns_data
        .observations
        .iter()
        .all(|o| matches!(o.outcome, DnsOutcome::NotHijacked)));
    assert_eq!(r.report.http.html_modified, 0);
    assert_eq!(r.report.http.image_modified, 0);
    assert!(r.report.http.signatures.is_empty());
    assert_eq!(r.report.https.replaced_nodes, 0);
    assert!(r.report.https.issuers.is_empty());
    assert_eq!(r.report.monitor.monitored_nodes, 0);
    assert!(r.report.monitor.entities.is_empty());
}

#[test]
fn corruption_campaign_still_measures_a_population() {
    let r = run();
    assert!(r.report.dns.nodes > 1_000, "{}", r.report.dns.nodes);
    assert!(r.report.https.nodes > 500, "{}", r.report.https.nodes);
}

#[test]
fn damaged_evidence_is_quarantined_not_analyzed() {
    let r = run();
    // The campaign corrupts and truncates 6% of deliveries each, so the
    // HTTP experiment must have quarantined a visible amount of evidence.
    let http = r.report.http_data.quality.totals();
    assert!(
        http.in_quarantine() > 0,
        "a 12% corruption campaign quarantined nothing"
    );
    assert!(http.truncated > 0, "truncations must be classified as such");
    assert!(
        http.quarantined > 0,
        "corruptions must fail the refetch check"
    );

    // Every quarantined object result carries no modified body, so the
    // analysis layer (which keys off `modified_body`) cannot see it.
    let mut retained = 0usize;
    for obs in &r.report.http_data.observations {
        for res in &obs.results {
            if res.quarantine.is_some() {
                retained += 1;
                assert!(res.modified_body.is_none());
                assert!(!res.is_modified());
            }
        }
    }
    assert!(
        retained > 0,
        "quarantined results should remain visible as data"
    );
    // The ledger counts every quarantined fetch, including ones whose
    // observation was later discarded (churn, duplicates): it can only be
    // larger than what the retained observations show.
    assert!(http.in_quarantine() >= retained);
}

#[test]
fn quality_ledger_accounts_for_losses_in_every_experiment() {
    let r = run();
    // Monitoring is the exception on loss: corrupted bait payloads still
    // deliver, and monitor detection watches the web-server log rather
    // than payload integrity, so its ledger stays loss-free here.
    for (name, q, expect_loss) in [
        ("dns", &r.report.dns_data.quality, true),
        ("http", &r.report.http_data.quality, true),
        ("https", &r.report.https_data.quality, true),
        ("monitoring", &r.report.monitor_data.quality, false),
    ] {
        let t = q.totals();
        assert!(t.total() > 0, "{name}: no dispositions recorded");
        assert!(t.delivered() > 0, "{name}: nothing delivered");
        if expect_loss {
            assert!(
                t.lost() > 0,
                "{name}: a 12% corruption campaign must cost some probes"
            );
        }
    }
}

#[test]
fn annex_accounts_for_every_quarantined_probe() {
    let r = run();
    let annex = render_annex(&r.report, &r.cfg);
    assert!(annex.contains("Annex A"), "{annex}");
    for (section, q) in [
        ("DNS", &r.report.dns_data.quality),
        ("HTTP", &r.report.http_data.quality),
        ("HTTPS", &r.report.https_data.quality),
        ("monitoring", &r.report.monitor_data.quality),
    ] {
        assert!(
            annex.contains(section),
            "missing section {section}\n{annex}"
        );
        let n = q.totals().in_quarantine();
        if n > 0 {
            let line =
                format!("quarantined evidence excluded from violation analysis: {n} probe(s)");
            assert!(annex.contains(&line), "missing {line:?} in\n{annex}");
        }
    }
}

// -- one attempt path for every flow ---------------------------------------

/// The three flows the super proxy carries.
#[derive(Clone, Copy, Debug)]
enum Flow {
    Get,
    Connect,
    Smtp,
}

/// Where each flow goes: a probe host on the study's own web server, a
/// ranked HTTPS site, and a mail server.
struct Targets {
    get: String,
    connect: Ipv4Addr,
    smtp: Ipv4Addr,
}

impl Targets {
    fn in_smoke_world(world: &mut World) -> Targets {
        let get = register_probe_host(world, "parity-probe");
        let site = world
            .rankings
            .top_sites(CountryCode::new("AA"), 1)
            .expect("the smoke world ranks AA sites")[0]
            .clone();
        let mail = world
            .mail_hosts()
            .min()
            .expect("the smoke world runs mail servers")
            .to_string();
        Targets {
            get,
            connect: world.site_address(&site).expect("ranked site"),
            smtp: world.mail_site_address(&mail).expect("registered"),
        }
    }
}

impl Flow {
    /// Send one request of this flow.
    fn send(
        self,
        world: &mut World,
        opts: &UsernameOptions,
        to: &Targets,
    ) -> Result<(), ProxyError> {
        match self {
            Flow::Get => world.proxy_get(opts, &Uri::http(&to.get, "/")).map(drop),
            Flow::Connect => world
                .proxy_connect_tls(opts, to.connect, 443, "parity.example")
                .map(drop),
            Flow::Smtp => world.vpn_relay_smtp(opts, to.smtp).map(drop),
        }
    }
}

/// What the world scripts for one row of the parity table.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Case {
    /// A global outage: every exit link drops.
    Outage,
    /// Every exit link stalls.
    Stall,
    /// The target address has no listener (CONNECT and SMTP only).
    NoListener,
}

/// Run `flow` under `case` in a fresh smoke world; `Err` says how it
/// departed from the attempt path every flow shares.
fn check_flow(case: Case, flow: Flow) -> Result<(), String> {
    let mut built = build(&smoke_spec(0x5A7F));
    let world = &mut built.world;
    let mut to = Targets::in_smoke_world(world);
    match case {
        Case::Outage => world.set_fault_campaign(FaultCampaign::none().with_rule(FaultRule {
            scope: FaultScope::all(),
            window: None,
            profile: FaultProfile::Outage,
        })),
        Case::Stall => world.set_fault_campaign(FaultCampaign::uniform(FaultInjector {
            stall_chance: 1.0,
            ..FaultInjector::none()
        })),
        Case::NoListener => {
            to.connect = NO_LISTENER;
            to.smtp = NO_LISTENER;
        }
    }
    world.set_tracing(true);
    let opts = UsernameOptions::new("parity").session(1);
    let start = world.now();
    let got = flow.send(world, &opts, &to);
    let end = world.now();
    // The last attempt's trace line (the client's own line when the flow
    // logs none per attempt).
    let last_event = world.trace().events().last().map_or(start, |e| e.at);
    match (case, got) {
        (Case::Outage, Err(ProxyError::AllRetriesFailed(debug))) => {
            if debug.attempts.is_empty()
                || !debug
                    .attempts
                    .iter()
                    .all(|a| matches!(a.outcome, AttemptOutcome::Flaked | AttemptOutcome::Offline))
            {
                return Err(format!("attempts {debug:?} under an outage"));
            }
            if end <= last_event {
                return Err(format!(
                    "the clock stayed at {} ms, not past the last attempt at {} ms",
                    end.as_millis(),
                    last_event.as_millis()
                ));
            }
        }
        (Case::Stall, Err(ProxyError::DeadlineExceeded(_))) => {
            if end < start + DEFAULT_REQUEST_DEADLINE {
                return Err(format!(
                    "gave up {} after the request started, before the deadline",
                    end.since(start)
                ));
            }
        }
        (Case::NoListener, Err(ProxyError::ConnectionRefused)) => {
            if end <= start {
                return Err("the clock did not move on a refused connection".into());
            }
        }
        (_, other) => return Err(format!("ended in {other:?}")),
    }
    Ok(())
}

/// An address no site or mail server listens on (RFC 5737 TEST-NET-1).
const NO_LISTENER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);

/// A GET, a CONNECT and an SMTP relay share one attempt path: the same
/// outage, stall or missing listener ends each the same way,
/// with the clock where the client stops waiting.
#[test]
fn every_flow_takes_the_same_attempt_path() {
    let mut failures = Vec::new();
    for case in [Case::Outage, Case::Stall, Case::NoListener] {
        for flow in [Flow::Get, Flow::Connect, Flow::Smtp] {
            if case == Case::NoListener && matches!(flow, Flow::Get) {
                continue;
            }
            if let Err(why) = check_flow(case, flow) {
                failures.push(format!("{case:?}/{flow:?}: {why}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Register `host` on the study's own web server so `proxy_get` has a
/// destination, mirroring the `fault_tolerance.rs` setup.
fn register_probe_host(world: &mut World, label: &str) -> String {
    let apex = world.auth_apex().clone();
    let name = apex.child(label).expect("valid label");
    let host = name.to_string();
    let web_ip = world.web_ip();
    world.auth_server_mut().zone_mut().add_a(name, web_ip);
    world.web_server_mut().put(
        &host,
        "/",
        tft::httpwire::Response::ok("text/html", b"chaos probe".to_vec()),
    );
    host
}

#[test]
fn stalls_burn_the_request_deadline() {
    let mut built = build(&smoke_spec(0x57A1));
    let host = register_probe_host(&mut built.world, "stall-probe");
    built
        .world
        .set_fault_campaign(FaultCampaign::uniform(FaultInjector {
            stall_chance: 1.0,
            ..FaultInjector::none()
        }));

    let before = built.world.now();
    let opts = UsernameOptions::new("chaos-test").session(1);
    match built.world.proxy_get(&opts, &Uri::http(&host, "/")) {
        Err(ProxyError::DeadlineExceeded(debug)) => {
            assert!(!debug.attempts.is_empty());
            assert!(debug
                .attempts
                .iter()
                .all(|a| a.outcome == AttemptOutcome::TimedOut));
        }
        other => panic!("a permanently stalled link must hit the deadline, got {other:?}"),
    }
    // The stalled wait consumed the whole 20 s budget in virtual time.
    assert!(built.world.now() >= before + DEFAULT_REQUEST_DEADLINE);
}
