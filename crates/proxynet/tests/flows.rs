//! End-to-end tests of the proxy flows against a hand-built mini-world.

use certs::{DistinguishedName, RootStore};
use dnswire::{server::inetdb_net::Net, AnswerOverride, DnsName};
use httpwire::{Response, StatusCode, Uri};
use inetdb::{CountryCode, InternetRegistry};
use middlebox::{
    monitor::profiles, HijackVector, InvalidCertPolicy, JsFamily, MonitorEntity, NxdomainHijacker,
    Selectivity, SourcePattern, TlsInterceptor,
};
use netsim::{SimDuration, SimRng, SimTime};
use proxynet::{
    AttemptOutcome, ExitNode, NodeId, Platform, ProxyError, ResolverChoice, ResolverDef,
    UsernameOptions, World,
};
use std::net::Ipv4Addr;

fn cc(s: &str) -> CountryCode {
    CountryCode::new(s)
}

fn name(s: &str) -> DnsName {
    DnsName::parse(s).unwrap()
}

/// A small world: one US ISP with a clean resolver, one MY ISP whose
/// resolver hijacks NXDOMAIN, our measurement servers, and a handful of
/// nodes.
struct Mini {
    world: World,
    clean_resolver: Ipv4Addr,
    hijack_resolver: Ipv4Addr,
    landing_ip: Ipv4Addr,
}

fn mini_world() -> Mini {
    let mut reg = InternetRegistry::new();
    let google = reg.register_org("Google", cc("US"));
    let ganet = inetdb::GOOGLE_ANYCAST_NET.parse().unwrap();
    let gasn = reg.register_as_with_prefix(google, ganet);

    let us_org = reg.register_org("CleanNet US", cc("US"));
    let us_asn = reg.register_as(us_org, 1);
    let my_org = reg.register_org("TMnet", cc("MY"));
    let my_asn = reg.register_as(my_org, 1);
    let meas_org = reg.register_org("Measurement Lab", cc("US"));
    let meas_asn = reg.register_as(meas_org, 1);

    let clean_resolver = reg.alloc_ip(us_asn);
    let hijack_resolver = reg.alloc_ip(my_asn);
    let landing_ip = reg.alloc_ip(my_asn);
    let web_ip = reg.alloc_ip(meas_asn);
    let anycast: Vec<Ipv4Addr> = (0..4).map(|_| reg.alloc_ip(gasn)).collect();

    let node_ips: Vec<(Ipv4Addr, inetdb::Asn, &str)> = vec![
        (reg.alloc_ip(us_asn), us_asn, "US"),
        (reg.alloc_ip(us_asn), us_asn, "US"),
        (reg.alloc_ip(my_asn), my_asn, "MY"),
        (reg.alloc_ip(my_asn), my_asn, "MY"),
    ];
    reg.snapshot_rib();

    let mut rng = SimRng::new(77);
    let (roots, _cas) = RootStore::os_x_like(5, SimTime::EPOCH, &mut rng);
    let mut world = World::new(42, name("tft-probe.example"), web_ip, anycast, reg, roots);

    world.add_resolver(ResolverDef {
        ip: clean_resolver,
        asn: us_asn,
        hijacker: None,
    });
    let hijacker = NxdomainHijacker::new(
        HijackVector::IspResolver,
        vec!["http://midascdn.nervesis.example/assist".into()],
        landing_ip,
        JsFamily::Custom,
    );
    world.add_resolver(ResolverDef {
        ip: hijack_resolver,
        asn: my_asn,
        hijacker: Some(hijacker.clone()),
    });
    world.add_landing(landing_ip, hijacker);

    for (i, (ip, asn, country)) in node_ips.into_iter().enumerate() {
        let resolver = if country == "US" {
            ResolverChoice::Isp(clean_resolver)
        } else {
            ResolverChoice::Isp(hijack_resolver)
        };
        world.add_node(ExitNode::new(
            NodeId(i as u32),
            ip,
            asn,
            cc(country),
            Platform::Windows,
            resolver,
        ));
    }
    Mini {
        world,
        clean_resolver,
        hijack_resolver,
        landing_ip,
    }
}

/// Provision d1 (resolves for everyone) and d2 (NXDOMAIN except to the
/// super proxy's Google resolver) exactly as §4.1 describes.
fn provision_probe_pair(world: &mut World, tag: &str) -> (String, String) {
    let d1 = format!("d1-{tag}.tft-probe.example");
    let d2 = format!("d2-{tag}.tft-probe.example");
    let web_ip = world.web_ip();
    let zone = world.auth_server_mut().zone_mut();
    zone.add_a(name(&d1), web_ip);
    zone.add_a(name(&d2), web_ip);
    world.auth_server_mut().set_override(
        name(&d2),
        AnswerOverride::NxdomainUnlessFrom(vec![Net::new(Ipv4Addr::new(74, 125, 0, 0), 16)]),
    );
    world.web_server_mut().put(
        &d1,
        "/",
        Response::ok("text/html", b"<html>probe</html>".to_vec()),
    );
    world.web_server_mut().put(
        &d2,
        "/",
        Response::ok("text/html", b"<html>probe</html>".to_vec()),
    );
    (d1, d2)
}

#[test]
fn d1_reveals_exit_node_resolver_and_ip() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "a");
    let opts = UsernameOptions::new("lab")
        .country(cc("US"))
        .session(1)
        .dns_remote();
    let resp = m
        .world
        .proxy_get(&opts, &Uri::http(&d1, "/"))
        .expect("d1 fetch succeeds");
    assert_eq!(resp.status, StatusCode::OK);
    assert_eq!(resp.body, b"<html>probe</html>");
    let zid = *resp.debug.final_zid().unwrap();

    // Our DNS log shows two queries: the super proxy's (from Google
    // anycast) and the exit node's resolver.
    let dname = name(&d1);
    let sources: Vec<Ipv4Addr> = m
        .world
        .auth_server()
        .queries_for(&dname)
        .map(|q| q.src)
        .collect();
    assert_eq!(sources.len(), 2);
    assert_eq!(sources[0], m.world.super_proxy_dns_src());
    assert_eq!(sources[1], m.clean_resolver);

    // Our web log shows the exit node's IP.
    let hits: Vec<_> = m.world.web_server().requests_for_host(&d1).collect();
    assert_eq!(hits.len(), 1);
    let node_ip = hits[0].src;
    let gt_node = m
        .world
        .node_ids()
        .map(|id| m.world.node(id))
        .find(|n| n.ip == node_ip)
        .expect("observed IP belongs to a node");
    assert_eq!(&gt_node.zid, &zid);
    assert_eq!(gt_node.country, cc("US"));
}

#[test]
fn d2_unhijacked_node_reports_dns_error() {
    let mut m = mini_world();
    let (d1, d2) = provision_probe_pair(&mut m.world, "b");
    let opts = UsernameOptions::new("lab")
        .country(cc("US"))
        .session(7)
        .dns_remote();
    let first = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let zid1 = *first.debug.final_zid().unwrap();

    match m.world.proxy_get(&opts, &Uri::http(&d2, "/")) {
        Err(ProxyError::ExitDnsFailure(debug)) => {
            // Same session → same exit node, and the failure is attributed
            // to it in the timeline.
            assert_eq!(debug.final_zid().unwrap(), &zid1);
            assert_eq!(
                debug.attempts.last().unwrap().outcome,
                AttemptOutcome::DnsError
            );
        }
        other => panic!("expected ExitDnsFailure, got {other:?}"),
    }
    // The exit node's resolver *did* query us and got NXDOMAIN.
    let srcs: Vec<Ipv4Addr> = m
        .world
        .auth_server()
        .queries_for(&name(&d2))
        .map(|q| q.src)
        .collect();
    assert!(srcs.contains(&m.clean_resolver));
}

#[test]
fn d2_hijacked_node_returns_assist_content() {
    let mut m = mini_world();
    let (d1, d2) = provision_probe_pair(&mut m.world, "c");
    let opts = UsernameOptions::new("lab")
        .country(cc("MY"))
        .session(9)
        .dns_remote();
    m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let resp = m
        .world
        .proxy_get(&opts, &Uri::http(&d2, "/"))
        .expect("hijacked fetch yields content, not an error");
    assert_eq!(resp.status, StatusCode::OK);
    let urls = middlebox::extract_urls(&resp.body);
    assert!(
        urls.iter().any(|u| u.contains("midascdn.nervesis.example")),
        "hijack page links to the assist service, got {urls:?}"
    );
    let _ = m.hijack_resolver;
    let _ = m.landing_ip;
}

#[test]
fn super_proxy_refuses_unresolvable_domains() {
    let mut m = mini_world();
    // d2-style name without the super-proxy exemption: NXDOMAIN for all.
    let d = "never-provisioned.tft-probe.example";
    let opts = UsernameOptions::new("lab").dns_remote();
    assert_eq!(
        m.world.proxy_get(&opts, &Uri::http(d, "/")).err(),
        Some(ProxyError::SuperProxyDnsFailure)
    );
}

#[test]
fn session_pins_same_node_within_ttl_and_expires() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "d");
    let opts = UsernameOptions::new("lab").country(cc("US")).session(42);
    let a = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let b = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    assert_eq!(a.debug.final_zid(), b.debug.final_zid());

    // After 60+ seconds of inactivity the pin is gone; with only two US
    // nodes the new pick may coincide, so instead assert the table forgot.
    m.world.advance(SimDuration::from_secs(61));
    let c = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    assert!(c.debug.final_zid().is_some());
}

#[test]
fn offline_node_triggers_retry_with_debug_trail() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "e");
    // Pin a session to a node, then take it offline.
    let opts = UsernameOptions::new("lab").country(cc("US")).session(5);
    let first = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let zid1 = *first.debug.final_zid().unwrap();
    let node_id = m
        .world
        .node_ids()
        .find(|id| m.world.node(*id).zid == zid1)
        .unwrap();
    m.world.node_mut(node_id).online = false;

    let second = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    assert!(
        second.debug.attempts.len() >= 2,
        "expected a retry trail, got {:?}",
        second.debug
    );
    assert_eq!(second.debug.attempts[0].zid, zid1);
    assert_eq!(second.debug.attempts[0].outcome, AttemptOutcome::Offline);
    assert_eq!(
        second.debug.attempts.last().unwrap().outcome,
        AttemptOutcome::Success
    );
    assert_ne!(second.debug.final_zid().unwrap(), &zid1);
}

#[test]
fn country_selection_is_honored() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "f");
    for _ in 0..10 {
        let opts = UsernameOptions::new("lab").country(cc("MY"));
        let resp = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
        let zid = *resp.debug.final_zid().unwrap();
        let node = m
            .world
            .node_ids()
            .map(|id| m.world.node(id))
            .find(|n| n.zid == zid)
            .unwrap();
        assert_eq!(node.country, cc("MY"));
    }
}

#[test]
fn unknown_country_yields_no_exit() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "g");
    let opts = UsernameOptions::new("lab").country(cc("JP"));
    assert_eq!(
        m.world.proxy_get(&opts, &Uri::http(&d1, "/")).err(),
        Some(ProxyError::NoExitAvailable)
    );
}

#[test]
fn billing_accumulates_body_bytes() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "h");
    let opts = UsernameOptions::new("payer").country(cc("US"));
    assert_eq!(m.world.bytes_billed("payer"), 0);
    m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    assert_eq!(
        m.world.bytes_billed("payer"),
        b"<html>probe</html>".len() as u64
    );
}

#[test]
fn connect_restricted_to_port_443() {
    let mut m = mini_world();
    let opts = UsernameOptions::new("lab");
    assert_eq!(
        m.world
            .proxy_connect_tls(&opts, Ipv4Addr::new(1, 2, 3, 4), 80, "x")
            .err(),
        Some(ProxyError::PortNotAllowed(80))
    );
}

#[test]
fn tls_interception_replaces_chain_only_on_infected_nodes() {
    let mut m = mini_world();
    // Build an HTTPS origin site signed by a public root.
    let mut rng = SimRng::new(9);
    let now = m.world.now();
    let (roots2, mut cas) = RootStore::os_x_like(1, SimTime::EPOCH, &mut rng);
    // Merge the extra CA into the world's store by re-creating the world is
    // overkill; instead sign with a CA whose root we add to a fresh store.
    let leaf = cas[0].issue_leaf("top1.us.example", now, &mut rng);
    let chain = vec![leaf, cas[0].cert.clone()];
    let site_ip = Ipv4Addr::new(198, 51, 100, 44);
    m.world.add_origin_site(proxynet::OriginSite {
        host: "top1.us.example".into(),
        ip: site_ip,
        http_body: b"<html>top</html>".to_vec(),
        chain: chain.clone().into(),
        chain_valid: true,
    });
    let _ = roots2;

    // Clean node first.
    let opts = UsernameOptions::new("lab").country(cc("US")).session(77);
    let clean = m
        .world
        .proxy_connect_tls(&opts, site_ip, 443, "top1.us.example")
        .unwrap();
    assert_eq!(
        clean.chain[0].fingerprint(),
        chain[0].fingerprint(),
        "clean node passes the original chain"
    );
    assert!(
        std::ptr::eq(
            &*clean.chain,
            m.world.expected_chain("top1.us.example").unwrap()
        ),
        "an untouched handshake shares the site's chain instead of copying it"
    );

    // Infect every US node with a Kaspersky-style interceptor.
    let ids: Vec<NodeId> = m.world.node_ids().collect();
    for id in ids {
        if m.world.node(id).country == cc("US") {
            let mut r = SimRng::new(1000 + id.0 as u64);
            let mitm = TlsInterceptor::new(
                DistinguishedName::cn("Kaspersky Anti-Virus Personal Root"),
                true,
                InvalidCertPolicy::SpoofSameIssuer,
                false,
                Selectivity::All,
                now,
                &mut r,
            );
            m.world.node_mut(id).software.tls_interceptor = Some(mitm);
        }
    }
    let seen = m
        .world
        .proxy_connect_tls(&opts, site_ip, 443, "top1.us.example")
        .unwrap();
    assert_eq!(
        seen.chain[0].issuer.common_name,
        "Kaspersky Anti-Virus Personal Root"
    );
    assert_eq!(seen.chain[0].subject.common_name, "top1.us.example");
    let site_chain = m.world.expected_chain("top1.us.example").unwrap();
    assert!(
        !std::ptr::eq(&*seen.chain, site_chain),
        "an interceptor's replacement is a chain of its own"
    );
    assert_eq!(
        site_chain,
        chain.as_slice(),
        "interception leaves the site's chain unchanged"
    );
}

#[test]
fn shards_cloned_without_evidence_hand_back_all_of_theirs() {
    // The live world already holds evidence, as it does after a study.
    let mut live = mini_world().world;
    let (d1, _) = provision_probe_pair(&mut live, "live");
    let opts = UsernameOptions::new("lab").country(cc("US")).session(1);
    live.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    assert!(!live.web_server().log().is_empty());
    assert!(!live.auth_server().log().is_empty());
    assert!(live.bytes_billed("lab") > 0);
    assert!(live.is_idle(), "advancing the live clock must fire nothing");

    let (web_live, auth_live) = (
        live.web_server().log().to_vec(),
        live.auth_server().log().to_vec(),
    );
    let lab_live = live.bytes_billed("lab");
    let buffers = (
        live.web_server().log().as_ptr(),
        live.auth_server().log().as_ptr(),
    );
    let base = live.clone_without_evidence();
    assert!(base.web_server().log().is_empty());
    assert!(base.auth_server().log().is_empty());
    assert_eq!(base.bytes_billed("lab"), 0);
    assert_eq!(base.now(), live.now());
    assert_eq!(
        (
            live.web_server().log().as_ptr(),
            live.auth_server().log().as_ptr()
        ),
        buffers,
        "the live logs move out and back, never copied"
    );
    assert_eq!(live.web_server().log(), web_live.as_slice());
    assert_eq!(live.auth_server().log(), auth_live.as_slice());
    assert_eq!(live.bytes_billed("lab"), lab_live);

    let mut forks = Vec::new();
    for (k, country) in ["US", "MY"].into_iter().enumerate() {
        let mut fork = base.clone();
        let (d1, _) = provision_probe_pair(&mut fork, &format!("fork{k}"));
        for session in 0..=k as u64 {
            let opts = UsernameOptions::new("lab")
                .country(cc(country))
                .session(10 + session);
            fork.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
        }
        if k == 1 {
            // A customer only this fork bills: absorbing it adds a ledger key.
            let opts = UsernameOptions::new("other").country(cc(country));
            fork.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
        } else {
            // The first fork finishes last, so absorbing the second must not
            // move the clock back.
            fork.advance(SimDuration::from_secs(90));
        }
        assert!(!fork.web_server().log().is_empty());
        assert!(!fork.auth_server().log().is_empty());
        forks.push(fork);
    }

    // The expected state: the live logs, then each fork's whole logs.
    let (mut web, mut auth) = (web_live, auth_live);
    for fork in &forks {
        web.extend_from_slice(fork.web_server().log());
        auth.extend_from_slice(fork.auth_server().log());
    }
    let billed = |customer: &str| {
        live.bytes_billed(customer) + forks.iter().map(|f| f.bytes_billed(customer)).sum::<u64>()
    };
    let (lab, other) = (billed("lab"), billed("other"));
    assert!(lab > lab_live && other > 0);
    let latest = forks.iter().map(World::now).max().unwrap();
    assert_eq!(latest, forks[0].now());

    for fork in forks {
        live.absorb_evidence(fork.into_evidence());
    }
    assert_eq!(live.web_server().log(), web.as_slice());
    assert_eq!(live.auth_server().log(), auth.as_slice());
    assert_eq!(live.bytes_billed("lab"), lab);
    assert_eq!(live.bytes_billed("other"), other);
    assert_eq!(live.now(), latest);
}

#[test]
fn monitor_refetches_arrive_in_web_log_after_window() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "i");
    let monitor_src = Ipv4Addr::new(203, 0, 113, 99);
    let idx = m.world.add_monitor(MonitorEntity {
        name: "TrendMicro".into(),
        source_ips: vec![monitor_src],
        source_pattern: SourcePattern::AnyFromPool,
        model: profiles::trend_micro(),
        user_agent: "TMWRS/5.0".into(),
    });
    // Attach to all US nodes.
    let ids: Vec<NodeId> = m.world.node_ids().collect();
    for id in ids {
        if m.world.node(id).country == cc("US") {
            m.world.node_mut(id).software.monitors.push(idx);
        }
    }
    let opts = UsernameOptions::new("lab").country(cc("US"));
    m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let before = m.world.web_server().requests_for_host(&d1).count();
    assert_eq!(before, 1, "only the node's own request so far");

    m.world.run_to_quiescence();
    let log: Vec<_> = m
        .world
        .web_server()
        .requests_for_host(&d1)
        .cloned()
        .collect();
    assert_eq!(log.len(), 3, "TrendMicro makes two unexpected requests");
    let unexpected: Vec<_> = log.iter().filter(|e| e.src == monitor_src).collect();
    assert_eq!(unexpected.len(), 2);
    assert_eq!(unexpected[0].user_agent.as_deref(), Some("TMWRS/5.0"));
    // Delays match the TrendMicro envelope.
    let t_user = log[0].at;
    let d1ms = unexpected[0].at.since(t_user).as_millis();
    let d2ms = unexpected[1].at.since(t_user).as_millis();
    assert!((12_000..=121_000).contains(&d1ms), "first delay {d1ms}");
    assert!(
        (200_000..=12_501_000).contains(&d2ms),
        "second delay {d2ms}"
    );
}

#[test]
fn vpn_nodes_hide_their_ip_from_origins() {
    let mut m = mini_world();
    let (d1, _) = provision_probe_pair(&mut m.world, "j");
    let egress: Vec<Ipv4Addr> = (1..=3).map(|i| Ipv4Addr::new(192, 0, 2, i)).collect();
    let ids: Vec<NodeId> = m.world.node_ids().collect();
    for id in &ids {
        if m.world.node(*id).country == cc("US") {
            m.world.node_mut(*id).software.vpn_egress = Some(egress.clone());
        }
    }
    let opts = UsernameOptions::new("lab").country(cc("US"));
    m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
    let hit = m.world.web_server().requests_for_host(&d1).next().unwrap();
    assert!(
        egress.contains(&hit.src),
        "origin sees a VPN egress address, saw {}",
        hit.src
    );
}

#[test]
fn deterministic_across_identical_worlds() {
    let run = || {
        let mut m = mini_world();
        let (d1, d2) = provision_probe_pair(&mut m.world, "k");
        let opts = UsernameOptions::new("lab")
            .country(cc("MY"))
            .session(3)
            .dns_remote();
        let r1 = m.world.proxy_get(&opts, &Uri::http(&d1, "/")).unwrap();
        let r2 = m.world.proxy_get(&opts, &Uri::http(&d2, "/")).unwrap();
        (*r1.debug.final_zid().unwrap(), r2.body, m.world.now())
    };
    assert_eq!(run(), run());
}
