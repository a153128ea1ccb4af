//! Figure renderers.
//!
//! Figures 1–4 are request timelines; they are regenerated as event traces
//! from a small demonstration world. Figure 5 is the refetch-delay CDF,
//! rendered as an ASCII plot plus the underlying data series.

use crate::analysis::monitor::MonitorAnalysis;
use dnswire::{server::inetdb_net::Net, AnswerOverride, DnsName};
use httpwire::{Response, Uri};
use inetdb::{CountryCode, InternetRegistry};
use middlebox::{
    monitor::profiles, HijackVector, InvalidCertPolicy, JsFamily, MonitorEntity, NxdomainHijacker,
    Selectivity, SourcePattern, TlsInterceptor,
};
use netsim::{SimRng, SimTime};
use proxynet::{
    ExitNode, NodeId, OriginSite, Platform, ResolverChoice, ResolverDef, UsernameOptions, World,
};
use std::fmt::Write as _;
use std::net::Ipv4Addr;

/// A minimal deterministic world for the timeline figures: one clean node,
/// one hijacked node, one TLS-intercepted node, one monitored node.
pub fn demo_world() -> World {
    let mut reg = InternetRegistry::new();
    let google = reg.register_org("Google", CountryCode::new("US"));
    let gasn = reg.register_as_with_prefix(google, inetdb::GOOGLE_ANYCAST_NET.parse().unwrap());
    let isp_org = reg.register_org("Demo ISP", CountryCode::new("US"));
    let isp_asn = reg.register_as(isp_org, 1);
    let hij_org = reg.register_org("Assist ISP", CountryCode::new("MY"));
    let hij_asn = reg.register_as(hij_org, 1);
    let lab_org = reg.register_org("Measurement Lab", CountryCode::new("US"));
    let lab_asn = reg.register_as(lab_org, 1);
    let mon_org = reg.register_org("Demo AV Cloud", CountryCode::new("US"));
    let mon_asn = reg.register_as(mon_org, 1);
    let host_org = reg.register_org("Hosting", CountryCode::new("US"));
    let host_asn = reg.register_as(host_org, 1);

    let web_ip = reg.alloc_ip(lab_asn);
    let anycast = vec![reg.alloc_ip(gasn), reg.alloc_ip(gasn)];
    let clean_resolver = reg.alloc_ip(isp_asn);
    let hij_resolver = reg.alloc_ip(hij_asn);
    let landing_ip = reg.alloc_ip(hij_asn);
    let monitor_ip = reg.alloc_ip(mon_asn);
    let site_ip = reg.alloc_ip(host_asn);
    let node_ips: Vec<Ipv4Addr> = (0..4)
        .map(|i| {
            if i < 2 {
                reg.alloc_ip(isp_asn)
            } else {
                reg.alloc_ip(hij_asn)
            }
        })
        .collect();
    reg.snapshot_rib();

    let mut rng = SimRng::new(0xF1);
    let (roots, mut cas) = certs::RootStore::os_x_like(3, SimTime::EPOCH, &mut rng);
    let mut world = World::new(
        0xF16,
        DnsName::parse("tft-probe.example").expect("valid"),
        web_ip,
        anycast,
        reg,
        roots,
    );
    world.add_resolver(ResolverDef {
        ip: clean_resolver,
        asn: isp_asn,
        hijacker: None,
    });
    let hijacker = NxdomainHijacker::new(
        HijackVector::IspResolver,
        vec!["http://assist.demo.example".into()],
        landing_ip,
        JsFamily::Custom,
    );
    world.add_resolver(ResolverDef {
        ip: hij_resolver,
        asn: hij_asn,
        hijacker: Some(hijacker.clone()),
    });
    world.add_landing(landing_ip, hijacker);

    let leaf = cas[0].issue_leaf("demo-site.example", SimTime::EPOCH, &mut rng);
    world.add_origin_site(OriginSite {
        host: "demo-site.example".into(),
        ip: site_ip,
        http_body: b"<html>demo</html>".to_vec(),
        chain: vec![leaf, cas[0].cert.clone()].into(),
        chain_valid: true,
    });

    let monitor = world.add_monitor(MonitorEntity {
        name: "Demo AV Cloud".into(),
        source_ips: vec![monitor_ip],
        source_pattern: SourcePattern::AnyFromPool,
        model: profiles::trend_micro(),
        user_agent: "DemoAV/1.0".into(),
    });

    for (i, ip) in node_ips.iter().enumerate() {
        let (asn, country, resolver) = if i < 2 {
            (
                isp_asn,
                CountryCode::new("US"),
                ResolverChoice::Isp(clean_resolver),
            )
        } else {
            (
                hij_asn,
                CountryCode::new("MY"),
                ResolverChoice::Isp(hij_resolver),
            )
        };
        let mut node = ExitNode::new(
            NodeId(i as u32),
            *ip,
            asn,
            country,
            Platform::Windows,
            resolver,
        );
        if i == 1 {
            node.software.monitors.push(monitor);
            let mut r = SimRng::new(0xAB + i as u64);
            node.software.tls_interceptor = Some(TlsInterceptor::new(
                certs::DistinguishedName::cn("Demo AV Shield Root"),
                true,
                InvalidCertPolicy::SpoofSameIssuer,
                false,
                Selectivity::All,
                SimTime::EPOCH,
                &mut r,
            ));
        }
        world.add_node(node);
    }
    world
}

fn provision(world: &mut World, label: &str, conditional: bool) -> String {
    let apex = world.auth_apex().clone();
    let name = apex.child(label).expect("valid label");
    let host = name.to_string();
    let web_ip = world.web_ip();
    world
        .auth_server_mut()
        .zone_mut()
        .add_a(name.clone(), web_ip);
    if conditional {
        world.auth_server_mut().set_override(
            name,
            AnswerOverride::NxdomainUnlessFrom(vec![Net::new(Ipv4Addr::new(74, 125, 0, 0), 16)]),
        );
    }
    world.web_server_mut().put(
        &host,
        "/",
        Response::ok("text/html", b"<html>fig</html>".to_vec()),
    );
    host
}

/// Figure 1: the life of one proxied request.
pub fn figure1(world: &mut World) -> String {
    world.set_tracing(true);
    world.clear_trace();
    let host = provision(world, "fig1", false);
    let opts = UsernameOptions::new("figures")
        .country(CountryCode::new("US"))
        .dns_remote();
    let _ = world.proxy_get(&opts, &Uri::http(&host, "/"));
    let out = format!(
        "Figure 1 — timeline of a request through the proxy service\n{}",
        world.trace().render_timeline()
    );
    world.set_tracing(false);
    out
}

/// Figure 2: the d₁/d₂ NXDOMAIN measurement.
pub fn figure2(world: &mut World) -> String {
    world.set_tracing(true);
    world.clear_trace();
    let d1 = provision(world, "fig2-d1", false);
    let d2 = provision(world, "fig2-d2", true);
    let opts = UsernameOptions::new("figures")
        .country(CountryCode::new("MY"))
        .session(92)
        .dns_remote();
    let _ = world.proxy_get(&opts, &Uri::http(&d1, "/"));
    let _ = world.proxy_get(&opts, &Uri::http(&d2, "/"));
    let out = format!(
        "Figure 2 — timeline of the NXDOMAIN hijack measurement (d1 then d2)\n{}",
        world.trace().render_timeline()
    );
    world.set_tracing(false);
    out
}

/// Figure 3: the two-phase certificate scan.
pub fn figure3(world: &mut World) -> String {
    world.set_tracing(true);
    world.clear_trace();
    let ip = world.site_address("demo-site.example").expect("demo site");
    let served = world
        .expected_chain("demo-site.example")
        .expect("demo site")[0]
        .fingerprint();
    // A session number names no node: the super proxy draws a fresh
    // session's exit node from the world's RNG, so which node answers
    // depends on the requests before it. Open sessions until one tunnel
    // has carried the site's own leaf and one a replaced leaf.
    let (mut clean, mut replaced) = (false, false);
    for session in 7..23 {
        let opts = UsernameOptions::new("figures")
            .country(CountryCode::new("US"))
            .session(session);
        if let Ok(probe) = world.proxy_connect_tls(&opts, ip, 443, "demo-site.example") {
            if probe.chain.first().map(|leaf| leaf.fingerprint()) == Some(served) {
                clean = true;
            } else {
                replaced = true;
            }
        }
        if clean && replaced {
            break;
        }
    }
    let out = format!(
        "Figure 3 — timeline of the certificate-replacement measurement\n{}",
        world.trace().render_timeline()
    );
    world.set_tracing(false);
    out
}

/// Figure 4: the content-monitoring measurement.
pub fn figure4(world: &mut World) -> String {
    world.set_tracing(true);
    world.clear_trace();
    let host = provision(world, "fig4", false);
    // Find the monitored node by probing sessions until refetches appear.
    for session in 0..16 {
        let opts = UsernameOptions::new("figures")
            .country(CountryCode::new("US"))
            .session(1000 + session);
        let _ = world.proxy_get(&opts, &Uri::http(&host, "/"));
    }
    world.run_to_quiescence();
    let out = format!(
        "Figure 4 — timeline of the content-monitoring measurement\n{}",
        world.trace().render_timeline()
    );
    world.set_tracing(false);
    out
}

/// Figure 5: CDF of the delay between a node's request and each unexpected
/// refetch, per entity, on a log-scaled x axis.
pub fn figure5(monitor: &MonitorAnalysis) -> String {
    let mut s =
        String::from("\nFigure 5 — CDF of refetch delay per monitoring entity (x log-scaled)\n");
    // Quantile summary.
    writeln!(
        s,
        "{:<26} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "entity", "pre%", "p10(s)", "p50(s)", "p90(s)", "max(s)"
    )
    .unwrap();
    for e in monitor.entities.iter().take(6) {
        match e.delay_cdf() {
            Some(cdf) => writeln!(
                s,
                "{:<26} {:>6.0}% {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                e.name,
                e.prefetch_fraction() * 100.0,
                cdf.quantile(0.10),
                cdf.quantile(0.50),
                cdf.quantile(0.90),
                cdf.max().unwrap_or(0.0),
            )
            .unwrap(),
            None => writeln!(s, "{:<26} all refetches preceded the request", e.name).unwrap(),
        }
    }
    // ASCII plot: 64 columns spanning 1s..20,000s log-scaled, 6 curves.
    const COLS: usize = 64;
    const ROWS: usize = 16;
    let (lo, hi) = (1.0f64, 20_000.0f64);
    let mut grid = vec![vec![b' '; COLS]; ROWS];
    let marks = [b'T', b'K', b'C', b'A', b'B', b'I'];
    let mut legend = String::new();
    for (ei, e) in monitor.entities.iter().take(6).enumerate() {
        let Some(cdf) = e.delay_cdf() else { continue };
        let base = e.prefetch_fraction();
        #[allow(clippy::needless_range_loop)] // grid is indexed by (row, col)
        for col in 0..COLS {
            let x = lo * (hi / lo).powf(col as f64 / (COLS - 1) as f64);
            // Overall CDF including the negative (prefetch) mass.
            let f = base + (1.0 - base) * cdf.fraction_at(x);
            let row = ((1.0 - f) * (ROWS - 1) as f64).round() as usize;
            if grid[row][col] == b' ' {
                grid[row][col] = marks[ei];
            }
        }
        writeln!(legend, "  {} = {}", marks[ei] as char, e.name).unwrap();
    }
    writeln!(s, "1.0 ┤").unwrap();
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            "    "
        } else if i == ROWS - 1 {
            "0.0 "
        } else {
            "    "
        };
        writeln!(s, "{label}│{}", String::from_utf8_lossy(row)).unwrap();
    }
    writeln!(s, "    └{}", "─".repeat(COLS)).unwrap();
    writeln!(s, "     1s{:>20}{:>20}{:>20}", "~30s", "~10min", "~5h").unwrap();
    s.push_str(&legend);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_pinned_abroad_exits_in_the_country_asked_for() {
        // Figure 2 pins customer `figures` session 92 on an MY node. A
        // US-scoped CONNECT on that session must leave through a US node,
        // and the session then stays pinned there.
        let mut world = demo_world();
        figure2(&mut world);
        let ip = world.site_address("demo-site.example").expect("demo site");
        let us = CountryCode::new("US");
        let opts = UsernameOptions::new("figures").country(us).session(92);
        let mut connect = || {
            world
                .proxy_connect_tls(&opts, ip, 443, "demo-site.example")
                .expect("a US node answers")
                .exit_ip
        };
        let (first, second) = (connect(), connect());
        let exit = world
            .node_ids()
            .map(|id| world.node(id))
            .find(|n| n.ip == first)
            .expect("the exit is a node");
        assert_eq!(exit.country, us, "session 92 exited at {first}");
        assert_eq!(second, first, "the session is re-pinned to the US node");
    }
}
