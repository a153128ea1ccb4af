//! Content-monitoring analysis (§7.2): entity attribution by source AS,
//! refetch-delay distributions (Figure 5), VPN detection, and ISP-level
//! monitoring shares.

use crate::config::StudyConfig;
use crate::obs::MonitorDataset;
use inetdb::{Asn, CountryCode};
use netsim::Cdf;
use proxynet::{World, ZId};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One monitoring entity (Table 9 row).
#[derive(Debug, Clone)]
pub struct EntityRow {
    /// Entity name, from the organization owning the refetch sources.
    pub name: String,
    /// Distinct refetch source addresses.
    pub source_ips: usize,
    /// Monitored exit nodes.
    pub nodes: usize,
    /// Distinct monitored-node ASes.
    pub node_ases: usize,
    /// Distinct monitored-node countries.
    pub node_countries: usize,
    /// Signed refetch delays in seconds (refetch − own request; negative =
    /// fetched before the user's request, Bluecoat-style).
    pub delays_secs: Vec<f64>,
    /// Typical unexpected requests per monitored node.
    pub requests_per_node: f64,
    /// All monitored nodes share the entity's own organization (ISP-level
    /// monitoring, §7.2.2).
    pub isp_level: bool,
    /// Share of the ISP's measured nodes that are monitored (only
    /// meaningful when `isp_level`).
    pub isp_share: f64,
    /// Monitored nodes whose own requests arrived from the entity's
    /// network instead of their reported address (VPN routing, AnchorFree).
    pub vpn_nodes: usize,
}

impl EntityRow {
    /// Fraction of refetches arriving before the user's own request.
    pub fn prefetch_fraction(&self) -> f64 {
        if self.delays_secs.is_empty() {
            return 0.0;
        }
        self.delays_secs.iter().filter(|d| **d < 0.0).count() as f64 / self.delays_secs.len() as f64
    }

    /// CDF over the positive delays (the Figure 5 curve).
    pub fn delay_cdf(&self) -> Option<Cdf> {
        let pos: Vec<f64> = self
            .delays_secs
            .iter()
            .copied()
            .filter(|d| *d > 0.0)
            .collect();
        if pos.is_empty() {
            None
        } else {
            Some(Cdf::new(pos))
        }
    }
}

/// Full monitoring analysis output.
#[derive(Debug, Default)]
pub struct MonitorAnalysis {
    /// Nodes measured.
    pub nodes: usize,
    /// Distinct node ASes.
    pub ases: usize,
    /// Distinct node countries.
    pub countries: usize,
    /// Nodes with at least one unexpected request.
    pub monitored_nodes: usize,
    /// Distinct unexpected-request source addresses.
    pub unexpected_sources: usize,
    /// Source-AS groups.
    pub source_as_groups: usize,
    /// Entity rows, most monitored nodes first (Table 9).
    pub entities: Vec<EntityRow>,
}

/// The §7.1 discovery observation: during *earlier* experiments, some
/// unique probe domains received more requests than the one our client
/// issued — that anomaly is how the paper found content monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoveryScan {
    /// Unique probe domains seen in the log.
    pub probe_domains: usize,
    /// Domains with requests from more than one source address.
    pub multi_source_domains: usize,
}

/// Scan a web log for the §7.1 anomaly across domains matching
/// `is_probe_host` (e.g. the DNS experiment's `d1-*` names).
pub fn discovery_scan<'a>(
    log: impl Iterator<Item = &'a proxynet::WebLogEntry>,
    is_probe_host: impl Fn(&str) -> bool,
) -> DiscoveryScan {
    let mut sources: BTreeMap<&str, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    for e in log {
        if is_probe_host(&e.host) {
            sources.entry(&e.host).or_default().insert(e.src);
        }
    }
    DiscoveryScan {
        probe_domains: sources.len(),
        multi_source_domains: sources.values().filter(|s| s.len() > 1).count(),
    }
}

/// Run the analysis.
pub fn analyze(data: &MonitorDataset, world: &World, _cfg: &StudyConfig) -> MonitorAnalysis {
    let reg = &world.registry;
    let mut out = MonitorAnalysis {
        nodes: data.observations.len(),
        ..Default::default()
    };
    let mut node_ases: BTreeSet<Asn> = BTreeSet::new();
    let mut node_countries: BTreeSet<CountryCode> = BTreeSet::new();
    let mut all_sources: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut source_ases: BTreeSet<Asn> = BTreeSet::new();
    // Measured nodes per organization (for the ISP-share denominators).
    let mut measured_per_org: BTreeMap<u32, usize> = BTreeMap::new();

    struct EntityAgg {
        name: String,
        org: u32,
        sources: BTreeSet<Ipv4Addr>,
        nodes: BTreeSet<ZId>,
        node_ases: BTreeSet<Asn>,
        node_countries: BTreeSet<CountryCode>,
        node_orgs: BTreeSet<u32>,
        delays: Vec<f64>,
        requests: usize,
        vpn_nodes: usize,
    }
    let mut entities: BTreeMap<u32, EntityAgg> = BTreeMap::new();

    for obs in &data.observations {
        let node_asn = reg.ip_to_asn(obs.reported_exit_ip).unwrap_or(Asn(0));
        let node_cc = reg.country_of_ip(obs.reported_exit_ip);
        node_ases.insert(node_asn);
        if let Some(cc) = node_cc {
            node_countries.insert(cc);
        }
        let node_org = reg.org_of_ip(obs.reported_exit_ip).map(|o| o.id.0);
        if let Some(org) = node_org {
            *measured_per_org.entry(org).or_insert(0) += 1;
        }
        if obs.unexpected.is_empty() {
            continue;
        }
        out.monitored_nodes += 1;
        // VPN detection: the node's own request reached us from an address
        // other than the one the proxy service reports (§7.2.1).
        let vpn_org = obs.own_request.as_ref().and_then(|own| {
            if own.src != obs.reported_exit_ip {
                reg.org_of_ip(own.src).map(|o| o.id.0)
            } else {
                None
            }
        });
        for e in &obs.unexpected {
            all_sources.insert(e.src);
            if let Some(asn) = reg.ip_to_asn(e.src) {
                source_ases.insert(asn);
            }
            let Some(org) = reg.org_of_ip(e.src) else {
                continue;
            };
            let agg = entities.entry(org.id.0).or_insert_with(|| EntityAgg {
                name: org.name.trim_end_matches(" Infrastructure").to_string(),
                org: org.id.0,
                sources: BTreeSet::new(),
                nodes: BTreeSet::new(),
                node_ases: BTreeSet::new(),
                node_countries: BTreeSet::new(),
                node_orgs: BTreeSet::new(),
                delays: Vec::new(),
                requests: 0,
                vpn_nodes: 0,
            });
            agg.sources.insert(e.src);
            agg.requests += 1;
            let newly = agg.nodes.insert(obs.zid);
            agg.node_ases.insert(node_asn);
            if let Some(cc) = node_cc {
                agg.node_countries.insert(cc);
            }
            if let Some(org) = node_org {
                agg.node_orgs.insert(org);
            }
            if newly && vpn_org == Some(agg.org) {
                agg.vpn_nodes += 1;
            }
            if let Some(own) = &obs.own_request {
                let delay_ms = e.at.as_millis() as f64 - own.at.as_millis() as f64;
                agg.delays.push(delay_ms / 1000.0);
            }
        }
    }
    out.ases = node_ases.len();
    out.countries = node_countries.len();
    out.unexpected_sources = all_sources.len();
    out.source_as_groups = source_ases.len();

    out.entities = entities
        .into_values()
        .map(|a| {
            let isp_level = a.node_orgs.len() == 1 && a.node_orgs.contains(&a.org);
            let isp_share = if isp_level {
                let measured = measured_per_org.get(&a.org).copied().unwrap_or(0);
                if measured > 0 {
                    a.nodes.len() as f64 / measured as f64
                } else {
                    0.0
                }
            } else {
                0.0
            };
            EntityRow {
                name: a.name,
                source_ips: a.sources.len(),
                nodes: a.nodes.len(),
                node_ases: a.node_ases.len(),
                node_countries: a.node_countries.len(),
                requests_per_node: a.requests as f64 / a.nodes.len().max(1) as f64,
                delays_secs: a.delays,
                isp_level,
                isp_share,
                vpn_nodes: a.vpn_nodes,
            }
        })
        .collect();
    out.entities
        .sort_by(|a, b| b.nodes.cmp(&a.nodes).then(a.name.cmp(&b.name)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MonitorObservation;
    use crate::report::figures::demo_world;
    use netsim::SimTime;
    use proxynet::WebLogEntry;

    fn entry(at_ms: u64, src: Ipv4Addr, host: &str, ua: Option<&str>) -> WebLogEntry {
        WebLogEntry {
            at: SimTime::from_millis(at_ms),
            src,
            host: host.into(),
            path: "/".into(),
            user_agent: ua.map(Into::into),
        }
    }

    #[test]
    fn entity_grouping_and_delays() {
        let world = demo_world();
        let monitor_src = world.monitor_entities()[0].source_ips[0];
        let node = world.node(proxynet::NodeId(1));
        let data = MonitorDataset {
            observations: vec![MonitorObservation {
                zid: node.zid,
                reported_exit_ip: node.ip,
                domain: "m1.tft-probe.example".into(),
                own_request: Some(entry(
                    1_000,
                    node.ip,
                    "m1.tft-probe.example",
                    Some("Hola/1.108"),
                )),
                unexpected: vec![
                    entry(
                        31_000,
                        monitor_src,
                        "m1.tft-probe.example",
                        Some("DemoAV/1.0"),
                    ),
                    entry(
                        500_000,
                        monitor_src,
                        "m1.tft-probe.example",
                        Some("DemoAV/1.0"),
                    ),
                ],
            }],
            samples_issued: 1,
            quality: Default::default(),
        };
        let cfg = crate::config::StudyConfig::default();
        let a = analyze(&data, &world, &cfg);
        assert_eq!(a.monitored_nodes, 1);
        assert_eq!(a.entities.len(), 1);
        let e = &a.entities[0];
        assert_eq!(e.name, "Demo AV Cloud");
        assert_eq!(e.nodes, 1);
        assert_eq!(e.source_ips, 1);
        assert_eq!(e.delays_secs.len(), 2);
        assert!((e.delays_secs[0] - 30.0).abs() < 1e-9);
        assert!((e.delays_secs[1] - 499.0).abs() < 1e-9);
        assert_eq!(e.requests_per_node, 2.0);
        assert!(!e.isp_level);
        assert_eq!(e.vpn_nodes, 0);
    }

    #[test]
    fn prefetch_counts_negative_delays() {
        let world = demo_world();
        let monitor_src = world.monitor_entities()[0].source_ips[0];
        let node = world.node(proxynet::NodeId(1));
        let data = MonitorDataset {
            observations: vec![MonitorObservation {
                zid: node.zid,
                reported_exit_ip: node.ip,
                domain: "m2.tft-probe.example".into(),
                own_request: Some(entry(
                    10_000,
                    node.ip,
                    "m2.tft-probe.example",
                    Some("Hola/1.108"),
                )),
                unexpected: vec![
                    entry(9_500, monitor_src, "m2.tft-probe.example", None),
                    entry(40_000, monitor_src, "m2.tft-probe.example", None),
                ],
            }],
            samples_issued: 1,
            quality: Default::default(),
        };
        let cfg = crate::config::StudyConfig::default();
        let a = analyze(&data, &world, &cfg);
        let e = &a.entities[0];
        assert!((e.prefetch_fraction() - 0.5).abs() < 1e-9);
        let cdf = e.delay_cdf().expect("one positive delay");
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn unmonitored_nodes_produce_no_entities() {
        let world = demo_world();
        let node = world.node(proxynet::NodeId(0));
        let data = MonitorDataset {
            observations: vec![MonitorObservation {
                zid: node.zid,
                reported_exit_ip: node.ip,
                domain: "m3.tft-probe.example".into(),
                own_request: Some(entry(
                    1_000,
                    node.ip,
                    "m3.tft-probe.example",
                    Some("Hola/1.108"),
                )),
                unexpected: vec![],
            }],
            samples_issued: 1,
            quality: Default::default(),
        };
        let cfg = crate::config::StudyConfig::default();
        let a = analyze(&data, &world, &cfg);
        assert_eq!(a.monitored_nodes, 0);
        assert!(a.entities.is_empty());
    }

    #[test]
    fn discovery_scan_counts_multi_source_domains() {
        let src_a = Ipv4Addr::new(10, 0, 0, 1);
        let src_b = Ipv4Addr::new(10, 0, 0, 2);
        let log = [
            entry(1, src_a, "d1-1.x", None),
            entry(2, src_a, "d1-2.x", None),
            entry(3, src_b, "d1-2.x", None),
            entry(4, src_a, "other.example", None),
            entry(5, src_b, "other.example", None),
        ];
        let scan = discovery_scan(log.iter(), |h| h.starts_with("d1-"));
        assert_eq!(scan.probe_domains, 2);
        assert_eq!(scan.multi_source_domains, 1);
    }
}
