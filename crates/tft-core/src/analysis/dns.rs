//! DNS hijacking analysis (§4.2–§4.4): country ratios, ISP-resolver
//! identification, public-resolver identification, and content-based
//! attribution for Google-DNS users.

use crate::config::StudyConfig;
use crate::obs::{DnsDataset, DnsOutcome};
use inetdb::{Asn, CountryCode};
use middlebox::{extract_urls, url_domain};
use proxynet::World;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// A resolver counts as hijacking when at least this share of the nodes
/// using it saw their NXDOMAIN answers hijacked (§4.3: 90%). The SMTP
/// analysis applies the same share to an AS's stripped relays.
pub(crate) const HIJACKING_SERVER_SHARE: f64 = 0.9;

/// One Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct CountryRow {
    /// Country code.
    pub country: CountryCode,
    /// Hijacked nodes.
    pub hijacked: usize,
    /// Measured nodes.
    pub total: usize,
}

impl CountryRow {
    /// Hijack ratio.
    pub fn ratio(&self) -> f64 {
        self.hijacked as f64 / self.total as f64
    }
}

/// One hijacking ISP aggregated over its resolvers (Table 4 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IspRow {
    /// Country of the ISP's registration.
    pub country: CountryCode,
    /// ISP (organization) name.
    pub isp: String,
    /// Hijacking resolver addresses.
    pub servers: usize,
    /// Exit nodes behind them.
    pub nodes: usize,
}

/// One hijacked-content domain (Table 5 row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRow {
    /// Domain appearing in hijack-page URLs.
    pub domain: String,
    /// Nodes that received content linking to it.
    pub nodes: usize,
    /// Distinct node ASes.
    pub ases: usize,
    /// Distinct node countries.
    pub countries: usize,
    /// Heuristic: spread across many ASes/countries ⇒ end-host software
    /// rather than an ISP (the shaded rows of Table 5).
    pub likely_endhost: bool,
}

/// A hijacking public resolver service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicServiceRow {
    /// Operator (from the address's BGP-prefix owner).
    pub operator: String,
    /// Hijacking server addresses.
    pub servers: usize,
    /// Nodes using them.
    pub nodes: usize,
}

/// An AS whose nodes overwhelmingly use Google DNS (footnote 9: the paper
/// found 91 such ASes, e.g. OPT Benin at 99.1%).
#[derive(Debug, Clone, PartialEq)]
pub struct GoogleDominantAs {
    /// The AS.
    pub asn: Asn,
    /// Operating organization.
    pub org: String,
    /// Nodes measured in the AS.
    pub nodes: usize,
    /// Share of them configured with Google DNS.
    pub google_share: f64,
}

/// A family of hijack pages sharing identical JavaScript across multiple
/// ISPs — evidence of a common vendor appliance (§4.3.1 found five ISPs
/// with "nearly identical JavaScript code").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedJsFamily {
    /// Stable hash of the normalized script.
    pub script_hash: u64,
    /// ISPs serving it, sorted.
    pub isps: Vec<String>,
    /// Hijacked nodes that received it.
    pub nodes: usize,
}

/// Attribution of hijacked nodes to their source class (§4.4).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Hijacked behind identified ISP resolvers.
    pub isp: usize,
    /// Hijacked behind identified public resolvers.
    pub public: usize,
    /// Hijacked some other way (path middleboxes, end-host software).
    pub other: usize,
}

impl Attribution {
    /// Total attributed nodes.
    pub fn total(&self) -> usize {
        self.isp + self.public + self.other
    }

    /// Shares `(isp, public, other)`.
    pub fn shares(&self) -> (f64, f64, f64) {
        let t = self.total().max(1) as f64;
        (
            self.isp as f64 / t,
            self.public as f64 / t,
            self.other as f64 / t,
        )
    }
}

/// Full DNS analysis output.
#[derive(Debug, Default)]
pub struct DnsAnalysis {
    /// Nodes measured.
    pub nodes: usize,
    /// Distinct resolver addresses observed.
    pub resolvers: usize,
    /// Nodes with hijacked NXDOMAIN.
    pub hijacked: usize,
    /// Distinct node ASes.
    pub ases: usize,
    /// Distinct node countries.
    pub countries: usize,
    /// Country table (≥ threshold), sorted by ratio descending.
    pub by_country: Vec<CountryRow>,
    /// ISP-provided resolvers identified.
    pub isp_resolvers_total: usize,
    /// …of which had enough nodes to analyze.
    pub isp_resolvers_qualified: usize,
    /// …of which hijack ≥ the share threshold.
    pub isp_resolvers_hijacking: usize,
    /// Hijacking ISPs aggregated (Table 4).
    pub isp_rows: Vec<IspRow>,
    /// Public resolvers identified (used from >2 countries).
    pub public_resolvers_total: usize,
    /// Hijacking public services (Table 5-adjacent, §4.3.2).
    pub public_services: Vec<PublicServiceRow>,
    /// Nodes using Google DNS.
    pub google_nodes: usize,
    /// …of which still received hijacked responses.
    pub google_hijacked: usize,
    /// Domains extracted from those nodes' hijack pages (Table 5).
    pub google_domains: Vec<DomainRow>,
    /// ASes whose nodes overwhelmingly use Google DNS (footnote 9).
    pub google_dominant_ases: Vec<GoogleDominantAs>,
    /// Hijack-page JavaScript families served by more than one ISP
    /// (vendor-appliance evidence, §4.3.1).
    pub shared_js_families: Vec<SharedJsFamily>,
    /// Source attribution (§4.4).
    pub attribution: Attribution,
}

/// Normalize a hijack page's inline JavaScript for cross-ISP comparison:
/// URLs and probe-specific names are replaced by placeholders so that two
/// deployments of the same vendor appliance hash identically while bespoke
/// implementations do not.
pub fn normalize_hijack_js(content: &[u8]) -> Option<String> {
    let text = String::from_utf8_lossy(content);
    let start = text.find("<script")?;
    let body_start = text[start..].find('>')? + start + 1;
    let end = text[body_start..].find("</script>")? + body_start;
    let script = &text[body_start..end];
    let mut out = String::with_capacity(script.len());
    let mut rest = script;
    // Strip every quoted string (they carry the per-ISP redirect target and
    // the per-probe domain); keep the code skeleton.
    while let Some(q) = rest.find('\'') {
        out.push_str(&rest[..q]);
        out.push_str("'§'");
        let after = &rest[q + 1..];
        match after.find('\'') {
            Some(close) => rest = &after[close + 1..],
            None => {
                rest = "";
                break;
            }
        }
    }
    out.push_str(rest);
    Some(out)
}

fn in_google_anycast(ip: Ipv4Addr) -> bool {
    let o = ip.octets();
    o[0] == 74 && o[1] == 125
}

/// Run the analysis.
pub fn analyze(data: &DnsDataset, world: &World, cfg: &StudyConfig) -> DnsAnalysis {
    let reg = &world.registry;
    let mut out = DnsAnalysis {
        nodes: data.observations.len(),
        ..Default::default()
    };

    // ---- per-resolver grouping -----------------------------------------
    struct ResolverGroup {
        nodes: usize,
        hijacked: usize,
        node_orgs: BTreeSet<u32>,
        node_countries: BTreeSet<CountryCode>,
    }
    let mut groups: BTreeMap<Ipv4Addr, ResolverGroup> = BTreeMap::new();
    let mut node_ases: BTreeSet<Asn> = BTreeSet::new();
    let mut node_countries: BTreeSet<CountryCode> = BTreeSet::new();
    let mut country_counts: BTreeMap<CountryCode, (usize, usize)> = BTreeMap::new();

    for obs in &data.observations {
        let hijacked = matches!(obs.outcome, DnsOutcome::Hijacked { .. });
        if hijacked {
            out.hijacked += 1;
        }
        if let Some(asn) = reg.ip_to_asn(obs.node_ip) {
            node_ases.insert(asn);
        }
        let cc = reg.country_of_ip(obs.node_ip).unwrap_or(obs.country);
        node_countries.insert(cc);
        let entry = country_counts.entry(cc).or_insert((0, 0));
        entry.1 += 1;
        if hijacked {
            entry.0 += 1;
        }
        let g = groups.entry(obs.resolver_ip).or_insert(ResolverGroup {
            nodes: 0,
            hijacked: 0,
            node_orgs: BTreeSet::new(),
            node_countries: BTreeSet::new(),
        });
        g.nodes += 1;
        if hijacked {
            g.hijacked += 1;
        }
        if let Some(org) = reg.org_of_ip(obs.node_ip) {
            g.node_orgs.insert(org.id.0);
        }
        g.node_countries.insert(cc);
    }
    out.resolvers = groups.len();
    out.ases = node_ases.len();
    out.countries = node_countries.len();

    // ---- Table 3: countries ----------------------------------------------
    out.by_country = country_counts
        .into_iter()
        .filter(|(_, (_, total))| *total >= cfg.min_nodes_per_country)
        .map(|(country, (hijacked, total))| CountryRow {
            country,
            hijacked,
            total,
        })
        .collect();
    out.by_country
        .sort_by(|a, b| b.ratio().partial_cmp(&a.ratio()).expect("finite ratios"));

    // ---- resolver classification -------------------------------------------
    let mut hijacking_isp_servers: BTreeMap<u32, (String, CountryCode, usize, usize)> =
        BTreeMap::new();
    let mut hijacking_public: BTreeMap<u32, (String, usize, usize)> = BTreeMap::new();
    let mut isp_server_set: BTreeSet<Ipv4Addr> = BTreeSet::new();
    let mut public_server_set: BTreeSet<Ipv4Addr> = BTreeSet::new();

    for (&ip, g) in &groups {
        if in_google_anycast(ip) {
            continue;
        }
        let resolver_org = reg.org_of_ip(ip);
        let is_isp_provided = resolver_org
            .map(|org| g.node_orgs.len() == 1 && g.node_orgs.contains(&org.id.0))
            .unwrap_or(false);
        if is_isp_provided {
            out.isp_resolvers_total += 1;
            if g.nodes >= cfg.min_nodes_per_dns_server {
                out.isp_resolvers_qualified += 1;
                if g.hijacked as f64 >= HIJACKING_SERVER_SHARE * g.nodes as f64 {
                    out.isp_resolvers_hijacking += 1;
                    isp_server_set.insert(ip);
                    let org = resolver_org.expect("checked above");
                    let e = hijacking_isp_servers.entry(org.id.0).or_insert((
                        org.name.clone(),
                        org.country,
                        0,
                        0,
                    ));
                    e.2 += 1;
                    e.3 += g.nodes;
                }
            }
            continue;
        }
        // Public: used from more than two countries (§4.3.2).
        if g.nodes >= cfg.min_nodes_per_dns_server && g.node_countries.len() > 2 {
            out.public_resolvers_total += 1;
            if g.hijacked as f64 >= HIJACKING_SERVER_SHARE * g.nodes as f64 {
                public_server_set.insert(ip);
                let operator = reg
                    .org_of_ip(ip)
                    .map(|o| o.name.clone())
                    .unwrap_or_else(|| "unknown".into());
                let key = fnv(&operator);
                let e = hijacking_public.entry(key).or_insert((operator, 0, 0));
                e.1 += 1;
                e.2 += g.nodes;
            }
        }
    }
    out.isp_rows = hijacking_isp_servers
        .into_values()
        .map(|(isp, country, servers, nodes)| IspRow {
            country,
            isp,
            servers,
            nodes,
        })
        .collect();
    out.isp_rows
        .sort_by(|a, b| (a.country, &a.isp).cmp(&(b.country, &b.isp)));
    out.public_services = hijacking_public
        .into_values()
        .map(|(operator, servers, nodes)| PublicServiceRow {
            operator,
            servers,
            nodes,
        })
        .collect();
    out.public_services
        .sort_by(|a, b| b.nodes.cmp(&a.nodes).then(a.operator.cmp(&b.operator)));

    // ---- Google-DNS users and content attribution (§4.3.3) -----------------
    struct DomainAgg {
        nodes: usize,
        ases: BTreeSet<Asn>,
        countries: BTreeSet<CountryCode>,
    }
    let mut domains: BTreeMap<String, DomainAgg> = BTreeMap::new();
    for obs in &data.observations {
        if !in_google_anycast(obs.resolver_ip) {
            continue;
        }
        out.google_nodes += 1;
        let DnsOutcome::Hijacked { content } = &obs.outcome else {
            continue;
        };
        out.google_hijacked += 1;
        let mut seen_here: BTreeSet<String> = BTreeSet::new();
        for url in extract_urls(content) {
            if let Some(domain) = url_domain(&url) {
                if !seen_here.insert(domain.clone()) {
                    continue;
                }
                let agg = domains.entry(domain).or_insert(DomainAgg {
                    nodes: 0,
                    ases: BTreeSet::new(),
                    countries: BTreeSet::new(),
                });
                agg.nodes += 1;
                if let Some(asn) = reg.ip_to_asn(obs.node_ip) {
                    agg.ases.insert(asn);
                }
                agg.countries
                    .insert(reg.country_of_ip(obs.node_ip).unwrap_or(obs.country));
            }
        }
    }
    out.google_domains = domains
        .into_iter()
        .filter(|(_, a)| a.nodes >= cfg.min_nodes_per_domain)
        .map(|(domain, a)| DomainRow {
            domain,
            nodes: a.nodes,
            ases: a.ases.len(),
            countries: a.countries.len(),
            // ISP hijacks concentrate in a couple of ASes; end-host
            // software spreads wide.
            likely_endhost: a.ases.len() >= 5 && a.countries.len() >= 3,
        })
        .collect();
    out.google_domains
        .sort_by(|a, b| b.nodes.cmp(&a.nodes).then_with(|| a.domain.cmp(&b.domain)));

    // ---- Google-dominant ASes (footnote 9) ----------------------------------
    let mut per_as_google: BTreeMap<Asn, (usize, usize)> = BTreeMap::new();
    for obs in &data.observations {
        if let Some(asn) = reg.ip_to_asn(obs.node_ip) {
            let e = per_as_google.entry(asn).or_insert((0, 0));
            e.1 += 1;
            if in_google_anycast(obs.resolver_ip) {
                e.0 += 1;
            }
        }
    }
    out.google_dominant_ases = per_as_google
        .into_iter()
        .filter(|(_, (_, total))| *total >= cfg.min_nodes_per_dns_server)
        .filter(|(_, (g, total))| *g as f64 / *total as f64 >= 0.8)
        .map(|(asn, (g, total))| GoogleDominantAs {
            asn,
            org: reg
                .asn_to_org(asn)
                .map(|o| o.name.clone())
                .unwrap_or_else(|| "unknown".into()),
            nodes: total,
            google_share: g as f64 / total as f64,
        })
        .collect();

    // ---- shared-JavaScript families (§4.3.1) ---------------------------------
    struct JsFamilyAgg {
        isps: BTreeSet<String>,
        nodes: usize,
    }
    let mut js_families: BTreeMap<u64, JsFamilyAgg> = BTreeMap::new();
    for obs in &data.observations {
        let DnsOutcome::Hijacked { content } = &obs.outcome else {
            continue;
        };
        let Some(normalized) = normalize_hijack_js(content) else {
            continue;
        };
        // Attribute the page to the hijacking party's organization — the
        // resolver's owner when identifiable, else the node's ISP.
        let isp = reg
            .org_of_ip(obs.resolver_ip)
            .or_else(|| reg.org_of_ip(obs.node_ip))
            .map(|o| o.name.clone())
            .unwrap_or_else(|| "unknown".into());
        let agg = js_families
            .entry(substrate::hash::pinned_fnv64(normalized.as_bytes()))
            .or_insert(JsFamilyAgg {
                isps: BTreeSet::new(),
                nodes: 0,
            });
        agg.isps.insert(isp);
        agg.nodes += 1;
    }
    out.shared_js_families = js_families
        .into_iter()
        .filter(|(_, a)| a.isps.len() >= 2)
        .map(|(script_hash, a)| {
            let mut isps: Vec<String> = a.isps.into_iter().collect();
            isps.sort();
            SharedJsFamily {
                script_hash,
                isps,
                nodes: a.nodes,
            }
        })
        .collect();
    out.shared_js_families
        .sort_by(|a, b| b.isps.len().cmp(&a.isps.len()).then(b.nodes.cmp(&a.nodes)));

    // ---- attribution (§4.4) -------------------------------------------------
    for obs in &data.observations {
        if !matches!(obs.outcome, DnsOutcome::Hijacked { .. }) {
            continue;
        }
        if isp_server_set.contains(&obs.resolver_ip) {
            out.attribution.isp += 1;
        } else if public_server_set.contains(&obs.resolver_ip) {
            out.attribution.public += 1;
        } else {
            out.attribution.other += 1;
        }
    }
    out
}

fn fnv(s: &str) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in s.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::DnsObservation;
    use crate::report::figures::demo_world;
    use proxynet::ResolverChoice;

    /// Build a dataset from the demo world's ground truth: every node
    /// observed once, hijacked iff its resolver hijacks.
    fn dataset(world: &proxynet::World) -> DnsDataset {
        let mut data = DnsDataset::default();
        for id in world.node_ids() {
            let node = world.node(id);
            let (resolver_ip, hijacker) = match node.resolver {
                ResolverChoice::Isp(ip) | ResolverChoice::Public(ip) => {
                    (ip, world.resolver_def(ip).and_then(|d| d.hijacker.clone()))
                }
                ResolverChoice::GoogleDns => (std::net::Ipv4Addr::new(74, 125, 0, 9), None),
            };
            let outcome = match hijacker {
                Some(h) => DnsOutcome::Hijacked {
                    content: h.hijack_page("probe.tft-probe.example"),
                },
                None => DnsOutcome::NotHijacked,
            };
            data.observations.push(DnsObservation {
                zid: node.zid,
                node_ip: node.ip,
                resolver_ip,
                country: node.country,
                outcome,
            });
        }
        data
    }

    fn cfg() -> StudyConfig {
        StudyConfig {
            min_nodes_per_country: 1,
            min_nodes_per_dns_server: 1,
            min_nodes_per_domain: 1,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn hijacking_resolver_is_classified_as_isp_provided() {
        let world = demo_world();
        let analysis = analyze(&dataset(&world), &world, &cfg());
        assert_eq!(analysis.nodes, 4);
        assert_eq!(analysis.hijacked, 2, "both MY nodes are hijacked");
        assert_eq!(analysis.isp_resolvers_hijacking, 1);
        assert_eq!(analysis.isp_rows.len(), 1);
        assert_eq!(analysis.isp_rows[0].isp, "Assist ISP");
        assert_eq!(analysis.isp_rows[0].nodes, 2);
        // Attribution: both hijacks belong to the identified ISP server.
        assert_eq!(analysis.attribution.isp, 2);
        assert_eq!(analysis.attribution.public, 0);
        assert_eq!(analysis.attribution.other, 0);
    }

    #[test]
    fn country_rows_sorted_by_ratio() {
        let world = demo_world();
        let analysis = analyze(&dataset(&world), &world, &cfg());
        assert_eq!(analysis.by_country[0].country, CountryCode::new("MY"));
        assert!((analysis.by_country[0].ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hijack_content_urls_surface_in_domains_only_for_google_nodes() {
        let world = demo_world();
        // The demo world has no Google-DNS nodes, so the Table 5 section
        // stays empty even though hijacks exist.
        let analysis = analyze(&dataset(&world), &world, &cfg());
        assert_eq!(analysis.google_nodes, 0);
        assert!(analysis.google_domains.is_empty());
    }

    #[test]
    fn js_normalization_strips_quoted_strings() {
        let page = br#"<html><script>var r00ff='http://a.example?domain=x';window.location=r00ff;</script></html>"#;
        let normalized = normalize_hijack_js(page).expect("script found");
        assert!(!normalized.contains("a.example"));
        assert!(normalized.contains("r00ff"), "{normalized}");
    }

    #[test]
    fn attribution_shares_sum_to_one() {
        let a = Attribution {
            isp: 7,
            public: 2,
            other: 1,
        };
        let (i, p, o) = a.shares();
        assert!((i + p + o - 1.0).abs() < 1e-12);
        assert_eq!(a.total(), 10);
    }
}
