//! Certificate-replacement analysis (§6.2): which nodes saw replaced
//! chains, who issued the replacements, key-sharing behaviour, and the
//! invalid-certificate masking hazard.

use crate::config::StudyConfig;
use crate::obs::{HttpsDataset, SiteClass};
use certs::{exact_match, verify_chain, KeyId};
use inetdb::{Asn, CountryCode};
use proxynet::World;
use std::collections::{BTreeMap, BTreeSet};

/// One issuer row (Table 8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IssuerRow {
    /// Issuer common name on replaced certificates ("Empty" when blank).
    pub issuer: String,
    /// Nodes presenting it.
    pub nodes: usize,
    /// Nodes where every spoofed certificate carried one subject key.
    pub shared_key_nodes: usize,
    /// Nodes where an originally-invalid site came back with this same
    /// (host-trusted) issuer — the §6.2 masking hazard.
    pub masks_invalid_nodes: usize,
}

/// Full HTTPS analysis output.
#[derive(Debug, Default)]
pub struct HttpsAnalysis {
    /// Nodes measured.
    pub nodes: usize,
    /// Distinct node ASes.
    pub ases: usize,
    /// Distinct node countries.
    pub countries: usize,
    /// Nodes that saw at least one replaced certificate.
    pub replaced_nodes: usize,
    /// Nodes where some sites were replaced and others untouched
    /// (selective interception).
    pub selective_nodes: usize,
    /// Distinct issuer common names on replaced certificates.
    pub unique_issuers: usize,
    /// Issuer rows, most nodes first (Table 8).
    pub issuers: Vec<IssuerRow>,
    /// Share of ASes where more than 10% of measured nodes saw
    /// replacement (low ⇒ software, not networks, §6.2).
    pub ases_over_10pct: f64,
}

/// Run the analysis.
pub fn analyze(data: &HttpsDataset, world: &World, _cfg: &StudyConfig) -> HttpsAnalysis {
    let reg = &world.registry;
    let now = world.now();
    let mut out = HttpsAnalysis {
        nodes: data.observations.len(),
        ..Default::default()
    };
    let mut node_ases: BTreeSet<Asn> = BTreeSet::new();
    let mut node_countries: BTreeSet<CountryCode> = BTreeSet::new();
    let mut as_counts: BTreeMap<Asn, (usize, usize)> = BTreeMap::new();

    struct IssuerAgg {
        nodes: usize,
        shared_key_nodes: usize,
        masks_invalid_nodes: usize,
    }
    let mut issuers: BTreeMap<String, IssuerAgg> = BTreeMap::new();

    for obs in &data.observations {
        let asn = reg.ip_to_asn(obs.exit_ip).unwrap_or(Asn(0));
        node_ases.insert(asn);
        node_countries.insert(reg.country_of_ip(obs.exit_ip).unwrap_or(obs.country));
        let as_entry = as_counts.entry(asn).or_insert((0, 0));
        as_entry.1 += 1;

        // A probe is "replaced" when its class check fails: chain
        // validation for the public classes (the original chains are valid
        // by construction of the site population), exact identity for the
        // study's own invalid sites.
        let mut replaced_probes = Vec::new();
        let mut untouched = 0usize;
        for p in &obs.probes {
            let host = world.site_symbols.resolve(p.host);
            let replaced = match p.class {
                SiteClass::Popular | SiteClass::International => {
                    verify_chain(&p.chain, host, now, &world.root_store).is_err()
                }
                SiteClass::Invalid => {
                    let expected = world
                        .expected_chain(host)
                        .and_then(|c| c.first())
                        .expect("own site");
                    !exact_match(&p.chain, expected)
                }
            };
            if replaced {
                replaced_probes.push(p);
            } else {
                untouched += 1;
            }
        }
        if replaced_probes.is_empty() {
            continue;
        }
        out.replaced_nodes += 1;
        as_entry.0 += 1;
        if untouched > 0 {
            out.selective_nodes += 1;
        }

        // Issuer attribution: group by the leaf issuer CN.
        let mut node_issuers: BTreeSet<String> = BTreeSet::new();
        let mut keys_by_issuer: BTreeMap<String, BTreeSet<KeyId>> = BTreeMap::new();
        let mut invalid_replaced_issuers: BTreeSet<String> = BTreeSet::new();
        for p in &replaced_probes {
            let Some(leaf) = p.chain.first() else {
                continue;
            };
            let name = if leaf.issuer.common_name.is_empty() {
                "Empty".to_string()
            } else {
                leaf.issuer.common_name.clone()
            };
            node_issuers.insert(name.clone());
            keys_by_issuer
                .entry(name.clone())
                .or_default()
                .insert(leaf.subject_key);
            if p.class == SiteClass::Invalid {
                invalid_replaced_issuers.insert(name);
            }
        }
        for name in &node_issuers {
            let agg = issuers.entry(name.clone()).or_insert(IssuerAgg {
                nodes: 0,
                shared_key_nodes: 0,
                masks_invalid_nodes: 0,
            });
            agg.nodes += 1;
            let keys = &keys_by_issuer[name];
            let probes_with_issuer = replaced_probes
                .iter()
                .filter(|p| {
                    p.chain
                        .first()
                        .map(|l| {
                            let n = if l.issuer.common_name.is_empty() {
                                "Empty"
                            } else {
                                &l.issuer.common_name
                            };
                            n == name
                        })
                        .unwrap_or(false)
                })
                .count();
            if probes_with_issuer >= 2 && keys.len() == 1 {
                agg.shared_key_nodes += 1;
            }
            // Masking: the invalid site's replacement carries the *same*
            // issuer the product uses for valid sites — evidence the
            // trusted product root signs it and the browser stays silent
            // (§6.2). Products that re-sign invalid sites under a separate
            // "untrusted root" issuer are deliberately not masking.
            let valid_site_uses_issuer = replaced_probes.iter().any(|p| {
                p.class != SiteClass::Invalid
                    && p.chain
                        .first()
                        .map(|l| {
                            let n = if l.issuer.common_name.is_empty() {
                                "Empty"
                            } else {
                                &l.issuer.common_name
                            };
                            n == name
                        })
                        .unwrap_or(false)
            });
            if invalid_replaced_issuers.contains(name) && valid_site_uses_issuer {
                agg.masks_invalid_nodes += 1;
            }
        }
    }
    out.ases = node_ases.len();
    out.countries = node_countries.len();
    out.unique_issuers = issuers.len();
    out.issuers = issuers
        .into_iter()
        .map(|(issuer, a)| IssuerRow {
            issuer,
            nodes: a.nodes,
            shared_key_nodes: a.shared_key_nodes,
            masks_invalid_nodes: a.masks_invalid_nodes,
        })
        .collect();
    out.issuers
        .sort_by(|a, b| b.nodes.cmp(&a.nodes).then(a.issuer.cmp(&b.issuer)));

    let qualified: Vec<&(usize, usize)> = as_counts.values().filter(|(_, t)| *t >= 3).collect();
    if !qualified.is_empty() {
        let over = qualified
            .iter()
            .filter(|(r, t)| *r as f64 / *t as f64 > 0.10)
            .count();
        out.ases_over_10pct = over as f64 / qualified.len() as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{CertProbe, HttpsObservation};
    use crate::report::figures::demo_world;
    use certs::{CertAuthority, DistinguishedName};
    use netsim::SimRng;

    #[test]
    fn untouched_chains_are_not_flagged() {
        let world = demo_world();
        let node = world.node(proxynet::NodeId(0));
        let chain = world.expected_chain("demo-site.example").unwrap().to_vec();
        let data = HttpsDataset {
            observations: vec![HttpsObservation {
                zid: node.zid,
                country: node.country,
                exit_ip: node.ip,
                probes: vec![CertProbe {
                    host: world.site_symbols.lookup("demo-site.example").unwrap(),
                    class: SiteClass::Popular,
                    chain: chain.into(),
                }],
                escalated: false,
            }],
            skipped_unranked: 0,
            samples_issued: 1,
            quality: Default::default(),
        };
        let a = analyze(&data, &world, &StudyConfig::default());
        assert_eq!(a.replaced_nodes, 0);
        assert!(a.issuers.is_empty());
    }

    #[test]
    fn spoofed_chain_attributed_to_issuer_with_shared_key() {
        let world = demo_world();
        let node = world.node(proxynet::NodeId(1));
        let original = world.expected_chain("demo-site.example").unwrap().to_vec();
        let mut rng = SimRng::new(3);
        let mut av = CertAuthority::new_root(
            DistinguishedName::cn("Unit AV Root"),
            netsim::SimTime::EPOCH,
            &mut rng,
        );
        let key = certs::KeyId(99);
        let spoof_a = av.issue_spoof(&original[0], key, world.now(), false);
        let spoof_b = av.issue_spoof(&original[0], key, world.now(), false);
        let data = HttpsDataset {
            observations: vec![HttpsObservation {
                zid: node.zid,
                country: node.country,
                exit_ip: node.ip,
                probes: vec![
                    CertProbe {
                        host: world.site_symbols.lookup("demo-site.example").unwrap(),
                        class: SiteClass::Popular,
                        chain: vec![spoof_a, av.cert.clone()].into(),
                    },
                    CertProbe {
                        host: world.site_symbols.lookup("demo-site.example").unwrap(),
                        class: SiteClass::International,
                        chain: vec![spoof_b, av.cert.clone()].into(),
                    },
                ],
                escalated: true,
            }],
            skipped_unranked: 0,
            samples_issued: 1,
            quality: Default::default(),
        };
        let a = analyze(&data, &world, &StudyConfig::default());
        assert_eq!(a.replaced_nodes, 1);
        assert_eq!(a.issuers.len(), 1);
        assert_eq!(a.issuers[0].issuer, "Unit AV Root");
        assert_eq!(a.issuers[0].shared_key_nodes, 1, "same key on both spoofs");
        assert_eq!(a.issuers[0].masks_invalid_nodes, 0);
    }

    #[test]
    fn empty_issuer_renders_as_empty_label() {
        let world = demo_world();
        let node = world.node(proxynet::NodeId(0));
        let original = world.expected_chain("demo-site.example").unwrap().to_vec();
        let mut rng = SimRng::new(4);
        let mut anon =
            CertAuthority::new_root(DistinguishedName::cn(""), netsim::SimTime::EPOCH, &mut rng);
        let spoof = anon.issue_spoof(&original[0], certs::KeyId(1), world.now(), false);
        let data = HttpsDataset {
            observations: vec![HttpsObservation {
                zid: node.zid,
                country: node.country,
                exit_ip: node.ip,
                probes: vec![CertProbe {
                    host: world.site_symbols.lookup("demo-site.example").unwrap(),
                    class: SiteClass::Popular,
                    chain: vec![spoof, anon.cert.clone()].into(),
                }],
                escalated: true,
            }],
            skipped_unranked: 0,
            samples_issued: 1,
            quality: Default::default(),
        };
        let a = analyze(&data, &world, &StudyConfig::default());
        assert_eq!(a.issuers[0].issuer, "Empty");
    }
}
