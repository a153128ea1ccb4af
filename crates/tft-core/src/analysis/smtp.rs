//! SMTP extension analysis: STARTTLS-stripping attribution by AS.
//!
//! The inference is comparative: mail servers advertise the same
//! capabilities to everyone, so an AS whose vantage points consistently
//! *don't* see `STARTTLS` (while the rest of the world does) hosts a
//! stripping middlebox.

use crate::analysis::dns::HIJACKING_SERVER_SHARE;
use crate::config::StudyConfig;
use crate::smtp_exp::SmtpDataset;
use inetdb::{Asn, CountryCode};
use proxynet::World;
use std::collections::{BTreeMap, BTreeSet};

/// One stripping AS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippingAsRow {
    /// The AS.
    pub asn: Asn,
    /// Operating ISP.
    pub isp: String,
    /// Country.
    pub country: CountryCode,
    /// Nodes that did not see STARTTLS.
    pub stripped: usize,
    /// Nodes measured in the AS.
    pub total: usize,
}

/// Full SMTP analysis output.
#[derive(Debug, Default)]
pub struct SmtpAnalysis {
    /// Nodes measured.
    pub nodes: usize,
    /// Distinct node ASes.
    pub ases: usize,
    /// Nodes that saw STARTTLS end-to-end.
    pub starttls_seen: usize,
    /// Nodes that did not.
    pub starttls_missing: usize,
    /// Nodes where STARTTLS was advertised but the upgrade then failed
    /// (a command-level stripper).
    pub upgrade_refused: usize,
    /// ASes where stripping is systematic (Table-4-style ≥90% grouping).
    pub stripping_ases: Vec<StrippingAsRow>,
}

/// Run the analysis.
pub fn analyze(data: &SmtpDataset, world: &World, cfg: &StudyConfig) -> SmtpAnalysis {
    let reg = &world.registry;
    let mut out = SmtpAnalysis {
        nodes: data.observations.len(),
        ..Default::default()
    };
    let mut node_ases: BTreeSet<Asn> = BTreeSet::new();
    let mut per_as: BTreeMap<Asn, (usize, usize)> = BTreeMap::new();
    for obs in &data.observations {
        let asn = reg.ip_to_asn(obs.exit_ip).unwrap_or(Asn(0));
        node_ases.insert(asn);
        let e = per_as.entry(asn).or_insert((0, 0));
        e.1 += 1;
        if obs.result.capabilities.starttls {
            out.starttls_seen += 1;
            if obs
                .result
                .starttls_reply
                .as_ref()
                .map(|r| !r.is_positive())
                .unwrap_or(false)
            {
                out.upgrade_refused += 1;
            }
        } else {
            out.starttls_missing += 1;
            e.0 += 1;
        }
    }
    out.ases = node_ases.len();
    out.stripping_ases = per_as
        .into_iter()
        .filter(|(_, (_, total))| *total >= cfg.min_nodes_per_as)
        .filter(|(_, (stripped, total))| *stripped as f64 >= HIJACKING_SERVER_SHARE * *total as f64)
        .map(|(asn, (stripped, total))| {
            let org = reg.asn_to_org(asn);
            StrippingAsRow {
                asn,
                isp: org
                    .map(|o| o.name.clone())
                    .unwrap_or_else(|| "unknown".into()),
                country: org.map(|o| o.country).unwrap_or(CountryCode::new("ZZ")),
                stripped,
                total,
            }
        })
        .collect();
    out
}

/// Render the extension table.
pub fn render(a: &SmtpAnalysis) -> String {
    use std::fmt::Write as _;
    let mut s = String::from(
        "\n=== Extension — STARTTLS stripping via arbitrary-traffic VPN (the paper's future work) ===\n",
    );
    writeln!(
        s,
        "{:<9} {:<22} {:<3} {:>8} {:>6}",
        "AS", "ISP", "cty", "stripped", "total"
    )
    .unwrap();
    for row in &a.stripping_ases {
        writeln!(
            s,
            "{:<9} {:<22} {:<3} {:>8} {:>6}",
            row.asn.to_string(),
            row.isp,
            row.country.to_string(),
            row.stripped,
            row.total
        )
        .unwrap();
    }
    writeln!(
        s,
        "{} nodes measured in {} ASes; STARTTLS visible from {}, missing from {} ({:.2}%)",
        a.nodes,
        a.ases,
        a.starttls_seen,
        a.starttls_missing,
        100.0 * a.starttls_missing as f64 / a.nodes.max(1) as f64
    )
    .unwrap();
    s
}
