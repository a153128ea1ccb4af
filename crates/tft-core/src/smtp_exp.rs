//! The SMTP extension experiment — the paper's stated future work (§3.4).
//!
//! Through a hypothetical arbitrary-traffic VPN (same peer population as
//! the HTTP/S proxy), each sampled node runs an SMTP capability probe
//! against a small set of mail servers: banner → EHLO → STARTTLS (when
//! advertised) → QUIT. Comparing the capabilities different vantage points
//! see reveals in-path STARTTLS stripping: the server is constant, so a
//! vantage point that doesn't see `STARTTLS` sits behind a tamperer.

use crate::config::StudyConfig;
use crate::crawl::{Sampler, MAX_SAMPLES};
use netsim::SimRng;
use proxynet::{SmtpProbeResult, UsernameOptions, World, ZId};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One node's SMTP observation.
#[derive(Debug, Clone)]
pub struct SmtpObservation {
    /// Exit node identity.
    pub zid: ZId,
    /// Reported exit address.
    pub exit_ip: Ipv4Addr,
    /// Mail host probed, shared with every observation of that host.
    pub mail_host: Arc<str>,
    /// The probe transcript.
    pub result: SmtpProbeResult,
}

/// The SMTP experiment's dataset.
#[derive(Debug, Default)]
pub struct SmtpDataset {
    /// Per-node observations.
    pub observations: Vec<SmtpObservation>,
    /// Total VPN sessions issued.
    pub samples_issued: usize,
}

/// Run the experiment until saturation or budget exhaustion.
// tft-lint: hot-root — per-probe SMTP experiment loop
pub fn run(world: &mut World, cfg: &StudyConfig) -> SmtpDataset {
    let mut sampler = Sampler::new(
        &world.reported_country_counts(),
        SimRng::new(world.now().as_millis() ^ 0x25),
    );
    let mut pick = SimRng::new(world.now().as_millis() ^ 0x2525);
    // Allocated once, sorted: a probe picks a refcount.
    let mail_hosts: Vec<Arc<str>> = {
        let mut v: Vec<Arc<str>> = world.mail_hosts().map(Arc::from).collect();
        v.sort();
        v
    };
    let mut data = SmtpDataset::default();
    // One reusable option set per shard: the customer string is owned
    // once, not re-allocated per sample (DESIGN.md §10).
    let mut opts = UsernameOptions::new(&cfg.customer);
    if mail_hosts.is_empty() {
        return data;
    }
    for _ in 0..MAX_SAMPLES {
        if sampler.saturated() {
            break;
        }
        let (country, session) = sampler.next_probe();
        data.samples_issued += 1;
        use netsim::rng::RngExt;
        let mail_host = Arc::clone(&mail_hosts[pick.random_range(0..mail_hosts.len())]);
        let Some(target) = world.mail_site_address(&mail_host) else {
            continue;
        };
        opts.country = Some(country);
        opts.session = Some(session);
        match world.vpn_relay_smtp(&opts, target) {
            Ok(result) => {
                let Some(zid) = result.debug.final_zid().cloned() else {
                    sampler.record_miss();
                    continue;
                };
                if sampler.record(&zid) {
                    data.observations.push(SmtpObservation {
                        zid,
                        exit_ip: result.exit_ip,
                        mail_host,
                        result,
                    });
                }
            }
            Err(_) => sampler.record_miss(),
        }
    }
    data
}
