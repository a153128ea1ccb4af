//! The DNS NXDOMAIN-hijacking experiment (§4.1, Figure 2).
//!
//! For each sampled exit node, two unique names under our authoritative
//! zone:
//!
//! 1. **d₁** resolves for everyone. Fetching `http://d₁/` through the node
//!    reveals (a) the node's resolver address in our DNS log, (b) the
//!    node's IP in our web log, and (c) its zID in the debug timeline.
//! 2. **d₂** answers NXDOMAIN to everyone *except* the super proxy's
//!    Google resolver (so the super proxy agrees to forward). Fetching
//!    `http://d₂/` with the same session then either fails with a DNS
//!    error (no hijacking) or returns substituted content (hijacked).

use crate::config::StudyConfig;
use crate::crawl::{fetch_probe_name, Sampler, MAX_SAMPLES};
use crate::ethics::{ByteBudget, PER_NODE_BYTE_CAP};
use crate::exec::{self, ExpData, Experiment, ProbeScope};
use crate::obs::{DnsDataset, DnsObservation, DnsOutcome};
use crate::quality::{DataQuality, ProbeOutcome};
use dnswire::server::inetdb_net::Net;
use inetdb::CountryCode;
use proxynet::{ProxyError, UsernameOptions, World};
use std::net::Ipv4Addr;

/// Sampler-seed salt (XORed with virtual time at experiment start).
const SEED_SALT: u64 = 0xD45;

/// The Google anycast range the super proxy's queries arrive from
/// (74.125.0.0/16; the paper determined this empirically). Exposed so the
/// analysis layer can recognize Google-DNS-configured nodes.
pub fn google_anycast_net() -> Net {
    Net::new(Ipv4Addr::new(74, 125, 0, 0), 16)
}

/// The d₂ allow-predicate must name the super proxy's *specific* anycast
/// instance, not the whole Google range: exit nodes configured with Google
/// DNS also query from 74.125.0.0/16, and a /16 predicate would hand them
/// the valid answer — making every Google-DNS node look hijacked. The
/// instance is determined empirically from the d₁ query log (footnote 8's
/// remaining ambiguity — nodes behind the *same* instance — is filtered in
/// step 2).
fn super_proxy_net(observed_src: Ipv4Addr) -> Net {
    Net::new(observed_src, 32)
}

/// Record a delivered probe pair: `Ok` when no attempt across the d₁/d₂
/// fetches failed, `Retried(n)` otherwise.
fn record_delivered(quality: &mut DataQuality, country: CountryCode, failed_attempts: usize) {
    let outcome = if failed_attempts == 0 {
        ProbeOutcome::Ok
    } else {
        ProbeOutcome::Retried(failed_attempts)
    };
    quality.record(country, outcome);
}

/// The page every DNS probe name serves (the experiment needs content, not
/// size).
const PROBE_PAGE: &[u8] = b"<html><body>tft dns probe</body></html>";

/// Methodology variants, for ablation studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnsExpOptions {
    /// Use the naive 74.125.0.0/16 allow-predicate for d₂ instead of the
    /// super proxy's specific anycast instance. This reproduces the failure
    /// mode footnote 8 warns about: every Google-DNS exit node then
    /// resolves d₂ successfully and is misclassified as hijacked.
    pub naive_google_predicate: bool,
}

/// Run the experiment until saturation or budget exhaustion, as a
/// one-experiment study wave forked from `world` (see [`crate::exec`]),
/// so it returns the dataset a study on `world` produces.
pub fn run(world: &mut World, cfg: &StudyConfig) -> DnsDataset {
    run_with(world, cfg, DnsExpOptions::default())
}

/// Run with explicit methodology options (ablations).
pub fn run_with(world: &mut World, cfg: &StudyConfig, exp_opts: DnsExpOptions) -> DnsDataset {
    match exec::run_alone(world, cfg, Experiment::Dns(exp_opts)) {
        ExpData::Dns(data) => data,
        _ => unreachable!("a DNS wave returns a DNS dataset"),
    }
}

/// Run one population shard (the executor's task body).
// tft-lint: hot-root — per-probe DNS experiment loop
pub(crate) fn run_shard(
    world: &mut World,
    cfg: &StudyConfig,
    exp_opts: DnsExpOptions,
    scope: ProbeScope,
) -> DnsDataset {
    let mut sampler = Sampler::new(&scope.counts, scope.rng(world.now().as_millis(), SEED_SALT))
        .with_session_base(scope.session_base);
    let mut budget = ByteBudget::new(PER_NODE_BYTE_CAP);
    let mut data = DnsDataset::default();
    // One reusable option set per shard: the customer string is owned
    // once, not re-allocated per sample (DESIGN.md §10).
    let mut opts = UsernameOptions::new(&cfg.customer).dns_remote();
    let apex = world.auth_apex().clone();
    let super_dns = world.super_proxy_dns_src();
    // Per-probe name scratch: cleared and rewritten each iteration so the
    // loop stops allocating once the buffers reach steady-state capacity.
    use std::fmt::Write as _;
    let mut label = String::new();

    for i in 0..MAX_SAMPLES {
        if sampler.saturated() {
            break;
        }
        let (country, session) = sampler.next_probe();
        data.samples_issued += 1;
        let dup_before = data.duplicates;
        label.clear();
        let _ = write!(label, "{}d1-{i}", scope.tag);
        let d1 = apex.child(&label).expect("valid label");

        let auth_cursor = world.auth_server().log().len();
        let web_cursor = world.web_server().log().len();

        opts.country = Some(country);
        opts.session = Some(session);

        // Step d1, resolvable by everyone: identify the node, its IP, and
        // its resolver.
        let outcome = (|| -> Option<DnsObservation> {
            let resp = match fetch_probe_name(world, &opts, &d1, PROBE_PAGE, None) {
                Ok(r) => r,
                Err(e) => {
                    data.quality.record_error(country, &e);
                    sampler.record_miss();
                    return None;
                }
            };
            let d1_failed = resp.debug.attempts.len().saturating_sub(1);
            let Some(zid) = resp.debug.final_zid().cloned() else {
                data.quality.record_failure(country);
                return None;
            };
            let fresh = sampler.record(&zid);
            budget.charge(&zid, resp.body.len() as u64);
            if !fresh {
                data.duplicates += 1;
                // Transport delivered fine; dedup is methodology, not loss.
                record_delivered(&mut data.quality, country, d1_failed);
                return None; // already measured this node
            }
            // Resolver: the d1 query that did NOT come from the super
            // proxy's own resolver instance.
            let resolver_ip = world.auth_server().log()[auth_cursor..]
                .iter()
                .filter(|q| q.qname == d1)
                .map(|q| q.src)
                .find(|src| *src != super_dns);
            let Some(resolver_ip) = resolver_ip else {
                // Same anycast instance as the super proxy: ambiguous,
                // filtered (footnote 8). The transport still delivered.
                data.filtered_same_anycast += 1;
                record_delivered(&mut data.quality, country, d1_failed);
                return None;
            };
            let Some(node_ip) = world.web_server().log()[web_cursor..]
                .iter()
                .find(|e| *e.host == *d1.as_str())
                .map(|e| e.src)
            else {
                data.quality.record_failure(country);
                return None;
            };
            if !budget.allows(&zid, 4096) {
                // Ethics cap, not a transport loss.
                record_delivered(&mut data.quality, country, d1_failed);
                return None; // do not issue d2
            }

            // Step d2: the hijack test, same session, on a name only the
            // super proxy's resolver may resolve. Provisioned only now
            // that d1 has found a fresh node within budget.
            label.clear();
            let _ = write!(label, "{}d2-{i}", scope.tag);
            let d2 = apex.child(&label).expect("valid label");
            let predicate = if exp_opts.naive_google_predicate {
                google_anycast_net()
            } else {
                super_proxy_net(super_dns)
            };
            let d2_result = fetch_probe_name(world, &opts, &d2, PROBE_PAGE, Some(predicate));
            let outcome = match d2_result {
                Err(ProxyError::ExitDnsFailure(debug)) => {
                    if debug.final_zid() != Some(&zid) {
                        data.quality.record_failure(country);
                        return None; // node churned mid-pair
                    }
                    record_delivered(
                        &mut data.quality,
                        country,
                        d1_failed + debug.attempts.len().saturating_sub(1),
                    );
                    DnsOutcome::NotHijacked
                }
                Ok(resp) => {
                    if resp.debug.final_zid() != Some(&zid) {
                        data.quality.record_failure(country);
                        return None;
                    }
                    budget.charge(&zid, resp.body.len() as u64);
                    record_delivered(
                        &mut data.quality,
                        country,
                        d1_failed + resp.debug.attempts.len().saturating_sub(1),
                    );
                    DnsOutcome::Hijacked { content: resp.body }
                }
                Err(e) => {
                    data.quality.record_error(country, &e);
                    return None;
                }
            };
            Some(DnsObservation {
                zid,
                node_ip,
                resolver_ip,
                country,
                outcome,
            })
        })();

        match outcome {
            Some(obs) => data.observations.push(obs),
            None => data.discarded += 1,
        }
        // `duplicates` is informational; keep `discarded` as genuine losses.
        if data.duplicates > dup_before {
            data.discarded -= 1;
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn google_net_covers_anycast_sources() {
        let net = google_anycast_net();
        assert!(net.contains(Ipv4Addr::new(74, 125, 200, 53)));
        assert!(!net.contains(Ipv4Addr::new(8, 8, 8, 8)));
    }
}
