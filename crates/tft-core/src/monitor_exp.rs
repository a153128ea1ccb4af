//! The content-monitoring experiment (§7.1, Figure 4).
//!
//! Each sampled node fetches a domain generated uniquely for it. Exactly
//! one request should ever arrive at our web server for that domain; any
//! additional request — from a different address, possibly hours later —
//! means a middlebox or end-host software observed the URL and refetched
//! the content.

use crate::config::StudyConfig;
use crate::crawl::{fetch_probe_name, Sampler, MAX_SAMPLES};
use crate::exec::{self, ExpData, Experiment, ProbeScope};
use crate::obs::{MonitorDataset, MonitorObservation};
use crate::quality::delivery_outcome;
use netsim::SimDuration;
use proxynet::{UsernameOptions, World, ZId};
use std::collections::HashMap;
use std::sync::Arc;

/// Sampler-seed salt (XORed with virtual time at experiment start).
const SEED_SALT: u64 = 0x303;

/// User agent our own proxied requests carry (refetches carry the
/// monitoring product's own UA, an attribution signal).
const OWN_UA: &str = "Hola/1.108";

/// The page every monitoring probe name serves.
const PROBE_PAGE: &[u8] = b"<html><body>tft monitor probe</body></html>";

/// How long the observation window stays open after the last probe, in
/// hours: §7.1 watched the web server for 24 hours.
pub(crate) const WINDOW_HOURS: u64 = 24;

/// Run the experiment: probe, then hold the observation window open. Like
/// every standalone run this is a one-experiment study wave forked from
/// `world` (see [`crate::exec`]), so it returns the dataset a study on
/// `world` produces.
pub fn run(world: &mut World, cfg: &StudyConfig) -> MonitorDataset {
    match exec::run_alone(world, cfg, Experiment::Monitor) {
        ExpData::Monitor(data) => data,
        _ => unreachable!("a monitoring wave returns a monitoring dataset"),
    }
}

/// Run one population shard (the executor's task body).
// tft-lint: hot-root — per-probe monitor experiment loop
pub(crate) fn run_shard(world: &mut World, cfg: &StudyConfig, scope: ProbeScope) -> MonitorDataset {
    let mut sampler = Sampler::new(&scope.counts, scope.rng(world.now().as_millis(), SEED_SALT))
        .with_session_base(scope.session_base);
    let mut data = MonitorDataset::default();
    // One reusable option set per shard: the customer string is owned
    // once, not re-allocated per sample (DESIGN.md §10).
    let mut opts = UsernameOptions::new(&cfg.customer);
    let apex = world.auth_apex().clone();
    // zid → (domain, reported exit ip)
    let mut probed: HashMap<ZId, (Arc<str>, std::net::Ipv4Addr)> = HashMap::new();
    // Reused per-probe label scratch (see dns_exp.rs).
    use std::fmt::Write as _;
    let mut label = String::new();

    for i in 0..MAX_SAMPLES {
        if sampler.saturated() {
            break;
        }
        let (country, session) = sampler.next_probe();
        data.samples_issued += 1;
        label.clear();
        let _ = write!(label, "{}m{i}", scope.tag);
        let name = apex.child(&label).expect("valid label");
        opts.country = Some(country);
        opts.session = Some(session);
        match fetch_probe_name(world, &opts, &name, PROBE_PAGE, None) {
            Ok(resp) => {
                let Some(zid) = resp.debug.final_zid().cloned() else {
                    data.quality.record_failure(country);
                    sampler.record_miss();
                    continue;
                };
                data.quality.record(country, delivery_outcome(&resp.debug));
                if sampler.record(&zid) {
                    // The observation's domain shares the probe name.
                    probed.insert(zid, (Arc::clone(name.as_arc()), resp.exit_ip));
                }
            }
            Err(e) => {
                data.quality.record_error(country, &e);
                sampler.record_miss();
            }
        }
    }

    // Hold the observation window open.
    world.advance(SimDuration::from_hours(WINDOW_HOURS));

    // Assemble observations from the web log, borrowed: only the entries
    // an observation keeps are cloned.
    let mut by_host: HashMap<&str, Vec<&proxynet::WebLogEntry>> = HashMap::new();
    for e in world.web_server().log_sorted() {
        by_host.entry(&e.host).or_default().push(e);
    }
    for (zid, (host, exit_ip)) in probed {
        let entries = by_host.remove(&*host).unwrap_or_default();
        // The node's own request: matches the reported exit address, or —
        // when a VPN hides it — the earliest request carrying our proxy
        // client's UA.
        let own = entries
            .iter()
            .find(|e| e.src == exit_ip)
            .or_else(|| {
                entries
                    .iter()
                    .find(|e| e.user_agent.as_deref() == Some(OWN_UA))
            })
            .map(|e| (*e).clone());
        let unexpected: Vec<proxynet::WebLogEntry> = entries
            .iter()
            .filter(|e| {
                own.as_ref()
                    .map(|o| e.at != o.at || e.src != o.src)
                    .unwrap_or(true)
            })
            .map(|e| (*e).clone())
            .collect();
        data.observations.push(MonitorObservation {
            zid,
            reported_exit_ip: exit_ip,
            domain: host,
            own_request: own,
            unexpected,
        });
    }
    data.observations.sort_by(|a, b| a.domain.cmp(&b.domain));
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnswire::ZoneAnswer;

    #[test]
    fn a_shard_leaves_no_probe_name_or_route_behind() {
        let mut world = worldgen::build(&worldgen::smoke_spec(7)).world;
        let scope = ProbeScope::shard(0, world.reported_country_counts());
        let data = run_shard(&mut world, &StudyConfig::default(), scope);
        assert!(!data.observations.is_empty(), "the shard measured nodes");
        let apex = world.auth_apex().clone();
        for i in 0..data.samples_issued {
            let name = apex.child(&format!("s0-m{i}")).expect("valid label");
            assert_eq!(
                world.auth_server().zone().lookup(&name, dnswire::QType::A),
                ZoneAnswer::NxDomain,
                "{name} is still in the zone"
            );
            assert!(
                !world.web_server_mut().remove(name.as_str(), "/"),
                "{name} still has a route"
            );
        }
    }
}
