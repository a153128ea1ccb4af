//! The SSL certificate-replacement experiment (§6.1, Figure 3).
//!
//! CONNECT tunnels to port 443 collect the certificate chains exit nodes
//! are shown. Two phases per node: an initial probe of one site from each
//! of three classes (popular, international, invalid); if any check fails,
//! all 33 sites are probed. Popular/international chains are validated
//! against the OS X-like root store; invalid-site chains are compared
//! exactly, because the study operates those sites and knows their
//! certificates.

use crate::config::StudyConfig;
use crate::crawl::{Sampler, MAX_SAMPLES};
use crate::exec::{self, ExpData, Experiment, ProbeScope};
use crate::obs::{CertProbe, HttpsDataset, HttpsObservation, SiteClass};
use crate::quality::{delivery_outcome, DataQuality, ProbeOutcome};
use certs::{exact_match, verify_chain};
use inetdb::CountryCode;
use netsim::rng::RngExt;
use proxynet::{ChainDamage, UsernameOptions, World, ZId};

/// Sampler-seed salt (XORed with virtual time at experiment start).
const SEED_SALT: u64 = 0x995;
/// Salt for the independent site-pick stream.
const PICK_SALT: u64 = 0x5e1ec7;

/// The study's three intentionally invalid sites.
pub fn invalid_hosts(apex: &str) -> [String; 3] {
    [
        format!("invalid-selfsigned.{apex}"),
        format!("invalid-expired.{apex}"),
        format!("invalid-wrongname.{apex}"),
    ]
}

/// Collect one chain through a pinned session; None on failure or churn.
/// A chain the fault layer damaged in flight still returns (so the caller
/// can keep the session alive) but carries its [`ChainDamage`] tag: the
/// caller must quarantine it — a garbled or truncated handshake is not
/// certificate-replacement evidence.
fn probe_site(
    world: &mut World,
    opts: &UsernameOptions,
    host: &str,
    class: SiteClass,
    expect_zid: Option<&ZId>,
    country: CountryCode,
    quality: &mut DataQuality,
) -> Option<(ZId, std::net::Ipv4Addr, Option<ChainDamage>, CertProbe)> {
    let ip = world.site_address(host)?;
    let host_sym = world
        .site_symbols
        .lookup(host)
        .expect("site-symbol table covers every probe target");
    let result = match world.proxy_connect_tls(opts, ip, 443, host) {
        Ok(r) => r,
        Err(e) => {
            quality.record_error(country, &e);
            return None;
        }
    };
    let Some(zid) = result.debug.final_zid().cloned() else {
        quality.record_failure(country);
        return None;
    };
    if let Some(expected) = expect_zid {
        if &zid != expected {
            quality.record_failure(country);
            return None;
        }
    }
    match result.damaged {
        Some(ChainDamage::Truncated) => quality.record(country, ProbeOutcome::Truncated),
        Some(ChainDamage::Garbled) => quality.record(country, ProbeOutcome::Quarantined),
        None => quality.record(country, delivery_outcome(&result.debug)),
    }
    // CONNECT produces no web-log entry at our servers; the exit address
    // comes from the service's own reporting (as in the real Luminati).
    Some((
        zid,
        result.exit_ip,
        result.damaged,
        CertProbe {
            host: host_sym,
            class,
            chain: result.chain,
        },
    ))
}

/// Does this probe pass its class's check?
fn probe_ok(world: &World, probe: &CertProbe) -> bool {
    let host = world.site_symbols.resolve(probe.host);
    match probe.class {
        SiteClass::Popular | SiteClass::International => {
            verify_chain(&probe.chain, host, world.now(), &world.root_store).is_ok()
        }
        SiteClass::Invalid => {
            let expected = world
                .expected_chain(host)
                .and_then(|c| c.first())
                .expect("study-controlled site has a chain");
            exact_match(&probe.chain, expected)
        }
    }
}

/// Run the experiment, as a one-experiment study wave forked from `world`
/// (see [`crate::exec`]), so it returns the dataset a study on `world`
/// produces.
pub fn run(world: &mut World, cfg: &StudyConfig) -> HttpsDataset {
    match exec::run_alone(world, cfg, Experiment::Https) {
        ExpData::Https(data) => data,
        _ => unreachable!("an HTTPS wave returns an HTTPS dataset"),
    }
}

/// Run one population shard (the executor's task body).
// tft-lint: hot-root — per-probe HTTPS experiment loop
pub(crate) fn run_shard(world: &mut World, cfg: &StudyConfig, scope: ProbeScope) -> HttpsDataset {
    let t0 = world.now().as_millis();
    let mut sampler =
        Sampler::new(&scope.counts, scope.rng(t0, SEED_SALT)).with_session_base(scope.session_base);
    let mut pick_rng = scope.rng(t0, PICK_SALT);
    let mut data = HttpsDataset::default();
    // One reusable option set per shard: the customer string is owned
    // once, not re-allocated per sample (DESIGN.md §10).
    let mut opts = UsernameOptions::new(&cfg.customer);
    let apex = world.auth_apex().to_string();
    let invalid = invalid_hosts(&apex);
    // Site lists are read straight out of the shared rankings: the `Arc`
    // clone is a refcount bump that frees `world` for `&mut` probe calls
    // without copying a single hostname (DESIGN.md §10).
    let rankings = world.rankings.clone();
    let universities: &[String] = rankings.universities();

    for _ in 0..MAX_SAMPLES {
        if sampler.saturated() {
            break;
        }
        let (country, session) = sampler.next_probe();
        data.samples_issued += 1;
        let Some(popular) = rankings.top_sites(country, 20) else {
            // No rankings for this country: out of scope, as in the paper.
            data.skipped_unranked += 1;
            sampler.record_miss();
            continue;
        };
        opts.country = Some(country);
        opts.session = Some(session);

        // Phase 1: one site per class.
        let p1_popular = &popular[pick_rng.random_range(0..popular.len())];
        let p1_uni = &universities[pick_rng.random_range(0..universities.len())];
        let p1_invalid = &invalid[pick_rng.random_range(0..invalid.len())];

        let Some((zid, exit_ip, damage, first)) = probe_site(
            world,
            &opts,
            p1_popular,
            SiteClass::Popular,
            None,
            country,
            &mut data.quality,
        ) else {
            sampler.record_miss();
            continue;
        };
        if !sampler.record(&zid) {
            continue; // already measured
        }
        // Damaged chains are quarantined: never analysed, never escalate.
        let mut probes = Vec::with_capacity(3);
        if damage.is_none() {
            probes.push(first);
        }
        let mut churned = false;
        for (host, class) in [
            (p1_uni.as_str(), SiteClass::International),
            (p1_invalid.as_str(), SiteClass::Invalid),
        ] {
            match probe_site(
                world,
                &opts,
                host,
                class,
                Some(&zid),
                country,
                &mut data.quality,
            ) {
                Some((_, _, dmg, p)) => {
                    if dmg.is_none() {
                        probes.push(p);
                    }
                }
                None => {
                    churned = true;
                    break;
                }
            }
        }
        if churned {
            continue;
        }

        let escalate = probes.iter().any(|p| !probe_ok(world, p));
        if escalate {
            // Phase 2: the full 33-site scan.
            let mut full = Vec::with_capacity(33);
            let mut ok = true;
            let phase2: [(&[String], SiteClass); 3] = [
                (popular, SiteClass::Popular),
                (universities, SiteClass::International),
                (&invalid, SiteClass::Invalid),
            ];
            'scan: for (hosts, class) in phase2 {
                for host in hosts.iter() {
                    match probe_site(
                        world,
                        &opts,
                        host,
                        class,
                        Some(&zid),
                        country,
                        &mut data.quality,
                    ) {
                        Some((_, _, dmg, p)) => {
                            if dmg.is_none() {
                                full.push(p);
                            }
                        }
                        None => {
                            ok = false;
                            break 'scan;
                        }
                    }
                }
            }
            if !ok {
                continue; // churned mid-scan; discard the node
            }
            probes = full;
        }
        data.observations.push(HttpsObservation {
            zid,
            country,
            exit_ip,
            probes,
            escalated: escalate,
        });
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_hosts_are_under_the_apex() {
        let hosts = invalid_hosts("tft-probe.example");
        assert_eq!(hosts.len(), 3);
        for h in &hosts {
            assert!(h.ends_with(".tft-probe.example"));
        }
    }
}
