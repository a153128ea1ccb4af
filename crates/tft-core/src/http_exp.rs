//! The HTTP content-modification experiment (§5.1).
//!
//! Four reference objects (9 KB HTML, 39 KB JPEG, 258 KB un-minified JS,
//! 3 KB CSS) are fetched through exit nodes and compared byte-for-byte
//! against what the study server sent. Bandwidth-aware sampling: three
//! nodes per AS first; ASes where any modification shows up are revisited
//! for more nodes (to separate ISP-level from end-host modification).

use crate::config::StudyConfig;
use crate::crawl::{Sampler, MAX_SAMPLES};
use crate::ethics::{ByteBudget, PER_NODE_BYTE_CAP};
use crate::exec::{self, ExpData, Experiment, ProbeScope};
use crate::obs::{HttpDataset, HttpObservation, ObjectResult, ProbeObject, Quarantine};
use crate::quality::{delivery_outcome, DataQuality, ProbeOutcome};
use httpwire::{Response, Uri};
use inetdb::{Asn, CountryCode};
use proxynet::{UsernameOptions, World, ZId};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// Sampler-seed salt (XORed with virtual time at experiment start).
const SEED_SALT: u64 = 0x477;

/// Phase 1 measures this many fresh nodes per AS, then skips the AS unless
/// one of them saw a modification (§5.1: three nodes per AS).
pub(crate) const NODES_PER_AS: usize = 3;

/// Phase 2 seeks this many extra nodes in each AS that phase 1 flagged, to
/// separate ISP-level from end-host modification (§5.1).
pub(crate) const PHASE2_NODES: usize = 25;

/// Probes phase 2 may spend per flagged AS while seeking
/// [`PHASE2_NODES`] nodes.
pub(crate) const PHASE2_BUDGET: usize = 400;

/// Host under the probe zone that serves the four objects.
pub const OBJECT_HOST_LABEL: &str = "objects";

/// Deterministic reference bodies. The paper found that objects under 1 KB
/// see much less modification, so each object is full-size.
///
/// Thin owned wrapper over [`object_body_ref`] — callers that only compare
/// or measure should take the borrowed form; the bodies are immutable
/// study constants, built once per process.
pub fn object_body(obj: ProbeObject) -> Vec<u8> {
    object_body_ref(obj).to_vec()
}

/// The reference body as a borrowed slice, built once per process.
///
/// The JS body alone is 258 KB assembled from ~1300 `format!` fragments;
/// rebuilding it per fetch would dominate the study's allocation profile. The cache is keyed by object and filled on
/// first use — contents are a pure function of the object, so process-wide
/// sharing cannot perturb determinism.
pub fn object_body_ref(obj: ProbeObject) -> &'static [u8] {
    use std::sync::OnceLock;
    static CACHE: [OnceLock<Vec<u8>>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = match obj {
        ProbeObject::Html => &CACHE[0],
        ProbeObject::Jpeg => &CACHE[1],
        ProbeObject::Js => &CACHE[2],
        ProbeObject::Css => &CACHE[3],
    };
    slot.get_or_init(|| build_object_body(obj))
}

/// Build one reference body from scratch (cold path behind the cache).
fn build_object_body(obj: ProbeObject) -> Vec<u8> {
    match obj {
        ProbeObject::Html => {
            let mut s = String::with_capacity(9 * 1024);
            s.push_str(
                "<!DOCTYPE html>\n<html><head><title>TFT reference page</title></head><body>\n",
            );
            let mut i = 0;
            while s.len() < 9 * 1024 - 64 {
                s.push_str(&format!(
                    "<p id=\"para-{i}\">Reference paragraph {i}: the quick brown fox jumps over the lazy dog.</p>\n"
                ));
                i += 1;
            }
            s.push_str("</body></html>\n");
            s.into_bytes()
        }
        ProbeObject::Jpeg => {
            let mut v = vec![0xFF, 0xD8, 0xFF, 0xE0];
            let mut x: u32 = 0x1234_5678;
            while v.len() < 39 * 1024 {
                // xorshift stream: incompressible-ish, deterministic.
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                v.extend_from_slice(&x.to_be_bytes());
            }
            v.truncate(39 * 1024);
            v
        }
        ProbeObject::Js => {
            let mut s = String::with_capacity(258 * 1024);
            s.push_str("/* TFT reference library (un-minified) */\n");
            let mut i = 0;
            while s.len() < 258 * 1024 - 128 {
                s.push_str(&format!(
                    "function referenceFunction{i}(argumentOne, argumentTwo) {{\n    // computes a reference value\n    var resultValue = argumentOne + argumentTwo + {i};\n    return resultValue;\n}}\n\n"
                ));
                i += 1;
            }
            s.into_bytes()
        }
        ProbeObject::Css => {
            let mut s = String::with_capacity(3 * 1024);
            s.push_str("/* TFT reference stylesheet (un-minified) */\n");
            let mut i = 0;
            while s.len() < 3 * 1024 - 64 {
                s.push_str(&format!(
                    ".reference-class-{i} {{\n    margin: {i}px;\n    padding: 2px;\n}}\n"
                ));
                i += 1;
            }
            s.into_bytes()
        }
    }
}

/// Install the object routes and the DNS name for the object host.
fn provision(world: &mut World) -> String {
    let apex = world.auth_apex().clone();
    let host = apex
        .child(OBJECT_HOST_LABEL)
        .expect("valid label")
        .to_string();
    let web_ip = world.web_ip();
    world
        .auth_server_mut()
        .zone_mut()
        .add_a(apex.child(OBJECT_HOST_LABEL).expect("valid label"), web_ip);
    for obj in ProbeObject::ALL {
        world.web_server_mut().put(
            &host,
            obj.path(),
            Response::ok(obj.content_type(), object_body(obj)),
        );
    }
    host
}

struct Fetched {
    zid: ZId,
    node_ip: Ipv4Addr,
    result: ObjectResult,
}

/// Fetch one object through a pinned session; None on proxy failure or
/// node churn. Every issued fetch lands in the quality ledger; bodies
/// failing the integrity checks come back quarantined, never as
/// `modified_body`.
fn fetch_object(
    world: &mut World,
    opts: &UsernameOptions,
    host: &str,
    obj: ProbeObject,
    expect_zid: Option<&ZId>,
    country: CountryCode,
    quality: &mut DataQuality,
) -> Option<Fetched> {
    let web_cursor = world.web_server().log().len();
    let uri = Uri::http(host, obj.path());
    let resp = match world.proxy_get(opts, &uri) {
        Ok(resp) => resp,
        Err(e) => {
            quality.record_error(country, &e);
            return None;
        }
    };
    let Some(zid) = resp.debug.final_zid().cloned() else {
        quality.record_failure(country);
        return None;
    };
    if let Some(expected) = expect_zid {
        if &zid != expected {
            // Node churn mid-pair: evidence unusable.
            quality.record_failure(country);
            return None;
        }
    }
    let node_ip = world.web_server().log()[web_cursor..]
        .iter()
        .find(|e| *e.path == *obj.path())
        .map(|e| e.src)
        .unwrap_or(resp.exit_ip);
    let original = object_body_ref(obj);
    let received_len = resp.body.len();
    let (modified_body, quarantine) = if resp.body == original {
        quality.record(country, delivery_outcome(&resp.debug));
        (None, None)
    } else if received_len < original.len() && original.starts_with(&resp.body) {
        // A strict prefix is transport truncation, not tampering.
        quality.record(country, ProbeOutcome::Truncated);
        (None, Some(Quarantine::Truncated))
    } else {
        // §5's "repeated consistent fetches" rule: a differing body only
        // counts as modification when a second fetch through the same
        // session returns the identical bytes. Disagreement means the
        // payload was damaged in flight, so it is quarantined.
        let confirmed = matches!(
            world.proxy_get(opts, &uri),
            Ok(second) if second.debug.final_zid() == Some(&zid) && second.body == resp.body
        );
        if confirmed {
            quality.record(country, delivery_outcome(&resp.debug));
            (Some(resp.body.clone()), None)
        } else {
            quality.record(country, ProbeOutcome::Quarantined);
            (None, Some(Quarantine::Inconsistent))
        }
    };
    Some(Fetched {
        zid,
        node_ip,
        result: ObjectResult {
            object: obj,
            original_len: original.len(),
            received_len,
            modified_body,
            quarantine,
        },
    })
}

/// Measure the remaining three objects for a node whose HTML fetch is
/// already in hand.
fn measure_rest(
    world: &mut World,
    opts: &UsernameOptions,
    host: &str,
    budget: &mut ByteBudget,
    first: Fetched,
    country: CountryCode,
    quality: &mut DataQuality,
) -> Option<HttpObservation> {
    let mut results = vec![first.result];
    let zid = first.zid;
    for obj in [ProbeObject::Jpeg, ProbeObject::Js, ProbeObject::Css] {
        let need = object_body_ref(obj).len() as u64;
        if !budget.allows(&zid, need) {
            break; // ethics cap: stop measuring this node
        }
        let f = fetch_object(world, opts, host, obj, Some(&zid), country, quality)?;
        budget.charge(&zid, f.result.received_len as u64);
        results.push(f.result);
    }
    Some(HttpObservation {
        zid,
        node_ip: first.node_ip,
        results,
    })
}

/// Run the experiment: phase-1 AS coverage, then phase-2 revisits of
/// flagged ASes. Like every standalone run this is a one-experiment study
/// wave forked from `world` (see [`crate::exec`]), so it returns the
/// dataset a study on `world` produces.
pub fn run(world: &mut World, cfg: &StudyConfig) -> HttpDataset {
    match exec::run_alone(world, cfg, Experiment::Http) {
        ExpData::Http(data) => data,
        _ => unreachable!("an HTTP wave returns an HTTP dataset"),
    }
}

/// Run one population shard (the executor's task body).
// tft-lint: hot-root — per-probe HTTP experiment loop
pub(crate) fn run_shard(world: &mut World, cfg: &StudyConfig, scope: ProbeScope) -> HttpDataset {
    let host = provision(world);
    let mut sampler = Sampler::new(&scope.counts, scope.rng(world.now().as_millis(), SEED_SALT))
        .with_session_base(scope.session_base);
    let mut budget = ByteBudget::new(PER_NODE_BYTE_CAP);
    let mut data = HttpDataset::default();
    // One reusable option set per shard: the customer string is owned
    // once, not re-allocated per sample (DESIGN.md §10).
    let mut opts = UsernameOptions::new(&cfg.customer);
    let mut per_as: HashMap<Asn, usize> = HashMap::new();
    let mut flagged: HashSet<Asn> = HashSet::new();

    // ---- phase 1: three nodes per AS ----------------------------------
    for _ in 0..MAX_SAMPLES {
        if sampler.saturated() {
            break;
        }
        let (country, session) = sampler.next_probe();
        data.samples_issued += 1;
        opts.country = Some(country);
        opts.session = Some(session);
        let Some(first) = fetch_object(
            world,
            &opts,
            &host,
            ProbeObject::Html,
            None,
            country,
            &mut data.quality,
        ) else {
            sampler.record_miss();
            continue;
        };
        let fresh = sampler.record(&first.zid);
        budget.charge(&first.zid, first.result.received_len as u64);
        if !fresh {
            continue;
        }
        let asn = world.registry.ip_to_asn(first.node_ip).unwrap_or(Asn(0));
        let count = per_as.entry(asn).or_insert(0);
        if *count >= NODES_PER_AS && !flagged.contains(&asn) {
            data.skipped_quota += 1;
            continue;
        }
        *count += 1;
        if let Some(obs) = measure_rest(
            world,
            &opts,
            &host,
            &mut budget,
            first,
            country,
            &mut data.quality,
        ) {
            if obs.results.iter().any(|r| r.is_modified()) {
                flagged.insert(asn);
            }
            data.observations.push(obs);
        }
    }

    // ---- phase 2: revisit flagged ASes ----------------------------------
    // Deterministic order: HashSet iteration order would leak the hasher's
    // per-process randomness into the sampling stream.
    let mut targets: Vec<Asn> = flagged.iter().copied().collect();
    targets.sort();
    for asn in targets {
        let Some(country) = world.registry.country_of_asn(asn) else {
            continue;
        };
        let mut extra = 0;
        for _ in 0..PHASE2_BUDGET {
            if extra >= PHASE2_NODES {
                break;
            }
            let session = sampler.next_probe().1;
            data.samples_issued += 1;
            opts.country = Some(country);
            opts.session = Some(session);
            let Some(first) = fetch_object(
                world,
                &opts,
                &host,
                ProbeObject::Html,
                None,
                country,
                &mut data.quality,
            ) else {
                continue;
            };
            let fresh = sampler.record(&first.zid);
            budget.charge(&first.zid, first.result.received_len as u64);
            if !fresh {
                continue;
            }
            // Rejection sampling: country-targeted, AS-filtered.
            if world.registry.ip_to_asn(first.node_ip) != Some(asn) {
                continue;
            }
            if let Some(obs) = measure_rest(
                world,
                &opts,
                &host,
                &mut budget,
                first,
                country,
                &mut data.quality,
            ) {
                data.observations.push(obs);
                extra += 1;
            }
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_bodies_have_specified_sizes() {
        let sizes: Vec<usize> = ProbeObject::ALL
            .iter()
            .map(|o| object_body(*o).len())
            .collect();
        assert!((8_900..=9_400).contains(&sizes[0]), "html {}", sizes[0]);
        assert_eq!(sizes[1], 39 * 1024);
        assert!((257_000..=264_192).contains(&sizes[2]), "js {}", sizes[2]);
        assert!((2_900..=3_072).contains(&sizes[3]), "css {}", sizes[3]);
    }

    #[test]
    fn object_bodies_are_deterministic() {
        for obj in ProbeObject::ALL {
            assert_eq!(object_body(obj), object_body(obj));
        }
    }

    #[test]
    fn jpeg_body_carries_magic() {
        let j = object_body(ProbeObject::Jpeg);
        assert_eq!(&j[..3], &[0xFF, 0xD8, 0xFF]);
    }
}
