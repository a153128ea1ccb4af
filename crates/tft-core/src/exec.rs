//! Deterministic parallel study executor.
//!
//! The paper's selling point is scale — 1.2M vantage points measured "in
//! days, not years" (§1) — and a real measurement backend runs crawler
//! instances in parallel. This module makes [`crate::run_study`] parallel
//! **without giving up byte-identical determinism**:
//!
//! - The exit-node population is partitioned by *country* into a fixed
//!   number of shards ([`SHARD_COUNT`] — a semantic constant of the
//!   campaign plan, never derived from the machine). A node belongs to
//!   exactly one country, so shard populations are disjoint and the merged
//!   datasets have no cross-shard interference.
//! - Each (experiment × shard) pair runs on its own fork of the
//!   study-start [`World`] snapshot, drawing every random decision from a
//!   label-forked [`netsim::SimRng`] (`fork_indexed("shard", k)`). The
//!   snapshot holds no evidence ([`World::clone_without_evidence`]), so a
//!   shard never copies the logs of earlier studies, and everything it
//!   holds when it finishes is its own evidence. Seeds derive from the
//!   study-start clock, a per-experiment salt, and the shard index only —
//!   never from thread identity — so the worker count that
//!   [`substrate::pool::par_map`] runs the tasks on is a pure throughput
//!   knob.
//!   Forks are cheap: the world's bulk data sits behind shared `Arc`s and
//!   copies on first write, so a shard pays only for what it mutates.
//! - All experiments of a study flow through **one work queue**
//!   (`run_wave`) rather than one pool barrier per experiment: a worker
//!   that drains the last DNS shard immediately starts an HTTP shard. The
//!   paper's experiments ran in overlapping windows (§3), so the overlap
//!   is faithful, not a shortcut.
//! - A wave is the only way an experiment runs. A standalone
//!   `dns_exp::run` (and its HTTP, HTTPS and monitoring peers) is a
//!   one-experiment wave forked from the caller's world, so it returns
//!   exactly the dataset the study's wave produces from that world.
//! - Shard results are merged in canonical experiment-major / shard-minor
//!   order (shard evidence in task order, observations re-sorted by zID /
//!   probe key), so `render_tables` and every golden are bit-identical at
//!   any worker count. A task returns all of its fork's evidence, not the
//!   fork, so the merge moves log entries instead of cloning them.
//! - A shard task is a pure function of its experiment, shard index, and
//!   country plan over the shared snapshot, so a retry could only repeat a
//!   failure. A task panic is a bug: [`substrate::pool::par_map`]
//!   re-raises the lowest-indexed one and the study aborts, so no report
//!   is ever rendered with a missing shard.
//!
//! The partition itself is LPT greedy (largest country first onto the
//! lightest shard, ties broken by country code and shard index), which is
//! deterministic and keeps shard workloads balanced.

use crate::config::StudyConfig;
use crate::dns_exp::DnsExpOptions;
use crate::obs::{DnsDataset, HttpDataset, HttpsDataset, MonitorDataset};
use crate::{dns_exp, http_exp, https_exp, monitor_exp};
use inetdb::CountryCode;
use netsim::SimRng;
use proxynet::World;
use substrate::pool;

/// Number of population shards the study plan splits each experiment into.
///
/// Fixed (not machine-derived): the shard plan is part of the campaign's
/// semantics, and the same plan must replay on any machine. Worker count —
/// how many shards run *concurrently* — is the throughput knob.
pub const SHARD_COUNT: usize = 8;

/// Distance between the session-number ranges of adjacent shards, so a
/// merged evidence log never shows two shards reusing one session id.
const SESSION_STRIDE: u64 = 1 << 32;

/// Execution options for [`crate::study::run_study_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker threads used to run shards (and analyses) concurrently.
    /// Output is byte-identical at any value; this only trades wall-clock
    /// for cores.
    pub workers: usize,
}

impl ExecOptions {
    /// Run with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ExecOptions { workers }
    }
}

impl Default for ExecOptions {
    /// Default to the machine's available parallelism, uncapped. A full
    /// study wave queues `experiments × SHARD_COUNT` tasks (32 for the
    /// four-experiment study), and [`substrate::pool::par_map`] already
    /// clamps workers to the task count per call, so a cap here could only
    /// leave cores idle. Safe to machine-derive precisely because output is
    /// worker-count-invariant.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecOptions { workers }
    }
}

/// The sampling scope one shard runs under: which slice of the population
/// it crawls, how its probe artifacts are namespaced, and where its
/// randomness comes from.
#[derive(Debug, Clone)]
pub(crate) struct ProbeScope {
    /// Reported per-country exit counts visible to this shard's sampler.
    pub counts: Vec<(CountryCode, usize)>,
    /// Prefix for per-probe DNS labels (`s{k}-`), so no two shards of a
    /// wave provision the same probe name.
    pub tag: String,
    /// First session number the sampler hands out.
    pub session_base: u64,
    /// Shard index.
    shard: u64,
}

impl ProbeScope {
    /// The scope for shard `index` covering `counts`.
    pub fn shard(index: usize, counts: Vec<(CountryCode, usize)>) -> Self {
        ProbeScope {
            counts,
            tag: format!("s{index}-"),
            session_base: 1 + index as u64 * SESSION_STRIDE,
            shard: index as u64,
        }
    }

    /// Derive an RNG for this shard from virtual time and an experiment
    /// salt: the shard's label-fork of the experiment's stream. Thread
    /// identity never enters the derivation.
    pub fn rng(&self, t0_millis: u64, salt: u64) -> SimRng {
        SimRng::new(t0_millis ^ salt).fork_indexed("shard", self.shard)
    }
}

/// Partition the reported per-country counts into at most `shards` groups
/// with balanced total weight (LPT greedy). Deterministic: countries are
/// considered largest-first with code tie-breaks, and land on the lightest
/// shard (lowest index on ties). Zero-count countries are dropped; the
/// result has no empty shards.
///
/// # Panics
/// Panics if no country reports any exit nodes (same contract as
/// [`crate::crawl::Sampler::new`]).
pub(crate) fn plan_shards(
    counts: &[(CountryCode, usize)],
    shards: usize,
) -> Vec<Vec<(CountryCode, usize)>> {
    let mut nonzero: Vec<(CountryCode, usize)> =
        counts.iter().filter(|(_, n)| *n > 0).copied().collect();
    assert!(!nonzero.is_empty(), "no exit nodes reported anywhere");
    // Largest first; ties in canonical country order.
    nonzero.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let k = shards.min(nonzero.len());
    let mut plans: Vec<Vec<(CountryCode, usize)>> = vec![Vec::new(); k];
    let mut weights = vec![0usize; k];
    for (cc, n) in nonzero {
        let lightest = weights
            .iter()
            .enumerate()
            .min_by_key(|(i, w)| (**w, *i))
            .map(|(i, _)| i)
            .expect("k >= 1");
        plans[lightest].push((cc, n));
        weights[lightest] += n;
    }
    // Within a shard, canonical country order (the Sampler's cumulative
    // weight table is order-sensitive).
    for plan in &mut plans {
        plan.sort();
    }
    plans
}

/// One experiment of the study, as a wave-schedulable unit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Experiment {
    /// The d₁/d₂ NXDOMAIN experiment, under its methodology options.
    Dns(DnsExpOptions),
    /// The four-object content-comparison experiment.
    Http,
    /// The two-phase CONNECT certificate experiment.
    Https,
    /// The unique-domain refetch experiment.
    Monitor,
}

/// One experiment's dataset — a shard's, or the merge of all of them — so
/// a heterogeneous wave can return through a single channel.
pub(crate) enum ExpData {
    /// DNS dataset.
    Dns(DnsDataset),
    /// HTTP dataset.
    Http(HttpDataset),
    /// HTTPS dataset.
    Https(HttpsDataset),
    /// Monitoring dataset.
    Monitor(MonitorDataset),
}

/// Run `exp` on its own, the way the study runs it: a one-experiment wave
/// forked from `world` without its evidence, at the machine's default
/// worker count, absorbed back into `world`. The public `*_exp::run` entry
/// points are this call, so a standalone run returns the study's dataset
/// for the same world.
pub(crate) fn run_alone(world: &mut World, cfg: &StudyConfig, exp: Experiment) -> ExpData {
    let base = world.clone_without_evidence();
    let workers = ExecOptions::default().workers;
    run_wave(world, &base, cfg, workers, &[exp], false)
        .pop()
        .expect("run_wave returns one dataset per requested experiment")
}

/// Run `experiments` (each named at most once) as **one wave**: every
/// (experiment × shard) pair becomes a task in a single work queue, all
/// forked from the same study-start snapshot `base`, and the results are
/// absorbed into `live` in canonical experiment-major / shard-minor order.
/// Returns one merged dataset per experiment, in order.
///
/// `base` must hold no evidence (take it with
/// [`World::clone_without_evidence`]): a task hands back its dataset and
/// every log entry and billed byte its fork holds
/// ([`World::into_evidence`]), not the fork itself. The shard world is
/// dropped on the worker that ran it, so a wave holds at most `workers`
/// shard worlds at once, and the merge moves log entries into `live`
/// without cloning them.
///
/// One queue means no pool barrier between experiments: a worker that
/// finishes its last DNS shard immediately picks up an HTTP shard instead
/// of idling until the slowest DNS shard lands. It is also what the paper
/// actually did — the experiments ran in *overlapping* windows (§3), not
/// serial phases.
///
/// Determinism: every task forks `base` (cheap — the world's bulk data is
/// behind shared `Arc`s and copies on first write, see
/// [`proxynet::World`]), seeds from `base`'s clock plus a per-experiment
/// salt and the shard index, and never sees another task's effects.
/// Absorb/merge order is fixed by the task list, not by scheduling, so the
/// returned datasets and `live`'s evidence log are byte-identical at any
/// worker count.
///
/// A shard task's panic propagates (lowest task index first) and aborts
/// the study; see the module docs for why nothing retries it.
///
/// `deep_fork` is a test seam: when set, every shard world is deeply
/// unshared after forking ([`World::unshare`]), the whole-clone reference
/// the copy-on-write overlay is pinned against.
// tft-lint: hot-root — shard bodies: every per-probe loop runs inside this
pub(crate) fn run_wave(
    live: &mut World,
    base: &World,
    cfg: &StudyConfig,
    workers: usize,
    experiments: &[Experiment],
    deep_fork: bool,
) -> Vec<ExpData> {
    let plans = plan_shards(&base.reported_country_counts(), SHARD_COUNT);
    let tasks: Vec<_> = experiments
        .iter()
        .flat_map(|&exp| {
            plans
                .iter()
                .enumerate()
                // tft-lint: allow(hot-path-alloc, reason = "per-wave task list, not per-probe: plan is a handful of country codes per shard")
                .map(move |(k, plan)| (exp, k, plan.clone()))
        })
        .collect();
    let finished = pool::par_map(workers, tasks, |(exp, k, plan)| {
        // tft-lint: allow(hot-path-alloc, reason = "per-task fork, not per-probe: base.clone() only bumps the shared world's Arcs")
        let mut shard_world = base.clone();
        if deep_fork {
            shard_world.unshare();
        }
        let scope = ProbeScope::shard(k, plan);
        let world = &mut shard_world;
        let data = match exp {
            Experiment::Dns(opts) => ExpData::Dns(dns_exp::run_shard(world, cfg, opts, scope)),
            Experiment::Http => ExpData::Http(http_exp::run_shard(world, cfg, scope)),
            Experiment::Https => ExpData::Https(https_exp::run_shard(world, cfg, scope)),
            Experiment::Monitor => ExpData::Monitor(monitor_exp::run_shard(world, cfg, scope)),
        };
        (data, shard_world.into_evidence())
    });

    // Absorb in task order (experiment-major, shard-minor) — the same
    // canonical order regardless of worker count, and the same order a
    // stage-at-a-time driver produces across separate waves — and gather
    // each experiment's shard datasets in shard order.
    let (mut dns, mut http, mut https, mut monitor) = (vec![], vec![], vec![], vec![]);
    live.reserve_evidence(finished.iter().map(|(_, evidence)| evidence));
    for (data, evidence) in finished {
        live.absorb_evidence(evidence);
        match data {
            ExpData::Dns(d) => dns.push(d),
            ExpData::Http(d) => http.push(d),
            ExpData::Https(d) => https.push(d),
            ExpData::Monitor(d) => monitor.push(d),
        }
    }
    experiments
        .iter()
        .map(|exp| match exp {
            Experiment::Dns(_) => ExpData::Dns(merge_dns(std::mem::take(&mut dns))),
            Experiment::Http => ExpData::Http(merge_http(std::mem::take(&mut http))),
            Experiment::Https => ExpData::Https(merge_https(std::mem::take(&mut https))),
            Experiment::Monitor => ExpData::Monitor(merge_monitor(std::mem::take(&mut monitor))),
        })
        .collect()
}

/// Merge per-shard DNS datasets: counters sum, observations re-sorted into
/// canonical zID order (shard populations are disjoint, so zIDs are unique
/// across parts; any cross-shard duplicate — impossible by construction
/// for DNS — would be dropped deterministically, keeping the lowest shard).
pub(crate) fn merge_dns(parts: Vec<DnsDataset>) -> DnsDataset {
    let mut merged = DnsDataset::default();
    for part in parts {
        merged.observations.extend(part.observations);
        merged.filtered_same_anycast += part.filtered_same_anycast;
        merged.duplicates += part.duplicates;
        merged.discarded += part.discarded;
        merged.samples_issued += part.samples_issued;
        merged.quality.merge(&part.quality);
    }
    merged.observations.sort_by_key(|a| a.zid);
    merged.observations.dedup_by(|a, b| a.zid == b.zid);
    merged
}

/// Merge per-shard HTTP datasets (canonical zID order). Cross-shard zID
/// duplicates are possible here — phase-2 revisits target an AS's home
/// country, which may lie outside the shard's partition — and are dropped
/// deterministically (stable sort keeps the lowest shard's observation).
pub(crate) fn merge_http(parts: Vec<HttpDataset>) -> HttpDataset {
    let mut merged = HttpDataset::default();
    for part in parts {
        merged.observations.extend(part.observations);
        merged.samples_issued += part.samples_issued;
        merged.skipped_quota += part.skipped_quota;
        merged.quality.merge(&part.quality);
    }
    merged.observations.sort_by_key(|a| a.zid);
    merged.observations.dedup_by(|a, b| a.zid == b.zid);
    merged
}

/// Merge per-shard HTTPS datasets (canonical zID order).
pub(crate) fn merge_https(parts: Vec<HttpsDataset>) -> HttpsDataset {
    let mut merged = HttpsDataset::default();
    for part in parts {
        merged.observations.extend(part.observations);
        merged.skipped_unranked += part.skipped_unranked;
        merged.samples_issued += part.samples_issued;
        merged.quality.merge(&part.quality);
    }
    merged.observations.sort_by_key(|a| a.zid);
    merged.observations.dedup_by(|a, b| a.zid == b.zid);
    merged
}

/// Merge per-shard monitoring datasets (canonical probe-domain order).
pub(crate) fn merge_monitor(parts: Vec<MonitorDataset>) -> MonitorDataset {
    let mut merged = MonitorDataset::default();
    for part in parts {
        merged.observations.extend(part.observations);
        merged.samples_issued += part.samples_issued;
        merged.quality.merge(&part.quality);
    }
    merged.observations.sort_by(|a, b| a.domain.cmp(&b.domain));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    #[test]
    fn plan_is_deterministic_and_balanced() {
        let counts = vec![
            (cc("US"), 900),
            (cc("DE"), 300),
            (cc("MY"), 300),
            (cc("BR"), 200),
            (cc("IN"), 100),
        ];
        let a = plan_shards(&counts, 2);
        let b = plan_shards(&counts, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // LPT: US alone on one shard, everything else on the other.
        let weights: Vec<usize> = a
            .iter()
            .map(|p| p.iter().map(|(_, n)| n).sum::<usize>())
            .collect();
        assert_eq!(weights.iter().sum::<usize>(), 1800);
        assert!(weights.iter().all(|&w| w >= 900 / 2));
        // No shard is empty, no country dropped or duplicated.
        let mut all: Vec<_> = a.iter().flatten().collect();
        all.sort();
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn fewer_countries_than_shards_yields_fewer_shards() {
        let counts = vec![(cc("XA"), 10), (cc("XB"), 5)];
        let plans = plan_shards(&counts, SHARD_COUNT);
        assert_eq!(plans.len(), 2);
        assert!(plans.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn zero_count_countries_are_dropped() {
        let counts = vec![(cc("US"), 10), (cc("KP"), 0)];
        let plans = plan_shards(&counts, 4);
        assert_eq!(plans, vec![vec![(cc("US"), 10)]]);
    }

    #[test]
    #[should_panic(expected = "no exit nodes")]
    fn all_zero_panics() {
        plan_shards(&[(cc("US"), 0)], 4);
    }

    #[test]
    fn scope_rngs_are_shard_stable() {
        let a = ProbeScope::shard(3, vec![(cc("US"), 1)]);
        let b = ProbeScope::shard(3, vec![(cc("US"), 1)]);
        let mut ra = a.rng(1234, 0xD45);
        let mut rb = b.rng(1234, 0xD45);
        use netsim::rng::RngExt;
        assert_eq!(
            ra.random_range(0..u64::MAX),
            rb.random_range(0..u64::MAX),
            "same shard, same stream"
        );
        let mut rc = ProbeScope::shard(4, vec![(cc("US"), 1)]).rng(1234, 0xD45);
        assert_ne!(
            ra.random_range(0..u64::MAX),
            rc.random_range(0..u64::MAX),
            "different shards, independent streams"
        );
    }

    #[test]
    fn overlay_forks_match_deep_clones_at_any_worker_count() {
        // The shared-`Arc` world fork is a pure allocation optimization:
        // running every experiment wave on deeply-unshared shard worlds
        // (whole-clone forks) must produce byte-identical
        // datasets AND byte-identical absorbed evidence, at every worker
        // count. `deep_fork` flips the seam inside `run_wave` itself, so
        // the two paths differ only in how shard worlds are materialized.
        let cfg = StudyConfig {
            min_nodes_per_country: 5,
            min_nodes_per_dns_server: 3,
            ..StudyConfig::default()
        };
        let all = [
            Experiment::Dns(DnsExpOptions::default()),
            Experiment::Http,
            Experiment::Https,
            Experiment::Monitor,
        ];
        let run = |workers: usize, deep_fork: bool| {
            let mut world = worldgen::build(&worldgen::smoke_spec(7)).world;
            let base = world.clone_without_evidence();
            let out = run_wave(&mut world, &base, &cfg, workers, &all, deep_fork);
            let data: Vec<String> = out
                .iter()
                .map(|d| match d {
                    ExpData::Dns(d) => format!("{d:?}"),
                    ExpData::Http(d) => format!("{d:?}"),
                    ExpData::Https(d) => format!("{d:?}"),
                    ExpData::Monitor(d) => format!("{d:?}"),
                })
                .collect();
            (
                data,
                format!("{:?}", world.now()),
                world.bytes_billed(&cfg.customer),
                world.web_server().log().to_vec(),
                world.auth_server().log().to_vec(),
            )
        };
        let reference = run(1, true);
        for workers in [1usize, 2, 8, 16, 32] {
            let overlay = run(workers, false);
            assert_eq!(
                overlay, reference,
                "workers={workers}: overlay fork diverged from deep clone"
            );
        }
    }

    #[test]
    fn session_bases_are_disjoint() {
        let a = ProbeScope::shard(0, vec![(cc("US"), 1)]);
        let b = ProbeScope::shard(1, vec![(cc("US"), 1)]);
        assert!(b.session_base - a.session_base >= SESSION_STRIDE);
    }
}
