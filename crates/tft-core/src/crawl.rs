//! Exit-node sampling (§3.2).
//!
//! Luminati does not allow enumerating exit nodes; the paper iterates:
//! pick a country in proportion to the exit counts Luminati reports there,
//! pick a fresh random session number, and measure whichever node answers —
//! stopping when the rate of *new* zIDs drops off (the network is dynamic,
//! so "all nodes" is never reached). Each probe fetches a name of its own
//! (§4.1), provisioned for that one fetch and withdrawn after it.

use dnswire::server::inetdb_net::Net;
use dnswire::{AnswerOverride, DnsName};
use httpwire::{Response, Uri};
use inetdb::CountryCode;
use netsim::rng::RngExt;
use netsim::SimRng;
use proxynet::{ProxyError, ProxyResponse, UsernameOptions, World, ZId};
use std::collections::{HashSet, VecDeque};

/// An experiment stops after this many proxy sessions even if sampling
/// never saturates: the backstop to the §3.2 stopping rule.
pub(crate) const MAX_SAMPLES: usize = 2_000_000;

/// Sampling saturates when fewer than [`SATURATION_MIN_NEW`] of the last
/// `SATURATION_WINDOW` probes reached a new exit node: §3.2 stops once the
/// rate of new zIDs drops off.
pub(crate) const SATURATION_WINDOW: usize = 600;

/// See [`SATURATION_WINDOW`].
pub(crate) const SATURATION_MIN_NEW: usize = 30;

/// Country-proportional session sampler with saturation detection.
#[derive(Debug)]
pub struct Sampler {
    countries: Vec<CountryCode>,
    cumulative: Vec<u64>,
    total_weight: u64,
    rng: SimRng,
    next_session: u64,
    seen: HashSet<ZId>,
    window: VecDeque<bool>,
    /// How many entries of `window` are `true`, kept in step with it so
    /// [`Sampler::saturated`] never walks the window.
    fresh_in_window: usize,
}

impl Sampler {
    /// Build from the service's reported per-country exit counts.
    ///
    /// # Panics
    /// Panics if `reported` is empty or all-zero.
    pub fn new(reported: &[(CountryCode, usize)], rng: SimRng) -> Self {
        let mut countries = Vec::with_capacity(reported.len());
        let mut cumulative = Vec::with_capacity(reported.len());
        let mut acc = 0u64;
        for (cc, n) in reported {
            if *n == 0 {
                continue;
            }
            acc += *n as u64;
            countries.push(*cc);
            cumulative.push(acc);
        }
        assert!(acc > 0, "no exit nodes reported anywhere");
        Sampler {
            countries,
            cumulative,
            total_weight: acc,
            rng,
            next_session: 1,
            seen: HashSet::new(),
            window: VecDeque::new(),
            fresh_in_window: 0,
        }
    }

    /// Start session numbering at `base` instead of 1. The parallel
    /// executor gives each shard a disjoint session range so merged
    /// evidence logs never show two shards reusing one session id.
    pub fn with_session_base(mut self, base: u64) -> Self {
        self.next_session = base;
        self
    }

    /// Next `(country, session)` pair to probe.
    pub fn next_probe(&mut self) -> (CountryCode, u64) {
        let x = self.rng.random_range(0..self.total_weight);
        let idx = self.cumulative.partition_point(|&c| c <= x);
        let session = self.next_session;
        self.next_session += 1;
        (self.countries[idx], session)
    }

    /// Record the zID a probe reached. Returns true if it was new.
    pub fn record(&mut self, zid: &ZId) -> bool {
        let new = self.seen.insert(*zid);
        self.push_outcome(new);
        new
    }

    /// Record a probe that failed to reach any node.
    pub fn record_miss(&mut self) {
        self.push_outcome(false);
    }

    fn push_outcome(&mut self, new: bool) {
        self.window.push_back(new);
        self.fresh_in_window += usize::from(new);
        if self.window.len() > SATURATION_WINDOW && self.window.pop_front() == Some(true) {
            self.fresh_in_window -= 1;
        }
    }

    /// True when the discovery rate over the window has collapsed.
    pub fn saturated(&self) -> bool {
        self.window.len() >= SATURATION_WINDOW && self.fresh_in_window < SATURATION_MIN_NEW
    }

    /// Unique nodes discovered.
    pub fn unique_nodes(&self) -> usize {
        self.seen.len()
    }
}

/// Fetch `http://{name}/` through `opts` with the unique probe name `name`
/// provisioned for exactly that fetch: its A record, an NXDOMAIN override
/// for every resolver outside `allow_only` when one is given, and `page`
/// as its content, routed under the name's own text. The logs keep the
/// evidence, each entry a refcount on `name`, and nothing reads the name
/// or its route after the fetch: a monitor's refetch reads no route and
/// resolves no DNS.
pub(crate) fn fetch_probe_name(
    world: &mut World,
    opts: &UsernameOptions,
    name: &DnsName,
    page: &[u8],
    allow_only: Option<Net>,
) -> Result<ProxyResponse, ProxyError> {
    let web_ip = world.web_ip();
    let auth = world.auth_server_mut();
    // tft-lint: allow(hot-path-alloc, reason = "a DnsName clone bumps the refcount of its one Arc<str>")
    auth.zone_mut().add_a(name.clone(), web_ip);
    if let Some(net) = allow_only {
        // tft-lint: allow(hot-path-alloc, reason = "a DnsName clone bumps the refcount of its one Arc<str>")
        auth.set_override(name.clone(), AnswerOverride::NxdomainUnlessFrom(vec![net]));
    }
    world
        .web_server_mut()
        .put_name(name, "/", Response::ok("text/html", page.to_vec()));
    let fetched = world.proxy_get(opts, &Uri::http(name.as_str(), "/"));
    let auth = world.auth_server_mut();
    auth.zone_mut().remove(name);
    if allow_only.is_some() {
        auth.clear_override(name);
    }
    world.web_server_mut().remove(name.as_str(), "/");
    fetched
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    fn sampler(counts: &[(&str, usize)]) -> Sampler {
        let reported: Vec<(CountryCode, usize)> = counts.iter().map(|(c, n)| (cc(c), *n)).collect();
        Sampler::new(&reported, SimRng::new(5))
    }

    #[test]
    fn sampling_is_roughly_proportional() {
        let mut s = sampler(&[("US", 9000), ("MY", 1000)]);
        let mut us = 0;
        let n = 5_000;
        for _ in 0..n {
            let (c, _) = s.next_probe();
            if c == cc("US") {
                us += 1;
            }
        }
        let frac = us as f64 / n as f64;
        assert!((0.87..0.93).contains(&frac), "US fraction {frac}");
    }

    #[test]
    fn sessions_are_unique() {
        let mut s = sampler(&[("US", 10)]);
        let a = s.next_probe().1;
        let b = s.next_probe().1;
        assert_ne!(a, b);
    }

    #[test]
    fn zero_weight_countries_never_sampled() {
        let mut s = sampler(&[("US", 100), ("KP", 0)]);
        for _ in 0..1000 {
            assert_eq!(s.next_probe().0, cc("US"));
        }
    }

    #[test]
    fn saturation_triggers_when_discovery_dries_up() {
        let mut s = sampler(&[("US", 10)]);
        // Discover 10 distinct nodes, then keep hitting them.
        for i in 0..10 {
            assert!(s.record(&ZId(i as u64)));
        }
        assert!(!s.saturated(), "window not yet full");
        for i in 0..SATURATION_WINDOW {
            s.record(&ZId((i % 10) as u64));
        }
        assert!(s.saturated());
        assert_eq!(s.unique_nodes(), 10);
    }

    #[test]
    fn fresh_discoveries_defer_saturation() {
        let mut s = sampler(&[("US", 10)]);
        for i in 0..2 * SATURATION_WINDOW {
            s.record(&ZId(i as u64));
        }
        assert!(!s.saturated(), "constant discovery never saturates");
    }

    #[test]
    fn saturation_matches_a_recount_of_the_window() {
        let mut s = sampler(&[("US", 10)]);
        let mut rng = SimRng::new(0x5A7);
        let mut outcomes: Vec<bool> = Vec::new();
        let (mut next_zid, mut saw_saturated, mut saw_open) = (0u64, false, false);
        for step in 0..6 * SATURATION_WINDOW {
            // Alternate windows of brisk and sparse discovery so the
            // sampler crosses the threshold both ways.
            let p_new = [0.08, 0.02][(step / SATURATION_WINDOW) % 2];
            if rng.random_bool(0.1) {
                s.record_miss();
                outcomes.push(false);
            } else if rng.random_bool(p_new) {
                next_zid += 1;
                outcomes.push(s.record(&ZId(next_zid)));
            } else {
                outcomes.push(s.record(&ZId(rng.random_range(0..=next_zid))));
            }
            let tail = &outcomes[outcomes.len().saturating_sub(SATURATION_WINDOW)..];
            let full = tail.len() == SATURATION_WINDOW;
            let expected = full && tail.iter().filter(|&&b| b).count() < SATURATION_MIN_NEW;
            assert_eq!(s.saturated(), expected, "step {step}");
            saw_saturated |= expected;
            saw_open |= full && !expected;
        }
        assert!(
            saw_saturated && saw_open,
            "the sequence crosses the threshold"
        );
    }

    #[test]
    #[should_panic(expected = "no exit nodes")]
    fn empty_report_panics() {
        sampler(&[]);
    }
}
