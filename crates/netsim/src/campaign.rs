//! Scriptable, deterministic fault campaigns.
//!
//! A campaign is an ordered list of rules, each binding a fault *profile*
//! (probabilistic injector, hard outage, or flapping link) to a *scope*
//! (everything, one region, one ISP, one node — or any conjunction) and an
//! optional virtual-time window. The transport evaluates the campaign once
//! per delivery attempt against a [`FaultTarget`] describing where the
//! message is headed.
//!
//! Determinism: probabilistic rules draw from the caller's `SimRng` (in the
//! proxy layer that is the per-request fork keyed by admission time), and
//! flapping is a pure function of virtual time and the node id — no rule
//! ever reads wall clock, thread identity, or global state. A campaign
//! therefore replays byte-identically at any worker count. Rules whose
//! profile cannot interfere draw nothing, so an empty or inert campaign
//! leaves every existing RNG stream untouched.

use crate::fault::{FaultInjector, FaultVerdict};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Where a message is headed, for scope matching.
#[derive(Debug, Clone, Copy)]
pub struct FaultTarget<'a> {
    /// Destination region (country code in the proxy world).
    pub region: &'a str,
    /// Destination ISP (AS number in the proxy world).
    pub isp: u64,
    /// Destination node id.
    pub node: u64,
}

/// Which traffic a rule applies to: a conjunction of optional constraints
/// (all-`None` matches everything).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScope {
    /// Match only this region.
    pub region: Option<String>,
    /// Match only this ISP.
    pub isp: Option<u64>,
    /// Match only this node.
    pub node: Option<u64>,
}

impl FaultScope {
    /// Match all traffic.
    pub fn all() -> Self {
        FaultScope::default()
    }

    /// Match one region.
    pub fn region(region: impl Into<String>) -> Self {
        FaultScope {
            region: Some(region.into()),
            ..FaultScope::default()
        }
    }

    /// Match one ISP.
    pub fn isp(isp: u64) -> Self {
        FaultScope {
            isp: Some(isp),
            ..FaultScope::default()
        }
    }

    /// Match one node.
    pub fn node(node: u64) -> Self {
        FaultScope {
            node: Some(node),
            ..FaultScope::default()
        }
    }

    /// Does `target` satisfy every constraint?
    pub fn matches(&self, target: &FaultTarget<'_>) -> bool {
        self.region.as_deref().is_none_or(|r| r == target.region)
            && self.isp.is_none_or(|i| i == target.isp)
            && self.node.is_none_or(|n| n == target.node)
    }
}

/// What a matching rule does to traffic in its scope and window.
#[derive(Debug, Clone)]
pub enum FaultProfile {
    /// Probabilistic interference (drop / corrupt / truncate / stall /
    /// delay-spike chances).
    Inject(FaultInjector),
    /// Hard outage: every message is dropped.
    Outage,
    /// Flapping link: a deterministic square wave, `up` online then `down`
    /// offline, phase-shifted per node so a region's nodes don't all flap
    /// in lockstep. During a down phase every message is dropped. Draws no
    /// randomness.
    Flap {
        /// Length of the online phase.
        up: SimDuration,
        /// Length of the offline phase.
        down: SimDuration,
    },
}

impl FaultProfile {
    /// True when the profile can never interfere with traffic.
    fn is_inert(&self) -> bool {
        match self {
            FaultProfile::Inject(inj) => inj.is_none(),
            FaultProfile::Outage => false,
            FaultProfile::Flap { down, .. } => down.is_zero(),
        }
    }
}

/// One campaign rule: scope + optional time window + profile.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Which traffic this rule applies to.
    pub scope: FaultScope,
    /// Half-open virtual-time window `[start, end)`; `None` means always.
    pub window: Option<(SimTime, SimTime)>,
    /// What happens to matching traffic.
    pub profile: FaultProfile,
}

impl FaultRule {
    /// Is this rule active at virtual time `at`?
    fn active_at(&self, at: SimTime) -> bool {
        match self.window {
            None => true,
            Some((start, end)) => at >= start && at < end,
        }
    }
}

/// A scripted fault campaign: rules are consulted in order and the first
/// one that actually interferes decides the message's fate.
#[derive(Debug, Clone, Default)]
pub struct FaultCampaign {
    /// The rules, in priority order.
    pub rules: Vec<FaultRule>,
}

impl FaultCampaign {
    /// A campaign that never interferes.
    pub fn none() -> Self {
        FaultCampaign::default()
    }

    /// A campaign applying one injector to all traffic at all times: a
    /// uniformly lossy or noisy link. It draws exactly what the injector
    /// alone draws.
    pub fn uniform(injector: FaultInjector) -> Self {
        if injector.is_none() {
            return FaultCampaign::none();
        }
        FaultCampaign {
            rules: vec![FaultRule {
                scope: FaultScope::all(),
                window: None,
                profile: FaultProfile::Inject(injector),
            }],
        }
    }

    /// Add a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True when no rule can ever interfere.
    pub fn is_none(&self) -> bool {
        self.rules.iter().all(|r| r.profile.is_inert())
    }

    /// Decide the fate of one message headed for `target` at virtual time
    /// `at`. Rules are evaluated in order; the first non-clean verdict
    /// wins. Inert and non-matching rules draw nothing from `rng`.
    pub fn judge(&self, target: &FaultTarget<'_>, at: SimTime, rng: &mut SimRng) -> FaultVerdict {
        for rule in &self.rules {
            if rule.profile.is_inert() || !rule.active_at(at) || !rule.scope.matches(target) {
                continue;
            }
            let verdict = match &rule.profile {
                FaultProfile::Inject(inj) => inj.judge(rng),
                FaultProfile::Outage => FaultVerdict::Drop,
                FaultProfile::Flap { up, down } => {
                    if flap_is_down(target.node, at, *up, *down) {
                        FaultVerdict::Drop
                    } else {
                        continue;
                    }
                }
            };
            if !verdict.is_clean() {
                return verdict;
            }
        }
        FaultVerdict::Deliver {
            extra_delay: SimDuration::ZERO,
        }
    }
}

/// Deterministic flapping wave: node `node` is down at time `at` when the
/// phase-shifted position inside the `up + down` period falls in the down
/// phase. The per-node phase comes from a splitmix64 hash of the node id,
/// so a region's nodes flap out of lockstep but identically on every run.
fn flap_is_down(node: u64, at: SimTime, up: SimDuration, down: SimDuration) -> bool {
    let period = up.as_millis().saturating_add(down.as_millis());
    if period == 0 || down.is_zero() {
        return false;
    }
    let phase = splitmix64(node) % period;
    let pos = (at.as_millis().wrapping_add(phase)) % period;
    pos >= up.as_millis()
}

/// The splitmix64 finalizer: a cheap, stable 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn target(region: &str, isp: u64, node: u64) -> FaultTarget<'_> {
        FaultTarget { region, isp, node }
    }

    #[test]
    fn empty_campaign_is_inert_and_draws_nothing() {
        let c = FaultCampaign::none();
        assert!(c.is_none());
        let mut rng = SimRng::new(1);
        let before = rng.clone().next_u64();
        let v = c.judge(&target("US", 1, 1), SimTime::from_millis(0), &mut rng);
        assert!(v.is_clean());
        assert_eq!(rng.next_u64(), before, "no draws on the clean path");
    }

    #[test]
    fn uniform_of_none_is_none() {
        assert!(FaultCampaign::uniform(FaultInjector::none()).is_none());
        assert!(!FaultCampaign::uniform(FaultInjector::lossy(0.5)).is_none());
    }

    #[test]
    fn scope_conjunction_matches() {
        let s = FaultScope {
            region: Some("IR".into()),
            isp: Some(42),
            node: None,
        };
        assert!(s.matches(&target("IR", 42, 7)));
        assert!(!s.matches(&target("IR", 43, 7)));
        assert!(!s.matches(&target("US", 42, 7)));
        assert!(FaultScope::all().matches(&target("ZZ", 0, 0)));
        assert!(FaultScope::node(7).matches(&target("ZZ", 0, 7)));
        assert!(!FaultScope::node(7).matches(&target("ZZ", 0, 8)));
    }

    #[test]
    fn windowed_outage_applies_only_inside_the_window() {
        let c = FaultCampaign::none().with_rule(FaultRule {
            scope: FaultScope::region("IR"),
            window: Some((SimTime::from_millis(1000), SimTime::from_millis(2000))),
            profile: FaultProfile::Outage,
        });
        let mut rng = SimRng::new(2);
        let t = target("IR", 1, 1);
        assert!(c.judge(&t, SimTime::from_millis(999), &mut rng).is_clean());
        assert_eq!(
            c.judge(&t, SimTime::from_millis(1000), &mut rng),
            FaultVerdict::Drop
        );
        assert_eq!(
            c.judge(&t, SimTime::from_millis(1999), &mut rng),
            FaultVerdict::Drop
        );
        assert!(c.judge(&t, SimTime::from_millis(2000), &mut rng).is_clean());
        // Out of scope entirely:
        assert!(c
            .judge(&target("US", 1, 1), SimTime::from_millis(1500), &mut rng)
            .is_clean());
    }

    #[test]
    fn flap_wave_is_deterministic_and_phase_shifted() {
        let up = SimDuration::from_secs(10);
        let down = SimDuration::from_secs(5);
        // Over one full period every node is down exactly `down` long.
        for node in [0u64, 1, 2, 99] {
            let down_ms = (0..15_000)
                .filter(|ms| flap_is_down(node, SimTime::from_millis(*ms), up, down))
                .count();
            assert_eq!(down_ms, 5_000, "node {node}");
            // Same node, same answer, always.
            assert_eq!(
                flap_is_down(node, SimTime::from_millis(1234), up, down),
                flap_is_down(node, SimTime::from_millis(1234), up, down)
            );
        }
        // Phases differ across nodes (these four are not in lockstep).
        let probe = |node| flap_is_down(node, SimTime::from_millis(0), up, down);
        let states: Vec<bool> = [0u64, 1, 2, 99].iter().map(|&n| probe(n)).collect();
        assert!(
            states.iter().any(|&s| s != states[0]),
            "all nodes flap in lockstep: {states:?}"
        );
    }

    #[test]
    fn first_interfering_rule_wins() {
        let c = FaultCampaign::none()
            .with_rule(FaultRule {
                scope: FaultScope::isp(42),
                window: None,
                profile: FaultProfile::Outage,
            })
            .with_rule(FaultRule {
                scope: FaultScope::all(),
                window: None,
                profile: FaultProfile::Inject(FaultInjector {
                    truncate_chance: 1.0,
                    ..FaultInjector::none()
                }),
            });
        let mut rng = SimRng::new(3);
        assert_eq!(
            c.judge(&target("US", 42, 1), SimTime::from_millis(0), &mut rng),
            FaultVerdict::Drop
        );
        assert_eq!(
            c.judge(&target("US", 7, 1), SimTime::from_millis(0), &mut rng),
            FaultVerdict::Truncate {
                extra_delay: SimDuration::ZERO
            }
        );
    }
}
