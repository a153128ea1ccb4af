//! Fault injection for the simulated transport.
//!
//! Mirrors the smoltcp example knobs plus the two failure shapes the chaos
//! campaigns need: a drop chance, a corrupt chance (mutate one octet), a
//! truncate chance (deliver a strict prefix), a stall chance (the reply
//! arrives only after the client's deadline), and an extra-delay spike. The
//! proxy layer uses drops to exercise Luminati's automatic retry path;
//! wire-format code uses corruption and truncation to prove parsers reject
//! mangled input instead of panicking.

use crate::latency::Latency;
use crate::rng::{RngExt, SimRng};
use crate::time::SimDuration;
use std::fmt;

/// What the fault injector decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultVerdict {
    /// Deliver unmodified after the given extra delay (possibly zero).
    Deliver {
        /// Delay spike to add on top of normal path latency.
        extra_delay: SimDuration,
    },
    /// Deliver after mutating one octet of the payload.
    CorruptAndDeliver {
        /// Delay spike to add on top of normal path latency.
        extra_delay: SimDuration,
    },
    /// Deliver only a strict prefix of the payload.
    Truncate {
        /// Delay spike to add on top of normal path latency.
        extra_delay: SimDuration,
    },
    /// The reply exists but arrives after the client's deadline — from the
    /// client's point of view the request times out.
    Stall,
    /// Silently drop the message.
    Drop,
}

impl FaultVerdict {
    /// True when this verdict delivers the payload unmodified with no extra
    /// delay — the "nothing happened" outcome.
    pub fn is_clean(&self) -> bool {
        matches!(
            self,
            FaultVerdict::Deliver { extra_delay } if extra_delay.is_zero()
        )
    }

    /// The delay spike this verdict adds (zero for `Stall`/`Drop`, which
    /// never deliver in time).
    pub fn extra_delay(&self) -> SimDuration {
        match self {
            FaultVerdict::Deliver { extra_delay }
            | FaultVerdict::CorruptAndDeliver { extra_delay }
            | FaultVerdict::Truncate { extra_delay } => *extra_delay,
            FaultVerdict::Stall | FaultVerdict::Drop => SimDuration::ZERO,
        }
    }
}

/// A probability field held a value outside `[0, 1]` (or NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfigError {
    /// Which probability field was out of range.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault probability `{}` = {} is not in [0, 1]",
            self.field, self.value
        )
    }
}

impl std::error::Error for FaultConfigError {}

/// Clamp a probability into `[0, 1]`, treating NaN as 0.
fn sane(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// Probabilistic fault injector.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    /// Probability in `[0,1]` that a message is dropped.
    pub drop_chance: f64,
    /// Probability in `[0,1]` that one octet is corrupted.
    pub corrupt_chance: f64,
    /// Probability in `[0,1]` that only a strict prefix is delivered.
    pub truncate_chance: f64,
    /// Probability in `[0,1]` that the reply arrives after the deadline.
    pub stall_chance: f64,
    /// Probability in `[0,1]` that a delay spike is added.
    pub delay_chance: f64,
    /// The delay spike distribution.
    pub delay_spike: Latency,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// An injector that never interferes.
    pub fn none() -> Self {
        FaultInjector {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            truncate_chance: 0.0,
            stall_chance: 0.0,
            delay_chance: 0.0,
            delay_spike: Latency::fixed(0),
        }
    }

    /// A lossy-link profile: the smoltcp examples' suggested starting point.
    pub fn lossy(drop_chance: f64) -> Self {
        FaultInjector {
            drop_chance,
            ..FaultInjector::none()
        }
    }

    /// Validating constructor: every probability must already be a real
    /// number in `[0, 1]`, otherwise the offending field is reported.
    /// (`random_bool` panics on out-of-range probabilities; configs built
    /// from parsed input should go through here.)
    pub fn validated(
        drop_chance: f64,
        corrupt_chance: f64,
        truncate_chance: f64,
        stall_chance: f64,
        delay_chance: f64,
        delay_spike: Latency,
    ) -> Result<Self, FaultConfigError> {
        for (field, value) in [
            ("drop_chance", drop_chance),
            ("corrupt_chance", corrupt_chance),
            ("truncate_chance", truncate_chance),
            ("stall_chance", stall_chance),
            ("delay_chance", delay_chance),
        ] {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(FaultConfigError { field, value });
            }
        }
        Ok(FaultInjector {
            drop_chance,
            corrupt_chance,
            truncate_chance,
            stall_chance,
            delay_chance,
            delay_spike,
        })
    }

    /// True if this injector can never interfere.
    pub fn is_none(&self) -> bool {
        sane(self.drop_chance) == 0.0
            && sane(self.corrupt_chance) == 0.0
            && sane(self.truncate_chance) == 0.0
            && sane(self.stall_chance) == 0.0
            && sane(self.delay_chance) == 0.0
    }

    /// Decide the fate of one message. Fields are sanitized on the way in
    /// (NaN → 0, clamp to `[0, 1]`), so direct struct construction with a
    /// bad probability misbehaves predictably instead of panicking. A
    /// zero-probability check draws nothing, so adding an inert fault class
    /// never shifts an existing RNG stream.
    pub fn judge(&self, rng: &mut SimRng) -> FaultVerdict {
        let drop_chance = sane(self.drop_chance);
        if drop_chance > 0.0 && rng.random_bool(drop_chance) {
            return FaultVerdict::Drop;
        }
        let delay_chance = sane(self.delay_chance);
        let extra_delay = if delay_chance > 0.0 && rng.random_bool(delay_chance) {
            self.delay_spike.sample(rng)
        } else {
            SimDuration::ZERO
        };
        let corrupt_chance = sane(self.corrupt_chance);
        if corrupt_chance > 0.0 && rng.random_bool(corrupt_chance) {
            return FaultVerdict::CorruptAndDeliver { extra_delay };
        }
        let truncate_chance = sane(self.truncate_chance);
        if truncate_chance > 0.0 && rng.random_bool(truncate_chance) {
            return FaultVerdict::Truncate { extra_delay };
        }
        let stall_chance = sane(self.stall_chance);
        if stall_chance > 0.0 && rng.random_bool(stall_chance) {
            return FaultVerdict::Stall;
        }
        FaultVerdict::Deliver { extra_delay }
    }

    /// Mutate one octet of `payload` in place (no-op on empty payloads).
    /// The mutation is guaranteed to change the byte.
    pub fn corrupt(rng: &mut SimRng, payload: &mut [u8]) {
        if payload.is_empty() {
            return;
        }
        let idx = rng.random_range(0..payload.len());
        let flip: u8 = rng.random_range(1..=255_u8);
        payload[idx] ^= flip;
    }

    /// Truncate `payload` to a strict prefix of itself (no-op on empty
    /// payloads): the delivered length is drawn uniformly from
    /// `0..payload.len()`.
    pub fn truncate(rng: &mut SimRng, payload: &mut Vec<u8>) {
        if payload.is_empty() {
            return;
        }
        let keep = rng.random_range(0..payload.len());
        payload.truncate(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use substrate::qc::{self, Config};
    use substrate::qc_assert;

    #[test]
    fn none_always_delivers_clean() {
        let inj = FaultInjector::none();
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert_eq!(
                inj.judge(&mut rng),
                FaultVerdict::Deliver {
                    extra_delay: SimDuration::ZERO
                }
            );
        }
    }

    #[test]
    fn drop_chance_one_always_drops() {
        let inj = FaultInjector::lossy(1.0);
        let mut rng = SimRng::new(2);
        for _ in 0..20 {
            assert_eq!(inj.judge(&mut rng), FaultVerdict::Drop);
        }
    }

    #[test]
    fn drop_rate_is_approximately_honored() {
        let inj = FaultInjector::lossy(0.15);
        let mut rng = SimRng::new(3);
        let drops = (0..10_000)
            .filter(|_| inj.judge(&mut rng) == FaultVerdict::Drop)
            .count();
        let rate = drops as f64 / 10_000.0;
        assert!((0.12..0.18).contains(&rate), "observed drop rate {rate}");
    }

    #[test]
    fn truncate_and_stall_chances_are_honored() {
        let inj = FaultInjector {
            truncate_chance: 1.0,
            ..FaultInjector::none()
        };
        let mut rng = SimRng::new(6);
        for _ in 0..20 {
            assert_eq!(
                inj.judge(&mut rng),
                FaultVerdict::Truncate {
                    extra_delay: SimDuration::ZERO
                }
            );
        }
        let inj = FaultInjector {
            stall_chance: 1.0,
            ..FaultInjector::none()
        };
        for _ in 0..20 {
            assert_eq!(inj.judge(&mut rng), FaultVerdict::Stall);
        }
    }

    #[test]
    fn new_zero_chance_checks_draw_nothing() {
        // The truncate/stall checks must not consume RNG values when their
        // probabilities are zero — existing seeded streams depend on it.
        let inj = FaultInjector::lossy(0.5);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            inj.judge(&mut a);
        }
        for _ in 0..100 {
            // Equivalent legacy-field-only decision sequence.
            if b.random_bool(0.5) {
                continue;
            }
        }
        assert_eq!(a.next_u64(), b.next_u64(), "streams diverged");
    }

    #[test]
    fn corrupt_changes_exactly_one_byte() {
        let mut rng = SimRng::new(4);
        let original = vec![0u8; 64];
        for _ in 0..50 {
            let mut copy = original.clone();
            FaultInjector::corrupt(&mut rng, &mut copy);
            let diffs = original.iter().zip(&copy).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1);
        }
    }

    #[test]
    fn corrupt_on_empty_is_noop() {
        let mut rng = SimRng::new(5);
        let mut empty: Vec<u8> = vec![];
        FaultInjector::corrupt(&mut rng, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn truncate_yields_strict_prefix() {
        let mut rng = SimRng::new(8);
        let original: Vec<u8> = (0..=255u8).collect();
        for _ in 0..50 {
            let mut copy = original.clone();
            FaultInjector::truncate(&mut rng, &mut copy);
            assert!(copy.len() < original.len(), "must be a strict prefix");
            assert_eq!(&original[..copy.len()], &copy[..]);
        }
        let mut empty: Vec<u8> = vec![];
        FaultInjector::truncate(&mut rng, &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn validated_rejects_out_of_range() {
        assert!(FaultInjector::validated(0.5, 0.0, 0.0, 0.0, 0.0, Latency::fixed(0)).is_ok());
        let err = FaultInjector::validated(f64::NAN, 0.0, 0.0, 0.0, 0.0, Latency::fixed(0))
            .expect_err("NaN must be rejected");
        assert_eq!(err.field, "drop_chance");
        let err = FaultInjector::validated(0.0, 0.0, 1.5, 0.0, 0.0, Latency::fixed(0))
            .expect_err(">1 must be rejected");
        assert_eq!(err.field, "truncate_chance");
        let err = FaultInjector::validated(0.0, 0.0, 0.0, 0.0, -0.1, Latency::fixed(0))
            .expect_err("negative must be rejected");
        assert_eq!(err.field, "delay_chance");
    }

    /// Any f64 whatsoever, including the values `random_bool` panics on.
    fn wild_chance() -> qc::Gen<f64> {
        qc::one_of(vec![
            qc::floats(-10.0..10.0),
            qc::just(f64::NAN),
            qc::just(f64::INFINITY),
            qc::just(f64::NEG_INFINITY),
            qc::just(-0.0),
            qc::just(1.0),
        ])
    }

    #[test]
    fn qc_judge_is_total_over_wild_probabilities() {
        qc::check(
            "fault injector total over wild probabilities",
            &Config::with_cases(256),
            &qc::tuple3(wild_chance(), wild_chance(), wild_chance()),
            |&(a, b, c)| {
                let inj = FaultInjector {
                    drop_chance: a,
                    corrupt_chance: b,
                    truncate_chance: c,
                    stall_chance: b,
                    delay_chance: a,
                    delay_spike: Latency::fixed(5),
                };
                // judge must sanitize internally: no panic for any input.
                let mut rng = SimRng::new(a.to_bits() ^ b.to_bits() ^ c.to_bits());
                for _ in 0..8 {
                    inj.judge(&mut rng);
                }
                // validated() accepts exactly the in-range values.
                let ok = FaultInjector::validated(a, b, c, b, a, Latency::fixed(5)).is_ok();
                let in_range = |p: f64| !p.is_nan() && (0.0..=1.0).contains(&p);
                qc_assert!(ok == (in_range(a) && in_range(b) && in_range(c)));
                qc::pass()
            },
        );
    }
}
