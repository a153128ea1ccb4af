//! Property tests for the simulation kernel.

use netsim::{Cdf, Scheduler, SimDuration, SimTime};
use substrate::qc::{self, Config, Gen};
use substrate::{qc_assert, qc_assert_eq};

fn delays(hi: u64, max: usize) -> Gen<Vec<u64>> {
    qc::vec_of(qc::ints(0u64..hi), 1..max)
}

/// The scheduler fires events in (time, insertion) order regardless of
/// insertion order — checked against a reference sort.
#[test]
fn scheduler_matches_reference_order() {
    qc::check(
        "scheduler vs reference order",
        &Config::default(),
        &delays(10_000, 200),
        |delays| {
            let mut s = Scheduler::new();
            for (i, &d) in delays.iter().enumerate() {
                s.schedule(SimDuration::from_millis(d), i);
            }
            let fired: Vec<(u64, usize)> = std::iter::from_fn(|| s.next())
                .map(|f| (f.at.as_millis(), f.payload))
                .collect();
            let mut expected: Vec<(u64, usize)> =
                delays.iter().enumerate().map(|(i, &d)| (d, i)).collect();
            expected.sort();
            qc_assert_eq!(fired, expected);
            qc::pass()
        },
    );
}

/// The clock never runs backwards.
#[test]
fn clock_is_monotone() {
    qc::check(
        "clock monotone",
        &Config::default(),
        &delays(5_000, 100),
        |delays| {
            let mut s = Scheduler::new();
            for (i, &d) in delays.iter().enumerate() {
                s.schedule(SimDuration::from_millis(d), i);
            }
            let mut last = SimTime::EPOCH;
            while let Some(f) = s.next() {
                qc_assert!(f.at >= last);
                last = f.at;
            }
            qc::pass()
        },
    );
}

/// Checked time arithmetic obeys the algebraic laws on non-overflowing
/// inputs, and agrees with wide (u128) reference arithmetic — the release
/// build used to wrap silently here, which breaks every one of these laws.
#[test]
fn time_arithmetic_laws() {
    qc::check(
        "time arithmetic laws",
        &Config::default(),
        &qc::tuple3(
            qc::ints(0u64..1 << 40),
            qc::ints(0u64..1 << 40),
            qc::ints(1u64..1 << 20),
        ),
        |(t_ms, d_ms, k)| {
            let t = SimTime::from_millis(*t_ms);
            let d = SimDuration::from_millis(*d_ms);

            // Add agrees with wide-integer reference arithmetic.
            let wide = *t_ms as u128 + *d_ms as u128;
            qc_assert_eq!((t + d).as_millis() as u128, wide);

            // Round-trips: (t + d) - d == t, (t + d).since(t) == d.
            qc_assert_eq!((t + d) - d, t);
            qc_assert_eq!((t + d).since(t), d);
            qc_assert_eq!((d + d) - d, d);

            // AddAssign is Add.
            let mut t2 = t;
            t2 += d;
            qc_assert_eq!(t2, t + d);
            let mut d2 = d;
            d2 += d;
            qc_assert_eq!(d2, d + d);

            // Mul agrees with wide arithmetic and Div inverts it (k > 0).
            let wide_mul = *d_ms as u128 * *k as u128;
            qc_assert_eq!((d * *k).as_millis() as u128, wide_mul);
            qc_assert_eq!(d * *k / *k, d);

            // Saturating forms agree with checked forms when nothing
            // saturates.
            qc_assert_eq!(t.saturating_add(d), t + d);
            qc_assert_eq!((d + d).saturating_sub(d), d);
            qc::pass()
        },
    );
}

/// CDF fraction_at is monotone and bounded in [0,1].
#[test]
fn cdf_monotone() {
    qc::check(
        "cdf monotone",
        &Config::default(),
        &qc::tuple2(
            qc::vec_of(qc::floats(0.0..1e6), 1..200),
            qc::vec_of(qc::floats(0.0..1e6), 1..50),
        ),
        |(samples, probes)| {
            let cdf = Cdf::new(samples.clone());
            let mut sorted = probes.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = 0.0;
            for p in sorted {
                let f = cdf.fraction_at(p);
                qc_assert!((0.0..=1.0).contains(&f));
                qc_assert!(f >= last);
                last = f;
            }
            qc::pass()
        },
    );
}
