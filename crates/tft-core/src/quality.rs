//! Probe-outcome taxonomy and the data-quality ledger.
//!
//! Under a fault campaign, probes fail in ways the paper's pipeline never
//! had to distinguish: a stalled exchange that ate the request budget is
//! not a hijack, a truncated body is not an injection, and a corrupted
//! payload is not tampering evidence. Every experiment classifies each
//! issued probe into the [`ProbeOutcome`] taxonomy and records it here, per
//! requested country; damaged payloads are **quarantined** — excluded from
//! violation analysis — rather than miscounted. The report's data-quality
//! annex ([`crate::report::annex`]) renders this ledger and warns when
//! fault losses push a country below the study's minimum-node thresholds.
//!
//! The ledger is pure bookkeeping: recording an outcome draws no
//! randomness, so worlds without faults produce the same streams they
//! always did, just with an all-`ok` ledger attached.

use inetdb::CountryCode;
use proxynet::{ProxyError, TimelineDebug};
use std::collections::BTreeMap;

/// What ultimately happened to one issued probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// Delivered on the first attempt; full-fidelity evidence.
    Ok,
    /// Delivered after `n` failed attempts; evidence intact, budget spent.
    Retried(usize),
    /// The per-request deadline elapsed; no evidence.
    TimedOut,
    /// The payload arrived as a strict prefix of what was sent; quarantined.
    Truncated,
    /// The payload failed an integrity check (inconsistent across repeated
    /// fetches, undecodable handshake); quarantined.
    Quarantined,
}

/// Per-group tallies of probe dispositions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QualityCounts {
    /// Probes delivered first try.
    pub ok: usize,
    /// Probes delivered after at least one retry.
    pub retried: usize,
    /// Total failed attempts behind the `retried` probes.
    pub retry_attempts: usize,
    /// Probes lost to the request deadline.
    pub timed_out: usize,
    /// Probes quarantined as truncated payloads.
    pub truncated: usize,
    /// Probes quarantined on other integrity failures.
    pub quarantined: usize,
    /// Probes lost to other proxy failures (all retries failed, churn
    /// mid-pair).
    pub failed: usize,
}

impl QualityCounts {
    /// Record one disposition.
    pub fn record(&mut self, outcome: ProbeOutcome) {
        match outcome {
            ProbeOutcome::Ok => self.ok += 1,
            ProbeOutcome::Retried(n) => {
                self.retried += 1;
                self.retry_attempts += n;
            }
            ProbeOutcome::TimedOut => self.timed_out += 1,
            ProbeOutcome::Truncated => self.truncated += 1,
            ProbeOutcome::Quarantined => self.quarantined += 1,
        }
    }

    /// Probes that produced usable evidence.
    pub fn delivered(&self) -> usize {
        self.ok + self.retried
    }

    /// Probes whose evidence was lost or excluded.
    pub fn lost(&self) -> usize {
        self.timed_out + self.truncated + self.quarantined + self.failed
    }

    /// Evidence excluded by the quarantine rule specifically.
    pub fn in_quarantine(&self) -> usize {
        self.truncated + self.quarantined
    }

    /// All dispositions recorded.
    pub fn total(&self) -> usize {
        self.delivered() + self.lost()
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &QualityCounts) {
        self.ok += other.ok;
        self.retried += other.retried;
        self.retry_attempts += other.retry_attempts;
        self.timed_out += other.timed_out;
        self.truncated += other.truncated;
        self.quarantined += other.quarantined;
        self.failed += other.failed;
    }
}

/// One experiment's data-quality ledger, keyed by the country requested
/// for the probe. `BTreeMap`: the ledger is merged across shards and
/// rendered into the annex, so iteration order must be canonical.
#[derive(Debug, Clone, Default)]
pub struct DataQuality {
    /// Per-country dispositions.
    pub per_country: BTreeMap<CountryCode, QualityCounts>,
}

impl DataQuality {
    /// Record one probe disposition.
    pub fn record(&mut self, country: CountryCode, outcome: ProbeOutcome) {
        self.per_country.entry(country).or_default().record(outcome);
    }

    /// Record a probe lost to a proxy failure that is neither a timeout
    /// nor an integrity problem.
    pub fn record_failure(&mut self, country: CountryCode) {
        self.per_country.entry(country).or_default().failed += 1;
    }

    /// Classify a proxy error and record it: deadline exhaustion becomes
    /// [`ProbeOutcome::TimedOut`], everything else a plain failure.
    pub fn record_error(&mut self, country: CountryCode, err: &ProxyError) {
        match err {
            ProxyError::DeadlineExceeded(_) => self.record(country, ProbeOutcome::TimedOut),
            _ => self.record_failure(country),
        }
    }

    /// Fold another ledger into this one (shard merge).
    pub fn merge(&mut self, other: &DataQuality) {
        for (cc, counts) in &other.per_country {
            self.per_country.entry(*cc).or_default().merge(counts);
        }
    }

    /// Tallies summed over every country.
    pub fn totals(&self) -> QualityCounts {
        let mut t = QualityCounts::default();
        for counts in self.per_country.values() {
            t.merge(counts);
        }
        t
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_country.is_empty()
    }
}

/// The delivery-side disposition of a successful response: `Ok` or
/// `Retried(n)` from the attempt timeline (`n` = failed attempts before
/// the final success).
pub fn delivery_outcome(debug: &TimelineDebug) -> ProbeOutcome {
    let failed = debug.attempts.len().saturating_sub(1);
    if failed == 0 {
        ProbeOutcome::Ok
    } else {
        ProbeOutcome::Retried(failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxynet::{Attempt, AttemptOutcome, ZId};

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    fn timeline(outcomes: &[AttemptOutcome]) -> TimelineDebug {
        TimelineDebug {
            attempts: outcomes
                .iter()
                .enumerate()
                .map(|(i, o)| Attempt {
                    zid: ZId(i as u64),
                    outcome: *o,
                })
                .collect(),
        }
    }

    #[test]
    fn counts_partition_into_delivered_and_lost() {
        let mut c = QualityCounts::default();
        c.record(ProbeOutcome::Ok);
        c.record(ProbeOutcome::Retried(3));
        c.record(ProbeOutcome::TimedOut);
        c.record(ProbeOutcome::Truncated);
        c.record(ProbeOutcome::Quarantined);
        c.failed += 1;
        assert_eq!(c.delivered(), 2);
        assert_eq!(c.lost(), 4);
        assert_eq!(c.in_quarantine(), 2);
        assert_eq!(c.total(), 6);
        assert_eq!(c.retry_attempts, 3);
    }

    #[test]
    fn ledger_merges_per_country() {
        let mut a = DataQuality::default();
        a.record(cc("IR"), ProbeOutcome::Ok);
        a.record(cc("IR"), ProbeOutcome::Truncated);
        let mut b = DataQuality::default();
        b.record(cc("IR"), ProbeOutcome::Quarantined);
        b.record(cc("US"), ProbeOutcome::Ok);
        b.record_failure(cc("US"));
        a.merge(&b);
        assert_eq!(a.per_country[&cc("IR")].in_quarantine(), 2);
        assert_eq!(a.per_country[&cc("US")].failed, 1);
        let t = a.totals();
        assert_eq!(t.total(), 5);
        assert_eq!(t.delivered(), 2);
    }

    #[test]
    fn error_classification_separates_deadline_from_failure() {
        let mut q = DataQuality::default();
        q.record_error(
            cc("ZA"),
            &ProxyError::DeadlineExceeded(timeline(&[AttemptOutcome::TimedOut])),
        );
        q.record_error(
            cc("ZA"),
            &ProxyError::AllRetriesFailed(timeline(&[AttemptOutcome::Flaked])),
        );
        q.record_error(cc("ZA"), &ProxyError::NoExitAvailable);
        let c = q.per_country[&cc("ZA")];
        assert_eq!(c.timed_out, 1);
        assert_eq!(c.failed, 2);
    }

    #[test]
    fn delivery_outcome_counts_failed_attempts() {
        assert_eq!(
            delivery_outcome(&timeline(&[AttemptOutcome::Success])),
            ProbeOutcome::Ok
        );
        assert_eq!(
            delivery_outcome(&timeline(&[
                AttemptOutcome::Offline,
                AttemptOutcome::Flaked,
                AttemptOutcome::Success
            ])),
            ProbeOutcome::Retried(2)
        );
    }
}
