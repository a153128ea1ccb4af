//! A TTL-honoring resolver cache.
//!
//! Real recursive resolvers cache aggressively — which is exactly why the
//! paper generates a **unique domain name per probe**: a cached answer
//! would bypass the authoritative server and blind the measurement. This
//! cache makes that design constraint testable: wire it into a resolver
//! model and unique names always miss while repeated names stop hitting
//! the authority. And like a real resolver it forgets: an insert first
//! sweeps out the answers whose TTL has passed, once the cache has doubled
//! since its last sweep, so a run of unique names holds only the answers
//! still alive instead of every answer ever cached.

use crate::name::DnsName;
use crate::wire::{QType, Rcode, Record};
use netsim::{SimDuration, SimTime};
use std::collections::HashMap;

/// A cached answer: either records or a negative (NXDOMAIN/NODATA) entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedAnswer {
    /// Positive answer.
    Records(Vec<Record>),
    /// Negative answer with the rcode that produced it.
    Negative(Rcode),
}

#[derive(Debug, Clone)]
struct Entry {
    answer: CachedAnswer,
    expires: SimTime,
}

/// A `(name, qtype)`-keyed cache with per-record TTLs and a negative TTL.
///
/// Precondition: the times passed to one cache never decrease. The
/// insert-path sweep rests on it: an answer expired at an insert's `now`
/// is expired at every later `get` too, so dropping it changes no answer,
/// and a `get` counts an expired key as a miss whether or not it is still
/// stored, so the counters do not move either.
#[derive(Debug, Clone, Default)]
pub struct DnsCache {
    entries: HashMap<(DnsName, u16), Entry>,
    /// Twice the entries the last sweep kept (0 before the first): the
    /// next insert sweeps once the table holds this many, and at least
    /// [`SWEEP_FLOOR`].
    sweep_at: usize,
    hits: u64,
    misses: u64,
}

/// The smallest cache an insert sweeps: below it a sweep costs more than
/// the expired answers it frees.
const SWEEP_FLOOR: usize = 64;

/// Negative answers are cached for the zone's SOA minimum in real life; we
/// use a flat five minutes.
pub const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(300);

impl DnsCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a fresh entry.
    pub fn get(&mut self, name: &DnsName, qtype: QType, now: SimTime) -> Option<CachedAnswer> {
        let key = (name.clone(), qtype.code());
        match self.entries.get(&key) {
            Some(e) if e.expires > now => {
                self.hits += 1;
                Some(e.answer.clone())
            }
            Some(_) => {
                self.entries.remove(&key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a positive answer; the entry lives for the smallest record
    /// TTL.
    ///
    /// # Panics
    /// Panics on an empty record set — cache [`DnsCache::put_negative`]
    /// instead.
    pub fn put(&mut self, name: DnsName, qtype: QType, records: Vec<Record>, now: SimTime) {
        assert!(!records.is_empty(), "positive entries need records");
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "documented API-contract panic: the assert above guarantees records is non-empty")
        let ttl = records.iter().map(|r| r.ttl).min().expect("non-empty");
        let expires = now + SimDuration::from_secs(ttl as u64);
        self.insert(name, qtype, CachedAnswer::Records(records), expires, now);
    }

    /// Insert a negative answer.
    pub fn put_negative(&mut self, name: DnsName, qtype: QType, rcode: Rcode, now: SimTime) {
        let expires = now + NEGATIVE_TTL;
        self.insert(name, qtype, CachedAnswer::Negative(rcode), expires, now);
    }

    /// Store an answer, sweeping expired ones first once the cache has
    /// doubled since the last sweep: the sweep's cost is then at most one
    /// step per insert.
    fn insert(
        &mut self,
        name: DnsName,
        qtype: QType,
        answer: CachedAnswer,
        expires: SimTime,
        now: SimTime,
    ) {
        if self.entries.len() >= self.sweep_at.max(SWEEP_FLOOR) {
            self.sweep(now);
            self.sweep_at = 2 * self.entries.len();
        }
        self.entries
            .insert((name, qtype.code()), Entry { answer, expires });
    }

    /// Entries currently stored (including expired-but-unswept): at most
    /// the sweep floor of 64 entries or twice the unexpired entries the
    /// last sweep kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Remove expired entries.
    pub fn sweep(&mut self, now: SimTime) {
        self.entries.retain(|_, e| e.expires > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::RData;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn a_record(n: &str, ttl: u32) -> Record {
        Record {
            name: name(n),
            ttl,
            rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        }
    }

    #[test]
    fn positive_hit_until_ttl() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("www.example.com"),
            QType::A,
            vec![a_record("www.example.com", 60)],
            t0,
        );
        assert!(c
            .get(
                &name("www.example.com"),
                QType::A,
                t0 + SimDuration::from_secs(59)
            )
            .is_some());
        assert!(c
            .get(
                &name("www.example.com"),
                QType::A,
                t0 + SimDuration::from_secs(61)
            )
            .is_none());
    }

    #[test]
    fn smallest_ttl_wins() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("x.example"),
            QType::A,
            vec![a_record("x.example", 300), a_record("x.example", 30)],
            t0,
        );
        assert!(c
            .get(
                &name("x.example"),
                QType::A,
                t0 + SimDuration::from_secs(31)
            )
            .is_none());
    }

    #[test]
    fn negative_caching() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put_negative(name("nope.example"), QType::A, Rcode::NxDomain, t0);
        assert_eq!(
            c.get(&name("nope.example"), QType::A, t0),
            Some(CachedAnswer::Negative(Rcode::NxDomain))
        );
        assert!(c
            .get(
                &name("nope.example"),
                QType::A,
                t0 + NEGATIVE_TTL + SimDuration::from_secs(1)
            )
            .is_none());
    }

    #[test]
    fn qtype_is_part_of_the_key() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("x.example"),
            QType::A,
            vec![a_record("x.example", 60)],
            t0,
        );
        assert!(c.get(&name("x.example"), QType::Aaaa, t0).is_none());
        assert!(c.get(&name("x.example"), QType::A, t0).is_some());
    }

    #[test]
    fn unique_probe_names_never_hit() {
        // The paper's design constraint: per-probe unique names defeat
        // caching entirely.
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        for i in 0..100 {
            let n = name(&format!("d1-{i}.tft-probe.example"));
            assert!(c.get(&n, QType::A, t0).is_none());
            c.put(n, QType::A, vec![a_record("x.example", 60)], t0);
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 100);
    }

    #[test]
    fn sweep_drops_expired() {
        let mut c = DnsCache::new();
        let t0 = SimTime::EPOCH;
        c.put(
            name("a.example"),
            QType::A,
            vec![a_record("a.example", 10)],
            t0,
        );
        c.put(
            name("b.example"),
            QType::A,
            vec![a_record("b.example", 1000)],
            t0,
        );
        c.sweep(t0 + SimDuration::from_secs(500));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn insert_sweep_matches_a_cache_that_never_evicts() {
        // Random puts, negative puts and gets at non-decreasing times,
        // mostly on unique probe names as a study issues them, against a
        // reference that keeps every answer forever: every get and the
        // counters agree, and the cache holds at most SWEEP_FLOOR plus
        // twice the most answers ever unexpired at once.
        use netsim::rng::RngExt;
        use netsim::SimRng;

        for seed in 0..8u64 {
            let mut rng = SimRng::new(0xCAC4E ^ seed);
            let mut cache = DnsCache::new();
            let mut reference: HashMap<(String, u16), (CachedAnswer, SimTime)> = HashMap::new();
            let (mut hits, mut misses) = (0u64, 0u64);
            let mut now = SimTime::EPOCH;
            let mut unique = 0u32;
            let mut peak_unexpired = 0usize;
            for _ in 0..4000 {
                now += SimDuration::from_millis(rng.random_range(0..20_000u64));
                // One name in four comes from a small pool that repeats.
                let host = if rng.random_bool(0.25) {
                    format!("r{}.example", rng.random_range(0..16u32))
                } else if rng.random_bool(0.5) || unique == 0 {
                    unique += 1;
                    format!("p{unique}.probe.example")
                } else {
                    let recent = unique.saturating_sub(32).max(1)..=unique;
                    format!("p{}.probe.example", rng.random_range(recent))
                };
                let qtype = if rng.random_bool(0.9) {
                    QType::A
                } else {
                    QType::Aaaa
                };
                let key = (host.clone(), qtype.code());
                match rng.random_range(0..3u32) {
                    0 => {
                        let got = cache.get(&name(&host), qtype, now);
                        let want = match reference.get(&key) {
                            Some((answer, expires)) if *expires > now => {
                                hits += 1;
                                Some(answer.clone())
                            }
                            _ => {
                                misses += 1;
                                None
                            }
                        };
                        assert_eq!(got, want, "seed {seed}: get {host} at {now:?}");
                        continue;
                    }
                    1 => {
                        let records = vec![a_record(&host, rng.random_range(1..600u32))];
                        let ttl = records[0].ttl as u64;
                        cache.put(name(&host), qtype, records.clone(), now);
                        let expires = now + SimDuration::from_secs(ttl);
                        reference.insert(key, (CachedAnswer::Records(records), expires));
                    }
                    _ => {
                        cache.put_negative(name(&host), qtype, Rcode::NxDomain, now);
                        let answer = CachedAnswer::Negative(Rcode::NxDomain);
                        reference.insert(key, (answer, now + NEGATIVE_TTL));
                    }
                }
                let unexpired = reference.values().filter(|(_, e)| *e > now).count();
                peak_unexpired = peak_unexpired.max(unexpired);
                assert!(
                    cache.len() <= SWEEP_FLOOR + 2 * peak_unexpired,
                    "seed {seed}: {} entries, at most {peak_unexpired} ever unexpired",
                    cache.len()
                );
            }
            assert_eq!(cache.stats(), (hits, misses), "seed {seed}");
            assert!(
                hits > 0 && misses > 0,
                "seed {seed}: the workload hits and misses"
            );
        }
    }
}
