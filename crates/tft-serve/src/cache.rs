//! Content-addressed study caching.
//!
//! A study is a pure function of its [`worldgen::WorldSpec`] (DESIGN.md §5),
//! so its results can be addressed by content: the [`StudyKey`] hashes the
//! spec's **canonical** JSON rendering ([`substrate::Json::render_canonical`])
//! with the workspace's stable hash, so two submissions that differ only in
//! JSON spelling — key order, number formatting, whitespace — map to the
//! same address, while any semantic difference changes it.
//!
//! The cache is two-tier:
//!
//! - **tier 1 — worlds**: the pristine built [`proxynet::World`] for a key.
//!   Building is cheap relative to executing, but skipping it still matters
//!   when a report was evicted and the study must re-run.
//! - **tier 2 — reports**: the fully rendered response body for a completed
//!   study. A hit here serves without executing anything.
//!
//! Both tiers evict in **insertion order** (FIFO) at a fixed capacity. That
//! is deliberately not recency-based: eviction order then depends only on
//! the sequence of inserts — itself a pure function of the request trace —
//! never on read patterns, so cache state replays byte-identically.

use proxynet::World;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use substrate::json::ToJson;
use substrate::stable64;
use worldgen::WorldSpec;

/// The content address of a study: `(spec_hash, seed, scale)`.
///
/// `seed` and `scale` are already part of the hashed spec, but they are the
/// two knobs users sweep, so the key carries them explicitly — the study id
/// exposes them for humans, and a hash collision between two sweeps would
/// still need identical `(seed, scale)` to collide fully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct StudyKey {
    /// Stable hash of the spec's canonical JSON rendering.
    pub spec_hash: u64,
    /// The spec's master seed.
    pub seed: u64,
    /// The spec's scale, as raw bits so the key stays `Eq`/`Ord`.
    pub scale_bits: u64,
}

impl StudyKey {
    /// Address `spec`. Two specs get the same key iff their canonical JSON
    /// renderings are identical (modulo hash collisions).
    pub fn for_spec(spec: &WorldSpec) -> StudyKey {
        let canonical = spec.to_json().render_canonical();
        StudyKey {
            spec_hash: stable64(canonical.as_bytes()),
            seed: spec.seed,
            scale_bits: spec.scale.to_bits(),
        }
    }

    /// The URL-safe study id: three fixed-width hex words.
    pub fn study_id(&self) -> String {
        format!(
            "{:016x}-{:016x}-{:016x}",
            self.spec_hash, self.seed, self.scale_bits
        )
    }

    /// Parse a [`study_id`](StudyKey::study_id) back into a key. Strict:
    /// exactly three 16-digit lowercase hex words.
    pub fn parse_id(id: &str) -> Option<StudyKey> {
        let mut words = id.split('-');
        let mut next = || {
            let w = words.next()?;
            if w.len() != 16
                || !w
                    .bytes()
                    .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
            {
                return None;
            }
            u64::from_str_radix(w, 16).ok()
        };
        let key = StudyKey {
            spec_hash: next()?,
            seed: next()?,
            scale_bits: next()?,
        };
        if words.next().is_some() {
            return None;
        }
        Some(key)
    }
}

/// Counters for one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
}

impl TierStats {
    /// `hits / (hits + misses)`, or 0 for an untouched tier.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fixed-capacity map evicting in insertion order.
#[derive(Debug)]
struct FifoMap<V> {
    capacity: usize,
    map: BTreeMap<StudyKey, V>,
    order: VecDeque<StudyKey>,
}

impl<V> FifoMap<V> {
    fn new(capacity: usize) -> FifoMap<V> {
        assert!(capacity > 0, "cache capacity must be positive");
        FifoMap {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &StudyKey) -> Option<&V> {
        self.map.get(key)
    }

    /// Insert, returning the evicted key if the tier was full. Re-inserting
    /// an existing key replaces the value but keeps its eviction position.
    fn insert(&mut self, key: StudyKey, value: V) -> Option<StudyKey> {
        if self.map.insert(key, value).is_some() {
            return None;
        }
        self.order.push_back(key);
        if self.order.len() > self.capacity {
            // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "internal invariant, not input-driven: len > capacity >= 1 was checked on the line above, so the deque is non-empty")
            let oldest = self.order.pop_front().expect("len > capacity > 0");
            self.map.remove(&oldest);
            return Some(oldest);
        }
        None
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The two-tier study cache. See the module docs for the design.
pub struct StudyCache {
    worlds: FifoMap<World>,
    reports: FifoMap<Vec<u8>>,
    world_stats: TierStats,
    report_stats: TierStats,
}

impl StudyCache {
    /// A cache holding at most `world_capacity` pristine worlds and
    /// `report_capacity` rendered reports.
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn new(world_capacity: usize, report_capacity: usize) -> StudyCache {
        StudyCache {
            worlds: FifoMap::new(world_capacity),
            reports: FifoMap::new(report_capacity),
            world_stats: TierStats::default(),
            report_stats: TierStats::default(),
        }
    }

    /// Tier-2 lookup: the rendered body of a completed study.
    pub fn report(&mut self, key: &StudyKey) -> Option<&Vec<u8>> {
        let body = self.reports.get(key);
        if body.is_some() {
            self.report_stats.hits += 1;
        } else {
            self.report_stats.misses += 1;
        }
        body
    }

    /// Tier-2 lookup without touching the hit/miss counters (for re-reads
    /// of a body already accounted for).
    pub fn peek_report(&self, key: &StudyKey) -> Option<&Vec<u8>> {
        self.reports.get(key)
    }

    /// Tier-1 lookup: a clone of the pristine world, ready to execute.
    pub fn world(&mut self, key: &StudyKey) -> Option<World> {
        let hit = self.worlds.get(key).cloned();
        if hit.is_some() {
            self.world_stats.hits += 1;
        } else {
            self.world_stats.misses += 1;
        }
        hit
    }

    /// Store a completed study's rendered body.
    pub fn insert_report(&mut self, key: StudyKey, body: Vec<u8>) {
        if self.reports.insert(key, body).is_some() {
            self.report_stats.evictions += 1;
        }
    }

    /// Store a pristine (never-executed) world.
    pub fn insert_world(&mut self, key: StudyKey, world: World) {
        if self.worlds.insert(key, world).is_some() {
            self.world_stats.evictions += 1;
        }
    }

    /// Tier-1 counters.
    pub fn world_stats(&self) -> TierStats {
        self.world_stats
    }

    /// Tier-2 counters.
    pub fn report_stats(&self) -> TierStats {
        self.report_stats
    }

    /// Entries currently resident, `(worlds, reports)`.
    pub fn len(&self) -> (usize, usize) {
        (self.worlds.len(), self.reports.len())
    }

    /// True if both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> StudyKey {
        StudyKey {
            spec_hash: n,
            seed: n ^ 0xAB,
            scale_bits: 1.0f64.to_bits(),
        }
    }

    #[test]
    fn study_id_roundtrips() {
        let k = StudyKey {
            spec_hash: 0x0123_4567_89ab_cdef,
            seed: u64::MAX,
            scale_bits: 0.25f64.to_bits(),
        };
        let id = k.study_id();
        assert_eq!(id.len(), 16 * 3 + 2);
        assert_eq!(StudyKey::parse_id(&id), Some(k));
    }

    #[test]
    fn malformed_ids_are_rejected() {
        for bad in [
            "",
            "xyz",
            "0123456789abcdef",                                      // one word
            "0123456789abcdef-0123456789abcdef",                     // two words
            "0123456789abcdef-0123456789abcdef-0123456789abcde",     // short word
            "0123456789abcdef-0123456789abcdef-0123456789abcdef-00", // four words
            "0123456789ABCDEF-0123456789abcdef-0123456789abcdef",    // uppercase
            "0123456789abcdeg-0123456789abcdef-0123456789abcdef",    // non-hex
        ] {
            assert_eq!(StudyKey::parse_id(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn key_is_spelling_invariant_but_content_sensitive() {
        // Same spec → same key, regardless of which equal WorldSpec value
        // produced it; a one-field change (the seed) changes the key.
        let a = worldgen::smoke_spec(7);
        let b = worldgen::smoke_spec(7);
        let mut c = worldgen::smoke_spec(7);
        c.seed = 8;
        assert_eq!(StudyKey::for_spec(&a), StudyKey::for_spec(&b));
        assert_ne!(StudyKey::for_spec(&a), StudyKey::for_spec(&c));
    }

    #[test]
    fn report_hit_miss_counting() {
        let mut cache = StudyCache::new(4, 4);
        assert!(cache.report(&key(1)).is_none());
        cache.insert_report(key(1), b"body".to_vec());
        assert_eq!(cache.report(&key(1)), Some(&b"body".to_vec()));
        assert_eq!(
            cache.report_stats(),
            TierStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_is_in_insertion_order_at_fixed_capacity() {
        let mut cache = StudyCache::new(4, 2);
        cache.insert_report(key(1), vec![1]);
        cache.insert_report(key(2), vec![2]);
        // A read of key(1) must NOT refresh it: eviction order is insertion
        // order, not recency.
        assert!(cache.report(&key(1)).is_some());
        cache.insert_report(key(3), vec![3]);
        assert!(
            cache.peek_report(&key(1)).is_none(),
            "oldest insert evicted"
        );
        assert!(cache.peek_report(&key(2)).is_some());
        assert!(cache.peek_report(&key(3)).is_some());
        assert_eq!(cache.report_stats().evictions, 1);
        assert_eq!(cache.len(), (0, 2));
    }

    #[test]
    fn reinsert_keeps_eviction_position() {
        let mut cache = StudyCache::new(4, 2);
        cache.insert_report(key(1), vec![1]);
        cache.insert_report(key(2), vec![2]);
        cache.insert_report(key(1), vec![10]); // replace, not re-age
        cache.insert_report(key(3), vec![3]);
        assert!(
            cache.peek_report(&key(1)).is_none(),
            "key(1) still oldest despite reinsert"
        );
        assert_eq!(cache.peek_report(&key(2)), Some(&vec![2]));
    }

    #[test]
    fn tiers_are_independent() {
        let mut cache = StudyCache::new(1, 2);
        let world = worldgen::build(&worldgen::smoke_spec(3)).world;
        cache.insert_world(key(1), world.clone());
        cache.insert_world(key(2), world);
        assert!(cache.world(&key(1)).is_none(), "tier-1 capacity 1 evicted");
        assert!(cache.world(&key(2)).is_some());
        // Tier 2 untouched by tier-1 churn.
        assert_eq!(cache.report_stats(), TierStats::default());
        assert_eq!(cache.world_stats().evictions, 1);
    }

    #[test]
    fn different_specs_never_collide_on_the_happy_path() {
        // Negative test: distinct specs (different seeds, scales, sites)
        // must map to distinct keys and distinct cache entries.
        let mut cache = StudyCache::new(8, 8);
        let mut keys = Vec::new();
        for seed in 0..4u64 {
            let spec = worldgen::smoke_spec(seed);
            let k = StudyKey::for_spec(&spec);
            cache.insert_report(k, k.study_id().into_bytes());
            keys.push(k);
        }
        let mut scaled = worldgen::smoke_spec(0);
        scaled.scale = 0.5;
        keys.push(StudyKey::for_spec(&scaled));
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b, "distinct specs collided");
            }
        }
        // Every cached body still reads back as its own key's id.
        for k in &keys[..4] {
            assert_eq!(cache.peek_report(k), Some(&k.study_id().into_bytes()));
        }
    }
}
