//! Deterministic, splittable randomness.
//!
//! Everything random in the simulation flows from one `u64` master seed.
//! Components obtain *forked* generators keyed by a string label, so adding a
//! new consumer never perturbs the stream any existing consumer sees — the
//! property that keeps regression tests stable as the system grows.
//!
//! The underlying generator is `substrate`'s xoshiro256++; forking hashes
//! `(seed, label)` with FNV-1a plus a splitmix64 avalanche, so a child's
//! stream depends only on the parent's seed and the label, never on how much
//! the parent has been used.

use substrate::rng::Xoshiro256pp;

pub use substrate::rng::{Rng, RngExt};

/// A deterministic random source forked from a master seed.
///
/// `SimRng` wraps a [`Xoshiro256pp`] and remembers the seed it was built from
/// so that child generators can be derived by hashing `(seed, label)` rather
/// than by drawing from the parent's stream.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: Xoshiro256pp,
}

impl SimRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// The seed this generator was constructed from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent child generator keyed by `label`.
    ///
    /// Forking is stable: the child's stream depends only on the parent's
    /// seed and the label, never on how much the parent has been used.
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(mix(self.seed, label))
    }

    /// Derive an independent child generator keyed by a numeric index, for
    /// per-entity streams (e.g. one per exit node).
    ///
    /// The index is mixed in as its decimal digits, rendered into a stack
    /// buffer: the bytes `index.to_string()` would give, without the heap
    /// string (this runs on every proxied request).
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut digits = [0u8; 20]; // u64::MAX has 20 decimal digits
        let mut start = digits.len();
        let mut rest = index;
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        SimRng::new(mix(mix(self.seed, label), &digits[start..]))
    }
}

/// FNV-1a-style mixing of a seed with a label; cheap, stable across runs and
/// platforms, and good enough to decorrelate xoshiro streams.
fn mix(seed: u64, label: impl AsRef<[u8]>) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in label.as_ref() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    // Final avalanche (splitmix64 finalizer) so short labels still give
    // well-spread seeds.
    substrate::rng::mix64(h)
}

impl Rng for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn fork_is_independent_of_parent_usage() {
        let parent = SimRng::new(7);
        let mut used = parent.clone();
        for _ in 0..1000 {
            used.next_u64();
        }
        let mut c1 = parent.fork("dns");
        let mut c2 = used.fork("dns");
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn forks_with_different_labels_decorrelate() {
        let parent = SimRng::new(7);
        let mut a = parent.fork("dns");
        let mut b = parent.fork("http");
        let av: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn fork_indexed_distinct_per_index() {
        let parent = SimRng::new(9);
        let mut a = parent.fork_indexed("node", 1);
        let mut b = parent.fork_indexed("node", 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn range_sampling_works() {
        let mut r = SimRng::new(3);
        for _ in 0..100 {
            let x: u32 = r.random_range(10..20);
            assert!((10..20).contains(&x));
        }
    }

    /// Fork-derived seeds are pinned to literal values: the fork label hash
    /// must never change, or every seeded regression across the workspace
    /// silently shifts. These constants predate the substrate migration —
    /// they are the FNV-1a + splitmix64-avalanche outputs the `rand`-based
    /// implementation produced, and any reimplementation must reproduce them.
    #[test]
    fn fork_seed_derivation_is_stable() {
        assert_eq!(mix(0xBE7C, "dns"), 14568902525121034501);
        assert_eq!(mix(0xBE7C, "http"), 15188186104731946253);
        assert_eq!(mix(0xBE7C, "node"), 17852461738735752517);
        assert_eq!(mix(0xBE7C, ""), 11133108351405400072);

        let parent = SimRng::new(0xBE7C);
        assert_eq!(parent.fork("dns").seed(), 14568902525121034501);
        assert_eq!(parent.fork_indexed("node", 3).seed(), 17769928698577356723);
    }

    /// `fork_indexed` renders the index on the stack; the bytes it hashes
    /// must be exactly the decimal string, at every digit count.
    #[test]
    fn indexed_forks_hash_the_decimal_index() {
        let parent = SimRng::new(0xBE7C);
        for index in [0, 7, 9, 10, 99, 100, 1_234_567, u64::MAX - 1, u64::MAX] {
            assert_eq!(
                parent.fork_indexed("latency", index).seed(),
                mix(mix(0xBE7C, "latency"), index.to_string()),
                "index {index}"
            );
        }
    }
}
