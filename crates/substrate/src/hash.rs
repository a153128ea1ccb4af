//! A first-party stable 64-bit hash.
//!
//! `std::hash` offers no stability promise — `SipHash` keys differ per
//! process by design, and even a fixed-key `DefaultHasher` is documented
//! as free to change between compiler releases. Content-addressed keys
//! (`tft-serve`'s `spec_hash`) must be **byte-stable across platforms,
//! processes, and releases**, so this module pins its own function:
//! FNV-1a over the input bytes, finished with the splitmix64 avalanche —
//! the construction `netsim::SimRng::fork` uses too, there with
//! [`pinned_fnv64`]'s multiplier.
//!
//! The constants and the finalizer are part of the public contract: the
//! golden values in the tests below must never change, or every cached
//! artifact keyed by a stable hash silently orphans.
//!
//! Two unfinished forms sit beside it: [`fnv1a64`], the FNV-1a state
//! [`stable64`] finishes, and [`pinned_fnv64`], the simulator's variant
//! that its forks and map keys are derived with.

use crate::rng::mix64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const PINNED_PRIME: u64 = 0x0000_1000_0000_01b3;

/// FNV-1a's loop from `state` over `bytes` with multiplier `prime`.
fn absorb(state: u64, prime: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(prime))
}

/// FNV-1a over `bytes`, without the avalanche [`stable64`] finishes with.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    absorb(FNV_OFFSET, FNV_PRIME, bytes)
}

/// The simulator's own FNV-1a variant: FNV-1a's offset basis and loop,
/// but multiplier `0x1000_0000_01b3` where FNV's prime is
/// `0x100_0000_01b3`, and no avalanche. Monitor and site RNG forks,
/// anycast picks, landing-page variants and page-cluster keys are derived
/// with it, and rendered output depends on every one of them, so it keeps
/// its multiplier. It is not [`fnv1a64`].
pub fn pinned_fnv64(bytes: &[u8]) -> u64 {
    absorb(FNV_OFFSET, PINNED_PRIME, bytes)
}

/// Hash `bytes` to a stable 64-bit value.
///
/// Stable across platforms, endianness, processes, and releases; suitable
/// for content-addressing and cache keys, **not** for adversarial inputs
/// (it is not a cryptographic hash, and collisions can be constructed).
pub fn stable64(bytes: &[u8]) -> u64 {
    let mut h = Hasher64::new();
    h.update(bytes);
    h.finish()
}

/// Incremental form of [`stable64`]: feed bytes in any segmentation, the
/// result depends only on the concatenation.
#[derive(Debug, Clone)]
pub struct Hasher64 {
    state: u64,
}

impl Hasher64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher64 {
        Hasher64 { state: FNV_OFFSET }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = absorb(self.state, FNV_PRIME, bytes);
    }

    /// Finish with the splitmix64 avalanche so short or similar inputs
    /// still produce well-spread values.
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

impl Default for Hasher64 {
    fn default() -> Self {
        Hasher64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stability contract: these goldens pin the function forever.
    /// A failure here means cached artifacts keyed by [`stable64`] would
    /// orphan — change the caches' version tag, not these values.
    #[test]
    fn golden_values_are_pinned() {
        assert_eq!(stable64(b""), 0xf52a_15e9_a9b5_e89b);
        assert_eq!(stable64(b"a"), 0x02c0_bdbf_4814_20f8);
        assert_eq!(stable64(b"spec"), 0x5875_1e2f_1850_583f);
        assert_eq!(
            stable64(b"The quick brown fox jumps over the lazy dog"),
            0x1e8e_6a07_9b16_7ea7
        );
    }

    #[test]
    fn fnv1a64_is_the_state_stable64_finishes() {
        // FNV-1a's published test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        for b in [&b""[..], b"a", b"spec", b"study-0", b"study-1"] {
            assert_eq!(stable64(b), mix64(fnv1a64(b)));
        }
    }

    /// Rendered output depends on these: a failure here changes it.
    #[test]
    fn pinned_fnv64_golden_values() {
        assert_eq!(pinned_fnv64(b""), fnv1a64(b""));
        assert_eq!(pinned_fnv64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(pinned_fnv64(b"spec"), 0xc107_0c19_0932_153e);
    }

    #[test]
    fn segmentation_does_not_matter() {
        let data = b"content-addressed study artifacts";
        let whole = stable64(data);
        for split in 0..data.len() {
            let mut h = Hasher64::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn distinct_inputs_spread() {
        // Not a collision-resistance claim, just a sanity check that the
        // avalanche decorrelates adjacent inputs.
        let a = stable64(b"study-0");
        let b = stable64(b"study-1");
        assert_ne!(a, b);
        assert_ne!(a ^ b, 0);
        assert!((a ^ b).count_ones() > 8, "poor avalanche: {a:#x} vs {b:#x}");
    }
}
