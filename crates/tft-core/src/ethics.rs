//! Ethics guardrails (§3.4).
//!
//! The paper's commitments: never download more than 1 MB through any one
//! exit node, and only request domains the study controls or a small set of
//! well-known sites (per-country Alexa top 20 and ten university domains).
//! The DNS and HTTP experiments charge every fetch to a [`ByteBudget`]. No
//! experiment consults [`DomainAllowlist`]: `tests/ethics_invariants.rs`
//! checks the study's server logs against it after the fact.

use proxynet::ZId;
use std::collections::HashMap;

/// Per-node download cap in bytes: §3.4 never downloads more than 1 MB
/// through any one exit node (zID).
pub const PER_NODE_BYTE_CAP: u64 = 1_000_000;

/// Per-node byte budget enforcement.
#[derive(Debug, Default)]
pub struct ByteBudget {
    cap: u64,
    used: HashMap<ZId, u64>,
}

impl ByteBudget {
    /// A budget with the given per-node cap.
    pub fn new(cap: u64) -> Self {
        ByteBudget {
            cap,
            used: HashMap::new(),
        }
    }

    /// True if `zid` can still receive `bytes` more.
    ///
    /// Overflow denies: a request so large that `used + bytes` exceeds
    /// `u64::MAX` can never fit under any finite cap, so the guardrail must
    /// not wrap around into permissiveness (debug builds would panic on the
    /// wrap, but release builds silently wrapped before this used
    /// `checked_add`).
    pub fn allows(&self, zid: &ZId, bytes: u64) -> bool {
        match self.used.get(zid).copied().unwrap_or(0).checked_add(bytes) {
            Some(total) => total <= self.cap,
            None => false,
        }
    }

    /// Record a transfer. Returns false (and records nothing) if it would
    /// exceed the cap — callers must check [`ByteBudget::allows`] first and
    /// treat a false here as a bug. Overflow of the running total denies,
    /// exactly like [`ByteBudget::allows`].
    pub fn charge(&mut self, zid: &ZId, bytes: u64) -> bool {
        let entry = self.used.entry(*zid).or_insert(0);
        match entry.checked_add(bytes) {
            Some(total) if total <= self.cap => {
                *entry = total;
                true
            }
            _ => false,
        }
    }

    /// Bytes already used by `zid`.
    pub fn used(&self, zid: &ZId) -> u64 {
        self.used.get(zid).copied().unwrap_or(0)
    }
}

/// One suffix rule with its dotted form precomputed, so `permits` builds
/// no `".{apex}"` string per rule per host.
#[derive(Debug)]
struct SuffixRule {
    apex: String,
    dotted: String,
}

/// Domain allowlist: the probe zone, ranked sites, universities, and the
/// study's invalid-cert sites.
#[derive(Debug, Default)]
pub struct DomainAllowlist {
    suffixes: Vec<SuffixRule>,
    exact: std::collections::HashSet<String>,
}

impl DomainAllowlist {
    /// An empty allowlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allow every subdomain of `apex` (and the apex itself).
    pub fn allow_suffix(&mut self, apex: &str) {
        let apex = apex.to_ascii_lowercase();
        let dotted = format!(".{apex}");
        self.suffixes.push(SuffixRule { apex, dotted });
    }

    /// Allow one exact host.
    pub fn allow_exact(&mut self, host: &str) {
        self.exact.insert(host.to_ascii_lowercase());
    }

    /// True if requests to `host` are permitted.
    pub fn permits(&self, host: &str) -> bool {
        let h = host.to_ascii_lowercase();
        if self.exact.contains(&h) {
            return true;
        }
        self.suffixes
            .iter()
            .any(|rule| h == rule.apex || h.ends_with(&rule.dotted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn z(i: u32) -> ZId {
        ZId(i as u64)
    }

    #[test]
    fn cap_is_enforced() {
        let mut b = ByteBudget::new(1_000_000);
        assert!(b.allows(&z(1), 900_000));
        assert!(b.charge(&z(1), 900_000));
        assert!(!b.allows(&z(1), 200_000));
        assert!(!b.charge(&z(1), 200_000));
        assert_eq!(b.used(&z(1)), 900_000);
        // Other nodes unaffected.
        assert!(b.allows(&z(2), 1_000_000));
    }

    #[test]
    fn exact_cap_boundary() {
        let mut b = ByteBudget::new(100);
        assert!(b.charge(&z(1), 100));
        assert!(!b.allows(&z(1), 1));
    }

    /// Regression: `used + bytes` used to wrap in release mode, so a huge
    /// request against a partially-used budget looked like it fit — the
    /// ethics cap became *permissive* for exactly the requests it most
    /// needed to deny.
    #[test]
    fn huge_request_denied_not_wrapped() {
        let mut b = ByteBudget::new(1_000_000);
        assert!(b.charge(&z(1), 500_000));
        // 500_000 + u64::MAX wraps to 499_999 (< cap) under wrapping
        // arithmetic; checked_add must deny instead.
        assert!(!b.allows(&z(1), u64::MAX));
        assert!(!b.charge(&z(1), u64::MAX));
        assert_eq!(b.used(&z(1)), 500_000, "denied charge records nothing");
        // Fresh node, zero used: still denied (u64::MAX > cap), and the
        // boundary where the sum itself overflows is denied too.
        assert!(!b.allows(&z(2), u64::MAX));
        assert!(!b.charge(&z(2), u64::MAX));
        assert_eq!(b.used(&z(2)), 0);
    }

    #[test]
    fn allowlist_suffix_and_exact() {
        let mut a = DomainAllowlist::new();
        a.allow_suffix("tft-probe.example");
        a.allow_exact("top1.us.example");
        assert!(a.permits("d1-99.tft-probe.example"));
        assert!(a.permits("TFT-PROBE.example"));
        assert!(a.permits("top1.us.example"));
        assert!(!a.permits("top2.us.example"));
        assert!(!a.permits("evil-tft-probe.example"), "no substring tricks");
        assert!(!a.permits("sensitive-site.example"));
    }
}
