//! Chain validation — the `openssl verify` step of §6.1.
//!
//! For the *popular* and *international* site classes the paper validates
//! the presented chain against a root store (an exact-match check is
//! impossible because CDNs serve different certificates from different
//! frontends). For the *invalid* site class it compares certificates
//! exactly, because the expected certificate is known. Both checks live
//! here.

use crate::cert::Certificate;
use crate::store::RootStore;
use netsim::SimTime;
use std::fmt;

/// Why a chain failed validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertError {
    /// No certificates were presented.
    EmptyChain,
    /// The leaf does not match the requested hostname.
    NameMismatch,
    /// A certificate in the chain is expired.
    Expired,
    /// A certificate in the chain is not yet valid.
    NotYetValid,
    /// A non-leaf link lacks the CA flag.
    NotCa,
    /// A signature link is broken (issuer key/DN mismatch).
    BadSignature,
    /// The chain terminates in a self-signed certificate that is not a
    /// trust anchor.
    SelfSigned,
    /// The chain's last issuer is unknown to the root store.
    UnknownIssuer,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CertError::EmptyChain => "empty certificate chain",
            CertError::NameMismatch => "hostname mismatch",
            CertError::Expired => "certificate expired",
            CertError::NotYetValid => "certificate not yet valid",
            CertError::NotCa => "intermediate without CA flag",
            CertError::BadSignature => "broken signature link",
            CertError::SelfSigned => "untrusted self-signed certificate",
            CertError::UnknownIssuer => "unknown issuer",
        };
        f.write_str(s)
    }
}

impl std::error::Error for CertError {}

/// Validate `chain` (leaf first) for `hostname` at time `now` against
/// `roots`.
///
/// Checks performed, in order: non-empty chain; hostname match on the leaf;
/// per-certificate validity window; per-link signature (issuer DN and key
/// must match the next certificate, which must be a CA); and finally trust
/// anchoring (the last certificate must be in the store or be signed by a
/// store entry).
pub fn verify_chain(
    chain: &[Certificate],
    hostname: &str,
    now: SimTime,
    roots: &RootStore,
) -> Result<(), CertError> {
    let leaf = chain.first().ok_or(CertError::EmptyChain)?;
    if !leaf.matches_hostname(hostname) {
        return Err(CertError::NameMismatch);
    }
    for cert in chain {
        if now < cert.not_before {
            return Err(CertError::NotYetValid);
        }
        if now > cert.not_after {
            return Err(CertError::Expired);
        }
    }
    for (child, parent) in chain.iter().zip(chain.iter().skip(1)) {
        if !parent.is_ca {
            return Err(CertError::NotCa);
        }
        if child.issuer_key != parent.subject_key || child.issuer != parent.subject {
            return Err(CertError::BadSignature);
        }
    }
    let last = chain.last().ok_or(CertError::EmptyChain)?;
    if roots.contains(last) {
        return Ok(());
    }
    if roots.issuer_of(last).is_some() {
        return Ok(());
    }
    if last.is_self_signed() {
        return Err(CertError::SelfSigned);
    }
    Err(CertError::UnknownIssuer)
}

/// Exact-identity comparison for the invalid-sites check: true if the
/// presented chain's leaf equals the expected certificate in every field.
pub fn exact_match(presented: &[Certificate], expected: &Certificate) -> bool {
    presented.first() == Some(expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{DistinguishedName, KeyId};
    use crate::issue::{self, CertAuthority};
    use netsim::{SimDuration, SimRng};

    struct Pki {
        roots: RootStore,
        ca: CertAuthority,
        rng: SimRng,
        now: SimTime,
    }

    fn pki() -> Pki {
        let mut rng = SimRng::new(0xCE47);
        let now = SimTime::EPOCH + SimDuration::from_days(1000);
        let (roots, mut cas) = RootStore::os_x_like(5, SimTime::EPOCH, &mut rng);
        let ca = cas.remove(0);
        Pki {
            roots,
            ca,
            rng,
            now,
        }
    }

    #[test]
    fn valid_leaf_from_root() {
        let mut p = pki();
        let leaf = p.ca.issue_leaf("www.example.com", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf], "www.example.com", p.now, &p.roots),
            Ok(())
        );
    }

    #[test]
    fn valid_leaf_via_intermediate() {
        let mut p = pki();
        let mut inter =
            p.ca.issue_intermediate(DistinguishedName::cn("Inter"), p.now, &mut p.rng);
        let leaf = inter.issue_leaf("shop.example", p.now, &mut p.rng);
        let chain = vec![leaf, inter.cert.clone()];
        assert_eq!(
            verify_chain(&chain, "shop.example", p.now, &p.roots),
            Ok(())
        );
    }

    #[test]
    fn hostname_mismatch_rejected() {
        let mut p = pki();
        let leaf = p.ca.issue_leaf("www.example.com", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf], "other.example.com", p.now, &p.roots),
            Err(CertError::NameMismatch)
        );
    }

    #[test]
    fn expired_rejected() {
        let mut p = pki();
        let leaf = issue::expired_leaf(&mut p.ca, "www.example.com", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf], "www.example.com", p.now, &p.roots),
            Err(CertError::Expired)
        );
    }

    #[test]
    fn not_yet_valid_rejected() {
        let mut p = pki();
        let mut leaf = p.ca.issue_leaf("www.example.com", p.now, &mut p.rng);
        leaf.not_before = p.now + SimDuration::from_days(1);
        leaf.not_after = p.now + SimDuration::from_days(100);
        assert_eq!(
            verify_chain(&[leaf], "www.example.com", p.now, &p.roots),
            Err(CertError::NotYetValid)
        );
    }

    #[test]
    fn self_signed_rejected() {
        let mut p = pki();
        let leaf = issue::self_signed_leaf("www.example.com", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf], "www.example.com", p.now, &p.roots),
            Err(CertError::SelfSigned)
        );
    }

    #[test]
    fn unknown_issuer_rejected() {
        let mut p = pki();
        let mut rogue = CertAuthority::new_root(
            DistinguishedName::cn("AV Product Root"),
            SimTime::EPOCH,
            &mut p.rng,
        );
        let leaf = rogue.issue_leaf("bank.example", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf], "bank.example", p.now, &p.roots),
            Err(CertError::UnknownIssuer)
        );
        // But a client that installed the AV root (as AV installers do)
        // accepts the same chain.
        let mut av_roots = p.roots.clone();
        av_roots.add(rogue.cert.clone());
        let leaf2 = rogue.issue_leaf("bank.example", p.now, &mut p.rng);
        assert_eq!(
            verify_chain(&[leaf2], "bank.example", p.now, &av_roots),
            Ok(())
        );
    }

    #[test]
    fn broken_signature_link_rejected() {
        let mut p = pki();
        let mut inter =
            p.ca.issue_intermediate(DistinguishedName::cn("Inter"), p.now, &mut p.rng);
        let mut leaf = inter.issue_leaf("shop.example", p.now, &mut p.rng);
        leaf.issuer_key = KeyId(0xDEAD);
        let chain = vec![leaf, inter.cert.clone()];
        assert_eq!(
            verify_chain(&chain, "shop.example", p.now, &p.roots),
            Err(CertError::BadSignature)
        );
    }

    #[test]
    fn non_ca_parent_rejected() {
        let mut p = pki();
        let fake_parent = p.ca.issue_leaf("notaca.example", p.now, &mut p.rng);
        let mut leaf = p.ca.issue_leaf("victim.example", p.now, &mut p.rng);
        leaf.issuer = fake_parent.subject.clone();
        leaf.issuer_key = fake_parent.subject_key;
        let chain = vec![leaf, fake_parent];
        assert_eq!(
            verify_chain(&chain, "victim.example", p.now, &p.roots),
            Err(CertError::NotCa)
        );
    }

    #[test]
    fn empty_chain_rejected() {
        let p = pki();
        assert_eq!(
            verify_chain(&[], "x.example", p.now, &p.roots),
            Err(CertError::EmptyChain)
        );
    }

    #[test]
    fn exact_match_distinguishes_spoofs() {
        let mut p = pki();
        let original = issue::self_signed_leaf("invalid1.example", p.now, &mut p.rng);
        assert!(exact_match(std::slice::from_ref(&original), &original));
        // A spoof that copies every visible field still differs in keys.
        let mut av = CertAuthority::new_root(
            DistinguishedName::cn("Kaspersky Anti-Virus Personal Root"),
            SimTime::EPOCH,
            &mut p.rng,
        );
        let spoof = av.issue_spoof(&original, KeyId(1), p.now, true);
        assert!(!exact_match(&[spoof], &original));
        assert!(!exact_match(&[], &original));
    }
}
