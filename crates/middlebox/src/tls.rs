//! TLS interception (§6): anti-virus products, content filters, and malware
//! that terminate TLS and present spoofed certificates.
//!
//! Behavioural knobs mirror the paper's findings:
//!
//! - **shared key** — all products except Avast reuse one public key for
//!   every spoofed certificate on a given host;
//! - **invalid-certificate policy** — Cyberoam/ESET/Kaspersky/McAfee/
//!   Fortigate re-sign *originally invalid* certificates with their trusted
//!   root (masking invalidity from the browser); Avast/BitDefender/Dr. Web
//!   re-sign them under a *different, untrusted* issuer; OpenDNS passes
//!   invalid certificates through untouched;
//! - **field copying** — the Cloudguard malware copies fields from the
//!   original certificate to look legitimate;
//! - **selectivity** — not every site's certificate is replaced.

use certs::{CertAuthority, Certificate, DistinguishedName, KeyId};
use netsim::rng::RngExt;
use netsim::{SimRng, SimTime};
use substrate::hash::pinned_fnv64;

/// What the interceptor does with an originally *invalid* server
/// certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidCertPolicy {
    /// Re-sign with the same (trusted) issuer as valid sites — hiding the
    /// invalidity from the browser (the dangerous behaviour the paper calls
    /// out).
    SpoofSameIssuer,
    /// Re-sign under a different, untrusted issuer so the browser still
    /// warns (Avast's "untrusted root" behaviour).
    SpoofAltIssuer(DistinguishedName),
    /// Leave invalid certificates untouched (OpenDNS).
    PassThrough,
}

/// Which connections get intercepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selectivity {
    /// Every TLS connection.
    All,
    /// A deterministic per-hostname fraction of sites.
    PerSiteFraction(f64),
}

/// A TLS interceptor installed on one host (or operating for one network).
#[derive(Debug, Clone)]
pub struct TlsInterceptor {
    ca: CertAuthority,
    alt_ca: Option<CertAuthority>,
    /// One key reused for all spoofed certs on this host, or None for a
    /// fresh key per certificate (Avast).
    shared_key: Option<KeyId>,
    invalid_policy: InvalidCertPolicy,
    copy_fields: bool,
    selectivity: Selectivity,
    decision_rng: SimRng,
    spoof_rng: SimRng,
}

impl TlsInterceptor {
    /// Build an interceptor.
    ///
    /// * `issuer` — the Issuer Common Name that will appear on spoofed
    ///   certificates (the Table 8 signal).
    /// * `shared_key` — reuse one key per host iff true.
    /// * `copy_fields` — Cloudguard-style mimicry.
    pub fn new(
        issuer: DistinguishedName,
        shared_key: bool,
        invalid_policy: InvalidCertPolicy,
        copy_fields: bool,
        selectivity: Selectivity,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Self {
        let ca = CertAuthority::new_root(issuer, now, rng);
        // Pre-derive the shared key from the CA's own stream.
        let key = if shared_key {
            Some(KeyId(rng.random()))
        } else {
            None
        };
        let alt_ca = match &invalid_policy {
            InvalidCertPolicy::SpoofAltIssuer(dn) => {
                Some(CertAuthority::new_root(dn.clone(), now, rng))
            }
            _ => None,
        };
        TlsInterceptor {
            ca,
            alt_ca,
            shared_key: key,
            invalid_policy,
            copy_fields,
            selectivity,
            decision_rng: rng.fork("tls-decisions"),
            spoof_rng: rng.fork("tls-spoof-keys"),
        }
    }

    /// The root certificate this product installed into the host's trust
    /// store at install time (§6.2).
    pub fn installed_root(&self) -> Certificate {
        self.ca.cert.clone()
    }

    /// The issuer DN stamped on spoofed certificates.
    // Not a misnamed getter: the CA's *subject* is what appears in the
    // Issuer field of every certificate it signs.
    #[allow(clippy::misnamed_getters)]
    pub fn issuer(&self) -> &DistinguishedName {
        &self.ca.cert.subject
    }

    /// The shared per-host key, if this product uses one.
    pub fn shared_key(&self) -> Option<KeyId> {
        self.shared_key
    }

    /// Deterministic per-hostname interception decision.
    pub fn would_intercept(&self, hostname: &str) -> bool {
        match self.selectivity {
            Selectivity::All => true,
            Selectivity::PerSiteFraction(p) => {
                let mut r = self
                    .decision_rng
                    .fork_indexed("site", pinned_fnv64(hostname.as_bytes()));
                r.random_bool(p)
            }
        }
    }

    /// Intercept a TLS handshake to `hostname` where the server presented
    /// `original` (validity pre-computed by the caller against the public
    /// root store). Returns the replacement chain, or `None` when this
    /// connection is passed through untouched.
    pub fn intercept(
        &mut self,
        hostname: &str,
        original: &[Certificate],
        original_valid: bool,
        now: SimTime,
    ) -> Option<Vec<Certificate>> {
        if !self.would_intercept(hostname) {
            return None;
        }
        let leaf = original.first()?;
        let key = self
            .shared_key
            .unwrap_or_else(|| KeyId(self.spoof_rng.random()));
        if original_valid {
            let spoof = self.ca.issue_spoof(leaf, key, now, self.copy_fields);
            return Some(vec![spoof, self.ca.cert.clone()]);
        }
        match &self.invalid_policy {
            InvalidCertPolicy::SpoofSameIssuer => {
                let spoof = self.ca.issue_spoof(leaf, key, now, self.copy_fields);
                Some(vec![spoof, self.ca.cert.clone()])
            }
            InvalidCertPolicy::SpoofAltIssuer(_) => {
                let alt = self.alt_ca.as_mut().expect("alt CA exists for this policy");
                let spoof = alt.issue_spoof(leaf, key, now, false);
                Some(vec![spoof, alt.cert.clone()])
            }
            InvalidCertPolicy::PassThrough => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certs::{self_signed_leaf, verify_chain, RootStore};
    use netsim::SimDuration;

    struct Setup {
        roots: RootStore,
        site_ca: CertAuthority,
        rng: SimRng,
        now: SimTime,
    }

    fn setup() -> Setup {
        let mut rng = SimRng::new(0x715);
        let now = SimTime::EPOCH + SimDuration::from_days(1200);
        let (roots, mut cas) = RootStore::os_x_like(3, SimTime::EPOCH, &mut rng);
        Setup {
            roots,
            site_ca: cas.remove(0),
            rng,
            now,
        }
    }

    fn av(setup: &mut Setup, shared: bool, policy: InvalidCertPolicy) -> TlsInterceptor {
        TlsInterceptor::new(
            DistinguishedName::cn_o("Kaspersky Anti-Virus Personal Root", "Kaspersky"),
            shared,
            policy,
            false,
            Selectivity::All,
            setup.now,
            &mut setup.rng,
        )
    }

    #[test]
    fn spoofed_cert_carries_interceptor_issuer() {
        let mut s = setup();
        let original = s.site_ca.issue_leaf("bank.example", s.now, &mut s.rng);
        let mut mitm = av(&mut s, true, InvalidCertPolicy::SpoofSameIssuer);
        let chain = mitm
            .intercept("bank.example", std::slice::from_ref(&original), true, s.now)
            .expect("intercepts all");
        assert_eq!(
            chain[0].issuer.common_name,
            "Kaspersky Anti-Virus Personal Root"
        );
        assert_eq!(chain[0].subject, original.subject);
        // Public roots reject the spoof…
        assert!(verify_chain(&chain, "bank.example", s.now, &s.roots).is_err());
        // …but the host that installed the product's root accepts it.
        let mut host_roots = s.roots.clone();
        host_roots.add(mitm.installed_root());
        assert_eq!(
            verify_chain(&chain, "bank.example", s.now, &host_roots),
            Ok(())
        );
    }

    #[test]
    fn shared_key_is_reused_across_sites() {
        let mut s = setup();
        let a = s.site_ca.issue_leaf("a.example", s.now, &mut s.rng);
        let b = s.site_ca.issue_leaf("b.example", s.now, &mut s.rng);
        let mut mitm = av(&mut s, true, InvalidCertPolicy::SpoofSameIssuer);
        let ca_chain = mitm.intercept("a.example", &[a], true, s.now).unwrap();
        let cb_chain = mitm.intercept("b.example", &[b], true, s.now).unwrap();
        assert_eq!(ca_chain[0].subject_key, cb_chain[0].subject_key);
    }

    #[test]
    fn avast_style_fresh_keys_differ() {
        let mut s = setup();
        let a = s.site_ca.issue_leaf("a.example", s.now, &mut s.rng);
        let b = s.site_ca.issue_leaf("b.example", s.now, &mut s.rng);
        let mut mitm = av(&mut s, false, InvalidCertPolicy::SpoofSameIssuer);
        let ca_chain = mitm.intercept("a.example", &[a], true, s.now).unwrap();
        let cb_chain = mitm.intercept("b.example", &[b], true, s.now).unwrap();
        assert_ne!(ca_chain[0].subject_key, cb_chain[0].subject_key);
    }

    #[test]
    fn invalid_cert_masked_by_same_issuer_policy() {
        let mut s = setup();
        let bad = self_signed_leaf("invalid1.example", s.now, &mut s.rng);
        let mut mitm = av(&mut s, true, InvalidCertPolicy::SpoofSameIssuer);
        let chain = mitm
            .intercept("invalid1.example", &[bad], false, s.now)
            .unwrap();
        let mut host_roots = s.roots.clone();
        host_roots.add(mitm.installed_root());
        // The browser now trusts a certificate for a site that was invalid:
        // the vulnerability §6.2 describes.
        assert_eq!(
            verify_chain(&chain, "invalid1.example", s.now, &host_roots),
            Ok(())
        );
    }

    #[test]
    fn invalid_cert_alt_issuer_still_warns() {
        let mut s = setup();
        let bad = self_signed_leaf("invalid1.example", s.now, &mut s.rng);
        let alt = DistinguishedName::cn("avast! Web/Mail Shield untrusted root");
        let mut mitm = av(
            &mut s,
            false,
            InvalidCertPolicy::SpoofAltIssuer(alt.clone()),
        );
        let chain = mitm
            .intercept("invalid1.example", &[bad], false, s.now)
            .unwrap();
        assert_eq!(chain[0].issuer, alt);
        let mut host_roots = s.roots.clone();
        host_roots.add(mitm.installed_root()); // main root installed, alt is not
        assert!(verify_chain(&chain, "invalid1.example", s.now, &host_roots).is_err());
    }

    #[test]
    fn passthrough_policy_leaves_invalid_untouched() {
        let mut s = setup();
        let bad = self_signed_leaf("blocked.example", s.now, &mut s.rng);
        let mut mitm = av(&mut s, true, InvalidCertPolicy::PassThrough);
        assert!(mitm
            .intercept("blocked.example", &[bad], false, s.now)
            .is_none());
    }

    #[test]
    fn cloudguard_copies_fields() {
        let mut s = setup();
        let original = s.site_ca.issue_leaf("bank.example", s.now, &mut s.rng);
        let mut mitm = TlsInterceptor::new(
            DistinguishedName::cn("Cloudguard.me"),
            true,
            InvalidCertPolicy::SpoofSameIssuer,
            true,
            Selectivity::All,
            s.now,
            &mut s.rng,
        );
        let chain = mitm
            .intercept("bank.example", std::slice::from_ref(&original), true, s.now)
            .unwrap();
        assert_eq!(chain[0].serial, original.serial);
        assert_eq!(chain[0].not_after, original.not_after);
        assert_eq!(chain[0].issuer.common_name, "Cloudguard.me");
    }

    #[test]
    fn selectivity_is_deterministic_per_site() {
        let mut s = setup();
        let mitm = TlsInterceptor::new(
            DistinguishedName::cn("OpenDNS Root Certificate Authority"),
            true,
            InvalidCertPolicy::PassThrough,
            false,
            Selectivity::PerSiteFraction(0.3),
            s.now,
            &mut s.rng,
        );
        let sites: Vec<String> = (0..200).map(|i| format!("site{i}.example")).collect();
        let first: Vec<bool> = sites.iter().map(|h| mitm.would_intercept(h)).collect();
        let second: Vec<bool> = sites.iter().map(|h| mitm.would_intercept(h)).collect();
        assert_eq!(first, second, "per-site decision must be stable");
        let hits = first.iter().filter(|b| **b).count();
        assert!((30..90).contains(&hits), "≈30% of 200, got {hits}");
    }

    #[test]
    fn empty_chain_not_intercepted() {
        let mut s = setup();
        let mut mitm = av(&mut s, true, InvalidCertPolicy::SpoofSameIssuer);
        assert!(mitm.intercept("x.example", &[], true, s.now).is_none());
    }
}
