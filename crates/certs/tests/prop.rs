//! Property tests: chain validation accepts exactly the chains it should.

use certs::{
    exact_match, verify_chain, CertAuthority, CertError, DistinguishedName, KeyId, RootStore,
};
use netsim::{SimDuration, SimRng, SimTime};
use substrate::qc::{self, alphabet, Config, Gen};
use substrate::{qc_assert, qc_assert_eq, qc_assert_ne, qc_assume};

/// `[a-z]{1,10}(\.[a-z]{2,8}){1,3}` — a dotted hostname.
fn hosts() -> Gen<String> {
    qc::tuple2(
        qc::string_of(alphabet::LOWER, 1..11),
        qc::vec_of(qc::string_of(alphabet::LOWER, 2..9), 1..4),
    )
    .map(|(head, tail)| {
        let mut s = head;
        for part in tail {
            s.push('.');
            s.push_str(&part);
        }
        s
    })
}

/// A chain issued root → (0..3 intermediates) → leaf always validates
/// for its own hostname inside its validity window.
#[test]
fn issued_chains_validate() {
    qc::check(
        "issued chains validate",
        &Config::default(),
        &qc::tuple3(qc::any_u64(), hosts(), qc::ints(0usize..3)),
        |(seed, host, depth)| {
            let mut rng = SimRng::new(*seed);
            let now = SimTime::EPOCH + SimDuration::from_days(10);
            let (store, mut cas) = RootStore::os_x_like(3, SimTime::EPOCH, &mut rng);
            let mut signer = cas.remove(0);
            let mut chain_tail = vec![signer.cert.clone()];
            for i in 0..*depth {
                let inter = signer.issue_intermediate(
                    DistinguishedName::cn(&format!("Inter {i}")),
                    SimTime::EPOCH,
                    &mut rng,
                );
                chain_tail.insert(0, inter.cert.clone());
                signer = inter;
            }
            let leaf = signer.issue_leaf(host, SimTime::EPOCH, &mut rng);
            let mut chain = vec![leaf];
            chain.extend(chain_tail);
            qc_assert_eq!(verify_chain(&chain, host, now, &store), Ok(()));
            qc::pass()
        },
    );
}

/// Any single broken signature link invalidates the chain.
#[test]
fn broken_link_is_rejected() {
    qc::check(
        "broken link rejected",
        &Config::default(),
        &qc::tuple3(qc::any_u64(), hosts(), qc::any_u64()),
        |(seed, host, key)| {
            let mut rng = SimRng::new(*seed);
            let now = SimTime::EPOCH + SimDuration::from_days(10);
            let (store, mut cas) = RootStore::os_x_like(2, SimTime::EPOCH, &mut rng);
            let mut inter =
                cas[0].issue_intermediate(DistinguishedName::cn("Inter"), SimTime::EPOCH, &mut rng);
            let mut leaf = inter.issue_leaf(host, SimTime::EPOCH, &mut rng);
            let forged = KeyId(*key);
            qc_assume!(forged != leaf.issuer_key);
            leaf.issuer_key = forged;
            let chain = vec![leaf, inter.cert.clone()];
            qc_assert_eq!(
                verify_chain(&chain, host, now, &store),
                Err(CertError::BadSignature)
            );
            qc::pass()
        },
    );
}

/// A chain for host A never validates for an unrelated host B.
#[test]
fn wrong_hostname_rejected() {
    qc::check(
        "wrong hostname rejected",
        &Config::default(),
        &qc::tuple3(qc::any_u64(), hosts(), hosts()),
        |(seed, a, b)| {
            qc_assume!(a != b);
            let mut rng = SimRng::new(*seed);
            let now = SimTime::EPOCH + SimDuration::from_days(10);
            let (store, mut cas) = RootStore::os_x_like(1, SimTime::EPOCH, &mut rng);
            let leaf = cas[0].issue_leaf(a, SimTime::EPOCH, &mut rng);
            qc_assert_eq!(
                verify_chain(&[leaf], b, now, &store),
                Err(CertError::NameMismatch)
            );
            qc::pass()
        },
    );
}

/// Outside the validity window the verdict is Expired / NotYetValid.
#[test]
fn time_window_enforced() {
    qc::check(
        "time window enforced",
        &Config::default(),
        &qc::tuple3(qc::any_u64(), hosts(), qc::ints(731u64..2000)),
        |(seed, host, offset_days)| {
            let mut rng = SimRng::new(*seed);
            let (store, mut cas) = RootStore::os_x_like(1, SimTime::EPOCH, &mut rng);
            let leaf =
                cas[0].issue_leaf(host, SimTime::EPOCH + SimDuration::from_days(1), &mut rng);
            let too_late = SimTime::EPOCH + SimDuration::from_days(1 + offset_days);
            qc_assert_eq!(
                verify_chain(std::slice::from_ref(&leaf), host, too_late, &store),
                Err(CertError::Expired)
            );
            qc_assert_eq!(
                verify_chain(&[leaf], host, SimTime::EPOCH, &store),
                Err(CertError::NotYetValid)
            );
            qc::pass()
        },
    );
}

/// Fingerprints of independently issued certificates never collide in
/// practice; a certificate equals itself.
#[test]
fn fingerprint_discriminates() {
    qc::check(
        "fingerprint discriminates",
        &Config::default(),
        &qc::tuple2(qc::any_u64(), hosts()),
        |(seed, host)| {
            let mut rng = SimRng::new(*seed);
            let mut ca =
                CertAuthority::new_root(DistinguishedName::cn("Root"), SimTime::EPOCH, &mut rng);
            let a = ca.issue_leaf(host, SimTime::EPOCH, &mut rng);
            let b = ca.issue_leaf(host, SimTime::EPOCH, &mut rng);
            qc_assert_eq!(a.fingerprint(), a.fingerprint());
            qc_assert_ne!(a.fingerprint(), b.fingerprint());
            qc::pass()
        },
    );
}

/// `exact_match` is equality of the leaf: over issued certificates and
/// every single-field perturbation of them (a tweak of 0 or an even tweak
/// to a flag or string leaves the field as it was), a chain matches exactly
/// when its leaf equals the expected certificate, whatever follows the
/// leaf, and an empty chain never matches.
#[test]
fn exact_match_is_leaf_equality() {
    qc::check(
        "exact match is leaf equality",
        &Config::default(),
        &qc::tuple4(qc::any_u64(), hosts(), qc::ints(0usize..12), qc::any_u64()),
        |(seed, host, field, tweak)| {
            let mut rng = SimRng::new(*seed);
            let mut ca =
                CertAuthority::new_root(DistinguishedName::cn("Root"), SimTime::EPOCH, &mut rng);
            let a = ca.issue_leaf(host, SimTime::EPOCH, &mut rng);
            let (mut b, t, odd) = (a.clone(), *tweak, *tweak % 2 == 1);
            let text = |on: bool| on.then(|| "perturbed".to_string());
            match field {
                0 => b.serial ^= t,
                1 => b.subject.common_name.extend(text(odd)),
                2 => b.subject.organization = text(odd),
                3 => b.subject.country = text(odd),
                4 => b.issuer.common_name.extend(text(odd)),
                5 => b.subject_key = KeyId(b.subject_key.0 ^ t),
                6 => b.issuer_key = KeyId(b.issuer_key.0 ^ t),
                7 => b.not_before = SimTime::from_millis(b.not_before.as_millis() ^ t),
                8 => b.not_after = SimTime::from_millis(b.not_after.as_millis() ^ t),
                9 => b.san.extend(text(odd)),
                10 => b.is_ca ^= odd,
                _ => {}
            }
            qc_assert_eq!(exact_match(std::slice::from_ref(&b), &a), a == b);
            qc_assert_eq!(exact_match(&[b.clone(), a.clone()], &a), a == b);
            qc_assert!(!exact_match(&[], &a));
            qc::pass()
        },
    );
}
