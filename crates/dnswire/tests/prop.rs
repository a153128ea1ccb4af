//! Property-based tests: wire-format roundtrips, decoder robustness, and
//! `DnsName` against a label-list model.

use dnswire::{decode, encode, DnsName, Message, QType, RData, Rcode, Record};
use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};
use substrate::qc::{self, alphabet, Config, Gen};
use substrate::{qc_assert, qc_assert_eq, qc_assume};

fn cfg() -> Config {
    Config::with_cases(256)
}

/// `[a-z0-9][a-z0-9-]{0,14}` — one DNS label.
fn labels() -> Gen<String> {
    qc::tuple2(
        qc::string_of(alphabet::LOWER_ALNUM, 1..=1),
        qc::string_of("abcdefghijklmnopqrstuvwxyz0123456789-", 0..15),
    )
    .map(|(head, tail)| head + &tail)
}

fn names() -> Gen<DnsName> {
    qc::vec_of(labels(), 1..5)
        .map(|labels| DnsName::parse(&labels.join(".")).expect("generated labels are valid"))
}

fn qtypes() -> Gen<QType> {
    qc::one_of(vec![
        qc::just(QType::A),
        qc::just(QType::Ns),
        qc::just(QType::Cname),
        qc::just(QType::Txt),
        qc::just(QType::Aaaa),
        qc::just(QType::Soa),
    ])
}

fn rdatas() -> Gen<RData> {
    qc::one_of(vec![
        qc::any_u32().map(|v| RData::A(Ipv4Addr::from(v))),
        qc::any_u128().map(|v| RData::Aaaa(Ipv6Addr::from(v))),
        names().map(RData::Ns),
        names().map(RData::Cname),
        names().map(RData::Ptr),
        qc::vec_of(qc::string_of(alphabet::PRINTABLE, 0..41), 0..3).map(RData::Txt),
        qc::tuple4(names(), names(), qc::any_u32(), qc::any_u32()).map(
            |(mname, rname, serial, t)| RData::Soa {
                mname,
                rname,
                serial,
                refresh: t,
                retry: t / 2,
                expire: t.saturating_mul(2),
                minimum: 300,
            },
        ),
    ])
}

fn records() -> Gen<Record> {
    qc::tuple3(names(), qc::any_u32(), rdatas()).map(|(name, ttl, rdata)| Record {
        name,
        ttl,
        rdata,
    })
}

fn messages() -> Gen<Message> {
    let rcodes = qc::one_of(vec![
        qc::just(Rcode::NoError),
        qc::just(Rcode::NxDomain),
        qc::just(Rcode::ServFail),
    ]);
    qc::tuple5(
        qc::any_u16(),
        qc::tuple2(names(), qtypes()),
        qc::vec_of(records(), 0..6),
        qc::vec_of(records(), 0..3),
        rcodes,
    )
    .map(|(id, (qname, qtype), answers, authority, rcode)| {
        let q = Message::query(id, qname, qtype);
        let mut m = Message::respond(&q, rcode, answers);
        m.authority = authority;
        m
    })
}

/// encode → decode is the identity on well-formed messages, including
/// through the name-compression path.
#[test]
fn roundtrip() {
    qc::check("dns message roundtrip", &cfg(), &messages(), |msg| {
        let bytes = encode(msg).expect("encodable");
        let back = decode(&bytes).expect("decodable");
        qc_assert_eq!(&back, msg);
        qc::pass()
    });
}

/// The decoder never panics on arbitrary bytes.
#[test]
fn decoder_total_on_garbage() {
    qc::check(
        "decoder totality on garbage",
        &cfg(),
        &qc::bytes(0..512),
        |bytes| {
            let _ = decode(bytes);
            qc::pass()
        },
    );
}

/// The decoder never panics on corrupted valid messages (single-octet
/// mutations, the fault-injector model).
#[test]
fn decoder_total_on_corruption() {
    qc::check(
        "decoder totality on corruption",
        &cfg(),
        &qc::tuple3(messages(), qc::any_usize(), qc::ints(1u8..)),
        |(msg, idx, flip)| {
            let mut bytes = encode(msg).expect("encodable");
            if !bytes.is_empty() {
                let i = idx % bytes.len();
                bytes[i] ^= flip;
                let _ = decode(&bytes);
            }
            qc::pass()
        },
    );
}

/// Truncation at every length errors or yields a message, never panics.
#[test]
fn decoder_total_on_truncation() {
    qc::check(
        "decoder totality on truncation",
        &cfg(),
        &qc::tuple2(messages(), qc::floats(0.0..1.0)),
        |(msg, cut)| {
            let bytes = encode(msg).expect("encodable");
            let cut = (bytes.len() as f64 * cut) as usize;
            let _ = decode(&bytes[..cut]);
            qc::pass()
        },
    );
}

/// Name parse/display roundtrip, root and model-alphabet names included.
#[test]
fn name_roundtrip() {
    let names = qc::one_of(vec![
        names(),
        qc::vec_of(model_labels(), 0..5).map(|labels| model_name(&labels)),
    ]);
    qc::check("dns name roundtrip", &cfg(), &names, |name| {
        let s = name.to_string();
        qc_assert_eq!(&DnsName::parse(&s).unwrap(), name);
        qc::pass()
    });
}

/// Short labels over bytes that sit on both sides of `.` (0x2E) in ASCII
/// — `*` and `-` below it, digits and letters above — so label-wise and
/// naive string order disagree often, and prefixes ("a" / "a-") are common.
fn model_labels() -> Gen<String> {
    qc::string_of("a-*0_", 1..4)
}

fn model_name(labels: &[String]) -> DnsName {
    DnsName::parse(&labels.join(".")).expect("model labels are valid")
}

/// Two label lists sharing a (possibly empty) suffix, so the subdomain
/// relation holds in a good share of cases; either list may be the root.
fn model_pairs() -> Gen<(Vec<String>, Vec<String>)> {
    qc::tuple3(
        qc::vec_of(model_labels(), 0..3),
        qc::vec_of(model_labels(), 0..3),
        qc::vec_of(model_labels(), 0..3),
    )
    .map(|(a, b, suffix)| {
        (
            a.into_iter().chain(suffix.iter().cloned()).collect(),
            b.into_iter().chain(suffix).collect(),
        )
    })
}

fn hash_of(name: &DnsName) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// `Ord`, `Eq` and `is_subdomain_of` agree with the label-list model:
/// order is the lexicographic order of the label lists (most-specific
/// label first), and a subdomain's labels end with its ancestor's.
#[test]
fn name_order_and_subdomains_match_the_label_model() {
    qc::check(
        "dns name vs label model",
        &cfg(),
        &model_pairs(),
        |(a_labels, b_labels)| {
            let (a, b) = (model_name(a_labels), model_name(b_labels));
            qc_assert_eq!(a.cmp(&b), a_labels.cmp(b_labels));
            qc_assert_eq!(a == b, a_labels == b_labels);
            qc_assert_eq!(a.is_subdomain_of(&b), a_labels.ends_with(b_labels));
            qc_assert_eq!(b.is_subdomain_of(&a), b_labels.ends_with(a_labels));
            let labels: Vec<&str> = a.labels().collect();
            qc_assert_eq!(labels, *a_labels);
            qc_assert_eq!(a.label_count(), a_labels.len());
            qc_assert_eq!(a.is_root(), a_labels.is_empty());
            qc::pass()
        },
    );
}

/// Names differing only in letter case are equal and hash equal.
#[test]
fn case_variants_are_equal_and_hash_equal() {
    qc::check(
        "dns name case folding",
        &cfg(),
        &qc::tuple2(qc::vec_of(labels(), 1..5), qc::any_u64()),
        |(labels, mask)| {
            let lower = labels.join(".");
            let mixed: String = lower
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if mask >> (i % 64) & 1 == 1 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
            let (a, b) = (
                DnsName::parse(&lower).expect("valid"),
                DnsName::parse(&mixed).expect("valid"),
            );
            qc_assert_eq!(&a, &b);
            qc_assert_eq!(hash_of(&a), hash_of(&b));
            qc_assert_eq!(a.to_string(), lower);
            qc::pass()
        },
    );
}

/// A message whose names have more than 64 distinct suffixes — more than
/// the encoder keeps inline — round-trips, and a second copy of every
/// record compresses its owner name to one pointer, including names whose
/// offsets spilled past the inline ones.
#[test]
fn many_suffixes_spill_and_still_compress() {
    let zones = ["example.com", "tft.example", "probe.tft.example"];
    let names = qc::vec_of(
        qc::tuple2(qc::vec_of(labels(), 1..3), qc::ints(0usize..3)).map(move |(head, zone)| {
            DnsName::parse(&format!("{}.{}", head.join("."), zones[zone])).expect("valid")
        }),
        40..60,
    );
    qc::check(
        "dns encoder suffix spill",
        &Config::with_cases(64),
        &names,
        |names| {
            let suffixes: BTreeSet<DnsName> = names
                .iter()
                .flat_map(|n| std::iter::successors(Some(n.clone()), DnsName::parent))
                .filter(|n| !n.is_root())
                .collect();
            qc_assume!(suffixes.len() > 64);
            let records: Vec<Record> = names
                .iter()
                .enumerate()
                .map(|(i, name)| Record {
                    name: name.clone(),
                    ttl: 60,
                    rdata: RData::A(Ipv4Addr::from(i as u32)),
                })
                .collect();
            let q = Message::query(1, names[0].clone(), QType::A);
            let once = Message::respond(&q, Rcode::NoError, records.clone());
            let mut twice = once.clone();
            twice.additional = records;
            let once_len = encode(&once).expect("encodable").len();
            let bytes = encode(&twice).expect("encodable");
            qc_assert_eq!(&decode(&bytes).expect("decodable"), &twice);
            // Each repeated record: a 2-octet pointer, type, class, TTL,
            // rdlength and a 4-octet address.
            qc_assert!(
                bytes.len() == once_len + 16 * names.len(),
                "{} suffixes: {} bytes twice vs {once_len} once",
                suffixes.len(),
                bytes.len()
            );
            qc::pass()
        },
    );
}
