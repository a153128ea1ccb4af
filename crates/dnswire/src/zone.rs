//! Authoritative zone data and lookup semantics.
//!
//! Implements the distinction the paper's methodology hinges on: **NXDOMAIN**
//! (the name does not exist at all) versus **NODATA** (the name exists but
//! has no records of the queried type), plus wildcard synthesis and
//! single-level CNAME chasing.

use crate::name::DnsName;
use crate::wire::{QType, RData, Record};
use std::collections::BTreeMap;

/// Result of an authoritative lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneAnswer {
    /// Records found (possibly via CNAME; the chain is included in order).
    Records(Vec<Record>),
    /// The name exists but has no records of the queried type.
    NoData,
    /// The name does not exist.
    NxDomain,
    /// The query name is not within this zone's authority.
    NotAuthoritative,
}

/// An authoritative zone: an apex name, an SOA, and owner-name → records.
#[derive(Debug, Clone)]
pub struct Zone {
    apex: DnsName,
    soa: Record,
    records: BTreeMap<DnsName, Vec<Record>>,
}

impl Zone {
    /// Create a zone with a default SOA.
    ///
    /// # Panics
    /// Panics if `apex` is the root (we never act as root servers).
    pub fn new(apex: DnsName) -> Self {
        assert!(!apex.is_root(), "zone apex must not be the root");
        let soa = Record {
            name: apex.clone(),
            ttl: 3600,
            rdata: RData::Soa {
                // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "literal label on an operator-validated apex, not wire input; only an over-long apex could fail")
                mname: apex.child("ns1").expect("valid child label"),
                // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "literal label on an operator-validated apex, not wire input; only an over-long apex could fail")
                rname: apex.child("hostmaster").expect("valid child label"),
                serial: 1,
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        };
        Zone {
            apex,
            soa,
            records: BTreeMap::new(),
        }
    }

    /// The zone apex.
    pub fn apex(&self) -> &DnsName {
        &self.apex
    }

    /// The SOA record (returned in the authority section of negative
    /// responses).
    pub fn soa(&self) -> &Record {
        &self.soa
    }

    /// Add a record.
    ///
    /// # Panics
    /// Panics if the owner name is outside the zone.
    pub fn add(&mut self, record: Record) -> &mut Self {
        assert!(
            record.name.is_subdomain_of(&self.apex),
            "record {} outside zone {}",
            record.name,
            self.apex
        );
        self.records
            .entry(record.name.clone())
            .or_default()
            .push(record);
        self
    }

    /// Convenience: add an A record.
    pub fn add_a(&mut self, name: DnsName, ip: std::net::Ipv4Addr) -> &mut Self {
        self.add(Record {
            name,
            ttl: 300,
            rdata: RData::A(ip),
        })
    }

    /// The stored owner name equal to `name`, if any records sit there: the
    /// allocation whoever provisioned the name built.
    pub(crate) fn owner(&self, name: &DnsName) -> Option<&DnsName> {
        self.records.get_key_value(name).map(|(owner, _)| owner)
    }

    /// Remove all records at `name`. Returns how many were removed.
    pub fn remove(&mut self, name: &DnsName) -> usize {
        self.records.remove(name).map(|v| v.len()).unwrap_or(0)
    }

    /// True if any record exists at `name` or below it (empty non-terminals
    /// exist and must answer NODATA, not NXDOMAIN).
    fn name_exists(&self, name: &DnsName) -> bool {
        if self.records.contains_key(name) {
            return true;
        }
        // An "empty non-terminal": some stored owner is a subdomain of name.
        self.records.keys().any(|owner| owner.is_subdomain_of(name))
    }

    /// Authoritative lookup with wildcard synthesis and one level of CNAME
    /// chasing (enough for our zones; real servers chase further).
    pub fn lookup(&self, qname: &DnsName, qtype: QType) -> ZoneAnswer {
        if !qname.is_subdomain_of(&self.apex) {
            return ZoneAnswer::NotAuthoritative;
        }
        if let Some(rrs) = self.records.get(qname) {
            let matching: Vec<Record> = rrs
                .iter()
                .filter(|r| qtype == QType::Any || r.rdata.rtype() == qtype)
                .cloned()
                .collect();
            if !matching.is_empty() {
                return ZoneAnswer::Records(matching);
            }
            // CNAME at the name answers any type (except explicit CNAME
            // queries, handled above by the filter).
            if let Some(cname_rr) = rrs.iter().find(|r| matches!(r.rdata, RData::Cname(_))) {
                let mut chain = vec![cname_rr.clone()];
                if let RData::Cname(target) = &cname_rr.rdata {
                    if let ZoneAnswer::Records(mut rest) = self.lookup_no_cname(target, qtype) {
                        chain.append(&mut rest);
                    }
                }
                return ZoneAnswer::Records(chain);
            }
            return ZoneAnswer::NoData;
        }
        if self.name_exists(qname) {
            return ZoneAnswer::NoData;
        }
        // Wildcard synthesis: *.parent matches a nonexistent child.
        if let Some(wildcard) = qname.to_wildcard() {
            if let Some(rrs) = self.records.get(&wildcard) {
                let matching: Vec<Record> = rrs
                    .iter()
                    .filter(|r| qtype == QType::Any || r.rdata.rtype() == qtype)
                    .map(|r| Record {
                        name: qname.clone(),
                        ttl: r.ttl,
                        rdata: r.rdata.clone(),
                    })
                    .collect();
                if !matching.is_empty() {
                    return ZoneAnswer::Records(matching);
                }
                return ZoneAnswer::NoData;
            }
        }
        ZoneAnswer::NxDomain
    }

    /// Lookup without CNAME chasing (used to terminate the chase).
    fn lookup_no_cname(&self, qname: &DnsName, qtype: QType) -> ZoneAnswer {
        if let Some(rrs) = self.records.get(qname) {
            let matching: Vec<Record> = rrs
                .iter()
                .filter(|r| qtype == QType::Any || r.rdata.rtype() == qtype)
                .cloned()
                .collect();
            if !matching.is_empty() {
                return ZoneAnswer::Records(matching);
            }
            return ZoneAnswer::NoData;
        }
        ZoneAnswer::NxDomain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn zone() -> Zone {
        let mut z = Zone::new(name("tft-probe.example"));
        z.add_a(name("www.tft-probe.example"), Ipv4Addr::new(192, 0, 2, 80));
        z.add(Record {
            name: name("alias.tft-probe.example"),
            ttl: 60,
            rdata: RData::Cname(name("www.tft-probe.example")),
        });
        z.add(Record {
            name: name("txt.tft-probe.example"),
            ttl: 60,
            rdata: RData::Txt(vec!["v=probe".into()]),
        });
        z.add_a(
            name("*.wild.tft-probe.example"),
            Ipv4Addr::new(192, 0, 2, 99),
        );
        z.add_a(
            name("deep.under.empty.tft-probe.example"),
            Ipv4Addr::new(192, 0, 2, 5),
        );
        z
    }

    #[test]
    fn positive_answer() {
        let z = zone();
        match z.lookup(&name("www.tft-probe.example"), QType::A) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert_eq!(rrs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 80)));
            }
            other => panic!("expected records, got {other:?}"),
        }
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let z = zone();
        assert_eq!(
            z.lookup(&name("nope.tft-probe.example"), QType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn nodata_for_wrong_type() {
        let z = zone();
        assert_eq!(
            z.lookup(&name("txt.tft-probe.example"), QType::A),
            ZoneAnswer::NoData
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata_not_nxdomain() {
        let z = zone();
        // "under.empty..." has no records itself but has a child.
        assert_eq!(
            z.lookup(&name("under.empty.tft-probe.example"), QType::A),
            ZoneAnswer::NoData
        );
    }

    #[test]
    fn cname_is_chased_one_level() {
        let z = zone();
        match z.lookup(&name("alias.tft-probe.example"), QType::A) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs.len(), 2);
                assert!(matches!(rrs[0].rdata, RData::Cname(_)));
                assert!(matches!(rrs[1].rdata, RData::A(_)));
            }
            other => panic!("expected CNAME chain, got {other:?}"),
        }
    }

    #[test]
    fn explicit_cname_query_returns_cname_only() {
        let z = zone();
        match z.lookup(&name("alias.tft-probe.example"), QType::Cname) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs.len(), 1);
                assert!(matches!(rrs[0].rdata, RData::Cname(_)));
            }
            other => panic!("expected CNAME only, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesizes_query_name() {
        let z = zone();
        match z.lookup(&name("anything.wild.tft-probe.example"), QType::A) {
            ZoneAnswer::Records(rrs) => {
                assert_eq!(rrs[0].name, name("anything.wild.tft-probe.example"));
            }
            other => panic!("expected wildcard match, got {other:?}"),
        }
    }

    #[test]
    fn out_of_zone_is_not_authoritative() {
        let z = zone();
        assert_eq!(
            z.lookup(&name("www.other.example"), QType::A),
            ZoneAnswer::NotAuthoritative
        );
    }

    #[test]
    fn remove_makes_name_nxdomain() {
        let mut z = zone();
        assert_eq!(z.remove(&name("www.tft-probe.example")), 1);
        assert_eq!(
            z.lookup(&name("www.tft-probe.example"), QType::A),
            ZoneAnswer::NxDomain
        );
    }

    #[test]
    fn any_query_returns_all_types() {
        let mut z = zone();
        z.add(Record {
            name: name("www.tft-probe.example"),
            ttl: 60,
            rdata: RData::Txt(vec!["extra".into()]),
        });
        match z.lookup(&name("www.tft-probe.example"), QType::Any) {
            ZoneAnswer::Records(rrs) => assert_eq!(rrs.len(), 2),
            other => panic!("expected two records, got {other:?}"),
        }
    }
}
