//! The measurement study's authoritative DNS server.
//!
//! Two capabilities the methodology depends on (§4.1):
//!
//! 1. **Source-conditional answers** — for the d₂ probe the server returns a
//!    valid A record *only* when the query arrives from the super proxy's
//!    resolver (Google's anycast range); every other source gets NXDOMAIN.
//!    This convinces the super proxy the domain exists while presenting
//!    NXDOMAIN to the exit node's resolver.
//! 2. **A query log** — the *incoming DNS request* is the only way to learn
//!    an exit node's resolver address; the log is a primary observable of
//!    the whole study.

use crate::name::DnsName;
use crate::wire::{Message, QType, Rcode};
use crate::zone::{Zone, ZoneAnswer};
use netsim::SimTime;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Per-name answer override policies.
#[derive(Debug, Clone)]
pub enum AnswerOverride {
    /// Return NXDOMAIN unless the query source lies inside the allowed
    /// predicate — the d₂ trick. The predicate is a list of `(network
    /// address, prefix length)` pairs.
    NxdomainUnlessFrom(Vec<inetdb_net::Net>),
    /// Always SERVFAIL (used in fault-handling tests).
    ServFail,
}

/// Minimal CIDR predicate, local to this crate to avoid a dependency cycle
/// (inetdb depends on nothing DNS-related, but dnswire should not pull the
/// whole registry in just for a prefix test).
pub mod inetdb_net {
    use std::net::Ipv4Addr;

    /// A network predicate: address and prefix length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Net {
        addr: u32,
        len: u8,
    }

    impl Net {
        /// Construct, masking host bits.
        ///
        /// # Panics
        /// Panics if `len > 32`.
        pub fn new(addr: Ipv4Addr, len: u8) -> Self {
            assert!(len <= 32);
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            Net {
                addr: u32::from(addr) & mask,
                len,
            }
        }

        /// True if `ip` is inside the prefix.
        pub fn contains(&self, ip: Ipv4Addr) -> bool {
            let mask = if self.len == 0 {
                0
            } else {
                u32::MAX << (32 - self.len)
            };
            (u32::from(ip) & mask) == self.addr
        }
    }
}

/// One logged query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryLogEntry {
    /// When the query arrived.
    pub at: SimTime,
    /// Source address of the query — an exit node's resolver, or the super
    /// proxy's Google resolver.
    pub src: Ipv4Addr,
    /// Queried name.
    pub qname: DnsName,
    /// Queried type.
    pub qtype: QType,
}

substrate::json_struct!(QueryLogEntry {
    at,
    src,
    qname,
    qtype,
});

/// The authoritative server: a zone, per-name overrides, and a query log.
#[derive(Debug, Clone)]
pub struct AuthServer {
    zone: Zone,
    overrides: BTreeMap<DnsName, AnswerOverride>,
    log: Vec<QueryLogEntry>,
}

impl AuthServer {
    /// Serve the given zone.
    pub fn new(zone: Zone) -> Self {
        AuthServer {
            zone,
            overrides: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Mutable access to the zone (the measurement client provisions probe
    /// names on the fly).
    pub fn zone_mut(&mut self) -> &mut Zone {
        &mut self.zone
    }

    /// Read access to the zone.
    pub fn zone(&self) -> &Zone {
        &self.zone
    }

    /// Install an override for `name`.
    pub fn set_override(&mut self, name: DnsName, policy: AnswerOverride) {
        self.overrides.insert(name, policy);
    }

    /// Remove an override.
    pub fn clear_override(&mut self, name: &DnsName) {
        self.overrides.remove(name);
    }

    /// Handle one query, logging it and applying overrides.
    pub fn handle(&mut self, query: &Message, src: Ipv4Addr, now: SimTime) -> Message {
        let Some(q) = query.questions.first() else {
            return Message::respond(query, Rcode::FormErr, vec![]);
        };
        self.log.push(QueryLogEntry {
            at: now,
            src,
            qname: q.qname.clone(),
            qtype: q.qtype,
        });
        if let Some(policy) = self.overrides.get(&q.qname) {
            match policy {
                AnswerOverride::NxdomainUnlessFrom(allowed) => {
                    if !allowed.iter().any(|n| n.contains(src)) {
                        let mut resp = Message::respond(query, Rcode::NxDomain, vec![]);
                        resp.authority.push(self.zone.soa().clone());
                        return resp;
                    }
                    // fall through to the zone answer
                }
                AnswerOverride::ServFail => {
                    return Message::respond(query, Rcode::ServFail, vec![]);
                }
            }
        }
        match self.zone.lookup(&q.qname, q.qtype) {
            ZoneAnswer::Records(rrs) => Message::respond(query, Rcode::NoError, rrs),
            ZoneAnswer::NoData => {
                let mut resp = Message::respond(query, Rcode::NoError, vec![]);
                resp.authority.push(self.zone.soa().clone());
                resp
            }
            ZoneAnswer::NxDomain => {
                let mut resp = Message::respond(query, Rcode::NxDomain, vec![]);
                resp.authority.push(self.zone.soa().clone());
                resp
            }
            ZoneAnswer::NotAuthoritative => Message::respond(query, Rcode::Refused, vec![]),
        }
    }

    /// The full query log.
    pub fn log(&self) -> &[QueryLogEntry] {
        &self.log
    }

    /// Remove and return the whole log (a shard's evidence), in a buffer
    /// sized to it.
    pub fn take_log(&mut self) -> Vec<QueryLogEntry> {
        self.log.split_off(0)
    }

    /// Swap in `log` and return the old log, moving both buffers without
    /// copying an entry.
    pub fn replace_log(&mut self, log: Vec<QueryLogEntry>) -> Vec<QueryLogEntry> {
        std::mem::replace(&mut self.log, log)
    }

    /// Move `entries` onto the end of the log, leaving `entries` empty
    /// (shard evidence merging).
    pub fn append_log(&mut self, entries: &mut Vec<QueryLogEntry>) {
        self.log.append(entries);
    }

    /// Queries for one name, in arrival order.
    pub fn queries_for<'a>(
        &'a self,
        name: &'a DnsName,
    ) -> impl Iterator<Item = &'a QueryLogEntry> + 'a {
        self.log.iter().filter(move |e| &e.qname == name)
    }
}

#[cfg(test)]
mod tests {
    use super::inetdb_net::Net;
    use super::*;
    use crate::wire::RData;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn server() -> AuthServer {
        let mut zone = Zone::new(name("tft-probe.example"));
        zone.add_a(name("d1.tft-probe.example"), Ipv4Addr::new(192, 0, 2, 80));
        zone.add_a(name("d2.tft-probe.example"), Ipv4Addr::new(192, 0, 2, 80));
        AuthServer::new(zone)
    }

    const GOOGLE_SRC: Ipv4Addr = Ipv4Addr::new(74, 125, 3, 9);
    const ISP_SRC: Ipv4Addr = Ipv4Addr::new(41, 0, 0, 53);

    fn google_only() -> AnswerOverride {
        AnswerOverride::NxdomainUnlessFrom(vec![Net::new(Ipv4Addr::new(74, 125, 0, 0), 16)])
    }

    #[test]
    fn d1_resolves_for_everyone() {
        let mut s = server();
        let q = Message::query(1, name("d1.tft-probe.example"), QType::A);
        assert_eq!(
            s.handle(&q, ISP_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::NoError
        );
        assert_eq!(
            s.handle(&q, GOOGLE_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::NoError
        );
    }

    #[test]
    fn d2_is_conditional_on_source() {
        let mut s = server();
        s.set_override(name("d2.tft-probe.example"), google_only());
        let q = Message::query(2, name("d2.tft-probe.example"), QType::A);
        // Super proxy's Google resolver sees a valid record…
        let via_google = s.handle(&q, GOOGLE_SRC, SimTime::EPOCH);
        assert_eq!(via_google.flags.rcode, Rcode::NoError);
        assert!(matches!(via_google.answers[0].rdata, RData::A(_)));
        // …while the exit node's resolver sees NXDOMAIN.
        let via_isp = s.handle(&q, ISP_SRC, SimTime::EPOCH);
        assert!(via_isp.is_nxdomain());
        assert!(
            !via_isp.authority.is_empty(),
            "negative response carries SOA"
        );
    }

    #[test]
    fn every_query_is_logged_with_source() {
        let mut s = server();
        let q = Message::query(3, name("d1.tft-probe.example"), QType::A);
        s.handle(&q, ISP_SRC, SimTime::from_millis(500));
        s.handle(&q, GOOGLE_SRC, SimTime::from_millis(900));
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.log()[0].src, ISP_SRC);
        assert_eq!(s.log()[1].at, SimTime::from_millis(900));
        assert_eq!(s.queries_for(&name("d1.tft-probe.example")).count(), 2);
    }

    #[test]
    fn unknown_name_is_nxdomain() {
        let mut s = server();
        let q = Message::query(4, name("ghost.tft-probe.example"), QType::A);
        assert!(s.handle(&q, ISP_SRC, SimTime::EPOCH).is_nxdomain());
    }

    #[test]
    fn out_of_zone_refused() {
        let mut s = server();
        let q = Message::query(5, name("www.elsewhere.example"), QType::A);
        assert_eq!(
            s.handle(&q, ISP_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::Refused
        );
    }

    #[test]
    fn servfail_override() {
        let mut s = server();
        s.set_override(name("d1.tft-probe.example"), AnswerOverride::ServFail);
        let q = Message::query(6, name("d1.tft-probe.example"), QType::A);
        assert_eq!(
            s.handle(&q, ISP_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::ServFail
        );
    }

    #[test]
    fn clearing_override_restores_zone_answer() {
        let mut s = server();
        s.set_override(name("d2.tft-probe.example"), google_only());
        s.clear_override(&name("d2.tft-probe.example"));
        let q = Message::query(7, name("d2.tft-probe.example"), QType::A);
        assert_eq!(
            s.handle(&q, ISP_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::NoError
        );
    }

    #[test]
    fn empty_question_is_formerr() {
        let mut s = server();
        let mut q = Message::query(8, name("d1.tft-probe.example"), QType::A);
        q.questions.clear();
        assert_eq!(
            s.handle(&q, ISP_SRC, SimTime::EPOCH).flags.rcode,
            Rcode::FormErr
        );
        assert!(s.log().is_empty(), "malformed queries are not logged");
    }
}
