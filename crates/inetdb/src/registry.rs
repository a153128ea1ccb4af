//! The combined Internet registry: organizations, ASes, address space, and
//! the `ip → AS → organization → country` resolution chain of §3.1.
//!
//! This is the in-simulation equivalent of RouteViews (prefix → AS) plus
//! CAIDA's AS-organizations dataset (AS → org, org → country). The world
//! generator populates it; the analysis layer queries it — exactly the two
//! external datasets the paper consumes.

use crate::routeviews::{RibBuilder, RibSnapshot};
use crate::types::{Asn, CountryCode, Ipv4Net, OrgId};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// An organization (ISP) record, equivalent to a CAIDA as2org entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Organization {
    /// Stable identifier.
    pub id: OrgId,
    /// Human-readable name (e.g. "TMnet", "TalkTalk").
    pub name: String,
    /// Country where the organization is registered. The paper's
    /// country-level statistics measure *AS registration*, not users; ours do
    /// the same.
    pub country: CountryCode,
}

/// An Autonomous System record.
#[derive(Debug, Clone)]
pub struct AsRecord {
    /// The AS number.
    pub asn: Asn,
    /// Operating organization.
    pub org: OrgId,
    /// Prefixes originated by this AS.
    pub prefixes: Vec<Ipv4Net>,
    /// Next host index to hand out from `prefixes` (addresses .1 upward).
    next_host: u64,
}

/// Builder/owner of the simulated Internet's address space and registry.
#[derive(Debug, Clone)]
pub struct InternetRegistry {
    orgs: BTreeMap<OrgId, Organization>,
    ases: BTreeMap<Asn, AsRecord>,
    next_org: u32,
    next_asn: u32,
    /// Next /16 block index to allocate (see `alloc_prefix`).
    next_block: u32,
    rib: Option<RibSnapshot>,
}

/// The Google DNS anycast source range: the paper empirically determined the
/// super proxy's resolver queries arrive from one of Google's anycasted
/// 8.8.8.8 servers in 74.125.0.0/16.
pub const GOOGLE_ANYCAST_NET: &str = "74.125.0.0/16";

/// Google's public resolver service address.
pub const GOOGLE_PUBLIC_DNS: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

impl Default for InternetRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl InternetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        InternetRegistry {
            orgs: BTreeMap::new(),
            ases: BTreeMap::new(),
            next_org: 1,
            next_asn: 1,
            next_block: 0,
            rib: None,
        }
    }

    /// Register an organization.
    pub fn register_org(&mut self, name: &str, country: CountryCode) -> OrgId {
        let id = OrgId(self.next_org);
        self.next_org += 1;
        self.orgs.insert(
            id,
            Organization {
                id,
                name: name.to_string(),
                country,
            },
        );
        id
    }

    /// Register an AS under `org` with a chosen ASN and `prefix_count`
    /// freshly allocated /16 prefixes.
    ///
    /// # Panics
    /// Panics if `org` is unknown or `asn` is already registered.
    pub fn register_as_with_asn(&mut self, asn: Asn, org: OrgId, prefix_count: usize) -> Asn {
        assert!(self.orgs.contains_key(&org), "unknown org {org}");
        assert!(
            !self.ases.contains_key(&asn),
            "ASN {asn} already registered"
        );
        self.next_asn = self.next_asn.max(asn.0 + 1);
        let prefixes: Vec<Ipv4Net> = (0..prefix_count).map(|_| self.alloc_prefix()).collect();
        self.ases.insert(
            asn,
            AsRecord {
                asn,
                org,
                prefixes,
                next_host: 1,
            },
        );
        self.rib = None; // invalidate snapshot
        asn
    }

    /// Register an AS under `org` with an auto-assigned ASN.
    pub fn register_as(&mut self, org: OrgId, prefix_count: usize) -> Asn {
        let asn = Asn(self.next_asn);
        self.next_asn += 1;
        self.register_as_with_asn(asn, org, prefix_count)
    }

    /// Register an AS that originates a *specific* prefix (used for
    /// well-known ranges like Google's 74.125.0.0/16).
    pub fn register_as_with_prefix(&mut self, org: OrgId, net: Ipv4Net) -> Asn {
        assert!(self.orgs.contains_key(&org), "unknown org {org}");
        let asn = Asn(self.next_asn);
        self.next_asn += 1;
        self.ases.insert(
            asn,
            AsRecord {
                asn,
                org,
                prefixes: vec![net],
                next_host: 1,
            },
        );
        self.rib = None;
        asn
    }

    /// Allocate a fresh /16 from the simulated address plan.
    ///
    /// Blocks are carved sequentially from 11.0.0.0 upward, skipping the
    /// ranges this workspace reserves for well-known entities (8/8 for
    /// public resolvers, 74.125/16 for Google anycast). The plan never
    /// collides because only this allocator hands out space.
    fn alloc_prefix(&mut self) -> Ipv4Net {
        loop {
            let block = self.next_block;
            self.next_block += 1;
            // Map block index to a /16: start at 11.0.0.0/16.
            let hi = 11 + (block >> 8);
            let mid = block & 0xff;
            assert!(hi < 224, "simulated address space exhausted");
            // Skip the reserved Google anycast range.
            if hi == 74 && mid == 125 {
                continue;
            }
            let addr = Ipv4Addr::new(hi as u8, mid as u8, 0, 0);
            return Ipv4Net::new(addr, 16);
        }
    }

    /// Hand out the next unused host address inside `asn`'s prefixes.
    ///
    /// # Panics
    /// Panics if the ASN is unknown or its space is exhausted.
    pub fn alloc_ip(&mut self, asn: Asn) -> Ipv4Addr {
        let rec = self.ases.get_mut(&asn).expect("unknown ASN");
        let per_prefix = rec.prefixes[0].size();
        let idx = rec.next_host;
        rec.next_host += 1;
        let prefix_idx = (idx / per_prefix) as usize;
        assert!(
            prefix_idx < rec.prefixes.len(),
            "address space of {asn} exhausted"
        );
        rec.prefixes[prefix_idx].nth(idx % per_prefix)
    }

    /// Organization lookup.
    pub fn org(&self, id: OrgId) -> Option<&Organization> {
        self.orgs.get(&id)
    }

    /// AS record lookup.
    pub fn as_record(&self, asn: Asn) -> Option<&AsRecord> {
        self.ases.get(&asn)
    }

    /// All registered ASNs.
    pub fn asns(&self) -> impl Iterator<Item = Asn> + '_ {
        self.ases.keys().copied()
    }

    /// All registered organizations.
    pub fn orgs(&self) -> impl Iterator<Item = &Organization> {
        self.orgs.values()
    }

    /// Build (or rebuild) the RIB snapshot after registration is complete.
    pub fn snapshot_rib(&mut self) {
        let mut b = RibBuilder::new();
        for rec in self.ases.values() {
            for &net in &rec.prefixes {
                b.announce(net, rec.asn);
            }
        }
        self.rib = Some(b.build());
    }

    fn rib(&self) -> &RibSnapshot {
        self.rib
            .as_ref()
            .expect("call snapshot_rib() after registering ASes")
    }

    /// `ip → ASN` via longest-prefix match (the RouteViews step).
    pub fn ip_to_asn(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.rib().origin(ip)
    }

    /// `ASN → organization` (the CAIDA as2org step).
    pub fn asn_to_org(&self, asn: Asn) -> Option<&Organization> {
        self.ases.get(&asn).and_then(|r| self.orgs.get(&r.org))
    }

    /// `ASN → country` (via the operating organization's registration).
    pub fn country_of_asn(&self, asn: Asn) -> Option<CountryCode> {
        self.asn_to_org(asn).map(|o| o.country)
    }

    /// Full chain: `ip → country`.
    pub fn country_of_ip(&self, ip: Ipv4Addr) -> Option<CountryCode> {
        self.ip_to_asn(ip).and_then(|a| self.country_of_asn(a))
    }

    /// Full chain: `ip → organization`.
    pub fn org_of_ip(&self, ip: Ipv4Addr) -> Option<&Organization> {
        self.ip_to_asn(ip).and_then(|a| self.asn_to_org(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    #[test]
    fn full_resolution_chain() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("TMnet", cc("MY"));
        let asn = reg.register_as(org, 1);
        let ip = reg.alloc_ip(asn);
        reg.snapshot_rib();
        assert_eq!(reg.ip_to_asn(ip), Some(asn));
        assert_eq!(reg.asn_to_org(asn).unwrap().name, "TMnet");
        assert_eq!(reg.country_of_ip(ip), Some(cc("MY")));
    }

    #[test]
    fn one_org_many_ases() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("Verizon", cc("US"));
        let a1 = reg.register_as(org, 1);
        let a2 = reg.register_as(org, 1);
        assert_ne!(a1, a2);
        reg.snapshot_rib();
        assert_eq!(
            reg.asn_to_org(a1).unwrap().id,
            reg.asn_to_org(a2).unwrap().id
        );
    }

    #[test]
    fn allocated_ips_are_unique_and_inside_as() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("X", cc("DE"));
        let asn = reg.register_as(org, 2);
        let mut seen = std::collections::HashSet::new();
        reg.snapshot_rib();
        for _ in 0..1000 {
            let ip = reg.alloc_ip(asn);
            assert!(seen.insert(ip), "duplicate ip {ip}");
            assert_eq!(reg.ip_to_asn(ip), Some(asn));
        }
    }

    #[test]
    fn explicit_asn_registration() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("Deutsche Telekom AG", cc("DE"));
        let asn = reg.register_as_with_asn(Asn(3320), org, 1);
        assert_eq!(asn, Asn(3320));
        // Auto-assignment continues above the explicit number.
        let next = reg.register_as(org, 1);
        assert!(next.0 > 3320);
    }

    #[test]
    fn well_known_prefix_registration() {
        let mut reg = InternetRegistry::new();
        let google = reg.register_org("Google", cc("US"));
        let ganet: Ipv4Net = GOOGLE_ANYCAST_NET.parse().unwrap();
        let gasn = reg.register_as_with_prefix(google, ganet);
        reg.snapshot_rib();
        let anycast_ip = reg.alloc_ip(gasn);
        assert!(ganet.contains(anycast_ip));
        assert_eq!(reg.org_of_ip(anycast_ip).unwrap().name, "Google");
    }

    #[test]
    fn allocator_never_hands_out_google_anycast() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("bulk", cc("US"));
        // Allocate enough /16s to pass the 74.x block region.
        let ganet: Ipv4Net = GOOGLE_ANYCAST_NET.parse().unwrap();
        for _ in 0..300 {
            let asn = reg.register_as(org, 64);
            let rec = reg.as_record(asn).unwrap();
            for p in &rec.prefixes {
                assert_ne!(*p, ganet, "allocator handed out the Google range");
            }
        }
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_asn_rejected() {
        let mut reg = InternetRegistry::new();
        let org = reg.register_org("X", cc("US"));
        reg.register_as_with_asn(Asn(7), org, 1);
        reg.register_as_with_asn(Asn(7), org, 1);
    }
}
