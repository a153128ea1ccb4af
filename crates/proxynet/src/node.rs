//! Exit nodes: the Hola-client peers whose vantage points the measurement
//! borrows.

use inetdb::{Asn, CountryCode};
use middlebox::{HtmlInjector, NxdomainHijacker, ObjectBlocker, TlsInterceptor};
use std::fmt;
use std::net::Ipv4Addr;

/// Dense index of an exit node inside the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// The persistent per-installation identifier Luminati exposes in its debug
/// headers. Stable across IP changes — the paper's dedup key (§2.3).
///
/// Held as the raw 64-bit value (a `Copy` key: dedup sets, billing maps,
/// and per-attempt timelines never clone a string). Reports and traces
/// render it as `z` + 16 lowercase hex digits; because that form is
/// fixed-width, the derived numeric [`Ord`] agrees byte-for-byte with the
/// rendered strings' lexicographic order, so sorted output is unchanged
/// from the string-keyed representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZId(pub u64);

impl ZId {
    /// Derive the zID for a node index (stable, matching the on-disk
    /// `hola_svc.exe.cid` the paper verified against).
    pub fn for_node(id: NodeId) -> ZId {
        // splitmix64 of the index: looks opaque, is deterministic.
        let mut x = id.0 as u64 ^ 0x9e37_79b9_7f4a_7c15;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        ZId(x)
    }
}

impl fmt::Display for ZId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{:016x}", self.0)
    }
}

impl substrate::json::ToJson for ZId {
    fn to_json(&self) -> substrate::json::Json {
        substrate::json::Json::uint(self.0)
    }
}

impl substrate::json::FromJson for ZId {
    fn from_json(v: &substrate::json::Json) -> Result<Self, substrate::json::JsonError> {
        v.as_u64()
            .map(ZId)
            .ok_or_else(|| substrate::json::JsonError::shape("ZId: expected unsigned integer"))
    }
}

/// Hola client platform. Only Windows and Mac OS installations run the
/// background service that makes a peer usable as a Luminati exit (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Windows desktop application (exit-eligible).
    Windows,
    /// Mac OS application (exit-eligible).
    MacOs,
    /// Browser extensions / Android (not exit-eligible).
    Other,
}

impl Platform {
    /// Whether Luminati can route traffic through this installation.
    pub fn exit_eligible(self) -> bool {
        matches!(self, Platform::Windows | Platform::MacOs)
    }
}

/// Which resolver the node's network stack is configured to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolverChoice {
    /// The ISP-assigned resolver at this address.
    Isp(Ipv4Addr),
    /// A public resolver at this address (OpenDNS-like, possibly a
    /// hijacking one, possibly malware-installed).
    Public(Ipv4Addr),
    /// Google Public DNS (8.8.8.8) — queries reach authoritative servers
    /// from an anycast instance in 74.125.0.0/16.
    GoogleDns,
}

/// Software installed on the exit node that violates end-to-end behaviour.
/// All fields are **ground truth** the analyzer must rediscover.
#[derive(Debug, Clone, Default)]
pub struct HostSoftware {
    /// End-host NXDOMAIN hijacker (anti-virus "search assist" or malware).
    pub dns_hijacker: Option<NxdomainHijacker>,
    /// End-host HTML injector (ad-injecting malware).
    pub html_injector: Option<HtmlInjector>,
    /// End-host TLS interceptor (anti-virus, filter, malware).
    pub tls_interceptor: Option<TlsInterceptor>,
    /// Indices into the world's monitor-entity table of monitors observing
    /// this node's HTTP requests (AV clouds, ISP boxes, VPN scanners).
    pub monitors: Vec<usize>,
    /// If set, the node routes origin traffic through a VPN: origin servers
    /// see one of these egress addresses instead of the node's own
    /// (AnchorFree's Hotspot Shield).
    pub vpn_egress: Option<Vec<Ipv4Addr>>,
    /// Replaces whole objects with "bandwidth exceeded"/"blocked" pages —
    /// the only JS/CSS interference the paper observed (§5.2).
    pub blocker: Option<ObjectBlocker>,
}

/// One Hola peer.
#[derive(Debug, Clone)]
pub struct ExitNode {
    /// Dense index.
    pub id: NodeId,
    /// Persistent installation id.
    pub zid: ZId,
    /// Current public address.
    pub ip: Ipv4Addr,
    /// Origin AS of `ip`.
    pub asn: Asn,
    /// Country of the AS's operating organization.
    pub country: CountryCode,
    /// Client platform.
    pub platform: Platform,
    /// Configured resolver.
    pub resolver: ResolverChoice,
    /// Online flag (churn).
    pub online: bool,
    /// Per-request failure probability (models residential flakiness; the
    /// super proxy's retry logic exists because of this).
    pub flakiness: f64,
    /// Installed violating software.
    pub software: HostSoftware,
    /// True if the node is a tethered mobile connection — the vantage that
    /// let the paper measure mobile-carrier image transcoding (§5.2).
    pub mobile_tethered: bool,
}

impl ExitNode {
    /// A minimal well-behaved node, for construction by the world builder.
    pub fn new(
        id: NodeId,
        ip: Ipv4Addr,
        asn: Asn,
        country: CountryCode,
        platform: Platform,
        resolver: ResolverChoice,
    ) -> Self {
        ExitNode {
            id,
            zid: ZId::for_node(id),
            ip,
            asn,
            country,
            platform,
            resolver,
            online: true,
            flakiness: 0.0,
            software: HostSoftware::default(),
            mobile_tethered: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zid_is_stable_and_unique() {
        let a = ZId::for_node(NodeId(7));
        let b = ZId::for_node(NodeId(7));
        let c = ZId::for_node(NodeId(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let rendered = a.to_string();
        assert!(rendered.starts_with('z'));
        assert_eq!(rendered.len(), 17);
    }

    #[test]
    fn zid_numeric_order_matches_rendered_order() {
        // The report sorts by ZId; fixed-width lowercase hex keeps the
        // derived numeric order identical to the rendered strings'.
        let mut ids: Vec<ZId> = (0..64u32).map(|i| ZId::for_node(NodeId(i))).collect();
        let mut strings: Vec<String> = ids.iter().map(|z| z.to_string()).collect();
        ids.sort();
        strings.sort();
        let rendered: Vec<String> = ids.iter().map(|z| z.to_string()).collect();
        assert_eq!(rendered, strings);
    }

    #[test]
    fn exit_eligibility() {
        assert!(Platform::Windows.exit_eligible());
        assert!(Platform::MacOs.exit_eligible());
        assert!(!Platform::Other.exit_eligible());
    }

    #[test]
    fn new_node_is_clean() {
        let n = ExitNode::new(
            NodeId(1),
            Ipv4Addr::new(11, 0, 0, 5),
            Asn(100),
            CountryCode::new("US"),
            Platform::Windows,
            ResolverChoice::GoogleDns,
        );
        assert!(n.online);
        assert!(n.software.dns_hijacker.is_none());
        assert!(n.software.monitors.is_empty());
        assert!(!n.mobile_tethered);
    }
}
