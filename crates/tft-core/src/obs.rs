//! Observation records — everything the measurement client is allowed to
//! know.
//!
//! Each experiment produces a dataset of per-node observations assembled
//! from (a) proxy responses and (b) the study's own server logs. No ground
//! truth appears here; the analysis layer works from these records plus the
//! public registry datasets (RouteViews / CAIDA / Alexa equivalents).

use crate::quality::DataQuality;
use certs::Certificate;
use inetdb::CountryCode;
use proxynet::{WebLogEntry, ZId};
use std::net::Ipv4Addr;
use std::sync::Arc;
use substrate::intern::Symbol;

/// Outcome of one node's d₂ probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsOutcome {
    /// The NXDOMAIN reached the node: the proxy reported a DNS error.
    NotHijacked,
    /// Content came back instead of an error; someone answered for a
    /// nonexistent name.
    Hijacked {
        /// The substituted page, for content attribution (§4.3.3).
        content: Vec<u8>,
    },
}

/// One node's DNS measurement (§4.1).
#[derive(Debug, Clone)]
pub struct DnsObservation {
    /// Exit node identity.
    pub zid: ZId,
    /// Address observed at our web server during the d₁ fetch.
    pub node_ip: Ipv4Addr,
    /// Address our authoritative server saw the node's query come from.
    pub resolver_ip: Ipv4Addr,
    /// Country requested from the proxy service for this probe.
    pub country: CountryCode,
    /// The d₂ outcome.
    pub outcome: DnsOutcome,
}

/// The DNS experiment's dataset.
#[derive(Debug, Clone, Default)]
pub struct DnsDataset {
    /// Per-node observations.
    pub observations: Vec<DnsObservation>,
    /// Nodes excluded because their resolver was the same Google anycast
    /// instance the super proxy uses (footnote 8).
    pub filtered_same_anycast: usize,
    /// Probes that reached a node already measured (saturation traffic).
    pub duplicates: usize,
    /// Probes that failed or were discarded (node churn mid-pair, proxy
    /// errors, byte-cap stops).
    pub discarded: usize,
    /// Total proxy sessions issued.
    pub samples_issued: usize,
    /// Per-country probe dispositions (the data-quality annex).
    pub quality: DataQuality,
}

/// The four reference objects of the HTTP experiment (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeObject {
    /// 9 KB HTML page.
    Html,
    /// 39 KB JPEG image.
    Jpeg,
    /// 258 KB un-minified JavaScript library.
    Js,
    /// 3 KB un-minified CSS file.
    Css,
}

impl ProbeObject {
    /// All four objects in fetch order.
    pub const ALL: [ProbeObject; 4] = [
        ProbeObject::Html,
        ProbeObject::Jpeg,
        ProbeObject::Js,
        ProbeObject::Css,
    ];

    /// URL path of this object on the study server.
    pub fn path(self) -> &'static str {
        match self {
            ProbeObject::Html => "/obj/page.html",
            ProbeObject::Jpeg => "/obj/image.jpg",
            ProbeObject::Js => "/obj/library.js",
            ProbeObject::Css => "/obj/style.css",
        }
    }

    /// Content type served.
    pub fn content_type(self) -> &'static str {
        match self {
            ProbeObject::Html => "text/html",
            ProbeObject::Jpeg => "image/jpeg",
            ProbeObject::Js => "application/javascript",
            ProbeObject::Css => "text/css",
        }
    }
}

/// Why one object fetch was excluded from the modification analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quarantine {
    /// The body arrived as a strict prefix of what was sent — transport
    /// truncation, not modification.
    Truncated,
    /// The body differed but a confirming refetch disagreed with it — the
    /// paper's "repeated consistent fetches" rule (§5) failed, so this is
    /// transport corruption, not modification.
    Inconsistent,
}

/// Result of fetching one object through one node.
#[derive(Debug, Clone)]
pub struct ObjectResult {
    /// Which object.
    pub object: ProbeObject,
    /// Bytes sent by the study server.
    pub original_len: usize,
    /// Bytes received through the tunnel.
    pub received_len: usize,
    /// The received body, kept only when it differs from the original
    /// *and* survived the consistency check. Quarantined fetches never set
    /// this — damaged payloads must not count as tampering.
    pub modified_body: Option<Vec<u8>>,
    /// Set when this fetch was excluded from analysis.
    pub quarantine: Option<Quarantine>,
}

impl ObjectResult {
    /// True if the body changed in flight (confirmed, not quarantined).
    pub fn is_modified(&self) -> bool {
        self.modified_body.is_some()
    }
}

/// One node's HTTP measurement.
#[derive(Debug, Clone)]
pub struct HttpObservation {
    /// Exit node identity.
    pub zid: ZId,
    /// Address observed at our web server.
    pub node_ip: Ipv4Addr,
    /// Per-object results (usually all four).
    pub results: Vec<ObjectResult>,
}

/// The HTTP experiment's dataset.
#[derive(Debug, Clone, Default)]
pub struct HttpDataset {
    /// Per-node observations.
    pub observations: Vec<HttpObservation>,
    /// Total proxy sessions issued.
    pub samples_issued: usize,
    /// Nodes skipped because their AS already had its phase-1 quota.
    pub skipped_quota: usize,
    /// Per-country object-fetch dispositions (the data-quality annex).
    pub quality: DataQuality,
}

/// Site class in the HTTPS experiment (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteClass {
    /// Country-ranked popular site.
    Popular,
    /// International (university) site.
    International,
    /// A study-controlled site with an intentionally invalid certificate.
    Invalid,
}

/// One TLS certificate collection.
#[derive(Debug, Clone)]
pub struct CertProbe {
    /// Hostname (SNI), interned in the world's site-symbol table. An
    /// escalated node records 33 of these; a `Symbol` is a u32 copy where
    /// an owned hostname was a per-probe allocation. Resolve against
    /// `world.site_symbols` at the verification/report boundary.
    pub host: Symbol,
    /// Site class.
    pub class: SiteClass,
    /// The chain presented through the tunnel, leaf first. Shared with
    /// the origin site when the path left it untouched.
    pub chain: Arc<[Certificate]>,
}

/// One node's HTTPS measurement.
#[derive(Debug, Clone)]
pub struct HttpsObservation {
    /// Exit node identity.
    pub zid: ZId,
    /// Country requested for this probe.
    pub country: CountryCode,
    /// Reported exit address (for AS mapping; CONNECT bypasses our servers
    /// so there is no web-log source address).
    pub exit_ip: Ipv4Addr,
    /// All certificate probes (3 in phase 1, plus the full 33 if phase 2
    /// triggered).
    pub probes: Vec<CertProbe>,
    /// Whether phase 2 ran (an initial check failed).
    pub escalated: bool,
}

/// The HTTPS experiment's dataset.
#[derive(Debug, Clone, Default)]
pub struct HttpsDataset {
    /// Per-node observations.
    pub observations: Vec<HttpsObservation>,
    /// Probes skipped because the requested country has no rankings (the
    /// paper's 115-country limitation).
    pub skipped_unranked: usize,
    /// Total proxy sessions issued.
    pub samples_issued: usize,
    /// Per-country handshake dispositions (the data-quality annex).
    pub quality: DataQuality,
}

/// One node's monitoring measurement (§7.1).
#[derive(Debug, Clone)]
pub struct MonitorObservation {
    /// Exit node identity.
    pub zid: ZId,
    /// Exit address as reported by the proxy service.
    pub reported_exit_ip: Ipv4Addr,
    /// The unique probe domain generated for this node: a refcount on the
    /// probe name the log entries share.
    pub domain: Arc<str>,
    /// The node's own request as logged at our web server.
    pub own_request: Option<WebLogEntry>,
    /// Additional, unexpected requests for the same domain within the
    /// observation window.
    pub unexpected: Vec<WebLogEntry>,
}

/// The monitoring experiment's dataset.
#[derive(Debug, Clone, Default)]
pub struct MonitorDataset {
    /// Per-node observations.
    pub observations: Vec<MonitorObservation>,
    /// Total proxy sessions issued.
    pub samples_issued: usize,
    /// Per-country probe dispositions (the data-quality annex).
    pub quality: DataQuality,
}
