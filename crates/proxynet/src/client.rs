//! The Luminati-client-facing API surface: responses, debug timelines,
//! and errors.
//!
//! Luminati reports a request's exit node and retry history in its
//! `X-Hola-Timeline-Debug` response header (§2.3). The simulated proxy
//! hands the same facts to its client as a [`TimelineDebug`] struct, so
//! no header is rendered or parsed.

use crate::node::ZId;
use certs::Certificate;
use httpwire::StatusCode;
use std::fmt;
use std::sync::Arc;

/// Why one exit-node attempt failed (recorded in the debug timeline so the
/// client can tell a node-went-offline retry from a real answer — §2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt succeeded.
    Success,
    /// The exit node was offline.
    Offline,
    /// The exit node's residential link dropped the exchange.
    Flaked,
    /// The exit node's DNS resolution failed with NXDOMAIN — for the DNS
    /// experiment this *is* the signal that the node's resolver did not
    /// hijack (§4.1 step 3).
    DnsError,
    /// The exchange stalled past the per-request deadline.
    TimedOut,
}

/// One exit-node attempt in the debug timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The exit node's persistent id.
    pub zid: ZId,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// The content of the paper's `X-Hola-Timeline-Debug` header.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimelineDebug {
    /// All exit nodes tried, in order, with per-attempt outcomes.
    pub attempts: Vec<Attempt>,
}

impl TimelineDebug {
    /// The zID of the node that produced the final answer (the last
    /// attempt).
    pub fn final_zid(&self) -> Option<&ZId> {
        self.attempts.last().map(|a| &a.zid)
    }
}

/// A successful proxied HTTP response.
#[derive(Debug, Clone)]
pub struct ProxyResponse {
    /// Origin status code.
    pub status: StatusCode,
    /// Response body as delivered through the tunnel (possibly modified in
    /// flight — detecting that is the whole experiment).
    pub body: Vec<u8>,
    /// The debug timeline.
    pub debug: TimelineDebug,
    /// The exit node's public address as the service reports it (Luminati
    /// exposes this; §7.2.1's VPN detection compares it against the source
    /// address seen by the origin).
    pub exit_ip: std::net::Ipv4Addr,
}

/// Client-observable transport damage to a TLS handshake: the handshake
/// bytes arrived mangled, so the chain could not be decoded cleanly. The
/// analysis layer quarantines damaged probes instead of scoring them as
/// certificate replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainDamage {
    /// Handshake bytes corrupted in flight; the chain failed to decode.
    Garbled,
    /// Handshake delivery stopped early; the chain is incomplete.
    Truncated,
}

/// A successful CONNECT + TLS-handshake certificate probe.
#[derive(Debug, Clone)]
pub struct TlsProbeResult {
    /// The certificate chain presented through the tunnel (leaf first).
    /// Shares the origin site's chain unless the path replaced or damaged
    /// it.
    pub chain: Arc<[Certificate]>,
    /// Debug timeline (final zID identifies the exit node).
    pub debug: TimelineDebug,
    /// The exit node's public address as the service reports it.
    pub exit_ip: std::net::Ipv4Addr,
    /// Transport damage observed while decoding the handshake, if any.
    /// `Some` means `chain` is untrustworthy evidence.
    pub damaged: Option<ChainDamage>,
}

/// Proxy-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProxyError {
    /// The super proxy's own resolution of the request host failed — it
    /// refuses to forward (the reason the d₂ trick needs a
    /// source-conditional zone, §4.1).
    SuperProxyDnsFailure,
    /// No online exit node matches the requested country.
    NoExitAvailable,
    /// All retry attempts failed; the timeline lists each.
    AllRetriesFailed(TimelineDebug),
    /// The exit node received NXDOMAIN and could not connect. For the DNS
    /// experiment this is the *good* outcome: no hijacking.
    ExitDnsFailure(TimelineDebug),
    /// CONNECT to a port other than 443 (Luminati only tunnels 443, §2.3).
    PortNotAllowed(u16),
    /// CONNECT target address has no listener.
    ConnectionRefused,
    /// The per-request deadline (the paper's 20 s budget) elapsed before
    /// any attempt completed; the timeline lists what was tried.
    DeadlineExceeded(TimelineDebug),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::SuperProxyDnsFailure => write!(f, "super proxy DNS resolution failed"),
            ProxyError::NoExitAvailable => write!(f, "no exit node available"),
            ProxyError::AllRetriesFailed(d) => {
                write!(f, "all {} attempts failed", d.attempts.len())
            }
            ProxyError::ExitDnsFailure(_) => write!(f, "exit node DNS resolution failed"),
            ProxyError::PortNotAllowed(p) => write!(f, "CONNECT to port {p} not allowed"),
            ProxyError::ConnectionRefused => write!(f, "connection refused"),
            ProxyError::DeadlineExceeded(d) => {
                write!(
                    f,
                    "request deadline exceeded after {} attempt(s)",
                    d.attempts.len()
                )
            }
        }
    }
}

impl std::error::Error for ProxyError {}

impl ProxyError {
    /// The debug timeline attached to this error, if any.
    pub fn debug(&self) -> Option<&TimelineDebug> {
        match self {
            ProxyError::AllRetriesFailed(d)
            | ProxyError::ExitDnsFailure(d)
            | ProxyError::DeadlineExceeded(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_debug_accessor() {
        let d = TimelineDebug {
            attempts: vec![Attempt {
                zid: ZId(1),
                outcome: AttemptOutcome::DnsError,
            }],
        };
        assert!(ProxyError::ExitDnsFailure(d.clone()).debug().is_some());
        assert!(ProxyError::DeadlineExceeded(d.clone()).debug().is_some());
        assert!(ProxyError::SuperProxyDnsFailure.debug().is_none());
        assert!(ProxyError::PortNotAllowed(80).debug().is_none());
    }
}
