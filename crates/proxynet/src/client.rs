//! The Luminati-client-facing API surface: responses, debug headers, and
//! errors.

use crate::node::ZId;
use certs::Certificate;
use httpwire::{Headers, StatusCode};
use std::fmt;
use std::sync::Arc;

/// Why one exit-node attempt failed (recorded in the debug header so the
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
    /// An outcome token this client version does not recognize. Produced
    /// only by [`TimelineDebug::parse`]: a newer proxy version emitting a
    /// new token must not erase the rest of the attempt evidence.
    Unknown,
}

impl fmt::Display for AttemptOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttemptOutcome::Success => "success",
            AttemptOutcome::Offline => "offline",
            AttemptOutcome::Flaked => "conn_failed",
            AttemptOutcome::DnsError => "dns_error",
            AttemptOutcome::TimedOut => "timeout",
            AttemptOutcome::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

/// One exit-node attempt in the debug timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The exit node's persistent id.
    pub zid: ZId,
    /// What happened.
    pub outcome: AttemptOutcome,
}

/// The parsed `X-Hola-Timeline-Debug` information.
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

    /// Render as the header value: one `String` built in place, not a
    /// per-attempt `format!` pile joined at the end.
    pub fn to_header_value(&self) -> String {
        use std::fmt::Write as _;
        // "z" + 16 hex digits + "=" + outcome token + separator.
        let mut out = String::with_capacity(self.attempts.len() * 32);
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}={}", a.zid, a.outcome);
        }
        out
    }

    /// Parse from a header value. A structurally broken entry (no `=`, or
    /// a zID spelled in anything but the proxy's canonical form) still
    /// fails the whole parse, but an *unrecognized outcome token* maps to
    /// [`AttemptOutcome::Unknown`]: one new token from a newer proxy
    /// version must not erase the rest of the attempt evidence.
    pub fn parse(value: &str) -> Option<TimelineDebug> {
        let mut attempts = Vec::new();
        for part in value.split(',').filter(|p| !p.is_empty()) {
            let (zid, outcome) = part.split_once('=')?;
            let outcome = match outcome {
                "success" => AttemptOutcome::Success,
                "offline" => AttemptOutcome::Offline,
                "conn_failed" => AttemptOutcome::Flaked,
                "dns_error" => AttemptOutcome::DnsError,
                "timeout" => AttemptOutcome::TimedOut,
                _ => AttemptOutcome::Unknown,
            };
            attempts.push(Attempt {
                zid: ZId::parse(zid)?,
                outcome,
            });
        }
        Some(TimelineDebug { attempts })
    }
}

/// A successful proxied HTTP response.
#[derive(Debug, Clone)]
pub struct ProxyResponse {
    /// Origin status code.
    pub status: StatusCode,
    /// Response headers, including `X-Hola-Timeline-Debug`.
    pub headers: Headers,
    /// Response body as delivered through the tunnel (possibly modified in
    /// flight — detecting that is the whole experiment).
    pub body: Vec<u8>,
    /// Parsed debug timeline.
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
    fn timeline_header_roundtrip() {
        let d = TimelineDebug {
            attempts: vec![
                Attempt {
                    zid: ZId(0xaaaa),
                    outcome: AttemptOutcome::Offline,
                },
                Attempt {
                    zid: ZId(0xbbbb),
                    outcome: AttemptOutcome::Success,
                },
            ],
        };
        let v = d.to_header_value();
        assert_eq!(v, "z000000000000aaaa=offline,z000000000000bbbb=success");
        assert_eq!(TimelineDebug::parse(&v).unwrap(), d);
        assert_eq!(d.final_zid(), Some(&ZId(0xbbbb)));
    }

    #[test]
    fn timeline_parse_rejects_structural_garbage() {
        assert!(TimelineDebug::parse("no-equals-here").is_none());
        assert!(TimelineDebug::parse("z000000000000000a=success,no-equals-here").is_none());
        // A zID spelled in anything but the canonical form is garbage too.
        assert!(TimelineDebug::parse("za=success").is_none());
        assert_eq!(TimelineDebug::parse("").unwrap(), TimelineDebug::default());
    }

    #[test]
    fn unknown_outcome_token_does_not_erase_the_timeline() {
        // Regression: an unrecognized token used to bail the whole parse,
        // discarding every attempt's evidence. It must map to Unknown and
        // keep the rest of the timeline intact.
        let header = format!(
            "{}=offline,{}=exploded,{}=success",
            ZId(0xa),
            ZId(0xb),
            ZId(0xc)
        );
        let parsed =
            TimelineDebug::parse(&header).expect("one new token must not erase attempt evidence");
        assert_eq!(parsed.attempts.len(), 3);
        assert_eq!(parsed.attempts[0].outcome, AttemptOutcome::Offline);
        assert_eq!(parsed.attempts[1].outcome, AttemptOutcome::Unknown);
        assert_eq!(parsed.attempts[2].outcome, AttemptOutcome::Success);
        assert_eq!(parsed.final_zid(), Some(&ZId(0xc)));
        // Unknown re-renders as the literal "unknown" token and survives a
        // second round trip.
        let rendered = parsed.to_header_value();
        assert_eq!(
            rendered,
            format!(
                "{}=offline,{}=unknown,{}=success",
                ZId(0xa),
                ZId(0xb),
                ZId(0xc)
            )
        );
        assert_eq!(TimelineDebug::parse(&rendered).unwrap(), parsed);
    }

    #[test]
    fn new_outcome_tokens_roundtrip() {
        let d = TimelineDebug {
            attempts: vec![Attempt {
                zid: ZId(0xb),
                outcome: AttemptOutcome::TimedOut,
            }],
        };
        let v = d.to_header_value();
        assert_eq!(v, format!("{}=timeout", ZId(0xb)));
        assert_eq!(TimelineDebug::parse(&v).unwrap(), d);
    }

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
