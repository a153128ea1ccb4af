//! # proxynet — the proxy-service ecosystem
//!
//! A faithful behavioural model of the measurement substrate the paper
//! rents: a Luminati-like P2P proxy service plus the surrounding Internet,
//! all running on `netsim`'s deterministic clock.
//!
//! - [`node`]: exit nodes (Hola peers) with platform eligibility, resolver
//!   configuration, churn, and installed violating software;
//! - [`username`]: the routing options Luminati carries as
//!   `-country-XX` / `-session-N` / `-dns-remote` username parameters,
//!   taken here as a struct;
//! - [`session`]: 60-second session stickiness;
//! - [`client`]: responses, the debug timelines Luminati sends as
//!   `X-Hola-Timeline-Debug` headers (here a struct), errors;
//! - [`servers`]: the measurement web server (request log!), origin sites,
//!   landing servers;
//! - [`world`] / [`flows`]: the [`World`] runtime and the request flows of
//!   Figures 1–4 — super-proxy DNS pre-check, then one attempt path for
//!   GET, CONNECT and SMTP relays: exit selection, up-to-five retries
//!   within the 20 s request deadline with per-attempt debug records, and
//!   one fault-campaign check per exit-link delivery; remote DNS
//!   with hijack semantics, in-path response modification, CONNECT-to-443
//!   tunnels with TLS interception, and monitor refetch scheduling.
//!
//! ## The visibility boundary
//!
//! The measurement client sees **only** what [`World::proxy_get`] /
//! [`World::proxy_connect_tls`] return plus the logs of its own servers
//! ([`World::auth_server`], [`World::web_server`]). Ground-truth accessors
//! ([`World::node`], [`World::monitor_entities`]) exist for world
//! construction and scoring and are off-limits to analysis code — the same
//! epistemic position the paper's authors were in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod flows;
pub mod node;
pub mod servers;
pub mod session;
pub mod smtp_flow;
pub mod username;
pub mod world;

pub use client::{
    Attempt, AttemptOutcome, ChainDamage, ProxyError, ProxyResponse, TimelineDebug, TlsProbeResult,
};
pub use flows::{DEFAULT_REQUEST_DEADLINE, MAX_ATTEMPTS};
pub use node::{ExitNode, HostSoftware, NodeId, Platform, ResolverChoice, ZId};
pub use servers::{OriginSite, WebLogEntry, WebServer};
pub use session::{SessionTable, SESSION_TTL};
pub use smtp_flow::{MailSite, SmtpProbeResult};
pub use username::UsernameOptions;
pub use world::{IspHttp, ResolverDef, ShardEvidence, World};
