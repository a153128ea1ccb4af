//! Request processing: the end-to-end flows of Figures 1–4.
//!
//! Everything the proxy ecosystem *does* lives here — super-proxy DNS
//! pre-checks, exit selection with sessions, remote DNS resolution with
//! hijack semantics, origin fetches with in-path modification, CONNECT
//! tunnels with TLS interception, and monitor refetch scheduling.
//!
//! Every flow reaches its exit node down one attempt path,
//! `World::reach_exit`: up to [`MAX_ATTEMPTS`] nodes within
//! [`DEFAULT_REQUEST_DEADLINE`], each attempt judged against the fault
//! campaign and recorded in the debug timeline. A GET, a CONNECT and an
//! SMTP relay (`smtp_flow`) all keep only their own exchange with the
//! exit node; `World::settle` then does the success bookkeeping they
//! share.

use crate::client::{
    Attempt, AttemptOutcome, ChainDamage, ProxyError, ProxyResponse, TimelineDebug, TlsProbeResult,
};
use crate::node::{NodeId, ResolverChoice, ZId};
use crate::username::UsernameOptions;
use crate::world::{World, WorldEvent};
use dnswire::{DnsName, Message, QType};
use httpwire::{Response, Uri};
use middlebox::RefetchOffset;
use netsim::rng::RngExt;
use netsim::{
    FaultInjector, FaultTarget, FaultVerdict, SimDuration, SimRng, SimTime, TraceCategory,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use substrate::hash::pinned_fnv64;

/// Maximum exit-node attempts per request (Luminati retries up to five
/// times, §2.3).
pub const MAX_ATTEMPTS: usize = 5;

/// The service's per-request time budget: the client gives up on a request
/// after 20 seconds (§2.3). A fault campaign's stalls and delay spikes burn
/// against it.
pub const DEFAULT_REQUEST_DEADLINE: SimDuration = SimDuration::from_secs(20);

/// Reusable wire-codec buffers owned by the world (DESIGN.md §10).
///
/// Every shard fork carries its own set, so the flow layer's encode
/// round-trips (`Response::encode_into`, `dnswire::encode_into`) are
/// allocation-free in steady state: the buffers grow to the largest
/// message once and are recycled across that shard's probes.
#[derive(Debug, Clone, Default)]
pub(crate) struct WireScratch {
    /// HTTP response bytes for the origin → client round trip.
    pub http_wire: Vec<u8>,
    /// DNS message bytes for the query/response round trips.
    pub dns_wire: Vec<u8>,
    /// SMTP reply text for the server → client round trips.
    pub smtp_text: String,
}

/// Outcome of resolution at the exit node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExitResolve {
    /// A real answer.
    Answer(Ipv4Addr),
    /// NXDOMAIN reached the node unmolested.
    NxDomain,
    /// Someone substituted an answer for NXDOMAIN.
    Hijacked(Ipv4Addr),
}

impl World {
    // -- DNS ---------------------------------------------------------------

    /// The super proxy's pre-resolution through Google DNS. Returns the
    /// resolved address, or None on NXDOMAIN (in which case the super proxy
    /// refuses to forward the request).
    fn resolve_for_super(&mut self, host: &str, at: SimTime) -> Option<Ipv4Addr> {
        let src = self.super_proxy_dns_src();
        self.trace.record_with(at, TraceCategory::SuperProxy, || {
            format!("super proxy resolves {host} via Google DNS ({src})")
        });
        self.resolve_base(host, src, at)
    }

    /// Resolution as performed *by the ecosystem's authoritative side*:
    /// queries for our probe zone hit our authoritative server (and are
    /// logged, with `resolver_src` as the visible source); other known
    /// hosts answer statically; everything else is NXDOMAIN.
    /// Each resolver caches by `(name, qtype)` with real TTL semantics.
    /// This is why the methodology insists on unique per-probe names — and
    /// why footnote 8 must filter nodes sharing the super proxy's anycast
    /// instance: the shared cache answers their d₂ query positively without
    /// ever contacting the authority.
    fn resolve_base(
        &mut self,
        host: &str,
        resolver_src: Ipv4Addr,
        at: SimTime,
    ) -> Option<Ipv4Addr> {
        let Ok(name) = DnsName::parse(host) else {
            return None;
        };
        if name.is_subdomain_of(&self.auth_apex) {
            if self.resolver_caching {
                let cache = self.resolver_caches.entry(resolver_src).or_default();
                match cache.get(&name, QType::A, at) {
                    Some(dnswire::CachedAnswer::Records(rrs)) => {
                        return rrs.iter().find_map(|r| match r.rdata {
                            dnswire::RData::A(ip) => Some(ip),
                            _ => None,
                        });
                    }
                    Some(dnswire::CachedAnswer::Negative(_)) => return None,
                    None => {}
                }
            }
            // Full wire exercise: the query travels as RFC 1035 bytes,
            // through the shard's reused scratch buffer.
            let mut wire = std::mem::take(&mut self.scratch.dns_wire);
            let id: u16 = self.rng.random();
            let query = Message::query(id, name.clone(), QType::A);
            dnswire::encode_into(&query, &mut wire).expect("query encodes");
            let query = dnswire::decode(&wire).expect("query decodes");
            let resp = self.auth_server.handle(&query, resolver_src, at);
            dnswire::encode_into(&resp, &mut wire).expect("response encodes");
            let resp = dnswire::decode(&wire).expect("response decodes");
            self.scratch.dns_wire = wire;
            if self.resolver_caching {
                let cache = self.resolver_caches.entry(resolver_src).or_default();
                if resp.is_nxdomain() {
                    cache.put_negative(name, QType::A, dnswire::Rcode::NxDomain, at);
                } else if !resp.answers.is_empty() {
                    cache.put(name, QType::A, resp.answers.clone(), at);
                }
            }
            if resp.is_nxdomain() {
                return None;
            }
            return resp.first_a();
        }
        if let Some(site) = self.origin_sites.get(host) {
            return Some(site.ip);
        }
        None
    }

    /// Resolution at the exit node, through its configured resolver, with
    /// the three hijack layers applied in network order: resolver, then
    /// transparent in-path proxy, then end-host software.
    pub(crate) fn resolve_at_exit(
        &mut self,
        node_id: NodeId,
        host: &str,
        at: SimTime,
    ) -> ExitResolve {
        let node = &self.nodes[node_id.0 as usize];
        // An NXDOMAIN answer needs only the hijacker's landing address.
        let (resolver_src, resolver_landing) = match node.resolver {
            ResolverChoice::Isp(ip) | ResolverChoice::Public(ip) => {
                let hijacker = self.resolvers.get(&ip).and_then(|d| d.hijacker.as_ref());
                (ip, hijacker.map(|h| h.landing_ip))
            }
            ResolverChoice::GoogleDns => (self.google_instance_for(node.country, node_id), None),
        };
        let asn = node.asn;
        self.trace.record_with(at, TraceCategory::Dns, || {
            format!("exit node resolves {host} via {resolver_src}")
        });
        if let Some(ip) = self.resolve_base(host, resolver_src, at) {
            return ExitResolve::Answer(ip);
        }
        // NXDOMAIN: the hijack layers get their chance.
        if let Some(ip) = resolver_landing {
            self.trace.record_with(at, TraceCategory::Middlebox, || {
                format!("resolver {resolver_src} hijacks NXDOMAIN for {host}")
            });
            return ExitResolve::Hijacked(ip);
        }
        if let Some(h) = self.transparent_dns.get(&asn) {
            let ip = h.landing_ip;
            self.trace.record_with(at, TraceCategory::Middlebox, || {
                format!("transparent proxy in {asn} hijacks NXDOMAIN for {host}")
            });
            return ExitResolve::Hijacked(ip);
        }
        let node = &self.nodes[node_id.0 as usize];
        if let Some(h) = &node.software.dns_hijacker {
            let ip = h.landing_ip;
            self.trace.record_with(at, TraceCategory::Middlebox, || {
                format!("end-host software hijacks NXDOMAIN for {host}")
            });
            return ExitResolve::Hijacked(ip);
        }
        ExitResolve::NxDomain
    }

    // -- exit selection ------------------------------------------------------

    /// Pick an exit node honoring `-country-XX`, excluding the nodes the
    /// request already tried (a zID names one node). Offline nodes *can* be
    /// picked — the failure then shows up in the debug timeline, which is
    /// how the retry path gets exercised.
    fn pick_exit(&mut self, opts: &UsernameOptions, tried: &[Attempt]) -> Option<NodeId> {
        let pool: &[NodeId] = match opts.country {
            Some(cc) => self.pool_by_country.get(&cc).map(|v| v.as_slice())?,
            None => &self.pool_all,
        };
        if pool.is_empty() {
            return None;
        }
        for _ in 0..64 {
            let id = pool[self.rng.random_range(0..pool.len())];
            let zid = self.nodes[id.0 as usize].zid;
            if !tried.iter().any(|a| a.zid == zid) {
                return Some(id);
            }
        }
        None
    }

    fn touch_session(&mut self, opts: &UsernameOptions, node: NodeId, now: SimTime) {
        if let Some(sid) = opts.session {
            self.sessions.touch(&opts.customer, sid, node, now);
        }
    }

    // -- origin fetch --------------------------------------------------------

    /// Serve a request arriving at `ip` for `host`/`path` from `src`,
    /// encoding the response's HTTP/1.1 wire bytes into `out` (cleared
    /// first). Web-server routes encode straight from the borrowed route
    /// entry, so the multi-KB probe objects are never cloned per request.
    /// Returns the host and path our web server logged, when the request
    /// reached it.
    // Eight arguments is the honest shape of one logged origin hit:
    // time, addressing (src/ip/host/path), UA, and the output buffer.
    #[allow(clippy::too_many_arguments)]
    fn origin_response_into(
        &mut self,
        at: SimTime,
        src: Ipv4Addr,
        ip: Ipv4Addr,
        host: &str,
        path: &str,
        user_agent: Option<&str>,
        out: &mut Vec<u8>,
    ) -> Option<(Arc<str>, Arc<str>)> {
        if ip == self.web_ip {
            self.trace.record_with(at, TraceCategory::Origin, || {
                format!("measurement web server serves http://{host}{path} to {src}")
            });
            match self.web_server.handle_ref(at, src, host, path, user_agent) {
                Some(r) => r.encode_into(out),
                None => Response::new(httpwire::StatusCode::NOT_FOUND, b"not found".to_vec())
                    .encode_into(out),
            }
            let logged = self.web_server.log().last()?;
            return Some((Arc::clone(&logged.host), Arc::clone(&logged.path)));
        }
        if let Some(h) = self.landing.get(&ip) {
            self.trace.record_with(at, TraceCategory::Origin, || {
                format!("hijack landing server at {ip} serves assist page for {host}")
            });
            Response::ok("text/html", h.hijack_page(host)).encode_into(out);
            return None;
        }
        if let Some(site_host) = self.origin_by_ip.get(&ip) {
            let body = self.origin_sites[site_host].http_body.clone();
            Response::ok("text/html", body).encode_into(out);
            return None;
        }
        Response::new(httpwire::StatusCode::BAD_GATEWAY, Vec::new()).encode_into(out);
        None
    }

    /// Apply in-path and end-host response modification (§5).
    fn apply_response_mods(&mut self, node_id: NodeId, resp: &mut Response) {
        let node = &self.nodes[node_id.0 as usize];
        let ctype = resp.content_type().unwrap_or_default();
        let asn = node.asn;
        let tethered = node.mobile_tethered;
        // In-path ISP boxes first (closer to the origin than the host).
        if let Some(cfg) = self.isp_http.get(&asn) {
            if ctype == "image/jpeg" && tethered {
                if let Some(t) = &cfg.transcoder {
                    let mut rng = self.rng.fork_indexed("transcode", node_id.0 as u64);
                    resp.body = t.transcode(&resp.body, &mut rng);
                }
            }
            if ctype == "text/html" {
                if let Some(inj) = &cfg.injector {
                    resp.body = inj.inject(&resp.body);
                }
            }
        }
        // End-host software last (it sees what the browser would see).
        let node = &self.nodes[node_id.0 as usize];
        if ctype == "text/html" {
            if let Some(inj) = &node.software.html_injector {
                resp.body = inj.inject(&resp.body);
            }
        }
        // Whole-object blockers replace rather than modify (§5.2's JS/CSS
        // "bandwidth exceeded" pages).
        if let Some(blocker) = &node.software.blocker {
            if blocker.blocks(&ctype) {
                resp.body = blocker.block_page(&ctype);
            }
        }
    }

    /// Schedule monitor refetches for a request the node just made to our
    /// web server (§7), sharing the `host` and `path` the server logged for
    /// it. Refetches of third-party sites exist too but never reach our
    /// logs, so they are not simulated.
    fn schedule_monitors(
        &mut self,
        node_id: NodeId,
        host: &Arc<str>,
        path: &Arc<str>,
        t_origin: SimTime,
    ) {
        let monitor_idxs = self.nodes[node_id.0 as usize].software.monitors.clone();
        for idx in monitor_idxs {
            let entity = &self.monitors[idx];
            // Same label bytes as the historical `format!("monitor-{idx}")`,
            // pre-rendered at registration so the seed derivation (and the
            // goldens pinning it) is untouched.
            let mut rng = self.rng.fork_indexed(
                &self.monitor_fork_labels[idx],
                node_id.0 as u64 ^ pinned_fnv64(host.as_bytes()),
            );
            let plan = entity.plan(&mut rng);
            for refetch in plan {
                let at = match refetch.offset {
                    RefetchOffset::After(d) => t_origin + d,
                    // A prefetch would arrive before the user's own request;
                    // we can schedule no earlier than "now", which still
                    // lands it *before* the user's request reaches the
                    // origin (negative observed delay, as in Figure 5).
                    RefetchOffset::Before(d) => {
                        let ideal_ms = t_origin.as_millis().saturating_sub(d.as_millis());
                        let ideal = SimTime::from_millis(ideal_ms);
                        if ideal >= self.sched.now() {
                            ideal
                        } else {
                            self.sched.now()
                        }
                    }
                };
                self.sched.schedule_at(
                    at,
                    WorldEvent::MonitorRefetch {
                        src: refetch.src,
                        host: Arc::clone(host),
                        path: Arc::clone(path),
                        monitor: idx,
                    },
                );
            }
        }
    }

    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t <= self.sched.now() {
            return;
        }
        let by = t.since(self.sched.now());
        self.advance(by);
    }

    // -- the attempt path -------------------------------------------------------

    /// The super proxy's attempt loop (§2.3), one for every flow: a GET, a
    /// CONNECT and an SMTP relay each leave the super proxy at `t` and try
    /// up to `max_attempts` exit nodes, the first by session, until the
    /// 20 s budget counted from the request's start `t0` is spent. An offline node
    /// draws nothing; an online one has its link judged against the fault
    /// campaign and its own flakiness, and a `Stall` burns the rest of the
    /// budget. Every failed attempt lands in the debug timeline.
    ///
    /// Returns the first node that takes the request. When none does, the
    /// clock advances to the client's hang-up and the error carries the
    /// timeline.
    pub(crate) fn reach_exit(
        &mut self,
        opts: &UsernameOptions,
        t0: SimTime,
        mut t: SimTime,
        rng: &mut SimRng,
    ) -> Result<ReachedExit, ProxyError> {
        let l = self.latencies;
        let deadline = t0 + DEFAULT_REQUEST_DEADLINE;
        let mut debug = TimelineDebug::default();
        for attempt in 0..self.max_attempts {
            if t >= deadline {
                self.advance_to(t);
                return Err(ProxyError::DeadlineExceeded(debug));
            }
            // The first attempt goes to the session's node while it lives,
            // unless the request asks for another country: then the super
            // proxy draws a fresh node there, and `settle` re-pins the
            // session to it.
            let pinned = match opts.session {
                Some(sid) if attempt == 0 => {
                    self.sessions.lookup(&opts.customer, sid, t).filter(|id| {
                        opts.country
                            .is_none_or(|cc| self.nodes[id.0 as usize].country == cc)
                    })
                }
                _ => None,
            };
            let Some(node_id) = pinned.or_else(|| self.pick_exit(opts, &debug.attempts)) else {
                if attempt == 0 {
                    return Err(ProxyError::NoExitAvailable);
                }
                break;
            };
            let node = &self.nodes[node_id.0 as usize];
            let zid = node.zid;
            let t_exit = t + l.super_to_exit.sample(rng);
            self.trace
                .record_with(t_exit, TraceCategory::SuperProxy, || {
                    format!("super proxy forwards request to exit node {zid}")
                });
            let outcome = if !node.online {
                t = t_exit + l.super_to_exit.sample(rng);
                AttemptOutcome::Offline
            } else {
                // The campaign is the exit link's one fault source; an inert
                // one draws nothing.
                let target = FaultTarget {
                    region: node.country.as_str(),
                    isp: node.asn.0 as u64,
                    node: node_id.0 as u64,
                };
                let verdict = self.campaign.judge(&target, t_exit, rng);
                let flaked = matches!(verdict, FaultVerdict::Drop)
                    || (node.flakiness > 0.0 && rng.random_bool(node.flakiness));
                let t_exit = t_exit + verdict.extra_delay();
                if flaked {
                    t = t_exit + l.super_to_exit.sample(rng);
                    AttemptOutcome::Flaked
                } else if matches!(verdict, FaultVerdict::Stall) {
                    // The exchange hangs until the client gives up.
                    t = deadline;
                    AttemptOutcome::TimedOut
                } else {
                    return Ok(ReachedExit {
                        node: node_id,
                        zid,
                        at: t_exit,
                        verdict,
                        debug,
                    });
                }
            };
            debug.attempts.push(Attempt { zid, outcome });
        }
        self.advance_to(t + l.client_to_super.sample(rng));
        Err(ProxyError::AllRetriesFailed(debug))
    }

    /// The bookkeeping every flow does once the exit node's exchange ends
    /// at `t_origin`: the `Success` attempt, the three return legs (origin,
    /// exit node, super proxy), the session touch, and `billed` bytes on
    /// the customer's bill. Returns when the reply reaches the client.
    pub(crate) fn settle(
        &mut self,
        opts: &UsernameOptions,
        exit: &mut ReachedExit,
        t_origin: SimTime,
        rng: &mut SimRng,
        billed: u64,
    ) -> SimTime {
        exit.debug.attempts.push(Attempt {
            zid: exit.zid,
            outcome: AttemptOutcome::Success,
        });
        let l = self.latencies;
        let t_back = t_origin
            + l.exit_to_origin.sample(rng)
            + l.super_to_exit.sample(rng)
            + l.client_to_super.sample(rng);
        self.touch_session(opts, exit.node, t_back);
        // Point lookup first: the entry API would clone the customer key on
        // every request, hit or miss.
        match self.bytes_billed.get_mut(&opts.customer) {
            Some(v) => *v += billed,
            None => {
                self.bytes_billed.insert(opts.customer.clone(), billed);
            }
        }
        t_back
    }

    /// The exit node found no listener at the target: the refusal reaches
    /// the client, and the clock with it.
    pub(crate) fn refuse(&mut self, t_origin: SimTime, rng: &mut SimRng) -> ProxyError {
        self.advance_to(t_origin + self.latencies.client_to_super.sample(rng));
        ProxyError::ConnectionRefused
    }

    // -- the client-facing flows ----------------------------------------------

    /// Proxied HTTP GET (Figure 1): client → super proxy → exit node →
    /// origin and back.
    // tft-lint: hot-root — per-probe proxied GET flow
    pub fn proxy_get(
        &mut self,
        opts: &UsernameOptions,
        url: &Uri,
    ) -> Result<ProxyResponse, ProxyError> {
        let t0 = self.now();
        let mut rng = self.rng.fork_indexed("latency", t0.as_millis());
        let l = self.latencies;
        self.trace.record_with(t0, TraceCategory::Client, || {
            format!("client sends GET {url} to super proxy")
        });
        let t_super = t0 + l.client_to_super.sample(&mut rng);

        // ② super proxy DNS check.
        let t_dnsq = t_super + l.super_to_dns.sample(&mut rng);
        let super_ip = self.resolve_for_super(&url.host, t_dnsq);
        let t_checked = t_dnsq + l.super_to_dns.sample(&mut rng);
        let Some(super_ip) = super_ip else {
            self.trace
                .record_with(t_checked, TraceCategory::SuperProxy, || {
                    format!("super proxy: {} does not resolve; refusing", url.host)
                });
            self.advance_to(t_checked + l.client_to_super.sample(&mut rng));
            return Err(ProxyError::SuperProxyDnsFailure);
        };

        let mut exit = self.reach_exit(opts, t0, t_checked, &mut rng)?;
        let (node_id, zid) = (exit.node, exit.zid);

        // ④ exit-node DNS, when `-dns-remote` moves resolution there.
        let (effective_ip, t_resolved) = if opts.dns_remote {
            let t_q = exit.at + l.exit_to_dns.sample(&mut rng);
            match self.resolve_at_exit(node_id, &url.host, t_q) {
                ExitResolve::Answer(ip) | ExitResolve::Hijacked(ip) => {
                    (ip, t_q + l.exit_to_dns.sample(&mut rng))
                }
                ExitResolve::NxDomain => {
                    exit.debug.attempts.push(Attempt {
                        zid,
                        outcome: AttemptOutcome::DnsError,
                    });
                    self.touch_session(opts, node_id, t_q);
                    self.advance_to(t_q + l.client_to_super.sample(&mut rng));
                    // NXDOMAIN is an authoritative answer, not a node
                    // failure: the super proxy reports it rather than
                    // retrying.
                    return Err(ProxyError::ExitDnsFailure(exit.debug));
                }
            }
        } else {
            (super_ip, exit.at)
        };

        // ⑤ the actual origin fetch.
        let t_origin = t_resolved + l.exit_to_origin.sample(&mut rng);
        let node = &self.nodes[node_id.0 as usize];
        let observed_src = match &node.software.vpn_egress {
            Some(pool) if !pool.is_empty() => {
                // VPN egress: the origin never sees the node's own IP.
                let head = pool.len().saturating_sub(1).max(1);
                pool[rng.random_range(0..head)]
            }
            _ => node.ip,
        };
        // The response travels as real HTTP/1.1 bytes, through the shard's
        // reused scratch buffer.
        let mut wire = std::mem::take(&mut self.scratch.http_wire);
        let logged = self.origin_response_into(
            t_origin,
            observed_src,
            effective_ip,
            &url.host,
            &url.path,
            Some("Hola/1.108"),
            &mut wire,
        );
        let (mut resp, _) = Response::parse(&wire).expect("own encoding parses");
        self.scratch.http_wire = wire;
        self.apply_response_mods(node_id, &mut resp);
        // Transport damage scripted by the campaign lands *after* the
        // in-path modifications: the client receives a mangled or cut-short
        // copy of whatever actually travelled the tunnel.
        match exit.verdict {
            FaultVerdict::CorruptAndDeliver { .. } => {
                FaultInjector::corrupt(&mut rng, &mut resp.body);
            }
            FaultVerdict::Truncate { .. } => {
                FaultInjector::truncate(&mut rng, &mut resp.body);
            }
            _ => {}
        }
        if let Some((host, path)) = logged {
            self.schedule_monitors(node_id, &host, &path, t_origin);
        }

        let t_back = self.settle(opts, &mut exit, t_origin, &mut rng, resp.body.len() as u64);
        self.trace.record_with(t_back, TraceCategory::Client, || {
            format!(
                "client receives {} ({} bytes) via {zid}",
                resp.status,
                resp.body.len()
            )
        });
        self.advance_to(t_back);

        Ok(ProxyResponse {
            status: resp.status,
            body: resp.body,
            debug: exit.debug,
            exit_ip: self.nodes[node_id.0 as usize].ip,
        })
    }

    /// CONNECT tunnel + TLS certificate collection (Figure 3): the client
    /// tunnels TCP to `target:443` via an exit node, starts a handshake
    /// with `sni`, records the presented chain, and tears down without
    /// requesting content.
    // tft-lint: hot-root — per-probe CONNECT+TLS flow
    pub fn proxy_connect_tls(
        &mut self,
        opts: &UsernameOptions,
        target: Ipv4Addr,
        port: u16,
        sni: &str,
    ) -> Result<TlsProbeResult, ProxyError> {
        if port != 443 {
            return Err(ProxyError::PortNotAllowed(port));
        }
        let t0 = self.now();
        let mut rng = self.rng.fork_indexed("latency-tls", t0.as_millis());
        let l = self.latencies;
        self.trace.record_with(t0, TraceCategory::Client, || {
            format!("client sends CONNECT {target}:443 to super proxy")
        });
        let t = t0 + l.client_to_super.sample(&mut rng);
        let mut exit = self.reach_exit(opts, t0, t, &mut rng)?;
        let zid = exit.zid;

        let t_origin = exit.at + l.exit_to_origin.sample(&mut rng);
        let Some(site) = self
            .origin_by_ip
            .get(&target)
            .map(|host| &self.origin_sites[host])
        else {
            return Err(self.refuse(t_origin, &mut rng));
        };
        if site.chain.is_empty() {
            return Err(self.refuse(t_origin, &mut rng));
        }
        // A refcount on the site's immutable chain: an untouched handshake
        // records it without copying a certificate.
        let original = Arc::clone(&site.chain);
        let original_valid = site.chain_valid;
        self.trace.record_with(t_origin, TraceCategory::Tls, || {
            format!(
                "exit node {zid} handshakes with {} ({target}:443)",
                site.host
            )
        });
        let now = self.now();
        // Copy-on-write: issuing a spoofed cert advances the interceptor's
        // key stream, so the touched node unshares.
        let node = self.node_cow(exit.node);
        let replaced = node
            .software
            .tls_interceptor
            .as_mut()
            .and_then(|i| i.intercept(sni, &original, original_valid, now));
        let mut chain = match replaced {
            Some(spoofed) => {
                if spoofed.len() != original.len()
                    || spoofed.first().map(|c| c.fingerprint())
                        != original.first().map(|c| c.fingerprint())
                {
                    self.trace
                        .record_with(t_origin, TraceCategory::Middlebox, || {
                            format!("certificate replaced for {sni} on {zid}")
                        });
                }
                Arc::from(spoofed)
            }
            None => original,
        };

        // Campaign-scripted transport damage to the handshake bytes: the
        // chain still arrives but is untrustworthy evidence, and the client
        // can tell (decode failure) — the analysis layer quarantines it
        // instead of scoring certificate replacement.
        let damaged = match exit.verdict {
            FaultVerdict::CorruptAndDeliver { .. } => Some(ChainDamage::Garbled),
            FaultVerdict::Truncate { .. } => {
                let keep = rng.random_range(0..chain.len());
                chain = Arc::from(&chain[..keep]);
                Some(ChainDamage::Truncated)
            }
            _ => None,
        };

        // Certificates travel in the handshake; bill a nominal size.
        let billed = chain.len() as u64 * 1500;
        let t_back = self.settle(opts, &mut exit, t_origin, &mut rng, billed);
        self.advance_to(t_back);
        self.trace.record_with(t_back, TraceCategory::Client, || {
            format!("client records {} certificate(s) and closes", chain.len())
        });
        let exit_ip = self.nodes[exit.node.0 as usize].ip;
        Ok(TlsProbeResult {
            chain,
            debug: exit.debug,
            exit_ip,
            damaged,
        })
    }
}

/// The exit node that took a request, as `World::reach_exit` hands it to
/// the flow: the node, its arrival there (delay spike included), the fault
/// campaign's verdict on the exchange, and the attempts so far.
pub(crate) struct ReachedExit {
    pub node: NodeId,
    pub zid: ZId,
    pub at: SimTime,
    pub verdict: FaultVerdict,
    pub debug: TimelineDebug,
}
