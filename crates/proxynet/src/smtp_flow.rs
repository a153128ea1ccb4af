//! SMTP relayed through an arbitrary-traffic VPN — the paper's future-work
//! extension (§3.4: "we could extend our methodologies for VPNs that allow
//! arbitrary traffic to be sent, enabling us to capture end-to-end
//! connectivity violations in protocols like SMTP").
//!
//! Luminati itself only tunnels port 443; this flow models the
//! *hypothetical* VPN service the paper sketches: same peer population and
//! session semantics, but raw TCP to port 25. A relay reaches its exit node
//! down the attempt path GET and CONNECT take (see `flows`), so retries,
//! the request deadline, the fault campaign and billing are theirs; only
//! the SMTP conversation is its own. In-path SMTP
//! interceptors (STARTTLS strippers) operate per access AS, like the other
//! in-path middleboxes.

use crate::client::{ProxyError, TimelineDebug};
use crate::username::UsernameOptions;
use crate::world::World;
use certs::Certificate;
use inetdb::Asn;
use middlebox::SmtpInterceptor;
use netsim::TraceCategory;
use smtpwire::{Capabilities, Command, MailServer, Reply};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A third-party mail server in the world.
#[derive(Debug, Clone)]
pub struct MailSite {
    /// MX hostname.
    pub host: String,
    /// Server address (port 25).
    pub ip: Ipv4Addr,
    /// The server model.
    pub server: MailServer,
    /// Certificate chain presented after STARTTLS. Immutable and shared:
    /// a completed upgrade records a refcount on it, not a copy.
    pub chain: Arc<[Certificate]>,
}

/// What one SMTP probe through one exit node observed.
#[derive(Debug, Clone)]
pub struct SmtpProbeResult {
    /// The 220 banner as received (possibly rewritten in path).
    pub banner: Reply,
    /// The EHLO reply as received (possibly stripped in path).
    pub ehlo: Reply,
    /// Capabilities parsed from the received EHLO reply.
    pub capabilities: Capabilities,
    /// Reply to STARTTLS, when the probe attempted the upgrade.
    pub starttls_reply: Option<Reply>,
    /// Certificate chain observed after a successful upgrade; shares the
    /// mail site's chain.
    pub tls_chain: Option<Arc<[Certificate]>>,
    /// Debug timeline (final zID identifies the exit node).
    pub debug: TimelineDebug,
    /// The exit node's address as reported by the service.
    pub exit_ip: Ipv4Addr,
}

/// World-side SMTP state, kept separate so the HTTP/S core stays untouched.
#[derive(Debug, Clone, Default)]
pub struct SmtpPlane {
    pub(crate) sites_by_ip: HashMap<Ipv4Addr, MailSite>,
    pub(crate) sites_by_host: HashMap<String, Ipv4Addr>,
    pub(crate) isp_interceptors: HashMap<Asn, SmtpInterceptor>,
}

impl World {
    /// Register a mail server.
    pub fn add_mail_site(&mut self, site: MailSite) {
        self.smtp.sites_by_host.insert(site.host.clone(), site.ip);
        self.smtp.sites_by_ip.insert(site.ip, site);
    }

    /// The address of a registered mail host.
    pub fn mail_site_address(&self, host: &str) -> Option<Ipv4Addr> {
        self.smtp.sites_by_host.get(host).copied()
    }

    /// All registered mail hosts.
    pub fn mail_hosts(&self) -> impl Iterator<Item = &str> {
        self.smtp.sites_by_host.keys().map(|s| s.as_str())
    }

    /// Install an in-path SMTP interceptor for an AS.
    pub fn set_isp_smtp(&mut self, asn: Asn, interceptor: SmtpInterceptor) {
        self.smtp.isp_interceptors.insert(asn, interceptor);
    }

    /// Ground-truth SMTP interceptor lookup (scoring only).
    pub fn isp_smtp_of(&self, asn: Asn) -> Option<&SmtpInterceptor> {
        self.smtp.isp_interceptors.get(&asn)
    }

    /// Relay an SMTP capability probe to `target:25` through an exit node
    /// of the hypothetical arbitrary-traffic VPN. Runs banner → EHLO →
    /// (STARTTLS if advertised) → QUIT, all through the node's access
    /// network and any interceptor sitting in it.
    ///
    /// The relay is retried and billed like a GET or a CONNECT: its exit
    /// link answers to the fault campaign within the 20 s request
    /// deadline, and a failed relay moves
    /// the clock to the client's hang-up. Transport damage to the SMTP
    /// exchange itself is not modelled: corruption and truncation verdicts
    /// deliver intact.
    pub fn vpn_relay_smtp(
        &mut self,
        opts: &UsernameOptions,
        target: Ipv4Addr,
    ) -> Result<SmtpProbeResult, ProxyError> {
        let t0 = self.now();
        let mut rng = self.rng.fork_indexed("latency-smtp", t0.as_millis());
        let l = self.latencies;
        self.trace.record_with(t0, TraceCategory::Client, || {
            format!("client relays SMTP probe to {target}:25 via VPN")
        });
        let t = t0 + l.client_to_super.sample(&mut rng);
        let mut exit = self.reach_exit(opts, t0, t, &mut rng)?;

        let t_origin = exit.at + l.exit_to_origin.sample(&mut rng);
        // Borrowed, not cloned: a completed STARTTLS records a refcount on
        // the site's chain.
        let Some(site) = self.smtp.sites_by_ip.get(&target) else {
            return Err(self.refuse(t_origin, &mut rng));
        };
        let node = &self.nodes[exit.node.0 as usize];
        let exit_ip = node.ip;
        let mitm = self.smtp.isp_interceptors.get(&node.asn);
        self.trace.record_with(t_origin, TraceCategory::Origin, || {
            format!("mail server {} answers SMTP probe", site.host)
        });

        // Banner. Replies travel as real wire text either way: each is
        // rendered through the shard's reused scratch buffer and re-parsed,
        // exercising the codec without a per-reply String.
        let mut text = std::mem::take(&mut self.scratch.smtp_text);
        let (banner, ehlo, capabilities, starttls_reply, tls_chain) = {
            let mut filter = |cmd: Option<&Command>, reply: Reply| -> Reply {
                reply.to_text_into(&mut text);
                let reply = Reply::parse(&text).expect("server replies are well-formed");
                match mitm {
                    Some(m) => m.filter_reply(cmd, reply),
                    None => reply,
                }
            };
            let banner = filter(None, site.server.banner());
            // EHLO.
            let ehlo_cmd = Command::Ehlo("probe.tft.example".to_string());
            let ehlo = filter(Some(&ehlo_cmd), site.server.handle(&ehlo_cmd));
            let capabilities = Capabilities::from_ehlo(&ehlo);
            // STARTTLS, if advertised end-to-end.
            let (starttls_reply, tls_chain) = if capabilities.starttls {
                let cmd = Command::StartTls;
                let absorbed = mitm.is_some_and(|m| m.absorbs(&cmd));
                let reply = if absorbed {
                    filter(Some(&cmd), Reply::new(220, "unused"))
                } else {
                    filter(Some(&cmd), site.server.handle(&cmd))
                };
                let chain = (reply.code == 220).then(|| Arc::clone(&site.chain));
                (Some(reply), chain)
            } else {
                (None, None)
            };
            (banner, ehlo, capabilities, starttls_reply, tls_chain)
        };
        self.scratch.smtp_text = text;

        let t_back = self.settle(opts, &mut exit, t_origin, &mut rng, 512);
        self.advance_to(t_back);
        Ok(SmtpProbeResult {
            banner,
            ehlo,
            capabilities,
            starttls_reply,
            tls_chain,
            debug: exit.debug,
            exit_ip,
        })
    }
}
