//! The world: every host, resolver, middlebox, origin server, and the
//! measurement infrastructure, run on one deterministic clock.
//!
//! `World` is constructed by the world generator (`worldgen`), driven by the
//! measurement client (`tft-core`) through the proxy-client API in
//! [`crate::client`], and observed through the logs of the measurement
//! servers — the same visibility boundary the paper's authors had.

use crate::node::{ExitNode, NodeId};
use crate::servers::{OriginSite, WebServer};
use crate::session::SessionTable;
use certs::RootStore;
use dnswire::{AuthServer, DnsName};
use inetdb::{Asn, CountryCode, InternetRegistry, Rankings};
use middlebox::{HtmlInjector, ImageTranscoder, MonitorEntity, NxdomainHijacker};
use netsim::{FaultCampaign, PathLatencies, Scheduler, SimDuration, SimRng, SimTime, TraceLog};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use substrate::intern::SymbolTable;

/// A resolver a node can be configured to use.
#[derive(Debug, Clone)]
pub struct ResolverDef {
    /// The resolver's address (what the authoritative server sees as the
    /// query source).
    pub ip: Ipv4Addr,
    /// The AS the resolver lives in.
    pub asn: Asn,
    /// NXDOMAIN hijacker operating *at this resolver*, if any.
    pub hijacker: Option<NxdomainHijacker>,
}

/// Per-AS in-path HTTP interference.
#[derive(Debug, Clone, Default)]
pub struct IspHttp {
    /// In-path HTML injector (web-filtering appliance).
    pub injector: Option<HtmlInjector>,
    /// In-path image transcoder (mobile carriers; applies to tethered
    /// nodes).
    pub transcoder: Option<ImageTranscoder>,
}

/// Deferred work: a monitor's scheduled refetch arriving at our web server,
/// or a peer joining/leaving the network.
#[derive(Debug, Clone)]
pub(crate) enum WorldEvent {
    MonitorRefetch {
        src: Ipv4Addr,
        host: String,
        path: String,
        user_agent: String,
    },
    /// Flip a node's online state and reschedule the next flip (churn).
    ChurnToggle { node: NodeId },
}

/// The measurement evidence a shard world holds, moved out of it by
/// [`World::into_evidence`] and into the live world by
/// [`World::absorb_evidence`]: its server log entries, its billing ledger,
/// and its clock. A shard is cloned from a base that holds no evidence
/// ([`World::clone_without_evidence`]), so all of it is the shard's own.
#[derive(Debug)]
pub struct ShardEvidence {
    web_log: Vec<crate::WebLogEntry>,
    auth_log: Vec<dnswire::QueryLogEntry>,
    bytes_billed: HashMap<String, u64>,
    now: SimTime,
}

/// The simulated Internet plus the measurement infrastructure.
///
/// `Clone` snapshots the world — clock, pending events, RNG state, every
/// server log. The parallel study executor instead takes one base with
/// [`World::clone_without_evidence`] (everything but the server logs and
/// the billing ledger) and clones one shard world per task from it, so
/// disjoint node populations can be probed concurrently and no shard
/// copies the evidence earlier studies left. Each shard task then turns
/// its world into the evidence it holds ([`World::into_evidence`]) —
/// all of it its own — dropping the rest of the world where it ran, and
/// the executor moves that evidence into the live world with
/// [`World::absorb_evidence`]: log entries are allocated once, in the
/// shard, and never cloned on the way back.
///
/// ## Shared-immutable sections (the overlay contract)
///
/// The construction-time bulk of the world — the Internet registry, the
/// rankings, the node population, routing pools, resolver/middlebox/origin
/// directories, the root store — is held behind `Arc` and **shared** between
/// a world and its clones; only the small mutable overlay (scheduler, RNG,
/// server logs, sessions, caches, billing) is deep-copied, and a shard's
/// base has no logs or billing to copy. A shard clone is therefore a
/// handful of reference-count bumps rather than tens of millions of
/// allocations (this removed a 1.7× *slow-down* at 8 workers — see
/// DESIGN.md's bench section). The sharing is copy-on-write:
/// every mutator goes through [`Arc::make_mut`], so a world that does write
/// a shared section (worldgen wiring, churn toggles, per-node TLS
/// interceptor state) privately unshares exactly that section first —
/// clones still share nothing *observable*, pinned by the overlay
/// determinism tests. No section is behind a lock and there is no interior
/// mutability: two clones can never see each other's writes.
#[derive(Clone)]
pub struct World {
    pub(crate) sched: Scheduler<WorldEvent>,
    pub(crate) rng: SimRng,
    /// The registry (RouteViews + CAIDA equivalent), public read access for
    /// the analysis layer. Shared-immutable across clones.
    pub registry: Arc<InternetRegistry>,
    /// Per-country site rankings (Alexa equivalent), public read access.
    /// Shared-immutable across clones.
    pub rankings: Arc<Rankings>,
    /// Deterministic site-symbol table: every probe-able origin hostname,
    /// interned once at world construction in site-plan order (DESIGN.md
    /// §10). Probe loops and the analysis layer only *look up* and
    /// *resolve* — they never insert, so shard execution order cannot
    /// perturb ids. Shared-immutable across clones.
    pub site_symbols: Arc<SymbolTable>,
    pub(crate) latencies: PathLatencies,
    pub(crate) campaign: FaultCampaign,
    pub(crate) trace: TraceLog,

    /// Per-node `Arc` inside a shared `Arc`: a write to one node (TLS
    /// interceptor issuing a cert, a churn toggle) copies that node and the
    /// pointer vector, never the whole population.
    pub(crate) nodes: Arc<Vec<Arc<ExitNode>>>,
    pub(crate) pool_by_country: Arc<HashMap<CountryCode, Vec<NodeId>>>,
    pub(crate) pool_all: Arc<Vec<NodeId>>,

    pub(crate) resolvers: Arc<HashMap<Ipv4Addr, ResolverDef>>,
    pub(crate) transparent_dns: Arc<HashMap<Asn, NxdomainHijacker>>,
    pub(crate) isp_http: Arc<HashMap<Asn, IspHttp>>,
    pub(crate) monitors: Arc<Vec<MonitorEntity>>,
    /// Pre-rendered RNG fork labels, one per monitor entity
    /// (`monitor-{idx}`): the per-request refetch scheduler forks its RNG
    /// by label and must not `format!` one on every request.
    pub(crate) monitor_fork_labels: Arc<Vec<String>>,

    pub(crate) auth_server: AuthServer,
    pub(crate) auth_apex: DnsName,
    pub(crate) web_server: WebServer,
    pub(crate) web_ip: Ipv4Addr,

    pub(crate) origin_sites: Arc<HashMap<String, OriginSite>>,
    pub(crate) origin_by_ip: Arc<HashMap<Ipv4Addr, String>>,
    pub(crate) landing: Arc<HashMap<Ipv4Addr, NxdomainHijacker>>,

    /// The public root store (OS X 10.11-like). Shared-immutable across
    /// clones.
    pub root_store: Arc<RootStore>,
    pub(crate) sessions: SessionTable,
    pub(crate) resolver_caches: HashMap<Ipv4Addr, dnswire::DnsCache>,
    pub(crate) resolver_caching: bool,
    pub(crate) max_attempts: usize,
    pub(crate) churn_mean: Option<SimDuration>,
    pub(crate) smtp: crate::smtp_flow::SmtpPlane,
    pub(crate) bytes_billed: HashMap<String, u64>,
    pub(crate) google_anycast: Vec<Ipv4Addr>,
    /// Reused wire-codec scratch buffers (DESIGN.md §10). Per-clone, so
    /// every shard fork owns its own set; recycled across that shard's
    /// probes by the flow layer.
    pub(crate) scratch: crate::flows::WireScratch,
}

impl World {
    /// Create an empty world.
    ///
    /// * `seed` — master determinism seed;
    /// * `auth_apex` — the domain whose authoritative server we run (all
    ///   probe names live under it);
    /// * `web_ip` — our web server's address;
    /// * `google_anycast` — the pool of Google anycast resolver instances
    ///   (the super proxy uses the first; exit nodes configured with Google
    ///   DNS hit one based on their location).
    pub fn new(
        seed: u64,
        auth_apex: DnsName,
        web_ip: Ipv4Addr,
        google_anycast: Vec<Ipv4Addr>,
        registry: InternetRegistry,
        root_store: RootStore,
    ) -> Self {
        assert!(
            !google_anycast.is_empty(),
            "need at least one Google anycast instance"
        );
        let zone = dnswire::Zone::new(auth_apex.clone());
        World {
            sched: Scheduler::new(),
            rng: SimRng::new(seed).fork("world"),
            registry: Arc::new(registry),
            rankings: Arc::new(Rankings::new()),
            site_symbols: Arc::new(SymbolTable::new()),
            latencies: PathLatencies::default(),
            campaign: FaultCampaign::none(),
            trace: TraceLog::disabled(),
            nodes: Arc::new(Vec::new()),
            pool_by_country: Arc::new(HashMap::new()),
            pool_all: Arc::new(Vec::new()),
            resolvers: Arc::new(HashMap::new()),
            transparent_dns: Arc::new(HashMap::new()),
            isp_http: Arc::new(HashMap::new()),
            monitors: Arc::new(Vec::new()),
            monitor_fork_labels: Arc::new(Vec::new()),
            auth_server: AuthServer::new(zone),
            auth_apex,
            web_server: WebServer::new(),
            web_ip,
            origin_sites: Arc::new(HashMap::new()),
            origin_by_ip: Arc::new(HashMap::new()),
            landing: Arc::new(HashMap::new()),
            root_store: Arc::new(root_store),
            sessions: SessionTable::new(),
            resolver_caches: HashMap::new(),
            resolver_caching: true,
            max_attempts: crate::flows::MAX_ATTEMPTS,
            churn_mean: None,
            smtp: crate::smtp_flow::SmtpPlane::default(),
            bytes_billed: HashMap::new(),
            google_anycast,
            scratch: crate::flows::WireScratch::default(),
        }
    }

    // -- construction (used by worldgen) ------------------------------------

    /// Add an exit node. Only exit-eligible platforms join the routing
    /// pools; others exist but never receive traffic (§2.2).
    pub fn add_node(&mut self, node: ExitNode) -> NodeId {
        let id = node.id;
        assert_eq!(
            id.0 as usize,
            self.nodes.len(),
            "nodes must be added densely in id order"
        );
        if node.platform.exit_eligible() {
            Arc::make_mut(&mut self.pool_by_country)
                .entry(node.country)
                .or_default()
                .push(id);
            Arc::make_mut(&mut self.pool_all).push(id);
        }
        Arc::make_mut(&mut self.nodes).push(Arc::new(node));
        id
    }

    /// Replace the rankings directory (worldgen wiring).
    pub fn set_rankings(&mut self, rankings: Rankings) {
        self.rankings = Arc::new(rankings);
    }

    /// Replace the site-symbol table (worldgen wiring). The table must be
    /// complete before the first probe: experiments look symbols up by
    /// hostname and treat a miss as a world-construction bug.
    pub fn set_site_symbols(&mut self, table: SymbolTable) {
        self.site_symbols = Arc::new(table);
    }

    /// Register a resolver.
    pub fn add_resolver(&mut self, def: ResolverDef) {
        Arc::make_mut(&mut self.resolvers).insert(def.ip, def);
    }

    /// Install a transparent in-path DNS hijacker for an AS.
    pub fn set_transparent_dns(&mut self, asn: Asn, hijacker: NxdomainHijacker) {
        Arc::make_mut(&mut self.transparent_dns).insert(asn, hijacker);
    }

    /// Install in-path HTTP interference for an AS.
    pub fn set_isp_http(&mut self, asn: Asn, cfg: IspHttp) {
        Arc::make_mut(&mut self.isp_http).insert(asn, cfg);
    }

    /// Register a monitor entity; returns its index for node wiring.
    pub fn add_monitor(&mut self, entity: MonitorEntity) -> usize {
        let monitors = Arc::make_mut(&mut self.monitors);
        monitors.push(entity);
        let idx = monitors.len() - 1;
        Arc::make_mut(&mut self.monitor_fork_labels).push(format!("monitor-{idx}"));
        idx
    }

    /// Register an origin site (popular / university / invalid-cert site).
    pub fn add_origin_site(&mut self, site: OriginSite) {
        // Every origin host is probe-able, so it must be in the
        // site-symbol table; interning here (idempotent after worldgen's
        // canonical-order pass) keeps hand-built test worlds complete too.
        Arc::make_mut(&mut self.site_symbols).intern(&site.host);
        Arc::make_mut(&mut self.origin_by_ip).insert(site.ip, site.host.clone());
        Arc::make_mut(&mut self.origin_sites).insert(site.host.clone(), site);
    }

    /// Register a hijack landing server at `ip` serving `hijacker`'s page.
    pub fn add_landing(&mut self, ip: Ipv4Addr, hijacker: NxdomainHijacker) {
        Arc::make_mut(&mut self.landing).insert(ip, hijacker);
    }

    /// Install a scripted fault campaign on the exit-node link, judged on
    /// every delivery attempt of a GET, a CONNECT or an SMTP relay. An
    /// inert campaign (the default) draws nothing and changes nothing; a
    /// uniform link injector is [`FaultCampaign::uniform`].
    pub fn set_fault_campaign(&mut self, campaign: FaultCampaign) {
        self.campaign = campaign;
    }

    /// Override the session stickiness window (ablation knob; 0 disables
    /// sessions — the d1/d2 methodology depends on them).
    pub fn set_session_ttl(&mut self, ttl: SimDuration) {
        self.sessions.set_ttl(ttl);
    }

    /// Enable or disable resolver caching (on by default; disabling it is
    /// an ablation that shows the unique-name methodology would also have
    /// worked against cacheless resolvers).
    pub fn set_resolver_caching(&mut self, on: bool) {
        self.resolver_caching = on;
        if !on {
            self.resolver_caches.clear();
        }
    }

    /// Override the retry budget (ablation knob; the service default is 5).
    pub fn set_max_attempts(&mut self, attempts: usize) {
        assert!(attempts >= 1, "need at least one attempt");
        self.max_attempts = attempts;
    }

    /// Enable or disable tracing (for the figure timelines).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    // -- accessors -----------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Advance the clock, firing any due monitor refetches.
    pub fn advance(&mut self, by: SimDuration) {
        let deadline = self.now() + by;
        while let Some(fired) = self.sched.next_until(deadline) {
            self.fire(fired.at, fired.payload);
        }
    }

    /// Run until every scheduled event has fired (ends the observation
    /// window of the monitoring experiment).
    ///
    /// # Panics
    /// Panics when churn is enabled — churn reschedules itself forever, so
    /// quiescence never arrives; use [`World::advance`] with an explicit
    /// window instead.
    pub fn run_to_quiescence(&mut self) {
        assert!(
            self.churn_mean.is_none(),
            "run_to_quiescence never returns under churn; use advance()"
        );
        while let Some(fired) = self.sched.next() {
            let at = fired.at;
            self.fire(at, fired.payload);
        }
    }

    fn fire(&mut self, at: SimTime, ev: WorldEvent) {
        match ev {
            WorldEvent::MonitorRefetch {
                src,
                host,
                path,
                user_agent,
            } => {
                self.trace
                    .record_with(at, netsim::TraceCategory::Monitor, || {
                        format!("unexpected request for http://{host}{path} from {src}")
                    });
                self.web_server
                    .handle(at, src, &host, &path, Some(&user_agent));
            }
            WorldEvent::ChurnToggle { node } => {
                let n = self.node_cow(node);
                n.online = !n.online;
                if let Some(mean) = self.churn_mean {
                    let next = Self::churn_interval(&mut self.rng, mean);
                    self.sched.schedule(next, WorldEvent::ChurnToggle { node });
                }
            }
        }
    }

    /// Enable peer churn: every node toggles between online and offline at
    /// exponentially distributed intervals with the given mean. The Hola
    /// population is residential and "very dynamic" (§3.2, footnote 6);
    /// churn exercises the session-pin + retry + zID-cross-check machinery
    /// under realistic conditions.
    pub fn enable_churn(&mut self, mean: SimDuration) {
        assert!(!mean.is_zero(), "churn interval must be positive");
        self.churn_mean = Some(mean);
        for id in 0..self.nodes.len() as u32 {
            let first = Self::churn_interval(&mut self.rng, mean);
            self.sched
                .schedule(first, WorldEvent::ChurnToggle { node: NodeId(id) });
        }
    }

    fn churn_interval(rng: &mut SimRng, mean: SimDuration) -> SimDuration {
        use netsim::rng::RngExt;
        // Exponential inter-arrival via inverse transform; clamp away from
        // zero so two toggles never collapse into the same instant.
        let u: f64 = rng.random_range(1e-9..1.0);
        let ms = (-(u.ln()) * mean.as_millis() as f64).max(1.0);
        SimDuration::from_millis(ms as u64)
    }

    /// Mutable access to the authoritative DNS server (the measurement
    /// client provisions probe names and reads the query log).
    pub fn auth_server_mut(&mut self) -> &mut AuthServer {
        &mut self.auth_server
    }

    /// Read access to the authoritative DNS server.
    pub fn auth_server(&self) -> &AuthServer {
        &self.auth_server
    }

    /// The apex of our authoritative zone.
    pub fn auth_apex(&self) -> &DnsName {
        &self.auth_apex
    }

    /// Mutable access to the measurement web server.
    pub fn web_server_mut(&mut self) -> &mut WebServer {
        &mut self.web_server
    }

    /// Read access to the measurement web server.
    pub fn web_server(&self) -> &WebServer {
        &self.web_server
    }

    /// Our web server's address.
    pub fn web_ip(&self) -> Ipv4Addr {
        self.web_ip
    }

    /// The trace log (figure rendering).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Clear the trace log.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Number of nodes in the world (eligible or not).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ground-truth node access — **analysis code must not call this**; it
    /// exists for world construction, scoring, and tests.
    pub fn node(&self, id: NodeId) -> &ExitNode {
        &self.nodes[id.0 as usize]
    }

    /// Ground-truth mutable node access (worldgen wiring, churn tests).
    /// Copy-on-write: unshares the pointer vector and the touched node if
    /// they are shared with a clone — never the rest of the population.
    pub fn node_mut(&mut self, id: NodeId) -> &mut ExitNode {
        self.node_cow(id)
    }

    /// Copy-on-write mutable access to one node (see [`World::node_mut`]).
    pub(crate) fn node_cow(&mut self, id: NodeId) -> &mut ExitNode {
        Arc::make_mut(&mut Arc::make_mut(&mut self.nodes)[id.0 as usize])
    }

    /// All node ids (ground truth / scoring).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The per-country exit counts Luminati reports to clients — public
    /// API information the crawler uses for proportional sampling (§3.2).
    pub fn reported_country_counts(&self) -> Vec<(CountryCode, usize)> {
        let mut v: Vec<(CountryCode, usize)> = self
            .pool_by_country
            .iter()
            .map(|(cc, pool)| (*cc, pool.len()))
            .collect();
        v.sort();
        v
    }

    /// Public directory of HTTPS-capable sites: `(host, ip)` per country
    /// rank plus the university and invalid sites. The measurement client
    /// needs the IPs because CONNECT takes an address (§2.3).
    pub fn site_address(&self, host: &str) -> Option<Ipv4Addr> {
        self.origin_sites.get(host).map(|s| s.ip)
    }

    /// The certificate chain a site serves when reached *directly* (not
    /// through an exit node). The measurement client may use this only for
    /// the invalid sites it operates itself — it knows those certificates
    /// because it created them (§6.1's exact-match check).
    pub fn expected_chain(&self, host: &str) -> Option<&[certs::Certificate]> {
        self.origin_sites.get(host).map(|s| &*s.chain)
    }

    /// Total bytes billed to a customer (per-GB pricing, §2.3).
    pub fn bytes_billed(&self, customer: &str) -> u64 {
        self.bytes_billed.get(customer).copied().unwrap_or(0)
    }

    /// The monitor-entity table (ground truth / scoring).
    pub fn monitor_entities(&self) -> &[MonitorEntity] {
        &self.monitors
    }

    /// Ground-truth resolver lookup (scoring only).
    pub fn resolver_def(&self, ip: Ipv4Addr) -> Option<&ResolverDef> {
        self.resolvers.get(&ip)
    }

    /// All registered resolvers (for longitudinal world mutation and
    /// scoring).
    pub fn resolvers(&self) -> impl Iterator<Item = &ResolverDef> {
        self.resolvers.values()
    }

    /// Remove a transparent DNS proxy (longitudinal scenarios: an ISP
    /// turns its hijacking appliance off).
    pub fn clear_transparent_dns(&mut self, asn: Asn) -> bool {
        Arc::make_mut(&mut self.transparent_dns)
            .remove(&asn)
            .is_some()
    }

    /// Ground-truth transparent-DNS-proxy lookup (scoring only).
    pub fn transparent_dns_of(&self, asn: Asn) -> Option<&NxdomainHijacker> {
        self.transparent_dns.get(&asn)
    }

    /// Ground-truth in-path HTTP interference lookup (scoring only).
    pub fn isp_http_of(&self, asn: Asn) -> Option<&IspHttp> {
        self.isp_http.get(&asn)
    }

    /// The Google anycast instance the super proxy resolves through.
    pub fn super_proxy_dns_src(&self) -> Ipv4Addr {
        self.google_anycast[0]
    }

    /// Force a private deep copy of every shared-immutable section, so this
    /// world shares no memory with any clone it was forked from.
    ///
    /// Test support: the overlay determinism tests run a study on an
    /// unshared world and on a normally-forked one and assert byte-identical
    /// output — proving the `Arc` sharing is a pure allocation optimization
    /// (the historical whole-clone executor and the shared-world executor
    /// cannot diverge). Not used on any production path.
    pub fn unshare(&mut self) {
        macro_rules! deep_copy {
            ($($field:ident),+ $(,)?) => {$(
                // tft-lint: allow(hot-path-alloc, reason = "unshare IS the deep copy - it exists so tests can force the historical whole-clone executor; no production wave calls it")
                self.$field = Arc::new((*self.$field).clone());
            )+};
        }
        deep_copy!(
            registry,
            rankings,
            site_symbols,
            pool_by_country,
            pool_all,
            resolvers,
            transparent_dns,
            isp_http,
            monitors,
            monitor_fork_labels,
            origin_sites,
            origin_by_ip,
            landing,
            root_store,
        );
        // tft-lint: allow(hot-path-alloc, reason = "unshare IS the deep copy - it exists so tests can force the historical whole-clone executor; no production wave calls it")
        self.nodes = Arc::new(self.nodes.iter().map(|n| Arc::new((**n).clone())).collect());
        // Site chains are `Arc`s of their own, which cloning the site map
        // only refcounts.
        for site in Arc::make_mut(&mut self.origin_sites).values_mut() {
            site.chain = Arc::from(&site.chain[..]);
        }
    }

    // -- shard evidence merging (parallel study executor) --------------------

    /// Clone everything but the measurement evidence: the returned world
    /// has empty server logs and an empty billing ledger. The parallel
    /// study executor clones its shards from such a base, so everything a
    /// shard holds when it finishes is its own evidence.
    ///
    /// The logs and the ledger are moved out of `self` for the clone and
    /// moved back after it, so none of them is copied and `self` keeps them
    /// in the same buffers.
    pub fn clone_without_evidence(&mut self) -> World {
        let web_log = self.web_server.replace_log(Vec::new());
        let auth_log = self.auth_server.replace_log(Vec::new());
        let bytes_billed = std::mem::take(&mut self.bytes_billed);
        let base = self.clone();
        self.web_server.replace_log(web_log);
        self.auth_server.replace_log(auth_log);
        self.bytes_billed = bytes_billed;
        base
    }

    /// Consume a shard world, keeping only the measurement evidence it
    /// holds: the web-server and authoritative-DNS logs, the billing
    /// ledger, and the clock. Everything else — sessions, caches, the
    /// overlay — is dropped here, on the thread that ran the shard.
    pub fn into_evidence(mut self) -> ShardEvidence {
        ShardEvidence {
            web_log: self.web_server.take_log(),
            auth_log: self.auth_server.take_log(),
            bytes_billed: std::mem::take(&mut self.bytes_billed),
            now: self.now(),
        }
    }

    /// Merge the measurement evidence a shard produced back into this world:
    /// its log entries are moved onto the end of the web-server and
    /// authoritative-DNS logs (callers absorb shards in shard order, so the
    /// merged logs are deterministic), its per-customer billing is added,
    /// and the clock advances to the shard's finish time if it is ahead
    /// (firing any events due in between).
    ///
    /// Only *evidence* merges; shard-local control state (sessions, resolver
    /// caches, zone provisioning) stays in the shard, exactly as a real
    /// measurement backend only ever sees its servers' logs and the bill.
    pub fn absorb_evidence(&mut self, mut shard: ShardEvidence) {
        self.web_server.append_log(&mut shard.web_log);
        self.auth_server.append_log(&mut shard.auth_log);
        for (customer, billed) in shard.bytes_billed {
            *self.bytes_billed.entry(customer).or_insert(0) += billed;
        }
        if let Some(ahead) = shard.now.checked_since(self.now()) {
            if !ahead.is_zero() {
                self.advance(ahead);
            }
        }
    }

    // -- stage-boundary snapshots (tft-core checkpoint) ----------------------

    /// Per-customer billing, in canonical (sorted customer) order, leaving
    /// out customers billed nothing.
    pub fn billing(&self) -> Vec<(String, u64)> {
        let mut billing: Vec<(String, u64)> = self
            .bytes_billed
            .iter()
            .filter(|(_, &billed)| billed > 0)
            .map(|(customer, &billed)| (customer.clone(), billed))
            .collect();
        billing.sort();
        billing
    }

    /// True when no scheduled event is pending. Stage-boundary worlds in a
    /// standard (churn-free) study are idle: advancing them only moves the
    /// clock.
    pub fn is_idle(&self) -> bool {
        self.sched.is_idle()
    }

    /// The anycast instance a Google-DNS-configured node in `country` hits.
    pub(crate) fn google_instance_for(&self, country: CountryCode, node: NodeId) -> Ipv4Addr {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in country.as_str().bytes().chain(node.0.to_be_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.google_anycast[(h % self.google_anycast.len() as u64) as usize]
    }
}
