//! Spec → world construction.
//!
//! Build order matters: all address space is registered before the RIB
//! snapshot, nodes are added densely in id order, and every random choice
//! flows from the spec's seed — the same spec always builds the same world.

use crate::spec::*;
use crate::truth::GroundTruth;
use certs::{self, CertAuthority, DistinguishedName, RootStore};
use dnswire::DnsName;
use inetdb::{Asn, CountryCode, InternetRegistry, Rankings};
use middlebox::{
    monitor::profiles, HijackVector, HtmlInjector, ImageTranscoder, InvalidCertPolicy, JsFamily,
    MonitorEntity, NxdomainHijacker, ObjectBlocker, RefetchModel, Selectivity, SourcePattern,
    TlsInterceptor,
};
use netsim::rng::RngExt;
use netsim::{SimDuration, SimRng, SimTime};
use proxynet::{ExitNode, IspHttp, NodeId, Platform, ResolverChoice, ResolverDef, World};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use substrate::intern::SymbolTable;

/// A built world plus the planted ground truth.
pub struct BuiltWorld {
    /// The runnable world.
    pub world: World,
    /// What was planted, for scoring the analysis afterwards.
    pub truth: GroundTruth,
}

/// Build a world from a spec.
///
/// ```
/// let built = worldgen::build(&worldgen::smoke_spec(7));
/// assert!(built.truth.total_nodes > 0);
/// assert!(!built.truth.dns_hijacked.is_empty());
/// ```
///
/// # Panics
/// Panics if the spec fails [`crate::validate::validate`]; use
/// [`try_build`] for a `Result`.
pub fn build(spec: &WorldSpec) -> BuiltWorld {
    match try_build(spec) {
        Ok(b) => b,
        Err(errors) => {
            let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
            panic!("invalid world spec: {}", msgs.join("; "));
        }
    }
}

/// Build a world from a spec, returning validation errors instead of
/// panicking.
pub fn try_build(spec: &WorldSpec) -> Result<BuiltWorld, Vec<crate::validate::SpecError>> {
    crate::validate::validate(spec)?;
    Ok(Builder::new(spec).run())
}

struct IspNodes {
    range: std::ops::Range<u32>,
    monitored_share: Option<(String, f64)>,
}

struct Builder<'a> {
    spec: &'a WorldSpec,
    rng: SimRng,
    registry: InternetRegistry,
    roots: RootStore,
    authorities: Vec<CertAuthority>,
}

impl<'a> Builder<'a> {
    fn new(spec: &'a WorldSpec) -> Self {
        let mut rng = SimRng::new(spec.seed).fork("worldgen");
        let (roots, authorities) =
            RootStore::os_x_like(spec.sites.root_store_size, SimTime::EPOCH, &mut rng);
        Builder {
            spec,
            rng,
            registry: InternetRegistry::new(),
            roots,
            authorities,
        }
    }

    fn run(mut self) -> BuiltWorld {
        let spec = self.spec;

        // ---- fixed infrastructure --------------------------------------
        let google_org = self.registry.register_org("Google", CountryCode::new("US"));
        let google_asn = self
            .registry
            .register_as_with_prefix(google_org, inetdb::GOOGLE_ANYCAST_NET.parse().unwrap());
        let meas_org = self
            .registry
            .register_org("Measurement Lab", CountryCode::new("US"));
        let meas_asn = self.registry.register_as(meas_org, 1);
        let web_ip = self.registry.alloc_ip(meas_asn);
        let anycast: Vec<Ipv4Addr> = (0..16)
            .map(|_| self.registry.alloc_ip(google_asn))
            .collect();

        let hosting_org = self
            .registry
            .register_org("WebHosting Inc", CountryCode::new("US"));
        let hosting_asn = self.registry.register_as(hosting_org, 8);
        let cdn_org = self
            .registry
            .register_org("Assist CDN", CountryCode::new("US"));
        let cdn_asn = self.registry.register_as(cdn_org, 1);

        // ---- public resolver services -----------------------------------
        struct PublicServer {
            ip: Ipv4Addr,
            hijack: bool,
        }
        let mut public_servers: Vec<PublicServer> = Vec::new();
        let mut pending_resolvers: Vec<ResolverDef> = Vec::new();
        let mut pending_landings: Vec<(Ipv4Addr, NxdomainHijacker)> = Vec::new();
        for svc in &spec.public_resolvers.services {
            let org = self
                .registry
                .register_org(&svc.name, CountryCode::new("US"));
            let asn = self.registry.register_as(org, 1);
            let landing_ip = self.registry.alloc_ip(asn);
            let hijacker = svc.hijack.then(|| {
                NxdomainHijacker::new(
                    HijackVector::PublicResolver,
                    vec![format!(
                        "http://{}",
                        svc.landing_domain
                            .clone()
                            .unwrap_or_else(|| format!("assist.{}.example", slug(&svc.name)))
                    )],
                    landing_ip,
                    JsFamily::Custom,
                )
            });
            if let Some(h) = &hijacker {
                pending_landings.push((landing_ip, h.clone()));
            }
            for _ in 0..spec.scaled_min1(svc.servers) {
                let ip = self.registry.alloc_ip(asn);
                public_servers.push(PublicServer {
                    ip,
                    hijack: svc.hijack,
                });
                pending_resolvers.push(ResolverDef {
                    ip,
                    asn,
                    hijacker: hijacker.clone(),
                });
            }
        }
        {
            let org = self
                .registry
                .register_org("Public DNS Collective", CountryCode::new("US"));
            let asn = self.registry.register_as(org, 16);
            for _ in 0..spec.scaled_min1(spec.public_resolvers.clean_servers) {
                let ip = self.registry.alloc_ip(asn);
                public_servers.push(PublicServer { ip, hijack: false });
                pending_resolvers.push(ResolverDef {
                    ip,
                    asn,
                    hijacker: None,
                });
            }
        }
        let hijacking_publics: Vec<Ipv4Addr> = public_servers
            .iter()
            .filter(|s| s.hijack)
            .map(|s| s.ip)
            .collect();
        let clean_publics: Vec<Ipv4Addr> = public_servers
            .iter()
            .filter(|s| !s.hijack)
            .map(|s| s.ip)
            .collect();

        // ---- countries, ISPs, address plan -------------------------------
        struct IspPlan {
            country: CountryCode,
            spec: IspSpec,
            asns: Vec<Asn>,
            resolver_ips: Vec<(Ipv4Addr, Asn)>,
            hijacker: Option<NxdomainHijacker>,
        }
        let mut plans: Vec<IspPlan> = Vec::new();
        for cspec in &spec.countries {
            let cc = CountryCode::new(&cspec.code);
            for ispec in &cspec.isps {
                let org = self.registry.register_org(&ispec.name, cc);
                let mut asns = Vec::new();
                for &explicit in &ispec.explicit_asns {
                    asns.push(self.registry.register_as_with_asn(Asn(explicit), org, 2));
                }
                for _ in 0..ispec.auto_as_count {
                    asns.push(self.registry.register_as(org, 2));
                }
                assert!(!asns.is_empty(), "ISP {} has no ASes", ispec.name);
                let n_servers = spec.scaled_min1(ispec.resolver_servers).max(1);
                let resolver_ips: Vec<(Ipv4Addr, Asn)> = (0..n_servers)
                    .map(|i| {
                        let asn = asns[i as usize % asns.len()];
                        (self.registry.alloc_ip(asn), asn)
                    })
                    .collect();
                let hijacker = (ispec.resolver_hijack || ispec.transparent_proxy).then(|| {
                    let landing_ip = self.registry.alloc_ip(asns[0]);
                    let domain = ispec
                        .landing_domain
                        .clone()
                        .unwrap_or_else(|| format!("assist.{}.example", slug(&ispec.name)));
                    NxdomainHijacker::new(
                        if ispec.resolver_hijack {
                            HijackVector::IspResolver
                        } else {
                            HijackVector::TransparentProxy
                        },
                        vec![format!("http://{domain}")],
                        landing_ip,
                        if ispec.shared_js {
                            JsFamily::SharedVendor
                        } else {
                            JsFamily::Custom
                        },
                    )
                });
                plans.push(IspPlan {
                    country: cc,
                    spec: ispec.clone(),
                    asns,
                    resolver_ips,
                    hijacker,
                });
            }
        }

        // ---- monitor entity address space ---------------------------------
        struct MonitorPlan {
            spec: MonitorSpec,
            source_ips: Vec<Ipv4Addr>,
            egress_pool: Vec<Ipv4Addr>,
        }
        let mut monitor_plans = Vec::new();
        for mspec in &spec.monitors {
            // ISP-level monitors (TalkTalk, Tiscali) run their collectors
            // inside the ISP's own network — that co-location is exactly
            // what lets the analysis attribute them to the ISP (§7.2.2).
            let isp_asn = plans
                .iter()
                .find(|p| {
                    p.spec
                        .monitored_share
                        .as_ref()
                        .map(|(entity, _)| entity == &mspec.name)
                        .unwrap_or(false)
                })
                .map(|p| p.asns[0]);
            let asn = match isp_asn {
                Some(asn) => asn,
                None => {
                    let cc = CountryCode::new(&mspec.home_country);
                    let org = self
                        .registry
                        .register_org(&format!("{} Infrastructure", mspec.name), cc);
                    self.registry.register_as(org, 1)
                }
            };
            let n_ips = spec.scaled_min1(mspec.source_ips).max(2);
            let source_ips: Vec<Ipv4Addr> =
                (0..n_ips).map(|_| self.registry.alloc_ip(asn)).collect();
            let egress_pool: Vec<Ipv4Addr> = (0..16).map(|_| self.registry.alloc_ip(asn)).collect();
            monitor_plans.push(MonitorPlan {
                spec: mspec.clone(),
                source_ips,
                egress_pool,
            });
        }

        // ---- node addresses (before snapshot, after all AS registration) --
        struct NodePlan {
            ip: Ipv4Addr,
            asn: Asn,
            country: CountryCode,
            resolver: ResolverChoice,
            tethered: bool,
            flakiness: f64,
        }
        let mut node_plans: Vec<NodePlan> = Vec::new();
        let mut isp_node_ranges: Vec<IspNodes> = Vec::new();
        for plan in &plans {
            let n_nodes = spec.scaled(plan.spec.nodes);
            let start = node_plans.len() as u32;
            for i in 0..n_nodes {
                let asn = plan.asns[(i % plan.asns.len() as u64) as usize];
                let ip = self.registry.alloc_ip(asn);
                let r: f64 = self.rng.random();
                let resolver = if r < plan.spec.google_dns_share {
                    ResolverChoice::GoogleDns
                } else if r < plan.spec.google_dns_share + plan.spec.public_dns_share {
                    let pick_hijacking = !hijacking_publics.is_empty()
                        && self
                            .rng
                            .random_bool(spec.public_resolvers.hijacking_service_weight);
                    let pool = if pick_hijacking {
                        &hijacking_publics
                    } else {
                        &clean_publics
                    };
                    ResolverChoice::Public(pool[self.rng.random_range(0..pool.len())])
                } else {
                    ResolverChoice::Isp(
                        plan.resolver_ips[self.rng.random_range(0..plan.resolver_ips.len())].0,
                    )
                };
                let tethered = plan
                    .spec
                    .transcoder
                    .as_ref()
                    .map(|t| self.rng.random_bool(t.tethered_share))
                    .unwrap_or(false);
                node_plans.push(NodePlan {
                    ip,
                    asn,
                    country: plan.country,
                    resolver,
                    tethered,
                    flakiness: plan.spec.flakiness,
                });
            }
            isp_node_ranges.push(IspNodes {
                range: start..node_plans.len() as u32,
                monitored_share: plan.spec.monitored_share.clone(),
            });
        }

        // ---- sites -----------------------------------------------------------
        struct SitePlan {
            host: String,
            ip: Ipv4Addr,
            invalid: Option<InvalidKind>,
        }
        #[derive(Clone, Copy)]
        enum InvalidKind {
            SelfSigned,
            Expired,
            WrongName,
        }
        let mut site_plans: Vec<SitePlan> = Vec::new();
        let mut rankings = Rankings::new();
        for cspec in &spec.countries {
            if !cspec.has_rankings {
                continue;
            }
            let cc = CountryCode::new(&cspec.code);
            let names = Rankings::generate_country(cc, spec.sites.sites_per_country);
            for host in &names {
                site_plans.push(SitePlan {
                    host: host.clone(),
                    ip: self.registry.alloc_ip(hosting_asn),
                    invalid: None,
                });
            }
            rankings.set_country(cc, names);
        }
        let unis = Rankings::generate_universities(spec.sites.universities);
        for host in &unis {
            site_plans.push(SitePlan {
                host: host.clone(),
                ip: self.registry.alloc_ip(hosting_asn),
                invalid: None,
            });
        }
        rankings.set_universities(unis);
        for (host, kind) in [
            ("invalid-selfsigned", InvalidKind::SelfSigned),
            ("invalid-expired", InvalidKind::Expired),
            ("invalid-wrongname", InvalidKind::WrongName),
        ] {
            site_plans.push(SitePlan {
                host: format!("{host}.{}", spec.probe_apex),
                ip: self.registry.alloc_ip(hosting_asn),
                invalid: Some(kind),
            });
        }

        // Mail-server addresses (allocated pre-snapshot like everything else).
        let mut mail_ips: std::collections::HashMap<String, Ipv4Addr> =
            std::collections::HashMap::new();
        for cspec in &spec.countries {
            if !cspec.has_rankings {
                continue;
            }
            let cc_lower = cspec.code.to_ascii_lowercase();
            for i in 1..=spec.sites.mail_hosts_per_country {
                mail_ips.insert(
                    format!("mx{i}.{cc_lower}.example"),
                    self.registry.alloc_ip(hosting_asn),
                );
            }
        }

        // End-host hijacker landing addresses.
        let endhost_landings: Vec<(String, Ipv4Addr)> = spec
            .endhost
            .dns_hijackers
            .iter()
            .map(|h| (h.landing_domain.clone(), self.registry.alloc_ip(cdn_asn)))
            .collect();

        // ---- freeze the RIB and create the world ---------------------------
        self.registry.snapshot_rib();
        let apex = DnsName::parse(&spec.probe_apex).expect("valid probe apex");
        let mut world = World::new(
            spec.seed,
            apex,
            web_ip,
            anycast,
            std::mem::replace(&mut self.registry, InternetRegistry::new()),
            self.roots.clone(),
        );
        world.set_rankings(rankings);
        // Site-symbol table: every probe-able origin hostname, interned in
        // site-plan order (ranked sites by country, universities, then the
        // three invalid hosts). Probe loops look these up; a miss there is
        // a bug here.
        let mut site_symbols = SymbolTable::new();
        for sp in &site_plans {
            site_symbols.intern(&sp.host);
        }
        world.set_site_symbols(site_symbols);

        for def in pending_resolvers {
            world.add_resolver(def);
        }
        for (ip, h) in pending_landings {
            world.add_landing(ip, h);
        }
        for plan in &plans {
            if let Some(h) = &plan.hijacker {
                world.add_landing(h.landing_ip, h.clone());
                if plan.spec.resolver_hijack {
                    for &(ip, asn) in &plan.resolver_ips {
                        world.add_resolver(ResolverDef {
                            ip,
                            asn,
                            hijacker: Some(h.clone()),
                        });
                    }
                } else {
                    for &(ip, asn) in &plan.resolver_ips {
                        world.add_resolver(ResolverDef {
                            ip,
                            asn,
                            hijacker: None,
                        });
                    }
                }
                if plan.spec.transparent_proxy {
                    let mut th = h.clone();
                    th.vector = HijackVector::TransparentProxy;
                    for &asn in &plan.asns {
                        world.set_transparent_dns(asn, th.clone());
                    }
                }
            } else {
                for &(ip, asn) in &plan.resolver_ips {
                    world.add_resolver(ResolverDef {
                        ip,
                        asn,
                        hijacker: None,
                    });
                }
            }
            // In-path HTTP interference.
            let isp_http = IspHttp {
                injector: plan
                    .spec
                    .isp_injector_meta
                    .as_deref()
                    .map(HtmlInjector::meta_tag),
                transcoder: plan
                    .spec
                    .transcoder
                    .as_ref()
                    .map(|t| ImageTranscoder::new(t.ratios.clone())),
            };
            if isp_http.injector.is_some() || isp_http.transcoder.is_some() {
                for &asn in &plan.asns {
                    world.set_isp_http(asn, isp_http.clone());
                }
            }
            if plan.spec.smtp_strip {
                for &asn in &plan.asns {
                    world.set_isp_smtp(asn, middlebox::SmtpInterceptor::stripper());
                }
            }
        }

        // ---- nodes -----------------------------------------------------------
        for (i, np) in node_plans.iter().enumerate() {
            let mut node = ExitNode::new(
                NodeId(i as u32),
                np.ip,
                np.asn,
                np.country,
                Platform::Windows,
                np.resolver,
            );
            node.flakiness = np.flakiness;
            node.mobile_tethered = np.tethered;
            world.add_node(node);
        }
        let total_nodes = world.node_count() as u32;

        // ---- monitors ----------------------------------------------------------
        let mut monitor_idx: HashMap<String, usize> = HashMap::new();
        let mut monitor_egress: HashMap<String, Vec<Ipv4Addr>> = HashMap::new();
        for mp in &monitor_plans {
            let model: RefetchModel = match mp.spec.profile {
                MonitorProfile::TrendMicro => profiles::trend_micro(),
                MonitorProfile::TalkTalk => profiles::talktalk(),
                MonitorProfile::Commtouch => profiles::commtouch(),
                MonitorProfile::AnchorFree => profiles::anchorfree(),
                MonitorProfile::Bluecoat => profiles::bluecoat(),
                MonitorProfile::Tiscali => profiles::tiscali(),
            };
            let idx = world.add_monitor(MonitorEntity {
                name: mp.spec.name.clone(),
                source_ips: mp.source_ips.clone(),
                source_pattern: if mp.spec.fixed_second_source {
                    SourcePattern::AnyThenFixedLast
                } else {
                    SourcePattern::AnyFromPool
                },
                model,
                user_agent: mp.spec.user_agent.clone(),
            });
            monitor_idx.insert(mp.spec.name.clone(), idx);
            monitor_egress.insert(mp.spec.name.clone(), mp.egress_pool.clone());
        }

        // ISP-level monitoring (TalkTalk / Tiscali share of own nodes).
        for isp in &isp_node_ranges {
            if let Some((entity, share)) = &isp.monitored_share {
                let idx = *monitor_idx
                    .get(entity)
                    .unwrap_or_else(|| panic!("unknown monitor entity {entity}"));
                for id in isp.range.clone() {
                    if self.rng.random_bool(*share) {
                        world.node_mut(NodeId(id)).software.monitors.push(idx);
                    }
                }
            }
        }

        // ---- global end-host assignment ----------------------------------------
        let pick_nodes = |rng: &mut SimRng,
                          world: &World,
                          count: u64,
                          filter: &dyn Fn(&ExitNode) -> bool|
         -> Vec<NodeId> {
            let candidates: Vec<NodeId> = (0..total_nodes)
                .map(NodeId)
                .filter(|id| filter(world.node(*id)))
                .collect();
            if candidates.is_empty() {
                return Vec::new();
            }
            let want = (count as usize).min(candidates.len());
            // Partial Fisher–Yates over an index vector.
            let mut idxs: Vec<usize> = (0..candidates.len()).collect();
            for i in 0..want {
                let j = rng.random_range(i..idxs.len());
                idxs.swap(i, j);
            }
            idxs[..want].iter().map(|&i| candidates[i]).collect()
        };

        // End-host NXDOMAIN hijackers.
        for (h, (domain, landing_ip)) in spec.endhost.dns_hijackers.iter().zip(&endhost_landings) {
            let hijacker = NxdomainHijacker::new(
                HijackVector::EndHostSoftware,
                vec![format!("http://{domain}")],
                *landing_ip,
                JsFamily::Custom,
            );
            world.add_landing(*landing_ip, hijacker.clone());
            let google_only = h.google_dns_users_only;
            let chosen = pick_nodes(&mut self.rng, &world, spec.scaled(h.nodes), &|n| {
                n.software.dns_hijacker.is_none()
                    && (!google_only || matches!(n.resolver, ResolverChoice::GoogleDns))
            });
            for id in chosen {
                world.node_mut(id).software.dns_hijacker = Some(hijacker.clone());
            }
        }

        // HTML injectors.
        for inj in &spec.endhost.html_injectors {
            let injector = if inj.is_script_url {
                HtmlInjector::script(&inj.signature, inj.payload_bytes, inj.ad_count)
            } else {
                HtmlInjector::keyword(
                    inj.signature
                        .trim_start_matches("var ")
                        .trim_end_matches(';'),
                    inj.payload_bytes,
                    inj.ad_count,
                )
            };
            let country = inj.country.as_deref().map(CountryCode::new);
            let chosen = pick_nodes(&mut self.rng, &world, spec.scaled(inj.nodes), &|n| {
                n.software.html_injector.is_none()
                    && country.map(|cc| n.country == cc).unwrap_or(true)
            });
            for id in chosen {
                world.node_mut(id).software.html_injector = Some(injector.clone());
            }
        }

        // TLS interceptors.
        for t in &spec.endhost.tls_interceptors {
            let country = t.country.as_deref().map(CountryCode::new);
            let chosen = pick_nodes(&mut self.rng, &world, spec.scaled(t.nodes), &|n| {
                n.software.tls_interceptor.is_none()
                    && country.map(|cc| n.country == cc).unwrap_or(true)
            });
            let policy = match t.invalid {
                InvalidPolicySpec::MaskWithTrustedRoot => InvalidCertPolicy::SpoofSameIssuer,
                InvalidPolicySpec::AltUntrustedRoot => InvalidCertPolicy::SpoofAltIssuer(
                    DistinguishedName::cn(&format!("{} untrusted root", t.issuer)),
                ),
                InvalidPolicySpec::PassThrough => InvalidCertPolicy::PassThrough,
            };
            for id in chosen {
                let mut rng = self.rng.fork_indexed("tls-install", id.0 as u64);
                let mitm = TlsInterceptor::new(
                    DistinguishedName::cn(&t.issuer),
                    t.shared_key,
                    policy.clone(),
                    t.copy_fields,
                    if t.per_site_fraction >= 1.0 {
                        Selectivity::All
                    } else {
                        Selectivity::PerSiteFraction(t.per_site_fraction)
                    },
                    SimTime::EPOCH,
                    &mut rng,
                );
                world.node_mut(id).software.tls_interceptor = Some(mitm);
            }
        }

        // Monitoring software.
        for m in &spec.endhost.monitor_attach {
            let idx = *monitor_idx
                .get(&m.entity)
                .unwrap_or_else(|| panic!("unknown monitor entity {}", m.entity));
            let allowed: Option<Vec<CountryCode>> = m.country_limit.map(|k| {
                let mut all: Vec<CountryCode> = spec
                    .countries
                    .iter()
                    .map(|c| CountryCode::new(&c.code))
                    .collect();
                // Deterministic subset: the k largest-population countries.
                all.sort_by_key(|cc| {
                    std::cmp::Reverse(
                        spec.countries
                            .iter()
                            .find(|c| CountryCode::new(&c.code) == *cc)
                            .map(|c| c.isps.iter().map(|i| i.nodes).sum::<u64>())
                            .unwrap_or(0),
                    )
                });
                all.truncate(k);
                all
            });
            let chosen = pick_nodes(&mut self.rng, &world, spec.scaled(m.nodes), &|n| {
                !n.software.monitors.contains(&idx)
                    && allowed
                        .as_ref()
                        .map(|cs| cs.contains(&n.country))
                        .unwrap_or(true)
            });
            let egress = monitor_egress.get(&m.entity).cloned().unwrap_or_default();
            for id in chosen {
                let node = world.node_mut(id);
                node.software.monitors.push(idx);
                if m.vpn {
                    node.software.vpn_egress = Some(egress.clone());
                }
            }
        }

        // Object blockers.
        for b in &spec.endhost.blockers {
            let chosen = pick_nodes(&mut self.rng, &world, spec.scaled(b.nodes), &|n| {
                n.software.blocker.is_none()
            });
            for id in chosen {
                world.node_mut(id).software.blocker = Some(ObjectBlocker {
                    html: b.html,
                    js: b.js,
                    css: b.css,
                });
            }
        }

        // ---- origin sites ----------------------------------------------------
        let now = SimTime::EPOCH;
        for sp in &site_plans {
            let (chain, valid) = match sp.invalid {
                None => {
                    let ca_i = self.rng.random_range(0..self.authorities.len());
                    let ca = &mut self.authorities[ca_i];
                    let leaf = ca.issue_leaf(&sp.host, now, &mut self.rng);
                    (vec![leaf, ca.cert.clone()], true)
                }
                Some(InvalidKind::SelfSigned) => (
                    vec![certs::self_signed_leaf(&sp.host, now, &mut self.rng)],
                    false,
                ),
                Some(InvalidKind::Expired) => {
                    let ca = &mut self.authorities[0];
                    let mut leaf = ca.issue_leaf(&sp.host, now, &mut self.rng);
                    // Expired one minute after the epoch; the world clock is
                    // advanced past it below.
                    leaf.not_before = SimTime::EPOCH;
                    leaf.not_after = SimTime::EPOCH + SimDuration::from_mins(1);
                    (vec![leaf, ca.cert.clone()], false)
                }
                Some(InvalidKind::WrongName) => {
                    let ca = &mut self.authorities[0];
                    let leaf = certs::wrong_name_leaf(ca, &sp.host, now, &mut self.rng);
                    (vec![leaf, ca.cert.clone()], false)
                }
            };
            world.add_origin_site(proxynet::OriginSite {
                host: sp.host.clone(),
                ip: sp.ip,
                http_body: format!(
                    "<html><head><title>{h}</title></head><body>welcome to {h}</body></html>",
                    h = sp.host
                )
                .into_bytes(),
                chain: chain.into(),
                chain_valid: valid,
            });
        }

        // ---- mail servers (SMTP extension) ---------------------------------
        for cspec in &spec.countries {
            if !cspec.has_rankings {
                continue;
            }
            let cc_lower = cspec.code.to_ascii_lowercase();
            for i in 1..=spec.sites.mail_hosts_per_country {
                let host = format!("mx{i}.{cc_lower}.example");
                let ip = mail_ips.remove(&host).expect("mail ip pre-allocated");
                let ca_i = self.rng.random_range(0..self.authorities.len());
                let ca = &mut self.authorities[ca_i];
                let leaf = ca.issue_leaf(&host, now, &mut self.rng);
                world.add_mail_site(proxynet::MailSite {
                    host: host.clone(),
                    ip,
                    server: smtpwire::MailServer::new(&host),
                    chain: vec![leaf, ca.cert.clone()].into(),
                });
            }
        }

        // Let certificate validity windows settle (the "expired" site is
        // expired relative to any post-build time).
        world.advance(SimDuration::from_hours(1));

        // ---- fault campaign -------------------------------------------------
        // Applied last so an inert campaign leaves the build (and every
        // existing world's RNG stream) untouched.
        if !spec.campaign.is_empty() {
            world.set_fault_campaign(campaign_from_spec(&spec.campaign));
        }

        let truth = GroundTruth::from_world(&world);
        BuiltWorld { world, truth }
    }
}

/// Convert the spec's flat fault rules into the runtime campaign. Callers
/// are expected to have run [`crate::validate::validate`] first (the
/// probability ranges re-checked here can only fail on unvalidated input).
pub fn campaign_from_spec(rules: &[FaultRuleSpec]) -> netsim::FaultCampaign {
    let mut campaign = netsim::FaultCampaign::none();
    for r in rules {
        let scope = netsim::FaultScope {
            region: r.country.as_deref().map(str::to_ascii_uppercase),
            isp: r.asn.map(u64::from),
            node: None,
        };
        let window = if r.start_s.is_some() || r.end_s.is_some() {
            let start = SimTime::EPOCH + SimDuration::from_secs(r.start_s.unwrap_or(0));
            let end = match r.end_s {
                Some(s) => SimTime::EPOCH + SimDuration::from_secs(s),
                // "No end": far enough out that no simulated study reaches
                // it, without overflowing millisecond arithmetic.
                None => SimTime::EPOCH + SimDuration::from_secs(u64::MAX / 1_000_000),
            };
            Some((start, end))
        } else {
            None
        };
        let profile = if r.outage {
            netsim::FaultProfile::Outage
        } else if r.flap_down_s > 0 {
            netsim::FaultProfile::Flap {
                up: SimDuration::from_secs(r.flap_up_s),
                down: SimDuration::from_secs(r.flap_down_s),
            }
        } else {
            let injector = netsim::FaultInjector::validated(
                r.drop_chance,
                r.corrupt_chance,
                r.truncate_chance,
                r.stall_chance,
                r.delay_chance,
                netsim::Latency::fixed(r.delay_spike_ms),
            )
            .expect("campaign rule validated by validate()");
            netsim::FaultProfile::Inject(injector)
        };
        campaign = campaign.with_rule(netsim::FaultRule {
            scope,
            window,
            profile,
        });
    }
    campaign
}

fn slug(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}
