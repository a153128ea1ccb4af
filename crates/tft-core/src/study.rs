//! Study orchestration: run all four experiments on a world and analyze
//! the results.
//!
//! Execution is sharded and parallel (see [`crate::exec`]): each
//! experiment's population is partitioned by country, every
//! (experiment × shard) pair forks the study-start world snapshot, and all
//! of them drain through **one** work queue on [`substrate::pool`] worker
//! threads — no barrier between experiments. The five analysis passes run
//! concurrently afterwards. Output is byte-identical at any worker count —
//! the worker knob trades wall-clock for cores, nothing else.
//!
//! There is one execution path: [`StudyDriver`]. [`run_study_with`] runs a
//! driver to completion; a caller that wants progress steps it instead.

use crate::analysis;
use crate::config::StudyConfig;
use crate::dns_exp::DnsExpOptions;
use crate::exec::{self, ExecOptions, ExpData, Experiment};
use crate::obs::{DnsDataset, HttpDataset, HttpsDataset, MonitorDataset};
use inetdb::{Asn, CountryCode};
use netsim::SimTime;
use proxynet::{World, ZId};
use std::collections::BTreeSet;
use substrate::pool;

/// Everything one full study run produces.
pub struct StudyReport {
    /// DNS experiment raw data.
    pub dns_data: DnsDataset,
    /// DNS analysis.
    pub dns: analysis::dns::DnsAnalysis,
    /// HTTP experiment raw data.
    pub http_data: HttpDataset,
    /// HTTP analysis.
    pub http: analysis::http::HttpAnalysis,
    /// HTTPS experiment raw data.
    pub https_data: HttpsDataset,
    /// HTTPS analysis.
    pub https: analysis::https::HttpsAnalysis,
    /// Monitoring experiment raw data.
    pub monitor_data: MonitorDataset,
    /// Monitoring analysis.
    pub monitor: analysis::monitor::MonitorAnalysis,
    /// Virtual time the study started.
    pub started: SimTime,
    /// Virtual time the study finished.
    pub finished: SimTime,
    /// Unique-node / AS / country tallies across experiments, computed
    /// against the public registry at collection time.
    pub coverage: Coverage,
}

/// Cross-experiment coverage (the Table 1 row).
#[derive(Debug, Default)]
pub struct Coverage {
    /// Unique zIDs across all experiments.
    pub nodes: usize,
    /// Unique exit ASes.
    pub ases: usize,
    /// Unique exit countries.
    pub countries: usize,
}

impl StudyReport {
    /// Unique nodes across experiments.
    pub fn unique_nodes(&self) -> usize {
        self.coverage.nodes
    }

    /// Unique ASes across experiments.
    pub fn unique_ases(&self) -> usize {
        self.coverage.ases
    }

    /// Unique countries across experiments.
    pub fn unique_countries(&self) -> usize {
        self.coverage.countries
    }
}

/// Run the full study: the DNS, HTTP, HTTPS, and monitoring experiments as
/// one overlapping wave (the paper likewise overlapped its measurement
/// windows rather than running the experiments back-to-back), then all
/// analyses.
///
/// ```
/// let mut built = worldgen::build(&worldgen::smoke_spec(7));
/// let cfg = tft_core::StudyConfig {
///     min_nodes_per_country: 5,
///     min_nodes_per_dns_server: 3,
///     ..tft_core::StudyConfig::default()
/// };
/// let report = tft_core::run_study(&mut built.world, &cfg);
/// assert!(report.dns.nodes > 100);
/// assert!(report.dns.hijacked > 0, "the smoke world plants one hijacker");
/// ```
pub fn run_study(world: &mut World, cfg: &StudyConfig) -> StudyReport {
    run_study_with(world, cfg, &ExecOptions::default())
}

/// [`run_study`] with explicit execution options (worker count): a
/// [`StudyDriver`] over `world`, run to completion, whose mutated world
/// replaces `world`.
///
/// `world` moves into the [`StudyDriver`], so its logs are never copied.
/// While the study runs, `*world` holds an evidence-free placeholder
/// ([`World::clone_without_evidence`]); if the study panics, `*world` is
/// left as that placeholder: the study-start world without its server
/// logs and billing.
///
/// The report is byte-identical for any `exec.workers`: shards and their
/// seeds are fixed by the campaign plan, and results merge in canonical
/// order regardless of which worker ran what when.
pub fn run_study_with(
    world: &mut World,
    cfg: &StudyConfig,
    exec_opts: &ExecOptions,
) -> StudyReport {
    let placeholder = world.clone_without_evidence();
    let live = std::mem::replace(world, placeholder);
    let mut driver = StudyDriver::new(live, cfg.clone(), exec_opts);
    driver.run_to_completion();
    let (report, finished) = driver.into_parts();
    *world = finished;
    report
}

/// The stages of a study, in the order [`StudyDriver::step`] runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StudyStage {
    /// The d₁/d₂ NXDOMAIN experiment.
    Dns,
    /// The four-object content-comparison experiment.
    Http,
    /// The two-phase CONNECT certificate experiment.
    Https,
    /// The unique-domain refetch experiment.
    Monitor,
    /// All analysis passes plus the coverage tally.
    Analyze,
    /// Nothing left to run; the report is available.
    Done,
}

impl StudyStage {
    /// A stable lowercase label for progress output.
    pub fn label(self) -> &'static str {
        match self {
            StudyStage::Dns => "dns",
            StudyStage::Http => "http",
            StudyStage::Https => "https",
            StudyStage::Monitor => "monitor",
            StudyStage::Analyze => "analyze",
            StudyStage::Done => "done",
        }
    }
}

/// A study as an explicit state machine: the one way a study runs.
///
/// The driver owns the world.
/// [`run_to_completion`](StudyDriver::run_to_completion), which
/// [`run_study_with`] calls, runs every pending experiment as **one** wave,
/// then the analyses. A server that wants to stream progress calls
/// [`step`](StudyDriver::step) instead, which runs exactly one stage
/// (experiment or analysis); after the last one the report is ready.
/// Both produce **byte-identical** reports at any worker count — every
/// experiment's shards fork from the same study-start snapshot and absorb
/// in the same canonical order, so splitting the wave across steps cannot
/// change a byte. The equivalence is pinned by a test.
pub struct StudyDriver {
    pub(crate) world: World,
    /// The study-start snapshot every experiment's shards fork from, taken
    /// with [`World::clone_without_evidence`]: it holds no server logs and
    /// no billing, so each shard hands back only evidence of its own.
    pub(crate) base: World,
    pub(crate) cfg: StudyConfig,
    pub(crate) workers: usize,
    pub(crate) started: SimTime,
    pub(crate) next: StudyStage,
    pub(crate) dns_data: Option<DnsDataset>,
    pub(crate) http_data: Option<HttpDataset>,
    pub(crate) https_data: Option<HttpsDataset>,
    pub(crate) monitor_data: Option<MonitorDataset>,
    pub(crate) report: Option<StudyReport>,
}

impl StudyDriver {
    /// Start a driver over `world`. No work happens until
    /// [`step`](StudyDriver::step) or
    /// [`run_to_completion`](StudyDriver::run_to_completion) is called.
    pub fn new(mut world: World, cfg: StudyConfig, exec_opts: &ExecOptions) -> StudyDriver {
        StudyDriver {
            started: world.now(),
            base: world.clone_without_evidence(),
            world,
            cfg,
            workers: exec_opts.workers,
            next: StudyStage::Dns,
            dns_data: None,
            http_data: None,
            https_data: None,
            monitor_data: None,
            report: None,
        }
    }

    /// The stage the next [`step`](StudyDriver::step) will run, or
    /// [`StudyStage::Done`] if the study is complete.
    pub fn next_stage(&self) -> StudyStage {
        self.next
    }

    /// Whether every stage has run and the report is available.
    pub fn is_done(&self) -> bool {
        self.next == StudyStage::Done
    }

    /// Run the next pending stage and return it. An experiment stage runs
    /// as a one-experiment wave. Returns [`StudyStage::Done`] (running
    /// nothing) once the study is complete.
    pub fn step(&mut self) -> StudyStage {
        let stage = self.next;
        match stage {
            StudyStage::Analyze => self.analyze(),
            StudyStage::Done => {}
            _ => self.run_experiments(1),
        }
        stage
    }

    /// Run every remaining stage: all pending experiments as one wave, so
    /// no pool barrier separates them, then the analyses.
    pub fn run_to_completion(&mut self) {
        self.run_experiments(usize::MAX);
        if self.next == StudyStage::Analyze {
            self.analyze();
        }
    }

    /// Run up to `limit` pending experiment stages as one wave forked from
    /// the study-start snapshot, file each merged dataset in its slot, and
    /// advance the stage cursor past them.
    fn run_experiments(&mut self, limit: usize) {
        let pending: Vec<Experiment> = [
            (StudyStage::Dns, Experiment::Dns(DnsExpOptions::default())),
            (StudyStage::Http, Experiment::Http),
            (StudyStage::Https, Experiment::Https),
            (StudyStage::Monitor, Experiment::Monitor),
        ]
        .into_iter()
        .filter(|(stage, _)| *stage >= self.next)
        .map(|(_, exp)| exp)
        .take(limit)
        .collect();
        if pending.is_empty() {
            return;
        }
        let wave = exec::run_wave(
            &mut self.world,
            &self.base,
            &self.cfg,
            self.workers,
            &pending,
            false,
        );
        for data in wave {
            self.next = match data {
                ExpData::Dns(d) => {
                    self.dns_data = Some(d);
                    StudyStage::Http
                }
                ExpData::Http(d) => {
                    self.http_data = Some(d);
                    StudyStage::Https
                }
                ExpData::Https(d) => {
                    self.https_data = Some(d);
                    StudyStage::Monitor
                }
                ExpData::Monitor(d) => {
                    self.monitor_data = Some(d);
                    StudyStage::Analyze
                }
            };
        }
    }

    /// The Analyze stage: run every analysis pass over the four merged
    /// datasets and assemble the report.
    fn analyze(&mut self) {
        let (Some(dns_data), Some(http_data), Some(https_data), Some(monitor_data)) = (
            self.dns_data.take(),
            self.http_data.take(),
            self.https_data.take(),
            self.monitor_data.take(),
        ) else {
            unreachable!("experiment stages run before Analyze");
        };
        let (world, cfg) = (&self.world, &self.cfg);
        // All four analysis passes (plus the coverage tally) are read-only
        // over the merged datasets and the world; run them concurrently.
        // par_map clamps workers to the task count itself and returns in
        // index order, so destructuring below is deterministic.
        let mut outs = pool::par_map(
            self.workers,
            vec![0usize, 1, 2, 3, 4],
            |which| match which {
                0 => AnalysisOut::Dns(analysis::dns::analyze(&dns_data, world, cfg)),
                1 => AnalysisOut::Http(analysis::http::analyze(&http_data, world, cfg)),
                2 => AnalysisOut::Https(analysis::https::analyze(&https_data, world, cfg)),
                3 => AnalysisOut::Monitor(analysis::monitor::analyze(&monitor_data, world, cfg)),
                _ => AnalysisOut::Coverage(coverage(
                    world,
                    &dns_data,
                    &http_data,
                    &https_data,
                    &monitor_data,
                )),
            },
        );
        let (
            Some(AnalysisOut::Coverage(coverage)),
            Some(AnalysisOut::Monitor(monitor)),
            Some(AnalysisOut::Https(https)),
            Some(AnalysisOut::Http(http)),
            Some(AnalysisOut::Dns(dns)),
        ) = (outs.pop(), outs.pop(), outs.pop(), outs.pop(), outs.pop())
        else {
            unreachable!("par_map returns results in index order");
        };

        self.report = Some(StudyReport {
            dns_data,
            dns,
            http_data,
            http,
            https_data,
            https,
            monitor_data,
            monitor,
            started: self.started,
            finished: world.now(),
            coverage,
        });
        self.next = StudyStage::Done;
    }

    /// The finished report, once [`is_done`](StudyDriver::is_done).
    pub fn report(&self) -> Option<&StudyReport> {
        self.report.as_ref()
    }

    /// Read-only access to the driven world (e.g. for billing queries).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Consume the driver, returning the report and the mutated world.
    ///
    /// # Panics
    /// Panics if the study has not run to completion — callers must drain
    /// [`step`](StudyDriver::step) (or call
    /// [`run_to_completion`](StudyDriver::run_to_completion)) first.
    pub fn into_parts(self) -> (StudyReport, World) {
        let report = self
            .report
            .expect("StudyDriver::into_parts before the study completed");
        (report, self.world)
    }
}

/// One analysis pass's output, so heterogeneous passes can share the pool.
enum AnalysisOut {
    Dns(analysis::dns::DnsAnalysis),
    Http(analysis::http::HttpAnalysis),
    Https(analysis::https::HttpsAnalysis),
    Monitor(analysis::monitor::MonitorAnalysis),
    Coverage(Coverage),
}

/// Unique-node / AS / country tallies across all four datasets.
fn coverage(
    world: &World,
    dns_data: &DnsDataset,
    http_data: &HttpDataset,
    https_data: &HttpsDataset,
    monitor_data: &MonitorDataset,
) -> Coverage {
    let mut zids: BTreeSet<ZId> = BTreeSet::new();
    let mut ases: BTreeSet<Asn> = BTreeSet::new();
    let mut countries: BTreeSet<CountryCode> = BTreeSet::new();
    let add_ip = |ip: std::net::Ipv4Addr,
                  ases: &mut BTreeSet<Asn>,
                  countries: &mut BTreeSet<CountryCode>| {
        if let Some(a) = world.registry.ip_to_asn(ip) {
            ases.insert(a);
        }
        if let Some(c) = world.registry.country_of_ip(ip) {
            countries.insert(c);
        }
    };
    for o in &dns_data.observations {
        zids.insert(o.zid);
        add_ip(o.node_ip, &mut ases, &mut countries);
    }
    for o in &http_data.observations {
        zids.insert(o.zid);
        add_ip(o.node_ip, &mut ases, &mut countries);
    }
    for o in &https_data.observations {
        zids.insert(o.zid);
        add_ip(o.exit_ip, &mut ases, &mut countries);
    }
    for o in &monitor_data.observations {
        zids.insert(o.zid);
        add_ip(o.reported_exit_ip, &mut ases, &mut countries);
    }
    Coverage {
        nodes: zids.len(),
        ases: ases.len(),
        countries: countries.len(),
    }
}

/// Render every table into one report string.
pub fn render_tables(report: &StudyReport) -> String {
    use crate::report::tables;
    let mut s = String::new();
    s.push_str(&tables::table1(report));
    s.push_str(&tables::table2(report));
    s.push_str(&tables::table3(&report.dns));
    s.push_str(&tables::table4(&report.dns));
    s.push_str(&tables::table5(&report.dns));
    s.push_str(&tables::table6(&report.http));
    s.push_str(&tables::table7(&report.http));
    s.push_str(&tables::table8(&report.https));
    s.push_str(&tables::table9(&report.monitor));
    s
}
