//! # tft-perfbench — the workspace benchmark
//!
//! Three workloads driven through the workspace's `pub` API from one
//! process: `study-paper` (what `repro` runs with no flags), `gateway-hot`
//! (a warm gateway answering from its report cache) and `gateway-churn`
//! (a gateway offered more cold studies than its virtual server can run).
//! Layers are timed only from outside, around the calls the benchmark makes
//! into each crate; see `perfbench/README.md` for the design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod gateway_churn;
pub mod gateway_hot;
pub mod gw;
pub mod report;
pub mod span;
pub mod stats;
pub mod study_paper;
pub mod trace;

use report::{Def, Outcome};
use std::time::{Duration, Instant};

/// Set-ups whose median is `setup_s`: this process's own and, after its
/// timed phase, `SETUPS - 1` more in fresh child processes.
pub const SETUPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `repro` with no flags, one study after another.
    StudyPaper,
    /// A warm gateway answering from its report cache.
    GatewayHot,
    /// A gateway offered more cold studies than it can run.
    GatewayChurn,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::StudyPaper,
        Workload::GatewayHot,
        Workload::GatewayChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StudyPaper => "study-paper",
            Workload::GatewayHot => "gateway-hot",
            Workload::GatewayChurn => "gateway-churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run this workload.
    pub fn run(self, args: &Args) -> Outcome {
        match self {
            Workload::StudyPaper => study_paper::run(args),
            Workload::GatewayHot => gateway_hot::run(args),
            Workload::GatewayChurn => gateway_churn::run(args),
        }
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// How long the timed phase runs.
    pub seconds: u64,
    /// Record spans and print per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Only set up, print this process's set-up seconds and exit: the mode
    /// of the child processes that time further set-ups.
    pub setup_only: bool,
    /// When the process started (taken first thing in `main`).
    pub started: Instant,
}

impl Args {
    /// Parse `--workload W --seed N --seconds S --trace 0|1 [--setup-only]`.
    pub fn parse(argv: &[String], started: Instant) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut setup_only = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            if flag == SETUP_ONLY {
                setup_only = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<u64>()
                            .ok()
                            .filter(|&s| s > 0)
                            .ok_or_else(bad)?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            setup_only,
            started,
        })
    }
}

/// The flag of a set-up-only child process.
const SETUP_ONLY: &str = "--setup-only";

/// Run the workload's set-up, which ends with its one untimed warm-up
/// operation, and return its result with the seconds from process start
/// (`args.started`) to now: this process's set-up time. In a
/// `--setup-only` child, print that time and exit instead.
pub fn set_up<S>(args: &Args, setup: impl FnOnce() -> S) -> (S, f64) {
    let state = setup();
    let took = args.started.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup_s {took:.9}");
        std::process::exit(0);
    }
    (state, took)
}

/// Record every end-to-end metric of an untraced run, in
/// [`report::END_TO_END`] order: `setup_s` (see [`put_setup`]), the
/// workload's throughput — `done` units of work over `host_s` host seconds,
/// measured while the host ran `slowdown` times slower than the reference
/// speed — and this process's peak memory.
pub fn put_end_to_end(
    args: &Args,
    own_setup: f64,
    (done, host_s): (usize, f64),
    slowdown: f64,
    out: &mut Outcome,
) {
    put_setup(args, own_setup, out);
    out.put_rate(
        report::THROUGHPUT_PER_S,
        done as f64 / host_s,
        slowdown,
        done,
    );
    out.put(
        report::PEAK_RSS_MIB,
        report::peak_rss_mib().unwrap_or(f64::NAN),
        1,
    );
}

/// Record `setup_s`: the median of this process's set-up time `own` and
/// those of `SETUPS - 1` fresh child processes of this program, run one
/// after another, each timed from its own start to the end of its set-up.
fn put_setup(args: &Args, own: f64, out: &mut Outcome) {
    let mut times = vec![own];
    for _ in 1..SETUPS {
        match setup_child(args) {
            Ok(t) => times.push(t),
            Err(e) => {
                out.problem(format!("set-up child: {e}"));
                times.push(f64::INFINITY);
            }
        }
    }
    println!(
        "setup_s samples {}",
        times
            .iter()
            .map(|t| format!("{t:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let n = times.len();
    let median = stats::median(&stats::sorted(times)).unwrap_or(f64::INFINITY);
    out.put(report::SETUP_S, median, n);
}

/// Run this program once as a `--setup-only` child and read its set-up
/// seconds.
fn setup_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(&exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--seconds", &args.seconds.to_string(), SETUP_ONLY])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    match last.strip_prefix("setup_s ").map(str::parse::<f64>) {
        Some(Ok(t)) if output.status.success() => Ok(t),
        _ => Err(format!(
            "exited {} with {last:?}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        )),
    }
}

/// The timed phase's clock. Operations (or rounds of them) run whole; the
/// next one starts only while at least half of the last one's time still
/// fits. Past the minimum number of operations, a run therefore overshoots
/// `--seconds` by at most half an operation; an operation longer than
/// `--seconds` runs whole.
pub struct Budget {
    start: Instant,
    limit: Duration,
    last: Duration,
    done: usize,
    min: usize,
}

impl Budget {
    /// A budget of `seconds` that always allows `min` operations.
    pub fn new(seconds: u64, min: usize) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs(seconds),
            last: Duration::ZERO,
            done: 0,
            min,
        }
    }

    /// Whether to start another operation.
    pub fn another(&self) -> bool {
        self.done < self.min || self.start.elapsed() + self.last / 2 < self.limit
    }

    /// Record that an operation that took `took` finished.
    pub fn finished(&mut self, took: Duration) {
        self.last = took;
        self.done += 1;
    }

    /// Time since the timed phase started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Print what this run measured on: the host, the toolchain and the build.
pub fn print_run_info(args: &Args, workers: usize, scale: f64, seeds: &str) {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("workload {}", args.workload.name());
    println!(
        "run seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    println!("run available_parallelism {parallelism} workers {workers} scale {scale}");
    println!("run seeds {seeds}");
    println!(
        "run rustc {:?} profile {}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    );
}

/// Write `tracer`'s spans under `perfbench/out/`, relative to the working
/// directory. A write failure is reported, not fatal: spans are a by-product.
pub fn write_spans(args: &Args, tracer: &span::Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(dir).and_then(|_| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out)?;
        std::io::Write::flush(&mut out)
    });
    match written {
        Ok(()) => println!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Print, for every parent span name, the share of its time its children
/// explain and its self time; then, for every span name whose calls were
/// replayed, the share of its median that the replayed calls' medians add
/// up to.
pub fn print_explained(tracer: &span::Tracer) {
    for p in span::parents(tracer.spans()) {
        println!(
            "explained {:<30} {:>6.1}% by children, self {:.3} ms over {} spans",
            p.name,
            p.explained() * 100.0,
            p.self_ns() as f64 / 1e6,
            p.spans
        );
    }
    for r in span::replayed(tracer.spans()) {
        let calls: Vec<String> = r
            .children
            .iter()
            .map(|(name, m)| format!("{name} {:.4}", m / 1e6))
            .collect();
        println!(
            "explained {:<30} {:>6.1}% of its median {:.4} ms over {} spans by replayed {} (ms)",
            r.name,
            r.explained() * 100.0,
            r.median_ns / 1e6,
            r.spans,
            calls.join(" + ")
        );
    }
}

/// Print the tracing overhead: `traced − untraced` for one end-to-end
/// figure, both measured in the same traced run on alternating operations.
pub fn print_overhead(def: Def, untraced: Option<f64>, traced: Option<f64>) {
    if let (Some(u), Some(t)) = (untraced, traced) {
        println!(
            "overhead {:<18} traced {t:.6} − untraced {u:.6} = {:+.6} {} ({:+.2}%)",
            def.name,
            t - u,
            def.unit,
            (t - u) / u * 100.0
        );
    }
}

/// Per-layer values of a traced run: every [`report::PER_LAYER`] metric,
/// 0 where this workload bypasses the layer.
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    /// Set `name` (which must be a per-layer metric) to `value` over
    /// `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            report::PER_LAYER.iter().any(|d| d.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, (value, samples));
    }

    /// Set `name` to the median of `samples` times `scale`, if any.
    pub fn median(&mut self, name: &'static str, samples: Vec<f64>, scale: f64) {
        let n = samples.len();
        if let Some(m) = stats::median(&stats::sorted(samples)) {
            self.set(name, m * scale, n);
        }
    }

    /// Move every per-layer metric into `out`, in `PER_LAYER` order.
    pub fn into_outcome(self, out: &mut Outcome) {
        for d in report::PER_LAYER {
            let (value, samples) = self.0.get(d.name).copied().unwrap_or((0.0, 0));
            out.put(*d, value, samples);
        }
    }
}

/// Set the per-layer median and p99 of one `Gateway::handle` call from
/// `calls`, the calls of a traced run that were not themselves traced.
pub fn put_handle_percentiles(layers: &mut Layers, calls: &stats::Hist) {
    for (def, per_mille) in [(report::HANDLE_P50_US, 500), (report::HANDLE_P99_US, 990)] {
        if let Some(ns) = calls.percentile(per_mille) {
            layers.set(def.name, ns / 1e3, calls.len());
        }
    }
}

/// Span name of one `StudyDriver` stage.
pub fn stage_span(stage: tft_core::StudyStage) -> &'static str {
    use tft_core::StudyStage;
    match stage {
        StudyStage::Dns => "tft-core.stage.dns",
        StudyStage::Http => "tft-core.stage.http",
        StudyStage::Https => "tft-core.stage.https",
        StudyStage::Monitor => "tft-core.stage.monitor",
        StudyStage::Analyze => "tft-core.stage.analyze",
        StudyStage::Done => "tft-core.stage.done",
    }
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}
