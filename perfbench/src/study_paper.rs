//! `study-paper`: what `repro` runs with no flags, one study after another.
//!
//! Closed loop, one caller: `run_full(DEFAULT_SCALE, seed)`, then
//! `render_all` and `render_timeline_figures`, on `ExecOptions::default()`
//! workers, over world seeds derived from the workload seed. The gateway,
//! its caches and checkpointing are never touched.

use crate::report::{self, Outcome};
use crate::span::Tracer;
use crate::{ns, trace, Args, Budget, Layers};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use substrate::stable64;
use tft_bench::{render_all, render_timeline_figures, run_full, HarnessRun, DEFAULT_SCALE};
use tft_core::{
    analysis, render_tables, run_study_with, score_report, smtp_exp, ExecOptions, ScoreCard,
    StudyConfig, StudyDriver, StudyReport,
};

/// World seeds in the list; a run cycles through them in order.
const WORLD_SEEDS: usize = 32;
/// Reference-kernel samples after each study.
const SPEED_SAMPLES: usize = 8;

/// What one study produced, as the checks see it.
struct Done {
    /// `stable64` of exactly what `repro` prints.
    digest: u64,
    /// False positives summed over the five scorecard planes.
    false_positives: usize,
}

/// What `repro` prints for `run`.
fn repro_output(run: &HarnessRun) -> String {
    format!("{}\n{}\n", render_all(run), render_timeline_figures())
}

fn false_positives(card: &ScoreCard) -> usize {
    [
        &card.dns,
        &card.http_html,
        &card.http_image,
        &card.https,
        &card.monitor,
    ]
    .iter()
    .map(|s| s.false_positives)
    .sum()
}

fn untraced(seed: u64) -> Done {
    let run = run_full(DEFAULT_SCALE, seed);
    let text = repro_output(&run);
    Done {
        digest: stable64(text.as_bytes()),
        false_positives: false_positives(&run.card),
    }
}

/// Fixed-for-a-seed facts about a traced study.
struct Facts {
    /// The study's trace id.
    id: u64,
    seed: u64,
    run_ns: f64,
    probes: usize,
    unique_nodes: usize,
    lost: usize,
    dispositions: usize,
    billed_bytes: u64,
    tables_digest: u64,
}

/// `run_full` and the rendering, call by call, each call in a span.
fn traced(tr: &mut Tracer, id: u64, seed: u64) -> (Done, Facts) {
    let root = tr.enter("study", id);
    let spec = worldgen::paper_spec(DEFAULT_SCALE, seed);
    let worldgen::BuiltWorld { mut world, truth } =
        tr.time("worldgen.build", id, || worldgen::build(&spec));
    let cfg = StudyConfig::scaled(DEFAULT_SCALE);
    let run_start = Instant::now();
    let report = tr.time("tft-core.study.run", id, || {
        run_study_with(&mut world, &cfg, &ExecOptions::default())
    });
    let run_ns = ns(run_start.elapsed());
    let smtp = tr.time("tft-core.smtp_exp.run", id, || {
        let data = smtp_exp::run(&mut world, &cfg);
        analysis::smtp::analyze(&data, &world, &cfg)
    });
    let card = tr.time("tft-core.scoring.score", id, || {
        score_report(&report, &truth)
    });
    let run = HarnessRun {
        report,
        truth,
        card,
        smtp,
        scale: DEFAULT_SCALE,
        seed,
    };
    let text = tr.time("tft-core.report.render", id, || repro_output(&run));
    tr.exit(root);

    let (probes, lost, dispositions) = probe_counts(&run.report);
    let facts = Facts {
        id,
        seed,
        run_ns,
        probes,
        unique_nodes: run.report.unique_nodes(),
        lost,
        dispositions,
        billed_bytes: world.bytes_billed(&cfg.customer),
        tables_digest: stable64(render_tables(&run.report).as_bytes()),
    };
    let done = Done {
        digest: stable64(text.as_bytes()),
        false_positives: false_positives(&run.card),
    };
    (done, facts)
}

/// Probes issued, probes lost or excluded, and all dispositions, summed
/// over the four experiments.
fn probe_counts(r: &StudyReport) -> (usize, usize, usize) {
    let issued = r.dns_data.samples_issued
        + r.http_data.samples_issued
        + r.https_data.samples_issued
        + r.monitor_data.samples_issued;
    let quality = [
        &r.dns_data.quality,
        &r.http_data.quality,
        &r.https_data.quality,
        &r.monitor_data.quality,
    ]
    .map(|q| q.totals());
    let lost = quality.iter().map(|q| q.lost()).sum();
    let total = quality.iter().map(|q| q.total()).sum();
    (issued, lost, total)
}

/// Replay one traced study's `run_study_with` twice from outside, under the
/// study's trace id: stage by stage through a `StudyDriver` at the same
/// worker count, under the replay root of `tft-core.study.run`, and whole
/// at workers 1. Both must render the traced study's tables byte for byte.
/// Returns the summed stage time and the workers-1 time.
fn replay(tr: &mut Tracer, facts: &Facts, out: &mut Outcome) -> (f64, f64) {
    let cfg = StudyConfig::scaled(DEFAULT_SCALE);
    let spec = worldgen::paper_spec(DEFAULT_SCALE, facts.seed);
    let id = facts.id;

    let world = tr.time("worldgen.build", id, || worldgen::build(&spec).world);
    let root = tr.enter("replay:tft-core.study.run", id);
    let mut driver = StudyDriver::new(world, cfg.clone(), &ExecOptions::default());
    let mut stage_ns = 0.0;
    while !driver.is_done() {
        let t = Instant::now();
        tr.time(crate::stage_span(driver.next_stage()), id, || driver.step());
        stage_ns += ns(t.elapsed());
    }
    tr.exit(root);
    let (staged, _) = driver.into_parts();
    if stable64(render_tables(&staged).as_bytes()) != facts.tables_digest {
        out.problem("stage-by-stage replay rendered different tables");
    }

    let mut world = tr.time("worldgen.build", id, || worldgen::build(&spec).world);
    let t = Instant::now();
    let serial = tr.time("substrate.pool.workers1", id, || {
        run_study_with(&mut world, &cfg, &ExecOptions::with_workers(1))
    });
    let serial_ns = ns(t.elapsed());
    if stable64(render_tables(&serial).as_bytes()) != facts.tables_digest {
        out.problem("workers-1 replay rendered different tables");
    }
    (stage_ns, serial_ns)
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let seeds = trace::study_seeds(args.seed, WORLD_SEEDS);
    let workers = ExecOptions::default().workers;
    let listed: Vec<String> = seeds.iter().map(|s| format!("{s:016x}")).collect();
    crate::print_run_info(args, workers, DEFAULT_SCALE, &listed.join(","));

    // Set-up: the only preparation a study needs is a warm process, so
    // set-up is one untimed study on a warm-up world.
    let warm_seed = trace::derive(args.seed, "warm-up", 0);
    let ((), own_setup) = crate::set_up(args, || {
        black_box(untraced(warm_seed).digest);
    });

    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    // Per kind of study (untraced, traced): studies that passed their
    // checks, and host seconds spent on all of them.
    let mut done = [0usize; 2];
    let mut spent = [0.0f64; 2];
    let mut facts: Vec<Facts> = Vec::new();
    let mut digests: std::collections::BTreeMap<u64, u64> = Default::default();
    // A traced run alternates untraced and traced studies, so it needs two.
    let mut budget = Budget::new(args.seconds, if args.trace { 2 } else { 1 });
    let mut speed = crate::calib::Speed::start(workers);
    let mut i = 0usize;
    while budget.another() {
        let seed = seeds[i % seeds.len()];
        let is_traced = args.trace && i % 2 == 1;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if is_traced {
                let (done, f) = traced(&mut tracer, i as u64, seed);
                facts.push(f);
                done
            } else {
                untraced(seed)
            }
        }));
        let took = t.elapsed();
        budget.finished(took);
        speed.sample(SPEED_SAMPLES);
        println!(
            "study {i} world {seed:016x}: {:.3} s, host slowdown so far {:.3}",
            took.as_secs_f64(),
            speed.slowdown()
        );
        out.attempted += 1;
        let ok = match result {
            Ok(d) => {
                println!(
                    "check world {seed:016x}: digest {:016x} false_positives {}",
                    d.digest, d.false_positives
                );
                if *digests.entry(seed).or_insert(d.digest) != d.digest {
                    out.problem(format!("seed {seed:016x} rendered two different outputs"));
                }
                d.false_positives == 0
            }
            Err(_) => {
                tracer = Tracer::new();
                false
            }
        };
        if ok {
            done[is_traced as usize] += 1;
        } else {
            out.failed += 1;
        }
        spent[is_traced as usize] += took.as_secs_f64();
        i += 1;
    }
    println!(
        "timed {:.3} s over {} studies",
        budget.elapsed().as_secs_f64(),
        i
    );

    if !args.trace {
        crate::put_end_to_end(
            args,
            own_setup,
            (done[0], spent[0]),
            speed.slowdown(),
            &mut out,
        );
        return out;
    }

    crate::print_overhead(
        report::THROUGHPUT_PER_S,
        Some(done[0] as f64 / spent[0]),
        Some(done[1] as f64 / spent[1]),
    );
    let mut layers = Layers::default();
    if let Some(first) = facts.first() {
        let (stage_ns, serial_ns) = replay(&mut tracer, first, &mut out);
        layers.set(
            "tft-core.exec.stage_sum_over_wave",
            stage_ns / first.run_ns,
            1,
        );
        layers.set("substrate.pool.speedup", serial_ns / first.run_ns, 1);
        layers.set("tft-core.study.probes", first.probes as f64, 1);
        layers.set(
            "tft-core.study.probe_yield",
            first.unique_nodes as f64 / first.probes.max(1) as f64,
            1,
        );
        layers.set(
            "tft-core.quality.failed_share",
            first.lost as f64 / first.dispositions.max(1) as f64,
            1,
        );
        layers.set(
            "proxynet.bytes_billed_mib",
            first.billed_bytes as f64 / (1024.0 * 1024.0),
            1,
        );
    }
    let per_probe: Vec<f64> = facts
        .iter()
        .map(|f| f.run_ns / f.probes.max(1) as f64)
        .collect();
    layers.median("tft-core.study.ns_per_probe", per_probe, 1.0);
    for (metric, span) in [
        ("worldgen.build_ms", "worldgen.build"),
        ("tft-core.study.run_ms", "tft-core.study.run"),
        ("tft-core.stage.dns_ms", "tft-core.stage.dns"),
        ("tft-core.stage.http_ms", "tft-core.stage.http"),
        ("tft-core.stage.https_ms", "tft-core.stage.https"),
        ("tft-core.stage.monitor_ms", "tft-core.stage.monitor"),
        ("tft-core.stage.analyze_ms", "tft-core.stage.analyze"),
        ("tft-core.smtp_exp.run_ms", "tft-core.smtp_exp.run"),
        ("tft-core.scoring.score_ms", "tft-core.scoring.score"),
        ("tft-core.report.render_ms", "tft-core.report.render"),
    ] {
        layers.median(metric, tracer.durations(span), 1e-6);
    }
    crate::print_explained(&tracer);
    crate::write_spans(args, &tracer);
    layers.into_outcome(&mut out);
    out
}
