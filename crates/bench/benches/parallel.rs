//! Scaling bench for the parallel study executor (`tft_core::exec`): the
//! same scale-0.1 campaign at workers ∈ {1, 2, 4, 8, 16, 32}.
//!
//! Output is byte-identical at every worker count (asserted by the
//! workspace determinism tests); this bench measures the only thing the
//! knob is allowed to change — wall-clock. `scripts/check.sh` runs it in
//! quick mode, archives `BENCH_parallel.json` so the speedup is tracked
//! across PRs, and fails the build if the workers-8 median regresses past
//! the workers-1 median on a machine with the cores to know better.
//!
//! The binary also installs the shared counting `#[global_allocator]`
//! (see `alloc_stats`) and reports **allocations per probe** plus the
//! **live-bytes high-water mark** in the JSON `notes`. Allocs/probe is
//! the ROADMAP allocation-overhaul metric: `tft-lint`'s `hot-path-alloc`
//! pass pushes it down, `scripts/check.sh` guards it against regression,
//! and this note pins each remediation's effect in the archived
//! trajectory. Accounting runs are separate from timed runs and record
//! their per-worker-count event totals in the notes
//! (`alloc_events_workers{N}`), which doubles as evidence that the work
//! itself is worker-count-invariant: the totals include the worker pool's
//! own thread spawns and result lists, so they differ across worker counts
//! only by a few hundred events out of tens of millions. One more
//! accounting run steps a `StudyDriver` at workers 1 and records each
//! experiment's own figure (`allocs_per_probe_{dns,http,https,monitor}`).

#[path = "alloc_stats/mod.rs"]
mod alloc_stats;

use std::hint::black_box;
use substrate::bench::Harness;
use substrate::json::Json;
use tft_core::{run_study_with, ExecOptions, StudyConfig, StudyDriver, StudyReport, StudyStage};

#[global_allocator]
static GLOBAL: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

/// Worker counts the bench sweeps, for both accounting and timing.
const WORKER_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// Probes issued across all four experiments in one study run.
fn probes_issued(report: &StudyReport) -> u64 {
    (report.dns_data.samples_issued
        + report.http_data.samples_issued
        + report.https_data.samples_issued
        + report.monitor_data.samples_issued) as u64
}

fn main() {
    let mut h = Harness::new("parallel");
    let scale = 0.1;
    let cfg = StudyConfig::scaled(scale);
    // One pristine world, cloned per run: world construction is cheap
    // relative to the study, and every run must start from identical state.
    let pristine = worldgen::build(&worldgen::paper_spec(scale, 0xBE7C)).world;
    // One discarded run so the first measured worker count does not absorb
    // process-lifetime warmup (page faults, allocator growth). Quick mode
    // skips the harness's own warmup, so this keeps the comparison fair.
    {
        let mut world = pristine.clone();
        black_box(run_study_with(
            &mut world,
            &cfg,
            &ExecOptions::with_workers(1),
        ));
    }
    // Allocation accounting: one dedicated counted run per worker count,
    // all before the timed loop. The per-worker totals land in the notes —
    // numbers that differ only by the pool's own few hundred allocations
    // are direct evidence the parallel executor does the same work
    // regardless of the knob.
    for workers in WORKER_COUNTS {
        let mut world = pristine.clone();
        alloc_stats::reset();
        alloc_stats::counting_on();
        let report = run_study_with(&mut world, &cfg, &ExecOptions::with_workers(workers));
        alloc_stats::counting_off();
        let allocs = alloc_stats::total_events();
        let peak = alloc_stats::peak_bytes();
        h.note(
            &format!("alloc_events_workers{workers}"),
            Json::uint(allocs),
        );
        h.note(&format!("peak_bytes_workers{workers}"), Json::uint(peak));
        if workers == 1 {
            let probes = probes_issued(&report);
            h.note("alloc_events_single_worker_run", Json::uint(allocs));
            h.note("probes_issued", Json::uint(probes));
            h.note("peak_bytes", Json::uint(peak));
            if probes > 0 {
                let per_probe = allocs as f64 / probes as f64;
                h.note("allocs_per_probe", Json::float(per_probe));
                eprintln!("[parallel] {allocs} allocation events / {probes} probes = {per_probe:.1} allocs/probe");
            }
        }
    }
    // Per-experiment accounting: a driver stepped one stage per wave at
    // workers 1, each experiment's wave counted apart, so a regression in
    // allocs/probe names its experiment.
    let mut driver = StudyDriver::new(pristine.clone(), cfg.clone(), &ExecOptions::with_workers(1));
    let mut stage_events = Vec::new();
    while !driver.is_done() {
        alloc_stats::reset();
        alloc_stats::counting_on();
        let stage = driver.step();
        alloc_stats::counting_off();
        stage_events.push((stage, alloc_stats::total_events()));
    }
    let report = driver.report().expect("a finished driver has its report");
    for (stage, allocs) in stage_events {
        let probes = match stage {
            StudyStage::Dns => report.dns_data.samples_issued,
            StudyStage::Http => report.http_data.samples_issued,
            StudyStage::Https => report.https_data.samples_issued,
            StudyStage::Monitor => report.monitor_data.samples_issued,
            StudyStage::Analyze | StudyStage::Done => continue,
        };
        if probes > 0 {
            let per_probe = allocs as f64 / probes as f64;
            let label = stage.label();
            h.note(&format!("allocs_per_probe_{label}"), Json::float(per_probe));
            eprintln!("[parallel] {label}: {allocs} allocation events / {probes} probes = {per_probe:.1} allocs/probe");
        }
    }
    for workers in WORKER_COUNTS {
        h.bench(&format!("run_study/scale{scale}/workers{workers}"), || {
            let mut world = pristine.clone();
            black_box(run_study_with(
                &mut world,
                &cfg,
                &ExecOptions::with_workers(workers),
            ))
        });
    }
    h.finish();
}
