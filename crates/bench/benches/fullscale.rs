//! The paper-full study at scale 1.0 — the run the allocation overhaul
//! exists to unlock — plus an unconditional smoke-scale variant so CI
//! exercises this binary on every pass.
//!
//! Two jobs per scale, at workers ∈ {1, 2, 8}:
//!
//! 1. **Proof of identity** — the rendered tables + data-quality annex
//!    must be byte-identical at every worker count (the digest is
//!    asserted here, not just noted), at full paper scale, not only the
//!    small scales the workspace tests cover.
//! 2. **Proof of feasibility** — wall-clock, the allocator's live-bytes
//!    high-water mark (`peak_bytes`, the closest deterministic proxy for
//!    peak RSS), and allocs/probe are archived in `BENCH_fullscale.json`
//!    so the scale-1.0 cost is pinned in the trajectory.
//!
//! The full run is opt-in behind `TFT_BENCH_FULLSCALE=1` (it is minutes,
//! not seconds); the smoke scale runs unconditionally. `scripts/check.sh`
//! documents both stages.

#[path = "alloc_stats/mod.rs"]
mod alloc_stats;

use substrate::bench::Harness;
use substrate::json::Json;
use tft_core::{
    render_annex, render_tables, run_study_with, ExecOptions, StudyConfig, StudyReport,
};

#[global_allocator]
static GLOBAL: alloc_stats::CountingAlloc = alloc_stats::CountingAlloc;

/// The bench clock. Wall-clock timing is this binary's purpose for the
/// scale-1.0 run (a calibrated multi-sample `Harness::bench` loop would
/// multiply a minutes-long study); simulated paths use `SimTime` only.
mod clock {
    use std::time::Instant;

    pub(super) fn now() -> Instant {
        // tft-lint: allow(no-wall-clock, reason = "bench timing is wall-clock by definition; single-shot runs are too long for the harness's calibrated sampling loop")
        Instant::now()
    }
}

/// Worker counts the identity/feasibility sweep covers.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Probes issued across all four experiments in one study run.
fn probes_issued(report: &StudyReport) -> u64 {
    (report.dns_data.samples_issued
        + report.http_data.samples_issued
        + report.https_data.samples_issued
        + report.monitor_data.samples_issued) as u64
}

/// Run the study at `scale` across [`WORKER_COUNTS`], assert the rendered
/// output is byte-identical, and note wall-clock / events / peak bytes
/// under the `label_` prefix.
fn sweep(h: &mut Harness, label: &str, scale: f64, seed: u64) {
    let cfg = StudyConfig::scaled(scale);
    let pristine = worldgen::build(&worldgen::paper_spec(scale, seed)).world;
    let mut baseline: Option<(u64, usize)> = None;
    for workers in WORKER_COUNTS {
        let mut world = pristine.clone();
        alloc_stats::reset();
        alloc_stats::counting_on();
        let t0 = clock::now();
        let report = run_study_with(&mut world, &cfg, &ExecOptions::with_workers(workers));
        let wall_ms = t0.elapsed().as_millis() as u64;
        alloc_stats::counting_off();
        let allocs = alloc_stats::total_events();
        let peak = alloc_stats::peak_bytes();
        let rendered = format!(
            "{}\n{}",
            render_tables(&report),
            render_annex(&report, &cfg)
        );
        // FNV-1a over the rendered report, so the JSON archives a
        // comparable 64-bit digest instead of megabytes of tables.
        let digest = substrate::hash::fnv1a64(rendered.as_bytes());
        match baseline {
            None => baseline = Some((digest, rendered.len())),
            Some((d, len)) => {
                assert_eq!(
                    (digest, rendered.len()),
                    (d, len),
                    "[{label}] rendered report diverged at workers={workers}"
                );
            }
        }
        h.note(
            &format!("{label}_wall_ms_workers{workers}"),
            Json::uint(wall_ms),
        );
        h.note(
            &format!("{label}_alloc_events_workers{workers}"),
            Json::uint(allocs),
        );
        h.note(
            &format!("{label}_peak_bytes_workers{workers}"),
            Json::uint(peak),
        );
        if workers == 1 {
            let probes = probes_issued(&report);
            h.note(&format!("{label}_probes_issued"), Json::uint(probes));
            h.note(&format!("{label}_peak_bytes"), Json::uint(peak));
            if probes > 0 {
                let per_probe = allocs as f64 / probes as f64;
                h.note(&format!("{label}_allocs_per_probe"), Json::float(per_probe));
                eprintln!(
                    "[fullscale:{label}] scale {scale}: {allocs} events / {probes} probes = {per_probe:.1} allocs/probe, peak {peak} bytes, {wall_ms} ms"
                );
            }
        }
    }
    let (digest, _) = baseline.expect("sweep ran at least one worker count");
    h.note(
        &format!("{label}_report_digest"),
        Json::str(format!("{digest:016x}")),
    );
    eprintln!(
        "[fullscale:{label}] report digest {digest:016x} identical at workers {WORKER_COUNTS:?}"
    );
}

fn main() {
    let mut h = Harness::new("fullscale");
    // Smoke scale: unconditional, so every CI pass proves this binary and
    // the identity assertion still work.
    sweep(&mut h, "smoke", 0.02, 0xF011);
    let full = std::env::var("TFT_BENCH_FULLSCALE")
        .map(|v| v == "1")
        .unwrap_or(false);
    h.note("fullscale_ran", Json::Bool(full));
    if full {
        // The paper-full run: scale 1.0, same seed family as the repro
        // binary's flagship configuration.
        sweep(&mut h, "full", 1.0, 0xBE7C);
    } else {
        eprintln!(
            "[fullscale] TFT_BENCH_FULLSCALE!=1: smoke scale only (set it for the scale-1.0 run)"
        );
    }
    h.finish();
}
