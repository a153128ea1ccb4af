//! Workspace invariant: the entire stack — world construction, four
//! experiments, analysis, rendering — is a pure function of (spec, seed).

use tft::prelude::*;

fn run_once(seed: u64) -> (String, usize, u64) {
    let mut built = build(&paper_spec(0.004, seed));
    let cfg = StudyConfig::scaled(0.004);
    let report = run_study(&mut built.world, &cfg);
    (
        render_tables(&report),
        report.unique_nodes(),
        built.world.bytes_billed(&cfg.customer),
    )
}

#[test]
fn identical_seeds_produce_identical_reports() {
    let a = run_once(0xD00D);
    let b = run_once(0xD00D);
    assert_eq!(a.1, b.1, "node counts differ");
    assert_eq!(a.2, b.2, "billing differs");
    assert_eq!(a.0, b.0, "rendered tables differ");
}

#[test]
fn different_seeds_produce_different_measurements() {
    let a = run_once(1);
    let b = run_once(2);
    assert_ne!(a.0, b.0, "different seeds should not collide");
}

/// The parallel executor's core invariant: worker count is a pure
/// throughput knob. The rendered tables, data-quality annex, node counts,
/// and billing must be byte-identical whether the study's wave runs on 1
/// worker or 32 — including counts far beyond the machine's cores and
/// beyond the 32 tasks of a full four-experiment wave.
#[test]
fn worker_count_never_changes_output() {
    let run_with_workers = |workers: usize| {
        let mut built = build(&paper_spec(0.004, 0x51AB));
        let cfg = StudyConfig::scaled(0.004);
        let report = run_study_with(&mut built.world, &cfg, &ExecOptions::with_workers(workers));
        (
            render_tables(&report),
            render_annex(&report, &cfg),
            report.unique_nodes(),
            built.world.bytes_billed(&cfg.customer),
            built.world.auth_server().log().len(),
            built.world.web_server().log().len(),
        )
    };
    let w1 = run_with_workers(1);
    for workers in [2usize, 8, 16, 32] {
        let w = run_with_workers(workers);
        assert_eq!(w1, w, "workers=1 vs workers={workers} diverged");
    }
}

/// Chaos does not erode determinism: a scripted fault campaign (regional
/// outage + flapping ISP + global noise) replays byte-identically at any
/// worker count — tables, data-quality annex, billing, and server logs
/// included.
#[test]
fn chaos_campaign_replays_identically_across_worker_counts() {
    let run_with_workers = |workers: usize| {
        let mut built = build(&worldgen::chaos_campaign_spec(0.004, 0xCA05));
        let cfg = StudyConfig::scaled(0.004);
        let report = run_study_with(&mut built.world, &cfg, &ExecOptions::with_workers(workers));
        (
            render_tables(&report),
            render_annex(&report, &cfg),
            report.unique_nodes(),
            built.world.bytes_billed(&cfg.customer),
            built.world.auth_server().log().len(),
            built.world.web_server().log().len(),
        )
    };
    let w1 = run_with_workers(1);
    for workers in [2usize, 8, 16] {
        let w = run_with_workers(workers);
        assert_eq!(w1, w, "chaos workers=1 vs workers={workers} diverged");
    }
}
