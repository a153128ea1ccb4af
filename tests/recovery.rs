//! Crash-recovery determinism: a study killed at *any* stage boundary and
//! restored from its serialized checkpoint must render the same report —
//! tables and data-quality annex, byte for byte — as the uninterrupted run,
//! at any worker count.

use substrate::hash::stable64;
use tft::prelude::*;
use tft::tft_core::{render_tables, StudyCheckpoint, StudyDriver, StudyStage};
use tft::worldgen::{build, smoke_spec};

const SEED: u64 = 0x5E4E;

fn smoke_cfg() -> StudyConfig {
    StudyConfig {
        min_nodes_per_country: 5,
        min_nodes_per_dns_server: 3,
        ..StudyConfig::default()
    }
}

/// The full rendered output whose bytes the recovery contract pins.
fn rendered(report: &StudyReport, cfg: &StudyConfig) -> String {
    let mut out = render_tables(report);
    out.push('\n');
    out.push_str(&render_annex(report, cfg));
    out
}

/// Uninterrupted reference run, plus a serialized checkpoint taken at every
/// stage boundary along the way (checkpointing is non-destructive, so one
/// stepwise run yields both).
fn reference_with_checkpoints(workers: usize) -> (String, Vec<(StudyStage, String)>) {
    let spec = smoke_spec(SEED);
    let built = build(&spec);
    let cfg = smoke_cfg();
    let mut driver = StudyDriver::new(
        built.world,
        cfg.clone(),
        &ExecOptions::with_workers(workers),
    );
    let mut checkpoints = Vec::new();
    while !driver.is_done() {
        let cp = driver
            .checkpoint(&spec)
            .expect("every pre-Done boundary is checkpointable");
        checkpoints.push((cp.next, cp.to_canonical_json()));
        driver.step();
    }
    let (report, _world) = driver.into_parts();
    (rendered(&report, &cfg), checkpoints)
}

#[test]
fn kill_at_every_stage_boundary_restores_byte_identical() {
    let (reference, checkpoints) = reference_with_checkpoints(1);
    let reference_digest = stable64(reference.as_bytes());
    let boundaries: Vec<StudyStage> = checkpoints.iter().map(|(s, _)| *s).collect();
    assert_eq!(
        boundaries,
        [
            StudyStage::Dns,
            StudyStage::Http,
            StudyStage::Https,
            StudyStage::Monitor,
            StudyStage::Analyze,
        ],
        "one checkpoint per stage boundary"
    );

    for (stage, json) in &checkpoints {
        // The on-disk form is all a resuming process gets.
        let cp = StudyCheckpoint::from_json_str(json).expect("persisted checkpoint parses");
        for workers in [1, 8] {
            let mut resumed = StudyDriver::restore(&cp, &ExecOptions::with_workers(workers))
                .expect("restore from pristine rebuild");
            resumed.run_to_completion();
            let (report, _world) = resumed.into_parts();
            let out = rendered(&report, &smoke_cfg());
            assert_eq!(
                stable64(out.as_bytes()),
                reference_digest,
                "killed before {stage:?}, resumed at workers={workers}: output diverged"
            );
            assert_eq!(out, reference, "digest collision without equality?");
        }
    }
}

#[test]
fn restored_world_side_effects_match_uninterrupted_run() {
    let spec = smoke_spec(SEED);
    let cfg = smoke_cfg();

    let mut straight = StudyDriver::new(
        build(&spec).world,
        cfg.clone(),
        &ExecOptions::with_workers(1),
    );
    straight.run_to_completion();
    let (_, world) = straight.into_parts();
    let (billed, log_len) = (
        world.bytes_billed(&cfg.customer),
        world.web_server().log().len(),
    );

    let mut stepped = StudyDriver::new(
        build(&spec).world,
        cfg.clone(),
        &ExecOptions::with_workers(1),
    );
    stepped.step();
    stepped.step(); // kill after HTTP: both logs and billing are non-trivial
    let json = stepped
        .checkpoint(&spec)
        .expect("checkpointable")
        .to_canonical_json();
    let cp = StudyCheckpoint::from_json_str(&json).expect("parses");
    let mut resumed = StudyDriver::restore(&cp, &ExecOptions::with_workers(8)).expect("restores");
    resumed.run_to_completion();
    let (_, world) = resumed.into_parts();
    assert_eq!(
        world.bytes_billed(&cfg.customer),
        billed,
        "billing diverged"
    );
    assert_eq!(
        world.web_server().log().len(),
        log_len,
        "server log diverged"
    );
}
