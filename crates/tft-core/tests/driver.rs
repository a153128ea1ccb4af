//! `StudyDriver` is `run_study_with`, resumable: stepping through every
//! stage must reproduce the monolithic entry point byte-for-byte, at any
//! worker count, including the world-side effects (billing, server logs).

use tft_core::dns_exp::{self, DnsExpOptions};
use tft_core::{http_exp, https_exp, monitor_exp};
use tft_core::{
    render_tables, run_study, run_study_with, score_report, ExecOptions, StudyConfig, StudyDriver,
    StudyStage,
};
use worldgen::{build, smoke_spec};

const SEED: u64 = 0x5E4E;

fn monolithic(workers: usize) -> (String, usize, u64, usize) {
    let mut built = build(&smoke_spec(SEED));
    let cfg = smoke_cfg();
    let report = run_study_with(&mut built.world, &cfg, &ExecOptions::with_workers(workers));
    (
        render_tables(&report),
        report.unique_nodes(),
        built.world.bytes_billed(&cfg.customer),
        built.world.web_server().log().len(),
    )
}

fn smoke_cfg() -> StudyConfig {
    StudyConfig {
        min_nodes_per_country: 5,
        min_nodes_per_dns_server: 3,
        ..StudyConfig::default()
    }
}

#[test]
fn driver_visits_every_stage_in_order() {
    let built = build(&smoke_spec(SEED));
    let mut driver = StudyDriver::new(built.world, smoke_cfg(), &ExecOptions::with_workers(2));
    assert!(!driver.is_done());
    assert!(driver.report().is_none());
    let mut visited = Vec::new();
    while !driver.is_done() {
        assert_eq!(driver.next_stage(), {
            let s = driver.step();
            visited.push(s);
            s
        });
    }
    assert_eq!(
        visited,
        [
            StudyStage::Dns,
            StudyStage::Http,
            StudyStage::Https,
            StudyStage::Monitor,
            StudyStage::Analyze,
        ]
    );
    // A step past Done is a no-op, not a panic.
    assert_eq!(driver.step(), StudyStage::Done);
    assert!(driver.report().is_some());
}

#[test]
fn driver_matches_run_study_with_exactly() {
    for workers in [1, 4] {
        let built = build(&smoke_spec(SEED));
        let cfg = smoke_cfg();
        let mut driver = StudyDriver::new(
            built.world,
            cfg.clone(),
            &ExecOptions::with_workers(workers),
        );
        // One wave per stage here; `run_study_with` runs all four
        // experiments as one wave.
        while !driver.is_done() {
            driver.step();
        }
        let (report, world) = driver.into_parts();
        let stepped = (
            render_tables(&report),
            report.unique_nodes(),
            world.bytes_billed(&cfg.customer),
            world.web_server().log().len(),
        );
        assert_eq!(
            stepped,
            monolithic(workers),
            "driver diverged from run_study_with at workers={workers}"
        );
    }
}

#[test]
fn standalone_runs_return_the_study_datasets() {
    // A standalone experiment run is a one-experiment study wave, so on a
    // fresh world it returns exactly the dataset the study does.
    let cfg = smoke_cfg();
    let fresh = || build(&smoke_spec(SEED)).world;
    let standalone = [
        format!("{:?}", dns_exp::run(&mut fresh(), &cfg)),
        format!(
            "{:?}",
            dns_exp::run_with(&mut fresh(), &cfg, DnsExpOptions::default())
        ),
        format!("{:?}", http_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", https_exp::run(&mut fresh(), &cfg)),
        format!("{:?}", monitor_exp::run(&mut fresh(), &cfg)),
    ];
    for workers in [1, 4] {
        let report = run_study_with(&mut fresh(), &cfg, &ExecOptions::with_workers(workers));
        let study = [
            format!("{:?}", report.dns_data),
            format!("{:?}", report.dns_data),
            format!("{:?}", report.http_data),
            format!("{:?}", report.https_data),
            format!("{:?}", report.monitor_data),
        ];
        let names = [
            "dns_exp::run",
            "dns_exp::run_with",
            "http_exp::run",
            "https_exp::run",
            "monitor_exp::run",
        ];
        for ((name, alone), in_study) in names.iter().zip(&standalone).zip(&study) {
            assert!(
                alone == in_study,
                "{name} diverged from the study's dataset at workers={workers}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "before the study completed")]
fn into_parts_before_completion_panics() {
    let built = build(&smoke_spec(SEED));
    let driver = StudyDriver::new(built.world, smoke_cfg(), &ExecOptions::with_workers(1));
    let _ = driver.into_parts();
}

/// A study on a world that already holds one sees only its own evidence.
/// Probe names repeat from study to study, so a shard that still held the
/// first study's web log would read its requests as refetches and flag
/// clean nodes as monitored.
#[test]
fn a_second_study_on_one_world_flags_no_clean_node() {
    let mut built = build(&smoke_spec(SEED));
    let cfg = smoke_cfg();
    for study in 1..=2 {
        let report = run_study(&mut built.world, &cfg);
        let card = score_report(&report, &built.truth);
        for (experiment, score) in [
            ("dns", card.dns),
            ("https", card.https),
            ("monitoring", card.monitor),
        ] {
            assert_eq!(
                score.false_positives, 0,
                "study {study}: {experiment} flagged clean nodes ({score})"
            );
        }
    }
}
