//! # tft-bench — reproduction harness
//!
//! Shared plumbing for the `repro` binary and the Criterion benches: world
//! construction at a chosen scale, full-study execution, and rendering of
//! every table and figure with paper values alongside.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use tft_core::{render_tables, run_study, score_report, scoring, StudyConfig, StudyReport};
use worldgen::{build, paper_spec, BuiltWorld, GroundTruth};

/// Default scale for the harness: ~38k nodes, builds and runs in well under
/// a minute, keeps every table group above its threshold.
pub const DEFAULT_SCALE: f64 = 0.05;

/// One full harness run.
pub struct HarnessRun {
    /// The study's outputs.
    pub report: StudyReport,
    /// The planted truth (scoring only).
    pub truth: GroundTruth,
    /// The scorecard.
    pub card: tft_core::ScoreCard,
    /// The SMTP future-work extension's analysis.
    pub smtp: tft_core::analysis::smtp::SmtpAnalysis,
    /// Scale used.
    pub scale: f64,
    /// Seed used.
    pub seed: u64,
}

/// Build the calibrated world and run the complete study, plus the SMTP
/// future-work extension.
pub fn run_full(scale: f64, seed: u64) -> HarnessRun {
    run_full_spec(&paper_spec(scale, seed))
}

/// Run the complete study over an explicit spec (e.g. loaded from a file).
pub fn run_full_spec(spec: &worldgen::WorldSpec) -> HarnessRun {
    let BuiltWorld { mut world, truth } = build(spec);
    let cfg = StudyConfig::scaled(spec.scale);
    let report = run_study(&mut world, &cfg);
    let smtp_data = tft_core::smtp_exp::run(&mut world, &cfg);
    let smtp = tft_core::analysis::smtp::analyze(&smtp_data, &world, &cfg);
    let card = score_report(&report, &truth);
    HarnessRun {
        report,
        truth,
        card,
        smtp,
        scale: spec.scale,
        seed: spec.seed,
    }
}

/// Render the full text report: all tables, figure 5, scoring.
pub fn render_all(run: &HarnessRun) -> String {
    let mut s = format!(
        "TFT reproduction — scale {} (≈{} nodes), seed {:#x}\n",
        run.scale, run.truth.total_nodes, run.seed
    );
    s.push_str(&render_tables(&run.report));
    s.push_str(&tft_core::analysis::smtp::render(&run.smtp));
    s.push_str(&tft_core::report::figures::figure5(&run.report.monitor));
    s.push_str(&scoring::render(&run.card));
    s
}

/// Render the headline paper-vs-measured comparison as a markdown table —
/// the core of EXPERIMENTS.md, regenerated from a live run.
pub fn render_markdown(run: &HarnessRun) -> String {
    use std::fmt::Write as _;
    use worldgen::calibration::headline;
    let r = &run.report;
    let mut s = format!(
        "## Headline comparison (scale {}, seed {:#x}, {} simulated nodes)\n\n\
         | quantity | paper | measured |\n|---|---|---|\n",
        run.scale, run.seed, run.truth.total_nodes
    );
    let pct = |x: f64| format!("{:.2}%", x * 100.0);
    let rows: Vec<(&str, String, String)> = vec![
        (
            "NXDOMAIN hijack rate",
            pct(headline::DNS_HIJACK_RATE),
            pct(r.dns.hijacked as f64 / r.dns.nodes.max(1) as f64),
        ),
        (
            "hijack attribution (ISP share)",
            pct(headline::DNS_ATTRIB_ISP),
            pct(r.dns.attribution.shares().0),
        ),
        (
            "HTML modification rate",
            pct(headline::HTML_MOD_RATE),
            pct(r.http.html_modified as f64 / r.http.nodes.max(1) as f64),
        ),
        (
            "image transcoding rate",
            pct(headline::IMAGE_MOD_RATE),
            pct(r.http.image_modified as f64 / r.http.nodes.max(1) as f64),
        ),
        (
            "certificate replacement rate",
            pct(headline::CERT_REPLACE_RATE),
            pct(r.https.replaced_nodes as f64 / r.https.nodes.max(1) as f64),
        ),
        (
            "content monitoring rate",
            pct(headline::MONITOR_RATE),
            pct(r.monitor.monitored_nodes as f64 / r.monitor.nodes.max(1) as f64),
        ),
        (
            "STARTTLS stripped (extension)",
            "—".into(),
            pct(run.smtp.starttls_missing as f64 / run.smtp.nodes.max(1) as f64),
        ),
    ];
    for (name, paper, measured) in rows {
        writeln!(s, "| {name} | {paper} | {measured} |").unwrap();
    }
    writeln!(
        s,
        "\nScorecard: DNS {} / HTML {} / image {} / certs {} / monitoring {}",
        run.card.dns, run.card.http_html, run.card.http_image, run.card.https, run.card.monitor
    )
    .unwrap();
    s
}

/// Render figures 1–4 from the demonstration world.
pub fn render_timeline_figures() -> String {
    let mut world = tft_core::report::figures::demo_world();
    let mut s = String::new();
    s.push_str(&tft_core::report::figures::figure1(&mut world));
    s.push('\n');
    s.push_str(&tft_core::report::figures::figure2(&mut world));
    s.push('\n');
    s.push_str(&tft_core::report::figures::figure3(&mut world));
    s.push('\n');
    s.push_str(&tft_core::report::figures::figure4(&mut world));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_renders_everything() {
        let run = run_full(0.002, 0xB_E7C);
        assert!(run.report.dns.nodes > 300);
        let text = render_all(&run);
        for needle in [
            "Table 1",
            "Table 9",
            "STARTTLS stripping",
            "Figure 5",
            "Scoring vs planted ground truth",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
        let md = render_markdown(&run);
        assert!(md.contains("| NXDOMAIN hijack rate |"));
        assert!(md.contains("Scorecard:"));
    }

    #[test]
    fn timeline_figures_render() {
        let text = render_timeline_figures();
        for needle in [
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "hijacks NXDOMAIN",
            "certificate replaced",
            "unexpected request",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
