//! Scoring: does the inference pipeline rediscover the planted ground
//! truth?
//!
//! This is the only place analysis output and [`worldgen::GroundTruth`]
//! meet. Precision/recall are computed over the nodes each experiment
//! actually measured (an unmeasured violator is out of scope, exactly as
//! in the real study).

use crate::obs::DnsOutcome;
use crate::study::StudyReport;
use proxynet::{NodeId, ZId};
use std::collections::{HashMap, HashSet};
use std::fmt;
use worldgen::GroundTruth;

/// Detection quality for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Correctly flagged nodes.
    pub true_positives: usize,
    /// Flagged nodes that are clean in ground truth.
    pub false_positives: usize,
    /// Violating measured nodes the pipeline missed.
    pub false_negatives: usize,
}

impl Score {
    /// Precision (1.0 when nothing was flagged).
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / flagged as f64
        }
    }

    /// Recall (1.0 when nothing was plantable).
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }
}

impl fmt::Display for Score {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tp={} fp={} fn={} precision={:.3} recall={:.3}",
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.precision(),
            self.recall()
        )
    }
}

/// Scores for all four experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreCard {
    /// DNS hijack detection.
    pub dns: Score,
    /// HTML modification detection (injection or block page).
    pub http_html: Score,
    /// Image transcoding detection.
    pub http_image: Score,
    /// Certificate replacement detection.
    pub https: Score,
    /// Content monitoring detection.
    pub monitor: Score,
}

/// Build the zID → ground-truth lookup (zIDs derive deterministically from
/// node ids).
fn zid_index(truth: &GroundTruth) -> HashMap<ZId, NodeId> {
    (0..truth.total_nodes as u32)
        .map(|i| (ZId::for_node(NodeId(i)), NodeId(i)))
        .collect()
}

fn score<'a>(
    measured: impl Iterator<Item = (&'a ZId, bool)>,
    truth_set: &HashSet<NodeId>,
    index: &HashMap<ZId, NodeId>,
) -> Score {
    let mut s = Score {
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
    };
    for (zid, flagged) in measured {
        let Some(node) = index.get(zid) else { continue };
        let actual = truth_set.contains(node);
        match (flagged, actual) {
            (true, true) => s.true_positives += 1,
            (true, false) => s.false_positives += 1,
            (false, true) => s.false_negatives += 1,
            (false, false) => {}
        }
    }
    s
}

/// Score a study report against the planted truth.
pub fn score_report(report: &StudyReport, truth: &GroundTruth) -> ScoreCard {
    let index = zid_index(truth);

    let dns_truth: HashSet<NodeId> = truth.dns_hijacked.keys().copied().collect();
    let dns = score(
        report
            .dns_data
            .observations
            .iter()
            .map(|o| (&o.zid, matches!(o.outcome, DnsOutcome::Hijacked { .. }))),
        &dns_truth,
        &index,
    );

    let html_truth: HashSet<NodeId> = truth
        .html_injected
        .keys()
        .chain(truth.html_blocked.iter())
        .copied()
        .collect();
    let http_html = score(
        report.http_data.observations.iter().map(|o| {
            let flagged = o
                .results
                .iter()
                .any(|r| r.object == crate::obs::ProbeObject::Html && r.is_modified());
            (&o.zid, flagged)
        }),
        &html_truth,
        &index,
    );

    let image_truth: HashSet<NodeId> = truth.image_transcoded.iter().copied().collect();
    let http_image = score(
        report.http_data.observations.iter().filter_map(|o| {
            // Only nodes whose JPEG was actually fetched count.
            let result = o
                .results
                .iter()
                .find(|r| r.object == crate::obs::ProbeObject::Jpeg)?;
            Some((&o.zid, result.is_modified()))
        }),
        &image_truth,
        &index,
    );

    let https_truth: HashSet<NodeId> = truth.tls_intercepted.keys().copied().collect();
    // Recompute per-node replacement flags the same way the analysis does:
    // any probe failing its class check. The analysis aggregates; here we
    // need per-node flags, so reuse escalation + per-probe evaluation via
    // the stored observations' `escalated` field: a node escalates exactly
    // when a phase-1 check failed, and phase-2 confirms. For scoring we use
    // "escalated" as the flag — a clean node never escalates because its
    // phase-1 chains verify.
    let https = score(
        report
            .https_data
            .observations
            .iter()
            .map(|o| (&o.zid, o.escalated)),
        &https_truth,
        &index,
    );

    let monitor_truth: HashSet<NodeId> = truth.monitored.keys().copied().collect();
    let monitor = score(
        report
            .monitor_data
            .observations
            .iter()
            .map(|o| (&o.zid, !o.unexpected.is_empty())),
        &monitor_truth,
        &index,
    );

    ScoreCard {
        dns,
        http_html,
        http_image,
        https,
        monitor,
    }
}

/// Render a scorecard.
pub fn render(card: &ScoreCard) -> String {
    format!(
        "\n=== Scoring vs planted ground truth ===\n\
         DNS hijack   : {}\n\
         HTML mod     : {}\n\
         Image mod    : {}\n\
         Cert replace : {}\n\
         Monitoring   : {}\n",
        card.dns, card.http_html, card.http_image, card.https, card.monitor
    )
}
