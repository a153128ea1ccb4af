//! # tft-core — the measurement study
//!
//! The paper's primary contribution, implemented over the simulated proxy
//! ecosystem: detect end-to-end connectivity violations in DNS, HTTP, and
//! HTTPS from >100k vantage points **without installing anything on them**,
//! using only an HTTP/S proxy service plus the logs of servers the study
//! controls.
//!
//! - [`crawl`]: country-proportional exit-node sampling with saturation
//!   detection (§3.2);
//! - [`dns_exp`]: the d₁/d₂ NXDOMAIN methodology (§4.1);
//! - [`http_exp`]: four-object content comparison with per-AS sampling
//!   (§5.1);
//! - [`https_exp`]: two-phase CONNECT certificate collection (§6.1);
//! - [`monitor_exp`]: unique-domain refetch detection (§7.1);
//! - [`analysis`]: country/ISP/public-resolver attribution, injection
//!   signatures, transcoding ratios, issuer grouping, entity
//!   fingerprinting;
//! - [`quality`]: probe-outcome taxonomy and the quarantine ledger —
//!   payloads failing integrity checks are excluded from violation
//!   analysis instead of miscounted as tampering;
//! - [`report`]: every table and figure, measured vs paper, plus the
//!   data-quality annex;
//! - [`scoring`]: precision/recall of the whole pipeline against the
//!   world's planted ground truth;
//! - [`ethics`]: the §3.4 guardrails (1 MB per node, domain allowlist),
//!   enforced mechanically.
//!
//! The code here sees only [`proxynet::World`]'s client API and the study's
//! own server logs — the same visibility the paper's authors had.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod config;
pub mod crawl;
pub mod dns_exp;
pub mod ethics;
pub mod exec;
pub mod http_exp;
pub mod https_exp;
pub mod longitudinal;
pub mod monitor_exp;
pub mod obs;
pub mod quality;
pub mod report;
pub mod scoring;
pub mod smtp_exp;
pub mod study;

pub use checkpoint::{CheckpointError, StudyCheckpoint};
pub use config::StudyConfig;
pub use crawl::Sampler;
pub use exec::ExecOptions;
pub use quality::{DataQuality, ProbeOutcome, QualityCounts};
pub use report::annex::render_annex;
pub use scoring::{score_report, ScoreCard};
pub use study::{render_tables, run_study, run_study_with, StudyDriver, StudyReport, StudyStage};
