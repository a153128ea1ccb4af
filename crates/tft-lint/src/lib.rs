//! `tft-lint` — first-party static analysis for the workspace.
//!
//! A zero-dependency lint engine enforcing the invariants the reproduction's
//! guarantees rest on: determinism (no wall clock, no unordered iteration
//! into rendered output, disciplined seeding), panic-safety in the wire
//! parsers, and hermetic path-only manifests. See `DESIGN.md` ("The lint
//! layer") for the pass list, the allow syntax, and how to add a pass.
//!
//! ```text
//! cargo run -p tft-lint            # human diagnostics, exit 1 if any
//! cargo run -p tft-lint -- --json  # machine-readable report on stdout
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod baseline;
pub mod callgraph;
pub mod engine;
pub mod lexer;
pub mod passes;
pub mod symbols;

pub use baseline::{Baseline, BaselineEntry};
pub use engine::{
    parse_allows, workspace_files, Allow, Analysis, Diagnostic, Engine, FileKind, Pass, Report,
    SourceFile,
};

use substrate::json::Json;

/// Render a lint [`Report`] as the `LINT_report.json` document.
pub fn report_to_json(engine: &Engine, report: &Report) -> Json {
    let passes = engine
        .passes()
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("id".into(), Json::str(p.id())),
                ("description".into(), Json::str(p.description())),
            ])
        })
        .collect();
    let diagnostics = report
        .diagnostics
        .iter()
        .map(|d| {
            Json::Obj(vec![
                ("pass".into(), Json::str(d.pass.as_str())),
                ("file".into(), Json::str(d.file.as_str())),
                ("line".into(), Json::uint(u64::from(d.line))),
                ("col".into(), Json::uint(u64::from(d.col))),
                ("message".into(), Json::str(d.message.as_str())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("tool".into(), Json::str("tft-lint")),
        ("version".into(), Json::uint(2)),
        ("clean".into(), Json::Bool(report.is_clean())),
        (
            "files_scanned".into(),
            Json::uint(report.files_scanned as u64),
        ),
        ("suppressed".into(), Json::uint(report.suppressed as u64)),
        ("baselined".into(), Json::uint(report.baselined as u64)),
        ("passes".into(), Json::Arr(passes)),
        ("diagnostics".into(), Json::Arr(diagnostics)),
    ])
}
