//! Guard: the workspace must stay hermetic — every dependency in every
//! `Cargo.toml` is a path dependency (directly or via `workspace = true`),
//! never a registry or git dependency. The build must succeed with zero
//! network access. Every library crate also forbids unsafe code.
//!
//! The rule itself lives in `tft-lint`'s `hermetic-manifests` pass (which
//! `scripts/check.sh` also runs); this test is a thin wrapper so `cargo
//! test` enforces it too, with exactly one implementation of the audit.

use std::path::Path;

#[test]
fn every_dependency_is_a_path_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations =
        tft_lint::passes::check_workspace_manifests(root).expect("workspace is readable");
    assert!(
        violations.is_empty(),
        "non-hermetic dependency declarations (must be path-only):\n{}",
        violations
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_library_crate_forbids_unsafe_code() {
    // The workspace's library code is safe by construction: no crate may
    // weaken `forbid` to `deny` and carve out an `#[allow(unsafe_code)]`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .flatten()
    {
        let lib = entry.path().join("src/lib.rs");
        if lib.is_file() {
            libs.push(lib);
        }
    }
    assert!(libs.len() > 1, "found no crate libraries under crates/");
    let mut missing: Vec<_> = libs
        .iter()
        .filter(|lib| {
            !std::fs::read_to_string(lib)
                .expect("lib.rs is readable")
                .lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]")
        })
        .collect();
    missing.sort();
    assert!(
        missing.is_empty(),
        "library crates without #![forbid(unsafe_code)]: {missing:?}"
    );
}

#[test]
fn no_proptest_regression_artifacts() {
    // proptest is gone; its regression files would be dead weight that
    // suggests the old framework is still in use.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "proptest-regressions")
                || p.to_string_lossy().ends_with(".proptest-regressions")
            {
                found.push(p);
            }
        }
    }
    assert!(found.is_empty(), "stale proptest artifacts: {found:?}");
}
