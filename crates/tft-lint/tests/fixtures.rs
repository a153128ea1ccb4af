//! Self-tests: seed each forbidden pattern into an in-memory fixture and
//! prove the corresponding pass fires — and that the clean variant doesn't.
//! This is the acceptance demonstration that a PR reintroducing any banned
//! construct makes `tft-lint` (and therefore `scripts/check.sh`) fail.

use tft_lint::{Engine, SourceFile};

fn lint(files: &[SourceFile]) -> Vec<String> {
    Engine::with_default_passes()
        .run_files(files)
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}", d.pass, d.file))
        .collect()
}

#[test]
fn hashmap_in_report_fires() {
    let f = SourceFile::rust(
        "crates/tft-core/src/report/tables.rs",
        "tft-core",
        r#"
        use std::collections::HashMap;
        pub fn table(rows: HashMap<u32, String>) -> Vec<String> {
            rows.values().cloned().collect()
        }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter()
            .any(|h| h.starts_with("no-unordered-iteration:")),
        "expected no-unordered-iteration, got {hits:?}"
    );
}

#[test]
fn hashmap_in_chaos_modules_fires() {
    for (path, krate) in [
        ("crates/tft-core/src/quality.rs", "tft-core"),
        ("crates/netsim/src/campaign.rs", "netsim"),
        ("crates/proxynet/src/flows.rs", "proxynet"),
    ] {
        let f = SourceFile::rust(
            path,
            krate,
            "use std::collections::HashMap;\npub fn f(m: HashMap<u64, u64>) -> usize { m.len() }",
        );
        let hits = lint(&[f]);
        assert!(
            hits.iter()
                .any(|h| h.starts_with("no-unordered-iteration:")),
            "expected no-unordered-iteration in {path}, got {hits:?}"
        );
    }
}

#[test]
fn hashmap_anywhere_in_tft_serve_fires() {
    // The serving crate is scoped wholesale: any module, not an allow-list.
    for path in [
        "crates/tft-serve/src/cache.rs",
        "crates/tft-serve/src/gateway.rs",
        "crates/tft-serve/src/some/new/module.rs",
    ] {
        let f = SourceFile::rust(
            path,
            "tft-serve",
            "use std::collections::HashSet;\npub fn f(s: HashSet<u64>) -> usize { s.len() }",
        );
        let hits = lint(&[f]);
        assert!(
            hits.iter()
                .any(|h| h.starts_with("no-unordered-iteration:")),
            "expected no-unordered-iteration in {path}, got {hits:?}"
        );
    }
}

#[test]
fn instant_now_in_tft_serve_fires() {
    let f = SourceFile::rust(
        "crates/tft-serve/src/gateway.rs",
        "tft-serve",
        "pub fn latency_ms() -> u128 { std::time::Instant::now().elapsed().as_millis() }",
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("no-wall-clock:")),
        "expected no-wall-clock in tft-serve, got {hits:?}"
    );
}

#[test]
fn hashmap_outside_render_scope_is_fine() {
    let f = SourceFile::rust(
        "crates/netsim/src/latency.rs",
        "netsim",
        "use std::collections::HashMap;\npub fn f(m: HashMap<u32, u32>) -> usize { m.len() }",
    );
    assert!(lint(&[f]).is_empty());
}

#[test]
fn instant_now_in_netsim_fires() {
    let f = SourceFile::rust(
        "crates/netsim/src/sched.rs",
        "netsim",
        "pub fn now_ms() -> u128 { std::time::Instant::now().elapsed().as_millis() }",
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("no-wall-clock:")),
        "expected no-wall-clock, got {hits:?}"
    );
}

#[test]
fn system_time_fires_anywhere() {
    let f = SourceFile::rust(
        "crates/worldgen/src/build.rs",
        "worldgen",
        "pub fn stamp() -> std::time::SystemTime { std::time::SystemTime::now() }",
    );
    assert!(lint(&[f]).iter().any(|h| h.starts_with("no-wall-clock:")));
}

#[test]
fn unwrap_in_dnswire_parse_path_fires() {
    let f = SourceFile::rust(
        "crates/dnswire/src/wire.rs",
        "dnswire",
        "pub fn first(bytes: &[u8]) -> u8 { *bytes.first().unwrap() }",
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter()
            .any(|h| h.starts_with("no-panic-on-untrusted-bytes:")),
        "expected no-panic-on-untrusted-bytes, got {hits:?}"
    );
}

#[test]
fn slice_indexing_in_parser_fires() {
    let f = SourceFile::rust(
        "crates/httpwire/src/parse.rs",
        "httpwire",
        "pub fn third(bytes: &[u8]) -> u8 { bytes[2] }",
    );
    assert!(lint(&[f])
        .iter()
        .any(|h| h.starts_with("no-panic-on-untrusted-bytes:")));
}

#[test]
fn panic_macro_in_parser_fires() {
    let f = SourceFile::rust(
        "crates/smtpwire/src/reply.rs",
        "smtpwire",
        r#"pub fn parse(b: &[u8]) { if b.is_empty() { panic!("empty") } }"#,
    );
    assert!(lint(&[f])
        .iter()
        .any(|h| h.starts_with("no-panic-on-untrusted-bytes:")));
}

#[test]
fn panic_paths_in_tft_serve_request_path_fire() {
    // The gateway consumes raw bytes off the virtual wire, so the totality
    // contract covers the whole serving crate — any module under src/.
    for (path, body) in [
        (
            "crates/tft-serve/src/gateway.rs",
            "pub fn route(b: &[u8]) -> u8 { b[0] }",
        ),
        (
            "crates/tft-serve/src/cache.rs",
            "pub fn first(b: &[u8]) -> u8 { *b.first().unwrap() }",
        ),
        (
            "crates/tft-serve/src/some/new/module.rs",
            r#"pub fn parse(b: &[u8]) { if b.is_empty() { panic!("empty request") } }"#,
        ),
    ] {
        let f = SourceFile::rust(path, "tft-serve", body);
        let hits = lint(&[f]);
        assert!(
            hits.iter()
                .any(|h| h.starts_with("no-panic-on-untrusted-bytes:")),
            "expected no-panic-on-untrusted-bytes in {path}, got {hits:?}"
        );
    }
}

#[test]
fn unwrap_outside_parser_crates_is_fine() {
    let f = SourceFile::rust(
        "crates/tft-core/src/crawl.rs",
        "tft-core",
        "pub fn f(v: Option<u8>) -> u8 { v.unwrap() }",
    );
    assert!(lint(&[f]).is_empty());
}

#[test]
fn unwrap_in_parser_test_mod_is_exempt() {
    let f = SourceFile::rust(
        "crates/dnswire/src/wire.rs",
        "dnswire",
        r#"
        pub fn ok() {}
        #[cfg(test)]
        mod tests {
            #[test]
            fn round_trip() {
                let v: Option<u8> = Some(1);
                assert_eq!(v.unwrap(), 1);
            }
        }
        "#,
    );
    assert!(lint(&[f]).is_empty());
}

#[test]
fn trigger_inside_string_or_comment_does_not_fire() {
    let f = SourceFile::rust(
        "crates/dnswire/src/wire.rs",
        "dnswire",
        r#"
        /// Docs may say `input[0]` and `.unwrap()` and even panic!(…).
        // A comment mentioning Instant::now() is also inert.
        pub fn describe() -> &'static str {
            "call .unwrap() on bytes[0] after Instant::now()"
        }
        "#,
    );
    assert!(lint(&[f]).is_empty());
}

#[test]
fn registry_dependency_in_manifest_fires() {
    let f = SourceFile::manifest(
        "crates/evil/Cargo.toml",
        "evil",
        "[package]\nname = \"evil\"\n\n[dependencies]\nserde = { version = \"1\" }\n",
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("hermetic-manifests:")),
        "expected hermetic-manifests, got {hits:?}"
    );
}

#[test]
fn path_dependencies_are_fine() {
    let f = SourceFile::manifest(
        "crates/good/Cargo.toml",
        "good",
        "[package]\nname = \"good\"\n\n[dependencies]\nsubstrate.workspace = true\nnetsim = { path = \"../netsim\" }\n",
    );
    assert!(lint(&[f]).is_empty());
}

#[test]
fn ambient_seed_fires() {
    let f = SourceFile::rust(
        "crates/proxynet/src/world.rs",
        "proxynet",
        r#"
        use netsim::SimRng;
        pub fn rng() -> SimRng {
            SimRng::new(std::process::id() as u64)
        }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("seed-discipline:")),
        "expected seed-discipline, got {hits:?}"
    );
}

#[test]
fn hasher_randomstate_seed_fires() {
    let f = SourceFile::rust(
        "crates/proxynet/src/world.rs",
        "proxynet",
        r#"
        use netsim::SimRng;
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        pub fn rng() -> SimRng {
            SimRng::new(RandomState::new().build_hasher().finish())
        }
        "#,
    );
    assert!(lint(&[f]).iter().any(|h| h.starts_with("seed-discipline:")));
}

#[test]
fn literal_seed_is_fine() {
    let f = SourceFile::rust(
        "crates/proxynet/src/world.rs",
        "proxynet",
        "use netsim::SimRng;\npub fn rng(seed: u64) -> SimRng { SimRng::new(seed ^ 0xBE7C) }",
    );
    let hits = lint(&[f]);
    // The SystemTime::now above would also trip no-wall-clock; here nothing may.
    assert!(hits.is_empty(), "expected clean, got {hits:?}");
}

#[test]
fn reasoned_allow_suppresses_and_counts() {
    let f = SourceFile::rust(
        "crates/dnswire/src/wire.rs",
        "dnswire",
        r##"
        pub fn f(v: Option<u8>) -> u8 {
            // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "fixture: value checked by caller")
            v.unwrap()
        }
        "##,
    );
    let report = Engine::with_default_passes().run_files(&[f]);
    assert!(
        report.diagnostics.is_empty(),
        "got {:?}",
        report.diagnostics
    );
    assert_eq!(report.suppressed, 1);
}

#[test]
fn allow_without_reason_is_itself_a_diagnostic() {
    let f = SourceFile::rust(
        "crates/dnswire/src/wire.rs",
        "dnswire",
        r#"
        pub fn f(v: Option<u8>) -> u8 {
            // tft-lint: allow(no-panic-on-untrusted-bytes)
            v.unwrap()
        }
        "#,
    );
    let hits = lint(&[f]);
    // The unreasoned allow does not suppress, and is flagged itself.
    assert!(hits.iter().any(|h| h.starts_with("allow-missing-reason:")));
    assert!(hits
        .iter()
        .any(|h| h.starts_with("no-panic-on-untrusted-bytes:")));
}

#[test]
fn stale_allow_is_flagged() {
    let f = SourceFile::rust(
        "crates/netsim/src/sched.rs",
        "netsim",
        r##"
        // tft-lint: allow(no-wall-clock, reason = "nothing here actually reads the clock")
        pub fn f() {}
        "##,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("stale-allow:")),
        "got {hits:?}"
    );
}

#[test]
fn unknown_lint_id_is_flagged() {
    let f = SourceFile::rust(
        "crates/netsim/src/sched.rs",
        "netsim",
        r##"
        // tft-lint: allow(no-such-pass, reason = "typo'd id must not silently no-op")
        pub fn f() {}
        "##,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("unknown-lint-id:")),
        "got {hits:?}"
    );
}

// -- the call-graph passes ---------------------------------------------------

#[test]
fn hot_path_alloc_fires_transitively() {
    // The allocation is two calls below the annotated root.
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: hot-root — fixture probe loop
        pub fn probe_loop() { step(); }
        fn step() { leaf(); }
        fn leaf() -> String { format!("per-probe {}", 1) }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("hot-path-alloc:")),
        "got {hits:?}"
    );
}

#[test]
fn hot_path_alloc_silent_without_root_and_on_clean_variant() {
    // Same allocation, no hot-root annotation anywhere: unreachable, silent.
    let unrooted = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn cold() -> String { format!("setup {}", 1) }
        "#,
    );
    assert!(!lint(&[unrooted])
        .iter()
        .any(|h| h.starts_with("hot-path-alloc:")),);
    // Hot, but using the recommended scratch-buffer idiom: silent.
    let clean = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: hot-root — fixture probe loop
        pub fn probe_loop(scratch: &mut String, i: u32) {
            use std::fmt::Write as _;
            scratch.clear();
            let _ = write!(scratch, "probe-{i}");
        }
        "#,
    );
    assert!(!lint(&[clean])
        .iter()
        .any(|h| h.starts_with("hot-path-alloc:")),);
}

#[test]
fn hot_path_alloc_exempts_lazy_with_closures() {
    // format! inside a closure handed to a `*_with` callee only runs when
    // the guarded feature (tracing) is on — the remediated form must not
    // itself be a finding.
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: hot-root — fixture probe loop
        pub fn probe_loop(log: &mut Log, host: &str) {
            log.record_with(1, || format!("resolved {host}"));
        }
        "#,
    );
    assert!(!lint(&[f]).iter().any(|h| h.starts_with("hot-path-alloc:")),);
}

#[test]
fn pool_shared_mut_fires_on_shared_state_in_task_closure() {
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn run() {
            let out = pool::par_map(4, vec![1u64, 2], |i| {
                STATS.with(|s: &RefCell<u64>| *s.borrow_mut() += i);
                i
            });
        }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("pool-shared-mut:")),
        "got {hits:?}"
    );
}

#[test]
fn pool_shared_mut_fires_on_unforked_rng_and_captured_mut() {
    let rng = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn run(rng: &mut SimRng) {
            let out = pool::par_map(4, vec![1u64, 2], |i| {
                rng.random_range(0..i)
            });
        }
        "#,
    );
    assert!(lint(&[rng])
        .iter()
        .any(|h| h.starts_with("pool-shared-mut:")),);
    let cap = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn run(mut acc: Vec<u64>) {
            let out = pool::par_map(4, vec![1u64, 2], |i| {
                merge(&mut acc, i);
                i
            });
        }
        "#,
    );
    assert!(lint(&[cap])
        .iter()
        .any(|h| h.starts_with("pool-shared-mut:")),);
}

#[test]
fn pool_shared_mut_silent_on_forked_rng_and_owned_state() {
    // The disciplined form: per-task state moves in, RNG is forked per
    // shard — nothing crosses the boundary mutably.
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn run(rng: &SimRng, worlds: Vec<(u64, World)>) {
            let out = pool::par_map(4, worlds, |(k, mut shard_world)| {
                let mut rng = rng.fork_indexed("shard", k);
                shard_world.step(rng.random_range(0..k));
                shard_world
            });
        }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        !hits.iter().any(|h| h.starts_with("pool-shared-mut:")),
        "got {hits:?}"
    );
}

#[test]
fn unchecked_arith_fires_in_wire_reachable_fn() {
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: wire-entry — fixture decoder
        pub fn decode(buf: &[u8]) -> usize { advance(buf.len()) }
        fn advance(pos: usize) -> usize { pos + 2 }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter()
            .any(|h| h.starts_with("unchecked-arith-reachable:")),
        "got {hits:?}"
    );
}

#[test]
fn unchecked_arith_fires_on_narrowing_cast() {
    let f = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: wire-entry — fixture decoder
        pub fn decode(len: usize) -> u16 { len as u16 }
        "#,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter()
            .any(|h| h.starts_with("unchecked-arith-reachable:")),
        "got {hits:?}"
    );
}

#[test]
fn unchecked_arith_silent_on_checked_forms_and_cold_fns() {
    // checked_add + u64 widening: nothing to flag even though reachable.
    let clean = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        // tft-lint: wire-entry — fixture decoder
        pub fn decode(pos: usize, len: usize) -> Option<u64> {
            let end = pos.checked_add(len)?;
            Some(end as u64)
        }
        "#,
    );
    assert!(!lint(&[clean])
        .iter()
        .any(|h| h.starts_with("unchecked-arith-reachable:")),);
    // Unchecked arithmetic in a fn NOT reachable from any wire entry.
    let cold = SourceFile::rust(
        "crates/x/src/lib.rs",
        "x",
        r#"
        pub fn score(a: usize, b: usize) -> usize { a + b * 2 }
        "#,
    );
    assert!(!lint(&[cold])
        .iter()
        .any(|h| h.starts_with("unchecked-arith-reachable:")),);
}

#[test]
fn crate_boundary_confines_reachability() {
    // The hot root in crate `a` calls a same-named fn that exists in both a
    // dependency and an unrelated crate; only the dependency's fn is hot.
    let files = [
        SourceFile::manifest(
            "crates/a/Cargo.toml",
            "a",
            "[package]\nname = \"a\"\n[dependencies]\nb = { path = \"../b\" }\n",
        ),
        SourceFile::manifest("crates/b/Cargo.toml", "b", "[package]\nname = \"b\"\n"),
        SourceFile::manifest("crates/c/Cargo.toml", "c", "[package]\nname = \"c\"\n"),
        SourceFile::rust(
            "crates/a/src/lib.rs",
            "a",
            "// tft-lint: hot-root — fixture\npub fn probe_loop() { helper(); }",
        ),
        SourceFile::rust(
            "crates/b/src/lib.rs",
            "b",
            "pub fn helper() -> String { format!(\"dep {}\", 1) }",
        ),
        SourceFile::rust(
            "crates/c/src/lib.rs",
            "c",
            "pub fn helper() -> String { format!(\"unrelated {}\", 1) }",
        ),
    ];
    let hits = lint(&files);
    assert!(
        hits.contains(&"hot-path-alloc:crates/b/src/lib.rs".to_string()),
        "dependency edge must propagate heat, got {hits:?}"
    );
    assert!(
        !hits.contains(&"hot-path-alloc:crates/c/src/lib.rs".to_string()),
        "undeclared crate must stay cold, got {hits:?}"
    );
}

#[test]
fn inapplicable_allow_is_flagged() {
    // `hot-path-alloc` only applies under src/; an allow naming it in a
    // tests/ file can never fire there and is itself a diagnostic.
    let f = SourceFile::rust(
        "crates/x/tests/integration.rs",
        "x",
        r##"
        // tft-lint: allow(hot-path-alloc, reason = "test fixture strings")
        pub fn f() -> String { format!("x {}", 1) }
        "##,
    );
    let hits = lint(&[f]);
    assert!(
        hits.iter().any(|h| h.starts_with("inapplicable-allow:")),
        "got {hits:?}"
    );
}
