//! `no-unordered-iteration`: hash containers are banned workspace-wide by
//! default; keyed-lookup-only modules opt out explicitly.
//!
//! `std::collections::HashMap`/`HashSet` use `RandomState`, so iteration
//! order differs between instances even within one process. Any map that is
//! ever iterated on the way to rendered output threatens the byte-identical
//! guarantee. Rather than chase individual `.iter()` sites (easy to evade
//! via `for`, `extend`, collect, …), the pass bans the *type names*
//! outright.
//!
//! PRs 3, 4, and 6 each hand-extended the old allow-list scope
//! (`study.rs`, then `campaign.rs`, then all of `tft-serve`), which meant
//! every new crate started *outside* the net until someone remembered to
//! add it. The polarity is now inverted: every production source file is
//! in scope, and modules that use hash containers strictly as keyed
//! lookup stores (never iterated toward output) appear in [`OPT_OUTS`]
//! with a written justification — same discipline as inline allows and
//! baseline entries. Moving a file off the list (or iterating where the
//! reason says you don't) is a one-line diff that a reviewer can see.

use super::{code_indices, in_src};
use crate::engine::{Diagnostic, Pass, SourceFile};
use crate::lexer::TokKind;

/// Forbid `HashMap`/`HashSet` in production code, minus reasoned opt-outs.
pub struct NoUnorderedIteration;

/// Files allowed to use hash containers, each with the reason why their
/// usage cannot reach rendered output. Paths are workspace-relative.
pub const OPT_OUTS: [(&str, &str); 19] = [
    (
        "crates/substrate/src/intern.rs",
        "interner index: string-to-id point lookup; enumeration goes through the insertion-ordered strings Vec",
    ),
    (
        "crates/certs/src/store.rs",
        "certificate store: lookup by key only; chain output is rebuilt in issuance order",
    ),
    (
        "crates/dnswire/src/cache.rs",
        "resolver cache: point lookups by name; eviction scans are order-insensitive counters",
    ),
    (
        "crates/dnswire/src/wire.rs",
        "name-compression offset map: lookup during encode; offsets derive from write order",
    ),
    (
        "crates/inetdb/src/registry.rs",
        "AS/prefix registry: membership and point lookup only; enumeration goes through sorted Vecs",
    ),
    (
        "crates/middlebox/src/image.rs",
        "image transform memo: content-hash keyed lookup; results keyed, never enumerated",
    ),
    (
        "crates/middlebox/src/monitor.rs",
        "monitor rule index: per-domain point lookup on the request path",
    ),
    (
        "crates/netsim/src/latency.rs",
        "latency model memo: (src,dst) point lookup; samples drawn via SimRng, not iteration",
    ),
    (
        "crates/proxynet/src/servers.rs",
        "origin/server registry: host-keyed point lookup on the request path",
    ),
    (
        "crates/proxynet/src/session.rs",
        "session table: cookie-keyed point lookup; expiry sweeps collect into sorted Vecs",
    ),
    (
        "crates/proxynet/src/smtp_flow.rs",
        "mailbox index: recipient-keyed point lookup only",
    ),
    (
        "crates/proxynet/src/world.rs",
        "world wiring: host and exit lookups by id; enumeration goes through pre-sorted rosters",
    ),
    (
        "crates/tft-core/src/crawl.rs",
        "visited-set during crawl: membership test only; the frontier itself is an ordered queue",
    ),
    (
        "crates/tft-core/src/ethics.rs",
        "opt-out registry: membership test per target; never enumerated",
    ),
    (
        "crates/tft-core/src/http_exp.rs",
        "header memo: point lookup per probe; observation rows are appended in probe order",
    ),
    (
        "crates/tft-core/src/monitor_exp.rs",
        "monitor lookup tables: point lookup per probe; datasets are appended in probe order",
    ),
    (
        "crates/tft-core/src/scoring.rs",
        "ground-truth index: membership tests against truth sets; scored rows keep dataset order",
    ),
    (
        "crates/worldgen/src/build.rs",
        "build-time dedup sets: membership only; emitted entities are sorted before output",
    ),
    (
        "crates/worldgen/src/validate.rs",
        "validation dedup sets: membership/uniqueness checks only; errors are collected in input order",
    ),
];

impl Pass for NoUnorderedIteration {
    fn id(&self) -> &'static str {
        "no-unordered-iteration"
    }

    fn description(&self) -> &'static str {
        "forbid HashMap/HashSet in all production source (workspace-wide), minus \
         reasoned keyed-lookup-only opt-outs; use BTreeMap/BTreeSet or an \
         explicit sort before rendering"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        in_src(file) && !OPT_OUTS.iter().any(|&(path, _)| path == file.rel_path)
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        for idx in code_indices(file) {
            let t = &file.tokens[idx];
            if t.kind != TokKind::Ident {
                continue;
            }
            let name = t.text(&file.text);
            if name == "HashMap" || name == "HashSet" {
                let ordered = if name == "HashMap" {
                    "BTreeMap"
                } else {
                    "BTreeSet"
                };
                out.push(Diagnostic {
                    pass: self.id().into(),
                    file: file.rel_path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{name} has per-instance random iteration order and this file has no \
                         keyed-lookup-only opt-out — use {ordered}, sort before rendering, or \
                         add an opt-out with a written reason"
                    ),
                });
            }
        }
    }
}
