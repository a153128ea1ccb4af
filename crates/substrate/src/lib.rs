//! # substrate — first-party low-level infrastructure
//!
//! Everything below the simulation that would conventionally come from an
//! external crate, rebuilt in-tree so the whole workspace compiles and tests
//! **with zero network access**:
//!
//! - [`rng`]: deterministic randomness — splitmix64 seeding, a
//!   xoshiro256++ core generator, and the [`rng::Rng`]/[`rng::RngExt`]
//!   trait pair the rest of the workspace consumes (uniform ints/floats,
//!   ranges, booleans, shuffling, weighted choice);
//! - [`json`]: a small JSON value model, strict parser, compact/pretty
//!   printers, and the [`json::ToJson`]/[`json::FromJson`] trait pair plus
//!   the [`json_struct!`]/[`json_enum!`] derive macros;
//! - [`hash`]: a stable 64-bit content hash (FNV-1a + splitmix64 finish)
//!   with pinned golden values, for content-addressed cache keys;
//! - [`qc`]: a seeded property-testing mini-framework — composable
//!   generators, configurable case counts, input shrinking, and
//!   failure-seed replay;
//! - [`mod@bench`]: a warmup+samples micro-benchmark harness reporting
//!   min/median/p95 per benchmark with machine-readable JSON output;
//! - [`pool`]: one safe function, [`pool::par_map`], that maps a task
//!   over items on a fixed number of scoped worker threads, with panic
//!   propagation (the lowest-indexed task's panic is re-raised) and
//!   deterministic in-order result collection.
//!
//! ## Why first-party
//!
//! The reproduction's whole claim is *determinism from a single seed*
//! (DESIGN.md §5). A build that needs a package registry cannot be replayed
//! hermetically; this crate replaces `rand`, `serde`/`serde_json`,
//! `proptest`, and `criterion` with implementations small enough to audit
//! and stable enough to pin golden values against. `cargo tree` over this
//! workspace shows path dependencies only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod hash;
pub mod intern;
pub mod json;
pub mod pool;
pub mod qc;
pub mod rng;

pub use hash::{stable64, Hasher64};
pub use json::{FromJson, Json, JsonError, Num, ToJson};
pub use pool::par_map;
pub use rng::{Rng, RngExt, SplitMix64, Xoshiro256pp};
