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
//! - [`pool`]: a scoped worker pool with fixed worker count, panic
//!   propagation (the lowest-indexed task's panic is re-raised), and
//!   deterministic in-order result collection, plus a [`pool::par_map`]
//!   helper.
//!
//! ## Why first-party
//!
//! The reproduction's whole claim is *determinism from a single seed*
//! (DESIGN.md §5). A build that needs a package registry cannot be replayed
//! hermetically; this crate replaces `rand`, `serde`/`serde_json`,
//! `proptest`, and `criterion` with implementations small enough to audit
//! and stable enough to pin golden values against. `cargo tree` over this
//! workspace shows path dependencies only.

// `deny`, not `forbid`: the one sanctioned exception is `pool`'s
// claim-by-cursor slot (a `UnsafeCell` whose exclusive-access discipline is
// documented at the type), which removes a per-task Mutex round-trip from
// the worker pool's hot path. Everything else in the crate stays safe code,
// and any new `unsafe` needs its own reviewed `#[allow]`.
#![deny(unsafe_code)]
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
pub use pool::{par_map, Pool};
pub use rng::{Rng, RngExt, SplitMix64, Xoshiro256pp};
