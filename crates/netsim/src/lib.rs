//! # netsim — deterministic discrete-event simulation kernel
//!
//! The substrate every other crate in this workspace runs on. It provides:
//!
//! - [`time`]: virtual time ([`SimTime`], [`SimDuration`]) — wall-clock time
//!   never enters the simulation;
//! - [`sched`]: a deterministic event scheduler with stable tie-breaking;
//! - [`rng`]: splittable seeded randomness ([`SimRng`]) — one master `u64`
//!   seed reproduces an entire measurement campaign;
//! - [`latency`]: per-hop latency models for proxied request paths;
//! - [`fault`]: drop/corrupt/truncate/stall/delay fault injection (the
//!   smoltcp idiom, extended for chaos campaigns);
//! - [`campaign`]: scriptable fault campaigns — time-windowed regional
//!   outages, per-ISP/per-node profiles, flapping links;
//! - [`trace`]: structured event traces, rendered as the paper's
//!   request-timeline figures;
//! - [`stats`]: empirical CDFs and friends for the analysis layer.
//!
//! ## Why a simulator
//!
//! The paper's substrate is the live Luminati proxy network; access to it is
//! gated (commercial service, real Internet, five days of wall-clock time).
//! This kernel lets the whole ecosystem — proxy service, resolvers,
//! middleboxes, monitors — run as one deterministic program, so the paper's
//! *measurement and inference methodology* can be reproduced and scored
//! against planted ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod latency;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;
pub mod trace;

pub use campaign::{FaultCampaign, FaultProfile, FaultRule, FaultScope, FaultTarget};
pub use fault::{FaultConfigError, FaultInjector, FaultVerdict};
pub use latency::{Latency, PathLatencies};
pub use rng::SimRng;
pub use sched::{Fired, Scheduler};
pub use stats::Cdf;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceCategory, TraceEvent, TraceLog};
