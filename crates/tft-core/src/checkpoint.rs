//! Study checkpoint/restore: crash recovery for [`StudyDriver`].
//!
//! The paper's campaign ran for five days over a churning population; a
//! run of that scale must survive its own infrastructure dying. This module
//! serializes a [`StudyDriver`]'s resumable state — stage cursor, the
//! `WorldSpec` the study-start snapshot was built from, every byte of
//! absorbed evidence, and RNG/session watermarks — through the canonical
//! [`substrate::json`] layer as a [`StudyCheckpoint`], and rebuilds an
//! equivalent driver from it.
//!
//! ## Why restore is exact
//!
//! A stage-boundary driver in a standard (churn-free) study holds a very
//! particular world: the pristine study-start snapshot, which holds no
//! evidence, plus (a) a clock advanced by absorbed shard time, (b)
//! appended web/auth server-log entries, and (c) billing. All stage
//! randomness comes from per-shard forked RNGs derived from the study-start
//! clock (`ProbeScope::rng` in `exec`) — the live world's own RNG stream is
//! never consumed, its scheduler holds no pending events (monitor refetches
//! fire inside shard worlds), and its session table stays empty. So restore
//! is: rebuild the snapshot from the spec, advance the clock (which fires
//! nothing), splice the recorded evidence back in, and verify the RNG and
//! session watermarks match what the checkpoint pinned. Every subsequent
//! stage then forks from a byte-identical snapshot with byte-identical
//! absorbed state — the final report cannot differ from the uninterrupted
//! run's, at any worker count. Worlds with pending events (churn) refuse to
//! checkpoint rather than checkpoint wrongly.

use crate::config::StudyConfig;
use crate::exec::ExecOptions;
use crate::obs::{
    CertProbe, DnsDataset, DnsObservation, DnsOutcome, HttpDataset, HttpObservation, HttpsDataset,
    HttpsObservation, MonitorDataset, MonitorObservation, ObjectResult, ProbeObject, Quarantine,
    SiteClass,
};
use crate::quality::{DataQuality, QualityCounts};
use crate::study::{StudyDriver, StudyStage};
use dnswire::QueryLogEntry;
use netsim::SimTime;
use proxynet::{WebLogEntry, World};
use std::fmt;
use substrate::json::{FromJson, Json, JsonError, ToJson};
use substrate::{json_enum, json_struct};
use worldgen::WorldSpec;

/// Current checkpoint format version. Bumped on any incompatible change to
/// the serialized shape; restore refuses versions it does not understand.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A serialized stage-boundary snapshot of a [`StudyDriver`].
///
/// `(spec, checkpoint)` is the whole input of the remaining study: the spec
/// rebuilds the study-start world, the checkpoint replays everything the
/// interrupted run had absorbed. Round-trips through canonical JSON.
#[derive(Debug, Clone)]
pub struct StudyCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The spec the study-start snapshot was built from.
    pub spec: WorldSpec,
    /// The study's configuration.
    pub cfg: StudyConfig,
    /// Virtual time the study started (the snapshot's clock).
    pub started: SimTime,
    /// Virtual time at the checkpointed stage boundary.
    pub now: SimTime,
    /// The stage the next [`StudyDriver::step`] will run.
    pub next: StudyStage,
    /// Pinned world-RNG stream position (see [`World::rng_fingerprint`]).
    pub rng_fingerprint: u64,
    /// Pinned live-session count (see [`World::session_watermark`]).
    pub session_watermark: u64,
    /// The live world's web-server log: for a spec-built world, every
    /// entry absorbed since study start.
    pub web_log: Vec<WebLogEntry>,
    /// The live world's authoritative-DNS log, likewise.
    pub auth_log: Vec<QueryLogEntry>,
    /// The live world's per-customer billing ([`World::billing`]).
    pub billing: Vec<(String, u64)>,
    /// Completed DNS stage output, if that stage has run.
    pub dns_data: Option<DnsDataset>,
    /// Completed HTTP stage output, if that stage has run.
    pub http_data: Option<HttpDataset>,
    /// Completed HTTPS stage output, if that stage has run.
    pub https_data: Option<HttpsDataset>,
    /// Completed monitoring stage output, if that stage has run.
    pub monitor_data: Option<MonitorDataset>,
}

impl StudyCheckpoint {
    /// Render as canonical JSON (stable key order, no whitespace) — the
    /// form whose `stable64` hash identifies the checkpoint.
    pub fn to_canonical_json(&self) -> String {
        self.to_json().render_canonical()
    }

    /// Parse a checkpoint from JSON.
    pub fn from_json_str(input: &str) -> Result<StudyCheckpoint, JsonError> {
        substrate::json::from_str(input)
    }
}

/// Why a checkpoint could not be taken or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The study already ran to completion — there is nothing to resume;
    /// persist the rendered report instead.
    StudyComplete,
    /// The serialized version is not one this build understands.
    UnsupportedVersion(u32),
    /// The world holds pending scheduled events (e.g. churn toggles), so a
    /// clock-only restore would skip work. Such worlds refuse to
    /// checkpoint/restore rather than do so wrongly.
    PendingEvents,
    /// The rebuilt snapshot's clock does not match the checkpoint's
    /// recorded study start — the spec did not rebuild the same world.
    ClockMismatch {
        /// Clock recorded at study start.
        expected: SimTime,
        /// Clock of the rebuilt snapshot.
        found: SimTime,
    },
    /// The rebuilt world's RNG stream position diverged from the pinned
    /// fingerprint — the spec did not rebuild the same world.
    RngDiverged {
        /// Pinned fingerprint.
        expected: u64,
        /// Fingerprint of the rebuilt world.
        found: u64,
    },
    /// The rebuilt world's session count diverged from the pinned
    /// watermark.
    SessionDiverged {
        /// Pinned watermark.
        expected: u64,
        /// Watermark of the rebuilt world.
        found: u64,
    },
    /// The spec inside the checkpoint failed to rebuild a world.
    SpecRejected(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::StudyComplete => {
                write!(f, "study already complete; nothing to checkpoint or resume")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build understands {CHECKPOINT_VERSION})")
            }
            CheckpointError::PendingEvents => {
                write!(f, "world has pending scheduled events; checkpoint/restore requires an idle stage-boundary world")
            }
            CheckpointError::ClockMismatch { expected, found } => {
                write!(f, "rebuilt snapshot clock {found:?} does not match recorded study start {expected:?}")
            }
            CheckpointError::RngDiverged { expected, found } => {
                write!(
                    f,
                    "rebuilt world RNG fingerprint {found:#x} diverged from pinned {expected:#x}"
                )
            }
            CheckpointError::SessionDiverged { expected, found } => {
                write!(
                    f,
                    "rebuilt world session watermark {found} diverged from pinned {expected}"
                )
            }
            CheckpointError::SpecRejected(e) => write!(f, "checkpoint spec rejected: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl StudyDriver {
    /// Snapshot this driver's resumable state at a stage boundary.
    ///
    /// `spec` must be the spec the driver's world was built from — the
    /// checkpoint stores it so [`StudyDriver::restore`] can rebuild the
    /// study-start snapshot; restore verifies the rebuild against pinned
    /// RNG/session watermarks and fails loudly on mismatch.
    ///
    /// Non-destructive: the driver remains usable. Fails on a completed
    /// study ([`CheckpointError::StudyComplete`] — persist the report
    /// instead) and on worlds with pending events
    /// ([`CheckpointError::PendingEvents`]).
    pub fn checkpoint(&self, spec: &WorldSpec) -> Result<StudyCheckpoint, CheckpointError> {
        if self.next == StudyStage::Done {
            return Err(CheckpointError::StudyComplete);
        }
        if !self.world.is_idle() {
            return Err(CheckpointError::PendingEvents);
        }
        Ok(StudyCheckpoint {
            version: CHECKPOINT_VERSION,
            spec: spec.clone(),
            cfg: self.cfg.clone(),
            started: self.started,
            now: self.world.now(),
            next: self.next,
            rng_fingerprint: self.world.rng_fingerprint(),
            session_watermark: self.world.session_watermark(),
            web_log: self.world.web_server().log().to_vec(),
            auth_log: self.world.auth_server().log().to_vec(),
            billing: self.world.billing(),
            dns_data: self.dns_data.clone(),
            http_data: self.http_data.clone(),
            https_data: self.https_data.clone(),
            monitor_data: self.monitor_data.clone(),
        })
    }

    /// Rebuild a driver from a checkpoint, reconstructing the study-start
    /// snapshot with `worldgen::build` from the embedded spec.
    ///
    /// The restored driver renders a report byte-identical to the
    /// uninterrupted run's at any worker count (`exec_opts` is a pure
    /// throughput knob, exactly as at first construction).
    pub fn restore(
        cp: &StudyCheckpoint,
        exec_opts: &ExecOptions,
    ) -> Result<StudyDriver, CheckpointError> {
        let built = worldgen::build(&cp.spec);
        StudyDriver::restore_with_world(cp, built.world, exec_opts)
    }

    /// [`StudyDriver::restore`] with a caller-supplied pristine study-start
    /// world, skipping the worldgen rebuild. The world must be exactly what
    /// `worldgen::build(&cp.spec)` produces; the pinned watermarks verify as
    /// much.
    pub(crate) fn restore_with_world(
        cp: &StudyCheckpoint,
        pristine: World,
        exec_opts: &ExecOptions,
    ) -> Result<StudyDriver, CheckpointError> {
        if cp.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion(cp.version));
        }
        if cp.next == StudyStage::Done {
            return Err(CheckpointError::StudyComplete);
        }
        if !pristine.is_idle() {
            return Err(CheckpointError::PendingEvents);
        }
        if pristine.now() != cp.started {
            return Err(CheckpointError::ClockMismatch {
                expected: cp.started,
                found: pristine.now(),
            });
        }
        let mut world = pristine;
        let base = world.clone_without_evidence();
        // Advance the clock to the checkpointed boundary. The scheduler is
        // idle (checked above), so this moves time and fires nothing —
        // exactly the state the interrupted driver's world was in.
        if let Some(ahead) = cp.now.checked_since(world.now()) {
            if !ahead.is_zero() {
                world.advance(ahead);
            }
        } else {
            return Err(CheckpointError::ClockMismatch {
                expected: cp.now,
                found: world.now(),
            });
        }
        world.restore_evidence(&cp.web_log, &cp.auth_log, &cp.billing);
        let rng_found = world.rng_fingerprint();
        if rng_found != cp.rng_fingerprint {
            return Err(CheckpointError::RngDiverged {
                expected: cp.rng_fingerprint,
                found: rng_found,
            });
        }
        let sessions_found = world.session_watermark();
        if sessions_found != cp.session_watermark {
            return Err(CheckpointError::SessionDiverged {
                expected: cp.session_watermark,
                found: sessions_found,
            });
        }
        Ok(StudyDriver {
            world,
            base,
            cfg: cp.cfg.clone(),
            workers: exec_opts.workers,
            started: cp.started,
            next: cp.next,
            dns_data: cp.dns_data.clone(),
            http_data: cp.http_data.clone(),
            https_data: cp.https_data.clone(),
            monitor_data: cp.monitor_data.clone(),
            report: None,
        })
    }
}

// -- JSON codecs for the observation model -----------------------------------
//
// Kept here rather than scattered through `obs.rs`: the checkpoint is the
// only consumer of serialized observations, and the byte-payload fields use
// a hex encoding this module owns.

/// Lowercase hex of a byte payload (page bodies, modified objects) —
/// roughly half the size of a JSON number array and trivially canonical.
fn hex_of(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble < 16"));
        s.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble < 16"));
    }
    s
}

/// Inverse of [`hex_of`]; rejects odd lengths and non-hex characters.
fn hex_to_bytes(s: &str) -> Result<Vec<u8>, JsonError> {
    if !s.len().is_multiple_of(2) {
        return Err(JsonError::shape("hex payload has odd length"));
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let nibble = |d: u8| -> Result<u8, JsonError> {
            match d {
                b'0'..=b'9' => Ok(d - b'0'),
                b'a'..=b'f' => Ok(d - b'a' + 10),
                _ => Err(JsonError::shape("hex payload has non-hex character")),
            }
        };
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

impl ToJson for DnsOutcome {
    fn to_json(&self) -> Json {
        match self {
            DnsOutcome::NotHijacked => Json::Obj(vec![("hijacked".to_string(), Json::Null)]),
            DnsOutcome::Hijacked { content } => {
                Json::Obj(vec![("hijacked".to_string(), Json::Str(hex_of(content)))])
            }
        }
    }
}

impl FromJson for DnsOutcome {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.get("hijacked") {
            Some(Json::Null) => Ok(DnsOutcome::NotHijacked),
            Some(Json::Str(hex)) => Ok(DnsOutcome::Hijacked {
                content: hex_to_bytes(hex)?,
            }),
            _ => Err(JsonError::shape(
                "DnsOutcome: expected object with `hijacked` null or hex string",
            )),
        }
    }
}

impl ToJson for ObjectResult {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("object".to_string(), self.object.to_json()),
            ("original_len".to_string(), self.original_len.to_json()),
            ("received_len".to_string(), self.received_len.to_json()),
            (
                "modified_body".to_string(),
                match &self.modified_body {
                    Some(body) => Json::Str(hex_of(body)),
                    None => Json::Null,
                },
            ),
            ("quarantine".to_string(), self.quarantine.to_json()),
        ])
    }
}

impl FromJson for ObjectResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| substrate::json::missing_field("ObjectResult", name))
        };
        let modified_body = match field("modified_body")? {
            Json::Null => None,
            Json::Str(hex) => Some(hex_to_bytes(hex)?),
            other => {
                return Err(JsonError::shape(format!(
                    "ObjectResult.modified_body: expected null or hex string, got {other:?}"
                )))
            }
        };
        Ok(ObjectResult {
            object: ProbeObject::from_json(field("object")?)?,
            original_len: usize::from_json(field("original_len")?)?,
            received_len: usize::from_json(field("received_len")?)?,
            modified_body,
            quarantine: Option::<Quarantine>::from_json(field("quarantine")?)?,
        })
    }
}

json_enum!(ProbeObject {
    Html,
    Jpeg,
    Js,
    Css
});
json_enum!(Quarantine {
    Truncated,
    Inconsistent,
});
json_enum!(SiteClass {
    Popular,
    International,
    Invalid,
});
json_enum!(StudyStage {
    Dns,
    Http,
    Https,
    Monitor,
    Analyze,
    Done,
});

json_struct!(QualityCounts {
    ok,
    retried,
    retry_attempts,
    timed_out,
    truncated,
    quarantined,
    failed,
});
json_struct!(DataQuality { per_country });

json_struct!(DnsObservation {
    zid,
    node_ip,
    resolver_ip,
    country,
    outcome,
});
json_struct!(DnsDataset {
    observations,
    filtered_same_anycast,
    duplicates,
    discarded,
    samples_issued,
    quality,
});
json_struct!(HttpObservation {
    zid,
    node_ip,
    results,
});
json_struct!(HttpDataset {
    observations,
    samples_issued,
    skipped_quota,
    quality,
});
json_struct!(CertProbe { host, class, chain });
json_struct!(HttpsObservation {
    zid,
    country,
    exit_ip,
    probes,
    escalated,
});
json_struct!(HttpsDataset {
    observations,
    skipped_unranked,
    samples_issued,
    quality,
});
json_struct!(MonitorObservation {
    zid,
    reported_exit_ip,
    domain,
    own_request: None,
    unexpected,
});
json_struct!(MonitorDataset {
    observations,
    samples_issued,
    quality,
});

json_struct!(StudyConfig {
    customer,
    min_nodes_per_country,
    min_nodes_per_dns_server,
    min_nodes_per_domain,
    min_nodes_per_as,
});

json_struct!(StudyCheckpoint {
    version,
    spec,
    cfg,
    started,
    now,
    next,
    rng_fingerprint,
    session_watermark,
    web_log,
    auth_log,
    billing,
    dns_data,
    http_data,
    https_data,
    monitor_data,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips() {
        for payload in [
            vec![],
            vec![0u8],
            vec![0xde, 0xad, 0xbe, 0xef],
            (0..=255u8).collect(),
        ] {
            let hex = hex_of(&payload);
            assert_eq!(hex_to_bytes(&hex).unwrap(), payload);
        }
        assert!(hex_to_bytes("abc").is_err(), "odd length rejected");
        assert!(hex_to_bytes("zz").is_err(), "non-hex rejected");
        assert!(hex_to_bytes("AB").is_err(), "uppercase is not canonical");
    }

    #[test]
    fn outcome_and_object_result_roundtrip() {
        let hijacked = DnsOutcome::Hijacked {
            content: b"<html>ads</html>".to_vec(),
        };
        let back: DnsOutcome =
            substrate::json::from_str(&hijacked.to_json().render_canonical()).unwrap();
        assert_eq!(back, hijacked);
        let clean: DnsOutcome =
            substrate::json::from_str(&DnsOutcome::NotHijacked.to_json().render_canonical())
                .unwrap();
        assert_eq!(clean, DnsOutcome::NotHijacked);

        let result = ObjectResult {
            object: ProbeObject::Jpeg,
            original_len: 39_000,
            received_len: 12_000,
            modified_body: Some(vec![1, 2, 3]),
            quarantine: None,
        };
        let doc = result.to_json().render_canonical();
        let back: ObjectResult = substrate::json::from_str(&doc).unwrap();
        assert_eq!(back.object, ProbeObject::Jpeg);
        assert_eq!(back.modified_body, Some(vec![1, 2, 3]));
        assert_eq!(back.quarantine, None);
    }

    #[test]
    fn checkpoint_roundtrips_through_canonical_json() {
        let spec = worldgen::smoke_spec(21);
        let world = worldgen::build(&spec).world;
        let cfg = StudyConfig {
            min_nodes_per_country: 5,
            min_nodes_per_dns_server: 3,
            ..StudyConfig::default()
        };
        let mut driver = StudyDriver::new(world, cfg, &ExecOptions::with_workers(1));
        driver.step(); // run the DNS stage so the checkpoint carries data
        let cp = driver.checkpoint(&spec).expect("checkpointable");
        assert_eq!(cp.next, StudyStage::Http);
        assert!(cp.dns_data.is_some());
        let json = cp.to_canonical_json();
        let back = StudyCheckpoint::from_json_str(&json).expect("parse back");
        assert_eq!(
            back.to_canonical_json(),
            json,
            "canonical JSON is a fixpoint"
        );
    }

    #[test]
    fn completed_study_refuses_to_checkpoint() {
        let spec = worldgen::smoke_spec(21);
        let world = worldgen::build(&spec).world;
        let cfg = StudyConfig {
            min_nodes_per_country: 5,
            min_nodes_per_dns_server: 3,
            ..StudyConfig::default()
        };
        let mut driver = StudyDriver::new(world, cfg, &ExecOptions::with_workers(1));
        driver.run_to_completion();
        assert_eq!(
            driver.checkpoint(&spec).err(),
            Some(CheckpointError::StudyComplete)
        );
    }

    #[test]
    fn restore_rejects_wrong_version_and_foreign_worlds() {
        let spec = worldgen::smoke_spec(21);
        let world = worldgen::build(&spec).world;
        let cfg = StudyConfig {
            min_nodes_per_country: 5,
            min_nodes_per_dns_server: 3,
            ..StudyConfig::default()
        };
        let driver = StudyDriver::new(world, cfg, &ExecOptions::with_workers(1));
        let cp = driver.checkpoint(&spec).unwrap();

        let mut wrong_version = cp.clone();
        wrong_version.version = CHECKPOINT_VERSION + 1;
        assert_eq!(
            StudyDriver::restore(&wrong_version, &ExecOptions::with_workers(1))
                .err()
                .expect("must reject"),
            CheckpointError::UnsupportedVersion(CHECKPOINT_VERSION + 1)
        );

        // A world built from a different spec has a different RNG stream.
        let foreign = worldgen::build(&worldgen::smoke_spec(22)).world;
        match StudyDriver::restore_with_world(&cp, foreign, &ExecOptions::with_workers(1)).err() {
            Some(CheckpointError::RngDiverged { .. }) => {}
            other => panic!("expected RngDiverged, got {other:?}"),
        }
    }
}
