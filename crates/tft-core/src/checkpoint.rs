//! A canonical-JSON snapshot of a [`StudyDriver`] at a stage boundary.
//!
//! [`StudyDriver::checkpoint`] records the stage cursor, the `WorldSpec`
//! the study-start world was built from, every byte of evidence the live
//! world has absorbed, and the completed datasets, and
//! [`StudyCheckpoint::to_canonical_json`] encodes them through
//! [`substrate::json`]. Nothing restores a study from it, and nothing
//! writes it to disk. It stays because the benchmark's traced gateway-churn
//! replay still seals a checkpoint after every stage and times the
//! encoding; it goes once that replay stops sealing.

use crate::config::StudyConfig;
use crate::obs::{
    CertProbe, DnsDataset, DnsObservation, DnsOutcome, HttpDataset, HttpObservation, HttpsDataset,
    HttpsObservation, MonitorDataset, MonitorObservation, ObjectResult, ProbeObject, Quarantine,
    SiteClass,
};
use crate::quality::{DataQuality, QualityCounts};
use crate::study::{StudyDriver, StudyStage};
use dnswire::QueryLogEntry;
use netsim::SimTime;
use proxynet::WebLogEntry;
use std::fmt;
use substrate::json::{FromJson, Json, JsonError, ToJson};
use substrate::{json_enum, json_struct};
use worldgen::WorldSpec;

/// A serialized stage-boundary snapshot of a [`StudyDriver`]: the spec
/// that built the study-start world, plus everything the run has absorbed
/// since.
#[derive(Debug, Clone)]
pub struct StudyCheckpoint {
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
    /// The live world's web-server log: for a spec-built world, every
    /// entry absorbed since study start.
    pub web_log: Vec<WebLogEntry>,
    /// The live world's authoritative-DNS log, likewise.
    pub auth_log: Vec<QueryLogEntry>,
    /// The live world's per-customer billing ([`proxynet::World::billing`]).
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
}

/// Why a checkpoint could not be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The study already ran to completion; its rendered report is the
    /// record to keep.
    StudyComplete,
    /// The world holds pending scheduled events (e.g. churn toggles), so
    /// its state is more than the clock, logs and billing a checkpoint
    /// records.
    PendingEvents,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::StudyComplete => {
                write!(f, "study already complete; nothing to checkpoint")
            }
            CheckpointError::PendingEvents => {
                write!(f, "world has pending scheduled events; a checkpoint requires an idle stage-boundary world")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl StudyDriver {
    /// Snapshot this driver's state at a stage boundary.
    ///
    /// `spec` must be the spec the driver's world was built from; the
    /// checkpoint records it.
    ///
    /// Non-destructive: the driver remains usable. Fails on a completed
    /// study ([`CheckpointError::StudyComplete`]) and on worlds with
    /// pending events ([`CheckpointError::PendingEvents`]).
    pub fn checkpoint(&self, spec: &WorldSpec) -> Result<StudyCheckpoint, CheckpointError> {
        if self.next == StudyStage::Done {
            return Err(CheckpointError::StudyComplete);
        }
        if !self.world.is_idle() {
            return Err(CheckpointError::PendingEvents);
        }
        Ok(StudyCheckpoint {
            spec: spec.clone(),
            cfg: self.cfg.clone(),
            started: self.started,
            now: self.world.now(),
            next: self.next,
            web_log: self.world.web_server().log().to_vec(),
            auth_log: self.world.auth_server().log().to_vec(),
            billing: self.world.billing(),
            dns_data: self.dns_data.clone(),
            http_data: self.http_data.clone(),
            https_data: self.https_data.clone(),
            monitor_data: self.monitor_data.clone(),
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
    spec,
    cfg,
    started,
    now,
    next,
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
    use crate::exec::ExecOptions;

    fn smoke_driver(spec: &WorldSpec, workers: usize) -> StudyDriver {
        let cfg = StudyConfig {
            min_nodes_per_country: 5,
            min_nodes_per_dns_server: 3,
            ..StudyConfig::default()
        };
        let world = worldgen::build(spec).world;
        StudyDriver::new(world, cfg, &ExecOptions::with_workers(workers))
    }

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
        let mut driver = smoke_driver(&spec, 1);
        driver.step(); // run the DNS stage so the checkpoint carries data
        let cp = driver.checkpoint(&spec).expect("checkpointable");
        assert_eq!(cp.next, StudyStage::Http);
        assert!(cp.dns_data.is_some());
        let json = cp.to_canonical_json();
        let back: StudyCheckpoint = substrate::json::from_str(&json).expect("parse back");
        assert_eq!(
            back.to_canonical_json(),
            json,
            "canonical JSON is a fixpoint"
        );
    }

    #[test]
    fn encoding_is_identical_at_every_boundary_and_worker_count() {
        let spec = worldgen::smoke_spec(0x5E4E);
        let encodings = |workers| {
            let mut driver = smoke_driver(&spec, workers);
            let mut out = Vec::new();
            while !driver.is_done() {
                let cp = driver
                    .checkpoint(&spec)
                    .expect("every pre-Done boundary is checkpointable");
                out.push((cp.next, cp.to_canonical_json()));
                driver.step();
            }
            out
        };
        let serial = encodings(1);
        let stages: Vec<StudyStage> = serial.iter().map(|(stage, _)| *stage).collect();
        assert_eq!(
            stages,
            [
                StudyStage::Dns,
                StudyStage::Http,
                StudyStage::Https,
                StudyStage::Monitor,
                StudyStage::Analyze,
            ],
            "one checkpoint per stage boundary"
        );
        for ((stage, one), (_, eight)) in serial.iter().zip(encodings(8)) {
            assert!(
                *one == eight,
                "checkpoint before {stage:?} differs between workers 1 and 8"
            );
        }
    }

    #[test]
    fn completed_study_refuses_to_checkpoint() {
        let spec = worldgen::smoke_spec(21);
        let mut driver = smoke_driver(&spec, 1);
        driver.run_to_completion();
        assert_eq!(
            driver.checkpoint(&spec).err(),
            Some(CheckpointError::StudyComplete)
        );
    }
}
