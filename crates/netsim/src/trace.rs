//! Structured trace log.
//!
//! The paper's Figures 1–4 are request timelines (client → super proxy →
//! exit node → origin, etc.). We reproduce them as event traces: every layer
//! appends `TraceEvent`s, and the report renderer prints the numbered
//! sequence corresponding to each figure.

use crate::time::SimTime;
use std::fmt;

/// Category of a trace event, used for filtering when rendering figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceCategory {
    /// Measurement-client actions.
    Client,
    /// Super-proxy actions.
    SuperProxy,
    /// Exit-node actions.
    ExitNode,
    /// DNS-plane actions (queries/responses at any resolver or auth server).
    Dns,
    /// HTTP-plane actions at origin servers.
    Origin,
    /// TLS-plane actions.
    Tls,
    /// Middlebox / end-host-software interference.
    Middlebox,
    /// Content-monitor refetch activity.
    Monitor,
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceCategory::Client => "client",
            TraceCategory::SuperProxy => "super-proxy",
            TraceCategory::ExitNode => "exit-node",
            TraceCategory::Dns => "dns",
            TraceCategory::Origin => "origin",
            TraceCategory::Tls => "tls",
            TraceCategory::Middlebox => "middlebox",
            TraceCategory::Monitor => "monitor",
        };
        f.write_str(s)
    }
}

/// One timestamped trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time the event occurred.
    pub at: SimTime,
    /// Which layer produced it.
    pub category: TraceCategory,
    /// Human-readable description (stable wording; figures are built from it).
    pub detail: String,
}

/// Append-only trace collector.
///
/// Tracing is opt-in: the full-scale measurement campaigns would produce
/// millions of events, so the log is disabled unless explicitly enabled for
/// a figure rendering or a debugging session.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// A disabled trace log (records nothing).
    pub fn disabled() -> Self {
        TraceLog {
            enabled: false,
            events: Vec::new(),
        }
    }

    /// An enabled trace log.
    pub fn enabled() -> Self {
        TraceLog {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Record an event (no-op when disabled).
    pub fn record(&mut self, at: SimTime, category: TraceCategory, detail: impl Into<String>) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                category,
                detail: detail.into(),
            });
        }
    }

    /// Record an event with a lazily built detail string (no-op when
    /// disabled). The closure runs only when the log is enabled, so the
    /// campaign default — tracing off — pays no formatting or allocation
    /// cost on the per-probe path. Prefer this over [`TraceLog::record`]
    /// whenever the detail involves `format!`.
    pub fn record_with(
        &mut self,
        at: SimTime,
        category: TraceCategory,
        detail: impl FnOnce() -> String,
    ) {
        if self.enabled {
            self.events.push(TraceEvent {
                at,
                category,
                detail: detail(),
            });
        }
    }

    /// All recorded events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop all recorded events.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Render the trace as a numbered timeline (the Figure 1–4 format).
    pub fn render_timeline(&self) -> String {
        let mut out = String::new();
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(&format!(
                "({}) [{:>10}] {:<12} {}\n",
                i + 1,
                e.at.to_string(),
                e.category.to_string(),
                e.detail
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::disabled();
        log.record(SimTime::EPOCH, TraceCategory::Client, "x");
        assert!(log.events().is_empty());
    }

    #[test]
    fn record_with_is_lazy_when_disabled() {
        let mut log = TraceLog::disabled();
        let mut ran = false;
        log.record_with(SimTime::EPOCH, TraceCategory::Client, || {
            ran = true;
            String::from("x")
        });
        assert!(!ran, "detail closure must not run when tracing is off");
        assert!(log.events().is_empty());

        let mut log = TraceLog::enabled();
        log.record_with(SimTime::EPOCH, TraceCategory::Client, || "on".to_string());
        assert_eq!(log.events()[0].detail, "on");
    }

    #[test]
    fn enabled_log_records_in_order() {
        let mut log = TraceLog::enabled();
        log.record(SimTime::EPOCH, TraceCategory::Client, "first");
        log.record(
            SimTime::EPOCH + SimDuration::from_millis(5),
            TraceCategory::SuperProxy,
            "second",
        );
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0].detail, "first");
        assert_eq!(log.events()[1].category, TraceCategory::SuperProxy);
    }

    #[test]
    fn timeline_is_numbered() {
        let mut log = TraceLog::enabled();
        log.record(SimTime::EPOCH, TraceCategory::Client, "hello");
        let text = log.render_timeline();
        assert!(text.starts_with("(1)"), "got: {text}");
        assert!(text.contains("hello"));
    }
}
