//! Metric names, and the result a run prints.

use substrate::json::Json;

/// A metric definition: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// The name in `BENCHMARK.json` and in the result line.
    pub name: &'static str,
    /// The unit printed with every value.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Set-up time: process start to the first timed operation, including one
/// untimed warm-up operation; median over [`crate::SETUPS`] processes.
pub const SETUP_S: Def = def("setup_s", "s");
/// Units of work completed per host second of the timed phase: studies
/// from spec to rendered output on study-paper, requests answered on
/// gateway-hot, studies executed on gateway-churn.
pub const THROUGHPUT_PER_S: Def = def("throughput_per_s", "1/s");
/// `VmHWM` of the process at exit.
pub const PEAK_RSS_MIB: Def = def("peak_rss_mib", "MiB");

/// End-to-end metrics, printed by every untraced run of every workload, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [Def; 3] = [SETUP_S, THROUGHPUT_PER_S, PEAK_RSS_MIB];

/// Host time of one `Gateway::handle` call, median.
pub const HANDLE_P50_US: Def = def("tft-serve.gateway.handle_p50_us", "us");
/// Host time of one `Gateway::handle` call, 99th percentile.
pub const HANDLE_P99_US: Def = def("tft-serve.gateway.handle_p99_us", "us");
/// p95 of virtual time from a client's first `POST` until its study
/// completes.
pub const VIRTUAL_P95_MS: Def = def("tft-serve.gateway.virtual_p95_ms", "ms");

/// Per-layer metrics, printed by every traced run. A workload that
/// bypasses a layer reports 0 for it.
pub const PER_LAYER: &[Def] = &[
    def("worldgen.build_ms", "ms"),
    def("worldgen.spec_parse_us", "us"),
    def("tft-core.study.run_ms", "ms"),
    def("tft-core.study.ns_per_probe", "ns"),
    def("tft-core.stage.dns_ms", "ms"),
    def("tft-core.stage.http_ms", "ms"),
    def("tft-core.stage.https_ms", "ms"),
    def("tft-core.stage.monitor_ms", "ms"),
    def("tft-core.stage.analyze_ms", "ms"),
    def("tft-core.exec.stage_sum_over_wave", "ratio"),
    def("substrate.pool.speedup", "ratio"),
    def("tft-core.smtp_exp.run_ms", "ms"),
    def("tft-core.scoring.score_ms", "ms"),
    def("tft-core.report.render_ms", "ms"),
    def("tft-core.checkpoint.encode_ms", "ms"),
    def("tft-core.checkpoint.bytes", "bytes"),
    def("tft-serve.cache.address_us", "us"),
    def("tft-serve.cache.verify_us", "us"),
    def("httpwire.request_parse_us", "us"),
    def("httpwire.response_encode_us", "us"),
    def("tft-serve.gateway.hit_us", "us"),
    def("tft-serve.gateway.fetch_us", "us"),
    def("tft-serve.gateway.admit_us", "us"),
    def("tft-serve.gateway.join_us", "us"),
    def("tft-serve.gateway.shed_us", "us"),
    def("tft-serve.gateway.poll_us", "us"),
    def("tft-serve.gateway.exec_share", "ratio"),
    HANDLE_P50_US,
    HANDLE_P99_US,
    def("tft-core.study.probes", "count"),
    def("tft-core.study.probe_yield", "ratio"),
    def("tft-core.quality.failed_share", "ratio"),
    def("proxynet.bytes_billed_mib", "MiB"),
    def("tft-serve.cache.report_hit_rate", "ratio"),
    def("tft-serve.cache.world_hit_rate", "ratio"),
    def("tft-serve.gateway.studies_executed", "count"),
    def("tft-serve.gateway.worlds_built", "count"),
    def("tft-serve.gateway.joined", "count"),
    def("tft-serve.gateway.shed_share", "ratio"),
    VIRTUAL_P95_MS,
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Which metric.
    pub def: Def,
    /// The value, in the metric's unit; `throughput_per_s` at the
    /// reference speed (see [`crate::calib`]).
    pub value: f64,
    /// The value as the host clock read it.
    pub raw: f64,
    /// Samples it summarizes (1 for a count or a total).
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed (panicked, or failed their output check).
    pub failed: u64,
    /// Run-level checks that failed (digests that should agree, and so on).
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub values: Vec<Value>,
}

impl Outcome {
    /// Record a metric value.
    pub fn put(&mut self, def: Def, value: f64, samples: usize) {
        self.values.push(Value {
            def,
            value,
            raw: value,
            samples,
        });
    }

    /// Record a rate per host second measured while the host ran
    /// `slowdown` times slower than the reference speed.
    pub fn put_rate(&mut self, def: Def, raw: f64, slowdown: f64, samples: usize) {
        self.values.push(Value {
            def,
            value: raw * slowdown,
            raw,
            samples,
        });
    }

    /// Record a run-level check failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// True when no operation failed and every run-level check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.problems.is_empty()
            && self.attempted > 0
            && self.values.iter().all(|v| v.value.is_finite())
    }

    /// Print every metric with its unit and sample count, then the result
    /// line: one JSON object, the last line of standard output.
    pub fn print(&self) {
        for p in &self.problems {
            println!("check failed: {p}");
        }
        println!(
            "operations: attempted {} failed {}",
            self.attempted, self.failed
        );
        for v in &self.values {
            println!(
                "metric {:<36} {:>16} {:<6} n={:<8} raw {:.6}",
                v.def.name,
                format!("{:.6}", v.value),
                v.def.unit,
                v.samples,
                v.raw
            );
        }
        println!("{}", self.result_line());
    }

    /// The result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .values
            .iter()
            .map(|v| {
                (
                    v.def.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::float(v.value)),
                        ("unit".to_string(), Json::str(v.def.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::uint(self.attempted)),
            ("failed".to_string(), Json::uint(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put(SETUP_S, 0.25, 3);
        let doc = substrate::json::parse(&o.result_line()).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        o.failed = 1;
        assert!(!o.correct());
    }

    #[test]
    fn benchmark_json_lists_every_metric_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = substrate::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let per_layer: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
