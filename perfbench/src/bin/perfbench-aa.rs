//! `perfbench-aa` — the A/A steadiness check.
//!
//! Run from the repository root, next to `BENCHMARK.json`. For each of the
//! seeds 1 to [`RUNS`] and each workload `BENCHMARK.json` lists, it runs
//! the benchmark for `run_seconds` twice, once for set A and once for set
//! B, alternating which set goes first. Then, per workload, it runs one
//! traced run on seed 1. It prints, for
//! every (workload, end-to-end metric) pair, each set's median and
//! quartiles (Python's `statistics.quantiles(values, n=4)`), the spread
//! `(q3 − q1) / median` of each set, how far set B's median moved from set
//! A's in the metric's worse direction, and the verdict against the
//! metric's bound. It also checks that every untraced run printed every
//! end-to-end metric and every traced run every per-layer metric, each in
//! its unit, and that every run of the same seed printed identical digests
//! and counts. Exits 1 if any verdict or check fails.

use std::collections::BTreeMap;
use std::process::Command;
use substrate::json::Json;
use tft_perfbench::stats;

/// Runs per set, on seeds `1..=RUNS`.
const RUNS: u64 = 10;

struct Metric {
    name: String,
    bound: f64,
    lower_is_better: bool,
}

struct Bench {
    seconds: u64,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
    /// `(name, unit)` of every end-to-end metric, then of every per-layer one.
    units: [Vec<(String, String)>; 2],
}

fn load_benchmark() -> Result<Bench, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let doc = substrate::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let text_of = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
    let metrics = list("end_to_end")
        .iter()
        .map(|m| {
            Some(Metric {
                name: text_of(m, "name")?,
                bound: m.get("bound").and_then(Json::as_f64)?,
                lower_is_better: text_of(m, "better")? == "lower",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    let units = |key: &str| {
        list(key)
            .iter()
            .filter_map(|m| Some((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Vec<_>>()
    };
    Ok(Bench {
        units: [units("end_to_end"), units("per_layer")],
        seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json: no run_seconds")?,
        workloads: list("workloads")
            .iter()
            .filter_map(|w| text_of(w, "name"))
            .collect(),
        metrics,
    })
}

/// One run's result line and `check` lines.
struct Run {
    metrics: BTreeMap<String, f64>,
    units: BTreeMap<String, String>,
    checks: Vec<(String, String)>,
    correct: bool,
}

fn run_once(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench");
    let output = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = substrate::json::parse(last)
        .map_err(|e| format!("{workload} seed {seed}: result line: {e}"))?;
    let printed = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    let field = |v: &Json, f: &str| v.get(f).cloned();
    let metrics = printed
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), field(v, "value")?.as_f64()?)))
        .collect();
    let units = printed
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), field(v, "unit")?.as_str()?.to_string())))
        .collect();
    let checks = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("check "))
        .filter_map(|l| l.split_once(": "))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    Ok(Run {
        metrics,
        units,
        checks,
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
    })
}

/// What is wrong with the metrics `run` printed, against the `(name, unit)`
/// pairs it had to print: a metric missing, in another unit, or not listed.
fn wrong_metrics(run: &Run, expected: &[(String, String)]) -> Vec<String> {
    let mut wrong: Vec<String> = expected
        .iter()
        .filter(|(name, unit)| run.units.get(name) != Some(unit))
        .map(|(name, unit)| match run.units.get(name) {
            Some(got) => format!("{name} in {got:?}, not {unit:?}"),
            None => format!("{name} missing"),
        })
        .collect();
    wrong.extend(
        run.units
            .keys()
            .filter(|k| !expected.iter().any(|(name, _)| name == *k))
            .map(|k| format!("{k} not listed")),
    );
    wrong
}

fn main() {
    let bench = load_benchmark().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let (seconds, workloads) = (bench.seconds, &bench.workloads);

    let mut failures = 0usize;
    // values[workload][set][metric] and checks[(workload, seed)][key] = values seen.
    let mut values: BTreeMap<&str, [BTreeMap<String, Vec<f64>>; 2]> = BTreeMap::new();
    let mut checks: BTreeMap<(String, u64, String), Vec<String>> = BTreeMap::new();
    let mut record = |w: &str, seed: u64, run: &Run| {
        for (k, v) in &run.checks {
            checks
                .entry((w.to_string(), seed, k.clone()))
                .or_default()
                .push(v.clone());
        }
    };
    for seed in 1..=RUNS {
        for w in workloads {
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for set in order {
                match run_once(w, seed, seconds, false) {
                    Ok(run) => {
                        eprintln!(
                            "{w} seed {seed} set {}: {}",
                            ["A", "B"][set],
                            run.metrics
                                .iter()
                                .map(|(k, v)| format!("{k}={v:.6}"))
                                .collect::<Vec<_>>()
                                .join(" ")
                        );
                        if !run.correct {
                            println!("FAIL {w} seed {seed}: output check failed");
                            failures += 1;
                        }
                        for e in wrong_metrics(&run, &bench.units[0]) {
                            println!("FAIL {w} seed {seed}: {e}");
                            failures += 1;
                        }
                        record(w, seed, &run);
                        let slot = &mut values.entry(w.as_str()).or_default()[set];
                        for (k, v) in &run.metrics {
                            slot.entry(k.clone()).or_default().push(*v);
                        }
                    }
                    Err(e) => {
                        println!("FAIL {e}");
                        failures += 1;
                    }
                }
            }
        }
    }
    for w in workloads {
        match run_once(w, 1, seconds, true) {
            Ok(run) if run.correct => {
                record(w, 1, &run);
                for e in wrong_metrics(&run, &bench.units[1]) {
                    println!("FAIL {w} seed 1 traced: {e}");
                    failures += 1;
                }
            }
            Ok(_) => {
                println!("FAIL {w} seed 1 traced: output check failed");
                failures += 1;
            }
            Err(e) => {
                println!("FAIL traced {e}");
                failures += 1;
            }
        }
    }

    println!(
        "{:<14} {:<18} {:>6} {:>14} {:>14} {:>14} {:>8} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "bound",
        "A q1",
        "A median",
        "A q3",
        "A spread",
        "B q1",
        "B median",
        "B q3",
        "B spread",
        "drift",
        "n"
    );
    for w in workloads {
        let Some(sets) = values.get(w.as_str()) else {
            continue;
        };
        for m in &bench.metrics {
            let (Some(a), Some(b)) = (sets[0].get(&m.name), sets[1].get(&m.name)) else {
                continue;
            };
            let (Some([a1, _, a3]), Some([b1, _, b3])) = (stats::quartiles(a), stats::quartiles(b))
            else {
                println!("{w:<14} {:<18} needs two runs per set", m.name);
                continue;
            };
            let (am, bm) = (
                stats::median_of(a).unwrap_or(f64::NAN),
                stats::median_of(b).unwrap_or(f64::NAN),
            );
            let (sa, sb) = ((a3 - a1) / am, (b3 - b1) / bm);
            let worse = if m.lower_is_better {
                bm / am - 1.0
            } else {
                1.0 - bm / am
            };
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let verdict = if !spread_ok || worse > m.bound || !worse.is_finite() {
                failures += 1;
                "FAIL"
            } else if sa.max(sb) < m.bound / 3.0 && worse < m.bound / 3.0 {
                "steady"
            } else {
                "pass"
            };
            println!(
                "{w:<14} {:<18} {:>6.3} {a1:>14.6} {am:>14.6} {a3:>14.6} {:>7.2}% {b1:>14.6} {bm:>14.6} {b3:>14.6} {:>7.2}% {:>+7.2}% {:>6}  {verdict}",
                m.name,
                m.bound,
                sa * 100.0,
                sb * 100.0,
                worse * 100.0,
                a.len().min(b.len()),
            );
        }
    }

    let mut differing = 0;
    for ((w, seed, key), seen) in &checks {
        if seen.iter().any(|v| v != &seen[0]) {
            differing += 1;
            println!("FAIL {w} seed {seed} {key}: runs disagree: {seen:?}");
        }
    }
    println!(
        "checks: {} digests and counts compared across runs, {differing} differ",
        checks.len()
    );
    failures += differing;
    if failures > 0 {
        println!("A/A: {failures} failures");
        std::process::exit(1);
    }
    println!("A/A: all pairs within bounds");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn a_run_must_print_exactly_the_listed_metrics_in_their_units() {
        let run = |printed: &[(&str, &str)]| Run {
            metrics: BTreeMap::new(),
            units: pairs(printed).into_iter().collect(),
            checks: Vec::new(),
            correct: true,
        };
        let listed = pairs(&[("setup_s", "s"), ("throughput_per_s", "1/s")]);
        assert!(wrong_metrics(
            &run(&[("setup_s", "s"), ("throughput_per_s", "1/s")]),
            &listed
        )
        .is_empty());
        assert_eq!(
            wrong_metrics(
                &run(&[("setup_s", "ms"), ("latency_p50_us", "us")]),
                &listed
            ),
            [
                "setup_s in \"ms\", not \"s\"",
                "throughput_per_s missing",
                "latency_p50_us not listed"
            ]
        );
    }
}
