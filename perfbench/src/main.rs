//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints every metric with its unit and sample
//! count; the last line of standard output is the result as one JSON
//! object. Exits 1 when an output check fails, 2 on bad arguments.
//!
//! An untraced run times two more set-ups by starting itself again with
//! `--setup-only`, which sets up, prints its set-up seconds and exits. Every
//! run also starts itself with `--reference-kernel THREADS`, which serves
//! the reference kernel of `calib` until its input ends.

use std::time::Instant;
use tft_perfbench::Args;

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == tft_perfbench::calib::SERVE_FLAG {
            tft_perfbench::calib::serve(threads.parse().unwrap_or(1));
            return;
        }
    }
    let args = Args::parse(&argv, started).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: perfbench --workload study-paper|gateway-hot|gateway-churn --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let outcome = args.workload.run(&args);
    outcome.print();
    if !outcome.correct() {
        std::process::exit(1);
    }
}
