//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--scale S] [--seed N] [--table K | --figure K | --csv K | --all]
//! ```
//!
//! With no selector, prints everything: Tables 1–9, Figures 1–5, and the
//! ground-truth scorecard.

use tft_bench::{render_all, render_timeline_figures, run_full, timeline_figures, DEFAULT_SCALE};
use tft_core::report::{csv, figures, tables};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = DEFAULT_SCALE;
    let mut seed = worldgen::DEFAULT_SEED;
    let mut table: Option<u32> = None;
    let mut figure: Option<u32> = None;
    let mut csv_table: Option<u32> = None;
    let mut markdown = false;
    let mut spec_path: Option<String> = None;
    let mut export_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                scale = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --scale"));
                i += 2;
            }
            "--seed" => {
                seed = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("bad --seed"));
                i += 2;
            }
            "--table" => {
                table = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --table")),
                );
                i += 2;
            }
            "--figure" => {
                figure = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --figure")),
                );
                i += 2;
            }
            "--spec" => {
                spec_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| usage("bad --spec")),
                );
                i += 2;
            }
            "--export-spec" => {
                export_path = Some(
                    args.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| usage("bad --export-spec")),
                );
                i += 2;
            }
            "--markdown" => {
                markdown = true;
                i += 1;
            }
            "--csv" => {
                csv_table = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("bad --csv")),
                );
                i += 2;
            }
            "--all" => i += 1,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    // Figures 1–4 need no study run. Each is the one the full output
    // prints, rendered after the figures before it.
    if let Some(f @ 1..=4) = figure {
        println!("{}", timeline_figures()[f as usize - 1]);
        return;
    }

    if let Some(path) = export_path {
        let spec = worldgen::paper_spec(scale, seed);
        worldgen::save(&spec, &path).unwrap_or_else(|e| usage(&format!("export failed: {e}")));
        eprintln!("wrote calibrated spec to {path}");
        return;
    }

    let run = match spec_path {
        Some(path) => {
            eprintln!("building world from {path} and running the four experiments…");
            let spec =
                worldgen::load(&path).unwrap_or_else(|e| usage(&format!("spec load failed: {e}")));
            tft_bench::run_full_spec(&spec)
        }
        None => {
            eprintln!("building world (scale {scale}) and running the four experiments…");
            run_full(scale, seed)
        }
    };

    if markdown {
        println!("{}", tft_bench::render_markdown(&run));
        return;
    }

    if let Some(k) = csv_table {
        let out = match k {
            3 => csv::table3(&run.report.dns),
            4 => csv::table4(&run.report.dns),
            5 => csv::table5(&run.report.dns),
            6 => csv::table6(&run.report.http),
            7 => csv::table7(&run.report.http),
            8 => csv::table8(&run.report.https),
            9 => csv::table9(&run.report.monitor),
            10 => csv::smtp(&run.smtp),
            // Figure 5's raw series.
            5555 | 55 => csv::figure5(&run.report.monitor),
            _ => usage("csv exports are tables 3..=9, 10 (SMTP ext), or 55 (figure 5 series)"),
        };
        println!("{out}");
        return;
    }

    match (table, figure) {
        (Some(k), _) => {
            let out = match k {
                1 => tables::table1(&run.report),
                2 => tables::table2(&run.report),
                3 => tables::table3(&run.report.dns),
                4 => tables::table4(&run.report.dns),
                5 => tables::table5(&run.report.dns),
                6 => tables::table6(&run.report.http),
                7 => tables::table7(&run.report.http),
                8 => tables::table8(&run.report.https),
                9 => tables::table9(&run.report.monitor),
                _ => usage("tables are 1..=9"),
            };
            println!("{out}");
        }
        (None, Some(5)) => println!("{}", figures::figure5(&run.report.monitor)),
        (None, Some(_)) => usage("figures are 1..=5"),
        (None, None) => {
            println!("{}", render_all(&run));
            println!("{}", render_timeline_figures());
        }
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--scale S] [--seed N] [--table 1..9 | --figure 1..5 | --csv 3..10|55 | --markdown | --spec F | --export-spec F | --all]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
