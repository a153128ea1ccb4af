//! `repro --figure N` prints the Nth timeline figure of `repro`'s full
//! output: figures 1–4 share one demonstration world, so each timeline
//! depends on the requests the figures before it made.

use std::process::Command;

/// The figure sections of the rendered timelines, each without the blank
/// line that separates it from the next.
fn sections(full: &str) -> Vec<&str> {
    let starts: Vec<usize> = (1..=4)
        .map(|n| {
            full.find(&format!("Figure {n} — "))
                .unwrap_or_else(|| panic!("no Figure {n} header"))
        })
        .collect();
    (0..4)
        .map(|i| {
            let end = starts.get(i + 1).copied().unwrap_or(full.len());
            let section = &full[starts[i]..end];
            if i < 3 {
                section
                    .strip_suffix('\n')
                    .expect("figures are joined by a newline")
            } else {
                section
            }
        })
        .collect()
}

#[test]
fn each_figure_flag_prints_that_section_of_the_full_output() {
    let full = tft_bench::render_timeline_figures();
    for (n, section) in (1..=4).zip(sections(&full)) {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--figure", &n.to_string()])
            .output()
            .expect("repro runs");
        assert!(out.status.success(), "repro --figure {n} failed");
        let printed = String::from_utf8(out.stdout).expect("utf-8 output");
        assert_eq!(printed, format!("{section}\n"), "repro --figure {n}");
    }
}
