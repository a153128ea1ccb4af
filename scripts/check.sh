#!/usr/bin/env bash
# Full local CI: format, lints, tests, docs, a smoke reproduction run, and
# a quick bench pass emitting machine-readable results. Runs fully offline:
# the workspace has path-only dependencies, so no registry access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== tft-lint (workspace invariants, JSON to LINT_report.json) =="
# Fails on any diagnostic not covered by a reasoned inline allow or the
# committed baseline; the report is written either way. The baseline is a
# ratchet: counts may only go down (a drop flags the stale entry).
cargo run -q -p tft-lint -- --baseline "$PWD/LINT_baseline.json" \
  --json-out "$PWD/LINT_report.json"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace

echo "== tests (release) =="
# Debug builds carry overflow-checks, which masks exactly the class of
# release-only wrap bugs the checked arithmetic in netsim/ethics guards
# against. Run the suite once with release semantics too.
cargo test --workspace --release

echo "== chaos campaign suite (release) =="
# The scripted-fault campaigns, quarantine negative control, and chaos
# determinism tests run in the debug and release workspace passes above;
# this labeled stage re-runs the campaign suite alone so a chaos failure
# is unmistakable in CI logs.
cargo test -q --release --test chaos --test corruption_totality

echo "== perfbench against the workspace =="
# perfbench/ is its own package (own [workspace], path deps on crates/*),
# so the workspace passes above never build it. Building and testing it
# here makes a workspace API change that breaks the benchmark fail
# locally, not when the benchmark runs.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== smoke reproduction =="
cargo run -p tft-bench --bin repro --release -- --scale 0.01 --markdown

echo "== bench smoke (JSON to BENCH_substrate.json) =="
# cargo bench runs with the package directory as cwd, so the output path
# must be absolute to land at the repo root.
BENCH_JSON="$PWD/BENCH_substrate.json" TFT_BENCH_QUICK=1 \
  cargo bench -p tft-bench --bench substrate

echo "== parallel executor scaling (JSON to BENCH_parallel.json) =="
# Same study at workers 1/2/4/8/16/32; output is byte-identical at every
# count (see tests/determinism.rs), so this only tracks wall-clock.
# TFT_BENCH_SAMPLES=5 buys the regression guard below enough samples for a
# stable median without a full calibrated run.
BENCH_JSON="$PWD/BENCH_parallel.json" TFT_BENCH_QUICK=1 TFT_BENCH_SAMPLES=5 \
  cargo bench -p tft-bench --bench parallel

echo "== parallel scaling regression guard =="
# Inverted scaling is a bug, not a tuning matter: with the executor's
# shards and single wave queue, adding workers must never *cost* wall-clock
# on a machine with cores to use them. Enforced from the just-written
# BENCH_parallel.json: fail if the workers-8 median exceeds the workers-1
# median on an 8-plus-core host; on smaller hosts parallelism can't
# genuinely be measured, so only warn (loudly) there.
python3 - <<'EOF'
import json, os, sys

cores = os.cpu_count() or 1
doc = json.load(open("BENCH_parallel.json"))
medians = {b["name"]: b["median_ns"] for b in doc["benchmarks"]}
w1 = next(v for k, v in medians.items() if k.endswith("workers1"))
w8 = next(v for k, v in medians.items() if k.endswith("workers8"))
ratio = w8 / w1
line = f"workers-8 median / workers-1 median = {ratio:.2f} ({w8/1e9:.1f}s vs {w1/1e9:.1f}s, {cores} cores)"
if w8 > w1:
    if cores >= 8:
        print(f"FAIL: inverted parallel scaling: {line}", file=sys.stderr)
        sys.exit(1)
    print(f"WARNING: {line}", file=sys.stderr)
    print(f"WARNING: workers-8 slower than workers-1, but this host has only {cores} core(s);", file=sys.stderr)
    print("WARNING: treat as a real scaling regression on any 8-core machine.", file=sys.stderr)
else:
    print(f"ok: {line}")
EOF

echo "== allocs/probe regression guard =="
# The allocation-overhaul ratchet: the accounting run in the parallel bench
# just wrote allocs_per_probe into BENCH_parallel.json. The pin lives HERE,
# not in the JSON — BENCH_parallel.json is regenerated by the stage above,
# so a committed pin inside it would be overwritten before this guard runs.
# Raise the pin only alongside a deliberate, explained regression.
ALLOCS_PER_PROBE_PIN=39.9
python3 - "$ALLOCS_PER_PROBE_PIN" <<'EOF'
import json, sys

pin = float(sys.argv[1])
doc = json.load(open("BENCH_parallel.json"))
app = doc["notes"]["allocs_per_probe"]
limit = pin * 1.05
line = f"allocs/probe = {app:.2f} (pin {pin}, +5% limit {limit:.2f})"
# Each experiment's own figure, from a driver stepped one stage per wave,
# so a regression names its experiment.
for exp in ("dns", "http", "https", "monitor"):
    print(f"  {exp}: {doc['notes'][f'allocs_per_probe_{exp}']:.2f} allocs/probe")
if app > limit:
    print(f"FAIL: hot-path allocation regression: {line}", file=sys.stderr)
    print("FAIL: find the new per-probe allocation (tft-lint hot-path-alloc helps)", file=sys.stderr)
    print("FAIL: or raise ALLOCS_PER_PROBE_PIN in scripts/check.sh with justification.", file=sys.stderr)
    sys.exit(1)
print(f"ok: {line}")
EOF

echo "== peak live-bytes regression guard =="
# The memory ratchet, pinned like allocs/probe above: the accounting run at
# workers 1 wrote peak_bytes_workers1 into BENCH_parallel.json. At workers 1
# the pool runs inline, so the figure is one thread's exact high-water mark
# and repeats run to run. Raise the pin only alongside a deliberate,
# explained regression.
PEAK_BYTES_PIN=216157595
python3 - "$PEAK_BYTES_PIN" <<'EOF'
import json, sys

pin = int(sys.argv[1])
doc = json.load(open("BENCH_parallel.json"))
peak = doc["notes"]["peak_bytes_workers1"]
limit = pin * 1.05
line = f"peak_bytes_workers1 = {peak} ({peak / 2**20:.1f} MiB; pin {pin}, +5% limit {limit / 2**20:.1f} MiB)"
if peak > limit:
    print(f"FAIL: peak live-bytes regression: {line}", file=sys.stderr)
    print("FAIL: find what the study now keeps alive (shard worlds, cloned evidence)", file=sys.stderr)
    print("FAIL: or raise PEAK_BYTES_PIN in scripts/check.sh with justification.", file=sys.stderr)
    sys.exit(1)
print(f"ok: {line}")
EOF

echo "== fullscale study (smoke; JSON to BENCH_fullscale.json) =="
# Byte-identity of the rendered report at workers 1/2/8 plus wall-clock,
# peak live bytes, and allocs/probe, archived per run. CI runs the smoke
# scale; the paper-full scale-1.0 run is opt-in (minutes, not seconds):
#   TFT_BENCH_FULLSCALE=1 BENCH_JSON="$PWD/BENCH_fullscale.json" \
#     cargo bench -p tft-bench --bench fullscale
BENCH_JSON="$PWD/BENCH_fullscale.json" TFT_BENCH_QUICK=1 \
  cargo bench -p tft-bench --bench fullscale

echo "== chaos zero-fault fast path (JSON to BENCH_chaos.json) =="
# Asserts an armed-but-idle fault campaign (a rule scoped to no node) is
# *exact* against no campaign at all — byte-identical responses, identical
# virtual clock — and records its wall-clock overhead (budget: 2%; the
# full run lands within noise of zero).
BENCH_JSON="$PWD/BENCH_chaos.json" TFT_BENCH_QUICK=1 \
  cargo bench -p tft-bench --bench chaos

echo "== serve gateway e2e (release) =="
# The study-as-a-service acceptance tests alone, labeled: byte-identical
# response bodies at workers 1/2/8, cache hits serving without
# re-execution, and 429 backpressure under a saturated queue.
cargo test -q --release --test serve_gateway

echo "all checks passed"
