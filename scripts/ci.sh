#!/usr/bin/env bash
# Repository CI entry point: one path, every stage must pass. The
# workspace has no external dependencies, so none of it needs a network.
#
#   1. `cargo fmt --check` — the tree is rustfmt-clean;
#   2. `cargo clippy -D warnings` — every crate and target is lint-clean;
#   3. the tier-1 command, `cargo build --release && cargo test -q` —
#      every unit, integration, property and doc test, including the
#      counted-work and peak-memory checks that stand in for timing gates;
#   4. scripts/fault_smoke.sh — the adversarial corpus and budgeted
#      degradation through the CLI, and a killed sweep resuming from its
#      checkpoint;
#   5. scripts/crash_smoke.sh — journal IO faults and crashes at many
#      byte offsets, each recovered bit-exactly by `hetfeas recover`;
#   6. scripts/chaos_smoke.sh — service fault storms, network chaos with
#      exactly-once verdicts, and kill -9 restarts of a live server;
#   7. `perfbench/run.py --self-test` — the end-to-end benchmark still
#      builds against the library and its harness tests pass.
#
# Wall-clock performance is measured only by perfbench (BENCHMARK.json).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check" >&2
cargo fmt --all --check
echo "== cargo clippy -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings
echo "== tier-1: cargo build --release && cargo test -q" >&2
cargo build --release && cargo test -q
echo "== fault-injection smoke" >&2
HETFEAS_BIN=target/release/hetfeas \
    RUN_EXPERIMENTS_BIN=target/release/run-experiments \
    bash scripts/fault_smoke.sh
echo "== crash-recovery smoke" >&2
HETFEAS_BIN=target/release/hetfeas bash scripts/crash_smoke.sh
echo "== chaos smoke" >&2
HETFEAS_BIN=target/release/hetfeas bash scripts/chaos_smoke.sh
echo "== benchmark self-test" >&2
python3 perfbench/run.py --self-test
echo "ci: all stages passed" >&2
