#!/usr/bin/env sh
# Tier-1 gate: everything a change must pass before it lands.
# Offline by design — all dependencies are vendored path crates; no network.
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: format =="
cargo fmt --all --check

echo "== tier1: release build =="
cargo build --release --workspace

echo "== tier1: tests =="
cargo test -q --workspace

echo "== tier1: perfbench self-tests (benchmark builds against the crates) =="
# perfbench is its own workspace that calls the crates' public APIs; running
# its tiny-size self-tests here makes a crate API change that breaks the
# benchmark fail tier 1 instead of the benchmark gate.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier1: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: rustdoc (warnings are errors) =="
# Catches doc links left dangling when an item is deleted or made private.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== tier1: support example (replicated tier survives a noon kill) =="
# Runs the Section VI example end to end, so its chaos drill and asserts
# execute rather than only compile.
cargo run --release -q --example support_system

echo "== tier1: bench smoke (every soak -> BENCH_pipeline.json, then every floor) =="
# One process measures recording and the staged engine, the sharded ingest
# service with its kill-a-shard drill, the 200-habitat fleet and 30
# generated scenarios; writes the artifact, the three scorecards and one
# run-history line; then checks the typed artifact: determinism bits
# (engine, recording, fleet, scenario generation), recovery divergence, the
# localize/speech/recording/ingest/fleet throughput floors, the >=1000
# badge-day fleet scale floor, the >=25 validated-scenario floor with its
# field-cache resolved minimum, and a finite value in every float. Any
# violation exits non-zero after the artifact is written.
cargo run --release -q -p ares-bench --bin bench_smoke BENCH_pipeline.json

echo "== tier1: OK =="
