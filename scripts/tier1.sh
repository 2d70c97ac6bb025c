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
# The vendored channel shim is not a workspace member; its wake-up tests
# guard the support bus.
cargo test -q -p crossbeam

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

echo "== tier1: ablations (design-choice tables EXPERIMENTS.md cites) =="
# Executes the generator of EXPERIMENTS.md's ablation table so it cannot rot
# while only compiling; one shared day-3 recording keeps it to seconds.
cargo run --release -q -p ares-bench --bin ablations

echo "== tier1: bench smoke (per-stage timings -> BENCH_pipeline.json) =="
# bench_smoke writes the artifact fresh; the soaks below splice into it, so
# order matters: smoke first, then ingest, then fleet, then the guard.
cargo run --release -q -p ares-bench --bin bench_smoke BENCH_pipeline.json

echo "== tier1: ingest soak (multi-tenant streaming + chaos drill) =="
# Streams a full recorded day through the sharded ingest service twice —
# clean, then with shard 0's primary killed at noon — and splices sustained
# throughput plus a recovery-divergence bit into the artifact.
cargo run --release -q -p ares-bench --bin ingest_soak BENCH_pipeline.json

echo "== tier1: fleet soak (sharded mission service at fleet scale) =="
# Hundreds of seeded habitat variants behind the sharded deterministic
# scheduler; splices badge-day throughput, availability drill results and a
# fleet-determinism bit into the artifact.
cargo run --release -q -p ares-bench --bin fleet_soak BENCH_pipeline.json

echo "== tier1: scenario soak (seeded generated worlds through the slice) =="
# Generates dozens of seeded scenarios (the property tests in
# tests/scenario_properties.rs already ran under `cargo test` above),
# validates each against the layout rulebook, and proves recording/analysis/
# streaming bit-identity on the generated geometry; splices the scenario
# count, worst field-cache resolved fraction and a determinism bit into the
# artifact.
cargo run --release -q -p ares-bench --bin scenario_soak BENCH_pipeline.json

echo "== tier1: bench regression guard =="
# One structured pass over the artifact replaces the old grep/sed stanzas:
# determinism bits (engine, recording, fleet, scenario generation), recovery
# divergence, the localize/speech/ingest throughput floors, the >=1000
# badge-day fleet scale floor, and the >=25 validated-scenario floor with
# its field-cache purity minimum. Any violation is a build failure, not a
# number to eyeball.
cargo run --release -q -p ares-bench --bin bench_guard BENCH_pipeline.json

echo "== tier1: OK =="
