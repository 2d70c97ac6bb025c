//! Self-tests: every workload at a tiny size prints every named metric,
//! finite and with its unit, and a corrupted output counts as a failed
//! operation.

use perfbench::report::{result_line, END_TO_END, PER_LAYER};
use perfbench::{run, Options, Workload, DEFAULT_SEED};

fn tiny(trace: bool, corrupt: bool) -> Options {
    Options {
        trace,
        tiny: true,
        corrupt,
        ..Options::new(DEFAULT_SEED, 0.01)
    }
}

/// The metrics a traced run of `w` must measure itself (non-zero samples).
fn own_layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::MissionDays => &[
            "recorder.day_s",
            "recorder.ns_per_record",
            "engine.day_s",
            "engine.stage.localize_s",
            "engine.stage.assemble_s",
            "engine.crosscheck_ratio",
            "setup.truth_s",
            "setup.fieldcache_s",
        ],
        Workload::IngestBackfill => &[
            "ingest.submit_wait_p50_us",
            "ingest.submit_wait_p99_us",
            "ingest.stall_after_crash_ms",
            "ingest.wal_appended",
            "ingest.failovers",
            "ingest.vault_restores",
            "streaming.apply_ns_per_record",
            "streaming.checkpoint_ms",
            "setup.feed_s",
        ],
        Workload::FleetVariants => &[
            "fleet.open_s",
            "fleet.record_s",
            "fleet.analyze_s",
            "fleet.shard_skew",
            "fleet.badge_days",
            "fleet.bytes_recorded",
        ],
    }
}

fn check_printed(w: Workload, trace: bool) {
    let out = run(w, &tiny(trace, false));
    assert!(
        out.correct(),
        "{}: {} of {} failed",
        w.name(),
        out.failed,
        out.attempted
    );
    let table = if trace { PER_LAYER } else { END_TO_END };
    let metrics = out.select(table);
    assert_eq!(metrics.len(), table.len());
    for (m, (name, unit)) in metrics.iter().zip(table) {
        assert_eq!((m.name, m.unit), (*name, *unit));
        assert!(m.value.is_finite(), "{}: {name} = {}", w.name(), m.value);
        if !trace {
            assert!(
                m.value > 0.0 && m.samples > 0,
                "{}: {name} unmeasured",
                w.name()
            );
        }
    }
    if trace {
        for name in own_layers(w) {
            let m = metrics.iter().find(|m| m.name == *name).expect("listed");
            assert!(m.samples > 0, "{}: {name} has no samples", w.name());
        }
        assert!(out.trace_json.contains("\"spans\""));
    }
    let line = result_line(&out, &metrics).expect("finite metrics");
    for (name, unit) in table {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

fn check_corruption_fails(w: Workload) {
    let out = run(w, &tiny(false, true));
    assert!(out.failed >= 1, "{}: a corrupted output passed", w.name());
    assert!(!out.correct());
    let line = result_line(&out, &out.select(END_TO_END)).expect("finite metrics");
    assert!(line.starts_with("{\"correct\": false, "));
}

#[test]
fn mission_days_prints_every_metric() {
    check_printed(Workload::MissionDays, false);
    check_printed(Workload::MissionDays, true);
}

#[test]
fn ingest_backfill_prints_every_metric() {
    check_printed(Workload::IngestBackfill, false);
    check_printed(Workload::IngestBackfill, true);
}

#[test]
fn fleet_variants_prints_every_metric() {
    check_printed(Workload::FleetVariants, false);
    check_printed(Workload::FleetVariants, true);
}

#[test]
fn a_corrupted_mission_day_is_a_failed_operation() {
    check_corruption_fails(Workload::MissionDays);
}

#[test]
fn a_corrupted_tenant_analysis_is_a_failed_operation() {
    check_corruption_fails(Workload::IngestBackfill);
}

#[test]
fn a_corrupted_fleet_habitat_is_a_failed_operation() {
    check_corruption_fails(Workload::FleetVariants);
}

/// `BENCHMARK.json` at the repository root names exactly these workloads
/// and metrics.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} not in BENCHMARK.json");
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "mission_days", "--trace", "2"],
        &["--workload", "mission_days", "--seconds", "-1"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
