//! The typed tier-1 bench artifact, its checks and its side files.
//!
//! `bench_smoke` measures every stage in one process, so the artifact never
//! crosses a process boundary: each stage returns its block, the blocks form
//! one [`Pipeline`], and that struct is rendered once as
//! `BENCH_pipeline.json` and checked in place by [`check_pipeline`].
//!
//! Side files — the scorecards and the append-only run history — land in
//! an `artifacts/` directory next to the artifact ([`side_path`]), so a run
//! aimed elsewhere never touches the committed ones.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The whole of `BENCH_pipeline.json`: the engine block's fields at the top
/// level, then one member per other stage.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    /// Day-3 analysis through the staged engine (top-level members).
    pub engine: Engine,
    /// Day-3 recording (`"record"`).
    pub record: Record,
    /// The sharded ingest service and its kill-a-shard drill (`"ingest"`).
    pub ingest: Ingest,
    /// Habitat variants behind the sharded scheduler (`"fleet"`).
    pub fleet: Fleet,
    /// Generated scenarios through the full slice (`"scenario_gen"`).
    pub scenario_gen: ScenarioGen,
}

/// Analysis-engine timings of one recorded day. The parallel run uses at
/// least two workers, so on a one-core host it runs `interleaved` and its
/// `speedup` (≈ 1.0) is still measured, never fabricated.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Engine {
    pub day: u32,
    /// Hardware threads available.
    pub workers: usize,
    /// Recorded days analysed per second, sequentially.
    pub analyze_days_per_s: f64,
    /// Days recorded and analysed per second.
    pub e2e_days_per_s: f64,
    pub sequential_wall_s: f64,
    pub parallel_wall_s: f64,
    pub engine_workers: usize,
    pub speedup: f64,
    pub speedup_measured: bool,
    pub interleaved: bool,
    /// Parallel analysis ≡ sequential analysis.
    pub deterministic: bool,
    /// Columnar telemetry footprint of the day.
    pub store_bytes: u64,
    /// Counters of the sequential run, by stage label.
    pub stages: BTreeMap<&'static str, StageTiming>,
}

/// One engine stage's counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct StageTiming {
    pub calls: u64,
    pub records_in: u64,
    pub items_out: u64,
    pub wall_s: f64,
    pub records_per_s: f64,
}

/// Recording-plane timings of one mission day: `runs` timed sequential
/// cached recordings (`wall_s` and `days_per_s` at the median), one
/// parallel and one exact-geometry recording.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Record {
    pub day: u32,
    pub wall_s: f64,
    pub parallel_wall_s: f64,
    pub exact_wall_s: f64,
    pub workers: usize,
    pub interleaved: bool,
    pub speedup: f64,
    pub speedup_measured: bool,
    /// `exact_wall_s / wall_s`.
    pub speedup_cache: f64,
    pub runs: usize,
    pub days_per_s: f64,
    /// At the slowest run.
    pub days_per_s_min: f64,
    /// At the fastest run.
    pub days_per_s_max: f64,
    /// Repeated, parallel and exact recordings all equal the first.
    pub deterministic: bool,
}

/// Streaming-ingest soak: a clean run, then one with shard 0's primary
/// killed at noon (`chaos_wall_s` and the drill counters).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Ingest {
    pub day: u32,
    pub shards: usize,
    pub tenants: usize,
    /// Records and day ends submitted per run.
    pub records_submitted: u64,
    pub clean_wall_s: f64,
    pub sustained_records_per_s: f64,
    pub chaos_wall_s: f64,
    pub failovers: u64,
    pub vault_restores: u64,
    pub wal_replayed: u64,
    pub checkpoints: u64,
    /// Clean run: scans solved when a checkpoint sealed their segment.
    /// Depends on where checkpoints cut the day, so it is not compared
    /// with the chaos run.
    pub scans_presolved: u64,
    /// Clean run: badge-days whose scans were solved whole at the day end.
    /// Depends on where checkpoints cut the day.
    pub presolve_fallbacks: u64,
    pub records_dropped: u64,
    /// The drill did not fail over, or a tenant's recovered output differs.
    pub recovery_divergent: bool,
}

/// Fleet soak and its per-shard availability drills (means over shards).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Fleet {
    pub habitats: u32,
    pub crews: u32,
    pub first_day: u32,
    pub last_day: u32,
    pub shards: usize,
    pub workers: usize,
    pub badge_days: u64,
    pub bytes_recorded: u64,
    pub wall_s: f64,
    pub badge_days_per_s: f64,
    pub availability_observed: f64,
    pub availability_ctmc: f64,
    pub drill_failovers: u64,
    /// Standalone re-runs of sampled habitats equal the fleet's output.
    pub fleet_deterministic: bool,
}

/// Scenario-generation soak.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ScenarioGen {
    pub scenarios: u64,
    /// Specs the layout rulebook accepted.
    pub scenarios_validated: u64,
    /// Worst field-cache `resolved_fraction` over the plans.
    pub cache_resolved_min: f64,
    /// Every scenario held every bit-identity.
    pub deterministic: bool,
    pub wall_s: f64,
}

impl Serialize for Pipeline {
    /// The engine block's members, then the other blocks, every float
    /// rounded to six decimals (the artifact's precision).
    fn to_value(&self) -> Value {
        let Value::Map(mut members) = self.engine.to_value() else {
            unreachable!("a struct serializes as a map")
        };
        members.extend([
            ("record".to_string(), self.record.to_value()),
            ("ingest".to_string(), self.ingest.to_value()),
            ("fleet".to_string(), self.fleet.to_value()),
            ("scenario_gen".to_string(), self.scenario_gen.to_value()),
        ]);
        let mut value = Value::Map(members);
        round_floats(&mut value);
        value
    }
}

fn round_floats(value: &mut Value) {
    match value {
        Value::F64(x) => *x = (*x * 1e6).round() / 1e6,
        Value::Map(members) => members.iter_mut().for_each(|(_, v)| round_floats(v)),
        _ => {}
    }
}

/// One failed tier-1 expectation over the bench artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Names every non-finite float in `value` by its dotted path.
fn expect_finite(out: &mut Vec<Violation>, path: &str, value: &Value) {
    match value {
        Value::F64(x) if !x.is_finite() => {
            out.push(Violation(format!(
                "{path} is {x}, expected a finite number"
            )));
        }
        Value::Map(members) => {
            for (key, member) in members {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                expect_finite(out, &path, member);
            }
        }
        _ => {}
    }
}

/// Every tier-1 expectation over the artifact, in one place: determinism
/// bits, the recovery verdict, non-zero footprints, throughput and scale
/// floors (sized for the slowest host exercised so far, a 1-core 2.1 GHz
/// Xeon), and a finite value in every float field. Each violation names its
/// dotted path in `BENCH_pipeline.json`; empty means the gate passes.
#[must_use]
pub fn check_pipeline(p: &Pipeline) -> Vec<Violation> {
    let (e, r, i, f, s) = (&p.engine, &p.record, &p.ingest, &p.fleet, &p.scenario_gen);
    let rate = |label| e.stages.get(label).map_or(0.0, |t| t.records_per_s);
    let mut out = Vec::new();
    for (path, got, want) in [
        ("deterministic", e.deterministic, true),
        ("record.deterministic", r.deterministic, true),
        // The recording's parallel ratio carries no floor (one core runs it
        // interleaved); only the measurement discipline does.
        ("record.speedup_measured", r.speedup_measured, true),
        ("ingest.recovery_divergent", i.recovery_divergent, false),
        ("fleet.fleet_deterministic", f.fleet_deterministic, true),
        ("scenario_gen.deterministic", s.deterministic, true),
    ] {
        if got != want {
            out.push(Violation(format!("{path} is {got}, expected {want}")));
        }
    }
    for (path, got) in [
        ("store_bytes", e.store_bytes as f64),
        ("record.wall_s", r.wall_s),
        ("fleet.habitats", f64::from(f.habitats)),
    ] {
        if got <= 0.0 {
            out.push(Violation(format!("{path} is {got}, expected > 0")));
        }
    }
    for (path, got, floor) in [
        // Kernel floors: ~60 % of measured steady state on the slowest host.
        ("stages.localize.records_per_s", rate("localize"), 2e6),
        ("stages.speech.records_per_s", rate("speech"), 2e7),
        // The memoised recording kernel: ~60 % of the ~2.8 days/s measured
        // on the slowest host.
        ("record.days_per_s", r.days_per_s, 1.7),
        // ~1/3 of the slowest ingest soak, 1.25M records/s, measured with
        // the bulk-draining shard queue on a 2-core Intel Xeon sandbox host
        // (12 later runs there read 2.26M–2.97M).
        (
            "ingest.sustained_records_per_s",
            i.sustained_records_per_s,
            4e5,
        ),
        // The fleet soak must cover ≥ 1,000 badge-days; its recording rides
        // the same batched kernel, floored at ~60 % of the slowest host.
        ("fleet.badge_days", f.badge_days as f64, 1e3),
        ("fleet.badge_days_per_s", f.badge_days_per_s, 55.0),
        // ≥ 25 generated scenarios must pass the layout validator, and the
        // worst plan's field-cache resolved_fraction must stay near-total
        // (1.0 on every plan in the family; 0.95 leaves slack for grid
        // changes).
        (
            "scenario_gen.scenarios_validated",
            s.scenarios_validated as f64,
            25.0,
        ),
        (
            "scenario_gen.cache_resolved_min",
            s.cache_resolved_min,
            0.95,
        ),
    ] {
        if got < floor {
            out.push(Violation(format!("{path} regressed: {got} < {floor}")));
        }
    }
    // JSON has no inf or NaN: a non-finite metric fails the gate.
    expect_finite(&mut out, "", &p.to_value());
    out
}

/// Where a run writing the artifact `out_path` puts its side file `name`:
/// `<directory of out_path>/artifacts/<name>`. The default
/// `BENCH_pipeline.json` resolves to `artifacts/<name>`.
#[must_use]
pub fn side_path(out_path: &str, name: &str) -> PathBuf {
    Path::new(out_path)
        .parent()
        .unwrap_or(Path::new(""))
        .join("artifacts")
        .join(name)
}

/// Writes `text` to [`side_path`]`(out_path, name)`, creating the directory,
/// and returns the path. A failure is a warning on stderr: the side files
/// are for reading, the artifact is what the gate checks.
pub fn write_side_file(out_path: &str, name: &str, text: &str) -> PathBuf {
    let path = side_path(out_path, name);
    if let Err(e) = create_parent(&path).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    path
}

/// The machine a history line was measured on, so lines from different
/// hosts are never read as one series.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Host {
    /// Logical CPUs available to the run.
    pub logical_cpus: usize,
    /// The CPU model name (`/proc/cpuinfo`), or `"unknown"`.
    pub cpu_model: String,
}

impl Host {
    /// The host this process runs on.
    #[must_use]
    pub fn this() -> Host {
        Host {
            logical_cpus: std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|info| cpu_model(&info))
                .unwrap_or_else(|| String::from("unknown")),
        }
    }
}

/// The first `model name` of a `/proc/cpuinfo` text.
fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// One run-history line: `{"ts": <unix seconds>, "host": <host>, <the
/// artifact's members>}`.
fn history_line(ts: u64, host: &Host, artifact: &Pipeline) -> String {
    let host = serde_json::to_string(host).expect("host renders");
    // The compact artifact is a non-empty object; `ts` and `host` go in as
    // its first members.
    let members = serde_json::to_string(artifact).expect("artifact renders");
    format!("{{\"ts\": {ts},\"host\":{host},{}\n", &members[1..])
}

/// Appends one line `{"ts": <unix seconds>, "host": <host>, <the artifact's
/// members>}`, the host being [`Host::this`], to the run history
/// `bench_history.jsonl` beside `out_path` ([`side_path`]): the across-runs
/// record the single-artifact snapshot cannot give.
pub fn append_history(out_path: &str, artifact: &Pipeline) {
    use std::io::Write as _;
    let path = side_path(out_path, "bench_history.jsonl");
    let ts = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = history_line(ts, &Host::this(), artifact);
    let appended = create_parent(&path).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
    });
    if let Err(e) = appended {
        eprintln!("warning: could not append {}: {e}", path.display());
    }
}

fn create_parent(path: &Path) -> std::io::Result<()> {
    path.parent().map_or(Ok(()), std::fs::create_dir_all)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small artifact that passes every check: two engine stages, the
    /// checked fields set, every other field at its default.
    fn healthy() -> Pipeline {
        let stage = |records_per_s| StageTiming {
            records_per_s,
            ..StageTiming::default()
        };
        Pipeline {
            engine: Engine {
                deterministic: true,
                store_bytes: 60_347_486,
                stages: BTreeMap::from([
                    ("localize", stage(5_359_556.7)),
                    ("speech", stage(50_062_568.6)),
                ]),
                ..Engine::default()
            },
            record: Record {
                wall_s: 0.397_081_234_5,
                speedup_measured: true,
                days_per_s: 2.8,
                deterministic: true,
                ..Record::default()
            },
            ingest: Ingest {
                sustained_records_per_s: 2_380_679.4,
                ..Ingest::default()
            },
            fleet: Fleet {
                habitats: 200,
                badge_days: 2400,
                badge_days_per_s: 90.0,
                availability_observed: 0.997_916_666_666_666_7,
                fleet_deterministic: true,
                ..Fleet::default()
            },
            scenario_gen: ScenarioGen {
                scenarios_validated: 30,
                cache_resolved_min: 1.0,
                deterministic: true,
                ..ScenarioGen::default()
            },
        }
    }

    fn texts(violations: &[Violation]) -> Vec<String> {
        violations.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn side_files_land_beside_the_artifact() {
        assert_eq!(
            side_path("BENCH_pipeline.json", "bench_history.jsonl"),
            Path::new("artifacts/bench_history.jsonl")
        );
        assert_eq!(
            side_path("/some/other/out.json", "fleet_scorecard.txt"),
            Path::new("/some/other/artifacts/fleet_scorecard.txt")
        );
        assert_eq!(
            side_path("runs/a.json", "x.txt"),
            Path::new("runs/artifacts/x.txt")
        );
    }

    #[test]
    fn history_lines_lead_with_time_and_host() {
        let host = Host {
            logical_cpus: 2,
            cpu_model: String::from("Test \"CPU\" @ 2.0GHz"),
        };
        let line = history_line(17, &host, &healthy());
        let members = serde_json::to_string(&healthy()).expect("artifact renders");
        assert_eq!(
            line,
            format!(
                "{{\"ts\": 17,\"host\":{{\"logical_cpus\":2,\"cpu_model\":\"Test \\\"CPU\\\" @ 2.0GHz\"}},{}\n",
                &members[1..]
            )
        );
        let info =
            "processor\t: 0\nvendor_id\t: X\nmodel name\t: Some CPU  \n\nmodel name\t: Other\n";
        assert_eq!(cpu_model(info).as_deref(), Some("Some CPU"));
        assert_eq!(cpu_model("processor\t: 0\n"), None);
        assert!(Host::this().logical_cpus > 0);
    }

    #[test]
    fn a_healthy_artifact_passes() {
        assert_eq!(texts(&check_pipeline(&healthy())), Vec::<String>::new());
    }

    #[test]
    fn a_sick_artifact_fails_every_check_by_path() {
        let mut sick = healthy();
        let (e, r, i, f, s) = (
            &mut sick.engine,
            &mut sick.record,
            &mut sick.ingest,
            &mut sick.fleet,
            &mut sick.scenario_gen,
        );
        e.deterministic = false;
        e.store_bytes = 0;
        for stage in e.stages.values_mut() {
            stage.records_per_s = 100.0;
        }
        r.deterministic = false;
        r.wall_s = 0.0;
        r.speedup_measured = false;
        r.days_per_s = 0.4;
        i.recovery_divergent = true;
        i.sustained_records_per_s = 262_852.6;
        f.fleet_deterministic = false;
        f.badge_days = 12;
        f.badge_days_per_s = 9.0;
        f.habitats = 0;
        s.deterministic = false;
        s.scenarios_validated = 12;
        s.cache_resolved_min = 0.4;
        let text = texts(&check_pipeline(&sick));
        let expected = [
            "deterministic is false",
            "record.deterministic is false",
            "record.speedup_measured is false",
            "ingest.recovery_divergent is true",
            "fleet.fleet_deterministic is false",
            "scenario_gen.deterministic is false",
            "store_bytes is 0",
            "record.wall_s is 0",
            "fleet.habitats is 0",
            "stages.localize.records_per_s regressed",
            "stages.speech.records_per_s regressed",
            "record.days_per_s regressed",
            "ingest.sustained_records_per_s regressed",
            "fleet.badge_days regressed",
            "fleet.badge_days_per_s regressed",
            "scenario_gen.scenarios_validated regressed",
            "scenario_gen.cache_resolved_min regressed",
        ];
        assert_eq!(text.len(), expected.len(), "{text:?}");
        for (got, want) in text.iter().zip(expected) {
            assert!(got.starts_with(want), "{want}: {text:?}");
        }
    }

    #[test]
    fn non_finite_floats_are_named() {
        let mut p = healthy();
        p.record.speedup = f64::NAN;
        p.fleet.availability_ctmc = f64::INFINITY;
        assert_eq!(
            texts(&check_pipeline(&p)),
            [
                "record.speedup is NaN, expected a finite number",
                "fleet.availability_ctmc is inf, expected a finite number",
            ]
        );
    }

    #[test]
    fn rendered_layout_matches_the_golden_file() {
        let text = serde_json::to_string_pretty(&healthy()).expect("renders");
        assert_eq!(text, include_str!("testdata/pipeline.json").trim_end());
    }
}
