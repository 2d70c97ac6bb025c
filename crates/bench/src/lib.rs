//! `ares-bench` — the paper reproduction, the ablation tables and the
//! tier-1 smoke benchmark and soaks.
//!
//! Binaries:
//!
//! | binary | what it runs |
//! |---|---|
//! | `full_repro` | Fig. 2–6, Table I, the prose statistics, the survey cross-check and the EXPERIMENTS.md claim table; writes `artifacts/` |
//! | `seeds` | the structural claims re-checked across reseeded missions |
//! | `chaos` | the fault-injection reliability sweep |
//! | `ablations` | the design-choice accuracy tables EXPERIMENTS.md cites |
//! | `bench_smoke` | recording and per-stage engine timings → `BENCH_pipeline.json` |
//! | `ingest_soak` | the sharded ingest service and its kill-a-shard drill |
//! | `fleet_soak` | hundreds of habitat variants behind the sharded scheduler |
//! | `scenario_soak` | generated scenarios through the full slice |
//! | `bench_guard` | every tier-1 floor over `BENCH_pipeline.json` |

use ares_icares::MissionRunner;
use ares_sociometrics::pipeline::{DayAnalysis, MissionAnalysis};

pub mod artifact;

/// Runs the full instrumented mission with the default seed, returning the
/// aggregates plus the death-day analysis needed by Fig. 5.
#[must_use]
pub fn run_full_mission() -> (MissionRunner, MissionAnalysis, DayAnalysis) {
    let runner = MissionRunner::icares();
    let mut death_day = None;
    let mission = runner.run_days(2, 14, |day| {
        if day.day == 4 {
            death_day = Some(day.clone());
        }
    });
    let death = death_day.expect("day 4 analyzed");
    (runner, mission, death)
}
