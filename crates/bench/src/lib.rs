//! `ares-bench` — the paper reproduction, the ablation tables and the
//! tier-1 smoke benchmark.
//!
//! Binaries:
//!
//! | binary | what it runs |
//! |---|---|
//! | `full_repro` | Fig. 2–6, Table I, the prose statistics, the survey cross-check and the EXPERIMENTS.md claim table; writes `artifacts/` |
//! | `seeds` | the structural claims re-checked across reseeded missions |
//! | `chaos` | the fault-injection reliability sweep |
//! | `ablations` | the design-choice accuracy tables → `artifacts/ablations.txt` |
//! | `bench_smoke` | recording, engine, ingest, fleet and scenario-generation soaks → `BENCH_pipeline.json`, then every tier-1 check over it |

use ares_icares::MissionRunner;
use ares_sociometrics::pipeline::{DayAnalysis, MissionAnalysis};

pub mod ablations;
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
