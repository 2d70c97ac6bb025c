//! Bench smoke: the tier-1 measurement and regression gate, in one process.
//!
//! Four stages run in turn, each returning its typed block of
//! `BENCH_pipeline.json`:
//!
//! 1. [`engine`] — mission day 3 recorded and analysed (top-level members
//!    and `"record"`);
//! 2. [`ingest`] — that day streamed through the sharded ingest service,
//!    clean and with a shard's primary killed at noon (`"ingest"`);
//! 3. [`fleet`] — 200 habitat variants behind the sharded scheduler
//!    (`"fleet"`);
//! 4. [`scenario`] — 30 generated worlds through the full slice
//!    (`"scenario_gen"`).
//!
//! The artifact is written to `BENCH_pipeline.json` (or the path given as
//! the first argument), then the three scorecards and one run-history line
//! go to `artifacts/` beside it. Last, every tier-1 check runs over the
//! typed artifact ([`check_pipeline`]): determinism bits, the recovery
//! verdict, the throughput and scale floors, and a finite value in every
//! float field. Each violation is printed on its own stderr line and any
//! violation exits non-zero, so a failing run still leaves its artifact
//! behind.
//!
//! ```text
//! cargo run --release -p ares-bench --bin bench_smoke [out.json]
//! ```

mod engine;
mod fleet;
mod ingest;
mod scenario;

use ares_bench::artifact::{append_history, check_pipeline, write_side_file, Pipeline};
use ares_icares::MissionRunner;

/// The mission day the engine and ingest stages run.
const DAY: u32 = 3;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let runner = MissionRunner::icares();
    let (engine, record, stores) = engine::run(&runner, DAY);
    let (ingest, ingest_card) = ingest::run(runner.pipeline().context(), DAY, &stores);
    drop((runner, stores));
    let (fleet, fleet_card) = fleet::run();
    let (scenario_gen, scenario_card) = scenario::run();
    let artifact = Pipeline {
        engine,
        record,
        ingest,
        fleet,
        scenario_gen,
    };

    let json = serde_json::to_string_pretty(&artifact).expect("artifact renders");
    std::fs::write(&out_path, json + "\n").expect("write bench artifact");
    for (name, card) in [
        ("ingest_scorecard.txt", ingest_card),
        ("fleet_scorecard.txt", fleet_card),
        ("scenario_scorecard.txt", scenario_card),
    ] {
        println!("{card}");
        let path = write_side_file(&out_path, name, &card);
        println!("wrote {}", path.display());
    }
    append_history(&out_path, &artifact);
    println!("wrote {out_path}");

    let violations = check_pipeline(&artifact);
    if !violations.is_empty() {
        eprintln!(
            "bench smoke: {out_path} FAILED {} check(s):",
            violations.len()
        );
        for v in &violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    let scenarios = &artifact.scenario_gen;
    assert_eq!(
        scenarios.scenarios_validated, scenarios.scenarios,
        "generated scenarios failed validation"
    );
    println!("bench smoke: all tier-1 checks hold");
}
