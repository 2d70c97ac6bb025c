//! Hundreds of seeded habitat variants behind one sharded, deterministic
//! scheduler.
//!
//! Instantiates a fleet of ICAres-style habitats ([`FleetScenario`]: one
//! interned world/roster/schedule/context shared by every variant), fans the
//! `(habitat, badge, day)` work units across shards through the generalized
//! [`MissionEngine`] executor, and aggregates the per-shard metrics into a
//! fleet scorecard — badge-days/s, recorded bytes, per-stage throughput —
//! plus a CTMC availability drill of each shard's replicated analysis
//! service through the support crate's failure detector.
//!
//! Two verdicts go to the tier-1 check: `fleet.badge_days` ≥ 1,000 (the
//! soak ran at fleet scale) and `fleet.fleet_deterministic` (spot-checked
//! habitats re-recorded and re-analyzed out of band — fresh runner,
//! different worker counts — are byte-identical to what the sharded
//! scheduler produced). The scorecard goes to `artifacts/fleet_scorecard.txt`.

use ares_bench::artifact::Fleet;
use ares_icares::{FleetScenario, FIRST_INSTRUMENTED_DAY};
use ares_simkit::time::SimDuration;
use ares_sociometrics::engine::MissionEngine;
use ares_sociometrics::fleet::{run_fleet, FleetConfig, FleetRun};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::report::{fleet_section, FleetShardRow};
use ares_support::bus::{Bus, Message, Topic};
use ares_support::failover::{drill_shard_availability, ShardAvailability};

/// The soak's fleet: 200 habitats over 8 crew variants, one instrumented
/// day, 4 shards of one worker each, 4 habitats per batch.
const CONFIG: FleetConfig = FleetConfig {
    seed: 0xF1EE7,
    habitats: 200,
    crews: 8,
    first_day: FIRST_INSTRUMENTED_DAY,
    last_day: FIRST_INSTRUMENTED_DAY,
    shards: 4,
    workers: 1,
    batch: 4,
};

/// Replicas per shard analysis service in the availability drill.
const DRILL_REPLICAS: u32 = 3;

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

/// Re-records and re-analyzes one habitat out of band — fresh runner sharing
/// only the interned deployment, explicit worker count — and returns the
/// serialized analysis for byte comparison against the scheduler's output.
fn probe(scenario: &FleetScenario, habitat: u32, workers: usize) -> String {
    let runner = scenario.open_runner(&CONFIG, habitat);
    let days: Vec<_> = (CONFIG.first_day..=CONFIG.last_day)
        .map(|day| (day, runner.record_day_stores(day)))
        .collect();
    let engine = MissionEngine::with_workers(scenario.context().clone(), workers);
    rendered(&engine.analyze_days_stores(&days))
}

/// Spot-checks determinism: the first, middle and last habitat, re-run
/// standalone at one and four workers, must be byte-identical to the
/// sharded fleet run.
fn determinism_probe(scenario: &FleetScenario, run: &FleetRun) -> bool {
    let mut ok = true;
    for habitat in [0, CONFIG.habitats / 2, CONFIG.habitats - 1] {
        let fleet_bytes = rendered(&run.outcomes[habitat as usize].analysis);
        for workers in [1usize, 4] {
            if probe(scenario, habitat, workers) != fleet_bytes {
                eprintln!("fleet: habitat {habitat} DIVERGED at {workers} worker(s)");
                ok = false;
            }
        }
    }
    ok
}

/// Runs the fleet soak; returns the block and the scorecard.
pub fn run() -> (Fleet, String) {
    eprintln!(
        "fleet: {} habitats × {} crew variants, days {}–{}, {} shards × {} workers…",
        CONFIG.habitats,
        CONFIG.crews,
        CONFIG.first_day,
        CONFIG.last_day,
        CONFIG.shards,
        CONFIG.workers,
    );
    let scenario = FleetScenario::icares();
    let run = run_fleet(&CONFIG, &scenario);
    let scorecard = &run.scorecard;

    eprintln!("fleet: determinism probe (standalone re-runs at 1 and 4 workers)…");
    let fleet_deterministic = determinism_probe(&scenario, &run);

    // Availability drill: each shard's replicated analysis service against a
    // month of seeded exponential failures (mean 8 h up, 20 min repair),
    // observed through the real failure detector vs. the CTMC closed form.
    let drills: Vec<ShardAvailability> = (0..CONFIG.shards)
        .map(|shard| {
            drill_shard_availability(
                CONFIG.seed,
                shard,
                DRILL_REPLICAS,
                SimDuration::from_hours(8),
                SimDuration::from_mins(20),
                SimDuration::from_days(30),
                SimDuration::from_secs(30),
            )
        })
        .collect();

    // Shard health goes over the habitat bus like every other plane's.
    let bus = Bus::new();
    let fleet_sub = bus.subscribe(Topic::Fleet);
    for (report, drill) in run.shards.iter().zip(&drills) {
        bus.publish(
            Topic::Fleet,
            Message {
                from: format!("fleet-shard{:03}", report.shard),
                payload: format!(
                    "{{\"shard\": {}, \"habitats\": {}, \"badge_days\": {}, \
                     \"availability\": {:.6}}}",
                    report.shard, report.habitats, report.badge_days, drill.observed
                ),
            },
        );
    }
    let health_rows = fleet_sub.drain().len();
    assert_eq!(health_rows, run.shards.len(), "every shard reported health");

    let rows: Vec<FleetShardRow> = run
        .shards
        .iter()
        .zip(&drills)
        .map(|(r, d)| FleetShardRow {
            shard: r.shard,
            habitats: r.habitats,
            badge_days: r.badge_days,
            bytes: r.bytes,
            wall_s: r.wall_s,
            availability_observed: d.observed,
            availability_model: d.model,
            failovers: d.failovers,
        })
        .collect();

    let mean =
        |f: fn(&ShardAvailability) -> f64| drills.iter().map(f).sum::<f64>() / drills.len() as f64;
    let block = Fleet {
        habitats: CONFIG.habitats,
        crews: CONFIG.crews,
        first_day: CONFIG.first_day,
        last_day: CONFIG.last_day,
        shards: CONFIG.shards,
        workers: CONFIG.workers,
        badge_days: scorecard.badge_days,
        bytes_recorded: scorecard.bytes_recorded,
        wall_s: scorecard.wall_s,
        badge_days_per_s: scorecard.badge_days_per_s,
        availability_observed: mean(|d| d.observed),
        availability_ctmc: mean(|d| d.model),
        drill_failovers: drills.iter().map(|d| d.failovers).sum(),
        fleet_deterministic,
    };
    println!(
        "fleet: {} badge-days over {} habitats in {:.2} s → {:.1} badge-days/s, \
         deterministic: {fleet_deterministic}",
        block.badge_days, block.habitats, block.wall_s, block.badge_days_per_s,
    );
    (block, fleet_section(scorecard, &rows))
}
