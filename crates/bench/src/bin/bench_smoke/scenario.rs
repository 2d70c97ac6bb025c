//! Dozens of seeded, validated scenarios driven through the full vertical
//! slice.
//!
//! For each seed the stage generates a
//! [`ScenarioSpec`](ares_scenario::ScenarioSpec), checks it against the
//! layout rulebook ([`ares_scenario::validate()`]), assembles the deployment
//! through [`MissionRunner`] and proves the engine's invariants hold on the
//! *generated* geometry, not just the canonical Lunares world:
//!
//! * recording is bit-identical sequential vs. parallel vs. exact-geometry
//!   vs. the retained pre-batching scalar tick loop, the last also at the
//!   default sampling profile on the first three worlds (the
//!   [`RfFieldCache`](ares_habitat::fieldcache::RfFieldCache)
//!   purity contract and the batched-kernel equivalence contract —
//!   `.to_bits()` RSSI equality, since the columnar stores compare byte
//!   for byte);
//! * batch analysis is bit-identical to the parallel mission engine;
//! * the streaming analyzer, checkpointed mid-feed and restored into a
//!   fresh instance, replays to byte-identical events and checkpoints.
//!
//! Three verdicts go to the tier-1 check: `scenario_gen.scenarios_validated`
//! ≥ 25 (real scenario diversity, not a smoke), `cache_resolved_min` (the
//! worst per-plan field-cache `resolved_fraction` stays above its floor) and
//! `deterministic` (every scenario held every bit-identity above). The
//! per-plan scorecard goes to `artifacts/scenario_scorecard.txt`.

use ares_badge::recorder::Recorder;
use ares_badge::records::{BadgeId, SamplingConfig};
use ares_badge::telemetry::TelemetryStore;
use ares_bench::artifact::ScenarioGen;
use ares_icares::{MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
use ares_scenario::{generate, validate};
use ares_simkit::rng::SeedTree;
use ares_sociometrics::engine::MissionEngine;
use ares_sociometrics::report::{scenario_section, ScenarioPlanRow};
use ares_sociometrics::streaming::{LiveEvent, StreamingAnalyzer};
use ares_support::ingest::{wire_feed, TelemetryRecord};
use std::time::Instant;

/// Seeds generated and driven through the slice.
const SCENARIOS: u64 = 30;

/// Badges fed to the streaming replay probe per scenario (a genuine
/// multi-badge interleave while keeping each probe fast).
const STREAM_BADGES: usize = 3;
/// Worlds (the first seeds) whose recording is also checked batched vs.
/// scalar under the default sampling profile, whose 1 Hz scans and 0.5 s
/// audio frames hit the recorder's memos far more often than the fleet
/// profile the soak records at.
const DEFAULT_PROFILE_WORLDS: u64 = 3;

fn apply_record(
    sa: &mut StreamingAnalyzer,
    badge: BadgeId,
    record: &TelemetryRecord,
    events: &mut Vec<LiveEvent>,
) {
    match record {
        TelemetryRecord::Scan(s) => events.extend(sa.ingest_scan(badge, s)),
        TelemetryRecord::Audio(a) => events.extend(sa.ingest_audio(badge, a)),
        TelemetryRecord::Imu(s) => events.extend(sa.ingest_imu(badge, s)),
        TelemetryRecord::Sync(s) => sa.ingest_sync(badge, s),
        _ => {}
    }
}

/// Streams the day's interleaved feed twice — uninterrupted, and
/// checkpointed at the midpoint then restored into a fresh analyzer — and
/// returns whether events and final checkpoint bytes are identical.
fn streaming_replay_identical(runner: &MissionRunner, stores: &[TelemetryStore], day: u32) -> bool {
    let feed = wire_feed(&stores[..STREAM_BADGES.min(stores.len())]);
    let ctx = runner.pipeline().context().clone();
    let end = ares_simkit::time::SimTime::from_day_hms(day + 1, 0, 0, 0);

    let mut whole = StreamingAnalyzer::with_context(ctx.clone());
    let mut whole_events = Vec::new();
    for (badge, r) in &feed {
        apply_record(&mut whole, *badge, r, &mut whole_events);
    }

    let cut = feed.len() / 2;
    let mut first = StreamingAnalyzer::with_context(ctx.clone());
    let mut split_events = Vec::new();
    for (badge, r) in &feed[..cut] {
        apply_record(&mut first, *badge, r, &mut split_events);
    }
    let mid_at = feed[..cut]
        .last()
        .map_or(ares_simkit::time::SimTime::EPOCH, |(_, r)| r.t_local());
    let mid = first.checkpoint(mid_at);
    let mut resumed = StreamingAnalyzer::with_context(ctx);
    resumed.restore(&mid);
    for (badge, r) in &feed[cut..] {
        apply_record(&mut resumed, *badge, r, &mut split_events);
    }

    let whole_ckpt = serde_json::to_string(&whole.checkpoint(end));
    let split_ckpt = serde_json::to_string(&resumed.checkpoint(end));
    split_events == whole_events && whole_ckpt == split_ckpt
}

/// Runs the scenario soak; returns the block and the scorecard.
pub fn run() -> (ScenarioGen, String) {
    let day = FIRST_INSTRUMENTED_DAY;

    eprintln!("scenario_gen: {SCENARIOS} seeded scenarios, recording day {day}…");
    let t0 = Instant::now();
    let mut rows: Vec<ScenarioPlanRow> = Vec::new();
    let mut validated = 0u64;
    let mut all_deterministic = true;
    for seed in 0..SCENARIOS {
        let spec = generate(seed);
        let violations = validate(&spec);
        if violations.is_empty() {
            validated += 1;
        } else {
            eprintln!("scenario_gen: seed {seed} INVALID: {violations:?}");
        }
        let total_width = spec.habitat.total_width();
        let spec_seed = spec.seed;
        let hall_depth = spec.habitat.hall_depth;
        let config = ScenarioConfig {
            truth_days: day,
            sampling: SamplingConfig::fleet(),
            ..ScenarioConfig::from_spec(spec)
        };
        let runner = MissionRunner::new(config);

        // Recording bit-identity: the batched kernel vs. its retained scalar
        // oracle, sequential vs. parallel, and cached vs. exact geometry
        // (the field-cache purity contract on this plan's geometry); on the
        // first worlds also batched vs. scalar at the default profile.
        let stores = runner.record_day_stores(day);
        let record_ok = runner.record_day_stores_scalar(day) == stores
            && runner.record_day_stores_parallel(day, 4) == stores
            && runner.record_day_stores_exact(day) == stores
            && (seed >= DEFAULT_PROFILE_WORLDS || {
                let rec = Recorder::new(
                    runner.world(),
                    runner.roster(),
                    runner.truth(),
                    SamplingConfig::default(),
                    SeedTree::new(spec_seed),
                );
                rec.record_day_stores(day) == rec.record_day_stores_scalar(day)
            });

        // Streaming bit-identity: checkpoint/restore replay of the live feed.
        let stream_ok = streaming_replay_identical(&runner, &stores, day);

        // Analysis bit-identity: batch fold vs. the parallel mission engine.
        let batch = serde_json::to_string(&runner.run_days(day, day, |_| {}));
        let engine = MissionEngine::with_workers(runner.pipeline().context_arc(), 4);
        let parallel = engine.analyze_days_stores(&[(day, stores)]);
        let analyze_ok = batch == serde_json::to_string(&parallel);

        let deterministic = record_ok && analyze_ok && stream_ok;
        if !deterministic {
            eprintln!(
                "scenario_gen: seed {seed} DIVERGED \
                 (record {record_ok}, analyze {analyze_ok}, stream {stream_ok})"
            );
            all_deterministic = false;
        }

        let cache = runner.world().field_cache();
        rows.push(ScenarioPlanRow {
            seed,
            total_width_m: total_width,
            hall_depth_m: hall_depth,
            pure_fraction: cache.pure_fraction(),
            resolved_fraction: cache.resolved_fraction(),
            violations: violations.len(),
            deterministic,
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let cache_resolved_min = rows
        .iter()
        .map(|r| r.resolved_fraction)
        .fold(1.0f64, f64::min);
    let block = ScenarioGen {
        scenarios: SCENARIOS,
        scenarios_validated: validated,
        cache_resolved_min,
        deterministic: all_deterministic,
        wall_s,
    };
    println!(
        "scenario_gen: {validated}/{SCENARIOS} validated, cache resolved min \
         {cache_resolved_min:.5}, deterministic: {all_deterministic}, {wall_s:.2} s"
    );
    (block, scenario_section(&rows))
}
