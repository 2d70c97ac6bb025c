//! Fleet-scale mission service: hundreds of habitats behind one sharded,
//! deterministic scheduler.
//!
//! The paper analyzes exactly one analog mission; its vision (and ROADMAP
//! item 1) is distributed support for *fleets* of habitats. This module is
//! that step: N seeded habitat variants × M crew profiles are fanned across
//! S shards, each shard streams its habitats day by day — record, analyze,
//! drop — and every `(habitat, badge, day)` unit runs through the same
//! [`MissionEngine`] executor the single-mission paths use.
//!
//! # Determinism contract
//!
//! * Habitats are pinned to shards by `habitat % shards` (the same static
//!   ownership rule the ingest service uses for tenants), and each shard
//!   processes its habitats in ascending index order.
//! * A habitat's telemetry is a pure function of `(fleet seed, habitat)`,
//!   recorded by the shard that owns it; habitats share no mutable state —
//!   only the interned, read-only [`MissionContext`].
//! * Shards run through [`ordered_map`] over shard indices, one thread per
//!   shard (none when there is one shard).
//! * Within a batch, units land in pre-assigned slots and are assembled in
//!   canonical `(habitat, day, badge)` order by
//!   [`MissionEngine::analyze_fleet_stores`].
//!
//! Per-habitat [`MissionAnalysis`] is therefore **bit-identical** for any
//! worker count, any shard count and any batch size; only wall-clock times
//! (and the wall-time entries of the metrics) vary. `tests/fleet_determinism.rs`
//! pins this, and the fleet stage of `bench_smoke` re-verifies a spot-check
//! per run into `BENCH_pipeline.json` (`"fleet_deterministic"`).

use crate::engine::{EngineMetrics, HabitatDays, MissionContext, MissionEngine};
use crate::pipeline::MissionAnalysis;
use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryStore;
use ares_simkit::par::ordered_map;
use std::sync::Arc;
use std::time::Instant;

/// Shape of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Master fleet seed; every habitat's behaviour, clocks and channel
    /// noise derive from it.
    pub seed: u64,
    /// Habitat count.
    pub habitats: u32,
    /// Crew-profile variant count; habitat `h` runs crew variant
    /// `h % crews`.
    pub crews: u32,
    /// First recorded mission day (inclusive).
    pub first_day: u32,
    /// Last recorded mission day (inclusive).
    pub last_day: u32,
    /// Scheduler shards (each one OS thread owning `habitat % shards`).
    pub shards: usize,
    /// Engine workers per shard for the badge-day fan-out.
    pub workers: usize,
    /// Habitats recorded and analyzed per engine batch; bounds peak memory
    /// to `batch × days × per-day telemetry`.
    pub batch: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0xF1EE7,
            habitats: 6,
            crews: 2,
            first_day: 2,
            last_day: 3,
            shards: 2,
            workers: 1,
            batch: 2,
        }
    }
}

impl FleetConfig {
    /// Recorded days per habitat.
    #[must_use]
    pub fn days_per_habitat(&self) -> u32 {
        self.last_day.saturating_sub(self.first_day) + 1
    }
}

/// One opened habitat: its interned context plus a day recorder.
///
/// The recorder closure owns whatever per-habitat state the source built
/// (ground truth, seeded clocks); calling it with a day must be a pure
/// function of `(fleet seed, habitat, day)`.
pub struct OpenHabitat<'a> {
    /// The habitat's interned mission context.
    pub ctx: Arc<MissionContext>,
    /// Records one mission day of the habitat as columnar stores.
    pub recorder: Box<dyn Fn(u32) -> Vec<TelemetryStore> + Send + 'a>,
}

impl std::fmt::Debug for OpenHabitat<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenHabitat").finish_non_exhaustive()
    }
}

/// A provider of habitat variants — the seam between the scheduler (this
/// module) and the scenario layer (`ares-icares`), which cannot be a direct
/// dependency from here.
pub trait HabitatSource: Sync {
    /// Opens habitat `habitat` of the fleet: builds (or reuses interned)
    /// deployment metadata and whatever ground truth recording needs.
    fn open(&self, config: &FleetConfig, habitat: u32) -> OpenHabitat<'_>;
}

/// The per-habitat result of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct HabitatOutcome {
    /// Fleet-wide habitat index.
    pub habitat: u32,
    /// The shard that processed it (`habitat % shards`).
    pub shard: usize,
    /// Analyzed badge-days (non-reference units × recorded days).
    pub badge_days: u64,
    /// Raw telemetry bytes recorded.
    pub bytes: u64,
    /// The habitat's mission aggregates — bit-deterministic.
    pub analysis: MissionAnalysis,
}

/// One shard's workload summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Habitats the shard owned and processed.
    pub habitats: u32,
    /// Badge-days analyzed.
    pub badge_days: u64,
    /// Telemetry bytes recorded.
    pub bytes: u64,
    /// Shard wall time (record + analyze), seconds.
    pub wall_s: f64,
    /// The shard engine's accumulated per-stage metrics.
    pub metrics: EngineMetrics,
}

/// Fleet-level aggregates across all shards.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScorecard {
    /// The run configuration.
    pub config: FleetConfig,
    /// Total badge-days analyzed.
    pub badge_days: u64,
    /// Total telemetry bytes recorded.
    pub bytes_recorded: u64,
    /// End-to-end wall time, seconds.
    pub wall_s: f64,
    /// Badge-days per second of wall time (0 when unmeasurable).
    pub badge_days_per_s: f64,
    /// Per-stage metrics merged across all shards.
    pub metrics: EngineMetrics,
}

/// The full result of one fleet run.
#[derive(Debug)]
pub struct FleetRun {
    /// Per-habitat outcomes, ordered by habitat index.
    pub outcomes: Vec<HabitatOutcome>,
    /// Per-shard reports, ordered by shard index.
    pub shards: Vec<ShardReport>,
    /// The aggregate scorecard.
    pub scorecard: FleetScorecard,
}

/// Badge-days in a recorded day set: non-reference stores count, the
/// reference badge is bookkeeping.
fn badge_days_of(days: &[(u32, Vec<TelemetryStore>)]) -> u64 {
    days.iter()
        .map(|(_, stores)| {
            stores
                .iter()
                .filter(|s| s.badge != BadgeId::REFERENCE)
                .count() as u64
        })
        .sum()
}

/// One shard's share of a fleet run: the habitats `h` with
/// `h % shards == shard`, in ascending order, recorded and analyzed one
/// batch at a time.
fn run_shard(
    config: &FleetConfig,
    source: &(impl HabitatSource + ?Sized),
    shard: usize,
) -> (Vec<HabitatOutcome>, ShardReport) {
    let t_shard = Instant::now();
    let owned: Vec<u32> = (0..config.habitats)
        .filter(|h| (*h as usize) % config.shards == shard)
        .collect();
    let mut engine: Option<MissionEngine> = None;
    let mut outcomes = Vec::with_capacity(owned.len());
    let mut report = ShardReport {
        shard,
        habitats: owned.len() as u32,
        badge_days: 0,
        bytes: 0,
        wall_s: 0.0,
        metrics: EngineMetrics::new(),
    };
    for chunk in owned.chunks(config.batch) {
        // Record the batch: bounded memory, then one fan-out over every
        // (habitat, badge, day) unit of the batch.
        let batch: Vec<HabitatDays> = chunk
            .iter()
            .map(|&habitat| {
                let opened = source.open(config, habitat);
                let days: Vec<(u32, Vec<TelemetryStore>)> = (config.first_day..=config.last_day)
                    .map(|day| (day, (opened.recorder)(day)))
                    .collect();
                HabitatDays {
                    habitat,
                    ctx: opened.ctx,
                    days,
                }
            })
            .collect();
        let engine = engine.get_or_insert_with(|| {
            MissionEngine::with_workers(batch[0].ctx.clone(), config.workers)
        });
        let analyzed = engine.analyze_fleet_stores(&batch);
        for (hab, (habitat, analysis)) in batch.iter().zip(analyzed) {
            debug_assert_eq!(hab.habitat, habitat, "engine preserved batch order");
            let badge_days = badge_days_of(&hab.days);
            let bytes: u64 = hab
                .days
                .iter()
                .flat_map(|(_, stores)| stores.iter().map(|s| s.bytes_written))
                .sum();
            report.badge_days += badge_days;
            report.bytes += bytes;
            outcomes.push(HabitatOutcome {
                habitat,
                shard,
                badge_days,
                bytes,
                analysis,
            });
        }
    }
    if let Some(engine) = &engine {
        report.metrics = engine.metrics();
    }
    report.wall_s = t_shard.elapsed().as_secs_f64();
    (outcomes, report)
}

/// Runs a fleet: shards fan habitats out, each shard streams its habitats in
/// batches through the generalized engine, and the per-habitat analyses come
/// back in habitat order. See the module docs for the determinism contract.
///
/// # Panics
///
/// Re-raises a panic of any shard.
#[must_use]
pub fn run_fleet(config: &FleetConfig, source: &(impl HabitatSource + ?Sized)) -> FleetRun {
    let config = FleetConfig {
        shards: config.shards.max(1),
        workers: config.workers.max(1),
        batch: config.batch.max(1),
        ..*config
    };
    let t0 = Instant::now();
    let ran = ordered_map(config.shards, config.shards, |shard| {
        run_shard(&config, source, shard)
    });
    let mut outcomes = Vec::with_capacity(config.habitats as usize);
    let mut shards = Vec::with_capacity(config.shards);
    for (owned, report) in ran {
        outcomes.extend(owned);
        shards.push(report);
    }
    outcomes.sort_by_key(|o| o.habitat);

    let wall_s = t0.elapsed().as_secs_f64();
    let badge_days: u64 = shards.iter().map(|r| r.badge_days).sum();
    let bytes_recorded: u64 = shards.iter().map(|r| r.bytes).sum();
    let mut metrics = EngineMetrics::new();
    for r in &shards {
        metrics.merge(&r.metrics);
    }
    let badge_days_per_s = if wall_s > 0.0 {
        let r = badge_days as f64 / wall_s;
        if r.is_finite() {
            r
        } else {
            0.0
        }
    } else {
        0.0
    };
    FleetRun {
        outcomes,
        shards,
        scorecard: FleetScorecard {
            config,
            badge_days,
            bytes_recorded,
            wall_s,
            badge_days_per_s,
            metrics,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A source of empty habitats: no telemetry, but real interned contexts —
    /// enough to exercise scheduling, pinning and aggregation.
    struct EmptySource {
        ctx: Arc<MissionContext>,
    }

    impl EmptySource {
        fn new() -> Self {
            EmptySource {
                ctx: Arc::new(MissionContext::icares()),
            }
        }
    }

    impl HabitatSource for EmptySource {
        fn open(&self, _config: &FleetConfig, _habitat: u32) -> OpenHabitat<'_> {
            OpenHabitat {
                ctx: self.ctx.clone(),
                recorder: Box::new(|_day| Vec::new()),
            }
        }
    }

    #[test]
    fn outcomes_come_back_in_habitat_order_with_static_pinning() {
        let source = EmptySource::new();
        let config = FleetConfig {
            habitats: 7,
            shards: 3,
            ..FleetConfig::default()
        };
        let run = run_fleet(&config, &source);
        assert_eq!(run.outcomes.len(), 7);
        for (i, o) in run.outcomes.iter().enumerate() {
            assert_eq!(o.habitat, i as u32);
            assert_eq!(o.shard, i % 3, "habitat {i} pinned to habitat % shards");
            assert_eq!(o.badge_days, 0);
        }
        assert_eq!(run.shards.len(), 3);
        assert_eq!(
            run.shards.iter().map(|s| s.habitats).sum::<u32>(),
            7,
            "every habitat owned exactly once"
        );
        assert_eq!(run.scorecard.badge_days, 0);
        assert_eq!(run.scorecard.bytes_recorded, 0);
    }

    #[test]
    fn degenerate_shapes_are_clamped() {
        let source = EmptySource::new();
        let config = FleetConfig {
            habitats: 2,
            shards: 0,
            workers: 0,
            batch: 0,
            ..FleetConfig::default()
        };
        let run = run_fleet(&config, &source);
        assert_eq!(run.outcomes.len(), 2);
        assert_eq!(run.shards.len(), 1);
        assert_eq!(run.scorecard.config.shards, 1);
        assert_eq!(run.scorecard.config.workers, 1);
        assert_eq!(run.scorecard.config.batch, 1);
    }

    #[test]
    fn contexts_are_interned_not_copied() {
        let source = EmptySource::new();
        let config = FleetConfig {
            habitats: 4,
            shards: 1,
            ..FleetConfig::default()
        };
        let before = Arc::strong_count(&source.ctx);
        let _run = run_fleet(&config, &source);
        // All clones were dropped with the batches; the interned context
        // itself was never deep-copied.
        assert_eq!(Arc::strong_count(&source.ctx), before);
    }

    #[test]
    fn days_per_habitat_counts_inclusive_span() {
        let c = FleetConfig {
            first_day: 2,
            last_day: 4,
            ..FleetConfig::default()
        };
        assert_eq!(c.days_per_habitat(), 3);
        let one = FleetConfig {
            first_day: 3,
            last_day: 3,
            ..FleetConfig::default()
        };
        assert_eq!(one.days_per_habitat(), 1);
    }
}
