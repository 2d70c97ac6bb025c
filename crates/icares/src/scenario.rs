//! The end-to-end ICAres-1 scenario: ground truth → badge recordings →
//! offline pipeline.
//!
//! [`MissionRunner`] owns the whole vertical slice and processes the mission
//! the way the deployment did: day by day, keeping memory bounded (a full
//! day of 1 Hz multi-badge recordings is generated, analyzed, folded into
//! the mission aggregates and dropped).
//!
//! [`FleetScenario`] scales the same slice out: it interns the deployment
//! (world, roster, schedule, [`MissionContext`]) once behind `Arc`s and
//! opens seeded habitat/crew variants for the fleet scheduler
//! ([`ares_sociometrics::fleet`]), each variant a [`MissionRunner`] sharing
//! the interned parts and owning only its ground truth.

use ares_badge::recorder::Recorder;
use ares_badge::records::SamplingConfig;
use ares_badge::telemetry::TelemetryStore;
use ares_badge::world::{RfMode, World};
use ares_crew::behavior::{BehaviorConfig, BehaviorSim};
use ares_crew::incidents::IncidentScript;
use ares_crew::roster::Roster;
use ares_crew::schedule::{Schedule, MISSION_DAYS};
use ares_crew::truth::MissionTruth;
use ares_habitat::beacons::BeaconDeployment;
use ares_habitat::floorplan::FloorPlan;
use ares_scenario::ScenarioSpec;
use ares_simkit::geometry::Point2;
use ares_simkit::rng::SeedTree;
use ares_sociometrics::engine::{MissionContext, MissionEngine};
use ares_sociometrics::fleet::{FleetConfig, HabitatSource, OpenHabitat};
use ares_sociometrics::pipeline::{DayAnalysis, MissionAnalysis, PipelineParams};
use rand::Rng;
use std::sync::Arc;

/// First instrumented mission day (badges were first worn on day 2).
pub const FIRST_INSTRUMENTED_DAY: u32 = 2;

/// Configuration of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// The scenario spec the deployment is assembled from: habitat geometry,
    /// crew, schedule and (via [`ScenarioConfig::from_spec`]) incidents. The
    /// canonical Lunares spec by default — rebuilding the historical world
    /// byte-identically.
    pub spec: ScenarioSpec,
    /// Master seed for behaviour, clocks and channel noise.
    pub seed: u64,
    /// Behaviour-simulation parameters.
    pub behavior: BehaviorConfig,
    /// Badge sampling configuration.
    pub sampling: SamplingConfig,
    /// Analysis pipeline parameters.
    pub pipeline: PipelineParams,
    /// The incident script (the canonical ICAres-1 one by default; tests
    /// inject extra failures here).
    pub incidents: IncidentScript,
    /// Last mission day to simulate ground truth for; `0` means the full
    /// mission. Fleet runs that only record a few days set this to the last
    /// recorded day — truth generation is day-sequential from one stream, so
    /// the prefix is bit-identical to the full mission's.
    pub truth_days: u32,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            spec: ScenarioSpec::lunares(),
            seed: 0x1CA7E5,
            behavior: BehaviorConfig::default(),
            sampling: SamplingConfig::default(),
            pipeline: PipelineParams::default(),
            incidents: IncidentScript::icares(),
            truth_days: 0,
        }
    }
}

impl ScenarioConfig {
    /// A configuration running the given scenario spec: seed and incident
    /// script come from the spec, everything else stays at the defaults.
    #[must_use]
    pub fn from_spec(spec: ScenarioSpec) -> ScenarioConfig {
        ScenarioConfig {
            seed: spec.seed,
            incidents: spec.incidents.clone(),
            spec,
            ..ScenarioConfig::default()
        }
    }

    /// The seeded configuration of habitat `habitat` in a fleet of crew
    /// variant count `crews`.
    ///
    /// Every habitat gets its own master seed (independent clocks, channel
    /// noise and behavioural draws) from the fleet seed, and one of `crews`
    /// crew-profile variants (`habitat % crews`) perturbing the behavioural
    /// parameters — different chattiness, errand frequency and badge
    /// discipline per variant, the spread a real fleet of crews would show.
    /// Sampling uses the decimated [`SamplingConfig::fleet`] profile.
    #[must_use]
    pub fn fleet_variant(fleet_seed: u64, habitat: u32, crews: u32) -> ScenarioConfig {
        let tree = SeedTree::new(fleet_seed).child("fleet");
        let seed = tree
            .stream_indexed("habitat", u64::from(habitat))
            .gen::<u64>();
        let variant = if crews == 0 { 0 } else { habitat % crews };
        let mut rng = tree.stream_indexed("crew-variant", u64::from(variant));
        let base = BehaviorConfig::default();
        let behavior = BehaviorConfig {
            seed,
            walk_speed_mps: base.walk_speed_mps * rng.gen_range(0.9..1.1),
            station_dwell_base_s: base.station_dwell_base_s * rng.gen_range(0.85..1.2),
            errand_prob_focus: base.errand_prob_focus * rng.gen_range(0.8..1.2),
            errand_prob_other: base.errand_prob_other * rng.gen_range(0.8..1.2),
            restroom_prob: base.restroom_prob * rng.gen_range(0.8..1.2),
            chat_rate: base.chat_rate * rng.gen_range(0.75..1.3),
            talk_decay_per_day: base.talk_decay_per_day * rng.gen_range(0.7..1.3),
            nowear_base: base.nowear_base * rng.gen_range(0.7..1.3),
            nowear_slope: base.nowear_slope * rng.gen_range(0.7..1.3),
            forgot_dock_prob: base.forgot_dock_prob * rng.gen_range(0.7..1.3),
            ..base
        };
        ScenarioConfig {
            seed,
            behavior,
            sampling: SamplingConfig::fleet(),
            ..ScenarioConfig::default()
        }
    }
}

/// The assembled scenario: world, crew, ground truth and a one-worker
/// analysis engine. The deployment parts are `Arc`-held so fleet variants
/// can intern one copy across hundreds of runners.
#[derive(Debug)]
pub struct MissionRunner {
    world: Arc<World>,
    roster: Arc<Roster>,
    schedule: Arc<Schedule>,
    truth: MissionTruth,
    config: ScenarioConfig,
    pipeline: MissionEngine,
}

impl MissionRunner {
    /// Builds the scenario described by `config.spec` and simulates its
    /// ground truth. With the default (Lunares) spec this assembles the
    /// historical deployment byte-identically; generated specs assemble
    /// their own plan, beacons, roster and schedule the same way. The
    /// `config.incidents` script governs both truth and recording (so tests
    /// can inject extra failures on top of the spec's script).
    #[must_use]
    pub fn new(config: ScenarioConfig) -> Self {
        let d = FleetScenario::assemble(&config.spec, &config.incidents, config.pipeline);
        MissionRunner::with_shared(d.world, d.roster, d.schedule, d.ctx, config)
    }

    /// Builds a scenario over an already-interned deployment: shared world
    /// (whose incident script governs both truth and recording — the
    /// `config.incidents` field is ignored here), roster, schedule and
    /// analysis context. Only the ground truth is simulated per call; this is
    /// the fleet path, where hundreds of variants share one deployment.
    #[must_use]
    pub fn with_shared(
        world: Arc<World>,
        roster: Arc<Roster>,
        schedule: Arc<Schedule>,
        ctx: Arc<MissionContext>,
        config: ScenarioConfig,
    ) -> Self {
        let behavior = BehaviorConfig {
            seed: config.seed,
            ..config.behavior.clone()
        };
        let sim = BehaviorSim::new(&roster, &schedule, &world.incidents, &world.plan, behavior);
        let truth = if config.truth_days == 0 {
            sim.generate()
        } else {
            sim.generate_through(config.truth_days)
        };
        MissionRunner {
            world,
            roster,
            schedule,
            truth,
            config,
            pipeline: MissionEngine::with_workers(ctx, 1),
        }
    }

    /// The canonical scenario with the default seed.
    #[must_use]
    pub fn icares() -> Self {
        MissionRunner::new(ScenarioConfig::default())
    }

    /// The simulated ground truth (for validation against pipeline output).
    #[must_use]
    pub fn truth(&self) -> &MissionTruth {
        &self.truth
    }

    /// The deployment world.
    #[must_use]
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The crew roster.
    #[must_use]
    pub fn roster(&self) -> &Roster {
        &self.roster
    }

    /// The mission schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The runner's analysis engine: one worker over the runner's context
    /// (`context_arc()` hands the interned context to other engines).
    #[must_use]
    pub fn pipeline(&self) -> &MissionEngine {
        &self.pipeline
    }

    fn recorder(&self) -> Recorder<'_> {
        Recorder::new(
            &self.world,
            &self.roster,
            &self.truth,
            self.config.sampling,
            SeedTree::new(self.config.seed),
        )
    }

    /// Records a single day in columnar form — the zero-copy recording path.
    #[must_use]
    pub fn record_day_stores(&self, day: u32) -> Vec<TelemetryStore> {
        self.recorder().record_day_stores(day)
    }

    /// Records a single day with the per-unit jobs fanned out on up to
    /// `workers` threads; bit-identical to [`record_day_stores`] for any
    /// worker count.
    ///
    /// [`record_day_stores`]: MissionRunner::record_day_stores
    #[must_use]
    pub fn record_day_stores_parallel(&self, day: u32, workers: usize) -> Vec<TelemetryStore> {
        self.recorder().record_day_stores_parallel(day, workers)
    }

    /// Records a single day through the exact geometric path (no field
    /// cache) — the slow baseline benches compare against; bit-identical to
    /// [`record_day_stores`].
    ///
    /// [`record_day_stores`]: MissionRunner::record_day_stores
    #[must_use]
    pub fn record_day_stores_exact(&self, day: u32) -> Vec<TelemetryStore> {
        self.recorder()
            .with_rf_mode(RfMode::Exact)
            .record_day_stores(day)
    }

    /// Records a single day through the retained pre-batching scalar tick
    /// loop — the bit-identity oracle the memoised recording kernel is
    /// checked against; bit-identical to [`record_day_stores`].
    ///
    /// [`record_day_stores`]: MissionRunner::record_day_stores
    #[must_use]
    pub fn record_day_stores_scalar(&self, day: u32) -> Vec<TelemetryStore> {
        self.recorder().record_day_stores_scalar(day)
    }

    /// Records and analyzes a single day; returns both the recorded stores
    /// and the day analysis (used by Fig. 5 and by tests).
    #[must_use]
    pub fn run_day(&self, day: u32) -> (Vec<TelemetryStore>, DayAnalysis) {
        let stores = self.record_day_stores(day);
        let analysis = self.pipeline.analyze_day_stores(day, &stores);
        (stores, analysis)
    }

    /// Runs the instrumented days `from..=to`, folding each into the mission
    /// aggregates. `observer` is invoked with each day's analysis before it
    /// is dropped.
    #[must_use]
    pub fn run_days(
        &self,
        from: u32,
        to: u32,
        mut observer: impl FnMut(&DayAnalysis),
    ) -> MissionAnalysis {
        let mut mission = MissionAnalysis::new(&self.pipeline.context().plan);
        for day in from..=to.min(MISSION_DAYS) {
            let stores = self.record_day_stores(day);
            let analysis = self.pipeline.analyze_day_stores(day, &stores);
            mission.account_recorded(stores.iter().map(|s| s.bytes_written).sum());
            observer(&analysis);
            mission.absorb(analysis);
        }
        mission
    }

    /// Runs the full instrumented mission (days 2–14).
    #[must_use]
    pub fn run_mission(&self) -> MissionAnalysis {
        self.run_days(FIRST_INSTRUMENTED_DAY, MISSION_DAYS, |_| {})
    }
}

/// A fleet of seeded ICAres-style habitats sharing one interned deployment.
///
/// The expensive, read-only parts — the [`World`] (including its lazily-built
/// RF field cache), roster, schedule and the analysis [`MissionContext`] —
/// are built **once** and `Arc`-shared across every habitat the scheduler
/// opens; each [`HabitatSource::open`] call only simulates that habitat's
/// ground truth (through the last recorded day) and hands back a recorder
/// over the shared world.
#[derive(Debug)]
pub struct FleetScenario {
    world: Arc<World>,
    roster: Arc<Roster>,
    schedule: Arc<Schedule>,
    ctx: Arc<MissionContext>,
}

impl FleetScenario {
    /// The canonical fleet: every habitat a seeded variant of the ICAres-1
    /// deployment.
    #[must_use]
    pub fn icares() -> Self {
        FleetScenario::from_spec(&ScenarioSpec::lunares())
    }

    /// A fleet whose interned deployment is assembled from a scenario spec;
    /// every habitat the scheduler opens shares this one world, roster,
    /// schedule and analysis context.
    #[must_use]
    pub fn from_spec(spec: &ScenarioSpec) -> Self {
        FleetScenario::assemble(spec, &spec.incidents, PipelineParams::default())
    }

    /// Builds the deployment `spec` describes — plan, beacons, world (with
    /// `incidents` as its script), roster, schedule and analysis context.
    /// [`MissionRunner::new`] assembles its deployment here too.
    fn assemble(spec: &ScenarioSpec, incidents: &IncidentScript, params: PipelineParams) -> Self {
        let plan = FloorPlan::from_spec(&spec.habitat);
        let beacons = BeaconDeployment::from_spec(&spec.habitat, &plan);
        let station = Point2::new(spec.habitat.station.0, spec.habitat.station.1);
        let world = World::from_parts(plan.clone(), beacons.clone(), incidents.clone(), station);
        let schedule = Schedule::from_spec(&spec.schedule);
        let ctx = MissionContext::new(plan, beacons, schedule.clone(), params);
        FleetScenario {
            world: Arc::new(world),
            roster: Arc::new(Roster::from_spec(&spec.crew)),
            schedule: Arc::new(schedule),
            ctx: Arc::new(ctx),
        }
    }

    /// The interned analysis context every habitat shares.
    #[must_use]
    pub fn context(&self) -> &Arc<MissionContext> {
        &self.ctx
    }

    /// Opens one habitat as a standalone [`MissionRunner`] (sharing the
    /// interned deployment) — the same variant the scheduler records, for
    /// determinism probes that re-analyze a habitat out of band.
    #[must_use]
    pub fn open_runner(&self, config: &FleetConfig, habitat: u32) -> MissionRunner {
        let variant = ScenarioConfig {
            truth_days: config.last_day,
            ..ScenarioConfig::fleet_variant(config.seed, habitat, config.crews)
        };
        MissionRunner::with_shared(
            Arc::clone(&self.world),
            Arc::clone(&self.roster),
            Arc::clone(&self.schedule),
            Arc::clone(&self.ctx),
            variant,
        )
    }
}

impl HabitatSource for FleetScenario {
    fn open(&self, config: &FleetConfig, habitat: u32) -> OpenHabitat<'_> {
        let runner = self.open_runner(config, habitat);
        OpenHabitat {
            ctx: Arc::clone(&self.ctx),
            recorder: Box::new(move |day| runner.record_day_stores(day)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_crew::roster::AstronautId;

    #[test]
    fn one_day_end_to_end() {
        let runner = MissionRunner::icares();
        let (stores, analysis) = runner.run_day(3);
        assert!(stores.iter().map(|s| s.bytes_written).sum::<u64>() > 5_000_000_000);
        // All six astronauts resolved to a badge on a normal day.
        for a in AstronautId::ALL {
            assert!(
                analysis.carrier_of[a.index()].is_some(),
                "{a} unresolved on day 3"
            );
        }
        assert!(!analysis.meetings.is_empty(), "meals must be detected");
        assert!(analysis.passages.total() > 5, "some passages expected");
        assert!(analysis.swaps.is_empty(), "no swap on day 3");
    }

    #[test]
    fn fleet_runners_share_the_interned_deployment() {
        let scenario = FleetScenario::icares();
        let cfg = FleetConfig {
            habitats: 4,
            crews: 2,
            first_day: FIRST_INSTRUMENTED_DAY,
            last_day: FIRST_INSTRUMENTED_DAY,
            ..FleetConfig::default()
        };
        let before = Arc::strong_count(scenario.context());
        let runners: Vec<MissionRunner> = (0..cfg.habitats)
            .map(|h| scenario.open_runner(&cfg, h))
            .collect();
        // Every runner's context is the same allocation, not a deep copy …
        for r in &runners {
            assert!(Arc::ptr_eq(&r.pipeline().context_arc(), scenario.context()));
            assert!(std::ptr::eq(r.world(), &*scenario.world));
        }
        // … which the refcount confirms: one new strong ref per runner.
        assert_eq!(
            Arc::strong_count(scenario.context()),
            before + cfg.habitats as usize
        );
    }

    #[test]
    fn fleet_variants_are_seed_deterministic_and_distinct() {
        let a = ScenarioConfig::fleet_variant(0xF1EE7, 5, 3);
        let b = ScenarioConfig::fleet_variant(0xF1EE7, 5, 3);
        assert_eq!(a.seed, b.seed, "same (seed, habitat) must replay");
        assert_eq!(a.behavior.walk_speed_mps, b.behavior.walk_speed_mps);
        // Different habitats get different truth seeds; different crew
        // variants get different behavior perturbations.
        let other = ScenarioConfig::fleet_variant(0xF1EE7, 6, 3);
        assert_ne!(a.seed, other.seed);
        assert_ne!(a.behavior.walk_speed_mps, other.behavior.walk_speed_mps);
        // Habitats 5 and 8 share crew variant 5 % 3 == 8 % 3 but not seeds.
        let same_crew = ScenarioConfig::fleet_variant(0xF1EE7, 8, 3);
        assert_eq!(a.behavior.walk_speed_mps, same_crew.behavior.walk_speed_mps);
        assert_ne!(a.seed, same_crew.seed);
    }

    #[test]
    fn fleet_variant_seed_derivation_is_pinned() {
        // Golden values: the SeedTree "fleet"/"habitat"/"crew-variant"
        // derivation is part of the reproducibility contract — fleet runs
        // recorded under one build must replay under another. 17 significant
        // digits round-trip f64 exactly.
        let cases = [
            (0xF1EE7u64, 0u32, 3u32, 0x32B0_2D7B_CB16_7529u64),
            (0xF1EE7, 5, 3, 0x36FF_E080_3CAF_C8BB),
            (0xA5A5_A5A5, 17, 4, 0xD90D_3DC9_8EE4_9381),
        ];
        for (fleet_seed, habitat, crews, seed) in cases {
            let v = ScenarioConfig::fleet_variant(fleet_seed, habitat, crews);
            assert_eq!(v.seed, seed, "seed drifted for {fleet_seed:#x}/{habitat}");
        }
        let v = ScenarioConfig::fleet_variant(0xF1EE7, 5, 3);
        assert_eq!(v.behavior.walk_speed_mps, 1.113_588_986_556_735_7);
        assert_eq!(v.behavior.chat_rate, 1.575_096_593_116_379_8);
    }

    #[test]
    fn generated_spec_runs_the_vertical_slice() {
        // A generated scenario must assemble and record end to end: plan,
        // beacons, roster and schedule all come from the spec.
        let spec = ares_scenario::generate(11);
        let config = ScenarioConfig {
            truth_days: FIRST_INSTRUMENTED_DAY,
            sampling: ares_badge::records::SamplingConfig::fleet(),
            ..ScenarioConfig::from_spec(spec)
        };
        let runner = MissionRunner::new(config);
        let (_, analysis) = runner.run_day(FIRST_INSTRUMENTED_DAY);
        let resolved = AstronautId::ALL
            .iter()
            .filter(|a| analysis.carrier_of[a.index()].is_some())
            .count();
        assert!(resolved >= 5, "only {resolved}/6 carriers resolved");
    }

    #[test]
    fn swap_day_is_flagged() {
        let runner = MissionRunner::icares();
        let (_, analysis) = runner.run_day(6);
        assert!(
            !analysis.swaps.is_empty(),
            "the A↔B badge swap on day 6 must be flagged"
        );
        let swapped: Vec<_> = analysis
            .swaps
            .iter()
            .map(|&(_, nominal, resolved)| (nominal, resolved))
            .collect();
        assert!(
            swapped.contains(&(AstronautId::A, AstronautId::B))
                || swapped.contains(&(AstronautId::B, AstronautId::A)),
            "swap pair wrong: {swapped:?}"
        );
    }
}
