//! The sub-day chaos drill of the mission-support tier.
//!
//! [`ChaosMission`] drives a replicated streaming analyzer, a workload of
//! badge telemetry and the Earth link through a compiled [`FaultPlan`] and
//! scores the run in a [`ReliabilityReport`]; [`chaos_sweep`] repeats the
//! drill over rising fault intensities.

use crate::chaos::{FaultPlan, FaultScheduler};
use crate::earthlink::{ConflictPolicy, EarthLink, TelemetryStatus};
use crate::failover::{ReplicaId, ReplicaState, Replicated};
use ares_badge::records::{AudioFrame, BadgeId, BeaconScan, ImuSample, SyncSample};
use ares_habitat::beacons::BeaconDeployment;
use ares_habitat::floorplan::FloorPlan;
use ares_habitat::rooms::RoomId;
use ares_simkit::rng::splitmix64;
use ares_simkit::series::Interval;
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::streaming::{AnalyzerCheckpoint, LiveEvent, StreamingAnalyzer};
use std::fmt::Write as _;

/// Configuration of a sub-day chaos drill: tick/heartbeat/checkpoint
/// cadence, fleet sizes and telemetry loss rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Mission window the drill covers.
    pub span: Interval,
    /// Driver tick (heartbeats, detector, workload) — minutes, not days.
    pub tick: SimDuration,
    /// Heartbeat silence after which a replica is declared failed.
    pub heartbeat_deadline: SimDuration,
    /// How often the primary replicates an analyzer snapshot.
    pub checkpoint_every: SimDuration,
    /// How often a telemetry digest is sent to Earth.
    pub telemetry_every: SimDuration,
    /// Analysis replicas (priority order `0..n`).
    pub replicas: u8,
    /// Sensor badges generating workload (`0..n`).
    pub badges: u8,
    /// Baseline random loss probability on telemetry attempts.
    pub telemetry_loss: f64,
}

impl ChaosConfig {
    /// The canonical drill: one full mission day, 2-minute ticks, 5-minute
    /// failure detection, 15-minute checkpoints, hourly telemetry, a
    /// 3-replica analysis tier and 4 badges.
    #[must_use]
    pub fn icares_day(day: u32) -> Self {
        ChaosConfig {
            span: Interval::new(
                SimTime::from_day_hms(day, 0, 0, 0),
                SimTime::from_day_hms(day + 1, 0, 0, 0),
            ),
            tick: SimDuration::from_mins(2),
            heartbeat_deadline: SimDuration::from_mins(5),
            checkpoint_every: SimDuration::from_mins(15),
            telemetry_every: SimDuration::from_hours(1),
            replicas: 3,
            badges: 4,
            telemetry_loss: 0.0,
        }
    }
}

/// The reliability scorecard of one chaos drill.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityReport {
    /// Signature of the fault plan that produced this run.
    pub plan_signature: String,
    /// Mission window.
    pub span: Interval,
    /// Driver tick length.
    pub tick: SimDuration,
    /// Detector ticks executed.
    pub ticks: u64,
    /// Ticks with an alive, serving primary.
    pub available_ticks: u64,
    /// Backup promotions performed.
    pub failovers: u64,
    /// Distinct unavailability episodes.
    pub outages: u64,
    /// Total time without a serving primary.
    pub downtime: SimDuration,
    /// Mean time to repair (downtime / outages).
    pub mttr: SimDuration,
    /// End-of-run telemetry ledger (after the post-mission drain).
    pub telemetry: TelemetryStatus,
    /// Checkpoints successfully replicated to the vault.
    pub checkpoints_replicated: u64,
    /// Checkpoint offers lost to bus outages.
    pub checkpoints_dropped: u64,
    /// Promotions that restored from a replicated snapshot.
    pub replays: u64,
    /// Largest promotion-time gap between snapshot and now.
    pub max_replay_gap: SimDuration,
    /// Workload records generated.
    pub records_fed: u64,
    /// Live events in the mission stream (duplicates suppressed).
    pub events: u64,
}

impl ReliabilityReport {
    /// Availability over the window, in percent.
    #[must_use]
    pub fn availability_pct(&self) -> f64 {
        if self.ticks == 0 {
            100.0
        } else {
            self.available_ticks as f64 / self.ticks as f64 * 100.0
        }
    }

    /// Renders the scorecard as a fixed-format text block. Same plan + same
    /// config ⇒ byte-identical output, so artifacts diff cleanly.
    #[must_use]
    pub fn render(&self) -> String {
        let mins = |d: SimDuration| d.as_secs_f64() / 60.0;
        format!(
            "reliability scorecard\n\
             plan:         {}\n\
             span:         {} .. {} ({} ticks @ {:.0} s)\n\
             availability: {:.3}% ({}/{} ticks)\n\
             failover:     {} promotions, {} outages, downtime {:.1} min, MTTR {:.1} min\n\
             checkpoints:  {} replicated, {} dropped, {} replays, max replay gap {:.1} min\n\
             telemetry:    sent {}, delivered {}, duplicates {}, retransmits {}, lost attempts {}, pending {}\n\
             workload:     {} records, {} events\n",
            self.plan_signature,
            self.span.start,
            self.span.end,
            self.ticks,
            self.tick.as_secs_f64(),
            self.availability_pct(),
            self.available_ticks,
            self.ticks,
            self.failovers,
            self.outages,
            mins(self.downtime),
            mins(self.mttr),
            self.checkpoints_replicated,
            self.checkpoints_dropped,
            self.replays,
            mins(self.max_replay_gap),
            self.telemetry.sent,
            self.telemetry.delivered,
            self.telemetry.duplicates,
            self.telemetry.retransmits,
            self.telemetry.lost_attempts,
            self.telemetry.pending,
            self.records_fed,
            self.events,
        )
    }
}

/// One deterministic workload record, kept in the replay log.
#[derive(Debug, Clone)]
enum ChaosRecord {
    Scan(BadgeId, BeaconScan),
    Audio(BadgeId, AudioFrame),
    Imu(BadgeId, ImuSample),
    Sync(BadgeId, SyncSample),
}

/// The drill's replicated state: a streaming analyzer whose live events are
/// the mission event stream.
#[derive(Debug)]
struct ChaosAnalyzer(StreamingAnalyzer);

impl ReplicaState for ChaosAnalyzer {
    type Entry = ChaosRecord;
    type Checkpoint = AnalyzerCheckpoint;
    type Output = LiveEvent;

    fn apply(&mut self, rec: &ChaosRecord, out: &mut Vec<LiveEvent>) {
        let analyzer = &mut self.0;
        match rec {
            ChaosRecord::Scan(b, s) => out.extend(analyzer.ingest_scan(*b, s)),
            ChaosRecord::Audio(b, f) => out.extend(analyzer.ingest_audio(*b, f)),
            ChaosRecord::Imu(b, s) => out.extend(analyzer.ingest_imu(*b, s)),
            ChaosRecord::Sync(b, s) => analyzer.ingest_sync(*b, s),
        }
    }

    fn checkpoint(&mut self, at: SimTime) -> AnalyzerCheckpoint {
        self.0.checkpoint(at)
    }

    fn restore(&mut self, ckpt: &AnalyzerCheckpoint) {
        self.0.restore(ckpt);
    }
}

/// A chaos drill: the support tier driven at sub-day granularity under a
/// compiled [`FaultPlan`], producing a [`ReliabilityReport`].
///
/// The analysis tier is a [`Replicated`] streaming analyzer: heartbeats and
/// the failure detector every tick, snapshots on the checkpoint cadence, and
/// a promoted backup that restores the latest snapshot and replays the
/// record log (bounded, measured gap). The Earth link's blackouts, loss
/// windows and random attempt loss come from the same plan. Everything is
/// seeded; running the same plan twice yields byte-identical scorecards.
#[derive(Debug)]
pub struct ChaosMission {
    config: ChaosConfig,
    plan_signature: String,
    tier: Replicated<ChaosAnalyzer>,
    link: EarthLink,
    deployment: BeaconDeployment,
}

impl ChaosMission {
    /// Builds a drill from a config and a fault plan.
    #[must_use]
    pub fn new(config: ChaosConfig, plan: &FaultPlan) -> Self {
        let sched = FaultScheduler::compile(plan, config.span.end);
        let mut link = EarthLink::new(ConflictPolicy::CrewWins);
        for iv in sched.blackouts().intervals() {
            link.add_blackout(*iv);
        }
        for iv in sched.link_loss().intervals() {
            link.add_loss_window(*iv);
        }
        link.set_random_loss(config.telemetry_loss, splitmix64(plan.seed() ^ 0x7E1E_CA57));
        let replicas: Vec<ReplicaId> = (0..config.replicas).map(ReplicaId).collect();
        let tier = Replicated::new(
            "analysis-tier",
            &replicas,
            config.heartbeat_deadline,
            config.checkpoint_every,
            config.span.start,
            sched,
            ChaosAnalyzer(StreamingAnalyzer::icares()),
        );
        ChaosMission {
            config,
            plan_signature: plan.signature(),
            tier,
            link,
            deployment: BeaconDeployment::icares(&FloorPlan::lunares()),
        }
    }

    /// The deduplicated mission event stream (valid after [`Self::run`]).
    #[must_use]
    pub fn events(&self) -> &[LiveEvent] {
        self.tier.outputs()
    }

    /// Deterministic sensor workload for tick `index` at `t`: dead badges
    /// fall silent, sync exchanges pause while the reference badge is out.
    fn workload_at(&self, t: SimTime, index: u64) -> Vec<ChaosRecord> {
        const ROOMS: [RoomId; 4] = [
            RoomId::Office,
            RoomId::Kitchen,
            RoomId::Biolab,
            RoomId::Workshop,
        ];
        let sched = self.tier.faults();
        let mut out = Vec::new();
        for b in 0..self.config.badges {
            let badge = BadgeId(b);
            if !sched.badge_alive(badge, t) {
                continue;
            }
            if index.is_multiple_of(30) && sched.reference_available(t) {
                out.push(ChaosRecord::Sync(
                    badge,
                    SyncSample {
                        t_local: t,
                        t_reference: t,
                    },
                ));
            }
            let slot = ((index / 15 + u64::from(b) * 2) % ROOMS.len() as u64) as usize;
            out.push(ChaosRecord::Scan(
                badge,
                BeaconScan {
                    t_local: t,
                    hits: self
                        .deployment
                        .in_room(ROOMS[slot])
                        .map(|bea| (bea.id, -55.0))
                        .collect(),
                },
            ));
            let talking = (index + u64::from(b) * 7) % 45 < 15;
            out.push(ChaosRecord::Audio(
                badge,
                AudioFrame {
                    t_local: t,
                    level_db: if talking { 66.0 } else { 42.0 },
                    voiced: talking,
                    f0_hz: if talking {
                        Some(150.0 + f64::from(b) * 20.0)
                    } else {
                        None
                    },
                },
            ));
            let worn = (index + u64::from(b) * 11) % 240 < 210;
            out.push(ChaosRecord::Imu(
                badge,
                ImuSample {
                    t_local: t,
                    accel_var: if worn { 0.05 } else { 0.0003 },
                    accel_mean: 9.81,
                    step_hz: None,
                },
            ));
        }
        out
    }

    /// Runs the drill over the configured span and returns the scorecard.
    pub fn run(&mut self) -> ReliabilityReport {
        let cfg = self.config;
        let mut t = cfg.span.start;
        let mut index = 0u64;
        let (mut ticks, mut available_ticks, mut outages) = (0u64, 0u64, 0u64);
        let mut downtime = SimDuration::ZERO;
        let mut down_since: Option<SimTime> = None;
        let mut next_telemetry = cfg.span.start + cfg.telemetry_every;
        while t < cfg.span.end {
            // Heartbeats and failure detection; a promotion rebuilds the
            // analyzer from the last replicated snapshot plus the record log.
            self.tier.advance(t);
            // Workload: always logged (badges keep sensing), applied while an
            // alive primary serves.
            let serving = self.tier.serving();
            for rec in self.workload_at(t, index) {
                self.tier.append(rec);
            }
            // Availability bookkeeping.
            ticks += 1;
            if serving {
                available_ticks += 1;
                if let Some(s) = down_since.take() {
                    downtime += t - s;
                }
            } else if down_since.is_none() {
                down_since = Some(t);
                outages += 1;
            }
            // Hourly telemetry digest over the reliable link.
            if t >= next_telemetry {
                next_telemetry += cfg.telemetry_every;
                let digest = format!(
                    "{} records={} events={}",
                    t,
                    self.tier.appended(),
                    self.tier.outputs().len()
                );
                let _ = self.link.send_telemetry(t, digest);
            }
            let _ = self.link.advance(t);
            t += cfg.tick;
            index += 1;
        }
        if let Some(s) = down_since {
            downtime += cfg.span.end - s;
        }
        // Post-mission drain: retransmissions keep going until every digest
        // is acked (bounded — the backoff caps and blackouts end).
        let mut drain = cfg.span.end;
        for _ in 0..96 {
            if self.link.telemetry_status().pending == 0 {
                break;
            }
            drain += SimDuration::from_hours(1);
            let _ = self.link.advance(drain);
        }
        let telemetry = self.link.telemetry_status();
        let mttr = if outages > 0 {
            SimDuration::from_secs_f64(downtime.as_secs_f64() / outages as f64)
        } else {
            SimDuration::ZERO
        };
        let stats = self.tier.stats();
        ReliabilityReport {
            plan_signature: self.plan_signature.clone(),
            span: cfg.span,
            tick: cfg.tick,
            ticks,
            available_ticks,
            failovers: stats.failovers,
            outages,
            downtime,
            mttr,
            telemetry,
            checkpoints_replicated: stats.checkpoints,
            checkpoints_dropped: stats.checkpoints_dropped,
            replays: stats.replays,
            max_replay_gap: stats.max_replay_gap,
            records_fed: self.tier.appended(),
            events: self.tier.outputs().len() as u64,
        }
    }
}

/// Seed of the committed sweep artifact, `artifacts/chaos_scorecards.md`.
pub const CHAOS_SWEEP_SEED: u64 = 0x1CA7E5;

/// Mission day every sweep drill covers.
const SWEEP_DAY: u32 = 5;

/// The chaos sweep (EXPERIMENTS.md row ROBUST-2): one drill of mission day 5
/// per fault intensity 0, 0.25, 0.5, 0.75 and 1, each under
/// [`FaultPlan::sweep`] with random telemetry loss of 0.3 × intensity.
/// Deterministic: the same seed gives the same reports.
#[must_use]
pub fn chaos_sweep(seed: u64) -> Vec<(f64, ReliabilityReport)> {
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .into_iter()
        .map(|intensity| {
            let mut cfg = ChaosConfig::icares_day(SWEEP_DAY);
            cfg.telemetry_loss = 0.3 * intensity;
            let plan = FaultPlan::sweep(seed, intensity, cfg.span);
            (intensity, ChaosMission::new(cfg, &plan).run())
        })
        .collect()
}

/// Renders a [`chaos_sweep`] as the markdown scorecard artifact.
#[must_use]
pub fn render_chaos_sweep(seed: u64, sweep: &[(f64, ReliabilityReport)]) -> String {
    let mut artifact =
        format!("# chaos sweep — seed {seed:#x}, mission day {SWEEP_DAY}, 2-min ticks\n\n");
    for (intensity, report) in sweep {
        let _ = writeln!(
            artifact,
            "## intensity {intensity:.2}\n\n{}",
            report.render()
        );
    }
    artifact
}
