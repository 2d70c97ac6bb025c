//! The chaos-mission acceptance drill: a primary crash in the middle of the
//! day plus a two-hour Earth-link blackout must leave the mission support
//! tier effectively intact — high availability, nothing permanently lost on
//! the telemetry channel, and a post-failover event stream identical to an
//! undisturbed run once the replay gap is closed.

use ares::simkit::series::Interval;
use ares::simkit::time::{SimDuration, SimTime};
use ares::support::chaos::{Fault, FaultPlan};
use ares::support::failover::ReplicaId;
use ares::support::runtime::{
    chaos_sweep, render_chaos_sweep, ChaosConfig, ChaosMission, CHAOS_SWEEP_SEED,
};

const DAY: u32 = 5;
const SEED: u64 = 0x5EED;

fn crash_and_blackout_plan() -> FaultPlan {
    FaultPlan::new(SEED)
        .with(Fault::ReplicaCrash {
            replica: ReplicaId(0),
            at: SimTime::from_day_hms(DAY, 12, 0, 0),
            recover_at: None,
        })
        .with(Fault::LinkBlackout {
            window: Interval::new(
                SimTime::from_day_hms(DAY, 14, 0, 0),
                SimTime::from_day_hms(DAY, 16, 0, 0),
            ),
        })
}

#[test]
fn primary_crash_and_blackout_leave_mission_intact() {
    let cfg = ChaosConfig::icares_day(DAY);
    let mut mission = ChaosMission::new(cfg, &crash_and_blackout_plan());
    let report = mission.run();

    // The tier failed over exactly once, in one outage, and stayed ≥99%
    // available.
    assert_eq!(report.failovers, 1, "{}", report.render());
    assert_eq!(report.outages, 1, "{}", report.render());
    assert!(
        report.availability_pct() >= 99.0,
        "availability {:.3}%\n{}",
        report.availability_pct(),
        report.render()
    );

    // No telemetry was permanently lost: every digest sent during the day —
    // including those displaced by the blackout — was eventually delivered
    // and acked.
    assert_eq!(report.telemetry.pending, 0, "{}", report.render());
    assert_eq!(report.telemetry.delivered, report.telemetry.sent);

    // The promoted backup resumed from a replicated snapshot with a
    // measured, bounded replay gap (checkpoint cadence + detection window).
    assert!(report.replays >= 1);
    assert!(report.max_replay_gap > SimDuration::ZERO);
    assert!(
        report.max_replay_gap <= SimDuration::from_mins(15 + 5 + 2),
        "replay gap {:?} exceeds checkpoint + detection budget",
        report.max_replay_gap
    );

    // After the replay gap is closed, the event stream matches an
    // uninterrupted run record for record: the failover cost detection
    // latency, not analysis results.
    let mut undisturbed = ChaosMission::new(cfg, &FaultPlan::new(SEED));
    let baseline = undisturbed.run();
    assert_eq!(
        mission.events(),
        undisturbed.events(),
        "failover must not change analysis output"
    );
    assert_eq!(report.events, baseline.events);
    assert_eq!(baseline.failovers, 0);
}

#[test]
fn same_seed_and_plan_give_byte_identical_scorecards() {
    let mut cfg = ChaosConfig::icares_day(DAY);
    cfg.telemetry_loss = 0.25; // exercise the seeded random-loss path too
    let plan = FaultPlan::sweep(SEED, 0.7, cfg.span);
    let first = ChaosMission::new(cfg, &plan).run();
    let second = ChaosMission::new(cfg, &plan).run();
    assert_eq!(first, second, "chaos drills must be replayable");
    assert_eq!(first.render().into_bytes(), second.render().into_bytes());
}

/// A primary that crashes and reboots inside the 5-minute heartbeat deadline
/// is never demoted; the records logged while it was down must still reach
/// the analyzer once it serves again.
#[test]
fn sub_deadline_primary_crash_loses_no_event() {
    let cfg = ChaosConfig::icares_day(DAY);
    let noon = SimTime::from_day_hms(DAY, 12, 0, 0);
    let plan = FaultPlan::new(SEED).with(Fault::ReplicaCrash {
        replica: ReplicaId(0),
        at: noon,
        recover_at: Some(noon + SimDuration::from_mins(3)),
    });
    let mut mission = ChaosMission::new(cfg, &plan);
    let report = mission.run();
    assert_eq!(report.failovers, 0, "{}", report.render());
    let mut undisturbed = ChaosMission::new(cfg, &FaultPlan::new(SEED));
    undisturbed.run();
    assert_eq!(mission.events(), undisturbed.events());
}

/// The committed sweep artifact is exactly what the default seed renders.
#[test]
fn committed_chaos_sweep_matches_the_default_seed() {
    let sweep = chaos_sweep(CHAOS_SWEEP_SEED);
    assert_eq!(
        render_chaos_sweep(CHAOS_SWEEP_SEED, &sweep),
        include_str!("../artifacts/chaos_scorecards.md"),
        "rerun `cargo run --release -p ares-bench --bin chaos` and commit the artifact"
    );
}
