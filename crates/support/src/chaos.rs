//! Deterministic chaos: seeded, replayable fault injection for the mission
//! support runtime.
//!
//! The paper demands a support system where "a partial failure or
//! unavailability of some functionality does not hinder the success of the
//! entire mission". That property is only believable if it is *measured
//! under injected faults* — availability, failover counts and MTTR under a
//! known fault schedule are the deliverable, not a hopeful architecture
//! diagram. This module provides the schedule: typed faults pinned to the
//! sim clock ([`Fault`]), bundled into a seeded [`FaultPlan`] (hand-built or
//! swept from an intensity knob), and compiled into a [`FaultScheduler`]
//! that answers point queries during a run. Same seed + same plan ⇒ the
//! same faults at the same instants, every time.

use crate::failover::ReplicaId;
use ares_badge::records::BadgeId;
use ares_simkit::rng::SeedTree;
use ares_simkit::series::{Interval, IntervalSet};
use ares_simkit::time::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One typed fault, scheduled on the sim clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// An analysis replica crashes at `at`; with `recover_at` set it reboots
    /// and starts heartbeating again at that instant.
    ReplicaCrash {
        /// Which replica.
        replica: ReplicaId,
        /// Crash instant.
        at: SimTime,
        /// Reboot instant, if the crash is transient.
        recover_at: Option<SimTime>,
    },
    /// Heartbeats from an otherwise live replica are suppressed (the
    /// failure detector's nightmare: a healthy unit that looks dead).
    HeartbeatLoss {
        /// Which replica.
        replica: ReplicaId,
        /// Suppression window.
        window: Interval,
    },
    /// Bus delivery fails: checkpoint replication offers are dropped.
    BusDrop {
        /// Outage window.
        window: Interval,
    },
    /// Earth-link blackout: messages are *delayed* past the window.
    LinkBlackout {
        /// Blackout window.
        window: Interval,
    },
    /// Earth-link loss: transmissions in the window are *destroyed*.
    LinkLoss {
        /// Lossy window.
        window: Interval,
    },
    /// A badge dies at `at` and stays dead for the run.
    BadgeDeath {
        /// Which badge.
        badge: BadgeId,
        /// Death instant.
        at: SimTime,
    },
    /// The time-sync reference badge is unreachable in the window: no sync
    /// exchanges reach the analyzers.
    ReferenceOutage {
        /// Outage window.
        window: Interval,
    },
}

impl Fault {
    /// A short stable tag for signatures and logs.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::ReplicaCrash { .. } => "replica-crash",
            Fault::HeartbeatLoss { .. } => "heartbeat-loss",
            Fault::BusDrop { .. } => "bus-drop",
            Fault::LinkBlackout { .. } => "link-blackout",
            Fault::LinkLoss { .. } => "link-loss",
            Fault::BadgeDeath { .. } => "badge-death",
            Fault::ReferenceOutage { .. } => "reference-outage",
        }
    }
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan carrying the seed that derived randomness (telemetry
    /// loss draws, sweeps) will use.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Builder: adds one fault.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Generates a plan over `span` whose fault load scales with
    /// `intensity` ∈ [0, 1]. Fully deterministic in `(seed, intensity,
    /// span)`: the intensity sweep of the `chaos` bench binary replays
    /// byte-identically.
    #[must_use]
    pub fn sweep(seed: u64, intensity: f64, span: Interval) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let tree = SeedTree::new(seed).child("chaos");
        let mut plan = FaultPlan::new(seed);
        let span_secs = span.duration().as_secs_f64();
        let at_frac = |frac: f64| span.start + SimDuration::from_secs_f64(span_secs * frac);

        // Replica crashes: up to one per backup tier, transient.
        let mut rng = tree.stream("crash");
        let crashes = (intensity * 3.0).round() as usize;
        for (i, _) in (0..crashes).enumerate() {
            let at = at_frac(rng.gen_range(0.2..0.7));
            let outage_h = rng.gen_range(1.0..4.0);
            plan = plan.with(Fault::ReplicaCrash {
                replica: ReplicaId(i as u8),
                at,
                recover_at: Some(at + SimDuration::from_secs_f64(outage_h * 3600.0)),
            });
        }

        // Heartbeat suppression on a healthy replica.
        let mut rng = tree.stream("heartbeat");
        if intensity >= 0.5 {
            let start = at_frac(rng.gen_range(0.1..0.8));
            let window =
                Interval::new(start, start + SimDuration::from_mins(rng.gen_range(10..45)));
            plan = plan.with(Fault::HeartbeatLoss {
                replica: ReplicaId(2),
                window,
            });
        }

        // One blackout whose length scales with intensity, plus a lossy
        // window at high intensity.
        let mut rng = tree.stream("link");
        if intensity > 0.0 {
            let start = at_frac(rng.gen_range(0.3..0.6));
            let hours = 0.5 + 2.5 * intensity;
            plan = plan.with(Fault::LinkBlackout {
                window: Interval::new(start, start + SimDuration::from_secs_f64(hours * 3600.0)),
            });
        }
        if intensity >= 0.75 {
            let start = at_frac(rng.gen_range(0.05..0.25));
            plan = plan.with(Fault::LinkLoss {
                window: Interval::new(start, start + SimDuration::from_mins(rng.gen_range(30..90))),
            });
        }

        // Replication fabric outage.
        let mut rng = tree.stream("bus");
        if intensity >= 0.5 {
            let start = at_frac(rng.gen_range(0.4..0.8));
            plan = plan.with(Fault::BusDrop {
                window: Interval::new(start, start + SimDuration::from_mins(rng.gen_range(15..60))),
            });
        }

        // Badge deaths and a reference outage.
        let mut rng = tree.stream("badge");
        let deaths = (intensity * 2.0).floor() as usize;
        for i in 0..deaths {
            plan = plan.with(Fault::BadgeDeath {
                badge: BadgeId(i as u8 * 3 + 1),
                at: at_frac(rng.gen_range(0.3..0.9)),
            });
        }
        if intensity >= 0.9 {
            let start = at_frac(rng.gen_range(0.5..0.7));
            plan = plan.with(Fault::ReferenceOutage {
                window: Interval::new(
                    start,
                    start + SimDuration::from_mins(rng.gen_range(30..120)),
                ),
            });
        }
        plan
    }

    /// A stable one-line summary: seed plus fault counts by kind. Goes into
    /// the reliability report header so an artifact names the schedule that
    /// produced it.
    #[must_use]
    pub fn signature(&self) -> String {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in &self.faults {
            *counts.entry(f.kind()).or_default() += 1;
        }
        let body = counts
            .iter()
            .map(|(k, n)| format!("{k}x{n}"))
            .collect::<Vec<_>>()
            .join(" ");
        format!(
            "seed=0x{:X} faults={} [{}]",
            self.seed,
            self.faults.len(),
            body
        )
    }
}

/// The compiled plan: per-entity interval sets answering point queries in
/// `O(log n)` during a run.
#[derive(Debug, Clone, Default)]
pub struct FaultScheduler {
    crashed: BTreeMap<ReplicaId, IntervalSet>,
    heartbeat_lost: BTreeMap<ReplicaId, IntervalSet>,
    bus_drop: IntervalSet,
    blackouts: IntervalSet,
    link_loss: IntervalSet,
    badge_dead_from: BTreeMap<BadgeId, SimTime>,
    reference_outage: IntervalSet,
}

impl FaultScheduler {
    /// Compiles a plan. Open-ended crashes are closed at `horizon` (queries
    /// beyond the horizon treat the replica as still down).
    #[must_use]
    pub fn compile(plan: &FaultPlan, horizon: SimTime) -> Self {
        let mut sched = FaultScheduler::default();
        for fault in plan.faults() {
            match fault {
                Fault::ReplicaCrash {
                    replica,
                    at,
                    recover_at,
                } => {
                    let end = recover_at.unwrap_or(horizon).max(*at);
                    sched
                        .crashed
                        .entry(*replica)
                        .or_default()
                        .insert(Interval::new(*at, end));
                }
                Fault::HeartbeatLoss { replica, window } => {
                    sched
                        .heartbeat_lost
                        .entry(*replica)
                        .or_default()
                        .insert(*window);
                }
                Fault::BusDrop { window } => sched.bus_drop.insert(*window),
                Fault::LinkBlackout { window } => sched.blackouts.insert(*window),
                Fault::LinkLoss { window } => sched.link_loss.insert(*window),
                Fault::BadgeDeath { badge, at } => {
                    let t = sched.badge_dead_from.entry(*badge).or_insert(*at);
                    *t = (*t).min(*at);
                }
                Fault::ReferenceOutage { window } => sched.reference_outage.insert(*window),
            }
        }
        sched
    }

    /// Whether the replica's process is running at `t`.
    #[must_use]
    pub fn replica_alive(&self, replica: ReplicaId, t: SimTime) -> bool {
        !self
            .crashed
            .get(&replica)
            .is_some_and(|set| set.contains(t))
    }

    /// Whether a heartbeat emitted by the replica at `t` reaches the
    /// failure detector (requires the process alive *and* no suppression).
    #[must_use]
    pub fn heartbeat_delivered(&self, replica: ReplicaId, t: SimTime) -> bool {
        self.replica_alive(replica, t)
            && !self
                .heartbeat_lost
                .get(&replica)
                .is_some_and(|set| set.contains(t))
    }

    /// Whether checkpoint replication over the bus fails at `t`.
    #[must_use]
    pub fn bus_drop_active(&self, t: SimTime) -> bool {
        self.bus_drop.contains(t)
    }

    /// Earth-link blackout windows (delays).
    #[must_use]
    pub fn blackouts(&self) -> &IntervalSet {
        &self.blackouts
    }

    /// Earth-link loss windows (destruction).
    #[must_use]
    pub fn link_loss(&self) -> &IntervalSet {
        &self.link_loss
    }

    /// Whether the badge is still alive at `t`.
    #[must_use]
    pub fn badge_alive(&self, badge: BadgeId, t: SimTime) -> bool {
        self.badge_dead_from.get(&badge).is_none_or(|&at| t < at)
    }

    /// Whether the sync reference badge is reachable at `t`.
    #[must_use]
    pub fn reference_available(&self, t: SimTime) -> bool {
        !self.reference_outage.contains(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(day: u32, h: u32, m: u32) -> SimTime {
        SimTime::from_day_hms(day, h, m, 0)
    }

    fn day_span(day: u32) -> Interval {
        Interval::new(t(day, 0, 0), t(day + 1, 0, 0))
    }

    #[test]
    fn scheduler_answers_point_queries() {
        let plan = FaultPlan::new(7)
            .with(Fault::ReplicaCrash {
                replica: ReplicaId(0),
                at: t(3, 12, 0),
                recover_at: Some(t(3, 15, 0)),
            })
            .with(Fault::HeartbeatLoss {
                replica: ReplicaId(1),
                window: Interval::new(t(3, 9, 0), t(3, 9, 30)),
            })
            .with(Fault::BadgeDeath {
                badge: BadgeId(2),
                at: t(3, 14, 0),
            })
            .with(Fault::LinkBlackout {
                window: Interval::new(t(3, 10, 0), t(3, 12, 0)),
            });
        let sched = FaultScheduler::compile(&plan, t(4, 0, 0));
        assert!(sched.replica_alive(ReplicaId(0), t(3, 11, 59)));
        assert!(!sched.replica_alive(ReplicaId(0), t(3, 12, 0)));
        assert!(!sched.replica_alive(ReplicaId(0), t(3, 14, 59)));
        assert!(sched.replica_alive(ReplicaId(0), t(3, 15, 0)));
        // Alive but mute: the detector sees nothing, the process runs.
        assert!(sched.replica_alive(ReplicaId(1), t(3, 9, 15)));
        assert!(!sched.heartbeat_delivered(ReplicaId(1), t(3, 9, 15)));
        assert!(sched.heartbeat_delivered(ReplicaId(1), t(3, 9, 30)));
        // Crashed implies undelivered.
        assert!(!sched.heartbeat_delivered(ReplicaId(0), t(3, 13, 0)));
        assert!(sched.badge_alive(BadgeId(2), t(3, 13, 59)));
        assert!(!sched.badge_alive(BadgeId(2), t(3, 14, 0)));
        assert!(sched.badge_alive(BadgeId(9), t(3, 23, 0)));
        assert!(sched.blackouts().contains(t(3, 11, 0)));
    }

    #[test]
    fn open_ended_crash_lasts_to_horizon() {
        let plan = FaultPlan::new(1).with(Fault::ReplicaCrash {
            replica: ReplicaId(2),
            at: t(5, 6, 0),
            recover_at: None,
        });
        let sched = FaultScheduler::compile(&plan, t(6, 0, 0));
        assert!(!sched.replica_alive(ReplicaId(2), t(5, 23, 59)));
    }

    #[test]
    fn sweep_is_deterministic_and_scales() {
        let span = day_span(3);
        let a = FaultPlan::sweep(0xDEAD, 0.5, span);
        let b = FaultPlan::sweep(0xDEAD, 0.5, span);
        assert_eq!(a, b, "same inputs ⇒ same plan");
        assert_eq!(a.signature(), b.signature());
        let calm = FaultPlan::sweep(0xDEAD, 0.0, span);
        let storm = FaultPlan::sweep(0xDEAD, 1.0, span);
        assert!(calm.faults().len() < a.faults().len());
        assert!(a.faults().len() < storm.faults().len());
        assert_eq!(calm.faults().len(), 0, "zero intensity injects nothing");
        // Every swept fault lies inside (or starts inside) the span.
        for f in storm.faults() {
            let start = match f {
                Fault::ReplicaCrash { at, .. } | Fault::BadgeDeath { at, .. } => *at,
                Fault::HeartbeatLoss { window, .. }
                | Fault::BusDrop { window }
                | Fault::LinkBlackout { window }
                | Fault::LinkLoss { window }
                | Fault::ReferenceOutage { window } => window.start,
            };
            assert!(span.contains(start), "{f:?} outside {span:?}");
        }
    }

    #[test]
    fn signature_is_stable_and_descriptive() {
        let plan = FaultPlan::new(0xBEEF)
            .with(Fault::LinkBlackout {
                window: Interval::new(t(2, 10, 0), t(2, 12, 0)),
            })
            .with(Fault::ReplicaCrash {
                replica: ReplicaId(0),
                at: t(2, 12, 0),
                recover_at: None,
            });
        assert_eq!(
            plan.signature(),
            "seed=0xBEEF faults=2 [link-blackoutx1 replica-crashx1]"
        );
    }
}
