//! Property tests for the support runtime's protocols.

use ares_simkit::series::Interval;
use ares_simkit::time::{SimDuration, SimTime};
use ares_support::earthlink::{Command, ConflictPolicy, Delivery, EarthLink, ONE_WAY_DELAY};
use ares_support::failover::{CheckpointVault, FailoverEvent, ReplicaId, ReplicatedService, Role};
use ares_support::privacy::{DutyLevel, PrivacyGovernor, SensorClass};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn failover_always_keeps_at_most_one_primary(
        script in prop::collection::vec((0u8..4, 0i64..2_000), 1..80),
    ) {
        // script: (replica that heartbeats [3 = nobody], at time offset)
        let mut svc = ReplicatedService::new(
            "svc",
            &[ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            SimDuration::from_secs(60),
            SimTime::EPOCH,
        );
        let mut t = SimTime::EPOCH;
        for &(who, dt) in &script {
            t += SimDuration::from_secs(dt);
            if who < 3 {
                svc.heartbeat(ReplicaId(who), t);
            }
            svc.tick(t);
            let primaries = [ReplicaId(0), ReplicaId(1), ReplicaId(2)]
                .iter()
                .filter(|&&r| svc.role_of(r) == Some(Role::Primary))
                .count();
            prop_assert!(primaries <= 1, "split brain at {t}");
            // If anyone is alive, someone must be primary.
            let alive = [ReplicaId(0), ReplicaId(1), ReplicaId(2)]
                .iter()
                .filter(|&&r| svc.role_of(r) != Some(Role::Down))
                .count();
            if alive > 0 {
                prop_assert_eq!(primaries, 1, "no primary despite {} alive", alive);
            }
        }
    }

    #[test]
    fn failover_promotion_is_deterministic_under_interleavings(
        script in prop::collection::vec((0u8..4, 0i64..2_000), 1..80),
    ) {
        // The same heartbeat/tick interleaving must produce the same role
        // assignments and the same event log, run after run — promotions
        // follow priority order, never iteration luck.
        let run = || {
            let mut svc = ReplicatedService::new(
                "svc",
                &[ReplicaId(0), ReplicaId(1), ReplicaId(2)],
                SimDuration::from_secs(60),
                SimTime::EPOCH,
            );
            let mut t = SimTime::EPOCH;
            for &(who, dt) in &script {
                t += SimDuration::from_secs(dt);
                if who < 3 {
                    svc.heartbeat(ReplicaId(who), t);
                }
                svc.tick(t);
            }
            let roles: Vec<_> = [ReplicaId(0), ReplicaId(1), ReplicaId(2)]
                .iter()
                .map(|&r| svc.role_of(r))
                .collect();
            (svc.log().to_vec(), roles, svc.primary())
        };
        let (log_a, roles_a, primary_a) = run();
        let (log_b, roles_b, primary_b) = run();
        prop_assert_eq!(log_a.clone(), log_b);
        prop_assert_eq!(roles_a, roles_b);
        prop_assert_eq!(primary_a, primary_b);
        // Whenever a promotion happened, it promoted the highest-priority
        // replica that was not Down at that instant — replay the log and
        // check each promotion against the set of replicas declared failed
        // and not yet rejoined.
        let mut down = std::collections::BTreeSet::new();
        for (at, ev) in &log_a {
            match ev {
                FailoverEvent::Failed(r) => { down.insert(*r); }
                FailoverEvent::Rejoined(r) => { down.remove(r); }
                FailoverEvent::Promoted(p) => {
                    for r in [ReplicaId(0), ReplicaId(1), ReplicaId(2)] {
                        if r == *p { break; }
                        prop_assert!(
                            down.contains(&r),
                            "at {at}: promoted {p:?} while higher-priority {r:?} was up"
                        );
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn failover_log_promotions_follow_failures(
        gaps in prop::collection::vec(30i64..600, 1..20),
    ) {
        let mut svc = ReplicatedService::new(
            "svc",
            &[ReplicaId(0), ReplicaId(1)],
            SimDuration::from_secs(60),
            SimTime::EPOCH,
        );
        let mut t = SimTime::EPOCH;
        for &g in &gaps {
            t += SimDuration::from_secs(g);
            svc.heartbeat(ReplicaId(1), t); // only the backup stays alive
            svc.tick(t);
        }
        // If replica 0 was declared failed, replica 1 must have been promoted
        // at the same instant or later, never before.
        let log = svc.log();
        let failed_at = log.iter().find(|(_, e)| *e == FailoverEvent::Failed(ReplicaId(0)));
        let promoted_at = log.iter().find(|(_, e)| *e == FailoverEvent::Promoted(ReplicaId(1)));
        if let (Some((tf, _)), Some((tp, _))) = (failed_at, promoted_at) {
            prop_assert!(tp >= tf);
        }
    }

    #[test]
    fn vault_latest_is_the_first_offer_at_the_running_max_time(
        offers in prop::collection::vec(0i64..5_000, 1..60),
    ) {
        // Offers arrive in arbitrary (possibly regressing) timestamp order, as
        // from a lagging replica. The vault must always hold the *first* offer
        // made at the running-max timestamp: later equal-time or older offers
        // are rejected, never overwrite.
        let mut vault: CheckpointVault<usize> = CheckpointVault::new();
        let mut expect: Option<(i64, usize)> = None;
        let mut rejected = 0u64;
        for (i, &s) in offers.iter().enumerate() {
            let accepted = vault.offer(SimTime::from_secs(s), i);
            let newer = expect.is_none_or(|(t, _)| s > t);
            prop_assert_eq!(accepted, newer, "offer {} at t={}", i, s);
            if newer {
                expect = Some((s, i));
            } else {
                rejected += 1;
            }
            let (at, &snap) = vault.latest().expect("offered at least once");
            let (et, ei) = expect.expect("tracked");
            prop_assert_eq!(at, SimTime::from_secs(et));
            prop_assert_eq!(snap, ei);
        }
        prop_assert_eq!(vault.offered(), offers.len() as u64);
        prop_assert_eq!(vault.rejected(), rejected);
    }

    #[test]
    fn earthlink_never_delivers_early_and_preserves_everything(
        sends in prop::collection::vec(0i64..10_000, 1..40),
        advances in prop::collection::vec(0i64..40_000, 1..40),
    ) {
        let mut link = EarthLink::new(ConflictPolicy::CrewWins);
        for (i, &s) in sends.iter().enumerate() {
            link.uplink(
                SimTime::from_secs(s),
                Command { id: i as u64, directive: String::new(), based_on_version: 0 },
            );
        }
        let mut sorted = advances.clone();
        sorted.sort_unstable();
        let mut delivered = 0usize;
        for &a in &sorted {
            let now = SimTime::from_secs(a);
            delivered += link.advance(now).len();
            // Deliveries recorded so far all have timestamps ≤ now.
            for (at, _) in link.deliveries() {
                prop_assert!(*at <= now);
            }
        }
        // Nothing delivered before its 20-minute flight time.
        for (at, d) in link.deliveries() {
            let id = match d {
                Delivery::Applied(c) => c.id,
                Delivery::Conflict { command, .. } => command.id,
            };
            let sent = SimTime::from_secs(sends[id as usize]);
            prop_assert!(*at >= sent + ONE_WAY_DELAY);
        }
        // Conservation: delivered + still queued == sent.
        let last = SimTime::from_secs(1_000_000);
        delivered += link.advance(last).len();
        prop_assert_eq!(delivered, sends.len());
    }

    #[test]
    fn privacy_duty_is_deterministic_and_conservative(
        windows in prop::collection::vec((0i64..5_000, 1i64..2_000, prop::bool::ANY), 0..12),
        probe in 0i64..8_000,
    ) {
        let mut g = PrivacyGovernor::icares();
        for &(start, len, suppress) in &windows {
            let w = Interval::new(SimTime::from_secs(start), SimTime::from_secs(start + len));
            if suppress {
                g.suppress("prop", SensorClass::Localization, w);
            } else {
                g.intensify("prop", SensorClass::Localization, w);
            }
        }
        let t = SimTime::from_secs(probe);
        let duty = g.duty(SensorClass::Localization, ares_habitat::rooms::RoomId::Main, t);
        let suppressed_now = windows.iter().any(|&(s, l, sup)| sup && (s..s + l).contains(&probe));
        if suppressed_now {
            prop_assert_eq!(duty, DutyLevel::Off, "suppression must win");
        } else {
            prop_assert_ne!(duty, DutyLevel::Off);
        }
        prop_assert_eq!(g.audit().len(), windows.len());
    }
}
