//! End-to-end drill for the multi-tenant streaming ingest service: kill a
//! shard's primary mid-day, let the failure detector promote a backup, and
//! prove that recovery from the checkpoint vault plus WAL replay yields a
//! `MissionAnalysis` **byte-identical** to an unfaulted run — and to the
//! offline batch engine on the same recorded day. A property test repeats
//! the drill on a small synthetic two-day feed at random crash times, with
//! and without checkpoint-dropping bus outages. Another serves one synthetic
//! day at random checkpoint cadences with one scan delayed: the scans a
//! checkpoint seal solves ahead must leave the analysis byte-identical to the
//! batch engine, and a delayed scan that crosses a seal must fall back.

use ares::badge::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares::badge::telemetry::TelemetryStore;
use ares::habitat::beacons::{BeaconDeployment, BeaconId};
use ares::habitat::floorplan::FloorPlan;
use ares::habitat::rooms::RoomId;
use ares::icares::MissionRunner;
use ares::simkit::series::Interval;
use ares::simkit::time::{SimDuration, SimTime};
use ares::sociometrics::engine::{analyze_day_stores, EngineMetrics, MissionContext};
use ares::sociometrics::pipeline::MissionAnalysis;
use ares::support::bus::Bus;
use ares::support::chaos::{Fault, FaultPlan};
use ares::support::failover::ReplicaId;
use ares::support::ingest::{
    wire_feed, BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, TelemetryRecord,
    TenantId,
};
use proptest::prelude::*;
use std::sync::OnceLock;

const DAY: u32 = 3;

/// Streams the feed to two tenants (one per shard) and closes the day.
fn drive(
    ctx: &MissionContext,
    feed: &[(BadgeId, TelemetryRecord)],
    plan: &FaultPlan,
) -> IngestRunReport {
    let cfg = IngestConfig {
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(DAY)
    };
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for &(badge, ref record) in feed {
        assert!(server.submit(TenantId(0), badge, record.clone()));
        assert!(server.submit(TenantId(1), badge, record.clone()));
    }
    let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
    server.end_day(TenantId(0), DAY, day_end);
    server.end_day(TenantId(1), DAY, day_end);
    server.finish()
}

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

#[test]
fn killed_shard_recovers_byte_identical_to_unfaulted_run() {
    let runner = MissionRunner::icares();
    let ctx = runner.pipeline().context().clone();
    let stores = runner.record_day_stores(DAY);
    let feed = wire_feed(&stores);
    assert!(feed.len() > 100_000, "a real day: {} records", feed.len());

    let cfg = IngestConfig::icares_day(DAY);
    // Kill shard 0's initial primary at noon, permanently. Shard 1 (tenant 1)
    // runs the whole day unfaulted and doubles as the in-run control.
    let plan = FaultPlan::new(7).with(Fault::ReplicaCrash {
        replica: cfg.replica(0, 0),
        at: SimTime::from_day_hms(DAY, 12, 0, 0),
        recover_at: None,
    });

    let baseline = drive(&ctx, &feed, &FaultPlan::new(7));
    let faulted = drive(&ctx, &feed, &plan);

    // The drill actually happened: a failover, a vault restore, WAL replay.
    let shard0 = &faulted.shards[0];
    assert!(shard0.failovers >= 1, "no failover on the killed shard");
    assert!(shard0.replays >= 1, "promotion must restore from the vault");
    assert!(shard0.wal_replayed > 0, "promotion must replay the WAL gap");
    assert!(
        shard0.checkpoints >= 1,
        "the primary checkpointed before dying"
    );
    assert_eq!(faulted.shards[1].failovers, 0, "shard 1 untouched");

    // Byte identity: the recovered tenant's analysis equals the unfaulted
    // run's, structurally and on the wire.
    for tenant in [TenantId(0), TenantId(1)] {
        let base = baseline.tenant(tenant).expect("baseline tenant");
        let fault = faulted.tenant(tenant).expect("faulted tenant");
        assert_eq!(
            base.records, fault.records,
            "tenant {tenant:?} applied-record counts diverged"
        );
        assert_eq!(
            base.analysis, fault.analysis,
            "tenant {tenant:?} analysis diverged after recovery"
        );
        assert_eq!(
            rendered(&base.analysis),
            rendered(&fault.analysis),
            "tenant {tenant:?} serialized bytes diverged"
        );
    }

    // And both agree with the offline batch engine on the same stores: the
    // streaming front door is a transport, not a different analysis.
    let mut metrics = EngineMetrics::new();
    let mut batch = MissionAnalysis::new(&ctx.plan);
    batch.absorb(analyze_day_stores(&ctx, DAY, &stores, &mut metrics));
    let streamed = &faulted.tenant(TenantId(0)).expect("tenant 0").analysis;
    assert_eq!(
        rendered(&batch),
        rendered(streamed),
        "streamed analysis diverged from batch"
    );
}

/// The two mission days of the synthetic feed.
const SYNTH_DAYS: [u32; 2] = [2, 3];
/// Crew badges of the synthetic feed.
const SYNTH_BADGES: u8 = 4;

/// One synthetic mission day: its records in arrival order.
type SynthDay = (u32, Vec<(BadgeId, TelemetryRecord)>);

/// A small deterministic two-day feed: scans, audio and IMU every two
/// minutes from 07:00 to 22:00, env and proximity every ten, sync every half
/// hour, and IR contacts between badge pairs whose mirrored copy arrives four
/// minutes late, out of order in its column.
fn synthetic_feed() -> &'static [SynthDay] {
    static FEED: OnceLock<Vec<SynthDay>> = OnceLock::new();
    FEED.get_or_init(|| SYNTH_DAYS.into_iter().map(synthetic_day).collect())
}

fn synthetic_day(day: u32) -> SynthDay {
    let mut arrivals: Vec<(SimTime, BadgeId, TelemetryRecord)> = Vec::new();
    for slot in 0..450u32 {
        let t = SimTime::from_day_hms(day, 7, 0, 0) + SimDuration::from_mins(2 * i64::from(slot));
        for b in 0..SYNTH_BADGES {
            let badge = BadgeId(b);
            let k = slot + u32::from(b) * 37;
            let room = u8::try_from((slot / 45 + u32::from(b)) % 9).expect("small");
            let voiced = k % 3 == 0;
            let mut records = vec![
                TelemetryRecord::Scan(BeaconScan {
                    t_local: t,
                    hits: vec![
                        (BeaconId(3 * room), -55.0 - f64::from(k % 7)),
                        (BeaconId(3 * room + 1), -70.0 - f64::from(k % 5)),
                    ],
                }),
                TelemetryRecord::Audio(AudioFrame {
                    t_local: t,
                    level_db: 45.0 + f64::from(k % 11),
                    voiced,
                    f0_hz: voiced.then_some(120.0 + f64::from(b) * 20.0),
                }),
                TelemetryRecord::Imu(ImuSample {
                    t_local: t,
                    accel_var: 0.05 + f64::from(k % 9) * 0.1,
                    accel_mean: 9.81,
                    step_hz: (k % 9 > 6).then_some(1.8),
                }),
            ];
            if slot % 5 == 0 {
                records.push(TelemetryRecord::Env(EnvSample {
                    t_local: t,
                    temperature_c: 21.0 + f64::from(k % 4) * 0.25,
                    pressure_hpa: 1000.0,
                    light_lux: 300.0,
                }));
                records.push(TelemetryRecord::Proximity(ProximityObs {
                    t_local: t,
                    other: BadgeId((b + 1) % SYNTH_BADGES),
                    rssi: -60.0 - f64::from(k % 13),
                }));
            }
            if slot % 15 == 0 {
                records.push(TelemetryRecord::Sync(SyncSample {
                    t_local: t,
                    t_reference: t + SimDuration::from_secs(i64::from(b) + 1),
                }));
            }
            if slot % 3 == 0 && b % 2 == 0 {
                let other = BadgeId(b + 1);
                records.push(TelemetryRecord::Ir(IrContact { t_local: t, other }));
                let mirrored = IrContact {
                    t_local: t,
                    other: badge,
                };
                arrivals.push((
                    t + SimDuration::from_mins(4),
                    other,
                    TelemetryRecord::Ir(mirrored),
                ));
            }
            arrivals.extend(records.into_iter().map(|r| (t, badge, r)));
        }
    }
    arrivals.sort_by_key(|&(at, _, _)| at);
    (day, arrivals.into_iter().map(|(_, b, r)| (b, r)).collect())
}

/// Streams the synthetic feed to two tenants on one shard with a
/// five-minute checkpoint cadence, closing each day at the next midnight.
fn drive_synthetic(ctx: &MissionContext, plan: &FaultPlan) -> IngestRunReport {
    let start = SimTime::from_day_hms(SYNTH_DAYS[0], 0, 0, 0);
    let cfg = IngestConfig {
        shards: 1,
        policy: BackpressurePolicy::Block,
        span: Interval::new(start, start + SimDuration::from_hours(48)),
        checkpoint_every: SimDuration::from_mins(5),
        ..IngestConfig::icares_day(SYNTH_DAYS[0])
    };
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for (day, records) in synthetic_feed() {
        for (badge, record) in records {
            assert!(server.submit(TenantId(0), *badge, record.clone()));
            assert!(server.submit(TenantId(1), *badge, record.clone()));
        }
        let at = SimTime::from_day_hms(day + 1, 0, 0, 0);
        server.end_day(TenantId(0), *day, at);
        server.end_day(TenantId(1), *day, at);
    }
    server.finish()
}

/// The unfaulted synthetic run, shared across property cases.
fn synthetic_baseline() -> &'static (MissionContext, IngestRunReport) {
    static BASELINE: OnceLock<(MissionContext, IngestRunReport)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let ctx = MissionContext::icares();
        let report = drive_synthetic(&ctx, &FaultPlan::new(11));
        (ctx, report)
    })
}

#[test]
fn synthetic_feed_ingests_like_the_batch_engine() {
    let (ctx, baseline) = synthetic_baseline();
    // The batch engine over stores fed the same records in the same arrival
    // order, mirrored IR contacts out of order included.
    let mut metrics = EngineMetrics::new();
    let mut batch = MissionAnalysis::new(&ctx.plan);
    for (day, records) in synthetic_feed() {
        let mut stores: Vec<TelemetryStore> = (0..SYNTH_BADGES)
            .map(|b| TelemetryStore::new(BadgeId(b)))
            .collect();
        for (badge, record) in records {
            record.push_into(&mut stores[usize::from(badge.0)]);
        }
        batch.absorb(analyze_day_stores(ctx, *day, &stores, &mut metrics));
    }
    assert!(baseline.shards[0].checkpoints > 100, "short cadence ran");
    for tenant in [TenantId(0), TenantId(1)] {
        let streamed = baseline.tenant(tenant).expect("tenant served");
        assert_eq!(streamed.days, 2);
        assert_eq!(rendered(&batch), rendered(&streamed.analysis));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill the shard's primary at a random instant of the two-day feed —
    /// before, across or after the first day end — optionally under a bus
    /// outage that drops checkpoints, so the backup restores an older vault
    /// snapshot and replays a longer WAL. With a reboot delay the primary
    /// comes back: under the 5-minute heartbeat deadline it is never demoted
    /// and must apply what was logged while it was down. Every tenant's final
    /// analysis must match the unfaulted run byte for byte.
    #[test]
    fn shard_recovers_byte_identical_at_any_crash_time(
        crash_min in 0i64..2_400,
        outage in prop::option::of((0i64..2_400, 1i64..720)),
        // Under the deadline (30 s – 5 min) or over it (5 min – 2 h).
        reboot_s in prop::option::of(
            (prop::bool::ANY, 30i64..300, 300i64..7_200)
                .prop_map(|(short, under, over)| if short { under } else { over }),
        ),
    ) {
        let (ctx, baseline) = synthetic_baseline();
        let origin = SimTime::from_day_hms(SYNTH_DAYS[0], 6, 0, 0);
        let plan = crash_plan(11, origin, crash_min, outage, reboot_s);
        let faulted = drive_synthetic(ctx, &plan);
        if reboot_s.is_none() {
            prop_assert_eq!(faulted.shards[0].failovers, 1, "the crash was survived");
        }
        for tenant in [TenantId(0), TenantId(1)] {
            let base = baseline.tenant(tenant).expect("baseline tenant");
            let fault = faulted.tenant(tenant).expect("faulted tenant");
            prop_assert_eq!(base.records, fault.records);
            prop_assert_eq!(fault.days, 2);
            prop_assert_eq!(
                rendered(&base.analysis),
                rendered(&fault.analysis),
                "tenant {:?} diverged: crash at +{} min, reboot {:?} s, outage {:?}",
                tenant,
                crash_min,
                reboot_s,
                outage
            );
        }
    }
}

/// Kills the one shard's initial primary `crash_min` minutes after
/// `origin`, rebooting it `reboot_s` seconds later if given, optionally
/// under a bus outage `(start, length)` in minutes after `origin` that drops
/// checkpoints.
fn crash_plan(
    seed: u64,
    origin: SimTime,
    crash_min: i64,
    outage: Option<(i64, i64)>,
    reboot_s: Option<i64>,
) -> FaultPlan {
    let at = origin + SimDuration::from_mins(crash_min);
    let mut plan = FaultPlan::new(seed).with(Fault::ReplicaCrash {
        replica: ReplicaId(0), // the one shard's initial primary
        at,
        recover_at: reboot_s.map(|s| at + SimDuration::from_secs(s)),
    });
    if let Some((from, len)) = outage {
        let from = origin + SimDuration::from_mins(from);
        plan = plan.with(Fault::BusDrop {
            window: Interval::new(from, from + SimDuration::from_mins(len)),
        });
    }
    plan
}

/// The synthetic feed's first day with every scan hearing all beacons of a
/// real room at RSSI that changes scan to scan, and a second such scan a
/// minute later: in-room positions then depend on the smoothing window a
/// solve carries across segments, and with a fix a minute each badge counts
/// as carried by its nominal owner, so positions reach the heatmaps.
fn located_day() -> &'static SynthDay {
    static DAY: OnceLock<SynthDay> = OnceLock::new();
    DAY.get_or_init(|| {
        let beacons = BeaconDeployment::icares(&FloorPlan::lunares());
        let (day, feed) = &synthetic_feed()[0];
        let mut located = Vec::with_capacity(feed.len() * 2);
        for (badge, record) in feed {
            let TelemetryRecord::Scan(scan) = record else {
                located.push((*badge, record.clone()));
                continue;
            };
            let room = RoomId::FIG2[usize::from(scan.hits[0].0 .0 / 3) % RoomId::FIG2.len()];
            for (i, t_local) in [scan.t_local, scan.t_local + SimDuration::from_mins(1)]
                .into_iter()
                .enumerate()
            {
                let hits = beacons
                    .in_room(room)
                    .enumerate()
                    .map(|(k, b)| (b.id, scan.hits[(k + i) % 2].1 - 4.0 * k as f64))
                    .collect();
                let scan = BeaconScan { t_local, hits };
                located.push((*badge, TelemetryRecord::Scan(scan)));
            }
        }
        (*day, located)
    })
}

/// Serves one day's arrivals to two tenants on one shard under a checkpoint
/// cadence of `cadence` and the faults of `plan`, closing the day at the
/// next midnight.
fn serve_day(
    ctx: &MissionContext,
    day: u32,
    arrivals: &[(BadgeId, TelemetryRecord)],
    cadence: SimDuration,
    plan: &FaultPlan,
) -> IngestRunReport {
    let cfg = IngestConfig {
        shards: 1,
        policy: BackpressurePolicy::Block,
        checkpoint_every: cadence,
        ..IngestConfig::icares_day(day)
    };
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for (badge, record) in arrivals {
        assert!(server.submit(TenantId(0), *badge, record.clone()));
        assert!(server.submit(TenantId(1), *badge, record.clone()));
    }
    let at = SimTime::from_day_hms(day + 1, 0, 0, 0);
    server.end_day(TenantId(0), day, at);
    server.end_day(TenantId(1), day, at);
    server.finish()
}

/// The arrival indexes after which tenant 0's records are sealed: the shard
/// clock is the latest local time seen, and a checkpoint follows the first
/// record that brings it to the cadence deadline, which then re-arms past
/// the clock.
fn seals_after(
    arrivals: &[(BadgeId, TelemetryRecord)],
    start: SimTime,
    cadence: SimDuration,
) -> Vec<usize> {
    let (mut clock, mut next) = (start, start + cadence);
    let mut seals = Vec::new();
    for (i, (_, record)) in arrivals.iter().enumerate() {
        clock = clock.max(record.t_local());
        if clock >= next {
            while next <= clock {
                next += cadence;
            }
            seals.push(i);
        }
    }
    seals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One scan of the synthetic day arrives up to three hours late, under a
    /// checkpoint cadence of 1–120 minutes. Each tenant's analysis must equal
    /// the batch engine over the same arrivals byte for byte. When a seal
    /// falls after a later scan of the same badge arrived but before the
    /// delayed one did, the sorted join would interleave the delayed scan
    /// into solved rows: that badge-day falls back, and is counted.
    #[test]
    fn presolved_scans_match_the_batch_engine_at_any_cadence(
        cadence_min in 1i64..121,
        pick in 0usize..100_000,
        delay_min in 1i64..181,
    ) {
        let ctx = &synthetic_baseline().0;
        let (day, feed) = located_day();
        let is_scan = |r: &TelemetryRecord| matches!(r, TelemetryRecord::Scan(_));
        let scans: Vec<usize> = (0..feed.len()).filter(|&i| is_scan(&feed[i].1)).collect();
        let mut arrivals = feed.clone();
        let (badge, scan) = arrivals.remove(scans[pick % scans.len()]);
        let t_scan = scan.t_local();
        let due = t_scan + SimDuration::from_mins(delay_min);
        let to = arrivals
            .iter()
            .position(|(_, r)| r.t_local() > due)
            .unwrap_or(arrivals.len());
        arrivals.insert(to, (badge, scan));

        let cadence = SimDuration::from_mins(cadence_min);
        let report = serve_day(ctx, *day, &arrivals, cadence, &FaultPlan::new(5));

        let mut stores: Vec<TelemetryStore> = (0..SYNTH_BADGES)
            .map(|b| TelemetryStore::new(BadgeId(b)))
            .collect();
        for (b, record) in &arrivals {
            record.push_into(&mut stores[usize::from(b.0)]);
        }
        let mut batch = MissionAnalysis::new(&ctx.plan);
        batch.absorb(analyze_day_stores(ctx, *day, &stores, &mut EngineMetrics::new()));
        for tenant in [TenantId(0), TenantId(1)] {
            let served = report.tenant(tenant).expect("tenant served");
            prop_assert!(
                rendered(&batch) == rendered(&served.analysis),
                "tenant {:?} diverged from the batch engine: cadence {} min, scan at {} delayed {} min",
                tenant,
                cadence_min,
                t_scan,
                delay_min
            );
        }

        // Tenant 1's copy of record `i` arrives just after tenant 0's, so a
        // seal after index `q` holds tenant 0's records up to `q` and tenant
        // 1's up to `q - 1`.
        let later = arrivals
            .iter()
            .position(|(b, r)| *b == badge && is_scan(r) && r.t_local() > t_scan)
            .unwrap_or(arrivals.len());
        let start = SimTime::from_day_hms(*day, 0, 0, 0);
        let seals = seals_after(&arrivals, start, cadence);
        let crossed0 = seals.iter().any(|&q| later <= q && q < to);
        let crossed1 = seals.iter().any(|&q| later < q && q <= to);
        let shard = &report.shards[0];
        prop_assert_eq!(
            shard.presolve_fallbacks,
            u64::from(crossed0) + u64::from(crossed1),
            "cadence {} min, scan at {} delayed {} min",
            cadence_min,
            t_scan,
            delay_min
        );
        if crossed0 {
            prop_assert!(shard.presolve_fallbacks >= 1);
        }
        prop_assert!(shard.scans_presolved > 0, "seals solved scans ahead");
    }
}

/// The located day served unfaulted at a five-minute cadence, shared across
/// property cases.
fn located_baseline() -> &'static IngestRunReport {
    static BASELINE: OnceLock<IngestRunReport> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (day, feed) = located_day();
        let ctx = &synthetic_baseline().0;
        serve_day(
            ctx,
            *day,
            feed,
            SimDuration::from_mins(5),
            &FaultPlan::new(5),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The crash-time drill on the located day, whose scans resolve rooms
    /// and in-room positions that depend on the smoothing window a seal
    /// carries: kill the primary at a random instant, optionally reboot it
    /// and drop checkpoints under a bus outage. The backup resumes solving
    /// from the restored segments' windows, and every tenant's analysis must
    /// match the unfaulted run byte for byte.
    #[test]
    fn shard_recovers_byte_identical_at_any_crash_time_on_a_located_day(
        crash_min in 0i64..1_020,
        outage in prop::option::of((0i64..1_020, 1i64..720)),
        reboot_s in prop::option::of(
            (prop::bool::ANY, 30i64..300, 300i64..7_200)
                .prop_map(|(short, under, over)| if short { under } else { over }),
        ),
    ) {
        let ctx = &synthetic_baseline().0;
        let baseline = located_baseline();
        let (day, feed) = located_day();
        let origin = SimTime::from_day_hms(*day, 6, 0, 0);
        let plan = crash_plan(5, origin, crash_min, outage, reboot_s);
        let faulted = serve_day(ctx, *day, feed, SimDuration::from_mins(5), &plan);
        if reboot_s.is_none() {
            prop_assert_eq!(faulted.shards[0].failovers, 1, "the crash was survived");
        }
        for tenant in [TenantId(0), TenantId(1)] {
            let base = baseline.tenant(tenant).expect("baseline tenant");
            let fault = faulted.tenant(tenant).expect("faulted tenant");
            prop_assert!(
                base.analysis.heatmaps.iter().any(|h| h.total_seconds() > 0.0),
                "the located day reaches the heatmaps"
            );
            prop_assert_eq!(base.records, fault.records);
            prop_assert_eq!(fault.days, 1);
            prop_assert_eq!(
                rendered(&base.analysis),
                rendered(&fault.analysis),
                "tenant {:?} diverged: crash at +{} min, reboot {:?} s, outage {:?}",
                tenant,
                crash_min,
                reboot_s,
                outage
            );
        }
    }
}
