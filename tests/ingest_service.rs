//! End-to-end drill for the multi-tenant streaming ingest service: kill a
//! shard's primary mid-day, let the failure detector promote a backup, and
//! prove that recovery from the checkpoint vault plus WAL replay yields a
//! `MissionAnalysis` **byte-identical** to an unfaulted run — and to the
//! offline batch engine on the same recorded day. A property test repeats
//! the drill on a small synthetic two-day feed at random crash times, with
//! and without checkpoint-dropping bus outages.

use ares::badge::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares::badge::telemetry::TelemetryStore;
use ares::habitat::beacons::BeaconId;
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
            record.clone().push_into(&mut stores[usize::from(badge.0)]);
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
        let at = origin + SimDuration::from_mins(crash_min);
        let mut plan = FaultPlan::new(11).with(Fault::ReplicaCrash {
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
