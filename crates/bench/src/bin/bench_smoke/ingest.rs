//! Sustained throughput and chaos recovery of the multi-tenant streaming
//! ingest service.
//!
//! Flattens the recorded day's per-badge stores into one multiplexed wire
//! feed and pushes it through [`IngestServer`] twice: once clean (the
//! throughput baseline) and once under a fault plan that kills shard 0's
//! primary at noon, forcing a heartbeat-timeout failover, a checkpoint-vault
//! restore and a WAL gap replay mid-day. The two runs' per-tenant
//! `MissionAnalysis` artifacts are compared as serialized bytes: a
//! divergence, or a drill that did not fail over, sets
//! `ingest.recovery_divergent`, which the tier-1 check treats as a build
//! failure — alongside a sustained-records/s floor, so the front door can
//! neither silently corrupt recovery nor silently collapse in throughput.
//!
//! The reliability scorecard — engine stage timings plus per-shard ingest
//! health — goes to `artifacts/ingest_scorecard.txt`.

use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryStore;
use ares_bench::artifact::Ingest;
use ares_simkit::time::SimTime;
use ares_sociometrics::engine::MissionContext;
use ares_sociometrics::report::engine_section_with_ingest;
use ares_support::bus::Bus;
use ares_support::chaos::{Fault, FaultPlan};
use ares_support::ingest::{
    wire_feed, BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, TelemetryRecord,
    TenantId,
};
use std::time::Instant;

/// Streams the feed to two tenants (one per shard), closes the day, and
/// reports both the run outcome and the submit-to-finish wall time.
fn drive(
    ctx: &MissionContext,
    day: u32,
    feed: &[(BadgeId, TelemetryRecord)],
    plan: &FaultPlan,
) -> (IngestRunReport, f64) {
    let cfg = IngestConfig {
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(day)
    };
    let t0 = Instant::now();
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for &(badge, ref record) in feed {
        assert!(server.submit(TenantId(0), badge, record.clone()));
        assert!(server.submit(TenantId(1), badge, record.clone()));
    }
    let day_end = SimTime::from_day_hms(day + 1, 0, 0, 0);
    server.end_day(TenantId(0), day, day_end);
    server.end_day(TenantId(1), day, day_end);
    let report = server.finish();
    (report, t0.elapsed().as_secs_f64())
}

/// Soaks the ingest service with `stores`, the recording of `day`; returns
/// the block and the scorecard.
pub fn run(ctx: &MissionContext, day: u32, stores: &[TelemetryStore]) -> (Ingest, String) {
    let feed = wire_feed(stores);
    let cfg = IngestConfig::icares_day(day);
    // Every record goes to both tenants — one per shard — so the submitted
    // volume is twice the feed, plus the two day ends.
    let submitted = (feed.len() as u64) * 2 + 2;

    eprintln!(
        "ingest: {} records × 2 tenants through {} shards (clean run)…",
        feed.len(),
        cfg.shards
    );
    let (baseline, clean_wall_s) = drive(ctx, day, &feed, &FaultPlan::new(7));

    eprintln!("ingest: same feed, shard 0 primary killed at noon (chaos run)…");
    let plan = FaultPlan::new(7).with(Fault::ReplicaCrash {
        replica: cfg.replica(0, 0),
        at: SimTime::from_day_hms(day, 12, 0, 0),
        recover_at: None,
    });
    let (faulted, chaos_wall_s) = drive(ctx, day, &feed, &plan);

    // Recovery divergence: any tenant whose recovered analysis is not
    // byte-identical to the clean run's.
    let rendered = |report: &IngestRunReport, tenant| {
        let t = report.tenant(tenant).expect("tenant served");
        let analysis = serde_json::to_string(&t.analysis).expect("analysis serializes");
        (t.records, analysis)
    };
    let mut recovery_divergent = false;
    for tenant in [TenantId(0), TenantId(1)] {
        if rendered(&baseline, tenant) != rendered(&faulted, tenant) {
            recovery_divergent = true;
            eprintln!("ingest: tenant {tenant:?} DIVERGED after recovery");
        }
    }
    let drill = &faulted.shards[0];
    if !(drill.failovers >= 1 && drill.replays >= 1 && drill.wal_replayed > 0) {
        // A drill that silently didn't happen must not pass as "no
        // divergence" — surface it through the same tier-1 tripwire.
        recovery_divergent = true;
        eprintln!("ingest: chaos drill did not exercise failover + vault replay");
    }

    let block = Ingest {
        day,
        shards: cfg.shards,
        tenants: 2,
        records_submitted: submitted,
        clean_wall_s,
        sustained_records_per_s: if clean_wall_s > 0.0 {
            submitted as f64 / clean_wall_s
        } else {
            0.0
        },
        chaos_wall_s,
        failovers: faulted.failovers(),
        vault_restores: drill.replays,
        wal_replayed: drill.wal_replayed,
        checkpoints: faulted.shards.iter().map(|s| s.checkpoints).sum(),
        scans_presolved: baseline.shards.iter().map(|s| s.scans_presolved).sum(),
        presolve_fallbacks: baseline.shards.iter().map(|s| s.presolve_fallbacks).sum(),
        records_dropped: faulted.records_dropped(),
        recovery_divergent,
    };
    println!(
        "ingest day {day}: clean {clean_wall_s:.2} s → {:.0} records/s sustained \
         ({submitted} submitted); chaos drill {chaos_wall_s:.2} s, {} failover(s), \
         {} vault restore(s), {} WAL entries replayed, divergent: {recovery_divergent}",
        block.sustained_records_per_s, block.failovers, block.vault_restores, block.wal_replayed,
    );
    // Reliability scorecard: the chaos run's engine stage timings (replays
    // included) plus per-shard ingest health, in mission-report form.
    let scorecard = engine_section_with_ingest(&drill.metrics, &faulted.report_rows());
    (block, scorecard)
}
