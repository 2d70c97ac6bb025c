//! `ingest_backfill`: one recorded Lunares day, flattened in set-up into a
//! time-ordered multiplexed feed, replayed for two tenants through a
//! 1-shard `IngestServer` with `Block` backpressure, the default 15-minute
//! checkpoint cadence and shard 0's primary killed at noon.
//!
//! One producer submits in a closed loop, as a badge dock backfills its SD
//! card after a link outage: the next record goes as soon as the previous
//! `submit` returns. The real feed rate (about 16 records/s per tenant)
//! would leave the service idle and measure nothing. Producer plus shard is
//! two threads.
//!
//! One operation is one submitted record, plus one per tenant's day-end
//! analysis. A shed record fails; so does a tenant whose recovered
//! `MissionAnalysis` differs, byte for byte, from the offline engine run on
//! the same stores (checked outside the timed region).
//!
//! The traced run alternates untraced and traced replays; a traced replay
//! times every `submit` and samples the queue depth. After the replays it
//! drives a bare `StreamingAnalyzer` over one tenant's feed — the compute
//! floor under the service.

use crate::calib::HostSpeed;
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{change_one_digit, repeat_for, timed_setup, Options, PeakRss};
use ares_badge::records::{BadgeId, BeaconScan, SamplingConfig};
use ares_badge::telemetry::TelemetryStore;
use ares_icares::{MissionRunner, ScenarioConfig};
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::engine::{analyze_day_stores, EngineMetrics, MissionContext};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::streaming::StreamingAnalyzer;
use ares_support::bus::Bus;
use ares_support::chaos::{Fault, FaultPlan};
use ares_support::ingest::{
    BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, TelemetryRecord, TenantId,
};
use std::sync::Arc;
use std::time::Instant;

/// The replayed mission day.
pub const DAY: u32 = 3;
/// The tenants the feed is replayed for, both pinned to the one shard.
const TENANTS: [TenantId; 2] = [TenantId(0), TenantId(1)];
/// Records in one tenant's copy of day 3 under the default seed, recorded
/// with `SamplingConfig::fleet`. Days served are counted in this unit, so a
/// seed whose day holds more records does not read as a slower service.
const NOMINAL_DAY_RECORDS: f64 = 219_232.0;
/// Sample the shard's queue depth every this many submits (traced only).
const DEPTH_EVERY: usize = 256;
/// Host-speed samples before each replay (see [`crate::calib`]): a replay
/// takes seconds, so several, to have enough over a run.
const HOST_SAMPLES: usize = 8;
/// Records per `streaming.apply` span.
const APPLY_CHUNK: usize = 1 << 16;

type Feed = Vec<(BadgeId, TelemetryRecord)>;

/// Set-up builds per run. One records a whole (decimated) day, about
/// 0.2 s, so fewer fit.
const SETUPS: usize = 7;

struct Setup {
    ctx: Arc<MissionContext>,
    stores: Vec<TelemetryStore>,
    feed: Feed,
}

/// Flattens per-badge stores into one multiplexed feed, stably ordered by
/// badge-local time, so re-assembly in the shard reproduces the stores.
fn flatten(stores: &[TelemetryStore]) -> Feed {
    let mut feed = Feed::new();
    for store in stores {
        let v = store.view();
        let b = store.badge;
        feed.extend(v.scan_hits().map(|(t, hits)| {
            let scan = BeaconScan {
                t_local: t,
                hits: hits.to_vec(),
            };
            (b, TelemetryRecord::Scan(scan))
        }));
        feed.extend(v.audio_frames().map(|r| (b, TelemetryRecord::Audio(r))));
        feed.extend(v.imu_samples().map(|r| (b, TelemetryRecord::Imu(r))));
        feed.extend(v.env_samples().map(|r| (b, TelemetryRecord::Env(r))));
        feed.extend(
            v.proximity_obs()
                .map(|r| (b, TelemetryRecord::Proximity(r))),
        );
        feed.extend(v.ir_contacts().map(|r| (b, TelemetryRecord::Ir(r))));
        feed.extend(v.sync_samples().map(|r| (b, TelemetryRecord::Sync(r))));
    }
    feed.sort_by_key(|(_, r)| r.t_local());
    feed
}

fn build(tracer: &Tracer, config: &ScenarioConfig) -> Setup {
    let runner = tracer.span("setup.truth", None, |_| MissionRunner::new(config.clone()));
    tracer.span("setup.fieldcache", None, |_| {
        let _ = runner.world().field_cache();
    });
    let (stores, feed) = tracer.span("setup.feed", None, |p| {
        let stores = tracer.span("recorder.day", p, |_| runner.record_day_stores(DAY));
        let feed = flatten(&stores);
        (stores, feed)
    });
    Setup {
        ctx: runner.pipeline().context_arc(),
        stores,
        feed,
    }
}

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

fn server_config() -> IngestConfig {
    IngestConfig {
        shards: 1,
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(DAY)
    }
}

/// Shard 0's primary dies at noon and stays down.
fn noon_crash(seed: u64, config: &IngestConfig) -> FaultPlan {
    FaultPlan::new(seed).with(Fault::ReplicaCrash {
        replica: config.replica(0, 0),
        at: SimTime::from_day_hms(DAY, 12, 0, 0),
        recover_at: None,
    })
}

/// What one replay measured.
struct Replay {
    traced: bool,
    /// `spawn` to `finish`, seconds.
    wall_s: f64,
    /// Last `end_day` call to `finish` returning, seconds.
    day_end_s: f64,
    submitted: u64,
    shed: u64,
    report: IngestRunReport,
    /// Traced only: nanoseconds blocked in each `submit`, in submit order.
    waits_ns: Vec<u64>,
    /// Traced only: sampled queue depths.
    depths: Vec<f64>,
}

fn replay(setup: &Setup, plan: &FaultPlan, traced: bool, tracer: &Tracer) -> Replay {
    let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
    let mut waits_ns = Vec::with_capacity(if traced { 2 * setup.feed.len() } else { 0 });
    let mut depths = Vec::new();
    let (mut submitted, mut shed) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut t_last = t0;
    let report = tracer.span("ingest.replay", None, |p| {
        let server = tracer.span("ingest.spawn", p, |_| {
            IngestServer::spawn(server_config(), &setup.ctx, Bus::new(), plan)
        });
        tracer.span("ingest.submit", p, |_| {
            for &(badge, ref record) in &setup.feed {
                for tenant in TENANTS {
                    let accepted = if traced {
                        let t = Instant::now();
                        let ok = server.submit(tenant, badge, record.clone());
                        waits_ns.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        if waits_ns.len() % DEPTH_EVERY == 0 {
                            depths.push(server.queue_depth(0) as f64);
                        }
                        ok
                    } else {
                        server.submit(tenant, badge, record.clone())
                    };
                    submitted += 1;
                    shed += u64::from(!accepted);
                }
            }
        });
        tracer.span("ingest.day_end", p, |_| {
            server.end_day(TENANTS[0], DAY, day_end);
            t_last = Instant::now();
            server.end_day(TENANTS[1], DAY, day_end);
            server.finish()
        })
    });
    Replay {
        traced,
        wall_s: t0.elapsed().as_secs_f64(),
        day_end_s: t_last.elapsed().as_secs_f64(),
        submitted,
        shed,
        report,
        waits_ns,
        depths,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let config = ScenarioConfig {
        seed: opts.seed,
        truth_days: DAY,
        sampling: SamplingConfig::fleet(),
        ..ScenarioConfig::default()
    };
    // The producer and the shard keep both threads busy.
    let mut host = HostSpeed::new(2);
    let (setup, setup_s, setups) = timed_setup(SETUPS, || build(&tracer, &config));
    let plan = noon_crash(opts.seed, &server_config());

    // The offline reference: the batch engine over the recorded stores.
    let mut reference = MissionAnalysis::new(&setup.ctx.plan);
    reference.absorb(analyze_day_stores(
        &setup.ctx,
        DAY,
        &setup.stores,
        &mut EngineMetrics::new(),
    ));
    let reference = rendered(&reference);

    let mut out = Outcome::default();
    let mut replays: Vec<Replay> = Vec::new();
    let mut corrupt = opts.corrupt;
    let mut rss = PeakRss::start();
    repeat_for(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        for _ in 0..HOST_SAMPLES {
            host.sample();
        }
        let mut r = replay(&setup, &plan, opts.trace && i % 2 == 1, &tracer);
        // Checks, outside the timed region.
        out.attempted += r.submitted + TENANTS.len() as u64;
        out.failed += r.shed;
        for tenant in TENANTS {
            let mut bytes = r
                .report
                .tenant(tenant)
                .map(|t| rendered(&t.analysis))
                .unwrap_or_default();
            if std::mem::take(&mut corrupt) {
                change_one_digit(&mut bytes);
            }
            out.failed += u64::from(bytes != reference);
        }
        // Keep the counters, not the analyses: a run's peak resident size
        // must not grow with the number of replays that fit in it.
        for shard in &mut r.report.shards {
            shard.tenants.clear();
        }
        replays.push(r);
        rss.end_unit();
    });

    let untraced: Vec<&Replay> = replays.iter().filter(|r| !r.traced).collect();
    let n = untraced.len() as u64;
    // Per reference second (see `crate::calib`).
    let slowdown = host.slowdown();
    let per_s = |f: &dyn Fn(&Replay) -> f64| {
        report::median(&untraced.iter().map(|r| f(r) / r.wall_s).collect::<Vec<_>>()) * slowdown
    };
    let badges = setup
        .stores
        .iter()
        .filter(|s| s.badge != BadgeId::REFERENCE)
        .count() as f64;
    let tenant_days = |r: &Replay| r.submitted as f64 / NOMINAL_DAY_RECORDS;
    out.set("setup_s", setup_s, setups as u64);
    rss.set(&mut out);
    out.set("ingest_records_per_s", per_s(&|r| r.submitted as f64), n);
    out.set("mission_days_per_s", per_s(&tenant_days), n);
    out.set(
        "fleet_badge_days_per_s",
        per_s(&|r| tenant_days(r) * badges),
        n,
    );
    out.set(
        "day_end_latency_s",
        host.ref_s(report::median(
            &untraced.iter().map(|r| r.day_end_s).collect::<Vec<_>>(),
        )),
        n,
    );
    report::host_counts(&mut out, &host);

    if opts.trace {
        layer_metrics(&mut out, &tracer, &setup, &replays);
        out.trace_json = tracer.to_json();
    }
    out
}

/// Longest wait, in ms, among submits of records whose local time is in
/// `[from, to)`; each record is submitted once per tenant.
fn longest_stall_ms(feed: &Feed, waits_ns: &[u64], from: SimTime, to: SimTime) -> f64 {
    let lo = feed.partition_point(|(_, r)| r.t_local() < from) * TENANTS.len();
    let hi = feed.partition_point(|(_, r)| r.t_local() < to) * TENANTS.len();
    waits_ns[lo..hi]
        .iter()
        .max()
        .map_or(0.0, |&w| w as f64 * 1e-6)
}

fn layer_metrics(out: &mut Outcome, tracer: &Tracer, setup: &Setup, replays: &[Replay]) {
    let traced: Vec<&Replay> = replays.iter().filter(|r| r.traced).collect();
    let n = traced.len() as u64;
    let mut waits: Vec<f64> = Vec::new();
    for r in &traced {
        waits.extend(r.waits_ns.iter().map(|&w| w as f64 * 1e-3));
    }
    out.set(
        "ingest.submit_wait_p50_us",
        report::median(&waits),
        waits.len() as u64,
    );
    out.set(
        "ingest.submit_wait_p99_us",
        report::quantile(&waits, 0.99),
        waits.len() as u64,
    );
    let first = setup
        .feed
        .first()
        .map_or(SimTime::EPOCH, |(_, r)| r.t_local());
    let last = setup
        .feed
        .last()
        .map_or(SimTime::EPOCH, |(_, r)| r.t_local());
    let hour = SimDuration::from_hours(1);
    let noon = SimTime::from_day_hms(DAY, 12, 0, 0);
    for (metric, from, to) in [
        ("ingest.stall_first_hour_ms", first, first + hour),
        (
            "ingest.stall_last_hour_ms",
            last - hour,
            last + SimDuration::from_secs(1),
        ),
        ("ingest.stall_after_crash_ms", noon, noon + hour),
    ] {
        let per_replay: Vec<f64> = traced
            .iter()
            .map(|r| longest_stall_ms(&setup.feed, &r.waits_ns, from, to))
            .collect();
        out.set(metric, report::median(&per_replay), n);
    }
    let depths: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.depths.iter().copied())
        .collect();
    out.set(
        "ingest.queue_depth_mean",
        report::mean(&depths),
        depths.len() as u64,
    );

    // The service's own counters, from the last traced replay.
    if let Some(r) = traced.last() {
        let s = &r.report.shards[0];
        for (metric, v) in [
            ("ingest.queue_peak", s.queue_peak as u64),
            ("ingest.wal_appended", s.wal_appended),
            ("ingest.checkpoints", s.checkpoints),
            ("ingest.checkpoints_dropped", s.checkpoints_dropped),
            ("ingest.wal_replayed", s.wal_replayed),
            ("ingest.failovers", s.failovers),
            ("ingest.vault_restores", s.replays),
            ("ingest.records_dropped", r.report.records_dropped()),
        ] {
            out.set(metric, v as f64, 1);
        }
        // The day-end analyses inside the shard, per analysed tenant-day.
        report::engine_metrics_per_day(out, &s.metrics);
        out.program_counts.push((
            "ingest.checkpoints_rejected".into(),
            s.checkpoints_rejected as f64,
        ));
        out.program_counts
            .push(("ingest.replays".into(), s.replays as f64));
        out.program_counts.push((
            "ingest.max_replay_gap_s".into(),
            s.max_replay_gap.as_secs_f64(),
        ));
    }

    // The recorder ran once per set-up, each time recording the same day.
    let rec = tracer.durations("recorder.day");
    let records: u64 = setup.stores.iter().map(|s| s.record_count() as u64).sum();
    let bytes: u64 = setup.stores.iter().map(TelemetryStore::mem_bytes).sum();
    report::recorder_metrics(out, &rec, &vec![(records, bytes); rec.len()]);
    out.set("engine.records_in", records as f64, 1);
    report::setup_metrics(out, tracer);

    streaming_floor(out, tracer, setup);

    let walls: Vec<(bool, f64)> = replays.iter().map(|r| (r.traced, r.wall_s)).collect();
    report::tracing_overhead(out, &walls);
}

/// A bare `StreamingAnalyzer` over one tenant's feed: what the service's
/// apply step costs without the queue, the WAL or checkpoints.
fn streaming_floor(out: &mut Outcome, tracer: &Tracer, setup: &Setup) {
    let mut analyzer = StreamingAnalyzer::with_context((*setup.ctx).clone());
    let (mut applied, mut events) = (0u64, 0u64);
    for chunk in setup.feed.chunks(APPLY_CHUNK) {
        tracer.span("streaming.apply", None, |_| {
            for (badge, record) in chunk {
                let emitted = match record {
                    TelemetryRecord::Scan(r) => analyzer.ingest_scan(*badge, r).len(),
                    TelemetryRecord::Audio(r) => analyzer.ingest_audio(*badge, r).len(),
                    TelemetryRecord::Imu(r) => analyzer.ingest_imu(*badge, r).len(),
                    TelemetryRecord::Sync(r) => {
                        analyzer.ingest_sync(*badge, r);
                        0
                    }
                    TelemetryRecord::Env(_)
                    | TelemetryRecord::Proximity(_)
                    | TelemetryRecord::Ir(_) => continue,
                };
                applied += 1;
                events += emitted as u64;
            }
        });
    }
    let apply_s: f64 = tracer.durations("streaming.apply").iter().sum();
    out.set(
        "streaming.apply_ns_per_record",
        apply_s * 1e9 / applied.max(1) as f64,
        applied,
    );
    let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
    let ckpt = tracer.span("streaming.checkpoint", None, |_| {
        analyzer.checkpoint(day_end)
    });
    let ckpt_s = tracer.durations("streaming.checkpoint");
    out.set("streaming.checkpoint_ms", report::median(&ckpt_s) * 1e3, 1);
    out.set("streaming.events_out", events as f64, 1);
    out.program_counts.push((
        "streaming.checkpoint_records_ingested".into(),
        ckpt.records_ingested() as f64,
    ));
}
