//! `mission_days`: the Lunares ICAres-1 scenario, every instrumented day in
//! order, recorded with `MissionRunner::record_day_stores` and analysed by a
//! 1-worker `MissionEngine`, in a closed single-threaded loop.
//!
//! Crew truth and the RF field cache are built in set-up, so the recorder
//! and the engine stages do all the timed work. One operation is one day.
//! Each day's analysis is checked, outside the timed region, against a
//! 2-worker engine on the same stores, and one sampled day's stores against
//! a 2-worker parallel re-recording; both paths are pinned as identical by
//! the repository's determinism tests.
//!
//! The traced run alternates untraced and traced passes. A traced pass
//! drives the public stage kernels and `assemble_day` itself, one span per
//! call, in the order the 1-worker engine calls them; its output is checked
//! like any other day.

use crate::calib::HostSpeed;
use crate::report::{self, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{flip_bit, repeat_for, timed_setup, Options, PeakRss};
use ares_badge::records::{BadgeId, SamplingConfig};
use ares_badge::telemetry::TelemetryStore;
use ares_icares::{MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
use ares_sociometrics::engine::{self, EngineMetrics, MissionContext, MissionEngine, Stage};
use ares_sociometrics::pipeline::{BadgeDay, DayAnalysis};
use std::time::Instant;

/// Last instrumented mission day.
const LAST_DAY: u32 = 14;
/// Last day of the tiny self-test size.
const TINY_LAST_DAY: u32 = 3;

/// Set-up builds per run. One takes about 0.1 s, so many fit, and their
/// median is steadier.
const SETUPS: usize = 25;

struct Setup {
    runner: MissionRunner,
    engine: MissionEngine,
    reference: MissionEngine,
}

fn config(opts: &Options) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        seed: opts.seed,
        ..ScenarioConfig::default()
    };
    if opts.tiny {
        config.sampling = SamplingConfig::fleet();
        config.truth_days = TINY_LAST_DAY;
    }
    config
}

fn build(tracer: &Tracer, config: &ScenarioConfig) -> Setup {
    let runner = tracer.span("setup.truth", None, |_| MissionRunner::new(config.clone()));
    tracer.span("setup.fieldcache", None, |_| {
        let _ = runner.world().field_cache();
    });
    let ctx = runner.pipeline().context_arc();
    Setup {
        engine: MissionEngine::with_workers(ctx.clone(), 1),
        reference: MissionEngine::with_workers(ctx, 2),
        runner,
    }
}

/// One day as the 1-worker engine analyses it, with a span around every
/// stage kernel call and around day assembly.
fn analyze_traced(
    tracer: &Tracer,
    parent: Option<SpanId>,
    ctx: &MissionContext,
    day: u32,
    stores: &[TelemetryStore],
) -> DayAnalysis {
    let badges: Vec<BadgeDay> = stores
        .iter()
        .filter(|s| s.badge != BadgeId::REFERENCE)
        .map(|s| {
            let view = s.view();
            let corr = tracer.span("engine.stage.sync-fit", parent, |_| {
                engine::stage_sync_fit(view)
            });
            let track = tracer.span("engine.stage.localize", parent, |_| {
                engine::stage_localize(ctx, view, &corr)
            });
            let wear = tracer.span("engine.stage.wear", parent, |_| {
                engine::stage_wear(ctx, view, &corr)
            });
            let activity = tracer.span("engine.stage.activity", parent, |_| {
                engine::stage_activity(ctx, view, &corr, &wear)
            });
            let speech = tracer.span("engine.stage.speech", parent, |_| {
                engine::stage_speech(ctx, view, &corr)
            });
            let stays = tracer.span("engine.stage.stays", parent, |_| {
                engine::stage_stays(&track)
            });
            let identification = tracer.span("engine.stage.identity", parent, |_| {
                engine::stage_identity(ctx, day, view.badge, &track)
            });
            BadgeDay {
                badge: view.badge,
                corr,
                track,
                wear,
                activity,
                speech,
                stays,
                identification,
            }
        })
        .collect();
    tracer.span("engine.stage.assemble", parent, |_| {
        engine::assemble_day(ctx, day, stores, badges, &mut EngineMetrics::new())
    })
}

fn records(stores: &[TelemetryStore]) -> u64 {
    stores.iter().map(|s| s.record_count() as u64).sum()
}

fn badge_days(stores: &[TelemetryStore]) -> u64 {
    stores
        .iter()
        .filter(|s| s.badge != BadgeId::REFERENCE)
        .count() as u64
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let config = config(opts);
    // One thread does all the timed work.
    let mut host = HostSpeed::new(1);
    let (setup, setup_s, setups) = timed_setup(SETUPS, || build(&tracer, &config));
    let ctx = setup.runner.pipeline().context_arc();
    let last_day = if opts.tiny { TINY_LAST_DAY } else { LAST_DAY };
    let days: Vec<u32> = (FIRST_INSTRUMENTED_DAY..=last_day).collect();
    // Re-record a fixed day, the first and largest: which day holds the
    // check's extra copy should not move the peak resident size by seed.
    let sampled_day = days[0];

    let mut out = Outcome::default();
    // Untraced seconds per day (indexed like `days`), one entry per pass;
    // untraced analysis seconds; records and badge-days in one pass.
    let mut day_s: Vec<Vec<f64>> = vec![Vec::new(); days.len()];
    let mut analyse_s: Vec<f64> = Vec::new();
    let (mut pass_records, mut pass_badge_days) = (0u64, 0u64);
    // Per pass: traced or not, seconds spent.
    let mut passes: Vec<(bool, f64)> = Vec::new();
    // Per traced recorder call: records out and store bytes.
    let mut recorded: Vec<(u64, u64)> = Vec::new();
    let mut corrupt = opts.corrupt;

    let mut rss = PeakRss::start();
    repeat_for(opts.seconds, if opts.trace { 2 } else { 1 }, |pass| {
        let traced = opts.trace && pass % 2 == 1;
        let mut spent = 0.0;
        for (i, &day) in days.iter().enumerate() {
            let (stores, mut analysis, wall_s) = if traced {
                let t0 = Instant::now();
                let (stores, analysis) = tracer.span("mission.day", None, |p| {
                    let stores =
                        tracer.span("recorder.day", p, |_| setup.runner.record_day_stores(day));
                    let analysis = tracer.span("engine.day", p, |p| {
                        analyze_traced(&tracer, p, &ctx, day, &stores)
                    });
                    (stores, analysis)
                });
                (stores, analysis, t0.elapsed().as_secs_f64())
            } else {
                host.sample();
                let t0 = Instant::now();
                let stores = setup.runner.record_day_stores(day);
                let t1 = Instant::now();
                let analysis = setup.engine.analyze_day_stores(day, &stores);
                analyse_s.push(t1.elapsed().as_secs_f64());
                let dt = t0.elapsed().as_secs_f64();
                day_s[i].push(dt);
                (stores, analysis, dt)
            };
            spent += wall_s;

            // Checks, outside the timed region.
            if traced {
                let bytes: u64 = stores.iter().map(TelemetryStore::mem_bytes).sum();
                recorded.push((records(&stores), bytes));
            }
            if pass == 0 {
                pass_records += records(&stores);
                pass_badge_days += badge_days(&stores);
            }
            if std::mem::take(&mut corrupt) {
                analysis.climate_sums[0].0 = flip_bit(analysis.climate_sums[0].0);
            }
            let mut ok = analysis == setup.reference.analyze_day_stores(day, &stores);
            if pass == 0 && day == sampled_day {
                ok &= stores == setup.runner.record_day_stores_parallel(day, 2);
            }
            out.attempted += 1;
            out.failed += u64::from(!ok);
        }
        passes.push((traced, spent));
        rss.end_unit();
    });

    // One pass at each day's median time, so a slow spell on a shared host
    // during part of one pass moves the result little; then in reference
    // seconds.
    let pass_s = host.ref_s(day_s.iter().map(|d| report::median(d)).sum());
    let n = day_s[0].len() as u64;
    out.set("setup_s", setup_s, setups as u64);
    rss.set(&mut out);
    out.set("mission_days_per_s", days.len() as f64 / pass_s, n);
    out.set("ingest_records_per_s", pass_records as f64 / pass_s, n);
    out.set("fleet_badge_days_per_s", pass_badge_days as f64 / pass_s, n);
    out.set(
        "day_end_latency_s",
        host.ref_s(report::median(&analyse_s)),
        analyse_s.len() as u64,
    );
    report::host_counts(&mut out, &host);

    if opts.trace {
        layer_metrics(&mut out, &tracer, &setup.engine, &passes, &recorded);
        out.trace_json = tracer.to_json();
    }
    out
}

fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    engine: &MissionEngine,
    passes: &[(bool, f64)],
    recorded: &[(u64, u64)],
) {
    report::recorder_metrics(out, &tracer.durations("recorder.day"), recorded);

    let day_spans = tracer.durations("engine.day");
    out.set(
        "engine.day_s",
        report::median(&day_spans),
        day_spans.len() as u64,
    );
    let spans = tracer.spans();
    let mut traced_stage_total = 0.0;
    for stage in Stage::ALL {
        let name = format!("engine.stage.{}", stage.label());
        // Per engine.day span: the sum of this stage's calls under it.
        let mut per_day: Vec<f64> = Vec::new();
        for (id, day) in spans.iter().enumerate() {
            if day.name == "engine.day" {
                per_day.push(
                    spans
                        .iter()
                        .filter(|s| s.parent == Some(id) && s.name == name)
                        .map(crate::trace::Span::seconds)
                        .sum(),
                );
            }
        }
        traced_stage_total += per_day.iter().sum::<f64>();
        let metric = format!("engine.stage.{}_s", stage.label());
        out.set(&metric, report::median(&per_day), per_day.len() as u64);
    }
    let records_in: Vec<f64> = recorded.iter().map(|r| r.0 as f64).collect();
    out.set(
        "engine.records_in",
        report::mean(&records_in),
        records_in.len() as u64,
    );
    // The engine's own per-stage wall time, from the untraced passes, per
    // day; the spans around the same kernels should agree with it.
    let metrics = engine.metrics();
    let engine_days = metrics.get(Stage::Assemble).calls;
    let engine_per_day = metrics.total_wall_s() / engine_days.max(1) as f64;
    let traced_per_day = traced_stage_total / day_spans.len().max(1) as f64;
    out.set(
        "engine.crosscheck_ratio",
        traced_per_day / engine_per_day,
        day_spans.len() as u64,
    );
    report::engine_counts(out, &metrics);
    report::setup_metrics(out, tracer);
    report::tracing_overhead(out, passes);
}
