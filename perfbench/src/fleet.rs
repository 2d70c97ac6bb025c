//! `fleet_variants`: `FleetScenario::icares()` crew variants, one day each,
//! through `run_fleet` with 2 shards × 1 worker.
//!
//! The per-habitat crew truth simulation (inside `open`) and the scheduler
//! run inside the timed loop; the recorder uses the decimated
//! `SamplingConfig::fleet` profile, so fixed per-run costs weigh more than
//! per-tick costs; and two shard threads record and analyse at once, so
//! allocation or shared-state contention shows here even when it helps the
//! single-threaded `mission_days`.
//!
//! The benchmark hands `run_fleet` its own [`HabitatSource`] wrapper, which
//! times `open` and every recorder call from outside. One operation is one
//! habitat. Spot-checked habitats are re-run standalone through
//! `FleetScenario::open_runner` and must match the fleet output byte for
//! byte; every other habitat must equal its outcome in the first fleet run.

use crate::calib::HostSpeed;
use crate::report::{self, Outcome};
use crate::trace::{SpanId, Tracer};
use crate::{change_one_digit, repeat_for, timed_setup, Options, PeakRss};
use ares_badge::telemetry::TelemetryStore;
use ares_icares::FleetScenario;
use ares_sociometrics::engine::MissionEngine;
use ares_sociometrics::fleet::{run_fleet, FleetConfig, FleetRun, HabitatSource, OpenHabitat};
use ares_sociometrics::pipeline::MissionAnalysis;
use std::sync::Mutex;
use std::time::Instant;

/// The recorded mission day.
const DAY: u32 = 2;

/// Set-up builds per run. One takes about 0.1 s, so many fit, and their
/// median is steadier.
const SETUPS: usize = 25;

fn fleet_config(opts: &Options) -> FleetConfig {
    FleetConfig {
        seed: opts.seed,
        habitats: if opts.tiny { 2 } else { 24 },
        crews: 8,
        first_day: DAY,
        last_day: DAY,
        shards: 2,
        workers: 1,
        batch: 4,
    }
}

/// Times `open` and every recorder call of the habitats it opens.
struct TimedSource<'a> {
    inner: &'a FleetScenario,
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    /// When the most recent recorder call returned.
    last_record: Mutex<Option<Instant>>,
    /// Records and store bytes per recorder call.
    recorded: Mutex<Vec<(u64, u64)>>,
}

impl HabitatSource for TimedSource<'_> {
    fn open(&self, config: &FleetConfig, habitat: u32) -> OpenHabitat<'_> {
        let opened = self.tracer.span("fleet.open", self.parent, |_| {
            self.inner.open(config, habitat)
        });
        let record = opened.recorder;
        OpenHabitat {
            ctx: opened.ctx,
            recorder: Box::new(move |day| {
                let stores = self
                    .tracer
                    .span("recorder.day", self.parent, |_| record(day));
                let now = Instant::now();
                let records = stores.iter().map(|s| s.record_count() as u64).sum();
                let bytes = if self.tracer.is_on() {
                    stores.iter().map(TelemetryStore::mem_bytes).sum()
                } else {
                    0
                };
                self.recorded
                    .lock()
                    .expect("recorded log poisoned")
                    .push((records, bytes));
                *self.last_record.lock().expect("clock poisoned") = Some(now);
                stores
            }),
        }
    }
}

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

/// A habitat re-run on its own, outside the fleet scheduler.
fn standalone(scenario: &FleetScenario, config: &FleetConfig, habitat: u32) -> String {
    let runner = scenario.open_runner(config, habitat);
    let days: Vec<_> = (config.first_day..=config.last_day)
        .map(|day| (day, runner.record_day_stores(day)))
        .collect();
    let engine = MissionEngine::with_workers(scenario.context().clone(), 1);
    rendered(&engine.analyze_days_stores(&days))
}

/// What one fleet run measured.
struct Rep {
    traced: bool,
    wall_s: f64,
    /// Last recorder call returning to `run_fleet` returning, seconds.
    tail_s: f64,
    records: u64,
    recorded: Vec<(u64, u64)>,
    run: FleetRun,
}

fn fleet_rep(scenario: &FleetScenario, config: &FleetConfig, tracer: &Tracer) -> Rep {
    let t0 = Instant::now();
    let (run, source) = tracer.span("fleet.run", None, |parent| {
        let source = TimedSource {
            inner: scenario,
            tracer,
            parent,
            last_record: Mutex::new(None),
            recorded: Mutex::new(Vec::new()),
        };
        (run_fleet(config, &source), source)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let last = source
        .last_record
        .into_inner()
        .expect("clock poisoned")
        .unwrap_or(t0);
    let recorded = source.recorded.into_inner().expect("recorded log poisoned");
    Rep {
        traced: tracer.is_on(),
        wall_s,
        tail_s: last.elapsed().as_secs_f64(),
        records: recorded.iter().map(|r| r.0).sum(),
        recorded,
        run,
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Options) -> Outcome {
    let tracer = Tracer::new(opts.trace);
    let untraced = Tracer::new(false);
    let config = fleet_config(opts);
    // Two shard threads do the timed work.
    let mut host = HostSpeed::new(2);
    let (scenario, setup_s, setups) = timed_setup(SETUPS, || {
        let scenario = FleetScenario::icares();
        tracer.span("setup.fieldcache", None, |_| {
            let _ = scenario.open_runner(&config, 0).world().field_cache();
        });
        scenario
    });
    let spots: Vec<u32> = {
        let mut s = vec![0, config.habitats / 2, config.habitats - 1];
        s.dedup();
        s
    };
    let spot_bytes: Vec<String> = spots
        .iter()
        .map(|&h| standalone(&scenario, &config, h))
        .collect();

    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first: Option<Vec<MissionAnalysis>> = None;
    let mut corrupt = opts.corrupt;
    let mut rss = PeakRss::start();
    repeat_for(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        host.sample();
        let mut rep = fleet_rep(&scenario, &config, if traced { &tracer } else { &untraced });
        // Checks, outside the timed region.
        let outcomes = &rep.run.outcomes;
        out.attempted += outcomes.len() as u64;
        let mut ok: Vec<bool> = match &first {
            Some(first) => outcomes
                .iter()
                .zip(first)
                .map(|(o, f)| o.analysis == *f)
                .collect(),
            None => vec![true; outcomes.len()],
        };
        for (&h, expected) in spots.iter().zip(&spot_bytes) {
            let mut bytes = rendered(&outcomes[h as usize].analysis);
            if std::mem::take(&mut corrupt) {
                change_one_digit(&mut bytes);
            }
            ok[h as usize] &= bytes == *expected;
        }
        out.failed += ok.iter().filter(|&&k| !k).count() as u64;
        if first.is_none() {
            first = Some(outcomes.iter().map(|o| o.analysis.clone()).collect());
        }
        // Keep the counters, not the analyses: a run's peak resident size
        // must not grow with the number of fleet runs that fit in it.
        rep.run.outcomes.clear();
        reps.push(rep);
        rss.end_unit();
    });

    let measured: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let n = measured.len() as u64;
    // Per reference second (see `crate::calib`).
    let slowdown = host.slowdown();
    let per_s = |f: &dyn Fn(&Rep) -> f64| {
        report::median(&measured.iter().map(|r| f(r) / r.wall_s).collect::<Vec<_>>()) * slowdown
    };
    let habitat_days = f64::from(config.habitats * config.days_per_habitat());
    out.set("setup_s", setup_s, setups as u64);
    rss.set(&mut out);
    out.set(
        "fleet_badge_days_per_s",
        per_s(&|r| r.run.scorecard.badge_days as f64),
        n,
    );
    out.set("mission_days_per_s", per_s(&|_| habitat_days), n);
    out.set("ingest_records_per_s", per_s(&|r| r.records as f64), n);
    out.set(
        "day_end_latency_s",
        host.ref_s(report::median(
            &measured.iter().map(|r| r.tail_s).collect::<Vec<_>>(),
        )),
        n,
    );
    report::host_counts(&mut out, &host);

    if opts.trace {
        layer_metrics(&mut out, &tracer, &config, &reps);
        out.trace_json = tracer.to_json();
    }
    out
}

fn layer_metrics(out: &mut Outcome, tracer: &Tracer, config: &FleetConfig, reps: &[Rep]) {
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let n = traced.len() as u64;
    let open = tracer.durations("fleet.open");
    out.set("fleet.open_s", report::median(&open), open.len() as u64);
    let rec = tracer.durations("recorder.day");
    out.set("fleet.record_s", report::median(&rec), rec.len() as u64);
    let recorded: Vec<(u64, u64)> = traced.iter().flat_map(|r| r.recorded.clone()).collect();
    report::recorder_metrics(out, &rec, &recorded);

    let habitats = f64::from(config.habitats);
    let per_rep = |f: &dyn Fn(&FleetRun) -> f64| {
        report::median(&traced.iter().map(|r| f(&r.run)).collect::<Vec<_>>())
    };
    out.set(
        "fleet.analyze_s",
        per_rep(&|run| run.scorecard.metrics.total_wall_s() / habitats),
        n,
    );
    out.set(
        "fleet.shard_skew",
        per_rep(&|run| {
            let walls = run.shards.iter().map(|s| s.wall_s);
            walls.clone().fold(0.0, f64::max) / walls.fold(f64::INFINITY, f64::min)
        }),
        n,
    );
    out.set(
        "fleet.badge_days",
        per_rep(&|run| run.scorecard.badge_days as f64),
        n,
    );
    out.set(
        "fleet.bytes_recorded",
        per_rep(&|run| run.scorecard.bytes_recorded as f64),
        n,
    );

    // The engine's own per-stage time inside the shards, per habitat-day.
    if let Some(r) = traced.last() {
        report::engine_metrics_per_day(out, &r.run.scorecard.metrics);
        let records: u64 = recorded.iter().map(|r| r.0).sum();
        out.set(
            "engine.records_in",
            records as f64 / (recorded.len() as f64).max(1.0),
            recorded.len() as u64,
        );
        for s in &r.run.shards {
            out.program_counts
                .push((format!("fleet.shard{}.wall_s", s.shard), s.wall_s));
            out.program_counts.push((
                format!("fleet.shard{}.badge_days", s.shard),
                s.badge_days as f64,
            ));
        }
    }
    report::setup_metrics(out, tracer);

    let walls: Vec<(bool, f64)> = reps.iter().map(|r| (r.traced, r.wall_s)).collect();
    report::tracing_overhead(out, &walls);
}
