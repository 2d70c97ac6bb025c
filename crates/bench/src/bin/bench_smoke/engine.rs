//! Recording front end and staged engine on one mission day.
//!
//! Records the day three ways — sequentially through the RF field cache,
//! fanned out per unit across threads, and through the exact geometric
//! baseline — and checks every store set equals the first, then runs the
//! columnar store through the engine sequentially and with every available
//! core and checks the two analyses are bit-identical.
//!
//! On a single-core host neither the parallel engine run nor the parallel
//! recording fan-out can demonstrate a wall-clock speedup, but both are
//! still *measured*, never fabricated: each runs with two workers
//! interleaved on the one core and the ratio (≈1.0 minus scheduling
//! overhead) is reported with its `interleaved` flag set, so it is never
//! read as a parallelism regression. The `speedup_measured` flags are true
//! either way — the numbers always come from two timed runs whose outputs
//! were compared.
//!
//! The sequential recording is timed five times after the warm-up and the
//! median is reported, with the fastest and slowest run beside it: one
//! timed day varies by half its value between runs on a shared host.
//!
//! Throughput is reported on two planes: `analyze_days_per_s` is the
//! *analysis* rate (one recorded day through the seven-stage engine,
//! sequentially — the figure the batched kernels move), and
//! `e2e_days_per_s` folds in the simulation front end that produced the
//! telemetry (record + analyze).

use ares_badge::telemetry::TelemetryStore;
use ares_bench::artifact::{Engine, Record, StageTiming};
use ares_icares::MissionRunner;
use ares_sociometrics::engine::{MissionEngine, Stage};
use ares_sociometrics::report::engine_section;
use std::time::Instant;

/// Timed sequential recordings; `record.days_per_s` is their median.
const RECORD_RUNS: usize = 5;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measures recording and analysis of `day`; returns both blocks and the
/// day's stores for the ingest stage to stream.
pub fn run(runner: &MissionRunner, day: u32) -> (Engine, Record, Vec<TelemetryStore>) {
    let workers = std::thread::available_parallelism().map_or(1, usize::from);

    // --- Recording front end -----------------------------------------------
    // Warm-up run: builds the RF field cache and faults in the truth tables
    // so the timed runs measure steady-state recording, not setup.
    eprintln!("recording mission day {day} (warm-up)…");
    let stores = runner.record_day_stores(day);

    eprintln!("recording day {day}: sequential, cached ×{RECORD_RUNS}…");
    let mut record_walls = Vec::with_capacity(RECORD_RUNS);
    let mut repeat_identical = true;
    for _ in 0..RECORD_RUNS {
        let t0 = Instant::now();
        let again = runner.record_day_stores(day);
        record_walls.push(t0.elapsed().as_secs_f64());
        repeat_identical &= again == stores;
    }
    record_walls.sort_by(f64::total_cmp);
    let record_wall_s = record_walls[RECORD_RUNS / 2];

    // Fan out across at least two threads so the parallel merge path is
    // exercised (and its determinism verified) even on a single-core host.
    let record_interleaved = workers == 1;
    let record_workers = workers.max(2);
    eprintln!("recording day {day}: parallel, cached @{record_workers} workers…");
    let t0 = Instant::now();
    let parallel_stores = runner.record_day_stores_parallel(day, record_workers);
    let record_parallel_wall_s = t0.elapsed().as_secs_f64();
    let parallel_identical = parallel_stores == stores;
    drop(parallel_stores);

    eprintln!("recording day {day}: sequential, exact geometry…");
    let t0 = Instant::now();
    let exact_stores = runner.record_day_stores_exact(day);
    let record_exact_wall_s = t0.elapsed().as_secs_f64();
    let exact_identical = exact_stores == stores;
    drop(exact_stores);

    let record = Record {
        day,
        wall_s: record_wall_s,
        parallel_wall_s: record_parallel_wall_s,
        exact_wall_s: record_exact_wall_s,
        workers: record_workers,
        interleaved: record_interleaved,
        speedup: ratio(record_wall_s, record_parallel_wall_s),
        speedup_measured: true,
        speedup_cache: ratio(record_exact_wall_s, record_wall_s),
        runs: RECORD_RUNS,
        days_per_s: ratio(1.0, record_wall_s),
        days_per_s_min: ratio(1.0, record_walls[RECORD_RUNS - 1]),
        days_per_s_max: ratio(1.0, record_walls[0]),
        deterministic: repeat_identical && parallel_identical && exact_identical,
    };

    // --- Analysis engine ----------------------------------------------------
    let ctx = runner.pipeline().context().clone();

    // Warm-up pass on a throwaway engine (first pass pays the allocator).
    let _ = MissionEngine::with_workers(ctx.clone(), 1).analyze_day_stores(day, &stores);

    let sequential_engine = MissionEngine::with_workers(ctx.clone(), 1);
    let t0 = Instant::now();
    let sequential = sequential_engine.analyze_day_stores(day, &stores);
    let seq_wall_s = t0.elapsed().as_secs_f64();
    let metrics = sequential_engine.metrics();

    // One hardware thread cannot show a wall-clock speedup, but the parallel
    // engine path still deserves a real measurement: run it with two workers
    // interleaved on the single core.
    let interleaved = workers == 1;
    let engine_workers = workers.max(2);
    let parallel_engine = MissionEngine::with_workers(ctx, engine_workers);
    let t0 = Instant::now();
    let parallel = parallel_engine.analyze_day_stores(day, &stores);
    let par_wall_s = t0.elapsed().as_secs_f64();

    let engine = Engine {
        day,
        workers,
        analyze_days_per_s: ratio(1.0, seq_wall_s),
        e2e_days_per_s: ratio(1.0, record_wall_s + seq_wall_s),
        sequential_wall_s: seq_wall_s,
        parallel_wall_s: par_wall_s,
        engine_workers,
        speedup: ratio(seq_wall_s, par_wall_s),
        speedup_measured: true,
        interleaved,
        deterministic: parallel == sequential,
        store_bytes: stores.iter().map(TelemetryStore::mem_bytes).sum(),
        stages: Stage::ALL
            .into_iter()
            .map(|stage| {
                let m = metrics.get(stage);
                let timing = StageTiming {
                    calls: m.calls,
                    records_in: m.records_in,
                    items_out: m.items_out,
                    wall_s: m.wall_s,
                    records_per_s: m.records_per_s(),
                };
                (stage.label(), timing)
            })
            .collect(),
    };

    let on_one_core = |flag: bool| {
        if flag {
            " (interleaved on one core)"
        } else {
            ""
        }
    };
    println!("{}", engine_section(&metrics));
    println!(
        "record day {day}: cached {:.2} s ({:.2} day(s)/s, median of {RECORD_RUNS}, \
         {:.2}–{:.2}), parallel {:.2} s @{record_workers} worker(s) → speedup {:.2}×{}, \
         exact {:.2} s → cache speedup {:.2}×",
        record.wall_s,
        record.days_per_s,
        record.days_per_s_min,
        record.days_per_s_max,
        record.parallel_wall_s,
        record.speedup,
        on_one_core(record_interleaved),
        record.exact_wall_s,
        record.speedup_cache,
    );
    println!(
        "analyze day {day}: sequential {seq_wall_s:.2} s, parallel {par_wall_s:.2} s \
         @{engine_workers} worker(s) → speedup {:.2}×{}",
        engine.speedup,
        on_one_core(interleaved),
    );
    println!(
        "throughput: {:.3} mission day(s)/s analyzed, {:.3} day(s)/s end to end; \
         columnar store {:.1} MiB",
        engine.analyze_days_per_s,
        engine.e2e_days_per_s,
        engine.store_bytes as f64 / (1024.0 * 1024.0),
    );
    (engine, record, stores)
}
