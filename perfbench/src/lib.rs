//! End-to-end and per-layer benchmark of the ares mission, ingest and fleet
//! planes. See `README.md` in this directory for the workloads, the metric
//! map and how to run it.

pub mod calib;
pub mod fleet;
pub mod ingest;
pub mod mission;
pub mod report;
pub mod trace;

use calib::HostSpeed;
use report::Outcome;
use std::time::Instant;

/// The seed used when `--seed` is not given: the canonical ICAres-1 master
/// seed, so the default `mission_days` run is the historical mission.
pub const DEFAULT_SEED: u64 = 0x1CA7E5;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Record and analyse every instrumented Lunares day, closed loop.
    MissionDays,
    /// Replay one recorded day for two tenants through the ingest service.
    IngestBackfill,
    /// Record and analyse crew variants through the fleet scheduler.
    FleetVariants,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::MissionDays,
        Workload::IngestBackfill,
        Workload::FleetVariants,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissionDays => "mission_days",
            Workload::IngestBackfill => "ingest_backfill",
            Workload::FleetVariants => "fleet_variants",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seeds the scenario (`ScenarioConfig.seed`) and the fleet
    /// (`FleetConfig.seed`).
    pub seed: u64,
    /// Measurement time; a run repeats its unit of work until it is spent.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Run at a size small enough for the self-tests.
    pub tiny: bool,
    /// Change one bit or byte of the first checked output before its check:
    /// the self-tests use this to show a wrong output is counted as failed.
    pub corrupt: bool,
}

impl Options {
    /// A full-size, untraced run.
    #[must_use]
    pub fn new(seed: u64, seconds: f64) -> Self {
        Options {
            seed,
            seconds,
            trace: false,
            tiny: false,
            corrupt: false,
        }
    }
}

/// Runs one workload.
#[must_use]
pub fn run(workload: Workload, opts: &Options) -> Outcome {
    match workload {
        Workload::MissionDays => mission::run(opts),
        Workload::IngestBackfill => ingest::run(opts),
        Workload::FleetVariants => fleet::run(opts),
    }
}

/// `peak_rss_mb`: the process's peak resident size (`VmHWM`) during the
/// first unit of work (a pass, a replay, a fleet run) and its checks.
///
/// Counting starts once set-up is done: the allocator's free pages go back
/// to the kernel (`malloc_trim`) and the kernel's high-water mark is reset
/// to the resident size (`5` to `/proc/self/clear_refs`). So the value is
/// what is live after set-up plus what the unit needs on top. Without the
/// trim it also held whatever the set-up builds left fragmented in the
/// heap, which moved by a third from one seed to the next. One unit, read
/// at a fixed point, so how many units fit in a run does not move it.
#[derive(Debug)]
pub struct PeakRss {
    peak: Option<f64>,
}

impl PeakRss {
    /// Starts counting; call once set-up is done.
    #[must_use]
    pub fn start() -> Self {
        release_free_heap();
        // Where the reset is refused the set-up's peak counts too.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        PeakRss { peak: None }
    }

    /// Call after each unit of work and its checks.
    pub fn end_unit(&mut self) {
        if self.peak.is_none() {
            self.peak = Some(current_peak_rss());
        }
    }

    /// Sets `peak_rss_mb`.
    pub fn set(&self, out: &mut Outcome) {
        let peak = self.peak.unwrap_or_else(current_peak_rss);
        out.set("peak_rss_mb", peak, u64::from(self.peak.is_some()));
    }
}

/// Returns the allocator's free pages to the kernel.
fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory; it takes
        // the allocator's own locks and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn current_peak_rss() -> f64 {
    report::peak_rss_mb().expect("the kernel reports VmHWM in /proc/self/status")
}

/// Builds a workload's set-up `builds` times and keeps the last one,
/// dropping each earlier one first so no interned cache outlives it.
/// Returns the set-up and the median build time in reference seconds (see
/// [`calib`]); `setup_s` is that median. Set-up is over in seconds and runs
/// on one thread, so each build is rescaled by the speed of one thread
/// sampled just before and just after it, not by the whole run's.
pub fn timed_setup<S>(builds: usize, mut build: impl FnMut() -> S) -> (S, f64, usize) {
    let mut host = HostSpeed::new(1);
    let mut times = Vec::with_capacity(builds);
    let mut kept = None;
    let mut before = host.sample();
    for _ in 0..builds.max(1) {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(build());
        let wall_s = t0.elapsed().as_secs_f64();
        let after = host.sample();
        times.push(wall_s / (0.5 * (before + after)));
        before = after;
    }
    (
        kept.expect("at least one set-up"),
        report::median(&times),
        times.len(),
    )
}

/// Repeats `step` until `seconds` of wall time are spent: another step
/// starts only if the mean step so far still fits, and at least `min_steps`
/// run. `step` gets the step index.
pub fn repeat_for(seconds: f64, min_steps: usize, mut step: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        step(n);
        n += 1;
        let spent = t0.elapsed().as_secs_f64();
        if n >= min_steps && spent + spent / n as f64 > seconds {
            return;
        }
    }
}

/// Changes the last digit of a rendered output: a one-byte corruption.
pub fn change_one_digit(rendered: &mut String) {
    let i = rendered
        .rfind(|c: char| c.is_ascii_digit())
        .expect("a rendered analysis has digits");
    let swapped = if rendered.as_bytes()[i] == b'0' {
        "1"
    } else {
        "0"
    };
    rendered.replace_range(i..=i, swapped);
}

/// Flips the lowest bit of an `f64`: the smallest possible corruption.
#[must_use]
pub fn flip_bit(x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ 1)
}
