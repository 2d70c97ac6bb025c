//! Metric names, units and the one-line JSON result.
//!
//! The names here are the contract with `BENCHMARK.json`: every workload
//! prints every end-to-end metric of [`END_TO_END`] when untraced and every
//! per-layer metric of [`PER_LAYER`] when traced. A layer a workload does not
//! call reports 0 with 0 samples.

use crate::calib::HostSpeed;
use crate::trace::Tracer;
use ares_sociometrics::engine::{EngineMetrics, Stage};

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("mission_days_per_s", "days/s"),
    ("ingest_records_per_s", "records/s"),
    ("day_end_latency_s", "s"),
    ("fleet_badge_days_per_s", "badge-days/s"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("recorder.day_s", "s"),
    ("recorder.ns_per_record", "ns"),
    ("recorder.records_out", "count"),
    ("recorder.store_mb", "MiB"),
    ("engine.day_s", "s"),
    ("engine.stage.sync-fit_s", "s"),
    ("engine.stage.localize_s", "s"),
    ("engine.stage.wear_s", "s"),
    ("engine.stage.activity_s", "s"),
    ("engine.stage.speech_s", "s"),
    ("engine.stage.stays_s", "s"),
    ("engine.stage.identity_s", "s"),
    ("engine.stage.assemble_s", "s"),
    ("engine.records_in", "count"),
    ("engine.crosscheck_ratio", "ratio"),
    ("streaming.apply_ns_per_record", "ns"),
    ("streaming.checkpoint_ms", "ms"),
    ("streaming.events_out", "count"),
    ("ingest.submit_wait_p50_us", "us"),
    ("ingest.submit_wait_p99_us", "us"),
    ("ingest.stall_first_hour_ms", "ms"),
    ("ingest.stall_last_hour_ms", "ms"),
    ("ingest.stall_after_crash_ms", "ms"),
    ("ingest.queue_depth_mean", "count"),
    ("ingest.queue_peak", "count"),
    ("ingest.wal_appended", "count"),
    ("ingest.checkpoints", "count"),
    ("ingest.checkpoints_dropped", "count"),
    ("ingest.wal_replayed", "count"),
    ("ingest.failovers", "count"),
    ("ingest.vault_restores", "count"),
    ("ingest.records_dropped", "count"),
    ("fleet.open_s", "s"),
    ("fleet.record_s", "s"),
    ("fleet.analyze_s", "s"),
    ("fleet.shard_skew", "ratio"),
    ("fleet.badge_days", "count"),
    ("fleet.bytes_recorded", "bytes"),
    ("setup.truth_s", "s"),
    ("setup.fieldcache_s", "s"),
    ("setup.feed_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit from the same table.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (the unit is workload-specific).
    pub attempted: u64,
    /// Operations shed, rejected, or whose output failed its check.
    pub failed: u64,
    /// Measured values by name; a name may be set once.
    pub values: Vec<Metric>,
    /// The program's own counters, reported next to the spans.
    pub program_counts: Vec<(String, f64)>,
    /// Traced runs: every span and the per-name summary, as JSON.
    pub trace_json: String,
}

impl Outcome {
    /// Sets metric `name` (which must be in one of the tables).
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table or set twice: both are bugs in the
    /// benchmark, not in the measured program.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(
            self.values.iter().all(|m| m.name != name),
            "metric {name} set twice"
        );
        self.values.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Every metric of `table`, in table order; unset ones read 0 with 0
    /// samples.
    #[must_use]
    pub fn select(&self, table: &[(&'static str, &'static str)]) -> Vec<Metric> {
        table
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric {
                        name,
                        unit,
                        value: 0.0,
                        samples: 0,
                    })
            })
            .collect()
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// Returns the name of the first metric whose value is not finite.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    ))
}

/// A human-readable table: metric, value, unit and sample count.
#[must_use]
pub fn table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str(&format!(
            "{:<32} {:>16.6} {:<12} n={}\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    out
}

/// The engine's own per-stage counters, as program counts.
pub fn engine_counts(out: &mut Outcome, metrics: &EngineMetrics) {
    for stage in Stage::ALL {
        let m = metrics.get(stage);
        let label = stage.label();
        out.program_counts
            .push((format!("engine_metrics.{label}.calls"), m.calls as f64));
        out.program_counts
            .push((format!("engine_metrics.{label}.wall_s"), m.wall_s));
    }
}

/// `engine.day_s` and `engine.stage.*_s` per analysed day from the engine's
/// own metrics, plus its counters.
pub fn engine_metrics_per_day(out: &mut Outcome, metrics: &EngineMetrics) {
    engine_counts(out, metrics);
    let days = metrics.get(Stage::Assemble).calls;
    let per_day = |s: f64| s / days.max(1) as f64;
    for stage in Stage::ALL {
        let wall_s = metrics.get(stage).wall_s;
        out.set(
            &format!("engine.stage.{}_s", stage.label()),
            per_day(wall_s),
            days,
        );
    }
    out.set("engine.day_s", per_day(metrics.total_wall_s()), days);
}

/// The host slowdowns sampled by the calibration kernel (see
/// [`crate::calib`]), as program counts: how loaded the host was.
pub fn host_counts(out: &mut Outcome, host: &HostSpeed) {
    out.program_counts
        .push(("host.samples".into(), host.samples.len() as f64));
    for (name, q) in [("p10", 0.1), ("p50", 0.5), ("p90", 0.9)] {
        out.program_counts
            .push((format!("host.slowdown_{name}"), quantile(&host.samples, q)));
    }
}

/// `setup.*` metrics from the set-up spans: the median over set-ups.
pub fn setup_metrics(out: &mut Outcome, tracer: &Tracer) {
    for (span, metric) in [
        ("setup.truth", "setup.truth_s"),
        ("setup.fieldcache", "setup.fieldcache_s"),
        ("setup.feed", "setup.feed_s"),
    ] {
        let d = tracer.durations(span);
        if !d.is_empty() {
            out.set(metric, median(&d), d.len() as u64);
        }
    }
}

/// `recorder.*` from the durations of the `recorder.day` spans and, per
/// call, the records and store bytes it returned.
pub fn recorder_metrics(out: &mut Outcome, durations: &[f64], recorded: &[(u64, u64)]) {
    let calls = durations.len() as u64;
    let records: u64 = recorded.iter().map(|r| r.0).sum();
    out.set("recorder.day_s", median(durations), calls);
    out.set(
        "recorder.ns_per_record",
        durations.iter().sum::<f64>() * 1e9 / records.max(1) as f64,
        records,
    );
    let bytes: u64 = recorded.iter().map(|r| r.1).sum();
    let per_call = (recorded.len() as f64).max(1.0);
    out.set("recorder.records_out", records as f64 / per_call, calls);
    out.set(
        "recorder.store_mb",
        bytes as f64 / per_call / (1024.0 * 1024.0),
        calls,
    );
}

/// `trace.overhead_pct` from `(traced, seconds)` per repetition: the median
/// traced repetition's wall time over the median untraced one's, minus 1,
/// in percent.
pub fn tracing_overhead(out: &mut Outcome, reps: &[(bool, f64)]) {
    let median_of = |traced: bool| {
        median(
            &reps
                .iter()
                .filter(|r| r.0 == traced)
                .map(|r| r.1)
                .collect::<Vec<_>>(),
        )
    };
    out.set(
        "trace.overhead_pct",
        (median_of(true) / median_of(false) - 1.0) * 100.0,
        reps.len() as u64,
    );
}

/// Median of `xs` (0 when empty).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 when empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Mean of `xs` (0 when empty).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where the
/// kernel does not report it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn a_non_finite_value_is_refused() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.set("setup_s", f64::NAN, 1);
        assert!(result_line(&o, &o.select(&END_TO_END[..1])).is_err());
    }
}
