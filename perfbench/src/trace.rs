//! Spans recorded from the benchmark's own code around calls into a layer.
//!
//! A [`Tracer`] that is off records nothing and never reads the clock, so the
//! untraced run pays nothing for the instrumentation. A tracer that is on
//! keeps every span in memory; [`Tracer::summary`] derives per-name totals and
//! self time (a span's duration minus the part of it its children cover), and
//! [`Tracer::to_json`] renders the whole trace once, at the end of the run.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `recorder.day` or `engine.stage.localize`.
    pub name: &'static str,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus time covered by children), seconds.
    pub self_s: f64,
}

/// An in-memory span recorder shared by every thread of one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and is free when not.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: on.then(Instant::now),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(origin: Instant) -> u64 {
        u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so its own calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        let Some(origin) = self.origin else {
            return f(None);
        };
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                parent,
                start_ns: Self::now_ns(origin),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = Self::now_ns(origin);
        self.spans.lock().expect("span log poisoned")[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations in seconds of every span named `name`, in recording order.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Per-name count, total and self time.
    #[must_use]
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children) {
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_s += s.seconds();
            e.self_s += s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// The whole trace as one JSON document: every span, then the per-name
    /// summary.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == spans.len() { "" } else { "," }
            ));
        }
        out.push_str("], \"summary\": {\n");
        let summary = self.summary();
        for (i, (name, t)) in summary.iter().enumerate() {
            out.push_str(&format!(
                "  \"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}{}\n",
                t.count,
                t.total_s,
                t.self_s,
                if i + 1 == summary.len() { "" } else { "," }
            ));
        }
        out.push_str("}}\n");
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", None, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_the_union_of_children() {
        assert_eq!(covered_ns(0, 100, vec![(10, 30), (20, 40), (90, 120)]), 40);
        assert_eq!(covered_ns(0, 100, vec![]), 0);
        let t = Tracer::new(true);
        t.span("outer", None, |p| {
            t.span("inner", p, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let s = t.summary();
        assert_eq!(s["outer"].count, 1);
        assert!(s["outer"].self_s < s["outer"].total_s);
        assert!((s["outer"].self_s + s["inner"].total_s - s["outer"].total_s).abs() < 1e-9);
    }
}
