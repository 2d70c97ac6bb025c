//! Time-series and interval primitives shared across the toolkit.
//!
//! Two building blocks recur throughout the pipeline:
//!
//! * [`Series<T>`] — a timestamped sequence of samples sorted by time, with
//!   range queries and nearest-sample lookup; this is the in-memory form of a
//!   badge's sensor log.
//! * [`IntervalSet`] — a set of disjoint, sorted half-open time intervals with
//!   union/intersection/complement algebra; stay segments, speech intervals
//!   and wear periods are all interval sets.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A single timestamped sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample<T> {
    /// Timestamp of the sample (true or local time, by context).
    pub t: SimTime,
    /// The sampled value.
    pub value: T,
}

/// A time-ordered sequence of samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series<T> {
    samples: Vec<Sample<T>>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            samples: Vec::new(),
        }
    }
}

impl<T> Series<T> {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last sample (series must stay
    /// sorted). Equal timestamps are allowed.
    pub fn push(&mut self, t: SimTime, value: T) {
        if let Some(last) = self.samples.last() {
            assert!(t >= last.t, "series timestamps must be non-decreasing");
        }
        self.samples.push(Sample { t, value });
    }

    /// Reserves room for at least `additional` more samples.
    pub fn reserve(&mut self, additional: usize) {
        self.samples.reserve(additional);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples in order.
    #[must_use]
    pub fn samples(&self) -> &[Sample<T>] {
        &self.samples
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample<T>> {
        self.samples.iter()
    }

    /// The first sample, if any.
    #[must_use]
    pub fn first(&self) -> Option<&Sample<T>> {
        self.samples.first()
    }

    /// The last sample, if any.
    #[must_use]
    pub fn last(&self) -> Option<&Sample<T>> {
        self.samples.last()
    }

    /// Samples with `from <= t < to`.
    #[must_use]
    pub fn range(&self, from: SimTime, to: SimTime) -> &[Sample<T>] {
        let lo = self.samples.partition_point(|s| s.t < from);
        let hi = self.samples.partition_point(|s| s.t < to);
        &self.samples[lo..hi]
    }

    /// The latest sample at or before `t` ("sample-and-hold" lookup).
    #[must_use]
    pub fn at(&self, t: SimTime) -> Option<&Sample<T>> {
        let idx = self.samples.partition_point(|s| s.t <= t);
        idx.checked_sub(1).map(|i| &self.samples[i])
    }

    /// A monotone cursor over the series for time-ordered query sequences.
    #[must_use]
    pub fn cursor(&self) -> SeriesCursor<'_, T> {
        SeriesCursor {
            samples: &self.samples,
            hi: 0,
        }
    }
}

/// A forward-only cursor replacing [`Series::at`]'s per-query binary search
/// with an amortized O(1) advance, for callers that query at non-decreasing
/// times (the recording tick loop asks 50k ordered questions per day).
///
/// For any non-decreasing query sequence the answers are identical to
/// [`Series::at`]: both resolve `hi = partition_point(s.t <= t)` — the cursor
/// just reuses the previous bound as the starting point.
#[derive(Debug, Clone)]
pub struct SeriesCursor<'a, T> {
    samples: &'a [Sample<T>],
    /// Number of samples with `s.t <= t` for the last queried `t`.
    hi: usize,
}

impl<'a, T> SeriesCursor<'a, T> {
    /// The latest sample at or before `t`; `t` must be `>=` every previously
    /// queried time (earlier queries return the stale bound, never panic).
    pub fn at(&mut self, t: SimTime) -> Option<&'a Sample<T>> {
        self.advance(t);
        self.hi.checked_sub(1).map(|i| &self.samples[i])
    }

    /// The partition bound `partition_point(s.t <= t)` after advancing to `t`
    /// (the interpolation index used by path lookups).
    pub fn bound(&mut self, t: SimTime) -> usize {
        self.advance(t);
        self.hi
    }

    /// The underlying samples.
    #[must_use]
    pub fn samples(&self) -> &'a [Sample<T>] {
        self.samples
    }

    fn advance(&mut self, t: SimTime) {
        while self.hi < self.samples.len() && self.samples[self.hi].t <= t {
            self.hi += 1;
        }
    }
}

impl<T> FromIterator<(SimTime, T)> for Series<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, T)>>(iter: I) -> Self {
        let mut s = Series::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

impl<T> Extend<(SimTime, T)> for Series<T> {
    fn extend<I: IntoIterator<Item = (SimTime, T)>>(&mut self, iter: I) {
        for (t, v) in iter {
            self.push(t, v);
        }
    }
}

impl<'a, T> IntoIterator for &'a Series<T> {
    type Item = &'a Sample<T>;
    type IntoIter = std::slice::Iter<'a, Sample<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.samples.iter()
    }
}

/// A half-open time interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Interval {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    #[must_use]
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "interval end before start");
        Interval { start, end }
    }

    /// Interval length.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Whether `t` lies inside the interval.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether two intervals overlap (share positive measure).
    #[must_use]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection, if non-empty.
    #[must_use]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let s = self.start.max(other.start);
        let e = self.end.min(other.end);
        (s < e).then(|| Interval::new(s, e))
    }

    /// Whether the interval has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A set of disjoint, sorted half-open intervals.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IntervalSet {
    items: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary intervals, merging overlaps and touching
    /// neighbours.
    #[must_use]
    pub fn from_intervals(mut intervals: Vec<Interval>) -> Self {
        intervals.retain(|iv| !iv.is_empty());
        intervals.sort_by_key(|iv| (iv.start, iv.end));
        let mut items: Vec<Interval> = Vec::with_capacity(intervals.len());
        for iv in intervals {
            match items.last_mut() {
                Some(last) if iv.start <= last.end => {
                    last.end = last.end.max(iv.end);
                }
                _ => items.push(iv),
            }
        }
        IntervalSet { items }
    }

    /// Adds one interval, keeping the set normalized.
    pub fn insert(&mut self, iv: Interval) {
        if iv.is_empty() {
            return;
        }
        let mut all = std::mem::take(&mut self.items);
        all.push(iv);
        *self = IntervalSet::from_intervals(all);
    }

    /// The disjoint intervals in order.
    #[must_use]
    pub fn intervals(&self) -> &[Interval] {
        &self.items
    }

    /// Number of disjoint intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total measure of the set.
    #[must_use]
    pub fn total_duration(&self) -> SimDuration {
        self.items
            .iter()
            .fold(SimDuration::ZERO, |acc, iv| acc + iv.duration())
    }

    /// Whether `t` lies in any interval.
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.covering(t).is_some()
    }

    /// The interval containing `t`, if any.
    #[must_use]
    pub fn covering(&self, t: SimTime) -> Option<&Interval> {
        let idx = self.items.partition_point(|iv| iv.end <= t);
        self.items.get(idx).filter(|iv| iv.contains(t))
    }

    /// A monotone cursor over the set for time-ordered membership queries.
    #[must_use]
    pub fn cursor(&self) -> IntervalCursor<'_> {
        IntervalCursor {
            items: &self.items,
            idx: 0,
        }
    }

    /// Union of two sets.
    #[must_use]
    pub fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut all = self.items.clone();
        all.extend_from_slice(&other.items);
        IntervalSet::from_intervals(all)
    }

    /// Intersection of two sets.
    #[must_use]
    pub fn intersection(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            if let Some(iv) = self.items[i].intersect(&other.items[j]) {
                out.push(iv);
            }
            if self.items[i].end <= other.items[j].end {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { items: out }
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &IntervalSet) -> IntervalSet {
        if self.items.is_empty() {
            return IntervalSet::new();
        }
        let lo = self.items[0].start;
        let hi = self.items[self.items.len() - 1].end;
        self.intersection(&other.complement_within(lo, hi))
    }

    /// Complement of the set restricted to the window `[lo, hi)`.
    #[must_use]
    pub fn complement_within(&self, lo: SimTime, hi: SimTime) -> IntervalSet {
        let mut out = Vec::new();
        let mut cursor = lo;
        for iv in &self.items {
            if iv.end <= lo {
                continue;
            }
            if iv.start >= hi {
                break;
            }
            if iv.start > cursor {
                out.push(Interval::new(cursor, iv.start.min(hi)));
            }
            cursor = cursor.max(iv.end);
        }
        if cursor < hi {
            out.push(Interval::new(cursor, hi));
        }
        IntervalSet::from_intervals(out)
    }

    /// Drops intervals shorter than `min` (the paper's 10-s dwell filter).
    #[must_use]
    pub fn filter_min_duration(&self, min: SimDuration) -> IntervalSet {
        IntervalSet {
            items: self
                .items
                .iter()
                .copied()
                .filter(|iv| iv.duration() >= min)
                .collect(),
        }
    }

    /// Merges intervals separated by gaps shorter than `gap`.
    #[must_use]
    pub fn close_gaps(&self, gap: SimDuration) -> IntervalSet {
        let mut out: Vec<Interval> = Vec::with_capacity(self.items.len());
        for iv in &self.items {
            match out.last_mut() {
                Some(last) if iv.start - last.end <= gap => last.end = iv.end,
                _ => out.push(*iv),
            }
        }
        IntervalSet { items: out }
    }

    /// Restricts the set to a window.
    #[must_use]
    pub fn clip(&self, lo: SimTime, hi: SimTime) -> IntervalSet {
        let window = Interval::new(lo, hi);
        IntervalSet {
            items: self
                .items
                .iter()
                .filter_map(|iv| iv.intersect(&window))
                .collect(),
        }
    }
}

/// A forward-only cursor replacing [`IntervalSet::contains`]'s per-query
/// binary search with an amortized O(1) advance for non-decreasing query
/// times. Answers are identical to [`IntervalSet::contains`]: both resolve
/// `idx = partition_point(iv.end <= t)` and test that interval.
#[derive(Debug, Clone)]
pub struct IntervalCursor<'a> {
    items: &'a [Interval],
    idx: usize,
}

impl IntervalCursor<'_> {
    /// Whether `t` lies in any interval; `t` must be `>=` every previously
    /// queried time.
    pub fn contains(&mut self, t: SimTime) -> bool {
        while self.idx < self.items.len() && self.items[self.idx].end <= t {
            self.idx += 1;
        }
        self.items.get(self.idx).is_some_and(|iv| iv.contains(t))
    }
}

impl FromIterator<Interval> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalSet::from_intervals(iter.into_iter().collect())
    }
}

impl Extend<Interval> for IntervalSet {
    fn extend<I: IntoIterator<Item = Interval>>(&mut self, iter: I) {
        for iv in iter {
            self.insert(iv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: i64, b: i64) -> Interval {
        Interval::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn series_range_and_at() {
        let s: Series<i32> = (0..10)
            .map(|i| (SimTime::from_secs(i * 10), i as i32))
            .collect();
        let r = s.range(SimTime::from_secs(25), SimTime::from_secs(55));
        assert_eq!(r.iter().map(|x| x.value).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(s.at(SimTime::from_secs(34)).unwrap().value, 3);
        assert_eq!(s.at(SimTime::from_secs(30)).unwrap().value, 3);
        assert!(s.at(SimTime::from_secs(-1)).is_none());
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn series_rejects_unordered_push() {
        let mut s = Series::new();
        s.push(SimTime::from_secs(10), 1);
        s.push(SimTime::from_secs(5), 2);
    }

    #[test]
    fn interval_set_merges_overlaps() {
        let set = IntervalSet::from_intervals(vec![iv(0, 10), iv(5, 15), iv(20, 30), iv(15, 20)]);
        // [0,15) and [15,20) and [20,30) all touch → single interval.
        assert_eq!(set.intervals(), &[iv(0, 30)]);
    }

    #[test]
    fn interval_set_algebra() {
        let a = IntervalSet::from_intervals(vec![iv(0, 10), iv(20, 30)]);
        let b = IntervalSet::from_intervals(vec![iv(5, 25)]);
        assert_eq!(a.union(&b).intervals(), &[iv(0, 30)]);
        assert_eq!(a.intersection(&b).intervals(), &[iv(5, 10), iv(20, 25)]);
        assert_eq!(a.difference(&b).intervals(), &[iv(0, 5), iv(25, 30)]);
        assert_eq!(
            a.complement_within(SimTime::from_secs(-5), SimTime::from_secs(35))
                .intervals(),
            &[iv(-5, 0), iv(10, 20), iv(30, 35)]
        );
    }

    #[test]
    fn durations_and_contains() {
        let a = IntervalSet::from_intervals(vec![iv(0, 10), iv(20, 30)]);
        assert_eq!(a.total_duration(), SimDuration::from_secs(20));
        assert!(a.contains(SimTime::from_secs(5)));
        assert!(!a.contains(SimTime::from_secs(10))); // half-open
        assert!(!a.contains(SimTime::from_secs(15)));
        assert!(a.contains(SimTime::from_secs(20)));
    }

    #[test]
    fn min_duration_filter() {
        let a = IntervalSet::from_intervals(vec![iv(0, 5), iv(10, 30)]);
        let f = a.filter_min_duration(SimDuration::from_secs(10));
        assert_eq!(f.intervals(), &[iv(10, 30)]);
    }

    #[test]
    fn close_gaps_merges_nearby() {
        let a = IntervalSet::from_intervals(vec![iv(0, 10), iv(12, 20), iv(40, 50)]);
        let g = a.close_gaps(SimDuration::from_secs(3));
        assert_eq!(g.intervals(), &[iv(0, 20), iv(40, 50)]);
    }

    #[test]
    fn clip_restricts_window() {
        let a = IntervalSet::from_intervals(vec![iv(0, 10), iv(20, 30)]);
        let c = a.clip(SimTime::from_secs(5), SimTime::from_secs(25));
        assert_eq!(c.intervals(), &[iv(5, 10), iv(20, 25)]);
    }

    #[test]
    fn insert_keeps_normalized() {
        let mut s = IntervalSet::new();
        s.insert(iv(10, 20));
        s.insert(iv(0, 5));
        s.insert(iv(4, 12));
        assert_eq!(s.intervals(), &[iv(0, 20)]);
        s.insert(iv(20, 20)); // empty → no-op
        assert_eq!(s.len(), 1);
    }
}
