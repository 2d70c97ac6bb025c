//! Room occupancy: stay segmentation, the passage matrix (Fig. 2) and stay
//! duration statistics.
//!
//! "For each pair of rooms (X, Y), we measured how many times an astronaut
//! moved from X to Y and spent in Y at least 10 s. This minimal interval was
//! necessary to filter out situations when occasional beacon signals from
//! another room slipped through open doors." The central main hall, adjacent
//! to every room, is excluded from the matrix.

use crate::localization::PositionTrack;
use ares_habitat::rooms::RoomId;
use ares_simkit::series::Interval;
use ares_simkit::time::SimDuration;
use serde::{Deserialize, Serialize};

/// The paper's minimal dwell for a stay to count.
pub const MIN_STAY: SimDuration = SimDuration::from_secs(10);

/// A contiguous stay in one room.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Stay {
    /// The room.
    pub room: RoomId,
    /// When.
    pub interval: Interval,
}

impl Stay {
    /// The stay's duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.interval.duration()
    }
}

/// Segments a localized track into stays.
///
/// Consecutive fixes in the same room extend the current stay; gaps longer
/// than `max_gap` close it (badge inactive or undetectable). Stays shorter
/// than [`MIN_STAY`] — the door-leakage artifacts — are dropped, and their
/// spans merge into the surrounding stay when it is the same room on both
/// sides.
#[must_use]
pub fn segment_stays(track: &PositionTrack, max_gap: SimDuration) -> Vec<Stay> {
    let fixes = track.fixes.samples();
    if fixes.is_empty() {
        return Vec::new();
    }
    // Raw runs of identical rooms.
    let mut raw: Vec<Stay> = Vec::new();
    let mut start = fixes[0].t;
    let mut room = fixes[0].value.room;
    let mut last = fixes[0].t;
    for f in &fixes[1..] {
        let gap = f.t - last;
        if f.value.room != room || gap > max_gap {
            raw.push(Stay {
                room,
                interval: Interval::new(start, last + SimDuration::from_secs(1)),
            });
            start = f.t;
            room = f.value.room;
        }
        last = f.t;
    }
    raw.push(Stay {
        room,
        interval: Interval::new(start, last + SimDuration::from_secs(1)),
    });

    // Drop sub-10-s blips and merge the flanks they interrupted.
    let mut out: Vec<Stay> = Vec::new();
    for stay in raw {
        if stay.duration() < MIN_STAY {
            continue;
        }
        match out.last_mut() {
            Some(prev)
                if prev.room == stay.room
                    && stay.interval.start - prev.interval.end <= max_gap.max(MIN_STAY) =>
            {
                prev.interval.end = stay.interval.end;
            }
            _ => out.push(stay),
        }
    }
    out
}

/// The Fig. 2 passage matrix over the eight peripheral rooms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PassageMatrix {
    /// `counts[from][to]` over [`RoomId::FIG2`] indices.
    counts: [[u32; 8]; 8],
}

impl PassageMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(room: RoomId) -> Option<usize> {
        RoomId::FIG2.iter().position(|&r| r == room)
    }

    /// Counts passages from a stay sequence: consecutive peripheral stays
    /// (after removing main-hall and hangar stays, through which every
    /// transit passes) form one passage each.
    pub fn accumulate(&mut self, stays: &[Stay]) {
        let peripheral: Vec<&Stay> = stays
            .iter()
            .filter(|s| Self::idx(s.room).is_some())
            .collect();
        for w in peripheral.windows(2) {
            let (from, to) = (w[0].room, w[1].room);
            if from == to {
                continue; // same room re-entered after a hall detour
            }
            // A passage must be reasonably direct: bounded time between the
            // two stays (a night or an EVA in between is not a passage).
            if w[1].interval.start - w[0].interval.end > SimDuration::from_mins(10) {
                continue;
            }
            let (i, j) = (
                Self::idx(from).expect("filtered"),
                Self::idx(to).expect("filtered"),
            );
            self.counts[i][j] += 1;
        }
    }

    /// Count of passages from `x` to `y`.
    ///
    /// Returns 0 for rooms outside the Fig. 2 set.
    #[must_use]
    pub fn count(&self, x: RoomId, y: RoomId) -> u32 {
        match (Self::idx(x), Self::idx(y)) {
            (Some(i), Some(j)) => self.counts[i][j],
            _ => 0,
        }
    }

    /// Adds another matrix (e.g. a day's) into this one.
    pub fn merge(&mut self, other: &PassageMatrix) {
        for i in 0..8 {
            for j in 0..8 {
                self.counts[i][j] += other.counts[i][j];
            }
        }
    }

    /// Total number of passages.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.counts.iter().flatten().sum()
    }

    /// The `(from, to, count)` triple with the highest count.
    #[must_use]
    pub fn hottest(&self) -> (RoomId, RoomId, u32) {
        let mut best = (RoomId::FIG2[0], RoomId::FIG2[0], 0);
        for (i, &from) in RoomId::FIG2.iter().enumerate() {
            for (j, &to) in RoomId::FIG2.iter().enumerate() {
                if self.counts[i][j] > best.2 {
                    best = (from, to, self.counts[i][j]);
                }
            }
        }
        best
    }
}

/// Stay-duration statistics per room (the "biolab ≈ 2.5 h vs office ≈ 2×"
/// finding).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct StayStats {
    durations: Vec<(RoomId, f64)>,
}

impl StayStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds stays.
    pub fn accumulate(&mut self, stays: &[Stay]) {
        self.durations
            .extend(stays.iter().map(|s| (s.room, s.duration().as_hours_f64())));
    }

    /// Median stay duration in a room (hours), considering only substantial
    /// stays (≥ `min_hours`) — the paper discusses work-session stays, not
    /// pass-throughs.
    #[must_use]
    pub fn median_stay_hours(&self, room: RoomId, min_hours: f64) -> f64 {
        let v: Vec<f64> = self
            .durations
            .iter()
            .filter(|(r, h)| *r == room && *h >= min_hours)
            .map(|&(_, h)| h)
            .collect();
        ares_simkit::stats::median(&v)
    }

    /// Number of recorded stays in a room.
    #[must_use]
    pub fn stay_count(&self, room: RoomId) -> usize {
        self.durations.iter().filter(|(r, _)| *r == room).count()
    }
}

/// Merges same-room stays separated by gaps of at most `gap` into work
/// *sessions* — a 40-second hydration dash to the kitchen does not end an
/// office work session in the paper's sense ("the majority of stays at the
/// office and the workshop lasted twice as much [as 2.5 h]").
#[must_use]
pub fn sessions(stays: &[Stay], gap: SimDuration) -> Vec<Stay> {
    let mut by_room: std::collections::BTreeMap<RoomId, Vec<Stay>> = Default::default();
    for s in stays {
        by_room.entry(s.room).or_default().push(*s);
    }
    let mut out = Vec::new();
    for (_, mut room_stays) in by_room {
        room_stays.sort_by_key(|s| s.interval.start);
        let mut merged: Vec<Stay> = Vec::new();
        for s in room_stays {
            match merged.last_mut() {
                Some(prev) if s.interval.start - prev.interval.end <= gap => {
                    prev.interval.end = prev.interval.end.max(s.interval.end);
                }
                _ => merged.push(s),
            }
        }
        out.extend(merged);
    }
    out.sort_by_key(|s| s.interval.start);
    out
}

/// Median *daily sojourn* per room: for each astronaut-day that used the
/// room for at least `min_hours` in total, sum the day's stays there; the
/// median of those daily totals. This is the reproduction's reading of the
/// paper's "astronauts tended to stay at the biolab mostly about 2.5 h while
/// the majority of stays at the office and the workshop lasted twice as
/// much" — daily sojourn lengths, robust to brief hydration dashes.
#[must_use]
pub fn median_daily_room_hours(stays_per_day: &[Vec<Stay>], room: RoomId, min_hours: f64) -> f64 {
    let mut totals = Vec::new();
    for day_stays in stays_per_day {
        let h: f64 = day_stays
            .iter()
            .filter(|s| s.room == room)
            .map(|s| s.duration().as_hours_f64())
            .sum();
        if h >= min_hours {
            totals.push(h);
        }
    }
    ares_simkit::stats::median(&totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localization::{Fix, PositionTrack};
    use ares_simkit::geometry::Point2;
    use ares_simkit::time::SimTime;

    fn track_from(rooms: &[(i64, i64, RoomId)]) -> PositionTrack {
        let mut track = PositionTrack::default();
        for &(a, b, room) in rooms {
            for t in a..b {
                track.fixes.push(
                    SimTime::from_secs(t),
                    Fix {
                        room,
                        position: Point2::ORIGIN,
                        hits: 3,
                    },
                );
            }
        }
        track
    }

    #[test]
    fn stays_segment_and_filter_blips() {
        // 60 s office, 3 s kitchen blip (door leak), 60 s office again.
        let track = track_from(&[
            (0, 60, RoomId::Office),
            (60, 63, RoomId::Kitchen),
            (63, 120, RoomId::Office),
        ]);
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        assert_eq!(stays.len(), 1, "blip must merge: {stays:?}");
        assert_eq!(stays[0].room, RoomId::Office);
        assert!(stays[0].duration() >= SimDuration::from_secs(115));
    }

    #[test]
    fn distinct_rooms_make_distinct_stays() {
        let track = track_from(&[
            (0, 100, RoomId::Office),
            (100, 130, RoomId::Main),
            (130, 200, RoomId::Kitchen),
        ]);
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        assert_eq!(stays.len(), 3);
        assert_eq!(stays[0].room, RoomId::Office);
        assert_eq!(stays[1].room, RoomId::Main);
        assert_eq!(stays[2].room, RoomId::Kitchen);
    }

    #[test]
    fn passages_skip_the_main_hall() {
        let track = track_from(&[
            (0, 100, RoomId::Office),
            (100, 120, RoomId::Main),
            (120, 200, RoomId::Kitchen),
            (200, 215, RoomId::Main),
            (215, 300, RoomId::Office),
        ]);
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        let mut m = PassageMatrix::new();
        m.accumulate(&stays);
        assert_eq!(m.count(RoomId::Office, RoomId::Kitchen), 1);
        assert_eq!(m.count(RoomId::Kitchen, RoomId::Office), 1);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn long_gaps_break_passages() {
        let track = track_from(&[
            (0, 100, RoomId::Office),
            // 2-hour gap (EVA / overnight).
            (7300, 7400, RoomId::Kitchen),
        ]);
        let stays = segment_stays(&track, SimDuration::from_secs(5));
        let mut m = PassageMatrix::new();
        m.accumulate(&stays);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn hottest_and_merge() {
        let mut a = PassageMatrix::new();
        let stays = vec![
            Stay {
                room: RoomId::Office,
                interval: Interval::new(SimTime::from_secs(0), SimTime::from_secs(100)),
            },
            Stay {
                room: RoomId::Kitchen,
                interval: Interval::new(SimTime::from_secs(110), SimTime::from_secs(200)),
            },
        ];
        a.accumulate(&stays);
        let mut b = PassageMatrix::new();
        b.accumulate(&stays);
        a.merge(&b);
        assert_eq!(a.hottest(), (RoomId::Office, RoomId::Kitchen, 2));
    }

    #[test]
    fn stay_stats_median() {
        let mut s = StayStats::new();
        let mk = |room, hours: f64| Stay {
            room,
            interval: Interval::new(
                SimTime::EPOCH,
                SimTime::EPOCH + SimDuration::from_secs_f64(hours * 3600.0),
            ),
        };
        s.accumulate(&[
            mk(RoomId::Biolab, 2.4),
            mk(RoomId::Biolab, 2.6),
            mk(RoomId::Office, 4.8),
            mk(RoomId::Office, 5.4),
            mk(RoomId::Office, 0.05), // pass-through, below min_hours
        ]);
        assert!((s.median_stay_hours(RoomId::Biolab, 0.5) - 2.5).abs() < 1e-9);
        assert!((s.median_stay_hours(RoomId::Office, 0.5) - 5.1).abs() < 1e-9);
        assert_eq!(s.stay_count(RoomId::Office), 3);
    }
}
