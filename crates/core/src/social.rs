//! Social-network metrics: company time, pairwise meeting hours and
//! Kleinberg (HITS) authority centrality — the machinery behind Table I(a)
//! and the A–F vs D–E finding.

use crate::meetings::MeetingObs;
use ares_crew::roster::AstronautId;
use serde::{Deserialize, Serialize};

/// A symmetric 6×6 matrix of accompanied time (hours).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CompanyMatrix {
    hours: [[f64; 6]; 6],
}

impl CompanyMatrix {
    /// An empty matrix.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates a meeting: every unordered participant pair gains the
    /// meeting's duration.
    pub fn accumulate(&mut self, meeting: &MeetingObs) {
        let h = meeting.duration().as_hours_f64();
        for (i, &x) in meeting.participants.iter().enumerate() {
            for &y in &meeting.participants[i + 1..] {
                self.hours[x.index()][y.index()] += h;
                self.hours[y.index()][x.index()] += h;
            }
        }
    }

    /// Accompanied hours between two astronauts.
    #[must_use]
    pub fn pair_hours(&self, x: AstronautId, y: AstronautId) -> f64 {
        self.hours[x.index()][y.index()]
    }

    /// Adds raw pair hours directly (symmetric), for callers aggregating from
    /// sources other than [`MeetingObs`] (e.g. synthetic matrices in tests
    /// and ablations).
    pub fn add_pair_hours(&mut self, x: AstronautId, y: AstronautId, hours: f64) {
        if x != y {
            self.hours[x.index()][y.index()] += hours;
            self.hours[y.index()][x.index()] += hours;
        }
    }

    /// Total accompanied hours of one astronaut (the paper's "company"
    /// score before normalization).
    #[must_use]
    pub fn company_hours(&self, x: AstronautId) -> f64 {
        self.hours[x.index()].iter().sum()
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &CompanyMatrix) {
        for i in 0..6 {
            for j in 0..6 {
                self.hours[i][j] += other.hours[i][j];
            }
        }
    }

    /// Kleinberg HITS authority scores over the weighted company graph.
    ///
    /// For a symmetric matrix the authority vector converges to the principal
    /// eigenvector; the iteration is still the classic hub/authority update.
    /// Astronauts with zero data (e.g. C after exclusion) get 0.
    #[must_use]
    pub fn hits_authority(&self, iterations: usize) -> [f64; 6] {
        let mut auth = [1.0f64; 6];
        let mut hub = [1.0f64; 6];
        for _ in 0..iterations {
            let mut new_auth = [0.0f64; 6];
            for (i, na) in new_auth.iter_mut().enumerate() {
                for (j, h) in hub.iter().enumerate() {
                    *na += self.hours[j][i] * h;
                }
            }
            normalize(&mut new_auth);
            let mut new_hub = [0.0f64; 6];
            for (i, nh) in new_hub.iter_mut().enumerate() {
                for (j, a) in new_auth.iter().enumerate() {
                    *nh += self.hours[i][j] * a;
                }
            }
            normalize(&mut new_hub);
            auth = new_auth;
            hub = new_hub;
        }
        auth
    }
}

fn normalize(v: &mut [f64; 6]) {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Pairwise meeting-time ledger: private (two-person) and all meetings.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PairwiseLedger {
    private_h: [[f64; 6]; 6],
    all_h: [[f64; 6]; 6],
}

impl PairwiseLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one meeting into the all-meetings ledger. Private
    /// (face-to-face conversation) hours come from the infrared evidence via
    /// [`PairwiseLedger::add_private`] — mere two-person co-presence in a room
    /// for hours is not "talking privately".
    pub fn accumulate(&mut self, meeting: &MeetingObs) {
        let h = meeting.duration().as_hours_f64();
        for (i, &x) in meeting.participants.iter().enumerate() {
            for &y in &meeting.participants[i + 1..] {
                self.all_h[x.index()][y.index()] += h;
                self.all_h[y.index()][x.index()] += h;
            }
        }
    }

    /// Adds infrared-confirmed private conversation hours for a pair.
    pub fn add_private(&mut self, x: AstronautId, y: AstronautId, hours: f64) {
        self.private_h[x.index()][y.index()] += hours;
        self.private_h[y.index()][x.index()] += hours;
    }

    /// Merges another ledger.
    pub fn merge(&mut self, other: &PairwiseLedger) {
        for i in 0..6 {
            for j in 0..6 {
                self.private_h[i][j] += other.private_h[i][j];
                self.all_h[i][j] += other.all_h[i][j];
            }
        }
    }

    /// Hours of two-person meetings between a pair.
    #[must_use]
    pub fn private_hours(&self, x: AstronautId, y: AstronautId) -> f64 {
        self.private_h[x.index()][y.index()]
    }

    /// Hours of all shared meetings between a pair.
    #[must_use]
    pub fn all_hours(&self, x: AstronautId, y: AstronautId) -> f64 {
        self.all_h[x.index()][y.index()]
    }
}

/// Normalizes a per-astronaut score vector by its maximum (the paper's Table
/// I presentation); entries for `exclude` become `None` ("n/a").
#[must_use]
pub fn normalize_scores(scores: &[f64; 6], exclude: &[AstronautId]) -> [Option<f64>; 6] {
    let max = AstronautId::ALL
        .iter()
        .filter(|a| !exclude.contains(a))
        .map(|a| scores[a.index()])
        .fold(0.0f64, f64::max);
    let mut out = [None; 6];
    for a in AstronautId::ALL {
        if exclude.contains(&a) {
            continue;
        }
        out[a.index()] = Some(if max > 0.0 {
            scores[a.index()] / max
        } else {
            0.0
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_habitat::rooms::RoomId;
    use ares_simkit::series::Interval;
    use ares_simkit::time::{SimDuration, SimTime};

    fn meeting(parts: &[AstronautId], hours: f64) -> MeetingObs {
        MeetingObs {
            room: RoomId::Kitchen,
            interval: Interval::new(
                SimTime::EPOCH,
                SimTime::EPOCH + SimDuration::from_secs_f64(hours * 3600.0),
            ),
            participants: parts.to_vec(),
            planned: false,
            speech_fraction: 0.5,
            mean_level_db: 60.0,
        }
    }

    #[test]
    fn company_accumulates_pairwise() {
        use AstronautId as Id;
        let mut m = CompanyMatrix::new();
        m.accumulate(&meeting(&[Id::A, Id::B, Id::C], 2.0));
        assert_eq!(m.pair_hours(Id::A, Id::B), 2.0);
        assert_eq!(m.pair_hours(Id::B, Id::C), 2.0);
        assert_eq!(m.company_hours(Id::A), 4.0); // with B and with C
        assert_eq!(m.pair_hours(Id::A, Id::D), 0.0);
    }

    #[test]
    fn hits_ranks_the_best_connected_highest() {
        use AstronautId as Id;
        let mut m = CompanyMatrix::new();
        // B meets everyone; E meets only B briefly.
        for other in [Id::A, Id::C, Id::D, Id::F] {
            m.accumulate(&meeting(&[Id::B, other], 3.0));
        }
        m.accumulate(&meeting(&[Id::B, Id::E], 0.5));
        m.accumulate(&meeting(&[Id::A, Id::F], 2.0));
        let auth = m.hits_authority(50);
        let b = auth[Id::B.index()];
        for a in [Id::A, Id::C, Id::D, Id::E, Id::F] {
            assert!(b > auth[a.index()], "B must dominate {a}");
        }
        assert!(auth[Id::E.index()] < auth[Id::A.index()]);
    }

    #[test]
    fn hits_is_scale_invariant_in_ranking() {
        use AstronautId as Id;
        let mut m1 = CompanyMatrix::new();
        m1.accumulate(&meeting(&[Id::A, Id::B], 1.0));
        m1.accumulate(&meeting(&[Id::B, Id::C], 2.0));
        let mut m2 = CompanyMatrix::new();
        m2.accumulate(&meeting(&[Id::A, Id::B], 10.0));
        m2.accumulate(&meeting(&[Id::B, Id::C], 20.0));
        let a1 = m1.hits_authority(60);
        let a2 = m2.hits_authority(60);
        for i in 0..6 {
            assert!((a1[i] - a2[i]).abs() < 1e-9, "scaling changed HITS");
        }
    }

    #[test]
    fn ledger_distinguishes_private_from_group() {
        use AstronautId as Id;
        let mut l = PairwiseLedger::new();
        l.accumulate(&meeting(&[Id::A, Id::F], 1.5));
        l.accumulate(&meeting(&[Id::A, Id::F, Id::B], 2.0));
        l.add_private(Id::A, Id::F, 0.75);
        assert_eq!(l.private_hours(Id::A, Id::F), 0.75);
        assert_eq!(l.private_hours(Id::F, Id::A), 0.75);
        assert_eq!(l.all_hours(Id::A, Id::F), 3.5);
        assert_eq!(l.private_hours(Id::A, Id::B), 0.0);
        assert_eq!(l.all_hours(Id::A, Id::B), 2.0);
    }

    #[test]
    fn normalization_excludes_na_entries() {
        use AstronautId as Id;
        let scores = [4.0, 8.0, 100.0, 6.0, 2.0, 7.0];
        let n = normalize_scores(&scores, &[Id::C]);
        assert_eq!(n[Id::C.index()], None);
        assert_eq!(n[Id::B.index()], Some(1.0)); // B's 8.0 is max among included
        assert_eq!(n[Id::E.index()], Some(0.25));
    }
}
