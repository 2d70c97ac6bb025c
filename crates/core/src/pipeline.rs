//! The analysis products of the offline pipeline.
//!
//! Mirrors the post-mission workflow of the ICAres-1 deployment: badge
//! telemetry comes in day by day; each day is clock-corrected against the
//! reference badge, localized, classified for wear/walking/speech,
//! identity-resolved (catching badge swaps), and folded into mission-level
//! aggregates.
//!
//! The pipeline sees **only recorded data** plus legitimately known metadata:
//! the floor plan, the beacon placements, the calibrated channel model, the
//! mission schedule, and the nominal badge-assignment sheet. It never touches
//! the simulation ground truth — the integration tests hold it accountable
//! against that truth instead.
//!
//! This module holds the tunables ([`PipelineParams`]) and the typed results
//! ([`BadgeDay`], [`DayAnalysis`], [`MissionAnalysis`]). The analysis itself
//! has one door, [`crate::engine::MissionEngine`], built on the stage kernels
//! in [`crate::engine`] that the streaming analyzer shares.

use crate::activity::{ActivityParams, ActivityTrack};
use crate::anomaly::{Identification, IdentityParams};
use crate::localization::{Heatmap, LocalizationParams, PositionTrack};
use crate::meetings::{MeetingObs, MeetingParams};
use crate::occupancy::{PassageMatrix, Stay, StayStats};
use crate::social::{CompanyMatrix, PairwiseLedger};
use crate::speech::{SpeechParams, SpeechTrack};
use crate::sync::SyncCorrection;
use crate::wear::{WearParams, WearTrack};
use ares_badge::records::BadgeId;
use ares_crew::roster::AstronautId;
use ares_habitat::floorplan::FloorPlan;
use serde::{Deserialize, Serialize};

/// All tunables of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PipelineParams {
    /// Localization parameters.
    pub localization: LocalizationParams,
    /// Wear-detection parameters.
    pub wear: WearParams,
    /// Walking-detection parameters.
    pub activity: ActivityParams,
    /// Speech parameters.
    pub speech: SpeechParams,
    /// Meeting parameters.
    pub meetings: MeetingParams,
    /// Identity-resolution parameters.
    pub identity: IdentityParams,
}

/// The analysis of one badge's log for one day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BadgeDay {
    /// The unit.
    pub badge: BadgeId,
    /// Fitted clock correction.
    pub corr: SyncCorrection,
    /// Localized track.
    pub track: PositionTrack,
    /// Wear classification.
    pub wear: WearTrack,
    /// Walking bouts.
    pub activity: ActivityTrack,
    /// Speech analysis.
    pub speech: SpeechTrack,
    /// Room stays.
    pub stays: Vec<Stay>,
    /// Identity resolution.
    pub identification: Identification,
}

/// Per-astronaut aggregate numbers for one day.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AstronautDaily {
    /// Fraction of worn time spent walking (Fig. 4).
    pub walking_fraction: f64,
    /// Fraction of recorded 15-s intervals with speech (Fig. 6).
    pub heard_fraction: f64,
    /// Fraction of daytime the badge was worn.
    pub worn_fraction: f64,
    /// Fraction of daytime the badge was active.
    pub active_fraction: f64,
    /// Hours of self-attributed speech.
    pub self_talk_h: f64,
    /// Hours of worn time.
    pub worn_h: f64,
    /// Hours of walking.
    pub walking_h: f64,
    /// Mean worn accelerometer variance ("average daily acceleration").
    pub mean_accel_var: f64,
}

/// Everything extracted from one day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayAnalysis {
    /// The mission day.
    pub day: u32,
    /// Per-badge detail.
    pub badges: Vec<BadgeDay>,
    /// Resolved badge index (into `badges`) per astronaut.
    pub carrier_of: [Option<usize>; 6],
    /// Detected meetings.
    pub meetings: Vec<MeetingObs>,
    /// The day's passage counts.
    pub passages: PassageMatrix,
    /// Per-astronaut daily aggregates.
    pub daily: [Option<AstronautDaily>; 6],
    /// Swap flags raised this day: `(badge, nominal, resolved)`.
    pub swaps: Vec<(BadgeId, AstronautId, AstronautId)>,
    /// Infrared-confirmed private conversation hours per pair this day.
    pub private_pairs: Vec<(AstronautId, AstronautId, f64)>,
    /// Per-room temperature sums `(Σ°C, n)` joined from badge env samples
    /// and localization, indexed by [`ares_habitat::rooms::RoomId::index`].
    pub climate_sums: [(f64, u64); 10],
    /// The reference badge's environmental samples (reference time), feeding
    /// the mission-level day-length estimator.
    pub reference_env: Vec<ares_badge::records::EnvSample>,
}

/// Mission-level accumulator over day analyses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissionAnalysis {
    /// Total passage matrix (Fig. 2).
    pub passages: PassageMatrix,
    /// Company matrix (Table I a).
    pub company: CompanyMatrix,
    /// Pairwise private/all meeting hours.
    pub ledger: PairwiseLedger,
    /// Stay-duration statistics.
    pub stay_stats: StayStats,
    /// All detected meetings.
    pub meetings: Vec<MeetingObs>,
    /// Positional heatmaps per astronaut (Fig. 3 uses A's).
    pub heatmaps: Vec<Heatmap>,
    /// `daily[day-1][astronaut]` aggregates.
    pub daily: Vec<[Option<AstronautDaily>; 6]>,
    /// All swap flags: `(day, badge, nominal, resolved)`.
    pub swaps: Vec<(u32, BadgeId, AstronautId, AstronautId)>,
    /// Raw bytes recorded (summed from logs).
    pub bytes_recorded: u64,
    /// Accompanied hours per astronaut: total time spent in meetings (the
    /// paper's "company" score before normalization).
    pub accompanied_h: [f64; 6],
    /// Stay lists per astronaut-day (for session statistics).
    pub stays_per_day: Vec<Vec<crate::occupancy::Stay>>,
    /// Accumulated per-room temperature sums `(Σ°C, n)`.
    pub climate_sums: [(f64, u64); 10],
    /// The reference badge's environmental stream across the mission.
    pub reference_env: Vec<ares_badge::records::EnvSample>,
}

impl MissionAnalysis {
    /// An empty accumulator over a floor plan.
    #[must_use]
    pub fn new(plan: &FloorPlan) -> Self {
        MissionAnalysis {
            passages: PassageMatrix::new(),
            company: CompanyMatrix::new(),
            ledger: PairwiseLedger::new(),
            stay_stats: StayStats::new(),
            meetings: Vec::new(),
            heatmaps: (0..6).map(|_| Heatmap::covering(plan)).collect(),
            daily: Vec::new(),
            swaps: Vec::new(),
            bytes_recorded: 0,
            accompanied_h: [0.0; 6],
            stays_per_day: Vec::new(),
            climate_sums: [(0.0, 0); 10],
            reference_env: Vec::new(),
        }
    }

    /// Folds one day's analysis into the mission aggregates, taking
    /// ownership so the hot per-day vectors (stays, meetings, the reference
    /// environmental stream) are moved, not cloned.
    pub fn absorb(&mut self, mut day: DayAnalysis) {
        self.passages.merge(&day.passages);
        for m in &day.meetings {
            self.company.accumulate(m);
            self.ledger.accumulate(m);
            for p in &m.participants {
                self.accompanied_h[p.index()] += m.duration().as_hours_f64();
            }
        }
        for &(x, y, h) in &day.private_pairs {
            self.ledger.add_private(x, y, h);
        }
        self.meetings.append(&mut day.meetings);
        for a in AstronautId::ALL {
            if let Some(idx) = day.carrier_of[a.index()] {
                // Each badge index resolves to at most one astronaut, so the
                // take below never sees the same stays twice.
                let b = &mut day.badges[idx];
                self.stay_stats.accumulate(&b.stays);
                self.heatmaps[a.index()].accumulate(&b.track);
                self.stays_per_day.push(std::mem::take(&mut b.stays));
            }
        }
        while self.daily.len() < day.day as usize {
            self.daily.push([None; 6]);
        }
        self.daily[(day.day - 1) as usize] = day.daily;
        for &(badge, from, to) in &day.swaps {
            self.swaps.push((day.day, badge, from, to));
        }
        for (i, &(sum, n)) in day.climate_sums.iter().enumerate() {
            self.climate_sums[i].0 += sum;
            self.climate_sums[i].1 += n;
        }
        self.reference_env.append(&mut day.reference_env);
    }

    /// The warmest room by badge-measured mean temperature (≥30 samples).
    #[must_use]
    pub fn warmest_room(&self) -> Option<(ares_habitat::rooms::RoomId, f64)> {
        ares_habitat::rooms::RoomId::ALL
            .into_iter()
            .filter_map(|r| {
                let (sum, n) = self.climate_sums[r.index()];
                (n >= 30).then(|| (r, sum / n as f64))
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    }

    /// Estimates the artificial day length from the reference badge's light
    /// stream (the habitat "lived on particularly adjusted Martian time").
    #[must_use]
    pub fn day_length_estimate(&self) -> Option<crate::environment::DayLengthEstimate> {
        let transitions = crate::environment::detect_lights_on(
            &self.reference_env,
            &SyncCorrection::identity(),
            50.0,
            100.0,
        );
        crate::environment::estimate_day_length(&transitions)
    }

    /// Accounts raw storage volume already summed by the caller (the engine
    /// sums `TelemetryStore::bytes_written` per day).
    pub fn account_recorded(&mut self, bytes: u64) {
        self.bytes_recorded += bytes;
    }

    /// Mission totals: `(worn_h, self_talk_h, walking_h)` per astronaut.
    #[must_use]
    pub fn totals(&self, a: AstronautId) -> (f64, f64, f64) {
        let mut worn = 0.0;
        let mut talk = 0.0;
        let mut walk = 0.0;
        for d in &self.daily {
            if let Some(x) = &d[a.index()] {
                worn += x.worn_h;
                talk += x.self_talk_h;
                walk += x.walking_h;
            }
        }
        (worn, talk, walk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{analyze_day_stores, EngineMetrics, MissionContext};

    #[test]
    fn empty_day_is_harmless() {
        let ctx = MissionContext::icares();
        let day = analyze_day_stores(&ctx, 3, &[], &mut EngineMetrics::new());
        assert!(day.badges.is_empty());
        assert!(day.meetings.is_empty());
        assert_eq!(day.passages.total(), 0);
        let mut mission = MissionAnalysis::new(&ctx.plan);
        mission.absorb(day);
        assert_eq!(mission.daily.len(), 3);
        assert!(mission.daily[2].iter().all(Option::is_none));
    }
}
