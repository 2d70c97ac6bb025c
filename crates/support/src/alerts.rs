//! The alert rule engine.
//!
//! Section VI's support system should "measure fatigue, stress, and mood,
//! help prevent injuries and avoid conflicts", warn "astronauts against
//! dehydration", and surface that "familiarity with current sociometric
//! indicators could have motivated the crew to give extra attention during
//! group meetings to the most passive astronaut, D". The engine evaluates
//! those rules over the streaming per-day pipeline output.

use ares_crew::roster::AstronautId;
use ares_habitat::rooms::RoomId;
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::pipeline::DayAnalysis;
use serde::{Deserialize, Serialize};

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational nudge.
    Info,
    /// Needs crew attention.
    Warning,
    /// Needs immediate action.
    Critical,
}

/// A raised alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// When it was raised.
    pub at: SimTime,
    /// Severity.
    pub severity: Severity,
    /// Rule that fired.
    pub rule: String,
    /// Affected astronaut, if specific.
    pub who: Option<AstronautId>,
    /// Human-readable detail.
    pub detail: String,
}

/// Tunable rule thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlertRules {
    /// Longest acceptable span without a kitchen visit (dehydration risk).
    pub hydration_gap: SimDuration,
    /// Fraction of the crew-mean speech below which someone counts passive.
    pub passivity_ratio: f64,
    /// Meeting loudness above which a heated-conflict warning fires (dB).
    pub conflict_level_db: f64,
    /// Walking fraction below which fatigue is suspected (vs own baseline).
    pub fatigue_ratio: f64,
    /// Worn fraction below which a compliance nudge fires.
    pub wear_floor: f64,
}

impl Default for AlertRules {
    fn default() -> Self {
        AlertRules {
            hydration_gap: SimDuration::from_hours(5),
            passivity_ratio: 0.55,
            conflict_level_db: 75.0,
            fatigue_ratio: 0.5,
            wear_floor: 0.4,
        }
    }
}

/// The alert engine: stateful across days (baselines).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct AlertEngine {
    rules: AlertRules,
    baseline_walking: [Option<f64>; 6],
    raised: Vec<Alert>,
}

impl AlertEngine {
    /// Creates an engine with the given rules.
    #[must_use]
    pub fn new(rules: AlertRules) -> Self {
        AlertEngine {
            rules,
            baseline_walking: [None; 6],
            raised: Vec::new(),
        }
    }

    /// All alerts raised so far.
    #[must_use]
    pub fn alerts(&self) -> &[Alert] {
        &self.raised
    }

    /// Evaluates one day of pipeline output; returns the alerts raised.
    pub fn evaluate_day(&mut self, day: &DayAnalysis) -> Vec<Alert> {
        let mut new_alerts = Vec::new();
        let day_end = SimTime::from_day_hms(day.day, 21, 0, 0);

        // Dehydration: long spans without a kitchen stay.
        for a in AstronautId::ALL {
            let Some(idx) = day.carrier_of[a.index()] else {
                continue;
            };
            let stays = &day.badges[idx].stays;
            let mut last_kitchen = SimTime::from_day_hms(day.day, 7, 0, 0);
            for s in stays {
                if s.room == RoomId::Kitchen {
                    last_kitchen = s.interval.end;
                } else if s.interval.end - last_kitchen > self.rules.hydration_gap {
                    new_alerts.push(Alert {
                        at: s.interval.end,
                        severity: Severity::Warning,
                        rule: "hydration".into(),
                        who: Some(a),
                        detail: format!(
                            "{a} has not visited the kitchen for over {}",
                            self.rules.hydration_gap
                        ),
                    });
                    last_kitchen = s.interval.end; // one alert per gap
                }
            }
        }

        // Passivity: speech far below the crew mean ("give extra attention
        // to the most passive astronaut").
        let fractions: Vec<(AstronautId, f64)> = AstronautId::ALL
            .iter()
            .filter_map(|&a| day.daily[a.index()].map(|d| (a, d.heard_fraction)))
            .collect();
        if fractions.len() >= 3 {
            let mean: f64 = fractions.iter().map(|&(_, f)| f).sum::<f64>() / fractions.len() as f64;
            if mean > 0.05 {
                for &(a, f) in &fractions {
                    if f < self.rules.passivity_ratio * mean {
                        new_alerts.push(Alert {
                            at: day_end,
                            severity: Severity::Info,
                            rule: "passivity".into(),
                            who: Some(a),
                            detail: format!(
                                "{a} engaged in conversation far less than the crew mean \
                                 ({f:.2} vs {mean:.2}); consider extra attention at the next briefing"
                            ),
                        });
                    }
                }
            }
        }

        // Conflict heat: unusually loud meetings.
        for m in &day.meetings {
            if m.mean_level_db > self.rules.conflict_level_db && m.participants.len() >= 2 {
                new_alerts.push(Alert {
                    at: m.interval.start,
                    severity: Severity::Warning,
                    rule: "conflict-loudness".into(),
                    who: None,
                    detail: format!(
                        "meeting in the {} reached {:.1} dB — possible heated exchange",
                        m.room, m.mean_level_db
                    ),
                });
            }
        }

        // Fatigue: walking collapsed against the astronaut's own baseline.
        for a in AstronautId::ALL {
            let Some(d) = &day.daily[a.index()] else {
                continue;
            };
            match self.baseline_walking[a.index()] {
                Some(base) if base > 1e-6 => {
                    if d.walking_fraction < self.rules.fatigue_ratio * base {
                        new_alerts.push(Alert {
                            at: day_end,
                            severity: Severity::Warning,
                            rule: "fatigue".into(),
                            who: Some(a),
                            detail: format!(
                                "{a}'s mobility dropped to {:.3} (baseline {:.3})",
                                d.walking_fraction, base
                            ),
                        });
                    }
                    // Exponential moving baseline.
                    self.baseline_walking[a.index()] = Some(0.8 * base + 0.2 * d.walking_fraction);
                }
                _ => self.baseline_walking[a.index()] = Some(d.walking_fraction),
            }
        }

        // Compliance: badge barely worn.
        for a in AstronautId::ALL {
            if let Some(d) = &day.daily[a.index()] {
                if d.worn_fraction < self.rules.wear_floor {
                    new_alerts.push(Alert {
                        at: day_end,
                        severity: Severity::Info,
                        rule: "wear-compliance".into(),
                        who: Some(a),
                        detail: format!(
                            "{a}'s badge was worn only {:.0} % of daytime",
                            d.worn_fraction * 100.0
                        ),
                    });
                }
            }
        }

        self.raised.extend(new_alerts.iter().cloned());
        new_alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_simkit::series::Interval;
    use ares_sociometrics::occupancy::Stay;
    use ares_sociometrics::pipeline::AstronautDaily;

    fn daily(heard: f64, walking: f64, worn: f64) -> AstronautDaily {
        AstronautDaily {
            walking_fraction: walking,
            heard_fraction: heard,
            worn_fraction: worn,
            active_fraction: 0.9,
            self_talk_h: 1.0,
            worn_h: 9.0,
            walking_h: walking * 9.0,
            mean_accel_var: 0.05,
        }
    }

    fn empty_day(day: u32) -> DayAnalysis {
        DayAnalysis {
            day,
            badges: Vec::new(),
            carrier_of: [None; 6],
            meetings: Vec::new(),
            passages: ares_sociometrics::occupancy::PassageMatrix::new(),
            daily: [None; 6],
            swaps: Vec::new(),
            private_pairs: Vec::new(),
            climate_sums: [(0.0, 0); 10],
            reference_env: Vec::new(),
        }
    }

    #[test]
    fn passivity_flags_the_quiet_one() {
        let mut day = empty_day(5);
        for a in AstronautId::ALL {
            day.daily[a.index()] = Some(daily(
                if a == AstronautId::D { 0.08 } else { 0.4 },
                0.05,
                0.7,
            ));
        }
        let mut engine = AlertEngine::new(AlertRules::default());
        let alerts = engine.evaluate_day(&day);
        let passive: Vec<_> = alerts.iter().filter(|a| a.rule == "passivity").collect();
        assert_eq!(passive.len(), 1);
        assert_eq!(passive[0].who, Some(AstronautId::D));
    }

    #[test]
    fn fatigue_needs_a_baseline_first() {
        let mut engine = AlertEngine::new(AlertRules::default());
        let mut day1 = empty_day(3);
        day1.daily[0] = Some(daily(0.3, 0.06, 0.7));
        assert!(engine
            .evaluate_day(&day1)
            .iter()
            .all(|a| a.rule != "fatigue"));
        // Next day mobility collapses.
        let mut day2 = empty_day(4);
        day2.daily[0] = Some(daily(0.3, 0.01, 0.7));
        let alerts = engine.evaluate_day(&day2);
        assert!(alerts
            .iter()
            .any(|a| a.rule == "fatigue" && a.who == Some(AstronautId::A)));
    }

    #[test]
    fn loud_meeting_raises_conflict_warning() {
        let mut day = empty_day(9);
        day.meetings.push(ares_sociometrics::meetings::MeetingObs {
            room: RoomId::Main,
            interval: Interval::new(
                SimTime::from_day_hms(9, 14, 0, 0),
                SimTime::from_day_hms(9, 14, 20, 0),
            ),
            participants: vec![AstronautId::B, AstronautId::E],
            planned: false,
            speech_fraction: 0.8,
            mean_level_db: 76.5,
        });
        let mut engine = AlertEngine::new(AlertRules::default());
        let alerts = engine.evaluate_day(&day);
        assert!(alerts.iter().any(|a| a.rule == "conflict-loudness"));
    }

    #[test]
    fn wear_compliance_nudges() {
        let mut day = empty_day(13);
        day.daily[5] = Some(daily(0.3, 0.05, 0.3));
        let mut engine = AlertEngine::new(AlertRules::default());
        let alerts = engine.evaluate_day(&day);
        assert!(alerts
            .iter()
            .any(|a| a.rule == "wear-compliance" && a.who == Some(AstronautId::F)));
    }

    #[test]
    fn hydration_gap_detection() {
        let mut day = empty_day(6);
        // One long office stay with no kitchen: 07:00–14:00.
        let stays = vec![Stay {
            room: RoomId::Office,
            interval: Interval::new(
                SimTime::from_day_hms(6, 7, 0, 0),
                SimTime::from_day_hms(6, 14, 0, 0),
            ),
        }];
        day.badges.push(ares_sociometrics::pipeline::BadgeDay {
            badge: ares_badge::records::BadgeId(0),
            corr: ares_sociometrics::sync::SyncCorrection::identity(),
            track: Default::default(),
            wear: Default::default(),
            activity: Default::default(),
            speech: Default::default(),
            stays,
            identification: ares_sociometrics::anomaly::Identification {
                carrier: Some(AstronautId::A),
                score: 1.0,
                mismatch: false,
            },
        });
        day.carrier_of[0] = Some(0);
        let mut engine = AlertEngine::new(AlertRules::default());
        let alerts = engine.evaluate_day(&day);
        assert!(alerts
            .iter()
            .any(|a| a.rule == "hydration" && a.who == Some(AstronautId::A)));
    }
}
