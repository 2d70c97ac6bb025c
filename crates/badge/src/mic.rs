//! The microphone feature extractor.
//!
//! "We used it to detect the presence of human speech, its loudness, and
//! frequency … we did not, however, record raw data from conversations."
//!
//! The model turns ground-truth speech segments into per-frame features at
//! the badge: sound level attenuated by spherical spreading and walls, a
//! voiced flag, and the dominant source's fundamental frequency. A badge worn
//! incorrectly (astronaut A's exposure problem) records muffled levels.

use crate::records::AudioFrame;
use crate::world::{RfMode, World};
use ares_crew::roster::AstronautId;
use ares_crew::truth::{MissionTruth, PathCursor, SpeechSegment};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::{SimDuration, SimTime};
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Parameters of the microphone model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicModel {
    /// Attenuation per crossed wall (dB) — speech barely penetrates the
    /// metal modules.
    pub wall_loss_db: f64,
    /// Minimum level for the voiced-band detector to fire (dB SPL at badge).
    pub voiced_floor_db: f64,
    /// Margin above ambient noise required to call a frame voiced (dB).
    pub voiced_margin_db: f64,
    /// Level penalty of a muffled (badly worn) badge (dB).
    pub muffle_db: f64,
}

impl Default for MicModel {
    fn default() -> Self {
        MicModel {
            wall_loss_db: 26.0,
            voiced_floor_db: 45.0,
            voiced_margin_db: 3.0,
            muffle_db: 5.0,
        }
    }
}

impl MicModel {
    /// Ambient noise floor of a room (dB SPL), before daily modulation.
    #[must_use]
    pub fn noise_floor(room: RoomId) -> f64 {
        match room {
            RoomId::Workshop => 47.0, // 3-D printers, tools
            RoomId::Kitchen => 44.5,
            RoomId::Main => 43.0,
            RoomId::Storage => 41.0,
            RoomId::Hangar => 39.0,
            _ => 40.0,
        }
    }

    /// Extracts one audio frame at the badge.
    ///
    /// `active`: the speech segments overlapping the frame. `noise_adjust_db`
    /// captures mission-wide quietness (days 11–12 had "much less other noise
    /// recorded"); `muffled` models a badly exposed microphone.
    ///
    /// Compatibility façade over [`MicSampler`], using exact geometry.
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &self,
        world: &World,
        truth: &MissionTruth,
        badge_pos: Point2,
        t_true: SimTime,
        t_local: SimTime,
        active: &[&SpeechSegment],
        noise_adjust_db: f64,
        muffled: bool,
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let sampler = MicSampler::new(*self, noise_adjust_db, muffled);
        sampler.frame(
            world,
            RfMode::Exact,
            truth,
            badge_pos,
            world.room_at(badge_pos),
            t_true,
            t_local,
            active,
            rng,
        )
    }
}

/// A per-unit microphone sampler with the noise/f0/wobble distributions and
/// the day's muffle/quietness constants hoisted out of the per-frame path.
///
/// The frame logic is shared by both RF modes and draws the same randomness
/// in the same order regardless of mode: the ambient-noise draw happens
/// before the segment loop, the segment loop itself never draws, and the
/// voiced decision (which gates the f0 draw) is mode-independent — the
/// cached-mode cull only drops segments whose level *upper bound* (wall-count
/// lower bound) already cannot exceed the realized noise, and such segments
/// can neither fire the voiced branch nor lift the non-voiced level above
/// the noise it is clamped to.
#[derive(Debug, Clone)]
pub struct MicSampler {
    model: MicModel,
    noise_adjust_db: f64,
    muffle_db: f64,
    noise: Normal,
    f0: Normal,
    wobble: Normal,
    /// [`MicSampler::frame_batched`]'s memo: one link per speaker.
    links: Vec<SpeakerLink>,
}

/// The geometry between one speaker and the badge, keyed on the exact
/// positions of both ends (speaker, badge). Every field is a pure function
/// of them under a fixed world and RF mode.
#[derive(Debug, Clone, Copy)]
struct SpeakerLink {
    ends: (Point2, Point2),
    /// `20·log10 d`, with `d` clamped to 0.3 m.
    spreading_db: f64,
    /// Cached mode across rooms: the wall-floor lower bound on the wall
    /// loss, which culls segments per frame against the realised noise.
    floor_loss_db: Option<f64>,
    /// The wall-crossing loss, filled on first use — zero from the start in
    /// the cached same-room case (convex rooms cross no walls).
    wall_loss_db: Option<f64>,
}

impl SpeakerLink {
    /// An empty entry: NaN positions never compare equal.
    const UNSET: SpeakerLink = SpeakerLink {
        ends: (
            Point2::new(f64::NAN, f64::NAN),
            Point2::new(f64::NAN, f64::NAN),
        ),
        spreading_db: 0.0,
        floor_loss_db: None,
        wall_loss_db: None,
    };

    fn new(
        world: &World,
        mode: RfMode,
        model: &MicModel,
        speaker: Point2,
        badge: Point2,
        badge_room: RoomId,
    ) -> Self {
        let d = speaker.distance(badge).max(0.3);
        let (floor_loss_db, wall_loss_db) = match mode {
            RfMode::Cached => {
                let speaker_room = world.room_in_mode(speaker, mode);
                if speaker_room == badge_room {
                    (None, Some(0.0))
                } else {
                    let floor = world.plan.wall_floor(speaker_room, badge_room);
                    (Some(floor as f64 * model.wall_loss_db), None)
                }
            }
            // The honest baseline: a wall scan for every link.
            RfMode::Exact => (None, None),
        };
        SpeakerLink {
            ends: (speaker, badge),
            spreading_db: 20.0 * d.log10(),
            floor_loss_db,
            wall_loss_db,
        }
    }

    /// The level a segment of `seg_level_db` (at 1 m) reaches the badge
    /// with, or `None` when its upper bound cannot beat `noise`.
    fn level(
        &mut self,
        world: &World,
        model: &MicModel,
        seg_level_db: f64,
        noise: f64,
        muffle_db: f64,
    ) -> Option<f64> {
        let spread = seg_level_db - self.spreading_db;
        if self
            .floor_loss_db
            .is_some_and(|floor| spread - floor - muffle_db <= noise)
        {
            // Provably cannot beat ambient noise: skip the wall scan
            // (output-identical, see `MicSampler`'s docs).
            return None;
        }
        let (speaker, badge) = self.ends;
        let loss = *self.wall_loss_db.get_or_insert_with(|| {
            world.plan.walls_crossed(speaker, badge) as f64 * model.wall_loss_db
        });
        Some(spread - loss)
    }
}

impl MicSampler {
    /// Builds a sampler for one unit-day.
    #[must_use]
    pub fn new(model: MicModel, noise_adjust_db: f64, muffled: bool) -> Self {
        MicSampler {
            model,
            noise_adjust_db,
            muffle_db: if muffled { model.muffle_db } else { 0.0 },
            noise: Normal::new(0.0, 1.4).expect("sd > 0"),
            f0: Normal::new(0.0, 2.0).expect("sd > 0"),
            wobble: Normal::new(0.0, 0.6).expect("sd > 0"),
            links: vec![SpeakerLink::UNSET; AstronautId::ALL.len()],
        }
    }

    /// Extracts one audio frame at the badge (see [`MicModel::frame`] for
    /// the semantics; `badge_room` is the pre-resolved room of `badge_pos`).
    ///
    /// This is the scalar oracle of [`MicSampler::frame_batched`]: speakers
    /// are looked up by binary search and every link's geometry is resolved
    /// afresh for this one frame.
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &self,
        world: &World,
        mode: RfMode,
        truth: &MissionTruth,
        badge_pos: Point2,
        badge_room: RoomId,
        t_true: SimTime,
        t_local: SimTime,
        active: &[&SpeechSegment],
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let mut cold = [SpeakerLink::UNSET; AstronautId::ALL.len()];
        let position = |a: AstronautId| truth.of(a).position(t_true);
        self.frame_with(
            world, mode, &mut cold, position, badge_pos, badge_room, t_local, active, rng,
        )
    }

    /// [`MicSampler::frame`] for the batched recording kernel. Speaker
    /// positions come from monotone [`PathCursor`]s (indexed by astronaut)
    /// instead of a binary search, and each speaker's link to the badge is
    /// memoised across frames, so a dwelling pair pays its `log10`, room
    /// lookup and wall scan once. The noise-dependent cull still runs per
    /// frame, so the frame and its RNG consumption match the scalar path.
    #[allow(clippy::too_many_arguments)]
    pub fn frame_batched(
        &mut self,
        world: &World,
        mode: RfMode,
        speakers: &mut [PathCursor<'_>],
        badge_pos: Point2,
        badge_room: RoomId,
        t_true: SimTime,
        t_local: SimTime,
        active: &[&SpeechSegment],
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let mut links = std::mem::take(&mut self.links);
        let position = |a: AstronautId| speakers[a.index()].position(t_true);
        let frame = self.frame_with(
            world, mode, &mut links, position, badge_pos, badge_room, t_local, active, rng,
        );
        self.links = links;
        frame
    }

    /// The frame body shared by both paths; `links[a.index()]` memoises
    /// astronaut `a`'s link.
    #[allow(clippy::too_many_arguments)]
    fn frame_with(
        &self,
        world: &World,
        mode: RfMode,
        links: &mut [SpeakerLink],
        mut position: impl FnMut(AstronautId) -> Option<Point2>,
        badge_pos: Point2,
        badge_room: RoomId,
        t_local: SimTime,
        active: &[&SpeechSegment],
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let noise =
            MicModel::noise_floor(badge_room) + self.noise_adjust_db + self.noise.sample(rng);
        let muffle = self.muffle_db;
        let mut best: Option<(f64, f64)> = None; // (level, f0)
        for seg in active {
            let who = seg.source.located_with();
            let Some(pos) = position(who) else {
                continue;
            };
            let link = &mut links[who.index()];
            if link.ends != (pos, badge_pos) {
                *link = SpeakerLink::new(world, mode, &self.model, pos, badge_pos, badge_room);
            }
            let Some(level) = link.level(world, &self.model, seg.level_db, noise, muffle) else {
                continue;
            };
            if best.is_none_or(|(b, _)| level > b) {
                best = Some((level, seg.f0_hz));
            }
        }
        let (mut level, voiced, f0) = match best {
            Some((speech, f0))
                if speech - muffle > noise + self.model.voiced_margin_db
                    && speech - muffle > self.model.voiced_floor_db =>
            {
                let f0_est = f0 + self.f0.sample(rng);
                (speech - muffle, true, Some(f0_est))
            }
            Some((speech, _)) => ((speech - muffle).max(noise), false, None),
            None => (noise, false, None),
        };
        level += self.wobble.sample(rng);
        AudioFrame {
            t_local,
            level_db: level,
            voiced,
            f0_hz: f0,
        }
    }
}

/// Gathers the speech segments overlapping a frame from a pre-sorted slice,
/// advancing `cursor` monotonically (amortized O(1) per frame). `out` is
/// cleared and refilled, so the tick loop allocates nothing.
pub fn active_segments<'a>(
    speech: &'a [SpeechSegment],
    cursor: &mut usize,
    frame_start: SimTime,
    frame_len: SimDuration,
    out: &mut Vec<&'a SpeechSegment>,
) {
    out.clear();
    let frame_end = frame_start + frame_len;
    // Advance past segments that ended before this frame. Segments are sorted
    // by start; starts are close enough to ends (utterances ≤ 12 s) that a
    // small look-back window suffices.
    while *cursor < speech.len()
        && speech[*cursor].interval.end + SimDuration::from_secs(15) < frame_start
    {
        *cursor += 1;
    }
    let mut i = *cursor;
    while i < speech.len() && speech[i].interval.start < frame_end {
        if speech[i].interval.end > frame_start {
            out.push(&speech[i]);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_crew::roster::AstronautId;
    use ares_crew::truth::{AstronautTruth, PathPoint, VoiceSource};
    use ares_simkit::rng::SeedTree;
    use ares_simkit::series::Interval;

    fn truth_with_speaker_at(pos: Point2) -> MissionTruth {
        let mut astronauts: Vec<AstronautTruth> =
            (0..6).map(|_| AstronautTruth::default()).collect();
        astronauts[0]
            .path
            .push(SimTime::from_secs(0), PathPoint { pos, facing: 0.0 });
        MissionTruth {
            astronauts,
            speech: Vec::new(),
            meetings: Vec::new(),
        }
    }

    fn seg(level: f64, a: i64, b: i64) -> SpeechSegment {
        SpeechSegment {
            source: VoiceSource::Astronaut(AstronautId::A),
            interval: Interval::new(SimTime::from_secs(a), SimTime::from_secs(b)),
            level_db: level,
            f0_hz: 205.0,
        }
    }

    #[test]
    fn close_speech_is_voiced_far_speech_is_not() {
        let world = World::icares();
        let mic = MicModel::default();
        let mut rng = SeedTree::new(1).stream("mic");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let truth = truth_with_speaker_at(kitchen);
        let s = seg(68.0, 0, 10);
        let t = SimTime::from_secs(5);
        // Badge 1.2 m from the speaker: voiced, level near 66 dB.
        let near = mic.frame(
            &world,
            &truth,
            kitchen + ares_simkit::geometry::Vec2::new(1.2, 0.0),
            t,
            t,
            &[&s],
            0.0,
            false,
            &mut rng,
        );
        assert!(near.voiced, "near frame must be voiced");
        assert!(
            (near.level_db - 66.4).abs() < 4.0,
            "level {}",
            near.level_db
        );
        // Badge across the habitat (office): walls kill it.
        let office = world.plan.room_center(RoomId::Office);
        let far = mic.frame(&world, &truth, office, t, t, &[&s], 0.0, false, &mut rng);
        assert!(!far.voiced);
        assert!(far.level_db < 50.0);
    }

    #[test]
    fn muffled_badge_loses_detections_at_range() {
        let world = World::icares();
        let mic = MicModel::default();
        let mut rng = SeedTree::new(2).stream("mic2");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let truth = truth_with_speaker_at(kitchen);
        let s = seg(58.0, 0, 10);
        let t = SimTime::from_secs(5);
        // Stay inside the kitchen: offset along the room's long axis.
        let pos = kitchen + ares_simkit::geometry::Vec2::new(0.0, 1.9);
        let mut clear_voiced = 0;
        let mut muffled_voiced = 0;
        for _ in 0..200 {
            if mic
                .frame(&world, &truth, pos, t, t, &[&s], 0.0, false, &mut rng)
                .voiced
            {
                clear_voiced += 1;
            }
            if mic
                .frame(&world, &truth, pos, t, t, &[&s], 0.0, true, &mut rng)
                .voiced
            {
                muffled_voiced += 1;
            }
        }
        assert!(
            clear_voiced > muffled_voiced + 30,
            "{clear_voiced} vs {muffled_voiced}"
        );
    }

    #[test]
    fn quiet_days_lower_the_floor() {
        let world = World::icares();
        let mic = MicModel::default();
        let mut rng = SeedTree::new(3).stream("mic3");
        let p = world.plan.room_center(RoomId::Biolab);
        let truth = truth_with_speaker_at(p);
        let t = SimTime::from_secs(0);
        let mean = |adj: f64, rng: &mut rand::rngs::StdRng| -> f64 {
            (0..200)
                .map(|_| {
                    mic.frame(&world, &truth, p, t, t, &[], adj, false, rng)
                        .level_db
                })
                .sum::<f64>()
                / 200.0
        };
        let normal = mean(0.0, &mut rng);
        let quiet = mean(-4.0, &mut rng);
        assert!(normal - quiet > 3.0);
    }

    #[test]
    fn active_segments_windowing() {
        let speech = vec![seg(60.0, 0, 5), seg(60.0, 10, 20), seg(60.0, 30, 31)];
        let mut cursor = 0;
        let mut hits = Vec::new();
        for (start, expected) in [(12, 1), (25, 0), (30, 1)] {
            let frame_start = SimTime::from_secs(start);
            active_segments(
                &speech,
                &mut cursor,
                frame_start,
                SimDuration::from_secs(1),
                &mut hits,
            );
            assert_eq!(hits.len(), expected, "frame at {start} s");
        }
    }
}
