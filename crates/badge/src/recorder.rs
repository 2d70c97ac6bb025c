//! The firmware recorder: turns ground truth into badge telemetry, day by day.
//!
//! One [`Recorder::record_day_stores`] call produces the columnar stores of
//! all 13 units for one mission day — every sensor stream sampled at its
//! configured rate, stamped with the unit's drifting local clock. Recording
//! day-by-day keeps memory bounded (the real mission wrote to SD cards; we
//! hand each day to the pipeline and drop it).
//!
//! Recording is organised unit-by-unit: a shared per-day precomputation
//! resolves every unit's position, wear state and room once per master tick
//! into a unit-major table of 24-byte rows, then each unit replays the day
//! against its own rows on its **own** seeded RNG stream. Because no
//! randomness is shared across units, the per-unit jobs can fan out across
//! worker threads and the merged result is bit-identical to the sequential
//! order for any worker count.
//!
//! The per-unit replay is a **memoised kernel**: astronauts dwell, so the
//! positions at both ends of a link stay put for long stretches of ticks.
//! Geometry is therefore cached on the exact positions it depends on and
//! recomputed only when one of them moves:
//!
//! - the scan plan (candidate beacons with lane-batched mean RSSI) and the
//!   station sync link's mean, keyed on the unit's position and built at
//!   the first *due* scan or sync after it changes — a walking badge under
//!   the fleet profile moves every tick but scans only every 5 s;
//! - one proximity link per transmitting unit, keyed on both units'
//!   positions: culled, or its mean RSSI;
//! - one audio link per speaker, keyed on the speaker's and the badge's
//!   positions: spherical spreading, same-room flag, wall-floor bound and,
//!   on first use, the wall-crossing loss.
//!
//! Every memoised value is a pure function of its key under a fixed world
//! and RF mode, the tick loop performs the draws in the scalar order, and
//! the culls only skip what the channel or the noise floor would reject
//! *before* drawing. The recorded bytes and the RNG stream are therefore
//! bit-identical to the retained scalar reference
//! ([`Recorder::record_day_stores_scalar`]), which resolves all geometry
//! per packet and per frame.

use crate::clockdrift::{ClockSet, UNIT_COUNT};
use crate::links;
use crate::mic::{self, MicModel, MicSampler};
use crate::records::{BadgeId, ProximityObs, SamplingConfig};
use crate::scanner;
use crate::sensors::{EnvSampler, ImuModel, ImuSampler};
use crate::storage::StorageMeter;
use crate::telemetry::TelemetryStore;
use crate::world::{RfMode, World};
use ares_crew::roster::{AstronautId, Roster};
use ares_crew::truth::{MissionTruth, PathCursor, SpeechSegment, WearState};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::par::ordered_map;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::{SimDuration, SimTime};
use rand::Rng;

/// Mission-wide recording context.
#[derive(Debug)]
pub struct Recorder<'a> {
    world: &'a World,
    roster: &'a Roster,
    truth: &'a MissionTruth,
    clocks: ClockSet,
    config: SamplingConfig,
    seed: SeedTree,
    rf_mode: RfMode,
    /// Days on which astronaut A's badge sat muffled under the lab apron.
    muffled_days: Vec<u32>,
}

/// How a unit is carried at one tick: [`WearState`] without the `LeftAt`
/// point, which is always the row's own position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wear {
    Worn,
    Left,
    Docked,
}

/// One unit's resolved state at one master tick (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitTick {
    pos: Point2,
    /// Room under the recorder's RF mode.
    room: RoomId,
    wear: Wear,
    /// Raw `is_walking` of the carrier (false for uncarried units); the
    /// kernel still ANDs it with the worn state like the scalar path.
    walking: bool,
}

const _: () = assert!(std::mem::size_of::<UnitTick>() == 24);

impl UnitTick {
    fn wear_state(self) -> WearState {
        match self.wear {
            Wear::Worn => WearState::Worn,
            Wear::Left => WearState::LeftAt(self.pos),
            Wear::Docked => WearState::Docked,
        }
    }
}

/// Shared per-day context, computed once before the per-unit fan-out.
struct DayPrecomp {
    day: u32,
    start: SimTime,
    duty_end: SimTime,
    night_end: SimTime,
    noise_adjust: f64,
    day_speech: Vec<SpeechSegment>,
    carriers: Vec<Option<AstronautId>>,
    ticks: usize,
    /// Flat unit-major table: unit `u` at tick `k` is
    /// `states[u * ticks + k]`, so each unit's replay streams its own rows.
    states: Vec<UnitTick>,
}

impl DayPrecomp {
    /// Unit `u`'s state at every tick of the day.
    fn unit(&self, u: usize) -> &[UnitTick] {
        &self.states[u * self.ticks..(u + 1) * self.ticks]
    }

    /// Unit `u`'s state at tick `k`.
    fn at(&self, u: usize, k: usize) -> UnitTick {
        self.states[u * self.ticks + k]
    }
}

impl<'a> Recorder<'a> {
    /// Creates a recorder; clock drifts and muffle days are drawn from the
    /// seed.
    #[must_use]
    pub fn new(
        world: &'a World,
        roster: &'a Roster,
        truth: &'a MissionTruth,
        config: SamplingConfig,
        seed: SeedTree,
    ) -> Self {
        let clocks = ClockSet::generate(&seed);
        let mut rng = seed.child("badge").stream("muffle");
        let muffled_days = (2..=14u32).filter(|_| rng.gen::<f64>() < 0.35).collect();
        Recorder {
            world,
            roster,
            truth,
            clocks,
            config,
            seed,
            rf_mode: RfMode::default(),
            muffled_days,
        }
    }

    /// Selects the RF geometry path (default [`RfMode::Cached`]). Both modes
    /// record bit-identical telemetry; `Exact` is the slow baseline used by
    /// benches and equivalence tests.
    #[must_use]
    pub fn with_rf_mode(mut self, mode: RfMode) -> Self {
        self.rf_mode = mode;
        self
    }

    /// The clock set in use (tests compare pipeline corrections against it).
    #[must_use]
    pub fn clocks(&self) -> &ClockSet {
        &self.clocks
    }

    /// The sampling configuration.
    #[must_use]
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Records one mission day (1-based) for all units, appending every
    /// sensor stream directly into columnar [`TelemetryStore`]s.
    ///
    /// The recorded span covers the duty day plus the overnight docking
    /// period before the next morning (sync exchanges happen at the
    /// charger).
    #[must_use]
    pub fn record_day_stores(&self, day: u32) -> Vec<TelemetryStore> {
        self.record_day_stores_parallel(day, 1)
    }

    /// Records one mission day on up to `workers` threads, one unit per job.
    ///
    /// Each unit draws from its own seeded stream, so the result is
    /// bit-identical to [`record_day_stores`] for any worker count; the
    /// canonical unit order is restored by [`ordered_map`]; one worker
    /// records inline on the calling thread.
    ///
    /// [`record_day_stores`]: Recorder::record_day_stores
    #[must_use]
    pub fn record_day_stores_parallel(&self, day: u32, workers: usize) -> Vec<TelemetryStore> {
        let pre = self.precompute_day(day);
        let mut stores = ordered_map(workers, UNIT_COUNT, |i| self.record_unit_day(&pre, i));
        self.finish_day(&pre, &mut stores);
        stores
    }

    /// Records one mission day with the pre-batching per-tick loop — the
    /// reference implementation retained as the bit-identity oracle for the
    /// memoised kernel (equivalence tests and the scenario stage of
    /// `bench_smoke` compare against it).
    #[must_use]
    pub fn record_day_stores_scalar(&self, day: u32) -> Vec<TelemetryStore> {
        let pre = self.precompute_day(day);
        let mut stores: Vec<TelemetryStore> = (0..UNIT_COUNT)
            .map(|i| self.record_unit_day_scalar(&pre, i))
            .collect();
        self.finish_day(&pre, &mut stores);
        stores
    }

    /// The shared post-merge steps: IR mirroring and storage accounting.
    fn finish_day(&self, pre: &DayPrecomp, stores: &mut [TelemetryStore]) {
        // IR contacts are recorded on the lower-id unit only so far; mirror
        // them onto the partner, stamped with the partner's own clock at the
        // same true instant. The partner's stamp can land out of time order;
        // the column's sorted insert repairs that on append.
        let mut mirrored: Vec<(usize, crate::records::IrContact)> = Vec::new();
        for store in stores.iter() {
            for (t_local, c) in store.ir.view().iter() {
                let t_true = self.clocks.clock(store.badge).true_time(t_local);
                mirrored.push((
                    c.other.0 as usize,
                    crate::records::IrContact {
                        t_local: self.clocks.clock(c.other).local_time(t_true),
                        other: store.badge,
                    },
                ));
            }
        }
        for (idx, contact) in mirrored {
            stores[idx].push_ir(contact);
        }

        // Storage accounting.
        for (idx, store) in stores.iter_mut().enumerate() {
            let mut meter = StorageMeter::new();
            if pre.carriers[idx].is_some() {
                meter.record_active(&self.config, pre.duty_end - pre.start);
                meter.record_docked(&self.config, pre.night_end - pre.duty_end);
            } else {
                meter.record_docked(&self.config, pre.night_end - pre.start);
            }
            store.bytes_written = meter.bytes();
        }
    }

    /// Resolves everything the per-unit jobs share: the day's constants, the
    /// speech overlapping the duty window, and every unit's position, wear
    /// state, room and walking flag at each master tick.
    ///
    /// The per-tick lookups run behind monotone cursors (amortized O(1) per
    /// tick instead of a binary search), which is bit-identical to the plain
    /// `Series`/`IntervalSet` lookups for the tick loop's ordered times.
    fn precompute_day(&self, day: u32) -> DayPrecomp {
        let start = SimTime::from_day_hms(day, 7, 0, 0);
        let duty_end = SimTime::from_day_hms(day, 21, 0, 0);
        let night_end = SimTime::from_day_hms(day + 1, 6, 55, 0);
        let noise_adjust = if self.world.incidents.talk_mood(day) < 0.5 {
            -4.0
        } else {
            0.0
        };
        let day_speech = self
            .truth
            .speech
            .iter()
            .filter(|s| s.interval.end > start && s.interval.start < duty_end)
            .copied()
            .collect();
        let carriers: Vec<Option<AstronautId>> = (0..UNIT_COUNT)
            .map(|i| self.world.carrier_of(BadgeId(i as u8), day))
            .collect();
        let tick = SimDuration::from_secs(1);
        let ticks = ((duty_end - start).as_micros() / tick.as_micros()) as usize;
        let station_room = self.world.room_in_mode(self.world.station, self.rf_mode);
        let docked = UnitTick {
            pos: self.world.station,
            room: station_room,
            wear: Wear::Docked,
            walking: false,
        };
        let mut states = vec![docked; ticks * UNIT_COUNT];
        for (u, carrier) in carriers.iter().enumerate() {
            // Uncarried units sit docked at the station all day — the fill
            // value already says so.
            let Some(c) = carrier else { continue };
            let a = self.truth.of(*c);
            let mut wear_cur = a.wear.cursor();
            let mut path_cur = a.path_cursor();
            let mut walk_cur = a.walking.cursor();
            let mut prev_pos = Point2::new(f64::NAN, f64::NAN);
            let mut prev_room = station_room;
            let mut t = start;
            for row in &mut states[u * ticks..(u + 1) * ticks] {
                // Same as `World::badge_position` and the carrier's wear
                // state with the carrier hoisted; rooms are reused across
                // ticks at the same position (a pure function of it).
                let (pos, wear) = match wear_cur.at(t).map_or(WearState::Docked, |s| s.value) {
                    WearState::Worn => (
                        path_cur.position(t).unwrap_or(self.world.station),
                        Wear::Worn,
                    ),
                    WearState::LeftAt(p) => (p, Wear::Left),
                    WearState::Docked => (self.world.station, Wear::Docked),
                };
                let room = if pos == prev_pos {
                    prev_room
                } else {
                    self.world.room_in_mode(pos, self.rf_mode)
                };
                prev_pos = pos;
                prev_room = room;
                *row = UnitTick {
                    pos,
                    room,
                    wear,
                    walking: walk_cur.contains(t),
                };
                t += tick;
            }
        }
        DayPrecomp {
            day,
            start,
            duty_end,
            night_end,
            noise_adjust,
            day_speech,
            carriers,
            ticks,
            states,
        }
    }

    /// Records one unit's full day (duty + overnight) on the unit's own
    /// seeded stream with the memoised kernel. No randomness is
    /// shared with other units; bytes are bit-identical to
    /// [`Recorder::record_unit_day_scalar`].
    fn record_unit_day(&self, pre: &DayPrecomp, idx: usize) -> TelemetryStore {
        let unit = BadgeId(idx as u8);
        let mut rng = self
            .seed
            .child("badge")
            .stream_indexed("recorder-unit-day", (u64::from(pre.day) << 8) | idx as u64);
        let mut store = TelemetryStore::new(unit);
        let clock = self.clocks.clock(unit);
        let carrier = pre.carriers[idx];
        let active_unit = carrier.is_some() || unit == BadgeId::REFERENCE;
        let tick = SimDuration::from_secs(1);
        let env = EnvSampler::default();

        // --- Daytime sampling at the 1 Hz master tick --------------------
        // Uncarried primaries record nothing during the day; backups and the
        // reference sample environment/sync only (the firmware sleeps while
        // charging), which is what makes badges "active" for only part of
        // the daytime.
        if active_unit || matches!(unit, BadgeId(6..=11)) {
            let energy = carrier
                .map(|c| 0.8 + 0.4 * self.roster.member(c).profile.mobility)
                .unwrap_or(1.0);
            let muffled = carrier == Some(AstronautId::A) && self.muffled_days.contains(&pre.day);
            let imu = ImuSampler::new(ImuModel::default(), energy);
            let mut mic_sampler = MicSampler::new(MicModel::default(), pre.noise_adjust, muffled);

            // Monotone cursors. Speech speakers and wearer facings need
            // separate cursor sets: audio frames advance past the tick
            // instant before the IR block reads it.
            let mut speakers: Vec<PathCursor<'_>> = self
                .truth
                .astronauts
                .iter()
                .map(ares_crew::truth::AstronautTruth::path_cursor)
                .collect();
            let mut facings: Vec<Option<PathCursor<'_>>> = pre
                .carriers
                .iter()
                .map(|c| c.map(|c| self.truth.of(c).path_cursor()))
                .collect();

            // Scratch buffers and memos, allocated once per unit-day. The
            // scan plan and the sync-link mean are built at the first due
            // scan or sync after a position change (NaN keys force the
            // first build); building them draws nothing.
            let mut scan_plan: Vec<scanner::ScanPlanEntry> = Vec::new();
            let mut dist_scratch: Vec<f64> = Vec::new();
            let mut wall_scratch: Vec<f64> = Vec::new();
            let mut mean_scratch: Vec<f64> = Vec::new();
            let mut active_buf: Vec<&SpeechSegment> = Vec::new();
            let mut prox_units: Vec<(BadgeId, Point2, RoomId)> = Vec::with_capacity(UNIT_COUNT);
            let mut prox_links = vec![links::ProximityLink::UNSET; UNIT_COUNT];
            let mut prox_obs: Vec<ProximityObs> = Vec::new();
            let mut plan_pos = Point2::new(f64::NAN, f64::NAN);
            let mut sync_pos = Point2::new(f64::NAN, f64::NAN);
            let mut sync_mean = 0.0f64;

            let af = self.config.audio_frame.as_micros();
            let frames_per_tick = (tick.as_micros() / af).max(1);
            let mut speech_cursor = 0usize;
            let mut t = pre.start;
            for (k, &ut) in pre.unit(idx).iter().enumerate() {
                let elapsed = (t - pre.start).as_micros();
                let t_local = clock.local_time(t);
                // A docked badge (EVA, exercise, forgotten on the charger)
                // pauses full sampling; environment and sync continue below.
                let sampling = carrier.is_some() && ut.wear != Wear::Docked;
                if sampling {
                    // BLE scan: replay the dwell point's plan, draws only.
                    if elapsed % self.config.scan_period.as_micros() == 0 {
                        if ut.pos != plan_pos {
                            plan_pos = ut.pos;
                            scanner::scan_plan_into(
                                self.world,
                                self.rf_mode,
                                ut.room,
                                ut.pos,
                                &mut scan_plan,
                                &mut dist_scratch,
                                &mut wall_scratch,
                                &mut mean_scratch,
                            );
                        }
                        scanner::scan_from_plan(
                            &mut store.scans,
                            self.world,
                            &scan_plan,
                            t_local,
                            &mut rng,
                        );
                    }
                    // IMU window (walking flag precomputed per tick).
                    if elapsed % self.config.imu_window.as_micros() == 0 {
                        let walking = ut.walking && ut.wear == Wear::Worn;
                        store.push_imu(imu.sample(t_local, ut.wear_state(), walking, &mut rng));
                    }
                    // Audio frames (two per second at the default config).
                    if elapsed % af == 0 {
                        mic::active_segments(
                            &pre.day_speech,
                            &mut speech_cursor,
                            t,
                            tick,
                            &mut active_buf,
                        );
                        for f in 0..frames_per_tick {
                            let ft = t + SimDuration::from_micros(f * af);
                            store.push_audio(mic_sampler.frame_batched(
                                self.world,
                                self.rf_mode,
                                &mut speakers,
                                ut.pos,
                                ut.room,
                                ft,
                                clock.local_time(ft),
                                &active_buf,
                                &mut rng,
                            ));
                        }
                    }
                    // Proximity sweep against the memoised links (scratch
                    // buffers, no per-sweep allocation).
                    if elapsed % self.config.proximity_period.as_micros() == 0 {
                        prox_units.clear();
                        prox_units.extend((0..UNIT_COUNT).map(|j| {
                            let s = pre.at(j, k);
                            (BadgeId(j as u8), s.pos, s.room)
                        }));
                        prox_obs.clear();
                        links::proximity_sweep_into(
                            self.world,
                            self.rf_mode,
                            unit,
                            ut.pos,
                            ut.room,
                            &prox_units,
                            &mut prox_links,
                            t_local,
                            &mut rng,
                            &mut prox_obs,
                        );
                        for o in prox_obs.drain(..) {
                            store.push_proximity(o);
                        }
                    }
                    // Infrared exchanges (only toward higher unit ids to
                    // sample each pair once; mirrored onto the partner after
                    // the merge). An unworn badge faces nobody, so the whole
                    // block is skipped — the scalar path would `continue` on
                    // every pair with no draws either way. Wear states come
                    // from the precomputed table and facings from the
                    // monotone cursors instead of `worn_facing`'s per-call
                    // carrier inversion; the values are identical.
                    if elapsed % self.config.ir_period.as_micros() == 0 && ut.wear == Wear::Worn {
                        for j in idx + 1..UNIT_COUNT {
                            if pre.carriers[j].is_none() {
                                continue;
                            }
                            let other = pre.at(j, k);
                            if ut.pos.distance(other.pos) > self.world.ir.range_m {
                                continue;
                            }
                            if other.wear != Wear::Worn {
                                continue;
                            }
                            let fa = facings[idx].as_mut().and_then(|c| c.facing(t));
                            let fb = facings[j].as_mut().and_then(|c| c.facing(t));
                            let (Some(fa), Some(fb)) = (fa, fb) else {
                                continue;
                            };
                            if links::ir_exchange(
                                self.world,
                                self.rf_mode,
                                ut.pos,
                                fa,
                                WearState::Worn,
                                ut.room,
                                other.pos,
                                fb,
                                WearState::Worn,
                                other.room,
                                &mut rng,
                            ) {
                                let contact = crate::records::IrContact {
                                    t_local,
                                    other: BadgeId(j as u8),
                                };
                                store.push_ir(contact);
                            }
                        }
                    }
                }
                // Environment (all active units, including reference/backups).
                if elapsed % self.config.env_period.as_micros() == 0 {
                    store.push_env(env.sample(self.world, ut.room, t, t_local, &mut rng));
                }
                // Sync attempts, against the dwell point's station-link mean
                // (the reference unit never syncs to itself and never draws).
                if elapsed % self.config.sync_period.as_micros() == 0 {
                    if ut.pos != sync_pos {
                        sync_pos = ut.pos;
                        sync_mean = links::sync_link_mean(self.world, self.rf_mode, ut.pos);
                    }
                    if let Some(s) = links::sync_attempt_with_mean(
                        self.world,
                        &self.clocks,
                        unit,
                        sync_mean,
                        t,
                        &mut rng,
                    ) {
                        store.push_sync(s);
                    }
                }
                t += tick;
            }
        }

        self.record_unit_overnight(pre, unit, clock, &env, &mut rng, &mut store);
        store
    }

    /// Records one unit's full day with the pre-batching per-tick loop (the
    /// bit-identity oracle for [`Recorder::record_unit_day`]).
    fn record_unit_day_scalar(&self, pre: &DayPrecomp, idx: usize) -> TelemetryStore {
        let unit = BadgeId(idx as u8);
        let mut rng = self
            .seed
            .child("badge")
            .stream_indexed("recorder-unit-day", (u64::from(pre.day) << 8) | idx as u64);
        let mut store = TelemetryStore::new(unit);
        let clock = self.clocks.clock(unit);
        let carrier = pre.carriers[idx];
        let active_unit = carrier.is_some() || unit == BadgeId::REFERENCE;
        let tick = SimDuration::from_secs(1);
        let env = EnvSampler::default();

        if active_unit || matches!(unit, BadgeId(6..=11)) {
            let energy = carrier
                .map(|c| 0.8 + 0.4 * self.roster.member(c).profile.mobility)
                .unwrap_or(1.0);
            let muffled = carrier == Some(AstronautId::A) && self.muffled_days.contains(&pre.day);
            let imu = ImuSampler::new(ImuModel::default(), energy);
            let mic_sampler = MicSampler::new(MicModel::default(), pre.noise_adjust, muffled);
            let mut active = Vec::new();
            let mut speech_cursor = 0usize;
            let mut t = pre.start;
            for k in 0..pre.ticks {
                let tick_states: [UnitTick; UNIT_COUNT] = std::array::from_fn(|u| pre.at(u, k));
                let ut = tick_states[idx];
                let (pos, wear, room) = (ut.pos, ut.wear_state(), ut.room);
                let elapsed = (t - pre.start).as_micros();
                let t_local = clock.local_time(t);
                let sampling = carrier.is_some() && !matches!(wear, WearState::Docked);
                if sampling {
                    // BLE scan.
                    if elapsed % self.config.scan_period.as_micros() == 0 {
                        scanner::scan_into(
                            &mut store.scans,
                            self.world,
                            self.rf_mode,
                            room,
                            pos,
                            t_local,
                            &mut rng,
                        );
                    }
                    // IMU window.
                    if elapsed % self.config.imu_window.as_micros() == 0 {
                        let walking = carrier
                            .map(|c| self.truth.of(c).is_walking(t) && wear.is_worn())
                            .unwrap_or(false);
                        store.push_imu(imu.sample(t_local, wear, walking, &mut rng));
                    }
                    // Audio frames (two per second at the default config).
                    let af = self.config.audio_frame.as_micros();
                    if elapsed % af == 0 {
                        let frames_per_tick = (tick.as_micros() / af).max(1);
                        mic::active_segments(
                            &pre.day_speech,
                            &mut speech_cursor,
                            t,
                            tick,
                            &mut active,
                        );
                        for f in 0..frames_per_tick {
                            let ft = t + SimDuration::from_micros(f * af);
                            store.push_audio(mic_sampler.frame(
                                self.world,
                                self.rf_mode,
                                self.truth,
                                pos,
                                room,
                                ft,
                                clock.local_time(ft),
                                &active,
                                &mut rng,
                            ));
                        }
                    }
                    // Proximity sweep.
                    if elapsed % self.config.proximity_period.as_micros() == 0 {
                        let units: Vec<(BadgeId, Point2, RoomId)> = tick_states
                            .iter()
                            .enumerate()
                            .map(|(j, s)| (BadgeId(j as u8), s.pos, s.room))
                            .collect();
                        for o in links::proximity_sweep(
                            self.world,
                            self.rf_mode,
                            unit,
                            pos,
                            room,
                            &units,
                            t_local,
                            &mut rng,
                        ) {
                            store.push_proximity(o);
                        }
                    }
                    // Infrared exchanges (only toward higher unit ids to
                    // sample each pair once; mirrored onto the partner after
                    // the merge).
                    if elapsed % self.config.ir_period.as_micros() == 0 {
                        for (j, other) in tick_states.iter().enumerate().skip(idx + 1) {
                            let other_id = BadgeId(j as u8);
                            if pre.carriers[j].is_none() {
                                continue;
                            }
                            if pos.distance(other.pos) > self.world.ir.range_m {
                                continue;
                            }
                            let (Some(fa), Some(fb)) = (
                                links::worn_facing(self.world, unit, t, self.truth),
                                links::worn_facing(self.world, other_id, t, self.truth),
                            ) else {
                                continue;
                            };
                            if links::ir_exchange(
                                self.world,
                                self.rf_mode,
                                pos,
                                fa,
                                wear,
                                room,
                                other.pos,
                                fb,
                                other.wear_state(),
                                other.room,
                                &mut rng,
                            ) {
                                store.push_ir(crate::records::IrContact {
                                    t_local,
                                    other: other_id,
                                });
                            }
                        }
                    }
                }
                // Environment (all active units, including reference/backups).
                if elapsed % self.config.env_period.as_micros() == 0 {
                    store.push_env(env.sample(self.world, room, t, t_local, &mut rng));
                }
                // Sync attempts.
                if elapsed % self.config.sync_period.as_micros() == 0 {
                    if let Some(s) = links::sync_attempt(
                        self.world,
                        self.rf_mode,
                        &self.clocks,
                        unit,
                        pos,
                        t,
                        &mut rng,
                    ) {
                        store.push_sync(s);
                    }
                }
                t += tick;
            }
        }

        self.record_unit_overnight(pre, unit, clock, &env, &mut rng, &mut store);
        store
    }

    /// The overnight tail shared by both kernels: docked sampling (sparse)
    /// plus dense sync at the charger. Continues on the unit-day's RNG
    /// stream, so it must run after the daytime draws.
    fn record_unit_overnight(
        &self,
        pre: &DayPrecomp,
        unit: BadgeId,
        clock: &ares_simkit::clock::DriftingClock,
        env: &EnvSampler,
        rng: &mut impl Rng,
        store: &mut TelemetryStore,
    ) {
        let mut tn = pre.duty_end;
        while tn < pre.night_end {
            let pos = self.world.badge_position(unit, tn, self.truth);
            let t_local = clock.local_time(tn);
            if (tn - pre.duty_end).as_micros() % self.config.env_period.as_micros() == 0 {
                let room = self.world.room_in_mode(pos, self.rf_mode);
                store.push_env(env.sample(self.world, room, tn, t_local, rng));
            }
            if let Some(s) =
                links::sync_attempt(self.world, self.rf_mode, &self.clocks, unit, pos, tn, rng)
            {
                store.push_sync(s);
            }
            tn += self.config.sync_period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_crew::behavior::{BehaviorConfig, BehaviorSim};
    use ares_crew::incidents::IncidentScript;
    use ares_crew::schedule::Schedule;

    fn setup() -> (World, Roster, MissionTruth) {
        let world = World::icares();
        let roster = Roster::icares();
        let schedule = Schedule::icares();
        let incidents = IncidentScript::icares();
        let truth = BehaviorSim::new(
            &roster,
            &schedule,
            &incidents,
            &world.plan,
            BehaviorConfig::default(),
        )
        .generate();
        (world, roster, truth)
    }

    #[test]
    fn one_day_recording_has_all_streams() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day_stores(3);
        assert_eq!(day.len(), UNIT_COUNT);
        let b0 = &day[0];
        assert_eq!(b0.badge, BadgeId(0));
        assert!(!b0.scans.is_empty(), "scans");
        assert!(!b0.audio.is_empty(), "audio");
        assert!(!b0.imu.is_empty(), "imu");
        assert!(!b0.env.is_empty(), "env");
        assert!(!b0.proximity.is_empty(), "proximity");
        assert!(!b0.sync.is_empty(), "sync");
        assert!(b0.bytes_written > 1_000_000_000, "raw volume");
        // The reference unit records env + no scans.
        let r = &day[usize::from(BadgeId::REFERENCE.0)];
        assert_eq!(r.badge, BadgeId::REFERENCE);
        assert!(r.scans.is_empty());
        assert!(!r.env.is_empty());
    }

    #[test]
    fn timestamps_are_local_not_true() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day_stores(2);
        // The first scan may come well after 07:00 (the badge sleeps while
        // docked), so recover the true sampling instant from the stamp: it
        // must sit on the scan-period grid, and the stamp must be that grid
        // instant's *local* image — offset by the unit's drifting clock.
        let unit = BadgeId(0);
        let clock = rec.clocks().clock(unit);
        let (scan0, _) = day[usize::from(unit.0)].scans.view().get(0).unwrap();
        let true_start = SimTime::from_day_hms(2, 7, 0, 0);
        let period = SamplingConfig::default().scan_period.as_micros();
        let since_start = (clock.true_time(scan0) - true_start).as_micros();
        let grid = true_start
            + ares_simkit::time::SimDuration::from_micros(
                (since_start + period / 2) / period * period,
            );
        assert_eq!(scan0, clock.local_time(grid));
        assert_ne!(scan0, grid, "the clock offset must be visible");
    }

    #[test]
    fn ir_contacts_are_mirrored() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day_stores(3);
        let total: usize = day.iter().map(|s| s.ir.len()).sum();
        assert!(total > 0, "some IR contacts on a normal day");
        assert_eq!(total % 2, 0, "contacts recorded pairwise");
    }

    /// Lunares days that stress the memo keys: day 2 swaps A's and B's
    /// units, day 4 is the incident day, and from day 7 F carries C's unit.
    const ORACLE_DAYS: [u32; 3] = [2, 4, 7];

    // The equivalence checks below use `assert!(a == b)`: an `assert_eq!`
    // diff of two recorded days would print millions of samples.

    #[test]
    fn batched_kernel_matches_the_scalar_oracle() {
        let (world, roster, truth) = setup();
        for config in [SamplingConfig::default(), SamplingConfig::fleet()] {
            let rec = Recorder::new(&world, &roster, &truth, config, SeedTree::new(99));
            for day in ORACLE_DAYS {
                let batched = rec.record_day_stores(day);
                assert!(
                    batched == rec.record_day_stores_scalar(day),
                    "day {day}: {config:?}"
                );
                assert!(
                    batched == rec.record_day_stores_parallel(day, 2),
                    "day {day}: {config:?}"
                );
            }
        }
    }

    #[test]
    fn fleet_audio_fires_once_per_five_seconds() {
        // Frames start only on 1 Hz master ticks: the default 0.5 s frame
        // gives two per sampling tick, the fleet profile's 2.5 s frame one
        // per tick whose elapsed seconds are a multiple of 5 — a 10×
        // decimation of audio.
        let (world, roster, truth) = setup();
        let rec = |config| Recorder::new(&world, &roster, &truth, config, SeedTree::new(99));
        let pre = rec(SamplingConfig::default()).precompute_day(3);
        let fleet = rec(SamplingConfig::fleet()).record_day_stores(3);
        let (mut sampling_ticks, mut fleet_frames) = (0, 0);
        for (u, store) in fleet.iter().enumerate() {
            let mut expected = 0;
            if pre.carriers[u].is_some() {
                for (k, s) in pre.unit(u).iter().enumerate() {
                    if s.wear != Wear::Docked {
                        sampling_ticks += 1;
                        expected += usize::from(k % 5 == 0);
                    }
                }
            }
            assert_eq!(store.audio.len(), expected, "unit {u}");
            fleet_frames += expected;
        }
        let ratio = 2.0 * f64::from(sampling_ticks) / fleet_frames as f64;
        assert!((9.5..10.5).contains(&ratio), "decimation {ratio}");
        let default = rec(SamplingConfig::default()).record_day_stores(3);
        let frames: usize = default.iter().map(|s| s.audio.len()).sum();
        assert_eq!(frames, 2 * sampling_ticks as usize);
    }

    #[test]
    fn exact_mode_matches_cached_mode() {
        let (world, roster, truth) = setup();
        let rec = |config| Recorder::new(&world, &roster, &truth, config, SeedTree::new(99));
        let default = SamplingConfig::default();
        assert!(
            rec(default).record_day_stores(2)
                == rec(default)
                    .with_rf_mode(RfMode::Exact)
                    .record_day_stores(2)
        );
        let fleet = SamplingConfig::fleet();
        for day in ORACLE_DAYS {
            assert!(
                rec(fleet).record_day_stores(day)
                    == rec(fleet)
                        .with_rf_mode(RfMode::Exact)
                        .record_day_stores(day),
                "fleet day {day}"
            );
        }
    }
}
