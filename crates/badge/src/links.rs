//! Badge-to-badge links: 868 MHz proximity, infrared face-to-face contacts,
//! and opportunistic time-sync with the reference badge.

use crate::clockdrift::ClockSet;
use crate::records::{BadgeId, ProximityObs, SyncSample};
use crate::world::{RfMode, World};
use ares_crew::truth::{MissionTruth, WearState};
use ares_habitat::rf::{Reception, Rssi};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::{Point2, Vec2};
use ares_simkit::time::SimTime;
use rand::Rng;

/// Samples the 868 MHz proximity observations a badge makes at one instant:
/// which other units it hears and at what RSSI.
///
/// Same-room links skip geometry entirely (convex rooms cross zero walls).
/// Under [`RfMode::Cached`], cross-room links are first tested against the
/// plan's [`wall_floor`](ares_habitat::floorplan::FloorPlan::wall_floor)
/// lower bound — a pair whose *best possible* RSSI is
/// below sensitivity is dropped without touching geometry or randomness,
/// which is exactly what the exact path's pre-draw early-out would do with
/// the true wall count — and transmitters parked at the station resolve wall
/// counts from the station's cache table. Output and RNG consumption are
/// bit-identical across modes.
///
/// This is the scalar oracle of [`proximity_sweep_into`]: every link's
/// geometry is resolved afresh for this one sweep.
#[allow(clippy::too_many_arguments)]
pub fn proximity_sweep(
    world: &World,
    mode: RfMode,
    listener: BadgeId,
    listener_pos: Point2,
    listener_room: RoomId,
    units: &[(BadgeId, Point2, RoomId)],
    t_local: SimTime,
    rng: &mut impl Rng,
) -> Vec<ProximityObs> {
    let mut out = Vec::new();
    let mut cold = vec![ProximityLink::UNSET; units.len()];
    proximity_sweep_into(
        world,
        mode,
        listener,
        listener_pos,
        listener_room,
        units,
        &mut cold,
        t_local,
        rng,
        &mut out,
    );
    out
}

/// [`proximity_sweep`] for the batched recording kernel: appends into a
/// caller-owned buffer (not cleared), and `links[i]` memoises `units[i]`'s
/// link across calls, so its geometry is resolved again only when either end
/// has moved. The draws go through
/// [`transmit_precomputed_mean`](ares_habitat::rf::Channel::transmit_precomputed_mean)
/// in unit order, so observations and RNG consumption match a cold memo.
#[allow(clippy::too_many_arguments)]
pub fn proximity_sweep_into(
    world: &World,
    mode: RfMode,
    listener: BadgeId,
    listener_pos: Point2,
    listener_room: RoomId,
    units: &[(BadgeId, Point2, RoomId)],
    links: &mut [ProximityLink],
    t_local: SimTime,
    rng: &mut impl Rng,
    out: &mut Vec<ProximityObs>,
) {
    for (&(other, pos, other_room), link) in units.iter().zip(links) {
        if other == listener {
            continue;
        }
        if link.ends != (pos, listener_pos) {
            *link = ProximityLink::new(world, mode, pos, other_room, listener_pos, listener_room);
        }
        let Some(mean) = link.mean else { continue };
        if let Reception::Received(rssi) = world.sub_ghz.transmit_precomputed_mean(mean, rng) {
            out.push(ProximityObs {
                t_local,
                other,
                rssi,
            });
        }
    }
}

/// One transmitter's memoised proximity link, keyed on the exact positions
/// of both ends (transmitter, listener). The value is a pure function of
/// them (rooms are too): the link's mean RSSI, or `None` when the
/// wall-floor bound culls it.
#[derive(Debug, Clone, Copy)]
pub struct ProximityLink {
    ends: (Point2, Point2),
    mean: Option<Rssi>,
}

impl ProximityLink {
    /// An empty entry: NaN positions never compare equal, so the first
    /// sweep fills it.
    pub const UNSET: ProximityLink = ProximityLink {
        ends: (
            Point2::new(f64::NAN, f64::NAN),
            Point2::new(f64::NAN, f64::NAN),
        ),
        mean: None,
    };

    fn new(
        world: &World,
        mode: RfMode,
        tx: Point2,
        tx_room: RoomId,
        rx: Point2,
        rx_room: RoomId,
    ) -> Self {
        let params = world.sub_ghz.params();
        let d = tx.distance(rx);
        let walls = match mode {
            RfMode::Cached if tx_room == rx_room => Some(0),
            RfMode::Cached => {
                let floor = world.plan.wall_floor(tx_room, rx_room);
                if floor >= 2
                    && params.mean_rssi(d, floor) + 6.0 * params.shadowing_sigma_db
                        < params.sensitivity_dbm
                {
                    // Even the wall-count lower bound puts the link below
                    // sensitivity: the exact path would early-out before
                    // drawing, so culling here stays bit-identical.
                    None
                } else if tx == world.station {
                    // Docked / uncarried transmitters sit exactly at the
                    // station — resolved from its per-cell table.
                    Some(
                        world
                            .field_cache()
                            .walls_from(&world.plan, world.station_source(), rx),
                    )
                } else {
                    Some(world.plan.walls_crossed(tx, rx))
                }
            }
            // The honest baseline: full geometry, no shortcuts (a same-room
            // scan finds 0 crossings, so the value is unchanged).
            RfMode::Exact => Some(world.plan.walls_crossed(tx, rx)),
        };
        ProximityLink {
            ends: (tx, rx),
            mean: walls.map(|walls| params.mean_rssi(d, walls)),
        }
    }
}

/// Samples an infrared exchange between two *worn* badges. Badges on desks
/// or chargers never register IR contacts (nobody faces them). Under
/// [`RfMode::Cached`], same-room exchanges (the overwhelmingly common case
/// within the 2 m IR range) skip the wall scan — rooms are convex so the
/// count is zero by construction; [`RfMode::Exact`] runs the full visibility
/// test per exchange.
#[allow(clippy::too_many_arguments)]
pub fn ir_exchange(
    world: &World,
    mode: RfMode,
    a_pos: Point2,
    a_facing: Vec2,
    a_wear: WearState,
    a_room: RoomId,
    b_pos: Point2,
    b_facing: Vec2,
    b_wear: WearState,
    b_room: RoomId,
    rng: &mut impl Rng,
) -> bool {
    if !a_wear.is_worn() || !b_wear.is_worn() {
        return false;
    }
    let visible = if mode == RfMode::Cached && a_room == b_room {
        world
            .ir
            .mutually_visible_known_walls(0, a_pos, a_facing, b_pos, b_facing)
    } else {
        world
            .ir
            .mutually_visible(&world.plan, a_pos, a_facing, b_pos, b_facing)
    };
    visible && rng.gen::<f64>() < world.ir.detection_prob
}

/// Attempts an opportunistic sync exchange with the reference badge: succeeds
/// when the badge's BLE link to the station is up, and records both local
/// clocks' readings of the same true instant. The station is a cache source,
/// so [`RfMode::Cached`] resolves the wall count with a table lookup.
pub fn sync_attempt(
    world: &World,
    mode: RfMode,
    clocks: &ClockSet,
    badge: BadgeId,
    badge_pos: Point2,
    t_true: SimTime,
    rng: &mut impl Rng,
) -> Option<SyncSample> {
    let mean = sync_link_mean(world, mode, badge_pos);
    sync_attempt_with_mean(world, clocks, badge, mean, t_true, rng)
}

/// The deterministic half of [`sync_attempt`]: the station link's mean RSSI
/// for a badge at `badge_pos`, which the recording kernel memoises on the
/// badge's position.
#[must_use]
pub fn sync_link_mean(world: &World, mode: RfMode, badge_pos: Point2) -> f64 {
    let walls = match mode {
        RfMode::Cached => {
            world
                .field_cache()
                .walls_from(&world.plan, world.station_source(), badge_pos)
        }
        RfMode::Exact => world.plan.walls_crossed(world.station, badge_pos),
    };
    let d = world.station.distance(badge_pos);
    world.ble.params().mean_rssi(d, walls)
}

/// The drawing half of [`sync_attempt`], given the station-link mean (see
/// [`sync_link_mean`]). The reference unit never syncs and never draws.
pub fn sync_attempt_with_mean(
    world: &World,
    clocks: &ClockSet,
    badge: BadgeId,
    mean: f64,
    t_true: SimTime,
    rng: &mut impl Rng,
) -> Option<SyncSample> {
    if badge == BadgeId::REFERENCE {
        return None;
    }
    match world.ble.transmit_precomputed_mean(mean, rng) {
        Reception::Received(_) => Some(SyncSample {
            t_local: clocks.clock(badge).local_time(t_true),
            t_reference: clocks.reference().local_time(t_true),
        }),
        Reception::Lost => None,
    }
}

/// Helper bundling the facing vector of a badge's wearer (or `None` when the
/// badge is off-body).
#[must_use]
pub fn worn_facing(
    world: &World,
    badge: BadgeId,
    t: SimTime,
    truth: &MissionTruth,
) -> Option<Vec2> {
    let carrier = world.carrier_of(badge, t.mission_day())?;
    let a = truth.of(carrier);
    if !a.wear_state(t).is_worn() {
        return None;
    }
    a.facing(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_habitat::rooms::RoomId;
    use ares_simkit::rng::SeedTree;
    use ares_simkit::time::SimDuration;

    #[test]
    fn proximity_hears_same_room_not_far_rooms() {
        let world = World::icares();
        let mut rng = SeedTree::new(20).stream("prox");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let office = world.plan.room_center(RoomId::Office);
        let units = vec![
            (BadgeId(1), kitchen + Vec2::new(1.0, 0.0), RoomId::Kitchen),
            (BadgeId(2), office, RoomId::Office),
        ];
        let mut heard1 = 0;
        let mut heard2 = 0;
        for i in 0..200 {
            for mode in [RfMode::Cached, RfMode::Exact] {
                let obs = proximity_sweep(
                    &world,
                    mode,
                    BadgeId(0),
                    kitchen,
                    RoomId::Kitchen,
                    &units,
                    SimTime::from_secs(i),
                    &mut rng,
                );
                heard1 += obs.iter().filter(|o| o.other == BadgeId(1)).count();
                heard2 += obs.iter().filter(|o| o.other == BadgeId(2)).count();
            }
        }
        assert!(heard1 > 300, "same-room unit heard {heard1}");
        assert_eq!(heard2, 0, "cross-habitat unit must be shielded");
    }

    #[test]
    fn ir_requires_worn_badges() {
        let world = World::icares();
        let mut rng = SeedTree::new(21).stream("ir");
        let p = world.plan.room_center(RoomId::Kitchen);
        let q = p + Vec2::new(1.0, 0.0);
        let east = Vec2::new(1.0, 0.0);
        let west = Vec2::new(-1.0, 0.0);
        let mut worn_hits = 0;
        for _ in 0..100 {
            if ir_exchange(
                &world,
                RfMode::Cached,
                p,
                east,
                WearState::Worn,
                RoomId::Kitchen,
                q,
                west,
                WearState::Worn,
                RoomId::Kitchen,
                &mut rng,
            ) {
                worn_hits += 1;
            }
            assert!(!ir_exchange(
                &world,
                RfMode::Exact,
                p,
                east,
                WearState::Docked,
                RoomId::Kitchen,
                q,
                west,
                WearState::Worn,
                RoomId::Kitchen,
                &mut rng
            ));
        }
        assert!(worn_hits > 60);
    }

    #[test]
    fn sync_works_near_station_and_is_consistent() {
        let world = World::icares();
        let clocks = ClockSet::generate(&SeedTree::new(7));
        let mut rng = SeedTree::new(22).stream("sync");
        let t = SimTime::from_day_hms(3, 22, 0, 0);
        // Docked at the station: sync succeeds almost always.
        let mut got = None;
        for _ in 0..20 {
            if let Some(s) = sync_attempt(
                &world,
                RfMode::Cached,
                &clocks,
                BadgeId(0),
                world.station,
                t,
                &mut rng,
            ) {
                got = Some(s);
                break;
            }
        }
        let s = got.expect("sync at the station");
        // The pair encodes the true offset between the two clocks.
        let expected = clocks.clock(BadgeId(0)).local_time(t) - clocks.reference().local_time(t);
        assert!(((s.t_local - s.t_reference) - expected).abs() < SimDuration::from_micros(1));
        // Far away behind walls: never syncs, in either mode.
        let biolab = world.plan.room_center(RoomId::Biolab);
        for _ in 0..50 {
            for mode in [RfMode::Cached, RfMode::Exact] {
                assert!(
                    sync_attempt(&world, mode, &clocks, BadgeId(0), biolab, t, &mut rng).is_none()
                );
            }
        }
    }

    #[test]
    fn reference_never_syncs_to_itself() {
        let world = World::icares();
        let clocks = ClockSet::generate(&SeedTree::new(7));
        let mut rng = SeedTree::new(23).stream("sync2");
        assert!(sync_attempt(
            &world,
            RfMode::Cached,
            &clocks,
            BadgeId::REFERENCE,
            world.station,
            SimTime::from_secs(0),
            &mut rng
        )
        .is_none());
    }
}
