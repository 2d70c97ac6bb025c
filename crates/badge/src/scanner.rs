//! The BLE scanner: hearing the 27 beacons.
//!
//! Every scan window the badge listens for beacon advertisements; the RF
//! channel decides which are received and at what RSSI. Because the rooms
//! are convex, a beacon in the badge's own room never crosses a wall — the
//! hot path skips the geometric test entirely. Beacons in other rooms are
//! only ever heard through open doorways (the artifact the paper's 10-second
//! dwell filter exists to suppress).
//!
//! The recorder writes each scan's hits straight into its store's
//! [`ScanColumn`] ([`scan_into`], [`scan_from_plan`]); the row forms
//! ([`scan`], [`scan_in`]) collect the same draws into a [`BeaconScan`].

use crate::records::BeaconScan;
use crate::telemetry::ScanColumn;
use crate::world::{RfMode, World};
use ares_habitat::beacons::BeaconId;
use ares_habitat::rf::Reception;
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::SimTime;
use rand::Rng;

/// Performs one BLE scan at the given badge position (cached geometry).
pub fn scan(world: &World, badge_pos: Point2, t_local: SimTime, rng: &mut impl Rng) -> BeaconScan {
    let badge_room = world.room_in_mode(badge_pos, RfMode::Cached);
    scan_in(world, RfMode::Cached, badge_room, badge_pos, t_local, rng)
}

/// Performs one BLE scan with the badge's room already resolved, under the
/// given RF mode: the row form of [`scan_into`], the same draws collected
/// into a [`BeaconScan`].
pub fn scan_in(
    world: &World,
    mode: RfMode,
    badge_room: RoomId,
    badge_pos: Point2,
    t_local: SimTime,
    rng: &mut impl Rng,
) -> BeaconScan {
    let mut hits = Vec::new();
    draw_in(world, mode, badge_room, badge_pos, rng, |id, rssi| {
        hits.push((id, rssi));
    });
    BeaconScan { t_local, hits }
}

/// Performs one BLE scan with the badge's room already resolved, under the
/// given RF mode, writing its hits straight into `scans`.
///
/// Both modes consider the same candidate beacons in the same order and draw
/// the same randomness per candidate, so the emitted scans are bit-identical;
/// `Cached` resolves wall counts from the field cache, `Exact` from the
/// geometric oracle.
pub fn scan_into(
    scans: &mut ScanColumn,
    world: &World,
    mode: RfMode,
    badge_room: RoomId,
    badge_pos: Point2,
    t_local: SimTime,
    rng: &mut impl Rng,
) {
    scans.push_with(t_local, |sink| {
        draw_in(world, mode, badge_room, badge_pos, rng, |id, rssi| {
            sink.push(id, rssi);
        });
    });
}

/// The scan kernel of [`scan_in`] and [`scan_into`]: one reception draw per
/// candidate beacon, in scan order, handing each received one to `hit`.
fn draw_in(
    world: &World,
    mode: RfMode,
    badge_room: RoomId,
    badge_pos: Point2,
    rng: &mut impl Rng,
    mut hit: impl FnMut(BeaconId, f64),
) {
    for_each_candidate(world, mode, badge_room, badge_pos, |beacon, walls| {
        let d = beacon.position.distance(badge_pos);
        if let Reception::Received(rssi) = world.ble.transmit_known_walls(d, walls, rng) {
            hit(beacon.id, rssi);
        }
    });
}

/// One audible beacon in a [`scan plan`](scan_plan_into): its id and the
/// precomputed deterministic mean RSSI at the planned badge position.
pub type ScanPlanEntry = (BeaconId, f64);

/// Builds the scan plan for a badge dwelling at `(badge_room,
/// badge_pos)`: every candidate beacon [`scan_into`] would consider, in the
/// same order, with its mean RSSI precomputed — minus the candidates whose
/// mean is so deep below sensitivity that [`transmit_known_walls`] would
/// return `Lost` *before drawing any randomness*. Replaying the plan with
/// [`scan_from_plan`] therefore consumes the identical RNG stream and emits
/// bit-identical scans, while the tick loop no longer touches geometry.
///
/// Means are computed through the lane-batched
/// [`mean_rssi_batch`](ares_habitat::rf::ChannelParams::mean_rssi_batch),
/// which is bit-identical to the scalar per-candidate computation.
///
/// [`transmit_known_walls`]: ares_habitat::rf::Channel::transmit_known_walls
#[allow(clippy::too_many_arguments)]
pub fn scan_plan_into(
    world: &World,
    mode: RfMode,
    badge_room: RoomId,
    badge_pos: Point2,
    plan: &mut Vec<ScanPlanEntry>,
    dist_scratch: &mut Vec<f64>,
    wall_scratch: &mut Vec<f64>,
    mean_scratch: &mut Vec<f64>,
) {
    plan.clear();
    dist_scratch.clear();
    wall_scratch.clear();
    for_each_candidate(world, mode, badge_room, badge_pos, |beacon, walls| {
        plan.push((beacon.id, 0.0));
        dist_scratch.push(beacon.position.distance(badge_pos));
        wall_scratch.push(walls as f64);
    });
    mean_scratch.resize(plan.len(), 0.0);
    world
        .ble
        .params()
        .mean_rssi_batch(dist_scratch, wall_scratch, mean_scratch);
    let sigma6 = 6.0 * world.ble.params().shadowing_sigma_db;
    let sensitivity = world.ble.params().sensitivity_dbm;
    let mut kept = 0;
    for i in 0..plan.len() {
        let mean = mean_scratch[i];
        // Same pre-draw early-out as `transmit_known_walls`: these
        // candidates are Lost without consuming randomness, so dropping
        // them from the plan leaves the RNG stream untouched.
        if mean + sigma6 < sensitivity {
            continue;
        }
        plan[kept] = (plan[i].0, mean);
        kept += 1;
    }
    plan.truncate(kept);
}

/// Replays one scan tick against a precomputed plan, writing its hits
/// straight into `scans`: one reception draw per audible candidate, in plan
/// order. Paired with [`scan_plan_into`], emits exactly what [`scan_into`]
/// would at the planned position.
pub fn scan_from_plan(
    scans: &mut ScanColumn,
    world: &World,
    plan: &[ScanPlanEntry],
    t_local: SimTime,
    rng: &mut impl Rng,
) {
    scans.push_with(t_local, |sink| {
        for &(id, mean) in plan {
            if let Reception::Received(rssi) = world.ble.transmit_precomputed_mean(mean, rng) {
                sink.push(id, rssi);
            }
        }
    });
}

/// Visits, in scan order, the beacons that could conceivably be heard from
/// a room — its own plus those of door-adjacent rooms (leakage through
/// doorways) — with each one's wall count to `badge_pos`. `Cached` resolves
/// the counts from the field cache, `Exact` from the geometric oracle; a
/// beacon in the badge's own (convex) room crosses zero walls.
fn for_each_candidate(
    world: &World,
    mode: RfMode,
    badge_room: RoomId,
    badge_pos: Point2,
    mut visit: impl FnMut(&ares_habitat::beacons::Beacon, usize),
) {
    match mode {
        RfMode::Cached => {
            let cache = world.field_cache();
            for &bi in cache.candidates(badge_room) {
                let beacon = &world.beacons.beacons()[bi as usize];
                let walls = if beacon.room == badge_room {
                    0
                } else {
                    cache.walls_from(&world.plan, bi as usize, badge_pos)
                };
                visit(beacon, walls);
            }
        }
        RfMode::Exact => {
            let candidates = world.beacons.beacons().iter().filter(|b| {
                b.room == badge_room || world.plan.door_between(b.room, badge_room).is_some()
            });
            for beacon in candidates {
                let walls = if beacon.room == badge_room {
                    0
                } else {
                    world.plan.walls_crossed(beacon.position, badge_pos)
                };
                visit(beacon, walls);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_simkit::rng::SeedTree;

    #[test]
    fn in_room_beacons_dominate_scans() {
        let world = World::icares();
        let mut rng = SeedTree::new(8).stream("scan");
        let pos = world.plan.room_center(RoomId::Biolab);
        let mut own = 0usize;
        let mut foreign = 0usize;
        for i in 0..200 {
            let s = scan(&world, pos, SimTime::from_secs(i), &mut rng);
            for (id, _) in &s.hits {
                let b = world.beacons.get(*id).unwrap();
                if b.room == RoomId::Biolab {
                    own += 1;
                } else {
                    foreign += 1;
                }
            }
        }
        assert!(own > 400, "own-room hits {own}");
        assert_eq!(foreign, 0, "room centre must hear no foreign beacons");
    }

    #[test]
    fn doorway_positions_can_leak() {
        let world = World::icares();
        let mut rng = SeedTree::new(9).stream("scan2");
        let door = world
            .plan
            .door_between(RoomId::Biolab, RoomId::Main)
            .unwrap();
        // Standing right in the biolab doorway, main-hall beacons can slip in.
        let pos = Point2::new(door.center.x, 0.25);
        let mut foreign = 0usize;
        for i in 0..300 {
            let s = scan(&world, pos, SimTime::from_secs(i), &mut rng);
            foreign += s
                .hits
                .iter()
                .filter(|(id, _)| world.beacons.get(*id).unwrap().room == RoomId::Main)
                .count();
        }
        assert!(foreign > 0, "no doorway leakage observed");
    }

    #[test]
    fn scan_plan_replay_is_bit_identical_near_cell_boundaries() {
        // The plan is built once per dwell run, so it must reproduce
        // `scan_in` exactly even when the badge sits right on a field-cache
        // cell edge — where `walls_from` answers flip between neighbours.
        let world = World::icares();
        let cell = ares_habitat::fieldcache::CELL_M;
        let offsets = [
            -cell,
            -cell + 1e-9,
            -1e-9,
            0.0,
            1e-9,
            cell / 2.0,
            cell - 1e-9,
            cell,
        ];
        let mut plan = Vec::new();
        let (mut dist, mut walls, mut means) = (Vec::new(), Vec::new(), Vec::new());
        let mut case = 0u64;
        for room in RoomId::ALL {
            let center = world.plan.room_center(room);
            // Snap to the cell grid so the offsets actually straddle edges.
            let snapped = Point2::new(
                (center.x / cell).round() * cell,
                (center.y / cell).round() * cell,
            );
            for dx in offsets {
                for dy in offsets {
                    let pos = Point2::new(snapped.x + dx, snapped.y + dy);
                    for mode in [RfMode::Cached, RfMode::Exact] {
                        let badge_room = world.room_in_mode(pos, mode);
                        scan_plan_into(
                            &world, mode, badge_room, pos, &mut plan, &mut dist, &mut walls,
                            &mut means,
                        );
                        let seed = SeedTree::new(1234).stream_indexed("cell-edge", case);
                        case += 1;
                        let t = SimTime::from_secs(case as i64);
                        let mut via_plan = ScanColumn::new();
                        scan_from_plan(&mut via_plan, &world, &plan, t, &mut seed.clone());
                        let direct = scan_in(&world, mode, badge_room, pos, t, &mut seed.clone());
                        let via_plan = via_plan.view().get(0).map(|(t, hits)| BeaconScan {
                            t_local: t,
                            hits: hits.to_vec(),
                        });
                        assert_eq!(via_plan, Some(direct), "{mode:?} at ({}, {})", pos.x, pos.y);
                    }
                }
            }
        }
    }

    #[test]
    fn rssi_orders_by_distance_on_average() {
        let world = World::icares();
        let mut rng = SeedTree::new(10).stream("scan3");
        let room = RoomId::Office;
        let beacons: Vec<_> = world.beacons.in_room(room).collect();
        let near = beacons[0].position + ares_simkit::geometry::Vec2::new(0.3, -0.3);
        let mut near_sum = 0.0;
        let mut near_n = 0.0;
        let mut far_sum = 0.0;
        let mut far_n = 0.0;
        for i in 0..300 {
            let s = scan(&world, near, SimTime::from_secs(i), &mut rng);
            for (id, rssi) in &s.hits {
                if *id == beacons[0].id {
                    near_sum += rssi;
                    near_n += 1.0;
                } else if *id == beacons[1].id {
                    far_sum += rssi;
                    far_n += 1.0;
                }
            }
        }
        assert!(near_n > 0.0 && far_n > 0.0);
        assert!(near_sum / near_n > far_sum / far_n + 5.0);
    }
}
