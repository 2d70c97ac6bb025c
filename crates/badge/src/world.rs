//! The deployment "world": habitat, channels and the badge↔wearer mapping.

use crate::records::BadgeId;
use ares_crew::behavior::CHARGING_STATION;
use ares_crew::incidents::IncidentScript;
use ares_crew::roster::AstronautId;
use ares_crew::truth::MissionTruth;
use ares_habitat::beacons::BeaconDeployment;
use ares_habitat::environment::Environment;
use ares_habitat::fieldcache::RfFieldCache;
use ares_habitat::floorplan::FloorPlan;
use ares_habitat::rf::{Channel, ChannelParams, InfraredParams};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::SimTime;
use std::sync::{Arc, OnceLock};

/// Which geometry path the recording front end takes.
///
/// Both modes produce **bit-identical** telemetry for identical seeds: the
/// cache only tabulates cells it can prove constant (falling back to the
/// exact oracle elsewhere), and its fast-reject culls only skip packets the
/// exact path would also reject before drawing any randomness. `Exact` exists
/// as the honest baseline for benches and equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RfMode {
    /// Precomputed [`RfFieldCache`] lookups with exact fallback (default).
    #[default]
    Cached,
    /// Full geometric path: wall scans and polygon tests per packet.
    Exact,
}

/// Everything the badge firmware simulation samples against.
#[derive(Debug)]
pub struct World {
    /// The floor plan.
    pub plan: FloorPlan,
    /// The 27-beacon deployment.
    pub beacons: BeaconDeployment,
    /// BLE channel (beacon → badge).
    pub ble: Channel,
    /// 868 MHz channel (badge ↔ badge).
    pub sub_ghz: Channel,
    /// Infrared cone parameters.
    pub ir: InfraredParams,
    /// Ambient environment.
    pub env: Environment,
    /// Incident script (badge identity mapping).
    pub incidents: IncidentScript,
    /// Position of the charging station / reference badge.
    pub station: Point2,
    /// Lazily resolved RF field cache (plan + beacons + station sources),
    /// interned process-wide by geometry so fleet shards and scenario
    /// replicas of the same habitat share one grid.
    field_cache: OnceLock<Arc<RfFieldCache>>,
}

impl World {
    /// The canonical ICAres-1 world.
    #[must_use]
    pub fn icares() -> Self {
        let plan = FloorPlan::lunares();
        let beacons = BeaconDeployment::icares(&plan);
        World::from_parts(plan, beacons, IncidentScript::icares(), CHARGING_STATION)
    }

    /// Assembles a world from already-built scenario parts. Channels and
    /// environment are the canonical deployment hardware — scenarios vary
    /// geometry, crew and incidents, not the radio stack.
    #[must_use]
    pub fn from_parts(
        plan: FloorPlan,
        beacons: BeaconDeployment,
        incidents: IncidentScript,
        station: Point2,
    ) -> Self {
        World {
            plan,
            beacons,
            ble: Channel::new(ChannelParams::ble()),
            sub_ghz: Channel::new(ChannelParams::sub_ghz()),
            ir: InfraredParams::default(),
            env: Environment::icares(),
            incidents,
            station,
            field_cache: OnceLock::new(),
        }
    }

    /// A variant with a thinned beacon deployment (ablation experiments).
    #[must_use]
    pub fn with_beacons(mut self, beacons: BeaconDeployment) -> Self {
        self.beacons = beacons;
        // The cache indexes sources by beacon order; rebuild on next use.
        self.field_cache = OnceLock::new();
        self
    }

    /// The RF field cache, resolved on first use from the plan, beacon
    /// deployment and station position — through the process-wide intern
    /// table, so identical geometry is only ever built once
    /// ([`RfFieldCache::build_interned`]).
    #[must_use]
    pub fn field_cache(&self) -> &RfFieldCache {
        self.field_cache.get_or_init(|| {
            RfFieldCache::build_interned(&self.plan, &self.beacons, &[self.station])
        })
    }

    /// The shared handle behind [`field_cache`](World::field_cache), for
    /// callers that outlive the world or want to check interning identity.
    #[must_use]
    pub fn field_cache_arc(&self) -> Arc<RfFieldCache> {
        let _ = self.field_cache();
        Arc::clone(self.field_cache.get().expect("initialized above"))
    }

    /// Cache source index of the charging station (= one past the beacons).
    #[must_use]
    pub fn station_source(&self) -> usize {
        self.beacons.len()
    }

    /// The room a point lies in under the given RF mode — cache lookup or
    /// exact polygon test, bit-identical by the cache's purity contract.
    #[must_use]
    pub fn room_in_mode(&self, p: Point2, mode: RfMode) -> RoomId {
        match mode {
            RfMode::Cached => self
                .field_cache()
                .room_of(&self.plan, p)
                .unwrap_or(RoomId::Main),
            RfMode::Exact => self.room_at(p),
        }
    }

    /// Which astronaut carries the given badge unit on `day`, if anyone.
    ///
    /// Inverts the incident script's wearer→unit mapping: unit `i` belongs
    /// to astronaut `i`; on the swap day A and B carry each other's units;
    /// from day 7 F carries C's old unit; and a badge failure moves its
    /// wearer onto a spare unit (6–11).
    #[must_use]
    pub fn carrier_of(&self, badge: BadgeId, day: u32) -> Option<AstronautId> {
        if badge == BadgeId::REFERENCE {
            return None;
        }
        let midday = SimTime::from_day_hms(day.max(1), 12, 0, 0);
        AstronautId::ALL
            .into_iter()
            .filter(|&wearer| self.incidents.is_aboard(wearer, midday))
            .find(|&wearer| self.badge_of(wearer, day) == badge)
    }

    /// The badge unit carried by `astronaut` on `day`.
    #[must_use]
    pub fn badge_of(&self, astronaut: AstronautId, day: u32) -> BadgeId {
        match self.incidents.worn_unit_slot(astronaut, day) {
            ares_crew::incidents::UnitSlot::PrimaryOf(owner) => BadgeId::primary(owner.index()),
            ares_crew::incidents::UnitSlot::Backup(i) => BadgeId(6 + i.min(5)),
        }
    }

    /// The physical position of a badge unit at instant `t`, given ground
    /// truth: with its carrier (subject to wear state), or at the station.
    #[must_use]
    pub fn badge_position(&self, badge: BadgeId, t: SimTime, truth: &MissionTruth) -> Point2 {
        let day = t.mission_day();
        match self.carrier_of(badge, day) {
            Some(carrier) => truth
                .of(carrier)
                .badge_position(t, self.station)
                .unwrap_or(self.station),
            None => self.station,
        }
    }

    /// The room a point lies in (station fallback: main hall).
    #[must_use]
    pub fn room_at(&self, p: Point2) -> RoomId {
        self.plan.room_at(p).unwrap_or(RoomId::Main)
    }
}

impl Default for World {
    fn default() -> Self {
        World::icares()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_assignment_is_identity() {
        let w = World::icares();
        for (i, id) in AstronautId::ALL.into_iter().enumerate() {
            assert_eq!(w.badge_of(id, 2), BadgeId(i as u8));
            assert_eq!(w.carrier_of(BadgeId(i as u8), 2), Some(id));
        }
    }

    #[test]
    fn swap_day_inverts_a_and_b() {
        let w = World::icares();
        assert_eq!(w.badge_of(AstronautId::A, 6), BadgeId(1));
        assert_eq!(w.badge_of(AstronautId::B, 6), BadgeId(0));
        assert_eq!(w.carrier_of(BadgeId(0), 6), Some(AstronautId::B));
        assert_eq!(w.carrier_of(BadgeId(1), 6), Some(AstronautId::A));
    }

    #[test]
    fn f_carries_cs_unit_from_day_seven() {
        let w = World::icares();
        assert_eq!(w.badge_of(AstronautId::F, 7), BadgeId(2));
        assert_eq!(w.carrier_of(BadgeId(2), 7), Some(AstronautId::F));
        // F's own unit is uncarried from then on.
        assert_eq!(w.carrier_of(BadgeId(5), 7), None);
        // C's unit is uncarried on days 5–6 (C dead, F not yet switched).
        assert_eq!(w.carrier_of(BadgeId(2), 5), None);
    }

    #[test]
    fn identical_worlds_share_one_interned_field_cache() {
        let a = World::icares();
        let b = World::icares();
        assert!(
            Arc::ptr_eq(&a.field_cache_arc(), &b.field_cache_arc()),
            "same geometry must intern to one grid"
        );
    }

    #[test]
    fn reference_and_backups_have_no_carrier() {
        let w = World::icares();
        assert_eq!(w.carrier_of(BadgeId::REFERENCE, 3), None);
        assert_eq!(w.carrier_of(BadgeId(8), 3), None);
    }
}
