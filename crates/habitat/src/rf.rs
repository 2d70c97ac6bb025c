//! Radio propagation inside the habitat.
//!
//! The model is a standard indoor log-distance path-loss channel with
//! per-wall attenuation and log-normal shadowing:
//!
//! ```text
//! RSSI = Ptx − PL₀ − 10·n·log₁₀(d/1 m) − walls·Lwall + X(σ)
//! ```
//!
//! The habitat's metal module walls give a very large `Lwall`, which is what
//! made room-level localization in ICAres-1 "perfect": a beacon in another
//! room is essentially never heard through a wall. The one exception the
//! paper mentions — "occasional beacon signals from another room slipped
//! through open doors" — emerges naturally here, because doorway gaps are not
//! walls and a ray threading a doorway suffers no wall loss.
//!
//! Three radio technologies are modeled: the badges' BLE scanner (which hears
//! the 27 beacons), the 868 MHz inter-badge radio, and the infrared
//! face-to-face transceiver (a line-of-sight cone, not an RF link).

use crate::floorplan::FloorPlan;
use ares_simkit::geometry::{Point2, Vec2};
use rand::Rng;
use rand_distr::{Distribution, Normal};
use serde::{DeError, Deserialize, Serialize, Value};

/// Received signal strength in dBm.
pub type Rssi = f64;

/// Parameters of one radio technology's channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Transmit power (dBm).
    pub tx_power_dbm: f64,
    /// Path loss at the 1 m reference distance (dB).
    pub pl0_db: f64,
    /// Path-loss exponent.
    pub exponent: f64,
    /// Attenuation per crossed wall segment (dB).
    pub wall_loss_db: f64,
    /// Log-normal shadowing standard deviation (dB).
    pub shadowing_sigma_db: f64,
    /// Receiver sensitivity: packets below this RSSI are lost (dBm).
    pub sensitivity_dbm: f64,
    /// Base packet-error rate even at strong RSSI (collisions etc.).
    pub base_loss: f64,
}

impl ChannelParams {
    /// The 2.4 GHz BLE channel between beacons and badges.
    ///
    /// Wall loss is calibrated to the floor plan's convention of emitting
    /// shared walls once per room (a cross-room ray crosses ≥ 2 segments), so
    /// a single doorway-free room boundary costs ≥ 50 dB — far below
    /// sensitivity, i.e. metal-wall shielding is effectively perfect.
    #[must_use]
    pub fn ble() -> Self {
        ChannelParams {
            tx_power_dbm: 0.0,
            pl0_db: 45.0,
            exponent: 2.2,
            wall_loss_db: 25.0,
            shadowing_sigma_db: 3.5,
            sensitivity_dbm: -95.0,
            base_loss: 0.05,
        }
    }

    /// The 868 MHz inter-badge radio: better reference loss, slightly lower
    /// exponent, but the metal walls still dominate.
    #[must_use]
    pub fn sub_ghz() -> Self {
        ChannelParams {
            tx_power_dbm: 5.0,
            pl0_db: 37.0,
            exponent: 2.0,
            wall_loss_db: 22.0,
            shadowing_sigma_db: 3.0,
            sensitivity_dbm: -100.0,
            base_loss: 0.03,
        }
    }

    /// Deterministic mean RSSI (no shadowing) at distance `d` meters through
    /// `walls` wall crossings.
    #[must_use]
    pub fn mean_rssi(&self, d: f64, walls: usize) -> Rssi {
        let d = d.max(0.1);
        self.tx_power_dbm
            - self.pl0_db
            - 10.0 * self.exponent * d.log10()
            - walls as f64 * self.wall_loss_db
    }

    /// Lane-batched [`ChannelParams::mean_rssi`]: fills `out[i]` with the
    /// mean RSSI at `dist_m[i]` meters through `wall_counts[i]` crossings.
    ///
    /// Wall counts are pre-widened to `f64` (exactly representable for any
    /// realistic count) so the kernel runs over fixed `[f64; LANES]` chunks;
    /// per element the expression is exactly [`ChannelParams::mean_rssi`]'s,
    /// so each lane is bit-identical to the scalar call.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    pub fn mean_rssi_batch(&self, dist_m: &[f64], wall_counts: &[f64], out: &mut [f64]) {
        use ares_simkit::lanes::{as_lanes, as_lanes_mut, LANES};
        assert_eq!(dist_m.len(), wall_counts.len(), "length mismatch");
        assert_eq!(dist_m.len(), out.len(), "length mismatch");
        let (d_chunks, d_tail) = as_lanes(dist_m);
        let (w_chunks, w_tail) = as_lanes(wall_counts);
        let (o_chunks, o_tail) = as_lanes_mut(out);
        for ((d, w), o) in d_chunks.iter().zip(w_chunks).zip(o_chunks) {
            for l in 0..LANES {
                let dist = d[l].max(0.1);
                o[l] = self.tx_power_dbm
                    - self.pl0_db
                    - 10.0 * self.exponent * dist.log10()
                    - w[l] * self.wall_loss_db;
            }
        }
        for ((d, w), o) in d_tail.iter().zip(w_tail).zip(o_tail) {
            let dist = d.max(0.1);
            *o = self.tx_power_dbm
                - self.pl0_db
                - 10.0 * self.exponent * dist.log10()
                - w * self.wall_loss_db;
        }
    }

    /// Inverts the deterministic model: estimated distance for a given RSSI
    /// assuming zero wall crossings. This is the ranging step used by the
    /// trilateration in `ares-sociometrics`.
    #[must_use]
    pub fn distance_for_rssi(&self, rssi: Rssi) -> f64 {
        let exp = (self.tx_power_dbm - self.pl0_db - rssi) / (10.0 * self.exponent);
        10f64.powf(exp)
    }
}

/// A memoized RSSI → distance table on a quantized dBm grid.
///
/// [`ChannelParams::distance_for_rssi`] costs a `powf` per call; the
/// localization hot path ranges every advertisement of every smoothed scan.
/// The table precomputes the inversion on a 1/128 dB grid spanning the
/// receivable range, reducing each ranging to a rounding and a slice load.
/// Quantization error is bounded by half a grid step (≤ 1/256 dB ≈ 0.009 %
/// of distance) — far below the channel's multi-dB shadowing. RSSI outside
/// the grid (never produced by a receiver honoring `sensitivity_dbm`) falls
/// back to the exact inversion.
#[derive(Debug, Clone, PartialEq)]
pub struct RangingTable {
    params: ChannelParams,
    /// Grid origin (dBm) — comfortably below receiver sensitivity.
    min_dbm: f64,
    /// Inverse grid step (steps per dB); a power of two so the grid values
    /// are exact in binary floating point.
    inv_step: f64,
    /// Precomputed `distance_for_rssi` at each grid point.
    distances: Vec<f64>,
}

impl RangingTable {
    /// Grid resolution: 1/128 dB.
    const INV_STEP: f64 = 128.0;

    /// Precomputes the table for a channel.
    #[must_use]
    pub fn new(params: &ChannelParams) -> Self {
        let min_dbm = (params.sensitivity_dbm - 25.0).floor();
        let max_dbm = (params.tx_power_dbm + 15.0).ceil();
        let n = ((max_dbm - min_dbm) * Self::INV_STEP) as usize + 1;
        let distances = (0..n)
            .map(|i| params.distance_for_rssi(min_dbm + i as f64 / Self::INV_STEP))
            .collect();
        RangingTable {
            params: *params,
            min_dbm,
            inv_step: Self::INV_STEP,
            distances,
        }
    }

    /// Estimated distance for an RSSI: table lookup at the nearest grid
    /// point, exact inversion outside the grid.
    #[must_use]
    pub fn distance(&self, rssi: Rssi) -> f64 {
        self.range_slot((rssi - self.min_dbm) * self.inv_step, rssi)
    }

    /// The lookup tail shared by [`RangingTable::distance`] and the
    /// lane-batched [`RangingTable::distances_in_place`].
    fn range_slot(&self, slot: f64, rssi: Rssi) -> f64 {
        // `as usize` saturates negatives to 0; reject those explicitly.
        if slot >= 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let i = (slot + 0.5) as usize;
            if let Some(&d) = self.distances.get(i) {
                return d;
            }
        }
        self.params.distance_for_rssi(rssi)
    }

    /// Ranges a whole RSSI column in place: `rssi[i]` becomes
    /// [`RangingTable::distance`]`(rssi[i])`.
    ///
    /// The slot arithmetic runs over fixed `[f64; LANES]` chunks so it
    /// vectorizes; the table load stays a per-lane gather. Per element the
    /// operations are exactly [`RangingTable::distance`]'s, so the result is
    /// bit-identical to ranging one value at a time.
    pub fn distances_in_place(&self, rssi: &mut [f64]) {
        use ares_simkit::lanes::{as_lanes_mut, splat, LANES};
        let (chunks, tail) = as_lanes_mut(rssi);
        for chunk in chunks {
            let mut slot = splat(0.0);
            for l in 0..LANES {
                slot[l] = (chunk[l] - self.min_dbm) * self.inv_step;
            }
            for l in 0..LANES {
                chunk[l] = self.range_slot(slot[l], chunk[l]);
            }
        }
        for r in tail {
            *r = self.distance(*r);
        }
    }
}

/// The wireless channel: floor plan + per-technology parameters.
///
/// The shadowing sampler is prebuilt from the parameters at construction so
/// the per-packet hot path never re-validates the distribution; it is derived
/// state, excluded from serialization and rebuilt on deserialize.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    params: ChannelParams,
    shadowing: Normal,
}

impl Serialize for Channel {
    fn to_value(&self) -> Value {
        // Only `params` is persisted; `shadowing` is derived from it.
        Value::Map(vec![(String::from("params"), self.params.to_value())])
    }
}

impl Deserialize for Channel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Map(fields) => {
                let params = fields
                    .iter()
                    .find(|(k, _)| k == "params")
                    .ok_or_else(|| DeError(String::from("Channel: missing field params")))?;
                Ok(Channel::new(ChannelParams::from_value(&params.1)?))
            }
            _ => Err(DeError(String::from("Channel: expected map"))),
        }
    }
}

/// Result of attempting one packet reception.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Reception {
    /// Packet received with the given RSSI.
    Received(Rssi),
    /// Packet lost (below sensitivity, or random loss).
    Lost,
}

impl Reception {
    /// The RSSI if received.
    #[must_use]
    pub fn rssi(self) -> Option<Rssi> {
        match self {
            Reception::Received(r) => Some(r),
            Reception::Lost => None,
        }
    }
}

impl Channel {
    /// Creates a channel with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the shadowing sigma is negative or non-finite.
    #[must_use]
    pub fn new(params: ChannelParams) -> Self {
        let shadowing =
            Normal::new(0.0, params.shadowing_sigma_db).expect("finite non-negative sigma");
        Channel { params, shadowing }
    }

    /// The channel parameters.
    #[must_use]
    pub fn params(&self) -> &ChannelParams {
        &self.params
    }

    /// Samples one packet transmission from `tx` to `rx` through the plan.
    pub fn transmit(
        &self,
        plan: &FloorPlan,
        tx: Point2,
        rx: Point2,
        rng: &mut impl Rng,
    ) -> Reception {
        let walls = plan.walls_crossed(tx, rx);
        let mean = self.params.mean_rssi(tx.distance(rx), walls);
        let rssi = mean + self.shadowing.sample(rng);
        if rssi < self.params.sensitivity_dbm {
            return Reception::Lost;
        }
        if rng.gen::<f64>() < self.params.base_loss {
            return Reception::Lost;
        }
        Reception::Received(rssi)
    }

    /// Samples one packet with a pre-computed wall-crossing count — the fast
    /// path for callers that already know the geometry (e.g. same-room links
    /// in convex rooms always cross zero walls).
    pub fn transmit_known_walls(
        &self,
        distance_m: f64,
        walls: usize,
        rng: &mut impl Rng,
    ) -> Reception {
        self.transmit_precomputed_mean(self.params.mean_rssi(distance_m, walls), rng)
    }

    /// Samples one packet whose deterministic mean RSSI is already known —
    /// the recording kernel memoises the mean per dwell point or link and
    /// only pays for the draws here. Draw order and early-outs
    /// are exactly [`Channel::transmit_known_walls`]'s (which delegates to
    /// this method), so a hoisted mean consumes the identical RNG stream.
    pub fn transmit_precomputed_mean(&self, mean: Rssi, rng: &mut impl Rng) -> Reception {
        // Skip the shadowing draw when even the most optimistic realization
        // cannot reach sensitivity (deep behind metal walls).
        if mean + 6.0 * self.params.shadowing_sigma_db < self.params.sensitivity_dbm {
            return Reception::Lost;
        }
        let rssi = mean + self.shadowing.sample(rng);
        if rssi < self.params.sensitivity_dbm || rng.gen::<f64>() < self.params.base_loss {
            return Reception::Lost;
        }
        Reception::Received(rssi)
    }

    /// Probability-free helper: the mean RSSI between two points through the
    /// plan (useful for tests and calibration).
    #[must_use]
    pub fn mean_rssi_between(&self, plan: &FloorPlan, tx: Point2, rx: Point2) -> Rssi {
        self.params
            .mean_rssi(tx.distance(rx), plan.walls_crossed(tx, rx))
    }
}

/// Parameters of the infrared face-to-face transceiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InfraredParams {
    /// Maximum detection range (m).
    pub range_m: f64,
    /// Half-angle of the emission/reception cone (radians).
    pub half_angle_rad: f64,
    /// Probability a geometrically valid exchange is actually detected.
    pub detection_prob: f64,
}

impl Default for InfraredParams {
    fn default() -> Self {
        InfraredParams {
            range_m: 2.0,
            half_angle_rad: 25f64.to_radians(),
            detection_prob: 0.85,
        }
    }
}

impl InfraredParams {
    /// Whether two badges at `(pos, facing)` can exchange IR packets: within
    /// range, inside each other's cone, and with no wall in between.
    ///
    /// "The infrared transceiver, with a well-defined directional
    /// communication cone, enables assessing whether two badges are truly
    /// close and face each other."
    #[must_use]
    pub fn mutually_visible(
        &self,
        plan: &FloorPlan,
        a_pos: Point2,
        a_facing: Vec2,
        b_pos: Point2,
        b_facing: Vec2,
    ) -> bool {
        let d = a_pos.distance(b_pos);
        if d > self.range_m || d < 1e-9 {
            return false;
        }
        self.mutually_visible_known_walls(
            plan.walls_crossed(a_pos, b_pos),
            a_pos,
            a_facing,
            b_pos,
            b_facing,
        )
    }

    /// [`InfraredParams::mutually_visible`] with the wall-crossing count
    /// already known — e.g. zero for two badges in the same convex room.
    #[must_use]
    pub fn mutually_visible_known_walls(
        &self,
        walls: usize,
        a_pos: Point2,
        a_facing: Vec2,
        b_pos: Point2,
        b_facing: Vec2,
    ) -> bool {
        let d = a_pos.distance(b_pos);
        if d > self.range_m || d < 1e-9 {
            return false;
        }
        if walls > 0 {
            return false;
        }
        let ab = (b_pos - a_pos).normalized();
        let cos_half = self.half_angle_rad.cos();
        a_facing.normalized().dot(ab) >= cos_half && b_facing.normalized().dot(-ab) >= cos_half
    }

    /// Samples a detection attempt (geometry test plus detection probability).
    pub fn detect(
        &self,
        plan: &FloorPlan,
        a_pos: Point2,
        a_facing: Vec2,
        b_pos: Point2,
        b_facing: Vec2,
        rng: &mut impl Rng,
    ) -> bool {
        self.mutually_visible(plan, a_pos, a_facing, b_pos, b_facing)
            && rng.gen::<f64>() < self.detection_prob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rooms::RoomId;
    use ares_simkit::rng::SeedTree;

    fn setup() -> (FloorPlan, Channel) {
        (FloorPlan::lunares(), Channel::new(ChannelParams::ble()))
    }

    #[test]
    fn rssi_decreases_with_distance() {
        let p = ChannelParams::ble();
        assert!(p.mean_rssi(1.0, 0) > p.mean_rssi(3.0, 0));
        assert!(p.mean_rssi(3.0, 0) > p.mean_rssi(6.0, 0));
    }

    #[test]
    fn ranging_inverts_path_loss() {
        let p = ChannelParams::ble();
        for d in [0.5, 1.0, 2.0, 4.0, 7.5] {
            let rssi = p.mean_rssi(d, 0);
            assert!((p.distance_for_rssi(rssi) - d).abs() < 1e-9, "at {d} m");
        }
    }

    #[test]
    fn ranging_table_matches_exact_inversion() {
        let p = ChannelParams::ble();
        let table = RangingTable::new(&p);
        // Inside the grid: table error is bounded by half a grid step of
        // RSSI, i.e. a relative distance error below 1/256 dB of path loss.
        let tol = 10f64.powf(1.0 / (256.0 * 10.0 * p.exponent)) - 1.0;
        let mut dbm = p.sensitivity_dbm - 20.0;
        while dbm < p.tx_power_dbm + 10.0 {
            let exact = p.distance_for_rssi(dbm);
            let got = table.distance(dbm);
            assert!(
                (got - exact).abs() <= exact * tol + 1e-12,
                "at {dbm} dBm: table {got} vs exact {exact}"
            );
            dbm += 0.173; // off-grid sampling
        }
        // Outside the grid: exact fallback, bit-for-bit.
        for dbm in [-200.0, 60.0, 100.0] {
            assert_eq!(table.distance(dbm), p.distance_for_rssi(dbm));
        }
        // On-grid RSSI values are looked up exactly.
        assert_eq!(table.distance(-60.0), p.distance_for_rssi(-60.0));
    }

    #[test]
    fn same_room_always_strong() {
        let p = ChannelParams::ble();
        // Farthest same-room distance in a 4x4 module is the diagonal 5.66 m.
        let worst = p.mean_rssi(5.66, 0);
        assert!(
            worst > p.sensitivity_dbm + 20.0,
            "same-room link must have ≥20 dB margin, got {worst}"
        );
    }

    #[test]
    fn cross_room_through_wall_is_dead() {
        let (plan, ch) = setup();
        let office = plan.room_center(RoomId::Office);
        let storage = plan.room_center(RoomId::Storage);
        let rssi = ch.mean_rssi_between(&plan, office, storage);
        assert!(
            rssi < ch.params().sensitivity_dbm - 10.0,
            "metal walls must shield: {rssi} dBm"
        );
        let _ = plan;
    }

    #[test]
    fn door_leakage_is_possible() {
        let (plan, ch) = setup();
        // Straight through the office doorway into the main hall: no walls.
        let door = plan.door_between(RoomId::Office, RoomId::Main).unwrap();
        let inside = Point2::new(door.center.x, 0.4);
        let outside = Point2::new(door.center.x, -0.4);
        let rssi = ch.mean_rssi_between(&plan, inside, outside);
        assert!(
            rssi > ch.params().sensitivity_dbm,
            "doorway leak blocked: {rssi}"
        );
    }

    #[test]
    fn transmit_statistics_match_model() {
        let (plan, ch) = setup();
        let mut rng = SeedTree::new(1).stream("rf-test");
        let tx = plan.room_center(RoomId::Kitchen);
        let rx = tx + Vec2::new(1.5, 0.8);
        let mut received = 0;
        let mut sum = 0.0;
        let n = 2000;
        for _ in 0..n {
            if let Reception::Received(r) = ch.transmit(&plan, tx, rx, &mut rng) {
                received += 1;
                sum += r;
            }
        }
        let frac = received as f64 / n as f64;
        assert!(
            frac > 0.90,
            "in-room reception should be reliable, got {frac}"
        );
        let mean = sum / received as f64;
        let expect = ch.mean_rssi_between(&plan, tx, rx);
        assert!((mean - expect).abs() < 0.5, "mean {mean} vs model {expect}");
    }

    #[test]
    fn infrared_requires_mutual_facing() {
        let plan = FloorPlan::lunares();
        let ir = InfraredParams::default();
        let a = plan.room_center(RoomId::Kitchen);
        let b = a + Vec2::new(1.0, 0.0);
        let east = Vec2::new(1.0, 0.0);
        let west = Vec2::new(-1.0, 0.0);
        // Face to face: visible.
        assert!(ir.mutually_visible(&plan, a, east, b, west));
        // Back to back: not.
        assert!(!ir.mutually_visible(&plan, a, west, b, east));
        // One looking away: not.
        assert!(!ir.mutually_visible(&plan, a, east, b, east));
    }

    #[test]
    fn infrared_blocked_by_range_and_walls() {
        let plan = FloorPlan::lunares();
        let ir = InfraredParams::default();
        let east = Vec2::new(1.0, 0.0);
        let west = Vec2::new(-1.0, 0.0);
        let a = plan.room_center(RoomId::Kitchen);
        // Too far.
        let far = a + Vec2::new(3.0, 0.0);
        assert!(!ir.mutually_visible(&plan, a, east, far, west));
        // Wall between rooms.
        let office = plan.room_center(RoomId::Office);
        let storage = plan.room_center(RoomId::Storage);
        assert!(!ir.mutually_visible(&plan, office, east, storage, west));
    }
}
