//! Indoor localization from beacon scans.
//!
//! Two levels, as in the paper:
//!
//! * **Room classification** — "the room the badge located in was detected
//!   perfectly" because the metal walls shield foreign beacons; we classify
//!   by the strongest (and majority) received beacon's room.
//! * **In-room position** — RSSI ranging against the room's beacons followed
//!   by weighted-centroid initialization and Gauss–Newton refinement, giving
//!   the "dominant position of an astronaut within a 1 s-frame" that feeds
//!   the 28 cm × 28 cm heatmaps of Fig. 3.

use crate::sync::SyncCorrection;
use ares_badge::records::BeaconScan;
use ares_badge::telemetry::{ScanColumn, ScanView};
use ares_habitat::beacons::{BeaconDeployment, BeaconId, BeaconIndex};
use ares_habitat::rf::{ChannelParams, RangingTable};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::{Grid, Point2, Polygon};
use ares_simkit::lanes;
use ares_simkit::series::Series;
use ares_simkit::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Localization parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalizationParams {
    /// Calibrated channel model used for RSSI → distance ranging.
    pub channel: ChannelParams,
    /// Gauss–Newton iterations for in-room refinement.
    pub gn_iterations: usize,
    /// Minimum hits to attempt a position fix (room detection needs one).
    pub min_hits_for_fix: usize,
    /// Rolling window of same-room scans whose RSSI is averaged per beacon
    /// before ranging — log-normal shadowing shrinks by √window.
    pub smoothing_window: usize,
}

impl Default for LocalizationParams {
    fn default() -> Self {
        LocalizationParams {
            channel: ChannelParams::ble(),
            gn_iterations: 6,
            min_hits_for_fix: 2,
            smoothing_window: 5,
        }
    }
}

/// Averages the RSSI of several scans per beacon (the smoothing step applied
/// before ranging). The merged scan carries the latest timestamp.
#[must_use]
pub fn merge_scans(scans: &[&BeaconScan]) -> BeaconScan {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<ares_habitat::beacons::BeaconId, (f64, usize)> = BTreeMap::new();
    let mut t_local = SimTime::EPOCH;
    for s in scans {
        t_local = t_local.max(s.t_local);
        for &(id, rssi) in &s.hits {
            let e = acc.entry(id).or_insert((0.0, 0));
            e.0 += rssi;
            e.1 += 1;
        }
    }
    BeaconScan {
        t_local,
        hits: acc
            .into_iter()
            .map(|(id, (sum, n))| (id, sum / n as f64))
            .collect(),
    }
}

/// One localization fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fix {
    /// Detected room.
    pub room: RoomId,
    /// Estimated in-room position (room centre when hits are too few).
    pub position: Point2,
    /// Number of advertisements used.
    pub hits: usize,
}

/// The localized track of one badge: a fix per scan, on reference time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PositionTrack {
    /// Fixes in time order.
    pub fixes: Series<Fix>,
}

impl PositionTrack {
    /// The fix at or before `t`.
    #[must_use]
    pub fn at(&self, t: SimTime) -> Option<&Fix> {
        self.fixes.at(t).map(|s| &s.value)
    }

    /// The detected room at `t`.
    #[must_use]
    pub fn room_at(&self, t: SimTime) -> Option<RoomId> {
        self.at(t).map(|f| f.room)
    }
}

/// Classifies the room of one scan: the room owning the *strongest* received
/// beacon, confirmed by majority vote among all hits (doorway leakage can
/// sneak one foreign advertisement in, but never a majority *and* maximum).
#[must_use]
pub fn classify_room(scan: &BeaconScan, beacons: &BeaconDeployment) -> Option<RoomId> {
    let strongest = scan
        .hits
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite RSSI"))?;
    let room = beacons.get(strongest.0)?.room;
    Some(room)
}

/// [`classify_room`] over raw advertisement hits, resolving beacons through
/// the dense [`BeaconIndex`] — the form used by the localization hot path
/// and the streaming analyzer.
#[must_use]
pub fn classify_room_hits(hits: &[(BeaconId, f64)], index: &BeaconIndex) -> Option<RoomId> {
    let strongest = hits
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite RSSI"))?;
    Some(index.get(strongest.0)?.room)
}

/// Estimates the in-room position from one scan's hits.
///
/// Ranging inverts the calibrated path-loss model; the initial guess is the
/// distance-weighted centroid of the room's heard beacons, refined by
/// Gauss–Newton on the range residuals and clamped into the room polygon.
#[must_use]
pub fn estimate_position(
    scan: &BeaconScan,
    room: RoomId,
    beacons: &BeaconDeployment,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
) -> Point2 {
    let poly = plan.room_polygon(room);
    let anchors: Vec<(Point2, f64)> = scan
        .hits
        .iter()
        .filter_map(|&(id, rssi)| {
            let b = beacons.get(id)?;
            (b.room == room).then(|| (b.position, params.channel.distance_for_rssi(rssi)))
        })
        .collect();
    solve_position(&anchors, poly, params)
}

/// Solves a position from ranged in-room anchors: weighted-centroid
/// initialization refined by regularized Gauss–Newton, clamped into the room
/// polygon. Falls back to the first anchor (or the room centre) when hits
/// are too few for a fix. Shared by the exact [`estimate_position`] and the
/// table-ranged hot path inside [`localize`].
fn solve_position(
    anchors: &[(Point2, f64)],
    poly: &Polygon,
    params: &LocalizationParams,
) -> Point2 {
    if anchors.len() < params.min_hits_for_fix {
        return match anchors.first() {
            Some(&(p, _)) => poly.clamp_inside(p),
            None => poly.centroid(),
        };
    }
    // Weighted centroid: closer (smaller estimated distance) pulls harder.
    let mut wx = 0.0;
    let mut wy = 0.0;
    let mut wsum = 0.0;
    for &(p, d) in anchors {
        let w = 1.0 / d.max(0.3);
        wx += p.x * w;
        wy += p.y * w;
        wsum += w;
    }
    let init = Point2::new(wx / wsum, wy / wsum);
    let mut est = init;
    // Regularized Gauss–Newton on f_i(p) = |p − a_i| − d_i, with a Tikhonov
    // pull toward the centroid initialization: with only three anchors and
    // log-normal range noise, the unregularized solution amplifies noise
    // (measured in the `ablation_localization` bench), so we shrink toward
    // the low-variance initial guess.
    let lambda = 0.8;
    for _ in 0..params.gn_iterations {
        let mut jt_j = [[lambda, 0.0], [0.0, lambda]];
        let mut jt_r = [lambda * (est.x - init.x), lambda * (est.y - init.y)];
        for &(a, d) in anchors {
            let diff = est - a;
            // Plain sqrt, not hypot: anchor offsets are room-scale meters, so
            // the overflow guard hypot pays for is wasted in this inner loop.
            let dist = (diff.x * diff.x + diff.y * diff.y).sqrt().max(1e-6);
            let r = dist - d;
            let j = [diff.x / dist, diff.y / dist];
            jt_j[0][0] += j[0] * j[0];
            jt_j[0][1] += j[0] * j[1];
            jt_j[1][0] += j[1] * j[0];
            jt_j[1][1] += j[1] * j[1];
            jt_r[0] += j[0] * r;
            jt_r[1] += j[1] * r;
        }
        let det = jt_j[0][0] * jt_j[1][1] - jt_j[0][1] * jt_j[1][0];
        if det.abs() < 1e-9 {
            break;
        }
        let dx = (jt_j[1][1] * jt_r[0] - jt_j[0][1] * jt_r[1]) / det;
        let dy = (-jt_j[1][0] * jt_r[0] + jt_j[0][0] * jt_r[1]) / det;
        est = Point2::new(est.x - dx, est.y - dy);
        if dx * dx + dy * dy < 1e-6 {
            break;
        }
    }
    poly.clamp_inside(est)
}

/// The rolling same-room scan window — the smoothing stage kernel shared by
/// the batch localizer and the streaming analyzer.
///
/// Recent scans classified to the same room are retained (a room change
/// flushes the window) and their RSSI is averaged per beacon before ranging,
/// shrinking log-normal shadowing by √window.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScanSmoother {
    /// Local timestamps of the retained scans, in arrival order.
    ts: VecDeque<SimTime>,
    /// Advertisement count of each retained scan (delimits `hits`).
    counts: VecDeque<u32>,
    /// The retained scans' hits, flattened scan-by-scan (columnar: no
    /// per-scan `Vec` clone on push).
    hits: VecDeque<(BeaconId, f64)>,
    room: Option<RoomId>,
}

impl ScanSmoother {
    /// An empty smoother.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one scan: classifies its room, flushes the window on a room
    /// change, caps it at the smoothing depth, and returns the room —
    /// `None` when the scan heard no classifiable beacon (the scan is then
    /// ignored, exactly as in the batch path).
    pub fn push(
        &mut self,
        t_local: SimTime,
        hits: &[(BeaconId, f64)],
        index: &BeaconIndex,
        params: &LocalizationParams,
    ) -> Option<RoomId> {
        let room = classify_room_hits(hits, index)?;
        if self.room.is_some_and(|r| r != room) {
            self.ts.clear();
            self.counts.clear();
            self.hits.clear();
        }
        self.room = Some(room);
        self.ts.push_back(t_local);
        #[allow(clippy::cast_possible_truncation)]
        self.counts.push_back(hits.len() as u32);
        self.hits.extend(hits.iter().copied());
        while self.ts.len() > params.smoothing_window.max(1) {
            self.ts.pop_front();
            let n = self.counts.pop_front().unwrap_or(0);
            self.hits.drain(..n as usize);
        }
        Some(room)
    }

    /// Merges the window's RSSI per beacon into `out` (sorted by id),
    /// reusing `scratch` — the allocation-free form of [`merge_scans`]
    /// used by the localization hot path.
    pub fn merge_into(&self, scratch: &mut MergeScratch, out: &mut Vec<(BeaconId, f64)>) {
        out.clear();
        self.for_each_merged_sum(scratch, |id, sum, count| {
            out.push((id, sum / f64::from(count)));
        });
    }

    /// Accumulates the window's per-beacon RSSI sums (scan-arrival order,
    /// exactly as [`ScanSmoother::merge_into`]) and yields
    /// `(id, sum, count)` per touched beacon in ascending id order.
    ///
    /// The batched localizer consumes this form directly: deferring the
    /// `sum / count` division lets it run lane-wide over a whole block of
    /// scans, while `merge_into` divides inline — the same two operands in
    /// the same operation either way, so both paths produce bit-identical
    /// averaged RSSI.
    pub(crate) fn for_each_merged_sum(
        &self,
        scratch: &mut MergeScratch,
        mut f: impl FnMut(BeaconId, f64, u32),
    ) {
        for &(id, rssi) in &self.hits {
            let i = id.0 as usize;
            if i >= scratch.sums.len() {
                scratch.sums.resize(i + 1, 0.0);
                scratch.counts.resize(i + 1, 0);
            }
            if scratch.counts[i] == 0 {
                scratch.touched.push(id.0);
            }
            scratch.sums[i] += rssi;
            scratch.counts[i] += 1;
        }
        scratch.touched.sort_unstable();
        for &raw in &scratch.touched {
            let i = raw as usize;
            f(BeaconId(raw), scratch.sums[i], scratch.counts[i]);
            scratch.sums[i] = 0.0;
            scratch.counts[i] = 0;
        }
        scratch.touched.clear();
    }

    /// The RSSI-averaged merge of the current window (compatibility form;
    /// the hot path uses [`ScanSmoother::merge_into`]).
    #[must_use]
    pub fn merged(&self) -> BeaconScan {
        let mut scratch = MergeScratch::default();
        let mut hits = Vec::new();
        self.merge_into(&mut scratch, &mut hits);
        BeaconScan {
            t_local: self.latest_t().unwrap_or(SimTime::EPOCH),
            hits,
        }
    }

    /// The newest local timestamp in the window, if any.
    #[must_use]
    pub fn latest_t(&self) -> Option<SimTime> {
        self.ts.iter().copied().max()
    }

    /// The room of the most recent classified scan.
    #[must_use]
    pub fn room(&self) -> Option<RoomId> {
        self.room
    }

    /// Scans currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// Reusable per-beacon accumulator for [`ScanSmoother::merge_into`] —
/// replaces the per-scan `BTreeMap` allocation of [`merge_scans`] with flat
/// arrays indexed by beacon id. Accumulation order (scan arrival) and output
/// order (ascending id) match `merge_scans` bit for bit.
#[derive(Debug, Clone, Default)]
pub struct MergeScratch {
    sums: Vec<f64>,
    counts: Vec<u32>,
    touched: Vec<u8>,
}

/// The shared localization loop: smoothing window → per-beacon RSSI merge →
/// table ranging → position solve, with reusable scratch buffers so the
/// steady state allocates nothing per scan. [`localize_scans_scalar`] drives
/// it one scan at a time as the reference the batched [`localize_scans`]
/// is tested against.
fn localize_inner<'h>(
    scans: impl Iterator<Item = (SimTime, &'h [(BeaconId, f64)])>,
    corr: &SyncCorrection,
    index: &BeaconIndex,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
) -> PositionTrack {
    let ranging = RangingTable::new(&params.channel);
    let mut track = PositionTrack::default();
    let mut last_t = None;
    let mut smoother = ScanSmoother::new();
    let mut scratch = MergeScratch::default();
    let mut merged: Vec<(BeaconId, f64)> = Vec::new();
    let mut anchors: Vec<(Point2, f64)> = Vec::new();
    for (t_local, hits) in scans {
        let Some(room) = smoother.push(t_local, hits, index, params) else {
            continue;
        };
        smoother.merge_into(&mut scratch, &mut merged);
        let poly = plan.room_polygon(room);
        anchors.clear();
        for &(id, rssi) in &merged {
            if let Some(b) = index.get(id) {
                if b.room == room {
                    anchors.push((b.position, ranging.distance(rssi)));
                }
            }
        }
        let position = solve_position(&anchors, poly, params);
        let t = corr.to_reference(t_local);
        // Guard against pathological correction foldbacks.
        if last_t.is_some_and(|lt| t < lt) {
            continue;
        }
        last_t = Some(t);
        track.fixes.push(
            t,
            Fix {
                room,
                position,
                hits: hits.len(),
            },
        );
    }
    track
}

/// The scalar reference form of [`localize_scans`], one scan at a time. Kept
/// as the bit-identity oracle the batched kernel is tested against.
#[must_use]
pub fn localize_scans_scalar(
    scans: ScanView<'_>,
    corr: &SyncCorrection,
    index: &BeaconIndex,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
) -> PositionTrack {
    localize_inner(scans.iter(), corr, index, plan, params)
}

/// Scans buffered per batched solve block. Large enough to amortize the
/// lane-transpose setup, small enough that the block's SoA buffers stay in
/// L2.
const BLOCK_SCANS: usize = 1024;

/// One smoothed scan awaiting the batched position solve: its anchors sit in
/// the block's flat SoA buffers at `astart..astart + alen`.
#[derive(Debug, Clone, Copy)]
struct PendingFix {
    t_local: SimTime,
    room: RoomId,
    hits: u32,
    astart: u32,
    alen: u32,
}

/// Reusable SoA buffers of the batched localizer. One per kernel invocation;
/// every `Vec` is recycled across blocks, so the steady state allocates
/// nothing per scan.
#[derive(Debug)]
struct BatchScratch {
    /// Per-beacon RSSI accumulator, indexed by raw id — fixed arrays sized
    /// to the `u8` id universe, so the scatter loop needs no bounds or
    /// resize checks.
    sums: [f64; 256],
    counts: [u32; 256],
    touched: Vec<u8>,
    /// Scans buffered for the current block, in arrival order.
    pend: Vec<PendingFix>,
    /// In-room anchor coordinates, flattened scan-by-scan.
    ax: Vec<f64>,
    ay: Vec<f64>,
    /// Per-anchor RSSI sums (phase A), averaged RSSI then ranged distance
    /// in place (phase B).
    ad: Vec<f64>,
    /// Per-anchor window hit counts, pre-converted to f64 for the lane-wide
    /// `sum / count` division.
    an: Vec<f64>,
    /// Solved (already clamped) position per pending scan.
    pos: Vec<Point2>,
    /// Pending scans bucketed by anchor count: `by_len[n]` holds indexes
    /// into `pend` whose scans have exactly `n` anchors.
    by_len: Vec<Vec<u32>>,
    /// Lane-transposed anchors of one solve group: row `a` holds anchor `a`
    /// of up to [`lanes::LANES`] scans.
    lx: Vec<[f64; lanes::LANES]>,
    ly: Vec<[f64; lanes::LANES]>,
    ld: Vec<[f64; lanes::LANES]>,
    /// The block's local timestamps, in arrival order.
    tloc: Vec<SimTime>,
}

impl Default for BatchScratch {
    fn default() -> Self {
        BatchScratch {
            sums: [0.0; 256],
            counts: [0; 256],
            touched: Vec::new(),
            pend: Vec::new(),
            ax: Vec::new(),
            ay: Vec::new(),
            ad: Vec::new(),
            an: Vec::new(),
            pos: Vec::new(),
            by_len: Vec::new(),
            lx: Vec::new(),
            ly: Vec::new(),
            ld: Vec::new(),
            tloc: Vec::new(),
        }
    }
}

impl BatchScratch {
    /// Solves every buffered scan and hands the block's rows to `rows`, then
    /// resets the block.
    ///
    /// Phase B of the batched solve: lane-wide RSSI averaging and ranging,
    /// anchor-count bucketing, lane-transposed weighted-centroid +
    /// Gauss–Newton solves, then the rows in arrival order — each step
    /// performing, per scan, exactly the operations of the scalar loop.
    #[allow(clippy::cast_possible_truncation)]
    fn flush(
        &mut self,
        ranging: &RangingTable,
        plan: &ares_habitat::floorplan::FloorPlan,
        params: &LocalizationParams,
        rows: &mut impl FnMut(SolvedBlock<'_>),
    ) {
        use lanes::{as_lanes, as_lanes_mut, LANES};
        if self.pend.is_empty() {
            return;
        }
        // Averaged RSSI: the merge's deferred `sum / count`, lane-wide, then
        // table ranging in place. Same two operations per anchor as the
        // scalar `merge_into` + `ranging.distance`.
        {
            let len = self.ad.len();
            let tail_start = len - len % LANES;
            let (dc, _) = as_lanes_mut(&mut self.ad);
            let (nc, _) = as_lanes(&self.an);
            for (d, n) in dc.iter_mut().zip(nc) {
                for l in 0..LANES {
                    d[l] /= n[l];
                }
            }
            for i in tail_start..len {
                self.ad[i] /= self.an[i];
            }
        }
        ranging.distances_in_place(&mut self.ad);
        // Bucket scans by anchor count so each solve group shares one lane
        // geometry — no masks, no padding columns.
        for b in &mut self.by_len {
            b.clear();
        }
        for (i, p) in self.pend.iter().enumerate() {
            let n = p.alen as usize;
            if n >= self.by_len.len() {
                self.by_len.resize_with(n + 1, Vec::new);
            }
            self.by_len[n].push(i as u32);
        }

        self.pos.clear();
        self.pos.resize(self.pend.len(), Point2::new(0.0, 0.0));
        for n in 0..self.by_len.len() {
            if self.by_len[n].is_empty() {
                continue;
            }
            if n < params.min_hits_for_fix {
                // Too few anchors for a solve: first anchor clamped inside,
                // or the room centre — the scalar fallback verbatim.
                for gi in 0..self.by_len[n].len() {
                    let i = self.by_len[n][gi] as usize;
                    let p = self.pend[i];
                    let poly = plan.room_polygon(p.room);
                    self.pos[i] = if p.alen == 0 {
                        poly.centroid()
                    } else {
                        poly.clamp_inside(Point2::new(
                            self.ax[p.astart as usize],
                            self.ay[p.astart as usize],
                        ))
                    };
                }
                continue;
            }
            self.lx.clear();
            self.lx.resize(n, [0.0; LANES]);
            self.ly.clear();
            self.ly.resize(n, [0.0; LANES]);
            self.ld.clear();
            self.ld.resize(n, [0.0; LANES]);
            let mut g = 0;
            while g < self.by_len[n].len() {
                let glen = LANES.min(self.by_len[n].len() - g);
                // Transpose the group's anchors into lane rows; tail groups
                // pad by repeating the last scan (its duplicate lanes are
                // solved and discarded).
                for l in 0..LANES {
                    let i = self.by_len[n][g + l.min(glen - 1)] as usize;
                    let s = self.pend[i].astart as usize;
                    for a in 0..n {
                        self.lx[a][l] = self.ax[s + a];
                        self.ly[a][l] = self.ay[s + a];
                        self.ld[a][l] = self.ad[s + a];
                    }
                }
                let (ex, ey) = solve_lanes(&self.lx, &self.ly, &self.ld, params.gn_iterations);
                for l in 0..glen {
                    let i = self.by_len[n][g + l] as usize;
                    let room = self.pend[i].room;
                    self.pos[i] = plan
                        .room_polygon(room)
                        .clamp_inside(Point2::new(ex[l], ey[l]));
                }
                g += glen;
            }
        }

        self.tloc.clear();
        self.tloc.extend(self.pend.iter().map(|p| p.t_local));
        rows(SolvedBlock {
            t_local: &self.tloc,
            pend: &self.pend,
            pos: &self.pos,
        });
        self.pend.clear();
        self.ax.clear();
        self.ay.clear();
        self.ad.clear();
        self.an.clear();
    }
}

/// One solved block, in arrival order: each scan's local time, its pending
/// record and its solved position. The rows are read straight from the
/// block's buffers, so the engine path emits them without copying.
struct SolvedBlock<'a> {
    t_local: &'a [SimTime],
    pend: &'a [PendingFix],
    pos: &'a [Point2],
}

impl SolvedBlock<'_> {
    fn fixes(&self) -> impl Iterator<Item = Fix> + '_ {
        self.pend.iter().zip(self.pos).map(|(p, &position)| Fix {
            room: p.room,
            position,
            hits: p.hits as usize,
        })
    }
}

/// Lane-batched weighted-centroid initialization + regularized Gauss–Newton:
/// [`lanes::LANES`] scans solved at once, every scan in the group sharing the
/// same anchor count `n` (= row count of the transposed inputs).
///
/// Per lane this performs exactly the operations of [`solve_position`]'s
/// solve path, in the same order — including the per-scan early exits, which
/// become per-lane `conv` flags (a converged lane's estimate is frozen while
/// the group finishes). The lane loops carry no cross-lane operations, so
/// autovectorization cannot reassociate anything: outputs are bit-identical
/// to the scalar solver.
fn solve_lanes(
    ax: &[[f64; lanes::LANES]],
    ay: &[[f64; lanes::LANES]],
    ad: &[[f64; lanes::LANES]],
    gn_iterations: usize,
) -> ([f64; lanes::LANES], [f64; lanes::LANES]) {
    use lanes::{splat, LANES};
    let mut wx = splat(0.0);
    let mut wy = splat(0.0);
    let mut wsum = splat(0.0);
    for a in 0..ax.len() {
        for l in 0..LANES {
            let w = 1.0 / ad[a][l].max(0.3);
            wx[l] += ax[a][l] * w;
            wy[l] += ay[a][l] * w;
            wsum[l] += w;
        }
    }
    let mut ix = splat(0.0);
    let mut iy = splat(0.0);
    for l in 0..LANES {
        ix[l] = wx[l] / wsum[l];
        iy[l] = wy[l] / wsum[l];
    }
    let mut ex = ix;
    let mut ey = iy;
    let mut conv = [false; LANES];
    let lambda = 0.8;
    for _ in 0..gn_iterations {
        if conv == [true; LANES] {
            break;
        }
        // J^T J is symmetric; the scalar solver's [0][1] and [1][0] entries
        // accumulate the same products, so one lane register serves both.
        let mut a00 = splat(lambda);
        let mut a01 = splat(0.0);
        let mut a11 = splat(lambda);
        let mut r0 = splat(0.0);
        let mut r1 = splat(0.0);
        for l in 0..LANES {
            r0[l] = lambda * (ex[l] - ix[l]);
            r1[l] = lambda * (ey[l] - iy[l]);
        }
        for a in 0..ax.len() {
            for l in 0..LANES {
                let dx = ex[l] - ax[a][l];
                let dy = ey[l] - ay[a][l];
                let dist = (dx * dx + dy * dy).sqrt().max(1e-6);
                let r = dist - ad[a][l];
                let j0 = dx / dist;
                let j1 = dy / dist;
                a00[l] += j0 * j0;
                a01[l] += j0 * j1;
                a11[l] += j1 * j1;
                r0[l] += j0 * r;
                r1[l] += j1 * r;
            }
        }
        for l in 0..LANES {
            if conv[l] {
                continue;
            }
            let det = a00[l] * a11[l] - a01[l] * a01[l];
            if det.abs() < 1e-9 {
                conv[l] = true;
                continue;
            }
            let dx = (a11[l] * r0[l] - a01[l] * r1[l]) / det;
            let dy = (-a01[l] * r0[l] + a00[l] * r1[l]) / det;
            ex[l] -= dx;
            ey[l] -= dy;
            if dx * dx + dy * dy < 1e-6 {
                conv[l] = true;
            }
        }
    }
    (ex, ey)
}

/// The smoothing window a scan solve carries from one piece of a badge's
/// scan column to the next: the last `smoothing_window` classifiable scans
/// since the last room change, their room, and the local time of the last
/// scan consumed.
///
/// A solved row depends only on its scan's `t_local` and hits and on this
/// window, never on the clock correction. So a column solved piece by piece
/// with [`solve_scans`], each piece starting from the window the previous
/// one left, gives the rows of one solve over the whole column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanWindow {
    /// The retained scans, oldest first, hits flattened.
    scans: ScanColumn,
    room: Option<RoomId>,
    last_t: Option<SimTime>,
}

impl ScanWindow {
    /// The window at the start of a column: empty.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `scans` continues the column this window was carried along:
    /// its first scan is no earlier than the last one solved. A time-sorted
    /// join of pieces that each continue their predecessor is their
    /// concatenation, so solving the pieces in turn solves the join.
    #[must_use]
    pub fn continues(&self, scans: ScanView<'_>) -> bool {
        match (scans.ts().first(), self.last_t) {
            (Some(&first), Some(last)) => first >= last,
            _ => true,
        }
    }
}

/// Scans solved up to the clock correction: the local time and the fix of
/// each classifiable scan, in column order. [`emit_track`] puts them on
/// reference time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolvedScans {
    t_local: Vec<SimTime>,
    fixes: Vec<Fix>,
    scans_in: usize,
}

impl SolvedScans {
    /// Rows solved: the classifiable scans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// Whether no scan was classifiable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// Scans consumed, classifiable or not.
    #[must_use]
    pub fn scans_in(&self) -> usize {
        self.scans_in
    }
}

/// The solve step of [`localize_scans`]: smoothing window → per-beacon RSSI
/// merge → table ranging → Gauss–Newton, with no clock correction. Starts
/// from `window` and leaves in it the window after the last scan, so the
/// next piece of the same column continues where this one stopped.
///
/// Phase A walks scans in order, windowing them by a **ring of hit slices**
/// borrowed from the carried window and the column — the same window
/// [`ScanSmoother`] keeps (last `smoothing_window` classifiable scans,
/// flushed on a room change) without copying any hits — and scatter-merges
/// each window into fixed per-beacon accumulators, gathering each scan's
/// in-room anchors (RSSI still as `sum`/`count` pairs) into flat SoA
/// buffers. Every `BLOCK_SCANS` scans, phase B (`BatchScratch::flush`)
/// averages, ranges, and solves the whole block lane-wide.
///
/// `ranging` is the table of `params.channel`; a caller solving many pieces
/// builds it once.
#[must_use]
pub fn solve_scans(
    scans: ScanView<'_>,
    window: &mut ScanWindow,
    ranging: &RangingTable,
    index: &BeaconIndex,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
) -> SolvedScans {
    let mut out = SolvedScans {
        t_local: Vec::with_capacity(scans.len()),
        fixes: Vec::with_capacity(scans.len()),
        scans_in: scans.len(),
    };
    solve_blocks(scans, window, ranging, index, plan, params, |block| {
        out.t_local.extend_from_slice(block.t_local);
        out.fixes.extend(block.fixes());
    });
    out
}

/// [`solve_scans`] handing each solved block's rows to `rows` as soon as the
/// block is solved.
#[allow(clippy::cast_possible_truncation)]
fn solve_blocks(
    scans: ScanView<'_>,
    window: &mut ScanWindow,
    ranging: &RangingTable,
    index: &BeaconIndex,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
    mut rows: impl FnMut(SolvedBlock<'_>),
) {
    let mut batch = BatchScratch::default();
    let depth = params.smoothing_window.max(1);
    let carried = std::mem::take(&mut window.scans);
    // The window's scans: the carried ones first, then this column's.
    let mut ring: Vec<(SimTime, &[(BeaconId, f64)])> = carried.view().iter().collect();
    let mut room_cur = window.room;
    for (t_local, hits) in scans.iter() {
        let Some(room) = classify_room_hits(hits, index) else {
            continue;
        };
        if room_cur.is_some_and(|r| r != room) {
            ring.clear();
        }
        room_cur = Some(room);
        while ring.len() >= depth {
            ring.remove(0);
        }
        ring.push((t_local, hits));
        for &(_, scan) in &ring {
            for &(id, rssi) in scan {
                let i = id.0 as usize;
                if batch.counts[i] == 0 {
                    batch.touched.push(id.0);
                }
                batch.sums[i] += rssi;
                batch.counts[i] += 1;
            }
        }
        batch.touched.sort_unstable();
        let astart = batch.ax.len() as u32;
        for ti in 0..batch.touched.len() {
            let raw = batch.touched[ti];
            let i = raw as usize;
            if let Some(b) = index.get(BeaconId(raw)) {
                if b.room == room {
                    batch.ax.push(b.position.x);
                    batch.ay.push(b.position.y);
                    batch.ad.push(batch.sums[i]);
                    batch.an.push(f64::from(batch.counts[i]));
                }
            }
            batch.sums[i] = 0.0;
            batch.counts[i] = 0;
        }
        batch.touched.clear();
        batch.pend.push(PendingFix {
            t_local,
            room,
            hits: hits.len() as u32,
            astart,
            alen: batch.ax.len() as u32 - astart,
        });
        if batch.pend.len() >= BLOCK_SCANS {
            batch.flush(ranging, plan, params, &mut rows);
        }
    }
    batch.flush(ranging, plan, params, &mut rows);
    let mut kept = ScanColumn::with_capacity(ring.len(), ring.iter().map(|(_, h)| h.len()).sum());
    for &(t, hits) in &ring {
        kept.push(t, hits);
    }
    window.scans = kept;
    window.room = room_cur;
    if let Some(&last) = scans.ts().last() {
        window.last_t = Some(last);
    }
}

/// The emit step of [`localize_scans`]: maps the solved rows of a column's
/// pieces, in order, onto reference time with the badge's clock correction,
/// dropping a fix the correction folds back before an earlier one.
#[must_use]
pub fn emit_track(pieces: &[&SolvedScans], corr: &SyncCorrection) -> PositionTrack {
    let mut track = PositionTrack::default();
    track.fixes.reserve(pieces.iter().map(|p| p.len()).sum());
    let mut tref = Vec::with_capacity(BLOCK_SCANS);
    for piece in pieces {
        let blocks = piece.t_local.chunks(BLOCK_SCANS);
        for (ts, fixes) in blocks.zip(piece.fixes.chunks(BLOCK_SCANS)) {
            emit_block(&mut track, ts, fixes.iter().copied(), corr, &mut tref);
        }
    }
    track
}

/// Appends one block of rows to `track` on reference time, through the
/// batch clock map. The monotonic guard compares with the track's last fix,
/// so blocks emitted in turn guard as one column.
fn emit_block(
    track: &mut PositionTrack,
    ts: &[SimTime],
    fixes: impl Iterator<Item = Fix>,
    corr: &SyncCorrection,
    tref: &mut Vec<SimTime>,
) {
    tref.clear();
    corr.to_reference_batch(ts, tref);
    let mut last_t = track.fixes.last().map(|last| last.t);
    for (&t, fix) in tref.iter().zip(fixes) {
        // Guard against pathological correction foldbacks.
        if last_t.is_some_and(|lt| t < lt) {
            continue;
        }
        last_t = Some(t);
        track.fixes.push(t, fix);
    }
}

/// Localizes a columnar scan view onto reference time — the batched SoA hot
/// path driven by the engine (the pre-built [`BeaconIndex`] and the
/// [`RangingTable`] of `params.channel` come from `MissionContext`):
/// [`solve_scans`] from an empty window, with each solved block emitted as
/// [`emit_track`] does while its rows are still in cache.
///
/// Every per-scan floating-point operation matches
/// [`localize_scans_scalar`] in kind and order (accumulation in scan-arrival
/// order, output in ascending beacon id), so the track is bit-identical to
/// the scalar path — the contract `tests/batched_kernels.rs` enforces, also
/// for a column solved in pieces.
#[must_use]
pub fn localize_scans(
    scans: ScanView<'_>,
    corr: &SyncCorrection,
    index: &BeaconIndex,
    ranging: &RangingTable,
    plan: &ares_habitat::floorplan::FloorPlan,
    params: &LocalizationParams,
) -> PositionTrack {
    let mut track = PositionTrack::default();
    track.fixes.reserve(scans.len());
    let mut tref = Vec::with_capacity(BLOCK_SCANS);
    let mut window = ScanWindow::new();
    solve_blocks(scans, &mut window, ranging, index, plan, params, |block| {
        let fixes = block.fixes();
        emit_block(&mut track, block.t_local, fixes, corr, &mut tref);
    });
    track
}

/// A positional heatmap: seconds spent per 28 cm grid cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Heatmap {
    /// The grid.
    pub grid: Grid,
    /// Dwell seconds per cell, row-major `[iy][ix]` flattened.
    pub seconds: Vec<f64>,
}

/// The paper's heatmap cell size: 28 cm.
pub const HEATMAP_CELL_M: f64 = 0.28;

impl Heatmap {
    /// Builds an empty heatmap covering the floor plan.
    #[must_use]
    pub fn covering(plan: &ares_habitat::floorplan::FloorPlan) -> Self {
        let (min, max) = plan.bounds();
        let grid = Grid::covering(min, max, HEATMAP_CELL_M);
        let n = grid.len();
        Heatmap {
            grid,
            seconds: vec![0.0; n],
        }
    }

    /// Accumulates a track into the map, crediting each fix with the time to
    /// the next fix (capped so gaps don't smear).
    pub fn accumulate(&mut self, track: &PositionTrack) {
        let fixes = track.fixes.samples();
        for w in fixes.windows(2) {
            let dt = (w[1].t - w[0].t).as_secs_f64().min(5.0);
            self.credit(w[0].value.position, dt);
        }
        if let Some(last) = fixes.last() {
            self.credit(last.value.position, 1.0);
        }
    }

    fn credit(&mut self, p: Point2, seconds: f64) {
        if let Some((ix, iy)) = self.grid.cell_of(p) {
            self.seconds[iy * self.grid.nx() + ix] += seconds;
        }
    }

    /// Dwell seconds of a cell.
    #[must_use]
    pub fn cell_seconds(&self, ix: usize, iy: usize) -> f64 {
        self.seconds[iy * self.grid.nx() + ix]
    }

    /// Total accumulated seconds.
    #[must_use]
    pub fn total_seconds(&self) -> f64 {
        self.seconds.iter().sum()
    }

    /// Log-scale intensity in `[0, 1]` for rendering (the paper's histograms
    /// use a logarithmic scale).
    #[must_use]
    pub fn log_intensity(&self, ix: usize, iy: usize) -> f64 {
        let max = self.seconds.iter().cloned().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return 0.0;
        }
        let v = self.cell_seconds(ix, iy);
        if v <= 0.0 {
            0.0
        } else {
            (1.0 + v).ln() / (1.0 + max).ln()
        }
    }

    /// Mean distance of dwell mass from the centroid of the room it falls in
    /// (peripheral rooms only). Quantifies astronaut A's stay-in-the-middle
    /// signature from Fig. 3: A's value is markedly smaller than everyone
    /// else's.
    #[must_use]
    pub fn mean_center_distance(&self, plan: &ares_habitat::floorplan::FloorPlan) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for iy in 0..self.grid.ny() {
            for ix in 0..self.grid.nx() {
                let s = self.cell_seconds(ix, iy);
                if s <= 0.0 {
                    continue;
                }
                let c = self.grid.cell_center(ix, iy);
                for room in RoomId::FIG2 {
                    if plan.room_polygon(room).contains(c) {
                        num += s * c.distance(plan.room_polygon(room).centroid());
                        den += s;
                        break;
                    }
                }
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::scanner;
    use ares_badge::world::World;
    use ares_simkit::rng::SeedTree;

    #[test]
    fn room_classification_is_near_perfect_at_stations() {
        let world = World::icares();
        let params = LocalizationParams::default();
        let mut rng = SeedTree::new(31).stream("loc");
        let mut correct = 0u32;
        let mut total = 0u32;
        for room in RoomId::FIG2 {
            let pos = world.plan.room_center(room);
            for i in 0..50 {
                let scan = scanner::scan(&world, pos, SimTime::from_secs(i), &mut rng);
                if scan.hits.is_empty() {
                    continue;
                }
                total += 1;
                if classify_room(&scan, &world.beacons) == Some(room) {
                    correct += 1;
                }
            }
        }
        // A room-centre scan can very rarely lose every in-room packet to
        // fading while a doorway leak slips in — the artifact the dwell
        // filter downstream absorbs. Near-perfect, not bitwise-perfect, is
        // the seed-robust expectation.
        assert!(total > 300);
        let accuracy = f64::from(correct) / f64::from(total);
        assert!(accuracy > 0.99, "accuracy {accuracy:.4}");
        let _ = params;
    }

    #[test]
    fn position_error_is_sub_room() {
        let world = World::icares();
        let params = LocalizationParams::default();
        let mut rng = SeedTree::new(32).stream("loc2");
        let mut total_err = 0.0;
        let mut n = 0;
        for room in [RoomId::Biolab, RoomId::Kitchen, RoomId::Office] {
            let truth_pos =
                world.plan.room_center(room) + ares_simkit::geometry::Vec2::new(0.7, -0.6);
            for i in 0..100 {
                let scan = scanner::scan(&world, truth_pos, SimTime::from_secs(i), &mut rng);
                let Some(r) = classify_room(&scan, &world.beacons) else {
                    continue;
                };
                let est = estimate_position(&scan, r, &world.beacons, &world.plan, &params);
                total_err += est.distance(truth_pos);
                n += 1;
            }
        }
        let mean_err = total_err / n as f64;
        assert!(
            mean_err < 1.6,
            "mean in-room error {mean_err:.2} m too large"
        );
    }

    #[test]
    fn gauss_newton_beats_centroid_alone() {
        let world = World::icares();
        let refined = LocalizationParams::default();
        let coarse = LocalizationParams {
            gn_iterations: 0,
            ..refined
        };
        let mut rng = SeedTree::new(33).stream("loc3");
        // An off-centre truth position exposes centroid bias. Both variants
        // get the same RSSI smoothing the production path applies.
        let room = RoomId::Workshop;
        let truth_pos = world.plan.room_center(room) + ares_simkit::geometry::Vec2::new(1.3, 1.1);
        let (mut err_gn, mut err_c, mut n) = (0.0, 0.0, 0);
        let mut recent: Vec<ares_badge::records::BeaconScan> = Vec::new();
        for i in 0..400 {
            let scan = scanner::scan(&world, truth_pos, SimTime::from_secs(i), &mut rng);
            if classify_room(&scan, &world.beacons) != Some(room) {
                continue;
            }
            recent.push(scan);
            if recent.len() > 5 {
                recent.remove(0);
            }
            if recent.len() < 5 {
                continue;
            }
            let merged = merge_scans(&recent.iter().collect::<Vec<_>>());
            err_gn += estimate_position(&merged, room, &world.beacons, &world.plan, &refined)
                .distance(truth_pos);
            err_c += estimate_position(&merged, room, &world.beacons, &world.plan, &coarse)
                .distance(truth_pos);
            n += 1;
        }
        assert!(n > 200);
        assert!(
            err_gn < err_c,
            "refinement must help on smoothed RSSI: GN {err_gn:.1} vs centroid {err_c:.1}"
        );
    }

    #[test]
    fn flattened_smoother_matches_merge_scans() {
        let world = World::icares();
        let params = LocalizationParams::default();
        let index = world.beacons.index();
        let mut rng = SeedTree::new(34).stream("loc4");
        let pos = world.plan.room_center(RoomId::Workshop);
        let mut smoother = ScanSmoother::new();
        let mut window: Vec<ares_badge::records::BeaconScan> = Vec::new();
        for i in 0..40 {
            let scan = scanner::scan(&world, pos, SimTime::from_secs(i), &mut rng);
            let room = smoother.push(scan.t_local, &scan.hits, &index, &params);
            assert_eq!(room, classify_room(&scan, &world.beacons));
            if room.is_none() {
                continue;
            }
            window.push(scan);
            if window.len() > params.smoothing_window {
                window.remove(0);
            }
            let expect = merge_scans(&window.iter().collect::<Vec<_>>());
            assert_eq!(smoother.merged(), expect, "scan {i}");
            assert_eq!(smoother.len(), window.len());
        }
        assert!(!smoother.is_empty());
    }

    #[test]
    fn batched_localize_matches_the_scalar_oracle() {
        use ares_badge::telemetry::TelemetryStore;
        let world = World::icares();
        let params = LocalizationParams::default();
        let index = world.beacons.index();
        let mut rng = SeedTree::new(35).stream("loc5");
        let mut store = TelemetryStore::new(ares_badge::records::BadgeId(0));
        for (i, room) in [RoomId::Kitchen, RoomId::Biolab, RoomId::Office]
            .into_iter()
            .cycle()
            .take(120)
            .enumerate()
        {
            let pos = world.plan.room_center(room);
            store.push_scan(&scanner::scan(
                &world,
                pos,
                SimTime::from_secs(i as i64),
                &mut rng,
            ));
        }
        let corr = SyncCorrection::identity();
        let scans = store.view().scans;
        let ranging = RangingTable::new(&params.channel);
        let scalar = localize_scans_scalar(scans, &corr, &index, &world.plan, &params);
        let batched = localize_scans(scans, &corr, &index, &ranging, &world.plan, &params);
        assert_eq!(
            scalar, batched,
            "batched kernel must match the scalar oracle"
        );
        assert!(!scalar.fixes.is_empty());
    }

    #[test]
    fn heatmap_accumulates_dwell() {
        let world = World::icares();
        let mut track = PositionTrack::default();
        let p = world.plan.room_center(RoomId::Kitchen);
        for i in 0..60 {
            track.fixes.push(
                SimTime::from_secs(i),
                Fix {
                    room: RoomId::Kitchen,
                    position: p,
                    hits: 3,
                },
            );
        }
        let mut map = Heatmap::covering(&world.plan);
        map.accumulate(&track);
        assert!((map.total_seconds() - 60.0).abs() < 1.0);
        let (ix, iy) = map.grid.cell_of(p).unwrap();
        assert!(map.cell_seconds(ix, iy) > 50.0);
        assert!(map.log_intensity(ix, iy) > 0.99);
    }
}
