//! Precomputed RF field cache over a quantized floor-plan grid.
//!
//! The RF hot path during day recording is `FloorPlan::walls_crossed` — a
//! linear scan over every wall segment per transmitted packet — plus
//! `FloorPlan::room_at` — a polygon containment test per position sample.
//! Both are pure functions of geometry that never changes after `World`
//! construction, so this module precomputes them on a uniform grid:
//!
//! * per **source** (each beacon plus extra fixed transmitters such as the
//!   charging station), the wall-crossing count from the source to every grid
//!   cell, and
//! * per cell, the room the cell lies in.
//!
//! The cache is *exact, not approximate*: a cell is only tabulated when the
//! precomputation can **prove** the answer is constant across the whole cell;
//! otherwise the cell carries a `MIXED` sentinel and queries fall back to the
//! exact geometric oracle. Consumers therefore get bit-identical results with
//! the cache on or off — property-tested in `tests/props.rs`.
//!
//! # Purity proof sketch (wall counts)
//!
//! For a fixed source `s` and wall `w`, the indicator "segment `s → p`
//! crosses `w`" changes value only when `p` crosses the *shadow boundary* of
//! `w`: the wall segment itself, or one of the two rays cast from the wall's
//! endpoints in the direction away from `s`. A wall is *uncertain* in a cell
//! for `s` if its segment touches the cell (conservative bounding-box strip;
//! exact for the axis-aligned walls of the habitat) or one of its
//! shadow-boundary rays passes near it (rays are marched at quarter-cell
//! steps, each sample marking every cell within an eighth of a cell — a
//! superset, since any ray point lies within an eighth of a cell of some
//! sample). A wall that is *not* uncertain in a cell has a constant indicator
//! across the whole cell.
//!
//! The build resolves each `(source, cell)` pair to one of three states:
//!
//! * **pure** — no wall is uncertain: the total count is constant and equals
//!   the count sampled at the cell's corners (the build additionally requires
//!   all four corner samples to agree before trusting the cell);
//! * **partial** — some walls are uncertain, but few: the certain walls
//!   contribute a constant `base` count (evaluated at two opposite corners,
//!   which must agree), and the short list of uncertain wall ids is stored so
//!   a query can test exactly those walls against the exact `source → p`
//!   segment. `base + Σ uncertain-wall tests` is term-for-term the oracle's
//!   filter-count, so the result is bit-identical to `walls_crossed`;
//! * **mixed** — the uncertain list is too long (or a consistency check
//!   failed): the query falls back to the full oracle.
//!
//! # Purity proof sketch (rooms)
//!
//! `FloorPlan::room_at` tests rooms in a fixed priority order with closed
//! (boundary-inclusive, ≈1e-9 tolerance) containment. A cell is tabulated as
//! room `r` only when every higher-priority room is separated from the cell
//! by more than `ROOM_MARGIN_M` (so containment is false everywhere in the
//! cell) and the cell is wholly inside `r`'s closed rectangle (non-rectangular
//! rooms are never tabulated). The grid is offset from the plan bounds by
//! [`EDGE_OFFSET_M`] so cell edges never coincide with the integer / half-odd
//! wall coordinates of the canonical plan, keeping the mixed strips thin.

use crate::beacons::BeaconDeployment;
use crate::floorplan::{FloorPlan, PERIPHERAL_ORDER};
use crate::rooms::{RoomId, RoomTable};
use ares_simkit::geometry::{Grid, Point2, Segment};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

/// Side of a cache grid cell, in meters.
pub const CELL_M: f64 = 0.25;

/// Offset of the grid origin below the plan bounds, in meters.
///
/// Chosen so cell edges sit at least 0.01 m away from the integer and
/// half-meter wall coordinates of the canonical plan, which would otherwise
/// put every wall exactly on a cell boundary and double the impure strip
/// width.
pub const EDGE_OFFSET_M: f64 = 0.26;

/// Minimum separation between a cell and a room before the room is treated
/// as definitely-not-containing any cell point. Must exceed the ≈1e-9
/// boundary tolerance of `Polygon::contains`.
const ROOM_MARGIN_M: f64 = 1e-6;

/// Sentinel wall count: the cell could not be proven constant; resolve via
/// the partial table or the exact oracle.
const MIXED: u16 = u16::MAX;

/// Longest uncertain-wall shortlist a partial cell may carry; cells with more
/// uncertain walls fall back to the full oracle (rare: corners and doorway
/// clusters).
const SHORTLIST_CAP: usize = 24;

/// Room code for cells proven outside every room.
const ROOM_OUTSIDE: u8 = RoomId::ALL.len() as u8;

/// Room code for cells whose room could not be proven constant.
const ROOM_MIXED: u8 = u8::MAX;

/// Precomputed per-source wall-crossing counts and per-cell room lookups.
///
/// Built once per `World` from the floor plan and beacon deployment; see the
/// module docs for the exactness contract.
#[derive(Debug, Clone)]
pub struct RfFieldCache {
    grid: Grid,
    sources: Vec<Point2>,
    /// Per-source wall-count field (pure counts + partial-evaluation tables).
    fields: Vec<SourceField>,
    /// Per-cell room code: `RoomId::ALL` index, [`ROOM_OUTSIDE`], or
    /// [`ROOM_MIXED`].
    cell_rooms: Vec<u8>,
    /// Per-room scanner candidates: indices into the deployment's beacon
    /// slice, in deployment order (same contents and order as the scanner's
    /// own-room-or-adjacent filter).
    candidates: RoomTable<Vec<u8>>,
}

/// One source's wall-count field over the grid.
///
/// `counts[cell]` is the proven-constant count, or [`MIXED`]. For mixed
/// cells, `partial[cell]` is a 1-based index into `entries` (0 = unresolved:
/// the query runs the full oracle). A partial entry certifies the count of
/// every *certain* wall (`base`) and lists the uncertain wall ids in
/// `shortlist[start..start + len]`.
#[derive(Debug, Clone)]
struct SourceField {
    counts: Vec<u16>,
    partial: Vec<u32>,
    entries: Vec<PartialEntry>,
    shortlist: Vec<u16>,
}

#[derive(Debug, Clone, Copy)]
struct PartialEntry {
    base: u16,
    start: u32,
    len: u16,
}

impl RfFieldCache {
    /// Builds the cache for a plan and beacon deployment.
    ///
    /// Sources are the deployment's beacons in order, followed by
    /// `extra_sources` (e.g. the charging station) — so beacon `i` is source
    /// `i` and extra `j` is source `deployment.len() + j`.
    #[must_use]
    pub fn build(
        plan: &FloorPlan,
        deployment: &BeaconDeployment,
        extra_sources: &[Point2],
    ) -> Self {
        let (lo, hi) = plan.bounds();
        let origin = Point2::new(lo.x - EDGE_OFFSET_M, lo.y - EDGE_OFFSET_M);
        let max = Point2::new(hi.x + EDGE_OFFSET_M, hi.y + EDGE_OFFSET_M);
        let grid = Grid::covering(origin, max, CELL_M);

        let sources: Vec<Point2> = deployment
            .beacons()
            .iter()
            .map(|b| b.position)
            .chain(extra_sources.iter().copied())
            .collect();

        let boxes = wall_boxes(plan);
        let wall_cells = mark_wall_cells(&grid, origin, &boxes);
        let fields = sources
            .iter()
            .map(|&s| classify_source(plan, &boxes, &grid, origin, &wall_cells, s))
            .collect();

        let cell_rooms = classify_rooms(plan, &grid, origin);

        let candidates = RoomTable::from_fn(|room| {
            deployment
                .beacons()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.room == room || plan.door_between(b.room, room).is_some())
                .map(|(i, _)| u8::try_from(i).expect("≤ 255 beacons"))
                .collect()
        });

        RfFieldCache {
            grid,
            sources,
            fields,
            cell_rooms,
            candidates,
        }
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of sources (beacons + extras).
    #[must_use]
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Position of source `i`.
    #[must_use]
    pub fn source_position(&self, source: usize) -> Point2 {
        self.sources[source]
    }

    /// The tabulated wall count from source `source` to the cell containing
    /// `p`, or `None` when the cell is not fully pure or `p` is off-grid.
    #[must_use]
    pub fn cached_walls(&self, source: usize, p: Point2) -> Option<usize> {
        let (ix, iy) = self.grid.cell_of(p)?;
        let count = self.fields[source].counts[iy * self.grid.nx() + ix];
        (count != MIXED).then_some(count as usize)
    }

    /// Wall-crossing count from source `source` to `p`, bit-identical to
    /// `plan.walls_crossed(source_position, p)`: the tabulated value for pure
    /// cells, `base` + exact tests of the uncertain shortlist for partial
    /// cells, the full oracle otherwise.
    #[must_use]
    pub fn walls_from(&self, plan: &FloorPlan, source: usize, p: Point2) -> usize {
        let src = self.sources[source];
        let Some((ix, iy)) = self.grid.cell_of(p) else {
            return plan.walls_crossed(src, p);
        };
        let cell = iy * self.grid.nx() + ix;
        let field = &self.fields[source];
        let count = field.counts[cell];
        if count != MIXED {
            return count as usize;
        }
        let slot = field.partial[cell];
        if slot == 0 {
            return plan.walls_crossed(src, p);
        }
        let entry = field.entries[slot as usize - 1];
        let ray = Segment::new(src, p);
        let walls = plan.walls();
        let start = entry.start as usize;
        entry.base as usize
            + field.shortlist[start..start + entry.len as usize]
                .iter()
                .filter(|&&w| walls[w as usize].intersects(&ray))
                .count()
    }

    /// The room containing `p`, bit-identical to `plan.room_at(p)`.
    #[must_use]
    pub fn room_of(&self, plan: &FloorPlan, p: Point2) -> Option<RoomId> {
        match self.grid.cell_of(p) {
            Some((ix, iy)) => match self.cell_rooms[iy * self.grid.nx() + ix] {
                ROOM_MIXED => plan.room_at(p),
                ROOM_OUTSIDE => None,
                code => Some(RoomId::ALL[code as usize]),
            },
            None => plan.room_at(p),
        }
    }

    /// Beacon indices a scan from `room` must consider (own room or adjacent
    /// through a door), in deployment order.
    #[must_use]
    pub fn candidates(&self, room: RoomId) -> &[u8] {
        &self.candidates[room]
    }

    /// Fraction of `(source, cell)` entries proven constant — a build-quality
    /// statistic surfaced in benches and docs.
    #[must_use]
    pub fn pure_fraction(&self) -> f64 {
        let total = self.fields.len() * self.grid.len();
        if total == 0 {
            return 0.0;
        }
        let pure: usize = self
            .fields
            .iter()
            .map(|f| f.counts.iter().filter(|&&c| c != MIXED).count())
            .sum();
        pure as f64 / total as f64
    }

    /// Fraction of `(source, cell)` entries the cache can answer without the
    /// full oracle: pure cells plus partially-evaluated cells.
    #[must_use]
    pub fn resolved_fraction(&self) -> f64 {
        let total = self.fields.len() * self.grid.len();
        if total == 0 {
            return 0.0;
        }
        let resolved: usize = self
            .fields
            .iter()
            .map(|f| {
                f.counts
                    .iter()
                    .zip(&f.partial)
                    .filter(|&(&c, &p)| c != MIXED || p != 0)
                    .count()
            })
            .sum();
        resolved as f64 / total as f64
    }
}

/// A closed-form **lower bound** on `walls_crossed` between any point of room
/// `a` and any point of room `b` **on the canonical Lunares plan**.
///
/// Kept for the canonical-geometry tests; runtime cull sites use the
/// plan-aware [`FloorPlan::wall_floor`], which computes the same bound from
/// the plan's actual module order (identical to this function on the Lunares
/// plan, and correct on every generated spec).
///
/// Two distinct peripheral modules `i` and `j` (west-to-east positions in
/// [`PERIPHERAL_ORDER`]) sit in closed rectangles spanning `y ∈ [0, 4]`; any
/// segment between them is x-monotone and crosses each of the `|i − j|`
/// module-boundary planes at `y ∈ [0, 4]`, where both collinear wall copies
/// lie with no door cuts — `2·|i − j|` guaranteed crossings. Pairs involving
/// the main hall or hangar get the trivial bound 0 (their shared boundaries
/// have doors).
#[must_use]
pub fn room_wall_floor(a: RoomId, b: RoomId) -> usize {
    if a == b {
        return 0;
    }
    let pos = |r: RoomId| PERIPHERAL_ORDER.iter().position(|&p| p == r);
    match (pos(a), pos(b)) {
        (Some(i), Some(j)) => 2 * i.abs_diff(j),
        _ => 0,
    }
}

/// Axis-aligned bounding boxes of the plan's walls, for cheap ray pruning.
fn wall_boxes(plan: &FloorPlan) -> Vec<(Segment, Point2, Point2)> {
    plan.walls()
        .iter()
        .map(|&w| {
            let lo = Point2::new(w.a.x.min(w.b.x), w.a.y.min(w.b.y));
            let hi = Point2::new(w.a.x.max(w.b.x), w.a.y.max(w.b.y));
            (w, lo, hi)
        })
        .collect()
}

/// For every cell, the ids of the walls whose segment can touch it.
///
/// Uses each wall's bounding box expanded by a hair; for the axis-aligned
/// walls of the habitat the box *is* the wall, so the strip is exact up to
/// the expansion. Non-axis-aligned walls would get a conservative superset.
/// Walls are visited in id order, so each per-cell list comes out sorted and
/// duplicate-free.
fn mark_wall_cells(
    grid: &Grid,
    origin: Point2,
    boxes: &[(Segment, Point2, Point2)],
) -> Vec<Vec<u16>> {
    let (nx, ny, cell) = (grid.nx(), grid.ny(), grid.cell_size());
    let mut cells: Vec<Vec<u16>> = vec![Vec::new(); nx * ny];
    for (wid, &(_, lo, hi)) in boxes.iter().enumerate() {
        let wid = u16::try_from(wid).expect("≤ 65 535 walls");
        let ix0 = cell_floor((lo.x - 1e-9 - origin.x) / cell, nx);
        let ix1 = cell_floor((hi.x + 1e-9 - origin.x) / cell, nx);
        let iy0 = cell_floor((lo.y - 1e-9 - origin.y) / cell, ny);
        let iy1 = cell_floor((hi.y + 1e-9 - origin.y) / cell, ny);
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                cells[iy * nx + ix].push(wid);
            }
        }
    }
    cells
}

/// Floors a fractional cell coordinate and clamps it into `0..n`.
fn cell_floor(f: f64, n: usize) -> usize {
    let i = f.floor();
    if i < 0.0 {
        0
    } else {
        (i as usize).min(n - 1)
    }
}

/// One source's field: pure counts where purity could be proven, partial
/// entries (certified base + uncertain-wall shortlist) where only a few walls
/// are uncertain, [`MIXED`] with no partial entry elsewhere.
fn classify_source(
    plan: &FloorPlan,
    boxes: &[(Segment, Point2, Point2)],
    grid: &Grid,
    origin: Point2,
    wall_cells: &[Vec<u16>],
    source: Point2,
) -> SourceField {
    let (nx, ny, cell_m) = (grid.nx(), grid.ny(), grid.cell_size());
    let corners = corner_counts(boxes, grid, origin, source);
    let shadow = mark_shadow_walls(grid, origin, plan.walls(), source);
    let mut counts = vec![MIXED; nx * ny];
    let mut partial = vec![0u32; nx * ny];
    let mut entries = Vec::new();
    let mut shortlist = Vec::new();
    let Some(shadow) = shadow else {
        // Degenerate source (on a wall endpoint): every cell stays oracle.
        return SourceField {
            counts,
            partial,
            entries,
            shortlist,
        };
    };
    let mut uncertain: Vec<u16> = Vec::new();
    for iy in 0..ny {
        for ix in 0..nx {
            let cell = iy * nx + ix;
            merge_sorted(&wall_cells[cell], &shadow[cell], &mut uncertain);
            let c00 = corners[iy * (nx + 1) + ix];
            if uncertain.is_empty() {
                let c10 = corners[iy * (nx + 1) + ix + 1];
                let c01 = corners[(iy + 1) * (nx + 1) + ix];
                let c11 = corners[(iy + 1) * (nx + 1) + ix + 1];
                if c00 == c10 && c00 == c01 && c00 == c11 {
                    counts[cell] = c00;
                }
                continue;
            }
            if uncertain.len() > SHORTLIST_CAP {
                continue;
            }
            // Base count over the *certain* walls, certified at two opposite
            // corners: every certain wall's indicator is constant across the
            // cell, so both corners must (and do) agree.
            let corner00 =
                Point2::new(origin.x + ix as f64 * cell_m, origin.y + iy as f64 * cell_m);
            let corner11 = Point2::new(corner00.x + cell_m, corner00.y + cell_m);
            let base00 = count_excluding(boxes, &uncertain, source, corner00);
            let base11 = count_excluding(boxes, &uncertain, source, corner11);
            if base00 != base11 {
                continue;
            }
            let start = u32::try_from(shortlist.len()).expect("shortlist fits u32");
            let len = u16::try_from(uncertain.len()).expect("≤ SHORTLIST_CAP");
            shortlist.extend_from_slice(&uncertain);
            entries.push(PartialEntry {
                base: base00,
                start,
                len,
            });
            partial[cell] = u32::try_from(entries.len()).expect("entries fit u32");
        }
    }
    SourceField {
        counts,
        partial,
        entries,
        shortlist,
    }
}

/// Merges two sorted duplicate-free id lists into `out` (cleared first).
fn merge_sorted(a: &[u16], b: &[u16], out: &mut Vec<u16>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        out.push(next);
    }
}

/// Exact crossing count of `source → p` over every wall whose id is *not* in
/// the sorted `excluded` list, with the same bbox prune as `corner_counts`.
fn count_excluding(
    boxes: &[(Segment, Point2, Point2)],
    excluded: &[u16],
    source: Point2,
    p: Point2,
) -> u16 {
    let ray = Segment::new(source, p);
    let (rx0, rx1) = (source.x.min(p.x) - 1e-9, source.x.max(p.x) + 1e-9);
    let (ry0, ry1) = (source.y.min(p.y) - 1e-9, source.y.max(p.y) + 1e-9);
    let mut skip = excluded.iter().copied().peekable();
    let mut n = 0u16;
    for (wid, (w, lo, hi)) in boxes.iter().enumerate() {
        let wid = wid as u16;
        if skip.peek() == Some(&wid) {
            skip.next();
            continue;
        }
        if hi.x < rx0 || lo.x > rx1 || hi.y < ry0 || lo.y > ry1 {
            continue;
        }
        if w.intersects(&ray) {
            n += 1;
        }
    }
    n
}

/// Exact wall-crossing counts sampled at every grid corner.
fn corner_counts(
    boxes: &[(Segment, Point2, Point2)],
    grid: &Grid,
    origin: Point2,
    source: Point2,
) -> Vec<u16> {
    let (nx, ny, cell) = (grid.nx(), grid.ny(), grid.cell_size());
    let mut counts = vec![0u16; (nx + 1) * (ny + 1)];
    for iy in 0..=ny {
        for ix in 0..=nx {
            let corner = Point2::new(origin.x + ix as f64 * cell, origin.y + iy as f64 * cell);
            let ray = Segment::new(source, corner);
            let (rx0, rx1) = (source.x.min(corner.x) - 1e-9, source.x.max(corner.x) + 1e-9);
            let (ry0, ry1) = (source.y.min(corner.y) - 1e-9, source.y.max(corner.y) + 1e-9);
            let mut n = 0u16;
            for (w, lo, hi) in boxes {
                if hi.x < rx0 || lo.x > rx1 || hi.y < ry0 || lo.y > ry1 {
                    continue;
                }
                if w.intersects(&ray) {
                    n += 1;
                }
            }
            counts[iy * (nx + 1) + ix] = n;
        }
    }
    counts
}

/// For every cell, the ids of the walls whose shadow-boundary rays pass near
/// it: for each wall endpoint `e`, the ray from `e` in the direction away
/// from `source`, marched at quarter-cell steps. Each sample marks every cell
/// whose closed rectangle lies within an eighth of a cell of it — a proven
/// superset of the cells the ray passes through, since any ray point is
/// within an eighth of a cell of some sample. Walls are visited in id order
/// and pushes are last-element-deduplicated, so each per-cell list comes out
/// sorted and duplicate-free. Returns `None` when the source coincides with a
/// wall endpoint (every direction is a shadow boundary — never happens for
/// real mounts; the caller leaves every cell on the oracle).
fn mark_shadow_walls(
    grid: &Grid,
    origin: Point2,
    walls: &[Segment],
    source: Point2,
) -> Option<Vec<Vec<u16>>> {
    let (nx, ny, cell) = (grid.nx(), grid.ny(), grid.cell_size());
    let gmax = Point2::new(origin.x + nx as f64 * cell, origin.y + ny as f64 * cell);
    let mut shadow: Vec<Vec<u16>> = vec![Vec::new(); nx * ny];
    let mark_near = |wid: u16, p: Point2, shadow: &mut Vec<Vec<u16>>| {
        // Cells within an eighth of a cell of `p` in each axis (≤ 2 × 2).
        let fx = (p.x - origin.x) / cell;
        let fy = (p.y - origin.y) / cell;
        let (x0, x1) = ((fx - 0.125).floor() as i64, (fx + 0.125).floor() as i64);
        let (y0, y1) = ((fy - 0.125).floor() as i64, (fy + 0.125).floor() as i64);
        for iy in y0..=y1 {
            for ix in x0..=x1 {
                if (0..nx as i64).contains(&ix) && (0..ny as i64).contains(&iy) {
                    let list = &mut shadow[iy as usize * nx + ix as usize];
                    if list.last() != Some(&wid) {
                        list.push(wid);
                    }
                }
            }
        }
    };
    for (wid, w) in walls.iter().enumerate() {
        let wid = u16::try_from(wid).expect("≤ 65 535 walls");
        for &e in &[w.a, w.b] {
            let d = e - source;
            let norm = d.norm();
            if norm < 1e-9 {
                return None;
            }
            let u = d / norm;
            let tx = if u.x > 0.0 {
                (gmax.x - e.x) / u.x
            } else if u.x < 0.0 {
                (origin.x - e.x) / u.x
            } else {
                f64::INFINITY
            };
            let ty = if u.y > 0.0 {
                (gmax.y - e.y) / u.y
            } else if u.y < 0.0 {
                (origin.y - e.y) / u.y
            } else {
                f64::INFINITY
            };
            let t_exit = tx.min(ty).max(0.0);
            let step = cell * 0.25;
            let steps = (t_exit / step).ceil() as usize;
            for k in 0..=steps {
                let t = (k as f64 * step).min(t_exit);
                mark_near(wid, e + u * t, &mut shadow);
            }
        }
    }
    Some(shadow)
}

/// Per-cell room codes replicating `FloorPlan::room_at`'s priority order.
fn classify_rooms(plan: &FloorPlan, grid: &Grid, origin: Point2) -> Vec<u8> {
    let (nx, ny, cell) = (grid.nx(), grid.ny(), grid.cell_size());
    let priority: Vec<RoomId> = PERIPHERAL_ORDER
        .iter()
        .copied()
        .chain([RoomId::Main, RoomId::Hangar])
        .collect();
    // Precompute per-room bounds and rectangularity once.
    let shapes: Vec<(RoomId, Point2, Point2, bool)> = priority
        .iter()
        .map(|&room| {
            let poly = plan.room_polygon(room);
            let (lo, hi) = poly.bounds();
            let is_rect = poly.vertices().len() == 4
                && (poly.area() - (hi.x - lo.x) * (hi.y - lo.y)).abs() < 1e-9;
            (room, lo, hi, is_rect)
        })
        .collect();
    let mut codes = vec![ROOM_OUTSIDE; nx * ny];
    for iy in 0..ny {
        for ix in 0..nx {
            let x0 = origin.x + ix as f64 * cell;
            let y0 = origin.y + iy as f64 * cell;
            let (x1, y1) = (x0 + cell, y0 + cell);
            for &(room, lo, hi, is_rect) in &shapes {
                let clear = x1 < lo.x - ROOM_MARGIN_M
                    || x0 > hi.x + ROOM_MARGIN_M
                    || y1 < lo.y - ROOM_MARGIN_M
                    || y0 > hi.y + ROOM_MARGIN_M;
                if clear {
                    continue;
                }
                let inside = is_rect && x0 >= lo.x && x1 <= hi.x && y0 >= lo.y && y1 <= hi.y;
                codes[iy * nx + ix] = if inside {
                    u8::try_from(room.index()).expect("≤ 255 rooms")
                } else {
                    ROOM_MIXED
                };
                break;
            }
        }
    }
    codes
}

/// Process-wide intern table for [`RfFieldCache::build_interned`]: geometry
/// fingerprint → weakly-held cache. Entries drop with their last `Arc`, so
/// interning never pins memory past the worlds that use it.
static INTERNED: OnceLock<Mutex<HashMap<u64, Weak<RfFieldCache>>>> = OnceLock::new();

impl RfFieldCache {
    /// Interning wrapper around [`RfFieldCache::build`]: returns the shared
    /// cache for this geometry, building it only the first time the geometry
    /// is seen. Keyed by [`geometry_fingerprint`], so every fleet shard and
    /// scenario replica of the same habitat resolves to one grid instead of
    /// rebuilding ~100 ms of tables per tenant. The build runs under the
    /// table lock, so concurrent tenants of the same geometry never
    /// duplicate the work.
    #[must_use]
    pub fn build_interned(
        plan: &FloorPlan,
        deployment: &BeaconDeployment,
        extra_sources: &[Point2],
    ) -> Arc<Self> {
        let key = geometry_fingerprint(plan, deployment, extra_sources);
        let mut map = INTERNED
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .expect("intern table poisoned");
        if let Some(cached) = map.get(&key).and_then(Weak::upgrade) {
            return cached;
        }
        let built = Arc::new(Self::build(plan, deployment, extra_sources));
        map.retain(|_, w| w.strong_count() > 0);
        map.insert(key, Arc::downgrade(&built));
        built
    }
}

/// 64-bit FNV-1a fingerprint of everything an [`RfFieldCache`] is a pure
/// function of: room polygons (in priority order), wall segments, doors,
/// the deployment's beacons and the extra sources. Coordinates are hashed by
/// bit pattern — the cache is exact, so any bit of geometric difference must
/// key a different cache.
#[must_use]
pub fn geometry_fingerprint(
    plan: &FloorPlan,
    deployment: &BeaconDeployment,
    extra_sources: &[Point2],
) -> u64 {
    let mut h = Fnv::new();
    for room in RoomId::ALL {
        let poly = plan.room_polygon(room);
        h.mix(poly.vertices().len() as u64);
        for &v in poly.vertices() {
            h.point(v);
        }
    }
    h.mix(plan.walls().len() as u64);
    for w in plan.walls() {
        h.point(w.a);
        h.point(w.b);
    }
    h.mix(plan.doors().len() as u64);
    for d in plan.doors() {
        h.mix(d.a.index() as u64);
        h.mix(d.b.index() as u64);
        h.point(d.center);
        h.point(d.gap.a);
        h.point(d.gap.b);
    }
    h.mix(deployment.len() as u64);
    for b in deployment.beacons() {
        h.mix(u64::from(b.id.0));
        h.mix(b.room.index() as u64);
        h.point(b.position);
    }
    h.mix(extra_sources.len() as u64);
    for &p in extra_sources {
        h.point(p);
    }
    h.0
}

/// Minimal FNV-1a accumulator for [`geometry_fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn point(&mut self, p: Point2) {
        self.mix(p.x.to_bits());
        self.mix(p.y.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rf::ChannelParams;

    fn cache() -> (FloorPlan, BeaconDeployment, RfFieldCache) {
        let plan = FloorPlan::lunares();
        let dep = BeaconDeployment::icares(&plan);
        let station = Point2::new(30.0, -5.2);
        let cache = RfFieldCache::build(&plan, &dep, &[station]);
        (plan, dep, cache)
    }

    /// Deterministic lattice of probe points spanning the plan bounds with a
    /// step that is irrational w.r.t. both the grid and the wall coordinates.
    fn probes(plan: &FloorPlan) -> Vec<Point2> {
        let (lo, hi) = plan.bounds();
        let mut pts = Vec::new();
        let mut y = lo.y - 0.3;
        while y < hi.y + 0.3 {
            let mut x = lo.x - 0.3;
            while x < hi.x + 0.3 {
                pts.push(Point2::new(x, y));
                x += 0.73;
            }
            y += 0.61;
        }
        pts
    }

    #[test]
    fn cache_matches_exact_walls_everywhere() {
        let (plan, _, cache) = cache();
        for p in probes(&plan) {
            for s in 0..cache.source_count() {
                assert_eq!(
                    cache.walls_from(&plan, s, p),
                    plan.walls_crossed(cache.source_position(s), p),
                    "source {s} at {p}"
                );
            }
        }
    }

    #[test]
    fn cache_matches_exact_rooms_everywhere() {
        let (plan, _, cache) = cache();
        for p in probes(&plan) {
            assert_eq!(cache.room_of(&plan, p), plan.room_at(p), "room at {p}");
        }
    }

    #[test]
    fn mean_rssi_is_bit_identical_through_cache() {
        let (plan, _, cache) = cache();
        let params = ChannelParams::ble();
        for p in probes(&plan) {
            for s in 0..cache.source_count() {
                let src = cache.source_position(s);
                let exact = params.mean_rssi(src.distance(p), plan.walls_crossed(src, p));
                let cached = params.mean_rssi(src.distance(p), cache.walls_from(&plan, s, p));
                assert!(
                    exact == cached,
                    "mean rssi drift at {p} source {s}: {exact} vs {cached}"
                );
            }
        }
    }

    #[test]
    fn most_cells_are_pure() {
        let (_, _, cache) = cache();
        let frac = cache.pure_fraction();
        assert!(frac > 0.5, "pure fraction too low: {frac}");
    }

    #[test]
    fn nearly_all_cells_resolve_without_the_full_oracle() {
        let (_, _, cache) = cache();
        let resolved = cache.resolved_fraction();
        assert!(resolved >= cache.pure_fraction());
        assert!(resolved > 0.95, "resolved fraction too low: {resolved}");
    }

    #[test]
    fn candidates_match_scanner_filter() {
        let (plan, dep, cache) = cache();
        for room in RoomId::ALL {
            let expect: Vec<u8> = dep
                .beacons()
                .iter()
                .enumerate()
                .filter(|(_, b)| b.room == room || plan.door_between(b.room, room).is_some())
                .map(|(i, _)| i as u8)
                .collect();
            assert_eq!(cache.candidates(room), expect.as_slice(), "{room}");
        }
        // Peripheral rooms see their 3 own + 3 main-hall beacons.
        assert_eq!(cache.candidates(RoomId::Kitchen).len(), 6);
        // Main sees everything (doors to all peripherals).
        assert_eq!(cache.candidates(RoomId::Main).len(), 27);
    }

    #[test]
    fn room_wall_floor_bounds_are_sound_and_tight() {
        let plan = FloorPlan::lunares();
        assert_eq!(room_wall_floor(RoomId::Office, RoomId::Office), 0);
        assert_eq!(room_wall_floor(RoomId::Airlock, RoomId::Workshop), 2);
        assert_eq!(room_wall_floor(RoomId::Airlock, RoomId::Kitchen), 14);
        assert_eq!(room_wall_floor(RoomId::Main, RoomId::Kitchen), 0);
        assert_eq!(room_wall_floor(RoomId::Hangar, RoomId::Airlock), 0);
        // Soundness: the bound never exceeds the exact count for interior
        // probe pairs.
        let pts = |r: RoomId| {
            let c = plan.room_center(r);
            [
                c,
                Point2::new(c.x - 1.2, c.y + 0.9),
                Point2::new(c.x + 1.1, c.y - 1.3),
            ]
        };
        for &a in &PERIPHERAL_ORDER {
            for &b in &PERIPHERAL_ORDER {
                let floor = room_wall_floor(a, b);
                for pa in pts(a) {
                    for pb in pts(b) {
                        assert!(
                            plan.walls_crossed(pa, pb) >= floor,
                            "{a}→{b}: floor {floor} exceeds exact"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn off_grid_points_fall_back_to_oracle() {
        let (plan, _, cache) = cache();
        let far = Point2::new(500.0, 500.0);
        assert_eq!(cache.cached_walls(0, far), None);
        assert_eq!(
            cache.walls_from(&plan, 0, far),
            plan.walls_crossed(cache.source_position(0), far)
        );
        assert_eq!(cache.room_of(&plan, far), None);
    }
}
