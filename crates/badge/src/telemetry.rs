//! Columnar telemetry store: the struct-of-arrays data plane.
//!
//! The offline pipeline is a bulk pass over huge, homogeneous, time-ordered
//! record streams — layout, not logic, dominates its cost. This module stores
//! each fixed-size record family as a [`Column`]: a sorted timestamp vector
//! plus a parallel payload vector. BLE scans hear a variable number of
//! beacons, so their family is a [`ScanColumn`]: sorted timestamps, every
//! scan's hits in one flat buffer, and per-scan end offsets into it — no
//! heap allocation per scan, and nothing per scan to free. Consumers borrow
//! [`TelemetryView`]s — `Copy` bundles of slices — and obtain time windows
//! by binary search over the timestamp column instead of filtering clones.
//!
//! The store is the only record format. Row structs ([`BeaconScan`],
//! [`AudioFrame`], …) survive only at the edges: `push_*` takes them apart
//! into columns, and the view materialisers rebuild them, in stable time
//! order (the recorder emits every stream in time order except mirrored IR
//! contacts, which the sorted insert repairs). The recorder writes scan hits
//! straight into the column ([`ScanColumn::push_with`]).

use crate::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares_habitat::beacons::BeaconId;
use ares_simkit::time::SimTime;
use serde::{Deserialize, Serialize};

/// Fixed-width lane helpers for batched struct-of-arrays kernels over
/// columns (re-exported from `ares_simkit` so column consumers need no extra
/// dependency).
pub use ares_simkit::lanes;

/// [`AudioFrame`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AudioPayload {
    /// A-weighted level over the frame (dB SPL).
    pub level_db: f64,
    /// Whether voice-band energy dominated the frame.
    pub voiced: bool,
    /// Estimated fundamental frequency when voiced (Hz).
    pub f0_hz: Option<f64>,
}

/// [`ImuSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuPayload {
    /// Variance of acceleration magnitude over the window ((m/s²)²).
    pub accel_var: f64,
    /// Mean acceleration magnitude (m/s²).
    pub accel_mean: f64,
    /// Dominant step-band frequency, if any (Hz).
    pub step_hz: Option<f64>,
}

/// [`EnvSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvPayload {
    /// Temperature (°C).
    pub temperature_c: f64,
    /// Pressure (hPa).
    pub pressure_hpa: f64,
    /// Illuminance (lux).
    pub light_lux: f64,
}

/// [`ProximityObs`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityPayload {
    /// The badge heard.
    pub other: BadgeId,
    /// Received signal strength (dBm).
    pub rssi: f64,
}

/// [`IrContact`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrPayload {
    /// The facing badge.
    pub other: BadgeId,
}

/// [`SyncSample`] payload (timestamp stripped).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncPayload {
    /// The reference badge's local time in the exchange.
    pub t_reference: SimTime,
}

/// One record family in struct-of-arrays layout: a timestamp column kept
/// sorted ascending, plus a parallel payload column.
///
/// Appends that arrive in time order (the overwhelmingly common case — badge
/// clocks are monotonic) are O(1); out-of-order appends fall back to a stable
/// sorted insert so equal timestamps preserve arrival order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column<T> {
    ts: Vec<SimTime>,
    payloads: Vec<T>,
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            ts: Vec::new(),
            payloads: Vec::new(),
        }
    }
}

impl<T> Column<T> {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        Column::default()
    }

    /// An empty column with room for `capacity` records.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Column {
            ts: Vec::with_capacity(capacity),
            payloads: Vec::with_capacity(capacity),
        }
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the column holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Appends a record, maintaining the sorted-timestamp invariant.
    pub fn push(&mut self, t: SimTime, payload: T) {
        if self.ts.last().is_none_or(|&last| last <= t) {
            self.ts.push(t);
            self.payloads.push(payload);
        } else {
            let i = self.ts.partition_point(|&x| x <= t);
            self.ts.insert(i, t);
            self.payloads.insert(i, payload);
        }
    }

    /// Appends a copy of another column's records after this one's: one
    /// extend when `other` starts at or after this column's last timestamp,
    /// otherwise a stable merge by per-record sorted insert. Either way the
    /// result is what pushing `other`'s records one by one gives.
    pub fn append(&mut self, other: ColumnView<'_, T>)
    where
        T: Clone,
    {
        let follows = match (self.ts.last(), other.ts.first()) {
            (Some(last), Some(first)) => last <= first,
            _ => true,
        };
        if follows {
            self.ts.extend_from_slice(other.ts);
            self.payloads.extend_from_slice(other.payloads);
        } else {
            for (t, p) in other.iter() {
                self.push(t, p.clone());
            }
        }
    }

    /// Borrows the whole column.
    #[must_use]
    pub fn view(&self) -> ColumnView<'_, T> {
        ColumnView {
            ts: &self.ts,
            payloads: &self.payloads,
        }
    }

    /// Borrows the records with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ColumnView<'_, T> {
        self.view().window(start, end)
    }
}

/// A borrowed slice pair over a [`Column`]: zero-copy, `Copy`, and cheap to
/// re-window.
#[derive(Debug)]
pub struct ColumnView<'a, T> {
    ts: &'a [SimTime],
    payloads: &'a [T],
}

impl<T> Clone for ColumnView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for ColumnView<'_, T> {}

impl<'a, T> Default for ColumnView<'a, T> {
    fn default() -> Self {
        ColumnView {
            ts: &[],
            payloads: &[],
        }
    }
}

impl<'a, T> ColumnView<'a, T> {
    /// Number of records in view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The sorted timestamp slice.
    #[must_use]
    pub fn ts(&self) -> &'a [SimTime] {
        self.ts
    }

    /// The parallel payload slice.
    #[must_use]
    pub fn payloads(&self) -> &'a [T] {
        self.payloads
    }

    /// The `i`-th record.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<(SimTime, &'a T)> {
        Some((*self.ts.get(i)?, self.payloads.get(i)?))
    }

    /// Iterates `(timestamp, payload)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &'a T)> + use<'a, T> {
        self.ts.iter().copied().zip(self.payloads)
    }

    /// Sub-view of the records with `start <= t < end`, found by binary
    /// search over the sorted timestamp column.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ColumnView<'a, T> {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        ColumnView {
            ts: &self.ts[lo..hi],
            payloads: &self.payloads[lo..hi],
        }
    }
}

/// The BLE scan family in flat layout: a timestamp column kept sorted
/// ascending, every scan's hits back to back in one buffer, and each scan's
/// end offset into it.
///
/// It has [`Column`]'s semantics — O(1) in-order pushes, a stable sorted
/// insert for a late scan, [`append`](ScanColumn::append) equal to pushing
/// record by record, half-open [`window`](ScanColumn::window)s by binary
/// search — without a heap `Vec` per scan: a day of scans is three
/// allocations. Two columns holding the same scans in the same order are
/// equal field for field.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScanColumn {
    ts: Vec<SimTime>,
    /// The hits of every scan, scan by scan.
    hits: Vec<(BeaconId, f64)>,
    /// `ends[i]`: the end of scan `i`'s hits in `hits`, which start at
    /// `ends[i - 1]` (0 for the first scan).
    ends: Vec<u32>,
}

/// Append-only access to the hits of the scan [`ScanColumn::push_with`] is
/// writing.
#[derive(Debug)]
pub struct HitSink<'a>(&'a mut Vec<(BeaconId, f64)>);

impl HitSink<'_> {
    /// Appends one advertisement to the scan.
    #[inline]
    pub fn push(&mut self, id: BeaconId, rssi: f64) {
        self.0.push((id, rssi));
    }
}

/// An offset into a scan column's hit buffer.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a scan column holds fewer than 2^32 hits")
}

impl ScanColumn {
    /// An empty column.
    #[must_use]
    pub fn new() -> Self {
        ScanColumn::default()
    }

    /// An empty column with room for `scans` scans hearing `hits` beacons in
    /// all.
    #[must_use]
    pub fn with_capacity(scans: usize, hits: usize) -> Self {
        ScanColumn {
            ts: Vec::with_capacity(scans),
            hits: Vec::with_capacity(hits),
            ends: Vec::with_capacity(scans),
        }
    }

    /// Number of scans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the column holds no scans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Hits over all scans.
    #[must_use]
    pub fn hit_count(&self) -> usize {
        self.hits.len()
    }

    /// Appends one scan, maintaining the sorted-timestamp invariant.
    pub fn push(&mut self, t: SimTime, hits: &[(BeaconId, f64)]) {
        self.push_with(t, |sink| sink.0.extend_from_slice(hits));
    }

    /// Appends one scan whose hits `fill` writes through the sink, in order,
    /// straight into the flat buffer. A scan earlier than the last one is
    /// rotated into place after `fill` returns (stable: after every scan
    /// with an equal timestamp), so the result is what [`push`] of the same
    /// hits gives.
    ///
    /// [`push`]: ScanColumn::push
    pub fn push_with(&mut self, t: SimTime, fill: impl FnOnce(&mut HitSink<'_>)) {
        let start = self.hits.len();
        fill(&mut HitSink(&mut self.hits));
        let end = offset(self.hits.len());
        if self.ts.last().is_none_or(|&last| last <= t) {
            self.ts.push(t);
            self.ends.push(end);
            return;
        }
        let i = self.ts.partition_point(|&x| x <= t);
        let at = self.view().offset(i);
        let n = end - offset(start);
        self.hits[at as usize..].rotate_right(n as usize);
        for e in &mut self.ends[i..] {
            *e += n;
        }
        self.ts.insert(i, t);
        self.ends.insert(i, at + n);
    }

    /// Appends a copy of another column's scans after this one's: three
    /// slice copies when `other` starts at or after this column's last
    /// timestamp, otherwise a stable merge by per-scan sorted insert. Either
    /// way the result is what pushing `other`'s scans one by one gives.
    pub fn append(&mut self, other: ScanView<'_>) {
        let follows = match (self.ts.last(), other.ts.first()) {
            (Some(last), Some(first)) => last <= first,
            _ => true,
        };
        if follows {
            let shift = offset(self.hits.len());
            // Every shifted end is at most the joined length: check it once.
            offset(self.hits.len() + other.hits.len());
            self.ts.extend_from_slice(other.ts);
            self.hits.extend_from_slice(other.hits);
            self.ends
                .extend(other.ends.iter().map(|&e| e - other.base + shift));
        } else {
            for (t, hits) in other.iter() {
                self.push(t, hits);
            }
        }
    }

    /// Borrows the whole column.
    #[must_use]
    pub fn view(&self) -> ScanView<'_> {
        ScanView {
            ts: &self.ts,
            hits: &self.hits,
            ends: &self.ends,
            base: 0,
        }
    }

    /// Borrows the scans with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ScanView<'_> {
        self.view().window(start, end)
    }

    /// Approximate in-memory footprint (bytes): timestamps, end offsets and
    /// the flat hit buffer.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.ts.len() * (size_of::<SimTime>() + size_of::<u32>())
            + self.hits.len() * size_of::<(BeaconId, f64)>()
    }
}

/// A borrowed window of a [`ScanColumn`]: zero-copy, `Copy`, and cheap to
/// re-window. Yields each scan as `(timestamp, hit slice)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanView<'a> {
    ts: &'a [SimTime],
    /// The viewed scans' hits, back to back.
    hits: &'a [(BeaconId, f64)],
    /// The viewed scans' end offsets, in the column's numbering.
    ends: &'a [u32],
    /// The column offset of `hits[0]`: where the first viewed scan starts.
    base: u32,
}

impl<'a> ScanView<'a> {
    /// Number of scans in view.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The sorted timestamp slice.
    #[must_use]
    pub fn ts(&self) -> &'a [SimTime] {
        self.ts
    }

    /// The column offset where viewed scan `i` starts (`i == len()`: where
    /// the view ends).
    fn offset(&self, i: usize) -> u32 {
        match i {
            0 => self.base,
            _ => self.ends[i - 1],
        }
    }

    /// The `i`-th scan.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<(SimTime, &'a [(BeaconId, f64)])> {
        let t = *self.ts.get(i)?;
        let (lo, hi) = (self.offset(i) - self.base, self.ends[i] - self.base);
        Some((t, &self.hits[lo as usize..hi as usize]))
    }

    /// Iterates `(timestamp, hit slice)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &'a [(BeaconId, f64)])> + use<'a> {
        let (hits, base) = (self.hits, self.base);
        let mut start = 0;
        self.ts.iter().zip(self.ends).map(move |(&t, &end)| {
            let end = (end - base) as usize;
            let scan = &hits[start..end];
            start = end;
            (t, scan)
        })
    }

    /// Sub-view of the scans with `start <= t < end`, found by binary search
    /// over the sorted timestamp column.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> ScanView<'a> {
        let lo = self.ts.partition_point(|&t| t < start);
        let hi = self.ts.partition_point(|&t| t < end);
        let (from, to) = (self.offset(lo), self.offset(hi));
        ScanView {
            ts: &self.ts[lo..hi],
            hits: &self.hits[(from - self.base) as usize..(to - self.base) as usize],
            ends: &self.ends[lo..hi],
            base: from,
        }
    }
}

/// Everything one badge recorded over one span, in columnar layout.
///
/// Analysis passes borrow a [`TelemetryView`] via [`view`].
///
/// [`view`]: TelemetryStore::view
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TelemetryStore {
    /// The physical unit.
    pub badge: BadgeId,
    /// BLE beacon scans, hits flattened.
    pub scans: ScanColumn,
    /// Microphone feature frames.
    pub audio: Column<AudioPayload>,
    /// Inertial windows.
    pub imu: Column<ImuPayload>,
    /// Environmental samples.
    pub env: Column<EnvPayload>,
    /// Inter-badge proximity observations.
    pub proximity: Column<ProximityPayload>,
    /// Infrared contacts.
    pub ir: Column<IrPayload>,
    /// Time-sync exchanges.
    pub sync: Column<SyncPayload>,
    /// Bytes of raw data written to the SD card over the span.
    pub bytes_written: u64,
}

impl TelemetryStore {
    /// Creates an empty store for a unit.
    #[must_use]
    pub fn new(badge: BadgeId) -> Self {
        TelemetryStore {
            badge,
            ..Default::default()
        }
    }

    /// Total number of records across all columns.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.scans.len()
            + self.audio.len()
            + self.imu.len()
            + self.env.len()
            + self.proximity.len()
            + self.ir.len()
            + self.sync.len()
    }

    /// Borrows the whole store.
    #[must_use]
    pub fn view(&self) -> TelemetryView<'_> {
        TelemetryView {
            badge: self.badge,
            scans: self.scans.view(),
            audio: self.audio.view(),
            imu: self.imu.view(),
            env: self.env.view(),
            proximity: self.proximity.view(),
            ir: self.ir.view(),
            sync: self.sync.view(),
            bytes_written: self.bytes_written,
        }
    }

    /// Borrows the records of every column with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> TelemetryView<'_> {
        self.view().window(start, end)
    }

    /// Appends one BLE scan (row form) into the scan column.
    pub fn push_scan(&mut self, s: &BeaconScan) {
        self.scans.push(s.t_local, &s.hits);
    }

    /// Appends one audio frame (row form) into the audio column.
    pub fn push_audio(&mut self, a: AudioFrame) {
        self.audio.push(
            a.t_local,
            AudioPayload {
                level_db: a.level_db,
                voiced: a.voiced,
                f0_hz: a.f0_hz,
            },
        );
    }

    /// Appends one inertial window (row form) into the IMU column.
    pub fn push_imu(&mut self, s: ImuSample) {
        self.imu.push(
            s.t_local,
            ImuPayload {
                accel_var: s.accel_var,
                accel_mean: s.accel_mean,
                step_hz: s.step_hz,
            },
        );
    }

    /// Appends one environmental sample (row form) into the env column.
    pub fn push_env(&mut self, s: EnvSample) {
        self.env.push(
            s.t_local,
            EnvPayload {
                temperature_c: s.temperature_c,
                pressure_hpa: s.pressure_hpa,
                light_lux: s.light_lux,
            },
        );
    }

    /// Appends one proximity observation (row form) into its column.
    pub fn push_proximity(&mut self, p: ProximityObs) {
        self.proximity.push(
            p.t_local,
            ProximityPayload {
                other: p.other,
                rssi: p.rssi,
            },
        );
    }

    /// Appends one infrared contact (row form) into the IR column.
    pub fn push_ir(&mut self, c: IrContact) {
        self.ir.push(c.t_local, IrPayload { other: c.other });
    }

    /// Appends one time-sync exchange (row form) into the sync column.
    pub fn push_sync(&mut self, s: SyncSample) {
        self.sync.push(
            s.t_local,
            SyncPayload {
                t_reference: s.t_reference,
            },
        );
    }

    /// Approximate in-memory footprint of the columnar layout (bytes):
    /// timestamp and payload vectors, plus the scan column's end offsets and
    /// flat hit buffer.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        use std::mem::size_of;
        let ts = size_of::<SimTime>();
        (self.scans.mem_bytes()
            + self.audio.len() * (ts + size_of::<AudioPayload>())
            + self.imu.len() * (ts + size_of::<ImuPayload>())
            + self.env.len() * (ts + size_of::<EnvPayload>())
            + self.proximity.len() * (ts + size_of::<ProximityPayload>())
            + self.ir.len() * (ts + size_of::<IrPayload>())
            + self.sync.len() * (ts + size_of::<SyncPayload>())) as u64
    }
}

/// A zero-copy view over a [`TelemetryStore`]: `Copy` slice bundles for every
/// record family. This is what the analysis stage kernels take.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryView<'a> {
    /// The physical unit.
    pub badge: BadgeId,
    /// BLE beacon scans.
    pub scans: ScanView<'a>,
    /// Microphone feature frames.
    pub audio: ColumnView<'a, AudioPayload>,
    /// Inertial windows.
    pub imu: ColumnView<'a, ImuPayload>,
    /// Environmental samples.
    pub env: ColumnView<'a, EnvPayload>,
    /// Inter-badge proximity observations.
    pub proximity: ColumnView<'a, ProximityPayload>,
    /// Infrared contacts.
    pub ir: ColumnView<'a, IrPayload>,
    /// Time-sync exchanges.
    pub sync: ColumnView<'a, SyncPayload>,
    /// Bytes of raw data written to the SD card over the viewed span.
    pub bytes_written: u64,
}

impl<'a> TelemetryView<'a> {
    /// Total number of records across all columns in view.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.scans.len()
            + self.audio.len()
            + self.imu.len()
            + self.env.len()
            + self.proximity.len()
            + self.ir.len()
            + self.sync.len()
    }

    /// Sub-view of every column with `start <= t < end`.
    #[must_use]
    pub fn window(&self, start: SimTime, end: SimTime) -> TelemetryView<'a> {
        TelemetryView {
            badge: self.badge,
            scans: self.scans.window(start, end),
            audio: self.audio.window(start, end),
            imu: self.imu.window(start, end),
            env: self.env.window(start, end),
            proximity: self.proximity.window(start, end),
            ir: self.ir.window(start, end),
            sync: self.sync.window(start, end),
            bytes_written: self.bytes_written,
        }
    }

    /// Iterates scans as `(timestamp, hit slice)`.
    pub fn scan_hits(&self) -> impl Iterator<Item = (SimTime, &'a [(BeaconId, f64)])> + use<'a> {
        self.scans.iter()
    }

    /// Iterates audio frames materialized as row structs (payloads are
    /// `Copy`; this costs a register-width copy per record, no allocation).
    pub fn audio_frames(&self) -> impl Iterator<Item = AudioFrame> + use<'a> {
        self.audio.iter().map(|(t, p)| AudioFrame {
            t_local: t,
            level_db: p.level_db,
            voiced: p.voiced,
            f0_hz: p.f0_hz,
        })
    }

    /// Iterates IMU windows materialized as row structs.
    pub fn imu_samples(&self) -> impl Iterator<Item = ImuSample> + use<'a> {
        self.imu.iter().map(|(t, p)| ImuSample {
            t_local: t,
            accel_var: p.accel_var,
            accel_mean: p.accel_mean,
            step_hz: p.step_hz,
        })
    }

    /// Iterates environmental samples materialized as row structs.
    pub fn env_samples(&self) -> impl Iterator<Item = EnvSample> + use<'a> {
        self.env.iter().map(|(t, p)| EnvSample {
            t_local: t,
            temperature_c: p.temperature_c,
            pressure_hpa: p.pressure_hpa,
            light_lux: p.light_lux,
        })
    }

    /// Iterates proximity observations materialized as row structs.
    pub fn proximity_obs(&self) -> impl Iterator<Item = ProximityObs> + use<'a> {
        self.proximity.iter().map(|(t, p)| ProximityObs {
            t_local: t,
            other: p.other,
            rssi: p.rssi,
        })
    }

    /// Iterates infrared contacts materialized as row structs.
    pub fn ir_contacts(&self) -> impl Iterator<Item = IrContact> + use<'a> {
        self.ir.iter().map(|(t, p)| IrContact {
            t_local: t,
            other: p.other,
        })
    }

    /// Iterates time-sync exchanges materialized as row structs.
    pub fn sync_samples(&self) -> impl Iterator<Item = SyncSample> + use<'a> {
        self.sync.iter().map(|(t, p)| SyncSample {
            t_local: t,
            t_reference: p.t_reference,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_simkit::time::SimTime;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sorted_insert_repairs_out_of_order_appends() {
        let mut col = Column::new();
        col.push(t(10), 'a');
        col.push(t(30), 'b');
        col.push(t(20), 'c'); // the mirrored-IR case: late out-of-order
        col.push(t(20), 'd'); // equal timestamps keep arrival order
        let v = col.view();
        assert_eq!(v.ts(), &[t(10), t(20), t(20), t(30)]);
        assert_eq!(v.payloads(), &['a', 'c', 'd', 'b']);
    }

    #[test]
    fn window_is_half_open_binary_search() {
        let mut col = Column::new();
        for s in [1i64, 2, 2, 3, 5, 8] {
            col.push(t(s), s);
        }
        let w = col.window(t(2), t(5));
        assert_eq!(w.ts(), &[t(2), t(2), t(3)]);
        assert_eq!(w.payloads(), &[2, 2, 3]);
        assert!(col.window(t(9), t(20)).is_empty());
        // Re-windowing a view narrows further.
        assert_eq!(col.view().window(t(0), t(100)).window(t(5), t(9)).len(), 2);
    }

    /// `append` equals pushing the records one by one: in order, across an
    /// equal-timestamp boundary, and interleaved.
    #[test]
    fn append_equals_pushing_record_by_record() {
        let column = |records: &[(i64, char)]| {
            let mut col = Column::new();
            for &(s, c) in records {
                col.push(t(s), c);
            }
            col
        };
        let head = [(1, 'a'), (3, 'b'), (5, 'c')];
        for tail in [
            &[(6, 'd'), (9, 'e')][..],
            &[(5, 'd'), (5, 'e'), (7, 'f')][..],
            &[(0, 'd'), (3, 'e'), (4, 'f'), (8, 'g')][..],
            &[][..],
        ] {
            let mut pushed = column(&head);
            for &(s, c) in tail {
                pushed.push(t(s), c);
            }
            let mut appended = column(&head);
            appended.append(column(tail).view());
            assert_eq!(appended, pushed, "append {tail:?}");
        }
        let mut empty = Column::new();
        empty.append(column(&head).view());
        assert_eq!(empty, column(&head));
    }
}
