//! Multi-tenant streaming ingest: the day analysis as a long-running service.
//!
//! The paper's Section VI support system is always on: telemetry from every
//! badge in every habitat keeps arriving, and analysis must keep up without
//! Earth in the loop. This module is the front door. An [`IngestServer`]
//! runs one OS thread per *shard*; every tenant (one habitat/mission) is
//! pinned to exactly one shard so cross-badge analysis (meetings, company
//! time) always sees the whole crew. Producers hand records to
//! [`IngestServer::submit`] — from any number of threads at once — which
//! routes them onto the shard's bounded queue with an explicit
//! [`BackpressurePolicy`]: block the producer, or shed the record and count
//! the loss per [`RecordKind`] — drops are typed, surfaced on the support bus
//! ([`Topic::Ingest`]) and in the mission report, never silent.
//!
//! The queue is one mutex over the pending messages and two condition
//! variables. The shard takes everything queued in one lock and works through
//! it from a local batch; a producer wakes the shard only if it is parked,
//! and the shard wakes producers only if one is parked. The capacity bounds
//! records and day ends submitted but not yet applied, the shard's batch
//! included: the shard gives capacity back every 64 messages, so a producer
//! refills while the shard works.
//!
//! A shard holds, per tenant, exactly what it serves: the current day's
//! telemetry per badge, the accumulated `MissionAnalysis`, and the applied
//! record and day counts. Most of a day's localization runs before the day
//! ends: when a checkpoint seals a badge's segment (step 3 below), the
//! segment's scans are solved — smoothing window, ranging, Gauss–Newton —
//! from the window the previous segment left. A day end
//! ([`IngestServer::end_day`]) then solves only each badge's open tail,
//! joins the day's telemetry into per-badge stores without the scan and
//! proximity columns, which no stage reads once the scans are solved, and
//! runs the day analysis on them: the sync fit, the emit of the solved rows
//! onto reference time, the other per-badge stages and day assembly.
//!
//! The one exception: a segment whose first scan is earlier than the last
//! scan already solved for its badge (a scan delayed past a seal). The
//! day's time-sorted join would interleave it into solved rows, so that
//! badge-day falls back to one solve over its joined scan column at the day
//! end, and [`ShardReport::presolve_fallbacks`] counts it. Either way the
//! analysis is byte-identical to the batch engine over the joined day.
//! [`wire_feed`] is the inverse of the join: it flattens recorded stores
//! into the time-ordered record feed a producer submits.
//!
//! ## Recovery protocol
//!
//! Each shard is a [`Replicated`] service, the same driver the chaos drill
//! runs: its log is the shard's write-ahead log, and the state it serves is
//! every tenant's live state. The data path is:
//!
//! 1. every entry is appended to the WAL under a monotone sequence number;
//! 2. while a live primary serves, it applies every entry past its cursor;
//! 3. on the checkpoint cadence, a serving primary snapshots all tenant
//!    state plus its cursor into the vault (unless a `BusDrop` fault has the
//!    replication link down), and the WAL is truncated up to the cursor. The
//!    snapshot is incremental: each badge's records applied since the last
//!    checkpoint are sealed, without a copy, into an `Arc`-shared segment,
//!    and the snapshot shares the day's segment lists and the mission
//!    analysis with the live state. Sealing solves the segment's scans and
//!    keeps the solved rows and the smoothing window after them in the
//!    segment, so a restored checkpoint resumes the solve exactly. A day
//!    end joins the segments in arrival order, which gives the same store
//!    as one column fed every record;
//! 4. when [`FaultPlan`] faults kill the primary, the failure detector
//!    promotes a backup, which restores the vault's latest checkpoint and
//!    replays every WAL entry past the checkpoint cursor.
//!
//! Because entries reach the WAL before they are applied, application is
//! deterministic, and checkpoint restore is exact, the recovered state is
//! **byte-identical** to an unfaulted run — the same bit-determinism
//! contract the batch engine holds at any worker count, now held across
//! crash-and-recover. `tests/ingest_service.rs` asserts it end to end,
//! and the ingest stage of `bench_smoke` checks it every tier-1 run.

use crate::bus::{Bus, Message, Topic};
use crate::chaos::{FaultPlan, FaultScheduler};
use crate::failover::{FailoverEvent, ReplicaId, ReplicaState, Replicated};
use ares_badge::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares_badge::telemetry::{Column, ScanColumn, TelemetryStore};
use ares_simkit::series::Interval;
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::engine::{analyze_day_solved, EngineMetrics, MissionContext, Stage};
use ares_sociometrics::localization::{solve_scans, ScanWindow, SolvedScans};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::report::IngestShardRow;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One tenant of the ingest service: a habitat/mission whose badges form a
/// single analysis domain. All of a tenant's telemetry lands on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// One telemetry record from one badge, as it arrives at the front door.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryRecord {
    /// A BLE beacon scan.
    Scan(BeaconScan),
    /// A microphone feature frame.
    Audio(AudioFrame),
    /// An inertial feature window.
    Imu(ImuSample),
    /// An environmental sample.
    Env(EnvSample),
    /// An inter-badge proximity observation.
    Proximity(ProximityObs),
    /// An infrared face-to-face contact.
    Ir(IrContact),
    /// A time-sync exchange with the reference badge.
    Sync(SyncSample),
}

impl TelemetryRecord {
    /// The badge-local timestamp carried by the record.
    #[must_use]
    pub fn t_local(&self) -> SimTime {
        match self {
            TelemetryRecord::Scan(r) => r.t_local,
            TelemetryRecord::Audio(r) => r.t_local,
            TelemetryRecord::Imu(r) => r.t_local,
            TelemetryRecord::Env(r) => r.t_local,
            TelemetryRecord::Proximity(r) => r.t_local,
            TelemetryRecord::Ir(r) => r.t_local,
            TelemetryRecord::Sync(r) => r.t_local,
        }
    }

    /// The record's sensor family (the key of the typed drop counters).
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        match self {
            TelemetryRecord::Scan(_) => RecordKind::Scan,
            TelemetryRecord::Audio(_) => RecordKind::Audio,
            TelemetryRecord::Imu(_) => RecordKind::Imu,
            TelemetryRecord::Env(_) => RecordKind::Env,
            TelemetryRecord::Proximity(_) => RecordKind::Proximity,
            TelemetryRecord::Ir(_) => RecordKind::Ir,
            TelemetryRecord::Sync(_) => RecordKind::Sync,
        }
    }

    /// Appends a copy of the record to its column of `store`: a scan's
    /// hits extend the flat scan column, every other payload is `Copy`, so
    /// the push allocates nothing per record.
    pub fn push_into(&self, store: &mut TelemetryStore) {
        match self {
            TelemetryRecord::Scan(r) => store.push_scan(r),
            TelemetryRecord::Audio(r) => store.push_audio(*r),
            TelemetryRecord::Imu(r) => store.push_imu(*r),
            TelemetryRecord::Env(r) => store.push_env(*r),
            TelemetryRecord::Proximity(r) => store.push_proximity(*r),
            TelemetryRecord::Ir(r) => store.push_ir(*r),
            TelemetryRecord::Sync(r) => store.push_sync(*r),
        }
    }
}

/// Flattens recorded per-badge stores into one multiplexed wire feed, ordered
/// by badge-local timestamp: the records a producer submits to serve those
/// stores, and the inverse of the shard's day-end join.
///
/// The sort is stable, so records with equal timestamps keep store order,
/// then column order (scan, audio, IMU, env, proximity, IR, sync), then
/// column position. Pushing the feed, in order, into one empty store per
/// badge with [`TelemetryRecord::push_into`] gives back the input stores,
/// apart from their `bytes_written` meters.
#[must_use]
pub fn wire_feed(stores: &[TelemetryStore]) -> Vec<(BadgeId, TelemetryRecord)> {
    let mut feed: Vec<(BadgeId, TelemetryRecord)> = Vec::new();
    for store in stores {
        let v = store.view();
        let badge = store.badge;
        feed.extend(v.scan_hits().map(|(t_local, hits)| {
            let hits = hits.to_vec();
            (badge, TelemetryRecord::Scan(BeaconScan { t_local, hits }))
        }));
        feed.extend(v.audio_frames().map(|r| (badge, TelemetryRecord::Audio(r))));
        feed.extend(v.imu_samples().map(|r| (badge, TelemetryRecord::Imu(r))));
        feed.extend(v.env_samples().map(|r| (badge, TelemetryRecord::Env(r))));
        feed.extend(
            v.proximity_obs()
                .map(|r| (badge, TelemetryRecord::Proximity(r))),
        );
        feed.extend(v.ir_contacts().map(|r| (badge, TelemetryRecord::Ir(r))));
        feed.extend(v.sync_samples().map(|r| (badge, TelemetryRecord::Sync(r))));
    }
    feed.sort_by_key(|(_, r)| r.t_local());
    feed
}

/// The seven telemetry families, for typed shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// BLE beacon scans.
    Scan,
    /// Microphone feature frames.
    Audio,
    /// Inertial windows.
    Imu,
    /// Environmental samples.
    Env,
    /// Proximity observations.
    Proximity,
    /// Infrared contacts.
    Ir,
    /// Time-sync exchanges.
    Sync,
}

impl RecordKind {
    /// All families, in counter order.
    pub const ALL: [RecordKind; 7] = [
        RecordKind::Scan,
        RecordKind::Audio,
        RecordKind::Imu,
        RecordKind::Env,
        RecordKind::Proximity,
        RecordKind::Ir,
        RecordKind::Sync,
    ];

    /// Stable lowercase label for reports and bus payloads.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Scan => "scan",
            RecordKind::Audio => "audio",
            RecordKind::Imu => "imu",
            RecordKind::Env => "env",
            RecordKind::Proximity => "proximity",
            RecordKind::Ir => "ir",
            RecordKind::Sync => "sync",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a producer experiences when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// The producer blocks until the shard drains a slot. Lossless; the
    /// badge uplink slows instead of the habitat losing telemetry.
    Block,
    /// The record is dropped and counted per [`RecordKind`]; the producer
    /// keeps going. Lossy but never stalls a real-time source.
    Shed,
}

/// Configuration of one [`IngestServer`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of shard threads.
    pub shards: usize,
    /// Simulated analysis replicas per shard (primary + backups).
    pub replicas_per_shard: u8,
    /// Bounded capacity of each shard's telemetry queue.
    pub queue_capacity: usize,
    /// What happens to producers when a queue is full.
    pub policy: BackpressurePolicy,
    /// The service span; the shard clock starts at `span.start`.
    pub span: Interval,
    /// Checkpoint cadence of each shard's primary.
    pub checkpoint_every: SimDuration,
    /// Heartbeat deadline of the per-shard failure detector.
    pub heartbeat_deadline: SimDuration,
}

/// A shard publishes a [`Topic::Ingest`] shed notice on its first drop and
/// on every this-many drops after it.
const DROP_PUBLISH_EVERY: u64 = 256;

impl IngestConfig {
    /// The ICARES defaults for serving one mission day: two shards, three
    /// replicas each, a 15-minute checkpoint cadence and a 5-minute
    /// failure-detector deadline (the drill settings of `ChaosMission`).
    #[must_use]
    pub fn icares_day(day: u32) -> Self {
        let start = SimTime::from_day_hms(day, 0, 0, 0);
        IngestConfig {
            shards: 2,
            replicas_per_shard: 3,
            queue_capacity: 1024,
            policy: BackpressurePolicy::Block,
            span: Interval::new(start, start + SimDuration::from_hours(24)),
            checkpoint_every: SimDuration::from_mins(15),
            heartbeat_deadline: SimDuration::from_mins(5),
        }
    }

    /// The shard a tenant is pinned to.
    #[must_use]
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        tenant.0 as usize % self.shards
    }

    /// The global [`ReplicaId`] of a shard's `local`-th replica. Fault plans
    /// target these ids: `replica(0, 0)` is shard 0's initial primary.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for the configured replica count,
    /// or if the id does not fit the 256 [`ReplicaId`]s.
    #[must_use]
    pub fn replica(&self, shard: usize, local: u8) -> ReplicaId {
        assert!(
            local < self.replicas_per_shard,
            "replica index out of range"
        );
        let id = shard
            .checked_mul(usize::from(self.replicas_per_shard))
            .and_then(|first| first.checked_add(usize::from(local)))
            .and_then(|id| u8::try_from(id).ok())
            .expect("replica id exceeds the 256 ReplicaIds");
        ReplicaId(id)
    }

    fn replica_set(&self, shard: usize) -> Vec<ReplicaId> {
        (0..self.replicas_per_shard)
            .map(|i| self.replica(shard, i))
            .collect()
    }
}

/// Per-tenant state replicated in a shard checkpoint. Telemetry is held as
/// the sealed segments the live state shares, so taking a checkpoint copies
/// no record.
#[derive(Debug, Clone)]
struct TenantCheckpoint {
    segments: Vec<(BadgeId, Vec<Arc<Segment>>)>,
    analysis: Arc<MissionAnalysis>,
    counts: TenantCounts,
}

/// A tenant's counters, replicated with its state.
#[derive(Debug, Clone, Copy, Default)]
struct TenantCounts {
    /// Telemetry records applied.
    records: u64,
    /// Mission days folded into the analysis.
    days: u64,
    /// Scans of closed days solved when a checkpoint sealed their segment.
    scans_presolved: u64,
    /// Badge-days whose scans were solved at the day end instead, because a
    /// segment started before a scan already solved.
    presolve_fallbacks: u64,
}

/// A shard's message queue entries.
#[derive(Debug)]
enum ShardMsg {
    Record {
        tenant: TenantId,
        badge: BadgeId,
        record: TelemetryRecord,
    },
    DayEnd {
        tenant: TenantId,
        day: u32,
        at: SimTime,
    },
    /// Test hook: the shard acks on `ack`, then parks until `parked`
    /// disconnects, letting tests fill the bounded queue deterministically.
    Pause {
        ack: mpsc::Sender<()>,
        parked: mpsc::Receiver<()>,
    },
}

/// Data messages a shard applies before it gives their capacity back in the
/// middle of a batch.
const GIVE_BACK_EVERY: usize = 64;

/// A [`ShardQueue`]'s state; every field is read and written under its lock.
#[derive(Debug)]
struct QueueState {
    msgs: VecDeque<ShardMsg>,
    /// Records and day ends submitted and not yet given back by the shard:
    /// the queued ones plus those in the shard's batch.
    depth: usize,
    peak: usize,
    /// Records shed, per [`RecordKind`].
    dropped: [u64; 7],
    /// The shard waits on `ready`.
    shard_parked: bool,
    /// Producers waiting on `space`.
    producers_parked: usize,
    /// No message will be pushed or taken any more: the server finished or
    /// was dropped, or the shard thread ended.
    closed: bool,
}

/// One shard's bounded front door, shared by every producer and the shard.
#[derive(Debug)]
struct ShardQueue {
    state: Mutex<QueueState>,
    /// Signalled when a message arrives for a parked shard.
    ready: Condvar,
    /// Signalled when the shard gives capacity back to parked producers.
    space: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        ShardQueue {
            state: Mutex::new(QueueState {
                msgs: VecDeque::new(),
                depth: 0,
                peak: 0,
                dropped: [0; 7],
                shard_parked: false,
                producers_parked: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Nothing panics between two writes to the state, so a guard poisoned
    /// by a panicking thread still guards a consistent queue; recovering it
    /// lets `close` run while a shard unwinds.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues a record or day end. With `shed == None` it waits for
    /// capacity; with `Some(kind)` a full queue drops the message, counts it
    /// under `kind` and returns that family's and the shard's drop totals.
    ///
    /// # Panics
    ///
    /// Panics if the shard thread is gone.
    fn push_data(&self, msg: ShardMsg, shed: Option<RecordKind>) -> Result<(), (u64, u64)> {
        let mut st = self.lock();
        loop {
            assert!(!st.closed, "shard thread gone");
            if st.depth < self.capacity {
                break;
            }
            if let Some(kind) = shed {
                st.dropped[kind.index()] += 1;
                return Err((st.dropped[kind.index()], st.dropped.iter().sum()));
            }
            st.producers_parked += 1;
            st = self.space.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.producers_parked -= 1;
        }
        st.depth += 1;
        st.peak = st.peak.max(st.depth);
        self.push(st, msg);
        Ok(())
    }

    /// Enqueues a control message; it takes no capacity.
    fn push_control(&self, msg: ShardMsg) {
        let st = self.lock();
        assert!(!st.closed, "shard thread gone");
        self.push(st, msg);
    }

    fn push(&self, mut st: MutexGuard<'_, QueueState>, msg: ShardMsg) {
        st.msgs.push_back(msg);
        let wake = std::mem::take(&mut st.shard_parked);
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }

    /// The shard's bulk drain: gives back the capacity of `applied` data
    /// messages, waits while nothing is queued, then moves every queued
    /// message into the empty `batch`. Returns `false` once the queue is
    /// closed and empty.
    fn take(&self, batch: &mut VecDeque<ShardMsg>, applied: usize) -> bool {
        let mut st = self.lock();
        self.release(&mut st, applied);
        while st.msgs.is_empty() {
            if st.closed {
                return false;
            }
            st.shard_parked = true;
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.shard_parked = false;
        std::mem::swap(&mut st.msgs, batch);
        true
    }

    /// Gives back the capacity of `applied` data messages.
    fn give_back(&self, applied: usize) {
        self.release(&mut self.lock(), applied);
    }

    fn release(&self, st: &mut QueueState, applied: usize) {
        st.depth -= applied;
        if applied > 0 && st.producers_parked > 0 {
            self.space.notify_all();
        }
    }

    /// Stops the queue: a parked shard drains what is left and exits, and a
    /// producer that still waits panics instead of waiting forever.
    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }
}

/// Closes a shard's queue when the shard thread ends, also by a panic.
struct CloseOnDrop(Arc<ShardQueue>);

impl Drop for CloseOnDrop {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A WAL entry: the data-plane payload of a [`ShardMsg`].
#[derive(Debug)]
enum WalEntry {
    Record {
        tenant: TenantId,
        badge: BadgeId,
        record: TelemetryRecord,
    },
    DayEnd {
        tenant: TenantId,
        day: u32,
    },
}

/// A piece of a badge's day that a checkpoint sealed from its tail. While
/// the day pre-solves, the segment's scans are solved at seal time with the
/// window the previous segment left, and the segment keeps the rows and the
/// window after its last scan, so a restored checkpoint resumes exactly.
#[derive(Debug)]
struct Segment {
    store: TelemetryStore,
    presolved: Option<(SolvedScans, ScanWindow)>,
}

/// One badge's telemetry for the current day: the segments sealed by earlier
/// checkpoints, in arrival order, plus the open tail of records applied
/// since the last one.
struct BadgeDay {
    sealed: Vec<Arc<Segment>>,
    tail: TelemetryStore,
}

/// A closed badge-day whose scans were all solved piece by piece: the
/// segments and the tail's rows, in column order.
struct DaySolve {
    sealed: Vec<Arc<Segment>>,
    tail: SolvedScans,
}

impl DaySolve {
    /// The segments' rows, solved at their seals.
    fn sealed_rows(&self) -> impl Iterator<Item = &SolvedScans> {
        self.sealed.iter().map(|seg| {
            let (rows, _) = seg
                .presolved
                .as_ref()
                .expect("a solved day solved every segment");
            rows
        })
    }

    fn pieces(&self) -> Vec<&SolvedScans> {
        self.sealed_rows().chain([&self.tail]).collect()
    }

    /// Scans solved at checkpoint seals.
    fn presolved(&self) -> u64 {
        self.sealed_rows().map(|rows| rows.scans_in() as u64).sum()
    }
}

impl BadgeDay {
    fn new(badge: BadgeId) -> Self {
        BadgeDay {
            sealed: Vec::new(),
            tail: TelemetryStore::new(badge),
        }
    }

    /// The window the badge's next scans solve from, or `None` when the day
    /// does not pre-solve: the reference badge, whose scans no stage
    /// localizes, or a day that fell back.
    fn carry(&self) -> Option<ScanWindow> {
        if self.tail.badge == BadgeId::REFERENCE {
            return None;
        }
        match self.sealed.last() {
            None => Some(ScanWindow::new()),
            Some(seg) => seg.presolved.as_ref().map(|(_, window)| window.clone()),
        }
    }

    /// Solves `store`'s scans from the carried window, adding the solve's
    /// wall time to the localize stage. `None` when the day does not
    /// pre-solve, or when `store`'s first scan is earlier than the last one
    /// solved: the time-sorted join would interleave it, so the day falls
    /// back to one solve over the joined column.
    fn solve(
        &self,
        store: &TelemetryStore,
        ctx: &MissionContext,
        metrics: &mut EngineMetrics,
    ) -> Option<(SolvedScans, ScanWindow)> {
        let mut window = self.carry()?;
        let scans = store.scans.view();
        if !window.continues(scans) {
            return None;
        }
        let t0 = Instant::now();
        let rows = solve_scans(
            scans,
            &mut window,
            ctx.ranging(),
            ctx.beacon_index(),
            &ctx.plan,
            &ctx.params().localization,
        );
        metrics.add_wall(Stage::Localize, t0.elapsed().as_secs_f64());
        Some((rows, window))
    }

    /// Moves a non-empty tail into a new sealed segment, solving its scans,
    /// and returns the segment list, sharing every segment with the live
    /// state.
    fn seal(&mut self, ctx: &MissionContext, metrics: &mut EngineMetrics) -> Vec<Arc<Segment>> {
        if self.tail.record_count() > 0 {
            let badge = self.tail.badge;
            let store = std::mem::replace(&mut self.tail, TelemetryStore::new(badge));
            let presolved = self.solve(&store, ctx, metrics);
            self.sealed.push(Arc::new(Segment { store, presolved }));
        }
        self.sealed.clone()
    }

    /// Closes the day: solves the tail from the carried window, then joins
    /// the segments and the tail, in arrival order, into one store.
    /// `Column::append` semantics make it exactly the store one column fed
    /// every record in arrival order would hold — less the proximity column,
    /// which no stage reads, and the scan column when every scan is solved.
    /// Each segment is copied once, into a store reserved to size.
    fn close(
        self,
        ctx: &MissionContext,
        metrics: &mut EngineMetrics,
    ) -> (TelemetryStore, Option<DaySolve>) {
        let tail = self.solve(&self.tail, ctx, metrics).map(|(rows, _)| rows);
        let badge = self.tail.badge;
        let parts: Vec<&TelemetryStore> = self
            .sealed
            .iter()
            .map(|seg| &seg.store)
            .chain([&self.tail])
            .collect();
        let store = join(badge, &parts, tail.is_none() && badge != BadgeId::REFERENCE);
        let sealed = self.sealed;
        (store, tail.map(|tail| DaySolve { sealed, tail }))
    }
}

/// Joins `parts` in order into one store of `badge`, reserved to size,
/// leaving out the proximity column and, unless `with_scans`, the scans.
fn join(badge: BadgeId, parts: &[&TelemetryStore], with_scans: bool) -> TelemetryStore {
    fn column<T: Clone>(
        parts: &[&TelemetryStore],
        of: impl Fn(&TelemetryStore) -> &Column<T>,
    ) -> Column<T> {
        let mut out = Column::with_capacity(parts.iter().map(|p| of(p).len()).sum());
        for part in parts {
            out.append(of(part).view());
        }
        out
    }
    TelemetryStore {
        badge,
        scans: if with_scans {
            let mut scans = ScanColumn::with_capacity(
                parts.iter().map(|p| p.scans.len()).sum(),
                parts.iter().map(|p| p.scans.hit_count()).sum(),
            );
            for part in parts {
                scans.append(part.scans.view());
            }
            scans
        } else {
            ScanColumn::new()
        },
        audio: column(parts, |s| &s.audio),
        imu: column(parts, |s| &s.imu),
        env: column(parts, |s| &s.env),
        proximity: Column::new(),
        ir: column(parts, |s| &s.ir),
        sync: column(parts, |s| &s.sync),
        bytes_written: parts.iter().map(|p| p.bytes_written).sum(),
    }
}

/// Live (unreplicated) per-tenant state owned by a shard's primary.
struct TenantLive {
    day: BTreeMap<BadgeId, BadgeDay>,
    analysis: Arc<MissionAnalysis>,
    counts: TenantCounts,
}

impl TenantLive {
    fn fresh(ctx: &MissionContext) -> Self {
        TenantLive {
            day: BTreeMap::new(),
            analysis: Arc::new(MissionAnalysis::new(&ctx.plan)),
            counts: TenantCounts::default(),
        }
    }

    /// Seals every badge's tail, solving its scans, and snapshots the
    /// segment lists: a checkpoint shares the day's telemetry instead of
    /// copying it.
    fn checkpoint(
        &mut self,
        ctx: &MissionContext,
        metrics: &mut EngineMetrics,
    ) -> TenantCheckpoint {
        TenantCheckpoint {
            segments: self
                .day
                .iter_mut()
                .map(|(&badge, day)| (badge, day.seal(ctx, metrics)))
                .collect(),
            analysis: Arc::clone(&self.analysis),
            counts: self.counts,
        }
    }

    fn restore(ckpt: &TenantCheckpoint) -> Self {
        TenantLive {
            day: ckpt
                .segments
                .iter()
                .map(|(badge, sealed)| {
                    let day = BadgeDay {
                        sealed: sealed.clone(),
                        ..BadgeDay::new(*badge)
                    };
                    (*badge, day)
                })
                .collect(),
            analysis: Arc::clone(&ckpt.analysis),
            counts: ckpt.counts,
        }
    }
}

/// Final per-tenant results of an ingest run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The accumulated mission analysis — the byte-identity artifact.
    pub analysis: MissionAnalysis,
    /// Telemetry records applied for this tenant.
    pub records: u64,
    /// Mission days folded into `analysis`.
    pub days: u64,
}

/// Final per-shard results of an ingest run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// WAL entries appended (records + day ends).
    pub wal_appended: u64,
    /// Failovers: backups promoted after a primary loss.
    pub failovers: u64,
    /// Recoveries that restored from a vault checkpoint.
    pub replays: u64,
    /// WAL entries re-applied across all recoveries.
    pub wal_replayed: u64,
    /// The widest checkpoint-to-promotion gap closed by WAL replay.
    pub max_replay_gap: SimDuration,
    /// Checkpoints accepted by the vault.
    pub checkpoints: u64,
    /// Checkpoints lost to `BusDrop` replication outages.
    pub checkpoints_dropped: u64,
    /// Checkpoint offers the vault rejected as stale.
    pub checkpoints_rejected: u64,
    /// Scans of the closed days solved when a checkpoint sealed their
    /// segment rather than at the day end. Depends on where checkpoints cut
    /// the day, so a faulted run differs from a clean one.
    pub scans_presolved: u64,
    /// Badge-days whose scans were solved at the day end instead, because a
    /// segment started before a scan already solved. Depends on where
    /// checkpoints cut the day.
    pub presolve_fallbacks: u64,
    /// Records shed at the front door, per family label.
    pub dropped: Vec<(&'static str, u64)>,
    /// High-water mark of the shard's bounded queue.
    pub queue_peak: usize,
    /// Per-tenant results, sorted by tenant id.
    pub tenants: Vec<(TenantId, TenantReport)>,
    /// Engine metrics for all day analyses this shard ran (replays included).
    pub metrics: EngineMetrics,
    /// The failure detector's event log.
    pub failover_log: Vec<(SimTime, FailoverEvent)>,
}

/// The collected outcome of [`IngestServer::finish`].
#[derive(Debug, Clone)]
pub struct IngestRunReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl IngestRunReport {
    /// Looks up one tenant's report.
    #[must_use]
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.shards
            .iter()
            .flat_map(|s| &s.tenants)
            .find(|(t, _)| *t == tenant)
            .map(|(_, r)| r)
    }

    /// Total records applied across all shards and tenants.
    #[must_use]
    pub fn records_applied(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.tenants)
            .map(|(_, r)| r.records)
            .sum()
    }

    /// Total records shed at the front door.
    #[must_use]
    pub fn records_dropped(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.dropped)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Total failovers survived.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Rows for [`ares_sociometrics::report::ingest_section`] — the bridge
    /// from the ingest plane into the mission report.
    #[must_use]
    pub fn report_rows(&self) -> Vec<IngestShardRow> {
        self.shards
            .iter()
            .map(|s| IngestShardRow {
                shard: s.shard,
                ingested: s.tenants.iter().map(|(_, r)| r.records).sum(),
                dropped: s
                    .dropped
                    .iter()
                    .map(|&(label, n)| (label.to_string(), n))
                    .collect(),
                queue_peak: s.queue_peak,
                failovers: s.failovers,
                checkpoints: s.checkpoints,
                scans_presolved: s.scans_presolved,
                presolve_fallbacks: s.presolve_fallbacks,
            })
            .collect()
    }
}

/// Guard returned by [`IngestServer::pause_shard`]; dropping it resumes the
/// shard.
#[derive(Debug)]
pub struct PauseGuard {
    _tx: mpsc::Sender<()>,
}

/// The multi-tenant ingest front door. See the module docs for the
/// recovery protocol.
#[derive(Debug)]
pub struct IngestServer {
    config: IngestConfig,
    queues: Vec<Arc<ShardQueue>>,
    handles: Vec<JoinHandle<ShardReport>>,
    bus: Bus,
}

/// Closes every queue, so the shard threads drain what is left and exit
/// even when [`IngestServer::finish`] is never called.
impl Drop for IngestServer {
    fn drop(&mut self) {
        for queue in &self.queues {
            queue.close();
        }
    }
}

impl IngestServer {
    /// Spawns one worker thread per shard and starts serving. Faults in
    /// `plan` are compiled per shard and drive the failure simulation.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero shards, replicas, or queue capacity, or
    /// more than 256 replicas in all (`shards × replicas_per_shard`): every
    /// replica needs its own [`ReplicaId`], or a fault plan aimed at one
    /// shard would hit another. It panics before it spawns any thread.
    #[must_use]
    pub fn spawn(config: IngestConfig, ctx: &MissionContext, bus: Bus, plan: &FaultPlan) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.replicas_per_shard > 0, "need at least one replica");
        assert!(
            config
                .shards
                .checked_mul(usize::from(config.replicas_per_shard))
                .is_some_and(|n| n <= 256),
            "more than 256 replicas: shards × replicas_per_shard must fit the ReplicaId space"
        );
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let horizon = config.span.end + SimDuration::from_hours(24);
        let mut queues = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let queue = Arc::new(ShardQueue::new(config.queue_capacity));
            let worker = ShardWorker::new(
                shard,
                &config,
                ctx.clone(),
                bus.clone(),
                FaultScheduler::compile(plan, horizon),
                Arc::clone(&queue),
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ingest-shard-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard thread"),
            );
            queues.push(queue);
        }
        IngestServer {
            config,
            queues,
            handles,
            bus,
        }
    }

    /// Offers one record. Returns whether it was enqueued: under
    /// [`BackpressurePolicy::Block`] this blocks until the shard has room
    /// and always returns `true`; under [`BackpressurePolicy::Shed`] a full
    /// queue drops the record, bumps the typed counter, and returns `false`.
    pub fn submit(&self, tenant: TenantId, badge: BadgeId, record: TelemetryRecord) -> bool {
        let shard = self.config.shard_of(tenant);
        let kind = record.kind();
        let shed = (self.config.policy == BackpressurePolicy::Shed).then_some(kind);
        let msg = ShardMsg::Record {
            tenant,
            badge,
            record,
        };
        let Err((n, total)) = self.queues[shard].push_data(msg, shed) else {
            return true;
        };
        if (total - 1).is_multiple_of(DROP_PUBLISH_EVERY) {
            self.bus.publish(
                Topic::Ingest,
                Message {
                    from: format!("ingest/shard{shard}"),
                    payload: format!(
                        "{{\"shed\": \"{}\", \"kind_dropped\": {n}, \
                         \"shard_dropped\": {total}}}",
                        kind.label()
                    ),
                },
            );
        }
        false
    }

    /// Marks the end of `tenant`'s mission day `day` at time `at`: the shard
    /// runs the seven-stage day analysis and folds it into the tenant's
    /// `MissionAnalysis`. Day ends are never shed — this always blocks.
    pub fn end_day(&self, tenant: TenantId, day: u32, at: SimTime) {
        let shard = self.config.shard_of(tenant);
        self.queues[shard]
            .push_data(ShardMsg::DayEnd { tenant, day, at }, None)
            .expect("a blocking push never sheds");
    }

    /// Parks a shard until the returned guard is dropped. Test hook: with a
    /// shard parked, the bounded queue fills deterministically and both
    /// backpressure policies can be observed without racing the consumer.
    /// Returns only once the shard has actually parked (it drains anything
    /// queued ahead of the pause first).
    #[must_use]
    pub fn pause_shard(&self, shard: usize) -> PauseGuard {
        let (ack_tx, ack_rx) = mpsc::channel();
        let (tx, rx) = mpsc::channel();
        self.queues[shard].push_control(ShardMsg::Pause {
            ack: ack_tx,
            parked: rx,
        });
        ack_rx.recv().expect("shard acked the pause");
        PauseGuard { _tx: tx }
    }

    /// Current depth of a shard's bounded queue: records and day ends
    /// submitted and not yet applied.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.queues[shard].lock().depth
    }

    /// Records shed so far on a shard, per family.
    #[must_use]
    pub fn dropped(&self, shard: usize) -> Vec<(&'static str, u64)> {
        dropped_by_kind(&self.queues[shard].lock())
    }

    /// Shuts every shard down, joins the workers, and returns the collected
    /// run report.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread panicked.
    #[must_use]
    pub fn finish(mut self) -> IngestRunReport {
        for queue in &self.queues {
            queue.close();
        }
        let shards = std::mem::take(&mut self.handles)
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        IngestRunReport { shards }
    }
}

fn dropped_by_kind(st: &QueueState) -> Vec<(&'static str, u64)> {
    RecordKind::ALL
        .into_iter()
        .map(|k| (k.label(), st.dropped[k.index()]))
        .collect()
}

/// What a shard's primary serves: every tenant's live state, plus the engine
/// metrics of the day analyses it ran (replays included).
struct ShardState {
    ctx: MissionContext,
    live: BTreeMap<TenantId, TenantLive>,
    metrics: EngineMetrics,
}

impl ReplicaState for ShardState {
    type Entry = WalEntry;
    type Checkpoint = Vec<(TenantId, TenantCheckpoint)>;
    type Output = ();

    /// The deterministic data plane. It borrows the entry from the WAL, so a
    /// record is owned once, by the log.
    fn apply(&mut self, entry: &WalEntry, _: &mut Vec<()>) {
        let (WalEntry::Record { tenant, .. } | WalEntry::DayEnd { tenant, .. }) = entry;
        let live = self
            .live
            .entry(*tenant)
            .or_insert_with(|| TenantLive::fresh(&self.ctx));
        match entry {
            WalEntry::Record { badge, record, .. } => {
                let day = live
                    .day
                    .entry(*badge)
                    .or_insert_with(|| BadgeDay::new(*badge));
                record.push_into(&mut day.tail);
                live.counts.records += 1;
            }
            WalEntry::DayEnd { day, .. } => {
                // Close each badge's day; the tenant starts the next day with
                // an empty map.
                let (stores, solved): (Vec<TelemetryStore>, Vec<Option<DaySolve>>) =
                    std::mem::take(&mut live.day)
                        .into_values()
                        .map(|d| d.close(&self.ctx, &mut self.metrics))
                        .unzip();
                for (store, solve) in stores.iter().zip(&solved) {
                    match solve {
                        Some(solve) => live.counts.scans_presolved += solve.presolved(),
                        None if store.badge != BadgeId::REFERENCE => {
                            live.counts.presolve_fallbacks += 1;
                        }
                        None => {}
                    }
                }
                let pieces: Vec<Option<Vec<&SolvedScans>>> = solved
                    .iter()
                    .map(|s| s.as_ref().map(DaySolve::pieces))
                    .collect();
                let analysis =
                    analyze_day_solved(&self.ctx, *day, &stores, &pieces, &mut self.metrics);
                // Clones the mission analysis only while the vault shares it.
                Arc::make_mut(&mut live.analysis).absorb(analysis);
                live.counts.days += 1;
            }
        }
    }

    fn checkpoint(&mut self, _: SimTime) -> Self::Checkpoint {
        let (ctx, metrics) = (&self.ctx, &mut self.metrics);
        self.live
            .iter_mut()
            .map(|(t, l)| (*t, l.checkpoint(ctx, metrics)))
            .collect()
    }

    fn restore(&mut self, ckpt: &Self::Checkpoint) {
        self.live = ckpt
            .iter()
            .map(|(t, c)| (*t, TenantLive::restore(c)))
            .collect();
    }
}

/// The state owned by one shard thread.
struct ShardWorker {
    shard: usize,
    bus: Bus,
    queue: Arc<ShardQueue>,
    service: Replicated<ShardState>,
}

impl ShardWorker {
    fn new(
        shard: usize,
        config: &IngestConfig,
        ctx: MissionContext,
        bus: Bus,
        sched: FaultScheduler,
        queue: Arc<ShardQueue>,
    ) -> Self {
        let state = ShardState {
            ctx,
            live: BTreeMap::new(),
            metrics: EngineMetrics::new(),
        };
        ShardWorker {
            shard,
            bus,
            queue,
            service: Replicated::new(
                format!("ingest-shard-{shard}"),
                &config.replica_set(shard),
                config.heartbeat_deadline,
                config.checkpoint_every,
                config.span.start,
                sched,
                state,
            ),
        }
    }

    fn run(mut self) -> ShardReport {
        let queue = CloseOnDrop(Arc::clone(&self.queue));
        let mut batch = VecDeque::new();
        let mut applied = 0;
        while queue.0.take(&mut batch, std::mem::take(&mut applied)) {
            for msg in batch.drain(..) {
                match msg {
                    ShardMsg::Record {
                        tenant,
                        badge,
                        record,
                    } => {
                        self.advance(record.t_local());
                        self.service.append(WalEntry::Record {
                            tenant,
                            badge,
                            record,
                        });
                    }
                    ShardMsg::DayEnd { tenant, day, at } => {
                        self.advance(at);
                        self.service.append(WalEntry::DayEnd { tenant, day });
                    }
                    ShardMsg::Pause { ack, parked } => {
                        queue.0.give_back(std::mem::take(&mut applied));
                        let _ = ack.send(());
                        // Blocks until the guard (the sender) is dropped.
                        let _ = parked.recv();
                        continue;
                    }
                }
                applied += 1;
                if applied == GIVE_BACK_EVERY {
                    queue.0.give_back(std::mem::take(&mut applied));
                }
            }
        }
        self.into_report()
    }

    /// Advances the shard's service to `t` and publishes its promotions and
    /// outages on the bus.
    fn advance(&mut self, t: SimTime) {
        for ev in self.service.advance(t) {
            let clock = self.service.clock();
            match ev {
                FailoverEvent::Promoted(p) => {
                    self.publish_control(&format!("{{\"promoted\": {}, \"at\": \"{clock}\"}}", p.0))
                }
                FailoverEvent::ServiceDown => {
                    self.publish_control(&format!("{{\"service_down\": \"{clock}\"}}"));
                }
                _ => {}
            }
        }
    }

    fn publish_control(&self, payload: &str) {
        self.bus.publish(
            Topic::Ingest,
            Message {
                from: format!("ingest/shard{}", self.shard),
                payload: payload.to_string(),
            },
        );
    }

    fn into_report(self) -> ShardReport {
        let (dropped, queue_peak) = {
            let st = self.queue.lock();
            (dropped_by_kind(&st), st.peak)
        };
        let stats = self.service.stats();
        let wal_appended = self.service.appended();
        let failover_log = self.service.detector().log().to_vec();
        let state = self.service.into_state();
        let counts = state.live.values().map(|l| l.counts);
        let scans_presolved = counts.clone().map(|c| c.scans_presolved).sum();
        let presolve_fallbacks = counts.map(|c| c.presolve_fallbacks).sum();
        ShardReport {
            shard: self.shard,
            wal_appended,
            failovers: stats.failovers,
            replays: stats.replays,
            wal_replayed: stats.replayed,
            max_replay_gap: stats.max_replay_gap,
            checkpoints: stats.checkpoints,
            checkpoints_dropped: stats.checkpoints_dropped,
            checkpoints_rejected: stats.checkpoints_rejected,
            scans_presolved,
            presolve_fallbacks,
            dropped,
            queue_peak,
            tenants: state
                .live
                .into_iter()
                .map(|(t, l)| {
                    (
                        t,
                        TenantReport {
                            analysis: Arc::unwrap_or_clone(l.analysis),
                            records: l.counts.records,
                            days: l.counts.days,
                        },
                    )
                })
                .collect(),
            metrics: state.metrics,
            failover_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failover::Snapshot;

    fn sync_at(day: u32, h: u32, m: u32, s: u32) -> TelemetryRecord {
        let t = SimTime::from_day_hms(day, h, m, s);
        TelemetryRecord::Sync(SyncSample {
            t_local: t,
            t_reference: t,
        })
    }

    fn config(shards: usize, capacity: usize, policy: BackpressurePolicy) -> IngestConfig {
        IngestConfig {
            shards,
            queue_capacity: capacity,
            policy,
            ..IngestConfig::icares_day(1)
        }
    }

    #[test]
    fn tenants_pin_to_shards_and_replica_ids_are_global() {
        let cfg = config(2, 16, BackpressurePolicy::Block);
        assert_eq!(cfg.shard_of(TenantId(0)), 0);
        assert_eq!(cfg.shard_of(TenantId(1)), 1);
        assert_eq!(cfg.shard_of(TenantId(2)), 0);
        // Replica ids never collide across shards: fault plans can target
        // exactly one shard's primary.
        assert_eq!(cfg.replica(0, 0), ReplicaId(0));
        assert_eq!(cfg.replica(0, 2), ReplicaId(2));
        assert_eq!(cfg.replica(1, 0), ReplicaId(3));
        assert_eq!(cfg.replica(1, 2), ReplicaId(5));
    }

    /// One record of every family at `t`; `k` varies the payloads.
    fn one_of_each(t: SimTime, k: u8) -> [TelemetryRecord; 7] {
        let x = f64::from(k);
        [
            TelemetryRecord::Scan(BeaconScan {
                t_local: t,
                hits: Vec::new(),
            }),
            TelemetryRecord::Audio(AudioFrame {
                t_local: t,
                level_db: 40.0 + x,
                voiced: false,
                f0_hz: None,
            }),
            TelemetryRecord::Imu(ImuSample {
                t_local: t,
                accel_var: 0.1 * x,
                accel_mean: 9.8,
                step_hz: None,
            }),
            TelemetryRecord::Env(EnvSample {
                t_local: t,
                temperature_c: 21.0 + x,
                pressure_hpa: 1013.0,
                light_lux: 300.0,
            }),
            TelemetryRecord::Proximity(ProximityObs {
                t_local: t,
                other: BadgeId(k % 3),
                rssi: -60.0 - x,
            }),
            TelemetryRecord::Ir(IrContact {
                t_local: t,
                other: BadgeId(k % 5),
            }),
            TelemetryRecord::Sync(SyncSample {
                t_local: t,
                t_reference: t + SimDuration::from_secs(i64::from(k)),
            }),
        ]
    }

    #[test]
    fn record_kinds_cover_every_record() {
        let t = SimTime::from_day_hms(1, 8, 0, 0);
        let records = one_of_each(t, 1);
        let kinds: Vec<RecordKind> = records.iter().map(TelemetryRecord::kind).collect();
        assert_eq!(kinds, RecordKind::ALL.to_vec());
        for r in &records {
            assert_eq!(r.t_local(), t);
        }
    }

    /// Flattening stores and pushing the feed back, badge by badge, gives
    /// the stores back: equal timestamps, across families and within one
    /// column, keep their order.
    #[test]
    fn wire_feed_round_trips_into_per_badge_stores() {
        let mut stores: Vec<TelemetryStore> =
            (0..3).map(|b| TelemetryStore::new(BadgeId(b))).collect();
        for k in 0..40u8 {
            // Two rounds share each timestamp; badge 2 runs a minute behind.
            let minute = u32::from(k / 2);
            for store in &mut stores {
                let lag = u32::from(store.badge.0 / 2);
                let t = SimTime::from_day_hms(1, 8, minute + lag, 0);
                for r in one_of_each(t, k.wrapping_mul(7) ^ store.badge.0) {
                    r.push_into(store);
                }
            }
        }
        let feed = wire_feed(&stores);
        assert_eq!(feed.len(), 3 * 40 * 7);
        assert!(feed
            .windows(2)
            .all(|w| w[0].1.t_local() <= w[1].1.t_local()));
        let mut back: Vec<TelemetryStore> = stores
            .iter()
            .map(|s| TelemetryStore::new(s.badge))
            .collect();
        for (badge, record) in feed {
            record.push_into(&mut back[usize::from(badge.0)]);
        }
        assert_eq!(back, stores);
    }

    #[test]
    #[should_panic(expected = "more than 256 replicas")]
    fn spawn_rejects_replica_ids_that_would_wrap() {
        // 86 × 3 = 258 replicas: shard 85's replica 1 would be id 256, and a
        // u8 id wraps it onto shard 0's primary.
        let cfg = IngestConfig {
            shards: 86,
            ..config(1, 4, BackpressurePolicy::Block)
        };
        let _ = IngestServer::spawn(
            cfg,
            &MissionContext::icares(),
            Bus::new(),
            &FaultPlan::new(1),
        );
    }

    #[test]
    fn shed_policy_drops_typed_counts_and_publishes_on_the_bus() {
        let ctx = MissionContext::icares();
        let bus = Bus::new();
        let shed_watch = bus.subscribe(Topic::Ingest);
        let cfg = config(1, 4, BackpressurePolicy::Shed);
        let server = IngestServer::spawn(cfg, &ctx, bus, &FaultPlan::new(1));
        let pause = server.pause_shard(0);
        // With the shard parked the bounded queue fills deterministically:
        // four fit, the rest shed — one more drop than the publish cadence.
        let submitted = 4 + DROP_PUBLISH_EVERY as u32 + 1;
        let mut accepted = 0;
        for i in 0..submitted {
            if server.submit(TenantId(0), BadgeId(0), sync_at(1, 8, 0, i)) {
                accepted += 1;
            }
        }
        let shed = u64::from(submitted - 4);
        assert_eq!(accepted, 4);
        assert_eq!(server.queue_depth(0), 4);
        let dropped = server.dropped(0);
        assert!(
            dropped.contains(&("sync", shed)),
            "typed counter: {dropped:?}"
        );
        assert_eq!(
            shed_watch.drain().len(),
            2,
            "the first drop and the one a cadence later publish"
        );
        drop(pause);
        let report = server.finish();
        assert_eq!(report.records_applied(), 4);
        assert_eq!(report.records_dropped(), shed);
        assert_eq!(report.shards[0].queue_peak, 4);
        let rows = report.report_rows();
        assert_eq!(rows[0].dropped_total(), shed);
        assert_eq!(rows[0].queue_peak, 4);
    }

    #[test]
    fn block_policy_is_lossless_even_through_a_full_queue() {
        let ctx = MissionContext::icares();
        let cfg = config(1, 2, BackpressurePolicy::Block);
        let server = std::sync::Arc::new(IngestServer::spawn(
            cfg,
            &ctx,
            Bus::new(),
            &FaultPlan::new(1),
        ));
        let pause = server.pause_shard(0);
        let producer = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || {
                // Far more than capacity 2: the producer must block on the
                // parked shard, then drain completely once it resumes.
                for i in 0..50u32 {
                    assert!(server.submit(TenantId(0), BadgeId(0), sync_at(1, 9, 0, i)));
                }
            })
        };
        drop(pause);
        producer.join().expect("producer");
        let server = std::sync::Arc::into_inner(server).expect("sole owner");
        let report = server.finish();
        assert_eq!(report.records_applied(), 50, "nothing lost under Block");
        assert_eq!(report.records_dropped(), 0);
        let tenant = report.tenant(TenantId(0)).expect("tenant served");
        assert_eq!(tenant.records, 50);
    }

    /// The bound counts the shard's batch too: a producer flooding a small
    /// queue never sees more than `queue_capacity` records unapplied.
    #[test]
    fn block_policy_holds_the_queue_bound_exactly() {
        let ctx = MissionContext::icares();
        let server = Arc::new(IngestServer::spawn(
            config(1, 8, BackpressurePolicy::Block),
            &ctx,
            Bus::new(),
            &FaultPlan::new(1),
        ));
        let producer = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                for i in 0..5_000u32 {
                    let record = sync_at(1, 8 + i / 3600, i / 60 % 60, i % 60);
                    assert!(server.submit(TenantId(0), BadgeId(0), record));
                }
            })
        };
        producer.join().expect("producer");
        let server = Arc::into_inner(server).expect("sole owner");
        let queue = Arc::clone(&server.queues[0]);
        let report = server.finish();
        assert_eq!(report.records_applied(), 5_000);
        assert!(
            report.shards[0].queue_peak <= 8,
            "peak {} over capacity 8",
            report.shards[0].queue_peak
        );
        assert_eq!(queue.lock().depth, 0, "every slot given back");
    }

    /// A server dropped without `finish` still lets its shard threads end.
    #[test]
    fn dropping_the_server_lets_the_shards_exit() {
        let (done_tx, done_rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut server = IngestServer::spawn(
                config(2, 4, BackpressurePolicy::Block),
                &MissionContext::icares(),
                Bus::new(),
                &FaultPlan::new(1),
            );
            for i in 0..20u32 {
                assert!(server.submit(TenantId(0), BadgeId(0), sync_at(1, 8, 0, i)));
            }
            let handles = std::mem::take(&mut server.handles);
            drop(server);
            for h in handles {
                h.join().expect("shard thread ended cleanly");
            }
            done_tx.send(()).expect("test waits");
        });
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .is_ok(),
            "shard threads still running after the server was dropped"
        );
        helper.join().expect("helper");
    }

    #[test]
    fn day_end_folds_an_analysis_and_checkpoints_follow_cadence() {
        let ctx = MissionContext::icares();
        let cfg = config(1, 64, BackpressurePolicy::Block);
        let server = IngestServer::spawn(cfg, &ctx, Bus::new(), &FaultPlan::new(1));
        // One record per minute for two hours: the 15-minute cadence should
        // accept several checkpoints along the way.
        for m in 0..120u32 {
            let _ = server.submit(TenantId(0), BadgeId(0), sync_at(1, 8 + m / 60, m % 60, 0));
        }
        server.end_day(TenantId(0), 1, SimTime::from_day_hms(2, 0, 0, 0));
        let report = server.finish();
        let shard = &report.shards[0];
        assert!(shard.checkpoints >= 7, "cadence ran: {}", shard.checkpoints);
        assert_eq!(shard.checkpoints_dropped, 0);
        assert_eq!(shard.failovers, 0, "no faults, no failovers");
        let tenant = report.tenant(TenantId(0)).expect("tenant served");
        assert_eq!(tenant.days, 1);
        assert_eq!(tenant.records, 120);
    }

    /// Checkpoints are incremental: a record is sealed into a segment once
    /// and every later checkpoint shares that segment instead of copying it.
    #[test]
    fn consecutive_checkpoints_share_sealed_segments_and_leave_tails_empty() {
        let ctx = MissionContext::icares();
        let cfg = config(1, 16, BackpressurePolicy::Block);
        let horizon = cfg.span.end + SimDuration::from_hours(24);
        let mut worker = ShardWorker::new(
            0,
            &cfg,
            ctx,
            Bus::new(),
            FaultScheduler::compile(&FaultPlan::new(1), horizon),
            Arc::new(ShardQueue::new(1)),
        );
        let mut accepted: Vec<Snapshot<Vec<(TenantId, TenantCheckpoint)>>> = Vec::new();
        for m in 0..90u32 {
            for (tenant, badge) in [(0, 0), (0, 1), (1, 0)] {
                let record = sync_at(1, 8 + m / 60, m % 60, 0);
                worker.advance(record.t_local());
                worker.service.append(WalEntry::Record {
                    tenant: TenantId(tenant),
                    badge: BadgeId(badge),
                    record,
                });
                if worker.service.stats().checkpoints > accepted.len() as u64 {
                    for live in worker.service.state().live.values() {
                        for day in live.day.values() {
                            assert_eq!(day.tail.record_count(), 0, "tail left open");
                        }
                    }
                    let (_, snap) = worker.service.vault().latest().expect("accepted");
                    accepted.push(snap.clone());
                }
            }
        }
        assert!(accepted.len() >= 4, "cadence ran: {}", accepted.len());
        for pair in accepted.windows(2) {
            let (first, second) = (&pair[0], &pair[1]);
            assert!(second.cursor > first.cursor);
            // Tenants and badges only join as their first record arrives.
            for (tenant, a) in &first.state {
                let (_, b) = second
                    .state
                    .iter()
                    .find(|(t, _)| t == tenant)
                    .expect("a tenant stays in later checkpoints");
                for (badge, old) in &a.segments {
                    let (_, new) = b
                        .segments
                        .iter()
                        .find(|(id, _)| id == badge)
                        .expect("a badge stays for the rest of its day");
                    assert!(new.len() > old.len(), "each checkpoint seals new records");
                    for (x, y) in old.iter().zip(new) {
                        assert!(Arc::ptr_eq(x, y), "a sealed segment was copied");
                    }
                }
            }
        }
    }
}
