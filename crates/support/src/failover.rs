//! Replicated analysis units with heartbeat failover.
//!
//! "Components of the habitat, and hence the system, may fail and thus have
//! to be replicated so that a partial failure or unavailability of some
//! functionality does not hinder the success of the entire mission."
//!
//! The model: a service (say, the localization unit) runs as a *primary*
//! with one or more *backups* in a fixed priority order. Every unit emits
//! heartbeats; a deterministic failure detector promotes the highest-priority
//! live unit when the primary misses its deadline. Promotion is sticky
//! (no flapping): a recovered unit rejoins as a backup.
//!
//! [`Replicated`] is the one repair protocol every replicated service runs:
//! heartbeats → detector → promotion → vault restore → log replay → cadence
//! checkpoint, over any state that can apply, checkpoint and restore. The
//! ingest shard, the chaos drill and the fleet availability drill are its
//! three users.

use crate::chaos::{Fault, FaultPlan, FaultScheduler};
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt::Debug;

/// Identifier of a replica of a service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReplicaId(pub u8);

/// The role a replica currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Serving requests.
    Primary,
    /// Standing by, in priority order.
    Backup,
    /// Declared failed by the detector.
    Down,
}

/// A failover event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailoverEvent {
    /// A replica was declared failed.
    Failed(ReplicaId),
    /// A replica was promoted to primary.
    Promoted(ReplicaId),
    /// A previously failed replica rejoined as backup.
    Rejoined(ReplicaId),
    /// No live replica remains — total service outage. Emitted once at the
    /// start of an outage, not on every detector tick while it lasts.
    ServiceDown,
    /// A primary exists again after a total outage.
    ServiceRestored,
}

/// The failure detector + role manager of one replicated service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedService {
    name: String,
    heartbeat_deadline: SimDuration,
    replicas: Vec<(ReplicaId, Role, SimTime)>, // priority order; last heartbeat
    log: Vec<(SimTime, FailoverEvent)>,
    /// Whether the service is currently in a total outage (no primary and
    /// nothing promotable); gates the one-shot `ServiceDown` event.
    service_down: bool,
}

impl ReplicatedService {
    /// Creates a service with replicas in priority order; the first starts
    /// as primary. `heartbeat_deadline` is the silence span after which a
    /// replica is declared failed.
    ///
    /// # Panics
    ///
    /// Panics if no replicas are given.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        replicas: &[ReplicaId],
        heartbeat_deadline: SimDuration,
        now: SimTime,
    ) -> Self {
        assert!(!replicas.is_empty(), "service needs at least one replica");
        let replicas = replicas
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, if i == 0 { Role::Primary } else { Role::Backup }, now))
            .collect();
        ReplicatedService {
            name: name.into(),
            heartbeat_deadline,
            replicas,
            log: Vec::new(),
            service_down: false,
        }
    }

    /// The service name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current primary, if any replica is alive.
    #[must_use]
    pub fn primary(&self) -> Option<ReplicaId> {
        self.replicas
            .iter()
            .find(|(_, role, _)| *role == Role::Primary)
            .map(|&(id, _, _)| id)
    }

    /// A replica's current role.
    #[must_use]
    pub fn role_of(&self, id: ReplicaId) -> Option<Role> {
        self.replicas
            .iter()
            .find(|&&(r, _, _)| r == id)
            .map(|&(_, role, _)| role)
    }

    /// The failover event log.
    #[must_use]
    pub fn log(&self) -> &[(SimTime, FailoverEvent)] {
        &self.log
    }

    /// Records a heartbeat from a replica. A heartbeat from a `Down` replica
    /// re-admits it as a backup (lowest effective priority is preserved by
    /// its position).
    pub fn heartbeat(&mut self, id: ReplicaId, now: SimTime) {
        let mut rejoined = false;
        for (r, role, last) in &mut self.replicas {
            if *r == id {
                *last = now;
                if *role == Role::Down {
                    *role = Role::Backup;
                    rejoined = true;
                }
            }
        }
        if rejoined {
            self.log.push((now, FailoverEvent::Rejoined(id)));
            // A rejoin never demotes the current primary.
        }
    }

    /// Runs the failure detector at `now`; returns the events raised.
    pub fn tick(&mut self, now: SimTime) -> Vec<FailoverEvent> {
        let mut events = Vec::new();
        // Declare overdue replicas failed.
        for (id, role, last) in &mut self.replicas {
            if *role != Role::Down && now - *last > self.heartbeat_deadline {
                *role = Role::Down;
                events.push(FailoverEvent::Failed(*id));
            }
        }
        // Ensure exactly one primary among the living.
        let has_primary = self
            .replicas
            .iter()
            .any(|(_, role, _)| *role == Role::Primary);
        if !has_primary {
            if let Some((id, role, _)) = self
                .replicas
                .iter_mut()
                .find(|(_, role, _)| *role == Role::Backup)
            {
                *role = Role::Primary;
                events.push(FailoverEvent::Promoted(*id));
            } else if !self.service_down {
                self.service_down = true;
                events.push(FailoverEvent::ServiceDown);
            }
        }
        if self.service_down
            && self
                .replicas
                .iter()
                .any(|(_, role, _)| *role == Role::Primary)
        {
            self.service_down = false;
            events.push(FailoverEvent::ServiceRestored);
        }
        for &e in &events {
            self.log.push((now, e));
        }
        events
    }
}

/// Replicated checkpoint store shared by a service's replicas.
///
/// The primary offers snapshots on a schedule; backups hold the latest
/// replicated copy. A promoted backup resumes from [`CheckpointVault::latest`]
/// and replays only the records since `taken_at` — the *replay gap* — instead
/// of losing the whole day. Ordering is enforced by the vault: an offer must
/// be **strictly newer** than the held snapshot or it is rejected. A lagging
/// replica (or a replayed replication message) re-offering an old — or
/// equal-time but stale — snapshot must never overwrite the established
/// state the next promotion will restore from.
#[derive(Debug, Clone)]
pub struct CheckpointVault<T> {
    latest: Option<(SimTime, T)>,
    offered: u64,
    rejected: u64,
}

impl<T> Default for CheckpointVault<T> {
    fn default() -> Self {
        CheckpointVault {
            latest: None,
            offered: 0,
            rejected: 0,
        }
    }
}

impl<T: Clone> CheckpointVault<T> {
    /// An empty vault.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Replicates a snapshot taken at `at`. Returns whether the vault
    /// accepted it: offers not strictly newer than [`CheckpointVault::latest`]
    /// are rejected (and counted), so out-of-order replication can never roll
    /// the vault back.
    pub fn offer(&mut self, at: SimTime, snapshot: T) -> bool {
        self.offered += 1;
        if self.latest.as_ref().is_none_or(|&(t, _)| at > t) {
            self.latest = Some((at, snapshot));
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// The newest replicated snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<(SimTime, &T)> {
        self.latest.as_ref().map(|(t, s)| (*t, s))
    }

    /// Snapshots offered over the vault's life.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Offers rejected for being no newer than the held snapshot.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// The state a [`Replicated`] service serves. Applying an entry must be
/// deterministic and restoring a checkpoint exact: the same `apply` runs live
/// and in replay, so a recovered state equals an unfaulted one.
pub trait ReplicaState {
    /// One logged input.
    type Entry: Debug;
    /// A snapshot of the state, replicated through the vault.
    type Checkpoint: Clone + Debug;
    /// What applying an entry emits downstream.
    type Output: Debug;

    /// Applies one entry, pushing whatever it emits onto `out`.
    fn apply(&mut self, entry: &Self::Entry, out: &mut Vec<Self::Output>);

    /// Snapshots the state at `at`.
    fn checkpoint(&mut self, at: SimTime) -> Self::Checkpoint;

    /// Replaces the state with a snapshot.
    fn restore(&mut self, ckpt: &Self::Checkpoint);
}

/// The unit state: the protocol alone, as the fleet availability drill runs it.
impl ReplicaState for () {
    type Entry = ();
    type Checkpoint = ();
    type Output = ();

    fn apply(&mut self, (): &(), _: &mut Vec<()>) {}

    fn checkpoint(&mut self, _: SimTime) {}

    fn restore(&mut self, (): &()) {}
}

/// A replicated snapshot: the state's checkpoint plus the log position and
/// output count it covers.
#[derive(Debug, Clone)]
pub struct Snapshot<C> {
    /// Sequence number of the last entry applied: replay starts after it.
    pub cursor: u64,
    /// Outputs emitted when the snapshot was taken.
    pub emitted: usize,
    /// The state's checkpoint.
    pub state: C,
}

/// The counters of a [`Replicated`] service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplicationStats {
    /// Backups promoted after a primary loss.
    pub failovers: u64,
    /// Promotions that restored a vault snapshot.
    pub replays: u64,
    /// Log entries re-applied across all promotions.
    pub replayed: u64,
    /// The widest snapshot-to-promotion gap closed by replay.
    pub max_replay_gap: SimDuration,
    /// Snapshots the vault accepted.
    pub checkpoints: u64,
    /// Snapshots lost to `BusDrop` replication outages.
    pub checkpoints_dropped: u64,
    /// Snapshots the vault rejected as stale.
    pub checkpoints_rejected: u64,
}

/// A replicated service, thread-free: the failure detector, the checkpoint
/// vault and cadence, a sequence-numbered log with the primary's applied
/// cursor, and the state `S` the primary serves. A [`FaultScheduler`] says
/// which replicas run and when replication fails.
///
/// Every entry is logged before it is applied. While a live primary serves,
/// [`Replicated::append`] applies every entry past the cursor — also those
/// logged while a crashed primary was down but not yet demoted — and then
/// takes a checkpoint if one is due. The cadence fires once whenever its
/// deadline has passed and re-arms past the clock, so a long gap collapses
/// into one checkpoint. An accepted snapshot truncates the log up to its
/// cursor. A promotion restores the vault's latest snapshot (or the initial
/// state) and replays the log past its cursor, dropping the outputs the
/// crashed primary had already emitted.
#[derive(Debug)]
pub struct Replicated<S: ReplicaState> {
    replicas: Vec<ReplicaId>,
    detector: ReplicatedService,
    faults: FaultScheduler,
    vault: CheckpointVault<Snapshot<S::Checkpoint>>,
    /// The initial state's checkpoint, restored while the vault is empty.
    genesis: S::Checkpoint,
    checkpoint_every: SimDuration,
    next_checkpoint: SimTime,
    /// Entries past `truncated`: `log[i]` has sequence number `truncated + 1 + i`.
    log: VecDeque<S::Entry>,
    truncated: u64,
    cursor: u64,
    clock: SimTime,
    state: S,
    outputs: Vec<S::Output>,
    stats: ReplicationStats,
}

impl<S: ReplicaState> Replicated<S> {
    /// A service whose `replicas`, in priority order, start at `start` with
    /// the first as primary serving `state`. `faults` drives crashes,
    /// heartbeat loss and replication outages.
    ///
    /// # Panics
    ///
    /// Panics if no replicas are given or `checkpoint_every` is not positive.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        replicas: &[ReplicaId],
        heartbeat_deadline: SimDuration,
        checkpoint_every: SimDuration,
        start: SimTime,
        faults: FaultScheduler,
        mut state: S,
    ) -> Self {
        assert!(
            checkpoint_every > SimDuration::ZERO,
            "cadence must be positive"
        );
        Replicated {
            replicas: replicas.to_vec(),
            detector: ReplicatedService::new(name, replicas, heartbeat_deadline, start),
            faults,
            vault: CheckpointVault::new(),
            genesis: state.checkpoint(start),
            checkpoint_every,
            next_checkpoint: start + checkpoint_every,
            log: VecDeque::new(),
            truncated: 0,
            cursor: 0,
            clock: start,
            state,
            outputs: Vec::new(),
            stats: ReplicationStats::default(),
        }
    }

    /// Advances the clock to `now` (never backwards) and runs the control
    /// plane: heartbeats from the replicas the fault plan lets through, the
    /// failure detector, and on a promotion the recovery. Returns the
    /// detector's events.
    pub fn advance(&mut self, now: SimTime) -> Vec<FailoverEvent> {
        self.clock = self.clock.max(now);
        for &id in &self.replicas {
            if self.faults.heartbeat_delivered(id, self.clock) {
                self.detector.heartbeat(id, self.clock);
            }
        }
        let events = self.detector.tick(self.clock);
        for ev in &events {
            if let FailoverEvent::Promoted(_) = ev {
                self.stats.failovers += 1;
                self.recover();
            }
        }
        events
    }

    /// Whether a primary exists and its process is running.
    #[must_use]
    pub fn serving(&self) -> bool {
        self.detector
            .primary()
            .is_some_and(|p| self.faults.replica_alive(p, self.clock))
    }

    /// Logs `entry` under the next sequence number. A serving primary then
    /// applies every entry past its cursor and takes a due checkpoint.
    pub fn append(&mut self, entry: S::Entry) {
        self.log.push_back(entry);
        if self.serving() {
            self.catch_up();
            if self.clock >= self.next_checkpoint {
                while self.next_checkpoint <= self.clock {
                    self.next_checkpoint += self.checkpoint_every;
                }
                self.checkpoint();
            }
        }
    }

    /// Applies every logged entry past the cursor; returns how many.
    fn catch_up(&mut self) -> u64 {
        let from = usize::try_from(self.cursor - self.truncated).expect("log fits memory");
        for entry in self.log.range(from..) {
            self.state.apply(entry, &mut self.outputs);
        }
        self.cursor = self.appended();
        (self.log.len() - from) as u64
    }

    /// Rebuilds the state as a freshly promoted backup would: restore the
    /// vault's latest snapshot (or the initial state) and replay the log past
    /// its cursor. Outputs the replay regenerates that the crashed primary
    /// already emitted are duplicates: exactly that many are dropped.
    fn recover(&mut self) {
        let (ckpt, cursor, emitted) = match self.vault.latest() {
            Some((at, snap)) => {
                self.stats.replays += 1;
                self.stats.max_replay_gap = self.stats.max_replay_gap.max(self.clock - at);
                (&snap.state, snap.cursor, snap.emitted)
            }
            None => (&self.genesis, 0, 0),
        };
        self.state.restore(ckpt);
        self.cursor = cursor;
        let seen = self.outputs.len();
        self.stats.replayed += self.catch_up();
        let duplicates_end = (2 * seen - emitted).min(self.outputs.len());
        self.outputs.drain(seen..duplicates_end);
    }

    /// Offers a snapshot of the caught-up state to the vault, unless a
    /// `BusDrop` fault has the replication link down; an accepted snapshot
    /// truncates the log up to its cursor.
    fn checkpoint(&mut self) {
        if self.faults.bus_drop_active(self.clock) {
            self.stats.checkpoints_dropped += 1;
            return;
        }
        let snapshot = Snapshot {
            cursor: self.cursor,
            emitted: self.outputs.len(),
            state: self.state.checkpoint(self.clock),
        };
        if self.vault.offer(self.clock, snapshot) {
            self.stats.checkpoints += 1;
            let cut = usize::try_from(self.cursor - self.truncated).expect("log fits memory");
            self.log.drain(..cut);
            self.truncated = self.cursor;
        }
    }

    /// The service clock.
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Entries logged so far: the sequence number of the newest.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.truncated + self.log.len() as u64
    }

    /// The served state.
    #[must_use]
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Consumes the service, returning its state.
    #[must_use]
    pub fn into_state(self) -> S {
        self.state
    }

    /// Everything the state emitted, duplicates from replay dropped.
    #[must_use]
    pub fn outputs(&self) -> &[S::Output] {
        &self.outputs
    }

    /// The failure detector.
    #[must_use]
    pub fn detector(&self) -> &ReplicatedService {
        &self.detector
    }

    /// The fault schedule the service runs under.
    #[must_use]
    pub fn faults(&self) -> &FaultScheduler {
        &self.faults
    }

    /// The checkpoint vault.
    #[must_use]
    pub fn vault(&self) -> &CheckpointVault<Snapshot<S::Checkpoint>> {
        &self.vault
    }

    /// The service's counters.
    #[must_use]
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            checkpoints_rejected: self.vault.rejected(),
            ..self.stats
        }
    }
}

/// Closed-form CTMC availability of a `replicas`-way replicated service.
///
/// Each replica is an independent two-state continuous-time Markov chain
/// (up with mean sojourn `mean_up`, down with mean sojourn `mean_down`;
/// failure rate λ = 1/mean_up, repair rate μ = 1/mean_down). Steady-state
/// per-replica availability is a = μ/(λ+μ) = mean_up/(mean_up+mean_down),
/// and the service is up while **any** replica is up:
/// `A = 1 − (1 − a)^replicas`.
#[must_use]
pub fn ctmc_availability(mean_up: SimDuration, mean_down: SimDuration, replicas: u32) -> f64 {
    if replicas == 0 {
        return 0.0;
    }
    let up = mean_up.as_secs_f64();
    let down = mean_down.as_secs_f64();
    if up <= 0.0 {
        return 0.0;
    }
    if down <= 0.0 {
        return 1.0;
    }
    let a = up / (up + down);
    1.0 - (1.0 - a).powi(i32::try_from(replicas).unwrap_or(i32::MAX))
}

/// Availability estimate of one fleet shard's replicated analysis service:
/// a seeded renewal-process drill observed through the real failure
/// detector, against the closed-form CTMC model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardAvailability {
    /// The shard index.
    pub shard: usize,
    /// Replica count.
    pub replicas: u32,
    /// Fraction of detector ticks with a serving primary.
    pub observed: f64,
    /// The CTMC steady-state prediction ([`ctmc_availability`]).
    pub model: f64,
    /// Promotions the detector performed over the drill.
    pub failovers: u64,
    /// Total outages (every replica down simultaneously).
    pub outages: u64,
}

/// Drills one shard's replicated service against seeded exponential up/down
/// cycles and reports observed vs. modelled availability.
///
/// Each replica alternates exponentially-distributed up and down sojourns
/// (inverse-CDF sampling from its own [`SeedTree`] stream, so the drill is
/// bit-deterministic per `(seed, shard, replica)`); every down sojourn is a
/// transient [`Fault::ReplicaCrash`]. A [`Replicated`] unit-state service
/// runs under those faults, ticking every `tick_every` of simulated time with
/// a heartbeat deadline of 2.5 ticks and logging one entry per tick. A tick
/// counts as available while a live primary serves, so the observed
/// availability trails the CTMC model — a crashed primary serves nothing
/// until the detector's missed deadline promotes a backup — which is exactly
/// the gap the drill exists to expose.
///
/// [`SeedTree`]: ares_simkit::rng::SeedTree
#[must_use]
pub fn drill_shard_availability(
    seed: u64,
    shard: usize,
    replicas: u32,
    mean_up: SimDuration,
    mean_down: SimDuration,
    horizon: SimDuration,
    tick_every: SimDuration,
) -> ShardAvailability {
    use ares_simkit::rng::SeedTree;
    use rand::Rng;
    let replicas = replicas.clamp(1, 12);
    let tick_every = if tick_every.as_micros() > 0 {
        tick_every
    } else {
        SimDuration::from_secs(30)
    };
    let tree = SeedTree::new(seed).child("fleet-availability");
    let horizon_s = horizon.as_secs_f64().max(tick_every.as_secs_f64());

    // Per-replica alternating up/down renewal schedule over the horizon.
    let ids: Vec<ReplicaId> = (0..replicas).map(|r| ReplicaId(r as u8)).collect();
    let mut plan = FaultPlan::new(seed);
    for (r, &id) in ids.iter().enumerate() {
        let mut rng = tree.stream_indexed(&format!("shard{shard:03}/replica"), r as u64);
        let mut t = 0.0f64;
        let mut up = true;
        while t < horizon_s {
            let mean = if up {
                mean_up.as_secs_f64()
            } else {
                mean_down.as_secs_f64()
            }
            .max(1e-6);
            let u: f64 = rng.gen();
            let sojourn = -mean * (1.0 - u).max(f64::MIN_POSITIVE).ln();
            if !up {
                plan = plan.with(Fault::ReplicaCrash {
                    replica: id,
                    at: SimTime::from_secs_f64(t),
                    recover_at: Some(SimTime::from_secs_f64(t + sojourn)),
                });
            }
            t += sojourn;
            up = !up;
        }
    }

    let start = SimTime::from_secs(0);
    let mut service = Replicated::new(
        format!("fleet-shard{shard:03}"),
        &ids,
        SimDuration::from_micros(tick_every.as_micros() * 5 / 2),
        SimDuration::from_mins(15),
        start,
        FaultScheduler::compile(&plan, start + horizon),
        (),
    );
    let mut ticks = 0u64;
    let mut serving_ticks = 0u64;
    let mut now = start;
    loop {
        now += tick_every;
        if now.as_secs_f64() > horizon_s {
            break;
        }
        service.advance(now);
        service.append(());
        ticks += 1;
        if service.serving() {
            serving_ticks += 1;
        }
    }
    let outages = service
        .detector()
        .log()
        .iter()
        .filter(|(_, e)| matches!(e, FailoverEvent::ServiceDown))
        .count() as u64;
    ShardAvailability {
        shard,
        replicas,
        observed: if ticks > 0 {
            serving_ticks as f64 / ticks as f64
        } else {
            0.0
        },
        model: ctmc_availability(mean_up, mean_down, replicas),
        failovers: service.stats().failovers,
        outages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn service() -> ReplicatedService {
        ReplicatedService::new(
            "localization",
            &[ReplicaId(0), ReplicaId(1), ReplicaId(2)],
            SimDuration::from_secs(10),
            t(0),
        )
    }

    #[test]
    fn primary_survives_with_heartbeats() {
        let mut s = service();
        for i in 1..20 {
            s.heartbeat(ReplicaId(0), t(i));
            s.heartbeat(ReplicaId(1), t(i));
            s.heartbeat(ReplicaId(2), t(i));
            assert!(s.tick(t(i)).is_empty());
        }
        assert_eq!(s.primary(), Some(ReplicaId(0)));
    }

    #[test]
    fn silent_primary_fails_over_to_next_backup() {
        let mut s = service();
        // Backups keep beating; primary goes silent.
        for i in 1..=15 {
            s.heartbeat(ReplicaId(1), t(i));
            s.heartbeat(ReplicaId(2), t(i));
        }
        let events = s.tick(t(15));
        assert!(events.contains(&FailoverEvent::Failed(ReplicaId(0))));
        assert!(events.contains(&FailoverEvent::Promoted(ReplicaId(1))));
        assert_eq!(s.primary(), Some(ReplicaId(1)));
        assert_eq!(s.role_of(ReplicaId(0)), Some(Role::Down));
    }

    #[test]
    fn cascading_failures_reach_last_replica_then_outage() {
        let mut s = service();
        // Nobody heartbeats: everyone fails at once, nothing promotable.
        let events = s.tick(t(60));
        assert!(events.contains(&FailoverEvent::Failed(ReplicaId(0))));
        assert!(events.contains(&FailoverEvent::Failed(ReplicaId(1))));
        assert!(events.contains(&FailoverEvent::Failed(ReplicaId(2))));
        assert!(events.contains(&FailoverEvent::ServiceDown));
        assert!(s.primary().is_none());
    }

    #[test]
    fn outage_logged_once_and_restoration_announced() {
        let mut s = service();
        // Nobody heartbeats: total outage at t=60.
        let events = s.tick(t(60));
        assert_eq!(
            events
                .iter()
                .filter(|&&e| e == FailoverEvent::ServiceDown)
                .count(),
            1
        );
        // The detector keeps running during the outage — no log spam.
        for i in 61..=120 {
            assert!(s.tick(t(i)).is_empty(), "tick {i} re-raised the outage");
        }
        assert_eq!(
            s.log()
                .iter()
                .filter(|&&(_, e)| e == FailoverEvent::ServiceDown)
                .count(),
            1,
            "ServiceDown must be one event per outage"
        );
        // A replica recovers: promotion + restoration, exactly once.
        s.heartbeat(ReplicaId(1), t(121));
        let events = s.tick(t(121));
        assert!(events.contains(&FailoverEvent::Promoted(ReplicaId(1))));
        assert!(events.contains(&FailoverEvent::ServiceRestored));
        assert!(s.primary().is_some());
        // A second outage raises ServiceDown again.
        let events = s.tick(t(200));
        assert!(events.contains(&FailoverEvent::ServiceDown));
        assert_eq!(
            s.log()
                .iter()
                .filter(|&&(_, e)| e == FailoverEvent::ServiceDown)
                .count(),
            2
        );
    }

    #[test]
    fn vault_keeps_newest_snapshot() {
        let mut vault: CheckpointVault<String> = CheckpointVault::new();
        assert!(vault.latest().is_none());
        assert!(vault.offer(t(10), "early".into()));
        assert!(vault.offer(t(30), "late".into()));
        assert!(!vault.offer(t(20), "stale".into())); // out-of-order replication
        let (at, snap) = vault.latest().expect("non-empty");
        assert_eq!(at, t(30));
        assert_eq!(snap, "late");
        assert_eq!(vault.offered(), 3);
        assert_eq!(vault.rejected(), 1);
    }

    #[test]
    fn vault_rejects_offers_no_newer_than_latest() {
        // The lagging-replica hazard: after the vault holds t=30, nothing at
        // or before t=30 may replace it — not even an equal-time offer with
        // different (older) content.
        let mut vault: CheckpointVault<&'static str> = CheckpointVault::new();
        assert!(vault.offer(t(30), "established"));
        assert!(!vault.offer(t(30), "lagging-replica"), "equal-time offer");
        assert!(!vault.offer(t(29), "older"), "strictly older offer");
        let (at, snap) = vault.latest().expect("non-empty");
        assert_eq!((at, *snap), (t(30), "established"));
        assert_eq!(vault.rejected(), 2);
        // Strictly newer offers still advance the vault.
        assert!(vault.offer(t(31), "newer"));
        assert_eq!(vault.latest().map(|(a, s)| (a, *s)), Some((t(31), "newer")));
    }

    #[test]
    fn ctmc_availability_closed_form() {
        // a = 0.9 per replica.
        let up = SimDuration::from_secs(900);
        let down = SimDuration::from_secs(100);
        assert!((ctmc_availability(up, down, 1) - 0.9).abs() < 1e-12);
        assert!((ctmc_availability(up, down, 2) - 0.99).abs() < 1e-12);
        assert!((ctmc_availability(up, down, 3) - 0.999).abs() < 1e-12);
        // Degenerate shapes stay in [0, 1].
        assert_eq!(ctmc_availability(up, down, 0), 0.0);
        assert_eq!(ctmc_availability(SimDuration::from_secs(0), down, 2), 0.0);
        assert_eq!(ctmc_availability(up, SimDuration::from_secs(0), 2), 1.0);
    }

    #[test]
    fn shard_drill_is_deterministic_and_tracks_the_model() {
        let drill = || {
            drill_shard_availability(
                42,
                3,
                3,
                SimDuration::from_hours(8),
                SimDuration::from_mins(20),
                SimDuration::from_days(30),
                SimDuration::from_secs(30),
            )
        };
        let a = drill();
        let b = drill();
        assert_eq!(a, b, "drill must be bit-deterministic");
        assert_eq!(a.shard, 3);
        assert_eq!(a.replicas, 3);
        assert!(
            a.observed > 0.9 && a.observed <= 1.0,
            "observed {}",
            a.observed
        );
        assert!(a.model > 0.99, "model {}", a.model);
        // A crashed primary serves nothing until the detector promotes a
        // backup, so observed availability stays under the instantaneous-model
        // ceiling, but only by a small margin.
        assert!(
            a.observed < a.model,
            "observed {} above model {}",
            a.observed,
            a.model
        );
        assert!(
            a.model - a.observed < 0.05,
            "observed {} too far below model {}",
            a.observed,
            a.model
        );
        // A month with ~3 failures/replica/day must exercise failover.
        assert!(a.failovers > 0);
    }

    #[test]
    fn more_replicas_never_hurt_availability() {
        let up = SimDuration::from_hours(4);
        let down = SimDuration::from_mins(30);
        let horizon = SimDuration::from_days(20);
        let tick = SimDuration::from_secs(30);
        let one = drill_shard_availability(7, 0, 1, up, down, horizon, tick);
        let three = drill_shard_availability(7, 0, 3, up, down, horizon, tick);
        assert!(three.model > one.model);
        assert!(
            three.observed >= one.observed,
            "3-way {} vs 1-way {}",
            three.observed,
            one.observed
        );
    }

    /// A running sum that emits every partial sum.
    #[derive(Debug)]
    struct Sum(u64);

    impl ReplicaState for Sum {
        type Entry = u64;
        type Checkpoint = u64;
        type Output = u64;

        fn apply(&mut self, entry: &u64, out: &mut Vec<u64>) {
            self.0 += entry;
            out.push(self.0);
        }

        fn checkpoint(&mut self, _: SimTime) -> u64 {
            self.0
        }

        fn restore(&mut self, ckpt: &u64) {
            self.0 = *ckpt;
        }
    }

    /// One entry a minute at `minutes` through a two-replica service with a
    /// 5-minute deadline and 15-minute checkpoints; replica 0 crashes at
    /// minute 40, for `down` minutes or for good.
    fn run_sum(crash: bool, down: Option<i64>, minutes: &[i64]) -> Replicated<Sum> {
        let mut plan = FaultPlan::new(1);
        if crash {
            plan = plan.with(Fault::ReplicaCrash {
                replica: ReplicaId(0),
                at: t(40 * 60),
                recover_at: down.map(|d| t((40 + d) * 60)),
            });
        }
        let ids = [ReplicaId(0), ReplicaId(1)];
        let sched = FaultScheduler::compile(&plan, t(86_400));
        let (deadline, every) = (SimDuration::from_mins(5), SimDuration::from_mins(15));
        let mut svc = Replicated::new("sum", &ids, deadline, every, t(0), sched, Sum(0));
        for &m in minutes {
            svc.advance(t(m * 60));
            svc.append(m as u64);
        }
        svc
    }

    #[test]
    fn replicated_service_loses_and_duplicates_no_output() {
        let minutes: Vec<i64> = (1..=180).collect();
        let base = run_sum(false, None, &minutes);
        assert_eq!(base.stats().checkpoints, 12, "every 15 minutes");
        // Detected at minute 45: restore the 30-minute snapshot and replay
        // minutes 31–44, whose first nine outputs were already emitted.
        let killed = run_sum(true, None, &minutes);
        let stats = killed.stats();
        assert_eq!((stats.failovers, stats.replays, stats.replayed), (1, 1, 14));
        assert_eq!(stats.max_replay_gap, SimDuration::from_mins(15));
        // A 3-minute crash beats the deadline: no promotion, and the entries
        // logged meanwhile are applied once the primary is back.
        let rebooted = run_sum(true, Some(3), &minutes);
        assert_eq!(rebooted.stats().failovers, 0);
        for svc in [killed, rebooted] {
            assert_eq!(svc.state().0, base.state().0);
            assert_eq!(svc.outputs(), base.outputs());
        }
        // A long gap collapses into one checkpoint.
        let gap = run_sum(false, None, &[1, 20, 100, 101]);
        assert_eq!(gap.stats().checkpoints, 2);
    }

    #[test]
    fn recovered_replica_rejoins_without_demoting_new_primary() {
        let mut s = service();
        for i in 1..=15 {
            s.heartbeat(ReplicaId(1), t(i));
            s.heartbeat(ReplicaId(2), t(i));
        }
        s.tick(t(15));
        assert_eq!(s.primary(), Some(ReplicaId(1)));
        // Replica 0 comes back.
        s.heartbeat(ReplicaId(0), t(16));
        s.tick(t(16));
        assert_eq!(s.primary(), Some(ReplicaId(1)), "no flapping");
        assert_eq!(s.role_of(ReplicaId(0)), Some(Role::Backup));
        assert!(s
            .log()
            .iter()
            .any(|&(_, e)| e == FailoverEvent::Rejoined(ReplicaId(0))));
        // If the new primary later dies, the recovered one takes over.
        for i in 17..=40 {
            s.heartbeat(ReplicaId(0), t(i));
            s.heartbeat(ReplicaId(2), t(i));
        }
        let ev = s.tick(t(40));
        assert!(ev.contains(&FailoverEvent::Promoted(ReplicaId(0))));
    }
}
