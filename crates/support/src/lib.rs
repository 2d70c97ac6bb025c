//! `ares-support` — the distributed mission-support runtime of Section VI.
//!
//! The paper's deployment was offline; its Section VI argues that future
//! habitats need a *mission support system*: autonomous (Earth is 20 light-
//! minutes away), resilient (components fail and must be replicated),
//! privacy-respecting, and governed jointly by crew and mission control.
//! This crate builds that system against the pipeline's streaming output:
//!
//! * [`accessibility`] — ability-based interface design (the fix for the
//!   e-ink badge-number mix-up).
//! * [`bus`] — the habitat-wide pub/sub fabric.
//! * [`chaos`] — seeded, replayable fault injection (crashes, blackouts,
//!   heartbeat loss, badge deaths) for reliability drills.
//! * [`failover`] — heartbeat failure detection, the checkpoint vault, and
//!   [`failover::Replicated`], the one repair protocol (detect, promote,
//!   restore, replay, checkpoint) behind every replicated service.
//! * [`earthlink`] — the 20-minute-delay link with blackout handling and the
//!   day-12 delayed-command conflict detector.
//! * [`ingest`] — the multi-tenant streaming front door: thread-per-shard
//!   ingest with bounded queues and typed backpressure; each shard is a
//!   `Replicated` service whose log is its WAL, with byte-identical crash
//!   recovery.
//! * [`alerts`] — the rule engine (dehydration, passivity, conflict heat,
//!   fatigue, wear compliance).
//! * [`approval`] — the crew + mission-control change-approval protocol with
//!   an emergency-override path.
//! * [`privacy`] — privacy zones, duty-cycle governance and the audit log.
//! * [`resources`] — the resource ledger and the badge + smart-mug +
//!   urine-processor fluid-balance integration.
//! * [`runtime`] — the sub-day chaos drill: a `Replicated` streaming
//!   analyzer, a badge workload and the Earth link under a seeded fault plan,
//!   scored per run and swept over fault intensities.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accessibility;
pub mod alerts;
pub mod approval;
pub mod bus;
pub mod chaos;
pub mod earthlink;
pub mod failover;
pub mod ingest;
pub mod privacy;
pub mod resources;
pub mod runtime;

/// Convenient glob-import of the most used support types.
pub mod prelude {
    pub use crate::accessibility::{AbilityProfile, Capability, Modality};
    pub use crate::alerts::{Alert, AlertEngine, AlertRules, Severity};
    pub use crate::approval::{ApprovalRules, Proposal, Status, Vote};
    pub use crate::bus::{Bus, Message, Subscription, Topic};
    pub use crate::chaos::{Fault, FaultPlan, FaultScheduler};
    pub use crate::earthlink::{Command, ConflictPolicy, Delivery, EarthLink, ONE_WAY_DELAY};
    pub use crate::failover::{FailoverEvent, ReplicaId, Replicated, ReplicatedService, Role};
    pub use crate::ingest::{
        BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, RecordKind,
        TelemetryRecord, TenantId,
    };
    pub use crate::privacy::{DutyLevel, PrivacyGovernor, SensorClass};
    pub use crate::resources::{FluidBalance, Resource, ResourceLedger};
    pub use crate::runtime::{ChaosConfig, ChaosMission, ReliabilityReport};
}
