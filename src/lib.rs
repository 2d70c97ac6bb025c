//! `ares` — distributed sociometric sensing and mission support for space
//! habitats.
//!
//! A comprehensive Rust reproduction of *"30 Sensors to Mars: Toward
//! Distributed Support Systems for Astronauts in Space Habitats"*
//! (ICDCS 2019). The original system — custom wearable sociometric badges,
//! 27 BLE beacons, and an offline analysis pipeline deployed during the
//! two-week ICAres-1 analog Mars mission — depended on proprietary hardware
//! and a one-off human study; this workspace rebuilds every layer in
//! simulation and validates the pipeline against known ground truth:
//!
//! * [`simkit`] — deterministic simulation primitives (time, RNG streams,
//!   clocks, geometry, intervals).
//! * [`habitat`] — the Lunares-class floor plan, RF propagation, beacons and
//!   environment.
//! * [`crew`] — the six-astronaut behaviour simulator with the mission's
//!   scripted incidents.
//! * [`scenario`] — seeded scenario generation and the habitat-layout
//!   validator; the canonical world is one spec among many.
//! * [`badge`] — the badge device model: sensors, radios, drifting clocks,
//!   storage and power.
//! * [`sociometrics`] — **the core contribution**: the offline pipeline that
//!   turns badge telemetry into the paper's findings.
//! * [`support`] — the Section VI mission-support runtime: failover, Earth
//!   link, alerts, approvals, privacy, resources.
//! * [`icares`] — the end-to-end scenario, figure generators and calibration
//!   checks.
//!
//! # Quick start
//!
//! ```no_run
//! use ares::icares::MissionRunner;
//!
//! let runner = MissionRunner::icares();
//! let (_stores, analysis) = runner.run_day(3);
//! println!("{} meetings detected", analysis.meetings.len());
//! ```

pub use ares_badge as badge;
pub use ares_crew as crew;
pub use ares_habitat as habitat;
pub use ares_icares as icares;
pub use ares_scenario as scenario;
pub use ares_simkit as simkit;
pub use ares_sociometrics as sociometrics;
pub use ares_support as support;
