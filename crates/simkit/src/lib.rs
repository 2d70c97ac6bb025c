//! `ares-simkit` — deterministic simulation primitives.
//!
//! This is the foundation layer of the `ares` workspace, the reproduction of
//! *"30 Sensors to Mars"* (ICDCS 2019). Everything above it — the habitat RF
//! model, the crew behaviour simulator, the badge firmware, the sociometric
//! pipeline — is built on these primitives:
//!
//! * [`time`] — microsecond-resolution instants and durations on the true
//!   mission timeline.
//! * [`rng`] — seed-splittable, label-addressed random streams, so every noise
//!   source is independently reproducible.
//! * [`clock`] — drifting device clocks and their linear corrections.
//! * [`series`] — timestamped sample sequences and disjoint-interval algebra.
//! * [`geometry`] — planar points, polygons, wall-crossing tests, heatmap grids.
//! * [`par`] — the one ordered fan-out every parallel path uses.
//! * [`stats`] — running moments, least squares, correlation.
//!
//! # Examples
//!
//! ```
//! use ares_simkit::prelude::*;
//! use rand::Rng;
//!
//! // A named stream replays the same draws from the same master seed.
//! let tree = SeedTree::new(7);
//! let jitter_ms: i64 = tree.stream("badge/A/scan").gen_range(0..1_000);
//! assert_eq!(tree.stream("badge/A/scan").gen_range(0..1_000), jitter_ms);
//!
//! // Instants and durations live on the mission timeline.
//! let wake = SimTime::from_day_hms(3, 7, 0, 0);
//! let scan = wake + SimDuration::from_millis(jitter_ms);
//! assert_eq!(scan - wake, SimDuration::from_millis(jitter_ms));
//! assert_eq!(scan.mission_day(), 3);
//! assert_eq!(scan.floor_to(SimDuration::from_secs(1)), wake);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod geometry;
pub mod lanes;
pub mod par;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

/// Convenient glob-import of the most used simkit types.
pub mod prelude {
    pub use crate::clock::{ClockCorrection, DriftingClock};
    pub use crate::geometry::{Grid, Point2, Polygon, Segment, Vec2};
    pub use crate::rng::SeedTree;
    pub use crate::series::{Interval, IntervalSet, Sample, Series};
    pub use crate::time::{SimDuration, SimTime};
}
