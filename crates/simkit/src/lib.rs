//! `ares-simkit` — deterministic discrete-event simulation kernel.
//!
//! This is the foundation layer of the `ares` workspace, the reproduction of
//! *"30 Sensors to Mars"* (ICDCS 2019). Everything above it — the habitat RF
//! model, the crew behaviour simulator, the badge firmware, the sociometric
//! pipeline — is built on these primitives:
//!
//! * [`time`] — microsecond-resolution instants and durations on the true
//!   mission timeline.
//! * [`event`] — a deterministic discrete-event loop with FIFO tie-breaking.
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
//!
//! let mut el: EventLoop<u64> = EventLoop::new();
//! el.schedule(SimTime::from_day_hms(1, 8, 0, 0), Box::new(|_, wakeups: &mut u64| {
//!     *wakeups += 1;
//! }));
//! let mut wakeups = 0;
//! el.run_until(SimTime::from_day_hms(2, 0, 0, 0), &mut wakeups);
//! assert_eq!(wakeups, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod event;
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
    pub use crate::event::{EventLoop, Scheduler};
    pub use crate::geometry::{Grid, Point2, Polygon, Segment, Vec2};
    pub use crate::rng::SeedTree;
    pub use crate::series::{Interval, IntervalSet, Sample, Series};
    pub use crate::time::{SimDuration, SimTime};
}
