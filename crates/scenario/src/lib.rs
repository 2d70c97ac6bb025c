//! `ares-scenario` — seeded scenario generation and validation.
//!
//! The reproduction originally knew exactly one world: the hand-coded
//! Lunares habitat with the paper's crew. This crate turns that scenario
//! into *data* — a typed [`ScenarioSpec`] combining a
//! [`HabitatSpec`], a [`CrewSpec`], a [`ScheduleSpec`] and an
//! [`IncidentScript`] — plus:
//!
//! * [`generate()`] — a deterministic seeded generator producing valid
//!   scenario specs within the engine-sound plan family (contiguous module
//!   row of uniform depth, doors only in south walls, hangar over the
//!   airlock, charging station in the hall);
//! * [`validate()`] — the habitat-layout rulebook: net-habitable-volume
//!   minimums, door widths and clearances, zoning adjacency constraints,
//!   door connectivity, beacon coverage and crew/schedule sanity.
//!
//! The canonical scenario [`ScenarioSpec::lunares`] rebuilds the historical
//! world byte-identically. Notably, Lunares itself violates one zoning rule
//! (the bedroom abuts the restroom — a sleep/hygiene adjacency): the paper
//! concludes the analog habitat's layout was suboptimal, and the validator
//! reports exactly that. Only *generated* scenarios are required to be
//! violation-free.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generate;
pub mod validate;

use ares_crew::incidents::IncidentScript;
use ares_crew::spec::{CrewSpec, ScheduleSpec};
use ares_habitat::spec::HabitatSpec;
use serde::{Deserialize, Serialize};

pub use generate::generate;
pub use validate::{validate, Violation};

/// A complete scenario as data: everything needed to assemble a world,
/// roster, schedule and incident script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Master seed for behaviour, clocks and channel noise.
    pub seed: u64,
    /// Habitat geometry: modules, doors, hangar, beacon mounts, station.
    pub habitat: HabitatSpec,
    /// Crew profiles and the pairwise affinity matrix.
    pub crew: CrewSpec,
    /// Work rotations, exercise slot and EVA calendar.
    pub schedule: ScheduleSpec,
    /// Scripted incidents, including any SPE storm-shelter drill.
    pub incidents: IncidentScript,
}

impl ScenarioSpec {
    /// The canonical ICAres-1 scenario: the Lunares habitat, the paper's
    /// crew and the historical incident script.
    #[must_use]
    pub fn lunares() -> Self {
        ScenarioSpec {
            seed: 0x1CA7E5,
            habitat: HabitatSpec::lunares(),
            crew: CrewSpec::icares(),
            schedule: ScheduleSpec::icares(),
            incidents: IncidentScript::icares(),
        }
    }
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec::lunares()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lunares_spec_round_trips_through_serde() {
        let s = ScenarioSpec::lunares();
        let back = ScenarioSpec::from_value(&s.to_value()).expect("deserializes");
        assert_eq!(back, s);
    }
}
