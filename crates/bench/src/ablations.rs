//! Ablation tables for the design choices DESIGN.md calls out.
//!
//! These measure *quality* (error, misclassification), not speed: each
//! section renders one `[ablation]` table from a fixed seed. The three
//! day-3 sections share one recording and its analysis. The committed
//! `artifacts/ablations.txt` is exactly what [`ablations`] renders, and
//! EXPERIMENTS.md quotes it; a unit test holds both to the code.

use ares_badge::scanner;
use ares_badge::telemetry::TelemetryStore;
use ares_badge::world::World;
use ares_habitat::beacons::BeaconDeployment;
use ares_habitat::rooms::RoomId;
use ares_icares::MissionRunner;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::SimTime;
use ares_sociometrics::localization::{
    classify_room, estimate_position, merge_scans, LocalizationParams,
};
use ares_sociometrics::pipeline::DayAnalysis;
use std::fmt::{self, Write as _};

/// Localization ablation: Gauss–Newton refinement vs plain weighted
/// centroid, with and without RSSI smoothing.
fn ablation_localization(out: &mut String) -> fmt::Result {
    let world = World::icares();
    let truth =
        world.plan.room_center(RoomId::Workshop) + ares_simkit::geometry::Vec2::new(1.3, 1.1);
    let mut rng = SeedTree::new(11).stream("abl-loc");
    // Pre-generate scans.
    let scans: Vec<_> = (0..500)
        .map(|i| scanner::scan(&world, truth, SimTime::from_secs(i), &mut rng))
        .filter(|s| classify_room(s, &world.beacons) == Some(RoomId::Workshop))
        .collect();
    let refined = LocalizationParams::default();
    let coarse = LocalizationParams {
        gn_iterations: 0,
        ..refined
    };

    let eval = |params: &LocalizationParams, smooth: bool| -> f64 {
        let mut err = 0.0;
        let mut n = 0;
        let mut window: Vec<&ares_badge::records::BeaconScan> = Vec::new();
        for s in &scans {
            window.push(s);
            if window.len() > 5 {
                window.remove(0);
            }
            let scan = if smooth {
                merge_scans(&window)
            } else {
                (*s).clone()
            };
            err += estimate_position(&scan, RoomId::Workshop, &world.beacons, &world.plan, params)
                .distance(truth);
            n += 1;
        }
        err / f64::from(n)
    };

    writeln!(out, "[ablation] in-room localization mean error (m):")?;
    for (label, params, smooth, note) in [
        ("centroid, raw RSSI:", &coarse, false, ""),
        ("centroid, smoothed RSSI:", &coarse, true, ""),
        ("GN+prior, raw RSSI:", &refined, false, ""),
        (
            "GN+prior, smoothed RSSI:",
            &refined,
            true,
            "  <- production path",
        ),
    ] {
        writeln!(out, "  {label:<26}{:.3}{note}", eval(params, smooth))?;
    }
    Ok(())
}

/// Beacon-density ablation: room-classification accuracy at 3/2/1 beacons
/// per room.
fn ablation_beacon_density(out: &mut String) -> fmt::Result {
    let plan = ares_habitat::floorplan::FloorPlan::lunares();
    let full = BeaconDeployment::icares(&plan);
    writeln!(
        out,
        "[ablation] room accuracy & fix rate vs beacon density:"
    )?;
    for per_room in [3, 2, 1] {
        let dep = full.thinned(per_room);
        let world = World::icares().with_beacons(dep.clone());
        let mut rng = SeedTree::new(12).stream_indexed("abl-dens", per_room as u64);
        let mut correct = 0u32;
        let mut empty = 0u32;
        let mut total = 0u32;
        for room in RoomId::FIG2 {
            let pos = plan.room_center(room);
            for i in 0..100 {
                total += 1;
                let s = scanner::scan(&world, pos, SimTime::from_secs(i), &mut rng);
                if s.hits.is_empty() {
                    empty += 1;
                } else if classify_room(&s, &dep) == Some(room) {
                    correct += 1;
                }
            }
        }
        writeln!(
            out,
            "  {} beacons/room ({:>2} total): {:.1} % correct, {:.1} % empty scans",
            per_room,
            dep.len(),
            f64::from(correct) / f64::from(total) * 100.0,
            f64::from(empty) / f64::from(total) * 100.0
        )?;
    }
    Ok(())
}

/// Speech-threshold ablation: how the paper's 60 dB / 20 % rule behaves when
/// moved (the "boundary values were determined experimentally" sweep).
fn ablation_speech_thresholds(out: &mut String, stores: &[TelemetryStore]) -> fmt::Result {
    use ares_sociometrics::speech::{analyze_view, heard_fraction, SpeechParams};
    use ares_sociometrics::sync::SyncCorrection;
    let audio = stores[2].audio.view();
    let corr = SyncCorrection::fit_view(stores[2].sync.view());
    let from = SimTime::from_day_hms(3, 7, 0, 0);
    let to = SimTime::from_day_hms(3, 21, 0, 0);
    writeln!(
        out,
        "[ablation] day-3 heard-speech fraction (badge02 / astronaut C) vs thresholds:"
    )?;
    for level in [55.0, 60.0, 65.0] {
        for quorum in [0.1, 0.2, 0.35] {
            let params = SpeechParams {
                level_threshold_db: level,
                frame_quorum: quorum,
                ..Default::default()
            };
            let track = analyze_view(audio, &corr, &params);
            writeln!(
                out,
                "  ≥{level:.0} dB, ≥{:.0} % frames: fraction {:.3}",
                quorum * 100.0,
                heard_fraction(&track, from, to)
            )?;
        }
    }
    Ok(())
}

/// The 10-second dwell filter ablation: passage counts with and without it.
fn ablation_dwell_filter(out: &mut String, analysis: &DayAnalysis) -> fmt::Result {
    use ares_simkit::time::SimDuration;
    use ares_sociometrics::occupancy::PassageMatrix;
    writeln!(
        out,
        "[ablation] day-3 passages with vs without the 10-s dwell filter:"
    )?;
    let mut with = PassageMatrix::new();
    let mut without = PassageMatrix::new();
    for b in &analysis.badges {
        // With: the production stays (filter applied inside segment_stays).
        with.accumulate(&b.stays);
        // Without: re-segment with the raw runs kept (simulate by counting
        // every room flip as a passage — rebuild from fixes).
        let mut raw_stays = Vec::new();
        let fixes = b.track.fixes.samples();
        if !fixes.is_empty() {
            let mut start = fixes[0].t;
            let mut room = fixes[0].value.room;
            let mut last = fixes[0].t;
            for f in &fixes[1..] {
                if f.value.room != room || f.t - last > SimDuration::from_secs(5) {
                    raw_stays.push(ares_sociometrics::occupancy::Stay {
                        room,
                        interval: ares_simkit::series::Interval::new(
                            start,
                            last + SimDuration::from_secs(1),
                        ),
                    });
                    start = f.t;
                    room = f.value.room;
                }
                last = f.t;
            }
        }
        without.accumulate(&raw_stays);
    }
    writeln!(
        out,
        "  with filter: {} passages; without: {} (door-leak inflation ×{:.2})",
        with.total(),
        without.total(),
        f64::from(without.total()) / f64::from(with.total().max(1))
    )?;
    Ok(())
}

/// Modality ablation: co-presence hours from beacon localization vs the
/// independent 868 MHz proximity radio.
fn ablation_proximity_vs_localization(
    out: &mut String,
    stores: &[TelemetryStore],
    analysis: &DayAnalysis,
) -> fmt::Result {
    use ares_crew::roster::AstronautId as Id;
    use ares_sociometrics::proximity::{ColocationIndex, ProximityParams};
    let badges: Vec<_> = stores
        .iter()
        .filter_map(|store| {
            analysis
                .badges
                .iter()
                .find(|b| b.badge == store.badge)
                .map(|b| (store.view(), &b.corr))
        })
        .collect();
    let index = ColocationIndex::build(&badges, &ProximityParams::default());
    writeln!(
        out,
        "[ablation] day-3 pairwise co-presence, two modalities (hours):"
    )?;
    for (x, y) in [(Id::A, Id::F), (Id::D, Id::E), (Id::B, Id::D)] {
        let bx = analysis.carrier_of[x.index()].map(|i| analysis.badges[i].badge);
        let by = analysis.carrier_of[y.index()].map(|i| analysis.badges[i].badge);
        let prox = match (bx, by) {
            (Some(a), Some(b)) => index.pair_hours(a, b),
            _ => 0.0,
        };
        let loc: f64 = analysis
            .meetings
            .iter()
            .filter(|m| m.has_pair(x, y))
            .map(|m| m.duration().as_hours_f64())
            .sum();
        writeln!(
            out,
            "  {x}-{y}: localization {loc:.2} h, proximity {prox:.2} h"
        )?;
    }
    Ok(())
}

/// Renders every ablation table, one `[ablation]` header per section.
#[must_use]
pub fn ablations() -> String {
    let mut out = String::new();
    let (stores, analysis) = MissionRunner::icares().run_day(3);
    ablation_localization(&mut out)
        .and_then(|()| ablation_beacon_density(&mut out))
        .and_then(|()| ablation_speech_thresholds(&mut out, &stores))
        .and_then(|()| ablation_dwell_filter(&mut out, &analysis))
        .and_then(|()| ablation_proximity_vs_localization(&mut out, &stores, &analysis))
        .expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    /// The committed table and EXPERIMENTS.md's copy of it are exactly what
    /// the code renders.
    #[test]
    fn committed_ablations_match_the_code() {
        let committed = include_str!("../../../artifacts/ablations.txt");
        assert_eq!(
            super::ablations(),
            committed,
            "rerun `cargo run --release -p ares-bench --bin ablations` and commit the artifact"
        );
        assert!(
            include_str!("../../../EXPERIMENTS.md").contains(committed),
            "EXPERIMENTS.md must quote artifacts/ablations.txt verbatim"
        );
    }
}
