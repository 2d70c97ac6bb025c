//! Bit-identity contract of the batched SoA kernels.
//!
//! The batched localization and speech kernels are *drop-in* replacements
//! for their scalar references: for any telemetry column — not just mission
//! recordings — every produced `f64` must match the scalar path down to the
//! last bit (`to_bits`, not tolerance). These properties drive arbitrary
//! scan/audio columns through both paths, and the deterministic lane-tail
//! test pins column lengths that straddle the `LANES = 8` boundary, where a
//! transpose or remainder-loop bug would hide from round-count testing.
//! A column solved in arbitrary contiguous pieces, each starting from the
//! window the previous piece left, and emitted once, must give the same bits
//! as one solve: that is what lets the ingest service solve scans at
//! checkpoint seals.

use ares::badge::records::{AudioFrame, BadgeId, BeaconScan};
use ares::badge::telemetry::TelemetryStore;
use ares::habitat::beacons::{BeaconDeployment, BeaconId};
use ares::habitat::floorplan::FloorPlan;
use ares::habitat::rooms::RoomId;
use ares::simkit::time::{SimDuration, SimTime};
use ares::sociometrics::engine::MissionContext;
use ares::sociometrics::localization::{
    emit_track, localize_scans, localize_scans_scalar, solve_scans, PositionTrack, ScanWindow,
    SolvedScans,
};
use ares::sociometrics::speech::{analyze_iter, analyze_view};
use ares::sociometrics::sync::SyncCorrection;
use proptest::prelude::*;
use std::sync::OnceLock;

fn ctx() -> &'static MissionContext {
    static CTX: OnceLock<MissionContext> = OnceLock::new();
    CTX.get_or_init(MissionContext::icares)
}

fn corr_strategy() -> impl Strategy<Value = SyncCorrection> {
    (-5.0f64..5.0, -200.0f64..200.0).prop_map(|(offset_s, skew_ppm)| SyncCorrection {
        offset_s,
        skew_ppm,
        samples: 4,
        rms_residual_s: 0.0,
    })
}

fn scans_strategy() -> impl Strategy<Value = Vec<BeaconScan>> {
    prop::collection::vec(
        (
            0i64..30,
            prop::collection::vec((0u8..40, -95.0f64..-35.0), 0..8),
        ),
        0..60,
    )
    .prop_map(|raw| {
        let mut t = SimTime::from_secs(1_000);
        raw.into_iter()
            .map(|(gap, hits)| {
                t += SimDuration::from_secs(gap);
                BeaconScan {
                    t_local: t,
                    hits: hits
                        .into_iter()
                        .map(|(id, rssi)| (BeaconId(id), rssi))
                        .collect(),
                }
            })
            .collect()
    })
}

/// Runs of scans that hear one room's beacons, so the smoothing window
/// fills and a piece boundary often falls inside a run.
fn room_runs_strategy() -> impl Strategy<Value = Vec<BeaconScan>> {
    prop::collection::vec(
        (0..RoomId::ALL.len(), 1usize..12, -90.0f64..-40.0, 0i64..3),
        0..16,
    )
    .prop_map(|runs| {
        let mut t = SimTime::from_secs(1_000);
        let mut scans = Vec::new();
        for (room, len, rssi, gap) in runs {
            let ids: Vec<BeaconId> = ctx()
                .beacons
                .in_room(RoomId::ALL[room])
                .map(|b| b.id)
                .collect();
            for i in 0..len {
                t += SimDuration::from_secs(gap);
                let hits = ids
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (id, rssi - 0.7 * (i * (k + 1) % 5) as f64 - 2.5 * k as f64))
                    .collect();
                scans.push(BeaconScan { t_local: t, hits });
            }
        }
        scans
    })
}

fn audio_strategy() -> impl Strategy<Value = Vec<AudioFrame>> {
    prop::collection::vec(
        (
            1i64..4_000,
            30.0f64..95.0,
            prop::bool::ANY,
            prop::option::of(80.0f64..300.0),
        ),
        0..80,
    )
    .prop_map(|raw| {
        let mut t = SimTime::from_secs(2_000);
        raw.into_iter()
            .map(|(gap_ms, level_db, voiced, f0_hz)| {
                t += SimDuration::from_millis(gap_ms);
                AudioFrame {
                    t_local: t,
                    level_db,
                    voiced,
                    f0_hz,
                }
            })
            .collect()
    })
}

fn store_with(scans: Vec<BeaconScan>, audio: Vec<AudioFrame>) -> TelemetryStore {
    let mut store = TelemetryStore::new(BadgeId::default());
    scans.iter().for_each(|s| store.push_scan(s));
    audio.into_iter().for_each(|a| store.push_audio(a));
    store
}

fn assert_localize_bits_match(store: &TelemetryStore, corr: &SyncCorrection) {
    let ctx = ctx();
    let view = store.view();
    let scalar = localize_scans_scalar(
        view.scans,
        corr,
        ctx.beacon_index(),
        &ctx.plan,
        &ctx.params().localization,
    );
    let batched = localize_scans(
        view.scans,
        corr,
        ctx.beacon_index(),
        ctx.ranging(),
        &ctx.plan,
        &ctx.params().localization,
    );
    assert_tracks_bit_identical(&scalar, &batched);
}

fn assert_tracks_bit_identical(a: &PositionTrack, b: &PositionTrack) {
    assert_eq!(
        a.fixes.samples().len(),
        b.fixes.samples().len(),
        "fix count diverged"
    );
    for (a, b) in a.fixes.samples().iter().zip(b.fixes.samples()) {
        assert_eq!(a.t, b.t, "fix time diverged");
        assert_eq!(a.value.room, b.value.room, "fix room diverged");
        assert_eq!(a.value.hits, b.value.hits, "fix hit count diverged");
        assert_eq!(
            a.value.position.x.to_bits(),
            b.value.position.x.to_bits(),
            "fix x bits diverged at t={:?}",
            a.t
        );
        assert_eq!(
            a.value.position.y.to_bits(),
            b.value.position.y.to_bits(),
            "fix y bits diverged at t={:?}",
            a.t
        );
    }
}

/// Solves `scans` in the contiguous pieces that `cuts` (indexes into the
/// column) delimit, each from the window the previous piece left, emits the
/// rows once, and checks the track bit for bit against the one-shot batched
/// kernel and the scalar oracle.
fn assert_piecewise_solve_matches(scans: &[BeaconScan], cuts: &[usize], corr: &SyncCorrection) {
    let ctx = ctx();
    let params = &ctx.params().localization;
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (scans.len() + 1)).collect();
    bounds.extend([0, scans.len()]);
    bounds.sort_unstable();
    let mut window = ScanWindow::new();
    let mut rows: Vec<SolvedScans> = Vec::new();
    for piece in bounds.windows(2) {
        let store = store_with(scans[piece[0]..piece[1]].to_vec(), Vec::new());
        let view = store.view().scans;
        assert!(window.continues(view), "a contiguous piece continues");
        rows.push(solve_scans(
            view,
            &mut window,
            ctx.ranging(),
            ctx.beacon_index(),
            &ctx.plan,
            params,
        ));
    }
    assert_eq!(
        rows.iter().map(SolvedScans::scans_in).sum::<usize>(),
        scans.len()
    );
    let pieces: Vec<&SolvedScans> = rows.iter().collect();
    let piecewise = emit_track(&pieces, corr);
    let store = store_with(scans.to_vec(), Vec::new());
    let view = store.view();
    let whole = localize_scans(
        view.scans,
        corr,
        ctx.beacon_index(),
        ctx.ranging(),
        &ctx.plan,
        params,
    );
    assert_tracks_bit_identical(&whole, &piecewise);
    let scalar = localize_scans_scalar(view.scans, corr, ctx.beacon_index(), &ctx.plan, params);
    assert_tracks_bit_identical(&scalar, &piecewise);
}

fn assert_speech_bits_match(store: &TelemetryStore, corr: &SyncCorrection) {
    let ctx = ctx();
    let view = store.view();
    let scalar = analyze_iter(view.audio_frames(), corr, &ctx.params().speech);
    let batched = analyze_view(view.audio, corr, &ctx.params().speech);
    assert_eq!(scalar, batched, "speech track diverged");
    for (a, b) in scalar.intervals.iter().zip(&batched.intervals) {
        assert_eq!(a.mean_level_db.to_bits(), b.mean_level_db.to_bits());
        assert_eq!(a.mean_voiced_db.to_bits(), b.mean_voiced_db.to_bits());
    }
    assert_eq!(scalar.self_f0_hz.to_bits(), batched.self_f0_hz.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn batched_localize_matches_scalar_bits_on_arbitrary_columns(
        scans in scans_strategy(),
        corr in corr_strategy(),
    ) {
        let store = store_with(scans, Vec::new());
        assert_localize_bits_match(&store, &corr);
    }

    #[test]
    fn piecewise_solve_with_carried_window_matches_one_solve(
        (runs, scans, room_runs) in (prop::bool::ANY, scans_strategy(), room_runs_strategy()),
        cuts in prop::collection::vec(0usize..1_000, 0..8),
        corr in corr_strategy(),
    ) {
        let scans = if runs { room_runs } else { scans };
        assert_piecewise_solve_matches(&scans, &cuts, &corr);
    }

    #[test]
    fn batched_speech_matches_scalar_bits_on_arbitrary_columns(
        audio in audio_strategy(),
        corr in corr_strategy(),
    ) {
        let store = store_with(Vec::new(), audio);
        assert_speech_bits_match(&store, &corr);
    }
}

/// Column lengths that straddle every lane boundary of the batched kernels:
/// below one lane group, exactly one, one over, just under/over two, and the
/// block-flush edge. Scans sit in one room so the whole column funnels into
/// a single anchor-count bucket — the worst case for transpose tail-padding.
#[test]
fn lane_tail_counts_are_bit_identical() {
    let dep = BeaconDeployment::icares(&FloorPlan::lunares());
    let office: Vec<BeaconId> = dep.in_room(RoomId::Office).map(|b| b.id).collect();
    assert!(office.len() >= 2, "sanity: office has beacons");
    let corr = SyncCorrection {
        offset_s: 0.75,
        skew_ppm: -35.0,
        samples: 4,
        rms_residual_s: 0.0,
    };
    for n in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 40] {
        let scans: Vec<BeaconScan> = (0..n)
            .map(|i| BeaconScan {
                t_local: SimTime::from_secs(500 + 2 * i as i64),
                hits: office
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| (id, -48.0 - 3.0 * k as f64 - 0.1 * i as f64))
                    .collect(),
            })
            .collect();
        let audio: Vec<AudioFrame> = (0..n)
            .map(|i| AudioFrame {
                t_local: SimTime::from_secs(500 + 2 * i as i64),
                level_db: 55.0 + (i % 23) as f64,
                voiced: i % 3 != 0,
                f0_hz: (i % 4 != 0).then_some(120.0 + (i % 80) as f64),
            })
            .collect();
        let store = store_with(scans, audio);
        assert_localize_bits_match(&store, &corr);
        assert_speech_bits_match(&store, &corr);
    }
}
