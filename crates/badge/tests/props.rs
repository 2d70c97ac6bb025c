//! Property tests for the badge device model.

use ares_badge::clockdrift::ClockSet;
use ares_badge::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SamplingConfig,
    SyncSample,
};
use ares_badge::sensors::{ImuModel, OFF_BODY_VAR_THRESHOLD, WALK_VAR_THRESHOLD};
use ares_badge::storage::{decode_scan, encode_scan, StorageMeter};
use ares_badge::telemetry::{Column, TelemetryStore};
use ares_crew::truth::WearState;
use ares_habitat::beacons::BeaconId;
use ares_simkit::geometry::Point2;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::{SimDuration, SimTime};
use bytes::BytesMut;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scan_frames_decode_to_what_was_encoded(
        t in i64::MIN / 4..i64::MAX / 4,
        hits in prop::collection::vec((0u8..32, -120.0f64..0.0), 0..=32),
    ) {
        let scan = BeaconScan {
            t_local: SimTime::from_micros(t),
            hits: hits.iter().map(|&(b, r)| (BeaconId(b), r)).collect(),
        };
        let mut buf = BytesMut::new();
        encode_scan(&scan, &mut buf);
        let back = decode_scan(&mut buf.freeze()).expect("well-formed frame");
        prop_assert_eq!(back.t_local, scan.t_local);
        prop_assert_eq!(back.hits.len(), scan.hits.len());
        for ((ba, ra), (bb, rb)) in scan.hits.iter().zip(&back.hits) {
            prop_assert_eq!(ba, bb);
            prop_assert!((ra - rb).abs() <= 0.0051);
        }
    }

    #[test]
    fn truncated_frames_never_panic(
        t in 0i64..1_000_000,
        hits in prop::collection::vec((0u8..32, -120.0f64..0.0), 0..=32),
        cut in 0usize..64,
    ) {
        let scan = BeaconScan {
            t_local: SimTime::from_micros(t),
            hits: hits.iter().map(|&(b, r)| (BeaconId(b), r)).collect(),
        };
        let mut buf = BytesMut::new();
        encode_scan(&scan, &mut buf);
        let full = buf.freeze();
        let cut = cut.min(full.len());
        let mut prefix = full.slice(..cut);
        // Either decodes (cut == full length) or returns a structured error.
        match decode_scan(&mut prefix) {
            Ok(s) => prop_assert_eq!(s.hits.len(), scan.hits.len()),
            Err(_) => prop_assert!(cut < full.len()),
        }
    }

    #[test]
    fn clock_sets_are_deterministic_and_bounded(seed in 0u64..100_000) {
        let a = ClockSet::generate(&SeedTree::new(seed));
        let b = ClockSet::generate(&SeedTree::new(seed));
        prop_assert_eq!(a.clone(), b);
        for i in 0..13u8 {
            let c = a.clock(BadgeId(i));
            prop_assert!(c.skew_ppm().abs() < 200.0, "skew {}", c.skew_ppm());
            prop_assert!(c.offset().abs() < SimDuration::from_secs(15));
        }
        // The reference is always the most stable unit.
        let worst_field = (0..6)
            .map(|i| a.clock(BadgeId(i)).skew_ppm().abs())
            .fold(0.0f64, f64::max);
        prop_assert!(a.reference().skew_ppm().abs() <= worst_field.max(0.5));
    }

    #[test]
    fn imu_feature_classes_never_bleed(energy in 0.7f64..1.4, seed in 0u64..10_000) {
        let model = ImuModel::default();
        let mut rng = SeedTree::new(seed).stream("prop-imu");
        let t = SimTime::EPOCH;
        for _ in 0..20 {
            let walk = model.sample(t, WearState::Worn, true, energy, &mut rng);
            prop_assert!(walk.accel_var > WALK_VAR_THRESHOLD);
            let off = model.sample(t, WearState::LeftAt(Point2::ORIGIN), false, energy, &mut rng);
            prop_assert!(off.accel_var < OFF_BODY_VAR_THRESHOLD);
            let still = model.sample(t, WearState::Worn, false, energy, &mut rng);
            prop_assert!(still.accel_var > OFF_BODY_VAR_THRESHOLD);
            prop_assert!(still.accel_var < WALK_VAR_THRESHOLD);
        }
    }

    #[test]
    fn storage_meter_is_additive(
        spans in prop::collection::vec((0i64..86_400, prop::bool::ANY), 1..20),
    ) {
        let cfg = SamplingConfig::default();
        let mut one = StorageMeter::new();
        let mut parts = 0u64;
        for &(secs, active) in &spans {
            let mut m = StorageMeter::new();
            let d = SimDuration::from_secs(secs);
            if active {
                one.record_active(&cfg, d);
                m.record_active(&cfg, d);
            } else {
                one.record_docked(&cfg, d);
                m.record_docked(&cfg, d);
            }
            parts += m.bytes();
        }
        prop_assert_eq!(one.bytes(), parts);
    }

    #[test]
    fn telemetry_push_then_materialise_is_stable_sorted(
        scans in prop::collection::vec(
            (0i64..5_000, prop::collection::vec((0u8..27, -95.0f64..-30.0), 0..4)), 0..32),
        audio in prop::collection::vec((0i64..5_000, 30.0f64..90.0, prop::bool::ANY), 0..32),
        imu in prop::collection::vec((0i64..5_000, 0.0f64..2.0), 0..32),
        env in prop::collection::vec((0i64..5_000, -10.0f64..40.0), 0..32),
        prox in prop::collection::vec((0i64..5_000, 0u8..13, -100.0f64..-40.0), 0..32),
        ir in prop::collection::vec((0i64..5_000, 0u8..13), 0..32),
        sync in prop::collection::vec((0i64..5_000, 0i64..5_000), 0..32),
        bytes in 0u64..1 << 62,
    ) {
        let mut scans: Vec<BeaconScan> = scans
            .iter()
            .map(|(t, hits)| BeaconScan {
                t_local: SimTime::from_secs(*t),
                hits: hits.iter().map(|&(b, r)| (BeaconId(b), r)).collect(),
            })
            .collect();
        let mut audio: Vec<AudioFrame> = audio
            .iter()
            .map(|&(t, level_db, voiced)| AudioFrame {
                t_local: SimTime::from_secs(t),
                level_db,
                voiced,
                f0_hz: voiced.then_some(140.0),
            })
            .collect();
        let mut imu: Vec<ImuSample> = imu
            .iter()
            .map(|&(t, accel_var)| ImuSample {
                t_local: SimTime::from_secs(t),
                accel_var,
                accel_mean: 9.81,
                step_hz: None,
            })
            .collect();
        let mut env: Vec<EnvSample> = env
            .iter()
            .map(|&(t, temperature_c)| EnvSample {
                t_local: SimTime::from_secs(t),
                temperature_c,
                pressure_hpa: 990.0,
                light_lux: 120.0,
            })
            .collect();
        let mut prox: Vec<ProximityObs> = prox
            .iter()
            .map(|&(t, other, rssi)| ProximityObs {
                t_local: SimTime::from_secs(t),
                other: BadgeId(other),
                rssi,
            })
            .collect();
        let mut ir: Vec<IrContact> = ir
            .iter()
            .map(|&(t, other)| IrContact {
                t_local: SimTime::from_secs(t),
                other: BadgeId(other),
            })
            .collect();
        let mut sync: Vec<SyncSample> = sync
            .iter()
            .map(|&(t, r)| SyncSample {
                t_local: SimTime::from_secs(t),
                t_reference: SimTime::from_secs(r),
            })
            .collect();

        let mut store = TelemetryStore::new(BadgeId(7));
        scans.iter().cloned().for_each(|r| store.push_scan(r));
        audio.iter().for_each(|&r| store.push_audio(r));
        imu.iter().for_each(|&r| store.push_imu(r));
        env.iter().for_each(|&r| store.push_env(r));
        prox.iter().for_each(|&r| store.push_proximity(r));
        ir.iter().for_each(|&r| store.push_ir(r));
        sync.iter().for_each(|&r| store.push_sync(r));
        store.bytes_written = bytes;
        let total = scans.len() + audio.len() + imu.len() + env.len() + prox.len() + ir.len()
            + sync.len();
        prop_assert_eq!(store.record_count(), total);

        // Each column keeps its family time-sorted and arrival order breaks
        // ties, so the views hand back the stable sort of what was pushed —
        // exactly the input when it was already in order.
        scans.sort_by_key(|r| r.t_local);
        audio.sort_by_key(|r| r.t_local);
        imu.sort_by_key(|r| r.t_local);
        env.sort_by_key(|r| r.t_local);
        prox.sort_by_key(|r| r.t_local);
        ir.sort_by_key(|r| r.t_local);
        sync.sort_by_key(|r| r.t_local);
        let view = store.view();
        let got_scans: Vec<BeaconScan> = view
            .scan_hits()
            .map(|(t_local, hits)| BeaconScan { t_local, hits: hits.to_vec() })
            .collect();
        prop_assert_eq!(got_scans, scans);
        prop_assert_eq!(view.audio_frames().collect::<Vec<_>>(), audio);
        prop_assert_eq!(view.imu_samples().collect::<Vec<_>>(), imu);
        prop_assert_eq!(view.env_samples().collect::<Vec<_>>(), env);
        prop_assert_eq!(view.proximity_obs().collect::<Vec<_>>(), prox);
        prop_assert_eq!(view.ir_contacts().collect::<Vec<_>>(), ir);
        prop_assert_eq!(view.sync_samples().collect::<Vec<_>>(), sync);
        prop_assert_eq!(view.bytes_written, bytes);
    }

    /// Pushing an arrival sequence into segments cut at arbitrary points and
    /// joining them with `TelemetryStore::append` gives the store that one
    /// store fed the whole sequence holds: ties keep arrival order and
    /// out-of-order records land where a single column would put them. The
    /// ingest day end joins checkpoint segments on exactly this argument.
    #[test]
    fn segmented_pushes_joined_by_append_equal_one_store(
        arrivals in prop::collection::vec((0u8..7, 0i64..40, 0u8..13, -95.0f64..-30.0), 0..96),
        cuts in prop::collection::vec(0usize..=96, 0..6),
    ) {
        let badge = BadgeId(3);
        let push = |store: &mut TelemetryStore, &(kind, t, other, x): &(u8, i64, u8, f64)| {
            let t_local = SimTime::from_secs(t);
            match kind {
                0 => store.push_scan(BeaconScan {
                    t_local,
                    hits: vec![(BeaconId(other), x)],
                }),
                1 => store.push_audio(AudioFrame {
                    t_local,
                    level_db: -x,
                    voiced: other % 2 == 0,
                    f0_hz: None,
                }),
                2 => store.push_imu(ImuSample {
                    t_local,
                    accel_var: -x / 100.0,
                    accel_mean: 9.81,
                    step_hz: None,
                }),
                3 => store.push_env(EnvSample {
                    t_local,
                    temperature_c: -x / 4.0,
                    pressure_hpa: 990.0,
                    light_lux: 120.0,
                }),
                4 => store.push_proximity(ProximityObs {
                    t_local,
                    other: BadgeId(other),
                    rssi: x,
                }),
                5 => store.push_ir(IrContact {
                    t_local,
                    other: BadgeId(other),
                }),
                _ => store.push_sync(SyncSample {
                    t_local,
                    t_reference: SimTime::from_secs(t + i64::from(other)),
                }),
            }
        };
        let mut one = TelemetryStore::new(badge);
        arrivals.iter().for_each(|r| push(&mut one, r));

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(arrivals.len())).collect();
        cuts.push(arrivals.len());
        cuts.sort_unstable();
        let mut from = 0;
        let mut joined = TelemetryStore::new(badge);
        for to in cuts {
            let mut segment = TelemetryStore::new(badge);
            arrivals[from..to].iter().for_each(|r| push(&mut segment, r));
            joined.append(segment);
            from = to;
        }

        prop_assert_eq!(&joined.scans, &one.scans);
        prop_assert_eq!(&joined.audio, &one.audio);
        prop_assert_eq!(&joined.imu, &one.imu);
        prop_assert_eq!(&joined.env, &one.env);
        prop_assert_eq!(&joined.proximity, &one.proximity);
        prop_assert_eq!(&joined.ir, &one.ir);
        prop_assert_eq!(&joined.sync, &one.sync);
        prop_assert_eq!(joined.bytes_written, one.bytes_written);
        prop_assert_eq!(
            serde_json::to_string(&joined).expect("store serializes"),
            serde_json::to_string(&one).expect("store serializes")
        );
    }

    #[test]
    fn telemetry_window_matches_naive_filter(
        ts in prop::collection::vec(0i64..2_000, 0..160),
        a in 0i64..2_100,
        b in 0i64..2_100,
    ) {
        let mut col = Column::new();
        for (i, &t) in ts.iter().enumerate() {
            col.push(SimTime::from_secs(t), i);
        }
        let (start, end) = (
            SimTime::from_secs(a.min(b)),
            SimTime::from_secs(a.max(b)),
        );
        let mut rows: Vec<(SimTime, usize)> = ts
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_secs(t), i))
            .collect();
        rows.sort_by_key(|&(t, _)| t); // stable, like the column's insert
        let expect: Vec<(SimTime, usize)> = rows
            .into_iter()
            .filter(|&(t, _)| start <= t && t < end)
            .collect();
        let got: Vec<(SimTime, usize)> =
            col.window(start, end).iter().map(|(t, &p)| (t, p)).collect();
        prop_assert_eq!(got, expect);
    }
}
