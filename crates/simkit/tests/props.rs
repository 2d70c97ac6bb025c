//! Property tests for the simulation kernel.

use ares_simkit::geometry::{Point2, Polygon, Segment, Vec2};
use ares_simkit::rng::SeedTree;
use ares_simkit::series::{Interval, IntervalSet, Series};
use ares_simkit::stats::{linear_fit, median, pearson, Running};
use ares_simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn time_arithmetic_is_consistent(a in -1_000_000i64..1_000_000, d in -500_000i64..500_000) {
        let t = SimTime::from_micros(a);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!(t + SimDuration::ZERO, t);
    }

    #[test]
    fn day_hms_decomposition_round_trips(day in 1u32..400, h in 0u32..24, m in 0u32..60, s in 0u32..60) {
        let t = SimTime::from_day_hms(day, h, m, s);
        prop_assert_eq!(t.mission_day(), day);
        prop_assert_eq!(t.hour_of_day(), h);
        prop_assert_eq!(t.minute_of_hour(), m);
    }

    #[test]
    fn floor_to_is_idempotent_and_lower(us in 0i64..10_000_000_000i64, step_s in 1i64..10_000) {
        let t = SimTime::from_micros(us);
        let step = SimDuration::from_secs(step_s);
        let f = t.floor_to(step);
        prop_assert!(f <= t);
        prop_assert_eq!(f.floor_to(step), f);
        prop_assert!((t - f) < step);
    }

    #[test]
    fn seed_tree_streams_are_stable_and_distinct(master in 0u64..u64::MAX, label in "[a-z]{1,12}") {
        let t = SeedTree::new(master);
        let a: u64 = t.stream(&label).gen();
        let b: u64 = t.stream(&label).gen();
        prop_assert_eq!(a, b);
        let other: u64 = t.stream(&format!("{label}!")).gen();
        prop_assert_ne!(a, other);
    }

    #[test]
    fn polygon_contains_its_centroid_samples(
        w in 1.0f64..20.0, h in 1.0f64..20.0, fx in 0.01f64..0.99, fy in 0.01f64..0.99,
    ) {
        let poly = Polygon::rect(0.0, 0.0, w, h);
        let p = Point2::new(fx * w, fy * h);
        prop_assert!(poly.contains(p));
        prop_assert!(!poly.contains(Point2::new(w + 1.0, fy * h)));
        prop_assert!((poly.area() - w * h).abs() < 1e-9);
    }

    #[test]
    fn clamp_inside_is_idempotent(
        w in 1.0f64..20.0, h in 1.0f64..20.0, px in -30.0f64..30.0, py in -30.0f64..30.0,
    ) {
        let poly = Polygon::rect(0.0, 0.0, w, h);
        let c = poly.clamp_inside(Point2::new(px, py));
        prop_assert!(poly.contains(c), "clamped point must be inside");
        let c2 = poly.clamp_inside(c);
        prop_assert!(c.distance(c2) < 1e-9);
    }

    #[test]
    fn segment_intersection_is_symmetric(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, bx in -10.0f64..10.0, by in -10.0f64..10.0,
        cx in -10.0f64..10.0, cy in -10.0f64..10.0, dx in -10.0f64..10.0, dy in -10.0f64..10.0,
    ) {
        let s1 = Segment::new(Point2::new(ax, ay), Point2::new(bx, by));
        let s2 = Segment::new(Point2::new(cx, cy), Point2::new(dx, dy));
        prop_assert_eq!(s1.intersects(&s2), s2.intersects(&s1));
    }

    #[test]
    fn vectors_normalize_to_unit(x in -100.0f64..100.0, y in -100.0f64..100.0) {
        let v = Vec2::new(x, y);
        let n = v.normalized();
        if v.norm() > 1e-9 {
            prop_assert!((n.norm() - 1.0).abs() < 1e-9);
            prop_assert!(n.dot(v) > 0.0);
        } else {
            prop_assert_eq!(n, Vec2::default());
        }
    }

    #[test]
    fn running_stats_match_direct_computation(xs in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let r: Running = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
    }

    #[test]
    fn linear_fit_residuals_are_orthogonal(xs in prop::collection::vec(-100.0f64..100.0, 3..50), noise_seed in 0u64..1000) {
        let mut rng = SeedTree::new(noise_seed).stream("fit");
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x - 1.0 + rng.gen_range(-5.0..5.0)).collect();
        let (a, b) = linear_fit(&xs, &ys);
        // Residuals sum to ~0 and are uncorrelated with x (normal equations).
        let res: Vec<f64> = xs.iter().zip(&ys).map(|(&x, &y)| y - (a + b * x)).collect();
        let sum: f64 = res.iter().sum();
        prop_assert!(sum.abs() < 1e-6 * (1.0 + ys.iter().map(|v| v.abs()).sum::<f64>()));
        let r = pearson(&xs, &res);
        prop_assert!(r.abs() < 1e-6 || !r.is_finite() || r.abs() < 1e-4);
    }

    #[test]
    fn median_is_order_invariant(mut xs in prop::collection::vec(-1e3f64..1e3, 1..100), seed in 0u64..100) {
        let m1 = median(&xs);
        // Shuffle deterministically.
        let mut rng = SeedTree::new(seed).stream("shuffle");
        for i in (1..xs.len()).rev() {
            let j = rng.gen_range(0..=i);
            xs.swap(i, j);
        }
        prop_assert!((median(&xs) - m1).abs() < 1e-12);
    }

    #[test]
    fn series_cursor_matches_binary_search_for_ordered_queries(
        sample_ts in prop::collection::vec(0i64..100_000, 0..60),
        mut query_ts in prop::collection::vec(-1_000i64..101_000, 1..200),
    ) {
        let mut sorted = sample_ts.clone();
        sorted.sort_unstable();
        let series: Series<usize> = sorted
            .iter()
            .enumerate()
            .map(|(i, &t)| (SimTime::from_micros(t), i))
            .collect();
        // The cursor contract only covers non-decreasing query times — the
        // recorder's tick loop. Duplicates are kept to exercise re-queries.
        query_ts.sort_unstable();
        let mut cur = series.cursor();
        for &q in &query_ts {
            let t = SimTime::from_micros(q);
            let expect = series.at(t);
            let got = cur.at(t);
            prop_assert_eq!(
                got.map(|s| (s.t, s.value)),
                expect.map(|s| (s.t, s.value))
            );
        }
        // `bound` mirrors the partition point the binary search would find.
        let mut cur = series.cursor();
        for &q in &query_ts {
            let t = SimTime::from_micros(q);
            let expect = series.samples().partition_point(|s| s.t <= t);
            prop_assert_eq!(cur.bound(t), expect);
        }
    }

    #[test]
    fn interval_cursor_matches_covering_for_ordered_queries(
        spans in prop::collection::vec((0i64..100_000, 1i64..5_000), 0..30),
        mut query_ts in prop::collection::vec(-1_000i64..110_000, 1..200),
    ) {
        let set: IntervalSet = spans
            .iter()
            .map(|&(start, len)| Interval::new(
                SimTime::from_micros(start),
                SimTime::from_micros(start + len),
            ))
            .collect();
        query_ts.sort_unstable();
        let mut cur = set.cursor();
        for &q in &query_ts {
            let t = SimTime::from_micros(q);
            prop_assert_eq!(cur.contains(t), set.contains(t));
        }
    }
}
