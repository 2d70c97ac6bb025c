//! Mission-scale shape checks, identical to the `full_repro` binary's gate.
//!
//! Running the whole mission takes ~20 s in release and several minutes in
//! debug, so this test is `#[ignore]`d by default:
//!
//! ```sh
//! cargo test --release --test mission_level -- --ignored
//! ```

use ares::crew::roster::AstronautId;
use ares::icares::{calibration, figures, MissionRunner};

#[test]
#[ignore = "full-mission run; execute with --release -- --ignored"]
fn all_paper_shape_checks_hold() {
    let runner = MissionRunner::icares();
    let mut death_day = None;
    let mission = runner.run_days(2, 14, |d| {
        if d.day == 4 {
            death_day = Some(d.clone());
        }
    });
    let fig2 = figures::figure2(&mission);
    let fig3 = figures::figure3(
        &mission,
        &runner.world().plan,
        &runner.world().beacons,
        AstronautId::A,
    );
    let fig4 = figures::figure4(&mission);
    let fig5 = figures::figure5(&death_day.expect("day 4 seen"));
    let fig6 = figures::figure6(&mission);
    let table1 = ares::sociometrics::report::table_one(&mission);
    let stats = figures::stats_report(&mission);
    let claims = calibration::check_claims(&calibration::Artifacts {
        fig2: &fig2,
        center_distance_m: &fig3.center_distance_m,
        fig4: &fig4,
        fig5: &fig5,
        fig6: &fig6,
        table1: &table1,
        stats: &stats,
    });
    let failing: Vec<_> = claims.iter().filter(|c| !c.pass).collect();
    assert!(
        failing.is_empty(),
        "shape checks failing:\n{}",
        calibration::render_claims_markdown(&failing.into_iter().cloned().collect::<Vec<_>>())
    );
}

#[test]
#[ignore = "full-mission run; execute with --release -- --ignored"]
fn gender_classification_from_f0_is_correct() {
    // "identifying the speaker during a multi-person conversation and
    // distinguishing between male and female speakers."
    use ares::sociometrics::speech::classify_register;
    let runner = MissionRunner::icares();
    let (_, analysis) = runner.run_day(3);
    let expected = [
        (AstronautId::A, "female"),
        (AstronautId::B, "female"),
        (AstronautId::C, "male"),
        (AstronautId::D, "female"),
        (AstronautId::E, "male"),
        (AstronautId::F, "male"),
    ];
    let params = runner.pipeline().context().params().speech;
    for (a, want) in expected {
        let idx = analysis.carrier_of[a.index()].expect("resolved");
        let got = classify_register(&analysis.badges[idx].speech, &params);
        assert_eq!(got, Some(want), "register of {a}");
    }
}
