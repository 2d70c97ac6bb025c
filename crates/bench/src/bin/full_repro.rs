//! Runs the complete reproduction: every figure, the table (with the
//! paper's reference rows), the statistics, and the shape-check claim table
//! recorded in EXPERIMENTS.md. Stdout depends only on the code; the wall
//! time goes to stderr.
use ares_crew::roster::AstronautId;
use ares_icares::{calibration, figures};

fn main() {
    let t0 = std::time::Instant::now();
    let (runner, mission, death_day) = ares_bench::run_full_mission();
    let fig2 = figures::figure2(&mission);
    let fig3 = figures::figure3(
        &mission,
        &runner.world().plan,
        &runner.world().beacons,
        AstronautId::A,
    );
    let fig4 = figures::figure4(&mission);
    let fig5 = figures::figure5(&death_day);
    let fig6 = figures::figure6(&mission);
    let table1 = ares_sociometrics::report::table_one(&mission);
    let stats = figures::stats_report(&mission);

    println!(
        "==================== Fig. 2 ====================\n{}",
        fig2.render()
    );
    let (from, to, n) = fig2.hottest();
    println!("hottest corridor: {from} → {to} ({n} passages)");
    println!(
        "==================== Fig. 3 ====================\n{}",
        fig3.ascii
    );
    for a in AstronautId::ALL {
        println!(
            "  {a}: mean centre distance {:.2} m",
            fig3.center_distance_m[a.index()]
        );
    }
    println!(
        "\n==================== Fig. 4 ====================\n{}",
        fig4.render()
    );
    println!(
        "==================== Fig. 5 ====================\n{}",
        fig5.render()
    );
    println!(
        "==================== Fig. 6 ====================\n{}",
        fig6.render()
    );
    println!(
        "==================== Table I ===================\n{}",
        table1.render()
    );
    println!("paper reference:\nid  company  authority  talking  walking");
    for (a, (c, au, ta, wa)) in AstronautId::ALL.into_iter().zip(calibration::TABLE1_PAPER) {
        let f = |v: Option<f64>| v.map_or("n/a".into(), |x| format!("{x:.2}"));
        println!("{a}   {:>7}  {:>9}  {ta:>7.2}  {wa:>7.2}", f(c), f(au));
    }
    println!(
        "==================== Stats =====================\n{}",
        stats.render()
    );

    let artifacts = calibration::Artifacts {
        fig2: &fig2,
        center_distance_m: &fig3.center_distance_m,
        fig4: &fig4,
        fig5: &fig5,
        fig6: &fig6,
        table1: &table1,
        stats: &stats,
    };
    let mut claims = calibration::check_claims(&artifacts);

    // Survey cross-check (the paper's verification methodology).
    let surveys = ares_crew::surveys::generate(
        runner.roster(),
        &runner.world().incidents,
        &ares_crew::surveys::SurveyConfig::default(),
        &ares_simkit::rng::SeedTree::new(0x1CA7E5),
    );
    let check = ares_sociometrics::validation::cross_check(&mission, &surveys);
    println!(
        "==================== Survey cross-check ====================\n{}",
        check.render()
    );
    claims.push(calibration::ClaimCheck {
        id: "SURVEY-1".into(),
        paper: "survey answers allowed us to interpret and verify the sensor findings".into(),
        measured: format!(
            "{} of {} sensor↔survey correlations agree",
            check.items.iter().filter(|i| i.agrees).count(),
            check.items.len()
        ),
        pass: check.all_agree(),
    });

    // Environmental findings: the cosy kitchen and the Martian clock.
    if let Some((room, temp)) = mission.warmest_room() {
        claims.push(calibration::ClaimCheck {
            id: "ENV-1".into(),
            paper: "the kitchen was the cosiest room with the highest temperatures".into(),
            measured: format!("warmest room by badge thermometers: {room} at {temp:.1} °C"),
            pass: room == ares_habitat::rooms::RoomId::Kitchen,
        });
    }
    if let Some(est) = mission.day_length_estimate() {
        let sol = ares_habitat::environment::SOL;
        let err = (est.day_length - sol).abs();
        claims.push(calibration::ClaimCheck {
            id: "STUDY-1".into(),
            paper: "the habitat lived on adjusted Martian time (sol = 24 h 39.6 m)".into(),
            measured: format!(
                "day length from the light sensor: {} ({} pairs; daily shift {})",
                est.day_length, est.pairs, est.daily_shift
            ),
            pass: err < ares_simkit::time::SimDuration::from_mins(5),
        });
    }

    // Persist every artifact for downstream plotting. The telemetry sample
    // re-records one day in columnar form so the column serializer has real
    // data to stream out.
    let telemetry = runner.record_day_stores(3);
    let bundle = ares_icares::export::ExportBundle {
        fig2: &fig2,
        fig3: &fig3,
        fig4: &fig4,
        fig5: &fig5,
        fig6: &fig6,
        table1: &table1,
        stats: &stats,
        claims: &claims,
        telemetry: &telemetry,
    };
    match ares_icares::export::export_all(std::path::Path::new("artifacts"), &bundle) {
        Ok(paths) => println!("exported {} artifact files to ./artifacts", paths.len()),
        Err(e) => eprintln!("artifact export failed: {e}"),
    }

    println!("==================== Claims ====================");
    println!("{}", calibration::render_claims_markdown(&claims));
    let passed = claims.iter().filter(|c| c.pass).count();
    println!("{passed}/{} shape checks hold", claims.len());
    // Wall time goes to stderr, so two runs of the same code print
    // byte-identical stdout.
    eprintln!("wall time {:?}", t0.elapsed());
    if passed < claims.len() {
        std::process::exit(1);
    }
}
