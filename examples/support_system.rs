//! The Section VI mission-support system, live: streaming alerts, the
//! 20-minute Earth link with the day-12 command conflict, a replicated
//! analysis tier surviving a primary crash, a change-approval round, and the
//! fluid-balance integration.
//!
//! ```sh
//! cargo run --release --example support_system
//! ```

use ares::crew::roster::AstronautId;
use ares::icares::MissionRunner;
use ares::simkit::time::SimTime;
use ares::support::prelude::*;

fn main() {
    let runner = MissionRunner::icares();
    let bus = Bus::new();
    let alert_feed = bus.subscribe(Topic::Alerts);
    let mut engine = AlertEngine::new(AlertRules::default());
    let mut link = EarthLink::new(ConflictPolicy::CrewWins);

    println!("streaming mission days through the support system…\n");
    let _ = runner.run_days(2, 14, |day| {
        // Alerts from the day's analysis, published on the bus.
        for alert in engine.evaluate_day(day) {
            bus.publish(
                Topic::Alerts,
                Message {
                    from: "alert-engine".into(),
                    payload: format!("[{:?}] {}", alert.severity, alert.detail),
                },
            );
        }

        // Day 12: mission control's delayed instructions conflict with the
        // crew's already-taken course of action.
        if day.day == 12 {
            link.uplink(
                SimTime::from_day_hms(12, 9, 40, 0),
                Command {
                    id: 42,
                    directive: "re-run experiment batch 7 with original parameters".into(),
                    based_on_version: link.local_version(),
                },
            );
            link.local_action(
                SimTime::from_day_hms(12, 9, 55, 0),
                "crew already re-planned batch 7 around the failed sensor",
            );
            for delivery in link.advance(SimTime::from_day_hms(12, 10, 0, 0)) {
                match delivery {
                    Delivery::Conflict { command, .. } => println!(
                        "day 12  EARTHLINK conflict: command {} arrived stale — crew decision stands, report queued",
                        command.id
                    ),
                    Delivery::Applied(c) => println!("day 12  EARTHLINK applied {}", c.id),
                }
            }
        }
    });

    // Drain the alert feed.
    let alerts = alert_feed.drain();
    println!(
        "\n{} alerts were published on the bus; a sample:",
        alerts.len()
    );
    for a in alerts.iter().take(10) {
        println!("  {}", a.payload);
    }

    // Replication: the analysis tier's primary dies at noon on day 9; the
    // failure detector promotes a backup, which restores the last replicated
    // snapshot and replays the record log without losing the day.
    println!("\n=== analysis tier: primary killed at noon on day 9 ===");
    let noon = SimTime::from_day_hms(9, 12, 0, 0);
    let plan = FaultPlan::new(9).with(Fault::ReplicaCrash {
        replica: ReplicaId(0),
        at: noon,
        recover_at: None,
    });
    let mut drill = ChaosMission::new(ChaosConfig::icares_day(9), &plan);
    let report = drill.run();
    print!("{}", report.render());
    assert_eq!(report.failovers, 1, "the backup took over");
    assert!(report.availability_pct() >= 99.0, "the tier must survive");

    // A change-approval round: the crew asks to intensify mic sampling after
    // the reprimand; mission control approves 40+ minutes later.
    println!("\n=== change-approval round ===");
    let rules = ApprovalRules {
        aboard: 5, // C is gone
        crew_quorum: 4,
        ..Default::default()
    };
    let mut proposal = Proposal::new(
        "intensify meeting-loudness monitoring for 48 h",
        SimTime::from_day_hms(12, 13, 0, 0),
    );
    for a in [
        AstronautId::A,
        AstronautId::B,
        AstronautId::D,
        AstronautId::F,
    ] {
        proposal.crew_vote(a, Vote::Approve);
    }
    let s1 = proposal.evaluate(SimTime::from_day_hms(12, 13, 5, 0), &rules);
    println!("crew quorum reached, awaiting Earth: {s1:?}");
    proposal.control_vote(Vote::Approve);
    let s2 = proposal.evaluate(SimTime::from_day_hms(12, 13, 45, 0), &rules);
    println!("after mission control's consent: {s2:?}");

    // The approved change goes through the privacy governor (audited).
    let mut governor = PrivacyGovernor::icares();
    governor.intensify(
        "approval:proposal-1",
        SensorClass::Microphone,
        ares::simkit::series::Interval::new(
            SimTime::from_day_hms(12, 14, 0, 0),
            SimTime::from_day_hms(14, 14, 0, 0),
        ),
    );
    println!(
        "governor duty for mics in the main hall on day 13: {:?} (audit entries: {})",
        governor.duty(
            SensorClass::Microphone,
            ares::habitat::rooms::RoomId::Main,
            SimTime::from_day_hms(13, 10, 0, 0)
        ),
        governor.audit().len()
    );

    // Fluid-balance integration: badges identify who drank and who used the
    // processor; the ledger gets the recovered water back.
    println!("\n=== fluid-balance integration (day 11, rationing) ===");
    let mut fb = FluidBalance::new();
    for a in AstronautId::ALL {
        if a == AstronautId::C {
            continue;
        }
        fb.drink(a, if a == AstronautId::E { 0.6 } else { 1.9 });
        fb.void(a, 1.1);
    }
    let mut ledger = ResourceLedger::icares();
    ledger.apply(
        SimTime::from_day_hms(11, 21, 0, 0),
        Resource::Water,
        fb.recovered_water_l(),
    );
    for who in fb.dehydrated(0.4) {
        println!(
            "dehydration warning for {who} (net {:+.2} L)",
            fb.net_l(who, 0.4)
        );
    }
    println!(
        "urine processor recovered {:.1} L back into stores ({:.0} L water remaining)",
        fb.recovered_water_l(),
        ledger.stock(Resource::Water)
    );
}
