//! Chaos sweep: drive the mission-support tier through seeded fault plans of
//! increasing intensity and record the reliability scorecards (EXPERIMENTS.md
//! row ROBUST-2).
//!
//! Deterministic: the same seed reproduces every plan, every run and every
//! byte of the artifact. Usage:
//!
//! ```text
//! cargo run --release -p ares-bench --bin chaos [seed]
//! ```

use ares_support::runtime::{chaos_sweep, render_chaos_sweep, CHAOS_SWEEP_SEED};

fn main() {
    let seed = match std::env::args().nth(1) {
        None => CHAOS_SWEEP_SEED,
        Some(s) => {
            let parsed = s
                .strip_prefix("0x")
                .or_else(|| s.strip_prefix("0X"))
                .map_or_else(|| s.parse::<u64>(), |hex| u64::from_str_radix(hex, 16));
            match parsed {
                Ok(v) => v,
                Err(_) => {
                    eprintln!("error: seed must be a decimal or 0x-prefixed hex u64, got {s:?}");
                    std::process::exit(2);
                }
            }
        }
    };
    let t0 = std::time::Instant::now();
    let sweep = chaos_sweep(seed);
    println!("intensity | avail %  | failovers | MTTR min | telemetry s/d/dup | replay gap min");
    println!("----------|----------|-----------|----------|-------------------|---------------");
    for (intensity, report) in &sweep {
        println!(
            "{:9.2} | {:8.3} | {:9} | {:8.1} | {:5}/{:<5}/{:<5} | {:.1}",
            intensity,
            report.availability_pct(),
            report.failovers,
            report.mttr.as_secs_f64() / 60.0,
            report.telemetry.sent,
            report.telemetry.delivered,
            report.telemetry.duplicates,
            report.max_replay_gap.as_secs_f64() / 60.0,
        );
        // The robustness contract, enforced at every intensity: the tier
        // serves, and the reliable channel never permanently loses a digest.
        assert!(
            report.availability_pct() >= 99.0,
            "availability regression at intensity {intensity}:\n{}",
            report.render()
        );
        assert_eq!(
            report.telemetry.pending,
            0,
            "undelivered telemetry at intensity {intensity}:\n{}",
            report.render()
        );
        assert_eq!(report.telemetry.sent, report.telemetry.delivered);
    }
    let artifact = render_chaos_sweep(seed, &sweep);
    match std::fs::create_dir_all("artifacts")
        .and_then(|()| std::fs::write("artifacts/chaos_scorecards.md", &artifact))
    {
        Ok(()) => println!("\nwrote artifacts/chaos_scorecards.md ({:?})", t0.elapsed()),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
