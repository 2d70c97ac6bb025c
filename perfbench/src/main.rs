//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a table of its metrics, then, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics,
//! traced runs the per-layer ones; a traced run also writes its spans to
//! `perfbench/out/trace-<workload>-<seed>.json` under the working directory.

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{Options, Workload, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <mission_days|ingest_backfill|fleet_variants> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options::new(DEFAULT_SEED, 30.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn write_trace(workload: Workload, opts: &Options, outcome: &report::Outcome) {
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("trace-{}-{}.json", workload.name(), opts.seed));
    let counts: Vec<String> = outcome
        .program_counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"program_counts\": {{{}}}, \"trace\": {}}}\n",
        workload.name(),
        opts.seed,
        counts.join(", "),
        outcome.trace_json
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let outcome = perfbench::run(workload, &opts);
    let metrics = outcome.select(if opts.trace { PER_LAYER } else { END_TO_END });
    print!("{}", report::table(&metrics));
    for (name, value) in &outcome.program_counts {
        println!("program count {name} = {value}");
    }
    if opts.trace {
        write_trace(workload, &opts, &outcome);
    }
    match report::result_line(&outcome, &metrics) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
