//! Prints the ablation tables and writes them to `artifacts/ablations.txt`,
//! the file EXPERIMENTS.md quotes.
//!
//! ```text
//! cargo run --release -p ares-bench --bin ablations
//! ```

fn main() {
    let tables = ares_bench::ablations::ablations();
    print!("{tables}");
    match std::fs::create_dir_all("artifacts")
        .and_then(|()| std::fs::write("artifacts/ablations.txt", &tables))
    {
        Ok(()) => println!("\nwrote artifacts/ablations.txt"),
        Err(e) => eprintln!("could not write artifact: {e}"),
    }
}
