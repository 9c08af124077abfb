//! `hss-bench`: run experiments of the registry
//! ([`hss_bench::experiments::EXPERIMENTS`]) by name, print each one's rows
//! as a table with the claim they are read against, and write them to
//! `<results dir>/<name>.json`.
//!
//! ```sh
//! cargo run --release -p hss-bench -- <name>... | all
//! ```
//!
//! `all` selects every entry.  An unknown name, or a results file that
//! cannot be written, exits non-zero.

use std::process::ExitCode;

use hss_bench::experiments::{Experiment, EXPERIMENTS};
use hss_bench::output::{render_rows, results_dir, save_json};
use hss_bench::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&args) {
        Ok(selected) => selected,
        Err(message) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
            eprintln!("error: {message}");
            eprintln!("usage: hss-bench <name>... | all");
            eprintln!("names: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let scale = Scale::from_env();
    let seed = hss_bench::experiment_seed();
    let dir = results_dir();
    println!("experiment scale: {scale}, seed {seed}");
    for experiment in selected {
        let rows = (experiment.run)(scale, seed);
        println!("\n== {} ==", experiment.artifact);
        print!("{}", render_rows(&rows));
        println!("claim: {}", experiment.claim);
        let file = format!("{}.json", experiment.name);
        match save_json(&dir, &file, &rows) {
            Ok(path) => println!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("error: could not write {file} under {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// The experiments `args` name, in registry order within `all` and
/// otherwise in the order given, each once.
fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    for arg in args {
        let matched: Vec<&'static Experiment> =
            EXPERIMENTS.iter().filter(|e| arg == "all" || e.name == arg).collect();
        if matched.is_empty() {
            return Err(format!("unknown experiment `{arg}`"));
        }
        for experiment in matched {
            if !selected.iter().any(|s| s.name == experiment.name) {
                selected.push(experiment);
            }
        }
    }
    if selected.is_empty() {
        return Err("name at least one experiment".into());
    }
    Ok(selected)
}
