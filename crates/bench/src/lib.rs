//! `hss-bench` — the experiment harness that regenerates every table and
//! figure of the paper's evaluation.
//!
//! [`experiments::EXPERIMENTS`] is the one list of experiments: each entry
//! names a paper artifact, the claim its rows are read against and the
//! `*_rows` function that produces them.  Every row field is simulated or
//! analytic, so the rows are a function of the scale and the seed alone,
//! at any host thread count: CI regenerates the committed default-scale
//! files and fails on any byte of drift.  The package's one binary runs
//! entries by name:
//!
//! ```sh
//! cargo run --release -p hss-bench -- <name>... | all
//! ```
//!
//! Each run prints a table and writes `<name>.json` under `results/`
//! (override with `HSS_RESULTS_DIR`).  The executed experiment sizes are
//! controlled by `HSS_EXPERIMENT_SCALE` (`smoke` / `default` / `full`, see
//! [`scale::Scale`]).  Criterion micro-benchmarks live under `benches/`.

#![warn(missing_docs)]

pub mod alloc_counter;
pub mod experiments;
pub mod model;
pub mod output;
pub mod scale;

pub use scale::Scale;

/// Seed used by every experiment (override with `HSS_SEED`).
pub fn experiment_seed() -> u64 {
    std::env::var("HSS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED_2019)
}
