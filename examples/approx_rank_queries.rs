//! Approximate histogramming as a general rank-query oracle (§3.4).
//!
//! Every processor keeps a small representative sample of its local data;
//! global rank (percentile) queries are answered from the samples alone,
//! within `εN/p` of the truth w.h.p. (Theorem 3.4.1).  This example builds
//! the oracle over a skewed dataset, queries a few percentiles and compares
//! the estimates with exact ranks.
//!
//! ```text
//! cargo run --release --example approx_rank_queries
//! ```

use hss_core::ApproxHistogrammer;
use hss_partition::exact_rank;
use hss_repro::prelude::*;

const RANKS: usize = 64;
const KEYS_PER_RANK: usize = 100_000;
const EPSILON: f64 = 0.05;

fn main() {
    // Skewed data: exponential keys concentrated near zero.
    let mut data = KeyDistribution::Exponential { scale_frac: 0.01 }.generate_per_rank(
        RANKS,
        KEYS_PER_RANK,
        7,
    );
    for v in &mut data {
        v.sort_unstable();
    }
    let total = (RANKS * KEYS_PER_RANK) as u64;

    let mut machine = Machine::flat(RANKS);
    let sample_size = ApproxHistogrammer::<u64>::prescribed_sample_size(RANKS, EPSILON);
    let oracle = ApproxHistogrammer::build(&mut machine, &data, sample_size, 1);
    println!(
        "representative sample: {} keys/rank ({} total) for {} input keys ({:.4}% of the data)",
        sample_size,
        oracle.total_sample_size(),
        total,
        100.0 * oracle.total_sample_size() as f64 / total as f64
    );

    // Query the keys that the exact 10th..90th percentiles fall on.
    let sorted = hss_partition::global_sorted(&data);
    let queries: Vec<u64> = (1..10).map(|i| sorted[(total as usize) * i / 10]).collect();
    let estimates = oracle.estimated_global_ranks(&mut machine, &queries);

    println!(
        "\n{:>4}  {:>14}  {:>14}  {:>12}  {:>10}",
        "pct", "true rank", "estimated", "abs error", "eps*N/p"
    );
    let allowed = EPSILON * total as f64 / RANKS as f64;
    for (i, (q, est)) in queries.iter().zip(estimates.iter()).enumerate() {
        let truth = exact_rank(&data, *q) as f64;
        println!(
            "{:>3}%  {:>14.0}  {:>14.0}  {:>12.0}  {:>10.0}",
            (i + 1) * 10,
            truth,
            est,
            (est - truth).abs(),
            allowed
        );
    }
    println!(
        "\nTheorem 3.4.1: with {} samples per rank the error stays within eps*N/p = {:.0} ranks w.h.p.",
        sample_size, allowed
    );
}
