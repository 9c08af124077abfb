//! Classification scaling: wall-clock of the branchless decision tree
//! (implicit-heap splitters, eight keys in flight) against per-element
//! binary search over the splitter array, routing unsorted keys into `p`
//! buckets over a sweep of bucket counts.
//!
//! Both arms produce bitwise-identical bucket ids (asserted every run);
//! this binary measures what correctness tests cannot see — the branch
//! misses and serial dependence the tree eliminates.  Results are written
//! to `results/classify_scaling.json`.

use hss_bench::experiments::classify_scaling_rows;
use hss_bench::output::{print_table, save_json};
use hss_bench::Scale;

fn main() {
    let scale = Scale::from_env();
    let seed = hss_bench::experiment_seed();
    let rows = classify_scaling_rows(scale, seed);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.processors.to_string(),
                r.keys.to_string(),
                r.strategy.clone(),
                format!("{:.4}", r.wall_seconds),
                format!("{:.1}", r.mkeys_per_second),
                format!("{:.2}x", r.speedup_vs_binary),
            ]
        })
        .collect();
    print_table(
        "Classify scaling: decision tree vs per-element binary search",
        &["p", "keys", "strategy", "wall s", "Mkeys/s", "vs binary"],
        &table,
    );

    // Headline: per p, the tree's speedup over the per-element searches.
    for pair in rows.chunks(2) {
        let (binary, tree) = (&pair[0], &pair[1]);
        if tree.wall_seconds > 0.0 {
            println!(
                "p={:>5}: decision tree {:.2}x faster ({:.1} vs {:.1} Mkeys/s, height {})",
                tree.processors,
                binary.wall_seconds / tree.wall_seconds,
                tree.mkeys_per_second,
                binary.mkeys_per_second,
                tree.tree_height,
            );
        }
    }
    save_json("classify_scaling.json", &rows);
}
