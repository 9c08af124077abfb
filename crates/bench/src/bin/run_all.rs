//! Runs every table/figure experiment in sequence (the one-command
//! reproduction entry point).

use hss_bench::experiments::{
    classify_scaling_rows, epoch_service_rows, exchange_scaling_rows, extsort_scaling_rows,
    figure_3_1_rows, figure_4_1_rows, figure_6_1_rows, figure_6_2_rows, local_sort_scaling_rows,
    overlap_speedup_rows, record_scaling_rows, self_speedup_rows, table_5_1_rows, table_6_1_rows,
};
use hss_bench::output::save_json;
use hss_bench::Scale;

// No counting allocator here: installing it would perturb the wall-clock
// measurements of the other experiments (notably self_speedup).  Rows of
// exchange_scaling.json produced through run_all therefore report
// allocations = 0; run the dedicated `exchange_scaling` binary for real
// allocation counts.

fn main() {
    let scale = Scale::from_env();
    let seed = hss_bench::experiment_seed();
    println!("Running all experiments at scale '{scale}' (seed {seed})...");

    println!("\n[1/14] Table 5.1 (analytic sample sizes & complexity)");
    save_json("table_5_1.json", &table_5_1_rows());

    println!("[2/14] Figure 4.1 (sample size vs processors, analytic)");
    save_json("figure_4_1.json", &figure_4_1_rows());

    println!("[3/14] Table 6.1 (histogramming rounds observed)");
    save_json("table_6_1.json", &table_6_1_rows(scale, seed));

    println!("[4/14] Figure 3.1 (splitter interval shrinkage)");
    save_json("figure_3_1.json", &figure_3_1_rows(scale, seed));

    println!("[5/14] Figure 6.1 (weak scaling, per-phase breakdown)");
    save_json("figure_6_1.json", &figure_6_1_rows(scale, seed));

    println!("[6/14] Figure 6.2 (ChaNGa-like datasets, HSS vs classic histogram sort)");
    save_json("figure_6_2.json", &figure_6_2_rows(scale, seed));

    println!("[7/14] Self-speedup (host-thread scaling of the real pool)");
    save_json("self_speedup.json", &self_speedup_rows(scale, seed));

    println!("[8/14] Exchange scaling (flat vs nested exchange engine)");
    save_json("exchange_scaling.json", &exchange_scaling_rows(scale, seed));

    println!("[9/14] Overlap speedup (Bsp vs Overlapped sync model)");
    save_json("overlap_speedup.json", &overlap_speedup_rows(scale, seed));

    println!("[10/14] Local-sort scaling (radix vs comparison local sort)");
    save_json("local_sort_scaling.json", &local_sort_scaling_rows(scale, seed));

    println!("[11/14] Epoch service (warm-started splitters over a drifting stream)");
    save_json("epoch_service.json", &epoch_service_rows(scale, seed));

    println!("[12/14] Classify scaling (decision tree vs per-element binary search)");
    save_json("classify_scaling.json", &classify_scaling_rows(scale, seed));

    println!("[13/14] Record scaling (u64 keys vs 100-byte terasort records)");
    save_json("record_scaling.json", &record_scaling_rows(scale, seed));

    println!("[14/14] External-sort scaling (bounded-memory disk sort, sync vs overlapped I/O)");
    save_json("extsort_scaling.json", &extsort_scaling_rows(scale, seed));

    println!("\nAll experiments complete. JSON results are under the results directory;");
    println!("run the individual binaries (table_5_1, table_6_1, figure_3_1, figure_4_1,");
    println!("figure_6_1, figure_6_2, self_speedup, exchange_scaling, overlap_speedup,");
    println!("local_sort_scaling, epoch_service, classify_scaling, record_scaling,");
    println!("extsort_scaling) for formatted tables.");
}
