//! `hss-demo` — a small command-line front end for the reproduction.
//!
//! Generates a synthetic workload, sorts it on the simulated cluster with a
//! chosen algorithm and prints the execution report.  No external argument
//! parser is used; the flag grammar is deliberately tiny.
//!
//! ```text
//! cargo run --release --bin hss-demo -- --ranks 64 --keys 100000 --dist powerlaw \
//!     --algorithm hss --epsilon 0.05 --cores-per-node 16 --node-level
//! cargo run --release --bin hss-demo -- --help
//! ```

use std::process::exit;

use hss_repro::baselines::{
    bitonic_sort, HistogramSortConfig, OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::core::SortReport;
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;

const HELP: &str = "\
hss-demo — sort a synthetic workload on the simulated cluster

USAGE:
    hss-demo [OPTIONS]

OPTIONS:
    --ranks <N>            number of simulated processor cores   [default: 64]
    --cores-per-node <N>   cores per shared-memory node          [default: 16]
    --keys <N>             keys per core                         [default: 50000]
    --dist <NAME>          uniform | normal | exponential | powerlaw | staggered |
                           sorted | reverse | allequal | fewdistinct | lambb | dwarf
                                                                  [default: uniform]
    --algorithm <NAME>     hss | hss-one-round | hss-scanning | sample-regular |
                           sample-random | histogram | overpartition | bitonic | radix
                                                                  [default: hss]
    --epsilon <F>          load-imbalance threshold               [default: 0.05]
    --local-sort <NAME>    comparison | radix — local-sort algorithm for the
                           per-rank sorts                        [default: radix]
    --threads <N>          host OS threads for the rayon pool (0 = auto;
                           default: RAYON_NUM_THREADS, else all cores)
    --sequential           run local phases sequentially (determinism oracle)
    --overlapped           overlapped execution: splitter determination
                           pipelined with a staged exchange (hss only)
    --trace <PATH>         dump the per-rank timeline (trace events +
                           critical path) as JSON to PATH
    --node-level           enable node-level partitioning (hss only)
    --tag-duplicates       enable duplicate tagging (hss only)
    --approx-histograms    answer histograms from representative samples (hss only)
    --extsort              out-of-core tier: ranks (and, with --node-level, cores)
                           over the memory cap spill through the external sorter
                           — splitters from run files, merge drained straight into
                           staged exchange sends (hss only, not --tag-duplicates)
    --memory-cap <BYTES>   per-rank record-buffer budget for --extsort
                                                          [default: 1048576]
    --run-dir <PATH>       scratch root for run files (cleaned up on exit)
                                                          [default: temp dir]
    --io-mode <NAME>       sync | overlapped — external-sort I/O scheduling
                                                          [default: overlapped]
    --prefetch-depth <N>   pin the overlapped merge's per-run prefetch depth
                           (>= 2; default: the double buffer, fan-in widened
                           to cover a rank's runs in one pass)
    --seed <N>             RNG seed                               [default: 2019]
    --verify               verify the output is a correct global sort
    --help                 print this help
";

#[derive(Debug, Clone)]
struct Args {
    ranks: usize,
    cores_per_node: usize,
    keys: usize,
    dist: String,
    algorithm: String,
    epsilon: f64,
    local_sort: LocalSortAlgo,
    threads: Option<usize>,
    sequential: bool,
    overlapped: bool,
    trace: Option<String>,
    node_level: bool,
    tag_duplicates: bool,
    approx_histograms: bool,
    extsort: bool,
    memory_cap: usize,
    run_dir: Option<String>,
    io_mode: IoMode,
    prefetch_depth: Option<usize>,
    seed: u64,
    verify: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            ranks: 64,
            cores_per_node: 16,
            keys: 50_000,
            dist: "uniform".to_string(),
            algorithm: "hss".to_string(),
            epsilon: 0.05,
            local_sort: LocalSortAlgo::default(),
            threads: None,
            sequential: false,
            overlapped: false,
            trace: None,
            node_level: false,
            tag_duplicates: false,
            approx_histograms: false,
            extsort: false,
            memory_cap: 1 << 20,
            run_dir: None,
            io_mode: IoMode::Overlapped,
            prefetch_depth: None,
            seed: 2019,
            verify: false,
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--ranks" => args.ranks = value("--ranks").parse().expect("--ranks must be an integer"),
            "--cores-per-node" => {
                args.cores_per_node =
                    value("--cores-per-node").parse().expect("--cores-per-node must be an integer")
            }
            "--keys" => args.keys = value("--keys").parse().expect("--keys must be an integer"),
            "--dist" => args.dist = value("--dist"),
            "--algorithm" => args.algorithm = value("--algorithm"),
            "--epsilon" => {
                args.epsilon = value("--epsilon").parse().expect("--epsilon must be a float")
            }
            "--local-sort" => {
                let v = value("--local-sort");
                args.local_sort = LocalSortAlgo::parse(&v).unwrap_or_else(|| {
                    eprintln!("--local-sort must be 'comparison' or 'radix' (got {v})");
                    exit(2);
                });
            }
            "--seed" => args.seed = value("--seed").parse().expect("--seed must be an integer"),
            "--threads" => {
                args.threads =
                    Some(value("--threads").parse().expect("--threads must be an integer"))
            }
            "--sequential" => args.sequential = true,
            "--overlapped" => args.overlapped = true,
            "--trace" => args.trace = Some(value("--trace")),
            "--node-level" => args.node_level = true,
            "--tag-duplicates" => args.tag_duplicates = true,
            "--approx-histograms" => args.approx_histograms = true,
            "--extsort" => args.extsort = true,
            "--memory-cap" => {
                args.memory_cap =
                    value("--memory-cap").parse().expect("--memory-cap must be an integer")
            }
            "--run-dir" => args.run_dir = Some(value("--run-dir")),
            "--io-mode" => {
                args.io_mode = match value("--io-mode").as_str() {
                    "sync" | "synchronous" => IoMode::Synchronous,
                    "overlapped" => IoMode::Overlapped,
                    other => {
                        eprintln!("--io-mode must be 'sync' or 'overlapped' (got {other})");
                        exit(2);
                    }
                }
            }
            "--prefetch-depth" => {
                args.prefetch_depth = Some(
                    value("--prefetch-depth").parse().expect("--prefetch-depth must be an integer"),
                )
            }
            "--verify" => args.verify = true,
            "--help" | "-h" => {
                print!("{HELP}");
                exit(0);
            }
            other => {
                eprintln!("unknown flag {other}\n\n{HELP}");
                exit(2);
            }
        }
    }
    args
}

fn generate(args: &Args) -> Vec<Vec<u64>> {
    let (ranks, keys, seed) = (args.ranks, args.keys, args.seed);
    match args.dist.as_str() {
        "uniform" => KeyDistribution::Uniform.generate_per_rank(ranks, keys, seed),
        "normal" => KeyDistribution::Normal { mean_frac: 0.5, std_frac: 0.05 }
            .generate_per_rank(ranks, keys, seed),
        "exponential" => {
            KeyDistribution::Exponential { scale_frac: 0.001 }.generate_per_rank(ranks, keys, seed)
        }
        "powerlaw" => KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(ranks, keys, seed),
        "staggered" => KeyDistribution::Staggered.generate_per_rank(ranks, keys, seed),
        "sorted" => KeyDistribution::Sorted.generate_per_rank(ranks, keys, seed),
        "reverse" => KeyDistribution::ReverseSorted.generate_per_rank(ranks, keys, seed),
        "allequal" => KeyDistribution::AllEqual.generate_per_rank(ranks, keys, seed),
        "fewdistinct" => {
            KeyDistribution::FewDistinct { distinct: 64 }.generate_per_rank(ranks, keys, seed)
        }
        "lambb" => ChangaDataset::lambb_like(seed).generate_keys_per_rank(ranks, keys, seed),
        "dwarf" => ChangaDataset::dwarf_like(seed).generate_keys_per_rank(ranks, keys, seed),
        other => {
            eprintln!("unknown distribution {other}\n\n{HELP}");
            exit(2);
        }
    }
}

/// Dispatch one baseline through the unified [`Sorter`] trait.
fn run_sorter(
    sorter: &dyn Sorter<u64>,
    machine: &mut Machine,
    input: Vec<Vec<u64>>,
) -> (Vec<Vec<u64>>, SortReport) {
    let outcome = sorter
        .run(machine, SortRequest::new(input))
        .unwrap_or_else(|e| panic!("{} failed: {e}", sorter.algorithm()));
    (outcome.data, outcome.report)
}

fn run(
    args: &Args,
    input: Vec<Vec<u64>>,
) -> (Vec<Vec<u64>>, SortReport, Machine, Option<ExtSortReport>) {
    let mut machine =
        Machine::new(Topology::new(args.ranks, args.cores_per_node), CostModel::bluegene_like());
    if args.sequential {
        machine = machine.with_parallelism(Parallelism::Sequential);
    }
    if args.overlapped {
        machine = machine.with_sync_model(SyncModel::Overlapped);
    }
    if args.trace.is_some() {
        machine = machine.with_tracing();
    }
    let mut ext_report = None;
    let (out, report) = match args.algorithm.as_str() {
        "hss" | "hss-one-round" | "hss-scanning" => {
            let mut config =
                HssConfig { epsilon: args.epsilon, ..HssConfig::default() }.with_seed(args.seed);
            if args.algorithm == "hss-one-round" {
                config.schedule = RoundSchedule::Theoretical { rounds: 1 };
            }
            if args.algorithm == "hss-scanning" {
                config.schedule = RoundSchedule::Theoretical { rounds: 1 };
                config.splitter_rule = SplitterRule::Scanning;
            }
            config.node_level = args.node_level;
            config.tag_duplicates = args.tag_duplicates;
            config.approximate_histograms = args.approx_histograms;
            config.local_sort = args.local_sort;
            if args.extsort {
                // Scratch runs live under a unique per-process subdirectory
                // of --run-dir and are removed again when the sort returns
                // (RAII guard), even on panic.
                let run_dir = args.run_dir.clone().unwrap_or_else(|| {
                    std::env::temp_dir().join("hss-demo").to_string_lossy().into_owned()
                });
                let mut policy =
                    ExtSortPolicy::new(args.memory_cap, run_dir).with_io_mode(args.io_mode);
                if let Some(depth) = args.prefetch_depth {
                    policy = policy.with_prefetch_depth(depth);
                }
                config = config.with_ext_sort(policy);
                let (outcome, ext) = HssSorter::new(config).sort_out_of_core(&mut machine, input);
                ext_report = Some(ext);
                (outcome.data, outcome.report)
            } else {
                let outcome = HssSorter::new(config).sort(&mut machine, input);
                (outcome.data, outcome.report)
            }
        }
        "sample-regular" => {
            let cfg = SampleSortConfig {
                local_sort: args.local_sort,
                ..SampleSortConfig::regular(args.epsilon)
            };
            run_sorter(&cfg, &mut machine, input)
        }
        "sample-random" => {
            let cfg = SampleSortConfig {
                local_sort: args.local_sort,
                ..SampleSortConfig::random(args.epsilon)
            };
            run_sorter(&cfg, &mut machine, input)
        }
        "histogram" => {
            let mut cfg = HistogramSortConfig::new(args.epsilon, args.ranks);
            cfg.local_sort = args.local_sort;
            run_sorter(&cfg, &mut machine, input)
        }
        "overpartition" => {
            let mut cfg = OverPartitioningConfig::recommended(args.ranks);
            cfg.local_sort = args.local_sort;
            run_sorter(&cfg, &mut machine, input)
        }
        "bitonic" => bitonic_sort(&mut machine, input, args.local_sort),
        "radix" => {
            let mut cfg = RadixConfig::recommended(args.ranks);
            cfg.local_sort = args.local_sort;
            run_sorter(&cfg, &mut machine, input)
        }
        other => {
            eprintln!("unknown algorithm {other}\n\n{HELP}");
            exit(2);
        }
    };
    (out, report, machine, ext_report)
}

/// JSON document written by `--trace`: run metadata, the full per-rank
/// timeline (one span per participating rank per superstep) and the
/// extracted critical path.
#[derive(serde::Serialize)]
struct TraceDump {
    algorithm: String,
    ranks: usize,
    sync_model: String,
    makespan_seconds: f64,
    events: Vec<hss_repro::sim::TraceEvent>,
    critical_path: Vec<hss_repro::sim::CriticalHop>,
}

/// Serialise the machine's trace (per-rank spans plus the extracted
/// critical path) as JSON to `path`.
fn dump_trace(path: &str, machine: &Machine, report: &SortReport) {
    let trace = machine.trace();
    let doc = TraceDump {
        algorithm: report.algorithm.clone(),
        ranks: machine.ranks(),
        sync_model: machine.sync_model().name().to_string(),
        makespan_seconds: machine.simulated_time(),
        events: trace.events().to_vec(),
        critical_path: trace.critical_path(),
    };
    match std::fs::write(path, serde_json::to_string_pretty(&doc).expect("trace serialises")) {
        Ok(()) => println!("trace written to {path} ({} events)", trace.len()),
        Err(e) => {
            eprintln!("could not write trace to {path}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.extsort && !args.algorithm.starts_with("hss") {
        eprintln!("--extsort only applies to the hss algorithms");
        exit(2);
    }
    if args.extsort && args.tag_duplicates {
        eprintln!(
            "--extsort cannot be combined with --tag-duplicates: tags are not run-file records"
        );
        exit(2);
    }
    if args.prefetch_depth.is_some() && !args.extsort {
        eprintln!("--prefetch-depth requires --extsort");
        exit(2);
    }
    if args.prefetch_depth.is_some_and(|d| d < 2) {
        eprintln!("--prefetch-depth must be at least 2 (double buffering)");
        exit(2);
    }
    if let Some(threads) = args.threads {
        // Must happen before anything touches the pool (key generation
        // below already runs on it).
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("--threads must be set before the global pool is used");
    }
    println!(
        "generating {} x {} = {} keys ({}) ...",
        args.ranks,
        args.keys,
        args.ranks * args.keys,
        args.dist
    );
    let input = generate(&args);
    let reference = if args.verify { Some(input.clone()) } else { None };

    let start = std::time::Instant::now();
    let (output, report, machine, ext_report) = run(&args, input);
    let wall = start.elapsed().as_secs_f64();

    println!("\nalgorithm        : {}", report.algorithm);
    println!("sync model       : {}", report.sync_model);
    println!("local sort       : {}", report.local_sort);
    println!("local sort wall  : {:.3} s", report.metrics.phase(Phase::LocalSort).wall_seconds);
    println!("simulated time   : {:.6} s", report.simulated_seconds());
    println!("simulated makespan: {:.6} s", report.makespan_seconds);
    println!("host wall time   : {wall:.3} s");
    println!("host threads     : {}", report.metrics.host_threads());
    println!("load imbalance   : {:.4}", report.imbalance());
    if let Some(sp) = &report.splitters {
        println!("histogram rounds : {}", sp.rounds_executed());
        println!("sample keys      : {}", sp.total_sample_size);
    }
    println!("messages         : {}", report.metrics.total_messages());
    if let Some(ext) = &ext_report {
        println!(
            "\nout-of-core tier ({} I/O, cap {} bytes/rank):",
            args.io_mode.name(),
            args.memory_cap
        );
        println!("  spilled elems  : {}", ext.elements);
        println!("  runs formed    : {}", ext.runs_formed);
        println!("  merge passes   : {}", ext.merge_passes);
        println!("  disk traffic   : {} B written, {} B read", ext.bytes_written, ext.bytes_read);
        println!(
            "  I/O wait       : {:.3} s of {:.3} s wall ({:.1}%)",
            ext.io_wait_seconds,
            ext.wall_seconds,
            100.0 * ext.io_wait_fraction()
        );
        // Where the modelled disk traffic landed: formation (LocalSort),
        // splitter probes (Sampling + Histogramming), the drain
        // (DataExchange), and spill merges (Merge; NodeLocalSort for the
        // cores of a node bucket).
        println!("  disk by phase  :");
        for (phase, pm) in machine.metrics().iter().filter(|(_, pm)| pm.disk_words > 0) {
            println!(
                "    {:<13}: {} words ({:.6} s simulated I/O wait share)",
                format!("{phase:?}"),
                pm.disk_words,
                pm.simulated_seconds
            );
        }
    }
    println!("\nper-phase breakdown:\n{}", report.metrics);

    if let Some(path) = &args.trace {
        dump_trace(path, &machine, &report);
    }

    if let Some(reference) = reference {
        match verify_global_sort(&reference, &output) {
            Ok(()) => println!("verification: output is a correct global sort"),
            Err(e) => {
                eprintln!("verification FAILED: {e}");
                exit(1);
            }
        }
    }
}
