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
use hss_repro::core::{SortReport, SplitterPolicy};
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
    --overlapped           overlapped execution: HSS pipelines splitter
                           determination with a staged exchange
    --trace <PATH>         dump the per-rank timeline (trace events +
                           critical path) as JSON to PATH
    --node-level           enable node-level partitioning (not bitonic/radix)
    --tag-duplicates       enable duplicate tagging (hss only)
    --approx-histograms    answer histograms from representative samples (hss only)
    --extsort              out-of-core tier: ranks (and, with --node-level, cores)
                           over the memory cap spill through the external sorter
                           — splitters from run files, merge drained straight into
                           staged exchange sends (not bitonic/radix, --tag-duplicates)
    --memory-cap <BYTES>   per-rank record-buffer budget for --extsort
                                                          [default: 1048576]
    --run-dir <PATH>       scratch root for run files (cleaned up on exit)
                                                          [default: temp dir]
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

/// Sort through the one pipeline: in memory, or — when the configuration
/// carries an out-of-core policy — with ranks over the cap spilling.
fn run_pipeline<P: SplitterPolicy<u64>>(
    sorter: HssSorter<P>,
    machine: &mut Machine,
    input: Vec<Vec<u64>>,
) -> (SortOutcome<u64>, Option<ExtSortReport>) {
    if sorter.config().ext_sort.is_some() {
        let (outcome, ext) = sorter.sort_out_of_core(machine, input);
        (outcome, Some(ext))
    } else {
        (sorter.sort(machine, input), None)
    }
}

/// [`run_pipeline`] with a baseline's splitter policy, reported under the
/// baseline's name.
fn run_policy<P: SplitterPolicy<u64> + Sorter<u64>>(
    config: HssConfig,
    policy: P,
    machine: &mut Machine,
    input: Vec<Vec<u64>>,
) -> (SortOutcome<u64>, Option<ExtSortReport>) {
    let algorithm = policy.algorithm();
    let (mut outcome, ext) =
        run_pipeline(HssSorter::with_splitters(config, policy), machine, input);
    outcome.report.algorithm = algorithm.to_string();
    (outcome, ext)
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
    // The pipeline's settings, shared by HSS and the splitter baselines.
    let mut config = HssConfig::default().with_local_sort(args.local_sort);
    config.node_level = args.node_level;
    if args.extsort {
        // Scratch runs live under a unique per-process subdirectory of
        // --run-dir and are removed again when the sort returns (RAII
        // guard), even on panic.
        let run_dir = args.run_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join("hss-demo").to_string_lossy().into_owned()
        });
        config = config.with_ext_sort(ExtSortPolicy::new(args.memory_cap, run_dir));
    }
    let (eps, local_sort) = (args.epsilon, args.local_sort);
    let (outcome, ext_report) = match args.algorithm.as_str() {
        "hss" | "hss-one-round" | "hss-scanning" => {
            config = config.with_epsilon(eps).with_seed(args.seed);
            if args.algorithm != "hss" {
                config.schedule = RoundSchedule::Theoretical { rounds: 1 };
            }
            if args.algorithm == "hss-scanning" {
                config.splitter_rule = SplitterRule::Scanning;
            }
            config.tag_duplicates = args.tag_duplicates;
            config.approximate_histograms = args.approx_histograms;
            run_pipeline(HssSorter::new(config), &mut machine, input)
        }
        "sample-regular" => {
            let cfg = SampleSortConfig { local_sort, ..SampleSortConfig::regular(eps) };
            run_policy(config, cfg, &mut machine, input)
        }
        "sample-random" => {
            let cfg = SampleSortConfig { local_sort, ..SampleSortConfig::random(eps) };
            run_policy(config, cfg, &mut machine, input)
        }
        "histogram" => {
            let cfg =
                HistogramSortConfig { local_sort, ..HistogramSortConfig::new(eps, args.ranks) };
            run_policy(config, cfg, &mut machine, input)
        }
        "overpartition" => {
            let cfg = OverPartitioningConfig {
                local_sort,
                ..OverPartitioningConfig::recommended(args.ranks)
            };
            run_policy(config, cfg, &mut machine, input)
        }
        "bitonic" => {
            let (data, report) = bitonic_sort(&mut machine, input, local_sort);
            (SortOutcome { data, report }, None)
        }
        "radix" => {
            let cfg = RadixConfig { local_sort, ..RadixConfig::recommended(args.ranks) };
            (cfg.sort(&mut machine, input), None)
        }
        other => {
            eprintln!("unknown algorithm {other}\n\n{HELP}");
            exit(2);
        }
    };
    (outcome.data, outcome.report, machine, ext_report)
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
    if args.extsort && matches!(args.algorithm.as_str(), "bitonic" | "radix") {
        eprintln!("--extsort does not apply to bitonic and radix, which are not splitter sorts");
        exit(2);
    }
    if args.extsort && args.tag_duplicates {
        eprintln!(
            "--extsort cannot be combined with --tag-duplicates: tags are not run-file records"
        );
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
        println!("\nout-of-core tier (cap {} bytes/rank):", args.memory_cap);
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
