//! Executable reproductions of every table and figure in the paper's
//! evaluation.  Each function returns structured rows; the `src/bin/*`
//! binaries print and persist them.

use hss_analysis::{table_5_1_costs, Algorithm};
use hss_baselines::common::{finish_splitter_sort, local_sort_phase};
use hss_baselines::{histogram_sort_splitters, HistogramSortConfig};
use hss_core::{determine_splitters, theory, HssConfig, HssSorter, RoundSchedule};
use hss_keygen::{ChangaDataset, KeyDistribution, Record};
use hss_partition::{exact_splitters, tree_height, DecisionTree};
use hss_sim::{CostModel, Machine, Phase, Topology};
use serde::{Deserialize, Serialize};

use crate::model::{modelled_figure_6_1_series, ModelledBreakdown};
use crate::scale::Scale;

// ---------------------------------------------------------------------------
// Table 5.1 — analytic sample sizes and cost expressions
// ---------------------------------------------------------------------------

/// One row of Table 5.1 (analytic).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table51Row {
    /// Algorithm name (matches the paper's row label).
    pub algorithm: String,
    /// Overall sample size formula evaluated in keys.
    pub sample_keys: f64,
    /// Overall sample size in bytes for 8-byte keys (the "p = 10⁵, ε = 5 %"
    /// column).
    pub sample_bytes: f64,
    /// Splitter-determination computation (ops).
    pub splitter_ops: f64,
    /// Total computation (ops).
    pub total_ops: f64,
    /// Total communication (words).
    pub total_comm_words: f64,
}

/// Evaluate Table 5.1 at the paper's reference point: `p = 10⁵`, `ε = 5 %`,
/// `N/p = 10⁶` keys, 8-byte keys.
pub fn table_5_1_rows() -> Vec<Table51Row> {
    let p = 100_000usize;
    let n_total = p as u64 * 1_000_000;
    let eps = 0.05;
    let algorithms = vec![
        Algorithm::SampleSortRegular,
        Algorithm::SampleSortRandom,
        Algorithm::HssOneRound,
        Algorithm::HssRounds(2),
        Algorithm::HssRounds(4),
        Algorithm::HssConstantOversampling,
    ];
    algorithms
        .into_iter()
        .map(|alg| {
            let costs = table_5_1_costs(alg, p, n_total, eps);
            Table51Row {
                algorithm: alg.name(),
                sample_keys: alg.sample_size_keys(p, n_total, eps),
                sample_bytes: alg.sample_size_bytes(p, n_total, eps, 8),
                splitter_ops: costs.splitter_ops,
                total_ops: costs.total_ops(),
                total_comm_words: costs.total_comm_words(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 6.1 — number of histogramming rounds observed
// ---------------------------------------------------------------------------

/// One row of Table 6.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table61Row {
    /// Number of processors (buckets); the paper runs without the
    /// shared-memory optimisation, i.e. flat rank-level partitioning.
    pub processors: usize,
    /// Expected per-round sample size divided by p (the paper's
    /// "sample size/round (×p)" column, always 5).
    pub sample_per_round_factor: f64,
    /// Histogramming rounds the algorithm actually needed.
    pub rounds_observed: usize,
    /// The analytical bound `⌈ln(2 ln p/ε)/ln(f/2)⌉`.
    pub rounds_bound: usize,
    /// Whether every splitter was within tolerance at the end.
    pub all_finalized: bool,
    /// Total keys sorted in this configuration.
    pub total_keys: u64,
}

/// Run the Table 6.1 experiment: ε = 0.02, 5 samples per processor per
/// round, uniform keys, no shared-memory optimisation.
pub fn table_6_1_rows(scale: Scale, seed: u64) -> Vec<Table61Row> {
    let eps = 0.02;
    let oversampling = 5.0;
    scale
        .table_6_1_processors()
        .into_iter()
        .map(|p| {
            let keys_per_rank = scale.table_6_1_keys_per_rank();
            let mut data = KeyDistribution::Uniform.generate_per_rank(p, keys_per_rank, seed);
            for v in &mut data {
                v.sort_unstable();
            }
            let mut machine = Machine::new(Topology::flat(p), CostModel::bluegene_like());
            let config = HssConfig {
                epsilon: eps,
                schedule: RoundSchedule::ConstantOversampling { oversampling, max_rounds: 64 },
                ..HssConfig::default()
            }
            .with_seed(seed);
            let (_splitters, report) = determine_splitters(&mut machine, &data, p, &config);
            Table61Row {
                processors: p,
                sample_per_round_factor: oversampling,
                rounds_observed: report.rounds_executed(),
                rounds_bound: theory::round_bound_constant_oversampling(p, eps, oversampling),
                all_finalized: report.all_finalized,
                total_keys: report.total_keys,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3.1 — splitter interval shrinkage
// ---------------------------------------------------------------------------

/// One per-round record of the Figure 3.1 trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure31Row {
    /// Input distribution name.
    pub distribution: String,
    /// Number of processors.
    pub processors: usize,
    /// Round index (1-based).
    pub round: usize,
    /// Overall sample gathered this round.
    pub sample_size: usize,
    /// Splitters still open after this round.
    pub open_after: usize,
    /// Mean splitter-interval width in ranks after this round.
    pub mean_interval_width: f64,
    /// `G_j`: union of the open splitter intervals (in ranks).
    pub union_rank_size: u64,
    /// `G_j / N`.
    pub covered_fraction: f64,
}

/// Trace how the splitter intervals shrink round over round for a uniform
/// and a heavily skewed input.
pub fn figure_3_1_rows(scale: Scale, seed: u64) -> Vec<Figure31Row> {
    let eps = 0.02;
    let mut rows = Vec::new();
    for p in scale.figure_3_1_processors() {
        for dist in [KeyDistribution::Uniform, KeyDistribution::PowerLaw { gamma: 4.0 }] {
            let mut data = dist.generate_per_rank(p, 2_000, seed);
            for v in &mut data {
                v.sort_unstable();
            }
            let mut machine = Machine::new(Topology::flat(p), CostModel::bluegene_like());
            let config = HssConfig {
                epsilon: eps,
                schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
                ..HssConfig::default()
            }
            .with_seed(seed);
            let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
            for r in &report.rounds {
                rows.push(Figure31Row {
                    distribution: dist.name().to_string(),
                    processors: p,
                    round: r.round,
                    sample_size: r.sample_size,
                    open_after: r.open_after,
                    mean_interval_width: r.mean_interval_width,
                    union_rank_size: r.union_rank_size,
                    covered_fraction: r.covered_fraction,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 4.1 — sample size vs processor count
// ---------------------------------------------------------------------------

/// One point of Figure 4.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure41Row {
    /// Series name (Figure 4.1 legend).
    pub series: String,
    /// Number of processors.
    pub processors: usize,
    /// Overall sample size in keys at 5 % load imbalance.
    pub sample_keys: f64,
}

/// Evaluate the five Figure 4.1 series over the paper's processor range
/// (4 → 256 K) at 5 % load imbalance.
pub fn figure_4_1_rows() -> Vec<Figure41Row> {
    let eps = 0.05;
    let mut rows = Vec::new();
    for alg in Algorithm::figure_4_1_series() {
        for p in hss_analysis::figure_4_1_processor_counts() {
            let n_total = p as u64 * 1_000_000;
            rows.push(Figure41Row {
                series: alg.name(),
                processors: p,
                sample_keys: alg.sample_size_keys(p, n_total, eps),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 6.1 — weak scaling with per-phase breakdown
// ---------------------------------------------------------------------------

/// One weak-scaling point of Figure 6.1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure61Row {
    /// "executed" (real data on the simulator) or "modelled" (BSP cost
    /// model at the paper's full configuration).
    pub mode: String,
    /// Number of processor cores.
    pub processors: usize,
    /// Keys per core.
    pub keys_per_core: u64,
    /// Local-sort seconds (simulated).
    pub local_sort: f64,
    /// Histogramming seconds (simulated; includes sampling and splitter
    /// broadcast, as in the figure).
    pub histogramming: f64,
    /// Data-exchange seconds (simulated; includes the merge).
    pub data_exchange: f64,
    /// Achieved load imbalance.
    pub imbalance: f64,
    /// Histogramming rounds executed.
    pub rounds: usize,
    /// Host wall-clock seconds for the whole sort (informational).
    pub wall_seconds: f64,
}

impl Figure61Row {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.local_sort + self.histogramming + self.data_exchange
    }
}

/// Run the executed weak-scaling sweep (node-level partitioning, 16 cores
/// per node, 8-byte keys + 4-byte payload) and append the modelled series at
/// the paper's full configuration.
pub fn figure_6_1_rows(scale: Scale, seed: u64) -> Vec<Figure61Row> {
    let mut rows = Vec::new();
    let keys_per_core = scale.figure_6_1_keys_per_core();
    for p in scale.figure_6_1_executed_processors() {
        let input: Vec<Vec<Record>> =
            KeyDistribution::Uniform.generate_records_per_rank(p, keys_per_core, seed);
        let mut machine = Machine::new(Topology::mira(p), CostModel::bluegene_like());
        let sorter = HssSorter::new(HssConfig::paper_cluster().with_seed(seed));
        let outcome = sorter.sort(&mut machine, input);
        let groups = outcome.report.metrics.figure_6_1_breakdown();
        rows.push(Figure61Row {
            mode: "executed".to_string(),
            processors: p,
            keys_per_core: keys_per_core as u64,
            local_sort: groups.get("local sort").copied().unwrap_or(0.0),
            histogramming: groups.get("histogramming").copied().unwrap_or(0.0),
            data_exchange: groups.get("data exchange").copied().unwrap_or(0.0),
            imbalance: outcome.report.imbalance(),
            rounds: outcome.report.splitters.as_ref().map(|s| s.rounds_executed()).unwrap_or(0),
            wall_seconds: outcome.report.metrics.total_wall_seconds(),
        });
    }
    for m in modelled_figure_6_1_series(&CostModel::bluegene_like()) {
        rows.push(figure_6_1_row_from_model(&m));
    }
    rows
}

fn figure_6_1_row_from_model(m: &ModelledBreakdown) -> Figure61Row {
    Figure61Row {
        mode: "modelled".to_string(),
        processors: m.processors,
        keys_per_core: m.keys_per_core,
        local_sort: m.local_sort,
        histogramming: m.histogramming,
        data_exchange: m.data_exchange,
        imbalance: 1.0 + 0.02,
        rounds: 4,
        wall_seconds: 0.0,
    }
}

// ---------------------------------------------------------------------------
// Figure 6.2 — ChaNGa sorting: HSS vs classic histogram sort
// ---------------------------------------------------------------------------

/// One point of Figure 6.2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure62Row {
    /// Dataset name ("lambb-like" / "dwarf-like").
    pub dataset: String,
    /// Number of processors (= number of buckets, as in ChaNGa).
    pub processors: usize,
    /// Algorithm ("hss" or "histogram-sort-classic").
    pub algorithm: String,
    /// Simulated seconds spent determining splitters (the part the two
    /// algorithms differ in).
    pub splitter_seconds: f64,
    /// Total simulated seconds for the full sort.
    pub total_seconds: f64,
    /// Histogramming rounds needed.
    pub rounds: usize,
    /// Overall sample / probe volume gathered.
    pub total_sample: usize,
    /// Achieved load imbalance.
    pub imbalance: f64,
}

/// Run the Figure 6.2 comparison on synthetic Lambb-like and Dwarf-like
/// particle datasets.
pub fn figure_6_2_rows(scale: Scale, seed: u64) -> Vec<Figure62Row> {
    let eps = 0.05;
    let mut rows = Vec::new();
    for dataset in [ChangaDataset::lambb_like(seed), ChangaDataset::dwarf_like(seed)] {
        for p in scale.figure_6_2_processors() {
            let keys = dataset.generate_keys_per_rank(p, scale.figure_6_2_keys_per_rank(), seed);

            // HSS.
            {
                let mut machine = Machine::new(Topology::flat(p), CostModel::bluegene_like());
                let sorter = HssSorter::new(
                    HssConfig { epsilon: eps, ..HssConfig::default() }
                        .with_seed(seed)
                        .with_duplicate_tagging(),
                );
                let outcome = sorter.sort(&mut machine, keys.clone());
                rows.push(figure_6_2_row(&dataset.name, p, "hss", &outcome.report));
            }

            // Classic histogram sort ("Old" in the figure legend).
            {
                let mut machine = Machine::new(Topology::flat(p), CostModel::bluegene_like());
                let mut sorted = keys.clone();
                let cfg = HistogramSortConfig::new(eps, p);
                local_sort_phase(&mut machine, &mut sorted, cfg.local_sort);
                let (splitters, report) = histogram_sort_splitters(&mut machine, &sorted, p, &cfg);
                let (_out, sort_report) = finish_splitter_sort(
                    &mut machine,
                    "histogram-sort-classic",
                    &sorted,
                    &splitters,
                    report,
                    cfg.local_sort,
                );
                rows.push(figure_6_2_row(&dataset.name, p, "histogram-sort-classic", &sort_report));
            }
        }
    }
    rows
}

fn figure_6_2_row(
    dataset: &str,
    p: usize,
    algorithm: &str,
    report: &hss_core::SortReport,
) -> Figure62Row {
    let groups = report.metrics.figure_6_1_breakdown();
    let splitter_seconds = groups.get("histogramming").copied().unwrap_or(0.0);
    Figure62Row {
        dataset: dataset.to_string(),
        processors: p,
        algorithm: algorithm.to_string(),
        splitter_seconds,
        total_seconds: report.simulated_seconds(),
        rounds: report.splitters.as_ref().map(|s| s.rounds_executed()).unwrap_or(0),
        total_sample: report.splitters.as_ref().map(|s| s.total_sample_size).unwrap_or(0),
        imbalance: report.imbalance(),
    }
}

// ---------------------------------------------------------------------------
// Self-speedup — real host parallelism of the vendored rayon pool
// ---------------------------------------------------------------------------

/// One point of the self-speedup sweep: a full HSS sort executed on a pool
/// with `host_threads` real OS threads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelfSpeedupRow {
    /// Number of host OS threads in the pool for this run.
    pub host_threads: usize,
    /// Simulated ranks the sort ran on.
    pub ranks: usize,
    /// Keys per simulated rank.
    pub keys_per_rank: usize,
    /// Host wall-clock seconds for the end-to-end sort.
    pub wall_seconds: f64,
    /// `wall_seconds(1 thread) / wall_seconds(this run)`.
    pub speedup_vs_one_thread: f64,
    /// Simulated seconds charged by the cost model (must be identical
    /// across thread counts — real host concurrency never changes the
    /// simulated outcome).
    pub simulated_seconds: f64,
    /// Host CPUs visible to the process, for interpreting the curve.
    pub host_cpus: usize,
}

/// Sweep the vendored rayon pool over the scale's thread counts, sorting
/// the same workload end to end at each count, and report wall-clock
/// scaling.  Unlike every other experiment here, the interesting quantity
/// is *host* time, not simulated time: this measures whether the local
/// phases of the simulator really run concurrently.
pub fn self_speedup_rows(scale: Scale, seed: u64) -> Vec<SelfSpeedupRow> {
    let (ranks, keys_per_rank) = scale.self_speedup_size();
    let input = KeyDistribution::Uniform.generate_per_rank(ranks, keys_per_rank, seed);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut rows: Vec<SelfSpeedupRow> = Vec::new();
    for threads in scale.self_speedup_threads() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("self-speedup pool");
        let (wall_seconds, simulated_seconds) = pool.install(|| {
            let mut machine = Machine::new(Topology::flat(ranks), CostModel::bluegene_like());
            let sorter =
                HssSorter::new(HssConfig { epsilon: 0.05, ..HssConfig::default() }.with_seed(seed));
            let start = std::time::Instant::now();
            let outcome = sorter.sort(&mut machine, input.clone());
            let wall = start.elapsed().as_secs_f64();
            assert_eq!(
                outcome.report.total_keys,
                (ranks * keys_per_rank) as u64,
                "self-speedup run lost keys"
            );
            (wall, outcome.report.simulated_seconds())
        });
        let base = rows.first().map(|r: &SelfSpeedupRow| r.wall_seconds).unwrap_or(wall_seconds);
        rows.push(SelfSpeedupRow {
            host_threads: threads,
            ranks,
            keys_per_rank,
            wall_seconds,
            speedup_vs_one_thread: if wall_seconds > 0.0 { base / wall_seconds } else { 1.0 },
            simulated_seconds,
            host_cpus,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Classify scaling — branchless decision tree vs per-element binary search
// ---------------------------------------------------------------------------

/// One measurement of the `classify_scaling` experiment: one classification
/// strategy routing `keys` unsorted keys into `processors` buckets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassifyScalingRow {
    /// Classification strategy ("binary_search" or "decision_tree").
    pub strategy: String,
    /// Buckets `p` (so `p - 1` splitters).
    pub processors: usize,
    /// Splitter count `m = p - 1`.
    pub splitters: usize,
    /// Levels a decision-tree descend traverses for this splitter count.
    pub tree_height: usize,
    /// Unsorted keys classified per run.
    pub keys: usize,
    /// Timed repetitions run (after one untimed warmup).
    pub reps: usize,
    /// Minimum host wall-clock seconds over the timed repetitions.
    pub wall_seconds: f64,
    /// Throughput in million keys classified per second.
    pub mkeys_per_second: f64,
    /// `binary_search wall / this wall` at the same `(p, keys)` point
    /// (1.0 for the binary-search rows themselves).
    pub speedup_vs_binary: f64,
}

/// Benchmark the branchless decision tree ([`DecisionTree::bucket_indices`],
/// four keys in flight) against per-element binary search over the splitter
/// array (`partition_point` per key — the historical `bucket_of` path) on
/// unsorted uniform keys, over a sweep of bucket counts.  Both arms route
/// every key with the same `<=`-goes-right semantics and the warmup rep
/// asserts their bucket-id vectors are identical, so the comparison is
/// purely about branch misses and instruction-level parallelism.  Every
/// timed rep runs both arms back to back (alternation cancels slow host
/// drift) and the minimum is reported.
/// Tree construction is timed inside the decision-tree arm — it is the
/// `O(m)` price that path really pays per classification pass.
pub fn classify_scaling_rows(scale: Scale, seed: u64) -> Vec<ClassifyScalingRow> {
    let reps = scale.classify_scaling_reps();
    let mut rows = Vec::new();
    for (p, keys) in scale.classify_scaling_points() {
        let data: Vec<u64> = KeyDistribution::Uniform
            .generate_per_rank(1, keys, seed ^ (p as u64) << 20)
            .pop()
            .unwrap();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let splitter_keys = exact_splitters(&[sorted], p);
        let m = splitter_keys.len();
        const ARMS: [&str; 2] = ["binary_search", "decision_tree"];
        let mut walls: [Vec<f64>; 2] = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        let mut warmup_ids: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
        for rep in 0..=reps {
            for (i, _) in ARMS.iter().enumerate() {
                let start = std::time::Instant::now();
                let ids: Vec<u32> = if i == 0 {
                    data.iter()
                        .map(|k| splitter_keys.partition_point(|s| *s <= *k) as u32)
                        .collect()
                } else {
                    DecisionTree::from_splitters(&splitter_keys).bucket_indices(&data)
                };
                let wall = start.elapsed().as_secs_f64();
                // Consume the result so neither arm can be optimised away.
                assert_eq!(ids.len(), keys, "{}: lost keys", ARMS[i]);
                if rep == 0 {
                    warmup_ids[i] = ids;
                } else {
                    walls[i].push(wall);
                }
            }
        }
        assert_eq!(warmup_ids[0], warmup_ids[1], "strategies disagree at p = {p}");
        for w in &mut walls {
            w.sort_by(f64::total_cmp);
        }
        let binary_wall = walls[0][0];
        for (i, strategy) in ARMS.iter().enumerate() {
            let wall = walls[i][0];
            rows.push(ClassifyScalingRow {
                strategy: strategy.to_string(),
                processors: p,
                splitters: m,
                tree_height: tree_height(m),
                keys,
                reps,
                wall_seconds: wall,
                mkeys_per_second: if wall > 0.0 { keys as f64 / wall / 1e6 } else { 0.0 },
                speedup_vs_binary: if wall > 0.0 { binary_wall / wall } else { 1.0 },
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Record scaling — u64 keys vs 100-byte terasort records at matched bytes
// ---------------------------------------------------------------------------

/// One measurement of the `record_scaling` experiment: a full HSS sort of
/// one record shape at one `(p, byte volume)` point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecordScalingRow {
    /// Record shape ("u64" or "tera100").
    pub record_type: String,
    /// Bytes per record (8 for `u64`, 100 for `TeraRecord`).
    pub record_bytes: usize,
    /// Simulated ranks `p`.
    pub processors: usize,
    /// Records per rank in this arm.
    pub records_per_rank: usize,
    /// Total records sorted.
    pub total_records: u64,
    /// Total bytes carried (`total_records × record_bytes`) — matched
    /// across the two arms of one point by construction.
    pub total_bytes: u64,
    /// Timed repetitions run (after one untimed warmup).
    pub reps: usize,
    /// Minimum host wall-clock seconds over the timed repetitions.
    pub wall_seconds: f64,
    /// Simulated end-to-end makespan of the sort.
    pub simulated_seconds: f64,
    /// Words the data exchange moved across the simulated network.
    pub exchange_comm_words: u64,
    /// Exchange words per record — the per-item β-cost.  The tera arm's
    /// value is ~12.5× the u64 arm's (100 bytes vs 8 per record).
    pub exchange_words_per_record: f64,
}

/// One timed arm of `record_scaling`: a full HSS sort, returning wall
/// seconds plus (on request) the simulated makespan and exchange volume.
fn record_scaling_arm<T>(p: usize, input: &[Vec<T>]) -> (f64, f64, u64)
where
    T: hss_keygen::Keyed + Ord + hss_lsort::RadixSortable + Clone,
    T::K: hss_lsort::RadixSortable,
{
    let total: u64 = input.iter().map(|v| v.len() as u64).sum();
    let mut machine = Machine::flat(p);
    let start = std::time::Instant::now();
    let outcome = HssSorter::default().sort(&mut machine, input.to_vec());
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(outcome.report.total_keys, total, "record-scaling sort lost records");
    (wall, machine.simulated_time(), machine.metrics().phase(Phase::DataExchange).comm_words)
}

/// Benchmark HSS over bare `u64` keys against 100-byte `TeraRecord`s at
/// **matched byte volume**: the terasort arm carries `keys_per_rank × 8 /
/// 100` records per rank, so both arms of one point move the same number
/// of payload bytes end to end.  Wall time is the host-side cost of the
/// whole sort (min over reps after one untimed warmup, arms alternated per
/// rep); the simulated makespan and exchange volume expose the byte-based
/// β-accounting — per record, the 100-byte arm charges ~12.5× the words of
/// the u64 arm.
pub fn record_scaling_rows(scale: Scale, seed: u64) -> Vec<RecordScalingRow> {
    use hss_keygen::{generate_tera_records_per_rank, TeraRecord};
    let reps = scale.record_scaling_reps();
    let u64_bytes = std::mem::size_of::<u64>();
    let tera_bytes = std::mem::size_of::<TeraRecord>();
    let mut rows = Vec::new();
    for (p, keys_per_rank) in scale.record_scaling_points() {
        let tera_per_rank = (keys_per_rank * u64_bytes / tera_bytes).max(1);
        let u64_input = KeyDistribution::Uniform.generate_per_rank(p, keys_per_rank, seed);
        let tera_input = generate_tera_records_per_rank(p, tera_per_rank, seed);
        let mut walls: [Vec<f64>; 2] = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
        let mut stats: [(f64, u64); 2] = [(0.0, 0); 2];
        for rep in 0..=reps {
            // Arms run back to back inside every rep so the slow drift of a
            // busy host cancels; metrics come from the untimed warmup rep.
            let (wall_u, sim_u, words_u) = record_scaling_arm(p, &u64_input);
            let (wall_t, sim_t, words_t) = record_scaling_arm(p, &tera_input);
            if rep == 0 {
                stats = [(sim_u, words_u), (sim_t, words_t)];
            } else {
                walls[0].push(wall_u);
                walls[1].push(wall_t);
            }
        }
        let arms = [("u64", u64_bytes, keys_per_rank), ("tera100", tera_bytes, tera_per_rank)];
        for (i, (name, bytes, per_rank)) in arms.into_iter().enumerate() {
            walls[i].sort_by(f64::total_cmp);
            let total_records = (p * per_rank) as u64;
            let (simulated_seconds, exchange_comm_words) = stats[i];
            rows.push(RecordScalingRow {
                record_type: name.to_string(),
                record_bytes: bytes,
                processors: p,
                records_per_rank: per_rank,
                total_records,
                total_bytes: total_records * bytes as u64,
                reps,
                wall_seconds: walls[i][0],
                simulated_seconds,
                exchange_comm_words,
                exchange_words_per_record: exchange_comm_words as f64 / total_records as f64,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Local-sort scaling — radix vs comparison local sort (hss-lsort)
// ---------------------------------------------------------------------------

/// One measurement of the `local_sort_scaling` experiment: one sorter
/// variant run over one array size of one distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalSortScalingRow {
    /// Key distribution ("uniform" or "powerlaw(4)").
    pub distribution: String,
    /// Array length.
    pub n: usize,
    /// Sorter variant: "comparison" (`sort_unstable`), "radix"
    /// (sequential `radix_sort`) or "radix-par" (`par_radix_sort`).
    pub algo: String,
    /// Pool threads the variant ran under (1 for the sequential sorters).
    pub threads: usize,
    /// Timed repetitions (after one untimed warmup); the minimum is
    /// reported.
    pub reps: usize,
    /// Minimum wall-clock seconds over the timed repetitions.
    pub wall_seconds: f64,
    /// Throughput in million keys per second.
    pub mkeys_per_second: f64,
    /// `comparison wall / this wall` at the same `(distribution, n)`
    /// (1.0 for the comparison rows themselves).
    pub speedup_vs_comparison: f64,
    /// Host CPUs visible to the process — the parallel rows can only beat
    /// the sequential ones when this reaches the thread count.
    pub host_cpus: usize,
}

/// Benchmark the in-place MSD radix sort against `sort_unstable` over
/// N × distribution × threads.  Like `classify_scaling`, every repetition
/// runs all variants back to back (alternation cancels slow host drift)
/// and the minimum over repetitions is reported; each timed call sorts its
/// own copy of the input, made before the clock starts.
pub fn local_sort_scaling_rows(scale: Scale, seed: u64) -> Vec<LocalSortScalingRow> {
    use hss_lsort::{par_radix_sort, radix_sort};
    let reps = scale.local_sort_scaling_reps();
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Variant list: comparison, sequential radix, parallel radix per
    // thread count — the pools depend only on the thread list, so they
    // are built once for the whole sweep.
    let par_threads = scale.local_sort_scaling_threads();
    let pools: Vec<rayon::ThreadPool> = par_threads
        .iter()
        .map(|&t| rayon::ThreadPoolBuilder::new().num_threads(t).build().expect("local-sort pool"))
        .collect();
    let mut rows = Vec::new();
    for dist in [KeyDistribution::Uniform, KeyDistribution::PowerLaw { gamma: 4.0 }] {
        for n in scale.local_sort_scaling_sizes() {
            let input: Vec<u64> = dist.generate_per_rank(1, n, seed).remove(0);
            let variants = 2 + par_threads.len();
            let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); variants];
            for rep in 0..=reps {
                let mut run = |i: usize, f: &mut dyn FnMut(&mut Vec<u64>)| {
                    let mut v = input.clone();
                    let start = std::time::Instant::now();
                    f(&mut v);
                    let wall = start.elapsed().as_secs_f64();
                    assert!(v.windows(2).all(|w| w[0] <= w[1]), "variant {i} failed to sort");
                    if rep > 0 {
                        walls[i].push(wall);
                    }
                };
                run(0, &mut |v| v.sort_unstable());
                run(1, &mut |v| radix_sort(v));
                for (j, pool) in pools.iter().enumerate() {
                    run(2 + j, &mut |v| pool.install(|| par_radix_sort(v)));
                }
            }
            let min_wall = |walls: &mut Vec<f64>| -> f64 {
                walls.sort_by(f64::total_cmp);
                walls[0]
            };
            let comparison_wall = min_wall(&mut walls[0]);
            let mut push = |algo: &str, threads: usize, wall: f64| {
                rows.push(LocalSortScalingRow {
                    distribution: dist.name().to_string(),
                    n,
                    algo: algo.to_string(),
                    threads,
                    reps,
                    wall_seconds: wall,
                    mkeys_per_second: if wall > 0.0 { n as f64 / wall / 1e6 } else { 0.0 },
                    speedup_vs_comparison: if wall > 0.0 { comparison_wall / wall } else { 0.0 },
                    host_cpus,
                });
            };
            push("comparison", 1, comparison_wall);
            push("radix", 1, min_wall(&mut walls[1]));
            for (j, &t) in par_threads.iter().enumerate() {
                push("radix-par", t, min_wall(&mut walls[2 + j]));
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Overlap speedup — Bsp vs Overlapped sync models (§4)
// ---------------------------------------------------------------------------

/// One configuration of the `overlap_speedup` experiment: the same sort run
/// under strict BSP accounting and under overlapped execution (splitter
/// determination pipelined with a staged exchange).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverlapSpeedupRow {
    /// Simulated ranks `p`.
    pub processors: usize,
    /// Keys per rank.
    pub keys_per_rank: usize,
    /// Input skew ("uniform" or "powerlaw(γ)").
    pub skew: String,
    /// Expected per-rank sample count per histogramming round (lower →
    /// more rounds → more overlap opportunity).
    pub oversampling: f64,
    /// Histogramming rounds the overlapped run executed.
    pub rounds: usize,
    /// Asynchronous exchange stages the overlapped run injected.
    pub stages: usize,
    /// Simulated makespan under [`hss_sim::SyncModel::Bsp`].
    pub bsp_seconds: f64,
    /// Simulated makespan under [`hss_sim::SyncModel::Overlapped`].
    pub overlapped_seconds: f64,
    /// `bsp_seconds / overlapped_seconds` (> 1 means overlap won).
    pub speedup: f64,
    /// Load imbalance of the overlapped run's output (frozen splitters must
    /// not degrade the balance guarantee).
    pub imbalance_overlapped: f64,
}

/// A named lazy workload generator for one skew regime of the sweep.
type SkewCase = (&'static str, Box<dyn Fn() -> Vec<Vec<u64>>>);

/// Compare the Bsp and Overlapped sync models on the same workloads,
/// sweeping processor count, input skew and round count (via the
/// oversampling factor).  The simulated quantity compared is the timeline
/// *makespan* — under Bsp it equals the classic sum of per-phase charges;
/// under overlapped execution staged exchanges hide under histogramming
/// rounds and per-stage latencies replace the one big exchange's
/// `α·(p−1)` term.
pub fn overlap_speedup_rows(scale: Scale, seed: u64) -> Vec<OverlapSpeedupRow> {
    use hss_sim::SyncModel;
    let mut rows = Vec::new();
    for (p, keys_per_rank) in scale.overlap_speedup_points() {
        // Key-space skew (powerlaw) is a monotone transform of the uniform
        // draws, so a comparison-based sorter with adaptive splitters treats
        // it identically to uniform (the paper's distribution-insensitivity
        // claim) — the sweep therefore also includes *volume* skew (uneven
        // per-rank counts), which genuinely changes the per-rank timelines.
        let skews: [SkewCase; 3] = [
            (
                "uniform",
                Box::new(move || {
                    KeyDistribution::Uniform.generate_per_rank(p, keys_per_rank, seed)
                }),
            ),
            (
                "powerlaw(4)",
                Box::new(move || {
                    KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(
                        p,
                        keys_per_rank,
                        seed,
                    )
                }),
            ),
            (
                "uneven(0.5)",
                Box::new(move || {
                    KeyDistribution::Uniform.generate_uneven_per_rank(p, keys_per_rank, 0.5, seed)
                }),
            ),
        ];
        for (skew, generate) in &skews {
            let skew = skew.to_string();
            let input = generate();
            for oversampling in [3.0, 5.0, 10.0] {
                let config = HssConfig {
                    epsilon: 0.02,
                    schedule: RoundSchedule::ConstantOversampling { oversampling, max_rounds: 64 },
                    ..HssConfig::default()
                }
                .with_seed(seed);
                let sorter = HssSorter::new(config);

                let mut bsp = Machine::new(Topology::flat(p), CostModel::bluegene_like());
                let bsp_out = sorter.sort(&mut bsp, input.clone());

                let mut ovl = Machine::new(Topology::flat(p), CostModel::bluegene_like())
                    .with_sync_model(SyncModel::Overlapped)
                    .with_tracing();
                let ovl_out = sorter.sort(&mut ovl, input.clone());
                let stages =
                    ovl.trace().events().iter().filter(|e| e.label == "exchange_stage").count();

                rows.push(OverlapSpeedupRow {
                    processors: p,
                    keys_per_rank,
                    skew: skew.clone(),
                    oversampling,
                    rounds: ovl_out
                        .report
                        .splitters
                        .as_ref()
                        .map(|s| s.rounds_executed())
                        .unwrap_or(0),
                    stages,
                    bsp_seconds: bsp_out.report.makespan_seconds,
                    overlapped_seconds: ovl_out.report.makespan_seconds,
                    speedup: bsp_out.report.makespan_seconds / ovl_out.report.makespan_seconds,
                    imbalance_overlapped: ovl_out.report.imbalance(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Epoch service — warm-started splitters over a drifting keyspace
// ---------------------------------------------------------------------------

/// One row of the epoch-service experiment: one `(p, drift)` cell, warm
/// service vs cold-every-epoch control on identical ingest streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochServiceRow {
    /// Simulated ranks `p`.
    pub processors: usize,
    /// Keys ingested per rank per epoch.
    pub keys_per_rank: usize,
    /// Ingest-window drift per epoch (fraction of the window width).
    pub drift: f64,
    /// Epochs sealed (epoch 0 is cold in both arms).
    pub epochs: usize,
    /// Total splitter rounds over warm epochs `1..` with warm starts on.
    pub warm_rounds: usize,
    /// The same total with warm starts disabled (the control arm).
    pub cold_rounds: usize,
    /// `cold_rounds - warm_rounds` (positive = the warm start paid off).
    pub rounds_saved: i64,
    /// Mean sampled keys per warm epoch (warm arm).
    pub warm_sample_keys: f64,
    /// Mean sampled keys per warm epoch (control arm).
    pub cold_sample_keys: f64,
    /// Summed simulated sort makespan over epochs `1..`, warm arm.
    pub warm_makespan_seconds: f64,
    /// Summed simulated sort makespan over epochs `1..`, control arm.
    pub cold_makespan_seconds: f64,
    /// Mean simulated seconds per rank query against the final keyspace.
    pub query_seconds_per_call: f64,
    /// Largest `|estimated - exact|` rank error over the issued queries.
    pub max_rank_error: f64,
    /// The Theorem 3.4.1 error allowance `εN/p` for the final keyspace
    /// (doubled for sampling constants, as in the oracle's own tests).
    pub rank_error_allowance: f64,
    /// Worst per-epoch load imbalance observed in the warm arm.
    pub max_imbalance: f64,
}

/// HSS configuration used by both arms of the epoch-service experiment:
/// tight tolerance + constant oversampling so the cold start genuinely
/// needs several histogramming rounds (otherwise there is nothing to save).
fn epoch_service_hss(seed: u64) -> HssConfig {
    HssConfig::default()
        .with_epsilon(0.02)
        .with_schedule(RoundSchedule::ConstantOversampling { oversampling: 4.0, max_rounds: 32 })
        .with_seed(seed)
}

/// Run the epoch service over a drifting ingest stream, with and without
/// warm starts, on identical batches; then issue rank queries against the
/// sealed keyspace and compare the estimates with exact ranks.
pub fn epoch_service_rows(scale: Scale, seed: u64) -> Vec<EpochServiceRow> {
    use hss_service::{DriftingWorkload, ServiceConfig, SortService};

    let epochs = scale.epoch_service_epochs();
    let query_count = scale.epoch_service_queries();
    let mut rows = Vec::new();
    for (p, keys_per_rank) in scale.epoch_service_points() {
        for drift in scale.epoch_service_drifts() {
            let base = ServiceConfig::new(epoch_service_hss(seed)).expect("valid service config");
            let mut warm_service: SortService<u64> = SortService::new(p, base.clone());
            let mut cold_service: SortService<u64> = SortService::new(p, base.without_warm_start());

            let mut workload = DriftingWorkload::new(p, keys_per_rank, drift, seed);
            for _ in 0..epochs {
                let batch = workload.next_batch();
                warm_service.ingest_per_rank(batch.clone());
                cold_service.ingest_per_rank(batch);
                warm_service.seal_epoch();
                cold_service.seal_epoch();
            }

            let mean_sample = |eps: &[hss_service::EpochReport]| {
                eps.iter().map(|e| e.splitters.total_sample_size as f64).sum::<f64>()
                    / eps.len().max(1) as f64
            };
            let warm_epochs = &warm_service.history()[1..];
            let cold_epochs = &cold_service.history()[1..];
            let warm_rounds: usize = warm_epochs.iter().map(|e| e.splitter_rounds).sum();
            let cold_rounds: usize = cold_epochs.iter().map(|e| e.splitter_rounds).sum();
            let warm_sample_keys = mean_sample(warm_epochs);
            let cold_sample_keys = mean_sample(cold_epochs);
            let warm_makespan_seconds: f64 = warm_epochs.iter().map(|e| e.makespan_seconds).sum();
            let cold_makespan_seconds: f64 = cold_epochs.iter().map(|e| e.makespan_seconds).sum();
            let max_imbalance =
                warm_service.history().iter().map(|e| e.load_balance.imbalance).fold(0.0, f64::max);

            // Rank queries between epochs: spread over the final keyspace,
            // timed via the Phase::Query charge and checked against the
            // exact rank.
            let total = warm_service.total_keys();
            let query_start =
                warm_service.machine().metrics().phase(Phase::Query).simulated_seconds;
            let mut max_rank_error: f64 = 0.0;
            for i in 0..query_count {
                let q = (i as f64 + 0.5) / query_count as f64;
                let key = warm_service.percentile(q);
                let estimated = warm_service.rank(key);
                // `hss_partition::exact_rank` counts strictly-smaller keys;
                // the oracle answers `<=`-ranks, so count equals too.
                let exact =
                    warm_service.keyspace().iter().flatten().filter(|&&k| k <= key).count() as f64;
                max_rank_error = max_rank_error.max((estimated - exact).abs());
            }
            let query_seconds =
                warm_service.machine().metrics().phase(Phase::Query).simulated_seconds
                    - query_start;

            rows.push(EpochServiceRow {
                processors: p,
                keys_per_rank,
                drift,
                epochs,
                warm_rounds,
                cold_rounds,
                rounds_saved: cold_rounds as i64 - warm_rounds as i64,
                warm_sample_keys,
                cold_sample_keys,
                warm_makespan_seconds,
                cold_makespan_seconds,
                query_seconds_per_call: query_seconds / (2 * query_count).max(1) as f64,
                max_rank_error,
                rank_error_allowance: 2.0 * 0.02 * total as f64 / p as f64,
                max_imbalance,
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// External-sort scaling — bounded-memory disk sort, sync vs overlapped I/O
// ---------------------------------------------------------------------------

/// One cell of the `extsort_scaling` matrix — volume × memory cap ×
/// record type — sorted entirely through the out-of-core tier, once per
/// I/O-scheduling arm, with an in-memory reference sort of the same data
/// timed for comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtSortScalingRow {
    /// `"u64"` or `"tera100"` (100-byte `TeraRecord`, matched volume).
    pub record_type: String,
    /// Bytes per record.
    pub record_bytes: usize,
    /// Elements in the dataset.
    pub elements: usize,
    /// Dataset volume in bytes (`elements * record_bytes`).
    pub total_bytes: u64,
    /// Record-buffer budget the sorter ran under, in bytes.
    pub memory_cap_bytes: u64,
    /// `memory_cap_bytes / total_bytes` (committed rows keep this ≤ 1/8).
    pub cap_fraction: f64,
    /// Merge fan-in.
    pub fan_in: usize,
    /// Sorted runs formed during run formation.
    pub runs_formed: u64,
    /// Merge passes over the data (1 = single final pass).
    pub merge_passes: u64,
    /// Scratch bytes written per sort (runs + intermediate + final file).
    pub bytes_written: u64,
    /// Scratch bytes read per sort.
    pub bytes_read: u64,
    /// Timed repetitions per arm (minimum reported, one untimed warmup).
    pub reps: usize,
    /// Wall seconds for a plain in-memory sort of the same data (radix
    /// for u64, `sort_unstable` for records) — what the cap costs.
    pub in_memory_wall_seconds: f64,
    /// Best wall seconds for the synchronous (strictly buffered) arm.
    pub sync_wall_seconds: f64,
    /// Seconds the synchronous arm's sorting thread spent blocked on disk.
    pub sync_io_wait_seconds: f64,
    /// `sync_io_wait_seconds / sync_wall_seconds`.
    pub sync_io_wait_fraction: f64,
    /// Best wall seconds for the overlapped (prefetch/writeback) arm.
    pub overlapped_wall_seconds: f64,
    /// Seconds the overlapped arm's sorting thread waited on its I/O
    /// threads (the residual the double-buffering could not hide).
    pub overlapped_io_wait_seconds: f64,
    /// `overlapped_io_wait_seconds / overlapped_wall_seconds`.
    pub overlapped_io_wait_fraction: f64,
    /// `sync_wall_seconds / overlapped_wall_seconds` (> 1 = overlap won).
    pub speedup: f64,
    /// Overlapped-arm sort throughput in input MB/s.
    pub overlapped_mb_per_second: f64,
    /// Output verified against an in-memory reference sort: full-stream
    /// sortedness+checksum plus bitwise-compared sampled windows.
    pub verified: bool,
}

/// Subsampled differential verification of an on-disk sorted file against
/// the in-memory reference: bitwise-compare `windows` windows of
/// `window_elems` elements at deterministically scattered offsets
/// (always including both ends).
fn verify_sorted_file_subsampled<T: hss_extsort::PlainRecord + PartialEq>(
    out: &hss_extsort::SortedRunFile<T>,
    reference: &[T],
    windows: usize,
    window_elems: usize,
    seed: u64,
) -> bool {
    use rand::{Rng, SeedableRng};
    assert_eq!(out.len(), reference.len() as u64);
    let n = reference.len();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut offsets: Vec<usize> = vec![0, n.saturating_sub(window_elems)];
    offsets.extend((0..windows).map(|_| rng.gen_range(0..n.max(1))));
    offsets.iter().all(|&off| {
        let got = out.read_range(off as u64, window_elems).expect("read sorted output window");
        got == reference[off..(off + window_elems).min(n)]
    })
}

/// Run one matrix cell: external-sort `input` under `cap` once per I/O
/// arm (alternating within each repetition, rep 0 an untimed warmup) and
/// differentially verify both arms' on-disk output against `reference`.
#[allow(clippy::too_many_arguments)]
fn extsort_point<T>(
    record_type: &str,
    input: &[T],
    reference: &[T],
    in_memory_wall: f64,
    cap: usize,
    fan_in: usize,
    reps: usize,
    run_dir: &std::path::Path,
    seed: u64,
) -> ExtSortScalingRow
where
    T: hss_extsort::PlainRecord + hss_lsort::RadixSortable + PartialEq,
{
    use hss_extsort::{ExtSortConfig, ExternalSorter, IoMode};
    let total_bytes = std::mem::size_of_val(input) as u64;
    let arms = [IoMode::Synchronous, IoMode::Overlapped];
    let sorters: Vec<ExternalSorter> = arms
        .iter()
        .map(|&mode| {
            ExternalSorter::new(
                ExtSortConfig::new(cap, run_dir).with_fan_in(fan_in).with_io_mode(mode),
            )
        })
        .collect();
    // best[arm] = (wall, report, verified) of the fastest timed rep.
    let mut best: [Option<(f64, hss_extsort::ExtSortReport, bool)>; 2] = [None, None];
    for rep in 0..=reps {
        for (i, sorter) in sorters.iter().enumerate() {
            let start = std::time::Instant::now();
            let (out, rep_stats) =
                sorter.sort_to_file(input.iter().copied()).expect("external sort");
            let wall = start.elapsed().as_secs_f64();
            if rep == 0 {
                continue; // untimed warmup (page cache, allocator, scratch dir)
            }
            if best[i].as_ref().map_or(true, |(w, _, _)| wall < *w) {
                let ok = verify_sorted_file_subsampled(&out, reference, 64, 4096, seed);
                best[i] = Some((wall, rep_stats, ok));
            }
        }
    }
    let (sync_wall, sync_rep, sync_ok) = best[0].expect("timed sync rep");
    let (ovl_wall, ovl_rep, ovl_ok) = best[1].expect("timed overlapped rep");
    // Both arms must agree on the sort's shape — same runs, same passes,
    // same bytes moved; only the scheduling may differ.  The byte counters
    // must also match the pass geometry exactly: every run is written
    // once, and each merge pass (including the final one) reads and
    // rewrites the full volume.
    assert_eq!(sync_rep.runs_formed, ovl_rep.runs_formed);
    assert_eq!(sync_rep.merge_passes, ovl_rep.merge_passes);
    assert_eq!(sync_rep.bytes_written, ovl_rep.bytes_written);
    assert_eq!(sync_rep.bytes_read, ovl_rep.bytes_read);
    assert_eq!(sync_rep.bytes_written, (1 + sync_rep.merge_passes) * total_bytes);
    assert_eq!(sync_rep.bytes_read, sync_rep.merge_passes * total_bytes);
    ExtSortScalingRow {
        record_type: record_type.to_string(),
        record_bytes: std::mem::size_of::<T>(),
        elements: input.len(),
        total_bytes,
        memory_cap_bytes: cap as u64,
        cap_fraction: cap as f64 / total_bytes as f64,
        fan_in,
        runs_formed: ovl_rep.runs_formed,
        merge_passes: ovl_rep.merge_passes,
        bytes_written: ovl_rep.bytes_written,
        bytes_read: ovl_rep.bytes_read,
        reps,
        in_memory_wall_seconds: in_memory_wall,
        sync_wall_seconds: sync_wall,
        sync_io_wait_seconds: sync_rep.io_wait_seconds,
        sync_io_wait_fraction: sync_rep.io_wait_fraction(),
        overlapped_wall_seconds: ovl_wall,
        overlapped_io_wait_seconds: ovl_rep.io_wait_seconds,
        overlapped_io_wait_fraction: ovl_rep.io_wait_fraction(),
        speedup: if ovl_wall > 0.0 { sync_wall / ovl_wall } else { 0.0 },
        overlapped_mb_per_second: if ovl_wall > 0.0 {
            total_bytes as f64 / ovl_wall / 1e6
        } else {
            0.0
        },
        verified: sync_ok && ovl_ok,
    }
}

/// Volumes up to this many bytes run the full matrix (caps {1/8, 1/16}
/// × records {u64, TeraRecord}); larger volumes run only the headline
/// (1/16-cap, u64) cell so the default-scale run stays bounded — the
/// 10⁸-key point alone moves multiple GB through `fdatasync`.
const EXTSORT_FULL_MATRIX_MAX_BYTES: u64 = 1 << 27;

/// Memory cap yielding exactly `2 * d` sorted runs for `n` records of
/// `rec_bytes` each (run-formation chunks are `cap / 2`): `d = 8` ⇒ 16
/// runs, one merge pass at fan-in 16; `d = 16` ⇒ 32 runs, multi-pass.
/// Deriving the cap from the element count (rather than flooring
/// `volume / d` to a record multiple) avoids a near-empty straggler run
/// that would tip the geometry into a spurious extra full-volume pass.
fn extsort_cap_for(n: usize, rec_bytes: usize, d: usize) -> usize {
    2 * n.div_ceil(2 * d) * rec_bytes
}

/// Sort uniform datasets fully out of core across an N × memory-cap ×
/// record-type matrix, alternating the synchronous and overlapped I/O
/// arms within each repetition, timing an in-memory sort of the same
/// data for comparison, and differentially verifying both arms' on-disk
/// output against that in-memory reference.
///
/// Cap divisors are {8, 16}: at fan-in 16 a 1/8 cap forms 16 runs
/// (single merge pass) while a 1/16 cap forms 32 runs and exercises the
/// multi-pass merge. `TeraRecord` cells match the u64 cell's byte
/// volume, not its element count.
pub fn extsort_scaling_rows(scale: Scale, seed: u64) -> Vec<ExtSortScalingRow> {
    use hss_keygen::generate_tera_records_per_rank;
    let reps = scale.extsort_scaling_reps();
    let fan_in = 16;
    let run_dir = std::env::temp_dir().join("hss-extsort-scaling");
    let mut rows = Vec::new();
    for n in scale.extsort_scaling_elements() {
        let vol_bytes = (n * 8) as u64;
        let full_matrix = vol_bytes <= EXTSORT_FULL_MATRIX_MAX_BYTES;
        let divisors: &[usize] = if full_matrix { &[8, 16] } else { &[16] };

        let input: Vec<u64> = KeyDistribution::Uniform.generate_per_rank(1, n, seed).remove(0);
        let mut reference = input.clone();
        let start = std::time::Instant::now();
        hss_lsort::radix_sort(&mut reference);
        let in_memory_wall = start.elapsed().as_secs_f64();
        for &d in divisors {
            let cap = extsort_cap_for(n, 8, d);
            rows.push(extsort_point(
                "u64",
                &input,
                &reference,
                in_memory_wall,
                cap,
                fan_in,
                reps,
                &run_dir,
                seed,
            ));
        }
        drop((input, reference));

        if full_matrix {
            // Matched byte volume, not matched element count: 100-byte
            // TeraRecords stress the payload-bandwidth side of the tier.
            let n_tera = (vol_bytes / 100).max(2) as usize;
            let input = generate_tera_records_per_rank(1, n_tera, seed ^ 0x7e5a).remove(0);
            let mut reference = input.clone();
            let start = std::time::Instant::now();
            reference.sort_unstable();
            let in_memory_wall = start.elapsed().as_secs_f64();
            for &d in divisors {
                let cap = extsort_cap_for(n_tera, 100, d);
                rows.push(extsort_point(
                    "tera100",
                    &input,
                    &reference,
                    in_memory_wall,
                    cap,
                    fan_in,
                    reps,
                    &run_dir,
                    seed,
                ));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_scaling_rows_pair_identical_routings() {
        let rows = classify_scaling_rows(Scale::Smoke, 7);
        assert_eq!(rows.len(), Scale::Smoke.classify_scaling_points().len() * 2);
        for pair in rows.chunks(2) {
            let (binary, tree) = (&pair[0], &pair[1]);
            assert_eq!(binary.strategy, "binary_search");
            assert_eq!(tree.strategy, "decision_tree");
            assert_eq!(binary.processors, tree.processors);
            assert!(binary.processors >= 32, "sweep must cover the p >= 32 regime");
            assert_eq!(binary.splitters, binary.processors - 1);
            assert!(tree.tree_height >= 5);
            assert!(binary.wall_seconds > 0.0 && tree.wall_seconds > 0.0);
            assert_eq!(binary.speedup_vs_binary, 1.0);
            assert!(tree.speedup_vs_binary > 0.0);
            // The tree's wall-clock win itself is asserted on the committed
            // default-scale rows, not at smoke sizes on a noisy CI host.
        }
    }

    #[test]
    fn extsort_scaling_rows_verify_and_spill() {
        let rows = extsort_scaling_rows(Scale::Smoke, 13);
        // Smoke volumes are all small enough for the full matrix:
        // caps {1/8, 1/16} × records {u64, tera100} per volume.
        assert_eq!(rows.len(), Scale::Smoke.extsort_scaling_elements().len() * 4);
        for row in &rows {
            assert!(row.verified, "subsampled differential verification must pass");
            assert!(row.cap_fraction <= 0.126, "cap must stay at or below ~1/8 the volume");
            assert!(row.runs_formed >= 8, "the cap must force many runs");
            // Every byte is written once as a run, then read and rewritten
            // by each merge pass (including the final one).
            assert_eq!(row.bytes_written, (1 + row.merge_passes) * row.total_bytes);
            assert_eq!(row.bytes_read, row.merge_passes * row.total_bytes);
            assert!(row.sync_wall_seconds > 0.0 && row.overlapped_wall_seconds > 0.0);
            assert!(row.in_memory_wall_seconds > 0.0, "reference sort must be timed");
            assert!(row.sync_io_wait_seconds > 0.0, "fsync'd writes must cost the sync arm");
            // The overlapped *win* itself is asserted on the committed
            // default-scale rows, not at smoke sizes on a noisy CI host.
        }
        // The matrix must cover both record widths and, through the 1/16
        // cap, the multi-pass merge (> fan-in runs).
        assert!(rows.iter().any(|r| r.record_type == "u64"));
        assert!(rows.iter().any(|r| r.record_type == "tera100" && r.record_bytes == 100));
        assert!(rows.iter().any(|r| r.merge_passes == 1));
        assert!(rows.iter().any(|r| r.merge_passes >= 2));
    }

    #[test]
    fn record_scaling_rows_match_bytes_and_charge_by_width() {
        let rows = record_scaling_rows(Scale::Smoke, 11);
        assert_eq!(rows.len(), Scale::Smoke.record_scaling_points().len() * 2);
        for pair in rows.chunks(2) {
            let (narrow, wide) = (&pair[0], &pair[1]);
            assert_eq!(narrow.record_type, "u64");
            assert_eq!(wide.record_type, "tera100");
            assert_eq!(narrow.record_bytes, 8);
            assert_eq!(wide.record_bytes, 100);
            assert_eq!(narrow.processors, wide.processors);
            // Matched byte volume: the arms carry the same bytes end to end
            // (within one truncated record per rank).
            let per_rank_gap = narrow.total_bytes as i64 - wide.total_bytes as i64;
            assert!(
                per_rank_gap.unsigned_abs() < (wide.processors * 100) as u64,
                "byte volumes diverge: {} vs {}",
                narrow.total_bytes,
                wide.total_bytes
            );
            assert!(narrow.wall_seconds > 0.0 && wide.wall_seconds > 0.0);
            assert!(narrow.simulated_seconds > 0.0 && wide.simulated_seconds > 0.0);
            // The byte-based β-accounting: per record, the 100-byte arm
            // charges ~12.5× the exchange words of the 8-byte arm.  Rounding
            // (div_ceil on word conversion) and self-transfers keep the
            // measured ratio near but not exactly at 12.5.
            let ratio = wide.exchange_words_per_record / narrow.exchange_words_per_record;
            assert!(
                (10.0..15.0).contains(&ratio),
                "words-per-record ratio {ratio} outside the 12.5× band"
            );
        }
    }

    #[test]
    fn local_sort_scaling_rows_cover_the_matrix() {
        let rows = local_sort_scaling_rows(Scale::Smoke, 5);
        let sizes = Scale::Smoke.local_sort_scaling_sizes().len();
        let threads = Scale::Smoke.local_sort_scaling_threads().len();
        assert_eq!(rows.len(), 2 * sizes * (2 + threads));
        for r in &rows {
            assert!(r.wall_seconds > 0.0, "{}/{}: zero wall time", r.distribution, r.algo);
            assert!(r.mkeys_per_second > 0.0);
            if r.algo == "comparison" {
                assert_eq!(r.speedup_vs_comparison, 1.0);
                assert_eq!(r.threads, 1);
            }
        }
        // The headline claim — sequential radix strictly faster than the
        // comparison sort — is asserted on the committed default-scale
        // results at N >= 10^6; at smoke scale (and on starved CI hosts)
        // only sanity is checked here.
        assert!(rows.iter().any(|r| r.algo == "radix"));
        assert!(rows.iter().any(|r| r.algo == "radix-par"));
    }

    #[test]
    fn overlap_speedup_rows_show_overlapped_strictly_faster() {
        let rows = overlap_speedup_rows(Scale::Smoke, 2019);
        assert_eq!(rows.len(), Scale::Smoke.overlap_speedup_points().len() * 3 * 3);
        for r in &rows {
            assert!(r.processors >= 32);
            assert!(r.rounds >= 1);
            assert!(r.stages >= 1, "{}: no stage injected", r.skew);
            assert!(r.bsp_seconds > 0.0 && r.overlapped_seconds > 0.0);
            // The tentpole claim: overlapped execution is strictly faster
            // than strict BSP at p >= 32, on skewed and uniform inputs
            // alike, at every round count in the sweep.
            assert!(
                r.overlapped_seconds < r.bsp_seconds,
                "p={} skew={} oversampling={}: overlapped {} not below bsp {}",
                r.processors,
                r.skew,
                r.oversampling,
                r.overlapped_seconds,
                r.bsp_seconds
            );
            // Frozen splitters must not break the balance guarantee
            // (epsilon = 0.02 plus slack for freezing mid-refinement).
            assert!(r.imbalance_overlapped < 1.1, "imbalance {}", r.imbalance_overlapped);
        }
    }

    #[test]
    fn epoch_service_rows_save_rounds_on_stationary_streams() {
        let rows = epoch_service_rows(Scale::Smoke, 41);
        let expected =
            Scale::Smoke.epoch_service_points().len() * Scale::Smoke.epoch_service_drifts().len();
        assert_eq!(rows.len(), expected);
        for r in &rows {
            assert!(r.warm_rounds >= 1 && r.cold_rounds >= 1);
            assert!(r.warm_makespan_seconds > 0.0 && r.cold_makespan_seconds > 0.0);
            assert!(r.max_imbalance <= 1.0 + 0.02 + 1e-9, "imbalance {}", r.max_imbalance);
            assert!(
                r.max_rank_error <= r.rank_error_allowance,
                "drift {}: rank error {} above allowance {}",
                r.drift,
                r.max_rank_error,
                r.rank_error_allowance
            );
            // The tentpole claim: on a stationary stream the warm start
            // saves histogramming rounds and never samples more keys.
            if r.drift == 0.0 {
                assert!(
                    r.rounds_saved > 0,
                    "p={}: warm {} rounds vs cold {}",
                    r.processors,
                    r.warm_rounds,
                    r.cold_rounds
                );
                assert!(r.warm_sample_keys <= r.cold_sample_keys);
            }
        }
    }

    #[test]
    fn self_speedup_rows_are_consistent() {
        let rows = self_speedup_rows(Scale::Smoke, 11);
        assert_eq!(rows.len(), Scale::Smoke.self_speedup_threads().len());
        // The simulated outcome must not depend on host concurrency.
        for row in &rows {
            assert_eq!(
                row.simulated_seconds.to_bits(),
                rows[0].simulated_seconds.to_bits(),
                "simulated time changed with host threads"
            );
            assert!(row.wall_seconds > 0.0);
            assert!(row.speedup_vs_one_thread > 0.0);
        }
        assert_eq!(rows[0].speedup_vs_one_thread, 1.0);
    }

    #[test]
    fn table_5_1_rows_preserve_paper_ordering() {
        let rows = table_5_1_rows();
        assert_eq!(rows.len(), 6);
        // Sample sizes strictly decrease from regular sampling through the
        // HSS-2 row (the paper's headline comparison)...
        for w in rows[..4].windows(2) {
            assert!(
                w[0].sample_keys > w[1].sample_keys,
                "{} vs {}",
                w[0].algorithm,
                w[1].algorithm
            );
        }
        // ...and every multi-round HSS variant stays far below both sample
        // sort rows (HSS-4 and constant oversampling are within a small
        // constant factor of each other, so no strict order is asserted
        // between them).
        for hss_row in &rows[3..] {
            assert!(hss_row.sample_keys < rows[1].sample_keys / 10.0, "{}", hss_row.algorithm);
        }
    }

    #[test]
    fn table_6_1_smoke_run_matches_paper_shape() {
        let rows = table_6_1_rows(Scale::Smoke, 7);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.all_finalized, "p = {} did not finalize", row.processors);
            assert!(
                row.rounds_observed <= row.rounds_bound,
                "p = {}: observed {} > bound {}",
                row.processors,
                row.rounds_observed,
                row.rounds_bound
            );
            // The paper observes ~4 rounds; allow some slack at small p.
            assert!(row.rounds_observed >= 2 && row.rounds_observed <= 8);
        }
    }

    #[test]
    fn figure_3_1_smoke_rows_shrink() {
        let rows = figure_3_1_rows(Scale::Smoke, 3);
        assert!(!rows.is_empty());
        // Within one (distribution, p) trace, G_j never grows.
        let uniform: Vec<&Figure31Row> =
            rows.iter().filter(|r| r.distribution == "uniform").collect();
        for w in uniform.windows(2) {
            if w[0].processors == w[1].processors && w[1].round > w[0].round {
                assert!(w[1].union_rank_size <= w[0].union_rank_size);
            }
        }
    }

    #[test]
    fn figure_4_1_rows_cover_all_series() {
        let rows = figure_4_1_rows();
        assert_eq!(rows.len(), 5 * 9);
        // HSS constant oversampling needs fewer samples than regular
        // sampling at every p.
        for p in hss_analysis::figure_4_1_processor_counts() {
            let reg = rows
                .iter()
                .find(|r| r.series == "regular sampling" && r.processors == p)
                .unwrap()
                .sample_keys;
            let hss = rows
                .iter()
                .find(|r| r.series == "HSS - constant oversampling" && r.processors == p)
                .unwrap()
                .sample_keys;
            assert!(hss < reg);
        }
    }

    #[test]
    fn figure_6_1_smoke_rows_have_small_histogramming_share() {
        let rows = figure_6_1_rows(Scale::Smoke, 5);
        let executed: Vec<&Figure61Row> = rows.iter().filter(|r| r.mode == "executed").collect();
        assert!(!executed.is_empty());
        for row in executed {
            assert!(row.total() > 0.0);
            // At smoke scale the per-core key count is tiny, so the fixed
            // per-round collective latencies keep the histogramming share
            // noticeable; it must still not dominate.  (The full-scale claim
            // — histogramming well under 20% — is asserted on the modelled
            // series in `model::tests`.)
            assert!(
                row.histogramming < 0.7 * row.total(),
                "histogramming {} vs total {} at p = {}",
                row.histogramming,
                row.total(),
                row.processors
            );
            assert!(row.imbalance < 1.2, "imbalance {}", row.imbalance);
        }
        assert!(rows.iter().any(|r| r.mode == "modelled"));
    }

    #[test]
    fn figure_6_2_smoke_rows_favour_hss_on_splitter_cost() {
        let rows = figure_6_2_rows(Scale::Smoke, 9);
        assert!(!rows.is_empty());
        for dataset in ["lambb-like", "dwarf-like"] {
            for p in Scale::Smoke.figure_6_2_processors() {
                let hss = rows
                    .iter()
                    .find(|r| r.dataset == dataset && r.processors == p && r.algorithm == "hss")
                    .unwrap();
                let old = rows
                    .iter()
                    .find(|r| {
                        r.dataset == dataset
                            && r.processors == p
                            && r.algorithm == "histogram-sort-classic"
                    })
                    .unwrap();
                // HSS needs no more histogramming rounds than classic
                // key-space refinement on clustered particle keys.
                assert!(
                    hss.rounds <= old.rounds,
                    "{dataset} p={p}: hss {} rounds vs old {}",
                    hss.rounds,
                    old.rounds
                );
            }
        }
    }
}
