//! Executable reproductions of every table and figure in the paper's
//! evaluation, and the one list of them, [`EXPERIMENTS`].  Each `*_rows`
//! function returns structured rows; the `hss-bench` command prints and
//! persists them.

use hss_analysis::{table_5_1_costs, Algorithm};
use hss_baselines::HistogramSortConfig;
use hss_core::{
    determine_splitters, theory, HssConfig, HssSorter, RoundSchedule, Sorter, SplitterRule,
};
use hss_keygen::{ChangaDataset, KeyDistribution, Record};
use hss_sim::{CostModel, Machine, Phase, Topology};
use serde::{Deserialize, Serialize, Value};

use crate::model::{modelled_figure_6_1_series, ModelledBreakdown};
use crate::scale::Scale;

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// One experiment: a question, the rows that answer it and the file they
/// go to.
#[derive(Debug)]
pub struct Experiment {
    /// Command-line name; the rows are written to `<name>.json`.
    pub name: &'static str,
    /// The paper artifact (or simulated question) the rows reproduce.
    pub artifact: &'static str,
    /// The claim the rows are read against.
    pub claim: &'static str,
    /// The rows at a scale and seed.
    pub run: fn(Scale, u64) -> Value,
}

/// Every experiment, in the order `hss-bench all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table_5_1",
        artifact: "Table 5.1 — overall sample size and cost at p = 1e5, eps = 5%, N/p = 1e6 \
                   (8-byte keys)",
        claim: "the paper: regular sampling 1600 GB, random sampling 8.1 GB, HSS-1 184 MB, \
                HSS-2 24 MB, HSS with log log rounds 10 MB of sample.",
        run: |_, _| table_5_1_rows().to_value(),
    },
    Experiment {
        name: "figure_4_1",
        artifact: "Figure 4.1 — sample size (keys) vs processor count for 5% load imbalance",
        claim: "the paper: both sample-sort variants blow up with p; HSS stays orders of \
                magnitude below.",
        run: |_, _| figure_4_1_rows().to_value(),
    },
    Experiment {
        name: "table_6_1",
        artifact: "Table 6.1 — histogramming rounds, eps = 0.02, 5 samples/processor/round, \
                   no shared-memory optimisation",
        claim: "the paper: 4 rounds observed (bound 8) at p = 4K, 8K, 16K and 32K \
                (HSS_EXPERIMENT_SCALE=full runs those sizes).",
        run: |scale, seed| table_6_1_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "figure_3_1",
        artifact: "Figure 3.1 — splitter-interval shrinkage per histogramming round",
        claim: "the paper: the splitter intervals, and with them the sampled subset, shrink \
                every round.",
        run: |scale, seed| figure_3_1_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "figure_6_1",
        artifact: "Figure 6.1 — HSS weak scaling, per-phase simulated seconds \
                   (node-level partitioning, 16 cores/node)",
        claim: "the paper: histogramming is a small fraction of the total at every scale; \
                the data exchange dominates and grows with p; local sort is flat under weak \
                scaling.",
        run: |scale, seed| figure_6_1_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "figure_6_2",
        artifact: "Figure 6.2 — ChaNGa-like sorting: HSS vs classic Histogram sort (\"Old\")",
        claim: "the paper: on clustered particle keys HSS needs fewer histogramming rounds \
                than the old histogram sort and determines splitters faster, the more so the \
                more buckets (processors). The rows: HSS runs 3-4 rounds against the classic \
                sort's 19-35 at every p, but its simulated splitter seconds are lower only up \
                to p = 1024; at p = 2048 they are higher (lambb-like 2.341 vs 1.848 ms, \
                dwarf-like 2.418 vs 1.937 ms). Suspected cause: the simulated charge of \
                HSS's O(m)-word probe broadcast and histogram reduction (ROADMAP item 3).",
        run: |scale, seed| figure_6_2_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "overlap_speedup",
        artifact: "Overlap speedup — Bsp vs Overlapped sync model (simulated makespan)",
        claim: "section 4: pipelining splitter determination with a staged all-to-allv \
                shortens the makespan; the rows cover p >= 32 on uniform and skewed inputs.",
        run: |scale, seed| overlap_speedup_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "epoch_service",
        artifact: "Epoch service — warm-started vs cold splitter determination per epoch",
        claim: "no paper claim (section 3.3 across epochs): on a stationary stream the warm \
                start saves histogramming rounds and never samples more keys; rank queries \
                stay within the Theorem 3.4.1 allowance.",
        run: |scale, seed| epoch_service_rows(scale, seed).to_value(),
    },
    Experiment {
        name: "ablation",
        artifact: "Ablation — HSS design choices on a skewed 64-rank workload (eps = 5%)",
        claim: "no paper claim: what each design choice costs in rounds, sample keys, \
                simulated seconds, imbalance and messages on one input (the scale is ignored).",
        run: |_, seed| ablation_rows(seed).to_value(),
    },
];

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
                let outcome = HistogramSortConfig::new(eps, p).sort(&mut machine, keys.clone());
                rows.push(figure_6_2_row(
                    &dataset.name,
                    p,
                    "histogram-sort-classic",
                    &outcome.report,
                ));
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
// Ablation — HSS design choices on one skewed workload
// ---------------------------------------------------------------------------

/// One variant of the ablation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// The design choice this run changes from the base configuration.
    pub variant: String,
    /// Histogramming rounds executed.
    pub rounds: usize,
    /// Overall sample gathered over all rounds.
    pub total_sample: usize,
    /// Simulated seconds of the whole sort.
    pub simulated_seconds: f64,
    /// Achieved load imbalance.
    pub imbalance: f64,
    /// Messages sent over the whole sort.
    pub messages: u64,
}

/// Sort one input, one rank per slice and 16 cores per node, under
/// `config`.
fn ablation_row(variant: &str, config: HssConfig, input: &[Vec<u64>]) -> AblationRow {
    let mut machine = Machine::new(Topology::new(input.len(), 16), CostModel::bluegene_like());
    let outcome = HssSorter::new(config).sort(&mut machine, input.to_vec());
    let splitters = outcome.report.splitters.as_ref();
    AblationRow {
        variant: variant.to_string(),
        rounds: splitters.map(|s| s.rounds_executed()).unwrap_or(0),
        total_sample: splitters.map(|s| s.total_sample_size).unwrap_or(0),
        simulated_seconds: outcome.report.simulated_seconds(),
        imbalance: outcome.report.imbalance(),
        messages: outcome.report.metrics.total_messages(),
    }
}

/// The HSS design choices one at a time, on 64 ranks of 20 000 power-law
/// keys at ε = 5 %: round schedule (1 / 2 / 3 theoretical rounds, constant
/// oversampling with 2 / 5 / 10 samples per processor per round), the
/// scanning splitter rule with one round, node-level partitioning,
/// approximate (§3.4) histogramming, and duplicate tagging on a
/// duplicate-heavy input.  The sweep has one size, so it takes no scale.
pub fn ablation_rows(seed: u64) -> Vec<AblationRow> {
    const P: usize = 64;
    const KEYS_PER_RANK: usize = 20_000;
    let input = KeyDistribution::PowerLaw { gamma: 3.0 }.generate_per_rank(P, KEYS_PER_RANK, seed);
    let base =
        HssConfig { epsilon: 0.05, node_level: false, ..HssConfig::default() }.with_seed(seed);

    let mut rows = Vec::new();
    for k in [1usize, 2, 3] {
        let cfg = HssConfig { schedule: RoundSchedule::Theoretical { rounds: k }, ..base.clone() };
        rows.push(ablation_row(&format!("theoretical k={k}"), cfg, &input));
    }
    for f in [2.0f64, 5.0, 10.0] {
        let cfg = HssConfig {
            schedule: RoundSchedule::ConstantOversampling { oversampling: f, max_rounds: 64 },
            ..base.clone()
        };
        rows.push(ablation_row(&format!("constant oversampling f={f}"), cfg, &input));
    }
    let cfg = HssConfig {
        schedule: RoundSchedule::Theoretical { rounds: 1 },
        splitter_rule: SplitterRule::Scanning,
        ..base.clone()
    };
    rows.push(ablation_row("scanning rule (1 round)", cfg, &input));
    rows.push(ablation_row("node-level partitioning", base.clone().with_node_level(), &input));
    rows.push(ablation_row(
        "approximate histograms (sec 3.4)",
        base.clone().with_approximate_histograms(),
        &input,
    ));

    let dup_input =
        KeyDistribution::FewDistinct { distinct: 16 }.generate_per_rank(P, KEYS_PER_RANK, seed);
    rows.push(ablation_row("duplicates, no tagging", base.clone(), &dup_input));
    rows.push(ablation_row("duplicates, tagged", base.with_duplicate_tagging(), &dup_input));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_simulated_entries_ignore_host_threads() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        // The byte guard regenerates every file on whatever pool CI has:
        // no entry's rows may depend on the host thread count.
        let on_threads = |threads: usize, e: &Experiment| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("registry test pool");
            pool.install(|| (e.run)(Scale::Smoke, 0x5EED_2019))
        };
        for e in EXPERIMENTS {
            assert_eq!(on_threads(1, e), on_threads(2, e), "{} depends on host threads", e.name);
        }
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
        // Every HSS series needs fewer samples than both sample-sort
        // series at every p.
        for p in hss_analysis::figure_4_1_processor_counts() {
            let keys = |series: &str| {
                let row = rows.iter().find(|r| r.series == series && r.processors == p);
                row.unwrap_or_else(|| panic!("no {series} row at p = {p}")).sample_keys
            };
            let sample_sort = keys("regular sampling").min(keys("random sampling"));
            for hss in ["HSS - 1 round", "HSS - 2 rounds", "HSS - constant oversampling"] {
                assert!(keys(hss) < sample_sort, "p = {p}: {hss} {} vs {sample_sort}", keys(hss));
            }
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

    /// The flat objects of a pretty-printed JSON array of rows, each as
    /// its `(field, raw value)` pairs with string quotes stripped.  Enough
    /// for the committed row files, whose values hold no `{`, `}` or `,`.
    fn flat_json_rows(text: &str) -> Vec<Vec<(String, String)>> {
        text.split('{')
            .skip(1)
            .map(|object| {
                let body = object.split('}').next().unwrap_or_default();
                body.split(',')
                    .filter_map(|field| field.split_once(':'))
                    .map(|(k, v)| {
                        (k.trim().trim_matches('"').into(), v.trim().trim_matches('"').into())
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn committed_table_6_1_rows_finalize_within_the_round_bound() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table_6_1.json");
        let text = std::fs::read_to_string(path).expect("committed results/table_6_1.json");
        let rows = flat_json_rows(&text);
        assert_eq!(rows.len(), Scale::Default.table_6_1_processors().len());
        for row in rows {
            let field = |name: &str| {
                let hit = row.iter().find(|(k, _)| k == name);
                hit.unwrap_or_else(|| panic!("row without {name}: {row:?}")).1.clone()
            };
            let count = |name: &str| field(name).parse::<u64>().expect("integer count");
            let p = field("processors");
            assert_eq!(field("all_finalized"), "true", "p={p} did not finalize");
            let (observed, bound) = (count("rounds_observed"), count("rounds_bound"));
            assert!(observed <= bound, "p={p}: {observed} rounds observed, bound {bound}");
        }
    }

    #[test]
    fn committed_figure_6_2_rows_give_hss_fewer_rounds_at_every_p() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/figure_6_2.json");
        let text = std::fs::read_to_string(path).expect("committed results/figure_6_2.json");
        // (dataset, processors) -> rounds of (hss, histogram-sort-classic).
        let mut rounds: std::collections::BTreeMap<(String, String), [Option<u64>; 2]> =
            Default::default();
        for row in flat_json_rows(&text) {
            let field = |name: &str| {
                let hit = row.iter().find(|(k, _)| k == name);
                hit.unwrap_or_else(|| panic!("row without {name}: {row:?}")).1.clone()
            };
            let arm = match field("algorithm").as_str() {
                "hss" => 0,
                "histogram-sort-classic" => 1,
                other => panic!("unexpected algorithm {other}"),
            };
            let slot = &mut rounds.entry((field("dataset"), field("processors"))).or_default()[arm];
            assert!(slot.is_none(), "duplicate row {row:?}");
            *slot = Some(field("rounds").parse().expect("integer rounds"));
        }
        assert_eq!(rounds.len(), 8, "two datasets at four processor counts");
        for ((dataset, p), pair) in &rounds {
            let [Some(hss), Some(old)] = *pair else { panic!("{dataset} p={p}: unpaired row") };
            assert!(hss < old, "{dataset} p={p}: HSS {hss} rounds vs classic {old}");
        }
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
