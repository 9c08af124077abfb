//! Running one workload: set-up, the timed closed loop, output checks,
//! and — in a separate run — the traced staged replay and the direct
//! per-layer calls.
//!
//! The program is measured only through public functions: `Sorter::run`,
//! `HssSorter::sort_out_of_core`, and the layer entry points the replay
//! and the probes call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hss_repro::core::{
    charged_local_sort, determine_splitters, ExtSortPolicy, HssConfig, HssSorter, LocalSortAlgo,
    SortOutcome, SortReport, SortRequest, Sorter,
};
use hss_repro::extsort::{ExtSortReport, ExternalSorter, IoMode, PlainRecord};
use hss_repro::keygen::{Keyed, TeraRecord};
use hss_repro::lsort::RadixSortable;
use hss_repro::partition::{
    classify_work, exchange_plan, kway_merge_slices, local_ranks, runs_for, verify_global_sort,
    DecisionTree, ExchangeEngine, LoadBalance,
};
use hss_repro::sim::{CostModel, Machine, Phase, Topology, Work};
use rayon::prelude::*;

use crate::host;
use crate::spec::{
    Shape, WorkloadSpec, END_TO_END, EPSILON, MIN_TIMED_SORTS, MIN_TRACED_ITERATIONS, PER_LAYER,
    SETUP_REPEATS, SMOKE_TIMED_SORTS, SMOKE_TRACED_ITERATIONS, WARMUP_SORTS,
};
use crate::stats::{mean, median, quantile, samples_beyond, throughput};
use crate::trace::Tracer;

/// A record type the benchmark can sort on every path, with the integrity
/// check that goes beyond key order.
pub trait BenchRecord: Keyed<K: RadixSortable> + Ord + RadixSortable + PlainRecord {
    /// Whether the record's payload still belongs to its key.
    fn intact(&self) -> bool;
}

impl BenchRecord for u64 {
    fn intact(&self) -> bool {
        true
    }
}

impl BenchRecord for TeraRecord {
    fn intact(&self) -> bool {
        self.payload_matches_key()
    }
}

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// How long the measured part runs; it never makes fewer than the
    /// minimum number of sorts, whatever this says.
    pub seconds: f64,
    pub smoke: bool,
    /// Root under which this process creates (and removes) its own
    /// scratch directory.
    pub scratch_root: PathBuf,
}

impl Options {
    fn min_timed_sorts(&self) -> usize {
        if self.smoke {
            SMOKE_TIMED_SORTS
        } else {
            MIN_TIMED_SORTS
        }
    }

    fn min_traced_iterations(&self) -> usize {
        if self.smoke {
            SMOKE_TRACED_ITERATIONS
        } else {
            MIN_TRACED_ITERATIONS
        }
    }
}

/// The outcome of one invocation: named values plus the failure count.
#[derive(Debug, Default)]
pub struct Summary {
    /// `(metric, value, unit)`, in contract order, then informational rows.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: usize,
    /// One line per failed sort.
    pub failures: Vec<String>,
    /// The trace file's contents (`--trace 1` only).
    pub trace_json: Option<String>,
}

/// This process's scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(root: &Path, workload: &str) -> Result<Self, String> {
        let dir = root.join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn is_empty(&self) -> bool {
        std::fs::read_dir(&self.0).is_ok_and(|mut entries| entries.next().is_none())
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is reported by the spill check,
        // not here.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One workload bound to its record type, inputs and scratch space.
struct Bench<'a, T: BenchRecord> {
    spec: &'a WorkloadSpec,
    shape: Shape,
    scratch: ScratchDir,
    input: Vec<Vec<T>>,
    /// The input's keys in sorted order: what every output must equal.
    reference: Vec<T::K>,
    generate_s: f64,
}

/// One finished sort.
struct SortRun<T> {
    seconds: f64,
    machine: Machine,
    outcome: SortOutcome<T>,
    ext: Option<ExtSortReport>,
}

impl<'a, T: BenchRecord> Bench<'a, T> {
    /// One set-up: generate the input from the seed, build the sorted
    /// reference, create the scratch directory, run the warm-up sorts.
    fn prepare(
        spec: &'a WorkloadSpec,
        opts: &Options,
        generate: &dyn Fn(Shape, u64) -> Vec<Vec<T>>,
    ) -> Result<Self, String> {
        let shape = spec.shape(opts.smoke);
        let t = Instant::now();
        let input = generate(shape, opts.seed);
        let generate_s = t.elapsed().as_secs_f64();
        let mut reference: Vec<T::K> = input.iter().flatten().map(Keyed::key).collect();
        hss_repro::lsort::par_radix_sort(&mut reference);
        let scratch = ScratchDir::create(&opts.scratch_root, spec.name)?;
        let bench = Self { spec, shape, scratch, input, reference, generate_s };
        for warm in 0..WARMUP_SORTS {
            let run = bench.sort(opts.seed + warm as u64, |_| {})?;
            bench.check(&run.outcome.data)?;
            if warm == 0 {
                // Cross-check the cheap reference comparison against the
                // repository's own verifier once per set-up.
                verify_global_sort(&bench.input, &run.outcome.data)?;
            }
        }
        Ok(bench)
    }

    fn records(&self) -> usize {
        self.shape.ranks * self.shape.per_rank
    }

    fn record_bytes(&self) -> usize {
        std::mem::size_of::<T>()
    }

    /// The configuration every sort uses: `HssConfig::default()` with the
    /// sampling seed, and the knobs the environment could otherwise reach
    /// set explicitly.
    fn config(&self, sampling_seed: u64) -> HssConfig {
        let config = HssConfig::default()
            .with_seed(sampling_seed)
            .with_local_sort(LocalSortAlgo::Radix)
            .with_exchange_engine(ExchangeEngine::Flat);
        if self.spec.spill {
            config.with_ext_sort(self.spill_policy())
        } else {
            config
        }
    }

    /// Memory cap of a quarter of a rank's input, pipelined, overlapped I/O.
    fn spill_policy(&self) -> ExtSortPolicy {
        let cap = self.shape.per_rank * self.record_bytes() / 4;
        ExtSortPolicy::new(cap, self.scratch.0.to_string_lossy())
            .with_pipelined()
            .with_io_mode(IoMode::Overlapped)
    }

    fn machine(&self) -> Machine {
        let topology = Topology::new(self.shape.ranks, self.spec.cores_per_node);
        Machine::new(topology, CostModel::bluegene_like()).with_sync_model(self.spec.sync)
    }

    /// A fresh copy of the input, each rank's vector allocated and copied
    /// on the pool — by the whole sort and the replay alike, so the two
    /// see buffers laid out the same way.
    fn clone_input(&self) -> Vec<Vec<T>> {
        self.input.par_iter().map(Vec::clone).collect()
    }

    /// One whole sort on a fresh machine.  The input is cloned before the
    /// clock starts; `tamper` edits the output after it stops (a no-op
    /// outside tests).  A panic inside the sorter is a failed sort, not a
    /// dead benchmark.
    fn sort(
        &self,
        sampling_seed: u64,
        tamper: impl FnOnce(&mut Vec<Vec<T>>),
    ) -> Result<SortRun<T>, String> {
        let input = self.clone_input();
        let mut machine = self.machine();
        let sorter = HssSorter::new(self.config(sampling_seed));
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.spec.spill {
                let (outcome, ext) = sorter.sort_out_of_core(&mut machine, input);
                Ok((outcome, Some(ext)))
            } else {
                sorter.run(&mut machine, SortRequest::new(input)).map(|outcome| (outcome, None))
            }
        }));
        let seconds = t.elapsed().as_secs_f64();
        let (mut outcome, ext) = match result {
            Ok(sorted) => sorted?,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                return Err(format!("sorter panicked: {msg}"));
            }
        };
        tamper(&mut outcome.data);
        Ok(SortRun { seconds, machine, outcome, ext })
    }

    /// Everything a correct output satisfies: its keys, rank after rank,
    /// are exactly the sorted input keys (so it is a permutation, sorted
    /// within and across ranks — what `verify_global_sort` checks, without
    /// re-sorting both sides); no rank exceeds `(1+ε)N/p`; every payload
    /// still matches its key; and a spilling sort left no scratch file.
    fn check(&self, output: &[Vec<T>]) -> Result<(), String> {
        let records: usize = output.iter().map(Vec::len).sum();
        if records != self.reference.len() {
            return Err(format!(
                "record count changed: {} in, {records} out",
                self.reference.len()
            ));
        }
        // Rank by rank on the pool: each rank's keys against its slice of
        // the reference, and each record's payload against its key.
        let mut offsets = Vec::with_capacity(output.len());
        let mut next = 0;
        for rank in output {
            offsets.push(next);
            next += rank.len();
        }
        let faults: Vec<Option<String>> = output
            .par_iter()
            .zip(offsets.par_iter())
            .map(|(rank, &offset)| {
                let want = &self.reference[offset..offset + rank.len()];
                if let Some(at) = rank.iter().zip(want).position(|(got, want)| got.key() != *want) {
                    let at = offset + at;
                    return Some(format!(
                        "output position {at} does not hold the input's key of that rank"
                    ));
                }
                rank.iter().position(|r| !r.intact()).map(|at| {
                    format!("payload of output record {} no longer matches its key", offset + at)
                })
            })
            .collect();
        if let Some(why) = faults.into_iter().flatten().next() {
            return Err(why);
        }
        let balance = LoadBalance::from_rank_data(output);
        if !balance.satisfies(EPSILON) {
            return Err(format!(
                "imbalance {:.4} breaks the (1+{EPSILON})N/p bound",
                balance.imbalance
            ));
        }
        if self.spec.spill && !self.scratch.is_empty() {
            return Err(format!("scratch directory {} is not empty", self.scratch.0.display()));
        }
        Ok(())
    }
}

/// Words and messages charged to splitter determination.
fn splitter_traffic(report: &SortReport) -> (u64, u64) {
    [Phase::Sampling, Phase::Histogramming, Phase::SplitterBroadcast]
        .iter()
        .map(|&p| report.metrics.phase(p))
        .fold((0, 0), |(w, m), ph| (w + ph.comm_words, m + ph.messages))
}

/// `--trace 0`: set up (several times, for a steady `setup_s`), then sort
/// in a closed loop — one caller, the next sort starts when the previous
/// one has returned and been checked — for `opts.seconds`.
pub fn run_end_to_end<T: BenchRecord>(
    spec: &WorkloadSpec,
    opts: &Options,
    generate: &dyn Fn(Shape, u64) -> Vec<Vec<T>>,
    startup_s: f64,
) -> Result<Summary, String> {
    run_end_to_end_with(spec, opts, generate, startup_s, |_, _| {})
}

/// [`run_end_to_end`] with a hook that may edit sort `i`'s output before
/// it is checked; tests use it to prove a corrupted record is caught.
fn run_end_to_end_with<T: BenchRecord>(
    spec: &WorkloadSpec,
    opts: &Options,
    generate: &dyn Fn(Shape, u64) -> Vec<Vec<T>>,
    startup_s: f64,
    tamper: impl Fn(usize, &mut Vec<Vec<T>>),
) -> Result<Summary, String> {
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(Bench::prepare(spec, opts, generate)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let bench = prepared.expect("SETUP_REPEATS is at least 1");

    let min_sorts = opts.min_timed_sorts();
    let mut seconds = Vec::new();
    let mut failures = Vec::new();
    // Counts of the first `min_sorts` sorts only, so they repeat exactly
    // for a seed however many more sorts the time allows.
    let (mut imbalance, mut rounds, mut sample_keys, mut comm_words) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    let mut i = 0;
    while i < min_sorts || loop_start.elapsed().as_secs_f64() < opts.seconds {
        match bench.sort(opts.seed + i as u64, |data| tamper(i, data)) {
            Ok(run) => {
                seconds.push(run.seconds);
                if let Err(why) = bench.check(&run.outcome.data) {
                    failures.push(format!("sort {i}: {why}"));
                }
                if i < min_sorts {
                    let splitters =
                        run.outcome.report.splitters.as_ref().expect("HSS reports its splitters");
                    imbalance.push(LoadBalance::from_rank_data(&run.outcome.data).imbalance);
                    rounds.push(splitters.rounds_executed() as f64);
                    sample_keys.push(splitters.total_sample_size as f64);
                    comm_words.push(splitter_traffic(&run.outcome.report).0 as f64);
                }
            }
            Err(why) => failures.push(format!("sort {i}: {why}")),
        }
        i += 1;
    }
    let attempted = i;
    if seconds.is_empty() {
        return Err(format!("no sort completed: {}", failures.join("; ")));
    }

    let records = bench.records() as f64;
    let value = |name: &str| -> f64 {
        match name {
            "sort_mrec_per_s" => throughput(records / 1e6, &seconds),
            "sort_mb_per_s" => throughput(records * bench.record_bytes() as f64 / 1e6, &seconds),
            "sort_s_p50" => median(&seconds),
            "sort_s_p75" => quantile(&seconds, 0.75),
            "setup_s" => startup_s + median(&setups),
            "peak_rss_mb" => host::peak_rss_mib(),
            "imbalance_max" => imbalance.iter().copied().fold(f64::NAN, f64::max),
            "splitter_rounds_mean" => mean(&rounds),
            "splitter_sample_keys_mean" => mean(&sample_keys),
            "splitter_comm_words_mean" => mean(&comm_words),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        }
    };
    let mut metrics: Vec<_> = END_TO_END.iter().map(|m| (m.name, value(m.name), m.unit)).collect();
    metrics.push(("timed_sorts", seconds.len() as f64, "count"));
    metrics.push(("samples_beyond_p75", samples_beyond(seconds.len(), 0.75) as f64, "count"));
    metrics.push(("failed_fraction", failures.len() as f64 / attempted as f64, "ratio"));
    Ok(Summary { metrics, attempted, failures, trace_json: None })
}

/// Per-layer samples by metric name, one per traced iteration (or a single
/// one for a value measured once).
#[derive(Default)]
struct LayerSamples(BTreeMap<&'static str, Vec<f64>>);

impl LayerSamples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The reported value: times take the median over every iteration;
    /// exact-repeat counts take it over the first `exact_window` only, so
    /// they do not depend on how many iterations the time allowed.  A
    /// layer that never ran reports 0.
    fn value(&self, name: &str, exact: bool, exact_window: usize) -> f64 {
        match self.0.get(name) {
            None => 0.0,
            Some(v) if exact => median(&v[..v.len().min(exact_window)]),
            Some(v) => median(v),
        }
    }
}

/// One traced iteration of an in-memory workload: `HssSorter::sort`'s
/// rank-level Bsp path recomposed from public calls, one span around each.
/// Returns the sorted output and the machine it ran on.
fn staged_replay<T: BenchRecord>(
    bench: &Bench<'_, T>,
    sampling_seed: u64,
    iteration: usize,
    tracer: &mut Tracer,
    samples: &mut LayerSamples,
) -> (Vec<Vec<T>>, Machine) {
    let config = bench.config(sampling_seed);
    let mut data = bench.clone_input();
    let mut machine = bench.machine();
    let p = machine.ranks();
    let records = bench.records() as u64;

    let root = tracer.begin("core.sort", None, iteration);
    config.validate().expect("the benchmark's configuration is valid");
    let total_keys: u64 = data.iter().map(|v| v.len() as u64).sum();

    let span = tracer.begin("lsort.local_sort", Some(root), iteration);
    let algo = config.local_sort;
    machine.local_phase(Phase::LocalSort, &mut data, move |_rank, local| {
        charged_local_sort(algo, local)
    });
    tracer.count(span, "records", records);
    samples.push("lsort.sort_s", tracer.end(span));

    let span = tracer.begin("core.determine_splitters", Some(root), iteration);
    let (splitters, splitter_report) = determine_splitters(&mut machine, &data, p, &config);
    tracer.count(span, "rounds", splitter_report.rounds_executed() as u64);
    tracer.count(span, "sample_keys", splitter_report.total_sample_size as u64);
    samples.push("core.splitters_s", tracer.end(span));

    let span = tracer.begin("partition.exchange_plan", Some(root), iteration);
    let plans = machine.map_phase(Phase::DataExchange, &data, |_rank, local| {
        (
            exchange_plan(local, &splitters),
            classify_work(local.len(), splitters.keys().len()).and(Work::scan(local.len())),
        )
    });
    samples.push("partition.exchange_plan_s", tracer.end(span));

    let span = tracer.begin("sim.exchange", Some(root), iteration);
    if machine.topology().cores_per_node() > 1 {
        machine.all_to_allv_flat_node_combined_in_place::<T>(Phase::DataExchange, &data, &plans);
    } else {
        machine.all_to_allv_flat_in_place::<T>(Phase::DataExchange, &data, &plans);
    }
    let exchange = machine.metrics().phase(Phase::DataExchange);
    tracer.count(span, "words", exchange.comm_words);
    tracer.count(span, "messages", exchange.messages);
    samples.push("sim.exchange_s", tracer.end(span));

    let span = tracer.begin("partition.merge", Some(root), iteration);
    let out = machine.map_phase(Phase::Merge, &data, |dst, _local| {
        let runs = runs_for(&plans, &data, dst);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
        (kway_merge_slices(&runs), Work::merge(total, pieces.max(1)))
    });
    tracer.count(span, "records", records);
    samples.push("partition.merge_s", tracer.end(span));
    let fan_in: usize = plans.iter().map(|plan| plan.nonempty_runs()).sum();
    samples.push("partition.merge_fan_in", fan_in as f64 / p as f64);

    // What `HssSorter::sort` does around the phases: the load-balance scan,
    // the report (a clone of the metrics registry), dropping the sorted
    // input and the exchange plans.
    let report = SortReport {
        algorithm: "hss".to_string(),
        ranks: p,
        total_keys,
        splitters: Some(splitter_report),
        load_balance: LoadBalance::from_rank_data(&out),
        metrics: machine.metrics().clone(),
        sync_model: machine.sync_model().name().to_string(),
        local_sort: config.local_sort.name().to_string(),
        makespan_seconds: machine.simulated_time(),
    };
    drop((data, plans, splitters));
    let root_s = tracer.end(root);

    let covered = tracer.children_seconds(root);
    samples.push("trace.root_s", root_s);
    samples.push("trace.coverage", covered / root_s);
    samples.push("core.self_s", root_s - covered);
    push_report_samples(samples, &report);
    (out, machine)
}

/// The per-layer values a `SortReport` carries, whichever path produced it.
fn push_report_samples(samples: &mut LayerSamples, report: &SortReport) {
    let splitters = report.splitters.as_ref().expect("HSS reports its splitters");
    let (words, messages) = splitter_traffic(report);
    let exchange = report.metrics.phase(Phase::DataExchange);
    samples.push("core.sampling_s", report.metrics.phase(Phase::Sampling).wall_seconds);
    samples.push("core.histogramming_s", report.metrics.phase(Phase::Histogramming).wall_seconds);
    samples.push("core.rounds", splitters.rounds_executed() as f64);
    samples.push("core.sample_keys", splitters.total_sample_size as f64);
    samples
        .push("core.probes", splitters.rounds.iter().map(|r| r.probe_count).sum::<usize>() as f64);
    samples.push("core.splitter_messages", messages as f64);
    samples.push("core.splitter_words", words as f64);
    samples.push("sim.exchange_words", exchange.comm_words as f64);
    samples.push("sim.exchange_messages", exchange.messages as f64);
    samples.push("sim.makespan_s", report.makespan_seconds);
    samples.push("sim.simulated_s", report.simulated_seconds());
    samples.push("sim.disk_words", report.metrics.total_disk_words() as f64);
}

/// One traced iteration of the spilling workload.  Its splitter
/// determination over run files is private to `hss-core`, so the root span
/// wraps `sort_out_of_core` itself and the phases' wall seconds from the
/// returned report stand in for child spans.
fn traced_spill<T: BenchRecord>(
    bench: &Bench<'_, T>,
    sampling_seed: u64,
    iteration: usize,
    tracer: &mut Tracer,
    samples: &mut LayerSamples,
) -> Result<Vec<Vec<T>>, String> {
    let root = tracer.begin("core.sort_out_of_core", None, iteration);
    let run = bench.sort(sampling_seed, |_| {})?;
    let root_s = tracer.end(root);
    let report = &run.outcome.report;
    let ext = run.ext.expect("the spilling sort returns an ExtSortReport");
    let wall = |phase| report.metrics.phase(phase).wall_seconds;
    let splitters_s =
        wall(Phase::Sampling) + wall(Phase::Histogramming) + wall(Phase::SplitterBroadcast);
    // Run formation (lsort inside extsort), the cursor drain into staged
    // exchange, the exchange-side spill merge.
    samples.push("lsort.sort_s", wall(Phase::LocalSort));
    samples.push("core.splitters_s", splitters_s);
    samples.push("sim.exchange_s", wall(Phase::DataExchange));
    samples.push("partition.merge_s", wall(Phase::Merge));
    samples.push("partition.merge_fan_in", bench.shape.ranks as f64);
    let covered = report.metrics.total_wall_seconds();
    tracer.count(root, "bytes_written", ext.bytes_written);
    tracer.count(root, "bytes_read", ext.bytes_read);
    samples.push("trace.root_s", root_s);
    samples.push("trace.coverage", covered / root_s);
    samples.push("core.self_s", root_s - covered);
    push_report_samples(samples, report);

    let input_bytes = (bench.records() * bench.record_bytes()) as f64;
    samples.push("extsort.bytes_written", ext.bytes_written as f64);
    samples.push("extsort.bytes_read", ext.bytes_read as f64);
    samples.push("extsort.write_amp", ext.bytes_written as f64 / input_bytes);
    samples.push("extsort.read_transfers", ext.read_transfers as f64);
    samples.push("extsort.write_transfers", ext.write_transfers as f64);
    samples.push("extsort.runs_formed", ext.runs_formed as f64);
    samples.push("extsort.merge_passes", ext.merge_passes as f64);
    samples.push("extsort.io_wait_s", ext.io_wait_seconds);
    samples.push("extsort.io_wait_fraction", ext.io_wait_fraction());
    Ok(run.outcome.data)
}

/// The first key of every output rank after the first: the final splitters
/// as the output shows them, used as the `p − 1` probes of the direct
/// layer calls on every workload alike.
fn boundary_keys<T: Keyed>(output: &[Vec<T>]) -> Vec<T::K> {
    output.iter().skip(1).filter_map(|rank| rank.first().map(Keyed::key)).collect()
}

/// Seconds per call of `f`, repeated until 2 ms have passed so that calls
/// of a few microseconds are resolved.
fn seconds_per_call<R>(mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    loop {
        black_box(f());
        calls += 1;
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed >= 2e-3 {
            return elapsed / calls as f64;
        }
    }
}

/// Direct calls into `partition` on rank 0's data (`sorted` is its sorted
/// copy).
fn probe_partition<T: BenchRecord>(
    bench: &Bench<'_, T>,
    sorted: &[T],
    probes: &[T::K],
    samples: &mut LayerSamples,
) {
    let unsorted = &bench.input[0];
    let ranks_s = seconds_per_call(|| local_ranks(sorted, probes));
    samples.push("partition.local_ranks_s", ranks_s);
    samples.push("partition.local_ranks_mprobes_per_s", probes.len() as f64 / 1e6 / ranks_s);
    let classify_s =
        seconds_per_call(|| DecisionTree::from_splitters(probes).bucket_indices(unsorted));
    samples.push("partition.tree_classify_mrec_per_s", unsorted.len() as f64 / 1e6 / classify_s);
}

/// Direct calls into `extsort` on rank 0's input, under the configuration
/// the whole sort gives the tier (`policy.to_ext_config(Radix)`);
/// `sorted` is rank 0's sorted copy.
fn probe_extsort<T: BenchRecord>(
    bench: &Bench<'_, T>,
    sorted: &[T],
    probes: &[T::K],
    samples: &mut LayerSamples,
) -> std::io::Result<()> {
    let sorter = ExternalSorter::new(bench.spill_policy().to_ext_config(LocalSortAlgo::Radix));
    let rank0 = &bench.input[0];

    let t = Instant::now();
    let runs = sorter.form_runs_only(rank0.iter().copied())?;
    samples.push("extsort.form_runs_s", t.elapsed().as_secs_f64());

    let mut reader = runs.reader()?;
    reader.take_io();
    let t = Instant::now();
    black_box(reader.local_ranks(probes)?);
    samples.push("extsort.probe_s", t.elapsed().as_secs_f64());
    let (probe_bytes, probe_transfers, _wait) = reader.take_io();
    samples.push("extsort.probe_bytes", probe_bytes as f64);
    samples.push("extsort.probe_read_transfers", probe_transfers as f64);

    let positions: Vec<u64> = (0..64).map(|i| i * runs.total() / 64).collect();
    let t = Instant::now();
    black_box(reader.keys_at_ranks(&positions)?);
    samples.push("extsort.keys_at_ranks_s", t.elapsed().as_secs_f64());
    drop(reader);

    let t = Instant::now();
    let mut cursor = runs.into_cursor()?;
    let mut drained = 0usize;
    while let Some(record) = cursor.next() {
        black_box(record);
        drained += 1;
    }
    cursor.finish()?;
    samples.push("extsort.drain_s", t.elapsed().as_secs_f64());
    assert_eq!(drained, rank0.len(), "the cursor drains every record it was given");

    // `p` sorted runs of `n/p` records each, interleaved in key order like
    // the runs a destination receives.
    let p = bench.shape.ranks;
    let strided: Vec<Vec<T>> =
        (0..p).map(|j| sorted.iter().skip(j).step_by(p).copied().collect()).collect();
    let slices: Vec<&[T]> = strided.iter().map(Vec::as_slice).collect();
    let t = Instant::now();
    black_box(sorter.merge_spilled(&slices)?);
    samples.push("extsort.merge_spilled_s", t.elapsed().as_secs_f64());
    Ok(())
}

/// `--trace 1`: the per-layer metrics.  Untraced whole sorts (the
/// comparison median) alternate with traced iterations; the direct layer
/// calls and the host's ceilings follow.
pub fn run_traced<T: BenchRecord>(
    spec: &WorkloadSpec,
    opts: &Options,
    generate: &dyn Fn(Shape, u64) -> Vec<Vec<T>>,
) -> Result<Summary, String> {
    let bench = Bench::prepare(spec, opts, generate)?;
    let started = Instant::now();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut samples = LayerSamples::default();

    // Untraced whole sorts and traced iterations alternate, so that the
    // host's drift over the run reaches both sides of
    // `trace.replay_vs_run` alike.  Pair `i` uses sampling seed `seed + i`
    // on both sides.
    let mut tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut boundaries = Vec::new();
    let min_traced = opts.min_traced_iterations();
    let mut iteration = 0;
    while iteration < min_traced || started.elapsed().as_secs_f64() < opts.seconds * 0.8 {
        let sampling_seed = opts.seed + iteration as u64;
        let run = bench.sort(sampling_seed, |_| {})?;
        untraced.push(run.seconds);
        if let Err(why) = bench.check(&run.outcome.data) {
            failures.push(format!("untraced sort {iteration}: {why}"));
        }
        // Only the first pair keeps the whole sort's output alive next to
        // the replay's, for the fidelity gate.
        let timed = (iteration == 0 && !spec.spill)
            .then(|| (run.outcome.data, run.machine.metrics().deterministic_signature()));

        let output = if spec.spill {
            traced_spill(&bench, sampling_seed, iteration, &mut tracer, &mut samples)?
        } else {
            let (output, machine) =
                staged_replay(&bench, sampling_seed, iteration, &mut tracer, &mut samples);
            // Replay fidelity gate: per-layer numbers are only worth
            // printing if the replay is the program that was timed.
            if let Some((data, signature)) = timed {
                if output != data {
                    return Err(
                        "replay fidelity: the staged replay's output differs from Sorter::run's"
                            .to_string(),
                    );
                }
                if machine.metrics().deterministic_signature() != signature {
                    return Err("replay fidelity: the staged replay charged the simulator differently from Sorter::run".to_string());
                }
            }
            output
        };
        if let Err(why) = bench.check(&output) {
            failures.push(format!("traced iteration {iteration}: {why}"));
        }
        if iteration == 0 {
            boundaries = boundary_keys(&output);
        }
        attempted += 2;
        iteration += 1;
    }

    let mut sorted_rank0 = bench.input[0].clone();
    hss_repro::lsort::radix_sort(&mut sorted_rank0);
    probe_partition(&bench, &sorted_rank0, &boundaries, &mut samples);
    if spec.spill {
        for _ in 0..min_traced {
            probe_extsort(&bench, &sorted_rank0, &boundaries, &mut samples)
                .map_err(|e| format!("direct extsort calls: {e}"))?;
        }
    }

    // The host's ceilings, and the plain single-threaded baseline.
    let (memcpy_mib, scratch_mib) = if opts.smoke { (16, 4) } else { (256, 64) };
    let memcpy = host::memcpy_gb_per_s(memcpy_mib);
    let (scratch_write, scratch_read) = host::scratch_mb_per_s(&bench.scratch.0, scratch_mib)
        .map_err(|e| format!("scratch bandwidth probe: {e}"))?;
    let mut flat: Vec<T> = bench.input.iter().flatten().copied().collect();
    let t = Instant::now();
    flat.sort_unstable();
    let sort_unstable_s = t.elapsed().as_secs_f64();
    drop(flat);

    let mrec = bench.records() as f64 / 1e6;
    let gb = (bench.records() * bench.record_bytes()) as f64 / 1e9;
    let rank0_mb = (bench.shape.per_rank * bench.record_bytes()) as f64 / 1e6;
    let time = |name: &str| samples.value(name, false, min_traced);
    let per = |amount: f64, seconds: f64| if seconds > 0.0 { amount / seconds } else { 0.0 };
    let root_s = time("trace.root_s");
    let derived: Vec<(&'static str, f64)> = vec![
        ("keygen.generate_s", bench.generate_s),
        ("keygen.mrec_per_s", per(mrec, bench.generate_s)),
        ("lsort.mrec_per_s", per(mrec, time("lsort.sort_s"))),
        ("lsort.frac_of_memcpy", per(gb, time("lsort.sort_s")) / memcpy),
        ("partition.merge_mrec_per_s", per(mrec, time("partition.merge_s"))),
        ("partition.merge_frac_of_memcpy", per(gb, time("partition.merge_s")) / memcpy),
        ("extsort.form_runs_mb_per_s", per(rank0_mb, time("extsort.form_runs_s"))),
        (
            "extsort.form_runs_frac_of_scratch_write",
            per(rank0_mb, time("extsort.form_runs_s")) / scratch_write,
        ),
        ("extsort.drain_mb_per_s", per(rank0_mb, time("extsort.drain_s"))),
        ("host.cpus", host::cpus() as f64),
        ("host.threads", rayon::current_num_threads() as f64),
        ("host.memcpy_gb_per_s", memcpy),
        ("host.scratch_write_mb_per_s", scratch_write),
        ("host.scratch_read_mb_per_s", scratch_read),
        ("host.sort_unstable_mrec_per_s", per(mrec, sort_unstable_s)),
        ("trace.replay_vs_run", root_s / median(&untraced)),
    ];
    for (name, value) in derived {
        samples.push(name, value);
    }

    let mut metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name, samples.value(m.name, m.exact, min_traced), m.unit))
        .collect();
    metrics.push(("traced_iterations", iteration as f64, "count"));
    metrics.push(("trace.root_s", root_s, "s"));
    metrics.push(("trace.untraced_s_p50", median(&untraced), "s"));
    let trace_json = Some(tracer.to_json(spec.name, opts.seed));
    Ok(Summary { metrics, attempted, failures, trace_json })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;
    use hss_repro::keygen::{generate_tera_records_per_rank, KeyDistribution};

    fn options(tag: &str) -> Options {
        let scratch_root = std::env::temp_dir().join(format!("hss-benchmark-test-{tag}"));
        Options { seed: 7, seconds: 0.0, smoke: true, scratch_root }
    }

    fn uniform(shape: Shape, seed: u64) -> Vec<Vec<u64>> {
        KeyDistribution::Uniform.generate_per_rank(shape.ranks, shape.per_rank, seed)
    }

    fn tera(shape: Shape, seed: u64) -> Vec<Vec<TeraRecord>> {
        generate_tera_records_per_rank(shape.ranks, shape.per_rank, seed)
    }

    #[test]
    fn a_clean_run_reports_no_failures_and_every_metric() {
        let spec = workload("u64-fat").unwrap();
        let summary = run_end_to_end(spec, &options("clean"), &uniform, 0.0).unwrap();
        assert_eq!(summary.failures, Vec::<String>::new());
        assert_eq!(summary.attempted, SMOKE_TIMED_SORTS);
        for m in END_TO_END {
            let (_, value, _) = summary.metrics.iter().find(|(n, _, _)| *n == m.name).unwrap();
            assert!(value.is_finite() && *value > 0.0, "{} = {value}", m.name);
        }
    }

    #[test]
    fn one_corrupted_key_fails_the_sort_it_is_in() {
        let spec = workload("u64-fat").unwrap();
        let tamper = |i: usize, data: &mut Vec<Vec<u64>>| {
            if i == 1 {
                data[3][0] ^= 1;
            }
        };
        let summary =
            run_end_to_end_with(spec, &options("corrupt-key"), &uniform, 0.0, tamper).unwrap();
        assert_eq!(summary.failures.len(), 1, "{:?}", summary.failures);
        assert!(summary.failures[0].starts_with("sort 1:"), "{:?}", summary.failures);
    }

    #[test]
    fn one_corrupted_payload_fails_even_though_keys_are_in_order() {
        let spec = workload("tera-fat").unwrap();
        let tamper = |i: usize, data: &mut Vec<Vec<TeraRecord>>| {
            if i == 0 {
                data[5][9].payload[40] ^= 0x10;
            }
        };
        let summary =
            run_end_to_end_with(spec, &options("corrupt-payload"), &tera, 0.0, tamper).unwrap();
        assert_eq!(summary.failures.len(), 1, "{:?}", summary.failures);
        assert!(summary.failures[0].contains("payload"), "{:?}", summary.failures);
    }

    #[test]
    fn the_reference_check_agrees_with_verify_global_sort() {
        let spec = workload("u64-fat").unwrap();
        let opts = options("agree");
        let bench = Bench::prepare(spec, &opts, &uniform).unwrap();
        let good = bench.sort(opts.seed, |_| {}).unwrap().outcome.data;
        assert!(bench.check(&good).is_ok() && verify_global_sort(&bench.input, &good).is_ok());
        // A swap across a rank boundary, a duplicated key, a dropped record.
        let mut swapped = good.clone();
        let (a, b) = (swapped[0][0], swapped[1][0]);
        (swapped[0][0], swapped[1][0]) = (b, a);
        let mut duplicated = good.clone();
        duplicated[2][1] = duplicated[2][0];
        let mut dropped = good.clone();
        dropped[4].pop();
        for bad in [swapped, duplicated, dropped] {
            assert!(bench.check(&bad).is_err());
            assert!(verify_global_sort(&bench.input, &bad).is_err());
        }
    }

    #[test]
    fn the_traced_run_fills_every_layer_of_an_in_memory_workload() {
        let spec = workload("u64-wide-skew").unwrap();
        let generate = |shape: Shape, seed: u64| {
            KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(
                shape.ranks,
                shape.per_rank,
                seed,
            )
        };
        let summary = run_traced::<u64>(spec, &options("traced"), &generate).unwrap();
        assert_eq!(summary.failures, Vec::<String>::new());
        let get = |name: &str| summary.metrics.iter().find(|(n, _, _)| *n == name).unwrap().1;
        for m in PER_LAYER {
            let value = get(m.name);
            assert!(value.is_finite(), "{} = {value}", m.name);
            // Only the layers an in-memory sort never enters report 0.
            let idle = m.name.starts_with("extsort.") || m.name == "sim.disk_words";
            assert_eq!(value == 0.0, idle, "{} = {value}", m.name);
        }
        assert!(get("trace.coverage") > 0.5 && get("trace.coverage") <= 1.0);
        assert!(summary.trace_json.unwrap().contains("core.determine_splitters"));
    }

    #[test]
    fn the_traced_run_fills_the_extsort_layer_when_spilling() {
        let spec = workload("u64-spill").unwrap();
        let summary = run_traced::<u64>(spec, &options("traced-spill"), &uniform).unwrap();
        assert_eq!(summary.failures, Vec::<String>::new());
        let get = |name: &str| summary.metrics.iter().find(|(n, _, _)| *n == name).unwrap().1;
        for m in PER_LAYER.iter().filter(|m| m.name.starts_with("extsort.")) {
            assert!(get(m.name) > 0.0, "{} = {}", m.name, get(m.name));
        }
        assert!(get("sim.disk_words") > 0.0);
    }
}
