//! The benchmark's contract, as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics with the end-to-end metric
//! each should move.  `BENCHMARK.json` at the repository root is generated
//! from these tables (`--print-benchmark-json`) and a test keeps the two
//! in step.

use hss_repro::keygen::KeyDistribution;
use hss_repro::sim::SyncModel;
use serde::Value;

use crate::json::{obj, text};

/// How long one driver run measures, in seconds (`run_seconds`): long
/// enough for the 40 timed sorts every workload is sized for.
pub const RUN_SECONDS: u64 = 15;
/// Timed sorts a full-size run makes at least; the exact-repeat count
/// metrics are taken over exactly the first this-many sorts.
pub const MIN_TIMED_SORTS: usize = 40;
/// Timed sorts of a `--smoke` run.
pub const SMOKE_TIMED_SORTS: usize = 3;
/// Traced iterations of a `--smoke --trace 1` run.
pub const SMOKE_TRACED_ITERATIONS: usize = 2;
/// Untimed warm-up sorts per set-up.
pub const WARMUP_SORTS: usize = 3;
/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 3;
/// Traced iterations a `--trace 1` run makes at least.
pub const MIN_TRACED_ITERATIONS: usize = 5;
/// The paper's load-balance threshold, `HssConfig::default().epsilon`.
pub const EPSILON: f64 = 0.05;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline by which the metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Whether the value repeats exactly for a fixed `--seed` (a count the
    /// program makes, not a time).
    pub exact: bool,
    /// End-to-end: what is measured.  Per-layer: which end-to-end metric it
    /// should move, on which workload.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
    note: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: Some(bound), exact, note }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    note: &'static str,
) -> MetricSpec {
    MetricSpec { name, unit, better, bound: None, exact, note }
}

use Better::{Higher, Lower};

/// What a user of the sorter sees, per workload.  `failed_fraction` is not
/// listed: it is 0 on every workload by construction and the result line's
/// `attempted` / `failed` / `correct` carry it.
///
/// The bounds come from three sets of ten runs (seeds 1-10, 11-20, 21-30) on the
/// 2-core reference sandbox, whose neighbours make timings drift by several
/// percent over minutes; `README.md` records the spreads.  One bound serves
/// all four workloads, so each is set by the noisiest of them.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("sort_mrec_per_s", "Mrec/s", Higher, 0.20, false, "1e6 records/s over the timed sorts (records x sorts / sum of seconds)"),
    e2e("sort_mb_per_s", "MB/s", Higher, 0.20, false, "1e6 record-bytes/s over the same loop"),
    e2e("sort_s_p50", "s", Lower, 0.20, false, "median wall seconds of one whole sort"),
    e2e("sort_s_p75", "s", Lower, 0.20, false, "75th percentile: the highest with ten of 40 samples beyond it"),
    e2e("setup_s", "s", Lower, 0.25, false, "start-up + median of 3 set-ups (input, reference, scratch dir, 3 warm-up sorts)"),
    e2e("peak_rss_mb", "MiB", Lower, 0.25, false, "VmHWM when the workload exits"),
    e2e("imbalance_max", "ratio", Lower, 0.03, true, "max/avg rank load, worst of the first 40 sorts"),
    e2e("splitter_rounds_mean", "count", Lower, 0.10, true, "histogramming rounds (Table 6.1), mean of the first 40 sorts"),
    e2e("splitter_sample_keys_mean", "count", Lower, 0.08, true, "SplitterReport.total_sample_size, mean of the first 40 sorts"),
    e2e("splitter_comm_words_mean", "words", Lower, 0.08, true, "words charged to sampling + histogramming + splitter broadcast, mean of the first 40 sorts"),
];

const TO_SETUP: &str = "setup_s on all workloads; nothing else";
const TO_LSORT: &str =
    "sort_s_p50 / sort_mrec_per_s on u64-fat (<= 27% of a sort) and tera-fat (<= 62%); no change on u64-wide-skew (3%)";
const TO_MERGE: &str =
    "sort_s_p50 on u64-fat (72%), tera-fat (36%) and, at fan-in ~650, u64-wide-skew (35%)";
const TO_CLASSIFY: &str = "sort_s_p50 on u64-wide-skew only";
const TO_CORE: &str =
    "sort_s_p50 on u64-wide-skew (56%: splitter determination leads there); <= 4% elsewhere";
const TO_CORE_COUNTS: &str = "splitter_*_mean on every workload";
const TO_SIM: &str = "sort_s_p50 on u64-wide-skew (3%) and u64-spill (staged exchange)";
const TO_SIM_COUNTS: &str =
    "no wall-clock metric: simulated quantities, scored against the stopwatch by a later issue";
const TO_EXTSORT: &str =
    "sort_s_p50, sort_mb_per_s, peak_rss_mb on u64-spill only; 0 on the in-memory workloads";
const TO_NOTHING: &str = "nothing: a measured ceiling that explains drift between hosts";
const TO_VALIDITY: &str = "nothing: says whether the per-layer rows describe the timed program";

/// Single layers (layer = crate name), from the traced run.  Every value
/// is the median over the traced iterations unless it is a count.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("keygen.generate_s", "s", Lower, false, TO_SETUP),
    layer("keygen.mrec_per_s", "Mrec/s", Higher, false, TO_SETUP),
    layer("lsort.sort_s", "s", Lower, false, TO_LSORT),
    layer("lsort.mrec_per_s", "Mrec/s", Higher, false, TO_LSORT),
    layer("lsort.frac_of_memcpy", "ratio", Higher, false, TO_LSORT),
    layer("partition.exchange_plan_s", "s", Lower, false, TO_MERGE),
    layer("partition.merge_s", "s", Lower, false, TO_MERGE),
    layer("partition.merge_mrec_per_s", "Mrec/s", Higher, false, TO_MERGE),
    layer("partition.merge_fan_in", "count", Lower, true, TO_MERGE),
    layer("partition.merge_frac_of_memcpy", "ratio", Higher, false, TO_MERGE),
    layer("partition.local_ranks_s", "s", Lower, false, TO_CLASSIFY),
    layer("partition.local_ranks_mprobes_per_s", "Mprobes/s", Higher, false, TO_CLASSIFY),
    layer("partition.tree_classify_mrec_per_s", "Mrec/s", Higher, false, TO_CLASSIFY),
    layer("core.splitters_s", "s", Lower, false, TO_CORE),
    layer("core.sampling_s", "s", Lower, false, TO_CORE),
    layer("core.histogramming_s", "s", Lower, false, TO_CORE),
    layer("core.self_s", "s", Lower, false, TO_CORE),
    layer("core.rounds", "count", Lower, true, TO_CORE_COUNTS),
    layer("core.sample_keys", "count", Lower, true, TO_CORE_COUNTS),
    layer("core.probes", "count", Lower, true, TO_CORE_COUNTS),
    layer("core.splitter_messages", "count", Lower, true, TO_CORE_COUNTS),
    layer("core.splitter_words", "words", Lower, true, TO_CORE_COUNTS),
    layer("sim.exchange_s", "s", Lower, false, TO_SIM),
    layer("sim.exchange_words", "words", Lower, true, TO_SIM_COUNTS),
    layer("sim.exchange_messages", "count", Lower, true, TO_SIM_COUNTS),
    layer("sim.makespan_s", "s", Lower, true, TO_SIM_COUNTS),
    layer("sim.simulated_s", "s", Lower, true, TO_SIM_COUNTS),
    layer("sim.disk_words", "words", Lower, true, TO_SIM_COUNTS),
    layer("extsort.form_runs_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.form_runs_mb_per_s", "MB/s", Higher, false, TO_EXTSORT),
    layer("extsort.form_runs_frac_of_scratch_write", "ratio", Higher, false, TO_EXTSORT),
    layer("extsort.probe_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.probe_read_transfers", "count", Lower, true, TO_EXTSORT),
    layer("extsort.probe_bytes", "B", Lower, true, TO_EXTSORT),
    layer("extsort.keys_at_ranks_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.drain_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.drain_mb_per_s", "MB/s", Higher, false, TO_EXTSORT),
    layer("extsort.merge_spilled_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.bytes_written", "B", Lower, true, TO_EXTSORT),
    layer("extsort.bytes_read", "B", Lower, true, TO_EXTSORT),
    layer("extsort.write_amp", "ratio", Lower, true, TO_EXTSORT),
    layer("extsort.read_transfers", "count", Lower, true, TO_EXTSORT),
    layer("extsort.write_transfers", "count", Lower, true, TO_EXTSORT),
    layer("extsort.runs_formed", "count", Lower, true, TO_EXTSORT),
    layer("extsort.merge_passes", "count", Lower, true, TO_EXTSORT),
    layer("extsort.io_wait_s", "s", Lower, false, TO_EXTSORT),
    layer("extsort.io_wait_fraction", "ratio", Lower, false, TO_EXTSORT),
    layer("host.cpus", "count", Higher, false, TO_NOTHING),
    layer("host.threads", "count", Higher, false, TO_NOTHING),
    layer("host.memcpy_gb_per_s", "GB/s", Higher, false, TO_NOTHING),
    layer("host.scratch_write_mb_per_s", "MB/s", Higher, false, TO_NOTHING),
    layer("host.scratch_read_mb_per_s", "MB/s", Higher, false, TO_NOTHING),
    layer("host.sort_unstable_mrec_per_s", "Mrec/s", Higher, false, TO_NOTHING),
    layer("trace.coverage", "ratio", Higher, false, TO_VALIDITY),
    layer("trace.replay_vs_run", "ratio", Lower, false, TO_VALIDITY),
];

/// What a workload sorts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Records {
    /// Bare `u64` keys drawn from a distribution.
    U64(KeyDistribution),
    /// 100-byte terasort records (`generate_tera_records_per_rank`).
    Tera,
}

/// The shape of one sort: `ranks` simulated ranks of `per_rank` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub ranks: usize,
    pub per_rank: usize,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line on why the workload exists (`BENCHMARK.json`'s `why`).
    pub why: &'static str,
    pub records: Records,
    pub full: Shape,
    /// The `--smoke` shape: 1/16 of the records.
    pub smoke: Shape,
    /// 1 ⇒ rank-level exchange, > 1 ⇒ node-combined.
    pub cores_per_node: usize,
    pub sync: SyncModel,
    /// Sort through `HssSorter::sort_out_of_core` with a memory cap of a
    /// quarter of a rank's input (pipelined, overlapped I/O).
    pub spill: bool,
}

impl WorkloadSpec {
    pub fn shape(&self, smoke: bool) -> Shape {
        if smoke {
            self.smoke
        } else {
            self.full
        }
    }

    pub fn record_bytes(&self) -> usize {
        match self.records {
            Records::U64(_) => 8,
            Records::Tera => 100,
        }
    }
}

/// The four whole-sort workloads.  Sized on the 2-core reference sandbox
/// so one sort takes 0.25–0.3 s and 40 of them fit `RUN_SECONDS`.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "u64-fat",
        why: "16 ranks x 524288 uniform u64, rank-level Bsp: local sort 27% + 16-way merge 72%, splitters < 1%; the data-movement layers do all the work",
        records: Records::U64(KeyDistribution::Uniform),
        full: Shape { ranks: 16, per_rank: 524_288 },
        smoke: Shape { ranks: 16, per_rank: 32_768 },
        cores_per_node: 1,
        sync: SyncModel::Bsp,
        spill: false,
    },
    WorkloadSpec {
        name: "u64-wide-skew",
        why: "1024 ranks x 1024 power-law u64, node-combined Bsp: the paper's regime, splitter determination 56%, merge at fan-in ~650 35%, local sort 3%",
        records: Records::U64(KeyDistribution::PowerLaw { gamma: 4.0 }),
        full: Shape { ranks: 1024, per_rank: 1024 },
        smoke: Shape { ranks: 256, per_rank: 256 },
        cores_per_node: 16,
        sync: SyncModel::Bsp,
        spill: false,
    },
    WorkloadSpec {
        name: "tera-fat",
        why: "16 ranks x 160000 100-byte TeraRecords: u64-fat's layers on wide records (move-by-index local sort 62%, merge 36%), so a u64 gain that costs them shows",
        records: Records::Tera,
        full: Shape { ranks: 16, per_rank: 160_000 },
        smoke: Shape { ranks: 16, per_rank: 10_000 },
        cores_per_node: 1,
        sync: SyncModel::Bsp,
        spill: false,
    },
    WorkloadSpec {
        name: "u64-spill",
        why: "8 ranks x 500000 uniform u64 under a cap of 1/4 rank input, pipelined out-of-core, Overlapped: the only workload that runs extsort and the disk timeline",
        records: Records::U64(KeyDistribution::Uniform),
        full: Shape { ranks: 8, per_rank: 500_000 },
        smoke: Shape { ranks: 8, per_rank: 31_250 },
        cores_per_node: 1,
        sync: SyncModel::Overlapped,
        spill: true,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let metric = |m: &MetricSpec| {
        let mut entries =
            vec![("name", text(m.name)), ("unit", text(m.unit)), ("better", text(m.better.name()))];
        if let Some(bound) = m.bound {
            entries.push(("bound", Value::Float(bound)));
        }
        obj(entries)
    };
    let doc = obj(vec![
        ("command", Value::Array(command.iter().map(|s| text(s)).collect())),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", Value::Array(END_TO_END.iter().map(metric).collect())),
        ("per_layer", Value::Array(PER_LAYER.iter().map(metric).collect())),
    ]);
    let mut out = serde_json::to_string_pretty(&doc).expect("the stub serializer is total");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            let (full, smoke) = (w.full, w.smoke);
            assert_eq!(full.ranks * full.per_rank, 16 * smoke.ranks * smoke.per_rank, "{}", w.name);
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- --print-benchmark-json > BENCHMARK.json"
        );
    }
}
