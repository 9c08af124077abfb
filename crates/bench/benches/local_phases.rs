//! Criterion micro-benchmark of the local building blocks: histogram rank
//! queries (binary search vs merge sweep regimes), bucket partitioning,
//! k-way merging and the whole finish superstep, one whole histogramming
//! round (whole ranks, and the windowed rounds after HSS's first), and the
//! three host passes of the paper's regime that walk `p` intervals or peers per rank (the
//! dense interval and bucket sweeps, the node-combined exchange
//! accounting) — the kernels whose costs Table 5.1 composes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hss_keygen::{generate_tera_records_per_rank, KeyDistribution, Record, TeraRecord};
use hss_lsort::RadixSortable;
use hss_partition::{
    exchange, global_ranks, interval_bounds, kway_merge_slices, local_ranks, local_ranks_work,
    merge_received, partition_sorted, resort_owners, ProbeIndex, SplitterSet, WindowSpan, Windows,
};
use hss_sim::{CostModel, ExchangePlan, Machine, Phase, Topology, Work};

fn sorted_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut v = KeyDistribution::Uniform.generate_rank(0, 1, n, seed);
    v.sort_unstable();
    v
}

fn bench_local_phases(c: &mut Criterion) {
    let data = sorted_keys(100_000, 1);
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20);

    // Histogram rank queries: few probes (binary search regime) vs many
    // probes (merge sweep regime).
    for probes in [64usize, 4_096, 65_536] {
        let probe_keys: Vec<u64> =
            (1..=probes as u64).map(|i| i * (u64::MAX / (probes as u64 + 1))).collect();
        group.bench_function(BenchmarkId::new("local_ranks", probes), |b| {
            b.iter(|| local_ranks(&data, &probe_keys))
        });
    }

    // Bucket partitioning by a splitter set.
    for buckets in [16usize, 256, 4096] {
        let splitters = SplitterSet::new(
            (1..buckets as u64).map(|i| i * (u64::MAX / buckets as u64)).collect(),
        );
        group.bench_function(BenchmarkId::new("partition_sorted", buckets), |b| {
            b.iter(|| partition_sorted(&data, &splitters))
        });
    }

    group.finish();
}

/// One merge shape through `kway_merge_slices`.  The runs are borrowed, so
/// an iteration is the merge and its output allocation only.
fn bench_merge_shape<T: RadixSortable>(c: &mut Criterion, shape: &str, runs: &[Vec<T>]) {
    let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
    let total: usize = slices.iter().map(|r| r.len()).sum();
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements(total as u64));
    group.bench_function(BenchmarkId::new("kway_merge", shape), |b| {
        b.iter(|| kway_merge_slices(&slices))
    });
    group.finish();
}

/// The k-way merge at the benchmark's three regimes: `u64-fat`'s 16 long
/// runs per receiver (the pairwise arm) and `tera-fat`'s (the tournament),
/// and `u64-wide-skew`'s ~650 runs of a record or two (the re-sort).
fn bench_kway_merge(c: &mut Criterion) {
    let u64_runs: Vec<Vec<u64>> = (0..16).map(|r| sorted_keys(32_768, r)).collect();
    bench_merge_shape(c, "16x32768-u64", &u64_runs);

    let mut tera_runs: Vec<Vec<TeraRecord>> = generate_tera_records_per_rank(16, 10_000, 1);
    tera_runs.iter_mut().for_each(|run| run.sort_unstable());
    bench_merge_shape(c, "16x10000-tera", &tera_runs);

    let tiny_runs: Vec<Vec<u64>> = (0..650).map(|r| sorted_keys(2, r)).collect();
    bench_merge_shape(c, "650x2-u64", &tiny_runs);

    // One owner past the re-sort's 16 384 items: `finish_arm` merges it
    // pairwise, and the `resort_owners` row times the re-sort it turned
    // down.
    let crumb_runs: Vec<Vec<u64>> = (0..650).map(|r| sorted_keys(40, r)).collect();
    bench_merge_shape(c, "650x40-u64", &crumb_runs);
    let slices: Vec<&[u64]> = crumb_runs.iter().map(Vec::as_slice).collect();
    let total = slices.iter().map(|r| r.len()).sum();
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements(total as u64));
    group.bench_function(BenchmarkId::new("resort_owners", "650x40-u64"), |b| {
        b.iter(|| resort_owners(slices.iter().copied(), &[total]))
    });
    group.finish();

    // Four distinct keys: every comparison of the tournament (records are
    // two words) ties on the cached key prefix and falls through to the
    // full record comparison.
    let dup_runs: Vec<Vec<Record>> = (0..16)
        .map(|r| {
            let mut run: Vec<Record> = sorted_keys(32_768, r)
                .into_iter()
                .map(|x| Record { key: x >> 62, payload: x as u32 })
                .collect();
            run.sort_unstable();
            run
        })
        .collect();
    bench_merge_shape(c, "16x32768-record-dups", &dup_runs);
}

/// One full global-rank round (`global_ranks`: every rank counts, the
/// counts are reduced) over `p` sorted ranks of `n` keys against `m` probes
/// drawn from the data, on a fresh machine per iteration.
fn bench_round_shape(
    c: &mut Criterion,
    shape: &str,
    dist: KeyDistribution,
    p: usize,
    n: usize,
    m: usize,
) {
    let mut data = dist.generate_per_rank(p, n, 301);
    data.iter_mut().for_each(|rank| rank.sort_unstable());
    // Evenly spaced keys of every rank, `m` in total.
    let stride = n / m.div_ceil(p);
    let mut probes: Vec<u64> = (0..m).map(|i| data[i % p][(i / p) * stride]).collect();
    probes.sort_unstable();
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements((p * n) as u64));
    group.bench_function(BenchmarkId::new("histogram_round", shape), |b| {
        b.iter(|| global_ranks(&mut Machine::flat(p), &data, &probes, Phase::Histogramming))
    });
    group.finish();
}

/// The histogramming round at the benchmark's two regimes: `u64-wide-skew`
/// (`~5p` probes dwarf the rank, decision-tree arm) and `u64-fat` (a few
/// hundred probes against half a million keys, binary-search arm); then
/// `u64-wide-skew`'s later, windowed rounds.
fn bench_histogram_round(c: &mut Criterion) {
    let powerlaw = KeyDistribution::PowerLaw { gamma: 4.0 };
    bench_round_shape(c, "1024x1024-m5120-powerlaw", powerlaw, 1024, 1024, 5120);
    bench_round_shape(c, "16x524288-m250-uniform", KeyDistribution::Uniform, 16, 524_288, 250);
    // Round 2 (758 windows holding ~37 % of the keys) and round 3 (384
    // windows, ~6 %).
    bench_window_round(c, 758, 4096);
    bench_window_round(c, 384, 13_107);
}

/// `u64-wide-skew`'s input: 1024 sorted ranks of 1024 power-law keys, and
/// all of them sorted.
fn wide_skew_input() -> (Vec<Vec<u64>>, Vec<u64>) {
    let powerlaw = KeyDistribution::PowerLaw { gamma: 4.0 };
    let mut data = powerlaw.generate_per_rank(1024, 1024, 7);
    data.iter_mut().for_each(|rank| rank.sort_unstable());
    let mut all = data.concat();
    all.sort_unstable();
    (data, all)
}

/// `open` disjoint windows around evenly spaced targets, each the
/// `2·(N / width_div)` keys around its target — the narrow windows of a
/// later HSS round.
fn target_windows(all: &[u64], open: usize, width_div: usize) -> Vec<(u64, u64)> {
    let half_width = all.len() / width_div;
    let windows: Vec<(u64, u64)> = (1..=open)
        .map(|i| i * all.len() / (open + 1))
        .map(|at| (all[at - half_width], all[at + half_width]))
        .collect();
    assert!(windows.windows(2).all(|w| w[0].1 < w[1].0), "disjoint windows");
    windows
}

/// One windowed histogramming round at `u64-wide-skew`'s shape: `open`
/// windows ([`target_windows`]) and ~5120 probes spread over their keys.
/// Every rank's spans come from its sampling superstep, so they are found
/// outside the timing; an iteration indexes the probes, counts every
/// rank's window keys on a fresh machine and derives the global ranks.
fn bench_window_round(c: &mut Criterion, open: usize, width_div: usize) {
    let (data, all) = wide_skew_input();
    let bounds = target_windows(&all, open, width_div);
    let ranks_below: Vec<u64> =
        bounds.iter().map(|&(lo, _)| all.partition_point(|&k| k < lo) as u64).collect();
    let inside: Vec<u64> = bounds
        .iter()
        .flat_map(|&(lo, hi)| {
            all[all.partition_point(|&k| k < lo)..all.partition_point(|&k| k <= hi)].iter()
        })
        .copied()
        .collect();
    let mut probes: Vec<u64> = inside.iter().step_by(inside.len() / 5120).copied().collect();
    probes.dedup();
    let windows = Windows { bounds, ranks_below };
    let spans: Vec<Vec<WindowSpan>> = data
        .iter()
        .map(|rank| {
            let bounds = interval_bounds(rank, &windows.bounds).into_iter().enumerate();
            let held = bounds.filter(|(_, (start, end))| start < end);
            held.map(|(window, (start, end))| WindowSpan { window, start, end }).collect()
        })
        .collect();
    let p = data.len();
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements((p * 1024) as u64));
    let shape = format!("1024x1024-w{open}-m{}-powerlaw", probes.len());
    group.bench_function(BenchmarkId::new("histogram_round", shape), |b| {
        b.iter(|| {
            let index = ProbeIndex::windowed(&probes, &windows);
            let phase = Phase::Histogramming;
            let prefix = Machine::flat(p).histogram_phase(phase, &data, probes.len(), {
                let index = &index;
                let (spans, m) = (&spans, probes.len());
                move |rank, local, counts| {
                    index.add_window_counts(local, &spans[rank], counts);
                    local_ranks_work(local.len(), m)
                }
            });
            index.ranks_from_prefix(prefix)
        })
    });
    group.finish();
}

/// The dense sweeps and the exchange accounting at `u64-wide-skew`'s shape
/// (1024 ranks of 1024 power-law keys, 16 cores a node), each over every
/// rank — one rank's data is far more regular than the mix: every rank's
/// interval bounds for 758 open intervals (the narrow windows of a later
/// sampling round, around evenly spaced targets), every rank's bucket
/// boundaries against 1023 splitters, and the node-combined charge of the
/// whole exchange.
fn bench_wide_sweeps(c: &mut Criterion) {
    let (data, all) = wide_skew_input();
    let p = data.len();
    let intervals = target_windows(&all, 758, 4096);
    let splitters = SplitterSet::new((1..p).map(|i| all[i * all.len() / p]).collect());
    let plans: Vec<ExchangePlan> = data
        .iter()
        .map(|rank| ExchangePlan::from_boundaries(&splitters.bucket_boundaries(rank)))
        .collect();

    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements((p * 1024) as u64));
    group.bench_function(BenchmarkId::new("interval_bounds", "1024x1024x758"), |b| {
        b.iter(|| data.iter().map(|rank| interval_bounds(rank, &intervals)).collect::<Vec<_>>())
    });
    group.bench_function(BenchmarkId::new("bucket_boundaries", "1024x1024x1023"), |b| {
        b.iter(|| data.iter().map(|rank| splitters.bucket_boundaries(rank)).collect::<Vec<_>>())
    });
    group.bench_function(BenchmarkId::new("node_combined_accounting", "1024x16"), |b| {
        b.iter(|| {
            let mut machine = Machine::new(Topology::mira(p), CostModel::bluegene_like());
            machine.all_to_allv_flat_node_combined_in_place::<u64>(
                Phase::DataExchange,
                &data,
                &plans,
            );
            machine
        })
    });
    group.finish();
}

/// The whole finish superstep at `u64-wide-skew`'s shape: 1024 owners,
/// each re-sorting ~1024 keys from the ~650 senders that hold some, out of
/// a rank-level exchange planned outside the timing.
fn bench_merge_received(c: &mut Criterion) {
    let (data, all) = wide_skew_input();
    let p = data.len();
    let splitters = SplitterSet::new((1..p).map(|i| all[i * all.len() / p]).collect());
    let owner: Vec<usize> = (0..p).collect();
    let received = exchange(&mut Machine::flat(p), &data, &splitters, &owner);
    let mut group = c.benchmark_group("local_phases");
    group.sample_size(20).throughput(Throughput::Elements(all.len() as u64));
    group.bench_function(BenchmarkId::new("merge_received", "1024x1024-powerlaw"), |b| {
        b.iter(|| {
            merge_received(
                &mut Machine::flat(p),
                &data,
                &received,
                |_| true,
                |runs| (kway_merge_slices(runs), Work::none()),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_local_phases,
    bench_kway_merge,
    bench_merge_received,
    bench_histogram_round,
    bench_wide_sweeps
);
criterion_main!(benches);
