//! Criterion micro-benchmark: answering rank queries against the full local
//! data (exact histogramming) versus the §3.4 representative sample
//! (approximate histogramming).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hss_core::ApproxHistogrammer;
use hss_keygen::KeyDistribution;
use hss_partition::global_ranks;
use hss_sim::{Machine, Phase};

const P: usize = 32;
const KEYS_PER_RANK: usize = 20_000;
const QUERIES: usize = 256;

fn sorted_input() -> Vec<Vec<u64>> {
    let mut data = KeyDistribution::Uniform.generate_per_rank(P, KEYS_PER_RANK, 5);
    for v in &mut data {
        v.sort_unstable();
    }
    data
}

fn queries() -> Vec<u64> {
    (1..=QUERIES as u64).map(|i| i * (u64::MAX / (QUERIES as u64 + 1))).collect()
}

fn bench_approx_histogram(c: &mut Criterion) {
    let data = sorted_input();
    let qs = queries();
    let mut group = c.benchmark_group("rank_queries");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("histogram", "exact_full_data"), |b| {
        b.iter(|| {
            let mut machine = Machine::flat(P);
            global_ranks(&mut machine, &data, &qs, Phase::Histogramming)
        })
    });

    // Build the representative sample once (it is reused across rounds in
    // the intended use case) and benchmark the query phase.
    let mut machine = Machine::flat(P);
    let sample_size = ApproxHistogrammer::<u64>::prescribed_sample_size(P, 0.05);
    let oracle = ApproxHistogrammer::build(&mut machine, &data, sample_size, 9);
    group.bench_function(BenchmarkId::new("histogram", "approximate_sample"), |b| {
        b.iter(|| {
            let mut machine = Machine::flat(P);
            oracle.estimated_global_ranks(&mut machine, &qs)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_approx_histogram);
criterion_main!(benches);
