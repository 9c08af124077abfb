//! Criterion micro-benchmark: splitter determination cost of HSS (one
//! round, two rounds, constant oversampling) versus the sample-gathering
//! phase of sample sort and classic histogram sort, on the same input.
//!
//! This is the measured counterpart of Table 5.1's splitter-determination
//! column: HSS gathers orders of magnitude fewer keys, so its splitter
//! phase is cheaper even though it runs several histogram rounds.
//!
//! `hss/1024x1024-powerlaw` is the repo benchmark's `u64-wide-skew` shape
//! (1024 ranks x 1024 power-law keys, default configuration): the regime
//! where `~5p` probes per round dwarf a rank's keys and splitter
//! determination is the largest layer of a sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hss_baselines::HistogramSortConfig;
use hss_core::{determine_splitters, HssConfig, RoundSchedule, SplitterPolicy};
use hss_keygen::KeyDistribution;
use hss_sim::{CostModel, Machine, Topology};

const P: usize = 64;
const KEYS_PER_RANK: usize = 4_000;
const EPS: f64 = 0.05;

fn sorted_input() -> Vec<Vec<u64>> {
    let mut data = KeyDistribution::Uniform.generate_per_rank(P, KEYS_PER_RANK, 42);
    for v in &mut data {
        v.sort_unstable();
    }
    data
}

fn bench_splitter_determination(c: &mut Criterion) {
    let data = sorted_input();
    let mut group = c.benchmark_group("splitter_determination");
    group.sample_size(10);

    let hss_configs = [
        ("hss_one_round", RoundSchedule::Theoretical { rounds: 1 }),
        ("hss_two_rounds", RoundSchedule::Theoretical { rounds: 2 }),
        (
            "hss_constant_oversampling",
            RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
        ),
    ];
    for (name, schedule) in hss_configs {
        let config = HssConfig { epsilon: EPS, schedule, ..HssConfig::default() };
        group.bench_function(BenchmarkId::new("hss", name), |b| {
            b.iter(|| {
                let mut machine = Machine::flat(P);
                determine_splitters(&mut machine, &data, P, &config)
            })
        });
    }

    let (wide_p, wide_n) = (1024, 1024);
    let mut wide = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(wide_p, wide_n, 301);
    wide.iter_mut().for_each(|rank| rank.sort_unstable());
    group.bench_function(BenchmarkId::new("hss", "1024x1024-powerlaw"), |b| {
        let config = HssConfig::default().with_seed(301);
        b.iter(|| {
            let mut machine = Machine::new(Topology::new(wide_p, 16), CostModel::bluegene_like());
            determine_splitters(&mut machine, &wide, wide_p, &config)
        })
    });

    group.bench_function(BenchmarkId::new("baseline", "classic_histogram_sort"), |b| {
        let cfg = HistogramSortConfig::new(EPS, P);
        b.iter(|| {
            let mut machine = Machine::flat(P);
            let mut slices: Vec<&[u64]> = data.iter().map(Vec::as_slice).collect();
            let mut sources: Vec<&mut &[u64]> = slices.iter_mut().collect();
            cfg.splitters(&mut machine, &mut sources, P, |_, _| {})
        })
    });

    group.finish();
}

criterion_group!(benches, bench_splitter_determination);
criterion_main!(benches);
