//! Sequential-vs-parallel differential suite.
//!
//! The simulator's [`Parallelism::Sequential`] mode is the determinism
//! oracle: every sorter, run on every key distribution, must produce
//! *bitwise-identical* per-rank output and *identical* simulated-cost
//! accounting when its local phases execute on a real multi-threaded pool
//! ([`Parallelism::Rayon`]) instead.  These tests force a pool with three
//! OS threads (independent of the host's core count and of
//! `RAYON_NUM_THREADS`) so the parallel side is genuinely parallel even on
//! a single-core CI runner.
//!
//! Matrix: every sorter (HSS, sample sort ×2 sampling methods, classic
//! histogram sort, radix, bitonic, over-partitioning) × 3 key
//! distributions (uniform, power-law skew, duplicate-heavy) × 2 seeds, on
//! a flat machine; plus node-level HSS on 2 nodes × 4 cores under both sync
//! models, so the node finish's shared-memory re-split is on the oracle too.

use std::sync::OnceLock;

use hss_repro::baselines::{
    BitonicSorter, HistogramSortConfig, OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;
use hss_repro::sim::Parallelism;

const RANKS: usize = 8;
const KEYS_PER_RANK: usize = 400;
const SEEDS: [u64; 2] = [2019, 77];
const POOL_THREADS: usize = 3;

/// The shared multi-threaded pool the parallel side runs on.
fn pool() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new().num_threads(POOL_THREADS).build().expect("test pool")
    })
}

/// The three distribution regimes of the matrix: uniform, heavy skew,
/// duplicate-heavy.
fn distributions() -> Vec<KeyDistribution> {
    vec![
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 64 },
    ]
}

/// [`assert_differential_on`] a flat machine.
fn assert_differential<F>(name: &str, sort: F)
where
    F: Fn(&mut Machine, u64, Vec<Vec<u64>>) -> Vec<Vec<u64>> + Send + Sync,
{
    assert_differential_on(name, || Machine::flat(RANKS), sort);
}

/// Run `sort` on `machine()` under Sequential and under Rayon (on a
/// ≥2-thread pool) for the full distribution × seed matrix and assert
/// bitwise-identical per-rank outputs and identical simulated-cost
/// signatures.
fn assert_differential_on<M, F>(name: &str, machine: M, sort: F)
where
    M: Fn() -> Machine + Send + Sync,
    F: Fn(&mut Machine, u64, Vec<Vec<u64>>) -> Vec<Vec<u64>> + Send + Sync,
{
    for dist in distributions() {
        for seed in SEEDS {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, seed);

            let mut seq_machine = machine().with_parallelism(Parallelism::Sequential);
            let seq_out = sort(&mut seq_machine, seed, input.clone());
            let seq_sig = seq_machine.metrics().deterministic_signature();

            let (par_out, par_sig, host_threads) = pool().install(|| {
                // `Machine::new`/`flat` default to Parallelism::Rayon.
                let mut par_machine = machine();
                let out = sort(&mut par_machine, seed, input.clone());
                let sig = par_machine.metrics().deterministic_signature();
                let threads = par_machine.metrics().host_threads();
                (out, sig, threads)
            });

            let ctx = format!("{name}, dist={}, seed={seed}", dist.name());
            assert_eq!(
                host_threads, POOL_THREADS as u64,
                "{ctx}: parallel run did not execute on the multi-threaded pool"
            );
            assert_eq!(seq_out, par_out, "{ctx}: per-rank outputs differ between seq and par");
            assert_eq!(
                seq_sig, par_sig,
                "{ctx}: simulated-cost accounting differs between seq and par"
            );
            // The oracle itself must be a correct global sort.
            verify_global_sort(&input, &seq_out)
                .unwrap_or_else(|e| panic!("{ctx}: sequential oracle output invalid: {e}"));
        }
    }
}

#[test]
fn hss_differential() {
    assert_differential("hss", |machine, seed, input| {
        let config = HssConfig { epsilon: 0.2, ..HssConfig::default() }
            .with_seed(seed)
            .with_duplicate_tagging();
        HssSorter::new(config).sort(machine, input).data
    });
}

#[test]
fn hss_node_level_differential() {
    for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
        let machine =
            || Machine::new(Topology::new(RANKS, 4), CostModel::default()).with_sync_model(sync);
        assert_differential_on(&format!("hss-node-level {sync:?}"), machine, |m, seed, input| {
            let config = HssConfig { epsilon: 0.2, ..HssConfig::default() }
                .with_seed(seed)
                .with_node_level();
            HssSorter::new(config).sort(m, input).data
        });
    }
}

#[test]
fn sample_sort_regular_differential() {
    assert_differential("sample-regular", |machine, _seed, input| {
        SampleSortConfig::regular(0.2).run(machine, SortRequest::new(input)).unwrap().data
    });
}

#[test]
fn sample_sort_random_differential() {
    assert_differential("sample-random", |machine, _seed, input| {
        SampleSortConfig::random(0.2).run(machine, SortRequest::new(input)).unwrap().data
    });
}

#[test]
fn histogram_sort_differential() {
    assert_differential("histogram", |machine, _seed, input| {
        HistogramSortConfig::new(0.2, RANKS).run(machine, SortRequest::new(input)).unwrap().data
    });
}

#[test]
fn radix_differential() {
    assert_differential("radix", |machine, _seed, input| {
        RadixConfig::recommended(RANKS).run(machine, SortRequest::new(input)).unwrap().data
    });
}

#[test]
fn bitonic_differential() {
    assert_differential("bitonic", |machine, _seed, input| {
        BitonicSorter.run(machine, SortRequest::new(input)).unwrap().data
    });
}

#[test]
fn over_partitioning_differential() {
    assert_differential("overpartition", |machine, _seed, input| {
        OverPartitioningConfig::recommended(RANKS)
            .run(machine, SortRequest::new(input))
            .unwrap()
            .data
    });
}
