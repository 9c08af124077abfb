//! Radix-vs-comparison local-sort differential suite.
//!
//! The in-place MSD radix sort (`LocalSortAlgo::Radix`, the default) must
//! be indistinguishable from `sort_unstable` (`LocalSortAlgo::Comparison`)
//! in everything but host-side speed.  For every sorter × key distribution
//! × exchange engine × sync model, at 1 and 4 pool threads:
//!
//! * **bitwise-identical per-rank output** — both algorithms realise the
//!   same total order, and equal items are indistinguishable, so the
//!   sorted arrays must match exactly;
//! * **identical `deterministic_signature()` outside the local-sort
//!   phases** — the sorted data drives everything downstream (samples,
//!   probes, splitters, exchange, merge), so sampling, histogramming,
//!   broadcast, exchange and merge charges must agree bit for bit.  The
//!   `local_sort` / `node_local_sort` entries legitimately differ: the
//!   sim charges `Work::sort` vs `Work::radix_sort` by design;
//! * **thread-count-independent signatures** — for each algorithm the
//!   1-thread and 4-thread runs must produce identical signatures *and*
//!   data (the radix blocks are disjoint sub-slices, so the parallel
//!   driver is deterministic).
//!
//! A proptest block additionally fuzzes the radix sorter itself against
//! `sort_unstable` on arbitrary inputs (duplicates, already-sorted,
//! reverse, all-equal, empty, single-element).

use hss_repro::baselines::{
    bitonic_sort_with, histogram_sort_with_engine, over_partitioning_sort_with_engine,
    radix_partition_sort_with_engine, sample_sort_with_engine, HistogramSortConfig,
    OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::lsort::{par_radix_sort, radix_sort};
use hss_repro::partition::{verify_global_sort, ExchangeEngine};
use hss_repro::prelude::*;

use proptest::prelude::*;

const RANKS: usize = 8;
const KEYS_PER_RANK: usize = 300;
const SEED: u64 = 2019;

/// Per-phase signature entries that may differ between the two local-sort
/// algorithms: the phases where the modelled local-sort cost itself lives.
const LOCAL_PHASES: [&str; 2] = ["local_sort", "node_local_sort"];

type Signature = Vec<(&'static str, u64, u64, u64, u64, u64, u64)>;

fn distributions() -> [KeyDistribution; 3] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
    ]
}

fn non_local(sig: &Signature) -> Signature {
    sig.iter().filter(|e| !LOCAL_PHASES.contains(&e.0)).copied().collect()
}

fn local(sig: &Signature) -> Signature {
    sig.iter().filter(|e| LOCAL_PHASES.contains(&e.0)).copied().collect()
}

/// Run `sorter` with both local-sort algorithms, each at 1 and 4 pool
/// threads, on identical fresh machines, and assert the differential
/// contract described in the module docs.
fn assert_algos_agree<T, F>(label: &str, sync: SyncModel, sorter: F)
where
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut Machine, LocalSortAlgo) -> Vec<Vec<T>> + Sync,
{
    let mut runs: Vec<(LocalSortAlgo, usize, Vec<Vec<T>>, Signature)> = Vec::new();
    for algo in [LocalSortAlgo::Comparison, LocalSortAlgo::Radix] {
        for threads in [1usize, 4] {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("test pool");
            let (out, sig) = pool.install(|| {
                let mut machine = Machine::flat(RANKS).with_sync_model(sync);
                let out = sorter(&mut machine, algo);
                (out, machine.metrics().deterministic_signature())
            });
            runs.push((algo, threads, out, sig));
        }
    }
    let (ref_algo, _, ref_data, ref_sig) = &runs[0];
    for (algo, threads, data, sig) in &runs[1..] {
        assert_eq!(
            ref_data, data,
            "{label}: data diverged between {ref_algo:?}/1 thread and {algo:?}/{threads} threads"
        );
        assert_eq!(
            non_local(ref_sig),
            non_local(sig),
            "{label}: non-local-sort signature diverged between \
             {ref_algo:?}/1 thread and {algo:?}/{threads} threads"
        );
        if algo == ref_algo {
            // Same algorithm at different thread counts: the *entire*
            // signature must match, local-sort phases included.
            assert_eq!(
                ref_sig, sig,
                "{label}: {algo:?} signature changed with pool threads ({threads})"
            );
        }
    }
    // Radix and comparison are modelled differently, so whenever a local
    // sort phase was charged at all, the local entries must differ.
    let radix_run = runs.iter().find(|(a, ..)| *a == LocalSortAlgo::Radix).unwrap();
    if !local(ref_sig).is_empty() {
        assert_ne!(
            local(ref_sig),
            local(&radix_run.3),
            "{label}: local-sort charges unexpectedly identical across algorithms"
        );
    }
}

fn sync_models() -> [SyncModel; 2] {
    [SyncModel::Bsp, SyncModel::Overlapped]
}

#[test]
fn hss_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                let label = format!("hss/{:?}/{:?}/{}", sync, engine, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    let cfg = HssConfig::default()
                        .with_seed(SEED)
                        .with_exchange_engine(engine)
                        .with_local_sort(algo);
                    let out = HssSorter::new(cfg).sort(machine, input.clone());
                    verify_global_sort(&input, &out.data).unwrap();
                    assert_eq!(out.report.local_sort, algo.name());
                    out.data
                });
            }
        }
    }
}

#[test]
fn hss_with_duplicate_tagging_agrees() {
    // Tagged items radix-sort by their (key, pe, index) digit string; the
    // FewDistinct input makes the tag bytes do the real work.
    let input =
        KeyDistribution::FewDistinct { distinct: 3 }.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
    for sync in sync_models() {
        assert_algos_agree(&format!("hss-tagged/{sync:?}"), sync, |machine, algo| {
            let cfg =
                HssConfig::default().with_seed(SEED).with_duplicate_tagging().with_local_sort(algo);
            HssSorter::new(cfg).sort(machine, input.clone()).data
        });
    }
}

#[test]
fn hss_records_agree() {
    // Key + payload records: the payload participates in the order (and in
    // the radix digit string).
    let input = KeyDistribution::Uniform.generate_records_per_rank(RANKS, KEYS_PER_RANK, SEED);
    for sync in sync_models() {
        assert_algos_agree(&format!("hss-records/{sync:?}"), sync, |machine, algo| {
            let cfg = HssConfig::default().with_seed(SEED).with_local_sort(algo);
            HssSorter::new(cfg).sort(machine, input.clone()).data
        });
    }
}

#[test]
fn sample_sort_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                for (name, base) in [
                    ("regular", SampleSortConfig::regular(0.2)),
                    ("random", SampleSortConfig::random(0.2)),
                ] {
                    let label = format!("sample-{name}/{:?}/{:?}/{}", sync, engine, dist.name());
                    assert_algos_agree(&label, sync, |machine, algo| {
                        let cfg = SampleSortConfig { local_sort: algo, ..base };
                        sample_sort_with_engine(machine, &cfg, input.clone(), engine).0
                    });
                }
            }
        }
    }
}

#[test]
fn histogram_sort_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                let label = format!("histogram/{:?}/{:?}/{}", sync, engine, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    let mut cfg = HistogramSortConfig::new(0.1, RANKS);
                    cfg.local_sort = algo;
                    histogram_sort_with_engine(machine, &cfg, input.clone(), engine).0
                });
            }
        }
    }
}

#[test]
fn over_partitioning_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                let label = format!("overpartition/{:?}/{:?}/{}", sync, engine, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    let mut cfg = OverPartitioningConfig::recommended(RANKS);
                    cfg.local_sort = algo;
                    over_partitioning_sort_with_engine(machine, &cfg, input.clone(), engine).0
                });
            }
        }
    }
}

#[test]
fn radix_partition_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                let label = format!("radix-partition/{:?}/{:?}/{}", sync, engine, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    let mut cfg = RadixConfig::recommended(RANKS);
                    cfg.local_sort = algo;
                    radix_partition_sort_with_engine(machine, &cfg, input.clone(), engine).0
                });
            }
        }
    }
}

#[test]
fn bitonic_radix_and_comparison_agree() {
    for sync in sync_models() {
        for engine in [ExchangeEngine::Flat, ExchangeEngine::Nested] {
            for dist in distributions() {
                let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
                let label = format!("bitonic/{:?}/{:?}/{}", sync, engine, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    bitonic_sort_with(machine, input.clone(), engine, algo).0
                });
            }
        }
    }
}

#[test]
fn node_level_radix_and_comparison_agree() {
    // Node-level partitioning (within-node sample sort included), under
    // both schedules.
    let topo = Topology::new(16, 4);
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(16, KEYS_PER_RANK, SEED);
            let label = format!("node-level/{:?}/{}", sync, dist.name());
            let mut runs = Vec::new();
            for algo in [LocalSortAlgo::Comparison, LocalSortAlgo::Radix] {
                let mut machine =
                    Machine::new(topo, CostModel::bluegene_like()).with_sync_model(sync);
                let cfg = HssConfig::paper_cluster().with_seed(SEED).with_local_sort(algo);
                let out = HssSorter::new(cfg).sort(&mut machine, input.clone());
                runs.push((out.data, machine.metrics().deterministic_signature()));
            }
            assert_eq!(runs[0].0, runs[1].0, "{label}: data diverged");
            assert_eq!(
                non_local(&runs[0].1),
                non_local(&runs[1].1),
                "{label}: non-local signature diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based coverage of the radix sorter itself
// ---------------------------------------------------------------------------

/// `radix_sort` must match `sort_unstable` exactly.
fn assert_radix_matches(mut v: Vec<u64>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    radix_sort(&mut v);
    assert_eq!(v, expect);
}

proptest! {
    #[test]
    fn radix_sorts_arbitrary_u64(v in proptest::collection::vec(any::<u64>(), 0..600)) {
        assert_radix_matches(v);
    }

    #[test]
    fn radix_sorts_duplicate_heavy(v in proptest::collection::vec(0u64..8, 0..600)) {
        assert_radix_matches(v);
    }

    #[test]
    fn radix_sorts_narrow_band(v in proptest::collection::vec(1_000_000u64..1_000_256, 0..600)) {
        // All keys share the top seven bytes: exercises prefix skipping.
        assert_radix_matches(v);
    }

    #[test]
    fn radix_sorts_presorted_and_reversed(mut v in proptest::collection::vec(any::<u64>(), 0..400)) {
        v.sort_unstable();
        assert_radix_matches(v.clone());
        v.reverse();
        assert_radix_matches(v);
    }

    #[test]
    fn par_radix_matches_sequential(v in proptest::collection::vec(any::<u64>(), 0..600)) {
        let mut seq = v.clone();
        radix_sort(&mut seq);
        let mut par = v.clone();
        par_radix_sort(&mut par);
        prop_assert_eq!(seq, par);
    }

    #[test]
    fn radix_sorts_records(
        v in proptest::collection::vec((0u64..16, any::<u32>()), 0..400)
    ) {
        // Heavy key duplication forces the payload bytes to decide.
        let mut recs: Vec<Record> =
            v.into_iter().map(|(key, payload)| Record { key, payload }).collect();
        let mut expect = recs.clone();
        expect.sort_unstable();
        radix_sort(&mut recs);
        prop_assert_eq!(recs, expect);
    }
}

#[test]
fn radix_sorts_explicit_edge_cases() {
    assert_radix_matches(vec![]);
    assert_radix_matches(vec![42]);
    assert_radix_matches(vec![7; 10_000]);
    assert_radix_matches((0..10_000).collect());
    assert_radix_matches((0..10_000).rev().collect());
    assert_radix_matches(vec![u64::MAX, 0, u64::MAX, 0, 1]);
}
