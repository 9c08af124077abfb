//! Sync-model differential suite: the per-rank [`Timeline`] must reproduce
//! the historical scalar accounting under `SyncModel::Bsp`, and overlapped
//! execution must only ever *reduce* the makespan.
//!
//! Three oracles, for every sorter × key distribution × exchange mode
//! (rank-level or node-combined):
//!
//! 1. **Scalar-accumulator oracle (bitwise).**  Before per-rank timelines,
//!    the simulator kept one scalar: the sum of per-superstep
//!    max-over-ranks charges, in execution order.  That accumulator is
//!    reconstructed here by folding the traced per-superstep charges, and
//!    under `SyncModel::Bsp` the timeline's makespan must equal it **bit
//!    for bit** — a barrier after every superstep makes the clock vector
//!    collapse to exactly that scalar chain.
//! 2. **Registry neutrality (bitwise).**  The sync model must never change
//!    *what* is charged, only *when* clocks advance: running the same
//!    algorithm under Bsp and Overlapped must yield bitwise-identical
//!    `deterministic_signature()`s.  (HSS itself restructures its schedule
//!    under Overlapped, so this oracle applies to every non-HSS sorter;
//!    HSS's Bsp path is pinned by oracle 1.)
//! 3. **Overlap safety.**  Overlapped HSS — rank buckets and node-level
//!    buckets alike — must still produce a correct global sort and keep the
//!    load-balance guarantee; with rank buckets it must never exceed the
//!    Bsp makespan.

use hss_repro::baselines::{
    bitonic_sort, histogram_sort, over_partitioning_sort, radix_partition_sort, sample_sort,
    HistogramSortConfig, OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;
use hss_repro::sim::SyncModel;

const RANKS: usize = 8;
const KEYS_PER_RANK: usize = 300;
const SEED: u64 = 2019;

fn distributions() -> [KeyDistribution; 3] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
    ]
}

/// Rank-level and node-combined machines (the latter routes splitter-based
/// exchanges through the node-combined path).
fn topologies() -> [Topology; 2] {
    [Topology::flat(RANKS), Topology::new(RANKS, 4)]
}

/// Oracle 1: under Bsp, makespan == fold of per-superstep charges, bitwise.
fn assert_bsp_matches_scalar_accumulator(label: &str, machine: &Machine) {
    let scalar: f64 = machine.trace().events().iter().fold(0.0, |acc, e| acc + e.simulated_seconds);
    assert_eq!(
        machine.simulated_time().to_bits(),
        scalar.to_bits(),
        "{label}: Bsp makespan {} != scalar accumulator {}",
        machine.simulated_time(),
        scalar
    );
    // The registry's per-phase sum is the same quantity grouped per phase;
    // f64 summation order may differ, so compare with tolerance.
    let registry = machine.metrics().total_simulated_seconds();
    assert!(
        (registry - scalar).abs() <= 1e-9 * scalar.max(1e-30),
        "{label}: registry total {registry} far from scalar {scalar}"
    );
}

/// Oracles 1 + 2 for a sorter that does not branch on the sync model.
fn assert_sync_neutral<T, F>(label: &str, topo: Topology, sorter: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&mut Machine) -> Vec<Vec<T>>,
{
    let mut bsp = Machine::new(topo, CostModel::bluegene_like()).with_tracing();
    let out_bsp = sorter(&mut bsp);
    assert_bsp_matches_scalar_accumulator(label, &bsp);

    let mut ovl = Machine::new(topo, CostModel::bluegene_like())
        .with_sync_model(SyncModel::Overlapped)
        .with_tracing();
    let out_ovl = sorter(&mut ovl);
    assert_eq!(out_bsp, out_ovl, "{label}: per-rank data diverged across sync models");
    assert_eq!(
        bsp.metrics().deterministic_signature(),
        ovl.metrics().deterministic_signature(),
        "{label}: cost signature changed with the sync model"
    );
    // Dropping barriers can only shorten the timeline, never lengthen it.
    assert!(
        ovl.simulated_time() <= bsp.simulated_time() * (1.0 + 1e-12),
        "{label}: overlapped makespan {} above bsp {}",
        ovl.simulated_time(),
        bsp.simulated_time()
    );
}

#[test]
fn hss_bsp_reproduces_scalar_accounting_for_all_engines() {
    for topo in topologies() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("hss/{}/{} cores", dist.name(), topo.cores_per_node());
            let cfg = HssConfig::default().with_seed(SEED);
            let mut bsp = Machine::new(topo, CostModel::bluegene_like()).with_tracing();
            let out = HssSorter::new(cfg).sort(&mut bsp, input.clone());
            verify_global_sort(&input, &out.data).unwrap();
            assert_bsp_matches_scalar_accumulator(&label, &bsp);
            assert_eq!(out.report.sync_model, "bsp");
        }
    }
}

#[test]
fn hss_node_level_bsp_reproduces_scalar_accounting() {
    let topo = Topology::new(16, 4);
    for dist in distributions() {
        let input = dist.generate_per_rank(16, KEYS_PER_RANK, SEED);
        let cfg = HssConfig::paper_cluster().with_seed(SEED);
        let mut bsp = Machine::new(topo, CostModel::bluegene_like()).with_tracing();
        let _ = HssSorter::new(cfg).sort(&mut bsp, input);
        assert_bsp_matches_scalar_accumulator(&format!("hss-node-level/{}", dist.name()), &bsp);
    }
}

#[test]
fn sample_sort_is_sync_model_neutral() {
    for topo in topologies() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            for (name, cfg) in [
                ("regular", SampleSortConfig::regular(0.2)),
                ("random", SampleSortConfig::random(0.2)),
            ] {
                let label = format!("sample-sort-{name}/{}", dist.name());
                assert_sync_neutral(&label, topo, |machine| {
                    sample_sort(machine, &cfg, input.clone()).0
                });
            }
        }
    }
}

#[test]
fn histogram_over_partitioning_radix_bitonic_are_sync_model_neutral() {
    for topo in topologies() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let hist_cfg = HistogramSortConfig::new(0.1, RANKS);
            assert_sync_neutral(&format!("histogram/{}", dist.name()), topo, |machine| {
                histogram_sort(machine, &hist_cfg, input.clone()).0
            });
            let over_cfg = OverPartitioningConfig::recommended(RANKS);
            assert_sync_neutral(&format!("overpartition/{}", dist.name()), topo, |machine| {
                over_partitioning_sort(machine, &over_cfg, input.clone()).0
            });
            let radix_cfg = RadixConfig::recommended(RANKS);
            assert_sync_neutral(&format!("radix/{}", dist.name()), topo, |machine| {
                radix_partition_sort(machine, &radix_cfg, input.clone()).0
            });
            assert_sync_neutral(&format!("bitonic/{}", dist.name()), topo, |machine| {
                bitonic_sort(machine, input.clone(), LocalSortAlgo::default()).0
            });
        }
    }
}

#[test]
fn overlapped_hss_sorts_correctly_and_never_slower_than_bsp() {
    // p = 32 so the α·(p − 1) term of the monolithic exchange is large
    // enough for the staged path's savings to be visible at test sizes;
    // and node buckets staged to the node leaders of a 16 × 4 machine.
    let rank_buckets = (Topology::flat(32), HssConfig::default().with_seed(SEED));
    let node_buckets = (Topology::new(16, 4), HssConfig::paper_cluster().with_seed(SEED));
    for (topo, cfg) in [rank_buckets, node_buckets] {
        for dist in distributions() {
            let label = format!("{}/{} cores", dist.name(), topo.cores_per_node());
            let input = dist.generate_per_rank(topo.ranks(), 800, SEED);

            let mut bsp = Machine::new(topo, CostModel::bluegene_like());
            let bsp_out = HssSorter::new(cfg.clone()).sort(&mut bsp, input.clone());

            let mut ovl = Machine::new(topo, CostModel::bluegene_like())
                .with_sync_model(SyncModel::Overlapped);
            let ovl_out = HssSorter::new(cfg.clone()).sort(&mut ovl, input.clone());

            verify_global_sort(&input, &ovl_out.data).unwrap();
            assert_eq!(ovl_out.report.sync_model, "overlapped");
            let algorithm = if cfg.node_level { "hss-node-level" } else { "hss" };
            assert_eq!(ovl_out.report.algorithm, algorithm);
            assert!(ovl.metrics().phase(Phase::DataExchange).messages > 0, "{label}: no stage");
            // Frozen splitters are within the finalization tolerance, so the
            // (1 + ε) guarantee carries over to the staged partition — plus
            // the within-node ε for node buckets.  (Duplicate-heavy inputs
            // cannot balance untagged.)
            let slack = cfg.epsilon + if cfg.node_level { cfg.within_node_epsilon } else { 0.0 };
            if dist.name() != "few_distinct" {
                assert!(ovl_out.report.splitters.as_ref().unwrap().all_finalized, "{label}");
                let imbalance = ovl_out.report.imbalance();
                assert!(ovl_out.report.satisfies(slack), "{label}: {imbalance} above {slack}");
            }
            // Stages are rank-level messages, so with node buckets this
            // schedule gives up the §6.1.1 per-node combining the Bsp
            // exchange gets: the makespan claim is for rank buckets.
            if !cfg.node_level {
                assert!(
                    ovl_out.report.makespan_seconds
                        <= bsp_out.report.makespan_seconds * (1.0 + 1e-12),
                    "{label}: overlapped {} above bsp {}",
                    ovl_out.report.makespan_seconds,
                    bsp_out.report.makespan_seconds
                );
            }
            // Same keys end up in the output even though frozen splitters may
            // partition them slightly differently than the Bsp path.
            let mut a: Vec<u64> = bsp_out.data.into_iter().flatten().collect();
            let mut b: Vec<u64> = ovl_out.data.into_iter().flatten().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{label}: key multiset diverged");
        }
    }
}

#[test]
fn overlapped_hss_strictly_faster_on_skewed_input_at_p_32() {
    // The tentpole claim at integration-test scale: enough keys per rank
    // that the exchange matters, skewed input, p >= 32.
    let p = 32;
    let input = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(p, 4_000, SEED);
    let cfg = HssConfig::default().with_seed(SEED);

    let mut bsp = Machine::flat(p);
    let bsp_out = HssSorter::new(cfg.clone()).sort(&mut bsp, input.clone());
    let mut ovl = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
    let ovl_out = HssSorter::new(cfg).sort(&mut ovl, input);

    assert!(
        ovl_out.report.makespan_seconds < bsp_out.report.makespan_seconds,
        "overlapped {} not strictly below bsp {}",
        ovl_out.report.makespan_seconds,
        bsp_out.report.makespan_seconds
    );
    // The load-balance guarantee survives splitter freezing.
    assert!(ovl_out.report.satisfies(0.1), "imbalance {}", ovl_out.report.imbalance());
}
