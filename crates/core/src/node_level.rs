//! Node-level partitioning and message combining (§6.1).
//!
//! On clusters with many cores per node it is wasteful to send `p(p−1)`
//! fine-grained messages and to determine `p−1` splitters.  The paper's
//! shared-memory optimisation:
//!
//! 1. data is partitioned across *physical nodes* only — the histogramming
//!    phase determines `n−1` splitters instead of `p−1`, shrinking the
//!    histogram and the sample dramatically (the §6.1.1 example: 250 MB →
//!    12 MB on 8K BG/Q nodes);
//! 2. all messages travelling between the same pair of nodes are combined,
//!    so the network sees at most `n(n−1)` messages;
//! 3. once a node holds all keys of its bucket, the data is re-split among
//!    the node's cores entirely in shared memory, which injects no network
//!    traffic (§6.1.2 "final within node sorting").  The paper re-splits by
//!    sample sort with regular sampling, to within 5 %; shared memory lets
//!    this repository cut exactly instead: core `c` of a node holding `T`
//!    items gets ranks `[c·T/cores, (c+1)·T/cores)` of the node's merge, so
//!    a node's cores differ by at most one item.
//!
//! Steps 1 and 2 are the pipeline's node-bucket granularity
//! (`pipeline.rs`): `n` buckets, each owned by its node's leader,
//! moved by whichever schedule the machine's sync model selects.  This
//! module is step 3, the finish at the owner.  It reads the leader's
//! received runs as slices — no per-run clones anywhere on the path — and
//! finishes the cores with the rank-level kernels: the block re-sort
//! ([`resort_owners`]) where the rank-level finish would re-sort an owner
//! of a core's size, and otherwise a cut by exact multi-sequence selection
//! ([`cut_runs`]) and one merge per core.

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::{cut_runs, finish_arm, resort_owners, FinishArm, Received};
use hss_sim::{CostModel, Machine, Phase, Work};

use crate::pipeline::Residency;

/// The node-bucket finish: every node leader cuts the sorted runs it
/// `received` exactly among its node's cores, entirely in shared memory.
/// Returns the per-rank output.
///
/// A node of `T` items in `k` non-empty runs is charged the same whichever
/// arm finishes it (as the rank-level finish charges a merge): each core's
/// cut found by one binary search in every run, the merge of the runs, and
/// the cores' hand-off, `binary_search_ops((cores − 1)·k, ⌈T/k⌉) +
/// merge_ops(T, k) + merge_ops(T, cores)` — the within-node sample sort's
/// charge without its sort of the sample.  The slowest node's charge is the
/// [`Phase::NodeLocalSort`] superstep's; the disk traffic of any core the
/// `residency` made merge through disk is charged there too.
pub(crate) fn finish_within_nodes<T: Keyed + RadixSortable>(
    machine: &mut Machine,
    received: &Received<'_, T>,
    residency: &impl Residency<T>,
) -> Vec<Vec<T>> {
    let topo = machine.topology();
    let nodes = &mut vec![(); topo.nodes()];
    let per_node = machine.modelled_step(Phase::NodeLocalSort, nodes, |node, _| {
        let mut runs = received.runs_at(topo.leader_of(node));
        runs.retain(|r| !r.is_empty());
        let cores = topo.node_size(node);
        let t = runs.iter().map(|r| r.len() as u64).sum::<u64>();
        let k = runs.len().max(1) as u64;
        let cut = CostModel::binary_search_ops((cores as u64 - 1) * k, t.div_ceil(k));
        let ops = cut + CostModel::merge_ops(t, k) + CostModel::merge_ops(t, cores as u64);
        (split_within_node(&runs, cores, residency), ops)
    });

    // A node's cores are consecutive ranks, so the nodes' chunks in order
    // are the per-rank output.
    let (output, mut spills): (Vec<Vec<T>>, Vec<Work>) = per_node.into_iter().flatten().unzip();
    if spills.iter().any(|&spill| spill != Work::none()) {
        let _: Vec<()> =
            machine.map_phase_mut(Phase::NodeLocalSort, &mut spills, |_rank, spill| ((), *spill));
    }
    output
}

/// Cut the non-empty sorted `runs` a node received exactly among its
/// `cores` ([`core_totals`]) and finish each core's share, with what it
/// cost beyond comparisons.  The arm is the rank-level finish's for an owner
/// of the largest core's size: the block re-sort when `finish_arm` picks it
/// and the `residency` holds such a core in memory, else [`merge_cores`].
/// Both give the same per-core output, bit for bit.
fn split_within_node<T: Keyed + RadixSortable>(
    runs: &[&[T]],
    cores: usize,
    residency: &impl Residency<T>,
) -> Vec<(Vec<T>, Work)> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let (totals, largest) = (core_totals(total, cores), total.div_ceil(cores));
    if residency.in_memory(largest) && finish_arm::<T>(runs.len(), largest) == FinishArm::Resort {
        let chunks = resort_owners(runs.iter().copied(), &totals);
        chunks.into_iter().map(|chunk| (chunk, Work::none())).collect()
    } else {
        merge_cores(runs, &totals, residency)
    }
}

/// Core `c`'s share of a node's `total` items: ranks
/// `[c·total/cores, (c+1)·total/cores)`, so shares differ by at most one.
fn core_totals(total: usize, cores: usize) -> Vec<usize> {
    (0..cores).map(|c| (c + 1) * total / cores - c * total / cores).collect()
}

/// The co-rank arm: cut `runs` at the cores' `totals` by exact
/// multi-sequence selection and merge each core's pieces by the
/// `residency`, which spills a core over its cap.
fn merge_cores<T: Keyed + RadixSortable>(
    runs: &[&[T]],
    totals: &[usize],
    residency: &impl Residency<T>,
) -> Vec<(Vec<T>, Work)> {
    cut_runs(runs, totals).iter().map(|pieces| residency.merge(pieces)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use crate::multi_round::HssRounds;
    use crate::pipeline::InMemory;
    use crate::report::SplitterReport;
    use hss_keygen::{ByteKey, KeyDistribution, TeraRecord};
    use hss_lsort::LocalSortAlgo;
    use hss_partition::{verify_global_sort, LoadBalance};
    use hss_sim::{CostModel as Cm, Topology};

    /// Node buckets through the pipeline, under the machine's schedule.
    fn node_level_sort(
        machine: &mut Machine,
        data: &[Vec<u64>],
        config: &HssConfig,
    ) -> (Vec<Vec<u64>>, SplitterReport) {
        let config = config.clone().with_node_level();
        let in_memory = InMemory(config.local_sort);
        let hss = HssRounds { config: &config, warm: None };
        crate::pipeline::sort(machine, data.to_vec(), &config, &in_memory, &hss, |_, _| {})
    }

    /// [`split_within_node`] with every merge in memory, checked to be the
    /// exact cut: the cores hold the runs' merge, in order, at the
    /// [`core_totals`], which differ by at most one.
    fn split(runs: &[&[u64]], cores: usize) -> Vec<Vec<u64>> {
        let live: Vec<&[u64]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
        let chunks = split_within_node(&live, cores, &InMemory(LocalSortAlgo::Radix));
        assert!(chunks.iter().all(|(_, spill)| *spill == Work::none()));
        let chunks: Vec<Vec<u64>> = chunks.into_iter().map(|(chunk, _)| chunk).collect();
        let mut merged = runs.concat();
        merged.sort_unstable();
        assert_eq!(chunks.concat(), merged);
        let counts: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(counts, core_totals(merged.len(), cores));
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1, "{counts:?}");
        chunks
    }

    fn sorted_input(p: usize, nkeys: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = KeyDistribution::Uniform.generate_per_rank(p, nkeys, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    #[test]
    fn split_within_node_balances_and_sorts() {
        let runs: Vec<Vec<u64>> = (0..3).map(|r| (0..500).map(|i| i * 4 + r).collect()).collect();
        let run_slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        assert_eq!(split(&run_slices, 4).len(), 4);
        // One key at fan-in 16: every cut falls inside it.
        let runs: Vec<Vec<u64>> = (0..16).map(|r| vec![42; 100 + 37 * r]).collect();
        let run_slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        for cores in [3, 4, 16] {
            split(&run_slices, cores);
        }
    }

    #[test]
    fn split_within_node_balances_runs_of_unequal_length() {
        // What a node leader receives when an already partitioned keyspace
        // is re-sorted: one long run spanning the bucket and a few short
        // ones crowded at its low end.
        let mut runs: Vec<Vec<u64>> = vec![(0..10_000).map(|i| i * 100).collect()];
        runs.extend((0..3).map(|r| (0..100).map(|i| i * 3 + r).collect()));
        let run_slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        for cores in [2, 4, 16] {
            split(&run_slices, cores);
        }
    }

    #[test]
    fn split_within_single_core_just_merges() {
        assert_eq!(split(&[&[3u64, 6][..], &[1, 9][..]], 1), vec![vec![1, 3, 6, 9]]);
    }

    #[test]
    fn split_within_node_empty_input() {
        assert!(split(&[], 4).iter().all(|c| c.is_empty()));
        assert_eq!(split(&[&[][..], &[][..]], 3).len(), 3);
        // More cores than items: at most one item each.
        assert_eq!(split(&[&[5u64, 8][..], &[2][..]], 7).concat(), [2, 5, 8]);
    }

    /// The re-sort arm and the co-rank arm, called on the same runs, give
    /// every core the same vector: crumbs at fan-in 1024, long runs at
    /// fan-in 16, and runs of five keys and of one.
    fn assert_arms_agree<T: Keyed + RadixSortable + std::fmt::Debug>(make: impl Fn(u64) -> T) {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |modulus: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        for (k, len, values) in [(1024, 6, 1 << 30), (16, 1400, 1 << 30), (16, 600, 5), (8, 100, 1)]
        {
            let runs: Vec<Vec<T>> = (0..k)
                .map(|_| {
                    let mut run: Vec<T> = (0..next(len)).map(|_| make(next(values))).collect();
                    run.sort();
                    run
                })
                .filter(|run| !run.is_empty())
                .collect();
            let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
            let total = slices.iter().map(|r| r.len()).sum();
            for cores in [1, 4, 16, total + 3] {
                let totals = core_totals(total, cores);
                let merged = merge_cores(&slices, &totals, &InMemory(LocalSortAlgo::Radix));
                let merged: Vec<Vec<T>> = merged.into_iter().map(|(chunk, _)| chunk).collect();
                assert_eq!(resort_owners(slices.iter().copied(), &totals), merged, "k = {k}");
            }
        }
    }

    #[test]
    fn both_arms_give_every_core_the_same_items() {
        assert_arms_agree(|x| x);
        assert_arms_agree(|x| {
            let mut key = [0u8; 10];
            key[2..].copy_from_slice(&x.to_be_bytes());
            TeraRecord::with_derived_payload(ByteKey(key))
        });
    }

    #[test]
    fn node_level_sort_is_correct_and_balanced() {
        let p = 32;
        let topo = Topology::new(p, 8); // 4 nodes
        let data = sorted_input(p, 1500, 99);
        let mut machine = Machine::new(topo, Cm::bluegene_like());
        let config = HssConfig { epsilon: 0.05, ..HssConfig::default() };
        let (out, report) = node_level_sort(&mut machine, &data, &config);
        verify_global_sort(&data, &out).unwrap();
        assert!(report.all_finalized);
        assert_eq!(report.buckets, 4);
        // The node splitters' slack alone: each node is cut exactly.
        let lb = LoadBalance::from_rank_data(&out);
        assert!(lb.satisfies(config.epsilon), "imbalance {}", lb.imbalance);
        // The histogramming phase determined only n-1 = 3 splitters worth of
        // intervals, so its sample is tiny.
        assert!(report.total_sample_size < 1000);
    }

    #[test]
    fn node_level_message_count_is_node_squared() {
        let p = 16;
        let topo = Topology::new(p, 4); // 4 nodes
        let data = sorted_input(p, 800, 5);
        let mut machine = Machine::new(topo, Cm::bluegene_like());
        let config = HssConfig::default();
        let _ = node_level_sort(&mut machine, &data, &config);
        let messages = machine.metrics().phase(Phase::DataExchange).messages;
        // At most n(n-1) = 12 inter-node messages in the exchange.
        assert!(messages <= 12, "saw {messages} messages");
    }

    #[test]
    fn flat_topology_degenerates_gracefully() {
        // cores_per_node = 1 means node-level == rank-level.
        let p = 8;
        let data = sorted_input(p, 400, 21);
        let mut machine = Machine::new(Topology::flat(p), Cm::bluegene_like());
        let (out, report) = node_level_sort(&mut machine, &data, &HssConfig::default());
        verify_global_sort(&data, &out).unwrap();
        assert_eq!(report.buckets, p);
    }
}
