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
//!    the node's cores entirely in shared memory, using sample sort with
//!    regular sampling (§6.1.2 "final within node sorting"), which injects
//!    no network traffic.
//!
//! Steps 1 and 2 are the pipeline's node-bucket granularity
//! (`pipeline.rs`): `n` buckets, each owned by its node's leader,
//! moved by whichever schedule the machine's sync model selects.  This
//! module is step 3, the finish at the owner.  The re-split reads the
//! leader's received runs as slices — no per-run clones anywhere on the
//! path.

use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{regular_sample, Received, SplitterSet};
use hss_sim::{CostModel, Machine, Phase, Work};

use crate::config::HssConfig;
use crate::pipeline::Residency;

/// The node-bucket finish: every node leader re-splits the sorted runs it
/// `received` among its node's cores, entirely in shared memory.  Returns
/// the per-rank output; the slowest node's work is charged to
/// [`Phase::NodeLocalSort`], and so — on the disk channel — is the traffic
/// of any core the `residency` made merge through disk.
pub(crate) fn finish_within_nodes<T: Keyed + RadixSortable>(
    machine: &mut Machine,
    received: &Received<'_, T>,
    config: &HssConfig,
    residency: &impl Residency<T>,
) -> Vec<Vec<T>>
where
    T::K: RadixSortable,
{
    let topo = machine.topology();
    let within_eps = config.within_node_epsilon;
    let local_sort = config.local_sort;
    // Each node leader re-splits its runs; the slowest node's work is the
    // charge.
    let nodes = &mut vec![(); topo.nodes()];
    let per_node = machine.modelled_step(Phase::NodeLocalSort, nodes, |node, _| {
        let mut runs = received.runs_at(topo.leader_of(node));
        runs.retain(|r| !r.is_empty());
        let cores = topo.node_size(node);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let (chunks, ops) = split_within_node(&runs, cores, within_eps, local_sort, residency);
        (chunks, ops + CostModel::merge_ops(total as u64, cores.max(1) as u64))
    });

    // Assemble the per-rank output.
    let mut output: Vec<Vec<T>> = (0..topo.ranks()).map(|_| Vec::new()).collect();
    let mut spills = vec![Work::none(); topo.ranks()];
    for (node, chunks) in per_node.into_iter().enumerate() {
        for (core_idx, (chunk, spill)) in chunks.into_iter().enumerate() {
            let rank = topo.ranks_of(node).start + core_idx;
            output[rank] = chunk;
            spills[rank] = spill;
        }
    }
    if spills.iter().any(|&spill| spill != Work::none()) {
        let _: Vec<()> =
            machine.map_phase_mut(Phase::NodeLocalSort, &mut spills, |_rank, spill| ((), *spill));
    }
    output
}

/// Split the sorted runs a node received into `cores` per-core sorted
/// chunks using sample sort with regular sampling, entirely in shared
/// memory.  The runs are read in place (slices into the receive buffer);
/// only the final per-core chunks are materialised, each by the
/// `residency`'s merge.  Returns the per-core chunks, each with what its
/// merge cost beyond comparisons, and the number of compute ops spent.
fn split_within_node<T: Keyed + RadixSortable>(
    runs: &[&[T]],
    cores: usize,
    within_eps: f64,
    local_sort: LocalSortAlgo,
    residency: &impl Residency<T>,
) -> (Vec<(Vec<T>, Work)>, u64)
where
    T::K: RadixSortable,
{
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if cores <= 1 {
        let ops = CostModel::merge_ops(total as u64, runs.len().max(1) as u64);
        return (vec![residency.merge(runs)], ops);
    }
    if total == 0 {
        return ((0..cores).map(|_| (Vec::new(), Work::none())).collect(), 0);
    }

    // Regular sampling with the oversampling ratio `cores / within_eps` of
    // Lemma 4.1.1: `s` evenly spaced keys per run on average, each run
    // sampled in proportion to its length (at least once; never beyond its
    // size) so that the sample's quantiles are the data's whatever the
    // run lengths are.
    let s = ((cores as f64 / within_eps).ceil() as usize).max(cores);
    let mut sample: Vec<T::K> = Vec::new();
    for run in runs {
        let share = (s * runs.len() * run.len()).div_ceil(total);
        sample.extend(regular_sample(run, share.max(1)));
    }
    // The within-node sample sort runs the configured algorithm; the ops
    // charged below stay the comparison-model term (cost convention of
    // `crate::local_sort`).
    local_sort.sort_slice(&mut sample);
    let splitters = SplitterSet::from_sorted_sample(&sample, cores);

    // Partition every run by the within-node splitters and merge per core.
    let mut per_core_runs: Vec<Vec<&[T]>> = (0..cores).map(|_| Vec::new()).collect();
    let mut ops = sample.len() as u64 * (sample.len().max(2) as f64).log2().ceil() as u64;
    for run in runs {
        ops += CostModel::binary_search_ops(splitters.keys().len() as u64, run.len() as u64);
        let bounds = splitters.bucket_boundaries(run);
        for (c, w) in bounds.windows(2).enumerate() {
            let chunk = &run[w[0]..w[1]];
            if !chunk.is_empty() {
                per_core_runs[c].push(chunk);
            }
        }
    }
    let chunks = per_core_runs
        .into_iter()
        .map(|runs| {
            let t: usize = runs.iter().map(|r| r.len()).sum();
            ops += CostModel::merge_ops(t as u64, runs.len().max(1) as u64);
            residency.merge(&runs)
        })
        .collect();
    (chunks, ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_round::HssRounds;
    use crate::pipeline::InMemory;
    use crate::report::SplitterReport;
    use hss_keygen::KeyDistribution;
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

    /// [`split_within_node`] with every merge in memory: the chunks alone.
    fn split(runs: &[&[u64]], cores: usize, within_eps: f64) -> (Vec<Vec<u64>>, u64) {
        let in_memory = InMemory(LocalSortAlgo::Radix);
        let (chunks, ops) =
            split_within_node(runs, cores, within_eps, LocalSortAlgo::Radix, &in_memory);
        (chunks.into_iter().map(|(chunk, _)| chunk).collect(), ops)
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
        let runs: Vec<Vec<u64>> = vec![
            (0..500).map(|i| i * 4).collect(),
            (0..500).map(|i| i * 4 + 1).collect(),
            (0..500).map(|i| i * 4 + 2).collect(),
        ];
        let run_slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let (chunks, _ops) = split(&run_slices, 4, 0.05);
        assert_eq!(chunks.len(), 4);
        // Concatenation is sorted.
        let flat: Vec<u64> = chunks.iter().flatten().copied().collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(flat.len(), 1500);
        // Every core holds a reasonable share.
        let lb = LoadBalance::from_rank_data(&chunks);
        assert!(lb.satisfies(0.10), "within-node imbalance {}", lb.imbalance);
    }

    #[test]
    fn split_within_node_balances_runs_of_unequal_length() {
        // What a node leader receives when an already partitioned keyspace
        // is re-sorted: one long run spanning the bucket and a few short
        // ones crowded at its low end.  Sampled equally per run, three
        // quarters of the sample would come from 3 % of the keys.
        let eps = 0.05;
        let runs: Vec<Vec<u64>> = vec![
            (0..10_000).map(|i| i * 100).collect(),
            (0..100).map(|i| i * 3).collect(),
            (0..100).map(|i| i * 3 + 1).collect(),
            (0..100).map(|i| i * 3 + 2).collect(),
        ];
        let run_slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let (chunks, _ops) = split(&run_slices, 4, eps);
        let flat: Vec<u64> = chunks.iter().flatten().copied().collect();
        assert!(flat.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(flat.len(), 10_300);
        let lb = LoadBalance::from_rank_data(&chunks);
        assert!(lb.satisfies(eps), "within-node imbalance {}", lb.imbalance);
    }

    #[test]
    fn split_within_single_core_just_merges() {
        let (chunks, _ops) = split(&[&[3u64, 6][..], &[1, 9][..]], 1, 0.05);
        assert_eq!(chunks, vec![vec![1, 3, 6, 9]]);
    }

    #[test]
    fn split_within_node_empty_input() {
        let (chunks, ops) = split(&[], 4, 0.05);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.is_empty()));
        assert_eq!(ops, 0);
    }

    #[test]
    fn node_level_sort_is_correct_and_balanced() {
        let p = 32;
        let topo = Topology::new(p, 8); // 4 nodes
        let data = sorted_input(p, 1500, 99);
        let mut machine = Machine::new(topo, Cm::bluegene_like());
        let config = HssConfig { epsilon: 0.05, within_node_epsilon: 0.05, ..HssConfig::default() };
        let (out, report) = node_level_sort(&mut machine, &data, &config);
        verify_global_sort(&data, &out).unwrap();
        assert!(report.all_finalized);
        assert_eq!(report.buckets, 4);
        // Combined node + within-node slack.
        let lb = LoadBalance::from_rank_data(&out);
        assert!(lb.satisfies(0.15), "imbalance {}", lb.imbalance);
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
