//! Parallel sorting by over-partitioning (Li & Sevcik, §4.2), adapted to the
//! distributed-memory setting.
//!
//! The original algorithm samples `p·k·s` keys, sorts them centrally and
//! picks `p·k − 1` splitters, producing `k` times more buckets than
//! processors; the buckets then form a task queue that shared-memory
//! processors drain largest-first.  A task queue does not translate directly
//! to a distributed cluster (the paper makes the same observation), so this
//! adaptation keeps the over-decomposition idea but assigns *contiguous
//! groups* of buckets to processors, greedily equalising the estimated group
//! loads; the group boundaries then act as ordinary splitters and the rest
//! of the algorithm proceeds like sample sort.

use hss_core::report::SortReport;
use hss_keygen::{rank_rng, Keyed};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{random_block_sample, SplitterSet};
use hss_sim::{CostModel, Machine, Phase, Work};

use crate::common::{finish_splitter_sort, local_sort_phase, single_round_report};

/// Configuration of the over-partitioning baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverPartitioningConfig {
    /// Over-partitioning ratio `k` (the paper recommends `log p`).
    pub ratio: usize,
    /// Per-processor, per-bucket oversampling `s`.
    pub oversampling: usize,
    /// Local-sort algorithm for the per-rank sorts (and the root's sample
    /// sort).
    pub local_sort: LocalSortAlgo,
    /// RNG seed for the sampling step.
    pub seed: u64,
}

impl OverPartitioningConfig {
    /// The paper-recommended configuration for `ranks` processors:
    /// `k = log2 p`, `s = 8`.
    pub fn recommended(ranks: usize) -> Self {
        Self {
            ratio: (ranks.max(2) as f64).log2().ceil() as usize,
            oversampling: 8,
            local_sort: LocalSortAlgo::default(),
            seed: 0x0F0F,
        }
    }
}

/// Parallel sorting by over-partitioning, end to end.
pub fn over_partitioning_sort<T>(
    machine: &mut Machine,
    config: &OverPartitioningConfig,
    mut input: Vec<Vec<T>>,
) -> (Vec<Vec<T>>, SortReport)
where
    T: Keyed + Ord + RadixSortable,
    T::K: RadixSortable,
{
    assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
    assert!(config.ratio >= 1 && config.oversampling >= 1);
    let p = machine.ranks();
    let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();
    local_sort_phase(machine, &mut input, config.local_sort);

    // Sampling: each processor contributes ratio * oversampling random keys.
    let per_proc = config.ratio * config.oversampling;
    let seed = config.seed;
    let samples: Vec<Vec<T::K>> = machine.map_phase(Phase::Sampling, &input, |rank, local| {
        let mut rng = rank_rng(seed, rank);
        let s = random_block_sample(local, per_proc, &mut rng);
        let w = Work::scan(s.len());
        (s, w)
    });
    let mut sample = machine.gather_to_root(Phase::Sampling, samples);
    let sample_size = sample.len();
    machine.charge_modelled_compute(Phase::Histogramming, CostModel::sort_ops(sample_size as u64));
    config.local_sort.sort_slice(&mut sample);

    // Over-decomposition: p*k buckets via p*k - 1 candidate splitters.
    let bucket_count = p * config.ratio;
    let candidates = SplitterSet::from_sorted_sample(&sample, bucket_count);

    // Estimate bucket loads from the sample itself and group contiguous
    // buckets into p groups of roughly equal estimated load.
    let est_loads = estimate_bucket_loads(&sample, &candidates);
    let group_boundaries = group_contiguously(&est_loads, p);
    let final_splitters: Vec<T::K> =
        group_boundaries.iter().map(|&b| candidates.keys()[b - 1]).collect();
    let splitters = SplitterSet::new(final_splitters);

    let tolerance = hss_core::theory::rank_tolerance(total_keys, p, 0.05);
    let report = single_round_report(p, total_keys, tolerance, sample_size);
    finish_splitter_sort(
        machine,
        "over-partitioning",
        &input,
        &splitters,
        report,
        config.local_sort,
    )
}

/// Number of sample keys falling in each candidate bucket.
fn estimate_bucket_loads<K: hss_keygen::Key>(
    sorted_sample: &[K],
    candidates: &SplitterSet<K>,
) -> Vec<u64> {
    hss_partition::bucket_counts(sorted_sample, candidates)
}

/// Split `loads` into `groups` contiguous groups with roughly equal sums;
/// returns the `groups - 1` boundary indices (in buckets).
fn group_contiguously(loads: &[u64], groups: usize) -> Vec<usize> {
    let total: u64 = loads.iter().sum();
    let mut boundaries = Vec::with_capacity(groups.saturating_sub(1));
    let mut acc = 0u64;
    let mut next_target = 1u64;
    for (i, &l) in loads.iter().enumerate() {
        acc += l;
        while boundaries.len() < groups - 1
            && acc * groups as u64 >= next_target * total.max(1)
            && i + 1 < loads.len()
        {
            boundaries.push(i + 1);
            next_target += 1;
        }
    }
    // Pad in the degenerate case (load concentrated in the last bucket or
    // fewer buckets than groups); boundaries stay within 1..loads.len()-1 so
    // they always index a candidate splitter.
    while boundaries.len() < groups - 1 {
        boundaries.push(loads.len().saturating_sub(1).max(1));
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;

    #[test]
    fn group_contiguously_balances_uniform_loads() {
        let loads = vec![10u64; 16];
        let b = group_contiguously(&loads, 4);
        assert_eq!(b, vec![4, 8, 12]);
    }

    #[test]
    fn group_contiguously_handles_skewed_loads() {
        let loads = vec![100u64, 1, 1, 1, 1, 1, 1, 1];
        let b = group_contiguously(&loads, 4);
        assert_eq!(b.len(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn over_partitioning_sorts_uniform_input() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 1200, 3);
        let mut machine = Machine::flat(p);
        let cfg = OverPartitioningConfig::recommended(p);
        let (out, report) = over_partitioning_sort(&mut machine, &cfg, input.clone());
        verify_global_sort(&input, &out).unwrap();
        // Over-decomposition with k = log p and modest oversampling gives a
        // loose balance guarantee; accept a generous threshold.
        assert!(report.load_balance.satisfies(0.5), "imbalance {}", report.imbalance());
        assert_eq!(report.algorithm, "over-partitioning");
    }

    #[test]
    fn over_partitioning_sorts_skewed_input() {
        let p = 8;
        let input = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(p, 1200, 5);
        let mut machine = Machine::flat(p);
        let cfg = OverPartitioningConfig::recommended(p);
        let (out, _report) = over_partitioning_sort(&mut machine, &cfg, input.clone());
        verify_global_sort(&input, &out).unwrap();
    }
}
