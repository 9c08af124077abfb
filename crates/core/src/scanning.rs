//! The scanning splitter-selection algorithm of Axtmann et al. (§3.2).
//!
//! Given one round of histogramming over a Bernoulli sample (each key kept
//! with probability `2p/(εN)`, i.e. sampling ratio `s = 2/ε`), the scanner
//! walks the sorted sample together with the global ranks and greedily
//! closes a bucket whenever assigning the next sample gap would push the
//! current processor past its capacity `N(1+ε)/p`.  Theorem 3.2.1 shows the
//! leftover assigned to the last processor also stays below the capacity
//! w.h.p.

use hss_keygen::{Key, Keyed};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{global_ranks, sampling, SplitterSet};
use hss_sim::{CostModel, Machine, Phase, Work};

use crate::report::{RoundStats, SplitterReport};

/// Build splitters from one histogram: `probes` are the sorted sampled keys
/// and `ranks[i]` the global rank (number of input keys strictly below) of
/// `probes[i]`.  Buckets are closed greedily at capacity `N(1+ε)/buckets`.
pub fn splitters_from_histogram<K: Key>(
    probes: &[K],
    ranks: &[u64],
    total_keys: u64,
    buckets: usize,
    epsilon: f64,
) -> SplitterSet<K> {
    assert_eq!(probes.len(), ranks.len(), "one rank per probe");
    assert!(buckets >= 1);
    if buckets == 1 {
        return SplitterSet::new(Vec::new());
    }
    let capacity = ((total_keys as f64) * (1.0 + epsilon) / buckets as f64).floor() as u64;
    let capacity = capacity.max(1);
    let mut splitters: Vec<K> = Vec::with_capacity(buckets - 1);
    let mut bucket_start_rank = 0u64;
    let mut i = 0usize;
    while splitters.len() < buckets - 1 && i < probes.len() {
        if ranks[i] - bucket_start_rank > capacity {
            // Scanning past probe i would overload the current processor:
            // close the bucket at the previous probe (the largest one that
            // keeps the load within capacity).  The distance from that probe
            // to the capacity line is the exponentially-distributed deficit
            // r_i of Theorem 3.2.1.
            if i > 0 && ranks[i - 1] > bucket_start_rank {
                splitters.push(probes[i - 1]);
                bucket_start_rank = ranks[i - 1];
                // Re-examine probe i against the new bucket start.
                continue;
            }
            // Degenerate case: a single sample gap exceeds the capacity
            // (only possible when the sample is far too small); close here
            // to keep making progress.
            splitters.push(probes[i]);
            bucket_start_rank = ranks[i];
        }
        i += 1;
    }
    // If fewer than buckets-1 splitters were emitted the remaining buckets
    // stay empty; pad with MAX so the splitter set still defines `buckets`
    // buckets.  (The keys after the last emitted splitter all belong to the
    // next bucket — the "last processor" of Theorem 3.2.1.)
    while splitters.len() < buckets - 1 {
        splitters.push(K::MAX_KEY);
    }
    SplitterSet::new(splitters)
}

/// One-shot splitter determination with the scanning algorithm: Bernoulli
/// sample with ratio `s = 2/ε`, one histogramming round, greedy scan.
///
/// This is the algorithm HSS-with-one-round is compared against in §3.2
/// ("with just one round of histogramming, the scanning algorithm does
/// better and should be used over HSS").
pub fn scanning_splitters<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    buckets: usize,
    epsilon: f64,
    seed: u64,
) -> (SplitterSet<T::K>, SplitterReport)
where
    T::K: RadixSortable,
{
    scanning_splitters_with(
        machine,
        per_rank_sorted,
        buckets,
        epsilon,
        seed,
        LocalSortAlgo::default(),
    )
}

/// [`scanning_splitters`] with an explicit local-sort algorithm for the
/// root's sort of the gathered sample (host-side choice only; the charge
/// stays the comparison-model term, see `crate::local_sort`).
pub fn scanning_splitters_with<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    buckets: usize,
    epsilon: f64,
    seed: u64,
    local_sort: LocalSortAlgo,
) -> (SplitterSet<T::K>, SplitterReport)
where
    T::K: RadixSortable,
{
    assert!(buckets >= 1);
    assert!(epsilon > 0.0);
    let total_keys: u64 = per_rank_sorted.iter().map(|v| v.len() as u64).sum();
    let mut report = SplitterReport {
        buckets,
        total_keys,
        tolerance: crate::theory::rank_tolerance(total_keys, buckets, epsilon),
        rounds: Vec::new(),
        total_sample_size: 0,
        all_finalized: true,
    };
    if buckets == 1 || total_keys == 0 {
        let keys = if buckets <= 1 { Vec::new() } else { vec![T::K::MAX_KEY; buckets - 1] };
        return (SplitterSet::new(keys), report);
    }

    // Theorem 3.2.1: sampling probability ps/N with s = 2/epsilon.
    let probability = ((2.0 * buckets as f64) / (epsilon * total_keys as f64)).min(1.0);
    let per_rank_samples: Vec<Vec<T::K>> =
        machine.map_phase(Phase::Sampling, per_rank_sorted, |rank, local| {
            let mut rng = hss_keygen::rank_rng(seed, rank);
            let sample = sampling::bernoulli_sample(local, probability, &mut rng);
            let work = Work::scan(sample.len());
            (sample, work)
        });
    let mut probes = machine.gather_to_root(Phase::Sampling, per_rank_samples);
    let sample_size = probes.len();
    // The root's sort of the gathered sample is part of the sampling step.
    let ops = CostModel::sort_ops(sample_size as u64);
    machine.modelled_step(Phase::Sampling, std::slice::from_mut(&mut probes), |_, probes| {
        local_sort.sort_slice(probes);
        probes.dedup();
        ((), ops)
    });
    let probe_count = probes.len();

    machine.broadcast(Phase::Histogramming, &probes);
    let ranks = global_ranks(machine, per_rank_sorted, &probes, Phase::Histogramming);

    let splitters = splitters_from_histogram(&probes, &ranks, total_keys, buckets, epsilon);
    machine.broadcast(Phase::SplitterBroadcast, splitters.keys());

    report.total_sample_size = sample_size;
    report.rounds.push(RoundStats {
        round: 1,
        sample_size,
        probe_count,
        open_before: buckets - 1,
        open_after: 0,
        max_interval_width: 0,
        mean_interval_width: 0.0,
        union_rank_size: 0,
        covered_fraction: 0.0,
    });
    (splitters, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::{bucket_counts, LoadBalance};

    fn sorted_input(dist: KeyDistribution, p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = dist.generate_per_rank(p, n, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    fn global_counts(data: &[Vec<u64>], splitters: &SplitterSet<u64>) -> Vec<u64> {
        let mut totals = vec![0u64; splitters.buckets()];
        for local in data {
            for (i, c) in bucket_counts(local, splitters).iter().enumerate() {
                totals[i] += c;
            }
        }
        totals
    }

    #[test]
    fn greedy_scan_respects_capacity_for_all_but_last() {
        // Synthetic histogram: probes every 10 ranks over 1000 keys.
        let probes: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let ranks: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let buckets = 8;
        let eps = 0.1;
        let splitters = splitters_from_histogram(&probes, &ranks, 1000, buckets, eps);
        assert_eq!(splitters.buckets(), buckets);
        let capacity = (1000.0_f64 * 1.1 / 8.0).floor() as u64;
        // Check the induced bucket sizes on the idealised input 0..1000.
        let data: Vec<u64> = (0..1000).collect();
        let counts = bucket_counts(&data, &splitters);
        for (i, &c) in counts.iter().enumerate().take(buckets - 1) {
            assert!(c <= capacity, "bucket {i} holds {c} > capacity {capacity}");
        }
    }

    #[test]
    fn empty_probe_list_pads_with_max() {
        let splitters = splitters_from_histogram::<u64>(&[], &[], 100, 4, 0.1);
        assert_eq!(splitters.buckets(), 4);
        assert!(splitters.keys().iter().all(|&k| k == u64::MAX));
    }

    #[test]
    fn end_to_end_scanning_achieves_load_balance() {
        let p = 16;
        let n = 3000;
        let eps = 0.15;
        let data = sorted_input(KeyDistribution::Uniform, p, n, 77);
        let mut machine = Machine::flat(p);
        let (splitters, report) = scanning_splitters(&mut machine, &data, p, eps, 123);
        let lb = LoadBalance::from_counts(&global_counts(&data, &splitters));
        assert!(
            lb.satisfies(eps),
            "imbalance {} with max {} vs allowed {}",
            lb.imbalance,
            lb.max_keys,
            lb.allowed_max(eps)
        );
        // Sample size should be about 2p/eps = 213 (Theorem 3.2.1), far
        // smaller than regular sampling's p^2/eps.
        assert!(report.total_sample_size < 4 * ((2.0 * p as f64 / eps) as usize));
    }

    #[test]
    fn scanning_works_on_skewed_input() {
        let p = 12;
        let eps = 0.2;
        let data = sorted_input(KeyDistribution::Exponential { scale_frac: 0.001 }, p, 2500, 5);
        let mut machine = Machine::flat(p);
        let (splitters, _report) = scanning_splitters(&mut machine, &data, p, eps, 9);
        let lb = LoadBalance::from_counts(&global_counts(&data, &splitters));
        assert!(lb.satisfies(eps), "imbalance {}", lb.imbalance);
    }

    #[test]
    fn single_bucket_short_circuits() {
        let data = sorted_input(KeyDistribution::Uniform, 4, 100, 1);
        let mut machine = Machine::flat(4);
        let (splitters, report) = scanning_splitters(&mut machine, &data, 1, 0.1, 0);
        assert_eq!(splitters.buckets(), 1);
        assert_eq!(report.total_sample_size, 0);
    }
}
