//! The scanning splitter-selection algorithm of Axtmann et al. (§3.2).
//!
//! Given one round of histogramming over a Bernoulli sample (each key kept
//! with probability `2p/(εN)`, i.e. sampling ratio `s = 2/ε`), the scanner
//! walks the sorted sample together with the global ranks and greedily
//! closes a bucket whenever assigning the next sample gap would push the
//! current processor past its capacity `N(1+ε)/p`.  Theorem 3.2.1 shows the
//! leftover assigned to the last processor also stays below the capacity
//! w.h.p.
//!
//! The algorithm is a configuration of the one splitter pipeline:
//! [`SplitterRule::Scanning`](crate::SplitterRule::Scanning) finalizes with
//! [`splitters_from_histogram`], and
//! `RoundSchedule::ConstantOversampling { oversampling: 2.0 / ε, max_rounds: 1 }`
//! samples its one round at exactly `2p/(εN)`.

use hss_keygen::Key;
use hss_partition::SplitterSet;

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

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::{bucket_counts, LoadBalance};
    use hss_sim::Machine;

    use crate::{determine_splitters, HssConfig, RoundSchedule, SplitterRule};

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

    /// The scanning algorithm as a pipeline configuration: one round at
    /// `2/ε` samples per processor, finalized by the greedy scan.
    fn scanning_config(epsilon: f64, seed: u64) -> HssConfig {
        HssConfig {
            epsilon,
            schedule: RoundSchedule::ConstantOversampling {
                oversampling: 2.0 / epsilon,
                max_rounds: 1,
            },
            splitter_rule: SplitterRule::Scanning,
            ..HssConfig::default()
        }
        .with_seed(seed)
    }

    /// Run the scanning configuration once per seed in `seeds` on `data`
    /// and return how many runs miss the `N(1+ε)/p` bound.  In every run
    /// the greedy scan must keep each bucket it closed at a probe within
    /// the capacity (exact global ranks make that deterministic); only the
    /// last non-empty bucket, which takes the keys past the last emitted
    /// splitter, may exceed it.  The sample must stay near `2p/ε`
    /// (Theorem 3.2.1), far below regular sampling's `p²/ε`.
    fn scanning_misses(data: &[Vec<u64>], eps: f64, seeds: std::ops::Range<u64>) -> usize {
        let p = data.len();
        let total: u64 = data.iter().map(|v| v.len() as u64).sum();
        let capacity = (total as f64 * (1.0 + eps) / p as f64).floor() as u64;
        let mut misses = 0;
        for seed in seeds {
            let mut machine = Machine::flat(p);
            let (splitters, report) =
                determine_splitters(&mut machine, data, p, &scanning_config(eps, seed));
            assert_eq!(report.rounds.len(), 1);
            assert!(report.total_sample_size < 4 * ((2.0 * p as f64 / eps) as usize));
            let counts = global_counts(data, &splitters);
            let leftover = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
            for (i, &c) in counts.iter().enumerate().take(leftover) {
                assert!(c <= capacity, "seed {seed}: bucket {i} holds {c} > capacity {capacity}");
            }
            if !LoadBalance::from_counts(&counts).satisfies(eps) {
                misses += 1;
            }
        }
        misses
    }

    // Only the leftover bucket's load is probabilistic (it stays within the
    // capacity w.h.p., failing in about 6 % of runs at these small p), so
    // the load-balance bound is judged over a batch of sampling seeds.

    #[test]
    fn end_to_end_scanning_achieves_load_balance() {
        let data = sorted_input(KeyDistribution::Uniform, 16, 3000, 77);
        let trials = 20;
        let misses = scanning_misses(&data, 0.15, 0..trials);
        assert!(misses <= trials as usize / 4, "{misses}/{trials} runs missed the bound");
    }

    #[test]
    fn scanning_works_on_skewed_input() {
        let data = sorted_input(KeyDistribution::Exponential { scale_frac: 0.001 }, 12, 2500, 5);
        let trials = 20;
        let misses = scanning_misses(&data, 0.2, 0..trials);
        assert!(misses <= trials as usize / 4, "{misses}/{trials} runs missed the bound");
    }

    #[test]
    fn single_bucket_short_circuits() {
        let data = sorted_input(KeyDistribution::Uniform, 4, 100, 1);
        let mut machine = Machine::flat(4);
        let config = HssConfig {
            epsilon: 0.1,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 20.0, max_rounds: 1 },
            splitter_rule: SplitterRule::Scanning,
            ..HssConfig::default()
        };
        let (splitters, report) = determine_splitters(&mut machine, &data, 1, &config);
        assert_eq!(splitters.buckets(), 1);
        assert_eq!(report.total_sample_size, 0);
    }
}
