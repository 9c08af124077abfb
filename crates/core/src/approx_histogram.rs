//! Approximate histogramming with a representative sample (§3.4).
//!
//! When the per-processor data is huge, answering every histogram round
//! against the full local input costs `O(S log(N/p))` per round.  The paper
//! shows that a *representative sample* of `s = √(2 p ln p)/ε` keys per
//! processor — one uniformly random key from each of `s` equal blocks of the
//! sorted local input (Blelloch-style block sampling) — answers rank queries
//! to within `εN/p` of the true rank w.h.p. (Theorem 3.4.1).  Rank queries
//! against the sample cost `O(S log s)` instead, and the same sample can be
//! reused across rounds, which is what makes the scheme "of independent
//! interest for answering general \[rank\] queries".

use hss_keygen::Keyed;
use hss_partition::sampling::random_block_sample_positions;
use hss_partition::{local_ranks_work, ProbeIndex};
use hss_sim::{Machine, Phase, Work};

use crate::multi_round::SortedSource;

use serde::{Deserialize, Serialize};

/// Per-rank representative sample plus the block size needed to convert
/// sample counts back into rank estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepresentativeSample<K> {
    /// One sampled key per block, sorted.
    samples: Vec<K>,
    /// Number of local keys each sample represents (`N/(p·s)` in the paper;
    /// here exactly `local_len / samples.len()` up to rounding).
    local_len: usize,
}

impl<K: Ord + Copy> RepresentativeSample<K> {
    /// Number of sampled keys held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the sample is empty (empty local data).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Estimated number of *local* keys less than **or equal to** `key`:
    /// `(count of samples <= key) × block size`.
    ///
    /// The `<=` semantics is deliberate and load-bearing: it matches
    /// [`hss_partition::local_ranks_le`], which the distributed estimate
    /// ([`ApproxHistogrammer::estimated_global_ranks`]) and the epoch
    /// service's query API are built on, so the Theorem 3.4.1 `εN/p` bound
    /// applies to `<=`-ranks throughout.  (An earlier revision documented
    /// "strictly below" while counting `<=`; the name now states the
    /// semantics.)
    pub fn estimated_local_rank_le(&self, key: K) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let below_or_equal = self.samples.partition_point(|s| *s <= key);
        below_or_equal as f64 * self.local_len as f64 / self.samples.len() as f64
    }

    /// The sorted sampled keys.
    pub fn samples(&self) -> &[K] {
        &self.samples
    }

    /// Number of local keys the sample represents.
    pub fn local_len(&self) -> usize {
        self.local_len
    }
}

/// The distributed approximate-histogram oracle: builds one representative
/// sample per rank and answers global rank queries from the samples alone.
#[derive(Debug, Clone)]
pub struct ApproxHistogrammer<K> {
    per_rank: Vec<RepresentativeSample<K>>,
}

impl<K: hss_keygen::Key> ApproxHistogrammer<K> {
    /// The per-processor sample size `√(2 p ln p)/ε` prescribed by
    /// Theorem 3.4.1.
    pub fn prescribed_sample_size(ranks: usize, epsilon: f64) -> usize {
        assert!(ranks >= 2, "need at least two ranks");
        assert!(epsilon > 0.0);
        let p = ranks as f64;
        ((2.0 * p * p.ln()).sqrt() / epsilon).ceil() as usize
    }

    /// Build the representative samples: each rank divides its sorted local
    /// data into `sample_size` equal blocks and keeps one uniformly random
    /// key per block.  The blocks are drawn in order from sorted data, so
    /// the sample comes out sorted.  Charged to [`Phase::Sampling`].
    pub fn build<T: Keyed<K = K>>(
        machine: &mut Machine,
        per_rank_sorted: &[Vec<T>],
        sample_size: usize,
        seed: u64,
    ) -> Self {
        let mut sources: Vec<&[T]> = per_rank_sorted.iter().map(Vec::as_slice).collect();
        let mut sources: Vec<&mut &[T]> = sources.iter_mut().collect();
        Self::build_from(machine, &mut sources, sample_size, seed)
    }

    /// [`Self::build`] over any per-rank [`SortedSource`]: the block
    /// positions are drawn here, so a spilled rank keeps the sample an
    /// in-memory rank holding the same keys would keep.
    pub(crate) fn build_from<S: SortedSource<K> + ?Sized>(
        machine: &mut Machine,
        sources: &mut [&mut S],
        sample_size: usize,
        seed: u64,
    ) -> Self {
        // `sample_at`'s superstep: ascending positions of a sorted source
        // read ascending keys.
        let per_rank = machine.map_phase_mut(Phase::Sampling, sources, |rank, source| {
            let local_len = source.len();
            let mut rng = hss_keygen::rank_rng(seed ^ 0x5A5A, rank);
            let positions = random_block_sample_positions(local_len, sample_size, &mut rng);
            let samples = source.keys_at(&positions);
            debug_assert!(samples.windows(2).all(|w| w[0] <= w[1]));
            let work = Work::scan(samples.len()).and(source.take_disk_work());
            (RepresentativeSample { samples, local_len }, work)
        });
        Self { per_rank }
    }

    /// Number of ranks contributing samples.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// The per-rank representative samples (the epoch service gathers these
    /// into its root-side percentile index).
    pub fn per_rank_samples(&self) -> &[RepresentativeSample<K>] {
        &self.per_rank
    }

    /// Total number of sampled keys across all ranks.
    pub fn total_sample_size(&self) -> usize {
        self.per_rank.iter().map(|s| s.len()).sum()
    }

    /// Estimate the global ranks of the *sorted* `queries` using only the
    /// representative samples.  One reduction of `|queries|` partial sums
    /// is charged, just like an ordinary histogramming round but against
    /// the (much smaller) samples.
    ///
    /// The per-rank `<=`-rank counts run through
    /// [`hss_partition::local_ranks_le`]'s three arms over one shared
    /// [`ProbeIndex`] — per-query binary searches when the query set is
    /// small, one merged linear sweep when it is dense relative to the
    /// sample (the usual shape: `~5p` probes against `O(√(p log p)/ε)`
    /// samples) — and the charge is the cost of the strategy actually
    /// executed ([`local_ranks_work`]), mirroring
    /// [`hss_partition::global_ranks`].
    pub fn estimated_global_ranks(&self, machine: &mut Machine, queries: &[K]) -> Vec<f64> {
        self.estimated_global_ranks_in(machine, queries, Phase::Histogramming)
    }

    /// [`Self::estimated_global_ranks`] charged to an explicit `phase` —
    /// the epoch service charges its between-epoch rank queries to
    /// [`Phase::Query`] so splitter-determination and query-serving costs
    /// stay separable in the metrics.
    pub fn estimated_global_ranks_in(
        &self,
        machine: &mut Machine,
        queries: &[K],
        phase: Phase,
    ) -> Vec<f64> {
        // `ProbeIndex::new` is the release-mode sortedness check: the
        // merge-sweep branch of `local_ranks_le` would silently clamp
        // out-of-order queries to the running maximum.
        let index = ProbeIndex::new(queries);
        // Per-rank estimated local ranks (scaled counts) are summed as u64
        // fixed-point values (1/1024 key) so they reuse the integer
        // histogram reduction.  Each rank's estimates are non-decreasing, so
        // it adds their differences and the fused round's prefix sum
        // restores the per-query sums exactly.
        const FIXED: f64 = 1024.0;
        let summed =
            machine.histogram_phase(phase, &self.per_rank, queries.len(), |_rank, sample, acc| {
                let samples = &sample.samples;
                if !samples.is_empty() {
                    let (local_len, sample_len) = (sample.local_len as f64, samples.len() as f64);
                    let mut prev = 0u64;
                    for (slot, below) in acc.iter_mut().zip(index.local_ranks_le(samples)) {
                        let estimate = ((below as f64 * local_len / sample_len) * FIXED) as u64;
                        *slot += estimate - prev;
                        prev = estimate;
                    }
                }
                local_ranks_work(samples.len(), queries.len())
            });
        summed.into_iter().map(|x| x as f64 / FIXED).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::exact_rank;

    fn sorted_input(p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = KeyDistribution::Uniform.generate_per_rank(p, n, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    #[test]
    fn prescribed_sample_size_matches_formula() {
        let s = ApproxHistogrammer::<u64>::prescribed_sample_size(10_000, 0.05);
        let expect = ((2.0 * 10_000f64 * 10_000f64.ln()).sqrt() / 0.05).ceil() as usize;
        assert_eq!(s, expect);
        // O(sqrt(p) log p / eps): tiny compared to N/p for realistic inputs.
        assert!(s < 10_000);
    }

    #[test]
    fn representative_sample_estimates_local_rank() {
        // Keys 0..10 000: each key is its position.
        let mut rng = hss_keygen::rank_rng(3, 0);
        let mut samples = random_block_sample_positions(10_000, 100, &mut rng);
        samples.sort_unstable();
        let rs = RepresentativeSample { samples, local_len: 10_000 };
        // True local rank of 5000 is 5000; block size is 100, so the
        // estimate is within one block of the truth.
        let est = rs.estimated_local_rank_le(5000);
        assert!((est - 5000.0).abs() <= 200.0, "estimate {est}");
    }

    #[test]
    fn empty_local_data_estimates_zero() {
        let rs: RepresentativeSample<u64> = RepresentativeSample { samples: vec![], local_len: 0 };
        assert!(rs.is_empty());
        assert_eq!(rs.estimated_local_rank_le(42), 0.0);
    }

    #[test]
    fn local_rank_counts_less_than_or_equal() {
        // Pin the <= semantics: a key equal to a sample counts that sample.
        let rs = RepresentativeSample { samples: vec![10u64, 20, 30], local_len: 30 };
        assert_eq!(rs.samples(), &[10, 20, 30]);
        assert_eq!(rs.local_len(), 30);
        // Each sample represents local_len / samples.len() = 10 keys.
        assert_eq!(rs.estimated_local_rank_le(9), 0.0);
        assert_eq!(rs.estimated_local_rank_le(10), 10.0, "equal key must be counted");
        assert_eq!(rs.estimated_local_rank_le(19), 10.0);
        assert_eq!(rs.estimated_local_rank_le(20), 20.0, "equal key must be counted");
        assert_eq!(rs.estimated_local_rank_le(30), 30.0);
        assert_eq!(rs.estimated_local_rank_le(u64::MAX), 30.0);
    }

    #[test]
    fn global_rank_estimates_are_within_theorem_bound() {
        // Theorem 3.4.1: with s = sqrt(2 p ln p)/eps the estimate is within
        // eps*N/p of the true rank w.h.p.  Use a generous check (2x) to
        // absorb the finite-size constants.
        let p = 16;
        let n = 5_000;
        let eps = 0.25;
        let data = sorted_input(p, n, 17);
        let total = (p * n) as u64;
        let mut machine = Machine::flat(p);
        let s = ApproxHistogrammer::<u64>::prescribed_sample_size(p, eps);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, s, 99);
        assert_eq!(oracle.ranks(), p);

        let queries: Vec<u64> = (1..8).map(|i| i * (u64::MAX / 8)).collect();
        let estimates = oracle.estimated_global_ranks(&mut machine, &queries);
        let allowed = 2.0 * eps * total as f64 / p as f64;
        for (q, est) in queries.iter().zip(estimates.iter()) {
            let truth = exact_rank(&data, *q) as f64;
            assert!(
                (est - truth).abs() <= allowed,
                "query {q}: estimate {est} vs truth {truth} (allowed {allowed})"
            );
        }
    }

    #[test]
    fn sample_is_much_smaller_than_input() {
        let p = 16;
        let n = 5_000;
        let data = sorted_input(p, n, 23);
        let mut machine = Machine::flat(p);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, 50, 1);
        assert_eq!(oracle.total_sample_size(), p * 50);
        assert!(oracle.total_sample_size() < p * n / 10);
    }
}
