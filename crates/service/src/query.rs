//! Root-side percentile index over the representative samples.
//!
//! [`ApproxHistogrammer`] answers *rank of key* directly; percentile is the
//! inverse direction (*key at rank*), which needs the samples of all ranks
//! merged in one place.  [`QueryIndex`] gathers every rank's weighted
//! samples to the root once per epoch (charged like any other gather) and
//! then answers percentile queries with a root-local binary search, charged
//! as a client/root message round-trip.

use hss_core::ApproxHistogrammer;
use hss_keygen::Key;
use hss_sim::{Machine, Phase};

/// Merged, weighted, sorted sample of the whole keyspace, held at the root.
///
/// Each sampled key of rank `i` represents `local_len_i / s_i` keys of that
/// rank's data (the block size of §3.4), so the prefix sums of the weights
/// approximate the global `<=`-rank of each sampled key to within the
/// Theorem 3.4.1 bound.
#[derive(Debug, Clone)]
pub struct QueryIndex<K> {
    /// Merged sample keys, sorted ascending.
    keys: Vec<K>,
    /// `prefix[i]` = estimated number of keys `<= keys[i]`.
    prefix: Vec<f64>,
}

impl<K: Key> QueryIndex<K> {
    /// Gather the oracle's per-rank weighted samples to the root and build
    /// the prefix-sum index.  The gather is charged to `phase` (the service
    /// uses [`Phase::Query`]); the root-local sort and prefix scan are
    /// cheap (`O(S log S)` on `S = Σ sᵢ` sampled keys) and charged as
    /// modelled compute in the same phase.
    pub fn build(machine: &mut Machine, oracle: &ApproxHistogrammer<K>, phase: Phase) -> Self {
        let per_rank: Vec<Vec<(K, f64)>> = oracle
            .per_rank_samples()
            .iter()
            .map(|s| {
                let weight = if s.is_empty() { 0.0 } else { s.local_len() as f64 / s.len() as f64 };
                s.samples().iter().map(|k| (*k, weight)).collect()
            })
            .collect();
        let mut pairs = machine.gather_to_root(phase, per_rank);
        let ops = hss_sim::CostModel::merge_ops(pairs.len() as u64, oracle.ranks().max(2) as u64);
        machine.modelled_step(phase, std::slice::from_mut(&mut pairs), |_, pairs| {
            pairs.sort_unstable_by_key(|&(k, _)| k);
            ((), ops)
        });
        let mut keys = Vec::with_capacity(pairs.len());
        let mut prefix = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (k, w) in pairs {
            acc += w;
            // Collapse duplicate sampled keys into one entry carrying the
            // combined weight, so binary search sees strictly sorted keys.
            if keys.last() == Some(&k) {
                *prefix.last_mut().expect("non-empty") = acc;
            } else {
                keys.push(k);
                prefix.push(acc);
            }
        }
        Self { keys, prefix }
    }

    /// Estimated total number of keys the index covers.
    pub fn total_keys(&self) -> f64 {
        self.prefix.last().copied().unwrap_or(0.0)
    }

    /// Number of distinct sampled keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the index holds no samples (empty keyspace).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The smallest sampled key whose estimated `<=`-rank reaches fraction
    /// `q` of the keyspace (`q` clamped to `[0, 1]`).  Returns `K::MIN_KEY`
    /// on an empty index.
    pub fn key_at_fraction(&self, q: f64) -> K {
        if self.keys.is_empty() {
            return K::MIN_KEY;
        }
        let target = q.clamp(0.0, 1.0) * self.total_keys();
        let idx = self.prefix.partition_point(|&acc| acc < target);
        self.keys[idx.min(self.keys.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_core::ApproxHistogrammer;

    #[test]
    fn percentile_index_tracks_uniform_keyspace() {
        let p = 8;
        let n = 4_000;
        // Rank r holds keys [r*n, (r+1)*n): global rank of key k is exactly k.
        let data: Vec<Vec<u64>> =
            (0..p).map(|r| ((r * n) as u64..((r + 1) * n) as u64).collect()).collect();
        let mut machine = Machine::flat(p);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, 200, 5);
        let index = QueryIndex::build(&mut machine, &oracle, Phase::Query);
        assert_eq!(index.len(), p * 200);
        let total = (p * n) as f64;
        assert!((index.total_keys() - total).abs() < 1.0, "total {}", index.total_keys());
        for q in [0.1, 0.25, 0.5, 0.9] {
            let key = index.key_at_fraction(q) as f64;
            // One block is n/200 = 20 keys; allow a few blocks of slack.
            assert!((key - q * total).abs() <= 200.0, "q={q}: key {key} vs {}", q * total);
        }
    }

    #[test]
    fn empty_index_answers_min_key() {
        let data: Vec<Vec<u64>> = vec![vec![]; 4];
        let mut machine = Machine::flat(4);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, 10, 1);
        let index = QueryIndex::build(&mut machine, &oracle, Phase::Query);
        assert!(index.is_empty());
        assert_eq!(index.key_at_fraction(0.5), 0);
    }

    #[test]
    fn duplicate_samples_collapse_with_combined_weight() {
        let data: Vec<Vec<u64>> = vec![vec![7; 100], vec![7; 100]];
        let mut machine = Machine::flat(2);
        let oracle = ApproxHistogrammer::build(&mut machine, &data, 10, 3);
        let index = QueryIndex::build(&mut machine, &oracle, Phase::Query);
        assert_eq!(index.len(), 1);
        assert!((index.total_keys() - 200.0).abs() < 1e-9);
        assert_eq!(index.key_at_fraction(0.99), 7);
    }
}
