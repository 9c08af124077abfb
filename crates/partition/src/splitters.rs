//! Splitter sets: the `p - 1` keys that partition the key range into `p`
//! buckets, one per destination processor.
//!
//! All splitter-based algorithms in this repository (HSS and every baseline)
//! produce a [`SplitterSet`]; the data-movement step then only needs
//! [`SplitterSet::bucket_of`] to route keys.  Following the paper (§2.1),
//! bucket `i` owns the key range `[S_i, S_{i+1})` with `S_0 = MIN` and
//! `S_p = MAX`, so a key equal to a splitter goes to the *right* bucket of
//! that splitter.
//!
//! Routing goes through a lazily built, cached
//! [`DecisionTree`] (branch-free implicit
//! heap descends instead of per-key binary searches); the cache is
//! transparent — it never affects equality, serialization or the routing
//! results.

use std::sync::OnceLock;

use hss_keygen::Key;
use serde::{Deserialize, Serialize, Value};

use crate::classify::{classify_strategy, sweep_past, ClassifyStrategy, DecisionTree};

/// A sorted sequence of `buckets - 1` splitter keys partitioning the key
/// space into `buckets` contiguous ranges.
#[derive(Debug, Clone)]
pub struct SplitterSet<K: Key> {
    splitters: Vec<K>,
    /// Lazily built classification tree over `splitters` (built at most
    /// once, shared by every routing call).  Excluded from equality and
    /// serialization: it is a pure function of `splitters`.
    tree: OnceLock<DecisionTree<K>>,
}

impl<K: Key> SplitterSet<K> {
    /// Build a splitter set from already-sorted splitter keys.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not sorted in non-decreasing order.
    pub fn new(splitters: Vec<K>) -> Self {
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]), "splitters must be sorted");
        Self { splitters, tree: OnceLock::new() }
    }

    /// Build a splitter set for `buckets` buckets by picking evenly spaced
    /// keys from a *sorted* sample (the classic sample-sort rule: the
    /// `(i * |sample| / buckets)`-th sample key becomes splitter `i`).
    pub fn from_sorted_sample(sample: &[K], buckets: usize) -> Self {
        assert!(buckets >= 1, "need at least one bucket");
        debug_assert!(sample.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");
        if buckets == 1 || sample.is_empty() {
            return Self::new(Vec::new());
        }
        let m = sample.len();
        let mut splitters = Vec::with_capacity(buckets - 1);
        for i in 1..buckets {
            let idx = (i * m / buckets).min(m - 1);
            splitters.push(sample[idx]);
        }
        Self::new(splitters)
    }

    /// Number of buckets this splitter set defines (`len() + 1`).
    pub fn buckets(&self) -> usize {
        self.splitters.len() + 1
    }

    /// The splitter keys, sorted.
    pub fn keys(&self) -> &[K] {
        &self.splitters
    }

    /// The cached decision tree over these splitters, built on first use.
    pub fn decision_tree(&self) -> &DecisionTree<K> {
        self.tree.get_or_init(|| DecisionTree::from_splitters(&self.splitters))
    }

    /// The bucket (destination processor) a key belongs to: the number of
    /// splitters `<= key`, so bucket `i` receives `[S_i, S_{i+1})`.
    /// Answered with one branch-free descend of the cached decision tree.
    pub fn bucket_of(&self, key: K) -> usize {
        self.decision_tree().bucket_of(key)
    }

    /// Boundaries of each bucket within a *sorted* slice of keyed items:
    /// returns `buckets + 1` offsets `b` such that bucket `i` is
    /// `sorted[b[i]..b[i+1]]`.
    ///
    /// Splitters are sorted, so the boundaries are found by per-splitter
    /// binary search (sparse splitters), one merged linear sweep (balanced
    /// dense shapes), or branch-free decision-tree classification
    /// (splitters dwarfing the data, the large-`p` bucketize regime) — the
    /// shared [`classify_strategy`] rule, with identical results either
    /// way (the strategies are cross-checked in the unit tests and the
    /// differential suites).
    pub fn bucket_boundaries<T: hss_keygen::Keyed<K = K>>(&self, sorted: &[T]) -> Vec<usize> {
        let n = sorted.len();
        let m = self.splitters.len();
        let mut bounds = Vec::with_capacity(self.buckets() + 1);
        bounds.push(0);
        match classify_strategy(n, m) {
            ClassifyStrategy::BinarySearch => {
                for s in &self.splitters {
                    bounds.push(sorted.partition_point(|x| x.key() < *s));
                }
            }
            ClassifyStrategy::MergeSweep => {
                let mut i = 0usize;
                for &s in &self.splitters {
                    i = sweep_past(sorted, i, |k| k < s);
                    bounds.push(i);
                }
            }
            ClassifyStrategy::DecisionTree => {
                // bounds[j+1] = #keys < splitter j, via classify+prefix-sum.
                bounds
                    .extend(self.decision_tree().ranks_lt(sorted).into_iter().map(|r| r as usize));
            }
        }
        bounds.push(n);
        // Guard against unsorted splitters interacting with duplicate keys:
        // boundaries must be monotone.
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        bounds
    }
}

// The cached tree is derived state: two splitter sets are equal exactly
// when their splitters are, whether or not either has built its tree.
impl<K: Key> PartialEq for SplitterSet<K> {
    fn eq(&self, other: &Self) -> bool {
        self.splitters == other.splitters
    }
}

impl<K: Key> Eq for SplitterSet<K> {}

// Manual serde impls (the derive would try to serialize the cache):
// serialize exactly the shape the derive produced before the cache existed,
// so any persisted reports keep their layout.
impl<K: Key + Serialize> Serialize for SplitterSet<K> {
    fn to_value(&self) -> Value {
        Value::Object(vec![("splitters".to_string(), self.splitters.to_value())])
    }
}

impl<K: Key + Deserialize> Deserialize for SplitterSet<K> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_routes_keys_to_half_open_ranges() {
        let s = SplitterSet::new(vec![10u64, 20, 30]);
        assert_eq!(s.buckets(), 4);
        assert_eq!(s.bucket_of(0), 0);
        assert_eq!(s.bucket_of(9), 0);
        assert_eq!(s.bucket_of(10), 1); // key equal to splitter goes right
        assert_eq!(s.bucket_of(19), 1);
        assert_eq!(s.bucket_of(20), 2);
        assert_eq!(s.bucket_of(30), 3);
        assert_eq!(s.bucket_of(u64::MAX), 3);
    }

    #[test]
    fn single_bucket_has_no_splitters() {
        let s: SplitterSet<u64> = SplitterSet::from_sorted_sample(&[1, 2, 3], 1);
        assert_eq!(s.buckets(), 1);
        assert_eq!(s.bucket_of(42), 0);
    }

    #[test]
    fn from_sorted_sample_picks_evenly_spaced_keys() {
        let sample: Vec<u64> = (0..100).collect();
        let s = SplitterSet::from_sorted_sample(&sample, 4);
        assert_eq!(s.keys(), &[25, 50, 75]);
    }

    #[test]
    fn from_empty_sample_gives_empty_splitters() {
        let s: SplitterSet<u64> = SplitterSet::from_sorted_sample(&[], 8);
        assert_eq!(s.buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_splitters_panic() {
        let _ = SplitterSet::new(vec![5u64, 3]);
    }

    #[test]
    fn duplicate_splitters_are_allowed() {
        // With heavy duplicates, evenly spaced sample keys can repeat; the
        // middle bucket is then empty, which is legal.
        let s = SplitterSet::new(vec![10u64, 10]);
        assert_eq!(s.bucket_of(9), 0);
        assert_eq!(s.bucket_of(10), 2);
    }

    #[test]
    fn bucket_of_matches_partition_point_oracle() {
        // The cached decision tree must reproduce the binary-search routing
        // rule bit for bit, including at the sentinels.
        let splitters: Vec<u64> = (0..37).map(|i| i * 11 + 3).collect();
        let s = SplitterSet::new(splitters.clone());
        for key in (0..450u64).chain([u64::MIN, u64::MAX]) {
            assert_eq!(s.bucket_of(key), splitters.partition_point(|x| *x <= key), "key {key}");
        }
    }

    #[test]
    fn equality_and_clone_ignore_the_tree_cache() {
        let a = SplitterSet::new(vec![10u64, 20]);
        let b = SplitterSet::new(vec![10u64, 20]);
        let _ = a.bucket_of(15); // builds a's tree; b's stays empty
        assert_eq!(a, b);
        let c = a.clone();
        assert_eq!(c.bucket_of(25), 2);
        assert_ne!(a, SplitterSet::new(vec![10u64, 21]));
    }

    #[test]
    fn serialization_excludes_the_tree_cache() {
        let s = SplitterSet::new(vec![1u64, 2]);
        let _ = s.bucket_of(1);
        match s.to_value() {
            Value::Object(fields) => {
                assert_eq!(fields.len(), 1);
                assert_eq!(fields[0].0, "splitters");
            }
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    fn bucket_boundaries_partition_sorted_data() {
        let data: Vec<u64> = vec![1, 5, 10, 10, 15, 20, 25];
        let s = SplitterSet::new(vec![10u64, 20]);
        let b = s.bucket_boundaries(&data);
        assert_eq!(b, vec![0, 2, 5, 7]);
        // Bucket 0: keys < 10; bucket 1: [10, 20); bucket 2: >= 20.
        assert_eq!(&data[b[0]..b[1]], &[1, 5]);
        assert_eq!(&data[b[1]..b[2]], &[10, 10, 15]);
        assert_eq!(&data[b[2]..b[3]], &[20, 25]);
    }

    #[test]
    fn bucket_boundaries_sweep_matches_binary_search() {
        // Many splitters over little data forces the dense strategies; the
        // boundaries must equal the per-splitter binary searches.
        let data: Vec<u64> = (0..40).map(|i| i * 25).collect();
        let splitters: Vec<u64> = (1..200).map(|i| i * 5).collect();
        let s = SplitterSet::new(splitters.clone());
        let got = s.bucket_boundaries(&data);
        let mut expect = vec![0usize];
        expect.extend(splitters.iter().map(|k| data.partition_point(|x| x < k)));
        expect.push(data.len());
        assert_eq!(got, expect);
    }

    #[test]
    fn bucket_boundaries_all_strategies_agree() {
        // Shapes picked to land in each of the three strategy regimes.
        use crate::classify::{classify_strategy, ClassifyStrategy};
        let cases = [
            (4096usize, 4usize, ClassifyStrategy::BinarySearch),
            (600, 600, ClassifyStrategy::MergeSweep),
            (40, 1500, ClassifyStrategy::DecisionTree),
        ];
        for (n, m, expect_strategy) in cases {
            assert_eq!(classify_strategy(n, m), expect_strategy, "shape ({n}, {m})");
            let data: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
            let splitters: Vec<u64> = (1..=m as u64).map(|i| i * 2).collect();
            let s = SplitterSet::new(splitters.clone());
            let got = s.bucket_boundaries(&data);
            let mut expect = vec![0usize];
            expect.extend(splitters.iter().map(|k| data.partition_point(|x| x < k)));
            expect.push(data.len());
            assert_eq!(got, expect, "shape ({n}, {m})");
        }
    }

    #[test]
    fn bucket_boundaries_consistent_with_bucket_of() {
        let data: Vec<u64> = (0..1000).map(|i| i * 7 % 997).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let s = SplitterSet::new(vec![100, 300, 500, 900]);
        let b = s.bucket_boundaries(&sorted);
        for (i, w) in b.windows(2).enumerate() {
            for &k in &sorted[w[0]..w[1]] {
                assert_eq!(s.bucket_of(k), i, "key {k} routed inconsistently");
            }
        }
    }

    #[test]
    fn bucket_boundaries_match_partition_points_in_every_arm() {
        use crate::classify::{classify_strategy, sweep_data, sweep_key, xorshift, SWEEP_SIZES};
        let mut state = 0x5851_F42D_4C95_7F2Du64;
        let mut arms = Vec::new();
        for n in SWEEP_SIZES {
            for m in SWEEP_SIZES {
                // Splitters and data share a pool of ~m values, both
                // sentinels included, so splitters sit on duplicate runs.
                let top = m as u64 + 1;
                let data = sweep_data(n, top, &mut state);
                let mut splitters: Vec<u64> =
                    (0..m).map(|_| sweep_key(xorshift(&mut state) % (top + 1), top)).collect();
                splitters.sort_unstable();
                let got = SplitterSet::new(splitters.clone()).bucket_boundaries(&data);
                let mut expect = vec![0usize];
                expect.extend(splitters.iter().map(|s| data.partition_point(|x| x < s)));
                expect.push(n);
                assert_eq!(got, expect, "n {n}, m {m}: {splitters:?} over {data:?}");
                arms.push(classify_strategy(n, m));
            }
        }
        for arm in [
            ClassifyStrategy::BinarySearch,
            ClassifyStrategy::MergeSweep,
            ClassifyStrategy::DecisionTree,
        ] {
            assert!(arms.contains(&arm), "no shape took {arm:?}");
        }
    }
}
