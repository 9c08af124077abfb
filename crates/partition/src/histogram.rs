//! Histogram (rank-query) computation over sorted local data.
//!
//! A "histogram" in the paper's sense (§2.3) is the vector of global ranks
//! of a set of probe keys: every processor counts how many of its local keys
//! are below each probe (cheap binary searches over its sorted local data,
//! §5.1.2) and the per-processor counts are summed by a reduction.  The
//! global rank of a probe tells the splitter-determination algorithm where
//! that probe sits in the global order.
//!
//! A *round* of histogramming is one probe set against every rank, so the
//! host validates and indexes the probes once ([`ProbeIndex`]) and every
//! rank adds its bucket counts into a shared accumulator
//! ([`hss_sim::Machine::histogram_phase`]) instead of building its own index
//! and returning its own rank vector.  The simulated charge is unchanged: a
//! real rank would still build its own tree and ship its own vector, so
//! [`local_ranks_work`] and the reduction keep charging exactly that.
//! [`local_ranks`] stays the per-rank reference the fused round is tested
//! against.

use std::sync::OnceLock;

use hss_keygen::{Key, Keyed};
use hss_sim::{Machine, Phase, Work};

use crate::classify::{classify_strategy, classify_work, ClassifyStrategy, DecisionTree};

/// Number of local keys strictly less than each probe.
///
/// `sorted_local` must be sorted by key; `probes` must be sorted too (the
/// result is then non-decreasing).
///
/// Three strategies are used depending on the shapes (the shared
/// [`classify_strategy`] rule): binary searches (`O(|probes| log |local|)`)
/// when there are few probes, a linear merge sweep
/// (`O(|probes| + |local|)`) when both sides are dense and comparable, and
/// branch-free decision-tree classification of the *data* against the
/// probes (`O(|probes| + |local| log |probes|)`, four keys in flight) when
/// the probe set dwarfs the local data — the situation in large-`p`
/// histogramming rounds where the probe count (`~5p`) dwarfs the per-rank
/// key count.  All three return identical results.
pub fn local_ranks<T: Keyed>(sorted_local: &[T], probes: &[T::K]) -> Vec<u64> {
    debug_assert!(is_sorted_by_key(sorted_local), "local data must be sorted");
    debug_assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probes must be sorted");
    let n = sorted_local.len();
    let m = probes.len();
    match classify_strategy(n, m) {
        ClassifyStrategy::BinarySearch => {
            probes.iter().map(|p| sorted_local.partition_point(|x| x.key() < *p) as u64).collect()
        }
        ClassifyStrategy::MergeSweep => {
            let mut out = Vec::with_capacity(m);
            let mut i = 0usize;
            for p in probes {
                while i < n && sorted_local[i].key() < *p {
                    i += 1;
                }
                out.push(i as u64);
            }
            out
        }
        ClassifyStrategy::DecisionTree => {
            DecisionTree::from_splitters(probes).ranks_lt(sorted_local)
        }
    }
}

/// The [`Work`] `local_ranks` actually performs for the given shapes —
/// binary-search cost when it binary-searches, a linear `n + m` scan for
/// the merge sweep, tree build plus `n` charged descends for the decision
/// tree (see [`classify_work`]).  Charging `Work::binary_search(m, n)`
/// unconditionally (the historical behaviour) overstated the simulated cost
/// of exactly the large-`p` histogramming rounds the dense strategies
/// exist for.
pub fn local_ranks_work(n: usize, m: usize) -> Work {
    classify_work(n, m)
}

/// Number of local keys less than *or equal to* each probe — the
/// "`<=`-rank" flavour the approximate-histogram oracle queries
/// ([`local_ranks`] counts strictly-smaller keys).  Same adaptive
/// three-way strategy ([`local_ranks_work`] is the cost of either call).
pub fn local_ranks_le<T: Keyed>(sorted_local: &[T], probes: &[T::K]) -> Vec<u64> {
    debug_assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probes must be sorted");
    ProbeIndex { probes, tree: OnceLock::new() }.local_ranks_le(sorted_local)
}

/// One histogramming round's probe set, checked and indexed **once** on the
/// host and shared by reference by every rank of the round.
///
/// [`ProbeIndex::new`] is the one release-mode sortedness check of a round
/// (`O(m)`, where per-rank checks would be `O(p·m)` and the binary-search
/// and merge-sweep arms would otherwise silently clamp out-of-order
/// probes); the decision tree over the probes is built lazily, by the first
/// rank whose shape picks the tree arm, and never more than once.
#[derive(Debug)]
pub struct ProbeIndex<'a, K: Key> {
    probes: &'a [K],
    tree: OnceLock<DecisionTree<K>>,
}

impl<'a, K: Key> ProbeIndex<'a, K> {
    /// Index a sorted probe set (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if the probes are not in non-decreasing order.
    pub fn new(probes: &'a [K]) -> Self {
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probes must be sorted");
        Self { probes, tree: OnceLock::new() }
    }

    /// The indexed probes `m`; bucket-count accumulators have `m + 1` slots.
    pub fn probes(&self) -> &'a [K] {
        self.probes
    }

    fn tree(&self) -> &DecisionTree<K> {
        self.tree.get_or_init(|| DecisionTree::from_splitters(self.probes))
    }

    /// Add one rank's bucket counts to `counts` (`m + 1` slots):
    /// `counts[j]` gains the number of keys of `sorted_local` in
    /// `[probes[j-1], probes[j])`, so the prefix sums of the slots are
    /// [`local_ranks`] — the accumulate form of it, with the same
    /// per-shape [`classify_strategy`] arm but without a per-rank tree or
    /// result vector.
    pub fn add_bucket_counts<T: Keyed<K = K>>(&self, sorted_local: &[T], counts: &mut [u64]) {
        debug_assert!(is_sorted_by_key(sorted_local), "local data must be sorted");
        let n = sorted_local.len();
        match classify_strategy(n, self.probes.len()) {
            ClassifyStrategy::BinarySearch => add_rank_differences(
                self.probes.iter().map(|p| sorted_local.partition_point(|x| x.key() < *p) as u64),
                n as u64,
                counts,
            ),
            ClassifyStrategy::MergeSweep => {
                let mut i = 0usize;
                let ranks = self.probes.iter().map(|p| {
                    while i < n && sorted_local[i].key() < *p {
                        i += 1;
                    }
                    i as u64
                });
                add_rank_differences(ranks, n as u64, counts)
            }
            ClassifyStrategy::DecisionTree => self.tree().add_histogram(sorted_local, counts),
        }
    }

    /// [`local_ranks_le`] against the indexed probes, sharing the index's
    /// tree across ranks.
    pub fn local_ranks_le<T: Keyed<K = K>>(&self, sorted_local: &[T]) -> Vec<u64> {
        debug_assert!(is_sorted_by_key(sorted_local), "local data must be sorted");
        let n = sorted_local.len();
        let probes = self.probes;
        match classify_strategy(n, probes.len()) {
            ClassifyStrategy::BinarySearch => probes
                .iter()
                .map(|p| sorted_local.partition_point(|x| x.key() <= *p) as u64)
                .collect(),
            ClassifyStrategy::MergeSweep => {
                let mut out = Vec::with_capacity(probes.len());
                let mut i = 0usize;
                for p in probes {
                    while i < n && sorted_local[i].key() <= *p {
                        i += 1;
                    }
                    out.push(i as u64);
                }
                out
            }
            ClassifyStrategy::DecisionTree => self.tree().ranks_le(sorted_local),
        }
    }
}

/// Add the bucket counts a rank's non-decreasing local `ranks` imply to
/// `counts` (one slot more than there are ranks): slot `j` gains
/// `ranks[j] − ranks[j−1]`, the last slot the `n − ranks.last()` keys at or
/// above every probe.  The bridge for sources that can only answer rank
/// queries (spilled run files) into a round's shared accumulator.
pub fn add_rank_differences(ranks: impl IntoIterator<Item = u64>, n: u64, counts: &mut [u64]) {
    let (last, slots) = counts.split_last_mut().expect("at least the open-ended last bucket");
    let mut ranks = ranks.into_iter();
    let mut prev = 0u64;
    for slot in slots {
        let rank = ranks.next().expect("one rank per count slot but the last");
        *slot += rank - prev;
        prev = rank;
    }
    assert!(ranks.next().is_none(), "one rank per count slot but the last");
    *last += n - prev;
}

/// Per-bucket counts for the ranges defined by consecutive probes:
/// `counts[0]` = keys `< probes[0]`, `counts[i]` = keys in
/// `[probes[i-1], probes[i])`, `counts[len]` = keys `>= probes.last()`.
/// This is the "count the number of keys in each range" formulation of the
/// histogram (§2.3, step 2); it carries the same information as
/// [`local_ranks`].
pub fn local_range_counts<T: Keyed>(sorted_local: &[T], probes: &[T::K]) -> Vec<u64> {
    let mut counts = vec![0u64; probes.len() + 1];
    add_rank_differences(local_ranks(sorted_local, probes), sorted_local.len() as u64, &mut counts);
    counts
}

/// Compute the *global* ranks of `probes` (sorted, duplicates allowed) over
/// the distributed, per-rank sorted data: every rank counts its local keys
/// per probe bucket (charged in the given `phase` as the classification a
/// real rank would run, [`local_ranks_work`]), and the counts are summed by
/// a reduction on `machine`.
///
/// This is exactly one histogramming step of Histogram sort / HSS, run as
/// one fused [`Machine::histogram_phase`] over one shared [`ProbeIndex`].
///
/// # Panics
///
/// Panics if `probes` is not sorted.
pub fn global_ranks<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    probes: &[T::K],
    phase: Phase,
) -> Vec<u64> {
    let index = ProbeIndex::new(probes);
    machine.histogram_phase(phase, per_rank_sorted, probes.len(), |_rank, data, counts| {
        index.add_bucket_counts(data, counts);
        local_ranks_work(data.len(), probes.len())
    })
}

/// Whether a slice is sorted by key (used in debug assertions).
pub fn is_sorted_by_key<T: Keyed>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0].key() <= w[1].key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_sim::Machine;

    #[test]
    fn local_ranks_counts_strictly_smaller_keys() {
        let data: Vec<u64> = vec![10, 20, 20, 30, 40];
        assert_eq!(local_ranks(&data, &[5, 10, 20, 25, 40, 100]), vec![0, 0, 1, 3, 4, 5]);
    }

    #[test]
    fn local_ranks_le_counts_at_or_below() {
        let data: Vec<u64> = vec![10, 20, 20, 30, 40];
        assert_eq!(local_ranks_le(&data, &[5, 10, 20, 25, 40, 100]), vec![0, 1, 3, 3, 5, 5]);
    }

    #[test]
    fn local_ranks_le_sweep_and_binary_search_agree() {
        let data: Vec<u64> = (0..60).map(|i| i * 5 + 2).collect();
        // Dense probe set -> merge sweep; verify against partition_point.
        let probes: Vec<u64> = (0..500).map(|i| i as u64).collect();
        let expect: Vec<u64> =
            probes.iter().map(|p| data.partition_point(|x| x <= p) as u64).collect();
        assert_eq!(local_ranks_le(&data, &probes), expect);
        // Sparse probe set -> binary search branch.
        let probes: Vec<u64> = vec![2, 7, 301];
        let expect: Vec<u64> =
            probes.iter().map(|p| data.partition_point(|x| x <= p) as u64).collect();
        assert_eq!(local_ranks_le(&data, &probes), expect);
    }

    #[test]
    fn binary_search_and_merge_sweep_strategies_agree() {
        // Large probe set relative to the data triggers the merge sweep;
        // compare against explicit partition_point results.
        let data: Vec<u64> = (0..50).map(|i| i * 7 + 3).collect();
        let probes: Vec<u64> = (0..400).map(|i| i * 217 % 400).collect::<Vec<_>>();
        let mut probes = probes;
        probes.sort_unstable();
        let expect: Vec<u64> =
            probes.iter().map(|p| data.partition_point(|x| x < p) as u64).collect();
        assert_eq!(local_ranks(&data, &probes), expect);
    }

    #[test]
    fn merge_sweep_handles_probes_beyond_data_range() {
        let data: Vec<u64> = vec![100, 200, 300];
        let probes: Vec<u64> = (0..64).map(|i| i * 10).collect();
        let got = local_ranks(&data, &probes);
        assert_eq!(got[0], 0);
        assert_eq!(*got.last().unwrap(), 3);
    }

    #[test]
    fn local_ranks_on_empty_data_is_zero() {
        let data: Vec<u64> = vec![];
        assert_eq!(local_ranks(&data, &[1, 2, 3]), vec![0, 0, 0]);
    }

    #[test]
    fn local_ranks_with_no_probes_is_empty() {
        let data: Vec<u64> = vec![1, 2, 3];
        assert!(local_ranks(&data, &[]).is_empty());
    }

    #[test]
    fn range_counts_sum_to_local_size() {
        let data: Vec<u64> = vec![1, 5, 5, 7, 9, 11, 30];
        let counts = local_range_counts(&data, &[5, 10, 20]);
        assert_eq!(counts, vec![1, 4, 1, 1]);
        assert_eq!(counts.iter().sum::<u64>(), data.len() as u64);
    }

    #[test]
    fn range_counts_with_no_probes_is_total() {
        let data: Vec<u64> = vec![1, 2, 3];
        assert_eq!(local_range_counts(&data, &[]), vec![3]);
    }

    #[test]
    fn global_ranks_sum_local_contributions() {
        let mut machine = Machine::flat(3);
        let per_rank: Vec<Vec<u64>> = vec![vec![0, 10, 20], vec![5, 15, 25], vec![2, 12, 22]];
        let probes = vec![10u64, 20, 26];
        let ranks = global_ranks(&mut machine, &per_rank, &probes, Phase::Histogramming);
        // Keys < 10: {0,5,2} -> 3; < 20: +{10,15,12} -> 6; < 26: +{20,25,22} -> 9.
        assert_eq!(ranks, vec![3, 6, 9]);
        assert!(machine.metrics().phase(Phase::Histogramming).simulated_seconds > 0.0);
    }

    #[test]
    fn global_ranks_work_with_records() {
        use hss_keygen::Record;
        let mut machine = Machine::flat(2);
        let per_rank: Vec<Vec<Record>> = vec![
            vec![Record { key: 1, payload: 0 }, Record { key: 3, payload: 0 }],
            vec![Record { key: 2, payload: 0 }, Record { key: 4, payload: 0 }],
        ];
        let ranks = global_ranks(&mut machine, &per_rank, &[3u64], Phase::Histogramming);
        assert_eq!(ranks, vec![2]);
    }

    #[test]
    fn charged_work_tracks_executed_strategy() {
        use crate::classify::{classify_strategy, tree_height, ClassifyStrategy};
        use hss_sim::Work;
        // Decision-tree shape: tiny local data, many probes.  The charge
        // must be the tree term, not m binary searches.
        let (n, m) = (3usize, 64usize);
        assert_eq!(classify_strategy(n, m), ClassifyStrategy::DecisionTree);
        assert_eq!(
            local_ranks_work(n, m),
            Work::classify(n, tree_height(m)).and(Work::scan(2 * m))
        );
        // Merge-sweep shape: dense, comparable sides.
        let (n, m) = (1000usize, 1000usize);
        assert_eq!(classify_strategy(n, m), ClassifyStrategy::MergeSweep);
        assert_eq!(local_ranks_work(n, m), Work::scan(n + m));
        // Binary-search shape: large local data, few probes.
        let (n, m) = (4096usize, 4usize);
        assert_eq!(classify_strategy(n, m), ClassifyStrategy::BinarySearch);
        assert_eq!(local_ranks_work(n, m), Work::binary_search(m, n));
    }

    #[test]
    fn charged_work_switches_exactly_at_the_strategy_switch_point() {
        use crate::classify::{classify_strategy, tree_height, ClassifyStrategy};
        use hss_sim::Work;
        // Sweep the probe count at fixed n and find every strategy flip;
        // the charged term must flip at exactly the same m — no drift
        // between what executes and what is charged.
        let n = 256usize;
        let mut switches = 0usize;
        for m in 0..4096usize {
            let expected = match classify_strategy(n, m) {
                ClassifyStrategy::BinarySearch => Work::binary_search(m, n),
                ClassifyStrategy::MergeSweep => Work::scan(n + m),
                ClassifyStrategy::DecisionTree => {
                    Work::classify(n, tree_height(m)).and(Work::scan(2 * m))
                }
            };
            assert_eq!(local_ranks_work(n, m), expected, "m = {m}");
            if m > 0 && classify_strategy(n, m) != classify_strategy(n, m - 1) {
                switches += 1;
            }
        }
        // The sweep must actually cross strategy boundaries for the
        // assertion above to mean anything.
        assert!(switches >= 2, "expected at least two strategy switches, saw {switches}");
    }

    #[test]
    fn global_ranks_charges_tree_cost_on_dense_probe_shapes() {
        use crate::classify::tree_height;
        // p = 2 ranks with 3 keys each, 64 probes: both ranks take the
        // decision-tree branch.  Phase compute ops must be the two tree
        // charges (n·height descends + build/prefix scans of 2m) plus the
        // reduction's element-wise combine (pipelined: one op per probe).
        let p = 2;
        let mut machine = Machine::flat(p);
        let per_rank: Vec<Vec<u64>> = vec![vec![10, 20, 30], vec![15, 25, 35]];
        let probes: Vec<u64> = (0..64).map(|i| i * 2).collect();
        let _ = global_ranks(&mut machine, &per_rank, &probes, Phase::Histogramming);
        let ops = machine.metrics().phase(Phase::Histogramming).compute_ops;
        let per_rank_ops = 3 * tree_height(64) as u64 + 2 * 64;
        let expected = 2 * per_rank_ops + 64;
        assert_eq!(ops, expected);
    }

    #[test]
    fn probe_index_counts_prefix_sum_to_local_ranks_in_every_arm() {
        use crate::classify::{classify_strategy, ClassifyStrategy};
        // Duplicate-heavy data; probes with repeats and both sentinels.
        let mut probes: Vec<u64> = (0..300u64).map(|i| i * 7 % 90).collect();
        probes.extend([u64::MIN, u64::MIN, u64::MAX, u64::MAX]);
        probes.sort_unstable();
        let index = ProbeIndex::new(&probes);
        let mut arms = Vec::new();
        for n in [0usize, 1, 7, 600, 40_000] {
            let mut data: Vec<u64> = (0..n as u64).map(|i| i * 31 % 97).collect();
            data.extend(vec![u64::MAX; n.min(3)]);
            data.sort_unstable();
            arms.push(classify_strategy(data.len(), probes.len()));
            // Counting twice into one accumulator doubles every rank.
            let mut counts = vec![0u64; probes.len() + 1];
            index.add_bucket_counts(&data, &mut counts);
            index.add_bucket_counts(&data, &mut counts);
            assert_eq!(counts.iter().sum::<u64>(), 2 * data.len() as u64, "n = {n}");
            let mut below = 0u64;
            let ranks: Vec<u64> = counts[..probes.len()]
                .iter()
                .map(|c| {
                    below += c;
                    below / 2
                })
                .collect();
            assert_eq!(ranks, local_ranks(&data, &probes), "n = {n}");
            assert_eq!(index.local_ranks_le(&data), local_ranks_le(&data, &probes), "n = {n}");
        }
        for arm in [
            ClassifyStrategy::BinarySearch,
            ClassifyStrategy::MergeSweep,
            ClassifyStrategy::DecisionTree,
        ] {
            assert!(arms.contains(&arm), "{arm:?} not exercised: {arms:?}");
        }
    }

    #[test]
    fn rank_differences_are_the_bucket_counts() {
        let mut counts = vec![1u64; 4];
        add_rank_differences([2, 2, 5], 9, &mut counts);
        assert_eq!(counts, vec![3, 1, 4, 5]);
        // No probes: everything lands in the one open-ended bucket.
        let mut counts = vec![0u64];
        add_rank_differences([], 6, &mut counts);
        assert_eq!(counts, vec![6]);
    }

    #[test]
    #[should_panic(expected = "probes must be sorted")]
    fn unsorted_probes_panic_on_the_binary_search_shape_too() {
        // Few probes against many keys: no tree is ever built, so only the
        // round's own check can catch the bad probe set (in release builds
        // the per-arm debug assertions are gone).
        let mut machine = Machine::flat(1);
        let data: Vec<u64> = (0..4096).collect();
        let _ = global_ranks(&mut machine, &[data], &[30, 10], Phase::Histogramming);
    }

    #[test]
    fn is_sorted_by_key_detects_order() {
        assert!(is_sorted_by_key(&[1u64, 2, 2, 3]));
        assert!(!is_sorted_by_key(&[2u64, 1]));
        assert!(is_sorted_by_key::<u64>(&[]));
    }
}
