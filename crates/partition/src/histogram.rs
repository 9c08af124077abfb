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
//! and returning its own rank vector.
//!
//! After HSS's first round every probe lies in one of the round's
//! [`Windows`] (the open splitter intervals), whose lower bound's global
//! rank is known, so a rank counts only its keys inside the windows
//! ([`ProbeIndex::add_window_counts`]) — a few hundred of its 1024 keys in
//! round 2 at `p = 1024`, a few dozen in round 3.  Ranking arbitrary
//! probes is the one-window case ([`ProbeIndex::new`]).
//!
//! The simulated charge is unchanged: a real rank would still build its
//! own tree and ship its own vector, so [`local_ranks_work`] over the
//! rank's whole data and the round's probes, and the reduction, keep
//! charging exactly that.  Re-deriving what a windowed rank costs belongs
//! to the model's calibration.  [`local_ranks`] stays the per-rank
//! reference the fused round is tested against.

use std::ops::Range;
use std::sync::OnceLock;

use hss_keygen::{Key, Keyed};
use hss_sim::{Machine, Phase, Work};

use crate::classify::{
    classify_strategy, classify_work, sweep_past, ClassifyStrategy, DecisionTree,
};
use crate::intervals::Windows;

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
/// probes (`O(|probes| + |local| log |probes|)`, eight keys in flight) when
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
    let index = ProbeIndex {
        probes,
        cuts: vec![0, probes.len()],
        ranks_below: vec![0],
        trees: vec![OnceLock::new()],
    };
    index.local_ranks_le(sorted_local)
}

/// The most probes a window's tree arm counts by comparing each key with
/// every probe instead of descending a tree.
const LINEAR_PROBES: usize = 16;

/// The most keys a window of at most [`LINEAR_PROBES`] probes counts by
/// comparing, whichever arm [`classify_strategy`] names for it.
const LINEAR_KEYS: usize = 8;

/// Whether [`ProbeIndex::add_window_counts`] counts a window of `n` keys
/// and `m` probes by comparing every key with every probe.  Every arm
/// counts the same; comparing is the tree arm of a window whose tree would
/// be a few leaves, and the cheapest way to count a handful of keys — the
/// typical window of a later round at large `p` holds a key or two of a
/// rank and a few probes.
fn compares_every_pair(n: usize, m: usize) -> bool {
    m <= LINEAR_PROBES
        && (n <= LINEAR_KEYS || classify_strategy(n, m) == ClassifyStrategy::DecisionTree)
}

/// The keys one rank holds inside one window of a histogramming round: the
/// window's index in the round's [`Windows`] and the index range
/// `start..end` (non-empty) of those keys in the rank's sorted data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// The window's index in the round's window list.
    pub window: usize,
    /// The window's first key in the rank's sorted data.
    pub start: usize,
    /// One past the window's last key.
    pub end: usize,
}

impl WindowSpan {
    /// A rank of `len` keys in the one window of [`Windows::whole`]: the
    /// span of all its keys, if it has any.
    pub fn whole(len: usize) -> Option<Self> {
        (len > 0).then_some(Self { window: 0, start: 0, end: len })
    }
}

/// One histogramming round's probe set, checked and indexed **once** on the
/// host and shared by reference by every rank of the round.
///
/// The probes are indexed by window ([`ProbeIndex::windowed`]): window `w`
/// owns the probes inside its key range, and a rank adds, for each window
/// it holds keys in, the counts of those keys between the window's probes
/// ([`ProbeIndex::add_window_counts`]).  After the reduction a probe's
/// global rank is its window's rank-below plus the window's prefix
/// ([`ProbeIndex::ranks_from_prefix`]).  [`ProbeIndex::new`] is the
/// one-window case that ranks arbitrary probes against whole ranks.
///
/// [`ProbeIndex::windowed`] is the one release-mode check of a round: the
/// probes are sorted (`O(m)`, where per-rank checks would be `O(p·m)` and
/// the binary-search and merge-sweep arms would otherwise silently clamp
/// out-of-order probes) and every probe lies in a window.  A window's
/// decision tree is built lazily, by the first rank whose shape picks the
/// tree arm there, and never more than once.
#[derive(Debug)]
pub struct ProbeIndex<'a, K: Key> {
    probes: &'a [K],
    /// Window `w` owns `probes[cuts[w]..cuts[w + 1]]`.
    cuts: Vec<usize>,
    /// The global number of keys strictly below each window.
    ranks_below: Vec<u64>,
    trees: Vec<OnceLock<DecisionTree<K>>>,
}

impl<'a, K: Key> ProbeIndex<'a, K> {
    /// Index a sorted probe set (duplicates allowed) as one window over the
    /// whole key space.
    ///
    /// # Panics
    ///
    /// Panics if the probes are not in non-decreasing order.
    pub fn new(probes: &'a [K]) -> Self {
        Self::windowed(probes, &Windows::whole())
    }

    /// Index a sorted probe set by the round's `windows`.
    ///
    /// # Panics
    ///
    /// Panics if the probes are not in non-decreasing order, or if a probe
    /// lies outside every window.
    pub fn windowed(probes: &'a [K], windows: &Windows<K>) -> Self {
        assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probes must be sorted");
        let mut cuts = Vec::with_capacity(windows.len() + 1);
        cuts.push(0);
        for &(lo, hi) in &windows.bounds {
            let first = probes.partition_point(|p| *p < lo);
            assert_eq!(
                first,
                *cuts.last().expect("starts at 0"),
                "a probe lies outside the windows"
            );
            cuts.push(probes.partition_point(|p| *p <= hi));
        }
        assert_eq!(
            *cuts.last().expect("starts at 0"),
            probes.len(),
            "a probe lies outside the windows"
        );
        let trees = windows.bounds.iter().map(|_| OnceLock::new()).collect();
        Self { probes, cuts, ranks_below: windows.ranks_below.clone(), trees }
    }

    /// The indexed probes `m`; bucket-count accumulators have `m + 1` slots.
    pub fn probes(&self) -> &'a [K] {
        self.probes
    }

    /// Window `w`'s probes: the accumulator slots `cuts[w]..cuts[w + 1]`.
    fn window_probes(&self, window: usize) -> Range<usize> {
        self.cuts[window]..self.cuts[window + 1]
    }

    fn tree(&self, window: usize) -> &DecisionTree<K> {
        self.trees[window]
            .get_or_init(|| DecisionTree::from_splitters(&self.probes[self.window_probes(window)]))
    }

    /// Run `add` on window `window`'s slots of `counts` plus the slot after
    /// them, which gains the keys at or above every window probe.  That
    /// slot is the next window's first, so it is put back unless it is the
    /// accumulator's spare last slot.
    fn with_window_slots(&self, window: usize, counts: &mut [u64], add: impl FnOnce(&mut [u64])) {
        let slots = self.window_probes(window);
        let (end, spare) = (slots.end, slots.end == self.probes.len());
        let window_counts = &mut counts[slots.start..=end];
        let after = window_counts[end - slots.start];
        add(window_counts);
        if !spare {
            window_counts[end - slots.start] = after;
        }
    }

    /// Add one rank's in-window bucket counts to `counts` (`m + 1` slots):
    /// for every window the rank holds keys in (`spans`, ascending), slot
    /// `j` of the window gains the number of its keys in
    /// `[probes[j-1], probes[j])`.  So the prefix sums over a window's slots
    /// are [`local_ranks`] of its keys — the accumulate form of it.  Each
    /// window takes the [`classify_strategy`] arm of its own shape (its keys
    /// against its probes), without a per-rank tree or result vector; a
    /// window of at most 16 probes and 8 keys, or a tree-arm window of at
    /// most 16 probes, compares every key with every probe instead.
    pub fn add_window_counts<T: Keyed<K = K>>(
        &self,
        sorted_local: &[T],
        spans: &[WindowSpan],
        counts: &mut [u64],
    ) {
        debug_assert!(is_sorted_by_key(sorted_local), "local data must be sorted");
        for span in spans {
            let keys = &sorted_local[span.start..span.end];
            let probes = &self.probes[self.window_probes(span.window)];
            let n = keys.len() as u64;
            self.with_window_slots(span.window, counts, |counts| {
                if compares_every_pair(keys.len(), probes.len()) {
                    // Count the probes at or below each key, branch-free.
                    for key in keys {
                        let key = key.key();
                        let bucket: usize = probes.iter().map(|p| usize::from(*p <= key)).sum();
                        counts[bucket] += 1;
                    }
                    return;
                }
                match classify_strategy(keys.len(), probes.len()) {
                    ClassifyStrategy::BinarySearch => add_rank_differences(
                        probes.iter().map(|p| keys.partition_point(|x| x.key() < *p) as u64),
                        n,
                        counts,
                    ),
                    ClassifyStrategy::MergeSweep => {
                        let mut i = 0usize;
                        let ranks = probes.iter().map(|&p| {
                            i = sweep_past(keys, i, |k| k < p);
                            i as u64
                        });
                        add_rank_differences(ranks, n, counts)
                    }
                    ClassifyStrategy::DecisionTree => {
                        self.tree(span.window).add_histogram(keys, counts)
                    }
                }
            });
        }
    }

    /// [`add_window_counts`](Self::add_window_counts) for a source that
    /// answers rank queries instead of holding a slice (spilled run files):
    /// `ranks` are the rank's local ranks of every probe, so a window's
    /// in-window ranks are those less the span's start.
    pub fn add_window_ranks(&self, spans: &[WindowSpan], ranks: &[u64], counts: &mut [u64]) {
        assert_eq!(ranks.len(), self.probes.len(), "one rank per probe");
        for span in spans {
            let start = span.start as u64;
            let in_window = ranks[self.window_probes(span.window)].iter().map(|r| r - start);
            let n = (span.end - span.start) as u64;
            self.with_window_slots(span.window, counts, |counts| {
                add_rank_differences(in_window, n, counts)
            });
        }
    }

    /// The global ranks of the probes, from the reduced prefix sums of the
    /// ranks' window counts (`prefix[j]` = slots `0..=j` summed over
    /// ranks): a probe's window's rank-below plus the prefix within its
    /// window.
    pub fn ranks_from_prefix(&self, mut prefix: Vec<u64>) -> Vec<u64> {
        assert_eq!(prefix.len(), self.probes.len(), "one prefix sum per probe");
        let mut before = 0u64;
        for (window, &below) in self.ranks_below.iter().enumerate() {
            let slots = self.window_probes(window);
            let Some(&last) = prefix[slots.clone()].last() else { continue };
            for rank in &mut prefix[slots] {
                *rank = *rank - before + below;
            }
            before = last;
        }
        prefix
    }

    /// [`local_ranks_le`] against the indexed probes, sharing the index's
    /// tree across ranks.
    ///
    /// # Panics
    ///
    /// Panics unless the index is one window ([`ProbeIndex::new`]).
    pub fn local_ranks_le<T: Keyed<K = K>>(&self, sorted_local: &[T]) -> Vec<u64> {
        assert_eq!(self.trees.len(), 1, "ranks over every probe need the one-window index");
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
            ClassifyStrategy::DecisionTree => self.tree(0).ranks_le(sorted_local),
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
    let prefix =
        machine.histogram_phase(phase, per_rank_sorted, probes.len(), |_rank, data, counts| {
            index.add_window_counts(data, WindowSpan::whole(data.len()).as_slice(), counts);
            local_ranks_work(data.len(), probes.len())
        });
    index.ranks_from_prefix(prefix)
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
            let whole = WindowSpan::whole(data.len());
            index.add_window_counts(&data, whole.as_slice(), &mut counts);
            index.add_window_counts(&data, whole.as_slice(), &mut counts);
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

    /// Windowed counting ranks every probe as per-rank [`local_ranks`] over
    /// whole ranks does: keys on a window's `lo`/`hi`, windows a rank holds
    /// no key in or no probe in, probes on the endpoints, the
    /// `MIN_KEY`/`MAX_KEY` sentinels and a rank with no key inside any
    /// window — through the slice kernel, in every arm, and through the
    /// rank-query form spilled sources use.
    #[test]
    fn windowed_ranks_equal_local_ranks_in_every_arm() {
        use crate::classify::{sweep_data, sweep_key, xorshift};
        use crate::sampling::interval_bounds;
        let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut arms = Vec::new();
        for case in 0..60u64 {
            // Keys come from the pool 0..=top, whose top is `MAX_KEY`.
            let top = 30 + 5 * case;
            let mut bounds = Vec::new();
            let mut next = xorshift(&mut state) % 2;
            while next <= top {
                let hi = (next + xorshift(&mut state) % 6).min(top);
                bounds.push((next, hi));
                next = hi + 1 + xorshift(&mut state) % 3;
            }
            let inside = |x: u64| bounds.iter().any(|&(lo, hi)| (lo..=hi).contains(&x));
            let outside: Vec<u64> = (0..=top).filter(|&x| !inside(x)).collect();
            let mut ranks: Vec<Vec<u64>> = [0usize, 7, 300, 3000]
                .iter()
                .map(|&n| sweep_data(n >> (case % 3), top, &mut state))
                .collect();
            let mut strays: Vec<u64> = (0..outside.len() * 3)
                .map(|_| sweep_key(outside[xorshift(&mut state) as usize % outside.len()], top))
                .collect();
            strays.sort_unstable();
            ranks.push(strays);
            // Probes: both endpoints of most windows, and one to
            // sixty-four values inside (with repeats), by the case.
            let per_window = [1u64, 16, 64][(case % 3) as usize];
            let mut probes = Vec::new();
            for &(lo, hi) in &bounds {
                match xorshift(&mut state) % 4 {
                    0 => continue,
                    1 => {}
                    _ => probes.extend([lo, hi]),
                }
                let count = 1 + xorshift(&mut state) % per_window;
                probes.extend((0..count).map(|_| lo + xorshift(&mut state) % (hi - lo + 1)));
            }
            let mut probes: Vec<u64> = probes.into_iter().map(|x| sweep_key(x, top)).collect();
            probes.sort_unstable();
            let bounds: Vec<(u64, u64)> =
                bounds.iter().map(|&(lo, hi)| (sweep_key(lo, top), sweep_key(hi, top))).collect();
            let below = |key: u64| -> u64 {
                ranks.iter().map(|r| r.partition_point(|&k| k < key) as u64).sum()
            };
            let windows =
                Windows { ranks_below: bounds.iter().map(|&(lo, _)| below(lo)).collect(), bounds };

            let index = ProbeIndex::windowed(&probes, &windows);
            let m = probes.len();
            let (mut counts, mut by_ranks) = (vec![0u64; m + 1], vec![0u64; m + 1]);
            let mut expect = vec![0u64; m];
            for (r, data) in ranks.iter().enumerate() {
                let spans: Vec<WindowSpan> = interval_bounds(data, &windows.bounds)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (start, end))| start < end)
                    .map(|(window, (start, end))| WindowSpan { window, start, end })
                    .collect();
                if r == ranks.len() - 1 {
                    assert!(spans.is_empty(), "case {case}: the strays hit a window");
                }
                for span in &spans {
                    let (n, m) = (span.end - span.start, index.window_probes(span.window).len());
                    arms.push((classify_strategy(n, m), compares_every_pair(n, m)));
                }
                let local = local_ranks(data, &probes);
                index.add_window_counts(data, &spans, &mut counts);
                index.add_window_ranks(&spans, &local, &mut by_ranks);
                expect.iter_mut().zip(&local).for_each(|(sum, rank)| *sum += rank);
            }
            let prefix_sums = |counts: &[u64]| -> Vec<u64> {
                let running = counts[..m].iter().scan(0, |sum, count| {
                    *sum += count;
                    Some(*sum)
                });
                running.collect()
            };
            assert_eq!(index.ranks_from_prefix(prefix_sums(&counts)), expect, "case {case}");
            assert_eq!(index.ranks_from_prefix(prefix_sums(&by_ranks)), expect, "case {case}");
        }
        // Every arm, and the comparing count, in place of the tree and of
        // another arm.
        for arm in [
            ClassifyStrategy::BinarySearch,
            ClassifyStrategy::MergeSweep,
            ClassifyStrategy::DecisionTree,
        ] {
            assert!(arms.contains(&(arm, false)), "no window took {arm:?}");
        }
        assert!(arms.contains(&(ClassifyStrategy::DecisionTree, true)));
        assert!(arms.contains(&(ClassifyStrategy::BinarySearch, true)));
    }

    #[test]
    #[should_panic(expected = "a probe lies outside the windows")]
    fn a_probe_outside_every_window_panics() {
        let windows = Windows { bounds: vec![(10u64, 20), (30, 40)], ranks_below: vec![0, 5] };
        let _ = ProbeIndex::windowed(&[15, 25, 35], &windows);
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
