//! Branch-free decision-tree classification (the IPS⁴o technique).
//!
//! Every splitter-based phase ultimately answers the same question: *which
//! bucket does this key fall into?*  Answering it with one
//! `partition_point` per key costs `O(log m)` **branchy** comparisons whose
//! outcome the hardware cannot predict, so each key's search serialises on
//! the previous one's mispredictions.  The paper's histogramming step makes
//! this the per-round bottleneck at large `p` (probe sets of size `~5p`
//! against `N/p` local keys, §5.1.2).
//!
//! [`DecisionTree`] removes both problems at once:
//!
//! * the `m` splitters are laid out as an **implicit binary heap**
//!   (Eytzinger order) padded to a power of two with `MAX_KEY` sentinels,
//!   so a descend step is `node = 2*node + (tree[node] <= key)` — index
//!   arithmetic plus one flag, **no branch**;
//! * the unrolled drivers keep **eight keys in flight**, so the eight
//!   independent descends pipeline and the tree's top levels stay in L1.
//!
//! The module also owns [`ClassifyStrategy`]: the shared three-way heuristic
//! ([`classify_strategy`]) that every adaptive classification site —
//! [`crate::histogram::local_ranks`],
//! [`crate::splitters::SplitterSet::bucket_boundaries`], the interval
//! searches in [`crate::sampling`] — uses to pick between per-key binary
//! search, one merged linear sweep, and the decision tree, and that the cost
//! accounting ([`classify_work`]) charges by the strategy actually executed
//! (the PR 5 convention documented in `core::local_sort`).
//!
//! A tree is built once per classification pass and shared, as in IPS⁴o:
//! [`crate::splitters::SplitterSet`] caches the one its exchange plans
//! route through, and a histogramming round — the same `~5p` probes
//! against every rank — builds one behind [`crate::histogram::ProbeIndex`]
//! that all ranks count through ([`DecisionTree::add_histogram`]).  Only
//! the *charge* stays per rank, because a real rank would build its own.

use hss_keygen::{Key, Keyed};
use hss_sim::Work;

/// `ceil(log2 x)` for `x >= 1` (0 for `x <= 1`).
#[inline]
pub(crate) fn ceil_log2(x: usize) -> usize {
    if x <= 1 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as usize
    }
}

/// Height of the implicit tree over `m` splitters: the number of descend
/// steps one classification performs (`log2` of the padded leaf count).
pub fn tree_height(m: usize) -> usize {
    ceil_log2((m + 1).next_power_of_two())
}

/// How an adaptive classification site answers `m` probe/splitter queries
/// against `n` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifyStrategy {
    /// One `partition_point` per probe over the sorted data
    /// (`O(m log n)`) — best when probes are sparse relative to the data.
    BinarySearch,
    /// One merged linear sweep over sorted data and sorted probes
    /// (`O(n + m)`) — best when both sides are dense and comparable in
    /// size.
    MergeSweep,
    /// Branch-free decision-tree descends, eight keys in flight
    /// (`O(m + n log m)` with a much smaller per-step constant) — best in
    /// the dense-probe large-`p` histogramming regime (`m >> n`) and the
    /// only option on unsorted data.
    DecisionTree,
}

/// Pipeline penalty applied to the branchy strategies when comparing
/// against the branch-free tree descend.  On unsorted uniform keys a
/// per-key binary-search step measured 1.4–1.8× a tree descend step over
/// 32 to 4096 buckets; the penalty sits above that, at 4, so the sparse-
/// and balanced-probe shapes keep their historical arm and the tree takes
/// only the dense-probe shapes.
const BRANCH_PENALTY: usize = 4;

/// Pick the cheapest strategy for `m` sorted probes against `n` sorted
/// keys.  Deterministic integer arithmetic; ties prefer
/// [`ClassifyStrategy::BinarySearch`], then [`ClassifyStrategy::MergeSweep`]
/// (the historical two-way rule), so existing sparse- and balanced-shape
/// behaviour is unchanged and the tree takes over exactly the dense-probe
/// shapes it wins on.
pub fn classify_strategy(n: usize, m: usize) -> ClassifyStrategy {
    let binary = BRANCH_PENALTY * m * ceil_log2(n.max(2)).max(1);
    let sweep = BRANCH_PENALTY * (n + m);
    // Tree cost: build (`~m`) + `n` descends of `tree_height(m)` steps.
    let tree = m + n * tree_height(m).max(1);
    if binary <= sweep && binary <= tree {
        ClassifyStrategy::BinarySearch
    } else if sweep <= tree {
        ClassifyStrategy::MergeSweep
    } else {
        ClassifyStrategy::DecisionTree
    }
}

/// One step of a [`ClassifyStrategy::MergeSweep`]: from position `i`, skip
/// the keys of `sorted` that `before` accepts and return the first one it
/// rejects.  `before` must hold on a prefix of the sorted keys (`key < s`,
/// `key <= hi`).  It looks at four keys at a time: if it accepts the
/// fourth it accepts the block, else the step ends inside the block, by the
/// count of the three keys before it that it accepts.  The only branch asks
/// whether a whole block was skipped — predictable whether the sweep moves
/// a key or a thousand per query, where a per-key loop mispredicts once per
/// query.  In the dense sweeps of the paper's regime a query moves about a
/// key, so a step rarely needs more than the first block: four keys a
/// block measured 7.3–7.5 → 5.3–5.6 ms over eight for all 1024 ranks'
/// interval bounds at `p = 1024` (`local_phases/interval_bounds`), and
/// 4.5–4.6 → 3.4–3.6 ms for their bucket boundaries.  (Counting all of a
/// block and testing the count measured 2x slower than the per-key loop:
/// the compiler gathers the flags into a vector mask first.)
#[inline]
pub(crate) fn sweep_past<T: Keyed>(
    sorted: &[T],
    mut i: usize,
    before: impl Fn(T::K) -> bool,
) -> usize {
    const BLOCK: usize = 4;
    while let Some(block) = sorted.get(i..i + BLOCK) {
        if before(block[BLOCK - 1].key()) {
            i += BLOCK;
            continue;
        }
        let accepted: usize = block[..BLOCK - 1].iter().map(|x| before(x.key()) as usize).sum();
        return i + accepted;
    }
    while i < sorted.len() && before(sorted[i].key()) {
        i += 1;
    }
    i
}

/// The [`Work`] a classification of shape `(n, m)` actually performs,
/// matching [`classify_strategy`] arm for arm: binary-search cost, a linear
/// `n + m` scan, or tree build (`m`) + `n` charged descends + prefix
/// accumulation (`m`).  Every adaptive site charges through this helper so
/// the simulated cost always follows the executed strategy.
pub fn classify_work(n: usize, m: usize) -> Work {
    match classify_strategy(n, m) {
        ClassifyStrategy::BinarySearch => Work::binary_search(m, n),
        ClassifyStrategy::MergeSweep => Work::scan(n + m),
        ClassifyStrategy::DecisionTree => Work::classify(n, tree_height(m)).and(Work::scan(2 * m)),
    }
}

/// Keys a [`DecisionTree`] descends at once.  Eight in flight took the
/// first histogramming round at `p = 1024` (1024 ranks × 1024 keys against
/// ~5120 probes) from 12–14 to 8–10 ms on one thread; on two threads of the
/// 2-core host `local_phases/histogram_round/1024x1024-m5120-powerlaw`
/// read 7.2–10.5 → 5.8–7.4 ms, flat on its quieter runs.
const LANES: usize = 8;

/// An implicit-heap decision tree over `m` sorted splitters, classifying
/// keys into `m + 1` buckets branch-free.
///
/// Layout: the splitters (padded with `MAX_KEY` sentinels to `leaves - 1`
/// entries, `leaves = (m+1).next_power_of_two()`) fill the internal nodes
/// `1..leaves` of a complete binary tree in symmetric (in-order) order, so
/// a root-to-leaf descend reproduces `partition_point` over the padded
/// array.  The sentinel padding is exact, not approximate: a `MAX_KEY` pad
/// entry only counts for keys equal to `MAX_KEY`, whose true bucket is `m`
/// anyway, so clamping the landing leaf to `m` returns precisely
/// `splitters.partition_point(..)` for **every** key, duplicates and
/// sentinels included (proved exhaustively by the unit tests and fuzzed in
/// `tests/classify_differential.rs`).
#[derive(Debug, Clone)]
pub struct DecisionTree<K: Key> {
    /// Internal nodes `1..leaves`; index 0 is unused.
    tree: Vec<K>,
    /// Padded leaf count (`(m+1).next_power_of_two()`).
    leaves: usize,
    /// Descend steps per key: `log2(leaves)`.
    height: u32,
    /// Real (unpadded) splitter count `m`.
    splitters: usize,
}

impl<K: Key> DecisionTree<K> {
    /// Build the tree from sorted splitters (duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if the splitters are not sorted in non-decreasing order.
    pub fn from_splitters(splitters: &[K]) -> Self {
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]), "splitters must be sorted");
        let m = splitters.len();
        let leaves = (m + 1).next_power_of_two();
        // The padded in-order sequence the internal nodes hold.
        let mut padded: Vec<K> = Vec::with_capacity(leaves - 1);
        padded.extend_from_slice(splitters);
        padded.resize(leaves - 1, K::MAX_KEY);
        // Fill internal node `node` with the median of its in-order range
        // (half-open over `padded`), children recursing on the halves —
        // the standard sorted-array -> Eytzinger transform, done with an
        // explicit stack like the exemplar in SNIPPETS.md.
        let mut tree = vec![K::MIN_KEY; leaves];
        let mut stack = vec![(0usize, leaves - 1, 1usize)];
        while let Some((lo, hi, node)) = stack.pop() {
            if lo >= hi {
                continue;
            }
            let mid = (lo + hi) / 2;
            tree[node] = padded[mid];
            stack.push((lo, mid, 2 * node));
            stack.push((mid + 1, hi, 2 * node + 1));
        }
        Self { tree, leaves, height: leaves.trailing_zeros(), splitters: m }
    }

    /// Number of buckets the tree classifies into (`m + 1`).
    pub fn buckets(&self) -> usize {
        self.splitters + 1
    }

    /// Descend steps one classification performs.
    pub fn height(&self) -> usize {
        self.height as usize
    }

    /// One branch-free descend step.  `LE` selects the comparison flavour:
    /// `true` counts splitters `<= key` (the [`bucket_of`] routing
    /// convention, keys equal to a splitter go right), `false` counts
    /// splitters `< key`.
    ///
    /// [`bucket_of`]: DecisionTree::bucket_of
    ///
    /// # Safety (of the internal `get_unchecked`)
    ///
    /// Callers descend exactly `self.height` steps starting from node 1;
    /// at step `t` the node index lies in `[2^t, 2^{t+1})`, so every
    /// access stays below `leaves == tree.len()`.  This invariant is local
    /// to the two drivers below (the same documented-unsafe-hot-loop
    /// convention as `hss-lsort`'s classify loop).
    #[inline(always)]
    fn step<const LE: bool>(&self, node: usize, key: K) -> usize {
        let s = unsafe { *self.tree.get_unchecked(node) };
        let right = if LE { s <= key } else { s < key };
        2 * node + usize::from(right)
    }

    /// Map a landing leaf (node index in `[leaves, 2*leaves)`) to its
    /// bucket, clamping the sentinel padding back onto bucket `m`.
    #[inline(always)]
    fn leaf_bucket(&self, node: usize) -> usize {
        (node - self.leaves).min(self.splitters)
    }

    /// Fully descend one key.
    #[inline(always)]
    fn descend<const LE: bool>(&self, key: K) -> usize {
        let mut node = 1usize;
        for _ in 0..self.height {
            node = self.step::<LE>(node, key);
        }
        self.leaf_bucket(node)
    }

    /// The bucket a key routes to: the number of splitters `<= key`
    /// (identical to [`crate::splitters::SplitterSet::bucket_of`]).
    pub fn bucket_of(&self, key: K) -> usize {
        if self.splitters == 0 {
            return 0;
        }
        self.descend::<true>(key)
    }

    /// The unrolled driver: classify every item, [`LANES`] keys in flight,
    /// and feed each bucket index (in **input order**) to `f`.
    #[inline]
    fn for_each_bucket<T: Keyed<K = K>, const LE: bool>(
        &self,
        data: &[T],
        mut f: impl FnMut(usize),
    ) {
        if self.splitters == 0 {
            for _ in data {
                f(0);
            }
            return;
        }
        let mut chunks = data.chunks_exact(LANES);
        for c in &mut chunks {
            let keys: [K; LANES] = std::array::from_fn(|lane| c[lane].key());
            let mut nodes = [1usize; LANES];
            // Eight independent descends per iteration: no step depends on
            // another key's outcome, so the loads and flag updates
            // pipeline across the lanes.
            for _ in 0..self.height {
                for (node, &key) in nodes.iter_mut().zip(&keys) {
                    *node = self.step::<LE>(*node, key);
                }
            }
            for node in nodes {
                f(self.leaf_bucket(node));
            }
        }
        for x in chunks.remainder() {
            f(self.descend::<LE>(x.key()));
        }
    }

    /// Per-bucket counts of `data` under the `<=` routing convention
    /// (bucket `b` counts keys with exactly `b` splitters `<= key`).
    /// `data` need **not** be sorted.
    pub fn histogram<T: Keyed<K = K>>(&self, data: &[T]) -> Vec<u64> {
        let mut counts = vec![0u64; self.buckets()];
        self.add_histogram(data, &mut counts);
        counts
    }

    /// [`histogram`](Self::histogram) in accumulate form: add `data`'s
    /// per-bucket counts to `counts` (one slot per bucket).  This is what
    /// lets one tree — and one count vector — serve every rank of a
    /// histogramming round ([`crate::histogram::ProbeIndex`]).
    pub fn add_histogram<T: Keyed<K = K>>(&self, data: &[T], counts: &mut [u64]) {
        assert_eq!(counts.len(), self.buckets(), "one count slot per bucket");
        self.for_each_bucket::<T, true>(data, |b| counts[b] += 1);
    }

    /// Per-bucket counts under the strict-`<` flavour.
    pub fn histogram_lt<T: Keyed<K = K>>(&self, data: &[T]) -> Vec<u64> {
        let mut counts = vec![0u64; self.buckets()];
        self.for_each_bucket::<T, false>(data, |b| counts[b] += 1);
        counts
    }

    /// The routing bucket of every item, in input order (the
    /// `partition_unsorted` driver).
    pub fn bucket_indices<T: Keyed<K = K>>(&self, data: &[T]) -> Vec<u32> {
        debug_assert!(self.buckets() <= u32::MAX as usize);
        let mut out = Vec::with_capacity(data.len());
        self.for_each_bucket::<T, true>(data, |b| out.push(b as u32));
        out
    }

    /// The number of data keys strictly below each splitter: classify every
    /// key, histogram, prefix-sum.  Splitter `j` is `>` exactly the keys
    /// whose `<=`-bucket is at most `j`, so
    /// `ranks_lt[j] = Σ_{b<=j} histogram[b]`.  Equals
    /// [`crate::histogram::local_ranks`] on sorted data, but works on
    /// unsorted data too.
    pub fn ranks_lt<T: Keyed<K = K>>(&self, data: &[T]) -> Vec<u64> {
        prefix_ranks(&self.histogram(data), self.splitters)
    }

    /// The number of data keys `<=` each splitter (the dual flavour:
    /// prefix sums of the strict-`<` histogram).  Equals
    /// [`crate::histogram::local_ranks_le`].
    pub fn ranks_le<T: Keyed<K = K>>(&self, data: &[T]) -> Vec<u64> {
        prefix_ranks(&self.histogram_lt(data), self.splitters)
    }
}

/// Prefix-sum the first `m` buckets of a histogram into per-splitter ranks.
fn prefix_ranks(hist: &[u64], m: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(m);
    let mut acc = 0u64;
    for &h in &hist[..m] {
        acc += h;
        out.push(acc);
    }
    out
}

/// The shapes the sweep tests cover: every count up to 17 (around the
/// sweep's blocks, the tree's lanes and their tails) and 63–65.
#[cfg(test)]
pub(crate) const SWEEP_SIZES: [usize; 21] =
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 63, 64, 65];

/// A pool value as a sweep-test key: the top of the pool is `MAX_KEY`, the
/// bottom `MIN_KEY` (zero).
#[cfg(test)]
pub(crate) fn sweep_key(x: u64, top: u64) -> u64 {
    if x >= top {
        u64::MAX
    } else {
        x
    }
}

/// `n` sorted data keys for the sweep tests, drawn from the pool
/// `0..=top` (see [`sweep_key`]) with many repeats, so that keys equal to
/// query endpoints come in runs.
#[cfg(test)]
pub(crate) fn sweep_data(n: usize, top: u64, state: &mut u64) -> Vec<u64> {
    let mut data: Vec<u64> = (0..n).map(|_| sweep_key(xorshift(state) % (top + 1), top)).collect();
    data.sort_unstable();
    data
}

/// One step of a xorshift64 stream.
#[cfg(test)]
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_bucket(splitters: &[u64], key: u64) -> usize {
        splitters.partition_point(|s| *s <= key)
    }

    fn oracle_bucket_lt(splitters: &[u64], key: u64) -> usize {
        splitters.partition_point(|s| *s < key)
    }

    /// The strict-`<` bucket of one key, read off a one-key histogram.
    fn bucket_lt(tree: &DecisionTree<u64>, key: u64) -> usize {
        tree.histogram_lt(&[key]).iter().position(|&c| c == 1).expect("one key, one bucket")
    }

    #[test]
    fn bucket_of_matches_partition_point_exhaustively() {
        // Every splitter count from 0 to 40 (crossing several power-of-two
        // pads), probed at every key in range plus the sentinels.
        for m in 0..=40usize {
            let splitters: Vec<u64> = (0..m as u64).map(|i| 2 * i + 1).collect();
            let tree = DecisionTree::from_splitters(&splitters);
            assert_eq!(tree.buckets(), m + 1);
            for key in 0..=(2 * m as u64 + 2) {
                assert_eq!(tree.bucket_of(key), oracle_bucket(&splitters, key), "m={m} key={key}");
                assert_eq!(
                    bucket_lt(&tree, key),
                    oracle_bucket_lt(&splitters, key),
                    "m={m} key={key}"
                );
            }
            assert_eq!(tree.bucket_of(u64::MIN), 0);
            assert_eq!(tree.bucket_of(u64::MAX), m, "MAX_KEY must land in the last bucket");
            assert_eq!(bucket_lt(&tree, u64::MAX), m);
        }
    }

    #[test]
    fn duplicate_splitters_route_like_the_oracle() {
        let splitters = vec![10u64, 10, 10, 20, 20];
        let tree = DecisionTree::from_splitters(&splitters);
        for key in [0u64, 9, 10, 11, 19, 20, 21, u64::MAX] {
            assert_eq!(tree.bucket_of(key), oracle_bucket(&splitters, key), "key {key}");
            assert_eq!(bucket_lt(&tree, key), oracle_bucket_lt(&splitters, key), "key {key}");
        }
        // A key equal to a run of duplicates hops over the whole run.
        assert_eq!(tree.bucket_of(10), 3);
        assert_eq!(bucket_lt(&tree, 10), 0);
    }

    #[test]
    fn sentinel_splitters_are_handled() {
        // Splitters at the key-space extremes interact with the MAX_KEY
        // padding; the clamp must keep everything exact.
        let splitters = vec![u64::MIN, 5, u64::MAX];
        let tree = DecisionTree::from_splitters(&splitters);
        for key in [u64::MIN, 1, 5, 6, u64::MAX - 1, u64::MAX] {
            assert_eq!(tree.bucket_of(key), oracle_bucket(&splitters, key), "key {key}");
            assert_eq!(bucket_lt(&tree, key), oracle_bucket_lt(&splitters, key), "key {key}");
        }
    }

    #[test]
    fn empty_tree_routes_everything_to_bucket_zero() {
        let tree = DecisionTree::<u64>::from_splitters(&[]);
        assert_eq!(tree.buckets(), 1);
        assert_eq!(tree.height(), 0);
        assert_eq!(tree.bucket_of(42), 0);
        assert_eq!(tree.bucket_of(u64::MAX), 0);
        assert_eq!(tree.histogram(&[1u64, 2, 3]), vec![3]);
        assert!(tree.ranks_lt(&[1u64, 2, 3]).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_splitters_panic() {
        let _ = DecisionTree::from_splitters(&[5u64, 3]);
    }

    #[test]
    fn four_wide_driver_agrees_with_scalar_descends() {
        // Lengths around the boundaries of the lane chunks.
        let splitters: Vec<u64> = (1..30).map(|i| i * 13).collect();
        let tree = DecisionTree::from_splitters(&splitters);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100] {
            let data: Vec<u64> = (0..len as u64).map(|i| (i * 97) % 401).collect();
            let ids = tree.bucket_indices(&data);
            let expect: Vec<u32> =
                data.iter().map(|&k| oracle_bucket(&splitters, k) as u32).collect();
            assert_eq!(ids, expect, "len {len}");
        }
    }

    #[test]
    fn ranks_match_binary_search_on_unsorted_data() {
        let probes: Vec<u64> = (0..64).map(|i| i * 7).collect();
        let data: Vec<u64> = (0..500u64).map(|i| (i * 193) % 450).collect();
        let tree = DecisionTree::from_splitters(&probes);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let expect_lt: Vec<u64> =
            probes.iter().map(|p| sorted.partition_point(|x| x < p) as u64).collect();
        let expect_le: Vec<u64> =
            probes.iter().map(|p| sorted.partition_point(|x| x <= p) as u64).collect();
        assert_eq!(tree.ranks_lt(&data), expect_lt);
        assert_eq!(tree.ranks_le(&data), expect_le);
    }

    #[test]
    fn tree_height_is_log_of_padded_leaves() {
        assert_eq!(tree_height(0), 0);
        assert_eq!(tree_height(1), 1);
        assert_eq!(tree_height(3), 2);
        assert_eq!(tree_height(4), 3);
        assert_eq!(tree_height(7), 3);
        assert_eq!(tree_height(8), 4);
        assert_eq!(tree_height(4095), 12);
    }

    #[test]
    fn strategy_picks_each_arm_in_its_regime() {
        // Sparse probes over big data: per-probe binary search.
        assert_eq!(classify_strategy(4096, 4), ClassifyStrategy::BinarySearch);
        // Balanced dense shapes: the merged sweep.
        assert_eq!(classify_strategy(1000, 1000), ClassifyStrategy::MergeSweep);
        // Dense probes dwarfing the data (large-p histogramming): the tree.
        assert_eq!(classify_strategy(3, 64), ClassifyStrategy::DecisionTree);
        assert_eq!(classify_strategy(1000, 40960), ClassifyStrategy::DecisionTree);
        // Degenerate shapes stay deterministic.
        assert_eq!(classify_strategy(0, 0), ClassifyStrategy::BinarySearch);
    }

    #[test]
    fn classify_work_follows_the_strategy() {
        use hss_sim::Work;
        assert_eq!(classify_work(4096, 4), Work::binary_search(4, 4096));
        assert_eq!(classify_work(1000, 1000), Work::scan(2000));
        assert_eq!(classify_work(3, 64), Work::classify(3, tree_height(64)).and(Work::scan(128)));
    }

    #[test]
    fn sweep_past_stops_at_the_partition_point_from_every_start() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for n in SWEEP_SIZES {
            for top in [1u64, 4, 40] {
                let data = sweep_data(n, top, &mut state);
                for q in (0..=top).map(|x| sweep_key(x, top)) {
                    let lt = data.partition_point(|&k| k < q);
                    let le = data.partition_point(|&k| k <= q);
                    for i in 0..=n {
                        assert_eq!(sweep_past(&data, i, |k| k < q), lt.max(i), "n {n}, {q}, i {i}");
                        assert_eq!(
                            sweep_past(&data, i, |k| k <= q),
                            le.max(i),
                            "n {n}, {q}, i {i}"
                        );
                    }
                }
            }
        }
    }
}
