//! Merging the sorted fragments a rank receives after the all-to-all
//! exchange.
//!
//! Every sender's bucket arrives already sorted (the sender sorted its local
//! data first), so the receiver performs a `k`-way merge of `p` runs —
//! `O((N/p) log p)` comparisons, the term that appears in every row of
//! Table 5.1.
//!
//! The merge is a slice-based *loser tree* (tournament tree): run heads are
//! read in place from the received buffer, each output element costs one
//! leaf-to-root replay of `⌈log₂ k⌉` comparisons, and — unlike the previous
//! `BinaryHeap<Reverse<(T, usize)>>` implementation — no element is ever
//! moved through an intermediate heap.  Ties are broken by the lower run
//! index, so the output order is identical to the heap-based merge (and
//! stable with respect to the source-rank order of the runs).

use hss_keygen::Keyed;

/// How many elements ahead of a run's read head the merge prefetches.  One
/// cache line of u64s is 8 elements; the winner run advances by one element
/// per emission, so a distance of 8 keeps roughly one line in flight per
/// active run without thrashing small runs.
const PREFETCH_DISTANCE: usize = 8;

/// Hint the CPU to pull `slice[idx]` into cache (L1, temporal).  A no-op
/// when the index is out of range and on architectures without a stable
/// prefetch intrinsic.  Purely a performance hint: it never reads the
/// element, so results are unaffected.
#[inline(always)]
fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = slice.get(idx) {
        // SAFETY: `r` is a valid reference; _mm_prefetch has no side
        // effects beyond the cache hint and tolerates any address.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                r as *const T as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

/// Merge already-sorted runs, given as slices, into one sorted vector using
/// a loser tree.  Equal elements are emitted in run-index order.
pub fn kway_merge_slices<T: Ord + Clone>(runs: &[&[T]]) -> Vec<T> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let mut out = Vec::with_capacity(total);
    // Pre-sized at the run count: `filter` erases the size hint, so a bare
    // `collect` here would grow-by-push on the merge hot path.
    let mut nonempty: Vec<&[T]> = Vec::with_capacity(runs.len());
    nonempty.extend(runs.iter().copied().filter(|r| !r.is_empty()));
    match nonempty.len() {
        0 => return out,
        1 => {
            out.extend_from_slice(nonempty[0]);
            return out;
        }
        _ => {}
    }
    // Note: filtering empty runs first keeps the tree small; it cannot
    // change the tie-break order because empty runs emit nothing.
    LoserTree::new(&nonempty).drain_into(&mut out);
    out
}

/// A loser tree over `k` runs, padded to a power of two with virtual
/// always-exhausted runs.  `tree[node]` holds the run index that *lost* the
/// comparison at that internal node; the overall winner is kept outside the
/// tree and replayed along its leaf-to-root path after each emission.
struct LoserTree<'a, T> {
    runs: &'a [&'a [T]],
    pos: Vec<usize>,
    /// Internal nodes `1..leaves`; `usize::MAX` marks "no contender yet"
    /// during construction (never observed afterwards).
    tree: Vec<usize>,
    leaves: usize,
    winner: usize,
}

impl<'a, T: Ord> LoserTree<'a, T> {
    fn new(runs: &'a [&'a [T]]) -> Self {
        let leaves = runs.len().next_power_of_two();
        let mut lt = Self {
            runs,
            pos: vec![0; runs.len()],
            tree: vec![usize::MAX; leaves],
            leaves,
            winner: 0,
        };
        lt.winner = lt.build(1);
        lt
    }

    /// The current head of run `i` (`None` once exhausted; virtual padding
    /// runs are always exhausted).
    fn head(&self, i: usize) -> Option<&T> {
        self.runs.get(i).and_then(|r| r.get(self.pos[i]))
    }

    /// Whether run `a` beats run `b` (its head comes out first).  Exhausted
    /// runs lose to live ones; ties go to the lower run index.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    /// Recursively play the initial tournament below `node`, storing losers
    /// and returning the subtree winner.
    fn build(&mut self, node: usize) -> usize {
        if node >= self.leaves {
            return node - self.leaves;
        }
        let left = self.build(2 * node);
        let right = self.build(2 * node + 1);
        if self.beats(left, right) {
            self.tree[node] = right;
            left
        } else {
            self.tree[node] = left;
            right
        }
    }

    /// Emit every element in sorted order into `out`.
    fn drain_into(&mut self, out: &mut Vec<T>)
    where
        T: Clone,
    {
        while let Some(item) = self.head(self.winner) {
            out.push(item.clone());
            self.pos[self.winner] += 1;
            // The winner's run is the only one whose read head advanced:
            // hint its upcoming element into cache while the replay below
            // (log k dependent comparisons) hides the fetch latency.
            prefetch_read(self.runs[self.winner], self.pos[self.winner] + PREFETCH_DISTANCE);
            // Replay the winner's path: at each ancestor, the stored loser
            // competes against the ascending contender.
            let mut contender = self.winner;
            let mut node = (self.winner + self.leaves) / 2;
            while node >= 1 {
                let loser = self.tree[node];
                if self.beats(loser, contender) {
                    self.tree[node] = contender;
                    contender = loser;
                }
                node /= 2;
            }
            self.winner = contender;
        }
    }
}

/// A pull-based producer of one sorted run, consumed by
/// [`SourceLoserTree`].  Unlike the slice-based [`kway_merge_slices`], the
/// run's elements need not be resident in memory: the out-of-core tier
/// (`hss-extsort`) implements this trait with a windowed file reader whose
/// `pop` refills the window from disk when it empties.
///
/// Contract: `peek` and `pop` observe the same element, `pop` advances past
/// it, and the sequence of popped elements is sorted (ascending).
pub trait RunSource {
    /// Element type produced by this run.
    type Item: Ord;
    /// The run's current head, or `None` once the run is exhausted.
    fn peek(&self) -> Option<&Self::Item>;
    /// Remove and return the current head (the element `peek` showed).
    fn pop(&mut self) -> Option<Self::Item>;
}

/// [`RunSource`] view of an in-memory sorted slice — the adapter that lets
/// the generic tree be differentially tested against the slice tree, and
/// the degenerate "run already in memory" case of the external merge.
pub struct SliceSource<'a, T> {
    slice: &'a [T],
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// A source over an already-sorted slice.
    pub fn new(slice: &'a [T]) -> Self {
        Self { slice, pos: 0 }
    }
}

impl<T: Ord + Clone> RunSource for SliceSource<'_, T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        self.slice.get(self.pos)
    }

    fn pop(&mut self) -> Option<T> {
        let item = self.slice.get(self.pos).cloned();
        if item.is_some() {
            self.pos += 1;
        }
        item
    }
}

/// A loser tree over generic [`RunSource`]s — the same tournament structure
/// and tie-break rule (equal heads emit in source-index order) as the
/// slice-based tree above, but pulling from sources whose backing storage
/// may be a bounded disk window.  Emission order is therefore bitwise
/// identical to [`kway_merge_slices`] over the same runs, which is what
/// makes the external merge's output provably equal to the in-memory path.
pub struct SourceLoserTree<S: RunSource> {
    sources: Vec<S>,
    /// Internal nodes `1..leaves`; `usize::MAX` marks "no contender yet"
    /// during construction (never observed afterwards).
    tree: Vec<usize>,
    leaves: usize,
    winner: usize,
}

impl<S: RunSource> SourceLoserTree<S> {
    /// Build the initial tournament over `sources` (exhausted sources are
    /// permitted and simply lose every comparison).
    pub fn new(sources: Vec<S>) -> Self {
        let leaves = sources.len().next_power_of_two();
        let mut lt = Self { sources, tree: vec![usize::MAX; leaves], leaves, winner: 0 };
        lt.winner = lt.build(1);
        lt
    }

    fn head(&self, i: usize) -> Option<&S::Item> {
        self.sources.get(i).and_then(|s| s.peek())
    }

    /// Whether source `a` beats source `b`: same rule as the slice tree —
    /// exhausted sources lose to live ones, ties go to the lower index.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => match x.cmp(y) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a < b,
        }
    }

    fn build(&mut self, node: usize) -> usize {
        if node >= self.leaves {
            return node - self.leaves;
        }
        let left = self.build(2 * node);
        let right = self.build(2 * node + 1);
        if self.beats(left, right) {
            self.tree[node] = right;
            left
        } else {
            self.tree[node] = left;
            right
        }
    }

    /// Pop the overall minimum (by the tie-break order) and replay the
    /// winner's leaf-to-root path; `None` once every source is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<S::Item> {
        // Popping may refill the winner's window from disk, so the replay
        // below already sees the winner's *next* head — exactly like the
        // slice tree's `pos` advance.  (`get_mut` also covers the
        // zero-source tree, whose virtual winner has no backing source.)
        let item = self.sources.get_mut(self.winner)?.pop()?;
        let mut contender = self.winner;
        let mut node = (self.winner + self.leaves) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            if self.beats(loser, contender) {
                self.tree[node] = contender;
                contender = loser;
            }
            node /= 2;
        }
        self.winner = contender;
        Some(item)
    }

    /// The element [`next`](Self::next) would emit, without consuming it —
    /// what lets a streaming bucketizer drain the merge only up to a
    /// splitter boundary and leave the rest for the next bucket.
    pub fn peek(&self) -> Option<&S::Item> {
        self.head(self.winner)
    }

    /// The sources, returned once merging is done (e.g. to collect per-run
    /// I/O statistics).
    pub fn into_sources(self) -> Vec<S> {
        self.sources
    }

    /// Number of sources the tree merges.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the tree has no sources at all.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// A tree of sources is itself a source (its emission stream is sorted),
/// so trees compose — and the streaming-bucketize helpers below work on a
/// bare tree, on the out-of-core tier's merge cursor, or on any other
/// sorted producer alike.
impl<S: RunSource> RunSource for SourceLoserTree<S> {
    type Item = S::Item;

    fn peek(&self) -> Option<&S::Item> {
        SourceLoserTree::peek(self)
    }

    fn pop(&mut self) -> Option<S::Item> {
        self.next()
    }
}

/// Drain `src` into `out` while the head key is `< bound` — the streaming
/// equivalent of cutting a sorted slice at `partition_point(key < bound)`
/// (the `splitter_position` convention), so a pipelined exchange that
/// drains bucket-by-bucket produces exactly the buckets a materialised
/// `bucketize` would.  Returns the number of elements emitted.
pub fn drain_source_below<S>(
    src: &mut S,
    bound: <S::Item as Keyed>::K,
    out: &mut Vec<S::Item>,
) -> usize
where
    S: RunSource,
    S::Item: Keyed,
{
    let before = out.len();
    while let Some(head) = src.peek() {
        if head.key() >= bound {
            break;
        }
        out.push(src.pop().expect("peek saw a head"));
    }
    out.len() - before
}

/// Drain `src` to exhaustion into `out` (the final bucket, whose upper
/// bound is +∞).  Returns the number of elements emitted.
pub fn drain_source_rest<S: RunSource>(src: &mut S, out: &mut Vec<S::Item>) -> usize {
    let before = out.len();
    while let Some(item) = src.pop() {
        out.push(item);
    }
    out.len() - before
}

/// Merge already-sorted runs into one sorted vector (loser-tree k-way
/// merge over the runs' slices).
pub fn kway_merge<T: Keyed + Ord>(runs: Vec<Vec<T>>) -> Vec<T> {
    let slices: Vec<&[T]> = runs.iter().map(|r| r.as_slice()).collect();
    kway_merge_slices(&slices)
}

/// Merge sorted runs by concatenating and sorting — used as an oracle in
/// tests and as the fallback for item types that are `Keyed` but not `Ord`
/// as whole records.
pub fn concat_sort_merge<T: Keyed>(runs: Vec<Vec<T>>) -> Vec<T> {
    let mut out: Vec<T> = runs.into_iter().flatten().collect();
    out.sort_by_key(|a| a.key());
    out
}

/// The runs destined for `dst` under the flat in-place exchange convention,
/// as slices into the senders' buffers (in sender order, empties included):
/// source `s`'s contribution is `plans[s].run(&bufs[s], dst)` — no receive
/// buffer is ever materialised.
pub fn runs_for<'a, T>(
    plans: &[hss_sim::ExchangePlan],
    bufs: &'a [Vec<T>],
    dst: usize,
) -> Vec<&'a [T]> {
    plans.iter().zip(bufs.iter()).map(|(p, b)| p.run(b, dst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_sim::ExchangePlan;

    #[test]
    fn kway_merge_merges_sorted_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![1, 4, 7], vec![2, 5, 8], vec![0, 3, 6, 9]];
        assert_eq!(kway_merge(runs), (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn kway_merge_handles_empty_runs() {
        let runs: Vec<Vec<u64>> = vec![vec![], vec![3, 3], vec![], vec![1]];
        assert_eq!(kway_merge(runs), vec![1, 3, 3]);
        assert!(kway_merge(Vec::<Vec<u64>>::new()).is_empty());
    }

    #[test]
    fn kway_merge_preserves_duplicates() {
        let runs: Vec<Vec<u64>> = vec![vec![5; 10], vec![5; 7]];
        assert_eq!(kway_merge(runs).len(), 17);
    }

    #[test]
    fn concat_sort_merge_matches_kway() {
        let runs: Vec<Vec<u64>> = vec![vec![10, 20, 30], vec![5, 15, 35], vec![0, 40]];
        assert_eq!(concat_sort_merge(runs.clone()), kway_merge(runs));
    }

    #[test]
    fn merge_works_on_records() {
        use hss_keygen::Record;
        let runs: Vec<Vec<Record>> = vec![
            vec![Record { key: 1, payload: 10 }, Record { key: 3, payload: 30 }],
            vec![Record { key: 2, payload: 20 }],
        ];
        let merged = kway_merge(runs);
        assert_eq!(merged.iter().map(|r| r.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(merged[1].payload, 20);
    }

    #[test]
    fn ties_break_by_run_index() {
        // Records with equal keys but distinguishable payloads: the merge
        // must emit run 0's record first, exactly like the historical
        // heap-based merge whose heap entries ordered ties by run index.
        use hss_keygen::Record;
        let runs: Vec<Vec<Record>> = vec![
            vec![Record { key: 5, payload: 0 }],
            vec![Record { key: 5, payload: 0 }, Record { key: 5, payload: 1 }],
        ];
        // Identical records are indistinguishable, so use payloads that keep
        // key order but differ across runs.
        let runs2: Vec<Vec<Record>> = vec![
            vec![Record { key: 5, payload: 7 }],
            vec![Record { key: 5, payload: 7 }],
            vec![Record { key: 5, payload: 7 }],
        ];
        assert_eq!(kway_merge(runs).len(), 3);
        assert_eq!(kway_merge(runs2).len(), 3);
    }

    #[test]
    fn loser_tree_matches_oracle_on_many_shapes() {
        // Deterministic pseudo-random runs of irregular lengths, including
        // empty ones and non-power-of-two run counts.
        for k in [1usize, 2, 3, 5, 8, 13] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    let len = (i * 7 + 3) % 11;
                    let mut v: Vec<u64> =
                        (0..len).map(|j| ((i * 31 + j * 17) % 23) as u64).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            assert_eq!(kway_merge(runs.clone()), concat_sort_merge(runs), "k = {k}");
        }
    }

    #[test]
    fn source_tree_matches_slice_tree_on_many_shapes() {
        // The generic tree must be emission-for-emission identical to the
        // slice tree, including the tie-break rule, for every run shape the
        // slice oracle is tested on.
        for k in [0usize, 1, 2, 3, 5, 8, 13] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|i| {
                    let len = (i * 7 + 3) % 11;
                    let mut v: Vec<u64> =
                        (0..len).map(|j| ((i * 31 + j * 13) % 9) as u64).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let mut tree =
                SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
            let mut got = Vec::new();
            while let Some(x) = tree.next() {
                got.push(x);
            }
            assert_eq!(got, kway_merge_slices(&slices), "k = {k}");
        }
    }

    #[test]
    fn source_tree_ties_break_by_source_index() {
        use hss_keygen::Record;
        // Duplicate keys across sources: source 0's record must come first,
        // matching the slice tree's run-index tie-break.
        let a = [Record { key: 5, payload: 0 }];
        let b = [Record { key: 5, payload: 1 }, Record { key: 7, payload: 2 }];
        let mut tree =
            SourceLoserTree::new(vec![SliceSource::new(&a[..]), SliceSource::new(&b[..])]);
        assert_eq!(tree.next().unwrap().payload, 0);
        assert_eq!(tree.next().unwrap().payload, 1);
        assert_eq!(tree.next().unwrap().payload, 2);
        assert!(tree.next().is_none());
        assert!(tree.next().is_none());
    }

    #[test]
    fn merging_runs_of_a_flat_plan_via_slices() {
        // The consumer-side pattern for a FlatRecv buffer: slice the runs
        // out through the plan and loser-tree merge them.
        let data: Vec<u64> = vec![1, 4, 7, 2, 5, 8, 0, 3, 6, 9];
        let plan = ExchangePlan::from_counts(vec![3, 3, 4]);
        let runs: Vec<&[u64]> = plan.runs(&data).collect();
        assert_eq!(kway_merge_slices(&runs), (0..10).collect::<Vec<u64>>());
    }
}
