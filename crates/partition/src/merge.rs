//! Merging the sorted fragments a rank receives after the all-to-all
//! exchange.
//!
//! Every sender's bucket arrives already sorted (the sender sorted its local
//! data first), so the receiver performs a `k`-way merge of `p` runs —
//! `O((N/p) log p)` comparisons, the term that appears in every row of
//! Table 5.1, and the one [`Work::merge`](hss_sim::Work::merge) charges
//! whichever way the host finishes the runs.
//!
//! # Three arms
//!
//! [`kway_merge_slices`] (every in-memory finish) takes one of three arms,
//! picked by [`finish_arm`] from `(k, total, size_of::<T>())` with one
//! integer cost comparison and a width test, the way `classify_strategy`
//! picks a histogram arm:
//!
//! * **The re-sort**, for crumbs: the paper's regime (large `p`, small
//!   `N/p`) hands each rank ~650 runs of a key or two, where every emission
//!   climbs ten levels and loads a head from another sender's buffer.
//!   Gathering the runs and [`radix_sort`]ing them moves each key three
//!   times in cache instead.  Only an owner whose items fit the radix
//!   sort's cache-resident scratch re-sorts.
//! * **The pairwise merge**, for the other owners of one-word items (fan-in
//!   16's long runs, or crumbs past the scratch): adjacent runs merge two
//!   at a time, level by level, between the output and one scratch buffer.
//!   Each two-way merge runs from both ends at once, so a step carries two
//!   independent chains of one compare and two selects.  The tournament's
//!   replay is one chain of `⌈log₂ k⌉` dependent node loads, so moving a
//!   word `⌈log₂ k⌉` times costs less (at 16 × 32 768 `u64`, about 9
//!   against 20 ns a key on one thread).
//! * **The tournament**, for wider items: a loser tree whose replay costs
//!   `⌈log₂ k⌉` steps an item (below) and moves a 100-byte record once.
//!
//! The pairwise merge gives the tournament's bits outright.  Each two-way
//! merge is stable (the left run's item first among equals), and merging
//! adjacent runs stably, level by level, orders equal items by run index —
//! the tournament's tie-break.  This holds even for a key that breaks the
//! [`RadixSortable`] contract (the tests' `Stamped` key).
//!
//! The re-sort gives the same bits because of that contract: Ord-equal
//! items are identical, so a stable merge and an unstable sort of the same
//! multiset cannot differ.  (The tests compare the re-sort by `Ord` only.)
//!
//! The re-sort ([`resort_owners`]) also finishes a *block* of neighbouring
//! owners at once, which is how the rank-level finish
//! ([`merge_received`](crate::exchange::merge_received)) runs it.  Owners
//! partition the key space in order, so each sender holds one contiguous
//! sorted span for the whole block, and at ~1.6 keys a run the per-owner
//! gather would copy 650 crumbs an owner.  Gathering one span per sender,
//! sorting the block once and cutting it at the owners' totals gives each
//! owner exactly its own items, sorted: every item of an owner sorts before
//! every item of the next, so the cuts fall where the owners' outputs meet,
//! and within an owner the contract above makes the sort's order the
//! merge's.
//!
//! # The tournament
//!
//! The merge kernel is a *key-caching loser tree* (`Tournament`).
//! Each internal node holds the run that lost the comparison there **and
//! the first eight radix digits of that run's head**, packed big-endian
//! into a `u64` ([`RadixSortable::radix_byte`] — so signed integers, floats
//! and byte-string keys all order correctly).  Replaying the winner's
//! leaf-to-root path after an emission is then `⌈log₂ k⌉` steps of *one
//! node load, one integer compare and two selects*; no step touches the
//! runs' data.  Only when two prefixes are equal does the full [`Ord`]
//! comparison of the two heads run (never for types of at most eight
//! digits, whose prefix is their whole order), and only when that is equal
//! too does the lower run index win — the tie-break every merge in this
//! repository has always had, so the output is stable with respect to the
//! source-rank order of the runs.  An exhausted run is a node with prefix
//! `u64::MAX` and a flag bit *above* the run index: it loses to every live
//! head by the same integer compares (a live head whose prefix is also
//! `u64::MAX` wins on the flag), so the hot loop matches on no `Option`.
//!
//! The tournament owns no run; [`SourceLoserTree`] drives it over
//! [`RunSource`]s — leaves that know their head and how to advance past it.
//! The out-of-core tier implements the trait with bounded disk windows and
//! always merges by the tournament (its runs are on disk);
//! [`kway_merge_slices`]' tournament arm wraps each slice in a
//! [`SliceSource`] cursor, so both tiers run the same loop and emit in
//! bitwise identical order.  (A driver specialised to slice cursors
//! measured 3 % faster on the merge alone — under 1.5 % of a sort — and was
//! not kept.)

use hss_keygen::Keyed;
use hss_lsort::{radix_sort, RadixSortable};

/// Flag bit of [`Node::tag`]: the run has no head left.  It sits above the
/// run index so that, among equal prefixes, comparing tags orders every
/// live run before every exhausted one and otherwise by run index.
const EXHAUSTED: u32 = 1 << 31;

/// One contender of the tournament: a run and the cached prefix of its
/// current head.
#[derive(Clone, Copy)]
struct Node {
    /// [`RadixSortable::radix_prefix`] of the run's head; `u64::MAX` once
    /// exhausted.
    prefix: u64,
    /// The run index, with [`EXHAUSTED`] set once the run has no head.
    tag: u32,
}

impl Node {
    fn new<T: RadixSortable>(run: usize, head: Option<&T>) -> Self {
        match head {
            Some(x) => Node { prefix: x.radix_prefix(0), tag: run as u32 },
            None => Node { prefix: u64::MAX, tag: run as u32 | EXHAUSTED },
        }
    }

    /// The node as one integer: prefix first, then live before exhausted,
    /// then run index.
    fn rank(self) -> u128 {
        (self.prefix as u128) << 64 | self.tag as u128
    }

    fn run(self) -> usize {
        (self.tag & !EXHAUSTED) as usize
    }

    fn is_exhausted(self) -> bool {
        self.tag & EXHAUSTED != 0
    }
}

/// Whether `a` beats `b` (its head comes out first): one integer compare,
/// unless both are live with equal prefixes on a type whose order extends
/// beyond eight digits.
fn beats<'a, T: RadixSortable + 'a>(
    a: Node,
    b: Node,
    head: &impl Fn(usize) -> Option<&'a T>,
) -> bool {
    if T::RADIX_BYTES > 8 && a.prefix == b.prefix && (a.tag | b.tag) & EXHAUSTED == 0 {
        return beats_by_heads(a, b, head);
    }
    a.rank() < b.rank()
}

/// The tie arm of [`beats`]: the full [`Ord`] comparison of the two live
/// runs' heads (`head(run)`), then the lower run index.  Out of line so
/// that the replay loop around the common arm stays a chain of conditional
/// moves — inlined, the call turns its selects back into branches (the
/// `TeraRecord` merge ran 1.8x slower that way).
#[inline(never)]
fn beats_by_heads<'a, T: RadixSortable + 'a>(
    a: Node,
    b: Node,
    head: &impl Fn(usize) -> Option<&'a T>,
) -> bool {
    let (x, y) = (head(a.run()), head(b.run()));
    debug_assert!(x.is_some() && y.is_some(), "a live node caches an existing head");
    x.cmp(&y).then(a.tag.cmp(&b.tag)).is_lt()
}

/// A loser tree over `k` runs, padded to a power of two with virtual
/// always-exhausted runs: `nodes.len()` leaves, and `nodes[n]` for `n ≥ 1`
/// is the contender that *lost* at internal node `n` (`nodes[0]` is
/// unused).  The overall winner sits beside them, where a driver that
/// holds the tree in a local keeps it in a register — through `nodes[0]`
/// every emission waits on a store-to-load forward (8 % slower on `u64`
/// runs).  The tree owns no run: whoever drives it advances the winner's
/// leaf, then calls [`replay`](Self::replay) with a view of the run heads.
struct Tournament {
    nodes: Vec<Node>,
    winner: Node,
}

impl Tournament {
    /// Play the initial tournament over runs `0..k` with the given heads.
    fn new<'a, T: RadixSortable + 'a>(k: usize, head: impl Fn(usize) -> Option<&'a T>) -> Self {
        assert!(k < EXHAUSTED as usize, "run index must leave the flag bit free");
        let vacant = Node::new::<T>(0, None);
        let mut t = Self { nodes: vec![vacant; k.next_power_of_two()], winner: vacant };
        t.winner = t.build(1, k, &head);
        t
    }

    /// Play the tournament below `node`, storing losers and returning the
    /// subtree's winner.
    fn build<'a, T: RadixSortable + 'a>(
        &mut self,
        node: usize,
        k: usize,
        head: &impl Fn(usize) -> Option<&'a T>,
    ) -> Node {
        let leaves = self.nodes.len();
        if node >= leaves {
            let run = node - leaves;
            return Node::new(run, if run < k { head(run) } else { None });
        }
        let left = self.build(2 * node, k, head);
        let right = self.build(2 * node + 1, k, head);
        let (winner, loser) = if beats(left, right, head) { (left, right) } else { (right, left) };
        self.nodes[node] = loser;
        winner
    }

    /// The run whose head is the overall minimum; `None` once every run is
    /// exhausted.
    fn winner(&self) -> Option<usize> {
        (!self.winner.is_exhausted()).then(|| self.winner.run())
    }

    /// Re-seat the winner after its leaf advanced: re-read its head and let
    /// it climb to the root, swapping with every stored loser that beats
    /// it.  The selects compile to conditional moves; the only data-dependent
    /// branch is the equal-prefix one inside [`beats`].
    fn replay<'a, T: RadixSortable + 'a>(&mut self, head: impl Fn(usize) -> Option<&'a T>) {
        let run = self.winner.run();
        let mut contender = Node::new(run, head(run));
        let mut node = (run + self.nodes.len()) >> 1;
        while node >= 1 {
            let stored = self.nodes[node];
            let stored_wins = beats(stored, contender, &head);
            self.nodes[node] = if stored_wins { contender } else { stored };
            contender = if stored_wins { stored } else { contender };
            node >>= 1;
        }
        self.winner = contender;
    }
}

/// How [`kway_merge_slices`] finishes its runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishArm {
    /// The key-caching loser tree.
    Merge,
    /// Merge adjacent runs pairwise, level by level, each two-way merge
    /// running from both ends at once.
    Pairwise,
    /// Gather the runs and [`radix_sort`] them.
    Resort,
}

/// The arm that finishes `k` non-empty runs of `total` items of `T`: one
/// integer comparison of the per-item costs, in tournament replay steps,
/// then a width test.
///
/// * The tournament pays `2 + ⌈log₂ k⌉` steps an item (the replay, plus
///   the emission and the head load of a run that is elsewhere in memory).
/// * The re-sort pays three passes an item (the gather and the radix
///   sort's two counting scatters), each moving the whole item, so it
///   costs three times its width in words.
///
/// Only a `total` that fits the radix sort's cache-resident scratch
/// (`256 *` [`BLOCK`](hss_lsort::BLOCK) items) re-sorts: that is where the
/// two were measured against each other.  Anything larger merges, and so
/// do ties.
///
/// A merge of at least two runs of one-word items is pairwise: moving a
/// word `⌈log₂ k⌉` times costs less than the tournament's chain of
/// dependent replay steps.  Wider items go to the tournament, which moves
/// each item once.
///
/// So a thousand keys from fan-in 650 (the paper's regime) re-sort; half a
/// million keys from fan-in 16, or 26 000 from fan-in 650, merge pairwise;
/// and a 100-byte record (13 words) always goes to the tournament.
pub fn finish_arm<T>(k: usize, total: usize) -> FinishArm {
    let words = std::mem::size_of::<T>().div_ceil(8);
    let merge_steps = 2 + crate::classify::ceil_log2(k);
    if total <= 256 * hss_lsort::BLOCK && 3 * words < merge_steps {
        FinishArm::Resort
    } else if k >= 2 && std::mem::size_of::<T>() <= 8 {
        FinishArm::Pairwise
    } else {
        FinishArm::Merge
    }
}

/// Merge already-sorted runs, given as slices, into one sorted vector.
/// Equal elements are emitted in run-index order.
///
/// The arm is [`finish_arm`]'s.  The pairwise merge keeps the run-index
/// tie-break itself.  The re-sort is the same output bit for bit by the
/// [`RadixSortable`] contract: Ord-equal items are identical, so the order
/// among them is invisible.
pub fn kway_merge_slices<T: RadixSortable>(runs: &[&[T]]) -> Vec<T> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    // Pre-sized at the run count: `filter` erases the size hint, so a bare
    // `collect` here would grow-by-push on the merge hot path.  Dropping
    // empty runs keeps the tree small and cannot change the tie-break
    // order, because empty runs emit nothing.
    let mut live: Vec<&[T]> = Vec::with_capacity(runs.len());
    live.extend(runs.iter().copied().filter(|r| !r.is_empty()));
    if let [only] = live[..] {
        return only.to_vec();
    }
    match finish_arm::<T>(live.len(), total) {
        FinishArm::Resort => resort_owners(live, &[total]).swap_remove(0),
        FinishArm::Pairwise => pairwise_merge(&live, total),
        FinishArm::Merge => {
            let mut out = Vec::with_capacity(total);
            let mut tree = SourceLoserTree::new(live.into_iter().map(SliceSource::new).collect());
            drain_source_rest(&mut tree, &mut out);
            out
        }
    }
}

/// The pairwise arm: merge adjacent runs, (0, 1), (2, 3) and so on, level
/// by level until one run is left; an odd last run is carried to the next
/// level as it is.  Levels alternate between the output and one scratch
/// buffer of `total` items, starting where the last level lands in the
/// output.
fn pairwise_merge<T: Ord + Copy>(runs: &[&[T]], total: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(total);
    let mut scratch = Vec::with_capacity(total);
    let (mut dst, mut src) = if crate::classify::ceil_log2(runs.len()) % 2 == 1 {
        (&mut out, &mut scratch)
    } else {
        (&mut scratch, &mut out)
    };
    let mut lens = merge_level(runs, dst);
    while lens.len() > 1 {
        std::mem::swap(&mut dst, &mut src);
        let mut rest = src.as_slice();
        let runs: Vec<&[T]> = lens
            .iter()
            .map(|&n| {
                let (run, tail) = rest.split_at(n);
                rest = tail;
                run
            })
            .collect();
        lens = merge_level(&runs, dst);
    }
    out
}

/// One level of [`pairwise_merge`]: `dst` becomes `runs` merged in adjacent
/// pairs, back to back (an odd last run merges with nothing, which copies
/// it).  Returns the merged runs' lengths.
fn merge_level<T: Ord + Copy>(runs: &[&[T]], dst: &mut Vec<T>) -> Vec<usize> {
    dst.clear();
    runs.chunks(2)
        .map(|pair| {
            let (a, b) = (pair[0], pair.get(1).copied().unwrap_or_default());
            let (at, n) = (dst.len(), a.len() + b.len());
            merge_two(a, b, &mut dst.spare_capacity_mut()[..n]);
            // SAFETY: `merge_two` wrote all `n` slots past the first `at`.
            unsafe { dst.set_len(at + n) };
            n
        })
        .collect()
}

/// Merge sorted `a` and `b` stably (`a`'s item first among equals) into
/// `dst`, which has a slot for each item, from both ends at once.  The
/// front takes `a`'s head unless `b`'s is smaller, the back takes `b`'s
/// tail unless `a`'s is larger, and both ends run `min(|a|, |b|)` steps:
/// two independent chains of branch-free selects.  The front's `t` items
/// are the stable merge's first `t` and the back's its last `t`, so they
/// never overlap; an end may compare an item the other end already took,
/// but never emits one.  A plain stable merge then fills the middle from
/// what is left.  Writes every slot of `dst`.
fn merge_two<T: Ord + Copy>(a: &[T], b: &[T], dst: &mut [std::mem::MaybeUninit<T>]) {
    assert_eq!(dst.len(), a.len() + b.len(), "one slot per item");
    let (mut front_a, mut front_b, mut front) = (0, 0, 0);
    let (mut back_a, mut back_b, mut back) = (a.len(), b.len(), dst.len());
    for _ in 0..a.len().min(b.len()) {
        // SAFETY: the loop bound and the assert above prove every index.
        // At step `t < min(|a|, |b|)` each end has taken `t` items, so
        // `front_a, front_b ≤ t` index inside `a` and `b`, and
        // `back_a ≥ |a| − t ≥ 1`, `back_b ≥ |b| − t ≥ 1` leave
        // `back_a − 1`, `back_b − 1` inside too.  The slots `front = t` and
        // `back − 1 = |dst| − 1 − t` are in `dst` (`|dst| = |a| + |b|`) and
        // distinct (`2t < |a| + |b|`).  None of this needs `Ord` to be a
        // total order: a broken one at worst makes the middle's slicing
        // below panic.  Unchecked, the loop takes 1.95 rather than 2.3 ns
        // an item on 2 × 262 144 `u64`.
        unsafe {
            let (x, y) = (*a.get_unchecked(front_a), *b.get_unchecked(front_b));
            let take_b = y < x;
            dst.get_unchecked_mut(front).write(if take_b { y } else { x });
            front_a += usize::from(!take_b);
            front_b += usize::from(take_b);
            front += 1;

            let (x, y) = (*a.get_unchecked(back_a - 1), *b.get_unchecked(back_b - 1));
            let take_a = y < x;
            back -= 1;
            dst.get_unchecked_mut(back).write(if take_a { x } else { y });
            back_a -= usize::from(take_a);
            back_b -= usize::from(!take_a);
        }
    }
    let (mut a, mut b) = (&a[front_a..back_a], &b[front_b..back_b]);
    let mut middle = dst[front..back].iter_mut();
    while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
        let take_b = y < x;
        middle.next().expect("a slot per item").write(if take_b { y } else { x });
        if take_b {
            b = &b[1..];
        } else {
            a = &a[1..];
        }
    }
    for (slot, &x) in middle.zip(a.iter().chain(b)) {
        slot.write(x);
    }
}

/// The re-sort arm, for one owner or for a block of neighbouring owners:
/// gather `runs`, [`radix_sort`] them, and cut the result into one vector
/// per owner of `totals` items.
///
/// The owners must partition the key space in order — every item of an
/// owner sorts before every item of the next — and `runs` must hold
/// exactly their items, in any grouping: one run per sender and owner, or
/// one span per sender covering the whole block.  Each owner's vector is
/// then its own items sorted, which by the [`RadixSortable`] contract is
/// what merging its runs gives, bit for bit.  One owner's vector is the
/// gather itself; a block's are copied out of it.
///
/// # Panics
///
/// If the runs do not hold `totals`' sum of items.
pub fn resort_owners<'a, T: RadixSortable + 'a>(
    runs: impl IntoIterator<Item = &'a [T]>,
    totals: &[usize],
) -> Vec<Vec<T>> {
    let total = totals.iter().sum();
    let mut all = Vec::with_capacity(total);
    runs.into_iter().for_each(|run| all.extend_from_slice(run));
    assert_eq!(all.len(), total, "the runs hold exactly the owners' items");
    radix_sort(&mut all);
    if let [_] = totals {
        return vec![all];
    }
    let mut rest = all.as_slice();
    totals
        .iter()
        .map(|&n| {
            let (own, tail) = rest.split_at(n);
            rest = tail;
            own.to_vec()
        })
        .collect()
}

/// The merging alternative to [`resort_owners`] for owners that share
/// sorted `runs` (a node's cores): cut the runs exactly at the owners'
/// `totals`, so that owner `o` gets ranks `[Σ totals[..o], Σ totals[..=o])`
/// of their merge, as its non-empty pieces of the runs in run order.
/// Merging an owner's pieces gives what [`resort_owners`] gives it, bit for
/// bit: the cuts order equal items by run index, and where a cut falls
/// inside a run of Ord-equal items the [`RadixSortable`] contract makes the
/// choice invisible.
///
/// Each cut is an exact multi-sequence selection over `k` runs: `O(log n)`
/// rounds of a weighted median of one pick per run and `k` binary
/// searches.  A cut's search starts from the previous one's positions.
///
/// # Panics
///
/// If the runs do not hold `totals`' sum of items.
pub fn cut_runs<'a, T: Ord>(runs: &[&'a [T]], totals: &[usize]) -> Vec<Vec<&'a [T]>> {
    assert_eq!(runs.iter().map(|r| r.len()).sum::<usize>(), totals.iter().sum(), "owners' items");
    let mut from = vec![0; runs.len()];
    let mut rank = 0;
    totals
        .iter()
        .map(|&n| {
            rank += n;
            let to = co_rank(runs, rank, &from);
            let pieces = runs
                .iter()
                .zip(from.iter().zip(&to))
                .map(|(run, (&a, &b))| &run[a..b])
                .filter(|piece| !piece.is_empty())
                .collect();
            from = to;
            pieces
        })
        .collect()
}

/// How many items of each sorted run lie among the `rank` smallest of all
/// of them, with equal items ordered by run index and then by position (a
/// stable merge's order).  `from` is the answer for a rank no larger.
///
/// Each run keeps a window between what is known to lie below the cut
/// (before `lo`) and what is known not to (from `hi`); no window is longer
/// than the `need` items still below the cut.  Each window offers its item
/// at the fraction `need / width` of its length, and the pivot is the
/// median of these picks weighted by window length.  One binary search a
/// window counts the items before the pivot, and the side the cut does not
/// fall in is discarded: each round at least halves `need` or
/// `width − need`.
fn co_rank<T: Ord>(runs: &[&[T]], rank: usize, from: &[usize]) -> Vec<usize> {
    let mut lo = from.to_vec();
    let mut hi: Vec<usize> = runs.iter().map(|run| run.len()).collect();
    let mut need = rank - lo.iter().sum::<usize>();
    let (mut picks, mut below) = (Vec::with_capacity(runs.len()), vec![0; runs.len()]);
    while need > 0 {
        // No run holds more than `need` of the items still below the cut.
        hi.iter_mut().zip(&lo).for_each(|(h, &l)| *h = (*h).min(l + need));
        let width: usize = lo.iter().zip(&hi).map(|(l, h)| h - l).sum();
        if need == width {
            return hi;
        }
        let pick =
            |i: usize| lo[i] + ((hi[i] - lo[i]) as u128 * need as u128 / width as u128) as usize;
        picks.clear();
        picks.extend((0..runs.len()).filter(|&i| lo[i] < hi[i]).map(|i| (i, pick(i))));
        picks.sort_unstable_by(|&(i, p), &(j, q)| runs[i][p].cmp(&runs[j][q]).then(i.cmp(&j)));
        let mut seen = 0;
        let &(j, p) = picks
            .iter()
            .find(|&&(i, _)| {
                seen += hi[i] - lo[i];
                2 * seen >= width
            })
            .expect("the windows hold more than the cut needs");
        let pivot = &runs[j][p];
        for (i, count) in below.iter_mut().enumerate() {
            let window = &runs[i][lo[i]..hi[i]];
            *count = match i.cmp(&j) {
                std::cmp::Ordering::Less => window.partition_point(|x| x <= pivot),
                std::cmp::Ordering::Equal => p - lo[i],
                std::cmp::Ordering::Greater => window.partition_point(|x| x < pivot),
            };
        }
        let before: usize = below.iter().sum();
        if need > before {
            // The pivot and everything before it lie below the cut.
            lo.iter_mut().zip(&below).for_each(|(l, &b)| *l += b);
            lo[j] += 1;
            need -= before + 1;
        } else {
            hi.iter_mut().zip(lo.iter().zip(&below)).for_each(|(h, (&l, &b))| *h = l + b);
        }
    }
    lo
}

/// A pull-based producer of one sorted run, consumed by
/// [`SourceLoserTree`].  The run's elements need not be resident in memory:
/// the out-of-core tier (`hss-extsort`) implements this trait with a
/// windowed file reader whose `pop` refills the window from disk when it
/// empties.
///
/// Contract: `peek` and `pop` observe the same element, `pop` advances past
/// it, and the sequence of popped elements is sorted (ascending).
pub trait RunSource {
    /// Element type produced by this run.
    type Item: RadixSortable;
    /// The run's current head, or `None` once the run is exhausted.
    fn peek(&self) -> Option<&Self::Item>;
    /// Remove and return the current head (the element `peek` showed).
    fn pop(&mut self) -> Option<Self::Item>;
    /// Remove and return the current head only if `pred` accepts it.
    /// Sources that must search for their head (a tree of sources)
    /// override this to search once.
    fn pop_if(&mut self, pred: impl FnOnce(&Self::Item) -> bool) -> Option<Self::Item> {
        if pred(self.peek()?) {
            self.pop()
        } else {
            None
        }
    }
}

/// [`RunSource`] view of an in-memory sorted slice: a read cursor.  What
/// [`kway_merge_slices`] merges, and the degenerate "run already in
/// memory" case of the external merge.
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

impl<T: RadixSortable> RunSource for SliceSource<'_, T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        self.slice.get(self.pos)
    }

    fn pop(&mut self) -> Option<T> {
        let item = *self.slice.get(self.pos)?;
        self.pos += 1;
        Some(item)
    }
}

/// The loser tree over [`RunSource`]s: the tournament plus the sources it
/// ranks, whose backing storage may be a slice or a bounded disk window.
/// Equal heads emit in source-index order whatever the storage, which is
/// what makes the external merge's output provably equal to the in-memory
/// path's.
pub struct SourceLoserTree<S: RunSource> {
    sources: Vec<S>,
    tree: Tournament,
}

impl<S: RunSource> SourceLoserTree<S> {
    /// Build the initial tournament over `sources` (exhausted sources are
    /// permitted and simply lose every comparison).
    pub fn new(sources: Vec<S>) -> Self {
        let tree = Tournament::new(sources.len(), |i| sources[i].peek());
        Self { sources, tree }
    }

    /// Pop the overall minimum (by the tie-break order) and replay the
    /// winner's leaf-to-root path; `None` once every source is exhausted.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<S::Item> {
        self.next_if(|_| true)
    }

    /// [`next`](Self::next), but only if `pred` accepts the element it
    /// would emit — what lets a streaming bucketizer drain the merge up to
    /// a splitter boundary, looking the winner up once per element.
    pub fn next_if(&mut self, pred: impl FnOnce(&S::Item) -> bool) -> Option<S::Item> {
        let winner = &mut self.sources[self.tree.winner()?];
        if !pred(winner.peek()?) {
            return None;
        }
        // Popping may refill the winner's window from disk, so the replay
        // already sees the winner's *next* head.
        let item = winner.pop()?;
        self.tree.replay(|i| self.sources[i].peek());
        Some(item)
    }

    /// The element [`next`](Self::next) would emit, without consuming it.
    pub fn peek(&self) -> Option<&S::Item> {
        self.sources[self.tree.winner()?].peek()
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

    fn pop_if(&mut self, pred: impl FnOnce(&S::Item) -> bool) -> Option<S::Item> {
        self.next_if(pred)
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
    while let Some(item) = src.pop_if(|head| head.key() < bound) {
        out.push(item);
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
pub fn kway_merge<T: RadixSortable>(runs: Vec<Vec<T>>) -> Vec<T> {
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
    use std::cmp::Ordering;

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

    /// `k` sorted runs of irregular lengths whose elements are
    /// `make(run, pick)` for pseudo-random picks — few distinct picks, so
    /// duplicates within and across runs are the norm.  With `empties`,
    /// every third run is empty.
    fn irregular_runs<T: Ord>(
        k: usize,
        empties: bool,
        make: impl Fn(usize, usize) -> T,
    ) -> Vec<Vec<T>> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ k as u64;
        (0..k)
            .map(|run| {
                // Long runs at small fan-in (many replays per leaf), a
                // record or two per run at fan-in 650.
                let len = if empties && run % 3 == 1 {
                    0
                } else if k > 16 {
                    run % 3
                } else {
                    (run * 7 + 3) % 41
                };
                let mut v: Vec<T> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        make(run, (state >> 33) as usize)
                    })
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    /// `kway_merge_slices` and a pulled `SourceLoserTree` against a stable
    /// sort of the concatenated runs, over every fan-in of the table.
    /// Outputs are compared through `view`, which must expose everything
    /// that distinguishes two elements.
    fn assert_merges_like_stable_sort<T, V>(
        case: &str,
        make: impl Fn(usize, usize) -> T,
        view: impl Fn(&T) -> V,
    ) where
        T: RadixSortable,
        V: PartialEq + std::fmt::Debug,
    {
        assert_merges_like_stable_sort_viewing(case, make, &view, &view);
    }

    /// [`assert_merges_like_stable_sort`], comparing the tree's output
    /// through `tree_view` and `kway_merge_slices`' through `slices_view`:
    /// a type that breaks the [`RadixSortable`] contract ([`Stamped`]) can
    /// only expect the tree to keep the run-index tie-break, because the
    /// re-sort arm may order Ord-equal items any way.
    fn assert_merges_like_stable_sort_viewing<T, V, W>(
        case: &str,
        make: impl Fn(usize, usize) -> T,
        tree_view: impl Fn(&T) -> V,
        slices_view: impl Fn(&T) -> W,
    ) where
        T: RadixSortable,
        V: PartialEq + std::fmt::Debug,
        W: PartialEq + std::fmt::Debug,
    {
        for k in [0usize, 1, 2, 3, 5, 8, 13, 650] {
            for empties in [false, true] {
                let runs = irregular_runs(k, empties, &make);
                let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
                let mut expected: Vec<T> = runs.concat();
                expected.sort();

                let merged: Vec<W> = kway_merge_slices(&slices).iter().map(&slices_view).collect();
                let expect: Vec<W> = expected.iter().map(&slices_view).collect();
                assert_eq!(merged, expect, "{case}: slices, k = {k}, empties = {empties}");

                let mut tree =
                    SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
                let mut pulled = Vec::new();
                drain_source_rest(&mut tree, &mut pulled);
                let pulled: Vec<V> = pulled.iter().map(&tree_view).collect();
                let expect: Vec<V> = expected.iter().map(&tree_view).collect();
                assert_eq!(pulled, expect, "{case}: sources, k = {k}, empties = {empties}");
            }
        }
    }

    /// A key that remembers which run it came from without ordering by it:
    /// `Ord`, `==` and the radix digits see only `key`, so the merge's
    /// run-index tie-break is observable in the output.  It breaks the
    /// [`RadixSortable`] contract on purpose (Ord-equal stamps differ).
    #[derive(Clone, Copy, Debug)]
    struct Stamped<const N: usize> {
        key: [u8; N],
        run: u16,
    }

    impl<const N: usize> PartialEq for Stamped<N> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }
    impl<const N: usize> Eq for Stamped<N> {}
    impl<const N: usize> PartialOrd for Stamped<N> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<const N: usize> Ord for Stamped<N> {
        fn cmp(&self, other: &Self) -> Ordering {
            self.key.cmp(&other.key)
        }
    }
    impl<const N: usize> RadixSortable for Stamped<N> {
        const RADIX_BYTES: usize = N;
        fn radix_byte(&self, level: usize) -> u8 {
            self.key[level]
        }
    }

    /// The pairwise arm of `kway_merge_slices` against a drained
    /// `SourceLoserTree`, compared through `view`, over fan-ins with carried
    /// odd runs and run shapes that load either the two-ended steps or the
    /// middle merge.  Every case holds more than the re-sort's 16 384 items,
    /// so fan-ins of three and more reach the arm.  `make(run, x)` turns a
    /// pseudo-random `x` into an item of `run`.
    fn assert_pairwise_matches_tree<T, V>(
        case: &str,
        make: impl Fn(usize, u64) -> T,
        view: impl Fn(&T) -> V,
    ) where
        T: RadixSortable,
        V: PartialEq + std::fmt::Debug,
    {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut parities = [false; 2];
        for k in [2usize, 3, 5, 16, 17, 33, 650] {
            let base = 256 * hss_lsort::BLOCK / k + 1;
            let long = (150_000 / k).min(30_000);
            let shapes: [(&str, Vec<usize>); 3] = [
                ("equal", vec![base; k]),
                ("staggered", (0..k).map(|r| base + r % 3).collect()),
                // 1-item runs beside long ones: the middle merges carry
                // almost every item.
                ("lopsided", (0..k).map(|r| if r % 2 == 0 { 1 } else { long }).collect()),
            ];
            for (shape, lens) in shapes {
                let runs: Vec<Vec<T>> = lens
                    .iter()
                    .enumerate()
                    .map(|(run, &len)| {
                        let mut v: Vec<T> = (0..len)
                            .map(|_| {
                                state = state
                                    .wrapping_mul(6364136223846793005)
                                    .wrapping_add(1442695040888963407);
                                make(run, state ^ state >> 29)
                            })
                            .collect();
                        v.sort();
                        v
                    })
                    .collect();
                let slices: Vec<&[T]> = runs.iter().map(Vec::as_slice).collect();
                let total: usize = lens.iter().sum();
                parities[total % 2] = true;
                let at = format!("{case}: k = {k}, {shape} runs, {total} items");
                assert_eq!(finish_arm::<T>(k, total), FinishArm::Pairwise, "{at}");

                let merged = kway_merge_slices(&slices);
                let mut tree =
                    SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
                let mut want = Vec::new();
                drain_source_rest(&mut tree, &mut want);
                assert_eq!(merged.len(), total, "{at}");
                let first_miss =
                    merged.iter().zip(&want).position(|(got, want)| view(got) != view(want));
                if let Some(i) = first_miss {
                    panic!("{at}: item {i} is {:?}, not {:?}", view(&merged[i]), view(&want[i]));
                }
            }
        }
        assert_eq!(parities, [true; 2], "{case}: odd and even totals");
    }

    #[test]
    fn pairwise_arm_matches_the_tournament_tie_for_tie() {
        // A one-word key (6 key bytes and a 2-byte stamp) that carries its
        // run: the arm must keep the tournament's run-index tie-break, not
        // only its multiset.
        type Key = Stamped<6>;
        let stamped = |key: [u8; 6], run: usize| Key { key, run: run as u16 };
        let bytes = |x: u64| -> [u8; 6] { x.to_be_bytes()[..6].try_into().expect("6 bytes") };
        let by_stamp = |x: &Key| (x.key, x.run);
        assert_pairwise_matches_tree("distinct keys", |run, x| stamped(bytes(x), run), by_stamp);
        let five = [[0; 6], [1; 6], [0x80; 6], [0xFE; 6], [0xFF; 6]];
        assert_pairwise_matches_tree(
            "five keys, with 0 and all-0xFF",
            |run, x| stamped(five[x as usize % 5], run),
            by_stamp,
        );
        assert_pairwise_matches_tree("all equal", |run, _| stamped([7; 6], run), by_stamp);
        assert_pairwise_matches_tree(
            "u64 around 0 and MAX",
            |_, x| [0, 1, x, u64::MAX - 1, u64::MAX][x as usize % 5],
            |x| *x,
        );
    }

    fn pick<T: Copy>(pool: &[T]) -> impl Fn(usize, usize) -> T + '_ {
        |_run, i| pool[i % pool.len()]
    }

    #[test]
    fn cached_prefix_edge_cases_match_a_stable_sort() {
        use hss_keygen::{ByteKey, OrderedF64, WideRecord};

        // A live head whose prefix is u64::MAX still beats exhausted runs.
        assert_merges_like_stable_sort(
            "u64 up to MAX",
            pick(&[0u64, 1, 255, 256, 1 << 32, u64::MAX - 1, u64::MAX]),
            |x| *x,
        );
        assert_merges_like_stable_sort("u64 all MAX", pick(&[u64::MAX]), |x| *x);
        assert_merges_like_stable_sort(
            "ByteKey<10> around all-0xFF",
            pick(&[
                ByteKey([0xFF; 10]),
                ByteKey([0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFE]),
            ]),
            |x| *x,
        );

        // Fewer than eight digits: the prefix is left-aligned.
        assert_merges_like_stable_sort("u8", pick(&[0u8, 1, 127, 128, 254, 255]), |x| *x);
        assert_merges_like_stable_sort(
            "u32",
            pick(&[0u32, 1, 0xFFFF, 0x1_0000, u32::MAX - 1, u32::MAX]),
            |x| *x,
        );
        assert_merges_like_stable_sort(
            "ByteKey<4>",
            pick(&[
                ByteKey([0, 0, 0, 0]),
                ByteKey([0, 0, 0, 1]),
                ByteKey([0, 0, 1, 0]),
                ByteKey([1, 0, 0, 0]),
                ByteKey([0xFF, 0xFF, 0xFF, 0xFE]),
                ByteKey([0xFF; 4]),
            ]),
            |x| *x,
        );

        // The prefix comes from `radix_byte`, not from the raw bits.
        assert_merges_like_stable_sort("i64", pick(&[i64::MIN, -2, -1, 0, 1, i64::MAX]), |x| *x);
        assert_merges_like_stable_sort("i32", pick(&[i32::MIN, -1, 0, 1, i32::MAX]), |x| *x);
        assert_merges_like_stable_sort(
            "OrderedF64",
            pick(
                &[f64::NEG_INFINITY, -1.5, -0.0, 0.0, 1.5, f64::INFINITY, f64::NAN].map(OrderedF64),
            ),
            |x| x.0.to_bits(),
        );

        // Keys equal in their first eight bytes are ordered by bytes 9-10,
        // then by payload.
        let wide = |tail: [u8; 2], payload: u8| WideRecord::<10, 4> {
            key: ByteKey([7, 7, 7, 7, 7, 7, 7, 7, tail[0], tail[1]]),
            payload: [payload; 4],
        };
        assert_merges_like_stable_sort(
            "WideRecord<10, 4> sharing an 8-byte prefix",
            pick(&[
                wide([0, 0], 3),
                wide([0, 0], 1),
                wide([0, 1], 2),
                wide([1, 0], 0),
                wide([0xFF, 0xFF], 9),
                wide([0xFF, 0xFF], 0),
            ]),
            |x| *x,
        );

        // Fully equal elements leave the tree in run order, whether the tie
        // is decided on the prefix alone (2 digits) or by the full
        // comparison (10 digits).  `kway_merge_slices` may re-sort them, so
        // its output is compared by `Ord` alone.
        assert_merges_like_stable_sort_viewing(
            "run-index tie-break, short keys",
            |run, i| Stamped::<2> { key: [0, (i % 3) as u8], run: run as u16 },
            |x| (x.key, x.run),
            |x| x.key,
        );
        assert_merges_like_stable_sort_viewing(
            "run-index tie-break, long keys",
            |run, i| Stamped::<10> {
                key: [9, 9, 9, 9, 9, 9, 9, 9, 0, (i % 3) as u8],
                run: run as u16,
            },
            |x| (x.key, x.run),
            |x| x.key,
        );
        assert_merges_like_stable_sort_viewing(
            "run-index tie-break, all-0xFF keys",
            |run, _| Stamped::<8> { key: [0xFF; 8], run: run as u16 },
            |x| (x.key, x.run),
            |x| x.key,
        );
    }

    #[test]
    fn finish_arm_resorts_crumbs_and_merges_long_or_wide_runs() {
        use hss_keygen::{Record, TeraRecord};
        use FinishArm::{Merge, Pairwise, Resort};
        // The benchmark's receivers: u64-wide-skew, u64-fat, tera-fat and a
        // u64-spill owner (which spills over the cap).
        assert_eq!(finish_arm::<u64>(650, 1024), Resort);
        assert_eq!(finish_arm::<u64>(16, 524_288), Pairwise);
        assert_eq!(finish_arm::<TeraRecord>(16, 160_000), Merge);
        assert_eq!(finish_arm::<TeraRecord>(1024, 1024), Merge);
        assert_eq!(finish_arm::<u64>(8, 500_000), Pairwise);
        // The cost comparison's edges: ties do not re-sort, one run is
        // copied.
        assert_eq!(finish_arm::<u64>(0, 0), Merge);
        assert_eq!(finish_arm::<u64>(1, 5), Merge);
        assert_eq!(finish_arm::<u64>(2, 10), Pairwise);
        assert_eq!(finish_arm::<u64>(3, 10), Resort);
        // Past the radix sort's cache-resident scratch, one word merges
        // pairwise.
        assert_eq!(finish_arm::<u64>(1024, 256 * hss_lsort::BLOCK), Resort);
        assert_eq!(finish_arm::<u64>(1024, 256 * hss_lsort::BLOCK + 1), Pairwise);
        assert_eq!(finish_arm::<u64>(650, 26_000), Pairwise);
        assert_eq!(finish_arm::<u64>(32, 1 << 20), Pairwise);
        // Wider items that do not re-sort stay on the tournament.
        assert_eq!(finish_arm::<Record>(16, 1000), Merge);
        assert_eq!(finish_arm::<Record>(32, 1000), Resort);
        assert_eq!(finish_arm::<Record>(1024, 1 << 20), Merge);
    }

    #[test]
    fn cut_runs_splits_a_stable_merge_exactly_at_the_totals() {
        // Stamped keys with five values: most cuts fall inside a run of
        // equal keys, and the pieces must carry them in run order.
        type Key = Stamped<2>;
        let make = |run: usize, x: usize| Key { key: [(x % 5) as u8; 2], run: run as u16 };
        for k in [0usize, 1, 2, 3, 5, 8, 13, 650] {
            for empties in [false, true] {
                let runs = irregular_runs(k, empties, make);
                let slices: Vec<&[Key]> = runs.iter().map(Vec::as_slice).collect();
                let mut stable = runs.concat();
                stable.sort();
                let want: Vec<(u8, u16)> = stable.iter().map(|x| (x.key[0], x.run)).collect();
                let total = stable.len();
                for owners in [1usize, 2, 3, 7, 16, total + 2] {
                    let totals: Vec<usize> = (0..owners)
                        .map(|o| (o + 1) * total / owners - o * total / owners)
                        .collect();
                    let pieces = cut_runs(&slices, &totals);
                    let mut got = Vec::new();
                    for (pieces, &n) in pieces.iter().zip(&totals) {
                        assert!(pieces.iter().all(|piece| !piece.is_empty()));
                        let mut tree = SourceLoserTree::new(
                            pieces.iter().map(|s| SliceSource::new(s)).collect(),
                        );
                        assert_eq!(drain_source_rest(&mut tree, &mut got), n);
                    }
                    let got: Vec<(u8, u16)> = got.iter().map(|x| (x.key[0], x.run)).collect();
                    assert_eq!(got, want, "k = {k}, empties = {empties}, {owners} owners");
                }
            }
        }
    }

    #[test]
    fn draining_below_a_bound_cuts_at_the_partition_point() {
        let runs: Vec<Vec<u64>> = irregular_runs(5, true, |_, i| (i % 50) as u64);
        let slices: Vec<&[u64]> = runs.iter().map(Vec::as_slice).collect();
        let merged = kway_merge_slices(&slices);
        let mut tree = SourceLoserTree::new(slices.iter().map(|s| SliceSource::new(s)).collect());
        // A lone source takes the trait's default `pop_if`, a tree its own.
        let mut lone = SliceSource::new(&merged);
        let mut cut = 0;
        for bound in [0u64, 1, 10, 10, 37, 49] {
            let end = merged.partition_point(|x| *x < bound);
            let (mut from_tree, mut from_lone) = (Vec::new(), Vec::new());
            assert_eq!(drain_source_below(&mut tree, bound, &mut from_tree), end - cut);
            assert_eq!(drain_source_below(&mut lone, bound, &mut from_lone), end - cut);
            assert_eq!(from_tree, merged[cut..end]);
            assert_eq!(from_lone, merged[cut..end]);
            cut = end;
        }
        let mut rest = Vec::new();
        drain_source_rest(&mut tree, &mut rest);
        assert_eq!(rest, merged[cut..]);
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
