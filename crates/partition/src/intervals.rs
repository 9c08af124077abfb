//! Splitter-interval bookkeeping for multi-round histogramming (§3.3).
//!
//! For every splitter `i` the algorithm keeps the tightest bracket found so
//! far around its target rank `t_i = N·i/p`:
//!
//! * `L_j(i)` — the largest probe rank seen that is `<= t_i`, together with
//!   the probe key achieving it;
//! * `U_j(i)` — the smallest probe rank seen that is `>= t_i`, with its key.
//!
//! The key interval `[key(L_j(i)), key(U_j(i))]` is the *splitter interval*:
//! the true splitter must lie inside it, so later sampling rounds only draw
//! from these intervals (Figure 3.1 illustrates the shrinkage).  A splitter
//! is *finalized* once some seen key's rank is within the allowed tolerance
//! `εN/(2p)` of `t_i` (the conservative condition of §2.1).
//!
//! The merged open intervals are a round's [`Windows`]: the next round
//! samples only their keys, and — since every probe it draws lies in one
//! and each lower bound's rank is already known — histograms only their
//! keys too.

use hss_keygen::Key;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use serde::{Deserialize, Serialize};

use crate::sampling::merge_key_intervals_with;

/// One bound (rank and the key that achieves it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bound<K: Key> {
    /// Global rank of `key` (number of input keys strictly below it).
    pub rank: u64,
    /// The probe key achieving this rank.
    pub key: K,
}

/// The windows of one HSS round: disjoint, sorted, inclusive key ranges
/// (the merged open splitter intervals, or the whole key space) and, for
/// each, the global number of keys strictly below its `lo`.
///
/// A round samples only keys inside its windows, so every probe lies in
/// one, and a probe's global rank is its window's `ranks_below` plus the
/// window's keys below it.  A rank therefore counts only its keys inside
/// the windows ([`crate::ProbeIndex::windowed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Windows<K: Key> {
    /// The inclusive key ranges `[lo, hi]`, disjoint and ascending.
    pub bounds: Vec<(K, K)>,
    /// The global number of keys strictly below each window's `lo`.
    pub ranks_below: Vec<u64>,
}

impl<K: Key> Windows<K> {
    /// One window over the whole key space, with no key below it — the
    /// first round's, and the one that ranks arbitrary probes.
    pub fn whole() -> Self {
        Self { bounds: vec![(K::MIN_KEY, K::MAX_KEY)], ranks_below: vec![0] }
    }

    /// Number of windows.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// Whether there is no window (nothing left open).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }
}

/// Bracketing state for all `buckets - 1` splitters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitterIntervals<K: Key> {
    total_keys: u64,
    buckets: usize,
    /// `lower[i]`, `upper[i]` bracket splitter `i + 1` (1-based in the paper).
    lower: Vec<Bound<K>>,
    upper: Vec<Bound<K>>,
}

impl<K: Key> SplitterIntervals<K> {
    /// Start tracking `buckets - 1` splitters over an input of `total_keys`
    /// keys.  Initially every splitter interval is the whole key range.
    pub fn new(total_keys: u64, buckets: usize) -> Self {
        assert!(buckets >= 1, "need at least one bucket");
        let count = buckets - 1;
        Self {
            total_keys,
            buckets,
            lower: vec![Bound { rank: 0, key: K::MIN_KEY }; count],
            upper: vec![Bound { rank: total_keys, key: K::MAX_KEY }; count],
        }
    }

    /// Start tracking splitters over a *new* epoch of `total_keys` keys,
    /// seeded with the carry-over probes of a previous epoch re-ranked
    /// against the new keyspace: `probes` (sorted, deduplicated) with their
    /// `ranks` in the new input (non-decreasing, same length).
    ///
    /// This is the warm-start entry of the epoch service: instead of
    /// bracketing every splitter with `(MIN_KEY, MAX_KEY)`, the old
    /// splitters (whose ranks scale with the keyspace when the distribution
    /// is near-stationary) immediately collapse the open intervals around
    /// the new targets, so splitter determination finalizes in one or two
    /// rounds instead of the cold-start count.  Equivalent to
    /// [`Self::new`] followed by one [`Self::update`].
    pub fn seeded(total_keys: u64, buckets: usize, probes: &[K], ranks: &[u64]) -> Self {
        let mut iv = Self::new(total_keys, buckets);
        iv.update(probes, ranks);
        iv
    }

    /// The interval state worth carrying into the next epoch: every bound
    /// key currently bracketing a splitter, sorted and deduplicated, with
    /// the `MIN_KEY`/`MAX_KEY` sentinels dropped (they carry no rank
    /// information — a fresh [`Self::new`] starts with them anyway).
    ///
    /// Re-ranking these keys against the next epoch's keyspace and feeding
    /// them to [`Self::seeded`] reconstructs (a tightening of) this epoch's
    /// brackets around the new target ranks.
    pub fn carryover_keys(&self) -> Vec<K> {
        let mut keys: Vec<K> = self
            .lower
            .iter()
            .chain(self.upper.iter())
            .map(|b| b.key)
            .filter(|k| *k != K::MIN_KEY && *k != K::MAX_KEY)
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Number of splitters tracked (`buckets - 1`).
    pub fn splitter_count(&self) -> usize {
        self.buckets - 1
    }

    /// Number of buckets (`p` in the paper, or `n` for node-level splitting).
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Total number of keys `N`.
    pub fn total_keys(&self) -> u64 {
        self.total_keys
    }

    /// The ideal (target) rank of splitter `i` (0-based): `N·(i+1)/p`.
    pub fn target_rank(&self, i: usize) -> u64 {
        ((self.total_keys as u128 * (i as u128 + 1)) / self.buckets as u128) as u64
    }

    /// Current lower bound for splitter `i`.
    pub fn lower(&self, i: usize) -> Bound<K> {
        self.lower[i]
    }

    /// Current upper bound for splitter `i`.
    pub fn upper(&self, i: usize) -> Bound<K> {
        self.upper[i]
    }

    /// Incorporate one histogramming round's results: `probes` (sorted) with
    /// their global `ranks` (non-decreasing, same length).  Each splitter's
    /// bounds tighten to the closest probe on each side of its target rank.
    ///
    /// Complexity `O((p + |probes|) )` — a single merged sweep.
    pub fn update(&mut self, probes: &[K], ranks: &[u64]) {
        assert_eq!(probes.len(), ranks.len(), "one rank per probe");
        debug_assert!(probes.windows(2).all(|w| w[0] <= w[1]), "probes must be sorted");
        debug_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "ranks must be non-decreasing");
        if probes.is_empty() {
            return;
        }
        for i in 0..self.splitter_count() {
            let target = self.target_rank(i);
            // Index of the first probe with rank > target.
            let idx = ranks.partition_point(|&r| r <= target);
            if idx > 0 {
                let j = idx - 1;
                if ranks[j] >= self.lower[i].rank {
                    self.lower[i] = Bound { rank: ranks[j], key: probes[j] };
                }
            }
            if idx < ranks.len() && ranks[idx] <= self.upper[i].rank {
                self.upper[i] = Bound { rank: ranks[idx], key: probes[idx] };
            }
            // A probe whose rank equals the target is both a lower and an
            // upper bound; the two branches above already handle it because
            // partition_point puts it on the `lower` side and the next probe
            // (if any) on the `upper` side.  Also allow an exact-rank probe
            // to close the upper bound:
            if idx > 0 && ranks[idx - 1] == target {
                self.upper[i] = Bound { rank: target, key: probes[idx - 1] };
            }
        }
    }

    /// Distance (in ranks) from splitter `i`'s target to the best candidate
    /// seen so far.
    pub fn best_distance(&self, i: usize) -> u64 {
        let target = self.target_rank(i);
        (target - self.lower[i].rank).min(self.upper[i].rank - target)
    }

    /// Whether splitter `i` is finalized for tolerance `tol` ranks, i.e.
    /// some seen key's rank is within `tol` of the target (§2.1: the
    /// condition `S_i ∈ T_i` with `tol = εN/(2p)`).
    pub fn is_finalized(&self, i: usize, tol: u64) -> bool {
        self.best_distance(i) <= tol
    }

    /// Whether every splitter is finalized for tolerance `tol`.
    pub fn all_finalized(&self, tol: u64) -> bool {
        (0..self.splitter_count()).all(|i| self.is_finalized(i, tol))
    }

    /// Number of splitters not yet finalized.
    pub fn unfinalized_count(&self, tol: u64) -> usize {
        (0..self.splitter_count()).filter(|&i| !self.is_finalized(i, tol)).count()
    }

    /// Key intervals `[lower.key, upper.key]` of the splitters that are not
    /// yet finalized — the ranges the next sampling round draws from
    /// (step 4 of §3.3).
    pub fn open_key_intervals(&self, tol: u64) -> Vec<(K, K)> {
        (0..self.splitter_count())
            .filter(|&i| !self.is_finalized(i, tol))
            .map(|i| (self.lower[i].key, self.upper[i].key))
            .collect()
    }

    /// The next round's [`Windows`]: the open key intervals merged into
    /// disjoint ranges (sorted with `algo`, like
    /// [`merge_key_intervals_with`]), each with the rank of its `lo`.  A
    /// merged `lo` is the lower bound of some open interval, and that
    /// bound's rank is the number of keys strictly below it (exact as long
    /// as the histograms are).
    pub fn open_windows(&self, tol: u64, algo: LocalSortAlgo) -> Windows<K>
    where
        K: RadixSortable,
    {
        let bounds = merge_key_intervals_with(self.open_key_intervals(tol), algo);
        let mut lows: Vec<(K, u64)> = (0..self.splitter_count())
            .filter(|&i| !self.is_finalized(i, tol))
            .map(|i| (self.lower[i].key, self.lower[i].rank))
            .collect();
        lows.sort_unstable();
        let ranks_below = bounds
            .iter()
            .map(|&(lo, _)| lows[lows.partition_point(|&(key, _)| key < lo)].1)
            .collect();
        Windows { bounds, ranks_below }
    }

    /// Rank-space width `U_j(i) − L_j(i)` of every splitter interval — the
    /// quantity whose shrinkage Figure 3.1 illustrates and Theorem 3.3.1
    /// bounds.
    pub fn interval_widths(&self) -> Vec<u64> {
        (0..self.splitter_count()).map(|i| self.upper[i].rank - self.lower[i].rank).collect()
    }

    /// Size of the *union* of the open splitter intervals in rank space —
    /// `G_j` in the paper (Theorem 3.3.1/3.3.2), an upper bound on the
    /// number of input keys the next round samples from.  Overlapping
    /// intervals are merged so nothing is double counted.
    pub fn union_rank_size(&self, tol: u64) -> u64 {
        let mut spans: Vec<(u64, u64)> = (0..self.splitter_count())
            .filter(|&i| !self.is_finalized(i, tol))
            .map(|i| (self.lower[i].rank, self.upper[i].rank))
            .collect();
        spans.sort_unstable();
        let mut total = 0u64;
        let mut current: Option<(u64, u64)> = None;
        for (lo, hi) in spans {
            match current {
                None => current = Some((lo, hi)),
                Some((clo, chi)) => {
                    if lo <= chi {
                        current = Some((clo, chi.max(hi)));
                    } else {
                        total += chi - clo;
                        current = Some((lo, hi));
                    }
                }
            }
        }
        if let Some((clo, chi)) = current {
            total += chi - clo;
        }
        total
    }

    /// Fraction of the input covered by the open splitter intervals
    /// (`δ` in §6.1.2, used to set the per-rank sample count to `5/δ`).
    pub fn covered_fraction(&self, tol: u64) -> f64 {
        if self.total_keys == 0 {
            return 0.0;
        }
        self.union_rank_size(tol) as f64 / self.total_keys as f64
    }

    /// The best candidate key for splitter `i` seen so far: the bound whose
    /// rank is closest to the target.  This is the key the overlapped sorter
    /// *freezes* when splitter `i` finalizes mid-run (§4); unlike
    /// [`Self::best_splitter_keys`] it is not monotonicity-corrected against
    /// neighbours, so callers freezing splitters incrementally must clamp.
    pub fn best_splitter_key(&self, i: usize) -> K {
        let target = self.target_rank(i);
        let lo = self.lower[i];
        let hi = self.upper[i];
        if target - lo.rank <= hi.rank - target {
            lo.key
        } else {
            hi.key
        }
    }

    /// The finalized splitters: for every splitter the seen key whose rank is
    /// closest to the target (§3.3 step 5).  The result is forced to be
    /// non-decreasing (ties between neighbouring splitters can otherwise
    /// produce inversions when duplicates collapse intervals).
    pub fn best_splitter_keys(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.splitter_count());
        for i in 0..self.splitter_count() {
            keys.push(self.best_splitter_key(i));
        }
        // Enforce monotonicity.
        for i in 1..keys.len() {
            if keys[i] < keys[i - 1] {
                keys[i] = keys[i - 1];
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_brackets_everything() {
        let iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        assert_eq!(iv.splitter_count(), 3);
        assert_eq!(iv.target_rank(0), 250);
        assert_eq!(iv.target_rank(2), 750);
        for i in 0..3 {
            assert_eq!(iv.lower(i).rank, 0);
            assert_eq!(iv.upper(i).rank, 1000);
            assert!(!iv.is_finalized(i, 10));
        }
        assert_eq!(iv.interval_widths(), vec![1000, 1000, 1000]);
    }

    #[test]
    fn single_bucket_is_trivially_finalized() {
        let iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 1);
        assert_eq!(iv.splitter_count(), 0);
        assert!(iv.all_finalized(0));
        assert!(iv.best_splitter_keys().is_empty());
    }

    #[test]
    fn update_tightens_bounds() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        // Probes with known global ranks.
        let probes = vec![100u64, 400, 600, 900];
        let ranks = vec![100u64, 380, 610, 920];
        iv.update(&probes, &ranks);
        // Splitter 0 targets 250: bracket (100 @ 100, 400 @ 380).
        assert_eq!(iv.lower(0), Bound { rank: 100, key: 100 });
        assert_eq!(iv.upper(0), Bound { rank: 380, key: 400 });
        // Splitter 1 targets 500: bracket (400 @ 380, 600 @ 610).
        assert_eq!(iv.lower(1), Bound { rank: 380, key: 400 });
        assert_eq!(iv.upper(1), Bound { rank: 610, key: 600 });
        // Widths shrank.
        assert!(iv.interval_widths().iter().all(|&w| w < 1000));
    }

    #[test]
    fn update_never_loosens_bounds() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 2);
        iv.update(&[480u64, 520], &[480, 520]);
        let tight_low = iv.lower(0);
        let tight_high = iv.upper(0);
        // A later, worse probe set must not widen the bracket.
        iv.update(&[100u64, 900], &[100, 900]);
        assert_eq!(iv.lower(0), tight_low);
        assert_eq!(iv.upper(0), tight_high);
    }

    #[test]
    fn exact_hit_finalizes_with_zero_tolerance() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 2);
        iv.update(&[42u64], &[500]);
        assert!(iv.is_finalized(0, 0));
        assert_eq!(iv.best_distance(0), 0);
        assert_eq!(iv.best_splitter_keys(), vec![42]);
    }

    #[test]
    fn finalization_respects_tolerance() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 2);
        iv.update(&[40u64], &[470]);
        assert!(!iv.is_finalized(0, 20));
        assert!(iv.is_finalized(0, 30));
        assert_eq!(iv.unfinalized_count(20), 1);
        assert_eq!(iv.unfinalized_count(30), 0);
    }

    #[test]
    fn open_intervals_shrink_and_close() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(10_000, 4);
        assert_eq!(iv.open_key_intervals(0).len(), 3);
        iv.update(&[10u64, 20, 30], &[2500, 5000, 7400]);
        // Splitters 0 and 1 (targets 2500, 5000) got exact hits; with tol 0
        // they are closed and only splitter 2 stays open.
        let open = iv.open_key_intervals(0);
        assert_eq!(open.len(), 1);
        // Splitter 2's interval is [30, MAX].
        assert_eq!(open[0].0, 30);
        assert_eq!(open[0].1, u64::MAX_KEY);
    }

    #[test]
    fn open_windows_merge_intervals_and_carry_their_lower_ranks() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 5);
        let whole = iv.open_windows(0, LocalSortAlgo::Radix);
        assert_eq!(whole, Windows::whole());
        // Targets 200, 400, 600, 800: brackets (10 @ 150, 20 @ 300),
        // (20 @ 300, 30 @ 450), (50 @ 590, 60 @ 640) and (70 @ 750, MAX).
        iv.update(&[10u64, 20, 30, 50, 60, 70], &[150, 300, 450, 590, 640, 750]);
        let windows = iv.open_windows(0, LocalSortAlgo::Radix);
        assert_eq!(windows.bounds, vec![(10, 30), (50, 60), (70, u64::MAX)]);
        assert_eq!(windows.ranks_below, vec![150, 590, 750]);
        // A finalized splitter's interval leaves the windows.
        let windows = iv.open_windows(10, LocalSortAlgo::Comparison);
        assert_eq!(windows.bounds, vec![(10, 30), (70, u64::MAX)]);
        assert_eq!(windows.ranks_below, vec![150, 750]);
    }

    #[test]
    fn union_rank_size_merges_overlaps() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(100, 4);
        // No probes: all three intervals are [0, 100] and fully overlap.
        assert_eq!(iv.union_rank_size(0), 100);
        iv.update(&[50u64], &[50]);
        // Splitter 1 closed (target 50); splitters 0 and 2 now have
        // intervals [0,50] and [50,100]: union 100.
        assert_eq!(iv.union_rank_size(0), 100);
        iv.update(&[20u64, 80], &[20, 80]);
        // Intervals: [20,50] (splitter 0, target 25) and [50,80] (target 75).
        assert_eq!(iv.union_rank_size(0), 60);
        assert!((iv.covered_fraction(0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn best_splitter_keys_picks_closest_side_and_stays_sorted() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        iv.update(&[111u64, 222, 333], &[240, 505, 770]);
        // Targets 250, 500, 750: closest candidates are 111 (240), 222 (505),
        // 333 (770) respectively.
        assert_eq!(iv.best_splitter_keys(), vec![111, 222, 333]);
        let keys = iv.best_splitter_keys();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn carryover_and_seeded_reconstruct_brackets() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        iv.update(&[100u64, 400, 600, 900], &[100, 380, 610, 920]);
        let carry = iv.carryover_keys();
        assert_eq!(carry, vec![100, 400, 600, 900]);
        // Seeding a fresh tracker with the carried keys at their old ranks
        // reproduces the brackets exactly.
        let seeded = SplitterIntervals::seeded(1000, 4, &carry, &[100, 380, 610, 920]);
        assert_eq!(seeded, iv);
        // Sentinels never leak into the carry-over set.
        let fresh: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        assert!(fresh.carryover_keys().is_empty());
        // Partially tightened state: only non-sentinel bounds are carried.
        let mut partial: SplitterIntervals<u64> = SplitterIntervals::new(1000, 4);
        partial.update(&[500u64], &[500]);
        assert_eq!(partial.carryover_keys(), vec![500]);
    }

    #[test]
    #[should_panic(expected = "one rank per probe")]
    fn mismatched_probe_ranks_panic() {
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(100, 2);
        iv.update(&[1u64, 2], &[1]);
    }
}
