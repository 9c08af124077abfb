//! Sampling primitives shared by HSS and the sample-sort baselines.
//!
//! Three families of samplers appear in the paper:
//!
//! * **Bernoulli sampling** ("Sampling Method 1", §3): every key of a subset
//!   `G` of the input is picked independently with probability `p·s/N`.
//!   Implemented with geometric gap skipping so the cost is proportional to
//!   the number of *samples*, not the number of keys scanned.  At large
//!   `p` the open intervals of a later round hold a key or two per rank,
//!   so most draws only end their interval; such a draw is recognised from
//!   `u < q^left` without the logarithm.  That is exact, not a
//!   re-baselining: the same draws give the same positions and leave the
//!   RNG in the same state ([`BernoulliDraw`] has the proof).  An HSS round
//!   sets up one [`BernoulliDraw`] and draws every rank's windows through a
//!   [`WindowSample`].
//! * **Regular sampling** (§4.1.2): `s` evenly spaced keys from the sorted
//!   local data.
//! * **Random block sampling** (Blelloch et al., §4.1.1 / §3.4): the sorted
//!   local data is divided into `s` equal blocks and one uniformly random
//!   key is taken from each block.

use std::ops::Range;

use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_sim::Work;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::classify::{classify_strategy, sweep_past, ClassifyStrategy, DecisionTree};
use crate::histogram::WindowSpan;

/// The *positions* a Bernoulli sample of `range` selects: each index is
/// included independently with probability `prob`, generated by geometric
/// gap skipping so the running time is `O(1 + prob·|range|)` in
/// expectation.
///
/// This is the randomness core of [`bernoulli_sample_range`], split out so
/// that data layers which cannot index a slice directly (e.g. the
/// out-of-core tier sampling spilled run files by merged rank) can consume
/// the *same* RNG draw sequence: the draws depend only on `range` and
/// `prob`, never on the data, so an in-memory rank and a spilled rank
/// holding the same keys select identical sample positions.  A caller
/// drawing many ranges at one probability sets up one [`BernoulliDraw`].
pub fn bernoulli_sample_positions<R: Rng>(range: Range<u64>, prob: f64, rng: &mut R) -> Vec<u64> {
    let mut out = Vec::new();
    BernoulliDraw::new(prob).extend_positions(range, rng, &mut out);
    out
}

/// Remainders `BernoulliDraw` keeps the threshold `q^left` for; longer
/// ones compute it with `powi`.
const THRESHOLD_TABLE: usize = 16;

/// The longest remainder the threshold is computed for; see the proof on
/// [`BernoulliDraw`].
const MAX_SHORTCUT_LEFT: u64 = 1 << 20;

/// Geometric-skip Bernoulli draws at one probability, set up once: `ln q`
/// (`q = 1 − prob`) and the thresholds `q^left · (1 − 10⁻⁹)` of the short
/// remainders, so an HSS round pays for them once, not once per window.
///
/// # The draw that lands past the range
///
/// Each draw `u` is turned into the gap `⌊ln u / ln q⌋`, and the sample
/// ends once the gap reaches the `left` indices still ahead.  At large `p`
/// most open intervals hold a key or two, so most draws end their
/// interval, and the logarithm was most of the cost.  A draw with
/// `u < q^left · (1 − 10⁻⁹)` ends it without the logarithm, and that is
/// exact, not approximate — the same `u` is consumed either way, so
/// positions and RNG state are identical:
///
/// * `q^left` is a product of `left ≤ 2²⁰` factors (`powi`'s, or the
///   table's running product), all at least `q^left`.  While that is a
///   normal number (a subnormal or zero threshold never admits a
///   `u ≥ f64::MIN_POSITIVE`), the product is within a relative
///   `2²⁰ · 2⁻⁵³ < 1.2·10⁻¹⁰` of the true power, so the rounded threshold
///   is below `q^left · (1 − 8·10⁻¹⁰)`, and `ln u < left · ln q − 8·10⁻¹⁰`.
/// * `ln u`, `ln q` and their quotient each round within an ulp, which
///   shrinks the quotient by a relative `< 6·10⁻¹⁶` at most.  A normal
///   threshold needs `left·|ln q| < 709`, so the shrinkage takes off less
///   than `4.3·10⁻¹³ / |ln q|`, far below the `8·10⁻¹⁰ / |ln q|` the
///   margin added: the computed quotient is still `≥ left`, and so is its
///   floor.
///
/// # Probabilities below `2⁻⁵³`
///
/// There `1 − prob` rounds to one and `ln q` would be zero, which turns
/// every gap into `⌊−∞⌋ = 0` and takes every index.  Such a draw takes
/// `ln q` as `ln_1p(−prob)` instead, and skips the shortcut (its threshold
/// would be one).  Every larger probability keeps `ln(1 − prob)`, so its
/// draws are unchanged.
#[derive(Debug, Clone)]
pub struct BernoulliDraw {
    prob: f64,
    log_q: f64,
    q: f64,
    /// Whether `u < q^left · (1 − 10⁻⁹)` may end a range (`q < 1`).
    shortcut: bool,
    /// `q^left · (1 − 10⁻⁹)` for `left < THRESHOLD_TABLE`.
    thresholds: [f64; THRESHOLD_TABLE],
}

impl BernoulliDraw {
    /// Set up draws that take each index with probability `prob`.
    ///
    /// # Panics
    ///
    /// Panics unless `prob` is in `[0, 1]`.
    pub fn new(prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability must be in [0, 1]");
        let q = 1.0 - prob;
        let shortcut = q < 1.0;
        let log_q = if shortcut { q.ln() } else { (-prob).ln_1p() };
        let mut thresholds = [0.0; THRESHOLD_TABLE];
        let mut power = 1.0f64;
        for threshold in &mut thresholds {
            *threshold = power * (1.0 - 1e-9);
            power *= q;
        }
        Self { prob, log_q, q, shortcut, thresholds }
    }

    /// Whether draw `u` certainly lands at least `left` indices ahead.
    #[inline]
    fn lands_past(&self, u: f64, left: u64) -> bool {
        if !self.shortcut || left > MAX_SHORTCUT_LEFT {
            return false;
        }
        let threshold = match self.thresholds.get(left as usize) {
            Some(&threshold) => threshold,
            None => self.q.powi(left as i32) * (1.0 - 1e-9),
        };
        u < threshold
    }

    /// Append the positions a Bernoulli sample of `range` selects to `out`
    /// ([`bernoulli_sample_positions`]).  An empty range, or probability
    /// zero or one, consumes no randomness.
    #[inline]
    pub fn extend_positions<R: Rng>(&self, range: Range<u64>, rng: &mut R, out: &mut Vec<u64>) {
        if self.prob == 0.0 || range.is_empty() {
            return;
        }
        if self.prob >= 1.0 {
            out.extend(range);
            return;
        }
        let mut idx = range.start;
        loop {
            // Geometric(prob) gap: number of failures before the next success.
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            if self.lands_past(u, range.end - idx) {
                break;
            }
            let gap = (u.ln() / self.log_q).floor() as u64;
            idx = match idx.checked_add(gap) {
                Some(i) => i,
                None => break,
            };
            if idx >= range.end {
                break;
            }
            out.push(idx);
            idx += 1;
        }
    }
}

/// One rank's Bernoulli sample of a round's windows, drawn window by window
/// in order: the positions a [`BernoulliDraw`] picks in each window's index
/// range, and a [`WindowSpan`] for every window the rank holds keys in —
/// what the round's histogram then counts over.  A source feeds it each
/// window's bounds as it finds them, so a spilled rank reads a window's
/// sampled keys while its run blocks for that window are still cached.
#[derive(Debug)]
pub struct WindowSample<'a> {
    draw: &'a BernoulliDraw,
    rng: ChaCha8Rng,
    positions: Vec<u64>,
    spans: Vec<WindowSpan>,
}

impl<'a> WindowSample<'a> {
    /// Start a rank's sample, drawing from `rng`, with room for the spans
    /// of `windows` windows up front: a rank holds keys in at most its key
    /// count of the round's windows, and one allocation per rank keeps the
    /// superstep off the allocator's shared arena lock, where growing the
    /// span list by doubling measured a slower sampling phase than the
    /// per-window draws it replaced.
    pub fn new(draw: &'a BernoulliDraw, rng: ChaCha8Rng, windows: usize) -> Self {
        Self { draw, rng, positions: Vec::new(), spans: Vec::with_capacity(windows) }
    }

    /// Draw window `window`, whose keys sit at `start..end` of the rank's
    /// sorted data, and return the positions it drew.  Windows come in
    /// order; an empty one draws nothing and consumes no randomness.
    #[inline]
    pub fn window(&mut self, window: usize, start: usize, end: usize) -> &[u64] {
        let drawn = self.positions.len();
        if start < end {
            let range = start as u64..end as u64;
            self.draw.extend_positions(range, &mut self.rng, &mut self.positions);
            self.spans.push(WindowSpan { window, start, end });
        }
        &self.positions[drawn..]
    }

    /// Every position drawn so far, ascending.
    pub fn positions(&self) -> &[u64] {
        &self.positions
    }

    /// The spans of the windows the rank holds keys in, in window order.
    pub fn into_spans(self) -> Vec<WindowSpan> {
        self.spans
    }
}

/// Bernoulli-sample the keys of `sorted[range]`: each key is included
/// independently with probability `prob`.  Uses geometric skips, so the
/// running time is `O(1 + prob·|range|)` in expectation.
pub fn bernoulli_sample_range<T: Keyed, R: Rng>(
    sorted: &[T],
    range: Range<usize>,
    prob: f64,
    rng: &mut R,
) -> Vec<T::K> {
    bernoulli_sample_positions(range.start as u64..range.end as u64, prob, rng)
        .into_iter()
        .map(|i| sorted[i as usize].key())
        .collect()
}

/// Merge possibly-overlapping inclusive key intervals into a minimal sorted
/// set of disjoint intervals.  Used before interval-restricted sampling so
/// keys covered by several splitter intervals are not sampled twice.
pub fn merge_key_intervals<K: Ord + Copy + RadixSortable>(intervals: Vec<(K, K)>) -> Vec<(K, K)> {
    merge_key_intervals_with(intervals, LocalSortAlgo::Comparison)
}

/// [`merge_key_intervals`] sorting the interval list with the configured
/// local-sort algorithm (pairs radix-sort by the concatenated digit strings
/// of their endpoints).
pub fn merge_key_intervals_with<K: Ord + Copy + RadixSortable>(
    mut intervals: Vec<(K, K)>,
    algo: LocalSortAlgo,
) -> Vec<(K, K)> {
    intervals.retain(|(lo, hi)| lo <= hi);
    algo.sort_slice(&mut intervals);
    let mut out: Vec<(K, K)> = Vec::with_capacity(intervals.len());
    for (lo, hi) in intervals {
        match out.last_mut() {
            Some((_, chi)) if lo <= *chi => {
                if hi > *chi {
                    *chi = hi;
                }
            }
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// The `(start, end)` index range each (disjoint, sorted) **inclusive** key
/// interval covers within `sorted`: `start` is the first index with
/// `key >= lo`, `end` the first with `key > hi`, so a key exactly equal to
/// either endpoint is **inside** (`sorted[start..end]` holds every key in
/// `[lo, hi]` — the same `<=`-semantics as `estimated_local_rank_le`).
///
/// Strategy-adaptive over `2·|intervals|` boundary queries (the shared
/// [`classify_strategy`] rule, identical results in every arm):
///
/// * **binary search** — suffix-narrowing searches: the intervals are
///   sorted and disjoint, so each search runs on the still-open suffix
///   instead of the whole slice;
/// * **merge sweep** — one linear pass over data and interval endpoints,
///   four keys a step (`sweep_past`), so a step costs no mispredict;
/// * **decision tree** — branch-free classification of the data against
///   the interval endpoints (one tree over the `lo`s for the starts, one
///   over the `hi`s for the ends), the dense-interval large-`p` regime.
pub fn interval_bounds<T: Keyed>(sorted: &[T], intervals: &[(T::K, T::K)]) -> Vec<(usize, usize)> {
    debug_assert!(crate::histogram::is_sorted_by_key(sorted));
    let n = sorted.len();
    let c = intervals.len();
    match classify_strategy(n, 2 * c) {
        ClassifyStrategy::BinarySearch => {
            let mut out = Vec::with_capacity(c);
            let mut base = 0usize;
            for &(lo, hi) in intervals {
                let start = base + sorted[base..].partition_point(|x| x.key() < lo);
                let end = start + sorted[start..].partition_point(|x| x.key() <= hi);
                base = end;
                out.push((start, end));
            }
            out
        }
        ClassifyStrategy::MergeSweep => {
            let mut out = Vec::with_capacity(c);
            let mut i = 0usize;
            for &(lo, hi) in intervals {
                let start = sweep_past(sorted, i, |k| k < lo);
                i = sweep_past(sorted, start, |k| k <= hi);
                out.push((start, i));
            }
            out
        }
        ClassifyStrategy::DecisionTree => {
            let lows: Vec<T::K> = intervals.iter().map(|&(lo, _)| lo).collect();
            let highs: Vec<T::K> = intervals.iter().map(|&(_, hi)| hi).collect();
            let starts = DecisionTree::from_splitters(&lows).ranks_lt(sorted);
            let ends = DecisionTree::from_splitters(&highs).ranks_le(sorted);
            starts.into_iter().zip(ends).map(|(s, e)| (s as usize, e as usize)).collect()
        }
    }
}

/// The [`Work`] [`interval_bounds`] actually performs over `c` intervals
/// against `n` sorted keys, arm for arm with [`classify_strategy`]`(n, 2c)`
/// (two boundary queries per interval; the tree arm classifies the data
/// twice, once per endpoint flavour).  Probe charges that locate interval
/// bounds must go through this helper so the simulated cost follows the
/// executed strategy.
pub fn interval_bounds_work(n: usize, c: usize) -> Work {
    match classify_strategy(n, 2 * c) {
        ClassifyStrategy::BinarySearch => Work::binary_search(2 * c, n),
        ClassifyStrategy::MergeSweep => Work::scan(n + 2 * c),
        ClassifyStrategy::DecisionTree => {
            Work::classify(2 * n, crate::classify::tree_height(c)).and(Work::scan(4 * c))
        }
    }
}

/// Number of local keys falling inside the (disjoint, sorted) intervals.
pub fn count_in_intervals<T: Keyed>(sorted: &[T], intervals: &[(T::K, T::K)]) -> usize {
    interval_bounds(sorted, intervals).into_iter().map(|(s, e)| e - s).sum()
}

/// Regular sampling (§4.1.2): the *positions* of `s` evenly spaced keys
/// of `n` sorted keys, the last index of each of `s` equal blocks,
/// `n/s·j − 1` for `j = 1..=s`.  Positions, like
/// [`random_block_sample_positions`], so a spilled rank samples the keys a
/// resident one would.
pub fn regular_sample_positions(n: usize, s: usize) -> Vec<u64> {
    if n == 0 || s == 0 {
        return Vec::new();
    }
    let s = s.min(n);
    (1..=s).map(|j| ((j * n / s).max(1) - 1) as u64).collect()
}

/// Random block sampling (Blelloch et al., §4.1.1), also the
/// representative sample of §3.4: one uniformly random position from each
/// of `s` equal blocks of `n` sorted keys.  Positions, not keys — like
/// [`bernoulli_sample_positions`] — so a data layer that cannot index a
/// slice (the out-of-core tier's spilled run files) consumes the *same*
/// RNG draw sequence: the draws depend only on `n` and `s`.
pub fn random_block_sample_positions<R: Rng>(n: usize, s: usize, rng: &mut R) -> Vec<u64> {
    if n == 0 || s == 0 {
        return Vec::new();
    }
    let s = s.min(n);
    (0..s)
        .map(|j| {
            let start = j * n / s;
            let end = ((j + 1) * n / s).max(start + 1);
            rng.gen_range(start..end) as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(12345)
    }

    #[test]
    fn bernoulli_sample_prob_one_takes_everything() {
        let data: Vec<u64> = (0..100).collect();
        let s = bernoulli_sample_range(&data, 0..data.len(), 1.0, &mut rng());
        assert_eq!(s, data);
    }

    #[test]
    fn bernoulli_sample_prob_zero_takes_nothing() {
        let data: Vec<u64> = (0..100).collect();
        assert!(bernoulli_sample_range(&data, 0..data.len(), 0.0, &mut rng()).is_empty());
    }

    #[test]
    fn bernoulli_sample_size_close_to_expectation() {
        let data: Vec<u64> = (0..200_000).collect();
        let prob = 0.01;
        let s = bernoulli_sample_range(&data, 0..data.len(), prob, &mut rng());
        let expected = 2000.0;
        assert!(
            (s.len() as f64) > expected * 0.7 && (s.len() as f64) < expected * 1.3,
            "sample size {} too far from expectation {}",
            s.len(),
            expected
        );
        // Samples come out in sorted order and belong to the data.
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&k| k < 200_000));
    }

    #[test]
    fn bernoulli_sample_range_respects_bounds() {
        let data: Vec<u64> = (0..1000).collect();
        let s = bernoulli_sample_range(&data, 100..200, 0.5, &mut rng());
        assert!(s.iter().all(|&k| (100..200).contains(&k)));
        assert!(!s.is_empty());
    }

    #[test]
    fn merge_key_intervals_merges_overlaps() {
        let merged = merge_key_intervals(vec![(10u64, 20), (15, 30), (40, 50), (50, 60), (5, 8)]);
        assert_eq!(merged, vec![(5, 8), (10, 30), (40, 60)]);
    }

    #[test]
    fn merge_key_intervals_drops_empty() {
        let merged = merge_key_intervals(vec![(10u64, 5)]);
        assert!(merged.is_empty());
    }

    #[test]
    fn count_in_intervals_is_exact() {
        let data: Vec<u64> = (0..1000).collect();
        assert_eq!(count_in_intervals(&data, &[(100, 199), (500, 500)]), 101);
        assert_eq!(count_in_intervals(&data, &[]), 0);
        assert_eq!(count_in_intervals(&data, &[(2000, 3000)]), 0);
    }

    #[test]
    fn interval_bounds_strategies_agree_on_every_shape() {
        // Oracle: independent full-slice partition_point per endpoint.
        fn oracle(data: &[u64], intervals: &[(u64, u64)]) -> Vec<(usize, usize)> {
            intervals
                .iter()
                .map(|&(lo, hi)| {
                    (data.partition_point(|x| *x < lo), data.partition_point(|x| *x <= hi))
                })
                .collect()
        }
        // Duplicated data keys sitting exactly on interval endpoints.
        let data: Vec<u64> = (0..600u64).map(|i| (i / 3) * 5).collect(); // 0,0,0,5,5,5,...
                                                                         // Sparse intervals -> suffix-narrowing binary searches.
        let sparse = vec![(10u64, 10), (40, 55), (960, 2000)];
        assert_eq!(interval_bounds(&data, &sparse), oracle(&data, &sparse));
        // Dense intervals -> merge sweep or decision tree, same results.
        let dense: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 3, i * 3 + 1)).collect();
        assert_eq!(interval_bounds(&data, &dense), oracle(&data, &dense));
        let tiny: Vec<u64> = vec![5, 5, 10];
        assert_eq!(interval_bounds(&tiny, &dense), oracle(&tiny, &dense));
    }

    #[test]
    fn interval_endpoints_are_inclusive_on_both_sides() {
        // Keys exactly on lo and hi — including duplicate runs — are in.
        let data: Vec<u64> = vec![9, 10, 10, 10, 15, 20, 20, 21];
        let bounds = interval_bounds(&data, &[(10, 20)]);
        assert_eq!(bounds, vec![(1, 7)]); // both duplicate runs included
        assert_eq!(count_in_intervals(&data, &[(10, 20)]), 6);
        // Degenerate single-key interval on a duplicate run.
        assert_eq!(count_in_intervals(&data, &[(10, 10)]), 3);
        // Adjacent intervals share no keys: (a, k-1) then (k, b).
        assert_eq!(
            count_in_intervals(&data, &[(9, 9), (10, 20)]),
            count_in_intervals(&data, &[(9, 20)])
        );
    }

    #[test]
    fn interval_bounds_work_tracks_strategy() {
        use crate::classify::{classify_strategy, ClassifyStrategy};
        use hss_sim::Work;
        // Sparse shape -> binary-search charge.
        assert_eq!(classify_strategy(4096, 2 * 3), ClassifyStrategy::BinarySearch);
        assert_eq!(interval_bounds_work(4096, 3), Work::binary_search(6, 4096));
        // Dense shape -> tree charge (two classification passes).
        let (n, c) = (3usize, 200usize);
        assert_eq!(classify_strategy(n, 2 * c), ClassifyStrategy::DecisionTree);
        assert_eq!(
            interval_bounds_work(n, c),
            Work::classify(2 * n, crate::classify::tree_height(c)).and(Work::scan(4 * c))
        );
    }

    #[test]
    fn regular_sample_is_evenly_spaced() {
        assert_eq!(regular_sample_positions(100, 4), vec![24, 49, 74, 99]);
        assert_eq!(regular_sample_positions(100, 0), Vec::<u64>::new());
        assert_eq!(regular_sample_positions(100, 100), (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn regular_sample_caps_at_data_len() {
        assert_eq!(regular_sample_positions(3, 10), vec![0, 1, 2]);
    }

    #[test]
    fn random_block_sample_takes_one_per_block() {
        let s = random_block_sample_positions(100, 10, &mut rng());
        assert_eq!(s.len(), 10);
        for (j, &k) in s.iter().enumerate() {
            assert!(
                (k as usize) >= j * 10 && (k as usize) < (j + 1) * 10,
                "sample {k} outside block {j}"
            );
        }
    }

    #[test]
    fn samplers_handle_empty_data() {
        let data: Vec<u64> = vec![];
        assert!(bernoulli_sample_range(&data, 0..0, 0.5, &mut rng()).is_empty());
        assert!(regular_sample_positions(data.len(), 5).is_empty());
        assert!(random_block_sample_positions(data.len(), 5, &mut rng()).is_empty());
    }

    #[test]
    fn interval_bounds_match_partition_points_in_every_arm() {
        use crate::classify::{sweep_data, sweep_key, xorshift, SWEEP_SIZES};
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut arms = Vec::new();
        for n in SWEEP_SIZES {
            for c in SWEEP_SIZES {
                // `c` disjoint inclusive intervals over a pool of 3c + 2
                // values: each skips zero or one value, then spans one or
                // two, so endpoints sit on data duplicates, the first may
                // start at `MIN_KEY`, and every other case ends at `MAX_KEY`.
                let top = 3 * c as u64 + 2;
                let data = sweep_data(n, top, &mut state);
                let mut next = 0u64;
                let mut intervals: Vec<(u64, u64)> = (0..c)
                    .map(|_| {
                        let lo = next + xorshift(&mut state) % 2;
                        let hi = lo + xorshift(&mut state) % 2;
                        next = hi + 1;
                        (sweep_key(lo, top), sweep_key(hi, top))
                    })
                    .collect();
                if let Some(last) = intervals.last_mut().filter(|_| (n + c) % 2 == 0) {
                    last.1 = u64::MAX;
                }
                let expect: Vec<(usize, usize)> = intervals
                    .iter()
                    .map(|&(lo, hi)| {
                        (data.partition_point(|x| *x < lo), data.partition_point(|x| *x <= hi))
                    })
                    .collect();
                let got = interval_bounds(&data, &intervals);
                assert_eq!(got, expect, "n {n}, c {c}: {intervals:?} over {data:?}");
                arms.push(classify_strategy(n, 2 * c));
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

    /// `bernoulli_sample_positions` before the logarithm-free early exit:
    /// the reference its draws must repeat exactly.
    fn bernoulli_positions_with_every_log(
        range: Range<u64>,
        prob: f64,
        rng: &mut ChaCha8Rng,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        let log_q = (1.0 - prob).ln();
        let mut idx = range.start;
        loop {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let gap = (u.ln() / log_q).floor() as u64;
            idx = match idx.checked_add(gap) {
                Some(i) => i,
                None => break,
            };
            if idx >= range.end {
                break;
            }
            out.push(idx);
            idx += 1;
        }
        out
    }

    #[test]
    fn skipping_the_log_repeats_the_positions_and_the_rng_stream() {
        for prob in [f64::EPSILON, 1e-12, 0.0144, 0.085, 0.5, 1.0 - 1e-9] {
            for len in 1..=200u64 {
                for seed in 0..4 {
                    let start = seed * 1_000_003;
                    let mut fast = ChaCha8Rng::seed_from_u64(seed ^ len << 8);
                    let mut slow = fast.clone();
                    let range = start..start + len;
                    assert_eq!(
                        bernoulli_sample_positions(range.clone(), prob, &mut fast),
                        bernoulli_positions_with_every_log(range, prob, &mut slow),
                        "prob {prob}, len {len}, seed {seed}"
                    );
                    assert_eq!(fast.gen::<u64>(), slow.gen::<u64>(), "prob {prob}, len {len}");
                }
            }
        }
    }

    #[test]
    fn probabilities_below_the_rounding_of_one_take_nothing() {
        // `1 − 1e-17` rounds to one: a zero `ln q` would take every index.
        for prob in [1e-17, 1e-30, f64::MIN_POSITIVE] {
            for seed in 0..8 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let taken = bernoulli_sample_positions(0..1_000_000, prob, &mut rng);
                assert!(taken.is_empty(), "prob {prob}, seed {seed}: took {}", taken.len());
            }
        }
    }

    #[test]
    fn a_window_sample_is_the_per_window_draws_in_order() {
        let draw = BernoulliDraw::new(0.3);
        let bounds = [(0usize, 5usize), (5, 5), (9, 40), (40, 41), (70, 70), (80, 200)];
        let mut sample = WindowSample::new(&draw, ChaCha8Rng::seed_from_u64(3), bounds.len());
        let mut reference = ChaCha8Rng::seed_from_u64(3);
        let mut expect = Vec::new();
        for (window, &(start, end)) in bounds.iter().enumerate() {
            let range = start as u64..end as u64;
            let want = bernoulli_sample_positions(range, 0.3, &mut reference);
            assert_eq!(sample.window(window, start, end), want.as_slice(), "window {window}");
            expect.extend(want);
        }
        assert_eq!(sample.positions(), expect.as_slice());
        let spans: Vec<(usize, usize, usize)> =
            sample.into_spans().iter().map(|s| (s.window, s.start, s.end)).collect();
        assert_eq!(spans, vec![(0, 0, 5), (2, 9, 40), (3, 40, 41), (5, 80, 200)]);
    }
}
