//! Classic Histogram sort (Kale & Krishnan, §2.3) — multi-round probe
//! refinement *without* sampling.
//!
//! The original algorithm broadcasts `O(p)` candidate probe keys spread
//! evenly across the *key range*, histograms them, and then refines the
//! probes of the splitters that are still outside tolerance by subdividing
//! their key intervals, again evenly in key space.  Because refinement
//! bisects key space rather than rank space, the number of rounds is only
//! bounded by `log(key range)` and grows for skewed distributions — exactly
//! the weakness HSS's sampled probes remove (and what Figure 6.2's
//! HSS-vs-"Old" comparison shows).  Key-space bisection is a
//! [`SplitterPolicy`] of the one pipeline, so that comparison differs in
//! splitter determination alone.

use hss_core::report::SplitterReport;
use hss_core::theory::rank_tolerance;
use hss_core::{exact_ranks, key_extent, RoundProgress, SortedSource, SplitterPolicy};
use hss_keygen::{ByteKey, Key};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{SplitterIntervals, SplitterSet};
use hss_sim::{Machine, Phase};

/// Keys whose range can be subdivided evenly — needed by classic histogram
/// sort, which generates probes by splitting *key space* (it has no sample
/// to draw probes from).
pub trait SubdividableKey: Key {
    /// `parts - 1` keys that split `[lo, hi]` into `parts` evenly sized
    /// sub-ranges (best effort for integer keys).  Returns fewer keys when
    /// the range is too narrow.
    fn subdivide(lo: Self, hi: Self, parts: usize) -> Vec<Self>;
}

macro_rules! impl_subdividable_unsigned {
    ($($t:ty),*) => {
        $(impl SubdividableKey for $t {
            fn subdivide(lo: Self, hi: Self, parts: usize) -> Vec<Self> {
                if parts <= 1 || hi <= lo {
                    return Vec::new();
                }
                let span = (hi - lo) as u128;
                let mut out = Vec::with_capacity(parts - 1);
                for i in 1..parts {
                    let offset = (span * i as u128 / parts as u128) as $t;
                    let key = lo + offset;
                    if key > lo && key < hi && out.last() != Some(&key) {
                        out.push(key);
                    }
                }
                out
            }
        })*
    };
}

impl_subdividable_unsigned!(u8, u16, u32, u64, usize);

/// Byte-string keys subdivide as big-endian base-256 numerals, so classic
/// histogram sort's key-space bisection works for any width without a
/// big-integer dependency: the span `hi − lo` comes from byte-wise borrow
/// subtraction, `span · i` from an LSB-first multiply with carry,
/// `⌊span · i / parts⌋` from an MSB-first short division (every dividend
/// digit is `< 256`, so each quotient digit fits a byte), and `lo + offset`
/// from byte-wise carry addition.  For `N = 8` this agrees bit for bit with
/// the `u64` subdivision.
impl<const N: usize> SubdividableKey for ByteKey<N> {
    fn subdivide(lo: Self, hi: Self, parts: usize) -> Vec<Self> {
        if parts <= 1 || hi <= lo {
            return Vec::new();
        }
        // span = hi − lo (byte-wise, MSB at index 0).
        let mut span = [0u8; N];
        let mut borrow = 0i16;
        for j in (0..N).rev() {
            let d = hi.0[j] as i16 - lo.0[j] as i16 - borrow;
            span[j] = d.rem_euclid(256) as u8;
            borrow = i16::from(d < 0);
        }
        let mut out = Vec::with_capacity(parts - 1);
        for i in 1..parts {
            // prod = span · i, least-significant byte first with room for
            // the multiplier's carry.
            let mut prod = vec![0u8; N + 16];
            let mut carry: u128 = 0;
            for k in 0..N {
                let digit = span[N - 1 - k] as u128 * i as u128 + carry;
                prod[k] = digit as u8;
                carry = digit >> 8;
            }
            let mut k = N;
            while carry > 0 {
                prod[k] = carry as u8;
                carry >>= 8;
                k += 1;
            }
            // offset = ⌊prod / parts⌋ by MSB-first short division; the
            // quotient is < span, so its top bytes beyond N are zero.
            let mut rem: u128 = 0;
            let mut quot = vec![0u8; prod.len()];
            for k in (0..prod.len()).rev() {
                let acc = rem * 256 + prod[k] as u128;
                quot[k] = (acc / parts as u128) as u8;
                rem = acc % parts as u128;
            }
            // key = lo + offset (byte-wise with carry).
            let mut bytes = lo.0;
            let mut carry = 0u16;
            for j in (0..N).rev() {
                let s = bytes[j] as u16 + quot[N - 1 - j] as u16 + carry;
                bytes[j] = s as u8;
                carry = s >> 8;
            }
            let key = ByteKey::new(bytes);
            if key > lo && key < hi && out.last() != Some(&key) {
                out.push(key);
            }
        }
        out
    }
}

/// Configuration of the classic histogram-sort baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSortConfig {
    /// Load-imbalance threshold ε.
    pub epsilon: f64,
    /// Total number of probes broadcast per round (kept `O(p)`; the probes
    /// are divided among the splitters that are still open).
    pub probes_per_round: usize,
    /// Safety cap on the number of rounds (the paper's loose bound is
    /// `log(key range)`, i.e. 64 for 64-bit keys).
    pub max_rounds: usize,
    /// Local-sort algorithm for the per-rank sorts (and the per-round probe
    /// sort).
    pub local_sort: LocalSortAlgo,
}

impl HistogramSortConfig {
    /// Defaults matching the paper's description: 2p probes per round,
    /// up to 64 rounds.
    pub fn new(epsilon: f64, ranks: usize) -> Self {
        Self {
            epsilon,
            probes_per_round: 2 * ranks.max(1),
            max_rounds: 64,
            local_sort: LocalSortAlgo::default(),
        }
    }
}

/// Key-space bisection: refine evenly spread probes inside the open
/// splitter intervals until every splitter is within tolerance.  The rounds
/// are reported but not observed: the probes are generated, not sampled,
/// and the overlapped schedule moves this policy's buckets in one exchange.
impl<K: SubdividableKey + RadixSortable> SplitterPolicy<K> for HistogramSortConfig {
    fn splitters<S, F>(
        &self,
        machine: &mut Machine,
        sources: &mut [&mut S],
        buckets: usize,
        _on_round: F,
    ) -> (SplitterSet<K>, SplitterReport)
    where
        S: SortedSource<K> + ?Sized,
        F: FnMut(&mut Machine, &RoundProgress<'_, K>),
    {
        assert!(buckets >= 1);
        let total_keys: u64 = sources.iter().map(|source| source.len() as u64).sum();
        let tolerance = rank_tolerance(total_keys, buckets, self.epsilon);
        let mut intervals: SplitterIntervals<K> = SplitterIntervals::new(total_keys, buckets);
        let mut report = SplitterReport {
            buckets,
            total_keys,
            tolerance,
            rounds: Vec::new(),
            total_sample_size: 0,
            all_finalized: buckets <= 1,
        };

        // The data's key extent, for the initial evenly spread probe (none
        // to split with one bucket, none to find without keys).
        let extent = if buckets > 1 { key_extent(sources) } else { None };
        if let Some((min_key, max_key)) = extent {
            let mut round = 0usize;
            loop {
                round += 1;
                let open_before = intervals.unfinalized_count(tolerance);

                // This round's probe: evenly spread over the whole extent in
                // round 1, evenly spread inside each open splitter interval
                // after.
                let mut probes: Vec<K> = if round == 1 {
                    K::subdivide(min_key, max_key, self.probes_per_round + 1)
                } else {
                    let open = intervals.open_key_intervals(tolerance);
                    let per_interval = (self.probes_per_round / open.len().max(1)).max(1);
                    let mut v = Vec::new();
                    for (lo, hi) in open {
                        let (lo, hi) = (lo.clamp(min_key, max_key), hi.clamp(min_key, max_key));
                        v.extend(K::subdivide(lo, hi, per_interval + 1));
                    }
                    v
                };
                self.local_sort.sort_slice(&mut probes);
                probes.dedup();
                if probes.is_empty() {
                    // Key ranges too narrow to subdivide further: cannot
                    // refine.
                    break;
                }

                machine.broadcast(Phase::Histogramming, &probes);
                let ranks = exact_ranks(machine, sources, &probes);
                intervals.update(&probes, &ranks);

                // Classic histogram sort's probes are generated, not
                // sampled; the deduplicated probe set is what was broadcast.
                let open_after =
                    report.record_round(&intervals, round, probes.len(), probes.len(), open_before);

                if open_after == 0 || round >= self.max_rounds {
                    break;
                }
            }
            report.all_finalized = intervals.all_finalized(tolerance);
        }
        let keys = if buckets <= 1 { Vec::new() } else { intervals.best_splitter_keys() };
        let splitters = SplitterSet::new(keys);
        machine.broadcast(Phase::SplitterBroadcast, splitters.keys());
        (splitters, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_core::{determine_splitters, HssConfig, SortOutcome, Sorter};
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;

    #[test]
    fn subdivide_splits_ranges_evenly() {
        assert_eq!(u64::subdivide(0, 100, 4), vec![25, 50, 75]);
        assert_eq!(u64::subdivide(10, 10, 4), Vec::<u64>::new());
        assert_eq!(u64::subdivide(0, 100, 1), Vec::<u64>::new());
        // Narrow range produces fewer (deduplicated) probes.
        assert_eq!(u64::subdivide(0, 2, 4), vec![1]);
        // Full range does not overflow.
        let probes = u64::subdivide(0, u64::MAX, 4);
        assert_eq!(probes.len(), 3);
        assert!(probes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn byte_key_subdivide_matches_u64_at_width_8() {
        // ByteKey<8>'s big-endian bignum arithmetic is exactly u64
        // arithmetic, so the probes must agree bit for bit.
        for (lo, hi, parts) in
            [(0u64, 100, 4), (0, u64::MAX, 7), (17, 19, 5), (u64::MAX - 3, u64::MAX, 4), (5, 5, 3)]
        {
            let expect: Vec<ByteKey<8>> =
                u64::subdivide(lo, hi, parts).into_iter().map(ByteKey::from_u64_prefix).collect();
            let got = ByteKey::<8>::subdivide(
                ByteKey::from_u64_prefix(lo),
                ByteKey::from_u64_prefix(hi),
                parts,
            );
            assert_eq!(got, expect, "lo {lo} hi {hi} parts {parts}");
        }
    }

    #[test]
    fn byte_key_subdivide_handles_wide_keys() {
        // Full 10-byte range: probes must be strictly increasing and stay
        // inside the open interval.
        let probes = ByteKey::<10>::subdivide(ByteKey::<10>::MIN_KEY, ByteKey::<10>::MAX_KEY, 8);
        assert_eq!(probes.len(), 7);
        assert!(probes.windows(2).all(|w| w[0] < w[1]));
        assert!(probes.iter().all(|p| *p > ByteKey::MIN_KEY && *p < ByteKey::MAX_KEY));
        // The midpoint of the full range starts with 0x7F/0x80-ish bytes.
        let mid = ByteKey::<10>::subdivide(ByteKey::MIN_KEY, ByteKey::MAX_KEY, 2)[0];
        assert_eq!(mid.as_bytes()[0], 0x7F);
        // Span crossing a byte-borrow boundary.
        let lo = ByteKey::new([0, 0xFF, 0, 0]);
        let hi = ByteKey::new([1, 0x01, 0, 0]);
        let probes = ByteKey::<4>::subdivide(lo, hi, 2);
        assert_eq!(probes, vec![ByteKey::new([1, 0x00, 0, 0])]);
    }

    #[test]
    fn histogram_sort_sorts_uniform_input() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 1500, 5);
        let mut machine = Machine::flat(p);
        let cfg = HistogramSortConfig::new(0.05, p);
        let outcome = cfg.sort(&mut machine, input.clone());
        let (out, report) = (outcome.data, outcome.report);
        verify_global_sort(&input, &out).unwrap();
        assert!(report.load_balance.satisfies(0.05), "imbalance {}", report.imbalance());
        assert!(report.splitters.as_ref().unwrap().all_finalized);
    }

    #[test]
    fn histogram_sort_handles_skewed_input_with_more_rounds() {
        let p = 8;
        let eps = 0.05;
        let uniform = KeyDistribution::Uniform.generate_per_rank(p, 1500, 7);
        let skewed =
            KeyDistribution::Exponential { scale_frac: 1e-4 }.generate_per_rank(p, 1500, 7);
        let cfg = HistogramSortConfig::new(eps, p);

        let mut m1 = Machine::flat(p);
        let r1 = cfg.sort(&mut m1, uniform).report;
        let mut m2 = Machine::flat(p);
        let SortOutcome { data: o2, report: r2 } = cfg.sort(&mut m2, skewed.clone());
        verify_global_sort(&skewed, &o2).unwrap();
        let rounds_uniform = r1.splitters.as_ref().unwrap().rounds_executed();
        let rounds_skewed = r2.splitters.as_ref().unwrap().rounds_executed();
        // Skew concentrates the keys into a tiny corner of key space, so
        // key-space bisection needs more refinement rounds.
        assert!(
            rounds_skewed >= rounds_uniform,
            "skewed {rounds_skewed} < uniform {rounds_uniform}"
        );
    }

    #[test]
    fn hss_needs_no_more_rounds_than_classic_histogram_sort_on_skew() {
        // The Figure 6.2 story: on clustered (ChaNGa-like) keys, HSS
        // finalizes splitters in fewer (or equal) histogramming rounds than
        // classic key-space refinement.
        let p = 16;
        let eps = 0.05;
        let ds = hss_keygen::ChangaDataset::dwarf_like(3);
        let mut input = ds.generate_keys_per_rank(p, 1200, 9);
        for v in &mut input {
            v.sort_unstable();
        }
        let mut m1 = Machine::flat(p);
        let mut slices: Vec<&[u64]> = input.iter().map(Vec::as_slice).collect();
        let mut sources: Vec<&mut &[u64]> = slices.iter_mut().collect();
        let (_s1, classic) =
            HistogramSortConfig::new(eps, p).splitters(&mut m1, &mut sources, p, |_, _| {});
        let mut m2 = Machine::flat(p);
        let (_s2, hss) = determine_splitters(
            &mut m2,
            &input,
            p,
            &HssConfig { epsilon: eps, ..HssConfig::default() },
        );
        assert!(
            hss.rounds_executed() <= classic.rounds_executed(),
            "HSS took {} rounds, classic took {}",
            hss.rounds_executed(),
            classic.rounds_executed()
        );
    }

    #[test]
    fn single_bucket_short_circuits() {
        let input: Vec<Vec<u64>> = vec![vec![3, 1, 2]];
        let mut machine = Machine::flat(1);
        let cfg = HistogramSortConfig::new(0.05, 1);
        let SortOutcome { data: out, report } = cfg.sort(&mut machine, input);
        assert_eq!(out, vec![vec![1, 2, 3]]);
        assert!(report.splitters.as_ref().unwrap().all_finalized);
    }
}
