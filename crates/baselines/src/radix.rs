//! Parallel most-significant-digit radix partitioning (§4.2).
//!
//! Radix sort groups keys by their bit representation rather than by
//! comparisons.  The parallel variant reproduced here performs one
//! distribution pass over the top `digit_bits` bits: every rank counts its
//! keys per digit bucket, the counts are reduced, contiguous digit buckets
//! are assigned to ranks so that every rank receives roughly `N/p` keys,
//! and an all-to-all moves the keys; each rank then sorts locally.
//!
//! Two properties the paper calls out are directly observable: the
//! all-to-all exchange of the full input per pass (large data movement) and
//! the dependence on the *bit distribution* of the keys — a skewed key
//! distribution concentrates digits and ruins load balance, unlike
//! comparison/splitter-based methods.

use hss_core::report::SortReport;
use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_sim::{ExchangePlan, Machine, Phase, Work};

use crate::common::local_sort_phase;

/// Configuration for the radix-partition baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixConfig {
    /// Number of most-significant bits used for the distribution pass.
    pub digit_bits: u32,
    /// Local-sort algorithm for the final per-rank sorts.
    pub local_sort: LocalSortAlgo,
}

impl RadixConfig {
    /// A digit wide enough to give ~8 buckets per rank.
    pub fn recommended(ranks: usize) -> Self {
        let bits = ((ranks.max(2) * 8) as f64).log2().ceil() as u32;
        Self { digit_bits: bits.clamp(1, 16), local_sort: LocalSortAlgo::default() }
    }
}

/// Items sortable by radix: they expose a `u64` view of their key whose
/// numeric order equals the key order.
pub trait RadixKeyed: Keyed {
    /// The key as an order-preserving 64-bit unsigned integer.
    fn radix_key(&self) -> u64;
}

impl RadixKeyed for u64 {
    fn radix_key(&self) -> u64 {
        *self
    }
}

impl RadixKeyed for u32 {
    fn radix_key(&self) -> u64 {
        *self as u64
    }
}

impl RadixKeyed for hss_keygen::Record {
    fn radix_key(&self) -> u64 {
        self.key
    }
}

/// Big-endian prefix view: the first `min(N, 8)` key bytes as a `u64`,
/// left-aligned for short keys.  Numeric order agrees with the key's
/// lexicographic order; keys sharing an 8-byte prefix collapse to the same
/// digit, which only coarsens the distribution pass (the final local sort
/// still orders them fully).
impl<const N: usize> RadixKeyed for hss_keygen::ByteKey<N> {
    fn radix_key(&self) -> u64 {
        let take = N.min(8);
        let mut v = 0u64;
        for &b in &self.as_bytes()[..take] {
            v = (v << 8) | b as u64;
        }
        v << (8 * (8 - take))
    }
}

impl<const K: usize, const V: usize> RadixKeyed for hss_keygen::WideRecord<K, V> {
    fn radix_key(&self) -> u64 {
        self.key.radix_key()
    }
}

/// MSD radix partitioning followed by a local sort.
pub fn radix_partition_sort<T: RadixKeyed + Ord + RadixSortable>(
    machine: &mut Machine,
    config: &RadixConfig,
    input: Vec<Vec<T>>,
) -> (Vec<Vec<T>>, SortReport) {
    let p = machine.ranks();
    assert_eq!(input.len(), p, "one input vector per rank");
    assert!(config.digit_bits >= 1 && config.digit_bits <= 32);
    let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();
    let buckets = 1usize << config.digit_bits;
    let shift = 64 - config.digit_bits;

    // Count keys per digit bucket on every rank and reduce.
    let local_counts: Vec<Vec<u64>> =
        machine.map_phase(Phase::Histogramming, &input, |_r, local| {
            let mut counts = vec![0u64; buckets];
            for item in local {
                counts[(item.radix_key() >> shift) as usize] += 1;
            }
            (counts, Work::scan(local.len()))
        });
    let global_counts = machine.reduce_sum(Phase::Histogramming, &local_counts);

    // Assign contiguous digit buckets to ranks, closing a rank once its
    // assigned count reaches N/p.
    let bucket_to_rank = assign_buckets(&global_counts, p, total_keys);
    machine.broadcast(Phase::SplitterBroadcast, &bucket_to_rank);

    // Route every key to the rank owning its digit bucket: counting-sort
    // the owned input into destination order with an in-place
    // cycle-following permutation — no per-bucket buffers and no element
    // is cloned on the send side.
    let plans: Vec<ExchangePlan> = input
        .iter()
        .map(|local| {
            let mut counts = vec![0usize; p];
            for item in local {
                counts[bucket_to_rank[(item.radix_key() >> shift) as usize]] += 1;
            }
            ExchangePlan::from_counts(counts)
        })
        .collect();
    let bufs: Vec<Vec<T>> = machine.transform_phase(Phase::DataExchange, input, |r, mut local| {
        let n = local.len();
        // dest[i]: final position of local[i] (grouped by destination
        // rank, stable within each group).
        let mut cursor = plans[r].displs.clone();
        let mut dest: Vec<usize> = Vec::with_capacity(n);
        for item in &local {
            let d = bucket_to_rank[(item.radix_key() >> shift) as usize];
            dest.push(cursor[d]);
            cursor[d] += 1;
        }
        for i in 0..n {
            while dest[i] != i {
                let j = dest[i];
                local.swap(i, j);
                dest.swap(i, j);
            }
        }
        (local, Work::scan(n))
    });
    let received = machine.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);
    let datas: Vec<Vec<T>> = received.into_iter().map(|fr| fr.data).collect();
    let mut output = machine.transform_phase(Phase::Merge, datas, |_r, data| {
        let total = data.len();
        (data, Work::scan(total))
    });

    // Final local sort of each rank's bucket contents.
    local_sort_phase(machine, &mut output, config.local_sort);

    let report =
        SortReport::new("radix-partition", machine, config.local_sort, total_keys, None, &output);
    (output, report)
}

/// Greedy contiguous assignment of digit buckets to ranks.
fn assign_buckets(global_counts: &[u64], ranks: usize, total_keys: u64) -> Vec<usize> {
    let target = (total_keys as f64 / ranks as f64).max(1.0);
    let mut assignment = vec![0usize; global_counts.len()];
    let mut rank = 0usize;
    let mut acc = 0f64;
    for (b, &c) in global_counts.iter().enumerate() {
        assignment[b] = rank;
        acc += c as f64;
        if acc >= target && rank + 1 < ranks {
            rank += 1;
            acc = 0.0;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::{ByteKey, KeyDistribution, TeraRecord, WideRecord};
    use hss_partition::verify_global_sort;

    #[test]
    fn radix_sorts_uniform_input_with_good_balance() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 1500, 3);
        let mut machine = Machine::flat(p);
        let cfg = RadixConfig::recommended(p);
        let (out, report) = radix_partition_sort(&mut machine, &cfg, input.clone());
        verify_global_sort(&input, &out).unwrap();
        // Uniform bits spread evenly over digit buckets.
        assert!(report.load_balance.satisfies(0.30), "imbalance {}", report.imbalance());
    }

    #[test]
    fn radix_balance_degrades_on_skewed_input() {
        let p = 8;
        let skewed =
            KeyDistribution::Exponential { scale_frac: 1e-5 }.generate_per_rank(p, 1500, 3);
        let mut machine = Machine::flat(p);
        let cfg = RadixConfig::recommended(p);
        let (out, report) = radix_partition_sort(&mut machine, &cfg, skewed.clone());
        verify_global_sort(&skewed, &out).unwrap();
        // Nearly every key shares its top bits, so one rank receives almost
        // everything: the imbalance blows up (the §4.2 criticism).
        assert!(report.imbalance() > 2.0, "imbalance unexpectedly good: {}", report.imbalance());
    }

    #[test]
    fn assign_buckets_covers_all_ranks_on_uniform_counts() {
        let counts = vec![10u64; 64];
        let a = assign_buckets(&counts, 8, 640);
        assert_eq!(*a.iter().max().unwrap(), 7);
        // Assignment is monotone non-decreasing (contiguous groups).
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn byte_key_radix_view_preserves_order() {
        // 10-byte keys: the u64 view is the 8-byte prefix, so strict byte
        // order implies non-strict numeric order (ties allowed past byte 8).
        let keys: Vec<ByteKey<10>> =
            (0..500u64).map(|i| ByteKey::from_u64_prefix(i.wrapping_mul(0x9E37_79B9))).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            assert!(w[0].radix_key() <= w[1].radix_key());
        }
        // Short keys are left-aligned so the top digit_bits are populated.
        let short = ByteKey::<2>::new([0xAB, 0xCD]);
        assert_eq!(short.radix_key(), 0xABCD_0000_0000_0000);
        // Wide records delegate to their key.
        let rec = WideRecord::<10, 90>::with_derived_payload(keys[7]);
        assert_eq!(rec.radix_key(), keys[7].radix_key());
    }

    #[test]
    fn tera_records_sort_by_radix_key() {
        let p = 4;
        let input = hss_keygen::generate_tera_records_per_rank(p, 300, 11);
        let mut machine = Machine::flat(p);
        let cfg = RadixConfig::recommended(p);
        let (out, _report) = radix_partition_sort(&mut machine, &cfg, input.clone());
        verify_global_sort(&input, &out).unwrap();
        let total: usize = out.iter().map(Vec::len).sum();
        assert_eq!(total, p * 300);
        assert!(out.iter().flatten().all(TeraRecord::payload_matches_key));
    }

    #[test]
    fn records_sort_by_radix_key() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_records_per_rank(p, 400, 9);
        let mut machine = Machine::flat(p);
        let cfg = RadixConfig::recommended(p);
        let (out, _report) = radix_partition_sort(&mut machine, &cfg, input.clone());
        verify_global_sort(&input, &out).unwrap();
    }
}
