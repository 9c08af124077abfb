//! The bridge between the [`hss_lsort`] subsystem and the simulator's cost
//! accounting: run the configured local sort and return the [`Work`] the
//! cost model charges for it.
//!
//! # Cost convention
//!
//! Two kinds of sorts happen on a rank, and they are charged differently:
//!
//! * **Data sorts** — the `Θ(N/p)` sorts of the actual keys (the
//!   [`Phase::LocalSort`](hss_sim::Phase) phase, and the final sort of the
//!   radix-partition baseline).  These go through [`charged_local_sort`]
//!   and are charged what the selected algorithm costs:
//!   `n log2 n` compare ops for [`LocalSortAlgo::Comparison`],
//!   `2·n·RADIX_BYTES` classify+move ops for [`LocalSortAlgo::Radix`]
//!   ([`Work::radix_sort`]).  The simulated breakdown therefore tracks the
//!   real crossover: radix is modelled (and measured) cheaper once
//!   `N/p ≥ 2^16` for 64-bit keys.
//! * **Sample sorts** — the root's sorts of gathered samples and probes
//!   inside splitter determination.  These are asymptotically small
//!   (`O(p)`–`O(p²/ε)` keys, mostly inside the radix sorter's
//!   insertion-sort base case), and their *charge* is part of the splitter
//!   determination cost the paper's Table 5.1 compares across algorithms —
//!   so the host runs the configured algorithm
//!   ([`LocalSortAlgo::sort_slice`]) while the model keeps charging the
//!   comparison-sort term (`CostModel::sort_ops`) regardless of the knob.
//!   This keeps every phase other than the local sorts bit-identical
//!   between the two algorithms, which is exactly what
//!   `tests/lsort_differential.rs` asserts.

use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_sim::Work;

/// Sort one rank's data with `algo` and return the modelled [`Work`]:
/// [`Work::sort`] for the comparison sort, [`Work::radix_sort`] (with the
/// item type's byte-pass count) for the radix sort.  The radix sort of
/// wide records replaces the vector with its gather buffer
/// ([`LocalSortAlgo::sort_vec`]).
pub fn charged_local_sort<T: RadixSortable>(algo: LocalSortAlgo, data: &mut Vec<T>) -> Work {
    algo.sort_vec(data);
    local_sort_work::<T>(algo, data.len())
}

/// The modelled [`Work`] of sorting `n` items of type `T` with `algo` —
/// also what the out-of-core tier charges for run formation, which runs
/// the same sort over the same items chunk by chunk.
pub(crate) fn local_sort_work<T: RadixSortable>(algo: LocalSortAlgo, n: usize) -> Work {
    match algo {
        LocalSortAlgo::Comparison => Work::sort(n),
        LocalSortAlgo::Radix => Work::radix_sort(n, T::RADIX_BYTES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_follow_the_algorithm() {
        let input: Vec<u64> = (0..1000u64).rev().collect();
        let mut a = input.clone();
        let wa = charged_local_sort(LocalSortAlgo::Comparison, &mut a);
        let mut b = input.clone();
        let wb = charged_local_sort(LocalSortAlgo::Radix, &mut b);
        assert_eq!(a, b, "both algorithms must produce the identical sorted slice");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(wa, Work::sort(1000));
        assert_eq!(wb, Work::radix_sort(1000, 8));
        assert_ne!(wa, wb, "the two algorithms are modelled differently");
    }

    #[test]
    fn empty_slice_charges_nothing() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(charged_local_sort(LocalSortAlgo::Radix, &mut v), Work::none());
    }
}
