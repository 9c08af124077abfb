//! Block bitonic sort (Batcher, §4.2) — the merge-based baseline.
//!
//! Each rank keeps a sorted block; the bitonic sorting network is executed
//! block-wise: a compare-exchange between two ranks becomes a *merge-split*
//! in which the pair exchanges its blocks, the lower side keeps the smallest
//! keys and the upper side the largest.  Every key is therefore moved
//! `Θ(log² p)` times — the "large data movement" that makes merge-based
//! algorithms uncompetitive when `N ≫ p`, which is exactly the comparison
//! point the paper makes in §4.2.

use hss_core::charged_local_sort;
use hss_core::report::SortReport;
use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_sim::{ExchangePlan, Machine, Phase, Work};

/// Block bitonic sort, end to end, with `local_sort` running the initial
/// block sorts and the merge-split sorts.  Requires the rank count to be a
/// power of two.
pub fn bitonic_sort<T: Keyed + Ord + RadixSortable>(
    machine: &mut Machine,
    mut input: Vec<Vec<T>>,
    local_sort: LocalSortAlgo,
) -> (Vec<Vec<T>>, SortReport) {
    let p = machine.ranks();
    assert!(p.is_power_of_two(), "bitonic sort requires a power-of-two rank count (got {p})");
    assert_eq!(input.len(), p, "one input vector per rank");
    let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();

    machine.local_phase(Phase::LocalSort, &mut input, |_rank, local| {
        charged_local_sort(local_sort, local)
    });

    let stages = p.trailing_zeros();
    for stage in 0..stages {
        for step in (0..=stage).rev() {
            compare_split_step(machine, &mut input, stage, step, local_sort);
        }
    }

    let report = SortReport::new("bitonic", machine, local_sort, total_keys, None, &input);
    (input, report)
}

/// One parallel compare-exchange column of the bitonic network, lifted to
/// blocks: partner pairs exchange blocks, each side keeps its original
/// block size from the merged sequence (lower side keeps the smallest keys
/// in an ascending group, the largest in a descending group).
fn compare_split_step<T: Keyed + Ord + RadixSortable>(
    machine: &mut Machine,
    data: &mut Vec<Vec<T>>,
    stage: u32,
    step: u32,
    local_sort: LocalSortAlgo,
) {
    let p = machine.ranks();
    // Exchange full blocks with the partner: the block itself is the flat
    // send buffer, the plan routes all of it to the partner, and each
    // rank's receive buffer ends up holding exactly its partner's block.
    let plans: Vec<ExchangePlan> = machine.map_phase(Phase::DataExchange, data, |rank, local| {
        let partner = rank ^ (1usize << step);
        let mut counts = vec![0usize; p];
        counts[partner] = local.len();
        (ExchangePlan::from_counts(counts), Work::scan(local.len()))
    });
    let partner_blocks: Vec<Vec<T>> = machine
        .all_to_allv_flat(Phase::DataExchange, data, &plans)
        .into_iter()
        .map(|fr| fr.data)
        .collect();

    // Merge own block with the partner's and keep the appropriate half.
    let merged: Vec<Vec<T>> = machine.map_phase_mut(Phase::Merge, data, |rank, local| {
        let local = std::mem::take(local);
        let partner = rank ^ (1usize << step);
        let keep = local.len();
        let other: &[T] = &partner_blocks[rank];
        let work = Work::merge(local.len() + other.len(), 2);
        let ascending = (rank >> (stage + 1)) & 1 == 0;
        let take_low = (rank < partner) == ascending;
        let mut all = local;
        all.extend_from_slice(other);
        local_sort.sort_slice(&mut all);
        let kept = if take_low {
            all[..keep.min(all.len())].to_vec()
        } else {
            all[all.len().saturating_sub(keep)..].to_vec()
        };
        (kept, work)
    });
    *data = merged;
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;

    #[test]
    fn bitonic_sorts_uniform_input() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 500, 3);
        let mut machine = Machine::flat(p);
        let (out, report) = bitonic_sort(&mut machine, input.clone(), LocalSortAlgo::default());
        verify_global_sort(&input, &out).unwrap();
        // Equal block sizes stay equal: bitonic gives perfect balance.
        assert!(report.load_balance.satisfies(0.01));
    }

    #[test]
    fn bitonic_sorts_skewed_and_presorted_inputs() {
        for dist in [
            KeyDistribution::PowerLaw { gamma: 4.0 },
            KeyDistribution::Sorted,
            KeyDistribution::ReverseSorted,
            KeyDistribution::AllEqual,
        ] {
            let p = 4;
            let input = dist.generate_per_rank(p, 300, 9);
            let mut machine = Machine::flat(p);
            let (out, _report) =
                bitonic_sort(&mut machine, input.clone(), LocalSortAlgo::default());
            verify_global_sort(&input, &out)
                .unwrap_or_else(|e| panic!("{} failed: {e}", dist.name()));
        }
    }

    #[test]
    fn bitonic_moves_far_more_data_than_a_single_exchange() {
        let p = 16;
        let n = 200;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 1);
        let mut machine = Machine::flat(p);
        let _ = bitonic_sort(&mut machine, input, LocalSortAlgo::default());
        let words = machine.metrics().phase(Phase::DataExchange).comm_words;
        // log2(16) = 4 stages -> 10 compare-split columns, each moving all
        // N keys; a splitter-based sort moves N once.
        let n_total = (p * n) as u64;
        assert!(words > 5 * n_total, "only {words} words moved for N = {n_total}");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rank_count_panics() {
        let mut machine = Machine::flat(6);
        let input: Vec<Vec<u64>> = vec![vec![1]; 6];
        let _ = bitonic_sort(&mut machine, input, LocalSortAlgo::default());
    }

    #[test]
    fn single_rank_is_a_local_sort() {
        let mut machine = Machine::flat(1);
        let (out, _r) =
            bitonic_sort(&mut machine, vec![vec![3u64, 1, 2]], LocalSortAlgo::default());
        assert_eq!(out, vec![vec![1, 2, 3]]);
    }
}
