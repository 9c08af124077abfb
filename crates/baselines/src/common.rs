//! Shared plumbing for the baseline sorters: the common "local sort →
//! splitters → exchange → merge" driver and report assembly.

use hss_core::charged_local_sort;
use hss_core::report::{RoundStats, SortReport, SplitterReport};
use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{exchange_and_merge_with, SplitterSet};
use hss_sim::{Machine, Phase};

/// Locally sort every rank's data in place with `algo`, charging
/// [`Phase::LocalSort`] the cost of the algorithm actually run (see
/// `hss_core::local_sort`).
pub fn local_sort_phase<T: Keyed + Ord + RadixSortable>(
    machine: &mut Machine,
    data: &mut [Vec<T>],
    algo: LocalSortAlgo,
) {
    machine
        .local_phase(Phase::LocalSort, data, move |_rank, local| charged_local_sort(algo, local));
}

/// Run the shared tail of every splitter-based baseline: exchange by the
/// given splitters, merge, compute the load balance and assemble a
/// [`SortReport`] recording `local_sort`, the algorithm the run's local
/// sorts used.
pub fn finish_splitter_sort<T: Keyed + RadixSortable>(
    machine: &mut Machine,
    algorithm: &str,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
    splitter_report: SplitterReport,
    local_sort: LocalSortAlgo,
) -> (Vec<Vec<T>>, SortReport) {
    machine.broadcast(Phase::SplitterBroadcast, splitters.keys());
    let out = exchange_and_merge_with(machine, per_rank_sorted, splitters);
    let total_keys = splitter_report.total_keys;
    let report =
        SortReport::new(algorithm, machine, local_sort, total_keys, Some(splitter_report), &out);
    (out, report)
}

/// A one-round [`SplitterReport`] for algorithms (sample sort flavours) that
/// gather a single sample of `sample_size` keys.
pub fn single_round_report(
    buckets: usize,
    total_keys: u64,
    tolerance: u64,
    sample_size: usize,
) -> SplitterReport {
    SplitterReport {
        buckets,
        total_keys,
        tolerance,
        rounds: vec![RoundStats {
            round: 1,
            sample_size,
            // Sample-sort flavours broadcast no histogram probes.
            probe_count: 0,
            open_before: buckets.saturating_sub(1),
            open_after: 0,
            max_interval_width: 0,
            mean_interval_width: 0.0,
            union_rank_size: 0,
            covered_fraction: 0.0,
        }],
        total_sample_size: sample_size,
        all_finalized: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::exact_splitters;

    #[test]
    fn local_sort_phase_sorts_each_rank() {
        let mut machine = Machine::flat(3);
        let mut data: Vec<Vec<u64>> = vec![vec![3, 1, 2], vec![9, 7], vec![]];
        local_sort_phase(&mut machine, &mut data, LocalSortAlgo::default());
        assert_eq!(data, vec![vec![1, 2, 3], vec![7, 9], vec![]]);
        assert!(machine.metrics().phase(Phase::LocalSort).simulated_seconds > 0.0);
    }

    #[test]
    fn finish_splitter_sort_builds_report() {
        let p = 4;
        let mut data = KeyDistribution::Uniform.generate_per_rank(p, 200, 3);
        let mut machine = Machine::flat(p);
        local_sort_phase(&mut machine, &mut data, LocalSortAlgo::default());
        let splitters = SplitterSet::new(exact_splitters(&data, p));
        let rep = single_round_report(p, (p * 200) as u64, 0, 123);
        let (out, report) = finish_splitter_sort(
            &mut machine,
            "test-algo",
            &data,
            &splitters,
            rep,
            LocalSortAlgo::default(),
        );
        assert_eq!(report.algorithm, "test-algo");
        assert_eq!(report.total_keys, 800);
        assert_eq!(out.iter().map(|v| v.len()).sum::<usize>(), 800);
        assert!(report.load_balance.satisfies(0.05));
    }
}
