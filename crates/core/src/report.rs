//! Execution reports: what HSS did, round by round, and how well it did it.
//!
//! These reports are the raw data behind Table 6.1 (number of
//! histogramming rounds), Figure 3.1 (shrinking splitter intervals) and the
//! load-balance claims; the benchmark harness serialises them.

use hss_keygen::Key;
use hss_lsort::LocalSortAlgo;
use hss_partition::{LoadBalance, SplitterIntervals};
use hss_sim::{Machine, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// Statistics of one sampling + histogramming round.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// 1-based round index.
    pub round: usize,
    /// Overall sample size gathered at the root this round (pre-dedup: the
    /// keys that actually travelled to the root and were sorted there).
    pub sample_size: usize,
    /// Number of distinct probes broadcast and histogrammed this round
    /// (post-dedup; `<= sample_size`).  Zero for single-shot algorithms
    /// that gather a sample but broadcast no histogram probes.
    pub probe_count: usize,
    /// Number of splitters not yet finalized *before* this round.
    pub open_before: usize,
    /// Number of splitters not yet finalized *after* this round.
    pub open_after: usize,
    /// Largest splitter-interval width (in ranks) after this round.
    pub max_interval_width: u64,
    /// Mean splitter-interval width (in ranks) after this round.
    pub mean_interval_width: f64,
    /// Size of the union of open splitter intervals after this round
    /// (`G_j`, Theorem 3.3.1/3.3.2).
    pub union_rank_size: u64,
    /// `G_j / N`: fraction of the input still being sampled from.
    pub covered_fraction: f64,
}

/// Report of one splitter-determination run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitterReport {
    /// Number of buckets the splitters partition the data into.
    pub buckets: usize,
    /// Total number of keys.
    pub total_keys: u64,
    /// The per-splitter rank tolerance `εN/(2·buckets)` used for
    /// finalization.
    pub tolerance: u64,
    /// Per-round statistics, in execution order.
    pub rounds: Vec<RoundStats>,
    /// Sum of per-round sample sizes.
    pub total_sample_size: usize,
    /// Whether every splitter was within tolerance when the algorithm
    /// stopped (always true for the constant-oversampling schedule unless
    /// `max_rounds` was hit; true w.h.p. for the theoretical schedules).
    pub all_finalized: bool,
}

impl SplitterReport {
    /// Number of histogramming rounds executed (the Table 6.1 quantity).
    pub fn rounds_executed(&self) -> usize {
        self.rounds.len()
    }

    /// Append the [`RoundStats`] of histogramming round `round` — which
    /// gathered `sample_size` keys, ranked `probe_count` probes and found
    /// `open_before` splitters open — read off the `intervals` after its
    /// update at this report's tolerance, and return the number of
    /// splitters still open.
    pub fn record_round<K: Key>(
        &mut self,
        intervals: &SplitterIntervals<K>,
        round: usize,
        sample_size: usize,
        probe_count: usize,
        open_before: usize,
    ) -> usize {
        let open_after = intervals.unfinalized_count(self.tolerance);
        let widths = intervals.interval_widths();
        let mean_interval_width = if widths.is_empty() {
            0.0
        } else {
            widths.iter().sum::<u64>() as f64 / widths.len() as f64
        };
        self.rounds.push(RoundStats {
            round,
            sample_size,
            probe_count,
            open_before,
            open_after,
            max_interval_width: widths.iter().copied().max().unwrap_or(0),
            mean_interval_width,
            union_rank_size: intervals.union_rank_size(self.tolerance),
            covered_fraction: intervals.covered_fraction(self.tolerance),
        });
        self.total_sample_size += sample_size;
        open_after
    }
}

/// Report of a full end-to-end sort.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SortReport {
    /// Name of the algorithm that produced this report.
    pub algorithm: String,
    /// Number of ranks the data was sorted onto.
    pub ranks: usize,
    /// Total number of keys sorted.
    pub total_keys: u64,
    /// The splitter-determination report (absent for algorithms that do not
    /// use splitters, e.g. bitonic sort).
    pub splitters: Option<SplitterReport>,
    /// Load balance of the final distribution.
    pub load_balance: LoadBalance,
    /// Per-phase cost breakdown from the simulator.
    pub metrics: MetricsRegistry,
    /// Synchronization model the run executed under ("bsp" / "overlapped").
    pub sync_model: String,
    /// Local-sort algorithm the run's per-rank sorts used
    /// ("comparison" / "radix").
    pub local_sort: String,
    /// Simulated makespan: the maximum final per-rank clock.  Under Bsp
    /// this equals [`Self::simulated_seconds`] (up to f64 summation order);
    /// under overlapped execution it is smaller whenever staged exchanges
    /// hid under splitter determination.
    pub makespan_seconds: f64,
}

impl SortReport {
    /// The report of a sort that just finished on `machine`: the
    /// machine's metrics, sync model and makespan as they stand, the local
    /// sort the run used, and the load balance of `output`.
    pub fn new<T>(
        algorithm: &str,
        machine: &Machine,
        local_sort: LocalSortAlgo,
        total_keys: u64,
        splitters: Option<SplitterReport>,
        output: &[Vec<T>],
    ) -> Self {
        Self {
            algorithm: algorithm.to_string(),
            ranks: machine.ranks(),
            total_keys,
            splitters,
            load_balance: LoadBalance::from_rank_data(output),
            metrics: machine.metrics().clone(),
            sync_model: machine.sync_model().name().to_string(),
            local_sort: local_sort.name().to_string(),
            makespan_seconds: machine.simulated_time(),
        }
    }

    /// Achieved load imbalance (`max / average` final rank load).
    pub fn imbalance(&self) -> f64 {
        self.load_balance.imbalance
    }

    /// Whether the result satisfies the `N(1+ε)/p` bound for the given ε.
    pub fn satisfies(&self, epsilon: f64) -> bool {
        self.load_balance.satisfies(epsilon)
    }

    /// Total simulated seconds across all phases (the sum of per-phase
    /// charges — the BSP accounting; see [`Self::makespan_seconds`] for the
    /// timeline view).
    pub fn simulated_seconds(&self) -> f64 {
        self.metrics.total_simulated_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(i: usize, sample: usize) -> RoundStats {
        RoundStats {
            round: i,
            sample_size: sample,
            probe_count: sample,
            open_before: 10,
            open_after: 5,
            max_interval_width: 100,
            mean_interval_width: 50.0,
            union_rank_size: 500,
            covered_fraction: 0.5,
        }
    }

    #[test]
    fn splitter_report_aggregates_rounds() {
        let rep = SplitterReport {
            buckets: 8,
            total_keys: 1000,
            tolerance: 3,
            rounds: vec![round(1, 40), round(2, 25)],
            total_sample_size: 65,
            all_finalized: true,
        };
        assert_eq!(rep.rounds_executed(), 2);
    }

    #[test]
    fn empty_report_has_zero_rounds() {
        let rep = SplitterReport {
            buckets: 1,
            total_keys: 0,
            tolerance: 0,
            rounds: vec![],
            total_sample_size: 0,
            all_finalized: true,
        };
        assert_eq!(rep.rounds_executed(), 0);
    }
}
