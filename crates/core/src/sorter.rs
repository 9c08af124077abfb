//! The end-to-end HSS sorter: local sort → splitter determination →
//! all-to-all exchange → merge (plus the optional node-level and
//! duplicate-tagging variants).

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::{exchange_and_merge_with, verify_global_sort, ExchangeMode};
use hss_sim::{Machine, Phase, SyncModel};

use crate::config::HssConfig;
use crate::duplicates::{tag_per_rank, untag_per_rank};
use crate::local_sort::charged_local_sort;
use crate::multi_round::determine_splitters;
use crate::node_level::node_level_sort;
use crate::report::{SortReport, SplitterReport};

/// The result of one HSS run: globally sorted per-rank data plus the
/// execution report.
#[derive(Debug, Clone)]
pub struct SortOutcome<T> {
    /// Per-rank output: sorted within each rank, globally sorted across
    /// ranks (rank `i`'s keys all precede rank `i+1`'s).
    pub data: Vec<Vec<T>>,
    /// What happened: rounds, sample sizes, load balance, per-phase costs.
    pub report: SortReport,
}

/// Histogram Sort with Sampling, configured by an [`HssConfig`].
///
/// ```
/// use hss_core::{HssConfig, HssSorter};
/// use hss_keygen::KeyDistribution;
/// use hss_sim::Machine;
///
/// let p = 8;
/// let input = KeyDistribution::Uniform.generate_per_rank(p, 1_000, 42);
/// let mut machine = Machine::flat(p);
/// let outcome = HssSorter::new(HssConfig::default()).sort(&mut machine, input);
/// assert!(outcome.report.load_balance.satisfies(0.05));
/// ```
#[derive(Debug, Clone, Default)]
pub struct HssSorter {
    config: HssConfig,
}

impl HssSorter {
    /// A sorter with the given configuration.
    pub fn new(config: HssConfig) -> Self {
        Self { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HssConfig {
        &self.config
    }

    /// Sort `input` (per-rank, unsorted) on `machine`, returning the
    /// globally sorted per-rank data and a [`SortReport`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != machine.ranks()` or the configuration is
    /// invalid.
    pub fn sort<T>(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
    {
        self.config.validate().expect("invalid HSS configuration");
        assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
        let total_keys: u64 = input.iter().map(|v| v.len() as u64).sum();

        let (data, splitter_report) = if self.config.tag_duplicates {
            // Wrap every item with its (PE, index) tag so duplicates get a
            // strict total order, sort the tagged items, unwrap.
            let tagged = tag_per_rank(machine, input);
            let (sorted_tagged, rep) = self.sort_sorted_phase(machine, tagged);
            (untag_per_rank(machine, sorted_tagged), rep)
        } else {
            self.sort_sorted_phase(machine, input)
        };

        let algorithm = if self.config.node_level { "hss-node-level" } else { "hss" };
        let report =
            SortReport::new(algorithm, machine, &self.config, total_keys, splitter_report, &data);
        SortOutcome { data, report }
    }

    /// Sort already-tagged (or tag-free) items: local sort, splitter
    /// determination, exchange, merge.
    fn sort_sorted_phase<T>(
        &self,
        machine: &mut Machine,
        mut data: Vec<Vec<T>>,
    ) -> (Vec<Vec<T>>, SplitterReport)
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
    {
        // Local sort (embarrassingly parallel, no communication), with the
        // configured algorithm — comparison or in-place MSD radix.
        let algo = self.config.local_sort;
        machine.local_phase(Phase::LocalSort, &mut data, move |_rank, local| {
            charged_local_sort(algo, local)
        });

        let use_node_level = self.config.node_level && machine.topology().cores_per_node() > 1;
        // Node-level partitioning has no staged-exchange pipeline yet;
        // silently running it under Overlapped would label a plain
        // node-level run "overlapped" in the report, so the combination is
        // rejected outright.
        assert!(
            !(use_node_level && machine.sync_model() == SyncModel::Overlapped),
            "node-level partitioning is not supported under SyncModel::Overlapped; \
             run node-level sorts on a Bsp machine or disable node_level"
        );
        if use_node_level {
            node_level_sort(machine, &data, &self.config)
        } else if machine.sync_model() == SyncModel::Overlapped {
            // Overlapped execution (§4): splitter determination and the
            // data exchange are pipelined through asynchronous stages; the
            // exchange is inherently flat/rank-level, so the engine and
            // node-combining knobs do not apply.
            crate::overlap::overlapped_exchange_sort(machine, &data, &self.config)
        } else {
            let p = machine.ranks();
            let (splitters, report) = determine_splitters(machine, &data, p, &self.config);
            // Even without node-level *splitting*, combining messages per
            // node pair is free goodness whenever nodes have several cores.
            let mode = if machine.topology().cores_per_node() > 1 {
                ExchangeMode::NodeCombined
            } else {
                ExchangeMode::RankLevel
            };
            let out = exchange_and_merge_with(
                machine,
                &data,
                &splitters,
                mode,
                self.config.exchange_engine,
            );
            (out, report)
        }
    }

    /// Sort and additionally verify the output is a correct global sort of
    /// the input (used by tests and examples; costs an extra copy of the
    /// input).
    ///
    /// Prefer `Sorter::run` with `SortRequest::new(input).verified()` — the
    /// unified entry point subsumes this method.
    pub fn sort_verified<T>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
    ) -> Result<SortOutcome<T>, String>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
    {
        let reference = input.clone();
        let outcome = self.sort(machine, input);
        verify_global_sort(&reference, &outcome.data)?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::{ChangaDataset, KeyDistribution, Record};
    use hss_sim::{CostModel, Topology};

    #[test]
    fn sorts_uniform_keys_with_default_config() {
        let p = 16;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 2_000, 1);
        let mut machine = Machine::flat(p);
        let outcome = HssSorter::default().sort_verified(&mut machine, input).unwrap();
        assert!(outcome.report.satisfies(0.05), "imbalance {}", outcome.report.imbalance());
        assert!(outcome.report.splitters.as_ref().unwrap().all_finalized);
    }

    #[test]
    fn sorts_every_catalogue_distribution() {
        let p = 8;
        for dist in KeyDistribution::catalogue() {
            let input = dist.generate_per_rank(p, 600, 7);
            let mut machine = Machine::flat(p);
            // Duplicate-heavy inputs need tagging for the balance guarantee;
            // correctness of the sort itself must hold regardless.
            let outcome = HssSorter::default()
                .sort_verified(&mut machine, input)
                .unwrap_or_else(|e| panic!("{} failed: {e}", dist.name()));
            assert_eq!(outcome.report.total_keys, (p * 600) as u64);
        }
    }

    #[test]
    fn duplicate_tagging_restores_load_balance() {
        let p = 8;
        let input = KeyDistribution::FewDistinct { distinct: 3 }.generate_per_rank(p, 1_000, 3);
        // Without tagging, 3 distinct values over 8 ranks cannot balance.
        let mut m1 = Machine::flat(p);
        let plain = HssSorter::default().sort_verified(&mut m1, input.clone()).unwrap();
        assert!(!plain.report.satisfies(0.05));
        // With tagging, balance is restored.
        let mut m2 = Machine::flat(p);
        let cfg = HssConfig::default().with_duplicate_tagging();
        let tagged = HssSorter::new(cfg).sort_verified(&mut m2, input).unwrap();
        assert!(tagged.report.satisfies(0.05), "tagged imbalance {}", tagged.report.imbalance());
    }

    #[test]
    fn all_equal_keys_balance_with_tagging() {
        let p = 6;
        let input = KeyDistribution::AllEqual.generate_per_rank(p, 500, 0);
        let mut machine = Machine::flat(p);
        let cfg = HssConfig::default().with_duplicate_tagging();
        let outcome = HssSorter::new(cfg).sort_verified(&mut machine, input).unwrap();
        assert!(outcome.report.satisfies(0.05), "imbalance {}", outcome.report.imbalance());
    }

    #[test]
    fn sorts_records_and_preserves_payloads() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_records_per_rank(p, 800, 9);
        let mut machine = Machine::flat(p);
        let outcome = HssSorter::default().sort_verified(&mut machine, input).unwrap();
        // Every record still carries the payload derived from its key.
        for rank in &outcome.data {
            for rec in rank {
                assert_eq!(*rec, Record::with_derived_payload(rec.key));
            }
        }
    }

    #[test]
    fn node_level_config_runs_on_multicore_topology() {
        let p = 32;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 1_000, 13);
        let mut machine = Machine::new(Topology::new(p, 8), CostModel::bluegene_like());
        let outcome =
            HssSorter::new(HssConfig::paper_cluster()).sort_verified(&mut machine, input).unwrap();
        assert_eq!(outcome.report.algorithm, "hss-node-level");
        // 2% across nodes, 5% within: allow the combined slack.
        assert!(outcome.report.satisfies(0.10), "imbalance {}", outcome.report.imbalance());
        let sp = outcome.report.splitters.as_ref().unwrap();
        assert_eq!(sp.buckets, 4);
    }

    #[test]
    fn changa_datasets_sort_correctly() {
        let p = 16;
        for ds in [ChangaDataset::lambb_like(1), ChangaDataset::dwarf_like(1)] {
            let input = ds.generate_keys_per_rank(p, 800, 3);
            let mut machine = Machine::flat(p);
            let cfg = HssConfig { epsilon: 0.05, ..HssConfig::default() }.with_duplicate_tagging();
            let outcome = HssSorter::new(cfg).sort_verified(&mut machine, input).unwrap();
            assert!(
                outcome.report.satisfies(0.05),
                "{}: imbalance {}",
                ds.name,
                outcome.report.imbalance()
            );
        }
    }

    #[test]
    fn phase_breakdown_covers_all_three_figure_groups() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 1_000, 5);
        let mut machine = Machine::flat(p);
        let outcome = HssSorter::default().sort(&mut machine, input);
        let groups = outcome.report.metrics.figure_6_1_breakdown();
        assert!(groups.contains_key("local sort"));
        assert!(groups.contains_key("histogramming"));
        assert!(groups.contains_key("data exchange"));
        assert!(outcome.report.simulated_seconds() > 0.0);
    }

    #[test]
    fn empty_and_single_rank_inputs_work() {
        let mut machine = Machine::flat(1);
        let outcome = HssSorter::default().sort(&mut machine, vec![vec![5u64, 1, 3]]);
        assert_eq!(outcome.data, vec![vec![1, 3, 5]]);

        let mut machine = Machine::flat(4);
        let outcome = HssSorter::default()
            .sort(&mut machine, vec![vec![], vec![], vec![], Vec::<u64>::new()]);
        assert_eq!(outcome.report.total_keys, 0);
    }

    #[test]
    fn uneven_input_divisions_still_sort() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_uneven_per_rank(p, 1_000, 0.6, 3);
        let mut machine = Machine::flat(p);
        let outcome = HssSorter::default().sort_verified(&mut machine, input).unwrap();
        assert!(outcome.report.satisfies(0.05), "imbalance {}", outcome.report.imbalance());
    }

    #[test]
    #[should_panic(expected = "one input vector per rank")]
    fn mismatched_rank_count_panics() {
        let mut machine = Machine::flat(4);
        let _ = HssSorter::default().sort(&mut machine, vec![vec![1u64]; 3]);
    }

    #[test]
    #[should_panic(expected = "node-level partitioning is not supported")]
    fn node_level_under_overlapped_is_rejected() {
        let input = KeyDistribution::Uniform.generate_per_rank(8, 100, 1);
        let mut machine = Machine::new(Topology::new(8, 4), CostModel::bluegene_like())
            .with_sync_model(SyncModel::Overlapped);
        let _ = HssSorter::new(HssConfig::default().with_node_level()).sort(&mut machine, input);
    }
}
