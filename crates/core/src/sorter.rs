//! The end-to-end sorter: the one pipeline (`pipeline.rs`: local sort →
//! splitter determination → exchange → finish) with everything in memory,
//! plus the optional duplicate-tagging wrapper.  HSS finds the splitters
//! unless [`HssSorter::with_splitters`] chose another policy.

use hss_keygen::{Key, Keyed};
use hss_lsort::RadixSortable;
use hss_partition::SplitterSet;
use hss_sim::Machine;

use crate::config::HssConfig;
use crate::duplicates::{tag_per_rank, untag_per_rank};
use crate::multi_round::{HssRounds, RoundProgress, SortedSource, SplitterPolicy, WarmStart};
use crate::pipeline::{self, InMemory, Residency};
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

/// Histogram Sort with Sampling, configured by an [`HssConfig`] — or, built
/// by [`HssSorter::with_splitters`], the same pipeline finding its
/// splitters by another [`SplitterPolicy`].
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
#[derive(Debug, Clone)]
pub struct HssSorter<P = Hss> {
    config: HssConfig,
    /// The chosen splitter policy; `None` is HSS, read from `config`.
    splitters: Option<P>,
}

/// The policy type of [`HssSorter::new`]: HSS itself.  It has no values —
/// HSS reads the sorter's own [`HssConfig`], so such a sorter holds no
/// policy.
#[derive(Debug, Clone, Copy)]
pub enum Hss {}

impl<K: Key> SplitterPolicy<K> for Hss {
    fn splitters<S, F>(
        &self,
        _: &mut Machine,
        _: &mut [&mut S],
        _: usize,
        _: F,
    ) -> (SplitterSet<K>, SplitterReport)
    where
        S: SortedSource<K> + ?Sized,
        F: FnMut(&mut Machine, &RoundProgress<'_, K>),
    {
        match *self {}
    }
}

impl HssSorter {
    /// An HSS sorter with the given configuration.
    pub fn new(config: HssConfig) -> Self {
        Self { config, splitters: None }
    }
}

impl Default for HssSorter {
    fn default() -> Self {
        Self::new(HssConfig::default())
    }
}

impl<P> HssSorter<P> {
    /// A sorter that finds its splitters by `policy` and runs the rest of
    /// the pipeline as `config` says: its granularity (`node_level`), local
    /// sort, stage fraction and out-of-core policy.  `config`'s HSS-only fields go unread.  Reports carry the
    /// pipeline's labels (`hss`, `hss-node-level`, `hss-extsort`); a caller
    /// names its policy's runs itself, as the baselines' `Sorter`s do.
    pub fn with_splitters(config: HssConfig, policy: P) -> Self {
        Self { config, splitters: Some(policy) }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HssConfig {
        &self.config
    }

    /// The `algorithm` label of the reports this sorter produces.
    pub(crate) fn label(&self) -> &'static str {
        if self.config.node_level {
            "hss-node-level"
        } else {
            "hss"
        }
    }

    /// Sort `input` (per-rank, unsorted) on `machine`, returning the
    /// globally sorted per-rank data and a [`SortReport`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != machine.ranks()`, if the configuration is
    /// invalid, or if `tag_duplicates` is set on a sorter of a policy other
    /// than HSS (duplicate tagging is HSS-only).
    pub fn sort<T>(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
        P: SplitterPolicy<T::K>,
    {
        let in_memory = InMemory(self.config.local_sort);
        if !self.config.tag_duplicates {
            return self.sort_with(self.label(), machine, input, &in_memory, None, |_, _| {});
        }
        assert!(
            self.splitters.is_none(),
            "duplicate tagging is HSS-only; disable tag_duplicates for other splitter policies"
        );
        // Wrap every item with its (PE, index) tag so duplicates get a
        // strict total order, sort the tagged items, unwrap.
        self.reported(self.label(), machine, input, |machine, input| {
            let tagged = tag_per_rank(machine, input);
            let hss = HssRounds { config: &self.config, warm: None };
            let (sorted_tagged, splitters) =
                pipeline::sort(machine, tagged, &self.config, &in_memory, &hss, |_, _| {});
            (untag_per_rank(machine, sorted_tagged), splitters)
        })
    }

    /// [`Self::sort`] with HSS's two hooks exposed (mirroring
    /// [`determine_splitters_seeded`](crate::determine_splitters_seeded)):
    /// `warm` seeds splitter determination from a previous sort of a
    /// near-identical keyspace, and `on_round` observes every histogramming
    /// round — ahead of the overlapped schedule's own observer, so what it
    /// sees does not depend on the machine's sync model.  With `None` and a
    /// no-op observer this *is* [`Self::sort`], bitwise.  The epoch service
    /// seals every epoch through this call.
    ///
    /// # Panics
    ///
    /// Panics like [`Self::sort`]; if `tag_duplicates` is set (both hooks
    /// speak untagged keys, the tagged pipeline does not); and on a sorter
    /// of a policy other than HSS (a warm start is HSS state).
    pub fn sort_seeded<T, F>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        warm: Option<&WarmStart<T::K>>,
        on_round: F,
    ) -> SortOutcome<T>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
        P: SplitterPolicy<T::K>,
        F: FnMut(&mut Machine, &RoundProgress<'_, T::K>),
    {
        assert!(
            !self.config.tag_duplicates,
            "sort_seeded's warm start and round observer speak untagged keys; \
             disable tag_duplicates"
        );
        assert!(self.splitters.is_none(), "sort_seeded is HSS-only: it seeds HSS's rounds");
        let in_memory = InMemory(self.config.local_sort);
        self.sort_with(self.label(), machine, input, &in_memory, warm, on_round)
    }

    /// The pipeline under `residency` with the chosen policy's splitters —
    /// HSS's warm-started from `warm` — reported as `algorithm`.
    pub(crate) fn sort_with<T, R, F>(
        &self,
        algorithm: &str,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        residency: &R,
        warm: Option<&WarmStart<T::K>>,
        on_round: F,
    ) -> SortOutcome<T>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
        P: SplitterPolicy<T::K>,
        R: Residency<T>,
        F: FnMut(&mut Machine, &RoundProgress<'_, T::K>),
    {
        let config = &self.config;
        self.reported(algorithm, machine, input, |machine, input| match &self.splitters {
            None => {
                let hss = HssRounds { config, warm };
                pipeline::sort(machine, input, config, residency, &hss, on_round)
            }
            Some(policy) => pipeline::sort(machine, input, config, residency, policy, on_round),
        })
    }

    /// Validate the call, run `phases` (unsorted input → sorted output plus
    /// the splitter report) and assemble the [`SortReport`] of `algorithm`.
    fn reported<T>(
        &self,
        algorithm: &str,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        phases: impl FnOnce(&mut Machine, Vec<Vec<T>>) -> (Vec<Vec<T>>, SplitterReport),
    ) -> SortOutcome<T> {
        self.config.validate().expect("invalid HSS configuration");
        assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
        let total_keys = input.iter().map(|v| v.len() as u64).sum();
        let (data, splitters) = phases(machine, input);
        let report = SortReport::new(
            algorithm,
            machine,
            self.config.local_sort,
            total_keys,
            Some(splitters),
            &data,
        );
        SortOutcome { data, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{SortRequest, Sorter};
    use hss_keygen::{ChangaDataset, KeyDistribution, Record};
    use hss_sim::{CostModel, Phase, SyncModel, Topology};

    /// Sort through the unified entry point with output verification on.
    fn run_verified<T>(
        sorter: HssSorter,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
    ) -> Result<SortOutcome<T>, String>
    where
        T: Keyed + Ord + RadixSortable,
        T::K: RadixSortable,
    {
        sorter.run(machine, SortRequest::new(input).verified())
    }

    #[test]
    fn sorts_uniform_keys_with_default_config() {
        let p = 16;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 2_000, 1);
        let mut machine = Machine::flat(p);
        let outcome = run_verified(HssSorter::default(), &mut machine, input).unwrap();
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
            let outcome = run_verified(HssSorter::default(), &mut machine, input)
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
        let plain = run_verified(HssSorter::default(), &mut m1, input.clone()).unwrap();
        assert!(!plain.report.satisfies(0.05));
        // With tagging, balance is restored.
        let mut m2 = Machine::flat(p);
        let cfg = HssConfig::default().with_duplicate_tagging();
        let tagged = run_verified(HssSorter::new(cfg), &mut m2, input).unwrap();
        assert!(tagged.report.satisfies(0.05), "tagged imbalance {}", tagged.report.imbalance());
    }

    #[test]
    fn all_equal_keys_balance_with_tagging() {
        let p = 6;
        let input = KeyDistribution::AllEqual.generate_per_rank(p, 500, 0);
        let mut machine = Machine::flat(p);
        let cfg = HssConfig::default().with_duplicate_tagging();
        let outcome = run_verified(HssSorter::new(cfg), &mut machine, input).unwrap();
        assert!(outcome.report.satisfies(0.05), "imbalance {}", outcome.report.imbalance());
    }

    #[test]
    fn sorts_records_and_preserves_payloads() {
        let p = 8;
        let input = KeyDistribution::Uniform.generate_records_per_rank(p, 800, 9);
        let mut machine = Machine::flat(p);
        let outcome = run_verified(HssSorter::default(), &mut machine, input).unwrap();
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
            run_verified(HssSorter::new(HssConfig::paper_cluster()), &mut machine, input).unwrap();
        assert_eq!(outcome.report.algorithm, "hss-node-level");
        // 2% across nodes; the cut within nodes is exact.
        assert!(outcome.report.satisfies(0.02), "imbalance {}", outcome.report.imbalance());
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
            let outcome = run_verified(HssSorter::new(cfg), &mut machine, input).unwrap();
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
        let outcome = run_verified(HssSorter::default(), &mut machine, input).unwrap();
        assert!(outcome.report.satisfies(0.05), "imbalance {}", outcome.report.imbalance());
    }

    #[test]
    #[should_panic(expected = "one input vector per rank")]
    fn mismatched_rank_count_panics() {
        let mut machine = Machine::flat(4);
        let _ = HssSorter::default().sort(&mut machine, vec![vec![1u64]; 3]);
    }

    #[test]
    fn node_level_under_overlapped_sorts_and_stages_to_leaders() {
        let p = 16;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 800, 1);
        let mut machine = Machine::new(Topology::new(p, 4), CostModel::bluegene_like())
            .with_sync_model(SyncModel::Overlapped);
        let outcome =
            run_verified(HssSorter::new(HssConfig::paper_cluster()), &mut machine, input).unwrap();
        assert_eq!(outcome.report.algorithm, "hss-node-level");
        assert_eq!(outcome.report.sync_model, "overlapped");
        assert_eq!(outcome.report.splitters.as_ref().unwrap().buckets, 4);
        assert!(outcome.report.satisfies(0.02), "imbalance {}", outcome.report.imbalance());
        assert!(machine.metrics().phase(Phase::DataExchange).messages > 0);
    }
}
