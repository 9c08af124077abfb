//! [`Sorter`] implementations for every baseline, plus a registry.
//!
//! Each baseline's config type implements the unified
//! [`hss_core::Sorter`] trait, so one `SortRequest` signature serves the
//! whole comparison field: benchmarks iterate a `Vec<Box<dyn Sorter<u64>>>`
//! instead of hand-writing one call per algorithm.  A splitter policy sorts
//! through the one pipeline under the default [`HssConfig`].  The generic
//! [`standard_sorters_for`] registry builds the same field over any record
//! type that satisfies every baseline's key bounds — e.g. 100-byte
//! [`hss_keygen::TeraRecord`]s.

use hss_core::{HssConfig, HssSorter, SortOutcome, Sorter, SplitterPolicy};
use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_sim::Machine;

use crate::bitonic::bitonic_sort;
use crate::histogram_sort::{HistogramSortConfig, SubdividableKey};
use crate::over_partitioning::OverPartitioningConfig;
use crate::radix::{radix_partition_sort, RadixConfig};
use crate::sample_sort::{SampleSortConfig, SamplingMethod};

/// Marker for the bitonic baseline, which has no tunable configuration: it
/// runs the default local sort.  Requires a power-of-two rank count, like
/// [`bitonic_sort`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BitonicSorter;

/// Sort through the one pipeline with `policy`'s splitters, the default
/// [`HssConfig`] running `local_sort`, and report the run as `algorithm`.
fn pipeline_sort<T, P>(
    algorithm: &str,
    policy: P,
    local_sort: LocalSortAlgo,
    machine: &mut Machine,
    input: Vec<Vec<T>>,
) -> SortOutcome<T>
where
    T: Keyed + Ord + RadixSortable,
    T::K: RadixSortable,
    P: SplitterPolicy<T::K>,
{
    let config = HssConfig::default().with_local_sort(local_sort);
    let mut outcome = HssSorter::with_splitters(config, policy).sort(machine, input);
    outcome.report.algorithm = algorithm.to_string();
    outcome
}

impl<T> Sorter<T> for SampleSortConfig
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        match self.method {
            SamplingMethod::Regular => "sample-sort-regular",
            SamplingMethod::Random => "sample-sort-random",
        }
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        pipeline_sort(Sorter::<T>::algorithm(self), *self, self.local_sort, machine, input)
    }
}

impl<T> Sorter<T> for HistogramSortConfig
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: SubdividableKey + RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        "histogram-sort-classic"
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        pipeline_sort(Sorter::<T>::algorithm(self), *self, self.local_sort, machine, input)
    }
}

impl<T> Sorter<T> for OverPartitioningConfig
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        "over-partitioning"
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        pipeline_sort(Sorter::<T>::algorithm(self), *self, self.local_sort, machine, input)
    }
}

impl<T> Sorter<T> for RadixConfig
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        "radix-partition"
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        let (data, report) = radix_partition_sort(machine, self, input);
        SortOutcome { data, report }
    }
}

impl<T> Sorter<T> for BitonicSorter
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        "bitonic"
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        let (data, report) = bitonic_sort(machine, input, LocalSortAlgo::default());
        SortOutcome { data, report }
    }
}

/// All five baselines plus HSS over `u64` keys, with the configurations the
/// paper's evaluation uses (`epsilon` threshold where the algorithm takes
/// one, recommended settings otherwise).  The bitonic entry requires a
/// power-of-two `ranks`.
pub fn standard_sorters(ranks: usize, epsilon: f64) -> Vec<Box<dyn Sorter<u64>>> {
    standard_sorters_for::<u64>(ranks, epsilon)
}

/// [`standard_sorters`] generalised to any record type that satisfies every
/// baseline's key bounds: a subdividable key for classic histogram sort.
/// `u64`,
/// [`hss_keygen::Record`], [`hss_keygen::ByteKey`] and
/// [`hss_keygen::WideRecord`] (hence [`hss_keygen::TeraRecord`]) all
/// qualify.
pub fn standard_sorters_for<T>(ranks: usize, epsilon: f64) -> Vec<Box<dyn Sorter<T>>>
where
    T: Keyed + Ord + RadixSortable + Clone + 'static,
    T::K: SubdividableKey + RadixSortable,
{
    vec![
        Box::new(hss_core::HssSorter::new(hss_core::HssConfig::default().with_epsilon(epsilon))),
        Box::new(SampleSortConfig::regular(epsilon)),
        Box::new(SampleSortConfig::random(epsilon)),
        Box::new(HistogramSortConfig::new(epsilon, ranks)),
        Box::new(OverPartitioningConfig::recommended(ranks)),
        Box::new(RadixConfig::recommended(ranks)),
        Box::new(BitonicSorter),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_core::SortRequest;
    use hss_keygen::KeyDistribution;

    #[test]
    fn registry_sorts_and_labels_consistently() {
        let p = 8; // power of two for the bitonic entry
        for sorter in standard_sorters(p, 0.1) {
            let input = KeyDistribution::Uniform.generate_per_rank(p, 300, 7);
            let mut machine = Machine::flat(p);
            let outcome = sorter
                .run(&mut machine, SortRequest::new(input).verified())
                .unwrap_or_else(|e| panic!("{} failed verification: {e}", sorter.algorithm()));
            assert_eq!(
                outcome.report.algorithm,
                sorter.algorithm(),
                "report/trait algorithm name mismatch"
            );
        }
    }

    #[test]
    fn trait_dispatch_matches_direct_call_bitwise() {
        let p = 8;
        let input = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(p, 300, 5);
        let cfg = SampleSortConfig::regular(0.2);

        let mut direct_machine = Machine::flat(p);
        let pipeline = HssSorter::with_splitters(HssConfig::default(), cfg);
        let direct = pipeline.sort(&mut direct_machine, input.clone()).data;

        let mut trait_machine = Machine::flat(p);
        let through_trait = cfg.run(&mut trait_machine, SortRequest::new(input)).unwrap();

        assert_eq!(direct, through_trait.data);
        assert_eq!(
            direct_machine.metrics().deterministic_signature(),
            trait_machine.metrics().deterministic_signature()
        );
    }
}
