//! The unified sorter entry point: a [`SortRequest`] built fluently and
//! dispatched through the [`Sorter`] trait.
//!
//! Every algorithm in the workspace — `HssSorter` and the free-function
//! baselines — is served behind one signature, with output verification as
//! the one shared option:
//!
//! ```
//! use hss_core::{HssConfig, HssSorter, SortRequest, Sorter};
//! use hss_keygen::KeyDistribution;
//! use hss_sim::Machine;
//!
//! let input = KeyDistribution::Uniform.generate_per_rank(8, 500, 1);
//! let mut machine = Machine::flat(8);
//! let outcome = HssSorter::new(HssConfig::default())
//!     .run(&mut machine, SortRequest::new(input).verified())
//!     .expect("verified sort");
//! assert!(outcome.report.load_balance.satisfies(0.05));
//! ```
//!
//! The trait is object safe, so registries can hold `Box<dyn Sorter<u64>>`
//! and dispatch benchmarks or service traffic uniformly (the baselines
//! crate implements it for all five comparison algorithms).

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::verify_global_sort;
use hss_sim::Machine;

use crate::sorter::{HssSorter, SortOutcome};

/// One sort call, described declaratively: the per-rank input plus
/// whether to verify the output.
#[derive(Debug, Clone)]
pub struct SortRequest<T> {
    input: Vec<Vec<T>>,
    verify: bool,
}

impl<T> SortRequest<T> {
    /// A request to sort `input` (one vector per rank) with no output
    /// verification.
    pub fn new(input: Vec<Vec<T>>) -> Self {
        Self { input, verify: false }
    }

    /// Verify the output is a correct global sort of the input (costs one
    /// copy of the input; [`Sorter::run`] returns `Err` on violation).
    pub fn verified(mut self) -> Self {
        self.verify = true;
        self
    }

    /// The per-rank input.
    pub fn input(&self) -> &[Vec<T>] {
        &self.input
    }

    /// Whether output verification was requested.
    pub fn is_verified(&self) -> bool {
        self.verify
    }
}

/// A distributed sorter that can serve a [`SortRequest`]: implemented by
/// [`HssSorter`] and (in `hss-baselines`) by every baseline's config type,
/// so benchmarks, the epoch service and ad-hoc callers dispatch through one
/// signature.
///
/// Object safe: registries hold `Box<dyn Sorter<u64>>`.
pub trait Sorter<T>
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    /// Stable algorithm name, matching the `algorithm` field of the
    /// [`SortReport`](crate::report::SortReport) the sorter produces.
    fn algorithm(&self) -> &'static str;

    /// Sort the per-rank `input` on `machine`.  Implementations panic on
    /// structural misuse (wrong rank count, invalid configuration), exactly
    /// like the entry points they wrap.
    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T>;

    /// Serve one [`SortRequest`]: sort, and verify the output if requested.
    fn run(
        &self,
        machine: &mut Machine,
        request: SortRequest<T>,
    ) -> Result<SortOutcome<T>, String> {
        let reference = if request.verify { Some(request.input.clone()) } else { None };
        let outcome = self.sort(machine, request.input);
        if let Some(reference) = &reference {
            verify_global_sort(reference, &outcome.data)?;
        }
        Ok(outcome)
    }
}

impl<T> Sorter<T> for HssSorter
where
    T: Keyed + Ord + RadixSortable + Clone,
    T::K: RadixSortable,
{
    fn algorithm(&self) -> &'static str {
        self.label()
    }

    fn sort(&self, machine: &mut Machine, input: Vec<Vec<T>>) -> SortOutcome<T> {
        HssSorter::sort(self, machine, input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use hss_keygen::KeyDistribution;
    use hss_sim::Machine;

    #[test]
    fn request_builder_records_settings() {
        let req = SortRequest::new(vec![vec![3u64, 1], vec![2, 4]]);
        assert_eq!(req.input().len(), 2);
        assert!(!req.is_verified());
        assert!(req.verified().is_verified());
    }

    #[test]
    fn hss_run_matches_direct_sort_bitwise() {
        let p = 8;
        let input = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(p, 400, 3);
        let cfg = HssConfig::default().with_seed(3);

        let mut direct_machine = Machine::flat(p);
        let direct = HssSorter::new(cfg.clone()).sort(&mut direct_machine, input.clone());

        let sorter = HssSorter::new(cfg);
        assert_eq!(Sorter::<u64>::algorithm(&sorter), "hss");
        let mut trait_machine = Machine::flat(p);
        let through_trait =
            sorter.run(&mut trait_machine, SortRequest::new(input).verified()).unwrap();

        assert_eq!(direct.data, through_trait.data);
        assert_eq!(
            direct_machine.metrics().deterministic_signature(),
            trait_machine.metrics().deterministic_signature(),
            "trait dispatch changed the cost signature"
        );
    }

    #[test]
    fn dyn_dispatch_works() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 100, 5);
        let boxed: Box<dyn Sorter<u64>> = Box::new(HssSorter::new(HssConfig::default()));
        let mut machine = Machine::flat(p);
        let outcome = boxed.run(&mut machine, SortRequest::new(input).verified()).unwrap();
        assert_eq!(outcome.report.algorithm, boxed.algorithm());
    }
}
