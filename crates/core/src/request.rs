//! The unified sorter entry point: a [`SortRequest`] built fluently and
//! dispatched through the [`Sorter`] trait.
//!
//! Historically every algorithm in the workspace grew its own entry-point
//! constellation — `HssSorter::sort` plus a verifying twin, free-function
//! baselines, and a parallel `*_with_engine` family threading the exchange
//! engine through.  [`Sorter`] collapses all of them behind one signature:
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
use hss_partition::{verify_global_sort, ExchangeEngine};
use hss_sim::Machine;

use crate::sorter::{HssSorter, SortOutcome};

/// One sort call, described declaratively: the per-rank input plus the
/// optional knobs every sorter shares (exchange engine, output
/// verification).
#[derive(Debug, Clone)]
pub struct SortRequest<T> {
    input: Vec<Vec<T>>,
    engine: Option<ExchangeEngine>,
    verify: bool,
}

impl<T> SortRequest<T> {
    /// A request to sort `input` (one vector per rank) with the executing
    /// sorter's default engine and no output verification.
    pub fn new(input: Vec<Vec<T>>) -> Self {
        Self { input, engine: None, verify: false }
    }

    /// Use an explicit all-to-all exchange engine instead of the sorter's
    /// default.
    pub fn with_engine(mut self, engine: ExchangeEngine) -> Self {
        self.engine = Some(engine);
        self
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

    /// The requested engine, if any.
    pub fn engine(&self) -> Option<ExchangeEngine> {
        self.engine
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

    /// The exchange engine used when the request does not pick one.
    fn default_engine(&self) -> ExchangeEngine {
        ExchangeEngine::Flat
    }

    /// Sort the per-rank `input` on `machine` with an explicit exchange
    /// engine.  Implementations panic on structural misuse (wrong rank
    /// count, invalid configuration), exactly like the historical entry
    /// points they wrap.
    fn sort_with_engine(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        engine: ExchangeEngine,
    ) -> SortOutcome<T>;

    /// Serve one [`SortRequest`]: resolve the engine, sort, and verify the
    /// output if requested.
    fn run(
        &self,
        machine: &mut Machine,
        request: SortRequest<T>,
    ) -> Result<SortOutcome<T>, String> {
        let engine = request.engine.unwrap_or_else(|| self.default_engine());
        let reference = if request.verify { Some(request.input.clone()) } else { None };
        let outcome = self.sort_with_engine(machine, request.input, engine);
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

    fn default_engine(&self) -> ExchangeEngine {
        self.config().exchange_engine
    }

    fn sort_with_engine(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
        engine: ExchangeEngine,
    ) -> SortOutcome<T> {
        if engine == self.config().exchange_engine {
            self.sort(machine, input)
        } else {
            HssSorter::new(self.config().clone().with_exchange_engine(engine)).sort(machine, input)
        }
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
        assert_eq!(req.engine(), None);
        assert!(!req.is_verified());
        let req = req.with_engine(ExchangeEngine::Nested).verified();
        assert_eq!(req.engine(), Some(ExchangeEngine::Nested));
        assert!(req.is_verified());
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
    fn explicit_engine_overrides_config() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 200, 9);
        let sorter = HssSorter::new(HssConfig::default());
        assert_eq!(
            Sorter::<u64>::default_engine(&sorter),
            ExchangeEngine::Flat,
            "default engine follows the config"
        );
        let mut machine = Machine::flat(p);
        let outcome = sorter
            .run(&mut machine, SortRequest::new(input).with_engine(ExchangeEngine::Nested))
            .unwrap();
        assert_eq!(outcome.report.algorithm, "hss");
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
