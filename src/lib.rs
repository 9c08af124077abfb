//! `hss-repro` — umbrella crate for the *Histogram Sort with Sampling*
//! reproduction.
//!
//! This crate re-exports the workspace members so examples, integration
//! tests and downstream users can depend on a single crate:
//!
//! * [`sim`] — the BSP cluster simulator substrate ([`hss_sim`]);
//! * [`keygen`] — key types and workload generators ([`hss_keygen`]);
//! * [`lsort`] — the in-place MSD radix local-sort subsystem
//!   ([`hss_lsort`]);
//! * [`partition`] — shared partitioning primitives ([`hss_partition`]);
//! * [`core`] — Histogram Sort with Sampling itself ([`hss_core`]);
//! * [`extsort`] — the bounded-memory out-of-core tier ([`hss_extsort`]);
//! * [`baselines`] — the comparison algorithms ([`hss_baselines`]);
//! * [`analysis`] — the paper's closed-form cost model ([`hss_analysis`]);
//! * [`service`] — the epoch-based sorting service with warm-started
//!   splitters and a rank/percentile query API ([`hss_service`]).
//!
//! The [`prelude`] pulls in the handful of types most programs need.
//!
//! ```
//! use hss_repro::prelude::*;
//!
//! let input = KeyDistribution::Uniform.generate_per_rank(8, 1_000, 1);
//! let mut machine = Machine::flat(8);
//! let outcome = HssSorter::new(HssConfig::default()).sort(&mut machine, input);
//! assert!(outcome.report.load_balance.satisfies(0.05));
//! ```

#![warn(missing_docs)]

pub use hss_analysis as analysis;
pub use hss_baselines as baselines;
pub use hss_core as core;
pub use hss_extsort as extsort;
pub use hss_keygen as keygen;
pub use hss_lsort as lsort;
pub use hss_partition as partition;
pub use hss_service as service;
pub use hss_sim as sim;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use hss_core::{
        ExtSortPolicy, HssConfig, HssSorter, LocalSortAlgo, RoundSchedule, SortOutcome,
        SortRequest, Sorter, SplitterRule, WarmStart,
    };
    pub use hss_extsort::{ExtSortConfig, ExtSortReport, ExternalSorter};
    pub use hss_keygen::{ChangaDataset, Key, KeyDistribution, Keyed, Record, TaggedKey};
    pub use hss_partition::{LoadBalance, SplitterSet};
    pub use hss_service::{DriftingWorkload, EpochReport, ServiceConfig, SortService};
    pub use hss_sim::{CostModel, Machine, Parallelism, Phase, SyncModel, Timeline, Topology};
}
