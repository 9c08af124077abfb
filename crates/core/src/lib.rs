//! `hss-core` — Histogram Sort with Sampling (HSS), the paper's primary
//! contribution.
//!
//! HSS is a splitter-based parallel sorting algorithm that interleaves
//! *sampling* and *histogramming*: each histogramming round is preceded by a
//! Bernoulli sampling phase restricted to the current splitter intervals, so
//! the probes converge on the true splitters with an overall sample of only
//! `O(k·p·(log p/ε)^{1/k})` keys over `k` rounds (Lemmas 3.2.1, 3.3.1,
//! 3.3.2 of the paper) — orders of magnitude below what sample sort needs
//! for the same `(1 + ε)` load-balance guarantee.
//!
//! The crate exposes:
//!
//! * [`HssSorter`] / [`HssConfig`] — the end-to-end distributed sorter
//!   (local sort → splitter determination → exchange → finish) with
//!   theoretical (§3.1/§3.3) and practical (§6.1.2, constant oversampling)
//!   round schedules and optional duplicate tagging (§4.3).  Behind it
//!   sits **one** pipeline (the private `pipeline` module).  Its one
//!   *chosen* axis is the algorithm — the [`SplitterPolicy`], HSS unless
//!   [`HssSorter::with_splitters`] picks one of `hss-baselines`' sample
//!   sorts, classic histogram sort or over-partitioning.  Its other three
//!   axes are derived, never set: the bucket *granularity* from the
//!   topology and [`HssConfig::node_level`] (rank buckets merged at the
//!   rank, or §6.1 node buckets cut exactly among the node's cores —
//!   [`node_level`]); the *residency* of every rank's sorted data from
//!   what the local sort left behind (a slice in memory, or run files on
//!   disk — [`out_of_core`]); and the exchange *schedule* from the
//!   machine's [`SyncModel`](hss_sim::SyncModel) and the residency (one
//!   Bsp all-to-all, the §4 staged exchange overlapping the histogram
//!   rounds, or — once a rank spilled — bucket-ordered stages after the
//!   splitters).  Every policy runs at every granularity under every
//!   schedule at every residency; [`HssSorter::sort_seeded`] exposes HSS's
//!   warm-start and round-observer hooks;
//! * [`out_of_core`] — [`HssSorter::sort_out_of_core`], the same pipeline
//!   under a memory cap: ranks and owners over it spill to run files;
//! * [`Sorter`] / [`SortRequest`] — the unified entry point: one
//!   signature serving HSS and (via `hss-baselines`) every comparison
//!   algorithm, with optional output verification;
//! * [`multi_round::determine_splitters`] — the splitter-determination
//!   kernel on its own, reporting per-round sample sizes and splitter
//!   interval shrinkage (the Table 6.1 / Figure 3.1 quantities);
//! * [`scanning`] — the greedy scan of Axtmann et al. (§3.2, Theorem 3.2.1),
//!   the finalization of [`SplitterRule::Scanning`];
//! * [`approx_histogram`] — the representative-sample rank oracle of §3.4
//!   (Theorem 3.4.1);
//! * [`theory`] — the sampling-ratio schedules and round-count bounds used
//!   throughout the evaluation.
//!
//! # Quick start
//!
//! ```
//! use hss_core::{HssConfig, HssSorter};
//! use hss_keygen::KeyDistribution;
//! use hss_sim::Machine;
//!
//! // 16 simulated ranks, 1000 uniform 64-bit keys each.
//! let input = KeyDistribution::Uniform.generate_per_rank(16, 1_000, 42);
//! let mut machine = Machine::flat(16);
//! let outcome = HssSorter::new(HssConfig::default()).sort(&mut machine, input);
//!
//! // Globally sorted, and no rank holds more than (1 + eps) * N/p keys.
//! assert!(outcome.report.load_balance.satisfies(0.05));
//! println!("{}", outcome.report.metrics);
//! ```

#![warn(missing_docs)]

pub mod approx_histogram;
pub mod config;
pub mod duplicates;
pub mod local_sort;
pub mod multi_round;
pub mod node_level;
pub mod out_of_core;
mod pipeline;
pub mod report;
pub mod request;
pub mod scanning;
pub mod sorter;
mod staging;
pub mod theory;

pub use approx_histogram::{ApproxHistogrammer, RepresentativeSample};
pub use config::{ExtSortPolicy, HssConfig, RoundSchedule, SplitterRule};
pub use duplicates::Tagged;
pub use hss_lsort::{LocalSortAlgo, RadixSortable};
pub use local_sort::charged_local_sort;
pub use multi_round::{
    determine_splitters, determine_splitters_seeded, exact_ranks, key_extent, sample_at,
    RoundProgress, SortedSource, SplitterPolicy, WarmStart,
};
pub use report::{RoundStats, SortReport, SplitterReport};
pub use request::{SortRequest, Sorter};
pub use scanning::splitters_from_histogram;
pub use sorter::{Hss, HssSorter, SortOutcome};
