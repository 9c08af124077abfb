//! `hss-baselines` — the comparison algorithms of the HSS paper.
//!
//! Every baseline runs on the same simulated [`hss_sim::Machine`]
//! and produces the same [`hss_core::report::SortReport`] as the
//! HSS sorter, so the benchmark harness can compare sample sizes, message
//! counts, per-phase costs and load balance apples to apples.  The three
//! splitter-based baselines go further: each is a
//! [`hss_core::SplitterPolicy`] of the one pipeline HSS runs through, so
//! they differ from HSS in splitter determination alone and run under
//! node-level buckets, the overlapped schedule and spilled ranks alike.
//!
//! | Module | Algorithm | Paper section | Runs as |
//! |---|---|---|---|
//! | [`mod@sample_sort`] | Sample sort with regular sampling and with random (block) sampling | §4.1 | a policy |
//! | [`mod@histogram_sort`] | Classic histogram sort (probe refinement without sampling) | §2.3 | a policy |
//! | [`over_partitioning`] | Parallel sorting by over-partitioning (Li & Sevcik) | §4.2 | a policy |
//! | [`bitonic`] | Block bitonic sort (Batcher) | §4.2 | standalone |
//! | [`radix`] | MSD radix partitioning | §4.2 | standalone |
//! | [`sorters`] | [`hss_core::Sorter`] impls for every baseline + the [`sorters::standard_sorters`] registry | — | — |
//!
//! The preferred entry point is the unified [`hss_core::Sorter`] trait
//! (see [`sorters`]): every config type here implements it, so one
//! `SortRequest` drives any algorithm — over `u64` keys, 16-byte
//! [`hss_keygen::Record`]s, byte-string [`hss_keygen::ByteKey`]s or
//! 100-byte [`hss_keygen::TeraRecord`]s alike.  A policy's config also goes
//! into [`hss_core::HssSorter::with_splitters`] to pick the pipeline's
//! granularity, schedule and residency; radix and bitonic are their free
//! functions (`radix_partition_sort`, `bitonic_sort`).

#![warn(missing_docs)]

pub mod bitonic;
pub mod histogram_sort;
pub mod over_partitioning;
pub mod radix;
pub mod sample_sort;
pub mod sorters;

pub use bitonic::bitonic_sort;
pub use histogram_sort::{HistogramSortConfig, SubdividableKey};
pub use over_partitioning::OverPartitioningConfig;
pub use radix::{radix_partition_sort, RadixConfig};
pub use sample_sort::{SampleSortConfig, SamplingMethod};
pub use sorters::{standard_sorters, standard_sorters_for, BitonicSorter};
