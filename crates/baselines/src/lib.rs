//! `hss-baselines` — the comparison algorithms of the HSS paper.
//!
//! Every baseline runs on the same simulated [`hss_sim::Machine`]
//! and produces the same [`hss_core::report::SortReport`] as the
//! HSS sorter, so the benchmark harness can compare sample sizes, message
//! counts, per-phase costs and load balance apples to apples.
//!
//! | Module | Algorithm | Paper section |
//! |---|---|---|
//! | [`mod@sample_sort`] | Sample sort with regular sampling and with random (block) sampling | §4.1 |
//! | [`mod@histogram_sort`] | Classic histogram sort (probe refinement without sampling) | §2.3 |
//! | [`over_partitioning`] | Parallel sorting by over-partitioning (Li & Sevcik) | §4.2 |
//! | [`bitonic`] | Block bitonic sort (Batcher) | §4.2 |
//! | [`radix`] | MSD radix partitioning | §4.2 |
//! | [`sorters`] | [`hss_core::Sorter`] impls for every baseline + the [`sorters::standard_sorters`] registry | — |
//!
//! The preferred entry point is the unified [`hss_core::Sorter`] trait
//! (see [`sorters`]): every config type here implements it, so one
//! `SortRequest` drives any algorithm — over `u64` keys, 16-byte
//! [`hss_keygen::Record`]s, byte-string [`hss_keygen::ByteKey`]s or
//! 100-byte [`hss_keygen::TeraRecord`]s alike.  Each module's free function
//! (`sample_sort`, `bitonic_sort`, …) is the same sort without the trait.

#![warn(missing_docs)]

pub mod bitonic;
pub mod common;
pub mod histogram_sort;
pub mod over_partitioning;
pub mod radix;
pub mod sample_sort;
pub mod sorters;

pub use bitonic::bitonic_sort;
pub use histogram_sort::{
    histogram_sort, histogram_sort_splitters, HistogramSortConfig, SubdividableKey,
};
pub use over_partitioning::{over_partitioning_sort, OverPartitioningConfig};
pub use radix::{radix_partition_sort, RadixConfig, RadixKeyed};
pub use sample_sort::{sample_sort, SampleSortConfig, SamplingMethod};
pub use sorters::{standard_sorters, standard_sorters_for, BitonicSorter};
