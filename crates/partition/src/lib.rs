//! `hss-partition` — partitioning primitives shared by HSS and every
//! baseline algorithm in the reproduction.
//!
//! Splitter-based parallel sorting algorithms (§2) all share the same
//! skeleton: determine `p − 1` splitter keys, route every key to the bucket
//! owner, merge what arrives.  This crate provides the pieces of that
//! skeleton that are *not* specific to how splitters are chosen:
//!
//! * [`classify`] — branch-free decision-tree classification
//!   ([`classify::DecisionTree`], the IPS⁴o implicit-heap technique) and
//!   the shared three-way strategy rule ([`classify::classify_strategy`])
//!   every adaptive probe/bucketize site follows, with cost accounting
//!   that charges the strategy actually executed;
//! * [`histogram`] — local / global rank queries over sorted data (the
//!   histogramming primitive);
//! * [`splitters`] — the [`splitters::SplitterSet`] type and key
//!   routing (through a cached decision tree);
//! * [`intervals`] — splitter-interval bookkeeping
//!   ([`intervals::SplitterIntervals`], the `L_j/U_j`
//!   bounds of §3.3);
//! * [`bucketize`] — partitioning local data by a splitter set;
//! * [`merge`] — k-way merging of received sorted runs;
//! * [`exchange`](mod@exchange) — the full data-movement step (partition →
//!   all-to-all to each bucket's owner → merge); rank-level vs node-combined
//!   accounting follows the machine's topology;
//! * [`balance`] — load-imbalance metrics (`max / average` load);
//! * [`select`] — exact ground-truth oracles used by tests and verifiers.

#![warn(missing_docs)]

pub mod balance;
pub mod bucketize;
pub mod classify;
pub mod exchange;
pub mod histogram;
pub mod intervals;
pub mod merge;
pub mod sampling;
pub mod select;
pub mod splitters;

pub use balance::LoadBalance;
pub use bucketize::{
    bucket_counts, exchange_plan, owner_plan, partition_sorted, partition_unsorted,
    splitter_position,
};
pub use classify::{classify_strategy, classify_work, tree_height, ClassifyStrategy, DecisionTree};
pub use exchange::{exchange, merge_received, ExchangeEngine, Received};
pub use histogram::{
    add_rank_differences, global_ranks, is_sorted_by_key, local_range_counts, local_ranks,
    local_ranks_le, local_ranks_work, ProbeIndex, WindowSpan,
};
pub use intervals::{Bound, SplitterIntervals, Windows};
pub use merge::{
    concat_sort_merge, cut_runs, drain_source_below, drain_source_rest, finish_arm, kway_merge,
    kway_merge_slices, resort_owners, runs_for, FinishArm, RunSource, SliceSource, SourceLoserTree,
};
pub use sampling::{
    bernoulli_sample_positions, bernoulli_sample_range, count_in_intervals, interval_bounds,
    interval_bounds_work, merge_key_intervals, merge_key_intervals_with, BernoulliDraw,
    WindowSample,
};
pub use select::{exact_rank, exact_splitters, global_sorted, verify_global_sort};
pub use splitters::SplitterSet;
