//! `hss-service` — an epoch-based sorting *service* built on the HSS
//! reproduction.
//!
//! The paper's motivating applications (§1, §6.3) re-sort a slowly drifting
//! keyspace over and over: N-body codes re-key particles every timestep,
//! serving stacks re-index after every ingest batch.  A one-shot sorter
//! throws away exactly the state that makes repeat sorts cheap.  This crate
//! keeps it:
//!
//! * [`SortService`] owns a simulated [`Machine`](hss_sim::Machine) plus a
//!   persistently sorted per-rank keyspace.  Batches are [`ingest`]ed
//!   between epochs; [`seal_epoch`] folds them in and re-sorts with one
//!   [`HssSorter::sort_seeded`](hss_core::HssSorter::sort_seeded) call —
//!   the sorter's own pipeline, under whatever schedule and bucket
//!   granularity the machine and configuration imply.
//! * Every epoch after the first **warm-starts** splitter determination
//!   from the previous epoch's accumulated histogram probes
//!   ([`hss_core::WarmStart`]): the carried probes are re-ranked in a
//!   probe-only first round, so a near-stationary distribution finalizes in
//!   1–2 rounds instead of the cold-start count (§3.3's staged convergence,
//!   exploited across calls instead of within one).
//! * Between epochs the service answers [`rank`] / [`percentile`] /
//!   [`range_count`] queries from the per-rank representative samples of
//!   §3.4 (Theorem 3.4.1: within `εN/p` of the truth w.h.p.), charging
//!   query cost to [`Phase::Query`](hss_sim::Phase) on the same timeline —
//!   bounded-staleness reads, priced like everything else.
//!
//! [`ingest`]: SortService::ingest
//! [`seal_epoch`]: SortService::seal_epoch
//! [`rank`]: SortService::rank
//! [`percentile`]: SortService::percentile
//! [`range_count`]: SortService::range_count
//!
//! # Lifecycle
//!
//! ```
//! use hss_core::HssConfig;
//! use hss_keygen::KeyDistribution;
//! use hss_service::{ServiceConfig, SortService};
//!
//! let p = 8;
//! let config = ServiceConfig::new(HssConfig::default()).unwrap();
//! let mut service = SortService::new(p, config);
//!
//! // Epoch 0: cold start.
//! service.ingest_per_rank(KeyDistribution::Uniform.generate_per_rank(p, 1_000, 1));
//! let cold_rounds = service.seal_epoch().splitter_rounds;
//!
//! // Serve queries against the sealed keyspace.
//! let mid = service.percentile(0.5);
//! let r = service.rank(mid);
//! assert!(r > 0.0);
//!
//! // Epoch 1: same distribution drifts nowhere — the warm start finishes
//! // in fewer rounds than the cold start.
//! service.ingest_per_rank(KeyDistribution::Uniform.generate_per_rank(p, 100, 2));
//! let warm = service.seal_epoch();
//! assert!(warm.warm_started);
//! assert!(warm.splitter_rounds <= cold_rounds);
//! ```

#![warn(missing_docs)]

pub mod query;
pub mod service;
pub mod workload;

pub use query::QueryIndex;
pub use service::{EpochReport, ServiceConfig, SortService};
pub use workload::DriftingWorkload;
