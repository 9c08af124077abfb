//! `hss-sim` — a bulk-synchronous-parallel (BSP) cluster simulator.
//!
//! This crate is the substrate the HSS reproduction runs on, replacing the
//! Charm++ runtime and the Mira supercomputer used by the paper.  A
//! [`Machine`] owns a [`Topology`] (ranks grouped into shared-memory nodes),
//! a [`CostModel`] (Valiant's BSP parameters plus binomial/pipelined
//! collective formulas from §5.1 of the paper), a [`MetricsRegistry`]
//! (per-phase simulated time, wall time, message and word counts) and an
//! optional superstep [`Trace`].
//!
//! Algorithms keep their data as `Vec<Vec<T>>` — one vector per simulated
//! rank — and drive it through:
//!
//! * local phases ([`Machine::local_phase`], [`Machine::map_phase`],
//!   [`Machine::transform_phase`]) which execute for real, in parallel
//!   across ranks via rayon, and are charged `max` over ranks of the
//!   reported [`Work`];
//! * collectives ([`Machine::gather_to_root`], [`Machine::broadcast`],
//!   [`Machine::reduce_sum`], [`Machine::all_to_allv_flat`] and its
//!   node-combined and staged forms) which move the data and charge the
//!   corresponding collective cost.
//!
//! Because all data movement is real, correctness properties (global sorted
//! order, load balance) are checked on actual results; because time is
//! charged by the cost model, experiments can reproduce the *shape* of the
//! paper's figures at processor counts far beyond the host's core count.
//!
//! # Example
//!
//! ```
//! use hss_sim::{Machine, Phase, Topology, CostModel, Work};
//!
//! // 8 ranks in 2 shared-memory nodes.
//! let mut machine = Machine::new(Topology::new(8, 4), CostModel::bluegene_like());
//! let mut data: Vec<Vec<u64>> = (0..8).map(|r| vec![r as u64 * 3, r as u64 * 3 + 1]).collect();
//!
//! // A local phase: every rank sorts its keys.
//! machine.local_phase(Phase::LocalSort, &mut data, |_rank, local| {
//!     local.sort_unstable();
//!     Work::sort(local.len())
//! });
//!
//! // A collective: gather one sample key per rank at the root.
//! let samples: Vec<Vec<u64>> = data.iter().map(|v| vec![v[0]]).collect();
//! let gathered = machine.gather_to_root(Phase::Sampling, samples);
//! assert_eq!(gathered.len(), 8);
//! assert!(machine.metrics().total_simulated_seconds() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod comm;
pub mod cost;
pub mod machine;
pub mod metrics;
pub mod plan;
pub mod timeline;
pub mod topology;
pub mod trace;

pub use cost::{CollectiveAlgo, CostModel};
pub use machine::{words_of, Machine, Parallelism, Work};
pub use metrics::{MetricsRegistry, Phase, PhaseMetrics};
pub use plan::{ExchangePlan, ExchangeStage, FlatRecv};
pub use timeline::{Span, SyncModel, Timeline};
pub use topology::{NodeId, RankId, Topology};
pub use trace::{CriticalHop, Trace, TraceEvent};
