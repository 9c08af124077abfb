//! The simulated machine: topology + cost model + per-rank timeline +
//! accounting context.
//!
//! A [`Machine`] is the object every algorithm in this repository runs
//! against.  It does not own the application data — algorithms keep their
//! per-rank data as `Vec<Vec<T>>` (index = rank id) — it owns the
//! *accounting*: a [`Timeline`] of per-rank simulated clocks, the per-phase
//! [`MetricsRegistry`] breakdown, how many messages and words the
//! collectives move, and the wall-clock time actually spent.
//!
//! # Time model: per-rank clocks, two sync models
//!
//! Simulated time is tracked as one clock per rank (plus one NIC
//! availability time per rank), not as a single scalar:
//!
//! * a **local phase** advances each rank's clock by that rank's own
//!   reported [`Work`];
//! * a **collective** synchronizes its participants: everyone waits for the
//!   slowest clock, then all advance together by the collective cost;
//! * an **asynchronous exchange stage** ([`Machine::exchange_stage`])
//!   occupies the senders' NICs without blocking their compute clocks;
//! * the run's total simulated time is the *makespan* — the maximum final
//!   clock ([`Machine::simulated_time`]).
//!
//! The [`SyncModel`] chooses how much synchronization is imposed on top:
//!
//! * [`SyncModel::Bsp`] (the default) inserts a global barrier after every
//!   superstep.  Because all clocks are equal before each superstep, the
//!   barrier adds exactly the `max`-over-ranks charge per superstep — the
//!   historical scalar accumulator — so the per-phase cost signature is
//!   bitwise identical to the pre-timeline accounting
//!   (`tests/sync_differential.rs` is the differential oracle).
//! * [`SyncModel::Overlapped`] drops the barrier after local phases and
//!   lets staged exchanges run asynchronously, so data movement can hide
//!   under splitter determination (§4 of the paper).  The per-phase
//!   registry still records the same charges; only *when* ranks reach each
//!   point — and hence the makespan — changes.
//!
//! The per-phase [`MetricsRegistry`] is deliberately unaffected by the sync
//! model: it answers "how much did each phase cost", while the timeline
//! answers "when was the run done".  Under `Bsp` the two agree (makespan =
//! sum of charges); under `Overlapped` the makespan is smaller whenever
//! overlap hides communication.
//!
//! # Execution model: one superstep and its views
//!
//! Every piece of host work runs in one superstep body,
//! [`Machine::superstep`]: the ranks' closures run for real, in contiguous
//! chunks of ranks on the vendored rayon pool (each chunk threading an
//! optional host-side context), so all data movement and all results are
//! exact; only *time* is modelled.  The body times the host work once,
//! charges `max` over ranks of the reported [`Work`] and records one
//! superstep.  [`Machine::local_phase`], [`Machine::map_phase`],
//! [`Machine::map_phase_mut`] and the fused histogramming round
//! ([`Machine::histogram_phase`], [`Machine::histogram_phase_mut`]) are
//! views over it.  Work whose charge is modelled rather than reported per
//! rank — the root's sort of a gathered sample, the node leaders'
//! shared-memory finish — runs through the same dispatcher in
//! [`Machine::modelled_step`], so its host wall time is recorded too.
//!
//! [`Parallelism::Sequential`] runs the same chunks on the calling thread
//! and is the determinism oracle: for every algorithm, both modes must
//! produce bitwise-identical data and identical simulated costs (see
//! `tests/parallel_differential.rs`), while the metrics record the real
//! host-thread count separately so reports can distinguish host
//! concurrency from simulated `p`-rank concurrency.

use std::ops::Range;
use std::time::Instant;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::cost::CostModel;
use crate::metrics::{MetricsRegistry, Phase, PhaseMetrics};
use crate::timeline::{Span, SyncModel, Timeline};
use crate::topology::{RankId, Topology};
use crate::trace::{Trace, TraceEvent};

/// How local phases are executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Parallelism {
    /// Run per-rank closures in parallel on the rayon thread pool.
    Rayon,
    /// Run per-rank closures sequentially on the calling thread.  Useful for
    /// debugging and for deterministic wall-time measurements.
    Sequential,
}

/// Work report returned by a per-rank closure: how many units of local
/// computation (comparisons, key moves) the closure performed, plus any
/// disk traffic it generated (the out-of-core tier's run formation and
/// merge passes).  The cost model converts this into simulated time; the
/// BSP rule charges the maximum over ranks for the superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Work {
    /// Units of computation performed by this rank in this superstep.
    pub ops: u64,
    /// Words (8 bytes each) this rank moved between memory and its local
    /// disk during the superstep, reads and writes combined.
    pub disk_words: u64,
    /// Discrete disk transfers (block reads / synced block writes) behind
    /// `disk_words` — each pays the disk α.
    pub disk_transfers: u64,
}

impl Work {
    /// No work.
    pub fn none() -> Self {
        Self::default()
    }

    /// `ops` units of computation.
    pub fn ops(ops: u64) -> Self {
        Self { ops, ..Self::default() }
    }

    /// Work of comparison-sorting `n` keys.
    pub fn sort(n: usize) -> Self {
        Self::ops(CostModel::sort_ops(n as u64))
    }

    /// Work of an MSD radix sort of `n` keys over `passes` byte levels
    /// (`2·n·passes`: one classify read + one permute move per pass).
    pub fn radix_sort(n: usize, passes: usize) -> Self {
        Self::ops(CostModel::radix_sort_ops(n as u64, passes as u64))
    }

    /// Work of merging `n` keys from `pieces` sorted runs.
    pub fn merge(n: usize, pieces: usize) -> Self {
        Self::ops(CostModel::merge_ops(n as u64, pieces as u64))
    }

    /// Work of `queries` binary searches over `n` sorted keys.
    pub fn binary_search(queries: usize, n: usize) -> Self {
        Self::ops(CostModel::binary_search_ops(queries as u64, n as u64))
    }

    /// Work of a linear pass over `n` keys.
    pub fn scan(n: usize) -> Self {
        Self::ops(n as u64)
    }

    /// Work of branch-free decision-tree classification of `n` keys into
    /// buckets via an implicit splitter tree of height `log_buckets`
    /// (`n·log_buckets` descend steps, floored at one op per key).
    pub fn classify(n: usize, log_buckets: usize) -> Self {
        Self::ops(CostModel::classify_ops(n as u64, log_buckets as u64))
    }

    /// Disk traffic only: `bytes` moved in `transfers` discrete block
    /// operations.  Bytes are converted to 8-byte words rounding up — the
    /// same β-volume convention as the NIC channel.
    pub fn disk_bytes(bytes: u64, transfers: u64) -> Self {
        Self { disk_words: bytes.div_ceil(8), disk_transfers: transfers, ..Self::default() }
    }

    /// Combine two work reports (sequential composition on one rank).
    pub fn and(self, other: Work) -> Self {
        Self {
            ops: self.ops + other.ops,
            disk_words: self.disk_words + other.disk_words,
            disk_transfers: self.disk_transfers + other.disk_transfers,
        }
    }
}

/// The simulated machine an algorithm executes on.
///
/// Create one with [`Machine::new`], run phases and collectives against it,
/// then read the per-phase breakdown from [`Machine::metrics`].
#[derive(Debug)]
pub struct Machine {
    topology: Topology,
    cost: CostModel,
    parallelism: Parallelism,
    sync: SyncModel,
    metrics: MetricsRegistry,
    timeline: Timeline,
    trace: Trace,
    superstep: u64,
}

/// How one recorded superstep advances the [`Timeline`] (internal).
pub(crate) enum ClockAdvance {
    /// A local phase: rank `r` computes for `per_rank[r].0` seconds and
    /// occupies its disk for `per_rank[r].1` seconds (zero without disk
    /// traffic).  Under [`SyncModel::Bsp`] the two serialize (synchronous
    /// read-then-compute-then-write I/O) and a barrier follows; under
    /// [`SyncModel::Overlapped`] the disk reservation runs concurrently
    /// with the compute and stays outstanding like a NIC injection —
    /// consumers drain it via [`Machine::wait_for_disk`], the makespan
    /// always covers it.  The overlapped-I/O model of the out-of-core
    /// tier.
    PerRank(Vec<(f64, f64)>),
    /// A synchronizing collective: all ranks wait for the slowest, then
    /// advance together by the charged seconds (both sync models).
    Sync,
    /// An asynchronous exchange stage: the stage's bottleneck duration (the
    /// charged seconds) elapses on the network while each sender's NIC is
    /// reserved only for that sender's own injection time, and compute
    /// clocks are untouched under [`SyncModel::Overlapped`]; degrades to
    /// [`Self::Sync`] under [`SyncModel::Bsp`].
    AsyncStage {
        /// Ranks with data to inject, with each rank's injection duration.
        senders: Vec<(RankId, f64)>,
    },
}

impl Machine {
    /// A machine with the given topology and cost model, executing local
    /// phases in parallel with rayon, in [`SyncModel::Bsp`], with tracing
    /// disabled.
    pub fn new(topology: Topology, cost: CostModel) -> Self {
        let ranks = topology.ranks();
        Self {
            topology,
            cost,
            parallelism: Parallelism::Rayon,
            sync: SyncModel::Bsp,
            metrics: MetricsRegistry::new(),
            timeline: Timeline::new(ranks),
            trace: Trace::disabled(),
            superstep: 0,
        }
    }

    /// A flat machine (`p` single-core nodes) with the default cost model —
    /// the most common configuration in tests and examples.
    pub fn flat(ranks: usize) -> Self {
        Self::new(Topology::flat(ranks), CostModel::default())
    }

    /// Switch between rayon-parallel and sequential execution of local
    /// phases.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Choose the synchronization model (default [`SyncModel::Bsp`]).
    pub fn with_sync_model(mut self, sync: SyncModel) -> Self {
        self.sync = sync;
        self
    }

    /// Enable superstep tracing (records one event per phase/collective).
    pub fn with_tracing(mut self) -> Self {
        self.trace = Trace::enabled();
        self
    }

    /// The machine's topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of ranks `p`.
    pub fn ranks(&self) -> usize {
        self.topology.ranks()
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// How local phases (and the flat exchange's buffer assembly) execute
    /// on the host.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Accumulated per-phase metrics.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The superstep trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The synchronization model in force.
    pub fn sync_model(&self) -> SyncModel {
        self.sync
    }

    /// The per-rank timeline advanced so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Total simulated time of the run so far: the timeline's makespan (max
    /// over all compute clocks and outstanding NIC completions).  Under
    /// [`SyncModel::Bsp`] this equals the registry's
    /// [`MetricsRegistry::total_simulated_seconds`]
    /// up to f64 summation order; under [`SyncModel::Overlapped`] it is
    /// smaller whenever overlap hides communication.
    pub fn simulated_time(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Reset metrics, timeline, trace and superstep counter, keeping
    /// topology, cost model and sync model.  Useful for running several
    /// algorithms on one machine.
    pub fn reset_accounting(&mut self) {
        self.metrics = MetricsRegistry::new();
        self.timeline = Timeline::new(self.topology.ranks());
        let enabled = self.trace.is_enabled();
        self.trace = if enabled { Trace::enabled() } else { Trace::disabled() };
        self.superstep = 0;
    }

    fn next_superstep(&mut self) -> u64 {
        let s = self.superstep;
        self.superstep += 1;
        s
    }

    /// Host OS threads available for executing local phases under the
    /// current parallelism mode (1 for [`Parallelism::Sequential`]).
    pub fn host_threads(&self) -> u64 {
        match self.parallelism {
            Parallelism::Rayon => rayon::current_num_threads() as u64,
            Parallelism::Sequential => 1,
        }
    }

    /// Record one superstep: charge `metrics` to the registry, advance the
    /// timeline according to `advance` and the sync model, and append a
    /// trace event carrying the per-rank spans.  Returns the simulated time
    /// at which the superstep completes (for [`ClockAdvance::AsyncStage`]:
    /// when the transfer lands).
    pub(crate) fn record(
        &mut self,
        phase: Phase,
        label: &'static str,
        metrics: PhaseMetrics,
        advance: ClockAdvance,
    ) -> f64 {
        let host_threads = self.host_threads();
        self.metrics.note_host_threads(host_threads);
        let step = self.next_superstep();
        let tracing = self.trace.is_enabled();
        let mut spans: Vec<Span> = Vec::new();
        let mut bottleneck = None;
        let done = match advance {
            ClockAdvance::PerRank(per_rank) => {
                assert_eq!(per_rank.len(), self.ranks(), "one duration pair per rank");
                for (r, &(compute, disk)) in per_rank.iter().enumerate() {
                    let (start, end) = match self.sync {
                        // Synchronous I/O: every block read/write blocks the
                        // rank, so compute and disk time serialize.
                        SyncModel::Bsp => self.timeline.advance(r, compute + disk),
                        // Overlapped I/O: the disk transfers queue on the
                        // rank's disk channel from the moment the phase
                        // began, concurrent with the compute; like a NIC
                        // injection they stay outstanding — a later
                        // consumer drains them via `wait_for_disk`, and
                        // the makespan always covers them.
                        SyncModel::Overlapped => {
                            let span = self.timeline.advance(r, compute);
                            if disk > 0.0 {
                                self.timeline.disk_reserve(r, span.0, disk);
                            }
                            span
                        }
                    };
                    if tracing {
                        spans.push(Span { rank: r, start, end });
                    }
                }
                match self.sync {
                    SyncModel::Bsp => self.timeline.barrier(),
                    SyncModel::Overlapped => self.timeline.max_clock(),
                }
            }
            ClockAdvance::AsyncStage { senders } if self.sync == SyncModel::Overlapped => {
                let (start, end) = self.timeline.async_stage(&senders, metrics.simulated_seconds);
                if tracing {
                    spans = senders.iter().map(|&(r, _)| Span { rank: r, start, end }).collect();
                }
                end
            }
            // A stage degrades to a synchronizing collective under Bsp.
            ClockAdvance::Sync | ClockAdvance::AsyncStage { .. } => {
                bottleneck = Some(self.timeline.bottleneck_rank());
                let (start, end) = self.timeline.sync_advance(metrics.simulated_seconds);
                if tracing {
                    spans = (0..self.ranks()).map(|r| Span { rank: r, start, end }).collect();
                }
                end
            }
        };
        self.trace.push(TraceEvent {
            superstep: step,
            phase,
            label,
            simulated_seconds: metrics.simulated_seconds,
            comm_words: metrics.comm_words,
            messages: metrics.messages,
            spans,
            bottleneck,
        });
        self.metrics.charge(phase, metrics);
        done
    }

    /// Block each rank until the corresponding simulated time: rank `r`'s
    /// clock is raised to `ready[r]` if it is behind.  Used to make a rank
    /// wait for an asynchronous stage to land before consuming it (no cost
    /// is charged — waiting is idle time, which only the timeline sees).
    pub fn wait_until(&mut self, ready: &[f64]) {
        assert_eq!(ready.len(), self.ranks(), "one ready time per rank");
        for (r, &t) in ready.iter().enumerate() {
            self.timeline.wait_until(r, t);
        }
    }

    /// Build the metrics and clock advance for one local superstep from the
    /// per-rank [`Work`] reports: `max` over ranks of `compute + disk` —
    /// the synchronous-I/O serial cost, which keeps the registry
    /// sync-model-neutral (without disk traffic, the slowest rank's compute
    /// exactly) — and a [`ClockAdvance::PerRank`] advance, where the sync
    /// model decides whether the disk time hides under the compute.
    fn phase_charge<'w>(
        &self,
        works: impl Iterator<Item = &'w Work>,
        wall: f64,
    ) -> (PhaseMetrics, ClockAdvance) {
        let mut metrics = PhaseMetrics { wall_seconds: wall, supersteps: 1, ..Default::default() };
        let mut per_rank = Vec::with_capacity(self.ranks());
        for w in works {
            let compute = self.cost.compute(w.ops);
            let disk = self.cost.disk_transfer(w.disk_words, w.disk_transfers);
            metrics.simulated_seconds = metrics.simulated_seconds.max(compute + disk);
            metrics.compute_ops += w.ops;
            metrics.disk_words += w.disk_words;
            per_rank.push((compute, disk));
        }
        (metrics, ClockAdvance::PerRank(per_rank))
    }

    /// Drain the disk channel: every rank's compute clock is raised to its
    /// own outstanding disk-free time.  Call before a phase that consumes
    /// spilled data produced by an earlier disk-bearing superstep.
    pub fn wait_for_disk(&mut self) {
        self.timeline.drain_disk();
    }

    /// Run `f(&mut context, i, &mut items[i])` for every item on the host:
    /// the items run in `4 × host_threads` contiguous chunks (the pool's own
    /// split), in order within a chunk, each chunk threading one
    /// `init(chunk's indices)` context through its items.  Returns each
    /// chunk's results (in item order), the contexts in chunk order and the
    /// host wall seconds.  The one place a superstep's host work is
    /// dispatched.
    pub(crate) fn dispatch<S, C, R, I, F>(
        &self,
        items: &mut [S],
        init: I,
        f: F,
    ) -> (Vec<Vec<R>>, Vec<C>, f64)
    where
        S: Send,
        C: Send,
        R: Send,
        I: Fn(Range<usize>) -> C + Sync,
        F: Fn(&mut C, usize, &mut S) -> R + Sync,
    {
        let start = Instant::now();
        let chunk_len = items.len().div_ceil(4 * self.host_threads() as usize).max(1);
        let chunks: Vec<&mut [S]> = items.chunks_mut(chunk_len).collect();
        let run_chunk = |(chunk, items): (usize, &mut [S])| {
            let first = chunk * chunk_len;
            let mut context = init(first..first + items.len());
            let per_item = items.iter_mut().enumerate();
            let results: Vec<R> =
                per_item.map(|(i, item)| f(&mut context, first + i, item)).collect();
            (results, context)
        };
        let done: Vec<(Vec<R>, C)> = match self.parallelism {
            Parallelism::Rayon => chunks.into_par_iter().enumerate().map(run_chunk).collect(),
            Parallelism::Sequential => chunks.into_iter().enumerate().map(run_chunk).collect(),
        };
        let wall = start.elapsed().as_secs_f64();
        let (results, contexts) = done.into_iter().unzip();
        (results, contexts, wall)
    }

    /// Run one BSP superstep of local work over per-rank `state`:
    /// `f(&mut context, rank, &mut state[rank]) -> (R, Work)` for every
    /// rank, run in `4 × host_threads` contiguous chunks of ranks (the
    /// pool's own split) that each thread one `init(chunk's ranks)` context
    /// through their ranks, in rank order.  What a rank returns must not
    /// depend on the context — it is a cache, such as a block of
    /// neighbouring owners' runs read out of the exchange plans in one pass
    /// — so results and charges do not depend on the chunking.  Returns the
    /// per-rank results in rank order.
    ///
    /// The superstep is charged `max` over ranks of the reported [`Work`]
    /// (the BSP rule: the slowest rank holds up the barrier); disk-bearing
    /// work goes through the disk channel, where the sync model decides
    /// whether the I/O hides under compute.  The host wall time of the
    /// whole superstep is recorded next to the charge.
    pub fn superstep<S, C, R, I, F>(
        &mut self,
        phase: Phase,
        state: &mut [S],
        init: I,
        f: F,
    ) -> Vec<R>
    where
        S: Send,
        C: Send,
        R: Send,
        I: Fn(Range<RankId>) -> C + Sync,
        F: Fn(&mut C, RankId, &mut S) -> (R, Work) + Sync,
    {
        self.labelled_superstep(phase, "superstep", state, init, f).0
    }

    /// [`superstep`](Self::superstep) recorded under `label`, also handing
    /// back the chunks' contexts.
    fn labelled_superstep<S, C, R, I, F>(
        &mut self,
        phase: Phase,
        label: &'static str,
        state: &mut [S],
        init: I,
        f: F,
    ) -> (Vec<R>, Vec<C>)
    where
        S: Send,
        C: Send,
        R: Send,
        I: Fn(Range<RankId>) -> C + Sync,
        F: Fn(&mut C, RankId, &mut S) -> (R, Work) + Sync,
    {
        assert_eq!(state.len(), self.ranks(), "per-rank state must have one entry per rank");
        let (results, contexts, wall) = self.dispatch(state, init, f);
        let (metrics, advance) = self.phase_charge(results.iter().flatten().map(|(_, w)| w), wall);
        self.record(phase, label, metrics, advance);
        let mut values = Vec::with_capacity(self.ranks());
        values.extend(results.into_iter().flatten().map(|(r, _)| r));
        (values, contexts)
    }

    /// A [`superstep`](Self::superstep) that mutates per-rank data in
    /// place: `f(rank, &mut data[rank]) -> Work`.
    pub fn local_phase<T, F>(&mut self, phase: Phase, data: &mut [Vec<T>], f: F)
    where
        T: Send,
        F: Fn(RankId, &mut Vec<T>) -> Work + Sync,
    {
        self.labelled_superstep(phase, "local_phase", data, |_| (), |_, r, d| ((), f(r, d)));
    }

    /// A [`superstep`](Self::superstep) that produces a per-rank value
    /// without mutating the input: `f(rank, &data[rank]) -> (R, Work)`.
    pub fn map_phase<T, R, F>(&mut self, phase: Phase, data: &[Vec<T>], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(RankId, &[T]) -> (R, Work) + Sync,
    {
        let mut data: Vec<&[T]> = data.iter().map(Vec::as_slice).collect();
        self.labelled_superstep(phase, "map_phase", &mut data, |_| (), |_, r, d| f(r, d)).0
    }

    /// A [`superstep`](Self::superstep) over arbitrary per-rank state (not
    /// necessarily `Vec<T>`), without a chunk context: `f(rank, &mut
    /// state[rank]) -> (R, Work)`.  This is what lets a phase advance a
    /// stateful handle per rank — e.g. the out-of-core tier's draining merge
    /// cursor, whose bounded-window reads are charged to whichever phase
    /// performs them — or consume per-rank data (`std::mem::take`).
    pub fn map_phase_mut<S, R, F>(&mut self, phase: Phase, state: &mut [S], f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(RankId, &mut S) -> (R, Work) + Sync,
    {
        self.labelled_superstep(phase, "map_phase_mut", state, |_| (), |_, r, s| f(r, s)).0
    }

    /// One histogramming round as a fused superstep pair: every rank counts
    /// its local keys into the `probes + 1` buckets a sorted probe set
    /// defines, and the per-rank counts are reduced to the probes' global
    /// ranks (`ranks[j]` = keys in buckets `0..=j`, summed over ranks).
    ///
    /// `f(rank, &state[rank], acc)` must **add** the rank's bucket counts
    /// to `acc` (`probes + 1` slots, shared with other ranks — never
    /// assign) and return the [`Work`] a real rank would perform.  The
    /// simulator records exactly what [`map_phase`](Self::map_phase)
    /// returning one `probes`-long rank vector per rank followed by
    /// [`reduce_sum`](Self::reduce_sum) records — same per-rank charges,
    /// same reduction charge, same labels, two supersteps — but the host
    /// never materializes the `p` vectors: each chunk of the
    /// [superstep](Self::superstep) counts into one accumulator (its
    /// context), and the accumulators are summed and prefix-summed once.
    /// `u64` addition is exact, so the result does not depend on the
    /// chunking (or on [`Parallelism`]).
    pub fn histogram_phase<S, F>(
        &mut self,
        phase: Phase,
        state: &[S],
        probes: usize,
        f: F,
    ) -> Vec<u64>
    where
        S: Sync,
        F: Fn(RankId, &S, &mut [u64]) -> Work + Sync,
    {
        let mut refs: Vec<&S> = state.iter().collect();
        self.histogram_superstep(phase, "map_phase", &mut refs, probes, |rank, s, acc| {
            f(rank, s, acc)
        })
    }

    /// [`histogram_phase`](Self::histogram_phase) over mutable per-rank
    /// state (recorded like [`map_phase_mut`](Self::map_phase_mut) +
    /// [`reduce_sum`](Self::reduce_sum)) — for sources whose queries
    /// advance a handle, e.g. the out-of-core tier's windowed run readers.
    pub fn histogram_phase_mut<S, F>(
        &mut self,
        phase: Phase,
        state: &mut [S],
        probes: usize,
        f: F,
    ) -> Vec<u64>
    where
        S: Send,
        F: Fn(RankId, &mut S, &mut [u64]) -> Work + Sync,
    {
        self.histogram_superstep(phase, "map_phase_mut", state, probes, f)
    }

    fn histogram_superstep<S, F>(
        &mut self,
        phase: Phase,
        label: &'static str,
        state: &mut [S],
        probes: usize,
        f: F,
    ) -> Vec<u64>
    where
        S: Send,
        F: Fn(RankId, &mut S, &mut [u64]) -> Work + Sync,
    {
        let count = |acc: &mut Vec<u64>, rank, local: &mut S| ((), f(rank, local, acc));
        let (_, accs) =
            self.labelled_superstep(phase, label, state, |_| vec![0u64; probes + 1], count);
        let mut below = 0u64;
        let ranks = (0..probes)
            .map(|j| {
                below += accs.iter().map(|acc| acc[j]).sum::<u64>();
                below
            })
            .collect();
        self.charge_reduce_sum(phase, probes);
        ranks
    }

    /// Run host work whose cost is modelled rather than reported per rank —
    /// the root's sort of a gathered sample (one item), or the node leaders'
    /// shared-memory finish (one item per node): `f(i, &mut items[i]) ->
    /// (R, ops)`, run in chunks like a [superstep](Self::superstep).  Charged as
    /// one synchronizing superstep of `max` ops (every rank waits for the
    /// slowest item), with the host wall time of the work.  Returns the
    /// results in item order.
    pub fn modelled_step<S, R, F>(&mut self, phase: Phase, items: &mut [S], f: F) -> Vec<R>
    where
        S: Send,
        R: Send,
        F: Fn(usize, &mut S) -> (R, u64) + Sync,
    {
        let (results, _, wall) = self.dispatch(items, |_| (), |_, i, item| f(i, item));
        let max_ops = results.iter().flatten().map(|&(_, ops)| ops).max().unwrap_or(0);
        let metrics = PhaseMetrics {
            simulated_seconds: self.cost.compute(max_ops),
            wall_seconds: wall,
            compute_ops: max_ops,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "modelled_compute", metrics, ClockAdvance::Sync);
        results.into_iter().flatten().map(|(r, _)| r).collect()
    }

    /// Charge a purely analytical point-to-point exchange: `messages`
    /// latency-bound sends carrying `words` cost-model words in total
    /// (`messages·α + words·β`).  Used for traffic that is modelled rather
    /// than executed — e.g. the sort service charging a query's request and
    /// response trip between a client-facing rank and the root.  Advances
    /// the timeline like a synchronizing superstep.
    pub fn charge_point_to_point(&mut self, phase: Phase, messages: u64, words: u64) {
        let metrics = PhaseMetrics {
            simulated_seconds: messages as f64 * self.cost.latency
                + words as f64 * self.cost.unit_comm,
            messages,
            comm_words: words,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "point_to_point", metrics, ClockAdvance::Sync);
    }
}

/// Number of cost-model words occupied by `len` values of type `T`.
/// A word is 8 bytes; partial words round up.
pub fn words_of<T>(len: usize) -> u64 {
    words_of_width(len, std::mem::size_of::<T>())
}

/// Number of cost-model words occupied by `len` records of `width_bytes`
/// bytes each — the byte-based core of the β-volume accounting (a word is
/// 8 bytes; partial words round up).  [`words_of`] is this with
/// `width_bytes = size_of::<T>()`; exchanges with an explicit
/// `ExchangePlan::record_width` charge their declared wire width instead.
pub fn words_of_width(len: usize, width_bytes: usize) -> u64 {
    ((len * width_bytes) as u64).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_phase_mutates_every_rank_and_charges_max() {
        let mut m = Machine::new(Topology::flat(4), CostModel::bluegene_like());
        let mut data: Vec<Vec<u64>> = (0..4).map(|r| vec![r as u64; (r + 1) * 10]).collect();
        m.local_phase(Phase::LocalSort, &mut data, |rank, local| {
            local.push(rank as u64 + 100);
            Work::ops((rank as u64 + 1) * 10)
        });
        for (r, local) in data.iter().enumerate() {
            assert_eq!(*local.last().unwrap(), r as u64 + 100);
        }
        let ls = m.metrics().phase(Phase::LocalSort);
        // Max work is rank 3's 40 ops; total is 10+20+30+40 = 100.
        assert!((ls.simulated_seconds - m.cost_model().compute(40)).abs() < 1e-18);
        assert_eq!(ls.compute_ops, 100);
        assert_eq!(ls.supersteps, 1);
    }

    #[test]
    fn map_phase_returns_results_in_rank_order() {
        let mut m = Machine::flat(8);
        let data: Vec<Vec<u32>> = (0..8).map(|r| vec![r as u32; 5]).collect();
        let sums = m.map_phase(Phase::Other, &data, |rank, local| {
            (local.iter().map(|&x| x as u64).sum::<u64>() + rank as u64, Work::scan(local.len()))
        });
        for (r, s) in sums.iter().enumerate() {
            assert_eq!(*s, (r as u64) * 5 + r as u64);
        }
    }

    #[test]
    fn sequential_and_rayon_give_identical_results() {
        use std::collections::HashSet;
        use std::sync::Mutex;

        // Force a pool with two real OS threads regardless of the host's
        // core count or RAYON_NUM_THREADS, so the Rayon path is genuinely
        // parallel (the historical version of this test ran against a
        // sequential rayon stub and was vacuously true).
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("test pool");

        let data: Vec<Vec<u64>> =
            (0..16).map(|r| (0..100).map(|i| (r * 31 + i) as u64).collect()).collect();
        let mut seq = Machine::flat(16).with_parallelism(Parallelism::Sequential);
        let a = seq.map_phase(Phase::Other, &data, |_, local| {
            (local.iter().sum::<u64>(), Work::scan(local.len()))
        });

        let thread_ids = Mutex::new(HashSet::new());
        let (b, par_metrics) = pool.install(|| {
            let mut par = Machine::flat(16).with_parallelism(Parallelism::Rayon);
            let b = par.map_phase(Phase::Other, &data, |_, local| {
                thread_ids.lock().unwrap().insert(std::thread::current().id());
                (local.iter().sum::<u64>(), Work::scan(local.len()))
            });
            (b, par.metrics().clone())
        });

        // Identical per-rank data...
        assert_eq!(a, b);
        // ... and identical simulated-cost accounting, bit for bit (only
        // wall time and host threads may differ between the modes).
        assert_eq!(seq.metrics().deterministic_signature(), par_metrics.deterministic_signature());
        assert_eq!(par_metrics.host_threads(), 2);
        assert_eq!(seq.metrics().host_threads(), 1);
        // The Rayon path really ran on pool worker threads.
        assert!(!thread_ids.lock().unwrap().contains(&std::thread::current().id()));
    }

    #[test]
    fn rayon_phase_uses_multiple_os_threads() {
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};

        // Two ranks rendezvous at a barrier inside the phase closure: the
        // phase can only complete if two distinct OS threads execute rank
        // closures concurrently.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("test pool");
        let barrier = Barrier::new(2);
        let thread_ids = Mutex::new(HashSet::new());
        let sums = pool.install(|| {
            let mut m = Machine::flat(2);
            let data: Vec<Vec<u64>> = vec![vec![1, 2], vec![3, 4]];
            m.map_phase(Phase::Other, &data, |_, local| {
                barrier.wait();
                thread_ids.lock().unwrap().insert(std::thread::current().id());
                (local.iter().sum::<u64>(), Work::scan(local.len()))
            })
        });
        assert_eq!(sums, vec![3, 7]);
        assert_eq!(
            thread_ids.into_inner().unwrap().len(),
            2,
            "rank closures must have run on two distinct OS threads"
        );
    }

    #[test]
    fn sequential_views_run_on_the_calling_thread() {
        use std::sync::Mutex;
        use std::thread::{self, ThreadId};

        // A 3-thread pool is installed, but Sequential must not use it:
        // every view's closure runs on the thread that called the view.
        let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().expect("test pool");
        let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let note = || {
            seen.lock().unwrap().push(thread::current().id());
            Work::none()
        };
        let caller = pool.install(|| {
            let mut m = Machine::flat(8).with_parallelism(Parallelism::Sequential);
            let mut data: Vec<Vec<u64>> = (0..8).map(|r| vec![r as u64; 4]).collect();
            m.local_phase(Phase::Other, &mut data, |_, _| note());
            m.map_phase(Phase::Other, &data, |_, _| ((), note()));
            m.map_phase_mut(Phase::Other, &mut data, |_, _| ((), note()));
            m.superstep(Phase::Other, &mut data, |_| note(), |_, _, _| ((), note()));
            m.histogram_phase(Phase::Other, &data, 2, |_, _, _| note());
            m.histogram_phase_mut(Phase::Other, &mut data, 2, |_, _, _| note());
            m.modelled_step(Phase::Other, &mut data[..2], |_, _| (note(), 0));
            thread::current().id()
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 6 * 8 + 4 + 2, "every closure (and chunk init) ran");
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "one entry per rank")]
    fn wrong_rank_count_panics() {
        let mut m = Machine::flat(4);
        let mut data: Vec<Vec<u64>> = vec![vec![]; 3];
        m.local_phase(Phase::Other, &mut data, |_, _| Work::none());
    }

    #[test]
    fn words_of_rounds_up() {
        assert_eq!(words_of::<u64>(10), 10);
        assert_eq!(words_of::<u32>(10), 5);
        assert_eq!(words_of::<u32>(9), 5);
        assert_eq!(words_of::<u8>(1), 1);
        assert_eq!(words_of::<u8>(0), 0);
        assert_eq!(words_of::<[u64; 2]>(3), 6);
    }

    #[test]
    fn superstep_counter_advances() {
        let mut m = Machine::flat(2);
        assert_eq!(m.superstep, 0);
        let mut data = vec![vec![0u8], vec![1u8]];
        m.local_phase(Phase::Other, &mut data, |_, _| Work::none());
        assert_eq!(m.superstep, 1);
        m.local_phase(Phase::Other, &mut data, |_, _| Work::none());
        assert_eq!(m.superstep, 2);
    }

    #[test]
    fn reset_accounting_clears_metrics() {
        let mut m = Machine::flat(2);
        let mut data = vec![vec![0u8], vec![1u8]];
        m.local_phase(Phase::Other, &mut data, |_, _| Work::ops(10));
        assert!(m.metrics().total_simulated_seconds() > 0.0);
        m.reset_accounting();
        assert_eq!(m.metrics().total_simulated_seconds(), 0.0);
        assert_eq!(m.superstep, 0);
    }

    #[test]
    fn modelled_step_runs_its_work_and_charges_the_slowest_item() {
        let mut m = Machine::flat(2).with_tracing().with_sync_model(SyncModel::Overlapped);
        let mut data = vec![vec![0u8], vec![0u8]];
        m.local_phase(Phase::Other, &mut data, |rank, _| Work::ops((rank as u64 + 1) * 1000));
        let mut items: Vec<Vec<u64>> = vec![vec![3, 1, 2], vec![9, 8]];
        let lens = m.modelled_step(Phase::LocalSort, &mut items, |i, item| {
            item.sort_unstable();
            (item.len(), 1_000_000 * (i as u64 + 1))
        });
        assert_eq!(lens, vec![3, 2]);
        assert_eq!(items, vec![vec![1, 2, 3], vec![8, 9]]);
        let ls = m.metrics().phase(Phase::LocalSort);
        let charge = m.cost_model().compute(2_000_000);
        assert_eq!(ls.simulated_seconds.to_bits(), charge.to_bits());
        assert_eq!((ls.compute_ops, ls.supersteps), (2_000_000, 1));
        assert!(ls.wall_seconds > 0.0, "the charge carries the work's host wall");
        // A synchronizing advance: every rank waits for the slowest clock,
        // then all advance together by the charge.
        let event = &m.trace().events()[1];
        assert_eq!(event.bottleneck, Some(1));
        let slowest = m.cost_model().compute(2000);
        assert_eq!(m.timeline().clock(0), m.timeline().clock(1));
        assert!((m.timeline().clock(0) - (slowest + charge)).abs() < 1e-15);
    }

    #[test]
    fn point_to_point_charges_latency_and_bandwidth() {
        let mut m = Machine::new(Topology::flat(2), CostModel::bluegene_like());
        m.charge_point_to_point(Phase::Query, 2, 100);
        let q = m.metrics().phase(Phase::Query);
        assert_eq!(q.messages, 2);
        assert_eq!(q.comm_words, 100);
        let cost = m.cost_model();
        let expected = 2.0 * cost.latency + 100.0 * cost.unit_comm;
        assert_eq!(q.simulated_seconds.to_bits(), expected.to_bits());
        // The charge advances the makespan like any superstep.
        assert!(m.simulated_time() >= expected);
    }

    #[test]
    fn bsp_makespan_matches_scalar_registry_total() {
        // Under the Bsp sync model the timeline's makespan must reproduce
        // the historical scalar accumulator: the sum of per-superstep
        // max-over-ranks charges.
        let mut m = Machine::flat(4);
        assert_eq!(m.sync_model(), SyncModel::Bsp);
        let mut data: Vec<Vec<u64>> = (0..4).map(|r| vec![r as u64; 50 * (r + 1)]).collect();
        m.local_phase(Phase::LocalSort, &mut data, |_r, local| {
            local.sort_unstable();
            Work::sort(local.len())
        });
        let samples: Vec<Vec<u64>> = data.iter().map(|v| vec![v[0]]).collect();
        let _ = m.gather_to_root(Phase::Sampling, samples);
        m.broadcast(Phase::SplitterBroadcast, &[1u64, 2, 3]);
        let total = m.metrics().total_simulated_seconds();
        assert!(total > 0.0);
        assert!(
            (m.simulated_time() - total).abs() <= 1e-12 * total,
            "makespan {} vs registry {}",
            m.simulated_time(),
            total
        );
    }

    #[test]
    fn overlapped_local_phases_skip_the_barrier() {
        let mut m = Machine::flat(2).with_sync_model(SyncModel::Overlapped);
        let mut data = vec![vec![0u8; 1], vec![0u8; 1]];
        m.local_phase(Phase::Other, &mut data, |rank, _| Work::ops((rank as u64 + 1) * 1000));
        // Rank 0 did less work, so its clock trails rank 1's.
        assert!(m.timeline().clock(0) < m.timeline().clock(1));
        // A collective then synchronizes both clocks again.
        m.broadcast(Phase::Other, &[0u64]);
        assert_eq!(m.timeline().clock(0), m.timeline().clock(1));
    }

    #[test]
    fn sync_models_charge_identical_registries() {
        // The sync model only affects the timeline, never the per-phase
        // charges: identical operations must yield bitwise-equal signatures.
        let run = |sync: SyncModel| {
            let mut m = Machine::flat(3).with_sync_model(sync);
            let mut data: Vec<Vec<u64>> = (0..3).map(|r| vec![r as u64; 40]).collect();
            m.local_phase(Phase::LocalSort, &mut data, |_r, local| Work::sort(local.len()));
            let _ = m.reduce_sum(Phase::Histogramming, &vec![vec![1u64; 8]; 3]);
            m.metrics().deterministic_signature()
        };
        assert_eq!(run(SyncModel::Bsp), run(SyncModel::Overlapped));
    }

    #[test]
    fn disk_work_serializes_under_bsp_and_hides_under_overlapped() {
        let cost = CostModel::bluegene_like();
        let work = Work::ops(1_000_000).and(Work::disk_bytes(8_000_000, 10));
        let compute = cost.compute(1_000_000);
        let disk = cost.disk_transfer(1_000_000, 10);
        assert!(disk > 0.0 && compute > 0.0);

        let run = |sync: SyncModel| {
            let mut m = Machine::new(Topology::flat(2), cost).with_sync_model(sync);
            let mut data = vec![vec![0u8], vec![0u8]];
            m.local_phase(Phase::LocalSort, &mut data, |_, _| work);
            m
        };
        // Synchronous I/O (Bsp): compute and disk serialize.
        let bsp = run(SyncModel::Bsp);
        assert!((bsp.simulated_time() - (compute + disk)).abs() < 1e-15);
        // Overlapped I/O: the disk hides under the compute; the phase ends
        // when the slower of the two does.
        let ovl = run(SyncModel::Overlapped);
        assert!((ovl.simulated_time() - compute.max(disk)).abs() < 1e-15);
        assert!(ovl.simulated_time() < bsp.simulated_time());
        // The registry is sync-model-neutral: both charge the serial cost.
        assert_eq!(
            bsp.metrics().deterministic_signature(),
            ovl.metrics().deterministic_signature()
        );
        assert_eq!(bsp.metrics().phase(Phase::LocalSort).disk_words, 2_000_000);
        assert_eq!(bsp.metrics().total_disk_words(), 2_000_000);
    }

    #[test]
    fn disk_backlog_queues_across_supersteps_and_drains() {
        // Two consecutive overlapped disk phases on one rank: the second
        // phase's disk reservation queues behind the first's, and
        // wait_for_disk raises the rank's clock to the drained time.
        let cost = CostModel::bluegene_like();
        let mut m = Machine::new(Topology::flat(1), cost).with_sync_model(SyncModel::Overlapped);
        let mut data = vec![vec![0u8]];
        // Pure disk work: clock stays behind the disk channel.
        m.local_phase(Phase::LocalSort, &mut data, |_, _| Work::disk_bytes(80_000_000, 1));
        let d1 = cost.disk_transfer(10_000_000, 1);
        assert!((m.timeline().disk_free(0) - d1).abs() < 1e-15);
        m.wait_for_disk();
        assert!((m.timeline().clock(0) - d1).abs() < 1e-15);
        assert!((m.simulated_time() - d1).abs() < 1e-15);
    }

    #[test]
    fn map_phase_mut_advances_stateful_handles_with_map_phase_accounting() {
        // A per-rank cursor-like state (not a Vec): each phase call drains
        // a few elements and charges work.  The accounting must be bitwise
        // identical to an equivalent map_phase.
        struct Cursor {
            next: u64,
        }
        let mut m = Machine::flat(3);
        let mut cursors: Vec<Cursor> = (0..3).map(|r| Cursor { next: r as u64 * 10 }).collect();
        let drained = m.map_phase_mut(Phase::DataExchange, &mut cursors, |rank, c| {
            let take = rank as u64 + 1;
            let out: Vec<u64> = (0..take).map(|i| c.next + i).collect();
            c.next += take;
            (out, Work::scan(take as usize))
        });
        assert_eq!(drained[0], vec![0]);
        assert_eq!(drained[1], vec![10, 11]);
        assert_eq!(drained[2], vec![20, 21, 22]);
        assert_eq!(cursors[2].next, 23, "state persists across the superstep");

        let mut reference = Machine::flat(3);
        let data: Vec<Vec<u64>> = vec![vec![0; 1], vec![0; 2], vec![0; 3]];
        reference.map_phase(Phase::DataExchange, &data, |_, local| ((), Work::scan(local.len())));
        assert_eq!(
            m.metrics().deterministic_signature(),
            reference.metrics().deterministic_signature()
        );
    }

    #[test]
    fn histogram_phase_records_exactly_map_phase_plus_reduce_sum() {
        // Seven ranks (a multiple of no pool width below), five probes, one
        // rank reporting disk traffic.  The fused round must return the sum
        // of the per-rank prefix sums and leave the same trace — labels,
        // per-rank spans, charges — as the unfused pair, whatever the
        // chunking.
        let (p, probes) = (7usize, 5usize);
        let counts: Vec<Vec<u64>> =
            (0..p).map(|r| (0..=probes).map(|b| ((r * 7 + b * 3) % 11) as u64).collect()).collect();
        let work = |rank: RankId| {
            let disk = if rank == 2 { Work::disk_bytes(4096, 2) } else { Work::none() };
            Work::ops(100 + 13 * rank as u64).and(disk)
        };
        let prefix_ranks = |buckets: &[u64]| -> Vec<u64> {
            buckets[..probes]
                .iter()
                .scan(0u64, |below, &c| {
                    *below += c;
                    Some(*below)
                })
                .collect()
        };
        let add = |buckets: &[u64], acc: &mut [u64]| {
            for (slot, c) in acc.iter_mut().zip(buckets) {
                *slot += c;
            }
        };
        let sequential =
            || Machine::flat(p).with_parallelism(Parallelism::Sequential).with_tracing();

        let mut reference = sequential();
        let locals = reference.map_phase(Phase::Histogramming, &counts, |rank, buckets| {
            (prefix_ranks(buckets), work(rank))
        });
        let expected = reference.reduce_sum(Phase::Histogramming, &locals);

        let fused = |m: &mut Machine| {
            m.histogram_phase(Phase::Histogramming, &counts, probes, |rank, buckets, acc| {
                add(buckets, acc);
                work(rank)
            })
        };
        let mut m = sequential();
        assert_eq!(fused(&mut m), expected);
        assert_eq!(m.trace().events(), reference.trace().events());
        for threads in [1usize, 3, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let mut m = Machine::flat(p).with_tracing();
            assert_eq!(pool.install(|| fused(&mut m)), expected, "{threads} threads");
            assert_eq!(m.trace().events(), reference.trace().events(), "{threads} threads");
            assert_eq!(
                m.metrics().deterministic_signature(),
                reference.metrics().deterministic_signature()
            );
        }

        // The `_mut` flavour is the same round labelled like map_phase_mut.
        let mut reference = sequential();
        let mut state = counts.clone();
        let locals = reference.map_phase_mut(Phase::Histogramming, &mut state, |rank, buckets| {
            (prefix_ranks(buckets), work(rank))
        });
        assert_eq!(reference.reduce_sum(Phase::Histogramming, &locals), expected);
        let mut m = sequential();
        let ranks = m.histogram_phase_mut(
            Phase::Histogramming,
            &mut state,
            probes,
            |rank, buckets, acc| {
                add(buckets, acc);
                work(rank)
            },
        );
        assert_eq!(ranks, expected);
        assert_eq!(m.trace().events(), reference.trace().events());
    }

    #[test]
    fn disk_backlog_interleaves_with_nic_stages_under_overlapped() {
        // The single-pass pipeline's shape: a disk-bearing drain superstep,
        // then an async NIC stage, repeated.  Under Overlapped the disk
        // reservations queue on the disk channel and the stage transfers
        // ride the NIC, so neither blocks the compute clock — the makespan
        // is bounded by the busiest channel, not the sum of all three.
        use crate::plan::{ExchangePlan, ExchangeStage};
        let cost = CostModel::bluegene_like();
        let drain_work = Work::ops(200_000).and(Work::disk_bytes(8_000_000, 4));
        let compute = cost.compute(200_000);
        let disk = cost.disk_transfer(1_000_000, 4);

        let run = |sync: SyncModel| {
            let mut m = Machine::new(Topology::flat(2), cost).with_sync_model(sync);
            let mut state = vec![0u8, 0u8];
            let mut arrivals = Vec::new();
            for round in 1..=2 {
                m.map_phase_mut(Phase::DataExchange, &mut state, |_, _| ((), drain_work));
                let stage = ExchangeStage {
                    round,
                    destinations: vec![round - 1],
                    plans: vec![ExchangePlan::from_counts(vec![5_000, 5_000]); 2],
                };
                arrivals.push(m.exchange_stage::<u64>(Phase::DataExchange, &stage));
            }
            m.wait_until(&[*arrivals.last().unwrap(); 2]);
            m.wait_for_disk();
            m
        };

        let bsp = run(SyncModel::Bsp);
        let ovl = run(SyncModel::Overlapped);
        // Same phases, same charges: the registry is sync-model-neutral.
        assert_eq!(
            bsp.metrics().deterministic_signature(),
            ovl.metrics().deterministic_signature()
        );
        // Overlapped hides the disk drains (and the NIC stages) behind the
        // compute of later rounds; BSP pays compute + disk serially per
        // round and synchronizes on every stage.
        assert!(ovl.simulated_time() < bsp.simulated_time());
        // Two rounds of disk queue back-to-back on the disk channel: the
        // channel is busy at least 2×disk, and the overlapped makespan can
        // never beat the busiest channel.
        assert!(ovl.simulated_time() >= 2.0 * disk.min(compute) - 1e-15);
    }

    #[test]
    fn wait_until_blocks_ranks_without_charging() {
        let mut m = Machine::flat(2);
        m.wait_until(&[0.5, 0.25]);
        assert_eq!(m.timeline().clock(0), 0.5);
        assert_eq!(m.timeline().clock(1), 0.25);
        assert_eq!(m.metrics().total_simulated_seconds(), 0.0);
        assert_eq!(m.simulated_time(), 0.5);
    }

    #[test]
    fn trace_records_per_rank_spans_and_bottleneck() {
        // Overlapped, so the local phase leaves the clocks skewed and the
        // broadcast's bottleneck is the genuinely slower rank.
        let mut m = Machine::flat(2).with_tracing().with_sync_model(SyncModel::Overlapped);
        let mut data = vec![vec![0u8], vec![0u8]];
        m.local_phase(Phase::Other, &mut data, |rank, _| Work::ops((rank as u64 + 1) * 100));
        m.broadcast(Phase::Other, &[0u64; 10]);
        let events = m.trace().events();
        assert_eq!(events.len(), 2);
        // The local phase has one span per rank, no bottleneck.
        assert_eq!(events[0].spans.len(), 2);
        assert!(events[0].bottleneck.is_none());
        assert!(events[0].span_for(0).unwrap().end < events[0].span_for(1).unwrap().end);
        // The broadcast waited for rank 1 (the slower one).
        assert_eq!(events[1].bottleneck, Some(1));
        let path = m.trace().critical_path();
        assert!(!path.is_empty());
        assert!((path.last().unwrap().end - m.simulated_time()).abs() < 1e-15);
    }
}
