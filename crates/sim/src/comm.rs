//! Collective communication operations on the simulated machine.
//!
//! Every collective the paper's algorithms use is implemented here as a
//! method on [`Machine`]: gather-to-root, broadcast, element-wise histogram
//! reduction, and the irregular all-to-all exchange (rank-level and
//! node-combined, §6.1.1).  All of them move real data between the caller's
//! per-rank buffers *and* charge the BSP cost model, so both correctness and
//! scaling shape come out of the same code path.
//!
//! The all-to-all comes in two data representations with identical
//! accounting semantics:
//!
//! * the *nested* form (`sends[src][dst]` is an owned buffer) — simple but
//!   `p²` heap allocations per exchange;
//! * the *flat* form ([`Machine::all_to_allv_flat`]) — one contiguous
//!   buffer per rank plus an [`ExchangePlan`] of counts/displacements,
//!   modelled on `MPI_Alltoallv`.  This is the hot path used by every
//!   sorter; the nested form is retained as the differential-testing
//!   oracle.
//!
//! Accounting conventions (see the README's "Cost accounting" section):
//! a *word* is 8 bytes of application data actually crossing the network
//! (a rank's or node's own contribution to a collective never does); a
//! *message* is one non-empty off-rank (or off-node) transfer; the α-term
//! of an exchange charges the **max over ranks** of the number of distinct
//! non-empty peers — the BSP superstep is held up by the busiest rank, not
//! by the global message count.

use rayon::prelude::*;

use crate::cost::CollectiveAlgo;
use crate::machine::{words_of, words_of_width, ClockAdvance, Machine, Parallelism};
use crate::metrics::{Phase, PhaseMetrics};
use crate::plan::{ExchangePlan, ExchangeStage, FlatRecv};

/// Bytes one exchanged record of a flat exchange charges: the plans'
/// declared [`ExchangePlan::record_width`] when any is set (the maximum
/// across ranks — widths are a per-exchange property, so they normally
/// agree), otherwise `size_of::<U>()`.  Keeps the byte-based accounting
/// bitwise identical for every plan built without an explicit width.
fn exchange_width<U>(plans: &[ExchangePlan]) -> usize {
    match plans.iter().map(|p| p.record_width).max() {
        Some(w) if w > 0 => w,
        _ => std::mem::size_of::<U>(),
    }
}

/// Per-rank (or per-node) volume and peer bookkeeping for an irregular
/// all-to-all, shared by the nested and flat representations so both charge
/// bitwise-identical costs.
#[derive(Debug)]
struct ExchangeVolumes {
    send_elems: Vec<usize>,
    recv_elems: Vec<usize>,
    send_peers: Vec<u64>,
    recv_peers: Vec<u64>,
    messages: u64,
    total_elems: usize,
}

impl ExchangeVolumes {
    fn new(parties: usize) -> Self {
        Self {
            send_elems: vec![0; parties],
            recv_elems: vec![0; parties],
            send_peers: vec![0; parties],
            recv_peers: vec![0; parties],
            messages: 0,
            total_elems: 0,
        }
    }

    /// Record `len` elements travelling `src → dst`.  Self-transfers stay
    /// in the rank's own memory: they contribute nothing to volume,
    /// messages or peers — the same convention `gather_to_root` and the
    /// node-combined exchange use for data that never crosses the network.
    fn add(&mut self, src: usize, dst: usize, len: usize) {
        if len == 0 || src == dst {
            return;
        }
        self.total_elems += len;
        self.send_elems[src] += len;
        self.recv_elems[dst] += len;
        self.messages += 1;
        self.send_peers[src] += 1;
        self.recv_peers[dst] += 1;
    }

    /// The busiest party's element volume: `max over r of max(send, recv)`.
    fn max_elems(&self) -> usize {
        self.send_elems
            .iter()
            .zip(self.recv_elems.iter())
            .map(|(s, r)| (*s).max(*r))
            .max()
            .unwrap_or(0)
    }

    /// The α-term peer count: `max over r of max(#send peers, #recv peers)`
    /// — a permutation exchange charges one latency, not `p − 1`.
    fn max_peers(&self) -> u64 {
        self.send_peers
            .iter()
            .zip(self.recv_peers.iter())
            .map(|(s, r)| (*s).max(*r))
            .max()
            .unwrap_or(0)
    }

    /// The α-term peer count of one *stage* of a staged exchange: `max over
    /// r of #send peers`.  A stage receiver takes its whole bucket in this
    /// one stage, so its per-message fan-in overhead is pipelined with the
    /// β-term stream it is absorbing anyway; the serialization the α-term
    /// models is the senders' injection of distinct messages.  For a dense
    /// single-stage exchange this degenerates to `p − 1`, the same as
    /// [`Self::max_peers`], keeping the staged and monolithic charges
    /// consistent.
    fn max_send_peers(&self) -> u64 {
        self.send_peers.iter().copied().max().unwrap_or(0)
    }
}

impl Machine {
    /// Gather per-rank contributions at a central root, preserving rank
    /// order (rank 0's elements first).  This is the "collect the sample at
    /// a central processor" step of sample sort and HSS.
    ///
    /// Rank 0 *is* the root, so its own contribution never crosses the
    /// network: the charge is `O(words of ranks 1..p)` bandwidth plus one
    /// latency per tree level, and one message per non-empty non-root
    /// contribution — data that does not exist is not injected.
    pub fn gather_to_root<U: Clone + Send>(
        &mut self,
        phase: Phase,
        per_rank: Vec<Vec<U>>,
    ) -> Vec<U> {
        assert_eq!(per_rank.len(), self.ranks(), "one contribution per rank");
        let p = self.ranks();
        let total_elems: usize = per_rank.iter().map(|v| v.len()).sum();
        let root_elems = per_rank.first().map(|v| v.len()).unwrap_or(0);
        let network_words = words_of::<U>(total_elems - root_elems);
        // A message is one non-empty off-root transfer — ranks with nothing
        // to contribute inject nothing into the network.
        let messages = per_rank.iter().skip(1).filter(|v| !v.is_empty()).count() as u64;
        let cost = self.cost_model().gather(network_words, p);
        let mut out = Vec::with_capacity(total_elems);
        for v in per_rank {
            out.extend(v);
        }
        let metrics = PhaseMetrics {
            simulated_seconds: cost,
            messages,
            comm_words: network_words,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "gather_to_root", metrics, ClockAdvance::Sync);
        out
    }

    /// Broadcast a message from the root to every rank.  Since all ranks
    /// live in one address space the caller keeps using the same slice; this
    /// method only charges the broadcast's communication cost
    /// (`O(S + log p)` pipelined or `O(S log p)` binomial) and `p - 1`
    /// messages.
    pub fn broadcast<U>(&mut self, phase: Phase, message: &[U]) {
        let p = self.ranks();
        let words = words_of::<U>(message.len());
        let cost = self.cost_model().broadcast(words, p);
        let metrics = PhaseMetrics {
            simulated_seconds: cost,
            messages: (p.saturating_sub(1)) as u64,
            comm_words: words * (p.saturating_sub(1)) as u64,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "broadcast", metrics, ClockAdvance::Sync);
    }

    /// Reduce per-rank vectors of counts into their element-wise sum at the
    /// root — exactly the "sum up all local histograms" step.  All per-rank
    /// vectors must have equal length.
    ///
    /// Charges the reduction's communication cost plus the combine compute
    /// (`S log p` ops binomial, `S` ops pipelined — §5.1.2).
    pub fn reduce_sum(&mut self, phase: Phase, per_rank: &[Vec<u64>]) -> Vec<u64> {
        assert_eq!(per_rank.len(), self.ranks(), "one contribution per rank");
        let len = per_rank.first().map(|v| v.len()).unwrap_or(0);
        for (r, v) in per_rank.iter().enumerate() {
            assert_eq!(v.len(), len, "rank {r} histogram length mismatch");
        }
        let mut sum = vec![0u64; len];
        for v in per_rank {
            for (acc, x) in sum.iter_mut().zip(v.iter()) {
                *acc += *x;
            }
        }
        self.charge_reduce_sum(phase, len);
        sum
    }

    /// Record the superstep a reduction of `len`-word count vectors costs:
    /// the tree's communication plus the combine compute.  Shared by
    /// [`Machine::reduce_sum`] and the fused histogramming superstep
    /// ([`Machine::histogram_phase`]), which charge identically.
    pub(crate) fn charge_reduce_sum(&mut self, phase: Phase, len: usize) {
        let p = self.ranks();
        let words = words_of::<u64>(len);
        let comm = self.cost_model().reduce(words, p);
        let combine_ops = match self.cost_model().collective {
            CollectiveAlgo::Binomial => {
                len as u64 * u64::from(crate::cost::CostModel::log2_ceil(p))
            }
            CollectiveAlgo::Pipelined => len as u64,
        };
        let metrics = PhaseMetrics {
            simulated_seconds: comm + self.cost_model().compute(combine_ops),
            messages: (p.saturating_sub(1)) as u64,
            comm_words: words * (p.saturating_sub(1)) as u64,
            compute_ops: combine_ops,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "reduce_sum", metrics, ClockAdvance::Sync);
    }

    /// Shared charge of a rank-level all-to-all (nested or flat).
    /// `width_bytes` is the wire width of one element — `size_of::<U>()`
    /// unless the exchange plans declare an explicit record width.
    fn charge_all_to_allv(&mut self, phase: Phase, vol: &ExchangeVolumes, width_bytes: usize) {
        let cost = self
            .cost_model()
            .all_to_allv(words_of_width(vol.max_elems(), width_bytes), vol.max_peers());
        let metrics = PhaseMetrics {
            simulated_seconds: cost,
            messages: vol.messages,
            comm_words: words_of_width(vol.total_elems, width_bytes),
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "all_to_allv", metrics, ClockAdvance::Sync);
    }

    /// Irregular all-to-all exchange ("MPI_Alltoallv"): `sends[src][dst]` is
    /// the buffer rank `src` sends to rank `dst`; the result `recv` satisfies
    /// `recv[dst][src] == sends[src][dst]`.
    ///
    /// The BSP charge is `alpha * max_rank_peers + beta * max(send, recv)`
    /// where both maxima are over ranks — the most loaded rank holds up the
    /// superstep, and a permutation exchange (one peer per rank) pays one
    /// latency, not `p − 1`.  Message count is the number of non-empty
    /// off-rank buffers, i.e. what a rank-level implementation would inject
    /// into the network.
    ///
    /// This nested representation costs `p²` buffer allocations; it is kept
    /// as the differential-testing oracle for [`Machine::all_to_allv_flat`],
    /// which moves the same data with identical accounting.
    pub fn all_to_allv<U: Send>(
        &mut self,
        phase: Phase,
        sends: Vec<Vec<Vec<U>>>,
    ) -> Vec<Vec<Vec<U>>> {
        let p = self.ranks();
        assert_eq!(sends.len(), p, "one send matrix row per rank");
        let mut vol = ExchangeVolumes::new(p);
        for (src, row) in sends.iter().enumerate() {
            assert_eq!(row.len(), p, "rank {src} must provide one buffer per destination");
            for (dst, buf) in row.iter().enumerate() {
                vol.add(src, dst, buf.len());
            }
        }
        self.charge_all_to_allv(phase, &vol, std::mem::size_of::<U>());

        // Transpose the send matrix into the receive matrix.
        let mut recv: Vec<Vec<Vec<U>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        // Build column by column: recv[dst][src] = sends[src][dst].
        let mut sends = sends;
        for src_row in sends.iter_mut().rev() {
            // Pop from the back so each row is consumed exactly once without cloning.
            for (dst, buf) in src_row.drain(..).enumerate() {
                recv[dst].push(buf);
            }
        }
        // Rows were pushed in reverse source order; restore rank order.
        for row in recv.iter_mut() {
            row.reverse();
        }
        recv
    }

    /// Flat all-to-all exchange: rank `r` contributes one contiguous
    /// `send_bufs[r]` whose destination runs are described by `plans[r]`
    /// (`plans[r].counts[d]` elements for rank `d` at
    /// `plans[r].displs[d]`).  Returns one [`FlatRecv`] per rank: a single
    /// contiguous receive buffer whose source runs are located by the
    /// returned plan.
    ///
    /// Data and accounting are identical to [`Machine::all_to_allv`] on the
    /// equivalent nested send matrix, but only `p` buffers are allocated
    /// instead of `p²` and the send side copies nothing (the send buffer is
    /// typically the rank's sorted data itself).
    pub fn all_to_allv_flat<U: Clone + Send + Sync>(
        &mut self,
        phase: Phase,
        send_bufs: &[Vec<U>],
        plans: &[ExchangePlan],
    ) -> Vec<FlatRecv<U>> {
        self.all_to_allv_flat_in_place::<U>(phase, send_bufs, plans);
        self.scatter_flat(send_bufs, plans)
    }

    /// In-place variant of [`Machine::all_to_allv_flat`]: charges exactly
    /// the same cost and metrics, but materialises no receive buffers — on
    /// the simulated machine the data moved, while on the host every rank
    /// shares one address space, so a consumer that can read runs in place
    /// (the k-way merge) takes destination `d`'s run from source `s`
    /// directly as `plans[s].run(&send_bufs[s], d)`.  This removes the
    /// receive-side copy entirely.
    pub fn all_to_allv_flat_in_place<U: Send>(
        &mut self,
        phase: Phase,
        send_bufs: &[Vec<U>],
        plans: &[ExchangePlan],
    ) {
        self.validate_flat_exchange(send_bufs, plans);
        let mut vol = ExchangeVolumes::new(self.ranks());
        for (src, plan) in plans.iter().enumerate() {
            for (dst, &c) in plan.counts.iter().enumerate() {
                vol.add(src, dst, c);
            }
        }
        self.charge_all_to_allv(phase, &vol, exchange_width::<U>(plans));
    }

    /// Shared input validation of the flat exchange variants.
    fn validate_flat_exchange<U>(&self, send_bufs: &[Vec<U>], plans: &[ExchangePlan]) {
        let p = self.ranks();
        assert_eq!(send_bufs.len(), p, "one send buffer per rank");
        assert_eq!(plans.len(), p, "one exchange plan per rank");
        for (src, plan) in plans.iter().enumerate() {
            assert_eq!(plan.peers(), p, "rank {src} plan must address every destination");
            assert_eq!(
                plan.total_elems(),
                send_bufs[src].len(),
                "rank {src} plan does not cover its send buffer"
            );
        }
    }

    /// The data movement of a flat exchange (no accounting): concatenate,
    /// for each destination, every source's run in source-rank order.  Each
    /// destination's buffer is assembled independently, so the copies run
    /// on the rayon pool (mirroring each simulated rank draining its own
    /// receive buffer); results are bitwise mode-independent.
    fn scatter_flat<U: Clone + Send + Sync>(
        &self,
        send_bufs: &[Vec<U>],
        plans: &[ExchangePlan],
    ) -> Vec<FlatRecv<U>> {
        let p = self.ranks();
        let assemble = |dst: usize| {
            let counts: Vec<usize> = plans.iter().map(|plan| plan.counts[dst]).collect();
            let plan = ExchangePlan::from_counts(counts);
            let mut data = Vec::with_capacity(plan.total_elems());
            for (src, src_plan) in plans.iter().enumerate() {
                data.extend_from_slice(src_plan.run(&send_bufs[src], dst));
            }
            FlatRecv { data, plan }
        };
        match self.parallelism() {
            Parallelism::Rayon => {
                (0..p).collect::<Vec<_>>().into_par_iter().map(assemble).collect()
            }
            Parallelism::Sequential => (0..p).map(assemble).collect(),
        }
    }

    /// Node-granularity volume bookkeeping shared by the nested and flat
    /// node-combined exchanges.  Returns `(volumes, intra_node_elems,
    /// total_elems)`; `volumes` tracks inter-node traffic only.
    fn node_volumes(
        &self,
        transfer: impl Iterator<Item = (usize, usize, usize)>,
    ) -> (ExchangeVolumes, usize, usize) {
        let topo = self.topology();
        let n = topo.nodes();
        let mut vol = ExchangeVolumes::new(n);
        // Distinct node pairs must be deduplicated: many rank pairs map to
        // the same node pair but the network sees one combined message.
        let mut pair_nonempty = vec![false; n * n];
        let mut intra = 0usize;
        let mut total = 0usize;
        for (src, dst, len) in transfer {
            if len == 0 {
                continue;
            }
            total += len;
            let sn = topo.node_of(src);
            let dn = topo.node_of(dst);
            if sn == dn {
                intra += len;
            } else {
                vol.send_elems[sn] += len;
                vol.recv_elems[dn] += len;
                pair_nonempty[sn * n + dn] = true;
            }
        }
        for sn in 0..n {
            for dn in 0..n {
                if pair_nonempty[sn * n + dn] {
                    vol.messages += 1;
                    vol.send_peers[sn] += 1;
                    vol.recv_peers[dn] += 1;
                }
            }
        }
        (vol, intra, total)
    }

    /// Shared charge of a node-combined all-to-all (nested or flat).
    /// `width_bytes` as in [`Machine::charge_all_to_allv`].
    fn charge_all_to_allv_node_combined(
        &mut self,
        phase: Phase,
        vol: &ExchangeVolumes,
        intra_node_elems: usize,
        total_elems: usize,
        width_bytes: usize,
    ) {
        let topo = self.topology();
        // A node injects through `cores_per_node` cores, so its effective
        // per-word cost is the per-core cost divided by the injecting cores.
        let cores = topo.cores_per_node().max(1) as u64;
        let node_words = words_of_width(vol.max_elems(), width_bytes).div_ceil(cores);
        let comm_cost = self.cost_model().all_to_allv(node_words, vol.max_peers());
        let copy_ops = intra_node_elems as u64 / topo.cores_per_node().max(1) as u64;
        let cost = comm_cost + self.cost_model().compute(copy_ops);
        let metrics = PhaseMetrics {
            simulated_seconds: cost,
            messages: vol.messages,
            comm_words: words_of_width(total_elems - intra_node_elems, width_bytes),
            compute_ops: copy_ops,
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "all_to_allv_node_combined", metrics, ClockAdvance::Sync);
    }

    /// Node-combined all-to-all (§6.1.1): all buffers travelling between the
    /// same pair of physical nodes are combined into a single message, so the
    /// network sees at most `n (n - 1)` messages instead of `p (p - 1)`.
    /// Intra-node traffic stays in shared memory and is charged as compute
    /// (one op per element copied) rather than network time.  The α-term
    /// charges the max over *nodes* of distinct non-empty peer nodes.
    ///
    /// Data-wise the result is identical to [`Machine::all_to_allv`]; only
    /// the accounting differs.
    pub fn all_to_allv_node_combined<U: Send>(
        &mut self,
        phase: Phase,
        sends: Vec<Vec<Vec<U>>>,
    ) -> Vec<Vec<Vec<U>>> {
        let p = self.ranks();
        assert_eq!(sends.len(), p, "one send matrix row per rank");
        for (src, row) in sends.iter().enumerate() {
            assert_eq!(row.len(), p, "rank {src} must provide one buffer per destination");
        }
        let (vol, intra, total) =
            self.node_volumes(sends.iter().enumerate().flat_map(|(src, row)| {
                row.iter().enumerate().map(move |(dst, buf)| (src, dst, buf.len()))
            }));
        self.charge_all_to_allv_node_combined(phase, &vol, intra, total, std::mem::size_of::<U>());

        // Actual data movement is identical to the rank-level exchange.
        let mut recv: Vec<Vec<Vec<U>>> = (0..p).map(|_| Vec::with_capacity(p)).collect();
        let mut sends = sends;
        for src_row in sends.iter_mut().rev() {
            for (dst, buf) in src_row.drain(..).enumerate() {
                recv[dst].push(buf);
            }
        }
        for row in recv.iter_mut() {
            row.reverse();
        }
        recv
    }

    /// Flat node-combined all-to-all: the accounting of
    /// [`Machine::all_to_allv_node_combined`] over flat send plans, with no
    /// receive buffers materialised — consumers read the runs in place (see
    /// [`Machine::all_to_allv_flat_in_place`]).
    pub fn all_to_allv_flat_node_combined_in_place<U: Send>(
        &mut self,
        phase: Phase,
        send_bufs: &[Vec<U>],
        plans: &[ExchangePlan],
    ) {
        self.validate_flat_exchange(send_bufs, plans);
        let (vol, intra, total) =
            self.node_volumes(plans.iter().enumerate().flat_map(|(src, plan)| {
                plan.counts.iter().enumerate().map(move |(dst, &c)| (src, dst, c))
            }));
        self.charge_all_to_allv_node_combined(
            phase,
            &vol,
            intra,
            total,
            exchange_width::<U>(plans),
        );
    }

    /// Inject one stage of a *staged* all-to-allv (§4): the subset of
    /// buckets described by `stage` travels now, while the algorithm keeps
    /// running.  Charges exactly like [`Machine::all_to_allv_flat_in_place`]
    /// restricted to the stage's counts, and returns the simulated time at
    /// which the stage's data has landed at its destinations.
    ///
    /// Under [`SyncModel::Overlapped`](crate::timeline::SyncModel) the
    /// transfer runs on the senders' NICs without blocking their compute
    /// clocks — consumers must [`Machine::wait_until`] the returned
    /// completion time before reading the data.  Under
    /// [`SyncModel::Bsp`](crate::timeline::SyncModel) the stage degrades to
    /// a synchronizing superstep.
    ///
    /// `U` is the element type moved (it determines the word volume); no
    /// host data is copied here — the stage plans point into the senders'
    /// buffers, which consumers read in place exactly as with the flat
    /// in-place exchange.
    pub fn exchange_stage<U>(&mut self, phase: Phase, stage: &ExchangeStage) -> f64 {
        let p = self.ranks();
        assert_eq!(stage.plans.len(), p, "one stage plan per rank");
        let mut vol = ExchangeVolumes::new(p);
        for (src, plan) in stage.plans.iter().enumerate() {
            assert_eq!(plan.peers(), p, "rank {src} stage plan must address every destination");
            for (dst, &c) in plan.counts.iter().enumerate() {
                vol.add(src, dst, c);
            }
        }
        let width = exchange_width::<U>(&stage.plans);
        // Each sender's NIC is busy only while it injects its own runs (its
        // α·peers latencies plus β·its own volume); the stage's overall
        // completion is bounded by the busiest party — typically a receiver
        // absorbing its whole bucket.
        let senders: Vec<(usize, f64)> = (0..p)
            .filter(|&src| vol.send_elems[src] > 0)
            .map(|src| {
                let inject = self
                    .cost_model()
                    .all_to_allv(words_of_width(vol.send_elems[src], width), vol.send_peers[src]);
                (src, inject)
            })
            .collect();
        let cost = self
            .cost_model()
            .all_to_allv(words_of_width(vol.max_elems(), width), vol.max_send_peers());
        let metrics = PhaseMetrics {
            simulated_seconds: cost,
            messages: vol.messages,
            comm_words: words_of_width(vol.total_elems, width),
            supersteps: 1,
            ..Default::default()
        };
        self.record(phase, "exchange_stage", metrics, ClockAdvance::AsyncStage { senders })
    }

    /// Charge the incremental cost of piggybacking `extra` elements of type
    /// `U` on a broadcast that happens anyway (§4: finalized splitter values
    /// ride along with the next round's probe broadcast).  Only the extra
    /// payload's bandwidth is charged — no additional latency and no
    /// additional messages are injected, and no superstep is counted.
    pub fn broadcast_piggyback<U>(&mut self, phase: Phase, extra: usize) {
        let p = self.ranks();
        let words = words_of::<U>(extra);
        let metrics = PhaseMetrics {
            simulated_seconds: self.cost_model().unit_comm * words as f64,
            comm_words: words * (p.saturating_sub(1)) as u64,
            ..Default::default()
        };
        self.record(phase, "broadcast_piggyback", metrics, ClockAdvance::Sync);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::machine::Machine;
    use crate::topology::Topology;

    #[test]
    fn gather_preserves_rank_order() {
        let mut m = Machine::flat(4);
        let per_rank = vec![vec![0u64, 1], vec![10], vec![], vec![20, 21, 22]];
        let gathered = m.gather_to_root(Phase::Histogramming, per_rank);
        assert_eq!(gathered, vec![0, 1, 10, 20, 21, 22]);
        let ph = m.metrics().phase(Phase::Histogramming);
        // Ranks 1 and 3 contribute over the network; rank 2 has nothing to
        // send and the root's own elements never leave its memory.
        assert_eq!(ph.messages, 2);
        // The root's own 2 elements never cross the network: 4 words, not 6.
        assert_eq!(ph.comm_words, 4);
    }

    #[test]
    fn gather_excludes_root_contribution_from_network_words() {
        // Everything lives at the root already: nothing crosses the network.
        let mut m = Machine::flat(4);
        let per_rank = vec![vec![1u64, 2, 3], vec![], vec![], vec![]];
        let _ = m.gather_to_root(Phase::Sampling, per_rank);
        let ph = m.metrics().phase(Phase::Sampling);
        assert_eq!(ph.comm_words, 0);
        assert_eq!(ph.messages, 0);
        // Cost has no bandwidth component, only the tree latencies.
        let expected = m.cost_model().gather(0, 4);
        assert!((ph.simulated_seconds - expected).abs() < 1e-18);
    }

    #[test]
    fn reduce_sum_is_elementwise() {
        let mut m = Machine::flat(3);
        let per_rank = vec![vec![1u64, 2, 3], vec![10, 20, 30], vec![100, 200, 300]];
        let sum = m.reduce_sum(Phase::Histogramming, &per_rank);
        assert_eq!(sum, vec![111, 222, 333]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_sum_rejects_ragged_input() {
        let mut m = Machine::flat(2);
        let per_rank = vec![vec![1u64, 2], vec![1u64]];
        let _ = m.reduce_sum(Phase::Histogramming, &per_rank);
    }

    #[test]
    fn all_to_allv_transposes() {
        let mut m = Machine::flat(3);
        // sends[src][dst] = vec![src*10 + dst]
        let sends: Vec<Vec<Vec<u32>>> =
            (0..3).map(|src| (0..3).map(|dst| vec![(src * 10 + dst) as u32]).collect()).collect();
        let recv = m.all_to_allv(Phase::DataExchange, sends);
        for (dst, per_src) in recv.iter().enumerate() {
            for (src, buf) in per_src.iter().enumerate() {
                assert_eq!(*buf, vec![(src * 10 + dst) as u32]);
            }
        }
        // 3 ranks, all off-diagonal buffers non-empty: 6 messages.
        assert_eq!(m.metrics().phase(Phase::DataExchange).messages, 6);
    }

    #[test]
    fn all_to_allv_empty_buffers_send_no_messages() {
        let mut m = Machine::flat(4);
        let mut sends: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); 4]; 4];
        sends[1][2] = vec![7, 8];
        let recv = m.all_to_allv(Phase::DataExchange, sends);
        assert_eq!(recv[2][1], vec![7, 8]);
        assert_eq!(m.metrics().phase(Phase::DataExchange).messages, 1);
    }

    #[test]
    fn permutation_exchange_charges_one_latency() {
        // Regression test for the α-term bug: a permutation exchange (every
        // rank sends its whole buffer to exactly one distinct peer) must be
        // charged alpha * 1, not alpha * (p - 1).
        let p = 16;
        let elems_per_rank = 100usize;
        let mut m = Machine::flat(p);
        let sends: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| {
                (0..p)
                    .map(|dst| {
                        if dst == (src + 1) % p {
                            vec![src as u64; elems_per_rank]
                        } else {
                            Vec::new()
                        }
                    })
                    .collect()
            })
            .collect();
        let _ = m.all_to_allv(Phase::DataExchange, sends);
        let ph = m.metrics().phase(Phase::DataExchange);
        // Every rank sends and receives exactly one message...
        assert_eq!(ph.messages, p as u64);
        // ... so the charge is one latency plus the bandwidth term.
        let expected = m.cost_model().all_to_allv(words_of::<u64>(elems_per_rank), 1);
        assert!(
            (ph.simulated_seconds - expected).abs() < 1e-18,
            "charged {} expected {expected}",
            ph.simulated_seconds
        );
    }

    #[test]
    fn dense_exchange_still_charges_p_minus_one_latencies() {
        let p = 8;
        let mut m = Machine::flat(p);
        let sends: Vec<Vec<Vec<u64>>> =
            (0..p).map(|_| (0..p).map(|_| vec![1u64]).collect()).collect();
        let _ = m.all_to_allv(Phase::DataExchange, sends);
        let ph = m.metrics().phase(Phase::DataExchange);
        // Each rank exchanges with its p - 1 peers; the element it keeps for
        // itself is neither bandwidth nor a word on the network.
        let expected = m.cost_model().all_to_allv(words_of::<u64>(p - 1), (p - 1) as u64);
        assert!((ph.simulated_seconds - expected).abs() < 1e-18);
        assert_eq!(ph.comm_words, words_of::<u64>(p * (p - 1)));
    }

    #[test]
    fn self_transfers_never_cross_the_network() {
        // Every rank keeps everything: a diagonal-only exchange moves no
        // words, injects no messages and pays no latency or bandwidth.
        let p = 4;
        let mut m = Machine::flat(p);
        let sends: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| (0..p).map(|dst| if src == dst { vec![7u64; 10] } else { vec![] }).collect())
            .collect();
        let recv = m.all_to_allv(Phase::DataExchange, sends);
        assert_eq!(recv[2][2], vec![7u64; 10]);
        let ph = m.metrics().phase(Phase::DataExchange);
        assert_eq!(ph.messages, 0);
        assert_eq!(ph.comm_words, 0);
        assert_eq!(ph.simulated_seconds, 0.0);
    }

    #[test]
    fn flat_exchange_matches_nested_data_and_metrics() {
        let p = 5;
        // Irregular sizes: src sends (src*dst) % 4 elements to dst.
        let nested: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| (0..p).map(|dst| vec![(src * 10 + dst) as u64; (src * dst) % 4]).collect())
            .collect();
        let bufs: Vec<Vec<u64>> =
            nested.iter().map(|row| row.iter().flatten().copied().collect()).collect();
        let plans: Vec<ExchangePlan> = nested
            .iter()
            .map(|row| ExchangePlan::from_counts(row.iter().map(|b| b.len()).collect()))
            .collect();

        let mut m1 = Machine::flat(p);
        let recv_nested = m1.all_to_allv(Phase::DataExchange, nested);
        let mut m2 = Machine::flat(p);
        let recv_flat = m2.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);

        for (dst, flat) in recv_flat.iter().enumerate() {
            for (src, nested_buf) in recv_nested[dst].iter().enumerate() {
                assert_eq!(
                    flat.plan.run(&flat.data, src),
                    nested_buf.as_slice(),
                    "dst {dst} src {src}"
                );
            }
        }
        assert_eq!(m1.metrics().deterministic_signature(), m2.metrics().deterministic_signature());
    }

    #[test]
    fn flat_node_combined_matches_nested_metrics() {
        let topo = Topology::new(8, 4);
        let nested: Vec<Vec<Vec<u64>>> = (0..8)
            .map(|src| (0..8).map(|dst| vec![(src * 100 + dst) as u64; (src + dst) % 3]).collect())
            .collect();
        let bufs: Vec<Vec<u64>> =
            nested.iter().map(|row| row.iter().flatten().copied().collect()).collect();
        let plans: Vec<ExchangePlan> = nested
            .iter()
            .map(|row| ExchangePlan::from_counts(row.iter().map(|b| b.len()).collect()))
            .collect();

        let mut m1 = Machine::new(topo, CostModel::bluegene_like());
        let recv_nested = m1.all_to_allv_node_combined(Phase::DataExchange, nested);
        let mut m2 = Machine::new(topo, CostModel::bluegene_like());
        m2.all_to_allv_flat_node_combined_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
        for (dst, row) in recv_nested.iter().enumerate() {
            for (src, nested_buf) in row.iter().enumerate() {
                assert_eq!(plans[src].run(&bufs[src], dst), nested_buf.as_slice());
            }
        }
        assert_eq!(m1.metrics().deterministic_signature(), m2.metrics().deterministic_signature());
    }

    #[test]
    fn node_combined_exchange_moves_same_data_with_fewer_messages() {
        let topo = Topology::new(8, 4); // 2 nodes of 4 cores
        let sends: Vec<Vec<Vec<u64>>> =
            (0..8).map(|src| (0..8).map(|dst| vec![(src * 100 + dst) as u64]).collect()).collect();

        let mut rank_level = Machine::new(topo, CostModel::bluegene_like());
        let recv_a = rank_level.all_to_allv(Phase::DataExchange, sends.clone());

        let mut node_level = Machine::new(topo, CostModel::bluegene_like());
        let recv_b = node_level.all_to_allv_node_combined(Phase::DataExchange, sends);

        assert_eq!(recv_a, recv_b);
        let msgs_rank = rank_level.metrics().phase(Phase::DataExchange).messages;
        let msgs_node = node_level.metrics().phase(Phase::DataExchange).messages;
        assert_eq!(msgs_rank, 8 * 7);
        // 2 nodes, each sending one combined message to the other node.
        assert_eq!(msgs_node, 2);
        assert!(msgs_node < msgs_rank);
    }

    #[test]
    fn hundred_byte_records_charge_12_5x_the_beta_volume_of_u64() {
        // The same exchange shape with 100-byte terasort-style records
        // charges exactly 100/8 = 12.5× the β-volume of u64 keys.
        let p = 4;
        let per_peer = 2usize;
        let bufs_u64: Vec<Vec<u64>> = (0..p).map(|_| vec![7u64; per_peer * p]).collect();
        let bufs_wide: Vec<Vec<[u8; 100]>> =
            (0..p).map(|_| vec![[9u8; 100]; per_peer * p]).collect();
        let plans: Vec<ExchangePlan> =
            (0..p).map(|_| ExchangePlan::from_counts(vec![per_peer; p])).collect();
        let mut m1 = Machine::flat(p);
        let _ = m1.all_to_allv_flat(Phase::DataExchange, &bufs_u64, &plans);
        let mut m2 = Machine::flat(p);
        let _ = m2.all_to_allv_flat(Phase::DataExchange, &bufs_wide, &plans);
        let narrow = m1.metrics().phase(Phase::DataExchange);
        let wide = m2.metrics().phase(Phase::DataExchange);
        // 2 · wide = 25 · narrow  ⇔  wide = 12.5 · narrow.
        assert_eq!(wide.comm_words * 2, narrow.comm_words * 25);
        // The α-side is unchanged: same messages, same peers...
        assert_eq!(wide.messages, narrow.messages);
        // ... and the simulated time grows with the extra β-volume.
        assert!(wide.simulated_seconds > narrow.simulated_seconds);
    }

    #[test]
    fn declared_record_width_overrides_the_element_size() {
        // u64 elements with a declared 100-byte wire format charge as if
        // each element were 100 bytes (e.g. modelling serialization).
        let p = 2;
        let bufs: Vec<Vec<u64>> = vec![vec![1; 4]; p];
        let plans: Vec<ExchangePlan> =
            (0..p).map(|_| ExchangePlan::from_counts(vec![2; p]).with_record_width(100)).collect();
        let mut m = Machine::flat(p);
        m.all_to_allv_flat_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
        // 4 off-rank elements (2 each direction) · 100 B / 8 B per word.
        assert_eq!(m.metrics().phase(Phase::DataExchange).comm_words, 50);
    }

    #[test]
    fn broadcast_charges_cost_but_moves_no_data() {
        let mut m = Machine::flat(16);
        let msg = vec![0u64; 1000];
        m.broadcast(Phase::SplitterBroadcast, &msg);
        let ph = m.metrics().phase(Phase::SplitterBroadcast);
        assert_eq!(ph.messages, 15);
        assert!(ph.simulated_seconds > 0.0);
    }
}
