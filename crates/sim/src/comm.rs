//! Collective communication operations on the simulated machine.
//!
//! Every collective the paper's algorithms use is implemented here as a
//! method on [`Machine`]: gather-to-root, broadcast, element-wise histogram
//! reduction, and the irregular all-to-all exchange (rank-level and
//! node-combined, §6.1.1).  All of them move real data between the caller's
//! per-rank buffers *and* charge the BSP cost model, so both correctness and
//! scaling shape come out of the same code path.
//!
//! The all-to-all is *flat* ([`Machine::all_to_allv_flat`]): one contiguous
//! buffer per rank plus an [`ExchangePlan`] of counts/displacements,
//! modelled on `MPI_Alltoallv`.  The in-place variants charge the same
//! cost without materialising receive buffers, and
//! [`Machine::exchange_stage`] injects one stage of a staged exchange.
//!
//! Accounting conventions (see the README's "Cost accounting" section):
//! a *word* is 8 bytes of application data actually crossing the network
//! (a rank's or node's own contribution to a collective never does); a
//! *message* is one non-empty off-rank (or off-node) transfer; the α-term
//! of an exchange charges the **max over ranks** of the number of distinct
//! non-empty peers — the BSP superstep is held up by the busiest rank, not
//! by the global message count.

use crate::cost::CollectiveAlgo;
use crate::machine::{words_of, words_of_width, ClockAdvance, Machine};
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
/// all-to-all, shared by the monolithic and staged exchanges.
#[derive(Debug, PartialEq, Eq)]
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

    /// Charge of a rank-level all-to-all.  `width_bytes` is the wire width
    /// of one element — `size_of::<U>()` unless the exchange plans declare
    /// an explicit record width.
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

    /// Irregular all-to-all exchange ("MPI_Alltoallv"): rank `r` contributes
    /// one contiguous `send_bufs[r]` whose destination runs are described by
    /// `plans[r]` (`plans[r].counts[d]` elements for rank `d` at
    /// `plans[r].displs[d]`).  Returns one [`FlatRecv`] per rank: a single
    /// contiguous receive buffer whose source runs are located by the
    /// returned plan, so `recv[dst]`'s run from `src` is `plans[src]`'s run
    /// for `dst`.  Only `p` buffers are allocated and the send side copies
    /// nothing (the send buffer is typically the rank's sorted data itself).
    ///
    /// The BSP charge is `alpha * max_rank_peers + beta * max(send, recv)`
    /// where both maxima are over ranks — the most loaded rank holds up the
    /// superstep, and a permutation exchange (one peer per rank) pays one
    /// latency, not `p − 1`.  Message count is the number of non-empty
    /// off-rank runs, i.e. what a rank-level implementation would inject
    /// into the network.
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
    /// through the superstep dispatcher (mirroring each simulated rank
    /// draining its own receive buffer); results are bitwise
    /// mode-independent.
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
        self.dispatch(&mut vec![(); p], |_| (), |_, dst, _| assemble(dst))
            .0
            .into_iter()
            .flatten()
            .collect()
    }

    /// Node-granularity volume bookkeeping of the node-combined exchange.
    /// Returns `(volumes, intra_node_elems, total_elems)`; `volumes` tracks
    /// inter-node traffic only.
    ///
    /// Ranks are blocked onto nodes ([`Topology::ranks_of`]), so what sender
    /// `src` ships to node `dn` is the sum of its counts over one contiguous
    /// block: one pass over each plan row with no `node_of` division per
    /// entry.  A node pair carries a message exactly when some rank pair
    /// between them does, so the integers are those of the per-entry walk.
    ///
    /// [`Topology::ranks_of`]: crate::topology::Topology::ranks_of
    fn node_volumes(&self, plans: &[ExchangePlan]) -> (ExchangeVolumes, usize, usize) {
        let topo = self.topology();
        let n = topo.nodes();
        let blocks: Vec<std::ops::Range<usize>> =
            topo.iter_nodes().map(|dn| topo.ranks_of(dn)).collect();
        let mut vol = ExchangeVolumes::new(n);
        // Distinct node pairs must be deduplicated: many rank pairs map to
        // the same node pair but the network sees one combined message.
        let mut pair_nonempty = vec![false; n * n];
        let mut intra = 0usize;
        let mut total = 0usize;
        for (sn, senders) in blocks.iter().enumerate() {
            for plan in &plans[senders.clone()] {
                for (dn, receivers) in blocks.iter().enumerate() {
                    let len: usize = plan.counts[receivers.clone()].iter().sum();
                    total += len;
                    if sn == dn {
                        intra += len;
                    } else {
                        vol.send_elems[sn] += len;
                        vol.recv_elems[dn] += len;
                        pair_nonempty[sn * n + dn] |= len > 0;
                    }
                }
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

    /// Charge of a node-combined all-to-all (§6.1.1): all runs travelling
    /// between the same pair of physical nodes are combined into a single
    /// message, so the network sees at most `n (n - 1)` messages instead of
    /// `p (p - 1)`.  Intra-node traffic stays in shared memory and is
    /// charged as compute (one op per element copied) rather than network
    /// time.  The α-term charges the max over *nodes* of distinct non-empty
    /// peer nodes.  `width_bytes` as in [`Machine::charge_all_to_allv`].
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

    /// Node-combined all-to-all (§6.1.1) over flat send plans, with no
    /// receive buffers materialised — consumers read the runs in place (see
    /// [`Machine::all_to_allv_flat_in_place`]).  Data-wise it is the
    /// rank-level exchange; only the accounting differs: runs between the
    /// same pair of nodes travel as one message, and intra-node runs are
    /// charged as shared-memory copies rather than network time.
    pub fn all_to_allv_flat_node_combined_in_place<U: Send>(
        &mut self,
        phase: Phase,
        send_bufs: &[Vec<U>],
        plans: &[ExchangePlan],
    ) {
        self.validate_flat_exchange(send_bufs, plans);
        let (vol, intra, total) = self.node_volumes(plans);
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

    /// Flatten a hand-built send matrix (`sends[src][dst]` is what rank
    /// `src` sends to rank `dst`) into per-rank send buffers and plans.
    fn flatten<U: Clone>(sends: &[Vec<Vec<U>>]) -> (Vec<Vec<U>>, Vec<ExchangePlan>) {
        let bufs = sends.iter().map(|row| row.concat()).collect();
        let plans = sends
            .iter()
            .map(|row| ExchangePlan::from_counts(row.iter().map(Vec::len).collect()))
            .collect();
        (bufs, plans)
    }

    #[test]
    fn all_to_allv_transposes() {
        let mut m = Machine::flat(3);
        // sends[src][dst] = vec![src*10 + dst]
        let sends: Vec<Vec<Vec<u32>>> =
            (0..3).map(|src| (0..3).map(|dst| vec![(src * 10 + dst) as u32]).collect()).collect();
        let (bufs, plans) = flatten(&sends);
        let recv = m.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);
        for (dst, fr) in recv.iter().enumerate() {
            assert_eq!(fr.plan.counts, vec![1; 3], "one run per source at {dst}");
            for src in 0..3 {
                assert_eq!(fr.plan.run(&fr.data, src), [(src * 10 + dst) as u32]);
            }
        }
        // 3 ranks, all off-diagonal runs non-empty: 6 messages.
        assert_eq!(m.metrics().phase(Phase::DataExchange).messages, 6);
    }

    #[test]
    fn all_to_allv_empty_buffers_send_no_messages() {
        let mut m = Machine::flat(4);
        let mut sends: Vec<Vec<Vec<u8>>> = vec![vec![Vec::new(); 4]; 4];
        sends[1][2] = vec![7, 8];
        let (bufs, plans) = flatten(&sends);
        let recv = m.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);
        // Rank 2 holds one run, from rank 1; every other receive buffer is empty.
        assert_eq!(recv[2].plan.counts, vec![0, 2, 0, 0]);
        assert_eq!(recv[2].plan.run(&recv[2].data, 1), [7, 8]);
        for (dst, fr) in recv.iter().enumerate().filter(|(dst, _)| *dst != 2) {
            assert!(fr.data.is_empty() && fr.plan.total_elems() == 0, "rank {dst}");
        }
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
        let (bufs, plans) = flatten(&sends);
        m.all_to_allv_flat_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
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
        let (bufs, plans) = flatten(&sends);
        m.all_to_allv_flat_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
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
        let (bufs, plans) = flatten(&sends);
        let recv = m.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);
        assert_eq!(recv[2].plan.counts, vec![0, 0, 10, 0]);
        assert_eq!(recv[2].data, vec![7u64; 10]);
        let ph = m.metrics().phase(Phase::DataExchange);
        assert_eq!(ph.messages, 0);
        assert_eq!(ph.comm_words, 0);
        assert_eq!(ph.simulated_seconds, 0.0);
    }

    #[test]
    fn flat_exchange_matches_nested_data_and_metrics() {
        let p = 5;
        // Irregular sizes: src sends (src*dst) % 4 copies of src*10 + dst to
        // dst.  Off the diagonal that is 1→2: 2, 1→3: 3, 2→1: 2, 2→3: 2,
        // 3→1: 3, 3→2: 2 elements; every other run is empty or a self-run.
        let nested: Vec<Vec<Vec<u64>>> = (0..p)
            .map(|src| (0..p).map(|dst| vec![(src * 10 + dst) as u64; (src * dst) % 4]).collect())
            .collect();
        let (bufs, plans) = flatten(&nested);
        let mut m = Machine::flat(p);
        let recv = m.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);
        for (dst, fr) in recv.iter().enumerate() {
            for src in 0..p {
                let expected = vec![(src * 10 + dst) as u64; (src * dst) % 4];
                assert_eq!(fr.plan.run(&fr.data, src), expected, "dst {dst} src {src}");
            }
        }
        let ph = m.metrics().phase(Phase::DataExchange);
        // Six off-rank runs carrying 14 words; ranks 1 and 3 each send and
        // receive 5 elements, and every active rank has 2 peers.
        assert_eq!(ph.messages, 6);
        assert_eq!(ph.comm_words, 14);
        assert_eq!(ph.supersteps, 1);
        assert_eq!(ph.simulated_seconds, m.cost_model().all_to_allv(5, 2));
    }

    #[test]
    fn flat_node_combined_matches_nested_metrics() {
        // 2 nodes of 4 cores; src sends (src + dst) % 3 elements to dst:
        // 64 elements, 32 of them within a node, and each node sends and
        // receives 16 elements to and from the other.
        let topo = Topology::new(8, 4);
        let nested: Vec<Vec<Vec<u64>>> = (0..8)
            .map(|src| (0..8).map(|dst| vec![(src * 100 + dst) as u64; (src + dst) % 3]).collect())
            .collect();
        let (bufs, plans) = flatten(&nested);
        let mut m = Machine::new(topo, CostModel::bluegene_like());
        m.all_to_allv_flat_node_combined_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
        for (src, row) in nested.iter().enumerate() {
            for (dst, run) in row.iter().enumerate() {
                assert_eq!(plans[src].run(&bufs[src], dst), run.as_slice());
            }
        }
        let ph = m.metrics().phase(Phase::DataExchange);
        // One combined message per direction between the two nodes.
        assert_eq!(ph.messages, 2);
        // Only the 32 inter-node elements cross the network ...
        assert_eq!(ph.comm_words, 32);
        // ... the 32 intra-node ones are copied by 4 cores each ...
        assert_eq!(ph.compute_ops, 8);
        // ... and a node's 16 words are injected through its 4 cores.
        let cost = m.cost_model();
        assert_eq!(ph.simulated_seconds, cost.all_to_allv(4, 1) + cost.compute(8));
    }

    /// The node-combined accounting as it was first written: every
    /// `(src, dst)` entry mapped to its node pair through `node_of`.  The
    /// oracle of the block pass in [`Machine::node_volumes`].
    fn node_volumes_per_entry(
        topo: Topology,
        plans: &[ExchangePlan],
    ) -> (ExchangeVolumes, usize, usize) {
        let n = topo.nodes();
        let mut vol = ExchangeVolumes::new(n);
        let mut pair_nonempty = vec![false; n * n];
        let (mut intra, mut total) = (0usize, 0usize);
        for (src, plan) in plans.iter().enumerate() {
            for (dst, &len) in plan.counts.iter().enumerate() {
                if len == 0 {
                    continue;
                }
                total += len;
                let (sn, dn) = (topo.node_of(src), topo.node_of(dst));
                if sn == dn {
                    intra += len;
                } else {
                    vol.send_elems[sn] += len;
                    vol.recv_elems[dn] += len;
                    pair_nonempty[sn * n + dn] = true;
                }
            }
        }
        for (pair, _) in pair_nonempty.iter().enumerate().filter(|(_, &any)| any) {
            vol.messages += 1;
            vol.send_peers[pair / n] += 1;
            vol.recv_peers[pair % n] += 1;
        }
        (vol, intra, total)
    }

    #[test]
    fn node_volumes_block_pass_matches_the_per_entry_walk() {
        // Ragged last node, one node, flat, and exactly-filled nodes; sparse
        // counts so that some node pairs carry nothing at all.
        let shapes = [(10, 4), (7, 3), (6, 16), (5, 5), (9, 1), (1, 1), (64, 16), (33, 8)];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for (p, cores) in shapes {
            let topo = Topology::new(p, cores);
            let plans: Vec<ExchangePlan> = (0..p)
                .map(|_| {
                    let counts = (0..p)
                        .map(|_| {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            if state % 3 == 0 {
                                (state >> 40) as usize % 5
                            } else {
                                0
                            }
                        })
                        .collect();
                    ExchangePlan::from_counts(counts)
                })
                .collect();
            let bufs: Vec<Vec<u64>> = plans.iter().map(|pl| vec![0; pl.total_elems()]).collect();
            let m = Machine::new(topo, CostModel::bluegene_like());
            let expect = node_volumes_per_entry(topo, &plans);
            assert_eq!(m.node_volumes(&plans), expect, "{p} ranks, {cores} per node");

            // The charge built on it: messages, words and ops.
            let mut m = Machine::new(topo, CostModel::bluegene_like());
            m.all_to_allv_flat_node_combined_in_place::<u64>(Phase::DataExchange, &bufs, &plans);
            let ph = m.metrics().phase(Phase::DataExchange);
            let (vol, intra, _) = expect;
            assert_eq!(ph.messages, vol.messages, "{p} ranks, {cores} per node");
            assert_eq!(ph.comm_words, vol.send_elems.iter().sum::<usize>() as u64);
            assert_eq!(ph.compute_ops, (intra / cores) as u64);
        }
    }

    #[test]
    fn node_combined_exchange_moves_same_data_with_fewer_messages() {
        let topo = Topology::new(8, 4); // 2 nodes of 4 cores
        let sends: Vec<Vec<Vec<u64>>> =
            (0..8).map(|src| (0..8).map(|dst| vec![(src * 100 + dst) as u64]).collect()).collect();
        let (bufs, plans) = flatten(&sends);

        let mut rank_level = Machine::new(topo, CostModel::bluegene_like());
        let recv = rank_level.all_to_allv_flat(Phase::DataExchange, &bufs, &plans);

        let mut node_level = Machine::new(topo, CostModel::bluegene_like());
        node_level.all_to_allv_flat_node_combined_in_place::<u64>(
            Phase::DataExchange,
            &bufs,
            &plans,
        );

        // The node-combined exchange reads every run in place: the same
        // runs the rank-level exchange delivers.
        for (dst, fr) in recv.iter().enumerate() {
            for (src, plan) in plans.iter().enumerate() {
                assert_eq!(plan.run(&bufs[src], dst), fr.plan.run(&fr.data, src));
            }
        }
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
