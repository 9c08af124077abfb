//! The one pipeline behind [`HssSorter`](crate::HssSorter): local sort →
//! splitter determination → exchange → finish.  The algorithm is the one
//! axis a caller *chooses*: the [`SplitterPolicy`] — HSS, or a comparison
//! algorithm's splitters — decides where the buckets end.  The other three
//! axes are *derived*, never set, and every policy runs under all of them.
//!
//! * **Granularity** — from `(machine.topology(), config.node_level)`: one
//!   bucket per rank, owned by that rank and finished by a k-way merge; or,
//!   with node-level partitioning on a multi-core topology (§6.1), one
//!   bucket per physical node, owned by the node's leader and cut exactly
//!   among the node's cores in shared memory ([`crate::node_level`]).
//! * **Residency** — from what the [`Residency`] policy's local sort left
//!   behind: every rank's sorted data *resident* (a slice in memory), or
//!   some rank's *spilled* to run files ([`crate::out_of_core`]).  The same
//!   policy merges at the owners — ranks or a node's cores — so an owner
//!   over the cap merges through disk.  [`InMemory`] never spills.
//! * **Schedule** — from `machine.sync_model()` and the residency.  All
//!   resident: under [`SyncModel::Bsp`] all splitters are determined first
//!   and the buckets move in one all-to-all ([`hss_partition::exchange`]);
//!   under [`SyncModel::Overlapped`] the buckets travel as asynchronous
//!   stages while later histogram rounds are still running (§4, below).
//!   Any rank spilled: under either sync model the splitters come first —
//!   a merge cursor can only be drained front to back, and while it drains
//!   the run files no longer answer probes — then every rank seals its
//!   buckets in bucket order and they travel in stages of
//!   [`HssConfig::min_stage_fraction`] of the data (`ship_in_bucket_order`).
//!
//! Every schedule ends in the same product — what every owner
//! [`Received`] — so every granularity runs under every schedule at every
//! residency.
//!
//! # The overlapped schedule
//!
//! The paper's Charm++ implementation overlaps splitter determination with
//! the data movement: as soon as a splitter is finalized its value is
//! broadcast, and as soon as *both* splitters bounding a bucket are known,
//! every rank sends that bucket to its owner — while later histogram rounds
//! are still running.  On the simulator:
//!
//! 1. the policy runs its histogramming rounds; a round observer *freezes*
//!    each splitter the round it finalizes
//!    (clamped monotone against already-frozen neighbours) and broadcasts
//!    the newly frozen keys;
//! 2. every rank locates the new splitters in its sorted data (one binary
//!    search each), which completes the bucket boundaries of every bucket
//!    whose two bounding splitters are now frozen;
//! 3. the completed buckets are injected as an asynchronous exchange stage
//!    ([`Machine::exchange_stage`]): the transfer occupies the senders'
//!    NICs while the next sampling/histogramming rounds advance the compute
//!    clocks — this is where the overlap win comes from.  Batches smaller
//!    than [`HssConfig::min_stage_fraction`] of the input are deferred so
//!    per-stage latency cannot eat the win.  Stages are rank-level messages
//!    addressed to the bucket's owner: there is no §6.1.1 per-node message
//!    combining under this schedule — nor under the spilled one, whatever
//!    the sync model — with or without node-level buckets;
//! 4. after the last round the remaining buckets travel in a final stage
//!    and each owner waits only for *its own* stage to land
//!    ([`Machine::wait_until`]) before the finish.
//!
//! Because splitters are frozen at the round they finalize (instead of
//! being re-optimised by later probes), the output partition can differ
//! slightly from the Bsp schedule's — every frozen splitter is still within
//! the `εN/(2·buckets)` finalization tolerance, so the load-balance
//! guarantee is unchanged.  Data-wise the result is a correct global sort
//! either way; `tests/sync_differential.rs` verifies both claims.  The
//! spilled schedule uses the final splitters, so its output is the Bsp
//! schedule's under either sync model.  A policy that calls no observer
//! (the one-shot samplers, key-space bisection) freezes nothing: its
//! buckets move in the Bsp exchange, charge for charge.

use hss_keygen::{Key, Keyed};
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{
    exchange, kway_merge_slices, merge_received, owner_plan, splitter_position, Received,
};
use hss_sim::{ExchangePlan, Machine, Phase, SyncModel, Topology, Work};

use crate::config::HssConfig;
use crate::local_sort::charged_local_sort;
use crate::multi_round::{RankStore, RoundProgress, SortedSource, SplitterPolicy};
use crate::node_level::finish_within_nodes;
use crate::report::SplitterReport;
use crate::staging::StagedExchange;

/// Sentinel for a bucket boundary whose splitter is not yet frozen.
const UNKNOWN: usize = usize::MAX;

/// The bucket granularity of one run: who owns each bucket and how the
/// owner finishes.
struct Granularity {
    /// `owner[b]` is the rank bucket `b` travels to; strictly ascending.
    owner: Vec<usize>,
    /// Whether an owner re-splits what it received among its node's cores
    /// (node buckets) instead of merging it into its own output.
    within_node: bool,
}

impl Granularity {
    fn derive(topology: Topology, node_level: bool) -> Self {
        let within_node = node_level && topology.cores_per_node() > 1;
        let owner = if within_node {
            topology.iter_nodes().map(|node| topology.leader_of(node)).collect()
        } else {
            topology.iter_ranks().collect()
        };
        Self { owner, within_node }
    }
}

/// Where records live at the two steps of the pipeline that hold a whole
/// rank's worth of them: the local sort and the merge at an owner.
pub(crate) trait Residency<T: Keyed>: Sync {
    /// Sort one rank's input: in place (`None`), or out of memory — `local`
    /// is left empty and the returned store stands for its sorted records.
    /// The work is charged to [`Phase::LocalSort`].
    fn sort_rank(&self, local: &mut Vec<T>) -> (Option<RankStore<'_, T>>, Work);

    /// Merge the sorted runs an owner — a rank, or a core of a node —
    /// received.  The work is what the merge cost *beyond* its comparisons:
    /// the disk traffic of an owner that could not hold its runs.
    fn merge(&self, runs: &[&[T]]) -> (Vec<T>, Work);

    /// Whether an owner of `items` received records finishes in memory —
    /// where [`merge`](Self::merge) is `kway_merge_slices` at no extra
    /// cost, so the rank-level finish may re-sort it beside its neighbours.
    fn in_memory(&self, items: usize) -> bool;
}

/// The residency of [`HssSorter::sort`](crate::HssSorter::sort): every rank
/// sorts in place with the given algorithm and merges in memory.
pub(crate) struct InMemory(pub(crate) LocalSortAlgo);

impl<T: Keyed + RadixSortable> Residency<T> for InMemory {
    fn sort_rank(&self, local: &mut Vec<T>) -> (Option<RankStore<'_, T>>, Work) {
        (None, charged_local_sort(self.0, local))
    }

    fn merge(&self, runs: &[&[T]]) -> (Vec<T>, Work) {
        (kway_merge_slices(runs), Work::none())
    }

    fn in_memory(&self, _items: usize) -> bool {
        true
    }
}

/// Sort per-rank input into the globally sorted per-rank output: the
/// residency's local sort, the `policy`'s splitters (with `on_round`
/// observing every histogramming round it runs), the exchange under the
/// derived schedule, and the granularity's finish.
pub(crate) fn sort<T, R, P, F>(
    machine: &mut Machine,
    mut data: Vec<Vec<T>>,
    config: &HssConfig,
    residency: &R,
    policy: &P,
    on_round: F,
) -> (Vec<Vec<T>>, SplitterReport)
where
    T: Keyed + RadixSortable,
    T::K: RadixSortable,
    R: Residency<T>,
    P: SplitterPolicy<T::K>,
    F: FnMut(&mut Machine, &RoundProgress<'_, T::K>),
{
    let Granularity { owner, within_node } =
        Granularity::derive(machine.topology(), config.node_level);
    let spilled = machine
        .map_phase_mut(Phase::LocalSort, &mut data, |_rank, local| residency.sort_rank(local));
    machine.wait_for_disk();
    let (received, report) = if spilled.iter().any(Option::is_some) {
        let mut stores: Vec<RankStore<'_, T>> = data
            .iter()
            .zip(spilled)
            .map(|(local, store)| store.unwrap_or_else(|| Box::new(local.as_slice())))
            .collect();
        let mut stores: Vec<_> = stores.iter_mut().map(|store| &mut **store).collect();
        let (splitters, report) = policy.splitters(machine, &mut stores, owner.len(), on_round);
        // The probes are over.  A spilled rank reduces its runs to the merge
        // fan-in and opens its cursor; from here on its data only moves
        // forward.
        let _: Vec<()> =
            machine.map_phase_mut(Phase::Merge, &mut stores, |_rank, s| ((), s.open_drain()));
        machine.wait_for_disk();
        (ship_in_bucket_order(machine, &mut stores, splitters.keys(), &owner, config), report)
    } else {
        match machine.sync_model() {
            SyncModel::Bsp => {
                let mut slices: Vec<&[T]> = data.iter().map(Vec::as_slice).collect();
                let mut sources: Vec<&mut &[T]> = slices.iter_mut().collect();
                let (splitters, report) =
                    policy.splitters(machine, &mut sources, owner.len(), on_round);
                (exchange(machine, &data, &splitters, &owner), report)
            }
            SyncModel::Overlapped => {
                staged_exchange(machine, &data, &owner, config, policy, on_round)
            }
        }
    };
    let out = if within_node {
        finish_within_nodes(machine, &received, residency)
    } else {
        let in_memory = |items| residency.in_memory(items);
        merge_received(machine, &data, &received, in_memory, |runs| residency.merge(runs))
    };
    machine.wait_for_disk();
    (out, report)
}

/// Ship every bucket to its owner given the final `splitters`, in bucket
/// order.  One superstep per bucket: every rank seals it — a resident rank
/// cuts its slice, a spilled rank pulls its merge cursor up to the bucket's
/// upper splitter; identical boundaries by construction.  Sealed buckets
/// accumulate until they cover `min_stage_fraction` of the data, then fly
/// as one asynchronous exchange stage; under [`SyncModel::Overlapped`] the
/// next bucket's drain (and its disk backlog) proceeds while the NIC
/// reservation is still in flight.  Returns once every owner's stage has
/// landed.
fn ship_in_bucket_order<K: Key, S: SortedSource<K> + ?Sized>(
    machine: &mut Machine,
    stores: &mut [&mut S],
    splitters: &[K],
    owner: &[usize],
    config: &HssConfig,
) -> Received<'static, S::Item> {
    let p = machine.ranks();
    let total_keys = stores.iter().map(|s| s.len()).sum();
    let mut stages = StagedExchange::new(owner, p, total_keys, config.min_stage_fraction);
    let mut recv: Vec<Vec<Vec<S::Item>>> = (0..p).map(|_| Vec::new()).collect();
    let mut first_sealed = 0;
    for (b, &dst) in owner.iter().enumerate() {
        let bound = splitters.get(b).copied();
        recv[dst] =
            machine.map_phase_mut(Phase::DataExchange, stores, |_rank, s| s.seal_below(bound));
        // The seal already charged each sender's scan of what it sends.
        let sealed: Vec<usize> = (first_sealed..=b).collect();
        stages.offer::<S::Item>(
            machine,
            0,
            &sealed,
            b + 1 == owner.len(),
            |src, bucket| 0..recv[owner[bucket]][src].len(),
            |_, _| {},
        );
        if stages.is_staged(b) {
            first_sealed = b + 1;
        }
    }
    stages.wait_for_arrivals(machine);
    Received::Owned(recv)
}

/// The overlapped schedule (module docs): determine the `owner.len() − 1`
/// splitters while shipping every bucket to its owner the round its two
/// bounding splitters freeze.  Returns once every owner's stage has landed.
fn staged_exchange<'a, T, P, F>(
    machine: &mut Machine,
    per_rank_sorted: &'a [Vec<T>],
    owner: &[usize],
    config: &HssConfig,
    policy: &P,
    mut on_round: F,
) -> (Received<'a, T>, SplitterReport)
where
    T: Keyed + RadixSortable,
    T::K: RadixSortable,
    P: SplitterPolicy<T::K>,
    F: FnMut(&mut Machine, &RoundProgress<'_, T::K>),
{
    let p = machine.ranks();
    let buckets = owner.len();
    let nsplit = buckets - 1;
    let total_keys: usize = per_rank_sorted.iter().map(|v| v.len()).sum();

    // Frozen splitter keys (set the round each splitter finalizes).
    let mut frozen: Vec<Option<T::K>> = vec![None; nsplit];
    // bounds[r][j] for j in 0..=buckets: bucket b of rank r is
    // bounds[r][b]..bounds[r][b+1] in r's sorted data.  Interior entries
    // are filled in as splitters freeze.
    let mut bounds: Vec<Vec<usize>> = per_rank_sorted
        .iter()
        .map(|v| {
            let mut b = vec![UNKNOWN; buckets + 1];
            b[0] = 0;
            b[buckets] = v.len();
            b
        })
        .collect();
    // Which buckets have already travelled, and when their stage lands.
    let mut stages = StagedExchange::new(owner, p, total_keys, config.min_stage_fraction);

    let mut slices: Vec<&[T]> = per_rank_sorted.iter().map(Vec::as_slice).collect();
    let mut sources: Vec<&mut &[T]> = slices.iter_mut().collect();
    let (splitters, report) =
        policy.splitters(machine, &mut sources, buckets, |machine, progress| {
            on_round(machine, progress);
            // Freeze every splitter that finalized this round (all remaining
            // ones on the last round — further rounds cannot improve them).
            let newly: Vec<usize> = (0..nsplit)
                .filter(|&i| {
                    frozen[i].is_none()
                        && (progress.is_last
                            || progress.intervals.is_finalized(i, progress.tolerance))
                })
                .collect();
            let mut new_pairs: Vec<(usize, T::K)> = Vec::with_capacity(newly.len());
            for &i in &newly {
                let key = clamp_monotone(progress.intervals.best_splitter_key(i), i, &frozen);
                frozen[i] = Some(key);
                new_pairs.push((i, key));
            }
            if !new_pairs.is_empty() {
                // The root announces the frozen values by piggybacking them
                // on the broadcast traffic the rounds send anyway (§4) —
                // only the extra payload's bandwidth is charged.  Every rank
                // then locates the new splitters in its local data.
                machine.broadcast_piggyback::<T::K>(Phase::SplitterBroadcast, new_pairs.len());
                locate_splitters(machine, per_rank_sorted, &new_pairs, &mut bounds);
            }
            stage_ready_buckets(
                machine,
                per_rank_sorted,
                &bounds,
                &mut stages,
                progress.round,
                progress.is_last,
            );
        });

    // No splitter froze — the policy ran no observed round (a one-shot
    // policy, or nothing to split) — so nothing has travelled: the buckets
    // move in the Bsp exchange.
    if frozen.iter().all(Option::is_none) {
        return (exchange(machine, per_rank_sorted, &splitters, owner), report);
    }
    debug_assert!(stages.all_staged(), "every bucket must have travelled");

    // Per-rank full plans over the now-complete boundaries; the finish
    // reads every run in place out of the senders' sorted buffers.
    let plans: Vec<ExchangePlan> = bounds.iter().map(|b| owner_plan::<T>(b, owner, p)).collect();
    stages.wait_for_arrivals(machine);
    (Received::InPlace { bufs: per_rank_sorted, plans }, report)
}

/// Clamp a candidate key for splitter `i` against the nearest frozen
/// neighbours so the frozen splitter sequence stays non-decreasing (the
/// invariant the per-rank boundary positions rely on).
fn clamp_monotone<K: Key>(mut key: K, i: usize, frozen: &[Option<K>]) -> K {
    if let Some(below) = frozen[..i].iter().rev().flatten().next() {
        key = key.max(*below);
    }
    if let Some(above) = frozen[i + 1..].iter().flatten().next() {
        key = key.min(*above);
    }
    key
}

/// One superstep locating freshly frozen splitters in every rank's sorted
/// data (`|new_pairs|` binary searches per rank), recording the positions
/// as bucket boundaries.
fn locate_splitters<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    new_pairs: &[(usize, T::K)],
    bounds: &mut [Vec<usize>],
) {
    if new_pairs.is_empty() {
        return;
    }
    let positions: Vec<Vec<usize>> =
        machine.map_phase(Phase::DataExchange, per_rank_sorted, |_r, local| {
            let pos: Vec<usize> =
                new_pairs.iter().map(|&(_, k)| splitter_position(local, k)).collect();
            (pos, Work::binary_search(new_pairs.len(), local.len()))
        });
    for (r, pos) in positions.into_iter().enumerate() {
        for (&(i, _), ps) in new_pairs.iter().zip(pos) {
            bounds[r][i + 1] = ps;
        }
    }
}

/// Offer every bucket whose two bounding splitters are frozen (and that has
/// not travelled yet) as one asynchronous exchange stage; a batch below the
/// minimum stage volume waits for a later one unless `force`d.
fn stage_ready_buckets<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    bounds: &[Vec<usize>],
    stages: &mut StagedExchange<'_>,
    round: usize,
    force: bool,
) {
    let ready: Vec<usize> = (0..bounds[0].len() - 1)
        .filter(|&b| {
            !stages.is_staged(b) && bounds.iter().all(|br| br[b] != UNKNOWN && br[b + 1] != UNKNOWN)
        })
        .collect();
    stages.offer::<T>(
        machine,
        round,
        &ready,
        force,
        |src, b| bounds[src][b]..bounds[src][b + 1],
        // The pack/scan each sender performs to stage its send runs.
        |machine, staged_elems| {
            let _: Vec<()> =
                machine.map_phase(Phase::DataExchange, per_rank_sorted, |r, _local| {
                    ((), Work::scan(staged_elems[r]))
                });
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_round::HssRounds;
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;

    fn sorted_input(dist: KeyDistribution, p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = dist.generate_per_rank(p, n, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    fn run(machine: &mut Machine, data: &[Vec<u64>], config: &HssConfig) -> Vec<Vec<u64>> {
        let hss = HssRounds { config, warm: None };
        sort(machine, data.to_vec(), config, &InMemory(config.local_sort), &hss, |_, _| {}).0
    }

    #[test]
    fn empty_input_and_single_rank_work() {
        let config = HssConfig::default();
        let data: Vec<Vec<u64>> = vec![vec![]; 4];
        let mut machine = Machine::flat(4).with_sync_model(SyncModel::Overlapped);
        assert!(run(&mut machine, &data, &config).iter().all(|v| v.is_empty()));

        // One bucket: a single rank, or node-level buckets on a single node
        // — no splitter ever freezes, the lone bucket moves in the Bsp
        // exchange.
        let mut machine = Machine::flat(1).with_sync_model(SyncModel::Overlapped);
        assert_eq!(run(&mut machine, &[vec![1u64, 2, 3]], &config), vec![vec![1, 2, 3]]);

        let data = sorted_input(KeyDistribution::Uniform, 4, 300, 5);
        let mut machine = Machine::new(Topology::new(4, 4), hss_sim::CostModel::bluegene_like())
            .with_sync_model(SyncModel::Overlapped);
        let out = run(&mut machine, &data, &config.clone().with_node_level());
        verify_global_sort(&data, &out).unwrap();
    }

    #[test]
    fn clamp_monotone_respects_frozen_neighbours() {
        let frozen = vec![Some(10u64), None, Some(20u64), None];
        assert_eq!(clamp_monotone(5, 1, &frozen), 10);
        assert_eq!(clamp_monotone(25, 1, &frozen), 20);
        assert_eq!(clamp_monotone(15, 1, &frozen), 15);
        assert_eq!(clamp_monotone(3, 3, &frozen), 20);
    }
}
