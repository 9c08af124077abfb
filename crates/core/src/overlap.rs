//! Overlapped splitter determination + staged data exchange (§4).
//!
//! The paper's Charm++ implementation overlaps splitter determination with
//! the data movement: as soon as a splitter is finalized its value is
//! broadcast, and as soon as *both* splitters bounding a bucket are known,
//! every rank sends that bucket to its owner — while later histogram rounds
//! are still running.  The receiving rank merges arrived buckets into its
//! final output as they land.
//!
//! This module is the simulator-side reproduction of that pipeline on top
//! of [`SyncModel::Overlapped`](hss_sim::SyncModel):
//!
//! 1. [`determine_splitters_seeded`] runs the normal histogramming rounds; a
//!    round observer *freezes* each splitter the round it finalizes
//!    (clamped monotone against already-frozen neighbours) and broadcasts
//!    the newly frozen keys;
//! 2. every rank locates the new splitters in its sorted data (one binary
//!    search each), which completes the bucket boundaries of every bucket
//!    whose two bounding splitters are now frozen;
//! 3. the completed buckets are injected as an asynchronous exchange stage
//!    ([`Machine::exchange_stage`]): the transfer occupies the senders'
//!    NICs while the next sampling/histogramming
//!    rounds advance the compute clocks — this is where the overlap win
//!    comes from.  Batches smaller than
//!    [`HssConfig::min_stage_fraction`] of the input are deferred so
//!    per-stage latency cannot eat the win;
//! 4. after the last round the remaining buckets travel in a final stage,
//!    each destination waits only for *its own* stage to land
//!    ([`Machine::wait_until`]), and merges its runs in place.
//!
//! Because splitters are frozen at the round they finalize (instead of
//! being re-optimised by later probes), the output partition can differ
//! slightly from the BSP path's — every frozen splitter is still within
//! the `εN/(2p)` finalization tolerance, so the load-balance guarantee is
//! unchanged.  Data-wise the result is a correct global sort either way;
//! `tests/sync_differential.rs` verifies both claims.

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::{merge_runs_for, splitter_position};
use hss_sim::{ExchangePlan, Machine, Phase, Work};

use crate::config::HssConfig;
use crate::multi_round::determine_splitters_seeded;
use crate::report::SplitterReport;
use crate::staging::StagedExchange;

/// Sentinel for a bucket boundary whose splitter is not yet frozen.
const UNKNOWN: usize = usize::MAX;

/// Sort already locally-sorted per-rank data with overlapped splitter
/// determination and a staged exchange.  The counterpart of the BSP path's
/// `determine_splitters` + `exchange_and_merge` pair; requires
/// `machine.ranks()` buckets (rank-level partitioning).
///
/// Returns the globally sorted per-rank output and the splitter report.
///
/// Most callers should not invoke this directly: `HssSorter` (and hence the
/// unified `Sorter`/`SortRequest` entry point) dispatches here when the
/// machine's sync model is `SyncModel::Overlapped`.
pub fn overlapped_exchange_sort<T: Keyed + Ord>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    config: &HssConfig,
) -> (Vec<Vec<T>>, SplitterReport)
where
    T::K: RadixSortable,
{
    let p = machine.ranks();
    if p <= 1 {
        let (_s, report) =
            crate::multi_round::determine_splitters(machine, per_rank_sorted, p.max(1), config);
        return (per_rank_sorted.to_vec(), report);
    }
    let nsplit = p - 1;
    let total_keys: usize = per_rank_sorted.iter().map(|v| v.len()).sum();

    // Frozen splitter keys (set the round each splitter finalizes).
    let mut frozen: Vec<Option<T::K>> = vec![None; nsplit];
    // bounds[r][j] for j in 0..=p: bucket b of rank r is
    // bounds[r][b]..bounds[r][b+1] in r's sorted data.  Interior entries
    // are filled in as splitters freeze.
    let mut bounds: Vec<Vec<usize>> = per_rank_sorted
        .iter()
        .map(|v| {
            let mut b = vec![UNKNOWN; p + 1];
            b[0] = 0;
            b[p] = v.len();
            b
        })
        .collect();
    // Which buckets have already travelled, and when their stage lands.
    let mut stages = StagedExchange::new(p, total_keys, config.min_stage_fraction);

    let (fallback, report) = determine_splitters_seeded(
        machine,
        per_rank_sorted,
        p,
        config,
        None,
        |machine, progress| {
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
        },
    );

    // Early-return paths of determine_splitters (empty input) never invoke
    // the observer: freeze the remaining splitters from the returned set
    // and ship whatever has not travelled yet.
    if frozen.iter().any(|f| f.is_none()) {
        let mut new_pairs: Vec<(usize, T::K)> = Vec::new();
        for i in 0..nsplit {
            if frozen[i].is_none() {
                let key = clamp_monotone(fallback.keys()[i], i, &frozen);
                frozen[i] = Some(key);
                new_pairs.push((i, key));
            }
        }
        locate_splitters(machine, per_rank_sorted, &new_pairs, &mut bounds);
        stage_ready_buckets(machine, per_rank_sorted, &bounds, &mut stages, 0, true);
    }
    debug_assert!(stages.all_staged(), "every bucket must have travelled");

    // Per-rank full plans over the now-complete boundaries; the merge reads
    // every run in place out of the senders' sorted buffers.
    let plans: Vec<ExchangePlan> =
        bounds.iter().map(|b| ExchangePlan::from_boundaries(b)).collect();
    stages.wait_for_arrivals(machine);
    let out = machine.map_phase(Phase::Merge, per_rank_sorted, |dst, _local| {
        let (merged, total, pieces) = merge_runs_for(&plans, per_rank_sorted, dst);
        (merged, Work::merge(total, pieces.max(1)))
    });
    (out, report)
}

/// Clamp a candidate key for splitter `i` against the nearest frozen
/// neighbours so the frozen splitter sequence stays non-decreasing (the
/// invariant the per-rank boundary positions rely on).
fn clamp_monotone<K: hss_keygen::Key>(mut key: K, i: usize, frozen: &[Option<K>]) -> K {
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
    stages: &mut StagedExchange,
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
        |src, dst| bounds[src][dst]..bounds[src][dst + 1],
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
    use hss_keygen::KeyDistribution;
    use hss_partition::verify_global_sort;
    use hss_sim::{Phase, SyncModel};

    fn sorted_input(dist: KeyDistribution, p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = dist.generate_per_rank(p, n, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    #[test]
    fn overlapped_sort_is_a_correct_global_sort() {
        let p = 32;
        for dist in [KeyDistribution::Uniform, KeyDistribution::PowerLaw { gamma: 4.0 }] {
            let data = sorted_input(dist, p, 1_500, 11);
            let mut machine = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
            let (out, report) =
                overlapped_exchange_sort(&mut machine, &data, &HssConfig::default());
            verify_global_sort(&data, &out).unwrap();
            assert!(report.rounds_executed() >= 1);
            // At least one stage actually travelled asynchronously.
            assert!(machine.metrics().phase(Phase::DataExchange).messages > 0);
        }
    }

    #[test]
    fn overlapped_sort_stays_load_balanced() {
        // Frozen splitters are within the finalization tolerance, so the
        // (1 + eps) guarantee carries over to the overlapped partition.
        let p = 32;
        let eps = 0.05;
        let data = sorted_input(KeyDistribution::Uniform, p, 2_000, 7);
        let mut machine = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
        let config = HssConfig { epsilon: eps, ..HssConfig::default() };
        let (out, report) = overlapped_exchange_sort(&mut machine, &data, &config);
        assert!(report.all_finalized);
        let lb = hss_partition::LoadBalance::from_rank_data(&out);
        assert!(lb.satisfies(eps), "imbalance {}", lb.imbalance);
    }

    #[test]
    fn overlapped_makespan_not_above_bsp_total() {
        let p = 32;
        let data = sorted_input(KeyDistribution::PowerLaw { gamma: 5.0 }, p, 4_000, 3);
        let config = HssConfig::default();

        let mut bsp = Machine::flat(p);
        let (splitters, _rep) =
            crate::multi_round::determine_splitters(&mut bsp, &data, p, &config);
        let _ = hss_partition::exchange_and_merge(
            &mut bsp,
            &data,
            &splitters,
            hss_partition::ExchangeMode::RankLevel,
        );

        let mut ovl = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
        let _ = overlapped_exchange_sort(&mut ovl, &data, &config);
        assert!(
            ovl.simulated_time() <= bsp.simulated_time() * 1.001,
            "overlapped {} vs bsp {}",
            ovl.simulated_time(),
            bsp.simulated_time()
        );
    }

    #[test]
    fn empty_input_and_single_rank_work() {
        let data: Vec<Vec<u64>> = vec![vec![]; 4];
        let mut machine = Machine::flat(4).with_sync_model(SyncModel::Overlapped);
        let (out, _rep) = overlapped_exchange_sort(&mut machine, &data, &HssConfig::default());
        assert!(out.iter().all(|v| v.is_empty()));

        let data = vec![vec![3u64, 1, 2]];
        let mut machine = Machine::flat(1).with_sync_model(SyncModel::Overlapped);
        // Input must be locally sorted.
        let data: Vec<Vec<u64>> = data
            .into_iter()
            .map(|mut v| {
                v.sort_unstable();
                v
            })
            .collect();
        let (out, _rep) = overlapped_exchange_sort(&mut machine, &data, &HssConfig::default());
        assert_eq!(out, vec![vec![1, 2, 3]]);
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
