//! The data-movement step shared by every splitter-based algorithm:
//! partition local sorted data by the splitters, run the all-to-all
//! exchange, merge the received runs (§2.2 step 3).
//!
//! [`exchange`] moves every bucket to its *owner* rank — rank `b` for
//! rank-level buckets, a node leader for node-level buckets (§6.1) — and
//! hands back what each owner [`Received`]; [`merge_received`] is the
//! rank-level finish.  Whether messages are injected per rank pair or
//! combined per node pair (§6.1.1) is derived from the machine's topology,
//! never passed in: combining is free goodness whenever nodes have several
//! cores.
//!
//! The exchange is flat: each rank's sorted data is its send buffer, an
//! [`hss_sim::ExchangePlan`] of counts/displacements routes its buckets
//! (`MPI_Alltoallv` style), and the finish merges every owner's runs with
//! a slice-based loser tree reading them in place — each element is copied
//! once end to end.

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_sim::{ExchangePlan, Machine, Phase, Work};

use crate::merge::kway_merge_slices;
use crate::splitters::SplitterSet;

/// The exchange representation: there is one, the flat exchange.
/// `benchmark/src/workload.rs` still names it and `benchmark/` is frozen;
/// the next benchmark PR drops that call and this type.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExchangeEngine {
    /// Flat counts/displacements buffers.
    #[default]
    Flat,
}

/// What the owners hold after an exchange.
pub enum Received<'a, T> {
    /// Nothing was materialised: owner `d`'s run from sender `s` is
    /// `plans[s].run(&bufs[s], d)`, read in place out of the senders'
    /// sorted buffers (the monolithic and the staged exchange).
    InPlace {
        /// The senders' sorted data.
        bufs: &'a [Vec<T>],
        /// One plan per sender, addressed by owner rank.
        plans: Vec<ExchangePlan>,
    },
    /// An owned receive matrix, `recv[dst][src]`: what a schedule whose
    /// senders cannot be read in place (a rank draining run files) builds.
    Owned(Vec<Vec<Vec<T>>>),
}

impl<T> Received<'_, T> {
    /// The sorted runs rank `dst` received, as slices in sender order
    /// (empty runs included).
    pub fn runs_at(&self, dst: usize) -> Vec<&[T]> {
        match self {
            Received::InPlace { bufs, plans } => crate::merge::runs_for(plans, bufs, dst),
            Received::Owned(recv) => recv[dst].iter().map(Vec::as_slice).collect(),
        }
    }
}

/// Move every key to the rank that owns its bucket and merge the received
/// sorted runs.  `per_rank_sorted` must be sorted within each rank;
/// `splitters` must define exactly `machine.ranks()` buckets.
///
/// Returns the per-rank output (globally sorted across ranks, sorted within
/// each rank).  Charges the bucketize work, the exchange and the merge to
/// [`Phase::DataExchange`] / [`Phase::Merge`].
pub fn exchange_and_merge_with<T: Keyed + RadixSortable>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    splitters: &SplitterSet<T::K>,
) -> Vec<Vec<T>> {
    assert_eq!(
        splitters.buckets(),
        machine.ranks(),
        "splitter set must define one bucket per rank"
    );
    let owner: Vec<usize> = (0..machine.ranks()).collect();
    let received = exchange(machine, per_rank_sorted, splitters, &owner);
    merge_received(machine, per_rank_sorted, &received, |runs| {
        (kway_merge_slices(runs), Work::none())
    })
}

/// The bucketize work: the classification cost of the strategy
/// `bucket_boundaries` actually executes for this shape (binary search /
/// merge sweep / decision tree — see [`crate::classify::classify_work`])
/// plus a linear pass over the local data (the pack/scan the simulated rank
/// performs to stage its send buffer).
fn bucketize_work<K: hss_keygen::Key>(splitters: &SplitterSet<K>, local_len: usize) -> Work {
    crate::classify::classify_work(local_len, splitters.keys().len()).and(Work::scan(local_len))
}

/// Bucketize every rank's sorted data by `splitters` and run the
/// all-to-all that moves bucket `b` to rank `owner[b]` (the identity map
/// for rank-level buckets, the node leaders for node-level buckets;
/// strictly ascending either way, so each rank's sorted data is its flat
/// send buffer).  Messages are combined per node pair whenever the
/// machine's nodes have several cores.
pub fn exchange<'a, T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &'a [Vec<T>],
    splitters: &SplitterSet<T::K>,
    owner: &[usize],
) -> Received<'a, T> {
    assert_eq!(splitters.buckets(), owner.len(), "one owner per bucket");
    let p = machine.ranks();
    // Plan each rank's buckets as counts/displacements over its sorted
    // data — no per-bucket clones.
    let plans: Vec<ExchangePlan> =
        machine.map_phase(Phase::DataExchange, per_rank_sorted, |_r, local| {
            (
                crate::bucketize::owner_plan::<T>(&splitters.bucket_boundaries(local), owner, p),
                bucketize_work(splitters, local.len()),
            )
        });
    // The sorted data itself is the flat send buffer, and no receive buffer
    // is materialised — the finish reads every owner's runs directly out of
    // the senders' buffers, so each element is copied exactly once end to
    // end.
    if machine.topology().cores_per_node() > 1 {
        machine.all_to_allv_flat_node_combined_in_place::<T>(
            Phase::DataExchange,
            per_rank_sorted,
            &plans,
        );
    } else {
        machine.all_to_allv_flat_in_place::<T>(Phase::DataExchange, per_rank_sorted, &plans);
    }
    Received::InPlace { bufs: per_rank_sorted, plans }
}

/// The rank-level finish: every rank merges the sorted runs it received
/// into its output with `merge` (`per_rank_sorted` only drives the per-rank
/// superstep; the runs come from `received`).  `merge` returns the merged
/// run and whatever it cost beyond the k-way merge's comparisons, which are
/// charged here.
pub fn merge_received<T: Send + Sync>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    received: &Received<'_, T>,
    merge: impl Fn(&[&[T]]) -> (Vec<T>, Work) + Sync,
) -> Vec<Vec<T>> {
    machine.map_phase(Phase::Merge, per_rank_sorted, |dst, _local| {
        let runs = received.runs_at(dst);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
        let (merged, beyond) = merge(&runs);
        (merged, Work::merge(total, pieces.max(1)).and(beyond))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::verify_global_sort;
    use hss_sim::{CostModel, Topology};

    fn sorted_input(p: usize, n: usize) -> Vec<Vec<u64>> {
        // Deterministic pseudo-random per-rank data, locally sorted.
        (0..p)
            .map(|r| {
                let mut v: Vec<u64> = (0..n)
                    .map(|i| ((r * n + i) as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 3)
                    .collect();
                v.sort_unstable();
                v
            })
            .collect()
    }

    #[test]
    fn exchange_produces_global_sort_with_exact_splitters() {
        let p = 8;
        let input = sorted_input(p, 200);
        let splitter_keys = crate::select::exact_splitters(&input, p);
        let splitters = SplitterSet::new(splitter_keys);
        let mut machine = Machine::flat(p);
        let out = exchange_and_merge_with(&mut machine, &input, &splitters);
        verify_global_sort(&input, &out).unwrap();
    }

    #[test]
    fn node_combined_exchange_gives_identical_data() {
        // The topology alone picks the accounting: same data, fewer messages
        // once nodes have several cores.
        let p = 8;
        let input = sorted_input(p, 100);
        let splitters = SplitterSet::new(crate::select::exact_splitters(&input, p));
        let mut m1 = Machine::new(Topology::flat(p), CostModel::bluegene_like());
        let mut m2 = Machine::new(Topology::new(p, 4), CostModel::bluegene_like());
        let a = exchange_and_merge_with(&mut m1, &input, &splitters);
        let b = exchange_and_merge_with(&mut m2, &input, &splitters);
        assert_eq!(a, b);
        assert!(
            m2.metrics().phase(Phase::DataExchange).messages
                < m1.metrics().phase(Phase::DataExchange).messages
        );
    }

    #[test]
    #[should_panic(expected = "one bucket per rank")]
    fn wrong_bucket_count_panics() {
        let input = sorted_input(4, 10);
        let splitters = SplitterSet::new(vec![1u64, 2]); // 3 buckets, 4 ranks
        let mut machine = Machine::flat(4);
        let _ = exchange_and_merge_with(&mut machine, &input, &splitters);
    }
}
