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
//! (`MPI_Alltoallv` style), and no receive buffer is built.  The finish
//! reads every owner's runs in place out of the senders' buffers: an owner
//! that merges reads them as slices, and a block of neighbouring owners
//! that re-sort copies one span per sender into the buffer it sorts.

use std::ops::Range;

use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_sim::{ExchangePlan, Machine, Phase, Work};

use crate::merge::{finish_arm, resort_owners, FinishArm};
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
/// into its output (`per_rank_sorted` only drives the superstep; the runs
/// come from `received`).  An owner of `total` items for which
/// `in_memory(total)` holds and whose [`finish_arm`] is
/// [`Resort`](FinishArm::Resort) is finished here, by the re-sort; `merge`
/// finishes every other owner.  `merge` gets an owner's runs in sender
/// order, empties included, and returns the merged run and whatever it cost
/// beyond the k-way merge's comparisons, which are charged here; for an
/// owner that `in_memory` admits it must be [`kway_merge_slices`] at no
/// extra cost, so the output and the charges do not depend on which path
/// finished an owner.
///
/// In-place runs are read a block of neighbouring owners at a time, one
/// segment of each sender's plan per block, never by one owner walking a
/// column of `p` plans.  Owners partition the key space in order, so a
/// block of re-sorting owners `first..=last` gets one contiguous sorted
/// span from each sender — `displs[first]..displs[last] + counts[last]` —
/// and is gathered with one copy per sender and re-sorted once
/// ([`resort_owners`]).
///
/// [`kway_merge_slices`]: crate::merge::kway_merge_slices
pub fn merge_received<T: RadixSortable + Send + Sync>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    received: &Received<'_, T>,
    in_memory: impl Fn(usize) -> bool + Sync,
    merge: impl Fn(&[&[T]]) -> (Vec<T>, Work) + Sync,
) -> Vec<Vec<T>> {
    let finish = |runs: &[&[T]]| {
        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
        let (merged, beyond) = merge(runs);
        let total = merged.len();
        (merged, Work::merge(total, pieces.max(1)).and(beyond))
    };
    match received {
        Received::InPlace { bufs, plans } => machine.superstep(
            Phase::Merge,
            &mut vec![(); per_rank_sorted.len()],
            |owners| OwnerChunk::read(bufs, plans, owners, &in_memory),
            |chunk, dst, _| chunk.finish(dst, finish),
        ),
        Received::Owned(_) => machine
            .map_phase(Phase::Merge, per_rank_sorted, |dst, _| finish(&received.runs_at(dst))),
    }
}

/// How many neighbouring owners' run lists [`merge_received`] reads out of
/// the plans together, for the owners that `merge` finishes.
const OWNER_BLOCK: usize = 16;

/// The owners of one chunk of the finish superstep, over in-place runs.
struct OwnerChunk<'a, T> {
    bufs: &'a [Vec<T>],
    plans: &'a [ExchangePlan],
    /// The chunk's owners: no block reads past them.
    owners: Range<usize>,
    /// Per owner of the chunk: items received, non-empty runs, and whether
    /// it re-sorts here.
    totals: Vec<usize>,
    pieces: Vec<usize>,
    resorts: Vec<bool>,
    /// The owners of the block read last, and what each is handed: the
    /// finished output of a re-sorting block, the run lists of a merging
    /// one.
    block: Range<usize>,
    resorted: Vec<Vec<T>>,
    runs: Vec<Vec<&'a [T]>>,
}

impl<'a, T: RadixSortable> OwnerChunk<'a, T> {
    /// The totals of `owners`, read one segment of each sender's plan.
    fn read(
        bufs: &'a [Vec<T>],
        plans: &'a [ExchangePlan],
        owners: Range<usize>,
        in_memory: impl Fn(usize) -> bool,
    ) -> Self {
        let (mut totals, mut pieces) = (vec![0; owners.len()], vec![0; owners.len()]);
        for plan in plans {
            let segment = totals.iter_mut().zip(&mut pieces).zip(&plan.counts[owners.clone()]);
            for ((total, pieces), &count) in segment {
                *total += count;
                *pieces += usize::from(count != 0);
            }
        }
        let resorts = totals
            .iter()
            .zip(&pieces)
            .map(|(&total, &k)| in_memory(total) && finish_arm::<T>(k, total) == FinishArm::Resort)
            .collect();
        Self {
            bufs,
            plans,
            owners,
            totals,
            pieces,
            resorts,
            block: 0..0,
            resorted: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// Owner `dst`'s output and charge, reading the block it starts when
    /// `dst` is not in the current one.
    fn finish(&mut self, dst: usize, merge: impl Fn(&[&[T]]) -> (Vec<T>, Work)) -> (Vec<T>, Work) {
        if !self.block.contains(&dst) {
            self.read_block(dst);
        }
        let (i, j) = (dst - self.block.start, dst - self.owners.start);
        if self.resorts[j] {
            let work = Work::merge(self.totals[j], self.pieces[j]);
            (std::mem::take(&mut self.resorted[i]), work)
        } else {
            merge(&std::mem::take(&mut self.runs[i]))
        }
    }

    /// Read the block starting at owner `first`: the maximal run of
    /// re-sorting owners, gathered and re-sorted at once, or up to
    /// [`OWNER_BLOCK`] others' run lists.
    fn read_block(&mut self, first: usize) {
        let j = first - self.owners.start;
        let resort = self.resorts[j];
        let len = self.resorts[j..].iter().take_while(|&&r| r == resort).count();
        let pairs = self.plans.iter().zip(self.bufs);
        if resort {
            let last = first + len - 1;
            self.block = first..last + 1;
            let spans = pairs
                .map(|(plan, buf)| &buf[plan.displs[first]..plan.displs[last] + plan.counts[last]]);
            self.resorted = resort_owners(spans, &self.totals[j..j + len]);
        } else {
            self.block = first..first + len.min(OWNER_BLOCK);
            self.runs = self.block.clone().map(|_| Vec::with_capacity(self.plans.len())).collect();
            for (plan, buf) in pairs {
                let block = self.block.clone();
                let segment = plan.counts[block.clone()].iter().zip(&plan.displs[block]);
                for (runs, (&count, &displ)) in self.runs.iter_mut().zip(segment) {
                    runs.push(&buf[displ..displ + count]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::kway_merge_slices;
    use crate::select::verify_global_sort;
    use hss_sim::{CostModel, Topology};

    /// Rank buckets: exchange to owner `b = rank b`, then merge in memory.
    fn exchange_and_merge(
        machine: &mut Machine,
        input: &[Vec<u64>],
        splitters: &SplitterSet<u64>,
    ) -> Vec<Vec<u64>> {
        let owner: Vec<usize> = (0..machine.ranks()).collect();
        let received = exchange(machine, input, splitters, &owner);
        let merge = |runs: &[&[u64]]| (kway_merge_slices(runs), Work::none());
        merge_received(machine, input, &received, |_| true, merge)
    }

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
        let out = exchange_and_merge(&mut machine, &input, &splitters);
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
        let a = exchange_and_merge(&mut m1, &input, &splitters);
        let b = exchange_and_merge(&mut m2, &input, &splitters);
        assert_eq!(a, b);
        assert!(
            m2.metrics().phase(Phase::DataExchange).messages
                < m1.metrics().phase(Phase::DataExchange).messages
        );
    }

    #[test]
    #[should_panic(expected = "one owner per bucket")]
    fn wrong_bucket_count_panics() {
        let input = sorted_input(4, 10);
        let splitters = SplitterSet::new(vec![1u64, 2]); // 3 buckets, 4 ranks
        let mut machine = Machine::flat(4);
        let _ = exchange_and_merge(&mut machine, &input, &splitters);
    }

    #[test]
    fn owner_blocks_hand_merge_each_owners_column() {
        use hss_sim::Parallelism;
        // Skewed splitters give each shape owners of many short runs beside
        // a few of long runs; the rank counts straddle the owner block and
        // the superstep's chunks.  The merge charges a digest of the run
        // list it was handed, so sender order and empty runs are pinned as
        // well as the output.
        for p in [1usize, 2, 5, 16, 17, 40, 67] {
            let input = sorted_input(p, 60 + 7 * p);
            let mut all = input.concat();
            all.sort_unstable();
            let splitters =
                SplitterSet::new((1..p).map(|i| all[(i * i * all.len()) / (p * p)]).collect());
            let owner: Vec<usize> = (0..p).collect();
            for parallelism in [Parallelism::Sequential, Parallelism::Rayon] {
                let mut machine = Machine::flat(p).with_parallelism(parallelism);
                let received = exchange(&mut machine, &input, &splitters, &owner);
                let mut reference = Machine::flat(p).with_parallelism(parallelism);
                let _ = exchange(&mut reference, &input, &splitters, &owner);
                let merge = |runs: &[&[u64]]| {
                    let digest = runs.iter().enumerate().map(|(i, r)| (i + 1) * (r.len() + 1));
                    (kway_merge_slices(runs), Work::scan(digest.sum()))
                };
                // No owner finishes in memory: `merge` sees every one.
                let out = merge_received(&mut machine, &input, &received, |_| false, merge);
                let expect = reference.map_phase(Phase::Merge, &input, |dst, _| {
                    let runs = received.runs_at(dst);
                    let pieces = runs.iter().filter(|r| !r.is_empty()).count();
                    let (merged, beyond) = merge(&runs);
                    let work = Work::merge(merged.len(), pieces.max(1)).and(beyond);
                    (merged, work)
                });
                assert_eq!(out, expect, "p = {p}");
                assert_eq!(
                    machine.metrics().deterministic_signature(),
                    reference.metrics().deterministic_signature(),
                    "p = {p}"
                );
            }
        }
    }

    /// Every rank's `n` keys drawn from `n·p / 4` values, so a key has about
    /// four copies and every splitter drawn from the keys equals some.
    fn duplicate_heavy_input(p: usize, n: usize) -> Vec<Vec<u64>> {
        let distinct = (n * p / 4).max(1) as u64;
        let mut input = sorted_input(p, n);
        for rank in &mut input {
            rank.iter_mut().for_each(|x| *x %= distinct);
            rank.sort_unstable();
        }
        input
    }

    /// Splitter sets over every rank's keys (`all`, sorted) that shape the
    /// finish: skewed, so owners of many crumbs sit beside owners of a few
    /// long runs; runs of three equal splitters, so empty owners split the
    /// re-sorting ones and the keys equal to a splitter open the next block;
    /// and one owner of over 16 384 items, which merges, amid re-sorting
    /// neighbours.
    fn finish_shapes(all: &[u64], p: usize) -> Vec<(&'static str, SplitterSet<u64>)> {
        let n = all.len();
        let big = 20_000;
        let at = |position: &dyn Fn(usize) -> usize| {
            SplitterSet::new((1..p).map(|i| all[position(i).min(n - 1)]).collect())
        };
        vec![
            ("skewed", at(&|i| i * i * n / (p * p))),
            ("equal splitters", at(&|i| (i / 3) * 3 * n / p)),
            ("one big owner", at(&|i| i * (n - big) / p + if i > p / 2 { big } else { 0 })),
        ]
    }

    #[test]
    fn resort_blocks_finish_like_each_owner_alone() {
        use hss_sim::Parallelism;
        use std::sync::Mutex;
        // Owners the finish re-sorts in blocks, against each owner merged
        // alone: same output, same charges.  The one-thread machine and
        // pool cut the owners into chunks of p/4, the 4-thread pool into
        // chunks of p/16.  `merge` logs the owners it is handed, which must
        // be exactly those that do not re-sort.
        for p in [1usize, 2, 5, 16, 17, 67, 1024] {
            let input = duplicate_heavy_input(p, 40_000 / p + 40);
            let mut all = input.concat();
            all.sort_unstable();
            let owner: Vec<usize> = (0..p).collect();
            for (shape, splitters) in finish_shapes(&all, p) {
                for threads in [None, Some(1), Some(4)] {
                    let parallelism = match threads {
                        None => Parallelism::Sequential,
                        Some(_) => Parallelism::Rayon,
                    };
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads.unwrap_or(1))
                        .build()
                        .expect("test pool");
                    let case = format!("p = {p}, {shape}, {threads:?} threads");
                    let mut machine = Machine::flat(p).with_parallelism(parallelism);
                    let received = exchange(&mut machine, &input, &splitters, &owner);
                    let handed = Mutex::new(Vec::new());
                    let out = pool.install(|| {
                        merge_received(
                            &mut machine,
                            &input,
                            &received,
                            |_| true,
                            |runs| {
                                let pieces = runs.iter().filter(|r| !r.is_empty()).count();
                                let merged = kway_merge_slices(runs);
                                handed.lock().expect("log").push((merged.len(), pieces));
                                (merged, Work::none())
                            },
                        )
                    });

                    let mut reference = Machine::flat(p).with_parallelism(parallelism);
                    let _ = exchange(&mut reference, &input, &splitters, &owner);
                    let mut merging = Vec::new();
                    let expect = reference.map_phase(Phase::Merge, &input, |dst, _| {
                        let runs = received.runs_at(dst);
                        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
                        let merged = kway_merge_slices(&runs);
                        let work = Work::merge(merged.len(), pieces.max(1));
                        (merged, work)
                    });
                    for dst in 0..p {
                        let runs = received.runs_at(dst);
                        let total = runs.iter().map(|r| r.len()).sum();
                        let pieces = runs.iter().filter(|r| !r.is_empty()).count();
                        if finish_arm::<u64>(pieces, total) != FinishArm::Resort {
                            merging.push((total, pieces));
                        }
                    }

                    assert_eq!(out, expect, "{case}");
                    assert_eq!(
                        machine.metrics().deterministic_signature(),
                        reference.metrics().deterministic_signature(),
                        "{case}"
                    );
                    let mut handed = handed.into_inner().expect("log");
                    handed.sort_unstable();
                    merging.sort_unstable();
                    assert_eq!(handed, merging, "{case}: the owners `merge` finished");
                    if p >= 5 {
                        assert!(merging.len() < p, "{case}: some owners re-sort");
                    }
                    if p >= 5 && shape == "one big owner" {
                        let past_scratch = merging.iter().filter(|&&(total, _)| total > 16_384);
                        assert_eq!(past_scratch.count(), 1, "{case}: the big owner merges");
                    }
                }
            }
        }
    }
}
