//! Flat exchange plans: the counts/displacements representation of an
//! irregular all-to-all, modelled on `MPI_Alltoallv`.
//!
//! An [`ExchangePlan`] describes how one *contiguous* per-rank buffer is
//! split across destinations: `counts[d]` elements starting at `displs[d]`
//! go to rank `d`.  The sender's buffer is typically its locally sorted
//! data itself, so building a plan allocates two `usize` vectors and copies
//! nothing — no `p²` per-destination buffers, no copy of the input.
//!
//! [`Machine::all_to_allv_flat`](crate::machine::Machine::all_to_allv_flat)
//! consumes one buffer + plan per rank and returns one [`FlatRecv`] per
//! rank: a single contiguous receive buffer plus the plan describing where
//! each source's run lives inside it.

use serde::{Deserialize, Serialize};

/// Counts and displacements describing how a contiguous buffer is split
/// across `counts.len()` peers (`MPI_Alltoallv` style).
///
/// Invariant: `displs[i] = counts[0] + … + counts[i-1]`, i.e. the runs are
/// contiguous and in peer order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExchangePlan {
    /// Elements destined for (or received from) each peer.
    pub counts: Vec<usize>,
    /// Offset of each peer's run inside the flat buffer.
    pub displs: Vec<usize>,
    /// Declared width in **bytes** of one exchanged record, consumed by the
    /// α-β cost accounting so β-volume scales with item size (a 100-byte
    /// terasort record charges 12.5× the volume of a `u64` key).  `0` (the
    /// constructor default) means "derive from the element type at charge
    /// time" (`size_of::<U>()`); set an explicit width with
    /// [`Self::with_record_width`] to model a wire format that differs from
    /// the in-memory layout.
    pub record_width: usize,
}

impl ExchangePlan {
    /// Build a plan from per-peer counts; displacements are the exclusive
    /// prefix sums.
    pub fn from_counts(counts: Vec<usize>) -> Self {
        let mut displs = Vec::with_capacity(counts.len());
        let mut acc = 0usize;
        for &c in &counts {
            displs.push(acc);
            acc += c;
        }
        Self { counts, displs, record_width: 0 }
    }

    /// Build a plan from `peers + 1` monotone boundaries (`bounds[i]` is
    /// where peer `i`'s run starts, `bounds[peers]` the total length) — the
    /// shape produced by bucketizing sorted data by splitters.
    pub fn from_boundaries(bounds: &[usize]) -> Self {
        assert!(!bounds.is_empty(), "boundaries need at least one entry");
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "boundaries must be monotone");
        let counts = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let displs = bounds[..bounds.len() - 1].to_vec();
        Self { counts, displs, record_width: 0 }
    }

    /// Declare the wire width (bytes) of one exchanged record; see
    /// [`Self::record_width`].
    pub fn with_record_width(mut self, bytes: usize) -> Self {
        self.record_width = bytes;
        self
    }

    /// Number of peers the plan addresses.
    pub fn peers(&self) -> usize {
        self.counts.len()
    }

    /// Whether the plan addresses no peers at all.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total number of elements covered by the plan.
    pub fn total_elems(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The index range of peer `i`'s run inside the flat buffer.
    pub fn run_range(&self, i: usize) -> std::ops::Range<usize> {
        self.displs[i]..self.displs[i] + self.counts[i]
    }

    /// Peer `i`'s run as a sub-slice of `data`.
    pub fn run<'a, T>(&self, data: &'a [T], i: usize) -> &'a [T] {
        &data[self.run_range(i)]
    }

    /// Iterate over all runs of `data`, in peer order (including empty
    /// ones).
    pub fn runs<'a, 'b: 'a, T>(&'b self, data: &'a [T]) -> impl Iterator<Item = &'a [T]> + 'a {
        (0..self.peers()).map(move |i| self.run(data, i))
    }

    /// Number of peers with a non-empty run.
    pub fn nonempty_runs(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

/// One stage of a *staged* all-to-allv: the subset of destination ranks
/// whose buckets are ready, plus one plan per source rank locating those
/// buckets inside the source's full send buffer.
///
/// Unlike a full [`ExchangePlan`], a stage plan's counts are zero for every
/// destination outside [`ExchangeStage::destinations`] and its
/// displacements point at the bucket runs inside the (larger) sorted send
/// buffer, so they are *not* prefix sums of the counts and the counts do
/// not cover the whole buffer.  The union of all stages of one exchange
/// tiles each send buffer exactly once.
///
/// Stages exist so splitter determination can overlap the data exchange
/// (§4): as soon as a bucket's two bounding splitters are finalized, the
/// bucket is injected as part of a stage while later histogram rounds are
/// still running ([`Machine::exchange_stage`](crate::machine::Machine::exchange_stage)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeStage {
    /// Histogramming round after which this stage was injected (1-based;
    /// 0 for a stage not tied to a round).
    pub round: usize,
    /// Destination ranks whose buckets travel in this stage.
    pub destinations: Vec<usize>,
    /// Per-source counts/displacements into each source's send buffer.
    pub plans: Vec<ExchangePlan>,
}

impl ExchangeStage {
    /// Total number of elements moved by this stage (all sources).
    pub fn total_elems(&self) -> usize {
        self.plans.iter().map(|p| p.total_elems()).sum()
    }

    /// Whether the stage moves nothing at all.
    pub fn is_empty(&self) -> bool {
        self.destinations.is_empty() || self.total_elems() == 0
    }
}

/// One rank's result of a flat all-to-all: a contiguous receive buffer plus
/// the plan locating each source rank's run inside it (`plan.counts[s]`
/// elements from source `s` at `plan.displs[s]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRecv<U> {
    /// All received elements, grouped by source rank in rank order.
    pub data: Vec<U>,
    /// Where each source's run lives inside `data`.
    pub plan: ExchangePlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_counts_prefix_sums() {
        let p = ExchangePlan::from_counts(vec![2, 0, 3, 1]);
        assert_eq!(p.displs, vec![0, 2, 2, 5]);
        assert_eq!(p.total_elems(), 6);
        assert_eq!(p.nonempty_runs(), 3);
        assert_eq!(p.run_range(2), 2..5);
    }

    #[test]
    fn from_boundaries_matches_from_counts() {
        let a = ExchangePlan::from_boundaries(&[0, 2, 2, 5, 6]);
        let b = ExchangePlan::from_counts(vec![2, 0, 3, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn runs_slice_the_buffer() {
        let plan = ExchangePlan::from_counts(vec![1, 2, 0]);
        let data = [10u64, 20, 21];
        let runs: Vec<&[u64]> = plan.runs(&data).collect();
        assert_eq!(runs, vec![&[10u64][..], &[20, 21][..], &[][..]]);
    }

    #[test]
    fn exchange_stage_totals_and_emptiness() {
        // Two sources, stage covering destination 1 only: source plans have
        // zero counts elsewhere and displacements at the bucket positions.
        let stage = ExchangeStage {
            round: 2,
            destinations: vec![1],
            plans: vec![
                ExchangePlan { counts: vec![0, 3, 0], displs: vec![0, 4, 0], record_width: 0 },
                ExchangePlan { counts: vec![0, 2, 0], displs: vec![0, 1, 0], record_width: 0 },
            ],
        };
        assert_eq!(stage.total_elems(), 5);
        assert!(!stage.is_empty());
        let empty = ExchangeStage { round: 0, destinations: vec![], plans: vec![] };
        assert!(empty.is_empty());
    }

    #[test]
    fn record_width_defaults_to_type_derived() {
        assert_eq!(ExchangePlan::from_counts(vec![1, 2]).record_width, 0);
        assert_eq!(ExchangePlan::from_boundaries(&[0, 3]).record_width, 0);
        let p = ExchangePlan::from_counts(vec![1, 2]).with_record_width(100);
        assert_eq!(p.record_width, 100);
        assert_eq!(p.counts, vec![1, 2]);
    }

    #[test]
    fn empty_plan() {
        let p = ExchangePlan::from_counts(Vec::new());
        assert!(p.is_empty());
        assert_eq!(p.total_elems(), 0);
        assert_eq!(p.nonempty_runs(), 0);
    }
}
