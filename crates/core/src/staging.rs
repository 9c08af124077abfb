//! Staged-exchange bookkeeping shared by the pipeline's two schedules that
//! ship buckets as asynchronous [`ExchangeStage`]s (`pipeline.rs`): the
//! overlapped one (buckets fly as their splitters freeze) and the spilled
//! one (buckets fly in bucket order, as the ranks seal them).

use std::ops::Range;

use hss_sim::{ExchangePlan, ExchangeStage, Machine, Phase};

/// Which buckets have travelled, when each lands at its owner, and the
/// [`HssConfig::min_stage_fraction`](crate::config::HssConfig) gate that
/// keeps per-stage latency from eating the overlap win.
pub(crate) struct StagedExchange<'a> {
    /// `owner[b]` is the rank bucket `b` travels to.
    owner: &'a [usize],
    min_stage_elems: usize,
    staged: Vec<bool>,
    /// Per rank: when the stage carrying its bucket lands.
    arrival: Vec<f64>,
}

impl<'a> StagedExchange<'a> {
    /// Bookkeeping for one bucket per `owner` entry on a machine of `ranks`
    /// ranks holding `total_keys` records overall.
    pub(crate) fn new(
        owner: &'a [usize],
        ranks: usize,
        total_keys: usize,
        min_stage_fraction: f64,
    ) -> Self {
        Self {
            owner,
            min_stage_elems: (min_stage_fraction * total_keys as f64).ceil() as usize,
            staged: vec![false; owner.len()],
            arrival: vec![0.0; ranks],
        }
    }

    /// Whether `bucket` has already travelled (or was found empty).
    pub(crate) fn is_staged(&self, bucket: usize) -> bool {
        self.staged[bucket]
    }

    /// Whether every bucket has travelled.
    pub(crate) fn all_staged(&self) -> bool {
        self.staged.iter().all(|&s| s)
    }

    /// Offer the `ready` (sealed, not yet staged) buckets as one
    /// asynchronous exchange stage.  `run(src, bucket)` is where source
    /// rank `src` holds its records for `bucket`.
    ///
    /// A batch below the minimum stage volume is deferred — left unstaged
    /// for a later, larger batch — unless `force`d.  A zero-volume batch is
    /// marked done without a superstep (arrival `0.0`).  Otherwise `pack`
    /// runs first, with each source's volume in this batch (the sender-side
    /// staging a caller may want to charge), and the stage's landing time
    /// is stamped on every owner in it.  Stages are rank-level messages on
    /// every topology: there is no §6.1.1 per-node combining of a stage.
    pub(crate) fn offer<T>(
        &mut self,
        machine: &mut Machine,
        round: usize,
        ready: &[usize],
        force: bool,
        run: impl Fn(usize, usize) -> Range<usize>,
        pack: impl FnOnce(&mut Machine, &[usize]),
    ) {
        let p = self.arrival.len();
        let per_source: Vec<usize> =
            (0..p).map(|src| ready.iter().map(|&b| run(src, b).len()).sum()).collect();
        let volume: usize = per_source.iter().sum();
        if ready.is_empty() || (!force && volume < self.min_stage_elems) {
            return;
        }
        if volume > 0 {
            pack(machine, &per_source);
            let plans = (0..p)
                .map(|src| {
                    let mut counts = vec![0usize; p];
                    let mut displs = vec![0usize; p];
                    for &b in ready {
                        let range = run(src, b);
                        counts[self.owner[b]] = range.len();
                        displs[self.owner[b]] = range.start;
                    }
                    // Width 0: the stage charges `size_of::<T>()` bytes per
                    // record, so wide records pay their full wire width.
                    ExchangePlan { counts, displs, record_width: 0 }
                })
                .collect();
            let destinations: Vec<usize> = ready.iter().map(|&b| self.owner[b]).collect();
            let stage = ExchangeStage { round, destinations, plans };
            let done = machine.exchange_stage::<T>(Phase::DataExchange, &stage);
            for dst in stage.destinations {
                self.arrival[dst] = done;
            }
        }
        for &b in ready {
            self.staged[b] = true;
        }
    }

    /// Block each owner until its own stage has landed.
    pub(crate) fn wait_for_arrivals(&self, machine: &mut Machine) {
        machine.wait_until(&self.arrival);
    }
}
