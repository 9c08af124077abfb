//! Staged-exchange bookkeeping shared by the two pipelines that ship
//! buckets as asynchronous [`ExchangeStage`]s: the overlapped in-memory
//! sorter (`overlap.rs`, buckets fly as their splitters freeze) and the
//! out-of-core drain (`out_of_core.rs`, buckets fly as the merge cursors
//! seal them).

use std::ops::Range;

use hss_sim::{ExchangePlan, ExchangeStage, Machine, Phase};

/// Which buckets have travelled, when each lands, and the
/// [`HssConfig::min_stage_fraction`](crate::config::HssConfig) gate that
/// keeps per-stage latency from eating the overlap win.
pub(crate) struct StagedExchange {
    min_stage_elems: usize,
    staged: Vec<bool>,
    arrival: Vec<f64>,
}

impl StagedExchange {
    /// Bookkeeping for `ranks` destination buckets holding `total_keys`
    /// records overall.
    pub(crate) fn new(ranks: usize, total_keys: usize, min_stage_fraction: f64) -> Self {
        Self {
            min_stage_elems: (min_stage_fraction * total_keys as f64).ceil() as usize,
            staged: vec![false; ranks],
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
    /// asynchronous exchange stage.  `run(src, dst)` is where source rank
    /// `src` holds its records for bucket `dst`.
    ///
    /// A batch below the minimum stage volume is deferred — left unstaged
    /// for a later, larger batch — unless `force`d.  A zero-volume batch is
    /// marked done without a superstep (arrival `0.0`).  Otherwise `pack`
    /// runs first, with each source's volume in this batch (the sender-side
    /// staging a caller may want to charge), and the stage's landing time
    /// is stamped on every destination in it.
    pub(crate) fn offer<T>(
        &mut self,
        machine: &mut Machine,
        round: usize,
        ready: &[usize],
        force: bool,
        run: impl Fn(usize, usize) -> Range<usize>,
        pack: impl FnOnce(&mut Machine, &[usize]),
    ) {
        let p = self.staged.len();
        let per_source: Vec<usize> =
            (0..p).map(|src| ready.iter().map(|&dst| run(src, dst).len()).sum()).collect();
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
                    for &dst in ready {
                        let range = run(src, dst);
                        counts[dst] = range.len();
                        displs[dst] = range.start;
                    }
                    // Width 0: the stage charges `size_of::<T>()` bytes per
                    // record, so wide records pay their full wire width.
                    ExchangePlan { counts, displs, record_width: 0 }
                })
                .collect();
            let stage = ExchangeStage { round, destinations: ready.to_vec(), plans };
            let done = machine.exchange_stage::<T>(Phase::DataExchange, &stage);
            for &dst in ready {
                self.arrival[dst] = done;
            }
        }
        for &dst in ready {
            self.staged[dst] = true;
        }
    }

    /// Block each destination until its own stage has landed.
    pub(crate) fn wait_for_arrivals(&self, machine: &mut Machine) {
        machine.wait_until(&self.arrival);
    }
}
