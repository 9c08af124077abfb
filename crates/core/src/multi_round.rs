//! Multi-round splitter determination — the core of Histogram Sort with
//! Sampling (§3.3).
//!
//! Every round consists of a *sampling phase* (each key inside the open
//! splitter intervals is picked with a round-specific probability — Sampling
//! Method 1), a gather of the sample at the root, a broadcast of the sorted
//! sample as histogram probes, a *histogramming phase* (local rank counts +
//! global reduction) and an update of the per-splitter bracketing intervals
//! (`L_j(i)`, `U_j(i)`).  Because later rounds only sample from the — ever
//! shrinking — splitter intervals, the total sample stays tiny
//! (Theorems 3.3.1–3.3.4).
//!
//! On the host a histogramming phase is one fused superstep: the driver
//! checks and indexes the round's probes once, and the simulated ranks count
//! into shared accumulators — `O(N + workers·m)` host work per round where
//! `p` private indexes and rank vectors were `O(p·m)`.  The simulated charge
//! is still what a real rank does (its own index, its own `m`-word vector
//! into the reduction).
//!
//! # Windows
//!
//! A round's *windows* ([`Windows`]) are the key ranges it samples from:
//! the whole key space in round 1, the merged open splitter intervals
//! after it, each with the global rank of its lower bound (which the
//! interval bookkeeping already holds).  After round 1 a rank works only
//! inside them:
//!
//! * **sampling** — the rank finds each window's index range once, and the
//!   round's one [`BernoulliDraw`] draws positions over the ranges in
//!   order ([`WindowSample`]); the rank reads the keys at them and keeps
//!   the ranges it holds keys in ([`WindowSpan`]);
//! * **histogramming** — every probe lies in a window, so a rank counts only
//!   its keys inside the windows, each window by the classification arm of
//!   its own shape, and a probe's global rank is its window's rank-below
//!   plus the window's keys below it.  At `p = 1024` the windows hold about
//!   a third of a rank's keys in round 2 and a twentieth in round 3.
//!
//! Ranking arbitrary probes ([`exact_ranks`]: the warm start, the classic
//! histogram-sort baseline) is the one-window case.  Positions, samples,
//! ranks and RNG draws are those of the full-rank rounds, bit for bit.  So
//! are the charges: a rank is still charged for finding every window's
//! bounds ([`sampling::interval_bounds_work`]) and for classifying all its
//! keys against all the probes ([`local_ranks_work`]) — what the model
//! says a rank of the paper's algorithm costs.  Re-deriving those charges
//! belongs to the model's calibration, not to a host speed-up.

use hss_keygen::{rank_rng, Key, Keyed};
use hss_lsort::RadixSortable;
use hss_partition::{
    local_ranks_work, sampling, splitter_position, BernoulliDraw, ProbeIndex, SplitterIntervals,
    SplitterSet, WindowSample, WindowSpan, Windows,
};
use hss_sim::{CostModel, Machine, Phase, RankId, Work};

use crate::approx_histogram::ApproxHistogrammer;
use crate::config::{HssConfig, RoundSchedule, SplitterRule};
use crate::report::SplitterReport;
use crate::scanning;
use crate::theory;

/// What one histogramming round left behind, as seen by a round observer
/// (see [`determine_splitters_seeded`]).
///
/// The observer reads the interval bookkeeping directly — in particular
/// which splitters are newly finalized
/// ([`SplitterIntervals::is_finalized`]) and their current best keys
/// ([`SplitterIntervals::best_splitter_key`]) — and may run additional
/// supersteps against the machine (broadcast frozen splitters, bucketize,
/// inject an exchange stage).  This is the hook the overlapped sorter uses
/// to start the data exchange while later rounds are still running (§4).
pub struct RoundProgress<'a, K: Key> {
    /// 1-based index of the round that just completed.
    pub round: usize,
    /// The interval bookkeeping after this round's update.
    pub intervals: &'a SplitterIntervals<K>,
    /// The finalization tolerance in ranks (`εN/(2·buckets)`, widened for
    /// approximate histograms).
    pub tolerance: u64,
    /// Whether this was the final round (no further sampling or
    /// histogramming supersteps follow; the splitter broadcast does).
    pub is_last: bool,
    /// This round's histogram probes (sorted, deduplicated).  Observers that
    /// accumulate these across rounds can build a dense [`WarmStart`] for a
    /// later re-sort of a similar keyspace.
    pub probes: &'a [K],
    /// The probes' global ranks (non-decreasing, one per probe).
    pub ranks: &'a [u64],
}

/// Carry-over splitter state from a previous sort of a near-identical
/// keyspace, used to *warm-start* splitter determination.
///
/// The epoch service builds one of these from every probe an epoch ranked
/// ([`WarmStart::from_probes`]) and feeds it to the next epoch's
/// [`determine_splitters_seeded`] call.  The carried keys are re-ranked
/// against the new keyspace in a probe-only first round (no sampling, so
/// `RoundStats::sample_size` is 0 for that round); when the distribution is
/// near-stationary the old splitters land within tolerance of the new
/// targets immediately and the algorithm finalizes in one or two rounds
/// instead of the cold-start count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmStart<K: Key> {
    probes: Vec<K>,
}

impl<K: Key> WarmStart<K> {
    /// Build from an explicit probe set (sorted and deduplicated here).
    pub fn from_probes(mut probes: Vec<K>) -> Self {
        probes.sort_unstable();
        probes.dedup();
        Self { probes }
    }

    /// The carry-over probe keys, sorted and deduplicated.
    pub fn probes(&self) -> &[K] {
        &self.probes
    }

    /// Whether there is anything to seed from (an empty warm start behaves
    /// exactly like a cold start).
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }
}

/// Determine `buckets − 1` splitters over the per-rank *sorted* data using
/// Histogram Sort with Sampling.
///
/// Returns the splitter set plus a [`SplitterReport`] describing every
/// round (sample sizes, interval shrinkage, finalization).  All sampling
/// randomness derives from `config.seed`, so runs are reproducible.
///
/// `buckets` is `p` for flat partitioning or the node count `n` for the
/// node-level optimisation (§6.1.1).
pub fn determine_splitters<T: Keyed>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    buckets: usize,
    config: &HssConfig,
) -> (SplitterSet<T::K>, SplitterReport)
where
    T::K: RadixSortable,
{
    determine_splitters_seeded(machine, per_rank_sorted, buckets, config, None, |_, _| {})
}

/// [`determine_splitters`] with a round observer and an optional
/// [`WarmStart`].
///
/// `on_round` is invoked after every histogramming round's interval update
/// (and bookkeeping), with machine access so it can charge additional
/// supersteps — the hook the overlapped sorter builds on.  With a no-op
/// observer and `warm: None` (or an empty warm start) this is *exactly*
/// [`determine_splitters`] — same supersteps, same charges, bitwise —
/// which is what keeps the [`SyncModel::Bsp`](hss_sim::SyncModel) cost
/// signature identical to the historical accounting.
///
/// With a non-empty warm start, round 1 becomes a **probe-only** round: the
/// carried keys are broadcast and ranked against the new keyspace (charged
/// like any histogramming round) but no sampling happens
/// (`RoundStats::sample_size == 0`), and the sampling loop then continues
/// from round 2 drawing only from the still-open intervals.  Counting the
/// probe pass as a round keeps round counts comparable between warm and
/// cold runs; note that under a fixed [`RoundSchedule`] it therefore
/// consumes one scheduled round.
pub fn determine_splitters_seeded<T: Keyed, F>(
    machine: &mut Machine,
    per_rank_sorted: &[Vec<T>],
    buckets: usize,
    config: &HssConfig,
    warm: Option<&WarmStart<T::K>>,
    on_round: F,
) -> (SplitterSet<T::K>, SplitterReport)
where
    T::K: RadixSortable,
    F: FnMut(&mut Machine, &RoundProgress<'_, T::K>),
{
    let mut sources: Vec<&[T]> = per_rank_sorted.iter().map(Vec::as_slice).collect();
    let mut sources: Vec<&mut &[T]> = sources.iter_mut().collect();
    HssRounds { config, warm }.splitters(machine, &mut sources, buckets, on_round)
}

/// How the pipeline finds its splitters — the one axis of a sort a caller
/// chooses ([`HssSorter::with_splitters`](crate::HssSorter::with_splitters));
/// granularity, schedule and residency stay derived.  HSS is one policy;
/// `hss-baselines` implements sample sort, classic histogram sort and
/// over-partitioning on their configuration types.
pub trait SplitterPolicy<K: Key> {
    /// Determine `buckets − 1` splitters over the per-rank sorted
    /// `sources`, then broadcast them ([`Phase::SplitterBroadcast`]), the
    /// last superstep before the data moves.  A policy that runs
    /// histogramming rounds calls `on_round` after each; the overlapped
    /// schedule ships buckets from it.  A policy that never calls it has its
    /// buckets moved in one exchange under every schedule.
    fn splitters<S, F>(
        &self,
        machine: &mut Machine,
        sources: &mut [&mut S],
        buckets: usize,
        on_round: F,
    ) -> (SplitterSet<K>, SplitterReport)
    where
        S: SortedSource<K> + ?Sized,
        F: FnMut(&mut Machine, &RoundProgress<'_, K>);
}

pub(crate) mod sealed {
    /// Keeps [`SortedSource`](super::SortedSource) implemented in this crate.
    pub trait Sealed {}
}

/// One rank's locally sorted data, from the first sample to the last sealed
/// bucket: a sorted slice in memory, or the out-of-core tier's spilled run
/// files.  *Where the data lives* is all an implementation decides.
/// Sealed: the two residencies are this crate's, and policies outside it
/// reach a source only through [`sample_at`], [`exact_ranks`] and
/// [`key_extent`].
///
/// **Probe half** — a [`SplitterPolicy`] owns the supersteps, the charges
/// and the RNG; sources only ever see the index positions it drew, so the
/// chosen splitters (and therefore the output) cannot depend on which
/// ranks spilled.  HSS asks in *windows* (see the module docs): a source
/// reports each window's index range to the round's [`WindowSample`] and
/// reads the keys it draws, then counts its keys inside the windows
/// against the round's probes.  A resident slice sweeps its keys for the
/// ranges and counts the window keys; a spilled store answers both from
/// the run-file queries it always ran — a window's bounds and then its
/// drawn keys, window by window, and every probe's rank, less the window
/// start — so its disk reads, and their charges, stay what they were.
///
/// **Drain half** — once the splitters are known the pipeline opens every
/// rank's drain and seals the buckets front to back.  A resident slice cuts
/// itself at the splitter positions; a spilled store pulls its merge cursor
/// up to each splitter.  Both cut at `partition_point(key < bound)`.
///
/// Object safe, so that resident and spilled ranks can sit side by side.
pub trait SortedSource<K: Key>: sealed::Sealed + Send {
    /// The records this source holds.
    type Item: Keyed<K = K>;

    /// Number of local records (asked before the first bucket is sealed).
    fn len(&self) -> usize;

    /// Whether the rank holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sample a round's `windows` (disjoint, sorted, inclusive key ranges):
    /// find each window's index range in the sorted data
    /// (`hss_partition::interval_bounds` semantics) and hand it to
    /// `sample`, in window order, which draws the window's positions;
    /// return the keys at every drawn position.
    fn sample_windows(&mut self, windows: &[(K, K)], sample: &mut WindowSample<'_>) -> Vec<K>;

    /// Add this rank's in-window counts for one histogramming round to the
    /// round's shared accumulator (`probes.len() + 1` slots), for the
    /// windows the rank holds keys in (`spans`, from its sample):
    /// [`ProbeIndex::add_window_counts`] semantics.
    fn add_window_counts(
        &mut self,
        probes: &ProbeIndex<'_, K>,
        spans: &[WindowSpan],
        counts: &mut [u64],
    );

    /// The keys at the given positions of the sorted data.
    fn keys_at(&mut self, positions: &[u64]) -> Vec<K>;

    /// The disk traffic the queries since the previous call caused, as a
    /// charge for the superstep that ran them (none unless spilled).
    fn take_disk_work(&mut self) -> Work {
        Work::none()
    }

    /// End the probes and open the drain, returning what that cost (nothing
    /// unless spilled).
    fn open_drain(&mut self) -> Work {
        Work::none()
    }

    /// Seal the next bucket: remove and return the remaining records with
    /// keys below `bound` (everything that is left for `None`), and the
    /// work of cutting them off.
    fn seal_below(&mut self, bound: Option<K>) -> (Vec<Self::Item>, Work);
}

/// One rank's sorted data wherever it lives: what a machine holds per rank
/// once its ranks differ in residency.
pub(crate) type RankStore<'a, T> = Box<dyn SortedSource<<T as Keyed>::K, Item = T> + 'a>;

impl<T: Keyed> sealed::Sealed for &[T] {}

impl<T: Keyed> SortedSource<T::K> for &[T] {
    type Item = T;

    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn sample_windows(
        &mut self,
        windows: &[(T::K, T::K)],
        sample: &mut WindowSample<'_>,
    ) -> Vec<T::K> {
        for (window, (start, end)) in
            sampling::interval_bounds(self, windows).into_iter().enumerate()
        {
            sample.window(window, start, end);
        }
        self.keys_at(sample.positions())
    }

    fn add_window_counts(
        &mut self,
        probes: &ProbeIndex<'_, T::K>,
        spans: &[WindowSpan],
        counts: &mut [u64],
    ) {
        probes.add_window_counts(self, spans, counts);
    }

    fn keys_at(&mut self, positions: &[u64]) -> Vec<T::K> {
        positions.iter().map(|&i| self[i as usize].key()).collect()
    }

    fn seal_below(&mut self, bound: Option<T::K>) -> (Vec<T>, Work) {
        // The slice is its own cursor: what is left of it is undrained.
        let cut = bound.map_or(self.len(), |b| splitter_position(self, b));
        let work = Work::binary_search(1, self.len().max(1)).and(Work::scan(cut));
        let (bucket, rest) = self.split_at(cut);
        *self = rest;
        (bucket.to_vec(), work)
    }
}

/// One positioned-sampling superstep ([`Phase::Sampling`]): every rank
/// returns the keys at the positions `positions(rank, len)` picks among its
/// `len` sorted records, charged one scan step per key plus whatever disk
/// traffic reading them took.  The positions depend only on `(rank, len)`,
/// so a spilled rank draws the sample a resident rank would.
pub fn sample_at<K, S>(
    machine: &mut Machine,
    sources: &mut [&mut S],
    positions: impl Fn(RankId, usize) -> Vec<u64> + Sync,
) -> Vec<Vec<K>>
where
    K: Key,
    S: SortedSource<K> + ?Sized,
{
    machine.map_phase_mut(Phase::Sampling, sources, |rank, source| {
        let keys = source.keys_at(&positions(rank, source.len()));
        let work = Work::scan(keys.len()).and(source.take_disk_work());
        (keys, work)
    })
}

/// The exact global ranks of the sorted `probes` (keys strictly below
/// each): one fused [`Machine::histogram_phase_mut`] over one
/// [`ProbeIndex`], charged to [`Phase::Histogramming`] — the one-window
/// case of a windowed round.
pub fn exact_ranks<K, S>(machine: &mut Machine, sources: &mut [&mut S], probes: &[K]) -> Vec<u64>
where
    K: Key,
    S: SortedSource<K> + ?Sized,
{
    let spans = whole_spans(sources);
    window_ranks(machine, sources, probes, &Windows::whole(), &spans)
}

/// Every rank's span of the one window of [`Windows::whole`].
fn whole_spans<K: Key, S: SortedSource<K> + ?Sized>(sources: &[&mut S]) -> Vec<Vec<WindowSpan>> {
    sources.iter().map(|source| WindowSpan::whole(source.len()).into_iter().collect()).collect()
}

/// The exact global ranks of the sorted `probes`, each inside one of the
/// round's `windows`, counting only the keys of every rank's `spans` there.
fn window_ranks<K, S>(
    machine: &mut Machine,
    sources: &mut [&mut S],
    probes: &[K],
    windows: &Windows<K>,
    spans: &[Vec<WindowSpan>],
) -> Vec<u64>
where
    K: Key,
    S: SortedSource<K> + ?Sized,
{
    let index = ProbeIndex::windowed(probes, windows);
    let prefix = machine.histogram_phase_mut(
        Phase::Histogramming,
        sources,
        probes.len(),
        |rank, source, counts| {
            source.add_window_counts(&index, &spans[rank], counts);
            local_ranks_work(source.len(), probes.len()).and(source.take_disk_work())
        },
    );
    index.ranks_from_prefix(prefix)
}

/// The smallest and the largest key over every rank, `None` if no rank
/// holds one.  Read outside any superstep and charged nothing here: a
/// spilled rank's two reads join the disk charge of its next superstep.
pub fn key_extent<K, S>(sources: &mut [&mut S]) -> Option<(K, K)>
where
    K: Key,
    S: SortedSource<K> + ?Sized,
{
    sources
        .iter_mut()
        .filter(|source| !source.is_empty())
        .map(|source| {
            let ends = source.keys_at(&[0, source.len() as u64 - 1]);
            (ends[0], ends[1])
        })
        .reduce(|(lo, hi), (first, last)| (lo.min(first), hi.max(last)))
}

/// Rank a sorted probe set, every probe inside one of the round's
/// `windows`, against the input: exactly, counting the keys of every
/// rank's `spans` ([`exact_ranks`] is the one-window case), or by the §3.4
/// representative-sample oracle's estimates.
fn ranked<K, S>(
    machine: &mut Machine,
    sources: &mut [&mut S],
    oracle: &Option<ApproxHistogrammer<K>>,
    probes: &[K],
    windows: &Windows<K>,
    spans: &[Vec<WindowSpan>],
    total_keys: u64,
) -> Vec<u64>
where
    K: Key + RadixSortable,
    S: SortedSource<K> + ?Sized,
{
    match oracle {
        Some(oracle) => {
            let estimates = oracle.estimated_global_ranks(machine, probes);
            // Round, clamp to the valid rank range and force the
            // sequence non-decreasing (fixed-point rounding can create
            // one-off inversions on equal estimates).
            let mut prev = 0u64;
            estimates
                .into_iter()
                .map(|x| {
                    let mut r = x.clamp(0.0, total_keys as f64) as u64;
                    if r < prev {
                        r = prev;
                    }
                    prev = r;
                    r
                })
                .collect()
        }
        None => window_ranks(machine, sources, probes, windows, spans),
    }
}

/// HSS's splitter policy (§3.3), as the HSS-only fields of `config`
/// describe it, warm-started from `warm` if given.  Over slices this is
/// bitwise the historical algorithm; the out-of-core tier feeds it its rank
/// stores, so splitters come straight from run files without materializing
/// the sorted array.
pub(crate) struct HssRounds<'a, K: Key> {
    pub(crate) config: &'a HssConfig,
    pub(crate) warm: Option<&'a WarmStart<K>>,
}

impl<K: Key + RadixSortable> SplitterPolicy<K> for HssRounds<'_, K> {
    fn splitters<S, F>(
        &self,
        machine: &mut Machine,
        sources: &mut [&mut S],
        buckets: usize,
        mut on_round: F,
    ) -> (SplitterSet<K>, SplitterReport)
    where
        S: SortedSource<K> + ?Sized,
        F: FnMut(&mut Machine, &RoundProgress<'_, K>),
    {
        let Self { config, warm } = *self;
        config.validate().expect("invalid HSS configuration");
        assert!(buckets >= 1, "need at least one bucket");
        let total_keys: u64 = sources.iter().map(|s| s.len() as u64).sum();
        // With approximate histograms (§3.4) every reported rank can be off by
        // up to εN/p ≈ 2·tol, so the finalization tolerance is widened
        // accordingly (the paper makes the same observation: a key reported
        // within εN/p of the target is truly within 2εN/p).
        let base_tolerance = theory::rank_tolerance(total_keys, buckets, config.epsilon);
        let tolerance =
            if config.approximate_histograms { base_tolerance * 3 } else { base_tolerance };
        let mut intervals: SplitterIntervals<K> = SplitterIntervals::new(total_keys, buckets);
        let mut report = SplitterReport {
            buckets,
            total_keys,
            tolerance,
            rounds: Vec::new(),
            total_sample_size: 0,
            all_finalized: buckets <= 1,
        };

        if buckets <= 1 || total_keys == 0 {
            // Nothing to split.
            let keys = if buckets <= 1 { Vec::new() } else { intervals.best_splitter_keys() };
            return (SplitterSet::new(keys), report);
        }

        // Per-round sampling probabilities are derived from the schedule.
        let plan = RoundPlan::new(&config.schedule, buckets, config.epsilon);

        // Optional §3.4 speed-up: answer every histogram round from a per-rank
        // representative sample instead of the full local data.  The ranks it
        // returns are within εN/p of the truth w.h.p. (Theorem 3.4.1), so the
        // achieved load balance degrades from (1 + ε) to roughly (1 + 2ε).
        let rank_oracle = config.approximate_histograms.then(|| {
            let sample_size = ApproxHistogrammer::<K>::prescribed_sample_size(
                machine.ranks().max(2),
                config.epsilon,
            );
            ApproxHistogrammer::build_from(machine, sources, sample_size, config.seed ^ 0xA44A_1970)
        });

        // Keep the probes of the last round around for the scanning rule.
        #[allow(unused_assignments)]
        let mut last_round: Option<(Vec<K>, Vec<u64>)> = None;

        let mut round = 0usize;
        let mut finished = false;

        // --- Warm-started probe-only round ----------------------------------
        // The previous epoch's interval bounds are broadcast and re-ranked
        // against the new keyspace; no sampling happens.  Near-stationary
        // distributions collapse every open interval right here.
        if let Some(warm) = warm.filter(|w| !w.is_empty()) {
            round = 1;
            let open_before = intervals.unfinalized_count(tolerance);
            let probes = warm.probes().to_vec();
            machine.broadcast(Phase::Histogramming, &probes);
            let (whole, spans) = (Windows::whole(), whole_spans(sources));
            let ranks = ranked(machine, sources, &rank_oracle, &probes, &whole, &spans, total_keys);
            intervals.update(&probes, &ranks);
            let open_after = report.record_round(&intervals, round, 0, probes.len(), open_before);
            finished = plan.is_done(round, open_after);
            on_round(
                machine,
                &RoundProgress {
                    round,
                    intervals: &intervals,
                    tolerance,
                    is_last: finished,
                    probes: &probes,
                    ranks: &ranks,
                },
            );
            last_round = Some((probes, ranks));
        }

        while !finished {
            round += 1;
            let open_before = intervals.unfinalized_count(tolerance);

            // The windows the round samples and histograms: the whole key
            // space in round 1, the open splitter intervals afterwards.
            let windows: Windows<K> = if round == 1 {
                Windows::whole()
            } else {
                intervals.open_windows(tolerance, config.local_sort)
            };
            // Number of input keys those ranges cover (G_{j-1}); exact because
            // the interval bookkeeping tracks ranks.
            let covered_keys =
                if round == 1 { total_keys } else { intervals.union_rank_size(tolerance) };

            let draw = BernoulliDraw::new(plan.probability(round, total_keys, covered_keys));

            // --- Sampling phase -------------------------------------------------
            let seed = config.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let sampled = machine.map_phase_mut(Phase::Sampling, sources, |rank, source| {
                // Sampling Method 1: geometric-skip Bernoulli draws over each
                // window's index range.
                let held = windows.len().min(source.len());
                let mut sample = WindowSample::new(&draw, rank_rng(seed, rank), held);
                let keys = source.sample_windows(&windows.bounds, &mut sample);
                // Charge the strategy `interval_bounds` actually executes for
                // this shape (binary search / sweep / decision tree) plus the
                // geometric-skip draw per emitted sample.
                let work = sampling::interval_bounds_work(source.len(), windows.len())
                    .and(Work::scan(keys.len()));
                ((keys, sample.into_spans()), work.and(source.take_disk_work()))
            });
            let (per_rank_samples, spans): (Vec<Vec<K>>, Vec<Vec<WindowSpan>>) =
                sampled.into_iter().unzip();

            // Gather the sample at the central processor and sort it there.
            // The root's sort of the gathered sample is part of the *sampling*
            // step (it prepares the probes), not of histogramming; it sorts the
            // full pre-dedup sample.  The host runs the configured local-sort
            // algorithm, while the charge stays the comparison-model term —
            // sample sorts are part of the splitter-determination cost the
            // paper compares across algorithms, and they are asymptotically
            // tiny (see the cost convention in `crate::local_sort`).
            let mut probes: Vec<K> = machine.gather_to_root(Phase::Sampling, per_rank_samples);
            let sample_size = probes.len();
            let ops = CostModel::sort_ops(sample_size as u64);
            machine.modelled_step(
                Phase::Sampling,
                std::slice::from_mut(&mut probes),
                |_, probes| {
                    config.local_sort.sort_slice(probes);
                    probes.dedup();
                    ((), ops)
                },
            );
            let probe_count = probes.len();

            // --- Histogramming phase --------------------------------------------
            // Broadcast the probes, compute local histograms (exact or from the
            // representative samples), reduce.
            machine.broadcast(Phase::Histogramming, &probes);
            let ranks =
                ranked(machine, sources, &rank_oracle, &probes, &windows, &spans, total_keys);
            intervals.update(&probes, &ranks);

            let open_after =
                report.record_round(&intervals, round, sample_size, probe_count, open_before);
            finished = plan.is_done(round, open_after);
            on_round(
                machine,
                &RoundProgress {
                    round,
                    intervals: &intervals,
                    tolerance,
                    is_last: finished,
                    probes: &probes,
                    ranks: &ranks,
                },
            );
            last_round = Some((probes, ranks));
        }

        report.all_finalized = intervals.all_finalized(tolerance);

        // --- Finalize splitters --------------------------------------------------
        let splitters = match config.splitter_rule {
            SplitterRule::ClosestRank => SplitterSet::new(intervals.best_splitter_keys()),
            SplitterRule::Scanning => {
                let (probes, ranks) =
                    last_round.expect("scanning rule requires at least one round");
                scanning::splitters_from_histogram(
                    &probes,
                    &ranks,
                    total_keys,
                    buckets,
                    config.epsilon,
                )
            }
        };
        // Splitters are broadcast to all processors before the data movement.
        machine.broadcast(Phase::SplitterBroadcast, splitters.keys());
        (splitters, report)
    }
}

/// Internal description of how many rounds to run and with which sampling
/// probability.
struct RoundPlan {
    kind: PlanKind,
    buckets: usize,
}

enum PlanKind {
    /// Fixed number of rounds with precomputed sampling ratios.
    Fixed { ratios: Vec<f64> },
    /// Run until all splitters are finalized, targeting an expected overall
    /// sample of `oversampling × buckets` per round.
    UntilDone { oversampling: f64, max_rounds: usize },
}

impl RoundPlan {
    fn new(schedule: &RoundSchedule, buckets: usize, epsilon: f64) -> Self {
        // The sampling-ratio formulas need p >= 2; a single bucket never
        // reaches this code path.
        let p = buckets.max(2);
        match *schedule {
            RoundSchedule::Theoretical { rounds } => Self {
                kind: PlanKind::Fixed { ratios: theory::sampling_ratios(rounds, p, epsilon) },
                buckets,
            },
            RoundSchedule::OptimalRounds => {
                let k = theory::optimal_rounds(p, epsilon);
                Self {
                    kind: PlanKind::Fixed { ratios: theory::sampling_ratios(k, p, epsilon) },
                    buckets,
                }
            }
            RoundSchedule::ConstantOversampling { oversampling, max_rounds } => {
                Self { kind: PlanKind::UntilDone { oversampling, max_rounds }, buckets }
            }
        }
    }

    /// Per-key sampling probability for `round` (1-based), given the total
    /// input size and the number of keys covered by the open intervals.
    fn probability(&self, round: usize, total_keys: u64, covered_keys: u64) -> f64 {
        if total_keys == 0 {
            return 0.0;
        }
        match &self.kind {
            PlanKind::Fixed { ratios } => {
                // Sampling Method 1: each key of G is picked with
                // probability p·s_j / N.
                let s = ratios[(round - 1).min(ratios.len() - 1)];
                (self.buckets as f64 * s / total_keys as f64).min(1.0)
            }
            PlanKind::UntilDone { oversampling, .. } => {
                // Target an expected overall sample of `oversampling × p`
                // drawn from the `covered_keys` keys inside the open
                // intervals (the 5/δ rule of §6.1.2 expressed as a
                // probability).
                let target = oversampling * self.buckets as f64;
                if covered_keys == 0 {
                    0.0
                } else {
                    (target / covered_keys as f64).min(1.0)
                }
            }
        }
    }

    /// Whether the algorithm stops after `round` with `open_after` splitters
    /// still unfinalized.  Both plan kinds stop as soon as every splitter is
    /// finalized: running further sampling + histogramming rounds (gathers,
    /// broadcasts, reductions — all charged) cannot improve anything once
    /// `open_after == 0`.
    fn is_done(&self, round: usize, open_after: usize) -> bool {
        if open_after == 0 {
            return true;
        }
        match &self.kind {
            PlanKind::Fixed { ratios } => round >= ratios.len(),
            PlanKind::UntilDone { max_rounds, .. } => round >= *max_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::KeyDistribution;
    use hss_partition::{bucket_counts, exact_rank, LoadBalance};

    fn sorted_input(dist: KeyDistribution, p: usize, n: usize, seed: u64) -> Vec<Vec<u64>> {
        let mut data = dist.generate_per_rank(p, n, seed);
        for v in &mut data {
            v.sort_unstable();
        }
        data
    }

    fn check_splitter_quality(
        data: &[Vec<u64>],
        splitters: &SplitterSet<u64>,
        epsilon: f64,
    ) -> LoadBalance {
        let counts: Vec<u64> = {
            let mut totals = vec![0u64; splitters.buckets()];
            for local in data {
                for (i, c) in bucket_counts(local, splitters).iter().enumerate() {
                    totals[i] += c;
                }
            }
            totals
        };
        let lb = LoadBalance::from_counts(&counts);
        assert!(
            lb.satisfies(epsilon),
            "load imbalance {} exceeds 1 + {} (max {} allowed {})",
            lb.imbalance,
            epsilon,
            lb.max_keys,
            lb.allowed_max(epsilon)
        );
        lb
    }

    #[test]
    fn constant_oversampling_finalizes_uniform_input() {
        let p = 32;
        let data = sorted_input(KeyDistribution::Uniform, p, 2000, 7);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.05,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
            ..HssConfig::default()
        };
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.all_finalized, "report: {report:?}");
        assert_eq!(splitters.buckets(), p);
        assert!(report.rounds_executed() >= 1);
        check_splitter_quality(&data, &splitters, 0.05);
    }

    #[test]
    fn skewed_input_is_balanced_too() {
        let p = 24;
        let data = sorted_input(KeyDistribution::PowerLaw { gamma: 5.0 }, p, 1500, 11);
        let mut machine = Machine::flat(p);
        let config = HssConfig { epsilon: 0.1, ..HssConfig::default() };
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.all_finalized);
        check_splitter_quality(&data, &splitters, 0.1);
    }

    #[test]
    fn one_round_theoretical_schedule_balances_whp() {
        let p = 16;
        let data = sorted_input(KeyDistribution::Uniform, p, 4000, 3);
        let mut machine = Machine::flat(p);
        let config = HssConfig::one_round(0.2).with_seed(5);
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert_eq!(report.rounds_executed(), 1);
        // One theoretical round gathers ~p * 2 ln p / eps samples.
        assert!(report.total_sample_size > 0);
        check_splitter_quality(&data, &splitters, 0.2);
    }

    #[test]
    fn intervals_shrink_round_over_round() {
        let p = 32;
        let data = sorted_input(KeyDistribution::Uniform, p, 3000, 13);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.02,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 4.0, max_rounds: 32 },
            ..HssConfig::default()
        };
        let (_splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.rounds_executed() >= 2, "expected multiple rounds");
        // The union of open intervals must be non-increasing (Figure 3.1).
        for w in report.rounds.windows(2) {
            assert!(
                w[1].union_rank_size <= w[0].union_rank_size,
                "G_j grew: {:?} -> {:?}",
                w[0].union_rank_size,
                w[1].union_rank_size
            );
        }
        // And the number of open splitters must reach zero.
        assert_eq!(report.rounds.last().unwrap().open_after, 0);
    }

    #[test]
    fn later_rounds_use_smaller_samples_than_one_round_would() {
        // The whole point of HSS: the sum of per-round samples with the
        // constant-oversampling schedule is far below the one-shot sample
        // sample sort would need (p/eps per Theorem 4.1.2).
        let p = 64;
        let data = sorted_input(KeyDistribution::Uniform, p, 1000, 17);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.02,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
            ..HssConfig::default()
        };
        let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
        let regular_sampling_needs = (p * p) as f64 / 0.02;
        assert!(
            (report.total_sample_size as f64) < regular_sampling_needs / 10.0,
            "HSS used {} samples, regular sampling would use {}",
            report.total_sample_size,
            regular_sampling_needs
        );
    }

    #[test]
    fn scanning_rule_with_one_round_balances() {
        let p = 16;
        let data = sorted_input(KeyDistribution::Uniform, p, 2000, 23);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.1,
            schedule: RoundSchedule::Theoretical { rounds: 1 },
            splitter_rule: SplitterRule::Scanning,
            ..HssConfig::default()
        };
        let (splitters, _report) = determine_splitters(&mut machine, &data, p, &config);
        check_splitter_quality(&data, &splitters, 0.1);
    }

    #[test]
    fn single_bucket_needs_no_splitters() {
        let data = sorted_input(KeyDistribution::Uniform, 4, 100, 1);
        let mut machine = Machine::flat(4);
        let (splitters, report) =
            determine_splitters(&mut machine, &data, 1, &HssConfig::default());
        assert_eq!(splitters.buckets(), 1);
        assert!(report.all_finalized);
        assert_eq!(report.rounds_executed(), 0);
    }

    #[test]
    fn empty_input_is_handled() {
        let data: Vec<Vec<u64>> = vec![vec![]; 4];
        let mut machine = Machine::flat(4);
        let (splitters, report) =
            determine_splitters(&mut machine, &data, 4, &HssConfig::default());
        assert_eq!(splitters.buckets(), 4);
        assert_eq!(report.total_keys, 0);
        assert_eq!(report.rounds_executed(), 0);
    }

    #[test]
    fn splitter_ranks_are_within_tolerance() {
        // Check the conservative condition S_i ∈ T_i (§2.1) directly.
        let p = 16;
        let n = 2000;
        let data =
            sorted_input(KeyDistribution::Normal { mean_frac: 0.5, std_frac: 0.1 }, p, n, 31);
        let mut machine = Machine::flat(p);
        let config = HssConfig { epsilon: 0.05, ..HssConfig::default() };
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.all_finalized);
        let total = (p * n) as u64;
        let tol = theory::rank_tolerance(total, p, 0.05);
        for (i, &s) in splitters.keys().iter().enumerate() {
            let target = total * (i as u64 + 1) / p as u64;
            let rank = exact_rank(&data, s);
            let dist = rank.abs_diff(target);
            assert!(
                dist <= tol,
                "splitter {i} rank {rank} is {dist} away from target {target} (tol {tol})"
            );
        }
    }

    #[test]
    fn approximate_histograms_still_produce_good_splitters() {
        // §3.4: histogramming against the representative samples keeps the
        // splitters within the (slightly loosened) tolerance.
        let p = 24;
        let n = 4000;
        let eps = 0.1;
        let data = sorted_input(KeyDistribution::Uniform, p, n, 51);
        let mut machine = Machine::flat(p);
        let config = HssConfig { epsilon: eps, ..HssConfig::default() }
            .with_approximate_histograms()
            .with_seed(3);
        let (splitters, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.rounds_executed() >= 1);
        // The guarantee degrades from (1 + eps) to roughly (1 + 2 eps).
        check_splitter_quality(&data, &splitters, 2.0 * eps);
    }

    #[test]
    fn approximate_histograms_charge_less_histogram_compute() {
        // The point of §3.4: each histogram round answers probes against the
        // O(sqrt(p) log p / eps) sample instead of the N/p local keys.
        let p = 16;
        let n = 20_000;
        let data = sorted_input(KeyDistribution::Uniform, p, n, 9);
        let config_exact = HssConfig { epsilon: 0.1, ..HssConfig::default() };
        let config_approx = config_exact.clone().with_approximate_histograms();

        let mut exact_machine = Machine::flat(p);
        let _ = determine_splitters(&mut exact_machine, &data, p, &config_exact);
        let mut approx_machine = Machine::flat(p);
        let _ = determine_splitters(&mut approx_machine, &data, p, &config_approx);

        let exact_ops = exact_machine.metrics().phase(Phase::Histogramming).compute_ops;
        let approx_ops = approx_machine.metrics().phase(Phase::Histogramming).compute_ops;
        assert!(
            approx_ops < exact_ops,
            "approximate histogramming ({approx_ops} ops) not cheaper than exact ({exact_ops} ops)"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = 8;
        let data = sorted_input(KeyDistribution::Uniform, p, 500, 3);
        let cfg = HssConfig::default().with_seed(99);
        let mut m1 = Machine::flat(p);
        let mut m2 = Machine::flat(p);
        let (s1, r1) = determine_splitters(&mut m1, &data, p, &cfg);
        let (s2, r2) = determine_splitters(&mut m2, &data, p, &cfg);
        assert_eq!(s1.keys(), s2.keys());
        assert_eq!(r1, r2);
    }

    #[test]
    fn fixed_schedule_stops_once_all_splitters_finalize() {
        // A generous tolerance on few buckets finalizes every splitter in
        // the first round or two; a long fixed schedule must then stop
        // early instead of running (and charging) the remaining rounds.
        let p = 4;
        let data = sorted_input(KeyDistribution::Uniform, p, 4000, 19);
        let scheduled_rounds = 12;
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.3,
            schedule: RoundSchedule::Theoretical { rounds: scheduled_rounds },
            ..HssConfig::default()
        };
        let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
        assert!(report.all_finalized);
        assert!(
            report.rounds_executed() < scheduled_rounds,
            "ran all {} scheduled rounds despite early finalization",
            report.rounds_executed()
        );
        assert_eq!(report.rounds.last().unwrap().open_after, 0);
        // No sampling/histogramming superstep may follow the final round:
        // the splitter broadcast is the only collective after it.
        let gathers = machine.metrics().phase(Phase::Sampling).supersteps;
        // Each round records: sampling map_phase + gather + root sort.
        assert_eq!(gathers, 3 * report.rounds_executed() as u64);
    }

    #[test]
    fn empty_warm_start_is_bitwise_cold() {
        let p = 16;
        let data = sorted_input(KeyDistribution::PowerLaw { gamma: 4.0 }, p, 1000, 37);
        let cfg = HssConfig::default().with_seed(11);

        let mut cold = Machine::flat(p);
        let (cold_s, cold_r) = determine_splitters(&mut cold, &data, p, &cfg);

        let warm = WarmStart::from_probes(Vec::<u64>::new());
        let mut seeded = Machine::flat(p);
        let (seed_s, seed_r) =
            determine_splitters_seeded(&mut seeded, &data, p, &cfg, Some(&warm), |_, _| {});

        assert_eq!(cold_s.keys(), seed_s.keys());
        assert_eq!(cold_r, seed_r);
        assert_eq!(
            cold.metrics().deterministic_signature(),
            seeded.metrics().deterministic_signature(),
            "empty warm start changed the cost signature"
        );
    }

    #[test]
    fn warm_restart_on_identical_keyspace_takes_one_probe_round() {
        let p = 32;
        let data = sorted_input(KeyDistribution::Uniform, p, 3000, 13);
        let config = HssConfig {
            epsilon: 0.02,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 4.0, max_rounds: 32 },
            ..HssConfig::default()
        };

        let mut cold_machine = Machine::flat(p);
        let mut saved: Option<SplitterIntervals<u64>> = None;
        let (cold_splitters, cold_report) =
            determine_splitters_seeded(&mut cold_machine, &data, p, &config, None, |_, pr| {
                if pr.is_last {
                    saved = Some(pr.intervals.clone());
                }
            });
        assert!(cold_report.all_finalized);
        assert!(cold_report.rounds_executed() >= 2, "cold run should need multiple rounds");

        // Re-sorting the *same* keyspace warm-started from the final
        // intervals must re-finalize every splitter from the probe-only
        // round alone: the carried bound keys re-rank to exactly their old
        // ranks, so the brackets (and their finalization) are reproduced.
        let warm = WarmStart::from_probes(saved.as_ref().unwrap().carryover_keys());
        assert!(!warm.is_empty());
        let mut warm_machine = Machine::flat(p);
        let (warm_splitters, warm_report) = determine_splitters_seeded(
            &mut warm_machine,
            &data,
            p,
            &config,
            Some(&warm),
            |_, _| {},
        );
        assert!(warm_report.all_finalized);
        assert_eq!(warm_report.rounds_executed(), 1);
        assert_eq!(warm_report.rounds[0].sample_size, 0, "warm round must not sample");
        assert!(warm_report.rounds[0].probe_count > 0);
        assert_eq!(warm_report.total_sample_size, 0);
        assert_eq!(warm_splitters.keys(), cold_splitters.keys());
        check_splitter_quality(&data, &warm_splitters, 0.02);
    }

    #[test]
    fn warm_start_from_similar_keyspace_saves_rounds() {
        // The epoch-service scenario: the next epoch's keyspace is the old
        // one plus a modest same-distribution batch.  The old splitters'
        // ranks scale with N, so the probe-only round leaves at most a few
        // splitters open and the run finishes in fewer rounds than cold.
        let p = 32;
        let per_rank = 3000;
        let config = HssConfig {
            epsilon: 0.02,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 4.0, max_rounds: 32 },
            ..HssConfig::default()
        };
        let old = sorted_input(KeyDistribution::Uniform, p, per_rank, 13);
        // Accumulate every round's probes: denser carry-over than the final
        // bounds alone, so batch noise rarely reopens a wide bracket.
        let mut probes_seen: Vec<u64> = Vec::new();
        let mut m0 = Machine::flat(p);
        let _ = determine_splitters_seeded(&mut m0, &old, p, &config, None, |_, pr| {
            probes_seen.extend_from_slice(pr.probes);
        });

        // Accumulate a 10% batch of fresh keys from the same distribution.
        let batch = sorted_input(KeyDistribution::Uniform, p, per_rank / 10, 14);
        let mut accumulated = old;
        for (acc, add) in accumulated.iter_mut().zip(batch) {
            acc.extend(add);
            acc.sort_unstable();
        }

        let mut cold_machine = Machine::flat(p);
        let (_cs, cold_report) = determine_splitters(&mut cold_machine, &accumulated, p, &config);
        let warm = WarmStart::from_probes(probes_seen);
        let mut warm_machine = Machine::flat(p);
        let (warm_splitters, warm_report) = determine_splitters_seeded(
            &mut warm_machine,
            &accumulated,
            p,
            &config,
            Some(&warm),
            |_, _| {},
        );
        assert!(warm_report.all_finalized);
        assert!(
            warm_report.rounds_executed() < cold_report.rounds_executed(),
            "warm {} rounds not below cold {}",
            warm_report.rounds_executed(),
            cold_report.rounds_executed()
        );
        check_splitter_quality(&accumulated, &warm_splitters, 0.02);
    }

    #[test]
    fn round_stats_record_post_dedup_probe_count() {
        let p = 8;
        // Heavy duplicates: the gathered sample contains repeats, so the
        // deduplicated probe set is strictly smaller.
        let data = sorted_input(KeyDistribution::FewDistinct { distinct: 4 }, p, 1000, 23);
        let mut machine = Machine::flat(p);
        let (_s, report) = determine_splitters(&mut machine, &data, p, &HssConfig::default());
        for r in &report.rounds {
            assert!(r.probe_count <= r.sample_size, "round {}", r.round);
            assert!(r.probe_count > 0 || r.sample_size == 0);
        }
        assert!(
            report.rounds.iter().any(|r| r.probe_count < r.sample_size),
            "expected duplicate sample keys to dedup away"
        );
    }

    #[test]
    fn root_sample_sort_is_charged_to_sampling_phase() {
        let p = 16;
        let data = sorted_input(KeyDistribution::Uniform, p, 1000, 29);
        let mut machine = Machine::flat(p);
        let (_s, report) = determine_splitters(&mut machine, &data, p, &HssConfig::default());
        assert!(report.rounds_executed() >= 1);
        // The sampling phase now carries compute (the root's sort of the
        // gathered sample) in addition to the local Bernoulli scans.
        let sampling_ops = machine.metrics().phase(Phase::Sampling).compute_ops;
        let min_sort_ops: u64 =
            report.rounds.iter().map(|r| hss_sim::CostModel::sort_ops(r.sample_size as u64)).sum();
        assert!(
            sampling_ops >= min_sort_ops,
            "sampling ops {sampling_ops} below the root sort's {min_sort_ops}"
        );
    }

    #[test]
    fn sample_sizes_track_oversampling_target() {
        let p = 64;
        let data = sorted_input(KeyDistribution::Uniform, p, 500, 41);
        let mut machine = Machine::flat(p);
        let config = HssConfig {
            epsilon: 0.05,
            schedule: RoundSchedule::ConstantOversampling { oversampling: 5.0, max_rounds: 64 },
            ..HssConfig::default()
        };
        let (_s, report) = determine_splitters(&mut machine, &data, p, &config);
        // Expected sample per round is 5p = 320; allow generous slack for
        // the Bernoulli variance and interval rounding.
        for r in &report.rounds {
            assert!(
                r.sample_size < 5 * 5 * p,
                "round {} sample {} far above the 5p target",
                r.round,
                r.sample_size
            );
        }
    }
}
