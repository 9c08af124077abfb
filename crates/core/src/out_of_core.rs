//! Residency beyond memory: what the one pipeline (`pipeline.rs`) needs to
//! know about bytes on disk.  [`HssSorter::sort_out_of_core`] runs it under
//! a *capped* residency policy — any rank whose working set exceeds the
//! [`ExtSortPolicy`] cap falls back to
//! `hss-extsort`.
//!
//! Two places can blow the cap, and both spill:
//!
//! 1. **Local sort** — a rank's input partition is streamed through run
//!    formation instead of being sorted in place.
//! 2. **Merge at an owner** — a rank (or, with node buckets, a core) whose
//!    *received* runs exceed the cap spills them to disk runs and k-way
//!    merges under bounded windows (`ExternalSorter::merge_spilled`).
//!
//! Either way the output is **bitwise identical** to the in-memory sorter:
//! run formation sorts with the same `LocalSortAlgo`, and both merges use
//! the same loser tree with the same lower-run-index tie-break.
//!
//! # The single pass
//!
//! A spilled rank's sorted array is never materialized — neither in memory
//! nor on disk (it exceeds the cap by definition).  Its `SpilledStore` is
//! the pipeline's `SortedSource` for it:
//!
//! 1. **Run formation** — the rank forms sorted runs and stops; no
//!    merge-back.
//! 2. **Splitter determination straight off the run files** — the rank's
//!    sampling, histogram and §3.4 block-sample queries are windowed,
//!    fence-indexed probes ([`hss_extsort::RunSetReader`]), a few KiB each.
//! 3. **Drain** — the draining k-way merge ([`MergeCursor`]) streams
//!    bucket-by-bucket into the pipeline's asynchronous exchange stages,
//!    each bucket sealed by its upper splitter.
//! 4. **Cap-aware merge** — each owner merges what it received, in memory
//!    if it fits and through disk if not.
//!
//! A spilled rank of `N` bytes therefore writes `N` (runs) and reads `N`
//! (drain) plus the probes; an over-cap destination receiving `N` bytes
//! writes `N` (spill) and reads `N` (merge): `2N` written + `2N` read in
//! all, one disk round-trip per place the cap was blown (a fan-in smaller
//! than the run count adds reduction passes on top).  Under
//! [`SyncModel::Overlapped`](hss_sim::SyncModel) the drain's disk backlog
//! and the NIC stages interleave on the simulated clock.
//!
//! # Cost accounting
//!
//! External phases charge the same compute `Work` as their in-memory
//! counterparts *plus* a merge term for the run merge, *plus*
//! [`Work::disk_bytes`] for the measured scratch traffic.  The machine
//! routes disk work through its per-rank disk backlog clock: under
//! `SyncModel::Bsp` the phase serializes compute + disk; under
//! `SyncModel::Overlapped` the disk reservation stays outstanding and is
//! only waited for at the next [`Machine::wait_for_disk`] barrier —
//! mirroring how the real overlapped tier hides I/O behind compute.

use std::sync::Mutex;
use std::time::Instant;

use hss_extsort::{
    ExtSortReport, ExternalSorter, MergeCursor, PlainRecord, RunSetReader, SpilledRuns,
};
use hss_keygen::Keyed;
use hss_lsort::{LocalSortAlgo, RadixSortable};
use hss_partition::{
    drain_source_below, drain_source_rest, kway_merge_slices, ProbeIndex, WindowSample, WindowSpan,
};
use hss_sim::{Machine, Work};

use crate::config::ExtSortPolicy;
use crate::local_sort::{charged_local_sort, local_sort_work};
use crate::multi_round::{sealed, RankStore, SortedSource, SplitterPolicy};
use crate::pipeline::Residency;
use crate::sorter::{HssSorter, SortOutcome};

/// Fold one spill's measured traffic into the sort's aggregate report.
fn report(spills: &Mutex<ExtSortReport>, spill: &ExtSortReport) {
    spills.lock().expect("absorbing a report does not panic").absorb(spill);
}

/// A spilled rank's sorted data: its runs on disk, answering the splitter
/// probes through a windowed reader until the drain opens, pulled through
/// the draining merge cursor from then on.  Everything it moves is measured
/// and joins the sort's aggregate [`ExtSortReport`] (`spills`).
struct SpilledStore<'a, T: PlainRecord + RadixSortable + Keyed> {
    /// Records on disk.
    total: usize,
    /// The run files and their probe reader, until the drain opens.
    probing: Option<(SpilledRuns<T>, RunSetReader<T>)>,
    /// The draining merge and its block size, from then until the last
    /// bucket is sealed.
    draining: Option<(MergeCursor<T>, usize)>,
    /// Bytes, transfers, io-wait and wall of the probe reads so far.
    probes: ExtSortReport,
    spills: &'a Mutex<ExtSortReport>,
}

impl<'a, T: PlainRecord + RadixSortable + Keyed> SpilledStore<'a, T> {
    fn new(runs: SpilledRuns<T>, spills: &'a Mutex<ExtSortReport>) -> Self {
        let reader = runs.reader().expect("splitter probes: opening run files failed");
        Self {
            total: runs.total() as usize,
            probing: Some((runs, reader)),
            draining: None,
            probes: ExtSortReport::default(),
            spills,
        }
    }

    /// Run one query against the run files, stamping its wall time (the
    /// reader's io-wait falls inside it).
    fn probe<R>(&mut self, query: impl FnOnce(&mut RunSetReader<T>) -> std::io::Result<R>) -> R {
        let (_, reader) = self.probing.as_mut().expect("no probe once the drain is open");
        let t = Instant::now();
        let answer = query(reader).expect("splitter probe: run-file read failed");
        self.probes.wall_seconds += t.elapsed().as_secs_f64();
        answer
    }
}

impl<T: PlainRecord + RadixSortable + Keyed> sealed::Sealed for SpilledStore<'_, T> {}

impl<T: PlainRecord + RadixSortable + Keyed> SortedSource<T::K> for SpilledStore<'_, T> {
    type Item = T;

    fn len(&self) -> usize {
        self.total
    }

    fn sample_windows(
        &mut self,
        windows: &[(T::K, T::K)],
        sample: &mut WindowSample<'_>,
    ) -> Vec<T::K> {
        let mut keys = Vec::new();
        for (window, &(lo, hi)) in windows.iter().enumerate() {
            let (start, end) = self.probe(|reader| reader.interval_bounds(lo, hi));
            let positions = sample.window(window, start as usize, end as usize);
            // A window's keys are read right after its bounds, while the
            // readers' cached blocks still hold it.  Fence-bracket selection
            // answers each position from a few in-memory fence searches plus
            // one short span read per run — not a scan of the window.
            keys.extend(self.probe(|reader| reader.keys_at_ranks(positions)));
        }
        keys
    }

    fn add_window_counts(
        &mut self,
        probes: &ProbeIndex<'_, T::K>,
        spans: &[WindowSpan],
        counts: &mut [u64],
    ) {
        // Rank queries are what the fence-indexed run files answer: every
        // probe's, the same reads whatever the windows, and a window's
        // in-window ranks are their differences from its start.
        let ranks = self.probe(|reader| reader.local_ranks(probes.probes()));
        probes.add_window_ranks(spans, &ranks, counts);
    }

    fn keys_at(&mut self, positions: &[u64]) -> Vec<T::K> {
        self.probe(|reader| reader.keys_at_ranks(positions))
    }

    fn take_disk_work(&mut self) -> Work {
        let (_, reader) = self.probing.as_mut().expect("no probe once the drain is open");
        let (bytes, transfers, io_wait) = reader.take_io();
        self.probes.bytes_read += bytes;
        self.probes.read_transfers += transfers;
        self.probes.io_wait_seconds += io_wait;
        Work::disk_bytes(bytes, transfers)
    }

    fn open_drain(&mut self) -> Work {
        let (runs, reader) = self.probing.take().expect("the drain opens once");
        drop(reader);
        report(self.spills, &self.probes);
        let formed = *runs.report();
        let (fan_in, block_elems) = (runs.config().fan_in, runs.config().block_elems::<T>());
        let cursor = runs.into_cursor().expect("drain: opening the run cursor failed");
        // `into_cursor` ran reduction passes if the runs exceeded the
        // fan-in; charge their measured traffic (none otherwise).
        let reduced = cursor.report();
        let repassed = (reduced.bytes_read - formed.bytes_read) as usize / std::mem::size_of::<T>();
        let work = Work::merge(repassed, fan_in).and(Work::disk_bytes(
            reduced.disk_bytes() - formed.disk_bytes(),
            reduced.disk_transfers() - formed.disk_transfers(),
        ));
        self.draining = Some((cursor, block_elems));
        work
    }

    fn seal_below(&mut self, bound: Option<T::K>) -> (Vec<T>, Work) {
        let (cursor, block_elems) =
            self.draining.as_mut().expect("a bucket seals on an open drain");
        let mut bucket = Vec::new();
        let k = match bound {
            Some(b) => drain_source_below(cursor, b, &mut bucket),
            None => drain_source_rest(cursor, &mut bucket),
        };
        let bytes = (k * std::mem::size_of::<T>()) as u64;
        let work = Work::merge(k, cursor.source_count().max(1))
            .and(Work::scan(k))
            .and(Work::disk_bytes(bytes, (k as u64).div_ceil(*block_elems as u64)));
        if bound.is_none() {
            // The last bucket: the cursor's report carries formation,
            // reduction and every block the drain pulled (plus prefetch
            // io-wait).
            let (cursor, _) = self.draining.take().expect("checked above");
            report(self.spills, &cursor.finish().expect("drain: cursor shutdown failed"));
        }
        (bucket, work)
    }
}

/// The residency of [`HssSorter::sort_out_of_core`]: a rank sorts, and an
/// owner merges, in memory under the policy's cap and through `ext` over
/// it.  `spills` aggregates the measured traffic of every spill.
struct Capped<'a> {
    policy: &'a ExtSortPolicy,
    algo: LocalSortAlgo,
    ext: ExternalSorter,
    spills: Mutex<ExtSortReport>,
}

impl Capped<'_> {
    fn over_cap<T>(&self, elems: usize) -> bool {
        elems * std::mem::size_of::<T>() > self.policy.memory_cap_bytes
    }
}

impl<T> Residency<T> for Capped<'_>
where
    T: Keyed + RadixSortable + PlainRecord,
{
    fn sort_rank(&self, local: &mut Vec<T>) -> (Option<RankStore<'_, T>>, Work) {
        let n = local.len();
        if !self.over_cap::<T>(n) {
            return (None, charged_local_sort(self.algo, local));
        }
        // Form sorted runs and STOP: no merge-back, no materialized file.
        // The rank widens its fan-in to cover its runs in one pass when the
        // cap allows.
        let mut runs = self
            .ext
            .form_runs_only(std::mem::take(local))
            .expect("run formation: scratch I/O failed");
        runs.tune();
        let formed = runs.report();
        let work = local_sort_work::<T>(self.algo, n)
            .and(Work::disk_bytes(formed.disk_bytes(), formed.disk_transfers()));
        (Some(Box::new(SpilledStore::new(runs, &self.spills))), work)
    }

    fn in_memory(&self, items: usize) -> bool {
        !self.over_cap::<T>(items)
    }

    fn merge(&self, runs: &[&[T]]) -> (Vec<T>, Work) {
        if !self.over_cap::<T>(runs.iter().map(|r| r.len()).sum()) {
            return (kway_merge_slices(runs), Work::none());
        }
        let (merged, spill) =
            self.ext.merge_spilled(runs).expect("merge at the owner: scratch I/O failed");
        report(&self.spills, &spill);
        (merged, Work::disk_bytes(spill.disk_bytes(), spill.disk_transfers()))
    }
}

impl<P> HssSorter<P> {
    /// Sort with the out-of-core fallback armed: [`HssSorter::sort`], except
    /// that any rank whose local partition, and any owner (rank, or core of
    /// a node under `node_level`) whose received runs, exceed
    /// `config.ext_sort.memory_cap_bytes` spill through the external sorter
    /// — splitters from a spilled rank's run files, its merge drained
    /// straight into staged exchange sends; see the module docs.  Returns
    /// the outcome plus the aggregated [`ExtSortReport`] over every spill
    /// that happened.
    ///
    /// While no rank spills the call *is* [`HssSorter::sort`] on the same
    /// machine — same output, same charges, an all-zero report.  Once one
    /// does, the splitters come first under either sync model, so the output
    /// is bitwise what `sort` produces on a
    /// [`SyncModel::Bsp`](hss_sim::SyncModel) machine of the same topology.
    /// Requires `T: PlainRecord` (raw-byte run files), which is why this is
    /// a separate entry point rather than a silent fallback inside `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `config.ext_sort` is `None`, if `tag_duplicates` is set
    /// (tag wrappers are not `PlainRecord`), on rank-count mismatch, or on
    /// scratch-file I/O errors.  Any [`SplitterPolicy`] runs here: its
    /// probes reach a spilled rank through the same [`SortedSource`].
    pub fn sort_out_of_core<T>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
    ) -> (SortOutcome<T>, ExtSortReport)
    where
        T: Keyed + Ord + RadixSortable + PlainRecord,
        T::K: RadixSortable,
        P: SplitterPolicy<T::K>,
    {
        let config = self.config();
        config.validate().expect("invalid HSS configuration");
        let policy = config
            .ext_sort
            .as_ref()
            .expect("sort_out_of_core requires HssConfig::ext_sort to be set");
        assert!(
            !config.tag_duplicates,
            "duplicate tagging wraps items in non-PlainRecord tags; \
             disable tag_duplicates for the out-of-core tier"
        );
        let capped = Capped {
            policy,
            algo: config.local_sort,
            ext: ExternalSorter::new(policy.to_ext_config(config.local_sort)),
            spills: Mutex::default(),
        };
        let outcome = self.sort_with("hss-extsort", machine, input, &capped, None, |_, _| {});
        (outcome, capped.spills.into_inner().expect("absorbing a report does not panic"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExtSortPolicy, HssConfig};
    use crate::multi_round::exact_ranks;
    use hss_keygen::KeyDistribution;
    use hss_sim::{Phase, SyncModel};

    fn run_dir() -> String {
        std::env::temp_dir().join("hss-ooc-test").to_string_lossy().into_owned()
    }

    /// The [`ExtSortPolicy`] that forces *every* rank of an `n`-per-rank
    /// workload through the external path: cap at `1/ratio` of the per-rank
    /// byte volume (at least one record's worth so chunking can progress).
    fn forcing_policy<T>(per_rank_elems: usize, ratio: usize, run_dir: &str) -> ExtSortPolicy {
        let bytes = per_rank_elems * std::mem::size_of::<T>();
        ExtSortPolicy::new((bytes / ratio.max(1)).max(std::mem::size_of::<T>()), run_dir)
    }

    #[test]
    fn out_of_core_output_is_bitwise_identical_to_in_memory() {
        let p = 8;
        let n = 800;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 11);

        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        // Cap = 1/4 of a rank's bytes -> every rank spills in both the
        // local sort and (typically) the exchange merge.
        let policy = forcing_policy::<u64>(n, 4, &run_dir()).with_fan_in(2);
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert_eq!(outcome.data, reference.data);
        assert!(ext.runs_formed > 0, "cap must force spills");
        assert!(ext.bytes_written > 0 && ext.bytes_read > 0);
        assert_eq!(outcome.report.algorithm, "hss-extsort");
        // Disk traffic must show up in the modelled phase metrics.
        assert!(m.metrics().total_disk_words() > 0);
        assert!(outcome.report.makespan_seconds > reference.report.makespan_seconds);
    }

    #[test]
    fn returned_report_keeps_io_wait_within_wall() {
        // Every component that adds io-wait (formation, probes, the drain
        // cursor, the destination spill merges) stamps a wall span
        // containing it, so the aggregate fraction is a fraction.
        let p = 4;
        let n = 2_000;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 5);
        let policy = forcing_policy::<u64>(n, 4, &run_dir());
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let (_, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert!(ext.io_wait_seconds > 0.0, "spills must wait on disk");
        assert!(
            ext.io_wait_seconds <= ext.wall_seconds,
            "io-wait {} exceeds wall {}",
            ext.io_wait_seconds,
            ext.wall_seconds
        );
        assert!((0.0..=1.0).contains(&ext.io_wait_fraction()));
    }

    #[test]
    fn handles_mixed_spilled_and_in_memory_ranks() {
        // Ranks of very different sizes under one cap: large ranks spill,
        // small ranks stay in memory, and the splitters (sampled partly
        // from run files, partly from memory) still reproduce the
        // in-memory output bitwise.
        let p = 4;
        let sizes = [1200usize, 60, 900, 10];
        let mut input: Vec<Vec<u64>> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for (r, &n) in sizes.iter().enumerate() {
            let mut v = Vec::with_capacity(n);
            for i in 0..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(r as u64 + i as u64);
                v.push(state >> 11);
            }
            input.push(v);
        }

        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        let cap = 400 * std::mem::size_of::<u64>(); // only the two big ranks spill
        let policy = ExtSortPolicy::new(cap, run_dir()).with_fan_in(2);
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert_eq!(outcome.data, reference.data);
        assert!(ext.runs_formed > 0, "the big ranks must spill");
    }

    #[test]
    fn spilled_and_in_memory_ranks_count_into_one_histogram_round() {
        // One exact histogramming round over two spilled ranks (rank
        // queries against the run files, added as differences) and two
        // in-memory ranks (counted through the shared probe index): the
        // global ranks and the compute charge are those of the all-in-memory
        // round, plus the spilled ranks' probe reads on the disk channel.
        let sizes = [1200u64, 60, 900, 10];
        let sorted: Vec<Vec<u64>> = sizes
            .iter()
            .map(|&n| {
                let mut v: Vec<u64> = (0..n).map(|i| (i * 7919 + n) % 4001).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut probes: Vec<u64> = (0..500u64).map(|i| i * 9).collect();
        probes.extend([0, 4000, 4000, u64::MAX]);
        probes.sort_unstable();

        let policy = ExtSortPolicy::new(400 * std::mem::size_of::<u64>(), run_dir());
        let ext = ExternalSorter::new(policy.to_ext_config(LocalSortAlgo::Radix));
        let spills = Mutex::default();
        let mut spilled = 0;
        let mut stores: Vec<RankStore<'_, u64>> = sorted
            .iter()
            .map(|local| -> RankStore<'_, u64> {
                if local.len() <= 400 {
                    return Box::new(local.as_slice());
                }
                spilled += 1;
                let runs = ext.form_runs_only(local.clone()).expect("run formation");
                Box::new(SpilledStore::new(runs, &spills))
            })
            .collect();
        assert_eq!(spilled, 2);
        let mut stores: Vec<_> = stores.iter_mut().map(|store| &mut **store).collect();

        let phase = Phase::Histogramming;
        let mut m_ref = Machine::flat(4);
        let expected = hss_partition::global_ranks(&mut m_ref, &sorted, &probes, phase);
        let mut m = Machine::flat(4);
        assert_eq!(exact_ranks(&mut m, &mut stores, &probes), expected);
        let (got, want) = (m.metrics().phase(phase), m_ref.metrics().phase(phase));
        assert_eq!(got.compute_ops, want.compute_ops);
        assert_eq!((got.messages, got.comm_words), (want.messages, want.comm_words));
        assert!(got.disk_words > 0 && want.disk_words == 0, "probe reads ride the disk channel");
    }

    #[test]
    fn windowed_rounds_over_spilled_and_in_memory_ranks_rank_exactly() {
        // A warm-started probe round (the one-window case), then windowed
        // sampling and histogramming rounds, over two spilled and two
        // in-memory ranks: every round's ranks are the summed per-rank
        // `local_ranks`, and probes, splitters, report and compute charges
        // are those of the same rounds over in-memory slices.
        let sizes = [1200u64, 60, 900, 10];
        let sorted: Vec<Vec<u64>> = sizes
            .iter()
            .map(|&n| {
                let mut v: Vec<u64> = (0..n).map(|i| (i * 7919 + n) % 4001).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let policy = ExtSortPolicy::new(400 * std::mem::size_of::<u64>(), run_dir());
        let ext = ExternalSorter::new(policy.to_ext_config(LocalSortAlgo::Radix));
        let spills = Mutex::default();
        let mut stores: Vec<RankStore<'_, u64>> = sorted
            .iter()
            .map(|local| -> RankStore<'_, u64> {
                if local.len() <= 400 {
                    return Box::new(local.as_slice());
                }
                let runs = ext.form_runs_only(local.clone()).expect("run formation");
                Box::new(SpilledStore::new(runs, &spills))
            })
            .collect();
        let mut stores: Vec<_> = stores.iter_mut().map(|store| &mut **store).collect();

        let config = HssConfig {
            epsilon: 0.02,
            schedule: crate::RoundSchedule::ConstantOversampling {
                oversampling: 4.0,
                max_rounds: 32,
            },
            ..HssConfig::default()
        };
        let warm = crate::WarmStart::from_probes(vec![500, 1500, 3000]);
        let policy = crate::multi_round::HssRounds { config: &config, warm: Some(&warm) };
        let mut rounds = Vec::new();
        let mut m = Machine::flat(4);
        let (splitters, report) = policy.splitters(&mut m, &mut stores, 4, |_, progress| {
            rounds.push((progress.probes.to_vec(), progress.ranks.to_vec()));
        });
        assert!(rounds.len() >= 3, "warm round plus windowed rounds: {}", rounds.len());
        for (probes, ranks) in &rounds {
            let mut expect = vec![0u64; probes.len()];
            for local in &sorted {
                let local = hss_partition::local_ranks(local, probes);
                expect.iter_mut().zip(local).for_each(|(sum, rank)| *sum += rank);
            }
            assert_eq!(ranks, &expect);
        }

        let mut resident_rounds = Vec::new();
        let mut m_ref = Machine::flat(4);
        let (ref_splitters, ref_report) = crate::determine_splitters_seeded(
            &mut m_ref,
            &sorted,
            4,
            &config,
            Some(&warm),
            |_, progress| resident_rounds.push((progress.probes.to_vec(), progress.ranks.to_vec())),
        );
        assert_eq!(rounds, resident_rounds);
        assert_eq!(splitters.keys(), ref_splitters.keys());
        assert_eq!(report, ref_report);
        for phase in [Phase::Sampling, Phase::Histogramming] {
            let (got, want) = (m.metrics().phase(phase), m_ref.metrics().phase(phase));
            assert_eq!(got.compute_ops, want.compute_ops, "{phase:?}");
            assert!(got.disk_words > 0, "{phase:?}: the spilled ranks read their runs");
        }
    }

    #[test]
    fn under_cap_ranks_stay_in_memory() {
        let p = 4;
        let input = KeyDistribution::Uniform.generate_per_rank(p, 200, 3);
        let policy = ExtSortPolicy::new(1 << 20, run_dir()); // cap far above data
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m = Machine::flat(p);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
        assert_eq!(outcome.data, reference.data);
        assert_eq!(ext, ExtSortReport::default(), "no rank should spill");
        assert_eq!(m.metrics().total_disk_words(), 0);
        // Nobody over the cap: the call is `sort`, charge for charge.
        assert_eq!(
            m.metrics().deterministic_signature(),
            m_ref.metrics().deterministic_signature()
        );
        assert_eq!(outcome.report.total_keys, 800);
    }

    #[test]
    fn an_owner_over_the_cap_spills_beside_resorting_neighbours() {
        // No rank holds more than 100 keys, under a cap of 150, but every
        // rank holds 40 copies of one key, so that key's owner receives
        // over 640.  It alone spills, with the report and disk charges of
        // merging its runs through disk; the neighbours, each handed crumbs
        // from many senders, re-sort in memory.
        let p = 16;
        let input: Vec<Vec<u64>> = KeyDistribution::Uniform
            .generate_per_rank(p, 60, 29)
            .into_iter()
            .map(|mut rank| {
                rank.extend([u64::MAX / 3; 40]);
                rank
            })
            .collect();
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        let policy = ExtSortPolicy::new(150 * std::mem::size_of::<u64>(), run_dir());
        let config = HssConfig::default().with_ext_sort(policy.clone());
        let mut m = Machine::flat(p);
        let (outcome, ext) = HssSorter::new(config.clone()).sort_out_of_core(&mut m, input.clone());
        assert_eq!(outcome.data, reference.data);

        let over: Vec<usize> = (0..p).filter(|&o| outcome.data[o].len() > 150).collect();
        assert_eq!(over.len(), 1, "one owner over the cap");
        let (lo, hi) = {
            let own = &outcome.data[over[0]];
            (own[0], own[own.len() - 1])
        };
        let mut sorted = input;
        sorted.iter_mut().for_each(|rank| rank.sort_unstable());
        let runs: Vec<&[u64]> = sorted
            .iter()
            .map(|rank| {
                let from = rank.partition_point(|&x| x < lo);
                &rank[from..rank.partition_point(|&x| x <= hi)]
            })
            .collect();
        let ext_sorter = ExternalSorter::new(policy.to_ext_config(config.local_sort));
        let (merged, spill) = ext_sorter.merge_spilled(&runs).expect("reference spill");
        assert_eq!(merged, outcome.data[over[0]]);
        let timeless =
            |r: &ExtSortReport| ExtSortReport { io_wait_seconds: 0.0, wall_seconds: 0.0, ..*r };
        assert_eq!(timeless(&ext), timeless(&spill), "only the owner's merge spilled");
        let disk = Work::disk_bytes(spill.disk_bytes(), spill.disk_transfers()).disk_words;
        assert_eq!(m.metrics().phase(Phase::Merge).disk_words, disk);
        assert_eq!(m.metrics().total_disk_words(), disk);
        let (got, want) = (m.metrics().phase(Phase::Merge), m_ref.metrics().phase(Phase::Merge));
        assert_eq!(got.compute_ops, want.compute_ops, "every owner's merge charge");

        let resorting = (0..p).filter(|&o| {
            let pieces = runs_into(&sorted, &outcome.data[o]);
            o != over[0]
                && hss_partition::finish_arm::<u64>(pieces, outcome.data[o].len())
                    == hss_partition::FinishArm::Resort
        });
        assert!(resorting.count() >= p / 2, "most neighbours re-sort");
    }

    /// How many of the ranks in `sorted` hold a key of the owner's `own`.
    fn runs_into(sorted: &[Vec<u64>], own: &[u64]) -> usize {
        let Some((&lo, &hi)) = own.first().zip(own.last()) else { return 0 };
        sorted.iter().filter(|rank| rank.iter().any(|&x| lo <= x && x <= hi)).count()
    }

    #[test]
    fn overlapped_disk_model_beats_bsp_on_the_same_spills() {
        let p = 4;
        let n = 600;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 23);
        let policy = forcing_policy::<u64>(n, 4, &run_dir());
        let cfg = HssConfig::default().with_ext_sort(policy);
        let mut m_bsp = Machine::flat(p);
        let (out_bsp, _) = HssSorter::new(cfg.clone()).sort_out_of_core(&mut m_bsp, input.clone());
        let mut m_ovl = Machine::flat(p).with_sync_model(SyncModel::Overlapped);
        let (out_ovl, _) = HssSorter::new(cfg).sort_out_of_core(&mut m_ovl, input);
        assert_eq!(out_bsp.data, out_ovl.data);
        // Same disk words charged; strictly less simulated time when the
        // backlog can hide behind subsequent compute.
        assert_eq!(m_bsp.metrics().total_disk_words(), m_ovl.metrics().total_disk_words());
        assert!(
            out_ovl.report.makespan_seconds < out_bsp.report.makespan_seconds,
            "overlapped {} !< bsp {}",
            out_ovl.report.makespan_seconds,
            out_bsp.report.makespan_seconds
        );
    }

    #[test]
    #[should_panic(expected = "requires HssConfig::ext_sort")]
    fn missing_policy_panics() {
        let input = KeyDistribution::Uniform.generate_per_rank(2, 10, 0);
        let mut m = Machine::flat(2);
        let _ = HssSorter::default().sort_out_of_core(&mut m, input);
    }

    #[test]
    #[should_panic(expected = "disable tag_duplicates")]
    fn tagging_is_rejected() {
        let input = KeyDistribution::Uniform.generate_per_rank(2, 10, 0);
        let mut m = Machine::flat(2);
        let cfg = HssConfig::default()
            .with_ext_sort(ExtSortPolicy::new(1 << 20, run_dir()))
            .with_duplicate_tagging();
        let _ = HssSorter::new(cfg).sort_out_of_core(&mut m, input);
    }
}
