//! The distributed out-of-core path: HSS where any rank whose working set
//! exceeds the [`ExtSortPolicy`](crate::config::ExtSortPolicy) cap falls
//! back to `hss-extsort`.
//!
//! Two places can blow the cap, and both spill:
//!
//! 1. **Local sort** — a rank's input partition is streamed through run
//!    formation instead of being sorted in place.
//! 2. **Exchange merge** — a rank whose *received* runs exceed the cap
//!    spills them to disk runs and k-way merges under bounded windows
//!    (`ExternalSorter::merge_spilled`).
//!
//! Either way the output is **bitwise identical** to the in-memory sorter:
//! run formation sorts with the same `LocalSortAlgo`, and both merges use
//! the same loser tree with the same lower-run-index tie-break.
//!
//! # The single pass
//!
//! A spilled rank's sorted array is never materialized — neither in memory
//! nor on disk (it exceeds the cap by definition):
//!
//! 1. **Run formation** — the rank forms sorted runs and stops; no
//!    merge-back.
//! 2. **Splitter determination straight off the run files** — the rank is
//!    a sorted source like any in-memory slice; its sampling, histogram
//!    and §3.4 block-sample queries are windowed, fence-indexed probes
//!    ([`hss_extsort::RunSetReader`]), a few KiB each.
//! 3. **Staged drain** — the draining k-way merge ([`MergeCursor`]) streams
//!    bucket-by-bucket into asynchronous exchange sends
//!    ([`Machine::exchange_stage`]), each bucket dispatched as soon as its
//!    upper splitter seals it (grouped up to `min_stage_fraction` of the
//!    data per stage).
//! 4. **Cap-aware merge** — each destination merges what it received, in
//!    memory if it fits and through disk if not.
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

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use hss_extsort::{
    ExtSortReport, ExternalSorter, MergeCursor, PlainRecord, RunSetReader, SpilledRuns,
};
use hss_keygen::Keyed;
use hss_lsort::RadixSortable;
use hss_partition::{
    add_rank_differences, drain_source_below, drain_source_rest, kway_merge_slices,
    splitter_position, ProbeIndex,
};
use hss_sim::{Machine, Phase, Work};

use crate::local_sort::{charged_local_sort, local_sort_work};
use crate::multi_round::{determine_splitters_from, SortedSource};
use crate::report::SortReport;
use crate::sorter::{HssSorter, SortOutcome};
use crate::staging::StagedExchange;

/// A spilled rank between run formation and the drain: its runs on disk
/// plus a windowed reader for splitter probes, with the probe traffic
/// accumulated so it can be folded into the final [`ExtSortReport`].
struct SpilledStore<T: PlainRecord + Ord + Keyed> {
    runs: SpilledRuns<T>,
    reader: RunSetReader<T>,
    /// Bytes, transfers, io-wait and wall of the probe reads so far.
    probes: ExtSortReport,
}

impl<T: PlainRecord + Ord + Keyed> SpilledStore<T> {
    /// Run one query against the run files, stamping its wall time (the
    /// reader's io-wait falls inside it).
    fn probe<R>(&mut self, query: impl FnOnce(&mut RunSetReader<T>) -> std::io::Result<R>) -> R {
        let t = Instant::now();
        let answer = query(&mut self.reader).expect("splitter probe: run-file read failed");
        self.probes.wall_seconds += t.elapsed().as_secs_f64();
        answer
    }
}

impl<T: PlainRecord + Ord + Keyed> SortedSource<T::K> for SpilledStore<T> {
    fn len(&self) -> usize {
        self.runs.total() as usize
    }

    fn sample_in_intervals(
        &mut self,
        intervals: &[(T::K, T::K)],
        mut draw: impl FnMut(Range<u64>) -> Vec<u64>,
    ) -> Vec<T::K> {
        let mut sample = Vec::new();
        for &(lo, hi) in intervals {
            let (start, end) = self.probe(|reader| reader.interval_bounds(lo, hi));
            let positions = draw(start..end);
            // Fence-bracket selection answers each sampled position from a
            // few in-memory fence searches plus one short span read per
            // run — not a scan of the interval.
            sample.extend(self.probe(|reader| reader.keys_at_ranks(&positions)));
        }
        sample
    }

    fn add_bucket_counts(&mut self, probes: &ProbeIndex<'_, T::K>, counts: &mut [u64]) {
        // Rank queries are what the fence-indexed run files answer; their
        // differences are the bucket counts.
        let ranks = self.probe(|reader| reader.local_ranks(probes.probes()));
        add_rank_differences(ranks, self.runs.total(), counts);
    }

    fn keys_at(&mut self, positions: &[u64]) -> Vec<T::K> {
        self.probe(|reader| reader.keys_at_ranks(positions))
    }

    fn take_disk_work(&mut self) -> Work {
        let (bytes, transfers, io_wait) = self.reader.take_io();
        self.probes.bytes_read += bytes;
        self.probes.read_transfers += transfers;
        self.probes.io_wait_seconds += io_wait;
        Work::disk_bytes(bytes, transfers)
    }
}

/// Per-rank state after the local-sort phase: sorted in memory (under-cap)
/// or formed into sorted runs on disk (over-cap).
enum RankStore<T: PlainRecord + Ord + Keyed> {
    Mem(Vec<T>),
    Spilled(Box<SpilledStore<T>>),
}

impl<T: PlainRecord + Ord + Keyed> SortedSource<T::K> for RankStore<T> {
    fn len(&self) -> usize {
        match self {
            RankStore::Mem(local) => local.len(),
            RankStore::Spilled(store) => store.len(),
        }
    }

    fn sample_in_intervals(
        &mut self,
        intervals: &[(T::K, T::K)],
        draw: impl FnMut(Range<u64>) -> Vec<u64>,
    ) -> Vec<T::K> {
        match self {
            RankStore::Mem(local) => local.as_slice().sample_in_intervals(intervals, draw),
            RankStore::Spilled(store) => store.sample_in_intervals(intervals, draw),
        }
    }

    fn add_bucket_counts(&mut self, probes: &ProbeIndex<'_, T::K>, counts: &mut [u64]) {
        match self {
            RankStore::Mem(local) => local.as_slice().add_bucket_counts(probes, counts),
            RankStore::Spilled(store) => store.add_bucket_counts(probes, counts),
        }
    }

    fn keys_at(&mut self, positions: &[u64]) -> Vec<T::K> {
        match self {
            RankStore::Mem(local) => local.as_slice().keys_at(positions),
            RankStore::Spilled(store) => store.keys_at(positions),
        }
    }

    fn take_disk_work(&mut self) -> Work {
        match self {
            RankStore::Mem(_) => Work::none(),
            RankStore::Spilled(store) => store.take_disk_work(),
        }
    }
}

/// A rank's data between splitter determination and the staged drain:
/// either the in-memory sorted vector with a cut position, or the draining
/// merge cursor over its run files.
enum DrainSource<T: PlainRecord + RadixSortable + Keyed> {
    Mem { data: Vec<T>, pos: usize },
    Disk { cursor: MergeCursor<T>, pieces: usize, block_elems: usize },
}

impl HssSorter {
    /// Sort with the out-of-core fallback armed: behaves exactly like
    /// [`HssSorter::sort`] on the flat rank-level path, except that any
    /// rank whose local partition or received runs exceed
    /// `config.ext_sort.memory_cap_bytes` spills through the external
    /// sorter — splitters from its run files, its merge drained straight
    /// into staged exchange sends; see the module docs.  Returns the
    /// outcome plus the aggregated [`ExtSortReport`] over every spill that
    /// happened (all-zero if no rank exceeded the cap).
    ///
    /// Output is bitwise identical to [`HssSorter::sort`] on a
    /// [`SyncModel::Bsp`](hss_sim::SyncModel) machine.  Requires
    /// `T: PlainRecord` (raw-byte run files), which is why this is a
    /// separate entry point rather than a silent fallback inside `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `config.ext_sort` is `None`, if `node_level` or
    /// `tag_duplicates` is set (the tier is rank-level and tag wrappers
    /// are not `PlainRecord`), on rank-count mismatch, or on scratch-file
    /// I/O errors.
    pub fn sort_out_of_core<T>(
        &self,
        machine: &mut Machine,
        input: Vec<Vec<T>>,
    ) -> (SortOutcome<T>, ExtSortReport)
    where
        T: Keyed + Ord + RadixSortable + PlainRecord,
        T::K: RadixSortable,
    {
        let config = self.config();
        config.validate().expect("invalid HSS configuration");
        let policy = config
            .ext_sort
            .as_ref()
            .expect("sort_out_of_core requires HssConfig::ext_sort to be set");
        assert_eq!(input.len(), machine.ranks(), "one input vector per rank");
        assert!(!config.node_level, "the out-of-core tier is rank-level: disable node_level");
        assert!(
            !config.tag_duplicates,
            "duplicate tagging wraps items in non-PlainRecord tags; \
             disable tag_duplicates for the out-of-core tier"
        );
        let total_keys: usize = input.iter().map(|v| v.len()).sum();
        let p = machine.ranks();
        let ext = ExternalSorter::new(policy.to_ext_config(config.local_sort));
        let spills = Mutex::new(ExtSortReport::default());
        let algo = config.local_sort;
        let over_cap = |elems: usize| elems * std::mem::size_of::<T>() > policy.memory_cap_bytes;

        // Phase 1 — local sort.  Over-cap ranks form sorted runs and STOP:
        // no merge-back, no materialized file.  Unless the policy pins the
        // merge geometry, each rank widens its fan-in to cover its runs in
        // one pass when the cap allows.
        let mut input = input;
        let mut stores: Vec<RankStore<T>> =
            machine.map_phase_mut(Phase::LocalSort, &mut input, |_rank, local| {
                let mut local = std::mem::take(local);
                let n = local.len();
                if !over_cap(n) {
                    let work = charged_local_sort(algo, &mut local);
                    return (RankStore::Mem(local), work);
                }
                let mut runs =
                    ext.form_runs_only(local).expect("run formation: scratch I/O failed");
                if policy.prefetch_depth.is_none() {
                    runs.tune();
                }
                let formed = runs.report();
                let work = local_sort_work::<T>(algo, n)
                    .and(Work::disk_bytes(formed.disk_bytes(), formed.disk_transfers()));
                let reader = runs.reader().expect("splitter probes: opening run files failed");
                let store = SpilledStore { runs, reader, probes: ExtSortReport::default() };
                (RankStore::Spilled(Box::new(store)), work)
            });
        machine.wait_for_disk();

        // Phase 2 — splitter determination straight from the stores: the
        // same rounds and supersteps as the in-memory path, with spilled
        // ranks answering via windowed run-file probes.
        let (splitters, splitter_report) =
            determine_splitters_from(machine, &mut stores, p, config, None, |_, _| {});

        // Phase 3 — open the drain.  Spilled ranks reduce their run count
        // to the merge fan-in (charged from the cursor's measured report
        // delta) and hand back a pull cursor; in-memory ranks just carry a
        // cut position.  Probe traffic from phase 2 joins the report here.
        let mut slots: Vec<Option<RankStore<T>>> = stores.into_iter().map(Some).collect();
        let mut sources: Vec<DrainSource<T>> =
            machine.map_phase_mut(Phase::Merge, &mut slots, |_rank, slot| {
                match slot.take().expect("each rank store is converted exactly once") {
                    RankStore::Mem(data) => (DrainSource::Mem { data, pos: 0 }, Work::none()),
                    RankStore::Spilled(store) => {
                        let SpilledStore { runs, reader, probes } = *store;
                        drop(reader);
                        spills.lock().unwrap().absorb(&probes);
                        let formed = *runs.report();
                        let fan_in = runs.config().fan_in;
                        let block_elems = runs.config().block_elems::<T>();
                        let cursor =
                            runs.into_cursor().expect("drain: opening the run cursor failed");
                        let pieces = cursor.source_count().max(1);
                        // `into_cursor` may have run reduction passes to get
                        // under the fan-in; charge their measured traffic.
                        let reduced = cursor.report();
                        let repassed = (reduced.bytes_read - formed.bytes_read) as usize
                            / std::mem::size_of::<T>();
                        let work = if repassed > 0 {
                            Work::merge(repassed, fan_in).and(Work::disk_bytes(
                                reduced.disk_bytes() - formed.disk_bytes(),
                                reduced.disk_transfers() - formed.disk_transfers(),
                            ))
                        } else {
                            Work::none()
                        };
                        (DrainSource::Disk { cursor, pieces, block_elems }, work)
                    }
                }
            });
        machine.wait_for_disk();

        // Phase 4 — staged drain.  One superstep per destination bucket:
        // every rank drains its stream up to the bucket's upper splitter
        // (cursor pull for spilled ranks, `partition_point` cut for
        // in-memory ranks — identical boundaries by construction).  Sealed
        // buckets accumulate until they cover `min_stage_fraction` of the
        // data, then fly as one asynchronous exchange stage; under
        // `SyncModel::Overlapped` the next bucket's drain (and its disk
        // backlog) proceeds while the NIC reservation is still in flight.
        let splitter_keys = splitters.keys();
        let owner: Vec<usize> = (0..p).collect();
        let mut stages = StagedExchange::new(&owner, p, total_keys, config.min_stage_fraction);
        let mut recv: Vec<Vec<Vec<T>>> = (0..p).map(|_| Vec::new()).collect();
        let mut first_sealed = 0;
        for d in 0..p {
            let bound = splitter_keys.get(d).copied();
            recv[d] = machine.map_phase_mut(Phase::DataExchange, &mut sources, |_rank, source| {
                match source {
                    DrainSource::Mem { data, pos } => {
                        let end = match bound {
                            Some(b) => *pos + splitter_position(&data[*pos..], b),
                            None => data.len(),
                        };
                        let buf = data[*pos..end].to_vec();
                        *pos = end;
                        let work =
                            Work::binary_search(1, data.len().max(1)).and(Work::scan(buf.len()));
                        (buf, work)
                    }
                    DrainSource::Disk { cursor, pieces, block_elems } => {
                        let mut buf = Vec::new();
                        let k = match bound {
                            Some(b) => drain_source_below(cursor, b, &mut buf),
                            None => drain_source_rest(cursor, &mut buf),
                        };
                        let bytes = (k * std::mem::size_of::<T>()) as u64;
                        let transfers = (k as u64).div_ceil(*block_elems as u64);
                        let work = Work::merge(k, *pieces)
                            .and(Work::scan(k))
                            .and(Work::disk_bytes(bytes, transfers));
                        (buf, work)
                    }
                }
            });
            // The drain already charged each sender's scan of what it sends.
            let sealed: Vec<usize> = (first_sealed..=d).collect();
            stages.offer::<T>(
                machine,
                0,
                &sealed,
                d + 1 == p,
                |src, dst| 0..recv[dst][src].len(),
                |_, _| {},
            );
            if stages.is_staged(d) {
                first_sealed = d + 1;
            }
        }
        stages.wait_for_arrivals(machine);

        // Harvest the drained cursors: their reports carry formation,
        // reduction, and every block the drain pulled (plus prefetch
        // io-wait under the overlapped mode).
        for source in sources {
            if let DrainSource::Disk { cursor, .. } = source {
                let rep = cursor.finish().expect("drain: cursor shutdown failed");
                spills.lock().unwrap().absorb(&rep);
            }
        }

        // Phase 5 — merge received buckets, spilling through disk when a
        // destination's total exceeds the cap.
        let out = machine.transform_phase(Phase::Merge, recv, |_dst, runs| {
            let slices: Vec<&[T]> = runs.iter().map(|r| r.as_slice()).collect();
            let total: usize = slices.iter().map(|r| r.len()).sum();
            let pieces = slices.iter().filter(|r| !r.is_empty()).count();
            let merge_work = Work::merge(total, pieces.max(1));
            if over_cap(total) {
                let (merged, rep) =
                    ext.merge_spilled(&slices).expect("exchange merge: scratch I/O failed");
                spills.lock().unwrap().absorb(&rep);
                (merged, merge_work.and(Work::disk_bytes(rep.disk_bytes(), rep.disk_transfers())))
            } else {
                (kway_merge_slices(&slices), merge_work)
            }
        });
        machine.wait_for_disk();

        let report = SortReport::new(
            "hss-extsort",
            machine,
            config,
            total_keys as u64,
            splitter_report,
            &out,
        );
        (SortOutcome { data: out, report }, spills.into_inner().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExtSortPolicy, HssConfig};
    use crate::multi_round::ranked;
    use hss_extsort::IoMode;
    use hss_keygen::KeyDistribution;
    use hss_lsort::LocalSortAlgo;
    use hss_sim::SyncModel;

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

        for io_mode in [IoMode::Synchronous, IoMode::Overlapped] {
            // Cap = 1/4 of a rank's bytes -> every rank spills in both the
            // local sort and (typically) the exchange merge.
            let policy =
                forcing_policy::<u64>(n, 4, &run_dir()).with_fan_in(2).with_io_mode(io_mode);
            let cfg = HssConfig::default().with_ext_sort(policy);
            let mut m = Machine::flat(p);
            let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input.clone());
            assert_eq!(outcome.data, reference.data, "{}", io_mode.name());
            assert!(ext.runs_formed > 0, "cap must force spills");
            assert!(ext.bytes_written > 0 && ext.bytes_read > 0);
            assert_eq!(outcome.report.algorithm, "hss-extsort");
            // Disk traffic must show up in the modelled phase metrics.
            assert!(m.metrics().total_disk_words() > 0);
            assert!(outcome.report.makespan_seconds > reference.report.makespan_seconds);
        }
    }

    #[test]
    fn returned_report_keeps_io_wait_within_wall() {
        // Every component that adds io-wait (formation, probes, the drain
        // cursor, the destination spill merges) stamps a wall span
        // containing it, so the aggregate fraction is a fraction.
        let p = 4;
        let n = 2_000;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 5);
        for io_mode in [IoMode::Synchronous, IoMode::Overlapped] {
            let policy = forcing_policy::<u64>(n, 4, &run_dir()).with_io_mode(io_mode);
            let cfg = HssConfig::default().with_ext_sort(policy);
            let mut m = Machine::flat(p);
            let (_, ext) = HssSorter::new(cfg).sort_out_of_core(&mut m, input.clone());
            assert!(ext.io_wait_seconds > 0.0, "{}: spills must wait on disk", io_mode.name());
            assert!(
                ext.io_wait_seconds <= ext.wall_seconds,
                "{}: io-wait {} exceeds wall {}",
                io_mode.name(),
                ext.io_wait_seconds,
                ext.wall_seconds
            );
            assert!((0.0..=1.0).contains(&ext.io_wait_fraction()));
        }
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
        let policy =
            ExtSortPolicy::new(cap, run_dir()).with_fan_in(2).with_io_mode(IoMode::Overlapped);
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
        let mut stores: Vec<RankStore<u64>> = sorted
            .iter()
            .map(|local| {
                if local.len() <= 400 {
                    return RankStore::Mem(local.clone());
                }
                let runs = ext.form_runs_only(local.clone()).expect("run formation");
                let reader = runs.reader().expect("run reader");
                RankStore::Spilled(Box::new(SpilledStore {
                    runs,
                    reader,
                    probes: ExtSortReport::default(),
                }))
            })
            .collect();
        assert_eq!(stores.iter().filter(|s| matches!(s, RankStore::Spilled(_))).count(), 2);

        let phase = Phase::Histogramming;
        let mut m_ref = Machine::flat(4);
        let expected = hss_partition::global_ranks(&mut m_ref, &sorted, &probes, phase);
        let mut m = Machine::flat(4);
        let total = sizes.iter().sum();
        assert_eq!(ranked(&mut m, &mut stores, &None, &probes, total), expected);
        let (got, want) = (m.metrics().phase(phase), m_ref.metrics().phase(phase));
        assert_eq!(got.compute_ops, want.compute_ops);
        assert_eq!((got.messages, got.comm_words), (want.messages, want.comm_words));
        assert!(got.disk_words > 0 && want.disk_words == 0, "probe reads ride the disk channel");
    }

    #[test]
    fn respects_pinned_prefetch_depth() {
        let p = 4;
        let n = 600;
        let input = KeyDistribution::Uniform.generate_per_rank(p, n, 7);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());
        for depth in [2usize, 8] {
            let policy = forcing_policy::<u64>(n, 4, &run_dir())
                .with_io_mode(IoMode::Overlapped)
                .with_prefetch_depth(depth);
            let cfg = HssConfig::default().with_ext_sort(policy);
            let mut m = Machine::flat(p);
            let (outcome, _) = HssSorter::new(cfg).sort_out_of_core(&mut m, input.clone());
            assert_eq!(outcome.data, reference.data, "depth {depth}");
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
        assert_eq!(outcome.report.total_keys, 800);
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
