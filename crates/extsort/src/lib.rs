//! # hss-extsort — the out-of-core tier
//!
//! Bounded-memory external sort for datasets larger than a rank's memory
//! budget.  The classic two-phase structure (run formation, then k-way
//! merge) reuses the in-memory pipeline's pieces so the output is **bitwise
//! identical** to [`hss_lsort`]'s sort of the same data:
//!
//! 1. **Run formation** (`runs`): the input streams through fixed-budget
//!    chunks (half the cap each); every chunk is sorted with the same
//!    [`hss_lsort::LocalSortAlgo`] the in-memory path uses and written out
//!    as a sorted run file.
//! 2. **K-way merge** (`dmerge`): bounded windows over the run files feed
//!    `hss-partition`'s [`SourceLoserTree`](hss_partition::SourceLoserTree)
//!    — the same tournament (and tie-break) as the in-memory merge.  More
//!    than `fan_in` runs triggers stable multi-pass merging.
//!
//! Both phases overlap disk with compute on dedicated threads: a
//! writeback thread writes each sorted chunk while the next one is being
//! sorted, and one prefetch thread keeps a block in flight per run while
//! the loser tree consumes the other, so the sort thread only blocks when
//! it outruns the disk — which is exactly what
//! [`ExtSortReport::io_wait_seconds`] measures.
//!
//! Every written block is `fdatasync`ed: a run the OS still holds dirty in
//! the page cache would make the "memory cap" fiction.  The threads win by
//! hiding the write cost behind compute, never by skipping it.
//!
//! I/O threads are plain `std::thread`s, *not* rayon tasks:
//! they block on disk for their whole lifetime, which would deadlock a
//! 1-worker rayon pool (and the CI matrix pins `RAYON_NUM_THREADS=1`).

use std::io;
use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

use hss_lsort::RadixSortable;

pub mod config;
mod dmerge;
pub mod plain;
pub mod query;
pub mod report;
mod runs;

pub use config::{choose_fan_in, ExtSortConfig, IoMode};
pub use dmerge::MergeCursor;
pub use plain::{bytes_of, bytes_of_mut, PlainRecord};
pub use query::RunSetReader;
pub use report::ExtSortReport;
pub use runs::RunDirGuard;

use dmerge::{merge_all, reduce_to_fan_in};
use runs::{form_runs, RunFile};

/// A bounded-memory external sorter: at any instant its record buffers
/// total at most [`ExtSortConfig::memory_cap_bytes`].
///
/// Scratch files live in a unique subdirectory of `config.run_dir`, removed
/// when the sort finishes — including by panic unwind ([`RunDirGuard`]).
#[derive(Debug, Clone)]
pub struct ExternalSorter {
    cfg: ExtSortConfig,
}

impl ExternalSorter {
    pub fn new(cfg: ExtSortConfig) -> Self {
        Self { cfg }
    }

    pub fn config(&self) -> &ExtSortConfig {
        &self.cfg
    }

    /// Sort `input` under the memory cap, materializing the result in
    /// memory.  The *sorter's* working buffers respect the cap; the output
    /// vector itself is the caller's memory (this is the variant used when
    /// a rank's post-exchange partition fits again after spilling).
    pub fn sort_to_vec<T, I>(&self, input: I) -> io::Result<(Vec<T>, ExtSortReport)>
    where
        T: PlainRecord + RadixSortable,
        I: IntoIterator<Item = T>,
    {
        let wall = Instant::now();
        let mut report = ExtSortReport::default();
        let guard = RunDirGuard::new(&self.cfg.run_dir)?;
        let runs = form_runs(input.into_iter(), &self.cfg, guard.path(), &mut report)?;
        report.runs_formed = runs.len() as u64;
        let total: u64 = runs.iter().map(|r| r.elems).sum();
        let mut out = Vec::with_capacity(total as usize);
        let n = merge_all(runs, &self.cfg, guard.path(), &mut out, &mut report)?;
        debug_assert_eq!(n, total);
        report.elements = n;
        report.wall_seconds = wall.elapsed().as_secs_f64();
        Ok((out, report))
    }

    /// Run formation **only**: stream `input` into sorted runs on disk and
    /// stop — no merge, no materialized output.  This is the first half of
    /// the single-pass pipelined path: the returned [`SpilledRuns`] answers
    /// splitter-round rank queries straight off the run files (via
    /// [`SpilledRuns::reader`]) and then turns into a draining
    /// [`MergeCursor`] (via [`SpilledRuns::into_cursor`]), so the rank's
    /// partition is merged exactly once, on its way out to the network.
    pub fn form_runs_only<T, I>(&self, input: I) -> io::Result<SpilledRuns<T>>
    where
        T: PlainRecord + RadixSortable,
        I: IntoIterator<Item = T>,
    {
        let wall = Instant::now();
        let mut report = ExtSortReport::default();
        let guard = RunDirGuard::new(&self.cfg.run_dir)?;
        let runs = form_runs(input.into_iter(), &self.cfg, guard.path(), &mut report)?;
        report.runs_formed = runs.len() as u64;
        let total = runs.iter().map(|r| r.elems).sum();
        report.elements = total;
        report.wall_seconds = wall.elapsed().as_secs_f64();
        Ok(SpilledRuns { runs, guard, cfg: self.cfg.clone(), total, report, _marker: PhantomData })
    }

    /// Merge already-sorted in-memory runs through disk: each run is
    /// spilled to a file, then the bounded k-way merge produces the result.
    ///
    /// This is the exchange-spill path: a rank whose received runs exceed
    /// its cap spills them (freeing the receive memory) and merges under
    /// the bounded windows.  The tie-break is the run's position in
    /// `sorted_runs`, matching the in-memory merge of the same runs in the
    /// same order, so output is bitwise identical.
    pub fn merge_spilled<T>(&self, sorted_runs: &[&[T]]) -> io::Result<(Vec<T>, ExtSortReport)>
    where
        T: PlainRecord + RadixSortable,
    {
        let wall = Instant::now();
        let mut report = ExtSortReport::default();
        let guard = RunDirGuard::new(&self.cfg.run_dir)?;
        let mut runs = Vec::with_capacity(sorted_runs.len());
        for (i, slice) in sorted_runs.iter().enumerate() {
            debug_assert!(slice.windows(2).all(|w| w[0] <= w[1]), "spilled run {i} not sorted");
            runs.push(spill_run(guard.path(), i as u64, slice, &mut report)?);
        }
        report.runs_formed = runs.len() as u64;
        let total: u64 = runs.iter().map(|r| r.elems).sum();
        let mut out = Vec::with_capacity(total as usize);
        let n = merge_all(runs, &self.cfg, guard.path(), &mut out, &mut report)?;
        debug_assert_eq!(n, total);
        report.elements = n;
        report.wall_seconds = wall.elapsed().as_secs_f64();
        Ok((out, report))
    }
}

/// Write one pre-sorted slice as a spill run (single write + sync: the
/// slice is already contiguous in memory, so there is nothing to chunk).
fn spill_run<T: PlainRecord>(
    dir: &Path,
    idx: u64,
    slice: &[T],
    report: &mut ExtSortReport,
) -> io::Result<RunFile> {
    use std::io::Write;
    let path = dir.join(format!("spill-{idx:06}.bin"));
    let t = Instant::now();
    let mut file = std::fs::File::create(&path)?;
    file.write_all(bytes_of(slice))?;
    file.sync_data()?;
    report.io_wait_seconds += t.elapsed().as_secs_f64();
    report.bytes_written += std::mem::size_of_val(slice) as u64;
    report.write_transfers += 1;
    Ok(RunFile { path, elems: slice.len() as u64, fences: Vec::new() })
}

/// A rank's data as sorted runs on disk, produced by
/// [`ExternalSorter::form_runs_only`] — the intermediate state of the
/// single-pass pipeline, between run formation and the draining merge.
/// Dropping it removes the backing scratch directory.
#[derive(Debug)]
pub struct SpilledRuns<T: PlainRecord> {
    runs: Vec<RunFile>,
    guard: RunDirGuard,
    cfg: ExtSortConfig,
    total: u64,
    report: ExtSortReport,
    _marker: PhantomData<T>,
}

impl<T: PlainRecord> SpilledRuns<T> {
    /// Total records across all runs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of sorted runs on disk.
    pub fn runs_formed(&self) -> usize {
        self.runs.len()
    }

    /// I/O accounting so far (run formation, plus any reduction passes
    /// once [`into_cursor`](Self::into_cursor) has run).
    pub fn report(&self) -> &ExtSortReport {
        &self.report
    }

    /// The configuration the cursor will drain under (possibly retuned by
    /// [`tune`](Self::tune)).
    pub fn config(&self) -> &ExtSortConfig {
        &self.cfg
    }

    /// Retune the merge for this run count (see
    /// [`ExtSortConfig::tuned_for`]).
    pub fn tune(&mut self) {
        self.cfg = self.cfg.clone().tuned_for::<T>(self.runs.len());
    }

    /// A rank-query reader over the runs (cached handles, windowed reads):
    /// the splitter-determination interface.  Independent of the cursor —
    /// open, query, and drop it before draining.
    pub fn reader(&self) -> io::Result<RunSetReader<T>> {
        RunSetReader::open(&self.runs)
    }

    /// Reduce to ≤ `fan_in` runs (multi-pass if needed) and open the
    /// pull-based draining merge over what remains.  The cursor inherits
    /// the scratch guard and the accumulated report; its wall clock starts
    /// here, so the reduction passes' io-wait is covered by it.
    pub fn into_cursor(mut self) -> io::Result<MergeCursor<T>>
    where
        T: RadixSortable,
    {
        let started = Instant::now();
        let runs = reduce_to_fan_in::<T>(
            std::mem::take(&mut self.runs),
            &self.cfg,
            self.guard.path(),
            &mut self.report,
        )?;
        MergeCursor::open(runs, &self.cfg, self.guard, self.report, started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hss_keygen::{ByteKey, TeraRecord};

    fn tmp() -> std::path::PathBuf {
        std::env::temp_dir().join("hss-extsort-lib-test")
    }

    fn pseudo_u64s(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
    }

    #[test]
    fn sorts_like_the_in_memory_reference_in_both_modes() {
        // Both output modes: materialized (`sort_to_vec`) and drained
        // (`form_runs_only` + `into_cursor`), with the same accounting.
        let n = 10_000u64;
        let mut expect: Vec<u64> = pseudo_u64s(n).collect();
        expect.sort_unstable();
        // 1/8th of the data volume -> 16 runs, fan_in 4 -> 2 passes.
        let sorter =
            ExternalSorter::new(ExtSortConfig::new((n as usize) * 8 / 8, tmp()).with_fan_in(4));
        let (got, report) = sorter.sort_to_vec(pseudo_u64s(n)).unwrap();
        assert_eq!(got, expect);
        assert_eq!(report.elements, n);
        assert_eq!(report.runs_formed, 16);
        assert_eq!(report.merge_passes, 2);
        assert!(report.bytes_written > 0 && report.bytes_read >= report.bytes_written);

        let mut cursor = sorter.form_runs_only(pseudo_u64s(n)).unwrap().into_cursor().unwrap();
        let drained: Vec<u64> = std::iter::from_fn(|| cursor.next()).collect();
        assert_eq!(drained, expect);
        let streamed = cursor.finish().unwrap();
        let counts = |r: &ExtSortReport| {
            (r.elements, r.runs_formed, r.merge_passes, r.bytes_written, r.bytes_read)
        };
        assert_eq!(counts(&streamed), counts(&report));
    }

    #[test]
    fn single_run_input_takes_one_trivial_pass() {
        let n = 100u64;
        let cfg = ExtSortConfig::new(1 << 20, tmp());
        let (got, report) = ExternalSorter::new(cfg).sort_to_vec(pseudo_u64s(n)).unwrap();
        let mut expect: Vec<u64> = pseudo_u64s(n).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(report.runs_formed, 1);
        assert_eq!(report.merge_passes, 1);
    }

    #[test]
    fn empty_input_sorts_to_empty() {
        let cfg = ExtSortConfig::new(1 << 12, tmp());
        let (got, report) =
            ExternalSorter::new(cfg.clone()).sort_to_vec(std::iter::empty::<u64>()).unwrap();
        assert!(got.is_empty());
        assert_eq!(report.runs_formed, 0);
        let runs = ExternalSorter::new(cfg).form_runs_only(std::iter::empty::<u64>()).unwrap();
        let mut cursor = runs.into_cursor().unwrap();
        assert!(cursor.next().is_none());
        assert_eq!(cursor.finish().unwrap().elements, 0);
    }

    #[test]
    fn multi_pass_sort_round_trips_and_cleans_up() {
        let n = 5_000u64;
        let base = std::env::temp_dir().join("hss-extsort-lib-cleanup-test");
        let _ = std::fs::remove_dir_all(&base);
        let cfg = ExtSortConfig::new(4096, &base).with_fan_in(3);
        let (got, report) = ExternalSorter::new(cfg).sort_to_vec(pseudo_u64s(n)).unwrap();
        assert!(report.merge_passes > 1, "fan_in 3 with many runs must multi-pass");
        let mut expect: Vec<u64> = pseudo_u64s(n).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().flatten().collect();
        assert!(leftovers.is_empty(), "scratch must be removed: {leftovers:?}");
    }

    #[test]
    fn merge_spilled_matches_in_memory_merge() {
        let a: Vec<u64> = (0..500).map(|i| i * 3).collect();
        let b: Vec<u64> = (0..500).map(|i| i * 3 + 1).collect();
        let c: Vec<u64> = (0..400).map(|i| i * 4).collect();
        let mut expect: Vec<u64> = [&a[..], &b[..], &c[..]].concat();
        expect.sort_unstable();
        let cfg = ExtSortConfig::new(1024, tmp()).with_fan_in(2);
        let (got, report) =
            ExternalSorter::new(cfg).merge_spilled(&[&a[..], &b[..], &c[..]]).unwrap();
        assert_eq!(got, expect);
        assert_eq!(report.runs_formed, 3);
        assert_eq!(report.merge_passes, 2, "fan_in 2 over 3 runs is two passes");
    }

    #[test]
    fn formation_and_cursor_stamp_wall_around_their_io_wait() {
        let n = 20_000u64;
        // 16 runs at fan-in 4: the cursor opens after a reduction pass.
        let cfg = ExtSortConfig::new(n as usize, tmp()).with_fan_in(4);
        let runs = ExternalSorter::new(cfg).form_runs_only(pseudo_u64s(n)).unwrap();
        let formed = *runs.report();
        assert!(formed.io_wait_seconds > 0.0, "runs are synced");
        assert!(formed.io_wait_seconds <= formed.wall_seconds);
        let mut cursor = runs.into_cursor().unwrap();
        while cursor.next().is_some() {}
        let drained = cursor.finish().unwrap();
        assert!(drained.io_wait_seconds > formed.io_wait_seconds);
        assert!(
            drained.io_wait_seconds - formed.io_wait_seconds
                <= drained.wall_seconds - formed.wall_seconds,
            "the drain's io-wait must fit in the wall it stamped"
        );
        assert!((0.0..=1.0).contains(&drained.io_wait_fraction()));
    }

    #[test]
    fn tera_records_survive_the_disk_round_trip() {
        let n = 600u64;
        let records: Vec<TeraRecord> = (0..n)
            .map(|i| {
                let x = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
                let mut key = [0u8; 10];
                key[..8].copy_from_slice(&x.to_be_bytes());
                TeraRecord::with_derived_payload(ByteKey(key))
            })
            .collect();
        let mut expect = records.clone();
        expect.sort_unstable();
        // Cap of 50 records' worth of bytes -> 12 runs of 25.
        let cfg = ExtSortConfig::new(100 * 50, tmp()).with_fan_in(4);
        let (got, report) = ExternalSorter::new(cfg).sort_to_vec(records.iter().copied()).unwrap();
        assert_eq!(got, expect);
        assert_eq!(report.runs_formed, n.div_ceil(25));
        assert!(got.iter().all(|r| r.payload_matches_key()), "payloads intact");
    }
}
