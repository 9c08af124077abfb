//! K-way merge of on-disk runs under the memory cap.
//!
//! Each run is read through a bounded *window* (one block of
//! `ExtSortConfig::block_elems` records); the windows feed the generic
//! [`SourceLoserTree`] from `hss-partition`, so the comparison logic — and
//! therefore the output order, including the lower-run-index tie-break — is
//! exactly the in-memory merge's.  More runs than `fan_in` triggers
//! level-by-level multi-pass merging; because every pass is stable and
//! groups runs in order, the multi-pass result is bitwise identical to a
//! single giant merge.
//!
//! Every merge reads through one prefetch thread that services all runs
//! (double-buffered per run: one window being consumed, one block in
//! flight), and an intermediate pass's output drains through a writeback
//! thread fed a double-buffered stream, so the merge thread only ever
//! blocks when it outruns the disk.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

use hss_lsort::RadixSortable;
use hss_partition::{RunSource, SourceLoserTree};

use crate::config::ExtSortConfig;
use crate::plain::{bytes_of, bytes_of_mut, PlainRecord};
use crate::report::ExtSortReport;
use crate::runs::RunFile;

/// A `Vec<T>` with every byte of its capacity initialized (to zero), so
/// later `set_len` calls within the capacity are sound.  Zero is a valid
/// value for any `PlainRecord`.
fn alloc_zeroed<T: PlainRecord>(elems: usize) -> Vec<T> {
    let mut v: Vec<T> = Vec::with_capacity(elems);
    // SAFETY: the allocation holds `elems` elements; zero bytes are a valid
    // `T` by the `PlainRecord` contract.
    unsafe {
        std::ptr::write_bytes(v.as_mut_ptr(), 0, elems);
        v.set_len(elems);
    }
    v
}

/// Sequential block reader over one run file.
struct BlockReader<T> {
    file: File,
    /// Records not yet read.
    remaining: u64,
    _marker: PhantomData<T>,
}

impl<T: PlainRecord> BlockReader<T> {
    fn open(run: &RunFile) -> io::Result<Self> {
        Ok(Self { file: File::open(&run.path)?, remaining: run.elems, _marker: PhantomData })
    }

    /// Fill `buf` with the next `≤ block_elems` records (empty at EOF).
    /// `buf` must come from [`alloc_zeroed`] so its capacity is initialized.
    fn next_block(&mut self, buf: &mut Vec<T>, block_elems: usize) -> io::Result<()> {
        let k = self.remaining.min(block_elems as u64) as usize;
        debug_assert!(buf.capacity() >= k, "block buffer must come from alloc_zeroed");
        // SAFETY: k ≤ capacity and the capacity is fully initialized.
        unsafe { buf.set_len(k) };
        if k > 0 {
            self.file.read_exact(bytes_of_mut(buf))?;
            self.remaining -= k as u64;
        }
        Ok(())
    }
}

/// Windowed run reader fed by the shared prefetch thread.  Holds one window
/// while the prefetcher fills the run's second buffer; exhausting the
/// window swaps them (a recv that only blocks if the disk fell behind).
struct AsyncDiskSource<T: PlainRecord> {
    run_idx: usize,
    data_rx: mpsc::Receiver<Vec<T>>,
    req_tx: mpsc::Sender<(usize, Vec<T>)>,
    window: Vec<T>,
    pos: usize,
    eof: bool,
    io_wait: f64,
}

impl<T: PlainRecord> AsyncDiskSource<T> {
    fn new(
        run_idx: usize,
        data_rx: mpsc::Receiver<Vec<T>>,
        req_tx: mpsc::Sender<(usize, Vec<T>)>,
    ) -> Self {
        let mut src =
            Self { run_idx, data_rx, req_tx, window: Vec::new(), pos: 0, eof: false, io_wait: 0.0 };
        // Pull the first block so `peek` works before the tree is built.
        src.advance_window();
        src
    }

    fn advance_window(&mut self) {
        if self.eof {
            return;
        }
        let t = Instant::now();
        match self.data_rx.recv() {
            Ok(next) if !next.is_empty() => {
                let old = std::mem::replace(&mut self.window, next);
                // Recycle the drained buffer as the request for the block
                // after the one already in flight (double buffering).  The
                // construction-time window is an unallocated placeholder,
                // not one of the run's two real buffers — dropping it keeps
                // the budget at exactly two blocks per run.
                if old.capacity() > 0 {
                    let _ = self.req_tx.send((self.run_idx, old));
                }
            }
            // Empty block = EOF marker; a disconnect means the prefetcher
            // died on an I/O error, which the pass surfaces after joining.
            _ => {
                self.eof = true;
                self.window.clear();
            }
        }
        self.io_wait += t.elapsed().as_secs_f64();
        self.pos = 0;
    }
}

impl<T: PlainRecord + RadixSortable> RunSource for AsyncDiskSource<T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        self.window.get(self.pos)
    }

    fn pop(&mut self) -> Option<T> {
        let item = *self.window.get(self.pos)?;
        self.pos += 1;
        if self.pos == self.window.len() {
            self.advance_window();
        }
        Some(item)
    }
}

/// The prefetch thread: one request queue for all runs (a single spindle
/// serializes anyway), per-run reply channels.  Returns
/// `(bytes_read, read_transfers, first_error)`.
fn prefetch_loop<T: PlainRecord>(
    mut readers: Vec<BlockReader<T>>,
    req_rx: mpsc::Receiver<(usize, Vec<T>)>,
    data_txs: Vec<mpsc::Sender<Vec<T>>>,
    block_elems: usize,
) -> (u64, u64, Option<io::Error>) {
    let (mut bytes, mut transfers) = (0u64, 0u64);
    let mut error: Option<io::Error> = None;
    for (idx, mut buf) in req_rx {
        if error.is_some() {
            buf.clear();
            let _ = data_txs[idx].send(buf); // reads as EOF
            continue;
        }
        match readers[idx].next_block(&mut buf, block_elems) {
            Ok(()) => {
                if !buf.is_empty() {
                    bytes += std::mem::size_of_val(buf.as_slice()) as u64;
                    transfers += 1;
                }
                let _ = data_txs[idx].send(buf);
            }
            Err(e) => {
                error = Some(e);
                buf.clear();
                let _ = data_txs[idx].send(buf);
            }
        }
    }
    (bytes, transfers, error)
}

/// What the prefetch thread returns: `(bytes_read, read_transfers,
/// first_error)`.
type PrefetchTotals = (u64, u64, Option<io::Error>);

/// The read side of one merge over a run set: a loser tree of
/// [`AsyncDiskSource`]s, one per run, all fed by a single prefetch thread.
/// Every merge pass and every [`MergeCursor`] reads its runs through one of
/// these.  The thread is a plain `std::thread` that owns its readers and
/// channels, so a cursor can outlive the call that opened it; dropping the
/// merge disconnects the sources and joins the thread, so it never touches
/// a scratch file after its `RunDirGuard` is gone.
struct RunMerge<T: PlainRecord + RadixSortable> {
    /// Taken only by [`finish`](Self::finish) and drop.
    tree: Option<SourceLoserTree<AsyncDiskSource<T>>>,
    prefetcher: Option<JoinHandle<PrefetchTotals>>,
}

impl<T: PlainRecord + RadixSortable> RunMerge<T> {
    fn open(runs: &[RunFile], block_elems: usize) -> io::Result<Self> {
        let readers =
            runs.iter().map(BlockReader::open).collect::<io::Result<Vec<BlockReader<T>>>>()?;
        let (req_tx, req_rx) = mpsc::channel::<(usize, Vec<T>)>();
        let (data_txs, data_rxs): (Vec<_>, Vec<_>) =
            runs.iter().map(|_| mpsc::channel::<Vec<T>>()).unzip();
        let prefetcher =
            std::thread::spawn(move || prefetch_loop(readers, req_rx, data_txs, block_elems));
        // Two buffers per run, both starting as queued requests, so every
        // source has a block read (or in flight) before the merge starts;
        // each drained window re-queues itself — the double buffer.
        for idx in 0..runs.len() {
            for _ in 0..2 {
                req_tx.send((idx, alloc_zeroed::<T>(block_elems))).expect("prefetcher alive");
            }
        }
        let sources: Vec<AsyncDiskSource<T>> = data_rxs
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| AsyncDiskSource::new(idx, rx, req_tx.clone()))
            .collect();
        Ok(Self { tree: Some(SourceLoserTree::new(sources)), prefetcher: Some(prefetcher) })
    }

    fn tree(&mut self) -> &mut SourceLoserTree<AsyncDiskSource<T>> {
        self.tree.as_mut().expect("the merge is open until finished")
    }

    /// Stop reading: add the sources' io-wait and the prefetch thread's
    /// byte and transfer counts to `report`, and return the first read
    /// error.  A failed read makes its source read as exhausted, so the
    /// error — not a silently short stream — is the caller's signal.
    fn finish(mut self, report: &mut ExtSortReport) -> io::Result<()> {
        // Dropping the sources disconnects the request channel, which ends
        // the prefetch loop.
        for src in self.tree.take().expect("finished once").into_sources() {
            report.io_wait_seconds += src.io_wait;
        }
        let prefetcher = self.prefetcher.take().expect("finished once");
        let (bytes, transfers, error) = prefetcher.join().expect("prefetch thread does not panic");
        report.bytes_read += bytes;
        report.read_transfers += transfers;
        error.map_or(Ok(()), Err)
    }
}

impl<T: PlainRecord + RadixSortable> Drop for RunMerge<T> {
    fn drop(&mut self) {
        self.tree.take();
        if let Some(handle) = self.prefetcher.take() {
            let _ = handle.join();
        }
    }
}

/// The writeback thread: drains full output blocks to the file (each
/// `sync_data`ed, as run formation's runs are) and recycles them.  Returns
/// `(bytes_written, write_transfers)`.
fn writeback_loop<T: PlainRecord>(
    path: &Path,
    full_rx: mpsc::Receiver<Vec<T>>,
    free_tx: mpsc::Sender<Vec<T>>,
) -> io::Result<(u64, u64)> {
    let mut file = File::create(path)?;
    let (mut bytes, mut transfers) = (0u64, 0u64);
    for mut buf in full_rx {
        file.write_all(bytes_of(&buf))?;
        file.sync_data()?;
        bytes += std::mem::size_of_val(buf.as_slice()) as u64;
        transfers += 1;
        buf.clear();
        let _ = free_tx.send(buf);
    }
    Ok((bytes, transfers))
}

/// Where a merge pass delivers its output.
pub(crate) enum PassOutput<'a, T> {
    /// Append to an in-memory vector (the final pass).
    Vec(&'a mut Vec<T>),
    /// Write a new run file (an intermediate pass).
    File(&'a Path),
}

/// Pull every record out of `tree` through `emit`; returns the count.
fn drive<T, S, F>(tree: &mut SourceLoserTree<S>, mut emit: F) -> u64
where
    S: RunSource<Item = T>,
    F: FnMut(T),
{
    let mut n = 0u64;
    while let Some(x) = tree.next() {
        emit(x);
        n += 1;
    }
    n
}

/// Drain `tree` to the file at `path` in `block_elems` blocks through a
/// writeback thread, accumulating the write accounting into `report`.
/// Returns the record count.
fn drive_to_file<T, S>(
    tree: &mut SourceLoserTree<S>,
    path: &Path,
    block_elems: usize,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord,
    S: RunSource<Item = T>,
{
    std::thread::scope(|s| {
        let (full_tx, full_rx) = mpsc::channel::<Vec<T>>();
        let (free_tx, free_rx) = mpsc::channel::<Vec<T>>();
        let writer = s.spawn(move || writeback_loop(path, full_rx, free_tx));
        let mut out_buf: Vec<T> = Vec::with_capacity(block_elems);
        let mut spare: Option<Vec<T>> = Some(Vec::with_capacity(block_elems));
        let mut wait = 0.0f64;
        let n = drive(tree, |x| {
            out_buf.push(x);
            if out_buf.len() == block_elems {
                let t = Instant::now();
                let full = std::mem::replace(
                    &mut out_buf,
                    match spare.take() {
                        Some(b) => b,
                        // Blocks only while the writeback thread is still
                        // syncing the previous block.
                        None => free_rx.recv().unwrap_or_default(),
                    },
                );
                // A disconnect means the writer died on an I/O error,
                // surfaced at the join below.
                let _ = full_tx.send(full);
                wait += t.elapsed().as_secs_f64();
            }
        });
        if !out_buf.is_empty() {
            let _ = full_tx.send(out_buf);
        }
        drop(full_tx);
        let t = Instant::now();
        let (bytes, transfers) = writer.join().expect("writeback thread does not panic")?;
        wait += t.elapsed().as_secs_f64();
        report.io_wait_seconds += wait;
        report.bytes_written += bytes;
        report.write_transfers += transfers;
        Ok(n)
    })
}

/// Merge `runs` (each individually sorted) into `out` in one pass,
/// accumulating I/O accounting into `report`.  Returns the record count.
pub(crate) fn merge_pass<T>(
    runs: &[RunFile],
    cfg: &ExtSortConfig,
    out: PassOutput<'_, T>,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord + RadixSortable,
{
    let block_elems = cfg.block_elems::<T>();
    let mut merge = RunMerge::open(runs, block_elems)?;
    let emitted = match out {
        PassOutput::Vec(dst) => drive(merge.tree(), |x| dst.push(x)),
        PassOutput::File(path) => drive_to_file(merge.tree(), path, block_elems, report)?,
    };
    merge.finish(report)?;
    Ok(emitted)
}

/// Run intermediate `fan_in`-way passes until at most `fan_in` runs remain
/// (the precondition for a single final pass — or for opening a pull-based
/// [`MergeCursor`] over them).  Consumed run files are deleted as soon as
/// their pass completes, so peak scratch usage stays within ~2× the data
/// volume.  Does *not* charge the final pass to `report.merge_passes`.
pub(crate) fn reduce_to_fan_in<T>(
    mut runs: Vec<RunFile>,
    cfg: &ExtSortConfig,
    dir: &Path,
    report: &mut ExtSortReport,
) -> io::Result<Vec<RunFile>>
where
    T: PlainRecord + RadixSortable,
{
    let mut next_id = 0u64;
    while runs.len() > cfg.fan_in {
        report.merge_passes += 1;
        let mut next = Vec::with_capacity(runs.len().div_ceil(cfg.fan_in));
        for group in runs.chunks(cfg.fan_in) {
            let path = dir.join(format!("merge-{next_id:06}.bin"));
            next_id += 1;
            let elems = merge_pass(group, cfg, PassOutput::<T>::File(&path), report)?;
            for r in group {
                let _ = fs::remove_file(&r.path);
            }
            next.push(RunFile { path, elems, fences: Vec::new() });
        }
        runs = next;
    }
    Ok(runs)
}

/// Merge an arbitrary number of runs into `out`, running as many
/// intermediate `fan_in`-way passes as needed.  Returns the total record
/// count delivered.
pub(crate) fn merge_all<T>(
    runs: Vec<RunFile>,
    cfg: &ExtSortConfig,
    dir: &Path,
    out: &mut Vec<T>,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord + RadixSortable,
{
    let runs = reduce_to_fan_in::<T>(runs, cfg, dir, report)?;
    report.merge_passes += 1;
    merge_pass(&runs, cfg, PassOutput::Vec(out), report)
}

/// A pull-based draining merge over at most `fan_in` sorted runs: the final
/// merge pass of the external sort exposed as a cursor instead of a written
/// output file.  `peek`/`next` emit the sorted stream block-by-block under
/// the memory cap — the same loser tree, block windows, prefetch thread and
/// tie-break as `merge_pass`, so the emission order is bitwise identical to
/// `sort_to_vec` of the same input — while the consumer classifies and
/// ships each record without it ever touching disk again.
///
/// The prefetch thread (plain `std::thread`, never rayon) keeps a block in
/// flight per run for the cursor's whole lifetime; [`finish`](Self::finish)
/// joins it and returns the accumulated I/O accounting.  Dropping the
/// cursor early also joins the thread (via channel disconnect), so no
/// scratch file outlives its `RunDirGuard`.
pub struct MergeCursor<T: PlainRecord + RadixSortable> {
    /// Declared before `_guard`, so it is dropped — and its prefetch
    /// thread joined — before the scratch directory goes.
    merge: RunMerge<T>,
    report: ExtSortReport,
    /// When the drain began (before any fan-in reduction pass): every
    /// second of io-wait the cursor accrues falls between this instant and
    /// [`finish`](Self::finish), which stamps the span as wall time.
    started: Instant,
    emitted: u64,
    total: u64,
    _guard: crate::runs::RunDirGuard,
}

impl<T: PlainRecord + RadixSortable> MergeCursor<T> {
    /// Open a cursor over `runs` (already reduced to ≤ `cfg.fan_in`),
    /// taking ownership of the scratch directory guard and the report that
    /// accumulated run formation + reduction passes.  The drain itself
    /// counts as the final merge pass.
    pub(crate) fn open(
        runs: Vec<RunFile>,
        cfg: &ExtSortConfig,
        guard: crate::runs::RunDirGuard,
        mut report: ExtSortReport,
        started: Instant,
    ) -> io::Result<Self> {
        debug_assert!(runs.len() <= cfg.fan_in, "reduce_to_fan_in must run first");
        report.merge_passes += 1;
        let total: u64 = runs.iter().map(|r| r.elems).sum();
        let merge = RunMerge::open(&runs, cfg.block_elems::<T>())?;
        Ok(Self { merge, report, started, emitted: 0, total, _guard: guard })
    }

    /// The head of the merged stream without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.merge.tree.as_ref().and_then(|t| t.peek())
    }

    /// Pop the next record of the merged stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<T> {
        self.pop_if(|_| true)
    }

    /// Records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records the fully drained stream will have emitted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Snapshot of the accumulated I/O report (run formation plus any
    /// fan-in reduction passes; the cursor's own reads are only harvested
    /// by [`Self::finish`]).
    pub fn report(&self) -> &ExtSortReport {
        &self.report
    }

    /// Number of runs the draining loser tree merges (≤ the configured
    /// fan-in).
    pub fn source_count(&self) -> usize {
        self.merge.tree.as_ref().map_or(0, |t| t.len())
    }

    /// Close the cursor: collect per-source I/O accounting, join the
    /// prefetch thread, and surface the first I/O error (a failed read
    /// makes a source read as exhausted, so the error — not a silently
    /// short stream — is the caller's signal).
    ///
    /// The report's `wall_seconds` grows by the cursor's whole lifetime —
    /// reduction passes, every pull, this shutdown — not by the pulls
    /// alone: timing each `next` would cost more than the merge step it
    /// measures.  The io-wait the drain added is therefore never larger
    /// than the wall it added.
    pub fn finish(self) -> io::Result<ExtSortReport> {
        let MergeCursor { merge, mut report, started, emitted, .. } = self;
        report.elements = emitted;
        let read = merge.finish(&mut report);
        report.wall_seconds += started.elapsed().as_secs_f64();
        read.map(|()| report)
    }
}

impl<T: PlainRecord + RadixSortable> RunSource for MergeCursor<T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        MergeCursor::peek(self)
    }

    fn pop(&mut self) -> Option<T> {
        self.next()
    }

    fn pop_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let item = self.merge.tree.as_mut()?.next_if(pred)?;
        self.emitted += 1;
        Some(item)
    }
}

impl<T: PlainRecord + RadixSortable> std::fmt::Debug for MergeCursor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeCursor")
            .field("emitted", &self.emitted)
            .field("total", &self.total)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::{form_runs, RunDirGuard};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Run `body` on its own thread and fail if it has not returned within
    /// a minute: a merge waiting on a prefetcher that stopped answering
    /// would block forever.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            body();
            let _ = tx.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(60)) {
            panic!("the merge hung");
        }
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn a_truncated_run_fails_the_merge_pass_and_the_cursor() {
        within_a_minute(|| {
            // 8 runs of 500 records, read in blocks of 55.
            let base = std::env::temp_dir().join("hss-extsort-dmerge-test");
            let cfg = ExtSortConfig::new(2 * 500 * 8, base).with_fan_in(8);
            let guard = RunDirGuard::new(&cfg.run_dir).unwrap();
            let dir = guard.path().to_path_buf();
            let mut report = ExtSortReport::default();
            let input = (0..4000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let runs = form_runs(input, &cfg, &dir, &mut report).unwrap();
            assert_eq!(runs.len(), 8);
            // Run 3 loses half its records: its fifth block read hits EOF.
            File::options().write(true).open(&runs[3].path).unwrap().set_len(250 * 8).unwrap();

            let mut out: Vec<u64> = Vec::new();
            let err = merge_pass(&runs, &cfg, PassOutput::Vec(&mut out), &mut report).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(out.len() < 4000, "the pass stopped short, and said so");
            let to_file = PassOutput::File(&dir.join("merge.bin"));
            assert!(merge_pass::<u64>(&runs, &cfg, to_file, &mut report).is_err());

            let mut cursor = MergeCursor::<u64>::open(runs, &cfg, guard, report, Instant::now())
                .expect("the run files open");
            let mut drained = 0;
            while cursor.next().is_some() {
                drained += 1;
            }
            assert!(drained < cursor.total(), "the cursor stopped early");
            let err = cursor.finish().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
            assert!(!dir.exists(), "the scratch directory went with the cursor's guard");
        });
    }
}
