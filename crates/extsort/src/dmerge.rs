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
//! In [`IoMode::Overlapped`] a single prefetch thread services all runs
//! (double-buffered per run: one window being consumed, one block in
//! flight) and a writeback thread drains a double-buffered output stream,
//! so the merge thread only ever blocks when it outruns the disk.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use hss_lsort::RadixSortable;
use hss_partition::{RunSource, SourceLoserTree};

use crate::config::{ExtSortConfig, IoMode};
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

/// Windowed run reader with inline (blocking) refills.
pub(crate) struct SyncDiskSource<T: PlainRecord> {
    reader: BlockReader<T>,
    window: Vec<T>,
    pos: usize,
    block_elems: usize,
    io_wait: f64,
    bytes_read: u64,
    transfers: u64,
    /// First refill error, surfaced after the pass (the trait's `pop`
    /// cannot return it); the source then reads as exhausted.
    error: Option<io::Error>,
}

impl<T: PlainRecord> SyncDiskSource<T> {
    fn new(run: &RunFile, block_elems: usize) -> io::Result<Self> {
        let mut src = Self {
            reader: BlockReader::open(run)?,
            window: alloc_zeroed(block_elems),
            pos: 0,
            block_elems,
            io_wait: 0.0,
            bytes_read: 0,
            transfers: 0,
            error: None,
        };
        src.refill();
        Ok(src)
    }

    fn refill(&mut self) {
        let t = Instant::now();
        match self.reader.next_block(&mut self.window, self.block_elems) {
            Ok(()) => {
                if !self.window.is_empty() {
                    self.bytes_read += std::mem::size_of_val(self.window.as_slice()) as u64;
                    self.transfers += 1;
                }
            }
            Err(e) => {
                self.error.get_or_insert(e);
                self.window.clear();
            }
        }
        self.io_wait += t.elapsed().as_secs_f64();
        self.pos = 0;
    }
}

impl<T: PlainRecord + RadixSortable> RunSource for SyncDiskSource<T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        self.window.get(self.pos)
    }

    fn pop(&mut self) -> Option<T> {
        let item = *self.window.get(self.pos)?;
        self.pos += 1;
        if self.pos == self.window.len() {
            self.refill();
        }
        Some(item)
    }
}

/// Windowed run reader fed by the shared prefetch thread.  Holds one window
/// while the prefetcher fills the run's second buffer; exhausting the
/// window swaps them (a recv that only blocks if the disk fell behind).
pub(crate) struct AsyncDiskSource<T: PlainRecord> {
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

/// Block-buffered, `sync_data`-per-block writer used by the synchronous
/// arm's file output.
struct SyncBlockWriter<T: PlainRecord> {
    file: File,
    buf: Vec<T>,
    block_elems: usize,
    io_wait: f64,
    bytes: u64,
    transfers: u64,
}

impl<T: PlainRecord> SyncBlockWriter<T> {
    fn create(path: &Path, block_elems: usize) -> io::Result<Self> {
        Ok(Self {
            file: File::create(path)?,
            buf: Vec::with_capacity(block_elems),
            block_elems,
            io_wait: 0.0,
            bytes: 0,
            transfers: 0,
        })
    }

    fn push(&mut self, x: T) -> io::Result<()> {
        self.buf.push(x);
        if self.buf.len() == self.block_elems {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        let t = Instant::now();
        self.file.write_all(bytes_of(&self.buf))?;
        self.file.sync_data()?;
        self.io_wait += t.elapsed().as_secs_f64();
        self.bytes += std::mem::size_of_val(self.buf.as_slice()) as u64;
        self.transfers += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flush the tail block and return `(io_wait, bytes, transfers)`.
    fn finish(mut self) -> io::Result<(f64, u64, u64)> {
        if !self.buf.is_empty() {
            self.flush_block()?;
        }
        Ok((self.io_wait, self.bytes, self.transfers))
    }
}

/// The writeback thread: drains full output blocks to the file (with the
/// same per-block `sync_data` the synchronous arm pays inline) and recycles
/// them.  Returns `(bytes_written, write_transfers)`.
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
    /// Append to an in-memory vector (the final pass of `sort_to_vec`).
    Vec(&'a mut Vec<T>),
    /// Write a new run file (intermediate passes and `sort_to_file`).
    File(&'a Path),
}

/// Pull every record out of `tree` through `emit`; returns the count.
fn drive<T, S, F>(tree: &mut SourceLoserTree<S>, mut emit: F) -> io::Result<u64>
where
    S: RunSource<Item = T>,
    F: FnMut(T) -> io::Result<()>,
{
    let mut n = 0u64;
    while let Some(x) = tree.next() {
        emit(x)?;
        n += 1;
    }
    Ok(n)
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
    match cfg.io_mode {
        IoMode::Synchronous => merge_pass_sync(runs, cfg, out, report),
        IoMode::Overlapped => merge_pass_overlapped(runs, cfg, out, report),
    }
}

fn merge_pass_sync<T>(
    runs: &[RunFile],
    cfg: &ExtSortConfig,
    out: PassOutput<'_, T>,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord + RadixSortable,
{
    let block_elems = cfg.block_elems::<T>();
    let sources =
        runs.iter().map(|r| SyncDiskSource::new(r, block_elems)).collect::<io::Result<Vec<_>>>()?;
    let mut tree = SourceLoserTree::new(sources);
    let emitted = match out {
        PassOutput::Vec(dst) => drive(&mut tree, |x| {
            dst.push(x);
            Ok(())
        })?,
        PassOutput::File(path) => {
            let mut writer = SyncBlockWriter::create(path, block_elems)?;
            let n = drive(&mut tree, |x| writer.push(x))?;
            let (io_wait, bytes, transfers) = writer.finish()?;
            report.io_wait_seconds += io_wait;
            report.bytes_written += bytes;
            report.write_transfers += transfers;
            n
        }
    };
    for mut src in tree.into_sources() {
        report.io_wait_seconds += src.io_wait;
        report.bytes_read += src.bytes_read;
        report.read_transfers += src.transfers;
        if let Some(e) = src.error.take() {
            return Err(e);
        }
    }
    Ok(emitted)
}

fn merge_pass_overlapped<T>(
    runs: &[RunFile],
    cfg: &ExtSortConfig,
    out: PassOutput<'_, T>,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord + RadixSortable,
{
    let block_elems = cfg.block_elems::<T>();
    let readers =
        runs.iter().map(BlockReader::open).collect::<io::Result<Vec<BlockReader<T>>>>()?;
    let (req_tx, req_rx) = mpsc::channel::<(usize, Vec<T>)>();
    let mut data_txs = Vec::with_capacity(runs.len());
    let mut data_rxs = Vec::with_capacity(runs.len());
    for _ in runs {
        let (tx, rx) = mpsc::channel::<Vec<T>>();
        data_txs.push(tx);
        data_rxs.push(rx);
    }

    std::thread::scope(|s| -> io::Result<u64> {
        let prefetcher = s.spawn(move || prefetch_loop(readers, req_rx, data_txs, block_elems));
        // `prefetch_depth` buffers per run, all starting as queued requests,
        // so every source has that many blocks read (or in flight) before
        // the merge starts; each drained window re-queues itself, keeping
        // the depth constant.  Depth 2 is the classic double buffer.
        for idx in 0..runs.len() {
            for _ in 0..cfg.prefetch_depth.max(2) {
                req_tx.send((idx, alloc_zeroed::<T>(block_elems))).expect("prefetcher alive");
            }
        }
        let sources: Vec<AsyncDiskSource<T>> = data_rxs
            .into_iter()
            .enumerate()
            .map(|(idx, rx)| AsyncDiskSource::new(idx, rx, req_tx.clone()))
            .collect();
        drop(req_tx);
        let mut tree = SourceLoserTree::new(sources);

        let emitted = match out {
            PassOutput::Vec(dst) => drive(&mut tree, |x| {
                dst.push(x);
                Ok(())
            })?,
            PassOutput::File(path) => {
                let (wfull_tx, wfull_rx) = mpsc::channel::<Vec<T>>();
                let (wfree_tx, wfree_rx) = mpsc::channel::<Vec<T>>();
                let writer = s.spawn(move || writeback_loop(path, wfull_rx, wfree_tx));
                let mut out_buf: Vec<T> = Vec::with_capacity(block_elems);
                let mut spare: Option<Vec<T>> = Some(Vec::with_capacity(block_elems));
                let mut wait = 0.0f64;
                let n = drive(&mut tree, |x| {
                    out_buf.push(x);
                    if out_buf.len() == block_elems {
                        let t = Instant::now();
                        let full = std::mem::replace(
                            &mut out_buf,
                            match spare.take() {
                                Some(b) => b,
                                // Blocks only while the writeback thread is
                                // still syncing the previous block.
                                None => wfree_rx.recv().unwrap_or_default(),
                            },
                        );
                        // A disconnect means the writer died on an I/O
                        // error, surfaced at the join below.
                        let _ = wfull_tx.send(full);
                        wait += t.elapsed().as_secs_f64();
                    }
                    Ok(())
                })?;
                if !out_buf.is_empty() {
                    let _ = wfull_tx.send(out_buf);
                }
                drop(wfull_tx);
                let t = Instant::now();
                let (bytes, transfers) = writer.join().expect("writeback thread does not panic")?;
                wait += t.elapsed().as_secs_f64();
                report.io_wait_seconds += wait;
                report.bytes_written += bytes;
                report.write_transfers += transfers;
                n
            }
        };

        // Dropping the sources disconnects the request channel, which ends
        // the prefetch loop.
        for src in tree.into_sources() {
            report.io_wait_seconds += src.io_wait;
        }
        let (bytes, transfers, error) = prefetcher.join().expect("prefetch thread does not panic");
        report.bytes_read += bytes;
        report.read_transfers += transfers;
        match error {
            Some(e) => Err(e),
            None => Ok(emitted),
        }
    })
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

/// Merge an arbitrary number of runs down to `out`, running as many
/// intermediate `fan_in`-way passes as needed.  Returns the total record
/// count delivered.
pub(crate) fn merge_all<T>(
    runs: Vec<RunFile>,
    cfg: &ExtSortConfig,
    dir: &Path,
    out: PassOutput<'_, T>,
    report: &mut ExtSortReport,
) -> io::Result<u64>
where
    T: PlainRecord + RadixSortable,
{
    let runs = reduce_to_fan_in::<T>(runs, cfg, dir, report)?;
    report.merge_passes += 1;
    merge_pass(&runs, cfg, out, report)
}

/// Either arm's windowed source behind one type, so a [`MergeCursor`]'s
/// tree is monomorphic over the I/O mode chosen at open time.
pub(crate) enum CursorSource<T: PlainRecord> {
    Sync(SyncDiskSource<T>),
    Async(AsyncDiskSource<T>),
}

impl<T: PlainRecord + RadixSortable> RunSource for CursorSource<T> {
    type Item = T;

    fn peek(&self) -> Option<&T> {
        match self {
            CursorSource::Sync(s) => s.peek(),
            CursorSource::Async(s) => s.peek(),
        }
    }

    fn pop(&mut self) -> Option<T> {
        match self {
            CursorSource::Sync(s) => s.pop(),
            CursorSource::Async(s) => s.pop(),
        }
    }
}

/// A pull-based draining merge over at most `fan_in` sorted runs: the final
/// merge pass of the external sort exposed as a cursor instead of a written
/// output file.  `peek`/`next` emit the sorted stream block-by-block under
/// the memory cap — the same loser tree, block windows, and tie-break as
/// `merge_pass`, so the emission order is bitwise identical to
/// `sort_to_vec` of the same input — while the consumer classifies and
/// ships each record without it ever touching disk again.
///
/// Under [`IoMode::Overlapped`] a dedicated prefetch thread (plain
/// `std::thread`, never rayon) keeps `prefetch_depth` blocks in flight per
/// run for the cursor's whole lifetime; [`finish`](Self::finish) joins it
/// and returns the accumulated I/O accounting.  Dropping the cursor early
/// also joins the thread (via channel disconnect), so no scratch file
/// outlives its `RunDirGuard`.
pub struct MergeCursor<T: PlainRecord + RadixSortable> {
    tree: Option<SourceLoserTree<CursorSource<T>>>,
    prefetcher: Option<std::thread::JoinHandle<(u64, u64, Option<io::Error>)>>,
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
        let block_elems = cfg.block_elems::<T>();
        let (sources, prefetcher) = match cfg.io_mode {
            IoMode::Synchronous => {
                let sources = runs
                    .iter()
                    .map(|r| SyncDiskSource::new(r, block_elems).map(CursorSource::Sync))
                    .collect::<io::Result<Vec<_>>>()?;
                (sources, None)
            }
            IoMode::Overlapped => {
                let readers = runs
                    .iter()
                    .map(BlockReader::open)
                    .collect::<io::Result<Vec<BlockReader<T>>>>()?;
                let (req_tx, req_rx) = mpsc::channel::<(usize, Vec<T>)>();
                let mut data_txs = Vec::with_capacity(runs.len());
                let mut data_rxs = Vec::with_capacity(runs.len());
                for _ in &runs {
                    let (tx, rx) = mpsc::channel::<Vec<T>>();
                    data_txs.push(tx);
                    data_rxs.push(rx);
                }
                // Non-scoped: the cursor outlives this function, so the
                // prefetcher owns its readers and channels outright.
                let handle = std::thread::spawn(move || {
                    prefetch_loop(readers, req_rx, data_txs, block_elems)
                });
                for idx in 0..runs.len() {
                    for _ in 0..cfg.prefetch_depth.max(2) {
                        req_tx
                            .send((idx, alloc_zeroed::<T>(block_elems)))
                            .expect("prefetcher alive");
                    }
                }
                let sources: Vec<CursorSource<T>> = data_rxs
                    .into_iter()
                    .enumerate()
                    .map(|(idx, rx)| {
                        CursorSource::Async(AsyncDiskSource::new(idx, rx, req_tx.clone()))
                    })
                    .collect();
                drop(req_tx);
                (sources, Some(handle))
            }
        };
        Ok(Self {
            tree: Some(SourceLoserTree::new(sources)),
            prefetcher,
            report,
            started,
            emitted: 0,
            total,
            _guard: guard,
        })
    }

    /// The head of the merged stream without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.tree.as_ref().and_then(|t| t.peek())
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
        self.tree.as_ref().map_or(0, |t| t.len())
    }

    /// Close the cursor: collect per-source I/O accounting, join the
    /// prefetch thread, and surface the first I/O error (a failed refill
    /// makes a source read as exhausted, so the error — not a silently
    /// short stream — is the caller's signal).
    ///
    /// The report's `wall_seconds` grows by the cursor's whole lifetime —
    /// reduction passes, every pull, this shutdown — not by the pulls
    /// alone: timing each `next` would cost more than the merge step it
    /// measures.  The io-wait the drain added is therefore never larger
    /// than the wall it added.
    pub fn finish(mut self) -> io::Result<ExtSortReport> {
        let mut report = std::mem::take(&mut self.report);
        report.elements = self.emitted;
        let mut first_err: Option<io::Error> = None;
        if let Some(tree) = self.tree.take() {
            for src in tree.into_sources() {
                match src {
                    CursorSource::Sync(mut s) => {
                        report.io_wait_seconds += s.io_wait;
                        report.bytes_read += s.bytes_read;
                        report.read_transfers += s.transfers;
                        if let Some(e) = s.error.take() {
                            first_err.get_or_insert(e);
                        }
                    }
                    CursorSource::Async(s) => report.io_wait_seconds += s.io_wait,
                }
            }
        }
        if let Some(handle) = self.prefetcher.take() {
            let (bytes, transfers, err) = handle.join().expect("prefetch thread does not panic");
            report.bytes_read += bytes;
            report.read_transfers += transfers;
            if let Some(e) = err {
                first_err.get_or_insert(e);
            }
        }
        report.wall_seconds += self.started.elapsed().as_secs_f64();
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
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
        let item = self.tree.as_mut()?.next_if(pred)?;
        self.emitted += 1;
        Some(item)
    }
}

impl<T: PlainRecord + RadixSortable> Drop for MergeCursor<T> {
    fn drop(&mut self) {
        // Dropping the sources disconnects the request channel, which ends
        // the prefetch loop; joining keeps the thread from touching scratch
        // files after the guard below removes the directory.
        self.tree.take();
        if let Some(handle) = self.prefetcher.take() {
            let _ = handle.join();
        }
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
