//! Run formation: stream the input through fixed-budget chunks, sort each
//! chunk in memory, and write it out as a sorted run file.
//!
//! The writes ride a dedicated writeback thread: while chunk `i` is being
//! written (and `fdatasync`ed) the sorting thread is already filling and
//! sorting chunk `i+1` from a recycled buffer, so run formation's
//! wall-clock approaches `max(sort, write)` instead of their sum.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use hss_lsort::RadixSortable;

use crate::config::ExtSortConfig;
use crate::plain::{bytes_of, PlainRecord};
use crate::report::ExtSortReport;

/// A unique scratch subdirectory, removed (with everything inside it) when
/// the guard drops — on success *and* on unwind, so a panicking sort never
/// leaks gigabytes of run files.
#[derive(Debug)]
pub struct RunDirGuard {
    path: PathBuf,
}

impl RunDirGuard {
    /// Create `base/extsort-<pid>-<n>` (first free `n`).  The pid keeps
    /// concurrent processes apart; the counter keeps concurrent sorts in
    /// one process apart.
    pub fn new(base: &Path) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(base)?;
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = base.join(format!("extsort-{}-{n}", std::process::id()));
            match fs::create_dir(&path) {
                Ok(()) => return Ok(Self { path }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The scratch directory this guard owns.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDirGuard {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// One sorted run on disk.
#[derive(Debug, Clone)]
pub(crate) struct RunFile {
    pub path: PathBuf,
    /// Number of records in the file.
    pub elems: u64,
    /// Fence records — the bytes of every [`fence_stride_elems`]-th
    /// record, captured while the sorted chunk was still in memory (so
    /// they cost no extra I/O).  Rank queries binary-search the fences in
    /// memory and touch disk only for the stride the answer lands in;
    /// empty for merge-pass outputs, which are only ever read
    /// sequentially.
    ///
    /// [`fence_stride_elems`]: crate::query::fence_stride_elems
    pub fences: Vec<u8>,
}

/// Capture the in-memory fence records for a sorted chunk about to become
/// a run file: the record at the start of every fence stride.
fn capture_fences<T: PlainRecord>(sorted: &[T]) -> Vec<u8> {
    let stride = crate::query::fence_stride_elems::<T>();
    let picks: Vec<T> = sorted.iter().step_by(stride).copied().collect();
    bytes_of(&picks).to_vec()
}

/// Write one sorted chunk as a run file and force it to the device.
///
/// The `sync_data` is part of the tier's memory contract — a run the OS is
/// still holding dirty in the page cache is not "out of core" — so the
/// writeback thread wins by hiding the cost behind sorting, never by
/// skipping it.
fn write_run<T: PlainRecord>(dir: &Path, idx: u64, sorted: &[T]) -> io::Result<RunFile> {
    let path = dir.join(format!("run-{idx:06}.bin"));
    let mut file = File::create(&path)?;
    file.write_all(bytes_of(sorted))?;
    file.sync_data()?;
    Ok(RunFile { path, elems: sorted.len() as u64, fences: capture_fences(sorted) })
}

/// Sort the filled chunk and hand it to the writeback thread, taking a
/// recycled buffer in exchange.  The blocking part (waiting for a free
/// buffer) is charged as I/O wait — it is exactly the wait that overlap is
/// meant to shrink.  A disconnected channel means the writer died on an
/// I/O error; that error surfaces from the join, so disconnects are
/// swallowed here.
fn hand_off_chunk<T: PlainRecord + RadixSortable>(
    cfg: &ExtSortConfig,
    buf: &mut Vec<T>,
    next_idx: &mut u64,
    full_tx: &mpsc::Sender<(u64, Vec<T>)>,
    free_rx: &mpsc::Receiver<Vec<T>>,
    report: &mut ExtSortReport,
) {
    cfg.local_sort.sort_slice(buf);
    let t = Instant::now();
    let full = std::mem::take(buf);
    if full_tx.send((*next_idx, full)).is_ok() {
        *next_idx += 1;
        if let Ok(fresh) = free_rx.recv() {
            *buf = fresh;
        }
    }
    report.io_wait_seconds += t.elapsed().as_secs_f64();
}

/// Consume `input`, producing sorted runs of `cfg.chunk_elems::<T>()`
/// records each (the final run may be short).  Fills `report`'s formation
/// counters and returns the runs in formation order.
pub(crate) fn form_runs<T, I>(
    input: I,
    cfg: &ExtSortConfig,
    dir: &Path,
    report: &mut ExtSortReport,
) -> io::Result<Vec<RunFile>>
where
    T: PlainRecord + RadixSortable,
    I: Iterator<Item = T>,
{
    let chunk_elems = cfg.chunk_elems::<T>();
    // Sorted chunks travel to the writeback thread and come back empty for
    // refilling: two buffers in flight = the whole memory budget.
    let (full_tx, full_rx) = mpsc::channel::<(u64, Vec<T>)>();
    let (free_tx, free_rx) = mpsc::channel::<Vec<T>>();
    free_tx.send(Vec::with_capacity(chunk_elems)).expect("receiver alive");
    free_tx.send(Vec::with_capacity(chunk_elems)).expect("receiver alive");

    std::thread::scope(|s| -> io::Result<Vec<RunFile>> {
        let writer = s.spawn(move || -> io::Result<(Vec<RunFile>, u64, u64)> {
            let mut runs = Vec::new();
            let (mut bytes, mut transfers) = (0u64, 0u64);
            for (idx, mut chunk) in full_rx {
                let run = write_run(dir, idx, &chunk)?;
                bytes += std::mem::size_of_val(chunk.as_slice()) as u64;
                transfers += 1;
                runs.push(run);
                chunk.clear();
                // The sorting thread may already be gone (input exhausted);
                // an unreceived recycle buffer is fine.
                let _ = free_tx.send(chunk);
            }
            Ok((runs, bytes, transfers))
        });

        let mut next_idx = 0u64;
        let mut buf: Vec<T> = Vec::with_capacity(chunk_elems);
        for item in input {
            buf.push(item);
            if buf.len() == chunk_elems {
                hand_off_chunk(cfg, &mut buf, &mut next_idx, &full_tx, &free_rx, report);
            }
        }
        if !buf.is_empty() {
            hand_off_chunk(cfg, &mut buf, &mut next_idx, &full_tx, &free_rx, report);
        }
        drop(full_tx);

        let t = Instant::now();
        let (runs, bytes, transfers) = writer.join().expect("writeback thread does not panic")?;
        report.io_wait_seconds += t.elapsed().as_secs_f64();
        report.bytes_written += bytes;
        report.write_transfers += transfers;
        Ok(runs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain::bytes_of_mut;

    fn tmp_base() -> PathBuf {
        std::env::temp_dir().join("hss-extsort-test")
    }

    fn read_run(run: &RunFile) -> Vec<u64> {
        let mut out = vec![0u64; run.elems as usize];
        let bytes = fs::read(&run.path).unwrap();
        bytes_of_mut(&mut out).copy_from_slice(&bytes);
        out
    }

    #[test]
    fn run_dir_guard_removes_its_tree_on_drop() {
        let guard = RunDirGuard::new(&tmp_base()).unwrap();
        let inner = guard.path().to_path_buf();
        fs::write(inner.join("x.bin"), b"abc").unwrap();
        assert!(inner.exists());
        drop(guard);
        assert!(!inner.exists());
    }

    #[test]
    fn runs_are_sorted_chunks_of_half_the_cap() {
        let input: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let cfg = ExtSortConfig::new(300 * 8 * 2, tmp_base()); // 300-elem chunks
        let guard = RunDirGuard::new(&cfg.run_dir).unwrap();
        let mut report = ExtSortReport::default();
        let runs = form_runs(input.iter().copied(), &cfg, guard.path(), &mut report).unwrap();
        assert_eq!(runs.len(), 4); // 300+300+300+100
        assert_eq!(report.write_transfers, 4);
        assert_eq!(report.bytes_written, 1000 * 8);
        let contents: Vec<Vec<u64>> = runs.iter().map(read_run).collect();
        for (c, chunk) in contents.iter().zip(input.chunks(300)) {
            let mut expect = chunk.to_vec();
            expect.sort_unstable();
            assert_eq!(c, &expect, "run i is chunk i of the input, sorted");
        }
    }

    #[test]
    fn empty_input_forms_no_runs() {
        let cfg = ExtSortConfig::new(1 << 12, tmp_base());
        let guard = RunDirGuard::new(&cfg.run_dir).unwrap();
        let mut report = ExtSortReport::default();
        let runs = form_runs(std::iter::empty::<u64>(), &cfg, guard.path(), &mut report).unwrap();
        assert!(runs.is_empty());
        assert_eq!(report.bytes_written, 0);
    }
}
