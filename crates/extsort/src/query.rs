//! Rank queries over a set of sorted run files — the primitive that lets
//! splitter determination run *before* any merge happens.
//!
//! A rank whose data lives as `r` sorted runs on disk holds exactly the
//! same multiset as the in-memory path's one sorted array, and every query
//! HSS's splitter rounds ask of that array decomposes over the runs:
//!
//! * **histogram ranks** — `count(key < probe)` is the sum of per-run
//!   binary searches (permutation-invariant among equal keys, so the sum
//!   equals the merged array's `partition_point`);
//! * **interval bounds** — the sampling window `[L, U]` maps to merged
//!   indices `(count(key < L), count(key ≤ U))`, matching
//!   `hss_partition::interval_bounds`' inclusive-endpoint semantics;
//! * **key at merged position `k`** — multi-run selection: probe a
//!   candidate record, count how many records fall strictly below / at or
//!   below it across all runs, and narrow.  Full-record `Ord` makes the
//!   answer well-defined (`Ord`-equal records are key-equal).
//!
//! All reads go through [`RunReader`]: one cached file handle per run and
//! an aligned block window, so the `O(log n)` probes of a binary search
//! reuse the same handle (and, near convergence, the same window) instead
//! of re-opening the file per call.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::marker::PhantomData;
use std::path::Path;
use std::time::Instant;

use hss_keygen::Keyed;

use crate::plain::{bytes_of_mut, PlainRecord};
use crate::runs::RunFile;

/// Records per cached window — equal to the fence stride, so one
/// fence-narrowed search costs exactly one small window read.  Query
/// probes are scattered point lookups; the streaming paths (run
/// formation, merge, drain) use the config's much larger blocks and are
/// unaffected.
pub(crate) fn query_window_elems<T>() -> usize {
    fence_stride_elems::<T>()
}

/// Records per fence — one in-memory fence record per ~512 B of run data
/// (floored so wide records don't inflate the index), captured at
/// run-write time while the sorted chunk is still in memory.  The index
/// costs ~1.5 % of the data in memory — the classic external-structure
/// trade (a B-tree's inner nodes) — and collapses every rank probe from a
/// full on-disk binary search to a single window read.
pub(crate) fn fence_stride_elems<T>() -> usize {
    (512 / std::mem::size_of::<T>()).max(32)
}

/// A cached-handle, windowed random-access reader over one sorted run
/// file: the file is opened once, and `get` serves records out of an
/// aligned block window, refilling only on a miss.  This is the fix for
/// the handle-thrash the per-call `open`+`seek` pattern caused in the
/// sampling path.
#[derive(Debug)]
pub struct RunReader<T: PlainRecord> {
    file: File,
    elems: u64,
    window_start: u64,
    window: Vec<T>,
    window_elems: usize,
    /// In-memory fence records: `fences[j]` is the record at index
    /// `j * fence_stride_elems`, captured at run-write time (no extra
    /// I/O).  Empty when the run was opened without fences; binary
    /// searches then fall back to probing the file at every step.
    fences: Vec<T>,
    bytes_read: u64,
    transfers: u64,
    io_wait: f64,
}

impl<T: PlainRecord> RunReader<T> {
    /// Open a reader with the fence records captured when the run was
    /// written (one record per fence stride; see `fence_stride_elems`).
    pub fn open_with_fences(path: &Path, elems: u64, fences: Vec<T>) -> io::Result<Self> {
        let window_elems = query_window_elems::<T>();
        debug_assert!(
            fences.is_empty()
                || fences.len() as u64 == elems.div_ceil(fence_stride_elems::<T>() as u64),
            "fences must hold exactly one record per fence stride"
        );
        Ok(Self {
            file: File::open(path)?,
            elems,
            window_start: 0,
            window: Vec::new(),
            window_elems,
            fences,
            bytes_read: 0,
            transfers: 0,
            io_wait: 0.0,
        })
    }

    /// Number of records in the run.
    pub fn len(&self) -> u64 {
        self.elems
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.elems == 0
    }

    /// The record at index `idx` (must be `< len()`), served from the
    /// cached window when possible.
    pub fn get(&mut self, idx: u64) -> io::Result<T> {
        debug_assert!(idx < self.elems);
        let off = idx.checked_sub(self.window_start);
        match off {
            Some(o) if (o as usize) < self.window.len() => Ok(self.window[o as usize]),
            _ => {
                self.load_window(idx - idx % self.window_elems as u64)?;
                Ok(self.window[(idx - self.window_start) as usize])
            }
        }
    }

    fn load_window(&mut self, start: u64) -> io::Result<()> {
        let count = (self.elems - start).min(self.window_elems as u64) as usize;
        let t = Instant::now();
        self.window.clear();
        self.window.resize_with(count, T::zeroed_like);
        self.file.seek(SeekFrom::Start(start * std::mem::size_of::<T>() as u64))?;
        self.file.read_exact(bytes_of_mut(&mut self.window))?;
        self.io_wait += t.elapsed().as_secs_f64();
        self.bytes_read += std::mem::size_of_val(self.window.as_slice()) as u64;
        self.transfers += 1;
        self.window_start = start;
        Ok(())
    }

    /// First index in `[lo, hi)` whose record does **not** satisfy `pred`
    /// (`pred` must be monotone over the sorted run) — the on-disk
    /// equivalent of `slice::partition_point` with a narrowed start.
    pub fn partition_point_in<F>(&mut self, mut lo: u64, mut hi: u64, pred: F) -> io::Result<u64>
    where
        F: Fn(&T) -> bool,
    {
        debug_assert!(hi <= self.elems);
        if !self.fences.is_empty() {
            // The global boundary lies just after the last fence satisfying
            // `pred` and at or before the first one failing it, so the disk
            // search collapses to one fence stride; the answer is that
            // boundary clamped into the caller's `[lo, hi]`.
            let stride = fence_stride_elems::<T>() as u64;
            let fp = self.fences.partition_point(|x| pred(x)) as u64;
            let f_lo = if fp == 0 { 0 } else { (fp - 1) * stride + 1 };
            let f_hi = (fp * stride).min(self.elems);
            lo = lo.max(f_lo).min(hi);
            hi = hi.min(f_hi).max(lo);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let v = self.get(mid)?;
            if pred(&v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// [`partition_point_in`](Self::partition_point_in) over the whole run.
    pub fn partition_point<F: Fn(&T) -> bool>(&mut self, pred: F) -> io::Result<u64> {
        self.partition_point_in(0, self.elems, pred)
    }

    /// Drain and reset the reader's I/O counters:
    /// `(bytes_read, transfers, io_wait_seconds)`.
    pub fn take_io(&mut self) -> (u64, u64, f64) {
        let out = (self.bytes_read, self.transfers, self.io_wait);
        self.bytes_read = 0;
        self.transfers = 0;
        self.io_wait = 0.0;
        out
    }
}

/// Helper so `resize_with` can mint zeroed records without a `Default`
/// bound (`PlainRecord` guarantees zero bytes are valid).
trait ZeroedLike: Sized {
    fn zeroed_like() -> Self;
}

impl<T: PlainRecord> ZeroedLike for T {
    fn zeroed_like() -> T {
        // SAFETY: all-zero bytes are a valid `T` by the `PlainRecord`
        // contract.
        unsafe { std::mem::zeroed() }
    }
}

/// Rank queries over one rank's whole set of sorted runs, answered as if
/// against the merged (sorted) array the runs would produce.
#[derive(Debug)]
pub struct RunSetReader<T: PlainRecord> {
    readers: Vec<RunReader<T>>,
    total: u64,
    _marker: PhantomData<T>,
}

impl<T: PlainRecord> RunSetReader<T> {
    pub(crate) fn open(runs: &[RunFile]) -> io::Result<Self> {
        let readers = runs
            .iter()
            .map(|r| {
                let n = r.fences.len() / std::mem::size_of::<T>();
                let mut fences: Vec<T> = Vec::new();
                fences.resize_with(n, T::zeroed_like);
                bytes_of_mut(&mut fences).copy_from_slice(&r.fences);
                RunReader::open_with_fences(&r.path, r.elems, fences)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let total = runs.iter().map(|r| r.elems).sum();
        Ok(Self { readers, total, _marker: PhantomData })
    }

    /// Total records across all runs (= the merged array's length).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Drain and reset the accumulated I/O counters across every reader:
    /// `(bytes_read, transfers, io_wait_seconds)`.
    pub fn take_io(&mut self) -> (u64, u64, f64) {
        let mut out = (0u64, 0u64, 0.0f64);
        for r in &mut self.readers {
            let (b, t, w) = r.take_io();
            out.0 += b;
            out.1 += t;
            out.2 += w;
        }
        out
    }
}

impl<T: PlainRecord + Keyed> RunSetReader<T> {
    /// `count(key < key)` over the merged array.
    pub fn count_lt(&mut self, key: T::K) -> io::Result<u64> {
        let mut n = 0;
        for r in &mut self.readers {
            n += r.partition_point(|x| x.key() < key)?;
        }
        Ok(n)
    }

    /// `count(key ≤ key)` over the merged array.
    pub fn count_le(&mut self, key: T::K) -> io::Result<u64> {
        let mut n = 0;
        for r in &mut self.readers {
            n += r.partition_point(|x| x.key() <= key)?;
        }
        Ok(n)
    }

    /// The merged index range `[start, end)` covered by the **inclusive**
    /// key interval `[lo, hi]` — identical to
    /// `hss_partition::interval_bounds` on the merged array.
    pub fn interval_bounds(&mut self, lo: T::K, hi: T::K) -> io::Result<(u64, u64)> {
        Ok((self.count_lt(lo)?, self.count_le(hi)?))
    }

    /// `count(key < probe)` for every probe (ascending), i.e.
    /// `hss_partition::local_ranks` of the merged array.  Each run sweeps
    /// the probes with a narrowing lower bound, the same suffix-narrowing
    /// the in-memory binary-search strategy uses.
    pub fn local_ranks(&mut self, probes: &[T::K]) -> io::Result<Vec<u64>> {
        let mut out = vec![0u64; probes.len()];
        for r in &mut self.readers {
            let mut lo = 0u64;
            let hi = r.len();
            for (j, &probe) in probes.iter().enumerate() {
                lo = r.partition_point_in(lo, hi, |x| x.key() < probe)?;
                out[j] += lo;
            }
        }
        Ok(out)
    }
}

impl<T: PlainRecord + Keyed + Ord> RunSetReader<T> {
    /// The keys at the given merged positions — fence-bracket selection.
    ///
    /// This is the sampling primitive: a splitter round samples a handful
    /// of merged positions and needs each position's key.  The fence
    /// records (one per `fence_stride_elems`, all in memory) bound any
    /// key's merged rank to within one stride per run, so for a target
    /// rank `t` we can bracket the answer between two fence keys purely in
    /// memory, then read only each run's short span between those fences
    /// — a few strides per run — and select the key from the loaded spans.
    /// A rank whose bracketing fences prove `count(< k) ≤ t < count(≤ k)`
    /// (a plateau of duplicates wider than the fence slack) is answered
    /// with **zero** disk reads.  Degenerate brackets (sparse fences,
    /// fence-less merge outputs) fall back to multi-run selection, which
    /// is always correct.
    pub fn keys_at_ranks(&mut self, positions: &[u64]) -> io::Result<Vec<T::K>> {
        let mut out = Vec::with_capacity(positions.len());
        if positions.is_empty() {
            return Ok(out);
        }
        let stride = fence_stride_elems::<T>() as u64;
        let bracketable = self.readers.iter().all(|r| r.is_empty() || !r.fences.is_empty());
        if !bracketable {
            for &t in positions {
                out.push(self.record_at_rank(t)?.key());
            }
            return Ok(out);
        }
        // Merged fence keys: the in-memory candidate set the bracket is
        // chosen from.  Tiny (one key per stride of data) and built once
        // per call.
        let mut fence_keys: Vec<T::K> =
            self.readers.iter().flat_map(|r| r.fences.iter().map(|f| f.key())).collect();
        fence_keys.sort_unstable();
        // Per-run rank bounds for a key `v`, derived from fences alone:
        // fences at indices `< j` have keys `< v`, so at least
        // `(j-1)·stride + 1` records precede `v` and at most `j·stride` do.
        let lt_bounds = |r: &RunReader<T>, v: T::K| -> (u64, u64) {
            let j = r.fences.partition_point(|f| f.key() < v) as u64;
            let lb = if j == 0 { 0 } else { (j - 1) * stride + 1 };
            let ub = if j < r.fences.len() as u64 { j * stride } else { r.elems };
            (lb, ub)
        };
        let le_lower = |r: &RunReader<T>, v: T::K| -> u64 {
            let j = r.fences.partition_point(|f| f.key() <= v) as u64;
            if j == 0 {
                0
            } else {
                (j - 1) * stride + 1
            }
        };
        let max_span = (8 + 4 * self.readers.len() as u64) * stride;
        let mut span_keys: Vec<T::K> = Vec::new();
        for &t in positions {
            assert!(t < self.total, "position {t} out of range (total {})", self.total);
            // v_lo = largest fence key provably ≤ the answer
            // (count(< v_lo) ≤ t), v_hi = smallest provably above it
            // (count(< v_hi) > t).  Both searches are in-memory.
            let i_lo = fence_keys.partition_point(|&v| {
                self.readers.iter().map(|r| lt_bounds(r, v).1).sum::<u64>() <= t
            });
            let v_lo = i_lo.checked_sub(1).map(|i| fence_keys[i]);
            if let Some(v) = v_lo {
                if self.readers.iter().map(|r| le_lower(r, v)).sum::<u64>() > t {
                    // The fences already prove count(< v) ≤ t < count(≤ v):
                    // the answer is v itself, no disk touched.
                    out.push(v);
                    continue;
                }
            }
            let i_hi = fence_keys.partition_point(|&v| {
                self.readers.iter().map(|r| lt_bounds(r, v).0).sum::<u64>() <= t
            });
            let v_hi = fence_keys.get(i_hi).copied();
            // Per-run span [start, end): start sits just past a fence whose
            // key is < v_lo (so every excluded-below record is strictly
            // below the answer's key, and `start` is its exact rank basis);
            // end sits at a fence whose key is ≥ v_hi (every excluded-above
            // record is strictly above).  The answer is then the
            // (t − Σ start)-th smallest key among the loaded spans.
            let spans: Vec<(u64, u64)> = self
                .readers
                .iter()
                .map(|r| {
                    let s = v_lo.map_or(0, |v| lt_bounds(r, v).0);
                    let e = v_hi.map_or(r.elems, |v| lt_bounds(r, v).1);
                    (s, e)
                })
                .collect();
            let below: u64 = spans.iter().map(|&(s, _)| s).sum();
            let span_total: u64 = spans.iter().map(|&(s, e)| e - s).sum();
            if span_total > max_span {
                // Pathological fence layout — correctness over speed.
                out.push(self.record_at_rank(t)?.key());
                continue;
            }
            span_keys.clear();
            for (i, &(s, e)) in spans.iter().enumerate() {
                for idx in s..e {
                    span_keys.push(self.readers[i].get(idx)?.key());
                }
            }
            span_keys.sort_unstable();
            out.push(span_keys[(t - below) as usize]);
        }
        Ok(out)
    }
}

impl<T: PlainRecord + Ord> RunSetReader<T> {
    /// The record at merged position `k` (0-indexed, `k < total`): multi-run
    /// selection by full-record order.  Because `Ord`-equal records are
    /// indistinguishable, the returned record equals the one at index `k`
    /// of the merged array — and in particular carries its key.
    pub fn record_at_rank(&mut self, k: u64) -> io::Result<T> {
        assert!(k < self.total, "rank {k} out of range (total {})", self.total);
        let n = self.readers.len();
        let mut lo = vec![0u64; n];
        let mut hi: Vec<u64> = self.readers.iter().map(|r| r.len()).collect();
        let mut lt = vec![0u64; n];
        let mut le = vec![0u64; n];
        loop {
            let (r, width) = (0..n)
                .map(|i| (i, hi[i].saturating_sub(lo[i])))
                .max_by_key(|&(_, w)| w)
                .expect("k < total implies at least one run");
            debug_assert!(width > 0, "the answer's run keeps a live range");
            let mid = lo[r] + width / 2;
            let v = self.readers[r].get(mid)?;
            let (mut c_lt, mut c_le) = (0u64, 0u64);
            for i in 0..n {
                lt[i] = self.readers[i].partition_point(|x| x < &v)?;
                le[i] = self.readers[i].partition_point(|x| x <= &v)?;
                c_lt += lt[i];
                c_le += le[i];
            }
            if k < c_lt {
                // Answer < v: nothing at or above each run's first ≥ v
                // position can be it.  (Shrinks run r: lt[r] ≤ mid.)
                for i in 0..n {
                    hi[i] = hi[i].min(lt[i]);
                }
            } else if k >= c_le {
                // Answer > v strictly (equality would have satisfied
                // c_lt ≤ k < c_le).  (Grows run r's lo: le[r] ≥ mid + 1.)
                for i in 0..n {
                    lo[i] = lo[i].max(le[i]);
                }
            } else {
                return Ok(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::RunDirGuard;
    use std::io::Write;

    fn write_run_file(dir: &Path, idx: usize, data: &[u64]) -> RunFile {
        let path = dir.join(format!("run-{idx:06}.bin"));
        let mut f = File::create(&path).unwrap();
        f.write_all(crate::plain::bytes_of(data)).unwrap();
        RunFile { path, elems: data.len() as u64, fences: Vec::new() }
    }

    fn write_fenced_run_file(dir: &Path, idx: usize, data: &[u64]) -> RunFile {
        let mut run = write_run_file(dir, idx, data);
        let picks: Vec<u64> = data.iter().step_by(fence_stride_elems::<u64>()).copied().collect();
        run.fences = crate::plain::bytes_of(&picks).to_vec();
        run
    }

    fn setup_fenced(runs: &[Vec<u64>]) -> (RunDirGuard, Vec<RunFile>) {
        let guard = RunDirGuard::new(&std::env::temp_dir().join("hss-extsort-query-test")).unwrap();
        let files = runs
            .iter()
            .enumerate()
            .map(|(i, r)| write_fenced_run_file(guard.path(), i, r))
            .collect();
        (guard, files)
    }

    fn merged(runs: &[Vec<u64>]) -> Vec<u64> {
        let mut all: Vec<u64> = runs.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }

    fn setup(runs: &[Vec<u64>]) -> (RunDirGuard, Vec<RunFile>) {
        let guard = RunDirGuard::new(&std::env::temp_dir().join("hss-extsort-query-test")).unwrap();
        let files =
            runs.iter().enumerate().map(|(i, r)| write_run_file(guard.path(), i, r)).collect();
        (guard, files)
    }

    #[test]
    fn run_reader_serves_windowed_random_access() {
        let data: Vec<u64> = (0..2000u64).map(|i| i * 3).collect();
        let (guard, files) = setup(std::slice::from_ref(&data));
        let _ = &guard;
        let mut r =
            RunReader::<u64>::open_with_fences(&files[0].path, files[0].elems, Vec::new()).unwrap();
        assert_eq!(r.get(0).unwrap(), 0);
        assert_eq!(r.get(1999).unwrap(), 1999 * 3);
        assert_eq!(r.get(777).unwrap(), 777 * 3);
        // Sequential access costs one transfer per window, not per record.
        let _ = r.take_io();
        for i in 0..512u64 {
            assert_eq!(r.get(i).unwrap(), i * 3);
        }
        let (bytes, transfers, _) = r.take_io();
        let windows = 512u64.div_ceil(query_window_elems::<u64>() as u64);
        assert!(transfers <= windows, "window cache must batch reads ({transfers} > {windows})");
        assert!(bytes > 0);
        assert_eq!(r.partition_point(|&x| x < 3000).unwrap(), 1000);
    }

    #[test]
    fn counts_match_the_merged_array() {
        let runs =
            vec![vec![0, 5, 5, 9, 40], vec![5, 6, 7], vec![], (0..50).map(|i| i * 2).collect()];
        let all = merged(&runs);
        let (guard, files) = setup(&runs);
        let _ = &guard;
        let mut rs = RunSetReader::<u64>::open(&files).unwrap();
        assert_eq!(rs.total(), all.len() as u64);
        for probe in [0u64, 1, 5, 6, 39, 40, 41, 98, 99, 1000] {
            let lt = all.partition_point(|&x| x < probe) as u64;
            let le = all.partition_point(|&x| x <= probe) as u64;
            assert_eq!(rs.count_lt(probe).unwrap(), lt, "lt {probe}");
            assert_eq!(rs.count_le(probe).unwrap(), le, "le {probe}");
        }
        let probes = [3u64, 5, 40, 90];
        let expect: Vec<u64> =
            probes.iter().map(|&p| all.partition_point(|&x| x < p) as u64).collect();
        assert_eq!(rs.local_ranks(&probes).unwrap(), expect);
        let (b, t, _) = rs.take_io();
        assert!(b > 0 && t > 0);
    }

    #[test]
    fn selection_matches_every_merged_position() {
        let runs = vec![vec![1, 1, 4, 4, 4, 9], vec![0, 4, 4, 8], vec![2, 2, 2]];
        let all = merged(&runs);
        let (guard, files) = setup(&runs);
        let _ = &guard;
        let mut rs = RunSetReader::<u64>::open(&files).unwrap();
        for (k, expect) in all.iter().enumerate() {
            assert_eq!(rs.record_at_rank(k as u64).unwrap(), *expect, "k = {k}");
        }
    }

    #[test]
    fn keys_at_ranks_matches_indexing_the_merged_array() {
        let runs = vec![
            (0..900u64).map(|i| i * 2).collect::<Vec<_>>(),
            (0..700u64).map(|i| i * 3).collect(),
            vec![5, 5, 5, 5, 900],
        ];
        let all = merged(&runs);
        let total = all.len() as u64;
        let positions: Vec<u64> = vec![0, 1, 1, 7, 100, 101, 500, 1000, 1001, 1300, total - 1];
        let expect: Vec<u64> = positions.iter().map(|&p| all[p as usize]).collect();
        // Fence-less runs exercise the multi-run-selection fallback;
        // fenced runs exercise the bracket path.  Both must agree with
        // indexing the merged array.
        for fenced in [false, true] {
            let (guard, files) = if fenced { setup_fenced(&runs) } else { setup(&runs) };
            let _ = &guard;
            let mut rs = RunSetReader::<u64>::open(&files).unwrap();
            let got = rs.keys_at_ranks(&positions).unwrap();
            assert_eq!(got, expect, "fenced = {fenced}");
        }
    }

    #[test]
    fn fence_bracket_selection_reads_spans_not_intervals() {
        // Large interleaved runs: every bracket is a few strides per run.
        let runs: Vec<Vec<u64>> = (0..4u64)
            .map(|r| {
                let mut v: Vec<u64> =
                    (0..20_000u64).map(|i| (i * 4 + r).wrapping_mul(0x9E37_79B9) >> 16).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let all = merged(&runs);
        let (guard, files) = setup_fenced(&runs);
        let _ = &guard;
        let mut rs = RunSetReader::<u64>::open(&files).unwrap();
        let total = all.len() as u64;
        let positions: Vec<u64> = (0..16u64).map(|i| i * (total / 16) + 11).collect();
        let got = rs.keys_at_ranks(&positions).unwrap();
        let expect: Vec<u64> = positions.iter().map(|&p| all[p as usize]).collect();
        assert_eq!(got, expect);
        let (bytes, _, _) = rs.take_io();
        // Each selection reads at most the bracket spans — a few fence
        // strides per run — never the whole interval up to the target.
        let stride_bytes = (fence_stride_elems::<u64>() * 8) as u64;
        let budget = positions.len() as u64 * (8 + 4 * runs.len() as u64) * stride_bytes;
        assert!(bytes <= budget, "bracket selection read {bytes} bytes (budget {budget})");
        assert!(bytes * 8 < all.len() as u64 * 8, "must read far less than the data");
    }

    #[test]
    fn plateaus_of_duplicates_resolve_without_disk_reads() {
        // A handful of distinct keys, each plateau spanning many fence
        // strides: the bracket proves count(< k) ≤ t < count(≤ k) from
        // fences alone for positions deep inside a plateau.
        let runs: Vec<Vec<u64>> =
            (0..3).map(|_| (0..30_000u64).map(|i| i / 6_000).collect::<Vec<u64>>()).collect();
        let all = merged(&runs);
        let (guard, files) = setup_fenced(&runs);
        let _ = &guard;
        let mut rs = RunSetReader::<u64>::open(&files).unwrap();
        let total = all.len() as u64;
        let positions: Vec<u64> = (0..10u64).map(|i| i * (total / 10) + total / 20).collect();
        let got = rs.keys_at_ranks(&positions).unwrap();
        let expect: Vec<u64> = positions.iter().map(|&p| all[p as usize]).collect();
        assert_eq!(got, expect);
        let (bytes, _, _) = rs.take_io();
        assert_eq!(bytes, 0, "mid-plateau selections must be answered from fences alone");
    }

    #[test]
    fn fence_assisted_searches_match_and_read_less() {
        // Runs long enough for several windows (512 u64s per window).
        let data: Vec<u64> = (0..40_000u64).map(|i| i.wrapping_mul(7) % 65_536).collect();
        let mut sorted = data.clone();
        sorted.sort_unstable();
        let guard = RunDirGuard::new(&std::env::temp_dir().join("hss-extsort-query-test")).unwrap();
        let file = write_run_file(guard.path(), 0, &sorted);
        let stride = fence_stride_elems::<u64>();
        let fences: Vec<u64> = sorted.iter().step_by(stride).copied().collect();

        let mut plain =
            RunReader::<u64>::open_with_fences(&file.path, file.elems, Vec::new()).unwrap();
        let mut fenced =
            RunReader::<u64>::open_with_fences(&file.path, file.elems, fences).unwrap();
        for probe in [0u64, 1, 777, 32_768, 65_535, 70_000] {
            let a = plain.partition_point(|&x| x < probe).unwrap();
            let b = fenced.partition_point(|&x| x < probe).unwrap();
            assert_eq!(a, b, "probe {probe}");
            let a = plain.partition_point_in(100, 20_000, |&x| x < probe).unwrap();
            let b = fenced.partition_point_in(100, 20_000, |&x| x < probe).unwrap();
            assert_eq!(a, b, "narrowed probe {probe}");
        }
        let (plain_bytes, _, _) = plain.take_io();
        let (fenced_bytes, fenced_transfers, _) = fenced.take_io();
        assert!(
            fenced_bytes * 4 < plain_bytes,
            "fences must cut probe traffic ({fenced_bytes} !< {plain_bytes}/4)"
        );
        // Each fenced search stays inside one fence stride — a handful of
        // 1 KB windows — instead of walking the whole file.
        let windows_per_stride =
            (fence_stride_elems::<u64>() / query_window_elems::<u64>()).max(1) as u64;
        assert!(fenced_transfers <= 12 * windows_per_stride);
    }

    #[test]
    fn interval_bounds_use_inclusive_endpoints() {
        let runs = vec![vec![10u64, 20, 20, 30], vec![20, 25]];
        let all = merged(&runs);
        let (guard, files) = setup(&runs);
        let _ = &guard;
        let mut rs = RunSetReader::<u64>::open(&files).unwrap();
        let (s, e) = rs.interval_bounds(20, 25).unwrap();
        let expect = hss_partition::interval_bounds(&all, &[(20u64, 25u64)]);
        assert_eq!((s as usize, e as usize), expect[0]);
    }
}
