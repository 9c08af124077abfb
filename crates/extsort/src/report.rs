//! Instrumentation carried out of every external sort.

use serde::Serialize;

/// What an external sort did and what it cost.
///
/// `io_wait_seconds` is the time the *sorting thread* spent blocked on disk
/// — inline reads/writes/syncs in synchronous mode; waiting for a prefetch
/// buffer, a recycled output block, or the final writeback join in
/// overlapped mode.  It is the quantity overlap exists to shrink: the two
/// modes move identical bytes, so `wall ≈ compute + io_wait`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ExtSortReport {
    /// Records sorted.
    pub elements: u64,
    /// Sorted runs written during run formation.
    pub runs_formed: u64,
    /// Merge passes executed (1 unless `runs_formed > fan_in`).
    pub merge_passes: u64,
    /// Bytes written to scratch files (runs + intermediate merges + spills).
    pub bytes_written: u64,
    /// Bytes read back from scratch files.
    pub bytes_read: u64,
    /// Distinct write syscall/sync units issued.
    pub write_transfers: u64,
    /// Distinct read syscall units issued.
    pub read_transfers: u64,
    /// Seconds the sorting thread spent blocked on disk I/O.
    pub io_wait_seconds: f64,
    /// Wall-clock seconds of the operations this report covers: a whole
    /// sort, or — on the single-pass path — run formation plus the draining
    /// cursor's lifetime.  Every operation that adds `io_wait_seconds`
    /// stamps a wall span containing that wait, so
    /// `io_wait_seconds ≤ wall_seconds` survives [`Self::absorb`].
    pub wall_seconds: f64,
}

impl ExtSortReport {
    /// Total scratch traffic in bytes (both directions) — the β-volume a
    /// disk cost model should charge.
    pub fn disk_bytes(&self) -> u64 {
        self.bytes_written + self.bytes_read
    }

    /// Total transfer count (both directions) — the α count for the same
    /// model.
    pub fn disk_transfers(&self) -> u64 {
        self.write_transfers + self.read_transfers
    }

    /// Fraction of wall-clock spent blocked on I/O, in `[0, 1]` (0 when
    /// wall is 0).
    pub fn io_wait_fraction(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.io_wait_seconds / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Fold another report into this one (per-rank aggregation): counters
    /// add; `merge_passes` takes the max (ranks run their passes
    /// concurrently, so the schedule depth is the deepest rank's).
    pub fn absorb(&mut self, other: &ExtSortReport) {
        self.elements += other.elements;
        self.runs_formed += other.runs_formed;
        self.merge_passes = self.merge_passes.max(other.merge_passes);
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.write_transfers += other.write_transfers;
        self.read_transfers += other.read_transfers;
        self.io_wait_seconds += other.io_wait_seconds;
        self.wall_seconds += other.wall_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_absorb() {
        let mut a = ExtSortReport {
            elements: 10,
            runs_formed: 2,
            merge_passes: 1,
            bytes_written: 80,
            bytes_read: 80,
            write_transfers: 2,
            read_transfers: 4,
            io_wait_seconds: 0.5,
            wall_seconds: 2.0,
        };
        assert_eq!(a.disk_bytes(), 160);
        assert_eq!(a.disk_transfers(), 6);
        assert!((a.io_wait_fraction() - 0.25).abs() < 1e-12);
        let b = ExtSortReport { merge_passes: 3, elements: 5, ..ExtSortReport::default() };
        a.absorb(&b);
        assert_eq!(a.elements, 15);
        assert_eq!(a.merge_passes, 3);
        assert_eq!(ExtSortReport::default().io_wait_fraction(), 0.0);
    }
}
