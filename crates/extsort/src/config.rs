//! Configuration for the out-of-core sorter.

use std::path::PathBuf;

use hss_lsort::LocalSortAlgo;

/// The out-of-core tier's one disk schedule: dedicated prefetch and
/// writeback threads keep double-buffered block windows in flight.  Kept
/// only so existing `ExtSortPolicy::with_io_mode` callers still compile;
/// there is nothing to choose.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    #[default]
    Overlapped,
}

/// Configuration for [`ExternalSorter`](crate::ExternalSorter).
///
/// The memory story is a hard contract: at any instant the sorter's record
/// buffers total at most `memory_cap_bytes`.  Run formation splits the cap
/// into two chunk buffers (one being sorted while the other is written);
/// each merge pass splits it across `fan_in` double-buffered input windows
/// plus a double-buffered output block.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtSortConfig {
    /// Total record-buffer budget in bytes.  Run length ≈ half of this.
    pub memory_cap_bytes: usize,
    /// Directory under which a unique scratch subdirectory is created (and
    /// removed again when the sort finishes or unwinds).
    pub run_dir: PathBuf,
    /// Maximum runs merged per pass; more runs than this forces multi-pass
    /// merging.  Must be at least 2.
    pub fan_in: usize,
    /// In-memory algorithm used to sort each run before it is written.
    pub local_sort: LocalSortAlgo,
}

impl ExtSortConfig {
    /// A config with the given budget and scratch root; fan-in 16 and the
    /// default (radix) local sort.
    pub fn new(memory_cap_bytes: usize, run_dir: impl Into<PathBuf>) -> Self {
        Self {
            memory_cap_bytes,
            run_dir: run_dir.into(),
            fan_in: 16,
            local_sort: LocalSortAlgo::default(),
        }
    }

    /// Set the merge fan-in (clamped up to 2: a 1-way "merge" would never
    /// reduce the run count and multi-pass merging could not terminate).
    pub fn with_fan_in(mut self, fan_in: usize) -> Self {
        self.fan_in = fan_in.max(2);
        self
    }

    /// Set the in-memory sort used during run formation.
    pub fn with_local_sort(mut self, local_sort: LocalSortAlgo) -> Self {
        self.local_sort = local_sort;
        self
    }

    /// Elements per formation chunk (= per sorted run, except the last).
    ///
    /// Half the cap, so the two chunk buffers — one being sorted while the
    /// writeback thread writes the other — together stay within budget.
    pub fn chunk_elems<T>(&self) -> usize {
        (self.memory_cap_bytes / 2 / std::mem::size_of::<T>()).max(1)
    }

    /// Elements per merge-time I/O block.
    ///
    /// A pass holds `fan_in` double-buffered input windows (one block being
    /// merged, one in flight) plus a double-buffered output stream: the
    /// classic `2 * (fan_in + 1)` blocks within the cap.
    pub fn block_elems<T>(&self) -> usize {
        let blocks = 2 * (self.fan_in + 1);
        (self.memory_cap_bytes / blocks / std::mem::size_of::<T>()).max(1)
    }

    /// Retune for a known run count: widens `fan_in` via [`choose_fan_in`]
    /// so a single merge pass covers all runs when the cap allows it.
    pub fn tuned_for<T>(mut self, runs: usize) -> Self {
        self.fan_in =
            choose_fan_in(self.memory_cap_bytes, std::mem::size_of::<T>(), self.fan_in, runs);
        self
    }

    /// Number of merge passes needed for `runs` initial runs: levels of a
    /// `fan_in`-ary reduction tree (and always at least the single final
    /// pass, which also handles the trivial 0- and 1-run cases).
    pub fn merge_passes_for(&self, runs: usize) -> u64 {
        let mut passes = 1;
        let mut n = runs;
        while n > self.fan_in {
            n = n.div_ceil(self.fan_in);
            passes += 1;
        }
        passes
    }
}

/// Smallest merge I/O block the tuner will accept: below this, per-block
/// overheads swamp the pass a wider fan-in saves.
const MIN_TUNED_BLOCK_BYTES: usize = 4 << 10;

/// Widen `fan_in` to cover all `runs` in a single merge pass when the cap
/// still leaves every input window a block of at least
/// `MIN_TUNED_BLOCK_BYTES` — one pass instead of two is a whole
/// read+write round-trip of the data.  Otherwise the configured fan-in is
/// kept (never narrowed: fewer passes always beats bigger blocks here).
pub fn choose_fan_in(
    memory_cap_bytes: usize,
    record_bytes: usize,
    fan_in: usize,
    runs: usize,
) -> usize {
    if runs <= fan_in {
        return fan_in;
    }
    let block_bytes = memory_cap_bytes / (2 * (runs + 1));
    if block_bytes >= MIN_TUNED_BLOCK_BYTES.max(record_bytes) {
        runs
    } else {
        fan_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_and_block_sizing_respects_the_cap() {
        let cfg = ExtSortConfig::new(1 << 20, "/tmp/x").with_fan_in(8);
        let chunk = cfg.chunk_elems::<u64>();
        assert_eq!(chunk, (1 << 20) / 2 / 8);
        // Two chunk buffers fit the cap exactly.
        assert!(2 * chunk * 8 <= cfg.memory_cap_bytes);
        let block = cfg.block_elems::<u64>();
        // fan_in + 1 double-buffered block streams fit the cap.
        assert!(2 * (cfg.fan_in + 1) * block * 8 <= cfg.memory_cap_bytes);
        // Degenerate caps still make progress one element at a time.
        let tiny = ExtSortConfig::new(1, "/tmp/x");
        assert_eq!(tiny.chunk_elems::<u64>(), 1);
        assert_eq!(tiny.block_elems::<u64>(), 1);
    }

    #[test]
    fn merge_pass_count_is_the_reduction_tree_depth() {
        let cfg = ExtSortConfig::new(1 << 20, "/tmp/x").with_fan_in(4);
        assert_eq!(cfg.merge_passes_for(0), 1);
        assert_eq!(cfg.merge_passes_for(1), 1);
        assert_eq!(cfg.merge_passes_for(4), 1);
        assert_eq!(cfg.merge_passes_for(5), 2);
        assert_eq!(cfg.merge_passes_for(16), 2);
        assert_eq!(cfg.merge_passes_for(17), 3);
        assert_eq!(cfg.merge_passes_for(64), 3);
        assert_eq!(cfg.merge_passes_for(65), 4);
    }

    #[test]
    fn fan_in_is_clamped_to_two() {
        let cfg = ExtSortConfig::new(1024, "/tmp/x").with_fan_in(0);
        assert_eq!(cfg.fan_in, 2);
    }

    #[test]
    fn default_depth_reproduces_the_classic_double_buffer_split() {
        // Every input window and the output stream hold two blocks:
        // 2*(8+1) blocks at fan-in 8, within the cap at any fan-in.
        let cfg = ExtSortConfig::new(1 << 20, "/tmp/x").with_fan_in(8);
        assert_eq!(cfg.block_elems::<u64>(), (1 << 20) / (2 * 9) / 8);
        for fan_in in [2usize, 16, 100] {
            let c = cfg.clone().with_fan_in(fan_in);
            assert!(2 * (fan_in + 1) * c.block_elems::<u64>() * 8 <= c.memory_cap_bytes);
        }
    }

    #[test]
    fn fan_in_chooser_only_widens_when_blocks_stay_sane() {
        // 24 runs, roomy cap: one pass, fan-in widened to cover all runs.
        assert_eq!(choose_fan_in(1 << 22, 8, 16, 24), 24);
        // Tiny cap: widening would shatter the blocks — keep the default.
        assert_eq!(choose_fan_in(1 << 14, 8, 16, 24), 16);
        // Already covered: unchanged.
        assert_eq!(choose_fan_in(1 << 22, 8, 16, 10), 16);
    }

    #[test]
    fn tuned_for_widens_fan_in_to_cover_the_runs() {
        let cfg = ExtSortConfig::new(1 << 20, "/tmp/x").with_fan_in(16);
        assert_eq!(cfg.clone().tuned_for::<u64>(24).fan_in, 24, "one pass covers all runs");
        assert_eq!(cfg.clone().tuned_for::<u64>(10), cfg, "already covered: unchanged");
        // 1000 runs would leave ~500-byte blocks: the configured fan-in stays.
        assert_eq!(cfg.clone().tuned_for::<u64>(1000), cfg);
    }
}
