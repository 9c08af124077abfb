//! The BSP / alpha-beta cost model used to charge simulated time.
//!
//! The paper analyses HSS in the bulk synchronous parallel (BSP) model of
//! Valiant (§5.1), characterised by `T_I` — the unit computational time —
//! and `T_c` — the time to communicate one unit (word) of data.  On top of
//! that the paper distinguishes *binomial* and *pipelined* implementations of
//! the broadcast / reduction collectives:
//!
//! * binomial tree: a message of `S` words costs `O(S log p)`;
//! * pipelined: the message is chopped into fragments and streamed down a
//!   chain/tree, costing `O(S + log p)` — the right choice for large `S`
//!   and large `p` and the one assumed by Table 5.1.
//!
//! [`CostModel`] turns message sizes and operation counts into simulated
//! seconds so experiments at `p` far beyond the host's core count still show
//! the right *scaling shape*.  The default constants are calibrated loosely
//! to a Blue Gene/Q class machine (a few GB/s of injection bandwidth per
//! node, a few microseconds of latency, ~1 ns per comparison) — absolute
//! values are irrelevant for the reproduction, ratios are what matter.

use serde::{Deserialize, Serialize};

/// Which algorithm the simulated runtime uses for rooted collectives
/// (broadcast, reduction, gather of equal contributions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Binomial spanning tree: `ceil(log2 p)` rounds, the whole message is
    /// forwarded in every round.  Cost `~ alpha*log p + beta*S*log p`.
    Binomial,
    /// Pipelined tree/chain: the message is split into fragments which are
    /// streamed, overlapping rounds.  Cost `~ alpha*log p + beta*S`.
    Pipelined,
}

/// BSP cost-model parameters.
///
/// All times are in (simulated) seconds.  "Word" is the accounting unit for
/// communication volume; key and record types report their size in words via
/// the algorithms that use the model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `T_I`: time for one unit of computation (one comparison / one key
    /// moved within memory).
    pub unit_compute: f64,
    /// `T_c` (beta): time to transfer one word across the network.
    pub unit_comm: f64,
    /// alpha: fixed overhead per point-to-point message.
    pub latency: f64,
    /// Disk beta: time to move one word (8 bytes, the same unit as
    /// `unit_comm` — β-volume is charged in bytes via `words_of_width`)
    /// between a rank's memory and its local disk, in either direction.
    /// The out-of-core tier charges run formation and merge passes here.
    pub unit_disk: f64,
    /// Disk alpha: fixed overhead per discrete disk transfer (one block
    /// read or one written-and-synced block), mirroring `latency` for the
    /// NIC channel.
    pub disk_latency: f64,
    /// Algorithm used for broadcasts and reductions.
    pub collective: CollectiveAlgo,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::bluegene_like()
    }
}

impl CostModel {
    /// A Blue Gene/Q-flavoured parameter set: ~1 ns per comparison,
    /// ~1 GB/s per-rank effective bandwidth for 8-byte words (8 ns/word),
    /// ~3 us message latency, pipelined collectives (as assumed by
    /// Table 5.1 for large messages); a ~500 MB/s per-rank disk
    /// (16 ns/word) with ~100 us per discrete transfer, the I/O-node class
    /// storage the out-of-core tier spills to.
    pub fn bluegene_like() -> Self {
        Self {
            unit_compute: 1.0e-9,
            unit_comm: 8.0e-9,
            latency: 3.0e-6,
            unit_disk: 1.6e-8,
            disk_latency: 1.0e-4,
            collective: CollectiveAlgo::Pipelined,
        }
    }

    /// A cost model that charges nothing; useful in unit tests that only
    /// care about data movement correctness.
    pub fn free() -> Self {
        Self {
            unit_compute: 0.0,
            unit_comm: 0.0,
            latency: 0.0,
            unit_disk: 0.0,
            disk_latency: 0.0,
            collective: CollectiveAlgo::Pipelined,
        }
    }

    /// Override the disk channel parameters (β per word, α per transfer).
    pub fn with_disk(mut self, unit_disk: f64, disk_latency: f64) -> Self {
        self.unit_disk = unit_disk;
        self.disk_latency = disk_latency;
        self
    }

    /// Simulated time for `ops` units of local computation.
    pub fn compute(&self, ops: u64) -> f64 {
        self.unit_compute * ops as f64
    }

    /// Simulated time for a single point-to-point message of `words` words.
    pub fn point_to_point(&self, words: u64) -> f64 {
        self.latency + self.unit_comm * words as f64
    }

    /// Simulated time for moving `words` words between memory and the local
    /// disk in `transfers` discrete operations (the disk channel's α-β
    /// formula: `transfers·disk_latency + words·unit_disk`).  Reads and
    /// writes are charged identically; a merge pass that reads and rewrites
    /// every word therefore pays twice its data volume.
    pub fn disk_transfer(&self, words: u64, transfers: u64) -> f64 {
        self.disk_latency * transfers as f64 + self.unit_disk * words as f64
    }

    /// `ceil(log2 p)`, the number of rounds of a binomial tree over `p`
    /// participants; 0 when `p <= 1`.
    pub fn log2_ceil(p: usize) -> u32 {
        if p <= 1 {
            0
        } else {
            usize::BITS - (p - 1).leading_zeros()
        }
    }

    /// Communication time for broadcasting a message of `words` words from
    /// one root to `p` ranks.
    pub fn broadcast(&self, words: u64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = Self::log2_ceil(p) as f64;
        match self.collective {
            CollectiveAlgo::Binomial => rounds * (self.latency + self.unit_comm * words as f64),
            CollectiveAlgo::Pipelined => rounds * self.latency + self.unit_comm * words as f64,
        }
    }

    /// Communication time for reducing per-rank contributions of `words`
    /// words each down to one root (e.g. summing local histograms).  Same
    /// shape as a broadcast; the local combine work is charged separately as
    /// compute by the caller.
    pub fn reduce(&self, words: u64, p: usize) -> f64 {
        self.broadcast(words, p)
    }

    /// Communication time for gathering `total_words` words (summed over all
    /// ranks) at one root.  The root has to receive every word, so the cost
    /// is dominated by `O(total_words)` regardless of tree shape; we charge
    /// one latency per tree round.
    pub fn gather(&self, total_words: u64, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let rounds = Self::log2_ceil(p) as f64;
        rounds * self.latency + self.unit_comm * total_words as f64
    }

    /// Communication time of an irregular all-to-all (`MPI_Alltoallv`-like)
    /// exchange, in the BSP spirit: the bottleneck rank pays for the larger
    /// of what it sends and what it receives, plus one latency per peer it
    /// actually exchanges a message with.
    pub fn all_to_allv(&self, max_send_or_recv_words: u64, max_peer_messages: u64) -> f64 {
        self.latency * max_peer_messages as f64 + self.unit_comm * max_send_or_recv_words as f64
    }

    /// Compute time of a comparison sort of `n` keys: `n log2 n` comparisons.
    pub fn sort_ops(n: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        let logn = (n as f64).log2().ceil() as u64;
        n * logn.max(1)
    }

    /// Compute time of an MSD radix sort of `n` keys over `passes` digit
    /// (byte) levels: each pass reads every key once to classify it and
    /// moves it once in the block permutation, so `2·n·passes` ops.  This
    /// is deliberately the *worst-case* pass count of the key type (8 for
    /// 64-bit keys) — the implementation's prefix skipping and base-case
    /// cutoffs only ever do less — so simulated radix costs are an upper
    /// bound, just as `n log2 n` is for comparison sorts.  At `N/p ≥ 2^16`
    /// the model correctly ranks radix (`16n` for u64) below comparison
    /// (`n log2 n ≥ 16n`), mirroring the measured wall-clock crossover.
    pub fn radix_sort_ops(n: u64, passes: u64) -> u64 {
        if n <= 1 {
            return 0;
        }
        2 * n * passes.max(1)
    }

    /// Compute time of merging `n` total keys arriving in `pieces` sorted
    /// runs: `n log2 pieces` comparisons.
    pub fn merge_ops(n: u64, pieces: u64) -> u64 {
        if n == 0 || pieces <= 1 {
            return n;
        }
        let logp = (pieces as f64).log2().ceil() as u64;
        n * logp.max(1)
    }

    /// Compute time of `queries` binary searches over `n` sorted keys.
    pub fn binary_search_ops(queries: u64, n: u64) -> u64 {
        if n <= 1 {
            return queries;
        }
        let logn = (n as f64).log2().ceil() as u64;
        queries * logn.max(1)
    }

    /// Compute time of branch-free decision-tree classification of `n` keys
    /// against an implicit splitter tree of height `log_buckets`: one descend
    /// step per level per key (`n·log_buckets`), with a floor of one op per
    /// key so classifying into a single bucket is never free.  The per-step
    /// constant is deliberately *smaller* than a binary-search step's — the
    /// descend is branchless and runs with several keys in flight, which is
    /// exactly why the tree strategy exists (see
    /// `hss_partition::classify`).
    pub fn classify_ops(n: u64, log_buckets: u64) -> u64 {
        n * log_buckets.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(CostModel::log2_ceil(1), 0);
        assert_eq!(CostModel::log2_ceil(2), 1);
        assert_eq!(CostModel::log2_ceil(3), 2);
        assert_eq!(CostModel::log2_ceil(4), 2);
        assert_eq!(CostModel::log2_ceil(5), 3);
        assert_eq!(CostModel::log2_ceil(1024), 10);
        assert_eq!(CostModel::log2_ceil(1025), 11);
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.compute(1_000_000), 0.0);
        assert_eq!(m.broadcast(1 << 20, 4096), 0.0);
        assert_eq!(m.all_to_allv(1 << 30, 4096), 0.0);
        assert_eq!(m.disk_transfer(1 << 30, 4096), 0.0);
    }

    #[test]
    fn disk_transfer_charges_alpha_beta() {
        let m = CostModel::bluegene_like();
        let t = m.disk_transfer(1000, 4);
        let expected = 4.0 * m.disk_latency + 1000.0 * m.unit_disk;
        assert_eq!(t.to_bits(), expected.to_bits());
        // The disk is slower than the NIC per word in the default model —
        // the regime where spilling to disk is a last resort, as on the
        // paper's target machines.
        assert!(m.unit_disk > m.unit_comm);
        let custom = m.with_disk(1.0e-9, 0.0);
        assert_eq!(custom.disk_transfer(8, 3).to_bits(), 8.0e-9f64.to_bits());
    }

    #[test]
    fn pipelined_broadcast_beats_binomial_for_large_messages() {
        let p = 4096;
        let words = 1 << 22;
        let pipe = CostModel::bluegene_like();
        let bino = CostModel { collective: CollectiveAlgo::Binomial, ..CostModel::bluegene_like() };
        assert!(pipe.broadcast(words, p) < bino.broadcast(words, p));
    }

    #[test]
    fn binomial_and_pipelined_agree_for_two_ranks() {
        // With p = 2 there is a single round, so both formulas coincide.
        let words = 1234;
        let pipe = CostModel::bluegene_like();
        let bino = CostModel { collective: CollectiveAlgo::Binomial, ..CostModel::bluegene_like() };
        assert!((pipe.broadcast(words, 2) - bino.broadcast(words, 2)).abs() < 1e-12);
    }

    #[test]
    fn broadcast_to_single_rank_is_free() {
        let m = CostModel::bluegene_like();
        assert_eq!(m.broadcast(100, 1), 0.0);
        assert_eq!(m.reduce(100, 1), 0.0);
        assert_eq!(m.gather(100, 1), 0.0);
    }

    #[test]
    fn compute_scales_linearly() {
        let m = CostModel::bluegene_like();
        assert!((m.compute(2_000) - 2.0 * m.compute(1_000)).abs() < 1e-15);
    }

    #[test]
    fn sort_and_merge_op_counts() {
        assert_eq!(CostModel::sort_ops(0), 0);
        assert_eq!(CostModel::sort_ops(1), 0);
        assert_eq!(CostModel::sort_ops(2), 2);
        // 1024 keys -> 10 * 1024 comparisons.
        assert_eq!(CostModel::sort_ops(1024), 10 * 1024);
        assert_eq!(CostModel::merge_ops(1000, 1), 1000);
        assert_eq!(CostModel::merge_ops(1024, 8), 3 * 1024);
        assert_eq!(CostModel::binary_search_ops(10, 1024), 100);
    }

    #[test]
    fn radix_sort_ops_cross_comparison_at_64k() {
        assert_eq!(CostModel::radix_sort_ops(0, 8), 0);
        assert_eq!(CostModel::radix_sort_ops(1, 8), 0);
        assert_eq!(CostModel::radix_sort_ops(1000, 8), 16_000);
        // At n = 2^16 the models tie (16n each); above, radix is cheaper.
        let n = 1u64 << 16;
        assert_eq!(CostModel::radix_sort_ops(n, 8), CostModel::sort_ops(n));
        let n = 1u64 << 20;
        assert!(CostModel::radix_sort_ops(n, 8) < CostModel::sort_ops(n));
        // Below the crossover the comparison model is cheaper — also true
        // on real hardware, which is why the insertion base case exists.
        assert!(CostModel::radix_sort_ops(1 << 8, 8) > CostModel::sort_ops(1 << 8));
    }

    #[test]
    fn classify_ops_scale_with_tree_height() {
        assert_eq!(CostModel::classify_ops(0, 5), 0);
        assert_eq!(CostModel::classify_ops(1000, 5), 5_000);
        // A single-bucket tree still touches every key once.
        assert_eq!(CostModel::classify_ops(1000, 0), 1000);
        // A tree descend step is cheaper than a binary-search step at equal
        // height (the branchless-pipelining premise of the classify term).
        assert!(CostModel::classify_ops(1000, 10) <= CostModel::binary_search_ops(1000, 1024));
    }

    #[test]
    fn all_to_allv_charges_latency_per_peer() {
        let m = CostModel::bluegene_like();
        let few_peers = m.all_to_allv(1000, 10);
        let many_peers = m.all_to_allv(1000, 1000);
        assert!(many_peers > few_peers);
        let diff = many_peers - few_peers;
        assert!((diff - 990.0 * m.latency).abs() < 1e-9);
    }
}
