//! The `O(p·m)` host cost of a histogramming round must not come back.
//!
//! Before the fused round every simulated rank built its own probe index
//! and returned its own `m`-word rank vector for `reduce_sum` to fold:
//! `p·m` words of allocation per round.  Now a round allocates one
//! `(m+1)`-slot accumulator per superstep chunk (four chunks per host
//! thread, the pool's own split), at most one tree, and the
//! per-rank `Work` bookkeeping — so the bytes it requests must not grow
//! with `p` beyond that bookkeeping.  The counting allocator is per binary,
//! hence a test target (and a single `#[test]`) of its own.

use hss_bench::alloc_counter::{allocated_bytes, CountingAllocator};
use hss_partition::{classify_strategy, global_ranks, ClassifyStrategy};
use hss_sim::{Machine, Phase};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const N: usize = 1024;
const WORKERS: usize = 2;
/// Per-rank bookkeeping a round may allocate: the rank's `Work`, its
/// state reference and its simulated duration, with slack.
const PER_RANK_BYTES: u64 = 64;

fn sorted_ranks(p: usize) -> Vec<Vec<u64>> {
    (0..p as u64)
        .map(|r| {
            let mut v: Vec<u64> =
                (0..N as u64).map(|i| (i * 2_654_435_761 + r * 97) << 20).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Bytes one warm histogramming round requests at `p` ranks.
fn round_bytes(p: usize, probes: &[u64]) -> u64 {
    let data = sorted_ranks(p);
    let mut machine = Machine::flat(p);
    // First round: pool start-up, thread-locals, the metrics map's node.
    global_ranks(&mut machine, &data, probes, Phase::Histogramming);
    let before = allocated_bytes();
    let ranks = global_ranks(&mut machine, &data, probes, Phase::Histogramming);
    let bytes = allocated_bytes() - before;
    assert_eq!(*ranks.last().unwrap(), (p * N) as u64, "the last probe is MAX_KEY");
    bytes
}

#[test]
fn histogram_round_allocation_does_not_grow_with_p() {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(WORKERS).build().expect("pool");
    // m = 1280 takes the merge-sweep arm at n = 1024; m = 5120 (the
    // benchmark's u64-wide-skew shape) the decision tree.
    for (m, arm) in
        [(1280usize, ClassifyStrategy::MergeSweep), (5120, ClassifyStrategy::DecisionTree)]
    {
        assert_eq!(classify_strategy(N, m), arm);
        let mut probes: Vec<u64> = (1..m as u64).map(|i| i * (u64::MAX / m as u64)).collect();
        probes.push(u64::MAX);
        let words = 8 * (m as u64 + 1);
        // One tree: the padded splitters and the Eytzinger array.
        let tree = 2 * 8 * (m as u64 + 1).next_power_of_two();

        let (small, large) = pool.install(|| (round_bytes(64, &probes), round_bytes(256, &probes)));
        assert!(
            large <= (4 * WORKERS as u64 + 2) * words + tree + 256 * PER_RANK_BYTES,
            "m = {m}: a p = 256 round requested {large} bytes"
        );
        assert!(
            large <= small + (256 - 64) * PER_RANK_BYTES,
            "m = {m}: {small} bytes at p = 64 grew to {large} at p = 256"
        );
    }
}
