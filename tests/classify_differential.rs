//! Decision-tree classification differential suite.
//!
//! PR 7 rewired every probe/bucketize hot path through the branchless
//! [`DecisionTree`] (implicit-heap splitters, `<=`-goes-right semantics)
//! behind the shared three-way strategy rule.  The tree must be
//! *indistinguishable* from the historical per-element binary search in
//! everything but host-side speed:
//!
//! * **bitwise-identical routing** — `DecisionTree::bucket_of` /
//!   `bucket_indices` must equal `partition_point(|s| *s <= key)` for every
//!   key, including duplicates, keys equal to splitters, and the
//!   sentinel-adjacent extremes `u64::MIN` / `u64::MAX` (fuzzed below);
//! * **bitwise-identical rank vectors** — `ranks_lt` / `ranks_le` over
//!   sorted data must equal the per-probe binary-search oracle, so
//!   histogramming answers are independent of the strategy heuristic;
//! * **bitwise-identical end-to-end output** — every sorter that
//!   classifies (HSS, sample sort, classic histogram sort) must produce
//!   the same globally sorted data across sync model × distribution now
//!   that classification can take the tree arm, and that output must match
//!   the `global_sorted` oracle.

use hss_repro::baselines::{histogram_sort, sample_sort, HistogramSortConfig, SampleSortConfig};
use hss_repro::partition::{
    global_sorted, local_ranks, local_ranks_le, verify_global_sort, DecisionTree,
};
use hss_repro::prelude::*;

use proptest::prelude::*;

const RANKS: usize = 8;
const KEYS_PER_RANK: usize = 300;
const SEED: u64 = 97;

fn distributions() -> [KeyDistribution; 3] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
    ]
}

/// Run `sorter` under both sync models on identical fresh machines; both
/// runs must produce the same per-rank data, and that data must be the
/// globally sorted oracle of `input`.  (Only the data is compared across
/// sync models: the overlapped pipeline legitimately stages its exchange
/// and piggybacks its broadcasts, so its message counts differ by design.)
fn assert_output_is_oracle<F>(label: &str, input: &[Vec<u64>], sorter: F)
where
    F: Fn(&mut Machine) -> Vec<Vec<u64>>,
{
    let runs: Vec<(SyncModel, Vec<Vec<u64>>)> = [SyncModel::Bsp, SyncModel::Overlapped]
        .into_iter()
        .map(|sync| {
            let mut machine = Machine::flat(RANKS).with_sync_model(sync);
            let out = sorter(&mut machine);
            verify_global_sort(input, &out).unwrap();
            (sync, out)
        })
        .collect();
    let flat: Vec<u64> = runs[0].1.iter().flatten().copied().collect();
    assert_eq!(flat, global_sorted(input), "{label}: output is not the sorted oracle");
    for (sync, out) in &runs[1..] {
        assert_eq!(&runs[0].1, out, "{label}: data diverged under {sync:?}");
    }
}

#[test]
fn hss_output_matches_oracle_across_engines_and_sync_models() {
    for dist in distributions() {
        let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
        assert_output_is_oracle(&format!("hss/{}", dist.name()), &input, |machine| {
            let cfg = HssConfig::default().with_seed(SEED);
            HssSorter::new(cfg).sort(machine, input.clone()).data
        });
    }
}

#[test]
fn sample_sort_output_matches_oracle_across_engines_and_sync_models() {
    for dist in distributions() {
        let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
        assert_output_is_oracle(&format!("sample/{}", dist.name()), &input, |machine| {
            sample_sort(machine, &SampleSortConfig::regular(0.2), input.clone()).0
        });
    }
}

#[test]
fn histogram_sort_output_matches_oracle_across_engines_and_sync_models() {
    for dist in distributions() {
        let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
        assert_output_is_oracle(&format!("histogram/{}", dist.name()), &input, |machine| {
            histogram_sort(machine, &HistogramSortConfig::new(0.1, RANKS), input.clone()).0
        });
    }
}

// ---------------------------------------------------------------------------
// Property-based coverage of the decision tree itself
// ---------------------------------------------------------------------------

/// The binary-search routing oracle: the bucket index every classification
/// path historically produced.
fn oracle_bucket(splitters: &[u64], key: u64) -> usize {
    splitters.partition_point(|s| *s <= key)
}

/// Map a sampled `(selector, raw)` pair to an edge-biased key: the
/// sentinel-adjacent extremes `u64::MIN` / `u64::MAX` / `u64::MAX - 1`, a
/// duplicate-heavy narrow band (collisions with splitters), or anything.
/// These are the cases where `<=`-goes-right semantics can silently drift.
fn edge_bias((sel, raw): (u8, u64)) -> u64 {
    match sel % 5 {
        0 => u64::MIN,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => raw % 1_000,
        _ => raw,
    }
}

/// Edge-biased value vectors of irregular lengths (the vendored proptest
/// stub has no `prop_oneof`/`prop_map`, so the bias is applied in-body).
fn edge_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..5, any::<u64>()), len)
}

proptest! {
    #[test]
    fn tree_bucket_of_matches_partition_point(
        raw_splitters in edge_vec(0..70),
        raw_keys in edge_vec(0..200),
    ) {
        let mut splitters: Vec<u64> = raw_splitters.into_iter().map(edge_bias).collect();
        splitters.sort_unstable();
        let keys: Vec<u64> = raw_keys.into_iter().map(edge_bias).collect();
        let tree = DecisionTree::from_splitters(&splitters);
        for key in keys {
            prop_assert_eq!(tree.bucket_of(key), oracle_bucket(&splitters, key));
        }
        let set = SplitterSet::new(splitters.clone());
        for &s in &splitters {
            prop_assert_eq!(set.bucket_of(s), oracle_bucket(&splitters, s));
            prop_assert_eq!(set.bucket_of(s.saturating_sub(1)),
                oracle_bucket(&splitters, s.saturating_sub(1)));
        }
    }

    #[test]
    fn four_wide_driver_matches_scalar_descends(
        raw_splitters in edge_vec(0..70),
        raw_keys in edge_vec(0..200),
    ) {
        // bucket_indices runs four keys in flight with a scalar remainder;
        // every length mod 4 must agree with one-at-a-time descends.
        let mut splitters: Vec<u64> = raw_splitters.into_iter().map(edge_bias).collect();
        splitters.sort_unstable();
        let keys: Vec<u64> = raw_keys.into_iter().map(edge_bias).collect();
        let tree = DecisionTree::from_splitters(&splitters);
        let ids = tree.bucket_indices(&keys);
        prop_assert_eq!(ids.len(), keys.len());
        for (k, id) in keys.iter().zip(&ids) {
            prop_assert_eq!(*id as usize, oracle_bucket(&splitters, *k));
        }
    }

    #[test]
    fn tree_ranks_match_binary_search_oracle(
        mut data in proptest::collection::vec(0u64..500, 0..300),
        raw_splitters in edge_vec(0..70),
    ) {
        data.sort_unstable();
        let mut splitters: Vec<u64> = raw_splitters.into_iter().map(edge_bias).collect();
        splitters.sort_unstable();
        let tree = DecisionTree::from_splitters(&splitters);
        let lt: Vec<u64> =
            splitters.iter().map(|s| data.partition_point(|k| k < s) as u64).collect();
        let le: Vec<u64> =
            splitters.iter().map(|s| data.partition_point(|k| k <= s) as u64).collect();
        prop_assert_eq!(tree.ranks_lt(&data), lt.clone());
        prop_assert_eq!(tree.ranks_le(&data), le.clone());
        // The strategy-dispatching entry points must answer identically no
        // matter which arm the (n, m) shape lands in.
        prop_assert_eq!(local_ranks(&data, &splitters), lt);
        prop_assert_eq!(local_ranks_le(&data, &splitters), le);
    }
}

#[test]
fn explicit_sentinel_and_duplicate_edge_cases() {
    // Splitters at both extremes plus an interior duplicate run: the
    // MAX_KEY padding the tree adds must stay indistinguishable from real
    // splitters equal to MAX_KEY.
    let splitters = vec![u64::MIN, 5, 5, 5, 42, u64::MAX, u64::MAX];
    let tree = DecisionTree::from_splitters(&splitters);
    for key in [u64::MIN, 0, 1, 4, 5, 6, 41, 42, 43, u64::MAX - 1, u64::MAX] {
        assert_eq!(tree.bucket_of(key), oracle_bucket(&splitters, key), "key {key}");
    }
    assert_eq!(tree.bucket_of(u64::MIN), 1, "MIN splitter: <= sends MIN right");
    assert_eq!(tree.bucket_of(u64::MAX), splitters.len(), "MAX lands past every splitter");
    // An empty splitter set routes everything to bucket 0.
    let empty = DecisionTree::from_splitters(&[] as &[u64]);
    assert_eq!(empty.bucket_of(0), 0);
    assert_eq!(empty.bucket_of(u64::MAX), 0);
}
