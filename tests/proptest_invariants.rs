//! Property-based tests (proptest) of the core invariants: any input that
//! the generators can produce must sort correctly, splitter routing must be
//! consistent, interval bookkeeping must bracket targets, and the
//! bucketize/merge pair must be lossless.
//!
//! The machine-level properties run under *both* execution modes —
//! [`Parallelism::Sequential`] and [`Parallelism::Rayon`] on a real
//! two-thread pool — and additionally assert the two modes agree bitwise,
//! so every generated input doubles as a differential test case.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use hss_repro::core::{determine_splitters, HssConfig, RoundSchedule};
use hss_repro::partition::{
    classify_strategy, global_ranks, kway_merge, local_ranks, local_ranks_work,
    merge_key_intervals, partition_sorted, verify_global_sort, ClassifyStrategy, LoadBalance,
    SplitterIntervals, SplitterSet,
};
use hss_repro::prelude::*;
use hss_repro::sim::Parallelism;

/// Arbitrary per-rank input: between 1 and 8 ranks, each with 0..200 keys.
fn per_rank_input() -> impl Strategy<Value = Vec<Vec<u64>>> {
    vec(vec(any::<u64>(), 0..200), 1..8)
}

/// A small but genuinely multi-threaded pool for the `Parallelism::Rayon`
/// leg of each property (independent of the host's core count and of
/// `RAYON_NUM_THREADS`, which only shapes the global pool).
fn test_pool() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new().num_threads(2).build().expect("proptest pool")
    })
}

/// Run `op` on a fresh machine under both parallelism modes and return both
/// results (sequential first).
fn under_both_modes<R, OP>(ranks: usize, op: OP) -> (R, R)
where
    R: Send,
    OP: Fn(&mut Machine) -> R + Send + Sync,
{
    let mut seq_machine = Machine::flat(ranks).with_parallelism(Parallelism::Sequential);
    let seq = op(&mut seq_machine);
    let par = test_pool().install(|| {
        let mut par_machine = Machine::flat(ranks).with_parallelism(Parallelism::Rayon);
        op(&mut par_machine)
    });
    (seq, par)
}

/// Per-rank lengths of the fused-histogram-round checks: against ~1000
/// probes the empty, 1- and 7-key ranks take the decision tree, the
/// 1024-key rank the merge sweep and the 200 000-key rank binary searches,
/// so one round mixes all three arms.
const ROUND_RANK_LENS: [usize; 5] = [0, 1, 7, 1024, 200_000];

/// Duplicate-heavy sorted rank data: `len` keys over `distinct` values
/// spread across the key space, `MAX_KEY` among them.
fn duplicate_heavy_rank(len: usize, distinct: u64, seed: u64) -> Vec<u64> {
    let stride = u64::MAX / distinct;
    let mut state = seed | 1;
    let mut keys: Vec<u64> = (0..len)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (state >> 33) % (distinct + 1) {
                top if top == distinct => u64::MAX,
                value => value * stride,
            }
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// One histogramming round through the fused `global_ranks` must equal
/// `Σ_r local_ranks(data_r, probes)` and charge the simulator exactly like
/// the unfused `map_phase` + `reduce_sum` pair it replaced — sequentially
/// and on pools whose width does not divide the rank count.
fn assert_fused_round_matches_unfused(per_rank: &[Vec<u64>], probes: &[u64]) {
    let p = per_rank.len();
    let mut expected = vec![0u64; probes.len()];
    for local in per_rank {
        for (sum, r) in expected.iter_mut().zip(local_ranks(local, probes)) {
            *sum += r;
        }
    }
    let mut reference = Machine::flat(p).with_parallelism(Parallelism::Sequential);
    let locals = reference.map_phase(Phase::Histogramming, per_rank, |_rank, local| {
        (local_ranks(local, probes), local_ranks_work(local.len(), probes.len()))
    });
    assert_eq!(reference.reduce_sum(Phase::Histogramming, &locals), expected);
    let reference = reference.metrics();

    let check = |machine: &mut Machine, what: &str| {
        let ranks = global_ranks(machine, per_rank, probes, Phase::Histogramming);
        assert_eq!(ranks, expected, "{what}");
        // Every phase's simulated seconds (bitwise), messages, words,
        // compute ops and supersteps.
        assert_eq!(
            machine.metrics().deterministic_signature(),
            reference.deterministic_signature(),
            "{what}"
        );
    };
    check(&mut Machine::flat(p).with_parallelism(Parallelism::Sequential), "sequential");
    for threads in [1usize, 3, 4] {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
        pool.install(|| check(&mut Machine::flat(p), &format!("{threads}-thread pool")));
    }
}

#[test]
fn fused_histogram_round_mixes_all_three_arms() {
    // Seven ranks (no pool width above 1 divides it), every length of the
    // set, ~1000 probes with repeats and both sentinels.
    let lens = [1024, 0, 200_000, 7, 1, 1024, 7];
    let per_rank: Vec<Vec<u64>> = lens
        .iter()
        .enumerate()
        .map(|(r, &len)| duplicate_heavy_rank(len, 40, r as u64 + 1))
        .collect();
    let mut probes = duplicate_heavy_rank(1000, 300, 99);
    probes.extend([u64::MIN, u64::MIN, u64::MAX]);
    probes.sort_unstable();
    let arms: Vec<ClassifyStrategy> =
        lens.iter().map(|&n| classify_strategy(n, probes.len())).collect();
    for arm in [
        ClassifyStrategy::BinarySearch,
        ClassifyStrategy::MergeSweep,
        ClassifyStrategy::DecisionTree,
    ] {
        assert!(arms.contains(&arm), "{arm:?} missing from the round: {arms:?}");
    }
    assert_fused_round_matches_unfused(&per_rank, &probes);
}

/// Cases per property. The standard `PROPTEST_CASES` variable overrides the
/// default of 24 so CI can bound the test job's runtime (and nightly jobs
/// can crank it up); zero or unparsable values fall back to the default.
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    #[test]
    fn hss_sorts_arbitrary_inputs(input in per_rank_input()) {
        let p = input.len();
        let config = HssConfig { epsilon: 0.5, ..HssConfig::default() }.with_duplicate_tagging();
        let (seq, par) = under_both_modes(p, |machine| {
            let outcome = HssSorter::new(config.clone()).sort(machine, input.clone());
            (outcome.data, machine.metrics().deterministic_signature())
        });
        prop_assert!(verify_global_sort(&input, &seq.0).is_ok());
        // The parallel pool must reproduce the sequential oracle exactly.
        prop_assert_eq!(&seq.0, &par.0);
        prop_assert_eq!(seq.1, par.1);
    }

    #[test]
    fn hss_balances_arbitrary_inputs_with_tagging(
        seed in 0u64..1000,
        p in 2usize..12,
        keys_per_rank in 50usize..300,
        gamma in 1.0f64..6.0,
    ) {
        // Tagging makes the (1+eps) guarantee hold regardless of duplicates
        // or skew; epsilon is kept moderate so the test stays cheap.
        let eps = 0.25;
        let input = KeyDistribution::PowerLaw { gamma }.generate_per_rank(p, keys_per_rank, seed);
        let config = HssConfig { epsilon: eps, ..HssConfig::default() }
            .with_duplicate_tagging()
            .with_seed(seed);
        let (seq, par) = under_both_modes(p, |machine| {
            let outcome = HssSorter::new(config.clone()).sort(machine, input.clone());
            (outcome.report.load_balance.clone(), outcome.data)
        });
        prop_assert!(seq.0.satisfies(eps), "imbalance {}", seq.0.imbalance);
        prop_assert_eq!(seq.1, par.1);
    }

    #[test]
    fn splitter_routing_is_consistent_with_boundaries(
        mut keys in vec(any::<u64>(), 1..300),
        mut splitter_keys in vec(any::<u64>(), 0..16),
    ) {
        keys.sort_unstable();
        splitter_keys.sort_unstable();
        let s = SplitterSet::new(splitter_keys);
        let bounds = s.bucket_boundaries(&keys);
        prop_assert_eq!(bounds.len(), s.buckets() + 1);
        prop_assert_eq!(*bounds.last().unwrap(), keys.len());
        for (bucket, w) in bounds.windows(2).enumerate() {
            for &k in &keys[w[0]..w[1]] {
                prop_assert_eq!(s.bucket_of(k), bucket);
            }
        }
    }

    #[test]
    fn partition_then_merge_is_identity(mut keys in vec(any::<u64>(), 0..400), buckets in 1usize..12) {
        keys.sort_unstable();
        let step = u64::MAX / buckets as u64;
        let splitters = SplitterSet::new((1..buckets as u64).map(|i| i * step).collect());
        let parts = partition_sorted(&keys, &splitters);
        prop_assert_eq!(parts.len(), buckets);
        let merged = kway_merge(parts);
        prop_assert_eq!(merged, keys);
    }

    /// Few distinct keys: nearly every comparison of the merge ties on the
    /// cached key prefix and is decided by the payload, then the run index.
    #[test]
    fn merging_duplicate_heavy_records_matches_a_stable_sort(
        raw_runs in vec(vec((0u64..4, any::<u32>()), 0..60), 0..10),
    ) {
        let runs: Vec<Vec<Record>> = raw_runs
            .into_iter()
            .map(|run| {
                let mut run: Vec<Record> =
                    run.into_iter().map(|(key, payload)| Record { key, payload }).collect();
                run.sort();
                run
            })
            .collect();
        let mut expected = runs.concat();
        expected.sort();
        let merged = kway_merge(runs);
        prop_assert!(merged
            .windows(2)
            .all(|w| w[0].key < w[1].key || (w[0].key == w[1].key && w[0].payload <= w[1].payload)));
        prop_assert_eq!(merged, expected);
    }

    #[test]
    fn local_ranks_are_monotone_and_bounded(
        mut keys in vec(any::<u64>(), 0..300),
        mut probes in vec(any::<u64>(), 0..300),
    ) {
        keys.sort_unstable();
        probes.sort_unstable();
        let ranks = local_ranks(&keys, &probes);
        prop_assert_eq!(ranks.len(), probes.len());
        prop_assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(ranks.iter().all(|&r| r <= keys.len() as u64));
    }

    #[test]
    fn fused_histogram_round_equals_sum_of_local_ranks(
        lens in vec(0usize..ROUND_RANK_LENS.len(), 1..8),
        distinct in 1u64..200,
        probe_count in 0usize..1500,
        probe_distinct in 1u64..400,
        seed in any::<u64>(),
    ) {
        let per_rank: Vec<Vec<u64>> = lens
            .iter()
            .enumerate()
            .map(|(r, &i)| duplicate_heavy_rank(ROUND_RANK_LENS[i], distinct, seed ^ r as u64))
            .collect();
        // `global_ranks` is public and only asks for sorted probes: repeats
        // and the sentinels are fair game.
        let mut probes = duplicate_heavy_rank(probe_count, probe_distinct, !seed);
        probes.extend([u64::MIN, u64::MAX]);
        probes.sort_unstable();
        assert_fused_round_matches_unfused(&per_rank, &probes);
    }

    #[test]
    fn merged_intervals_are_disjoint_and_cover_inputs(
        intervals in vec((any::<u32>(), any::<u32>()), 0..24)
    ) {
        let intervals: Vec<(u32, u32)> = intervals;
        let merged = merge_key_intervals(intervals.clone());
        // Disjoint and sorted.
        prop_assert!(merged.windows(2).all(|w| w[0].1 < w[1].0));
        // Every non-empty input interval is covered by some merged one.
        for (lo, hi) in intervals.into_iter().filter(|(lo, hi)| lo <= hi) {
            prop_assert!(
                merged.iter().any(|&(mlo, mhi)| mlo <= lo && hi <= mhi),
                "({lo}, {hi}) not covered by {merged:?}"
            );
        }
    }

    #[test]
    fn splitter_intervals_always_bracket_targets(
        total in 1u64..100_000,
        buckets in 2usize..32,
        probes in vec(any::<u64>(), 1..64),
    ) {
        let mut probes: Vec<u64> = probes;
        probes.sort_unstable();
        probes.dedup();
        // Fabricate consistent ranks: rank of probe = probe scaled into [0, total].
        let ranks: Vec<u64> = probes.iter().map(|&p| ((p as u128 * total as u128) >> 64) as u64).collect();
        let mut iv: SplitterIntervals<u64> = SplitterIntervals::new(total, buckets);
        iv.update(&probes, &ranks);
        for i in 0..iv.splitter_count() {
            let t = iv.target_rank(i);
            prop_assert!(iv.lower(i).rank <= t);
            prop_assert!(iv.upper(i).rank >= t);
            prop_assert!(iv.lower(i).rank <= iv.upper(i).rank);
        }
        // Best splitter keys are sorted.
        let keys = iv.best_splitter_keys();
        prop_assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn load_balance_metrics_are_consistent(counts in vec(0u64..10_000, 1..64)) {
        let lb = LoadBalance::from_counts(&counts);
        prop_assert_eq!(lb.total_keys, counts.iter().sum::<u64>());
        prop_assert!(lb.max_keys >= lb.min_keys);
        prop_assert!(lb.imbalance >= 1.0 - 1e-9);
        // satisfies() is monotone in epsilon.
        prop_assert!(!lb.satisfies(0.0) || lb.satisfies(1.0));
    }

    #[test]
    fn theoretical_schedule_runs_at_most_k_rounds(
        k in 1usize..4,
        p in 2usize..10,
        seed in 0u64..500,
    ) {
        let input = {
            let mut d = KeyDistribution::Uniform.generate_per_rank(p, 200, seed);
            for v in &mut d { v.sort_unstable(); }
            d
        };
        let config = HssConfig {
            epsilon: 0.3,
            schedule: RoundSchedule::Theoretical { rounds: k },
            ..HssConfig::default()
        };
        let (seq, par) = under_both_modes(p, |machine| {
            determine_splitters(machine, &input, p, &config)
        });
        // The fixed schedule is an upper bound: the run stops early exactly
        // when every splitter is already finalized (running further rounds
        // could only charge cost without improving anything).
        prop_assert!(seq.1.rounds_executed() <= k);
        if seq.1.rounds_executed() < k {
            prop_assert!(seq.1.all_finalized);
            prop_assert_eq!(seq.1.rounds.last().unwrap().open_after, 0);
        }
        prop_assert_eq!(seq.0.buckets(), p);
        // Splitter determination is bitwise mode-independent too.
        prop_assert_eq!(seq.0.keys(), par.0.keys());
        prop_assert_eq!(seq.1, par.1);
    }
}
