//! Radix-vs-comparison local-sort differential suite.
//!
//! The in-place MSD radix sort (`LocalSortAlgo::Radix`, the default) must
//! be indistinguishable from `sort_unstable` (`LocalSortAlgo::Comparison`)
//! in everything but host-side speed.  For every sorter × key distribution
//! × sync model, at 1 and 4 pool threads:
//!
//! * **bitwise-identical per-rank output** — both algorithms realise the
//!   same total order, and equal items are indistinguishable, so the
//!   sorted arrays must match exactly;
//! * **identical `deterministic_signature()` outside the local-sort
//!   phases** — the sorted data drives everything downstream (samples,
//!   probes, splitters, exchange, merge), so sampling, histogramming,
//!   broadcast, exchange and merge charges must agree bit for bit.  The
//!   `local_sort` / `node_local_sort` entries legitimately differ: the
//!   sim charges `Work::sort` vs `Work::radix_sort` by design;
//! * **thread-count-independent signatures** — for each algorithm the
//!   1-thread and 4-thread runs must produce identical signatures *and*
//!   data (the radix blocks are disjoint sub-slices, so the parallel
//!   driver is deterministic).
//!
//! A proptest block additionally fuzzes the radix sorter itself against
//! `sort_unstable` on arbitrary inputs (duplicates, already-sorted,
//! reverse, all-equal, empty, single-element) at lengths on both sides of
//! each of its regime boundaries, on the key shapes only the counting
//! sub-level can get wrong, on every digit count in the tree, and on wide
//! records shaped to force the tag sort's tie path.  A comparison-counting
//! key pins the sub-level's cost on the inputs that would make a lazier one
//! quadratic.

use hss_repro::baselines::{
    bitonic_sort, histogram_sort, over_partitioning_sort, radix_partition_sort, sample_sort,
    HistogramSortConfig, OverPartitioningConfig, RadixConfig, SampleSortConfig,
};
use hss_repro::keygen::{ByteKey, WideRecord};
use hss_repro::lsort::{
    par_radix_sort, radix_sort, RadixSortable, BLOCK, COMPARISON_CUTOFF, INSERTION_CUTOFF,
};
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;

use proptest::prelude::*;

const RANKS: usize = 8;
const KEYS_PER_RANK: usize = 300;
const SEED: u64 = 2019;

/// Per-phase signature entries that may differ between the two local-sort
/// algorithms: the phases where the modelled local-sort cost itself lives.
const LOCAL_PHASES: [&str; 2] = ["local_sort", "node_local_sort"];

type Signature = Vec<(&'static str, u64, u64, u64, u64, u64, u64)>;

fn distributions() -> [KeyDistribution; 3] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
    ]
}

fn non_local(sig: &Signature) -> Signature {
    sig.iter().filter(|e| !LOCAL_PHASES.contains(&e.0)).copied().collect()
}

fn local(sig: &Signature) -> Signature {
    sig.iter().filter(|e| LOCAL_PHASES.contains(&e.0)).copied().collect()
}

/// Run `sorter` with both local-sort algorithms, each at 1 and 4 pool
/// threads, on identical fresh machines, and assert the differential
/// contract described in the module docs.
fn assert_algos_agree<T, F>(label: &str, sync: SyncModel, sorter: F)
where
    T: PartialEq + std::fmt::Debug + Send,
    F: Fn(&mut Machine, LocalSortAlgo) -> Vec<Vec<T>> + Sync,
{
    let mut runs: Vec<(LocalSortAlgo, usize, Vec<Vec<T>>, Signature)> = Vec::new();
    for algo in [LocalSortAlgo::Comparison, LocalSortAlgo::Radix] {
        for threads in [1usize, 4] {
            let pool =
                rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("test pool");
            let (out, sig) = pool.install(|| {
                let mut machine = Machine::flat(RANKS).with_sync_model(sync);
                let out = sorter(&mut machine, algo);
                (out, machine.metrics().deterministic_signature())
            });
            runs.push((algo, threads, out, sig));
        }
    }
    let (ref_algo, _, ref_data, ref_sig) = &runs[0];
    for (algo, threads, data, sig) in &runs[1..] {
        assert_eq!(
            ref_data, data,
            "{label}: data diverged between {ref_algo:?}/1 thread and {algo:?}/{threads} threads"
        );
        assert_eq!(
            non_local(ref_sig),
            non_local(sig),
            "{label}: non-local-sort signature diverged between \
             {ref_algo:?}/1 thread and {algo:?}/{threads} threads"
        );
        if algo == ref_algo {
            // Same algorithm at different thread counts: the *entire*
            // signature must match, local-sort phases included.
            assert_eq!(
                ref_sig, sig,
                "{label}: {algo:?} signature changed with pool threads ({threads})"
            );
        }
    }
    // Radix and comparison are modelled differently, so whenever a local
    // sort phase was charged at all, the local entries must differ.
    let radix_run = runs.iter().find(|(a, ..)| *a == LocalSortAlgo::Radix).unwrap();
    if !local(ref_sig).is_empty() {
        assert_ne!(
            local(ref_sig),
            local(&radix_run.3),
            "{label}: local-sort charges unexpectedly identical across algorithms"
        );
    }
}

fn sync_models() -> [SyncModel; 2] {
    [SyncModel::Bsp, SyncModel::Overlapped]
}

#[test]
fn hss_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("hss/{:?}/{}", sync, dist.name());
            assert_algos_agree(&label, sync, |machine, algo| {
                let cfg = HssConfig::default().with_seed(SEED).with_local_sort(algo);
                let out = HssSorter::new(cfg).sort(machine, input.clone());
                verify_global_sort(&input, &out.data).unwrap();
                assert_eq!(out.report.local_sort, algo.name());
                out.data
            });
        }
    }
}

#[test]
fn hss_with_duplicate_tagging_agrees() {
    // Tagged items radix-sort by their (key, pe, index) digit string; the
    // FewDistinct input makes the tag bytes do the real work.
    let input =
        KeyDistribution::FewDistinct { distinct: 3 }.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
    for sync in sync_models() {
        assert_algos_agree(&format!("hss-tagged/{sync:?}"), sync, |machine, algo| {
            let cfg =
                HssConfig::default().with_seed(SEED).with_duplicate_tagging().with_local_sort(algo);
            HssSorter::new(cfg).sort(machine, input.clone()).data
        });
    }
}

#[test]
fn hss_records_agree() {
    // Key + payload records: the payload participates in the order (and in
    // the radix digit string).
    let input = KeyDistribution::Uniform.generate_records_per_rank(RANKS, KEYS_PER_RANK, SEED);
    for sync in sync_models() {
        assert_algos_agree(&format!("hss-records/{sync:?}"), sync, |machine, algo| {
            let cfg = HssConfig::default().with_seed(SEED).with_local_sort(algo);
            HssSorter::new(cfg).sort(machine, input.clone()).data
        });
    }
}

#[test]
fn sample_sort_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            for (name, base) in [
                ("regular", SampleSortConfig::regular(0.2)),
                ("random", SampleSortConfig::random(0.2)),
            ] {
                let label = format!("sample-{name}/{:?}/{}", sync, dist.name());
                assert_algos_agree(&label, sync, |machine, algo| {
                    let cfg = SampleSortConfig { local_sort: algo, ..base };
                    sample_sort(machine, &cfg, input.clone()).0
                });
            }
        }
    }
}

#[test]
fn histogram_sort_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("histogram/{:?}/{}", sync, dist.name());
            assert_algos_agree(&label, sync, |machine, algo| {
                let mut cfg = HistogramSortConfig::new(0.1, RANKS);
                cfg.local_sort = algo;
                histogram_sort(machine, &cfg, input.clone()).0
            });
        }
    }
}

#[test]
fn over_partitioning_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("overpartition/{:?}/{}", sync, dist.name());
            assert_algos_agree(&label, sync, |machine, algo| {
                let mut cfg = OverPartitioningConfig::recommended(RANKS);
                cfg.local_sort = algo;
                over_partitioning_sort(machine, &cfg, input.clone()).0
            });
        }
    }
}

#[test]
fn radix_partition_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("radix-partition/{:?}/{}", sync, dist.name());
            assert_algos_agree(&label, sync, |machine, algo| {
                let mut cfg = RadixConfig::recommended(RANKS);
                cfg.local_sort = algo;
                radix_partition_sort(machine, &cfg, input.clone()).0
            });
        }
    }
}

#[test]
fn bitonic_radix_and_comparison_agree() {
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(RANKS, KEYS_PER_RANK, SEED);
            let label = format!("bitonic/{:?}/{}", sync, dist.name());
            assert_algos_agree(&label, sync, |machine, algo| {
                bitonic_sort(machine, input.clone(), algo).0
            });
        }
    }
}

#[test]
fn node_level_radix_and_comparison_agree() {
    // Node-level partitioning (within-node sample sort included), under
    // both schedules.
    let topo = Topology::new(16, 4);
    for sync in sync_models() {
        for dist in distributions() {
            let input = dist.generate_per_rank(16, KEYS_PER_RANK, SEED);
            let label = format!("node-level/{:?}/{}", sync, dist.name());
            let mut runs = Vec::new();
            for algo in [LocalSortAlgo::Comparison, LocalSortAlgo::Radix] {
                let mut machine =
                    Machine::new(topo, CostModel::bluegene_like()).with_sync_model(sync);
                let cfg = HssConfig::paper_cluster().with_seed(SEED).with_local_sort(algo);
                let out = HssSorter::new(cfg).sort(&mut machine, input.clone());
                runs.push((out.data, machine.metrics().deterministic_signature()));
            }
            assert_eq!(runs[0].0, runs[1].0, "{label}: data diverged");
            assert_eq!(
                non_local(&runs[0].1),
                non_local(&runs[1].1),
                "{label}: non-local signature diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Property-based coverage of the radix sorter itself
// ---------------------------------------------------------------------------

/// Where the radix sorter changes regime: insertion sort | `sort_unstable` |
/// the counting sub-level over the whole input, in a scratch of its length |
/// one classification level through the write buffers with the sub-level
/// under it.
const EDGES: [usize; 4] = [0, INSERTION_CUTOFF, COMPARISON_CUTOFF, 256 * BLOCK];

/// Length every narrow proptest input is drawn at: a block past the last
/// edge.
const MAX_LEN: usize = 256 * BLOCK + BLOCK;

/// Cases per property (see `tests/proptest_invariants.rs`).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(24)
}

/// `v` cut to within a block of each edge, below it or above as `jitter`
/// (drawn from `0..2 * BLOCK`) falls — so every case leaves the base cases.
fn straddling<T: Clone>(v: &[T], jitter: usize) -> impl Iterator<Item = Vec<T>> + '_ {
    EDGES.iter().map(move |edge| v[..(edge + jitter).saturating_sub(BLOCK)].to_vec())
}

/// `radix_sort` must match `sort_unstable` exactly.
fn assert_radix_matches<T: RadixSortable>(mut v: Vec<T>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    radix_sort(&mut v);
    assert!(v == expect, "radix_sort diverged from sort_unstable at n = {}", v.len());
}

/// `radix_sort` and `par_radix_sort` must both match `sort_unstable`.
fn assert_sorts_match<T: RadixSortable + Send + Sync>(shape: &str, v: Vec<T>) {
    let mut expect = v.clone();
    expect.sort_unstable();
    let mut seq = v.clone();
    radix_sort(&mut seq);
    assert!(seq == expect, "{shape}: radix_sort diverged at n = {}", v.len());
    let mut par = v;
    par_radix_sort(&mut par);
    assert!(par == expect, "{shape}: par_radix_sort diverged at n = {}", par.len());
}

/// `f` of every word.
fn mapped<T>(words: &[u64], f: impl Fn(u64) -> T) -> Vec<T> {
    words.iter().map(|&w| f(w)).collect()
}

/// The top two bytes take one of two values (differing in both), the next
/// two likewise, and the low four are the word's: runs of thousands of equal
/// two-digit prefixes that the sub-level must recurse into, twice over.
fn two_prefixes_two_levels(w: u64) -> u64 {
    let pick = |bit: u64| if w >> bit & 1 == 0 { 0x0102 } else { 0x0201 };
    pick(63) << 48 | pick(62) << 32 | w & 0xFFFF_FFFF
}

/// One key per word for each shape that only the sub-level's own steps —
/// skipping shared digits, the two scatters, the run scan, its recursion,
/// the one-digit tail — can get wrong.  `odd` places the odd key out.
fn sub_level_shapes(words: &[u64], odd: usize) -> Vec<(&'static str, Vec<u64>)> {
    let all_but_one = |other: u64| {
        let mut keys = vec![0x0123_4567_89AB_CDEFu64; words.len()];
        if let Some(slot) = keys.get_mut(odd % words.len().max(1)) {
            *slot = other;
        }
        keys
    };
    vec![
        // Five shared digits between the two that differ.
        ("middle_bytes_constant", mapped(words, |w| w & 0xFF00_0000_0000_FFFF)),
        ("two_prefixes_two_levels", mapped(words, two_prefixes_two_levels)),
        ("last_byte_decides", mapped(words, |w| 0xABCD_EF01_2345_6700 | w & 0xFF)),
        // Ties on the first seven digits in runs of dozens, settled by the
        // eighth: the scan's short runs.
        ("last_byte_breaks_ties", mapped(words, |w| (w >> 56) << 56 | w & 0xFF)),
        ("all_equal_but_one_smaller", all_but_one(0x0123_4567_89A0_0000)),
        ("all_equal_but_one_larger", all_but_one(0x0123_4567_89AB_CDF0)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    #[test]
    fn radix_sorts_arbitrary_u64(
        v in proptest::collection::vec(any::<u64>(), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        straddling(&v, jitter).for_each(assert_radix_matches);
    }

    #[test]
    fn radix_sorts_duplicate_heavy(
        v in proptest::collection::vec(0u64..8, MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        straddling(&v, jitter).for_each(assert_radix_matches);
    }

    #[test]
    fn radix_sorts_narrow_band(
        v in proptest::collection::vec(1_000_000u64..1_000_256, MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        // All keys share the top seven bytes: exercises prefix skipping.
        straddling(&v, jitter).for_each(assert_radix_matches);
    }

    #[test]
    fn radix_sorts_presorted_and_reversed(
        v in proptest::collection::vec(any::<u64>(), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        for mut v in straddling(&v, jitter) {
            v.sort_unstable();
            assert_radix_matches(v.clone());
            v.reverse();
            assert_radix_matches(v);
        }
    }

    #[test]
    fn par_radix_matches_sequential(
        v in proptest::collection::vec(any::<u64>(), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        for v in straddling(&v, jitter) {
            let mut seq = v.clone();
            radix_sort(&mut seq);
            let mut par = v;
            par_radix_sort(&mut par);
            prop_assert!(seq == par);
        }
    }

    #[test]
    fn radix_sorts_records(
        v in proptest::collection::vec((0u64..16, any::<u32>()), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        // Heavy key duplication forces the payload bytes to decide.
        let recs: Vec<Record> =
            v.into_iter().map(|(key, payload)| Record { key, payload }).collect();
        straddling(&recs, jitter).for_each(assert_radix_matches);
    }

    #[test]
    fn radix_sorts_sub_level_shapes(
        v in proptest::collection::vec(any::<u64>(), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        for v in straddling(&v, jitter) {
            for (shape, keys) in sub_level_shapes(&v, jitter) {
                assert_sorts_match(shape, keys);
            }
        }
    }

    #[test]
    fn radix_sorts_every_digit_count(
        v in proptest::collection::vec(any::<u64>(), MAX_LEN..MAX_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        // One to sixteen digits, odd counts (the one-digit tail) included;
        // the wider keys repeat their leading digits so the trailing ones
        // decide.
        for v in straddling(&v, jitter) {
            assert_sorts_match("u8", mapped(&v, |w| w as u8));
            assert_sorts_match("u16", mapped(&v, |w| w as u16));
            assert_sorts_match("i16", mapped(&v, |w| w as i16));
            assert_sorts_match("u32", mapped(&v, |w| w as u32));
            assert_sorts_match("i64", mapped(&v, |w| w as i64));
            assert_sorts_match("u128", mapped(&v, |w| ((w % 7) as u128) << 64 | w as u128));
            assert_sorts_match("(u64, u32)", mapped(&v, |w| (w >> 40, w as u32)));
            assert_sorts_match("(u64, u64)", mapped(&v, |w| (w % 3, w)));
            assert_sorts_match(
                "Record",
                mapped(&v, |w| Record { key: w >> 48, payload: w as u32 }),
            );
            assert_sorts_match(
                "ByteKey<3>",
                mapped(&v, |w| ByteKey::new([(w >> 16) as u8, (w >> 8) as u8, w as u8])),
            );
        }
    }

    #[test]
    fn radix_sorts_wide_records(
        words in proptest::collection::vec(any::<u64>(), WIDE_LEN..WIDE_LEN + 1),
        jitter in 0..2 * BLOCK,
    ) {
        // Around the insertion sort that wide slices start from, around the
        // tags' own comparison-sort base case, and long enough that the tie
        // runs of the shapes fall on both sides of the re-tagging threshold.
        let around = |edge: usize| (edge + jitter).saturating_sub(BLOCK);
        for n in [around(INSERTION_CUTOFF), around(COMPARISON_CUTOFF), WIDE_LEN - jitter] {
            for (shape, v) in wide_shapes::<90>(&words[..n]) {
                assert_sorts_match(shape, v);
            }
            for (shape, v) in wide_shapes::<30>(&words[..n]) {
                assert_sorts_match(shape, v);
            }
        }
    }
}

#[test]
fn radix_sorts_explicit_edge_cases() {
    assert_radix_matches::<u64>(vec![]);
    assert_radix_matches(vec![42u64]);
    assert_radix_matches(vec![7u64; 10_000]);
    assert_radix_matches((0..10_000u64).collect());
    assert_radix_matches((0..10_000u64).rev().collect());
    assert_radix_matches(vec![u64::MAX, 0, u64::MAX, 0, 1]);
}

#[test]
fn par_radix_sorts_sub_level_shapes_on_the_pool() {
    // Long enough that `par_radix_sort` really fans out: every bucket task
    // sorts in a scratch of its own bucket's length.
    let words = KeyDistribution::Uniform.generate_per_rank(1, 40_000, SEED).remove(0);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("test pool");
    pool.install(|| {
        assert_sorts_match("uniform", words.clone());
        for (shape, keys) in sub_level_shapes(&words, 7) {
            assert_sorts_match(shape, keys);
        }
    });
}

// ---------------------------------------------------------------------------
// No input is quadratic: comparisons counted through the key's own `Ord`
// ---------------------------------------------------------------------------

thread_local! {
    /// `Ord::cmp` calls on [`Counted`] keys made by this test thread.
    static COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A `u64` key that counts every comparison the sorter makes on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted(u64);

impl Ord for Counted {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for Counted {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl RadixSortable for Counted {
    const RADIX_BYTES: usize = 8;

    fn radix_byte(&self, level: usize) -> u8 {
        self.0.radix_byte(level)
    }
}

#[test]
fn sub_level_comparisons_stay_linear_on_long_runs() {
    // A whole input inside the sub-level (`256 * BLOCK` keys).  The first
    // shape leaves two runs of ~8192 equal two-digit prefixes after the
    // first counting pass and four of ~4096 after the second: insertion-
    // sorting a run instead of recursing into it costs ~n²/16 = 16 M
    // comparisons.  The second shares its first six digits.  Measured: 1.05 n
    // comparisons (the last level's scan; a run is left at its first
    // inversion) and 2.0 n (the minimum/maximum pass over the shared digits).
    let n = 256 * BLOCK;
    let words = KeyDistribution::Uniform.generate_per_rank(1, n, SEED).remove(0);
    for (shape, keys) in [
        ("two_prefixes_two_levels", mapped(&words, two_prefixes_two_levels)),
        ("last_two_bytes_differ", mapped(&words, |w| 0xABCD_EF01_2345_0000 | w & 0xFFFF)),
    ] {
        let mut counted = mapped(&keys, Counted);
        COMPARISONS.with(|c| c.set(0));
        radix_sort(&mut counted);
        let comparisons = COMPARISONS.with(|c| c.get());
        assert!(
            comparisons <= 4 * n as u64,
            "{shape}: {comparisons} comparisons on {n} keys, more than 4 n"
        );
        let mut expect = keys;
        expect.sort_unstable();
        assert!(mapped(&expect, Counted) == counted, "{shape}: diverged from sort_unstable");
    }
}

// ---------------------------------------------------------------------------
// Wide items: sorted as (prefix, index) tags, ties settled on the records
// ---------------------------------------------------------------------------

/// Longest wide input: the three- and five-way tie shapes below then have
/// runs on both sides of the 2048 tags beyond which the tie path (a private
/// threshold of `hss-lsort`) re-tags a run instead of comparing its records.
const WIDE_LEN: usize = 4 * 2048;

/// One record per word for each input shape the tag sort treats specially.
/// A record is its 8-byte key head, its 2-byte key tail and the last byte of
/// an otherwise zero payload, so each shape controls exactly where two
/// records first differ.
fn wide_shapes<const V: usize>(words: &[u64]) -> Vec<(&'static str, Vec<WideRecord<10, V>>)> {
    let record = |head: u64, tail: u16, last: u8| {
        let mut key = [0u8; 10];
        key[..8].copy_from_slice(&head.to_be_bytes());
        key[8..].copy_from_slice(&tail.to_be_bytes());
        let mut payload = [0u8; V];
        payload[V - 1] = last;
        WideRecord { key: ByteKey::new(key), payload }
    };
    let shape = |f: &dyn Fn(u64) -> WideRecord<10, V>| words.iter().map(|&w| f(w)).collect();
    let random: Vec<_> = shape(&|w| record(w, (w >> 8) as u16, w as u8));
    let mut sorted = random.clone();
    sorted.sort_unstable();
    let mut descending = sorted.clone();
    descending.dedup();
    descending.reverse();
    vec![
        ("random", random),
        // Five 8-byte prefixes: key bytes 9–10 order each fifth of the input.
        ("key_tail_decides", shape(&|w| record(w % 5, (w >> 8) as u16, 0))),
        // One constant first prefix: everything is decided a level down.
        ("shared_leading_bytes", shape(&|w| record(0xABAB_ABAB_ABAB_ABAB, w as u16, 0))),
        // Three keys: the last payload byte orders each third of the input.
        ("last_payload_byte_decides", shape(&|w| record(w % 3, 7, (w >> 8) as u8))),
        ("all_equal", shape(&|_| record(1, 2, 3))),
        ("sorted", sorted),
        // Must come back as the exact reversal.
        ("strictly_descending", descending),
    ]
}

#[test]
fn par_radix_sorts_wide_tie_shapes_on_the_pool() {
    // Long enough that `par_radix_sort` really fans out (it runs the
    // sequential sort below 1 << 15 items).
    let words = KeyDistribution::Uniform.generate_per_rank(1, 40_000, SEED).remove(0);
    let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("test pool");
    pool.install(|| {
        for (shape, v) in wide_shapes::<90>(&words) {
            assert_sorts_match(shape, v);
        }
    });
}
