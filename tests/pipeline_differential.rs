//! Single-pass out-of-core differential suite: `sort_out_of_core` — run
//! formation, splitters straight off the run files, staged drain, cap-aware
//! merge — must be *bitwise indistinguishable* from the in-memory sorter in
//! everything but where the bytes live, and must pay for that with exactly
//! one disk round-trip per place the cap was blown.
//!
//! * **Distributed level** — `sort_out_of_core` vs `HssSorter::sort`,
//!   across key distributions × memory caps × sync models × 1 and 4 rayon
//!   threads × `u64` and 100-byte `TeraRecord` payloads × exact and
//!   approximate (§3.4) histograms.  Identical per-rank output everywhere;
//!   deterministic simulator signature invariant to thread count and host
//!   I/O mode; measured scratch bytes and modelled disk words within the
//!   single-pass budget; scratch directory empty afterwards.
//! * **The pipeline's full product** — granularity × schedule × residency ×
//!   distribution in one table, plus the degenerate shapes (empty ranks,
//!   `p = 1`, a cap of one record, stage fractions 0 and 1): a call nobody
//!   spills in *is* `HssSorter::sort`, charge for charge; a call somebody
//!   spills in outputs what `sort` outputs on a Bsp machine.
//! * **Proptest** — fuzzes the pull-based merge cursor against the
//!   file-based merge oracle (`sort_to_vec`) over chunk-boundary geometry,
//!   duplicate-heavy inputs, and empty/one-element runs, and checks staged
//!   `drain_source_below` cuts land exactly on `partition_point` boundaries
//!   (the invariant the staged drain's bitwise identity rests on).

use hss_repro::extsort::{ExtSortConfig, ExtSortReport, ExternalSorter, IoMode, PlainRecord};
use hss_repro::keygen::{generate_tera_records_per_rank, Keyed, TeraRecord};
use hss_repro::lsort::RadixSortable;
use hss_repro::partition::{drain_source_below, drain_source_rest};
use hss_repro::prelude::*;

use proptest::collection::vec;
use proptest::prelude::*;

const SEED: u64 = 2019;

fn scratch_root() -> String {
    std::env::temp_dir().join("hss-pipeline-differential").to_string_lossy().into_owned()
}

fn policy(cap: usize, mode: IoMode) -> ExtSortPolicy {
    ExtSortPolicy::new(cap, scratch_root()).with_fan_in(2).with_io_mode(mode)
}

fn distributions() -> [KeyDistribution; 4] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
        KeyDistribution::Staggered,
    ]
}

/// One row of [`hss_sim::PhaseMetrics::deterministic_signature`].
type SignatureRow = (&'static str, u64, u64, u64, u64, u64, u64);

struct RunResult<T> {
    data: Vec<Vec<T>>,
    signature: Vec<SignatureRow>,
    disk_words: u64,
    ext: ExtSortReport,
    algorithm: String,
}

/// Run `sort_out_of_core` under `config` on a pool with `threads` rayon
/// threads.
fn run_ooc_with<T>(
    input: &[Vec<T>],
    config: HssConfig,
    sync: SyncModel,
    threads: usize,
) -> RunResult<T>
where
    T: Keyed + Ord + RadixSortable + PlainRecord + Send + Sync,
    T::K: RadixSortable,
{
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("test pool");
    pool.install(|| {
        let mut machine = Machine::flat(input.len()).with_sync_model(sync);
        let (outcome, ext) = HssSorter::new(config).sort_out_of_core(&mut machine, input.to_vec());
        assert!(ext.runs_formed > 0, "cap must force the external path");
        RunResult {
            data: outcome.data,
            signature: machine.metrics().deterministic_signature(),
            disk_words: machine.metrics().total_disk_words(),
            ext,
            algorithm: outcome.report.algorithm,
        }
    })
}

/// [`run_ooc_with`] under the default configuration plus `policy`.
fn run_ooc<T>(
    input: &[Vec<T>],
    policy: ExtSortPolicy,
    sync: SyncModel,
    threads: usize,
) -> RunResult<T>
where
    T: Keyed + Ord + RadixSortable + PlainRecord + Send + Sync,
    T::K: RadixSortable,
{
    run_ooc_with(input, HssConfig::default().with_ext_sort(policy), sync, threads)
}

#[test]
fn spilled_sort_matches_in_memory_across_dists_caps_models_and_threads() {
    let p = 8;
    let n = 600;
    for dist in distributions() {
        let input = dist.generate_per_rank(p, n, SEED);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        for cap_div in [4usize, 12] {
            let cap = (n * std::mem::size_of::<u64>() / cap_div).max(std::mem::size_of::<u64>());
            for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
                let label = format!("{} cap_div={cap_div} sync={}", dist.name(), sync.name());
                let run = run_ooc(&input, policy(cap, IoMode::Overlapped), sync, 1);
                assert_eq!(run.data, reference.data, "{label}: out-of-core vs in-memory");
                assert_eq!(run.algorithm, "hss-extsort");
                // Traffic bounds are asserted at realistic sizes in
                // `spilled_sort_makes_no_second_disk_round_trip`; at the few
                // hundred keys this matrix uses, runs are smaller than one
                // fence stride and probe I/O rivals the data itself.
            }
        }

        // Thread-count and host I/O-mode invariance (Overlapped sync, the
        // arm with the most asynchrony to get wrong).
        let cap = n * std::mem::size_of::<u64>() / 4;
        let p1 = run_ooc(&input, policy(cap, IoMode::Overlapped), SyncModel::Overlapped, 1);
        let p4 = run_ooc(&input, policy(cap, IoMode::Overlapped), SyncModel::Overlapped, 4);
        let ps = run_ooc(&input, policy(cap, IoMode::Synchronous), SyncModel::Overlapped, 1);
        assert_eq!(p1.data, p4.data, "{}: thread-count must not change output", dist.name());
        assert_eq!(p1.data, ps.data, "{}: host I/O mode must not change output", dist.name());
        assert_eq!(p1.signature, p4.signature, "{}: signature thread-invariant", dist.name());
        assert_eq!(
            p1.signature,
            ps.signature,
            "{}: host I/O scheduling must not change modelled cost",
            dist.name()
        );
        hss_repro::partition::verify_global_sort(&input, &p1.data).expect("global sort");
    }
}

#[test]
fn spilled_sort_matches_in_memory_for_tera_records() {
    let p = 4;
    let n = 300;
    let s = std::mem::size_of::<TeraRecord>();
    assert_eq!(s, 100, "TeraRecord must be the 10-byte-key / 100-byte record");
    let input = generate_tera_records_per_rank(p, n, SEED);
    let mut m_ref = Machine::flat(p);
    let reference = HssSorter::default().sort(&mut m_ref, input.clone());

    let cap = n * s / 4;
    for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
        let run = run_ooc(&input, policy(cap, IoMode::Overlapped), sync, 1);
        assert_eq!(run.data, reference.data, "{}", sync.name());
    }
}

/// "No second disk round-trip", stated absolutely: with every rank and
/// every destination over the cap, the scratch files are written exactly
/// twice (`N` of runs at formation, `N` of spills before the destination
/// merges) and streamed exactly twice (the drain, the merges).  Whatever
/// else is read is splitter probes: reads of at most one fence-stride
/// window each, in total less than the write + read-back a materialized
/// sorted array would cost.  The modelled disk words follow the measured
/// bytes.  Sizes are those where a fence stride (~512 B) is a small
/// fraction of each run — the regime the tier exists for.
fn assert_single_pass_budget<T>(label: &str, input: &[Vec<T>], sync: SyncModel)
where
    T: Keyed + Ord + RadixSortable + PlainRecord + Send + Sync,
    T::K: RadixSortable,
{
    let width = std::mem::size_of::<T>();
    let p = input.len() as u64;
    let data_bytes = (input.iter().map(Vec::len).sum::<usize>() * width) as u64;
    // A quarter of a rank's input, default fan-in (16 ≥ the 8 runs a rank
    // forms and the `p` runs a destination receives): no reduction passes.
    let cap = input[0].len() * width / 4;
    let run = run_ooc(input, ExtSortPolicy::new(cap, scratch_root()), sync, 1);
    let ext = run.ext;
    assert!(
        run.data.iter().all(|out| out.len() * width > cap),
        "{label}: every destination must spill"
    );
    assert_eq!(ext.merge_passes, 1, "{label}: one merge pass per spill");
    assert_eq!(ext.bytes_written, 2 * data_bytes, "{label}: formation write + spill write");
    let probe_bytes = ext.bytes_read - 2 * data_bytes;
    // `extsort::query`'s probe window: one fence stride of records.
    let window_bytes = ((512 / width).max(32) * width) as u64;
    assert!(
        probe_bytes <= ext.read_transfers * window_bytes,
        "{label}: {probe_bytes} B beyond the two streaming reads exceed one \
         {window_bytes} B window per read transfer ({})",
        ext.read_transfers
    );
    assert!(
        probe_bytes < 2 * data_bytes,
        "{label}: probes read {probe_bytes} B, a second round-trip is {} B",
        2 * data_bytes
    );
    // Every charge rounds its bytes up to whole words: at most one word
    // per rank per superstep, of which there are a few per bucket.
    let charged_bytes = 8 * run.disk_words;
    assert!(charged_bytes >= ext.disk_bytes(), "{label}: measured traffic must be charged");
    assert!(
        charged_bytes <= ext.disk_bytes() + 8 * p * (p + 64),
        "{label}: {charged_bytes} B charged for {} B moved",
        ext.disk_bytes()
    );
}

#[test]
fn spilled_sort_makes_no_second_disk_round_trip() {
    let (p, n) = (4, 20_000);
    let keys = KeyDistribution::Uniform.generate_per_rank(p, n, SEED);
    for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
        assert_single_pass_budget(&format!("u64 {}", sync.name()), &keys, sync);
    }
    // 100-byte terasort records: wide payloads shift every byte count but
    // not the budget.
    let records = generate_tera_records_per_rank(p, n, SEED);
    for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
        assert_single_pass_budget(&format!("tera {}", sync.name()), &records, sync);
    }
}

/// §3.4 approximate histograms compose with the out-of-core tier: a spilled
/// rank draws the block positions an in-memory rank would and answers them
/// from its run files, so the output matches `HssSorter::sort` under the
/// same configuration bitwise — with every rank spilled, and with a mix of
/// spilled and in-memory ranks.
#[test]
fn approximate_histograms_match_in_memory_when_ranks_spill() {
    let scratch = std::env::temp_dir().join("hss-pipeline-differential-approx");
    let _ = std::fs::remove_dir_all(&scratch);
    let policy = |cap: usize| {
        ExtSortPolicy::new(cap, scratch.to_string_lossy()).with_io_mode(IoMode::Overlapped)
    };
    let config = || HssConfig::default().with_seed(SEED).with_approximate_histograms();

    let uniform = KeyDistribution::Uniform.generate_per_rank(8, 3_000, SEED);
    // 1 200 / 60 / 900 / 10 records under a 400-record cap: ranks 0 and 2
    // spill, ranks 1 and 3 stay in memory.
    let mixed: Vec<Vec<u64>> = [1_200usize, 60, 900, 10]
        .iter()
        .zip(KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(4, 1_200, SEED))
        .map(|(&len, keys)| keys[..len].to_vec())
        .collect();
    let cases = [("all spilled", &uniform, 3_000 * 8 / 4), ("mixed", &mixed, 400 * 8)];

    for (label, input, cap) in cases {
        let mut m_ref = Machine::flat(input.len());
        let reference = HssSorter::new(config()).sort(&mut m_ref, input.clone());
        for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
            let run = run_ooc_with(input, config().with_ext_sort(policy(cap)), sync, 1);
            assert_eq!(run.data, reference.data, "{label} {}", sync.name());
        }
        let leftovers: Vec<_> =
            std::fs::read_dir(&scratch).expect("scratch root exists").flatten().collect();
        assert!(leftovers.is_empty(), "{label}: scratch not cleaned: {leftovers:?}");
    }
}

#[test]
fn spilled_sort_auto_tuned_and_pinned_prefetch_depths_agree_bitwise() {
    let p = 4;
    let n = 500;
    let input = KeyDistribution::PowerLaw { gamma: 4.0 }.generate_per_rank(p, n, SEED);
    let cap = n * std::mem::size_of::<u64>() / 6;
    let auto = run_ooc(&input, policy(cap, IoMode::Overlapped), SyncModel::Overlapped, 1);
    for depth in [2usize, 4, 16] {
        let pinned = run_ooc(
            &input,
            policy(cap, IoMode::Overlapped).with_prefetch_depth(depth),
            SyncModel::Overlapped,
            1,
        );
        assert_eq!(auto.data, pinned.data, "depth {depth} must not change output");
    }
}

/// One run of either entry point, reduced to what the product table
/// compares.
struct Observed {
    data: Vec<Vec<u64>>,
    signature: Vec<SignatureRow>,
    imbalance_ok: bool,
    ext: ExtSortReport,
}

/// Sort `input` on `machine` with `threads` rayon threads: through
/// `sort_out_of_core` if `config` carries a policy, through `sort` if not.
fn observe(
    input: &[Vec<u64>],
    config: &HssConfig,
    mut machine: Machine,
    threads: usize,
) -> Observed {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("test pool");
    pool.install(|| {
        let sorter = HssSorter::new(config.clone());
        let (outcome, ext) = match config.ext_sort {
            Some(_) => sorter.sort_out_of_core(&mut machine, input.to_vec()),
            None => (sorter.sort(&mut machine, input.to_vec()), ExtSortReport::default()),
        };
        // Across-node and within-node slack compose for node buckets.
        let slack = if config.node_level && machine.topology().cores_per_node() > 1 {
            (1.0 + config.epsilon) * (1.0 + config.within_node_epsilon) - 1.0
        } else {
            config.epsilon
        };
        Observed {
            imbalance_ok: outcome.report.satisfies(slack),
            data: outcome.data,
            signature: machine.metrics().deterministic_signature(),
            ext,
        }
    })
}

fn assert_scratch_is_empty(scratch: &std::path::Path, label: &str) {
    let leftovers: Vec<_> = match std::fs::read_dir(scratch) {
        Ok(entries) => entries.flatten().collect(),
        Err(_) => Vec::new(), // nobody spilled: the root was never created
    };
    assert!(leftovers.is_empty(), "{label}: scratch not cleaned: {leftovers:?}");
}

/// Everything the pipeline composes, in one table: bucket granularity
/// {rank, node} × schedule {Bsp, Overlapped} × residency {nobody over the
/// cap, only the large ranks of an uneven input, everybody} × four
/// distributions.
///
/// Every cell is a correct, balanced global sort, leaves no scratch file,
/// and charges the same at 1 and 4 host threads.  A cell nobody spills in is
/// `HssSorter::sort` on the same machine — same output, same deterministic
/// signature, an all-zero `ExtSortReport`.  A cell with a spilled rank puts
/// the splitters first under either sync model, so its output is what
/// `sort` produces on a Bsp machine of the same topology — and the
/// large-ranks cells run once more under [`LocalSortAlgo::Comparison`], so
/// spilled run formation is `sort_unstable` too and must change nothing.
#[test]
fn every_granularity_schedule_and_residency_is_one_pipeline() {
    let p = 16;
    let width = std::mem::size_of::<u64>();
    for dist in distributions() {
        let scratch = std::env::temp_dir()
            .join(format!("hss-pipeline-differential-product-{}", dist.name().replace(' ', "-")));
        let _ = std::fs::remove_dir_all(&scratch);
        let input = dist.generate_uneven_per_rank(p, 500, 0.6, SEED);
        let mut sizes: Vec<usize> = input.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        // Few distinct keys cannot balance without tagging; the sort and the
        // accounting must hold all the same.
        let balanced = !matches!(dist, KeyDistribution::FewDistinct { .. });

        for node_level in [false, true] {
            let topology = if node_level { Topology::new(p, 4) } else { Topology::flat(p) };
            let machine = |sync| Machine::new(topology, CostModel::default()).with_sync_model(sync);
            let mut config = HssConfig::default().with_seed(SEED);
            config.node_level = node_level;
            for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
                // (who spills, the cap that selects them, how many ranks that is)
                let caps = [
                    ("nobody", 1 << 20, 0..=0),
                    ("large ranks", sizes[p / 2] * width, 1..=p - 1),
                    ("everybody", sizes[0] * width / 2, p..=p),
                ];
                for (residency, cap, selected) in caps {
                    let label = format!(
                        "{} node_level={node_level} {} spilled={residency}",
                        dist.name(),
                        sync.name()
                    );
                    let spilled_ranks = sizes.iter().filter(|&&n| n * width > cap).count();
                    assert!(selected.contains(&spilled_ranks), "{label}: {spilled_ranks} spill");
                    let capped = config.clone().with_ext_sort(
                        ExtSortPolicy::new(cap, scratch.to_string_lossy())
                            .with_io_mode(IoMode::Overlapped),
                    );
                    let run = observe(&input, &capped, machine(sync), 1);
                    hss_repro::partition::verify_global_sort(&input, &run.data)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    assert!(run.imbalance_ok || !balanced, "{label}: imbalance beyond (1+ε)N/p");

                    if spilled_ranks == 0 {
                        let reference = observe(&input, &config, machine(sync), 1);
                        assert_eq!(run.data, reference.data, "{label}: output vs sort");
                        assert_eq!(run.signature, reference.signature, "{label}: charges vs sort");
                        assert_eq!(run.ext, ExtSortReport::default(), "{label}");
                    } else {
                        let reference = observe(&input, &config, machine(SyncModel::Bsp), 1);
                        assert_eq!(run.data, reference.data, "{label}: output vs Bsp sort");
                        assert!(run.ext.runs_formed > 0, "{label}: somebody spilled");
                        assert!((0.0..=1.0).contains(&run.ext.io_wait_fraction()), "{label}");
                    }

                    let four = observe(&input, &capped, machine(sync), 4);
                    assert_eq!(run.data, four.data, "{label}: output thread-invariant");
                    assert_eq!(run.signature, four.signature, "{label}: charges thread-invariant");

                    if residency == "large ranks" {
                        let comparison = capped.clone().with_local_sort(LocalSortAlgo::Comparison);
                        let cmp = observe(&input, &comparison, machine(sync), 1);
                        assert_eq!(run.data, cmp.data, "{label}: output vs comparison local sort");
                        assert!(cmp.ext.runs_formed > 0, "{label}: comparison cell spilled");
                    }
                    assert_scratch_is_empty(&scratch, &label);
                }
            }
        }
    }
}

/// The degenerate shapes of the spilled schedule, each under both sync
/// models and bitwise against `sort`: empty ranks between spilled ranks, a
/// single rank, nothing to sort, a cap of one record, stages of every and
/// of no bucket, and rank buckets on a multi-core topology.
#[test]
fn degenerate_shapes_under_a_cap_match_sort() {
    let scratch = std::env::temp_dir().join("hss-pipeline-differential-degenerate");
    let _ = std::fs::remove_dir_all(&scratch);
    let policy = |cap: usize| ExtSortPolicy::new(cap, scratch.to_string_lossy());
    let keys = |p: usize, n: usize| KeyDistribution::Uniform.generate_per_rank(p, n, SEED);
    let base = HssConfig::default().with_seed(SEED);
    let flat = Topology::flat;

    let mut gaps = keys(6, 800);
    for empty in [1, 3, 4] {
        gaps[empty].clear();
    }
    let cases = vec![
        ("empty ranks between spilled ranks", gaps, flat(6), base.clone(), 400 * 8),
        ("one rank", keys(1, 900), flat(1), base.clone(), 300 * 8),
        ("all-empty input", vec![Vec::new(); 4], flat(4), base.clone(), 64),
        ("a cap of one record", keys(4, 40), flat(4), base.clone(), 8),
        (
            "stage every bucket",
            keys(8, 600),
            flat(8),
            base.clone().with_min_stage_fraction(0.0),
            1200,
        ),
        ("one stage", keys(8, 600), flat(8), base.clone().with_min_stage_fraction(1.0), 1200),
        ("rank buckets on 4-core nodes", keys(8, 600), Topology::new(8, 4), base.clone(), 1200),
    ];
    for (label, input, topology, config, cap) in cases {
        let any_spilled = input.iter().any(|rank| rank.len() * 8 > cap);
        for sync in [SyncModel::Bsp, SyncModel::Overlapped] {
            let machine = |sync| Machine::new(topology, CostModel::default()).with_sync_model(sync);
            let capped = config.clone().with_ext_sort(policy(cap));
            let run = observe(&input, &capped, machine(sync), 1);
            // A spilled rank puts the splitters first: the Bsp partition.
            let reference_sync = if any_spilled { SyncModel::Bsp } else { sync };
            let reference = observe(&input, &config, machine(reference_sync), 1);
            assert_eq!(run.data, reference.data, "{label} {}", sync.name());
            assert_eq!(run.ext.runs_formed > 0, any_spilled, "{label} {}", sync.name());
            assert_scratch_is_empty(&scratch, label);
        }
    }
}

/// Cases per property, overridable via `PROPTEST_CASES` (repo convention).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(24)
}

fn ext_cfg(chunk_elems: usize, fan_in: usize) -> ExtSortConfig {
    ExtSortConfig::new(2 * chunk_elems * std::mem::size_of::<u64>(), scratch_root())
        .with_fan_in(fan_in)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    /// The pull-based cursor, drained to exhaustion, must emit exactly the
    /// sequence the file-based merge (`sort_to_vec`) materializes — over
    /// arbitrary chunk geometry (empty input, one run, runs ≫ fan-in
    /// forcing reduction passes) and both I/O modes.
    #[test]
    fn cursor_drain_matches_file_merge_oracle(
        input in vec(any::<u64>(), 0..400),
        chunk_elems in 1usize..48,
        fan_in in 2usize..6,
        depth in 2usize..5,
    ) {
        let oracle = ExternalSorter::new(ext_cfg(chunk_elems, fan_in))
            .sort_to_vec(input.iter().copied())
            .unwrap()
            .0;
        for mode in [IoMode::Synchronous, IoMode::Overlapped] {
            let sorter = ExternalSorter::new(
                ext_cfg(chunk_elems, fan_in).with_io_mode(mode).with_prefetch_depth(depth),
            );
            let runs = sorter.form_runs_only(input.iter().copied()).unwrap();
            let mut cursor = runs.into_cursor().unwrap();
            let mut got = Vec::with_capacity(input.len());
            while let Some(x) = cursor.next() {
                got.push(x);
            }
            prop_assert_eq!(&got, &oracle, "mode={}", mode.name());
            prop_assert_eq!(cursor.emitted() as usize, input.len());
            cursor.finish().unwrap();
        }
    }

    /// Duplicate-heavy keys: run boundaries land inside giant equal
    /// ranges, and the cursor's loser tree must reproduce the canonical
    /// order through its lower-run-index tie-break.
    #[test]
    fn duplicate_heavy_cursor_drains_identically(
        input in vec(0u64..8, 0..600),
        chunk_elems in 1usize..32,
    ) {
        let mut expected = input.clone();
        expected.sort_unstable();
        let runs = ExternalSorter::new(ext_cfg(chunk_elems, 2))
            .form_runs_only(input.iter().copied())
            .unwrap();
        let mut cursor = runs.into_cursor().unwrap();
        let mut got = Vec::new();
        while let Some(x) = cursor.next() {
            got.push(x);
        }
        prop_assert_eq!(got, expected);
        cursor.finish().unwrap();
    }

    /// Staged drains must cut exactly where `partition_point(key < bound)`
    /// cuts the materialized sorted array — including empty buckets from
    /// repeated bounds and a bound below the minimum — since this is the
    /// boundary the staged drain seals buckets on.
    #[test]
    fn staged_cursor_drain_cuts_match_partition_points(
        input in vec(0u64..64, 0..500),
        chunk_elems in 1usize..32,
        mut bounds in vec(0u64..64, 0..6),
    ) {
        bounds.sort_unstable();
        let mut expected = input.clone();
        expected.sort_unstable();
        let runs = ExternalSorter::new(ext_cfg(chunk_elems, 2))
            .form_runs_only(input.iter().copied())
            .unwrap();
        let mut cursor = runs.into_cursor().unwrap();
        let mut pos = 0usize;
        for &b in &bounds {
            let mut buf = Vec::new();
            drain_source_below(&mut cursor, b, &mut buf);
            let cut = expected.partition_point(|&x| x < b);
            prop_assert_eq!(&buf[..], &expected[pos..cut], "bound {}", b);
            pos = cut;
        }
        let mut rest = Vec::new();
        drain_source_rest(&mut cursor, &mut rest);
        prop_assert_eq!(&rest[..], &expected[pos..]);
        cursor.finish().unwrap();
    }
}
