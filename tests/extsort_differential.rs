//! Out-of-core differential suite: the external sorter must be *bitwise
//! indistinguishable* from the in-memory path in everything but where the
//! bytes live while being sorted.
//!
//! * **Sorter level** — `ExternalSorter::sort_to_vec` vs an in-memory sort
//!   of the same input, across key distributions × memory caps chosen to
//!   hit the interesting run-count regimes (single run, a run boundary one
//!   element wide, runs ≫ fan-in forcing multi-pass merges) × `u64` and
//!   100-byte `TeraRecord` payloads, every report's passes and bytes exactly
//!   those of its run count.
//! * **Distributed level** — `HssSorter::sort_out_of_core` vs
//!   `HssSorter::sort` on identical inputs and machines: same per-rank
//!   output, and a deterministic simulator signature that is identical at
//!   1 and 4 rayon threads (the extsort I/O threads are plain
//!   `std::thread` and must not perturb the modelled costs).
//! * **Proptest** — fuzzes chunk-boundary geometry (arbitrary input length
//!   vs arbitrary tiny cap) and duplicate-heavy inputs against
//!   `sort_unstable`.

use hss_repro::extsort::{ExtSortConfig, ExtSortReport, ExternalSorter};
use hss_repro::keygen::{generate_tera_records_per_rank, TeraRecord};
use hss_repro::lsort::radix_sort;
use hss_repro::prelude::*;

use proptest::collection::vec;
use proptest::prelude::*;

const SEED: u64 = 2019;

fn scratch_root() -> std::path::PathBuf {
    std::env::temp_dir().join("hss-extsort-differential")
}

fn cfg(cap: usize, fan_in: usize) -> ExtSortConfig {
    ExtSortConfig::new(cap, scratch_root()).with_fan_in(fan_in)
}

/// The byte accounting of a `sort_to_vec` of `n` records of `T` under
/// `cfg`: the passes are the depth of the `fan_in`-ary reduction over the
/// runs formed, and each pass reads the whole volume once and writes it
/// once — run formation the first write, the final pass into memory no
/// write.
fn assert_pass_accounting<T>(label: &str, cfg: &ExtSortConfig, n: usize, rep: &ExtSortReport) {
    let volume = (n * std::mem::size_of::<T>()) as u64;
    assert_eq!(rep.merge_passes, cfg.merge_passes_for(rep.runs_formed as usize), "{label}");
    assert_eq!(rep.bytes_written, rep.merge_passes * volume, "{label}: bytes written");
    assert_eq!(rep.bytes_read, rep.merge_passes * volume, "{label}: bytes read");
}

/// Memory caps that exercise the run-count regimes for `n` elements of
/// size `s`: one run exactly; a cap one element short of one chunk (run
/// boundary splits the input 1 element from the end); and a tiny cap that
/// with fan-in 2 forces several merge passes.
fn interesting_caps(n: usize, s: usize) -> Vec<(usize, usize)> {
    vec![
        (2 * n * s, 16),              // chunk == n: single run, trivial merge
        (2 * (n - 1) * s, 16),        // chunk == n-1: second run holds 1 element
        (2 * (n / 10).max(1) * s, 2), // ~10 runs at fan-in 2: multi-pass
    ]
}

fn distributions() -> [KeyDistribution; 4] {
    [
        KeyDistribution::Uniform,
        KeyDistribution::PowerLaw { gamma: 4.0 },
        KeyDistribution::FewDistinct { distinct: 5 },
        KeyDistribution::Staggered,
    ]
}

#[test]
fn external_sort_matches_in_memory_across_dists_caps_and_modes() {
    let n = 4_000;
    for dist in distributions() {
        let input: Vec<u64> =
            dist.generate_per_rank(4, n / 4, SEED).into_iter().flatten().collect();
        let mut expected = input.clone();
        radix_sort(&mut expected);
        for (cap, fan_in) in interesting_caps(n, std::mem::size_of::<u64>()) {
            let label = format!("{} cap={cap} fan_in={fan_in}", dist.name());
            let sorter = ExternalSorter::new(cfg(cap, fan_in));
            let (got, rep) = sorter.sort_to_vec(input.iter().copied()).unwrap();
            assert_eq!(got, expected, "{label}");
            assert_eq!(rep.elements, n as u64);
            let expected_runs = n.div_ceil(sorter.config().chunk_elems::<u64>());
            assert_eq!(rep.runs_formed, expected_runs as u64);
            assert_pass_accounting::<u64>(&label, sorter.config(), n, &rep);
        }
    }
}

#[test]
fn external_sort_matches_in_memory_for_tera_records() {
    let n = 1_200;
    let s = std::mem::size_of::<TeraRecord>();
    assert_eq!(s, 100, "TeraRecord must be the 10-byte-key / 100-byte record");
    let input: Vec<TeraRecord> =
        generate_tera_records_per_rank(4, n / 4, SEED).into_iter().flatten().collect();
    let mut expected = input.clone();
    expected.sort_unstable();
    for (cap, fan_in) in interesting_caps(n, s) {
        let label = format!("cap={cap} fan_in={fan_in}");
        let sorter = ExternalSorter::new(cfg(cap, fan_in));
        let (got, rep) = sorter.sort_to_vec(input.iter().copied()).unwrap();
        assert_eq!(got, expected, "{label}");
        // 100-byte records: byte accounting must match exactly.
        assert_pass_accounting::<TeraRecord>(&label, sorter.config(), n, &rep);
    }
}

/// One row of [`hss_sim::MetricsRegistry::deterministic_signature`].
type SignatureRow = (&'static str, u64, u64, u64, u64, u64, u64);

/// Run `sort_out_of_core` on a pool with `threads` rayon threads and
/// return (per-rank data, deterministic signature, makespan).
fn distributed_run(
    input: &[Vec<u64>],
    policy: ExtSortPolicy,
    threads: usize,
) -> (Vec<Vec<u64>>, Vec<SignatureRow>, f64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("test pool");
    pool.install(|| {
        let ranks = input.len();
        let mut machine = Machine::flat(ranks);
        let cfg = HssConfig::default().with_ext_sort(policy);
        let (outcome, ext) = HssSorter::new(cfg).sort_out_of_core(&mut machine, input.to_vec());
        assert!(ext.runs_formed > 0, "cap must force the external path");
        (outcome.data, machine.metrics().deterministic_signature(), machine.simulated_time())
    })
}

#[test]
fn distributed_out_of_core_is_bitwise_identical_and_thread_invariant() {
    let p = 8;
    let n = 900;
    for dist in distributions() {
        let input = dist.generate_per_rank(p, n, SEED);
        let mut m_ref = Machine::flat(p);
        let reference = HssSorter::default().sort(&mut m_ref, input.clone());

        // Cap = 1/4 of a rank's bytes: every rank spills its local sort.
        let policy = ExtSortPolicy::new(n * 8 / 4, scratch_root().to_string_lossy().into_owned())
            .with_fan_in(2);
        let (d1, s1, mk1) = distributed_run(&input, policy.clone(), 1);
        let (d4, s4, mk4) = distributed_run(&input, policy, 4);

        assert_eq!(d1, reference.data, "{} vs in-memory", dist.name());
        assert_eq!(d1, d4, "{}: thread-count must not change output", dist.name());
        assert_eq!(s1, s4, "{}: signature must be thread-invariant", dist.name());
        assert_eq!(mk1, mk4);
        verify_global_sort_ok(&input, &d1);
    }
}

fn verify_global_sort_ok(input: &[Vec<u64>], output: &[Vec<u64>]) {
    hss_repro::partition::verify_global_sort(input, output).expect("global sort");
}

/// Cases per property, overridable via `PROPTEST_CASES` (repo convention).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    /// Arbitrary input length vs arbitrary tiny chunk geometry: every
    /// relationship between `n` and the chunk/block sizes (empty input,
    /// n < chunk, n % chunk == 0, n % chunk == 1, ...) must round-trip.
    #[test]
    fn chunk_boundary_geometry_round_trips(
        input in vec(any::<u64>(), 0..400),
        chunk_elems in 1usize..48,
        fan_in in 2usize..6,
    ) {
        let cap = 2 * chunk_elems * std::mem::size_of::<u64>();
        let mut expected = input.clone();
        expected.sort_unstable();
        let sorter = ExternalSorter::new(cfg(cap, fan_in));
        let (got, rep) = sorter.sort_to_vec(input.iter().copied()).unwrap();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(rep.elements as usize, input.len());
    }

    /// Duplicate-heavy keys (8 distinct values): run boundaries land
    /// inside giant equal ranges, and the loser tree's lower-run-index
    /// tie-break must still produce the canonical sorted order.
    #[test]
    fn duplicate_heavy_inputs_sort_identically(
        input in vec(0u64..8, 0..600),
        chunk_elems in 1usize..32,
    ) {
        let cap = 2 * chunk_elems * std::mem::size_of::<u64>();
        let mut expected = input.clone();
        expected.sort_unstable();
        let sorter = ExternalSorter::new(cfg(cap, 2));
        let (got, _) = sorter.sort_to_vec(input.iter().copied()).unwrap();
        prop_assert_eq!(got, expected);
    }
}
