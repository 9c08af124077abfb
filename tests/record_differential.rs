//! Wide-record differential suite: 100-byte terasort records
//! ([`TeraRecord`], a 10-byte [`ByteKey`] plus a 90-byte derived payload)
//! must sort exactly like their bare keys, keep every payload attached to
//! its key, and stay bitwise-deterministic across thread counts and sync
//! models — for every sorter in the registry.
//!
//! Oracles:
//!
//! 1. **Bare-key order.**  Running a sorter over `Vec<Vec<TeraRecord>>` and
//!    the same sorter over the stripped `Vec<Vec<ByteKey<10>>>` must place
//!    the same key at every per-rank position: payloads ride along without
//!    influencing routing.
//! 2. **Payload integrity.**  After any sort, every record still satisfies
//!    [`TeraRecord::payload_matches_key`] — no payload was torn from its
//!    key by the move-by-index local-sort path or the flat exchanges.
//! 3. **Thread-count invariance.**  Sequential execution and a genuine
//!    4-thread pool produce bitwise-identical per-rank outputs and
//!    identical simulated-cost signatures.
//! 4. **Sync-model neutrality.**  Non-HSS sorters charge identically under
//!    Bsp and Overlapped; overlapped HSS still sorts correctly, keeps
//!    payloads intact and never exceeds the Bsp makespan.
//! 5. **Lexicographic oracle (proptest).**  `ByteKey` comparison, including
//!    equal-prefix and all-`0xFF` sentinel-adjacent keys, agrees with the
//!    `Vec<u8>` lexicographic order and with the key's own radix digits.

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use hss_repro::baselines::standard_sorters_for;
use hss_repro::keygen::{generate_tera_records_per_rank, ByteKey, TeraRecord};
use hss_repro::lsort::RadixSortable;
use hss_repro::partition::verify_global_sort;
use hss_repro::prelude::*;
use hss_repro::sim::{Parallelism, SyncModel};

const RANKS: usize = 8; // power of two for the bitonic entry
const RECORDS_PER_RANK: usize = 250;
const SEED: u64 = 2019;
const EPS: f64 = 0.2;
const POOL_THREADS: usize = 4;

fn tera_input() -> Vec<Vec<TeraRecord>> {
    generate_tera_records_per_rank(RANKS, RECORDS_PER_RANK, SEED)
}

fn bare_keys(input: &[Vec<TeraRecord>]) -> Vec<Vec<ByteKey<10>>> {
    input.iter().map(|v| v.iter().map(|r| r.key).collect()).collect()
}

/// The shared multi-threaded pool for the parallel legs (independent of the
/// host's core count and of `RAYON_NUM_THREADS`).
fn pool() -> &'static rayon::ThreadPool {
    static POOL: OnceLock<rayon::ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        rayon::ThreadPoolBuilder::new().num_threads(POOL_THREADS).build().expect("test pool")
    })
}

#[test]
fn tera_record_sort_matches_bare_key_sort_and_keeps_payloads() {
    let input = tera_input();
    let keys = bare_keys(&input);
    let record_sorters = standard_sorters_for::<TeraRecord>(RANKS, EPS);
    let key_sorters = standard_sorters_for::<ByteKey<10>>(RANKS, EPS);
    for (rs, ks) in record_sorters.iter().zip(key_sorters.iter()) {
        let label = rs.algorithm();
        let mut rec_machine = Machine::flat(RANKS);
        let rec_out = rs.run(&mut rec_machine, SortRequest::new(input.clone())).unwrap().data;
        verify_global_sort(&input, &rec_out)
            .unwrap_or_else(|e| panic!("{label}: record sort invalid: {e}"));
        assert!(
            rec_out.iter().flatten().all(TeraRecord::payload_matches_key),
            "{label}: a payload was separated from its key"
        );

        let mut key_machine = Machine::flat(RANKS);
        let key_out = ks.run(&mut key_machine, SortRequest::new(keys.clone())).unwrap().data;
        for (rank, (recs, bare)) in rec_out.iter().zip(key_out.iter()).enumerate() {
            let rec_keys: Vec<ByteKey<10>> = recs.iter().map(|r| r.key).collect();
            assert_eq!(
                &rec_keys, bare,
                "{label}: rank {rank} key order differs from the bare-key sort"
            );
        }
    }
}

#[test]
fn tera_record_sort_is_thread_count_invariant() {
    let input = tera_input();
    let sorter_count = standard_sorters_for::<TeraRecord>(RANKS, EPS).len();
    // `dyn Sorter` boxes are not `Sync`, so each leg rebuilds the
    // registry and picks its sorter by index.
    for idx in 0..sorter_count {
        let sorter = &standard_sorters_for::<TeraRecord>(RANKS, EPS)[idx];
        let label = sorter.algorithm();
        let mut seq_machine = Machine::flat(RANKS).with_parallelism(Parallelism::Sequential);
        let seq = sorter.run(&mut seq_machine, SortRequest::new(input.clone())).unwrap().data;
        let seq_sig = seq_machine.metrics().deterministic_signature();

        let (par, par_sig, threads) = pool().install(|| {
            let sorter = &standard_sorters_for::<TeraRecord>(RANKS, EPS)[idx];
            let mut par_machine = Machine::flat(RANKS);
            let out = sorter.run(&mut par_machine, SortRequest::new(input.clone())).unwrap().data;
            let sig = par_machine.metrics().deterministic_signature();
            (out, sig, par_machine.metrics().host_threads())
        });

        assert_eq!(
            threads, POOL_THREADS as u64,
            "{label}: parallel run did not execute on the 4-thread pool"
        );
        assert_eq!(seq, par, "{label}: output differs between 1 and {POOL_THREADS} threads");
        assert_eq!(seq_sig, par_sig, "{label}: cost signature differs across thread counts");
    }
}

#[test]
fn tera_record_sorters_are_sync_model_neutral() {
    let input = tera_input();
    for topo in [Topology::flat(RANKS), Topology::new(RANKS, 4)] {
        for sorter in standard_sorters_for::<TeraRecord>(RANKS, EPS) {
            let label = format!("{}/{} cores", sorter.algorithm(), topo.cores_per_node());
            let mut bsp = Machine::new(topo, CostModel::bluegene_like());
            let out_bsp = sorter.run(&mut bsp, SortRequest::new(input.clone())).unwrap().data;

            let mut ovl = Machine::new(topo, CostModel::bluegene_like())
                .with_sync_model(SyncModel::Overlapped);
            let out_ovl = sorter.run(&mut ovl, SortRequest::new(input.clone())).unwrap().data;

            verify_global_sort(&input, &out_ovl)
                .unwrap_or_else(|e| panic!("{label}: overlapped sort invalid: {e}"));
            assert!(
                out_ovl.iter().flatten().all(TeraRecord::payload_matches_key),
                "{label}: overlapped run tore a payload from its key"
            );
            // Overlap can only shorten the timeline — except for HSS on
            // a node-combined topology, where the staged exchange gives
            // up node-level message combining (same trade-off the flat
            // sync suite sidesteps by asserting on flat machines only).
            if !(sorter.algorithm().starts_with("hss") && topo.cores_per_node() > 1) {
                assert!(
                    ovl.simulated_time() <= bsp.simulated_time() * (1.0 + 1e-12),
                    "{label}: overlapped makespan {} above bsp {}",
                    ovl.simulated_time(),
                    bsp.simulated_time()
                );
            }
            if sorter.algorithm().starts_with("hss") {
                // HSS restructures its schedule under Overlapped (frozen
                // splitters may differ), so only the multiset is pinned.
                let mut a: Vec<TeraRecord> = out_bsp.into_iter().flatten().collect();
                let mut b: Vec<TeraRecord> = out_ovl.into_iter().flatten().collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{label}: record multiset diverged");
            } else {
                assert_eq!(out_bsp, out_ovl, "{label}: per-rank data diverged across sync models");
                assert_eq!(
                    bsp.metrics().deterministic_signature(),
                    ovl.metrics().deterministic_signature(),
                    "{label}: cost signature changed with the sync model"
                );
            }
        }
    }
}

/// Cases per property (see `tests/proptest_invariants.rs`).
fn configured_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&c| c > 0)
        .unwrap_or(24)
}

fn to_key(bytes: &[u8]) -> ByteKey<10> {
    let mut a = [0u8; 10];
    a.copy_from_slice(bytes);
    ByteKey::new(a)
}

/// The key's digit string, for the digits-vs-Ord cross-check.
fn digits(k: ByteKey<10>) -> Vec<u8> {
    (0..<ByteKey<10> as RadixSortable>::RADIX_BYTES).map(|i| k.radix_byte(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: configured_cases(), ..ProptestConfig::default() })]

    #[test]
    fn byte_key_order_matches_lexicographic_oracle(
        a in vec(any::<u8>(), 10..11),
        b in vec(any::<u8>(), 10..11),
        shared_prefix in 0usize..11,
        ff_mask in any::<u16>(),
    ) {
        // Three derived pairs per case: the raw draw, an equal-prefix pair
        // (first `shared_prefix` bytes of `b` overwritten with `a`'s, so
        // order is decided deep in the suffix), and a sentinel-adjacent
        // pair with bytes forced to 0xFF wherever `ff_mask` has a bit set.
        let mut prefixed = b.clone();
        prefixed[..shared_prefix].copy_from_slice(&a[..shared_prefix]);
        let saturate = |v: &[u8]| -> Vec<u8> {
            v.iter()
                .enumerate()
                .map(|(i, &x)| if ff_mask & (1 << (i % 16)) != 0 { 0xFF } else { x })
                .collect()
        };
        let pairs =
            [(a.clone(), b.clone()), (a.clone(), prefixed), (saturate(&a), saturate(&b))];
        for (x, y) in pairs {
            let kx = to_key(&x);
            let ky = to_key(&y);
            prop_assert_eq!(kx.cmp(&ky), x.cmp(&y), "key order vs Vec<u8> oracle");
            prop_assert_eq!(kx == ky, x == y);
            // The radix digit string must induce exactly the same order.
            prop_assert_eq!(digits(kx).cmp(&digits(ky)), x.cmp(&y), "digit order vs oracle");
            // Sentinels bracket every key.
            prop_assert!(<ByteKey<10> as hss_repro::keygen::Key>::MIN_KEY <= kx);
            prop_assert!(kx <= <ByteKey<10> as hss_repro::keygen::Key>::MAX_KEY);
        }
    }
}
