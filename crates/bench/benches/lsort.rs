//! Criterion micro-benchmark of the local-sort subsystem: `sort_unstable`
//! vs the sequential in-place MSD radix sort vs the parallel radix driver.
//!
//! The `u64` rows (uniform and power-law keys) include a per-iteration clone
//! of the unsorted input in every variant identically, so their ratios are
//! conservative.  The wide rows (`tera-100B` = `TeraRecord`, `wide-40B` =
//! `WideRecord<10, 30>`, and `tera-100B-dup-prefix`, where a thousand
//! distinct 8-byte key prefixes leave key bytes 9–10 to decide) sort
//! pre-cloned inputs in place, so the number is the sort alone — the layer
//! figure behind the `tera-fat` end-to-end claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hss_keygen::{
    generate_tera_records_per_rank, ByteKey, KeyDistribution, TeraRecord, WideRecord,
};
use hss_lsort::{par_radix_sort, radix_sort, RadixSortable};

const SAMPLES: usize = 10;

fn input(dist: &KeyDistribution, n: usize) -> Vec<u64> {
    dist.generate_per_rank(1, n, 42).remove(0)
}

/// `comparison` and `radix` rows for one wide input, each timed call sorting
/// its own pre-made copy (one per sample plus the harness's warm-up call).
fn bench_wide<T: RadixSortable>(c: &mut Criterion, shape: &str, data: &[T]) {
    let mut group = c.benchmark_group("lsort");
    group.sample_size(SAMPLES);
    group.throughput(Throughput::Elements(data.len() as u64));
    let comparison: fn(&mut [T]) = |v| v.sort_unstable();
    for (algo, sort) in [("comparison", comparison), ("radix", radix_sort)] {
        let mut copies = vec![data.to_vec(); SAMPLES + 1];
        group.bench_function(BenchmarkId::new(format!("{algo}/{shape}"), data.len()), |b| {
            let mut unsorted = copies.iter_mut();
            b.iter(|| sort(unsorted.next().expect("one copy per timed call")))
        });
    }
    group.finish();
}

fn bench_lsort(c: &mut Criterion) {
    let mut group = c.benchmark_group("lsort");
    group.sample_size(SAMPLES);

    for (name, dist) in [
        ("uniform", KeyDistribution::Uniform),
        ("powerlaw", KeyDistribution::PowerLaw { gamma: 4.0 }),
    ] {
        for n in [1usize << 14, 1 << 17, 1 << 20] {
            let data = input(&dist, n);
            group.bench_function(BenchmarkId::new(format!("comparison/{name}"), n), |b| {
                b.iter(|| {
                    let mut v = data.clone();
                    v.sort_unstable();
                    v
                })
            });
            group.bench_function(BenchmarkId::new(format!("radix/{name}"), n), |b| {
                b.iter(|| {
                    let mut v = data.clone();
                    radix_sort(&mut v);
                    v
                })
            });
            group.bench_function(BenchmarkId::new(format!("radix-par/{name}"), n), |b| {
                b.iter(|| {
                    let mut v = data.clone();
                    par_radix_sort(&mut v);
                    v
                })
            });
        }
    }
    group.finish();

    for n in [20_000usize, 160_000, 1_000_000] {
        let tera = generate_tera_records_per_rank(1, n, 42).remove(0);
        let narrow: Vec<WideRecord<10, 30>> =
            tera.iter().map(|r| WideRecord::with_derived_payload(r.key)).collect();
        bench_wide(c, "wide-40B", &narrow);
        if n == 160_000 {
            let dup: Vec<TeraRecord> = tera
                .iter()
                .map(|r| {
                    let mut key = r.key.0;
                    key[..6].fill(0);
                    key[6] &= 3;
                    TeraRecord::with_derived_payload(ByteKey::new(key))
                })
                .collect();
            bench_wide(c, "tera-100B-dup-prefix", &dup);
        }
        bench_wide(c, "tera-100B", &tera);
    }
}

criterion_group!(benches, bench_lsort);
criterion_main!(benches);
