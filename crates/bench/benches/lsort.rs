//! Criterion micro-benchmark of the local-sort subsystem: `sort_unstable`
//! vs the sequential in-place MSD radix sort vs the parallel radix driver.
//!
//! Every timed call sorts its own pre-made copy in place, so a number is the
//! sort alone.  The `u64` rows (uniform and power-law keys) include the
//! lengths the benchmark's workloads hand the layer: a whole input inside
//! the cache-resident sub-level (4096, 16 384), the `u64-spill` formation
//! chunk (65 536) and the `u64-fat` rank (524 288); `record-16B` is the
//! 16-byte `Record` at the `tera-fat` tag count.  The wide rows are
//! `tera-100B` = `TeraRecord`, `wide-40B` = `WideRecord<10, 30>`, and
//! `tera-100B-dup-prefix`, where a thousand distinct 8-byte key prefixes
//! leave key bytes 9–10 to decide — the layer figures behind the `tera-fat`
//! end-to-end claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hss_keygen::{
    generate_tera_records_per_rank, ByteKey, KeyDistribution, TeraRecord, WideRecord,
};
use hss_lsort::{par_radix_sort, radix_sort, RadixSortable};

const SAMPLES: usize = 10;

/// A row's sorter: its name in the row id and the sort it times.
type Sorter<T> = (&'static str, fn(&mut [T]));

/// One row per sorter for one input, each timed call sorting its own
/// pre-made copy (one per sample plus the harness's warm-up call).
fn bench_sorts<T: RadixSortable>(c: &mut Criterion, shape: &str, data: &[T], sorts: &[Sorter<T>]) {
    let mut group = c.benchmark_group("lsort");
    group.sample_size(SAMPLES);
    group.throughput(Throughput::Elements(data.len() as u64));
    for (algo, sort) in sorts {
        let mut copies = vec![data.to_vec(); SAMPLES + 1];
        group.bench_function(BenchmarkId::new(format!("{algo}/{shape}"), data.len()), |b| {
            let mut unsorted = copies.iter_mut();
            b.iter(|| sort(unsorted.next().expect("one copy per timed call")))
        });
    }
    group.finish();
}

/// `comparison`, `radix` and `radix-par` rows for a narrow input.
fn bench_narrow<T: RadixSortable + Send + Sync>(c: &mut Criterion, shape: &str, data: &[T]) {
    let sorts: [Sorter<T>; 3] = [
        ("comparison", |v| v.sort_unstable()),
        ("radix", radix_sort),
        ("radix-par", par_radix_sort),
    ];
    bench_sorts(c, shape, data, &sorts);
}

/// `comparison` and `radix` rows for a wide input.
fn bench_wide<T: RadixSortable>(c: &mut Criterion, shape: &str, data: &[T]) {
    let sorts: [Sorter<T>; 2] = [("comparison", |v| v.sort_unstable()), ("radix", radix_sort)];
    bench_sorts(c, shape, data, &sorts);
}

fn bench_lsort(c: &mut Criterion) {
    for (name, dist) in [
        ("uniform", KeyDistribution::Uniform),
        ("powerlaw", KeyDistribution::PowerLaw { gamma: 4.0 }),
    ] {
        for n in [1usize << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 19, 1 << 20] {
            bench_narrow(c, name, &dist.generate_per_rank(1, n, 42).remove(0));
        }
    }
    let records = KeyDistribution::Uniform.generate_records_per_rank(1, 160_000, 42).remove(0);
    bench_narrow(c, "record-16B", &records);

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
