//! Criterion micro-benchmarks of the out-of-core tier's two phases — run
//! formation and the k-way disk merge.
//!
//! Run formation is benchmarked through `sort_to_vec` on caps that force
//! many runs; the disk merge is isolated via `merge_spilled` on pre-sorted
//! slices, which writes each slice as one run and merges them back.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hss_extsort::{ExtSortConfig, ExternalSorter};
use hss_keygen::KeyDistribution;

fn scratch_root() -> std::path::PathBuf {
    std::env::temp_dir().join("hss-extsort-bench")
}

fn cfg(cap: usize) -> ExtSortConfig {
    ExtSortConfig::new(cap, scratch_root()).with_fan_in(8)
}

/// Run formation + merge end to end (`sort_to_vec`): the full out-of-core
/// sort under a cap of 1/8 the input volume.
fn bench_run_formation(c: &mut Criterion) {
    let mut group = c.benchmark_group("extsort/sort_to_vec");
    group.sample_size(10);

    for n in [1usize << 18, 1 << 20] {
        let data = KeyDistribution::Uniform.generate_per_rank(1, n, 42).remove(0);
        let cap = n * 8 / 8; // 1/8 of the dataset -> 16 runs of n/16 keys
        group.throughput(Throughput::Bytes((n * 8) as u64));
        let sorter = ExternalSorter::new(cfg(cap));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let (out, rep) = sorter.sort_to_vec(data.iter().copied()).unwrap();
                assert_eq!(rep.elements, n as u64);
                out
            })
        });
    }

    group.finish();
}

/// The k-way disk merge in isolation: `merge_spilled` writes each
/// pre-sorted slice as one run (a cheap sequential dump) and then drives
/// the loser tree through disk windows.
fn bench_disk_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("extsort/kway_disk_merge");
    group.sample_size(10);

    for n in [1usize << 18, 1 << 20] {
        // 16 pre-sorted runs, merged under a cap of 1/8 the volume.
        let runs_count = 16;
        let mut runs: Vec<Vec<u64>> =
            KeyDistribution::Uniform.generate_per_rank(runs_count, n / runs_count, 7);
        for r in &mut runs {
            r.sort_unstable();
        }
        let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
        let cap = n * 8 / 8;
        group.throughput(Throughput::Bytes((n * 8) as u64));
        let sorter = ExternalSorter::new(cfg(cap));
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| {
                let (out, rep) = sorter.merge_spilled(&slices).unwrap();
                assert_eq!(rep.elements, n as u64);
                out
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_run_formation, bench_disk_merge);
criterion_main!(benches);
