//! The host: its stamp for `results.json`, the measured ceilings the
//! `*_frac_of_*` ratios divide by, and the environment the benchmark
//! refuses to inherit.

use std::fs;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use crate::stats::median;

/// Environment variables that would silently change the measured program
/// (`LOCAL_SORT` picks the local-sort algorithm inside
/// `HssConfig::default()`, `RAYON_NUM_THREADS` sizes the pool, `HSS_*`
/// scale the repo's experiments).  The benchmark sets all of these
/// explicitly, so inherited values are dropped with a warning.
///
/// Must run before any other thread exists.
pub fn scrub_environment() {
    let leaked: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k == "LOCAL_SORT" || k == "RAYON_NUM_THREADS" || k.starts_with("HSS_"))
        .collect();
    for key in leaked {
        eprintln!("warning: ignoring {key} from the environment: the benchmark fixes its own configuration");
        std::env::remove_var(&key);
    }
}

/// Pin glibc malloc's adaptive state.  Left alone, its mmap and trim
/// thresholds move with the sizes a process happens to free first, and
/// worker threads get arenas of their own; whether a sort then page-faults
/// fresh memory or reuses freed memory differs from process to process
/// (ten unpinned `tera-fat` runs: median sort 0.256–0.332 s, peak RSS
/// 777–897 MiB; pinned: 0.243–0.262 s, 761.3–761.6 MiB).  One arena, a
/// fixed 32 MiB mmap threshold and no trimming make every run reuse the
/// per-rank buffers the warm-up sorts left behind.
///
/// Must run before any other thread exists.  A no-op off glibc.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_ARENA_MAX: c_int = -8;
        // SAFETY: `mallopt` is glibc's own tuning entry point; it only
        // stores the value in the allocator's parameter block under the
        // allocator's lock, and takes no pointers.
        let pinned = unsafe {
            mallopt(M_ARENA_MAX, 1) != 0
                && mallopt(M_MMAP_THRESHOLD, 32 << 20) != 0
                && mallopt(M_TRIM_THRESHOLD, c_int::MAX) != 0
        };
        if !pinned {
            eprintln!("warning: mallopt refused a setting: timings will vary more between runs");
        }
    }
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The rayon pool every workload runs on: `min(nproc, 4)` threads.
pub fn pool_threads() -> usize {
    cpus().min(4)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`); NaN off Linux.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

fn first_line(path: &str) -> Option<String> {
    fs::read_to_string(path).ok().map(|s| s.lines().next().unwrap_or("").trim().to_string())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The filesystem type holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
pub fn filesystem_of(path: &Path) -> String {
    let path = fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, fstype)| fstype)
}

/// `(level, size)` of each CPU cache sysfs lists for cpu0, e.g. `("L3", "32768K")`.
pub fn cache_sizes() -> Vec<(String, String)> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level = first_line(&format!("{dir}/level"))?;
            let kind = first_line(&format!("{dir}/type"))?;
            let size = first_line(&format!("{dir}/size"))?;
            (kind != "Instruction").then(|| (format!("L{level}"), size))
        })
        .collect()
}

/// The reproducibility fields that describe the machine and toolchain.
pub fn stamp(manifest_dir: &Path) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let caches: Vec<String> = cache_sizes().iter().map(|(l, s)| format!("{l}={s}")).collect();
    vec![
        ("cpu_model", cpu_model),
        ("nproc", cpus().to_string()),
        ("pool_threads", pool_threads().to_string()),
        ("caches", caches.join(" ")),
        ("rustc", command_line("rustc", &["-V"], manifest_dir).unwrap_or_else(unknown)),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"], manifest_dir).unwrap_or_else(unknown),
        ),
        (
            "transparent_hugepage",
            first_line("/sys/kernel/mm/transparent_hugepage/enabled").unwrap_or_else(unknown),
        ),
        ("os", first_line("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
    ]
}

/// Single-threaded `copy_from_slice` bandwidth over a `mib`-MiB buffer, in
/// 1e9 bytes copied per second (median of 5 after one warm-up copy).  The
/// full-size buffer (256 MiB) is several times any last-level cache this
/// runs on; [`cache_sizes`] is printed beside it.
pub fn memcpy_gb_per_s(mib: usize) -> f64 {
    let words = mib * (1 << 20) / 8;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    let mut rates = Vec::new();
    for rep in 0..6 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        if rep > 0 {
            rates.push((words * 8) as f64 / t.elapsed().as_secs_f64() / 1e9);
        }
    }
    median(&rates)
}

/// Sequential scratch-device bandwidth in 1e6 bytes/s, `(write, read)`:
/// `mib` MiB in 1 MiB blocks with `fdatasync` after every written block —
/// extsort's flush policy, so this is the ceiling its run formation can
/// reach, not the device's streaming rate.  The read-back is served by
/// the page cache unless the file exceeds it.
pub fn scratch_mb_per_s(dir: &Path, mib: usize) -> std::io::Result<(f64, f64)> {
    let path = dir.join("host-probe.bin");
    let block = vec![0xA5u8; 1 << 20];
    let t = Instant::now();
    let mut file = fs::File::create(&path)?;
    for _ in 0..mib {
        file.write_all(&block)?;
        file.sync_data()?;
    }
    drop(file);
    let write = (mib << 20) as f64 / t.elapsed().as_secs_f64() / 1e6;
    let mut buf = vec![0u8; 1 << 20];
    let t = Instant::now();
    let mut file = fs::File::open(&path)?;
    for _ in 0..mib {
        file.read_exact(&mut buf)?;
        black_box(&buf);
    }
    let read = (mib << 20) as f64 / t.elapsed().as_secs_f64() / 1e6;
    fs::remove_file(&path)?;
    Ok((write, read))
}
