//! The repository's benchmark.  One command measures four whole-sort
//! workloads end to end and layer by layer; see `README.md` beside this
//! package and `BENCHMARK.json` at the repository root.

mod compare;
mod host;
mod json;
mod spec;
mod stats;
mod trace;
mod tsv;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use hss_repro::keygen::generate_tera_records_per_rank;
use serde::Value;

use json::{measurement, obj, text};
use spec::{Records, Shape, WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use tsv::Row;
use workload::{Options, Summary};

const USAGE: &str = "\
usage: hss-benchmark --workload <name> [--trace 0|1] [common options]
       hss-benchmark --all [common options]
       hss-benchmark --compare <base metrics.tsv> <new metrics.tsv>
       hss-benchmark --print-benchmark-json

common options:
  --seed <n>          input and sampling seed (default 2019)
  --seconds <s>       how long each run measures (default: BENCHMARK.json's run_seconds)
  --smoke             1/16-size workloads, 3 timed sorts, all checks on
  --out-dir <dir>     where results are written (default: benchmark/out)
  --scratch-dir <dir> where run files are spilled (default: <out-dir>/scratch)
workloads: u64-fat u64-wide-skew tera-fat u64-spill";

#[derive(Debug)]
enum Mode {
    Workload { spec: &'static WorkloadSpec, trace: bool },
    All,
    Compare { base: PathBuf, new: PathBuf },
    PrintBenchmarkJson,
}

#[derive(Debug)]
struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: PathBuf,
    scratch_root: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut trace = false;
    let mut all = false;
    let mut compare = None;
    let mut print_json = false;
    let mut seed = 2019u64;
    let mut seconds = None;
    let mut smoke = false;
    let mut out_dir = None;
    let mut scratch_root = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be within 0..=600, not {s}"));
                }
                seconds = Some(s);
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = Some(PathBuf::from(value()?)),
            "--scratch-dir" => scratch_root = Some(PathBuf::from(value()?)),
            "--all" => all = true,
            "--compare" => compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--print-benchmark-json" => print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mode = match (workload, all, compare, print_json) {
        (Some(name), false, None, false) => {
            let spec = spec::workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            Mode::Workload { spec, trace }
        }
        (None, true, None, false) => Mode::All,
        (None, false, Some((base, new)), false) => Mode::Compare { base, new },
        (None, false, None, true) => Mode::PrintBenchmarkJson,
        _ => {
            return Err("give exactly one of --workload, --all, --compare, --print-benchmark-json"
                .to_string())
        }
    };
    let out_dir = out_dir.unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"));
    let scratch_root = scratch_root.unwrap_or_else(|| out_dir.join("scratch"));
    // A smoke run is bounded by its sort count, not by time.
    let seconds = seconds.unwrap_or(if smoke { 0.0 } else { RUN_SECONDS as f64 });
    Ok(Cli { mode, seed, seconds, smoke, out_dir, scratch_root })
}

fn part_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join("parts").join(format!("{workload}.trace{}.tsv", trace as u8))
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Sort one workload with its record type.
fn measure(
    spec: &WorkloadSpec,
    opts: &Options,
    trace: bool,
    startup_s: f64,
) -> Result<Summary, String> {
    match spec.records {
        Records::U64(dist) => {
            let generate =
                move |shape: Shape, seed| dist.generate_per_rank(shape.ranks, shape.per_rank, seed);
            if trace {
                workload::run_traced::<u64>(spec, opts, &generate)
            } else {
                workload::run_end_to_end::<u64>(spec, opts, &generate, startup_s)
            }
        }
        Records::Tera => {
            let generate = |shape: Shape, seed| {
                generate_tera_records_per_rank(shape.ranks, shape.per_rank, seed)
            };
            if trace {
                workload::run_traced(spec, opts, &generate)
            } else {
                workload::run_end_to_end(spec, opts, &generate, startup_s)
            }
        }
    }
}

/// Warnings that qualify the per-layer rows without failing the run.
fn traced_warnings(value: &dyn Fn(&str) -> f64) {
    let replay_vs_run = value("trace.replay_vs_run");
    if !(0.9..=1.1).contains(&replay_vs_run) {
        eprintln!(
            "warning: trace.replay_vs_run = {replay_vs_run:.3} is outside 0.9-1.1: the per-layer rows are unreliable"
        );
    }
    // Known accounting bug (ROADMAP, simulator-vs-stopwatch item): io-wait
    // and wall are not taken over the same threads on the cursor path.
    // Recorded here, not fixed.
    let io_wait_fraction = value("extsort.io_wait_fraction");
    if !(0.0..=1.0).contains(&io_wait_fraction) {
        eprintln!(
            "warning: extsort.io_wait_fraction = {io_wait_fraction:.3} is outside [0, 1]: known io-wait accounting bug, recorded as measured"
        );
    }
}

/// Each child span's share of the traced root span.
fn print_layer_shares(value: &dyn Fn(&str) -> f64) {
    let root = value("trace.root_s");
    let shares = [
        ("local sort (lsort)", "lsort.sort_s"),
        ("splitter determination (core)", "core.splitters_s"),
        ("exchange plan (partition)", "partition.exchange_plan_s"),
        ("exchange accounting (sim)", "sim.exchange_s"),
        ("merge (partition)", "partition.merge_s"),
        ("self (core)", "core.self_s"),
    ];
    println!("layer shares of the traced sort ({root:.4} s):");
    for (label, metric) in shares {
        println!("  {label:<32} {:5.1}%", 100.0 * value(metric) / root);
    }
}

fn run_workload(
    cli: &Cli,
    spec: &WorkloadSpec,
    trace: bool,
    started: Instant,
) -> Result<ExitCode, String> {
    let name = spec.name;
    rayon::ThreadPoolBuilder::new()
        .num_threads(host::pool_threads())
        .build_global()
        .map_err(|e| format!("building the thread pool: {e}"))?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        scratch_root: cli.scratch_root.clone(),
    };
    let startup_s = started.elapsed().as_secs_f64();
    let summary = measure(spec, &opts, trace, startup_s)?;

    let shape = spec.shape(cli.smoke);
    println!(
        "# {name}: {} ranks x {} records of {} B, seed {}, {} pool threads, trace {}",
        shape.ranks,
        shape.per_rank,
        spec.record_bytes(),
        cli.seed,
        rayon::current_num_threads(),
        trace as u8
    );
    for (metric, value, unit) in &summary.metrics {
        println!("{name}\t{metric}\t{value}\t{unit}");
    }
    for failure in &summary.failures {
        println!("FAILED {failure}");
    }
    let value = |metric: &str| {
        summary.metrics.iter().find(|(n, _, _)| *n == metric).map_or(f64::NAN, |(_, v, _)| *v)
    };
    if trace {
        traced_warnings(&value);
        print_layer_shares(&value);
    } else {
        println!(
            "# sort_s_p75 over {} timed sorts, {} beyond it",
            value("timed_sorts"),
            value("samples_beyond_p75")
        );
    }

    let run_facts = [
        ("seed", cli.seed as f64, "count"),
        ("attempted", summary.attempted as f64, "count"),
        ("failed", summary.failures.len() as f64, "count"),
    ];
    let rows: Vec<Row> = summary
        .metrics
        .iter()
        .chain(&run_facts)
        .map(|&(metric, value, unit)| Row::new(name, metric, value, unit))
        .collect();
    write(&part_path(&cli.out_dir, name, trace), &tsv::render(&rows))?;
    if let Some(json) = &summary.trace_json {
        write(&cli.out_dir.join(format!("trace-{name}.json")), json)?;
    }

    // The result line: the contract's metrics only, last on stdout.
    let contract = if trace { PER_LAYER } else { END_TO_END };
    let metrics = contract.iter().map(|m| (m.name, measurement(value(m.name), m.unit))).collect();
    let failed = summary.failures.len();
    let result = obj(vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::UInt(summary.attempted as u64)),
        ("failed", Value::UInt(failed as u64)),
        ("metrics", obj(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("the stub serializer is total"));
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `--all`: every workload in a process of its own (so peak RSS and
/// allocator state are per workload), untraced then traced, merged into
/// `metrics.tsv` and `results.json`.
fn run_all(cli: &Cli) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut rows = Vec::new();
    let mut failed_runs = Vec::new();
    for spec in WORKLOADS {
        for trace in [false, true] {
            let part = part_path(&cli.out_dir, spec.name, trace);
            let _ = std::fs::remove_file(&part);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name, "--trace", if trace { "1" } else { "0" }])
                .args(["--seed", &cli.seed.to_string(), "--seconds", &cli.seconds.to_string()])
                .arg("--out-dir")
                .arg(&cli.out_dir)
                .arg("--scratch-dir")
                .arg(&cli.scratch_root);
            if cli.smoke {
                child.arg("--smoke");
            }
            let status = child.status().map_err(|e| format!("running {}: {e}", spec.name))?;
            if !status.success() {
                failed_runs.push(format!("{} --trace {}: {status}", spec.name, trace as u8));
            }
            if let Ok(text) = std::fs::read_to_string(&part) {
                rows.extend(tsv::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?);
            }
        }
    }
    let metrics_path = cli.out_dir.join("metrics.tsv");
    let results_path = cli.out_dir.join("results.json");
    write(&metrics_path, &tsv::render(&rows))?;
    write(&results_path, &results_json(cli, &rows))?;
    println!("wrote {} and {}", metrics_path.display(), results_path.display());
    for failure in &failed_runs {
        println!("FAILED {failure}");
    }
    Ok(if failed_runs.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `results.json`: the host stamp, the reproducibility fields and every
/// row of `metrics.tsv`, grouped by workload.
fn results_json(cli: &Cli, rows: &[Row]) -> String {
    let host = host::stamp(Path::new(env!("CARGO_MANIFEST_DIR")));
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            let shape = w.shape(cli.smoke);
            let group = |wanted: &dyn Fn(&str) -> bool| {
                obj(rows
                    .iter()
                    .filter(|r| r.workload == w.name && wanted(&r.metric))
                    .map(|r| (r.metric.as_str(), measurement(r.value, &r.unit)))
                    .collect())
            };
            let is_e2e = |m: &str| END_TO_END.iter().any(|s| s.name == m);
            let is_layer = |m: &str| PER_LAYER.iter().any(|s| s.name == m);
            obj(vec![
                ("name", text(w.name)),
                ("why", text(w.why)),
                (
                    "shape",
                    obj(vec![
                        ("ranks", Value::UInt(shape.ranks as u64)),
                        ("records_per_rank", Value::UInt(shape.per_rank as u64)),
                        ("record_bytes", Value::UInt(w.record_bytes() as u64)),
                        ("cores_per_node", Value::UInt(w.cores_per_node as u64)),
                        ("sync_model", text(w.sync.name())),
                        ("out_of_core", Value::Bool(w.spill)),
                    ]),
                ),
                ("end_to_end", group(&is_e2e)),
                ("per_layer", group(&is_layer)),
                ("run", group(&|m| !is_e2e(m) && !is_layer(m))),
            ])
        })
        .collect();
    let glossary = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| {
            obj(vec![
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", text(m.better.name())),
                ("bound", m.bound.map_or(Value::Null, Value::Float)),
                ("repeats_exactly", Value::Bool(m.exact)),
                ("note", text(m.note)),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("schema", text("hss-benchmark/1")),
        ("host", obj(host.iter().map(|(k, v)| (*k, text(v))).collect())),
        ("seed", Value::UInt(cli.seed)),
        ("seconds", Value::Float(cli.seconds)),
        ("smoke", Value::Bool(cli.smoke)),
        ("warmup_sorts", Value::UInt(spec::WARMUP_SORTS as u64)),
        ("setup_repeats", Value::UInt(spec::SETUP_REPEATS as u64)),
        ("scratch_dir", text(&cli.scratch_root.to_string_lossy())),
        ("scratch_filesystem", text(&host::filesystem_of(&cli.scratch_root))),
        ("workloads", Value::Array(workloads)),
        ("metrics", Value::Array(glossary)),
    ]);
    serde_json::to_string_pretty(&doc).expect("the stub serializer is total")
}

fn run_compare(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let read = |path: &Path| -> Result<Vec<Row>, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        tsv::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare::compare(&read(base)?, &read(new)?);
    print!("{}", compare::render(&comparison));
    Ok(if comparison.worse() == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let started = Instant::now();
    host::scrub_environment();
    host::pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.mode {
        Mode::Workload { spec, trace } => run_workload(&cli, spec, *trace, started),
        Mode::All => run_all(&cli),
        Mode::Compare { base, new } => run_compare(base, new),
        Mode::PrintBenchmarkJson => {
            print!("{}", spec::benchmark_json());
            Ok(ExitCode::SUCCESS)
        }
    };
    outcome.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let cli = parse_cli(&args("--workload tera-fat --seed 7 --seconds 15 --trace 1")).unwrap();
        assert!(
            matches!(&cli.mode, Mode::Workload { spec, trace: true } if spec.name == "tera-fat")
        );
        assert_eq!((cli.seed, cli.seconds, cli.smoke), (7, 15.0, false));
        assert!(cli.scratch_root.starts_with(&cli.out_dir));
    }

    #[test]
    fn defaults_follow_the_contract_and_smoke_is_count_bound() {
        let cli = parse_cli(&args("--all")).unwrap();
        assert_eq!((cli.seed, cli.seconds), (2019, RUN_SECONDS as f64));
        assert_eq!(parse_cli(&args("--all --smoke")).unwrap().seconds, 0.0);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload u64-fat --all",
            "--workload u64-fat --trace 2",
            "--workload u64-fat --seconds -1",
            "--workload u64-fat --seed",
            "--compare only-one.tsv",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(line)).is_err(), "{line:?} should be refused");
        }
    }
}
