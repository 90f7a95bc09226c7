//! The repository benchmark: end-to-end and per-layer performance of the
//! SimPhony-RS sweep engine (`simphony-explore`) and daemon (`simphony-serve`).
//!
//! ```text
//! perfbench --workload <dse_aware|extract_heavy|daemon_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root (it writes scratch files under
//! `.bench_work/`). With `--trace 0` it measures the workload's end-to-end
//! metrics with tracing off; with `--trace 1` it runs the same workload once
//! more at `RAYON_NUM_THREADS=1` with timing wrappers around each layer and
//! reports per-layer metrics. Every run checks its outputs; the last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and a failed check makes
//! the process exit with status 1. See `README.md` beside this crate.

mod checks;
mod metrics;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use metrics::{Metric, Report};
use workloads::Workload;

/// Boxed error type of the benchmark: every failure ends the run.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Workload seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 42;
/// Seed reserved for confirming a claimed gain; never used while tuning.
const HELD_OUT_SEED: u64 = 20_261;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds `{value}` (1..=600)"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The vendored rayon re-reads this on every parallel call, so setting it
    // before any work applies to the whole run. Traced runs go sequential so
    // that stage times add up against wall time. The sweep workloads run one
    // compute thread beside the pipeline's writer thread: on two shared
    // cores the default pool's speed follows how much of the second core
    // the host lends, which moved throughput by up to 25% between runs of
    // the same code (5% at one thread), and its peak RSS by 18%. The daemon
    // keeps the default pool: at one thread its `run` p99 spread 0.24 of
    // the median between runs against 0.02-0.08.
    if args.trace || args.workload != Workload::DaemonMixed {
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = std::fs::create_dir_all(&work)
        .map_err(Into::into)
        .and_then(|()| run(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            let correct = report.correct();
            println!("{}", report.to_json());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> BenchResult<Report> {
    let budget = Duration::from_secs(args.seconds);
    let mut report = if args.trace {
        trace::run_traced(args.workload, args.seed, budget, work)?
    } else {
        workloads::run_untraced(args.workload, args.seed, budget, work)?
    };
    if !args.trace {
        report.push(Metric::new("peak_rss_mb", peak_rss_mib()?, "MiB"));
    }
    checks::model_accuracy(&mut report)?;
    print_provenance(args, &report);
    for failure in &report.check_failures {
        eprintln!("perfbench: output check failed: {failure}");
    }
    Ok(report)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One `provenance` line: machine shape, settings, source revision and the
/// sample count behind each percentile.
fn print_provenance(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let samples = report
        .samples
        .iter()
        .map(|(name, n)| format!("{}:{n}", json_str(name)))
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "provenance: {{\"workload\":{},\"seed\":{},\"default_seed\":{DEFAULT_SEED},\
         \"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rayon_num_threads\":{},\"git_rev\":{},\"source_digest\":{},\"samples\":{{{samples}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&rayon),
        json_str(&git_rev()),
        json_str(&source_digest()),
    );
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn json_str(text: &str) -> String {
    serde_json::to_string(&text).expect("strings always serialize")
}

/// The checked-out commit when the tree is a git checkout, else `none`.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| "none".to_string(), |rev| rev.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none".to_string(),
    }
}

/// FNV-1a digest over every file of the measured source tree (`crates/`,
/// `vendor/`, the root manifest and lock file), in path order: identifies
/// the code a result came from when the tree is not a git checkout.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut hash = FNV_OFFSET;
    for path in files {
        hash = fnv1a(hash, path.to_string_lossy().as_bytes());
        hash = fnv1a(hash, &std::fs::read(&path).unwrap_or_default());
    }
    format!("fnv1a64:{hash:016x}")
}
