//! `simphony-cli` — command-line front end for SimPhony-RS.
//!
//! Subcommands:
//!
//! * `sweep` — run a declarative design-space sweep from a JSON spec file,
//!   with result caching (`--cache DIR`, a directory of packed segments) and
//!   JSON/CSV/JSONL outputs; `--chunk-size` streams the sweep in shards
//!   (bounded memory, per-shard flushes and progress — shard N+1 simulates
//!   while shard N persists),
//!   `--keep-going` records failing points instead of aborting, and
//!   `--checkpoint` records per-shard outcomes so an interrupted sweep can
//!   be resumed;
//! * `resume` — continue an interrupted `sweep --checkpoint` run: completed
//!   shards are skipped, recorded failures are not re-attempted, and a
//!   `--jsonl` output is truncated to its durable prefix and appended to;
//! * `cache stats` — entry count, bytes, segments and shadowed lines of a
//!   result cache, plus the hit/miss of the last checkpointed session;
//! * `serve-sim` — run a queueing-level serving simulation from a
//!   `ServingSpec` JSON file: an accelerator fleet under a request stream,
//!   swept over offered load, fleet size, queue discipline and batch size,
//!   with the same JSON/CSV/JSONL outputs as `sweep`;
//! * `pareto` — extract the Pareto frontier from a record file (pretty JSON
//!   array or JSONL, auto-detected); serving records are recognised by
//!   content and rank on the serving objectives (p99 latency, throughput,
//!   energy per request);
//! * `run` — simulate a single configuration and print the full report;
//! * `serve` — host the exploration engine as a long-running TCP daemon
//!   (newline-delimited JSON protocol): resident artifact store, shared
//!   result cache, admission control, responses byte-identical to the
//!   equivalent CLI invocations; `serve --check ADDR` health-checks a
//!   running daemon (exit 0 live, 1 dead);
//! * `worker` — run a distributed-sweep worker daemon: the serve protocol's
//!   `compute-shard` verb with a worker-local result cache; a coordinator
//!   (`sweep --workers host:port,...`) fans shards out over a fleet of
//!   these, re-dispatches shards of dead or slow workers past
//!   `--shard-deadline`, and merges the streamed part payloads strictly in
//!   expansion order — outputs are byte-identical to a local run at any
//!   worker count;
//! * `spec` — print an example sweep spec to start from (`--serving` for a
//!   serving spec).
//!
//! Failure-handling flags shared by the durable verbs: `--retries N` wraps
//! cache and output writes in exponential backoff with decorrelated jitter,
//! and `--fault-plan FILE` injects a deterministic, seeded fault schedule
//! into the durability chain (for chaos testing — see `EXPERIMENTS.md`).
//!
//! Exit codes: 0 on success, 1 on a hard error, 2 on a usage error, and
//! 3 when a `--keep-going` sweep completed but recorded point failures.

use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;

use clap::{Arg, ArgAction, Command};

use simphony_explore::{
    pareto_front, read_records, read_records_as, to_csv, write_json, ArchFamily, CacheBackend,
    Checkpoint, CheckpointHeader, CsvRecord, CsvSink, ExploreError, ExploreSession, FaultInjector,
    FaultPlan, FaultyCache, FaultySink, JsonFileSink, JsonlSink, MultiSink, Objective,
    PackedSegmentCache, RetryPolicy, ShardProgress, StreamOptions, StreamOutcome, SweepSpec,
    VecSink, WorkloadSpec,
};
use simphony_serve::{
    distribute_sweep, DistConfig, ServeConfig, Server, EXIT_USAGE, PROTOCOL_VERSION,
};
use simphony_traffic::{run_serving_with, Discipline, ServingRecord, ServingSpec};

/// Writes `args` to standard output: the one path every verb prints through.
///
/// A reader that closes the pipe early (`simphony-cli spec | head -1`) has
/// all the output it wants, so a broken pipe ends the process quietly with
/// exit 0, where `print!` would panic. Any other write error is a hard error
/// (exit 1).
fn write_stdout(args: fmt::Arguments<'_>) {
    use std::io::Write as _;
    let written = {
        let mut stdout = std::io::stdout().lock();
        stdout.write_fmt(args).and_then(|()| stdout.flush())
    };
    match written {
        Ok(()) => {}
        Err(err) if err.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(err) => {
            eprintln!("error: writing to stdout: {err}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn arch_family_list() -> String {
    ArchFamily::ALL
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn objective_list() -> String {
    Objective::ALL
        .iter()
        .map(|o| o.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn retries_arg() -> Arg {
    Arg::new("retries")
        .long("retries")
        .value_name("N")
        .default_value("0")
        .help(
            "Retry failed cache and output writes up to N extra times with \
             exponential backoff and decorrelated jitter before giving up",
        )
}

fn fault_plan_arg() -> Arg {
    Arg::new("fault-plan")
        .long("fault-plan")
        .value_name("FILE")
        .help(
            "Inject a deterministic fault schedule (JSON FaultPlan: seeded \
             transient-error rate plus exact-op faults) into the cache and \
             output writes — for chaos-testing failure handling, see \
             EXPERIMENTS.md",
        )
}

fn cli() -> Command {
    Command::new("simphony-cli")
        .about("SimPhony-RS design-space exploration driver")
        .version(env!("CARGO_PKG_VERSION"))
        .subcommand_required(true)
        .subcommand(
            Command::new("sweep")
                .about("Run a design-space sweep described by a JSON spec file")
                .arg(
                    Arg::new("spec")
                        .long("spec")
                        .value_name("FILE")
                        .required(true)
                        .help("Path to the SweepSpec JSON file"),
                )
                .arg(
                    Arg::new("out")
                        .long("out")
                        .value_name("FILE")
                        .help("Write records as pretty JSON to this path"),
                )
                .arg(
                    Arg::new("csv")
                        .long("csv")
                        .value_name("FILE")
                        .help("Additionally write records as CSV to this path"),
                )
                .arg(
                    Arg::new("jsonl")
                        .long("jsonl")
                        .value_name("FILE")
                        .help("Additionally write records as JSON Lines (flushed per shard)"),
                )
                .arg(Arg::new("cache").long("cache").value_name("DIR").help(
                    "Content-hash result cache: a directory of packed segment files \
                             (created if missing)",
                ))
                .arg(
                    Arg::new("chunk-size")
                        .long("chunk-size")
                        .value_name("N")
                        .default_value("0")
                        .help(
                            "Points per shard (0 = whole sweep in one shard); shards stream \
                             to the output files as they finish",
                        ),
                )
                .arg(
                    Arg::new("keep-going")
                        .long("keep-going")
                        .action(ArgAction::SetTrue)
                        .help(
                            "Record failing points and keep sweeping instead of aborting; \
                             successes are cached, so re-running resumes",
                        ),
                )
                .arg(
                    Arg::new("checkpoint")
                        .long("checkpoint")
                        .value_name("FILE")
                        .help(
                            "Record per-shard outcomes in this sidecar file; an interrupted \
                             sweep is then continued with `resume` (requires --jsonl, the \
                             output `resume` can append to)",
                        ),
                )
                .arg(
                    Arg::new("workers")
                        .long("workers")
                        .value_name("ADDR,ADDR,...")
                        .help(
                            "Distribute the sweep over a fleet of `worker` daemons \
                             (comma-separated host:port list): shards are dispatched over \
                             TCP, computed remotely, and merged here in expansion order — \
                             output is byte-identical to a local run (requires \
                             --keep-going; workers own the result caches)",
                        ),
                )
                .arg(
                    Arg::new("shard-deadline")
                        .long("shard-deadline")
                        .value_name("MS")
                        .default_value("10000")
                        .help(
                            "With --workers: milliseconds an assigned shard may stay \
                             outstanding before the coordinator re-dispatches it to \
                             another worker (duplicate results are discarded — first \
                             landed wins)",
                        ),
                )
                .arg(retries_arg())
                .arg(fault_plan_arg())
                .arg(
                    Arg::new("quiet")
                        .long("quiet")
                        .action(ArgAction::SetTrue)
                        .help("Suppress the per-sweep summary and per-shard progress"),
                ),
        )
        .subcommand(
            Command::new("resume")
                .about("Continue an interrupted `sweep --checkpoint` run")
                .arg(
                    Arg::new("spec")
                        .long("spec")
                        .value_name("FILE")
                        .required(true)
                        .help("Path to the SweepSpec JSON file of the interrupted sweep"),
                )
                .arg(
                    Arg::new("checkpoint")
                        .long("checkpoint")
                        .value_name("FILE")
                        .required(true)
                        .help("Checkpoint file written by `sweep --checkpoint`"),
                )
                .arg(Arg::new("jsonl").long("jsonl").value_name("FILE").help(
                    "JSONL output of the interrupted sweep (required): truncated to \
                             the checkpointed prefix, then appended to",
                ))
                .arg(
                    Arg::new("cache")
                        .long("cache")
                        .value_name("DIR")
                        .help("Result cache directory the interrupted sweep used"),
                )
                .arg(retries_arg())
                .arg(fault_plan_arg())
                .arg(
                    Arg::new("quiet")
                        .long("quiet")
                        .action(ArgAction::SetTrue)
                        .help("Suppress the per-sweep summary and per-shard progress"),
                ),
        )
        .subcommand(
            Command::new("cache")
                .about("Result-cache maintenance")
                .subcommand_required(true)
                .subcommand(
                    Command::new("stats")
                        .about(
                            "Print entry count, bytes, segments, shadowed lines and \
                             last-session hit/miss counters",
                        )
                        .arg(
                            Arg::new("dir")
                                .long("dir")
                                .value_name("DIR")
                                .required(true)
                                .help("Cache directory"),
                        )
                        .arg(
                            Arg::new("checkpoint")
                                .long("checkpoint")
                                .value_name("FILE")
                                .help(
                                    "Checkpoint file to read the last session's hit/miss \
                                     counters from",
                                ),
                        ),
                ),
        )
        .subcommand(
            Command::new("serve-sim")
                .about("Simulate an accelerator fleet serving a request stream (queueing level)")
                .arg(
                    Arg::new("spec")
                        .long("spec")
                        .value_name("FILE")
                        .required(true)
                        .help("Path to the ServingSpec JSON file (see `spec --serving`)"),
                )
                .arg(
                    Arg::new("out")
                        .long("out")
                        .value_name("FILE")
                        .help("Write serving records as pretty JSON to this path"),
                )
                .arg(
                    Arg::new("csv")
                        .long("csv")
                        .value_name("FILE")
                        .help("Additionally write serving records as CSV to this path"),
                )
                .arg(Arg::new("jsonl").long("jsonl").value_name("FILE").help(
                    "Additionally write serving records as JSON Lines (flushed per \
                             shard; feed to `pareto` for a serving frontier)",
                ))
                .arg(
                    Arg::new("chunk-size")
                        .long("chunk-size")
                        .value_name("N")
                        .default_value("64")
                        .help(
                            "Points per shard; points inside a shard run in parallel, but \
                             the output is byte-identical at any chunk size or thread count",
                        ),
                )
                .arg(
                    Arg::new("quiet")
                        .long("quiet")
                        .action(ArgAction::SetTrue)
                        .help("Suppress the per-run summary"),
                ),
        )
        .subcommand(
            Command::new("pareto")
                .about("Extract the Pareto frontier from a sweep record file")
                .arg(
                    Arg::new("records")
                        .long("records")
                        .value_name("FILE")
                        .required(true)
                        .help(
                            "Record file produced by `sweep --out` (JSON array) or \
                             `sweep --jsonl` (JSON Lines); the format is auto-detected",
                        ),
                )
                .arg(
                    Arg::new("objectives")
                        .long("objectives")
                        .value_name("LIST")
                        .default_value("energy,latency")
                        .help(format!(
                            "Comma-separated minimization objectives: {}",
                            objective_list()
                        )),
                )
                .arg(
                    Arg::new("out")
                        .long("out")
                        .value_name("FILE")
                        .help("Write the frontier as pretty JSON to this path"),
                )
                .arg(
                    Arg::new("jsonl")
                        .long("jsonl")
                        .value_name("FILE")
                        .help("Additionally write the frontier as JSON Lines to this path"),
                ),
        )
        .subcommand(
            Command::new("serve")
                .about("Run (or health-check) the long-running exploration daemon")
                .arg(
                    Arg::new("addr")
                        .long("addr")
                        .value_name("ADDR")
                        .default_value("127.0.0.1:7744")
                        .help("Bind address; port 0 picks an ephemeral port (printed on start)"),
                )
                .arg(Arg::new("check").long("check").value_name("ADDR").help(
                    "Health-check a running daemon at ADDR instead of serving: \
                             exit 0 when it answers the version handshake and a ping, 1 \
                             otherwise",
                ))
                .arg(Arg::new("cache").long("cache").value_name("DIR").help(
                    "Share this content-hash result cache (a directory of packed segment \
                             files, created if missing) across every connection",
                ))
                .arg(
                    Arg::new("max-points")
                        .long("max-points")
                        .value_name("N")
                        .default_value("65536")
                        .help(
                            "Per-request point budget: bigger sweeps are rejected as usage \
                             errors (0 = unlimited); clients can lower it per request, \
                             never raise it",
                        ),
                )
                .arg(
                    Arg::new("max-pending")
                        .long("max-pending")
                        .value_name("N")
                        .default_value("32")
                        .help(
                            "Admission bound: at most N requests queued or executing; \
                             excess requests get an immediate `server busy` error \
                             (0 = unlimited)",
                        ),
                )
                .arg(
                    Arg::new("bulk-threshold")
                        .long("bulk-threshold")
                        .value_name("N")
                        .default_value("256")
                        .help(
                            "Sweeps above N points serialize on the bulk lane so they \
                             cannot starve interactive requests",
                        ),
                )
                .arg(
                    Arg::new("chunk-size")
                        .long("chunk-size")
                        .value_name("N")
                        .default_value("64")
                        .help(
                            "Default points per shard for daemon sweeps (responses stream \
                             and flush per shard); requests may override it",
                        ),
                )
                .arg(
                    Arg::new("artifact-entries")
                        .long("artifact-entries")
                        .value_name("N")
                        .default_value("256")
                        .help(
                            "Resident artifact-store budget: max workloads + accelerators \
                             kept warm across requests (0 = unlimited)",
                        ),
                )
                .arg(
                    Arg::new("artifact-bytes")
                        .long("artifact-bytes")
                        .value_name("B")
                        .default_value("536870912")
                        .help(
                            "Resident artifact-store budget in estimated bytes \
                             (0 = unlimited)",
                        ),
                ),
        )
        .subcommand(
            Command::new("worker")
                .about("Run a distributed-sweep worker daemon (serves `compute-shard`)")
                .arg(
                    Arg::new("addr")
                        .long("addr")
                        .value_name("ADDR")
                        .default_value("127.0.0.1:0")
                        .help(
                            "Bind address; the default ephemeral port is printed on start \
                             for the coordinator's --workers list",
                        ),
                )
                .arg(Arg::new("cache").long("cache").value_name("DIR").help(
                    "Worker-local content-hash result cache (a directory of packed \
                             segment files, created if missing); with --workers the cache \
                             lives on each worker, not the coordinator",
                ))
                .arg(
                    Arg::new("max-points")
                        .long("max-points")
                        .value_name("N")
                        .default_value("65536")
                        .help(
                            "Per-request point budget: bigger shard requests are rejected \
                             as usage errors (0 = unlimited)",
                        ),
                )
                .arg(fault_plan_arg()),
        )
        .subcommand(
            Command::new("run")
                .about("Simulate one configuration and print the full report")
                .arg(
                    Arg::new("arch")
                        .long("arch")
                        .value_name("FAMILY")
                        .default_value("tempo")
                        .help(format!("Architecture family: {}", arch_family_list())),
                )
                .arg(
                    Arg::new("workload")
                        .long("workload")
                        .value_name("SEL")
                        .default_value("gemm:280x28x280")
                        .help("Workload: gemm:MxKxN, vgg8, or bert:SEQLEN"),
                )
                .arg(
                    Arg::new("tiles")
                        .long("tiles")
                        .value_name("R")
                        .default_value("2")
                        .help("Tiles"),
                )
                .arg(
                    Arg::new("cores")
                        .long("cores")
                        .value_name("C")
                        .default_value("2")
                        .help("Cores per tile"),
                )
                .arg(
                    Arg::new("height")
                        .long("height")
                        .value_name("H")
                        .default_value("4")
                        .help("Core height"),
                )
                .arg(
                    Arg::new("width")
                        .long("width")
                        .value_name("W")
                        .default_value("4")
                        .help("Core width"),
                )
                .arg(
                    Arg::new("wavelengths")
                        .long("wavelengths")
                        .value_name("N")
                        .default_value("1")
                        .help("Wavelengths"),
                )
                .arg(
                    Arg::new("bits")
                        .long("bits")
                        .value_name("B")
                        .default_value("8")
                        .help("Operand bitwidth, 1-16"),
                )
                .arg(
                    Arg::new("sparsity")
                        .long("sparsity")
                        .value_name("S")
                        .default_value("0.0")
                        .help("Weight sparsity in [0, 1)"),
                )
                .arg(
                    Arg::new("clock")
                        .long("clock")
                        .value_name("GHZ")
                        .default_value("5.0")
                        .help("Clock frequency, GHz"),
                ),
        )
        .subcommand(
            Command::new("spec")
                .about("Print an example spec JSON to stdout (sweep by default)")
                .arg(
                    Arg::new("serving")
                        .long("serving")
                        .action(ArgAction::SetTrue)
                        .help("Print an example serving spec for `serve-sim` instead"),
                ),
        )
}

/// Exit code of a `--keep-going` sweep that completed but recorded point
/// failures: distinct from hard errors (1) and usage errors (2) so scripts
/// can tell "finished with a ledger to inspect" from "did not finish".
const EXIT_RECORDED_FAILURES: u8 = 3;

fn main() -> ExitCode {
    let matches = cli().get_matches();
    // `sweep` and `resume` pick their own success exit code (a
    // completed sweep with ledgered failures exits 3); everything else maps
    // Ok onto 0.
    let result = match matches.subcommand() {
        Some(("sweep", sub)) => cmd_sweep(sub),
        Some(("resume", sub)) => cmd_resume(sub),
        Some(("cache", sub)) => match sub.subcommand() {
            Some(("stats", sub)) => cmd_cache_stats(sub).map(|()| ExitCode::SUCCESS),
            _ => unreachable!("subcommand_required guarantees a match"),
        },
        Some(("serve-sim", sub)) => cmd_serve_sim(sub).map(|()| ExitCode::SUCCESS),
        Some(("serve", sub)) => cmd_serve(sub).map(|()| ExitCode::SUCCESS),
        Some(("worker", sub)) => cmd_worker(sub).map(|()| ExitCode::SUCCESS),
        Some(("pareto", sub)) => cmd_pareto(sub).map(|()| ExitCode::SUCCESS),
        Some(("run", sub)) => cmd_run(sub),
        Some(("spec", sub)) => cmd_spec(sub).map(|()| ExitCode::SUCCESS),
        _ => unreachable!("subcommand_required guarantees a match"),
    };
    match result {
        Ok(code) => code,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The retry policy requested by `--retries` (none when 0).
fn retry_policy(matches: &clap::ArgMatches) -> RetryPolicy {
    let retries: u32 = matches.get_one("retries").expect("has default");
    if retries == 0 {
        RetryPolicy::none()
    } else {
        // N retries = N + 1 attempts.
        RetryPolicy::new(retries + 1)
    }
}

/// Loads `--fault-plan` into a shared injector, if the flag was given.
fn load_fault_injector(
    matches: &clap::ArgMatches,
) -> Result<Option<Arc<FaultInjector>>, ExploreError> {
    match matches.get_one::<String>("fault-plan") {
        Some(path) => Ok(Some(FaultInjector::new(FaultPlan::load(path)?))),
        None => Ok(None),
    }
}

/// Wraps an opened cache in the fault injector, when one is active.
fn maybe_faulty_cache(
    cache: Option<PackedSegmentCache>,
    injector: Option<&Arc<FaultInjector>>,
) -> Option<Box<dyn CacheBackend>> {
    let cache: Box<dyn CacheBackend> = Box::new(cache?);
    Some(match injector {
        Some(injector) => Box::new(FaultyCache::new(cache, Arc::clone(injector))),
        None => cache,
    })
}

fn load_spec(matches: &clap::ArgMatches) -> Result<SweepSpec, ExploreError> {
    let spec_path: String = matches.get_one("spec").expect("required");
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| ExploreError::io_at(&spec_path, e))?;
    Ok(serde_json::from_str(&text)?)
}

/// Opens the result cache named by `--cache`, if the flag was given.
fn open_cache(matches: &clap::ArgMatches) -> Result<Option<PackedSegmentCache>, ExploreError> {
    matches
        .get_one::<String>("cache")
        .map(PackedSegmentCache::open)
        .transpose()
}

fn print_shard_progress(shard: &ShardProgress) {
    if shard.skipped > 0 {
        eprintln!(
            "shard {}/{}: {} points skipped (checkpoint: {} recorded failures) [{}/{}]",
            shard.shard + 1,
            shard.shards,
            shard.skipped,
            shard.failures,
            shard.done,
            shard.total,
        );
    } else {
        eprintln!(
            "shard {}/{}: {} points ({} cached, {} simulated, {} failed) [{}/{}]",
            shard.shard + 1,
            shard.shards,
            shard.points,
            shard.hits,
            shard.points - shard.hits - shard.failures,
            shard.failures,
            shard.done,
            shard.total,
        );
    }
}

fn print_outcome(spec: &SweepSpec, outcome: &StreamOutcome, quiet: bool) {
    if !quiet {
        let live_failures = outcome.failures.len() - outcome.replayed_failures;
        outln!(
            "sweep `{}`: {} points ({} skipped via checkpoint, {} cached, {} simulated, \
             {} failed, {} known-bad replayed)",
            spec.name,
            outcome.total_points,
            outcome.skipped_points,
            outcome.stats.hits,
            outcome.stats.misses - live_failures,
            live_failures,
            outcome.replayed_failures,
        );
    }
    for failure in &outcome.failures {
        eprintln!(
            "warning: point #{} ({}) failed: {}",
            failure.index, failure.label, failure.error
        );
    }
    if !outcome.failures.is_empty() {
        eprintln!(
            "warning: {} of {} points failed; successes are cached — fix the spec and \
             re-run to resume",
            outcome.failures.len(),
            outcome.total_points,
        );
    }
    if outcome.cache_degraded > 0 {
        eprintln!(
            "warning: {} cache writes were dropped after exhausting retries; every \
             record still reached the output, but those points will re-simulate on \
             the next run",
            outcome.cache_degraded,
        );
    }
}

/// A completed sweep's exit code: 0 when clean, [`EXIT_RECORDED_FAILURES`]
/// when the failure ledger is non-empty.
fn outcome_exit(outcome: &StreamOutcome) -> ExitCode {
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_RECORDED_FAILURES)
    }
}

/// Validates the `--checkpoint` flag combination shared by the local and
/// distributed sweep paths, returning the checkpoint path when one was given.
fn checkpoint_flag(matches: &clap::ArgMatches) -> Result<Option<String>, ExploreError> {
    let checkpoint: Option<String> = matches.get_one("checkpoint");
    if let Some(path) = &checkpoint {
        // `resume` re-emits nothing for shards the checkpoint records as
        // complete — their records must already be durable somewhere resume
        // can continue, and the only such output is the per-shard-flushed
        // JSONL (`--out` publishes only on success; stdout is ephemeral).
        if matches.get_one::<String>("jsonl").is_none() {
            return Err(ExploreError::checkpoint(
                "--checkpoint requires --jsonl: after an interrupt, `resume` skips \
                 checkpointed shards, so their records must live in a durable, \
                 appendable output"
                    .to_string(),
            ));
        }
        // A checkpoint with recorded progress means the file sinks below
        // would truncate output that `resume` knows how to continue; refuse
        // rather than silently dropping completed shards' records.
        if std::path::Path::new(path).exists() {
            let (_, completed) = Checkpoint::load(path)?;
            if !completed.is_empty() {
                return Err(ExploreError::checkpoint(format!(
                    "`{path}` already records {} completed shards; use \
                     `simphony-cli resume --spec .. --checkpoint {path}` to continue, or \
                     delete the file to start over",
                    completed.len()
                )));
            }
        }
    }
    Ok(checkpoint)
}

fn cmd_sweep(matches: &clap::ArgMatches) -> Result<ExitCode, ExploreError> {
    let spec = load_spec(matches)?;

    if let Some(workers) = matches.get_one::<String>("workers") {
        return cmd_sweep_distributed(matches, &spec, &workers);
    }

    let injector = load_fault_injector(matches)?;
    let cache = maybe_faulty_cache(open_cache(matches)?, injector.as_ref());
    let chunk_size: usize = matches.get_one("chunk-size").expect("has default");
    let quiet = matches.get_flag("quiet");

    let checkpoint = checkpoint_flag(matches)?;

    // File outputs stream shard by shard; stdout CSV (the no-file fallback)
    // needs the full record list, so only then do records stay in memory.
    let out = matches.get_one::<String>("out");
    let csv = matches.get_one::<String>("csv");
    let jsonl = matches.get_one::<String>("jsonl");
    let to_stdout = out.is_none() && csv.is_none() && jsonl.is_none();
    let mut sink = MultiSink::new();
    if let Some(path) = out {
        sink.push(Box::new(JsonFileSink::create(path)?));
    }
    if let Some(path) = csv {
        sink.push(Box::new(CsvSink::create(path)?));
    }
    if let Some(path) = jsonl {
        sink.push(Box::new(JsonlSink::create(path)?));
    }

    let mut session = ExploreSession::new(&spec)
        .chunk_size(chunk_size)
        .on_progress(|shard: &ShardProgress| {
            if !quiet && shard.shards > 1 {
                print_shard_progress(shard);
            }
        });
    if matches.get_flag("keep-going") {
        session = session.keep_going();
    }
    if let Some(cache) = cache {
        session = session.cache_boxed(cache);
    }
    if let Some(path) = &checkpoint {
        session = session.checkpoint(path);
    }
    session = session.retry(retry_policy(matches));

    if to_stdout {
        // With no output file the records go to stdout — --quiet only
        // suppresses the summary and progress lines, never the results.
        let outcome = session.run_collect()?;
        out!("{}", to_csv(&outcome.records));
        if !quiet {
            outln!(
                "sweep `{}`: {} points ({} cached, {} simulated)",
                spec.name,
                outcome.records.len(),
                outcome.stats.hits,
                outcome.stats.misses,
            );
        }
        Ok(ExitCode::SUCCESS)
    } else {
        let outcome = match &injector {
            Some(injector) => {
                let mut faulty = FaultySink::new(&mut sink, Arc::clone(injector));
                session.sink(&mut faulty).run()?
            }
            None => session.sink(&mut sink).run()?,
        };
        print_outcome(&spec, &outcome, quiet);
        Ok(outcome_exit(&outcome))
    }
}

/// `sweep --workers host:port,...`: coordinate the sweep over a fleet of
/// `worker` daemons. Shards are dispatched over TCP, computed remotely
/// against each worker's local cache, and merged here strictly in expansion
/// order, so every output is byte-identical to the local executors'.
fn cmd_sweep_distributed(
    matches: &clap::ArgMatches,
    spec: &SweepSpec,
    workers: &str,
) -> Result<ExitCode, ExploreError> {
    if matches.get_one::<String>("cache").is_some() {
        return Err(ExploreError::invalid_spec(
            "--cache does not apply with --workers: the result cache lives on each \
             worker (start them with `simphony-cli worker --cache DIR`); the \
             coordinator only merges pre-rendered records",
        ));
    }

    let chunk_size: usize = matches.get_one("chunk-size").expect("has default");
    let quiet = matches.get_flag("quiet");
    let injector = load_fault_injector(matches)?;
    let checkpoint_path = checkpoint_flag(matches)?;

    let mut options = StreamOptions::chunked(chunk_size).retry(retry_policy(matches));
    if matches.get_flag("keep-going") {
        // Fail-fast is refused inside distribute_sweep with a pointed message.
        options = options.keep_going();
    }

    // Reconnect/re-dispatch policy: `--retries N` when given; without it the
    // distributed default stands — a fleet that gave up on the first TCP
    // hiccup would defeat the point of having spare workers.
    let retry = match retry_policy(matches) {
        policy if policy.retries() => policy,
        _ => DistConfig::default().retry,
    };
    let config = DistConfig {
        workers: workers
            .split(',')
            .map(|addr| addr.trim().to_string())
            .filter(|addr| !addr.is_empty())
            .collect(),
        shard_deadline_ms: matches.get_one("shard-deadline").expect("has default"),
        retry,
    };

    let mut checkpoint = match &checkpoint_path {
        Some(path) => {
            let total = spec.point_count()?;
            let header = CheckpointHeader::for_sweep(spec, &options, total);
            Some(Checkpoint::resume(path, &header)?)
        }
        None => None,
    };

    let mut progress = |shard: &ShardProgress| {
        if !quiet && shard.shards > 1 {
            print_shard_progress(shard);
        }
    };

    let out = matches.get_one::<String>("out");
    let csv = matches.get_one::<String>("csv");
    let jsonl = matches.get_one::<String>("jsonl");
    if out.is_none() && csv.is_none() && jsonl.is_none() {
        // No output file: records go to stdout as CSV, like a local sweep.
        let mut sink = VecSink::new();
        let outcome = distribute_sweep(
            spec,
            &options,
            &config,
            &mut sink,
            &mut progress,
            checkpoint.as_mut(),
        )?;
        out!("{}", to_csv(sink.records()));
        print_outcome(spec, &outcome, quiet);
        return Ok(outcome_exit(&outcome));
    }

    let mut sink = MultiSink::new();
    if let Some(path) = out {
        sink.push(Box::new(JsonFileSink::create(path)?));
    }
    if let Some(path) = csv {
        sink.push(Box::new(CsvSink::create(path)?));
    }
    if let Some(path) = jsonl {
        sink.push(Box::new(JsonlSink::create(path)?));
    }
    let outcome = match &injector {
        Some(injector) => {
            let mut faulty = FaultySink::new(&mut sink, Arc::clone(injector));
            distribute_sweep(
                spec,
                &options,
                &config,
                &mut faulty,
                &mut progress,
                checkpoint.as_mut(),
            )?
        }
        None => distribute_sweep(
            spec,
            &options,
            &config,
            &mut sink,
            &mut progress,
            checkpoint.as_mut(),
        )?,
    };
    print_outcome(spec, &outcome, quiet);
    Ok(outcome_exit(&outcome))
}

fn cmd_resume(matches: &clap::ArgMatches) -> Result<ExitCode, ExploreError> {
    let spec = load_spec(matches)?;
    let checkpoint_path: String = matches.get_one("checkpoint").expect("required");
    let quiet = matches.get_flag("quiet");

    // The interrupted sweep's own header dictates the shard size and error
    // policy, so shard boundaries line up exactly.
    let (header, completed) = Checkpoint::load(&checkpoint_path)?;
    spec.validate()?;
    let total = spec.point_count()?;
    let fingerprint = simphony_explore::spec_fingerprint(&spec);
    let mut diverged = Vec::new();
    if header.spec_key != fingerprint {
        diverged.push(format!(
            "spec fingerprint (checkpoint {}, current spec {fingerprint})",
            header.spec_key
        ));
    }
    if header.total_points != total {
        diverged.push(format!(
            "total points (checkpoint {}, current spec {total})",
            header.total_points
        ));
    }
    if !diverged.is_empty() {
        return Err(ExploreError::checkpoint(format!(
            "`{checkpoint_path}` records a different sweep — diverging: {}; pass \
             the spec file the checkpoint was created with",
            diverged.join("; ")
        )));
    }

    // Truncate the JSONL output to the durable prefix the checkpoint vouches
    // for, then append. (The interrupted run may have flushed records of a
    // shard that never made it into the checkpoint; those will be re-emitted,
    // so they must be cut first.) The JSONL is mandatory for the same reason
    // `sweep` requires it with --checkpoint: the resumed shards get
    // checkpointed as emitted, so their records must land somewhere durable.
    let emitted = completed.last().map_or(0, |s| s.emitted);
    let jsonl: String = matches.get_one("jsonl").ok_or_else(|| {
        ExploreError::checkpoint(
            "resume requires --jsonl: newly completed shards are checkpointed as \
             emitted, so their records must land in the durable output `resume` \
             continues (pass the same --jsonl path the interrupted sweep used)"
                .to_string(),
        )
    })?;
    truncate_jsonl_prefix(&jsonl, emitted)?;
    let mut sink = JsonlSink::append(&jsonl)?;

    let injector = load_fault_injector(matches)?;
    let cache = maybe_faulty_cache(open_cache(matches)?, injector.as_ref());

    let mut session = ExploreSession::new(&spec)
        .chunk_size(header.shard_size)
        .checkpoint(&checkpoint_path)
        .retry(retry_policy(matches))
        .on_progress(|shard: &ShardProgress| {
            if !quiet && shard.shards > 1 {
                print_shard_progress(shard);
            }
        });
    if header.keep_going {
        session = session.keep_going();
    }
    if let Some(cache) = cache {
        session = session.cache_boxed(cache);
    }
    let outcome = match &injector {
        Some(injector) => {
            let mut faulty = FaultySink::new(&mut sink, Arc::clone(injector));
            session.sink(&mut faulty).run()?
        }
        None => session.sink(&mut sink).run()?,
    };
    print_outcome(&spec, &outcome, quiet);
    if !quiet {
        outln!("resumed `{jsonl}` from {emitted} checkpointed records");
    }
    Ok(outcome_exit(&outcome))
}

/// Truncates a JSONL file to its first `keep` lines. Errors if the file holds
/// fewer complete lines than the checkpoint claims were flushed — that means
/// the output file is not the one the checkpoint describes.
fn truncate_jsonl_prefix(path: &str, keep: usize) -> Result<(), ExploreError> {
    if keep == 0 {
        // Nothing checkpointed: start the file over.
        std::fs::write(path, "").map_err(|e| ExploreError::io_at(path, e))?;
        return Ok(());
    }
    // Stream in chunks — the file may be multi-GB, and only the byte offset
    // of line `keep` is needed.
    use std::io::Read as _;
    let mut file = std::fs::File::open(path).map_err(|e| ExploreError::io_at(path, e))?;
    let mut buffer = [0u8; 64 * 1024];
    let mut offset = 0u64;
    let mut lines = 0usize;
    'scan: loop {
        let n = file
            .read(&mut buffer)
            .map_err(|e| ExploreError::io_at(path, e))?;
        if n == 0 {
            return Err(ExploreError::checkpoint(format!(
                "`{path}` holds fewer records than the checkpoint says were flushed \
                 ({keep}); is this the right output file?"
            )));
        }
        for (i, &byte) in buffer[..n].iter().enumerate() {
            if byte == b'\n' {
                lines += 1;
                if lines == keep {
                    offset += (i + 1) as u64;
                    break 'scan;
                }
            }
        }
        offset += n as u64;
    }
    let total = file
        .metadata()
        .map_err(|e| ExploreError::io_at(path, e))?
        .len();
    drop(file);
    if offset < total {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| ExploreError::io_at(path, e))?;
        file.set_len(offset)
            .map_err(|e| ExploreError::io_at(path, e))?;
    }
    Ok(())
}

fn cmd_cache_stats(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    let dir: String = matches.get_one("dir").expect("required");
    let stats = PackedSegmentCache::open(&dir)?.stats()?;
    outln!("cache `{dir}`");
    outln!("  entries: {}", stats.entries);
    outln!("  bytes:   {}", stats.bytes);
    outln!("  segments: {}", stats.segments);
    outln!("  shadowed: {}", stats.shadowed);
    if let Some(checkpoint) = matches.get_one::<String>("checkpoint") {
        let (_, completed) = Checkpoint::load(checkpoint)?;
        let hits: usize = completed.iter().map(|s| s.hits).sum();
        let misses: usize = completed.iter().map(|s| s.misses).sum();
        outln!(
            "  last session ({} shards checkpointed): {hits} hits, {misses} misses",
            completed.len()
        );
    }
    Ok(())
}

fn cmd_serve_sim(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    let spec_path: String = matches.get_one("spec").expect("required");
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| ExploreError::io_at(&spec_path, e))?;
    let spec: ServingSpec = serde_json::from_str(&text)?;
    let chunk_size: usize = matches.get_one("chunk-size").expect("has default");
    let quiet = matches.get_flag("quiet");

    let out = matches.get_one::<String>("out");
    let csv = matches.get_one::<String>("csv");
    let jsonl = matches.get_one::<String>("jsonl");
    if out.is_none() && csv.is_none() && jsonl.is_none() {
        // No output file: print a human-readable line per point instead.
        let mut sink = VecSink::new();
        let outcome = run_serving_with(&spec, &mut sink, chunk_size)?;
        for r in sink.records() {
            outln!(
                "#{} {}: p50 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms | {:.1} req/s | \
                 util {:.1}% | {:.2} uJ/req | {} dropped",
                r.point.index,
                r.label,
                r.p50_ms,
                r.p99_ms,
                r.p999_ms,
                r.throughput_rps,
                r.utilization * 100.0,
                r.energy_per_request_uj,
                r.dropped,
            );
        }
        if !quiet {
            outln!(
                "serving `{}`: {} points over {} shards",
                spec.name,
                outcome.points,
                outcome.shards
            );
        }
        return Ok(());
    }

    let mut sink: MultiSink<ServingRecord> = MultiSink::new();
    if let Some(path) = out {
        sink.push(Box::new(JsonFileSink::create(path)?));
    }
    if let Some(path) = csv {
        sink.push(Box::new(CsvSink::create(path)?));
    }
    if let Some(path) = jsonl {
        sink.push(Box::new(JsonlSink::create(path)?));
    }
    let outcome = run_serving_with(&spec, &mut sink, chunk_size)?;
    if !quiet {
        outln!(
            "serving `{}`: {} points over {} shards",
            spec.name,
            outcome.points,
            outcome.shards
        );
    }
    Ok(())
}

fn cmd_serve(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    // `--check` is the scriptable health probe: handshake + ping, exit 0/1.
    if let Some(addr) = matches.get_one::<String>("check") {
        simphony_serve::check(&addr, std::time::Duration::from_secs(2))?;
        outln!("ok: daemon at `{addr}` answers protocol {PROTOCOL_VERSION}");
        return Ok(());
    }

    let cache = open_cache(matches)?.map(|cache| Arc::new(cache) as Arc<dyn CacheBackend>);
    let artifact_entries: usize = matches.get_one("artifact-entries").expect("has default");
    let artifact_bytes: u64 = matches.get_one("artifact-bytes").expect("has default");
    let config = ServeConfig {
        addr: matches.get_one::<String>("addr").expect("has default"),
        max_points: matches.get_one("max-points").expect("has default"),
        max_pending: matches.get_one("max-pending").expect("has default"),
        bulk_threshold: matches.get_one("bulk-threshold").expect("has default"),
        chunk_size: matches.get_one("chunk-size").expect("has default"),
        artifact_budget: simphony_explore::ArtifactBudget {
            max_entries: artifact_entries,
            max_bytes: artifact_bytes,
        },
    };
    let server = Server::start(config, cache)?;
    // The resolved address (port 0 becomes a real port) goes to stdout so
    // scripts and tests can discover where the daemon landed.
    outln!(
        "simphony-serve listening on {} (protocol {PROTOCOL_VERSION})",
        server.local_addr()
    );
    // Blocks until a client sends a `shutdown` request.
    server.join();
    // Best-effort farewell: whoever captured stdout may be gone by now.
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "simphony-serve: shutdown complete");
    Ok(())
}

/// `worker`: a distributed-sweep worker is the serve daemon under a
/// different banner — same protocol, same handlers — tuned for shard
/// traffic: a coordinator (`sweep --workers`) sends `compute-shard`
/// requests, the worker computes them against its own local cache and
/// artifact store, and streams back each computed shard as a `part` frame
/// plus its record lines.
/// `--fault-plan` wraps the local cache in the deterministic fault
/// injector so chaos drills can kill or degrade one worker of a fleet.
fn cmd_worker(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    let injector = load_fault_injector(matches)?;
    let cache = open_cache(matches)?;
    if cache.is_none() && injector.is_some() {
        return Err(ExploreError::invalid_spec(
            "--fault-plan without --cache has nothing to inject into: a worker's fault \
             schedule lives in its cache's durability chain",
        ));
    }
    let cache: Option<Arc<dyn CacheBackend>> =
        maybe_faulty_cache(cache, injector.as_ref()).map(Arc::from);
    let config = ServeConfig {
        addr: matches.get_one::<String>("addr").expect("has default"),
        max_points: matches.get_one("max-points").expect("has default"),
        ..ServeConfig::default()
    };
    let server = Server::start(config, cache)?;
    // The resolved address (port 0 becomes a real port) goes to stdout so
    // the coordinator's --workers list can be scripted.
    outln!(
        "simphony-worker listening on {} (protocol {PROTOCOL_VERSION})",
        server.local_addr()
    );
    // Blocks until a client sends a `shutdown` request.
    server.join();
    use std::io::Write as _;
    let _ = writeln!(std::io::stdout(), "simphony-worker: shutdown complete");
    Ok(())
}

/// True when the record file holds serving records. `p99_ms` is the schema
/// discriminator: serving records always serialize it, sweep records never
/// do, so sniffing the first record is unambiguous.
fn is_serving_record_file(path: &str) -> Result<bool, ExploreError> {
    let text = std::fs::read_to_string(path).map_err(|e| ExploreError::io_at(path, e))?;
    let first: Option<serde_json::Value> = if text.trim_start().starts_with('[') {
        let all: serde_json::Value = serde_json::from_str(&text)?;
        all.as_array().and_then(|a| a.first().cloned())
    } else {
        match text.lines().find(|line| !line.trim().is_empty()) {
            Some(line) => Some(serde_json::from_str(line)?),
            None => None,
        }
    };
    Ok(first.is_some_and(|record| record.get("p99_ms").is_some()))
}

/// Renders any CSV-capable record list under its own header — the batch
/// sibling of the streaming [`CsvSink`].
fn csv_render<R: CsvRecord>(records: &[R]) -> String {
    let mut out = String::from(R::csv_header());
    out.push('\n');
    for record in records {
        out.push_str(&record.csv_line());
        out.push('\n');
    }
    out
}

fn print_front_summary(objectives: &[Objective], kept: usize, total: usize) {
    outln!(
        "pareto frontier over [{}]: {kept} of {total} points",
        objectives
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
}

fn cmd_pareto(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    let records_path: String = matches.get_one("records").expect("required");
    let objective_list: String = matches.get_one("objectives").expect("has default");
    let objectives = Objective::parse_list(&objective_list)?;

    if is_serving_record_file(&records_path)? {
        let records: Vec<ServingRecord> = read_records_as(&records_path)?;
        let front = pareto_front(&records, &objectives)?;
        print_front_summary(&objectives, front.len(), records.len());
        out!("{}", csv_render(&front));
        if let Some(out) = matches.get_one::<String>("out") {
            let text = serde_json::to_string_pretty(&front)?;
            std::fs::write(&out, text + "\n").map_err(|e| ExploreError::io_at(&out, e))?;
        }
        if let Some(path) = matches.get_one::<String>("jsonl") {
            let mut text = String::new();
            for record in &front {
                text.push_str(&serde_json::to_string(record)?);
                text.push('\n');
            }
            std::fs::write(&path, text).map_err(|e| ExploreError::io_at(&path, e))?;
        }
        return Ok(());
    }

    let records = read_records(&records_path)?;
    let front = pareto_front(&records, &objectives)?;
    print_front_summary(&objectives, front.len(), records.len());
    out!("{}", to_csv(&front));
    if let Some(out) = matches.get_one::<String>("out") {
        write_json(out, &front)?;
    }
    if let Some(path) = matches.get_one::<String>("jsonl") {
        simphony_explore::write_jsonl(path, &front)?;
    }
    Ok(())
}

fn parse_workload(selector: &str) -> Result<WorkloadSpec, ExploreError> {
    if selector == "vgg8" {
        return Ok(WorkloadSpec::Vgg8);
    }
    if let Some(rest) = selector.strip_prefix("bert:") {
        let seq_len = rest
            .parse()
            .map_err(|_| ExploreError::invalid_spec(format!("bad bert seq len `{rest}`")))?;
        return Ok(WorkloadSpec::Bert { seq_len });
    }
    if let Some(rest) = selector.strip_prefix("gemm:") {
        let dims: Vec<usize> = rest
            .split('x')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| ExploreError::invalid_spec(format!("bad gemm shape `{rest}`")))?;
        if let [m, k, n] = dims[..] {
            return Ok(WorkloadSpec::Gemm { m, k, n });
        }
    }
    Err(ExploreError::invalid_spec(format!(
        "unknown workload `{selector}` (expected gemm:MxKxN, vgg8, or bert:SEQLEN)"
    )))
}

fn cmd_run(matches: &clap::ArgMatches) -> Result<ExitCode, ExploreError> {
    let family_name: String = matches.get_one("arch").expect("has default");
    let family = ArchFamily::parse(&family_name).ok_or_else(|| {
        ExploreError::invalid_spec(format!(
            "unknown architecture family `{family_name}` (expected one of: {})",
            arch_family_list()
        ))
    })?;
    let workload_sel: String = matches.get_one("workload").expect("has default");
    let workload = parse_workload(&workload_sel)?;

    let mut spec = SweepSpec::new("run")
        .with_arch(vec![family])
        .with_workload(vec![workload])
        .with_tiles(vec![matches.get_one("tiles").expect("has default")])
        .with_cores_per_tile(vec![matches.get_one("cores").expect("has default")])
        .with_wavelengths(vec![matches.get_one("wavelengths").expect("has default")])
        .with_bitwidth(vec![matches.get_one("bits").expect("has default")])
        .with_sparsity(vec![matches.get_one("sparsity").expect("has default")]);
    spec.core_height = vec![matches.get_one("height").expect("has default")];
    spec.core_width = vec![matches.get_one("width").expect("has default")];
    spec.clock_ghz = matches.get_one("clock").expect("has default");

    // Every axis comes from a flag, so a spec that fails validation (say,
    // `--bits 65`) is a usage error, like a flag value that does not parse.
    let points = match spec.expand() {
        Ok(points) => points,
        Err(err) => {
            eprintln!("error: {err}");
            return Ok(ExitCode::from(EXIT_USAGE));
        }
    };
    let report =
        simphony_explore::simulate_point(&points[0]).map_err(|source| ExploreError::Point {
            index: 0,
            label: points[0].label(),
            source,
        })?;
    outln!("{report}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_spec(matches: &clap::ArgMatches) -> Result<(), ExploreError> {
    if matches.get_flag("serving") {
        let example = ServingSpec::new("example")
            .with_offered_load(vec![500.0, 1000.0, 2000.0, 4000.0])
            .with_fleet_size(vec![1, 2])
            .with_discipline(Discipline::ALL.to_vec())
            .with_batch_size(vec![1, 4]);
        outln!("{}", serde_json::to_string_pretty(&example)?);
        return Ok(());
    }
    let example = SweepSpec::new("example")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4, 8])
        .with_bitwidth(vec![4, 6, 8]);
    outln!("{}", serde_json::to_string_pretty(&example)?);
    Ok(())
}
