//! Process-level failure tests of the CLI: exit codes, diverging-resume
//! diagnostics, hostile input files and the crash matrix, a local sweep
//! killed at each step of its durability chain. The crash drill — a worker
//! killed mid-shard by an injected abort — lives with the fleet tests in
//! `dist.rs`.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::atomic::{AtomicUsize, Ordering};

use simphony_explore::{ArchFamily, SweepSpec};

const BIN: &str = env!("CARGO_BIN_EXE_simphony-cli");

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-cli-failure-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir().join(unique);
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

fn write_spec(dir: &Path, spec: &SweepSpec) -> PathBuf {
    let path = dir.join(format!("{}.json", spec.name));
    std::fs::write(&path, serde_json::to_string(spec).expect("spec renders")).expect("spec writes");
    path
}

fn run(args: &[&str]) -> Output {
    std::process::Command::new(BIN)
        .args(args)
        .output()
        .expect("CLI spawns")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("CLI exits (not signalled)")
}

fn small_spec(name: &str) -> SweepSpec {
    SweepSpec::new(name)
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
}

#[test]
fn a_clean_sweep_exits_zero_and_a_ledgered_sweep_exits_three() {
    let dir = scratch_dir("exit-codes");
    let clean = write_spec(&dir, &small_spec("clean"));
    let out = run(&[
        "sweep",
        "--spec",
        clean.to_str().unwrap(),
        "--jsonl",
        dir.join("clean.jsonl").to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 0, "clean sweep: {out:?}");

    // Butterfly cores with non-power-of-two height fail at artifact
    // construction; --keep-going ledgers them and completes.
    let mut failing = SweepSpec::new("failing")
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Butterfly])
        .with_wavelengths(vec![1, 2]);
    failing.core_height = vec![6];
    let failing = write_spec(&dir, &failing);
    let out = run(&[
        "sweep",
        "--spec",
        failing.to_str().unwrap(),
        "--jsonl",
        dir.join("failing.jsonl").to_str().unwrap(),
        "--keep-going",
        "--quiet",
    ]);
    assert_eq!(
        exit_code(&out),
        3,
        "completed-with-ledgered-failures must be distinct from a hard error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("2 of 4 points failed"),
        "the failure count goes to stderr: {stderr}"
    );

    // The same failures without --keep-going are a hard error: exit 1.
    let out = run(&[
        "sweep",
        "--spec",
        failing.to_str().unwrap(),
        "--jsonl",
        dir.join("hard.jsonl").to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 1, "fail-fast aborts with a hard error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_with_an_unsupported_bitwidth_is_a_usage_error() {
    for bits in ["17", "65"] {
        let out = run(&["run", "--bits", bits]);
        assert_eq!(exit_code(&out), 2, "--bits {bits}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("1..=16"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let out = run(&["run", "--bits", "16"]);
    assert_eq!(
        exit_code(&out),
        0,
        "the widest supported width runs: {out:?}"
    );
}

#[test]
fn resume_names_each_diverging_checkpoint_field() {
    let dir = scratch_dir("resume-diverge");
    let spec = write_spec(&dir, &small_spec("original"));
    let jsonl = dir.join("records.jsonl");
    let ckpt = dir.join("sweep.ckpt");
    let out = run(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--chunk-size",
        "4",
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 0, "checkpointed sweep runs: {out:?}");

    // Same point count, different axis values: only the fingerprint diverges.
    let mut refingered = small_spec("original");
    refingered.wavelengths = vec![1, 2, 8];
    let refingered = write_spec(&dir, &refingered);
    let out = run(&[
        "resume",
        "--spec",
        refingered.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spec fingerprint"), "{stderr}");
    assert!(
        !stderr.contains("total points"),
        "only the diverging field may be named: {stderr}"
    );

    // Different point count: both the fingerprint and the total diverge.
    let grown = write_spec(
        &dir,
        &small_spec("original").with_wavelengths(vec![1, 2, 4, 8]),
    );
    let out = run(&[
        "resume",
        "--spec",
        grown.to_str().unwrap(),
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("spec fingerprint"), "{stderr}");
    assert!(stderr.contains("total points"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// 12 data-unaware points of the example GEMM on TeMPO: bits {4, 8} x
/// sparsity {0, 0.25, 0.5} x 2 dataflows. Points that differ only in
/// sparsity share a simulation, and they lie two apart, so at chunk size 3
/// some shards hold two points of one group and some groups straddle a
/// shard boundary.
const CRASH_SPEC: &str = r#"{
    "name": "crash-matrix",
    "workload": [{"Gemm": {"m": 280, "k": 28, "n": 280}}],
    "arch": ["Tempo"],
    "tiles": [2],
    "cores_per_tile": [2],
    "core_height": [4],
    "core_width": [4],
    "wavelengths": [2],
    "bitwidth": [4, 8],
    "sparsity": [0.0, 0.25, 0.5],
    "dataflow": ["OutputStationary", "WeightStationary"],
    "data_awareness": ["Unaware"],
    "clock_ghz": 5.0,
    "seed": 42
}"#;

/// The durability chain's counted ops (cache puts and flushes, sink
/// accepts, flushes, syncs and the final finish) of [`CRASH_SPEC`] at chunk
/// size 3: 9 per shard of 4, then the finish.
const CRASH_SPEC_OPS: u64 = 37;

#[test]
fn a_sweep_killed_at_any_durability_op_resumes_byte_identically() {
    let dir = scratch_dir("crash-matrix");
    let spec = dir.join("crash-matrix.json");
    std::fs::write(&spec, CRASH_SPEC).expect("spec writes");
    let spec = spec.to_str().unwrap();
    // Each run gets its own cache, checkpoint and JSONL under `run_dir`.
    let paths = |run_dir: &Path| {
        std::fs::create_dir_all(run_dir).expect("run dir creates");
        ["cache", "sweep.ckpt", "records.jsonl"].map(|name| {
            let path = run_dir.join(name);
            path.to_str().unwrap().to_string()
        })
    };
    let sweep = |[cache, ckpt, jsonl]: &[String; 3], plan: &[&str]| {
        let mut args = vec![
            "sweep",
            "--spec",
            spec,
            "--cache",
            cache,
            "--checkpoint",
            ckpt,
            "--jsonl",
            jsonl,
            "--keep-going",
            "--chunk-size",
            "3",
            "--quiet",
        ];
        args.extend(plan);
        run(&args)
    };
    let read = |jsonl: &str| std::fs::read_to_string(jsonl).expect("records read");

    let clean = paths(&dir.join("clean"));
    let out = sweep(&clean, &[]);
    assert_eq!(exit_code(&out), 0, "uninterrupted sweep: {out:?}");
    let expected = read(&clean[2]);
    assert_eq!(expected.lines().count(), 12);

    // Abort at op 0, 1, ... until the sweep runs out of ops before the
    // fault fires; each killed sweep must resume to the uninterrupted bytes.
    let mut op = 0u64;
    loop {
        let run_dir = dir.join(format!("op-{op}"));
        let files = paths(&run_dir);
        let plan = run_dir.join("plan.json");
        std::fs::write(
            &plan,
            format!(
                r#"{{"seed":0,"transient_error_rate":0.0,"faults":[{{"op":{op},"kind":"Abort"}}]}}"#
            ),
        )
        .expect("plan writes");
        let out = sweep(&files, &["--fault-plan", plan.to_str().unwrap()]);
        if out.status.success() {
            assert_eq!(
                read(&files[2]),
                expected,
                "a sweep with fewer than {op} ops"
            );
            break;
        }
        assert_eq!(
            out.status.code(),
            None,
            "op {op}: killed by the abort: {out:?}"
        );
        let [cache, ckpt, jsonl] = &files;
        let out = run(&[
            "resume",
            "--spec",
            spec,
            "--checkpoint",
            ckpt,
            "--jsonl",
            jsonl,
            "--cache",
            cache,
            "--quiet",
        ]);
        assert_eq!(exit_code(&out), 0, "resume after op {op}: {out:?}");
        assert_eq!(read(jsonl), expected, "resume after op {op}");
        op += 1;
        assert!(op <= CRASH_SPEC_OPS, "the sweep outlived every abort");
    }
    assert_eq!(op, CRASH_SPEC_OPS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_deeply_nested_spec_file_is_an_error_not_a_stack_overflow() {
    let dir = scratch_dir("deep-spec");
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).expect("spec writes");
    // `exit_code` panics if the process died on a signal (an abort).
    let out = run(&["sweep", "--spec", deep.to_str().unwrap(), "--quiet"]);
    assert_eq!(exit_code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting deeper than 128 levels"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_checkpoint_records_and_fault_plan_files_are_errors() {
    let dir = scratch_dir("deep-files");
    let spec = write_spec(&dir, &small_spec("deep-files"));
    let spec = spec.to_str().unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000) + "\n").expect("file writes");
    let deep = deep.to_str().unwrap();
    let jsonl = dir.join("records.jsonl");
    let cases: [(&[&str], &str); 3] = [
        (
            &[
                "resume",
                "--spec",
                spec,
                "--checkpoint",
                deep,
                "--jsonl",
                jsonl.to_str().unwrap(),
                "--quiet",
            ],
            "not a checkpoint header",
        ),
        (
            &[
                "pareto",
                "--records",
                deep,
                "--objectives",
                "energy,latency",
            ],
            "nesting deeper than 128 levels",
        ),
        (
            &["sweep", "--spec", spec, "--fault-plan", deep, "--quiet"],
            "nesting deeper than 128 levels",
        ),
    ];
    for (args, needle) in cases {
        let out = run(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removed_lease_and_pipeline_options_are_usage_errors() {
    let dir = scratch_dir("removed-options");
    let spec = write_spec(&dir, &small_spec("removed-options"));
    let spec = spec.to_str().unwrap();
    let ckpt = dir.join("sweep.ckpt");
    let jsonl = dir.join("records.jsonl");
    let lease = dir.join("lease");
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let cases: [(&[&str], &str); 11] = [
        (&["join", "--lease-dir", lease.to_str().unwrap()], "`join`"),
        (
            &[
                "sweep",
                "--spec",
                spec,
                "--lease-dir",
                lease.to_str().unwrap(),
            ],
            "`--lease-dir`",
        ),
        (
            &["sweep", "--spec", spec, "--lease-timeout", "5"],
            "`--lease-timeout`",
        ),
        (
            &["sweep", "--spec", spec, "--no-pipeline"],
            "`--no-pipeline`",
        ),
        (
            &[
                "resume",
                "--spec",
                spec,
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--jsonl",
                jsonl.to_str().unwrap(),
                "--no-pipeline",
            ],
            "`--no-pipeline`",
        ),
        // One cache format: no backend choice, no migration between formats.
        (
            &[
                "sweep",
                "--spec",
                spec,
                "--cache",
                cache,
                "--backend",
                "packed",
            ],
            "`--backend`",
        ),
        (
            &[
                "resume",
                "--spec",
                spec,
                "--checkpoint",
                ckpt.to_str().unwrap(),
                "--cache",
                cache,
                "--backend",
                "dir",
            ],
            "`--backend`",
        ),
        (
            &["cache", "stats", "--dir", cache, "--backend", "auto"],
            "`--backend`",
        ),
        (
            &["serve", "--cache", cache, "--backend", "sharded"],
            "`--backend`",
        ),
        (
            &["worker", "--cache", cache, "--backend", "packed"],
            "`--backend`",
        ),
        (
            &[
                "cache",
                "migrate",
                "--from",
                cache,
                "--to",
                lease.to_str().unwrap(),
            ],
            "`migrate`",
        ),
    ];
    for (args, needle) in cases {
        let out = run(args);
        assert_eq!(exit_code(&out), 2, "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    // Refused before any work: nothing was written.
    assert!(!lease.exists() && !ckpt.exists() && !jsonl.exists());
    assert!(!Path::new(cache).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cache_in_a_retired_layout_is_refused_with_exit_one() {
    let dir = scratch_dir("retired-layout");
    let spec = write_spec(&dir, &small_spec("retired-layout"));
    let spec = spec.to_str().unwrap();
    // The flat layout held one `<key>.json` file per entry; the fan-out
    // layout the same files under two-hex-digit subdirectories.
    let flat = dir.join("flat");
    std::fs::create_dir_all(&flat).unwrap();
    std::fs::write(flat.join("0123456789abcdef.json"), "{}").unwrap();
    let fanned = dir.join("fanned");
    std::fs::create_dir_all(fanned.join("01")).unwrap();
    let flat = flat.to_str().unwrap();
    let fanned = fanned.to_str().unwrap();
    let jsonl = dir.join("records.jsonl");
    let jsonl = jsonl.to_str().unwrap();
    let cases: [&[&str]; 5] = [
        &["sweep", "--spec", spec, "--cache", flat, "--jsonl", jsonl],
        &["sweep", "--spec", spec, "--cache", fanned, "--jsonl", jsonl],
        &["cache", "stats", "--dir", flat],
        &["serve", "--addr", "127.0.0.1:0", "--cache", fanned],
        &["worker", "--cache", flat],
    ];
    for args in cases {
        let out = run(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cache error")
                && stderr.contains("retired")
                && stderr.contains("delete"),
            "{args:?}: {stderr}"
        );
    }
    // Nothing was simulated into, or written next to, the old entries.
    assert_eq!(std::fs::read_dir(flat).unwrap().count(), 1);
    assert_eq!(std::fs::read_dir(fanned).unwrap().count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the CLI with stdout on a pipe whose read end is already closed: what
/// `simphony-cli spec | head -1` leaves once `head` has exited.
fn run_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe opens");
    drop(reader);
    std::process::Command::new(BIN)
        .args(args)
        .stdout(writer)
        .output()
        .expect("CLI spawns")
}

#[test]
fn a_reader_that_closes_stdout_early_ends_the_output_quietly() {
    let dir = scratch_dir("closed-stdout");
    let spec = write_spec(&dir, &small_spec("closed-stdout"));
    let cases: [&[&str]; 2] = [
        &["spec"],
        // No output file: the records go to stdout as CSV.
        &["sweep", "--spec", spec.to_str().unwrap()],
    ];
    for args in cases {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), 0, "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
