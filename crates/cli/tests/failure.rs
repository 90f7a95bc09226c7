//! Process-level failure tests of the CLI: exit codes, diverging-resume
//! diagnostics and hostile input files. The crash drill — a worker killed
//! mid-shard by an injected abort — lives with the fleet tests in `dist.rs`.

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
