//! Process-level failure tests of the CLI: exit codes, diverging-resume
//! diagnostics, and the headline crash drill — a two-process co-executed
//! sweep whose joiner is killed mid-shard by an injected abort, recovered
//! through stale-lease re-claim to byte-identical output.

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

/// The headline drill from the issue: two processes co-execute one sweep,
/// one worker is killed mid-shard by a seeded fault plan, the survivor
/// re-claims the stale lease, and the merged output is byte-identical to a
/// serial unfaulted run with zero duplicate records.
#[test]
fn a_worker_killed_mid_shard_is_recovered_byte_identically() {
    let dir = scratch_dir("crash");
    let spec = write_spec(&dir, &small_spec("crash"));

    // Serial unfaulted golden.
    let golden_path = dir.join("golden.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--jsonl",
        golden_path.to_str().unwrap(),
        "--chunk-size",
        "3",
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 0, "golden sweep runs: {out:?}");
    let golden = std::fs::read_to_string(&golden_path).expect("golden reads");

    // The joiner's fault plan: abort the process at its fourth durability op,
    // i.e. mid-shard, after some cache writes went through.
    let plan = dir.join("abort.json");
    std::fs::write(
        &plan,
        "{\"seed\":7,\"transient_error_rate\":0.0,\"faults\":[{\"op\":3,\"kind\":\"Abort\"}]}",
    )
    .expect("plan writes");

    let lease_dir = dir.join("leases");
    let merged = dir.join("merged.jsonl");
    let mut joiner = std::process::Command::new(BIN)
        .args([
            "join",
            "--spec",
            spec.to_str().unwrap(),
            "--lease-dir",
            lease_dir.to_str().unwrap(),
            "--cache",
            dir.join("joiner-cache").to_str().unwrap(),
            "--fault-plan",
            plan.to_str().unwrap(),
            "--quiet",
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("joiner spawns");
    let out = run(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--jsonl",
        merged.to_str().unwrap(),
        "--chunk-size",
        "3",
        "--keep-going",
        "--lease-dir",
        lease_dir.to_str().unwrap(),
        "--lease-timeout",
        "400",
        "--quiet",
    ]);
    let joiner = joiner.wait().expect("joiner waits");
    assert!(
        !joiner.success(),
        "the fault plan must have killed the joiner"
    );
    assert_eq!(exit_code(&out), 0, "the primary recovers and exits clean");

    let merged_text = std::fs::read_to_string(&merged).expect("merged reads");
    assert_eq!(
        merged_text, golden,
        "recovered co-execution must be byte-identical to the serial run"
    );
    let mut lines: Vec<&str> = merged_text.lines().collect();
    let emitted = lines.len();
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), emitted, "no record may be emitted twice");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_lease_directory_serving_another_sweep_is_rejected() {
    let dir = scratch_dir("lease-diverge");
    let spec = write_spec(&dir, &small_spec("first"));
    let lease_dir = dir.join("leases");
    let out = run(&[
        "sweep",
        "--spec",
        spec.to_str().unwrap(),
        "--jsonl",
        dir.join("first.jsonl").to_str().unwrap(),
        "--chunk-size",
        "4",
        "--keep-going",
        "--lease-dir",
        lease_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 0, "first co-execution runs: {out:?}");

    let other = write_spec(&dir, &small_spec("first").with_bitwidth(vec![4, 6, 8]));
    let out = run(&[
        "sweep",
        "--spec",
        other.to_str().unwrap(),
        "--jsonl",
        dir.join("second.jsonl").to_str().unwrap(),
        "--chunk-size",
        "4",
        "--keep-going",
        "--lease-dir",
        lease_dir.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(exit_code(&out), 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("diverging"),
        "the manifest mismatch must name the diverging fields: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
