//! Process-level distributed-sweep tests: spawn real `simphony-cli worker`
//! daemons, coordinate a sweep over them, kill one mid-shard with a
//! committed abort fault plan, and hold the merged output byte-identical to
//! a single-process run — the chaos drill behind `sweep --workers`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use simphony_explore::{ArchFamily, SweepSpec};
use simphony_serve::request;

const BIN: &str = env!("CARGO_BIN_EXE_simphony-cli");
const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-cli-dist-{tag}-{}-{}",
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

/// A 24-point sweep: 12 shards at chunk 2, plenty to spread over a fleet.
fn fleet_spec(name: &str) -> SweepSpec {
    SweepSpec::new(name)
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
        .with_sparsity(vec![0.0, 0.1])
}

/// A spawned `simphony-cli worker` process plus the address it bound.
struct Worker {
    child: Child,
    addr: String,
}

impl Worker {
    fn start(extra_args: &[&str]) -> Worker {
        let mut child = std::process::Command::new(BIN)
            .args(["worker", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("worker spawns");
        // The worker prints `simphony-worker listening on <addr> (...)` and
        // flushes before serving; the bound address is the 4th token.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("worker prints its address");
        let addr = line
            .split_whitespace()
            .nth(3)
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .to_string();
        for attempt in 0.. {
            let check = run(&["serve", "--check", &addr]);
            if check.status.code() == Some(0) {
                break;
            }
            assert!(attempt < 100, "worker at {addr} never became healthy");
            std::thread::sleep(Duration::from_millis(50));
        }
        Worker { child, addr }
    }

    /// Sends a `shutdown` request and asserts the process exits cleanly.
    fn shutdown(mut self) {
        let lines = request(&self.addr, "{\"kind\":\"shutdown\"}", TIMEOUT).expect("shutdown");
        assert_eq!(lines, vec!["{\"frame\":\"bye\"}".to_string()]);
        let status = self.child.wait().expect("worker exits");
        assert_eq!(status.code(), Some(0), "worker exit status");
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Only reached when a test failed before the graceful path ran (or
        // the worker was deliberately crashed).
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn coordinated_sweep_over_two_workers_matches_single_process_bytes() {
    let dir = scratch_dir("bytes");
    let spec = fleet_spec("dist-two");
    let spec_path = write_spec(&dir, &spec);

    let golden = dir.join("golden.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        golden.to_str().unwrap(),
        "--keep-going",
        "--chunk-size",
        "2",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let a = Worker::start(&[]);
    let b = Worker::start(&[]);
    let merged = dir.join("dist.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        merged.to_str().unwrap(),
        "--keep-going",
        "--chunk-size",
        "2",
        "--workers",
        &format!("{},{}", a.addr, b.addr),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        std::fs::read_to_string(&merged).expect("merged reads"),
        std::fs::read_to_string(&golden).expect("golden reads"),
        "distributed bytes diverged from the single-process run"
    );
    a.shutdown();
    b.shutdown();
}

#[test]
fn worker_killed_mid_shard_by_abort_fault_recovers_byte_identically() {
    let dir = scratch_dir("chaos");
    let spec = fleet_spec("dist-chaos");
    let spec_path = write_spec(&dir, &spec);

    let golden = dir.join("golden.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        golden.to_str().unwrap(),
        "--keep-going",
        "--chunk-size",
        "2",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The victim aborts (process death, no cleanup) on its 4th cache
    // operation. Its cache takes the committed fault plan so the abort lands
    // inside a shard's durability chain, exactly where a real crash would.
    // It is the *only* worker of the first sweep, which makes the drill
    // deterministic under any scheduler: shard ops run strictly in sequence,
    // so the abort always fires on its second shard (first put, op 3) — a
    // fleet-mate racing it for shards could otherwise starve the fault.
    let plan = dir.join("abort.json");
    std::fs::write(
        &plan,
        r#"{"seed":7,"transient_error_rate":0.0,"faults":[{"op":3,"kind":"Abort"}]}"#,
    )
    .expect("plan writes");
    let victim_cache = dir.join("victim-cache");
    let mut victim = Worker::start(&[
        "--cache",
        victim_cache.to_str().unwrap(),
        "--fault-plan",
        plan.to_str().unwrap(),
    ]);

    // Phase 1: the victim dies mid-shard; with the whole fleet gone and
    // shards unassigned, the coordinator fails with the typed fleet error.
    let doomed = dir.join("doomed.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        doomed.to_str().unwrap(),
        "--keep-going",
        "--chunk-size",
        "2",
        "--workers",
        &victim.addr,
        "--shard-deadline",
        "3000",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("every worker is gone"), "{stderr}");

    // The victim really died by abort, not a clean exit.
    let status = victim.child.wait().expect("victim reaped");
    assert!(
        !status.success(),
        "victim was supposed to crash: {status:?}"
    );

    // Phase 2: rerun against a fleet whose address list still names the
    // dead victim. Its connection is refused, the worker is dropped after
    // the retry schedule, and the survivor absorbs every shard — the merged
    // bytes match the single-process run exactly.
    let survivor = Worker::start(&[]);
    let merged = dir.join("dist.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        merged.to_str().unwrap(),
        "--keep-going",
        "--chunk-size",
        "2",
        "--workers",
        &format!("{},{}", survivor.addr, victim.addr),
        "--shard-deadline",
        "3000",
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let merged_bytes = std::fs::read_to_string(&merged).expect("merged reads");
    assert_eq!(
        merged_bytes,
        std::fs::read_to_string(&golden).expect("golden reads"),
        "post-crash bytes diverged from the single-process run"
    );
    // Byte-identity already implies it; state the chaos claim directly too:
    // 24 records, none lost to the crashed worker, none duplicated.
    assert_eq!(merged_bytes.lines().count(), 24);

    // Satellite check: the dead worker's packed cache reports only durable
    // entries — the batch staged when the abort hit must not be counted.
    let stats = run(&["cache", "stats", "--dir", victim_cache.to_str().unwrap()]);
    assert_eq!(stats.status.code(), Some(0), "{stats:?}");
    let stdout = String::from_utf8(stats.stdout).expect("utf8 stats");
    let entries: usize = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("entries: "))
        .expect("entries line")
        .trim()
        .parse()
        .expect("entries parses");
    // op 3 aborted inside the second staged batch: exactly one segment of
    // one shard (2 entries) ever became durable.
    assert_eq!(entries, 2, "stats counted non-durable entries:\n{stdout}");

    survivor.shutdown();
}

#[test]
fn workers_flag_conflicts_are_usage_errors() {
    let dir = scratch_dir("usage");
    let spec_path = write_spec(&dir, &fleet_spec("dist-usage"));
    let spec = spec_path.to_str().unwrap();

    // --workers + --cache: the cache lives on the workers.
    let out = run(&[
        "sweep",
        "--spec",
        spec,
        "--keep-going",
        "--workers",
        "127.0.0.1:1",
        "--cache",
        dir.join("cache").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("lives on each worker"), "{stderr}");

    // --workers without --keep-going: refused, not half-honoured.
    let out = run(&["sweep", "--spec", spec, "--workers", "127.0.0.1:1"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("--keep-going"), "{stderr}");
}
