//! Process-level daemon tests: spawn the real `simphony-cli serve` binary,
//! drive it over TCP, and hold its responses byte-identical to the
//! equivalent CLI invocations, cold and warm through a result cache.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use simphony_explore::{ArchFamily, SweepSpec, WorkloadSpec};
use simphony_serve::request;

const BIN: &str = env!("CARGO_BIN_EXE_simphony-cli");
const TIMEOUT: Duration = Duration::from_secs(120);

/// A fresh scratch directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let unique = format!(
        "simphony-cli-serve-{tag}-{}-{}",
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

fn small_spec(name: &str) -> SweepSpec {
    SweepSpec::new(name)
        .with_arch(vec![ArchFamily::Tempo, ArchFamily::Scatter])
        .with_wavelengths(vec![1, 2, 4])
        .with_bitwidth(vec![4, 8])
}

/// A spawned daemon process plus the address it bound.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `simphony-cli serve` on an ephemeral port and waits until the
    /// health check answers.
    fn start(extra_args: &[&str]) -> Daemon {
        let mut child = std::process::Command::new(BIN)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // The daemon prints `simphony-serve listening on <addr> (...)` and
        // flushes before serving; the bound address is the 4th token.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon prints its address");
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
            assert!(attempt < 100, "daemon at {addr} never became healthy");
            std::thread::sleep(Duration::from_millis(50));
        }
        Daemon { child, addr }
    }

    /// Sends a `shutdown` request and asserts the process exits cleanly.
    fn shutdown(mut self) {
        let lines = request(&self.addr, "{\"kind\":\"shutdown\"}", TIMEOUT).expect("shutdown");
        assert_eq!(lines, vec!["{\"frame\":\"bye\"}".to_string()]);
        let status = self.child.wait().expect("daemon exits");
        assert_eq!(status.code(), Some(0), "daemon exit status");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached when a test failed before the graceful path ran.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Record lines of a response (everything that is not a control frame).
fn record_lines(lines: &[String]) -> String {
    let records: Vec<&str> = lines
        .iter()
        .map(String::as_str)
        .filter(|line| !line.starts_with("{\"frame\":"))
        .collect();
    records.join("\n") + "\n"
}

#[test]
fn daemon_sweeps_match_cli_bytes_cold_and_warm() {
    let dir = scratch_dir("bytes");
    let spec = small_spec("served");
    let spec_path = write_spec(&dir, &spec);

    // The CLI oracle: a solo sweep with its own cache.
    let jsonl = dir.join("cli.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
        "--cache",
        dir.join("cli-cache").to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let oracle = std::fs::read_to_string(&jsonl).expect("oracle reads");

    let daemon = Daemon::start(&["--cache", dir.join("daemon-cache").to_str().unwrap()]);
    let line = format!(
        "{{\"kind\":\"sweep\",\"spec\":{},\"chunk_size\":3}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    // Cold pass simulates and populates the daemon cache; warm pass is
    // served from it. Both must reproduce the CLI bytes exactly.
    for pass in ["cold", "warm"] {
        let lines = request(&daemon.addr, &line, TIMEOUT).expect("daemon sweep");
        assert_eq!(
            record_lines(&lines),
            oracle,
            "daemon {pass} pass diverged from CLI bytes"
        );
    }
    daemon.shutdown();
}

#[test]
fn daemon_run_report_matches_cli_run_stdout() {
    // The exact spec `run` builds from its flag defaults (cmd_run).
    let mut spec = SweepSpec::new("run")
        .with_arch(vec![ArchFamily::Tempo])
        .with_workload(vec![WorkloadSpec::Gemm {
            m: 280,
            k: 28,
            n: 280,
        }])
        .with_tiles(vec![2])
        .with_cores_per_tile(vec![2])
        .with_wavelengths(vec![1])
        .with_bitwidth(vec![8])
        .with_sparsity(vec![0.0]);
    spec.core_height = vec![4];
    spec.core_width = vec![4];
    spec.clock_ghz = 5.0;

    let cli = run(&["run"]);
    assert_eq!(cli.status.code(), Some(0), "{cli:?}");
    let cli_stdout = String::from_utf8(cli.stdout).expect("utf8 report");

    let daemon = Daemon::start(&[]);
    let line = format!(
        "{{\"kind\":\"run\",\"spec\":{}}}",
        serde_json::to_string(&spec).expect("spec serializes"),
    );
    let lines = request(&daemon.addr, &line, TIMEOUT).expect("daemon run");
    let report: serde_json::Value = serde_json::from_str(&lines[0]).expect("report frame");
    assert_eq!(
        report.get("text").and_then(|v| v.as_str()),
        Some(cli_stdout.as_str()),
        "daemon report diverged from `run` stdout"
    );
    daemon.shutdown();
}

#[test]
fn daemon_pareto_matches_cli_pareto_jsonl_bytes() {
    let dir = scratch_dir("pareto");
    let spec = small_spec("frontier");
    let spec_path = write_spec(&dir, &spec);
    let records_path = dir.join("records.jsonl");
    let out = run(&[
        "sweep",
        "--spec",
        spec_path.to_str().unwrap(),
        "--jsonl",
        records_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let front_path = dir.join("front.jsonl");
    let out = run(&[
        "pareto",
        "--records",
        records_path.to_str().unwrap(),
        "--objectives",
        "energy,latency",
        "--jsonl",
        front_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let oracle = std::fs::read_to_string(&front_path).expect("frontier reads");

    let records_text = std::fs::read_to_string(&records_path).expect("records read");
    let records_array = format!("[{}]", records_text.lines().collect::<Vec<_>>().join(","));
    let daemon = Daemon::start(&[]);
    let line = format!(
        "{{\"kind\":\"pareto\",\"records\":{records_array},\"objectives\":\"energy,latency\"}}"
    );
    let lines = request(&daemon.addr, &line, TIMEOUT).expect("daemon pareto");
    assert_eq!(record_lines(&lines), oracle);
    daemon.shutdown();
}

#[test]
fn serve_check_exits_zero_live_and_one_dead() {
    let daemon = Daemon::start(&[]);
    let live = run(&["serve", "--check", &daemon.addr]);
    assert_eq!(live.status.code(), Some(0), "{live:?}");
    let addr = daemon.addr.clone();
    daemon.shutdown();

    // Same port, daemon gone: the probe must fail with a hard error.
    let dead = run(&["serve", "--check", &addr]);
    assert_eq!(dead.status.code(), Some(1), "{dead:?}");
}
