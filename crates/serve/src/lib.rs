//! SimPhony-Serve: a long-running exploration daemon.
//!
//! The CLI pays the full artifact-build cost (workload extraction,
//! accelerator construction) on every invocation. For interactive
//! workflows — a designer iterating on one configuration, a notebook
//! sweeping a few axes, a dashboard polling Pareto frontiers — that cold
//! start dominates. This crate keeps the expensive state resident:
//!
//! * a process-wide [`ArtifactStore`](simphony_explore::ArtifactStore)
//!   (LRU-bounded by entries *and* bytes) holds extracted workloads and
//!   built accelerators across requests and connections;
//! * an optional [`CacheBackend`](simphony_explore::CacheBackend) — by
//!   and large the packed segment store, whose in-memory index makes it a
//!   natural resident read store — is shared by every connection;
//! * sweep requests batch their points into shards through the same
//!   pipelined executor the CLI uses, so responses are **byte-identical**
//!   to the equivalent CLI invocation's `--jsonl` output.
//!
//! The wire protocol is newline-delimited JSON over TCP (see
//! [`protocol`]): the server greets with a version handshake, clients send
//! one request object per line, and responses stream back as bare record
//! lines (flushed per shard) terminated by a `summary` or `error` frame
//! whose `exit_code` mirrors the CLI contract (0 clean, 1 hard error,
//! 2 usage error, 3 recorded point failures).
//!
//! Admission control keeps the daemon responsive: a bounded global pending
//! count rejects excess work with a `server busy` error instead of queuing
//! unboundedly, per-request point budgets cap sweep size, and requests
//! larger than [`ServeConfig::bulk_threshold`] serialize on a bulk lane so
//! a million-point sweep cannot starve interactive `run` calls. A request
//! line longer than [`MAX_REQUEST_LINE_BYTES`] gets an exit-2 `error` frame
//! and its connection is closed, so one client cannot make the daemon buffer
//! an unbounded line; the close drains (without buffering) a bounded amount
//! of what the client is still sending, so the client reads the frame
//! instead of a connection reset.
//!
//! `simphony-cli serve` hosts the daemon; `simphony-cli serve --check`
//! runs [`check`] against one.
//!
//! The same daemon doubles as a **distributed-sweep worker**: the
//! `compute-shard` request computes one shard and streams back its part
//! (meta plus pre-rendered record lines), and [`distribute_sweep`] (the coordinator
//! behind `sweep --workers host:port,...`) fans a sweep's shards out over a
//! fleet of such daemons and merges the parts — strictly in expansion
//! order — into normal sinks, byte-identical to a local run at any worker
//! count. See [`dist`] for the fault model (shard re-dispatch deadlines,
//! transparent reconnects, first-landed-wins duplicate handling).
//!
//! # Example
//!
//! ```
//! use simphony_serve::{check, request, ServeConfig, Server};
//! use std::time::Duration;
//!
//! let config = ServeConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..ServeConfig::default()
//! };
//! let server = Server::start(config, None)?;
//! let addr = server.local_addr().to_string();
//!
//! check(&addr, Duration::from_secs(2))?;
//! let lines = request(&addr, "{\"kind\":\"cache-stats\"}", Duration::from_secs(2))?;
//! assert!(lines.first().is_some_and(|l| l.starts_with("{\"frame\":\"cache-stats\"")));
//!
//! server.shutdown();
//! server.join();
//! # Ok::<(), simphony_explore::ExploreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod protocol;
mod server;

pub use dist::{distribute_sweep, DistConfig, DEFAULT_SHARD_DEADLINE_MS};
pub use protocol::{
    parse_request, Request, RequestError, EXIT_HARD, EXIT_OK, EXIT_RECORDED_FAILURES, EXIT_USAGE,
    PROTOCOL_VERSION,
};
pub use server::{
    check, request, Client, ServeConfig, Server, DEFAULT_BULK_THRESHOLD, DEFAULT_MAX_PENDING,
    DEFAULT_MAX_POINTS, DEFAULT_SERVE_CHUNK, MAX_REQUEST_LINE_BYTES,
};
