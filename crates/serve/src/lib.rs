//! # fact-serve — the `factd` optimization daemon
//!
//! Serves FACT optimization jobs over a std-only TCP line protocol:
//! newline-delimited JSON requests and replies (see `docs/SERVER.md`).
//! Jobs run on a worker pool with a bounded queue (a full queue rejects
//! with `busy` — backpressure), per-job timeouts with best-so-far
//! wind-down, and a shared [`fact_core::EvalCache`] that memoizes
//! candidate evaluations within and across jobs.
//!
//! The crate is pure `std`: the JSON codec is in [`json`], the request
//! schema in [`protocol`], job execution in [`job`], and the daemon
//! itself in [`server`]. The connection front end is one thread per
//! client, on every platform.
//!
//! # Examples
//!
//! Boot a daemon on an ephemeral port and ping it:
//!
//! ```
//! use fact_serve::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(),
//!     stats_interval_s: 0,
//!     log: false,
//!     ..ServerConfig::default()
//! })?;
//! let addr = server.local_addr()?;
//! let handle = server.handle();
//! let join = std::thread::spawn(move || server.run());
//!
//! let mut conn = std::net::TcpStream::connect(addr)?;
//! conn.write_all(b"{\"type\":\"ping\"}\n")?;
//! let mut reply = String::new();
//! BufReader::new(conn).read_line(&mut reply)?;
//! assert_eq!(reply.trim(), "{\"type\":\"pong\"}");
//!
//! handle.shutdown();
//! join.join().unwrap()?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod job;
pub mod json;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;

pub use faults::{FaultPlan, FaultRate, FaultSpec, FaultyWriter, NetFault};
pub use job::{run_job, JobError};
pub use json::{parse, Value};
pub use protocol::{decode_request, OptimizeRequest, Request, TracesSpec};
pub use queue::{JobQueue, PushError};
pub use server::{install_signal_flag, Server, ServerConfig, ServerHandle};
pub use stats::ServerStats;
