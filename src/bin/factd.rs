//! `factd` — the FACT optimization daemon.
//!
//! Accepts optimization jobs (behavioral source, allocation, objective,
//! trace spec) over a newline-delimited JSON TCP protocol, runs them on
//! a worker pool with a shared evaluation cache, and answers with the
//! optimized IR, schedule statistics, and the applied-transformation
//! path. See `docs/SERVER.md` for the protocol.
//!
//! ```console
//! $ factd --addr 127.0.0.1:7348 --workers 4 --timeout-ms 60000
//! ```

use fact_serve::{install_signal_flag, FaultSpec, Server, ServerConfig};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const USAGE: &str = "\
factd — FACT optimization daemon (newline-delimited JSON over TCP)

USAGE:
    factd [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>    bind address (default 127.0.0.1:7348; port 0
                          picks an ephemeral port, printed on startup)
    --workers <N>         worker threads (default: available cores)
    --queue <N>           job queue capacity; beyond it jobs are rejected
                          with a `busy` error (default 64)
    --timeout-ms <N>      default per-job deadline in milliseconds, used
                          when a job sets no `timeout_ms` (default 120000)
    --cache-shards <N>    evaluation-cache shard count (default 16)
    --stats-every <SECS>  seconds between stats log lines; 0 disables
                          (default 30)
    --cache-file <PATH>   persist the evaluation cache to PATH: loaded at
                          startup (warm start), saved atomically at
                          shutdown (default: memory-only)
    --cache-snapshot-every <SECS>
                          also snapshot the cache every SECS seconds;
                          0 saves only at shutdown (default 0)
    --faults <SPEC>       arm deterministic fault injection for chaos
                          testing, e.g. `seed=42,panic=0.1,kill=0.05:2`
                          (keys: seed, panic, kill, slow, slow_ms, io,
                          corrupt; also read from FACTD_FAULTS)
    --max-conns <N>       max simultaneously open connections; excess
                          accepts are closed (default 4096)
    --idle-timeout <SECS> close a connection that sends no request, or
                          reads no reply, for this long; 0 disables
                          (default 300)
    --quiet               suppress log lines on stderr
    -h, --help            print this help

Stop with SIGINT/SIGTERM or a {\"type\":\"shutdown\"} request; in-flight
jobs wind down and reply with their best-so-far.
";

fn parse_args(argv: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut grab = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        let num = |what: &str, v: String| -> Result<u64, String> {
            v.parse().map_err(|e| format!("bad {what}: {e}"))
        };
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => config.addr = grab("--addr")?,
            "--workers" => config.workers = num("--workers", grab("--workers")?)?.max(1) as usize,
            "--queue" => config.queue_capacity = num("--queue", grab("--queue")?)?.max(1) as usize,
            "--timeout-ms" => {
                config.default_timeout_ms = num("--timeout-ms", grab("--timeout-ms")?)?.max(1)
            }
            "--cache-shards" => {
                config.cache_shards =
                    num("--cache-shards", grab("--cache-shards")?)?.max(1) as usize
            }
            "--stats-every" => {
                config.stats_interval_s = num("--stats-every", grab("--stats-every")?)?
            }
            "--cache-file" => config.cache_file = Some(grab("--cache-file")?),
            "--cache-snapshot-every" => {
                config.cache_snapshot_every_s =
                    num("--cache-snapshot-every", grab("--cache-snapshot-every")?)?
            }
            "--faults" => config.faults = FaultSpec::parse(&grab("--faults")?)?,
            "--max-conns" => {
                config.max_connections = num("--max-conns", grab("--max-conns")?)?.max(1) as usize
            }
            "--idle-timeout" => {
                config.idle_timeout_s = num("--idle-timeout", grab("--idle-timeout")?)?
            }
            "--quiet" => config.log = false,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // The env var arms faults too (handy for chaos runs of a deployed
    // binary), but an explicit --faults flag wins.
    if !config.faults.is_armed() {
        if let Some(spec) = FaultSpec::from_env()? {
            config.faults = spec;
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&argv) {
        Ok(c) => c,
        Err(msg) => {
            return if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            };
        }
    };
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Graceful shutdown on SIGINT/SIGTERM: the C handler only raises a
    // flag; this monitor thread does the actual wind-down.
    let handle = server.handle();
    let signalled = install_signal_flag();
    std::thread::spawn(move || loop {
        if signalled.load(Ordering::SeqCst) {
            handle.shutdown();
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    });

    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServerConfig, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_overrides() {
        let c = parse(&[]).unwrap();
        assert_eq!(c.addr, "127.0.0.1:7348");
        assert_eq!(c.queue_capacity, 64);
        let c = parse(&[
            "--addr",
            "0.0.0.0:0",
            "--workers",
            "3",
            "--queue",
            "10",
            "--timeout-ms",
            "500",
            "--cache-shards",
            "4",
            "--stats-every",
            "0",
            "--cache-file",
            "/tmp/fact-cache.bin",
            "--cache-snapshot-every",
            "15",
            "--faults",
            "seed=9,panic=0.5:2",
            "--max-conns",
            "100",
            "--idle-timeout",
            "7",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(c.addr, "0.0.0.0:0");
        assert_eq!(c.workers, 3);
        assert_eq!(c.queue_capacity, 10);
        assert_eq!(c.default_timeout_ms, 500);
        assert_eq!(c.cache_shards, 4);
        assert_eq!(c.stats_interval_s, 0);
        assert_eq!(c.cache_file.as_deref(), Some("/tmp/fact-cache.bin"));
        assert_eq!(c.cache_snapshot_every_s, 15);
        assert!(c.faults.is_armed());
        assert_eq!(c.faults.seed, 9);
        assert_eq!(c.max_connections, 100);
        assert_eq!(c.idle_timeout_s, 7);
        assert!(!c.log);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--workers"]).is_err());
        assert!(parse(&["--workers", "many"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--faults", "panic=2.0"]).is_err());
        // Retired front-end flags are unknown arguments now.
        assert!(parse(&["--io-model", "threads"]).is_err());
        assert!(parse(&["--max-outbox-bytes", "4096"]).is_err());
        assert!(parse(&["--max-conns", "lots"]).is_err());
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
    }
}
