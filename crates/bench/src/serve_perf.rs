//! Serve-load measurement: `factd` front-end throughput under hundreds
//! of concurrent connections.
//!
//! Where [`crate::search_perf`] measures the optimization engine, this
//! module measures the daemon's *connection front end*: an in-process
//! server is booted, a fleet of idle connections is opened and held (so
//! the front end really holds them all), and traffic threads
//! hammer it with a mixed request stream — mostly `ping`/`stats` (the
//! front end's own cost), with a cache-hot `optimize` and `pareto` job
//! sprinkled in so the worker handoff path is exercised too. Each pass
//! records client-observed latency percentiles and sustained
//! requests/sec; the `serve_perf` bench target runs one pass and
//! writes `BENCH_serve.json`.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use crate::client::{ClientError, RetryPolicy, RetryingClient};
use fact_serve::{parse, Server, ServerConfig, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Instant;

/// Shape of one measurement pass.
#[derive(Clone, Debug)]
pub struct PassConfig {
    /// Idle connections opened (and pinged once) before traffic starts,
    /// then held open for the whole pass.
    pub held_connections: usize,
    /// Concurrent traffic threads.
    pub traffic_threads: usize,
    /// Requests issued per traffic thread.
    pub requests_per_thread: usize,
    /// Server worker threads (jobs are cache-hot, so 1 suffices).
    pub workers: usize,
}

impl PassConfig {
    /// The standard full-measurement pass: 512 held connections, 4
    /// traffic threads × 250 requests.
    pub fn standard() -> PassConfig {
        PassConfig {
            held_connections: 512,
            traffic_threads: 4,
            requests_per_thread: 250,
            workers: 1,
        }
    }

    /// A CI-sized smoke pass: enough connections to mean something,
    /// small enough to finish in seconds on one core.
    pub fn smoke() -> PassConfig {
        PassConfig {
            held_connections: 64,
            traffic_threads: 2,
            requests_per_thread: 25,
            workers: 1,
        }
    }
}

/// Result of one measurement pass.
#[derive(Clone, Debug)]
pub struct PassResult {
    /// Idle connections actually held throughout the pass.
    pub held_connections: usize,
    /// Concurrent traffic threads.
    pub traffic_threads: usize,
    /// Requests issued (completed + errored).
    pub requests: usize,
    /// Requests answered with a terminal (non-overload) reply.
    pub completed: usize,
    /// Overload (`busy`/`shed`) replies absorbed by client retries.
    pub busy_retries: u64,
    /// Requests that failed outright (I/O or exhausted retries).
    pub errors: usize,
    /// Wall-clock time of the traffic phase, seconds.
    pub wall_s: f64,
    /// `completed / wall_s`.
    pub jobs_per_sec: f64,
    /// Median client-observed latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile client-observed latency, milliseconds.
    pub p99_ms: f64,
    /// Worst client-observed latency, milliseconds.
    pub max_ms: f64,
    /// The server's default per-job deadline (the latency budget the
    /// CI gate checks `p99_ms` against), milliseconds.
    pub timeout_budget_ms: u64,
    /// `connections_total` from the server's own STATS at pass end.
    pub connections_total: i64,
}

/// A small factorable job (the §5 idiom) for the traffic mix. One cold
/// run populates the shared evaluation cache; every later submission is
/// cache-served, keeping the measurement front-end-bound.
const TRAFFIC_SOURCE: &str = "proc f(n, a, b) { var s = 0; var i = 0; \
     while (i < n) { var t = s + 1; s = t * a + t * b; i = i + 1; } out s = s; }";

fn job_line(kind: &str, id: &str, extra: &[(&'static str, Value)]) -> String {
    let alloc = Value::object([
        ("a1", Value::Int(2)),
        ("mt1", Value::Int(1)),
        ("cp1", Value::Int(1)),
        ("i1", Value::Int(2)),
        ("sb1", Value::Int(1)),
    ]);
    let traces = Value::object([
        ("n", Value::Int(4)),
        ("seed", Value::Int(7)),
        (
            "inputs",
            Value::object([
                ("n", Value::object([("const", Value::Int(10))])),
                ("a", Value::object([("const", Value::Int(2))])),
                ("b", Value::object([("const", Value::Int(3))])),
            ]),
        ),
    ]);
    let mut req = vec![
        ("type", Value::Str(kind.into())),
        ("id", Value::Str(id.into())),
        ("source", Value::Str(TRAFFIC_SOURCE.into())),
        ("alloc", alloc),
        ("traces", traces),
        (
            "search",
            Value::object([("max_evaluations", Value::Int(40))]),
        ),
    ];
    req.extend(extra.iter().cloned());
    Value::object(req).to_json()
}

/// The request a traffic thread issues for its `i`-th slot: mostly
/// `ping`/`stats`, every 10th a cache-hot `optimize`, every 25th a
/// `pareto` — light enough that the front end, not the worker pool, is
/// the bottleneck being measured.
fn traffic_line(thread: usize, i: usize) -> String {
    if i % 25 == 24 {
        job_line(
            "pareto",
            &format!("t{thread}-r{i}"),
            &[
                ("archive_capacity", Value::Int(8)),
                ("vdd_steps", Value::Int(4)),
            ],
        )
    } else if i % 10 == 9 {
        job_line("optimize", &format!("t{thread}-r{i}"), &[])
    } else if i.is_multiple_of(3) {
        "{\"type\":\"stats\"}".to_string()
    } else {
        "{\"type\":\"ping\"}".to_string()
    }
}

/// Latency at quantile `q` (0..=1) of an unsorted sample, milliseconds.
/// Returns 0 for an empty sample.
pub fn percentile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

fn ping_roundtrip(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"{\"type\":\"ping\"}\n")?;
    let mut reply = String::new();
    BufReader::new(stream.try_clone()?).read_line(&mut reply)?;
    if reply.trim() != "{\"type\":\"pong\"}" {
        return Err(std::io::Error::other(format!("bad pong: {reply:?}")));
    }
    Ok(())
}

fn stats_roundtrip(addr: SocketAddr) -> Option<Value> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.write_all(b"{\"type\":\"stats\"}\n").ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    parse(reply.trim()).ok()
}

/// Boots an in-process server, holds the idle connection fleet, runs
/// the traffic threads, and collects the result.
///
/// # Panics
///
/// Panics if the server cannot bind or fewer than the configured held
/// connections can be established — a partial fleet would silently
/// measure a different experiment than the one reported.
pub fn run_pass(cfg: &PassConfig) -> PassResult {
    let timeout_budget_ms = ServerConfig::default().default_timeout_ms;
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: cfg.workers.max(1),
        stats_interval_s: 0,
        log: false,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().unwrap());

    // Warm the evaluation cache so in-traffic jobs are cache-served and
    // the pass measures the front end, not one cold compile.
    let mut warm = RetryingClient::new(addr, RetryPolicy::default());
    warm.request(&job_line("optimize", "warm-opt", &[]))
        .expect("warmup optimize");
    warm.request(&job_line(
        "pareto",
        "warm-par",
        &[
            ("archive_capacity", Value::Int(8)),
            ("vdd_steps", Value::Int(4)),
        ],
    ))
    .expect("warmup pareto");

    // The held fleet: connect, prove each one live with a ping, keep it.
    let mut held: Vec<TcpStream> = Vec::with_capacity(cfg.held_connections);
    for i in 0..cfg.held_connections {
        let mut stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("held connection {i}/{}: {e}", cfg.held_connections));
        ping_roundtrip(&mut stream).unwrap_or_else(|e| panic!("held connection {i} ping: {e}"));
        held.push(stream);
    }

    // Traffic: each thread drives its own retrying client through the
    // mixed request stream, timing every exchange.
    let t0 = Instant::now();
    let threads: Vec<_> = (0..cfg.traffic_threads)
        .map(|t| {
            let n = cfg.requests_per_thread;
            thread::spawn(move || {
                let mut client = RetryingClient::new(
                    addr,
                    RetryPolicy {
                        seed: t as u64 + 1,
                        ..RetryPolicy::default()
                    },
                );
                let mut latencies_ms = Vec::with_capacity(n);
                let mut busy_retries = 0u64;
                let mut errors = 0usize;
                for i in 0..n {
                    let line = traffic_line(t, i);
                    let started = Instant::now();
                    match client.request(&line) {
                        Ok(x) => {
                            latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
                            busy_retries += (x.attempts - 1) as u64;
                        }
                        Err(ClientError::Exhausted { attempts }) => {
                            busy_retries += attempts as u64;
                            errors += 1;
                        }
                        Err(_) => errors += 1,
                    }
                }
                (latencies_ms, busy_retries, errors)
            })
        })
        .collect();
    let mut latencies_ms = Vec::new();
    let mut busy_retries = 0u64;
    let mut errors = 0usize;
    for t in threads {
        let (lat, busy, errs) = t.join().expect("traffic thread");
        latencies_ms.extend(lat);
        busy_retries += busy;
        errors += errs;
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let connections_total = stats_roundtrip(addr)
        .and_then(|s| s.get("connections_total").and_then(Value::as_i64))
        .unwrap_or(0);

    // Release the fleet before shutdown so its connection threads see
    // EOF from the clients rather than from the drain.
    drop(held);
    handle.shutdown();
    join.join().expect("server thread");

    let completed = latencies_ms.len();
    PassResult {
        held_connections: cfg.held_connections,
        traffic_threads: cfg.traffic_threads,
        requests: cfg.traffic_threads * cfg.requests_per_thread,
        completed,
        busy_retries,
        errors,
        wall_s,
        jobs_per_sec: if wall_s > 0.0 {
            completed as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        max_ms: percentile_ms(&latencies_ms, 1.0),
        timeout_budget_ms,
        connections_total,
    }
}

/// Renders measurement passes as a JSON document.
pub fn to_json(passes: &[PassResult]) -> String {
    let mut out = String::from("{\n  \"bench\": \"serve\",\n  \"passes\": [\n");
    for (i, p) in passes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"held_connections\": {}, \"traffic_threads\": {}, \
             \"requests\": {}, \"completed\": {}, \"busy_retries\": {}, \"errors\": {}, \
             \"wall_s\": {:.4}, \"jobs_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"max_ms\": {:.3}, \"timeout_budget_ms\": {}, \"connections_total\": {}}}{}\n",
            p.held_connections,
            p.traffic_threads,
            p.requests,
            p.completed,
            p.busy_retries,
            p.errors,
            p.wall_s,
            p.jobs_per_sec,
            p.p50_ms,
            p.p99_ms,
            p.max_ms,
            p.timeout_budget_ms,
            p.connections_total,
            if i + 1 < passes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_the_right_sample() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile_ms(&samples, 0.0), 1.0);
        assert_eq!(percentile_ms(&samples, 0.5), 51.0);
        assert_eq!(percentile_ms(&samples, 0.99), 99.0);
        assert_eq!(percentile_ms(&samples, 1.0), 100.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
    }

    #[test]
    fn tiny_pass_produces_sane_numbers() {
        let cfg = PassConfig {
            held_connections: 8,
            traffic_threads: 2,
            requests_per_thread: 13,
            workers: 1,
        };
        let p = run_pass(&cfg);
        assert_eq!(p.requests, 26);
        assert_eq!(p.completed + p.errors, 26);
        assert_eq!(p.errors, 0, "no traffic request should fail outright");
        assert!(p.wall_s > 0.0);
        assert!(p.jobs_per_sec > 0.0);
        assert!(p.p50_ms <= p.p99_ms && p.p99_ms <= p.max_ms);
        assert!(p.connections_total >= 8);
        let json = to_json(&[p]);
        assert!(json.contains("\"bench\": \"serve\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
