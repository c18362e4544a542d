//! The served side: a `factd` server in a child process, and the
//! closed-loop clients that drive it over loopback TCP.

use crate::workload::{Kind, Plan, Request};
use fact_serve::{parse, Server, ServerConfig, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads of the served `factd`.
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Submission attempts per request before a `busy`/`shed` reply counts
/// as a failure.
const MAX_ATTEMPTS: u32 = 5;
/// A reply slower than this counts as a failed request.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs `factd`'s server in this process until a `shutdown` request or
/// until stdin closes (the parent benchmark exited). Prints the bound
/// address as the first stdout line.
pub fn serve_main() -> io::Result<()> {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        stats_interval_s: 0,
        log: false,
        default_timeout_ms: 170_000,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?;
    let handle = server.handle();
    thread::spawn(move || {
        // EOF (or an error) on stdin means the parent is gone.
        let _ = io::stdin().read_to_end(&mut Vec::new());
        handle.shutdown();
    });
    let mut out = io::stdout().lock();
    writeln!(out, "listening {addr}")?;
    out.flush()?;
    drop(out);
    server.run()
}

/// A `factd` server running in a child process of the benchmark.
pub struct ServerChild {
    child: Child,
    /// Held open so the child sees EOF if the benchmark dies.
    _stdin: ChildStdin,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts the server and waits until it answers a ping.
    pub fn spawn() -> io::Result<ServerChild> {
        let exe = std::env::current_exe()?;
        let mut child = Command::new(exe)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut first = String::new();
        BufReader::new(stdout).read_line(&mut first)?;
        let addr = first
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!("server did not start: {first:?}")));
        };
        let server = ServerChild {
            child,
            _stdin: stdin,
            addr,
        };
        let reply = Conn::open(addr)?.exchange(r#"{"type":"ping"}"#)?;
        if reply.get("type").and_then(Value::as_str) != Some("pong") {
            return Err(io::Error::other("server did not answer ping"));
        }
        Ok(server)
    }

    /// Peak resident set of the server process, MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the server to shut down and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::open(self.addr).and_then(|mut c| c.exchange(r#"{"type":"shutdown"}"#));
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait()? {
                asked?;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("server exited with {status}")))
                };
            }
            thread::sleep(Duration::from_millis(5));
        }
        Err(io::Error::other("server did not exit after shutdown"))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its reply line.
    pub fn exchange(&mut self, line: &str) -> io::Result<Value> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("connection closed before the reply"));
        }
        parse(reply.trim()).map_err(|e| io::Error::other(format!("bad reply: {e}")))
    }
}

/// The client-side record of one request.
#[derive(Debug)]
pub struct Outcome {
    /// Position in the sequence.
    pub index: usize,
    /// Request kind.
    pub kind: Kind,
    /// Send of the first attempt to the final reply.
    pub latency: Duration,
    /// The final reply, or why there is none.
    pub reply: Result<Value, String>,
    /// `busy`/`shed` bounces before the final reply.
    pub retries: u32,
    /// When the final reply arrived, from the start of the window.
    pub done_at: Duration,
}

fn overload_hint(reply: &Value) -> Option<u64> {
    let code = reply.get("error").and_then(Value::as_str)?;
    matches!(code, "busy" | "shed").then(|| {
        reply
            .get("retry_after_ms")
            .and_then(Value::as_i64)
            .map_or(10, |ms| ms.clamp(1, 1000) as u64)
    })
}

fn send(conn: &mut Conn, req: &Request, start: Instant) -> Outcome {
    let t0 = Instant::now();
    let mut retries = 0;
    let reply = loop {
        match conn.exchange(&req.line) {
            Ok(v) => match overload_hint(&v) {
                Some(ms) if retries + 1 < MAX_ATTEMPTS => {
                    retries += 1;
                    thread::sleep(Duration::from_millis(ms));
                }
                Some(_) => break Err("still overloaded after retries".to_string()),
                None => break Ok(v),
            },
            Err(e) => break Err(e.to_string()),
        }
    };
    Outcome {
        index: req.index,
        kind: req.kind,
        latency: t0.elapsed(),
        reply,
        retries,
        done_at: start.elapsed(),
    }
}

/// Drives `addr` with [`CLIENTS`] closed-loop connections. Each client
/// takes the next sequence index, sends it, and waits for the reply
/// before taking another. Once `duration` has passed, the first client
/// to notice fixes the end of the window at the next multiple of
/// `granule` (at least one granule), so a window always holds whole
/// granules of the sequence and its job mix does not depend on where the
/// clock ran out; a request already sent is always waited for.
/// `requests` maps an index to its request. `probe`, if given, is called
/// once, right after the `probe.0`-th reply arrives.
pub fn drive(
    addr: SocketAddr,
    requests: &(dyn Fn(usize) -> Request + Sync),
    duration: Duration,
    granule: usize,
    probe: Option<(usize, &(dyn Fn() + Sync))>,
) -> io::Result<Vec<Outcome>> {
    let granule = granule.max(1);
    let next = AtomicUsize::new(0);
    let limit = AtomicUsize::new(usize::MAX);
    let outcomes = Mutex::new(Vec::new());
    let mut conns = (0..CLIENTS)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let start = Instant::now();
    thread::scope(|s| {
        for conn in &mut conns {
            let (next, limit, outcomes) = (&next, &limit, &outcomes);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if start.elapsed() >= duration && limit.load(Ordering::SeqCst) == usize::MAX {
                    // Every index taken so far is below `end`.
                    let taken = next.load(Ordering::SeqCst);
                    let end = taken.div_ceil(granule).max(1) * granule;
                    let _ =
                        limit.compare_exchange(usize::MAX, end, Ordering::SeqCst, Ordering::SeqCst);
                }
                if i >= limit.load(Ordering::SeqCst) {
                    return;
                }
                let outcome = send(conn, &requests(i), start);
                let mut done = outcomes
                    .lock()
                    .expect("no client panics while holding the outcome list");
                done.push(outcome);
                if let Some((at, probe)) = probe {
                    if done.len() == at {
                        probe();
                    }
                }
            });
        }
    });
    let mut outcomes = outcomes.into_inner().expect("clients have exited");
    outcomes.sort_by_key(|o| o.index);
    Ok(outcomes)
}

/// Median round trip of `n` sequential pings on one connection, ms.
pub fn ping_p50_ms(addr: SocketAddr, n: usize) -> io::Result<f64> {
    let mut conn = Conn::open(addr)?;
    let mut samples = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        conn.exchange(r#"{"type":"ping"}"#)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&mut samples))
}

/// Runs every request of `plan` whose index is in `indices` once, one
/// after another on one connection, and checks each came back without an
/// error — how serve-warm's setup fills the server's cache. Sequential, so
/// the fill time is the sum of the jobs' times and does not depend on how
/// two clients would split the long jobs between them.
pub fn fill(addr: SocketAddr, plan: &Plan, indices: &[usize]) -> io::Result<()> {
    let mut conn = Conn::open(addr)?;
    let start = Instant::now();
    for &i in indices {
        let o = send(&mut conn, &plan.request(i), start);
        match &o.reply {
            Ok(v) if v.get("type").and_then(Value::as_str) != Some("error") => {}
            Ok(v) => {
                return Err(io::Error::other(format!(
                    "fill job failed: {}",
                    v.to_json()
                )))
            }
            Err(e) => return Err(io::Error::other(format!("fill job failed: {e}"))),
        }
    }
    Ok(())
}
