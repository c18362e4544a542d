//! End-to-end test of the `factd` daemon: boots a server on an
//! ephemeral port, submits concurrent optimization jobs from the §5
//! suite over real TCP connections, and checks timeouts, backpressure
//! stats, and cross-job cache sharing.

use fact_serve::{parse, Server, ServerConfig, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;

fn start_server(workers: usize) -> (SocketAddr, fact_serve::ServerHandle, thread::JoinHandle<()>) {
    start_server_with(|c| c.workers = workers)
}

fn start_server_with(
    tweak: impl FnOnce(&mut ServerConfig),
) -> (SocketAddr, fact_serve::ServerHandle, thread::JoinHandle<()>) {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        default_timeout_ms: 120_000,
        cache_shards: 8,
        stats_interval_s: 0,
        log: false,
        ..ServerConfig::default()
    };
    tweak(&mut config);
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().unwrap());
    (addr, handle, join)
}

fn roundtrip(addr: SocketAddr, line: &str) -> Value {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    parse(reply.trim()).expect("reply is one line of JSON")
}

/// A §5-style job as a one-line protocol request (the wire format is
/// newline-delimited, so the request must not contain newlines — the
/// compact JSON writer guarantees that).
fn job_line(
    id: &str,
    source: &str,
    alloc: &[(&str, i64)],
    extra: &[(&'static str, Value)],
) -> String {
    request_line("optimize", id, source, alloc, extra)
}

/// Like [`job_line`] but with an explicit request type (`optimize` or
/// `pareto` — both share the job envelope).
fn request_line(
    kind: &str,
    id: &str,
    source: &str,
    alloc: &[(&str, i64)],
    extra: &[(&'static str, Value)],
) -> String {
    let alloc = Value::Object(
        alloc
            .iter()
            .map(|(u, n)| (u.to_string(), Value::Int(*n)))
            .collect(),
    );
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
        ("source", Value::Str(source.into())),
        ("alloc", alloc),
        ("traces", traces),
        (
            "search",
            Value::object([("max_evaluations", Value::Int(60))]),
        ),
    ];
    req.extend(extra.iter().cloned());
    Value::object(req).to_json()
}

/// The factorable-loop behavior the FACT search reliably improves
/// (distributivity: `t*a + t*b → t*(a+b)` frees a multiplier cycle).
const FACTORABLE: &str = "proc f(n, a, b) { var s = 0; var i = 0; \
     while (i < n) { var t = s + 1; s = t * a + t * b; i = i + 1; } out s = s; }";

const ALLOC: &[(&str, i64)] = &[("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 2), ("sb1", 1)];

#[test]
fn serves_three_concurrent_jobs_and_shares_the_cache() {
    let (addr, handle, join) = start_server(2);

    // Three concurrent clients, same §5-style job under different ids.
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let line = job_line(&format!("job{i}"), FACTORABLE, ALLOC, &[]);
            thread::spawn(move || roundtrip(addr, &line))
        })
        .collect();
    let replies: Vec<Value> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(
            reply.get("type").and_then(Value::as_str),
            Some("result"),
            "job{i} reply: {}",
            reply.to_json()
        );
        assert_eq!(reply.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            reply.get("id").and_then(Value::as_str),
            Some(format!("job{i}").as_str())
        );
        assert!(reply.get("evaluated").unwrap().as_i64().unwrap() > 0);
        let base = reply.get("baseline").unwrap().get("cycles").unwrap();
        let opt = reply.get("optimized").unwrap().get("cycles").unwrap();
        assert!(opt.as_f64().unwrap() <= base.as_f64().unwrap());
    }
    // Identical jobs must land on identical transformation paths
    // regardless of which worker ran them (determinism over the wire).
    let applied: Vec<String> = replies
        .iter()
        .map(|r| r.get("applied").unwrap().to_json())
        .collect();
    assert_eq!(applied[0], applied[1]);
    assert_eq!(applied[0], applied[2]);

    // A repeat of the same job is answered from the shared cache.
    let repeat = roundtrip(addr, &job_line("again", FACTORABLE, ALLOC, &[]));
    assert_eq!(repeat.get("status").and_then(Value::as_str), Some("ok"));
    let hits = repeat.get("cache_hits").unwrap().as_i64().unwrap();
    let evals = repeat.get("evaluated").unwrap().as_i64().unwrap();
    assert_eq!(hits, evals, "warm job should be fully cache-served");

    let stats = roundtrip(addr, r#"{"type":"stats"}"#);
    assert_eq!(stats.get("jobs_submitted").unwrap().as_i64(), Some(4));
    assert_eq!(stats.get("jobs_completed").unwrap().as_i64(), Some(4));
    assert!(
        stats.get("cache_hit_rate").unwrap().as_f64().unwrap() > 0.0,
        "stats: {}",
        stats.to_json()
    );
    assert!(stats.get("cache_entries").unwrap().as_i64().unwrap() > 0);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn per_job_timeout_returns_best_so_far() {
    let (addr, handle, join) = start_server(1);
    // A 1 ms deadline on a huge search budget: the deadline fires first
    // and the reply must come back promptly with status "timeout".
    let line = job_line(
        "deadline",
        FACTORABLE,
        ALLOC,
        &[
            (
                "search",
                Value::object([
                    ("max_evaluations", Value::Int(100_000)),
                    ("max_rounds", Value::Int(100_000)),
                    ("max_moves", Value::Int(50)),
                ]),
            ),
            ("timeout_ms", Value::Int(1)),
        ],
    );
    let started = std::time::Instant::now();
    let reply = roundtrip(addr, &line);
    assert!(
        started.elapsed().as_secs() < 15,
        "timeout reply took {:?}",
        started.elapsed()
    );
    match reply.get("type").and_then(Value::as_str) {
        // Wind-down path: partial result, explicitly marked.
        Some("result") => {
            assert_eq!(reply.get("status").and_then(Value::as_str), Some("timeout"));
            assert_eq!(reply.get("stopped").and_then(Value::as_bool), Some(true));
        }
        // The job was cut before producing anything.
        Some("error") => {
            assert_eq!(reply.get("error").and_then(Value::as_str), Some("timeout"));
        }
        other => panic!("unexpected reply type {other:?}: {}", reply.to_json()),
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn pareto_job_returns_the_full_curve_and_shows_in_stats() {
    let (addr, handle, join) = start_server(2);

    let line = request_line(
        "pareto",
        "curve",
        FACTORABLE,
        ALLOC,
        &[
            ("archive_capacity", Value::Int(16)),
            ("vdd_steps", Value::Int(6)),
        ],
    );
    let reply = roundtrip(addr, &line);
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("pareto_result"),
        "reply: {}",
        reply.to_json()
    );
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("curve"));
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("ok"));
    let frontier = match reply.get("frontier").unwrap() {
        Value::Array(a) => a,
        other => panic!("frontier must be an array, got {other:?}"),
    };
    assert!(!frontier.is_empty());
    assert!(reply.get("archive_len").unwrap().as_i64().unwrap() >= 1);
    // The curve is a nondominated set sorted by latency: energy must
    // strictly fall as latency rises.
    for pair in frontier.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let lat = |p: &Value| p.get("latency_cycles").unwrap().as_f64().unwrap();
        let en = |p: &Value| p.get("energy").unwrap().as_f64().unwrap();
        assert!(lat(a) <= lat(b));
        assert!(en(a) >= en(b));
    }
    for p in frontier {
        let vdd = p.get("vdd").unwrap().as_f64().unwrap();
        assert!(vdd > 1.0 && vdd <= 5.0 + 1e-12, "vdd {vdd} out of range");
        assert!(p.get("power").unwrap().as_f64().unwrap() > 0.0);
    }

    // An optimize job alongside, then both kinds show in the counters.
    let opt = roundtrip(addr, &job_line("plain", FACTORABLE, ALLOC, &[]));
    assert_eq!(opt.get("status").and_then(Value::as_str), Some("ok"));

    let stats = roundtrip(addr, r#"{"type":"stats"}"#);
    assert_eq!(stats.get("pareto_jobs").unwrap().as_i64(), Some(1));
    assert_eq!(stats.get("optimize_jobs").unwrap().as_i64(), Some(1));
    assert_eq!(
        stats.get("pareto_points").unwrap().as_i64(),
        Some(frontier.len() as i64),
        "stats: {}",
        stats.to_json()
    );

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_during_inflight_job_drains_with_best_so_far() {
    // An injected 4 s evaluation delay holds the job in-flight past the
    // shutdown below, deterministically — a plain search could converge
    // before shutdown lands and reply "ok" instead of draining.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        stats_interval_s: 0,
        log: false,
        faults: fact_serve::FaultSpec::parse("seed=1,slow=1,slow_ms=4000").unwrap(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run().unwrap());

    let line = job_line("inflight", FACTORABLE, ALLOC, &[]);
    let client = thread::spawn(move || roundtrip(addr, &line));
    // Let the worker pick the job up, then shut down mid-flight (the
    // SIGTERM path in factd calls exactly this handle method).
    thread::sleep(std::time::Duration::from_millis(500));
    let started = std::time::Instant::now();
    handle.shutdown();
    let reply = client.join().unwrap();
    assert!(
        started.elapsed().as_secs() < 15,
        "drain took {:?}",
        started.elapsed()
    );
    // The in-flight job winds down and delivers its best-so-far,
    // explicitly marked — the client is never left hanging.
    assert_eq!(
        reply.get("type").and_then(Value::as_str),
        Some("result"),
        "reply: {}",
        reply.to_json()
    );
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("timeout"));
    assert_eq!(reply.get("stopped").and_then(Value::as_bool), Some(true));
    join.join().unwrap();
    // The listener is gone: new connections are refused (or reset
    // before a reply arrives).
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"{\"type\":\"ping\"}\n").is_err() || {
                let mut reply = String::new();
                BufReader::new(s).read_line(&mut reply).unwrap_or(0) == 0
            }
        }
    );
}

#[test]
fn bad_jobs_get_error_replies_not_disconnects() {
    let (addr, handle, join) = start_server(1);
    // One connection, several requests in sequence.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> Value {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim()).unwrap()
    };

    assert_eq!(
        ask(r#"{"type":"ping"}"#)
            .get("type")
            .and_then(Value::as_str),
        Some("pong")
    );
    let bad_compile = ask(&job_line("c", "proc f( {", ALLOC, &[]));
    assert_eq!(
        bad_compile.get("error").and_then(Value::as_str),
        Some("compile")
    );
    let bad_alloc = ask(&job_line("a", FACTORABLE, &[("warp9", 1)], &[]));
    assert_eq!(
        bad_alloc.get("error").and_then(Value::as_str),
        Some("alloc")
    );
    // The connection is still usable after both errors.
    assert_eq!(
        ask(r#"{"type":"ping"}"#)
            .get("type")
            .and_then(Value::as_str),
        Some("pong")
    );
    let stats = ask(r#"{"type":"stats"}"#);
    assert_eq!(stats.get("jobs_failed").unwrap().as_i64(), Some(2));

    handle.shutdown();
    join.join().unwrap();
}

/// A request dribbled in one byte (then seven bytes) at a time must be
/// reassembled exactly as if it arrived in one segment: the framing
/// layer buffers until the newline.
#[test]
fn fragmented_requests_are_reassembled() {
    let (addr, handle, join) = start_server(1);
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    for b in b"{\"type\":\"ping\"}\n" {
        stream.write_all(&[*b]).unwrap();
        thread::sleep(std::time::Duration::from_millis(1));
    }
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        parse(reply.trim())
            .unwrap()
            .get("type")
            .and_then(Value::as_str),
        Some("pong")
    );

    // A whole optimize job in 7-byte fragments works the same way.
    let line = job_line("dribble", FACTORABLE, ALLOC, &[]);
    for chunk in line.as_bytes().chunks(7) {
        stream.write_all(chunk).unwrap();
        thread::sleep(std::time::Duration::from_millis(1));
    }
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let reply = parse(reply.trim()).unwrap();
    assert_eq!(reply.get("id").and_then(Value::as_str), Some("dribble"));
    assert_eq!(reply.get("status").and_then(Value::as_str), Some("ok"));

    handle.shutdown();
    join.join().unwrap();
}

/// The opposite fragmentation failure: several requests coalesced into
/// one TCP segment. Replies must come back one per request, in request
/// order (the protocol runs at most one job per connection at a time).
#[test]
fn pipelined_requests_in_one_segment_reply_in_order() {
    let (addr, handle, join) = start_server(1);
    let mut stream = TcpStream::connect(addr).unwrap();
    let batch = format!(
        "{}\n{}\n{}\n",
        r#"{"type":"ping"}"#,
        job_line("first", FACTORABLE, ALLOC, &[]),
        job_line("second", FACTORABLE, ALLOC, &[]),
    );
    stream.write_all(batch.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut next = || {
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim()).expect("one JSON reply per request")
    };
    assert_eq!(next().get("type").and_then(Value::as_str), Some("pong"));
    let first = next();
    assert_eq!(first.get("id").and_then(Value::as_str), Some("first"));
    assert_eq!(first.get("status").and_then(Value::as_str), Some("ok"));
    let second = next();
    assert_eq!(second.get("id").and_then(Value::as_str), Some("second"));
    assert_eq!(second.get("status").and_then(Value::as_str), Some("ok"));

    handle.shutdown();
    join.join().unwrap();
}

/// A request nested far past the parser's depth cap (about 1 MB of `[`)
/// is a `parse` error on a live connection, not a stack overflow that
/// takes the daemon down with it.
#[test]
fn deeply_nested_requests_are_parse_errors() {
    let (addr, handle, join) = start_server(1);
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> Value {
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        parse(reply.trim()).unwrap()
    };
    let nested = ask(&"[".repeat(1 << 20));
    assert_eq!(
        nested.get("error").and_then(Value::as_str),
        Some("parse"),
        "reply: {}",
        nested.to_json()
    );
    assert_eq!(
        ask(r#"{"type":"ping"}"#)
            .get("type")
            .and_then(Value::as_str),
        Some("pong")
    );
    handle.shutdown();
    join.join().unwrap();
}

/// Connection lifecycle policy: connection counters in STATS, idle
/// reaping, slow-client disconnects, the max-connections cap, the
/// request-line cap, and the shutdown drain.
mod event_loop_lifecycle {
    use super::*;
    use std::io::Read;
    use std::time::{Duration, Instant};

    fn counter(stats: &Value, key: &str) -> i64 {
        stats
            .get(key)
            .unwrap_or_else(|| panic!("stats missing `{key}`: {}", stats.to_json()))
            .as_i64()
            .unwrap()
    }

    /// Polls STATS over fresh connections until `key` reaches `want`
    /// (lifecycle events land asynchronously with the client's view).
    fn await_counter(addr: SocketAddr, key: &str, want: i64) -> i64 {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let got = counter(&roundtrip(addr, r#"{"type":"stats"}"#), key);
            if got >= want || Instant::now() > deadline {
                return got;
            }
            thread::sleep(Duration::from_millis(100));
        }
    }

    #[test]
    fn stats_report_connection_counters() {
        let (addr, handle, join) = start_server(1);
        // A held connection plus the short-lived stats connection below.
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"{\"type\":\"ping\"}\n").unwrap();
        let mut reply = String::new();
        BufReader::new(held.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();

        let stats = roundtrip(addr, r#"{"type":"stats"}"#);
        assert!(counter(&stats, "connections_total") >= 2);
        assert!(counter(&stats, "connections_open") >= 1);
        assert_eq!(counter(&stats, "idle_disconnects"), 0);
        assert_eq!(counter(&stats, "slow_client_disconnects"), 0);

        drop(held);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let (addr, handle, join) = start_server_with(|c| c.idle_timeout_s = 1);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"type\":\"ping\"}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(
            parse(reply.trim())
                .unwrap()
                .get("type")
                .and_then(Value::as_str),
            Some("pong")
        );

        // Then go quiet: the server must hang up on us, not the reverse.
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let mut buf = [0u8; 64];
        let n = stream.read(&mut buf).expect("clean EOF, not a timeout");
        assert_eq!(n, 0, "expected EOF from the idle reaper");
        assert_eq!(await_counter(addr, "idle_disconnects", 1), 1);

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_clients_are_disconnected_when_the_outbox_overflows() {
        let (addr, handle, join) = start_server_with(|c| c.idle_timeout_s = 1);
        // Pipeline tens of thousands of stats requests and never read a
        // byte: the replies (tens of MB — beyond anything the kernel
        // will buffer for us) fill the socket buffers, a reply write
        // waits out the 1 s timeout, and the server cuts the connection
        // loose. The disconnect may land while we are still writing, so
        // write errors here are success, not failure.
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut batch = String::new();
        for _ in 0..20_000 {
            batch.push_str("{\"type\":\"stats\"}\n");
        }
        let _ = stream.write_all(batch.as_bytes());
        assert_eq!(await_counter(addr, "slow_client_disconnects", 1), 1);

        drop(stream);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn connection_cap_closes_excess_connections() {
        let (addr, handle, join) = start_server_with(|c| c.max_connections = 2);
        let ping = |stream: &mut TcpStream| {
            stream.write_all(b"{\"type\":\"ping\"}\n").unwrap();
            let mut reply = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut reply)
                .unwrap();
            assert_eq!(
                parse(reply.trim())
                    .unwrap()
                    .get("type")
                    .and_then(Value::as_str),
                Some("pong")
            );
        };
        let mut first = TcpStream::connect(addr).unwrap();
        ping(&mut first);
        let mut second = TcpStream::connect(addr).unwrap();
        ping(&mut second);

        // The third connection is accepted and immediately closed — a
        // clean EOF, never a hang.
        let mut third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(third.read(&mut buf).unwrap_or(0), 0);

        // Closing one held connection frees the slot for a newcomer.
        drop(first);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut retry = TcpStream::connect(addr).unwrap();
            retry
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            retry.write_all(b"{\"type\":\"ping\"}\n").unwrap();
            let mut reply = String::new();
            let n = BufReader::new(retry).read_line(&mut reply).unwrap_or(0);
            if n > 0 {
                assert_eq!(
                    parse(reply.trim())
                        .unwrap()
                        .get("type")
                        .and_then(Value::as_str),
                    Some("pong")
                );
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed after close");
            thread::sleep(Duration::from_millis(100));
        }

        drop(second);
        handle.shutdown();
        join.join().unwrap();
    }

    /// A request line past the 8 MiB cap, with no newline in sight, gets
    /// a `request` error and then EOF: there is no way to resynchronize
    /// mid-line.
    #[test]
    fn oversized_lines_get_a_request_error_then_eof() {
        let (addr, handle, join) = start_server(1);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // Exactly one byte over the cap, so the server has read all of
        // it when it hangs up (unread bytes would turn the close into a
        // reset that can discard the reply).
        stream.write_all(&vec![b'x'; (8 << 20) + 1]).unwrap();
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = parse(reply.trim()).unwrap();
        assert_eq!(
            reply.get("error").and_then(Value::as_str),
            Some("request"),
            "reply: {}",
            reply.to_json()
        );
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "expected EOF");

        handle.shutdown();
        join.join().unwrap();
    }

    /// Shutdown drains: a job in flight writes its reply before
    /// `Server::run` returns, and an idle held connection is woken with
    /// EOF rather than waited on.
    #[test]
    fn shutdown_delivers_inflight_replies_and_closes_idle_connections() {
        // The injected 2 s evaluation delay keeps the job in flight
        // until after the shutdown below.
        let (addr, handle, join) = start_server_with(|c| {
            c.faults = fact_serve::FaultSpec::parse("seed=1,slow=1,slow_ms=2000").unwrap();
        });
        let mut idle = TcpStream::connect(addr).unwrap();
        idle.write_all(b"{\"type\":\"ping\"}\n").unwrap();
        let mut idle = BufReader::new(idle);
        let mut reply = String::new();
        idle.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim(), r#"{"type":"pong"}"#);

        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(job_line("drain", FACTORABLE, ALLOC, &[]).as_bytes())
            .unwrap();
        busy.write_all(b"\n").unwrap();
        thread::sleep(Duration::from_millis(500));
        let started = Instant::now();
        handle.shutdown();
        join.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "drain took {:?}",
            started.elapsed()
        );

        // `run` has returned, so the reply must already be waiting in
        // our socket buffer: the job's best-so-far, or a `shutdown` error
        // if the worker had not picked it up yet.
        busy.set_nonblocking(true).unwrap();
        let mut reader = BufReader::new(busy);
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("reply written before run returned");
        let reply = parse(reply.trim()).unwrap();
        assert_eq!(reply.get("id").and_then(Value::as_str), Some("drain"));
        assert!(
            reply.get("type").and_then(Value::as_str) == Some("result")
                || reply.get("error").and_then(Value::as_str) == Some("shutdown"),
            "reply: {}",
            reply.to_json()
        );

        idle.get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        assert_eq!(idle.read_to_end(&mut rest).unwrap(), 0, "expected EOF");
    }
}
