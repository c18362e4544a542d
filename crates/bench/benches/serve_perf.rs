//! Serve-load bench: emits `BENCH_serve.json`.
//! Run: `scripts/bench.sh serve` (or `cargo bench -p fact-bench --bench serve_perf`).
//!
//! One pass holding a fleet of idle connections while traffic threads
//! drive a mixed request stream.
//!
//! Flags (after `--`):
//!   --held N      idle connections held (default 512;
//!                 an explicit value wins over the `--smoke` cap)
//!   --threads N   traffic threads (default 4)
//!   --requests N  requests per traffic thread (default 250)
//!   --out PATH    output file (default BENCH_serve.json)
//!   --smoke       tiny fleet, stdout only (CI well-formedness check)

use fact_bench::serve_perf::{run_pass, to_json, PassConfig};

fn main() {
    let mut out_path = String::from("BENCH_serve.json");
    let mut smoke = false;
    let mut held: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut requests: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut grab = |what: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a number"))
        };
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--held" => held = Some(grab("--held")),
            "--threads" => threads = Some(grab("--threads")),
            "--requests" => requests = Some(grab("--requests")),
            "--smoke" => smoke = true,
            "--bench" => {} // cargo bench passes this through
            other => eprintln!("serve_perf: ignoring unknown flag {other}"),
        }
    }

    let mut cfg = if smoke {
        PassConfig::smoke()
    } else {
        PassConfig::standard()
    };
    if let Some(n) = held {
        cfg.held_connections = n;
    }
    if let Some(n) = threads {
        cfg.traffic_threads = n.max(1);
    }
    if let Some(n) = requests {
        cfg.requests_per_thread = n.max(1);
    }
    let t0 = std::time::Instant::now();
    let p = run_pass(&cfg);
    let json = to_json(std::slice::from_ref(&p));

    // Human summary on stderr so `--smoke`'s stdout is pure JSON.
    eprintln!(
        "held={} traffic={}x{}: {} ok / {} err in {:.2}s -> {:.0} req/sec \
         (p50 {:.2}ms p99 {:.2}ms max {:.2}ms, {} busy retries)",
        p.held_connections,
        p.traffic_threads,
        p.requests / p.traffic_threads.max(1),
        p.completed,
        p.errors,
        p.wall_s,
        p.jobs_per_sec,
        p.p50_ms,
        p.p99_ms,
        p.max_ms,
        p.busy_retries,
    );
    if smoke {
        // CI path: print the JSON for the caller to validate, write nothing.
        print!("{json}");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
        println!(
            "wrote {out_path} ({:.1}s total)",
            t0.elapsed().as_secs_f32()
        );
    }
}
