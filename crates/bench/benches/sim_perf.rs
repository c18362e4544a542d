//! Simulation-throughput bench: emits `BENCH_sim.json`.
//! Run: `scripts/bench.sh sim` (or `cargo bench -p fact-bench --bench sim_perf`).
//!
//! Flags (after `--`):
//!   --out PATH     output file (default BENCH_sim.json)
//!   --vectors N    trace vectors per benchmark (default 1024)
//!   --smoke        tiny trace set, single pass, stdout only (CI check)

use fact_bench::sim_perf::{run_with, to_json};

fn main() {
    let mut out_path = String::from("BENCH_sim.json");
    let mut vectors = 1024usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--vectors" => {
                vectors = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--vectors needs a number")
            }
            // Accepted (and skipped with its value) so `bench.sh all`
            // can pass one flag list to every bench target.
            "--budget" => {
                let _ = args.next();
            }
            "--smoke" => smoke = true,
            "--bench" => {} // cargo bench passes this through
            other => eprintln!("sim_perf: ignoring unknown flag {other}"),
        }
    }
    let (min_passes, min_wall_s) = if smoke {
        vectors = vectors.min(64);
        (1, 0.0)
    } else {
        (3, 0.25)
    };

    let t0 = std::time::Instant::now();
    let p = run_with(vectors, min_passes, min_wall_s);
    let json = to_json(&p);
    // Human summary on stderr so `--smoke`'s stdout is pure JSON.
    for s in &p.suites {
        eprintln!(
            "  {:8} {:4} vectors ({:4} lanes) {:10.0} v/s  (dedup {:6.1}x)",
            s.name, s.trace_vectors, s.distinct_lanes, s.vectors_per_sec, s.dedup_factor
        );
    }
    if smoke {
        // CI path: print the JSON for the caller to validate, write nothing.
        print!("{json}");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_sim.json");
        println!(
            "wrote {out_path} ({:.1}s total)",
            t0.elapsed().as_secs_f32()
        );
    }
}
