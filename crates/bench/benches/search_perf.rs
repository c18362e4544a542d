//! Search-throughput bench: emits `BENCH_search.json`.
//! Run: `scripts/bench.sh` (or `cargo bench -p fact-bench --bench search_perf`).
//!
//! Flags (after `--`):
//!   --out PATH    output file (default BENCH_search.json)
//!   --budget N    evaluation budget per benchmark (default 400;
//!                 an explicit value wins over the `--smoke` cap)
//!   --smoke       tiny budget, stdout only (CI well-formedness check)
//!
//! Each benchmark runs cold on a fresh cache, then warm on the cache the
//! cold run filled, then retraced (the same traces plus an input no
//! program reads) on that cache; all three are reported, each with the
//! schedule plans it built and took from the cache (DESIGN §10.6).

use fact_bench::search_perf::{run_with, standard_config, to_json};

fn main() {
    let mut out_path = String::from("BENCH_search.json");
    let mut budget = 400usize;
    let mut budget_explicit = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--budget" => {
                budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget needs a number");
                budget_explicit = true;
            }
            "--smoke" => smoke = true,
            "--bench" => {} // cargo bench passes this through
            other => eprintln!("search_perf: ignoring unknown flag {other}"),
        }
    }
    if smoke && !budget_explicit {
        budget = budget.min(10);
    }

    let t0 = std::time::Instant::now();
    let passes = measure(budget);
    let json = to_json(&passes);
    // Human summary on stderr so `--smoke`'s stdout is pure JSON.
    for p in &passes {
        eprintln!(
            "mode={} total: {} evals in {:.2}s -> {:.0} evals/sec",
            p.mode,
            p.total_evaluated(),
            p.total_wall_s(),
            p.total_evals_per_sec()
        );
        for s in &p.suites {
            eprintln!(
                "  {:8} {:5} evals {:7.3}s {:8.0} evals/sec cache {:4.0}% \
                 inherited {} unproved {} (setup {:.3}s build {:.3}s expand {:.3}s \
                 prove {:.3}s est {:.3}s, of it sched {:.3}s, of it plans {:.3}s, \
                 {} plans built) warm {:.4}s built {} retraced {:.4}s (prove {:.3}s \
                 build {:.3}s, {} verdicts memoized, {} plans memoized, {} built)",
                s.name,
                s.evaluated,
                s.wall_s,
                s.evals_per_sec,
                s.cache_hit_rate * 100.0,
                s.inherited,
                s.unproved,
                s.setup_s,
                s.build_s,
                s.expand_s,
                s.prove_s,
                s.estimate_s,
                s.schedule_s,
                s.plan_s,
                s.outcome.plans_built,
                s.warm.wall_s,
                s.warm.outcome.neighborhoods_built,
                s.retraced.wall_s,
                s.retraced.prove_s,
                s.retraced.build_s,
                s.retraced.verdicts_memoized,
                s.retraced.outcome.plans_memoized,
                s.retraced.outcome.plans_built,
            );
        }
    }
    if smoke {
        // CI path: print the JSON for the caller to validate, write nothing.
        print!("{json}");
    } else {
        std::fs::write(&out_path, &json).expect("write BENCH_search.json");
        println!(
            "wrote {out_path} ({:.1}s total)",
            t0.elapsed().as_secs_f32()
        );
    }
}

/// One measured pass of the default configuration over the suite.
fn measure(budget: usize) -> Vec<fact_bench::search_perf::SearchPerf> {
    // Unmeasured warmup: the first pass of a fresh process otherwise
    // absorbs one-time costs (page faults, frequency ramp).
    let _ = run_with("warmup", &standard_config(budget.min(50)));
    vec![run_with("default", &standard_config(budget))]
}
