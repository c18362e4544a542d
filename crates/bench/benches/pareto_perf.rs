//! Pareto-frontier bench: emits `BENCH_pareto.json`.
//! Run: `scripts/bench.sh pareto` (or `cargo bench -p fact-bench --bench pareto_perf`).
//!
//! Flags (after `--`):
//!   --out PATH    output file (default BENCH_pareto.json)
//!   --budget N    evaluation budget per benchmark (default 600)
//!   --smoke       Test2 and IGF only; still writes the file (the CI
//!                 gate checks it parses, that Test2 reports a full
//!                 curve, and that IGF archives more than one design)

use fact_bench::pareto_perf::{run_with, standard_config, to_json};

fn main() {
    let mut out_path = String::from("BENCH_pareto.json");
    let mut budget = 600usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--budget" => {
                budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--budget needs a number")
            }
            "--smoke" => smoke = true,
            "--bench" => {} // cargo bench passes this through
            other => eprintln!("pareto_perf: ignoring unknown flag {other}"),
        }
    }

    let t0 = std::time::Instant::now();
    let only: Option<&[&str]> = if smoke { Some(&["Test2", "IGF"]) } else { None };
    let pass = run_with(
        if smoke { "smoke" } else { "standard" },
        &standard_config(budget),
        only,
    );
    let json = to_json(std::slice::from_ref(&pass));
    // Human summary on stderr; stdout stays pure JSON for pipelines.
    eprintln!(
        "mode={} total: {} evals in {:.2}s -> {:.0} evals/sec",
        pass.mode,
        pass.total_evaluated(),
        pass.total_wall_s(),
        pass.total_evals_per_sec()
    );
    for s in &pass.suites {
        eprintln!(
            "  {:8} frontier {:3} (archive {:2}) hv {:5.3} {:5} evals {:7.3}s {:8.0} evals/sec",
            s.name,
            s.frontier,
            s.archive_len,
            s.hypervolume,
            s.evaluated,
            s.wall_s,
            s.evals_per_sec
        );
    }
    std::fs::write(&out_path, &json).expect("write BENCH_pareto.json");
    print!("{json}");
    eprintln!(
        "wrote {out_path} ({:.1}s total)",
        t0.elapsed().as_secs_f32()
    );
}
