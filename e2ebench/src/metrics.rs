//! The metric catalog: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names; the self-test holds the two
//! together.

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("cycles_ratio", "ratio"),
    ("power_ratio", "ratio"),
    ("pareto_hv", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.decode_us", "us"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.job_overhead_ms", "ms"),
    ("serve.busy_retries", "count"),
    ("lang.compile_us", "us"),
    ("sim.generate_ms", "ms"),
    ("sim.profile_ms", "ms"),
    ("sim.compile_s", "s"),
    ("sim.simulate_s", "s"),
    ("sim.vectors", "count"),
    ("sim.vectors_per_s", "1/s"),
    ("sim.batched_share", "ratio"),
    ("sim.lanes_per_batch", "count"),
    ("sched.baseline_ms", "ms"),
    ("sched.splice_ratio", "ratio"),
    ("estim.estimate_s", "s"),
    ("estim.baseline_ms", "ms"),
    ("xform.candidates_ms", "ms"),
    ("xform.candidates", "count"),
    ("core.partition_ms", "ms"),
    ("core.optimize_s", "s"),
    ("core.evaluated", "count"),
    ("core.evals_per_s", "1/s"),
    ("core.other_s", "s"),
    ("core.ledger_coverage", "ratio"),
    ("core.cache_hit_rate", "ratio"),
    ("core.candidates_per_batch", "count"),
    ("trace.overhead", "ratio"),
];

/// The unit of a cataloged metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}
