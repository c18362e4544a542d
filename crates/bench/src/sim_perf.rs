//! Simulation-throughput measurement: trace vectors/sec over the §5
//! suite behaviors.
//!
//! Simulation (equivalence checks + branch profiling) is the layer a
//! candidate the prover cannot show equivalent pays for, so this module
//! measures it in isolation: how many trace vectors per second the
//! production pass sustains when profiling a suite behavior over a large
//! trace set drawn from the benchmark's own input distributions
//! ([`fact_core::suite::input_specs`]). Each pass is one [`simulate`]
//! call with no reference (the profile pass). The `sim_perf` bench target
//! writes the result as `BENCH_sim.json`.
//!
//! Vectors are counted *logically* ([`fact_sim::Simulation::vectors`]):
//! a deduplicated lane of multiplicity `k` counts `k`, so `dedup_factor`
//! (trace vectors per distinct lane — FIR, Test2 and SINTRAN collapse to
//! one lane) is how much running each distinct vector once raises the
//! throughput.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use fact_core::suite::{input_specs, suite};
use fact_estim::section5_library;
use fact_sim::{generate, simulate, CompiledFn, TraceSet};
use std::time::Instant;

/// Throughput of the profile pass on one suite benchmark.
#[derive(Clone, Debug)]
pub struct SimSuitePerf {
    /// Benchmark name (Table 2 row).
    pub name: &'static str,
    /// Trace vectors per profiling pass.
    pub trace_vectors: usize,
    /// Distinct vectors after [`TraceSet::dedup_lanes`] (the actual
    /// per-pass workload).
    pub distinct_lanes: usize,
    /// `trace_vectors / distinct_lanes`.
    pub dedup_factor: f64,
    /// Profiling passes completed inside the measurement window.
    pub passes: usize,
    /// Logical trace vectors simulated (dedup multiplicities included).
    pub vectors: u64,
    /// Wall-clock time of the measurement window, seconds.
    pub wall_s: f64,
    /// `vectors / wall_s`.
    pub vectors_per_sec: f64,
}

/// One full measurement: every Table 2 benchmark.
#[derive(Clone, Debug)]
pub struct SimPerf {
    /// Trace vectors generated per benchmark.
    pub vectors: usize,
    /// Per-benchmark measurements.
    pub suites: Vec<SimSuitePerf>,
}

/// Runs the profile pass repeatedly over `(cf, traces)` until both
/// `min_passes` and `min_wall_s` are met (capped at 20k passes so a
/// microsecond-fast configuration cannot spin unboundedly). Returns the
/// passes, logical vectors and wall seconds.
fn measure(
    cf: &CompiledFn,
    traces: &TraceSet,
    min_passes: usize,
    min_wall_s: f64,
) -> (usize, u64, f64) {
    let (mut passes, mut vectors) = (0usize, 0u64);
    let t0 = Instant::now();
    loop {
        vectors += std::hint::black_box(simulate(cf, traces, None)).vectors;
        passes += 1;
        if passes >= min_passes && (t0.elapsed().as_secs_f64() >= min_wall_s || passes >= 20_000) {
            break;
        }
    }
    (passes, vectors, t0.elapsed().as_secs_f64())
}

/// Runs the simulation-throughput measurement over the §5 suite:
/// `vectors` trace vectors per benchmark, each run for at least
/// `min_passes` passes and `min_wall_s` seconds.
pub fn run_with(vectors: usize, min_passes: usize, min_wall_s: f64) -> SimPerf {
    let (lib, _) = section5_library();
    let suites = suite(&lib)
        .into_iter()
        .map(|b| {
            let specs = input_specs(b.name).expect("suite benchmark has input specs");
            let traces = generate(&specs, vectors, 0x51AB5);
            let cf = CompiledFn::compile(&b.function);
            let distinct_lanes = traces.dedup_lanes().len();
            let (passes, vectors, wall_s) = measure(&cf, &traces, min_passes, min_wall_s);
            SimSuitePerf {
                name: b.name,
                trace_vectors: traces.len(),
                distinct_lanes,
                dedup_factor: traces.len() as f64 / distinct_lanes as f64,
                passes,
                vectors,
                wall_s,
                vectors_per_sec: if wall_s > 0.0 {
                    vectors as f64 / wall_s
                } else {
                    0.0
                },
            }
        })
        .collect();
    SimPerf { vectors, suites }
}

/// Renders a measurement as a JSON document.
pub fn to_json(p: &SimPerf) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"sim\",\n  \"vectors\": {},\n  \"suites\": [\n",
        p.vectors
    );
    for (i, s) in p.suites.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"trace_vectors\": {}, \"distinct_lanes\": {}, \
             \"dedup_factor\": {:.2},\n     \
             \"passes\": {}, \"vectors\": {}, \"wall_s\": {:.4}, \
             \"vectors_per_sec\": {:.1}}}{}\n",
            s.name,
            s.trace_vectors,
            s.distinct_lanes,
            s.dedup_factor,
            s.passes,
            s.vectors,
            s.wall_s,
            s.vectors_per_sec,
            if i + 1 < p.suites.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_sane_numbers() {
        let p = run_with(32, 1, 0.0);
        assert_eq!(p.suites.len(), 6);
        for s in &p.suites {
            assert_eq!(s.trace_vectors, 32);
            assert!(s.distinct_lanes >= 1 && s.distinct_lanes <= 32);
            assert!(s.passes >= 1, "{}", s.name);
            // Every pass covers every trace vector once.
            assert_eq!(s.vectors, 32 * s.passes as u64, "{}", s.name);
            assert_eq!(
                s.dedup_factor,
                s.trace_vectors as f64 / s.distinct_lanes as f64,
                "{}",
                s.name
            );
        }
        // Constant-trace benchmarks collapse to one lane: their whole
        // trace set is the dedup factor.
        let test2 = p.suites.iter().find(|s| s.name == "Test2").unwrap();
        assert_eq!(test2.distinct_lanes, 1);
        assert_eq!(test2.dedup_factor, 32.0);
        let json = to_json(&p);
        assert!(json.contains("\"bench\": \"sim\""));
        assert!(json.contains("\"dedup_factor\""));
        assert!(json.contains("\"vectors_per_sec\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
