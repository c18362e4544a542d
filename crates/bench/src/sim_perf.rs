//! Simulation-throughput measurement: trace vectors/sec, scalar vs
//! batched, over the §5 suite behaviors.
//!
//! The candidate-evaluation inner loop of a FACT search is dominated by
//! simulation (equivalence checks + branch profiling), so this module
//! measures that layer in isolation: how many trace vectors per second
//! each execution engine sustains when profiling a suite behavior over a
//! large trace set drawn from the benchmark's own input distributions
//! ([`fact_core::suite::input_specs`]). Both engines are run over the
//! *same* compiled function and trace set, their profiles are asserted
//! identical (the engines are bit-identical by contract), and only the
//! wall-clock differs. The `sim_perf` bench target writes the result as
//! `BENCH_sim.json`.
//!
//! Each pass is one production [`simulate`] call with no reference (the
//! profile pass), and the engine the production policy picks
//! ([`SimEngine::for_call`]) is reported next to the measurements. The
//! batched engine runs straight-line calls only
//! ([`SimEngine::batchable`]), so a behavior it cannot run reports the
//! scalar measurement alone.
//!
//! A crossover sweep ([`SimPerf::crossover`]) repeats the comparison for
//! every behavior the batched engine runs (PPS) at [`SWEEP_LANES`]
//! distinct lanes, made distinct by an input the behavior never reads:
//! the data the policy's lane floor ([`fact_sim::MIN_BATCHED_LANES`]) is
//! read from.
//!
//! Vectors are counted *logically* (through [`SimCounters`]): a
//! deduplicated lane of multiplicity `k` counts `k`. Both engines run
//! each distinct lane once, so `dedup_factor` (trace vectors per
//! distinct lane — FIR, Test2 and SINTRAN collapse to one lane) raises
//! both throughputs alike, and `batched_speedup` is the fused-kernel win
//! alone.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use fact_core::suite::{input_specs, suite};
use fact_estim::section5_library;
use fact_sim::{
    generate, simulate, CompiledFn, InputSpec, SimCounters, SimEngine, SimScratch, TraceSet,
};
use std::time::Instant;

/// Throughput of one engine on one benchmark.
#[derive(Clone, Debug)]
pub struct EnginePerf {
    /// Engine label (`scalar` or `batched`).
    pub engine: &'static str,
    /// Profiling passes completed inside the measurement window.
    pub passes: usize,
    /// Logical trace vectors simulated (dedup multiplicities included).
    pub vectors: u64,
    /// Batches run (0 for the scalar engine).
    pub batches: u64,
    /// Wall-clock time of the measurement window, seconds.
    pub wall_s: f64,
    /// `vectors / wall_s`.
    pub vectors_per_sec: f64,
}

/// Scalar-vs-batched measurement of one suite benchmark.
#[derive(Clone, Debug)]
pub struct SimSuitePerf {
    /// Benchmark name (Table 2 row).
    pub name: &'static str,
    /// Trace vectors per profiling pass.
    pub trace_vectors: usize,
    /// Distinct vectors after [`TraceSet::dedup_lanes`] (each engine's
    /// actual per-pass workload).
    pub distinct_lanes: usize,
    /// Engine [`SimEngine::for_call`] picks for this behavior under these
    /// traces (`"scalar"` or `"batched"`).
    pub chosen: &'static str,
    /// Scalar-engine measurement.
    pub scalar: EnginePerf,
    /// Batched-engine measurement; `None` when the batched engine cannot
    /// run the call ([`SimEngine::batchable`]).
    pub batched: Option<EnginePerf>,
    /// Raw `batched.vectors_per_sec / scalar.vectors_per_sec`, engine
    /// policy ignored: the fused-kernel win (`None` with `batched`).
    pub batched_speedup: Option<f64>,
    /// `trace_vectors / distinct_lanes`: how much running identical
    /// vectors once raises both engines' logical throughput.
    pub dedup_factor: f64,
    /// Chosen-engine throughput over scalar throughput: the raw ratio
    /// when the policy picks batched, exactly 1.0 when it picks scalar.
    pub speedup: f64,
}

/// Distinct-lane counts of the crossover sweep (those up to the run's
/// `vectors`).
pub const SWEEP_LANES: [usize; 8] = [1, 2, 4, 8, 16, 64, 256, 1024];

/// Scalar-vs-batched throughput of one behavior at one distinct-lane
/// count.
#[derive(Clone, Debug)]
pub struct Crossover {
    /// Benchmark name.
    pub name: &'static str,
    /// Distinct lanes (= trace vectors) per pass.
    pub lanes: usize,
    /// Engine [`SimEngine::for_call`] picks (`"scalar"` or `"batched"`).
    pub chosen: &'static str,
    /// `batched / scalar` throughput.
    pub batched_speedup: f64,
    /// Chosen-engine throughput over scalar throughput.
    pub speedup: f64,
}

/// One full measurement: every Table 2 benchmark, on each engine that
/// can run it.
#[derive(Clone, Debug)]
pub struct SimPerf {
    /// Trace vectors generated per benchmark.
    pub vectors: usize,
    /// Per-benchmark measurements.
    pub suites: Vec<SimSuitePerf>,
    /// The crossover sweep over the batchable behaviors, by behavior then
    /// lane count.
    pub crossover: Vec<Crossover>,
}

/// Both engines on one `(cf, traces)` profile pass, and the policy's
/// choice between them.
struct Comparison {
    chosen: &'static str,
    scalar: EnginePerf,
    batched: Option<EnginePerf>,
    batched_speedup: Option<f64>,
    speedup: f64,
}

/// Measures the scalar engine on `(cf, traces)` and, when the batched
/// engine can run the call, the batched one too, after checking that
/// their profiles agree.
fn compare(
    name: &str,
    cf: &CompiledFn,
    traces: &TraceSet,
    min_passes: usize,
    min_wall_s: f64,
) -> Comparison {
    let chosen = match SimEngine::for_call(cf, traces, None) {
        SimEngine::Scalar => "scalar",
        SimEngine::Batched { .. } => "batched",
    };
    let measure = |label, engine| measure_engine(label, cf, traces, engine, min_passes, min_wall_s);
    let scalar = measure("scalar", SimEngine::Scalar);
    let batched = SimEngine::batchable(cf, traces, None).then(|| {
        let run_once =
            |engine| simulate(cf, traces, None, engine, None, &mut SimScratch::default());
        assert_eq!(
            run_once(SimEngine::Scalar).profile,
            run_once(SimEngine::default()).profile,
            "{name}: engines disagree on the profile"
        );
        measure("batched", SimEngine::default())
    });
    let batched_speedup = batched.as_ref().map(|b| {
        if scalar.vectors_per_sec > 0.0 {
            b.vectors_per_sec / scalar.vectors_per_sec
        } else {
            0.0
        }
    });
    let speedup = match (chosen, batched_speedup) {
        ("batched", Some(s)) => s,
        _ => 1.0,
    };
    Comparison {
        chosen,
        scalar,
        batched,
        batched_speedup,
        speedup,
    }
}

/// Runs one engine repeatedly over `(cf, traces)` until both `min_passes`
/// and `min_wall_s` are met (capped at 20k passes so a microsecond-fast
/// configuration cannot spin unboundedly).
fn measure_engine(
    label: &'static str,
    cf: &CompiledFn,
    traces: &TraceSet,
    engine: SimEngine,
    min_passes: usize,
    min_wall_s: f64,
) -> EnginePerf {
    let counters = SimCounters::default();
    let mut scratch = SimScratch::default();
    let mut passes = 0usize;
    let t0 = Instant::now();
    loop {
        std::hint::black_box(simulate(
            cf,
            traces,
            None,
            engine,
            Some(&counters),
            &mut scratch,
        ));
        passes += 1;
        if passes >= min_passes && (t0.elapsed().as_secs_f64() >= min_wall_s || passes >= 20_000) {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let vectors = counters.vectors();
    EnginePerf {
        engine: label,
        passes,
        vectors,
        batches: counters.batches(),
        wall_s,
        vectors_per_sec: if wall_s > 0.0 {
            vectors as f64 / wall_s
        } else {
            0.0
        },
    }
}

/// Runs the simulation-throughput measurement over the §5 suite:
/// `vectors` trace vectors per benchmark, each engine run for at least
/// `min_passes` passes and `min_wall_s` seconds.
///
/// # Panics
/// Panics if the two engines disagree on a profile — bit-identity is the
/// contract this bench rides on, so a disagreement is a bug worth
/// aborting the measurement for.
pub fn run_with(vectors: usize, min_passes: usize, min_wall_s: f64) -> SimPerf {
    let (lib, _) = section5_library();
    let mut suites = Vec::new();
    let mut crossover = Vec::new();
    for b in suite(&lib) {
        let specs = input_specs(b.name).expect("suite benchmark has input specs");
        let traces = generate(&specs, vectors, 0x51AB5);
        let cf = CompiledFn::compile(&b.function);
        let distinct_lanes = traces.dedup_lanes().len();
        let c = compare(b.name, &cf, &traces, min_passes, min_wall_s);
        suites.push(SimSuitePerf {
            name: b.name,
            trace_vectors: traces.len(),
            distinct_lanes,
            chosen: c.chosen,
            scalar: c.scalar,
            batched: c.batched,
            batched_speedup: c.batched_speedup,
            dedup_factor: traces.len() as f64 / distinct_lanes as f64,
            speedup: c.speedup,
        });
        if !SimEngine::batchable(&cf, &traces, None) {
            continue;
        }
        let mut salted = specs.clone();
        salted.push((
            "sweep.salt".to_string(),
            InputSpec::Uniform { lo: 0, hi: 1 << 40 },
        ));
        for lanes in SWEEP_LANES.into_iter().filter(|&l| l <= vectors) {
            let traces = generate(&salted, lanes, 0x5EE9);
            assert_eq!(
                traces.dedup_lanes().len(),
                lanes,
                "{}: salt collided",
                b.name
            );
            let c = compare(b.name, &cf, &traces, min_passes, min_wall_s);
            crossover.push(Crossover {
                name: b.name,
                lanes,
                chosen: c.chosen,
                batched_speedup: c
                    .batched_speedup
                    .expect("a batchable call measures batched"),
                speedup: c.speedup,
            });
        }
    }
    SimPerf {
        vectors,
        suites,
        crossover,
    }
}

fn engine_json(e: Option<&EnginePerf>) -> String {
    match e {
        Some(e) => format!(
            "{{\"passes\": {}, \"vectors\": {}, \"batches\": {}, \
             \"wall_s\": {:.4}, \"vectors_per_sec\": {:.1}}}",
            e.passes, e.vectors, e.batches, e.wall_s, e.vectors_per_sec
        ),
        None => "null".to_string(),
    }
}

/// Renders a measurement as a JSON document.
pub fn to_json(p: &SimPerf) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"sim\",\n  \"vectors\": {},\n  \"suites\": [\n",
        p.vectors
    );
    for (i, s) in p.suites.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"trace_vectors\": {}, \"distinct_lanes\": {},\n     \
             \"chosen\": \"{}\",\n     \
             \"scalar\": {},\n     \"batched\": {},\n     \
             \"batched_speedup\": {}, \"dedup_factor\": {:.2}, \
             \"speedup\": {:.2}}}{}\n",
            s.name,
            s.trace_vectors,
            s.distinct_lanes,
            s.chosen,
            engine_json(Some(&s.scalar)),
            engine_json(s.batched.as_ref()),
            s.batched_speedup
                .map_or_else(|| "null".to_string(), |x| format!("{x:.2}")),
            s.dedup_factor,
            s.speedup,
            if i + 1 < p.suites.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"crossover\": [\n");
    for (i, c) in p.crossover.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"lanes\": {}, \"chosen\": \"{}\", \
             \"batched_speedup\": {:.2}, \"speedup\": {:.2}}}{}\n",
            c.name,
            c.lanes,
            c.chosen,
            c.batched_speedup,
            c.speedup,
            if i + 1 < p.crossover.len() { "," } else { "" }
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
            assert_eq!(s.scalar.batches, 0, "{}: scalar engine batched", s.name);
            assert!(s.scalar.vectors >= 32);
            // Only the straight-line PPS runs batched at all.
            match &s.batched {
                Some(b) => {
                    assert_eq!(s.name, "PPS");
                    assert!(b.batches > 0 && b.vectors >= 32, "{}", s.name);
                }
                None => assert!(s.batched_speedup.is_none(), "{}", s.name),
            }
            assert_eq!(
                s.dedup_factor,
                s.trace_vectors as f64 / s.distinct_lanes as f64,
                "{}",
                s.name
            );
            if s.chosen == "scalar" {
                assert_eq!(s.speedup, 1.0, "{}: scalar choice must report 1.0", s.name);
            } else {
                assert_eq!(s.chosen, "batched");
                assert_eq!(Some(s.speedup), s.batched_speedup, "{}", s.name);
            }
        }
        let pps = p.suites.iter().find(|s| s.name == "PPS").unwrap();
        assert_eq!(pps.chosen, "batched");
        // Constant-trace benchmarks collapse to one lane: their whole
        // trace set is the dedup factor.
        let test2 = p.suites.iter().find(|s| s.name == "Test2").unwrap();
        assert_eq!(test2.distinct_lanes, 1);
        assert_eq!(test2.dedup_factor, 32.0);
        // The sweep covers PPS, the one batchable behavior, at every lane
        // count up to the run's vectors; it runs batched from the lane
        // floor on.
        assert_eq!(p.crossover.len(), 5);
        for c in &p.crossover {
            assert_eq!(c.name, "PPS");
            let batches = c.lanes >= fact_sim::MIN_BATCHED_LANES;
            assert_eq!(c.chosen == "batched", batches, "{} @{}", c.name, c.lanes);
            let expected = if batches { c.batched_speedup } else { 1.0 };
            assert_eq!(c.speedup, expected, "{} @{}", c.name, c.lanes);
        }
        let json = to_json(&p);
        assert!(json.contains("\"crossover\""));
        assert!(json.contains("\"bench\": \"sim\""));
        assert!(json.contains("\"batched\": null"));
        assert!(json.contains("\"chosen\""));
        assert!(json.contains("\"dedup_factor\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
