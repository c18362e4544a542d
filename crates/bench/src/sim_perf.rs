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
//! ([`SimEngine::for_call`], fed the rate a batched pass measured) is
//! reported next to both measurements.
//!
//! A crossover sweep ([`SimPerf::crossover`]) repeats the comparison for
//! every behavior at [`SWEEP_LANES`] distinct lanes, made distinct by an
//! input the behavior never reads: the data the policy's loop rule and
//! lane floor ([`fact_sim::MIN_BATCHED_LANES`]) are read from.
//!
//! Vectors are counted *logically* (through [`SimCounters`]): a
//! deduplicated lane of multiplicity `k` counts `k`. Both engines run
//! each distinct lane once, so `dedup_factor` (trace vectors per
//! distinct lane — FIR, Test2 and SINTRAN collapse to one lane) raises
//! both throughputs alike, and `batched_speedup` is the lockstep-execution
//! win alone.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use fact_core::suite::{input_specs, suite};
use fact_estim::section5_library;
use fact_ir::Function;
use fact_lang::compile;
use fact_sim::{
    generate, simulate, CompiledFn, InputSpec, SimCounters, SimEngine, SimScratch, TraceSet,
};
use std::time::Instant;

/// Synthetic high-divergence behavior: every loop iteration branches on
/// a mod-97 test of a per-lane LCG state (the low bit would alternate
/// identically in every lane — low-bit LCG weakness), so no two lanes
/// agree on a branch pattern and the lockstep engine's fast path starves.
/// The §5 suite has nothing this hostile (GCD is the closest).
const RANDWALK_SRC: &str = r#"
proc randwalk(s, n) {
    var acc = 0;
    var i = 0;
    while (i < n) {
        s = (s * 1103515245 + 12345) % 2147483648;
        if (s % 97 < 49) { acc = acc + (s % 97); } else { acc = acc - (s % 89); }
        i = i + 1;
    }
    out r = acc;
}
"#;

/// Throughput of one engine on one benchmark.
#[derive(Clone, Debug)]
pub struct EnginePerf {
    /// Engine label (`scalar` or `batched`).
    pub engine: &'static str,
    /// Profiling passes completed inside the measurement window.
    pub passes: usize,
    /// Logical trace vectors simulated (dedup multiplicities included).
    pub vectors: u64,
    /// `run_batch` invocations (0 for the scalar engine).
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
    /// Distinct vectors after [`TraceSet::dedup_lanes`] (the batched
    /// engine's actual per-pass workload).
    pub distinct_lanes: usize,
    /// Divergence rate (slow lane-steps / total lane-steps) measured over
    /// one whole batched pass — the quantity the engine policy keys on.
    pub divergence_rate: f64,
    /// Engine [`SimEngine::for_call`] picks for this behavior under these
    /// traces (`"scalar"` or `"batched"`).
    pub chosen: &'static str,
    /// Scalar-engine measurement.
    pub scalar: EnginePerf,
    /// Batched-engine measurement.
    pub batched: EnginePerf,
    /// Raw `batched.vectors_per_sec / scalar.vectors_per_sec`, engine
    /// policy ignored: the lockstep-execution win.
    pub batched_speedup: f64,
    /// `trace_vectors / distinct_lanes`: how much running identical
    /// vectors once raises both engines' logical throughput.
    pub dedup_factor: f64,
    /// Chosen-engine throughput over scalar throughput: the raw ratio
    /// when the policy picks batched, exactly 1.0 when it picks scalar
    /// (the policy is what makes the batched path never lose).
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

/// One full measurement: every Table 2 benchmark, both engines.
#[derive(Clone, Debug)]
pub struct SimPerf {
    /// Trace vectors generated per benchmark.
    pub vectors: usize,
    /// Per-benchmark measurements.
    pub suites: Vec<SimSuitePerf>,
    /// The crossover sweep, by behavior then lane count.
    pub crossover: Vec<Crossover>,
}

/// Both engines on one `(cf, traces)` profile pass, and the policy's
/// choice between them.
struct Comparison {
    divergence_rate: f64,
    chosen: &'static str,
    scalar: EnginePerf,
    batched: EnginePerf,
    batched_speedup: f64,
    speedup: f64,
}

/// Measures both engines on `(cf, traces)` after checking that their
/// profiles agree; a batched pass also measures the rate the engine
/// policy keys on.
fn compare(
    name: &str,
    cf: &CompiledFn,
    traces: &TraceSet,
    min_passes: usize,
    min_wall_s: f64,
) -> Comparison {
    let run_once = |engine| simulate(cf, traces, None, engine, None, &mut SimScratch::default());
    let batched_sim = run_once(SimEngine::default());
    assert_eq!(
        run_once(SimEngine::Scalar).profile,
        batched_sim.profile,
        "{name}: engines disagree on the profile"
    );
    let divergence_rate = batched_sim.divergence;
    let chosen = match SimEngine::for_call(cf, Some(divergence_rate), traces, None) {
        SimEngine::Scalar => "scalar",
        SimEngine::Batched { .. } => "batched",
    };
    let scalar = measure_engine(
        "scalar",
        cf,
        traces,
        SimEngine::Scalar,
        min_passes,
        min_wall_s,
    );
    let batched = measure_engine(
        "batched",
        cf,
        traces,
        SimEngine::default(),
        min_passes,
        min_wall_s,
    );
    let batched_speedup = if scalar.vectors_per_sec > 0.0 {
        batched.vectors_per_sec / scalar.vectors_per_sec
    } else {
        0.0
    };
    let speedup = if chosen == "scalar" {
        1.0
    } else {
        batched_speedup
    };
    Comparison {
        divergence_rate,
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
    type Case = (&'static str, Function, Vec<(String, InputSpec)>);
    let (lib, _) = section5_library();
    let mut cases: Vec<Case> = suite(&lib)
        .into_iter()
        .map(|b| {
            let specs = input_specs(b.name).expect("suite benchmark has input specs");
            (b.name, b.function, specs)
        })
        .collect();
    cases.push((
        "RANDWALK",
        compile(RANDWALK_SRC).expect("RANDWALK_SRC compiles"),
        vec![
            ("s".to_string(), InputSpec::Uniform { lo: 1, hi: 1 << 30 }),
            ("n".to_string(), InputSpec::Constant(64)),
        ],
    ));
    let mut suites = Vec::new();
    let mut crossover = Vec::new();
    for (name, function, specs) in &cases {
        let traces = generate(specs, vectors, 0x51AB5);
        let cf = CompiledFn::compile(function);
        let distinct_lanes = traces.dedup_lanes().len();
        let c = compare(name, &cf, &traces, min_passes, min_wall_s);
        suites.push(SimSuitePerf {
            name,
            trace_vectors: traces.len(),
            distinct_lanes,
            divergence_rate: c.divergence_rate,
            chosen: c.chosen,
            scalar: c.scalar,
            batched: c.batched,
            batched_speedup: c.batched_speedup,
            dedup_factor: traces.len() as f64 / distinct_lanes as f64,
            speedup: c.speedup,
        });
        let mut salted = specs.clone();
        salted.push((
            "sweep.salt".to_string(),
            InputSpec::Uniform { lo: 0, hi: 1 << 40 },
        ));
        for lanes in SWEEP_LANES.into_iter().filter(|&l| l <= vectors) {
            let traces = generate(&salted, lanes, 0x5EE9);
            assert_eq!(traces.dedup_lanes().len(), lanes, "{name}: salt collided");
            let c = compare(name, &cf, &traces, min_passes, min_wall_s);
            crossover.push(Crossover {
                name,
                lanes,
                chosen: c.chosen,
                batched_speedup: c.batched_speedup,
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

fn engine_json(e: &EnginePerf) -> String {
    format!(
        "{{\"passes\": {}, \"vectors\": {}, \"batches\": {}, \
         \"wall_s\": {:.4}, \"vectors_per_sec\": {:.1}}}",
        e.passes, e.vectors, e.batches, e.wall_s, e.vectors_per_sec
    )
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
             \"divergence_rate\": {:.4}, \"chosen\": \"{}\",\n     \
             \"scalar\": {},\n     \"batched\": {},\n     \
             \"batched_speedup\": {:.2}, \"dedup_factor\": {:.2}, \
             \"speedup\": {:.2}}}{}\n",
            s.name,
            s.trace_vectors,
            s.distinct_lanes,
            s.divergence_rate,
            s.chosen,
            engine_json(&s.scalar),
            engine_json(&s.batched),
            s.batched_speedup,
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
        assert_eq!(p.suites.len(), 7);
        for s in &p.suites {
            assert_eq!(s.trace_vectors, 32);
            assert!(s.distinct_lanes >= 1 && s.distinct_lanes <= 32);
            assert_eq!(s.scalar.batches, 0, "{}: scalar engine batched", s.name);
            assert!(s.batched.batches > 0, "{}: batched engine did not", s.name);
            assert!(s.scalar.vectors >= 32);
            assert!(s.batched.vectors >= 32);
            assert!(
                (0.0..=1.0).contains(&s.divergence_rate),
                "{}: divergence out of range",
                s.name
            );
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
                assert_eq!(s.speedup, s.batched_speedup, "{}", s.name);
            }
        }
        // Constant-trace benchmarks collapse to one lane: their whole
        // trace set is the dedup factor.
        let test2 = p.suites.iter().find(|s| s.name == "Test2").unwrap();
        assert_eq!(test2.distinct_lanes, 1);
        assert_eq!(test2.dedup_factor, 32.0);
        // The synthetic random-branch behavior is the divergence extreme
        // of the set: distinct per-lane branch patterns every iteration.
        let rw = p.suites.iter().find(|s| s.name == "RANDWALK").unwrap();
        assert_eq!(rw.distinct_lanes, 32);
        assert!(
            rw.divergence_rate
                > p.suites
                    .iter()
                    .filter(|s| s.name != "RANDWALK" && s.name != "GCD")
                    .map(|s| s.divergence_rate)
                    .fold(0.0, f64::max),
            "RANDWALK should out-diverge every structured benchmark"
        );
        // The sweep covers every behavior at every lane count up to the
        // run's vectors; only the loop-free PPS ever runs batched, and
        // only from the lane floor on.
        assert_eq!(p.crossover.len(), 7 * 5);
        for c in &p.crossover {
            let batches = c.name == "PPS" && c.lanes >= fact_sim::MIN_BATCHED_LANES;
            assert_eq!(c.chosen == "batched", batches, "{} @{}", c.name, c.lanes);
            let expected = if batches { c.batched_speedup } else { 1.0 };
            assert_eq!(c.speedup, expected, "{} @{}", c.name, c.lanes);
        }
        let json = to_json(&p);
        assert!(json.contains("\"crossover\""));
        assert!(json.contains("\"bench\": \"sim\""));
        assert!(json.contains("\"divergence_rate\""));
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
