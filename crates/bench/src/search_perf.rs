//! Search-throughput measurement: evaluations/sec over the §5 suite.
//!
//! Unlike the paper-artifact drivers, this module records the *perf
//! trajectory* of the engine itself: how many candidate evaluations per
//! second the full FACT pipeline sustains on each suite benchmark, plus
//! wall time and evaluation-cache hit rate. Each benchmark then runs a
//! second time on the cache its first run filled — a repeated job, as
//! `factd` serves it — and reports that warm run beside the cold one. A
//! third, *retraced* run uses that cache again on the same traces plus
//! one input no program reads: every score lookup misses, as for a new
//! job, but the expansion memo and the verdicts in its records are found
//! (DESIGN §10.5). The `search_perf` bench target writes the result as
//! `BENCH_search.json` so successive runs can be compared
//! number-for-number.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use fact_core::{
    optimize_with, suite, CandidateCounts, ContextHasher, EvalCache, FactConfig, FactResult,
    OptimizeHooks, PhaseTimers, TransformLibrary,
};
use fact_estim::section5_library;
use fact_sim::TraceSet;
use fact_xform::TransformKind;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Throughput measurement of one suite benchmark.
#[derive(Clone, Debug)]
pub struct SuitePerf {
    /// Benchmark name (Table 2 row).
    pub name: &'static str,
    /// Candidate evaluations performed by the search.
    pub evaluated: usize,
    /// Evaluations answered by the [`EvalCache`].
    pub cache_hits: usize,
    /// Wall-clock time of the whole `optimize_with` run, seconds.
    pub wall_s: f64,
    /// `evaluated / wall_s`.
    pub evals_per_sec: f64,
    /// Cache hit rate over the run (`hits / lookups`).
    pub cache_hit_rate: f64,
    /// Operand swaps that inherited their parent's evaluation
    /// ([`fact_core::CandidateCounts::inherited_total`]).
    pub inherited: u64,
    /// Candidates proved equivalent to their parent, search inputs
    /// included ([`fact_core::CandidateCounts::proved_total`]).
    pub proved: u64,
    /// Unrolled candidates whose profile was derived
    /// ([`fact_core::CandidateCounts::derived_total`]).
    pub derived: u64,
    /// Candidates simulated, search inputs included
    /// ([`fact_core::CandidateCounts::simulated_total`]).
    pub simulated: u64,
    /// Whether the run captured the equivalence reference
    /// ([`fact_core::FactResult::reference_captured`]).
    pub reference_captured: bool,
    /// Wall time outside the search — set-up and the winner's final
    /// re-estimate — seconds ([`PhaseTimers::setup_ns`]).
    pub setup_s: f64,
    /// Wall time spent compiling candidates, seconds
    /// ([`PhaseTimers::compile_ns`]).
    pub compile_s: f64,
    /// Wall time spent proving candidates equivalent to their parents,
    /// proved or not, seconds ([`PhaseTimers::prove_ns`]).
    pub prove_s: f64,
    /// Wall time spent deriving unrolled candidates' profiles from their
    /// parents' counts, seconds ([`PhaseTimers::derive_ns`]).
    pub derive_s: f64,
    /// Unrolled candidates simulated (not proved, or their parent was
    /// never profiled).
    pub unroll_simulated: u64,
    /// Wall time spent simulating (verification and profiling), seconds
    /// ([`PhaseTimers::simulate_ns`]).
    pub simulate_s: f64,
    /// Wall time spent scheduling and estimating, seconds
    /// ([`PhaseTimers::estimate_ns`]).
    pub estimate_s: f64,
    /// The list-scheduling share of `estimate_s`, seconds
    /// ([`PhaseTimers::schedule_ns`]).
    pub schedule_s: f64,
    /// Search time outside candidate evaluation and building — memo
    /// lookups, hashing, dedup and selection — seconds
    /// ([`PhaseTimers::expand_ns`]).
    pub expand_s: f64,
    /// Wall time spent building candidate functions, seconds
    /// ([`PhaseTimers::build_ns`]).
    pub build_s: f64,
    /// What the run returned: the path, best score and memo counters.
    pub outcome: Outcome,
    /// The same job again, on the cache the cold run filled.
    pub warm: Warm,
    /// The job on retraced traces, on the cache the cold run filled.
    pub retraced: Retraced,
}

/// The parts of a run's result a warm rerun must repeat, plus its
/// expansion counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    /// Steps on the reported path (`FactResult::applied`).
    pub applied: usize,
    /// A hash of the reported path's step descriptions, in order.
    pub applied_digest: u64,
    /// The objective's score of the result's estimate.
    pub best_score: f64,
    /// Parent expansions the expansion memo answered
    /// (`FactResult::neighborhoods_memoized`).
    pub neighborhoods_memoized: u64,
    /// Neighbourhoods built (`FactResult::neighborhoods_built`).
    pub neighborhoods_built: u64,
}

impl Outcome {
    fn of(r: &FactResult, config: &FactConfig) -> Outcome {
        let mut h = ContextHasher::new(0x0A99_11ED);
        for step in &r.applied {
            h.write_bytes(step.as_bytes());
        }
        Outcome {
            applied: r.applied.len(),
            applied_digest: h.finish(),
            best_score: config.objective.score(&r.estimate),
            neighborhoods_memoized: r.neighborhoods_memoized,
            neighborhoods_built: r.neighborhoods_built,
        }
    }
}

/// The warm rerun of one benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct Warm {
    /// Wall-clock time of the rerun, seconds.
    pub wall_s: f64,
    /// Candidate evaluations of the rerun.
    pub evaluated: usize,
    /// Of them, answered by the cache.
    pub cache_hits: usize,
    /// What the rerun returned.
    pub outcome: Outcome,
}

/// The retraced rerun of one benchmark: its traces plus an input no
/// program reads ([`retraced`]), on the cache the cold run filled, and
/// the same traces with no cache, which the rerun must match.
#[derive(Clone, Copy, Debug, Default)]
pub struct Retraced {
    /// Wall-clock time of the rerun, seconds.
    pub wall_s: f64,
    /// Candidate evaluations of the rerun.
    pub evaluated: usize,
    /// Of them, answered by the cache (only re-scorings within the run:
    /// the cold run's scores are under other traces).
    pub cache_hits: usize,
    /// Operand swaps that inherited their parent's evaluation.
    pub inherited: u64,
    /// Children proved equivalent to their parent, search inputs not
    /// included ([`CandidateCounts::proved`] summed over kinds).
    pub proved: u64,
    /// Unrolled candidates whose profile was derived.
    pub derived: u64,
    /// Candidates simulated, search inputs included.
    pub simulated: u64,
    /// Candidates whose swap or proof verdict came from their record
    /// (`FactResult::verdicts_memoized`).
    pub verdicts_memoized: u64,
    /// Wall time proving, seconds ([`PhaseTimers::prove_ns`]).
    pub prove_s: f64,
    /// Wall time building candidate functions, seconds
    /// ([`PhaseTimers::build_ns`]).
    pub build_s: f64,
    /// What the rerun returned.
    pub outcome: Outcome,
    /// Candidate evaluations of the run without a cache.
    pub uncached_evaluated: usize,
    /// What the run without a cache returned.
    pub uncached: Outcome,
}

/// `traces` with one more input, `nonce`, on every vector: no program
/// reads it, so every run behaves as on `traces`, but the evaluation
/// context differs and no cached score applies.
pub fn retraced(traces: &TraceSet) -> TraceSet {
    TraceSet::new(
        traces
            .vectors
            .iter()
            .map(|v| {
                let mut v = v.clone();
                v.insert("nonce".to_string(), 1);
                v
            })
            .collect(),
    )
}

/// One full measurement pass: every Table 2 benchmark, fresh cache each.
#[derive(Clone, Debug)]
pub struct SearchPerf {
    /// Label for the configuration measured (e.g. `default`).
    pub mode: String,
    /// Evaluation budget per benchmark (`SearchConfig::max_evaluations`).
    pub budget: usize,
    /// Per-benchmark measurements.
    pub suites: Vec<SuitePerf>,
}

impl SearchPerf {
    /// Total evaluations across all suites.
    pub fn total_evaluated(&self) -> usize {
        self.suites.iter().map(|s| s.evaluated).sum()
    }

    /// Total wall time across all suites, seconds.
    pub fn total_wall_s(&self) -> f64 {
        self.suites.iter().map(|s| s.wall_s).sum()
    }

    /// Aggregate evaluations/sec (total evals over total wall time).
    pub fn total_evals_per_sec(&self) -> f64 {
        let w = self.total_wall_s();
        if w > 0.0 {
            self.total_evaluated() as f64 / w
        } else {
            0.0
        }
    }
}

/// Runs the search-throughput measurement over the §5 suite with the
/// given configuration, labeled `mode` in the report.
///
/// Each benchmark gets a fresh [`EvalCache`] so hit rates reflect
/// within-run reuse only (cross-run reuse would make the numbers depend
/// on measurement order); its warm and retraced reruns reuse that cache.
pub fn run_with(mode: &str, config: &FactConfig) -> SearchPerf {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let mut suites = Vec::new();
    for b in suite(&lib) {
        let cache = EvalCache::default();
        let timers = PhaseTimers::default();
        let hooks = OptimizeHooks {
            cache: Some(&cache),
            stop: None,
            timers: Some(&timers),
        };
        let run_on = |traces, hooks| {
            let t0 = Instant::now();
            let r = optimize_with(
                &b.function,
                &lib,
                &rules,
                &b.allocation,
                traces,
                &tlib,
                config,
                hooks,
            );
            (r, t0.elapsed().as_secs_f64())
        };
        let run = |hooks| run_on(&b.traces, hooks);
        let (r, wall_s) = run(hooks);
        let (evaluated, cache_hits, c, reference_captured) = match &r {
            Ok(r) => (
                r.evaluated,
                r.cache_hits,
                r.candidates,
                r.reference_captured,
            ),
            Err(_) => (0, 0, CandidateCounts::default(), false),
        };
        let cs = cache.stats();
        let outcome = r
            .as_ref()
            .map_or(Outcome::default(), |r| Outcome::of(r, config));
        let (warm_r, warm_wall_s) = run(OptimizeHooks {
            timers: None,
            ..hooks
        });
        let warm = match &warm_r {
            Ok(w) => Warm {
                wall_s: warm_wall_s,
                evaluated: w.evaluated,
                cache_hits: w.cache_hits,
                outcome: Outcome::of(w, config),
            },
            Err(_) => Warm {
                wall_s: warm_wall_s,
                ..Warm::default()
            },
        };
        let traces = retraced(&b.traces);
        let retimers = PhaseTimers::default();
        let (re_r, re_wall_s) = run_on(
            &traces,
            OptimizeHooks {
                timers: Some(&retimers),
                ..hooks
            },
        );
        let (plain, _) = run_on(&traces, OptimizeHooks::default());
        let mut retraced = Retraced {
            wall_s: re_wall_s,
            prove_s: retimers.prove_ns.load(Ordering::Relaxed) as f64 / 1e9,
            build_s: retimers.build_ns.load(Ordering::Relaxed) as f64 / 1e9,
            ..Retraced::default()
        };
        if let (Ok(re), Ok(plain)) = (&re_r, &plain) {
            let c = &re.candidates;
            retraced = Retraced {
                evaluated: re.evaluated,
                cache_hits: re.cache_hits,
                inherited: c.inherited_total(),
                proved: c.proved.iter().sum(),
                derived: c.derived_total(),
                simulated: c.simulated_total(),
                verdicts_memoized: re.verdicts_memoized,
                outcome: Outcome::of(re, config),
                uncached_evaluated: plain.evaluated,
                uncached: Outcome::of(plain, config),
                ..retraced
            };
        }
        suites.push(SuitePerf {
            name: b.name,
            evaluated,
            cache_hits,
            wall_s,
            evals_per_sec: if wall_s > 0.0 {
                evaluated as f64 / wall_s
            } else {
                0.0
            },
            cache_hit_rate: cs.hit_rate(),
            inherited: c.inherited_total(),
            proved: c.proved_total(),
            derived: c.derived_total(),
            simulated: c.simulated_total(),
            reference_captured,
            setup_s: timers.setup_ns.load(Ordering::Relaxed) as f64 / 1e9,
            compile_s: timers.compile_ns.load(Ordering::Relaxed) as f64 / 1e9,
            prove_s: timers.prove_ns.load(Ordering::Relaxed) as f64 / 1e9,
            derive_s: timers.derive_ns.load(Ordering::Relaxed) as f64 / 1e9,
            unroll_simulated: c.simulated[TransformKind::LoopUnroll.index()],
            simulate_s: timers.simulate_ns.load(Ordering::Relaxed) as f64 / 1e9,
            estimate_s: timers.estimate_ns.load(Ordering::Relaxed) as f64 / 1e9,
            schedule_s: timers.schedule_ns.load(Ordering::Relaxed) as f64 / 1e9,
            expand_s: timers.expand_ns.load(Ordering::Relaxed) as f64 / 1e9,
            build_s: timers.build_ns.load(Ordering::Relaxed) as f64 / 1e9,
            outcome,
            warm,
            retraced,
        });
    }
    SearchPerf {
        mode: mode.to_string(),
        budget: config.search.max_evaluations,
        suites,
    }
}

/// The standard measurement configuration: defaults with the given
/// per-benchmark evaluation budget, single-threaded so evals/sec
/// reflects per-candidate cost rather than core count.
pub fn standard_config(budget: usize) -> FactConfig {
    let mut config = FactConfig::default();
    config.search.max_evaluations = budget;
    config.search.threads = 1;
    config
}

/// One [`Outcome`] as JSON members (no braces).
fn outcome_json(o: &Outcome) -> String {
    format!(
        "\"applied\": {}, \"applied_digest\": \"{:016x}\", \"best_score\": {}, \
         \"neighborhoods_memoized\": {}, \"neighborhoods_built\": {}",
        o.applied, o.applied_digest, o.best_score, o.neighborhoods_memoized, o.neighborhoods_built
    )
}

/// One [`Retraced`] as a JSON object.
fn retraced_json(r: &Retraced) -> String {
    format!(
        "{{\"wall_s\": {:.4}, \"evaluated\": {}, \"cache_hits\": {}, \"inherited\": {}, \
         \"proved\": {}, \"derived\": {}, \"simulated\": {}, \"verdicts_memoized\": {}, \
         \"prove_s\": {:.4}, \"build_s\": {:.4}, {}, \
         \"uncached\": {{\"evaluated\": {}, {}}}}}",
        r.wall_s,
        r.evaluated,
        r.cache_hits,
        r.inherited,
        r.proved,
        r.derived,
        r.simulated,
        r.verdicts_memoized,
        r.prove_s,
        r.build_s,
        outcome_json(&r.outcome),
        r.uncached_evaluated,
        outcome_json(&r.uncached),
    )
}

/// Renders one or more measurement passes as a JSON document.
pub fn to_json(passes: &[SearchPerf]) -> String {
    let mut out = String::from("{\n  \"bench\": \"search\",\n  \"passes\": [\n");
    for (pi, p) in passes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"mode\": \"{}\",\n      \"budget\": {},\n      \"suites\": [\n",
            p.mode, p.budget
        ));
        for (i, s) in p.suites.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"evaluated\": {}, \"cache_hits\": {}, \
                 \"wall_s\": {:.4}, \"evals_per_sec\": {:.1}, \"cache_hit_rate\": {:.4}, \
                 \"inherited\": {}, \"proved\": {}, \"derived\": {}, \"simulated\": {}, \
                 \"reference_captured\": {}, \
                 \"setup_s\": {:.4}, \"compile_s\": {:.4}, \"prove_s\": {:.4}, \"derive_s\": {:.4}, \
                 \"unroll_simulated\": {}, \"simulate_s\": {:.4}, \"estimate_s\": {:.4}, \
                 \"schedule_s\": {:.4}, \"expand_s\": {:.4}, \"build_s\": {:.4}, {}, \
                 \"warm\": {{\"wall_s\": {:.4}, \"evaluated\": {}, \"cache_hits\": {}, {}}}, \
                 \"retraced\": {}}}{}\n",
                s.name,
                s.evaluated,
                s.cache_hits,
                s.wall_s,
                s.evals_per_sec,
                s.cache_hit_rate,
                s.inherited,
                s.proved,
                s.derived,
                s.simulated,
                s.reference_captured,
                s.setup_s,
                s.compile_s,
                s.prove_s,
                s.derive_s,
                s.unroll_simulated,
                s.simulate_s,
                s.estimate_s,
                s.schedule_s,
                s.expand_s,
                s.build_s,
                outcome_json(&s.outcome),
                s.warm.wall_s,
                s.warm.evaluated,
                s.warm.cache_hits,
                outcome_json(&s.warm.outcome),
                retraced_json(&s.retraced),
                if i + 1 < p.suites.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "      ],\n      \"total_evaluated\": {},\n      \"total_wall_s\": {:.4},\n      \
             \"total_evals_per_sec\": {:.1}\n    }}{}\n",
            p.total_evaluated(),
            p.total_wall_s(),
            p.total_evals_per_sec(),
            if pi + 1 < passes.len() { "," } else { "" }
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
        let p = run_with("smoke", &standard_config(8));
        assert_eq!(p.suites.len(), 6);
        assert!(p.total_evaluated() > 0);
        assert!(p.total_wall_s() > 0.0);
        for s in &p.suites {
            assert!(
                s.schedule_s <= s.estimate_s,
                "{}: scheduling is a subset of estimation",
                s.name
            );
            assert!(
                0.0 <= s.expand_s && s.expand_s <= s.wall_s,
                "{}: expansion is a share of the run",
                s.name
            );
            assert!(
                0.0 <= s.prove_s && s.prove_s <= s.wall_s,
                "{}: proving is a share of the run",
                s.name
            );
            assert!(
                0.0 <= s.derive_s && s.derive_s <= s.wall_s,
                "{}: deriving is a share of the run",
                s.name
            );
            assert!(
                0.0 <= s.setup_s && s.setup_s <= s.wall_s,
                "{}: set-up is a share of the run",
                s.name
            );
            assert!(
                0.0 <= s.build_s && s.build_s <= s.wall_s,
                "{}: building is a share of the run",
                s.name
            );
            let (cold, warm) = (&s.outcome, &s.warm.outcome);
            assert_eq!(s.warm.evaluated, s.evaluated, "{}", s.name);
            assert_eq!(s.warm.cache_hits, s.warm.evaluated, "{}", s.name);
            assert_eq!(warm.applied_digest, cold.applied_digest, "{}", s.name);
            assert_eq!(warm.best_score.to_bits(), cold.best_score.to_bits());
            assert_eq!(
                warm.neighborhoods_built, warm.applied as u64,
                "{}: a warm rerun builds only along its path",
                s.name
            );
            assert_eq!(
                s.evaluated as u64,
                s.inherited + s.proved + s.derived + s.simulated + s.cache_hits as u64,
                "{}: every evaluation is accounted for",
                s.name
            );
            assert!(
                !s.reference_captured,
                "{}: a fresh suite run captures no equivalence reference",
                s.name
            );
            let re = &s.retraced;
            assert_eq!(re.evaluated, re.uncached_evaluated, "{}", s.name);
            assert_eq!(
                re.outcome.applied_digest, re.uncached.applied_digest,
                "{}",
                s.name
            );
            assert_eq!(
                re.outcome.best_score.to_bits(),
                re.uncached.best_score.to_bits(),
                "{}",
                s.name
            );
            assert_eq!(
                re.verdicts_memoized,
                re.inherited + re.proved + re.derived,
                "{}: every verdict the retraced run needs, the cold run left in its record",
                s.name
            );
        }
        let json = to_json(&[p]);
        assert!(json.contains("\"bench\": \"search\""));
        assert!(json.contains("\"mode\": \"smoke\""));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
