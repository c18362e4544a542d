//! Pareto-frontier measurement: curve quality and search throughput
//! over the §5 suite.
//!
//! For each benchmark this runs the Pareto-mode pipeline
//! ([`fact_core::optimize_pareto_with`]) and records the frontier size,
//! the archive occupancy, a hypervolume proxy (dominated area against a
//! reference point at twice the baseline's energy and latency — a
//! stable, unitless "how much of the tradeoff box did we cover"
//! number), and evaluations/sec. The `pareto_perf` bench target writes
//! the result as `BENCH_pareto.json` so successive PRs can be compared
//! number-for-number.
//!
//! Std-only by design (the offline build has no serde/criterion): the
//! JSON is emitted by hand from a flat result struct.

use fact_core::{
    hypervolume, optimize_pareto_with, suite, EvalCache, FactConfig, OptimizeHooks, ParetoPoint,
    TransformLibrary,
};
use fact_estim::section5_library;
use std::time::Instant;

/// Pareto measurement of one suite benchmark.
#[derive(Clone, Debug)]
pub struct ParetoSuitePerf {
    /// Benchmark name (Table 2 row).
    pub name: &'static str,
    /// Nondominated (energy, latency, Vdd) design points on the final
    /// curve.
    pub frontier: usize,
    /// Structural designs held in the archive at the end of the run.
    pub archive_len: usize,
    /// Candidate evaluations performed by the search.
    pub evaluated: usize,
    /// Dominated area between the frontier and the reference point at
    /// `(2 × baseline energy, 2 × baseline latency)`, normalized by that
    /// box's area (so 0..1, bigger is better).
    pub hypervolume: f64,
    /// Wall-clock time of the whole run, seconds.
    pub wall_s: f64,
    /// `evaluated / wall_s`.
    pub evals_per_sec: f64,
}

/// One full measurement pass.
#[derive(Clone, Debug)]
pub struct ParetoPerf {
    /// Label for the configuration measured.
    pub mode: String,
    /// Evaluation budget per benchmark (`SearchConfig::max_evaluations`).
    pub budget: usize,
    /// Per-benchmark measurements.
    pub suites: Vec<ParetoSuitePerf>,
}

impl ParetoPerf {
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

/// Runs the Pareto measurement, labeled `mode` in the report. With
/// `only = Some(names)` the suite is restricted to those benchmarks (the
/// smoke gate runs Test2 and IGF).
///
/// Each benchmark gets a fresh [`EvalCache`] so numbers do not depend
/// on measurement order.
pub fn run_with(mode: &str, config: &FactConfig, only: Option<&[&str]>) -> ParetoPerf {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let mut suites = Vec::new();
    for b in suite(&lib) {
        if only.is_some_and(|names| !names.contains(&b.name)) {
            continue;
        }
        let cache = EvalCache::default();
        let hooks = OptimizeHooks {
            cache: Some(&cache),
            stop: None,
            timers: None,
        };
        let t0 = Instant::now();
        let r = optimize_pareto_with(
            &b.function,
            &lib,
            &rules,
            &b.allocation,
            &b.traces,
            &tlib,
            config,
            hooks,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let (frontier, archive_len, evaluated, hv) = match &r {
            Ok(r) => {
                // Baseline energy at its own supply voltage, matching
                // the units of the frontier points' `energy`.
                let base_energy = r.baseline.energy_vdd2 * r.baseline.vdd * r.baseline.vdd;
                let reference = ParetoPoint {
                    energy: 2.0 * base_energy,
                    latency: 2.0 * r.baseline.average_schedule_length,
                };
                let points: Vec<ParetoPoint> = r
                    .frontier
                    .iter()
                    .map(|p| ParetoPoint {
                        energy: p.energy,
                        latency: p.latency_cycles,
                    })
                    .collect();
                let box_area = reference.energy * reference.latency;
                let hv = if box_area > 0.0 {
                    hypervolume(&points, &reference) / box_area
                } else {
                    0.0
                };
                (r.frontier.len(), r.archive_len, r.evaluated, hv)
            }
            Err(_) => (0, 0, 0, 0.0),
        };
        suites.push(ParetoSuitePerf {
            name: b.name,
            frontier,
            archive_len,
            evaluated,
            hypervolume: hv,
            wall_s,
            evals_per_sec: if wall_s > 0.0 {
                evaluated as f64 / wall_s
            } else {
                0.0
            },
        });
    }
    ParetoPerf {
        mode: mode.to_string(),
        budget: config.search.max_evaluations,
        suites,
    }
}

/// The standard measurement configuration: Pareto objective, the given
/// per-benchmark evaluation budget, single-threaded so evals/sec
/// reflects per-candidate cost rather than core count (the frontier
/// itself is identical for any thread count).
pub fn standard_config(budget: usize) -> FactConfig {
    let mut config = FactConfig {
        objective: fact_core::Objective::Pareto,
        ..FactConfig::default()
    };
    config.search.max_evaluations = budget;
    config.search.threads = 1;
    config
}

/// Renders one or more measurement passes as a JSON document.
pub fn to_json(passes: &[ParetoPerf]) -> String {
    let mut out = String::from("{\n  \"bench\": \"pareto\",\n  \"passes\": [\n");
    for (pi, p) in passes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"mode\": \"{}\",\n      \"budget\": {},\n      \"suites\": [\n",
            p.mode, p.budget
        ));
        for (i, s) in p.suites.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"name\": \"{}\", \"frontier\": {}, \"archive_len\": {}, \
                 \"evaluated\": {}, \"hypervolume\": {:.4}, \"wall_s\": {:.4}, \
                 \"evals_per_sec\": {:.1}}}{}\n",
                s.name,
                s.frontier,
                s.archive_len,
                s.evaluated,
                s.hypervolume,
                s.wall_s,
                s.evals_per_sec,
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
        let p = run_with("smoke", &standard_config(60), Some(&["Test2"]));
        assert_eq!(p.suites.len(), 1);
        let s = &p.suites[0];
        assert_eq!(s.name, "Test2");
        assert!(s.frontier > 0);
        assert!(s.archive_len > 0);
        // The baseline itself sits strictly inside the 2×-baseline
        // reference box, so a nonempty frontier has positive volume.
        assert!(s.hypervolume > 0.0 && s.hypervolume <= 1.0);
        assert!(p.total_evaluated() > 0);
        let json = to_json(&[p]);
        assert!(json.contains("\"bench\": \"pareto\""));
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
