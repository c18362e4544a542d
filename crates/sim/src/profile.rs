//! Profiling: branch probabilities from typical input traces.
//!
//! Per §4.1: "The first step in partitioning is the derivation of
//! transition probabilities … by simulating the CDFG representing the
//! input behavior with the input traces provided." The resulting
//! [`BranchProfile`] is consumed by the scheduler (edge probabilities on
//! the STG) and by the estimator (Markov analysis).

use crate::interp::{execute_with, BranchStats, ExecConfig, ExecError, ExecResult};
use crate::trace::TraceSet;
use fact_ir::{BlockId, Function, Terminator};
use std::collections::HashMap;

/// Branch-probability profile of a behavior.
///
/// For every block ending in a conditional branch, the probability that
/// the branch is taken. Blocks never observed branching fall back to 0.5.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchProfile {
    probs: HashMap<usize, f64>,
    visits: HashMap<usize, f64>,
    /// Number of trace vectors that executed successfully.
    pub runs_ok: usize,
    /// Number of trace vectors that failed (e.g. step limit); excluded.
    pub runs_failed: usize,
}

impl BranchProfile {
    /// A profile with no observations (all branches 0.5).
    pub fn uniform() -> Self {
        BranchProfile {
            probs: HashMap::new(),
            visits: HashMap::new(),
            runs_ok: 0,
            runs_failed: 0,
        }
    }

    /// Builds a profile from explicit per-block probabilities.
    pub fn from_probs(probs: HashMap<usize, f64>) -> Self {
        BranchProfile {
            probs,
            visits: HashMap::new(),
            runs_ok: 0,
            runs_failed: 0,
        }
    }

    /// Average executions of block `b` per run, if observed. Exact by
    /// linearity of expectation, so visit-weighted cycle/energy accounting
    /// is immune to the first-order-Markov trip-count distortion.
    pub fn block_visits(&self, b: BlockId) -> Option<f64> {
        self.visits.get(&b.index()).copied()
    }

    /// Overrides the visit count of one block (tests, paper pinning).
    pub fn set_visits(&mut self, b: BlockId, v: f64) {
        self.visits.insert(b.index(), v.max(0.0));
    }

    /// The probability that the branch terminating `block` is taken.
    ///
    /// Returns 0.5 for unobserved branches — the uninformed prior.
    pub fn prob_true(&self, block: BlockId) -> f64 {
        self.probs.get(&block.index()).copied().unwrap_or(0.5)
    }

    /// Overrides the probability of one block's branch (used in tests and
    /// to pin the paper's quoted probabilities exactly).
    pub fn set_prob(&mut self, block: BlockId, p: f64) {
        self.probs.insert(block.index(), p.clamp(0.0, 1.0));
    }

    /// Iterates over `(block index, probability)` pairs with observations.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().map(|(&b, &p)| (b, p))
    }
}

/// Profiles `f` by executing every vector in `traces`.
///
/// Vectors that fail to execute (step limit, missing inputs, out-of-bounds
/// addresses) are counted in `runs_failed` and otherwise ignored, so a few
/// degenerate random vectors cannot poison a profile.
pub fn profile(f: &Function, traces: &TraceSet) -> BranchProfile {
    profile_with(f, traces, &ExecConfig::default())
}

/// [`profile`] with an explicit interpreter configuration.
///
/// This is the *reference* profiling path: it runs the tree-walking
/// interpreter one vector at a time and is what the profile of
/// [`crate::simulate`] is property-tested against.
pub fn profile_with(f: &Function, traces: &TraceSet, config: &ExecConfig) -> BranchProfile {
    let mut accum = ProfileAccum::new(f.num_blocks());
    for v in &traces.vectors {
        accum.record(&execute_with(f, v, config), 1);
    }
    accum.finish(
        f.block_ids()
            .filter(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .map(|b| b.index()),
    )
}

/// Weighted accumulator of per-run statistics into a [`BranchProfile`] —
/// the single implementation behind every profiling path (the
/// interpreter oracle and both engines of [`crate::simulate`]). A run
/// recorded with weight `w` contributes exactly as `w` identical scalar
/// runs would, so deduplicated profiles stay bit-identical to
/// vector-at-a-time ones.
pub(crate) struct ProfileAccum {
    stats: BranchStats,
    visit_totals: Vec<u64>,
    ok: usize,
    failed: usize,
}

impl ProfileAccum {
    /// A fresh accumulator for a function with `num_blocks` blocks.
    pub(crate) fn new(num_blocks: usize) -> ProfileAccum {
        ProfileAccum {
            stats: BranchStats::default(),
            visit_totals: vec![0; num_blocks],
            ok: 0,
            failed: 0,
        }
    }

    /// Records one execution outcome observed `weight` times. Failed runs
    /// are tallied and otherwise ignored, as in [`profile`].
    pub(crate) fn record(&mut self, r: &Result<ExecResult, ExecError>, weight: usize) {
        match r {
            Ok(r) => {
                let w = weight as u64;
                for (&b, &(t, f)) in &r.branches.counts {
                    let e = self.stats.counts.entry(b).or_insert((0, 0));
                    e.0 += t * w;
                    e.1 += f * w;
                }
                for (i, &c) in r.block_visits.iter().enumerate() {
                    self.visit_totals[i] += c * w;
                }
                self.ok += weight;
            }
            Err(_) => self.failed += weight,
        }
    }

    /// Records `weight` successful runs of a single-block function: each
    /// entered block `entry` once and branched nowhere. Arithmetic is
    /// identical to [`ProfileAccum::record`] on those runs' results.
    pub(crate) fn record_straightline_runs(&mut self, entry: usize, weight: usize) {
        self.visit_totals[entry] += weight as u64;
        self.ok += weight;
    }

    /// Assembles the profile; `branch_blocks` enumerates the indices of
    /// blocks ending in a conditional branch.
    pub(crate) fn finish(self, branch_blocks: impl IntoIterator<Item = usize>) -> BranchProfile {
        let mut probs = HashMap::new();
        for b in branch_blocks {
            if let Some(p) = self.stats.prob_true(b) {
                probs.insert(b, p);
            }
        }
        let visits = if self.ok > 0 {
            self.visit_totals
                .iter()
                .enumerate()
                .map(|(i, &t)| (i, t as f64 / self.ok as f64))
                .collect()
        } else {
            HashMap::new()
        };
        BranchProfile {
            probs,
            visits,
            runs_ok: self.ok,
            runs_failed: self.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, InputSpec};
    use fact_lang::compile;

    #[test]
    fn loop_probability_reflects_trip_count() {
        // A loop with a fixed bound of 49 closes 49 out of every 50 visits
        // to the header: probability 0.98, the paper's TEST1 figure.
        let f =
            compile("proc f(n) { var i = 0; while (i < 49) { i = i + 1; } out i = i; }").unwrap();
        let traces = generate(&[("n".to_string(), InputSpec::Constant(0))], 10, 3);
        let p = profile(&f, &traces);
        let header = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .unwrap();
        assert!((p.prob_true(header) - 0.98).abs() < 1e-9);
        assert_eq!(p.runs_ok, 10);
    }

    #[test]
    fn if_probability_matches_input_distribution() {
        let f =
            compile("proc f(a) { var y = 0; if (a < 37) { y = 1; } else { y = 2; } out y = y; }")
                .unwrap();
        // a uniform in [0, 99]: P(a < 37) = 0.37, the paper's TEST1 figure.
        let traces = generate(
            &[("a".to_string(), InputSpec::Uniform { lo: 0, hi: 99 })],
            20_000,
            5,
        );
        let p = profile(&f, &traces);
        let branch_block = f
            .block_ids()
            .find(|&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .unwrap();
        let observed = p.prob_true(branch_block);
        assert!((observed - 0.37).abs() < 0.02, "observed {observed}");
    }

    #[test]
    fn unobserved_branch_defaults_to_half() {
        let p = BranchProfile::uniform();
        assert_eq!(p.prob_true(BlockId(3)), 0.5);
    }

    #[test]
    fn set_prob_clamps() {
        let mut p = BranchProfile::uniform();
        p.set_prob(BlockId(1), 1.7);
        assert_eq!(p.prob_true(BlockId(1)), 1.0);
    }

    #[test]
    fn failed_runs_are_counted_not_fatal() {
        // Nonterminating for n > 0; terminating for n <= 0.
        let f =
            compile("proc f(n) { var i = 1; while (i > 0) { i = i + n; } out i = i; }").unwrap();
        let traces = generate(
            &[("n".to_string(), InputSpec::Uniform { lo: -1, hi: 1 })],
            30,
            9,
        );
        let cfg = ExecConfig {
            step_limit: 10_000,
            ..Default::default()
        };
        let p = profile_with(&f, &traces, &cfg);
        assert!(p.runs_failed > 0);
        assert!(p.runs_ok > 0);
    }
}
