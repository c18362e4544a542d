//! Profiling: branch probabilities from typical input traces.
//!
//! Per §4.1: "The first step in partitioning is the derivation of
//! transition probabilities … by simulating the CDFG representing the
//! input behavior with the input traces provided." The resulting
//! [`BranchProfile`] is consumed by the scheduler (edge probabilities on
//! the STG) and by the estimator (Markov analysis).

use crate::compiled::{OddCounts, ParityLoop};
use crate::interp::{execute_with, ExecConfig, ExecError, ExecResult};
use crate::trace::TraceSet;
use fact_ir::{BlockId, Function, UnrollMap};
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
        accum.record(&execute_with(f, v, config), 1, &OddCounts::default());
    }
    accum.finish(&[]).profile()
}

/// The integer counts a [`BranchProfile`] is computed from, with the
/// counts of every parity loop split by iteration parity.
///
/// A parity loop is an innermost loop with one latch and one exit edge,
/// from its header ([`fact_ir::NaturalLoop::is_simple`]): the loops
/// loop unrolling copies. Its iterations are counted from 0 on each
/// entry. Unrolling one by 2 leaves the original blocks the even
/// iterations and gives the odd ones to the copies, so the unrolled
/// function's counts follow from these without simulating it
/// ([`ProfileCounts::unrolled`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileCounts {
    /// Per block: visits over the successful runs.
    visits: Vec<u64>,
    /// Per block: `(taken, not taken)` over the successful runs.
    branches: Vec<(u64, u64)>,
    /// Per parity loop, by header: its odd iterations' counts.
    loops: Vec<OddIterations>,
    ok: usize,
    failed: usize,
}

/// One parity loop's counts on odd iterations.
#[derive(Clone, Debug, PartialEq, Eq)]
struct OddIterations {
    shape: ParityLoop,
    /// Per block of `shape.blocks`: visits on odd iterations.
    visits: Vec<u64>,
    /// Per block of `shape.blocks`: `(taken, not taken)` on odd
    /// iterations.
    branches: Vec<(u64, u64)>,
}

impl ProfileCounts {
    /// The branch profile: each observed branch's taken share, and each
    /// block's visits per successful run.
    pub fn profile(&self) -> BranchProfile {
        let probs = self
            .branches
            .iter()
            .enumerate()
            .filter(|(_, &(t, f))| t + f > 0)
            .map(|(b, &(t, f))| (b, t as f64 / (t + f) as f64))
            .collect();
        let visits = if self.ok > 0 {
            self.visits
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

    /// The counts of this function with the parity loop `map.header`
    /// unrolled by 2 as `map` says, into a function of `num_blocks`
    /// blocks: each loop block keeps its even-iteration counts and its
    /// copy takes the odd ones; every other block, every other parity
    /// loop and the run tallies stay. The unrolled loop has two exits,
    /// so it is no parity loop any more. `None` when `map` does not copy
    /// exactly the blocks of a parity loop into new blocks.
    ///
    /// Exact when the unrolled function takes the corresponding path on
    /// every run (`fact_ir::prove_equivalent` with the same map): the
    /// result is then what [`crate::simulate`] would count.
    pub fn unrolled(&self, map: &UnrollMap, num_blocks: usize) -> Option<ProfileCounts> {
        let n = self.visits.len();
        let i = self
            .loops
            .iter()
            .position(|l| l.shape.header == map.header.index())?;
        let l = &self.loops[i];
        let mut originals: Vec<usize> = map.copies.iter().map(|(b, _)| b.index()).collect();
        originals.sort_unstable();
        if originals != l.shape.blocks {
            return None;
        }
        let mut visits = self.visits.clone();
        visits.resize(num_blocks, 0);
        let mut branches = self.branches.clone();
        branches.resize(num_blocks, (0, 0));
        for &(b, c) in &map.copies {
            let (b, c) = (b.index(), c.index());
            if c < n || c >= num_blocks {
                return None;
            }
            let k = l.shape.blocks.binary_search(&b).ok()?;
            let (odd, (t, f)) = (l.visits[k], l.branches[k]);
            visits[c] = odd;
            visits[b] -= odd;
            branches[c] = (t, f);
            branches[b].0 -= t;
            branches[b].1 -= f;
        }
        let mut loops = self.loops.clone();
        loops.remove(i);
        Some(ProfileCounts {
            visits,
            branches,
            loops,
            ok: self.ok,
            failed: self.failed,
        })
    }
}

/// Weighted accumulator of per-run statistics into [`ProfileCounts`] —
/// the single implementation behind every profiling path (the
/// interpreter oracle and [`crate::simulate`]). A run recorded with
/// weight `w` contributes exactly as `w` identical runs would, so
/// deduplicated profiles stay bit-identical to vector-at-a-time ones.
pub(crate) struct ProfileAccum {
    visits: Vec<u64>,
    branches: Vec<(u64, u64)>,
    /// Per block: visits and `(taken, not taken)` on odd iterations of
    /// its parity loop.
    odd_visits: Vec<u64>,
    odd_branches: Vec<(u64, u64)>,
    ok: usize,
    failed: usize,
}

impl ProfileAccum {
    /// A fresh accumulator for a function with `num_blocks` blocks.
    pub(crate) fn new(num_blocks: usize) -> ProfileAccum {
        ProfileAccum {
            visits: vec![0; num_blocks],
            branches: vec![(0, 0); num_blocks],
            odd_visits: vec![0; num_blocks],
            odd_branches: vec![(0, 0); num_blocks],
            ok: 0,
            failed: 0,
        }
    }

    /// Records one execution outcome observed `weight` times, with the
    /// run's odd-iteration counts `odd` (counting no block when the
    /// function has no parity loop). Failed runs are tallied and otherwise ignored, as
    /// in [`profile`].
    pub(crate) fn record(
        &mut self,
        r: &Result<ExecResult, ExecError>,
        weight: usize,
        odd: &OddCounts,
    ) {
        match r {
            Ok(r) => {
                let w = weight as u64;
                for (&b, &(t, f)) in &r.branches.counts {
                    let e = &mut self.branches[b];
                    e.0 += t * w;
                    e.1 += f * w;
                }
                for (i, &c) in r.block_visits.iter().enumerate() {
                    self.visits[i] += c * w;
                }
                for &b in &odd.blocks {
                    let (t, f) = odd.branches[b];
                    self.odd_visits[b] += odd.visits[b] * w;
                    let e = &mut self.odd_branches[b];
                    e.0 += t * w;
                    e.1 += f * w;
                }
                self.ok += weight;
            }
            Err(_) => self.failed += weight,
        }
    }

    /// Assembles the counts of a function whose parity loops are
    /// `loops`.
    pub(crate) fn finish(self, loops: &[ParityLoop]) -> ProfileCounts {
        let loops = loops
            .iter()
            .map(|l| OddIterations {
                visits: l.blocks.iter().map(|&b| self.odd_visits[b]).collect(),
                branches: l.blocks.iter().map(|&b| self.odd_branches[b]).collect(),
                shape: l.clone(),
            })
            .collect();
        ProfileCounts {
            visits: self.visits,
            branches: self.branches,
            loops,
            ok: self.ok,
            failed: self.failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, InputSpec};
    use fact_ir::Terminator;
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
    fn parity_counts_split_every_loop_visit() {
        // `while (i < n)` visits its header at iterations 0..=max(n, 0)
        // and leaves on the last: odd trip counts leave on odd ones.
        let f = compile(
            "proc f(a, n) { var i = 0; var s = 0; \
             while (i < n) { if (a < i) { s = s + i; } else { s = s - 1; } i = i + 1; } \
             out s = s; }",
        )
        .unwrap();
        let traces = generate(
            &[
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 2 }),
                ("n".to_string(), InputSpec::Uniform { lo: -1, hi: 5 }),
            ],
            50,
            21,
        );
        let sim = crate::simulate(&crate::CompiledFn::compile(&f), &traces, None);
        let counts = sim.counts.expect("profiled");
        assert_eq!(Some(counts.profile()), sim.profile);
        let [l] = &counts.loops[..] else {
            panic!("one parity loop")
        };
        let header = l.shape.header;
        let k = l.shape.blocks.binary_search(&header).unwrap();
        let trips: Vec<u64> = traces
            .vectors
            .iter()
            .map(|v| v["n"].max(0) as u64)
            .collect();
        assert_eq!(
            l.visits[k],
            trips.iter().map(|n| n.div_ceil(2)).sum::<u64>()
        );
        let Terminator::Branch { on_true, .. } = f.block(BlockId(header as u32)).term else {
            panic!("the header branches")
        };
        let (taken, not_taken) = l.branches[k];
        let stays = match l.shape.blocks.contains(&on_true.index()) {
            true => taken,
            false => not_taken,
        };
        let odd_exits = trips.iter().filter(|&&n| n % 2 == 1).count() as u64;
        assert_eq!(taken + not_taken - stays, odd_exits);
        assert!(odd_exits > 0 && stays > 0);
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
