//! The production simulation pass.
//!
//! The paper takes branch probabilities from simulating the behavior on
//! the typical traces (§4.1), so profiling a function is one simulation
//! job: [`simulate`] runs a compiled function on the [`CompiledFn`]
//! interpreter from zeroed memories, each distinct trace vector once,
//! weighted by its multiplicity. Its profiles are identical to the
//! interpreter oracle [`crate::profile`]. Whether a rewrite preserves
//! the behavior is not decided here: the search accepts only rewrites it
//! proves (`fact_ir::prove_equivalent`), and [`crate::check_equivalence`]
//! is the oracle the proofs are tested against.

use crate::compiled::{CompiledFn, OddCounts};
use crate::interp::{ExecError, DEFAULT_STEP_LIMIT};
use crate::profile::{BranchProfile, ProfileAccum, ProfileCounts};
use crate::trace::TraceSet;

/// What one [`simulate`] call observed.
#[derive(Debug)]
pub struct Simulation {
    /// The branch profile over the traces, from zero-initialized
    /// memories.
    pub profile: BranchProfile,
    /// The counts `profile` was computed from, split by iteration parity
    /// in every parity loop.
    pub counts: ProfileCounts,
    /// Lanes of the pass: the distinct trace vectors.
    pub lanes: usize,
    /// The most work one successful lane did; `None` when some lane ran
    /// into the step limit.
    pub steps: Option<StepBound>,
    /// Trace vectors the call covered: logical vectors, so a lane of
    /// multiplicity *k* counts *k*.
    pub vectors: u64,
}

/// The most work any one successful lane of a [`simulate`] call did.
///
/// A rewrite that provably follows the corresponding paths of its
/// function (see `fact_ir::prove_equivalent`), running up to `growth`
/// more ops per block entry of the function over at most `copies` block
/// entries of its own, is bounded by [`StepBound::grown`]: when that
/// stays within the step limit every pass runs under, the rewrite fails
/// on exactly the lanes its function failed on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepBound {
    /// Most ops one lane executed.
    pub ops: u64,
    /// Most block entries one lane made.
    pub entries: u64,
}

impl StepBound {
    /// The bound of a function that takes the corresponding paths with
    /// at most `growth` more ops per block entry, each entry standing for
    /// at most `copies` of its own: `ops + entries × growth` ops over
    /// `entries × copies` entries. `None` when that could exceed the step
    /// limit.
    pub fn grown(self, growth: u64, copies: u64) -> Option<StepBound> {
        let ops = self.entries.checked_mul(growth)?.checked_add(self.ops)?;
        let entries = self.entries.checked_mul(copies)?;
        (ops <= DEFAULT_STEP_LIMIT).then_some(StepBound { ops, entries })
    }

    /// The bound over these lanes and one that ran `ops` ops over
    /// `entries` block entries.
    fn joined(self, ops: u64, entries: u64) -> StepBound {
        StepBound {
            ops: self.ops.max(ops),
            entries: self.entries.max(entries),
        }
    }
}

/// Profiles `cf` over `traces` from zeroed memories: one pass, each
/// distinct vector run once as a lane weighted by its multiplicity.
///
/// # Examples
///
/// ```
/// use fact_sim::{generate, simulate, CompiledFn, InputSpec};
///
/// let g = fact_lang::compile("proc f(a) { var y = 0; if (0 < a) { y = a; } out y = y; }")?;
/// let traces = generate(&[("a".into(), InputSpec::Uniform { lo: -9, hi: 9 })], 64, 3);
/// let sim = simulate(&CompiledFn::compile(&g), &traces);
/// assert_eq!(sim.profile.runs_ok, 64);
/// // 64 vectors over at most 19 distinct values of `a`, each run once.
/// assert_eq!(sim.vectors, 64);
/// assert!(sim.lanes <= 19);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(cf: &CompiledFn, traces: &TraceSet) -> Simulation {
    let mut accum = ProfileAccum::new(cf.num_blocks());
    let dl = traces.dedup_lanes();
    let (mut steps, mut limited) = (StepBound::default(), false);
    let mut vectors = 0;
    let mut odd = OddCounts::for_fn(cf);
    for k in 0..dl.len() {
        let (i, weight) = dl.get(k);
        let r = cf.execute_counted(&traces.vectors[i], DEFAULT_STEP_LIMIT, Some(&mut odd));
        vectors += weight as u64;
        match &r {
            Ok(r) => steps = steps.joined(r.ops_executed, r.block_visits.iter().sum()),
            Err(e) => limited |= matches!(e, ExecError::StepLimitExceeded { .. }),
        }
        accum.record(&r, weight, &odd);
    }
    let counts = accum.finish(&cf.parity_loops);
    Simulation {
        profile: counts.profile(),
        counts,
        lanes: dl.len(),
        steps: (!limited).then_some(steps),
        vectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use crate::trace::{generate, InputSpec};
    use fact_ir::Function;
    use fact_lang::compile;
    use std::collections::HashMap;

    const LOOP_SRC: &str = "proc f(a, n) { var i = 0; var s = 0; \
         while (i < n) { if (a < i) { s = s + i; } else { s = s - 1; } i = i + 1; } \
         out s = s; }";

    /// Tiny ranges: the 50 vectors collapse to at most 12 lanes.
    fn duplicate_heavy() -> TraceSet {
        generate(
            &[
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 2 }),
                ("n".to_string(), InputSpec::Uniform { lo: 0, hi: 3 }),
            ],
            50,
            21,
        )
    }

    /// `simulate` agrees with the oracle: the profile with the
    /// interpreter's `profile`, the step bound with the interpreter's,
    /// lane by lane. Returns the call's result.
    fn assert_matches_oracle(g: &Function, traces: &TraceSet) -> Simulation {
        let sim = simulate(&CompiledFn::compile(g), traces);
        assert_eq!(sim.profile, profile(g, traces), "profile");
        assert_eq!(sim.counts.profile(), sim.profile, "counts");
        let steps =
            traces.vectors.iter().try_fold(
                StepBound::default(),
                |s, v| match crate::interp::execute(g, v) {
                    Ok(r) => Some(s.joined(r.ops_executed, r.block_visits.iter().sum())),
                    Err(ExecError::StepLimitExceeded { .. }) => None,
                    Err(_) => Some(s),
                },
            );
        assert_eq!(sim.steps, steps, "step bound");
        sim
    }

    #[test]
    fn step_bounds_grow_within_the_limit_only() {
        let b = StepBound {
            ops: 1_000,
            entries: 10,
        };
        assert_eq!(b.grown(0, 1), Some(b));
        assert_eq!(
            b.grown(3, 2),
            Some(StepBound {
                ops: 1_030,
                entries: 20
            })
        );
        let near = StepBound {
            ops: DEFAULT_STEP_LIMIT - 5,
            entries: 5,
        };
        assert!(near.grown(1, 1).is_some());
        assert_eq!(near.grown(2, 1), None);
        assert_eq!(b.grown(u64::MAX, 1), None, "overflow is not a bound");
        assert_eq!(b.grown(0, u64::MAX), None, "overflow is not a bound");
    }

    #[test]
    fn profiles_match_the_oracle() {
        let t = duplicate_heavy();
        for src in [
            LOOP_SRC,
            "proc f(a, n) { out s = a * n + 1; out t = a - n; }",
            // Memories start zeroed.
            "proc f(a, n) { array x[4]; var y = a; if (x[1] > 0) { y = 0; } x[0] = a; out y = y + n; }",
        ] {
            assert_matches_oracle(&compile(src).unwrap(), &t);
        }
    }

    #[test]
    fn failed_runs_are_weighted_like_the_oracle() {
        // Out-of-bounds reads for i >= 4: failures must be weighted by
        // their dedup multiplicity.
        let f = compile("proc f(i) { array x[4]; var v = x[i]; out y = v; }").unwrap();
        let t = generate(
            &[("i".to_string(), InputSpec::Uniform { lo: 0, hi: 6 })],
            30,
            9,
        );
        let p = assert_matches_oracle(&f, &t).profile;
        assert!(p.runs_failed > 0 && p.runs_ok > 0);

        // Step-limit failures: n = 1 never leaves the loop, so its lane
        // (two duplicate vectors) runs into the default step limit. Six
        // explicit vectors keep the 2M-step lanes few; the oracle
        // comparison is direct for the same reason.
        let f =
            compile("proc f(n) { var i = 1; while (i > 0) { i = i * n; } out i = i; }").unwrap();
        let t = TraceSet::new(
            [1, -1, 0, 1, 0, -1]
                .map(|n| HashMap::from([("n".to_string(), n)]))
                .to_vec(),
        );
        let oracle = profile(&f, &t);
        assert_eq!((oracle.runs_ok, oracle.runs_failed), (4, 2));
        let sim = simulate(&CompiledFn::compile(&f), &t);
        assert_eq!(sim.profile, oracle);
        assert_eq!(sim.steps, None, "a lane hit the limit");
        assert_eq!(sim.vectors, 6);
    }

    #[test]
    fn vectors_cover_every_vector_once() {
        let t = duplicate_heavy();
        let lanes = t.dedup_lanes().len();
        assert!(lanes < t.len(), "the traces repeat vectors");
        for src in [
            "proc f(a, n) { out s = a * n + 1; }",
            "proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }",
        ] {
            let sim = simulate(&CompiledFn::compile(&compile(src).unwrap()), &t);
            assert_eq!((sim.lanes, sim.vectors), (lanes, 50), "{src}");
        }
    }
}
