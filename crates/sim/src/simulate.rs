//! The production simulation pass.
//!
//! The paper validates every rewrite by simulating it on the typical
//! traces (§3) and takes branch probabilities from the same traces
//! (§4.1), so evaluating a candidate is one simulation job: [`simulate`]
//! verifies a compiled function against a captured [`EquivReference`]
//! and profiles it on the [`CompiledFn`] interpreter, running each
//! distinct trace vector once, weighted by its multiplicity, wherever
//! every vector starts from zeroed memories. Its verdicts and profiles
//! are identical to the interpreter oracles [`crate::check_equivalence`]
//! and [`crate::profile`].

use crate::compiled::{CompiledFn, OddCounts};
use crate::equiv::{judge, EquivReference};
use crate::interp::{ExecError, ExecResult, DEFAULT_STEP_LIMIT};
use crate::profile::{BranchProfile, ProfileAccum, ProfileCounts};
use crate::trace::{DedupLanes, TraceSet};

/// What one [`simulate`] call observed.
#[derive(Debug)]
pub struct Simulation {
    /// The branch profile over the traces, from zero-initialized
    /// memories; `None` when the function is not equivalent to the
    /// reference.
    pub profile: Option<BranchProfile>,
    /// The counts `profile` was computed from, split by iteration parity
    /// in every parity loop; `Some` exactly when `profile` is.
    pub counts: Option<ProfileCounts>,
    /// Lanes of the first pass: the distinct trace vectors when every
    /// vector starts from zeroed memories, one per vector otherwise.
    pub lanes: usize,
    /// The most work one successful lane did, over every pass of the
    /// call; `None` when some lane ran into the step limit. Complete
    /// only when `profile` is `Some` (a rejected call stops early).
    pub steps: Option<StepBound>,
    /// Trace vectors the call covered, over every pass: logical vectors,
    /// so a lane of multiplicity *k* counts *k*.
    pub vectors: u64,
}

/// The most work any one successful lane of a [`simulate`] call did.
///
/// A rewrite that provably follows the same paths as its function (see
/// `fact_ir::prove_equivalent`) but runs up to `growth` more ops per
/// block entry is bounded by [`StepBound::grown`]: when that stays within
/// the step limit every pass runs under, the rewrite fails on exactly the
/// lanes its function failed on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepBound {
    /// Most ops one lane executed.
    pub ops: u64,
    /// Most block entries one lane made.
    pub entries: u64,
}

impl StepBound {
    /// The bound of a function that takes the same paths with at most
    /// `growth` more ops per block entry: `ops + entries × growth`.
    /// `None` when that could exceed the step limit.
    pub fn grown(self, growth: u64) -> Option<StepBound> {
        let ops = self.entries.checked_mul(growth)?.checked_add(self.ops)?;
        (ops <= DEFAULT_STEP_LIMIT).then_some(StepBound {
            ops,
            entries: self.entries,
        })
    }

    /// The bound over the lanes of both `self` and `other`.
    pub fn joined(self, other: StepBound) -> StepBound {
        StepBound {
            ops: self.ops.max(other.ops),
            entries: self.entries.max(other.entries),
        }
    }
}

/// Whether every vector of a pass against `reference` starts from zeroed
/// memories: then identical vectors are indistinguishable and run as one
/// weighted lane. Vectors carry private random images only when the
/// reference's function has memories.
fn zeroed(reference: Option<&EquivReference>) -> bool {
    reference.is_none_or(EquivReference::memory_free)
}

/// Running [`StepBound`] of a pass, plus whether a lane hit the limit.
#[derive(Clone, Copy, Default)]
pub(crate) struct LaneSteps {
    bound: StepBound,
    limited: bool,
}

impl LaneSteps {
    /// A lane returned after `ops` ops over `entries` block entries.
    fn ok(&mut self, ops: u64, entries: u64) {
        self.bound.ops = self.bound.ops.max(ops);
        self.bound.entries = self.bound.entries.max(entries);
    }

    pub(crate) fn record(&mut self, r: &Result<ExecResult, ExecError>) {
        match r {
            Ok(r) => self.ok(r.ops_executed, r.block_visits.iter().sum()),
            Err(e) => self.limited |= matches!(e, ExecError::StepLimitExceeded { .. }),
        }
    }

    fn merge(&mut self, other: LaneSteps) {
        self.ok(other.bound.ops, other.bound.entries);
        self.limited |= other.limited;
    }

    pub(crate) fn finish(self) -> Option<StepBound> {
        (!self.limited).then_some(self.bound)
    }
}

/// Simulates `cf` over `traces` once, as candidate evaluation needs it.
///
/// - With a `reference` and a memory-free `cf`: one pass verifies every
///   vector against the captured original (on the reference's random
///   initial memory images, which a memory-free function never reads)
///   and profiles it at the same time.
/// - With a `reference` and a memory-bearing `cf`: a verify pass on the
///   reference's images, then — only if it agreed everywhere — a profile
///   pass from zeroed memories.
/// - With no `reference`: the profile pass alone.
///
/// Verification stops at the first disagreeing vector. When every
/// vector starts from zeroed memories, identical vectors run as one lane
/// weighted by their multiplicity.
///
/// # Panics
/// Panics if `traces` has a different vector count than the set the
/// reference was captured with.
///
/// # Examples
///
/// ```
/// use fact_sim::{generate, simulate, CompiledFn, EquivReference, InputSpec};
///
/// let f = fact_lang::compile("proc f(a) { var y = 0; if (a > 0) { y = a; } out y = y; }")?;
/// let g = fact_lang::compile("proc f(a) { var y = 0; if (0 < a) { y = a; } out y = y; }")?;
/// let traces = generate(&[("a".into(), InputSpec::Uniform { lo: -9, hi: 9 })], 64, 3);
/// let reference = EquivReference::capture(&f, &traces, 1);
/// let sim = simulate(&CompiledFn::compile(&g), &traces, Some(&reference));
/// assert_eq!(sim.profile.expect("equivalent").runs_ok, 64);
/// // 64 vectors over at most 19 distinct values of `a`, each run once.
/// assert_eq!(sim.vectors, 64);
/// assert!(sim.lanes <= 19);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(
    cf: &CompiledFn,
    traces: &TraceSet,
    reference: Option<&EquivReference>,
) -> Simulation {
    if let Some(r) = reference {
        assert_eq!(
            traces.len(),
            r.len(),
            "simulate needs the traces the reference was captured with"
        );
    }
    let mut accum = ProfileAccum::new(cf.num_blocks());
    // Verification runs on random initial images, profiling on zeroed
    // ones; a memory-free function cannot tell the two apart.
    let first_profiles = reference.is_none() || cf.num_memories() == 0;
    let (equivalent, lanes, mut steps, mut vectors) =
        scalar_pass(cf, traces, reference, first_profiles.then_some(&mut accum));
    if equivalent && !first_profiles {
        let (_, _, profiled, v) = scalar_pass(cf, traces, None, Some(&mut accum));
        steps.merge(profiled);
        vectors += v;
    }
    let counts = equivalent.then(|| accum.finish(&cf.parity_loops));
    Simulation {
        profile: counts.as_ref().map(ProfileCounts::profile),
        counts,
        lanes,
        steps: steps.finish(),
        vectors,
    }
}

/// One scalar pass of `cf` over `traces`, judging every vector against
/// `reference` from its initial images (`None`: from zeroed memories) and
/// folding profile statistics into `accum` when given. Returns whether
/// every vector agreed, the pass's lane count, its lanes' step tally and
/// the vectors it covered.
fn scalar_pass(
    cf: &CompiledFn,
    traces: &TraceSet,
    reference: Option<&EquivReference>,
    mut accum: Option<&mut ProfileAccum>,
) -> (bool, usize, LaneSteps, u64) {
    let dl = if zeroed(reference) {
        traces.dedup_lanes()
    } else {
        DedupLanes::Identity(traces.len())
    };
    let mut steps = LaneSteps::default();
    let mut vectors = 0;
    let mut odd = OddCounts::for_fn(cf);
    for k in 0..dl.len() {
        let (i, weight) = dl.get(k);
        let init = reference.map_or(&[][..], |r| r.init(i));
        let r = cf.execute_counted(&traces.vectors[i], init, DEFAULT_STEP_LIMIT, Some(&mut odd));
        vectors += weight as u64;
        steps.record(&r);
        if let Some(a) = accum.as_deref_mut() {
            a.record(&r, weight, &odd);
        }
        if reference.is_some_and(|rf| judge(i, rf.expected(i), &r).is_some()) {
            return (false, dl.len(), steps, vectors);
        }
    }
    (true, dl.len(), steps, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::check_equivalence;
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

    /// `simulate` agrees with the oracles: the verdict with
    /// `check_equivalence`, the profile with the interpreter's `profile`.
    /// Returns the checked call's result.
    fn assert_matches_oracles(f: &Function, g: &Function, traces: &TraceSet) -> Simulation {
        let reference = EquivReference::capture(f, traces, 9);
        let equivalent = check_equivalence(f, g, traces, 9).is_ok();
        let oracle = profile(g, traces);
        let cg = CompiledFn::compile(g);
        let sim = simulate(&cg, traces, Some(&reference));
        assert_eq!(sim.profile.is_some(), equivalent, "verdict");
        if let Some(p) = &sim.profile {
            assert_eq!(p, &oracle, "profile");
        }
        let unchecked = simulate(&cg, traces, None);
        assert_eq!(unchecked.profile.as_ref(), Some(&oracle));
        // The profile pass's step bound is the interpreter's, lane by
        // lane.
        assert_eq!(unchecked.steps, oracle_steps(g, traces));
        sim
    }

    /// The interpreter's [`StepBound`] over `traces` from zeroed
    /// memories.
    fn oracle_steps(g: &Function, traces: &TraceSet) -> Option<StepBound> {
        let mut steps = LaneSteps::default();
        for v in &traces.vectors {
            steps.record(&crate::interp::execute(g, v));
        }
        steps.finish()
    }

    #[test]
    fn step_bounds_grow_within_the_limit_only() {
        let b = StepBound {
            ops: 1_000,
            entries: 10,
        };
        assert_eq!(b.grown(0), Some(b));
        assert_eq!(
            b.grown(3),
            Some(StepBound {
                ops: 1_030,
                entries: 10
            })
        );
        let near = StepBound {
            ops: DEFAULT_STEP_LIMIT - 5,
            entries: 5,
        };
        assert!(near.grown(1).is_some());
        assert_eq!(near.grown(2), None);
        assert_eq!(b.grown(u64::MAX), None, "overflow is not a bound");
    }

    #[test]
    fn verdicts_and_profiles_match_the_oracles() {
        let f = compile(LOOP_SRC).unwrap();
        let same = compile(
            "proc f(a, n) { var i = 0; var s = 0; \
             while (i < n) { if (i > a) { s = i + s; } else { s = s + (0 - 1); } i = i + 1; } \
             out s = s; }",
        )
        .unwrap();
        let bad = compile("proc f(a, n) { out s = a + n; }").unwrap();
        // Disagrees only on the duplicated lanes with a == 2.
        let rare =
            compile(&LOOP_SRC.replace("out s = s;", "if (a == 2) { s = s + 1; } out s = s;"))
                .unwrap();
        let t = duplicate_heavy();
        assert_matches_oracles(&f, &same, &t);
        assert_matches_oracles(&f, &bad, &t);
        assert_matches_oracles(&f, &rare, &t);
        // Straight-line calls.
        let f = compile("proc f(a, n) { out s = a * n + 1; out t = a - n; }").unwrap();
        for (g, equivalent) in [
            (
                "proc f(a, n) { out s = n * a + 1; out t = a + (0 - n); }",
                true,
            ),
            ("proc f(a, n) { out s = a * n + 1; out t = n - a; }", false),
            // Disagrees only on the duplicated lanes with a == 2.
            (
                "proc f(a, n) { out s = a * n + 1 + (a == 2); out t = a - n; }",
                false,
            ),
            // Same values, one output missing.
            ("proc f(a, n) { out s = a * n + 1; }", false),
        ] {
            let sim = assert_matches_oracles(&f, &compile(g).unwrap(), &t);
            assert_eq!(sim.profile.is_some(), equivalent, "{g}");
        }
    }

    #[test]
    fn memory_bearing_functions_verify_on_random_images() {
        // f4 reads x[0] before writing it: zeroed memories would hide the
        // difference, the reference's random images expose it.
        let f1 = compile("proc f(a) { array x[4]; x[0] = a; out y = x[0]; }").unwrap();
        let f2 = compile("proc f(a) { array x[4]; x[0] = a; out y = a; }").unwrap();
        let f3 = compile("proc f(a) { array x[4]; x[1] = a; out y = a; }").unwrap();
        let f4 = compile("proc f(a) { array x[4]; out y = x[0]; x[0] = a; }").unwrap();
        let t = generate(&[("a".to_string(), InputSpec::Constant(5))], 12, 4);
        // f5 branches on the random image: against f1 it disagrees only
        // on some duplicate vectors, and its own profile must come from
        // zeroed memories.
        let f5 = compile(
            "proc f(a) { array x[4]; var y = a; if (x[1] > 50) { y = 0; } x[0] = a; out y = y; }",
        )
        .unwrap();
        for (f, g, equivalent) in [
            (&f1, &f1, true),
            (&f1, &f2, true),
            (&f1, &f3, false),
            (&f1, &f4, false),
            (&f1, &f5, false),
            (&f5, &f5, true),
        ] {
            let sim = assert_matches_oracles(f, g, &t);
            assert_eq!(sim.profile.is_some(), equivalent);
        }
    }

    #[test]
    fn failed_runs_are_weighted_like_the_oracle() {
        // Out-of-bounds reads for i >= 4: failures must be weighted by
        // their dedup multiplicity, and preserved failures must agree.
        let f = compile("proc f(i) { array x[4]; var v = x[i]; out y = v; }").unwrap();
        let t = generate(
            &[("i".to_string(), InputSpec::Uniform { lo: 0, hi: 6 })],
            30,
            9,
        );
        let sim = assert_matches_oracles(&f, &f, &t);
        let p = sim.profile.as_ref().unwrap();
        assert!(p.runs_failed > 0 && p.runs_ok > 0);

        // Step-limit failures: n = 1 never leaves the loop, so its lane
        // (two duplicate vectors) runs into the default step limit, with
        // a reference and without. Six explicit vectors keep the 2M-step
        // lanes few; the oracle comparison is direct for the same reason.
        let f =
            compile("proc f(n) { var i = 1; while (i > 0) { i = i * n; } out i = i; }").unwrap();
        let t = TraceSet::new(
            [1, -1, 0, 1, 0, -1]
                .map(|n| HashMap::from([("n".to_string(), n)]))
                .to_vec(),
        );
        let oracle = profile(&f, &t);
        assert_eq!((oracle.runs_ok, oracle.runs_failed), (4, 2));
        let reference = EquivReference::capture(&f, &t, 9);
        let cf = CompiledFn::compile(&f);
        for r in [Some(&reference), None] {
            let sim = simulate(&cf, &t, r);
            assert_eq!(sim.profile.as_ref(), Some(&oracle));
            assert_eq!(sim.steps, None, "a lane hit the limit");
            assert_eq!(sim.vectors, 6);
        }
    }

    #[test]
    fn vectors_cover_every_vector_once_per_pass() {
        let t = duplicate_heavy();
        let lanes = t.dedup_lanes().len();
        assert!(lanes < t.len(), "the traces repeat vectors");
        let f = compile("proc f(a, n) { out s = a * n + 1; }").unwrap();
        let reference = EquivReference::capture(&f, &t, 7);
        let cf = CompiledFn::compile(&f);
        let sim = simulate(&cf, &t, Some(&reference));
        assert_eq!(sim.lanes, lanes);
        assert_eq!(sim.vectors, 50, "weights must cover every vector");
        // Memory-bearing: a verify pass over all 50 vectors (no dedup
        // under random images), then a deduplicated profile pass.
        let m = compile("proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }").unwrap();
        let reference = EquivReference::capture(&m, &t, 7);
        let sim = simulate(&CompiledFn::compile(&m), &t, Some(&reference));
        assert_eq!((sim.lanes, sim.vectors), (50, 100));
        // No reference: the profile pass alone, each distinct vector
        // once, weighted.
        let sim = simulate(&cf, &t, None);
        assert_eq!((sim.lanes, sim.vectors), (lanes, 50));
        // A rejected call stops at its first disagreeing lane.
        let bad = CompiledFn::compile(&compile("proc f(a, n) { out s = a + n; }").unwrap());
        let sim = simulate(&bad, &t, Some(&EquivReference::capture(&f, &t, 7)));
        assert!(sim.profile.is_none());
        assert!(sim.vectors < 50);
    }

    #[test]
    #[should_panic(expected = "captured with")]
    fn traces_must_match_the_capture() {
        let f = compile("proc f(a, n) { out s = a + n; }").unwrap();
        let reference = EquivReference::capture(&f, &duplicate_heavy(), 1);
        let other = generate(&[("a".to_string(), InputSpec::Constant(1))], 3, 1);
        simulate(&CompiledFn::compile(&f), &other, Some(&reference));
    }
}
