//! The production simulation pass.
//!
//! The paper validates every rewrite by simulating it on the typical
//! traces (§3) and takes branch probabilities from the same traces
//! (§4.1), so evaluating a candidate is one simulation job: [`simulate`]
//! verifies a compiled function against a captured [`EquivReference`]
//! and profiles it, on the engine the caller picked
//! ([`SimEngine::for_call`]). Both engines report bit-identical verdicts
//! and profiles — identical to the interpreter oracles
//! [`crate::check_equivalence`] and [`crate::profile`] — and differ only
//! in wall-clock time and work counters.

use crate::batch::{SimCounters, SimEngine, SimScratch};
use crate::compiled::{CompiledFn, OddCounts};
use crate::equiv::{judge, EquivReference, Expected};
use crate::interp::{ExecError, ExecResult, DEFAULT_STEP_LIMIT};
use crate::profile::{BranchProfile, ProfileAccum, ProfileCounts};
use crate::trace::{DedupLanes, TraceColumns, TraceSet};

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

/// Distinct lanes from which a straight-line call runs batched.
///
/// Both engines run each distinct lane once, weighted, so the batched
/// engine's only win is dispatching each instruction once per batch.
/// `fact-bench`'s `sim_perf` crossover sweep (`BENCH_sim.json`) measures
/// it on PPS, the suite's straight-line behavior: batching loses on 1
/// and 2 lanes, breaks even near 4 and wins from 8 on (2.9× at 8, 20× at
/// 1024).
pub const MIN_BATCHED_LANES: usize = 8;

impl SimEngine {
    /// The production engine policy for one [`simulate`] call of `cf`
    /// over `traces` against `reference`: the default batched engine
    /// exactly when the batched engine can run the call
    /// ([`SimEngine::batchable`]) and its pass has at least
    /// [`MIN_BATCHED_LANES`] distinct lanes; scalar otherwise.
    pub fn for_call(
        cf: &CompiledFn,
        traces: &TraceSet,
        reference: Option<&EquivReference>,
    ) -> SimEngine {
        if SimEngine::batchable(cf, traces, reference)
            && traces.dedup_lanes().len() >= MIN_BATCHED_LANES
        {
            SimEngine::default()
        } else {
            SimEngine::Scalar
        }
    }

    /// Whether the batched engine can run this [`simulate`] call: the
    /// call is straight-line — `cf` is one memory-free,
    /// `Return`-terminated block that writes every slot before reading
    /// it, every vector starts from zeroed memories, and every input name
    /// has a trace column — so no lane can fail or diverge.
    pub fn batchable(
        cf: &CompiledFn,
        traces: &TraceSet,
        reference: Option<&EquivReference>,
    ) -> bool {
        straightline_columns(cf, traces, reference).is_some()
    }
}

/// Whether every vector of a pass against `reference` starts from zeroed
/// memories: then identical vectors are indistinguishable and run as one
/// weighted lane. Vectors carry private random images only when the
/// reference's function has memories.
fn zeroed(reference: Option<&EquivReference>) -> bool {
    reference.is_none_or(EquivReference::memory_free)
}

/// The trace columns a batched call of `cf` reads its inputs from, when
/// the call is one the batched engine runs: `cf` is
/// [`CompiledFn::fusable_straightline`], its lanes are the dedup lanes
/// (zeroed memories, so dedup lane `k` is column row `k`), and every
/// input name has a column. Such a call can neither fail nor diverge.
fn straightline_columns<'t>(
    cf: &CompiledFn,
    traces: &'t TraceSet,
    reference: Option<&EquivReference>,
) -> Option<&'t TraceColumns> {
    if !(zeroed(reference) && cf.fusable_straightline(DEFAULT_STEP_LIMIT)) {
        return None;
    }
    traces
        .columns()
        .filter(|c| cf.input_names.iter().all(|n| c.col(n).is_some()))
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
/// Verification stops at the first disagreeing vector (on the batched
/// engine, at the first batch holding one). When every vector starts
/// from zeroed memories, identical vectors run as one lane weighted by
/// their multiplicity. `counters`, when given, receives the call's work
/// tallies: logical vectors (a lane of multiplicity *k* counts *k*) and
/// batches. `scratch` donates reusable buffers.
///
/// # Panics
/// Panics if `traces` has a different vector count than the set the
/// reference was captured with, and on [`SimEngine::Batched`] if the
/// call is not [`SimEngine::batchable`]: the batched engine runs nothing
/// else.
///
/// # Examples
///
/// ```
/// use fact_sim::{generate, simulate, CompiledFn, EquivReference, InputSpec, SimEngine};
///
/// let f = fact_lang::compile("proc f(a) { var y = 0; if (a > 0) { y = a; } out y = y; }")?;
/// let g = fact_lang::compile("proc f(a) { var y = 0; if (0 < a) { y = a; } out y = y; }")?;
/// let traces = generate(&[("a".into(), InputSpec::Uniform { lo: -9, hi: 9 })], 64, 3);
/// let reference = EquivReference::capture(&f, &traces, 1);
/// let cg = CompiledFn::compile(&g);
/// let sim = simulate(
///     &cg,
///     &traces,
///     Some(&reference),
///     SimEngine::for_call(&cg, &traces, Some(&reference)),
///     None,
///     &mut Default::default(),
/// );
/// assert_eq!(sim.profile.expect("equivalent").runs_ok, 64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn simulate(
    cf: &CompiledFn,
    traces: &TraceSet,
    reference: Option<&EquivReference>,
    engine: SimEngine,
    counters: Option<&SimCounters>,
    scratch: &mut SimScratch,
) -> Simulation {
    if let Some(r) = reference {
        assert_eq!(
            traces.len(),
            r.len(),
            "simulate needs the traces the reference was captured with"
        );
    }
    let mut accum = ProfileAccum::new(cf.num_blocks());
    let (equivalent, lanes, steps, vectors, batches) = match engine {
        SimEngine::Scalar => {
            // Verification runs on random initial images, profiling on
            // zeroed ones; a memory-free function cannot tell the two
            // apart.
            let first_profiles = reference.is_none() || cf.num_memories() == 0;
            let (equivalent, lanes, mut steps, mut vectors) =
                scalar_pass(cf, traces, reference, first_profiles.then_some(&mut accum));
            if equivalent && !first_profiles {
                let (_, _, profiled, v) = scalar_pass(cf, traces, None, Some(&mut accum));
                steps.merge(profiled);
                vectors += v;
            }
            (equivalent, lanes, steps, vectors, 0)
        }
        SimEngine::Batched { max_lanes } => {
            batched_pass(cf, traces, reference, max_lanes, &mut accum, scratch)
        }
    };
    if let Some(c) = counters {
        c.add(vectors, batches);
    }
    let counts = equivalent.then(|| accum.finish(&cf.parity_loops));
    Simulation {
        profile: counts.as_ref().map(ProfileCounts::profile),
        counts,
        lanes,
        steps: steps.finish(),
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

/// The batched pass of a straight-line call: at most `max_lanes` dedup
/// lanes per batch through the fused kernel, each batch judged against
/// `reference` (when given) and profiled at once. Stops after the first
/// batch holding a disagreeing lane. Returns what [`scalar_pass`] does,
/// plus the batches run.
fn batched_pass(
    cf: &CompiledFn,
    traces: &TraceSet,
    reference: Option<&EquivReference>,
    max_lanes: usize,
    accum: &mut ProfileAccum,
    scratch: &mut SimScratch,
) -> (bool, usize, LaneSteps, u64, u64) {
    let cols = straightline_columns(cf, traces, reference)
        .expect("the batched engine runs straight-line calls only (see SimEngine::batchable)");
    let max_lanes = max_lanes.max(1);
    let dl = traces.dedup_lanes();
    let outputs: Vec<(usize, usize)> = cf.straightline_outputs().collect();
    let returned = cf.straightline_return();
    // Every lane runs the block's instructions once, and nothing else.
    let ops = cf.blocks[cf.entry].insts.len() as u64;
    let mut steps = LaneSteps::default();
    let (mut vectors, mut batches) = (0u64, 0u64);
    let mut agreed = true;
    let mut start = 0;
    while agreed && start < dl.len() {
        let end = (start + max_lanes).min(dl.len());
        let n = end - start;
        let values = cf.run_straightline(cols, start..end, scratch);
        if let Some(r) = reference {
            agreed = (0..n).all(|k| {
                let lane = |slot: usize| values[slot * n + k];
                lane_agrees(
                    cf,
                    &outputs,
                    returned,
                    lane,
                    r.expected(dl.index(start + k)),
                )
            });
        }
        let weight: usize = (start..end).map(|k| dl.get(k).1).sum();
        accum.record_straightline_runs(cf.entry, weight);
        steps.ok(ops, 1);
        vectors += weight as u64;
        batches += 1;
        start = end;
    }
    (agreed, dl.len(), steps, vectors, batches)
}

/// Whether one lane of a straight-line batch — its value of slot `s` is
/// `lane(s)` — agrees with its captured expectation, with `judge`'s
/// semantics: outputs in emission order, then the return value. A
/// straight-line lane has no memories to compare and never fails, so an
/// expected failure disagrees.
fn lane_agrees(
    cf: &CompiledFn,
    outputs: &[(usize, usize)],
    returned: Option<usize>,
    lane: impl Fn(usize) -> i64,
    expected: Expected<'_>,
) -> bool {
    match expected {
        Err(_) => false,
        Ok((want, _, want_returned)) => {
            want.len() == outputs.len()
                && outputs
                    .iter()
                    .zip(want)
                    .all(|(&(name, slot), (n, v))| lane(slot) == *v && cf.output_names[name] == *n)
                && returned.map(&lane) == want_returned
        }
    }
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

    /// `simulate` on the scalar engine, and on the batched one (several
    /// lane caps) when the call is straight-line, agrees with the
    /// oracles: the verdict with `check_equivalence`, the profile with the
    /// interpreter's `profile`. Returns the per-engine results.
    fn assert_matches_oracles(f: &Function, g: &Function, traces: &TraceSet) -> Vec<Simulation> {
        let reference = EquivReference::capture(f, traces, 9);
        let equivalent = check_equivalence(f, g, traces, 9).is_ok();
        let oracle = profile(g, traces);
        let cg = CompiledFn::compile(g);
        let mut engines = vec![SimEngine::Scalar];
        if SimEngine::batchable(&cg, traces, Some(&reference)) {
            engines.extend([
                SimEngine::batched_with(1),
                SimEngine::batched_with(5),
                SimEngine::default(),
            ]);
        }
        let mut scratch = SimScratch::default();
        let mut out = Vec::new();
        for engine in engines {
            let sim = simulate(&cg, traces, Some(&reference), engine, None, &mut scratch);
            assert_eq!(sim.profile.is_some(), equivalent, "verdict ({engine:?})");
            if let Some(p) = &sim.profile {
                assert_eq!(p, &oracle, "profile ({engine:?})");
            }
            let unchecked = simulate(&cg, traces, None, engine, None, &mut scratch);
            assert_eq!(unchecked.profile.as_ref(), Some(&oracle), "({engine:?})");
            // The profile pass's step bound is the interpreter's, lane
            // by lane.
            assert_eq!(unchecked.steps, oracle_steps(g, traces), "({engine:?})");
            out.push(sim);
        }
        out
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
        // Straight-line calls, which also run batched.
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
            let sims = assert_matches_oracles(&f, &compile(g).unwrap(), &t);
            assert_eq!(sims.len(), 4, "{g} runs on both engines");
            assert!(
                sims.iter().all(|s| s.profile.is_some() == equivalent),
                "{g}"
            );
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
            let sims = assert_matches_oracles(f, g, &t);
            assert_eq!(sims[0].profile.is_some(), equivalent);
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
        let sims = assert_matches_oracles(&f, &f, &t);
        let p = sims[0].profile.as_ref().unwrap();
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
        let mut scratch = SimScratch::default();
        for r in [Some(&reference), None] {
            let c = SimCounters::default();
            let sim = simulate(&cf, &t, r, SimEngine::Scalar, Some(&c), &mut scratch);
            assert_eq!(sim.profile.as_ref(), Some(&oracle));
            assert_eq!(sim.steps, None, "a lane hit the limit");
            assert_eq!((c.vectors(), c.batches()), (6, 0));
        }
    }

    #[test]
    fn counters_cover_every_vector_once_per_pass() {
        let t = duplicate_heavy();
        let lanes = t.dedup_lanes().len();
        let f = compile("proc f(a, n) { out s = a * n + 1; }").unwrap();
        let reference = EquivReference::capture(&f, &t, 7);
        let cf = CompiledFn::compile(&f);
        let mut scratch = SimScratch::default();
        let c = SimCounters::default();
        let sim = simulate(
            &cf,
            &t,
            Some(&reference),
            SimEngine::batched_with(5),
            Some(&c),
            &mut scratch,
        );
        assert_eq!(sim.lanes, lanes);
        assert_eq!(c.vectors(), 50, "weights must cover every vector");
        assert_eq!(c.batches(), lanes.div_ceil(5) as u64);
        // Memory-bearing: a verify pass over all 50 vectors (no dedup
        // under random images), then a deduplicated profile pass.
        let m = compile("proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }").unwrap();
        let reference = EquivReference::capture(&m, &t, 7);
        let c = SimCounters::default();
        let cm = CompiledFn::compile(&m);
        let sim = simulate(
            &cm,
            &t,
            Some(&reference),
            SimEngine::Scalar,
            Some(&c),
            &mut scratch,
        );
        assert_eq!(sim.lanes, 50);
        assert_eq!((c.vectors(), c.batches()), (100, 0));
        // No reference: the profile pass alone; the scalar engine runs
        // each distinct vector once, weighted, and no batch.
        let c = SimCounters::default();
        simulate(&cf, &t, None, SimEngine::Scalar, Some(&c), &mut scratch);
        assert_eq!((c.vectors(), c.batches()), (50, 0));
    }

    #[test]
    fn engine_policy_batches_straight_line_calls_of_enough_lanes() {
        let lanes = |hi: i64| {
            generate(
                &[
                    ("a".to_string(), InputSpec::Uniform { lo: 0, hi }),
                    ("n".to_string(), InputSpec::Constant(3)),
                ],
                50,
                5,
            )
        };
        let (few, many) = (lanes(1), lanes(1000));
        assert!(few.dedup_lanes().len() < MIN_BATCHED_LANES);
        assert!(many.dedup_lanes().len() >= MIN_BATCHED_LANES);
        let call = |src: &str, traces| {
            SimEngine::for_call(&CompiledFn::compile(&compile(src).unwrap()), traces, None)
        };
        let straight = "proc f(a, n) { out s = a * n + 1; }";
        assert_eq!(call(straight, &few), SimEngine::Scalar);
        assert_eq!(call(straight, &many), SimEngine::default());
        // A loop, a branch, a memory, or an input without a trace column
        // runs scalar, whatever the lane count.
        for src in [
            LOOP_SRC,
            "proc f(a, n) { var s = n; if (a < 3) { s = s + 1; } out s = s; }",
            "proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }",
            "proc f(a, n, k) { out s = a * n + k; }",
        ] {
            assert_eq!(call(src, &many), SimEngine::Scalar, "{src}");
        }
        // Against a memory-bearing reference every vector carries its own
        // random images, so even a straight-line candidate runs scalar.
        let f = compile("proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }").unwrap();
        let reference = EquivReference::capture(&f, &many, 1);
        let straight = CompiledFn::compile(&compile(straight).unwrap());
        assert_eq!(
            SimEngine::for_call(&straight, &many, Some(&reference)),
            SimEngine::Scalar
        );
    }

    #[test]
    #[should_panic(expected = "straight-line calls only")]
    fn the_batched_engine_refuses_other_calls() {
        let cf = CompiledFn::compile(&compile(LOOP_SRC).unwrap());
        simulate(
            &cf,
            &duplicate_heavy(),
            None,
            SimEngine::default(),
            None,
            &mut SimScratch::default(),
        );
    }

    #[test]
    #[should_panic(expected = "captured with")]
    fn traces_must_match_the_capture() {
        let f = compile("proc f(a, n) { out s = a + n; }").unwrap();
        let reference = EquivReference::capture(&f, &duplicate_heavy(), 1);
        let other = generate(&[("a".to_string(), InputSpec::Constant(1))], 3, 1);
        simulate(
            &CompiledFn::compile(&f),
            &other,
            Some(&reference),
            SimEngine::default(),
            None,
            &mut SimScratch::default(),
        );
    }
}
