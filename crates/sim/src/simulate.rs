//! The production simulation pass.
//!
//! The paper validates every rewrite by simulating it on the typical
//! traces (§3) and takes branch probabilities from the same traces
//! (§4.1), so evaluating a candidate is one simulation job: [`simulate`]
//! verifies a compiled function against a captured [`EquivReference`],
//! profiles it, and measures its control-flow divergence, on the engine
//! the caller picked ([`SimEngine::for_call`]). Both engines report
//! bit-identical verdicts and profiles — identical to the interpreter
//! oracles [`crate::check_equivalence`] and [`crate::profile`] — and
//! differ only in wall-clock time and work counters.

use crate::batch::{
    resolve_columns, resolve_columns_range, resolve_lanes, resolve_presence_only,
    sized_memories_into, InputPrefill, Lane, SimCounters, SimEngine, SimScratch, VerifySink,
};
use crate::compiled::CompiledFn;
use crate::equiv::{judge, EquivReference, Expected};
use crate::interp::{ExecError, ExecResult, DEFAULT_STEP_LIMIT};
use crate::profile::{BranchProfile, ProfileAccum};
use crate::trace::{DedupLanes, TraceSet};

/// What one [`simulate`] call observed.
#[derive(Debug)]
pub struct Simulation {
    /// The branch profile over the traces, from zero-initialized
    /// memories; `None` when the function is not equivalent to the
    /// reference.
    pub profile: Option<BranchProfile>,
    /// Fraction of batched lane-steps that ran off the contiguous-group
    /// fast path, over the whole call (see [`SimCounters::divergence`]);
    /// 0.0 on the scalar engine. [`SimEngine::for_call`] turns a batched
    /// call's rate into the engine for the function's next call.
    pub divergence: f64,
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
}

/// Lanes from which a loop-free function runs batched.
///
/// Both engines run each distinct lane once, weighted, so the batched
/// engine's only win is lockstep execution. `fact-bench`'s `sim_perf`
/// crossover sweep (`BENCH_sim.json`) measures it per suite behavior and
/// distinct-lane count. The loop-free PPS loses on 1 and 2 lanes, breaks
/// even near 4 and wins from 8 on (1.6× at 8, 10× at 1024). Of the
/// behaviors with a loop, GCD, Test2, IGF and RANDWALK lose at every
/// count from 1 to 1024 and SINTRAN at best breaks even; only FIR wins
/// (1.2–1.8× from 16 lanes). Neither lane count nor ops per block entry
/// separates FIR from IGF, so every function with a loop runs scalar.
pub const MIN_BATCHED_LANES: usize = 8;

impl SimEngine {
    /// The production engine policy for one [`simulate`] call of `cf`
    /// over `traces` against `reference`: scalar when `cf` has a loop
    /// ([`CompiledFn::has_loop`]) or the call's first pass has fewer than
    /// [`MIN_BATCHED_LANES`] lanes; otherwise scalar when the divergence
    /// `rate` an earlier call measured for the function exceeds 0.1, and
    /// the default batched engine when it does not or none was measured.
    pub fn for_call(
        cf: &CompiledFn,
        rate: Option<f64>,
        traces: &TraceSet,
        reference: Option<&EquivReference>,
    ) -> SimEngine {
        if cf.has_loop() {
            return SimEngine::Scalar;
        }
        let lanes = if zeroed(reference) {
            traces.dedup_lanes().len()
        } else {
            traces.len()
        };
        if lanes < MIN_BATCHED_LANES {
            SimEngine::Scalar
        } else {
            rate.map_or_else(SimEngine::default, SimEngine::for_divergence)
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
    pub(crate) fn ok(&mut self, ops: u64, entries: u64) {
        self.bound.ops = self.bound.ops.max(ops);
        self.bound.entries = self.bound.entries.max(entries);
    }

    /// A lane failed with `e`.
    pub(crate) fn failed(&mut self, e: &ExecError) {
        self.limited |= matches!(e, ExecError::StepLimitExceeded { .. });
    }

    fn record(&mut self, r: &Result<ExecResult, ExecError>) {
        match r {
            Ok(r) => self.ok(r.ops_executed, r.block_visits.iter().sum()),
            Err(e) => self.failed(e),
        }
    }

    fn merge(&mut self, other: LaneSteps) {
        self.ok(other.bound.ops, other.bound.entries);
        self.limited |= other.limited;
    }

    fn finish(self) -> Option<StepBound> {
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
/// Verification stops at the first batch holding a disagreeing lane.
/// When every vector starts from zeroed memories, identical vectors run
/// as one lane weighted by their multiplicity. `counters`, when given,
/// receives the call's work tallies: logical vectors (a lane of
/// multiplicity *k* counts *k*), batches, compactions and lane-steps.
/// `scratch` donates reusable buffers.
///
/// # Panics
/// Panics if `traces` has a different vector count than the set the
/// reference was captured with.
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
/// let sim = simulate(
///     &CompiledFn::compile(&g),
///     &traces,
///     Some(&reference),
///     SimEngine::default(),
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
    let local = SimCounters::default();
    let mut accum = ProfileAccum::new(cf.num_blocks());
    // Verification runs on random initial images, profiling on zeroed
    // ones; a memory-free function cannot tell the two apart.
    let first_profiles = reference.is_none() || cf.num_memories() == 0;
    let first = Pass {
        cf,
        traces,
        reference,
        engine,
        counters: &local,
    };
    let (equivalent, lanes, mut steps) = first.run(first_profiles.then_some(&mut accum), scratch);
    if equivalent && !first_profiles {
        let profile = Pass {
            reference: None,
            ..first
        };
        steps.merge(profile.run(Some(&mut accum), scratch).2);
    }
    if let Some(c) = counters {
        c.merge(&local);
    }
    Simulation {
        profile: equivalent.then(|| accum.finish(cf.branch_blocks())),
        divergence: local.divergence(),
        lanes,
        steps: steps.finish(),
    }
}

/// One pass of a function over a trace set.
#[derive(Clone, Copy)]
struct Pass<'a> {
    cf: &'a CompiledFn,
    traces: &'a TraceSet,
    /// Judge every vector against this capture, starting from its
    /// initial images; `None` runs every vector from zeroed memories.
    reference: Option<&'a EquivReference>,
    engine: SimEngine,
    counters: &'a SimCounters,
}

impl Pass<'_> {
    /// Runs the pass, folding profile statistics into `accum` when given
    /// (a pass without a reference always profiles). Returns whether
    /// every vector agreed with the reference, the pass's lane count, and
    /// its lanes' step tally.
    fn run(
        &self,
        mut accum: Option<&mut ProfileAccum>,
        scratch: &mut SimScratch,
    ) -> (bool, usize, LaneSteps) {
        let Pass {
            cf,
            traces,
            reference,
            counters,
            ..
        } = *self;
        let init = |i: usize| reference.map_or(&[][..], |r| r.init(i));
        let zeroed = zeroed(reference);
        let dl = if zeroed {
            traces.dedup_lanes()
        } else {
            DedupLanes::Identity(traces.len())
        };
        let mut steps = LaneSteps::default();
        let max_lanes = match self.engine {
            SimEngine::Scalar => {
                let mut vectors = 0;
                let mut agreed = true;
                for k in 0..dl.len() {
                    let (i, weight) = dl.get(k);
                    let r = cf.execute_seeded(&traces.vectors[i], init(i), DEFAULT_STEP_LIMIT);
                    vectors += weight as u64;
                    steps.record(&r);
                    if let Some(a) = accum.as_deref_mut() {
                        a.record(&r, weight);
                    }
                    if reference.is_some_and(|rf| judge(i, rf.expected(i), &r).is_some()) {
                        agreed = false;
                        break;
                    }
                }
                counters.add(vectors, 0);
                return (agreed, dl.len(), steps);
            }
            SimEngine::Batched { max_lanes } => max_lanes.max(1),
        };
        let cols = traces.columns();
        // Straight-line fusion: when no batch of this function can fail
        // or diverge and every input has a trace column, input rows are
        // filled directly from the columns inside the run
        // (`InputPrefill`). Sound only when dedup row `k` is column row
        // `k`, i.e. when the lanes are the dedup lanes.
        let fuse = zeroed
            && cf.fusable_straightline(DEFAULT_STEP_LIMIT)
            && cols.is_some_and(|c| cf.input_names.iter().all(|n| c.col(n).is_some()));
        let batch = &mut scratch.batch;
        let (mut vectors, mut batches) = (0u64, 0u64);
        let mut agreed = true;
        let mut start = 0;
        while agreed && start < dl.len() {
            let end = (start + max_lanes).min(dl.len());
            let n = end - start;
            // Per-lane dedup multiplicities; `None` = all 1 (the
            // all-distinct identity case allocates nothing).
            let weights: Option<Vec<usize>> = match dl {
                DedupLanes::Identity(_) => None,
                DedupLanes::Lanes(l) => Some(l[start..end].iter().map(|&(_, m)| m).collect()),
            };
            let (resolved, memories) = match cols {
                Some(cols) => {
                    let resolved = if fuse {
                        resolve_presence_only(cf, n, batch)
                    } else if zeroed {
                        // Dedup row k *is* column row k: one straight
                        // copy per input name.
                        resolve_columns_range(cf, cols, start..end, batch)
                    } else {
                        resolve_columns(cf, cols, (start..end).map(|i| cols.row_of(i)), batch)
                    };
                    let memories = batch.take_memories(n, |k, lane| {
                        sized_memories_into(cf, init(dl.index(start + k)), lane)
                    });
                    (resolved, memories)
                }
                None => {
                    let lanes: Vec<Lane<'_>> = (start..end)
                        .map(|k| Lane {
                            inputs: &traces.vectors[dl.index(k)],
                            init: init(dl.index(k)),
                        })
                        .collect();
                    resolve_lanes(cf, &lanes)
                }
            };
            let prefill = match cols {
                Some(cols) if fuse => Some(InputPrefill {
                    cols,
                    rows: start..end,
                }),
                _ => None,
            };
            match reference {
                Some(r) => {
                    let expected: Vec<Expected<'_>> =
                        (start..end).map(|k| r.expected(dl.index(k))).collect();
                    let mut sink = VerifySink {
                        expected: &expected,
                        weights: weights.as_deref(),
                        accum: accum.as_deref_mut(),
                        mismatch: false,
                        steps: LaneSteps::default(),
                    };
                    cf.run_batch_verified(
                        resolved,
                        memories,
                        DEFAULT_STEP_LIMIT,
                        Some(counters),
                        &mut sink,
                        batch,
                        prefill,
                    );
                    agreed = !sink.mismatch;
                    steps.merge(sink.steps);
                }
                None => steps.merge(
                    cf.run_batch_profiled(
                        resolved,
                        memories,
                        DEFAULT_STEP_LIMIT,
                        Some(counters),
                        weights.as_deref(),
                        accum
                            .as_deref_mut()
                            .expect("a pass without a reference profiles"),
                        batch,
                        prefill,
                    ),
                ),
            }
            vectors += weights.map_or(n, |w| w.iter().sum()) as u64;
            batches += 1;
            start = end;
        }
        counters.add(vectors, batches);
        (agreed, dl.len(), steps)
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

    /// `simulate` on both engines (several lane caps) agrees with the
    /// oracles: the verdict with `check_equivalence`, the profile with
    /// the interpreter's `profile`. Returns the per-engine results.
    fn assert_matches_oracles(f: &Function, g: &Function, traces: &TraceSet) -> Vec<Simulation> {
        let reference = EquivReference::capture(f, traces, 9);
        let equivalent = check_equivalence(f, g, traces, 9).is_ok();
        let oracle = profile(g, traces);
        let cg = CompiledFn::compile(g);
        let mut scratch = SimScratch::default();
        let mut out = Vec::new();
        for engine in [
            SimEngine::Scalar,
            SimEngine::batched_with(1),
            SimEngine::batched_with(5),
            SimEngine::default(),
        ] {
            let sim = simulate(&cg, traces, Some(&reference), engine, None, &mut scratch);
            assert_eq!(sim.profile.is_some(), equivalent, "verdict ({engine:?})");
            if let Some(p) = &sim.profile {
                assert_eq!(p, &oracle, "profile ({engine:?})");
            }
            assert!((0.0..=1.0).contains(&sim.divergence));
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
        // (two duplicate vectors) runs into the default step limit,
        // through the verify sink (with a reference) and the profile
        // sink (without). Six explicit vectors keep the 2M-step lanes
        // few; the oracle comparison is direct for the same reason.
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
        // Three distinct lanes at two per batch: two batches.
        for (engine, batches) in [(SimEngine::Scalar, 0), (SimEngine::batched_with(2), 2)] {
            for r in [Some(&reference), None] {
                let c = SimCounters::default();
                let sim = simulate(&cf, &t, r, engine, Some(&c), &mut scratch);
                assert_eq!(sim.profile.as_ref(), Some(&oracle), "({engine:?})");
                assert_eq!(sim.steps, None, "a lane hit the limit ({engine:?})");
                assert_eq!((c.vectors(), c.batches()), (6, batches), "({engine:?})");
            }
        }
    }

    #[test]
    fn counters_cover_every_vector_once_per_pass() {
        let t = duplicate_heavy();
        let lanes = t.dedup_lanes().len();
        let f = compile(LOOP_SRC).unwrap();
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
            SimEngine::batched_with(5),
            Some(&c),
            &mut scratch,
        );
        assert_eq!(sim.lanes, 50);
        assert_eq!(c.vectors(), 100);
        assert_eq!(c.batches(), 10 + lanes.div_ceil(5) as u64);
        // No reference: the profile pass alone; the scalar engine runs
        // each distinct vector once, weighted, and no batch.
        let c = SimCounters::default();
        simulate(&cf, &t, None, SimEngine::Scalar, Some(&c), &mut scratch);
        assert_eq!((c.vectors(), c.batches()), (50, 0));
    }

    #[test]
    fn divergence_separates_convergent_from_divergent() {
        let cf = CompiledFn::compile(
            &compile(
                "proc f(n) { var i = 0; var s = 0; \
                 while (i < n) { s = s + i; i = i + 1; } out s = s; }",
            )
            .unwrap(),
        );
        let mut scratch = SimScratch::default();
        let run = |traces: &TraceSet, engine, scratch: &mut SimScratch| {
            simulate(&cf, traces, None, engine, None, scratch).divergence
        };
        let convergent = generate(&[("n".to_string(), InputSpec::Constant(25))], 64, 1);
        let d0 = run(&convergent, SimEngine::default(), &mut scratch);
        assert_eq!(d0, 0.0, "identical lanes never leave the fast path");
        let divergent = generate(
            &[("n".to_string(), InputSpec::Uniform { lo: 0, hi: 400 })],
            64,
            2,
        );
        let d1 = run(&divergent, SimEngine::default(), &mut scratch);
        assert!(d1 > d0, "spread trip counts must measure as divergence");
        assert_eq!(run(&divergent, SimEngine::Scalar, &mut scratch), 0.0);
    }

    #[test]
    fn engine_policy_thresholds_the_rate() {
        assert_eq!(SimEngine::for_divergence(0.0), SimEngine::default());
        assert_eq!(
            SimEngine::for_divergence(crate::batch::SCALAR_DIVERGENCE_THRESHOLD),
            SimEngine::default()
        );
        assert_eq!(SimEngine::for_divergence(0.5), SimEngine::Scalar);
    }

    #[test]
    fn engine_policy_batches_loop_free_functions_of_enough_lanes() {
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
        let straight =
            CompiledFn::compile(&compile("proc f(a, n) { out s = a * n + 1; }").unwrap());
        let looping = CompiledFn::compile(&compile(LOOP_SRC).unwrap());
        let branching = CompiledFn::compile(
            &compile("proc f(a, n) { var s = n; if (a < 3) { s = s + 1; } out s = s; }").unwrap(),
        );
        assert!(!straight.has_loop() && !branching.has_loop() && looping.has_loop());
        for rate in [None, Some(0.0)] {
            let call = |cf, traces| SimEngine::for_call(cf, rate, traces, None);
            assert_eq!(call(&straight, &few), SimEngine::Scalar);
            assert_eq!(call(&straight, &many), SimEngine::default());
            assert_eq!(call(&looping, &many), SimEngine::Scalar);
        }
        assert_eq!(
            SimEngine::for_call(&straight, Some(0.5), &many, None),
            SimEngine::Scalar
        );
        // Against a memory-bearing reference every vector is its own
        // lane (private random images): 50 lanes batch.
        let f = compile("proc f(a, n) { array x[2]; x[0] = a; out s = x[0] + n; }").unwrap();
        let reference = EquivReference::capture(&f, &few, 1);
        assert_eq!(
            SimEngine::for_call(&CompiledFn::compile(&f), None, &few, Some(&reference)),
            SimEngine::default()
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
