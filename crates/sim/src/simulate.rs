//! The production simulation pass.
//!
//! The paper validates every rewrite by simulating it on the typical
//! traces (§3) and takes branch probabilities from the same traces
//! (§4.1), so evaluating a candidate is one simulation job: [`simulate`]
//! verifies a compiled function against a captured [`EquivReference`],
//! profiles it, and measures its control-flow divergence, on the engine
//! the caller picked ([`SimEngine::for_divergence`]). Both engines report
//! bit-identical verdicts and profiles — identical to the interpreter
//! oracles [`crate::check_equivalence`] and [`crate::profile`] — and
//! differ only in wall-clock time and work counters.

use crate::batch::{
    resolve_columns, resolve_columns_range, resolve_lanes, resolve_presence_only,
    sized_memories_into, InputPrefill, Lane, SimCounters, SimEngine, SimScratch, VerifySink,
};
use crate::compiled::CompiledFn;
use crate::equiv::{judge, EquivReference, Expected};
use crate::interp::DEFAULT_STEP_LIMIT;
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
    /// 0.0 on the scalar engine. [`SimEngine::for_divergence`] turns it
    /// into the engine for the function's next call.
    pub divergence: f64,
    /// Lanes of the first pass: the distinct trace vectors when every
    /// vector starts from zeroed memories, one per vector otherwise.
    pub lanes: usize,
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
    let (equivalent, lanes) = first.run(first_profiles.then_some(&mut accum), scratch);
    if equivalent && !first_profiles {
        let profile = Pass {
            reference: None,
            ..first
        };
        profile.run(Some(&mut accum), scratch);
    }
    if let Some(c) = counters {
        c.merge(&local);
    }
    Simulation {
        profile: equivalent.then(|| accum.finish(cf.branch_blocks())),
        divergence: local.divergence(),
        lanes,
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
    /// every vector agreed with the reference, and the pass's lane count.
    fn run(&self, mut accum: Option<&mut ProfileAccum>, scratch: &mut SimScratch) -> (bool, usize) {
        let Pass {
            cf,
            traces,
            reference,
            counters,
            ..
        } = *self;
        let init = |i: usize| reference.map_or(&[][..], |r| r.init(i));
        // Identical vectors are indistinguishable — and run as one
        // weighted lane — unless they carry private random images.
        let zeroed = reference.is_none_or(EquivReference::memory_free);
        let dl = if zeroed {
            traces.dedup_lanes()
        } else {
            DedupLanes::Identity(traces.len())
        };
        let max_lanes = match self.engine {
            SimEngine::Scalar => {
                let mut vectors = 0;
                let mut agreed = true;
                for (i, v) in traces.vectors.iter().enumerate() {
                    let r = cf.execute_seeded(v, init(i), DEFAULT_STEP_LIMIT);
                    vectors += 1;
                    if let Some(a) = accum.as_deref_mut() {
                        a.record(&r, 1);
                    }
                    if reference.is_some_and(|rf| judge(i, rf.expected(i), &r).is_some()) {
                        agreed = false;
                        break;
                    }
                }
                counters.add(vectors, 0);
                return (agreed, dl.len());
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
                }
                None => cf.run_batch_profiled(
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
            }
            vectors += weights.map_or(n, |w| w.iter().sum()) as u64;
            batches += 1;
            start = end;
        }
        counters.add(vectors, batches);
        (agreed, dl.len())
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
            out.push(sim);
        }
        out
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
        // every vector and no batch.
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
