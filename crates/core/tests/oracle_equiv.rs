//! Production evaluation vs. the from-scratch oracle.
//!
//! `optimize` scores candidates one way: one `simulate` call per
//! candidate (compiled simulation against a captured equivalence
//! reference and profiling), per-block schedule splicing, and
//! whole-neighborhood dispatch across worker threads. This suite holds that path to a deliberately
//! simple oracle built here from public functions only: the IR
//! interpreter (`profile`, `check_equivalence`), the memo-free
//! `schedule`, and `evaluate`/`evaluate_power_mode`. The two must be
//! *bit-identical*, not approximately equal:
//!
//! 1. seed-driven random walks through the transformation space of the
//!    example1 (TEST1) and Table 2 graphs, comparing every candidate's
//!    verdict, profile, schedule, and estimates between the two paths;
//! 2. whole `optimize` runs over the suite (plus two benchmarks under
//!    wider traces and a memory-bearing one), both objectives, and 1, 2, and
//!    8 worker threads against [`oracle_optimize`] — same trajectory
//!    (applied path, evaluation count), same winner, same estimate bits,
//!    and the same cache ledger for every thread count — a ledger that
//!    holds candidate scores and nothing else;
//! 3. the same with equivalence checking off (each candidate's call is
//!    then the profile pass alone);
//! 4. Pareto frontiers, bit-identical for any thread count;
//! 5. the simulation ledger: every uncached candidate is either proved
//!    equivalent to its parent (no simulation), or derived from its
//!    counts, or costs exactly its passes' worth of trace vectors,
//!    nothing more;
//! 6. the prover: every candidate `prove_equivalent` proves equivalent
//!    to its parent is equivalent under `check_equivalence` and has the
//!    parent's profile — or, for a loop unrolled by 2, the counts and
//!    profile derived from the parent's, bit for bit what `simulate`
//!    takes.
//! 7. the on-demand reference: a run captures the equivalence reference
//!    only when it simulates a candidate or memory steers its input —
//!    never on a fresh run of the suite, never with checking off — and a
//!    run over an earlier run's cache, which captures it mid-search,
//!    still matches the cold oracle for any thread count.
//!
//! Deliberately std-only and seed-driven (no proptest): a failure
//! reproduces exactly.

use fact_core::{
    apply_transforms, optimize_pareto_with, optimize_with, partition, region_of_block,
    structural_hash, suite, Benchmark, CandidateCounts, EvalCache, FactConfig, FactResult,
    MegaCandidate, Objective, OptimizeHooks, ParetoFactResult, TransformLibrary,
};
use fact_estim::{
    evaluate, evaluate_power_mode, markov_of, section5_library, table1_library, Estimate,
};
use fact_ir::{prove_equivalent, Function, UnrollMap};
use fact_lang::compile;
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sched::{schedule, schedule_with_memo, Allocation, SchedOptions, ScheduleMemo};
use fact_sim::{
    check_equivalence, generate, memory_steers, profile, simulate, CompiledFn, EquivReference,
    InputSpec, TraceSet,
};
use fact_xform::{Region, TransformKind};

/// The §2 walkthrough fixture (same setup as the example1 binary).
fn example1() -> (
    Function,
    fact_sched::FuLibrary,
    fact_sched::SelectionRules,
    Allocation,
    TraceSet,
) {
    let f = compile(suite::TEST1_SRC).expect("TEST1 compiles");
    let (lib, rules) = table1_library();
    let mut alloc = Allocation::new();
    for (name, n) in [("comp1", 2), ("cla1", 2), ("incr1", 1), ("w_mult1", 1)] {
        alloc.set(lib.by_name(name).unwrap(), n);
    }
    let traces = generate(
        &[
            ("c1".to_string(), InputSpec::Constant(18)),
            ("c2".to_string(), InputSpec::Constant(49)),
        ],
        4,
        7,
    );
    (f, lib, rules, alloc, traces)
}

/// Evaluates `g` (a rewrite of `parent`) the oracle way and the
/// production way and asserts the results are bit-identical. Returns
/// whether the candidate survived (equivalent and schedulable), judged
/// identically by both paths.
#[allow(clippy::too_many_arguments)]
fn assert_paths_agree(
    original: &Function,
    parent: &Function,
    g: &Function,
    unrolled: Option<&UnrollMap>,
    lib: &fact_sched::FuLibrary,
    rules: &fact_sched::SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    reference: &EquivReference,
    sched_memo: &ScheduleMemo,
    ctx: &str,
) -> bool {
    let opts = SchedOptions::default();

    // Full path: interpret the source IR, schedule from scratch.
    let full_verdict = check_equivalence(original, g, traces, 0xC0FFEE).is_ok();
    // Production path: one simulate call verifies and profiles the
    // compiled candidate.
    let sim = simulate(&CompiledFn::compile(g), traces, Some(reference));
    assert_eq!(
        full_verdict,
        sim.profile.is_some(),
        "equivalence verdict differs ({ctx})"
    );
    let (Some(inc_prof), Some(inc_counts)) = (sim.profile, sim.counts) else {
        return false;
    };

    let full_prof = profile(g, traces);
    assert_eq!(full_prof, inc_prof, "branch profile differs ({ctx})");
    // What production would do instead of simulating: a proved candidate
    // must be equivalent to its parent and reuse the parent's profile,
    // or — unrolled — derive it from the parent's counts.
    if prove_equivalent(parent, g, unrolled).is_some() {
        check_equivalence(parent, g, traces, 0xC0FFEE)
            .unwrap_or_else(|m| panic!("proved but not equivalent ({ctx}): {m}"));
        match unrolled {
            None => assert_eq!(
                profile(parent, traces),
                full_prof,
                "proved candidate's profile differs from its parent's ({ctx})"
            ),
            Some(map) => {
                let parent_counts = simulate(&CompiledFn::compile(parent), traces, None)
                    .counts
                    .expect("a pass without a reference profiles");
                let derived = parent_counts
                    .unrolled(map, g.num_blocks())
                    .unwrap_or_else(|| panic!("proved but nothing derived ({ctx})"));
                assert_eq!(derived, inc_counts, "derived counts differ ({ctx})");
                assert_eq!(
                    derived.profile(),
                    inc_prof,
                    "derived profile differs ({ctx})"
                );
            }
        }
    }

    let full_sr = schedule(g, lib, rules, alloc, &full_prof, &opts);
    let inc_sr = schedule_with_memo(g, lib, rules, alloc, &inc_prof, &opts, Some(sched_memo));
    let (full_sr, inc_sr) = match (full_sr, inc_sr) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(_), Err(_)) => return false,
        (a, b) => panic!(
            "schedulability differs ({ctx}): full={} incremental={}",
            a.is_ok(),
            b.is_ok()
        ),
    };
    assert_eq!(
        structural_hash(&full_sr.function),
        structural_hash(&inc_sr.function),
        "scheduled function structural hash differs ({ctx})"
    );

    let full_est = evaluate(&full_sr, lib, opts.clock_ns).expect("full estimate");
    let inc_est = evaluate(&inc_sr, lib, opts.clock_ns).expect("inc estimate");
    assert_eq!(
        full_est.average_schedule_length.to_bits(),
        inc_est.average_schedule_length.to_bits(),
        "schedule length differs ({ctx})"
    );
    assert_eq!(
        full_est.power.to_bits(),
        inc_est.power.to_bits(),
        "power estimate differs ({ctx})"
    );
    true
}

/// Walks `depth` random transformation steps from `f`, comparing every
/// visited candidate between the two evaluation paths.
#[allow(clippy::too_many_arguments)]
fn random_walk(
    name: &str,
    f: &Function,
    lib: &fact_sched::FuLibrary,
    rules: &fact_sched::SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    seed: u64,
    depth: usize,
) -> usize {
    let tlib = TransformLibrary::full();
    let mut rng = StdRng::seed_from_u64(seed);
    // The memo persists across the whole walk: late steps hit fragments
    // cached by early steps, exactly as in a real search.
    let sched_memo = ScheduleMemo::default();
    let reference = EquivReference::capture(f, traces, 0xC0FFEE);

    let mut compared = 0;
    let mut current = f.clone();
    for step in 0..depth {
        let cands = tlib.all_candidates(&current, &Region::whole());
        if cands.is_empty() {
            break;
        }
        // Compare a bounded random sample of the frontier, then step to a
        // random surviving candidate.
        let mut next = None;
        for _ in 0..cands.len().min(6) {
            let c = &cands[rng.gen_range(0..cands.len())];
            let ctx = format!("{name} seed={seed} step={step} cand={}", c.description);
            if assert_paths_agree(
                f,
                &current,
                &c.function,
                c.unrolled.as_ref(),
                lib,
                rules,
                alloc,
                traces,
                &reference,
                &sched_memo,
                &ctx,
            ) {
                next = Some(c.function.clone());
            }
            compared += 1;
        }
        match next {
            Some(g) => current = g,
            None => break,
        }
    }
    compared
}

#[test]
fn random_walks_example1_paths_agree() {
    let (f, lib, rules, alloc, traces) = example1();
    let mut compared = 0;
    for seed in [1, 2, 3] {
        compared += random_walk("example1", &f, &lib, &rules, &alloc, &traces, seed, 3);
    }
    assert!(compared >= 10, "walks compared only {compared} candidates");
}

#[test]
fn random_walks_table2_paths_agree() {
    let (lib, rules) = section5_library();
    let mut compared = 0;
    for b in suite(&lib) {
        // Two seeds per benchmark, short walks: enough to mix cold and
        // warm memo states without dominating test time.
        for seed in [11, 29] {
            compared += random_walk(
                b.name,
                &b.function,
                &lib,
                &rules,
                &b.allocation,
                &b.traces,
                seed,
                2,
            );
        }
    }
    assert!(compared >= 30, "walks compared only {compared} candidates");
}

/// What a whole search must reproduce.
struct OracleRun {
    best: Function,
    applied: Vec<String>,
    evaluated: usize,
    estimate: Estimate,
}

/// The Figure 5 flow from scratch: every candidate is checked and
/// profiled on the IR interpreter, scheduled without a memo, and
/// estimated, one at a time.
fn oracle_optimize(b: &Benchmark, config: &FactConfig) -> OracleRun {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let (f, alloc, traces) = (&b.function, &b.allocation, &b.traces);

    let sr0 = schedule(f, &lib, &rules, alloc, &profile(f, traces), &config.sched)
        .expect("baseline schedules");
    let markov0 = markov_of(&sr0).expect("baseline analyzes");
    let base_cycles = markov0.average_schedule_length;
    let blocks = partition(&sr0.stg, &markov0, &config.partition);
    let regions: Vec<Region> = if blocks.is_empty() {
        vec![Region::whole()]
    } else {
        blocks
            .iter()
            .take(config.max_blocks)
            .map(|blk| region_of_block(f, &sr0, blk))
            .collect()
    };

    let clock_ns = config.sched.clock_ns;
    let estimate = |g: &Function| -> Option<Estimate> {
        let prof = profile(g, traces);
        if prof.runs_ok == 0 {
            return None;
        }
        let sr = schedule(g, &lib, &rules, alloc, &prof, &config.sched).ok()?;
        match config.objective {
            Objective::Power => {
                let est = evaluate_power_mode(&sr, &lib, clock_ns, base_cycles).ok()?;
                if est.average_schedule_length > base_cycles * 1.001 {
                    return None;
                }
                Some(est)
            }
            Objective::Throughput | Objective::Pareto => evaluate(&sr, &lib, clock_ns).ok(),
        }
    };
    let score_one = |g: &Function| -> Option<f64> {
        if config.check_equivalence && check_equivalence(f, g, traces, 0xC0FFEE).is_err() {
            return None;
        }
        Some(config.objective.score(&estimate(g)?))
    };
    let score = |batch: &[MegaCandidate<'_>]| -> Vec<Option<f64>> {
        batch.iter().map(|c| score_one(c.function())).collect()
    };

    let mut best = f.clone();
    let mut applied = Vec::new();
    let mut evaluated = 0;
    for region in &regions {
        let r = apply_transforms(&best, region, &tlib, &config.search, &score, None);
        evaluated += r.evaluated;
        if r.best_score > f64::NEG_INFINITY && !r.applied.is_empty() {
            best = r.best;
            applied.extend(r.applied);
        }
    }
    let estimate = estimate(&best).expect("the winner estimates");
    OracleRun {
        best,
        applied,
        evaluated,
        estimate,
    }
}

fn quick_config(objective: Objective, seed: u64, threads: usize) -> FactConfig {
    let mut config = FactConfig {
        objective,
        ..FactConfig::default()
    };
    config.search.seed = seed;
    config.search.threads = threads;
    config.search.max_moves = 3;
    config.search.in_set_size = 2;
    config.search.max_rounds = 2;
    config.search.max_evaluations = 60;
    config
}

/// The production run, with a fresh shared cache.
fn run(b: &Benchmark, config: &FactConfig) -> (FactResult, EvalCache) {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let cache = EvalCache::default();
    let hooks = OptimizeHooks {
        cache: Some(&cache),
        stop: None,
        timers: None,
    };
    let r = optimize_with(
        &b.function,
        &lib,
        &rules,
        &b.allocation,
        &b.traces,
        &tlib,
        config,
        hooks,
    )
    .expect("optimize run");
    (r, cache)
}

fn assert_matches_oracle(r: &FactResult, oracle: &OracleRun, ctx: &str) {
    assert_eq!(r.applied, oracle.applied, "applied path differs ({ctx})");
    assert_eq!(r.evaluated, oracle.evaluated, "eval count differs ({ctx})");
    assert_eq!(
        structural_hash(&r.best),
        structural_hash(&oracle.best),
        "winner structural hash differs ({ctx})"
    );
    assert_eq!(
        r.estimate.average_schedule_length.to_bits(),
        oracle.estimate.average_schedule_length.to_bits(),
        "schedule length differs ({ctx})"
    );
    assert_eq!(
        r.estimate.power.to_bits(),
        oracle.estimate.power.to_bits(),
        "power differs ({ctx})"
    );
}

/// A loop-free behavior with a memory: two stored entries and two never
/// written, so every verify lane reads its own private random image.
const MEMORY_SUM_SRC: &str = "proc memsum(a, b, c, d) { array t[4]; \
     t[0] = a + b; t[1] = c + d; out s = t[0] + t[1] + t[2] + t[3] + a; }";

/// A loop whose branch reads the memory it writes: memory steers it, so
/// its lanes do other work on the equivalence reference's random images
/// than from zeroed memories, and a run captures the reference at
/// set-up.
const MEMORY_SCAN_SRC: &str = "proc memscan(a, b, n) { array t[8]; var s = 0; var i = 0; \
     while (i < n) { if (t[i] > 0) { s = s + a * i + b * i; } else { s = s - a; } \
     t[i + 1] = s; i = i + 1; } out y = s; }";

/// The suite, plus GCD, PPS and two memory-bearing behaviors under
/// 32-vector traces: a loop-free one memory does not steer and a loop
/// it does. Both verify against private random images per lane.
fn suite_and_wide_traces() -> Vec<Benchmark> {
    let (lib, _) = section5_library();
    let mut out = suite(&lib);
    for name in ["GCD", "PPS"] {
        let mut b = suite(&lib).into_iter().find(|b| b.name == name).unwrap();
        b.traces = generate(&suite::input_specs(name).unwrap(), 32, 91);
        assert!(b.traces.dedup_lanes().len() >= 8, "{name}: distinct lanes");
        out.push(b);
    }
    let inputs: Vec<(String, InputSpec)> = ["a", "b", "c", "d"]
        .iter()
        .map(|n| (n.to_string(), InputSpec::Uniform { lo: -50, hi: 50 }))
        .collect();
    out.push(Benchmark {
        name: "MEMSUM",
        function: compile(MEMORY_SUM_SRC).expect("MEMSUM compiles"),
        allocation: suite::pps(&lib).allocation,
        traces: generate(&inputs, 32, 93),
    });
    let inputs: Vec<(String, InputSpec)> = [
        ("a", InputSpec::Uniform { lo: -9, hi: 9 }),
        ("b", InputSpec::Uniform { lo: -9, hi: 9 }),
        ("n", InputSpec::Uniform { lo: 0, hi: 7 }),
    ]
    .into_iter()
    .map(|(n, spec)| (n.to_string(), spec))
    .collect();
    out.push(Benchmark {
        name: "MEMSCAN",
        function: compile(MEMORY_SCAN_SRC).expect("MEMSCAN compiles"),
        allocation: suite::igf(&lib).allocation,
        traces: generate(&inputs, 32, 95),
    });
    for (name, steered) in [("MEMSUM", false), ("MEMSCAN", true)] {
        let b = out.iter().find(|b| b.name == name).unwrap();
        assert_eq!(memory_steers(&b.function), steered, "{name}");
    }
    out
}

/// With equivalence checking on, a run captures the reference exactly
/// when it needs it: a candidate was simulated against it, or memory
/// steers the input, whose bound on the random images the zero-memory
/// profile pass cannot give.
fn assert_captured_on_demand(b: &Benchmark, captured: bool, c: &CandidateCounts, ctx: &str) {
    assert_eq!(
        captured,
        c.simulated_total() > 0 || memory_steers(&b.function),
        "reference captured = {captured} with {} simulated ({ctx})",
        c.simulated_total()
    );
}

/// For fixed seeds, `optimize` must reproduce the oracle exactly, for
/// any worker thread count — and leave the same cache ledger behind.
#[test]
fn optimize_suite_matches_oracle() {
    for b in suite_and_wide_traces() {
        for (objective, seed) in [(Objective::Throughput, 3), (Objective::Power, 17)] {
            let oracle = oracle_optimize(&b, &quick_config(objective, seed, 1));
            let mut ledger = None;
            for threads in [1usize, 2, 8] {
                let (r, cache) = run(&b, &quick_config(objective, seed, threads));
                let ctx = format!(
                    "{} ({} vectors) {objective:?} seed={seed} threads={threads}",
                    b.name,
                    b.traces.len()
                );
                assert_matches_oracle(&r, &oracle, &ctx);
                assert_captured_on_demand(&b, r.reference_captured, &r.candidates, &ctx);
                // There is one simulator: nothing runs batched.
                assert_eq!(r.sim_engine_batched, 0, "batched engine ({ctx})");
                assert!(r.neighborhood_batches > 0, "no dispatch recorded ({ctx})");
                assert_eq!(
                    r.mega_candidates, r.evaluated as u64,
                    "dispatched candidates != evaluations ({ctx})"
                );
                // Same keys resolved, same hit/miss split, as the
                // single-threaded run.
                let s = cache.stats();
                let ledger = *ledger.get_or_insert((s.entries, s.misses));
                assert_eq!(
                    ledger,
                    (s.entries, s.misses),
                    "cache ledger differs ({ctx})"
                );
            }
        }
    }
}

/// With equivalence checking off, each candidate's simulate call is the
/// profile pass alone; the search must still match the oracle run with
/// the same setting.
#[test]
fn optimize_suite_without_equivalence_checks_matches_oracle() {
    let (lib, _) = section5_library();
    for b in suite(&lib) {
        for (objective, seed) in [(Objective::Throughput, 5), (Objective::Power, 23)] {
            let mut config = quick_config(objective, seed, 1);
            config.check_equivalence = false;
            let oracle = oracle_optimize(&b, &config);
            let (r, _) = run(&b, &config);
            let ctx = format!("{} {objective:?} seed={seed} unchecked", b.name);
            assert_matches_oracle(&r, &oracle, &ctx);
            assert!(!r.reference_captured, "reference captured ({ctx})");
            // Every candidate the cache did not answer inherited its
            // parent's evaluation, was proved, derived, or routed to an
            // engine.
            assert_eq!(
                r.sim_engine_scalar
                    + r.sim_engine_batched
                    + r.candidates.inherited_total()
                    + r.candidates.proved_total()
                    + r.candidates.derived_total()
                    + r.cache_hits as u64,
                r.evaluated as u64,
                "engine policy skipped a candidate ({ctx})"
            );
        }
    }
}

/// The Pareto driver's frontier is a function of the seed alone: same
/// points (bit for bit), same archive, same trajectory for any thread
/// count.
#[test]
fn optimize_pareto_is_thread_invariant() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    for b in suite(&lib).into_iter().take(3) {
        let run_pareto = |threads: usize| -> ParetoFactResult {
            let cache = EvalCache::default();
            let hooks = OptimizeHooks {
                cache: Some(&cache),
                stop: None,
                timers: None,
            };
            optimize_pareto_with(
                &b.function,
                &lib,
                &rules,
                &b.allocation,
                &b.traces,
                &tlib,
                &quick_config(Objective::Pareto, 5, threads),
                hooks,
            )
            .expect("pareto run")
        };
        let sequential = run_pareto(1);
        assert!(sequential.archive_len > 0, "empty archive ({})", b.name);
        for threads in [2usize, 8] {
            let r = run_pareto(threads);
            let ctx = format!("{} pareto threads={threads}", b.name);
            assert_eq!(r.evaluated, sequential.evaluated, "eval count ({ctx})");
            assert_eq!(r.cache_hits, sequential.cache_hits, "cache hits ({ctx})");
            assert_eq!(r.archive_len, sequential.archive_len, "archive ({ctx})");
            let bits = |p: &ParetoFactResult| -> Vec<(u64, u64, Vec<String>)> {
                p.frontier
                    .iter()
                    .map(|x| {
                        (
                            x.energy.to_bits(),
                            x.latency_cycles.to_bits(),
                            x.applied.clone(),
                        )
                    })
                    .collect()
            };
            assert_eq!(bits(&r), bits(&sequential), "frontier differs ({ctx})");
        }
    }
}

/// The simulation ledger of whole runs: every candidate the cache did not
/// answer either inherited its parent's profile and estimate (an operand
/// swap), or was proved equivalent to its parent and reused its profile,
/// or derived its profile from the parent's counts (all three simulated
/// not at all), or was simulated; and each simulated candidate
/// costs `k` passes over the traces — `k = 1` for memory-free behaviors
/// (verification and profiling share one pass) and for runs without
/// equivalence checking (the profile pass alone), `k = 2` for
/// memory-bearing behaviors under equivalence checking (a verify pass,
/// then a zero-memory profile pass). The baseline and final profiles are
/// not counted.
///
/// A fresh run of the suite inherits, proves or derives every candidate,
/// so no loop-unroll candidate is simulated. A second, longer run over the
/// first run's cache is where simulation remains: the cache answers the
/// first run's candidates without profiling them, so the children of
/// those it moves to are simulated.
#[test]
fn sim_vectors_count_one_pass_per_simulated_candidate() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let (mut inherited, mut proved, mut derived) = (0, 0, 0);
    for b in suite_and_wide_traces() {
        let memory_free = b.function.memories().count() == 0;
        for check_equivalence in [true, false] {
            let k = if check_equivalence && !memory_free {
                2
            } else {
                1
            };
            let cache = EvalCache::default();
            for (fresh, budget) in [(true, 60), (false, 240)] {
                let mut config = quick_config(Objective::Throughput, 7, 1);
                config.check_equivalence = check_equivalence;
                config.search.max_evaluations = budget;
                let hooks = OptimizeHooks {
                    cache: Some(&cache),
                    stop: None,
                    timers: None,
                };
                let r = optimize_with(
                    &b.function,
                    &lib,
                    &rules,
                    &b.allocation,
                    &b.traces,
                    &tlib,
                    &config,
                    hooks,
                )
                .expect("optimize run");
                let ctx = format!(
                    "{} traces={} check_equivalence={check_equivalence} fresh={fresh}",
                    b.name,
                    b.traces.len()
                );
                let c = &r.candidates;
                let simulated = c.simulated_total();
                if check_equivalence {
                    assert_captured_on_demand(&b, r.reference_captured, c, &ctx);
                } else {
                    assert!(!r.reference_captured, "reference captured ({ctx})");
                }
                assert_eq!(
                    (r.evaluated - r.cache_hits) as u64,
                    c.inherited_total() + c.proved_total() + c.derived_total() + simulated,
                    "every uncached candidate is inherited, proved, derived or simulated ({ctx})"
                );
                assert_eq!(
                    r.sim_vectors,
                    simulated * (k * b.traces.len()) as u64,
                    "simulated vectors ({ctx})"
                );
                assert_eq!(r.sim_engine_batched, 0, "batched engine ({ctx})");
                if fresh {
                    assert_eq!(
                        c.simulated[TransformKind::LoopUnroll.index()],
                        0,
                        "a loop-unroll candidate was simulated ({ctx})"
                    );
                } else {
                    // The suite proves every candidate whose parent was
                    // profiled: what is simulated had a cache-answered one.
                    assert_eq!(
                        c.unprofiled_parents,
                        simulated - c.simulated_inputs,
                        "simulated with a profiled parent ({ctx})"
                    );
                    // These searches outgrow the first run's budget.
                    if matches!(b.name, "IGF" | "PPS" | "MEMSUM") {
                        assert!(c.unprofiled_parents > 0, "nothing simulated ({ctx})");
                    }
                }
                inherited += c.inherited_total();
                proved += c.proved_total();
                derived += c.derived_total();
            }
        }
    }
    assert!(
        inherited > 0,
        "no operand swap inherited its parent's estimate"
    );
    assert!(proved > 0, "the prover never short-circuited a simulation");
    assert!(derived > 0, "no unrolled candidate's profile was derived");
}

/// The shared cache's ledger holds candidate scores and nothing else: a
/// fresh cache, after one run, was asked once per evaluation the run did
/// not answer from it, and stored one entry for each.
#[test]
fn the_shared_cache_holds_one_score_per_uncached_evaluation() {
    let (lib, _) = section5_library();
    for b in suite(&lib) {
        for (objective, seed) in [(Objective::Throughput, 11), (Objective::Power, 29)] {
            let (r, cache) = run(&b, &quick_config(objective, seed, 1));
            let ctx = format!("{} {objective:?} seed={seed}", b.name);
            let uncached = (r.evaluated - r.cache_hits) as u64;
            let s = cache.stats();
            assert_eq!(s.hits, r.cache_hits as u64, "cache hits ({ctx})");
            assert_eq!(s.misses, uncached, "cache misses ({ctx})");
            assert_eq!(s.entries, uncached, "cache entries ({ctx})");
        }
    }
}

/// A fresh run of the suite proves, derives or inherits every candidate
/// and memory steers no suite behavior, so no objective captures the
/// equivalence reference (DESIGN §8.5.3).
#[test]
fn fresh_suite_runs_capture_no_reference() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    for b in suite(&lib) {
        for objective in [Objective::Throughput, Objective::Power] {
            let (r, _) = run(&b, &quick_config(objective, 13, 1));
            let ctx = format!("{} {objective:?}", b.name);
            assert_eq!(r.candidates.simulated_total(), 0, "simulated ({ctx})");
            assert!(!r.reference_captured, "reference captured ({ctx})");
        }
        let r = optimize_pareto_with(
            &b.function,
            &lib,
            &rules,
            &b.allocation,
            &b.traces,
            &tlib,
            &quick_config(Objective::Pareto, 13, 1),
            OptimizeHooks::default(),
        )
        .expect("pareto run");
        assert_eq!(r.candidates.simulated_total(), 0, "simulated ({})", b.name);
        assert!(
            !r.reference_captured,
            "reference captured ({} pareto)",
            b.name
        );
    }
}

/// A run over an earlier run's cache simulates the children of the
/// parents the cache answered, so it captures the reference on demand
/// — from whichever worker thread needs it first — and still ends
/// where the cold oracle does, for any thread count.
#[test]
fn warm_runs_capture_the_reference_on_demand_and_match_the_oracle() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    for name in ["IGF", "PPS"] {
        let b = suite(&lib).into_iter().find(|b| b.name == name).unwrap();
        let budget = |threads: usize, max_evaluations: usize| {
            let mut config = quick_config(Objective::Throughput, 7, threads);
            config.search.max_evaluations = max_evaluations;
            config
        };
        let oracle = oracle_optimize(&b, &budget(1, 240));
        for threads in [1usize, 2, 8] {
            let cache = EvalCache::default();
            let hooks = OptimizeHooks {
                cache: Some(&cache),
                stop: None,
                timers: None,
            };
            let optimize = |config: &FactConfig| {
                optimize_with(
                    &b.function,
                    &lib,
                    &rules,
                    &b.allocation,
                    &b.traces,
                    &tlib,
                    config,
                    hooks,
                )
                .expect("optimize run")
            };
            let ctx = format!("{name} threads={threads}");
            let cold = optimize(&budget(threads, 60));
            assert!(!cold.reference_captured, "cold run captured ({ctx})");
            let warm = optimize(&budget(threads, 240));
            assert!(warm.cache_hits > 0, "no cache hits ({ctx})");
            assert!(
                warm.candidates.unprofiled_parents > 0,
                "no child of a cache-answered parent simulated ({ctx})"
            );
            assert_captured_on_demand(&b, warm.reference_captured, &warm.candidates, &ctx);
            assert_matches_oracle(&warm, &oracle, &ctx);
        }
    }
}
