//! Production evaluation vs. the from-scratch oracle, and the soundness
//! of every proof the search accepts a candidate on.
//!
//! `optimize` accepts a candidate only when it is proved equivalent to
//! its parent (`prove_equivalent`, or `operand_swap_of` for an operand
//! swap), reusing the parent's profile or deriving it from the parent's
//! counts; it schedules with per-block splicing and dispatches whole
//! neighborhoods across worker threads. This suite holds that path to a
//! deliberately simple oracle built here from public functions only: the
//! IR interpreter (`profile`, `check_equivalence`), the memo-free
//! `schedule`, and `evaluate`/`evaluate_power_mode`. The oracle accepts a
//! candidate when `check_equivalence` finds no difference. The two must
//! be *bit-identical*, not approximately equal:
//!
//! 1. seed-driven random walks through the transformation space of the
//!    example1 (TEST1) and Table 2 graphs, auditing the candidates they
//!    meet (item 6);
//! 2. whole `optimize` runs over the suite (plus two benchmarks under
//!    wider traces and two memory-bearing ones), the full and extended
//!    libraries, both objectives, and 1, 2, and 8 worker threads against
//!    [`oracle_optimize`] — same trajectory (applied path, evaluation
//!    count), same winner, same estimate bits, and the same cache ledger
//!    for every thread count — a ledger that holds candidate scores and
//!    nothing else;
//! 3. Pareto runs against [`oracle_pareto`], and Pareto frontiers,
//!    bit-identical for any thread count;
//! 4. the simulation ledger: no candidate of the suite is unproved, and
//!    the only profile passes inside a search are one per parent or
//!    search input the shared cache answered;
//! 5. runs over a cache another run filled end where the cold oracle
//!    does, for any thread count;
//! 6. soundness: every candidate the oracles meet that the prover (or
//!    the operand-swap check) accepts passes `check_equivalence` against
//!    its parent and the input, and its reused or derived profile is the
//!    interpreter's, bit for bit ([`assert_paths_agree`]). The count of
//!    accepted but not equivalent candidates is pinned at zero.
//!
//! Deliberately std-only and seed-driven (no proptest): a failure
//! reproduces exactly.

use fact_core::{
    apply_transforms, apply_transforms_pareto, optimize_pareto_with, optimize_with, partition,
    region_of_block, structural_hash, suite, Benchmark, CandidateCounts, EvalCache, FactConfig,
    FactResult, MegaCandidate, Objective, OptimizeHooks, ParetoArchive, ParetoFactResult,
    TransformLibrary,
};
use fact_estim::{evaluate, evaluate_power_mode, markov_of, section5_library, Estimate};
use fact_ir::{operand_swap_of, prove_equivalent, Function, GraphMap};
use fact_lang::compile;
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sched::{schedule, Allocation, SchedOptions, ScheduleMemo, SchedulePlan, ScheduleResult};
use fact_sim::{
    check_equivalence, generate, profile, simulate, BranchProfile, CompiledFn, InputSpec, TraceSet,
};
use fact_xform::{Region, TransformKind};
use std::sync::Mutex;

/// The §2 walkthrough's behavior and traces (as the example1 binary).
fn example1() -> (Function, TraceSet) {
    let f = compile(suite::TEST1_SRC).expect("TEST1 compiles");
    let traces = generate(
        &[
            ("c1".to_string(), InputSpec::Constant(18)),
            ("c2".to_string(), InputSpec::Constant(49)),
        ],
        4,
        7,
    );
    (f, traces)
}

/// Where [`assert_paths_agree`] keeps count: the candidates accepted on
/// a proof, and what was wrong with those that are unsound.
#[derive(Default)]
struct Audit {
    accepted: Mutex<usize>,
    unsound: Mutex<Vec<String>>,
}

impl Audit {
    /// Panics unless something was accepted and everything accepted was
    /// sound: the count of accepted but not equivalent candidates is
    /// pinned at zero.
    fn assert_sound(&self, what: &str) {
        let unsound = self.unsound.lock().unwrap();
        let accepted = *self.accepted.lock().unwrap();
        assert!(accepted > 0, "{what}: nothing accepted");
        assert_eq!(
            unsound.len(),
            0,
            "{what}: {} of {accepted} accepted candidates unsound: {:#?}",
            unsound.len(),
            *unsound
        );
    }
}

/// Whether production accepts `g`, a child of `parent` made as `map`
/// says, on a proof (`prove_equivalent`, or `operand_swap_of` for a
/// swap) with a profile it can reuse or derive. An accepted candidate is
/// checked against the interpreter, into `audit`: it must pass
/// `check_equivalence` against `parent` and against `original`, and the
/// profile production gives it — the parent's own, or derived from the
/// parent's counts — must equal the interpreter's bit for bit.
fn assert_paths_agree(
    audit: &Audit,
    original: &Function,
    parent: &Function,
    g: &Function,
    map: Option<&GraphMap>,
    traces: &TraceSet,
    ctx: &str,
) -> bool {
    let swap = map.is_none() && operand_swap_of(parent, g).is_some();
    if !swap && prove_equivalent(parent, g, map).is_none() {
        return false;
    }
    let given = match map {
        None => profile(parent, traces),
        // Production rejects a candidate whose counts it cannot derive.
        Some(map) => match simulate(&CompiledFn::compile(parent), traces)
            .counts
            .mapped(map, g.num_blocks())
        {
            Some(derived) => derived.profile(),
            None => return false,
        },
    };
    *audit.accepted.lock().unwrap() += 1;
    let fail = |what: String| {
        audit
            .unsound
            .lock()
            .unwrap()
            .push(format!("{what} ({ctx})"))
    };
    for (against, name) in [(parent, "parent"), (original, "input")] {
        if let Err(m) = check_equivalence(against, g, traces, 0xC0FFEE) {
            fail(format!("accepted but not equivalent to its {name}: {m}"));
        }
    }
    if given != profile(g, traces) {
        fail("accepted with a profile other than the interpreter's".to_string());
    }
    true
}

/// Walks `depth` random transformation steps from `f` through the
/// extended library, auditing a sample of every visited neighbourhood
/// and stepping to an accepted candidate. Returns how many candidates
/// were audited.
fn random_walk(
    audit: &Audit,
    name: &str,
    f: &Function,
    traces: &TraceSet,
    seed: u64,
    depth: usize,
) -> usize {
    let tlib = TransformLibrary::extended();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut compared = 0;
    let mut current = f.clone();
    for step in 0..depth {
        let cands = tlib.all_candidates(&current, &Region::whole());
        if cands.is_empty() {
            break;
        }
        let mut next = None;
        for _ in 0..cands.len().min(6) {
            let c = &cands[rng.gen_range(0..cands.len())];
            let ctx = format!("{name} seed={seed} step={step} cand={}", c.description);
            if assert_paths_agree(
                audit,
                f,
                &current,
                &c.function,
                c.map.as_ref(),
                traces,
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
    let (f, traces) = example1();
    let audit = Audit::default();
    let mut compared = 0;
    for seed in [1, 2, 3] {
        compared += random_walk(&audit, "example1", &f, &traces, seed, 3);
    }
    assert!(compared >= 10, "walks compared only {compared} candidates");
    audit.assert_sound("example1 walks");
}

#[test]
fn random_walks_table2_paths_agree() {
    let (lib, _) = section5_library();
    let audit = Audit::default();
    let mut compared = 0;
    for b in suite(&lib) {
        for seed in [11, 29] {
            compared += random_walk(&audit, b.name, &b.function, &b.traces, seed, 2);
        }
    }
    assert!(compared >= 30, "walks compared only {compared} candidates");
    audit.assert_sound("Table 2 walks");
}

/// What a whole search must reproduce.
struct OracleRun {
    best: Function,
    applied: Vec<String>,
    evaluated: usize,
    estimate: Estimate,
}

/// The oracle's view of a run: the input's regions and baseline, and
/// how it estimates a candidate.
struct OracleSetup<'a> {
    b: &'a Benchmark,
    lib: fact_sched::FuLibrary,
    rules: fact_sched::SelectionRules,
    regions: Vec<Region>,
    base_cycles: f64,
    config: &'a FactConfig,
}

impl<'a> OracleSetup<'a> {
    fn new(b: &'a Benchmark, config: &'a FactConfig) -> Self {
        let (lib, rules) = section5_library();
        let (f, alloc, traces) = (&b.function, &b.allocation, &b.traces);
        let sr0 = schedule(f, &lib, &rules, alloc, &profile(f, traces), &config.sched)
            .expect("baseline schedules");
        let markov0 = markov_of(&sr0).expect("baseline analyzes");
        let blocks = partition(&sr0.stg, &markov0, &config.partition);
        let regions = if blocks.is_empty() {
            vec![Region::whole()]
        } else {
            blocks
                .iter()
                .take(config.max_blocks)
                .map(|blk| region_of_block(f, &sr0, blk))
                .collect()
        };
        OracleSetup {
            b,
            lib,
            rules,
            regions,
            base_cycles: markov0.average_schedule_length,
            config,
        }
    }

    /// `g` profiled on the interpreter, scheduled without a memo, and
    /// estimated under `objective`.
    fn estimate(&self, g: &Function, objective: Objective) -> Option<Estimate> {
        let (b, config) = (self.b, self.config);
        let prof = profile(g, &b.traces);
        if prof.runs_ok == 0 {
            return None;
        }
        let sr = schedule(
            g,
            &self.lib,
            &self.rules,
            &b.allocation,
            &prof,
            &config.sched,
        )
        .ok()?;
        let clock_ns = config.sched.clock_ns;
        match objective {
            Objective::Power => {
                let est = evaluate_power_mode(&sr, &self.lib, clock_ns, self.base_cycles).ok()?;
                if est.average_schedule_length > self.base_cycles * 1.001 {
                    return None;
                }
                Some(est)
            }
            Objective::Throughput | Objective::Pareto => evaluate(&sr, &self.lib, clock_ns).ok(),
        }
    }

    /// The oracle's estimate of `c`: `None` unless `check_equivalence`
    /// finds it equivalent to the input. A child is audited too.
    fn checked(
        &self,
        c: &MegaCandidate<'_>,
        objective: Objective,
        audit: &Audit,
    ) -> Option<Estimate> {
        let (b, g) = (self.b, c.function());
        if let Some(origin) = &c.origin {
            let ctx = format!("{} {objective:?} {}", b.name, origin.kind);
            assert_paths_agree(
                audit,
                &b.function,
                origin.parent(),
                g,
                c.map(),
                &b.traces,
                &ctx,
            );
        }
        check_equivalence(&b.function, g, &b.traces, 0xC0FFEE).ok()?;
        self.estimate(g, objective)
    }
}

/// The Figure 5 flow from scratch: every candidate is checked and
/// profiled on the IR interpreter, scheduled without a memo, and
/// estimated, one at a time; and every proof on the way is audited.
fn oracle_optimize(
    b: &Benchmark,
    config: &FactConfig,
    tlib: &TransformLibrary,
    audit: &Audit,
) -> OracleRun {
    let setup = OracleSetup::new(b, config);
    let objective = config.objective;
    let score = |batch: &[MegaCandidate<'_>]| -> Vec<Option<f64>> {
        batch
            .iter()
            .map(|c| Some(objective.score(&setup.checked(c, objective, audit)?)))
            .collect()
    };
    let mut best = b.function.clone();
    let mut applied = Vec::new();
    let mut evaluated = 0;
    for region in &setup.regions {
        let r = apply_transforms(&best, region, tlib, &config.search, &score, None);
        evaluated += r.evaluated;
        if r.best_score > f64::NEG_INFINITY && !r.applied.is_empty() {
            best = r.best;
            applied.extend(r.applied);
        }
    }
    let estimate = setup
        .estimate(&best, objective)
        .expect("the winner estimates");
    OracleRun {
        best,
        applied,
        evaluated,
        estimate,
    }
}

/// The Pareto flow from scratch, as [`oracle_optimize`] evaluates:
/// returns the evaluation count and the archived designs' (energy,
/// latency) bits.
fn oracle_pareto(
    b: &Benchmark,
    config: &FactConfig,
    tlib: &TransformLibrary,
    audit: &Audit,
) -> (usize, Vec<(u64, u64)>) {
    let setup = OracleSetup::new(b, config);
    let score = |batch: &[MegaCandidate<'_>]| -> Vec<Option<(f64, f64)>> {
        batch
            .iter()
            .map(|c| {
                let est = setup.checked(c, Objective::Pareto, audit)?;
                Some((est.energy_vdd2, est.average_schedule_length))
            })
            .collect()
    };
    let mut archive = ParetoArchive::new(config.pareto.archive_capacity);
    let mut evaluated = 0;
    for region in &setup.regions {
        let r = apply_transforms_pareto(
            &b.function,
            region,
            tlib,
            &config.search,
            &mut archive,
            &score,
            None,
        );
        evaluated += r.evaluated;
    }
    let points = archive
        .entries()
        .iter()
        .map(|(p, _)| (p.energy.to_bits(), p.latency.to_bits()))
        .collect();
    (evaluated, points)
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

fn hooks(cache: &EvalCache) -> OptimizeHooks<'_> {
    OptimizeHooks {
        cache: Some(cache),
        stop: None,
        timers: None,
    }
}

/// The production run on `cache`.
fn run_on(
    b: &Benchmark,
    config: &FactConfig,
    tlib: &TransformLibrary,
    cache: &EvalCache,
) -> FactResult {
    let (lib, rules) = section5_library();
    optimize_with(
        &b.function,
        &lib,
        &rules,
        &b.allocation,
        &b.traces,
        tlib,
        config,
        hooks(cache),
    )
    .expect("optimize run")
}

/// The production Pareto run on `cache`.
fn run_pareto_on(
    b: &Benchmark,
    config: &FactConfig,
    tlib: &TransformLibrary,
    cache: &EvalCache,
) -> ParetoFactResult {
    let (lib, rules) = section5_library();
    optimize_pareto_with(
        &b.function,
        &lib,
        &rules,
        &b.allocation,
        &b.traces,
        tlib,
        config,
        hooks(cache),
    )
    .expect("pareto run")
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
/// written, so every lane of the equivalence check reads its own private
/// random image.
const MEMORY_SUM_SRC: &str = "proc memsum(a, b, c, d) { array t[4]; \
     t[0] = a + b; t[1] = c + d; out s = t[0] + t[1] + t[2] + t[3] + a; }";

/// A loop whose branch reads the memory it writes: memory steers it, so
/// its lanes take other paths on the equivalence check's random images
/// than from the zeroed memories it is profiled from.
const MEMORY_SCAN_SRC: &str = "proc memscan(a, b, n) { array t[8]; var s = 0; var i = 0; \
     while (i < n) { if (t[i] > 0) { s = s + a * i + b * i; } else { s = s - a; } \
     t[i + 1] = s; i = i + 1; } out y = s; }";

/// A loop the extended library's fission splits into two.
const FUSED_SRC: &str = "proc fused(n, a, b) { array x[128]; array y[128]; var i = 0; \
     while (i < n) { x[i] = (a * i) * 3; y[i] = b + i + b; i = i + 1; } }";

/// The suite, plus GCD and PPS under 32-vector traces, two
/// memory-bearing behaviors (a loop-free one memory does not steer and a
/// loop it does) and a fused loop fission splits.
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
    let specs = |pairs: &[(&str, InputSpec)]| -> Vec<(String, InputSpec)> {
        pairs
            .iter()
            .map(|(n, spec)| (n.to_string(), spec.clone()))
            .collect()
    };
    let small = InputSpec::Uniform { lo: -9, hi: 9 };
    out.push(Benchmark {
        name: "MEMSCAN",
        function: compile(MEMORY_SCAN_SRC).expect("MEMSCAN compiles"),
        allocation: suite::igf(&lib).allocation,
        traces: generate(
            &specs(&[
                ("a", small.clone()),
                ("b", small),
                ("n", InputSpec::Uniform { lo: 0, hi: 7 }),
            ]),
            32,
            95,
        ),
    });
    let mut allocation = Allocation::new();
    for (u, c) in [("a1", 2), ("mt1", 1), ("cp1", 2), ("i1", 2), ("sb1", 1)] {
        allocation.set(lib.by_name(u).unwrap(), c);
    }
    let spec = InputSpec::Uniform { lo: 0, hi: 5 };
    out.push(Benchmark {
        name: "FUSED",
        function: compile(FUSED_SRC).expect("FUSED compiles"),
        allocation,
        traces: generate(
            &specs(&[
                ("n", InputSpec::Constant(40)),
                ("a", spec.clone()),
                ("b", spec),
            ]),
            4,
            77,
        ),
    });
    out
}

/// Candidates `r` rejected unproved, but for the unrolls of FUSED's
/// fissioned loops: the first loop exits into the second one's header,
/// which the unroll proof does not accept (ROADMAP item 6).
fn unproved(b: &Benchmark, c: &CandidateCounts) -> u64 {
    let unroll = TransformKind::LoopUnroll.index();
    c.unproved_total()
        - if b.name == "FUSED" {
            c.unproved[unroll]
        } else {
            0
        }
}

/// The libraries every whole-run comparison covers.
fn libraries() -> [(&'static str, TransformLibrary); 2] {
    [
        ("full", TransformLibrary::full()),
        ("extended", TransformLibrary::extended()),
    ]
}

/// Why `got`, a schedule weighted from a plan, is not `want`, a fresh
/// memo-less [`schedule`] of the same function under the same profile:
/// the STG (states, their ops and expected visits, transitions and
/// their probabilities), the function and the report must match, and so
/// must the `evaluate` and `evaluate_power_mode` bits.
fn plan_mismatch(got: &ScheduleResult, want: &ScheduleResult) -> Option<String> {
    let (lib, _) = section5_library();
    let (g, w) = (&got.report, &want.report);
    let report = |r: &fact_sched::ScheduleReport| {
        format!(
            "{:?} {:?} {} {} {}",
            r.kernels,
            r.rotations,
            r.if_converted,
            r.concurrent_groups,
            r.memo_hits + r.memo_misses
        )
    };
    if report(g) != report(w) {
        return Some(format!("report {} != {}", report(g), report(w)));
    }
    if format!("{:?}", got.stg) != format!("{:?}", want.stg) {
        return Some("STG differs".into());
    }
    if got.function.to_string() != want.function.to_string() {
        return Some("scheduled function differs".into());
    }
    let bits = |sr: &ScheduleResult| -> Result<[u64; 6], String> {
        let e = evaluate(sr, &lib, 25.0)?;
        let p = evaluate_power_mode(sr, &lib, 25.0, e.average_schedule_length + 1.0)?;
        Ok([
            e.average_schedule_length.to_bits(),
            e.energy_vdd2.to_bits(),
            e.power.to_bits(),
            p.average_schedule_length.to_bits(),
            p.energy_vdd2.to_bits(),
            p.vdd.to_bits(),
        ])
    };
    (bits(got) != bits(want)).then(|| format!("estimate {:?} != {:?}", bits(got), bits(want)))
}

/// Two diamonds in a row: if-converting the first folds the block that
/// tests the second into the first's head, so the second's branch moves.
const MOVED_SRC: &str = "proc moved(a, b) { var x = 0; if (a > b) { x = a - b; } \
     else { x = b - a; } if (x > 3) { x = x - a; } else { x = x - b; } out y = x; }";

/// One schedule plan per design (DESIGN §10.6), built once through a
/// block memo shared by every design and weighted under three profiles
/// (the traces', one vector's, and the uniform one without visit
/// counts), equals under each a fresh memo-less [`schedule`]. The
/// designs are the suite's, MEMSUM's, MEMSCAN's, FUSED's and MOVED's
/// behaviors and every candidate of the extended library one step from
/// them; the corpus must reach kernels, rotations, concurrent groups and
/// branches if-conversion moved.
#[test]
fn plans_weight_like_fresh_schedules() {
    let (lib, rules) = section5_library();
    let opts = SchedOptions::default();
    let tlib = TransformLibrary::extended();
    let memo = ScheduleMemo::default();
    let (mut kernels, mut rotations, mut groups, mut moved, mut checked) = (0, 0, 0, 0, 0);
    let mut benchmarks = suite_and_wide_traces();
    let small = InputSpec::Uniform { lo: -9, hi: 9 };
    benchmarks.push(Benchmark {
        name: "MOVED",
        function: compile(MOVED_SRC).expect("MOVED compiles"),
        allocation: suite::gcd(&lib).allocation,
        traces: generate(
            &[("a".to_string(), small.clone()), ("b".to_string(), small)],
            8,
            97,
        ),
    });
    for b in benchmarks {
        let one = TraceSet::new(b.traces.vectors[..1].to_vec());
        let designs = std::iter::once(b.function.clone()).chain(
            tlib.all_candidates(&b.function, &Region::whole())
                .into_iter()
                .map(|c| c.function),
        );
        for f in designs {
            let Ok(plan) = SchedulePlan::build(&f, &lib, &rules, &b.allocation, &opts, Some(&memo))
            else {
                assert!(schedule(
                    &f,
                    &lib,
                    &rules,
                    &b.allocation,
                    &BranchProfile::uniform(),
                    &opts
                )
                .is_err());
                continue;
            };
            moved += usize::from(plan.moved_branches() > 0);
            for prof in [
                profile(&f, &b.traces),
                profile(&f, &one),
                BranchProfile::uniform(),
            ] {
                let got = plan.weight(&f, &prof).expect("a built plan weights");
                let want = schedule(&f, &lib, &rules, &b.allocation, &prof, &opts).unwrap();
                if let Some(why) = plan_mismatch(&got, &want) {
                    panic!("{}: {why}\n{f}", b.name);
                }
                kernels += usize::from(!got.report.kernels.is_empty());
                rotations += usize::from(!got.report.rotations.is_empty());
                groups += usize::from(got.report.concurrent_groups > 0);
                checked += 1;
            }
        }
    }
    assert!(
        kernels > 0 && rotations > 0 && groups > 0 && moved > 0,
        "kernels {kernels} rotations {rotations} groups {groups} moved {moved}"
    );
    assert!(checked > 400, "only {checked} weightings checked");
}

/// For fixed seeds, `optimize` must reproduce the oracle exactly, for
/// any worker thread count — and leave the same cache ledger behind —
/// and every proof the oracle's search meets must be sound.
#[test]
fn optimize_suite_matches_oracle() {
    let audit = Audit::default();
    for b in suite_and_wide_traces() {
        for (lname, tlib) in libraries() {
            for (objective, seed) in [(Objective::Throughput, 3), (Objective::Power, 17)] {
                let oracle = oracle_optimize(&b, &quick_config(objective, seed, 1), &tlib, &audit);
                let mut ledger = None;
                for threads in [1usize, 2, 8] {
                    let cache = EvalCache::default();
                    let r = run_on(&b, &quick_config(objective, seed, threads), &tlib, &cache);
                    let ctx = format!(
                        "{} ({} vectors) {lname} {objective:?} seed={seed} threads={threads}",
                        b.name,
                        b.traces.len()
                    );
                    assert_matches_oracle(&r, &oracle, &ctx);
                    assert_eq!(unproved(&b, &r.candidates), 0, "unproved ({ctx})");
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
    audit.assert_sound("whole runs");
}

/// The Pareto driver matches the oracle's Pareto search — the same
/// evaluations and archived points — and its frontier is a function of
/// the seed alone: same points (bit for bit), same archive, same
/// trajectory for any thread count.
#[test]
fn optimize_pareto_matches_oracle_and_is_thread_invariant() {
    let (lib, _) = section5_library();
    let audit = Audit::default();
    for b in suite(&lib).into_iter().take(3) {
        for (lname, tlib) in libraries() {
            let config = quick_config(Objective::Pareto, 5, 1);
            let (evaluated, points) = oracle_pareto(&b, &config, &tlib, &audit);
            let sequential = run_pareto_on(&b, &config, &tlib, &EvalCache::default());
            let ctx = format!("{} {lname} pareto", b.name);
            assert!(sequential.archive_len > 0, "empty archive ({ctx})");
            assert_eq!(sequential.evaluated, evaluated, "eval count ({ctx})");
            assert_eq!(sequential.archive_len, points.len(), "archive ({ctx})");
            assert_eq!(
                sequential.candidates.unproved_total(),
                0,
                "unproved ({ctx})"
            );
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
            for threads in [2usize, 8] {
                let config = quick_config(Objective::Pareto, 5, threads);
                let r = run_pareto_on(&b, &config, &tlib, &EvalCache::default());
                let ctx = format!("{ctx} threads={threads}");
                assert_eq!(r.evaluated, sequential.evaluated, "eval count ({ctx})");
                assert_eq!(r.cache_hits, sequential.cache_hits, "cache hits ({ctx})");
                assert_eq!(r.archive_len, sequential.archive_len, "archive ({ctx})");
                assert_eq!(bits(&r), bits(&sequential), "frontier differs ({ctx})");
            }
        }
    }
    audit.assert_sound("pareto runs");
}

/// The simulation ledger of whole runs: every candidate the cache did not
/// answer inherited its parent's profile and estimate (an operand swap),
/// was proved equivalent to its parent and reused its profile, or
/// derived its profile from the parent's counts — none is unproved, and
/// none is simulated. The only profile passes inside a search are over
/// the parents and search inputs the shared cache answered, one pass
/// each: none on a fresh run, and on a second, longer run over the first
/// run's cache, one per cache-answered parent whose children it
/// evaluates.
#[test]
fn sim_vectors_count_one_pass_per_profiled_parent() {
    let (mut inherited, mut proved, mut derived) = (0, 0, 0);
    for b in suite_and_wide_traces() {
        for (lname, tlib) in libraries() {
            let cache = EvalCache::default();
            for (fresh, budget) in [(true, 60), (false, 240)] {
                let mut config = quick_config(Objective::Throughput, 7, 1);
                config.search.max_evaluations = budget;
                let r = run_on(&b, &config, &tlib, &cache);
                let ctx = format!("{} traces={} {lname} fresh={fresh}", b.name, b.traces.len());
                let c = &r.candidates;
                assert_eq!(
                    (r.evaluated - r.cache_hits) as u64,
                    c.inherited_total() + c.proved_total() + c.derived_total() + c.unproved_total(),
                    "every uncached candidate is inherited, proved, derived or unproved ({ctx})"
                );
                assert_eq!(unproved(&b, c), 0, "unproved ({ctx})");
                assert_eq!(r.sim_engine_scalar, c.parents_profiled, "passes ({ctx})");
                assert_eq!(
                    r.sim_vectors,
                    c.parents_profiled * b.traces.len() as u64,
                    "one pass per profiled parent ({ctx})"
                );
                assert_eq!(r.sim_engine_batched, 0, "batched engine ({ctx})");
                if fresh {
                    assert_eq!(c.parents_profiled, 0, "a fresh run profiled ({ctx})");
                } else if matches!(b.name, "IGF" | "PPS" | "MEMSUM") {
                    // These searches outgrow the first run's budget.
                    assert!(c.parents_profiled > 0, "no parent profiled ({ctx})");
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
    assert!(proved > 0, "the prover never proved a candidate");
    assert!(derived > 0, "no candidate's profile was derived");
}

/// The shared cache's ledger holds candidate scores and nothing else: a
/// fresh cache, after one run, was asked once per evaluation the run did
/// not answer from it, and stored one entry for each.
#[test]
fn the_shared_cache_holds_one_score_per_uncached_evaluation() {
    let (lib, _) = section5_library();
    let tlib = TransformLibrary::full();
    for b in suite(&lib) {
        for (objective, seed) in [(Objective::Throughput, 11), (Objective::Power, 29)] {
            let cache = EvalCache::default();
            let r = run_on(&b, &quick_config(objective, seed, 1), &tlib, &cache);
            let ctx = format!("{} {objective:?} seed={seed}", b.name);
            let uncached = (r.evaluated - r.cache_hits) as u64;
            let s = cache.stats();
            assert_eq!(s.hits, r.cache_hits as u64, "cache hits ({ctx})");
            assert_eq!(s.misses, uncached, "cache misses ({ctx})");
            assert_eq!(s.entries, uncached, "cache entries ({ctx})");
        }
    }
}

/// A run over an earlier run's cache profiles the parents the cache
/// answered — from whichever worker thread needs one first — proves their
/// children against them, and ends where the cold oracle does, for any
/// thread count; a Pareto run over a cache another objective filled does
/// too.
#[test]
fn warm_runs_match_the_cold_oracle() {
    let (lib, _) = section5_library();
    let audit = Audit::default();
    for name in ["IGF", "PPS"] {
        let b = suite(&lib).into_iter().find(|b| b.name == name).unwrap();
        for (lname, tlib) in libraries() {
            let budget = |threads: usize, max_evaluations: usize| {
                let mut config = quick_config(Objective::Throughput, 7, threads);
                config.search.max_evaluations = max_evaluations;
                config
            };
            let oracle = oracle_optimize(&b, &budget(1, 240), &tlib, &audit);
            for threads in [1usize, 2, 8] {
                let cache = EvalCache::default();
                let ctx = format!("{name} {lname} threads={threads}");
                let cold = run_on(&b, &budget(threads, 60), &tlib, &cache);
                assert_eq!(cold.candidates.parents_profiled, 0, "cold ({ctx})");
                let warm = run_on(&b, &budget(threads, 240), &tlib, &cache);
                assert!(warm.cache_hits > 0, "no cache hits ({ctx})");
                assert!(
                    warm.candidates.parents_profiled > 0,
                    "no cache-answered parent profiled ({ctx})"
                );
                assert_eq!(warm.candidates.unproved_total(), 0, "unproved ({ctx})");
                assert_matches_oracle(&warm, &oracle, &ctx);
            }
            let config = quick_config(Objective::Pareto, 5, 2);
            let (evaluated, points) = oracle_pareto(&b, &config, &tlib, &audit);
            let cache = EvalCache::default();
            run_on(&b, &budget(2, 240), &tlib, &cache);
            let warm = run_pareto_on(&b, &config, &tlib, &cache);
            let ctx = format!("{name} {lname} pareto over a throughput cache");
            assert_eq!(warm.evaluated, evaluated, "eval count ({ctx})");
            assert_eq!(warm.archive_len, points.len(), "archive ({ctx})");
            assert_eq!(warm.candidates.unproved_total(), 0, "unproved ({ctx})");
        }
    }
    audit.assert_sound("warm runs");
}
