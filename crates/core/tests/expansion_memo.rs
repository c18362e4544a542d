//! The expansion memo changes what is built, never what is found.
//!
//! Every run given an `EvalCache` expands parents through the cache's
//! expansion memo, and builds a candidate's function only when something
//! reads it (DESIGN §10.5). This suite runs the §5 suite under each
//! objective and thread count three ways — with no cache, on a fresh
//! cache, and again on the cache the fresh run filled — and requires the
//! same result from all three: the winner's IR and STG, the estimates,
//! the path, the evaluation count and the dispatch shape. A run whose
//! parents the memo knows but whose scores the cache does not (other
//! traces and another objective filled it) reads the verdicts the
//! earlier runs left in the records, and must match a fresh run in every
//! counter. Memo entries of different libraries and regions must never
//! answer one another, nor those of structurally equal inputs whose op
//! ids differ, and the exact hash behind the memo's identities must see
//! what the structural hash ignores.

use fact_core::{
    exact_hash, optimize_pareto_with, optimize_with, structural_hash, suite, Benchmark, EvalCache,
    FactConfig, FactResult, Objective, OptimizeHooks, ParetoFactResult, PartitionConfig,
    TransformLibrary,
};
use fact_estim::section5_library;
use fact_ir::{Function, Op, OpKind};
use fact_sched::{FuLibrary, SelectionRules};
use fact_sim::TraceSet;

/// The parts of a result a cache may not change.
fn outcome(r: &FactResult) -> String {
    format!(
        "applied {:?}\nevaluated {} blocks {} batches {} batch candidates {} stopped {}\n\
         estimate {:?}\nbaseline {:?}\nwinner\n{}\nstg\n{}",
        r.applied,
        r.evaluated,
        r.blocks_optimized,
        r.neighborhood_batches,
        r.mega_candidates,
        r.stopped,
        r.estimate,
        r.baseline,
        r.best,
        r.schedule.stg.pretty(&r.schedule.function),
    )
}

/// [`outcome`] plus every work counter except the memos': a held plan
/// (DESIGN §10.6) turns a from-scratch schedule into a spliced one, so
/// the schedules are counted, not split.
fn outcome_and_work(r: &FactResult) -> String {
    format!(
        "{}\ncache hits {} schedules {} vectors {} profiled {} batched {} lanes {} \
         candidates {:?}",
        outcome(r),
        r.cache_hits,
        r.full_reschedules + r.block_spliced,
        r.sim_vectors,
        r.sim_engine_scalar,
        r.sim_engine_batched,
        r.mega_lanes,
        r.candidates,
    )
}

fn pareto_outcome(r: &ParetoFactResult) -> String {
    format!(
        "frontier {:?}\narchive {} evaluated {} blocks {} batches {} batch candidates {} \
         stopped {}\nbaseline {:?}",
        r.frontier,
        r.archive_len,
        r.evaluated,
        r.blocks_optimized,
        r.neighborhood_batches,
        r.mega_candidates,
        r.stopped,
        r.baseline,
    )
}

fn pareto_outcome_and_work(r: &ParetoFactResult) -> String {
    format!(
        "{}\ncache hits {} schedules {} vectors {} profiled {} batched {} lanes {} \
         candidates {:?}",
        pareto_outcome(r),
        r.cache_hits,
        r.full_reschedules + r.block_spliced,
        r.sim_vectors,
        r.sim_engine_scalar,
        r.sim_engine_batched,
        r.mega_lanes,
        r.candidates,
    )
}

fn config(objective: Objective, threads: usize) -> FactConfig {
    let mut c = FactConfig {
        objective,
        ..FactConfig::default()
    };
    c.search.max_evaluations = 150;
    c.search.threads = threads;
    c
}

fn hooks(cache: Option<&EvalCache>) -> OptimizeHooks<'_> {
    OptimizeHooks {
        cache,
        stop: None,
        timers: None,
    }
}

/// `traces` plus an input, `nonce`, that no program reads: the same
/// runs, under an evaluation context no cached score belongs to.
fn retraced(traces: &TraceSet, nonce: i64) -> TraceSet {
    TraceSet::new(
        traces
            .vectors
            .iter()
            .map(|v| {
                let mut v = v.clone();
                v.insert("nonce".to_string(), nonce);
                v
            })
            .collect(),
    )
}

struct Job<'a> {
    b: &'a Benchmark,
    fus: &'a FuLibrary,
    rules: &'a SelectionRules,
    tlib: &'a TransformLibrary,
}

impl Job<'_> {
    fn optimize(&self, config: &FactConfig, cache: Option<&EvalCache>) -> FactResult {
        self.optimize_on(&self.b.traces, config, cache)
    }

    fn optimize_on(
        &self,
        traces: &TraceSet,
        config: &FactConfig,
        cache: Option<&EvalCache>,
    ) -> FactResult {
        let b = self.b;
        optimize_with(
            &b.function,
            self.fus,
            self.rules,
            &b.allocation,
            traces,
            self.tlib,
            config,
            hooks(cache),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name))
    }

    fn pareto(&self, config: &FactConfig, cache: Option<&EvalCache>) -> ParetoFactResult {
        let b = self.b;
        optimize_pareto_with(
            &b.function,
            self.fus,
            self.rules,
            &b.allocation,
            &b.traces,
            self.tlib,
            config,
            hooks(cache),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name))
    }
}

#[test]
fn cold_warm_and_uncached_runs_agree() {
    let (fus, rules) = section5_library();
    let tlib = TransformLibrary::full();
    for b in &suite(&fus) {
        let job = Job {
            b,
            fus: &fus,
            rules: &rules,
            tlib: &tlib,
        };
        for threads in [1, 2, 8] {
            for objective in [Objective::Throughput, Objective::Power] {
                let what = format!("{} {objective:?} threads={threads}", b.name);
                let c = config(objective, threads);
                let plain = job.optimize(&c, None);
                let cache = EvalCache::default();
                let cold = job.optimize(&c, Some(&cache));
                let warm = job.optimize(&c, Some(&cache));
                assert_eq!(outcome(&cold), outcome(&plain), "{what}: cold");
                assert_eq!(outcome(&warm), outcome(&plain), "{what}: warm");
                assert_eq!(cold.best, plain.best, "{what}: arena-exact winner");
                assert_eq!(warm.best, plain.best, "{what}: arena-exact winner");
                assert_eq!(plain.neighborhoods_memoized, 0, "{what}");
                assert_eq!(warm.cache_hits, warm.evaluated, "{what}");
                assert_eq!(
                    warm.neighborhoods_built,
                    warm.applied.len() as u64,
                    "{what}: a repeated job builds only along its winners' paths"
                );
            }
            let what = format!("{} Pareto threads={threads}", b.name);
            let c = config(Objective::Pareto, threads);
            let plain = job.pareto(&c, None);
            let cache = EvalCache::default();
            let cold = job.pareto(&c, Some(&cache));
            let warm = job.pareto(&c, Some(&cache));
            assert_eq!(
                pareto_outcome(&cold),
                pareto_outcome(&plain),
                "{what}: cold"
            );
            assert_eq!(
                pareto_outcome(&warm),
                pareto_outcome(&plain),
                "{what}: warm"
            );
            assert_eq!(warm.cache_hits, warm.evaluated, "{what}");
            assert_eq!(
                warm.neighborhoods_built, 0,
                "{what}: nothing reads an archived design's function"
            );
        }
    }
}

#[test]
fn memoized_parents_with_unscored_children_match_a_fresh_run() {
    // Another objective on other traces fills the memo with every parent
    // the next run expands (the search input at least), and the records
    // with the verdicts of every candidate it evaluated, but the cache
    // with none of the next run's scores: the evaluator then reads
    // verdicts from the records and children the memo left unbuilt.
    let (fus, rules) = section5_library();
    let tlib = TransformLibrary::full();
    for b in &suite(&fus) {
        let job = Job {
            b,
            fus: &fus,
            rules: &rules,
            tlib: &tlib,
        };
        for threads in [1, 2, 8] {
            let what = format!("{} threads={threads}", b.name);
            let throughput = config(Objective::Throughput, threads);
            let power = config(Objective::Power, threads);
            let pareto = config(Objective::Pareto, threads);

            let shared = EvalCache::default();
            job.optimize_on(&retraced(&b.traces, 1), &throughput, Some(&shared));
            let crossed = job.optimize(&power, Some(&shared));
            let fresh = job.optimize(&power, Some(&EvalCache::default()));
            let plain = job.optimize(&power, None);
            assert!(crossed.neighborhoods_memoized > 0, "{what}");
            assert!(crossed.verdicts_memoized > 0, "{what}");
            assert_eq!(fresh.verdicts_memoized, 0, "{what}");
            assert_eq!(
                outcome_and_work(&crossed),
                outcome_and_work(&fresh),
                "{what}: power after throughput on other traces"
            );
            assert_eq!(outcome(&crossed), outcome(&plain), "{what}");
            assert_eq!(crossed.best, plain.best, "{what}");

            let crossed = job.pareto(&pareto, Some(&shared));
            let fresh = job.pareto(&pareto, Some(&EvalCache::default()));
            let plain = job.pareto(&pareto, None);
            assert!(crossed.neighborhoods_memoized > 0, "{what}");
            assert!(crossed.verdicts_memoized > 0, "{what}");
            assert_eq!(
                pareto_outcome_and_work(&crossed),
                pareto_outcome_and_work(&fresh),
                "{what}: pareto after throughput and power"
            );
            assert_eq!(pareto_outcome(&crossed), pareto_outcome(&plain), "{what}");
        }
    }
}

#[test]
fn libraries_and_regions_never_share_entries() {
    let (fus, rules) = section5_library();
    let full = TransformLibrary::full();
    let extended = TransformLibrary::extended();
    // A threshold above every edge frequency leaves no partition block,
    // so the whole function is the one region.
    let whole = |mut c: FactConfig| {
        c.partition = PartitionConfig {
            threshold_fraction: 2.0,
        };
        c
    };
    for b in &suite(&fus) {
        let job = |tlib| Job {
            b,
            fus: &fus,
            rules: &rules,
            tlib,
        };
        let c = config(Objective::Throughput, 1);
        // One cache for every run below; each run must match the same run
        // with no cache at all.
        let shared = EvalCache::default();
        for (tlib, c, name) in [
            (&full, c.clone(), "full"),
            (&extended, c.clone(), "extended"),
            (&full, whole(c.clone()), "full, whole function"),
            (&extended, whole(c.clone()), "extended, whole function"),
            (&full, c.clone(), "full again"),
        ] {
            let what = format!("{} {name}", b.name);
            let shared_run = job(tlib).optimize(&c, Some(&shared));
            let plain = job(tlib).optimize(&c, None);
            assert_eq!(outcome(&shared_run), outcome(&plain), "{what}");
            assert_eq!(shared_run.best, plain.best, "{what}");
        }
    }
}

#[test]
fn structurally_equal_inputs_keep_their_own_op_ids() {
    // The dead `t` leaves an arena slot behind: the two inputs hash
    // alike structurally (so they share every `EvalCache` score), but
    // every op id after it differs, and the descriptions print op ids.
    let plain = fact_lang::compile("proc f(a, b, c) { out y = a * b + a * c; }").unwrap();
    let shifted =
        fact_lang::compile("proc f(a, b, c) { var t = b * c; out y = a * b + a * c; }").unwrap();
    assert_eq!(structural_hash(&plain), structural_hash(&shifted));
    assert_ne!(exact_hash(&plain), exact_hash(&shifted));
    let (fus, rules) = section5_library();
    let mut alloc = fact_sched::Allocation::new();
    for (name, n) in [("a1", 1), ("mt1", 1)] {
        alloc.set(fus.by_name(name).unwrap(), n);
    }
    let spec = fact_sim::InputSpec::Uniform { lo: 0, hi: 9 };
    let inputs: Vec<(String, fact_sim::InputSpec)> = ["a", "b", "c"]
        .iter()
        .map(|n| (n.to_string(), spec.clone()))
        .collect();
    let traces = fact_sim::generate(&inputs, 8, 5);
    let tlib = TransformLibrary::full();
    let c = config(Objective::Throughput, 1);
    let run = |f: &Function, cache| {
        optimize_with(f, &fus, &rules, &alloc, &traces, &tlib, &c, hooks(cache)).unwrap()
    };
    let shared = EvalCache::default();
    for f in [&plain, &shifted, &plain] {
        let with = run(f, Some(&shared));
        let without = run(f, None);
        assert!(
            !without.applied.is_empty(),
            "the search must rewrite something"
        );
        assert_eq!(outcome(&with), outcome(&without));
        assert_eq!(with.best, without.best);
    }
}

/// `proc f(a, b) { out y = a * b; }`, built by hand so each mutation
/// below is one edit.
fn product() -> Function {
    let mut f = Function::new("f");
    let e = f.entry();
    let a = f.emit_input(e, "a");
    let b = f.emit_input(e, "b");
    let p = f.emit_bin(e, fact_ir::BinOp::Mul, a, b);
    f.emit_output(e, "y", p);
    f
}

#[test]
fn exact_hash_sees_what_the_structural_hash_ignores() {
    let base = product();
    assert_eq!(exact_hash(&base), exact_hash(&product()));

    let mut dead = product();
    dead.emit_detached(Op::new(OpKind::Const(7)));

    let mut renamed = product();
    let e = renamed.entry();
    renamed.block_mut(e).name = Some("start".into());

    let mut labelled = product();
    let first = labelled.block(labelled.entry()).ops[2];
    labelled.op_mut(first).label = Some("*1".into());

    // The same block contents from a different arena order: `b` is
    // allocated first but placed second.
    let mut reordered = Function::new("f");
    let e = reordered.entry();
    let b = reordered.emit_input(e, "b");
    let a = reordered.insert(e, 0, Op::new(OpKind::Input("a".into())));
    let p = reordered.emit_bin(e, fact_ir::BinOp::Mul, a, b);
    reordered.emit_output(e, "y", p);

    for (name, g) in [
        ("dead op", &dead),
        ("block rename", &renamed),
        ("label change", &labelled),
        ("op reorder", &reordered),
    ] {
        assert_ne!(g, &base, "{name}: the edit is visible to PartialEq");
        assert_eq!(
            structural_hash(g),
            structural_hash(&base),
            "{name}: structurally the same design"
        );
        assert_ne!(exact_hash(g), exact_hash(&base), "{name}");
    }
}
