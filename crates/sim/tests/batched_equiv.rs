//! Batched-vs-scalar bit-identity property tests.
//!
//! `CompiledFn::run_batch` claims per-lane *bit-identity* with
//! `CompiledFn::execute_seeded`, and `simulate` claims the verdicts and
//! `BranchProfile`s of the interpreter oracles (`check_equivalence`,
//! `profile`) on both engines. These tests hold those claims against
//! randomly generated behaviors:
//!
//! 1. a seed-driven generator emits random fact-lang programs (nested
//!    ifs, data-bounded loops, arrays, and occasional input-triggered
//!    step-limit traps), plus a semantically-equivalent rewrite and an
//!    observably-mutated variant of each;
//! 2. every program runs through both engines over random trace sets
//!    (duplicate-heavy by construction, exercising dedup weighting) and
//!    the results are compared exactly.
//!
//! Step-limit boundaries are held at lane level (`run_batch` vs
//! `execute_seeded`, which take a step limit), in caller order and under
//! shuffled lane orders; `simulate` runs under the default limit, so its
//! programs here are trap-free (its step-limit lanes are covered by
//! `simulate::tests::failed_runs_are_weighted_like_the_oracle`).
//!
//! Deliberately std-only and seed-driven (no proptest): a failure
//! reproduces exactly from the printed seed and source.

use fact_lang::compile;
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sim::{
    check_equivalence, generate, profile, simulate, CompiledFn, EquivReference, ExecError,
    ExecResult, InputSpec, Lane, SimCounters, SimEngine, SimScratch, TraceSet,
};

/// How the generator renders the one program a seed describes.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    /// Canonical rendering.
    Plain,
    /// Semantically equivalent rewrite: commutative operands swapped and
    /// subtraction rendered as `x + (0 - y)` (identical under the IR's
    /// wrapping arithmetic).
    Rewritten,
    /// First output perturbed: `+ 1` on even seeds (always observable),
    /// `+ !(a - K)` on odd seeds (observable only when some trace vector
    /// has `a == K`). Either way both engines must agree on the verdict.
    Mutated,
}

/// What the program may legally reference at a given point.
#[derive(Clone)]
struct Scope {
    /// Variables and inputs an expression may read.
    readable: Vec<String>,
    /// Variables a statement may assign (loop counters excluded).
    mutable: Vec<String>,
    /// Declared arrays, as `(name, index mask)`.
    arrays: Vec<(String, i64)>,
}

/// Seed-driven program generator. All control flow is driven by the rng
/// and the fixed parameters — never by `variant` — so the variants of a
/// seed draw the identical random sequence and describe the same
/// underlying computation, differing only in rendering.
struct ProgGen {
    rng: StdRng,
    variant: Variant,
    tmp: usize,
}

impl ProgGen {
    fn fresh(&mut self) -> String {
        self.tmp += 1;
        format!("t{}", self.tmp)
    }

    /// A variable, input, or small integer literal.
    fn atom(&mut self, scope: &Scope) -> String {
        if self.rng.gen_range(0..3) == 0 {
            self.rng.gen_range(-9i64..=9).to_string()
        } else {
            scope.readable[self.rng.gen_range(0..scope.readable.len())].clone()
        }
    }

    /// An atom or a masked (always in-bounds) array load.
    fn leaf(&mut self, scope: &Scope) -> String {
        if !scope.arrays.is_empty() && self.rng.gen_range(0..4) == 0 {
            let (name, mask) = scope.arrays[self.rng.gen_range(0..scope.arrays.len())].clone();
            let idx = self.atom(scope);
            return format!("{name}[({idx}) & {mask}]");
        }
        self.atom(scope)
    }

    fn expr(&mut self, depth: usize, scope: &Scope) -> String {
        if depth == 0 || self.rng.gen_range(0..3) == 0 {
            return self.leaf(scope);
        }
        let op = self.rng.gen_range(0..6);
        let l = self.expr(depth - 1, scope);
        let r = self.expr(depth - 1, scope);
        // Drawn unconditionally to keep the sequence aligned across
        // variants; only the rewritten rendering acts on it.
        let swap = self.rng.gen_range(0..2) == 1 && self.variant == Variant::Rewritten;
        match (op, swap) {
            (0, false) => format!("({l} + {r})"),
            (0, true) => format!("({r} + {l})"),
            (1, false) => format!("({l} - {r})"),
            (1, true) => format!("({l} + (0 - {r}))"),
            (2, false) => format!("({l} * {r})"),
            (2, true) => format!("({r} * {l})"),
            (3, false) => format!("({l} & {r})"),
            (3, true) => format!("({r} & {l})"),
            (4, false) => format!("({l} | {r})"),
            (4, true) => format!("({r} | {l})"),
            (_, false) => format!("({l} ^ {r})"),
            (_, true) => format!("({r} ^ {l})"),
        }
    }

    fn cond(&mut self, scope: &Scope) -> String {
        let op = ["<", "<=", ">", ">=", "==", "!="][self.rng.gen_range(0..6usize)];
        let l = self.expr(1, scope);
        let r = self.expr(1, scope);
        format!("({l} {op} {r})")
    }

    fn block(&mut self, depth: usize, scope: &mut Scope, out: &mut String) {
        for _ in 0..self.rng.gen_range(1..=3) {
            self.stmt(depth, scope, out);
        }
    }

    fn stmt(&mut self, depth: usize, scope: &mut Scope, out: &mut String) {
        match self.rng.gen_range(0..8) {
            0 | 1 if depth > 0 => {
                let cond = self.cond(scope);
                let mut then_b = String::new();
                self.block(depth - 1, &mut scope.clone(), &mut then_b);
                if self.rng.gen_range(0..2) == 1 {
                    let mut else_b = String::new();
                    self.block(depth - 1, &mut scope.clone(), &mut else_b);
                    out.push_str(&format!("if {cond} {{ {then_b} }} else {{ {else_b} }}\n"));
                } else {
                    out.push_str(&format!("if {cond} {{ {then_b} }}\n"));
                }
            }
            // Data-bounded loop: the mask caps the trip count at 8
            // whatever the data does, so termination is structural.
            2 if depth > 0 => {
                let c = self.fresh();
                let bound = self.leaf(scope);
                let mut body_scope = scope.clone();
                body_scope.readable.push(c.clone());
                let mut body = String::new();
                self.block(depth - 1, &mut body_scope, &mut body);
                out.push_str(&format!(
                    "var {c} = 0; while ({c} < (({bound}) & 7)) {{ {body} {c} = {c} + 1; }}\n"
                ));
            }
            3 if !scope.arrays.is_empty() => {
                let (name, mask) = scope.arrays[self.rng.gen_range(0..scope.arrays.len())].clone();
                let idx = self.atom(scope);
                let val = self.expr(2, scope);
                out.push_str(&format!("{name}[({idx}) & {mask}] = {val};\n"));
            }
            4 | 5 if !scope.mutable.is_empty() => {
                let v = scope.mutable[self.rng.gen_range(0..scope.mutable.len())].clone();
                let e = self.expr(2, scope);
                out.push_str(&format!("{v} = {e};\n"));
            }
            _ => {
                let v = self.fresh();
                let e = self.expr(2, scope);
                out.push_str(&format!("var {v} = {e};\n"));
                scope.readable.push(v.clone());
                scope.mutable.push(v);
            }
        }
    }
}

/// Renders the program described by `seed`. `arrays` enables array
/// declarations (memory functions); `trap` enables a rare
/// input-triggered effectively-infinite loop (step-limit lanes).
fn gen_program(seed: u64, variant: Variant, arrays: bool, trap: bool) -> String {
    let mut g = ProgGen {
        rng: StdRng::seed_from_u64(seed),
        variant,
        tmp: 0,
    };
    let mut scope = Scope {
        readable: vec!["a".into(), "b".into(), "c".into()],
        mutable: Vec::new(),
        arrays: Vec::new(),
    };
    let mut body = String::new();
    if arrays && g.rng.gen_range(0..2) == 0 {
        body.push_str("array m0[8];\n");
        scope.arrays.push(("m0".into(), 7));
    }
    // Two accumulators up front so assignments always have a target.
    for _ in 0..2 {
        let v = g.fresh();
        let e = g.expr(1, &scope);
        body.push_str(&format!("var {v} = {e};\n"));
        scope.readable.push(v.clone());
        scope.mutable.push(v);
    }
    g.block(2, &mut scope, &mut body);
    // Step-limit trap: `t` stays even, so `t < t + 1` never goes false
    // and only the step limit ends the lane.
    let trap_val = g.rng.gen_range(-30i64..=30);
    if trap && g.rng.gen_range(0..4) == 0 {
        let t = g.fresh();
        body.push_str(&format!(
            "if (a == {trap_val}) {{ var {t} = 0; while ({t} < {t} + 1) {{ {t} = {t} + 2; }} }}\n"
        ));
    }
    let outs = g.rng.gen_range(1..=2);
    // Drawn whether or not the mutation uses it, for sequence alignment.
    let k = g.rng.gen_range(-40i64..=40);
    for i in 0..outs {
        let mut e = g.expr(2, &scope);
        if i == 0 && g.variant == Variant::Mutated {
            e = if seed.is_multiple_of(2) {
                format!("({e}) + 1")
            } else {
                format!("({e}) + !(a - {k})")
            };
        }
        body.push_str(&format!("out o{i} = {e};\n"));
    }
    format!("proc p(a, b, c) {{\n{body}}}\n")
}

/// Random trace specs for the three inputs: a mix of constants and
/// narrow/wide uniform ranges. Narrow ranges make duplicate vectors
/// likely, exercising dedup weighting.
fn trace_specs(rng: &mut StdRng) -> Vec<(String, InputSpec)> {
    ["a", "b", "c"]
        .iter()
        .map(|n| {
            let spec = match rng.gen_range(0..4) {
                0 => InputSpec::Constant(rng.gen_range(-20i64..=20)),
                1 => InputSpec::Uniform { lo: -2, hi: 2 },
                2 => InputSpec::Uniform { lo: -50, hi: 50 },
                _ => InputSpec::Uniform { lo: 0, hi: 4 },
            };
            (n.to_string(), spec)
        })
        .collect()
}

fn traces_for(seed: u64, n_max: usize) -> TraceSet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA5E7);
    let n = rng.gen_range(1..=n_max);
    let specs = trace_specs(&mut rng);
    generate(&specs, n, seed.wrapping_mul(31).wrapping_add(5))
}

const LANE_CAPS: [usize; 4] = [1, 3, 8, 256];
const SEEDS: u64 = 40;

/// The scalar engine and the batched engine at every lane cap.
fn engines() -> impl Iterator<Item = SimEngine> {
    std::iter::once(SimEngine::Scalar).chain(LANE_CAPS.map(SimEngine::batched_with))
}

/// Canonical text form of an execution outcome (branch counts sorted, so
/// `HashMap` iteration order cannot leak into the comparison).
fn canon(r: &Result<ExecResult, ExecError>) -> String {
    match r {
        Ok(r) => {
            let mut branches: Vec<_> = r.branches.counts.iter().map(|(&b, &c)| (b, c)).collect();
            branches.sort_unstable();
            format!(
                "ok outputs={:?} returned={:?} memories={:?} ops={} visits={:?} branches={branches:?}",
                r.outputs, r.returned, r.memories, r.ops_executed, r.block_visits
            )
        }
        Err(e) => format!("err {e:?}"),
    }
}

#[test]
fn run_batch_results_identical_to_scalar_execution() {
    for seed in 0..SEEDS {
        let src = gen_program(seed, Variant::Plain, true, true);
        let f = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let cf = CompiledFn::compile(&f);
        let traces = traces_for(seed, 20);
        // Random per-lane memory images of random length: short images
        // exercise the zero-extension path in both engines.
        let mut mrng = StdRng::seed_from_u64(seed ^ 0xA111CE);
        let inits: Vec<Vec<Vec<i64>>> = (0..traces.len())
            .map(|_| {
                (0..cf.num_memories())
                    .map(|_| {
                        let len = mrng.gen_range(0..=8);
                        (0..len).map(|_| mrng.gen_range(-100i64..100)).collect()
                    })
                    .collect()
            })
            .collect();
        let lanes: Vec<Lane<'_>> = traces
            .vectors
            .iter()
            .zip(&inits)
            .map(|(v, init)| Lane { inputs: v, init })
            .collect();
        let batch = cf.run_batch(&lanes, 20_000);
        assert_eq!(batch.len(), lanes.len());
        for (i, v) in traces.vectors.iter().enumerate() {
            let scalar = cf.execute_seeded(v, &inits[i], 20_000);
            assert_eq!(
                canon(&batch[i]),
                canon(&scalar),
                "lane {i} differs (seed {seed})\n{src}"
            );
        }
    }
}

#[test]
fn simulated_profiles_bit_identical_to_the_oracle() {
    let mut scratch = SimScratch::default();
    for seed in 0..SEEDS {
        let src = gen_program(seed, Variant::Plain, true, false);
        let f = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let cf = CompiledFn::compile(&f);
        let traces = traces_for(seed, 40);
        let oracle = profile(&f, &traces);
        let lanes = traces.dedup_lanes().len() as u64;
        for engine in engines() {
            let counters = SimCounters::default();
            let sim = simulate(&cf, &traces, None, engine, Some(&counters), &mut scratch);
            assert_eq!(
                sim.profile.as_ref(),
                Some(&oracle),
                "profile differs (seed {seed}, {engine:?})\n{src}"
            );
            assert_eq!(counters.vectors(), traces.len() as u64);
            let batches = match engine {
                SimEngine::Scalar => 0,
                SimEngine::Batched { max_lanes } => lanes.div_ceil(max_lanes as u64),
            };
            assert_eq!(counters.batches(), batches, "({engine:?})");
        }
    }
}

#[test]
fn simulated_verdicts_bit_identical_to_the_oracle() {
    let mut scratch = SimScratch::default();
    let mut mismatched = 0usize;
    for seed in 0..SEEDS {
        let plain = gen_program(seed, Variant::Plain, true, false);
        let f = compile(&plain).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{plain}"));
        let traces = traces_for(seed, 40);
        let reference = EquivReference::capture(&f, &traces, seed ^ 0xC0FFEE);
        for (variant, must_hold) in [(Variant::Rewritten, true), (Variant::Mutated, false)] {
            let src = gen_program(seed, variant, true, false);
            let g = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            let cg = CompiledFn::compile(&g);
            let oracle = check_equivalence(&f, &g, &traces, seed ^ 0xC0FFEE);
            if must_hold {
                if let Err(e) = &oracle {
                    panic!("rewrite not equivalent (seed {seed}): {e}\n{plain}\n{src}");
                }
            }
            let oracle_profile = oracle.is_ok().then(|| profile(&g, &traces));
            for engine in engines() {
                let sim = simulate(&cg, &traces, Some(&reference), engine, None, &mut scratch);
                assert_eq!(
                    sim.profile, oracle_profile,
                    "verdict or profile differs (seed {seed}, {engine:?})\n{src}"
                );
            }
            if oracle.is_err() {
                mismatched += 1;
            }
        }
    }
    // Even seeds' mutations are unconditionally observable, so at least
    // half the mutated candidates must have been rejected.
    assert!(
        mismatched >= 15,
        "only {mismatched} mismatching candidates — generator too tame"
    );
}

/// Clustering permutation invariance: feeding the *same* vectors in any
/// lane order — which changes how clustering and compaction permute the
/// internal layout — must leave per-lane results bit-identical to scalar
/// execution in the caller's order, and profiles bit-identical to the
/// oracle's.
#[test]
fn clustering_is_lane_order_invariant() {
    let mut scratch = SimScratch::default();
    let mut trapped = 0usize;
    for seed in 0..SEEDS {
        // `simulate` runs under the default step limit, so its half uses
        // the trap-free program; the lane-order half keeps the traps.
        let src = gen_program(seed, Variant::Plain, false, false);
        let f = compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
        let cf = CompiledFn::compile(&f);
        let trap_src = gen_program(seed, Variant::Plain, false, true);
        let trap_cf = CompiledFn::compile(
            &compile(&trap_src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{trap_src}")),
        );
        let traces = traces_for(seed, 40);
        let oracle = profile(&f, &traces);
        // A seeded Fisher–Yates shuffle of the vector order.
        let mut perm: Vec<usize> = (0..traces.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5071);
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let shuffled = TraceSet::new(
            perm.iter()
                .map(|&i| traces.vectors[i].clone())
                .collect::<Vec<_>>(),
        );
        for max_lanes in [3usize, 256] {
            let engine = SimEngine::batched_with(max_lanes);
            let sim = simulate(&cf, &shuffled, None, engine, None, &mut scratch);
            assert_eq!(
                sim.profile.as_ref(),
                Some(&oracle),
                "profile depends on lane order (seed {seed}, max_lanes {max_lanes})\n{src}"
            );
        }
        // And per-lane results, step-limit traps included, come back in
        // the shuffled caller order: one lane per value of `a` in the
        // trap's trigger range (`b`, `c` from the shuffled vectors), in
        // shuffled order, so a trapping program traps at a random lane.
        let mut vectors: Vec<_> = (-30i64..=30)
            .zip(shuffled.vectors.iter().cycle())
            .map(|(a, v)| {
                let mut v = v.clone();
                v.insert("a".into(), a);
                v
            })
            .collect();
        for i in (1..vectors.len()).rev() {
            let j = rng.gen_range(0..=i);
            vectors.swap(i, j);
        }
        let lanes: Vec<Lane<'_>> = vectors
            .iter()
            .map(|v| Lane {
                inputs: v,
                init: &[],
            })
            .collect();
        let batch = trap_cf.run_batch(&lanes, 20_000);
        trapped += batch
            .iter()
            .filter(|r| matches!(r, Err(ExecError::StepLimitExceeded { .. })))
            .count();
        for (i, v) in vectors.iter().enumerate() {
            let scalar = trap_cf.execute_seeded(v, &[], 20_000);
            assert_eq!(
                canon(&batch[i]),
                canon(&scalar),
                "shuffled lane {i} differs (seed {seed})\n{trap_src}"
            );
        }
    }
    assert!(trapped > 0, "no shuffled lane hit the step limit");
}
