//! Property tests over seeded random behavioral descriptions:
//!
//! * lowering always produces verifiable SSA that executes, and the
//!   printed program parses back to one that prints and computes the
//!   same;
//! * every candidate of [`TransformLibrary::full`] and
//!   [`TransformLibrary::extended`] verifies and is functionally
//!   equivalent to its source (the paper's correctness requirement,
//!   checked on random inputs for every thread of execution);
//! * every generated behavior schedules into a valid STG with a finite
//!   average schedule length and positive energy;
//! * the equivalence prover is sound: every candidate of
//!   [`TransformLibrary::full`] it proves equivalent to its source, and
//!   every random mutation of a program it proves equivalent to the
//!   original, is equivalent under simulation and has the source's
//!   branch profile — or, for a loop unrolled by 2, the profile derived
//!   from the source's per-parity loop counts, bit for bit;
//! * on loop-shaped programs, unrolling proves, its derived counts equal
//!   simulation's, and random mutations of unrolled loops prove only
//!   when equivalent;
//! * every loop-distribution (fission) candidate of the random programs
//!   and loop nests that the prover accepts is equivalent, with the
//!   counts derived from its source's equal to simulation's;
//! * every operand swap of a program or loop nest is recognized as one
//!   by `operand_swap_of` and schedules and estimates, under the
//!   program's profile, bit for bit like the program;
//! * every program's and loop nest's schedule plan, weighted under two
//!   profiles, schedules and estimates like a fresh `schedule`.
//!
//! The generator covers nested ifs, counted loops, loops with
//! data-dependent exits, sibling loops, an array with masked (always
//! in-bounds) loads and stores, multiplications over sums (for
//! distributivity), division and remainder (the boundary traces reach
//! `x / 0` and `i64::MIN / −1`), and repeated subexpressions (for CSE).
//! A second
//! generator writes loop nests: counted loops, loops bounded by an input
//! (zero trips when it is small), data-dependent exits, if/else bodies,
//! nested loops, and array recurrences across iterations. Seed-driven
//! and std-only: a failure prints the seed and the program.

use fact_ir::{operand_swap_of, prove_equivalent, BinOp, Function, GraphMap, OpKind, UnOp};
use fact_lang::ast::{Expr, Proc, Stmt};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sim::{
    check_equivalence, generate, simulate, CompiledFn, InputSpec, ProfileCounts, TraceSet,
};
use fact_xform::algebraic::Commutativity;
use fact_xform::distribute::LoopDistribution;
use fact_xform::unroll::LoopUnroll;
use fact_xform::{Region, Transform, TransformLibrary};

/// Generated programs checked per property.
const CASES: u64 = 256;

const INPUTS: [&str; 3] = ["i0", "i1", "i2"];
const VARS: [&str; 3] = ["v0", "v1", "v2"];
/// The one array; indices are masked with `ARRAY_LEN - 1`.
const ARRAY: &str = "m";
const ARRAY_LEN: i64 = 8;

/// Seed-driven program generator.
struct ProgGen {
    rng: StdRng,
    /// Draws which binary operators divide. A stream of its own, so the
    /// shape `rng` gives a seed's program (the regression seeds' included)
    /// does not depend on it.
    divides: StdRng,
    /// Whether this program declares the array.
    array: bool,
    /// Loop counters handed out so far (each loop gets a fresh one).
    counters: usize,
    /// Expressions generated so far, for deliberate repeats.
    seen: Vec<Expr>,
}

impl ProgGen {
    fn leaf(&mut self) -> Expr {
        match self.rng.gen_range(0..7u32) {
            0..=1 => Expr::Int(self.rng.gen_range(-20i64..20)),
            2..=3 => Expr::Var(INPUTS[self.rng.gen_range(0..INPUTS.len())].to_string()),
            4..=5 => Expr::Var(VARS[self.rng.gen_range(0..VARS.len())].to_string()),
            _ if self.array => {
                let index = self.leaf();
                Expr::Index(ARRAY.to_string(), Box::new(masked(index)))
            }
            _ => Expr::Int(self.rng.gen_range(0i64..4)),
        }
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if !self.seen.is_empty() && self.rng.gen_range(0..8u32) == 0 {
            return self.seen[self.rng.gen_range(0..self.seen.len())].clone();
        }
        if depth == 0 || self.rng.gen_range(0..3u32) == 0 {
            return self.leaf();
        }
        let e = match self.rng.gen_range(0..9u32) {
            0 => Expr::Un(
                [UnOp::Neg, UnOp::Not][self.rng.gen_range(0..2usize)],
                Box::new(self.expr(depth - 1)),
            ),
            // a * (b ± c): distributivity's expansion pattern.
            1 => {
                let a = self.expr(depth - 1);
                let (b, c) = (self.leaf(), self.leaf());
                let sum = Expr::bin(
                    [BinOp::Add, BinOp::Sub][self.rng.gen_range(0..2usize)],
                    b,
                    c,
                );
                Expr::bin(BinOp::Mul, a, sum)
            }
            _ => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Lt,
                    BinOp::Eq,
                    BinOp::And,
                    BinOp::Xor,
                ][self.rng.gen_range(0..7usize)];
                // Division and remainder, as often as any two of the
                // other operators: the traces' 0, −1 and `i64::MIN`
                // reach `x / 0` and `MIN / −1`.
                let op = match self.divides.gen_range(0..9u32) {
                    0 => BinOp::Div,
                    1 => BinOp::Rem,
                    _ => op,
                };
                Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
            }
        };
        self.seen.push(e.clone());
        e
    }

    fn counter(&mut self) -> String {
        self.counters += 1;
        format!("k{}", self.counters)
    }

    fn stmts(&mut self, depth: u32) -> Vec<Stmt> {
        let n = self.rng.gen_range(1..4usize);
        let mut out = Vec::new();
        for _ in 0..n {
            let pick = if depth == 0 {
                self.rng.gen_range(0..5u32)
            } else {
                self.rng.gen_range(0..8u32)
            };
            match pick {
                0..=3 => {
                    let v = VARS[self.rng.gen_range(0..VARS.len())].to_string();
                    out.push(Stmt::Assign(v, self.expr(3)));
                }
                4 => {
                    if self.array {
                        let index = masked(self.expr(1));
                        out.push(Stmt::StoreStmt {
                            array: ARRAY.to_string(),
                            index,
                            value: self.expr(2),
                        });
                    } else {
                        let v = VARS[self.rng.gen_range(0..VARS.len())].to_string();
                        out.push(Stmt::Assign(v, self.expr(2)));
                    }
                }
                5 => out.push(Stmt::If {
                    cond: self.expr(2),
                    then_body: self.stmts(depth - 1),
                    else_body: if self.rng.gen_bool(0.5) {
                        self.stmts(depth - 1)
                    } else {
                        Vec::new()
                    },
                }),
                // A counted loop (the for-header declares its counter).
                6 => {
                    let k = self.counter();
                    let bound = self.rng.gen_range(1i64..6);
                    out.push(Stmt::For {
                        init: Box::new(Stmt::Assign(k.clone(), Expr::Int(0))),
                        cond: Expr::bin(BinOp::Lt, Expr::Var(k.clone()), Expr::Int(bound)),
                        step: Box::new(step(&k)),
                        body: self.stmts(depth - 1),
                    });
                }
                // A loop whose exit also depends on data; the counter
                // still bounds it.
                _ => {
                    let k = self.counter();
                    let bound = self.rng.gen_range(2i64..7);
                    let limit = self.rng.gen_range(-10i64..30);
                    let v = VARS[self.rng.gen_range(0..VARS.len())];
                    let cond = Expr::bin(
                        BinOp::And,
                        Expr::bin(BinOp::Lt, Expr::Var(k.clone()), Expr::Int(bound)),
                        Expr::bin(BinOp::Lt, Expr::Var(v.to_string()), Expr::Int(limit)),
                    );
                    let mut body = self.stmts(depth - 1);
                    body.push(step(&k));
                    out.push(Stmt::VarDecl(k, Expr::Int(0)));
                    out.push(Stmt::While { cond, body });
                }
            }
        }
        out
    }
}

impl ProgGen {
    /// One loop statement (with its counter's declaration): counted up
    /// to a constant (possibly 0), bounded by an input (zero trips when
    /// the input is small), or leaving on data as well; its body mixes
    /// assignments, if/else, array recurrences across iterations and,
    /// while `depth > 0`, a nested loop.
    fn loop_stmt(&mut self, depth: u32) -> Vec<Stmt> {
        let k = self.counter();
        let counter = || Expr::Var(k.clone());
        let cond = match self.rng.gen_range(0..3u32) {
            0 => Expr::bin(BinOp::Lt, counter(), Expr::Int(self.rng.gen_range(0i64..6))),
            1 => {
                let input = Expr::Var(INPUTS[self.rng.gen_range(0..INPUTS.len())].to_string());
                let bound = Expr::bin(BinOp::Sub, masked(input), Expr::Int(2));
                Expr::bin(BinOp::Lt, counter(), bound)
            }
            _ => {
                let v = VARS[self.rng.gen_range(0..VARS.len())].to_string();
                Expr::bin(
                    BinOp::And,
                    Expr::bin(BinOp::Lt, counter(), Expr::Int(self.rng.gen_range(1i64..7))),
                    Expr::bin(
                        BinOp::Lt,
                        Expr::Var(v),
                        Expr::Int(self.rng.gen_range(-10i64..30)),
                    ),
                )
            }
        };
        let mut body = Vec::new();
        for _ in 0..self.rng.gen_range(1..4usize) {
            let v = VARS[self.rng.gen_range(0..VARS.len())].to_string();
            match self.rng.gen_range(0..5u32) {
                0 | 1 => body.push(Stmt::Assign(v, self.expr(2))),
                2 => {
                    let w = VARS[self.rng.gen_range(0..VARS.len())].to_string();
                    body.push(Stmt::If {
                        cond: self.expr(1),
                        then_body: vec![Stmt::Assign(v, self.expr(2))],
                        else_body: vec![Stmt::Assign(w, self.expr(2))],
                    });
                }
                // `m[k + 1] = m[k] + e`: each iteration stores what the
                // next one loads.
                3 if self.array => {
                    let at =
                        |d: i64| masked(Expr::bin(BinOp::Add, Expr::Var(k.clone()), Expr::Int(d)));
                    let value = Expr::bin(
                        BinOp::Add,
                        Expr::Index(ARRAY.to_string(), Box::new(at(0))),
                        self.expr(1),
                    );
                    body.push(Stmt::StoreStmt {
                        array: ARRAY.to_string(),
                        index: at(1),
                        value,
                    });
                }
                4 if depth > 0 => body.extend(self.loop_stmt(depth - 1)),
                _ => body.push(Stmt::Assign(v, self.expr(1))),
            }
        }
        body.push(step(&k));
        vec![
            Stmt::VarDecl(k.clone(), Expr::Int(0)),
            Stmt::While { cond, body },
        ]
    }
}

/// The loop-nest program `seed` describes: one to three loops in
/// sequence, each possibly holding another.
fn loop_program(seed: u64) -> Proc {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x100F);
    let array = rng.gen_bool(0.5);
    let mut gen = ProgGen {
        rng,
        divides: StdRng::seed_from_u64(seed ^ 0xD1F1DE),
        array,
        counters: 0,
        seen: Vec::new(),
    };
    let mut body = Vec::new();
    if array {
        body.push(Stmt::ArrayDecl(ARRAY.to_string(), ARRAY_LEN as u32));
    }
    for (i, v) in VARS.iter().enumerate() {
        body.push(Stmt::VarDecl(
            v.to_string(),
            Expr::Var(INPUTS[i].to_string()),
        ));
    }
    for _ in 0..gen.rng.gen_range(1..4usize) {
        body.extend(gen.loop_stmt(1));
    }
    for v in VARS {
        body.push(Stmt::Out(v.to_string(), Expr::Var(v.to_string())));
    }
    if array {
        for i in [0, ARRAY_LEN - 1] {
            body.push(Stmt::Out(
                format!("m{i}"),
                Expr::Index(ARRAY.to_string(), Box::new(Expr::Int(i))),
            ));
        }
    }
    Proc {
        name: "loops".to_string(),
        inputs: INPUTS.iter().map(|s| s.to_string()).collect(),
        body,
    }
}

/// Lowers the loop-nest program `seed` describes.
fn lowered_loops(seed: u64) -> Result<(String, Function), String> {
    let p = loop_program(seed);
    let src = fact_lang::print_proc(&p);
    let f = fact_lang::lower(&p).map_err(|e| format!("{e}\n{src}"))?;
    fact_ir::verify::verify(&f).map_err(|e| format!("{e}\n{src}"))?;
    Ok((src, f))
}

fn masked(index: Expr) -> Expr {
    Expr::bin(BinOp::And, index, Expr::Int(ARRAY_LEN - 1))
}

fn step(k: &str) -> Stmt {
    Stmt::Assign(
        k.to_string(),
        Expr::bin(BinOp::Add, Expr::Var(k.to_string()), Expr::Int(1)),
    )
}

/// The program `seed` describes.
fn program(seed: u64) -> Proc {
    let mut rng = StdRng::seed_from_u64(seed);
    let array = rng.gen_bool(0.4);
    let mut gen = ProgGen {
        rng,
        divides: StdRng::seed_from_u64(seed ^ 0xD1F1DE),
        array,
        counters: 0,
        seen: Vec::new(),
    };
    let mut body = Vec::new();
    if array {
        body.push(Stmt::ArrayDecl(ARRAY.to_string(), ARRAY_LEN as u32));
    }
    for (i, v) in VARS.iter().enumerate() {
        body.push(Stmt::VarDecl(
            v.to_string(),
            Expr::Var(INPUTS[i % INPUTS.len()].to_string()),
        ));
    }
    // Up to two top-level groups: sibling loops arise here.
    for _ in 0..gen.rng.gen_range(1..3usize) {
        body.extend(gen.stmts(2));
    }
    for v in VARS {
        body.push(Stmt::Out(v.to_string(), Expr::Var(v.to_string())));
    }
    if array {
        let index = masked(Expr::Var(VARS[0].to_string()));
        body.push(Stmt::Out(
            "mem".to_string(),
            Expr::Index(ARRAY.to_string(), Box::new(index)),
        ));
    }
    Proc {
        name: "rand".to_string(),
        inputs: INPUTS.iter().map(|s| s.to_string()).collect(),
        body,
    }
}

/// `n` random vectors, then the boundary vectors: every input at
/// `i64::MIN`, `i64::MAX`, 0 and −1, and those values rotated across the
/// inputs, so wrapping arithmetic is exercised.
fn traces(n: usize, seed: u64) -> TraceSet {
    let specs: Vec<(String, InputSpec)> = INPUTS
        .iter()
        .map(|i| (i.to_string(), InputSpec::Uniform { lo: -15, hi: 15 }))
        .collect();
    let mut vectors = generate(&specs, n, seed).vectors;
    let boundary = [i64::MIN, i64::MAX, 0, -1];
    for shift in [0, 1] {
        for k in 0..boundary.len() {
            vectors.push(
                INPUTS
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        let v = boundary[(k + shift * i) % boundary.len()];
                        (name.to_string(), v)
                    })
                    .collect(),
            );
        }
    }
    TraceSet::new(vectors)
}

/// Lowers the program `seed` describes; the error names the program.
fn lowered(seed: u64) -> Result<(Proc, Function), String> {
    let p = program(seed);
    let src = fact_lang::print_proc(&p);
    let f = fact_lang::lower(&p).map_err(|e| format!("{e}\n{src}"))?;
    fact_ir::verify::verify(&f).map_err(|e| format!("{e}\n{src}"))?;
    Ok((p, f))
}

/// Seeds beyond the case budget that once exposed a bug, each kept as a
/// regression:
/// * 628: loop unrolling gave a header phi whose latch value is another
///   header phi (`v1 = v2` in the loop) the wrong value on the back edge.
const REGRESSIONS: &[u64] = &[628];

/// Runs `check` on `CASES` seeds and the regression seeds, panicking
/// with the first failing seed.
fn for_seeds(mut check: impl FnMut(u64) -> Result<(), String>) {
    for seed in (0..CASES).chain(REGRESSIONS.iter().copied()) {
        if let Err(e) = check(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn lowering_always_verifies_and_round_trips() {
    let mut dividing = 0;
    for_seeds(|seed| {
        let (p, f) = lowered(seed)?;
        let src = fact_lang::print_proc(&p);
        dividing += usize::from(f.block_ids().any(|b| {
            f.block(b)
                .ops
                .iter()
                .any(|&op| matches!(f.op(op).kind, OpKind::Bin(BinOp::Div | BinOp::Rem, _, _)))
        }));
        for v in &traces(5, 1).vectors {
            fact_sim::execute(&f, v).map_err(|e| format!("execution failed: {e:?}\n{src}"))?;
        }
        // The text parses back to a program that prints the same and
        // computes the same. (Not the same IR: a negative literal reads
        // back as a negated constant.)
        let reparsed = fact_lang::parse(&src).map_err(|e| format!("{e}\n{src}"))?;
        if fact_lang::print_proc(&reparsed) != src {
            return Err(format!("printing is not a fixpoint:\n{src}"));
        }
        let g = fact_lang::lower(&reparsed).map_err(|e| format!("{e}\n{src}"))?;
        check_equivalence(&f, &g, &traces(12, 4), 3)
            .map(|_| ())
            .map_err(|m| format!("printed program computes differently: {m}\n{src}"))
    });
    // Division and remainder reach the transformations and the prover.
    assert!(
        dividing * 4 > CASES as usize,
        "only {dividing} programs divide"
    );
}

#[test]
fn all_transformation_candidates_preserve_semantics() {
    let full = TransformLibrary::full();
    let extended = TransformLibrary::extended();
    let t = traces(24, 2);
    let mut checked: std::collections::BTreeMap<String, usize> = Default::default();
    for_seeds(|seed| {
        let (p, lowered) = lowered(seed)?;
        let src = fact_lang::print_proc(&p);
        // Both routes to the IR: the AST lowered directly, and its printed
        // text compiled (negative literals read back as negations, which
        // gives the transformations different material).
        let compiled = fact_lang::compile(&src).map_err(|e| format!("{e}\n{src}"))?;
        for f in [lowered, compiled] {
            check_candidates(&f, &src, &t, &full, &extended, &mut checked)?;
        }
        Ok(())
    });
    // The generator reaches every transformation of both libraries.
    for family in [
        "swap",
        "re-associate",
        "expand",
        "constant",
        "hoist",
        "unroll",
        "sink",
        "common-subexpression",
        "distribute",
    ] {
        assert!(
            checked.contains_key(family),
            "no `{family}` candidate in {CASES} programs: {checked:?}"
        );
    }
}

/// Checks every candidate of `f` (the program `src` describes) and
/// counts them per transformation, keyed by the first word of the
/// description.
fn check_candidates(
    f: &Function,
    src: &str,
    t: &TraceSet,
    full: &TransformLibrary,
    extended: &TransformLibrary,
    checked: &mut std::collections::BTreeMap<String, usize>,
) -> Result<(), String> {
    let base = full.all_candidates(f, &Region::whole());
    let cands = extended.all_candidates(f, &Region::whole());
    // The extended library is the full one plus extensions, in order.
    let prefix: Vec<&str> = cands[..base.len().min(cands.len())]
        .iter()
        .map(|c| c.description.as_str())
        .collect();
    let expected: Vec<&str> = base.iter().map(|c| c.description.as_str()).collect();
    if prefix != expected {
        return Err(format!(
            "extended() does not start with full()'s candidates\n{src}"
        ));
    }
    for cand in &cands {
        fact_ir::verify::verify(&cand.function)
            .map_err(|e| format!("{}: {e}\n{src}", cand.description))?;
        check_equivalence(f, &cand.function, t, 3).map_err(|m| {
            format!(
                "{}: {m}\n{src}\n== original\n{f}\n== candidate\n{}",
                cand.description, cand.function
            )
        })?;
        let family = cand.description.split(' ').next().unwrap_or_default();
        *checked.entry(family.to_string()).or_default() += 1;
    }
    Ok(())
}

/// The counts `simulate` takes of `f` over `t`, from zeroed memories.
fn counts_of(f: &Function, t: &TraceSet) -> ProfileCounts {
    simulate(&CompiledFn::compile(f), t).counts
}

/// What a proof promises, checked by simulation: `g` is equivalent to
/// `f` and has its branch profile — or, when `g` unrolls or splits a loop
/// of `f` as `map` says, the counts and profile derived from `f`'s.
fn assert_proof_holds(
    f: &Function,
    g: &Function,
    map: Option<&GraphMap>,
    t: &TraceSet,
    what: &str,
) -> Result<(), String> {
    let show = || format!("\n== original\n{f}\n== proved\n{g}");
    check_equivalence(f, g, t, 5)
        .map_err(|m| format!("{what}: proved but not equivalent: {m}{}", show()))?;
    let Some(map) = map else {
        if fact_sim::profile(f, t) != fact_sim::profile(g, t) {
            return Err(format!("{what}: proved but its profile differs{}", show()));
        }
        return Ok(());
    };
    let derived = counts_of(f, t)
        .mapped(map, g.num_blocks())
        .ok_or_else(|| format!("{what}: proved but nothing derived{}", show()))?;
    if derived != counts_of(g, t) {
        return Err(format!("{what}: derived counts differ{}", show()));
    }
    if derived.profile() != fact_sim::profile(g, t) {
        return Err(format!("{what}: derived profile differs{}", show()));
    }
    Ok(())
}

#[test]
fn proved_candidates_agree_with_simulation() {
    let full = TransformLibrary::full();
    let t = traces(24, 6);
    let (mut proved, mut total) = (0usize, 0usize);
    for_seeds(|seed| {
        let (_, f) = lowered(seed)?;
        for cand in full.all_candidates(&f, &Region::whole()) {
            total += 1;
            let map = cand.map.as_ref();
            if prove_equivalent(&f, &cand.function, map).is_some() {
                proved += 1;
                assert_proof_holds(&f, &cand.function, map, &t, &cand.description)?;
            }
        }
        Ok(())
    });
    // Most rewrites keep the control-flow graph; the prover must carry
    // its weight on them.
    assert!(
        proved * 2 > total,
        "proved only {proved} of {total} candidates"
    );
}

/// One random single-op mutation of `f`: swapped operands, a changed
/// operator, a nudged constant, or a phi incoming redirected to another
/// value of the same block. `None` when the draw hits nothing mutable or
/// the result does not verify.
fn mutate(f: &Function, rng: &mut StdRng) -> Option<Function> {
    let placed: Vec<_> = f
        .block_ids()
        .flat_map(|b| f.block(b).ops.iter().copied())
        .collect();
    let op = placed[rng.gen_range(0..placed.len())];
    let mut g = f.clone();
    let kind = g.op(op).kind.clone();
    g.op_mut(op).kind = match kind {
        OpKind::Bin(o, x, y) if rng.gen_bool(0.5) => OpKind::Bin(o, y, x),
        OpKind::Bin(o, x, y) => {
            let other = match o {
                BinOp::Add => BinOp::Sub,
                BinOp::Sub => BinOp::Add,
                BinOp::Lt => BinOp::Le,
                BinOp::Le => BinOp::Lt,
                BinOp::Eq => BinOp::Ne,
                BinOp::Mul => BinOp::Add,
                BinOp::And => BinOp::Or,
                BinOp::Xor => BinOp::Or,
                BinOp::Div => BinOp::Rem,
                BinOp::Rem => BinOp::Div,
                _ => return None,
            };
            OpKind::Bin(other, x, y)
        }
        OpKind::Const(c) => OpKind::Const(c.wrapping_add(1)),
        OpKind::Phi(mut incoming) => {
            let others: Vec<_> = incoming.iter().map(|&(_, v)| v).collect();
            let i = rng.gen_range(0..incoming.len());
            incoming[i].1 = others[rng.gen_range(0..others.len())];
            OpKind::Phi(incoming)
        }
        _ => return None,
    };
    fact_ir::verify::verify(&g).ok()?;
    Some(g)
}

#[test]
fn mutations_are_proved_only_when_equivalent() {
    let t = traces(24, 8);
    let (mut proved, mut tried) = (0usize, 0usize);
    for_seeds(|seed| {
        let (_, f) = lowered(seed)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        for _ in 0..8 {
            let Some(g) = mutate(&f, &mut rng) else {
                continue;
            };
            tried += 1;
            if prove_equivalent(&f, &g, None).is_some() {
                proved += 1;
                assert_proof_holds(&f, &g, None, &t, "mutant")?;
            }
        }
        Ok(())
    });
    assert!(tried > 500, "only {tried} mutants verified");
    // Only mutants that happen to be equivalent (a swap of a commutative
    // operator, a redirected phi incoming that carried the same value,
    // a dead op) may be proved.
    assert!(proved < tried, "every mutant proved: {proved} of {tried}");
}

/// Every unroll-by-2 candidate of the loop-nest programs: proved through
/// its block map (the proof rate is reported, and must stay high), and
/// when proved, equivalent with derived counts equal to simulation's.
#[test]
fn unrolled_loops_prove_and_derive_exact_counts() {
    let t = traces(24, 10);
    let unroll = LoopUnroll::new(2);
    let (mut proved, mut total) = (0usize, 0usize);
    for seed in 0..CASES {
        let check = |proved: &mut usize, total: &mut usize| -> Result<(), String> {
            let (src, f) = lowered_loops(seed)?;
            for cand in unroll.candidates(&f, &Region::whole()) {
                *total += 1;
                let map = cand.map.as_ref().ok_or("an unroll without a map")?;
                if prove_equivalent(&f, &cand.function, Some(map)).is_some() {
                    *proved += 1;
                    assert_proof_holds(&f, &cand.function, Some(map), &t, &cand.description)
                        .map_err(|e| format!("{e}\n{src}"))?;
                }
            }
            Ok(())
        };
        if let Err(e) = check(&mut proved, &mut total) {
            panic!("loop seed {seed}: {e}");
        }
    }
    println!("unroll proof rate on loop nests: {proved} of {total}");
    assert!(total > CASES as usize, "only {total} unroll candidates");
    assert!(
        proved * 10 >= total * 9,
        "proved only {proved} of {total} unrolled loops"
    );
}

/// Random single-op mutations of unrolled loops, proved against the
/// original through the correct block map: only equivalent ones may
/// prove, with exact derived counts.
#[test]
fn unroll_mutations_are_proved_only_when_equivalent() {
    let t = traces(24, 12);
    let unroll = LoopUnroll::new(2);
    let (mut proved, mut tried) = (0usize, 0usize);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD5);
        let mut check = || -> Result<(), String> {
            let (src, f) = lowered_loops(seed)?;
            for cand in unroll.candidates(&f, &Region::whole()) {
                let map = cand.map.as_ref().ok_or("an unroll without a map")?;
                for _ in 0..4 {
                    let Some(g) = mutate(&cand.function, &mut rng) else {
                        continue;
                    };
                    tried += 1;
                    if prove_equivalent(&f, &g, Some(map)).is_some() {
                        proved += 1;
                        assert_proof_holds(&f, &g, Some(map), &t, "unrolled mutant")
                            .map_err(|e| format!("{e}\n{src}"))?;
                    }
                }
            }
            Ok(())
        };
        if let Err(e) = check() {
            panic!("loop seed {seed}: {e}");
        }
    }
    println!("unrolled mutants proved: {proved} of {tried}");
    assert!(tried > 300, "only {tried} mutants verified");
    assert!(proved < tried, "every mutant proved: {proved} of {tried}");
}

/// The §5 library plus a divider (it has none; the generated programs
/// divide), two of every unit allocated.
fn dividing_library() -> (
    fact_sched::FuLibrary,
    fact_sched::SelectionRules,
    fact_sched::Allocation,
) {
    let (mut lib, mut rules) = fact_estim::section5_library();
    rules.div = Some(lib.add(fact_sched::FuSpec {
        name: "dv1".into(),
        energy_coeff: 2.3,
        delay_ns: 23.0,
        area: 3.9,
    }));
    let mut alloc = fact_sched::Allocation::new();
    for name in ["a1", "sb1", "mt1", "cp1", "e1", "i1", "n1", "s1", "dv1"] {
        alloc.set(lib.by_name(name).unwrap(), 2);
    }
    (lib, rules, alloc)
}

#[test]
fn every_behavior_schedules_validly() {
    let (lib, rules, alloc) = dividing_library();
    for_seeds(|seed| {
        let (p, f) = lowered(seed)?;
        let src = fact_lang::print_proc(&p);
        let prof = fact_sim::profile(&f, &traces(6, 3));
        let sr = fact_sched::schedule(
            &f,
            &lib,
            &rules,
            &alloc,
            &prof,
            &fact_sched::SchedOptions::default(),
        )
        .map_err(|e| format!("schedule failed: {e}\n{src}"))?;
        sr.stg
            .validate()
            .map_err(|e| format!("invalid STG: {e}\n{src}"))?;
        let est = fact_estim::evaluate(&sr, &lib, 25.0)
            .map_err(|e| format!("not estimable: {e}\n{src}"))?;
        let ok = est.average_schedule_length.is_finite()
            && est.average_schedule_length >= 1.0
            && est.energy_vdd2 >= 0.0
            && est.power >= 0.0;
        if !ok {
            return Err(format!("implausible estimate {est:?}\n{src}"));
        }
        Ok(())
    });
}

/// A schedule plan (DESIGN §10.6) of every generated program and loop
/// nest, built once and weighted under two profiles, equals under each
/// a fresh memo-less `schedule`: the STG, the report and the estimate
/// bits. The corpus must reach kernels, rotations, concurrent groups and
/// branches if-conversion moved.
#[test]
fn plans_weight_like_fresh_schedules() {
    let (lib, rules, alloc) = dividing_library();
    let opts = fact_sched::SchedOptions::default();
    let (a, b) = (traces(6, 21), traces(3, 22));
    let mut seen = [0usize; 4];
    let described = |sr: &fact_sched::ScheduleResult| -> Result<String, String> {
        let r = &sr.report;
        let e = fact_estim::evaluate(sr, &lib, opts.clock_ns)?;
        let p = fact_estim::evaluate_power_mode(sr, &lib, opts.clock_ns, 1e6)?;
        Ok(format!(
            "{:?}\n{:?} {:?} {} {}\n{:?} {:?}",
            sr.stg,
            r.kernels,
            r.rotations,
            r.if_converted,
            r.concurrent_groups,
            [e.average_schedule_length, e.energy_vdd2, e.power].map(f64::to_bits),
            [p.energy_vdd2, p.power, p.vdd].map(f64::to_bits),
        ))
    };
    for_seeds(|seed| {
        let (p, f) = lowered(seed)?;
        let (loop_src, g) = lowered_loops(seed)?;
        for (src, f) in [(fact_lang::print_proc(&p), f), (loop_src, g)] {
            let plan = fact_sched::SchedulePlan::build(&f, &lib, &rules, &alloc, &opts, None)
                .map_err(|e| format!("plan failed: {e}\n{src}"))?;
            seen[3] += usize::from(plan.moved_branches() > 0);
            for t in [&a, &b] {
                let prof = fact_sim::profile(&f, t);
                let got = plan.weight(&f, &prof).map_err(|e| format!("{e}\n{src}"))?;
                let want = fact_sched::schedule(&f, &lib, &rules, &alloc, &prof, &opts)
                    .map_err(|e| format!("{e}\n{src}"))?;
                if described(&got)? != described(&want)? {
                    return Err(format!("plan weights unlike a fresh schedule\n{src}"));
                }
                seen[0] += usize::from(!got.report.kernels.is_empty());
                seen[1] += usize::from(!got.report.rotations.is_empty());
                seen[2] += usize::from(got.report.concurrent_groups > 0);
            }
        }
        Ok(())
    });
    assert!(
        seen.iter().all(|&n| n > 0),
        "kernels, rotations, groups, moved branches: {seen:?}"
    );
}

/// The property operand-swap inheritance rests on (DESIGN §8.5.2): every
/// `Commutativity` candidate of a generated program or loop nest is an
/// operand swap to [`operand_swap_of`], and under the program's profile
/// it schedules and estimates bit for bit like the program, in
/// throughput and power mode.
#[test]
fn operand_swaps_schedule_and_estimate_like_their_parent() {
    let (lib, rules, alloc) = dividing_library();
    let opts = fact_sched::SchedOptions::default();
    let t = traces(6, 14);
    // (average schedule length, energy, power) bits in throughput mode,
    // then in power mode against the parent's length.
    let estimate_bits = |g: &Function,
                         prof: &fact_sim::BranchProfile,
                         base_cycles: f64|
     -> Result<[[u64; 3]; 2], String> {
        let sr = fact_sched::schedule(g, &lib, &rules, &alloc, prof, &opts)
            .map_err(|e| format!("schedule failed: {e}"))?;
        let bits = |e: fact_estim::Estimate| {
            [
                e.average_schedule_length.to_bits(),
                e.energy_vdd2.to_bits(),
                e.power.to_bits(),
            ]
        };
        let throughput = fact_estim::evaluate(&sr, &lib, opts.clock_ns)?;
        let power = fact_estim::evaluate_power_mode(&sr, &lib, opts.clock_ns, base_cycles)?;
        Ok([bits(throughput), bits(power)])
    };
    let mut checked = 0usize;
    for_seeds(|seed| {
        let (p, f) = lowered(seed)?;
        let (loop_src, g) = lowered_loops(seed)?;
        for (src, f) in [(fact_lang::print_proc(&p), f), (loop_src, g)] {
            let prof = fact_sim::profile(&f, &t);
            let [throughput, _] =
                estimate_bits(&f, &prof, 1.0).map_err(|e| format!("{e}\n{src}"))?;
            let base_cycles = f64::from_bits(throughput[0]);
            let want = estimate_bits(&f, &prof, base_cycles).map_err(|e| format!("{e}\n{src}"))?;
            for cand in Commutativity.candidates(&f, &Region::whole()) {
                let what = format!("{}\n{src}", cand.description);
                operand_swap_of(&f, &cand.function)
                    .ok_or_else(|| format!("not recognized as an operand swap: {what}"))?;
                let got = estimate_bits(&cand.function, &prof, base_cycles)
                    .map_err(|e| format!("{e}: {what}"))?;
                if got != want {
                    return Err(format!("estimate differs from the parent's: {what}"));
                }
                checked += 1;
            }
        }
        Ok(())
    });
    assert!(checked > 1000, "only {checked} operand swaps checked");
}

/// Every loop-distribution candidate of the random programs and the
/// loop nests: when proved through its fission map, equivalent with
/// derived counts equal to simulation's. The proof rate is reported.
#[test]
fn fissioned_loops_prove_only_when_equivalent() {
    let t = traces(24, 16);
    let (mut proved, mut total) = (0usize, 0usize);
    for_seeds(|seed| {
        let (p, f) = lowered(seed)?;
        let (loop_src, g) = lowered_loops(seed)?;
        for (src, f) in [(fact_lang::print_proc(&p), f), (loop_src, g)] {
            for cand in LoopDistribution.candidates(&f, &Region::whole()) {
                total += 1;
                let map = cand.map.as_ref().ok_or("a fission without a map")?;
                if prove_equivalent(&f, &cand.function, Some(map)).is_some() {
                    proved += 1;
                    assert_proof_holds(&f, &cand.function, Some(map), &t, &cand.description)
                        .map_err(|e| format!("{e}\n{src}"))?;
                }
            }
        }
        Ok(())
    });
    println!("fission proof rate: {proved} of {total}");
    assert!(proved > 0, "no fission proved of {total} candidates");
}
