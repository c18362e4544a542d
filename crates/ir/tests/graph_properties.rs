//! Property tests on seeded random functions: dominator-tree axioms,
//! loop-structure invariants, traversal orderings, successor and
//! predecessor consistency must hold for *any* control-flow graph the IR
//! can express, and mutating a clone must never reach its parent through
//! the shared (copy-on-write) block and op storage.
//!
//! Seed-driven and std-only: a failure prints the seed that reproduces it.

use fact_ir::rewrite::{eliminate_dead_code, replace_all_uses, simplify_phis};
use fact_ir::{
    cfg, BinOp, BlockId, DomTree, Function, LoopForest, Op, OpId, OpKind, Terminator, UnOp,
};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};

/// Generated functions checked per property.
const CASES: u64 = 256;

fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

/// Runs `check` on `CASES` seeds, panicking with the first failing seed.
fn for_seeds(check: impl Fn(u64) -> Result<(), String>) {
    for seed in 0..CASES {
        if let Err(e) = check(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

/// The function `seed` describes: 2..=`max_blocks` blocks whose
/// terminators are jumps, two-way branches and returns (3:3:1), over an
/// op arena of every kind — inputs, constants, binary and unary ops,
/// muxes, phis, loads, stores and outputs — with operands drawn from all
/// earlier ops. Only the CFG is well formed; the dataflow need not
/// verify. The same seed always builds the same function from scratch,
/// sharing no storage with any earlier build.
fn random_function(seed: u64, max_blocks: usize) -> Function {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=max_blocks);
    let mut f = Function::new("rand_cfg");
    let mem = f.add_memory("m", 8);
    let entry = f.entry();
    let cond = f.emit_input(entry, "c");
    let mut blocks = vec![entry];
    for i in 1..n {
        blocks.push(f.add_block(format!("b{i}")));
    }
    let mut values = vec![cond, f.emit_input(entry, "a")];
    for (i, &b) in blocks.iter().enumerate() {
        for _ in 0..rng.gen_range(0..5usize) {
            let mut pick = || values[rng.gen_range(0..values.len())];
            let (x, y, z) = (pick(), pick(), pick());
            let kind = match rng.gen_range(0..9u32) {
                0 => OpKind::Const(rng.gen_range(-3i64..4)),
                1 => OpKind::Bin(BinOp::Add, x, y),
                2 => OpKind::Bin(BinOp::Mul, x, y),
                3 => OpKind::Un(UnOp::Neg, x),
                4 => OpKind::Mux {
                    cond: x,
                    on_true: y,
                    on_false: z,
                },
                5 => OpKind::Phi(vec![(blocks[rng.gen_range(0..n)], x), (entry, y)]),
                6 => OpKind::Load { mem, addr: x },
                7 => OpKind::Store {
                    mem,
                    addr: x,
                    value: y,
                },
                _ => OpKind::Output(format!("y{i}"), x),
            };
            let op = if rng.gen_bool(0.3) {
                Op::with_label(kind, format!("l{i}"))
            } else {
                Op::new(kind)
            };
            values.push(f.emit(b, op));
        }
    }
    for &b in &blocks {
        let term = match rng.gen_range(0..7u32) {
            0..=2 => Terminator::Jump(blocks[rng.gen_range(0..n)]),
            3..=5 => Terminator::Branch {
                cond,
                on_true: blocks[rng.gen_range(0..n)],
                on_false: blocks[rng.gen_range(0..n)],
            },
            _ => Terminator::Return(None),
        };
        f.set_terminator(b, term);
    }
    f
}

#[test]
fn dominator_axioms_hold() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        let dom = DomTree::compute(&f);
        let reach = cfg::reachable(&f);
        let entry = f.entry();
        for b in f.block_ids() {
            if !reach[b.index()] {
                ensure(dom.idom(b).is_none() || b == entry, || {
                    format!("unreachable {b} has an idom")
                })?;
                continue;
            }
            ensure(dom.dominates(entry, b), || {
                format!("entry does not dominate {b}")
            })?;
            ensure(dom.dominates(b, b), || {
                format!("{b} does not dominate itself")
            })?;
            if b != entry {
                let idom = dom.idom(b).ok_or(format!("reachable {b} has no idom"))?;
                ensure(dom.strictly_dominates(idom, b), || {
                    format!("idom {idom} does not strictly dominate {b}")
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn common_dominator_is_symmetric_and_dominating() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        let dom = DomTree::compute(&f);
        let reach = cfg::reachable(&f);
        let reachable: Vec<_> = f.block_ids().filter(|b| reach[b.index()]).collect();
        for &a in &reachable {
            for &b in &reachable {
                let c1 = dom.common_dominator(a, b);
                let c2 = dom.common_dominator(b, a);
                ensure(c1 == c2, || {
                    format!("common_dominator({a}, {b}) not symmetric")
                })?;
                ensure(dom.dominates(c1, a) && dom.dominates(c1, b), || {
                    format!("{c1} does not dominate both {a} and {b}")
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn loop_headers_dominate_their_bodies() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        let dom = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dom);
        for l in forest.loops() {
            for &b in &l.body {
                ensure(dom.dominates(l.header, b), || {
                    format!("header {} must dominate body block {b}", l.header)
                })?;
            }
            for &latch in &l.latches {
                ensure(l.contains(latch), || {
                    format!("latch {latch} outside its loop")
                })?;
                // The latch really has a back edge to the header.
                ensure(f.block(latch).term.successors().contains(&l.header), || {
                    format!("latch {latch} has no edge to {}", l.header)
                })?;
            }
            for &(from, to) in &l.exits {
                ensure(l.contains(from) && !l.contains(to), || {
                    format!("exit {from}->{to} does not leave the loop")
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn rpo_is_a_permutation_of_reachable_blocks() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        let rpo = cfg::reverse_postorder(&f);
        let reach = cfg::reachable(&f);
        let expected = reach.iter().filter(|&&r| r).count();
        ensure(rpo.len() == expected, || {
            format!("rpo has {} blocks, {expected} reachable", rpo.len())
        })?;
        let mut sorted = rpo.clone();
        sorted.sort();
        sorted.dedup();
        ensure(sorted.len() == rpo.len(), || {
            format!("rpo repeats a block: {rpo:?}")
        })?;
        ensure(rpo.first().copied() == Some(f.entry()), || {
            format!("rpo does not start at the entry: {rpo:?}")
        })
    });
}

#[test]
fn reachability_matrix_is_transitively_closed() {
    for_seeds(|seed| {
        let f = random_function(seed, 6);
        let r = cfg::reachability_matrix(&f);
        let n = f.num_blocks();
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    ensure(!(r[a][b] && r[b][c]) || r[a][c], || {
                        format!("{a}->{b}->{c} but not {a}->{c}")
                    })?;
                }
            }
        }
        Ok(())
    });
}

#[test]
fn successors_match_the_terminator() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        for b in f.block_ids() {
            let term = &f.block(b).term;
            let expected: Vec<BlockId> = match *term {
                Terminator::Jump(t) => vec![t],
                Terminator::Branch {
                    on_true, on_false, ..
                } => vec![on_true, on_false],
                Terminator::Return(_) => vec![],
            };
            let succs = term.successors();
            ensure(*succs == *expected, || {
                format!("{b}: successors {:?} for {term:?}", &*succs)
            })?;
            let iterated: Vec<BlockId> = succs.into_iter().collect();
            ensure(iterated == expected, || {
                format!("{b}: iterating successors gives {iterated:?}")
            })?;
        }
        Ok(())
    });
}

#[test]
fn predecessors_invert_successors() {
    for_seeds(|seed| {
        let f = random_function(seed, 8);
        let preds = f.predecessors();
        ensure(preds.len() == f.num_blocks(), || {
            format!("{} predecessor lists", preds.len())
        })?;
        for a in f.block_ids() {
            for b in f.block_ids() {
                // Edges count with multiplicity: a branch with both arms
                // to one block makes its source a predecessor twice.
                let edges = f
                    .block(a)
                    .term
                    .successors()
                    .iter()
                    .filter(|&&s| s == b)
                    .count();
                let listed = preds[b.index()].iter().filter(|&&p| p == a).count();
                ensure(edges == listed, || {
                    format!("{a}->{b}: {edges} edges but listed {listed} times")
                })?;
            }
        }
        Ok(())
    });
}

/// Ops of `g` that share storage with `parent`.
fn shared_ops(g: &Function, parent: &Function) -> Vec<bool> {
    (0..g.num_ops())
        .map(|i| g.shares_op_storage(parent, OpId::new(i)))
        .collect()
}

/// Mutates a clone of the function through every mutating entry point
/// and checks the parent still equals a fresh build of its seed. Along
/// the way, `replace_all_uses` may un-share only the ops that used the
/// replaced value, and dead-code elimination none at all.
fn clone_mutation_case(seed: u64) -> Result<(), String> {
    let parent = random_function(seed, 8);
    let mut g = parent.clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC10E_5EED);
    let pick_op = |rng: &mut StdRng, g: &Function| OpId::new(rng.gen_range(0..g.num_ops()));
    let pick_block =
        |rng: &mut StdRng, g: &Function| BlockId::new(rng.gen_range(0..g.num_blocks()));
    for step in 0..rng.gen_range(1..16usize) {
        match rng.gen_range(0..9u32) {
            0 => {
                let op = pick_op(&mut rng, &g);
                g.op_mut(op).kind = OpKind::Const(rng.gen_range(-9i64..9));
            }
            1 => {
                let op = pick_op(&mut rng, &g);
                g.op_mut(op).label = Some(format!("s{step}"));
                if let OpKind::Input(name) | OpKind::Output(name, _) = &mut g.op_mut(op).kind {
                    name.push('!');
                }
            }
            2 => {
                let (b, x) = (pick_block(&mut rng, &g), pick_op(&mut rng, &g));
                g.emit(b, Op::new(OpKind::Un(UnOp::Not, x)));
            }
            3 => {
                let b = pick_block(&mut rng, &g);
                let at = rng.gen_range(0..=g.block(b).ops.len());
                g.insert(b, at, Op::new(OpKind::Const(7)));
            }
            4 => {
                let (from, to) = (pick_op(&mut rng, &g), pick_op(&mut rng, &g));
                let before = shared_ops(&g, &parent);
                let users: Vec<bool> = (0..g.num_ops())
                    .map(|i| g.op(OpId::new(i)).kind.uses(from))
                    .collect();
                replace_all_uses(&mut g, from, to);
                let after = shared_ops(&g, &parent);
                for i in 0..before.len() {
                    ensure(!before[i] || users[i] || after[i], || {
                        format!("replace_all_uses({from}, {to}) un-shared op {i}")
                    })?;
                }
            }
            5 => {
                let before = shared_ops(&g, &parent);
                eliminate_dead_code(&mut g);
                ensure(shared_ops(&g, &parent) == before, || {
                    "dead-code elimination un-shared an op".to_string()
                })?;
            }
            6 => {
                simplify_phis(&mut g);
            }
            7 => {
                let b = pick_block(&mut rng, &g);
                g.block_mut(b).ops.reverse();
                let t = pick_block(&mut rng, &g);
                g.set_terminator(b, Terminator::Jump(t));
            }
            _ => {
                g.add_memory(format!("n{step}"), 4);
                let b = g.add_block(format!("new{step}"));
                let p = pick_block(&mut rng, &g);
                g.block_mut(p).term.retarget(p, b);
            }
        }
    }
    let fresh = random_function(seed, 8);
    ensure(parent == fresh, || {
        format!("mutating a clone changed its parent:\n{parent}\n-- expected --\n{fresh}")
    })?;
    ensure(parent.to_string() == fresh.to_string(), || {
        "the parent prints differently".to_string()
    })
}

#[test]
fn mutating_a_clone_never_changes_its_parent() {
    for_seeds(clone_mutation_case);
}
