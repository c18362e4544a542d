//! Explicit loop unrolling.
//!
//! Duplicates the body (and exit test) of a natural loop so that one
//! traversal of the unrolled loop executes `factor` original iterations.
//! Unrolling by itself does not speed anything up — its value is in what
//! it *enables*: operator chaining across iterations, fuller functional
//! units, and follow-up algebraic rewrites across the now-adjacent copies.
//! The scheduling-driven search decides when that pays off (paper §1, §5:
//! the scheduler also performs *implicit* unrolling; this is the explicit
//! library transformation).

use crate::transform::{Candidate, Parent, Region, Transform, TransformKind};
use fact_ir::{
    BlockId, DomTree, Function, LoopForest, NaturalLoop, Op, OpId, OpKind, Terminator, UnrollMap,
};
use std::collections::HashMap;

/// Loop unrolling by a fixed factor.
pub struct LoopUnroll {
    factor: u32,
}

impl LoopUnroll {
    /// Creates the transformation with the given unroll factor (≥ 2).
    ///
    /// # Panics
    /// Panics if `factor < 2`.
    pub fn new(factor: u32) -> Self {
        assert!(factor >= 2, "unroll factor must be at least 2");
        LoopUnroll { factor }
    }
}

impl Transform for LoopUnroll {
    fn kind(&self) -> TransformKind {
        TransformKind::LoopUnroll
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let mut out = Vec::new();
        for l in parent.loops().innermost() {
            if !region.covers(l.header) {
                continue;
            }
            if let Some((g, unrolled)) = unroll_once_times(parent, l, self.factor) {
                out.push(Candidate {
                    kind: TransformKind::LoopUnroll,
                    description: format!("unroll loop at {} by {}", l.header, self.factor),
                    function: g,
                    unrolled,
                });
            }
        }
        out
    }
}

/// Unrolls `l` by `factor` (chaining `factor - 1` body copies), with the
/// block correspondence when the result is unrolled by 2. Returns `None`
/// if the loop shape is unsupported: the loop must have a single latch
/// and a single exit edge leaving from the header.
fn unroll_once_times(
    parent: &Parent<'_>,
    l: &NaturalLoop,
    factor: u32,
) -> Option<(Function, Option<UnrollMap>)> {
    // The first copy reads the parent's own analyses.
    let (mut g, map) = unroll_one_copy(parent.function(), parent.dom(), l)?;
    let mut unrolled = Some(map);
    for _ in 2..factor {
        // Later copies re-detect the loop, since prior copies changed
        // block ids. Re-unrolling introduces multiple exits, which the
        // copier does not support; keep what we have (factor degrades).
        let dom = DomTree::compute(&g);
        let forest = LoopForest::compute(&g, &dom);
        let Some((next, _)) = forest
            .loop_with_header(l.header)
            .and_then(|l| unroll_one_copy(&g, &dom, l))
        else {
            break;
        };
        g = next;
        unrolled = None;
    }
    fact_ir::rewrite::simplify_phis(&mut g);
    fact_ir::rewrite::eliminate_dead_code(&mut g);
    fact_ir::verify::verify(&g).ok()?;
    Some((g, unrolled))
}

/// Adds one more body copy to the loop `l` of `f` (`dom` is `f`'s
/// dominator tree), and says which block copies which.
fn unroll_one_copy(f: &Function, dom: &DomTree, l: &NaturalLoop) -> Option<(Function, UnrollMap)> {
    if !l.is_simple() {
        return None;
    }
    let latch = l.latches[0];
    let exit_block = l.exits[0].1;

    let mut g = f.clone();

    // Order the loop blocks: header first, then the rest in RPO.
    let mut blocks: Vec<BlockId> = l.body.iter().copied().collect();
    blocks.sort_by_key(|b| dom.rpo_index(*b));

    // The latch-incoming value of each header phi.
    let mut phi_latch: HashMap<OpId, OpId> = HashMap::new();
    let mut header_phis: Vec<OpId> = Vec::new();
    for &op in &f.block(l.header).ops {
        if let OpKind::Phi(incoming) = &f.op(op).kind {
            let (_, v) = incoming.iter().find(|(b, _)| *b == latch)?;
            phi_latch.insert(op, *v);
            header_phis.push(op);
        }
    }

    // Create the block copies.
    let mut block_copy: HashMap<BlockId, BlockId> = HashMap::new();
    for &b in &blocks {
        let name = format!(
            "{}.u",
            g.block(b).name.clone().unwrap_or_else(|| b.to_string())
        );
        block_copy.insert(b, g.add_block(name));
    }

    // Copy ops. `map(v)` = value of `v` in the copied-iteration context.
    let mut op_copy: HashMap<OpId, OpId> = HashMap::new();
    let map_val = |v: OpId, op_copy: &HashMap<OpId, OpId>| -> OpId {
        if let Some(&c) = op_copy.get(&v) {
            c
        } else if let Some(&latch_v) = phi_latch.get(&v) {
            // Loop phi: in the second iteration its value is the first
            // iteration's latch value (possibly itself copied — but latch
            // values are first-iteration ops, never copies).
            latch_v
        } else {
            v
        }
    };
    for &b in &blocks {
        let nb = block_copy[&b];
        for &op in &f.block(b).ops.clone() {
            if b == l.header && phi_latch.contains_key(&op) {
                // Header phis disappear in the copy: the copy's header has
                // a single predecessor (the first latch).
                continue;
            }
            let mut kind = f.op(op).kind.clone();
            match &mut kind {
                OpKind::Phi(incoming) => {
                    // Phis in interior blocks: remap pred blocks + values.
                    for (p, v) in incoming.iter_mut() {
                        *p = block_copy.get(p).copied().unwrap_or(*p);
                        *v = map_val(*v, &op_copy);
                    }
                }
                k => k.map_operands(|v| map_val(v, &op_copy)),
            }
            let label = f.op(op).label.clone().map(|s| format!("{s}'"));
            let new = match label {
                Some(lb) => g.emit(nb, Op::with_label(kind, lb)),
                None => g.emit(nb, Op::new(kind)),
            };
            op_copy.insert(op, new);
        }
        // Copy the terminator with remapped blocks and condition.
        let mut term = f.block(b).term.clone();
        match &mut term {
            Terminator::Jump(t) => {
                if let Some(&c) = block_copy.get(t) {
                    *t = c;
                }
            }
            Terminator::Branch {
                cond,
                on_true,
                on_false,
            } => {
                *cond = map_val(*cond, &op_copy);
                if let Some(&c) = block_copy.get(on_true) {
                    *on_true = c;
                }
                if let Some(&c) = block_copy.get(on_false) {
                    *on_false = c;
                }
            }
            Terminator::Return(_) => {}
        }
        g.set_terminator(nb, term);
    }

    let new_header = block_copy[&l.header];
    let new_latch = block_copy[&latch];

    // First latch now falls into the copied header instead of the original.
    g.block_mut(latch).term.retarget(l.header, new_header);
    // The copied latch's back edge must return to the *original* header
    // (the block-copy remap pointed it at the copied header).
    g.block_mut(new_latch).term.retarget(new_header, l.header);

    // The copied latch loops back to the original header: update header
    // phis' latch entries to the copied iteration's values. A latch value
    // that is itself a header phi (`a = b` in the body) maps to that
    // phi's own latch value, like any other use in the copy.
    for &phi in &header_phis {
        let second_v = map_val(phi_latch[&phi], &op_copy);
        if let OpKind::Phi(incoming) = &mut g.op_mut(phi).kind {
            for (p, v) in incoming.iter_mut() {
                if *p == latch {
                    *p = new_latch;
                    *v = second_v;
                }
            }
        }
    }

    // The exit block now has two predecessors (original header and copied
    // header). Any value defined in the original header and used outside
    // the loop must become an exit phi; existing exit phis gain an entry.
    let loop_and_copies: std::collections::HashSet<BlockId> = blocks
        .iter()
        .copied()
        .chain(block_copy.values().copied())
        .collect();

    // Existing phis in the exit block referencing the header.
    for i in 0..g.block(exit_block).ops.len() {
        let op = g.block(exit_block).ops[i];
        let from_header = match &g.op(op).kind {
            OpKind::Phi(incoming) => incoming.iter().any(|(p, _)| *p == l.header),
            _ => false,
        };
        if !from_header {
            continue;
        }
        if let OpKind::Phi(incoming) = &mut g.op_mut(op).kind {
            let extra: Vec<(BlockId, OpId)> = incoming
                .iter()
                .filter(|(p, _)| *p == l.header)
                .map(|(_, v)| {
                    let mapped = op_copy
                        .get(v)
                        .copied()
                        .unwrap_or_else(|| phi_latch.get(v).copied().unwrap_or(*v));
                    (new_header, mapped)
                })
                .collect();
            incoming.extend(extra);
        }
    }

    // Values defined in the header (phis or ops) with uses outside the
    // loop get exit phis.
    let header_defined: Vec<OpId> = f.block(l.header).ops.clone();
    for v in header_defined {
        // Collect outside uses.
        let mut outside_users: Vec<(BlockId, OpId)> = Vec::new();
        for b in g.block_ids() {
            if loop_and_copies.contains(&b) || b == exit_block {
                continue;
            }
            for &u in &g.block(b).ops {
                if g.op(u).kind.uses(v) {
                    outside_users.push((b, u));
                }
            }
        }
        // Uses in the exit block itself (non-phi).
        for &u in &g.block(exit_block).ops {
            if matches!(g.op(u).kind, OpKind::Phi(_)) {
                continue;
            }
            if g.op(u).kind.uses(v) {
                outside_users.push((exit_block, u));
            }
        }
        // Branch-condition uses outside.
        let mut cond_users: Vec<BlockId> = Vec::new();
        for b in g.block_ids() {
            if loop_and_copies.contains(&b) {
                continue;
            }
            if g.block(b).term.condition() == Some(v) {
                cond_users.push(b);
            }
        }
        if outside_users.is_empty() && cond_users.is_empty() {
            continue;
        }
        let second = if let Some(&c) = op_copy.get(&v) {
            c
        } else if let Some(&lv) = phi_latch.get(&v) {
            lv
        } else {
            continue;
        };
        let exit_phi = g.emit_phi(exit_block, vec![(l.header, v), (new_header, second)]);
        for (_, u) in outside_users {
            g.op_mut(u)
                .kind
                .map_operands(|x| if x == v { exit_phi } else { x });
        }
        for b in cond_users {
            if let Terminator::Branch { cond, .. } = &mut g.block_mut(b).term {
                if *cond == v {
                    *cond = exit_phi;
                }
            }
        }
    }

    let copies = blocks.iter().map(|b| (*b, block_copy[b])).collect();
    Some((
        g,
        UnrollMap {
            header: l.header,
            copies,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, simulate, CompiledFn, InputSpec};

    fn traces(names: &[&str], lo: i64, hi: i64) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo, hi }))
            .collect();
        generate(&specs, 60, 41)
    }

    fn unroll2(f: &Function) -> Vec<Candidate> {
        LoopUnroll::new(2).candidates(f, &Region::whole())
    }

    /// `c` proves equivalent to `f` through its block map, and the counts
    /// derived from `f`'s over `t` are what simulating `c` counts.
    fn assert_proved_and_derived(f: &Function, c: &Candidate, t: &fact_sim::TraceSet) {
        let map = c.unrolled.as_ref().expect("an unroll by 2 has a map");
        assert!(
            fact_ir::prove_equivalent(f, &c.function, Some(map)).is_some(),
            "not proved:\n{f}\n{}",
            c.function
        );
        let counts = |g: &Function| simulate(&CompiledFn::compile(g), t, None).counts.unwrap();
        assert_eq!(
            counts(f).unrolled(map, c.function.num_blocks()),
            Some(counts(&c.function))
        );
    }

    #[test]
    fn counter_loop_unrolls_and_matches() {
        let f = compile(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let cands = unroll2(&f);
        assert_eq!(cands.len(), 1);
        let g = &cands[0].function;
        verify(g).unwrap();
        check_equivalence(&f, g, &traces(&["n"], 0, 25), 1).unwrap();
        assert_proved_and_derived(&f, &cands[0], &traces(&["n"], 0, 25));
        // Two loop tests now exist (original + copy).
        let dom = DomTree::compute(g);
        let forest = LoopForest::compute(g, &dom);
        assert_eq!(forest.loops().len(), 1);
        assert!(forest.loops()[0].body.len() > 2);
    }

    #[test]
    fn rotated_loop_values_unroll_and_match() {
        // `p` takes the previous iteration's `q`: its header phi's latch
        // value is another header phi. The copied iteration must send
        // `q`'s first-iteration update back to `p`, not `q` itself.
        let f = compile(
            r#"
            proc f(n, a, b) {
                var p = a; var q = b; var i = 0;
                while (i < n) { p = q; q = q * 3 + i; i = i + 1; }
                out p = p; out q = q;
            }
            "#,
        )
        .unwrap();
        let cands = unroll2(&f);
        assert_eq!(cands.len(), 1);
        verify(&cands[0].function).unwrap();
        let specs: Vec<_> = [("n", 0, 7), ("a", -9, 9), ("b", -9, 9)]
            .iter()
            .map(|&(v, lo, hi)| (v.to_string(), InputSpec::Uniform { lo, hi }))
            .collect();
        check_equivalence(&f, &cands[0].function, &generate(&specs, 60, 5), 3).unwrap();
        assert_proved_and_derived(&f, &cands[0], &generate(&specs, 60, 5));
    }

    #[test]
    fn gcd_unrolls_and_matches() {
        let f = compile(
            r#"
            proc gcd(a, b) {
                while (a != b) {
                    if (a > b) { a = a - b; } else { b = b - a; }
                }
                out g = a;
            }
            "#,
        )
        .unwrap();
        let cands = unroll2(&f);
        assert_eq!(cands.len(), 1);
        verify(&cands[0].function).unwrap();
        check_equivalence(&f, &cands[0].function, &traces(&["a", "b"], 1, 40), 2).unwrap();
        // The body's `if` splits by parity too.
        assert_proved_and_derived(&f, &cands[0], &traces(&["a", "b"], 1, 40));
    }

    #[test]
    fn loop_with_store_unrolls_and_matches() {
        let f = compile(
            r#"
            proc f(n) {
                array x[128];
                var i = 0;
                while (i < n) { x[i] = i * 3; i = i + 1; }
                out i = i;
            }
            "#,
        )
        .unwrap();
        let cands = unroll2(&f);
        assert_eq!(cands.len(), 1);
        verify(&cands[0].function).unwrap();
        check_equivalence(&f, &cands[0].function, &traces(&["n"], 0, 60), 3).unwrap();
        assert_proved_and_derived(&f, &cands[0], &traces(&["n"], 0, 60));
    }

    #[test]
    fn higher_factors_degrade_gracefully() {
        // Unrolling an already-unrolled loop introduces multiple exits,
        // which the copier declines; a factor-4 request still yields a
        // valid (factor-2) candidate.
        let f = compile(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + 2; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let cands = LoopUnroll::new(4).candidates(&f, &Region::whole());
        assert_eq!(cands.len(), 1);
        verify(&cands[0].function).unwrap();
        check_equivalence(&f, &cands[0].function, &traces(&["n"], 0, 30), 4).unwrap();
        assert_proved_and_derived(&f, &cands[0], &traces(&["n"], 0, 30));
    }

    #[test]
    fn zero_iteration_loops_preserved() {
        let f = compile(
            "proc f(n) { var i = 0; var s = 7; while (i < n) { s = s + 1; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let cands = unroll2(&f);
        let t = generate(&[("n".to_string(), InputSpec::Constant(0))], 3, 5);
        check_equivalence(&f, &cands[0].function, &t, 5).unwrap();
        assert_proved_and_derived(&f, &cands[0], &t);
    }

    #[test]
    fn only_innermost_loops_unroll() {
        let f = compile(
            r#"
            proc f(n) {
                var s = 0;
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n; j = j + 1) { s = s + 1; }
                }
                out s = s;
            }
            "#,
        )
        .unwrap();
        let cands = unroll2(&f);
        // Only the inner loop generates a candidate.
        assert_eq!(cands.len(), 1);
        verify(&cands[0].function).unwrap();
        check_equivalence(&f, &cands[0].function, &traces(&["n"], 0, 10), 6).unwrap();
        assert_proved_and_derived(&f, &cands[0], &traces(&["n"], 0, 10));
    }
}
