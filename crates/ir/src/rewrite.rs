//! In-place rewriting utilities shared by all transformations: use
//! replacement, dead-code elimination, phi simplification, and constant
//! folding of individual operations.

use crate::cfg::reachable;
use crate::func::{Function, Terminator};
use crate::ids::{BlockId, OpId};
use crate::op::OpKind;

/// Replaces every use of `from` with `to`, in operand lists and branch
/// conditions. Does not touch the definition of `from` itself.
///
/// Only the ops that use `from`, and a block whose branch condition
/// changes, are un-shared (copy-on-write).
pub fn replace_all_uses(f: &mut Function, from: OpId, to: OpId) {
    for b in 0..f.num_blocks() {
        let b = BlockId::new(b);
        for i in 0..f.block(b).ops.len() {
            let op = f.block(b).ops[i];
            if f.op(op).kind.uses(from) {
                f.op_mut(op)
                    .kind
                    .map_operands(|v| if v == from { to } else { v });
            }
        }
        if f.block(b).term.condition() == Some(from) {
            if let Terminator::Branch { cond, .. } = &mut f.block_mut(b).term {
                *cond = to;
            }
        }
    }
}

/// Removes operations whose values are unused and that have no side
/// effects, iterating to a fixed point. Also prunes unreachable blocks'
/// contents. Returns the number of operations removed.
///
/// Dead phis (including mutually-recursive dead phi cycles) are removed
/// because liveness is seeded only from side-effecting ops, terminators,
/// and return values. Only blocks that lose ops are un-shared
/// (copy-on-write).
pub fn eliminate_dead_code(f: &mut Function) -> usize {
    let reach = reachable(f);
    let mut live = vec![false; f.num_ops()];
    let mut work: Vec<OpId> = Vec::new();

    for b in f.block_ids() {
        if !reach[b.index()] {
            continue;
        }
        for &op in &f.block(b).ops {
            if f.op(op).kind.has_side_effect() {
                work.push(op);
            }
        }
        match &f.block(b).term {
            Terminator::Branch { cond, .. } => work.push(*cond),
            Terminator::Return(Some(v)) => work.push(*v),
            _ => {}
        }
    }

    let mut buf = Vec::new();
    while let Some(op) = work.pop() {
        if !live[op.index()] {
            live[op.index()] = true;
            buf.clear();
            f.op(op).kind.operands_into(&mut buf);
            work.extend(buf.iter().copied());
        }
    }

    let mut removed = 0;
    for b in f.block_ids().collect::<Vec<_>>() {
        let dead = if reach[b.index()] {
            f.block(b).ops.iter().filter(|op| !live[op.index()]).count()
        } else {
            f.block(b).ops.len()
        };
        if dead > 0 {
            f.block_mut(b)
                .ops
                .retain(|op| reach[b.index()] && live[op.index()]);
            removed += dead;
        }
    }
    removed
}

/// Simplifies trivial phis: a phi whose incoming values are all the same
/// value `v` (or the phi itself) is replaced by `v`. Iterates to a fixed
/// point; returns the number of phis simplified.
pub fn simplify_phis(f: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let mut replaced = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            // Walks the op list in place: no copy, and only a block that
            // loses a phi is un-shared (copy-on-write).
            let mut i = 0;
            while let Some(&op) = f.block(b).ops.get(i) {
                let OpKind::Phi(incoming) = &f.op(op).kind else {
                    i += 1;
                    continue;
                };
                let mut unique: Option<OpId> = None;
                let mut trivial = true;
                for &(_, v) in incoming {
                    if v == op {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                match unique.filter(|_| trivial) {
                    Some(v) => {
                        replace_all_uses(f, op, v);
                        f.block_mut(b).ops.remove(i);
                        total += 1;
                        replaced = true;
                    }
                    None => i += 1,
                }
            }
        }
        if !replaced {
            return total;
        }
    }
}

/// Attempts to evaluate `op` to a constant given that all of its operands
/// are `Const` operations. Returns the folded value if so.
pub fn try_fold(f: &Function, op: OpId) -> Option<i64> {
    let const_of = |v: OpId| match f.op(v).kind {
        OpKind::Const(c) => Some(c),
        _ => None,
    };
    match &f.op(op).kind {
        OpKind::Bin(b, x, y) => Some(b.eval(const_of(*x)?, const_of(*y)?)),
        OpKind::Un(u, x) => Some(u.eval(const_of(*x)?)),
        OpKind::Mux {
            cond,
            on_true,
            on_false,
        } => {
            let c = const_of(*cond)?;
            if c != 0 {
                const_of(*on_true)
            } else {
                const_of(*on_false)
            }
        }
        _ => None,
    }
}

/// Number of binary/unary/mux/load/store "datapath" operations (those that
/// occupy functional units or memory ports), excluding constants, inputs,
/// phis, and outputs. A cheap structural cost measure used by the
/// schedule-blind baseline.
pub fn datapath_op_count(f: &Function) -> usize {
    f.block_ids()
        .flat_map(|b| f.block(b).ops.iter())
        .filter(|&&op| {
            matches!(
                f.op(op).kind,
                OpKind::Bin(..)
                    | OpKind::Un(..)
                    | OpKind::Mux { .. }
                    | OpKind::Load { .. }
                    | OpKind::Store { .. }
            )
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinOp;
    use crate::verify::verify;

    #[test]
    fn replace_all_uses_rewrites_operands_and_branches() {
        let mut f = Function::new("f");
        let e = f.entry();
        let t = f.add_block("t");
        let x = f.emit_input(e, "x");
        let y = f.emit_input(e, "y");
        let s = f.emit_bin(e, BinOp::Add, x, x);
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: x,
                on_true: t,
                on_false: t,
            },
        );
        f.set_terminator(t, Terminator::Return(None));
        replace_all_uses(&mut f, x, y);
        assert_eq!(f.op(s).kind, OpKind::Bin(BinOp::Add, y, y));
        assert_eq!(f.block(e).term.condition(), Some(y));
    }

    #[test]
    fn dce_removes_unused_chain_but_keeps_effects() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let dead1 = f.emit_const(e, 5);
        let dead2 = f.emit_bin(e, BinOp::Mul, dead1, dead1);
        let live = f.emit_bin(e, BinOp::Add, a, a);
        f.emit_output(e, "y", live);
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2);
        assert!(!f.block(e).ops.contains(&dead2));
        assert!(f.block(e).ops.contains(&live));
        verify(&f).unwrap();
    }

    #[test]
    fn rewrites_leave_untouched_blocks_shared() {
        let mut f = Function::new("f");
        let e = f.entry();
        let t = f.add_block("t");
        let c = f.emit_input(e, "c");
        let x = f.emit_input(e, "x");
        let y = f.emit_input(e, "y");
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                on_true: t,
                on_false: t,
            },
        );
        let dead = f.emit_bin(t, BinOp::Mul, x, x);
        let live = f.emit_bin(t, BinOp::Add, x, y);
        f.emit_output(t, "y", live);
        f.set_terminator(t, Terminator::Return(None));

        // DCE removes one op of `t`: only `t` is un-shared.
        let mut g = f.clone();
        assert_eq!(eliminate_dead_code(&mut g), 1);
        assert!(!g.block(t).ops.contains(&dead));
        assert!(
            g.shares_block_storage(&f, e),
            "DCE copied an untouched block"
        );
        assert!(!g.shares_block_storage(&f, t));
        // DCE only detaches ops: the arena stays shared.
        for i in 0..f.num_ops() {
            assert!(g.shares_op_storage(&f, OpId::new(i)), "DCE copied op {i}");
        }

        // Rewriting operands un-shares only the ops that used the value;
        // a branch condition rewrite un-shares just the branching block.
        let mut h = f.clone();
        replace_all_uses(&mut h, y, x);
        assert_eq!(h.op(live).kind, OpKind::Bin(BinOp::Add, x, x));
        assert!(h.shares_block_storage(&f, e) && h.shares_block_storage(&f, t));
        for i in 0..f.num_ops() {
            let op = OpId::new(i);
            assert_eq!(h.shares_op_storage(&f, op), op != live, "op {op}");
        }
        replace_all_uses(&mut h, c, x);
        assert!(!h.shares_block_storage(&f, e));
        assert!(h.shares_block_storage(&f, t));
        assert_eq!(simplify_phis(&mut h), 0);
        assert!(h.shares_block_storage(&f, t), "phi-free block copied");
    }

    #[test]
    fn dce_keeps_branch_conditions() {
        let mut f = Function::new("f");
        let e = f.entry();
        let t = f.add_block("t");
        let c = f.emit_input(e, "c");
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                on_true: t,
                on_false: t,
            },
        );
        f.set_terminator(t, Terminator::Return(None));
        eliminate_dead_code(&mut f);
        assert!(f.block(e).ops.contains(&c));
    }

    #[test]
    fn dce_clears_unreachable_blocks() {
        let mut f = Function::new("f");
        let e = f.entry();
        let dead = f.add_block("dead");
        let x = f.emit_const(dead, 3);
        f.emit_output(dead, "y", x);
        f.set_terminator(dead, Terminator::Return(None));
        f.set_terminator(e, Terminator::Return(None));
        let removed = eliminate_dead_code(&mut f);
        assert_eq!(removed, 2);
        assert!(f.block(dead).ops.is_empty());
    }

    #[test]
    fn trivial_phi_is_simplified() {
        let mut f = Function::new("f");
        let e = f.entry();
        let t = f.add_block("t");
        let el = f.add_block("e");
        let m = f.add_block("m");
        let c = f.emit_input(e, "c");
        let v = f.emit_const(e, 7);
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                on_true: t,
                on_false: el,
            },
        );
        f.set_terminator(t, Terminator::Jump(m));
        f.set_terminator(el, Terminator::Jump(m));
        let p = f.emit_phi(m, vec![(t, v), (el, v)]);
        f.emit_output(m, "y", p);
        f.set_terminator(m, Terminator::Return(None));
        assert_eq!(simplify_phis(&mut f), 1);
        assert!(!f.block(m).ops.contains(&p));
        verify(&f).unwrap();
        // The output now references v directly.
        let out = f.block(m).ops[0];
        assert_eq!(f.op(out).kind, OpKind::Output("y".into(), v));
    }

    #[test]
    fn fold_evaluates_constant_expressions() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_const(e, 6);
        let b = f.emit_const(e, 7);
        let m = f.emit_bin(e, BinOp::Mul, a, b);
        let x = f.emit_input(e, "x");
        let nm = f.emit_bin(e, BinOp::Mul, a, x);
        assert_eq!(try_fold(&f, m), Some(42));
        assert_eq!(try_fold(&f, nm), None);
        assert_eq!(try_fold(&f, a), None); // constants fold to nothing new
    }

    #[test]
    fn datapath_count_ignores_overhead_ops() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let c = f.emit_const(e, 1);
        let s = f.emit_bin(e, BinOp::Add, a, c);
        f.emit_output(e, "y", s);
        assert_eq!(datapath_op_count(&f), 1);
    }
}
