//! IR well-formedness checking.
//!
//! Every frontend lowering and every transformation is followed by a
//! `verify` call in tests, catching malformed phis, dominance violations,
//! and dangling references early.

use crate::dom::DomTree;
use crate::func::{Function, Terminator};
use crate::ids::{BlockId, OpId};
use crate::op::OpKind;
use std::error::Error;
use std::fmt;

/// A well-formedness violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir verification failed: {}", self.message)
    }
}

impl Error for VerifyError {}

fn err(message: impl Into<String>) -> VerifyError {
    VerifyError {
        message: message.into(),
    }
}

/// Checks that `f` is well-formed.
///
/// Verified properties:
/// * all block/op/memory references are in range;
/// * no operation appears in more than one block, or twice in one block;
/// * phis appear only at the start of a block, with exactly one entry per
///   predecessor (for reachable blocks);
/// * non-phi operands are defined in a block that dominates the use (same
///   block counts, with the definition ordered before the use);
/// * phi operands are defined in blocks dominating the associated
///   predecessor's exit;
/// * branch conditions are placed values dominating the branch.
///
/// # Errors
/// Returns the first violation found.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    let n_ops = f.num_ops();
    let n_blocks = f.num_blocks();
    let n_mems = f.memories().count();

    // Reference ranges and uniqueness of placement. `home` doubles as
    // the duplicate detector: an op already homed in `b` appears twice.
    let mut home: Vec<Option<BlockId>> = vec![None; n_ops];
    // Position of each op within its block, for same-block ordering checks.
    let mut pos: Vec<usize> = vec![usize::MAX; n_ops];
    for b in f.block_ids() {
        let mut seen_non_phi = false;
        for (i, &op) in f.block(b).ops.iter().enumerate() {
            if op.index() >= n_ops {
                return Err(err(format!("block {b} references out-of-range op {op}")));
            }
            match home[op.index()] {
                Some(other) if other == b => {
                    return Err(err(format!("op {op} appears twice in block {b}")));
                }
                Some(other) => {
                    return Err(err(format!("op {op} placed in both {other} and {b}")));
                }
                None => {}
            }
            home[op.index()] = Some(b);
            pos[op.index()] = i;
            let is_phi = matches!(f.op(op).kind, OpKind::Phi(_));
            if is_phi && seen_non_phi {
                return Err(err(format!("phi {op} after non-phi ops in block {b}")));
            }
            if !is_phi {
                seen_non_phi = true;
            }
            if let Some(mem) = f.op(op).kind.memory() {
                if mem.index() >= n_mems {
                    return Err(err(format!("op {op} references unknown memory {mem}")));
                }
            }
        }
        for s in f.block(b).term.successors() {
            if s.index() >= n_blocks {
                return Err(err(format!("block {b} branches to out-of-range block {s}")));
            }
        }
    }

    // Reachable blocks are exactly those the dominator tree orders.
    let dom = DomTree::compute(f);
    let reach = |b: BlockId| dom.rpo_index(b) != usize::MAX;
    // Each block's distinct predecessors, sorted: what its phis must cover.
    let mut preds = f.predecessors();
    for p in &mut preds {
        p.sort();
        p.dedup();
    }

    let defined_before =
        |value: OpId, user_block: BlockId, user_pos: usize| -> Result<(), VerifyError> {
            let def_block = home[value.index()]
                .ok_or_else(|| err(format!("use of unplaced value {value} in {user_block}")))?;
            if def_block == user_block {
                if pos[value.index()] >= user_pos {
                    return Err(err(format!(
                        "value {value} used before definition in block {user_block}"
                    )));
                }
            } else if !dom.strictly_dominates(def_block, user_block) {
                return Err(err(format!(
                    "value {value} (defined in {def_block}) does not dominate use in {user_block}"
                )));
            }
            Ok(())
        };

    let mut got: Vec<BlockId> = Vec::new();
    let mut operands: Vec<OpId> = Vec::new();
    for b in f.block_ids() {
        if !reach(b) {
            continue;
        }
        for (i, &op) in f.block(b).ops.iter().enumerate() {
            match &f.op(op).kind {
                OpKind::Phi(incoming) => {
                    let expected = &preds[b.index()];
                    got.clear();
                    got.extend(incoming.iter().map(|(p, _)| *p));
                    got.sort();
                    if got.windows(2).any(|w| w[0] == w[1]) {
                        return Err(err(format!("phi {op} has duplicate predecessor entries")));
                    }
                    if got != *expected {
                        return Err(err(format!(
                            "phi {op} in {b} has entries {got:?} but predecessors are {expected:?}"
                        )));
                    }
                    for (pred, value) in incoming {
                        if !reach(*pred) {
                            continue;
                        }
                        let def_block = home[value.index()]
                            .ok_or_else(|| err(format!("phi {op} uses unplaced value {value}")))?;
                        if !dom.dominates(def_block, *pred) {
                            return Err(err(format!(
                                "phi {op}: value {value} (in {def_block}) does not dominate predecessor {pred}"
                            )));
                        }
                    }
                }
                kind => {
                    operands.clear();
                    kind.operands_into(&mut operands);
                    for &v in &operands {
                        defined_before(v, b, i)?;
                    }
                }
            }
        }
        if let Terminator::Branch { cond, .. } = f.block(b).term {
            defined_before(cond, b, f.block(b).ops.len())?;
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinOp, Op};

    #[test]
    fn accepts_straightline_function() {
        let mut f = Function::new("ok");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let b = f.emit_const(e, 2);
        let s = f.emit_bin(e, BinOp::Add, a, b);
        f.emit_output(e, "y", s);
        verify(&f).unwrap();
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut f = Function::new("bad");
        let e = f.entry();
        // Manually construct out-of-order ops.
        let a = f.emit_detached(Op::new(OpKind::Input("a".into())));
        let s = f.emit_detached(Op::new(OpKind::Bin(BinOp::Add, a, a)));
        f.block_mut(e).ops.push(s);
        f.block_mut(e).ops.push(a);
        let e2 = verify(&f).unwrap_err();
        assert!(e2.message.contains("before definition"), "{e2}");
    }

    #[test]
    fn rejects_non_dominating_operand() {
        let mut f = Function::new("bad");
        let e = f.entry();
        let t = f.add_block("t");
        let el = f.add_block("e");
        let m = f.add_block("m");
        let c = f.emit_input(e, "c");
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                on_true: t,
                on_false: el,
            },
        );
        let x = f.emit_const(t, 1);
        f.set_terminator(t, Terminator::Jump(m));
        f.set_terminator(el, Terminator::Jump(m));
        // Use x in merge without a phi: t does not dominate m.
        f.emit_output(m, "y", x);
        f.set_terminator(m, Terminator::Return(None));
        let e2 = verify(&f).unwrap_err();
        assert!(e2.message.contains("does not dominate"), "{e2}");
    }

    #[test]
    fn rejects_phi_with_wrong_predecessors() {
        let mut f = Function::new("bad");
        let e = f.entry();
        let t = f.add_block("t");
        let el = f.add_block("e");
        let m = f.add_block("m");
        let c = f.emit_input(e, "c");
        f.set_terminator(
            e,
            Terminator::Branch {
                cond: c,
                on_true: t,
                on_false: el,
            },
        );
        let x = f.emit_const(t, 1);
        f.set_terminator(t, Terminator::Jump(m));
        f.set_terminator(el, Terminator::Jump(m));
        // Phi mentions only one of two predecessors.
        f.emit_phi(m, vec![(t, x)]);
        f.set_terminator(m, Terminator::Return(None));
        let e2 = verify(&f).unwrap_err();
        assert!(e2.message.contains("predecessors"), "{e2}");
    }

    #[test]
    fn rejects_duplicate_placement() {
        let mut f = Function::new("bad");
        let e = f.entry();
        let a = f.emit_const(e, 1);
        f.block_mut(e).ops.push(a);
        let e2 = verify(&f).unwrap_err();
        assert!(e2.message.contains("twice"), "{e2}");
    }

    #[test]
    fn accepts_valid_phi_and_loop() {
        // i = 0; while (i < n) i = i + 1;
        let mut f = Function::new("count");
        let e = f.entry();
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let n = f.emit_input(e, "n");
        let zero = f.emit_const(e, 0);
        let one = f.emit_const(e, 1);
        f.set_terminator(e, Terminator::Jump(h));
        let i_phi = f.emit_phi(h, vec![(e, zero)]);
        let cmp = f.emit_bin(h, BinOp::Lt, i_phi, n);
        f.set_terminator(
            h,
            Terminator::Branch {
                cond: cmp,
                on_true: body,
                on_false: exit,
            },
        );
        let inc = f.emit_bin(body, BinOp::Add, i_phi, one);
        f.set_terminator(body, Terminator::Jump(h));
        // Complete the phi with the back-edge value.
        if let OpKind::Phi(inc_list) = &mut f.op_mut(i_phi).kind {
            inc_list.push((body, inc));
        }
        f.emit_output(exit, "i", i_phi);
        f.set_terminator(exit, Terminator::Return(None));
        verify(&f).unwrap();
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut f = Function::new("bad");
        let e = f.entry();
        let x = f.emit_const(e, 1);
        // Manually force a phi after a non-phi.
        let p = f.emit_detached(Op::new(OpKind::Phi(vec![])));
        f.block_mut(e).ops.push(p);
        let _ = x;
        let e2 = verify(&f).unwrap_err();
        assert!(e2.message.contains("phi"), "{e2}");
    }
}
