//! Shared helpers for transformation implementations.

use fact_ir::{BlockId, Function, OpId, OpKind, Terminator};

/// Number of uses of each value, *including* branch-condition uses (which
/// [`Function::uses`] excludes).
pub fn use_counts(f: &Function) -> Vec<usize> {
    let mut counts = vec![0usize; f.num_ops()];
    let mut buf = Vec::new();
    for b in f.block_ids() {
        for &op in &f.block(b).ops {
            buf.clear();
            f.op(op).kind.operands_into(&mut buf);
            for v in &buf {
                counts[v.index()] += 1;
            }
        }
        if let Terminator::Branch { cond, .. } = f.block(b).term {
            counts[cond.index()] += 1;
        }
    }
    counts
}

/// Whether `op` is a datapath binary operation (the usual transformation
/// target).
pub fn as_bin(f: &Function, op: OpId) -> Option<(fact_ir::BinOp, OpId, OpId)> {
    match f.op(op).kind {
        OpKind::Bin(b, x, y) => Some((b, x, y)),
        _ => None,
    }
}

/// All `(block, op)` pairs in the function, in block/program order.
pub fn placed_ops(f: &Function) -> Vec<(BlockId, OpId)> {
    let mut out = Vec::new();
    for b in f.block_ids() {
        for &op in &f.block(b).ops {
            out.push((b, op));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::BinOp;

    #[test]
    fn use_counts_include_branch_conditions() {
        let mut f = Function::new("t");
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
        assert_eq!(use_counts(&f)[c.index()], 1);
    }

    #[test]
    fn as_bin_extracts() {
        let mut f = Function::new("t");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let s = f.emit_bin(e, BinOp::Add, a, a);
        assert_eq!(as_bin(&f, s), Some((BinOp::Add, a, a)));
        assert_eq!(as_bin(&f, a), None);
    }
}
