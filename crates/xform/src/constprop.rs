//! Constant propagation: constant folding, algebraic identities with
//! constants, and strength reduction of multiplications by powers of two.
//!
//! Unlike the purely structural transforms, constant propagation is almost
//! always profitable, so it proposes a single candidate that applies every
//! enabled rewrite at once (iterated to a fixed point) — matching how
//! compilers treat it \[2\] — rather than one candidate per site.

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use crate::util::placed_ops;
use fact_ir::rewrite::{eliminate_dead_code, replace_all_uses, try_fold};
use fact_ir::{BinOp, Function, Op, OpId, OpKind};

/// The constant-propagation transformation.
pub struct ConstantPropagation;

/// Applies one round of rewrites; returns how many sites changed.
fn apply_once(g: &mut Function, region: &Region) -> usize {
    let mut changed = 0;
    for (b, op) in placed_ops(g) {
        if !region.covers(b) {
            continue;
        }
        // Full folding.
        if let Some(value) = try_fold(g, op) {
            let pos = g.position_in_block(b, op).expect("placed");
            let c = g.insert(b, pos, Op::new(OpKind::Const(value)));
            replace_all_uses(g, op, c);
            g.block_mut(b).ops.retain(|&o| o != op);
            changed += 1;
            continue;
        }
        // Identities and strength reduction.
        let (bin, x, y) = match g.op(op).kind {
            OpKind::Bin(bin, x, y) => (bin, x, y),
            _ => continue,
        };
        let const_of = |g: &Function, v: OpId| match g.op(v).kind {
            OpKind::Const(c) => Some(c),
            _ => None,
        };
        let cx = const_of(g, x);
        let cy = const_of(g, y);
        // value-replacing rewrites (op disappears)
        let replacement: Option<OpId> = match (bin, cx, cy) {
            (BinOp::Add, Some(0), _) => Some(y),
            (BinOp::Add | BinOp::Sub, _, Some(0)) => Some(x),
            (BinOp::Mul, Some(1), _) => Some(y),
            (BinOp::Mul, _, Some(1)) => Some(x),
            (BinOp::Div, _, Some(1)) => Some(x),
            (BinOp::Shl | BinOp::Shr, _, Some(0)) => Some(x),
            (BinOp::Or | BinOp::Xor, Some(0), _) => Some(y),
            (BinOp::Or | BinOp::Xor, _, Some(0)) => Some(x),
            _ => None,
        };
        if let Some(v) = replacement {
            replace_all_uses(g, op, v);
            g.block_mut(b).ops.retain(|&o| o != op);
            changed += 1;
            continue;
        }
        // in-place rewrites
        let new_kind: Option<OpKind> = match (bin, cx, cy) {
            // x * 0 = 0 (keep an op so uses stay valid; it folds next round)
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => Some(OpKind::Const(0)),
            // multiplication by power of two -> shift (strength reduction)
            (BinOp::Mul, _, Some(c)) if c > 1 && (c & (c - 1)) == 0 => {
                let sh = c.trailing_zeros() as i64;
                let pos = g.position_in_block(b, op).expect("placed");
                let shc = g.insert(b, pos, Op::new(OpKind::Const(sh)));
                Some(OpKind::Bin(BinOp::Shl, x, shc))
            }
            (BinOp::Mul, Some(c), _) if c > 1 && (c & (c - 1)) == 0 => {
                let sh = c.trailing_zeros() as i64;
                let pos = g.position_in_block(b, op).expect("placed");
                let shc = g.insert(b, pos, Op::new(OpKind::Const(sh)));
                Some(OpKind::Bin(BinOp::Shl, y, shc))
            }
            _ => None,
        };
        if let Some(k) = new_kind {
            g.op_mut(op).kind = k;
            changed += 1;
        }
    }
    changed
}

impl Transform for ConstantPropagation {
    fn kind(&self) -> TransformKind {
        TransformKind::ConstantPropagation
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("constant-propagation", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let mut g = parent.function().clone();
        let mut total = 0;
        loop {
            let n = apply_once(&mut g, region);
            total += n;
            if n == 0 {
                break;
            }
        }
        if total == 0 {
            return Vec::new();
        }
        eliminate_dead_code(&mut g);
        vec![Candidate {
            kind: TransformKind::ConstantPropagation,
            description: format!("constant propagation ({total} sites)"),
            function: g,
            map: None,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(names: &[&str]) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: -50, hi: 50 }))
            .collect();
        generate(&specs, 60, 17)
    }

    fn single(f: &Function) -> Candidate {
        let cands = ConstantPropagation.candidates(f, &Region::whole());
        assert_eq!(cands.len(), 1);
        cands.into_iter().next().unwrap()
    }

    #[test]
    fn folds_constant_expressions() {
        let f = compile("proc f(a) { out y = a + (3 * 4 - 2); }").unwrap();
        let c = single(&f);
        verify(&c.function).unwrap();
        check_equivalence(&f, &c.function, &traces(&["a"]), 1).unwrap();
        // Only one add remains.
        assert_eq!(c.function.op_histogram()["bin"], 1);
    }

    #[test]
    fn removes_identity_operations() {
        let f = compile("proc f(a) { out y = (a + 0) * 1; }").unwrap();
        let c = single(&f);
        check_equivalence(&f, &c.function, &traces(&["a"]), 2).unwrap();
        assert_eq!(c.function.op_histogram().get("bin"), None);
    }

    #[test]
    fn multiplication_by_zero_collapses() {
        let f = compile("proc f(a) { out y = a * 0 + 7; }").unwrap();
        let c = single(&f);
        check_equivalence(&f, &c.function, &traces(&["a"]), 3).unwrap();
        assert_eq!(c.function.op_histogram().get("bin"), None);
    }

    #[test]
    fn strength_reduces_power_of_two_multiply() {
        let f = compile("proc f(a) { out y = a * 8; }").unwrap();
        let c = single(&f);
        check_equivalence(&f, &c.function, &traces(&["a"]), 4).unwrap();
        let g = &c.function;
        let has_shift = g
            .block_ids()
            .flat_map(|b| g.block(b).ops.clone())
            .any(|op| matches!(g.op(op).kind, OpKind::Bin(BinOp::Shl, ..)));
        assert!(has_shift);
    }

    #[test]
    fn no_opportunity_means_no_candidate() {
        let f = compile("proc f(a, b) { out y = a * b; }").unwrap();
        assert!(ConstantPropagation
            .candidates(&f, &Region::whole())
            .is_empty());
    }

    #[test]
    fn folds_through_control_flow() {
        let f = compile(
            "proc f(a) { var y = 0; if (a > 2 + 3) { y = 6 * 7; } else { y = 1 + 1; } out y = y; }",
        )
        .unwrap();
        let c = single(&f);
        verify(&c.function).unwrap();
        check_equivalence(&f, &c.function, &traces(&["a"]), 5).unwrap();
    }
}
