//! Code motion: hoisting loop-invariant operations out of loops.
//!
//! A datapath operation inside a loop whose operands are all defined
//! outside the loop (or are themselves hoistable) computes the same value
//! every iteration; moving it to the preheader removes its per-iteration
//! cycle and energy cost. This is the workhorse "code motion" entry of the
//! paper's transformation list, and the enabling transformation for the
//! power reductions on loop-heavy benchmarks.

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use fact_ir::{BlockId, Function, OpId, OpKind, Terminator};
use std::collections::HashSet;

/// The loop-invariant code-motion transformation.
pub struct CodeMotion;

/// The unique out-of-loop predecessor of the loop header, if any.
fn preheader(
    f: &Function,
    preds: &[Vec<BlockId>],
    header: BlockId,
    body: &HashSet<BlockId>,
) -> Option<BlockId> {
    let outside: Vec<BlockId> = preds[header.index()]
        .iter()
        .copied()
        .filter(|p| !body.contains(p))
        .collect();
    match outside.as_slice() {
        [p] => {
            // The preheader must fall through unconditionally to the
            // header, or the hoisted op could execute on a path that never
            // enters the loop — functionally safe for effect-free ops, but
            // we keep the cost model honest by requiring the direct edge.
            match f.block(*p).term {
                Terminator::Jump(t) if t == header => Some(*p),
                _ => None,
            }
        }
        _ => None,
    }
}

impl Transform for CodeMotion {
    fn kind(&self) -> TransformKind {
        TransformKind::CodeMotion
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("code-motion", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let mut out = Vec::new();

        for l in parent.loops().loops() {
            let body: HashSet<BlockId> = l.body.iter().copied().collect();
            let Some(ph) = preheader(f, parent.preds(), l.header, &body) else {
                continue;
            };
            // Ops defined inside the loop.
            let mut defined_in: HashSet<OpId> = HashSet::new();
            for &b in &l.body {
                defined_in.extend(f.block(b).ops.iter().copied());
            }
            // Invariant set grows to a fixed point.
            let mut invariant: Vec<(BlockId, OpId)> = Vec::new();
            let mut invariant_set: HashSet<OpId> = HashSet::new();
            loop {
                let mut grew = false;
                for &b in &l.body {
                    if !region.covers(b) {
                        continue;
                    }
                    for &op in &f.block(b).ops {
                        if invariant_set.contains(&op) {
                            continue;
                        }
                        let movable = matches!(
                            f.op(op).kind,
                            OpKind::Bin(..) | OpKind::Un(..) | OpKind::Const(_)
                        );
                        if !movable {
                            continue;
                        }
                        let ok = f
                            .op(op)
                            .kind
                            .operands()
                            .iter()
                            .all(|v| !defined_in.contains(v) || invariant_set.contains(v));
                        if ok {
                            invariant.push((b, op));
                            invariant_set.insert(op);
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            // Constants alone are free; only hoist if at least one real
            // datapath op moves.
            let real = invariant
                .iter()
                .any(|&(_, op)| matches!(f.op(op).kind, OpKind::Bin(..) | OpKind::Un(..)));
            if !real {
                continue;
            }

            let mut g = f.clone();
            for &(b, op) in &invariant {
                g.block_mut(b).ops.retain(|&o| o != op);
                g.block_mut(ph).ops.push(op);
            }
            fact_ir::verify::verify(&g).expect("hoisting preserves dominance");
            out.push(Candidate {
                kind: TransformKind::CodeMotion,
                description: format!(
                    "hoist {} invariant ops out of loop at {}",
                    invariant.len(),
                    l.header
                ),
                function: g,
                map: None,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_ir::{DomTree, LoopForest};
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(names: &[&str]) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: 0, hi: 20 }))
            .collect();
        generate(&specs, 40, 23)
    }

    #[test]
    fn hoists_invariant_multiply() {
        let src = r#"
            proc f(n, a, b) {
                var i = 0;
                var s = 0;
                while (i < n) {
                    s = s + a * b;
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let cands = CodeMotion.candidates(&f, &Region::whole());
        assert_eq!(cands.len(), 1);
        let c = &cands[0];
        verify(&c.function).unwrap();
        check_equivalence(&f, &c.function, &traces(&["n", "a", "b"]), 1).unwrap();
        // The multiply is no longer in the loop body.
        let dom = DomTree::compute(&c.function);
        let forest = LoopForest::compute(&c.function, &dom);
        let l = &forest.loops()[0];
        let muls_in_loop = l
            .body
            .iter()
            .flat_map(|&b| c.function.block(b).ops.clone())
            .filter(|&op| matches!(c.function.op(op).kind, OpKind::Bin(fact_ir::BinOp::Mul, ..)))
            .count();
        assert_eq!(muls_in_loop, 0);
    }

    #[test]
    fn does_not_hoist_variant_ops() {
        let src = r#"
            proc f(n) {
                var i = 0;
                var s = 0;
                while (i < n) {
                    s = s + i * 2;
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        // i*2 depends on the induction variable: nothing hoistable but the
        // constant, so no candidate.
        assert!(CodeMotion.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn does_not_hoist_loads() {
        // A load is not invariant in general: a store in the loop to the
        // same memory may change it.
        let src = r#"
            proc f(n) {
                array x[8];
                var i = 0;
                var s = 0;
                while (i < n) {
                    s = s + x[0];
                    x[0] = s;
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        assert!(CodeMotion.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn chained_invariants_hoist_together() {
        let src = r#"
            proc f(n, a, b, c) {
                var i = 0;
                var s = 0;
                while (i < n) {
                    s = s + (a * b + c);
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let cands = CodeMotion.candidates(&f, &Region::whole());
        assert_eq!(cands.len(), 1);
        check_equivalence(&f, &cands[0].function, &traces(&["n", "a", "b", "c"]), 2).unwrap();
        // Both the multiply and the invariant add hoisted.
        assert!(cands[0].description.contains("hoist"));
    }

    #[test]
    fn nested_loops_hoist_from_inner() {
        let src = r#"
            proc f(n, a) {
                var s = 0;
                for (i = 0; i < n; i = i + 1) {
                    for (j = 0; j < n; j = j + 1) {
                        s = s + a * a;
                    }
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let cands = CodeMotion.candidates(&f, &Region::whole());
        assert!(!cands.is_empty());
        for c in &cands {
            verify(&c.function).unwrap();
            check_equivalence(&f, &c.function, &traces(&["n", "a"]), 3).unwrap();
        }
    }
}
