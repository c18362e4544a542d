//! Common-subexpression elimination — an *extension* transformation.
//!
//! The paper's library is commutativity, associativity, distributivity,
//! constant propagation, code motion, and loop unrolling (§1), and notes
//! that "other transformations can easily be incorporated within the
//! framework". CSE is the canonical such extension (it appears in the
//! paper's own list of classic compiler transformations \[2\]): it
//! illustrates the plug-in [`Transform`] interface and materially helps
//! behaviors whose source repeats subexpressions. It ships in
//! [`TransformLibrary::extended`](crate::TransformLibrary::extended), not
//! in [`TransformLibrary::full`](crate::TransformLibrary::full), so the
//! paper-faithful experiments keep the paper's exact suite.

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use fact_ir::rewrite::{eliminate_dead_code, replace_all_uses};
use fact_ir::{Function, OpId, OpKind};
use std::collections::HashMap;

/// The common-subexpression-elimination transformation.
pub struct CommonSubexpression;

/// A hashable key for pure scalar operations. Commutative operations
/// normalize their operand order so `a+b` and `b+a` unify.
fn value_key(f: &Function, op: OpId) -> Option<(u8, u32, u64, u64)> {
    match &f.op(op).kind {
        OpKind::Bin(b, x, y) => {
            let (x, y) = if b.is_commutative() && y < x {
                (*y, *x)
            } else {
                (*x, *y)
            };
            Some((0, *b as u32, x.index() as u64, y.index() as u64))
        }
        OpKind::Un(u, x) => Some((1, *u as u32, x.index() as u64, 0)),
        OpKind::Mux {
            cond,
            on_true,
            on_false,
        } => Some((
            2,
            cond.index() as u32,
            on_true.index() as u64,
            on_false.index() as u64,
        )),
        // Loads are excluded: an intervening store could change the value.
        _ => None,
    }
}

impl Transform for CommonSubexpression {
    fn kind(&self) -> TransformKind {
        TransformKind::ConstantPropagation // same family: always-profitable cleanup
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("common-subexpression", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let dom = parent.dom();
        let op_blocks = parent.op_blocks();
        let mut g = parent.function().clone();
        let mut replaced = 0usize;

        // Iterate to a fixed point: unifying one pair can expose another.
        loop {
            let mut seen: HashMap<(u8, u32, u64, u64), OpId> = HashMap::new();
            let mut change: Option<(OpId, OpId)> = None;

            // Visit blocks in dominance-compatible (RPO) order.
            'scan: for &b in dom.rpo() {
                if !region.covers(b) {
                    continue;
                }
                for &op in &g.block(b).ops {
                    let Some(key) = value_key(&g, op) else {
                        continue;
                    };
                    match seen.get(&key) {
                        None => {
                            seen.insert(key, op);
                        }
                        Some(&earlier) => {
                            // `earlier` must dominate `op`'s site.
                            let eb = op_blocks.get(earlier.index()).copied().flatten();
                            let ob = Some(b);
                            let dominates = match (eb, ob) {
                                (Some(e), Some(o)) if e == o => {
                                    let be = g.position_in_block(e, earlier);
                                    let bo = g.position_in_block(o, op);
                                    matches!((be, bo), (Some(x), Some(y)) if x < y)
                                }
                                (Some(e), Some(o)) => dom.strictly_dominates(e, o),
                                _ => false,
                            };
                            if dominates {
                                change = Some((op, earlier));
                                break 'scan;
                            }
                        }
                    }
                }
            }

            match change {
                Some((dup, keep)) => {
                    replace_all_uses(&mut g, dup, keep);
                    let b = g
                        .op_blocks()
                        .get(dup.index())
                        .copied()
                        .flatten()
                        .expect("dup placed");
                    g.block_mut(b).ops.retain(|&o| o != dup);
                    replaced += 1;
                }
                None => break,
            }
        }

        if replaced == 0 {
            return Vec::new();
        }
        eliminate_dead_code(&mut g);
        vec![Candidate {
            kind: TransformKind::ConstantPropagation,
            description: format!("common-subexpression elimination ({replaced} sites)"),
            function: g,
            map: None,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::BinOp;

    fn bin_count(f: &Function, want: BinOp) -> usize {
        f.block_ids()
            .flat_map(|b| f.block(b).ops.clone())
            .filter(|&op| matches!(f.op(op).kind, OpKind::Bin(b2, ..) if b2 == want))
            .count()
    }
    use fact_ir::verify::verify;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(names: &[&str]) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: -20, hi: 20 }))
            .collect();
        generate(&specs, 60, 91)
    }

    fn single(f: &Function) -> Candidate {
        let cands = CommonSubexpression.candidates(f, &Region::whole());
        assert_eq!(cands.len(), 1);
        cands.into_iter().next().unwrap()
    }

    #[test]
    fn unifies_repeated_expression() {
        let f = compile("proc f(a, b) { out y = a * b + a * b; }").unwrap();
        let c = single(&f);
        verify(&c.function).unwrap();
        check_equivalence(&f, &c.function, &traces(&["a", "b"]), 1).unwrap();
        assert_eq!(bin_count(&c.function, BinOp::Mul), 1);
    }

    #[test]
    fn unifies_commutative_variants() {
        let f = compile("proc f(a, b) { out y = a + b; out z = b + a; }").unwrap();
        let c = single(&f);
        check_equivalence(&f, &c.function, &traces(&["a", "b"]), 2).unwrap();
        assert_eq!(bin_count(&c.function, BinOp::Add), 1);
    }

    #[test]
    fn unifies_across_dominating_blocks() {
        let f = compile(
            "proc f(a, b) { var t = a * b; var y = 0; if (a > 0) { y = a * b + 1; } out y = y + t; }",
        )
        .unwrap();
        let c = single(&f);
        verify(&c.function).unwrap();
        check_equivalence(&f, &c.function, &traces(&["a", "b"]), 3).unwrap();
        assert_eq!(bin_count(&c.function, BinOp::Mul), 1);
    }

    #[test]
    fn does_not_unify_across_sibling_branches() {
        // The two multiplies are in mutually exclusive branches: neither
        // dominates the other, so both stay.
        let f = compile(
            "proc f(a, b) { var y = 0; if (a > 0) { y = a * b; } else { y = a * b + 1; } out y = y; }",
        )
        .unwrap();
        let cands = CommonSubexpression.candidates(&f, &Region::whole());
        for c in &cands {
            check_equivalence(&f, &c.function, &traces(&["a", "b"]), 4).unwrap();
        }
        // Any produced candidate must keep both multiplies.
        if let Some(c) = cands.first() {
            assert_eq!(bin_count(&c.function, BinOp::Mul), 2);
        }
    }

    #[test]
    fn loads_are_not_unified() {
        // Two loads of the same address with an intervening store must
        // not collapse.
        let f = compile(
            "proc f(i, v) { array x[8]; var a = x[i]; x[i] = v; var b = x[i]; out y = a + b; }",
        )
        .unwrap();
        let mut specs = vec![("v".to_string(), InputSpec::Uniform { lo: -20, hi: 20 })];
        specs.push(("i".to_string(), InputSpec::Uniform { lo: 0, hi: 7 }));
        let t = generate(&specs, 40, 15);
        let cands = CommonSubexpression.candidates(&f, &Region::whole());
        for c in &cands {
            check_equivalence(&f, &c.function, &t, 5).unwrap();
        }
    }

    #[test]
    fn no_duplicates_means_no_candidate() {
        let f = compile("proc f(a, b) { out y = a * b; }").unwrap();
        assert!(CommonSubexpression
            .candidates(&f, &Region::whole())
            .is_empty());
    }

    #[test]
    fn chained_duplicates_collapse_to_fixed_point() {
        let f = compile(
            "proc f(a, b) { var p = (a + b) * (a + b); var q = (a + b) * (a + b); out y = p + q; }",
        )
        .unwrap();
        let c = single(&f);
        check_equivalence(&f, &c.function, &traces(&["a", "b"]), 6).unwrap();
        assert_eq!(bin_count(&c.function, BinOp::Mul), 1);
        assert!(bin_count(&c.function, BinOp::Add) <= 2);
    }
}
