//! Cross-basic-block transformation enabling: sinking operations through
//! joins into their predecessor threads (paper §3, Example 3, Figure 4).
//!
//! An operation in a join block whose operands arrive through phis can be
//! *specialized per thread of execution*: a copy is placed in each
//! predecessor with the phis resolved to that predecessor's incoming
//! values, and the original becomes a join of the copies. Functionality is
//! preserved for **every** thread by construction — each predecessor
//! computes exactly what the original would have computed on that thread
//! (the paper's first correctness requirement), and dead inputs are
//! cleaned up so no redundant operations remain (the second requirement).
//!
//! Mutual exclusion of join inputs (the paper's `{x2, x5}` pairs) is
//! inherent here: phis in the same block resolve consistently to a single
//! predecessor, so impossible thread combinations are never materialized.
//!
//! The transformation by itself neither adds nor removes work (each
//! execution still runs exactly one copy); its value is that the
//! per-thread copies expose *intra-thread* algebraic rewrites — e.g. the
//! distributivity of Example 3 — to the rest of the library.

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use fact_ir::{Op, OpKind};

/// The phi-sinking transformation.
pub struct PhiSink;

impl Transform for PhiSink {
    fn kind(&self) -> TransformKind {
        TransformKind::PhiSink
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("phi-sink", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let mut out = Vec::new();

        for m in f.block_ids() {
            if !region.covers(m) {
                continue;
            }
            let pred_list = &parent.preds()[m.index()];
            if pred_list.len() < 2 {
                continue;
            }
            // Phis of this block.
            let phis: Vec<_> = f
                .block(m)
                .ops
                .iter()
                .copied()
                .filter(|&op| matches!(f.op(op).kind, OpKind::Phi(_)))
                .collect();
            if phis.is_empty() {
                continue;
            }

            'ops: for &u in &f.block(m).ops {
                // Only effect-free scalar ops sink; memory ops would
                // perturb access ordering.
                let sinkable = matches!(f.op(u).kind, OpKind::Bin(..) | OpKind::Un(..));
                if !sinkable {
                    continue;
                }
                let operands = f.op(u).kind.operands();
                let uses_phi = operands.iter().any(|v| phis.contains(v));
                if !uses_phi {
                    continue;
                }
                // Every operand must be a phi of `m` or defined in a block
                // strictly dominating every predecessor.
                for &v in &operands {
                    if phis.contains(&v) {
                        continue;
                    }
                    let Some(def_b) = parent.op_blocks()[v.index()] else {
                        continue 'ops;
                    };
                    for &p in pred_list {
                        if !parent.dom().dominates(def_b, p) || def_b == m {
                            continue 'ops;
                        }
                    }
                }

                // Build the candidate: one copy per predecessor.
                let mut g = f.clone();
                let mut incoming = Vec::new();
                for &p in pred_list {
                    let mut kind = g.op(u).kind.clone();
                    kind.map_operands(|v| {
                        if phis.contains(&v) {
                            if let OpKind::Phi(inc) = &g.op(v).kind {
                                inc.iter()
                                    .find(|(b, _)| *b == p)
                                    .map(|(_, val)| *val)
                                    .expect("phi covers predecessor")
                            } else {
                                v
                            }
                        } else {
                            v
                        }
                    });
                    let label = g.op(u).label.clone().map(|s| format!("{s}@{p}"));
                    let copy = match label {
                        Some(lb) => g.emit(p, Op::with_label(kind, lb)),
                        None => g.emit(p, Op::new(kind)),
                    };
                    incoming.push((p, copy));
                }
                // The original becomes a join of the copies: rewrite in
                // place and move it into phi position.
                g.op_mut(u).kind = OpKind::Phi(incoming);
                let mut ops = g.block(m).ops.clone();
                let cur = ops.iter().position(|&o| o == u).expect("placed");
                ops.remove(cur);
                // Insert after the existing leading phis.
                let insert_at = ops
                    .iter()
                    .position(|&o| !matches!(g.op(o).kind, OpKind::Phi(_)))
                    .unwrap_or(ops.len());
                ops.insert(insert_at, u);
                g.block_mut(m).ops = ops;

                fact_ir::rewrite::simplify_phis(&mut g);
                fact_ir::rewrite::eliminate_dead_code(&mut g);
                if fact_ir::verify::verify(&g).is_err() {
                    continue;
                }
                out.push(Candidate {
                    kind: TransformKind::PhiSink,
                    description: format!("sink {u} through joins of {m}"),
                    function: g,
                    map: None,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_ir::Function;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(names: &[&str]) -> fact_sim::TraceSet {
        let specs: Vec<_> = names
            .iter()
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: -20, hi: 20 }))
            .collect();
        generate(&specs, 80, 53)
    }

    /// The shape of Figure 4(a): two joins feeding a subtraction, with the
    /// threads `{x1*x2, x1*x3}` (condition true) and `{x4, x5}` (false).
    fn figure4() -> Function {
        compile(
            r#"
            proc fig4(x1, x2, x3, x4, x5, c) {
                var j1 = 0;
                var j2 = 0;
                if (c > 0) {
                    j1 = x1 * x2;
                    j2 = x1 * x3;
                } else {
                    j1 = x4;
                    j2 = x5;
                }
                out r = j1 - j2;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn sinks_subtraction_through_joins() {
        let f = figure4();
        let cands = PhiSink.candidates(&f, &Region::whole());
        assert!(!cands.is_empty());
        for c in &cands {
            verify(&c.function).unwrap();
            check_equivalence(
                &f,
                &c.function,
                &traces(&["x1", "x2", "x3", "x4", "x5", "c"]),
                1,
            )
            .unwrap();
        }
    }

    #[test]
    fn sinking_exposes_distributivity_like_example3() {
        // After sinking, the true-thread computes x1*x2 - x1*x3 locally,
        // which Distributivity then factors to x1*(x2-x3) — the paper's
        // Example 3 outcome: one multiply on the hot thread.
        let f = figure4();
        let sunk = PhiSink
            .candidates(&f, &Region::whole())
            .into_iter()
            .next()
            .unwrap()
            .function;
        let factored = crate::algebraic::Distributivity
            .candidates(&sunk, &Region::whole())
            .into_iter()
            .find(|c| c.description.contains("factor"));
        let factored = factored
            .expect("distributivity applies after sinking")
            .function;
        verify(&factored).unwrap();
        check_equivalence(
            &f,
            &factored,
            &traces(&["x1", "x2", "x3", "x4", "x5", "c"]),
            2,
        )
        .unwrap();
        // The hot thread now holds exactly one multiply (Example 3: one
        // subtraction and one multiplication).
        let muls = factored
            .block_ids()
            .flat_map(|b| factored.block(b).ops.clone())
            .filter(|&op| matches!(factored.op(op).kind, OpKind::Bin(fact_ir::BinOp::Mul, ..)))
            .count();
        assert_eq!(muls, 1, "{factored}");
    }

    #[test]
    fn does_not_sink_memory_operations() {
        let f = compile(
            r#"
            proc f(a, c) {
                array x[8];
                var i = 0;
                if (c > 0) { i = 1; } else { i = 2; }
                x[i] = a;
            }
            "#,
        )
        .unwrap();
        let cands = PhiSink.candidates(&f, &Region::whole());
        assert!(cands.is_empty());
    }

    #[test]
    fn loop_phis_are_handled_or_skipped_safely() {
        // Sinking through loop-header phis duplicates the op into the
        // preheader and latch — still equivalent.
        let f = compile(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let cands = PhiSink.candidates(&f, &Region::whole());
        for c in &cands {
            verify(&c.function).unwrap();
            check_equivalence(&f, &c.function, &traces(&["n"]), 3).unwrap();
        }
    }

    #[test]
    fn total_work_is_preserved() {
        // Each execution runs exactly one thread's copy: op count per
        // trace should not grow.
        let f = figure4();
        let c = PhiSink
            .candidates(&f, &Region::whole())
            .into_iter()
            .next()
            .unwrap();
        let env: std::collections::HashMap<String, i64> = [
            ("x1", 2),
            ("x2", 3),
            ("x3", 4),
            ("x4", 5),
            ("x5", 6),
            ("c", 1),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let r1 = fact_sim::execute(&f, &env).unwrap();
        let r2 = fact_sim::execute(&c.function, &env).unwrap();
        assert!(r2.ops_executed <= r1.ops_executed + 1);
    }
}
