//! If-conversion: folding side-effect-free branch diamonds into straight
//! line code with muxes.
//!
//! The paper's scheduler "performs … functional pipelining (even across
//! **if** constructs)" (§5). Pipelining across an `if` requires speculating
//! both arms; we realize that by converting diamonds whose arms have no
//! side effects into mux-selected straight-line code. The transformed
//! behavior is observationally equivalent (both arms are total functions in
//! this IR — even division is total), and the energy accounting honestly
//! charges both arms, which is exactly what speculation costs in hardware.

use fact_ir::rewrite::{eliminate_dead_code, replace_all_uses};
use fact_ir::{BlockId, Function, OpKind, Terminator};
use std::collections::HashMap;

/// Result of if-conversion.
#[derive(Clone, Debug, Default)]
pub struct IfConvReport {
    /// Number of diamonds converted.
    pub converted: usize,
    /// For every block whose terminator moved during merging, the original
    /// block that owned it. Used to remap branch-probability profiles.
    pub branch_moved_from: HashMap<BlockId, BlockId>,
}

fn block_has_side_effects(f: &Function, b: BlockId) -> bool {
    f.block(b)
        .ops
        .iter()
        .any(|&op| f.op(op).kind.has_side_effect())
}

fn single_pred(preds: &[Vec<BlockId>], b: BlockId) -> Option<BlockId> {
    match preds[b.index()].as_slice() {
        [p] => Some(*p),
        _ => None,
    }
}

/// Converts every side-effect-free diamond and triangle in `f` to
/// straight-line mux code, iterating to a fixed point.
///
/// Handled shapes (`D` ends in `Branch{cond, T, E}`):
/// * **diamond**: `T` and `E` are distinct single-pred blocks that both
///   jump to a common merge `M`;
/// * **triangle**: one arm is the merge itself (`if` without `else`).
///
/// Arms must contain no stores or outputs. The merge block is folded into
/// `D`; its phis become muxes on `cond`.
pub fn if_convert(f: &mut Function) -> IfConvReport {
    let mut report = IfConvReport::default();
    loop {
        if !convert_one(f, &mut report) {
            break;
        }
    }
    if report.converted > 0 {
        eliminate_dead_code(f);
    }
    report
}

fn convert_one(f: &mut Function, report: &mut IfConvReport) -> bool {
    let preds = f.predecessors();
    for d in f.block_ids().collect::<Vec<_>>() {
        let (cond, on_true, on_false) = match f.block(d).term {
            Terminator::Branch {
                cond,
                on_true,
                on_false,
            } => (cond, on_true, on_false),
            _ => continue,
        };
        if on_true == on_false {
            continue;
        }

        // Identify the shape: (then-arm, else-arm, merge), where an arm of
        // `None` means the branch goes straight to the merge.
        let arm = |b: BlockId, merge_candidate: BlockId| -> Option<BlockId> {
            // b is a proper arm if it is a single-pred, single-succ block
            // jumping to the merge candidate.
            if b == merge_candidate {
                return None;
            }
            Some(b)
        };

        // Try diamond: both arms jump to same merge.
        let succ_of = |b: BlockId| -> Option<BlockId> {
            match f.block(b).term {
                Terminator::Jump(t) => Some(t),
                _ => None,
            }
        };

        let (t_arm, e_arm, merge) = {
            let ts = succ_of(on_true);
            let es = succ_of(on_false);
            if let (Some(tm), Some(em)) = (ts, es) {
                if tm == em
                    && single_pred(&preds, on_true) == Some(d)
                    && single_pred(&preds, on_false) == Some(d)
                {
                    (arm(on_true, tm), arm(on_false, tm), tm)
                } else if tm == on_false && single_pred(&preds, on_true) == Some(d) {
                    // triangle: true arm falls into on_false (merge)
                    (Some(on_true), None, on_false)
                } else if em == on_true && single_pred(&preds, on_false) == Some(d) {
                    (None, Some(on_false), on_true)
                } else {
                    continue;
                }
            } else if ts == Some(on_false) && single_pred(&preds, on_true) == Some(d) {
                (Some(on_true), None, on_false)
            } else if es == Some(on_true) && single_pred(&preds, on_false) == Some(d) {
                (None, Some(on_false), on_true)
            } else {
                continue;
            }
        };

        // Merge must be reached only through this diamond.
        let expected_preds: Vec<BlockId> = [t_arm.unwrap_or(d), e_arm.unwrap_or(d)].to_vec();
        let mut mp = preds[merge.index()].clone();
        mp.sort();
        let mut ep = expected_preds.clone();
        ep.sort();
        ep.dedup();
        mp.dedup();
        if mp != ep {
            continue;
        }
        // Arms must be effect-free and phi-free.
        let arm_ok = |b: Option<BlockId>| match b {
            None => true,
            Some(b) => {
                !block_has_side_effects(f, b)
                    && !f
                        .block(b)
                        .ops
                        .iter()
                        .any(|&op| matches!(f.op(op).kind, OpKind::Phi(_)))
            }
        };
        if !arm_ok(t_arm) || !arm_ok(e_arm) {
            continue;
        }

        // Perform the conversion: append arm ops to d.
        for armb in [t_arm, e_arm].into_iter().flatten() {
            let ops = std::mem::take(&mut f.block_mut(armb).ops);
            f.block_mut(d).ops.extend(ops);
            f.set_terminator(armb, Terminator::Return(None));
        }

        // Rewrite merge phis into muxes appended to d.
        let t_pred = t_arm.unwrap_or(d);
        let e_pred = e_arm.unwrap_or(d);
        let merge_ops = f.block(merge).ops.clone();
        for op in merge_ops {
            if let OpKind::Phi(incoming) = f.op(op).kind.clone() {
                let vt = incoming
                    .iter()
                    .find(|(b, _)| *b == t_pred)
                    .map(|(_, v)| *v)
                    .expect("phi covers then-arm");
                let ve = incoming
                    .iter()
                    .find(|(b, _)| *b == e_pred)
                    .map(|(_, v)| *v)
                    .expect("phi covers else-arm");
                let mux = f.emit_mux(d, cond, vt, ve);
                replace_all_uses(f, op, mux);
                f.block_mut(merge).ops.retain(|&o| o != op);
            }
        }
        // Fold the merge block's remaining ops and terminator into d.
        let rest = std::mem::take(&mut f.block_mut(merge).ops);
        f.block_mut(d).ops.extend(rest);
        let mterm = f.block(merge).term.clone();
        if matches!(mterm, Terminator::Branch { .. }) {
            // Track the branch's original owner for profile remapping:
            // if merge's branch itself had been moved, chase to the root.
            let origin = report.branch_moved_from.remove(&merge).unwrap_or(merge);
            report.branch_moved_from.insert(d, origin);
        }
        f.set_terminator(d, mterm);
        f.set_terminator(merge, Terminator::Return(None));

        // Phis in merge's successors referenced `merge` as pred; now `d`.
        // Only phis with an edge from `merge` change (copy-on-write).
        for succ in f.block(d).term.successors() {
            for i in 0..f.block(succ).ops.len() {
                let op = f.block(succ).ops[i];
                let from_merge = match &f.op(op).kind {
                    OpKind::Phi(incoming) => incoming.iter().any(|(p, _)| *p == merge),
                    _ => false,
                };
                if !from_merge {
                    continue;
                }
                if let OpKind::Phi(incoming) = &mut f.op_mut(op).kind {
                    for (p, _) in incoming.iter_mut() {
                        if *p == merge {
                            *p = d;
                        }
                    }
                }
            }
        }

        report.converted += 1;
        return true;
    }
    false
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
            .map(|n| (n.to_string(), InputSpec::Uniform { lo: -40, hi: 40 }))
            .collect();
        generate(&specs, 100, 21)
    }

    #[test]
    fn converts_full_diamond() {
        let src =
            "proc f(a) { var y = 0; if (a > 0) { y = a + 1; } else { y = a - 1; } out y = y; }";
        let orig = compile(src).unwrap();
        let mut f = orig.clone();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 1);
        verify(&f).unwrap();
        assert_eq!(f.op_histogram().get("phi"), None);
        assert_eq!(f.op_histogram().get("mux"), Some(&1));
        check_equivalence(&orig, &f, &traces(&["a"]), 1).unwrap();
    }

    #[test]
    fn converts_triangle() {
        let src = "proc f(a) { var y = 5; if (a > 0) { y = a * 2; } out y = y; }";
        let orig = compile(src).unwrap();
        let mut f = orig.clone();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 1);
        verify(&f).unwrap();
        check_equivalence(&orig, &f, &traces(&["a"]), 2).unwrap();
    }

    #[test]
    fn refuses_arms_with_stores() {
        let src = "proc f(a) { array x[4]; if (a > 0) { x[0] = a; } out y = a; }";
        let mut f = compile(src).unwrap();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 0);
    }

    #[test]
    fn converts_gcd_body_inside_loop() {
        let src = r#"
            proc gcd(a, b) {
                while (a != b) {
                    if (a > b) { a = a - b; } else { b = b - a; }
                }
                out g = a;
            }
        "#;
        let orig = compile(src).unwrap();
        let mut f = orig.clone();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 1);
        verify(&f).unwrap();
        // The loop persists but its body is now branch-free.
        let dom = fact_ir::DomTree::compute(&f);
        let loops = fact_ir::LoopForest::compute(&f, &dom);
        assert_eq!(loops.loops().len(), 1);
        let l = &loops.loops()[0];
        // Loop body contains no conditional branch except the header test.
        let internal_branches = l
            .body
            .iter()
            .filter(|&&b| b != l.header)
            .filter(|&&b| matches!(f.block(b).term, Terminator::Branch { .. }))
            .count();
        assert_eq!(internal_branches, 0);
        // Equivalent on positive inputs (GCD domain).
        let specs = vec![
            ("a".to_string(), InputSpec::Uniform { lo: 1, hi: 60 }),
            ("b".to_string(), InputSpec::Uniform { lo: 1, hi: 60 }),
        ];
        let t = generate(&specs, 60, 5);
        check_equivalence(&orig, &f, &t, 3).unwrap();
    }

    #[test]
    fn nested_diamonds_convert_to_fixed_point() {
        let src = r#"
            proc f(a, b) {
                var y = 0;
                if (a > 0) {
                    if (b > 0) { y = 1; } else { y = 2; }
                } else {
                    y = 3;
                }
                out y = y;
            }
        "#;
        let orig = compile(src).unwrap();
        let mut f = orig.clone();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 2);
        verify(&f).unwrap();
        check_equivalence(&orig, &f, &traces(&["a", "b"]), 4).unwrap();
    }

    #[test]
    fn branch_move_is_tracked_for_profiles() {
        // After converting the inner diamond, the merge's branch (the
        // loop back-test) moves; the report must record where it came from.
        let src = r#"
            proc f(a, n) {
                var i = 0;
                var y = 0;
                while (i < n) {
                    if (a > 0) { y = y + 1; } else { y = y - 1; }
                    i = i + 1;
                }
                out y = y;
            }
        "#;
        let orig = compile(src).unwrap();
        let mut f = orig.clone();
        let r = if_convert(&mut f);
        assert_eq!(r.converted, 1);
        verify(&f).unwrap();
        let specs = vec![
            ("a".to_string(), InputSpec::Uniform { lo: -5, hi: 5 }),
            ("n".to_string(), InputSpec::Uniform { lo: 0, hi: 10 }),
        ];
        check_equivalence(&orig, &f, &generate(&specs, 60, 6), 5).unwrap();
    }
}
