//! Loop-kernel analysis for functional pipelining.
//!
//! A branch-free loop body (after if-conversion) can be software-pipelined:
//! successive iterations overlap so that one iteration completes every
//! *initiation interval* (II) cycles, where II is bounded below by resource
//! pressure (ResMII) and by loop-carried dependence recurrences (RecMII).
//! The STG models a pipelined loop as a kernel state whose operations carry
//! weight `1/II` and which self-loops with the profiled back-edge
//! probability (see [`crate::stg`] for the weighting convention).

use crate::resources::{Allocation, FuId, FuLibrary, FuSelection};
use fact_ir::{BlockId, Function, MemId, NaturalLoop, OpId, OpKind, Terminator};
use std::collections::HashMap;

/// A resource contended for during scheduling: a functional-unit type or a
/// memory port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ResKey {
    /// A functional-unit type.
    Fu(FuId),
    /// A single-ported memory.
    Mem(MemId),
}

/// Pipelinability analysis of one loop.
#[derive(Clone, Debug)]
pub struct LoopKernel {
    /// The loop header.
    pub header: BlockId,
    /// Initiation interval in cycles.
    pub ii: u32,
    /// Resource-constrained lower bound (fractional).
    pub res_mii: f64,
    /// Recurrence-constrained lower bound (cycles).
    pub rec_mii: u32,
    /// All datapath operations of the loop body (header included).
    pub body_ops: Vec<OpId>,
    /// Per-iteration resource demand.
    pub usage: HashMap<ResKey, f64>,
    /// The in-loop successor of the header branch.
    pub body_target: BlockId,
    /// The out-of-loop successor of the header branch.
    pub exit_target: BlockId,
}

/// Expected iterations per entry of a loop that continues at its header
/// test with probability `continue_prob` (geometric, at least 1; the
/// probability is clamped below 1 so a loop the profile never saw leave
/// stays finite).
pub fn geometric_iters(continue_prob: f64) -> f64 {
    let q = continue_prob.clamp(0.0, 0.999_999);
    (q / (1.0 - q)).max(1.0)
}

fn op_delay(f: &Function, lib: &FuLibrary, sel: &FuSelection, op: OpId) -> f64 {
    match &f.op(op).kind {
        OpKind::Bin(..) | OpKind::Un(..) => {
            sel.fu_of(op).map(|fu| lib.spec(fu).delay_ns).unwrap_or(0.0)
        }
        OpKind::Load { .. } | OpKind::Store { .. } => lib.memory_delay_ns,
        _ => 0.0,
    }
}

fn op_resource(f: &Function, sel: &FuSelection, op: OpId) -> Option<ResKey> {
    match &f.op(op).kind {
        OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => Some(ResKey::Mem(*mem)),
        OpKind::Bin(..) | OpKind::Un(..) => sel.fu_of(op).map(ResKey::Fu),
        _ => None,
    }
}

/// Sums the per-iteration resource demand of a set of ops.
pub fn resource_usage(f: &Function, sel: &FuSelection, ops: &[OpId]) -> HashMap<ResKey, f64> {
    let mut usage: HashMap<ResKey, f64> = HashMap::new();
    for &op in ops {
        if let Some(r) = op_resource(f, sel, op) {
            *usage.entry(r).or_insert(0.0) += 1.0;
        }
    }
    usage
}

/// Checks whether `l` has the shape kernel pipelining requires and, if so,
/// computes its kernel parameters, which depend on the design alone (the
/// profile enters through [`geometric_iters`] and the scheduler's
/// acceptance test). Returns `None` when the loop:
///
/// * contains a conditional branch other than the header test,
/// * has more than one exit edge (or an exit not at the header),
/// * both loads and stores some memory (a loop-carried memory dependence we
///   conservatively refuse to pipeline around),
/// * uses a unit with zero allocated instances, or
/// * contains a nested loop.
pub fn analyze_kernel(
    f: &Function,
    l: &NaturalLoop,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> Option<LoopKernel> {
    // Shape: only the header branches; single exit from the header.
    let (cond, on_true, on_false) = match f.block(l.header).term {
        Terminator::Branch {
            cond,
            on_true,
            on_false,
        } => (cond, on_true, on_false),
        _ => return None,
    };
    let _ = cond;
    for &b in &l.body {
        if b != l.header {
            match f.block(b).term {
                Terminator::Jump(_) => {}
                _ => return None,
            }
        }
    }
    if l.exits.len() != 1 || l.exits[0].0 != l.header {
        return None;
    }
    let (body_target, exit_target) = if l.contains(on_true) {
        (on_true, on_false)
    } else {
        (on_false, on_true)
    };
    if !l.contains(body_target) || l.contains(exit_target) {
        return None;
    }

    // Collect body ops in a deterministic order (header first).
    let mut blocks: Vec<BlockId> = l.body.iter().copied().collect();
    blocks.sort_by_key(|b| (*b != l.header, b.index()));
    let mut body_ops: Vec<OpId> = Vec::new();
    for b in &blocks {
        body_ops.extend(f.block(*b).ops.iter().copied());
    }

    // Memory legality: no memory both loaded and stored.
    let mut loaded: Vec<MemId> = Vec::new();
    let mut stored: Vec<MemId> = Vec::new();
    for &op in &body_ops {
        match &f.op(op).kind {
            OpKind::Load { mem, .. } => loaded.push(*mem),
            OpKind::Store { mem, .. } => stored.push(*mem),
            _ => {}
        }
    }
    if loaded.iter().any(|m| stored.contains(m)) {
        return None;
    }

    // Resource bound.
    let usage = resource_usage(f, selection, &body_ops);
    let mut res_mii: f64 = 1.0;
    for (&r, &u) in &usage {
        let cap = match r {
            ResKey::Fu(fu) => alloc.count(fu) as f64,
            ResKey::Mem(_) => 1.0,
        };
        if cap == 0.0 {
            return None;
        }
        res_mii = res_mii.max(u / cap);
    }

    // Recurrence bound: for each loop phi, the longest delay path from
    // *that phi* back to its own latch-incoming value constrains II
    // (a distance-1 dependence cycle). Paths that start at one phi and end
    // at a different phi's latch value are cross-iteration feed-forward
    // dependences — they add pipeline depth, not initiation interval — so
    // each phi is treated as its own single source. A recurrence that
    // runs through two or more phis (e.g. a swap) is missed, so its II is
    // under-estimated — an optimistic bound, not a conservative one;
    // ResMII still applies. ROADMAP item 1 replaces this with the
    // maximum cycle ratio over the phi dependence graph.
    let in_body: HashMap<OpId, usize> = body_ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut rec_mii: u32 = 1;
    let phis: Vec<OpId> = body_ops
        .iter()
        .copied()
        .filter(|&op| matches!(f.op(op).kind, OpKind::Phi(_)))
        .collect();
    for &source in &phis {
        // Longest path (ns) from `source`; body_ops is topologically
        // consistent for in-iteration data flow (phis first, defs before
        // uses block by block). Other phis are opaque (no in-iteration
        // paths run through them).
        let mut dist: HashMap<OpId, f64> = HashMap::new();
        dist.insert(source, 0.0);
        for &op in &body_ops {
            if matches!(f.op(op).kind, OpKind::Phi(_)) {
                continue;
            }
            let mut best: Option<f64> = None;
            for v in f.op(op).kind.operands() {
                if in_body.contains_key(&v) {
                    if let Some(&dv) = dist.get(&v) {
                        best = Some(best.unwrap_or(f64::NEG_INFINITY).max(dv));
                    }
                }
            }
            if let Some(b) = best {
                dist.insert(op, b + op_delay(f, library, selection, op));
            }
        }
        if let OpKind::Phi(incoming) = &f.op(source).kind {
            for (_, v) in incoming {
                if in_body.contains_key(v) {
                    if let Some(&d) = dist.get(v) {
                        let cycles = (d / clk).ceil().max(1.0) as u32;
                        rec_mii = rec_mii.max(cycles);
                    }
                }
            }
        }
    }

    let ii = (res_mii.ceil() as u32).max(rec_mii).max(1);

    Some(LoopKernel {
        header: l.header,
        ii,
        res_mii,
        rec_mii,
        body_ops,
        usage,
        body_target,
        exit_target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ifconv::if_convert;
    use crate::resources::{FuSpec, SelectionRules};
    use fact_ir::{DomTree, LoopForest};
    use fact_lang::compile;

    fn setup(src: &str, ifc: bool) -> (Function, FuLibrary, FuSelection, SelectionRules) {
        let mut f = compile(src).unwrap();
        if ifc {
            if_convert(&mut f);
        }
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        for (name, e, d, a) in [
            ("a1", 1.3, 10.0, 1.5),
            ("sb1", 1.3, 10.0, 1.5),
            ("mt1", 2.3, 23.0, 3.9),
            ("cp1", 1.1, 10.0, 1.3),
            ("i1", 0.7, 5.0, 1.1),
        ] {
            lib.add(FuSpec {
                name: name.into(),
                energy_coeff: e,
                delay_ns: d,
                area: a,
            });
        }
        let rules = SelectionRules {
            add: lib.by_name("a1"),
            sub: lib.by_name("sb1"),
            mul: lib.by_name("mt1"),
            cmp: lib.by_name("cp1"),
            eq: lib.by_name("cp1"),
            incr: lib.by_name("i1"),
            ..Default::default()
        };
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        (f, lib, sel, rules)
    }

    fn only_loop(f: &Function) -> NaturalLoop {
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        forest.loops()[0].clone()
    }

    fn alloc(lib: &FuLibrary, pairs: &[(&str, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for (n, c) in pairs {
            a.set(lib.by_name(n).unwrap(), *c);
        }
        a
    }

    #[test]
    fn simple_counter_pipelines_at_ii_1() {
        let (f, lib, sel, _) = setup(
            "proc f(n) { var i = 0; while (i < n) { i = i + 1; } out i = i; }",
            false,
        );
        let l = only_loop(&f);
        let a = alloc(&lib, &[("i1", 1), ("cp1", 1)]);
        let k = analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).unwrap();
        // i -> i+1 recurrence: 5ns -> 1 cycle. One incrementer, one use.
        assert_eq!(k.ii, 1);
        assert_eq!(k.rec_mii, 1);
        assert!((geometric_iters(0.9) - 9.0).abs() < 1e-9);
    }

    #[test]
    fn resource_pressure_raises_ii() {
        // Two independent adds per iteration, one adder: ResMII = 2.
        let (f, lib, sel, _) = setup(
            "proc f(n, a, b) { var i = 0; var s = 0; var t = 0; while (i < n) { s = s + a; t = t + b; i = i + 1; } out s = s; out t = t; }",
            false,
        );
        let l = only_loop(&f);
        let one = alloc(&lib, &[("a1", 1), ("i1", 1), ("cp1", 1)]);
        let k = analyze_kernel(&f, &l, &lib, &sel, &one, 25.0).unwrap();
        assert_eq!(k.ii, 2);
        let two = alloc(&lib, &[("a1", 2), ("i1", 1), ("cp1", 1)]);
        let k2 = analyze_kernel(&f, &l, &lib, &sel, &two, 25.0).unwrap();
        assert_eq!(k2.ii, 1);
    }

    #[test]
    fn recurrence_chain_raises_ii() {
        // s = (s * 3) + a: 23 + 10 = 33ns > 25 -> RecMII 2.
        let (f, lib, sel, _) = setup(
            "proc f(n, a) { var i = 0; var s = 1; while (i < n) { s = s * 3 + a; i = i + 1; } out s = s; }",
            false,
        );
        let l = only_loop(&f);
        let a = alloc(&lib, &[("a1", 1), ("mt1", 1), ("i1", 1), ("cp1", 1)]);
        let k = analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(k.rec_mii, 2);
        assert_eq!(k.ii, 2);
    }

    #[test]
    fn internal_branch_blocks_pipelining_until_ifconverted() {
        let src = r#"
            proc gcd(a, b) {
                while (a != b) {
                    if (a > b) { a = a - b; } else { b = b - a; }
                }
                out g = a;
            }
        "#;
        let (f, lib, sel, _) = setup(src, false);
        let l = only_loop(&f);
        let a = alloc(&lib, &[("sb1", 2), ("cp1", 2)]);
        assert!(analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).is_none());

        let (f2, lib2, sel2, _) = setup(src, true);
        let l2 = only_loop(&f2);
        let a2 = alloc(&lib2, &[("sb1", 2), ("cp1", 2)]);
        let k = analyze_kernel(&f2, &l2, &lib2, &sel2, &a2, 25.0).unwrap();
        // Both subtractions execute speculatively; 2 subs / 2 units = 1;
        // recurrence a-b -> mux -> compare next iter: sub(10) + mux(0) = 10ns -> 1.
        assert_eq!(k.ii, 1);
    }

    #[test]
    fn load_store_same_memory_refuses() {
        let (f, lib, sel, _) = setup(
            "proc f(n) { array x[64]; var i = 0; while (i < n) { x[i] = x[i] + 1; i = i + 1; } }",
            false,
        );
        let l = only_loop(&f);
        let a = alloc(&lib, &[("a1", 1), ("i1", 1), ("cp1", 1)]);
        assert!(analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).is_none());
    }

    #[test]
    fn store_only_memory_is_fine() {
        let (f, lib, sel, _) = setup(
            "proc f(n) { array x[64]; var i = 0; while (i < n) { x[i] = i; i = i + 1; } }",
            false,
        );
        let l = only_loop(&f);
        let a = alloc(&lib, &[("i1", 1), ("cp1", 1)]);
        let k = analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(k.ii, 1);
        assert!(k.usage.contains_key(&ResKey::Mem(fact_ir::MemId(0))));
    }

    #[test]
    fn zero_allocation_refuses() {
        let (f, lib, sel, _) = setup(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + s; i = i + 1; } out s = s; }",
            false,
        );
        let l = only_loop(&f);
        let a = alloc(&lib, &[("i1", 1), ("cp1", 1)]); // no adder
        assert!(analyze_kernel(&f, &l, &lib, &sel, &a, 25.0).is_none());
    }
}
