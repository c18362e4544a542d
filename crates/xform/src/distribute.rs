//! Loop distribution (fission) — an *extension* transformation.
//!
//! Splits a loop whose body contains independent computation groups into
//! consecutive loops, one per group. On its own this is usually neutral
//! (same work, more loop overhead); its value is synergy with the
//! scheduler's *concurrent loop optimization*: two fissioned loops with
//! disjoint resources can run as parallel phases (paper Figure 2(b)),
//! which a single fused body could not when its combined per-iteration
//! recurrences serialize. Loop distribution appears in the paper's survey
//! of candidate transformations (§1, citing \[1\]); like
//! [`crate::cse`], it ships via
//! [`TransformLibrary::extended`](crate::TransformLibrary::extended).
//!
//! Safety conditions enforced here:
//!
//! * the loop is innermost, single-latch, single-exit-at-header, with a
//!   single body block;
//! * the header condition depends only on *induction* state — header phis
//!   whose latch updates use nothing but induction phis and loop
//!   invariants — so both fission halves iterate identically;
//! * computation groups are connected components under data dependence
//!   and shared-memory access, so no value or memory cell flows between
//!   groups;
//! * at most one group performs observable outputs (fission reorders
//!   cross-group effects; disjoint memories make store reordering
//!   unobservable, output streams would not be).

use crate::transform::{fingerprint_of, Candidate, Parent, Region, Transform, TransformKind};
use fact_ir::{BlockId, Function, NaturalLoop, Op, OpId, OpKind, Terminator};
use std::collections::{HashMap, HashSet};

/// The loop-distribution transformation.
pub struct LoopDistribution;

impl Transform for LoopDistribution {
    fn kind(&self) -> TransformKind {
        TransformKind::LoopDistribution
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of("loop-distribution", &[])
    }

    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate> {
        let f = parent.function();
        let forest = parent.loops();
        let mut out = Vec::new();
        for l in forest.loops() {
            if !region.covers(l.header) {
                continue;
            }
            // Innermost only.
            if forest
                .loops()
                .iter()
                .any(|m| m.header != l.header && l.contains(m.header))
            {
                continue;
            }
            if let Some(g) = distribute(f, l) {
                out.push(Candidate {
                    kind: TransformKind::LoopDistribution,
                    description: format!("distribute loop at {}", l.header),
                    function: g,
                    unrolled: None,
                });
            }
        }
        out
    }
}

struct LoopShape {
    header: BlockId,
    body: BlockId,
    preheader_edge_ok: bool,
    exit_target: BlockId,
    cond: OpId,
}

fn shape(f: &Function, l: &NaturalLoop) -> Option<LoopShape> {
    if l.body.len() != 2 || l.latches.len() != 1 || l.exits.len() != 1 || l.exits[0].0 != l.header {
        return None;
    }
    let body = l.latches[0];
    if body == l.header {
        return None;
    }
    let (cond, on_true, on_false) = match f.block(l.header).term {
        Terminator::Branch {
            cond,
            on_true,
            on_false,
        } => (cond, on_true, on_false),
        _ => return None,
    };
    let exit_target = if on_true == body { on_false } else { on_true };
    if l.contains(exit_target) {
        return None;
    }
    Some(LoopShape {
        header: l.header,
        body,
        preheader_edge_ok: true,
        exit_target,
        cond,
    })
}

fn distribute(f: &Function, l: &NaturalLoop) -> Option<Function> {
    let s = shape(f, l)?;
    if !s.preheader_edge_ok {
        return None;
    }
    let latch = s.body;

    // Classify header phis: induction phis are those whose latch update
    // chain uses only induction phis, constants, and loop invariants.
    let header_ops: Vec<OpId> = f.block(s.header).ops.clone();
    let body_ops: Vec<OpId> = f.block(s.body).ops.clone();
    let in_loop: HashSet<OpId> = header_ops.iter().chain(&body_ops).copied().collect();
    let phis: Vec<OpId> = header_ops
        .iter()
        .copied()
        .filter(|&op| matches!(f.op(op).kind, OpKind::Phi(_)))
        .collect();
    let latch_value = |phi: OpId| -> Option<OpId> {
        match &f.op(phi).kind {
            OpKind::Phi(incoming) => incoming.iter().find(|(b, _)| *b == latch).map(|(_, v)| *v),
            _ => None,
        }
    };

    // The induction set: exactly the phis the header condition depends
    // on, closed over their latch-update chains. Self-recursive
    // accumulators that the condition never reads are *work*, not
    // induction — they are what fission distributes.
    let mut induction: HashSet<OpId> = HashSet::new();
    {
        let mut stack = vec![s.cond];
        let mut seen: HashSet<OpId> = HashSet::new();
        while let Some(v) = stack.pop() {
            if !seen.insert(v) || !in_loop.contains(&v) {
                continue;
            }
            match &f.op(v).kind {
                OpKind::Phi(_) => {
                    if !phis.contains(&v) {
                        return None; // phi in the body block: unsupported shape
                    }
                    if induction.insert(v) {
                        stack.push(latch_value(v)?);
                    }
                }
                OpKind::Bin(..) | OpKind::Un(..) | OpKind::Const(_) => {
                    stack.extend(f.op(v).kind.operands());
                }
                // The trip count must not depend on memory or other
                // side-effectful state: the cloned loops would disagree.
                _ => return None,
            }
        }
    }
    if induction.is_empty() {
        return None; // trip count driven purely by invariants: leave alone
    }

    // Induction support: every in-loop op reachable from the induction
    // phis' latch updates and the condition (these get cloned).
    let mut support: HashSet<OpId> = HashSet::new();
    {
        let mut stack: Vec<OpId> = induction
            .iter()
            .filter_map(|&p| latch_value(p))
            .chain([s.cond])
            .collect();
        while let Some(v) = stack.pop() {
            if !in_loop.contains(&v) || matches!(f.op(v).kind, OpKind::Phi(_)) {
                continue;
            }
            if support.insert(v) {
                stack.extend(f.op(v).kind.operands());
            }
        }
    }

    // Partition the remaining loop ops into connected components under
    // data dependence and shared-memory access.
    let work_ops: Vec<OpId> = header_ops
        .iter()
        .chain(&body_ops)
        .copied()
        .filter(|op| !induction.contains(op) && !support.contains(op))
        .filter(|&op| !matches!(f.op(op).kind, OpKind::Const(_) | OpKind::Input(_)))
        .collect();
    if work_ops.is_empty() {
        return None;
    }
    let idx: HashMap<OpId, usize> = work_ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut dsu: Vec<usize> = (0..work_ops.len()).collect();
    fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
        if dsu[x] != x {
            let r = find(dsu, dsu[x]);
            dsu[x] = r;
        }
        dsu[x]
    }
    let union = |dsu: &mut Vec<usize>, a: usize, b: usize| {
        let (ra, rb) = (find(dsu, a), find(dsu, b));
        if ra != rb {
            dsu[ra] = rb;
        }
    };
    // Data edges.
    for &op in &work_ops {
        for v in f.op(op).kind.operands() {
            if let Some(&j) = idx.get(&v) {
                union(&mut dsu, idx[&op], j);
            }
        }
        // Phi latch values connect the phi to its update chain.
        if let Some(lv) = latch_value(op) {
            if let Some(&j) = idx.get(&lv) {
                union(&mut dsu, idx[&op], j);
            }
        }
    }
    // Shared-memory edges.
    let mut mem_rep: HashMap<fact_ir::MemId, usize> = HashMap::new();
    for &op in &work_ops {
        if let Some(mem) = f.op(op).kind.memory() {
            match mem_rep.get(&mem) {
                Some(&r) => union(&mut dsu, idx[&op], r),
                None => {
                    mem_rep.insert(mem, idx[&op]);
                }
            }
        }
    }
    // Collect components.
    let mut comps: HashMap<usize, Vec<OpId>> = HashMap::new();
    for &op in &work_ops {
        let r = find(&mut dsu, idx[&op]);
        comps.entry(r).or_default().push(op);
    }
    if comps.len() < 2 {
        return None;
    }
    // At most one component may emit outputs.
    let emitting = comps
        .values()
        .filter(|ops| {
            ops.iter()
                .any(|&op| matches!(f.op(op).kind, OpKind::Output(..)))
        })
        .count();
    if emitting > 1 {
        return None;
    }

    // Deterministic order: by first op id.
    let mut groups: Vec<Vec<OpId>> = comps.into_values().collect();
    for g in &mut groups {
        g.sort();
    }
    groups.sort_by_key(|g| g[0]);

    // Keep group 0 in the original loop; move each further group into its
    // own fresh loop chained after the original's exit.
    let mut g = f.clone();
    let mut chain_from_exit: BlockId = s.exit_target;
    let mut new_loops: Vec<(BlockId, BlockId)> = Vec::new();
    // The original loop's exit edge will be retargeted at the first new
    // loop; build new loops in reverse so each links to the next.
    for group in groups[1..].iter().rev() {
        let (h2, b2) = build_cloned_loop(&mut g, f, &s, &induction, group, chain_from_exit)?;
        new_loops.push((h2, b2));
        chain_from_exit = h2;
    }
    // Retarget the original header's exit edge to the first new loop.
    if let Terminator::Branch {
        on_true, on_false, ..
    } = &mut g.block_mut(s.header).term
    {
        if *on_true == s.exit_target {
            *on_true = chain_from_exit;
        }
        if *on_false == s.exit_target {
            *on_false = chain_from_exit;
        }
    }
    // Remove moved ops from the original loop.
    let moved: HashSet<OpId> = groups[1..].iter().flatten().copied().collect();
    g.block_mut(s.header).ops.retain(|op| !moved.contains(op));
    g.block_mut(s.body).ops.retain(|op| !moved.contains(op));

    // Fix the entry-edge predecessor of every new header's phis: each
    // cloned phi was created with `(s.header, init)`, but a chained
    // fission loop is actually entered from the previous fission header.
    let preds = g.predecessors();
    for &(h2, b2) in &new_loops {
        let entry_preds: Vec<BlockId> = preds[h2.index()]
            .iter()
            .copied()
            .filter(|&p| p != b2)
            .collect();
        let [entry_pred] = entry_preds.as_slice() else {
            return None;
        };
        let ops = g.block(h2).ops.clone();
        for op in ops {
            if let OpKind::Phi(incoming) = &mut g.op_mut(op).kind {
                for (b, _) in incoming.iter_mut() {
                    if *b != b2 {
                        *b = *entry_pred;
                    }
                }
            }
        }
    }

    fact_ir::rewrite::simplify_phis(&mut g);
    fact_ir::rewrite::eliminate_dead_code(&mut g);
    fact_ir::verify::verify(&g).ok()?;
    Some(g)
}

/// Builds one cloned loop executing `group`, entered where the original
/// loop exited, continuing to `next` when done. Returns the new loop's
/// entry block (its header). Exit-phi complications are avoided by only
/// accepting groups whose values are not used outside the loop except
/// through phis that also move; if a moved value is used outside, the new
/// header's phi (which dominates everything after the original loop)
/// replaces it.
fn build_cloned_loop(
    g: &mut Function,
    f: &Function,
    s: &LoopShape,
    induction: &HashSet<OpId>,
    group: &[OpId],
    next: BlockId,
) -> Option<(BlockId, BlockId)> {
    let latch = s.body;
    let header2 = g.add_block("fission.header");
    let body2 = g.add_block("fission.body");

    let latch_value = |phi: OpId| -> Option<OpId> {
        match &f.op(phi).kind {
            OpKind::Phi(incoming) => incoming.iter().find(|(b, _)| *b == latch).map(|(_, v)| *v),
            _ => None,
        }
    };

    // Clone induction phis + support ops + the group, remapping operands.
    let mut map: HashMap<OpId, OpId> = HashMap::new();
    // Phis first (both induction clones and the group's own phis).
    let header_ops: Vec<OpId> = f.block(s.header).ops.clone();
    let body_ops: Vec<OpId> = f.block(s.body).ops.clone();
    let group_set: HashSet<OpId> = group.iter().copied().collect();
    let in_loop: HashSet<OpId> = header_ops.iter().chain(&body_ops).copied().collect();

    // Which ops get cloned into the new loop: induction phis, induction
    // support (condition + updates), and the group itself.
    let mut support: HashSet<OpId> = HashSet::new();
    {
        let mut stack: Vec<OpId> = induction
            .iter()
            .filter_map(|&p| latch_value(p))
            .chain([s.cond])
            .collect();
        while let Some(v) = stack.pop() {
            if !in_loop.contains(&v) || matches!(f.op(v).kind, OpKind::Phi(_)) {
                continue;
            }
            if support.insert(v) {
                stack.extend(f.op(v).kind.operands());
            }
        }
    }

    // Clone set: induction phis, the condition/update support, the group,
    // plus every in-loop constant they reference (constants are emitted at
    // their expression sites, so the original's copy would not dominate
    // the new loop).
    let mut cloned_set: HashSet<OpId> = header_ops
        .iter()
        .chain(&body_ops)
        .copied()
        .filter(|op| induction.contains(op) || support.contains(op) || group_set.contains(op))
        .collect();
    loop {
        let mut add: Vec<OpId> = Vec::new();
        for &op in &cloned_set {
            for v in f.op(op).kind.operands() {
                if in_loop.contains(&v)
                    && !cloned_set.contains(&v)
                    && matches!(f.op(v).kind, OpKind::Const(_))
                {
                    add.push(v);
                }
            }
        }
        if add.is_empty() {
            break;
        }
        cloned_set.extend(add);
    }
    let cloned: Vec<OpId> = header_ops
        .iter()
        .chain(&body_ops)
        .copied()
        .filter(|op| cloned_set.contains(op))
        .collect();

    // Create clones in order: header phis, header non-phis, body ops.
    for &op in &cloned {
        let is_header = header_ops.contains(&op);
        let target = if is_header { header2 } else { body2 };
        let kind = f.op(op).kind.clone();
        let label = f.op(op).label.clone().map(|l| format!("{l}~"));
        let new = match kind {
            OpKind::Phi(incoming) => {
                // Initial value: taken at the original loop's *exit*, the
                // phi itself holds the final value... for induction phis
                // the new loop restarts from the original initial value;
                // for group phis (accumulators) likewise: the group's
                // entire work now happens in the new loop, so it starts
                // from the original preheader-incoming value.
                let init = incoming
                    .iter()
                    .find(|(b, _)| *b != latch)
                    .map(|(_, v)| *v)?;
                let lv = incoming
                    .iter()
                    .find(|(b, _)| *b == latch)
                    .map(|(_, v)| *v)?;
                // Defer latch operand remap until clones exist.
                let ph = g.emit(
                    header2,
                    Op::new(OpKind::Phi(vec![(s.header, init), (body2, lv)])),
                );
                if let Some(lb) = label {
                    g.op_mut(ph).label = Some(lb);
                }
                ph
            }
            mut k => {
                k.map_operands(|v| map.get(&v).copied().unwrap_or(v));

                match label {
                    Some(lb) => g.emit(target, Op::with_label(k, lb)),
                    None => g.emit(target, Op::new(k)),
                }
            }
        };
        map.insert(op, new);
    }
    // Fix phi operand references now that every clone exists, and the
    // incoming block for the initial value: it must be the block that now
    // jumps into header2 — the ORIGINAL header (whose exit edge will be
    // retargeted here) or a previous fission loop's header. We use the
    // original header for the first new loop; for chained fission loops
    // the previous new header... To keep this general we retarget below.
    for &op in &cloned {
        let new = map[&op];
        if let OpKind::Phi(incoming) = &mut g.op_mut(new).kind {
            for (_, v) in incoming.iter_mut() {
                if let Some(&m) = map.get(v) {
                    *v = m;
                }
            }
        }
    }

    // Terminators: header2 branches on the cloned condition into body2 or
    // `next`; body2 jumps back to header2.
    let cond2 = map.get(&s.cond).copied().unwrap_or(s.cond);
    g.set_terminator(
        header2,
        Terminator::Branch {
            cond: cond2,
            on_true: body2,
            on_false: next,
        },
    );
    g.set_terminator(body2, Terminator::Jump(header2));

    // Group values used outside the original loop: replace those uses with
    // the new-loop equivalents (the new header's phis dominate `next`).
    // Uses of ORIGINAL group phis after the loop must read the new phi.
    let op_blocks = g.op_blocks();
    for &op in group {
        if !matches!(f.op(op).kind, OpKind::Phi(_)) {
            continue;
        }
        let new = map[&op];
        for b in g.block_ids().collect::<Vec<_>>() {
            if b == s.header || b == s.body || b == header2 || b == body2 {
                continue;
            }
            for i in 0..g.block(b).ops.len() {
                let u = g.block(b).ops[i];
                if g.op(u).kind.uses(op) {
                    g.op_mut(u)
                        .kind
                        .map_operands(|v| if v == op { new } else { v });
                }
            }
            if let Terminator::Branch { cond, .. } = &mut g.block_mut(b).term {
                if *cond == op {
                    *cond = new;
                }
            }
        }
    }
    let _ = op_blocks;

    // Phi entry-edge predecessor blocks are patched by distribute() once
    // the whole chain is wired (see the fixup pass there).
    Some((header2, body2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::verify::verify;
    use fact_ir::{DomTree, LoopForest};
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn traces(n: i64) -> fact_sim::TraceSet {
        generate(
            &[
                ("n".to_string(), InputSpec::Constant(n)),
                ("a".to_string(), InputSpec::Uniform { lo: -9, hi: 9 }),
                ("b".to_string(), InputSpec::Uniform { lo: -9, hi: 9 }),
            ],
            30,
            61,
        )
    }

    #[test]
    fn splits_two_independent_accumulators() {
        let f = compile(
            r#"
            proc f(n, a, b) {
                var s = 0;
                var t = 0;
                var i = 0;
                while (i < n) {
                    s = s + a;
                    t = t + b;
                    i = i + 1;
                }
                out s = s;
                out t = t;
            }
            "#,
        )
        .unwrap();
        let cands = LoopDistribution.candidates(&f, &Region::whole());
        // Both accumulators emit outputs... s and t are used by outputs
        // OUTSIDE the loop, not inside: outputs are after the loop, so
        // both groups are output-free inside and fission applies.
        assert_eq!(cands.len(), 1, "expected one fission candidate");
        let g = &cands[0].function;
        verify(g).unwrap();
        check_equivalence(&f, g, &traces(12), 1).unwrap();
        // Two loops now exist.
        let dom = DomTree::compute(g);
        let forest = LoopForest::compute(g, &dom);
        assert_eq!(forest.loops().len(), 2, "{g}");
    }

    #[test]
    fn splits_independent_array_writers() {
        let f = compile(
            r#"
            proc f(n) {
                array x[64];
                array y[64];
                var i = 0;
                while (i < n) {
                    x[i] = i + 1;
                    y[i] = i + 2;
                    i = i + 1;
                }
            }
            "#,
        )
        .unwrap();
        let cands = LoopDistribution.candidates(&f, &Region::whole());
        assert_eq!(cands.len(), 1);
        let g = &cands[0].function;
        verify(g).unwrap();
        let t = generate(&[("n".to_string(), InputSpec::Constant(20))], 5, 3);
        check_equivalence(&f, g, &t, 2).unwrap();
    }

    #[test]
    fn refuses_dependent_groups() {
        let f = compile(
            r#"
            proc f(n, a) {
                var s = 0;
                var t = 0;
                var i = 0;
                while (i < n) {
                    s = s + a;
                    t = t + s;
                    i = i + 1;
                }
                out t = t;
            }
            "#,
        )
        .unwrap();
        assert!(LoopDistribution.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn refuses_shared_memory_groups() {
        let f = compile(
            r#"
            proc f(n) {
                array x[64];
                var i = 0;
                while (i < n) {
                    x[i] = i;
                    x[i + 32] = i;
                    i = i + 1;
                }
            }
            "#,
        )
        .unwrap();
        assert!(LoopDistribution.candidates(&f, &Region::whole()).is_empty());
    }

    #[test]
    fn fission_enables_concurrent_phases() {
        // After fission, the scheduler's concurrent-loop optimizer can run
        // the two loops as parallel phases.
        let f = compile(
            r#"
            proc f(n, a, b) {
                array x[64];
                array y[64];
                var i = 0;
                while (i < n) {
                    x[i] = a + i;
                    y[i] = b + i;
                    i = i + 1;
                }
            }
            "#,
        )
        .unwrap();
        let cands = LoopDistribution.candidates(&f, &Region::whole());
        assert_eq!(cands.len(), 1);
        let g = cands[0].function.clone();
        check_equivalence(&f, &g, &traces(16), 4).unwrap();
        let dom = DomTree::compute(&g);
        let forest = LoopForest::compute(&g, &dom);
        assert_eq!(forest.loops().len(), 2);
    }
}
