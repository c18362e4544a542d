//! The test-only list-scheduling oracle: the original `HashMap`-keyed
//! scheduler, kept verbatim apart from naming its result
//! [`OracleSchedule`] (ops by `OpId` rather than by block position). The
//! production scheduler in `fact_sched::listsched` must reproduce it bit
//! for bit, errors included.

use fact_ir::{BlockId, Function, MemId, OpId, OpKind};
use fact_sched::listsched::{OpPlacement, SchedError};
use fact_sched::{Allocation, FuLibrary, FuSelection};
use std::collections::HashMap;

/// The schedule of one basic block, keyed by `OpId`.
#[derive(Clone, Debug, Default)]
pub struct OracleSchedule {
    /// Operations *starting* in each state, in issue order.
    pub states: Vec<Vec<OpId>>,
    /// Where every op of the block landed.
    pub placement: HashMap<OpId, OpPlacement>,
}

/// Returns the intra-block dependency lists: for each op in the block, the
/// ops (also in the block) it must follow.
///
/// Includes data dependencies and memory/output ordering: a store depends
/// on every earlier access to the same memory; a load depends on the
/// latest earlier store to the same memory; outputs stay in program order
/// relative to each other (the output stream is observable).
pub fn block_dependencies(f: &Function, block: BlockId) -> HashMap<OpId, Vec<OpId>> {
    let ops = &f.block(block).ops;
    let in_block: HashMap<OpId, usize> = ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut deps: HashMap<OpId, Vec<OpId>> = HashMap::new();
    let mut last_store: HashMap<MemId, OpId> = HashMap::new();
    let mut accesses_since_store: HashMap<MemId, Vec<OpId>> = HashMap::new();
    let mut last_output: Option<OpId> = None;

    for &op in ops {
        let mut d: Vec<OpId> = f
            .op(op)
            .kind
            .operands()
            .into_iter()
            .filter(|v| in_block.contains_key(v) && in_block[v] < in_block[&op])
            .collect();
        match &f.op(op).kind {
            OpKind::Load { mem, .. } => {
                if let Some(&s) = last_store.get(mem) {
                    d.push(s);
                }
                accesses_since_store.entry(*mem).or_default().push(op);
            }
            OpKind::Store { mem, .. } => {
                if let Some(&s) = last_store.get(mem) {
                    d.push(s);
                }
                for &a in accesses_since_store.entry(*mem).or_default().iter() {
                    d.push(a);
                }
                accesses_since_store.insert(*mem, Vec::new());
                last_store.insert(*mem, op);
            }
            OpKind::Output(..) => {
                if let Some(prev) = last_output {
                    d.push(prev);
                }
                last_output = Some(op);
            }
            _ => {}
        }
        d.sort();
        d.dedup();
        deps.insert(op, d);
    }
    deps
}

/// The scheduling context shared across a block.
struct Ctx<'a> {
    f: &'a Function,
    library: &'a FuLibrary,
    selection: &'a FuSelection,
    alloc: &'a Allocation,
}

impl Ctx<'_> {
    /// Delay in ns of a datapath op; `None` for free ops.
    fn delay(&self, op: OpId) -> Option<f64> {
        match &self.f.op(op).kind {
            OpKind::Bin(..) | OpKind::Un(..) => self
                .selection
                .fu_of(op)
                .map(|fu| self.library.spec(fu).delay_ns),
            OpKind::Load { .. } | OpKind::Store { .. } => Some(self.library.memory_delay_ns),
            // Muxes are steering logic: modeled as free (their cost is in
            // the interconnect overhead), like phis/constants/IO.
            _ => None,
        }
    }
}

/// Schedules the operations of `block` under the given resources and
/// clock period.
///
/// # Errors
/// Returns [`SchedError::NoInstances`] when an op's unit has no allocated
/// instances, and [`SchedError::ClockTooShort`] when a single-cycle-class
/// op (memory access) exceeds the clock period.
pub fn schedule_block(
    f: &Function,
    block: BlockId,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> Result<OracleSchedule, SchedError> {
    let ops: Vec<OpId> = f.block(block).ops.clone();
    schedule_ops(
        f,
        &ops,
        &block_dependencies(f, block),
        library,
        selection,
        alloc,
        clk,
    )
}

/// Schedules an explicit op list with explicit dependencies. Used both for
/// whole blocks and for fused regions (if-converted loop bodies, rotation
/// candidates).
///
/// # Errors
/// See [`schedule_block`].
pub fn schedule_ops(
    f: &Function,
    ops: &[OpId],
    deps: &HashMap<OpId, Vec<OpId>>,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> Result<OracleSchedule, SchedError> {
    let cx = Ctx {
        f,
        library,
        selection,
        alloc,
    };

    // Priority: longest downstream chain in ns (critical-path first).
    let mut succs: HashMap<OpId, Vec<OpId>> = HashMap::new();
    for (&op, ds) in deps {
        for &d in ds {
            succs.entry(d).or_default().push(op);
        }
    }
    let mut priority: HashMap<OpId, f64> = HashMap::new();
    // Process in reverse topological (program) order: deps point backward,
    // so reverse program order works.
    for &op in ops.iter().rev() {
        let own = cx.delay(op).unwrap_or(0.0);
        let down = succs
            .get(&op)
            .map(|ss| {
                ss.iter()
                    .map(|s| priority.get(s).copied().unwrap_or(0.0))
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);
        priority.insert(op, own + down);
    }

    let mut remaining_deps: HashMap<OpId, usize> = ops
        .iter()
        .map(|&o| (o, deps.get(&o).map_or(0, Vec::len)))
        .collect();
    let mut ready: Vec<OpId> = ops
        .iter()
        .copied()
        .filter(|o| remaining_deps[o] == 0)
        .collect();
    let mut placement: HashMap<OpId, OpPlacement> = HashMap::new();
    let mut states: Vec<Vec<OpId>> = Vec::new();
    // Per-state resource usage: FU counts and memory-port usage.
    let mut fu_busy: Vec<HashMap<fact_sched::FuId, u32>> = Vec::new();
    let mut mem_busy: Vec<HashMap<MemId, u32>> = Vec::new();
    let mut scheduled = 0usize;
    let mut cur_state = 0usize;

    let ensure_state = |states: &mut Vec<Vec<OpId>>,
                        fu_busy: &mut Vec<HashMap<fact_sched::FuId, u32>>,
                        mem_busy: &mut Vec<HashMap<MemId, u32>>,
                        s: usize| {
        while states.len() <= s {
            states.push(Vec::new());
            fu_busy.push(HashMap::new());
            mem_busy.push(HashMap::new());
        }
    };

    while scheduled < ops.len() {
        // Sort ready ops by priority (desc), then id for determinism.
        ready.sort_by(|a, b| {
            priority[b]
                .partial_cmp(&priority[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });

        let mut placed_any = false;
        let mut next_ready: Vec<OpId> = Vec::new();

        for &op in &ready {
            // Earliest data-ready point considering placed deps.
            let mut ready_state = cur_state;
            let mut ready_ns: f64 = 0.0;
            let mut deps_placed = true;
            for &d in deps.get(&op).into_iter().flatten() {
                match placement.get(&d) {
                    Some(p) => {
                        let (ds, dn) = (p.end_state, p.ready_ns);
                        if ds > ready_state {
                            ready_state = ds;
                            ready_ns = dn;
                        } else if ds == ready_state {
                            ready_ns = ready_ns.max(dn);
                        }
                    }
                    None => {
                        deps_placed = false;
                        break;
                    }
                }
            }
            if !deps_placed {
                // Dep scheduled later in this same pass round; retry later.
                next_ready.push(op);
                continue;
            }
            if ready_state < cur_state {
                ready_state = cur_state;
                ready_ns = 0.0;
            } else if ready_state == cur_state {
                // keep ready_ns
            } else {
                // Not ready until a future state; defer.
                next_ready.push(op);
                continue;
            }

            match cx.delay(op) {
                None => {
                    // Free op: completes instantly at its ready point.
                    placement.insert(
                        op,
                        OpPlacement {
                            start_state: ready_state,
                            start_ns: ready_ns,
                            end_state: ready_state,
                            ready_ns,
                        },
                    );
                    // Free ops are recorded in the state they resolve in,
                    // if any states exist; they never create states.
                    scheduled += 1;
                    placed_any = true;
                    for s in succs.get(&op).into_iter().flatten() {
                        let r = remaining_deps.get_mut(s).unwrap();
                        *r -= 1;
                        if *r == 0 {
                            next_ready.push(*s);
                        }
                    }
                    continue;
                }
                Some(delay) => {
                    // Resource lookup.
                    enum Res {
                        Fu(fact_sched::FuId),
                        Mem(MemId),
                    }
                    let res = match &cx.f.op(op).kind {
                        OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => Res::Mem(*mem),
                        _ => {
                            let fu = cx.selection.fu_of(op).expect("datapath op has unit");
                            if cx.alloc.count(fu) == 0 {
                                return Err(SchedError::NoInstances {
                                    op,
                                    fu_name: cx.library.spec(fu).name.clone(),
                                });
                            }
                            Res::Fu(fu)
                        }
                    };
                    if matches!(res, Res::Mem(_)) && delay > clk {
                        return Err(SchedError::ClockTooShort { op });
                    }

                    // Multi-cycle span when the op alone exceeds the clock.
                    let span = (delay / clk).ceil().max(1.0) as usize;
                    let chainable = span == 1;

                    // Candidate start: the ready point, but multi-cycle ops
                    // and ops that no longer fit by chaining move to the
                    // next state boundary.
                    let (start_state, start_ns) = if chainable && ready_ns + delay <= clk + 1e-9 {
                        (ready_state, ready_ns)
                    } else {
                        (
                            if ready_ns > 1e-12 {
                                ready_state + 1
                            } else {
                                ready_state
                            },
                            0.0,
                        )
                    };
                    if start_state > cur_state {
                        next_ready.push(op);
                        continue;
                    }

                    // Resource availability over [start_state, +span).
                    ensure_state(
                        &mut states,
                        &mut fu_busy,
                        &mut mem_busy,
                        start_state + span - 1,
                    );
                    let available = (0..span).all(|k| match &res {
                        Res::Fu(fu) => {
                            fu_busy[start_state + k].get(fu).copied().unwrap_or(0)
                                < cx.alloc.count(*fu)
                        }
                        Res::Mem(m) => mem_busy[start_state + k].get(m).copied().unwrap_or(0) < 1,
                    });
                    if !available {
                        next_ready.push(op);
                        continue;
                    }
                    for k in 0..span {
                        match &res {
                            Res::Fu(fu) => *fu_busy[start_state + k].entry(*fu).or_insert(0) += 1,
                            Res::Mem(m) => *mem_busy[start_state + k].entry(*m).or_insert(0) += 1,
                        }
                    }
                    let (end_state, end_ns) = if span == 1 {
                        (start_state, start_ns + delay)
                    } else {
                        // Result usable from the start of the state after
                        // the span (no chaining out of multi-cycle ops).
                        (start_state + span - 1, clk)
                    };
                    states[start_state].push(op);
                    placement.insert(
                        op,
                        OpPlacement {
                            start_state,
                            start_ns,
                            end_state,
                            ready_ns: if end_ns >= clk - 1e-9 { 0.0 } else { end_ns },
                        },
                    );
                    // Results landing exactly at the clock edge are
                    // consumed from a register at the start of the next
                    // state.
                    if end_ns >= clk - 1e-9 {
                        let p = placement.get_mut(&op).unwrap();
                        p.end_state += 1;
                        p.ready_ns = 0.0;
                    }
                    scheduled += 1;
                    placed_any = true;
                    for s in succs.get(&op).into_iter().flatten() {
                        let r = remaining_deps.get_mut(s).unwrap();
                        *r -= 1;
                        if *r == 0 {
                            next_ready.push(*s);
                        }
                    }
                }
            }
        }

        // Collect still-unplaced ready ops.
        for &op in &ready {
            if !placement.contains_key(&op) && !next_ready.contains(&op) {
                next_ready.push(op);
            }
        }
        ready = next_ready;
        ready.retain(|o| !placement.contains_key(o));

        if !placed_any {
            // Nothing placed this round: advance the cycle.
            cur_state += 1;
            ensure_state(&mut states, &mut fu_busy, &mut mem_busy, cur_state);
        }
    }

    // Trim trailing states with neither issued ops nor live resource
    // reservations (multi-cycle spans keep their tail states).
    while !states.is_empty() {
        let last = states.len() - 1;
        let busy = !states[last].is_empty()
            || fu_busy[last].values().any(|&c| c > 0)
            || mem_busy[last].values().any(|&c| c > 0);
        if busy {
            break;
        }
        states.pop();
        fu_busy.pop();
        mem_busy.pop();
    }

    Ok(OracleSchedule { states, placement })
}
