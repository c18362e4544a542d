//! Resource-constrained list scheduling of one basic block, with operator
//! chaining under a clock-period constraint and multi-cycle operations.
//!
//! This is the innermost engine of the scheduler: each basic block is
//! compiled into a sequence of states (cycles). Within a state, operations
//! chain — an operation may start as soon as its same-state operands
//! finish, provided the chain fits in the clock period (the paper's
//! Example 1 schedules `++1` (13ns) chained with `<1` (12ns) in one 25ns
//! state). Operations slower than the clock occupy multiple consecutive
//! states on their functional unit.

use crate::resources::{Allocation, FuId, FuLibrary, FuSelection};
use fact_ir::{BlockId, Function, OpId, OpKind};

/// The schedule of one basic block, with ops named by their position in
/// the block's op list (`f.block(b).ops`). Position naming makes one
/// schedule serve every structurally identical block, so the memo
/// ([`crate::memo`]) stores and returns it unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlockSchedule {
    /// Block positions of the operations *starting* in each state, in
    /// issue order.
    pub states: Vec<Vec<u32>>,
    /// Where each op landed, by block position (free ops included, so
    /// `placement.len()` is the block's op count).
    pub placement: Vec<OpPlacement>,
}

/// Where one operation landed in the block schedule.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct OpPlacement {
    /// State in which the op starts.
    pub start_state: usize,
    /// Start offset within the start state, in ns.
    pub start_ns: f64,
    /// State in which the op's result becomes available.
    pub end_state: usize,
    /// Offset within `end_state` at which the result is ready, in ns. A
    /// value of 0 means "ready at the start of `end_state`" (multi-cycle
    /// results and results from earlier states).
    pub ready_ns: f64,
}

impl BlockSchedule {
    /// Number of states (cycles) the block occupies.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the block needs no cycles (only free operations).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// Scheduling error.
#[derive(Clone, PartialEq, Debug)]
pub enum SchedError {
    /// An operation's unit has zero allocated instances.
    NoInstances {
        /// The unschedulable op.
        op: OpId,
        /// Name of the starved unit type.
        fu_name: String,
    },
    /// An operation cannot fit in the clock period even alone.
    ClockTooShort {
        /// The offending op.
        op: OpId,
    },
}

impl SchedError {
    /// The op the error names.
    pub(crate) fn op(&self) -> OpId {
        match self {
            SchedError::NoInstances { op, .. } | SchedError::ClockTooShort { op } => *op,
        }
    }

    /// The same error naming `op` instead.
    pub(crate) fn renamed(self, op: OpId) -> SchedError {
        match self {
            SchedError::NoInstances { fu_name, .. } => SchedError::NoInstances { op, fu_name },
            SchedError::ClockTooShort { .. } => SchedError::ClockTooShort { op },
        }
    }
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoInstances { op, fu_name } => {
                write!(f, "op {op} needs unit `{fu_name}` but none are allocated")
            }
            SchedError::ClockTooShort { op } => {
                write!(f, "op {op} does not fit in the clock period")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Block positions by `OpId`, over the window of ids the block spans.
/// Block ops are usually allocated close together, so the window is
/// small; it replaces a per-block hash map.
pub(crate) struct PosMap {
    base: usize,
    slots: Vec<u32>,
}

impl PosMap {
    const ABSENT: u32 = u32::MAX;

    pub(crate) fn new(ops: &[OpId]) -> Self {
        let lo = ops.iter().map(|o| o.index()).min().unwrap_or(0);
        let hi = ops.iter().map(|o| o.index()).max().unwrap_or(0);
        let mut slots = vec![Self::ABSENT; if ops.is_empty() { 0 } else { hi - lo + 1 }];
        for (i, o) in ops.iter().enumerate() {
            slots[o.index() - lo] = i as u32;
        }
        PosMap { base: lo, slots }
    }

    /// The block position of `op`, if it is in the block.
    pub(crate) fn get(&self, op: OpId) -> Option<u32> {
        let p = *self.slots.get(op.index().wrapping_sub(self.base))?;
        (p != Self::ABSENT).then_some(p)
    }

    /// Block positions in ascending `OpId` order.
    pub(crate) fn by_id(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied().filter(|&p| p != Self::ABSENT)
    }
}

/// Intra-block dependencies as a compact adjacency list over block
/// positions: `of(i)` lists the positions op `i` must follow.
pub struct BlockDeps {
    start: Vec<u32>,
    edges: Vec<u32>,
}

impl BlockDeps {
    /// The positions op `i` depends on (all earlier than `i`).
    pub fn of(&self, i: usize) -> &[u32] {
        &self.edges[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Number of ops covered.
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the block has no ops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The reverse lists: for each position, the positions depending on it.
    fn succs(&self) -> BlockDeps {
        let n = self.len();
        let mut start = vec![0u32; n + 1];
        for &d in &self.edges {
            start[d as usize + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut edges = vec![0u32; self.edges.len()];
        for i in 0..n {
            for &d in self.of(i) {
                edges[fill[d as usize] as usize] = i as u32;
                fill[d as usize] += 1;
            }
        }
        BlockDeps { start, edges }
    }
}

/// Returns the intra-block dependency lists: for each op in the block, the
/// positions of the ops (also in the block) it must follow.
///
/// Includes data dependencies and memory/output ordering: a store depends
/// on every earlier access to the same memory; a load depends on the
/// latest earlier store to the same memory; outputs stay in program order
/// relative to each other (the output stream is observable).
pub fn block_dependencies(f: &Function, block: BlockId) -> BlockDeps {
    let ops = &f.block(block).ops;
    dependencies(f, ops, &PosMap::new(ops))
}

fn dependencies(f: &Function, ops: &[OpId], pos: &PosMap) -> BlockDeps {
    let mut start = Vec::with_capacity(ops.len() + 1);
    let mut edges: Vec<u32> = Vec::new();
    let mut last_store: Vec<Option<u32>> = Vec::new();
    let mut accesses_since_store: Vec<Vec<u32>> = Vec::new();
    let mut last_output: Option<u32> = None;
    let mut operands = Vec::new();
    let mut d: Vec<u32> = Vec::new();
    start.push(0);
    for (i, &op) in ops.iter().enumerate() {
        let kind = &f.op(op).kind;
        operands.clear();
        kind.operands_into(&mut operands);
        d.clear();
        d.extend(
            operands
                .iter()
                .filter_map(|&v| pos.get(v))
                .filter(|&p| (p as usize) < i),
        );
        match kind {
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => {
                let m = mem.index();
                if m >= last_store.len() {
                    last_store.resize(m + 1, None);
                    accesses_since_store.resize(m + 1, Vec::new());
                }
                d.extend(last_store[m]);
                if matches!(kind, OpKind::Store { .. }) {
                    d.append(&mut accesses_since_store[m]);
                    last_store[m] = Some(i as u32);
                } else {
                    accesses_since_store[m].push(i as u32);
                }
            }
            OpKind::Output(..) => {
                d.extend(last_output);
                last_output = Some(i as u32);
            }
            _ => {}
        }
        d.sort_unstable();
        d.dedup();
        edges.extend_from_slice(&d);
        start.push(edges.len() as u32);
    }
    BlockDeps { start, edges }
}

/// How an op occupies the datapath.
#[derive(Clone, Copy)]
enum Res {
    /// Steering logic, phis, constants and IO: completes instantly.
    Free,
    /// A functional unit with `cap` allocated instances.
    Fu { fu: usize, cap: u32 },
    /// A memory port (one access per state).
    Mem(usize),
}

/// Per-state occupancy of functional units and memory ports, as flat
/// `states × units` arrays.
struct Occupancy {
    fus: usize,
    mems: usize,
    fu_busy: Vec<u32>,
    mem_busy: Vec<u32>,
}

impl Occupancy {
    fn count(&mut self, res: Res, state: usize) -> &mut u32 {
        match res {
            Res::Fu { fu, .. } => &mut self.fu_busy[state * self.fus + fu],
            Res::Mem(m) => &mut self.mem_busy[state * self.mems + m],
            Res::Free => unreachable!("free ops occupy nothing"),
        }
    }

    fn idle(&self, state: usize) -> bool {
        self.fu_busy[state * self.fus..(state + 1) * self.fus]
            .iter()
            .chain(&self.mem_busy[state * self.mems..(state + 1) * self.mems])
            .all(|&c| c == 0)
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
) -> Result<BlockSchedule, SchedError> {
    let ops = &f.block(block).ops;
    schedule_indexed(f, ops, &PosMap::new(ops), library, selection, alloc, clk)
}

/// [`schedule_block`] over the block's op list and its position map.
pub(crate) fn schedule_indexed(
    f: &Function,
    ops: &[OpId],
    pos: &PosMap,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> Result<BlockSchedule, SchedError> {
    let n = ops.len();
    let deps = dependencies(f, ops, pos);
    let succs = deps.succs();

    // Each op's resource and delay (0 for free ops). A datapath op with
    // no selected unit is free, like muxes (steering logic, costed in the
    // interconnect overhead), phis, constants and IO.
    let mut mems = 0;
    let (res, delay): (Vec<Res>, Vec<f64>) = ops
        .iter()
        .map(|&op| match &f.op(op).kind {
            OpKind::Bin(..) | OpKind::Un(..) => match selection.fu_of(op) {
                Some(fu) => (
                    Res::Fu {
                        fu: fu.0 as usize,
                        cap: alloc.count(fu),
                    },
                    library.spec(fu).delay_ns,
                ),
                None => (Res::Free, 0.0),
            },
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => {
                mems = mems.max(mem.index() + 1);
                (Res::Mem(mem.index()), library.memory_delay_ns)
            }
            _ => (Res::Free, 0.0),
        })
        .unzip();

    // Priority: longest downstream chain in ns (critical-path first).
    // Dependencies point backward, so reverse program order is a reverse
    // topological order.
    let mut priority = vec![0.0f64; n];
    for i in (0..n).rev() {
        let down = succs
            .of(i)
            .iter()
            .map(|&s| priority[s as usize])
            .fold(0.0, f64::max);
        priority[i] = delay[i] + down;
    }

    let mut remaining: Vec<u32> = (0..n).map(|i| deps.of(i).len() as u32).collect();
    let mut ready: Vec<u32> = (0..n as u32)
        .filter(|&i| remaining[i as usize] == 0)
        .collect();
    let mut next: Vec<u32> = Vec::new();
    let mut placement = vec![OpPlacement::default(); n];
    let mut states: Vec<Vec<u32>> = Vec::new();
    let mut busy = Occupancy {
        fus: library.len(),
        mems,
        fu_busy: Vec::new(),
        mem_busy: Vec::new(),
    };
    let ensure_state = |states: &mut Vec<Vec<u32>>, busy: &mut Occupancy, s: usize| {
        if states.len() <= s {
            states.resize_with(s + 1, Vec::new);
            busy.fu_busy.resize((s + 1) * busy.fus, 0);
            busy.mem_busy.resize((s + 1) * busy.mems, 0);
        }
    };
    let mut scheduled = 0usize;
    let mut cur_state = 0usize;

    // Rounds: every ready op is either placed or carried to the next
    // round, so `next` never holds an op twice.
    while scheduled < n {
        // Sort ready ops by priority (desc), then raw id for determinism.
        ready.sort_by(|&a, &b| {
            priority[b as usize]
                .partial_cmp(&priority[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(ops[a as usize].cmp(&ops[b as usize]))
        });

        let mut placed_any = false;
        next.clear();
        for &i in &ready {
            let iu = i as usize;
            // Earliest data-ready point; every dependency is placed, or
            // the op would not be ready.
            let mut ready_state = cur_state;
            let mut ready_ns: f64 = 0.0;
            for &d in deps.of(iu) {
                let p = &placement[d as usize];
                if p.end_state > ready_state {
                    ready_state = p.end_state;
                    ready_ns = p.ready_ns;
                } else if p.end_state == ready_state {
                    ready_ns = ready_ns.max(p.ready_ns);
                }
            }
            if ready_state > cur_state {
                // Not ready until a future state; defer.
                next.push(i);
                continue;
            }

            if let Res::Free = res[iu] {
                // Free op: completes instantly at its ready point and
                // never creates states.
                placement[iu] = OpPlacement {
                    start_state: ready_state,
                    start_ns: ready_ns,
                    end_state: ready_state,
                    ready_ns,
                };
            } else {
                let delay = delay[iu];
                match res[iu] {
                    Res::Fu { fu, cap: 0 } => {
                        return Err(SchedError::NoInstances {
                            op: ops[iu],
                            fu_name: library.spec(FuId(fu as u32)).name.clone(),
                        });
                    }
                    Res::Mem(_) if delay > clk => {
                        return Err(SchedError::ClockTooShort { op: ops[iu] });
                    }
                    _ => {}
                }

                // Multi-cycle span when the op alone exceeds the clock.
                let span = (delay / clk).ceil().max(1.0) as usize;
                let chainable = span == 1;

                // Candidate start: the ready point, but multi-cycle ops and
                // ops that no longer fit by chaining move to the next state
                // boundary.
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
                    next.push(i);
                    continue;
                }

                // Resource availability over [start_state, +span).
                ensure_state(&mut states, &mut busy, start_state + span - 1);
                let cap = match res[iu] {
                    Res::Fu { cap, .. } => cap,
                    _ => 1,
                };
                if (0..span).any(|k| *busy.count(res[iu], start_state + k) >= cap) {
                    next.push(i);
                    continue;
                }
                for k in 0..span {
                    *busy.count(res[iu], start_state + k) += 1;
                }
                // Multi-cycle results are usable from the start of the state
                // after the span (no chaining out of multi-cycle ops).
                let (end_state, end_ns) = if span == 1 {
                    (start_state, start_ns + delay)
                } else {
                    (start_state + span - 1, clk)
                };
                states[start_state].push(i);
                // Results landing exactly at the clock edge are consumed
                // from a register at the start of the next state.
                let edge = end_ns >= clk - 1e-9;
                placement[iu] = OpPlacement {
                    start_state,
                    start_ns,
                    end_state: end_state + usize::from(edge),
                    ready_ns: if edge { 0.0 } else { end_ns },
                };
            }
            scheduled += 1;
            placed_any = true;
            for &s in succs.of(iu) {
                let r = &mut remaining[s as usize];
                *r -= 1;
                if *r == 0 {
                    next.push(s);
                }
            }
        }
        std::mem::swap(&mut ready, &mut next);

        if !placed_any {
            // Nothing placed this round: advance the cycle.
            cur_state += 1;
            ensure_state(&mut states, &mut busy, cur_state);
        }
    }

    // Trim trailing states with neither issued ops nor live resource
    // reservations (multi-cycle spans keep their tail states).
    while let Some(last) = states.len().checked_sub(1) {
        if !states[last].is_empty() || !busy.idle(last) {
            break;
        }
        states.pop();
    }

    Ok(BlockSchedule { states, placement })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{FuSpec, SelectionRules};
    use fact_lang::compile;

    /// §5 library subset: add 10ns, sub 10ns, mul 23ns, cmp 10ns, incr 5ns.
    fn setup(src: &str) -> (Function, FuLibrary, FuSelection) {
        let f = compile(src).unwrap();
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        let add = lib.add(FuSpec {
            name: "a1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let sub = lib.add(FuSpec {
            name: "sb1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let mul = lib.add(FuSpec {
            name: "mt1".into(),
            energy_coeff: 2.3,
            delay_ns: 23.0,
            area: 3.9,
        });
        let cmp = lib.add(FuSpec {
            name: "cp1".into(),
            energy_coeff: 1.1,
            delay_ns: 10.0,
            area: 1.3,
        });
        let incr = lib.add(FuSpec {
            name: "i1".into(),
            energy_coeff: 0.7,
            delay_ns: 5.0,
            area: 1.1,
        });
        let rules = SelectionRules {
            add: Some(add),
            sub: Some(sub),
            mul: Some(mul),
            cmp: Some(cmp),
            eq: Some(cmp),
            incr: Some(incr),
            ..Default::default()
        };
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        (f, lib, sel)
    }

    fn alloc(lib: &FuLibrary, pairs: &[(&str, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for (name, n) in pairs {
            a.set(lib.by_name(name).unwrap(), *n);
        }
        a
    }

    #[test]
    fn chains_two_adds_in_one_state() {
        // 10 + 10 = 20ns <= 25ns: one state.
        let (f, lib, sel) = setup("proc f(a, b, c) { out y = a + b + c; }");
        let a = alloc(&lib, &[("a1", 2)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn chain_breaks_on_clock() {
        // Three chained adds = 30ns > 25ns: two states.
        let (f, lib, sel) = setup("proc f(a, b, c, d) { out y = a + b + c + d; }");
        let a = alloc(&lib, &[("a1", 3)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn resource_contention_serializes() {
        // Two independent adds, one adder: two states (no chain possible
        // since same FU instance busy... chaining uses different ops).
        let (f, lib, sel) = setup("proc f(a, b, c, d) { out y = a + b; out z = c + d; }");
        let one = alloc(&lib, &[("a1", 1)]);
        let s1 = schedule_block(&f, f.entry(), &lib, &sel, &one, 25.0).unwrap();
        // One adder: both adds can still fit in one 25ns state? No — one
        // instance can do one op per state; chaining reuses *different*
        // units. So 2 states.
        assert_eq!(s1.len(), 2);
        let two = alloc(&lib, &[("a1", 2)]);
        let s2 = schedule_block(&f, f.entry(), &lib, &sel, &two, 25.0).unwrap();
        assert_eq!(s2.len(), 1);
    }

    #[test]
    fn multiplier_fits_in_25ns() {
        let (f, lib, sel) = setup("proc f(a, b) { out y = a * b; }");
        let a = alloc(&lib, &[("mt1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn multicycle_op_spans_states() {
        // 23ns multiplier with a 15ns clock: 2-cycle op.
        let (f, lib, sel) = setup("proc f(a, b) { out y = a * b; }");
        let a = alloc(&lib, &[("mt1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 15.0).unwrap();
        assert_eq!(s.len(), 2);
        let mul = f
            .block(f.entry())
            .ops
            .iter()
            .position(|&op| matches!(f.op(op).kind, OpKind::Bin(fact_ir::BinOp::Mul, ..)))
            .unwrap();
        let p = s.placement[mul];
        assert_eq!(p.start_state, 0);
        assert_eq!(p.end_state, 2); // ready at start of state 2 (post-span)
    }

    #[test]
    fn add_then_mul_cannot_chain_in_25ns() {
        // 10 + 23 = 33 > 25: mul starts next state.
        let (f, lib, sel) = setup("proc f(a, b) { out y = (a + b) * b; }");
        let a = alloc(&lib, &[("a1", 1), ("mt1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn incr_chains_with_compare_like_figure_1c() {
        // Incrementer 5ns + comparator 10ns = 15 <= 25: single state, the
        // paper's S5 chaining.
        let (f, lib, sel) = setup("proc f(i, c) { out y = (i + 1) < c; }");
        let a = alloc(&lib, &[("i1", 1), ("cp1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn memory_port_limits_one_access_per_cycle() {
        let (f, lib, sel) = setup("proc f(i) { array x[8]; out y = x[i] + x[i + 1]; }");
        let a = alloc(&lib, &[("a1", 1), ("i1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        // Two loads of the same memory cannot share a cycle.
        assert!(s.len() >= 2, "got {} states", s.len());
    }

    #[test]
    fn distinct_memories_access_in_parallel() {
        let (f, lib, sel) = setup("proc f(i) { array x[8]; array y[8]; out o = x[i] + y[i]; }");
        let a = alloc(&lib, &[("a1", 1)]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        // Loads in cycle 0 (15ns, no chain into add: 15+10=25 <= 25 fits!)
        // so this can be a single state.
        assert!(s.len() <= 2);
    }

    #[test]
    fn store_load_ordering_is_respected() {
        let (f, lib, sel) = setup("proc f(i, v) { array x[8]; x[i] = v; out y = x[i]; }");
        let a = alloc(&lib, &[]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        let ops = &f.block(f.entry()).ops;
        let store = ops
            .iter()
            .position(|&op| matches!(f.op(op).kind, OpKind::Store { .. }))
            .unwrap();
        let load = ops
            .iter()
            .position(|&op| matches!(f.op(op).kind, OpKind::Load { .. }))
            .unwrap();
        assert!(s.placement[store].start_state < s.placement[load].start_state);
    }

    #[test]
    fn zero_allocation_is_an_error() {
        let (f, lib, sel) = setup("proc f(a) { out y = a + a; }");
        let a = alloc(&lib, &[("mt1", 1)]); // no adders
        let err = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap_err();
        assert!(matches!(err, SchedError::NoInstances { .. }));
    }

    #[test]
    fn free_only_block_is_empty() {
        let (f, lib, sel) = setup("proc f(a) { out y = a; }");
        let a = alloc(&lib, &[]);
        let s = schedule_block(&f, f.entry(), &lib, &sel, &a, 25.0).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn dependencies_include_memory_ordering() {
        let f = compile("proc f(i, v) { array x[8]; x[i] = v; x[i] = v + 1; }").unwrap();
        let deps = block_dependencies(&f, f.entry());
        let stores: Vec<u32> = (0..deps.len() as u32)
            .filter(|&i| {
                matches!(
                    f.op(f.block(f.entry()).ops[i as usize]).kind,
                    OpKind::Store { .. }
                )
            })
            .collect();
        assert_eq!(stores.len(), 2);
        assert!(deps.of(stores[1] as usize).contains(&stores[0]));
    }
}
