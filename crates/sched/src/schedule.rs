//! The scheduler driver: CDFG → STG (paper Figure 5, step 1; rescheduling
//! in steps 5–6).
//!
//! Combines the per-block list scheduler with the Wavesched-class loop
//! optimizations: if-conversion, loop-kernel pipelining, implicit
//! unrolling (header rotation into the latch state, Figure 1(c)), and
//! concurrent loop phases (Figure 2(b)).
//!
//! Scheduling runs in two halves (DESIGN §10.6). [`SchedulePlan::build`]
//! does everything that depends on the design alone — if-conversion,
//! unit binding, loops, block list schedules, kernel analysis and header
//! rotation — and [`SchedulePlan::weight`] brings in a trace's
//! [`BranchProfile`]: which kernels pay off, which loops run as
//! concurrent phases, and the STG with its probabilities and visits. One
//! plan serves every profile of its design.

use crate::ifconv::if_convert;
use crate::listsched::{schedule_block, BlockSchedule, SchedError};
use crate::memo::ScheduleMemo;
use crate::parloops::{plan_phases, LoopRate, Phase};
use crate::pipeline::{analyze_kernel, geometric_iters, ResKey};
use crate::resources::{Allocation, FuId, FuLibrary, FuSelection, SelectionError, SelectionRules};
use crate::stg::{ScheduledOp, StateId, Stg};
use fact_ir::{BlockId, DomTree, Function, LoopForest, NaturalLoop, OpId, OpKind, Terminator};
use fact_sim::BranchProfile;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedOptions {
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Convert side-effect-free diamonds to muxes (enables pipelining
    /// across `if` constructs).
    pub if_convert: bool,
    /// Fold next-iteration header operations into latch states (implicit
    /// loop unrolling, Figure 1(c) state `S5`).
    pub rotate: bool,
    /// Pipeline branch-free innermost loops at their initiation interval.
    pub pipeline: bool,
    /// Execute independent sibling loops concurrently (Figure 2(b)).
    pub concurrent: bool,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            clock_ns: 25.0,
            if_convert: true,
            rotate: true,
            pipeline: true,
            concurrent: true,
        }
    }
}

/// What the scheduler did, for reports and tests.
#[derive(Clone, Debug, Default)]
pub struct ScheduleReport {
    /// Diamonds if-converted.
    pub if_converted: usize,
    /// Loops whose headers were rotated into their latches, with the
    /// states saved per iteration.
    pub rotations: Vec<(BlockId, usize)>,
    /// Pipelined loops as `(header, II)`.
    pub kernels: Vec<(BlockId, u32)>,
    /// Number of concurrent-loop groups formed.
    pub concurrent_groups: usize,
    /// Blocks whose list schedule was spliced from a [`ScheduleMemo`]
    /// when the plan was built (zero when it was built without a memo).
    pub memo_hits: usize,
    /// Blocks list-scheduled from scratch when the plan was built.
    pub memo_misses: usize,
}

/// A complete scheduling result.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// The state transition graph.
    pub stg: Stg,
    /// The (possibly if-converted) function the STG refers to.
    pub function: Function,
    /// Functional-unit binding for `function`, shared with the
    /// [`SchedulePlan`] it was weighted from.
    pub selection: Arc<FuSelection>,
    /// What happened.
    pub report: ScheduleReport,
}

/// Scheduler failure.
#[derive(Clone, Debug)]
pub enum ScheduleError {
    /// Operation binding failed.
    Selection(SelectionError),
    /// Block scheduling failed.
    Sched(SchedError),
    /// The produced STG failed validation (internal error).
    Internal(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Selection(e) => write!(f, "{e}"),
            ScheduleError::Sched(e) => write!(f, "{e}"),
            ScheduleError::Internal(m) => write!(f, "internal scheduler error: {m}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl From<SelectionError> for ScheduleError {
    fn from(e: SelectionError) -> Self {
        ScheduleError::Selection(e)
    }
}

impl From<SchedError> for ScheduleError {
    fn from(e: SchedError) -> Self {
        ScheduleError::Sched(e)
    }
}

/// Per-iteration execution frequency of each body block of `l`, derived
/// from branch probabilities (header = 1.0; acyclic propagation within the
/// body).
fn block_freq_in_loop(
    f: &Function,
    l: &PlannedLoop,
    profile: &BranchProfile,
    rpo_pos: &[usize],
) -> HashMap<BlockId, f64> {
    let mut blocks: Vec<BlockId> = l.body.to_vec();
    blocks.sort_by_key(|b| rpo_pos[b.index()]);
    let mut freq: HashMap<BlockId, f64> = HashMap::new();
    freq.insert(l.header, 1.0);
    for &b in &blocks {
        let fb = freq.get(&b).copied().unwrap_or(0.0);
        if fb == 0.0 {
            continue;
        }
        let edges: Vec<(BlockId, f64)> = match &f.block(b).term {
            Terminator::Jump(t) => vec![(*t, 1.0)],
            Terminator::Branch {
                on_true, on_false, ..
            } => {
                let p = profile.prob_true(b);
                vec![(*on_true, p), (*on_false, 1.0 - p)]
            }
            Terminator::Return(_) => vec![],
        };
        for (succ, p) in edges {
            if succ != l.header && l.contains(succ) {
                *freq.entry(succ).or_insert(0.0) += fb * p;
            }
        }
    }
    freq
}

/// The in-loop and out-of-loop successors of `l`'s header test, and
/// whether the in-loop one is taken on `true`, if the header ends in a
/// branch with exactly one in-loop target. Depends on the graph alone.
fn header_test(f: &Function, l: &PlannedLoop) -> Option<(BlockId, BlockId, bool)> {
    if let Terminator::Branch {
        on_true, on_false, ..
    } = f.block(l.header).term
    {
        match (l.contains(on_true), l.contains(on_false)) {
            (true, false) => Some((on_true, on_false, true)),
            (false, true) => Some((on_false, on_true, false)),
            _ => None,
        }
    } else {
        None
    }
}

/// The probability of continuing the loop at its header test, and the
/// in-loop / out-of-loop successors (see [`header_test`]).
fn header_continue(
    f: &Function,
    l: &PlannedLoop,
    profile: &BranchProfile,
) -> Option<(f64, BlockId, BlockId)> {
    let (body, exit, stay_on_true) = header_test(f, l)?;
    let p = profile.prob_true(l.header);
    Some((if stay_on_true { p } else { 1.0 - p }, body, exit))
}

/// Empirical expected iterations of a loop: profiled visits of the body
/// target divided by loop entries (header visits minus iterations). Falls
/// back to `None` when visit counts were not profiled.
fn empirical_iters(prof: &BranchProfile, header: BlockId, body_target: BlockId) -> Option<f64> {
    let vb = prof.block_visits(body_target)?;
    let vh = prof.block_visits(header)?;
    let entries = (vh - vb).max(1e-9);
    Some((vb / entries).max(0.0))
}

/// Identification of a resolved transition target.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Target {
    State(StateId),
    Done,
}

/// What covers a block in the STG besides its own chain of states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Cover {
    Kernel(usize),
    Group(usize),
}

struct GroupInfo {
    /// Blocks covered by this group (loop bodies + glue).
    blocks: HashSet<BlockId>,
    /// Loop rate models, in program order.
    rates: Vec<LoopRate>,
    /// Planned phases.
    phases: Vec<Phase>,
    /// Where control goes after the last loop finishes.
    exit: BlockId,
    /// Executions of the whole group per run (outer-loop nesting).
    entries: f64,
}

/// A loop as weighting reads it: a [`NaturalLoop`]'s header, body and
/// exits, the body a sorted slice rather than a tree.
struct PlannedLoop {
    header: BlockId,
    /// Every block of the loop, the header included, in block order.
    body: Box<[BlockId]>,
    /// Edges leaving the loop as `(from_inside, to_outside)` pairs.
    exits: Box<[(BlockId, BlockId)]>,
}

impl PlannedLoop {
    fn of(l: &NaturalLoop) -> PlannedLoop {
        PlannedLoop {
            header: l.header,
            body: l.body.iter().copied().collect(),
            exits: l.exits.as_slice().into(),
        }
    }

    fn contains(&self, b: BlockId) -> bool {
        self.body.binary_search(&b).is_ok()
    }
}

/// An innermost loop's kernel, kept by a [`SchedulePlan`]: the parts
/// of its [`LoopKernel`](crate::pipeline::LoopKernel) the STG reads.
struct PlannedKernel {
    /// Index of the loop in the plan's `loops`.
    l: usize,
    ii: u32,
    rec_mii: u32,
    /// The body's datapath ops, in body order: the kernel state's ops.
    datapath_ops: Box<[OpId]>,
    body_target: BlockId,
    exit_target: BlockId,
}

/// A loop whose header ops fit into its latch's final state, kept by a
/// [`SchedulePlan`]; whether it is rotated depends on the profile (a
/// kernel or concurrent group may cover it).
struct PlannedRotation {
    /// Index of the loop in the plan's `loops`.
    l: usize,
    latch: BlockId,
    /// The header's datapath ops, folded into the latch as next-iteration
    /// copies.
    rotated_ops: Box<[OpId]>,
}

/// The states of every block's list schedule, flattened: of a
/// [`BlockSchedule`], weighting reads only which ops issue in each state.
/// A block schedule also places every op (32 bytes an op), so holding
/// this instead of the memo's `Arc`s keeps plans small.
struct PlannedStates {
    /// The block positions issued, state after state.
    issued: Box<[u32]>,
    /// Where each state's run in `issued` ends.
    ends: Box<[u32]>,
    /// Each block's states, as a range of `ends`, by block index (empty
    /// for a block that is unreachable or takes no cycles).
    of_block: Box<[(u32, u32)]>,
}

impl PlannedStates {
    /// Flattens `blocks`, indexed by block.
    fn new(blocks: &[Option<Arc<BlockSchedule>>]) -> PlannedStates {
        let (mut issued, mut ends, mut of_block) = (Vec::new(), Vec::new(), Vec::new());
        for bs in blocks {
            let first = ends.len() as u32;
            for state in bs.iter().flat_map(|bs| &bs.states) {
                issued.extend_from_slice(state);
                ends.push(issued.len() as u32);
            }
            of_block.push((first, ends.len() as u32));
        }
        PlannedStates {
            issued: issued.into(),
            ends: ends.into(),
            of_block: of_block.into(),
        }
    }

    /// How many states block `b` takes.
    fn len(&self, b: BlockId) -> usize {
        let (first, end) = self.of_block[b.index()];
        (end - first) as usize
    }

    /// The block positions issued in each of block `b`'s states.
    fn of(&self, b: BlockId) -> impl Iterator<Item = &[u32]> {
        let (first, end) = self.of_block[b.index()];
        (first..end).map(move |s| {
            let start = match s {
                0 => 0,
                _ => self.ends[s as usize - 1],
            };
            &self.issued[start as usize..self.ends[s as usize] as usize]
        })
    }
}

/// The profile-independent half of scheduling one design: everything
/// [`schedule`] computes from the function, library, rules, allocation
/// and options alone (DESIGN §10.6). [`SchedulePlan::weight`] turns it
/// into the STG for one branch profile; a plan weighted under any
/// profile gives, bit for bit, what [`schedule`] gives under it.
///
/// A plan is small: it keeps no copy of the design (weighting is given
/// the function again), and of the block schedules, the binding and the
/// loop analyses only what weighting reads.
pub struct SchedulePlan {
    /// The binding of the if-converted function's ops.
    selection: Arc<FuSelection>,
    /// If-conversion's branch moves: `(new owner, original block)`.
    moved: Box<[(BlockId, BlockId)]>,
    if_converted: usize,
    /// The allocation's count of every unit of the library, by unit.
    unit_counts: Box<[u32]>,
    opts: SchedOptions,
    rpo: Box<[BlockId]>,
    /// The loop forest's loops, in its order.
    loops: Box<[PlannedLoop]>,
    /// Indices of the innermost loops in `loops`, in order.
    innermost: Box<[usize]>,
    /// Every block's list schedule, states only.
    states: PlannedStates,
    /// Pipelinable innermost loops, in order (empty unless
    /// `opts.pipeline`).
    kernels: Box<[PlannedKernel]>,
    /// Rotatable loops, in order (empty unless `opts.rotate`).
    rotations: Box<[PlannedRotation]>,
    memo_hits: usize,
    memo_misses: usize,
}

impl fmt::Debug for SchedulePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchedulePlan")
            .field("blocks", &self.rpo.len())
            .field("kernels", &self.kernels.len())
            .field("rotations", &self.rotations.len())
            .finish()
    }
}

impl SchedulePlan {
    /// Plans `f`: if-conversion, binding, loops, every block's list
    /// schedule (through `memo` when given), the kernel analysis of each
    /// innermost loop and the rotation of each loop that admits one.
    ///
    /// # Errors
    /// Returns [`ScheduleError`] on binding failures or unschedulable
    /// blocks.
    pub fn build(
        f: &Function,
        library: &FuLibrary,
        rules: &SelectionRules,
        alloc: &Allocation,
        opts: &SchedOptions,
        memo: Option<&ScheduleMemo>,
    ) -> Result<SchedulePlan, ScheduleError> {
        let mut work = f.clone();
        let (mut moved, mut if_converted) = (Vec::new(), 0);
        if opts.if_convert {
            let r = if_convert(&mut work);
            if_converted = r.converted;
            moved = r.branch_moved_from.into_iter().collect();
        }

        let selection = FuSelection::from_rules(&work, rules)?;
        let dom = DomTree::compute(&work);
        let forest = LoopForest::compute(&work, &dom);
        let rpo: Box<[BlockId]> = dom.rpo().into();

        // Per-block schedules, spliced from the memo where available.
        let (mut memo_hits, mut memo_misses) = (0, 0);
        let mut blocks: Vec<Option<Arc<BlockSchedule>>> = vec![None; work.num_blocks()];
        for &b in rpo.iter() {
            let bs = match memo {
                Some(m) => {
                    let (outcome, hit) = m.schedule_block_memoized(
                        &work,
                        b,
                        library,
                        &selection,
                        alloc,
                        opts.clock_ns,
                    );
                    if hit {
                        memo_hits += 1;
                    } else {
                        memo_misses += 1;
                    }
                    outcome?
                }
                None => {
                    memo_misses += 1;
                    let bs = schedule_block(&work, b, library, &selection, alloc, opts.clock_ns)?;
                    Arc::new(bs)
                }
            };
            blocks[b.index()] = Some(bs);
        }

        let all = forest.loops();
        let shapes: Vec<PlannedLoop> = all.iter().map(PlannedLoop::of).collect();
        let innermost: Vec<bool> = all
            .iter()
            .map(|l| {
                all.iter()
                    .all(|m| m.header == l.header || !l.contains(m.header))
            })
            .collect();

        // Kernel analysis for innermost loops with a header test.
        let mut kernels = Vec::new();
        if opts.pipeline {
            for (i, l) in all.iter().enumerate() {
                if !innermost[i] {
                    continue;
                }
                let Some((body_target, exit_target, _)) = header_test(&work, &shapes[i]) else {
                    continue;
                };
                if let Some(k) = analyze_kernel(&work, l, library, &selection, alloc, opts.clock_ns)
                {
                    debug_assert_eq!((k.body_target, k.exit_target), (body_target, exit_target));
                    kernels.push(PlannedKernel {
                        l: i,
                        ii: k.ii,
                        rec_mii: k.rec_mii,
                        datapath_ops: k
                            .body_ops
                            .iter()
                            .copied()
                            .filter(|&op| is_datapath(&work, op))
                            .collect(),
                        body_target,
                        exit_target,
                    });
                }
            }
        }

        // Header rotation for every loop of the right shape.
        let mut rotations = Vec::new();
        if opts.rotate {
            for (i, l) in all.iter().enumerate() {
                if header_test(&work, &shapes[i]).is_none()
                    || l.exits.len() != 1
                    || l.exits[0].0 != l.header
                    || l.latches.len() != 1
                {
                    continue;
                }
                let latch = l.latches[0];
                if latch == l.header {
                    continue;
                }
                let sched = |b: BlockId| {
                    blocks[b.index()]
                        .as_ref()
                        .expect("loop blocks are reachable")
                };
                let (header_sched, latch_sched) = (sched(l.header), sched(latch));
                if header_sched.is_empty() || latch_sched.is_empty() {
                    continue;
                }
                if let Some(rotated_ops) = try_rotation(
                    &work,
                    l,
                    latch,
                    latch_sched,
                    library,
                    &selection,
                    alloc,
                    opts.clock_ns,
                ) {
                    rotations.push(PlannedRotation {
                        l: i,
                        latch,
                        rotated_ops: rotated_ops.into(),
                    });
                }
            }
        }

        Ok(SchedulePlan {
            selection: Arc::new(selection),
            moved: moved.into(),
            if_converted,
            unit_counts: (0..library.len() as u32)
                .map(|fu| alloc.count(FuId(fu)))
                .collect(),
            opts: opts.clone(),
            rpo,
            loops: shapes.into(),
            innermost: (0..all.len()).filter(|&i| innermost[i]).collect(),
            states: PlannedStates::new(&blocks),
            kernels: kernels.into(),
            rotations: rotations.into(),
            memo_hits,
            memo_misses,
        })
    }

    /// How many branches if-conversion moved to another block (each is
    /// remapped in every profile the plan is weighted with).
    pub fn moved_branches(&self) -> usize {
        self.moved.len()
    }

    /// Weights the plan of `f`, the function it was built from, with
    /// `profile`, keyed by `f`'s block ids: the function if-converted
    /// again (when the plan converted anything), the profile remapped
    /// across if-conversion's branch moves, the kernels that beat
    /// sequential execution under it, the concurrent loop groups, the
    /// rotations of the loops neither covers, and the STG with its
    /// transition probabilities and expected visits.
    ///
    /// The plan keeps no copy of `f` (a copy would keep every op the
    /// design owns alive as long as the plan), so the caller passes it
    /// in; passing another function is a logic error.
    ///
    /// # Errors
    /// Returns [`ScheduleError::Internal`] if the STG fails validation.
    pub fn weight(
        &self,
        f: &Function,
        profile: &BranchProfile,
    ) -> Result<ScheduleResult, ScheduleError> {
        let mut function = f.clone();
        if self.if_converted > 0 {
            // Deterministic: the same diamonds convert as when planned.
            let redone = if_convert(&mut function);
            debug_assert_eq!(redone.converted, self.if_converted);
        }
        debug_assert_eq!(function.num_blocks(), self.states.of_block.len());
        let work = &function;
        let loops = &self.loops;
        // Each block's position in reverse postorder, by block index.
        let mut rpo_pos = vec![usize::MAX; work.num_blocks()];
        for (i, &b) in self.rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }
        let rpo_pos = &rpo_pos[..];
        let mut report = ScheduleReport {
            if_converted: self.if_converted,
            memo_hits: self.memo_hits,
            memo_misses: self.memo_misses,
            ..ScheduleReport::default()
        };

        let mut prof = Cow::Borrowed(profile);
        if !self.moved.is_empty() {
            let remapped = prof.to_mut();
            for &(new_owner, orig) in &self.moved {
                remapped.set_prob(new_owner, profile.prob_true(orig));
            }
        }
        let prof: &BranchProfile = &prof;

        let seq_cycles = |l: &PlannedLoop| -> f64 {
            let freq = block_freq_in_loop(work, l, prof, rpo_pos);
            l.body
                .iter()
                .map(|b| freq.get(b).copied().unwrap_or(0.0) * self.states.len(*b) as f64)
                .sum::<f64>()
                .max(1.0)
        };

        // Kernels that beat the loop's sequential schedule under this
        // profile, with their expected iterations per entry.
        let mut kernels: Vec<(&PlannedKernel, f64)> = Vec::new();
        let mut kernel_of_header: HashMap<BlockId, &PlannedKernel> = HashMap::new();
        for k in self.kernels.iter() {
            let l = &loops[k.l];
            let (q, _, _) =
                header_continue(work, l, prof).expect("planned kernels have a header test");
            let mut expected_iters = geometric_iters(q);
            if let Some(e) = empirical_iters(prof, l.header, k.body_target) {
                expected_iters = e.max(0.0);
            }
            if (k.ii as f64) < seq_cycles(l) - 1e-9 {
                kernel_of_header.insert(l.header, k);
                kernels.push((k, expected_iters));
            }
        }

        // Concurrent groups: chains of sibling loops joined by datapath-free
        // glue, executed as rate phases.
        let mut groups: Vec<GroupInfo> = Vec::new();
        let mut cover: HashMap<BlockId, Cover> = HashMap::new();
        if self.opts.concurrent {
            let innermost: Vec<&PlannedLoop> = self.innermost.iter().map(|&i| &loops[i]).collect();
            groups = find_groups(
                work,
                &innermost,
                &kernel_of_header,
                prof,
                rpo_pos,
                &self.selection,
                &self.unit_counts,
                &seq_cycles,
            );
            report.concurrent_groups = groups.len();
            for (gi, g) in groups.iter().enumerate() {
                for &b in &g.blocks {
                    cover.insert(b, Cover::Group(gi));
                }
            }
        }
        // Kernels for loops not swallowed by groups.
        let mut live_kernels: Vec<(&PlannedKernel, f64)> = Vec::new();
        for &(k, expected_iters) in &kernels {
            let l = &loops[k.l];
            if !cover.contains_key(&l.header) {
                for &b in &l.body {
                    cover.insert(b, Cover::Kernel(live_kernels.len()));
                }
                report.kernels.push((l.header, k.ii));
                live_kernels.push((k, expected_iters));
            }
        }

        // Rotation for the remaining loops, keyed by latch.
        struct Rotation<'p> {
            rotated_ops: &'p [OpId],
            continue_prob: f64,
            body_target: BlockId,
            exit_target: BlockId,
        }
        let mut rotations: HashMap<BlockId, Rotation> = HashMap::new();
        let mut rotated_headers: Vec<(BlockId, BlockId)> = Vec::new();
        for r in self.rotations.iter() {
            let l = &loops[r.l];
            if cover.contains_key(&l.header) || l.body.iter().any(|b| cover.contains_key(b)) {
                continue;
            }
            let (q, body_target, exit_target) =
                header_continue(work, l, prof).expect("planned rotations have a header test");
            report.rotations.push((l.header, self.states.len(l.header)));
            rotated_headers.push((l.header, body_target));
            rotations.insert(
                r.latch,
                Rotation {
                    rotated_ops: &r.rotated_ops,
                    continue_prob: q,
                    body_target,
                    exit_target,
                },
            );
        }

        // ----- STG assembly -----
        let mut stg = Stg::new();

        // States for normal chains.
        let mut chain_states: HashMap<BlockId, Vec<StateId>> = HashMap::new();
        for &b in self.rpo.iter() {
            if cover.contains_key(&b) {
                continue;
            }
            if self.states.len(b) == 0 {
                continue;
            }
            let block = work.block(b);
            let name = match &block.name {
                Some(name) => Cow::Borrowed(name.as_str()),
                None => Cow::Owned(b.to_string()),
            };
            let visits = prof.block_visits(b);
            let mut ids = Vec::with_capacity(self.states.len(b));
            for (i, issued) in self.states.of(b).enumerate() {
                let s = stg.add_state(format!("{name}.{i}"));
                let state = stg.state_mut(s);
                state.ops = issued
                    .iter()
                    .map(|&p| ScheduledOp::once(block.ops[p as usize]))
                    .collect();
                state.expected_visits = visits;
                ids.push(s);
            }
            chain_states.insert(b, ids);
        }

        // Rotated loops bypass their header on the back edge, so the header's
        // states run once per loop *entry*, not once per iteration.
        for (header, body_target) in &rotated_headers {
            if let (Some(states), Some(vh), Some(vb)) = (
                chain_states.get(header),
                prof.block_visits(*header),
                prof.block_visits(*body_target),
            ) {
                let entries = (vh - vb).max(1.0);
                for &s in states {
                    stg.state_mut(s).expected_visits = Some(entries);
                }
            }
        }

        // Kernel states.
        let mut kernel_states: Vec<StateId> = Vec::new();
        for &(k, expected_iters) in &live_kernels {
            let header = loops[k.l].header;
            let s = stg.add_state(format!("kernel@{header}(II={})", k.ii));
            for &op in k.datapath_ops.iter() {
                stg.state_mut(s).ops.push(ScheduledOp {
                    op,
                    iter: 0,
                    weight: 1.0 / k.ii as f64,
                });
            }
            // Per-execution visits: total empirical iterations × II (the
            // body-target visit count already accounts for outer-loop
            // nesting); fall back to the per-entry geometric estimate.
            let total_iters = prof.block_visits(k.body_target).unwrap_or(expected_iters);
            stg.state_mut(s).expected_visits = Some((total_iters * k.ii as f64).max(1.0));
            kernel_states.push(s);
        }

        // Phase states per group.
        let mut group_states: Vec<Vec<StateId>> = Vec::new();
        for (gi, g) in groups.iter().enumerate() {
            let group_entries = g.entries;
            let mut states = Vec::new();
            for (pi, ph) in g.phases.iter().enumerate() {
                let s = stg.add_state(format!("g{gi}.phase{pi}"));
                for &(li, rate) in &ph.active {
                    for &(op, rel) in &g.rates[li].ops {
                        stg.state_mut(s).ops.push(ScheduledOp {
                            op,
                            iter: 0,
                            weight: rate * rel,
                        });
                    }
                }
                stg.state_mut(s).expected_visits = Some(ph.length.max(1.0) * group_entries);
                states.push(s);
            }
            group_states.push(states);
        }

        // Resolution of block entry points into state distributions.
        struct Resolver<'a> {
            work: &'a Function,
            prof: &'a BranchProfile,
            cover: &'a HashMap<BlockId, Cover>,
            chain_states: &'a HashMap<BlockId, Vec<StateId>>,
            kernel_states: &'a [StateId],
            group_states: &'a [Vec<StateId>],
            groups: &'a [GroupInfo],
            memo: HashMap<BlockId, Vec<(Target, f64)>>,
            in_progress: HashSet<BlockId>,
            pads: HashMap<BlockId, StateId>,
        }

        impl Resolver<'_> {
            fn resolve(&mut self, stg: &mut Stg, b: BlockId) -> Vec<(Target, f64)> {
                if let Some(r) = self.memo.get(&b) {
                    return r.clone();
                }
                if let Some(&pad) = self.pads.get(&b) {
                    return vec![(Target::State(pad), 1.0)];
                }
                if self.in_progress.contains(&b) {
                    // Cycle of empty blocks: materialize a pad state.
                    let pad = stg.add_state(format!("pad@{b}"));
                    self.pads.insert(b, pad);
                    return vec![(Target::State(pad), 1.0)];
                }
                let result = match self.cover.get(&b) {
                    Some(Cover::Kernel(ki)) => vec![(Target::State(self.kernel_states[*ki]), 1.0)],
                    Some(Cover::Group(gi)) => {
                        let states = &self.group_states[*gi];
                        match states.first() {
                            Some(&s) => vec![(Target::State(s), 1.0)],
                            None => {
                                // Degenerate group with no phases: skip to exit.
                                let exit = self.groups[*gi].exit;
                                self.in_progress.insert(b);
                                let r = self.resolve(stg, exit);
                                self.in_progress.remove(&b);
                                r
                            }
                        }
                    }
                    _ => {
                        if let Some(states) = self.chain_states.get(&b) {
                            vec![(Target::State(states[0]), 1.0)]
                        } else {
                            // Empty block: fall through its terminator.
                            self.in_progress.insert(b);
                            let r = match self.work.block(b).term.clone() {
                                Terminator::Jump(t) => self.resolve(stg, t),
                                Terminator::Branch {
                                    on_true, on_false, ..
                                } => {
                                    let p = self.prof.prob_true(b);
                                    let mut out = Vec::new();
                                    for (t, w) in self.resolve(stg, on_true) {
                                        out.push((t, w * p));
                                    }
                                    for (t, w) in self.resolve(stg, on_false) {
                                        out.push((t, w * (1.0 - p)));
                                    }
                                    out
                                }
                                Terminator::Return(_) => vec![(Target::Done, 1.0)],
                            };
                            self.in_progress.remove(&b);
                            r
                        }
                    }
                };
                self.memo.insert(b, result.clone());
                result
            }
        }

        let mut resolver = Resolver {
            work,
            prof,
            cover: &cover,
            chain_states: &chain_states,
            kernel_states: &kernel_states,
            group_states: &group_states,
            groups: &groups,
            memo: HashMap::new(),
            in_progress: HashSet::new(),
            pads: HashMap::new(),
        };

        // Entry state.
        let entry_state = stg.add_state("entry");
        stg.state_mut(entry_state).expected_visits = Some(1.0);
        stg.set_entry(entry_state);
        let entry_targets = resolver.resolve(&mut stg, work.entry());
        let done = stg.done();
        for (t, p) in entry_targets {
            match t {
                Target::State(s) => stg.add_transition(entry_state, s, p, "start"),
                Target::Done => stg.add_transition(entry_state, done, p, "start"),
            }
        }

        // Helper to emit terminator edges from a state.
        let emit_edges = |stg: &mut Stg,
                          resolver: &mut Resolver,
                          from: StateId,
                          edges: Vec<(BlockId, f64, String)>,
                          to_done: f64| {
            for (block, p, label) in edges {
                if p <= 0.0 {
                    continue;
                }
                for (t, w) in resolver.resolve(stg, block) {
                    match t {
                        Target::State(s) => stg.add_transition(from, s, p * w, label.clone()),
                        Target::Done => {
                            let d = stg.done();
                            stg.add_transition(from, d, p * w, label.clone())
                        }
                    }
                }
            }
            if to_done > 0.0 {
                let d = stg.done();
                stg.add_transition(from, d, to_done, "ret");
            }
        };

        // Normal block chains: intra-block transitions + terminator edges.
        for &b in self.rpo.iter() {
            let Some(states) = chain_states.get(&b).cloned() else {
                continue;
            };
            for w in states.windows(2) {
                stg.add_transition(w[0], w[1], 1.0, "");
            }
            let last = *states.last().expect("non-empty chain");

            if let Some(rot) = rotations.get(&b) {
                // Rotated latch: append next-iteration header ops and branch
                // directly, bypassing the header states on the back edge.
                for &op in rot.rotated_ops {
                    stg.state_mut(last).ops.push(ScheduledOp {
                        op,
                        iter: 1,
                        weight: 1.0,
                    });
                }
                let q = rot.continue_prob;
                emit_edges(
                    &mut stg,
                    &mut resolver,
                    last,
                    vec![
                        (rot.body_target, q, "loop".to_string()),
                        (rot.exit_target, 1.0 - q, "exit".to_string()),
                    ],
                    0.0,
                );
                continue;
            }

            match work.block(b).term.clone() {
                Terminator::Jump(t) => emit_edges(
                    &mut stg,
                    &mut resolver,
                    last,
                    vec![(t, 1.0, String::new())],
                    0.0,
                ),
                Terminator::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let p = prof.prob_true(b);
                    let label = fact_ir::pretty::op_short_label(work, cond);
                    emit_edges(
                        &mut stg,
                        &mut resolver,
                        last,
                        vec![
                            (on_true, p, format!("{label}+")),
                            (on_false, 1.0 - p, format!("{label}-")),
                        ],
                        0.0,
                    );
                }
                Terminator::Return(_) => {
                    emit_edges(&mut stg, &mut resolver, last, vec![], 1.0);
                }
            }
        }

        // Kernel self-loops and exits.
        for (&(k, expected_iters), &ks) in live_kernels.iter().zip(&kernel_states) {
            let visits = (expected_iters * k.ii as f64).max(1.0);
            let q = 1.0 - 1.0 / visits;
            stg.add_transition(ks, ks, q, "loop");
            emit_edges(
                &mut stg,
                &mut resolver,
                ks,
                vec![(k.exit_target, 1.0 - q, "exit".to_string())],
                0.0,
            );
        }

        // Group phase chains.
        for (g, states) in groups.iter().zip(&group_states) {
            for (pi, (&s, ph)) in states.iter().zip(&g.phases).enumerate() {
                let q = 1.0 - 1.0 / ph.length.max(1.0);
                if q > 0.0 {
                    stg.add_transition(s, s, q, "phase");
                }
                let leave = 1.0 - q;
                if let Some(&next) = states.get(pi + 1) {
                    stg.add_transition(s, next, leave, "next-phase");
                } else {
                    emit_edges(
                        &mut stg,
                        &mut resolver,
                        s,
                        vec![(g.exit, leave, "exit".to_string())],
                        0.0,
                    );
                }
            }
        }

        // Pad states (from empty-block cycles): single-cycle no-ops that fall
        // through their block's terminator, in block order.
        let mut pads: Vec<(BlockId, StateId)> =
            resolver.pads.iter().map(|(&b, &s)| (b, s)).collect();
        pads.sort_unstable();
        for (b, s) in pads {
            stg.state_mut(s).expected_visits = prof.block_visits(b);
            match work.block(b).term.clone() {
                Terminator::Jump(t) => emit_edges(
                    &mut stg,
                    &mut resolver,
                    s,
                    vec![(t, 1.0, String::new())],
                    0.0,
                ),
                Terminator::Branch {
                    on_true, on_false, ..
                } => {
                    let p = prof.prob_true(b);
                    emit_edges(
                        &mut stg,
                        &mut resolver,
                        s,
                        vec![(on_true, p, "+".into()), (on_false, 1.0 - p, "-".into())],
                        0.0,
                    );
                }
                Terminator::Return(_) => emit_edges(&mut stg, &mut resolver, s, vec![], 1.0),
            }
        }

        stg.validate().map_err(ScheduleError::Internal)?;

        Ok(ScheduleResult {
            stg,
            function,
            selection: self.selection.clone(),
            report,
        })
    }
}

/// Schedules `f` into an STG.
///
/// `profile` must be keyed by the block ids of `f`; if-conversion-induced
/// branch moves are remapped internally.
///
/// # Errors
/// Returns [`ScheduleError`] on binding failures, unschedulable blocks, or
/// internal STG inconsistencies.
///
/// # Examples
///
/// ```
/// use fact_sched::{schedule, Allocation, FuLibrary, FuSpec, SchedOptions, SelectionRules};
/// use fact_sim::BranchProfile;
///
/// let f = fact_lang::compile("proc f(a, b) { out y = a + b; }")?;
/// let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
/// let adder = lib.add(FuSpec {
///     name: "a1".into(), energy_coeff: 1.3, delay_ns: 10.0, area: 1.5,
/// });
/// let rules = SelectionRules { add: Some(adder), ..Default::default() };
/// let mut alloc = Allocation::new();
/// alloc.set(adder, 1);
/// let result = schedule(
///     &f, &lib, &rules, &alloc, &BranchProfile::uniform(), &SchedOptions::default(),
/// )?;
/// result.stg.validate().map_err(fact_sched::ScheduleError::Internal)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn schedule(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    profile: &BranchProfile,
    opts: &SchedOptions,
) -> Result<ScheduleResult, ScheduleError> {
    schedule_with_memo(f, library, rules, alloc, profile, opts, None)
}

/// [`schedule`] with an optional per-block schedule cache: a
/// [`SchedulePlan`] built through `memo`, weighted with `profile`.
///
/// With `Some(memo)`, every per-block list schedule is looked up by
/// structural hash before being computed; hits are spliced in and counted
/// in [`ScheduleReport::memo_hits`]. Results are bit-identical to
/// [`schedule`] — the memo layer only caches a pure function (see
/// [`crate::memo`]).
///
/// # Errors
/// Same as [`schedule`] (memoized errors included).
pub fn schedule_with_memo(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    profile: &BranchProfile,
    opts: &SchedOptions,
    memo: Option<&ScheduleMemo>,
) -> Result<ScheduleResult, ScheduleError> {
    SchedulePlan::build(f, library, rules, alloc, opts, memo)?.weight(f, profile)
}

fn is_datapath(f: &Function, op: OpId) -> bool {
    matches!(
        f.op(op).kind,
        OpKind::Bin(..) | OpKind::Un(..) | OpKind::Load { .. } | OpKind::Store { .. }
    )
}

/// Attempts to fit every datapath op of the loop header into the latch's
/// final state (next-iteration copies). Returns the ops to fold, or `None`
/// if chaining or resources do not permit.
#[allow(clippy::too_many_arguments)]
fn try_rotation(
    f: &Function,
    l: &NaturalLoop,
    latch: BlockId,
    latch_sched: &BlockSchedule,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> Option<Vec<OpId>> {
    let last = latch_sched.len() - 1;
    let latch_ops = &f.block(latch).ops;
    let latch_pos: HashMap<OpId, usize> =
        latch_ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();

    // Header datapath ops, in block order.
    let header_ops: Vec<OpId> = f
        .block(l.header)
        .ops
        .iter()
        .copied()
        .filter(|&op| is_datapath(f, op))
        .collect();
    if header_ops.is_empty() {
        return None;
    }

    // Latch value of each header phi.
    let mut latch_value: HashMap<OpId, OpId> = HashMap::new();
    for &op in &f.block(l.header).ops {
        if let OpKind::Phi(incoming) = &f.op(op).kind {
            if let Some((_, v)) = incoming.iter().find(|(b, _)| *b == latch) {
                latch_value.insert(op, *v);
            } else {
                return None; // latch not a direct phi predecessor
            }
        }
    }

    // Ready time (ns within the latch's final state) of a value used by a
    // rotated op.
    let ready_in_last = |v: OpId, rotated: &HashMap<OpId, f64>| -> Option<f64> {
        if let Some(&t) = rotated.get(&v) {
            return Some(t);
        }
        let v = latch_value.get(&v).copied().unwrap_or(v);
        if let Some(&t) = rotated.get(&v) {
            return Some(t);
        }
        match latch_pos.get(&v).map(|&i| &latch_sched.placement[i]) {
            Some(p) => {
                if p.end_state == last {
                    Some(p.ready_ns)
                } else if p.end_state < last {
                    Some(0.0)
                } else {
                    None // not ready until after the final state
                }
            }
            // Defined outside the latch block (loop-invariant, phi, or an
            // earlier body block): available at state start.
            None => Some(0.0),
        }
    };

    // Resource slack in the final state.
    let mut used: HashMap<ResKey, u32> = HashMap::new();
    for &p in &latch_sched.states[last] {
        let op = latch_ops[p as usize];
        match &f.op(op).kind {
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => {
                *used.entry(ResKey::Mem(*mem)).or_insert(0) += 1;
            }
            _ => {
                if let Some(fu) = selection.fu_of(op) {
                    *used.entry(ResKey::Fu(fu)).or_insert(0) += 1;
                }
            }
        }
    }

    let mut rotated: HashMap<OpId, f64> = HashMap::new();
    for &op in &header_ops {
        let delay = match &f.op(op).kind {
            OpKind::Load { .. } | OpKind::Store { .. } => library.memory_delay_ns,
            _ => selection
                .fu_of(op)
                .map(|fu| library.spec(fu).delay_ns)
                .unwrap_or(0.0),
        };
        let mut start: f64 = 0.0;
        for v in f.op(op).kind.operands() {
            start = start.max(ready_in_last(v, &rotated)?);
        }
        let finish = start + delay;
        if finish > clk + 1e-9 {
            return None;
        }
        let res = match &f.op(op).kind {
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => ResKey::Mem(*mem),
            _ => ResKey::Fu(selection.fu_of(op)?),
        };
        let cap = match res {
            ResKey::Fu(fu) => alloc.count(fu),
            ResKey::Mem(_) => 1,
        };
        let u = used.entry(res).or_insert(0);
        if *u >= cap {
            return None;
        }
        *u += 1;
        rotated.insert(op, finish);
    }
    Some(header_ops)
}

/// Detects chains of independent sibling loops and plans their phases.
#[allow(clippy::too_many_arguments)]
fn find_groups(
    work: &Function,
    innermost: &[&PlannedLoop],
    kernel_of_header: &HashMap<BlockId, &PlannedKernel>,
    prof: &BranchProfile,
    rpo_pos: &[usize],
    selection: &FuSelection,
    unit_counts: &[u32],
    seq_cycles: &dyn Fn(&PlannedLoop) -> f64,
) -> Vec<GroupInfo> {
    // Candidate loops: innermost, with a well-formed header test.
    let mut cands: Vec<&PlannedLoop> = innermost
        .iter()
        .copied()
        .filter(|l| header_test(work, l).is_some())
        .filter(|l| l.exits.len() == 1 && l.exits[0].0 == l.header)
        .collect();
    cands.sort_by_key(|l| rpo_pos[l.header.index()]);

    // Glue-following: from a loop's exit target, skip datapath-free
    // straight-line blocks to find the next loop header.
    let follow = |mut b: BlockId| -> (BlockId, HashSet<BlockId>) {
        let mut glue = HashSet::new();
        for _ in 0..work.num_blocks() {
            let has_datapath = work.block(b).ops.iter().any(|&op| is_datapath(work, op));
            if has_datapath {
                break;
            }
            match work.block(b).term {
                Terminator::Jump(t) => {
                    glue.insert(b);
                    b = t;
                }
                _ => break,
            }
        }
        (b, glue)
    };

    // Memory and value footprints per loop.
    let footprint = |l: &PlannedLoop| {
        let mut loads = HashSet::new();
        let mut stores = HashSet::new();
        let mut defs = HashSet::new();
        let mut has_output = false;
        for &b in &l.body {
            for &op in &work.block(b).ops {
                defs.insert(op);
                match &work.op(op).kind {
                    OpKind::Load { mem, .. } => {
                        loads.insert(*mem);
                    }
                    OpKind::Store { mem, .. } => {
                        stores.insert(*mem);
                    }
                    OpKind::Output(..) => has_output = true,
                    _ => {}
                }
            }
        }
        (loads, stores, defs, has_output)
    };

    let mut used: HashSet<BlockId> = HashSet::new();
    let mut groups = Vec::new();

    let mut i = 0;
    while i < cands.len() {
        let first = cands[i];
        i += 1;
        if used.contains(&first.header) {
            continue;
        }
        // Grow a chain starting at `first`.
        let mut chain: Vec<&PlannedLoop> = vec![first];
        let mut glue_blocks: HashSet<BlockId> = HashSet::new();
        loop {
            let cur = *chain.last().expect("nonempty");
            let (_, _, exit_target) =
                header_continue(work, cur, prof).expect("candidate has header test");
            let (next_block, glue) = follow(exit_target);
            if let Some(next) = cands
                .iter()
                .find(|l| l.header == next_block && !used.contains(&l.header))
            {
                if chain.iter().any(|c| c.header == next.header) {
                    break;
                }
                glue_blocks.extend(glue);
                chain.push(next);
            } else {
                break;
            }
        }
        if chain.len() < 2 {
            continue;
        }

        // Build rate models and the dependence DAG.
        let mut rates: Vec<LoopRate> = Vec::new();
        let feet: Vec<_> = chain.iter().map(|l| footprint(l)).collect();
        let mut ok = true;
        for (li, l) in chain.iter().enumerate() {
            let freq = block_freq_in_loop(work, l, prof, rpo_pos);
            let mut ops: Vec<(OpId, f64)> = Vec::new();
            for &b in &l.body {
                let fb = freq.get(&b).copied().unwrap_or(0.0);
                for &op in &work.block(b).ops {
                    if is_datapath(work, op) {
                        ops.push((op, fb));
                    }
                }
            }
            // Per-iteration resource demand, weighted by in-iteration
            // block execution frequency.
            let mut usage: HashMap<ResKey, f64> = HashMap::new();
            for &(op, rel) in &ops {
                let key = match &work.op(op).kind {
                    OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => Some(ResKey::Mem(*mem)),
                    _ => selection.fu_of(op).map(ResKey::Fu),
                };
                if let Some(k) = key {
                    *usage.entry(k).or_insert(0.0) += rel;
                }
            }
            // Any resource with zero capacity blocks the group.
            for key in usage.keys() {
                let cap = match key {
                    ResKey::Fu(fu) => unit_counts.get(fu.0 as usize).copied().unwrap_or(0) as f64,
                    ResKey::Mem(_) => 1.0,
                };
                if cap == 0.0 {
                    ok = false;
                }
            }
            let (q, body_tgt, _) = header_continue(work, l, prof).expect("header test");
            let expected_iters =
                empirical_iters(prof, l.header, body_tgt).unwrap_or_else(|| geometric_iters(q));
            let dep_cap = match kernel_of_header.get(&l.header) {
                Some(k) => 1.0 / k.rec_mii as f64,
                None => 1.0 / seq_cycles(l),
            };
            // Dependences on earlier chain members.
            let mut deps = Vec::new();
            for (lj, (loads_j, stores_j, defs_j, out_j)) in feet.iter().enumerate().take(li) {
                let (loads_i, stores_i, _defs_i, out_i) = &feet[li];
                let mem_conflict = stores_j
                    .iter()
                    .any(|m| loads_i.contains(m) || stores_i.contains(m))
                    || stores_i
                        .iter()
                        .any(|m| loads_j.contains(m) || stores_j.contains(m));
                let val_conflict = l.body.iter().any(|&b| {
                    work.block(b).ops.iter().any(|&op| {
                        work.op(op)
                            .kind
                            .operands()
                            .iter()
                            .any(|v| defs_j.contains(v))
                    })
                });
                let out_conflict = *out_j && *out_i;
                if mem_conflict || val_conflict || out_conflict {
                    deps.push(lj);
                }
            }
            rates.push(LoopRate {
                header: l.header,
                ops,
                usage,
                dep_cap,
                expected_iters,
                deps,
            });
        }
        if !ok {
            continue;
        }
        // A group is only worthwhile if some pair is independent.
        let any_parallel = (0..rates.len())
            .any(|j| (0..j).any(|k| !rates[j].deps.contains(&k) && !rates[k].deps.contains(&j)));
        if !any_parallel {
            continue;
        }

        // Capacity map over all resources mentioned.
        let mut capacity: HashMap<ResKey, f64> = HashMap::new();
        for r in &rates {
            for key in r.usage.keys() {
                let cap = match key {
                    ResKey::Fu(fu) => unit_counts.get(fu.0 as usize).copied().unwrap_or(0) as f64,
                    ResKey::Mem(_) => 1.0,
                };
                capacity.insert(*key, cap);
            }
        }
        let phases = plan_phases(&rates, &capacity);
        if phases.is_empty() {
            continue;
        }

        let last = *chain.last().expect("nonempty");
        let (_, _, group_exit) = header_continue(work, last, prof).expect("header test");
        // Entries of the whole group = entries of its first loop.
        let first_loop = chain[0];
        let entries = header_continue(work, first_loop, prof)
            .and_then(|(_, body_tgt, _)| {
                let vh = prof.block_visits(first_loop.header)?;
                let vb = prof.block_visits(body_tgt)?;
                Some((vh - vb).max(1.0))
            })
            .unwrap_or(1.0);
        let mut blocks: HashSet<BlockId> = glue_blocks;
        for l in &chain {
            blocks.extend(l.body.iter().copied());
            used.insert(l.header);
        }
        groups.push(GroupInfo {
            blocks,
            rates,
            phases,
            exit: group_exit,
            entries,
        });
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::FuSpec;
    use fact_lang::compile;
    use fact_sim::{generate, profile, InputSpec, TraceSet};

    fn library() -> (FuLibrary, SelectionRules) {
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        for (name, e, d, a) in [
            ("a1", 1.3, 10.0, 1.5),
            ("sb1", 1.3, 10.0, 1.5),
            ("mt1", 2.3, 23.0, 3.9),
            ("cp1", 1.1, 10.0, 1.3),
            ("e1", 1.0, 5.0, 1.0),
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
            eq: lib.by_name("e1"),
            incr: lib.by_name("i1"),
            ..Default::default()
        };
        (lib, rules)
    }

    fn alloc(lib: &FuLibrary, pairs: &[(&str, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for (n, c) in pairs {
            a.set(lib.by_name(n).unwrap(), *c);
        }
        a
    }

    fn traces(specs: &[(&str, InputSpec)]) -> TraceSet {
        let s: Vec<_> = specs
            .iter()
            .map(|(n, sp)| (n.to_string(), sp.clone()))
            .collect();
        generate(&s, 50, 99)
    }

    fn run(
        src: &str,
        pairs: &[(&str, u32)],
        specs: &[(&str, InputSpec)],
        opts: &SchedOptions,
    ) -> ScheduleResult {
        let f = compile(src).unwrap();
        let (lib, rules) = library();
        let a = alloc(&lib, pairs);
        let p = profile(&f, &traces(specs));
        schedule(&f, &lib, &rules, &a, &p, opts).unwrap()
    }

    fn baseline_opts() -> SchedOptions {
        SchedOptions {
            if_convert: false,
            rotate: false,
            pipeline: false,
            concurrent: false,
            ..Default::default()
        }
    }

    #[test]
    fn straightline_stg_validates() {
        let r = run(
            "proc f(a, b) { out y = (a + b) * (a - b); }",
            &[("a1", 1), ("sb1", 1), ("mt1", 1)],
            &[
                ("a", InputSpec::Uniform { lo: -9, hi: 9 }),
                ("b", InputSpec::Uniform { lo: -9, hi: 9 }),
            ],
            &baseline_opts(),
        );
        r.stg.validate().unwrap();
        // entry + at least the mul state + done.
        assert!(r.stg.num_states() >= 3);
    }

    #[test]
    fn while_loop_baseline_has_cycle() {
        let r = run(
            "proc f(n) { var i = 0; while (i < n) { i = i + 1; } out i = i; }",
            &[("i1", 1), ("cp1", 1)],
            &[("n", InputSpec::Uniform { lo: 0, hi: 20 })],
            &baseline_opts(),
        );
        r.stg.validate().unwrap();
        assert!(r.report.rotations.is_empty());
        assert!(r.report.kernels.is_empty());
        // Some state transitions back toward an earlier state (loop).
        assert!(r
            .stg
            .transitions()
            .iter()
            .any(|t| t.to.index() <= t.from.index() && t.to != r.stg.done()));
    }

    #[test]
    fn rotation_fires_on_counter_loop() {
        let opts = SchedOptions {
            rotate: true,
            ..baseline_opts()
        };
        let r = run(
            // Body has real work so the latch has a state to rotate into.
            "proc f(n, a) { var i = 0; var s = 0; while (i < n) { s = s + a; i = i + 1; } out s = s; }",
            &[("a1", 1), ("i1", 1), ("cp1", 1)],
            &[("n", InputSpec::Uniform { lo: 1, hi: 20 }), ("a", InputSpec::Uniform { lo: 0, hi: 9 })],
            &opts,
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.rotations.len(), 1, "{:?}", r.report);
        // Rotated next-iteration ops annotated with iter=1 exist somewhere.
        let has_iter1 = r
            .stg
            .state_ids()
            .any(|s| r.stg.state(s).ops.iter().any(|o| o.iter == 1));
        assert!(has_iter1);
    }

    #[test]
    fn kernel_forms_for_branch_free_loop() {
        let opts = SchedOptions {
            pipeline: true,
            ..baseline_opts()
        };
        let r = run(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } out s = s; }",
            &[("a1", 1), ("i1", 1), ("cp1", 1)],
            &[("n", InputSpec::Uniform { lo: 5, hi: 30 })],
            &opts,
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.kernels.len(), 1);
        assert_eq!(r.report.kernels[0].1, 1); // II = 1
                                              // Kernel state ops carry fractional-or-1 weights equal to 1/II = 1.
        let kstate = r
            .stg
            .state_ids()
            .find(|&s| {
                r.stg
                    .state(s)
                    .name
                    .as_deref()
                    .is_some_and(|n| n.starts_with("kernel"))
            })
            .unwrap();
        assert!(!r.stg.state(kstate).ops.is_empty());
        assert!(r.stg.outgoing(kstate).any(|t| t.to == kstate));
    }

    #[test]
    fn gcd_pipelines_after_if_conversion() {
        let opts = SchedOptions::default();
        let r = run(
            r#"
            proc gcd(a, b) {
                while (a != b) {
                    if (a > b) { a = a - b; } else { b = b - a; }
                }
                out g = a;
            }
            "#,
            &[("sb1", 2), ("cp1", 1), ("e1", 1)],
            &[
                ("a", InputSpec::Uniform { lo: 1, hi: 50 }),
                ("b", InputSpec::Uniform { lo: 1, hi: 50 }),
            ],
            &opts,
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.if_converted, 1);
        assert_eq!(r.report.kernels.len(), 1);
        assert_eq!(r.report.kernels[0].1, 1);
    }

    #[test]
    fn independent_loops_form_concurrent_group() {
        let src = r#"
            proc two(n, m) {
                array x[64];
                array y[64];
                var i = 0;
                while (i < n) { x[i] = i + i; i = i + 1; }
                var j = 0;
                while (j < m) { y[j] = j + j; j = j + 1; }
            }
        "#;
        let opts = SchedOptions {
            concurrent: true,
            pipeline: true,
            ..baseline_opts()
        };
        let r = run(
            src,
            &[("a1", 2), ("i1", 2), ("cp1", 2)],
            &[
                ("n", InputSpec::Uniform { lo: 10, hi: 30 }),
                ("m", InputSpec::Uniform { lo: 10, hi: 30 }),
            ],
            &opts,
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.concurrent_groups, 1, "{:?}", r.report);
        // Phase states exist.
        assert!(r.stg.state_ids().any(|s| r
            .stg
            .state(s)
            .name
            .as_deref()
            .is_some_and(|n| n.contains("phase"))));
    }

    #[test]
    fn dependent_loops_do_not_group() {
        // Second loop reads what the first wrote: must not run in parallel.
        let src = r#"
            proc two(n) {
                array x[64];
                var i = 0;
                while (i < n) { x[i] = i + i; i = i + 1; }
                var j = 0;
                var s = 0;
                while (j < n) { s = s + x[j]; j = j + 1; }
                out s = s;
            }
        "#;
        let opts = SchedOptions {
            concurrent: true,
            ..baseline_opts()
        };
        let r = run(
            src,
            &[("a1", 2), ("i1", 2), ("cp1", 2)],
            &[("n", InputSpec::Uniform { lo: 5, hi: 30 })],
            &opts,
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.concurrent_groups, 0);
    }

    #[test]
    fn test1_schedule_shows_implicit_unrolling() {
        // The paper's TEST1 (Figure 1): with the full scheduler the loop
        // either pipelines (after if-conversion) or rotates.
        let src = r#"
            proc test1(c1, c2) {
                var i = 0;
                var a = 0;
                array x[128];
                while (c2 > i) {
                    if (i < c1) { a = 13 * (a + 7); } else { a = a + 17; }
                    i = i + 1;
                    x[i] = a;
                }
                out a = a;
            }
        "#;
        let r = run(
            src,
            &[("a1", 2), ("mt1", 1), ("cp1", 2), ("i1", 1)],
            &[
                ("c1", InputSpec::Uniform { lo: 0, hi: 37 }),
                ("c2", InputSpec::Uniform { lo: 20, hi: 80 }),
            ],
            &SchedOptions::default(),
        );
        r.stg.validate().unwrap();
        assert_eq!(r.report.if_converted, 1);
        assert!(!r.report.kernels.is_empty() || !r.report.rotations.is_empty());
    }

    #[test]
    fn options_off_still_schedules_cfi_behavior() {
        let src = r#"
            proc f(a, n) {
                var i = 0;
                var s = 0;
                while (i < n) {
                    if (s < a) { s = s + 3; } else { s = s - 1; }
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let r = run(
            src,
            &[("a1", 1), ("sb1", 1), ("cp1", 2), ("i1", 1)],
            &[
                ("a", InputSpec::Uniform { lo: 0, hi: 40 }),
                ("n", InputSpec::Uniform { lo: 0, hi: 20 }),
            ],
            &baseline_opts(),
        );
        r.stg.validate().unwrap();
        // Branch out of the if-block exists with both polarities.
        let has_split = r.stg.state_ids().any(|s| r.stg.outgoing(s).count() >= 2);
        assert!(has_split);
    }
}
