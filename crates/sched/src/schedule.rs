//! The scheduler driver: CDFG → STG (paper Figure 5, step 1; rescheduling
//! in steps 5–6).
//!
//! Combines the per-block list scheduler with the Wavesched-class loop
//! optimizations: if-conversion, loop-kernel pipelining, implicit
//! unrolling (header rotation into the latch state, Figure 1(c)), and
//! concurrent loop phases (Figure 2(b)).

use crate::ifconv::if_convert;
use crate::listsched::{schedule_block, BlockSchedule, SchedError};
use crate::memo::ScheduleMemo;
use crate::parloops::{plan_phases, LoopRate, Phase};
use crate::pipeline::{analyze_kernel, LoopKernel, ResKey};
use crate::resources::{Allocation, FuLibrary, FuSelection, SelectionError, SelectionRules};
use crate::stg::{ScheduledOp, StateId, Stg};
use fact_ir::{BlockId, DomTree, Function, LoopForest, NaturalLoop, OpId, OpKind, Terminator};
use fact_sim::BranchProfile;
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
    /// (zero when scheduling without a memo).
    pub memo_hits: usize,
    /// Blocks list-scheduled from scratch.
    pub memo_misses: usize,
}

/// A complete scheduling result.
#[derive(Clone, Debug)]
pub struct ScheduleResult {
    /// The state transition graph.
    pub stg: Stg,
    /// The (possibly if-converted) function the STG refers to.
    pub function: Function,
    /// Functional-unit binding for `function`.
    pub selection: FuSelection,
    /// The branch profile remapped onto `function`.
    pub profile: BranchProfile,
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
    l: &NaturalLoop,
    profile: &BranchProfile,
    rpo_index: &HashMap<BlockId, usize>,
) -> HashMap<BlockId, f64> {
    let mut blocks: Vec<BlockId> = l.body.iter().copied().collect();
    blocks.sort_by_key(|b| rpo_index.get(b).copied().unwrap_or(usize::MAX));
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

/// The probability of continuing the loop at its header test, and the
/// in-loop / out-of-loop successors, if the header ends in a branch with
/// exactly one in-loop target.
fn header_continue(
    f: &Function,
    l: &NaturalLoop,
    profile: &BranchProfile,
) -> Option<(f64, BlockId, BlockId)> {
    if let Terminator::Branch {
        on_true, on_false, ..
    } = f.block(l.header).term
    {
        let p = profile.prob_true(l.header);
        match (l.contains(on_true), l.contains(on_false)) {
            (true, false) => Some((p, on_true, on_false)),
            (false, true) => Some((1.0 - p, on_false, on_true)),
            _ => None,
        }
    } else {
        None
    }
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Plan {
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

/// [`schedule`] with an optional per-block schedule cache.
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
    let mut work = f.clone();
    let mut prof = profile.clone();
    let mut report = ScheduleReport::default();

    if opts.if_convert {
        let r = if_convert(&mut work);
        report.if_converted = r.converted;
        for (new_owner, orig) in &r.branch_moved_from {
            let p = profile.prob_true(*orig);
            prof.set_prob(*new_owner, p);
        }
    }

    let selection = FuSelection::from_rules(&work, rules)?;
    let dom = DomTree::compute(&work);
    let forest = LoopForest::compute(&work, &dom);
    let rpo: Vec<BlockId> = dom.rpo().to_vec();
    let rpo_index: HashMap<BlockId, usize> = rpo.iter().enumerate().map(|(i, &b)| (b, i)).collect();

    // Per-block schedules, spliced from the memo where available.
    let mut chains_sched: HashMap<BlockId, Arc<BlockSchedule>> = HashMap::new();
    for &b in &rpo {
        let bs = match memo {
            Some(m) => {
                let (outcome, hit) =
                    m.schedule_block_memoized(&work, b, library, &selection, alloc, opts.clock_ns);
                if hit {
                    report.memo_hits += 1;
                } else {
                    report.memo_misses += 1;
                }
                outcome?
            }
            None => {
                report.memo_misses += 1;
                let bs = schedule_block(&work, b, library, &selection, alloc, opts.clock_ns)?;
                Arc::new(bs)
            }
        };
        chains_sched.insert(b, bs);
    }

    // Loop metrics.
    let innermost: Vec<&NaturalLoop> = forest
        .loops()
        .iter()
        .filter(|l| {
            forest
                .loops()
                .iter()
                .all(|m| m.header == l.header || !l.contains(m.header))
        })
        .collect();

    let seq_cycles = |l: &NaturalLoop| -> f64 {
        let freq = block_freq_in_loop(&work, l, &prof, &rpo_index);
        l.body
            .iter()
            .map(|b| {
                freq.get(b).copied().unwrap_or(0.0)
                    * chains_sched.get(b).map_or(0, |bs| bs.len()) as f64
            })
            .sum::<f64>()
            .max(1.0)
    };

    // Kernel analysis for innermost loops.
    let mut kernels: Vec<LoopKernel> = Vec::new();
    let mut kernel_of_header: HashMap<BlockId, usize> = HashMap::new();
    if opts.pipeline {
        for l in &innermost {
            if let Some((q, _, _)) = header_continue(&work, l, &prof) {
                if let Some(mut k) =
                    analyze_kernel(&work, l, library, &selection, alloc, opts.clock_ns, q)
                {
                    if let Some(e) = empirical_iters(&prof, l.header, k.body_target) {
                        k.expected_iters = e.max(0.0);
                    }
                    if (k.ii as f64) < seq_cycles(l) - 1e-9 {
                        kernel_of_header.insert(l.header, kernels.len());
                        kernels.push(k);
                    }
                }
            }
        }
    }

    // Concurrent groups: chains of sibling loops joined by datapath-free
    // glue, executed as rate phases.
    let mut groups: Vec<GroupInfo> = Vec::new();
    let mut plan: HashMap<BlockId, Plan> = HashMap::new();
    if opts.concurrent {
        groups = find_groups(
            &work,
            &forest,
            &innermost,
            &kernels,
            &kernel_of_header,
            &prof,
            &rpo_index,
            library,
            &selection,
            alloc,
            &seq_cycles,
        );
        report.concurrent_groups = groups.len();
        for (gi, g) in groups.iter().enumerate() {
            for &b in &g.blocks {
                plan.insert(b, Plan::Group(gi));
            }
        }
    }
    // Kernel plans for loops not swallowed by groups.
    let mut live_kernels: Vec<(usize, LoopKernel)> = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        let covered = plan.contains_key(&k.header);
        if !covered {
            let l = innermost
                .iter()
                .find(|l| l.header == k.header)
                .expect("kernel loop exists");
            for &b in &l.body {
                plan.insert(b, Plan::Kernel(live_kernels.len()));
            }
            report.kernels.push((k.header, k.ii));
            live_kernels.push((ki, k.clone()));
        }
    }

    // Rotation for remaining loops.
    struct Rotation {
        latch: BlockId,
        rotated_ops: Vec<OpId>,
        continue_prob: f64,
        body_target: BlockId,
        exit_target: BlockId,
    }
    let mut rotations: HashMap<BlockId, Rotation> = HashMap::new(); // keyed by latch
    let mut rotated_headers: Vec<(BlockId, BlockId)> = Vec::new();
    if opts.rotate {
        for l in forest.loops() {
            if plan.contains_key(&l.header) {
                continue;
            }
            if l.body.iter().any(|b| plan.contains_key(b)) {
                continue;
            }
            let Some((q, body_target, exit_target)) = header_continue(&work, l, &prof) else {
                continue;
            };
            if l.exits.len() != 1 || l.exits[0].0 != l.header || l.latches.len() != 1 {
                continue;
            }
            let latch = l.latches[0];
            if latch == l.header {
                continue;
            }
            let header_sched = &chains_sched[&l.header];
            let latch_sched = &chains_sched[&latch];
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
                report.rotations.push((l.header, header_sched.len()));
                rotated_headers.push((l.header, body_target));
                rotations.insert(
                    latch,
                    Rotation {
                        latch,
                        rotated_ops,
                        continue_prob: q,
                        body_target,
                        exit_target,
                    },
                );
            }
        }
    }

    // ----- STG assembly -----
    let mut stg = Stg::new();

    // States for normal chains.
    let mut chain_states: HashMap<BlockId, Vec<StateId>> = HashMap::new();
    for &b in &rpo {
        if plan.contains_key(&b) {
            continue;
        }
        let bs = &chains_sched[&b];
        if bs.is_empty() {
            continue;
        }
        let name = work.block(b).name.clone().unwrap_or_else(|| format!("{b}"));
        let ops = &work.block(b).ops;
        let mut ids = Vec::new();
        for (i, issued) in bs.states.iter().enumerate() {
            let s = stg.add_state(format!("{name}.{i}"));
            for &p in issued {
                stg.state_mut(s)
                    .ops
                    .push(ScheduledOp::once(ops[p as usize]));
            }
            stg.state_mut(s).expected_visits = prof.block_visits(b);
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
    for (_, k) in &live_kernels {
        let s = stg.add_state(format!("kernel@{}(II={})", k.header, k.ii));
        for &op in &k.body_ops {
            if is_datapath(&work, op) {
                stg.state_mut(s).ops.push(ScheduledOp {
                    op,
                    iter: 0,
                    weight: 1.0 / k.ii as f64,
                });
            }
        }
        // Per-execution visits: total empirical iterations × II (the
        // body-target visit count already accounts for outer-loop
        // nesting); fall back to the per-entry geometric estimate.
        let total_iters = prof.block_visits(k.body_target).unwrap_or(k.expected_iters);
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
        plan: &'a HashMap<BlockId, Plan>,
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
            let result = match self.plan.get(&b) {
                Some(Plan::Kernel(ki)) => vec![(Target::State(self.kernel_states[*ki]), 1.0)],
                Some(Plan::Group(gi)) => {
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
        work: &work,
        prof: &prof,
        plan: &plan,
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
    for &b in &rpo {
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
            for &op in &rot.rotated_ops {
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
            let _ = rot.latch;
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
                let label = fact_ir::pretty::op_short_label(&work, cond);
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
    for ((_, k), &ks) in live_kernels.iter().zip(&kernel_states) {
        let visits = (k.expected_iters * k.ii as f64).max(1.0);
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
    // through their block's terminator.
    let pads: Vec<(BlockId, StateId)> = resolver.pads.iter().map(|(&b, &s)| (b, s)).collect();
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
        function: work,
        selection,
        profile: prof,
        report,
    })
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
    forest: &LoopForest,
    innermost: &[&NaturalLoop],
    kernels: &[LoopKernel],
    kernel_of_header: &HashMap<BlockId, usize>,
    prof: &BranchProfile,
    rpo_index: &HashMap<BlockId, usize>,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    seq_cycles: &dyn Fn(&NaturalLoop) -> f64,
) -> Vec<GroupInfo> {
    let _ = (library, forest);
    // Candidate loops: innermost, with a well-formed header test.
    let mut cands: Vec<&NaturalLoop> = innermost
        .iter()
        .copied()
        .filter(|l| header_continue(work, l, prof).is_some())
        .filter(|l| l.exits.len() == 1 && l.exits[0].0 == l.header)
        .collect();
    cands.sort_by_key(|l| rpo_index.get(&l.header).copied().unwrap_or(usize::MAX));

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
    let footprint = |l: &NaturalLoop| {
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
        let mut chain: Vec<&NaturalLoop> = vec![first];
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
            let freq = block_freq_in_loop(work, l, prof, rpo_index);
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
                    ResKey::Fu(fu) => alloc.count(*fu) as f64,
                    ResKey::Mem(_) => 1.0,
                };
                if cap == 0.0 {
                    ok = false;
                }
            }
            let (q, body_tgt, _) = header_continue(work, l, prof).expect("header test");
            let qc = q.clamp(0.0, 0.999_999);
            let expected_iters = empirical_iters(prof, l.header, body_tgt)
                .unwrap_or_else(|| (qc / (1.0 - qc)).max(1.0));
            let dep_cap = match kernel_of_header.get(&l.header) {
                Some(&ki) => 1.0 / kernels[ki].rec_mii as f64,
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
                    ResKey::Fu(fu) => alloc.count(*fu) as f64,
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
