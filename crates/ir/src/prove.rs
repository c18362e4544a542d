//! Translation validation of control-flow-preserving rewrites.
//!
//! FACT accepts a rewrite only if it preserves functionality on every
//! thread of execution (paper §3). Most rewrites of the library —
//! commutativity, associativity, distributivity, phi sinking, code
//! motion — leave the control-flow graph exactly as it was. For those,
//! [`prove_equivalent`] decides equivalence symbolically instead of by
//! sampling: it is *sound* (a proof means the two functions behave
//! identically on every input and every initial memory) but *incomplete*
//! (`None` means "not proved", never "different").
//!
//! # The model
//!
//! Every value of both functions becomes a hash-consed term:
//!
//! - `+`, `−`, `×`, negation, bitwise not and constants normalize to
//!   polynomials over Z/2^64, wrapping exactly like [`BinOp::eval`]; a
//!   shift left by a constant is a multiplication by a power of two;
//! - comparisons are canonicalized through [`BinOp::mirrored`]
//!   (`a > b` is `b < a`; `==`/`!=` sort their operands), and `!x` is
//!   `x == 0`;
//! - `&`, `|` and `^` are flattened and sorted (associative and
//!   commutative);
//! - every other operation (division, remainder, shifts by a variable,
//!   `Mux`) is an uninterpreted function of its normalized arguments;
//!   constant arguments fold through the operator's own `eval`;
//! - the leaves are inputs (by name), loop-header phis (by [`OpId`],
//!   matched between the two functions and checked coinductively), and
//!   loads. A load's term names the memory state it reads — its block
//!   plus the number of stores before it there — so the same address
//!   read across a store is never merged;
//! - a phi of a join block that is not a loop header (every predecessor
//!   comes before it in reverse postorder) is a *gated* term: its value
//!   is the incoming term of whichever edge entered the block last.
//!   Terms that differ only in gated terms are compared once per
//!   incoming edge of the join, with each gated term replaced by its
//!   value on that edge. That is what proves phi sinking.
//!
//! # What is compared
//!
//! Both functions must have the same blocks, the same terminator shapes
//! and successors, and the same memories. Then, per reachable block:
//! the branch condition, the in-order store sequence `(mem, addr,
//! value)`, the in-order output sequence `(name, value)`, the multiset of
//! loads, the set of input names read there, and the returned value; and
//! per loop-header phi, the incoming value of every edge. By induction
//! over an execution, equal terms at every block mean both functions take
//! the same path, store the same words, and emit the same outputs.
//!
//! Failures stay exact too. Division and remainder are total, so the
//! only run-time failures are out-of-bounds loads and stores (the same
//! accesses happen in the same block visits), a missing input (the same
//! names are read in the same blocks), and the step limit. Steps are ops
//! executed, which a rewrite may change; [`Equivalence::block_growth`]
//! reports the largest per-block increase so a caller can bound them.
//!
//! # Unrolled loops
//!
//! Unroll-by-2 changes the graph, so it comes with an [`UnrollMap`]: each
//! block `b` of one loop keeps its id for the parent's even iterations
//! (counted from 0 on every entry to the loop) and gains a copy `b.u`
//! for the odd ones. The prover checks the map against both graphs:
//! every candidate block must end like the block it stands for, with
//! each successor the block that stands for the parent's successor at
//! the parity the edge leads to (the back edge flips the parity, the
//! entry resets it to even). Then every candidate block's observations
//! are compared with its parent block's, moved to the candidate's point
//! of view:
//!
//! - in an even block, as they are;
//! - in a copy, *advanced one iteration*: the header's phis are replaced
//!   by their latch values (the previous, even iteration's), and the
//!   loop's loads and joins are renamed to the copy's blocks. A load's
//!   memory state thus names the copy it reads in, so reads in the two
//!   copies that sit across a store never merge;
//! - after the loop, as a gated term of the exit block: as they are on
//!   the edge from the header, advanced on the edge from its copy.
//!
//! The header's phis are checked coinductively as before, with the
//! incoming value of the copied latch advanced.
//!
//! # Fissioned loops
//!
//! Loop fission splits a loop of a header and one body block into
//! consecutive loops and comes with a [`FissionMap`]. Each parent
//! iteration stands for one iteration of every loop: a candidate phi is
//! the leaf of the parent phi it stands for, and every loop's entry and
//! back-edge phi values and header condition must be the parent's. A
//! loop reads no other loop's values but constants and inputs. Every
//! memory, the output stream and the input reads belong to one loop,
//! whose accesses — header and body apart, in order — are the parent's;
//! a loop block's load is named by the parent block it stands for and
//! the stores to its own memory before it. After the loops a leaf means
//! its loop's last iteration, as in the parent.

use crate::cfg::reverse_postorder;
use crate::func::{BasicBlock, Function, Terminator};
use crate::ids::{BlockId, OpId};
use crate::op::{BinOp, OpKind, UnOp};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// A successful proof of [`prove_equivalent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Equivalence {
    /// The largest increase in op count of any reachable block,
    /// candidate over parent (0 when no block grew). Every block entry
    /// of the candidate executes at most this many more ops than the
    /// parent's entry of the same block, so a run of the parent that
    /// executed `ops` ops over `entries` block entries runs at most
    /// `ops + entries × block_growth` ops in the candidate.
    ///
    /// A block entry of the parent stands for [`Self::entry_copies`]
    /// candidate entries at most; `block_growth` covers them all.
    pub block_growth: u64,
    /// The most candidate block entries one parent block entry stands
    /// for: 1, or the number of loops a fission made of one.
    pub entry_copies: u64,
}

/// How a candidate whose control-flow graph a rewrite changed stands for
/// its parent's: what [`prove_equivalent`] checks it against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphMap {
    /// One loop unrolled by 2.
    Unrolled(UnrollMap),
    /// One loop split into consecutive loops.
    Fissioned(FissionMap),
}

/// How the loops of a loop-fissioned candidate stand for its parent's
/// one loop of a header and a body block (see the
/// [module docs](self#fissioned-loops)). The candidate keeps both; each
/// further loop has the same shape and is entered where the one before
/// it exits. [`prove_equivalent`] checks the map against both graphs,
/// so a wrong map only fails to prove.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FissionMap {
    /// The parent's loop header, which the candidate's first loop keeps.
    pub header: BlockId,
    /// The further loops, in the order they run.
    pub loops: Vec<FissionLoop>,
}

/// One loop a fission added (see [`FissionMap`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FissionLoop {
    /// The loop's header.
    pub header: BlockId,
    /// Its body, which jumps back to the header.
    pub body: BlockId,
    /// Parent header phis, each with the phi of this header standing
    /// for it. Pairs whose phi the candidate no longer has are ignored.
    pub phis: Vec<(OpId, OpId)>,
}

/// How the blocks of a loop-unrolled candidate stand for its parent's
/// (see the [module docs](self#unrolled-loops)).
///
/// Unroll-by-2 copies every block of one innermost loop. The original
/// block keeps running the parent's even iterations, counted from 0 on
/// each entry to the loop, and its copy runs the odd ones.
/// [`prove_equivalent`] checks the map against both graphs, so a wrong
/// map only fails to prove.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnrollMap {
    /// The loop's header, the same block in both functions.
    pub header: BlockId,
    /// Each block of the parent's loop, with its copy in the candidate.
    pub copies: Vec<(BlockId, BlockId)>,
}

/// Tries to prove `candidate` observably equivalent to `parent`, for
/// every input vector and every initial memory image: the same path
/// through the control-flow graph, the same outputs, stores and return
/// value, and the same failures (see the [module docs](self)).
///
/// Without `map` the two functions must share their control-flow
/// graph. With it, `candidate` is `parent` with one loop unrolled by 2,
/// or split into several, as the map says.
///
/// Sound but incomplete: `None` means "not proved", and is also the
/// answer whenever the graphs do not correspond or a term grows past a
/// fixed budget.
///
/// # Examples
///
/// ```
/// use fact_ir::{prove_equivalent, BinOp, Function};
///
/// let build = |op, swap: bool| {
///     let mut f = Function::new("f");
///     let e = f.entry();
///     let a = f.emit_input(e, "a");
///     let b = f.emit_input(e, "b");
///     let (x, y) = if swap { (b, a) } else { (a, b) };
///     let v = f.emit_bin(e, op, x, y);
///     f.emit_output(e, "y", v);
///     f
/// };
/// let parent = build(BinOp::Add, false);
/// assert!(prove_equivalent(&parent, &build(BinOp::Add, true), None).is_some());
/// assert!(prove_equivalent(&build(BinOp::Sub, false), &build(BinOp::Sub, true), None).is_none());
/// ```
pub fn prove_equivalent(
    parent: &Function,
    candidate: &Function,
    map: Option<&GraphMap>,
) -> Option<Equivalence> {
    let cfg = match map {
        None => Cfg::shared(parent, candidate)?,
        Some(GraphMap::Unrolled(map)) => Cfg::unrolled(parent, candidate, map)?,
        Some(GraphMap::Fissioned(map)) => Cfg::fissioned(parent, candidate, map)?,
    };
    let mut terms = ARENA.with(|a| a.take());
    terms.clear();
    let proof = prove_on(parent, candidate, &cfg, &mut terms);
    ARENA.with(|a| a.replace(terms));
    proof
}

/// The op whose operands `candidate` exchanges, when `candidate` is
/// `parent` with exactly that edit: the same op under the same
/// commutative [`BinOp`], or under its [`BinOp::mirrored`] comparison,
/// with its two operands swapped. Every block, every other op and the
/// memory table must be `parent`'s own storage, shared by a clone
/// ([`Function::has_blocks`], [`Function::shares_op_storage`]), so the
/// check is a pointer comparison per block and op plus one op's
/// contents. It trusts nothing about how `candidate` was made: any other
/// difference, or contents equal to `parent`'s in storage of its own,
/// answers `None`.
///
/// Such a candidate computes the same value in the same op on every
/// vector, and every dependence, unit choice and priority of a schedule
/// sees the swapped op as it saw the original (DESIGN §8.5.2).
///
/// # Examples
///
/// ```
/// use fact_ir::{operand_swap_of, BinOp, OpKind};
///
/// let mut f = fact_ir::Function::new("f");
/// let e = f.entry();
/// let a = f.emit_input(e, "a");
/// let b = f.emit_input(e, "b");
/// let lt = f.emit_bin(e, BinOp::Lt, a, b);
/// f.emit_output(e, "y", lt);
/// let mut g = f.clone();
/// g.op_mut(lt).kind = OpKind::Bin(BinOp::Gt, b, a);
/// assert_eq!(operand_swap_of(&f, &g), Some(lt));
/// g.op_mut(lt).kind = OpKind::Bin(BinOp::Ge, b, a);
/// assert_eq!(operand_swap_of(&f, &g), None);
/// ```
pub fn operand_swap_of(parent: &Function, candidate: &Function) -> Option<OpId> {
    if !candidate.has_blocks(parent.entry(), parent.block_storage())
        || !candidate.shares_memory_storage(parent)
    {
        return None;
    }
    let (p, c) = (parent.op_storage(), candidate.op_storage());
    if p.len() != c.len() {
        return None;
    }
    let mut changed = (0..p.len()).filter(|&i| !Arc::ptr_eq(&p[i], &c[i]));
    let i = changed.next()?;
    if changed.next().is_some() || p[i].label != c[i].label {
        return None;
    }
    let (OpKind::Bin(op, x, y), OpKind::Bin(swapped, y2, x2)) = (&p[i].kind, &c[i].kind) else {
        return None;
    };
    let same_op = if op.is_commutative() {
        swapped == op
    } else {
        op.mirrored() == Some(*swapped)
    };
    (same_op && x == x2 && y == y2).then_some(OpId::new(i))
}

/// [`prove_equivalent`] over the corresponding graphs `cfg`, in `terms`.
fn prove_on(
    parent: &Function,
    candidate: &Function,
    cfg: &Cfg,
    terms: &mut Terms,
) -> Option<Equivalence> {
    let mut pair = Pair::new(parent, candidate, cfg, terms)?;
    let (mut block_growth, mut entry_copies) = (0u64, 1u64);
    if let Shape::Fissioned(x) = &cfg.shape {
        block_growth = pair.fissioned_loops_agree(x)?;
        entry_copies = x.loops.len() as u64;
    }
    for &c in cfg.rpo() {
        if cfg.loop_of(c).is_some() {
            continue; // compared loop by loop above
        }
        let b = cfg.parent_block(c);
        if !(cfg.seen_as_is(c) && pair.block_unchanged(c)) {
            pair.observations_agree(c)?;
        }
        if cfg.is_header(c) {
            pair.header_phis_agree(c)?;
        }
        let (np, nc) = (
            parent.block(b).ops.len() as u64,
            candidate.block(c).ops.len() as u64,
        );
        block_growth = block_growth.max(nc.saturating_sub(np));
    }
    Some(Equivalence {
        block_growth,
        entry_copies,
    })
}

/// The two functions' control-flow graphs and how they correspond.
struct Cfg {
    /// The parent's graph, which is also the candidate's when the two
    /// share it.
    parent: Rc<ParentGraph>,
    shape: Shape,
}

/// How the candidate's graph corresponds to the parent's.
enum Shape {
    /// The two functions share their graph.
    Shared,
    Unrolled(Unroll),
    Fissioned(Fission),
}

/// One function's control-flow graph as the prover walks it.
struct Graph {
    /// Reachable blocks in reverse postorder.
    rpo: Vec<BlockId>,
    /// Reachable predecessors of each block. In a candidate, in the
    /// order of the parent's predecessors of the block it stands for:
    /// join terms of both functions list their incoming terms in this
    /// order.
    preds: Vec<Vec<BlockId>>,
    /// Whether each block's phis are leaves checked coinductively (some
    /// predecessor does not precede it in reverse postorder) rather than
    /// gated terms. In a candidate, the same as for the parent block each
    /// stands for.
    is_header: Vec<bool>,
}

/// A parent's [`Graph`]. A search proves its candidates one parent at a
/// time, so each thread keeps the last parent's ([`ParentGraph::of`]).
struct ParentGraph {
    /// The parent's blocks, held so that their storage identifies it
    /// ([`Function::has_blocks`]).
    blocks: Vec<Arc<BasicBlock>>,
    entry: BlockId,
    graph: Graph,
}

thread_local! {
    /// The last parent proved against on this thread.
    static PARENT: RefCell<Option<Rc<ParentGraph>>> = const { RefCell::new(None) };
}

impl ParentGraph {
    /// `parent`'s graph: this thread's last one when `parent` has its
    /// blocks, else computed and kept.
    fn of(parent: &Function) -> Rc<ParentGraph> {
        PARENT.with(|last| {
            let mut last = last.borrow_mut();
            if let Some(g) = &*last {
                if parent.has_blocks(g.entry, &g.blocks) {
                    return g.clone();
                }
            }
            let g = Rc::new(ParentGraph {
                blocks: parent.block_storage().to_vec(),
                entry: parent.entry(),
                graph: Graph::of(parent),
            });
            *last = Some(g.clone());
            g
        })
    }
}

/// A checked unroll-by-2 correspondence (see [`UnrollMap`]).
struct Unroll {
    /// The candidate's graph.
    graph: Graph,
    header: BlockId,
    /// The loop's only exit, taken from the header only.
    exit: BlockId,
    /// The parent's only loop block that branches to the header.
    latch: BlockId,
    /// Per parent block: its copy, for the loop's blocks.
    copy: Vec<Option<BlockId>>,
    /// Per candidate block: the parent block it stands for, and whether
    /// it runs odd iterations.
    stands_for: Vec<Option<(BlockId, bool)>>,
    /// Per candidate block: whether it can run after the loop (is
    /// reachable from the exit). Only there can a term hold the loop's
    /// values: every path from a loop block out of the loop leaves
    /// through the exit.
    after: Vec<bool>,
}

/// A checked fission correspondence (see [`FissionMap`]).
struct Fission {
    /// The candidate's graph.
    graph: Graph,
    /// The parent loop's header, body and exit block.
    header: BlockId,
    body: BlockId,
    exit: BlockId,
    /// The candidate's loops, `(header, body)` in the order they run:
    /// the parent's own first.
    loops: Vec<(BlockId, BlockId)>,
    /// Per candidate block: the loop it belongs to.
    loop_of: Vec<Option<usize>>,
    /// Per further loop's header phi (by op id): the parent phi it
    /// stands for.
    phi_of: FxMap<u32, u32>,
}

/// Where a parent term is compared from a candidate block's point of
/// view (see [`Pair::seen_from`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum View {
    /// As it is: no unrolled loop, an even iteration of it, or a block
    /// that cannot run after it.
    AsIs,
    /// Advanced one iteration: a copy.
    Odd,
    /// After the loop: gated by the exit edge taken.
    Exited,
}

impl Graph {
    /// `f`'s graph, each block's reachable predecessors in terminator
    /// order.
    fn of(f: &Function) -> Graph {
        let rpo = reverse_postorder(f);
        let mut preds = vec![Vec::new(); f.num_blocks()];
        for &b in &rpo {
            for s in f.block(b).term.successors() {
                preds[s.index()].push(b);
            }
        }
        Graph {
            is_header: headers(&rpo, &preds),
            rpo,
            preds,
        }
    }
}

/// Per block of a graph with reachable blocks `rpo` and predecessors
/// `preds`: whether some predecessor does not precede it.
fn headers(rpo: &[BlockId], preds: &[Vec<BlockId>]) -> Vec<bool> {
    let mut order = vec![usize::MAX; preds.len()];
    for (i, b) in rpo.iter().enumerate() {
        order[b.index()] = i;
    }
    (0..preds.len())
        .map(|b| preds[b].iter().any(|p| order[p.index()] >= order[b]))
        .collect()
}

/// Whether two terminators have the same shape: both jumps, both
/// branches, or both returns with or without a value. Successors are
/// compared by the caller.
fn same_shape(x: &Terminator, y: &Terminator) -> bool {
    match (x, y) {
        (Terminator::Jump(_), Terminator::Jump(_))
        | (Terminator::Branch { .. }, Terminator::Branch { .. }) => true,
        (Terminator::Return(x), Terminator::Return(y)) => x.is_some() == y.is_some(),
        _ => false,
    }
}

fn same_memories(parent: &Function, candidate: &Function) -> bool {
    parent.entry() == candidate.entry()
        && parent
            .memories()
            .map(|(_, m)| m)
            .eq(candidate.memories().map(|(_, m)| m))
}

impl Cfg {
    /// The shared graph, or `None` when the blocks, terminator shapes,
    /// successors or memories differ.
    fn shared(parent: &Function, candidate: &Function) -> Option<Cfg> {
        if parent.num_blocks() != candidate.num_blocks() || !same_memories(parent, candidate) {
            return None;
        }
        for b in parent.block_ids() {
            if candidate.shares_block_storage(parent, b) {
                continue;
            }
            let (x, y) = (&parent.block(b).term, &candidate.block(b).term);
            if !same_shape(x, y) || *x.successors() != *y.successors() {
                return None;
            }
        }
        Some(Cfg {
            parent: ParentGraph::of(parent),
            shape: Shape::Shared,
        })
    }

    /// The correspondence `map` describes between `parent` and its
    /// unrolled `candidate`, or `None` when the graphs do not have it.
    ///
    /// The loop must have one latch and one exit edge, from the header
    /// to a block with no other predecessor, and no other way in than
    /// the header. Every candidate block standing for a reachable parent
    /// block at a parity must end like it, with each successor the block
    /// that stands for the parent's successor at the parity of the edge:
    /// the back edge flips it, entering the loop resets it to even, and
    /// leaving the loop lands on the parent's exit block.
    fn unrolled(parent: &Function, candidate: &Function, map: &UnrollMap) -> Option<Cfg> {
        let (n, nc) = (parent.num_blocks(), candidate.num_blocks());
        if !same_memories(parent, candidate) {
            return None;
        }
        let mut copy: Vec<Option<BlockId>> = vec![None; n];
        let mut stands_for: Vec<Option<(BlockId, bool)>> = (0..nc)
            .map(|c| (c < n).then_some((BlockId(c as u32), false)))
            .collect();
        for &(b, c) in &map.copies {
            if b.index() >= n || c.index() < n || c.index() >= nc {
                return None;
            }
            if copy[b.index()].is_some() || stands_for[c.index()].is_some() {
                return None;
            }
            copy[b.index()] = Some(c);
            stands_for[c.index()] = Some((b, true));
        }
        let header = map.header;
        let in_loop = |b: BlockId| copy[b.index()].is_some();
        if header.index() >= n || !in_loop(header) {
            return None;
        }
        let pg = ParentGraph::of(parent);
        let (parent_rpo, parent_preds) = (&pg.graph.rpo, &pg.graph.preds);
        let mut latches = parent_preds[header.index()]
            .iter()
            .copied()
            .filter(|&p| in_loop(p));
        let latch = latches.next()?;
        if latches.any(|p| p != latch) {
            return None;
        }
        let mut exit = None;
        for &b in parent_rpo.iter().filter(|&&b| in_loop(b)) {
            for s in parent.block(b).term.successors() {
                if !in_loop(s) {
                    if b != header || exit.is_some_and(|x| x != s) {
                        return None;
                    }
                    exit = Some(s);
                }
            }
        }
        let exit = exit?;
        if parent_preds[exit.index()] != [header] {
            return None;
        }
        let at = |b: BlockId, odd: bool| if odd { copy[b.index()] } else { Some(b) };
        let mut preds = vec![Vec::new(); nc];
        let mut images = 0;
        for &b in parent_rpo {
            for odd in [false, true] {
                if odd && !in_loop(b) {
                    continue;
                }
                images += 1;
                let c = at(b, odd)?;
                let (pt, ct) = (&parent.block(b).term, &candidate.block(c).term);
                if !same_shape(pt, ct) || pt.successors().len() != ct.successors().len() {
                    return None;
                }
                for (s, cs) in pt.successors().into_iter().zip(ct.successors()) {
                    let expected = match (in_loop(b), in_loop(s)) {
                        (true, true) if s == header => at(header, !odd)?,
                        (true, true) => at(s, odd)?,
                        (false, true) if s != header => return None,
                        _ => s,
                    };
                    if cs != expected {
                        return None;
                    }
                }
                preds[c.index()] = if b == exit {
                    vec![header, at(header, true)?]
                } else {
                    let mut ps = Vec::new();
                    for &q in &parent_preds[b.index()] {
                        match (in_loop(b), in_loop(q)) {
                            (true, true) if b == header => ps.push(at(q, !odd)?),
                            (true, true) => ps.push(at(q, odd)?),
                            (true, false) if odd => {}
                            _ => ps.push(q),
                        }
                    }
                    ps
                };
            }
        }
        let rpo = reverse_postorder(candidate);
        if rpo.len() != images || rpo.iter().any(|c| stands_for[c.index()].is_none()) {
            return None;
        }
        let is_header = headers(&rpo, &preds);
        let parent_header = &pg.graph.is_header;
        let mut after = vec![false; nc];
        let mut stack = vec![exit];
        while let Some(b) = stack.pop() {
            if !std::mem::replace(&mut after[b.index()], true) {
                stack.extend(candidate.block(b).term.successors());
            }
        }
        for &c in &rpo {
            let (b, odd) = stands_for[c.index()]?;
            if is_header[c.index()] != (!odd && parent_header[b.index()]) {
                return None;
            }
        }
        Some(Cfg {
            shape: Shape::Unrolled(Unroll {
                graph: Graph {
                    rpo,
                    preds,
                    is_header,
                },
                header,
                exit,
                latch,
                copy,
                stands_for,
                after,
            }),
            parent: pg,
        })
    }

    /// The correspondence `map` describes between `parent` and its
    /// fissioned `candidate`, or `None` when the graphs do not have it.
    ///
    /// The parent's loop must be its header and one body block that is
    /// entered from the header only and jumps back to it, entered from
    /// one block outside, and leaving from the header to a block with no
    /// other predecessor. Every candidate loop must branch like the
    /// parent's header (the body on the same side) and leave to the next
    /// loop's header, the last to the parent's exit; every other block
    /// must end as the parent's does.
    fn fissioned(parent: &Function, candidate: &Function, map: &FissionMap) -> Option<Cfg> {
        let (n, nc, h) = (parent.num_blocks(), candidate.num_blocks(), map.header);
        let added = 2 * map.loops.len();
        if !same_memories(parent, candidate) || nc != n + added || added == 0 || h.index() >= n {
            return None;
        }
        let pg = ParentGraph::of(parent);
        let parent_preds = &pg.graph.preds;
        let arms = |f: &Function, b: BlockId| match f.block(b).term {
            Terminator::Branch {
                on_true, on_false, ..
            } => Some([on_true, on_false]),
            _ => None,
        };
        let is_body = |s: BlockId| {
            s != h && parent.block(s).term == Terminator::Jump(h) && parent_preds[s.index()] == [h]
        };
        let parent_arms = arms(parent, h)?;
        let side = match parent_arms.map(is_body) {
            [true, false] => 0,
            [false, true] => 1,
            _ => return None,
        };
        let (b, exit) = (parent_arms[side], parent_arms[1 - side]);
        let entered = parent_preds[h.index()].iter().filter(|&&p| p != b).count();
        if exit == h || parent_preds[h.index()].len() != 2 || entered != 1 {
            return None;
        }
        if parent_preds[exit.index()] != [h] || !pg.graph.rpo.contains(&h) {
            return None;
        }
        let mut loops = vec![(h, b)];
        loops.extend(map.loops.iter().map(|l| (l.header, l.body)));
        let mut loop_of: Vec<Option<usize>> = vec![None; nc];
        let mut preds = parent_preds.clone();
        preds.resize(nc, Vec::new());
        for (k, &(lh, lb)) in loops.iter().enumerate() {
            for blk in [lh, lb] {
                let fresh = k == 0 || blk.index() >= n;
                if !fresh || blk.index() >= nc || loop_of[blk.index()].replace(k).is_some() {
                    return None;
                }
            }
            // Each loop branches like the parent's header and leaves to
            // the next loop, the last to the parent's exit.
            let next = loops.get(k + 1).map_or(exit, |l| l.0);
            let mut expected = [next; 2];
            expected[side] = lb;
            if arms(candidate, lh)? != expected || candidate.block(lb).term != Terminator::Jump(lh)
            {
                return None;
            }
            if k > 0 {
                preds[lh.index()] = vec![loops[k - 1].0, lb];
                preds[lb.index()] = vec![lh];
            }
        }
        preds[exit.index()] = vec![loops[loops.len() - 1].0];
        for c in parent.block_ids().filter(|&c| loop_of[c.index()].is_none()) {
            let (x, y) = (&parent.block(c).term, &candidate.block(c).term);
            if !same_shape(x, y) || *x.successors() != *y.successors() {
                return None;
            }
        }
        let rpo = reverse_postorder(candidate);
        let is_header = headers(&rpo, &preds);
        let header_as_expected = |&c: &BlockId| {
            is_header[c.index()]
                == match loop_of[c.index()] {
                    Some(k) => c == loops[k].0,
                    None => pg.graph.is_header[c.index()],
                }
        };
        if rpo.len() != pg.graph.rpo.len() + added || !rpo.iter().all(header_as_expected) {
            return None;
        }
        let phi_of: FxMap<u32, u32> = map
            .loops
            .iter()
            .flat_map(|l| &l.phis)
            .map(|&(p, c)| (c.0, p.0))
            .collect();
        if phi_of.len() != map.loops.iter().map(|l| l.phis.len()).sum::<usize>() {
            return None; // a phi standing for two
        }
        let graph = Graph {
            rpo,
            preds,
            is_header,
        };
        let (header, body) = (h, b);
        let shape = Shape::Fissioned(Fission {
            graph,
            header,
            body,
            exit,
            loops,
            loop_of,
            phi_of,
        });
        Some(Cfg { shape, parent: pg })
    }

    /// The candidate's graph.
    fn graph(&self) -> &Graph {
        match &self.shape {
            Shape::Shared => &self.parent.graph,
            Shape::Unrolled(u) => &u.graph,
            Shape::Fissioned(x) => &x.graph,
        }
    }

    /// The fissioned loop candidate block `c` belongs to, if any.
    fn loop_of(&self, c: BlockId) -> Option<usize> {
        match &self.shape {
            Shape::Fissioned(x) => x.loop_of[c.index()],
            _ => None,
        }
    }

    /// Whether `side`'s block `b` names its loads by the stores to their
    /// own memory before them: the blocks of a fissioned loop, whose
    /// stores to other memories moved to other loops.
    fn per_memory(&self, cand: bool, b: BlockId) -> bool {
        match &self.shape {
            Shape::Fissioned(x) if cand => x.loop_of[b.index()].is_some(),
            Shape::Fissioned(x) => b == x.header || b == x.body,
            _ => false,
        }
    }

    /// The leaf of header phi `phi` of `side`'s block `b`: the parent
    /// phi it stands for. `None` for a phi of a further fissioned loop
    /// the map does not give one for.
    fn phi_leaf(&self, cand: bool, b: BlockId, phi: OpId) -> Option<u32> {
        match &self.shape {
            Shape::Fissioned(x) if cand && x.loop_of[b.index()].is_some_and(|k| k > 0) => {
                x.phi_of.get(&phi.0).copied()
            }
            _ => Some(phi.0),
        }
    }

    /// Reachable candidate blocks in reverse postorder.
    fn rpo(&self) -> &[BlockId] {
        &self.graph().rpo
    }

    /// Reachable predecessors of candidate block `b` (see [`Graph`]).
    fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.graph().preds[b.index()]
    }

    /// Whether candidate block `b`'s phis are leaves (see [`Graph`]).
    fn is_header(&self, b: BlockId) -> bool {
        self.graph().is_header[b.index()]
    }

    /// The parent block candidate block `c` stands for.
    fn parent_block(&self, c: BlockId) -> BlockId {
        match &self.shape {
            Shape::Shared => c,
            Shape::Unrolled(u) => u.stands_for[c.index()].expect("a reachable block").0,
            Shape::Fissioned(x) => match x.loop_of[c.index()] {
                Some(k) if c == x.loops[k].0 => x.header,
                Some(_) => x.body,
                None => c,
            },
        }
    }

    /// How parent terms are seen from candidate block `c`.
    fn view(&self, c: BlockId) -> View {
        let Shape::Unrolled(u) = &self.shape else {
            return View::AsIs;
        };
        match u.stands_for[c.index()] {
            Some((_, true)) => View::Odd,
            Some((b, false)) if u.copy[b.index()].is_none() && u.after[c.index()] => View::Exited,
            _ => View::AsIs,
        }
    }

    /// Whether the candidate sees block `c`'s parent terms as they are,
    /// so that ops it shares with the parent there are the parent's.
    fn seen_as_is(&self, c: BlockId) -> bool {
        self.view(c) == View::AsIs
    }

    /// The predecessors `side`'s join terms of block `b` range over: the
    /// parent's exit block has only the header.
    fn join_preds(&self, cand: bool, b: BlockId) -> &[BlockId] {
        match &self.shape {
            Shape::Unrolled(u) if !cand && b == u.exit => std::slice::from_ref(&u.header),
            Shape::Fissioned(x) if !cand && b == x.exit => std::slice::from_ref(&x.header),
            _ => self.preds(b),
        }
    }
}

/// What one block of one function does, as terms.
#[derive(Default)]
struct Observed<'f> {
    /// Input names read, sorted.
    inputs: Vec<&'f str>,
    /// Stores in program order: `(memory, address, value)`.
    stores: Vec<(u32, Term, Term)>,
    /// Outputs in program order.
    outputs: Vec<(&'f str, Term)>,
    /// Load terms (each naming its memory state), sorted.
    loads: Vec<Term>,
    /// The branch condition or the returned value.
    exit: Option<Term>,
}

/// Marks a term not computed yet.
const UNKNOWN: Term = u32::MAX;
/// Marks a term being computed (a cycle means malformed SSA).
const BUSY: Term = u32::MAX - 1;

/// One function of the pair, with its terms built on demand.
struct Side<'f> {
    f: &'f Function,
    /// Per op placed in a reachable block: the block, and the number of
    /// stores before the op there (a load's memory state).
    loc: Vec<Option<(BlockId, u32)>>,
    /// Per op: its term, [`UNKNOWN`] or [`BUSY`].
    vals: Vec<Term>,
}

impl<'f> Side<'f> {
    /// Places `f`'s ops in the reachable `blocks`. A load's memory state
    /// counts every store before it in its block, or — where
    /// `per_memory` says so — only the stores to its own memory.
    fn locate(
        f: &'f Function,
        blocks: &[BlockId],
        per_memory: impl Fn(BlockId) -> bool,
    ) -> Side<'f> {
        let mut loc = vec![None; f.num_ops()];
        let mut by_memory = vec![0u32; f.memories().count()];
        for &b in blocks {
            let per_memory = per_memory(b);
            by_memory.fill(0);
            let mut stores = 0;
            for &op in &f.block(b).ops {
                let kind = &f.op(op).kind;
                let count = match kind.memory() {
                    Some(m) if per_memory => &mut by_memory[m.index()],
                    _ => &mut stores,
                };
                loc[op.index()] = Some((b, *count));
                if matches!(kind, OpKind::Store { .. }) {
                    *count += 1;
                }
            }
        }
        Side {
            f,
            vals: vec![UNKNOWN; f.num_ops()],
            loc,
        }
    }

    /// The value `phi` receives along the edge from `pred`.
    fn incoming(&self, phi: OpId, pred: BlockId) -> Option<OpId> {
        let OpKind::Phi(incoming) = &self.f.op(phi).kind else {
            return None;
        };
        incoming.iter().find(|(p, _)| *p == pred).map(|&(_, v)| v)
    }
}

/// The parent and the candidate, sharing one term arena.
///
/// Most of a candidate is its parent's ops, unchanged. `same` marks the
/// candidate ops whose term is the parent's term of the same op, without
/// building either: a pure op the candidate still shares with the parent
/// ([`Function::shares_op_storage`]) whose operands are all `same`; an
/// effect, load or input shared and in the same place; or a rewritten op
/// whose term turned out equal to the parent's. Terms are built only for
/// what differs, and for the parent ops that feeds on.
struct Pair<'a> {
    cfg: &'a Cfg,
    parent: Side<'a>,
    candidate: Side<'a>,
    same: Vec<bool>,
    terms: &'a mut Terms,
    /// Advancing parent terms one iteration of an unrolled loop: each
    /// header phi's term on the back edge, and the results so far.
    /// Built on first use.
    next: Option<(FxMap<u32, Term>, FxMap<Term, Term>)>,
}

impl<'a> Pair<'a> {
    fn new(
        parent: &'a Function,
        candidate: &'a Function,
        cfg: &'a Cfg,
        terms: &'a mut Terms,
    ) -> Option<Pair<'a>> {
        let mut pair = Pair {
            cfg,
            parent: Side::locate(parent, &cfg.parent.graph.rpo, |b| cfg.per_memory(false, b)),
            candidate: Side::locate(candidate, cfg.rpo(), |b| cfg.per_memory(true, b)),
            same: vec![false; candidate.num_ops()],
            terms,
            next: None,
        };
        let mut operands = Vec::new();
        for &b in cfg.rpo() {
            for &op in &candidate.block(b).ops {
                let i = op.index();
                let Some(&Some(pl)) = pair.parent.loc.get(i) else {
                    continue; // a new op, or not placed in the parent
                };
                let cl = pair.candidate.loc[i].expect("placed in a reachable block");
                let kind = &candidate.op(op).kind;
                operands.clear();
                kind.operands_into(&mut operands);
                let inherited = candidate.shares_op_storage(parent, op)
                    && operands.iter().all(|v| pair.same[v.index()]);
                let same = match kind {
                    OpKind::Const(_) | OpKind::Bin(..) | OpKind::Un(..) | OpKind::Mux { .. } => {
                        inherited
                    }
                    // A loop-header phi is a leaf, or stands for the
                    // parent's op it replaced (checked by
                    // `header_phis_agree`).
                    OpKind::Phi(_) if cfg.is_header(b) => pl.0 == b,
                    // Not at an unrolled loop's exit, where the candidate
                    // has an edge more.
                    OpKind::Phi(_) => {
                        inherited
                            && pl.0 == b
                            && cfg.join_preds(false, b) == cfg.join_preds(true, b)
                    }
                    OpKind::Input(_)
                    | OpKind::Load { .. }
                    | OpKind::Store { .. }
                    | OpKind::Output(..) => inherited && pl == cl,
                };
                pair.same[i] = same
                    || match kind {
                        // Cut-off: a rewritten value equal to the
                        // parent's makes its users `same` again.
                        OpKind::Bin(..) | OpKind::Un(..) | OpKind::Mux { .. } | OpKind::Phi(_) => {
                            let c = pair.term(true, op)?;
                            match pair.term(false, op) {
                                Some(p) => pair.terms.equal(p, c, cfg)?,
                                None => false,
                            }
                        }
                        _ => false,
                    };
            }
        }
        Some(pair)
    }

    /// The term of `op` in the candidate (`cand`) or the parent, built on
    /// first use. `None` when `op` is not placed in a reachable block,
    /// the SSA is malformed, or the term budget ran out.
    fn term(&mut self, cand: bool, op: OpId) -> Option<Term> {
        if cand && self.same[op.index()] {
            return self.term(false, op);
        }
        let side = if cand {
            &mut self.candidate
        } else {
            &mut self.parent
        };
        match side.vals[op.index()] {
            UNKNOWN => side.vals[op.index()] = BUSY,
            BUSY => return None,
            t => return Some(t),
        }
        let f = side.f;
        let (b, stores) = side.loc[op.index()]?;
        let t = match &f.op(op).kind {
            OpKind::Const(c) => self.terms.konst(*c)?,
            OpKind::Input(name) => self.terms.mk(Node::Input(name.clone()))?,
            OpKind::Bin(o, x, y) => {
                let (x, y) = (self.term(cand, *x)?, self.term(cand, *y)?);
                self.terms.bin(*o, x, y)?
            }
            OpKind::Un(o, x) => {
                let x = self.term(cand, *x)?;
                self.terms.un(*o, x)?
            }
            OpKind::Mux {
                cond,
                on_true,
                on_false,
            } => {
                let c = self.term(cand, *cond)?;
                let t = self.term(cand, *on_true)?;
                let e = self.term(cand, *on_false)?;
                self.terms.mux(c, t, e)?
            }
            OpKind::Phi(_) if self.cfg.is_header(b) => {
                let leaf = self.cfg.phi_leaf(cand, b, op)?;
                self.terms.mk(Node::Phi(leaf))?
            }
            OpKind::Phi(incoming) => {
                let cfg = self.cfg;
                let preds = cfg.join_preds(cand, b);
                let mut gated = Vec::with_capacity(preds.len());
                for p in preds {
                    let &(_, v) = incoming.iter().find(|(q, _)| q == p)?;
                    gated.push(self.term(cand, v)?);
                }
                self.terms.join(b.0, gated)?
            }
            OpKind::Load { mem, addr } => {
                let addr = self.term(cand, *addr)?;
                // A fissioned loop's loads are named by the parent block
                // they stand for.
                let block = match self.cfg.per_memory(cand, b) {
                    true => self.cfg.parent_block(b),
                    false => b,
                };
                self.terms.mk(Node::Load {
                    block: block.0,
                    stores,
                    mem: mem.0,
                    addr,
                })?
            }
            OpKind::Store { .. } | OpKind::Output(..) => self.terms.konst(0)?,
        };
        let side = if cand {
            &mut self.candidate
        } else {
            &mut self.parent
        };
        side.vals[op.index()] = t;
        Some(t)
    }

    /// Whether block `b` is provably unchanged: the candidate still
    /// shares its storage (same ops, same terminator) and every op and
    /// the exit value are `same`.
    fn block_unchanged(&self, b: BlockId) -> bool {
        let (parent, candidate) = (self.parent.f, self.candidate.f);
        candidate.shares_block_storage(parent, b)
            && candidate
                .block(b)
                .ops
                .iter()
                .all(|op| self.same[op.index()])
            && exit_value(candidate, b).is_none_or(|v| self.same[v.index()])
    }

    /// What block `b` does in the candidate or the parent.
    fn observe(&mut self, cand: bool, b: BlockId) -> Option<Observed<'a>> {
        let f = if cand {
            self.candidate.f
        } else {
            self.parent.f
        };
        let mut o = Observed::default();
        for &op in &f.block(b).ops {
            match &f.op(op).kind {
                OpKind::Input(name) => o.inputs.push(name),
                OpKind::Load { .. } => o.loads.push(self.term(cand, op)?),
                OpKind::Store { mem, addr, value } => {
                    let (a, v) = (self.term(cand, *addr)?, self.term(cand, *value)?);
                    o.stores.push((mem.0, a, v));
                }
                OpKind::Output(name, v) => o.outputs.push((name, self.term(cand, *v)?)),
                _ => {}
            }
        }
        o.exit = match exit_value(f, b) {
            Some(v) => Some(self.term(cand, v)?),
            None => None,
        };
        o.inputs.sort_unstable();
        o.loads.sort_unstable();
        Some(o)
    }

    /// Parent term `t`, evaluated at the end of a visit to the block
    /// candidate block `c` stands for, as the candidate sees it there
    /// (see [`View`]).
    fn seen_from(&mut self, c: BlockId, t: Term) -> Option<Term> {
        let cfg = self.cfg;
        match cfg.view(c) {
            View::AsIs => Some(t),
            View::Odd => self.advance(t),
            View::Exited => {
                // The exit block's predecessors are the header and its
                // copy, in that order.
                let odd = self.advance(t)?;
                let Shape::Unrolled(u) = &cfg.shape else {
                    return None;
                };
                let exit = u.exit;
                self.terms.join(exit.0, vec![t, odd])
            }
        }
    }

    /// Parent term `t` of one iteration of the unrolled loop, advanced to
    /// the next iteration as the candidate's copies see it: the header's
    /// phis become their values on the back edge, and the loop's loads
    /// and joins those of the copies.
    fn advance(&mut self, t: Term) -> Option<Term> {
        let cfg = self.cfg;
        let Shape::Unrolled(u) = &cfg.shape else {
            return None;
        };
        if self.next.is_none() {
            let parent = self.parent.f;
            let mut latch_terms = FxMap::default();
            for &phi in &parent.block(u.header).ops {
                if matches!(parent.op(phi).kind, OpKind::Phi(_)) {
                    let v = self.parent.incoming(phi, u.latch)?;
                    latch_terms.insert(phi.0, self.term(false, v)?);
                }
            }
            self.next = Some((latch_terms, FxMap::default()));
        }
        let (phis, mut memo) = self.next.take()?;
        let next = Subst::Next {
            phis: &phis,
            copy: &u.copy,
        };
        let r = self.terms.substitute(t, next, &mut memo);
        self.next = Some((phis, memo));
        r
    }

    /// Compares candidate block `c`'s observables with those of the
    /// parent block it stands for, as `c` sees them: input names, stores
    /// and outputs in order, loads as a multiset, and the exit value.
    fn observations_agree(&mut self, c: BlockId) -> Option<()> {
        let mut po = self.observe(false, self.cfg.parent_block(c))?;
        for (_, a, v) in &mut po.stores {
            *a = self.seen_from(c, *a)?;
            *v = self.seen_from(c, *v)?;
        }
        for (_, v) in &mut po.outputs {
            *v = self.seen_from(c, *v)?;
        }
        for t in &mut po.loads {
            *t = self.seen_from(c, *t)?;
        }
        if let Some(x) = po.exit {
            po.exit = Some(self.seen_from(c, x)?);
        }
        let co = self.observe(true, c)?;
        let cfg = self.cfg;
        let terms = &mut *self.terms;
        let agree = po.inputs == co.inputs
            && po.stores.len() == co.stores.len()
            && po.outputs.len() == co.outputs.len()
            && po.loads.len() == co.loads.len()
            && po.exit.is_some() == co.exit.is_some();
        if !agree {
            return None;
        }
        for (x, y) in po.stores.iter().zip(&co.stores) {
            if x.0 != y.0 || !terms.equal(x.1, y.1, cfg)? || !terms.equal(x.2, y.2, cfg)? {
                return None;
            }
        }
        for (x, y) in po.outputs.iter().zip(&co.outputs) {
            if x.0 != y.0 || !terms.equal(x.1, y.1, cfg)? {
                return None;
            }
        }
        if !terms.same_multiset(&po.loads, &co.loads, cfg)? {
            return None;
        }
        if let (Some(x), Some(y)) = (po.exit, co.exit) {
            if !terms.equal(x, y, cfg)? {
                return None;
            }
        }
        Some(())
    }

    /// Checks the phis of loop header `b` coinductively: assuming every
    /// phi of the two functions agrees on entry to `b`, it agrees again
    /// after each incoming edge. Every parent phi must stay a phi. A
    /// candidate phi the parent computes as an op of `b` instead (phi
    /// sinking into a loop header) stands for the parent's term of that
    /// op: on each edge its incoming value must equal that term with the
    /// parent's phis replaced by their incoming values on the edge.
    ///
    /// A header stands for itself. Each incoming edge stands for the
    /// parent's edge from the block its source stands for, and the
    /// parent's incoming value is seen from that source: the copied
    /// latch's is advanced one iteration.
    fn header_phis_agree(&mut self, b: BlockId) -> Option<()> {
        let (parent, candidate) = (self.parent.f, self.candidate.f);
        let is_phi = |f: &Function, op: OpId| {
            op.index() < f.num_ops() && matches!(f.op(op).kind, OpKind::Phi(_))
        };
        let phis: Vec<OpId> = parent
            .block(b)
            .ops
            .iter()
            .copied()
            .filter(|&op| is_phi(parent, op))
            .collect();
        for &phi in &phis {
            if !is_phi(candidate, phi) || self.candidate.loc[phi.index()]?.0 != b {
                return None;
            }
        }
        let mut sunk = Vec::new();
        for &x in &candidate.block(b).ops {
            if !is_phi(candidate, x) || phis.contains(&x) {
                continue;
            }
            if self.parent.loc.get(x.index()).copied().flatten()?.0 != b {
                return None;
            }
            // The op's term must be fixed on entry to `b`: no load of
            // `b` itself (its memory state comes later in the visit).
            let t = self.term(false, x)?;
            if self.terms.loads_in(t, b.0) {
                return None;
            }
            sunk.push((x, t));
        }
        let cfg = self.cfg;
        if !sunk.is_empty() && !matches!(cfg.shape, Shape::Shared) {
            return None;
        }
        for &pred in cfg.preds(b) {
            let mut on_edge = FxMap::default();
            for &phi in &phis {
                let vp = self.parent.incoming(phi, cfg.parent_block(pred))?;
                let vc = self.candidate.incoming(phi, pred)?;
                if vp == vc && self.same[vc.index()] && sunk.is_empty() && cfg.seen_as_is(pred) {
                    continue;
                }
                let x = self.term(false, vp)?;
                let (x, y) = (self.seen_from(pred, x)?, self.term(true, vc)?);
                if !self.terms.equal(x, y, cfg)? {
                    return None;
                }
                on_edge.insert(phi.0, x);
            }
            let mut memo = FxMap::default();
            for &(x, t) in &sunk {
                let expected = self.terms.substitute(t, Subst::Phis(&on_edge), &mut memo)?;
                let v = self.candidate.incoming(x, pred)?;
                let actual = self.term(true, v)?;
                if !self.terms.equal(expected, actual, cfg)? {
                    return None;
                }
            }
        }
        Some(())
    }

    /// Compares the loops of a fissioned candidate with the parent's one
    /// loop (see the [module docs](self#fissioned-loops)). Returns the
    /// largest increase in op count of the parent's header, or body,
    /// over all the blocks that stand for it.
    fn fissioned_loops_agree(&mut self, x: &Fission) -> Option<u64> {
        let (parent, candidate, cfg) = (self.parent.f, self.candidate.f, self.cfg);
        // A loop reads nothing another loop computes but constants and
        // inputs; its header phis' entry values are compared below.
        let local = |k: usize, v: OpId| match self.candidate.loc.get(v.index()).copied().flatten() {
            Some((blk, _)) => {
                x.loop_of[blk.index()].is_none_or(|j| j == k)
                    || matches!(candidate.op(v).kind, OpKind::Const(_) | OpKind::Input(_))
            }
            None => false,
        };
        let mut operands = Vec::new();
        for (k, &(h, b)) in x.loops.iter().enumerate() {
            for blk in [h, b] {
                operands.clear();
                operands.extend(exit_value(candidate, blk));
                for &op in &candidate.block(blk).ops {
                    match &candidate.op(op).kind {
                        OpKind::Phi(incoming) if blk == h => {
                            operands.extend(incoming.iter().filter(|(p, _)| *p == b).map(|e| e.1));
                        }
                        kind => kind.operands_into(&mut operands),
                    }
                }
                if !operands.iter().all(|&v| local(k, v)) {
                    return None;
                }
            }
        }
        // Every header phi stands for a parent header phi, with the
        // parent's value on entry and on the back edge.
        let (ph, pb) = (x.header, x.body);
        let pre = *cfg.parent.graph.preds[ph.index()]
            .iter()
            .find(|&&p| p != pb)?;
        for (k, &(h, b)) in x.loops.iter().enumerate() {
            let entry = if k == 0 { pre } else { x.loops[k - 1].0 };
            for &psi in &candidate.block(h).ops {
                if !matches!(candidate.op(psi).kind, OpKind::Phi(_)) {
                    continue;
                }
                let phi = OpId(cfg.phi_leaf(true, h, psi)?);
                let in_header = self.parent.loc.get(phi.index()).copied().flatten();
                if in_header.map(|l| l.0) != Some(ph) {
                    return None;
                }
                for (pp, cp) in [(pre, entry), (pb, b)] {
                    let vp = self.parent.incoming(phi, pp)?;
                    let vc = self.candidate.incoming(psi, cp)?;
                    let (tp, tc) = (self.term(false, vp)?, self.term(true, vc)?);
                    if !self.terms.equal(tp, tc, cfg)? {
                        return None;
                    }
                }
            }
        }
        // Every header branches on the parent's condition.
        let cond = self.term(false, exit_value(parent, ph)?)?;
        for &(h, _) in &x.loops {
            let c = self.term(true, exit_value(candidate, h)?)?;
            if !self.terms.equal(cond, c, cfg)? {
                return None;
            }
        }
        // Header and body apart: every memory's accesses, the outputs
        // and the input reads, each in the one loop that has them.
        let outputs = parent.memories().count();
        let mut growth = 0;
        let mut parts = Vec::with_capacity(2);
        for (side, pblk) in [ph, pb].into_iter().enumerate() {
            let cblks = x.loops.iter().map(|l| if side == 0 { l.0 } else { l.1 });
            let nc: usize = cblks.clone().map(|c| candidate.block(c).ops.len()).sum();
            growth = growth.max(nc.saturating_sub(parent.block(pblk).ops.len()) as u64);
            let ca = cblks
                .map(|c| self.accesses(true, c, outputs))
                .collect::<Option<Vec<_>>>()?;
            parts.push((self.accesses(false, pblk, outputs)?, ca));
        }
        for ch in 0..outputs + 2 {
            let on = |a: &&Access| a.channel == ch;
            let mut owners = (0..x.loops.len())
                .filter(|&k| parts.iter().any(|(_, ca)| ca[k].iter().any(|a| on(&a))));
            let owner = owners.next();
            if owners.next().is_some() {
                return None;
            }
            for (pa, ca) in &parts {
                let p: Vec<&Access> = pa.iter().filter(on).collect();
                let c: Vec<&Access> =
                    owner.map_or(Vec::new(), |k| ca[k].iter().filter(on).collect());
                if p.len() != c.len() {
                    return None;
                }
                for (a, b) in p.into_iter().zip(c) {
                    if (a.store, a.name) != (b.store, b.name)
                        || !self.terms.equal(a.addr, b.addr, cfg)?
                        || !self.terms.equal(a.value, b.value, cfg)?
                    {
                        return None;
                    }
                }
            }
        }
        Some(growth)
    }

    /// `side`'s block `b`'s loads, stores, outputs and input reads in
    /// program order, on the memories (by index), the output stream
    /// (`outputs`) and the inputs (one past it).
    fn accesses(&mut self, cand: bool, b: BlockId, outputs: usize) -> Option<Vec<Access<'a>>> {
        let f = if cand {
            self.candidate.f
        } else {
            self.parent.f
        };
        let mut out = Vec::new();
        for &op in &f.block(b).ops {
            let (channel, name, store, addr, value) = match &f.op(op).kind {
                OpKind::Load { mem, addr } => (mem.index(), None, false, Some(*addr), None),
                OpKind::Store { mem, addr, value } => {
                    (mem.index(), None, true, Some(*addr), Some(*value))
                }
                OpKind::Output(name, v) => (outputs, Some(name.as_str()), true, None, Some(*v)),
                OpKind::Input(name) => (outputs + 1, Some(name.as_str()), false, None, None),
                _ => continue,
            };
            let mut term = |v: Option<OpId>| v.map_or(Some(0), |v| self.term(cand, v));
            let (addr, value) = (term(addr)?, term(value)?);
            out.push(Access {
                channel,
                name,
                store,
                addr,
                value,
            });
        }
        Some(out)
    }
}

/// One access of a block to a memory, the output stream or the inputs.
struct Access<'f> {
    /// The memory's index; one past the last for the outputs, two past
    /// it for the inputs.
    channel: usize,
    /// An output's or an input's name.
    name: Option<&'f str>,
    /// A store or an output.
    store: bool,
    /// A load's or a store's address (else 0).
    addr: Term,
    /// The value stored or output (else 0).
    value: Term,
}

/// The value block `b`'s terminator reads: its branch condition or
/// returned value.
fn exit_value(f: &Function, b: BlockId) -> Option<OpId> {
    match f.block(b).term {
        Terminator::Branch { cond: v, .. } | Terminator::Return(Some(v)) => Some(v),
        Terminator::Jump(_) | Terminator::Return(None) => None,
    }
}

/// A hash-consed term: equal ids are equal terms.
type Term = u32;

/// An interned monomial: a sorted list of non-polynomial terms (id 0 is
/// the empty monomial, the constant 1).
type Mono = u32;

/// A polynomial: `(monomial, coefficient)` pairs, sorted by monomial and
/// distinct, coefficients non-zero (wrapping arithmetic on the bits).
type Poly = Vec<(Mono, u64)>;

/// The nodes of the term graph. Canonical by construction (see the
/// smart constructors of [`Terms`]), so structural equality is semantic
/// equality up to what the normal form captures.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Node {
    /// A sum of monomials over non-polynomial terms. Never a single
    /// term with coefficient 1 (that is the term itself).
    Poly(Poly),
    /// An input value, by name.
    Input(String),
    /// A loop-header phi, by op id (the same op in both functions).
    Phi(u32),
    /// A load from `mem` at `addr`, reading the memory state after the
    /// first `stores` stores of the current visit to `block`.
    Load {
        block: u32,
        stores: u32,
        mem: u32,
        addr: Term,
    },
    /// An uninterpreted binary operation (canonical comparisons,
    /// division, remainder, shifts).
    Bin(BinOp, Term, Term),
    /// `&`, `|` or `^` over its flattened, sorted operands.
    Ac(BinOp, Vec<Term>),
    /// The paper's select.
    Mux(Term, Term, Term),
    /// The phi of a non-header join block: the incoming term of the edge
    /// (by predecessor position) that entered the block last.
    Join(u32, Vec<Term>),
}

/// A substitution of leaves (see [`Terms::substitute`]).
#[derive(Clone, Copy)]
enum Subst<'a> {
    /// Every gated term of join `block` by its value on incoming edge
    /// `edge` (by predecessor position).
    Edge { block: u32, edge: u32 },
    /// Loop-header phis (by op id) by the given terms.
    Phis(&'a FxMap<u32, Term>),
    /// One iteration of an unrolled loop advanced to the next: its
    /// header's phis (by op id) by the given terms, and its loads and
    /// joins moved to the copies of their blocks (`copy`, by block).
    Next {
        phis: &'a FxMap<u32, Term>,
        copy: &'a [Option<BlockId>],
    },
}

/// Block `b` under substitution `s`: its copy when `s` advances an
/// unrolled loop it belongs to, itself otherwise.
fn moved(s: Subst<'_>, b: u32) -> u32 {
    match s {
        Subst::Next { copy, .. } => copy.get(b as usize).copied().flatten().map_or(b, |c| c.0),
        Subst::Edge { .. } | Subst::Phis(_) => b,
    }
}

/// A multiply-rotate hasher (the `FxHash` scheme): the keys here are
/// short runs of small integers, for which SipHash's setup dominates.
#[derive(Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

thread_local! {
    /// Each thread's term arena, cleared and reused by every proof so
    /// its tables keep their capacity.
    static ARENA: RefCell<Terms> = RefCell::new(Terms::default());
}

/// Term-graph size limits: past them a proof gives up.
const MAX_NODES: usize = 1 << 16;
const MAX_POLY_TERMS: usize = 256;
const MAX_DEGREE: usize = 16;
const MAX_SPLITS: usize = 4096;

/// The term arena shared by both sides of one proof.
#[derive(Default)]
struct Terms {
    nodes: Vec<Node>,
    /// Per node: 1 + the highest block index of a gated join inside it,
    /// 0 when it contains none.
    max_join: Vec<u32>,
    index: FxMap<Node, Term>,
    /// Interned monomials, with their `max_join`.
    monos: Vec<(Vec<Term>, u32)>,
    mono_index: FxMap<Vec<Term>, Mono>,
    /// Per `(join block, edge)`: term -> term with that join resolved.
    resolved: FxMap<(u32, u32), FxMap<Term, Term>>,
    /// Per-edge comparisons performed so far.
    splits: usize,
}

impl Terms {
    /// Empties the arena for the next proof, keeping its capacity.
    fn clear(&mut self) {
        self.nodes.clear();
        self.max_join.clear();
        self.index.clear();
        self.monos.clear();
        self.mono_index.clear();
        self.resolved.clear();
        self.splits = 0;
        self.monos.push((Vec::new(), 0));
        self.mono_index.insert(Vec::new(), 0);
    }

    /// Interns the monomial of the sorted `atoms`.
    fn mono(&mut self, atoms: &[Term]) -> Mono {
        if let Some(&m) = self.mono_index.get(atoms) {
            return m;
        }
        let m = self.monos.len() as Mono;
        let mj = atoms
            .iter()
            .map(|&t| self.max_join[t as usize])
            .max()
            .unwrap_or(0);
        self.monos.push((atoms.to_vec(), mj));
        self.mono_index.insert(atoms.to_vec(), m);
        m
    }

    /// Interns `node`.
    fn mk(&mut self, node: Node) -> Option<Term> {
        if let Some(&t) = self.index.get(&node) {
            return Some(t);
        }
        if self.nodes.len() >= MAX_NODES {
            return None;
        }
        let mj = |t: &Term| self.max_join[*t as usize];
        let max_join = match &node {
            Node::Poly(p) => p
                .iter()
                .map(|&(m, _)| self.monos[m as usize].1)
                .max()
                .unwrap_or(0),
            Node::Input(_) | Node::Phi(_) => 0,
            Node::Load { addr, .. } => mj(addr),
            Node::Bin(_, a, b) => mj(a).max(mj(b)),
            Node::Ac(_, xs) => xs.iter().map(mj).max().unwrap_or(0),
            Node::Mux(c, a, b) => mj(c).max(mj(a)).max(mj(b)),
            Node::Join(b, xs) => xs.iter().map(mj).max().unwrap_or(0).max(b + 1),
        };
        let t = self.nodes.len() as Term;
        self.nodes.push(node.clone());
        self.max_join.push(max_join);
        self.index.insert(node, t);
        Some(t)
    }

    fn konst(&mut self, c: i64) -> Option<Term> {
        self.poly(vec![(0, c as u64)])
    }

    fn as_const(&self, t: Term) -> Option<i64> {
        match &self.nodes[t as usize] {
            Node::Poly(p) if p.is_empty() => Some(0),
            Node::Poly(p) if p.len() == 1 && p[0].0 == 0 => Some(p[0].1 as i64),
            _ => None,
        }
    }

    /// `t` as a polynomial.
    fn poly_of(&mut self, t: Term) -> Poly {
        match &self.nodes[t as usize] {
            Node::Poly(p) => p.clone(),
            _ => vec![(self.mono(&[t]), 1)],
        }
    }

    /// Canonicalizes and interns a sum of monomials.
    fn poly(&mut self, mut p: Poly) -> Option<Term> {
        p.sort_unstable_by_key(|&(m, _)| m);
        p.dedup_by(|next, kept| {
            let merged = next.0 == kept.0;
            if merged {
                kept.1 = kept.1.wrapping_add(next.1);
            }
            merged
        });
        p.retain(|&(_, c)| c != 0);
        if p.len() > MAX_POLY_TERMS {
            return None;
        }
        if let [(m, 1)] = p[..] {
            if let [t] = self.monos[m as usize].0[..] {
                return Some(t);
            }
        }
        self.mk(Node::Poly(p))
    }

    fn add(&mut self, a: Term, b: Term) -> Option<Term> {
        let mut p = self.poly_of(a);
        p.extend(self.poly_of(b));
        self.poly(p)
    }

    fn scale(&mut self, a: Term, k: u64) -> Option<Term> {
        let p = self
            .poly_of(a)
            .into_iter()
            .map(|(m, c)| (m, c.wrapping_mul(k)))
            .collect();
        self.poly(p)
    }

    fn mul(&mut self, a: Term, b: Term) -> Option<Term> {
        let (pa, pb) = (self.poly_of(a), self.poly_of(b));
        if pa.len() * pb.len() > MAX_POLY_TERMS {
            return None;
        }
        let mut p = Vec::with_capacity(pa.len() * pb.len());
        let mut atoms = Vec::new();
        for &(ma, ca) in &pa {
            for &(mb, cb) in &pb {
                atoms.clear();
                atoms.extend_from_slice(&self.monos[ma as usize].0);
                atoms.extend_from_slice(&self.monos[mb as usize].0);
                if atoms.len() > MAX_DEGREE {
                    return None;
                }
                atoms.sort_unstable();
                p.push((self.mono(&atoms), ca.wrapping_mul(cb)));
            }
        }
        self.poly(p)
    }

    fn bin(&mut self, op: BinOp, a: Term, b: Term) -> Option<Term> {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.konst(op.eval(x, y));
        }
        match op {
            BinOp::Add => self.add(a, b),
            BinOp::Sub => {
                let nb = self.scale(b, u64::MAX)?;
                self.add(a, nb)
            }
            BinOp::Mul => self.mul(a, b),
            // `wrapping_shl` by `s` is multiplication by 2^s mod 2^64.
            BinOp::Shl if self.as_const(b).is_some() => {
                let s = self.as_const(b)? & 63;
                self.scale(a, 1u64 << s)
            }
            BinOp::Gt | BinOp::Ge => self.bin(op.mirrored()?, b, a),
            BinOp::Lt | BinOp::Le | BinOp::Eq | BinOp::Ne => {
                if a == b {
                    return self.konst(op.eval(0, 0));
                }
                let (a, b) = if op.is_commutative() && b < a {
                    (b, a)
                } else {
                    (a, b)
                };
                self.mk(Node::Bin(op, a, b))
            }
            BinOp::And | BinOp::Or | BinOp::Xor => {
                let mut args = Vec::new();
                let mut k: Option<i64> = None;
                for t in [a, b] {
                    let flat = match &self.nodes[t as usize] {
                        Node::Ac(o, xs) if *o == op => xs.clone(),
                        _ => vec![t],
                    };
                    for x in flat {
                        match self.as_const(x) {
                            Some(c) => k = Some(k.map_or(c, |k| op.eval(k, c))),
                            None => args.push(x),
                        }
                    }
                }
                if let Some(c) = k {
                    args.push(self.konst(c)?);
                }
                args.sort_unstable();
                self.mk(Node::Ac(op, args))
            }
            BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr => self.mk(Node::Bin(op, a, b)),
        }
    }

    fn un(&mut self, op: UnOp, a: Term) -> Option<Term> {
        match op {
            UnOp::Neg => self.scale(a, u64::MAX),
            // Two's complement: !x == -x - 1.
            UnOp::Not => {
                let neg = self.scale(a, u64::MAX)?;
                let one = self.konst(-1)?;
                self.add(neg, one)
            }
            UnOp::LNot => {
                let zero = self.konst(0)?;
                self.bin(BinOp::Eq, a, zero)
            }
        }
    }

    fn mux(&mut self, c: Term, t: Term, f: Term) -> Option<Term> {
        match self.as_const(c) {
            Some(0) => Some(f),
            Some(_) => Some(t),
            None if t == f => Some(t),
            None => self.mk(Node::Mux(c, t, f)),
        }
    }

    fn join(&mut self, block: u32, gated: Vec<Term>) -> Option<Term> {
        match gated.first() {
            Some(&t) if gated.iter().all(|&x| x == t) => Some(t),
            _ => self.mk(Node::Join(block, gated)),
        }
    }

    /// `t` with every gated term of join `block` replaced by its value on
    /// incoming edge `edge`. Only called with `block` the highest join
    /// inside `t` (or absent), so the descent stops at join-free terms.
    fn resolve(&mut self, t: Term, block: u32, edge: u32) -> Option<Term> {
        let mut memo = self.resolved.remove(&(block, edge)).unwrap_or_default();
        let r = self.substitute(t, Subst::Edge { block, edge }, &mut memo);
        self.resolved.insert((block, edge), memo);
        r
    }

    /// `t` rebuilt bottom-up under `s`, through the smart constructors
    /// (so the result is canonical again). `memo` caches results under
    /// one substitution.
    fn substitute(&mut self, t: Term, s: Subst<'_>, memo: &mut FxMap<Term, Term>) -> Option<Term> {
        if let Subst::Edge { block, .. } = s {
            if self.max_join[t as usize] != block + 1 {
                return Some(t);
            }
        }
        if let Some(&r) = memo.get(&t) {
            return Some(r);
        }
        let r = match self.nodes[t as usize].clone() {
            Node::Join(b, xs) => match s {
                Subst::Edge { block, edge } if b == block => xs[edge as usize],
                _ => {
                    let xs = self.substitute_all(&xs, s, memo)?;
                    self.join(moved(s, b), xs)?
                }
            },
            Node::Phi(op) => match s {
                Subst::Phis(map) | Subst::Next { phis: map, .. } => {
                    map.get(&op).copied().unwrap_or(t)
                }
                Subst::Edge { .. } => t,
            },
            Node::Input(_) => t,
            Node::Poly(p) => {
                let mut sum = self.konst(0)?;
                for (m, c) in p {
                    let mut prod = self.konst(c as i64)?;
                    for x in self.monos[m as usize].0.clone() {
                        let x = self.substitute(x, s, memo)?;
                        prod = self.mul(prod, x)?;
                    }
                    sum = self.add(sum, prod)?;
                }
                sum
            }
            Node::Load {
                block,
                stores,
                mem,
                addr,
            } => {
                let addr = self.substitute(addr, s, memo)?;
                self.mk(Node::Load {
                    block: moved(s, block),
                    stores,
                    mem,
                    addr,
                })?
            }
            Node::Bin(op, a, b) => {
                let a = self.substitute(a, s, memo)?;
                let b = self.substitute(b, s, memo)?;
                self.bin(op, a, b)?
            }
            Node::Ac(op, xs) => {
                let xs = self.substitute_all(&xs, s, memo)?;
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc = self.bin(op, acc, x)?;
                }
                acc
            }
            Node::Mux(c, a, b) => {
                let c = self.substitute(c, s, memo)?;
                let a = self.substitute(a, s, memo)?;
                let b = self.substitute(b, s, memo)?;
                self.mux(c, a, b)?
            }
        };
        memo.insert(t, r);
        Some(r)
    }

    fn substitute_all(
        &mut self,
        xs: &[Term],
        s: Subst<'_>,
        memo: &mut FxMap<Term, Term>,
    ) -> Option<Vec<Term>> {
        xs.iter().map(|&x| self.substitute(x, s, memo)).collect()
    }

    /// Whether `t` contains a load in `block`.
    fn loads_in(&self, t: Term, block: u32) -> bool {
        let mut stack = vec![t];
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match &self.nodes[t as usize] {
                Node::Load { block: b, .. } if *b == block => return true,
                Node::Load { addr, .. } => stack.push(*addr),
                Node::Poly(p) => {
                    for &(m, _) in p {
                        stack.extend(&self.monos[m as usize].0);
                    }
                }
                Node::Bin(_, a, b) => stack.extend([*a, *b]),
                Node::Ac(_, xs) | Node::Join(_, xs) => stack.extend(xs),
                Node::Mux(c, a, b) => stack.extend([*c, *a, *b]),
                Node::Input(_) | Node::Phi(_) => {}
            }
        }
        false
    }

    /// Whether `a` and `b` are provably equal: identical terms, or equal
    /// on every incoming edge of the highest join either contains.
    /// `None` when the comparison exhausted the budget.
    fn equal(&mut self, a: Term, b: Term, cfg: &Cfg) -> Option<bool> {
        if a == b {
            return Some(true);
        }
        let top = self.max_join[a as usize].max(self.max_join[b as usize]);
        if top == 0 {
            return Some(false);
        }
        let block = top - 1;
        for edge in 0..cfg.preds(BlockId(block)).len() as u32 {
            self.splits += 1;
            if self.splits > MAX_SPLITS {
                return None;
            }
            let (x, y) = (self.resolve(a, block, edge)?, self.resolve(b, block, edge)?);
            if !self.equal(x, y, cfg)? {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Whether two sorted term lists are equal as multisets under
    /// [`Terms::equal`] (a greedy matching: sound, not complete).
    fn same_multiset(&mut self, xs: &[Term], ys: &[Term], cfg: &Cfg) -> Option<bool> {
        if xs == ys {
            return Some(true);
        }
        let mut unmatched: Vec<Term> = ys.to_vec();
        for &x in xs {
            let mut hit = None;
            for (i, &y) in unmatched.iter().enumerate() {
                if self.equal(x, y, cfg)? {
                    hit = Some(i);
                    break;
                }
            }
            match hit {
                Some(i) => {
                    unmatched.swap_remove(i);
                }
                None => return Some(false),
            }
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Terminator;

    fn branch(cond: OpId, on_true: BlockId, on_false: BlockId) -> Terminator {
        Terminator::Branch {
            cond,
            on_true,
            on_false,
        }
    }

    /// `proc f(a, b) { out y = op(a, b) }` with the operands optionally
    /// swapped.
    fn straight(op: BinOp, swap: bool) -> Function {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let b = f.emit_input(e, "b");
        let (x, y) = if swap { (b, a) } else { (a, b) };
        let v = f.emit_bin(e, op, x, y);
        f.emit_output(e, "y", v);
        f
    }

    fn proves(p: &Function, c: &Function) -> bool {
        prove_equivalent(p, c, None).is_some()
    }

    #[test]
    fn commutative_swaps_and_mirrored_comparisons_prove() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Xor, BinOp::Eq] {
            assert!(proves(&straight(op, false), &straight(op, true)), "{op}");
        }
        assert!(proves(
            &straight(BinOp::Lt, false),
            &straight(BinOp::Gt, true)
        ));
        assert!(proves(
            &straight(BinOp::Ge, false),
            &straight(BinOp::Le, true)
        ));
        let f = straight(BinOp::Add, false);
        assert_eq!(
            prove_equivalent(&f, &f.clone(), None),
            Some(Equivalence {
                block_growth: 0,
                entry_copies: 1
            })
        );
    }

    /// `a*b + a*c` against `a*(b + c)`, and `(a + b) + c` against
    /// `a + (b + c)`, wrapping included.
    #[test]
    fn ring_identities_prove() {
        let build = |factored: bool| {
            let mut f = Function::new("f");
            let e = f.entry();
            let [a, b, c] = ["a", "b", "c"].map(|n| f.emit_input(e, n));
            let v = if factored {
                let s = f.emit_bin(e, BinOp::Add, b, c);
                f.emit_bin(e, BinOp::Mul, a, s)
            } else {
                let x = f.emit_bin(e, BinOp::Mul, a, b);
                let y = f.emit_bin(e, BinOp::Mul, a, c);
                f.emit_bin(e, BinOp::Add, x, y)
            };
            f.emit_output(e, "y", v);
            f
        };
        assert!(proves(&build(false), &build(true)));
        let assoc = |left: bool| {
            let mut f = Function::new("f");
            let e = f.entry();
            let [a, b, c] = ["a", "b", "c"].map(|n| f.emit_input(e, n));
            let v = if left {
                let s = f.emit_bin(e, BinOp::Or, a, b);
                f.emit_bin(e, BinOp::Or, s, c)
            } else {
                let s = f.emit_bin(e, BinOp::Or, c, b);
                f.emit_bin(e, BinOp::Or, a, s)
            };
            f.emit_output(e, "y", v);
            f
        };
        assert!(proves(&assoc(true), &assoc(false)));
    }

    /// A diamond joining `x1*x2 | x4` and `x1*x3 | x5` into a
    /// subtraction (Figure 4): the subtraction sunk into both arms is
    /// proved edge by edge.
    fn figure4(sunk: bool, wrong_edge: bool) -> Function {
        let mut f = Function::new("fig4");
        let e = f.entry();
        let t = f.add_block("then");
        let el = f.add_block("else");
        let m = f.add_block("merge");
        let [x1, x2, x3, x4, x5, c] =
            ["x1", "x2", "x3", "x4", "x5", "c"].map(|n| f.emit_input(e, n));
        f.set_terminator(e, branch(c, t, el));
        let j1t = f.emit_bin(t, BinOp::Mul, x1, x2);
        let j2t = f.emit_bin(t, BinOp::Mul, x1, x3);
        f.set_terminator(t, Terminator::Jump(m));
        f.set_terminator(el, Terminator::Jump(m));
        f.set_terminator(m, Terminator::Return(None));
        let r = if sunk {
            let dt = f.emit_bin(t, BinOp::Sub, j1t, j2t);
            let (a, b) = if wrong_edge { (x5, x4) } else { (x4, x5) };
            let de = f.emit_bin(el, BinOp::Sub, a, b);
            f.emit_phi(m, vec![(t, dt), (el, de)])
        } else {
            let j1 = f.emit_phi(m, vec![(t, j1t), (el, x4)]);
            let j2 = f.emit_phi(m, vec![(t, j2t), (el, x5)]);
            f.emit_bin(m, BinOp::Sub, j1, j2)
        };
        f.emit_output(m, "r", r);
        crate::verify::verify(&f).unwrap();
        f
    }

    #[test]
    fn phi_sinking_proves_per_edge() {
        let p = figure4(false, false);
        let proof = prove_equivalent(&p, &figure4(true, false), None).expect("proved");
        assert_eq!(proof.block_growth, 1, "each arm gains the sunk op");
        assert!(!proves(&p, &figure4(true, true)));
    }

    /// `s = 0; i = 0; while (i < n) { s = s + i; i = i + 1 } out s` with
    /// the accumulation written `body(s, i)`.
    fn counting_loop(body: impl Fn(&mut Function, BlockId, OpId, OpId) -> OpId) -> Function {
        let mut f = Function::new("loop");
        let e = f.entry();
        let h = f.add_block("header");
        let l = f.add_block("body");
        let x = f.add_block("exit");
        let n = f.emit_input(e, "n");
        let zero = f.emit_const(e, 0);
        f.set_terminator(e, Terminator::Jump(h));
        let s = f.emit_phi(h, vec![]);
        let i = f.emit_phi(h, vec![]);
        let c = f.emit_bin(h, BinOp::Lt, i, n);
        f.set_terminator(h, branch(c, l, x));
        let s2 = body(&mut f, l, s, i);
        let one = f.emit_const(l, 1);
        let i2 = f.emit_bin(l, BinOp::Add, i, one);
        f.set_terminator(l, Terminator::Jump(h));
        f.op_mut(s).kind = OpKind::Phi(vec![(e, zero), (l, s2)]);
        f.op_mut(i).kind = OpKind::Phi(vec![(e, zero), (l, i2)]);
        f.emit_output(x, "s", s);
        f.set_terminator(x, Terminator::Return(None));
        crate::verify::verify(&f).unwrap();
        f
    }

    #[test]
    fn loop_header_phis_check_coinductively() {
        let p = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, s, i));
        let swapped = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, i, s));
        assert!(proves(&p, &swapped));
        let wrong = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Sub, s, i));
        assert!(!proves(&p, &wrong));
    }

    /// `array x[4]; x[a] = v1; x[a] = v2; out y = x[b]` and variants.
    fn memory(order_swapped: bool, drop_load: bool) -> Function {
        let mut f = Function::new("mem");
        let e = f.entry();
        let x = f.add_memory("x", 4);
        let [a, b, v] = ["a", "b", "v"].map(|n| f.emit_input(e, n));
        let one = f.emit_const(e, 1);
        let v2 = f.emit_bin(e, BinOp::Add, v, one);
        let (first, second) = if order_swapped { (v2, v) } else { (v, v2) };
        f.emit_store(e, x, a, first);
        f.emit_store(e, x, a, second);
        if !drop_load {
            // A load whose value is unused still fails out of bounds.
            f.emit_load(e, x, b);
        }
        let y = f.emit_load(e, x, a);
        f.emit_output(e, "y", y);
        f
    }

    #[test]
    fn memory_mutations_never_prove() {
        let p = memory(false, false);
        assert!(proves(&p, &memory(false, false)));
        assert!(!proves(&p, &memory(true, false)), "stores swapped");
        assert!(!proves(&p, &memory(false, true)), "load dropped");
        let mut smaller = p.clone();
        smaller.add_memory("z", 1);
        assert!(!proves(&p, &smaller), "memories differ");
        // The final load, still shared with the parent, moved above both
        // stores: it now reads the memory they overwrite.
        let mut hoisted = p.clone();
        let e = hoisted.entry();
        let ops = &mut hoisted.block_mut(e).ops;
        let y = ops.remove(ops.len() - 2);
        let first_store = ops.len() - 4;
        ops.insert(first_store, y);
        crate::verify::verify(&hoisted).unwrap();
        assert!(hoisted.shares_op_storage(&p, y));
        assert!(!proves(&p, &hoisted), "load moved across stores");
    }

    #[test]
    fn arithmetic_mutations_never_prove() {
        assert!(!proves(
            &straight(BinOp::Sub, false),
            &straight(BinOp::Sub, true)
        ));
        assert!(!proves(
            &straight(BinOp::Lt, false),
            &straight(BinOp::Le, false)
        ));
        assert!(!proves(
            &straight(BinOp::Div, false),
            &straight(BinOp::Div, true)
        ));
        // (a * 2) / 2 is not a under wrapping.
        let halved = |simplified: bool| {
            let mut f = Function::new("f");
            let e = f.entry();
            let a = f.emit_input(e, "a");
            let v = if simplified {
                a
            } else {
                let two = f.emit_const(e, 2);
                let d = f.emit_bin(e, BinOp::Mul, a, two);
                f.emit_bin(e, BinOp::Div, d, two)
            };
            f.emit_output(e, "y", v);
            f
        };
        assert!(!proves(&halved(false), &halved(true)));
    }

    /// `straight(op, false)` and a clone of it whose one binary op is
    /// rewritten to `op2` over `swap`ped operands.
    fn edited(op: BinOp, op2: BinOp, swap: bool) -> (Function, Function, OpId) {
        let p = straight(op, false);
        let v = p.block(p.entry()).ops[2];
        let OpKind::Bin(_, a, b) = p.op(v).kind else {
            unreachable!()
        };
        let mut c = p.clone();
        let (x, y) = if swap { (b, a) } else { (a, b) };
        c.op_mut(v).kind = OpKind::Bin(op2, x, y);
        (p, c, v)
    }

    #[test]
    fn operand_swaps_of_commutative_ops_and_mirrored_comparisons_are_recognized() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::And, BinOp::Xor, BinOp::Eq] {
            let (p, c, v) = edited(op, op, true);
            assert_eq!(operand_swap_of(&p, &c), Some(v), "{op}");
        }
        for (op, mirrored) in [(BinOp::Lt, BinOp::Gt), (BinOp::Ge, BinOp::Le)] {
            let (p, c, v) = edited(op, mirrored, true);
            assert_eq!(operand_swap_of(&p, &c), Some(v), "{op} as {mirrored}");
        }
        // A swap deep inside a loop, as the library makes it.
        let p = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, s, i));
        let body = BlockId(2);
        let add = p.block(body).ops[0];
        let mut c = p.clone();
        let OpKind::Bin(_, s, i) = p.op(add).kind else {
            unreachable!()
        };
        c.op_mut(add).kind = OpKind::Bin(BinOp::Add, i, s);
        assert_eq!(operand_swap_of(&p, &c), Some(add));
    }

    #[test]
    fn edits_other_than_one_operand_swap_are_rejected() {
        let rejected = |(p, c, _): (Function, Function, OpId)| operand_swap_of(&p, &c).is_none();
        assert!(rejected(edited(BinOp::Sub, BinOp::Sub, true)), "a-b to b-a");
        assert!(rejected(edited(BinOp::Lt, BinOp::Le, false)), "a<b to a<=b");
        assert!(rejected(edited(BinOp::Lt, BinOp::Ge, true)), "a<b to b>=a");
        assert!(rejected(edited(BinOp::Lt, BinOp::Lt, true)), "a<b to b<a");
        assert!(rejected(edited(BinOp::Add, BinOp::Mul, true)), "a+b to b*a");
        assert!(
            rejected(edited(BinOp::Add, BinOp::Add, false)),
            "nothing swapped"
        );
        // The function itself: no op changed.
        let p = straight(BinOp::Add, false);
        assert_eq!(operand_swap_of(&p, &p.clone()), None);
        // A swap plus any second changed op, even one rewritten to
        // itself.
        let (p, c, v) = edited(BinOp::Add, BinOp::Add, true);
        let a = p.block(p.entry()).ops[0];
        let mut second = c.clone();
        second.op_mut(a).kind = OpKind::Input("b".into());
        assert!(operand_swap_of(&p, &second).is_none(), "second op changed");
        let mut touched = c.clone();
        touched.op_mut(a);
        assert!(
            operand_swap_of(&p, &touched).is_none(),
            "second op un-shared"
        );
        let mut relabeled = c.clone();
        relabeled.op_mut(v).label = Some("+".into());
        assert!(operand_swap_of(&p, &relabeled).is_none(), "label changed");
        // An un-shared but equal block.
        let mut unshared = c.clone();
        let e = unshared.entry();
        unshared.block_mut(e);
        assert_eq!(unshared.block(e), p.block(e));
        assert!(operand_swap_of(&p, &unshared).is_none(), "block un-shared");
        // A different memory table.
        let mut memory = c.clone();
        memory.add_memory("m", 4);
        assert!(operand_swap_of(&p, &memory).is_none(), "memories differ");
        // An op appended to the arena.
        let mut grown = c;
        grown.emit_detached(crate::op::Op::new(OpKind::Const(1)));
        assert!(operand_swap_of(&p, &grown).is_none(), "op arena grew");
        // Equal contents in separately built functions share nothing.
        assert!(operand_swap_of(&p, &straight(BinOp::Add, true)).is_none());
    }

    #[test]
    fn phi_incoming_mutations_never_prove() {
        // A loop phi's entry value changed.
        let p = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, s, i));
        let mut c = p.clone();
        let e = c.entry();
        let phi = c.block(BlockId(1)).ops[0];
        let seven = c.emit_const(e, 7);
        let OpKind::Phi(inc) = &mut c.op_mut(phi).kind else {
            unreachable!()
        };
        inc[0].1 = seven;
        assert!(!proves(&p, &c));
        // A join phi's incoming swapped to the other arm's value.
        let p = figure4(false, false);
        let mut c = p.clone();
        let j1 = c.block(BlockId(3)).ops[0];
        let x5 = c.block(BlockId(0)).ops[4];
        let OpKind::Phi(inc) = &mut c.op_mut(j1).kind else {
            unreachable!()
        };
        inc[1].1 = x5;
        assert!(!proves(&p, &c));
    }

    #[test]
    fn unrelated_functions_never_prove() {
        let loop_fn = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, s, i));
        let diamond = figure4(false, false);
        let small = straight(BinOp::Add, false);
        for (p, c) in [(&loop_fn, &diamond), (&diamond, &small), (&small, &loop_fn)] {
            assert!(!proves(p, c));
            assert!(!proves(c, p));
        }
        // Same graph, different op arenas: the loop's phis and ops sit at
        // other ids.
        let mut shifted = Function::new("loop");
        shifted.emit_const(shifted.entry(), 0);
        let other = counting_loop(|f, l, s, i| f.emit_bin(l, BinOp::Add, i, s));
        assert!(!proves(&shifted, &other));
    }

    #[test]
    fn control_flow_changes_never_prove() {
        let p = figure4(false, false);
        let mut c = p.clone();
        c.set_terminator(BlockId(1), Terminator::Return(None));
        assert!(!proves(&p, &c));
        let mut c = p.clone();
        c.add_block("extra");
        assert!(!proves(&p, &c));
    }

    /// How [`memory_loop`] unrolls its loop, if at all.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Unrolled {
        /// A correct unroll by 2.
        Exact,
        /// The copy's exit test negated (`i2 >= n`).
        Negated,
        /// The copy's exit test off by one (`i2 <= n`).
        OffByOne,
        /// The copy's exit test dropped (always taken).
        NoExitTest,
        /// The two copies' stores to `y[0]` swapped.
        StoresSwapped,
        /// Copy 1 reading `y[0]` as copy 0 loaded it, above copy 0's
        /// store to `y[0]` (its own load stays, unused).
        LoadHoisted,
        /// The back edge carrying copy 0's `s` instead of copy 1's.
        WrongLatch,
    }

    /// `array x[64], y[1]; i = 0; s = 0; while (i < n) { v = x[i];
    /// u = y[0]; x[i + 1] = v + 1; y[0] = s; s = s + (v + u); i = i + 1
    /// } out s` (`y[0]` stored last), and its unroll by 2 with the block map. Each iteration
    /// stores what the next one loads.
    fn memory_loop(unroll: Option<Unrolled>) -> (Function, Option<GraphMap>) {
        let mut f = Function::new("memloop");
        let e = f.entry();
        let h = f.add_block("header");
        let l = f.add_block("body");
        let x = f.add_block("exit");
        let xm = f.add_memory("x", 64);
        let ym = f.add_memory("y", 1);
        let n = f.emit_input(e, "n");
        let zero = f.emit_const(e, 0);
        let one = f.emit_const(e, 1);
        f.set_terminator(e, Terminator::Jump(h));
        let i = f.emit_phi(h, vec![]);
        let s = f.emit_phi(h, vec![]);
        let c = f.emit_bin(h, BinOp::Lt, i, n);
        f.set_terminator(h, branch(c, l, x));
        // One iteration in block `b` from `(i, s)`, storing `y_value` (by
        // default `s`) to `y[0]` and reading `y[0]` as `u` (by default
        // its own load). Returns the next `(i, s)` and the load of `y[0]`.
        let body = |f: &mut Function, b, i, s, y_value: Option<OpId>, u: Option<OpId>| {
            let v = f.emit_load(b, xm, i);
            let own = f.emit_load(b, ym, zero);
            let w = f.emit_bin(b, BinOp::Add, v, one);
            let i2 = f.emit_bin(b, BinOp::Add, i, one);
            f.emit_store(b, xm, i2, w);
            let vu = f.emit_bin(b, BinOp::Add, v, u.unwrap_or(own));
            let s2 = f.emit_bin(b, BinOp::Add, s, vu);
            f.emit_store(b, ym, zero, y_value.unwrap_or(s));
            (i2, s2, own)
        };
        let (i2, s2, u) = body(&mut f, l, i, s, None, None);
        let Some(how) = unroll else {
            f.set_terminator(l, Terminator::Jump(h));
            f.op_mut(i).kind = OpKind::Phi(vec![(e, zero), (l, i2)]);
            f.op_mut(s).kind = OpKind::Phi(vec![(e, zero), (l, s2)]);
            f.emit_output(x, "s", s);
            f.set_terminator(x, Terminator::Return(None));
            crate::verify::verify(&f).unwrap();
            return (f, None);
        };
        let hu = f.add_block("header.u");
        let lu = f.add_block("body.u");
        f.set_terminator(l, Terminator::Jump(hu));
        let cu = match how {
            Unrolled::Negated => f.emit_bin(hu, BinOp::Ge, i2, n),
            Unrolled::OffByOne => f.emit_bin(hu, BinOp::Le, i2, n),
            Unrolled::NoExitTest => one,
            _ => f.emit_bin(hu, BinOp::Lt, i2, n),
        };
        f.set_terminator(hu, branch(cu, lu, x));
        // Copy 1 runs from copy 0's latch values.
        let y1 = (how == Unrolled::StoresSwapped).then_some(s);
        let stale = (how == Unrolled::LoadHoisted).then_some(u);
        let (i3, s3, _) = body(&mut f, lu, i2, s2, y1, stale);
        if how == Unrolled::StoresSwapped {
            let y0 = *f.block(l).ops.last().expect("the store to y[0]");
            f.op_mut(y0).kind = OpKind::Store {
                mem: ym,
                addr: zero,
                value: s2,
            };
        }
        f.set_terminator(lu, Terminator::Jump(h));
        let back = if how == Unrolled::WrongLatch { s2 } else { s3 };
        f.op_mut(i).kind = OpKind::Phi(vec![(e, zero), (lu, i3)]);
        f.op_mut(s).kind = OpKind::Phi(vec![(e, zero), (lu, back)]);
        let out = f.emit_phi(x, vec![(h, s), (hu, s2)]);
        f.emit_output(x, "s", out);
        f.set_terminator(x, Terminator::Return(None));
        crate::verify::verify(&f).unwrap();
        let map = UnrollMap {
            header: h,
            copies: vec![(h, hu), (l, lu)],
        };
        (f, Some(GraphMap::Unrolled(map)))
    }

    fn proves_unrolled(p: &Function, (c, map): &(Function, Option<GraphMap>)) -> bool {
        prove_equivalent(p, c, map.as_ref()).is_some()
    }

    #[test]
    fn unrolled_loops_prove_through_the_block_map() {
        let (p, _) = memory_loop(None);
        let exact = memory_loop(Some(Unrolled::Exact));
        let proof = prove_equivalent(&p, &exact.0, exact.1.as_ref()).expect("proved");
        assert_eq!(proof.block_growth, 1, "the exit block gains a phi");
        // Without the map, or with a wrong one, nothing proves.
        assert!(!proves(&p, &exact.0));
        let (h, hu, l, lu) = (BlockId(1), BlockId(4), BlockId(2), BlockId(5));
        for copies in [
            vec![(h, lu), (l, hu)],
            vec![(h, hu)],
            vec![(h, hu), (l, lu), (BlockId(3), BlockId(6))],
        ] {
            let wrong = GraphMap::Unrolled(UnrollMap { header: h, copies });
            assert!(prove_equivalent(&p, &exact.0, Some(&wrong)).is_none());
        }
        let wrong_header = GraphMap::Unrolled(UnrollMap {
            header: l,
            copies: vec![(h, hu), (l, lu)],
        });
        assert!(prove_equivalent(&p, &exact.0, Some(&wrong_header)).is_none());
        // The map does not stand in for a graph-preserving rewrite.
        assert!(prove_equivalent(&p, &p.clone(), exact.1.as_ref()).is_none());
    }

    #[test]
    fn unroll_mutations_never_prove() {
        let (p, _) = memory_loop(None);
        for how in [
            Unrolled::Negated,
            Unrolled::OffByOne,
            Unrolled::NoExitTest,
            Unrolled::StoresSwapped,
            Unrolled::LoadHoisted,
            Unrolled::WrongLatch,
        ] {
            assert!(!proves_unrolled(&p, &memory_loop(Some(how))), "{how:?}");
        }
    }

    #[test]
    fn constants_fold_through_eval_and_shifts_scale() {
        let build = |shift: bool| {
            let mut f = Function::new("f");
            let e = f.entry();
            let a = f.emit_input(e, "a");
            let k = f.emit_const(e, if shift { 3 } else { 8 });
            let v = f.emit_bin(e, if shift { BinOp::Shl } else { BinOp::Mul }, a, k);
            let z = f.emit_const(e, 0);
            let q = f.emit_bin(e, BinOp::Div, k, z);
            let w = f.emit_bin(e, BinOp::Add, v, q);
            f.emit_output(e, "y", w);
            f
        };
        assert!(proves(&build(false), &build(true)));
    }

    /// How [`fused_loop`] fissions its loop: group A (memory `x`, the
    /// output) into the first loop, group B (memory `y`) into the second,
    /// and then (but for `Exact`):
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Fission {
        Exact,
        /// A's store to `x` moved into the second loop, which loads what
        /// it stores from `x` itself.
        StoreMoved,
        /// The second loop's bound is `i <= n`.
        BoundChanged,
        /// The second loop's counter starts at 1.
        StartChanged,
        /// B stores `x[i + 2] + b`, which A writes one iteration later.
        ReadsOther,
        /// B outputs its value too.
        BothOutput,
        /// The second loop also stores `b` to `x[i + 1]`.
        StoreCopied,
        /// The second loop stores to `y` at the first loop's counter.
        ReadsFinalCounter,
    }

    /// `array x[64], y[64]; i = 0; while (i < n) { t = x[i]; out o = t;
    /// x[i + 1] = t + a; y[i] = b + i; i = i + 1 }` (group A on `x` and
    /// the output, group B on `y`; see [`Fission`] for the variants of
    /// group B) and its fission as `how` says, with the map.
    fn fused_loop(how: Fission) -> (Function, Function, GraphMap) {
        let mut f = Function::new("fused");
        let e = f.entry();
        let h = f.add_block("header");
        let l = f.add_block("body");
        let x = f.add_block("exit");
        let xm = f.add_memory("x", 64);
        let ym = f.add_memory("y", 64);
        let [n, a, b] = ["n", "a", "b"].map(|name| f.emit_input(e, name));
        let [zero, one, two] = [0, 1, 2].map(|k| f.emit_const(e, k));
        f.set_terminator(e, Terminator::Jump(h));
        let i = f.emit_phi(h, vec![]);
        let c = f.emit_bin(h, BinOp::Lt, i, n);
        f.set_terminator(h, branch(c, l, x));
        let t = f.emit_load(l, xm, i);
        f.emit_output(l, "o", t);
        let i2 = f.emit_bin(l, BinOp::Add, i, one);
        let u = f.emit_bin(l, BinOp::Add, t, a);
        let store_x = f.emit_store(l, xm, i2, u);
        // Group B from counter `i` in block `blk`, storing at `at`;
        // returns its ops.
        let group_b = |f: &mut Function, blk: BlockId, i: OpId, at: OpId| {
            let first = f.num_ops();
            let v = if how == Fission::ReadsOther {
                let i3 = f.emit_bin(blk, BinOp::Add, i, two);
                let s = f.emit_load(blk, xm, i3);
                f.emit_bin(blk, BinOp::Add, s, b)
            } else {
                f.emit_bin(blk, BinOp::Add, b, i)
            };
            f.emit_store(blk, ym, at, v);
            if how == Fission::BothOutput {
                f.emit_output(blk, "q", v);
            }
            (first..f.num_ops()).map(OpId::new).collect::<Vec<_>>()
        };
        let moved = group_b(&mut f, l, i, i);
        f.set_terminator(l, Terminator::Jump(h));
        f.op_mut(i).kind = OpKind::Phi(vec![(e, zero), (l, i2)]);
        f.set_terminator(x, Terminator::Return(None));
        crate::verify::verify(&f).unwrap();

        let mut g = f.clone();
        let h2 = g.add_block("fission.header");
        let l2 = g.add_block("fission.body");
        let j = g.emit_phi(h2, vec![]);
        let bound = if how == Fission::BoundChanged {
            BinOp::Le
        } else {
            BinOp::Lt
        };
        let c2 = g.emit_bin(h2, bound, j, n);
        g.set_terminator(h2, branch(c2, l2, x));
        g.set_terminator(h, branch(c, l, h2));
        g.block_mut(l).ops.retain(|op| !moved.contains(op));
        let j2 = g.emit_bin(l2, BinOp::Add, j, one);
        if how == Fission::StoreMoved {
            g.block_mut(l).ops.retain(|&op| op != store_x);
            let t2 = g.emit_load(l2, xm, j);
            let u2 = g.emit_bin(l2, BinOp::Add, t2, a);
            g.emit_store(l2, xm, j2, u2);
        }
        let at = if how == Fission::ReadsFinalCounter {
            i
        } else {
            j
        };
        group_b(&mut g, l2, j, at);
        if how == Fission::StoreCopied {
            g.emit_store(l2, xm, j2, b);
        }
        g.set_terminator(l2, Terminator::Jump(h2));
        let start = if how == Fission::StartChanged {
            one
        } else {
            zero
        };
        g.op_mut(j).kind = OpKind::Phi(vec![(h, start), (l2, j2)]);
        crate::verify::verify(&g).unwrap();
        let map = GraphMap::Fissioned(FissionMap {
            header: h,
            loops: vec![FissionLoop {
                header: h2,
                body: l2,
                phis: vec![(i, j)],
            }],
        });
        (f, g, map)
    }

    #[test]
    fn fissioned_loops_prove_through_the_map() {
        let (p, c, map) = fused_loop(Fission::Exact);
        let proof = prove_equivalent(&p, &c, Some(&map)).expect("proved");
        assert_eq!(proof.entry_copies, 2, "each parent entry stands for two");
        assert_eq!(
            proof.block_growth, 2,
            "the second header's phi and test, the second body's increment and constant"
        );
        // Without the map, or with a wrong one, nothing proves.
        assert!(!proves(&p, &c));
        let GraphMap::Fissioned(exact) = &map else {
            unreachable!()
        };
        let (h, l) = (BlockId(1), BlockId(2));
        let fission = |header, loops| Some(GraphMap::Fissioned(FissionMap { header, loops }));
        let unpaired = FissionLoop {
            phis: Vec::new(),
            ..exact.loops[0].clone()
        };
        let swapped = FissionLoop {
            header: exact.loops[0].body,
            body: exact.loops[0].header,
            ..exact.loops[0].clone()
        };
        for wrong in [
            fission(h, vec![unpaired]),
            fission(h, vec![swapped]),
            fission(l, exact.loops.clone()),
            fission(h, Vec::new()),
        ] {
            assert!(
                prove_equivalent(&p, &c, wrong.as_ref()).is_none(),
                "{wrong:?}"
            );
        }
        // The map does not stand in for a graph-preserving rewrite.
        assert!(prove_equivalent(&p, &p.clone(), Some(&map)).is_none());
    }

    #[test]
    fn fission_mutants_never_prove() {
        for how in [
            Fission::StoreMoved,
            Fission::BoundChanged,
            Fission::StartChanged,
            Fission::ReadsOther,
            Fission::BothOutput,
            Fission::StoreCopied,
            Fission::ReadsFinalCounter,
        ] {
            let (p, c, map) = fused_loop(how);
            assert!(prove_equivalent(&p, &c, Some(&map)).is_none(), "{how:?}");
        }
    }
}
