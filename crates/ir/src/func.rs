//! Functions: arenas of blocks, operations, and memories, plus a builder
//! API used by the language frontend and by transformations.

use crate::ids::{BlockId, MemId, OpId};
use crate::op::{BinOp, Op, OpKind, UnOp};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A memory (array). The paper maps each array to its own memory so that
/// distinct arrays can be accessed in the same cycle (§3, Example 2).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Memory {
    /// Source-level array name.
    pub name: String,
    /// Number of words.
    pub size: u32,
}

/// How a basic block transfers control.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on a value (non-zero = taken).
    Branch {
        /// The branch condition value.
        cond: OpId,
        /// Successor when `cond` is non-zero.
        on_true: BlockId,
        /// Successor when `cond` is zero.
        on_false: BlockId,
    },
    /// Return from the behavior, optionally yielding a value.
    Return(Option<OpId>),
}

/// The successors of a [`Terminator`], in branch order: at most two,
/// held inline (no allocation). Derefs to `&[BlockId]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len as usize)
    }
}

impl Terminator {
    /// The successor blocks of this terminator, in branch order.
    pub fn successors(&self) -> Successors {
        let (blocks, len) = match *self {
            Terminator::Jump(b) => ([b, b], 1),
            Terminator::Branch {
                on_true, on_false, ..
            } => ([on_true, on_false], 2),
            Terminator::Return(_) => ([BlockId(0); 2], 0),
        };
        Successors { blocks, len }
    }

    /// The condition value, if this is a conditional branch.
    pub fn condition(&self) -> Option<OpId> {
        match self {
            Terminator::Branch { cond, .. } => Some(*cond),
            _ => None,
        }
    }

    /// Replaces every successor equal to `from` with `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump(b) => {
                if *b == from {
                    *b = to;
                }
            }
            Terminator::Branch {
                on_true, on_false, ..
            } => {
                if *on_true == from {
                    *on_true = to;
                }
                if *on_false == from {
                    *on_false = to;
                }
            }
            Terminator::Return(_) => {}
        }
    }
}

/// A basic block: an ordered list of operations and a terminator.
#[derive(Clone, PartialEq, Debug)]
pub struct BasicBlock {
    /// Operations in program order. Phis must come first.
    pub ops: Vec<OpId>,
    /// Control transfer out of the block.
    pub term: Terminator,
    /// Optional display name (e.g. `"loop.header"`).
    pub name: Option<String>,
}

impl BasicBlock {
    fn new() -> Self {
        BasicBlock {
            ops: Vec::new(),
            term: Terminator::Return(None),
            name: None,
        }
    }
}

/// A behavioral description: the unit of scheduling and transformation.
///
/// `Function` owns three arenas — blocks, operations, memories — and is the
/// paper's CDFG. Operations are created through the builder-style `emit_*`
/// methods and never destroyed; dead operations are detached from blocks by
/// [`crate::rewrite::eliminate_dead_code`] and their arena slots become
/// tombstones (kind preserved, but unreferenced).
///
/// # Examples
///
/// ```
/// use fact_ir::{Function, BinOp};
///
/// let mut f = Function::new("double");
/// let entry = f.entry();
/// let x = f.emit_input(entry, "x");
/// let two = f.emit_const(entry, 2);
/// let d = f.emit_bin(entry, BinOp::Mul, x, two);
/// f.emit_output(entry, "y", d);
/// assert_eq!(f.block(entry).ops.len(), 4);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct Function {
    // Blocks and ops are individually Arc-backed so cloning a function —
    // which the transformation search does once per candidate — shares
    // every block and op until it is actually mutated ([`Arc::make_mut`]
    // in the mutating accessors). Untouched blocks and ops therefore stay
    // pointer-identical across a parent and its candidates, which keeps
    // candidate cloning to one reference-count bump per arena slot.
    name: Arc<str>,
    blocks: Vec<Arc<BasicBlock>>,
    ops: Vec<Arc<Op>>,
    mems: Arc<Vec<Memory>>,
    entry: BlockId,
}

impl Function {
    /// Creates a function with a single empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: Arc::from(name.into()),
            blocks: vec![Arc::new(BasicBlock::new())],
            ops: Vec::new(),
            mems: Arc::new(Vec::new()),
            entry: BlockId(0),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Number of blocks ever created (including detached ones).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of operations ever created (including dead ones).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Iterates over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len()).map(BlockId::new)
    }

    /// Accesses a block.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutably accesses a block, un-sharing it first if its storage is
    /// shared with clones of this function (copy-on-write).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        Arc::make_mut(&mut self.blocks[id.index()])
    }

    /// Whether `self` and `other` share the physical storage of block
    /// `id` (true only for never-mutated blocks of clones). Diagnostic
    /// aid for the copy-on-write behavior; equality of contents is
    /// checked with `==` as usual.
    pub fn shares_block_storage(&self, other: &Function, id: BlockId) -> bool {
        match (self.blocks.get(id.index()), other.blocks.get(id.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The function's block storage, shared with its clones until
    /// mutated (see [`Function::has_blocks`]).
    pub(crate) fn block_storage(&self) -> &[Arc<BasicBlock>] {
        &self.blocks
    }

    /// Whether the function is entered at `entry` and its blocks are
    /// physically `blocks`, as another function's [`block_storage`]
    /// returned them. While `blocks` is held, a function that mutates one
    /// of them mutates a copy, so anything computed from `blocks` holds
    /// for a function that has them.
    ///
    /// [`block_storage`]: Function::block_storage
    pub(crate) fn has_blocks(&self, entry: BlockId, blocks: &[Arc<BasicBlock>]) -> bool {
        self.entry == entry
            && self.blocks.len() == blocks.len()
            && self
                .blocks
                .iter()
                .zip(blocks)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Accesses an operation.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn op(&self, id: OpId) -> &Op {
        &self.ops[id.index()]
    }

    /// Mutably accesses an operation, un-sharing it first if its storage
    /// is shared with clones of this function (copy-on-write). Call it
    /// only on ops that really change: every call un-shares one op.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn op_mut(&mut self, id: OpId) -> &mut Op {
        Arc::make_mut(&mut self.ops[id.index()])
    }

    /// Whether `self` and `other` share the physical storage of op `id`
    /// (true only for never-mutated ops of clones). The op counterpart
    /// of [`Function::shares_block_storage`].
    pub fn shares_op_storage(&self, other: &Function, id: OpId) -> bool {
        match (self.ops.get(id.index()), other.ops.get(id.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The function's op storage, shared with its clones until mutated
    /// (see [`Function::shares_op_storage`]).
    pub(crate) fn op_storage(&self) -> &[Arc<Op>] {
        &self.ops
    }

    /// Whether `self` and `other` share the physical storage of their
    /// memory table.
    pub(crate) fn shares_memory_storage(&self, other: &Function) -> bool {
        Arc::ptr_eq(&self.mems, &other.mems)
    }

    /// Accesses a memory.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn memory(&self, id: MemId) -> &Memory {
        &self.mems[id.index()]
    }

    /// Iterates over `(id, memory)` pairs.
    pub fn memories(&self) -> impl Iterator<Item = (MemId, &Memory)> + '_ {
        self.mems
            .iter()
            .enumerate()
            .map(|(i, m)| (MemId::new(i), m))
    }

    /// Declares a memory and returns its id.
    pub fn add_memory(&mut self, name: impl Into<String>, size: u32) -> MemId {
        let id = MemId::new(self.mems.len());
        Arc::make_mut(&mut self.mems).push(Memory {
            name: name.into(),
            size,
        });
        id
    }

    /// Finds a memory by name.
    pub fn memory_by_name(&self, name: &str) -> Option<MemId> {
        self.mems
            .iter()
            .position(|m| m.name == name)
            .map(MemId::new)
    }

    /// Creates a new, empty block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::new(self.blocks.len());
        let mut b = BasicBlock::new();
        b.name = Some(name.into());
        self.blocks.push(Arc::new(b));
        id
    }

    /// Sets the terminator of `block`.
    pub fn set_terminator(&mut self, block: BlockId, term: Terminator) {
        Arc::make_mut(&mut self.blocks[block.index()]).term = term;
    }

    /// Creates an operation in the arena and appends it to `block`.
    ///
    /// Phis are inserted after the block's existing phis; all other kinds
    /// are appended at the end.
    pub fn emit(&mut self, block: BlockId, op: Op) -> OpId {
        let is_phi = matches!(op.kind, OpKind::Phi(_));
        let id = OpId::new(self.ops.len());
        self.ops.push(Arc::new(op));
        let phi_pos = if is_phi {
            let b = &self.blocks[block.index()];
            Some(
                b.ops
                    .iter()
                    .position(|&o| !matches!(self.ops[o.index()].kind, OpKind::Phi(_)))
                    .unwrap_or(b.ops.len()),
            )
        } else {
            None
        };
        let b = Arc::make_mut(&mut self.blocks[block.index()]);
        if let Some(pos) = phi_pos {
            b.ops.insert(pos, id);
        } else {
            b.ops.push(id);
        }
        id
    }

    /// Creates an operation in the arena *without* placing it in any block.
    ///
    /// The caller must insert the returned id into a block manually; used
    /// by transformations that control placement precisely.
    pub fn emit_detached(&mut self, op: Op) -> OpId {
        let id = OpId::new(self.ops.len());
        self.ops.push(Arc::new(op));
        id
    }

    /// Creates an operation and inserts it into `block` at `index`
    /// (shifting later ops). Used by transformations that must place new
    /// ops before an existing use.
    ///
    /// # Panics
    /// Panics if `index > block.ops.len()`.
    pub fn insert(&mut self, block: BlockId, index: usize, op: Op) -> OpId {
        let id = OpId::new(self.ops.len());
        self.ops.push(Arc::new(op));
        Arc::make_mut(&mut self.blocks[block.index()])
            .ops
            .insert(index, id);
        id
    }

    /// The position of `op` within `block`, if present.
    pub fn position_in_block(&self, block: BlockId, op: OpId) -> Option<usize> {
        self.blocks[block.index()].ops.iter().position(|&o| o == op)
    }

    /// Emits a constant.
    pub fn emit_const(&mut self, block: BlockId, value: i64) -> OpId {
        self.emit(block, Op::new(OpKind::Const(value)))
    }

    /// Emits an external input.
    pub fn emit_input(&mut self, block: BlockId, name: impl Into<String>) -> OpId {
        self.emit(block, Op::new(OpKind::Input(name.into())))
    }

    /// Emits a binary operation.
    pub fn emit_bin(&mut self, block: BlockId, op: BinOp, a: OpId, b: OpId) -> OpId {
        self.emit(block, Op::new(OpKind::Bin(op, a, b)))
    }

    /// Emits a unary operation.
    pub fn emit_un(&mut self, block: BlockId, op: UnOp, a: OpId) -> OpId {
        self.emit(block, Op::new(OpKind::Un(op, a)))
    }

    /// Emits a mux (the paper's select).
    pub fn emit_mux(&mut self, block: BlockId, cond: OpId, on_true: OpId, on_false: OpId) -> OpId {
        self.emit(
            block,
            Op::new(OpKind::Mux {
                cond,
                on_true,
                on_false,
            }),
        )
    }

    /// Emits a phi (the paper's join) with the given incoming pairs.
    pub fn emit_phi(&mut self, block: BlockId, incoming: Vec<(BlockId, OpId)>) -> OpId {
        self.emit(block, Op::new(OpKind::Phi(incoming)))
    }

    /// Emits a memory load.
    pub fn emit_load(&mut self, block: BlockId, mem: MemId, addr: OpId) -> OpId {
        self.emit(block, Op::new(OpKind::Load { mem, addr }))
    }

    /// Emits a memory store.
    pub fn emit_store(&mut self, block: BlockId, mem: MemId, addr: OpId, value: OpId) -> OpId {
        self.emit(block, Op::new(OpKind::Store { mem, addr, value }))
    }

    /// Emits an observable output.
    pub fn emit_output(&mut self, block: BlockId, name: impl Into<String>, value: OpId) -> OpId {
        self.emit(block, Op::new(OpKind::Output(name.into(), value)))
    }

    /// The predecessor blocks of every block, indexed by block id.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for id in self.block_ids() {
            for succ in self.block(id).term.successors() {
                preds[succ.index()].push(id);
            }
        }
        preds
    }

    /// The block containing each operation, if any (detached ops map to
    /// `None`). O(total ops).
    pub fn op_blocks(&self) -> Vec<Option<BlockId>> {
        let mut map = vec![None; self.ops.len()];
        for b in self.block_ids() {
            for &op in &self.block(b).ops {
                map[op.index()] = Some(b);
            }
        }
        map
    }

    /// All `(user, operand_position)` uses of each value, indexed by value.
    ///
    /// Only operations currently placed in blocks are considered users;
    /// terminator condition uses are *not* included (query terminators
    /// separately).
    pub fn uses(&self) -> Vec<Vec<OpId>> {
        let mut uses = vec![Vec::new(); self.ops.len()];
        let mut buf = Vec::new();
        for b in self.block_ids() {
            for &op in &self.block(b).ops {
                buf.clear();
                self.ops[op.index()].kind.operands_into(&mut buf);
                for &v in &buf {
                    uses[v.index()].push(op);
                }
            }
        }
        uses
    }

    /// The input operations of the function in emission order, as
    /// `(name, id)` pairs.
    pub fn inputs(&self) -> Vec<(String, OpId)> {
        let mut out = Vec::new();
        for b in self.block_ids() {
            for &op in &self.block(b).ops {
                if let OpKind::Input(name) = &self.op(op).kind {
                    out.push((name.clone(), op));
                }
            }
        }
        out
    }

    /// The set of output names emitted anywhere in the function, sorted.
    pub fn output_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .block_ids()
            .flat_map(|b| self.block(b).ops.iter())
            .filter_map(|&op| match &self.op(op).kind {
                OpKind::Output(name, _) => Some(name.clone()),
                _ => None,
            })
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Counts operations placed in blocks, per [`OpKind`] discriminant name.
    ///
    /// Useful in tests and reports; constants, inputs and phis are included.
    pub fn op_histogram(&self) -> HashMap<&'static str, usize> {
        let mut h = HashMap::new();
        for b in self.block_ids() {
            for &op in &self.block(b).ops {
                let key = match self.op(op).kind {
                    OpKind::Const(_) => "const",
                    OpKind::Input(_) => "input",
                    OpKind::Bin(..) => "bin",
                    OpKind::Un(..) => "un",
                    OpKind::Mux { .. } => "mux",
                    OpKind::Phi(_) => "phi",
                    OpKind::Load { .. } => "load",
                    OpKind::Store { .. } => "store",
                    OpKind::Output(..) => "output",
                };
                *h.entry(key).or_insert(0) += 1;
            }
        }
        h
    }

    /// Total number of operations currently placed in blocks.
    pub fn live_op_count(&self) -> usize {
        self.block_ids().map(|b| self.block(b).ops.len()).sum()
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::pretty::write_function(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        // entry -> (then | else) -> merge
        let mut f = Function::new("diamond");
        let entry = f.entry();
        let then_b = f.add_block("then");
        let else_b = f.add_block("else");
        let merge = f.add_block("merge");
        let c = f.emit_input(entry, "c");
        f.set_terminator(
            entry,
            Terminator::Branch {
                cond: c,
                on_true: then_b,
                on_false: else_b,
            },
        );
        f.set_terminator(then_b, Terminator::Jump(merge));
        f.set_terminator(else_b, Terminator::Jump(merge));
        (f, entry, then_b, else_b, merge)
    }

    #[test]
    fn new_function_has_entry_block() {
        let f = Function::new("f");
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.name(), "f");
    }

    #[test]
    fn predecessors_of_diamond() {
        let (f, entry, then_b, else_b, merge) = diamond();
        let preds = f.predecessors();
        assert!(preds[entry.index()].is_empty());
        assert_eq!(preds[then_b.index()], vec![entry]);
        assert_eq!(preds[else_b.index()], vec![entry]);
        assert_eq!(preds[merge.index()], vec![then_b, else_b]);
    }

    #[test]
    fn phi_is_inserted_before_non_phis() {
        let (mut f, entry, then_b, else_b, merge) = diamond();
        let a = f.emit_const(then_b, 1);
        let b = f.emit_const(else_b, 2);
        let x = f.emit_const(merge, 9); // non-phi first
        let p = f.emit_phi(merge, vec![(then_b, a), (else_b, b)]);
        assert_eq!(f.block(merge).ops, vec![p, x]);
        let _ = entry;
    }

    #[test]
    fn uses_tracks_operands() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let b = f.emit_input(e, "b");
        let s = f.emit_bin(e, BinOp::Add, a, b);
        let t = f.emit_bin(e, BinOp::Mul, s, a);
        let uses = f.uses();
        assert_eq!(uses[a.index()], vec![s, t]);
        assert_eq!(uses[s.index()], vec![t]);
        assert!(uses[t.index()].is_empty());
    }

    #[test]
    fn inputs_and_outputs_enumerate() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        f.emit_output(e, "y", a);
        f.emit_output(e, "y", a);
        f.emit_output(e, "z", a);
        assert_eq!(f.inputs(), vec![("a".to_string(), a)]);
        assert_eq!(f.output_names(), vec!["y".to_string(), "z".to_string()]);
    }

    #[test]
    fn retarget_rewrites_successors() {
        let mut t = Terminator::Branch {
            cond: OpId(0),
            on_true: BlockId(1),
            on_false: BlockId(2),
        };
        t.retarget(BlockId(2), BlockId(5));
        assert_eq!(*t.successors(), [BlockId(1), BlockId(5)]);
    }

    #[test]
    fn memories_are_named_and_found() {
        let mut f = Function::new("f");
        let m = f.add_memory("x", 64);
        assert_eq!(f.memory(m).name, "x");
        assert_eq!(f.memory_by_name("x"), Some(m));
        assert_eq!(f.memory_by_name("nope"), None);
    }

    #[test]
    fn histogram_counts_kinds() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let c = f.emit_const(e, 3);
        let s = f.emit_bin(e, BinOp::Add, a, c);
        f.emit_output(e, "y", s);
        let h = f.op_histogram();
        assert_eq!(h["input"], 1);
        assert_eq!(h["const"], 1);
        assert_eq!(h["bin"], 1);
        assert_eq!(h["output"], 1);
        assert_eq!(f.live_op_count(), 4);
    }
}

#[cfg(test)]
mod insert_tests {
    use super::*;
    use crate::op::{BinOp, Op, OpKind};

    #[test]
    fn insert_places_op_at_index() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let b = f.emit_bin(e, BinOp::Add, a, a);
        let c = f.insert(e, 1, Op::new(OpKind::Const(7)));
        assert_eq!(f.block(e).ops, vec![a, c, b]);
        assert_eq!(f.position_in_block(e, c), Some(1));
        assert_eq!(f.position_in_block(e, b), Some(2));
    }

    #[test]
    fn position_in_block_misses_cleanly() {
        let mut f = Function::new("f");
        let e = f.entry();
        let detached = f.emit_detached(Op::new(OpKind::Const(1)));
        assert_eq!(f.position_in_block(e, detached), None);
    }

    #[test]
    fn emit_detached_leaves_block_untouched() {
        let mut f = Function::new("f");
        let e = f.entry();
        let before = f.block(e).ops.len();
        let id = f.emit_detached(Op::new(OpKind::Const(9)));
        assert_eq!(f.block(e).ops.len(), before);
        assert_eq!(f.num_ops(), id.index() + 1);
        // Manually placing it afterwards works.
        f.block_mut(e).ops.push(id);
        crate::verify::verify(&f).unwrap();
    }

    #[test]
    fn op_blocks_maps_placed_and_detached() {
        let mut f = Function::new("f");
        let e = f.entry();
        let a = f.emit_input(e, "a");
        let d = f.emit_detached(Op::new(OpKind::Const(3)));
        let map = f.op_blocks();
        assert_eq!(map[a.index()], Some(e));
        assert_eq!(map[d.index()], None);
    }
}
