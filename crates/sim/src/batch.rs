//! Batched straight-line execution: many trace vectors in one fused pass.
//!
//! Candidate evaluation in the search runs the *same* [`CompiledFn`] over
//! every vector of a trace set ([`crate::simulate`]). The scalar path pays
//! the interpreter's dispatch (match on the decoded instruction, block
//! walking) once per vector. For the one shape where that dispatch is the
//! whole cost — a function passing `CompiledFn::fusable_straightline`:
//! a single memory-free, `Return`-terminated block — the batched engine
//! dispatches each instruction once per *batch* instead: a slot-major
//! value array holds one lane per distinct trace vector (`values[slot ×
//! lanes + lane]`), input rows are copied straight out of the trace
//! columns, and every operator runs a dense row kernel (`bin_row` and
//! friends) over all lanes at once.
//!
//! Such a batch can neither fail nor diverge: no lane branches, touches
//! memory, misses an input, or reaches the step limit, so every lane
//! executes exactly the block's instructions, once. That is what keeps
//! the engine this small, and why it runs nothing else
//! ([`SimEngine::batchable`]). Results are bit-identical to the scalar
//! engine's.

use crate::compiled::{CTerm, CompiledFn, Inst};
use crate::trace::TraceColumns;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many lanes one batch holds at most (bounds the structure-of-arrays
/// working set; larger trace sets run as several batches).
pub const DEFAULT_MAX_LANES: usize = 256;

/// Dense row kernels: one specialized element loop per operator,
/// dispatched once per *row* (not per lane or per chunk). Results go to a
/// slice the caller guarantees is disjoint from the inputs, so the
/// compiler emits vector code without runtime overlap checks. Semantics
/// are `BinOp::eval`'s by construction; `#[inline(never)]` keeps the
/// sixteen specialized loops out of the kernel's dispatch body.
#[inline(never)]
fn bin_row(op: fact_ir::BinOp, a: &[i64], b: &[i64], out: &mut [i64]) {
    macro_rules! kernels {
        ($($v:ident),*) => {
            match op {
                $(fact_ir::BinOp::$v => {
                    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                        *o = fact_ir::BinOp::$v.eval(x, y);
                    }
                })*
            }
        };
    }
    kernels!(Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or, Xor, Shl, Shr);
}

/// Unary counterpart of [`bin_row`].
#[inline(never)]
fn un_row(op: fact_ir::UnOp, a: &[i64], out: &mut [i64]) {
    macro_rules! kernels {
        ($($v:ident),*) => {
            match op {
                $(fact_ir::UnOp::$v => {
                    for (o, &x) in out.iter_mut().zip(a) {
                        *o = fact_ir::UnOp::$v.eval(x);
                    }
                })*
            }
        };
    }
    kernels!(Neg, Not, LNot);
}

/// Row kernel for `Inst::Mux`: branch-free select per element.
#[inline(never)]
fn mux_row(c: &[i64], t: &[i64], f: &[i64], out: &mut [i64]) {
    for (((o, &c), &t), &f) in out.iter_mut().zip(c).zip(t).zip(f) {
        *o = if c != 0 { t } else { f };
    }
}

/// Which execution engine a [`crate::simulate`] call uses.
///
/// Both engines are bit-identical in everything they report; the choice
/// affects wall-clock time only. [`SimEngine::for_call`] is the
/// production policy that picks between them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimEngine {
    /// One [`CompiledFn::execute_seeded`] call per distinct vector.
    Scalar,
    /// The fused straight-line kernel, at most `max_lanes` lanes per
    /// batch; runs [`SimEngine::batchable`] calls only.
    Batched {
        /// Upper bound on lanes per batch (memory/working-set knob).
        max_lanes: usize,
    },
}

impl SimEngine {
    /// The default batched engine ([`DEFAULT_MAX_LANES`] lanes per batch).
    pub fn batched() -> SimEngine {
        SimEngine::batched_with(DEFAULT_MAX_LANES)
    }

    /// A batched engine with an explicit lane cap.
    pub fn batched_with(max_lanes: usize) -> SimEngine {
        SimEngine::Batched { max_lanes }
    }
}

impl Default for SimEngine {
    fn default() -> Self {
        SimEngine::batched()
    }
}

/// Lock-free tallies of simulation work, shared across the threads of a
/// candidate search and surfaced by `factd`'s STATS line.
#[derive(Debug, Default)]
pub struct SimCounters {
    /// Trace vectors covered by simulation passes (logical vectors: a
    /// deduplicated lane of multiplicity *k* counts *k*).
    pub vectors: AtomicU64,
    /// Batches the batched engine ran (0 when the scalar engine ran).
    pub batches: AtomicU64,
    /// Candidate passes the engine policy ran on the scalar engine.
    pub engine_scalar: AtomicU64,
    /// Candidate passes the engine policy ran on the batched engine.
    pub engine_batched: AtomicU64,
}

impl SimCounters {
    /// Adds one pass's tallies.
    pub fn add(&self, vectors: u64, batches: u64) {
        self.vectors.fetch_add(vectors, Ordering::Relaxed);
        self.batches.fetch_add(batches, Ordering::Relaxed);
    }

    /// Records which engine one policy decision picked.
    pub fn note_engine(&self, engine: SimEngine) {
        match engine {
            SimEngine::Scalar => self.engine_scalar.fetch_add(1, Ordering::Relaxed),
            SimEngine::Batched { .. } => self.engine_batched.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Folds another counter set into this one (used to surface the
    /// tallies of a locally-measured simulation call).
    pub fn merge(&self, other: &SimCounters) {
        for (mine, theirs) in [
            (&self.vectors, &other.vectors),
            (&self.batches, &other.batches),
            (&self.engine_scalar, &other.engine_scalar),
            (&self.engine_batched, &other.engine_batched),
        ] {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Vectors covered so far.
    pub fn vectors(&self) -> u64 {
        self.vectors.load(Ordering::Relaxed)
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Scalar-engine policy decisions so far.
    pub fn engine_scalar(&self) -> u64 {
        self.engine_scalar.load(Ordering::Relaxed)
    }

    /// Batched-engine policy decisions so far.
    pub fn engine_batched(&self) -> u64 {
        self.engine_batched.load(Ordering::Relaxed)
    }
}

/// Reusable buffers for [`crate::simulate`]. A search loop evaluates
/// thousands of candidates back to back; threading one `SimScratch`
/// through all of them turns every per-batch allocation into a resize of
/// an already-sized buffer. Purely an optimization: the scratch only
/// donates capacity, and results never depend on its contents.
#[derive(Default)]
pub struct SimScratch {
    /// The batch's value array, `num_ops × lanes`, slot-major.
    values: Vec<i64>,
    /// Output row of the row kernels when the destination row sits below
    /// an operand row (so one split cannot separate them).
    row: Vec<i64>,
}

impl CompiledFn {
    /// Whether every batch over this function is one straight-line pass
    /// that can neither fail nor diverge (given inputs for every name):
    /// a single `Return`-terminated, memory-free block whose slots are
    /// written before read and whose op count fits `step_limit`.
    pub(crate) fn fusable_straightline(&self, step_limit: u64) -> bool {
        self.writes_before_reads
            && self.mem_sizes.is_empty()
            && matches!(self.blocks[self.entry].term, CTerm::Return(_))
            && (self.blocks[self.entry].insts.len() as u64) <= step_limit
    }

    /// The fused kernel: runs the single block of a
    /// [`CompiledFn::fusable_straightline`] function over one lane per
    /// row `rows` of `cols`, and returns the value array (`num_ops ×
    /// lanes`, slot-major). Every slot is written before it is read, so
    /// the recycled array is never re-zeroed.
    ///
    /// # Panics
    /// Panics if an input name has no column in `cols`.
    pub(crate) fn run_straightline<'s>(
        &self,
        cols: &TraceColumns,
        rows: Range<usize>,
        scratch: &'s mut SimScratch,
    ) -> &'s [i64] {
        debug_assert!(self.fusable_straightline(u64::MAX));
        let n = rows.len();
        let values = &mut scratch.values;
        values.resize(self.num_ops * n, 0);
        let row = &mut scratch.row;
        row.resize(n, 0);
        let at = |slot: usize| slot * n..(slot + 1) * n;
        for inst in &self.blocks[self.entry].insts {
            match *inst {
                Inst::Const { dst, value } => values[at(dst)].fill(value),
                Inst::Input { dst, name } => {
                    let c = cols
                        .col(&self.input_names[name as usize])
                        .expect("a straight-line batch has a column per input name");
                    values[at(dst)].copy_from_slice(&cols.col_values(c)[rows.clone()]);
                }
                Inst::Bin { dst, op, a, b } => {
                    if dst > a && dst > b {
                        // SSA-typical layout: the destination row lies
                        // above both operand rows, so one split hands the
                        // kernel alias-free slices in place.
                        let (src, dsts) = values.split_at_mut(dst * n);
                        bin_row(op, &src[at(a)], &src[at(b)], &mut dsts[..n]);
                    } else {
                        bin_row(op, &values[at(a)], &values[at(b)], row);
                        values[at(dst)].copy_from_slice(row);
                    }
                }
                Inst::Un { dst, op, a } => {
                    if dst > a {
                        let (src, dsts) = values.split_at_mut(dst * n);
                        un_row(op, &src[at(a)], &mut dsts[..n]);
                    } else {
                        un_row(op, &values[at(a)], row);
                        values[at(dst)].copy_from_slice(row);
                    }
                }
                Inst::Mux {
                    dst,
                    cond,
                    on_true,
                    on_false,
                } => {
                    if dst > cond && dst > on_true && dst > on_false {
                        let (src, dsts) = values.split_at_mut(dst * n);
                        mux_row(
                            &src[at(cond)],
                            &src[at(on_true)],
                            &src[at(on_false)],
                            &mut dsts[..n],
                        );
                    } else {
                        mux_row(
                            &values[at(cond)],
                            &values[at(on_true)],
                            &values[at(on_false)],
                            row,
                        );
                        values[at(dst)].copy_from_slice(row);
                    }
                }
                // An output's own slot holds the unit value; the emitted
                // value stays readable in its source row.
                Inst::Output { dst, .. } => values[at(dst)].fill(0),
                Inst::Load { .. } | Inst::Store { .. } => {
                    unreachable!("a straight-line batch has no memory")
                }
            }
        }
        values
    }

    /// The outputs a straight-line function emits, in emission order, as
    /// `(output-name index, value slot)`.
    pub(crate) fn straightline_outputs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.blocks[self.entry]
            .insts
            .iter()
            .filter_map(|inst| match *inst {
                Inst::Output { name, value, .. } => Some((name as usize, value)),
                _ => None,
            })
    }

    /// The slot a straight-line function returns, if any.
    pub(crate) fn straightline_return(&self) -> Option<usize> {
        match self.blocks[self.entry].term {
            CTerm::Return(v) => v,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = SimCounters::default();
        c.add(10, 1);
        c.add(5, 0);
        assert_eq!(c.vectors(), 15);
        assert_eq!(c.batches(), 1);
        c.note_engine(SimEngine::Scalar);
        c.note_engine(SimEngine::default());
        c.note_engine(SimEngine::default());
        assert_eq!(c.engine_scalar(), 1);
        assert_eq!(c.engine_batched(), 2);
        let d = SimCounters::default();
        d.merge(&c);
        assert_eq!(d.vectors(), 15);
        assert_eq!(d.batches(), 1);
        assert_eq!(d.engine_batched(), 2);
    }
}
