//! Batched lockstep execution: every trace vector in one SIMT-style pass.
//!
//! Candidate evaluation in the search runs the *same* [`CompiledFn`] over
//! every vector of a trace set ([`crate::simulate`]). The scalar path pays the full interpreter dispatch
//! (match on the decoded instruction, bounds checks, block walking) per
//! vector. The batch engine amortizes it: a structure-of-arrays
//! [`BatchState`] holds one *lane* per vector, lanes are bucketed by the
//! block they are about to execute, and each decoded instruction is
//! dispatched once per block execution and applied across all lanes in
//! the bucket. Correlated traces — the common case, since typical traces
//! exercise the same hot control paths — execute each hot block once per
//! batch instead of once per vector.
//!
//! Control-flow divergence is handled CFI-style: at a conditional branch
//! the bucket is partitioned by taken successor; lanes meeting again at a
//! join land in the same bucket and regroup automatically. The scheduler
//! always runs the lowest-numbered non-empty bucket next and sorts each
//! bucket into ascending lane order before executing it, so the execution
//! order is a pure function of the program and the lanes — no
//! nondeterminism enters anywhere.
//!
//! Two divergence countermeasures keep the contiguous-group fast path hot
//! on branchy programs (see `DESIGN.md` §9.5):
//!
//! - **branch-signature clustering**: before execution, a bounded prefix
//!   probe records each lane's first few branch decisions and lanes are
//!   stably sorted by that signature, so lanes about to take the same
//!   paths occupy adjacent slots;
//! - **lane compaction**: when a popped group is fragmented (holes from
//!   retired or diverged lanes) and enough slow-path work has accrued to
//!   amortize the move, all live lanes are re-packed into dense slots and
//!   every bucket becomes a contiguous range again.
//!
//! Both are always on. They are pure internal-layout permutations — an
//! external-index map routes every retirement back to the caller's lane
//! order — so they are invisible in the results.
//!
//! The contract is the crate's usual one, per lane: [`CompiledFn::run_batch`]
//! returns results **bit-identical** to [`CompiledFn::execute_seeded`] on
//! the same inputs — identical outputs, memories, return values,
//! `ops_executed`, block visits, branch statistics, and identical
//! [`ExecError`]s (including the exact step-limit boundary: phi copies
//! are counted but never trip the limit, every non-phi operation checks
//! after executing). Lanes are fully independent; an erroring lane
//! retires without disturbing the others. `crates/sim/tests/batched_equiv.rs`
//! holds the two engines together over randomized programs and traces.

use crate::compiled::{CTerm, CompiledFn, Inst};
use crate::interp::{BranchStats, ExecError, ExecResult};
use crate::profile::ProfileAccum;
use crate::simulate::LaneSteps;
use crate::trace::{InputVector, TraceColumns};
use fact_ir::MemId;
use std::sync::atomic::{AtomicU64, Ordering};

/// How many lanes one batch holds at most (bounds the structure-of-arrays
/// working set; larger trace sets run as several batches).
pub const DEFAULT_MAX_LANES: usize = 256;

/// Branch decisions folded into a lane's clustering signature.
const PROBE_BRANCHES: u32 = 16;

/// Per-lane budget of the clustering prefix probe, decremented once per
/// block visited and once per instruction executed; bounds the probe on
/// loopy programs to a small fraction of a full run.
const PROBE_BUDGET: u32 = 128;

/// Batches smaller than this are not worth probing or re-packing.
const MIN_REORDER_LANES: usize = 4;

/// Lanes are re-packed once the slow-path lane-steps accrued since the
/// last compaction exceed `moved elements / COMPACT_PAYBACK` — i.e. a
/// compaction must be paid for by at least that ratio of off-fast-path
/// work before it runs.
const COMPACT_PAYBACK: u64 = 2;

/// Dense row kernels: one specialized element loop per operator,
/// dispatched once per *row* (not per lane or per chunk). Results go to a
/// scratch row owned by the run loop — a different allocation than the
/// value array — so the compiler sees alias-free input/output slices and
/// emits vector code without runtime overlap checks. Semantics are
/// `BinOp::eval`'s by construction; `#[inline(never)]` keeps the sixteen
/// specialized loops out of the interpreter's hot dispatch body.
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
    /// One [`CompiledFn::execute_seeded`] call per vector.
    Scalar,
    /// Lockstep lanes via the batch engine, at most `max_lanes` lanes per
    /// batch.
    Batched {
        /// Upper bound on lanes per batch (memory/working-set knob).
        max_lanes: usize,
    },
}

/// Divergence rate (slow lane-steps / total lane-steps, see
/// [`SimCounters::divergence`]) above which lockstep batching is
/// predicted to lose to the scalar engine. Calibrated by `fact-bench`'s
/// `sim_perf`: convergent suites sit at 0.00, while a data-dependent
/// random walk measures ~0.17 and already runs below parity batched, so
/// the cutover sits well under that point.
pub(crate) const SCALAR_DIVERGENCE_THRESHOLD: f64 = 0.1;

impl SimEngine {
    /// The default batched engine ([`DEFAULT_MAX_LANES`] lanes per batch).
    pub fn batched() -> SimEngine {
        SimEngine::batched_with(DEFAULT_MAX_LANES)
    }

    /// A batched engine with an explicit lane cap.
    pub fn batched_with(max_lanes: usize) -> SimEngine {
        SimEngine::Batched { max_lanes }
    }

    /// The engine to run a function on, given the divergence rate a
    /// previous [`crate::simulate`] call measured for it: scalar above
    /// 0.1 (`SCALAR_DIVERGENCE_THRESHOLD`, calibrated by `fact-bench`'s
    /// `sim_perf`), the default batched engine otherwise.
    pub(crate) fn for_divergence(rate: f64) -> SimEngine {
        if rate > SCALAR_DIVERGENCE_THRESHOLD {
            SimEngine::Scalar
        } else {
            SimEngine::default()
        }
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
    /// `run_batch` invocations (0 when the scalar engine ran).
    pub batches: AtomicU64,
    /// Lane-compaction events inside batched runs.
    pub compactions: AtomicU64,
    /// Per-lane instruction executions inside batched runs (phi copies
    /// excluded).
    pub lane_steps: AtomicU64,
    /// The subset of [`SimCounters::lane_steps`] executed off the
    /// contiguous-group fast path; `slow / total` is the measured
    /// divergence rate the engine selector thresholds on.
    pub slow_lane_steps: AtomicU64,
    /// Candidate passes the per-function engine selector ran on the
    /// scalar engine.
    pub engine_scalar: AtomicU64,
    /// Candidate passes the per-function engine selector ran on the
    /// batched engine.
    pub engine_batched: AtomicU64,
}

impl SimCounters {
    /// Adds one pass's tallies.
    pub fn add(&self, vectors: u64, batches: u64) {
        self.vectors.fetch_add(vectors, Ordering::Relaxed);
        self.batches.fetch_add(batches, Ordering::Relaxed);
    }

    /// Records which engine one selector decision picked.
    pub fn note_engine(&self, engine: SimEngine) {
        match engine {
            SimEngine::Scalar => self.engine_scalar.fetch_add(1, Ordering::Relaxed),
            SimEngine::Batched { .. } => self.engine_batched.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Folds another counter set into this one (used to surface the
    /// tallies of a locally-measured simulation call).
    pub fn merge(&self, other: &SimCounters) {
        self.vectors
            .fetch_add(other.vectors.load(Ordering::Relaxed), Ordering::Relaxed);
        self.batches
            .fetch_add(other.batches.load(Ordering::Relaxed), Ordering::Relaxed);
        self.compactions
            .fetch_add(other.compactions.load(Ordering::Relaxed), Ordering::Relaxed);
        self.lane_steps
            .fetch_add(other.lane_steps.load(Ordering::Relaxed), Ordering::Relaxed);
        self.slow_lane_steps.fetch_add(
            other.slow_lane_steps.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.engine_scalar.fetch_add(
            other.engine_scalar.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.engine_batched.fetch_add(
            other.engine_batched.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
    }

    /// Vectors covered so far.
    pub fn vectors(&self) -> u64 {
        self.vectors.load(Ordering::Relaxed)
    }

    /// Batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Lane compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Scalar-engine selector decisions so far.
    pub fn engine_scalar(&self) -> u64 {
        self.engine_scalar.load(Ordering::Relaxed)
    }

    /// Batched-engine selector decisions so far.
    pub fn engine_batched(&self) -> u64 {
        self.engine_batched.load(Ordering::Relaxed)
    }

    /// Fraction of per-lane instruction executions that ran off the
    /// contiguous fast path (0.0 when nothing batched ran).
    pub fn divergence(&self) -> f64 {
        let total = self.lane_steps.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        self.slow_lane_steps.load(Ordering::Relaxed) as f64 / total as f64
    }
}

/// One lane's inputs: the named input vector and its private initial
/// memory images (positional, like [`CompiledFn::execute_seeded`]:
/// memory `i` starts as `init[i]` resized to the declared size, missing
/// entries zero-filled). Pass `&[]` for all-zero memories.
#[derive(Clone, Copy)]
pub struct Lane<'a> {
    /// Named inputs for this lane.
    pub inputs: &'a InputVector,
    /// Initial memory images, by memory index.
    pub init: &'a [Vec<i64>],
}

/// The structure-of-arrays execution state of one batch: every per-run
/// array of the scalar interpreter, widened by one lane axis. Values for
/// op slot `s` live at `values[s * lanes + lane]`, so the inner loop over
/// a bucket's lanes walks contiguous memory.
///
/// Lane indices here are *internal* slots: clustering permutes the
/// initial layout and compaction re-packs it mid-run, so `ext[slot]`
/// maps each slot back to the caller's lane index. All arrays except
/// `ext`/`alive` shrink when compaction drops retired lanes.
struct BatchState {
    /// Number of (internal) lanes currently held.
    lanes: usize,
    /// Dense value array, `num_ops × lanes`.
    values: Vec<i64>,
    /// Pre-resolved inputs, `input_names × lanes` (absent = an error only
    /// if the corresponding `Input` op executes in that lane), with the
    /// per-name `all_present` fast-path gate.
    resolved: ResolvedInputs,
    /// Per-lane memory images.
    memories: Vec<Vec<Vec<i64>>>,
    /// Per-lane emitted outputs as (output-name index, value).
    outputs: Vec<Vec<(u32, i64)>>,
    /// Per-lane branch counters, `lanes × num_blocks`, laid out lane-major.
    branch_counts: Vec<(u64, u64)>,
    /// Per-lane block visit counters, lane-major.
    block_visits: Vec<u64>,
    /// Per-lane executed-operation counters.
    ops: Vec<u64>,
    /// Per-lane predecessor block (`usize::MAX` before the first edge).
    prev: Vec<usize>,
    /// Per-lane liveness; cleared when a lane retires (either way).
    alive: Vec<bool>,
    /// External (caller-order) lane index of each internal slot.
    ext: Vec<u32>,
}

/// Where retiring lanes deliver their outcome. The full sink materializes
/// per-lane [`ExecResult`]s (equivalence checking needs outputs and
/// memories); the profile sink folds the branch/visit counters straight
/// into a [`ProfileAccum`] and — flagged by `LEAN` — lets the run loop
/// skip recording output values entirely, since a profile never reads
/// them.
trait RetireSink {
    /// Skip per-lane output recording (profile-only runs).
    const LEAN: bool;
    /// Lane `li` failed with `e`.
    fn fail(&mut self, st: &mut BatchState, li: usize, e: ExecError);
    /// Lane `li` returned (optionally slot `returned`).
    fn retire(&mut self, cf: &CompiledFn, st: &mut BatchState, li: usize, returned: Option<usize>);
    /// Retires a whole group of returning lanes. Semantically exactly
    /// `retire` per lane (the default); sinks that only aggregate may
    /// override with a column-wise fold.
    fn retire_group(
        &mut self,
        cf: &CompiledFn,
        st: &mut BatchState,
        group: &[u32],
        returned: Option<usize>,
    ) {
        for &l in group {
            self.retire(cf, st, l as usize, returned);
        }
    }
}

/// Sink materializing one `Result<ExecResult, _>` per external lane —
/// bit-identical to what [`CompiledFn::execute_seeded`] produces.
struct FullSink {
    results: Vec<Option<Result<ExecResult, ExecError>>>,
}

impl RetireSink for FullSink {
    const LEAN: bool = false;

    fn fail(&mut self, st: &mut BatchState, li: usize, e: ExecError) {
        self.results[st.ext[li] as usize] = Some(Err(e));
    }

    fn retire(&mut self, cf: &CompiledFn, st: &mut BatchState, li: usize, returned: Option<usize>) {
        let nb = cf.blocks.len();
        let mut branches = BranchStats::default();
        for (b, &(t, f)) in st.branch_counts[li * nb..(li + 1) * nb].iter().enumerate() {
            if t + f > 0 {
                branches.counts.insert(b, (t, f));
            }
        }
        let outputs = std::mem::take(&mut st.outputs[li])
            .into_iter()
            .map(|(name, v)| (cf.output_names[name as usize].clone(), v))
            .collect();
        self.results[st.ext[li] as usize] = Some(Ok(ExecResult {
            outputs,
            memories: std::mem::take(&mut st.memories[li]),
            returned: returned.map(|slot| st.values[slot * st.lanes + li]),
            branches,
            ops_executed: st.ops[li],
            block_visits: st.block_visits[li * nb..(li + 1) * nb].to_vec(),
        }));
    }
}

/// Sink judging each lane against its captured expectation *as it
/// retires*, optionally folding branch/visit counters into a
/// [`ProfileAccum`] at the same time — the verify pass of
/// [`crate::simulate`], without the per-lane [`ExecResult`]
/// materialization of [`FullSink`]: no `BranchStats` map, no output-name
/// `String` clones, no visit-vector copies. Only a verdict comes out:
/// `mismatch` is a sticky flag (the located [`crate::Mismatch`] report is
/// the interpreter oracle's business, [`crate::check_equivalence`]).
///
/// Equality semantics match `judge` in `crate::equiv` exactly: outputs
/// compared element-wise in emission order, then the return value, then
/// memory images; a lane where both sides failed agrees (the rewrite
/// preserved the failure).
pub(crate) struct VerifySink<'a> {
    /// Captured original-side outcome per *external* lane index.
    pub(crate) expected: &'a [crate::equiv::Expected<'a>],
    /// Per-external-lane dedup multiplicities; `None` means all 1.
    pub(crate) weights: Option<&'a [usize]>,
    /// When present, receives the same weighted statistics
    /// [`ProfileSink`] would record.
    pub(crate) accum: Option<&'a mut ProfileAccum>,
    /// Sticky: any lane disagreed with its expectation.
    pub(crate) mismatch: bool,
    /// Work of the lanes retired so far.
    pub(crate) steps: LaneSteps,
}

impl VerifySink<'_> {
    fn weight(&self, ext: usize) -> usize {
        self.weights.map_or(1, |w| w[ext])
    }
}

impl RetireSink for VerifySink<'_> {
    const LEAN: bool = false;

    fn fail(&mut self, st: &mut BatchState, li: usize, e: ExecError) {
        let ext = st.ext[li] as usize;
        let w = self.weight(ext);
        self.steps.failed(&e);
        if let Some(a) = self.accum.as_mut() {
            a.record_failed(w);
        }
        // (Err, Err) is a preserved failure; an expected success that
        // failed is a mismatch.
        if self.expected[ext].is_ok() {
            self.mismatch = true;
        }
    }

    fn retire(&mut self, cf: &CompiledFn, st: &mut BatchState, li: usize, returned: Option<usize>) {
        let nb = cf.blocks.len();
        let ext = st.ext[li] as usize;
        let w = self.weight(ext);
        let visits = &st.block_visits[li * nb..(li + 1) * nb];
        self.steps.ok(st.ops[li], visits.iter().sum());
        if let Some(a) = self.accum.as_mut() {
            a.record_run(
                &st.branch_counts[li * nb..(li + 1) * nb],
                &st.block_visits[li * nb..(li + 1) * nb],
                w,
            );
        }
        match self.expected[ext] {
            Err(_) => self.mismatch = true,
            Ok((outputs, memories, ret)) => {
                let got = &st.outputs[li];
                let outputs_eq = got.len() == outputs.len()
                    && got.iter().zip(outputs).all(|(&(id, v), (name, ev))| {
                        v == *ev && cf.output_names[id as usize] == *name
                    });
                let returned_eq = returned.map(|slot| st.values[slot * st.lanes + li]) == ret;
                let memories_eq = memories
                    .iter()
                    .zip(&st.memories[li])
                    .all(|(ma, mb)| ma.iter().zip(mb).all(|(x, y)| x == y));
                if !(outputs_eq && returned_eq && memories_eq) {
                    self.mismatch = true;
                }
            }
        }
    }
}

/// Sink folding retirements straight into a [`ProfileAccum`], weighted by
/// the lane's dedup multiplicity. No [`ExecResult`] is ever built — the
/// per-lane allocations (output name strings, visit vectors, branch maps)
/// that dominate batched profiling of cheap behaviors disappear, and the
/// accumulated profile is bit-identical because [`ProfileAccum::record`]
/// reads exactly the counters recorded here.
struct ProfileSink<'a> {
    accum: &'a mut ProfileAccum,
    /// Per-external-lane multiplicities; `None` means all 1.
    weights: Option<&'a [usize]>,
    /// Work of the lanes retired so far.
    steps: LaneSteps,
}

impl ProfileSink<'_> {
    fn weight(&self, ext: usize) -> usize {
        self.weights.map_or(1, |w| w[ext])
    }
}

impl RetireSink for ProfileSink<'_> {
    const LEAN: bool = true;

    fn fail(&mut self, st: &mut BatchState, li: usize, e: ExecError) {
        let w = self.weight(st.ext[li] as usize);
        self.steps.failed(&e);
        self.accum.record_failed(w);
    }

    fn retire(
        &mut self,
        cf: &CompiledFn,
        st: &mut BatchState,
        li: usize,
        _returned: Option<usize>,
    ) {
        let nb = cf.blocks.len();
        let w = self.weight(st.ext[li] as usize);
        let visits = &st.block_visits[li * nb..(li + 1) * nb];
        self.steps.ok(st.ops[li], visits.iter().sum());
        self.accum
            .record_run(&st.branch_counts[li * nb..(li + 1) * nb], visits, w);
    }

    /// Column-wise fold: one accumulator update per block instead of one
    /// per (lane, block). Bit-identical to the per-lane default because
    /// every profile counter is a weighted sum (see
    /// [`ProfileAccum::record_block_totals`]).
    fn retire_group(
        &mut self,
        cf: &CompiledFn,
        st: &mut BatchState,
        group: &[u32],
        _returned: Option<usize>,
    ) {
        let nb = cf.blocks.len();
        for b in 0..nb {
            let (mut t, mut f, mut vis) = (0u64, 0u64, 0u64);
            for &l in group {
                let li = l as usize;
                let w = self.weight(st.ext[li] as usize) as u64;
                let bc = st.branch_counts[li * nb + b];
                t += bc.0 * w;
                f += bc.1 * w;
                vis += st.block_visits[li * nb + b] * w;
            }
            self.accum.record_block_totals(b, t, f, vis);
        }
        let mut total = 0;
        for &l in group {
            let li = l as usize;
            total += self.weight(st.ext[li] as usize);
            let visits = &st.block_visits[li * nb..(li + 1) * nb];
            self.steps.ok(st.ops[li], visits.iter().sum());
        }
        self.accum.record_ok_runs(total);
    }
}

/// Retires lane `li` with an error through the sink.
fn fail_lane<S: RetireSink>(st: &mut BatchState, sink: &mut S, li: usize, e: ExecError) {
    st.alive[li] = false;
    sink.fail(st, li, e);
}

/// Recyclable buffers for the per-batch allocations of the batched
/// engine. One profiling pass runs many batches back to back; threading
/// one scratch through them turns every per-batch `Vec` into a
/// `clear`+`resize` of an already-sized allocation. Results are
/// unaffected — the scratch only donates capacity, every element is
/// (re)initialized exactly as a fresh allocation would be, except the
/// resolved-input value plane, whose stale rows are masked by the
/// presence plane (see [`resolve_columns`]).
#[derive(Default)]
pub(crate) struct BatchScratch {
    values: Vec<i64>,
    vals: Vec<i64>,
    present: Vec<bool>,
    memories: Vec<Vec<Vec<i64>>>,
    outputs: Vec<Vec<(u32, i64)>>,
    branch_counts: Vec<(u64, u64)>,
    block_visits: Vec<u64>,
    ops: Vec<u64>,
    prev: Vec<usize>,
    alive: Vec<bool>,
    ext: Vec<u32>,
    row: Vec<i64>,
}

impl BatchScratch {
    /// One per-lane memory image list per lane, reusing the outer
    /// vector's allocation and every inner per-memory vector it still
    /// holds from the previous batch: `fill` receives lane `k`'s recycled
    /// buffers (stale contents, retained capacity) and must leave them
    /// exactly as a fresh build would.
    pub(crate) fn take_memories(
        &mut self,
        n: usize,
        mut fill: impl FnMut(usize, &mut Vec<Vec<i64>>),
    ) -> Vec<Vec<Vec<i64>>> {
        let mut m = std::mem::take(&mut self.memories);
        m.truncate(n);
        for (k, lane) in m.iter_mut().enumerate() {
            fill(k, lane);
        }
        for k in m.len()..n {
            let mut lane = Vec::new();
            fill(k, &mut lane);
            m.push(lane);
        }
        m
    }
}

/// Reusable buffers for [`crate::simulate`]. A search loop evaluates
/// thousands of candidates back to back; threading one `SimScratch`
/// through all of them turns every per-batch allocation into a
/// `clear`+`resize` of an already-sized buffer. Purely an optimization:
/// the scratch only donates capacity, and results never depend on its
/// contents.
#[derive(Default)]
pub struct SimScratch {
    pub(crate) batch: BatchScratch,
}

/// Clears and re-fills a recycled vector, preserving its capacity.
fn recycled<T: Clone>(mut v: Vec<T>, len: usize, fill: T) -> Vec<T> {
    v.clear();
    v.resize(len, fill);
    v
}

/// Name-major pre-resolved inputs: a dense value plane (`input_names ×
/// lanes`, absent entries 0) with a parallel presence plane. Splitting
/// the `Option` out keeps value rows `memcpy`-able, which is what makes
/// the `Inst::Input` fast path a straight row copy.
pub(crate) struct ResolvedInputs {
    /// Input values, `input_names × lanes`; 0 where absent.
    vals: Vec<i64>,
    /// Whether `vals[i]` was actually supplied.
    present: Vec<bool>,
    /// Per input name: whether every lane has it (fast-path gate for
    /// `Inst::Input`, which then cannot fail). Builders compute this
    /// where they already know it, sparing the run loop a plane scan.
    all_present: Vec<bool>,
}

impl ResolvedInputs {
    fn get(&self, i: usize) -> Option<i64> {
        self.present[i].then(|| self.vals[i])
    }
}

/// Builds the name-major resolved-input matrix (`input_names × lanes`) for
/// a batch whose lanes' inputs are `rows` of a [`TraceColumns`] view —
/// bit-identical to the hash-map resolution of [`CompiledFn::run_batch`]
/// when the columns exist (every vector has the same key set): a name
/// absent from the columns is absent from every vector.
///
/// The value plane is recycled from `scratch` *without* zeroing: rows of
/// names present in the columns are fully overwritten, and rows of absent
/// names — whatever stale bytes they hold — are masked by their `false`
/// presence rows, which every reader checks first.
pub(crate) fn resolve_columns(
    cf: &CompiledFn,
    cols: &TraceColumns,
    rows: impl ExactSizeIterator<Item = usize> + Clone,
    scratch: &mut BatchScratch,
) -> ResolvedInputs {
    let n = rows.len();
    let len = cf.input_names.len() * n;
    let mut vals = std::mem::take(&mut scratch.vals);
    vals.resize(len, 0);
    let mut present = recycled(std::mem::take(&mut scratch.present), len, false);
    let mut all_present = vec![false; cf.input_names.len()];
    for (ni, name) in cf.input_names.iter().enumerate() {
        if let Some(c) = cols.col(name) {
            let col = cols.col_values(c);
            for (k, row) in rows.clone().enumerate() {
                vals[ni * n + k] = col[row];
            }
            present[ni * n..(ni + 1) * n].fill(true);
            all_present[ni] = true;
        }
    }
    ResolvedInputs {
        vals,
        present,
        all_present,
    }
}

/// Direct column-to-value-array input fill for a batch: the contiguous
/// trace rows each `Inst::Input`'s destination row is copied from. Only
/// offered (and only sound) for functions passing
/// [`CompiledFn::fusable_straightline`] with every input name present in
/// the columns: such a batch provably never consults the resolved-input
/// planes, so the intermediate copy through them is skipped entirely.
pub(crate) struct InputPrefill<'a> {
    pub(crate) cols: &'a TraceColumns,
    pub(crate) rows: std::ops::Range<usize>,
}

/// A [`ResolvedInputs`] for a fused batch (see [`InputPrefill`]): the
/// planes are sized but *not* filled — `all_present` is all `true`
/// because the caller checked every name has a column, and no reachable
/// path reads the planes themselves (no lane can fail or leave the
/// contiguous fast path, so the per-lane `get` arms never run).
pub(crate) fn resolve_presence_only(
    cf: &CompiledFn,
    n: usize,
    scratch: &mut BatchScratch,
) -> ResolvedInputs {
    let len = cf.input_names.len() * n;
    let mut vals = std::mem::take(&mut scratch.vals);
    vals.resize(len, 0);
    let mut present = std::mem::take(&mut scratch.present);
    present.resize(len, true);
    ResolvedInputs {
        vals,
        present,
        all_present: vec![true; cf.input_names.len()],
    }
}

/// [`resolve_columns`] specialized to a contiguous row range — the shape
/// of every profiling batch — where each name's lane row is one straight
/// `memcpy` out of its column.
pub(crate) fn resolve_columns_range(
    cf: &CompiledFn,
    cols: &TraceColumns,
    rows: std::ops::Range<usize>,
    scratch: &mut BatchScratch,
) -> ResolvedInputs {
    let n = rows.len();
    let len = cf.input_names.len() * n;
    let mut vals = std::mem::take(&mut scratch.vals);
    vals.resize(len, 0);
    let mut present = recycled(std::mem::take(&mut scratch.present), len, false);
    let mut all_present = vec![false; cf.input_names.len()];
    for (ni, name) in cf.input_names.iter().enumerate() {
        if let Some(c) = cols.col(name) {
            let col = cols.col_values(c);
            vals[ni * n..(ni + 1) * n].copy_from_slice(&col[rows.clone()]);
            present[ni * n..(ni + 1) * n].fill(true);
            all_present[ni] = true;
        }
    }
    ResolvedInputs {
        vals,
        present,
        all_present,
    }
}

/// Builds the name-major resolved matrix and per-lane sized memories from
/// [`Lane`]s (the hash-map input-resolution path).
pub(crate) fn resolve_lanes(
    cf: &CompiledFn,
    lanes: &[Lane<'_>],
) -> (ResolvedInputs, Vec<Vec<Vec<i64>>>) {
    let n = lanes.len();
    let mut vals = vec![0i64; cf.input_names.len() * n];
    let mut present = vec![false; cf.input_names.len() * n];
    let mut all_present = vec![true; cf.input_names.len()];
    for (ni, name) in cf.input_names.iter().enumerate() {
        for (k, l) in lanes.iter().enumerate() {
            match l.inputs.get(name) {
                Some(&v) => {
                    vals[ni * n + k] = v;
                    present[ni * n + k] = true;
                }
                None => all_present[ni] = false,
            }
        }
    }
    let memories = lanes.iter().map(|l| sized_memories(cf, l.init)).collect();
    (
        ResolvedInputs {
            vals,
            present,
            all_present,
        },
        memories,
    )
}

/// Resizes initial images to the function's declared memory sizes, for
/// both engines: memory `i` starts as `init[i]` resized to its declared
/// size, missing entries zero-filled.
pub(crate) fn sized_memories(cf: &CompiledFn, init: &[Vec<i64>]) -> Vec<Vec<i64>> {
    cf.mem_sizes
        .iter()
        .enumerate()
        .map(|(i, &sz)| {
            init.get(i)
                .cloned()
                .map(|mut v| {
                    v.resize(sz, 0);
                    v
                })
                .unwrap_or_else(|| vec![0; sz])
        })
        .collect()
}

/// [`sized_memories`] into a recycled per-lane list: same contents, but
/// `dst`'s existing allocations are reused instead of cloning `init`.
pub(crate) fn sized_memories_into(cf: &CompiledFn, init: &[Vec<i64>], dst: &mut Vec<Vec<i64>>) {
    dst.truncate(cf.mem_sizes.len());
    dst.resize_with(cf.mem_sizes.len(), Vec::new);
    for (i, (&sz, d)) in cf.mem_sizes.iter().zip(dst.iter_mut()).enumerate() {
        d.clear();
        if let Some(v) = init.get(i) {
            d.extend_from_slice(&v[..v.len().min(sz)]);
        }
        d.resize(sz, 0);
    }
}

/// Computes the branch-signature clustering order: a bounded scalar
/// prefix probe records each lane's first [`PROBE_BRANCHES`] branch
/// decisions as an MSB-first bit signature, and lanes are sorted by
/// `(signature, lane index)` — a stable key, so the order is a pure
/// function of the program and the resolved inputs, independent of how
/// the caller happened to order equal-signature lanes.
///
/// Returns `None` when clustering cannot help (or cannot be probed
/// cheaply): too few lanes, a function with memories (the probe carries
/// no memory state), a branch-free function, or an order that is already
/// the identity.
fn cluster_order(cf: &CompiledFn, resolved: &ResolvedInputs, n: usize) -> Option<Vec<u32>> {
    if n < MIN_REORDER_LANES || !cf.mem_sizes.is_empty() {
        return None;
    }
    if !cf
        .blocks
        .iter()
        .any(|b| matches!(b.term, CTerm::Branch { .. }))
    {
        return None;
    }
    let mut sigs: Vec<(u64, u32)> = Vec::with_capacity(n);
    let mut values = vec![0i64; cf.num_ops];
    let mut phi_scratch: Vec<i64> = Vec::new();
    for l in 0..n {
        values.fill(0);
        let mut sig = 0u64;
        let mut bits = 0u32;
        let mut budget = PROBE_BUDGET;
        let mut b = cf.entry;
        let mut prev = usize::MAX;
        'walk: loop {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let block = &cf.blocks[b];
            if block.has_phis {
                // The probe mirrors the main loop's parallel-copy phi
                // semantics but bails (instead of panicking) on anything
                // structurally odd — it is a heuristic, not an oracle.
                let Some(copies) = block
                    .phi_copies
                    .iter()
                    .find(|(p, _)| *p == prev)
                    .and_then(|(_, c)| c.as_ref())
                else {
                    break;
                };
                phi_scratch.clear();
                phi_scratch.extend(copies.iter().map(|&(_, src)| values[src]));
                for (&(dst, _), &v) in copies.iter().zip(&phi_scratch) {
                    values[dst] = v;
                }
            }
            for inst in &block.insts {
                if budget == 0 {
                    break 'walk;
                }
                budget -= 1;
                match *inst {
                    Inst::Const { dst, value } => values[dst] = value,
                    Inst::Input { dst, name } => match resolved.get(name as usize * n + l) {
                        Some(v) => values[dst] = v,
                        None => break 'walk,
                    },
                    Inst::Bin { dst, op, a, b } => values[dst] = op.eval(values[a], values[b]),
                    Inst::Un { dst, op, a } => values[dst] = op.eval(values[a]),
                    Inst::Mux {
                        dst,
                        cond,
                        on_true,
                        on_false,
                    } => {
                        values[dst] = if values[cond] != 0 {
                            values[on_true]
                        } else {
                            values[on_false]
                        }
                    }
                    Inst::Output { dst, .. } => values[dst] = 0,
                    // Unreachable behind the memory-free gate above, but
                    // bail rather than assume.
                    Inst::Load { .. } | Inst::Store { .. } => break 'walk,
                }
            }
            match block.term {
                CTerm::Jump(next) => {
                    prev = b;
                    b = next;
                }
                CTerm::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    let taken = values[cond] != 0;
                    sig |= (taken as u64) << (63 - bits);
                    bits += 1;
                    if bits >= PROBE_BRANCHES {
                        break;
                    }
                    prev = b;
                    b = if taken { on_true } else { on_false };
                }
                CTerm::Return(_) => break,
            }
        }
        // Fold the decision count into the low bits so lanes that stopped
        // early do not alias lanes that kept taking false branches.
        sigs.push((sig | bits as u64, l as u32));
    }
    sigs.sort_unstable();
    let order: Vec<u32> = sigs.into_iter().map(|(_, l)| l).collect();
    if order.iter().enumerate().all(|(k, &o)| o as usize == k) {
        return None;
    }
    Some(order)
}

/// Applies a clustering order: permutes the resolved-input matrix and the
/// per-lane memories so internal slot `k` holds external lane `order[k]`.
fn permute_batch(
    cf: &CompiledFn,
    resolved: ResolvedInputs,
    mut memories: Vec<Vec<Vec<i64>>>,
    order: Vec<u32>,
) -> (ResolvedInputs, Vec<Vec<Vec<i64>>>, Vec<u32>) {
    let n = order.len();
    let ni = cf.input_names.len();
    let mut vals = vec![0i64; ni * n];
    let mut present = vec![false; ni * n];
    for i in 0..ni {
        let (vrow, prow) = (
            &resolved.vals[i * n..(i + 1) * n],
            &resolved.present[i * n..(i + 1) * n],
        );
        for (k, &o) in order.iter().enumerate() {
            vals[i * n + k] = vrow[o as usize];
            present[i * n + k] = prow[o as usize];
        }
    }
    let mems = order
        .iter()
        .map(|&o| std::mem::take(&mut memories[o as usize]))
        .collect();
    (
        ResolvedInputs {
            vals,
            present,
            // A permutation of the lanes leaves per-name presence intact.
            all_present: resolved.all_present,
        },
        mems,
        order,
    )
}

impl BatchState {
    fn from_parts(
        cf: &CompiledFn,
        resolved: ResolvedInputs,
        memories: Vec<Vec<Vec<i64>>>,
        ext: Vec<u32>,
        scratch: &mut BatchScratch,
    ) -> BatchState {
        let n = memories.len();
        let nb = cf.blocks.len();
        debug_assert_eq!(resolved.vals.len(), cf.input_names.len() * n);
        debug_assert_eq!(ext.len(), n);
        let mut outputs = std::mem::take(&mut scratch.outputs);
        outputs.clear();
        outputs.resize_with(n, Vec::new);
        // When every slot is written before read, a recycled value array's
        // stale contents are unobservable — skip the per-batch re-zeroing.
        let mut values = std::mem::take(&mut scratch.values);
        if cf.writes_before_reads {
            values.resize(cf.num_ops * n, 0);
        } else {
            values = recycled(values, cf.num_ops * n, 0);
        }
        BatchState {
            lanes: n,
            values,
            resolved,
            memories,
            outputs,
            branch_counts: recycled(std::mem::take(&mut scratch.branch_counts), n * nb, (0, 0)),
            block_visits: recycled(std::mem::take(&mut scratch.block_visits), n * nb, 0),
            ops: recycled(std::mem::take(&mut scratch.ops), n, 0),
            prev: recycled(std::mem::take(&mut scratch.prev), n, usize::MAX),
            alive: recycled(std::mem::take(&mut scratch.alive), n, true),
            ext,
        }
    }

    /// Returns every buffer to `scratch` for the next batch to recycle.
    fn recycle(self, scratch: &mut BatchScratch) {
        scratch.values = self.values;
        scratch.vals = self.resolved.vals;
        scratch.present = self.resolved.present;
        scratch.memories = self.memories;
        scratch.outputs = self.outputs;
        scratch.branch_counts = self.branch_counts;
        scratch.block_visits = self.block_visits;
        scratch.ops = self.ops;
        scratch.prev = self.prev;
        scratch.alive = self.alive;
        scratch.ext = self.ext;
    }

    /// Re-packs every live lane into dense internal slots: the popped
    /// `group` first (becoming `0..group.len()`), then each bucket in
    /// block order, lanes ascending — all stable, so the new layout is a
    /// pure function of the old one. Retired lanes are dropped, buckets
    /// become contiguous ranges, and the returned vector is the
    /// renumbered group. Per-lane state moves with its lane; results are
    /// unaffected because retirement routes through `ext`.
    fn compact(&mut self, cf: &CompiledFn, buckets: &mut [Vec<u32>], group: &[u32]) -> Vec<u32> {
        let n = self.lanes;
        let nb = cf.blocks.len();
        let ni = cf.input_names.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        order.extend_from_slice(group);
        for bkt in buckets.iter_mut() {
            bkt.sort_unstable();
            order.extend_from_slice(bkt);
        }
        let live = order.len();
        let mut values = vec![0i64; cf.num_ops * live];
        for s in 0..cf.num_ops {
            let row = &self.values[s * n..s * n + n];
            let dst = &mut values[s * live..(s + 1) * live];
            for (k, &o) in order.iter().enumerate() {
                dst[k] = row[o as usize];
            }
        }
        self.values = values;
        let mut vals = vec![0i64; ni * live];
        let mut present = vec![false; ni * live];
        for i in 0..ni {
            let (vrow, prow) = (
                &self.resolved.vals[i * n..i * n + n],
                &self.resolved.present[i * n..i * n + n],
            );
            for (k, &o) in order.iter().enumerate() {
                vals[i * live + k] = vrow[o as usize];
                present[i * live + k] = prow[o as usize];
            }
            self.resolved.all_present[i] = present[i * live..(i + 1) * live].iter().all(|&p| p);
        }
        self.resolved = ResolvedInputs {
            vals,
            present,
            all_present: std::mem::take(&mut self.resolved.all_present),
        };
        self.memories = order
            .iter()
            .map(|&o| std::mem::take(&mut self.memories[o as usize]))
            .collect();
        self.outputs = order
            .iter()
            .map(|&o| std::mem::take(&mut self.outputs[o as usize]))
            .collect();
        let mut branch_counts = vec![(0u64, 0u64); live * nb];
        let mut block_visits = vec![0u64; live * nb];
        for (k, &o) in order.iter().enumerate() {
            let (src, dst) = (o as usize * nb, k * nb);
            branch_counts[dst..dst + nb].copy_from_slice(&self.branch_counts[src..src + nb]);
            block_visits[dst..dst + nb].copy_from_slice(&self.block_visits[src..src + nb]);
        }
        self.branch_counts = branch_counts;
        self.block_visits = block_visits;
        self.ops = order.iter().map(|&o| self.ops[o as usize]).collect();
        self.prev = order.iter().map(|&o| self.prev[o as usize]).collect();
        self.ext = order.iter().map(|&o| self.ext[o as usize]).collect();
        self.alive = vec![true; live];
        self.lanes = live;
        let mut next = group.len() as u32;
        for bkt in buckets.iter_mut() {
            let len = bkt.len() as u32;
            bkt.clear();
            bkt.extend(next..next + len);
            next += len;
        }
        (0..group.len() as u32).collect()
    }
}

impl CompiledFn {
    /// Whether every batch over this function is one straight-line pass
    /// that can neither fail nor diverge (given inputs for every name):
    /// a single `Return`-terminated, memory-free block whose slots are
    /// written before read and whose op count fits `step_limit`. Such a
    /// batch keeps its full contiguous group on the fast path for every
    /// instruction, which is what makes [`InputPrefill`] sound.
    pub(crate) fn fusable_straightline(&self, step_limit: u64) -> bool {
        self.writes_before_reads
            && self.mem_sizes.is_empty()
            && matches!(self.blocks[self.entry].term, CTerm::Return(_))
            && (self.blocks[self.entry].insts.len() as u64) <= step_limit
    }

    /// Executes one lane per entry of `lanes` in lockstep.
    ///
    /// Result `i` is bit-identical to
    /// `self.execute_seeded(lanes[i].inputs, lanes[i].init, step_limit)`;
    /// the batch engine only changes how the work is scheduled, never what
    /// any lane observes.
    ///
    /// # Panics
    /// Panics where the scalar interpreter would: a phi in the entry
    /// block, or an executed edge missing from a phi's incoming list.
    pub fn run_batch(
        &self,
        lanes: &[Lane<'_>],
        step_limit: u64,
    ) -> Vec<Result<ExecResult, ExecError>> {
        if lanes.is_empty() {
            return Vec::new();
        }
        let (resolved, memories) = resolve_lanes(self, lanes);
        let mut sink = FullSink {
            results: vec![None; lanes.len()],
        };
        self.run_batch_core(
            resolved,
            memories,
            step_limit,
            None,
            &mut sink,
            &mut BatchScratch::default(),
            None,
        );
        sink.results
            .into_iter()
            .map(|r| r.expect("every lane either returns or errors"))
            .collect()
    }

    /// Profile-only batched run: folds every lane's branch/visit counters
    /// straight into `accum` (weighted by `weights`, or 1 per lane when
    /// `None`) without materializing per-lane results. The accumulated
    /// statistics are bit-identical to running [`CompiledFn::run_batch`]
    /// and recording each result.
    /// `scratch` donates and receives back the per-batch buffers, so a
    /// caller looping over batches allocates only on the first one.
    /// Returns the batch's step tally.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batch_profiled(
        &self,
        resolved: ResolvedInputs,
        memories: Vec<Vec<Vec<i64>>>,
        step_limit: u64,
        counters: Option<&SimCounters>,
        weights: Option<&[usize]>,
        accum: &mut ProfileAccum,
        scratch: &mut BatchScratch,
        prefill: Option<InputPrefill<'_>>,
    ) -> LaneSteps {
        let mut sink = ProfileSink {
            accum,
            weights,
            steps: LaneSteps::default(),
        };
        self.run_batch_core(
            resolved, memories, step_limit, counters, &mut sink, scratch, prefill,
        );
        sink.steps
    }

    /// Verify-(and optionally profile-)only batched run: every lane is
    /// judged against its captured expectation during retirement (see
    /// [`VerifySink`]) without materializing per-lane results. `scratch`
    /// donates and receives back the per-batch buffers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_batch_verified(
        &self,
        resolved: ResolvedInputs,
        memories: Vec<Vec<Vec<i64>>>,
        step_limit: u64,
        counters: Option<&SimCounters>,
        sink: &mut VerifySink<'_>,
        scratch: &mut BatchScratch,
        prefill: Option<InputPrefill<'_>>,
    ) {
        self.run_batch_core(
            resolved, memories, step_limit, counters, sink, scratch, prefill,
        );
    }

    /// The lockstep engine behind every batched entry point, generic over
    /// where retirements go.
    #[allow(clippy::too_many_arguments)]
    fn run_batch_core<S: RetireSink>(
        &self,
        resolved: ResolvedInputs,
        memories: Vec<Vec<Vec<i64>>>,
        step_limit: u64,
        counters: Option<&SimCounters>,
        sink: &mut S,
        scratch: &mut BatchScratch,
        prefill: Option<InputPrefill<'_>>,
    ) {
        let orig_n = memories.len();
        if orig_n == 0 {
            return;
        }
        let nb = self.blocks.len();
        let identity_ext = |scratch: &mut BatchScratch| {
            let mut e = std::mem::take(&mut scratch.ext);
            e.clear();
            e.extend(0..orig_n as u32);
            e
        };
        // Branch-signature clustering: permute lanes so same-signature
        // vectors occupy adjacent internal slots. `ext` maps back.
        let (resolved, memories, ext) = match cluster_order(self, &resolved, orig_n) {
            Some(order) => permute_batch(self, resolved, memories, order),
            None => (resolved, memories, identity_ext(scratch)),
        };
        let mut n = orig_n;
        let mut st = BatchState::from_parts(self, resolved, memories, ext, scratch);
        // Fused input fill: each `Input` destination row is copied once,
        // straight from its trace column — the resolved planes are never
        // read (see `InputPrefill`), and the `Inst::Input` arm below
        // skips its (now redundant) copy.
        let prefilled = match prefill {
            Some(p) => {
                debug_assert!(self.fusable_straightline(step_limit));
                for inst in &self.blocks[self.entry].insts {
                    if let Inst::Input { dst, name } = *inst {
                        let c = p
                            .cols
                            .col(&self.input_names[name as usize])
                            .expect("prefill requires a column per input name");
                        st.values[dst * n..(dst + 1) * n]
                            .copy_from_slice(&p.cols.col_values(c)[p.rows.clone()]);
                    }
                }
                true
            }
            None => false,
        };
        // Lanes about to execute block `b` wait in `buckets[b]`.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); nb];
        buckets[self.entry] = (0..n as u32).collect();
        let mut phi_scratch: Vec<i64> = Vec::new();
        // Output row of the dense eval kernels; disjoint from `st.values`
        // so kernel input/output slices provably never alias.
        let mut row_scratch = recycled(std::mem::take(&mut scratch.row), n, 0);

        // Divergence accounting: lane-steps on/off the fast path, and the
        // slow-path debt that amortizes a compaction. Only slow steps that
        // compaction could have avoided (fragmentation under headroom)
        // accrue debt.
        let mut total_steps = 0u64;
        let mut slow_steps = 0u64;
        let mut frag_debt = 0u64;
        let mut compactions = 0u64;
        let compact_threshold = |lanes: usize| {
            (((self.num_ops + self.input_names.len() + 2 * nb + 8) * lanes) as u64)
                / COMPACT_PAYBACK
        };

        // Deterministic schedule: lowest-numbered non-empty bucket, lanes
        // in ascending order. Blocks are numbered roughly topologically by
        // the front end, so lanes inside a loop all drain before the join
        // block past the exit runs — maximal regrouping for the common
        // divergence shapes. `scan_from` is a cursor below which every
        // bucket is known empty: the previous iteration drained the lowest
        // non-empty bucket `b` and refilled at most its successors, so the
        // next lowest is at or above min(successors, b + 1).
        let mut scan_from = self.entry;
        while let Some(b) = (scan_from..nb).find(|&b| !buckets[b].is_empty()) {
            let mut group = std::mem::take(&mut buckets[b]);
            group.sort_unstable();

            // Lane compaction: when the popped group is fragmented and
            // enough slow-path work has accrued to amortize the move,
            // re-pack every live lane into dense slots. Internal
            // renumbering only — `ext` keeps results in caller order.
            if group.len() >= MIN_REORDER_LANES
                && group[group.len() - 1] as usize - group[0] as usize + 1 != group.len()
                && frag_debt >= compact_threshold(n)
            {
                group = st.compact(self, &mut buckets, &group);
                n = st.lanes;
                frag_debt = 0;
                compactions += 1;
            }

            let block = &self.blocks[b];

            for &l in &group {
                st.block_visits[l as usize * nb + b] += 1;
            }

            // Step-limit headroom: if even the slowest lane cannot reach
            // the limit within this block (every lane executes at most
            // `worst` more ops before the terminator), the per-op limit
            // checks are skipped and contiguous lane groups take
            // vectorizable fast loops, with the op counts applied in bulk
            // at the end of the block (`pending`).
            let phi_worst = if block.has_phis {
                block
                    .phi_copies
                    .iter()
                    .map(|(_, c)| c.as_ref().map_or(0, |c| c.len()))
                    .max()
                    .unwrap_or(0)
            } else {
                0
            };
            let worst = (phi_worst + block.insts.len()) as u64;
            let max_ops = group.iter().map(|&l| st.ops[l as usize]).max().unwrap_or(0);
            let headroom = max_ops.saturating_add(worst) <= step_limit;
            let mut pending: u64 = 0;

            // Phase 1: phis, parallel-copy semantics per lane. The copy
            // list depends on each lane's predecessor, so the group is
            // sub-partitioned by `prev`; within one lane all sources are
            // read before any destination is written.
            if block.has_phis {
                for &l in &group {
                    let li = l as usize;
                    assert!(st.prev[li] != usize::MAX, "phi in entry block");
                    let copies = block
                        .phi_copies
                        .iter()
                        .find(|(p, _)| *p == st.prev[li])
                        .map(|(_, c)| c.as_ref())
                        .expect("executed edge comes from a structural predecessor")
                        .expect("phi has entry for executed predecessor");
                    phi_scratch.clear();
                    phi_scratch.extend(copies.iter().map(|&(_, src)| st.values[src * n + li]));
                    for (&(dst, _), &v) in copies.iter().zip(&phi_scratch) {
                        st.values[dst * n + li] = v;
                        st.ops[li] += 1;
                    }
                }
            }

            // Phase 2: non-phi operations — instruction-outer, lane-inner,
            // so each decode/dispatch is paid once per *block execution*
            // rather than once per vector. Lanes that error retire and
            // drop out of the group before the next instruction. When the
            // group is a contiguous lane range and `headroom` holds,
            // pure instructions run the dense row kernels ([`bin_row`] and
            // friends) over contiguous rows of the value array; the group
            // only loses contiguity when a lane fails mid-block.
            for inst in &block.insts {
                if group.is_empty() {
                    break;
                }
                let lo = group[0] as usize;
                let glen = group.len();
                let fast = headroom && group[glen - 1] as usize - lo + 1 == glen;
                total_steps += glen as u64;
                if !fast {
                    slow_steps += glen as u64;
                    if headroom {
                        frag_debt += glen as u64;
                    }
                }
                let mut any_failed = false;
                match *inst {
                    Inst::Const { dst, value } => {
                        if fast {
                            st.values[dst * n + lo..dst * n + lo + glen].fill(value);
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                st.values[dst * n + li] = value;
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Input { dst, name } => {
                        if fast && st.resolved.all_present[name as usize] {
                            if !prefilled {
                                let rb = name as usize * n + lo;
                                let db = dst * n + lo;
                                let (vals, dst_row) = (
                                    &st.resolved.vals[rb..rb + glen],
                                    &mut st.values[db..db + glen],
                                );
                                dst_row.copy_from_slice(vals);
                            }
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                match st.resolved.get(name as usize * n + li) {
                                    Some(v) => {
                                        st.values[dst * n + li] = v;
                                        st.ops[li] += 1;
                                        if st.ops[li] > step_limit {
                                            fail_lane(
                                                &mut st,
                                                sink,
                                                li,
                                                ExecError::StepLimitExceeded { limit: step_limit },
                                            );
                                            any_failed = true;
                                        }
                                    }
                                    None => {
                                        fail_lane(
                                            &mut st,
                                            sink,
                                            li,
                                            ExecError::MissingInput(
                                                self.input_names[name as usize].clone(),
                                            ),
                                        );
                                        any_failed = true;
                                    }
                                }
                            }
                        }
                    }
                    Inst::Bin { dst, op, a, b: b2 } => {
                        if fast {
                            let (ab, bb, db) = (a * n + lo, b2 * n + lo, dst * n + lo);
                            if db >= ab + glen && db >= bb + glen {
                                // SSA-typical layout: dst row above both
                                // operand rows, so one split gives the
                                // kernel alias-free slices in place.
                                let (src, dsts) = st.values.split_at_mut(db);
                                bin_row(
                                    op,
                                    &src[ab..ab + glen],
                                    &src[bb..bb + glen],
                                    &mut dsts[..glen],
                                );
                            } else {
                                let out = &mut row_scratch[..glen];
                                bin_row(
                                    op,
                                    &st.values[ab..ab + glen],
                                    &st.values[bb..bb + glen],
                                    out,
                                );
                                st.values[db..db + glen].copy_from_slice(out);
                            }
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                st.values[dst * n + li] =
                                    op.eval(st.values[a * n + li], st.values[b2 * n + li]);
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Un { dst, op, a } => {
                        if fast {
                            let (ab, db) = (a * n + lo, dst * n + lo);
                            if db >= ab + glen {
                                let (src, dsts) = st.values.split_at_mut(db);
                                un_row(op, &src[ab..ab + glen], &mut dsts[..glen]);
                            } else {
                                let out = &mut row_scratch[..glen];
                                un_row(op, &st.values[ab..ab + glen], out);
                                st.values[db..db + glen].copy_from_slice(out);
                            }
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                st.values[dst * n + li] = op.eval(st.values[a * n + li]);
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Mux {
                        dst,
                        cond,
                        on_true,
                        on_false,
                    } => {
                        if fast {
                            let (cb, tb, fb, db) = (
                                cond * n + lo,
                                on_true * n + lo,
                                on_false * n + lo,
                                dst * n + lo,
                            );
                            if db >= cb + glen && db >= tb + glen && db >= fb + glen {
                                let (src, dsts) = st.values.split_at_mut(db);
                                mux_row(
                                    &src[cb..cb + glen],
                                    &src[tb..tb + glen],
                                    &src[fb..fb + glen],
                                    &mut dsts[..glen],
                                );
                            } else {
                                let out = &mut row_scratch[..glen];
                                mux_row(
                                    &st.values[cb..cb + glen],
                                    &st.values[tb..tb + glen],
                                    &st.values[fb..fb + glen],
                                    out,
                                );
                                st.values[db..db + glen].copy_from_slice(out);
                            }
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                st.values[dst * n + li] = if st.values[cond * n + li] != 0 {
                                    st.values[on_true * n + li]
                                } else {
                                    st.values[on_false * n + li]
                                };
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Load { dst, mem, addr } => {
                        for &l in &group {
                            let li = l as usize;
                            let a = st.values[addr * n + li];
                            let arr = &st.memories[li][mem];
                            if a < 0 || a as usize >= arr.len() {
                                let size = arr.len() as u32;
                                fail_lane(
                                    &mut st,
                                    sink,
                                    li,
                                    ExecError::OutOfBounds {
                                        mem: MemId::new(mem),
                                        addr: a,
                                        size,
                                    },
                                );
                                any_failed = true;
                            } else {
                                st.values[dst * n + li] = arr[a as usize];
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Store {
                        dst,
                        mem,
                        addr,
                        value,
                    } => {
                        for &l in &group {
                            let li = l as usize;
                            let a = st.values[addr * n + li];
                            let v = st.values[value * n + li];
                            let arr = &mut st.memories[li][mem];
                            if a < 0 || a as usize >= arr.len() {
                                let size = arr.len() as u32;
                                fail_lane(
                                    &mut st,
                                    sink,
                                    li,
                                    ExecError::OutOfBounds {
                                        mem: MemId::new(mem),
                                        addr: a,
                                        size,
                                    },
                                );
                                any_failed = true;
                            } else {
                                arr[a as usize] = v;
                                st.values[dst * n + li] = 0;
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                    Inst::Output { dst, name, value } => {
                        if fast {
                            if S::LEAN {
                                // A profile never reads output values;
                                // only the dst slot's defined zero and the
                                // op count are observable.
                                st.values[dst * n + lo..dst * n + lo + glen].fill(0);
                            } else {
                                let (vb, db) = (value * n + lo, dst * n + lo);
                                for k in 0..glen {
                                    let v = st.values[vb + k];
                                    st.outputs[lo + k].push((name, v));
                                    st.values[db + k] = 0;
                                }
                            }
                            pending += 1;
                        } else {
                            for &l in &group {
                                let li = l as usize;
                                if !S::LEAN {
                                    st.outputs[li].push((name, st.values[value * n + li]));
                                }
                                st.values[dst * n + li] = 0;
                                st.ops[li] += 1;
                                if st.ops[li] > step_limit {
                                    fail_lane(
                                        &mut st,
                                        sink,
                                        li,
                                        ExecError::StepLimitExceeded { limit: step_limit },
                                    );
                                    any_failed = true;
                                }
                            }
                        }
                    }
                }
                if any_failed {
                    group.retain(|&l| st.alive[l as usize]);
                }
            }

            // Apply the deferred op counts of the fast loops. Surviving
            // lanes executed every instruction counted in `pending`; lanes
            // that failed mid-block already retired (their partial counts
            // are unobservable — errors carry no op count).
            if pending > 0 {
                for &l in &group {
                    st.ops[l as usize] += pending;
                }
            }

            // Terminator: partition surviving lanes by taken successor.
            match block.term {
                CTerm::Jump(next) => {
                    for &l in &group {
                        st.prev[l as usize] = b;
                    }
                    buckets[next].append(&mut group);
                    scan_from = next.min(b + 1);
                }
                CTerm::Branch {
                    cond,
                    on_true,
                    on_false,
                } => {
                    for &l in &group {
                        let li = l as usize;
                        let taken = st.values[cond * n + li] != 0;
                        let e = &mut st.branch_counts[li * nb + b];
                        if taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                        st.prev[li] = b;
                        buckets[if taken { on_true } else { on_false }].push(l);
                    }
                    scan_from = on_true.min(on_false).min(b + 1);
                }
                CTerm::Return(v) => {
                    for &l in &group {
                        st.alive[l as usize] = false;
                    }
                    sink.retire_group(self, &mut st, &group, v);
                    scan_from = b + 1;
                }
            }
        }

        if let Some(c) = counters {
            c.compactions.fetch_add(compactions, Ordering::Relaxed);
            c.lane_steps.fetch_add(total_steps, Ordering::Relaxed);
            c.slow_lane_steps.fetch_add(slow_steps, Ordering::Relaxed);
        }
        scratch.row = row_scratch;
        st.recycle(scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::ExecConfig;
    use fact_lang::compile;
    use std::collections::HashMap;

    fn vectors(pairs: &[&[(&str, i64)]]) -> Vec<InputVector> {
        pairs
            .iter()
            .map(|kv| kv.iter().map(|(k, v)| (k.to_string(), *v)).collect())
            .collect()
    }

    /// Runs every vector through both engines and asserts bit-identity.
    fn assert_batch_matches_scalar(src: &str, vecs: &[InputVector], init: &[Vec<i64>], limit: u64) {
        let f = compile(src).unwrap();
        let cf = CompiledFn::compile(&f);
        let lanes: Vec<Lane<'_>> = vecs.iter().map(|v| Lane { inputs: v, init }).collect();
        let batched = cf.run_batch(&lanes, limit);
        assert_eq!(batched.len(), vecs.len());
        for (i, v) in vecs.iter().enumerate() {
            let scalar = cf.execute_seeded(v, init, limit);
            match (&scalar, &batched[i]) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.outputs, b.outputs, "lane {i}");
                    assert_eq!(a.memories, b.memories, "lane {i}");
                    assert_eq!(a.returned, b.returned, "lane {i}");
                    assert_eq!(a.ops_executed, b.ops_executed, "lane {i}");
                    assert_eq!(a.block_visits, b.block_visits, "lane {i}");
                    assert_eq!(a.branches.counts, b.branches.counts, "lane {i}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "lane {i}"),
                (a, b) => panic!("lane {i} diverges: scalar {a:?} vs batched {b:?}"),
            }
        }
    }

    #[test]
    fn correlated_lanes_match_scalar() {
        let src = r#"
            proc f(n, a) {
                var i = 0; var s = 0;
                while (i < n) {
                    if (a < i) { s = s + i; } else { s = s - a; }
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let vecs = vectors(&[
            &[("n", 5), ("a", 2)],
            &[("n", 5), ("a", 2)],
            &[("n", 9), ("a", 0)],
            &[("n", 0), ("a", 7)],
        ]);
        assert_batch_matches_scalar(src, &vecs, &[], ExecConfig::default().step_limit);
    }

    #[test]
    fn divergent_trip_counts_match_scalar() {
        let src = "proc f(n) { var i = 0; while (i < n) { i = i + 1; } out i = i; }";
        let vecs = vectors(&[&[("n", 0)], &[("n", 17)], &[("n", 3)], &[("n", 17)]]);
        assert_batch_matches_scalar(src, &vecs, &[], ExecConfig::default().step_limit);
    }

    #[test]
    fn per_lane_errors_match_scalar() {
        // Lane 0 is fine, lane 1 goes out of bounds, lane 2 misses input
        // handling (negative index), lane 3 diverges into the step limit.
        let src = r#"
            proc f(i, n) {
                array x[4];
                x[i] = 1;
                var k = 0;
                while (k < n) { k = k + 1; }
                out k = k;
            }
        "#;
        let vecs = vectors(&[
            &[("i", 2), ("n", 3)],
            &[("i", 9), ("n", 3)],
            &[("i", -1), ("n", 3)],
            &[("i", 0), ("n", 1_000_000)],
        ]);
        assert_batch_matches_scalar(src, &vecs, &[], 500);
    }

    #[test]
    fn missing_inputs_fail_per_lane() {
        let src = "proc f(x) { out y = x + 1; }";
        let mut vecs = vectors(&[&[("x", 4)]]);
        vecs.push(HashMap::new()); // lane without the input
        assert_batch_matches_scalar(src, &vecs, &[], ExecConfig::default().step_limit);
    }

    #[test]
    fn seeded_memories_are_per_lane_private() {
        let src = "proc f(i) { array x[4]; var v = x[i]; x[i] = v + 1; out y = v; }";
        let vecs = vectors(&[&[("i", 0)], &[("i", 0)], &[("i", 3)]]);
        assert_batch_matches_scalar(
            src,
            &vecs,
            &[vec![10, 20, 30, 40]],
            ExecConfig::default().step_limit,
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let f = compile("proc f(a) { out y = a; }").unwrap();
        let cf = CompiledFn::compile(&f);
        assert!(cf.run_batch(&[], 100).is_empty());
    }

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
        assert_eq!(d.engine_batched(), 2);
        assert_eq!(d.divergence(), 0.0);
    }

    #[test]
    fn clustering_groups_divergent_lanes() {
        // Lanes alternate between two branch paths; the probe must sort
        // them into two contiguous runs, and the results must still come
        // back in the caller's order.
        let src = "proc f(a) { var y = 0; if (a > 0) { y = a; } else { y = 0 - a; } out y = y; }";
        let f = compile(src).unwrap();
        let cf = CompiledFn::compile(&f);
        let vals: Vec<i64> = (0..16)
            .map(|i| if i % 2 == 0 { i + 1 } else { -i })
            .collect();
        let vecs: Vec<InputVector> = vals
            .iter()
            .map(|&v| [("a".to_string(), v)].into_iter().collect())
            .collect();
        let lanes: Vec<Lane<'_>> = vecs
            .iter()
            .map(|v| Lane {
                inputs: v,
                init: &[],
            })
            .collect();
        let (resolved, _) = resolve_lanes(&cf, &lanes);
        let order = cluster_order(&cf, &resolved, lanes.len()).expect("divergent lanes cluster");
        // All same-signature lanes must be adjacent after the permutation.
        let sig_of = |l: u32| vals[l as usize] > 0;
        let flips = order
            .windows(2)
            .filter(|w| sig_of(w[0]) != sig_of(w[1]))
            .count();
        assert_eq!(flips, 1, "order {order:?} is not two contiguous runs");
        // And the run itself still reports results in input order.
        let results = cf.run_batch(&lanes, 10_000);
        for (i, r) in results.iter().enumerate() {
            let expect = vals[i].abs();
            assert_eq!(
                r.as_ref().unwrap().outputs,
                vec![("y".to_string(), expect)],
                "lane {i}"
            );
        }
    }

    #[test]
    fn compaction_is_invisible_in_results() {
        // Wildly divergent trip counts with early retirements: compaction
        // fires (holes from retired lanes) and must change nothing.
        let src = "proc f(n) { var i = 0; var s = 0; \
                   while (i < n) { s = s + i; i = i + 1; } out s = s; }";
        let vecs: Vec<InputVector> = (0..64)
            .map(|i| [("n".to_string(), (i * 37) % 29)].into_iter().collect())
            .collect();
        assert_batch_matches_scalar(src, &vecs, &[], ExecConfig::default().step_limit);
    }
}
