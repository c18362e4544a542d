//! Memoized block scheduling for incremental candidate evaluation.
//!
//! The search in `fact-core` reschedules a whole candidate CDFG for every
//! move, but most transformations touch one or two blocks — every other
//! block's list schedule is recomputed from scratch only to come out
//! identical. [`ScheduleMemo`] caches per-block schedules keyed by a
//! *structural* hash of everything [`schedule_block`] actually depends on,
//! so untouched blocks (in this candidate, in sibling candidates, and in
//! candidates of past evaluations) are spliced from cache.
//!
//! # What the key must capture
//!
//! [`schedule_block`] is a pure function of:
//!
//! * the clock period and the library's memory delay;
//! * each op's kind, in block order, with operands encoded as *in-block
//!   earlier position* or "external" — [`block_dependencies`] only
//!   considers in-block earlier defs, and external operands are ready at
//!   state 0 regardless of identity;
//! * each datapath op's functional unit (delay and allocation count
//!   included, so the memo stays safe across libraries/allocations);
//! * raw [`MemId`]s of loads/stores (memory-port conflicts and ordering
//!   are per-memory);
//! * the *relative order of raw `OpId`s* within the block: the ready-list
//!   sort breaks priority ties with `OpId` order, so the block's `OpId`
//!   rank permutation is part of the scheduling input even though the
//!   absolute ids are not.
//!
//! Block schedules name ops by in-block position ([`BlockSchedule`]), so
//! a cached schedule is returned unchanged — shared, not copied — for
//! every structurally identical block of every candidate. Only a cached
//! error is renamed onto the caller's `OpId`. Results are bit-identical
//! to a fresh [`schedule_block`] call; the equivalence tests below and
//! the production-vs-oracle suites (`crates/sched/tests/listsched_oracle.rs`,
//! `crates/core/tests/oracle_equiv.rs`) enforce this.
//!
//! [`schedule_block`]: crate::listsched::schedule_block
//! [`block_dependencies`]: crate::listsched::block_dependencies
//! [`MemId`]: fact_ir::MemId

use crate::listsched::{schedule_indexed, BlockSchedule, PosMap, SchedError};
use crate::resources::{Allocation, FuLibrary, FuSelection};
use fact_ir::{BlockId, Function, OpId, OpKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A cached outcome; an error keeps the block position of the op it names.
type Outcome = Result<Arc<BlockSchedule>, (u32, SchedError)>;

/// A shared, thread-safe cache of per-block schedules.
///
/// Sharded like `fact-core`'s evaluation cache so concurrent candidate
/// evaluations (the parallel search) do not serialize on one lock.
pub struct ScheduleMemo {
    shards: Vec<Mutex<HashMap<u64, Outcome>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl Default for ScheduleMemo {
    fn default() -> Self {
        ScheduleMemo::with_shards(16)
    }
}

impl ScheduleMemo {
    /// Creates a memo with the given shard count (rounded up to 1).
    pub fn with_shards(n: usize) -> Self {
        ScheduleMemo {
            shards: (0..n.max(1)).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: std::sync::atomic::AtomicU64::new(0),
            misses: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// `(hits, misses)` over the memo's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(std::sync::atomic::Ordering::Relaxed),
            self.misses.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Number of cached block schedules.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.len()).unwrap_or(0))
            .sum()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`schedule_block`] through the memo. Returns the schedule plus
    /// whether it was answered from cache; the schedule (or error) is
    /// bit-identical to a fresh call either way.
    ///
    /// # Errors
    /// See [`schedule_block`].
    ///
    /// [`schedule_block`]: crate::listsched::schedule_block
    pub fn schedule_block_memoized(
        &self,
        f: &Function,
        block: BlockId,
        library: &FuLibrary,
        selection: &FuSelection,
        alloc: &Allocation,
        clk: f64,
    ) -> (Result<Arc<BlockSchedule>, SchedError>, bool) {
        let ops = &f.block(block).ops;
        let pos = PosMap::new(ops);
        let key = block_key(f, ops, &pos, library, selection, alloc, clk);
        let shard = &self.shards[(key as usize) % self.shards.len()];
        let cached = shard.lock().ok().and_then(|g| g.get(&key).cloned());
        if let Some(outcome) = cached {
            self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let outcome = outcome.map_err(|(p, e)| e.renamed(ops[p as usize]));
            return (outcome, true);
        }
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let fresh = schedule_indexed(f, ops, &pos, library, selection, alloc, clk).map(Arc::new);
        if let Ok(mut guard) = shard.lock() {
            let entry = fresh.clone().map_err(|e| {
                let p = pos.get(e.op()).expect("the error names a block op");
                (p, e)
            });
            guard.insert(key, entry);
        }
        (fresh, false)
    }
}

/// A splitmix64-style accumulator (no external deps; quality comparable
/// to `fact-core`'s context hasher).
struct Hasher(u64);

impl Hasher {
    fn new(seed: u64) -> Self {
        Hasher(seed ^ 0x9E37_79B9_7F4A_7C15)
    }
    fn write(&mut self, v: u64) -> &mut Self {
        let mut z = self.0.rotate_left(7) ^ v;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
        self
    }
    fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            self.write(u64::from_le_bytes(v));
        }
        self
    }
}

/// Hashes everything `schedule_block` depends on (see module docs).
fn block_key(
    f: &Function,
    ops: &[OpId],
    pos: &PosMap,
    library: &FuLibrary,
    selection: &FuSelection,
    alloc: &Allocation,
    clk: f64,
) -> u64 {
    let mut h = Hasher::new(0x5CED_B10C);
    h.write(clk.to_bits())
        .write(library.memory_delay_ns.to_bits())
        .write(ops.len() as u64);
    // Operand encoding: in-block earlier defs by position (they create
    // dependencies), everything else — external values, same-block later
    // defs reachable only through phis — as one marker, because the list
    // scheduler treats them all as ready at state start.
    let operand = |h: &mut Hasher, i: usize, v: OpId| {
        match pos.get(v) {
            Some(p) if (p as usize) < i => h.write(2 + p as u64),
            _ => h.write(1),
        };
    };
    let mut buf: Vec<OpId> = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let kind = &f.op(op).kind;
        let tag = match kind {
            OpKind::Const(_) => 1u64,
            OpKind::Input(_) => 2,
            OpKind::Bin(..) => 3,
            OpKind::Un(..) => 4,
            OpKind::Mux { .. } => 5,
            OpKind::Phi(_) => 6,
            OpKind::Load { .. } => 7,
            OpKind::Store { .. } => 8,
            OpKind::Output(..) => 9,
        };
        h.write(tag);
        buf.clear();
        kind.operands_into(&mut buf);
        h.write(buf.len() as u64);
        for &v in &buf {
            operand(&mut h, i, v);
        }
        match kind {
            OpKind::Bin(..) | OpKind::Un(..) => match selection.fu_of(op) {
                Some(fu) => {
                    let spec = library.spec(fu);
                    h.write(1 + fu.0 as u64)
                        .write(spec.delay_ns.to_bits())
                        .write(alloc.count(fu) as u64)
                        .write_bytes(spec.name.as_bytes());
                }
                None => {
                    h.write(0);
                }
            },
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => {
                h.write(mem.index() as u64);
            }
            _ => {}
        }
    }
    // The block's OpId rank permutation: the ready-list sort breaks
    // priority ties by raw OpId, so relative id order is a scheduling
    // input even though absolute ids are not.
    let mut rank = vec![0u32; ops.len()];
    for (r, p) in pos.by_id().enumerate() {
        rank[p as usize] = r as u32;
    }
    for r in rank {
        h.write(r as u64);
    }
    h.write(0x5CED_B10C);
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::listsched::schedule_block;
    use crate::resources::{FuSpec, SelectionRules};
    use fact_ir::BinOp;
    use fact_lang::compile;

    fn setup(src: &str) -> (Function, FuLibrary, FuSelection, Allocation) {
        let f = compile(src).unwrap();
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        let add = lib.add(FuSpec {
            name: "a1".into(),
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
        let rules = SelectionRules {
            add: Some(add),
            mul: Some(mul),
            cmp: Some(cmp),
            eq: Some(cmp),
            incr: Some(add),
            ..Default::default()
        };
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        let mut a = Allocation::new();
        a.set(add, 2);
        a.set(mul, 1);
        a.set(cmp, 1);
        (f, lib, sel, a)
    }

    fn assert_same(
        a: &Result<BlockSchedule, SchedError>,
        b: &Result<Arc<BlockSchedule>, SchedError>,
    ) {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, &**y),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("outcomes diverge: {a:?} vs {b:?}"),
        }
    }

    fn key(f: &Function, lib: &FuLibrary, sel: &FuSelection, alloc: &Allocation, clk: f64) -> u64 {
        let ops = &f.block(f.entry()).ops;
        block_key(f, ops, &PosMap::new(ops), lib, sel, alloc, clk)
    }

    #[test]
    fn memoized_equals_fresh_on_every_block() {
        let (f, lib, sel, alloc) =
            setup("proc f(n, a) { var i = 0; var s = 0; while (i < n) { s = s + a * i; i = i + 1; } out s = s; }");
        let memo = ScheduleMemo::default();
        for b in f.block_ids() {
            let fresh = schedule_block(&f, b, &lib, &sel, &alloc, 25.0);
            let (cold, hit0) = memo.schedule_block_memoized(&f, b, &lib, &sel, &alloc, 25.0);
            assert!(!hit0);
            let (warm, hit1) = memo.schedule_block_memoized(&f, b, &lib, &sel, &alloc, 25.0);
            assert!(hit1);
            assert_same(&fresh, &cold);
            assert_same(&fresh, &warm);
        }
        let (h, m) = memo.stats();
        assert_eq!(h as usize, f.block_ids().count());
        assert_eq!(m as usize, f.block_ids().count());
    }

    #[test]
    fn structurally_identical_blocks_hit_across_functions() {
        // Same block structure, different raw OpIds: the second function's
        // arena is padded with detached ops, shifting every id by 100. A
        // hit must remap cached positions onto the shifted ids.
        fn build_shifted(shift: usize) -> Function {
            let mut f = Function::new("p");
            for _ in 0..shift {
                f.emit_detached(fact_ir::Op::new(OpKind::Const(0)));
            }
            let e = f.entry();
            let a = f.emit_input(e, "a");
            let b = f.emit_input(e, "b");
            let m = f.emit_bin(e, BinOp::Mul, a, b);
            let s = f.emit_bin(e, BinOp::Add, m, a);
            f.emit_output(e, "y", s);
            f
        }
        let (_, lib, _, alloc) = setup("proc f(a, b) { out y = a * b + a; }");
        let rules = SelectionRules {
            add: lib.by_name("a1"),
            mul: lib.by_name("mt1"),
            ..Default::default()
        };
        let f1 = build_shifted(0);
        let f2 = build_shifted(100);
        let sel1 = FuSelection::from_rules(&f1, &rules).unwrap();
        let sel2 = FuSelection::from_rules(&f2, &rules).unwrap();
        let memo = ScheduleMemo::default();
        let (_, hit1) = memo.schedule_block_memoized(&f1, f1.entry(), &lib, &sel1, &alloc, 25.0);
        let (r2, hit2) = memo.schedule_block_memoized(&f2, f2.entry(), &lib, &sel2, &alloc, 25.0);
        assert!(!hit1);
        assert!(hit2, "identical structure must be answered from cache");
        let fresh2 = schedule_block(&f2, f2.entry(), &lib, &sel2, &alloc, 25.0);
        assert_same(&fresh2, &r2);
    }

    #[test]
    fn different_clock_or_alloc_misses() {
        let (f, lib, sel, alloc) = setup("proc f(a, b) { out y = a * b + a; }");
        let memo = ScheduleMemo::default();
        let _ = memo.schedule_block_memoized(&f, f.entry(), &lib, &sel, &alloc, 25.0);
        let (_, hit_clk) = memo.schedule_block_memoized(&f, f.entry(), &lib, &sel, &alloc, 15.0);
        assert!(!hit_clk, "clock period is part of the key");
        let mut alloc2 = alloc.clone();
        alloc2.set(lib.by_name("a1").unwrap(), 1);
        let (_, hit_alloc) = memo.schedule_block_memoized(&f, f.entry(), &lib, &sel, &alloc2, 25.0);
        assert!(!hit_alloc, "allocation counts are part of the key");
    }

    #[test]
    fn operand_swap_changes_key_only_when_it_changes_structure() {
        // a*b+c vs a*b+d: same shape but the adder's second operand is
        // external either way, so both hash equal — and schedule equal.
        let (f1, lib, sel1, alloc) = setup("proc f(a, b, c) { out y = a * b + c; }");
        let (f2, _, sel2, _) = setup("proc f(p, q, r) { out y = p * q + r; }");
        let k1 = key(&f1, &lib, &sel1, &alloc, 25.0);
        let k2 = key(&f2, &lib, &sel2, &alloc, 25.0);
        assert_eq!(k1, k2);
        let s1 = schedule_block(&f1, f1.entry(), &lib, &sel1, &alloc, 25.0).unwrap();
        let s2 = schedule_block(&f2, f2.entry(), &lib, &sel2, &alloc, 25.0).unwrap();
        assert_eq!(s1.states.len(), s2.states.len());
    }

    #[test]
    fn errors_are_memoized_and_remapped() {
        let f = compile("proc f(a) { out y = a + a; }").unwrap();
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        let add = lib.add(FuSpec {
            name: "a1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let rules = SelectionRules {
            add: Some(add),
            ..Default::default()
        };
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        let alloc = Allocation::new(); // zero adders
        let memo = ScheduleMemo::default();
        let (e1, hit1) = memo.schedule_block_memoized(&f, f.entry(), &lib, &sel, &alloc, 25.0);
        let (e2, hit2) = memo.schedule_block_memoized(&f, f.entry(), &lib, &sel, &alloc, 25.0);
        assert!(!hit1);
        assert!(hit2);
        let fresh = schedule_block(&f, f.entry(), &lib, &sel, &alloc, 25.0);
        assert_eq!(e1.unwrap_err(), fresh.clone().unwrap_err());
        assert_eq!(e2.unwrap_err(), fresh.unwrap_err());
    }

    #[test]
    fn opid_rank_permutation_is_part_of_the_key() {
        // Two functions computing a+b twice with operations emitted in
        // different arena orders produce different rank permutations; the
        // key must distinguish them (priority ties break on OpId order).
        let mut f1 = Function::new("p1");
        let e1 = f1.entry();
        let a = f1.emit_input(e1, "a");
        let b = f1.emit_input(e1, "b");
        let x = f1.emit_bin(e1, BinOp::Add, a, b);
        let y = f1.emit_bin(e1, BinOp::Add, b, a);
        f1.emit_output(e1, "x", x);
        f1.emit_output(e1, "y", y);

        // Same block structure but the two adds' block positions are
        // swapped relative to their arena ids.
        let mut f2 = Function::new("p2");
        let e2 = f2.entry();
        let a2 = f2.emit_input(e2, "a");
        let b2 = f2.emit_input(e2, "b");
        let y2 = f2.emit_detached(fact_ir::Op::new(OpKind::Bin(BinOp::Add, b2, a2)));
        let x2 = f2.emit_bin(e2, BinOp::Add, a2, b2);
        // Manually place the detached op *before* x2's successor position.
        let posn = f2.position_in_block(e2, x2).unwrap();
        f2.block_mut(e2).ops.insert(posn + 1, y2);
        f2.emit_output(e2, "x", x2);
        f2.emit_output(e2, "y", y2);

        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        let add = lib.add(FuSpec {
            name: "a1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let rules = SelectionRules {
            add: Some(add),
            ..Default::default()
        };
        let sel1 = FuSelection::from_rules(&f1, &rules).unwrap();
        let sel2 = FuSelection::from_rules(&f2, &rules).unwrap();
        let mut alloc = Allocation::new();
        alloc.set(add, 1);
        let k1 = key(&f1, &lib, &sel1, &alloc, 25.0);
        let k2 = key(&f2, &lib, &sel2, &alloc, 25.0);
        // f1: adds at block positions 2,3 have ranks in id order; f2's
        // second block-position add has the *smaller* raw id.
        assert_ne!(k1, k2, "rank permutation must feed the key");
    }
}
