//! The transformation model: kinds, candidates, and the library trait.
//!
//! Following the paper's Figure 6, a transformation inspects a CDFG and
//! proposes *candidates* — whole transformed CDFGs. The search engine
//! (`fact-core`) reschedules and estimates each candidate; nothing here
//! decides profitability. Candidates may be restricted to a *region* (the
//! IR blocks corresponding to one STG block of the §4.1 partition), which
//! is how the algorithm "directs its focus on the critical sections of
//! the behavior".

use fact_ir::{BlockId, Function};
use std::collections::HashSet;
use std::fmt;

/// The transformation classes supported by the framework (paper §1: "our
/// system currently supports associativity, commutativity, distributivity,
/// constant propagation, code motion, and loop unrolling").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransformKind {
    /// Operand swap of a commutative operation.
    Commutativity,
    /// Re-association / tree-height rebalancing of associative chains.
    Associativity,
    /// `a·b ± a·c ↔ a·(b ± c)`, both directions.
    Distributivity,
    /// Constant folding, algebraic identities, strength reduction.
    ConstantPropagation,
    /// Loop-invariant code motion (hoisting out of loops).
    CodeMotion,
    /// Explicit loop unrolling.
    LoopUnroll,
    /// Sinking an operation through joins into predecessor threads — the
    /// cross-basic-block enabler of §3 Example 3.
    PhiSink,
}

impl fmt::Display for TransformKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransformKind::Commutativity => "commutativity",
            TransformKind::Associativity => "associativity",
            TransformKind::Distributivity => "distributivity",
            TransformKind::ConstantPropagation => "constant-propagation",
            TransformKind::CodeMotion => "code-motion",
            TransformKind::LoopUnroll => "loop-unroll",
            TransformKind::PhiSink => "phi-sink",
        };
        f.write_str(s)
    }
}

/// The blocks a candidate actually rewrote, relative to its parent.
///
/// Transformations report this so the evaluator knows which per-block
/// schedule (and estimate) fragments of the parent are provably reusable:
/// every block *not* in the dirty region is structurally unchanged. A
/// conservative transform may report [`DirtyRegion::whole`] — correctness
/// never depends on the region being tight, only on it being a superset
/// of the changed blocks (the production-vs-oracle equivalence tests in
/// `fact-core` enforce the end-to-end contract).
///
/// Note that block-*count* changes (unrolling, distribution) implicitly
/// dirty every new block; such transforms report `whole` or enumerate the
/// new ids explicitly.
#[derive(Clone, Debug, Default)]
pub struct DirtyRegion {
    blocks: Option<HashSet<BlockId>>,
}

impl DirtyRegion {
    /// Everything may have changed (the conservative answer).
    pub fn whole() -> Self {
        DirtyRegion { blocks: None }
    }

    /// Exactly these blocks changed.
    pub fn of_blocks(blocks: impl IntoIterator<Item = BlockId>) -> Self {
        DirtyRegion {
            blocks: Some(blocks.into_iter().collect()),
        }
    }

    /// Whether `b` may have changed.
    pub fn contains(&self, b: BlockId) -> bool {
        match &self.blocks {
            None => true,
            Some(set) => set.contains(&b),
        }
    }

    /// Whether the whole function is considered dirty.
    pub fn is_whole(&self) -> bool {
        self.blocks.is_none()
    }

    /// Number of dirtied blocks, or `None` for a whole-function region.
    pub fn len(&self) -> Option<usize> {
        self.blocks.as_ref().map(HashSet::len)
    }

    /// Whether the region is a known-empty set of blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.as_ref().is_some_and(HashSet::is_empty)
    }

    /// Iterates the dirtied blocks of a bounded region (empty for
    /// [`DirtyRegion::whole`] — check [`DirtyRegion::is_whole`] first).
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks.iter().flat_map(|s| s.iter().copied())
    }

    /// Absorbs another region (whole-function absorbs everything).
    pub fn union(&mut self, other: &DirtyRegion) {
        match (&mut self.blocks, &other.blocks) {
            (Some(a), Some(b)) => a.extend(b.iter().copied()),
            _ => self.blocks = None,
        }
    }

    /// Computes the exact dirty region of `child` relative to `parent`:
    /// the blocks whose op list, op kinds, or terminator differ. Returns
    /// [`DirtyRegion::whole`] when the block count changed (the rewrite
    /// introduced or removed blocks).
    ///
    /// Transformations that rewrite a clone in place (including follow-up
    /// dead-code elimination, which can delete ops far from the rewrite
    /// site) use this instead of hand-tracking touched blocks.
    pub fn diff(parent: &Function, child: &Function) -> DirtyRegion {
        if parent.num_blocks() != child.num_blocks() {
            return DirtyRegion::whole();
        }
        let mut dirty = HashSet::new();
        for b in child.block_ids() {
            let (pb, cb) = (parent.block(b), child.block(b));
            if pb.term != cb.term
                || pb.ops != cb.ops
                || cb
                    .ops
                    .iter()
                    .any(|&o| parent.op(o).kind != child.op(o).kind)
            {
                dirty.insert(b);
            }
        }
        DirtyRegion {
            blocks: Some(dirty),
        }
    }
}

/// A transformed CDFG proposed for evaluation.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Which transformation produced it.
    pub kind: TransformKind,
    /// Human-readable description (for reports and debugging).
    pub description: String,
    /// The transformed function (the original is never mutated).
    pub function: Function,
    /// Blocks rewritten relative to the parent function.
    pub dirty: DirtyRegion,
}

/// The region a transformation may touch: a set of IR blocks, or the whole
/// function.
#[derive(Clone, Debug, Default)]
pub struct Region {
    blocks: Option<HashSet<BlockId>>,
}

impl Region {
    /// The whole function.
    pub fn whole() -> Self {
        Region { blocks: None }
    }

    /// A restricted set of blocks.
    pub fn of_blocks(blocks: impl IntoIterator<Item = BlockId>) -> Self {
        Region {
            blocks: Some(blocks.into_iter().collect()),
        }
    }

    /// Whether the region covers `b`.
    pub fn covers(&self, b: BlockId) -> bool {
        match &self.blocks {
            None => true,
            Some(set) => set.contains(&b),
        }
    }

    /// Whether the region is the whole function.
    pub fn is_whole(&self) -> bool {
        self.blocks.is_none()
    }
}

/// A transformation that can enumerate candidates.
pub trait Transform {
    /// The transformation's class.
    fn kind(&self) -> TransformKind;

    /// Proposes transformed copies of `f`, touching only `region`.
    ///
    /// Implementations must return *functionally equivalent* candidates;
    /// the test suites enforce this with randomized equivalence checking.
    fn candidates(&self, f: &Function, region: &Region) -> Vec<Candidate>;
}

/// A collection of transformations (the paper's `T.lib` in Figure 6).
pub struct TransformLibrary {
    transforms: Vec<Box<dyn Transform + Send + Sync>>,
}

impl TransformLibrary {
    /// An empty library.
    pub fn new() -> Self {
        TransformLibrary {
            transforms: Vec::new(),
        }
    }

    /// The full library: all seven supported transformations.
    pub fn full() -> Self {
        let mut lib = TransformLibrary::new();
        lib.push(Box::new(crate::algebraic::Commutativity));
        lib.push(Box::new(crate::algebraic::Associativity));
        lib.push(Box::new(crate::algebraic::Distributivity));
        lib.push(Box::new(crate::constprop::ConstantPropagation));
        lib.push(Box::new(crate::codemotion::CodeMotion));
        lib.push(Box::new(crate::unroll::LoopUnroll::new(2)));
        lib.push(Box::new(crate::crossbb::PhiSink));
        lib
    }

    /// The paper's suite plus extension transformations (currently
    /// common-subexpression elimination). Use this when optimizing real
    /// designs; [`TransformLibrary::full`] keeps the paper's exact suite
    /// for the reproduction experiments.
    pub fn extended() -> Self {
        let mut lib = Self::full();
        lib.push(Box::new(crate::cse::CommonSubexpression));
        lib.push(Box::new(crate::distribute::LoopDistribution));
        lib
    }

    /// Adds a transformation ("other transformations can easily be
    /// incorporated within the framework", §1).
    pub fn push(&mut self, t: Box<dyn Transform + Send + Sync>) {
        self.transforms.push(t);
    }

    /// Number of transformations.
    pub fn len(&self) -> usize {
        self.transforms.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.transforms.is_empty()
    }

    /// Enumerates candidates from every transformation (Figure 6,
    /// `Identify_and_apply_candidate_transformations`).
    pub fn all_candidates(&self, f: &Function, region: &Region) -> Vec<Candidate> {
        let mut out = Vec::new();
        for t in &self.transforms {
            out.extend(t.candidates(f, region));
        }
        out
    }
}

impl Default for TransformLibrary {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_whole_covers_everything() {
        let r = Region::whole();
        assert!(r.covers(BlockId(0)));
        assert!(r.covers(BlockId(99)));
        assert!(r.is_whole());
    }

    #[test]
    fn region_of_blocks_is_selective() {
        let r = Region::of_blocks([BlockId(1), BlockId(3)]);
        assert!(r.covers(BlockId(1)));
        assert!(!r.covers(BlockId(2)));
        assert!(!r.is_whole());
    }

    #[test]
    fn full_library_has_all_seven() {
        let lib = TransformLibrary::full();
        assert_eq!(lib.len(), 7);
        assert!(!lib.is_empty());
    }

    #[test]
    fn extended_library_adds_cse_and_fission() {
        assert_eq!(TransformLibrary::extended().len(), 9);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(TransformKind::Distributivity.to_string(), "distributivity");
        assert_eq!(TransformKind::PhiSink.to_string(), "phi-sink");
    }

    #[test]
    fn dirty_diff_is_exact_for_in_place_rewrites() {
        use fact_ir::{BinOp, OpKind};
        let f = fact_lang::compile(
            "proc f(a, n) { var i = 0; var s = 0; \
             while (i < n) { s = s + a; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let same = DirtyRegion::diff(&f, &f.clone());
        assert!(same.is_empty(), "identical clone must be clean");

        // Swap the operands of one commutative op; only its block is dirty.
        let mut g = f.clone();
        let (b, op) = f
            .block_ids()
            .flat_map(|b| f.block(b).ops.iter().map(move |&o| (b, o)))
            .find(|&(_, o)| matches!(f.op(o).kind, OpKind::Bin(BinOp::Add, x, y) if x != y))
            .unwrap();
        if let OpKind::Bin(bin, x, y) = f.op(op).kind.clone() {
            g.op_mut(op).kind = OpKind::Bin(bin, y, x);
        }
        let dirty = DirtyRegion::diff(&f, &g);
        assert_eq!(dirty.len(), Some(1));
        assert!(dirty.contains(b));
        let clean: Vec<BlockId> = f.block_ids().filter(|&c| !dirty.contains(c)).collect();
        assert!(!clean.is_empty());
    }

    #[test]
    fn dirty_diff_goes_whole_on_block_count_change() {
        let f = fact_lang::compile("proc f(a) { out y = a; }").unwrap();
        let g = fact_lang::compile("proc f(a) { var y = 0; if (a < 1) { y = a; } out y = y; }")
            .unwrap();
        assert!(DirtyRegion::diff(&f, &g).is_whole());
    }

    #[test]
    fn dirty_union_absorbs() {
        let mut d = DirtyRegion::of_blocks([BlockId(1)]);
        d.union(&DirtyRegion::of_blocks([BlockId(2)]));
        assert_eq!(d.len(), Some(2));
        assert!(d.contains(BlockId(1)) && d.contains(BlockId(2)));
        let mut ids: Vec<usize> = d.iter().map(|b| b.index()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        d.union(&DirtyRegion::whole());
        assert!(d.is_whole());
        assert!(!d.is_empty());
    }

    #[test]
    fn library_candidates_report_bounded_dirt_for_local_rewrites() {
        // Commutativity rewrites exactly one op in place: every candidate
        // must report a bounded (non-whole) dirty region.
        let f = fact_lang::compile(
            "proc f(a, b, n) { var i = 0; var s = 0; \
             while (i < n) { s = s + a * b; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let cands = crate::algebraic::Commutativity.candidates(&f, &Region::whole());
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(!c.dirty.is_whole(), "in-place swap dirt must be bounded");
            assert!(c.dirty.len().unwrap() >= 1);
        }
    }
}
