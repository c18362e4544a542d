//! The transformation model: kinds, candidates, and the library trait.
//!
//! Following the paper's Figure 6, a transformation inspects a CDFG and
//! proposes *candidates* — whole transformed CDFGs. The search engine
//! (`fact-core`) reschedules and estimates each candidate; nothing here
//! decides profitability. Candidates may be restricted to a *region* (the
//! IR blocks corresponding to one STG block of the §4.1 partition), which
//! is how the algorithm "directs its focus on the critical sections of
//! the behavior".

use fact_ir::{BlockId, DomTree, Function, GraphMap, LoopForest};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

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
    /// Loop fission: one loop split into consecutive loops (an extension,
    /// [`crate::distribute`]).
    LoopDistribution,
}

impl TransformKind {
    /// Every kind, in declaration order ([`TransformKind::index`] order).
    pub const ALL: [TransformKind; 8] = [
        TransformKind::Commutativity,
        TransformKind::Associativity,
        TransformKind::Distributivity,
        TransformKind::ConstantPropagation,
        TransformKind::CodeMotion,
        TransformKind::LoopUnroll,
        TransformKind::PhiSink,
        TransformKind::LoopDistribution,
    ];

    /// This kind's position in [`TransformKind::ALL`], for per-kind
    /// tallies.
    pub fn index(self) -> usize {
        self as usize
    }
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
            TransformKind::LoopDistribution => "loop-distribution",
        };
        f.write_str(s)
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
    /// For a loop unrolled by 2 or split by fission, how its blocks stand
    /// for the original's (what [`fact_ir::prove_equivalent`] checks);
    /// `None` for a rewrite that keeps the control-flow graph, or changes
    /// it another way.
    pub map: Option<GraphMap>,
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

    /// The region's blocks in ascending order (`None` for the whole
    /// function).
    pub fn sorted_blocks(&self) -> Option<Vec<BlockId>> {
        let mut blocks: Vec<BlockId> = self.blocks.as_ref()?.iter().copied().collect();
        blocks.sort_unstable();
        Some(blocks)
    }
}

/// The function being expanded, with the analyses its transformations
/// read. Each analysis is computed on first use and then shared, so one
/// pass of [`TransformLibrary::all_candidates`] computes the parent's
/// dominators, loops and predecessors at most once. The cells are
/// thread-safe: transformations run on different threads may share one
/// `Parent` ([`TransformLibrary::expand_transform`]).
pub struct Parent<'a> {
    f: &'a Function,
    dom: OnceLock<DomTree>,
    loops: OnceLock<LoopForest>,
    preds: OnceLock<Vec<Vec<BlockId>>>,
    op_blocks: OnceLock<Vec<Option<BlockId>>>,
    use_counts: OnceLock<Vec<usize>>,
}

impl<'a> Parent<'a> {
    /// Wraps `f`; nothing is computed yet.
    pub fn new(f: &'a Function) -> Self {
        Parent {
            f,
            dom: OnceLock::new(),
            loops: OnceLock::new(),
            preds: OnceLock::new(),
            op_blocks: OnceLock::new(),
            use_counts: OnceLock::new(),
        }
    }

    /// The function itself.
    pub fn function(&self) -> &'a Function {
        self.f
    }

    /// Its dominator tree.
    pub fn dom(&self) -> &DomTree {
        self.dom.get_or_init(|| DomTree::compute(self.f))
    }

    /// Its natural loops.
    pub fn loops(&self) -> &LoopForest {
        self.loops
            .get_or_init(|| LoopForest::compute(self.f, self.dom()))
    }

    /// Its predecessor lists ([`Function::predecessors`]).
    pub fn preds(&self) -> &[Vec<BlockId>] {
        self.preds.get_or_init(|| self.f.predecessors())
    }

    /// The block holding each op ([`Function::op_blocks`]).
    pub fn op_blocks(&self) -> &[Option<BlockId>] {
        self.op_blocks.get_or_init(|| self.f.op_blocks())
    }

    /// Use counts including branch conditions ([`crate::util::use_counts`]).
    pub fn use_counts(&self) -> &[usize] {
        self.use_counts
            .get_or_init(|| crate::util::use_counts(self.f))
    }
}

/// A transformation that can enumerate candidates.
pub trait Transform {
    /// The transformation's class.
    fn kind(&self) -> TransformKind;

    /// Identifies the transformation and its parameters: two transforms
    /// that could expand the same parent differently must fingerprint
    /// differently ([`fingerprint_of`] over a name and the parameters).
    /// Expansions are memoized under the fingerprints of the library
    /// that produced them.
    fn fingerprint(&self) -> u64;

    /// Proposes transformed copies of `parent`'s function, touching only
    /// `region`.
    ///
    /// Implementations must return *functionally equivalent* candidates;
    /// the test suites enforce this with randomized equivalence checking.
    fn expand(&self, parent: &Parent<'_>, region: &Region) -> Vec<Candidate>;

    /// [`Transform::expand`] on a function with no analyses computed yet.
    fn candidates(&self, f: &Function, region: &Region) -> Vec<Candidate> {
        self.expand(&Parent::new(f), region)
    }
}

/// A [`Transform::fingerprint`]: FNV-1a over `name`, then `params`.
pub fn fingerprint_of(name: &str, params: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let bytes = name.bytes().chain([0xFF]);
    for b in bytes.chain(params.iter().flat_map(|p| p.to_le_bytes())) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A collection of transformations (the paper's `T.lib` in Figure 6).
/// Cloning shares the transformations.
#[derive(Clone)]
pub struct TransformLibrary {
    transforms: Vec<Arc<dyn Transform + Send + Sync>>,
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
        self.transforms.push(Arc::from(t));
    }

    /// Identifies the library: its transformations' fingerprints, in
    /// order. Libraries that fingerprint alike expand every parent alike.
    pub fn fingerprint(&self) -> u64 {
        let params: Vec<u64> = self.transforms.iter().map(|t| t.fingerprint()).collect();
        fingerprint_of("library", &params)
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
    /// Every transformation sees the same [`Parent`], so the analyses
    /// they share are computed once per call.
    pub fn all_candidates(&self, f: &Function, region: &Region) -> Vec<Candidate> {
        self.candidates_by_transform(f, region)
            .into_iter()
            .flatten()
            .collect()
    }

    /// [`TransformLibrary::all_candidates`], grouped by transformation:
    /// entry `i` holds transformation `i`'s candidates, in order.
    pub fn candidates_by_transform(&self, f: &Function, region: &Region) -> Vec<Vec<Candidate>> {
        let parent = Parent::new(f);
        self.transforms
            .iter()
            .map(|t| t.expand(&parent, region))
            .collect()
    }

    /// Entry `i` of [`TransformLibrary::candidates_by_transform`] alone:
    /// transformation `i`'s candidates, reading the analyses `parent`
    /// holds (computing those it lacks, for later calls to share).
    pub fn expand_transform(
        &self,
        i: usize,
        parent: &Parent<'_>,
        region: &Region,
    ) -> Vec<Candidate> {
        self.transforms[i].expand(parent, region)
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
    fn kinds_index_their_slot_in_all() {
        for (i, k) in TransformKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
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
    fn fingerprints_tell_libraries_apart() {
        let full = TransformLibrary::full();
        assert_eq!(full.fingerprint(), TransformLibrary::full().fingerprint());
        assert_ne!(
            full.fingerprint(),
            TransformLibrary::extended().fingerprint()
        );
        let mut by4 = TransformLibrary::full();
        by4.transforms[5] = Arc::new(crate::unroll::LoopUnroll::new(4));
        assert_ne!(full.fingerprint(), by4.fingerprint());
        let mut cse = TransformLibrary::new();
        cse.push(Box::new(crate::cse::CommonSubexpression));
        let mut constprop = TransformLibrary::new();
        constprop.push(Box::new(crate::constprop::ConstantPropagation));
        // Same kind, different transformation.
        assert_ne!(cse.fingerprint(), constprop.fingerprint());
    }

    #[test]
    fn region_blocks_sort() {
        let r = Region::of_blocks([BlockId(3), BlockId(1)]);
        assert_eq!(r.sorted_blocks(), Some(vec![BlockId(1), BlockId(3)]));
        assert_eq!(Region::whole().sorted_blocks(), None);
    }

    #[test]
    fn kinds_display() {
        assert_eq!(TransformKind::Distributivity.to_string(), "distributivity");
        assert_eq!(TransformKind::PhiSink.to_string(), "phi-sink");
        assert_eq!(
            TransformKind::LoopDistribution.to_string(),
            "loop-distribution"
        );
    }
}
