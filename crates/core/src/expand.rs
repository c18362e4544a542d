//! The expansion memo, and designs built only when something reads them
//! (DESIGN §10.5).
//!
//! Figure 6 expands every `In_set` member through the transformation
//! library. Doing that builds every candidate function and hashes it —
//! even when the shared [`EvalCache`](crate::EvalCache) already holds
//! every candidate's score, as it does for a job `factd` has served
//! before. The [`ExpansionMemo`] remembers, per parent, the ordered list
//! of what its expansion produced: each candidate's structural hash,
//! kind, description, the recipe that rebuilds it, and what its
//! equivalence checks found once some run made them. A search whose
//! parent the memo knows dedups and truncates from these records alone,
//! and a candidate's function is built only when something reads it:
//! per transformation, so a read builds that transformation's outputs
//! and no other's.
//!
//! The memo is exact, not heuristic. Its key is the parent's *identity*,
//! which determines the parent function exactly: the search input's is
//! its [`exact_hash`], a child's is derived from its parent's identity,
//! the region, the library and the child's recipe, and the expansion is
//! a deterministic function of these. So a hit replays what expanding
//! the parent would have produced, record for record — and a record's
//! verdicts, which depend on nothing but the parent, the candidate and
//! its unroll map, hold for every run that reaches the record.

use crate::cache::{exact_hash, structural_hash, ContextHasher};
use fact_ir::{Equivalence, Function, UnrollMap};
use fact_xform::{Candidate, Parent, Region, TransformKind, TransformLibrary};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How many candidate records the [`ExpansionMemo`] holds at most.
/// Inserting beyond it evicts the oldest neighbourhoods first; an evicted
/// neighbourhood is rebuilt on its next use, with the same result.
///
/// A record is about 130 bytes (most of it the description, 32 of it the
/// verdict cells), so the cap keeps the memo under about 2.5 MiB. The 18 paper-sized jobs of three
/// objectives over the §5 suite, at default search settings, fill 198
/// neighbourhoods with 1,874 records.
pub const EXPANSION_MEMO_CAPACITY: usize = 16_384;

/// One candidate of a memoized neighbourhood, in expansion order.
#[derive(Debug)]
pub(crate) struct Expanded {
    /// `structural_hash` of the candidate.
    pub(crate) hash: u64,
    /// The transformation class the candidate reports.
    pub(crate) kind: TransformKind,
    /// The candidate's description.
    pub(crate) description: Arc<str>,
    /// Which of the library's transformations produced it.
    transform: u32,
    /// Which of that transformation's outputs it is.
    nth: u32,
    /// What its equivalence checks against the parent found.
    pub(crate) verdicts: Verdicts,
}

/// What a candidate's equivalence checks against its parent found:
/// [`fact_ir::operand_swap_of`]'s verdict and
/// [`fact_ir::prove_equivalent`]'s result. Both are pure functions of
/// the parent, the candidate and its unroll map, which the candidate's
/// record fixes, so the first run that makes a check writes its cell and
/// every later candidate made from the record reads it (DESIGN §10.5).
/// What the traces decide — whether the parent was profiled and scored,
/// the step bound, a derived profile — stays with each run.
#[derive(Debug, Default)]
pub(crate) struct Verdicts {
    /// Whether the candidate only swaps the operands of one of its
    /// parent's ops.
    swap: OnceLock<bool>,
    /// Whether, and with what block growth, it is proved equivalent.
    proof: OnceLock<Option<Equivalence>>,
}

impl Verdicts {
    /// The swap verdict, from the record or else from `check`; the flag
    /// is `true` when the record held it.
    pub(crate) fn swap(&self, check: impl FnOnce() -> bool) -> (bool, bool) {
        recall(&self.swap, check)
    }

    /// The proof, from the record or else from `check`; the flag is
    /// `true` when the record held it.
    pub(crate) fn proof(
        &self,
        check: impl FnOnce() -> Option<Equivalence>,
    ) -> (Option<Equivalence>, bool) {
        recall(&self.proof, check)
    }
}

/// `cell`'s value and `true`, or `check`'s value, stored, and `false`.
/// Racing writers compute the same value, so which one stores it does
/// not matter.
fn recall<T: Copy>(cell: &OnceLock<T>, check: impl FnOnce() -> T) -> (T, bool) {
    if let Some(&v) = cell.get() {
        return (v, true);
    }
    let v = check();
    let _ = cell.set(v);
    (v, false)
}

/// Memoized neighbourhoods: parent identity × region × library → the
/// ordered candidate records of the parent's expansion (see the module
/// docs). Lives inside the [`EvalCache`](crate::EvalCache), so every run
/// given a cache shares it; it is not written to cache snapshots.
pub struct ExpansionMemo {
    capacity: usize,
    inner: Mutex<MemoInner>,
}

#[derive(Default)]
struct MemoInner {
    map: HashMap<u64, Arc<[Expanded]>>,
    /// Keys in insertion order: the eviction order.
    order: VecDeque<u64>,
    /// Records across every held neighbourhood.
    records: usize,
}

impl ExpansionMemo {
    /// A memo holding at most `records` candidate records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        ExpansionMemo {
            capacity: records,
            inner: Mutex::new(MemoInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoInner> {
        self.inner
            .lock()
            .expect("no memo operation panics while holding the lock")
    }

    /// Neighbourhoods held.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the memo holds no neighbourhood.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate records held, over every neighbourhood.
    pub fn records(&self) -> usize {
        self.lock().records
    }

    /// Drops every neighbourhood.
    pub fn clear(&self) {
        *self.lock() = MemoInner::default();
    }

    fn get(&self, key: u64) -> Option<Arc<[Expanded]>> {
        self.lock().map.get(&key).cloned()
    }

    /// Stores `list` under `key`, evicting the oldest neighbourhoods to
    /// stay within the capacity. A racing second insert of a key is a
    /// no-op (both writers expanded the same parent alike).
    fn insert(&self, key: u64, list: Arc<[Expanded]>) {
        if list.len() > self.capacity {
            return;
        }
        let mut inner = self.lock();
        if inner.map.contains_key(&key) {
            return;
        }
        while inner.records + list.len() > self.capacity {
            let old = inner
                .order
                .pop_front()
                .expect("records above zero means a neighbourhood is held");
            let evicted = inner
                .map
                .remove(&old)
                .expect("the order lists held keys only");
            inner.records -= evicted.len();
        }
        inner.records += list.len();
        inner.order.push_back(key);
        inner.map.insert(key, list);
    }
}

impl Default for ExpansionMemo {
    fn default() -> Self {
        ExpansionMemo::with_capacity(EXPANSION_MEMO_CAPACITY)
    }
}

impl std::fmt::Debug for ExpansionMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ExpansionMemo")
            .field("neighbourhoods", &inner.map.len())
            .field("records", &inner.records)
            .field("capacity", &self.capacity)
            .finish()
    }
}

/// What one region search expands with: the library, the region, and
/// the salt their fingerprints put into every identity and memo key.
pub(crate) struct Scope {
    library: TransformLibrary,
    region: Region,
    salt: u64,
}

impl Scope {
    pub(crate) fn new(library: &TransformLibrary, region: &Region) -> Arc<Scope> {
        let mut h = ContextHasher::new(0xFAC7_5C0E);
        match region.sorted_blocks() {
            None => {
                h.write_u64(0);
            }
            Some(blocks) => {
                h.write_u64(1).write_u64(blocks.len() as u64);
                for b in blocks {
                    h.write_u64(b.index() as u64);
                }
            }
        }
        h.write_u64(library.fingerprint());
        Arc::new(Scope {
            library: library.clone(),
            region: region.clone(),
            salt: h.finish(),
        })
    }

    /// The memo key of the parent with identity `id`.
    fn memo_key(&self, id: u64) -> u64 {
        ContextHasher::new(0xFAC7_3E30)
            .write_u64(id)
            .write_u64(self.salt)
            .finish()
    }

    /// The identity of the child `rec` of the parent with identity `id`.
    fn child_id(&self, id: u64, rec: &Expanded) -> u64 {
        ContextHasher::new(0xFAC7_C41D)
            .write_u64(id)
            .write_u64(self.salt)
            .write_u64(u64::from(rec.transform))
            .write_u64(u64::from(rec.nth))
            .finish()
    }
}

/// Where the time of building candidates is charged: the search's own
/// stages, or the neighbourhood evaluator reading a function.
#[derive(Clone, Copy)]
pub(crate) enum Sink {
    Search,
    Eval,
}

/// Counts and times candidate construction over one run.
#[derive(Default)]
pub(crate) struct BuildLedger {
    timed: bool,
    /// Transformations run on a parent: every one of the library on a
    /// memo miss, and one at a time when the evaluator reads a memoized
    /// candidate or a design is rebuilt through its recipe.
    pub(crate) built: AtomicU64,
    /// Expansions the memo answered.
    pub(crate) memoized: AtomicU64,
    search_ns: AtomicU64,
    eval_ns: AtomicU64,
}

impl BuildLedger {
    /// A ledger that also times construction.
    pub(crate) fn timed() -> Self {
        BuildLedger {
            timed: true,
            ..BuildLedger::default()
        }
    }

    /// Runs one build of `transforms` transformations, counting them and
    /// charging its time to `sink`.
    fn build<T>(&self, sink: Sink, transforms: usize, f: impl FnOnce() -> T) -> T {
        self.built.fetch_add(transforms as u64, Ordering::Relaxed);
        if !self.timed {
            return f();
        }
        let start = std::time::Instant::now();
        let out = f();
        let slot = match sink {
            Sink::Search => &self.search_ns,
            Sink::Eval => &self.eval_ns,
        };
        slot.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// Build time charged to `sink` since the last call, nanoseconds.
    pub(crate) fn take_ns(&self, sink: Sink) -> u64 {
        match sink {
            Sink::Search => self.search_ns.swap(0, Ordering::Relaxed),
            Sink::Eval => self.eval_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// A built design: the function, and for a loop unrolled by 2 how its
/// blocks stand for its parent's.
struct Built {
    function: Function,
    unrolled: Option<UnrollMap>,
}

impl From<Candidate> for Built {
    fn from(c: Candidate) -> Self {
        Built {
            function: c.function,
            unrolled: c.unrolled,
        }
    }
}

/// How to rebuild a design: output `nth` of transformation `transform`
/// of the scope's library, applied to `parent` in the scope's region.
struct Recipe {
    parent: Arc<Design>,
    scope: Arc<Scope>,
    transform: u32,
    nth: u32,
}

/// A design the search reached: its identity and structural hash always,
/// its function once something reads it.
pub(crate) struct Design {
    /// Exact identity: equal identities mean equal functions.
    id: u64,
    /// `structural_hash` of the function.
    pub(crate) hash: u64,
    built: OnceLock<Built>,
    /// `None` for a design built when it was made.
    recipe: Option<Recipe>,
}

/// One parent's neighbourhood: each transformation's outputs, built at
/// most once, when something first reads one of them. The
/// transformations built share one set of the parent's analyses, as a
/// memo miss's expansion does, and the transformations whose outputs
/// nobody reads are never run. Every design built through its recipe is
/// built through one: its parent's neighbourhood in the current search
/// move, or one of its own when it is read outside a move.
pub(crate) struct Siblings<'a> {
    parent: &'a Design,
    /// The neighbourhood `parent` belongs to, which builds it if it is
    /// unbuilt.
    origin: Option<&'a Siblings<'a>>,
    scope: &'a Scope,
    analyses: OnceLock<Parent<'a>>,
    /// One cell per transformation, allocated on the first read: a
    /// neighbourhood nobody reads, as on a job the cache answers in
    /// full, costs no allocation.
    outputs: OnceLock<Box<[OnceLock<Vec<Candidate>>]>>,
}

impl<'a> Siblings<'a> {
    /// `parent`'s neighbourhood in `scope`, nothing built yet; `origin`
    /// is the neighbourhood `parent` belongs to, if one is at hand.
    pub(crate) fn new(
        parent: &'a Design,
        origin: Option<&'a Siblings<'a>>,
        scope: &'a Scope,
    ) -> Self {
        Siblings {
            parent,
            origin,
            scope,
            analyses: OnceLock::new(),
            outputs: OnceLock::new(),
        }
    }

    /// Whether this is `design`'s neighbourhood.
    pub(crate) fn is_of(&self, design: &Design) -> bool {
        std::ptr::eq(self.parent, design)
    }

    /// Transformation `t`'s outputs, built on first read.
    fn outputs(&self, t: usize, ledger: &BuildLedger, sink: Sink) -> &[Candidate] {
        let cells = self.outputs.get_or_init(|| {
            let n = self.scope.library.len();
            (0..n).map(|_| OnceLock::new()).collect()
        });
        cells[t].get_or_init(|| {
            // Built outside this build's timing: it is a build of its own.
            let parent = self.analyses.get_or_init(|| {
                Parent::new(&self.parent.built(self.origin, ledger, sink).function)
            });
            ledger.build(sink, 1, || {
                self.scope
                    .library
                    .expand_transform(t, parent, &self.scope.region)
            })
        })
    }

    /// Output `nth` of transformation `t`, moved out of a neighbourhood
    /// nothing else reads.
    fn into_output(mut self, t: usize, nth: usize, ledger: &BuildLedger, sink: Sink) -> Candidate {
        self.outputs(t, ledger, sink);
        let cells = self.outputs.get_mut().expect("just built");
        cells[t].take().expect("just built").swap_remove(nth)
    }
}

impl Design {
    /// A search input: built, identified by its [`exact_hash`].
    pub(crate) fn input(function: Function, hash: u64) -> Design {
        Design {
            id: exact_hash(&function),
            hash,
            built: OnceLock::from(Built {
                function,
                unrolled: None,
            }),
            recipe: None,
        }
    }

    /// The child `rec` of `parent` in `scope`; `built` is the candidate
    /// itself when the expansion just built it.
    pub(crate) fn child(
        parent: &Arc<Design>,
        scope: &Arc<Scope>,
        rec: &Expanded,
        built: Option<Candidate>,
    ) -> Design {
        let (built, recipe) = match built {
            Some(c) => (OnceLock::from(Built::from(c)), None),
            None => (
                OnceLock::new(),
                Some(Recipe {
                    parent: parent.clone(),
                    scope: scope.clone(),
                    transform: rec.transform,
                    nth: rec.nth,
                }),
            ),
        };
        Design {
            id: scope.child_id(parent.id, rec),
            hash: rec.hash,
            built,
            recipe,
        }
    }

    /// The parent a design not built yet is rebuilt from (`None` once
    /// it is built, or for a design built when it was made).
    pub(crate) fn unbuilt_parent(&self) -> Option<&Design> {
        match (&self.recipe, self.built.get()) {
            (Some(r), None) => Some(&r.parent),
            _ => None,
        }
    }

    /// The design's function, built on first read.
    pub(crate) fn function(&self, ledger: &BuildLedger, sink: Sink) -> &Function {
        &self.built(None, ledger, sink).function
    }

    /// The function (and unroll map), built on first read through
    /// `siblings`, the parent's neighbourhood, when given, else through
    /// a neighbourhood of the parent's own.
    fn built(&self, siblings: Option<&Siblings>, ledger: &BuildLedger, sink: Sink) -> &Built {
        self.built.get_or_init(|| {
            let r = self
                .recipe
                .as_ref()
                .expect("a design without a recipe is built when made");
            let (t, nth) = (r.transform as usize, r.nth as usize);
            match siblings {
                Some(s) => {
                    debug_assert!(s.is_of(&r.parent));
                    let c = &s.outputs(t, ledger, sink)[nth];
                    Built {
                        function: c.function.clone(),
                        unrolled: c.unrolled.clone(),
                    }
                }
                None => Siblings::new(&r.parent, None, &r.scope)
                    .into_output(t, nth, ledger, sink)
                    .into(),
            }
        })
    }
}

/// A lazily built design as the neighbourhood evaluator sees it.
#[derive(Clone, Copy)]
pub(crate) struct Lazy<'a> {
    pub(crate) design: &'a Design,
    pub(crate) siblings: Option<&'a Siblings<'a>>,
    pub(crate) ledger: &'a BuildLedger,
}

impl<'a> Lazy<'a> {
    pub(crate) fn function(self) -> &'a Function {
        &self
            .design
            .built(self.siblings, self.ledger, Sink::Eval)
            .function
    }

    pub(crate) fn unrolled(self) -> Option<&'a UnrollMap> {
        self.design
            .built(self.siblings, self.ledger, Sink::Eval)
            .unrolled
            .as_ref()
    }
}

/// How a search expands its parents: through `memo` when there is one,
/// with construction counted and timed in `ledger`.
#[derive(Clone, Copy)]
pub(crate) struct Expander<'a> {
    pub(crate) memo: Option<&'a ExpansionMemo>,
    pub(crate) ledger: &'a BuildLedger,
}

impl Expander<'_> {
    /// `parent`'s neighbourhood in `scope`: the records of its
    /// candidates in expansion order, and — on a memo miss, which builds
    /// the neighbourhood in full and records it — the candidates
    /// themselves, slot for slot (empty on a hit: nothing is built). An
    /// unbuilt `parent` is built through `origin`, the neighbourhood it
    /// belongs to, when given.
    pub(crate) fn expand(
        &self,
        parent: &Design,
        origin: Option<&Siblings>,
        scope: &Scope,
    ) -> (Arc<[Expanded]>, Vec<Option<Candidate>>) {
        let key = scope.memo_key(parent.id);
        if let Some(records) = self.memo.and_then(|m| m.get(key)) {
            self.ledger.memoized.fetch_add(1, Ordering::Relaxed);
            return (records, Vec::new());
        }
        let f = &parent.built(origin, self.ledger, Sink::Search).function;
        let by_transform = self.ledger.build(Sink::Search, scope.library.len(), || {
            scope.library.candidates_by_transform(f, &scope.region)
        });
        let mut records = Vec::new();
        let mut built = Vec::new();
        for (t, outputs) in by_transform.into_iter().enumerate() {
            for (nth, c) in outputs.into_iter().enumerate() {
                records.push(Expanded {
                    hash: structural_hash(&c.function),
                    kind: c.kind,
                    description: Arc::from(c.description.as_str()),
                    transform: t as u32,
                    nth: nth as u32,
                    verdicts: Verdicts::default(),
                });
                built.push(Some(c));
            }
        }
        let records: Arc<[Expanded]> = records.into();
        if let Some(memo) = self.memo {
            memo.insert(key, records.clone());
        }
        (records, built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::EvalCache;
    use crate::pipeline::{optimize_pareto_with, optimize_with, FactConfig, OptimizeHooks};
    use crate::suite::{suite, Benchmark};
    use crate::Objective;
    use fact_estim::section5_library;
    use fact_ir::{operand_swap_of, prove_equivalent};
    use fact_sched::{FuLibrary, SelectionRules};
    use fact_sim::{InputSpec, TraceSet};

    /// Checks `memo` against a fresh expansion: every neighbourhood it
    /// holds in the tree under the search input `input` is expanded
    /// again, and each record's hash, and each verdict it holds, must
    /// equal the candidate's structural hash and what `operand_swap_of`
    /// and `prove_equivalent` answer for it now. Returns how many
    /// records were visited and how many verdicts checked, or the first
    /// disagreement.
    fn audit(
        memo: &ExpansionMemo,
        input: &Function,
        region: &Region,
        library: &TransformLibrary,
    ) -> Result<(usize, usize), String> {
        let scope = Scope::new(library, region);
        let (mut visited, mut checked) = (0, 0);
        let mut stack = vec![(exact_hash(input), input.clone())];
        while let Some((id, parent)) = stack.pop() {
            let Some(records) = memo.get(scope.memo_key(id)) else {
                continue;
            };
            let built: Vec<Candidate> = library
                .candidates_by_transform(&parent, region)
                .into_iter()
                .flatten()
                .collect();
            if built.len() != records.len() {
                return Err(format!(
                    "{} records for {} candidates",
                    records.len(),
                    built.len()
                ));
            }
            for (rec, c) in records.iter().zip(built) {
                visited += 1;
                let what = &rec.description;
                if rec.hash != structural_hash(&c.function) {
                    return Err(format!("{what}: hash differs"));
                }
                if let Some(&swap) = rec.verdicts.swap.get() {
                    checked += 1;
                    if swap != operand_swap_of(&parent, &c.function).is_some() {
                        return Err(format!("{what}: stored swap verdict {swap} differs"));
                    }
                }
                if let Some(&proof) = rec.verdicts.proof.get() {
                    checked += 1;
                    let now = prove_equivalent(&parent, &c.function, c.unrolled.as_ref());
                    if proof != now {
                        return Err(format!("{what}: stored proof {proof:?}, now {now:?}"));
                    }
                }
                stack.push((scope.child_id(id, rec), c.function));
            }
        }
        Ok((visited, checked))
    }

    fn config(objective: Objective) -> FactConfig {
        let mut c = FactConfig {
            objective,
            ..FactConfig::default()
        };
        c.search.max_evaluations = 150;
        c.search.threads = 2;
        c
    }

    /// `traces` plus an input, `nonce`, that no program reads: the same
    /// runs, under an evaluation context no cached score belongs to.
    fn retraced(traces: &TraceSet, nonce: i64) -> TraceSet {
        TraceSet::new(
            traces
                .vectors
                .iter()
                .map(|v| {
                    let mut v = v.clone();
                    v.insert("nonce".to_string(), nonce);
                    v
                })
                .collect(),
        )
    }

    struct Job<'a> {
        b: &'a Benchmark,
        fus: &'a FuLibrary,
        rules: &'a SelectionRules,
        tlib: &'a TransformLibrary,
    }

    impl Job<'_> {
        fn hooks(cache: Option<&EvalCache>) -> OptimizeHooks<'_> {
            OptimizeHooks {
                cache,
                stop: None,
                timers: None,
            }
        }

        fn optimize(
            &self,
            traces: &TraceSet,
            config: &FactConfig,
            cache: Option<&EvalCache>,
        ) -> crate::FactResult {
            let b = self.b;
            optimize_with(
                &b.function,
                self.fus,
                self.rules,
                &b.allocation,
                traces,
                self.tlib,
                config,
                Self::hooks(cache),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name))
        }

        fn pareto(&self, config: &FactConfig, cache: &EvalCache) {
            let b = self.b;
            optimize_pareto_with(
                &b.function,
                self.fus,
                self.rules,
                &b.allocation,
                &b.traces,
                self.tlib,
                config,
                Self::hooks(Some(cache)),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    /// The suite, plus a fused loop the extended library's fission
    /// splits.
    fn programs(fus: &FuLibrary) -> Vec<Benchmark> {
        let mut programs = suite(fus);
        let mut allocation = fact_sched::Allocation::new();
        for (u, c) in [("a1", 2), ("mt1", 1), ("cp1", 2), ("i1", 2), ("sb1", 1)] {
            allocation.set(fus.by_name(u).unwrap(), c);
        }
        let spec = InputSpec::Uniform { lo: 0, hi: 5 };
        programs.push(Benchmark {
            name: "fused",
            function: fact_lang::compile(
                "proc fused(n, a, b) { array x[128]; array y[128]; var i = 0; \
                 while (i < n) { x[i] = (a * i) * 3; y[i] = b + i + b; i = i + 1; } }",
            )
            .unwrap(),
            allocation,
            traces: fact_sim::generate(
                &[
                    ("n".to_string(), InputSpec::Constant(40)),
                    ("a".to_string(), spec.clone()),
                    ("b".to_string(), spec),
                ],
                4,
                77,
            ),
        });
        programs
    }

    #[test]
    fn stored_verdicts_equal_the_checks_run_again() {
        // One region, the whole function, so every neighbourhood the
        // memo holds lies in the tree under the input, which the audit
        // walks: each parent is expanded again and each stored verdict
        // compared with `operand_swap_of` and `prove_equivalent` on the
        // functions.
        let (fus, rules) = section5_library();
        let mut c = config(Objective::Throughput);
        c.partition = crate::PartitionConfig {
            threshold_fraction: 2.0,
        };
        for (name, tlib) in [
            ("full", TransformLibrary::full()),
            ("extended", TransformLibrary::extended()),
        ] {
            for b in &programs(&fus) {
                let what = format!("{} {name}", b.name);
                let job = Job {
                    b,
                    fus: &fus,
                    rules: &rules,
                    tlib: &tlib,
                };
                let cache = EvalCache::default();
                let throughput = job.optimize(&b.traces, &c, Some(&cache));
                if b.name == "fused" && name == "extended" {
                    assert!(
                        throughput
                            .applied
                            .iter()
                            .any(|step| step.starts_with("distribute loop")),
                        "{what}: fission applied: {:?}",
                        throughput.applied
                    );
                    let fission = TransformKind::LoopDistribution.index();
                    assert!(throughput.candidates.simulated[fission] > 0, "{what}");
                }
                let power = FactConfig {
                    objective: Objective::Power,
                    ..c.clone()
                };
                job.optimize(&retraced(&b.traces, 2), &power, Some(&cache));
                job.pareto(&c, &cache);
                let memo = cache.expansions();
                let (visited, checked) = audit(memo, &b.function, &Region::whole(), &tlib)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(visited, memo.records(), "{what}: every record audited");
                assert!(checked > 0, "{what}: some verdict stored");
            }
        }
    }

    /// Every field of `r` but the memo counters and the schedule's
    /// maps, whose `Debug` order varies: the winner by its IR, the
    /// schedule by its STG.
    fn outcome(r: &crate::FactResult) -> String {
        format!(
            "applied {:?}\nevaluated {} blocks {} batches {} batch candidates {} lanes {} \
             stopped {}\nestimate {:?}\nbaseline {:?}\ncache hits {} full {} spliced {} \
             vectors {} simulated {} batched {} candidates {:?} reference {}\n\
             winner\n{:?}\nstg\n{}",
            r.applied,
            r.evaluated,
            r.blocks_optimized,
            r.neighborhood_batches,
            r.mega_candidates,
            r.mega_lanes,
            r.stopped,
            r.estimate,
            r.baseline,
            r.cache_hits,
            r.full_reschedules,
            r.block_spliced,
            r.sim_vectors,
            r.sim_engine_scalar,
            r.sim_engine_batched,
            r.candidates,
            r.reference_captured,
            r.best,
            r.schedule.stg.pretty(&r.schedule.function),
        )
    }

    #[test]
    fn results_hold_when_the_memo_cap_is_below_one_job() {
        // A capped memo evicts all the time, so verdicts are lost with
        // their records; that only costs checks and rebuilds, never a
        // different result. Two jobs run on each capped memo: one on
        // traces nobody else uses, then another objective on the
        // program's own traces, which reads the verdicts the first left
        // in the records its inserts have not evicted yet. A memo of half
        // of the first job's records cannot hold even that job; one of
        // all its records holds it but not the second job as well.
        let (fus, rules) = section5_library();
        let tlib = TransformLibrary::full();
        let (mut memoized, mut verdicts) = (0, 0);
        for b in &suite(&fus) {
            let job = Job {
                b,
                fus: &fus,
                rules: &rules,
                tlib: &tlib,
            };
            let traces = retraced(&b.traces, 3);
            for (first, second) in [
                (Objective::Throughput, Objective::Power),
                (Objective::Power, Objective::Throughput),
            ] {
                let what = format!("{} {first:?} then {second:?}", b.name);
                let (first, second) = (config(first), config(second));
                let unbounded = EvalCache::default();
                let want_first = job.optimize(&traces, &first, Some(&unbounded));
                let one_job = unbounded.expansions().records();
                let want_second = job.optimize(&b.traces, &second, Some(&unbounded));
                let two_jobs = unbounded.expansions().records();
                for cap in [one_job / 2, one_job] {
                    let what = format!("{what}, cap {cap} of {one_job}");
                    let small = EvalCache::with_memo_capacity(cap);
                    let got = job.optimize(&traces, &first, Some(&small));
                    assert_eq!(outcome(&got), outcome(&want_first), "{what}");
                    let got = job.optimize(&b.traces, &second, Some(&small));
                    assert_eq!(outcome(&got), outcome(&want_second), "{what}");
                    let memo = small.expansions();
                    assert!(
                        !memo.is_empty() && memo.records() <= cap,
                        "{what}: {memo:?}"
                    );
                    if two_jobs > cap {
                        // Read while evicting.
                        memoized += got.neighborhoods_memoized;
                        verdicts += got.verdicts_memoized;
                    }
                }
            }
        }
        assert!(memoized > 0, "some expansion came from a capped memo");
        assert!(verdicts > 0, "some verdict came from a capped memo");
    }
}
