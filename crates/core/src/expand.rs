//! The expansion memo, and designs built only when something reads them
//! (DESIGN §10.5).
//!
//! Figure 6 expands every `In_set` member through the transformation
//! library. Doing that builds every candidate function and hashes it —
//! even when the shared [`EvalCache`](crate::EvalCache) already holds
//! every candidate's score, as it does for a job `factd` has served
//! before. The [`ExpansionMemo`] remembers, per parent, the ordered list
//! of what its expansion produced: each candidate's structural hash,
//! kind, description, and the recipe that rebuilds it. A search whose
//! parent the memo knows dedups and truncates from these records alone,
//! and a candidate's function is built only when something reads it.
//!
//! The memo is exact, not heuristic. Its key is the parent's *identity*,
//! which determines the parent function exactly: the search input's is
//! its [`exact_hash`], a child's is derived from its parent's identity,
//! the region, the library and the child's recipe, and the expansion is
//! a deterministic function of these. So a hit replays what expanding
//! the parent would have produced, record for record.

use crate::cache::{exact_hash, structural_hash, ContextHasher};
use fact_ir::{Function, UnrollMap};
use fact_xform::{Candidate, Region, TransformKind, TransformLibrary};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How many candidate records the [`ExpansionMemo`] holds at most.
/// Inserting beyond it evicts the oldest neighbourhoods first; an evicted
/// neighbourhood is rebuilt on its next use, with the same result.
///
/// A record is about 100 bytes (most of it the description), so the cap
/// keeps the memo under about 2 MiB. The 18 paper-sized jobs of three
/// objectives over the §5 suite, at default search settings, fill 198
/// neighbourhoods with 1,874 records.
pub const EXPANSION_MEMO_CAPACITY: usize = 16_384;

/// One candidate of a memoized neighbourhood, in expansion order.
#[derive(Clone, Debug)]
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
    /// Neighbourhoods built: whole expansions of a parent, plus single
    /// transformations replayed to rebuild one design.
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

    /// Runs one build, counting it and charging its time to `sink`.
    fn build<T>(&self, sink: Sink, f: impl FnOnce() -> T) -> T {
        self.built.fetch_add(1, Ordering::Relaxed);
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

/// One parent's whole neighbourhood during one search move, built at
/// most once: when the evaluator reads the first of its children the
/// memo answered. Every transformation then shares the parent's
/// analyses, as a memo miss's expansion does.
#[derive(Default)]
pub(crate) struct Siblings {
    all: OnceLock<Vec<Vec<Candidate>>>,
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
        let id = ContextHasher::new(0xFAC7_C41D)
            .write_u64(parent.id)
            .write_u64(scope.salt)
            .write_u64(u64::from(rec.transform))
            .write_u64(u64::from(rec.nth))
            .finish();
        match built {
            Some(c) => Design {
                id,
                hash: rec.hash,
                built: OnceLock::from(Built::from(c)),
                recipe: None,
            },
            None => Design {
                id,
                hash: rec.hash,
                built: OnceLock::new(),
                recipe: Some(Recipe {
                    parent: parent.clone(),
                    scope: scope.clone(),
                    transform: rec.transform,
                    nth: rec.nth,
                }),
            },
        }
    }

    /// The design's function, built on first read.
    pub(crate) fn function(&self, ledger: &BuildLedger, sink: Sink) -> &Function {
        &self.built(None, ledger, sink).function
    }

    /// The function (and unroll map), built on first read: from
    /// `siblings`, the parent's neighbourhood in the current move, when
    /// given, else by replaying the one transformation of the recipe.
    fn built(&self, siblings: Option<&Siblings>, ledger: &BuildLedger, sink: Sink) -> &Built {
        self.built.get_or_init(|| {
            let r = self
                .recipe
                .as_ref()
                .expect("a design without a recipe is built when made");
            // Built outside this build's timing: it is a build of its own.
            let parent = r.parent.function(ledger, sink);
            let (t, nth) = (r.transform as usize, r.nth as usize);
            let (library, region) = (&r.scope.library, &r.scope.region);
            match siblings {
                Some(s) => {
                    let all = s.all.get_or_init(|| {
                        ledger.build(sink, || library.candidates_by_transform(parent, region))
                    });
                    let c = &all[t][nth];
                    Built {
                        function: c.function.clone(),
                        unrolled: c.unrolled.clone(),
                    }
                }
                None => Built::from(
                    ledger
                        .build(sink, || library.transform_candidates(t, parent, region))
                        .into_iter()
                        .nth(nth)
                        .expect("a recipe replays its exact parent"),
                ),
            }
        })
    }
}

/// A lazily built design as the neighbourhood evaluator sees it.
#[derive(Clone, Copy)]
pub(crate) struct Lazy<'a> {
    pub(crate) design: &'a Design,
    pub(crate) siblings: Option<&'a Siblings>,
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
    /// themselves, slot for slot (empty on a hit: nothing is built).
    pub(crate) fn expand(
        &self,
        parent: &Design,
        scope: &Scope,
    ) -> (Arc<[Expanded]>, Vec<Option<Candidate>>) {
        let key = ContextHasher::new(0xFAC7_3E30)
            .write_u64(parent.id)
            .write_u64(scope.salt)
            .finish();
        if let Some(records) = self.memo.and_then(|m| m.get(key)) {
            self.ledger.memoized.fetch_add(1, Ordering::Relaxed);
            return (records, Vec::new());
        }
        let f = parent.function(self.ledger, Sink::Search);
        let by_transform = self.ledger.build(Sink::Search, || {
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
