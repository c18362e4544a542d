//! The `Apply_transforms` search engine (paper §4.2, Figure 6).
//!
//! Hybrid of simulated annealing and iterative improvement: a set
//! `In_set` of candidate CDFGs is expanded through the transformation
//! library into `Behavior_set`; every element is rescheduled and its
//! objective estimated; candidates are ranked and the next `In_set` is a
//! fixed-size subset drawn with probabilities proportional to
//! `e^(−k·rank)`, where `k` increases over time — early on poor solutions
//! survive (exploration), later only good ones (exploitation). The search
//! stops when a full round fails to improve the best solution.
//!
//! # Structure and parallelism
//!
//! Each move proceeds in three deterministic stages:
//!
//! 1. **Expand**: enumerate the neighborhood of every frontier element in
//!    order, deduplicating by [`structural_hash`] against everything seen
//!    so far and truncating to the remaining evaluation budget. With an
//!    expansion memo (the pipeline passes the [`EvalCache`]'s) a parent
//!    expanded before is answered from its records, and a candidate's
//!    function is built only when something reads it (DESIGN §10.5);
//! 2. **Evaluate**: hand the whole surviving neighborhood to the caller's
//!    [`MegaEval`] in one call. It returns one score slot per candidate,
//!    in batch order, however it schedules the work (sequentially or
//!    across worker threads);
//! 3. **Select**: rank and draw the next `In_set` with rank-exponential
//!    probabilities from the seeded RNG.
//!
//! The RNG is consumed only in stage 3 and the batch order is fixed in
//! stage 1, so for a given seed the search returns *bit-identical*
//! results however the evaluator dispatches the batch — only wall-clock
//! time changes. Candidate evaluation must itself be a pure function of
//! the candidate for this to hold (it is: scheduling and estimation are
//! deterministic).
//!
//! The scalar search ([`apply_transforms`]) and the Pareto search
//! ([`apply_transforms_pareto`]) are the same loop with a different
//! ranking: score order plus one incumbent, or nondominated order plus
//! an archive.
//!
//! [`EvalCache`]: crate::EvalCache

use crate::cache::structural_hash;
use crate::expand::{
    BuildLedger, Design, Expanded, Expander, Lazy, Scope, Siblings, Sink, Verdicts,
};
use crate::pareto::{ranked_order, ParetoArchive, ParetoPoint};
use fact_ir::{Function, UnrollMap};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_xform::{Region, TransformKind, TransformLibrary};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Search configuration (the knobs of Figure 6).
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// `MAX_MOVES`: expansion/selection steps per improvement round.
    pub max_moves: usize,
    /// Size of the selected subset carried between moves.
    pub in_set_size: usize,
    /// Safety bound on improvement rounds.
    pub max_rounds: usize,
    /// Initial rank-selection sharpness `k` (low → exploratory).
    pub k_initial: f64,
    /// Additive increase of `k` per move (`k` is "a linear function of the
    /// number of executions of the loop").
    pub k_step: f64,
    /// RNG seed (the search is deterministic given the seed).
    pub seed: u64,
    /// Cap on total candidate evaluations, to bound runtime.
    pub max_evaluations: usize,
    /// Worker threads for neighborhood evaluation (≤ 1 = sequential).
    /// Does not affect the search trajectory, only wall-clock time.
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_moves: 4,
            in_set_size: 3,
            max_rounds: 6,
            k_initial: 0.3,
            k_step: 0.4,
            seed: 0xFAC7,
            max_evaluations: 600,
            threads: 1,
        }
    }
}

/// Search outcome.
#[derive(Clone, Debug)]
pub struct SearchResult {
    /// The best CDFG found (the input if nothing improved).
    pub best: Function,
    /// Its score (higher is better).
    pub best_score: f64,
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// Number of improvement rounds executed.
    pub rounds: usize,
    /// Descriptions of the transformation steps on the winning path.
    pub applied: Vec<String>,
    /// `true` when the search was cut short by a cancellation signal
    /// (the result is still the best of what was explored).
    pub stopped: bool,
}

/// One applied transformation step, linked to its predecessors.
///
/// Paths used to be `Vec<String>` cloned per candidate — O(depth)
/// allocations for every element of every `Behavior_set`. As a linked
/// list of `Arc` nodes, extending a path is one allocation and sharing a
/// parent's prefix is a refcount bump; the vector form is materialized
/// only for the final [`SearchResult`].
struct PathNode {
    step: Arc<str>,
    parent: Option<Arc<PathNode>>,
}

/// Walks a path chain back to the root and returns the steps in
/// application order.
fn materialize_path(tip: &Option<Arc<PathNode>>) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = tip.as_ref();
    while let Some(n) = cur {
        out.push(n.step.to_string());
        cur = n.parent.as_ref();
    }
    out.reverse();
    out
}

/// A scored element of the search frontier. Cloning is cheap: the
/// design and path are shared, not copied.
#[derive(Clone)]
struct Scored<S> {
    /// The design, built only once something reads its function.
    design: Arc<Design>,
    path: Option<Arc<PathNode>>,
    score: S,
}

/// One stage-1 survivor of a neighborhood expansion, as handed to the
/// whole-neighborhood evaluator.
///
/// The structural hash is the one stage 1 already computed for
/// deduplication (or recorded in the expansion memo), piggybacked here
/// so evaluators can key their score caches without the function. The
/// function itself is built on first read ([`MegaCandidate::function`]):
/// an evaluator that answers a candidate from its cache never builds it.
pub struct MegaCandidate<'a> {
    /// `structural_hash(self.function())`, known without building it.
    pub hash: u64,
    /// Where the candidate came from; `None` for a search input.
    pub origin: Option<Origin<'a>>,
    lazy: Lazy<'a>,
    /// The verdict cells of the candidate's expansion record (`None`
    /// for a search input).
    verdicts: Option<&'a Verdicts>,
}

impl<'a> MegaCandidate<'a> {
    /// The candidate CDFG, built on first read.
    pub fn function(&self) -> &'a Function {
        self.lazy.function()
    }

    /// For a loop unrolled by 2, how the candidate's blocks stand for
    /// its parent's ([`fact_xform::Candidate::unrolled`]). Builds the
    /// candidate.
    pub fn unrolled(&self) -> Option<&'a UnrollMap> {
        self.lazy.unrolled()
    }

    /// What the candidate's equivalence checks found, kept in its
    /// expansion record (`None` for a search input). Reading it builds
    /// nothing.
    pub(crate) fn verdicts(&self) -> Option<&'a Verdicts> {
        self.verdicts
    }
}

/// The frontier element a candidate was expanded from, and the
/// transformation that produced it. Lets an evaluator prove a candidate
/// equivalent to an already-evaluated parent instead of simulating it.
#[derive(Clone, Copy)]
pub struct Origin<'a> {
    /// `structural_hash(self.parent())`.
    pub parent_hash: u64,
    /// The transformation that rewrote the parent into the candidate.
    pub kind: TransformKind,
    parent: Lazy<'a>,
}

impl<'a> Origin<'a> {
    /// The parent CDFG, built on first read.
    pub fn parent(&self) -> &'a Function {
        self.parent.function()
    }
}

/// A whole-neighborhood evaluator: scores one candidate slice in a
/// single call, returning one score slot per candidate in slice order
/// (`None` marks an invalid or skipped candidate). How work is scheduled
/// inside the call is the evaluator's business — the search only fixes
/// the batch order, which is what determinism rests on.
pub type MegaEval<'e, S> = dyn Fn(&[MegaCandidate<'_>]) -> Vec<Option<S>> + Sync + 'e;

/// Scores `batch` through `evaluate`, checking the one-slot-per-candidate
/// contract.
fn score_batch<S>(evaluate: &MegaEval<'_, S>, batch: &[MegaCandidate<'_>]) -> Vec<Option<S>> {
    let scores = evaluate(batch);
    assert_eq!(
        scores.len(),
        batch.len(),
        "neighborhood evaluator must return one slot per candidate"
    );
    scores
}

/// A not-yet-evaluated expansion of a frontier element.
struct Candidate {
    design: Arc<Design>,
    /// Index of the parent in the move's `In_set`.
    parent: usize,
    /// Index of the candidate's record in its parent's neighbourhood.
    slot: usize,
    kind: TransformKind,
    description: Arc<str>,
}

/// How one search ranks what it has scored and when it stops: the part
/// of the loop that differs between the scalar and the Pareto search.
trait Ranking {
    /// What the evaluator returns per candidate.
    type Score: Clone + Send;
    /// Hashes of designs scored before this search began (never
    /// re-evaluated).
    fn known(&self) -> Vec<u64>;
    /// Offers one scored design, in batch order. `false` keeps it out
    /// of `Behavior_set`.
    fn admit(&mut self, s: &Scored<Self::Score>) -> bool;
    /// Whether nothing has been admitted yet (no search can start).
    fn is_empty(&self) -> bool;
    /// Marks the start of an improvement round.
    fn begin_round(&mut self);
    /// Whether the current round improved on its start.
    fn improved(&self) -> bool;
    /// The `In_set` a round starts from, given the last move's selection
    /// (empty before the first round).
    fn round_in_set(
        &self,
        last: Vec<Scored<Self::Score>>,
        size: usize,
        k: f64,
        rng: &mut StdRng,
    ) -> Vec<Scored<Self::Score>>;
    /// Indices of `set`, best first.
    fn order(&self, set: &[Scored<Self::Score>]) -> Vec<usize>;
}

/// Loop counters shared by both searches.
struct Progress {
    evaluated: usize,
    rounds: usize,
    stopped: bool,
}

/// The Figure 6 loop, generic over the [`Ranking`]. `expander` decides
/// how parents are expanded; the search's own builds (memo misses and
/// the winner's function) are charged to its ledger's search sink, and
/// the evaluator's reads to its evaluation sink.
#[allow(clippy::too_many_arguments)]
fn run_search<R: Ranking>(
    g0: &Function,
    region: &Region,
    library: &TransformLibrary,
    config: &SearchConfig,
    ranking: &mut R,
    evaluate: &MegaEval<'_, R::Score>,
    stop: Option<&AtomicBool>,
    expander: Expander<'_>,
) -> Progress {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut evaluated = 0usize;
    let cancelled = || stop.is_some_and(|s| s.load(Ordering::Relaxed));
    let mut seen: HashSet<u64> = ranking.known().into_iter().collect();
    let ledger = expander.ledger;
    let scope = Scope::new(library, region);

    // The input anchors the search (Figure 6, line 1).
    let h0 = structural_hash(g0);
    if seen.insert(h0) {
        let root = Arc::new(Design::input(g0.clone(), h0));
        let base = score_batch(
            evaluate,
            &[MegaCandidate {
                hash: h0,
                origin: None,
                lazy: Lazy {
                    design: &root,
                    siblings: None,
                    ledger,
                },
                verdicts: None,
            }],
        )
        .remove(0);
        evaluated += 1;
        if let Some(score) = base {
            ranking.admit(&Scored {
                design: root,
                path: None,
                score,
            });
        }
    }
    if ranking.is_empty() {
        return Progress {
            evaluated,
            rounds: 0,
            stopped: cancelled(),
        };
    }

    let mut in_set: Vec<Scored<R::Score>> = Vec::new();
    let mut k = config.k_initial;
    let mut rounds = 0usize;
    let mut stopped = false;

    'rounds: for _round in 0..config.max_rounds {
        rounds += 1;
        ranking.begin_round();
        in_set = ranking.round_in_set(in_set, config.in_set_size, k, &mut rng);

        for _move in 0..config.max_moves {
            if cancelled() {
                stopped = true;
                break 'rounds;
            }
            // The neighbourhoods unbuilt frontier elements come from, one
            // per parent: siblings read in this move share its builds.
            let mut origins: Vec<Siblings<'_>> = Vec::new();
            let origin_slot: Vec<Option<usize>> = in_set
                .iter()
                .map(|g| {
                    let p = g.design.unbuilt_parent()?;
                    let slot = origins.iter().position(|o| o.is_of(p));
                    Some(slot.unwrap_or_else(|| {
                        origins.push(Siblings::new(p, None, &scope));
                        origins.len() - 1
                    }))
                })
                .collect();
            let origin = |parent: usize| origin_slot[parent].map(|i| &origins[i]);

            // Stage 1: expand the neighborhood of every frontier element,
            // dedup by structural hash, truncate to the budget.
            let budget = config.max_evaluations.saturating_sub(evaluated);
            let mut candidates: Vec<Candidate> = Vec::new();
            // Each expanded parent's records, by `In_set` index: where the
            // candidates' verdict cells live while they are evaluated.
            let mut neighbourhoods: Vec<Arc<[Expanded]>> = Vec::new();
            'expand: for (parent, g) in in_set.iter().enumerate() {
                let (records, mut built) = expander.expand(&g.design, origin(parent), &scope);
                neighbourhoods.push(records);
                let records = &neighbourhoods[parent];
                for (slot, rec) in records.iter().enumerate() {
                    if candidates.len() >= budget {
                        break 'expand;
                    }
                    if !seen.insert(rec.hash) {
                        continue;
                    }
                    let c = built.get_mut(slot).and_then(Option::take);
                    candidates.push(Candidate {
                        design: Arc::new(Design::child(&g.design, &scope, rec, c)),
                        parent,
                        slot,
                        kind: rec.kind,
                        description: rec.description.clone(),
                    });
                }
            }
            if candidates.is_empty() {
                break;
            }

            // Stage 2: score the whole neighborhood in one dispatch.
            let scores = {
                let siblings: Vec<Siblings<'_>> = in_set
                    .iter()
                    .enumerate()
                    .map(|(i, g)| Siblings::new(&g.design, origin(i), &scope))
                    .collect();
                let batch: Vec<MegaCandidate<'_>> = candidates
                    .iter()
                    .map(|c| {
                        let parent = &in_set[c.parent].design;
                        MegaCandidate {
                            hash: c.design.hash,
                            origin: Some(Origin {
                                parent_hash: parent.hash,
                                kind: c.kind,
                                parent: Lazy {
                                    design: parent,
                                    siblings: origin(c.parent),
                                    ledger,
                                },
                            }),
                            lazy: Lazy {
                                design: &c.design,
                                siblings: Some(&siblings[c.parent]),
                                ledger,
                            },
                            verdicts: Some(&neighbourhoods[c.parent][c.slot].verdicts),
                        }
                    })
                    .collect();
                score_batch(evaluate, &batch)
            };
            evaluated += candidates.len();
            if cancelled() {
                // Partial batches are discarded: un-run slots are
                // indistinguishable from invalid candidates, and using
                // them would make cancelled runs diverge from complete
                // ones beyond mere truncation.
                stopped = true;
                break 'rounds;
            }

            // Admission strictly in batch order: the merge discipline
            // that keeps the incumbent and the archive thread-invariant.
            let mut behavior_set: Vec<Scored<R::Score>> = Vec::new();
            for (cand, score) in candidates.into_iter().zip(scores) {
                let Some(score) = score else { continue };
                let scored = Scored {
                    design: cand.design,
                    path: Some(Arc::new(PathNode {
                        step: cand.description,
                        parent: in_set[cand.parent].path.clone(),
                    })),
                    score,
                };
                if ranking.admit(&scored) {
                    behavior_set.push(scored);
                }
            }
            if behavior_set.is_empty() {
                if evaluated >= config.max_evaluations {
                    break;
                }
                continue;
            }
            // Stage 3: rank (line 16) and select the next In_set with
            // rank-exponential probabilities (lines 18-21).
            let order = ranking.order(&behavior_set);
            in_set = select_ranks(order.len(), config.in_set_size, k, &mut rng)
                .into_iter()
                .map(|r| behavior_set[order[r]].clone())
                .collect();
            k += config.k_step;

            if evaluated >= config.max_evaluations {
                break;
            }
        }

        if !ranking.improved() || evaluated >= config.max_evaluations {
            break; // stopping criterion: no improvement this round
        }
    }

    Progress {
        evaluated,
        rounds,
        stopped,
    }
}

/// Draws `size` unique ranks out of `0..n` with `P(rank r) ∝ e^(−k·r)`
/// — the Figure 6 selection kernel, shared by the scalar search (ranks =
/// positions in the score sort) and the Pareto search (ranks = positions
/// in the [`ranked_order`] nondominated sort).
fn select_ranks(n: usize, size: usize, k: f64, rng: &mut StdRng) -> Vec<usize> {
    let want = size.min(n);
    let mut chosen: Vec<usize> = Vec::new();
    let mut available: Vec<usize> = (0..n).collect();
    for _ in 0..want {
        let weights: Vec<f64> = available.iter().map(|&r| (-k * r as f64).exp()).collect();
        let total: f64 = weights.iter().sum();
        let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        let mut pick = available.len() - 1;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                pick = i;
                break;
            }
            x -= w;
        }
        chosen.push(available.remove(pick));
    }
    chosen
}

/// The scalar ranking: decreasing score, one incumbent (the best design
/// seen so far, Figure 6 line 13).
#[derive(Default)]
struct Incumbent {
    best: Option<Scored<f64>>,
    at_round_start: f64,
}

impl Incumbent {
    fn best(&self) -> &Scored<f64> {
        self.best
            .as_ref()
            .expect("the search starts from a scored input")
    }
}

impl Ranking for Incumbent {
    type Score = f64;

    fn known(&self) -> Vec<u64> {
        Vec::new()
    }

    fn admit(&mut self, s: &Scored<f64>) -> bool {
        if self.best.as_ref().is_none_or(|b| s.score > b.score) {
            self.best = Some(s.clone());
        }
        true
    }

    fn is_empty(&self) -> bool {
        self.best.is_none()
    }

    fn begin_round(&mut self) {
        self.at_round_start = self.best().score;
    }

    // Negated on purpose: a NaN score is not "no improvement".
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn improved(&self) -> bool {
        !(self.best().score <= self.at_round_start)
    }

    /// Carries the last selection over, restarting from the incumbent
    /// when no survivor matches it.
    fn round_in_set(
        &self,
        mut last: Vec<Scored<f64>>,
        _size: usize,
        _k: f64,
        _rng: &mut StdRng,
    ) -> Vec<Scored<f64>> {
        let best = self.best();
        if !last.iter().any(|s| s.score >= best.score) {
            last.push(best.clone());
        }
        last
    }

    fn order(&self, set: &[Scored<f64>]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by(|&a, &b| {
            set[b]
                .score
                .partial_cmp(&set[a].score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order
    }
}

/// Runs `Apply_transforms` over `g0` within `region`.
///
/// `evaluate` reschedules every candidate of a neighborhood and returns
/// one objective score per candidate (higher = better), or `None` for
/// invalid candidates (e.g. a rewrite that introduced an operation with
/// no allocated unit). See the module docs for the determinism contract.
///
/// `stop` is a cooperative cancellation flag (used by `factd` for per-job
/// timeouts): once set, the search returns its best-so-far with
/// [`SearchResult::stopped`] set.
///
/// # Examples
///
/// Search with a structural objective (fewest datapath ops):
///
/// ```
/// use fact_core::{apply_transforms, MegaCandidate, SearchConfig};
/// use fact_ir::rewrite::datapath_op_count;
/// use fact_xform::{Region, TransformLibrary};
///
/// let f = fact_lang::compile("proc f(a, b, c) { out y = a * b + a * c; }")?;
/// let result = apply_transforms(
///     &f,
///     &Region::whole(),
///     &TransformLibrary::full(),
///     &SearchConfig::default(),
///     &|batch: &[MegaCandidate<'_>]| {
///         batch
///             .iter()
///             .map(|c| Some(-(datapath_op_count(c.function()) as f64)))
///             .collect()
///     },
///     None,
/// );
/// // a*b + a*c factors to a*(b+c): 3 ops -> 2 ops.
/// assert_eq!(result.best_score, -2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn apply_transforms(
    g0: &Function,
    region: &Region,
    library: &TransformLibrary,
    config: &SearchConfig,
    evaluate: &MegaEval<'_, f64>,
    stop: Option<&AtomicBool>,
) -> SearchResult {
    let ledger = BuildLedger::default();
    let expander = Expander {
        memo: None,
        ledger: &ledger,
    };
    apply_transforms_with(g0, region, library, config, evaluate, stop, expander)
}

/// [`apply_transforms`] expanding through `expander`; the winner's
/// function is built through its path when the search did not build it.
pub(crate) fn apply_transforms_with(
    g0: &Function,
    region: &Region,
    library: &TransformLibrary,
    config: &SearchConfig,
    evaluate: &MegaEval<'_, f64>,
    stop: Option<&AtomicBool>,
    expander: Expander<'_>,
) -> SearchResult {
    let mut ranking = Incumbent::default();
    let p = run_search(
        g0,
        region,
        library,
        config,
        &mut ranking,
        evaluate,
        stop,
        expander,
    );
    match ranking.best {
        Some(best) => SearchResult {
            applied: materialize_path(&best.path),
            best: best.design.function(expander.ledger, Sink::Search).clone(),
            best_score: best.score,
            evaluated: p.evaluated,
            rounds: p.rounds,
            stopped: p.stopped,
        },
        None => SearchResult {
            best: g0.clone(),
            best_score: f64::NEG_INFINITY,
            evaluated: p.evaluated,
            rounds: p.rounds,
            applied: Vec::new(),
            stopped: p.stopped,
        },
    }
}

/// An element of the Pareto search frontier: a candidate CDFG plus the
/// transformation path that produced it. Cloning is cheap (both parts
/// are shared).
#[derive(Clone)]
pub struct ParetoCandidate {
    design: Arc<Design>,
    path: Option<Arc<PathNode>>,
}

impl ParetoCandidate {
    /// The candidate CDFG, built on first read.
    pub fn function(&self) -> &Function {
        self.design.function(&BuildLedger::default(), Sink::Search)
    }

    /// The transformation steps that produced this candidate, in
    /// application order (empty for the untransformed input).
    pub fn applied(&self) -> Vec<String> {
        materialize_path(&self.path)
    }
}

/// Outcome counters of one [`apply_transforms_pareto`] run (the frontier
/// itself lives in the caller's archive).
#[derive(Clone, Copy, Debug)]
pub struct ParetoSearchResult {
    /// Number of candidates evaluated.
    pub evaluated: usize,
    /// Number of improvement rounds executed.
    pub rounds: usize,
    /// `true` when the search was cut short by the cancellation signal.
    pub stopped: bool,
}

/// The Pareto ranking: nondominated sort (front, then crowding) over
/// `(energy, latency)` pairs, with a bounded archive in place of the
/// incumbent.
struct Frontier<'a> {
    archive: &'a mut ParetoArchive<ParetoCandidate>,
    at_round_start: u64,
}

fn point_of(score: (f64, f64)) -> ParetoPoint {
    ParetoPoint {
        energy: score.0,
        latency: score.1,
    }
}

impl Ranking for Frontier<'_> {
    type Score = (f64, f64);

    /// Archived survivors of earlier regions are already evaluated.
    fn known(&self) -> Vec<u64> {
        self.archive
            .entries()
            .iter()
            .map(|(_, c)| c.design.hash)
            .collect()
    }

    fn admit(&mut self, s: &Scored<(f64, f64)>) -> bool {
        let point = point_of(s.score);
        if !point.is_finite() {
            return false;
        }
        self.archive.try_insert(
            point,
            ParetoCandidate {
                design: s.design.clone(),
                path: s.path.clone(),
            },
        );
        true
    }

    fn is_empty(&self) -> bool {
        self.archive.is_empty()
    }

    fn begin_round(&mut self) {
        self.at_round_start = self.archive.generation();
    }

    /// The frontier moved this round.
    fn improved(&self) -> bool {
        self.archive.generation() != self.at_round_start
    }

    /// Re-seeds from the archive: the two frontier extremes are always
    /// included (elitism — they anchor the curve's end points), and the
    /// rest is drawn rank-exponentially over the [`ranked_order`] of the
    /// archived points.
    fn round_in_set(
        &self,
        _last: Vec<Scored<(f64, f64)>>,
        size: usize,
        k: f64,
        rng: &mut StdRng,
    ) -> Vec<Scored<(f64, f64)>> {
        let entries = self.archive.entries();
        let scored = |i: usize| {
            let (p, c) = &entries[i];
            Scored {
                design: c.design.clone(),
                path: c.path.clone(),
                score: (p.energy, p.latency),
            }
        };
        let points: Vec<ParetoPoint> = entries.iter().map(|(p, _)| *p).collect();
        let order = ranked_order(&points);
        let n = order.len();
        let want = size.min(n).max(1.min(n));
        // ranked_order places the two infinite-crowding extremes first.
        let forced = want.min(2);
        let mut in_set: Vec<_> = order[..forced].iter().map(|&i| scored(i)).collect();
        if want > forced {
            for r in select_ranks(n - forced, want - forced, k, rng) {
                in_set.push(scored(order[forced + r]));
            }
        }
        in_set
    }

    fn order(&self, set: &[Scored<(f64, f64)>]) -> Vec<usize> {
        let points: Vec<ParetoPoint> = set.iter().map(|s| point_of(s.score)).collect();
        ranked_order(&points)
    }
}

/// `Apply_transforms`, generalized from a scalar objective to the
/// (energy, latency) plane: instead of tracking one incumbent, the search
/// maintains `archive` — a bounded nondominated set — and generalizes the
/// rank-exponential selection from score rank to Pareto rank (front
/// index, then crowding distance), so a single seeded run fills the
/// whole frontier.
///
/// `evaluate` returns each candidate's `(energy_vdd2, latency_cycles)` at
/// the reference voltage, or `None` for invalid candidates, under the
/// same determinism contract as [`apply_transforms`]: archive insertions
/// happen in batch order after the whole batch returns, so for a fixed
/// seed the final archive is bit-identical however the batch was
/// dispatched.
///
/// The archive may be pre-seeded (e.g. with the frontier of a previous
/// region's search); each round re-seeds the working `In_set` from the
/// archive with the two frontier extremes forced in — the elitism that
/// makes the frontier's end points match dedicated single-objective
/// runs. Rounds stop when a full round leaves the archive unchanged.
pub fn apply_transforms_pareto(
    g0: &Function,
    region: &Region,
    library: &TransformLibrary,
    config: &SearchConfig,
    archive: &mut ParetoArchive<ParetoCandidate>,
    evaluate: &MegaEval<'_, (f64, f64)>,
    stop: Option<&AtomicBool>,
) -> ParetoSearchResult {
    let ledger = BuildLedger::default();
    let expander = Expander {
        memo: None,
        ledger: &ledger,
    };
    apply_transforms_pareto_with(
        g0, region, library, config, archive, evaluate, stop, expander,
    )
}

/// [`apply_transforms_pareto`] expanding through `expander`. Archived
/// designs stay unbuilt until something reads their function.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_transforms_pareto_with(
    g0: &Function,
    region: &Region,
    library: &TransformLibrary,
    config: &SearchConfig,
    archive: &mut ParetoArchive<ParetoCandidate>,
    evaluate: &MegaEval<'_, (f64, f64)>,
    stop: Option<&AtomicBool>,
    expander: Expander<'_>,
) -> ParetoSearchResult {
    let mut ranking = Frontier {
        archive,
        at_round_start: 0,
    };
    let p = run_search(
        g0,
        region,
        library,
        config,
        &mut ranking,
        evaluate,
        stop,
        expander,
    );
    ParetoSearchResult {
        evaluated: p.evaluated,
        rounds: p.rounds,
        stopped: p.stopped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_ir::rewrite::datapath_op_count;
    use fact_lang::compile;

    /// Score = negative datapath op count: the search should find rewrites
    /// that shrink the graph.
    fn op_count_score(f: &Function) -> Option<f64> {
        Some(-(datapath_op_count(f) as f64))
    }

    /// Lifts a per-candidate objective to a sequential neighborhood
    /// evaluator.
    fn each<S>(
        score: impl Fn(&Function) -> Option<S> + Sync,
    ) -> impl Fn(&[MegaCandidate<'_>]) -> Vec<Option<S>> + Sync {
        move |batch| batch.iter().map(|c| score(c.function())).collect()
    }

    fn search(f: &Function, cfg: &SearchConfig, eval: &MegaEval<'_, f64>) -> SearchResult {
        let lib = TransformLibrary::full();
        apply_transforms(f, &Region::whole(), &lib, cfg, eval, None)
    }

    #[test]
    fn finds_distributivity_factoring_with_op_count_objective() {
        let f = compile("proc f(a, b, c) { out y = a * b + a * c; }").unwrap();
        let r = search(&f, &SearchConfig::default(), &each(op_count_score));
        // a*b + a*c (3 ops) -> a*(b+c) (2 ops).
        assert_eq!(r.best_score, -2.0);
        assert!(!r.applied.is_empty());
        assert!(r.evaluated > 1);
        assert!(!r.stopped);
    }

    #[test]
    fn chains_multiple_transformations() {
        // Needs phi-sink *then* distributivity: the multi-step search must
        // compose them (the paper's Example 3 flow).
        let f = compile(
            r#"
            proc fig4(x1, x2, x3, x4, x5, c) {
                var j1 = 0;
                var j2 = 0;
                if (c > 0) { j1 = x1 * x2; j2 = x1 * x3; }
                else { j1 = x4; j2 = x5; }
                out r = j1 - j2;
            }
            "#,
        )
        .unwrap();
        let r = search(&f, &SearchConfig::default(), &each(op_count_score));
        // Original: 2 muls + 1 sub + 1 cmp = 4 datapath ops. After sinking
        // and factoring: 1 mul + 2 subs + 1 cmp = 4... the op count alone
        // does not reward it; but folding may. Accept >= 2 steps explored.
        assert!(r.evaluated > 4);
        assert!(r.best_score >= -4.0);
    }

    #[test]
    fn stops_when_no_improvement() {
        let f = compile("proc f(a, b) { out y = a * b; }").unwrap();
        let r = search(&f, &SearchConfig::default(), &each(op_count_score));
        // Nothing to improve: one round, the input wins.
        assert_eq!(r.best_score, -1.0);
        assert_eq!(r.rounds, 1);
        assert!(r.applied.is_empty());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let f = compile("proc f(a, b, c, d) { out y = a + b + c + d; }").unwrap();
        let cfg = SearchConfig::default();
        let r1 = search(&f, &cfg, &each(op_count_score));
        let r2 = search(&f, &cfg, &each(op_count_score));
        assert_eq!(r1.best_score, r2.best_score);
        assert_eq!(r1.evaluated, r2.evaluated);
        assert_eq!(r1.applied, r2.applied);
    }

    #[test]
    fn piggybacked_hashes_match_structural_hash() {
        let f =
            compile("proc f(a, b, c, d, e2) { out y = a * b + a * c + a * d + a * e2; }").unwrap();
        let checked = |batch: &[MegaCandidate<'_>]| -> Vec<Option<f64>> {
            batch
                .iter()
                .map(|c| {
                    assert_eq!(c.hash, structural_hash(c.function()));
                    op_count_score(c.function())
                })
                .collect()
        };
        let r = search(&f, &SearchConfig::default(), &checked);
        assert!(r.evaluated > 1);
    }

    #[test]
    fn pareto_search_skips_archived_designs() {
        let f =
            compile("proc f(a, b, c, d, e2) { out y = a * b + a * c + a * d + a * e2; }").unwrap();
        let lib = TransformLibrary::full();
        let scored = std::sync::Mutex::new(Vec::new());
        let pair = |batch: &[MegaCandidate<'_>]| -> Vec<Option<(f64, f64)>> {
            scored.lock().unwrap().extend(batch.iter().map(|c| c.hash));
            batch
                .iter()
                .map(|c| {
                    let ops = datapath_op_count(c.function()) as f64;
                    Some((ops, -ops))
                })
                .collect()
        };
        let search = |archive: &mut ParetoArchive<ParetoCandidate>| {
            let cfg = SearchConfig::default();
            apply_transforms_pareto(&f, &Region::whole(), &lib, &cfg, archive, &pair, None)
        };
        let mut archive = ParetoArchive::new(16);
        let first = search(&mut archive);
        assert!(first.evaluated > 1);
        assert!(!archive.is_empty());
        // A pre-seeded archive's designs count as evaluated: a second
        // search over the same archive never scores them again.
        let archived: HashSet<u64> = archive
            .entries()
            .iter()
            .map(|(_, c)| structural_hash(c.function()))
            .collect();
        scored.lock().unwrap().clear();
        search(&mut archive);
        let rescored = scored
            .lock()
            .unwrap()
            .iter()
            .filter(|h| archived.contains(h))
            .count();
        assert_eq!(rescored, 0);
    }

    #[test]
    fn cancellation_returns_best_so_far() {
        let f = compile("proc f(a, b, c) { out y = a * b + a * c; }").unwrap();
        let lib = TransformLibrary::full();
        let stop = AtomicBool::new(true); // cancelled before the first move
        let r = apply_transforms(
            &f,
            &Region::whole(),
            &lib,
            &SearchConfig::default(),
            &each(op_count_score),
            Some(&stop),
        );
        assert!(r.stopped);
        // The search must not loop or panic; the input wins.
        assert!(r.applied.is_empty());
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let f = compile("proc f(a, b, c, d, e2) { out y = a + b + c + d + e2; }").unwrap();
        let cfg = SearchConfig {
            max_evaluations: 10,
            ..Default::default()
        };
        let r = search(&f, &cfg, &each(op_count_score));
        assert!(r.evaluated <= 10);
    }

    #[test]
    fn invalid_candidates_are_skipped() {
        let f = compile("proc f(a) { out y = a * 8; }").unwrap();
        let has_shift = |g: &Function| {
            g.block_ids()
                .flat_map(|b| g.block(b).ops.clone())
                .any(|op| {
                    matches!(
                        g.op(op).kind,
                        fact_ir::OpKind::Bin(fact_ir::BinOp::Shl | fact_ir::BinOp::Shr, ..)
                    )
                })
        };
        // Reject anything containing a shift (as a no-shifter allocation
        // would): the strength-reduced candidate must not win.
        let eval = each(|g: &Function| {
            if has_shift(g) {
                None
            } else {
                op_count_score(g)
            }
        });
        let r = search(&f, &SearchConfig::default(), &eval);
        assert!(!has_shift(&r.best));
    }

    #[test]
    fn rank_selection_prefers_better_with_high_k() {
        let mut rng = StdRng::seed_from_u64(1);
        // With very sharp k, the top rank is (essentially) always first.
        let mut top_first = 0;
        for _ in 0..50 {
            if select_ranks(4, 2, 50.0, &mut rng)[0] == 0 {
                top_first += 1;
            }
        }
        assert!(top_first >= 49);
    }
}
