//! The FACT driver: the full flow of paper Figure 5.
//!
//! 1. schedule the input CDFG (existing CFI scheduler);
//! 2. derive state probabilities from input traces and partition the STG
//!    into blocks (§4.1);
//! 3. (through 7) per block, run the `Apply_transforms` search (§4.2),
//!    where every candidate is *rescheduled and re-estimated* — scheduling
//!    information guides transformation selection, the paper's central
//!    claim.

use crate::cache::{exact_hash, structural_hash, ContextHasher, EvalCache, PlanOutcome};
use crate::expand::{BuildLedger, Expander, Sink, Verdicts};
use crate::objective::Objective;
use crate::pareto::{nondominated, sweep_vdd, ParetoArchive, ParetoPoint};
use crate::partition::{partition, region_of_block, PartitionConfig};
use crate::search::{
    apply_transforms_pareto_with, apply_transforms_with, MegaCandidate, Origin, SearchConfig,
    SearchResult,
};
use fact_estim::{evaluate, evaluate_analyzed, evaluate_power_mode, markov_of, Estimate};
use fact_ir::{operand_swap_of, prove_equivalent, Equivalence, Function};
use fact_sched::{
    Allocation, FuLibrary, SchedOptions, ScheduleError, ScheduleMemo, SchedulePlan, ScheduleReport,
    ScheduleResult, SelectionRules,
};
use fact_sim::{execute, simulate, BranchProfile, CompiledFn, ProfileCounts, StepBound, TraceSet};
use fact_xform::{Region, TransformKind, TransformLibrary};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of a FACT run.
#[derive(Clone, Debug)]
pub struct FactConfig {
    /// Objective to optimize.
    pub objective: Objective,
    /// Scheduler options (clock period, scheduler transformations).
    pub sched: SchedOptions,
    /// Search knobs.
    pub search: SearchConfig,
    /// Partitioning knobs.
    pub partition: PartitionConfig,
    /// Optimize at most this many STG blocks (hottest first).
    pub max_blocks: usize,
    /// Frontier knobs for [`Objective::Pareto`] runs (ignored by the
    /// single-objective drivers).
    pub pareto: ParetoConfig,
}

impl Default for FactConfig {
    fn default() -> Self {
        FactConfig {
            objective: Objective::Throughput,
            sched: SchedOptions::default(),
            search: SearchConfig::default(),
            partition: PartitionConfig::default(),
            max_blocks: 3,
            pareto: ParetoConfig::default(),
        }
    }
}

/// Knobs of the Pareto frontier exploration ([`optimize_pareto`]).
#[derive(Clone, Debug)]
pub struct ParetoConfig {
    /// Nondominated-archive capacity: beyond it the most crowded interior
    /// point is pruned (extremes are never dropped).
    pub archive_capacity: usize,
    /// Vdd samples per archived design when expanding each structural
    /// point into its voltage-parameterized curve segment.
    pub vdd_steps: usize,
}

impl Default for ParetoConfig {
    fn default() -> Self {
        ParetoConfig {
            archive_capacity: 32,
            vdd_steps: 8,
        }
    }
}

/// The result of a FACT run.
#[derive(Clone, Debug)]
pub struct FactResult {
    /// The optimized behavior.
    pub best: Function,
    /// Its schedule.
    pub schedule: ScheduleResult,
    /// Its estimate (power mode: at the scaled voltage).
    pub estimate: Estimate,
    /// The untransformed design's estimate (the comparison base).
    pub baseline: Estimate,
    /// Transformation steps on the winning path, per optimized block.
    pub applied: Vec<String>,
    /// Total candidates evaluated by the search (cache hits included:
    /// the count is a property of the search trajectory, not of how the
    /// scores were obtained, so it is identical warm or cold).
    pub evaluated: usize,
    /// Number of STG blocks optimized.
    pub blocks_optimized: usize,
    /// Candidate evaluations answered by the shared [`EvalCache`]
    /// (0 when the run was not given a cache).
    pub cache_hits: usize,
    /// Schedules whose plan was built with every block list-scheduled
    /// from scratch — no memoized block fragment was spliced in.
    pub full_reschedules: usize,
    /// Schedules that reused at least one block schedule instead of
    /// re-running list scheduling: their plan was built splicing a
    /// memoized per-block fragment, or came from the shared cache whole
    /// (every block reused; [`FactResult::plans_memoized`]).
    pub block_spliced: usize,
    /// Schedules whose profile-independent half, the design's
    /// [`SchedulePlan`], came from the shared cache (DESIGN §10.6; 0
    /// without a cache).
    pub plans_memoized: u64,
    /// Schedule plans built: one per schedule without a cache, one per
    /// design and scheduling context the shared cache does not hold with
    /// one.
    pub plans_built: u64,
    /// Trace vectors of the profile passes inside the search (logical
    /// vectors, so a deduplicated lane of multiplicity *k* counts *k*):
    /// those over parents and search inputs the shared cache answered
    /// ([`CandidateCounts::parents_profiled`]). No candidate is
    /// simulated, and the baseline and final profiles are not counted.
    pub sim_vectors: u64,
    /// The profile passes inside the search:
    /// [`CandidateCounts::parents_profiled`].
    pub sim_engine_scalar: u64,
    /// Always 0: there is one simulator. Kept, with `sim_engine_scalar`,
    /// while the end-to-end benchmark's `sim.batched_share` reads them.
    pub sim_engine_batched: u64,
    /// Whole-neighborhood dispatches evaluated (one per search move,
    /// plus one per scored search input).
    pub neighborhood_batches: u64,
    /// Simulation lanes of the profile passes inside the search
    /// ([`fact_sim::Simulation::lanes`]).
    pub mega_lanes: u64,
    /// Candidates handed to neighborhood dispatches (cache hits included).
    pub mega_candidates: u64,
    /// How the candidates the cache did not answer were evaluated:
    /// inherited from their parent (operand swaps), proved equivalent to
    /// their parent, derived from its counts, or rejected unproved.
    pub candidates: CandidateCounts,
    /// Parent expansions the shared cache's expansion memo answered
    /// without building a candidate (DESIGN §10.5; 0 without a cache).
    pub neighborhoods_memoized: u64,
    /// Transformations run to build candidates: every transformation of
    /// the library on a memo miss, one for each transformation whose
    /// outputs the evaluator read from a memoized parent, and one for
    /// each design rebuilt through its path (a region's winner, or an
    /// unbuilt parent). A repeated job builds only along its winners'
    /// paths.
    pub neighborhoods_built: u64,
    /// Candidates whose operand-swap or proof verdict came from their
    /// expansion record rather than from running the check (DESIGN
    /// §10.5). Counted once per candidate; always 0 without a cache,
    /// whose records each run keeps to itself.
    pub verdicts_memoized: u64,
    /// `true` when the run was cut short by cancellation or timeout;
    /// the result is the best of what was explored.
    pub stopped: bool,
}

/// Candidate evaluations by where their branch profile came from, per
/// [`TransformKind`] (indexed by [`TransformKind::index`]).
///
/// A candidate that [`fact_ir::operand_swap_of`] shows only exchanges the
/// operands of one commutative op (or mirrors one comparison) of a
/// parent this run profiled and scored is neither proved, scheduled nor
/// estimated: it takes the parent's profile and estimate (*inherited*,
/// DESIGN §8.5.2). A candidate [`fact_ir::prove_equivalent`] shows
/// equivalent to a parent this run profiled takes the corresponding path
/// on every vector: a rewrite that keeps the control-flow graph reuses
/// the parent's profile (*proved*), and a loop unrolled by 2 or split by
/// fission gets its profile from the parent's counts (*derived*,
/// [`ProfileCounts::mapped`]). Every other candidate is rejected
/// (*unproved*): nothing in the search checks equivalence by simulation.
/// A parent, or a search input, the run has no profile of — the shared
/// cache answered it — is profiled once first (*parents profiled*).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateCounts {
    /// Operand swaps that took their parent's profile and estimate, per
    /// kind.
    pub inherited: [u64; TransformKind::ALL.len()],
    /// Candidates proved equivalent to their parent that reused its
    /// profile, per kind.
    pub proved: [u64; TransformKind::ALL.len()],
    /// Unrolled or fissioned candidates proved equivalent to their
    /// parent whose profile was derived from the parent's counts, per
    /// kind.
    pub derived: [u64; TransformKind::ALL.len()],
    /// Candidates rejected, per kind: not proved equivalent to their
    /// parent, their step bound could exceed the step limit, their
    /// profile could not be derived, or their parent's profile pass ran
    /// into the step limit.
    pub unproved: [u64; TransformKind::ALL.len()],
    /// Search inputs, scored from the profile the run has of them.
    pub proved_inputs: u64,
    /// Parents and search inputs the run profiled inside the search,
    /// because the shared cache had answered them (one pass each).
    pub parents_profiled: u64,
}

impl CandidateCounts {
    /// Candidates that inherited their parent's evaluation, over every
    /// kind.
    pub fn inherited_total(&self) -> u64 {
        self.inherited.iter().sum()
    }

    /// Candidates proved and reusing a profile, over every kind, search
    /// inputs included.
    pub fn proved_total(&self) -> u64 {
        self.proved.iter().sum::<u64>() + self.proved_inputs
    }

    /// Candidates whose profile was derived, over every kind.
    pub fn derived_total(&self) -> u64 {
        self.derived.iter().sum()
    }

    /// Candidates rejected unproved, over every kind.
    pub fn unproved_total(&self) -> u64 {
        self.unproved.iter().sum()
    }
}

/// Wall-clock phase accounting of a run, accumulated in nanoseconds
/// across all worker threads (so a phase's total can exceed the run's
/// wall time when `search.threads > 1`). The phases are disjoint: set-up
/// is charged to `setup_ns` alone, and each candidate's work to the
/// phase it ran in. Wired in through [`OptimizeHooks::timers`]; the
/// benchmark harness uses it to attribute search throughput to set-up,
/// building candidates, expansion, proving, deriving, profiling parents
/// the cache answered, and estimation.
#[derive(Debug, Default)]
pub struct PhaseTimers {
    /// Time outside the search: the run's set-up (the input's profile
    /// pass, its schedule, Markov analysis and estimate, and the
    /// partition into regions) and the winner's final profile and
    /// re-estimate.
    pub setup_ns: AtomicU64,
    /// Time compiling the parents and search inputs profiled inside the
    /// search ([`CompiledFn::compile`];
    /// [`CandidateCounts::parents_profiled`]).
    pub compile_ns: AtomicU64,
    /// Time proving candidates equivalent to their parents
    /// ([`fact_ir::prove_equivalent`] and [`fact_ir::operand_swap_of`]),
    /// proved or not. A check whose verdict the candidate's expansion
    /// record already holds is not run, and costs nothing here.
    pub prove_ns: AtomicU64,
    /// Time deriving unrolled and fissioned candidates' profiles from
    /// their parents' counts ([`ProfileCounts::mapped`]).
    pub derive_ns: AtomicU64,
    /// Time inside [`simulate`] profiling the parents and search inputs
    /// compiled for `compile_ns`.
    pub simulate_ns: AtomicU64,
    /// Time scheduling and estimating candidates (list scheduling, Markov
    /// solves, power/latency evaluation).
    pub estimate_ns: AtomicU64,
    /// The scheduling share of `estimate_ns`: looking up or building
    /// each candidate's [`SchedulePlan`] and weighting it with the
    /// candidate's profile. `estimate_ns - schedule_ns` is the Markov and
    /// power time.
    pub schedule_ns: AtomicU64,
    /// The plan-building share of `schedule_ns` ([`SchedulePlan::build`]
    /// for the designs whose plan the shared cache does not hold);
    /// `schedule_ns - plan_ns` is the per-trace weighting and the plan
    /// lookups (DESIGN §10.6).
    pub plan_ns: AtomicU64,
    /// Time building candidate functions: expanding parents through the
    /// transformation library, and replaying one transformation to build
    /// a design through its path — wherever it happens, in the search's
    /// stage 1, for a region's winner, or inside the evaluator when it
    /// reads a function the expansion memo left unbuilt.
    pub build_ns: AtomicU64,
    /// Search time outside the neighborhood evaluator and outside
    /// building: the wall time of every region search minus the time
    /// inside its evaluator and the search's own `build_ns`. That is
    /// stage 1 (memo lookups, structural hashes, dedup) plus stage 3
    /// (select).
    pub expand_ns: AtomicU64,
}

/// Charges search-call wall time minus evaluator and build time to
/// [`PhaseTimers::expand_ns`], and build time to
/// [`PhaseTimers::build_ns`]. Does nothing without timers.
struct ExpandClock<'a> {
    timers: Option<&'a PhaseTimers>,
    ledger: &'a BuildLedger,
    /// Evaluator time of the search call in progress.
    eval_ns: AtomicU64,
}

impl<'a> ExpandClock<'a> {
    fn new(timers: Option<&'a PhaseTimers>, ledger: &'a BuildLedger) -> Self {
        ExpandClock {
            timers,
            ledger,
            eval_ns: AtomicU64::new(0),
        }
    }

    /// Runs one neighborhood evaluation.
    fn evaluate<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.timers {
            Some(_) => {
                let start = std::time::Instant::now();
                let out = f();
                self.eval_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                out
            }
            None => f(),
        }
    }

    /// Runs one search call.
    fn search<T>(&self, f: impl FnOnce() -> T) -> T {
        match self.timers {
            Some(t) => {
                let start = std::time::Instant::now();
                let out = f();
                let wall = start.elapsed().as_nanos() as u64;
                let eval = self.eval_ns.swap(0, Ordering::Relaxed);
                // Builds the evaluator ran are inside `eval` already.
                let built = self.ledger.take_ns(Sink::Search);
                t.build_ns
                    .fetch_add(built + self.ledger.take_ns(Sink::Eval), Ordering::Relaxed);
                t.expand_ns.fetch_add(
                    wall.saturating_sub(eval).saturating_sub(built),
                    Ordering::Relaxed,
                );
                out
            }
            None => f(),
        }
    }
}

/// Optional cross-cutting machinery for a FACT run: the shared
/// evaluation cache and a cooperative cancellation flag. `Default`
/// gives a plain standalone run (no cache, never cancelled).
#[derive(Clone, Copy, Default)]
pub struct OptimizeHooks<'a> {
    /// Memoizes candidate evaluations within and across runs. The cache
    /// may be shared freely between concurrent jobs: entries are keyed
    /// by candidate structure *and* the full evaluation context.
    pub cache: Option<&'a EvalCache>,
    /// Set to `true` (by a timeout watchdog or a client disconnect) to
    /// make the run wind down at the next evaluation boundary.
    pub stop: Option<&'a AtomicBool>,
    /// When present, receives the set-up/build/expand/prove/estimate
    /// wall-time breakdown of the run. `None` skips all timing calls.
    pub timers: Option<&'a PhaseTimers>,
}

/// FACT failure.
#[derive(Debug)]
pub enum FactError {
    /// The original behavior failed to schedule.
    Schedule(ScheduleError),
    /// No trace vector ran to completion on the original behavior (the
    /// message names how many failed and the first error), or its STG
    /// failed Markov analysis.
    Analysis(String),
}

impl fmt::Display for FactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            FactError::Analysis(m) => write!(f, "analysis failed: {m}"),
        }
    }
}

impl std::error::Error for FactError {}

/// Per-run incremental-evaluation machinery, shared by every candidate
/// evaluation of one run (including across worker threads — all members
/// are `Sync`): schedule plans, memoized schedule fragments and the work
/// counters [`FactResult`] reports.
struct IncrementalCtx<'a> {
    library: &'a FuLibrary,
    rules: &'a SelectionRules,
    alloc: &'a Allocation,
    opts: &'a SchedOptions,
    /// The shared cache, which holds plans across runs.
    cache: Option<&'a EvalCache>,
    /// Scheduling half of every plan key ([`schedule_context_key`]).
    plan_context: u64,
    /// Per-block list-schedule fragments keyed by structural hash, for
    /// the plans this run builds.
    sched: ScheduleMemo,
    /// Schedules computed with no memoized fragment spliced in.
    full_reschedules: AtomicUsize,
    /// Schedules that reused at least one block schedule.
    block_spliced: AtomicUsize,
    /// Schedules whose plan came from the shared cache.
    plans_memoized: AtomicU64,
    /// Plans built.
    plans_built: AtomicU64,
    /// Trace vectors profiled inside the search so far (shared across
    /// worker threads; [`FactResult::sim_vectors`]).
    sim_vectors: AtomicU64,
    /// Phase wall-time sinks from [`OptimizeHooks::timers`].
    timers: Option<&'a PhaseTimers>,
    /// Neighborhood dispatch accounting.
    mega: MegaCounters,
}

/// Counters of neighborhood dispatch (see
/// [`FactResult::neighborhood_batches`] and friends).
#[derive(Default)]
struct MegaCounters {
    batches: AtomicU64,
    lanes: AtomicU64,
    candidates: AtomicU64,
}

/// Runs `f`, charging its wall time to `slot(timers)` when timers are
/// wired in. Times are accumulated with relaxed atomics — per-phase sums
/// are exact, only cross-phase snapshots are unordered.
fn timed<T>(
    timers: Option<&PhaseTimers>,
    slot: fn(&PhaseTimers) -> &AtomicU64,
    f: impl FnOnce() -> T,
) -> T {
    match timers {
        Some(t) => {
            let start = std::time::Instant::now();
            let out = f();
            slot(t).fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            out
        }
        None => f(),
    }
}

/// Runs `f`, charging its wall time to `timers`' `estimate_ns` and its
/// `schedule_ns` share.
fn scheduling<T>(timers: Option<&PhaseTimers>, f: impl FnOnce() -> T) -> T {
    timed(
        timers,
        |t| &t.estimate_ns,
        || timed(timers, |t| &t.schedule_ns, f),
    )
}

/// The profile pass of `g` over `traces`: one compiled [`simulate`]
/// call. The only simulation of a run: the input at set-up, a parent or
/// search input the shared cache answered ([`Run::profiled_in_search`],
/// which passes `timers`), and the winner's final re-estimate when the
/// run never profiled it.
fn profile_pass(
    g: &Function,
    traces: &TraceSet,
    timers: Option<&PhaseTimers>,
) -> fact_sim::Simulation {
    let cf = timed(timers, |t| &t.compile_ns, || CompiledFn::compile(g));
    timed(timers, |t| &t.simulate_ns, || simulate(&cf, traces))
}

/// What a run knows about a function it profiled: the branch profile,
/// the counts it came from, and the most work one lane did.
#[derive(Clone)]
struct Profiled {
    profile: Arc<BranchProfile>,
    counts: Arc<ProfileCounts>,
    steps: StepBound,
}

impl Profiled {
    /// The profile `sim` observed, and — unless some lane ran into the
    /// step limit — what a child may reuse or derive from it.
    fn of(sim: fact_sim::Simulation) -> (Arc<BranchProfile>, Option<Profiled>) {
        let profile = Arc::new(sim.profile);
        let known = sim.steps.map(|steps| Profiled {
            profile: profile.clone(),
            counts: Arc::new(sim.counts),
            steps,
        });
        (profile, known)
    }
}

impl<'a> IncrementalCtx<'a> {
    fn new(
        library: &'a FuLibrary,
        rules: &'a SelectionRules,
        alloc: &'a Allocation,
        opts: &'a SchedOptions,
        hooks: OptimizeHooks<'a>,
    ) -> IncrementalCtx<'a> {
        IncrementalCtx {
            library,
            rules,
            alloc,
            opts,
            cache: hooks.cache,
            plan_context: schedule_context_key(library, rules, alloc, opts),
            sched: ScheduleMemo::default(),
            full_reschedules: AtomicUsize::new(0),
            block_spliced: AtomicUsize::new(0),
            plans_memoized: AtomicU64::new(0),
            plans_built: AtomicU64::new(0),
            sim_vectors: AtomicU64::new(0),
            timers: hooks.timers,
            mega: MegaCounters::default(),
        }
    }

    /// Schedules `f` under `prof`: its plan (DESIGN §10.6), weighted
    /// with `prof`. The plan is keyed by `f`'s exact identity
    /// ([`exact_hash`]) in the scheduling context: the shared cache's
    /// when it holds one, else built and stored. The time goes to
    /// `timers`' `estimate_ns` and `schedule_ns`, a build's to `plan_ns`
    /// as well.
    fn schedule(
        &self,
        f: &Function,
        prof: &BranchProfile,
        timers: Option<&PhaseTimers>,
    ) -> Result<ScheduleResult, ScheduleError> {
        let (plan, held) = self.plan(f, timers);
        let sr = match &*plan {
            Ok(plan) => scheduling(timers, || plan.weight(f, prof))?,
            Err(e) => return Err(e.clone()),
        };
        self.note_schedule(&sr.report, held);
        Ok(sr)
    }

    /// The plan of `f` for [`IncrementalCtx::schedule`]; the flag is
    /// `true` when it came from the cache.
    fn plan(&self, f: &Function, timers: Option<&PhaseTimers>) -> (PlanOutcome, bool) {
        let slot = self.cache.map(|cache| {
            scheduling(timers, || {
                let key = ContextHasher::new(self.plan_context)
                    .write_u64(exact_hash(f))
                    .finish();
                (cache, key, cache.plans().get(key))
            })
        });
        if let Some((_, _, Some(held))) = slot {
            self.plans_memoized.fetch_add(1, Ordering::Relaxed);
            return (held, true);
        }
        let built = Arc::new(scheduling(timers, || {
            timed(
                timers,
                |t| &t.plan_ns,
                || {
                    SchedulePlan::build(
                        f,
                        self.library,
                        self.rules,
                        self.alloc,
                        self.opts,
                        Some(&self.sched),
                    )
                },
            )
        }));
        self.plans_built.fetch_add(1, Ordering::Relaxed);
        if let Some((cache, key, _)) = slot {
            cache.plans().insert(key, built.clone(), 1);
        }
        (built, false)
    }

    /// Classifies one completed schedule as spliced or from-scratch: one
    /// whose plan came from the cache (`held`) reused every block
    /// schedule, one whose plan was built reused those its memo hits
    /// name.
    fn note_schedule(&self, report: &ScheduleReport, held: bool) {
        if held || report.memo_hits > 0 {
            self.block_spliced.fetch_add(1, Ordering::Relaxed);
        } else {
            self.full_reschedules.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A score the shared [`EvalCache`] can hold under a candidate's key: one
/// slot for a scalar objective, two salted slots for an (energy,
/// latency) pair (the cache stores one `f64` per key).
trait Cacheable: Sized {
    /// The cached score under `key`, or `eval`'s result, stored. The
    /// flag is `true` on a cache hit.
    fn cached(
        cache: &EvalCache,
        key: u64,
        eval: impl FnOnce() -> Option<Self>,
    ) -> (Option<Self>, bool);
}

impl Cacheable for f64 {
    fn cached(
        cache: &EvalCache,
        key: u64,
        eval: impl FnOnce() -> Option<f64>,
    ) -> (Option<f64>, bool) {
        cache.get_or_eval(key, eval)
    }
}

impl Cacheable for (f64, f64) {
    /// Energy under salt 1, latency under salt 2.
    fn cached(
        cache: &EvalCache,
        key: u64,
        eval: impl FnOnce() -> Option<(f64, f64)>,
    ) -> (Option<(f64, f64)>, bool) {
        let ke = ContextHasher::new(key).write_u64(1).finish();
        let kl = ContextHasher::new(key).write_u64(2).finish();
        if let (Some(e), Some(l)) = (cache.lookup(ke), cache.lookup(kl)) {
            return (e.zip(l), true);
        }
        let pair = eval();
        cache.insert(ke, pair.map(|(e, _)| e));
        cache.insert(kl, pair.map(|(_, l)| l));
        (pair, false)
    }
}

/// One run of either driver: its inputs, the incremental machinery, the
/// input's baseline, and the regions the search visits. `Sync`, so
/// neighborhood workers score candidates through a shared `&Run`.
struct Run<'a> {
    library: &'a FuLibrary,
    traces: &'a TraceSet,
    config: &'a FactConfig,
    hooks: OptimizeHooks<'a>,
    ctx: IncrementalCtx<'a>,
    /// The input's average schedule length (power mode's time bound).
    base_cycles: f64,
    /// The input's estimate.
    baseline: Estimate,
    /// Search regions, hottest STG block first.
    regions: Vec<Region>,
    /// Context half of every candidate's [`EvalCache`] key.
    context_key: u64,
    cache_hits: AtomicUsize,
    /// What the run knows of every function it profiled, proved or
    /// derived, by structural hash (the input included): what a child
    /// proved equivalent to one reuses or derives its profile from.
    profiles: Mutex<HashMap<u64, Profiled>>,
    /// The estimate of every function the run scored, by structural
    /// hash: what an operand swap of one inherits.
    scores: Mutex<HashMap<u64, Estimate>>,
    /// Held while a parent the run has no profile of is profiled, so
    /// each is profiled once; the set holds the parents whose pass ran
    /// into the step limit, which leave nothing to reuse.
    profiling: Mutex<HashSet<u64>>,
    /// Inherited, proved, derived and unproved candidates.
    candidates: Mutex<CandidateCounts>,
    /// Candidate construction: counts, and times when timers are wired.
    ledger: BuildLedger,
    /// Candidates whose swap or proof verdict came from their record
    /// ([`FactResult::verdicts_memoized`]).
    verdicts_memoized: AtomicU64,
}

impl<'a> Run<'a> {
    /// Steps 1-2 of Figure 5: schedule and estimate the input (through
    /// the memo, so the baseline's block fragments are already warm for
    /// candidates that leave blocks untouched), then partition its STG
    /// into search regions, hottest first.
    #[allow(clippy::too_many_arguments)]
    fn new(
        f: &'a Function,
        library: &'a FuLibrary,
        rules: &'a SelectionRules,
        alloc: &'a Allocation,
        traces: &'a TraceSet,
        config: &'a FactConfig,
        hooks: OptimizeHooks<'a>,
    ) -> Result<Run<'a>, FactError> {
        let ctx = IncrementalCtx::new(library, rules, alloc, &config.sched, hooks);
        let (prof, known) = Profiled::of(profile_pass(f, traces, None));
        if prof.runs_ok == 0 {
            // Nothing can be estimated from a profile without a single
            // completed vector: fail now, not after a search in which
            // every candidate is rejected.
            let first = traces.vectors.iter().find_map(|v| execute(f, v).err());
            return Err(FactError::Analysis(format!(
                "no trace vector ran to completion ({} of {} failed{})",
                prof.runs_failed,
                traces.vectors.len(),
                first.map_or(String::new(), |e| format!("; first error: {e}"))
            )));
        }
        // Seeded into the profile map, as a search input would be.
        let profiles = known.map(|k| (structural_hash(f), k)).into_iter().collect();
        let sr0 = ctx.schedule(f, &prof, None).map_err(FactError::Schedule)?;
        let markov0 = markov_of(&sr0).map_err(FactError::Analysis)?;
        let baseline = evaluate_analyzed(&sr0, &markov0, library, config.sched.clock_ns);
        let blocks = partition(&sr0.stg, &markov0, &config.partition);
        let regions = if blocks.is_empty() {
            vec![Region::whole()]
        } else {
            blocks
                .iter()
                .take(config.max_blocks)
                .map(|b| region_of_block(f, &sr0, b))
                .collect()
        };
        Ok(Run {
            library,
            traces,
            config,
            hooks,
            ctx,
            base_cycles: markov0.average_schedule_length,
            baseline,
            regions,
            context_key: evaluation_context_key(f, alloc, traces, config),
            cache_hits: AtomicUsize::new(0),
            profiles: Mutex::new(profiles),
            scores: Mutex::new(HashMap::new()),
            profiling: Mutex::new(HashSet::new()),
            candidates: Mutex::new(CandidateCounts::default()),
            ledger: match hooks.timers {
                Some(_) => BuildLedger::timed(),
                None => BuildLedger::default(),
            },
            verdicts_memoized: AtomicU64::new(0),
        })
    }

    /// How this run's searches expand their parents: through the shared
    /// cache's expansion memo when there is a cache.
    fn expander(&self) -> Expander<'_> {
        Expander {
            memo: self.hooks.cache.map(EvalCache::expansions),
            ledger: &self.ledger,
        }
    }

    /// Whether the run has been asked to wind down.
    fn stopped(&self) -> bool {
        self.hooks.stop.is_some_and(|s| s.load(Ordering::Relaxed))
    }

    /// Schedules ([`IncrementalCtx::schedule`]) and estimates `g` under
    /// `prof`; the time goes to `timers`' estimation phases. `None` when
    /// `g` cannot be realized
    /// under the allocation (e.g. a strength-reduced shift with no
    /// shifter), or — in power mode — is slower than the baseline.
    fn estimate(
        &self,
        g: &Function,
        prof: &BranchProfile,
        timers: Option<&PhaseTimers>,
    ) -> Option<(ScheduleResult, Estimate)> {
        if prof.runs_ok == 0 {
            return None;
        }
        let (config, library) = (self.config, self.library);
        let sr = self.ctx.schedule(g, prof, timers).ok()?;
        timed(
            timers,
            |t| &t.estimate_ns,
            || {
                let est = match config.objective {
                    // Pareto mode estimates at the reference voltage too: the archive
                    // lives in (energy_vdd2, latency) space and voltage becomes a
                    // knob only when the frontier is expanded ([`sweep_vdd`]).
                    Objective::Throughput | Objective::Pareto => {
                        evaluate(&sr, library, config.sched.clock_ns).ok()?
                    }
                    Objective::Power => {
                        let est = evaluate_power_mode(
                            &sr,
                            library,
                            config.sched.clock_ns,
                            self.base_cycles,
                        )
                        .ok()?;
                        // The paper's power mode holds performance at the baseline
                        // ("our aim is to keep the performance … the same while
                        // reducing power"): slower candidates are not admissible, or
                        // the energy/time quotient would reward mere slowdown.
                        if est.average_schedule_length > self.base_cycles * 1.001 {
                            return None;
                        }
                        est
                    }
                };
                Some((sr, est))
            },
        )
    }

    /// The candidate evaluation: the candidate's branch profile, then
    /// schedule + estimate. `None` marks a rejected candidate (unproved,
    /// unschedulable under the allocation, or — in power mode — slower
    /// than the baseline).
    ///
    /// A search input is scored from the profile the run has of it,
    /// profiling it first when the shared cache answered it. A child goes
    /// through [`Run::child_estimate`].
    fn checked_estimate(&self, cand: &MegaCandidate<'_>) -> Option<Estimate> {
        let Some(origin) = cand.origin else {
            let f = cand.function();
            debug_assert_eq!(cand.hash, structural_hash(f));
            let prof = match self.profiled(cand.hash) {
                Some(known) => known.profile,
                None => self.profiled_in_search(f, cand.hash).0,
            };
            self.count(|c| c.proved_inputs += 1);
            return self.scored(f, cand.hash, &prof);
        };
        let verdicts = cand
            .verdicts()
            .expect("every child is made from an expansion record");
        let mut recalled = false;
        let est = self.child_estimate(cand, origin, verdicts, &mut recalled);
        if recalled {
            self.verdicts_memoized.fetch_add(1, Ordering::Relaxed);
        }
        est
    }

    /// A child's evaluation. An operand swap of a parent the run scored
    /// inherits the parent's estimate ([`Run::inherited_estimate`])
    /// without being built. Otherwise the child must be proved equivalent
    /// to its parent, which the run profiles first if the shared cache
    /// answered it ([`Run::parent_profile`]), and its profile comes from
    /// [`Run::proved_profile`]; an unproved child is rejected. Every
    /// check's verdict is read from, or written to, the child's record;
    /// `recalled` is set when one was read.
    fn child_estimate(
        &self,
        cand: &MegaCandidate<'_>,
        origin: Origin<'_>,
        verdicts: &Verdicts,
        recalled: &mut bool,
    ) -> Option<Estimate> {
        let kind = origin.kind.index();
        let Some(parent) = self.parent_profile(origin) else {
            self.count(|c| c.unproved[kind] += 1);
            return None;
        };
        if let Some(est) = self.inherited_estimate(cand, origin, &parent, verdicts, recalled) {
            return Some(est);
        }
        // Built here, outside every phase timer: building is charged to
        // `build_ns` alone.
        let f = cand.function();
        debug_assert_eq!(cand.hash, structural_hash(f));
        let (proof, stored) = verdicts.proof(|| {
            let (p, map) = (origin.parent(), cand.map());
            timed(
                self.ctx.timers,
                |t| &t.prove_ns,
                || prove_equivalent(p, f, map),
            )
        });
        *recalled |= stored;
        let Some(prof) = self.proved_profile(f, cand, parent, proof) else {
            self.count(|c| c.unproved[kind] += 1);
            return None;
        };
        let derived = cand.map().is_some();
        self.count(|c| match derived {
            false => c.proved[kind] += 1,
            true => c.derived[kind] += 1,
        });
        self.scored(f, cand.hash, &prof)
    }

    /// What the run knows of `origin`'s parent: its own profile, or —
    /// when the shared cache answered the parent, so the run never
    /// profiled it — one taken now. `None` when that pass ran into the
    /// step limit, which leaves nothing a child may reuse.
    fn parent_profile(&self, origin: Origin<'_>) -> Option<Profiled> {
        if let Some(known) = self.profiled(origin.parent_hash) {
            return Some(known);
        }
        let mut limited = self
            .profiling
            .lock()
            .expect("no evaluation panics while profiling a parent");
        if let Some(known) = self.profiled(origin.parent_hash) {
            return Some(known); // another worker profiled it meanwhile
        }
        if limited.contains(&origin.parent_hash) {
            return None;
        }
        let known = self
            .profiled_in_search(origin.parent(), origin.parent_hash)
            .1;
        if known.is_none() {
            limited.insert(origin.parent_hash);
        }
        known
    }

    /// Profiles `f` (structural hash `hash`), a parent or search input
    /// the shared cache answered, counting the pass in the run's
    /// [`CandidateCounts::parents_profiled`] and simulation counters and
    /// its time in `compile_ns` and `simulate_ns`; what a child may reuse
    /// goes into the profile map.
    fn profiled_in_search(
        &self,
        f: &Function,
        hash: u64,
    ) -> (Arc<BranchProfile>, Option<Profiled>) {
        let ctx = &self.ctx;
        let sim = profile_pass(f, self.traces, ctx.timers);
        ctx.sim_vectors.fetch_add(sim.vectors, Ordering::Relaxed);
        ctx.mega
            .lanes
            .fetch_add(sim.lanes as u64, Ordering::Relaxed);
        self.count(|c| c.parents_profiled += 1);
        let (prof, known) = Profiled::of(sim);
        if let Some(known) = &known {
            self.profiles
                .lock()
                .expect("no evaluation panics while holding the profile map")
                .insert(hash, known.clone());
        }
        (prof, known)
    }

    /// Schedules and estimates `f`, of structural hash `hash`, under
    /// `prof` ([`Run::estimate`]),
    /// remembering the estimate under `hash` for its operand swaps to
    /// inherit.
    fn scored(&self, f: &Function, hash: u64, prof: &BranchProfile) -> Option<Estimate> {
        let (_, est) = self.estimate(f, prof, self.ctx.timers)?;
        self.scores
            .lock()
            .expect("no evaluation panics while holding the score memo")
            .insert(hash, est.clone());
        Some(est)
    }

    /// The parent's estimate, when `cand` only exchanges the operands of
    /// one commutative op or mirrors one comparison of its parent
    /// ([`operand_swap_of`]) and the run profiled (`parent`) and scored
    /// that parent. The swap computes every value on every vector as the
    /// parent does, so its verdict, profile and step bound (grown by 0)
    /// are the parent's; and no dependence, unit choice or ready-list tie
    /// of its schedule sees the swap, so its estimate is the parent's,
    /// bit for bit (DESIGN §8.5.2). It is neither proved, scheduled nor
    /// estimated — and, when its record holds the swap verdict, not even
    /// built.
    fn inherited_estimate(
        &self,
        cand: &MegaCandidate<'_>,
        origin: Origin<'_>,
        parent: &Profiled,
        verdicts: &Verdicts,
        recalled: &mut bool,
    ) -> Option<Estimate> {
        let est = self
            .scores
            .lock()
            .expect("no evaluation panics while holding the score memo")
            .get(&origin.parent_hash)
            .cloned()?;
        let (swap, stored) = verdicts.swap(|| {
            let (p, f) = (origin.parent(), cand.function());
            timed(
                self.ctx.timers,
                |t| &t.prove_ns,
                || operand_swap_of(p, f).is_some(),
            )
        });
        *recalled |= stored;
        if !swap {
            return None;
        }
        let steps = parent.steps.grown(0, 1)?;
        self.profiles
            .lock()
            .expect("no evaluation panics while holding the profile map")
            .insert(
                cand.hash,
                Profiled {
                    steps,
                    ..parent.clone()
                },
            );
        self.scores
            .lock()
            .expect("no evaluation panics while holding the score memo")
            .insert(cand.hash, est.clone());
        self.count(|c| c.inherited[origin.kind.index()] += 1);
        Some(est)
    }

    /// What the run knows of the function with structural hash `hash`.
    fn profiled(&self, hash: u64) -> Option<Profiled> {
        self.profiles
            .lock()
            .expect("no evaluation panics while holding the profile map")
            .get(&hash)
            .cloned()
    }

    /// Tallies one candidate evaluation.
    fn count(&self, tally: impl FnOnce(&mut CandidateCounts)) {
        tally(
            &mut self
                .candidates
                .lock()
                .expect("no evaluation panics while holding the counts"),
        );
    }

    /// The profile of `f`, the child `cand` of a parent the run profiled
    /// (`parent`), given the proof of their equivalence; `None` without
    /// a proof, when its step bound could exceed the step limit, or when
    /// its profile cannot be derived.
    ///
    /// A child provably equivalent to its parent, that cannot run into
    /// the step limit on a lane where the parent did not, takes the
    /// corresponding path on every vector — so its profile is the
    /// parent's own for a rewrite that keeps the graph, or derived from
    /// the parent's counts for a loop unrolled by 2 or split by fission.
    fn proved_profile(
        &self,
        f: &Function,
        cand: &MegaCandidate<'_>,
        parent: Profiled,
        proof: Option<Equivalence>,
    ) -> Option<Arc<BranchProfile>> {
        let proof = proof?;
        let steps = parent.steps.grown(proof.block_growth, proof.entry_copies)?;
        let known = match cand.map() {
            None => Profiled { steps, ..parent },
            Some(map) => timed(
                self.ctx.timers,
                |t| &t.derive_ns,
                || {
                    let counts = parent.counts.mapped(map, f.num_blocks())?;
                    Some(Profiled {
                        profile: Arc::new(counts.profile()),
                        counts: Arc::new(counts),
                        steps,
                    })
                },
            )?,
        };
        self.profiles
            .lock()
            .expect("no evaluation panics while holding the profile map")
            .insert(cand.hash, known.clone());
        Some(known.profile)
    }

    /// Evaluates one search neighborhood (the whole deduplicated
    /// candidate frontier of a move) as a single dispatch. Candidates are
    /// scored by `config.search.threads` workers (one is the sequential
    /// case), and results land in their candidate's slot — so the
    /// returned vector, and therefore the search trajectory, is identical
    /// for any thread count.
    fn evaluate_neighborhood<S: Send>(
        &self,
        batch: &[MegaCandidate<'_>],
        eval_one: &(dyn Fn(&MegaCandidate<'_>) -> Option<S> + Sync),
    ) -> Vec<Option<S>> {
        let mega = &self.ctx.mega;
        mega.batches.fetch_add(1, Ordering::Relaxed);
        mega.candidates
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let workers = self.config.search.threads.max(1).min(batch.len());
        if workers <= 1 {
            return batch
                .iter()
                .map(|cand| if self.stopped() { None } else { eval_one(cand) })
                .collect();
        }
        // Work-stealing over candidate indices: assignment order never
        // affects which slot a result lands in.
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<S>> = Vec::with_capacity(batch.len());
        slots.resize_with(batch.len(), || None);
        let chunks: Vec<Vec<(usize, Option<S>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= batch.len() {
                                break;
                            }
                            if self.stopped() {
                                local.push((i, None));
                                continue;
                            }
                            local.push((i, eval_one(&batch[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("neighborhood worker panicked"))
                .collect()
        });
        for (i, s) in chunks.into_iter().flatten() {
            slots[i] = s;
        }
        slots
    }

    /// The search's neighborhood evaluator: every candidate's estimate,
    /// mapped to a score by `project`, answered from the shared
    /// [`EvalCache`] when one is wired in.
    fn score_neighborhood<S: Cacheable + Send>(
        &self,
        batch: &[MegaCandidate<'_>],
        project: &(dyn Fn(&Estimate) -> S + Sync),
    ) -> Vec<Option<S>> {
        let eval_one = |cand: &MegaCandidate<'_>| -> Option<S> {
            let score_of = || Some(project(&self.checked_estimate(cand)?));
            match self.hooks.cache {
                Some(cache) => {
                    // The hash rode in from stage-1 dedup instead of
                    // being recomputed here.
                    let key = ContextHasher::new(self.context_key)
                        .write_u64(cand.hash)
                        .finish();
                    let (score, hit) = S::cached(cache, key, score_of);
                    if hit {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    score
                }
                None => score_of(),
            }
        };
        self.evaluate_neighborhood(batch, &eval_one)
    }
}

/// A 64-bit key covering everything a candidate's score depends on
/// *besides* the candidate itself: allocation, objective, scheduler
/// options and input traces.
///
/// Combined with [`structural_hash`] of the candidate it forms the
/// [`EvalCache`] key, which is what makes one cache safely shareable
/// between jobs with different allocations, objectives, or traces.
pub fn evaluation_context_key(
    f: &Function,
    alloc: &Allocation,
    traces: &TraceSet,
    config: &FactConfig,
) -> u64 {
    let mut h = ContextHasher::new(0xFAC7_C0DE);
    // The original behavior anchors the context: power mode scores
    // against its baseline cycles.
    h.write_u64(structural_hash(f));
    h.write_u64(match config.objective {
        Objective::Throughput => 1,
        Objective::Power => 2,
        Objective::Pareto => 3,
    });
    h.write_f64(config.sched.clock_ns)
        .write_u64(config.sched.if_convert as u64)
        .write_u64(config.sched.rotate as u64)
        .write_u64(config.sched.pipeline as u64)
        .write_u64(config.sched.concurrent as u64);
    let mut pairs: Vec<(u32, u32)> = alloc.iter().map(|(fu, n)| (fu.0, n)).collect();
    pairs.sort_unstable();
    h.write_u64(pairs.len() as u64);
    for (fu, n) in pairs {
        h.write_u64(((fu as u64) << 32) | n as u64);
    }
    h.write_u64(traces.vectors.len() as u64);
    for v in &traces.vectors {
        let mut kvs: Vec<(&str, i64)> = v.iter().map(|(k, x)| (k.as_str(), *x)).collect();
        kvs.sort_unstable();
        for (k, x) in kvs {
            h.write_bytes(k.as_bytes()).write_i64(x);
        }
    }
    h.finish()
}

/// A 64-bit key covering everything a [`SchedulePlan`] depends on
/// besides the design: the unit library (every unit's specification and
/// the storage coefficients, `memory_delay_ns` among them), the
/// selection rules, the allocation, the clock and every scheduler flag.
/// Combined with a design's exact identity it keys the design's plan in
/// the shared [`EvalCache`] (DESIGN §10.6).
fn schedule_context_key(
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    opts: &SchedOptions,
) -> u64 {
    let mut h = ContextHasher::new(0xFAC7_91A2);
    // The three print every field, floats exactly, in a fixed order.
    h.write_bytes(format!("{library:?}\n{rules:?}\n{opts:?}").as_bytes());
    let mut pairs: Vec<(u32, u32)> = alloc.iter().map(|(fu, n)| (fu.0, n)).collect();
    pairs.sort_unstable();
    h.write_u64(pairs.len() as u64);
    for (fu, n) in pairs {
        h.write_u64(((fu as u64) << 32) | n as u64);
    }
    h.finish()
}

/// Runs FACT on `f`.
///
/// # Errors
/// Fails only if the *original* behavior cannot be scheduled or analyzed;
/// failing candidates are merely skipped.
pub fn optimize(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    tlib: &TransformLibrary,
    config: &FactConfig,
) -> Result<FactResult, FactError> {
    optimize_with(
        f,
        library,
        rules,
        alloc,
        traces,
        tlib,
        config,
        OptimizeHooks::default(),
    )
}

/// [`optimize`] with daemon hooks: a shared [`EvalCache`] and a
/// cooperative cancellation flag. This is the entry point `factd`'s
/// worker pool calls; `config.search.threads > 1` additionally fans each
/// move's candidate evaluations out across worker threads (results are
/// bit-identical to the sequential run for the same seed).
///
/// # Errors
/// Fails only if the *original* behavior cannot be scheduled or analyzed;
/// failing candidates are merely skipped.
#[allow(clippy::too_many_arguments)]
pub fn optimize_with(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    tlib: &TransformLibrary,
    config: &FactConfig,
    hooks: OptimizeHooks<'_>,
) -> Result<FactResult, FactError> {
    let run = timed(
        hooks.timers,
        |t| &t.setup_ns,
        || Run::new(f, library, rules, alloc, traces, config, hooks),
    )?;
    let clock = ExpandClock::new(hooks.timers, &run.ledger);
    let score = |batch: &[MegaCandidate<'_>]| {
        clock.evaluate(|| {
            run.score_neighborhood(batch, &|est: &Estimate| config.objective.score(est))
        })
    };

    // Steps 3-7: optimize each block by search; blocks share the evolving
    // incumbent so improvements compound.
    let mut current = f.clone();
    let mut applied: Vec<String> = Vec::new();
    let mut evaluated = 0usize;
    let mut blocks_optimized = 0usize;
    let mut stopped = false;
    for region in &run.regions {
        if run.stopped() {
            stopped = true;
            break;
        }
        let SearchResult {
            best,
            best_score,
            evaluated: n,
            applied: path,
            stopped: search_stopped,
            ..
        } = clock.search(|| {
            apply_transforms_with(
                &current,
                region,
                tlib,
                &config.search,
                &score,
                hooks.stop,
                run.expander(),
            )
        });
        evaluated += n;
        stopped |= search_stopped;
        if best_score > f64::NEG_INFINITY && !path.is_empty() {
            current = best;
            applied.extend(path);
            blocks_optimized += 1;
        } else if path.is_empty() {
            blocks_optimized += 1; // searched, nothing beat the incumbent
        }
    }

    // Final schedule + estimate of the winner, from the profile the run
    // already has for it when it has one.
    let ctx = &run.ctx;
    let (schedule_result, estimate) = timed(
        hooks.timers,
        |t| &t.setup_ns,
        || {
            let prof = match run.profiled(structural_hash(&current)) {
                Some(known) => known.profile,
                None => Arc::new(profile_pass(&current, traces, None).profile),
            };
            run.estimate(&current, &prof, None)
        },
    )
    .ok_or_else(|| FactError::Analysis("final candidate failed to schedule".to_string()))?;

    let candidates = *run.candidates.lock().expect("the search has finished");
    Ok(FactResult {
        best: current,
        schedule: schedule_result,
        estimate,
        baseline: run.baseline.clone(),
        applied,
        evaluated,
        blocks_optimized,
        cache_hits: run.cache_hits.load(Ordering::Relaxed),
        full_reschedules: ctx.full_reschedules.load(Ordering::Relaxed),
        block_spliced: ctx.block_spliced.load(Ordering::Relaxed),
        plans_memoized: ctx.plans_memoized.load(Ordering::Relaxed),
        plans_built: ctx.plans_built.load(Ordering::Relaxed),
        sim_vectors: ctx.sim_vectors.load(Ordering::Relaxed),
        sim_engine_scalar: candidates.parents_profiled,
        sim_engine_batched: 0,
        neighborhood_batches: ctx.mega.batches.load(Ordering::Relaxed),
        mega_lanes: ctx.mega.lanes.load(Ordering::Relaxed),
        mega_candidates: ctx.mega.candidates.load(Ordering::Relaxed),
        candidates,
        neighborhoods_memoized: run.ledger.memoized.load(Ordering::Relaxed),
        neighborhoods_built: run.ledger.built.load(Ordering::Relaxed),
        verdicts_memoized: run.verdicts_memoized.load(Ordering::Relaxed),
        stopped,
    })
}

/// One sample of the final energy–throughput tradeoff curve: a
/// transformed design point at a concrete supply voltage.
#[derive(Clone, Debug)]
pub struct ParetoDesignPoint {
    /// Energy per execution at [`ParetoDesignPoint::vdd`]
    /// (`energy_vdd2 · vdd²`).
    pub energy: f64,
    /// Effective latency in reference-clock equivalent cycles: the cycle
    /// count stretched by the slower gate delay at the scaled voltage.
    pub latency_cycles: f64,
    /// Supply voltage of this sample, V.
    pub vdd: f64,
    /// Average power: `energy / (latency_cycles · clock_ns)`.
    pub power: f64,
    /// The design's energy coefficient (energy at 1 V², voltage-free).
    pub energy_vdd2: f64,
    /// The design's schedule length at the reference voltage, cycles.
    pub sched_cycles: f64,
    /// Transformation steps that produced the structural design point.
    pub applied: Vec<String>,
}

/// The result of a Pareto-front FACT run ([`optimize_pareto`]).
#[derive(Clone, Debug)]
pub struct ParetoFactResult {
    /// The final nondominated tradeoff curve, ascending in latency: every
    /// archived structural design expanded over its admissible Vdd range,
    /// then filtered to the nondominated set.
    pub frontier: Vec<ParetoDesignPoint>,
    /// Number of structural design points in the archive (each
    /// contributes one curve segment to `frontier`).
    pub archive_len: usize,
    /// The untransformed design's estimate (the comparison base).
    pub baseline: Estimate,
    /// Total candidates evaluated by the search (cache hits included).
    pub evaluated: usize,
    /// Number of STG blocks searched.
    pub blocks_optimized: usize,
    /// Candidate evaluations answered by the shared [`EvalCache`].
    pub cache_hits: usize,
    /// Schedules computed entirely from scratch (see
    /// [`FactResult::full_reschedules`]).
    pub full_reschedules: usize,
    /// Schedules that reused a block schedule (see
    /// [`FactResult::block_spliced`]).
    pub block_spliced: usize,
    /// Schedules whose plan came from the shared cache (see
    /// [`FactResult::plans_memoized`]).
    pub plans_memoized: u64,
    /// Schedule plans built (see [`FactResult::plans_built`]).
    pub plans_built: u64,
    /// Trace vectors profiled inside the search (see
    /// [`FactResult::sim_vectors`]).
    pub sim_vectors: u64,
    /// Profile passes inside the search (see
    /// [`FactResult::sim_engine_scalar`]).
    pub sim_engine_scalar: u64,
    /// Always 0 (see [`FactResult::sim_engine_batched`]).
    pub sim_engine_batched: u64,
    /// Whole-neighborhood dispatches evaluated.
    pub neighborhood_batches: u64,
    /// Simulation lanes of the profile passes inside the search (see
    /// [`FactResult::mega_lanes`]).
    pub mega_lanes: u64,
    /// Candidates handed to neighborhood dispatches (cache hits included).
    pub mega_candidates: u64,
    /// Inherited, proved, derived and unproved candidates (see
    /// [`FactResult::candidates`]).
    pub candidates: CandidateCounts,
    /// Parent expansions the expansion memo answered (see
    /// [`FactResult::neighborhoods_memoized`]).
    pub neighborhoods_memoized: u64,
    /// Transformations run to build candidates (see
    /// [`FactResult::neighborhoods_built`]).
    pub neighborhoods_built: u64,
    /// Candidates whose verdicts came from their record (see
    /// [`FactResult::verdicts_memoized`]).
    pub verdicts_memoized: u64,
    /// `true` when the run was cut short by cancellation or timeout.
    pub stopped: bool,
}

/// Runs FACT in Pareto mode on `f`: explores the energy × latency
/// tradeoff frontier instead of a single optimum. See
/// [`optimize_pareto_with`].
///
/// # Errors
/// Fails only if the *original* behavior cannot be scheduled or analyzed;
/// failing candidates are merely skipped.
pub fn optimize_pareto(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    tlib: &TransformLibrary,
    config: &FactConfig,
) -> Result<ParetoFactResult, FactError> {
    optimize_pareto_with(
        f,
        library,
        rules,
        alloc,
        traces,
        tlib,
        config,
        OptimizeHooks::default(),
    )
}

/// The Pareto-front FACT driver: the Figure 5 flow with the scalar
/// `Apply_transforms` replaced by [`apply_transforms_pareto`], all STG
/// blocks sharing one nondominated archive so improvements compound
/// across regions, and each archived design expanded into a
/// voltage-parameterized curve segment via §2.2 Vdd scaling.
///
/// `config.objective` is forced to [`Objective::Pareto`] internally;
/// `config.pareto` holds the archive capacity and Vdd sweep resolution.
/// Candidates flow through the same evaluation as [`optimize_with`]
/// (schedule splicing, proofs, cached scores), and the returned frontier is bit-identical for a fixed
/// `config.search.seed` regardless of `config.search.threads`.
///
/// # Errors
/// Fails only if the *original* behavior cannot be scheduled or analyzed;
/// failing candidates are merely skipped.
#[allow(clippy::too_many_arguments)]
pub fn optimize_pareto_with(
    f: &Function,
    library: &FuLibrary,
    rules: &SelectionRules,
    alloc: &Allocation,
    traces: &TraceSet,
    tlib: &TransformLibrary,
    config: &FactConfig,
    hooks: OptimizeHooks<'_>,
) -> Result<ParetoFactResult, FactError> {
    let config = FactConfig {
        objective: Objective::Pareto,
        ..config.clone()
    };
    let config = &config;
    let run = timed(
        hooks.timers,
        |t| &t.setup_ns,
        || Run::new(f, library, rules, alloc, traces, config, hooks),
    )?;
    let clock = ExpandClock::new(hooks.timers, &run.ledger);
    let score = |batch: &[MegaCandidate<'_>]| {
        clock.evaluate(|| {
            run.score_neighborhood(batch, &|est: &Estimate| {
                (est.energy_vdd2, est.average_schedule_length)
            })
        })
    };

    // Steps 3-7, Pareto flavor: every region's search feeds one shared
    // nondominated archive, so a frontier point found in one block seeds
    // exploration of the next (the compounding the scalar driver gets
    // from its evolving incumbent).
    let mut archive = ParetoArchive::new(config.pareto.archive_capacity);
    let mut evaluated = 0usize;
    let mut blocks_optimized = 0usize;
    let mut stopped = false;
    for region in &run.regions {
        if run.stopped() {
            stopped = true;
            break;
        }
        let r = clock.search(|| {
            apply_transforms_pareto_with(
                f,
                region,
                tlib,
                &config.search,
                &mut archive,
                &score,
                hooks.stop,
                run.expander(),
            )
        });
        evaluated += r.evaluated;
        stopped |= r.stopped;
        blocks_optimized += 1;
        if r.stopped {
            break;
        }
    }

    // Expand every archived structural point into its Vdd curve segment
    // and keep the nondominated union, ascending in latency.
    let clock_ns = config.sched.clock_ns;
    let mut samples: Vec<ParetoDesignPoint> = Vec::new();
    for (point, cand) in archive.entries() {
        let applied = cand.applied();
        for s in sweep_vdd(
            point.energy,
            point.latency,
            run.base_cycles,
            config.pareto.vdd_steps,
        ) {
            samples.push(ParetoDesignPoint {
                energy: s.energy,
                latency_cycles: s.latency,
                vdd: s.vdd,
                power: s.energy / (s.latency * clock_ns),
                energy_vdd2: point.energy,
                sched_cycles: point.latency,
                applied: applied.clone(),
            });
        }
    }
    let sample_points: Vec<ParetoPoint> = samples
        .iter()
        .map(|s| ParetoPoint {
            energy: s.energy,
            latency: s.latency_cycles,
        })
        .collect();
    let frontier: Vec<ParetoDesignPoint> = nondominated(&sample_points)
        .into_iter()
        .map(|i| samples[i].clone())
        .collect();

    let ctx = &run.ctx;
    let candidates = *run.candidates.lock().expect("the search has finished");
    Ok(ParetoFactResult {
        frontier,
        archive_len: archive.len(),
        baseline: run.baseline.clone(),
        evaluated,
        blocks_optimized,
        cache_hits: run.cache_hits.load(Ordering::Relaxed),
        full_reschedules: ctx.full_reschedules.load(Ordering::Relaxed),
        block_spliced: ctx.block_spliced.load(Ordering::Relaxed),
        plans_memoized: ctx.plans_memoized.load(Ordering::Relaxed),
        plans_built: ctx.plans_built.load(Ordering::Relaxed),
        sim_vectors: ctx.sim_vectors.load(Ordering::Relaxed),
        sim_engine_scalar: candidates.parents_profiled,
        sim_engine_batched: 0,
        neighborhood_batches: ctx.mega.batches.load(Ordering::Relaxed),
        mega_lanes: ctx.mega.lanes.load(Ordering::Relaxed),
        mega_candidates: ctx.mega.candidates.load(Ordering::Relaxed),
        candidates,
        neighborhoods_memoized: run.ledger.memoized.load(Ordering::Relaxed),
        neighborhoods_built: run.ledger.built.load(Ordering::Relaxed),
        verdicts_memoized: run.verdicts_memoized.load(Ordering::Relaxed),
        stopped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_estim::section5_library;
    use fact_lang::compile;
    use fact_sim::{check_equivalence, generate, InputSpec};

    fn quick_config(objective: Objective) -> FactConfig {
        FactConfig {
            objective,
            search: SearchConfig {
                max_moves: 2,
                in_set_size: 2,
                max_rounds: 3,
                max_evaluations: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn alloc_of(lib: &FuLibrary, pairs: &[(&str, u32)]) -> Allocation {
        let mut a = Allocation::new();
        for (n, c) in pairs {
            a.set(lib.by_name(n).unwrap(), *c);
        }
        a
    }

    #[test]
    fn throughput_mode_improves_a_factorable_loop() {
        // Per-iteration 2 multiplies with 1 multiplier: II = 2. Factoring
        // (a*i + b*i -> i*(a+b)) drops to 1 multiply: II = 1; the
        // recurrences (accumulate, increment) stay single-cycle.
        let src = r#"
            proc f(n, a, b) {
                var s = 0;
                var i = 0;
                while (i < n) {
                    s = s + (a * i + b * i);
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let (lib, rules) = section5_library();
        let alloc = alloc_of(
            &lib,
            &[("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 2), ("sb1", 1)],
        );
        let traces = generate(
            &[
                ("n".to_string(), InputSpec::Constant(20)),
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
                ("b".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
            ],
            6,
            11,
        );
        let tlib = TransformLibrary::full();
        let r = optimize(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &quick_config(Objective::Throughput),
        )
        .unwrap();
        assert!(
            r.estimate.average_schedule_length < r.baseline.average_schedule_length,
            "expected improvement: {} vs baseline {}",
            r.estimate.average_schedule_length,
            r.baseline.average_schedule_length
        );
        assert!(!r.applied.is_empty());
        // And the winner is still the same behavior.
        check_equivalence(&f, &r.best, &traces, 5).unwrap();
    }

    #[test]
    fn power_mode_scales_voltage_on_improvement() {
        let src = r#"
            proc f(n, a, b) {
                var s = 0;
                var i = 0;
                while (i < n) {
                    s = s + (a * i + b * i);
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let (lib, rules) = section5_library();
        let alloc = alloc_of(
            &lib,
            &[("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 2), ("sb1", 1)],
        );
        let traces = generate(
            &[
                ("n".to_string(), InputSpec::Constant(20)),
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
                ("b".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
            ],
            6,
            11,
        );
        let tlib = TransformLibrary::full();
        let r = optimize(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &quick_config(Objective::Power),
        )
        .unwrap();
        // Power mode reports at a scaled (or reference) voltage and beats
        // or matches the baseline's power.
        assert!(r.estimate.vdd <= fact_estim::VDD_REF + 1e-9);
        assert!(r.estimate.power <= r.baseline.power + 1e-9);
    }

    #[test]
    fn unoptimizable_behavior_returns_baseline() {
        let f = compile("proc f(a, b) { out y = a * b; }").unwrap();
        let (lib, rules) = section5_library();
        let alloc = alloc_of(&lib, &[("mt1", 1)]);
        let traces = generate(
            &[
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 9 }),
                ("b".to_string(), InputSpec::Uniform { lo: 0, hi: 9 }),
            ],
            5,
            3,
        );
        let tlib = TransformLibrary::full();
        let r = optimize(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &quick_config(Objective::Throughput),
        )
        .unwrap();
        assert!(
            (r.estimate.average_schedule_length - r.baseline.average_schedule_length).abs() < 1e-9
        );
    }

    /// A small factorable-loop job used by the cache tests.
    fn cache_fixture() -> (Function, FuLibrary, SelectionRules, Allocation, TraceSet) {
        let src = r#"
            proc f(n, a, b) {
                var s = 0;
                var i = 0;
                while (i < n) {
                    s = s + (a * i + b * i);
                    i = i + 1;
                }
                out s = s;
            }
        "#;
        let f = compile(src).unwrap();
        let (lib, rules) = section5_library();
        let alloc = alloc_of(
            &lib,
            &[("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 2), ("sb1", 1)],
        );
        let traces = generate(
            &[
                ("n".to_string(), InputSpec::Constant(20)),
                ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
                ("b".to_string(), InputSpec::Uniform { lo: 0, hi: 5 }),
            ],
            6,
            11,
        );
        (f, lib, rules, alloc, traces)
    }

    #[test]
    fn shared_cache_answers_repeated_jobs() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let cfg = quick_config(Objective::Throughput);
        let cache = crate::cache::EvalCache::default();
        let hooks = OptimizeHooks {
            cache: Some(&cache),
            stop: None,
            timers: None,
        };
        let cold = optimize_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks).unwrap();
        assert_eq!(cold.cache_hits, 0, "first job must be all misses");
        assert!(!cache.is_empty());
        let warm = optimize_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks).unwrap();
        // Identical job: every evaluation is answered by the cache, and
        // the result is unchanged.
        assert_eq!(warm.cache_hits, warm.evaluated);
        assert_eq!(warm.evaluated, cold.evaluated);
        assert_eq!(warm.applied, cold.applied);
        assert_eq!(
            warm.estimate.average_schedule_length,
            cold.estimate.average_schedule_length
        );
    }

    #[test]
    fn cache_does_not_leak_across_contexts() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let cfg = quick_config(Objective::Throughput);
        let cache = crate::cache::EvalCache::default();
        let hooks = OptimizeHooks {
            cache: Some(&cache),
            stop: None,
            timers: None,
        };
        let uncached = optimize(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg).unwrap();
        let _ = optimize_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks).unwrap();
        // Same design under a different allocation: the context key
        // differs, so nothing may be answered from the first job's
        // entries — and the result must match a cache-free run.
        let alloc2 = alloc_of(
            &lib,
            &[("a1", 2), ("mt1", 2), ("cp1", 1), ("i1", 2), ("sb1", 1)],
        );
        let r2 = optimize_with(&f, &lib, &rules, &alloc2, &traces, &tlib, &cfg, hooks).unwrap();
        assert_eq!(r2.cache_hits, 0, "different context must not hit");
        let r2_ref = optimize(&f, &lib, &rules, &alloc2, &traces, &tlib, &cfg).unwrap();
        assert_eq!(
            r2.estimate.average_schedule_length,
            r2_ref.estimate.average_schedule_length
        );
        let _ = uncached;
    }

    /// `traces` plus an input no program reads: the same runs under an
    /// evaluation context no cached score belongs to.
    fn with_nonce(traces: &TraceSet, nonce: i64) -> TraceSet {
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

    /// A plan is keyed by everything it depends on besides the design:
    /// changing any of it must miss.
    #[test]
    fn schedule_context_key_covers_every_scheduling_input() {
        let (lib, rules) = section5_library();
        let alloc = alloc_of(&lib, &[("a1", 2), ("mt1", 1), ("cp1", 1)]);
        let opts = SchedOptions::default();
        let key =
            |lib: &FuLibrary, rules: &SelectionRules, alloc: &Allocation, opts: &SchedOptions| {
                schedule_context_key(lib, rules, alloc, opts)
            };
        let base = key(&lib, &rules, &alloc, &opts);
        assert_eq!(base, key(&lib.clone(), &rules, &alloc.clone(), &opts));
        // The same allocation built in another order is the same context.
        let reordered = alloc_of(&lib, &[("cp1", 1), ("mt1", 1), ("a1", 2)]);
        assert_eq!(base, key(&lib, &rules, &reordered, &opts));

        let mut misses = Vec::new();
        let more_adders = alloc_of(&lib, &[("a1", 3), ("mt1", 1), ("cp1", 1)]);
        misses.push(("allocation count", key(&lib, &rules, &more_adders, &opts)));
        // The library rebuilt with one unit slower.
        let rebuilt = |delay_of: &dyn Fn(&str, f64) -> f64, memory_delay_ns| {
            let mut l = FuLibrary::new(
                lib.register_energy_coeff,
                lib.register_delay_ns,
                lib.memory_energy_coeff,
                memory_delay_ns,
            );
            for i in 0..lib.len() {
                let mut spec = lib.spec(fact_sched::FuId(i as u32)).clone();
                spec.delay_ns = delay_of(&spec.name, spec.delay_ns);
                l.add(spec);
            }
            l
        };
        let same = rebuilt(&|_, d| d, lib.memory_delay_ns);
        assert_eq!(base, key(&same, &rules, &alloc, &opts));
        let slow_adder = rebuilt(
            &|n, d| if n == "a1" { d + 1.0 } else { d },
            lib.memory_delay_ns,
        );
        misses.push(("unit delay", key(&slow_adder, &rules, &alloc, &opts)));
        let slow_memory = rebuilt(&|_, d| d, lib.memory_delay_ns + 1.0);
        misses.push(("memory delay", key(&slow_memory, &rules, &alloc, &opts)));
        let mut other_rules = rules.clone();
        other_rules.sub = other_rules.add;
        misses.push(("selection rules", key(&lib, &other_rules, &alloc, &opts)));
        for (what, i) in [
            ("clock", 0),
            ("if_convert", 1),
            ("rotate", 2),
            ("pipeline", 3),
            ("concurrent", 4),
        ] {
            let mut o = opts.clone();
            match i {
                0 => o.clock_ns += 1.0,
                1 => o.if_convert = !o.if_convert,
                2 => o.rotate = !o.rotate,
                3 => o.pipeline = !o.pipeline,
                _ => o.concurrent = !o.concurrent,
            }
            misses.push((what, key(&lib, &rules, &alloc, &o)));
        }
        for (what, k) in &misses {
            assert_ne!(*k, base, "changing the {what} must change the key");
        }
        let distinct: HashSet<u64> = misses.iter().map(|&(_, k)| k).collect();
        assert_eq!(distinct.len(), misses.len(), "{misses:?}");
    }

    #[test]
    fn plans_serve_other_traces_and_a_small_cap_changes_nothing() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let cfg = quick_config(Objective::Throughput);
        let want = optimize(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg).unwrap();
        let same = |r: &FactResult| {
            assert_eq!(r.applied, want.applied);
            assert_eq!(r.evaluated, want.evaluated);
            assert_eq!(r.best, want.best);
            assert_eq!(format!("{:?}", r.estimate), format!("{:?}", want.estimate));
            assert_eq!(
                format!("{:?}", r.schedule.stg),
                format!("{:?}", want.schedule.stg)
            );
        };
        // A cap below one job's design count evicts all the time, which
        // costs rebuilt plans, never a different result.
        let small = crate::cache::EvalCache::with_plan_capacity(2);
        let hooks = |cache| OptimizeHooks {
            cache: Some(cache),
            stop: None,
            timers: None,
        };
        let got = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &cfg,
            hooks(&small),
        );
        let got = got.unwrap();
        same(&got);
        assert!(got.plans_built > 2, "{}", got.plans_built);
        assert!(small.plans().evictions() > 0 && small.plans_held() <= 2);
        small.clear();
        assert_eq!(small.plans_held(), 0, "clearing the cache drops its plans");
        // Other traces under an unbounded cache: every plan is read, none
        // built, and the result is a fresh run's.
        let shared = crate::cache::EvalCache::default();
        let cold = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &cfg,
            hooks(&shared),
        );
        same(&cold.unwrap());
        let other = with_nonce(&traces, 7);
        let fresh = optimize(&f, &lib, &rules, &alloc, &other, &tlib, &cfg).unwrap();
        let re = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc,
            &other,
            &tlib,
            &cfg,
            hooks(&shared),
        );
        let re = re.unwrap();
        assert_eq!((re.plans_built, re.cache_hits), (0, 0));
        assert!(re.plans_memoized > 0);
        assert_eq!(re.applied, fresh.applied);
        assert_eq!(
            format!("{:?}", re.estimate),
            format!("{:?}", fresh.estimate)
        );
        // Another allocation, or another clock, is another scheduling
        // context: no plan the earlier runs left answers it.
        let alloc2 = alloc_of(
            &lib,
            &[("a1", 2), ("mt1", 2), ("cp1", 1), ("i1", 2), ("sb1", 1)],
        );
        let r2 = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc2,
            &other,
            &tlib,
            &cfg,
            hooks(&shared),
        );
        let alone = crate::cache::EvalCache::default();
        let want2 = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc2,
            &other,
            &tlib,
            &cfg,
            hooks(&alone),
        );
        // Only the run's own plans answer it, as on an empty cache.
        let (r2, want2) = (r2.unwrap(), want2.unwrap());
        assert_eq!(
            (r2.plans_memoized, r2.plans_built),
            (want2.plans_memoized, want2.plans_built)
        );
        let mut slow = cfg.clone();
        slow.sched.clock_ns = 30.0;
        let r3 = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc,
            &other,
            &tlib,
            &slow,
            hooks(&shared),
        );
        let alone = crate::cache::EvalCache::default();
        let want3 = optimize_with(
            &f,
            &lib,
            &rules,
            &alloc,
            &other,
            &tlib,
            &slow,
            hooks(&alone),
        );
        let (r3, want3) = (r3.unwrap(), want3.unwrap());
        assert_eq!(
            (r3.plans_memoized, r3.plans_built),
            (want3.plans_memoized, want3.plans_built)
        );
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let seq_cfg = quick_config(Objective::Throughput);
        let mut par_cfg = quick_config(Objective::Throughput);
        par_cfg.search.threads = 4;
        let seq = optimize(&f, &lib, &rules, &alloc, &traces, &tlib, &seq_cfg).unwrap();
        let par = optimize(&f, &lib, &rules, &alloc, &traces, &tlib, &par_cfg).unwrap();
        assert_eq!(par.applied, seq.applied);
        assert_eq!(par.evaluated, seq.evaluated);
        assert_eq!(
            par.estimate.average_schedule_length,
            seq.estimate.average_schedule_length
        );
    }

    /// Measurement path for the parallel-search speedup (not a CI
    /// assertion: the speedup is a property of the machine). Run with
    /// `cargo test -p fact-core --release -- --ignored speedup
    /// --nocapture`; on a ≥4-core machine the 4-thread run must beat
    /// sequential by more than 1.5×.
    #[test]
    #[ignore = "wall-clock measurement; run manually on a multi-core machine"]
    fn parallel_speedup_measurement() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let mut cfg = quick_config(Objective::Throughput);
        cfg.search.max_evaluations = 2000;
        cfg.search.max_rounds = 12;
        cfg.search.max_moves = 6;
        let time = |threads: usize| {
            let mut cfg = cfg.clone();
            cfg.search.threads = threads;
            let start = std::time::Instant::now();
            let r = optimize(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg).unwrap();
            (start.elapsed(), r)
        };
        let (warmup, _) = time(1); // fault in code paths before timing
        let (seq, r1) = time(1);
        let (par, r4) = time(4);
        assert_eq!(r1.applied, r4.applied, "threading changed the result");
        let speedup = seq.as_secs_f64() / par.as_secs_f64();
        println!(
            "parallel search speedup: seq {seq:?} (warmup {warmup:?}), \
             4 threads {par:?} -> {speedup:.2}x on {} cores",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 4 {
            assert!(
                speedup > 1.5,
                "expected >1.5x on >=4 cores, got {speedup:.2}x"
            );
        }
    }

    #[test]
    fn stop_flag_short_circuits() {
        let (f, lib, rules, alloc, traces) = cache_fixture();
        let tlib = TransformLibrary::full();
        let cfg = quick_config(Objective::Throughput);
        let stop = AtomicBool::new(true);
        let hooks = OptimizeHooks {
            cache: None,
            stop: Some(&stop),
            timers: None,
        };
        let r = optimize_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks).unwrap();
        // Pre-cancelled: the baseline still gets scheduled (that is the
        // error path contract) but no region search runs to completion.
        assert!(r.stopped);
        assert!(r.applied.is_empty());
    }

    #[test]
    fn traces_no_vector_completes_on_fail_before_the_search() {
        // GCD-style traces that never set `b`: every vector fails with a
        // missing input, in both drivers, before any candidate is tried.
        let f = compile(
            "proc gcd(a, b) { var x = a; var y = b; \
             while (x != y) { if (x > y) { x = x - y; } else { y = y - x; } } out g = x; }",
        )
        .unwrap();
        let (lib, rules) = section5_library();
        let alloc = alloc_of(&lib, &[("a1", 1), ("sb1", 1), ("cp1", 1)]);
        let traces = generate(
            &[("a".to_string(), InputSpec::Uniform { lo: 1, hi: 9 })],
            5,
            3,
        );
        let tlib = TransformLibrary::full();
        let cache = crate::cache::EvalCache::default();
        let hooks = OptimizeHooks {
            cache: Some(&cache),
            stop: None,
            timers: None,
        };
        let cfg = quick_config(Objective::Throughput);
        let analysis = |e: FactError| match e {
            FactError::Analysis(m) => m,
            other => panic!("expected an analysis error, got {other}"),
        };
        let m = analysis(
            optimize_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks).unwrap_err(),
        );
        assert!(m.contains("5 of 5 failed"), "{m}");
        assert!(m.contains("first error"), "{m}");
        let m = analysis(
            optimize_pareto_with(&f, &lib, &rules, &alloc, &traces, &tlib, &cfg, hooks)
                .unwrap_err(),
        );
        assert!(m.contains("5 of 5 failed"), "{m}");
        assert!(cache.is_empty(), "no candidate was evaluated");
    }

    #[test]
    fn missing_units_fail_cleanly() {
        let f = compile("proc f(a, b) { out y = a * b; }").unwrap();
        let (lib, rules) = section5_library();
        let alloc = Allocation::new(); // nothing allocated
        let traces = generate(
            &[
                ("a".to_string(), InputSpec::Constant(1)),
                ("b".to_string(), InputSpec::Constant(1)),
            ],
            2,
            3,
        );
        let tlib = TransformLibrary::full();
        let err = optimize(
            &f,
            &lib,
            &rules,
            &alloc,
            &traces,
            &tlib,
            &quick_config(Objective::Throughput),
        );
        assert!(matches!(err, Err(FactError::Schedule(_))));
    }
}
