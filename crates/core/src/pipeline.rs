//! The FACT driver: the full flow of paper Figure 5.
//!
//! 1. schedule the input CDFG (existing CFI scheduler);
//! 2. derive state probabilities from input traces and partition the STG
//!    into blocks (§4.1);
//! 3. (through 7) per block, run the `Apply_transforms` search (§4.2),
//!    where every candidate is *rescheduled and re-estimated* — scheduling
//!    information guides transformation selection, the paper's central
//!    claim.

use crate::cache::{structural_hash, ContextHasher, EvalCache};
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
    schedule_with_memo, Allocation, FuLibrary, SchedOptions, ScheduleMemo, ScheduleReport,
    ScheduleResult, SelectionRules,
};
use fact_sim::{
    execute, memory_steers, simulate, BranchProfile, CompiledFn, EquivReference, ProfileCounts,
    StepBound, TraceSet,
};
use fact_xform::{Region, TransformKind, TransformLibrary};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Validate every candidate against the original behavior by
    /// randomized equivalence checking (defense in depth; the
    /// transformations are individually verified too).
    pub check_equivalence: bool,
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
            check_equivalence: true,
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
    /// Schedules computed entirely from scratch — no memoized block
    /// fragment was spliced in.
    pub full_reschedules: usize,
    /// Schedules that spliced at least one memoized per-block fragment
    /// instead of re-running list scheduling.
    pub block_spliced: usize,
    /// Trace vectors simulated during candidate evaluation (every pass of
    /// every [`simulate`] call; logical vectors, so a deduplicated lane
    /// of multiplicity *k* counts *k*). Proved and derived candidates,
    /// and the baseline and final profiles, are not counted.
    pub sim_vectors: u64,
    /// Simulated candidates: [`CandidateCounts::simulated_total`].
    pub sim_engine_scalar: u64,
    /// Always 0: there is one simulator. Kept, with `sim_engine_scalar`,
    /// while the end-to-end benchmark's `sim.batched_share` reads them.
    pub sim_engine_batched: u64,
    /// Whole-neighborhood dispatches evaluated (one per search move,
    /// plus one per scored search input).
    pub neighborhood_batches: u64,
    /// Simulation lanes of candidate evaluations: the first-pass lanes
    /// of every simulated candidate ([`fact_sim::Simulation::lanes`];
    /// cache hits short-circuit theirs out of the batch).
    pub mega_lanes: u64,
    /// Candidates handed to neighborhood dispatches (cache hits included).
    pub mega_candidates: u64,
    /// How the candidates the cache did not answer were evaluated:
    /// inherited from their parent (operand swaps), proved equivalent to
    /// their parent, derived from its counts, or simulated.
    pub candidates: CandidateCounts,
    /// Whether the run captured the equivalence reference: a candidate
    /// was simulated against it, or memory steers the input, which
    /// captures it at set-up (DESIGN §8.5.3). Always `false` with
    /// equivalence checking off.
    pub reference_captured: bool,
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
/// parent this run profiled and scored is neither proved, simulated,
/// scheduled nor estimated: it takes the parent's profile and estimate
/// (*inherited*, DESIGN §8.5.2). A candidate
/// [`fact_ir::prove_equivalent`] shows equivalent to a parent this run
/// profiled takes the corresponding path on every vector, so it is
/// neither compiled nor simulated: a rewrite that keeps
/// the control-flow graph reuses the parent's profile (*proved*), and a
/// loop unrolled by 2 gets its profile from the parent's per-parity loop
/// counts (*derived*, [`ProfileCounts::unrolled`]). A search input the
/// run already profiled (the same structure) reuses that profile and
/// counts as proved. Every other candidate is simulated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateCounts {
    /// Operand swaps that took their parent's profile and estimate, per
    /// kind.
    pub inherited: [u64; TransformKind::ALL.len()],
    /// Candidates proved equivalent to their parent that reused its
    /// profile, per kind.
    pub proved: [u64; TransformKind::ALL.len()],
    /// Unrolled candidates proved equivalent to their parent whose
    /// profile was derived from the parent's counts, per kind.
    pub derived: [u64; TransformKind::ALL.len()],
    /// Candidates simulated, per kind.
    pub simulated: [u64; TransformKind::ALL.len()],
    /// Search inputs the run had already profiled.
    pub proved_inputs: u64,
    /// Search inputs simulated (no transformation produced them).
    pub simulated_inputs: u64,
    /// Of the simulated candidates, those whose parent this run never
    /// profiled (the shared cache answered it, or one of its lanes ran
    /// into the step limit), so nothing could be proved or derived.
    pub unprofiled_parents: u64,
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

    /// Candidates simulated, search inputs included.
    pub fn simulated_total(&self) -> u64 {
        self.simulated.iter().sum::<u64>() + self.simulated_inputs
    }
}

/// Wall-clock phase accounting of a run, accumulated in nanoseconds
/// across all worker threads (so a phase's total can exceed the run's
/// wall time when `search.threads > 1`). The phases are disjoint: set-up
/// is charged to `setup_ns` alone, and each candidate's work to the
/// phase it ran in. Wired in through [`OptimizeHooks::timers`]; the
/// benchmark harness uses it to attribute search throughput to set-up,
/// building candidates, expansion, compilation, proving, simulation,
/// and estimation.
#[derive(Debug, Default)]
pub struct PhaseTimers {
    /// Time outside the search: the run's set-up (the input's profile
    /// pass, its schedule, Markov analysis and estimate, the partition
    /// into regions, and — only when memory steers the input — capturing
    /// the equivalence reference) and the winner's final profile and
    /// re-estimate. A reference captured on demand is charged to
    /// `simulate_ns`, inside the candidate that needed it.
    pub setup_ns: AtomicU64,
    /// Time compiling candidates ([`CompiledFn::compile`]).
    pub compile_ns: AtomicU64,
    /// Time proving candidates equivalent to their parents
    /// ([`fact_ir::prove_equivalent`] and [`fact_ir::operand_swap_of`]),
    /// proved or not. A check whose verdict the candidate's expansion
    /// record already holds is not run, and costs nothing here.
    pub prove_ns: AtomicU64,
    /// Time deriving unrolled candidates' profiles from their parents'
    /// counts ([`ProfileCounts::unrolled`]).
    pub derive_ns: AtomicU64,
    /// Time inside [`simulate`]: candidates' equivalence verification and
    /// branch profiling, including the equivalence reference's capture
    /// when the first simulated candidate needs it.
    pub simulate_ns: AtomicU64,
    /// Time scheduling and estimating candidates (list scheduling, Markov
    /// solves, power/latency evaluation).
    pub estimate_ns: AtomicU64,
    /// The scheduling share of `estimate_ns`: time inside
    /// [`schedule_with_memo`] during candidate estimation.
    /// `estimate_ns - schedule_ns` is the Markov and power time.
    pub schedule_ns: AtomicU64,
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
    /// When present, receives the expand/compile/simulate/estimate
    /// wall-time breakdown of the search. `None` skips all timing calls.
    pub timers: Option<&'a PhaseTimers>,
}

/// FACT failure.
#[derive(Debug)]
pub enum FactError {
    /// The original behavior failed to schedule.
    Schedule(fact_sched::ScheduleError),
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
/// are `Sync`): memoized schedule fragments, the equivalence reference
/// (captured on demand), and the work counters [`FactResult`] reports.
struct IncrementalCtx<'a> {
    /// The input and traces the equivalence reference is captured from
    /// (`None` with equivalence checking off).
    original: Option<(&'a Function, &'a TraceSet)>,
    /// The captured reference: filled the first time a candidate is
    /// simulated, or at set-up when memory steers the input (DESIGN
    /// §8.5.3). Empty after a run that never needed it.
    equiv: OnceLock<EquivReference>,
    /// Per-block list-schedule fragments keyed by structural hash.
    sched: ScheduleMemo,
    /// Schedules computed with no memoized fragment spliced in.
    full_reschedules: AtomicUsize,
    /// Schedules that reused at least one memoized block fragment.
    block_spliced: AtomicUsize,
    /// Trace vectors simulated so far (shared across worker threads;
    /// [`FactResult::sim_vectors`]).
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

/// The profile pass of `g` over `traces`: one compiled [`simulate`]
/// call with no reference, outside the run's work counters (the
/// baseline, and the winner's final re-estimate when the run never
/// profiled it).
fn profile_pass(g: &Function, traces: &TraceSet) -> fact_sim::Simulation {
    simulate(&CompiledFn::compile(g), traces, None)
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
    /// step limit — what a child may reuse or derive from it. `None`
    /// when `sim` did not profile (not equivalent).
    fn of(sim: fact_sim::Simulation) -> Option<(Arc<BranchProfile>, Option<Profiled>)> {
        let profile = Arc::new(sim.profile?);
        let known = sim.steps.map(|steps| Profiled {
            profile: profile.clone(),
            counts: Arc::new(sim.counts.expect("counted with the profile")),
            steps,
        });
        Some((profile, known))
    }
}

/// Why a candidate's profile could not be reused or derived.
enum Miss {
    /// The run never profiled its parent (or, for a search input, the
    /// input itself).
    Unprofiled,
    /// Not proved equivalent to its parent, or its step bound could
    /// exceed the step limit.
    Unproved,
}

impl<'a> IncrementalCtx<'a> {
    fn new(
        f: &'a Function,
        traces: &'a TraceSet,
        config: &FactConfig,
        timers: Option<&'a PhaseTimers>,
    ) -> IncrementalCtx<'a> {
        IncrementalCtx {
            original: config.check_equivalence.then_some((f, traces)),
            equiv: OnceLock::new(),
            sched: ScheduleMemo::default(),
            full_reschedules: AtomicUsize::new(0),
            block_spliced: AtomicUsize::new(0),
            sim_vectors: AtomicU64::new(0),
            timers,
            mega: MegaCounters::default(),
        }
    }

    /// The equivalence reference, captured on first use (`None` with
    /// equivalence checking off). Worker threads that ask at once wait
    /// for one capture; it is a function of the input, the traces and
    /// the seed alone, so who captures it changes nothing.
    fn reference(&self) -> Option<&EquivReference> {
        let (f, traces) = self.original?;
        Some(
            self.equiv
                .get_or_init(|| EquivReference::capture(f, traces, 0xC0FFEE)),
        )
    }

    /// Classifies one completed schedule as spliced or from-scratch.
    fn note_schedule(&self, report: &ScheduleReport) {
        if report.memo_hits > 0 {
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
    rules: &'a SelectionRules,
    alloc: &'a Allocation,
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
    /// Inherited, proved, derived and simulated candidates.
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
        let ctx = IncrementalCtx::new(f, traces, config, hooks.timers);
        let (prof, known) = Profiled::of(profile_pass(f, traces))
            .expect("a pass without a reference always profiles");
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
        // Seeded into the profile map as a search input would be: the
        // input agrees with its own reference, and its lanes there bound
        // its work too. Unless memory steers the input, they do exactly
        // the work they do from zeroed memories, so the pass's bound is
        // the reference's and the capture waits for a simulated candidate
        // (DESIGN §8.5.3); otherwise it is captured now and joined.
        let forced = if memory_steers(f) {
            ctx.reference()
        } else {
            None
        };
        let known = match forced {
            None => known,
            Some(r) => known.zip(r.steps()).map(|(k, s)| Profiled {
                steps: k.steps.joined(s),
                ..k
            }),
        };
        let profiles = known.map(|k| (structural_hash(f), k)).into_iter().collect();
        let sr0 = schedule_with_memo(
            f,
            library,
            rules,
            alloc,
            &prof,
            &config.sched,
            Some(&ctx.sched),
        )
        .map_err(FactError::Schedule)?;
        ctx.note_schedule(&sr0.report);
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
            rules,
            alloc,
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

    /// Schedules + estimates `g` under `prof`, charging the time to
    /// `timers`' estimation phases; `None` when `g` cannot be realized
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
        let (ctx, config, library) = (&self.ctx, self.config, self.library);
        timed(
            timers,
            |t| &t.estimate_ns,
            || {
                let sr = timed(
                    timers,
                    |t| &t.schedule_ns,
                    || {
                        schedule_with_memo(
                            g,
                            library,
                            self.rules,
                            self.alloc,
                            prof,
                            &config.sched,
                            Some(&ctx.sched),
                        )
                    },
                )
                .ok()?;
                ctx.note_schedule(&sr.report);
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
    /// schedule + estimate. `None` marks an invalid candidate (not
    /// equivalent, unschedulable under the allocation, or — in power
    /// mode — slower than the baseline).
    ///
    /// A search input reuses the profile the run has for it, or is
    /// simulated. A child goes through [`Run::child_estimate`].
    fn checked_estimate(&self, cand: &MegaCandidate<'_>) -> Option<Estimate> {
        let Some(origin) = cand.origin else {
            let f = cand.function();
            debug_assert_eq!(cand.hash, structural_hash(f));
            let prof = match self.profiled(cand.hash) {
                Some(known) => {
                    self.count(|c| c.proved_inputs += 1);
                    known.profile
                }
                None => self.simulated_profile(f, cand.hash, None, Miss::Unprofiled)?,
            };
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
    /// without being built. Otherwise the profile comes from
    /// [`Run::proved_profile`] when the child is proved equivalent to a
    /// parent the run profiled, or else [`Run::simulated_profile`]
    /// compiles and simulates the child. Every check's verdict is read
    /// from, or written to, the child's record; `recalled` is set when
    /// one was read.
    fn child_estimate(
        &self,
        cand: &MegaCandidate<'_>,
        origin: Origin<'_>,
        verdicts: &Verdicts,
        recalled: &mut bool,
    ) -> Option<Estimate> {
        let parent = self.profiled(origin.parent_hash);
        if let Some(parent) = &parent {
            if let Some(est) = self.inherited_estimate(cand, origin, parent, verdicts, recalled) {
                return Some(est);
            }
        }
        // Built here, outside every phase timer: building is charged to
        // `build_ns` alone.
        let f = cand.function();
        debug_assert_eq!(cand.hash, structural_hash(f));
        let kind = Some(origin.kind);
        let prof = match parent {
            None => self.simulated_profile(f, cand.hash, kind, Miss::Unprofiled)?,
            Some(parent) => {
                let (proof, stored) = verdicts.proof(|| {
                    let (p, unrolled) = (origin.parent(), cand.unrolled());
                    timed(
                        self.ctx.timers,
                        |t| &t.prove_ns,
                        || prove_equivalent(p, f, unrolled),
                    )
                });
                *recalled |= stored;
                match self.proved_profile(f, cand, origin, parent, proof) {
                    Some(prof) => prof,
                    None => self.simulated_profile(f, cand.hash, kind, Miss::Unproved)?,
                }
            }
        };
        self.scored(f, cand.hash, &prof)
    }

    /// Schedules and estimates `f` under `prof`, remembering the estimate
    /// under `hash` for its operand swaps to inherit.
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
        let steps = parent.steps.grown(0)?;
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
    /// a proof.
    ///
    /// A child provably equivalent to its parent, that cannot run into
    /// the step limit on a lane where the parent did not, takes the
    /// corresponding path on every vector — so its verdict under
    /// equivalence checking is the parent's, and so is its profile: the
    /// parent's own for a rewrite that keeps the graph, or derived from
    /// the parent's per-parity loop counts for a loop unrolled by 2.
    fn proved_profile(
        &self,
        f: &Function,
        cand: &MegaCandidate<'_>,
        origin: Origin<'_>,
        parent: Profiled,
        proof: Option<Equivalence>,
    ) -> Option<Arc<BranchProfile>> {
        let steps = parent.steps.grown(proof?.block_growth)?;
        let unrolled = cand.unrolled();
        let known = match unrolled {
            None => Profiled { steps, ..parent },
            Some(map) => timed(
                self.ctx.timers,
                |t| &t.derive_ns,
                || {
                    let counts = parent.counts.unrolled(map, f.num_blocks())?;
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
        let kind = origin.kind.index();
        match unrolled {
            None => self.count(|c| c.proved[kind] += 1),
            Some(_) => self.count(|c| c.derived[kind] += 1),
        }
        Some(known.profile)
    }

    /// Compiles `f` (structural hash `hash`, produced by a `kind`
    /// transformation, or a search input) and [`simulate`]s it:
    /// verification against the captured reference when equivalence
    /// checking is on and the branch profile, in one call. `None` when it
    /// is not equivalent. `miss` (why no profile was known) goes into the
    /// candidate tallies.
    fn simulated_profile(
        &self,
        f: &Function,
        hash: u64,
        kind: Option<TransformKind>,
        miss: Miss,
    ) -> Option<Arc<BranchProfile>> {
        let (ctx, traces) = (&self.ctx, self.traces);
        self.count(|c| match kind {
            Some(kind) => {
                c.simulated[kind.index()] += 1;
                if matches!(miss, Miss::Unprofiled) {
                    c.unprofiled_parents += 1;
                }
            }
            None => c.simulated_inputs += 1,
        });
        let cf = timed(ctx.timers, |t| &t.compile_ns, || CompiledFn::compile(f));
        let sim = timed(
            ctx.timers,
            |t| &t.simulate_ns,
            || simulate(&cf, traces, ctx.reference()),
        );
        ctx.sim_vectors.fetch_add(sim.vectors, Ordering::Relaxed);
        ctx.mega
            .lanes
            .fetch_add(sim.lanes as u64, Ordering::Relaxed);
        let (prof, known) = Profiled::of(sim)?;
        if let Some(known) = known {
            self.profiles
                .lock()
                .expect("no evaluation panics while holding the profile map")
                .insert(hash, known);
        }
        Some(prof)
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
/// options, input traces, and the equivalence-checking reference.
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
    // against its baseline cycles, and equivalence checks compare
    // against it.
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
        .write_u64(config.sched.concurrent as u64)
        .write_u64(config.check_equivalence as u64);
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
                None => Arc::new(
                    profile_pass(&current, traces)
                        .profile
                        .expect("a pass without a reference always profiles"),
                ),
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
        sim_vectors: ctx.sim_vectors.load(Ordering::Relaxed),
        sim_engine_scalar: candidates.simulated_total(),
        sim_engine_batched: 0,
        neighborhood_batches: ctx.mega.batches.load(Ordering::Relaxed),
        mega_lanes: ctx.mega.lanes.load(Ordering::Relaxed),
        mega_candidates: ctx.mega.candidates.load(Ordering::Relaxed),
        candidates,
        reference_captured: ctx.equiv.get().is_some(),
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
    /// Schedules computed entirely from scratch.
    pub full_reschedules: usize,
    /// Schedules that spliced at least one memoized block fragment.
    pub block_spliced: usize,
    /// Trace vectors simulated during candidate evaluation.
    pub sim_vectors: u64,
    /// Simulated candidates (see [`FactResult::sim_engine_scalar`]).
    pub sim_engine_scalar: u64,
    /// Always 0 (see [`FactResult::sim_engine_batched`]).
    pub sim_engine_batched: u64,
    /// Whole-neighborhood dispatches evaluated.
    pub neighborhood_batches: u64,
    /// Simulation lanes of candidate evaluations (see
    /// [`FactResult::mega_lanes`]).
    pub mega_lanes: u64,
    /// Candidates handed to neighborhood dispatches (cache hits included).
    pub mega_candidates: u64,
    /// Inherited, proved, derived and simulated candidates (see
    /// [`FactResult::candidates`]).
    pub candidates: CandidateCounts,
    /// Whether the run captured the equivalence reference (see
    /// [`FactResult::reference_captured`]).
    pub reference_captured: bool,
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
/// (schedule splicing, one compiled simulation call, cached scores), and the returned frontier is bit-identical for a fixed
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
        sim_vectors: ctx.sim_vectors.load(Ordering::Relaxed),
        sim_engine_scalar: candidates.simulated_total(),
        sim_engine_batched: 0,
        neighborhood_batches: ctx.mega.batches.load(Ordering::Relaxed),
        mega_lanes: ctx.mega.lanes.load(Ordering::Relaxed),
        mega_candidates: ctx.mega.candidates.load(Ordering::Relaxed),
        candidates,
        reference_captured: ctx.equiv.get().is_some(),
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
