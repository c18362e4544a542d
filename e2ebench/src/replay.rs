//! In-process replay of the jobs a window sent to `factd`.
//!
//! A [`Mode::Worker`] replay runs each job exactly as a `factd` worker
//! does (`parse` → `decode_request` → `run_job`/`run_pareto_job`), which
//! gives the expected reply of every job and its service time. A
//! [`Mode::Traced`] replay calls each layer's public entry point itself
//! and records a span around every call, plus the compile/simulate/
//! estimate breakdown of `PhaseTimers`; [`Mode::Layers`] makes the same
//! calls untimed. Spans live in memory until the run writes them out.

use fact_core::{
    optimize_pareto_with, optimize_with, partition, EvalCache, FactError, FactResult,
    OptimizeHooks, ParetoFactResult, PhaseTimers, TransformLibrary,
};
use fact_estim::{evaluate, markov_of, section5_library};
use fact_sched::{schedule_with_memo, Allocation};
use fact_serve::job::run_pareto_job;
use fact_serve::{decode_request, parse, run_job, OptimizeRequest, Request};
use fact_sim::{generate, profile};
use fact_xform::Region;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The design a job returned.
#[derive(Debug)]
pub enum Design {
    /// An `optimize` job's result.
    Optimize(Box<FactResult>),
    /// A `pareto` job's result.
    Pareto(Box<ParetoFactResult>),
}

/// Work counters common to both job kinds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub evaluated: u64,
    pub cache_hits: u64,
    pub full_reschedules: u64,
    pub block_spliced: u64,
    pub sim_vectors: u64,
    pub sim_engine_scalar: u64,
    pub sim_engine_batched: u64,
    pub neighborhood_batches: u64,
    pub mega_lanes: u64,
    pub mega_candidates: u64,
}

impl Counters {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &Counters) {
        self.evaluated += o.evaluated;
        self.cache_hits += o.cache_hits;
        self.full_reschedules += o.full_reschedules;
        self.block_spliced += o.block_spliced;
        self.sim_vectors += o.sim_vectors;
        self.sim_engine_scalar += o.sim_engine_scalar;
        self.sim_engine_batched += o.sim_engine_batched;
        self.neighborhood_batches += o.neighborhood_batches;
        self.mega_lanes += o.mega_lanes;
        self.mega_candidates += o.mega_candidates;
    }
}

macro_rules! counters_of {
    ($r:expr) => {
        Counters {
            evaluated: $r.evaluated as u64,
            cache_hits: $r.cache_hits as u64,
            full_reschedules: $r.full_reschedules as u64,
            block_spliced: $r.block_spliced as u64,
            sim_vectors: $r.sim_vectors,
            sim_engine_scalar: $r.sim_engine_scalar,
            sim_engine_batched: $r.sim_engine_batched,
            neighborhood_batches: $r.neighborhood_batches,
            mega_lanes: $r.mega_lanes,
            mega_candidates: $r.mega_candidates,
        }
    };
}

impl Design {
    /// The run's work counters.
    pub fn counters(&self) -> Counters {
        match self {
            Design::Optimize(r) => counters_of!(r),
            Design::Pareto(r) => counters_of!(r),
        }
    }
}

/// One recorded span. `parent` indexes the run's span list.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// Span duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// `PhaseTimers` of one traced job, nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    pub compile_ns: u64,
    pub simulate_ns: u64,
    pub estimate_ns: u64,
}

/// One replayed job.
#[derive(Debug)]
pub struct Replayed {
    /// Sequence index of the request replayed.
    pub index: usize,
    /// Decode plus job execution, as a `factd` worker would spend it.
    pub service: Duration,
    /// The design, or the job's error.
    pub design: Result<Design, String>,
    /// Traced replay only: phase breakdown inside `core.optimize`.
    pub phases: Phases,
    /// Traced replay only: candidates the library offers on the input.
    pub candidates: usize,
}

/// A whole replay.
pub struct Replay {
    /// One entry per job, in input order.
    pub jobs: Vec<Replayed>,
    /// Wall time of the replay.
    pub wall: Duration,
    /// Spans of the traced replay (empty when untraced).
    pub spans: Vec<Span>,
}

fn decode(line: &str) -> Result<(OptimizeRequest, bool), String> {
    let v = parse(line).map_err(|e| e.to_string())?;
    match decode_request(&v).map_err(|e| e.to_string())? {
        Request::Optimize(r) => Ok((*r, false)),
        Request::Pareto(r) => Ok((*r, true)),
        other => Err(format!("not a job: {other:?}")),
    }
}

/// How a replay runs each job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Exactly as a `factd` worker: `run_job` / `run_pareto_job`.
    Worker,
    /// Layer by layer, untimed: the baseline of `trace.overhead`.
    Layers,
    /// Layer by layer, with spans and `PhaseTimers`.
    Traced,
}

fn as_worker(line: &str, cache: &EvalCache) -> Result<Design, String> {
    let (req, pareto) = decode(line)?;
    let stop = AtomicBool::new(false);
    let failed = |e: fact_serve::JobError| format!("{}: {}", e.code, e.message);
    if pareto {
        run_pareto_job(&req, cache, &stop)
            .map(|(_, r)| Design::Pareto(Box::new(r)))
            .map_err(failed)
    } else {
        run_job(&req, cache, &stop)
            .map(|(_, r)| Design::Optimize(Box::new(r)))
            .map_err(failed)
    }
}

/// Span recorder for one job; records nothing when `spans` is `None`.
struct JobTrace<'a> {
    job: usize,
    epoch: Instant,
    spans: Option<&'a mut Vec<Span>>,
}

impl JobTrace<'_> {
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let Some(spans) = self.spans.as_mut() else {
            return 0;
        };
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            job: self.job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        if let Some(spans) = self.spans.as_mut() {
            spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }
}

fn fact_error(e: FactError) -> String {
    e.to_string()
}

/// Runs one job by calling each layer's public entry point in turn.
fn layered(
    line: &str,
    cache: &EvalCache,
    tr: &mut JobTrace<'_>,
    phases: &mut Phases,
    candidates: &mut usize,
) -> Result<Design, String> {
    let root = tr.open("job", None);
    let (req, pareto) = tr.span("serve.decode", root, || decode(line))?;
    let f = tr
        .span("lang.compile", root, || fact_lang::compile(&req.source))
        .map_err(|e| e.to_string())?;
    let (library, rules) = section5_library();
    let mut alloc = Allocation::new();
    for (name, count) in &req.alloc {
        let fu = library
            .by_name(name)
            .ok_or_else(|| format!("unknown unit {name}"))?;
        alloc.set(fu, *count);
    }
    let t = &req.traces;
    let traces = tr.span("sim.generate", root, || generate(&t.inputs, t.n, t.seed));
    let config = &req.config;

    // Probes: each layer's public entry point on the job's input.
    let prof = tr.span("sim.profile", root, || profile(&f, &traces));
    let sr = tr
        .span("sched.baseline", root, || {
            schedule_with_memo(&f, &library, &rules, &alloc, &prof, &config.sched, None)
        })
        .map_err(|e| e.to_string())?;
    let markov = tr.span("estim.baseline", root, || {
        let m = markov_of(&sr)?;
        evaluate(&sr, &library, config.sched.clock_ns)?;
        Ok::<_, String>(m)
    })?;
    *candidates = tr.span("xform.candidates", root, || {
        TransformLibrary::full()
            .all_candidates(&f, &Region::whole())
            .len()
    });
    tr.span("core.partition", root, || {
        partition(&sr.stg, &markov, &config.partition)
    });

    let timers = PhaseTimers::default();
    let hooks = OptimizeHooks {
        cache: Some(cache),
        stop: None,
        timers: tr.spans.is_some().then_some(&timers),
    };
    let tlib = TransformLibrary::full();
    let design = tr.span("core.optimize", root, || {
        if pareto {
            optimize_pareto_with(&f, &library, &rules, &alloc, &traces, &tlib, config, hooks)
                .map(|r| Design::Pareto(Box::new(r)))
                .map_err(fact_error)
        } else {
            optimize_with(&f, &library, &rules, &alloc, &traces, &tlib, config, hooks)
                .map(|r| Design::Optimize(Box::new(r)))
                .map_err(fact_error)
        }
    });
    tr.close(root);
    *phases = Phases {
        compile_ns: timers.compile_ns.load(Ordering::Relaxed),
        simulate_ns: timers.simulate_ns.load(Ordering::Relaxed),
        estimate_ns: timers.estimate_ns.load(Ordering::Relaxed),
    };
    design
}

/// Replays `jobs` (sequence index, request line) on `threads` threads
/// against `cache`.
pub fn replay(jobs: &[(usize, &str)], cache: &EvalCache, mode: Mode, threads: usize) -> Replay {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Replayed, Vec<Span>)>> = Mutex::new(Vec::new());
    let epoch = Instant::now();
    thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::SeqCst);
                let Some(&(index, line)) = jobs.get(k) else {
                    return;
                };
                let mut spans = Vec::new();
                let mut phases = Phases::default();
                let mut candidates = 0;
                let t0 = Instant::now();
                let design = if mode == Mode::Worker {
                    as_worker(line, cache)
                } else {
                    let mut tr = JobTrace {
                        job: index,
                        epoch,
                        spans: (mode == Mode::Traced).then_some(&mut spans),
                    };
                    layered(line, cache, &mut tr, &mut phases, &mut candidates)
                };
                let job = Replayed {
                    index,
                    service: t0.elapsed(),
                    design,
                    phases,
                    candidates,
                };
                done.lock()
                    .expect("no replay thread panics while holding the list")
                    .push((k, job, spans));
            });
        }
    });
    let wall = epoch.elapsed();
    let mut done = done.into_inner().expect("replay threads have exited");
    done.sort_by_key(|(k, _, _)| *k);
    let mut all_spans = Vec::new();
    let mut out = Vec::with_capacity(done.len());
    for (_, job, spans) in done {
        let base = all_spans.len();
        all_spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        out.push(job);
    }
    Replay {
        jobs: out,
        wall,
        spans: all_spans,
    }
}
