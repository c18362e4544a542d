//! The `factd` daemon: connection front end plus worker pool.
//!
//! ## Thread structure
//!
//! The connection **front end** comes in two flavors, selected by
//! [`ServerConfig::io_model`] (see `docs/SERVER.md` and DESIGN.md §12):
//!
//! - [`IoModel::Epoll`] (Linux default): a single event-loop thread (the
//!   one calling [`Server::run`]) multiplexes the nonblocking listener
//!   and every client socket through `epoll`. Each connection is a state
//!   machine — read buffer → newline framing → job dispatch, bounded
//!   outbox with partial-write resumption — and worker threads hand
//!   finished replies back through an `eventfd` wakeup. The loop
//!   enforces the connection lifecycle policy: a max-connections cap, an
//!   idle timeout, and slow-client disconnects when an outbox exceeds
//!   its cap.
//! - [`IoModel::Threads`] (portable fallback, `--io-model threads`): the
//!   accept loop spawns a thread per client; each reads requests,
//!   enqueues jobs, and waits (with the job's deadline) for the reply.
//!
//! Under either front end, on deadline expiry the connection raises the
//! job's cancellation flag; the search winds down at the next evaluation
//! boundary and replies with its best-so-far under `status:"timeout"`.
//!
//! - **worker pool**: [`ServerConfig::workers`] threads popping jobs
//!   from the bounded [`JobQueue`]. Each job runs inside a
//!   `catch_unwind` (a panicking evaluation fails only that job, with
//!   `error:"internal"`), and each worker runs under a supervisor that
//!   respawns it if a panic escapes the per-job catch.
//! - **stats logger** (optional): prints one counters line per interval.
//! - **snapshot thread** (with `--cache-file`): persists the shared
//!   evaluation cache atomically (tmp + rename) every
//!   [`ServerConfig::cache_snapshot_every_s`] seconds and at shutdown,
//!   so a restart warm-starts from the last good snapshot.
//!
//! ## Overload
//!
//! Admission is deadline-aware: the server keeps an EWMA of job service
//! time, and a job whose `timeout_ms` budget cannot be met at the
//! current queue depth is rejected immediately (`error:"busy"` with a
//! `retry_after_ms` hint) instead of queueing to certain death. At
//! capacity, a higher-priority job may evict the lowest-priority queued
//! job, whose client gets `error:"shed"` plus the same hint.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (also triggered by a `shutdown` request or
//! by SIGINT/SIGTERM in `factd`) closes the queue, raises every
//! in-flight job's cancellation flag, and wakes the accept loop; workers
//! drain, reply, and exit, and [`Server::run`] returns.

use crate::faults::{FaultPlan, FaultSpec, FaultyWriter};
use crate::job::{run_job, run_pareto_job, JobError};
use crate::json::{parse, Value};
use crate::protocol::{
    decode_request, error_reply, error_reply_with_retry, OptimizeRequest, Request,
};
use crate::queue::{JobQueue, PushOutcome};
use crate::stats::ServerStats;
use fact_core::EvalCache;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// How long after cancellation a job gets to wind down and deliver its
/// best-so-far before the connection gives up on it entirely.
pub(crate) const WIND_DOWN_GRACE: Duration = Duration::from_secs(10);

/// Logs one line to stderr, swallowing write errors. `eprintln!` panics
/// when stderr is a closed pipe (a dead log collector); a log line must
/// never take down the shutdown path or the logger thread with it.
macro_rules! log_stderr {
    ($($arg:tt)*) => {
        let _ = writeln!(io::stderr(), $($arg)*);
    };
}
pub(crate) use log_stderr;

/// Which connection front end the daemon runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoModel {
    /// A single event-loop thread multiplexing every connection through
    /// `epoll` (Linux only; the default there).
    Epoll,
    /// One thread per connection — the portable fallback, and the
    /// default off Linux.
    Threads,
}

impl Default for IoModel {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            IoModel::Epoll
        } else {
            IoModel::Threads
        }
    }
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "epoll" if cfg!(target_os = "linux") => Ok(IoModel::Epoll),
            "epoll" => Err("io model `epoll` requires Linux; use `threads`".into()),
            "threads" => Ok(IoModel::Threads),
            other => Err(format!(
                "unknown io model `{other}` (expected `epoll` or `threads`)"
            )),
        }
    }
}

impl std::fmt::Display for IoModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoModel::Epoll => "epoll",
            IoModel::Threads => "threads",
        })
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7348` (port 0 picks an ephemeral
    /// port; see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity; beyond it, jobs are rejected (`busy`).
    pub queue_capacity: usize,
    /// Deadline for jobs that do not set their own `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Shard count for the shared evaluation cache (rounded up to a
    /// power of two).
    pub cache_shards: usize,
    /// Seconds between stats log lines; 0 disables the logger.
    pub stats_interval_s: u64,
    /// Print connection/shutdown/stats lines to stderr.
    pub log: bool,
    /// Persistent evaluation-cache snapshot path; `None` keeps the cache
    /// memory-only. Loaded (warm start) at bind, saved at shutdown.
    pub cache_file: Option<String>,
    /// Seconds between periodic cache snapshots; 0 saves only at
    /// shutdown. Ignored without `cache_file`.
    pub cache_snapshot_every_s: u64,
    /// Fault-injection plan for chaos testing; the default is inert.
    pub faults: FaultSpec,
    /// Connection front end (see [`IoModel`]).
    pub io_model: IoModel,
    /// Max simultaneously open client connections under the event loop;
    /// excess connections are accepted and immediately closed so the
    /// client sees a clean EOF instead of a hung SYN backlog slot.
    pub max_connections: usize,
    /// Seconds an event-loop connection may sit idle (no request in
    /// flight, nothing buffered) before it is closed; 0 disables.
    pub idle_timeout_s: u64,
    /// Per-connection outbox cap in bytes under the event loop. A client
    /// that stops reading while replies accumulate past this is
    /// disconnected (`slow_client_disconnects`) instead of being allowed
    /// to pin server memory.
    pub max_outbox_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map_or(2, |n| n.get());
        ServerConfig {
            addr: "127.0.0.1:7348".into(),
            workers,
            queue_capacity: 64,
            default_timeout_ms: 120_000,
            cache_shards: 16,
            stats_interval_s: 30,
            log: true,
            cache_file: None,
            cache_snapshot_every_s: 0,
            faults: FaultSpec::default(),
            io_model: IoModel::default(),
            max_connections: 4096,
            idle_timeout_s: 300,
            max_outbox_bytes: 1 << 20,
        }
    }
}

/// Where a finished job's outcome goes: the blocked connection thread
/// that submitted it (threads model) or the event loop's completion
/// queue (epoll model).
pub(crate) enum ReplyTo {
    /// The thread model's per-request channel; a dropped sender is how
    /// the waiting connection learns its worker died.
    Thread(mpsc::Sender<Result<Value, JobError>>),
    /// The event loop's completion queue; the drop behavior of the
    /// channel is reproduced by [`crate::event_loop::LoopReply`].
    #[cfg(target_os = "linux")]
    Loop(crate::event_loop::LoopReply),
}

impl ReplyTo {
    /// Delivers the outcome, best-effort — the client may already be
    /// gone, which no sender needs to know about.
    pub(crate) fn send(self, outcome: Result<Value, JobError>) {
        match self {
            ReplyTo::Thread(tx) => drop(tx.send(outcome)),
            #[cfg(target_os = "linux")]
            ReplyTo::Loop(reply) => reply.send(outcome),
        }
    }
}

/// One queued optimization job.
pub(crate) struct Job {
    req: OptimizeRequest,
    /// `true` routes through the Pareto-frontier pipeline instead of the
    /// single-objective search.
    pareto: bool,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    reply: ReplyTo,
}

/// The per-job counter deltas both job kinds fold into [`ServerStats`].
struct JobCounters {
    evaluated: u64,
    full_reschedules: u64,
    block_spliced: u64,
    sim_vectors: u64,
    candidates_inherited: u64,
    candidates_proved: u64,
    candidates_derived: u64,
    candidates_simulated: u64,
    /// Whether the job captured the equivalence reference.
    reference_captured: bool,
    neighborhood_batches: u64,
    mega_lanes: u64,
    mega_candidates: u64,
    neighborhoods_memoized: u64,
    neighborhoods_built: u64,
    verdicts_memoized: u64,
    stopped: bool,
}

/// State shared by every thread of one server.
pub(crate) struct Shared {
    pub(crate) config: ServerConfig,
    queue: JobQueue<Job>,
    pub(crate) stats: ServerStats,
    cache: EvalCache,
    pub(crate) shutdown: AtomicBool,
    /// Cancellation flags of in-flight jobs, so shutdown can stop them.
    active: Mutex<Vec<Weak<AtomicBool>>>,
    addr: Mutex<Option<SocketAddr>>,
    pub(crate) faults: FaultPlan,
}

impl Shared {
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down
        }
        if self.config.log {
            log_stderr!("factd: shutting down");
        }
        self.queue.close();
        for flag in self.active.lock().unwrap().iter() {
            if let Some(flag) = flag.upgrade() {
                flag.store(true, Ordering::SeqCst);
            }
        }
        // Unblock the accept loop with a self-connection.
        if let Some(addr) = *self.addr.lock().unwrap() {
            let _ = TcpStream::connect(addr);
        }
    }

    fn register_active(&self, flag: &Arc<AtomicBool>) {
        let mut active = self.active.lock().unwrap();
        active.retain(|w| w.strong_count() > 0);
        active.push(Arc::downgrade(flag));
    }

    /// Backoff hint for `busy`/`shed` replies: the estimated time for
    /// one queue slot to free up at the current depth, clamped to a
    /// sane retry window.
    fn retry_hint_ms(&self) -> u64 {
        let avg = self.stats.avg_service_ms().max(100);
        let depth = self.queue.len() as u64;
        let workers = self.config.workers.max(1) as u64;
        (avg * (depth + 1) / workers).clamp(10, 60_000)
    }

    /// Saves the cache snapshot (atomic tmp + rename), then lets the
    /// fault plan corrupt it if a `corrupt` injection is drawn — chaos
    /// tests recover from the corruption on the next warm start.
    fn save_cache_snapshot(&self, path: &str) {
        match self.cache.save_snapshot(Path::new(path)) {
            Ok(entries) => {
                self.stats.note_snapshot();
                if self.faults.maybe_corrupt_snapshot(Path::new(path)) && self.config.log {
                    log_stderr!("factd: injected fault: snapshot {path} corrupted");
                }
                if self.config.log {
                    log_stderr!("factd: cache snapshot: {entries} entries to {path}");
                }
            }
            Err(e) => {
                if self.config.log {
                    log_stderr!("factd: cache snapshot to {path} failed: {e}");
                }
            }
        }
    }
}

/// A bound (but not yet running) daemon.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
}

/// A clonable handle for stopping a running [`Server`] from another
/// thread (tests, signal monitors).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Initiates graceful shutdown; idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl Server {
    /// Binds the listener. The server does not accept or spawn anything
    /// until [`Server::run`].
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = EvalCache::new(config.cache_shards.max(1));
        let faults = FaultPlan::new(config.faults.clone());
        if config.log && faults.is_armed() {
            log_stderr!("factd: FAULT INJECTION ARMED ({:?})", config.faults);
        }
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            stats: ServerStats::new(),
            cache,
            shutdown: AtomicBool::new(false),
            active: Mutex::new(Vec::new()),
            addr: Mutex::new(Some(addr)),
            faults,
            config,
        });
        // Warm start: load the last good cache snapshot, if any. A
        // corrupt tail is truncated away; a missing file is a cold
        // start, not an error.
        if let Some(path) = shared.config.cache_file.clone() {
            match shared.cache.load_snapshot(Path::new(&path)) {
                Ok(load) => {
                    shared
                        .stats
                        .cache_warm_entries
                        .store(load.entries as u64, Ordering::Relaxed);
                    if shared.config.log {
                        log_stderr!(
                            "factd: warm cache: {} entries from {path}{}",
                            load.entries,
                            if load.truncated {
                                " (corrupt tail truncated)"
                            } else {
                                ""
                            },
                        );
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    if shared.config.log {
                        log_stderr!("factd: cache snapshot {path} unreadable ({e}); cold start");
                    }
                }
            }
        }
        Ok(Server { shared, listener })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for shutting the server down from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon on the calling thread until shutdown, then joins
    /// the worker pool and returns.
    pub fn run(self) -> io::Result<()> {
        let Server { shared, listener } = self;
        if shared.config.log {
            log_stderr!(
                "factd: listening on {} ({} io, {} workers, queue {}, default timeout {}ms)",
                listener.local_addr()?,
                shared.config.io_model,
                shared.config.workers,
                shared.config.queue_capacity,
                shared.config.default_timeout_ms,
            );
        }

        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Supervisor: a panic that escapes the per-job catch
                // (e.g. an injected worker kill) unwinds `worker_loop`;
                // re-entering it is the respawn. The queue and all
                // shared state live outside the loop, so nothing is
                // lost but the job the worker was holding — whose
                // client gets `internal` from its dropped reply sender.
                thread::spawn(move || loop {
                    match catch_unwind(AssertUnwindSafe(|| worker_loop(&shared))) {
                        Ok(()) => break, // queue closed: clean exit
                        Err(_) => {
                            shared
                                .stats
                                .workers_respawned
                                .fetch_add(1, Ordering::Relaxed);
                            if shared.config.log {
                                log_stderr!("factd: worker {i} died; respawning");
                            }
                        }
                    }
                })
            })
            .collect();
        let logger = (shared.config.stats_interval_s > 0).then(|| {
            let shared = Arc::clone(&shared);
            thread::spawn(move || logger_loop(&shared))
        });
        let snapshotter = shared
            .config
            .cache_file
            .is_some()
            .then(|| {
                let shared = Arc::clone(&shared);
                (shared.config.cache_snapshot_every_s > 0)
                    .then(|| thread::spawn(move || snapshot_loop(&shared)))
            })
            .flatten();

        let front_end = run_front_end(&shared, listener);
        if front_end.is_err() {
            // A fatal listener error takes the daemon down gracefully:
            // workers drain and the error propagates to the caller.
            shared.begin_shutdown();
        }

        for w in workers {
            let _ = w.join();
        }
        if let Some(l) = logger {
            let _ = l.join();
        }
        if let Some(s) = snapshotter {
            let _ = s.join();
        }
        // Final snapshot after the workers have drained, so the file
        // holds everything this run learned.
        if let Some(path) = shared.config.cache_file.clone() {
            shared.save_cache_snapshot(&path);
        }
        if shared.config.log {
            log_stderr!("{}", shared.stats.log_line(&shared.cache));
        }
        front_end
    }
}

/// Dispatches to the configured connection front end.
#[cfg(target_os = "linux")]
fn run_front_end(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<()> {
    match shared.config.io_model {
        IoModel::Epoll => crate::event_loop::run_event_loop(shared, listener),
        IoModel::Threads => run_thread_model(shared, listener),
    }
}

/// Dispatches to the configured connection front end. Off Linux, epoll
/// is unavailable ([`IoModel::from_str`] rejects it), so every model
/// runs the portable thread-per-connection front end.
#[cfg(not(target_os = "linux"))]
fn run_front_end(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<()> {
    run_thread_model(shared, listener)
}

/// The thread-per-connection front end: accept, spawn, repeat until
/// shutdown (which wakes the blocking accept with a self-connection).
fn run_thread_model(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<()> {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let stats = &shared.stats;
                stats.connections_total.fetch_add(1, Ordering::Relaxed);
                stats.connections_open.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                thread::spawn(move || {
                    handle_connection(&shared, stream);
                    shared
                        .stats
                        .connections_open
                        .fetch_sub(1, Ordering::Relaxed);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Queued but never started; tell the waiting connection.
            job.reply.send(Err(JobError {
                code: "shutdown",
                message: "server shutting down".into(),
                retry_after_ms: None,
            }));
            continue;
        }
        shared.register_active(&job.cancel);
        // Injected worker kill: panics while holding the job, *outside*
        // the per-job catch below — the reply sender drops (the waiting
        // connection sees Disconnected → `internal`) and the unwind
        // escapes to the supervisor, which respawns this worker.
        shared.faults.maybe_kill_worker();
        if let Some(delay) = shared.faults.eval_delay() {
            thread::sleep(delay);
        }
        let started = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| execute_job(shared, &job))) {
            Ok(Ok((reply, c))) => {
                fold_counters(shared, &c);
                let counter = if c.stopped {
                    &shared.stats.timed_out
                } else {
                    &shared.stats.completed
                };
                counter.fetch_add(1, Ordering::Relaxed);
                shared
                    .stats
                    .record_service_ms(started.elapsed().as_millis() as u64);
                shared
                    .stats
                    .record_latency_ms(job.submitted.elapsed().as_millis() as u64);
                job.reply.send(Ok(reply));
            }
            Ok(Err(e)) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Err(e));
            }
            Err(_) => {
                // The evaluation panicked (a bug or an injected fault).
                // The panic is contained to this job: its client gets a
                // documented `internal` error and the worker lives on.
                shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Err(JobError {
                    code: "internal",
                    message: "candidate evaluation panicked; job aborted".into(),
                    retry_after_ms: None,
                }));
            }
        }
    }
}

/// Runs one job through its pipeline. Called inside the per-job
/// `catch_unwind`; a panic anywhere below fails only this job.
fn execute_job(shared: &Shared, job: &Job) -> Result<(Value, JobCounters), JobError> {
    shared.faults.maybe_eval_panic();
    // Route by job kind; both pipelines report the same counter set,
    // plus the per-kind job/point counters folded inline.
    if job.pareto {
        run_pareto_job(&job.req, &shared.cache, &job.cancel).map(|(reply, r)| {
            shared.stats.pareto_jobs.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .pareto_points
                .fetch_add(r.frontier.len() as u64, Ordering::Relaxed);
            (
                reply,
                JobCounters {
                    evaluated: r.evaluated as u64,
                    full_reschedules: r.full_reschedules as u64,
                    block_spliced: r.block_spliced as u64,
                    sim_vectors: r.sim_vectors,
                    candidates_inherited: r.candidates.inherited_total(),
                    candidates_proved: r.candidates.proved_total(),
                    candidates_derived: r.candidates.derived_total(),
                    candidates_simulated: r.candidates.simulated_total(),
                    reference_captured: r.reference_captured,
                    neighborhood_batches: r.neighborhood_batches,
                    mega_lanes: r.mega_lanes,
                    mega_candidates: r.mega_candidates,
                    neighborhoods_memoized: r.neighborhoods_memoized,
                    neighborhoods_built: r.neighborhoods_built,
                    verdicts_memoized: r.verdicts_memoized,
                    stopped: r.stopped,
                },
            )
        })
    } else {
        run_job(&job.req, &shared.cache, &job.cancel).map(|(reply, r)| {
            shared.stats.optimize_jobs.fetch_add(1, Ordering::Relaxed);
            (
                reply,
                JobCounters {
                    evaluated: r.evaluated as u64,
                    full_reschedules: r.full_reschedules as u64,
                    block_spliced: r.block_spliced as u64,
                    sim_vectors: r.sim_vectors,
                    candidates_inherited: r.candidates.inherited_total(),
                    candidates_proved: r.candidates.proved_total(),
                    candidates_derived: r.candidates.derived_total(),
                    candidates_simulated: r.candidates.simulated_total(),
                    reference_captured: r.reference_captured,
                    neighborhood_batches: r.neighborhood_batches,
                    mega_lanes: r.mega_lanes,
                    mega_candidates: r.mega_candidates,
                    neighborhoods_memoized: r.neighborhoods_memoized,
                    neighborhoods_built: r.neighborhoods_built,
                    verdicts_memoized: r.verdicts_memoized,
                    stopped: r.stopped,
                },
            )
        })
    }
}

/// Folds one job's counter deltas into the server totals.
fn fold_counters(shared: &Shared, c: &JobCounters) {
    let s = &shared.stats;
    s.evaluations.fetch_add(c.evaluated, Ordering::Relaxed);
    s.full_reschedules
        .fetch_add(c.full_reschedules, Ordering::Relaxed);
    s.block_spliced
        .fetch_add(c.block_spliced, Ordering::Relaxed);
    s.sim_vectors.fetch_add(c.sim_vectors, Ordering::Relaxed);
    s.candidates_inherited
        .fetch_add(c.candidates_inherited, Ordering::Relaxed);
    s.candidates_proved
        .fetch_add(c.candidates_proved, Ordering::Relaxed);
    s.candidates_derived
        .fetch_add(c.candidates_derived, Ordering::Relaxed);
    s.candidates_simulated
        .fetch_add(c.candidates_simulated, Ordering::Relaxed);
    s.references_captured
        .fetch_add(u64::from(c.reference_captured), Ordering::Relaxed);
    s.neighborhood_batches
        .fetch_add(c.neighborhood_batches, Ordering::Relaxed);
    s.mega_lanes.fetch_add(c.mega_lanes, Ordering::Relaxed);
    s.mega_candidates
        .fetch_add(c.mega_candidates, Ordering::Relaxed);
    s.neighborhoods_memoized
        .fetch_add(c.neighborhoods_memoized, Ordering::Relaxed);
    s.neighborhoods_built
        .fetch_add(c.neighborhoods_built, Ordering::Relaxed);
    s.verdicts_memoized
        .fetch_add(c.verdicts_memoized, Ordering::Relaxed);
}

/// Periodically persists the evaluation cache while the server runs.
fn snapshot_loop(shared: &Shared) {
    let interval = Duration::from_secs(shared.config.cache_snapshot_every_s);
    let tick = Duration::from_millis(200);
    let mut since_save = Duration::ZERO;
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(tick);
        since_save += tick;
        if since_save >= interval {
            since_save = Duration::ZERO;
            if let Some(path) = shared.config.cache_file.clone() {
                shared.save_cache_snapshot(&path);
            }
        }
    }
}

fn logger_loop(shared: &Shared) {
    let interval = Duration::from_secs(shared.config.stats_interval_s);
    let tick = Duration::from_millis(200);
    let mut since_line = Duration::ZERO;
    while !shared.shutdown.load(Ordering::SeqCst) {
        thread::sleep(tick);
        since_line += tick;
        if since_line >= interval {
            since_line = Duration::ZERO;
            if shared.config.log {
                log_stderr!("{}", shared.stats.log_line(&shared.cache));
            }
        }
    }
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    // The reply path goes through the fault plan's writer wrapper: with
    // `io` faults armed it produces Interrupted errors and short writes,
    // which `write_all` absorbs — proving the reply path survives
    // everything a real socket can throw at it.
    let mut writer = FaultyWriter::new(stream, &shared.faults);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (reply, shutdown_after) = handle_line(shared, &line);
        if write_line(&mut writer, &reply).is_err() {
            break;
        }
        if shutdown_after {
            shared.begin_shutdown();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn write_line(writer: &mut impl Write, reply: &Value) -> io::Result<()> {
    let mut line = reply.to_json();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// What one request line asks the front end to do — the I/O-model-free
/// half of request handling, shared by the event loop and the
/// thread-per-connection path.
pub(crate) enum LineOutcome {
    /// An immediate reply (ping, stats, or a parse/decode error).
    Reply(Value),
    /// Write the reply, then begin graceful shutdown.
    ReplyThenShutdown(Value),
    /// An optimize/pareto job to admit.
    Submit {
        /// The decoded job request.
        req: Box<OptimizeRequest>,
        /// `true` for the Pareto-frontier pipeline.
        pareto: bool,
    },
}

/// Parses and classifies one request line.
pub(crate) fn classify_line(shared: &Shared, line: &str) -> LineOutcome {
    let value = match parse(line) {
        Ok(v) => v,
        Err(e) => return LineOutcome::Reply(error_reply("", "parse", &e.to_string())),
    };
    let request = match decode_request(&value) {
        Ok(r) => r,
        Err(e) => {
            let id = value.get("id").and_then(Value::as_str).unwrap_or("");
            return LineOutcome::Reply(error_reply(id, "request", &e.0));
        }
    };
    match request {
        Request::Ping => LineOutcome::Reply(Value::object([("type", Value::Str("pong".into()))])),
        Request::Stats => LineOutcome::Reply(shared.stats.snapshot(&shared.cache)),
        Request::Shutdown => {
            LineOutcome::ReplyThenShutdown(Value::object([("type", Value::Str("ok".into()))]))
        }
        Request::Optimize(req) => LineOutcome::Submit { req, pareto: false },
        Request::Pareto(req) => LineOutcome::Submit { req, pareto: true },
    }
}

/// The job's deadline budget, from its request or the server default.
pub(crate) fn job_timeout(shared: &Shared, req: &OptimizeRequest) -> Duration {
    Duration::from_millis(
        req.timeout_ms
            .unwrap_or(shared.config.default_timeout_ms)
            .max(1),
    )
}

/// Executes one request line; the bool asks the caller to begin
/// shutdown after writing the reply.
fn handle_line(shared: &Shared, line: &str) -> (Value, bool) {
    match classify_line(shared, line) {
        LineOutcome::Reply(v) => (v, false),
        LineOutcome::ReplyThenShutdown(v) => (v, true),
        LineOutcome::Submit { req, pareto } => (handle_optimize(shared, *req, pareto), false),
    }
}

/// The admission path both front ends share: deadline-aware busy
/// rejection, then [`JobQueue::push_or_shed`] with priority eviction.
/// `Ok` carries the admitted job's cancellation flag; `Err` carries the
/// reply to send right now (`busy`, `shed` victims are notified
/// internally, `shutdown`).
pub(crate) fn admit_job(
    shared: &Shared,
    req: OptimizeRequest,
    pareto: bool,
    timeout: Duration,
    reply: ReplyTo,
) -> Result<Arc<AtomicBool>, Value> {
    let id = req.id.clone();

    // Deadline-aware admission: if the expected queue wait (service-time
    // EWMA × depth ÷ workers) already exceeds this job's whole budget,
    // queueing it only wastes a slot — reject now with a backoff hint.
    // An idle server (EWMA 0 or empty queue) always admits.
    let avg_ms = shared.stats.avg_service_ms();
    let depth = shared.queue.len() as u64;
    let est_wait_ms = avg_ms * depth / shared.config.workers.max(1) as u64;
    if est_wait_ms > timeout.as_millis() as u64 {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Err(error_reply_with_retry(
            &id,
            "busy",
            &format!(
                "estimated queue wait {est_wait_ms}ms exceeds the job's {}ms budget",
                timeout.as_millis()
            ),
            Some(shared.retry_hint_ms()),
        ));
    }

    let cancel = Arc::new(AtomicBool::new(false));
    let job = Job {
        req,
        pareto,
        cancel: Arc::clone(&cancel),
        submitted: Instant::now(),
        reply,
    };
    match shared.queue.push_or_shed(job, |j| j.req.priority) {
        PushOutcome::Admitted => {}
        PushOutcome::Shed(victim) => {
            // This job displaced the lowest-priority queued job; the
            // victim's waiting connection gets `shed` + a backoff hint.
            shared.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
            victim.reply.send(Err(JobError {
                code: "shed",
                message: "shed from a full queue by a higher-priority job; retry later".into(),
                retry_after_ms: Some(shared.retry_hint_ms()),
            }));
        }
        PushOutcome::Full => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(error_reply_with_retry(
                &id,
                "busy",
                &format!(
                    "job queue full ({} pending); retry later",
                    shared.config.queue_capacity
                ),
                Some(shared.retry_hint_ms()),
            ));
        }
        PushOutcome::Closed => {
            return Err(error_reply(&id, "shutdown", "server shutting down"));
        }
    }
    shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
    Ok(cancel)
}

fn handle_optimize(shared: &Shared, req: OptimizeRequest, pareto: bool) -> Value {
    let id = req.id.clone();
    let timeout = job_timeout(shared, &req);
    let (tx, rx) = mpsc::channel();
    let cancel = match admit_job(shared, req, pareto, timeout, ReplyTo::Thread(tx)) {
        Ok(cancel) => cancel,
        Err(reply) => return reply,
    };

    match rx.recv_timeout(timeout) {
        Ok(outcome) => finish(&id, outcome),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            // Deadline passed: cancel the job, then give it a grace
            // period to wind down and deliver its best-so-far (the
            // reply will carry `status:"timeout"`).
            cancel.store(true, Ordering::SeqCst);
            match rx.recv_timeout(WIND_DOWN_GRACE) {
                Ok(outcome) => finish(&id, outcome),
                Err(mpsc::RecvTimeoutError::Timeout) => error_reply(
                    &id,
                    "timeout",
                    &format!(
                        "job exceeded {}ms and did not wind down",
                        timeout.as_millis()
                    ),
                ),
                // The worker died holding the job (sender dropped) —
                // that is a worker failure, not a slow wind-down.
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    error_reply(&id, "internal", "worker exited before replying")
                }
            }
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            error_reply(&id, "internal", "worker exited before replying")
        }
    }
}

/// Converts a worker outcome into the wire reply.
pub(crate) fn finish(id: &str, outcome: Result<Value, JobError>) -> Value {
    match outcome {
        Ok(reply) => reply,
        Err(e) => error_reply_with_retry(id, e.code, &e.message, e.retry_after_ms),
    }
}

/// Installs SIGINT/SIGTERM handlers that raise the returned flag; a
/// monitor thread in `factd` polls it and triggers graceful shutdown.
/// No-op (always-false flag) on non-Unix targets.
pub fn install_signal_flag() -> &'static AtomicBool {
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            // POSIX `signal(2)`; libc is always linked on unix targets.
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` is async-signal-safe (one atomic store),
        // and `signal` itself takes no pointers beyond the handler.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
    &SIGNALLED
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 4,
            default_timeout_ms: 60_000,
            cache_shards: 8,
            stats_interval_s: 0,
            log: false,
            cache_file: None,
            cache_snapshot_every_s: 0,
            faults: FaultSpec::default(),
            ..ServerConfig::default()
        }
    }

    fn start(config: ServerConfig) -> (SocketAddr, ServerHandle, thread::JoinHandle<()>) {
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let join = thread::spawn(move || server.run().unwrap());
        (addr, handle, join)
    }

    fn roundtrip(addr: SocketAddr, line: &str) -> Value {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        parse(reply.trim()).unwrap()
    }

    #[test]
    fn ping_stats_and_errors_over_the_wire() {
        let (addr, handle, join) = start(quiet_config());
        assert_eq!(
            roundtrip(addr, r#"{"type":"ping"}"#)
                .get("type")
                .unwrap()
                .as_str(),
            Some("pong")
        );
        let stats = roundtrip(addr, r#"{"type":"stats"}"#);
        assert_eq!(stats.get("jobs_submitted").unwrap().as_i64(), Some(0));
        let err = roundtrip(addr, "this is not json");
        assert_eq!(err.get("error").unwrap().as_str(), Some("parse"));
        let err = roundtrip(addr, r#"{"type":"levitate"}"#);
        assert_eq!(err.get("error").unwrap().as_str(), Some("request"));
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let (addr, _handle, join) = start(quiet_config());
        let reply = roundtrip(addr, r#"{"type":"shutdown"}"#);
        assert_eq!(reply.get("type").unwrap().as_str(), Some("ok"));
        join.join().unwrap();
        // Further optimize requests are refused (connection fails or
        // the queue is closed) — the listener is gone.
        assert!(
            TcpStream::connect(addr).is_err() || {
                let r = roundtrip(addr, r#"{"type":"ping"}"#);
                r.get("type").is_some()
            }
        );
    }
}
