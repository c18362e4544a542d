//! The `factd` daemon: connection front end plus worker pool.
//!
//! ## Thread structure
//!
//! - **front end**: the thread calling [`Server::run`] accepts clients
//!   and spawns one thread per connection. Each connection thread reads
//!   newline-framed requests, answers ping/stats/shutdown itself, and
//!   enqueues jobs, waiting (with the job's deadline) for each reply
//!   before it reads the next request. On deadline expiry it raises the
//!   job's cancellation flag; the search winds down at the next
//!   evaluation boundary and replies with its best-so-far under
//!   `status:"timeout"`. The front end enforces the connection
//!   lifecycle (see `docs/SERVER.md`): the
//!   [`ServerConfig::max_connections`] cap, [`ServerConfig::idle_timeout_s`]
//!   as the socket's read timeout (idle clients) and write timeout
//!   (clients that stop reading), and a cap on one request line.
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
//! in-flight job's cancellation flag, and wakes the accept loop. The
//! front end then shuts the read half of every open connection, which
//! wakes idle connection threads with EOF, and joins the connection
//! threads: one that owes a reply writes it first. Workers drain, reply,
//! and exit, and [`Server::run`] returns.

use crate::faults::{FaultPlan, FaultSpec, FaultyWriter};
use crate::job::{run_job, run_pareto_job, JobError};
use crate::json::{parse, Value};
use crate::protocol::{
    decode_request, error_reply, error_reply_with_retry, OptimizeRequest, Request,
};
use crate::queue::{JobQueue, PushOutcome};
use crate::stats::ServerStats;
use fact_core::EvalCache;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// How long after cancellation a job gets to wind down and deliver its
/// best-so-far before the connection gives up on it entirely.
const WIND_DOWN_GRACE: Duration = Duration::from_secs(10);

/// Cap on one request line. Requests carry source text, so the cap is
/// generous; a client that exceeds it without a newline cannot be
/// resynchronized and is disconnected after a `request` error reply.
const MAX_LINE_BYTES: usize = 8 << 20;

/// Logs one line to stderr, swallowing write errors. `eprintln!` panics
/// when stderr is a closed pipe (a dead log collector); a log line must
/// never take down the shutdown path or the logger thread with it.
macro_rules! log_stderr {
    ($($arg:tt)*) => {
        let _ = writeln!(io::stderr(), $($arg)*);
    };
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
    /// Max simultaneously open client connections; excess connections
    /// are accepted and immediately closed so the client sees a clean
    /// EOF instead of a hung SYN backlog slot.
    pub max_connections: usize,
    /// Seconds a connection may wait for its next request, and a reply
    /// may wait for the client to read it, before the connection is
    /// closed (`idle_disconnects`, `slow_client_disconnects`); 0
    /// disables both timeouts.
    pub idle_timeout_s: u64,
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
            max_connections: 4096,
            idle_timeout_s: 300,
        }
    }
}

/// One queued optimization job.
struct Job {
    req: OptimizeRequest,
    /// `true` routes through the Pareto-frontier pipeline instead of the
    /// single-objective search.
    pareto: bool,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    /// The waiting connection thread; a dropped sender is how it learns
    /// its worker died.
    reply: mpsc::Sender<Result<Value, JobError>>,
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
    candidates_unproved: u64,
    parents_profiled: u64,
    neighborhood_batches: u64,
    mega_lanes: u64,
    mega_candidates: u64,
    neighborhoods_memoized: u64,
    neighborhoods_built: u64,
    verdicts_memoized: u64,
    plans_memoized: u64,
    plans_built: u64,
    stopped: bool,
}

/// State shared by every thread of one server.
struct Shared {
    config: ServerConfig,
    queue: JobQueue<Job>,
    stats: ServerStats,
    cache: EvalCache,
    shutdown: AtomicBool,
    /// Cancellation flags of in-flight jobs, so shutdown can stop them.
    active: Mutex<Vec<Weak<AtomicBool>>>,
    addr: Mutex<Option<SocketAddr>>,
    faults: FaultPlan,
}

impl Shared {
    fn begin_shutdown(&self) {
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
                "factd: listening on {} ({} workers, queue {}, default timeout {}ms, \
                 max {} connections, idle timeout {}s)",
                listener.local_addr()?,
                shared.config.workers,
                shared.config.queue_capacity,
                shared.config.default_timeout_ms,
                shared.config.max_connections,
                shared.config.idle_timeout_s,
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

/// Nothing panics while holding the connection registry's lock.
const REGISTRY_LOCK: &str = "connection registry lock poisoned";

/// Open client connections, each shared with its connection thread so
/// shutdown can wake the threads blocked reading them.
#[derive(Default)]
struct Connections {
    open: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Signalled whenever a connection closes.
    closed: Condvar,
}

impl Connections {
    /// Registers a connection unless `cap` are already open.
    fn admit(&self, id: u64, stream: &Arc<TcpStream>, cap: usize) -> bool {
        let mut open = self.open.lock().expect(REGISTRY_LOCK);
        if open.len() >= cap {
            return false;
        }
        open.insert(id, Arc::clone(stream));
        true
    }

    fn remove(&self, id: u64) {
        self.open.lock().expect(REGISTRY_LOCK).remove(&id);
        self.closed.notify_all();
    }

    /// The shutdown drain: shutting the read half of every connection
    /// wakes idle threads with EOF while a thread that owes a reply can
    /// still write it. Connections still open at the deadline (a client
    /// that stopped reading) are cut off, then every thread is joined.
    fn drain(&self, threads: Vec<thread::JoinHandle<()>>) {
        let open = self.open.lock().expect(REGISTRY_LOCK);
        for stream in open.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let deadline = WIND_DOWN_GRACE + Duration::from_secs(5);
        let (open, _) = self
            .closed
            .wait_timeout_while(open, deadline, |open| !open.is_empty())
            .expect(REGISTRY_LOCK);
        for stream in open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        drop(open);
        for t in threads {
            let _ = t.join();
        }
    }
}

/// The front end: accept, spawn a connection thread, repeat until
/// shutdown (which wakes the blocking accept with a self-connection),
/// then drain the open connections.
fn run_front_end(shared: &Arc<Shared>, listener: TcpListener) -> io::Result<()> {
    let conns = Arc::new(Connections::default());
    let mut threads: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    let result = loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => Arc::new(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted
                        | io::ErrorKind::WouldBlock
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                ) =>
            {
                continue
            }
            Err(e) => break Err(e),
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break Ok(());
        }
        let id = next_id;
        next_id += 1;
        if !conns.admit(id, &stream, shared.config.max_connections.max(1)) {
            continue; // over the cap: dropped, so the client sees EOF
        }
        threads.retain(|t| !t.is_finished());
        let stats = &shared.stats;
        stats.connections_total.fetch_add(1, Ordering::Relaxed);
        stats.connections_open.fetch_add(1, Ordering::Relaxed);
        let spawned = {
            let shared = Arc::clone(shared);
            let conns = Arc::clone(&conns);
            thread::Builder::new()
                .name("factd-conn".into())
                .spawn(move || {
                    // Even a panicking connection must leave the
                    // registry, or the shutdown drain waits on it.
                    let _ = catch_unwind(AssertUnwindSafe(|| handle_connection(&shared, &stream)));
                    shared
                        .stats
                        .connections_open
                        .fetch_sub(1, Ordering::Relaxed);
                    conns.remove(id);
                })
        };
        match spawned {
            Ok(t) => threads.push(t),
            Err(e) => {
                // The failed spawn dropped its closure's handle on the
                // stream; removing the registry's closes the socket.
                stats.connections_open.fetch_sub(1, Ordering::Relaxed);
                conns.remove(id);
                if shared.config.log {
                    log_stderr!("factd: connection thread spawn failed ({e}); closed");
                }
            }
        }
    };
    conns.drain(threads);
    result
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Queued but never started; tell the waiting connection.
            let _ = job.reply.send(Err(JobError {
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
                let _ = job.reply.send(Ok(reply));
            }
            Ok(Err(e)) => {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(e));
            }
            Err(_) => {
                // The evaluation panicked (a bug or an injected fault).
                // The panic is contained to this job: its client gets a
                // documented `internal` error and the worker lives on.
                shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(Err(JobError {
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
    macro_rules! counters {
        ($r:expr) => {
            JobCounters {
                evaluated: $r.evaluated as u64,
                full_reschedules: $r.full_reschedules as u64,
                block_spliced: $r.block_spliced as u64,
                sim_vectors: $r.sim_vectors,
                candidates_inherited: $r.candidates.inherited_total(),
                candidates_proved: $r.candidates.proved_total(),
                candidates_derived: $r.candidates.derived_total(),
                candidates_unproved: $r.candidates.unproved_total(),
                parents_profiled: $r.candidates.parents_profiled,
                neighborhood_batches: $r.neighborhood_batches,
                mega_lanes: $r.mega_lanes,
                mega_candidates: $r.mega_candidates,
                neighborhoods_memoized: $r.neighborhoods_memoized,
                neighborhoods_built: $r.neighborhoods_built,
                verdicts_memoized: $r.verdicts_memoized,
                plans_memoized: $r.plans_memoized,
                plans_built: $r.plans_built,
                stopped: $r.stopped,
            }
        };
    }
    if job.pareto {
        run_pareto_job(&job.req, &shared.cache, &job.cancel).map(|(reply, r)| {
            shared.stats.pareto_jobs.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .pareto_points
                .fetch_add(r.frontier.len() as u64, Ordering::Relaxed);
            (reply, counters!(r))
        })
    } else {
        run_job(&job.req, &shared.cache, &job.cancel).map(|(reply, r)| {
            shared.stats.optimize_jobs.fetch_add(1, Ordering::Relaxed);
            (reply, counters!(r))
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
    s.candidates_unproved
        .fetch_add(c.candidates_unproved, Ordering::Relaxed);
    s.parents_profiled
        .fetch_add(c.parents_profiled, Ordering::Relaxed);
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
    s.plans_memoized
        .fetch_add(c.plans_memoized, Ordering::Relaxed);
    s.plans_built.fetch_add(c.plans_built, Ordering::Relaxed);
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

fn handle_connection(shared: &Shared, stream: &TcpStream) {
    let timeout = (shared.config.idle_timeout_s > 0)
        .then(|| Duration::from_secs(shared.config.idle_timeout_s));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    // The reply path goes through the fault plan's writer wrapper: with
    // `io` faults armed it produces Interrupted errors and short writes,
    // which `write_all` absorbs — proving the reply path survives
    // everything a real socket can throw at it.
    let mut writer = FaultyWriter::new(stream, &shared.faults);
    let mut line = Vec::new();
    loop {
        line.clear();
        let read = (&mut reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut line);
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                if is_timeout(&e) {
                    shared
                        .stats
                        .idle_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                    if shared.config.log {
                        log_stderr!(
                            "factd: closing idle connection after {}s",
                            shared.config.idle_timeout_s
                        );
                    }
                }
                break;
            }
        }
        if line.last() != Some(&b'\n') {
            // EOF mid-line, or an unterminated flood past the cap, after
            // which there is no way to resynchronize.
            if line.len() > MAX_LINE_BYTES {
                let reply = error_reply(
                    "",
                    "request",
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                );
                let _ = write_line(&mut writer, &reply);
            }
            break;
        }
        // Invalid UTF-8 is replaced rather than dropped, so the parser
        // reports it as a `parse` error instead of a silent disconnect.
        let text = String::from_utf8_lossy(&line);
        if text.trim().is_empty() {
            continue;
        }
        let (reply, shutdown_after) = handle_line(shared, &text);
        if let Err(e) = write_line(&mut writer, &reply) {
            if is_timeout(&e) {
                shared
                    .stats
                    .slow_client_disconnects
                    .fetch_add(1, Ordering::Relaxed);
            }
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

/// Whether a socket error is an expired read/write timeout (`WouldBlock`
/// on Unix, `TimedOut` on Windows).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn write_line(writer: &mut impl Write, reply: &Value) -> io::Result<()> {
    let mut line = reply.to_json();
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Executes one request line; the bool asks the caller to begin
/// shutdown after writing the reply.
fn handle_line(shared: &Shared, line: &str) -> (Value, bool) {
    let value = match parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply("", "parse", &e.to_string()), false),
    };
    let request = match decode_request(&value) {
        Ok(r) => r,
        Err(e) => {
            let id = value.get("id").and_then(Value::as_str).unwrap_or("");
            return (error_reply(id, "request", &e.0), false);
        }
    };
    let reply = match request {
        Request::Ping => Value::object([("type", Value::Str("pong".into()))]),
        Request::Stats => shared.stats.snapshot(&shared.cache),
        Request::Shutdown => return (Value::object([("type", Value::Str("ok".into()))]), true),
        Request::Optimize(req) => handle_optimize(shared, *req, false),
        Request::Pareto(req) => handle_optimize(shared, *req, true),
    };
    (reply, false)
}

/// Admits one job — deadline-aware busy rejection, then
/// [`JobQueue::push_or_shed`] with priority eviction — and waits for its
/// reply under the job's deadline.
fn handle_optimize(shared: &Shared, req: OptimizeRequest, pareto: bool) -> Value {
    let id = req.id.clone();
    let timeout = Duration::from_millis(
        req.timeout_ms
            .unwrap_or(shared.config.default_timeout_ms)
            .max(1),
    );

    // Deadline-aware admission: if the expected queue wait (service-time
    // EWMA × depth ÷ workers) already exceeds this job's whole budget,
    // queueing it only wastes a slot — reject now with a backoff hint.
    // An idle server (EWMA 0 or empty queue) always admits.
    let avg_ms = shared.stats.avg_service_ms();
    let depth = shared.queue.len() as u64;
    let est_wait_ms = avg_ms * depth / shared.config.workers.max(1) as u64;
    if est_wait_ms > timeout.as_millis() as u64 {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return error_reply_with_retry(
            &id,
            "busy",
            &format!(
                "estimated queue wait {est_wait_ms}ms exceeds the job's {}ms budget",
                timeout.as_millis()
            ),
            Some(shared.retry_hint_ms()),
        );
    }

    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job = Job {
        req,
        pareto,
        cancel: Arc::clone(&cancel),
        submitted: Instant::now(),
        reply: tx,
    };
    match shared.queue.push_or_shed(job, |j| j.req.priority) {
        PushOutcome::Admitted => {}
        PushOutcome::Shed(victim) => {
            // This job displaced the lowest-priority queued job; the
            // victim's waiting connection gets `shed` + a backoff hint.
            shared.stats.jobs_shed.fetch_add(1, Ordering::Relaxed);
            let _ = victim.reply.send(Err(JobError {
                code: "shed",
                message: "shed from a full queue by a higher-priority job; retry later".into(),
                retry_after_ms: Some(shared.retry_hint_ms()),
            }));
        }
        PushOutcome::Full => {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return error_reply_with_retry(
                &id,
                "busy",
                &format!(
                    "job queue full ({} pending); retry later",
                    shared.config.queue_capacity
                ),
                Some(shared.retry_hint_ms()),
            );
        }
        PushOutcome::Closed => return error_reply(&id, "shutdown", "server shutting down"),
    }
    shared.stats.submitted.fetch_add(1, Ordering::Relaxed);

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
fn finish(id: &str, outcome: Result<Value, JobError>) -> Value {
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
