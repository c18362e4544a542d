//! Server observability: atomic job counters and a latency reservoir.
//!
//! Everything here is updated lock-free from worker and connection
//! threads except the latency samples, which go through a small mutexed
//! ring buffer (a few thousand entries — recent history is what p50/p95
//! should describe for a long-running daemon).

use crate::json::Value;
use fact_core::EvalCache;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How many completed-job latencies the percentile window keeps.
const LATENCY_WINDOW: usize = 4096;

/// Counters for one server's lifetime.
pub struct ServerStats {
    start: Instant,
    /// Jobs accepted into the queue.
    pub submitted: AtomicU64,
    /// Jobs finished successfully.
    pub completed: AtomicU64,
    /// Jobs that failed (compile error, unschedulable, …).
    pub failed: AtomicU64,
    /// Jobs cut short by their deadline.
    pub timed_out: AtomicU64,
    /// Jobs refused because the queue was full or the job's deadline was
    /// unmeetable at current depth (both reply `busy`).
    pub rejected: AtomicU64,
    /// Queued jobs evicted by higher-priority arrivals (reply `shed`).
    pub jobs_shed: AtomicU64,
    /// Jobs whose evaluation panicked; the panic was caught, the client
    /// got an `internal` error, and the worker survived.
    pub jobs_panicked: AtomicU64,
    /// Worker threads that unwound past the per-job isolation and were
    /// respawned by the supervisor.
    pub workers_respawned: AtomicU64,
    /// Client connections currently open (a gauge, not a counter).
    pub connections_open: AtomicU64,
    /// Client connections accepted over the server's lifetime.
    pub connections_total: AtomicU64,
    /// Connections closed after waiting out the idle timeout for their
    /// next request.
    pub idle_disconnects: AtomicU64,
    /// Connections dropped because the client stopped reading and a
    /// reply write waited out the idle timeout.
    pub slow_client_disconnects: AtomicU64,
    /// Entries warm-loaded from the cache snapshot at startup.
    pub cache_warm_entries: AtomicU64,
    /// Completed (or timed-out) single-objective `optimize` jobs.
    pub optimize_jobs: AtomicU64,
    /// Completed (or timed-out) `pareto` frontier jobs.
    pub pareto_jobs: AtomicU64,
    /// Nondominated design points returned across all `pareto` jobs
    /// (frontier sizes summed; `pareto_points / pareto_jobs` is the mean
    /// curve size production logs watch).
    pub pareto_points: AtomicU64,
    /// Candidate evaluations performed across all jobs (cache hits
    /// included; see `FactResult::evaluated`).
    pub evaluations: AtomicU64,
    /// Candidate schedules computed from scratch, across all jobs
    /// (`FactResult::full_reschedules`).
    pub full_reschedules: AtomicU64,
    /// Candidate schedules that spliced memoized block fragments
    /// (`FactResult::block_spliced`).
    pub block_spliced: AtomicU64,
    /// Trace vectors of the profile passes inside the jobs' searches
    /// (`FactResult::sim_vectors`; logical vectors, dedup multiplicities
    /// included).
    pub sim_vectors: AtomicU64,
    /// Operand swaps that inherited their parent's profile and estimate
    /// instead of being proved, scheduled and estimated, across all jobs
    /// (`FactResult::candidates`).
    pub candidates_inherited: AtomicU64,
    /// Candidates proved equivalent to their parent, reusing its profile,
    /// across all jobs (`FactResult::candidates`).
    pub candidates_proved: AtomicU64,
    /// Unrolled or fissioned candidates proved equivalent to their parent
    /// whose profile was derived from its counts, across all jobs
    /// (`FactResult::candidates`).
    pub candidates_derived: AtomicU64,
    /// Candidates rejected because they were not proved equivalent to
    /// their parent, across all jobs (`FactResult::candidates`).
    pub candidates_unproved: AtomicU64,
    /// Parents and search inputs profiled inside the search because the
    /// shared cache had answered them, across all jobs
    /// (`CandidateCounts::parents_profiled`).
    pub parents_profiled: AtomicU64,
    /// Whole-neighborhood mega-batch dispatches across all jobs
    /// (`FactResult::neighborhood_batches`).
    pub neighborhood_batches: AtomicU64,
    /// Simulation lanes dispatched by the mega-batch path across all
    /// jobs (`FactResult::mega_lanes`).
    pub mega_lanes: AtomicU64,
    /// Candidates handed to mega-batch dispatches across all jobs
    /// (`FactResult::mega_candidates`; cache hits included).
    pub mega_candidates: AtomicU64,
    /// Parent expansions the cache's expansion memo answered across all
    /// jobs (`FactResult::neighborhoods_memoized`).
    pub neighborhoods_memoized: AtomicU64,
    /// Transformations run to build candidates across all jobs
    /// (`FactResult::neighborhoods_built`).
    pub neighborhoods_built: AtomicU64,
    /// Candidates whose swap or proof verdict came from their expansion
    /// record across all jobs (`FactResult::verdicts_memoized`).
    pub verdicts_memoized: AtomicU64,
    /// Schedules whose plan came from the shared cache across all jobs
    /// (`FactResult::plans_memoized`).
    pub plans_memoized: AtomicU64,
    /// Schedule plans built across all jobs (`FactResult::plans_built`).
    pub plans_built: AtomicU64,
    /// EWMA of per-job *service* time (worker execution only, queue wait
    /// excluded), in milliseconds — the admission controller's estimate
    /// of how fast the queue drains. 0 until the first job completes.
    service_ewma_ms: AtomicU64,
    /// When the last cache snapshot was written; `None` before the first.
    last_snapshot: Mutex<Option<Instant>>,
    latencies: Mutex<LatencyRing>,
}

struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl ServerStats {
    /// Fresh counters, clock started now.
    pub fn new() -> Self {
        ServerStats {
            start: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            connections_open: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            idle_disconnects: AtomicU64::new(0),
            slow_client_disconnects: AtomicU64::new(0),
            cache_warm_entries: AtomicU64::new(0),
            optimize_jobs: AtomicU64::new(0),
            pareto_jobs: AtomicU64::new(0),
            pareto_points: AtomicU64::new(0),
            evaluations: AtomicU64::new(0),
            full_reschedules: AtomicU64::new(0),
            block_spliced: AtomicU64::new(0),
            sim_vectors: AtomicU64::new(0),
            candidates_inherited: AtomicU64::new(0),
            candidates_proved: AtomicU64::new(0),
            candidates_derived: AtomicU64::new(0),
            candidates_unproved: AtomicU64::new(0),
            parents_profiled: AtomicU64::new(0),
            neighborhood_batches: AtomicU64::new(0),
            mega_lanes: AtomicU64::new(0),
            mega_candidates: AtomicU64::new(0),
            neighborhoods_memoized: AtomicU64::new(0),
            neighborhoods_built: AtomicU64::new(0),
            verdicts_memoized: AtomicU64::new(0),
            plans_memoized: AtomicU64::new(0),
            plans_built: AtomicU64::new(0),
            service_ewma_ms: AtomicU64::new(0),
            last_snapshot: Mutex::new(None),
            latencies: Mutex::new(LatencyRing {
                samples: Vec::new(),
                next: 0,
            }),
        }
    }

    /// Folds one job's worker-side execution time into the service-time
    /// EWMA (α = 1/8; a plain load/store race between workers at worst
    /// drops one sample, which the next completion repairs).
    pub fn record_service_ms(&self, ms: u64) {
        let ms = ms.max(1); // sub-millisecond jobs still register
        let old = self.service_ewma_ms.load(Ordering::Relaxed);
        let new = if old == 0 { ms } else { (old * 7 + ms) / 8 };
        self.service_ewma_ms.store(new, Ordering::Relaxed);
    }

    /// Current service-time estimate in ms (0 = no data yet).
    pub fn avg_service_ms(&self) -> u64 {
        self.service_ewma_ms.load(Ordering::Relaxed)
    }

    /// Marks a cache snapshot as just written.
    pub fn note_snapshot(&self) {
        *self.last_snapshot.lock().unwrap() = Some(Instant::now());
    }

    /// Seconds since the last cache snapshot; -1 before the first one
    /// (or when snapshotting is disabled).
    pub fn cache_snapshot_age_s(&self) -> i64 {
        match *self.last_snapshot.lock().unwrap() {
            Some(t) => t.elapsed().as_secs() as i64,
            None => -1,
        }
    }

    /// Records one finished job's wall-clock latency.
    pub fn record_latency_ms(&self, ms: u64) {
        let mut ring = self.latencies.lock().unwrap();
        if ring.samples.len() < LATENCY_WINDOW {
            ring.samples.push(ms);
        } else {
            let i = ring.next;
            ring.samples[i] = ms;
            ring.next = (i + 1) % LATENCY_WINDOW;
        }
    }

    /// Average simulation throughput over the server's lifetime, in
    /// trace vectors per second (0.0 in the first instants of uptime).
    pub fn sim_vectors_per_sec(&self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.sim_vectors.load(Ordering::Relaxed) as f64 / secs
    }

    /// Mean candidates per mega-batch dispatch across the server's
    /// lifetime (0.0 before any mega-batch runs).
    pub fn candidates_per_batch(&self) -> f64 {
        let batches = self.neighborhood_batches.load(Ordering::Relaxed);
        if batches == 0 {
            return 0.0;
        }
        self.mega_candidates.load(Ordering::Relaxed) as f64 / batches as f64
    }

    /// `(p50, p95)` over the recent-latency window, in milliseconds;
    /// zeros before any job completes.
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut samples = self.latencies.lock().unwrap().samples.clone();
        if samples.is_empty() {
            return (0, 0);
        }
        samples.sort_unstable();
        let pick = |p: f64| {
            let idx = ((samples.len() - 1) as f64 * p).round() as usize;
            samples[idx]
        };
        (pick(0.50), pick(0.95))
    }

    /// The full stats snapshot as a reply [`Value`] (also the payload of
    /// the periodic log line).
    pub fn snapshot(&self, cache: &EvalCache) -> Value {
        let (p50, p95) = self.latency_percentiles();
        let cs = cache.stats();
        let memo = cache.expansions();
        Value::object([
            ("type", Value::Str("stats".into())),
            (
                "uptime_s",
                Value::Int(self.start.elapsed().as_secs() as i64),
            ),
            ("jobs_submitted", counter(&self.submitted)),
            ("jobs_completed", counter(&self.completed)),
            ("jobs_failed", counter(&self.failed)),
            ("jobs_timed_out", counter(&self.timed_out)),
            ("jobs_rejected", counter(&self.rejected)),
            ("jobs_shed", counter(&self.jobs_shed)),
            ("jobs_panicked", counter(&self.jobs_panicked)),
            ("workers_respawned", counter(&self.workers_respawned)),
            ("connections_open", counter(&self.connections_open)),
            ("connections_total", counter(&self.connections_total)),
            ("idle_disconnects", counter(&self.idle_disconnects)),
            (
                "slow_client_disconnects",
                counter(&self.slow_client_disconnects),
            ),
            ("optimize_jobs", counter(&self.optimize_jobs)),
            ("pareto_jobs", counter(&self.pareto_jobs)),
            ("pareto_points", counter(&self.pareto_points)),
            ("evaluations", counter(&self.evaluations)),
            ("full_reschedules", counter(&self.full_reschedules)),
            ("block_spliced", counter(&self.block_spliced)),
            ("sim_vectors", counter(&self.sim_vectors)),
            ("candidates_inherited", counter(&self.candidates_inherited)),
            ("candidates_proved", counter(&self.candidates_proved)),
            ("candidates_derived", counter(&self.candidates_derived)),
            ("candidates_unproved", counter(&self.candidates_unproved)),
            ("parents_profiled", counter(&self.parents_profiled)),
            ("neighborhood_batches", counter(&self.neighborhood_batches)),
            ("mega_lanes", counter(&self.mega_lanes)),
            (
                "candidates_per_batch",
                Value::Float(self.candidates_per_batch()),
            ),
            (
                "sim_vectors_per_sec",
                Value::Float(self.sim_vectors_per_sec()),
            ),
            (
                "neighborhoods_memoized",
                counter(&self.neighborhoods_memoized),
            ),
            ("neighborhoods_built", counter(&self.neighborhoods_built)),
            ("verdicts_memoized", counter(&self.verdicts_memoized)),
            ("plans_memoized", counter(&self.plans_memoized)),
            ("plans_built", counter(&self.plans_built)),
            ("plans_held", Value::Int(cache.plans_held() as i64)),
            ("memo_entries", Value::Int(memo.len() as i64)),
            ("memo_records", Value::Int(memo.records() as i64)),
            ("cache_hits", Value::Int(cs.hits as i64)),
            ("cache_misses", Value::Int(cs.misses as i64)),
            ("cache_entries", Value::Int(cs.entries as i64)),
            ("cache_hit_rate", Value::Float(cs.hit_rate())),
            ("cache_warm_entries", counter(&self.cache_warm_entries)),
            (
                "cache_snapshot_age_s",
                Value::Int(self.cache_snapshot_age_s()),
            ),
            ("latency_p50_ms", Value::Int(p50 as i64)),
            ("latency_p95_ms", Value::Int(p95 as i64)),
            ("service_ewma_ms", Value::Int(self.avg_service_ms() as i64)),
        ])
    }

    /// One-line human log form of the snapshot.
    pub fn log_line(&self, cache: &EvalCache) -> String {
        let (p50, p95) = self.latency_percentiles();
        let cs = cache.stats();
        format!(
            "factd stats: up={}s jobs={}/{} ok={} err={} timeout={} busy={} shed={} \
             panics={} respawns={} \
             conns={}/{} idle_dc={} slow_dc={} \
             kinds=opt:{}/pareto:{} pareto_pts={} \
             evals={} inherited={} proved={} derived={} unproved={} profiled={} \
             resched full={} spliced={} \
             sim={}v ({:.0} v/s) mega={}x{:.1} ({} lanes) \
             nbhd memoized={} built={} (memo {} entries) verdicts={} \
             plans memoized={} built={} ({} held) \
             cache={:.0}% ({} entries, warm {}, snap_age {}s) p50={}ms p95={}ms",
            self.start.elapsed().as_secs(),
            self.completed.load(Ordering::Relaxed)
                + self.failed.load(Ordering::Relaxed)
                + self.timed_out.load(Ordering::Relaxed),
            self.submitted.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.timed_out.load(Ordering::Relaxed),
            self.rejected.load(Ordering::Relaxed),
            self.jobs_shed.load(Ordering::Relaxed),
            self.jobs_panicked.load(Ordering::Relaxed),
            self.workers_respawned.load(Ordering::Relaxed),
            self.connections_open.load(Ordering::Relaxed),
            self.connections_total.load(Ordering::Relaxed),
            self.idle_disconnects.load(Ordering::Relaxed),
            self.slow_client_disconnects.load(Ordering::Relaxed),
            self.optimize_jobs.load(Ordering::Relaxed),
            self.pareto_jobs.load(Ordering::Relaxed),
            self.pareto_points.load(Ordering::Relaxed),
            self.evaluations.load(Ordering::Relaxed),
            self.candidates_inherited.load(Ordering::Relaxed),
            self.candidates_proved.load(Ordering::Relaxed),
            self.candidates_derived.load(Ordering::Relaxed),
            self.candidates_unproved.load(Ordering::Relaxed),
            self.parents_profiled.load(Ordering::Relaxed),
            self.full_reschedules.load(Ordering::Relaxed),
            self.block_spliced.load(Ordering::Relaxed),
            self.sim_vectors.load(Ordering::Relaxed),
            self.sim_vectors_per_sec(),
            self.neighborhood_batches.load(Ordering::Relaxed),
            self.candidates_per_batch(),
            self.mega_lanes.load(Ordering::Relaxed),
            self.neighborhoods_memoized.load(Ordering::Relaxed),
            self.neighborhoods_built.load(Ordering::Relaxed),
            cache.expansions().len(),
            self.verdicts_memoized.load(Ordering::Relaxed),
            self.plans_memoized.load(Ordering::Relaxed),
            self.plans_built.load(Ordering::Relaxed),
            cache.plans_held(),
            cs.hit_rate() * 100.0,
            cs.entries,
            self.cache_warm_entries.load(Ordering::Relaxed),
            self.cache_snapshot_age_s(),
            p50,
            p95,
        )
    }
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

fn counter(c: &AtomicU64) -> Value {
    Value::Int(c.load(Ordering::Relaxed) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_known_samples() {
        let s = ServerStats::new();
        assert_eq!(s.latency_percentiles(), (0, 0));
        for ms in 1..=100 {
            s.record_latency_ms(ms);
        }
        let (p50, p95) = s.latency_percentiles();
        assert!((49..=51).contains(&p50), "p50 = {p50}");
        assert!((94..=96).contains(&p95), "p95 = {p95}");
    }

    #[test]
    fn ring_keeps_recent_window() {
        let s = ServerStats::new();
        for _ in 0..LATENCY_WINDOW {
            s.record_latency_ms(1);
        }
        // Overwrite the whole window with a higher value.
        for _ in 0..LATENCY_WINDOW {
            s.record_latency_ms(1000);
        }
        assert_eq!(s.latency_percentiles(), (1000, 1000));
    }

    #[test]
    fn snapshot_reports_counters() {
        let s = ServerStats::new();
        s.submitted.fetch_add(3, Ordering::Relaxed);
        s.completed.fetch_add(2, Ordering::Relaxed);
        s.rejected.fetch_add(1, Ordering::Relaxed);
        s.full_reschedules.fetch_add(7, Ordering::Relaxed);
        s.block_spliced.fetch_add(5, Ordering::Relaxed);
        s.sim_vectors.fetch_add(640, Ordering::Relaxed);
        s.candidates_inherited.fetch_add(33, Ordering::Relaxed);
        s.candidates_proved.fetch_add(21, Ordering::Relaxed);
        s.candidates_derived.fetch_add(6, Ordering::Relaxed);
        s.candidates_unproved.fetch_add(16, Ordering::Relaxed);
        s.parents_profiled.fetch_add(1, Ordering::Relaxed);
        s.neighborhood_batches.fetch_add(4, Ordering::Relaxed);
        s.mega_lanes.fetch_add(512, Ordering::Relaxed);
        s.mega_candidates.fetch_add(18, Ordering::Relaxed);
        s.neighborhoods_memoized.fetch_add(40, Ordering::Relaxed);
        s.neighborhoods_built.fetch_add(3, Ordering::Relaxed);
        s.verdicts_memoized.fetch_add(27, Ordering::Relaxed);
        s.plans_memoized.fetch_add(90, Ordering::Relaxed);
        s.plans_built.fetch_add(12, Ordering::Relaxed);
        s.connections_open.store(4, Ordering::Relaxed);
        s.connections_total.fetch_add(11, Ordering::Relaxed);
        s.idle_disconnects.fetch_add(2, Ordering::Relaxed);
        s.slow_client_disconnects.fetch_add(1, Ordering::Relaxed);
        let cache = EvalCache::default();
        let v = s.snapshot(&cache);
        assert_eq!(v.get("jobs_submitted").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("jobs_completed").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("jobs_rejected").unwrap().as_i64(), Some(1));
        assert_eq!(v.get("full_reschedules").unwrap().as_i64(), Some(7));
        assert_eq!(v.get("block_spliced").unwrap().as_i64(), Some(5));
        assert_eq!(v.get("sim_vectors").unwrap().as_i64(), Some(640));
        assert_eq!(v.get("candidates_inherited").unwrap().as_i64(), Some(33));
        assert_eq!(v.get("candidates_proved").unwrap().as_i64(), Some(21));
        assert_eq!(v.get("candidates_derived").unwrap().as_i64(), Some(6));
        assert_eq!(v.get("candidates_unproved").unwrap().as_i64(), Some(16));
        assert_eq!(v.get("parents_profiled").unwrap().as_i64(), Some(1));
        for gone in [
            "sim_batches",
            "sim_engine_scalar",
            "sim_engine_batched",
            "candidates_simulated",
            "references_captured",
        ] {
            assert!(v.get(gone).is_none(), "{gone}");
        }
        assert!(v.get("lane_compactions").is_none());
        assert_eq!(v.get("neighborhood_batches").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("mega_lanes").unwrap().as_i64(), Some(512));
        assert_eq!(v.get("candidates_per_batch").unwrap().as_f64(), Some(4.5));
        assert!(v.get("sim_vectors_per_sec").unwrap().as_f64().unwrap() >= 0.0);
        assert_eq!(v.get("neighborhoods_memoized").unwrap().as_i64(), Some(40));
        assert_eq!(v.get("neighborhoods_built").unwrap().as_i64(), Some(3));
        assert_eq!(v.get("verdicts_memoized").unwrap().as_i64(), Some(27));
        assert_eq!(v.get("plans_memoized").unwrap().as_i64(), Some(90));
        assert_eq!(v.get("plans_built").unwrap().as_i64(), Some(12));
        assert_eq!(v.get("plans_held").unwrap().as_i64(), Some(0));
        assert_eq!(v.get("memo_entries").unwrap().as_i64(), Some(0));
        assert_eq!(v.get("memo_records").unwrap().as_i64(), Some(0));
        assert_eq!(v.get("cache_hit_rate").unwrap().as_f64(), Some(0.0));
        assert_eq!(v.get("connections_open").unwrap().as_i64(), Some(4));
        assert_eq!(v.get("connections_total").unwrap().as_i64(), Some(11));
        assert_eq!(v.get("idle_disconnects").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("slow_client_disconnects").unwrap().as_i64(), Some(1));
        assert!(v.get("loop_wakeups").is_none());
        let line = s.log_line(&cache);
        assert!(line.contains("ok=2"));
        assert!(line.contains("conns=4/11 idle_dc=2 slow_dc=1 kinds="));
        assert!(line.contains("resched full=7 spliced=5"));
        assert!(line.contains("inherited=33 proved=21 derived=6 unproved=16 profiled=1 resched"));
        assert!(line.contains("sim=640v ("));
        assert!(!line.contains("engine="));
        assert!(line.contains("mega=4x4.5 (512 lanes)"));
        assert!(line.contains("nbhd memoized=40 built=3 (memo 0 entries) verdicts=27"));
    }
}
