//! One benchmark run: set-up, the closed-loop window against `factd`,
//! verification of every reply against an in-process replay and the
//! winner oracle, and — in traced runs — the traced replay with its
//! per-layer ledger.

use crate::load::{drive, fill, ping_p50_ms, Outcome, ServerChild};
use crate::oracle::check_winner;
use crate::replay::{replay, Counters, Design, Mode, Replay, Replayed, Span};
use crate::stats::{geomean, median, ratio, tail, Tail};
use crate::workload::{Kind, Plan, Request, Workload};
use fact_core::{hypervolume, EvalCache, ParetoPoint};
use fact_serve::Value;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Complete set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Threads of the in-process replays (as many as `factd` workers).
const REPLAY_THREADS: usize = crate::load::WORKERS;
/// Sequential pings of the front-end probe.
const PING_PROBES: usize = 200;
/// Trace vectors of cold jobs in a `--tiny` run.
const TINY_N: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test size: 2-vector cold traces.
    pub tiny: bool,
    /// Self-test of the oracle: hand it a wrong winner.
    pub sabotage: bool,
}

/// What a run found.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)`, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Replies after which the server's peak RSS is read.
fn rss_sample_at(opts: &Options) -> usize {
    match opts.workload {
        Workload::SearchCold => 1024,
        Workload::SimHeavy => 32,
        Workload::ServeWarm => 8192,
    }
}

/// Jobs the layer replays of a traced run cover: the first ones of the
/// window, about five seconds of work, so the per-layer totals are over a
/// fixed set of jobs for a seed.
fn layer_jobs(opts: &Options) -> usize {
    match opts.workload {
        Workload::SearchCold => 1024,
        Workload::SimHeavy => 32,
        Workload::ServeWarm => 2048,
    }
}

fn setup(opts: &Options) -> io::Result<(ServerChild, Plan)> {
    let plan = Plan::sized(opts.workload, opts.seed, opts.tiny.then_some(TINY_N));
    let server = ServerChild::spawn()?;
    if opts.workload.cache_served() {
        fill(
            server.addr,
            &plan,
            &first_of_each_job(&plan, plan.quality_len()),
        )?;
    }
    Ok((server, plan))
}

/// Index of the first request of each distinct job among `0..upto`.
fn first_of_each_job(plan: &Plan, upto: usize) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    (0..upto)
        .filter(|&i| plan.request(i).job.is_some_and(|job| seen.insert(job.key)))
        .collect()
}

fn f64_at(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, k| v.get(k))?.as_f64()
}

fn strings(v: Option<&Value>) -> Option<Vec<String>> {
    v?.as_array()?
        .iter()
        .map(|s| s.as_str().map(str::to_string))
        .collect()
}

/// Normalized hypervolume of a `pareto_result` reply: the dominated area
/// inside the box at twice the baseline's energy and latency, divided by
/// the box (as `pareto_perf` computes it).
fn pareto_hv(reply: &Value) -> Option<f64> {
    let vdd = f64_at(reply, &["baseline", "vdd"])?;
    let energy = f64_at(reply, &["baseline", "energy_vdd2"])? * vdd * vdd;
    let reference = ParetoPoint {
        energy: 2.0 * energy,
        latency: 2.0 * f64_at(reply, &["baseline", "cycles"])?,
    };
    let points = reply
        .get("frontier")?
        .as_array()?
        .iter()
        .map(|p| {
            Some(ParetoPoint {
                energy: p.get("energy")?.as_f64()?,
                latency: p.get("latency_cycles")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(hypervolume(&points, &reference) / (reference.energy * reference.latency))
}

/// Checks one job reply against its replay and the objective's guard.
fn check_job(req: &Request, reply: &Value, expected: &Replayed, warm: bool) -> Result<(), String> {
    let kind = req.kind;
    let want_type = if kind == Kind::Pareto {
        "pareto_result"
    } else {
        "result"
    };
    if reply.get("type").and_then(Value::as_str) != Some(want_type) {
        return Err(format!("unexpected reply {}", reply.to_json()));
    }
    if reply.get("status").and_then(Value::as_str) != Some("ok")
        || reply.get("stopped").and_then(Value::as_bool) != Some(false)
    {
        return Err("job stopped before finishing".into());
    }
    let design = expected
        .design
        .as_ref()
        .map_err(|e| format!("in-process replay failed: {e}"))?;
    let count = |k: &str| reply.get(k).and_then(Value::as_i64);
    if warm && count("cache_hits") != count("evaluated") {
        return Err("serve-warm job was not fully cache-served".into());
    }
    if count("evaluated") != Some(design.counters().evaluated as i64) {
        return Err("evaluated differs from the in-process replay".into());
    }
    match design {
        Design::Optimize(r) => {
            if strings(reply.get("applied")).as_ref() != Some(&r.applied) {
                return Err("applied path differs from the in-process replay".into());
            }
            // The replay's winner is the one the oracle checks, so the
            // server must return that same design.
            if reply.get("best_ir").and_then(Value::as_str) != Some(r.best.to_string().as_str()) {
                return Err("best_ir differs from the in-process replay's winner".into());
            }
            let cycles = f64_at(reply, &["optimized", "cycles"]);
            if cycles != Some(r.estimate.average_schedule_length) {
                return Err("optimized cycles differ from the in-process replay".into());
            }
            let guard = match kind {
                Kind::Power => "power",
                _ => "cycles",
            };
            let (opt, base) = (
                f64_at(reply, &["optimized", guard]),
                f64_at(reply, &["baseline", guard]),
            );
            if !matches!((opt, base), (Some(o), Some(b)) if o <= b) {
                return Err(format!("optimized {guard} exceeds the baseline"));
            }
        }
        Design::Pareto(r) => {
            let frontier = reply
                .get("frontier")
                .and_then(Value::as_array)
                .ok_or("pareto reply has no frontier")?;
            let same = frontier.len() == r.frontier.len()
                && frontier.iter().zip(&r.frontier).all(|(p, q)| {
                    p.get("energy").and_then(Value::as_f64) == Some(q.energy)
                        && p.get("latency_cycles").and_then(Value::as_f64) == Some(q.latency_cycles)
                        && strings(p.get("applied")).as_ref() == Some(&q.applied)
                });
            if !same {
                return Err("frontier differs from the in-process replay".into());
            }
        }
    }
    Ok(())
}

fn check_control(req: &Request, reply: &Value) -> Result<(), String> {
    let want = if req.kind == Kind::Ping {
        "pong"
    } else {
        "stats"
    };
    if reply.get("type").and_then(Value::as_str) == Some(want) {
        Ok(())
    } else {
        Err(format!("unexpected reply {}", reply.to_json()))
    }
}

/// Runs the winner oracle on every optimize job of a replay; returns the
/// failing job keys with their reasons.
fn oracle(plan: &Plan, jobs: &[(Request, &Replayed)], sabotage: bool) -> Vec<(u64, String)> {
    let mut failures = Vec::new();
    let mut sabotaged = !sabotage;
    for (req, rep) in jobs {
        let (Some(job), Ok(Design::Optimize(r))) = (&req.job, &rep.design) else {
            continue;
        };
        let p = &plan.programs[job.program];
        let original = fact_lang::compile(p.source).expect("suite sources compile");
        let mut winner = r.best.clone();
        if !sabotaged {
            // A deliberately wrong winner: another suite program.
            let other = plan
                .programs
                .iter()
                .find(|q| q.name != p.name)
                .expect("suite has 6");
            winner = fact_lang::compile(other.source).expect("suite sources compile");
            sabotaged = true;
        }
        if let Err(e) = check_winner(&original, &winner, &p.specs, job.trace_seed) {
            failures.push((job.key, format!("oracle: {} {:?}: {e}", p.name, job.kind)));
        }
    }
    failures
}

/// Warm or cold, the cache an in-process replay starts from: serve-warm
/// fills it with every distinct job first, as set-up fills the server's.
fn replay_cache(warm: bool, distinct: &[(usize, &str)]) -> EvalCache {
    let cache = EvalCache::default();
    if warm {
        replay(distinct, &cache, Mode::Worker, REPLAY_THREADS);
    }
    cache
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> io::Result<Report> {
    // Set-up, repeated; the last server stays up for the window.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = kept.take() {
            ServerChild::shutdown(server)?;
        }
        let t0 = Instant::now();
        let pair = setup(opts)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        kept = Some(pair);
    }
    let (server, plan) = kept.expect("at least one set-up");
    let warm = opts.workload.cache_served();

    // Peak RSS is read after a fixed number of replies (or at the end of
    // the window, if it is shorter): the server's cache grows with every
    // distinct job, so a reading at the end would grow with throughput.
    let rss_at = Mutex::new(None);
    let read_rss = || {
        *rss_at.lock().expect("rss probe never panics") = Some(server.peak_rss_mb());
    };
    let outcomes = drive(
        server.addr,
        &|i| plan.request(i),
        Duration::from_secs_f64(opts.seconds),
        plan.quality_len(),
        Some((rss_sample_at(opts), &read_rss)),
    )?;
    let mut rss_note = None;
    let peak_rss_mb = match rss_at.into_inner().expect("rss probe never panics") {
        Some(rss) => rss?,
        None => {
            let note = format!(
                "NOTE peak_rss_mb was read at the end of the window: it had {} replies, \
                 fewer than the {} the reading is fixed at, so it is not comparable \
                 with a full run's",
                outcomes.len(),
                rss_sample_at(opts)
            );
            if !opts.tiny {
                eprintln!("{note}");
            }
            rss_note = Some(note);
            server.peak_rss_mb()?
        }
    };
    let ping_p50 = ping_p50_ms(server.addr, PING_PROBES)?;
    server.shutdown()?;

    let reqs: Vec<Request> = outcomes.iter().map(|o| plan.request(o.index)).collect();
    let all_jobs: Vec<(usize, &str)> = reqs
        .iter()
        .filter(|r| r.kind.is_job())
        .map(|r| (r.index, r.line.as_str()))
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    let distinct: Vec<(usize, &str)> = all_jobs
        .iter()
        .copied()
        .filter(|&(i, _)| seen.insert(job_key(&plan, i)))
        .collect();
    // Traced runs replay every job (for per-job service times); untraced
    // runs need each distinct job once.
    let list = if opts.trace { &all_jobs } else { &distinct };
    let worker = replay(
        list,
        &replay_cache(warm, &distinct),
        Mode::Worker,
        REPLAY_THREADS,
    );
    let (failed, problems) = verify(&plan, &outcomes, &reqs, &worker, warm, opts.sabotage);

    let mut notes = vec![summary(opts, &plan, &outcomes, &reqs)];
    notes.extend(rss_note);
    let metrics = if opts.trace {
        let first = &all_jobs[..all_jobs.len().min(layer_jobs(opts))];
        let layers = |mode| replay(first, &replay_cache(warm, &distinct), mode, REPLAY_THREADS);
        let untimed = layers(Mode::Layers);
        let traced = layers(Mode::Traced);
        let metrics = layer_metrics(
            &mut notes,
            &traced,
            &untimed,
            &worker,
            &outcomes,
            plan.quality_len(),
            ping_p50,
        );
        match write_spans(opts, &traced.spans) {
            Ok(path) => notes.push(format!("spans written to {path}")),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
        metrics
    } else {
        let mut metrics = vec![("setup_s", median(&mut setup_times))];
        metrics.extend(end_to_end(&mut notes, &plan, &outcomes, &reqs));
        metrics.push(("peak_rss_mb", peak_rss_mb));
        metrics
    };
    notes.extend(problems.iter().map(|p| format!("FAILED {p}")));
    Ok(Report {
        correct: failed == 0,
        attempted: outcomes.len(),
        failed,
        metrics,
        notes,
    })
}

fn job_key(plan: &Plan, index: usize) -> u64 {
    plan.request(index).job.expect("request is a job").key
}

/// Checks every reply of the window; returns the number of failed
/// requests and the first few reasons.
fn verify(
    plan: &Plan,
    outcomes: &[Outcome],
    reqs: &[Request],
    worker: &Replay,
    warm: bool,
    sabotage: bool,
) -> (usize, Vec<String>) {
    let by_index: HashMap<usize, &Replayed> = worker.jobs.iter().map(|r| (r.index, r)).collect();
    let mut by_key: HashMap<u64, &Replayed> = HashMap::new();
    for r in &worker.jobs {
        by_key.entry(job_key(plan, r.index)).or_insert(r);
    }
    let firsts: Vec<(Request, &Replayed)> = by_key
        .values()
        .map(|r| (plan.request(r.index), *r))
        .collect();
    let oracle_failures: BTreeMap<u64, String> =
        oracle(plan, &firsts, sabotage).into_iter().collect();

    let mut failed = 0;
    let mut problems = Vec::new();
    for (o, req) in outcomes.iter().zip(reqs) {
        let verdict = match (&o.reply, &req.job) {
            (Err(e), _) => Err(format!("request failed: {e}")),
            (Ok(reply), None) => check_control(req, reply),
            (Ok(reply), Some(job)) => match oracle_failures.get(&job.key) {
                Some(e) => Err(e.clone()),
                None => {
                    let expected = by_index
                        .get(&o.index)
                        .or_else(|| by_key.get(&job.key))
                        .expect("every job was replayed");
                    check_job(req, reply, expected, warm)
                }
            },
        };
        if let Err(e) = verdict {
            failed += 1;
            if problems.len() < 20 {
                problems.push(format!("request {} ({:?}): {e}", o.index, o.kind));
            }
        }
    }
    (failed, problems)
}

/// One line on what the window did, then mean latency per job type.
fn summary(opts: &Options, plan: &Plan, outcomes: &[Outcome], reqs: &[Request]) -> String {
    let mut by_job: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for (o, req) in outcomes.iter().zip(reqs) {
        if let Some(job) = &req.job {
            let e = by_job
                .entry(format!(
                    "{}/{:?}",
                    plan.programs[job.program].name, job.kind
                ))
                .or_default();
            e.0 += o.latency.as_secs_f64() * 1e3;
            e.1 += 1;
        }
    }
    let means: Vec<String> = by_job
        .iter()
        .map(|(k, (t, n))| format!("{k} {:.2} (x{n})", t / *n as f64))
        .collect();
    let all_ms: f64 = outcomes.iter().map(|o| o.latency.as_secs_f64() * 1e3).sum();
    let job_ms: f64 = by_job.values().map(|(t, _)| t).sum();
    format!(
        "{}: seed {}, {} requests ({} jobs), first {} are the quality set\n\
         jobs took {:.1}% of the clients' waiting time\nmean job latency, ms: {}",
        opts.workload.name(),
        opts.seed,
        outcomes.len(),
        by_job.values().map(|(_, n)| n).sum::<usize>(),
        plan.quality_len(),
        100.0 * ratio(job_ms, all_ms),
        means.join(", ")
    )
}

/// The end-to-end metrics of the window, except `setup_s` and
/// `peak_rss_mb`.
fn end_to_end(
    notes: &mut Vec<String>,
    plan: &Plan,
    outcomes: &[Outcome],
    reqs: &[Request],
) -> Vec<(&'static str, f64)> {
    let mut quality: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (o, req) in outcomes.iter().zip(reqs).take(plan.quality_len()) {
        let Ok(reply) = &o.reply else { continue };
        let ratio_of = |field: &str| {
            Some(f64_at(reply, &["optimized", field])? / f64_at(reply, &["baseline", field])?)
        };
        let value = match req.kind {
            Kind::Throughput => ratio_of("cycles").map(|r| ("cycles_ratio", r)),
            Kind::Power => ratio_of("power").map(|r| ("power_ratio", r)),
            Kind::Pareto => pareto_hv(reply).map(|hv| ("pareto_hv", hv)),
            Kind::Ping | Kind::Stats => None,
        };
        if let Some((name, v)) = value {
            quality.entry(name).or_default().push(v);
        }
    }
    let q = |name: &str| quality.get(name).map(Vec::as_slice).unwrap_or_default();
    let hv = q("pareto_hv");

    let mut lat_ms: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.kind.is_job())
        .map(|o| o.latency.as_secs_f64() * 1e3)
        .collect();
    let tail_ms = tail_over_slices(outcomes, plan.slice_granule());
    if let Some((_, slices)) = &tail_ms {
        let each: Vec<String> = slices
            .iter()
            .map(|(ms, pct, n)| format!("p{pct:.2} of {n} = {ms:.3} ms"))
            .collect();
        notes.push(format!(
            "job_tail_ms is the median over {} slices of: {}",
            slices.len(),
            each.join(", ")
        ));
    }
    let (jobs_per_s, req_per_s, slices) = slice_rates(outcomes, plan.slice_granule());
    notes.push(format!(
        "jobs_per_s and req_per_s are medians over {slices} slices"
    ));
    vec![
        ("jobs_per_s", jobs_per_s),
        ("job_p50_ms", median(&mut lat_ms)),
        ("job_tail_ms", tail_ms.map_or(0.0, |t| t.0)),
        ("req_per_s", req_per_s),
        ("cycles_ratio", geomean(q("cycles_ratio")).unwrap_or(0.0)),
        ("power_ratio", geomean(q("power_ratio")).unwrap_or(0.0)),
        ("pareto_hv", ratio(hv.iter().sum(), hv.len() as f64)),
    ]
}

/// Slices per window for the throughput medians.
const SLICES: usize = 20;
/// Jobs per `job_tail_ms` slice, about: enough that a slice's tail, its
/// 11th-largest latency, is near its 98th percentile.
const TAIL_SLICE_JOBS: usize = 550;

/// `job_tail_ms`: the window cut into consecutive slices of whole
/// `granule`s with about [`TAIL_SLICE_JOBS`] jobs or more each (the whole
/// window if it has fewer jobs); in each, the highest percentile of job
/// latency with at least ten samples beyond it; the median over the
/// slices. A burst of interference lifts the tail of a few slices, not
/// the median. Returns the median, ms, and each slice's
/// `(tail ms, percentile, jobs)`; `None` if a slice has under 11 jobs.
fn tail_over_slices(outcomes: &[Outcome], granule: usize) -> Option<(f64, Vec<Tail>)> {
    let jobs = outcomes.iter().filter(|o| o.kind.is_job()).count();
    let granules = outcomes.len() / granule;
    let slices = (jobs / TAIL_SLICE_JOBS).clamp(1, granules.max(1));
    let mut tails = Vec::with_capacity(slices);
    for s in 0..slices {
        let (lo, hi) = (s * granules / slices, (s + 1) * granules / slices);
        let span = if slices == 1 {
            outcomes
        } else {
            &outcomes[lo * granule..hi * granule]
        };
        let mut lat_ms: Vec<f64> = span
            .iter()
            .filter(|o| o.kind.is_job())
            .map(|o| o.latency.as_secs_f64() * 1e3)
            .collect();
        tails.push(tail(&mut lat_ms)?);
    }
    let mut values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    Some((median(&mut values), tails))
}

/// Throughput as a median over slices of the window. A slice is a run of
/// consecutive requests, a whole number of `granule`s long, sized so the
/// window holds about [`SLICES`] of them; it lasts from the moment every
/// earlier request had been answered to the moment all of its own had.
/// Returns `(jobs/s, requests/s, slices)`; a short burst of interference
/// moves a few slices, not the median.
fn slice_rates(outcomes: &[Outcome], granule: usize) -> (f64, f64, usize) {
    let per = outcomes.len().div_ceil(SLICES).div_ceil(granule).max(1) * granule;
    let mut answered = Duration::ZERO;
    let (mut jobs, mut reqs) = (Vec::new(), Vec::new());
    for slice in outcomes.chunks_exact(per) {
        let done = slice
            .iter()
            .map(|o| o.done_at)
            .max()
            .unwrap_or_default()
            .max(answered);
        let d = (done - answered).as_secs_f64();
        answered = done;
        if d > 0.0 {
            let n_jobs = slice.iter().filter(|o| o.kind.is_job()).count();
            jobs.push(n_jobs as f64 / d);
            reqs.push(slice.len() as f64 / d);
        }
    }
    let n = jobs.len();
    (median(&mut jobs), median(&mut reqs), n)
}

fn total(spans: &[Span], name: &str) -> (f64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.secs(), n + 1))
}

fn mean_of(spans: &[Span], name: &str) -> f64 {
    let (t, n) = total(spans, name);
    ratio(t, n as f64)
}

/// The per-layer ledger of a traced run; also prints the layer shares.
fn layer_metrics(
    notes: &mut Vec<String>,
    traced: &Replay,
    untimed: &Replay,
    worker: &Replay,
    outcomes: &[Outcome],
    quality_len: usize,
    ping_p50: f64,
) -> Vec<(&'static str, f64)> {
    let service: HashMap<usize, Duration> =
        worker.jobs.iter().map(|r| (r.index, r.service)).collect();
    let mut overheads: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| {
            Some((o.latency.as_secs_f64() - service.get(&o.index)?.as_secs_f64()) * 1e3)
        })
        .collect();
    let retries: u32 = outcomes.iter().map(|o| o.retries).sum();
    let spans = &traced.spans;
    let mut all = Counters::default();
    let mut quality = Counters::default();
    let (mut compile_ns, mut simulate_ns, mut estimate_ns) = (0u64, 0u64, 0u64);
    let mut quality_candidates = 0usize;
    for r in &traced.jobs {
        compile_ns += r.phases.compile_ns;
        simulate_ns += r.phases.simulate_ns;
        estimate_ns += r.phases.estimate_ns;
        if let Ok(d) = &r.design {
            all.add(&d.counters());
            if r.index < quality_len {
                quality.add(&d.counters());
                quality_candidates += r.candidates;
            }
        }
    }
    let (compile_s, simulate_s, estimate_s) = (
        compile_ns as f64 / 1e9,
        simulate_ns as f64 / 1e9,
        estimate_ns as f64 / 1e9,
    );
    let optimize_s = total(spans, "core.optimize").0;
    let attributed = compile_s + simulate_s + estimate_s;
    let c = |x: u64| x as f64;
    let metrics = vec![
        ("serve.decode_us", mean_of(spans, "serve.decode") * 1e6),
        ("serve.ping_p50_ms", ping_p50),
        ("serve.job_overhead_ms", median(&mut overheads)),
        ("serve.busy_retries", f64::from(retries)),
        ("lang.compile_us", mean_of(spans, "lang.compile") * 1e6),
        ("sim.generate_ms", mean_of(spans, "sim.generate") * 1e3),
        ("sim.profile_ms", mean_of(spans, "sim.profile") * 1e3),
        ("sim.compile_s", compile_s),
        ("sim.simulate_s", simulate_s),
        ("sim.vectors", c(quality.sim_vectors)),
        ("sim.vectors_per_s", ratio(c(all.sim_vectors), simulate_s)),
        (
            "sim.batched_share",
            ratio(
                c(all.sim_engine_batched),
                c(all.sim_engine_batched + all.sim_engine_scalar),
            ),
        ),
        (
            "sim.lanes_per_batch",
            ratio(c(all.mega_lanes), c(all.neighborhood_batches)),
        ),
        ("sched.baseline_ms", mean_of(spans, "sched.baseline") * 1e3),
        (
            "sched.splice_ratio",
            ratio(
                c(all.block_spliced),
                c(all.block_spliced + all.full_reschedules),
            ),
        ),
        ("estim.estimate_s", estimate_s),
        ("estim.baseline_ms", mean_of(spans, "estim.baseline") * 1e3),
        (
            "xform.candidates_ms",
            mean_of(spans, "xform.candidates") * 1e3,
        ),
        ("xform.candidates", quality_candidates as f64),
        ("core.partition_ms", mean_of(spans, "core.partition") * 1e3),
        ("core.optimize_s", optimize_s),
        ("core.evaluated", c(quality.evaluated)),
        ("core.evals_per_s", ratio(c(all.evaluated), optimize_s)),
        ("core.other_s", optimize_s - attributed),
        ("core.ledger_coverage", ratio(attributed, optimize_s)),
        (
            "core.cache_hit_rate",
            ratio(c(all.cache_hits), c(all.evaluated)),
        ),
        (
            "core.candidates_per_batch",
            ratio(c(all.mega_candidates), c(all.neighborhood_batches)),
        ),
        (
            "trace.overhead",
            ratio(untimed.wall.as_secs_f64(), traced.wall.as_secs_f64()),
        ),
    ];

    // Layer shares: self time per layer over core.optimize_s.
    let job_root = total(spans, "job").0;
    let probe = |n: &str| total(spans, n).0;
    let layers = [
        ("serve", probe("serve.decode")),
        ("lang", probe("lang.compile")),
        (
            "sim",
            probe("sim.generate") + probe("sim.profile") + compile_s + simulate_s,
        ),
        ("sched", probe("sched.baseline")),
        ("estim", probe("estim.baseline") + estimate_s),
        ("xform", probe("xform.candidates")),
        ("core", probe("core.partition") + optimize_s - attributed),
    ];
    let listed: f64 = layers.iter().map(|(_, t)| t).sum();
    notes.push(format!(
        "layer shares ({} traced jobs, self time / core.optimize_s = {optimize_s:.4} s):",
        traced.jobs.len()
    ));
    for (name, t) in layers {
        notes.push(format!(
            "  {name:<6} {t:>10.4} s  {:>7.1}%",
            100.0 * ratio(t, optimize_s)
        ));
    }
    notes.push(format!(
        "  {:<6} {:>10.4} s  {:>7.1}%",
        "other",
        job_root - listed,
        100.0 * ratio(job_root - listed, optimize_s)
    ));
    notes.push(format!(
        "trace.overhead {:.4} (untimed replay {:.4} s, traced {:.4} s)",
        ratio(untimed.wall.as_secs_f64(), traced.wall.as_secs_f64()),
        untimed.wall.as_secs_f64(),
        traced.wall.as_secs_f64()
    ));
    metrics
}

/// Writes the spans of a traced run as JSON lines under the build
/// directory (`$CARGO_TARGET_DIR`, else `target`).
fn write_spans(opts: &Options, spans: &[Span]) -> io::Result<String> {
    let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&root).join("e2ebench-trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", opts.workload.name(), opts.seed));
    let mut out = io::BufWriter::new(std::fs::File::create(&path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.job, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}
