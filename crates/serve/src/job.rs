//! Executes one decoded optimization job against `fact-core`.
//!
//! Compiles the behavioral source, resolves the named allocation against
//! the §5 functional-unit library, generates the requested input traces,
//! and runs [`fact_core::optimize_with`] with the server's shared
//! [`EvalCache`] and the job's cancellation flag. The output is the
//! `result` reply [`Value`] ready for the wire.

use crate::json::Value;
use crate::protocol::OptimizeRequest;
use fact_core::{
    optimize_pareto_with, optimize_with, EvalCache, FactError, FactResult, OptimizeHooks,
    ParetoFactResult, TransformLibrary,
};
use fact_estim::{section5_library, Estimate};
use fact_ir::Function;
use fact_sched::{Allocation, FuLibrary, SelectionRules};
use fact_sim::{generate, TraceSet};
use std::sync::atomic::AtomicBool;

/// A job failure, as an `(error code, message)` pair for the error reply.
#[derive(Clone, Debug)]
pub struct JobError {
    /// Stable machine-readable code (`compile`, `alloc`, `schedule`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
    /// Backoff hint for retryable overload codes (`busy`, `shed`);
    /// `None` for permanent errors.
    pub retry_after_ms: Option<u64>,
}

fn fail(code: &'static str, message: impl Into<String>) -> JobError {
    JobError {
        code,
        message: message.into(),
        retry_after_ms: None,
    }
}

/// Compiles the job's source, resolves its named allocation against the
/// §5 library, and generates its input traces — the shared front half of
/// both job kinds.
fn prepare(
    req: &OptimizeRequest,
) -> Result<(Function, FuLibrary, SelectionRules, Allocation, TraceSet), JobError> {
    let f = fact_lang::compile(&req.source).map_err(|e| fail("compile", e.to_string()))?;

    let (library, rules) = section5_library();
    let mut alloc = Allocation::new();
    for (name, count) in &req.alloc {
        let fu = library.by_name(name).ok_or_else(|| {
            let known: Vec<&str> = library.iter().map(|(_, s)| s.name.as_str()).collect();
            fail(
                "alloc",
                format!(
                    "unknown functional unit `{name}` (library units: {})",
                    known.join(", ")
                ),
            )
        })?;
        alloc.set(fu, *count);
    }

    let traces = generate(&req.traces.inputs, req.traces.n, req.traces.seed);
    Ok((f, library, rules, alloc, traces))
}

/// Runs the job to completion (or until `stop` is raised) and renders
/// the `result` reply. `evaluated` and `cache_hits` are also returned so
/// the server can fold them into its counters.
pub fn run_job(
    req: &OptimizeRequest,
    cache: &EvalCache,
    stop: &AtomicBool,
) -> Result<(Value, FactResult), JobError> {
    let (f, library, rules, alloc, traces) = prepare(req)?;
    let hooks = OptimizeHooks {
        cache: Some(cache),
        stop: Some(stop),
        timers: None,
    };
    let result = optimize_with(
        &f,
        &library,
        &rules,
        &alloc,
        &traces,
        &TransformLibrary::full(),
        &req.config,
        hooks,
    )
    .map_err(|e| match e {
        FactError::Schedule(e) => fail("schedule", e.to_string()),
        FactError::Analysis(m) => fail("analysis", m),
    })?;

    let reply = render_result(&req.id, &result);
    Ok((reply, result))
}

/// Runs a Pareto-frontier job: same inputs as [`run_job`], but through
/// [`fact_core::optimize_pareto_with`], replying with the full
/// `pareto_result` curve.
pub fn run_pareto_job(
    req: &OptimizeRequest,
    cache: &EvalCache,
    stop: &AtomicBool,
) -> Result<(Value, ParetoFactResult), JobError> {
    let (f, library, rules, alloc, traces) = prepare(req)?;
    let hooks = OptimizeHooks {
        cache: Some(cache),
        stop: Some(stop),
        timers: None,
    };
    let result = optimize_pareto_with(
        &f,
        &library,
        &rules,
        &alloc,
        &traces,
        &TransformLibrary::full(),
        &req.config,
        hooks,
    )
    .map_err(|e| match e {
        FactError::Schedule(e) => fail("schedule", e.to_string()),
        FactError::Analysis(m) => fail("analysis", m),
    })?;

    let reply = render_pareto_result(&req.id, &result);
    Ok((reply, result))
}

fn render_pareto_result(id: &str, r: &ParetoFactResult) -> Value {
    let frontier: Vec<Value> = r
        .frontier
        .iter()
        .map(|p| {
            Value::object([
                ("energy", Value::Float(p.energy)),
                ("latency_cycles", Value::Float(p.latency_cycles)),
                ("vdd", Value::Float(p.vdd)),
                ("power", Value::Float(p.power)),
                ("sched_cycles", Value::Float(p.sched_cycles)),
                (
                    "applied",
                    Value::Array(p.applied.iter().map(|s| Value::Str(s.clone())).collect()),
                ),
            ])
        })
        .collect();
    Value::object([
        ("type", Value::Str("pareto_result".into())),
        ("id", Value::Str(id.into())),
        (
            "status",
            Value::Str(if r.stopped { "timeout" } else { "ok" }.into()),
        ),
        ("frontier", Value::Array(frontier)),
        ("archive_len", Value::Int(r.archive_len as i64)),
        ("evaluated", Value::Int(r.evaluated as i64)),
        ("cache_hits", Value::Int(r.cache_hits as i64)),
        ("blocks_optimized", Value::Int(r.blocks_optimized as i64)),
        ("stopped", Value::Bool(r.stopped)),
        ("baseline", render_estimate(&r.baseline)),
    ])
}

fn render_result(id: &str, r: &FactResult) -> Value {
    Value::object([
        ("type", Value::Str("result".into())),
        ("id", Value::Str(id.into())),
        (
            "status",
            Value::Str(if r.stopped { "timeout" } else { "ok" }.into()),
        ),
        ("best_ir", Value::Str(r.best.to_string())),
        (
            "applied",
            Value::Array(r.applied.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("evaluated", Value::Int(r.evaluated as i64)),
        ("cache_hits", Value::Int(r.cache_hits as i64)),
        ("blocks_optimized", Value::Int(r.blocks_optimized as i64)),
        ("stopped", Value::Bool(r.stopped)),
        ("baseline", render_estimate(&r.baseline)),
        ("optimized", render_estimate(&r.estimate)),
    ])
}

fn render_estimate(e: &Estimate) -> Value {
    Value::object([
        ("cycles", Value::Float(e.average_schedule_length)),
        ("energy_vdd2", Value::Float(e.energy_vdd2)),
        ("vdd", Value::Float(e.vdd)),
        ("power", Value::Float(e.power)),
        ("throughput", Value::Float(e.throughput)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::protocol::{decode_request, Request};

    fn decode(src: &str) -> OptimizeRequest {
        match decode_request(&parse(src).unwrap()).unwrap() {
            Request::Optimize(r) => *r,
            other => panic!("expected optimize, got {other:?}"),
        }
    }

    const JOB: &str = r#"{"type":"optimize","id":"t","source":
        "proc f(n, a, b) { var s = 0; var i = 0; while (i < n) { var t = s + 1; s = t * a + t * b; i = i + 1; } out s = s; }",
        "alloc":{"a1":2,"mt1":1,"cp1":1,"i1":2,"sb1":1},
        "traces":{"n":4,"seed":1,"inputs":{"n":{"const":10},"a":{"const":2},"b":{"const":3}}},
        "search":{"max_evaluations":60}}"#;

    #[test]
    fn runs_a_job_end_to_end() {
        let cache = EvalCache::default();
        let stop = AtomicBool::new(false);
        let (reply, result) = run_job(&decode(JOB), &cache, &stop).unwrap();
        assert_eq!(reply.get("type").unwrap().as_str(), Some("result"));
        assert_eq!(reply.get("id").unwrap().as_str(), Some("t"));
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
        assert!(reply.get("evaluated").unwrap().as_i64().unwrap() > 0);
        let base = reply.get("baseline").unwrap();
        let opt = reply.get("optimized").unwrap();
        assert!(
            opt.get("cycles").unwrap().as_f64().unwrap()
                <= base.get("cycles").unwrap().as_f64().unwrap()
        );
        assert!(!result.stopped);
        // The reply is one line of valid JSON.
        let line = reply.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), reply);
    }

    #[test]
    fn repeat_job_is_answered_from_cache() {
        let cache = EvalCache::default();
        let stop = AtomicBool::new(false);
        let req = decode(JOB);
        let (_, cold) = run_job(&req, &cache, &stop).unwrap();
        let (_, warm) = run_job(&req, &cache, &stop).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(warm.cache_hits, warm.evaluated);
        assert_eq!(warm.applied, cold.applied);
    }

    const PARETO_JOB: &str = r#"{"type":"pareto","id":"p","source":
        "proc f(n, a, b) { var s = 0; var i = 0; while (i < n) { var t = s + 1; s = t * a + t * b; i = i + 1; } out s = s; }",
        "alloc":{"a1":2,"mt1":1,"cp1":1,"i1":2,"sb1":1},
        "traces":{"n":4,"seed":1,"inputs":{"n":{"const":10},"a":{"const":2},"b":{"const":3}}},
        "search":{"max_evaluations":60}}"#;

    fn decode_pareto(src: &str) -> OptimizeRequest {
        match decode_request(&parse(src).unwrap()).unwrap() {
            Request::Pareto(r) => *r,
            other => panic!("expected pareto, got {other:?}"),
        }
    }

    #[test]
    fn runs_a_pareto_job_end_to_end() {
        let cache = EvalCache::default();
        let stop = AtomicBool::new(false);
        let (reply, result) = run_pareto_job(&decode_pareto(PARETO_JOB), &cache, &stop).unwrap();
        assert_eq!(reply.get("type").unwrap().as_str(), Some("pareto_result"));
        assert_eq!(reply.get("id").unwrap().as_str(), Some("p"));
        assert_eq!(reply.get("status").unwrap().as_str(), Some("ok"));
        let frontier = match reply.get("frontier").unwrap() {
            Value::Array(a) => a,
            other => panic!("frontier must be an array, got {other:?}"),
        };
        assert!(!frontier.is_empty());
        assert_eq!(frontier.len(), result.frontier.len());
        for p in frontier {
            assert!(p.get("energy").unwrap().as_f64().unwrap() > 0.0);
            assert!(p.get("latency_cycles").unwrap().as_f64().unwrap() > 0.0);
            let vdd = p.get("vdd").unwrap().as_f64().unwrap();
            assert!(vdd > 1.0 && vdd <= 5.0 + 1e-12);
        }
        // The reply is one line of valid JSON.
        let line = reply.to_json();
        assert!(!line.contains('\n'));
        assert_eq!(parse(&line).unwrap(), reply);
    }

    #[test]
    fn reports_compile_and_alloc_errors() {
        let cache = EvalCache::default();
        let stop = AtomicBool::new(false);
        let mut req = decode(JOB);
        req.source = "proc f( {".into();
        let e = run_job(&req, &cache, &stop).unwrap_err();
        assert_eq!(e.code, "compile");

        let mut req = decode(JOB);
        req.alloc.push(("warp9".into(), 1));
        let e = run_job(&req, &cache, &stop).unwrap_err();
        assert_eq!(e.code, "alloc");
        assert!(e.message.contains("warp9"));
        assert!(e.message.contains("a1"));
    }

    #[test]
    fn traces_no_vector_completes_on_are_an_analysis_error() {
        // The traces never set `b`: every vector fails with a missing
        // input, so the job fails at set-up, before any search.
        let cache = EvalCache::default();
        let stop = AtomicBool::new(false);
        let src = JOB.replace(r#","b":{"const":3}"#, "");
        let e = run_job(&decode(&src), &cache, &stop).unwrap_err();
        assert_eq!(e.code, "analysis");
        assert!(e.message.contains("4 of 4 failed"), "{}", e.message);
        assert!(e.message.contains("first error"), "{}", e.message);
        let pareto = PARETO_JOB.replace(r#","b":{"const":3}"#, "");
        let e = run_pareto_job(&decode_pareto(&pareto), &cache, &stop).unwrap_err();
        assert_eq!(e.code, "analysis");
        assert!(cache.is_empty(), "no candidate was evaluated");
    }

    #[test]
    fn pre_raised_stop_flag_yields_stopped_result() {
        let cache = EvalCache::default();
        let stop = AtomicBool::new(true);
        let (reply, result) = run_job(&decode(JOB), &cache, &stop).unwrap();
        assert!(result.stopped);
        assert_eq!(reply.get("status").unwrap().as_str(), Some("timeout"));
    }
}
