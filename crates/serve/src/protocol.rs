//! The `factd` wire protocol: newline-delimited JSON.
//!
//! Every request is one JSON object on one line; every reply is one JSON
//! object on one line. The `type` member selects the request kind:
//! `"ping"`, `"stats"`, `"shutdown"`, `"optimize"`, or `"pareto"`. See
//! `docs/SERVER.md` for the full schema with examples.
//!
//! This module only translates between [`Value`] trees and typed
//! requests; execution lives in [`crate::server`].

use crate::json::Value;
use fact_core::{FactConfig, Objective};
use fact_sim::InputSpec;

/// A decoded client request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness probe; answered with `{"type":"pong"}`.
    Ping,
    /// Server counters; answered with a `stats` object.
    Stats,
    /// Graceful shutdown: drain the queue, stop accepting, exit.
    Shutdown,
    /// An optimization job.
    Optimize(Box<OptimizeRequest>),
    /// A Pareto-frontier job: same inputs as an optimization job, but the
    /// reply is the full energy × latency × Vdd tradeoff curve.
    Pareto(Box<OptimizeRequest>),
}

/// One optimization job: behavioral source + allocation + objective +
/// trace spec, with optional search/scheduler knobs.
#[derive(Clone, Debug)]
pub struct OptimizeRequest {
    /// Client-chosen id, echoed in the reply (defaults to `""`).
    pub id: String,
    /// Behavioral source text (the `proc … { … }` language).
    pub source: String,
    /// Functional-unit allocation, by library unit name (e.g. `"a1": 2`).
    pub alloc: Vec<(String, u32)>,
    /// Input trace generation: how many vectors, the generator seed, and
    /// a spec per input variable.
    pub traces: TracesSpec,
    /// Assembled run configuration (objective, scheduler, search knobs).
    pub config: FactConfig,
    /// Per-job wall-clock budget in milliseconds; `None` uses the
    /// server default.
    pub timeout_ms: Option<u64>,
    /// Scheduling priority (higher is more important, default 0). Under
    /// overload the server sheds the lowest-priority queued jobs first.
    pub priority: i64,
}

/// Trace-generation spec (mirrors `fact_sim::generate`).
#[derive(Clone, Debug)]
pub struct TracesSpec {
    /// Number of input vectors.
    pub n: usize,
    /// Generator seed.
    pub seed: u64,
    /// Per-variable distributions.
    pub inputs: Vec<(String, InputSpec)>,
}

/// A request that could not be decoded; the message is sent back to the
/// client in an `error` reply.
#[derive(Clone, Debug)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn bad(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

/// Decodes one request line (already JSON-parsed into a [`Value`]).
pub fn decode_request(v: &Value) -> Result<Request, ProtocolError> {
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing string member `type`"))?;
    match ty {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "optimize" => Ok(Request::Optimize(Box::new(decode_optimize(v, false)?))),
        "pareto" => Ok(Request::Pareto(Box::new(decode_optimize(v, true)?))),
        other => Err(bad(format!(
            "unknown request type `{other}` (expected ping, stats, shutdown, optimize, or pareto)"
        ))),
    }
}

fn decode_optimize(v: &Value, pareto: bool) -> Result<OptimizeRequest, ProtocolError> {
    let id = match v.get("id") {
        None => String::new(),
        Some(Value::Str(s)) => s.clone(),
        Some(_) => return Err(bad("`id` must be a string")),
    };
    let source = v
        .get("source")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("missing string member `source`"))?
        .to_string();

    let alloc_obj = v
        .get("alloc")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("missing object member `alloc`"))?;
    let mut alloc = Vec::with_capacity(alloc_obj.len());
    for (name, count) in alloc_obj {
        let n = count
            .as_i64()
            .filter(|n| (0..=u32::MAX as i64).contains(n))
            .ok_or_else(|| bad(format!("alloc `{name}` must be a non-negative integer")))?;
        alloc.push((name.clone(), n as u32));
    }

    let traces = decode_traces(
        v.get("traces")
            .ok_or_else(|| bad("missing object member `traces`"))?,
    )?;

    let mut config = FactConfig::default();
    if pareto {
        // A `pareto` request is multi-objective by definition; a
        // contradictory scalar `objective` is a client error.
        match v.get("objective").and_then(Value::as_str) {
            None | Some("pareto") => config.objective = Objective::Pareto,
            Some(other) => {
                return Err(bad(format!(
                    "objective `{other}` conflicts with request type `pareto` \
                     (omit it or use `pareto`)"
                )))
            }
        }
        if let Some(cap) = v.get("archive_capacity") {
            config.pareto.archive_capacity = usize_member(cap, "archive_capacity")?.max(2);
        }
        if let Some(steps) = v.get("vdd_steps") {
            config.pareto.vdd_steps = usize_member(steps, "vdd_steps")?.max(1);
        }
    } else {
        match v.get("objective").and_then(Value::as_str) {
            None | Some("throughput") => config.objective = Objective::Throughput,
            Some("power") => config.objective = Objective::Power,
            Some(other) => {
                return Err(bad(format!(
                    "unknown objective `{other}` (expected `throughput` or `power`; \
                     for the full tradeoff curve use request type `pareto`)"
                )))
            }
        }
    }
    if let Some(clk) = v.get("clock_ns") {
        config.sched.clock_ns = clk
            .as_f64()
            .filter(|c| *c > 0.0)
            .ok_or_else(|| bad("`clock_ns` must be a positive number"))?;
    }
    if let Some(mb) = v.get("max_blocks") {
        config.max_blocks = usize_member(mb, "max_blocks")?;
    }
    if let Some(s) = v.get("search") {
        let s = s
            .as_object()
            .ok_or_else(|| bad("`search` must be an object"))?;
        for (key, val) in s {
            match key.as_str() {
                "seed" => {
                    config.search.seed = val
                        .as_i64()
                        .ok_or_else(|| bad("`search.seed` must be an integer"))?
                        as u64
                }
                "max_moves" => config.search.max_moves = usize_member(val, "search.max_moves")?,
                "in_set_size" => {
                    config.search.in_set_size = usize_member(val, "search.in_set_size")?
                }
                "max_rounds" => config.search.max_rounds = usize_member(val, "search.max_rounds")?,
                "max_evaluations" => {
                    config.search.max_evaluations = usize_member(val, "search.max_evaluations")?
                }
                "threads" => config.search.threads = usize_member(val, "search.threads")?,
                other => return Err(bad(format!("unknown search knob `{other}`"))),
            }
        }
    }

    let timeout_ms = match v.get("timeout_ms") {
        None => None,
        Some(t) => Some(
            t.as_i64()
                .filter(|t| *t > 0)
                .ok_or_else(|| bad("`timeout_ms` must be a positive integer"))? as u64,
        ),
    };

    let priority = match v.get("priority") {
        None => 0,
        Some(p) => p
            .as_i64()
            .ok_or_else(|| bad("`priority` must be an integer"))?,
    };

    Ok(OptimizeRequest {
        id,
        source,
        alloc,
        traces,
        config,
        timeout_ms,
        priority,
    })
}

fn usize_member(v: &Value, name: &str) -> Result<usize, ProtocolError> {
    v.as_i64()
        .filter(|n| *n >= 0)
        .map(|n| n as usize)
        .ok_or_else(|| bad(format!("`{name}` must be a non-negative integer")))
}

fn decode_traces(v: &Value) -> Result<TracesSpec, ProtocolError> {
    let n = usize_member(
        v.get("n").ok_or_else(|| bad("missing `traces.n`"))?,
        "traces.n",
    )?;
    if n == 0 {
        return Err(bad("`traces.n` must be at least 1"));
    }
    let seed = v
        .get("seed")
        .map(|s| {
            s.as_i64()
                .ok_or_else(|| bad("`traces.seed` must be an integer"))
        })
        .transpose()?
        .unwrap_or(1) as u64;
    let inputs_obj = v
        .get("inputs")
        .and_then(Value::as_object)
        .ok_or_else(|| bad("missing object member `traces.inputs`"))?;
    let mut inputs = Vec::with_capacity(inputs_obj.len());
    for (name, spec) in inputs_obj {
        inputs.push((name.clone(), decode_input_spec(name, spec)?));
    }
    Ok(TracesSpec { n, seed, inputs })
}

/// `{"const": 16}` | `{"lo": 0, "hi": 9}` | `{"sigma": 10.0, "rho": 0.9}`.
fn decode_input_spec(name: &str, v: &Value) -> Result<InputSpec, ProtocolError> {
    let obj = v
        .as_object()
        .ok_or_else(|| bad(format!("input `{name}` spec must be an object")))?;
    let field = |k: &str| obj.get(k);
    if let Some(c) = field("const") {
        let c = c
            .as_i64()
            .ok_or_else(|| bad(format!("input `{name}`: `const` must be an integer")))?;
        return Ok(InputSpec::Constant(c));
    }
    if let (Some(lo), Some(hi)) = (field("lo"), field("hi")) {
        let lo = lo
            .as_i64()
            .ok_or_else(|| bad(format!("input `{name}`: `lo` must be an integer")))?;
        let hi = hi
            .as_i64()
            .ok_or_else(|| bad(format!("input `{name}`: `hi` must be an integer")))?;
        if lo > hi {
            return Err(bad(format!("input `{name}`: `lo` exceeds `hi`")));
        }
        return Ok(InputSpec::Uniform { lo, hi });
    }
    if let (Some(sigma), Some(rho)) = (field("sigma"), field("rho")) {
        let sigma = sigma
            .as_f64()
            .filter(|s| *s >= 0.0)
            .ok_or_else(|| bad(format!("input `{name}`: `sigma` must be non-negative")))?;
        let rho = rho
            .as_f64()
            .filter(|r| r.abs() < 1.0)
            .ok_or_else(|| bad(format!("input `{name}`: `rho` must be in (-1, 1)")))?;
        return Ok(InputSpec::GaussianAr { sigma, rho });
    }
    Err(bad(format!(
        "input `{name}`: expected {{\"const\":…}}, {{\"lo\":…,\"hi\":…}}, or {{\"sigma\":…,\"rho\":…}}"
    )))
}

/// Builds an `error` reply.
pub fn error_reply(id: &str, code: &str, message: &str) -> Value {
    error_reply_with_retry(id, code, message, None)
}

/// Builds an `error` reply carrying an optional `retry_after_ms` hint —
/// used by the `busy` and `shed` overload codes, where the client is
/// expected to back off and resubmit.
pub fn error_reply_with_retry(
    id: &str,
    code: &str,
    message: &str,
    retry_after_ms: Option<u64>,
) -> Value {
    let mut members = vec![
        ("type", Value::Str("error".into())),
        ("id", Value::Str(id.into())),
        ("error", Value::Str(code.into())),
        ("message", Value::Str(message.into())),
    ];
    if let Some(ms) = retry_after_ms {
        members.push(("retry_after_ms", Value::Int(ms as i64)));
    }
    Value::object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn decodes_control_requests() {
        assert!(matches!(
            decode_request(&parse(r#"{"type":"ping"}"#).unwrap()).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            decode_request(&parse(r#"{"type":"stats"}"#).unwrap()).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            decode_request(&parse(r#"{"type":"shutdown"}"#).unwrap()).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn decodes_full_optimize_request() {
        let src = r#"{"type":"optimize","id":"j1","source":"proc f(n) { out y = n; }",
            "alloc":{"a1":2,"mt1":1},"objective":"power","clock_ns":20.0,
            "traces":{"n":8,"seed":42,"inputs":{
                "a":{"const":16},"b":{"lo":0,"hi":9},"c":{"sigma":10.0,"rho":0.9}}},
            "search":{"seed":7,"threads":2,"max_evaluations":100},
            "timeout_ms":5000,"priority":3,
            "check_equivalence":false,"sim_batch":false,"max_blocks":2}"#;
        let Request::Optimize(req) = decode_request(&parse(src).unwrap()).unwrap() else {
            panic!("expected optimize");
        };
        assert_eq!(req.id, "j1");
        assert_eq!(req.alloc, vec![("a1".into(), 2), ("mt1".into(), 1)]);
        assert!(matches!(req.config.objective, Objective::Power));
        assert_eq!(req.config.sched.clock_ns, 20.0);
        assert_eq!(req.config.max_blocks, 2);
        assert_eq!(req.config.search.seed, 7);
        assert_eq!(req.config.search.threads, 2);
        assert_eq!(req.config.search.max_evaluations, 100);
        assert_eq!(req.timeout_ms, Some(5000));
        assert_eq!(req.priority, 3);
        assert_eq!(req.traces.n, 8);
        assert_eq!(req.traces.seed, 42);
        assert_eq!(req.traces.inputs.len(), 3);
        assert!(matches!(req.traces.inputs[0].1, InputSpec::Constant(16)));
        assert!(matches!(
            req.traces.inputs[1].1,
            InputSpec::Uniform { lo: 0, hi: 9 }
        ));
    }

    #[test]
    fn defaults_are_applied() {
        let src = r#"{"type":"optimize","source":"proc f(n) { out y = n; }",
            "alloc":{"a1":1},"traces":{"n":4,"inputs":{"n":{"const":3}}}}"#;
        let Request::Optimize(req) = decode_request(&parse(src).unwrap()).unwrap() else {
            panic!("expected optimize");
        };
        assert_eq!(req.id, "");
        assert!(matches!(req.config.objective, Objective::Throughput));
        assert_eq!(req.timeout_ms, None);
        assert_eq!(req.priority, 0);
        assert_eq!(req.traces.seed, 1);
    }

    #[test]
    fn decodes_pareto_request() {
        let src = r#"{"type":"pareto","id":"p1","source":"proc f(n) { out y = n; }",
            "alloc":{"a1":2},"archive_capacity":16,"vdd_steps":12,
            "traces":{"n":4,"inputs":{"n":{"const":3}}},
            "search":{"seed":9,"threads":4}}"#;
        let Request::Pareto(req) = decode_request(&parse(src).unwrap()).unwrap() else {
            panic!("expected pareto");
        };
        assert_eq!(req.id, "p1");
        assert!(matches!(req.config.objective, Objective::Pareto));
        assert_eq!(req.config.pareto.archive_capacity, 16);
        assert_eq!(req.config.pareto.vdd_steps, 12);
        assert_eq!(req.config.search.seed, 9);

        // An explicit `"objective":"pareto"` is accepted as redundant.
        let src = r#"{"type":"pareto","source":"s","alloc":{},"objective":"pareto",
            "traces":{"n":1,"inputs":{}}}"#;
        assert!(matches!(
            decode_request(&parse(src).unwrap()).unwrap(),
            Request::Pareto(_)
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        for (src, needle) in [
            (r#"{"op":"ping"}"#, "type"),
            (r#"{"type":"frobnicate"}"#, "unknown request type"),
            (r#"{"type":"optimize"}"#, "source"),
            (
                r#"{"type":"optimize","source":"s","alloc":{"a1":-1},
                   "traces":{"n":1,"inputs":{}}}"#,
                "non-negative",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":0,"inputs":{}}}"#,
                "at least 1",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{"x":{"lo":5,"hi":1}}}}"#,
                "exceeds",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"objective":"speed"}"#,
                "unknown objective",
            ),
            (
                // A scalar objective on an optimize job must point the
                // client at the pareto request type instead.
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"objective":"pareto"}"#,
                "request type `pareto`",
            ),
            (
                r#"{"type":"pareto","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"objective":"power"}"#,
                "conflicts",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"search":{"bogus":1}}"#,
                "unknown search knob",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"timeout_ms":0}"#,
                "timeout_ms",
            ),
            (
                r#"{"type":"optimize","source":"s","alloc":{},
                   "traces":{"n":1,"inputs":{}},"priority":"high"}"#,
                "priority",
            ),
        ] {
            let err = decode_request(&parse(src).unwrap()).unwrap_err();
            assert!(
                err.0.contains(needle),
                "{src}: error {:?} should mention {needle:?}",
                err.0
            );
        }
    }
}
