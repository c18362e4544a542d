//! Property tests of the list scheduler: for generated straight-line
//! blocks (datapath ops, muxes, loads and stores over several memories,
//! outputs), allocations (zero counts included) and clock periods
//! (multi-cycle multiplies at 15 ns, memory accesses that do not fit at
//! 10 ns), a schedule must place every op once and respect data, memory
//! and output order, chaining within the clock, and per-state resource
//! limits; an error must name an op that really cannot be scheduled.
//!
//! Seed-driven and std-only: a failure prints the seed that reproduces it.

#[path = "common/gen.rs"]
mod gen;

use fact_ir::{OpId, OpKind};
use fact_sched::listsched::{schedule_block, OpPlacement, SchedError};
use gen::{problem, Problem};
use std::collections::HashMap;

/// Generated problems checked per run.
const CASES: u64 = 2000;

/// `(ready state, ready ns)` of a producer never exceeds
/// `(start state, start ns)` of its consumer.
fn ordered(d: &OpPlacement, u: &OpPlacement) -> bool {
    (d.end_state, d.ready_ns) <= (u.start_state, u.start_ns + 1e-9)
}

fn check(seed: u64) -> Result<(), String> {
    let Problem {
        f,
        lib,
        sel,
        alloc,
        clk,
    } = problem(seed, 0);
    let ops = &f.block(f.entry()).ops;
    let kind = |i: usize| &f.op(ops[i]).kind;
    let pos: HashMap<OpId, usize> = ops.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let is_mem = |i: usize| matches!(kind(i), OpKind::Load { .. } | OpKind::Store { .. });
    let delay = |i: usize| match kind(i) {
        OpKind::Load { .. } | OpKind::Store { .. } => Some(lib.memory_delay_ns),
        _ => sel.fu_of(ops[i]).map(|fu| lib.spec(fu).delay_ns),
    };
    let span = |d: f64| (d / clk).ceil().max(1.0) as usize;

    let s = match schedule_block(&f, f.entry(), &lib, &sel, &alloc, clk) {
        Ok(s) => s,
        Err(SchedError::NoInstances { op, fu_name }) => {
            let fu = sel
                .fu_of(op)
                .ok_or("NoInstances names an op with no unit")?;
            return (alloc.count(fu) == 0 && lib.spec(fu).name == fu_name)
                .then_some(())
                .ok_or(format!(
                    "NoInstances names {op} on allocated unit {fu_name}"
                ));
        }
        Err(SchedError::ClockTooShort { op }) => {
            let i = pos[&op];
            return (is_mem(i) && lib.memory_delay_ns > clk)
                .then_some(())
                .ok_or(format!("ClockTooShort names {op}, which fits"));
        }
    };

    // 1. Every op has a placement; exactly the datapath ops issue, once.
    if s.placement.len() != ops.len() {
        return Err(format!(
            "{} placements for {} ops",
            s.placement.len(),
            ops.len()
        ));
    }
    let mut issued = vec![0; ops.len()];
    for (st, issue) in s.states.iter().enumerate() {
        for &p in issue {
            let p = p as usize;
            issued[p] += 1;
            if s.placement[p].start_state != st {
                return Err(format!("op {p} issued in state {st} but placed elsewhere"));
            }
        }
    }
    for (i, &n) in issued.iter().enumerate() {
        if n != usize::from(delay(i).is_some()) {
            return Err(format!("op {i} ({:?}) issued {n} times", kind(i)));
        }
    }

    // 2. Data, memory and output order.
    let mut last_output: Option<usize> = None;
    for u in 0..ops.len() {
        let up = &s.placement[u];
        for v in kind(u).operands() {
            if let Some(&d) = pos.get(&v).filter(|&&d| d < u) {
                if !ordered(&s.placement[d], up) {
                    return Err(format!("op {u} starts before its operand {d} is ready"));
                }
            }
        }
        for d in 0..u {
            let same_mem = match (kind(d), kind(u)) {
                (
                    OpKind::Load { mem: a, .. } | OpKind::Store { mem: a, .. },
                    OpKind::Load { mem: b, .. } | OpKind::Store { mem: b, .. },
                ) => a == b,
                _ => false,
            };
            let store = |i: usize| matches!(kind(i), OpKind::Store { .. });
            if same_mem && (store(d) || store(u)) && !ordered(&s.placement[d], up) {
                return Err(format!("memory access {u} overtakes {d}"));
            }
        }
        if let OpKind::Output(..) = kind(u) {
            if let Some(d) = last_output {
                if !ordered(&s.placement[d], up) {
                    return Err(format!("output {u} overtakes output {d}"));
                }
            }
            last_output = Some(u);
        }
    }

    // 3. Single-cycle ops finish within the clock period.
    for (i, p) in s.placement.iter().enumerate() {
        if let Some(d) = delay(i).filter(|&d| d <= clk) {
            if p.start_ns + d > clk + 1e-6 {
                return Err(format!("op {i} finishes past the clock edge"));
            }
        }
    }

    // 4. Per-state use of units and memory ports, counting multi-cycle
    //    spans, stays within the allocation; the schedule ends with the
    //    last reservation.
    let mut usage: HashMap<(usize, String), u32> = HashMap::new();
    let mut end = 0;
    for (i, p) in s.placement.iter().enumerate() {
        let Some(d) = delay(i) else { continue };
        let (unit, limit) = match kind(i) {
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => (format!("{mem}"), 1),
            _ => {
                let fu = sel.fu_of(ops[i]).expect("datapath op has a unit");
                (lib.spec(fu).name.clone(), alloc.count(fu))
            }
        };
        for k in 0..span(d) {
            let n = usage.entry((p.start_state + k, unit.clone())).or_insert(0);
            *n += 1;
            if *n > limit {
                return Err(format!(
                    "state {}: {n} x {unit} over {limit}",
                    p.start_state + k
                ));
            }
        }
        end = end.max(p.start_state + span(d));
    }
    if s.len() != end {
        return Err(format!(
            "{} states, last reservation ends at {end}",
            s.len()
        ));
    }
    Ok(())
}

#[test]
fn schedules_respect_dependencies_and_resources() {
    for seed in 0..CASES {
        if let Err(e) = check(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn generator_covers_errors_and_multicycle_ops() {
    let (mut ok, mut no_instances, mut clock_too_short, mut multicycle) = (0, 0, 0, 0);
    for seed in 0..CASES {
        let p = problem(seed, 0);
        match schedule_block(&p.f, p.f.entry(), &p.lib, &p.sel, &p.alloc, p.clk) {
            Ok(s) => {
                ok += 1;
                multicycle +=
                    usize::from(s.placement.iter().any(|q| q.end_state > q.start_state + 1));
            }
            Err(SchedError::NoInstances { .. }) => no_instances += 1,
            Err(SchedError::ClockTooShort { .. }) => clock_too_short += 1,
        }
    }
    assert!(
        ok > CASES / 2 && no_instances > 0 && clock_too_short > 0 && multicycle > 0,
        "ok {ok}, NoInstances {no_instances}, ClockTooShort {clock_too_short}, multi-cycle {multicycle}"
    );
}
