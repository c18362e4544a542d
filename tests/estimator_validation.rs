//! Cross-validation of the estimation stack: the analytic absorbing-chain
//! solution and a seeded Monte-Carlo random walk over the same STG must
//! agree, on hand-built chains and on every benchmark of the suite. This
//! catches inconsistencies anywhere in the chain: STG transition
//! assembly, probability algebra, and the linear solver.

use fact_core::suite;
use fact_estim::{analyze, section5_library};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sched::{schedule, SchedOptions, StateId, Stg};
use fact_sim::profile;

/// Aggregate results of a batch of random walks.
struct MonteCarloResult {
    /// Number of walks that reached `done` within the step budget.
    completed: usize,
    /// Number of walks cut off by the step budget.
    truncated: usize,
    /// Sample mean of cycles to completion.
    mean_length: f64,
    /// Mean visits per state (index by [`StateId::index`]).
    mean_visits: Vec<f64>,
}

impl MonteCarloResult {
    /// Mean visits to `s` per execution.
    fn visits(&self, s: StateId) -> f64 {
        self.mean_visits[s.index()]
    }
}

/// Runs `walks` random walks from the entry to the done state.
///
/// Each step picks an outgoing transition with its annotated probability
/// (transitions of a state must sum to ~1, as [`Stg::validate`] enforces).
/// Walks exceeding `max_steps` are truncated and excluded from the mean.
fn simulate_stg(stg: &Stg, walks: usize, max_steps: usize, seed: u64) -> MonteCarloResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let done = stg.done();
    let mut lengths: Vec<f64> = Vec::with_capacity(walks);
    let mut visit_totals = vec![0.0f64; stg.num_states()];
    let mut truncated = 0usize;

    // Pre-index outgoing transitions per state for O(1) stepping.
    let mut outgoing: Vec<Vec<(StateId, f64)>> = vec![Vec::new(); stg.num_states()];
    for t in stg.transitions() {
        outgoing[t.from.index()].push((t.to, t.prob));
    }

    for _ in 0..walks {
        let mut cur = stg.entry();
        let mut steps = 0usize;
        let mut visits = vec![0u32; stg.num_states()];
        let mut ok = true;
        while cur != done {
            visits[cur.index()] += 1;
            steps += 1;
            if steps > max_steps {
                ok = false;
                truncated += 1;
                break;
            }
            let outs = &outgoing[cur.index()];
            if outs.is_empty() {
                ok = false;
                truncated += 1;
                break;
            }
            let mut x: f64 = rng.gen_range(0.0..1.0);
            let mut next = outs[outs.len() - 1].0;
            for &(to, p) in outs {
                if x < p {
                    next = to;
                    break;
                }
                x -= p;
            }
            cur = next;
        }
        if ok {
            lengths.push(steps as f64);
            for (i, &v) in visits.iter().enumerate() {
                visit_totals[i] += v as f64;
            }
        }
    }

    let n = lengths.len().max(1) as f64;
    MonteCarloResult {
        completed: lengths.len(),
        truncated,
        mean_length: lengths.iter().sum::<f64>() / n,
        mean_visits: visit_totals.iter().map(|&v| v / n).collect(),
    }
}

#[test]
fn monte_carlo_agrees_with_markov_on_every_benchmark() {
    let (lib, rules) = section5_library();
    for b in suite(&lib) {
        let prof = profile(&b.function, &b.traces);
        let sr = schedule(
            &b.function,
            &lib,
            &rules,
            &b.allocation,
            &prof,
            &SchedOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let analytic = analyze(&sr.stg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let mc = simulate_stg(&sr.stg, 8_000, 2_000_000, 1234);
        assert_eq!(mc.truncated, 0, "{}: truncated walks", b.name);
        let rel = (mc.mean_length - analytic.average_schedule_length).abs()
            / analytic.average_schedule_length;
        assert!(
            rel < 0.05,
            "{}: MC {:.2} vs analytic {:.2} (rel {:.3})",
            b.name,
            mc.mean_length,
            analytic.average_schedule_length,
            rel
        );
    }
}

#[test]
fn monte_carlo_agrees_per_state_on_test1() {
    let f = fact_lang::compile(fact_core::suite::TEST1_SRC).unwrap();
    let (lib, rules) = fact_estim::table1_library();
    let mut alloc = fact_sched::Allocation::new();
    alloc.set(lib.by_name("comp1").unwrap(), 2);
    alloc.set(lib.by_name("cla1").unwrap(), 2);
    alloc.set(lib.by_name("incr1").unwrap(), 1);
    alloc.set(lib.by_name("w_mult1").unwrap(), 1);
    let traces = fact_sim::generate(
        &[
            ("c1".to_string(), fact_sim::InputSpec::Constant(18)),
            ("c2".to_string(), fact_sim::InputSpec::Constant(49)),
        ],
        4,
        7,
    );
    let prof = profile(&f, &traces);
    let sr = schedule(&f, &lib, &rules, &alloc, &prof, &SchedOptions::default()).unwrap();
    let analytic = analyze(&sr.stg).unwrap();
    let mc = simulate_stg(&sr.stg, 12_000, 1_000_000, 99);
    for s in sr.stg.state_ids() {
        if s == sr.stg.done() {
            continue;
        }
        let a = analytic.visits(s);
        let m = mc.visits(s);
        let tol = 0.05 * a.max(1.0);
        assert!((a - m).abs() < tol, "{s}: analytic {a:.2} vs MC {m:.2}");
    }
}

fn geometric(q: f64) -> Stg {
    let mut stg = Stg::new();
    let k = stg.add_state("k");
    stg.set_entry(k);
    stg.add_transition(k, k, q, "");
    let done = stg.done();
    stg.add_transition(k, done, 1.0 - q, "");
    stg
}

#[test]
fn matches_analytic_mean_on_geometric_loop() {
    let stg = geometric(0.9);
    let analytic = analyze(&stg).unwrap().average_schedule_length;
    let mc = simulate_stg(&stg, 20_000, 10_000, 7);
    assert_eq!(mc.truncated, 0);
    let rel = (mc.mean_length - analytic).abs() / analytic;
    assert!(rel < 0.03, "MC {} vs analytic {analytic}", mc.mean_length);
}

#[test]
fn matches_analytic_visits_on_branching_chain() {
    // entry -> (0.3: a ; 0.7: b) -> done, with a self-looping at 0.5.
    let mut stg = Stg::new();
    let e = stg.add_state("e");
    let a = stg.add_state("a");
    let b = stg.add_state("b");
    stg.set_entry(e);
    stg.add_transition(e, a, 0.3, "");
    stg.add_transition(e, b, 0.7, "");
    stg.add_transition(a, a, 0.5, "");
    let done = stg.done();
    stg.add_transition(a, done, 0.5, "");
    stg.add_transition(b, done, 1.0, "");
    let analytic = analyze(&stg).unwrap();
    let mc = simulate_stg(&stg, 40_000, 10_000, 11);
    for s in stg.state_ids() {
        if s == stg.done() {
            continue;
        }
        let diff = (mc.visits(s) - analytic.visits(s)).abs();
        assert!(
            diff < 0.02,
            "{s}: MC {} vs analytic {}",
            mc.visits(s),
            analytic.visits(s)
        );
    }
}

#[test]
fn truncation_is_reported() {
    let stg = geometric(0.999);
    let mc = simulate_stg(&stg, 50, 10, 3);
    assert!(mc.truncated > 0);
    assert_eq!(mc.completed + mc.truncated, 50);
}

#[test]
fn deterministic_for_fixed_seed() {
    let stg = geometric(0.8);
    let a = simulate_stg(&stg, 500, 1000, 42);
    let b = simulate_stg(&stg, 500, 1000, 42);
    assert_eq!(a.mean_length, b.mean_length);
    assert_eq!(a.completed, b.completed);
}
