//! Property-based tests of the Markov analysis: conservation laws that
//! must hold for any valid absorbing STG, and agreement between the
//! analytic solution and empirical annotations on geometric chains.
//!
//! Chains come from a seed-driven generator over the in-tree `fact-prng`
//! (std-only, so the suite runs offline); a failure prints the seed.

use fact_estim::{analyze, analyze_preferring_empirical};
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use fact_sched::Stg;

/// Generated chains checked per property.
const CASES: u64 = 128;

/// The forward probabilities of the chain `seed` describes: one to six
/// states, each in `0.05..0.95`.
fn chain(seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..7usize);
    (0..n).map(|_| rng.gen_range(0.05f64..0.95)).collect()
}

/// Runs `check` on the chain of every seed, naming the failing seed.
fn for_chains(check: impl Fn(&[f64]) -> Result<(), String>) {
    for seed in 0..CASES {
        let ps = chain(seed);
        if let Err(e) = check(&ps) {
            panic!("seed {seed} (chain {ps:?}): {e}");
        }
    }
}

/// `Err(what)` unless `ok`.
fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// A random layered chain: `n` states in a line; each state goes forward
/// with probability p_i and restarts from the entry with 1-p_i; the last
/// state always exits to done. Every state reaches done, so the chain is
/// a valid absorbing process.
fn build(ps: &[f64]) -> Stg {
    let mut stg = Stg::new();
    let states: Vec<_> = (0..ps.len())
        .map(|i| stg.add_state(format!("s{i}")))
        .collect();
    stg.set_entry(states[0]);
    let done = stg.done();
    for (i, &p) in ps.iter().enumerate() {
        let next = if i + 1 < ps.len() {
            states[i + 1]
        } else {
            done
        };
        stg.add_transition(states[i], next, p, "fwd");
        stg.add_transition(states[i], states[0], 1.0 - p, "restart");
    }
    stg
}

#[test]
fn conservation_laws_hold() {
    for_chains(|ps| {
        let stg = build(ps);
        stg.validate().map_err(|e| e.to_string())?;
        let m = analyze(&stg).map_err(|e| e.to_string())?;
        // All visits non-negative; entry visited at least once.
        for s in stg.state_ids() {
            ensure(m.visits(s) >= -1e-9, || {
                format!("state {s}: negative visits")
            })?;
        }
        ensure(m.visits(stg.entry()) >= 1.0 - 1e-9, || {
            "entry visited less than once".into()
        })?;
        // Total length = sum of visits: finite, and at least one visit
        // per state of the line.
        ensure(m.average_schedule_length.is_finite(), || {
            "infinite schedule length".into()
        })?;
        ensure(m.average_schedule_length >= ps.len() as f64 - 1e-9, || {
            format!(
                "length {} under the chain length",
                m.average_schedule_length
            )
        })?;
        // Flow conservation: visits(s) = inflow(s) (+1 for entry).
        for s in stg.state_ids() {
            if s == stg.done() {
                continue;
            }
            let inflow: f64 = stg
                .transitions()
                .iter()
                .filter(|t| t.to == s)
                .map(|t| m.visits(t.from) * t.prob)
                .sum();
            let expected = inflow + if s == stg.entry() { 1.0 } else { 0.0 };
            ensure((m.visits(s) - expected).abs() < 1e-6, || {
                format!("state {s}: visits {} vs inflow {expected}", m.visits(s))
            })?;
        }
        // Probabilities sum to one.
        let total: f64 = m.state_probs.iter().sum();
        ensure((total - 1.0).abs() < 1e-6, || {
            format!("probabilities sum to {total}")
        })
    });
}

#[test]
fn empirical_annotations_override_when_complete() {
    for_chains(|ps| {
        let mut stg = build(ps);
        // Annotate every reachable state with synthetic visit counts.
        let ids: Vec<_> = stg.state_ids().collect();
        let done = stg.done();
        for (i, s) in ids.iter().enumerate() {
            if *s != done {
                stg.state_mut(*s).expected_visits = Some(1.0 + i as f64);
            }
        }
        let m = analyze_preferring_empirical(&stg).map_err(|e| e.to_string())?;
        for (i, s) in ids.iter().enumerate() {
            if *s != done {
                ensure((m.visits(*s) - (1.0 + i as f64)).abs() < 1e-12, || {
                    format!("state {s}: annotation ignored")
                })?;
            }
        }
        Ok(())
    });
}

#[test]
fn empirical_falls_back_when_incomplete() {
    for_chains(|ps| {
        let stg = build(ps); // no annotations at all
        let analytic = analyze(&stg).map_err(|e| e.to_string())?;
        let preferred = analyze_preferring_empirical(&stg).map_err(|e| e.to_string())?;
        ensure(
            (analytic.average_schedule_length - preferred.average_schedule_length).abs() < 1e-9,
            || "fallback differs from the analytic solution".into(),
        )
    });
}

#[test]
fn geometric_loop_matches_closed_form() {
    let mut rng = StdRng::seed_from_u64(0x6E0);
    for _ in 0..CASES {
        let q = rng.gen_range(0.01f64..0.99);
        let mut stg = Stg::new();
        let k = stg.add_state("k");
        stg.set_entry(k);
        stg.add_transition(k, k, q, "");
        let done = stg.done();
        stg.add_transition(k, done, 1.0 - q, "");
        let m = analyze(&stg).unwrap();
        assert!((m.visits(k) - 1.0 / (1.0 - q)).abs() < 1e-6, "q = {q}");
    }
}
