//! One-call evaluation of a scheduling result: Markov analysis + power
//! model + optional Vdd scaling. This is the estimator invoked in the
//! inner loop of the transformation search (paper Figure 5, step 6).

use crate::markov::{analyze_preferring_empirical, MarkovAnalysis};
use crate::power::{estimate, Estimate};
use crate::vdd::{scale_voltage, VDD_REF};
use fact_sched::{FuLibrary, ScheduleResult};

/// Evaluates a schedule at the reference voltage.
///
/// # Errors
/// Propagates Markov-analysis failures (malformed STGs).
///
/// # Examples
///
/// ```
/// use fact_estim::{evaluate, section5_library};
/// use fact_sched::{schedule, Allocation, SchedOptions};
/// use fact_sim::BranchProfile;
///
/// let f = fact_lang::compile("proc f(a, b) { out y = a * b; }")?;
/// let (lib, rules) = section5_library();
/// let mut alloc = Allocation::new();
/// alloc.set(lib.by_name("mt1").unwrap(), 1);
/// let sr = schedule(
///     &f, &lib, &rules, &alloc, &BranchProfile::uniform(), &SchedOptions::default(),
/// )?;
/// let est = evaluate(&sr, &lib, 25.0)?;
/// assert!(est.average_schedule_length >= 1.0);
/// assert!(est.energy_vdd2 > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(
    sr: &ScheduleResult,
    library: &FuLibrary,
    clock_ns: f64,
) -> Result<Estimate, String> {
    Ok(evaluate_analyzed(sr, &markov_of(sr)?, library, clock_ns))
}

/// [`evaluate`] over an already-computed Markov analysis of `sr` (from
/// [`markov_of`]), for callers that also need the analysis itself.
pub fn evaluate_analyzed(
    sr: &ScheduleResult,
    markov: &MarkovAnalysis,
    library: &FuLibrary,
    clock_ns: f64,
) -> Estimate {
    estimate(
        &sr.stg,
        markov,
        &sr.function,
        &sr.selection,
        library,
        clock_ns,
        VDD_REF,
    )
}

/// Evaluates a schedule in power-optimization mode: if the schedule beats
/// `base_cycles` (the untransformed design's average schedule length), the
/// supply voltage is scaled down until performance matches the baseline
/// and power is reported at the scaled voltage over the baseline time
/// (paper §2.2, Example 1).
///
/// # Errors
/// Propagates Markov-analysis failures.
pub fn evaluate_power_mode(
    sr: &ScheduleResult,
    library: &FuLibrary,
    clock_ns: f64,
    base_cycles: f64,
) -> Result<Estimate, String> {
    let markov = markov_of(sr)?;
    let vdd = scale_voltage(base_cycles, markov.average_schedule_length);
    let mut est = estimate(
        &sr.stg,
        &markov,
        &sr.function,
        &sr.selection,
        library,
        clock_ns,
        vdd,
    );
    // At the scaled voltage the design takes the baseline's time; report
    // power over that budget (never less than the design's own time).
    let time_ns = base_cycles.max(markov.average_schedule_length) * clock_ns;
    est.power = est.energy_vdd2 * vdd * vdd / time_ns;
    Ok(est)
}

/// Runs just the Markov analysis of a schedule.
///
/// # Errors
/// Propagates Markov-analysis failures.
pub fn markov_of(sr: &ScheduleResult) -> Result<MarkovAnalysis, String> {
    analyze_preferring_empirical(&sr.stg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{section5_library, table1_library};
    use fact_lang::compile;
    use fact_sched::{schedule, Allocation, SchedOptions};
    use fact_sim::{generate, profile, InputSpec};

    /// The paper's TEST1 (Figure 1(a)), with the branch probabilities of
    /// Example 1: while closes w.p. 0.98, if taken w.p. 0.37.
    fn test1_estimate(opts: &SchedOptions) -> (Estimate, f64) {
        let f = compile(
            r#"
            proc test1(c1, c2) {
                var i = 0;
                var a = 0;
                array x[128];
                while (c2 > i) {
                    if (i < c1) { a = 13 * (a + 7); } else { a = a + 17; }
                    i = i + 1;
                    x[i] = a;
                }
                out a = a;
            }
            "#,
        )
        .unwrap();
        let (lib, rules) = table1_library();
        let mut alloc = Allocation::new();
        alloc.set(lib.by_name("comp1").unwrap(), 2);
        alloc.set(lib.by_name("cla1").unwrap(), 2);
        alloc.set(lib.by_name("incr1").unwrap(), 1);
        alloc.set(lib.by_name("w_mult1").unwrap(), 1);
        // Traces chosen to hit the paper's probabilities: c2 = 49 (while
        // closes 49/50 = 0.98), c1 ≈ 0.37·c2.
        let traces = generate(
            &[
                ("c1".to_string(), InputSpec::Constant(18)),
                ("c2".to_string(), InputSpec::Constant(49)),
            ],
            4,
            7,
        );
        let prof = profile(&f, &traces);
        let sr = schedule(&f, &lib, &rules, &alloc, &prof, opts).unwrap();
        let est = evaluate(&sr, &lib, opts.clock_ns).unwrap();
        let m = markov_of(&sr).unwrap();
        (est, m.average_schedule_length)
    }

    #[test]
    fn test1_baseline_schedule_length_is_near_papers() {
        // The paper's Example 1 schedule averages 119.11 cycles for the
        // transformed design and 151.30 for the baseline. Our scheduler is
        // not Wavesched, so we check the magnitude (tens-to-hundreds of
        // cycles for ~49 iterations) and the qualitative ordering below.
        let baseline = SchedOptions {
            if_convert: false,
            rotate: false,
            pipeline: false,
            concurrent: false,
            ..Default::default()
        };
        let (est, len) = test1_estimate(&baseline);
        assert!(len > 50.0 && len < 400.0, "len {len}");
        assert!(est.energy_vdd2 > 0.0);
        assert!(est.power > 0.0);
    }

    #[test]
    fn scheduler_optimizations_shorten_test1() {
        let baseline = SchedOptions {
            if_convert: false,
            rotate: false,
            pipeline: false,
            concurrent: false,
            ..Default::default()
        };
        let full = SchedOptions::default();
        let (_, len_base) = test1_estimate(&baseline);
        let (_, len_full) = test1_estimate(&full);
        assert!(
            len_full < len_base,
            "full scheduler {len_full} should beat baseline {len_base}"
        );
    }

    #[test]
    fn power_mode_scales_voltage_for_faster_designs() {
        let full = SchedOptions::default();
        let baseline = SchedOptions {
            if_convert: false,
            rotate: false,
            pipeline: false,
            concurrent: false,
            ..Default::default()
        };
        let (_, len_base) = test1_estimate(&baseline);
        // Re-run the full schedule and evaluate in power mode against the
        // baseline length.
        let f = compile(
            "proc f(n) { var i = 0; var s = 0; while (i < n) { s = s + i; i = i + 1; } out s = s; }",
        )
        .unwrap();
        let (lib, rules) = section5_library();
        let mut alloc = Allocation::new();
        alloc.set(lib.by_name("a1").unwrap(), 1);
        alloc.set(lib.by_name("i1").unwrap(), 1);
        alloc.set(lib.by_name("cp1").unwrap(), 1);
        let traces = generate(&[("n".to_string(), InputSpec::Constant(30))], 2, 3);
        let prof = profile(&f, &traces);
        let sr_full = schedule(&f, &lib, &rules, &alloc, &prof, &full).unwrap();
        let sr_base = schedule(&f, &lib, &rules, &alloc, &prof, &baseline).unwrap();
        let m_base = markov_of(&sr_base).unwrap();
        let est_ref = evaluate(&sr_full, &lib, 25.0).unwrap();
        let est_scaled =
            evaluate_power_mode(&sr_full, &lib, 25.0, m_base.average_schedule_length).unwrap();
        assert!(est_scaled.vdd < est_ref.vdd);
        assert!(est_scaled.power < est_ref.power);
        let _ = len_base;
    }
}
