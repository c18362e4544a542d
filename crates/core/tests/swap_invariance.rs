//! The property operand-swap inheritance rests on (DESIGN §8.5.2): a
//! candidate that only exchanges the operands of one commutative op, or
//! mirrors one comparison, schedules and estimates like its parent under
//! the parent's branch profile, bit for bit, in throughput and power
//! mode. The search lets such a candidate take its parent's estimate
//! without scheduling it; this suite checks the property itself from
//! public functions only — the interpreter's `profile`, the memo-free
//! `schedule`, and `evaluate`/`evaluate_power_mode` — over every
//! `Commutativity` candidate of the §5 suite and of every member of its
//! first neighbourhood. (The seeded random programs and loop nests of
//! the root `property` suite are checked there.)

use fact_core::{suite, Benchmark, TransformLibrary};
use fact_estim::{evaluate, evaluate_power_mode, section5_library};
use fact_ir::{operand_swap_of, Function};
use fact_sched::{schedule, FuLibrary, SchedOptions, SelectionRules};
use fact_sim::{profile, BranchProfile};
use fact_xform::algebraic::Commutativity;
use fact_xform::{Region, Transform};

/// The bits of `(average_schedule_length, energy_vdd2, power)` of `g`
/// under `prof`, in throughput mode and in power mode against
/// `base_cycles`; `None` where scheduling or estimation fails.
type Bits = [Option<[u64; 3]>; 2];

fn estimate_bits(
    g: &Function,
    b: &Benchmark,
    (lib, rules): (&FuLibrary, &SelectionRules),
    prof: &BranchProfile,
    opts: &SchedOptions,
    base_cycles: f64,
) -> Bits {
    let Ok(sr) = schedule(g, lib, rules, &b.allocation, prof, opts) else {
        return [None, None];
    };
    let bits = |e: fact_estim::Estimate| {
        [
            e.average_schedule_length.to_bits(),
            e.energy_vdd2.to_bits(),
            e.power.to_bits(),
        ]
    };
    [
        evaluate(&sr, lib, opts.clock_ns).ok().map(bits),
        evaluate_power_mode(&sr, lib, opts.clock_ns, base_cycles)
            .ok()
            .map(bits),
    ]
}

/// Checks every `Commutativity` candidate of `parent` against it under
/// `parent`'s profile over `b`'s traces; returns how many it checked.
fn check_swaps(
    parent: &Function,
    b: &Benchmark,
    units: (&FuLibrary, &SelectionRules),
    opts: &SchedOptions,
    base_cycles: f64,
    ctx: &str,
) -> usize {
    let prof = profile(parent, &b.traces);
    let want = estimate_bits(parent, b, units, &prof, opts, base_cycles);
    let cands = Commutativity.candidates(parent, &Region::whole());
    for cand in &cands {
        let what = format!("{ctx}: {}", cand.description);
        assert!(
            operand_swap_of(parent, &cand.function).is_some(),
            "not recognized as an operand swap ({what})"
        );
        let got = estimate_bits(&cand.function, b, units, &prof, opts, base_cycles);
        assert_eq!(got, want, "estimate differs from the parent's ({what})");
    }
    cands.len()
}

/// Default scheduler options, and plain list scheduling with every
/// scheduler transformation off.
fn option_sets() -> [SchedOptions; 2] {
    [
        SchedOptions::default(),
        SchedOptions {
            if_convert: false,
            rotate: false,
            pipeline: false,
            concurrent: false,
            ..SchedOptions::default()
        },
    ]
}

#[test]
fn operand_swaps_of_suite_programs_estimate_like_their_parent() {
    let (lib, rules) = section5_library();
    for b in suite(&lib) {
        for opts in option_sets() {
            let base = estimate_bits(
                &b.function,
                &b,
                (&lib, &rules),
                &profile(&b.function, &b.traces),
                &opts,
                1.0,
            )[0]
            .expect("the suite program estimates")[0];
            let base_cycles = f64::from_bits(base);
            let ctx = format!("{} {opts:?}", b.name);
            let n = check_swaps(&b.function, &b, (&lib, &rules), &opts, base_cycles, &ctx);
            assert!(n > 0, "no operand swap of {}", b.name);
        }
    }
}

/// Every member of each suite program's first neighbourhood, of every
/// transformation kind, as the parent of operand swaps.
#[test]
fn operand_swaps_two_levels_deep_estimate_like_their_parent() {
    let (lib, rules) = section5_library();
    let tlib = TransformLibrary::full();
    let mut checked = 0;
    for b in suite(&lib) {
        let prof = profile(&b.function, &b.traces);
        let children = tlib.all_candidates(&b.function, &Region::whole());
        for opts in option_sets() {
            let base = estimate_bits(&b.function, &b, (&lib, &rules), &prof, &opts, 1.0)[0]
                .expect("the suite program estimates")[0];
            let base_cycles = f64::from_bits(base);
            for child in &children {
                let ctx = format!("{} after {} {opts:?}", b.name, child.description);
                checked += check_swaps(
                    &child.function,
                    &b,
                    (&lib, &rules),
                    &opts,
                    base_cycles,
                    &ctx,
                );
            }
        }
    }
    assert!(checked > 1000, "only {checked} second-level swaps checked");
}
