//! The paper's functional-unit libraries.
//!
//! * [`table1_library`] — Table 1 of §2.2 (used in the power-estimation
//!   walkthrough of Example 1): `comp1`, `cla1`, `incr1`, `w_mult1`,
//!   `reg1`, `mem1`, with `E/Vdd²`, delay, and area exactly as printed.
//! * [`section5_library`] — the experimental library of §5: adder `a1`
//!   (10ns), subtracter `sb1` (10ns), multiplier `mt1` (23ns), less-than
//!   comparator `cp1` (10ns), equality comparator `e1` (5ns), incrementer
//!   `i1` (5ns), multi-bit inverter `n1` (2ns), shifter `s1` (10ns).
//!   §5 does not print energy coefficients for these units; we assign them
//!   from the Table 1 units of the same class (documented in DESIGN.md).

use fact_ir::{BinOp, Function, OpKind};
use fact_sched::{FuLibrary, FuSpec, SelectionRules};

/// Builds the Table 1 library and matching selection rules.
///
/// Units: `comp1` (cmp, E/Vdd²=1.1, 12ns), `cla1` (add/sub, 1.3, 10ns),
/// `incr1` (increment, 0.7, 13ns), `w_mult1` (multiply, 2.3, 23ns);
/// registers `reg1` (0.3, 3ns) and memory `mem1` (1.9, 15ns).
pub fn table1_library() -> (FuLibrary, SelectionRules) {
    let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
    let comp1 = lib.add(FuSpec {
        name: "comp1".into(),
        energy_coeff: 1.1,
        delay_ns: 12.0,
        area: 1.3,
    });
    let cla1 = lib.add(FuSpec {
        name: "cla1".into(),
        energy_coeff: 1.3,
        delay_ns: 10.0,
        area: 1.5,
    });
    let incr1 = lib.add(FuSpec {
        name: "incr1".into(),
        energy_coeff: 0.7,
        delay_ns: 13.0,
        area: 1.1,
    });
    let w_mult1 = lib.add(FuSpec {
        name: "w_mult1".into(),
        energy_coeff: 2.3,
        delay_ns: 23.0,
        area: 3.9,
    });
    let rules = SelectionRules {
        add: Some(cla1),
        sub: Some(cla1),
        mul: Some(w_mult1),
        cmp: Some(comp1),
        eq: Some(comp1),
        incr: Some(incr1),
        ..Default::default()
    };
    (lib, rules)
}

/// Builds the §5 experimental library and matching selection rules.
///
/// Delays are the paper's; energy coefficients are taken from the Table 1
/// unit of the same class, scaled by delay where no counterpart exists.
pub fn section5_library() -> (FuLibrary, SelectionRules) {
    let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
    let a1 = lib.add(FuSpec {
        name: "a1".into(),
        energy_coeff: 1.3,
        delay_ns: 10.0,
        area: 1.5,
    });
    let sb1 = lib.add(FuSpec {
        name: "sb1".into(),
        energy_coeff: 1.3,
        delay_ns: 10.0,
        area: 1.5,
    });
    let mt1 = lib.add(FuSpec {
        name: "mt1".into(),
        energy_coeff: 2.3,
        delay_ns: 23.0,
        area: 3.9,
    });
    let cp1 = lib.add(FuSpec {
        name: "cp1".into(),
        energy_coeff: 1.1,
        delay_ns: 10.0,
        area: 1.3,
    });
    let e1 = lib.add(FuSpec {
        name: "e1".into(),
        energy_coeff: 0.6,
        delay_ns: 5.0,
        area: 0.8,
    });
    let i1 = lib.add(FuSpec {
        name: "i1".into(),
        energy_coeff: 0.7,
        delay_ns: 5.0,
        area: 1.1,
    });
    let n1 = lib.add(FuSpec {
        name: "n1".into(),
        energy_coeff: 0.2,
        delay_ns: 2.0,
        area: 0.4,
    });
    let s1 = lib.add(FuSpec {
        name: "s1".into(),
        energy_coeff: 0.9,
        delay_ns: 10.0,
        area: 1.2,
    });
    let rules = SelectionRules {
        add: Some(a1),
        sub: Some(sb1),
        mul: Some(mt1),
        cmp: Some(cp1),
        eq: Some(e1),
        incr: Some(i1),
        shift: Some(s1),
        logic: Some(n1),
        ..Default::default()
    };
    (lib, rules)
}

/// Rejects a behavior that divides (`/` or `%`) when `rules` select no
/// divider, as the §5 library's do not. Front ends call it before they
/// generate traces, so such a behavior fails at once with this message
/// instead of with the scheduler's "no functional unit" for some op.
///
/// # Errors
/// The message names the first dividing op.
pub fn check_divider(f: &Function, rules: &SelectionRules) -> Result<(), String> {
    if rules.div.is_some() {
        return Ok(());
    }
    let divides = |op| matches!(f.op(op).kind, OpKind::Bin(BinOp::Div | BinOp::Rem, _, _));
    match f
        .block_ids()
        .flat_map(|b| f.block(b).ops.iter().copied())
        .find(|&op| divides(op))
    {
        None => Ok(()),
        Some(op) => Err(format!(
            "op {op} divides: `/` and `%` need a divider, and the §5 \
             functional-unit library has none"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dividing_behaviors_are_rejected_without_a_divider() {
        let (_, rules) = section5_library();
        for src in [
            "proc f(a, b) { out y = a / (b + 1); }",
            "proc f(a, b) { out y = a % (b + 1); }",
        ] {
            let f = fact_lang::compile(src).unwrap();
            let e = check_divider(&f, &rules).unwrap_err();
            assert!(e.contains("need a divider"), "{e}");
            assert!(e.contains("§5"), "{e}");
        }
        let f = fact_lang::compile("proc f(a, b) { out y = a * (b + 1); }").unwrap();
        assert_eq!(check_divider(&f, &rules), Ok(()));
    }

    #[test]
    fn table1_matches_paper_values() {
        let (lib, rules) = table1_library();
        let comp = lib.by_name("comp1").unwrap();
        assert_eq!(lib.spec(comp).energy_coeff, 1.1);
        assert_eq!(lib.spec(comp).delay_ns, 12.0);
        assert_eq!(lib.spec(comp).area, 1.3);
        let incr = lib.by_name("incr1").unwrap();
        assert_eq!(lib.spec(incr).delay_ns, 13.0);
        assert_eq!(lib.register_energy_coeff, 0.3);
        assert_eq!(lib.memory_energy_coeff, 1.9);
        assert_eq!(rules.mul, lib.by_name("w_mult1"));
    }

    #[test]
    fn section5_delays_match_paper() {
        let (lib, rules) = section5_library();
        for (name, d) in [
            ("a1", 10.0),
            ("sb1", 10.0),
            ("mt1", 23.0),
            ("cp1", 10.0),
            ("e1", 5.0),
            ("i1", 5.0),
            ("n1", 2.0),
            ("s1", 10.0),
        ] {
            let id = lib.by_name(name).unwrap();
            assert_eq!(lib.spec(id).delay_ns, d, "{name}");
        }
        assert!(rules.shift.is_some());
        assert!(rules.logic.is_some());
    }

    #[test]
    fn incrementer_chains_with_comparator_in_25ns_table1() {
        // Table 1: incr1 13ns + comp1 12ns = 25ns — the Figure 1(c) chain.
        let (lib, _) = table1_library();
        let i = lib.spec(lib.by_name("incr1").unwrap()).delay_ns;
        let c = lib.spec(lib.by_name("comp1").unwrap()).delay_ns;
        assert!(i + c <= 25.0);
    }
}
