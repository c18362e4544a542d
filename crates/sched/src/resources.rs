//! Functional-unit libraries, allocations, and operation binding.
//!
//! Mirrors the paper's resource model: a library of functional units
//! characterized for energy coefficient (`E/Vdd²`), delay, and area
//! (Table 1 and §5), an *allocation* limiting how many instances of each
//! unit may be used, and a *functional unit selection* mapping each
//! operation to the unit type that executes it.

use fact_ir::{BinOp, Function, OpId, OpKind, UnOp};
use std::collections::HashMap;
use std::fmt;

/// Identifies a functional-unit type within a [`FuLibrary`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuId(pub u32);

impl fmt::Display for FuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fu{}", self.0)
    }
}

/// Characterization of one functional-unit type.
#[derive(Clone, PartialEq, Debug)]
pub struct FuSpec {
    /// Library name (e.g. `"a1"`, `"w_mult1"`).
    pub name: String,
    /// Energy per operation divided by `Vdd²` (the paper's `C_type`).
    pub energy_coeff: f64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: f64,
    /// Relative area.
    pub area: f64,
}

/// A library of functional-unit types plus register/memory coefficients.
#[derive(Clone, PartialEq, Debug)]
pub struct FuLibrary {
    specs: Vec<FuSpec>,
    /// Energy coefficient of one register access.
    pub register_energy_coeff: f64,
    /// Register access delay in nanoseconds (setup+clk-to-q budget).
    pub register_delay_ns: f64,
    /// Energy coefficient of one memory access.
    pub memory_energy_coeff: f64,
    /// Memory access delay in nanoseconds.
    pub memory_delay_ns: f64,
}

impl FuLibrary {
    /// Creates an empty library with the given storage coefficients.
    pub fn new(
        register_energy_coeff: f64,
        register_delay_ns: f64,
        memory_energy_coeff: f64,
        memory_delay_ns: f64,
    ) -> Self {
        FuLibrary {
            specs: Vec::new(),
            register_energy_coeff,
            register_delay_ns,
            memory_energy_coeff,
            memory_delay_ns,
        }
    }

    /// Adds a unit type and returns its id.
    pub fn add(&mut self, spec: FuSpec) -> FuId {
        let id = FuId(self.specs.len() as u32);
        self.specs.push(spec);
        id
    }

    /// Looks up a unit by id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn spec(&self, id: FuId) -> &FuSpec {
        &self.specs[id.0 as usize]
    }

    /// Looks up a unit by name.
    pub fn by_name(&self, name: &str) -> Option<FuId> {
        self.specs
            .iter()
            .position(|s| s.name == name)
            .map(|i| FuId(i as u32))
    }

    /// Iterates over `(id, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FuId, &FuSpec)> {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (FuId(i as u32), s))
    }

    /// Number of unit types.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the library has no unit types.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// How many instances of each unit type the design may use (Table 3).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Allocation {
    counts: HashMap<FuId, u32>,
}

impl Allocation {
    /// An empty allocation (no units available).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the instance count of a unit type.
    pub fn set(&mut self, fu: FuId, count: u32) -> &mut Self {
        self.counts.insert(fu, count);
        self
    }

    /// Instance count for a unit type (0 if unallocated).
    pub fn count(&self, fu: FuId) -> u32 {
        self.counts.get(&fu).copied().unwrap_or(0)
    }

    /// Iterates over `(unit, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (FuId, u32)> + '_ {
        self.counts.iter().map(|(&f, &c)| (f, c))
    }
}

/// Maps operations to the functional-unit types that execute them.
///
/// Constants, inputs, phis, muxes, and outputs are *free*: they consume no
/// functional unit (phis and muxes are register transfers / steering logic
/// whose cost is folded into the interconnect overhead, as in \[5\]).
#[derive(Clone, Debug)]
pub struct FuSelection {
    /// The unit of each op, by op index ([`FuSelection::FREE`] for a free
    /// op): a schedule plan holds one per design, so it is kept compact.
    by_op: Box<[u32]>,
}

/// Rules for building a [`FuSelection`] from a function.
///
/// Each rule names the unit used for a class of operations. `None` entries
/// make operations of that class an error, surfacing incomplete libraries
/// early.
#[derive(Clone, Debug, Default)]
pub struct SelectionRules {
    /// Unit for additions (and subtractions if `sub` is `None`).
    pub add: Option<FuId>,
    /// Unit for subtractions.
    pub sub: Option<FuId>,
    /// Unit for multiplications.
    pub mul: Option<FuId>,
    /// Unit for division/remainder.
    pub div: Option<FuId>,
    /// Unit for magnitude comparisons (`<`, `<=`, `>`, `>=`).
    pub cmp: Option<FuId>,
    /// Unit for equality comparisons (`==`, `!=`); falls back to `cmp`.
    pub eq: Option<FuId>,
    /// Unit for increments/decrements (`x ± 1` with a constant operand);
    /// falls back to `add`/`sub`.
    pub incr: Option<FuId>,
    /// Unit for shifts.
    pub shift: Option<FuId>,
    /// Unit for bitwise logic (`&`, `|`, `^`) and bitwise not.
    pub logic: Option<FuId>,
}

/// Error produced when an operation has no unit to run on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SelectionError {
    /// The unbindable operation.
    pub op: OpId,
    /// Description of the missing unit class.
    pub missing: String,
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no functional unit for op {} ({})",
            self.op, self.missing
        )
    }
}

impl std::error::Error for SelectionError {}

impl FuSelection {
    /// What `by_op` holds for an op that needs no unit.
    const FREE: u32 = u32::MAX;

    /// Builds a selection for every datapath operation of `f` using the
    /// given rules.
    ///
    /// # Errors
    /// Returns [`SelectionError`] if some operation class has no unit.
    pub fn from_rules(f: &Function, rules: &SelectionRules) -> Result<Self, SelectionError> {
        let mut by_op = vec![Self::FREE; f.num_ops()];
        let is_const_one = |v: OpId| matches!(f.op(v).kind, OpKind::Const(1) | OpKind::Const(-1));
        for b in f.block_ids() {
            for &op in &f.block(b).ops {
                let fu = match &f.op(op).kind {
                    OpKind::Bin(bin, x, y) => {
                        let class: (&str, Option<FuId>) = match bin {
                            BinOp::Add | BinOp::Sub => {
                                let incrementable = is_const_one(*x) || is_const_one(*y);
                                let base = if *bin == BinOp::Sub {
                                    rules.sub.or(rules.add)
                                } else {
                                    rules.add
                                };
                                if incrementable {
                                    ("adder", rules.incr.or(base))
                                } else {
                                    ("adder", base)
                                }
                            }
                            BinOp::Mul => ("multiplier", rules.mul),
                            BinOp::Div | BinOp::Rem => ("divider", rules.div),
                            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                                ("comparator", rules.cmp)
                            }
                            BinOp::Eq | BinOp::Ne => {
                                ("equality comparator", rules.eq.or(rules.cmp))
                            }
                            BinOp::Shl | BinOp::Shr => ("shifter", rules.shift),
                            BinOp::And | BinOp::Or | BinOp::Xor => ("logic unit", rules.logic),
                        };
                        match class.1 {
                            Some(fu) => Some(fu),
                            None => {
                                return Err(SelectionError {
                                    op,
                                    missing: class.0.to_string(),
                                })
                            }
                        }
                    }
                    OpKind::Un(UnOp::Neg, _) => match rules.sub.or(rules.add) {
                        Some(fu) => Some(fu),
                        None => {
                            return Err(SelectionError {
                                op,
                                missing: "subtracter (for negation)".to_string(),
                            })
                        }
                    },
                    OpKind::Un(UnOp::Not | UnOp::LNot, _) => match rules.logic {
                        Some(fu) => Some(fu),
                        None => {
                            return Err(SelectionError {
                                op,
                                missing: "inverter".to_string(),
                            })
                        }
                    },
                    // Loads/stores use memory ports, not functional units.
                    // Everything else is free.
                    _ => None,
                };
                if let Some(fu) = fu {
                    by_op[op.index()] = fu.0;
                }
            }
        }
        Ok(FuSelection {
            by_op: by_op.into(),
        })
    }

    /// The unit executing `op`, if it needs one.
    pub fn fu_of(&self, op: OpId) -> Option<FuId> {
        match self.by_op.get(op.index()) {
            Some(&fu) if fu != Self::FREE => Some(FuId(fu)),
            _ => None,
        }
    }

    /// Counts operations bound to each unit type.
    pub fn usage_histogram(&self) -> HashMap<FuId, usize> {
        let mut h = HashMap::new();
        for &fu in self.by_op.iter().filter(|&&fu| fu != Self::FREE) {
            *h.entry(FuId(fu)).or_insert(0) += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_lang::compile;

    fn tiny_library() -> (FuLibrary, SelectionRules) {
        let mut lib = FuLibrary::new(0.3, 3.0, 1.9, 15.0);
        let add = lib.add(FuSpec {
            name: "a1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let sub = lib.add(FuSpec {
            name: "sb1".into(),
            energy_coeff: 1.3,
            delay_ns: 10.0,
            area: 1.5,
        });
        let mul = lib.add(FuSpec {
            name: "mt1".into(),
            energy_coeff: 2.3,
            delay_ns: 23.0,
            area: 3.9,
        });
        let cmp = lib.add(FuSpec {
            name: "cp1".into(),
            energy_coeff: 1.1,
            delay_ns: 10.0,
            area: 1.3,
        });
        let incr = lib.add(FuSpec {
            name: "i1".into(),
            energy_coeff: 0.7,
            delay_ns: 5.0,
            area: 1.1,
        });
        let rules = SelectionRules {
            add: Some(add),
            sub: Some(sub),
            mul: Some(mul),
            cmp: Some(cmp),
            eq: Some(cmp),
            incr: Some(incr),
            ..Default::default()
        };
        (lib, rules)
    }

    #[test]
    fn library_lookup_by_name() {
        let (lib, _) = tiny_library();
        let mul = lib.by_name("mt1").unwrap();
        assert_eq!(lib.spec(mul).delay_ns, 23.0);
        assert!(lib.by_name("zz").is_none());
        assert_eq!(lib.len(), 5);
    }

    #[test]
    fn allocation_defaults_to_zero() {
        let (lib, _) = tiny_library();
        let add = lib.by_name("a1").unwrap();
        let mut alloc = Allocation::new();
        assert_eq!(alloc.count(add), 0);
        alloc.set(add, 2);
        assert_eq!(alloc.count(add), 2);
    }

    #[test]
    fn selection_binds_by_class() {
        let (lib, rules) = tiny_library();
        let f = compile("proc f(a, b) { out y = (a + b) * (a - b); }").unwrap();
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        let usage = sel.usage_histogram();
        assert_eq!(usage[&lib.by_name("a1").unwrap()], 1);
        assert_eq!(usage[&lib.by_name("sb1").unwrap()], 1);
        assert_eq!(usage[&lib.by_name("mt1").unwrap()], 1);
    }

    #[test]
    fn increment_binds_to_incrementer() {
        let (lib, rules) = tiny_library();
        let f = compile("proc f(i, n) { out j = i + 1; out k = i + n; }").unwrap();
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        let usage = sel.usage_histogram();
        assert_eq!(usage[&lib.by_name("i1").unwrap()], 1);
        assert_eq!(usage[&lib.by_name("a1").unwrap()], 1);
    }

    #[test]
    fn free_ops_are_unbound() {
        let (_, rules) = tiny_library();
        let f = compile("proc f(a) { array x[4]; x[0] = a; out y = x[0]; }").unwrap();
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        // Store, load, const, input, output: none bound to FUs.
        assert!(sel.usage_histogram().is_empty());
    }

    #[test]
    fn missing_unit_is_an_error() {
        let (_, mut rules) = tiny_library();
        rules.mul = None;
        let f = compile("proc f(a) { out y = a * a; }").unwrap();
        let err = FuSelection::from_rules(&f, &rules).unwrap_err();
        assert!(err.to_string().contains("multiplier"));
    }

    #[test]
    fn comparisons_share_the_comparator() {
        let (lib, rules) = tiny_library();
        let f = compile("proc f(a, b) { out y = (a < b) + (a == b); }").unwrap();
        let sel = FuSelection::from_rules(&f, &rules).unwrap();
        let usage = sel.usage_histogram();
        assert_eq!(usage[&lib.by_name("cp1").unwrap()], 2);
    }
}
