//! Operations: the nodes of the control-data flow graph.
//!
//! The paper's CDFG (§2.1) is a token-passing graph whose nodes are
//! operations and whose edges are data and control dependencies. We realize
//! the same semantics on an SSA control-flow graph:
//!
//! * the paper's *join* operation is an SSA [`OpKind::Phi`];
//! * the paper's *select* operation is an [`OpKind::Mux`];
//! * control dependencies are implied by block placement and branch
//!   terminators.
//!
//! Every operation defines a single value named by its [`OpId`].

use crate::ids::{BlockId, MemId, OpId};
use std::fmt;

/// Binary operator kinds supported by the IR.
///
/// The set mirrors the functional-unit library of the paper's §5: adders,
/// subtracters, multipliers, comparators (less-than and equality families),
/// shifters, and bitwise units.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Truncated integer division.
    Div,
    /// Remainder after truncated division.
    Rem,
    /// Signed less-than comparison (result 0 or 1).
    Lt,
    /// Signed less-or-equal comparison.
    Le,
    /// Signed greater-than comparison.
    Gt,
    /// Signed greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Bitwise and (also used for logical and on 0/1 values).
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
}

impl BinOp {
    /// Returns `true` if `a op b == b op a` for all inputs.
    ///
    /// Used by the commutativity transformation (paper §1).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Returns `true` if `(a op b) op c == a op (b op c)` for all inputs.
    ///
    /// Used by the associativity transformation (paper §1). Wrapping
    /// two's-complement addition and multiplication are associative.
    pub fn is_associative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
        )
    }

    /// Returns `true` if the operator yields a boolean (0/1) result.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Evaluates the operator on two `i64` values with wrapping semantics.
    ///
    /// Comparisons return 0 or 1. Division and remainder by zero return 0,
    /// matching the hardware convention of a benign default rather than a
    /// trap (the behavioral descriptions in the benchmark suite never divide
    /// by zero on valid inputs).
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }

    /// The operator with swapped comparison direction, when one exists.
    ///
    /// `a < b` is equivalent to `b > a`, so commutativity-style operand
    /// swaps are still possible for comparisons via the mirrored operator.
    pub fn mirrored(self) -> Option<BinOp> {
        match self {
            BinOp::Lt => Some(BinOp::Gt),
            BinOp::Le => Some(BinOp::Ge),
            BinOp::Gt => Some(BinOp::Lt),
            BinOp::Ge => Some(BinOp::Le),
            BinOp::Eq => Some(BinOp::Eq),
            BinOp::Ne => Some(BinOp::Ne),
            _ => None,
        }
    }

    /// The textual symbol of the operator (e.g. `+`, `<=`).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operator kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Bitwise not (the paper's multi-bit inverter `n1`).
    Not,
    /// Logical not: 1 if the operand is zero, else 0.
    LNot,
}

impl UnOp {
    /// Evaluates the operator on an `i64` value.
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
            UnOp::LNot => i64::from(a == 0),
        }
    }

    /// The textual symbol of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
            UnOp::LNot => "!",
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// The payload of an operation.
#[derive(Clone, PartialEq, Debug)]
pub enum OpKind {
    /// An integer constant.
    Const(i64),
    /// An external input (function parameter), identified by name.
    ///
    /// Inputs live in the entry block and consume no functional unit.
    Input(String),
    /// A binary arithmetic/logic operation.
    Bin(BinOp, OpId, OpId),
    /// A unary operation.
    Un(UnOp, OpId),
    /// The paper's *select* operation: yields `on_true` if `cond` is
    /// non-zero, else `on_false`. Both data inputs are evaluated; use
    /// control flow for genuinely conditional execution.
    Mux {
        /// The selecting condition.
        cond: OpId,
        /// Value produced when `cond` is non-zero.
        on_true: OpId,
        /// Value produced when `cond` is zero.
        on_false: OpId,
    },
    /// The paper's *join* operation: an SSA phi. One `(predecessor, value)`
    /// pair per incoming control edge of the containing block.
    Phi(Vec<(BlockId, OpId)>),
    /// A read from memory `mem` at address `addr`.
    Load {
        /// The memory being read.
        mem: MemId,
        /// The address operand.
        addr: OpId,
    },
    /// A write of `value` to memory `mem` at address `addr`.
    ///
    /// Stores are side-effecting; their defined value is a unit token used
    /// only for memory-dependence bookkeeping.
    Store {
        /// The memory being written.
        mem: MemId,
        /// The address operand.
        addr: OpId,
        /// The value operand.
        value: OpId,
    },
    /// An observable output of the behavior, identified by name.
    ///
    /// Outputs are side-effecting; simulators record each emission. They are
    /// the anchor for functional-equivalence checking of transformed CDFGs.
    Output(String, OpId),
}

impl OpKind {
    /// Returns `true` if the operation has an effect beyond its value
    /// (stores and outputs). Side-effecting ops are never dead-code
    /// eliminated and are kept in program order per memory/output stream.
    pub fn has_side_effect(&self) -> bool {
        matches!(self, OpKind::Store { .. } | OpKind::Output(..))
    }

    /// Returns `true` if the operation reads or writes a memory.
    pub fn touches_memory(&self) -> bool {
        matches!(self, OpKind::Load { .. } | OpKind::Store { .. })
    }

    /// The memory accessed, if any.
    pub fn memory(&self) -> Option<MemId> {
        match self {
            OpKind::Load { mem, .. } | OpKind::Store { mem, .. } => Some(*mem),
            _ => None,
        }
    }

    /// Appends the value operands of this operation to `out`.
    ///
    /// Phi operands are included (their control-edge association is
    /// available via [`OpKind::Phi`] directly).
    pub fn operands_into(&self, out: &mut Vec<OpId>) {
        match self {
            OpKind::Const(_) | OpKind::Input(_) => {}
            OpKind::Bin(_, a, b) => out.extend([*a, *b]),
            OpKind::Un(_, a) => out.push(*a),
            OpKind::Mux {
                cond,
                on_true,
                on_false,
            } => out.extend([*cond, *on_true, *on_false]),
            OpKind::Phi(incoming) => out.extend(incoming.iter().map(|(_, v)| *v)),
            OpKind::Load { addr, .. } => out.push(*addr),
            OpKind::Store { addr, value, .. } => out.extend([*addr, *value]),
            OpKind::Output(_, v) => out.push(*v),
        }
    }

    /// Whether `v` is one of this operation's value operands (phi
    /// operands included). Allocation-free; lets rewrites skip ops they
    /// would not change.
    pub fn uses(&self, v: OpId) -> bool {
        match self {
            OpKind::Const(_) | OpKind::Input(_) => false,
            OpKind::Bin(_, a, b) => *a == v || *b == v,
            OpKind::Un(_, a) | OpKind::Load { addr: a, .. } | OpKind::Output(_, a) => *a == v,
            OpKind::Mux {
                cond,
                on_true,
                on_false,
            } => *cond == v || *on_true == v || *on_false == v,
            OpKind::Phi(incoming) => incoming.iter().any(|&(_, x)| x == v),
            OpKind::Store { addr, value, .. } => *addr == v || *value == v,
        }
    }

    /// Returns the value operands of this operation as a fresh vector.
    pub fn operands(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        self.operands_into(&mut out);
        out
    }

    /// Applies `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(OpId) -> OpId) {
        match self {
            OpKind::Const(_) | OpKind::Input(_) => {}
            OpKind::Bin(_, a, b) => {
                *a = f(*a);
                *b = f(*b);
            }
            OpKind::Un(_, a) => *a = f(*a),
            OpKind::Mux {
                cond,
                on_true,
                on_false,
            } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            OpKind::Phi(incoming) => {
                for (_, v) in incoming.iter_mut() {
                    *v = f(*v);
                }
            }
            OpKind::Load { addr, .. } => *addr = f(*addr),
            OpKind::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            OpKind::Output(_, v) => *v = f(*v),
        }
    }
}

/// A single IR operation: its kind plus an optional human-readable label.
///
/// Labels carry the paper's annotations (`+1`, `*1`, `++1`, `S`) through
/// scheduling so STG printouts can mirror Figure 1(c).
#[derive(Clone, PartialEq, Debug)]
pub struct Op {
    /// What the operation computes.
    pub kind: OpKind,
    /// Optional display label (e.g. `"+1"`).
    pub label: Option<String>,
}

impl Op {
    /// Creates an unlabeled operation.
    pub fn new(kind: OpKind) -> Self {
        Op { kind, label: None }
    }

    /// Creates a labeled operation.
    pub fn with_label(kind: OpKind, label: impl Into<String>) -> Self {
        Op {
            kind,
            label: Some(label.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutative_set_is_correct() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Mul.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::Xor.is_commutative());
    }

    #[test]
    fn associative_set_is_correct() {
        assert!(BinOp::Add.is_associative());
        assert!(!BinOp::Sub.is_associative());
        assert!(!BinOp::Lt.is_associative());
    }

    #[test]
    fn eval_comparisons_yield_bool() {
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(BinOp::Lt.eval(2, 1), 0);
        assert_eq!(BinOp::Ge.eval(2, 2), 1);
        assert_eq!(BinOp::Ne.eval(2, 2), 0);
    }

    #[test]
    fn eval_wraps_on_overflow() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Mul.eval(i64::MAX, 2), -2);
    }

    #[test]
    fn eval_division_by_zero_is_benign() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Rem.eval(5, 0), 0);
    }

    #[test]
    fn mirrored_swaps_direction() {
        assert_eq!(BinOp::Lt.mirrored(), Some(BinOp::Gt));
        assert_eq!(BinOp::Ge.mirrored(), Some(BinOp::Le));
        assert_eq!(BinOp::Add.mirrored(), None);
        // Mirrored equality is itself.
        assert_eq!(BinOp::Eq.mirrored(), Some(BinOp::Eq));
    }

    #[test]
    fn mirrored_is_consistent_with_eval() {
        for op in [BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge, BinOp::Eq] {
            let m = op.mirrored().unwrap();
            for a in -2..3 {
                for b in -2..3 {
                    assert_eq!(op.eval(a, b), m.eval(b, a), "{op} vs {m} at {a},{b}");
                }
            }
        }
    }

    #[test]
    fn unop_eval() {
        assert_eq!(UnOp::Neg.eval(5), -5);
        assert_eq!(UnOp::Not.eval(0), -1);
        assert_eq!(UnOp::LNot.eval(0), 1);
        assert_eq!(UnOp::LNot.eval(7), 0);
    }

    #[test]
    fn operands_cover_all_kinds() {
        let a = OpId(0);
        let b = OpId(1);
        let c = OpId(2);
        assert!(OpKind::Const(3).operands().is_empty());
        assert!(OpKind::Input("x".into()).operands().is_empty());
        assert_eq!(OpKind::Bin(BinOp::Add, a, b).operands(), vec![a, b]);
        assert_eq!(OpKind::Un(UnOp::Neg, a).operands(), vec![a]);
        assert_eq!(
            OpKind::Mux {
                cond: a,
                on_true: b,
                on_false: c
            }
            .operands(),
            vec![a, b, c]
        );
        assert_eq!(
            OpKind::Phi(vec![(BlockId(0), a), (BlockId(1), b)]).operands(),
            vec![a, b]
        );
        assert_eq!(
            OpKind::Load {
                mem: MemId(0),
                addr: a
            }
            .operands(),
            vec![a]
        );
        assert_eq!(
            OpKind::Store {
                mem: MemId(0),
                addr: a,
                value: b
            }
            .operands(),
            vec![a, b]
        );
        assert_eq!(OpKind::Output("o".into(), c).operands(), vec![c]);
    }

    #[test]
    fn uses_agrees_with_operands() {
        let kinds = [
            OpKind::Const(3),
            OpKind::Input("x".into()),
            OpKind::Bin(BinOp::Add, OpId(0), OpId(1)),
            OpKind::Un(UnOp::Neg, OpId(2)),
            OpKind::Mux {
                cond: OpId(0),
                on_true: OpId(1),
                on_false: OpId(2),
            },
            OpKind::Phi(vec![(BlockId(0), OpId(1)), (BlockId(1), OpId(2))]),
            OpKind::Load {
                mem: MemId(0),
                addr: OpId(2),
            },
            OpKind::Store {
                mem: MemId(0),
                addr: OpId(0),
                value: OpId(1),
            },
            OpKind::Output("o".into(), OpId(1)),
        ];
        for kind in &kinds {
            for v in 0..4 {
                let v = OpId(v);
                assert_eq!(kind.uses(v), kind.operands().contains(&v), "{kind:?} {v}");
            }
        }
    }

    #[test]
    fn map_operands_rewrites_every_use() {
        let mut kind = OpKind::Store {
            mem: MemId(0),
            addr: OpId(1),
            value: OpId(1),
        };
        kind.map_operands(|v| if v == OpId(1) { OpId(9) } else { v });
        assert_eq!(kind.operands(), vec![OpId(9), OpId(9)]);
    }

    #[test]
    fn side_effects_flagged() {
        assert!(OpKind::Store {
            mem: MemId(0),
            addr: OpId(0),
            value: OpId(1)
        }
        .has_side_effect());
        assert!(OpKind::Output("y".into(), OpId(0)).has_side_effect());
        assert!(!OpKind::Load {
            mem: MemId(0),
            addr: OpId(0)
        }
        .has_side_effect());
        assert!(!OpKind::Const(1).has_side_effect());
    }
}
