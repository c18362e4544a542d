//! # fact-ir — the control-data flow graph IR of the FACT reproduction
//!
//! This crate defines the intermediate representation shared by every other
//! crate in the workspace: an SSA control-flow graph that realizes the
//! paper's CDFG semantics (§2.1):
//!
//! * operations define values (tokens);
//! * the paper's *join* is an SSA [`OpKind::Phi`], its *select* a
//!   [`OpKind::Mux`];
//! * control dependencies are carried by block structure and branch
//!   terminators;
//! * each array maps to its own [`Memory`], so distinct arrays may be
//!   accessed concurrently.
//!
//! Alongside the data structures, the crate provides the graph analyses
//! ([`DomTree`], [`LoopForest`], [`mod@cfg`]), a verifier ([`verify::verify`]),
//! rewriting utilities ([`rewrite`]), an equivalence prover for rewrites
//! that keep the control-flow graph ([`prove_equivalent`]), a structural
//! check for pure operand swaps ([`operand_swap_of`]), and text/Graphviz
//! printers.
//!
//! # Examples
//!
//! Build `y = (a + b) * 2` and print it:
//!
//! ```
//! use fact_ir::{BinOp, Function};
//!
//! let mut f = Function::new("axpy");
//! let entry = f.entry();
//! let a = f.emit_input(entry, "a");
//! let b = f.emit_input(entry, "b");
//! let two = f.emit_const(entry, 2);
//! let sum = f.emit_bin(entry, BinOp::Add, a, b);
//! let y = f.emit_bin(entry, BinOp::Mul, sum, two);
//! f.emit_output(entry, "y", y);
//! fact_ir::verify::verify(&f)?;
//! println!("{f}");
//! # Ok::<(), fact_ir::verify::VerifyError>(())
//! ```

#![warn(missing_docs)]

pub mod cfg;
pub mod dom;
pub mod dot;
mod func;
mod ids;
pub mod loops;
mod op;
pub mod pretty;
pub mod prove;
pub mod rewrite;
pub mod verify;

pub use dom::DomTree;
pub use func::{BasicBlock, Function, Memory, Successors, Terminator};
pub use ids::{BlockId, MemId, OpId};
pub use loops::{LoopForest, NaturalLoop};
pub use op::{BinOp, Op, OpKind, UnOp};
pub use prove::{
    operand_swap_of, prove_equivalent, Equivalence, FissionLoop, FissionMap, GraphMap, UnrollMap,
};
