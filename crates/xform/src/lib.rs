//! # fact-xform — the transformation library
//!
//! The paper's transformation suite (§1): commutativity, associativity,
//! distributivity, constant propagation, code motion, and loop unrolling —
//! plus the cross-basic-block enabler of §3 Example 3 ([`crossbb::PhiSink`]),
//! which specializes operations per thread of execution through joins so
//! the algebraic rewrites can act across basic-block boundaries.
//!
//! Transformations enumerate [`Candidate`]s (whole transformed CDFGs) and
//! never judge profitability themselves: the scheduling-driven search in
//! `fact-core` reschedules and estimates every candidate, per Figure 6.
//! New transformations plug in via the [`Transform`] trait
//! ("other transformations can easily be incorporated within the
//! framework", §1).

#![warn(missing_docs)]

pub mod algebraic;
pub mod codemotion;
pub mod constprop;
pub mod crossbb;
pub mod cse;
pub mod distribute;
pub mod transform;
pub mod unroll;
pub mod util;

pub use transform::{
    fingerprint_of, Candidate, Parent, Region, Transform, TransformKind, TransformLibrary,
};
