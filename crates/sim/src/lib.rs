//! # fact-sim — CDFG simulation, profiling, traces, and equivalence
//!
//! Services built on one compiled form of the IR:
//!
//! * [`simulate`] — the production pass: verifies a candidate against a
//!   captured [`EquivReference`] (§3) and profiles its branch
//!   probabilities from the typical traces (§4.1), on the engine
//!   [`SimEngine::for_call`] picks: the scalar [`CompiledFn`] interpreter,
//!   or the fused batched kernel for straight-line calls ([`batch`]);
//! * [`trace`] — reproducible input-trace generation, including the
//!   paper's temporally-correlated Gaussian source (§5);
//! * the oracles the production pass is tested against:
//!   [`execute`]/[`execute_with`] (reference interpreter),
//!   [`profile()`]/[`profile_with`], [`check_equivalence`], and the
//!   compiled single-run entry point [`CompiledFn::execute_seeded`].

#![warn(missing_docs)]

pub mod batch;
pub mod compiled;
pub mod equiv;
mod interp;
pub mod profile;
mod simulate;
pub mod trace;

pub use batch::{SimCounters, SimEngine, SimScratch, DEFAULT_MAX_LANES};
pub use compiled::CompiledFn;
pub use equiv::{check_equivalence, EquivReference, Mismatch};
pub use interp::{execute, execute_with, BranchStats, ExecConfig, ExecError, ExecResult};
pub use profile::{profile, profile_with, BranchProfile, ProfileCounts};
pub use simulate::{simulate, Simulation, StepBound, MIN_BATCHED_LANES};
pub use trace::{generate, DedupLanes, InputSpec, TraceColumns, TraceSet};
