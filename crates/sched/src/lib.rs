//! # fact-sched — a Wavesched-class scheduler for CFI behaviors
//!
//! Produces the paper's state transition graphs (§2.1, Figure 1(c)) from
//! SSA CDFGs under resource allocation and clock-period constraints.
//! Implements the scheduler capabilities §5 attributes to the in-house
//! tool \[13\]:
//!
//! * operator **chaining** under the clock period, with multi-cycle ops;
//! * **implicit loop unrolling** — next-iteration header operations folded
//!   into latch states ([`schedule::ScheduleReport::rotations`]);
//! * **functional pipelining** of loop kernels at their initiation
//!   interval, with if-conversion to pipeline across `if` constructs;
//! * **concurrent loop optimization** — independent loops execute in
//!   parallel phases sharing the datapath (Figure 2(b), Example 2).

#![warn(missing_docs)]

pub mod ifconv;
pub mod listsched;
pub mod memo;
pub mod parloops;
pub mod pipeline;
pub mod resources;
pub mod schedule;
pub mod stg;

pub use memo::ScheduleMemo;
pub use resources::{Allocation, FuId, FuLibrary, FuSelection, FuSpec, SelectionRules};
pub use schedule::{
    schedule, schedule_with_memo, SchedOptions, ScheduleError, SchedulePlan, ScheduleReport,
    ScheduleResult,
};
pub use stg::{ScheduledOp, State, StateId, Stg, Transition};
