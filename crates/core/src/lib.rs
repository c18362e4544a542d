//! # fact-core — the FACT framework (the paper's primary contribution)
//!
//! Implements the algorithm of §4: profile-driven STG [`partition()`]-ing,
//! the [`search`] engine `Apply_transforms` (Figure 6) that interleaves
//! transformation application with rescheduling and estimation, the
//! full [`pipeline::optimize`] driver (Figure 5), the §5 comparison
//! [`baselines`] (**M1** and a Flamel reimplementation), and the §5
//! benchmark [`suite()`].
//!
//! # Examples
//!
//! Optimize a factorable loop for throughput:
//!
//! ```
//! use fact_core::{optimize, FactConfig, Objective, TransformLibrary};
//! use fact_estim::section5_library;
//! use fact_sched::Allocation;
//! use fact_sim::{generate, InputSpec};
//!
//! let f = fact_lang::compile(
//!     "proc f(n, a, b) { var s = 0; var i = 0;
//!      while (i < n) { var t = s + 1; s = t * a + t * b; i = i + 1; }
//!      out s = s; }",
//! )?;
//! let (lib, rules) = section5_library();
//! let mut alloc = Allocation::new();
//! for (name, k) in [("a1", 2), ("mt1", 1), ("cp1", 1), ("i1", 2), ("sb1", 1)] {
//!     alloc.set(lib.by_name(name).unwrap(), k);
//! }
//! let traces = generate(&[("n".into(), InputSpec::Constant(10)),
//!                         ("a".into(), InputSpec::Constant(2)),
//!                         ("b".into(), InputSpec::Constant(3))], 4, 1);
//! let result = optimize(&f, &lib, &rules, &alloc, &traces,
//!                       &TransformLibrary::full(), &FactConfig::default())?;
//! assert!(result.estimate.average_schedule_length
//!         <= result.baseline.average_schedule_length);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod baselines;
mod bounded;
pub mod cache;
mod expand;
pub mod objective;
pub mod pareto;
pub mod partition;
pub mod pipeline;
pub mod report;
pub mod search;
pub mod suite;

pub use baselines::{flamel, m1, BaselineResult};
pub use cache::{
    block_hashes, exact_hash, snapshot_tmp_path, structural_hash, CacheStats, ContextHasher,
    EvalCache, SnapshotLoad,
};
pub use expand::{ExpansionMemo, EXPANSION_MEMO_CAPACITY};
pub use fact_xform::TransformLibrary;
pub use objective::Objective;
pub use pareto::{
    crowding_distances, dominates, hypervolume, nondominated, pareto_ranks, sweep_vdd,
    ParetoArchive, ParetoPoint, VddSample,
};
pub use partition::{partition, region_of_block, PartitionConfig, StgBlock};
pub use pipeline::{
    evaluation_context_key, optimize, optimize_pareto, optimize_pareto_with, optimize_with,
    CandidateCounts, FactConfig, FactError, FactResult, OptimizeHooks, ParetoConfig,
    ParetoDesignPoint, ParetoFactResult, PhaseTimers,
};
pub use report::{geomean_ratio, render_table2, DesignReport, Table2Row};
pub use search::{
    apply_transforms, apply_transforms_pareto, MegaCandidate, MegaEval, Origin, ParetoCandidate,
    ParetoSearchResult, SearchConfig, SearchResult,
};
pub use suite::{suite, Benchmark};
