//! # fact-estim — STG analysis and high-level power estimation
//!
//! Implements the paper's §2.2 estimation machinery:
//!
//! * [`markov`] — absorbing-Markov expected visits → state probabilities
//!   and *average schedule length* (Bhattacharya et al. \[10\]);
//! * [`power`] — energy accounting `E = C_type·Vdd²·N_ops` over functional
//!   units, registers, memories, plus interconnect/controller overhead
//!   (Chandrakasan et al. \[5\], extended to CFI designs);
//! * [`vdd`] — supply-voltage scaling with `Delay = k·Vdd/(Vdd−Vt)²`,
//!   reproducing Example 1's 5 V → 4.29 V computation;
//! * [`library`] — the paper's Table 1 and §5 functional-unit libraries;
//! * [`area`] — allocation-driven area accounting (Table 1's area column);
//! * [`evaluate()`] — one-call estimation used in the transformation
//!   search's inner loop.

#![warn(missing_docs)]

pub mod area;
pub mod evaluate;
pub mod library;
pub mod markov;
pub mod power;
pub mod vdd;

pub use area::{estimate_area, AreaReport};
pub use evaluate::{evaluate, evaluate_analyzed, evaluate_power_mode, markov_of};
pub use library::{section5_library, table1_library};
pub use markov::{analyze, analyze_preferring_empirical, MarkovAnalysis};
pub use power::{energy_per_execution, estimate, EnergyBreakdown, Estimate};
pub use vdd::{delay_factor, scale_voltage, scaled_power, VDD_REF, VT};
