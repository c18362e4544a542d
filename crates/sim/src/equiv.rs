//! Randomized functional-equivalence checking.
//!
//! The paper's correctness requirement (§3, Example 3): "the transformed
//! CDFG should be functionally equivalent to the original CDFG for every
//! thread of execution encountered." We check equivalence by executing
//! both CDFGs on shared random input vectors (and shared random initial
//! memory contents) and comparing the full observable behavior: output
//! streams, final memory images, and return values.
//!
//! [`check_equivalence`] is the oracle: the tree-walking interpreter runs
//! both behaviors one vector at a time and reports the first located
//! [`Mismatch`]. The search itself accepts only rewrites it proves
//! equivalent (`fact_ir::prove_equivalent`); this oracle is what the
//! proofs are tested against.

use crate::interp::{execute_with, ExecConfig, ExecError, ExecResult};
use crate::trace::TraceSet;
use fact_ir::Function;
use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use std::fmt;

/// The observable difference that falsified equivalence.
#[derive(Clone, Debug)]
pub enum Mismatch {
    /// Output streams differ.
    Outputs {
        /// Index of the offending trace vector.
        vector: usize,
        /// Original behavior's outputs.
        expected: Vec<(String, i64)>,
        /// Transformed behavior's outputs.
        actual: Vec<(String, i64)>,
    },
    /// A final memory image differs.
    Memory {
        /// Index of the offending trace vector.
        vector: usize,
        /// Memory index.
        mem: usize,
        /// First differing word.
        addr: usize,
    },
    /// Return values differ.
    Returned {
        /// Index of the offending trace vector.
        vector: usize,
        /// Original behavior's return value.
        expected: Option<i64>,
        /// Transformed behavior's return value.
        actual: Option<i64>,
    },
    /// One behavior failed where the other succeeded.
    Execution {
        /// Index of the offending trace vector.
        vector: usize,
        /// The error from whichever side failed.
        error: ExecError,
        /// `true` if the original failed, `false` if the transformed did.
        original_failed: bool,
    },
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mismatch::Outputs { vector, .. } => write!(f, "outputs differ on vector {vector}"),
            Mismatch::Memory { vector, mem, addr } => {
                write!(f, "memory {mem} differs at word {addr} on vector {vector}")
            }
            Mismatch::Returned { vector, .. } => {
                write!(f, "return values differ on vector {vector}")
            }
            Mismatch::Execution {
                vector,
                error,
                original_failed,
            } => write!(
                f,
                "{} behavior failed on vector {vector}: {error}",
                if *original_failed {
                    "original"
                } else {
                    "transformed"
                }
            ),
        }
    }
}

/// Judges one vector: compares the transformed side's result against the
/// original's, in the fixed order outputs → return value → memories, and
/// returns the first difference. Vectors where both sides fail agree: the
/// transformation preserved the (undefined) behavior.
fn judge(
    vector: usize,
    expected: &Result<ExecResult, ExecError>,
    actual: &Result<ExecResult, ExecError>,
) -> Option<Mismatch> {
    match (expected, actual) {
        (Ok(a), Ok(b)) => {
            if a.outputs != b.outputs {
                return Some(Mismatch::Outputs {
                    vector,
                    expected: a.outputs.clone(),
                    actual: b.outputs.clone(),
                });
            }
            if a.returned != b.returned {
                return Some(Mismatch::Returned {
                    vector,
                    expected: a.returned,
                    actual: b.returned,
                });
            }
            a.memories
                .iter()
                .zip(&b.memories)
                .enumerate()
                .find_map(|(mem, (ma, mb))| {
                    let addr = ma.iter().zip(mb).position(|(x, y)| x != y)?;
                    Some(Mismatch::Memory { vector, mem, addr })
                })
        }
        (Err(_), Err(_)) => None,
        (Err(e), Ok(_)) => Some(Mismatch::Execution {
            vector,
            error: e.clone(),
            original_failed: true,
        }),
        (Ok(_), Err(e)) => Some(Mismatch::Execution {
            vector,
            error: e.clone(),
            original_failed: false,
        }),
    }
}

/// Draws one vector's shared random initial memory images, sized to
/// `f`'s memories.
fn random_images(f: &Function, rng: &mut StdRng) -> Vec<Vec<i64>> {
    f.memories()
        .map(|(_, m)| (0..m.size).map(|_| rng.gen_range(-100i64..100)).collect())
        .collect()
}

/// Checks observable equivalence of `original` and `transformed` over the
/// given traces, with `seed` controlling shared random initial memories.
/// This is the oracle: both behaviors run on the tree-walking interpreter,
/// one vector at a time. Vectors are never deduplicated: each gets its own
/// random memory images, so duplicates are observable.
///
/// Vectors on which *both* behaviors fail identically (e.g. both hit an
/// out-of-bounds address) are skipped: the transformation preserved the
/// (undefined) behavior.
///
/// Returns `Ok(checked)` — the number of vectors actually compared — or
/// the first [`Mismatch`].
///
/// # Errors
/// Returns [`Mismatch`] describing the first observable difference.
///
/// # Examples
///
/// ```
/// use fact_sim::{check_equivalence, generate, InputSpec};
///
/// let f1 = fact_lang::compile("proc f(a, b) { out y = a * b - a * 3; }")?;
/// let f2 = fact_lang::compile("proc f(a, b) { out y = a * (b - 3); }")?;
/// let traces = generate(
///     &[("a".into(), InputSpec::Uniform { lo: -50, hi: 50 }),
///       ("b".into(), InputSpec::Uniform { lo: -50, hi: 50 })],
///     100, 7,
/// );
/// let checked = check_equivalence(&f1, &f2, &traces, 1)
///     .map_err(|m| m.to_string())?;
/// assert_eq!(checked, 100);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_equivalence(
    original: &Function,
    transformed: &Function,
    traces: &TraceSet,
    seed: u64,
) -> Result<usize, Box<Mismatch>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = 0;
    for (i, v) in traces.vectors.iter().enumerate() {
        // Sized to the original's memories (the transformed function
        // declares the same arrays).
        let cfg = ExecConfig {
            initial_memories: random_images(original, &mut rng)
                .into_iter()
                .enumerate()
                .collect(),
            ..ExecConfig::default()
        };
        let r1 = execute_with(original, v, &cfg);
        let r2 = execute_with(transformed, v, &cfg);
        if let Some(m) = judge(i, &r1, &r2) {
            return Err(Box::new(m));
        }
        checked += usize::from(r2.is_ok());
    }
    Ok(checked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{generate, InputSpec};
    use fact_lang::compile;

    fn traces_ab(n: usize) -> TraceSet {
        generate(
            &[
                ("a".to_string(), InputSpec::Uniform { lo: -50, hi: 50 }),
                ("b".to_string(), InputSpec::Uniform { lo: -50, hi: 50 }),
            ],
            n,
            77,
        )
    }

    #[test]
    fn identical_functions_are_equivalent() {
        let f = compile("proc f(a, b) { out y = a * b - a * 3; }").unwrap();
        let n = check_equivalence(&f, &f.clone(), &traces_ab(50), 1).unwrap();
        assert_eq!(n, 50);
    }

    #[test]
    fn distributivity_rewrite_is_equivalent() {
        let f1 = compile("proc f(a, b) { out y = a * b - a * 3; }").unwrap();
        let f2 = compile("proc f(a, b) { out y = a * (b - 3); }").unwrap();
        assert!(check_equivalence(&f1, &f2, &traces_ab(100), 2).is_ok());
    }

    #[test]
    fn different_behaviors_are_caught() {
        let f1 = compile("proc f(a, b) { out y = a + b; }").unwrap();
        let f2 = compile("proc f(a, b) { out y = a - b; }").unwrap();
        let m = check_equivalence(&f1, &f2, &traces_ab(100), 3).unwrap_err();
        assert!(matches!(*m, Mismatch::Outputs { .. }));
    }

    #[test]
    fn memory_differences_are_caught() {
        let f1 = compile("proc f(a) { array x[4]; x[1] = a; }").unwrap();
        let f2 = compile("proc f(a) { array x[4]; x[2] = a; }").unwrap();
        let t = generate(&[("a".to_string(), InputSpec::Constant(5))], 5, 4);
        let m = check_equivalence(&f1, &f2, &t, 4).unwrap_err();
        assert!(matches!(*m, Mismatch::Memory { .. }));
    }

    #[test]
    fn initial_memory_randomization_catches_read_dependence() {
        // f2 reads x[0] before overwriting; with zeroed memories both match,
        // but random initial contents expose the difference.
        let f1 = compile("proc f(a) { array x[4]; x[0] = a; out y = a; }").unwrap();
        let f2 = compile("proc f(a) { array x[4]; out y = x[0]; x[0] = a; }").unwrap();
        let t = generate(&[("a".to_string(), InputSpec::Constant(0))], 10, 6);
        let m = check_equivalence(&f1, &f2, &t, 5).unwrap_err();
        assert!(matches!(*m, Mismatch::Outputs { .. }));
    }

    #[test]
    fn mismatch_display_is_informative() {
        let m = Mismatch::Memory {
            vector: 3,
            mem: 0,
            addr: 7,
        };
        assert_eq!(m.to_string(), "memory 0 differs at word 7 on vector 3");
    }
}
