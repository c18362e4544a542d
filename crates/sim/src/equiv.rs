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
//! [`Mismatch`]. Production captures the original side once
//! ([`EquivReference::capture`]) and judges compiled candidates against
//! it inside [`crate::simulate`], with the same verdicts.

use crate::compiled::CompiledFn;
use crate::interp::{execute_with, ExecConfig, ExecError, ExecResult, DEFAULT_STEP_LIMIT};
use crate::simulate::{LaneSteps, StepBound};
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

/// The original side of one vector's comparison: observable success data,
/// or the error it failed with.
pub(crate) type Expected<'a> =
    Result<(&'a [(String, i64)], &'a [Vec<i64>], Option<i64>), &'a ExecError>;

/// Judges one vector: compares the transformed side's result against the
/// original's, in the fixed order outputs → return value → memories, and
/// returns the first difference. Vectors where both sides fail agree: the
/// transformation preserved the (undefined) behavior.
pub(crate) fn judge(
    vector: usize,
    expected: Expected<'_>,
    actual: &Result<ExecResult, ExecError>,
) -> Option<Mismatch> {
    match (expected, actual) {
        (Ok((outputs, memories, returned)), Ok(b)) => {
            if outputs != b.outputs.as_slice() {
                return Some(Mismatch::Outputs {
                    vector,
                    expected: outputs.to_vec(),
                    actual: b.outputs.clone(),
                });
            }
            if returned != b.returned {
                return Some(Mismatch::Returned {
                    vector,
                    expected: returned,
                    actual: b.returned,
                });
            }
            memories
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
/// `f`'s memories. The stream is positional in the rng: the oracle and
/// [`EquivReference::capture`] draw identical images for the same seed.
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
        let expected = match &r1 {
            Ok(a) => Ok((a.outputs.as_slice(), a.memories.as_slice(), a.returned)),
            Err(e) => Err(e),
        };
        if let Some(m) = judge(i, expected, &r2) {
            return Err(Box::new(m));
        }
        checked += usize::from(r2.is_ok());
    }
    Ok(checked)
}

/// The original behavior's observable results on success.
struct RefOk {
    outputs: Vec<(String, i64)>,
    memories: Vec<Vec<i64>>,
    returned: Option<i64>,
}

/// One captured trace vector: the shared random initial memory images and
/// the original behavior's outcome on them.
struct RefVector {
    init: Vec<Vec<i64>>,
    outcome: Result<RefOk, ExecError>,
}

/// The reference side of equivalence checking, captured once and reused
/// across many transformed candidates.
///
/// The original behavior — and the shared random initial memories — never
/// change within a search. [`EquivReference::capture`] runs the original
/// over all trace vectors once (recording memory images and results), and
/// [`crate::simulate`] then verifies each candidate by executing only the
/// transformed side. Verdicts are identical to [`check_equivalence`] with
/// the same traces and seed, including the skip-when-both-fail rule; the
/// `oracle_equiv` suite in `fact-core` holds the two paths together.
pub struct EquivReference {
    vectors: Vec<RefVector>,
    /// The most work one lane of the original did, `None` when a lane
    /// ran into the step limit.
    steps: Option<StepBound>,
}

impl EquivReference {
    /// Executes `original` over `traces` with seeded random initial
    /// memories (same generation order as [`check_equivalence`] with the
    /// same `seed`), recording everything a candidate must match.
    pub fn capture(original: &Function, traces: &TraceSet, seed: u64) -> EquivReference {
        let cf = CompiledFn::compile(original);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut steps = LaneSteps::default();
        let vectors = traces
            .vectors
            .iter()
            .map(|v| {
                let init = random_images(original, &mut rng);
                let r = cf.execute_seeded(v, &init, DEFAULT_STEP_LIMIT);
                steps.record(&r);
                let outcome = r.map(|r| RefOk {
                    outputs: r.outputs,
                    memories: r.memories,
                    returned: r.returned,
                });
                RefVector { init, outcome }
            })
            .collect();
        EquivReference {
            vectors,
            steps: steps.finish(),
        }
    }

    /// The most work one vector of the original did from the captured
    /// images (what a [`crate::simulate`] verify pass of the original
    /// itself would bound); `None` when one ran into the step limit.
    pub fn steps(&self) -> Option<StepBound> {
        self.steps
    }

    /// Number of captured vectors.
    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the captured original declared no memories (every vector's
    /// initial memory image is empty).
    pub(crate) fn memory_free(&self) -> bool {
        self.vectors.first().is_none_or(|rv| rv.init.is_empty())
    }

    /// Vector `i`'s shared random initial memory images.
    pub(crate) fn init(&self, i: usize) -> &[Vec<i64>] {
        &self.vectors[i].init
    }

    /// The captured original-side view of vector `i` for [`judge`].
    pub(crate) fn expected(&self, i: usize) -> Expected<'_> {
        match &self.vectors[i].outcome {
            Ok(a) => Ok((&a.outputs, &a.memories, a.returned)),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
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

    /// The captured reference, judged through `simulate`, must reach the
    /// oracle's verdict.
    fn verdicts_agree(f1: &fact_ir::Function, f2: &fact_ir::Function, t: &TraceSet, seed: u64) {
        let oracle = check_equivalence(f1, f2, t, seed).is_ok();
        let reference = EquivReference::capture(f1, t, seed);
        let sim = simulate(&CompiledFn::compile(f2), t, Some(&reference));
        assert_eq!(sim.profile.is_some(), oracle, "verdicts diverge");
    }

    #[test]
    fn reference_check_matches_check_equivalence() {
        let f1 = compile("proc f(a, b) { out y = a * b - a * 3; }").unwrap();
        let f2 = compile("proc f(a, b) { out y = a * (b - 3); }").unwrap();
        let f3 = compile("proc f(a, b) { out y = a - b; }").unwrap();
        let t = traces_ab(60);
        verdicts_agree(&f1, &f2, &t, 2);
        verdicts_agree(&f1, &f3, &t, 3);
        verdicts_agree(&f1, &f1.clone(), &t, 9);
    }

    #[test]
    fn reference_check_matches_on_random_memories() {
        // The random-initial-memory stream must line up exactly with
        // check_equivalence's, or read-before-write dependences would be
        // judged differently.
        let f1 = compile("proc f(a) { array x[4]; array z[6]; x[0] = a; out y = a; }").unwrap();
        let f2 = compile("proc f(a) { array x[4]; array z[6]; out y = x[0]; x[0] = a; }").unwrap();
        let t = generate(&[("a".to_string(), InputSpec::Constant(0))], 10, 6);
        verdicts_agree(&f1, &f2, &t, 5);
        verdicts_agree(&f1, &f1.clone(), &t, 5);
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
