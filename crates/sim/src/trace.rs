//! Input-trace generation.
//!
//! The paper drives power estimation with "a set of typical input traces"
//! (§2.2) and derives its power-estimator inputs from "a zero-mean Gaussian
//! sequence … passed through an autoregressive filter to introduce the
//! desired level of temporal correlation" (§5). Both generators live here,
//! seeded for reproducibility.

use fact_prng::rngs::StdRng;
use fact_prng::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One input vector: a value for each named input of a behavior.
pub type InputVector = HashMap<String, i64>;

/// A reproducible stream of input vectors.
#[derive(Clone, Debug, Default)]
pub struct TraceSet {
    /// The generated input vectors. Treated as immutable once the set is
    /// built: the first call to [`TraceSet::dedup_lanes`] memoizes the
    /// lanes found in the vectors, so mutating them afterwards would
    /// desynchronize the two.
    pub vectors: Vec<InputVector>,
    /// Lazily-built dedup lanes (see [`TraceSet::dedup_lanes`]); `None`
    /// inside means every vector is distinct — the identity is
    /// represented without materializing `len` pairs, since all-distinct
    /// traces (e.g. wide uniform inputs) gain nothing from dedup.
    lanes: OnceLock<Option<Vec<(usize, usize)>>>,
}

/// Dedup view of a trace set: either the identity (every vector distinct,
/// nothing allocated) or explicit `(first index, multiplicity)` lanes in
/// first-occurrence order.
#[derive(Clone, Copy, Debug)]
pub enum DedupLanes<'a> {
    /// Every one of the `n` vectors is distinct: lane `k` is vector `k`
    /// with multiplicity 1.
    Identity(usize),
    /// Explicit dedup lanes.
    Lanes(&'a [(usize, usize)]),
}

impl DedupLanes<'_> {
    /// Number of distinct lanes.
    pub fn len(&self) -> usize {
        match self {
            DedupLanes::Identity(n) => *n,
            DedupLanes::Lanes(l) => l.len(),
        }
    }

    /// Whether there are no lanes at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lane `k` as `(first vector index, multiplicity)`.
    pub fn get(&self, k: usize) -> (usize, usize) {
        match self {
            DedupLanes::Identity(_) => (k, 1),
            DedupLanes::Lanes(l) => l[k],
        }
    }

    /// First vector index of lane `k`.
    pub fn index(&self, k: usize) -> usize {
        self.get(k).0
    }
}

impl TraceSet {
    /// Wraps a vector list in a trace set.
    pub fn new(vectors: Vec<InputVector>) -> TraceSet {
        TraceSet {
            vectors,
            lanes: OnceLock::new(),
        }
    }

    /// Number of vectors in the set.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Collapses identical input vectors into `(first index, multiplicity)`
    /// lanes, in first-occurrence order.
    ///
    /// Typical trace sets repeat vectors heavily (constant inputs, small
    /// uniform ranges), and a deterministic function behaves identically on
    /// identical inputs — so simulation executes each distinct vector once
    /// and weights its statistics by multiplicity. Only valid when every
    /// vector runs against the *same* initial memory state (zeroed or
    /// shared images); per-vector random memories, as in equivalence
    /// checking of memory functions, make duplicates observable and must
    /// not be deduplicated.
    ///
    /// The multiplicities always sum back to [`TraceSet::len`], so
    /// weighted profile accounting stays exact. The result is memoized: a
    /// search profiles the same trace set many times, and the scan
    /// (hashing every vector) would otherwise dominate the simulation of
    /// cheap behaviors. When the scan finds every vector distinct,
    /// [`DedupLanes::Identity`] is returned and no lane table is kept.
    pub fn dedup_lanes(&self) -> DedupLanes<'_> {
        let lanes = self.lanes.get_or_init(|| {
            let lanes = self
                .dedup_by_rows()
                .unwrap_or_else(|| self.dedup_by_pairs());
            assert_eq!(
                lanes.iter().map(|&(_, m)| m).sum::<usize>(),
                self.vectors.len(),
                "dedup multiplicities must cover every vector"
            );
            (lanes.len() != self.vectors.len()).then_some(lanes)
        });
        match lanes {
            None => DedupLanes::Identity(self.vectors.len()),
            Some(l) => DedupLanes::Lanes(l),
        }
    }

    /// Fast path: when every vector has the same key set, key the dedup on
    /// the dense value row (no string sorting or hashing per vector).
    /// Returns `None` when the key sets differ (or the set is empty).
    fn dedup_by_rows(&self) -> Option<Vec<(usize, usize)>> {
        let first = self.vectors.first()?;
        let col_of: HashMap<&str, usize> = first
            .keys()
            .enumerate()
            .map(|(c, n)| (n.as_str(), c))
            .collect();
        let mut seen: HashMap<Vec<i64>, usize> = HashMap::new();
        let mut lanes: Vec<(usize, usize)> = Vec::new();
        let mut row = vec![0i64; col_of.len()];
        for (i, v) in self.vectors.iter().enumerate() {
            if v.len() != row.len() {
                return None;
            }
            for (k, &x) in v {
                row[*col_of.get(k.as_str())?] = x;
            }
            match seen.get(&row) {
                Some(&lane) => lanes[lane].1 += 1,
                None => {
                    seen.insert(row.clone(), lanes.len());
                    lanes.push((i, 1));
                }
            }
        }
        Some(lanes)
    }

    /// Slow path for heterogeneous key sets: key each vector by its sorted
    /// `(name, value)` pairs.
    fn dedup_by_pairs(&self) -> Vec<(usize, usize)> {
        let mut seen: HashMap<Vec<(&str, i64)>, usize> = HashMap::new();
        let mut lanes: Vec<(usize, usize)> = Vec::new();
        for (i, v) in self.vectors.iter().enumerate() {
            let mut key: Vec<(&str, i64)> = v.iter().map(|(k, &x)| (k.as_str(), x)).collect();
            key.sort_unstable();
            match seen.get(&key) {
                Some(&lane) => lanes[lane].1 += 1,
                None => {
                    seen.insert(key, lanes.len());
                    lanes.push((i, 1));
                }
            }
        }
        lanes
    }
}

/// Specification of how to draw one input.
#[derive(Clone, Debug)]
pub enum InputSpec {
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Always the same value.
    Constant(i64),
    /// Temporally-correlated Gaussian (§5): zero-mean white Gaussian noise
    /// through an AR(1) filter `x[t] = rho·x[t-1] + e[t]`, scaled by
    /// `sigma` and rounded to an integer.
    GaussianAr {
        /// Standard deviation of the driving noise after scaling.
        sigma: f64,
        /// AR(1) correlation coefficient in `[0, 1)`.
        rho: f64,
    },
}

/// Generates `n` input vectors for the named inputs according to their
/// specs, deterministically from `seed`.
///
/// Gaussian-AR inputs maintain their filter state across vectors, so the
/// sequence for each such input is temporally correlated along the trace.
///
/// # Examples
///
/// ```
/// use fact_sim::trace::{generate, InputSpec};
/// let specs = [("n".to_string(), InputSpec::Uniform { lo: 1, hi: 10 })];
/// let t = generate(&specs, 100, 42);
/// assert_eq!(t.len(), 100);
/// assert!(t.vectors.iter().all(|v| (1..=10).contains(&v["n"])));
/// ```
pub fn generate(specs: &[(String, InputSpec)], n: usize, seed: u64) -> TraceSet {
    let mut rng = StdRng::seed_from_u64(seed);
    // AR(1) state per Gaussian input.
    let mut ar_state: HashMap<&str, f64> = HashMap::new();
    let mut vectors = Vec::with_capacity(n);
    for _ in 0..n {
        let mut v = InputVector::new();
        for (name, spec) in specs {
            let value = match spec {
                InputSpec::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
                InputSpec::Constant(c) => *c,
                InputSpec::GaussianAr { sigma, rho } => {
                    let e = gaussian(&mut rng) * sigma * (1.0 - rho * rho).sqrt();
                    let prev = ar_state.get(name.as_str()).copied().unwrap_or(0.0);
                    let x = rho * prev + e;
                    ar_state.insert(name, x);
                    x.round() as i64
                }
            };
            v.insert(name.clone(), value);
        }
        vectors.push(v);
    }
    TraceSet::new(vectors)
}

/// Standard-normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample lag-1 autocorrelation of a sequence (used in tests and to verify
/// that AR traces carry the requested temporal correlation).
pub fn lag1_autocorrelation(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var == 0.0 {
        return 0.0;
    }
    let cov = xs
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum::<f64>()
        / (n - 1.0);
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let specs = [("a".to_string(), InputSpec::Uniform { lo: 0, hi: 1000 })];
        let t1 = generate(&specs, 50, 7);
        let t2 = generate(&specs, 50, 7);
        assert_eq!(t1.vectors.len(), t2.vectors.len());
        for (a, b) in t1.vectors.iter().zip(&t2.vectors) {
            assert_eq!(a["a"], b["a"]);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let specs = [("a".to_string(), InputSpec::Uniform { lo: 0, hi: 1000 })];
        let t1 = generate(&specs, 50, 7);
        let t2 = generate(&specs, 50, 8);
        assert!(t1
            .vectors
            .iter()
            .zip(&t2.vectors)
            .any(|(a, b)| a["a"] != b["a"]));
    }

    #[test]
    fn constants_are_constant() {
        let specs = [("k".to_string(), InputSpec::Constant(5))];
        let t = generate(&specs, 10, 1);
        assert!(t.vectors.iter().all(|v| v["k"] == 5));
    }

    #[test]
    fn gaussian_ar_is_zero_mean_and_correlated() {
        let specs = [(
            "x".to_string(),
            InputSpec::GaussianAr {
                sigma: 100.0,
                rho: 0.9,
            },
        )];
        let t = generate(&specs, 4000, 11);
        let xs: Vec<f64> = t.vectors.iter().map(|v| v["x"] as f64).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 15.0, "mean {mean} too far from 0");
        let rho = lag1_autocorrelation(&xs);
        assert!(rho > 0.8, "autocorrelation {rho} should be near 0.9");
    }

    #[test]
    fn gaussian_ar_with_zero_rho_is_uncorrelated() {
        let specs = [(
            "x".to_string(),
            InputSpec::GaussianAr {
                sigma: 100.0,
                rho: 0.0,
            },
        )];
        let t = generate(&specs, 4000, 13);
        let xs: Vec<f64> = t.vectors.iter().map(|v| v["x"] as f64).collect();
        let rho = lag1_autocorrelation(&xs);
        assert!(rho.abs() < 0.1, "autocorrelation {rho} should be near 0");
    }

    #[test]
    fn dedup_collapses_constants_to_one_lane() {
        let specs = [
            ("k".to_string(), InputSpec::Constant(5)),
            ("j".to_string(), InputSpec::Constant(-2)),
        ];
        let t = generate(&specs, 12, 1);
        let DedupLanes::Lanes(lanes) = t.dedup_lanes() else {
            panic!("12 identical vectors must not be an identity dedup");
        };
        assert_eq!(lanes, vec![(0, 12)]);
    }

    #[test]
    fn dedup_keeps_first_occurrence_order_and_total() {
        let mk = |pairs: &[(&str, i64)]| -> InputVector {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        let t = TraceSet::new(vec![
            mk(&[("a", 1), ("b", 2)]),
            mk(&[("a", 3), ("b", 4)]),
            mk(&[("b", 2), ("a", 1)]), // same as vector 0, insertion order differs
            mk(&[("a", 1), ("b", 2)]),
            mk(&[("a", 3), ("b", 9)]),
        ]);
        let dl = t.dedup_lanes();
        let DedupLanes::Lanes(lanes) = dl else {
            panic!("duplicated vectors must not be an identity dedup");
        };
        assert_eq!(lanes, vec![(0, 3), (1, 1), (4, 1)]);
        assert_eq!(lanes.iter().map(|&(_, m)| m).sum::<usize>(), t.len());
        assert_eq!((0..dl.len()).map(|k| dl.get(k).1).sum::<usize>(), t.len());
    }

    #[test]
    fn dedup_of_distinct_vectors_takes_identity_fast_path() {
        let specs = [(
            "a".to_string(),
            InputSpec::Uniform {
                lo: 0,
                hi: 1_000_000_000,
            },
        )];
        let t = generate(&specs, 40, 3);
        let dl = t.dedup_lanes();
        // All-distinct sets take the identity representation: no lane
        // pairs and no row-mapping table are materialized at all.
        assert!(matches!(dl, DedupLanes::Identity(40)));
        assert_eq!(dl.len(), 40);
        assert!((0..40).all(|k| dl.get(k) == (k, 1)));
    }

    #[test]
    fn dedup_by_pairs_of_distinct_vectors_takes_identity_fast_path() {
        let mk = |pairs: &[(&str, i64)]| -> InputVector {
            pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
        };
        // Heterogeneous key sets force the pairwise path; all distinct.
        let t = TraceSet::new(vec![mk(&[("a", 1)]), mk(&[("b", 1)]), mk(&[("a", 2)])]);
        assert!(t.dedup_by_rows().is_none());
        assert!(matches!(t.dedup_lanes(), DedupLanes::Identity(3)));
    }

    #[test]
    fn row_and_pair_dedup_find_the_same_lanes() {
        let specs = [
            ("a".to_string(), InputSpec::Uniform { lo: 0, hi: 3 }),
            ("b".to_string(), InputSpec::Uniform { lo: -1, hi: 1 }),
            ("k".to_string(), InputSpec::Constant(7)),
        ];
        let t = generate(&specs, 60, 5);
        let rows = t
            .dedup_by_rows()
            .expect("generated traces share one key set");
        assert_eq!(rows, t.dedup_by_pairs());
        assert!(rows.len() < t.len(), "small ranges repeat vectors");
    }

    #[test]
    fn lag1_edge_cases() {
        assert_eq!(lag1_autocorrelation(&[]), 0.0);
        assert_eq!(lag1_autocorrelation(&[1.0]), 0.0);
        assert_eq!(lag1_autocorrelation(&[2.0, 2.0, 2.0]), 0.0);
    }
}
