//! Small order statistics shared by the run and the steadiness command.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method)
/// computes them. Needs at least two samples.
pub fn quartiles(xs: &mut [f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (xs[j - 1] * (n as f64 - delta) + xs[j] * delta) / n as f64;
    }
    Some(out)
}

/// A tail reading: `(value, percentile, samples)`.
pub type Tail = (f64, f64, usize);

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample; `None` with fewer than eleven samples.
pub fn tail(xs: &mut [f64]) -> Option<Tail> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    Some((xs[n - 11], 100.0 * (n - 10) as f64 / n as f64, n))
}

/// Geometric mean of positive ratios; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&mut [1.0]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&mut xs), Some((90.0, 90.0, 100)));
        assert_eq!(tail(&mut [1.0; 10]), None);
    }

    #[test]
    fn medians_and_means() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert!((geomean(&[0.5, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
