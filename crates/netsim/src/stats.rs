//! Small statistics toolkit shared by every estimator: percentiles,
//! empirical CDFs, and the paper's headline metric (relative p99 slowdown
//! error, Eq. 4).

use serde::{Deserialize, Serialize};

/// Percentile of a sample with linear interpolation, `p` in [0, 100].
/// Returns NaN on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let p = p.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Sort a sample and compute one percentile.
pub fn percentile_unsorted(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    percentile(values, p)
}

/// The percentile grid used throughout the paper: 1%..=100% in 1% steps.
pub const NUM_PERCENTILES: usize = 100;

/// Evaluate the 100-point percentile vector (1..=100) of a sample: entry
/// `i` has the bits of `percentile(sorted, (i + 1) as f64)`.
///
/// Same expressions as [`percentile`], without its libm calls: for these
/// `p` the rank is finite and non-negative, so truncation is `floor`, and
/// `ceil` is `lo + 1` exactly when the fractional part is non-zero.
pub fn percentile_vector(sorted: &[f64]) -> [f64; NUM_PERCENTILES] {
    /// `p / 100.0` for p = 1..=100, rounded as at run time.
    const GRID: [f64; NUM_PERCENTILES] = {
        let mut g = [0.0; NUM_PERCENTILES];
        let mut i = 0;
        while i < NUM_PERCENTILES {
            g[i] = (i + 1) as f64 / 100.0;
            i += 1;
        }
        g
    };
    let n = sorted.len();
    if n <= 1 {
        return [sorted.first().copied().unwrap_or(f64::NAN); NUM_PERCENTILES];
    }
    // Not `w[0] <= w[1]`: a `total_cmp` sort puts NaN last, unordered.
    debug_assert!(
        sorted
            .windows(2)
            .all(|w| w[0].partial_cmp(&w[1]) != Some(std::cmp::Ordering::Greater)),
        "input must be sorted"
    );
    let last = (n - 1) as f64;
    let mut out = [0.0; NUM_PERCENTILES];
    for (slot, &q) in out.iter_mut().zip(&GRID) {
        let rank = q * last;
        // Through `i64`: the same truncation, with cheaper conversions both
        // ways than `usize` has on x86-64.
        let lo = rank as i64;
        let frac = rank - lo as f64;
        let lo = lo as usize;
        *slot = if frac == 0.0 {
            sorted[lo]
        } else {
            sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac
        };
    }
    out
}

/// Relative estimation error (Eq. 4): (est - truth) / truth.
pub fn relative_error(estimated: f64, ground_truth: f64) -> f64 {
    (estimated - ground_truth) / ground_truth
}

/// An empirical CDF over f64 samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| v.is_finite());
        values.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted: values }
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// P(X <= x).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Quantile at `p` in [0, 100].
    pub fn quantile(&self, p: f64) -> f64 {
        percentile(&self.sorted, p)
    }

    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// Summary statistics over a set of relative errors (used by Figs. 10-11, 15-17).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ErrorSummary {
    pub mean_abs: f64,
    pub median_abs: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max_abs: f64,
    pub n: usize,
}

impl ErrorSummary {
    /// Summarize signed relative errors. Mean/median/max are over
    /// magnitudes (the paper "drops the sign" for aggregates); the quartiles
    /// retain sign for boxplots.
    pub fn from_signed(errors: &[f64]) -> Self {
        let mut signed: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
        signed.sort_by(|a, b| a.total_cmp(b));
        let mut mags: Vec<f64> = signed.iter().map(|e| e.abs()).collect();
        mags.sort_by(|a, b| a.total_cmp(b));
        ErrorSummary {
            mean_abs: if mags.is_empty() {
                f64::NAN
            } else {
                mags.iter().sum::<f64>() / mags.len() as f64
            },
            median_abs: percentile(&mags, 50.0),
            p25: percentile(&signed, 25.0),
            p50: percentile(&signed, 50.0),
            p75: percentile(&signed, 75.0),
            max_abs: mags.last().copied().unwrap_or(f64::NAN),
            n: signed.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 50.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&v, 99.0) - 9.9).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 37.0), 7.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_vector_monotone() {
        let v: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let pv = percentile_vector(&v);
        for w in pv.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn ecdf_roundtrip() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert!((e.cdf(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.cdf(3.0), 1.0);
        assert_eq!(e.quantile(100.0), 3.0);
    }

    #[test]
    fn ecdf_filters_nonfinite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn relative_error_sign() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((relative_error(9.0, 10.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn error_summary_magnitudes() {
        let s = ErrorSummary::from_signed(&[-0.2, 0.1, 0.3]);
        assert!((s.mean_abs - 0.2).abs() < 1e-12);
        assert_eq!(s.max_abs, 0.3);
        assert_eq!(s.n, 3);
        assert!(s.p25 < s.p75);
    }
}
