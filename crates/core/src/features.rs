//! flowSim-derived feature maps (§3.4, Eq. 3).
//!
//! A feature map is a 10 x 100 matrix: flows are split into 10 size buckets
//! (from single-packet flows under 250 B to >200 kB) and each bucket's FCT
//! slowdown distribution is summarized at 100 fixed percentiles (1%..100%).
//! The foreground map is the model's primary input; one background map per
//! hop provides the context sequence.

use m3_netsim::stats::{percentile_vector, NUM_PERCENTILES};
use serde::{Deserialize, Serialize};

/// Upper bounds (inclusive) of the 10 feature size buckets, in bytes.
/// The final bucket is unbounded.
pub const SIZE_BUCKETS: [u64; 10] = [
    250,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    200_000,
    u64::MAX,
];

/// Upper bounds (inclusive) of the 4 output size buckets (§3.4):
/// (0,1KB], (1KB,10KB], (10KB,50KB], (50KB,inf).
pub const OUTPUT_BUCKETS: [u64; 4] = [1_000, 10_000, 50_000, u64::MAX];

/// Number of feature buckets x percentiles = flattened map width.
pub const FEAT_DIM: usize = SIZE_BUCKETS.len() * NUM_PERCENTILES;
/// Output width: 4 buckets x 100 percentiles.
pub const OUT_DIM: usize = OUTPUT_BUCKETS.len() * NUM_PERCENTILES;

/// Value stored for buckets with no flows: distinguishable from any real
/// slowdown (which is >= 1).
pub const EMPTY_BUCKET_VALUE: f32 = 0.0;

/// Index of the feature bucket for a flow size. The last bound is
/// `u64::MAX`, so the fallback is unreachable but keeps this total.
pub fn feature_bucket(size: u64) -> usize {
    SIZE_BUCKETS
        .iter()
        .position(|&ub| size <= ub)
        .unwrap_or(SIZE_BUCKETS.len() - 1)
}

/// Index of the output bucket for a flow size (total; see
/// [`feature_bucket`]).
pub fn output_bucket(size: u64) -> usize {
    OUTPUT_BUCKETS
        .iter()
        .position(|&ub| size <= ub)
        .unwrap_or(OUTPUT_BUCKETS.len() - 1)
}

/// Split the slowdowns of `samples` by size over `bounds` (a size goes to
/// the first bound it does not exceed, else to the last bucket), sort each
/// bucket, and call `row(b, sorted)` for every non-empty bucket `b` in
/// order. Returns the per-bucket counts.
///
/// One counting pass sizes the buckets inside one flat buffer, a second
/// scatters the values, and each bucket is sorted in place. An unstable
/// sort gives the same bits as a stable one: values equal under
/// `total_cmp` have equal bits.
pub(crate) fn for_each_sorted_bucket(
    samples: &[(u64, f64)],
    bounds: &[u64],
    mut row: impl FnMut(usize, &[f64]),
) -> Vec<usize> {
    // The first bound a size does not exceed (as `position` finds it), as a
    // select per bound instead of an early exit: sizes arrive in random
    // order, so the exit branch would mispredict.
    let last = bounds.len().saturating_sub(1);
    let bucket = |size: u64| {
        bounds
            .iter()
            .enumerate()
            .rev()
            .fold(last, |b, (i, &ub)| if size <= ub { i } else { b })
    };
    let mut counts = vec![0usize; bounds.len()];
    let bucket_of: Vec<usize> = samples
        .iter()
        .map(|&(size, _)| {
            let b = bucket(size);
            counts[b] += 1;
            b
        })
        .collect();
    // Each bucket is filled back to front from its end, so afterwards
    // `start[b]` is where bucket `b` begins.
    let mut start = counts.clone();
    let mut end = 0;
    for at in &mut start {
        end += *at;
        *at = end;
    }
    let mut flat = vec![0.0f64; samples.len()];
    for (&b, &(_, sldn)) in bucket_of.iter().zip(samples) {
        let at = &mut start[b];
        *at -= 1;
        flat[*at] = sldn;
    }
    for (b, (&at, &n)) in start.iter().zip(&counts).enumerate() {
        if n > 0 {
            let sorted = &mut flat[at..at + n];
            sorted.sort_unstable_by(f64::total_cmp);
            row(b, sorted);
        }
    }
    counts
}

/// A slowdown distribution summarized per size bucket at 100 percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureMap {
    /// `buckets x NUM_PERCENTILES`, row-major; empty buckets hold
    /// [`EMPTY_BUCKET_VALUE`].
    pub data: Vec<f32>,
    /// Flows per bucket (used downstream for weighted aggregation).
    pub counts: Vec<usize>,
}

impl FeatureMap {
    /// Build a map over the given bucket bounds from (size, slowdown) samples.
    pub fn build(samples: &[(u64, f64)], bucket_bounds: &[u64]) -> Self {
        let mut data = vec![EMPTY_BUCKET_VALUE; bucket_bounds.len() * NUM_PERCENTILES];
        let counts = for_each_sorted_bucket(samples, bucket_bounds, |b, sorted| {
            let row = &mut data[b * NUM_PERCENTILES..(b + 1) * NUM_PERCENTILES];
            for (slot, v) in row.iter_mut().zip(percentile_vector(sorted)) {
                *slot = v as f32;
            }
        });
        FeatureMap { data, counts }
    }

    /// The standard 10-bucket feature map.
    pub fn feature(samples: &[(u64, f64)]) -> Self {
        Self::build(samples, &SIZE_BUCKETS)
    }

    /// The 4-bucket output map (used to form training targets).
    pub fn output(samples: &[(u64, f64)]) -> Self {
        Self::build(samples, &OUTPUT_BUCKETS)
    }

    /// Percentile row of one bucket.
    pub fn bucket(&self, b: usize) -> &[f32] {
        &self.data[b * NUM_PERCENTILES..(b + 1) * NUM_PERCENTILES]
    }

    /// Value at (bucket, percentile index 0-based = p-1).
    pub fn at(&self, b: usize, p_idx: usize) -> f32 {
        self.data[b * NUM_PERCENTILES + p_idx]
    }

    /// p99 slowdown of a bucket (NaN if empty).
    pub fn p99(&self, b: usize) -> f64 {
        if self.counts[b] == 0 {
            f64::NAN
        } else {
            self.at(b, 98) as f64
        }
    }

    pub fn total_flows(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Encode the map for model consumption: log-slowdown space.
    /// Slowdowns are >= 1 with heavy tails, so ln(s) compresses the range
    /// and makes the L1 objective behave like relative error. Empty
    /// buckets map to [`LOG_EMPTY`], distinguishable from ln(1) = 0.
    ///
    /// Most buckets hold a few flows, so most rows are runs of equal values:
    /// `ln` runs once per run, and the rest of the run reuses its result.
    pub fn encode_log(&self) -> Vec<f32> {
        // Seeded with a valid (value, encoding) pair: 0.0 encodes as LOG_EMPTY.
        let (mut bits, mut enc) = (EMPTY_BUCKET_VALUE.to_bits(), LOG_EMPTY);
        self.data
            .iter()
            .map(|&v| {
                if v.to_bits() != bits {
                    bits = v.to_bits();
                    enc = if v <= 0.0 { LOG_EMPTY } else { v.max(1.0).ln() };
                }
                enc
            })
            .collect()
    }
}

/// Marker for empty buckets in the model's log-slowdown space.
pub const LOG_EMPTY: f32 = -1.0;

/// Decode a model output vector from log-slowdown back to slowdowns.
pub fn decode_log(out: &[f32]) -> Vec<f32> {
    out.iter().map(|&v| v.max(0.0).exp()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing() {
        assert_eq!(feature_bucket(1), 0);
        assert_eq!(feature_bucket(250), 0);
        assert_eq!(feature_bucket(251), 1);
        assert_eq!(feature_bucket(50_000), 7);
        assert_eq!(feature_bucket(10_000_000), 9);
        assert_eq!(output_bucket(1_000), 0);
        assert_eq!(output_bucket(1_001), 1);
        assert_eq!(output_bucket(u64::MAX), 3);
    }

    #[test]
    fn map_shape_and_counts() {
        let samples = vec![(100, 1.5), (100, 2.0), (5_000, 3.0), (1_000_000, 4.0)];
        let m = FeatureMap::feature(&samples);
        assert_eq!(m.data.len(), FEAT_DIM);
        assert_eq!(m.counts[0], 2);
        assert_eq!(m.counts[4], 1);
        assert_eq!(m.counts[9], 1);
        assert_eq!(m.total_flows(), 4);
    }

    #[test]
    fn percentile_rows_monotone() {
        let samples: Vec<(u64, f64)> = (0..1000).map(|i| (100, 1.0 + (i as f64) / 100.0)).collect();
        let m = FeatureMap::feature(&samples);
        let row = m.bucket(0);
        for w in row.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // p100 = max sample.
        assert!((row[99] - 10.99).abs() < 0.05);
    }

    #[test]
    fn empty_buckets_marked() {
        let m = FeatureMap::feature(&[(100, 2.0)]);
        for b in 1..10 {
            assert_eq!(m.bucket(b), &[EMPTY_BUCKET_VALUE; NUM_PERCENTILES]);
            assert!(m.p99(b).is_nan());
        }
        assert!((m.p99(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_fills_row() {
        let m = FeatureMap::output(&[(5_000, 3.5)]);
        let row = m.bucket(1);
        assert!(row.iter().all(|&v| (v - 3.5).abs() < 1e-6));
    }

    #[test]
    fn out_dim_is_400() {
        assert_eq!(OUT_DIM, 400);
        assert_eq!(FEAT_DIM, 1000);
    }
}

#[cfg(test)]
mod log_tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let e = std::f64::consts::E;
        let samples = vec![(100u64, 1.0), (100, e * e), (5_000, e)];
        let m = FeatureMap::feature(&samples);
        let enc = m.encode_log();
        // Bucket 0, p100 = ln(e^2) = 2.
        assert!((enc[99] - 2.0).abs() < 1e-3);
        let dec = decode_log(&enc);
        assert!((dec[99] as f64 - e * e).abs() < 1e-2);
    }

    #[test]
    fn empty_buckets_get_marker() {
        let m = FeatureMap::feature(&[(100, 2.0)]);
        let enc = m.encode_log();
        assert_eq!(enc[100], LOG_EMPTY, "bucket 1 empty");
        assert!(enc[0] > 0.0, "bucket 0 has data");
    }

    #[test]
    fn decode_clamps_to_slowdown_one() {
        let dec = decode_log(&[-5.0, 0.0, 1.0]);
        assert!((dec[0] - 1.0).abs() < 1e-6);
        assert!((dec[1] - 1.0).abs() < 1e-6);
    }
}
