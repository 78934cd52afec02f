//! Network-wide aggregation (§3.5, Fig. 8).
//!
//! Each of the k sampled paths yields a per-size-bucket slowdown
//! distribution (100 percentiles). Because paths were sampled proportional
//! to foreground flow count, per-bucket pooling is *uniform* across paths;
//! the per-bucket distributions are then combined into one network-wide
//! distribution with weights proportional to bucket flow counts.

use crate::error::{FaultKind, Stage};
use crate::features::{for_each_sorted_bucket, OUTPUT_BUCKETS};
use m3_netsim::stats::{percentile, percentile_vector, NUM_PERCENTILES};
use serde::{Deserialize, Serialize};

pub const NUM_OUTPUT_BUCKETS: usize = OUTPUT_BUCKETS.len();

/// One path's predicted (or measured) slowdown distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathDistribution {
    /// `NUM_OUTPUT_BUCKETS x NUM_PERCENTILES` slowdown values; empty buckets
    /// hold an empty vector.
    pub buckets: Vec<Vec<f64>>,
    /// Foreground flows per bucket on this path.
    pub counts: [usize; NUM_OUTPUT_BUCKETS],
}

impl PathDistribution {
    /// From raw (size, slowdown) samples (used for ground-truth paths and
    /// the flowSim baseline).
    pub fn from_samples(samples: &[(u64, f64)]) -> Self {
        let mut buckets = vec![Vec::new(); NUM_OUTPUT_BUCKETS];
        let per_bucket = for_each_sorted_bucket(samples, &OUTPUT_BUCKETS, |b, sorted| {
            buckets[b] = percentile_vector(sorted).to_vec();
        });
        let mut counts = [0usize; NUM_OUTPUT_BUCKETS];
        counts.copy_from_slice(&per_bucket);
        PathDistribution { buckets, counts }
    }

    /// From a model output vector (4x100 flattened) plus bucket counts.
    /// Values are clamped to >= 1 and made monotone across percentiles
    /// (a distribution's quantile function must be non-decreasing).
    pub fn from_model_output(out: &[f32], counts: [usize; NUM_OUTPUT_BUCKETS]) -> Self {
        assert_eq!(out.len(), NUM_OUTPUT_BUCKETS * NUM_PERCENTILES);
        let buckets = (0..NUM_OUTPUT_BUCKETS)
            .map(|b| {
                if counts[b] == 0 {
                    return Vec::new();
                }
                let mut row: Vec<f64> = out[b * NUM_PERCENTILES..(b + 1) * NUM_PERCENTILES]
                    .iter()
                    .map(|&v| (v as f64).max(1.0))
                    .collect();
                for i in 1..row.len() {
                    row[i] = row[i].max(row[i - 1]);
                }
                row
            })
            .collect();
        PathDistribution { buckets, counts }
    }

    /// Integrity check for distributions coming out of storage (the
    /// scenario cache today, disk tomorrow): the bucket/count structure
    /// must be consistent and every value finite. All legitimately
    /// constructed distributions pass; a corrupted one is evicted and
    /// recomputed rather than aggregated into an estimate.
    pub fn is_sane(&self) -> bool {
        if self.buckets.len() != NUM_OUTPUT_BUCKETS {
            return false;
        }
        for b in 0..NUM_OUTPUT_BUCKETS {
            let row = &self.buckets[b];
            if (self.counts[b] == 0) != row.is_empty() {
                return false;
            }
            if !row.iter().all(|v| v.is_finite()) {
                return false;
            }
        }
        true
    }
}

/// One recorded fault absorbed (or observed) while producing an estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradationEvent {
    /// Pipeline stage where the fault surfaced.
    pub stage: Stage,
    /// Classification of the fault.
    pub fault: FaultKind,
    /// Index of the affected path sample (slot in the k sampled paths);
    /// `usize::MAX` for faults not tied to one sample.
    pub scenario: usize,
    /// Path samples whose result was affected by this event (0 when the
    /// fault was fully repaired, e.g. an evicted-and-recomputed cache
    /// entry).
    pub samples_affected: usize,
    /// Human-readable cause.
    pub detail: String,
}

/// Account of everything that went wrong (and was absorbed) during an
/// estimate. A clean run has `total_samples` set and everything else zero
/// or empty, and compares equal to `DegradationReport::default()` except
/// for `total_samples` — use [`is_clean`](Self::is_clean) to test.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Path samples the estimate was asked to cover.
    pub total_samples: usize,
    /// Samples that fell back to the uncorrected flowSim distribution
    /// (forward-stage faults: the flowSim result was usable).
    pub degraded_samples: usize,
    /// Samples dropped entirely (flowSim-stage faults: no distribution
    /// exists to fall back on).
    pub dropped_samples: usize,
    /// Individual fault events, in ascending scenario order.
    pub events: Vec<DegradationEvent>,
}

impl DegradationReport {
    /// True iff no sample was degraded or dropped and no fault observed.
    pub fn is_clean(&self) -> bool {
        self.degraded_samples == 0 && self.dropped_samples == 0 && self.events.is_empty()
    }

    /// Fraction of samples that did not get the full m3 treatment
    /// (degraded or dropped). 0.0 when there are no samples.
    pub fn degraded_frac(&self) -> f64 {
        if self.total_samples == 0 {
            return 0.0;
        }
        (self.degraded_samples + self.dropped_samples) as f64 / self.total_samples as f64
    }
}

/// Per-stage wall-clock seconds and work counters of the `estimate` call
/// that produced a [`NetworkEstimate`]. All-zero when the estimate was not
/// produced by the timed pipeline (e.g. ground truth). The `repro`
/// figures serialize these into their `results/*.json` records to track
/// where time goes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Path decomposition, sampling, and scenario materialization.
    pub decompose_s: f64,
    /// flowSim fluid simulation of unique scenarios.
    pub flowsim_s: f64,
    /// Feature-map extraction and encoding.
    pub features_s: f64,
    /// Neural-network forward pass (batched over unique scenarios).
    pub forward_s: f64,
    /// Final pooling into the network-wide distribution.
    pub aggregate_s: f64,
    /// Paths sampled for this estimate.
    pub sampled_paths: usize,
    /// Distinct scenarios after content-hash deduplication.
    pub unique_scenarios: usize,
    /// flowSim simulations actually executed (dedupe + cache skip the rest).
    pub flowsim_runs: usize,
    /// Scenarios answered from the cross-run scenario cache.
    pub cache_hits: usize,
    /// Scenarios probed but not found in the cache (0 when no cache was
    /// supplied; `cache_hits + cache_misses == unique_scenarios` otherwise).
    #[serde(default)]
    pub cache_misses: usize,
    /// Cache entries evicted while this estimate inserted its results
    /// (LRU pressure attributable to this call).
    #[serde(default)]
    pub cache_evictions: usize,
}

impl StageTimings {
    /// Total accounted wall-clock time in seconds.
    pub fn total_s(&self) -> f64 {
        self.decompose_s + self.flowsim_s + self.features_s + self.forward_s + self.aggregate_s
    }

    /// Backward-compatibility view over a telemetry snapshot: since the
    /// registry became the pipeline's source of truth, `StageTimings` is
    /// derived from the per-call metrics rather than populated by hand.
    /// Metrics absent from the snapshot read as zero.
    pub fn from_snapshot(snap: &m3_telemetry::MetricsSnapshot) -> StageTimings {
        use crate::metrics::names;
        let count = |n: &str| snap.counter(n).unwrap_or(0) as usize;
        let secs = |n: &str| snap.timer_seconds(n).unwrap_or(0.0);
        StageTimings {
            decompose_s: secs(names::DECOMPOSE_SECONDS),
            flowsim_s: secs(names::FLOWSIM_SECONDS),
            features_s: secs(names::FEATURES_SECONDS),
            forward_s: secs(names::FORWARD_SECONDS),
            aggregate_s: secs(names::AGGREGATE_SECONDS),
            sampled_paths: count(names::SAMPLED_PATHS),
            unique_scenarios: count(names::UNIQUE_SCENARIOS),
            flowsim_runs: count(names::FLOWSIM_RUNS),
            cache_hits: count(names::CACHE_HITS),
            cache_misses: count(names::CACHE_MISSES),
            cache_evictions: count(names::CACHE_EVICTIONS),
        }
    }
}

/// A percentile in (0, 100], what [`NetworkEstimate::overall_quantile`]
/// takes: `Percentile::P99` is the 99th percentile, not the 0.99th.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile(f64);

impl Percentile {
    pub const P50: Percentile = Percentile(50.0);
    pub const P90: Percentile = Percentile(90.0);
    pub const P99: Percentile = Percentile(99.0);

    /// `p` percent, if `0 < p <= 100`; `None` otherwise (NaN included).
    pub fn new(p: f64) -> Option<Percentile> {
        (p > 0.0 && p <= 100.0).then_some(Percentile(p))
    }

    /// The percent value, in (0, 100].
    pub fn get(self) -> f64 {
        self.0
    }
}

/// The aggregated network-wide estimate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NetworkEstimate {
    /// Pooled slowdown samples per bucket (sorted).
    pub bucket_samples: Vec<Vec<f64>>,
    /// Total foreground flows per bucket across sampled paths.
    pub bucket_counts: [usize; NUM_OUTPUT_BUCKETS],
    /// Stage timings of the producing pipeline (zeroed otherwise). Not part
    /// of the estimate's value: two estimates are equivalent iff their
    /// samples and counts match, regardless of timings.
    #[serde(default)]
    pub timings: StageTimings,
    /// Faults absorbed while producing this estimate (empty for clean
    /// runs and for estimators that never degrade, e.g. ground truth).
    #[serde(default)]
    pub degradation: DegradationReport,
}

impl NetworkEstimate {
    /// Uniformly pool the per-bucket percentile vectors of all paths.
    pub fn aggregate(paths: &[PathDistribution]) -> Self {
        assert!(!paths.is_empty(), "need at least one path distribution");
        Self::pool(paths.iter())
    }

    /// [`aggregate`](Self::aggregate) over borrowed distributions, wherever
    /// they lie. Each bucket is sorted unstably under `total_cmp`, which
    /// calls two floats equal only when their bits are, so the order of
    /// equal elements cannot show: the result is the stable sort's, bit
    /// for bit.
    pub(crate) fn pool<'a>(paths: impl Iterator<Item = &'a PathDistribution> + Clone) -> Self {
        let mut lens = [0usize; NUM_OUTPUT_BUCKETS];
        for p in paths.clone() {
            for (len, bucket) in lens.iter_mut().zip(&p.buckets) {
                *len += bucket.len();
            }
        }
        let mut bucket_samples: Vec<Vec<f64>> =
            lens.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut bucket_counts = [0usize; NUM_OUTPUT_BUCKETS];
        for p in paths {
            for b in 0..NUM_OUTPUT_BUCKETS {
                bucket_samples[b].extend_from_slice(&p.buckets[b]);
                bucket_counts[b] += p.counts[b];
            }
        }
        for v in bucket_samples.iter_mut() {
            v.sort_unstable_by(f64::total_cmp);
        }
        NetworkEstimate {
            bucket_samples,
            bucket_counts,
            timings: StageTimings::default(),
            degradation: DegradationReport::default(),
        }
    }

    /// Quantile of one size bucket (NaN if the bucket is empty).
    pub fn bucket_quantile(&self, bucket: usize, p: f64) -> f64 {
        percentile(&self.bucket_samples[bucket], p)
    }

    /// p99 slowdown of one size bucket.
    pub fn bucket_p99(&self, bucket: usize) -> f64 {
        self.bucket_quantile(bucket, 99.0)
    }

    /// Network-wide quantile: buckets combined with probability proportional
    /// to flow count (Fig. 8's probabilistic sampling, done analytically via
    /// a weighted merge).
    pub fn overall_quantile(&self, p: Percentile) -> f64 {
        let total: usize = self.bucket_counts.iter().sum();
        assert!(total > 0, "no flows to aggregate");
        // Weighted merge: each sample in bucket b carries weight
        // count_b / len_b.
        let mut weighted: Vec<(f64, f64)> = Vec::new();
        for b in 0..NUM_OUTPUT_BUCKETS {
            let n = self.bucket_samples[b].len();
            if n == 0 {
                continue;
            }
            let w = self.bucket_counts[b] as f64 / n as f64;
            weighted.extend(self.bucket_samples[b].iter().map(|&v| (v, w)));
        }
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total_w: f64 = weighted.iter().map(|(_, w)| w).sum();
        let target = p.get() / 100.0 * total_w;
        let mut acc = 0.0;
        for (v, w) in &weighted {
            acc += w;
            if acc >= target {
                return *v;
            }
        }
        weighted.last().map(|(v, _)| *v).unwrap_or(f64::NAN)
    }

    /// The paper's headline metric: network-wide p99 slowdown.
    pub fn p99(&self) -> f64 {
        self.overall_quantile(Percentile::P99)
    }

    /// Word-wise FNV-1a over the bits of the estimate's value:
    /// `bucket_counts`, then each bucket's length and sample bits, in
    /// order. Timings and the degradation report are not part of it, so
    /// two runs that agree bit for bit on the value agree on the digest.
    pub fn digest(&self) -> u64 {
        let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100_0000_01b3);
        let mut h = 0xcbf2_9ce4_8422_2325;
        for &c in &self.bucket_counts {
            h = word(h, c as u64);
        }
        for bucket in &self.bucket_samples {
            h = word(h, bucket.len() as u64);
            for v in bucket {
                h = word(h, v.to_bits());
            }
        }
        h
    }
}

/// Deterministically merge partial [`NetworkEstimate`]s (disjoint path
/// subsets of one scenario) into the whole-scenario estimate.
///
/// Bit-identical to the single-shot run: [`NetworkEstimate::aggregate`] is
/// a concat-then-total-order-sort over per-path sample vectors, so
/// aggregating a partition of the paths and merging (concat, re-sort,
/// sum counts) produces exactly the same sorted sample multiset and
/// counts as aggregating all paths at once. This is what lets a sharded
/// cluster merge slice estimates. Timings are summed
/// (they are operator info, excluded from value equality); degradation
/// reports are summed field-wise with events concatenated in part order.
pub fn merge_estimates(parts: &[&NetworkEstimate]) -> NetworkEstimate {
    assert!(!parts.is_empty(), "need at least one partial estimate");
    let mut bucket_samples: Vec<Vec<f64>> = vec![Vec::new(); NUM_OUTPUT_BUCKETS];
    let mut bucket_counts = [0usize; NUM_OUTPUT_BUCKETS];
    let mut timings = parts[0].timings.clone();
    let mut degradation = DegradationReport::default();
    for (i, e) in parts.iter().enumerate() {
        for b in 0..NUM_OUTPUT_BUCKETS {
            bucket_samples[b].extend_from_slice(&e.bucket_samples[b]);
            bucket_counts[b] += e.bucket_counts[b];
        }
        if i > 0 {
            let t = &e.timings;
            timings.decompose_s += t.decompose_s;
            timings.flowsim_s += t.flowsim_s;
            timings.features_s += t.features_s;
            timings.forward_s += t.forward_s;
            timings.aggregate_s += t.aggregate_s;
            timings.sampled_paths += t.sampled_paths;
            timings.unique_scenarios += t.unique_scenarios;
            timings.flowsim_runs += t.flowsim_runs;
            timings.cache_hits += t.cache_hits;
            timings.cache_misses += t.cache_misses;
            timings.cache_evictions += t.cache_evictions;
        }
        degradation.total_samples += e.degradation.total_samples;
        degradation.degraded_samples += e.degradation.degraded_samples;
        degradation.dropped_samples += e.degradation.dropped_samples;
        degradation
            .events
            .extend(e.degradation.events.iter().cloned());
    }
    for v in bucket_samples.iter_mut() {
        v.sort_by(|a, b| a.total_cmp(b));
    }
    NetworkEstimate {
        bucket_samples,
        bucket_counts,
        timings,
        degradation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_digest_covers_every_value_bit_and_nothing_else() {
        let base = NetworkEstimate {
            bucket_counts: [3, 0, 1, 0],
            bucket_samples: vec![vec![1.0, 4.5], vec![], vec![2.0], vec![]],
            ..NetworkEstimate::default()
        };
        // Word-wise FNV-1a over the counts, then each bucket's length and
        // sample bits, worked out by hand.
        assert_eq!(base.digest(), 0xbfb5_121d_10ce_a054);
        let mut timed = base.clone();
        timed.timings.flowsim_s = 1.0;
        assert_eq!(timed.digest(), base.digest());
        let mut flipped = base.clone();
        flipped.bucket_samples[0][1] = f64::from_bits(4.5f64.to_bits() ^ 1);
        assert_ne!(flipped.digest(), base.digest());
        let mut moved = base.clone();
        moved.bucket_samples[2].clear();
        moved.bucket_samples[1].push(2.0);
        assert_ne!(moved.digest(), base.digest());
        let mut counted = base.clone();
        counted.bucket_counts[3] += 1;
        assert_ne!(counted.digest(), base.digest());
    }

    fn dist(vals: &[(u64, f64)]) -> PathDistribution {
        PathDistribution::from_samples(vals)
    }

    #[test]
    fn from_samples_bucketing() {
        let d = dist(&[(500, 2.0), (500, 4.0), (5_000, 3.0), (100_000, 8.0)]);
        assert_eq!(d.counts, [2, 1, 0, 1]);
        assert!(d.buckets[2].is_empty());
        assert_eq!(d.buckets[1].len(), NUM_PERCENTILES);
    }

    #[test]
    fn model_output_clamped_and_monotone() {
        let mut out = vec![0.5f32; 400];
        out[100] = 3.0; // bucket 1 starts high then drops
        out[101] = 2.0;
        let d = PathDistribution::from_model_output(&out, [1, 1, 1, 1]);
        for b in 0..4 {
            let row = &d.buckets[b];
            assert!(row.iter().all(|&v| v >= 1.0));
            for w in row.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
        assert!((d.buckets[1][1] - 3.0).abs() < 1e-9, "monotone enforcement");
    }

    #[test]
    fn empty_bucket_in_model_output() {
        let out = vec![2.0f32; 400];
        let d = PathDistribution::from_model_output(&out, [5, 0, 0, 0]);
        assert!(d.buckets[1].is_empty());
    }

    #[test]
    fn aggregate_pools_uniformly() {
        let d1 = dist(&[(500, 2.0)]);
        let d2 = dist(&[(500, 6.0)]);
        let agg = NetworkEstimate::aggregate(&[d1, d2]);
        // Pooled: 100 samples at 2.0 and 100 at 6.0 -> median 4-ish, p99 = 6.
        assert!((agg.bucket_p99(0) - 6.0).abs() < 1e-9);
        let med = agg.bucket_quantile(0, 50.0);
        assert!((2.0..=6.0).contains(&med));
        assert_eq!(agg.bucket_counts[0], 2);
    }

    #[test]
    fn the_unstable_sort_pools_the_stable_sorts_bits() {
        // Values `total_cmp` orders but `==` does not: both zeros, NaNs of
        // either sign with distinct payloads, infinities, and duplicates of
        // each spread over paths so equal elements start out of order.
        let nan = |sign: u64, payload: u64| f64::from_bits(sign << 63 | 0x7ff8 << 48 | payload);
        let planted = [
            0.0,
            -0.0,
            nan(0, 1),
            nan(1, 1),
            nan(0, 0x2_0000),
            nan(1, 7),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
        ];
        let paths: Vec<PathDistribution> = (0..7)
            .map(|i| PathDistribution {
                buckets: (0..NUM_OUTPUT_BUCKETS)
                    .map(|b| {
                        (0..40)
                            .map(|j| planted[(i * 5 + b * 3 + j * 7) % planted.len()])
                            .collect()
                    })
                    .collect(),
                counts: [i + 1, 2, 0, 3],
            })
            .collect();
        let pooled = NetworkEstimate::aggregate(&paths);
        for b in 0..NUM_OUTPUT_BUCKETS {
            let mut stable: Vec<f64> = paths.iter().flat_map(|p| p.buckets[b].clone()).collect();
            stable.sort_by(|x, y| x.total_cmp(y));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pooled.bucket_samples[b]), bits(&stable), "bucket {b}");
        }
        assert_eq!(pooled.bucket_counts, [28, 14, 0, 21]);
    }

    #[test]
    fn overall_quantile_weights_by_count() {
        // Bucket 0: 99 flows at slowdown 1; bucket 3: 1 flow at slowdown 10.
        let mut d1 = dist(&[(500, 1.0)]);
        d1.counts = [99, 0, 0, 0];
        let mut d2 = dist(&[(100_000, 10.0)]);
        d2.counts = [0, 0, 0, 1];
        let agg = NetworkEstimate::aggregate(&[d1, d2]);
        // p50 dominated by bucket 0; p99.5 reaches bucket 3's value.
        assert!((agg.overall_quantile(Percentile::P50) - 1.0).abs() < 1e-9);
        let p999 = Percentile::new(99.9).unwrap();
        assert!((agg.overall_quantile(p999) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_percentile_is_in_0_exclusive_to_100_inclusive() {
        for p in [1e-9, 0.5, 50.0, 99.9, 100.0] {
            assert_eq!(Percentile::new(p).map(Percentile::get), Some(p), "{p}");
        }
        for p in [0.0, -0.0, -1.0, 100.000_001, f64::NAN, f64::INFINITY] {
            assert_eq!(Percentile::new(p), None, "{p}");
        }
        assert_eq!(Percentile::P50, Percentile::new(50.0).unwrap());
        assert_eq!(Percentile::P90, Percentile::new(90.0).unwrap());
        assert_eq!(Percentile::P99, Percentile::new(99.0).unwrap());
    }

    #[test]
    fn p99_matches_direct_computation_single_bucket() {
        let samples: Vec<(u64, f64)> = (0..1000).map(|i| (500u64, 1.0 + i as f64 * 0.01)).collect();
        let d = dist(&samples);
        let agg = NetworkEstimate::aggregate(&[d]);
        let mut sl: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let direct = m3_netsim::stats::percentile_unsorted(&mut sl, 99.0);
        assert!((agg.p99() - direct).abs() / direct < 0.02);
    }
}
