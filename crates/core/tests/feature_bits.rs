//! Bit-identity pins for the feature-map layer: `FeatureMap::build`,
//! `FeatureMap::encode_log` and `PathDistribution::from_samples`.
//!
//! Two oracles:
//!
//! * **Golden digests.** FNV-1a digests of `encode_log` (foreground map, then
//!   each hop's map) and of `from_samples` over the unique scenarios of the
//!   `hotpath` bench fixture (4 000 web-server flows, matrix B, load 0.5,
//!   workload seed 23, k = 100 paths sampled with seed 13). The constants were
//!   captured before the feature-map layer was rewritten for speed. To
//!   re-capture after a deliberate change of the encoding, run
//!
//!   ```text
//!   cargo test -p m3-core --test feature_bits -- golden --nocapture
//!   ```
//!
//!   and copy the two printed digests into `GOLDEN_ENCODE_LOG` and
//!   `GOLDEN_FROM_SAMPLES` (and `ENCODE_LOG_DIGEST` in
//!   `crates/bench/benches/hotpath.rs`).
//! * **A retained copy of the straightforward implementation** (`simple`
//!   below: one `Vec` per bucket, a stable sort, `percentile` per grid
//!   point, `ln` per value), compared bit for bit on generated inputs that
//!   include NaN, ±0.0, subnormals, +∞, runs of equal values, and sizes on
//!   either side of every bucket bound.

use m3_core::aggregate::NUM_OUTPUT_BUCKETS;
use m3_core::prelude::*;
use m3_netsim::prelude::*;
use m3_netsim::stats::{percentile, percentile_vector, NUM_PERCENTILES};
use m3_workload::prelude::*;
use proptest::prelude::*;

/// `encode_log` digest over the `hotpath` fixture (see the header).
const GOLDEN_ENCODE_LOG: u64 = 0xfad0_5cf7_cdf7_cdb4;
/// `from_samples` digest over the foreground samples of the same fixture.
const GOLDEN_FROM_SAMPLES: u64 = 0x7625_b630_45c1_fadd;

/// The straightforward feature-map layer the optimized one must match.
mod simple {
    use m3_core::features::{output_bucket, LOG_EMPTY};
    use m3_netsim::stats::NUM_PERCENTILES;

    /// `m3_netsim::stats::percentile` without its debug-build sortedness
    /// assertion, which a `total_cmp` sort with NaN last does not satisfy.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
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

    pub fn build(samples: &[(u64, f64)], bucket_bounds: &[u64]) -> (Vec<f32>, Vec<usize>) {
        let nb = bucket_bounds.len();
        let mut per_bucket: Vec<Vec<f64>> = vec![Vec::new(); nb];
        for &(size, sldn) in samples {
            let b = bucket_bounds
                .iter()
                .position(|&ub| size <= ub)
                .unwrap_or(nb - 1);
            per_bucket[b].push(sldn);
        }
        let mut data = vec![0.0f32; nb * NUM_PERCENTILES];
        let mut counts = vec![0usize; nb];
        for (b, mut v) in per_bucket.into_iter().enumerate() {
            counts[b] = v.len();
            if v.is_empty() {
                continue;
            }
            v.sort_by(|a, b| a.total_cmp(b));
            for p in 0..NUM_PERCENTILES {
                data[b * NUM_PERCENTILES + p] = percentile(&v, (p + 1) as f64) as f32;
            }
        }
        (data, counts)
    }

    pub fn encode_log(data: &[f32]) -> Vec<f32> {
        data.iter()
            .map(|&v| if v <= 0.0 { LOG_EMPTY } else { v.max(1.0).ln() })
            .collect()
    }

    pub fn from_samples(samples: &[(u64, f64)]) -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); 4];
        let mut counts = vec![0usize; 4];
        for &(size, sldn) in samples {
            let b = output_bucket(size);
            per[b].push(sldn);
            counts[b] += 1;
        }
        let buckets = per
            .into_iter()
            .map(|mut v| {
                if v.is_empty() {
                    return Vec::new();
                }
                v.sort_by(|a, b| a.total_cmp(b));
                (1..=NUM_PERCENTILES)
                    .map(|p| percentile(&v, p as f64))
                    .collect()
            })
            .collect();
        (buckets, counts)
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The `hotpath` bench's unique scenarios, in its order.
fn hotpath_fixture() -> Vec<PathScenarioData> {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows: 4_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.5,
            seed: 23,
        },
    );
    let cfg = SimConfig::default();
    let index = PathIndex::build(&ft.topo, &w.flows);
    let mut datas: Vec<PathScenarioData> = index
        .sample_paths(100, 13)
        .iter()
        .map(|&g| PathScenarioData::from_group(&ft.topo, &w.flows, &index, g, &cfg))
        .collect();
    let mut seen = std::collections::HashSet::new();
    datas.retain(|d| {
        let spec = spec_vector(&cfg, d.fg_base_rtt, d.fg_bottleneck);
        seen.insert(scenario_fingerprint(d, &spec, true))
    });
    datas
}

#[test]
fn golden_digests_of_the_hotpath_fixture() {
    let (mut enc, mut dist) = (FNV_OFFSET, FNV_OFFSET);
    let datas = hotpath_fixture();
    for d in &datas {
        let sim = d.run_flowsim();
        let (fg_map, bg_maps) = d.features(&sim);
        for m in std::iter::once(&fg_map).chain(&bg_maps) {
            for v in m.encode_log() {
                fnv1a(&mut enc, &v.to_bits().to_le_bytes());
            }
        }
        for row in PathDistribution::from_samples(&sim.fg).buckets {
            for v in row {
                fnv1a(&mut dist, &v.to_bits().to_le_bytes());
            }
        }
    }
    println!(
        "{} unique scenarios: encode_log {enc:#018x}, from_samples {dist:#018x}",
        datas.len()
    );
    assert_eq!(enc, GOLDEN_ENCODE_LOG, "encode_log digest moved");
    assert_eq!(dist, GOLDEN_FROM_SAMPLES, "from_samples digest moved");
}

/// Sample counts the bit-identity cases draw from.
const SAMPLE_COUNTS: [usize; 7] = [0, 1, 2, 99, 100, 101, 2_000];

/// Slowdowns beyond the ordinary range: signed zeros, subnormals (of f64,
/// and values that round to f32 subnormals), infinities, NaNs, and values
/// past `f32::MAX`.
const SPECIAL_SLOWDOWNS: [f64; 12] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 4.0,
    1e-40,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    1.0,
    -3.5,
    1e300,
    f64::MAX,
];

/// `(size, slowdown)` samples in generation (unsorted) order: sizes on
/// either side of every feature and output bucket bound plus `u64::MAX`
/// and random sizes; slowdowns mixing ordinary values, runs of one value,
/// near-duplicates that round to the same `f32`, and [`SPECIAL_SLOWDOWNS`].
struct Samples;

impl Strategy for Samples {
    type Value = Vec<(u64, f64)>;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let n = SAMPLE_COUNTS[(rng.next_u64() % SAMPLE_COUNTS.len() as u64) as usize];
        let edges: Vec<u64> = SIZE_BUCKETS
            .iter()
            .chain(&OUTPUT_BUCKETS)
            .flat_map(|&b| [b.saturating_sub(1), b, b.saturating_add(1)])
            .chain([0, 1, u64::MAX])
            .collect();
        // A per-case mix, so some cases are mostly runs and some mostly
        // distinct values.
        let run_share = rng.next_u64() % 4;
        let mut prev = 1.0;
        (0..n)
            .map(|_| {
                let size = match rng.next_u64() % 3 {
                    0 => edges[(rng.next_u64() % edges.len() as u64) as usize],
                    1 => rng.next_u64(),
                    _ => rng.next_u64() % 300_000,
                };
                let sldn = match rng.next_u64() % 8 {
                    r if r < run_share => prev,
                    4 => {
                        SPECIAL_SLOWDOWNS
                            [(rng.next_u64() % SPECIAL_SLOWDOWNS.len() as u64) as usize]
                    }
                    5 => prev * (1.0 + 1e-12),
                    _ => 1.0 + rng.next_f64() * 50.0,
                };
                prev = sldn;
                (size, sldn)
            })
            .collect()
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn build_and_encode_log_match_the_simple_layer(samples in Samples) {
        for bounds in [&SIZE_BUCKETS[..], &OUTPUT_BUCKETS[..]] {
            let (data, counts) = simple::build(&samples, bounds);
            let m = FeatureMap::build(&samples, bounds);
            prop_assert_eq!(&m.counts, &counts);
            prop_assert_eq!(bits32(&m.data), bits32(&data), "{} bounds", bounds.len());
            prop_assert_eq!(bits32(&m.encode_log()), bits32(&simple::encode_log(&data)));
        }
    }

    #[test]
    fn from_samples_matches_the_simple_layer(samples in Samples) {
        let (buckets, counts) = simple::from_samples(&samples);
        let d = PathDistribution::from_samples(&samples);
        prop_assert_eq!(&d.counts[..], &counts[..]);
        prop_assert_eq!(d.buckets.len(), NUM_OUTPUT_BUCKETS);
        for (got, want) in d.buckets.iter().zip(&buckets) {
            prop_assert_eq!(bits64(got), bits64(want));
        }
    }

    /// `encode_log` of arbitrary map contents, not only of built maps.
    #[test]
    fn encode_log_matches_on_any_data(
        picks in prop::collection::vec((0u64..12, 0.0f32..40.0, prop::bool::ANY), 0..400)
    ) {
        let data: Vec<f32> = picks
            .iter()
            .map(|&(k, x, special)| if special { SPECIAL_SLOWDOWNS[k as usize] as f32 } else { x })
            .collect();
        let m = FeatureMap { data, counts: Vec::new() };
        prop_assert_eq!(bits32(&m.encode_log()), bits32(&simple::encode_log(&m.data)));
    }
}

#[test]
fn percentile_vector_matches_percentile_at_every_length() {
    let mut rng = TestRng::for_case("percentile_vector", 0);
    for n in 1..=300usize {
        let mut v: Vec<f64> = (0..n)
            .map(|_| match rng.next_u64() % 4 {
                0 => (rng.next_u64() % 5) as f64,
                1 => -0.0,
                _ => rng.next_f64() * 1e3,
            })
            .collect();
        v.sort_by(f64::total_cmp);
        let want: Vec<f64> = (1..=NUM_PERCENTILES)
            .map(|p| percentile(&v, p as f64))
            .collect();
        assert_eq!(bits64(&percentile_vector(&v)), bits64(&want), "n = {n}");
    }
    assert!(percentile_vector(&[]).iter().all(|v| v.is_nan()));
}
