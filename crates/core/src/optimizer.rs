//! Counterfactual configuration search (§5.4 operationalized): prepare the
//! workload once, then explore network configurations by re-running only
//! the spec vector + model inference per candidate — the "live
//! configuration exploration" the paper envisions. [`PreparedWorkload`] is
//! the m3 prepare half ([`PreparedEstimate`]) plus each unique slot's
//! encoded flowSim features, which no swept knob changes: a candidate then
//! costs one forward pass, and equals [`M3Estimator::estimate`] of the
//! knob-applied config bit for bit.

use crate::aggregate::{NetworkEstimate, PathDistribution, NUM_OUTPUT_BUCKETS};
use crate::error::{M3Error, Stage};
use crate::pipeline::{fg_counts, EstimateOptions, M3Estimator, PreparedEstimate};
use crate::spec::spec_vector;
use m3_netsim::prelude::*;
use m3_nn::prelude::SampleInput;
use serde::{Deserialize, Serialize};
use std::str::FromStr;

/// One unique slot's configuration-independent model inputs.
struct SlotFeatures {
    fg_enc: Vec<f32>,
    bg_enc: Vec<Vec<f32>>,
    base_rtt: Nanos,
    bottleneck: Bps,
    counts: [usize; NUM_OUTPUT_BUCKETS],
}

/// A workload prepared for repeated configuration queries. flowSim features
/// depend on the workload and topology only (the fluid model has no CC or
/// buffer knobs), so they are computed once; MTU and ACK size must stay
/// fixed across the sweep (they enter the ideal-FCT normalization).
pub struct PreparedWorkload {
    prepared: PreparedEstimate,
    slots: Vec<SlotFeatures>,
    pub k_paths: usize,
}

impl PreparedWorkload {
    /// Prepare the workload ([`PreparedEstimate`]) and featurize each
    /// unique slot once. Invalid inputs (`k_paths == 0`, a workload with no
    /// populated path, ...) return the typed error an estimate would.
    pub fn prepare(
        topo: &Topology,
        flows: &[FlowSpec],
        base_config: &SimConfig,
        k_paths: usize,
        seed: u64,
    ) -> Result<Self, M3Error> {
        let (topo, flows) = (topo.clone(), flows.to_vec());
        let options = EstimateOptions::default();
        let prepared =
            PreparedEstimate::new(topo, flows, *base_config, k_paths, seed, true, &options)?;
        let slots = prepared.units().map_slots(|data| {
            let (fg_map, bg_maps) = data.features(&data.run_flowsim());
            SlotFeatures {
                fg_enc: fg_map.encode_log(),
                bg_enc: bg_maps.iter().map(|m| m.encode_log()).collect(),
                base_rtt: data.fg_base_rtt,
                bottleneck: data.fg_bottleneck,
                counts: fg_counts(&data),
            }
        });
        Ok(PreparedWorkload {
            prepared,
            slots,
            k_paths,
        })
    }

    /// Estimate under a candidate configuration: inference only, as one
    /// batched forward pass over the unique slots, pooled over the sampled
    /// paths.
    pub fn estimate(&self, estimator: &M3Estimator, config: &SimConfig) -> NetworkEstimate {
        let inputs: Vec<SampleInput> = (self.slots.iter())
            .map(|p| SampleInput {
                fg: p.fg_enc.clone(),
                bg: p.bg_enc.clone(),
                spec: spec_vector(config, p.base_rtt, p.bottleneck),
                use_context: estimator.use_context,
            })
            .collect();
        let outputs = estimator.net.predict_batch(&inputs);
        let dists: Vec<PathDistribution> = (outputs.iter().zip(&self.slots))
            .map(|(out, p)| {
                let decoded = crate::features::decode_log(out);
                PathDistribution::from_model_output(&decoded, p.counts)
            })
            .collect();
        self.prepared.units().table.pool(&dists)
    }
}

/// A tunable scalar knob of [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Knob {
    InitWindow,
    BufferSize,
    DctcpK,
    HpccEta,
    HpccRateAi,
    TimelyTLow,
    TimelyTHigh,
    DcqcnKMin,
    DcqcnKMax,
}

impl Knob {
    /// Every knob with its command-line name, which [`FromStr`] parses.
    pub const ALL: [(Knob, &'static str); 9] = [
        (Knob::InitWindow, "init-window"),
        (Knob::BufferSize, "buffer-size"),
        (Knob::DctcpK, "dctcp-k"),
        (Knob::HpccEta, "hpcc-eta"),
        (Knob::HpccRateAi, "hpcc-rate-ai"),
        (Knob::TimelyTLow, "timely-tlow"),
        (Knob::TimelyTHigh, "timely-thigh"),
        (Knob::DcqcnKMin, "dcqcn-kmin"),
        (Knob::DcqcnKMax, "dcqcn-kmax"),
    ];

    /// Apply a candidate value to a configuration. Values are in the knob's
    /// natural unit (bytes, ns, fraction, bps).
    pub fn apply(self, config: &SimConfig, value: f64) -> SimConfig {
        let mut c = *config;
        match self {
            Knob::InitWindow => c.init_window = value as Bytes,
            Knob::BufferSize => c.buffer_size = value as Bytes,
            Knob::DctcpK => c.params.dctcp_k = value as Bytes,
            Knob::HpccEta => c.params.hpcc_eta = value,
            Knob::HpccRateAi => c.params.hpcc_rate_ai = value as Bps,
            Knob::TimelyTLow => c.params.timely_t_low = value as Nanos,
            Knob::TimelyTHigh => c.params.timely_t_high = value as Nanos,
            Knob::DcqcnKMin => c.params.dcqcn_k_min = value as Bytes,
            Knob::DcqcnKMax => c.params.dcqcn_k_max = value as Bytes,
        }
        c
    }

    /// The Table 4 sampling range of this knob.
    pub fn table4_range(self) -> (f64, f64) {
        match self {
            Knob::InitWindow => (5_000.0, 30_000.0),
            Knob::BufferSize => (200_000.0, 500_000.0),
            Knob::DctcpK => (5_000.0, 20_000.0),
            Knob::HpccEta => (0.70, 0.95),
            Knob::HpccRateAi => (500e6, 1000e6),
            Knob::TimelyTLow => (40_000.0, 60_000.0),
            Knob::TimelyTHigh => (100_000.0, 150_000.0),
            Knob::DcqcnKMin => (20_000.0, 50_000.0),
            Knob::DcqcnKMax => (50_000.0, 100_000.0),
        }
    }
}

impl FromStr for Knob {
    type Err = M3Error;

    fn from_str(s: &str) -> Result<Self, M3Error> {
        let found = Knob::ALL.into_iter().find(|&(_, name)| name == s);
        found
            .map(|(knob, _)| knob)
            .ok_or_else(|| M3Error::InvalidSpec {
                stage: Stage::Validate,
                reason: format!("unknown knob {s:?}"),
            })
    }
}

/// One evaluated candidate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    pub value: f64,
    pub objective: f64,
    pub bucket_p99: Vec<f64>,
    pub overall_p99: f64,
}

/// Result of a knob sweep or search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    pub knob: Knob,
    pub points: Vec<SweepPoint>,
    pub best: SweepPoint,
}

impl SweepResult {
    /// The evaluated `points` with the first of least objective as `best`.
    fn of(knob: Knob, points: Vec<SweepPoint>) -> Self {
        let best = match points
            .iter()
            .min_by(|a, b| a.objective.total_cmp(&b.objective))
        {
            Some(p) => p.clone(),
            None => unreachable!("a sweep evaluates at least one point"),
        };
        SweepResult { knob, points, best }
    }
}

/// Evaluates one candidate value of `knob`: the prepared estimate under the
/// knob-applied config, scored by `objective`.
fn candidate<'a>(
    estimator: &'a M3Estimator,
    prepared: &'a PreparedWorkload,
    base_config: &'a SimConfig,
    knob: Knob,
    objective: impl Fn(&NetworkEstimate) -> f64 + 'a,
) -> impl Fn(f64) -> SweepPoint + 'a {
    move |value| {
        let est = prepared.estimate(estimator, &knob.apply(base_config, value));
        SweepPoint {
            value,
            objective: objective(&est),
            bucket_p99: (0..NUM_OUTPUT_BUCKETS).map(|b| est.bucket_p99(b)).collect(),
            overall_p99: est.p99(),
        }
    }
}

/// Evaluate explicit candidate values for a knob, minimizing `objective`.
pub fn sweep_knob(
    estimator: &M3Estimator,
    prepared: &PreparedWorkload,
    base_config: &SimConfig,
    knob: Knob,
    candidates: &[f64],
    objective: impl Fn(&NetworkEstimate) -> f64,
) -> SweepResult {
    assert!(!candidates.is_empty());
    let eval = candidate(estimator, prepared, base_config, knob, objective);
    SweepResult::of(knob, candidates.iter().map(|&v| eval(v)).collect())
}

/// Golden-section search over a knob's range (assumes a roughly unimodal
/// objective; falls back to the best sampled point otherwise).
pub fn golden_section_search(
    estimator: &M3Estimator,
    prepared: &PreparedWorkload,
    base_config: &SimConfig,
    knob: Knob,
    (lo, hi): (f64, f64),
    iterations: usize,
    objective: impl Fn(&NetworkEstimate) -> f64,
) -> SweepResult {
    assert!(lo < hi);
    const PHI: f64 = 0.618_033_988_749_894_8;
    let eval = candidate(estimator, prepared, base_config, knob, objective);
    let mut points = Vec::new();
    let (mut a, mut b) = (lo, hi);
    let mut c = b - PHI * (b - a);
    let mut d = a + PHI * (b - a);
    let mut fc = eval(c);
    let mut fd = eval(d);
    points.push(fc.clone());
    points.push(fd.clone());
    for _ in 0..iterations {
        if fc.objective <= fd.objective {
            b = d;
            d = c;
            fd = fc;
            c = b - PHI * (b - a);
            fc = eval(c);
            points.push(fc.clone());
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + PHI * (b - a);
            fd = eval(d);
            points.push(fd.clone());
        }
    }
    SweepResult::of(knob, points)
}

/// Convenience objective: p99 slowdown of one size bucket.
pub fn bucket_p99_objective(bucket: usize) -> impl Fn(&NetworkEstimate) -> f64 {
    move |est| {
        let v = est.bucket_p99(bucket);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SPEC_DIM;
    use m3_nn::prelude::{M3Net, ModelConfig};
    use m3_workload::prelude::*;

    fn fixture() -> (Topology, Vec<FlowSpec>, SimConfig, M3Estimator) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let w = generate(
            &ft,
            &routing,
            &Scenario {
                n_flows: 1_500,
                matrix_name: "B".into(),
                sizes: SizeDistribution::web_server(),
                sigma: 1.0,
                max_load: 0.5,
                seed: 6,
            },
        );
        let net = M3Net::new(
            ModelConfig {
                embed: 16,
                heads: 2,
                layers: 1,
                ff_hidden: 16,
                mlp_hidden: 32,
                ..ModelConfig::repro_default(SPEC_DIM)
            },
            3,
        );
        (
            ft.topo,
            w.flows,
            SimConfig::default(),
            M3Estimator::new(net),
        )
    }

    fn setup() -> (M3Estimator, PreparedWorkload, SimConfig) {
        let (topo, flows, cfg, est) = fixture();
        let prepared = PreparedWorkload::prepare(&topo, &flows, &cfg, 12, 1).unwrap();
        (est, prepared, cfg)
    }

    /// Every candidate the sweep answers equals the full pipeline run
    /// under the knob-applied config, bit for bit. k = 300 draws repeated
    /// paths, so the pooling weight of a repeat is exercised too.
    #[test]
    fn prepared_estimate_equals_the_full_pipeline_bit_for_bit() {
        let (topo, flows, cfg, est) = fixture();
        let prepared = PreparedWorkload::prepare(&topo, &flows, &cfg, 300, 1).unwrap();
        for (knob, values) in [
            (Knob::InitWindow, [5_000.0, 15_000.0, 30_000.0]),
            (Knob::DctcpK, [5_000.0, 10_000.0, 20_000.0]),
        ] {
            for v in values {
                let c = knob.apply(&cfg, v);
                let direct = est.estimate(&topo, &flows, &c, 300, 1);
                let swept = prepared.estimate(&est, &c);
                assert_eq!(swept.digest(), direct.digest(), "{knob:?} = {v}");
            }
        }
    }

    #[test]
    fn sweep_finds_minimum_of_candidates() {
        let (est, prepared, cfg) = setup();
        let candidates = [5_000.0, 10_000.0, 20_000.0, 30_000.0];
        let r = sweep_knob(&est, &prepared, &cfg, Knob::InitWindow, &candidates, |e| {
            e.p99()
        });
        assert_eq!(r.points.len(), 4);
        let min = r
            .points
            .iter()
            .map(|p| p.objective)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(r.best.objective, min);
        assert!(candidates.contains(&r.best.value));
    }

    #[test]
    fn golden_section_stays_in_range() {
        let (est, prepared, cfg) = setup();
        let (lo, hi) = Knob::DctcpK.table4_range();
        let r = golden_section_search(
            &est,
            &prepared,
            &cfg,
            Knob::DctcpK,
            (lo, hi),
            5,
            bucket_p99_objective(0),
        );
        for p in &r.points {
            assert!(p.value >= lo && p.value <= hi);
        }
        assert!(r.best.objective <= r.points[0].objective);
    }

    #[test]
    fn knob_apply_roundtrip() {
        let cfg = SimConfig::default();
        let c = Knob::HpccEta.apply(&cfg, 0.8);
        assert!((c.params.hpcc_eta - 0.8).abs() < 1e-12);
        let c = Knob::BufferSize.apply(&cfg, 300_000.0);
        assert_eq!(c.buffer_size, 300_000);
        // Untouched fields preserved.
        assert_eq!(c.init_window, cfg.init_window);
    }

    #[test]
    fn all_knobs_have_valid_ranges() {
        for (knob, _) in Knob::ALL {
            let (lo, hi) = knob.table4_range();
            assert!(lo < hi, "{knob:?}");
        }
    }

    #[test]
    fn every_knob_name_parses_back_to_its_knob() {
        for (i, (knob, name)) in Knob::ALL.into_iter().enumerate() {
            assert_eq!(name.parse::<Knob>().unwrap(), knob);
            assert!(
                Knob::ALL[..i].iter().all(|&(k, _)| k != knob),
                "{knob:?} twice"
            );
        }
        assert!(matches!(
            "window".parse::<Knob>(),
            Err(M3Error::InvalidSpec { .. })
        ));
    }

    #[test]
    fn an_unsampleable_workload_is_a_typed_error() {
        let (topo, flows, cfg, _) = fixture();
        for (flows, k) in [(&flows[..], 0), (&[][..], 12)] {
            let got = PreparedWorkload::prepare(&topo, flows, &cfg, k, 1);
            assert!(matches!(got, Err(M3Error::InvalidSpec { .. })), "k = {k}");
        }
    }
}
