//! The only file of the benchmark that calls into the program.
//!
//! Every `m3-*` item the benchmark touches is imported here and nowhere
//! else, so a refactor that renames an entry point (ROADMAP's "one estimate
//! path") is a one-file change to the benchmark. The surface used is the one
//! that item intends to keep: `try_estimate*(.., &EstimateOptions)`, the
//! layers' public functions, and the `Service` methods.

use m3_core::prelude::{
    output_bucket, scenario_fingerprint, spec_vector, validate_workload, EstimateOptions,
    FeatureMap, Knob, M3Error, PathDistribution, PathIndex, PathScenarioData, ScenarioSession,
    SpecValidation, NUM_OUTPUT_BUCKETS, SPEC_DIM,
};
use m3_flowsim::prelude::{FluidBudget, FluidFctRecord, FluidWorkspace};
use m3_netsim::prelude::{FatTree, FatTreeSpec, FlowSpec, Routing, SimConfig, Topology};
use m3_nn::prelude::{ArenaPool, M3Net, ModelConfig, SampleInput};
use m3_serve::prelude::{
    ConfigSpec, Journal, JournalRecord, OpenSessionRequest, ScenarioSpec, ServiceConfig, TopoSpec,
    WorkloadSpec,
};
use m3_workload::prelude::{generate, Scenario, SizeDistribution};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

pub use m3_core::prelude::{
    M3Estimator, NetworkEstimate, ScenarioCache, ScenarioDelta, ScenarioState, SharedScenarioCache,
};
pub use m3_serve::prelude::{EstimateRequest, JobOutcome, Service};

/// Sampled paths per estimate on every workload but `fwd_k500`.
pub const K100: usize = 100;
/// The paper's k.
pub const K500: usize = 500;

/// The estimator every workload runs. The repository ships no trained
/// checkpoint, so the model is the untrained reproduction-scale network with
/// a fixed seed: its speed is representative, its estimates are unvalidated.
pub fn build_estimator() -> M3Estimator {
    M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7))
}

/// One materialized scenario: what every estimate call is given.
pub struct Fabric {
    pub topo: Topology,
    pub flows: Vec<FlowSpec>,
    pub config: SimConfig,
}

/// The recipe the service workloads send over the wire; `small_fabric`
/// materializes the same recipe, so direct and served estimates agree.
pub fn scenario_spec(large: bool, n_flows: usize, max_load: f64) -> ScenarioSpec {
    ScenarioSpec {
        topology: if large {
            TopoSpec::FatTreeLarge
        } else {
            TopoSpec::FatTreeSmall { oversub: 2 }
        },
        workload: WorkloadSpec {
            n_flows,
            matrix: "B".into(),
            sizes: "WebServer".into(),
            sigma: 1.0,
            max_load,
        },
        config: ConfigSpec::default(),
    }
}

/// `FatTreeSpec::small(2)`, traffic matrix B, WebServer sizes.
pub fn small_fabric(n_flows: usize, max_load: f64, seed: u64) -> Fabric {
    let ft = FatTree::build(FatTreeSpec::small(2));
    let routing = Routing::new(&ft.topo);
    let w = generate(
        &ft,
        &routing,
        &Scenario {
            n_flows,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load,
            seed,
        },
    );
    Fabric {
        topo: ft.topo,
        flows: w.flows,
        config: SimConfig::default(),
    }
}

/// What a service worker does before it estimates a request.
pub fn materialize(spec: &ScenarioSpec, seed: u64) -> Result<Fabric, String> {
    let (topo, flows, config) = spec.materialize(seed).map_err(err)?;
    Ok(Fabric {
        topo,
        flows,
        config,
    })
}

fn err(e: M3Error) -> String {
    e.to_string()
}

/// An estimate counts as an op that succeeded only when no sample degraded.
fn clean(est: NetworkEstimate) -> Result<NetworkEstimate, String> {
    if est.degradation.is_clean() {
        Ok(est)
    } else {
        Err(format!("degraded estimate: {:?}", est.degradation))
    }
}

/// One-shot estimate, no cache.
pub fn estimate_cold(
    est: &M3Estimator,
    f: &Fabric,
    k: usize,
    path_seed: u64,
) -> Result<NetworkEstimate, String> {
    est.try_estimate(
        &f.topo,
        &f.flows,
        &f.config,
        k,
        path_seed,
        &EstimateOptions::default(),
    )
    .map_err(err)
    .and_then(clean)
}

/// One-shot estimate through a caller-owned scenario cache.
pub fn estimate_cached(
    est: &M3Estimator,
    f: &Fabric,
    k: usize,
    path_seed: u64,
    cache: &mut ScenarioCache,
) -> Result<NetworkEstimate, String> {
    est.try_estimate_with_cache(
        &f.topo,
        &f.flows,
        &f.config,
        k,
        path_seed,
        cache,
        &EstimateOptions::default(),
    )
    .map_err(err)
    .and_then(clean)
}

/// The estimate call a service worker makes.
pub fn estimate_shared(
    est: &M3Estimator,
    f: &Fabric,
    k: usize,
    path_seed: u64,
    cache: &SharedScenarioCache,
) -> Result<NetworkEstimate, String> {
    est.try_estimate_with_shared_cache(
        &f.topo,
        &f.flows,
        &f.config,
        k,
        path_seed,
        cache,
        &EstimateOptions::default(),
    )
    .map_err(err)
    .and_then(clean)
}

/// Word-wise FNV-1a over the bit patterns of an estimate's value-carrying
/// fields (`bucket_counts`, then every `bucket_samples` entry, in order).
/// Two estimates are bit-identical iff their digests chain equally.
pub fn digest(est: &NetworkEstimate) -> u64 {
    #[cfg(test)]
    if corrupt::strikes_now() {
        return digest(&corrupt::flip_one_bit(est));
    }
    let mut h = FNV_OFFSET;
    for &c in &est.bucket_counts {
        h = fnv_word(h, c as u64);
    }
    for bucket in &est.bucket_samples {
        h = fnv_word(h, bucket.len() as u64);
        for v in bucket {
            h = fnv_word(h, v.to_bits());
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step over a 64-bit word.
pub fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x100_0000_01b3)
}

/// Test-only: make the n-th estimate digested on this thread arrive with one
/// bit flipped, as a corrupted output would, to show the checks catch it.
#[cfg(test)]
pub mod corrupt {
    use super::NetworkEstimate;
    use std::cell::Cell;

    thread_local! {
        static COUNTDOWN: Cell<Option<u32>> = const { Cell::new(None) };
    }

    pub fn nth_digest(n: u32) {
        COUNTDOWN.with(|c| c.set(Some(n)));
    }

    pub(super) fn strikes_now() -> bool {
        COUNTDOWN.with(|c| match c.get() {
            Some(0) => {
                c.set(None);
                true
            }
            Some(n) => {
                c.set(Some(n - 1));
                false
            }
            None => false,
        })
    }

    pub(super) fn flip_one_bit(est: &NetworkEstimate) -> NetworkEstimate {
        let mut e = est.clone();
        let v = e
            .bucket_samples
            .iter_mut()
            .find_map(|b| b.first_mut())
            .expect("an estimate has samples");
        *v = f64::from_bits(v.to_bits() ^ 1);
        e
    }
}

// ---------------------------------------------------------------------------
// The layers, one public function each, as `estimate_inner` calls them.
// ---------------------------------------------------------------------------

pub type Index = PathIndex;
pub type PathData = PathScenarioData;
pub type Distribution = PathDistribution;
pub type ModelInput = SampleInput;

/// The scratch `M3Estimator` keeps privately, held by the benchmark so the
/// layered run reuses warm fluid workspaces and tensor arenas as the
/// pipeline does.
#[derive(Default)]
pub struct LayerScratch {
    fluid: Mutex<Vec<(FluidWorkspace, Vec<FluidFctRecord>)>>,
    arenas: ArenaPool,
}

/// Sampled paths deduplicated by content key, as `materialize_units` does.
pub struct Units {
    pub specs: Vec<Vec<f32>>,
    pub keys: Vec<u64>,
    /// slot -> first sampled index with that key.
    pub uniq: Vec<usize>,
    /// sampled index -> slot.
    pub slot_of: Vec<usize>,
}

/// `m3-core::error`: the checks every estimate runs before any work.
pub fn validate(f: &Fabric) -> Result<(), String> {
    f.config.validate_spec().map_err(err)?;
    validate_workload(&f.topo, &f.flows).map_err(err)
}

/// `m3-core::decompose`.
pub fn index_build(f: &Fabric) -> Index {
    PathIndex::build(&f.topo, &f.flows)
}

pub fn sample_paths(index: &Index, k: usize, path_seed: u64) -> Vec<usize> {
    index.sample_paths(k, path_seed)
}

pub fn materialize_path(f: &Fabric, index: &Index, group: usize) -> PathData {
    PathScenarioData::from_group(&f.topo, &f.flows, index, group, &f.config)
}

pub fn dedupe(est: &M3Estimator, f: &Fabric, datas: &[PathData]) -> Units {
    let specs: Vec<Vec<f32>> = datas
        .iter()
        .map(|d| spec_vector(&f.config, d.fg_base_rtt, d.fg_bottleneck))
        .collect();
    let keys: Vec<u64> = datas
        .iter()
        .zip(&specs)
        .map(|(d, s)| scenario_fingerprint(d, s, est.use_context))
        .collect();
    let mut slot_by_key: HashMap<u64, usize> = HashMap::new();
    let mut uniq = Vec::new();
    let mut slot_of = Vec::with_capacity(keys.len());
    for (i, &k) in keys.iter().enumerate() {
        let slot = *slot_by_key.entry(k).or_insert_with(|| {
            uniq.push(i);
            uniq.len() - 1
        });
        slot_of.push(slot);
    }
    Units {
        specs,
        keys,
        uniq,
        slot_of,
    }
}

/// `m3-flowsim`: one path scenario; returns the result, the event count and
/// the number of flows simulated.
pub struct FlowsimRun {
    pub result: m3_core::prelude::FlowsimResult,
    pub events: u64,
    pub flows: u64,
}

pub fn flowsim(scratch: &LayerScratch, data: &PathData) -> Result<FlowsimRun, String> {
    let (mut ws, mut records) = scratch
        .fluid
        .lock()
        .map(|mut pool| pool.pop().unwrap_or_default())
        .unwrap_or_default();
    let out = data
        .try_run_flowsim_traced_into(&FluidBudget::default(), None, &mut ws, &mut records)
        .map_err(|e| e.to_string());
    if let Ok(mut pool) = scratch.fluid.lock() {
        pool.push((ws, records));
    }
    out.map(|(result, stats)| FlowsimRun {
        result,
        events: stats.events,
        flows: (data.fg.len() + data.bg.len()) as u64,
    })
}

/// `m3-core::features`: feature maps and their log encoding.
pub fn featurize(est: &M3Estimator, data: &PathData, sim: &FlowsimRun, spec: &[f32]) -> ModelInput {
    let (fg_map, bg_maps) = data.features(&sim.result);
    SampleInput {
        fg: fg_map.encode_log(),
        bg: bg_maps.iter().map(FeatureMap::encode_log).collect(),
        spec: spec.to_vec(),
        use_context: est.use_context,
    }
}

/// `m3-nn`: one batched forward pass.
pub fn forward(est: &M3Estimator, scratch: &LayerScratch, inputs: &[ModelInput]) -> Vec<Vec<f32>> {
    est.net.predict_batch_pooled(inputs, &scratch.arenas)
}

/// Transformer tokens of one input: the foreground row plus one per hop of
/// background context the model attends over.
pub fn tokens(est: &M3Estimator, input: &ModelInput) -> u64 {
    1 + input.bg.len().min(est.net.cfg.block) as u64
}

/// Dense floating-point operations of one forward pass over `inputs`,
/// computed from `ModelConfig` (2 per multiply-add; the zero-skip in the
/// kernels is ignored), in millions.
pub fn forward_mflop(est: &M3Estimator, inputs: &[ModelInput]) -> f64 {
    let c = &est.net.cfg;
    let (e, f, m) = (c.embed as f64, c.ff_hidden as f64, c.mlp_hidden as f64);
    let head = 2.0 * (c.feat_dim as f64 + e + c.spec_dim as f64) * m + 2.0 * m * c.out_dim as f64;
    inputs
        .iter()
        .map(|s| {
            let l = s.bg.len().min(c.block) as f64;
            let context = if est.use_context && l > 0.0 {
                let per_layer = 8.0 * l * e * e + 4.0 * l * l * e + 6.0 * l * e * f;
                2.0 * l * c.feat_dim as f64 * e + c.layers as f64 * per_layer
            } else {
                0.0
            };
            context + head
        })
        // `fold`, not `sum`: an empty `sum` is -0.0.
        .fold(0.0, |a, b| a + b)
        / 1e6
}

/// `m3-core::aggregate`: decode one model output into a path distribution.
/// `fg_counts` is private to the pipeline, so it is rebuilt from
/// `output_bucket` over the foreground flows.
pub fn to_distribution(out: &[f32], data: &PathData) -> Distribution {
    let mut counts = [0usize; NUM_OUTPUT_BUCKETS];
    for f in &data.fg {
        counts[output_bucket(f.size)] += 1;
    }
    PathDistribution::from_model_output(&m3_core::features::decode_log(out), counts)
}

pub fn aggregate(dists: &[Distribution]) -> NetworkEstimate {
    NetworkEstimate::aggregate(dists)
}

/// `m3-core::cache`: the key half the model contributes, a probe that
/// integrity-checks a hit as the pipeline does, and an insert.
pub fn model_fingerprint(est: &M3Estimator) -> u64 {
    est.net.fingerprint()
}

pub fn cache_probe(cache: &mut ScenarioCache, key: u64, model: u64) -> Option<Distribution> {
    cache.get(key, model).filter(PathDistribution::is_sane)
}

pub fn cache_insert(cache: &mut ScenarioCache, key: u64, model: u64, dist: Distribution) {
    cache.insert(key, model, dist);
}

/// Lookups answered, lookups missed and entries evicted so far.
pub fn cache_counts(cache: &ScenarioCache) -> (u64, u64, u64) {
    (cache.hits(), cache.misses(), cache.evictions())
}

// ---------------------------------------------------------------------------
// Sessions, journal, service.
// ---------------------------------------------------------------------------

/// A session driven directly, without a service or a journal.
pub struct DirectSession(ScenarioSession);

/// What one session update reports.
pub struct Update {
    pub estimate: NetworkEstimate,
    pub dirty_frac: f64,
}

fn to_update(u: m3_core::prelude::SessionUpdate) -> Result<Update, String> {
    let dirty_frac = u.dirty_paths as f64 / u.total_paths.max(1) as f64;
    clean(u.estimate).map(|estimate| Update {
        estimate,
        dirty_frac,
    })
}

impl DirectSession {
    pub fn open(
        est: &M3Estimator,
        f: &Fabric,
        k: usize,
        seed: u64,
        cache_capacity: usize,
    ) -> Result<DirectSession, String> {
        ScenarioSession::open(
            est,
            f.topo.clone(),
            f.flows.clone(),
            f.config,
            k,
            seed,
            SharedScenarioCache::new(cache_capacity),
            EstimateOptions::default(),
        )
        .map(|(s, _)| DirectSession(s))
        .map_err(err)
    }

    pub fn apply(&mut self, est: &M3Estimator, delta: &ScenarioDelta) -> Result<Update, String> {
        self.0
            .apply_delta(est, delta)
            .map_err(err)
            .and_then(to_update)
    }
}

/// The three delta kinds of `session_deltas`.
pub fn link_capacity(link: u32, bandwidth: u64) -> ScenarioDelta {
    ScenarioDelta::LinkCapacity { link, bandwidth }
}

pub fn traffic_shift(src: u32, num: u32, den: u32) -> ScenarioDelta {
    ScenarioDelta::TrafficShift {
        src: Some(src),
        dst: None,
        num,
        den,
    }
}

pub fn init_window(bytes: u64) -> ScenarioDelta {
    ScenarioDelta::CcKnob {
        knob: Knob::InitWindow,
        value: bytes as f64,
    }
}

pub fn link_bandwidth(f: &Fabric, link: u32) -> u64 {
    f.topo.link(m3_netsim::prelude::LinkId(link)).bandwidth
}

pub fn flow_src(f: &Fabric, flow: usize) -> u32 {
    f.flows[flow].src.index() as u32
}

pub fn flow_links(f: &Fabric, flow: usize) -> Vec<u32> {
    f.flows[flow]
        .path
        .iter()
        .map(|l| l.index() as u32)
        .collect()
}

pub fn group_rep(index: &Index, group: usize) -> usize {
    index.groups[group].rep as usize
}

pub fn dirty_groups(index: &Index, f: &Fabric, delta: &ScenarioDelta) -> Vec<usize> {
    index.dirty_groups(&f.flows, delta)
}

/// Fold a delta stream into a scenario the way a session does, for the
/// from-scratch check of the final state.
pub fn fold_deltas(f: &Fabric, deltas: &[ScenarioDelta]) -> Result<Fabric, String> {
    let mut state = ScenarioState::new(f.topo.clone(), f.flows.clone(), f.config);
    for d in deltas {
        state.apply(d).map_err(err)?;
    }
    Ok(Fabric {
        flows: state.effective_flows(),
        topo: state.topo,
        config: state.config,
    })
}

/// `m3-serve::journal`, driven directly.
pub struct DirectJournal(Journal);

impl DirectJournal {
    pub fn create(path: &Path) -> Result<DirectJournal, String> {
        Journal::create(path)
            .map(DirectJournal)
            .map_err(|e| e.to_string())
    }

    fn append(&mut self, record: &JournalRecord) -> Result<(), String> {
        self.0.append(record).map_err(|e| e.to_string())
    }

    /// The record `Service::apply_delta` writes ahead of an update.
    pub fn append_delta(&mut self, id: u64, seq: u64, delta: &ScenarioDelta) -> Result<(), String> {
        self.append(&JournalRecord::SessionDelta {
            id,
            seq,
            delta: *delta,
        })
    }

    /// The record `Service::submit` writes.
    pub fn append_accepted(&mut self, id: u64, request: &EstimateRequest) -> Result<(), String> {
        self.append(&JournalRecord::Accepted {
            id,
            request: Box::new(request.clone()),
            trace: None,
        })
    }

    /// The record a worker writes when a job settles.
    pub fn append_terminal(&mut self, id: u64, estimate: &NetworkEstimate) -> Result<(), String> {
        self.append(&JournalRecord::Terminal {
            id,
            outcome: Box::new(JobOutcome::Completed {
                estimate: estimate.clone(),
                attempts: 1,
            }),
        })
    }
}

/// A journaled service with the default configuration: 2 workers, a
/// 256-entry scenario cache, no simulated I/O.
pub fn start_service(journal: &Path) -> Result<Service, String> {
    let config = ServiceConfig::default();
    assert!(config.simulated_io.is_zero() && config.workers == SERVICE_WORKERS);
    Service::start_journaled(build_estimator(), config, journal).map_err(|e| e.to_string())
}

pub const SERVICE_WORKERS: usize = 2;

pub fn service_cache_capacity() -> usize {
    ServiceConfig::default().cache_capacity
}

pub fn request(spec: &ScenarioSpec, k: usize, seed: u64) -> EstimateRequest {
    EstimateRequest::new(spec.clone(), k, seed)
}

pub fn submit(service: &Service, request: EstimateRequest) -> Result<u64, String> {
    service.submit(request).map_err(|e| e.to_string())
}

/// The settled estimate of job `id`: `None` while it is in flight, `Err` if
/// it settled as anything but `Completed`.
pub fn poll(service: &Service, id: u64) -> Option<Result<NetworkEstimate, String>> {
    service.outcome(id).map(|o| match o {
        JobOutcome::Completed { estimate, .. } => Ok(estimate),
        JobOutcome::Degraded { .. } => Err("degraded".into()),
        JobOutcome::Failed { error, .. } => Err(format!("failed: {error}")),
        JobOutcome::Shed { reason } => Err(format!("shed: {reason}")),
    })
}

pub fn open_session(
    service: &Service,
    spec: &ScenarioSpec,
    k: usize,
    seed: u64,
) -> Result<u64, String> {
    service
        .open_session(OpenSessionRequest::new(spec.clone(), k, seed))
        .map(|(id, _)| id)
        .map_err(|e| e.to_string())
}

pub fn apply_delta(service: &Service, id: u64, delta: &ScenarioDelta) -> Result<Update, String> {
    service
        .apply_delta(id, delta)
        .map_err(|e| e.to_string())
        .and_then(to_update)
}

pub fn session_estimate(service: &Service, id: u64) -> Option<NetworkEstimate> {
    service.session_estimate(id)
}

/// Hit rate and evictions of the service's shared scenario cache.
pub fn service_cache_stats(service: &Service) -> (f64, u64) {
    let c = service.stats().cache;
    (c.hit_rate(), c.evictions)
}
