//! End-to-end estimators over a full-network workload:
//!
//! * [`M3Estimator`] — the complete m3 pipeline: decompose, sample k paths,
//!   flowSim features, ML correction, aggregate (Fig. 4).
//! * [`flowsim_estimate`] — the no-ML ablation: flowSim's foreground
//!   slowdowns aggregated directly.
//! * [`ns3_path_estimate`] — per-path *packet-level* simulation (the paper's
//!   "ns-3-path" upper bound, §2.1).
//! * [`ground_truth_estimate`] — the exact network-wide distribution from a
//!   full packet-level simulation.

use crate::aggregate::{
    DegradationEvent, DegradationReport, NetworkEstimate, PathDistribution, StageTimings,
    NUM_OUTPUT_BUCKETS,
};
use crate::cache::{scenario_fingerprint, KeyHasher, ScenarioCache, SharedScenarioCache};
use crate::decompose::PathIndex;
use crate::error::{validate_workload, FaultKind, M3Error, SpecValidation, Stage};
use crate::faultinject::InjectedFault;
use crate::features::output_bucket;
use crate::metrics::PipelineMetrics;
use crate::pathsim::{FlowAttrs, FlowsimResult, PathFlow, PathScenarioData};
use crate::spec::spec_vector;
use m3_flowsim::prelude::{
    try_simulate_staged, FluidBudget, FluidError, FluidFlow, FluidProbe, FluidProbeSink,
    FluidRunStats, FluidWorkspace,
};
use m3_flowsim::types::FluidFctRecord;
use m3_netsim::prelude::*;
use m3_nn::prelude::*;
use m3_telemetry::trace::{TraceCtx, TraceSpan};
use m3_telemetry::MetricsRegistry;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Output-bucket counts of a foreground flow set.
fn fg_counts(data: &PathScenarioData) -> [usize; NUM_OUTPUT_BUCKETS] {
    let mut counts = [0usize; NUM_OUTPUT_BUCKETS];
    for f in &data.fg {
        counts[output_bucket(f.size)] += 1;
    }
    counts
}

/// What the estimator does when a pipeline stage faults on a path sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DegradationPolicy {
    /// The first fault aborts the whole estimate with a typed [`M3Error`].
    FailFast,
    /// Absorb per-sample faults: a forward-stage fault falls back to the
    /// sample's uncorrected flowSim distribution, a flowSim-stage fault
    /// drops the sample (there is nothing to fall back on). Every fallback
    /// is recorded in the estimate's [`DegradationReport`]. If more than
    /// `max_degraded_frac` of the samples lose the full m3 treatment, the
    /// estimate aborts with [`M3Error::DegradationLimitExceeded`].
    Degrade { max_degraded_frac: f64 },
}

impl Default for DegradationPolicy {
    /// Absorb isolated faults, but refuse to answer when more than a
    /// quarter of the samples degraded.
    fn default() -> Self {
        DegradationPolicy::Degrade {
            max_degraded_frac: 0.25,
        }
    }
}

/// A contiguous slice `[start, end)` of the k sampled paths to process —
/// the unit of scatter when a cluster coordinator splits one large
/// scenario's independent path sub-work across shards. Path sampling is a
/// pure function of `(workload, k_paths, seed)` and each path's
/// distribution is independent of which other paths share the batch
/// (batched forward is bit-exact versus per-sample), so concatenating the
/// per-slice aggregates and re-sorting reproduces the unsliced estimate
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSlice {
    /// First sampled-path index (inclusive).
    pub start: usize,
    /// Last sampled-path index (exclusive). Clamped to the number of
    /// sampled paths, so a chunking caller need not know the exact count.
    pub end: usize,
}

impl PathSlice {
    /// Split `total` paths into contiguous chunks of at most `chunk`.
    pub fn chunks(total: usize, chunk: usize) -> Vec<PathSlice> {
        if chunk == 0 || total == 0 {
            return vec![PathSlice {
                start: 0,
                end: total,
            }];
        }
        (0..total)
            .step_by(chunk)
            .map(|start| PathSlice {
                start,
                end: (start + chunk).min(total),
            })
            .collect()
    }
}

/// Per-stage resource ceilings for one estimate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBudget {
    /// Budget for each per-path flowSim run. The default (100 M events, no
    /// wall-clock limit) is orders of magnitude above any real path
    /// scenario, so fault-free runs never trip it.
    pub flowsim: FluidBudget,
}

/// Knobs of the fallible estimate entry points. `Default` reproduces the
/// classic pipeline bit for bit on fault-free inputs.
#[derive(Debug, Clone, Default)]
pub struct EstimateOptions {
    pub policy: DegradationPolicy,
    pub budget: StageBudget,
    /// Deterministic fault injection for robustness tests and benches;
    /// `None` (the default) injects nothing and adds no overhead.
    pub fault_plan: Option<crate::faultinject::FaultPlan>,
    /// Process only this contiguous slice of the k sampled paths. `None`
    /// (the default) processes all of them. Sampling always covers the
    /// full k so the slice indexes a stable sequence; only
    /// materialization, flowSim, the forward pass, and the aggregate are
    /// restricted to the slice.
    pub path_slice: Option<PathSlice>,
    /// Long-lived telemetry registry to accumulate this call's metrics
    /// into (counters and stage timers under the `pipeline.`/`flowsim.`
    /// prefixes). The pipeline records into a private per-call registry
    /// either way — that is what populates `NetworkEstimate::timings` —
    /// and absorbs the call's snapshot into this one on success, so
    /// concurrent estimates never contend on shared atomics mid-flight.
    /// `None` (or a [`MetricsRegistry::noop`]) adds no observable cost.
    pub metrics: Option<MetricsRegistry>,
    /// Causal-tracing context. When backed by an enabled
    /// [`TraceRecorder`](m3_telemetry::trace::TraceRecorder), the pipeline
    /// records a span tree (root `estimate`, one child per stage, one
    /// per-slot flowSim span) with cache/degradation/fault instants and
    /// per-link flowSim utilization counter tracks sampled over virtual
    /// time at [`TraceCtx::stride_ns`]. The default (noop) context costs
    /// one branch per instrumentation site and never perturbs results.
    pub trace: TraceCtx,
}

/// Forwards fluid-probe samples onto a slot's tracing span as counter
/// tracks: per-hop utilization (`flowsim.util.h{n}`) and the active-flow
/// count (`flowsim.active_flows`).
struct SlotProbeSink<'a> {
    span: &'a TraceSpan,
    util_tracks: Vec<Arc<str>>,
    active_track: Arc<str>,
}

impl SlotProbeSink<'_> {
    fn new(span: &TraceSpan, hops: usize) -> SlotProbeSink<'_> {
        SlotProbeSink {
            span,
            util_tracks: (0..hops)
                .map(|h| Arc::from(format!("flowsim.util.h{h}")))
                .collect(),
            active_track: Arc::from("flowsim.active_flows"),
        }
    }
}

impl FluidProbeSink for SlotProbeSink<'_> {
    fn on_link(&self, vts_ns: u64, link: u16, utilization: f64) {
        if let Some(track) = self.util_tracks.get(link as usize) {
            self.span.counter(track, vts_ns, utilization);
        }
    }

    fn on_active_flows(&self, vts_ns: u64, active: u64) {
        self.span.counter(&self.active_track, vts_ns, active as f64);
    }
}

/// Classify a fluid-simulator error for degradation accounting.
fn fluid_fault_kind(e: &FluidError) -> FaultKind {
    match e {
        FluidError::InvalidInput { .. } => FaultKind::InvalidInput,
        FluidError::NonFiniteEventTime { .. } | FluidError::Stalled { .. } => FaultKind::NonFinite,
        FluidError::EventBudgetExceeded { .. } | FluidError::WallClockExceeded { .. } => {
            FaultKind::BudgetExceeded
        }
    }
}

/// Best-effort string form of a caught panic payload.
fn panic_detail(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// How an estimate call reaches its scenario cache: not at all, through an
/// exclusive borrow, or through a thread-safe shared handle. The shared
/// variant locks only around the probe and insert phases, so concurrent
/// estimates (e.g. service workers) overlap everywhere else.
pub(crate) enum CacheRef<'a> {
    None,
    Excl(&'a mut ScenarioCache),
    Shared(&'a SharedScenarioCache),
}

impl CacheRef<'_> {
    fn present(&self) -> bool {
        !matches!(self, CacheRef::None)
    }

    /// Run `f` against the cache (locking the shared variant for the
    /// duration of `f` only). `None` when no cache is attached.
    fn with<R>(&mut self, f: impl FnOnce(&mut ScenarioCache) -> R) -> Option<R> {
        match self {
            CacheRef::None => None,
            CacheRef::Excl(c) => Some(f(c)),
            CacheRef::Shared(h) => Some(f(&mut h.lock())),
        }
    }
}

/// The per-path work units of one estimate: the distinct sampled path
/// groups, each keyed by content hash (the words of
/// [`scenario_fingerprint`], streamed from the index) and deduplicated into
/// unique slots in first-occurrence order. A unit keeps its background as
/// the merge listed it, so a slot the cache misses is materialized
/// ([`WorkUnits::materialize`]) without a second merge, and a slot it hits
/// never is. This is also the unit the incremental session layer
/// ([`crate::session`]) schedules: a work unit whose key matches a retained
/// result needs no recomputation at all.
///
/// The table owns no input: a [`WorkUnits`] view pairs it with the
/// topology, flows, index and config it was keyed from, so one table can be
/// kept (in a [`PreparedEstimate`]) and resolved any number of times.
pub(crate) struct UnitTable {
    use_context: bool,
    /// The flows the units touch ([`PathIndex::touched_flows`]), 64 to a
    /// word: a touched flow's entry in `attrs` is its rank among them.
    touched: Vec<TouchedWord>,
    /// Each touched flow's path-independent attributes and [`flow_digest`]
    /// (`FlowAttrs::digest`), ascending in flow index: computed once per
    /// table however many sampled paths the flow is background of.
    ///
    /// [`flow_digest`]: crate::cache::flow_digest
    attrs: Vec<(FlowAttrs, u64)>,
    /// One unit per distinct sampled group, ascending in group index.
    units: Vec<WorkUnit>,
    /// slot -> the unit of the first sampled path with that content key.
    uniq: Vec<usize>,
    /// sampled index -> unique slot.
    pub(crate) slot_of: Vec<usize>,
    /// slot -> number of sampled paths deduplicated into it.
    pub(crate) multiplicity: Vec<usize>,
}

/// 64 flows of a [`UnitTable`]'s touched set: flow `64 * w + b` is touched
/// when bit `b` of word `w` is set, and `before` counts the touched flows
/// of the words below.
struct TouchedWord {
    bits: u64,
    before: u32,
}

/// A [`UnitTable`] together with the inputs it was keyed from.
pub(crate) struct WorkUnits<'a> {
    topo: &'a Topology,
    flows: &'a [FlowSpec],
    index: &'a PathIndex,
    config: &'a SimConfig,
    pub(crate) table: &'a UnitTable,
}

/// One distinct sampled group with its spec vector and content key.
pub(crate) struct WorkUnit {
    group: usize,
    /// The group's background as `(flow, first_hop, last_hop)`, ascending
    /// in flow index: 12 bytes per flow, against a 64-byte `PathFlow`.
    bg: Vec<(u32, u32, u32)>,
    pub(crate) spec: Vec<f32>,
    pub(crate) key: u64,
}

impl UnitTable {
    /// Key the work units of `groups` (group indices into `index`), in
    /// order, and deduplicate them into unique slots. Pure and
    /// deterministic; parallel over the distinct groups.
    pub(crate) fn key(
        topo: &Topology,
        flows: &[FlowSpec],
        index: &PathIndex,
        groups: &[usize],
        config: &SimConfig,
        use_context: bool,
    ) -> Self {
        // Sampling is with replacement, so each distinct group is keyed
        // once.
        let mut distinct = groups.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        // Every flow the units hash or materialize is foreground or
        // background of one of them: cost each once, in flow order.
        let bits = index.touched_flows(&distinct);
        let mut touched = Vec::with_capacity(bits.len());
        let mut attrs = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in bits.iter().enumerate() {
            touched.push(TouchedWord {
                bits: word,
                before: attrs.len() as u32,
            });
            let mut rest = word;
            while rest != 0 {
                let f = &flows[w * 64 + rest.trailing_zeros() as usize];
                rest &= rest - 1;
                let a = FlowAttrs::of(topo, f, config);
                attrs.push((a, a.digest(f)));
            }
        }
        let mut t = UnitTable {
            use_context,
            touched,
            attrs,
            units: Vec::new(),
            uniq: Vec::new(),
            slot_of: Vec::with_capacity(groups.len()),
            multiplicity: Vec::new(),
        };
        t.units = {
            let u = t.view(topo, flows, index, config);
            distinct.par_iter().map(|&g| u.key_unit(g)).collect()
        };
        // Dedupe by content hash: sampling with replacement and symmetric
        // topologies both produce repeated scenarios, which need only one
        // flowSim run and one forward-pass row each. `slot_of[i]` maps
        // sampled path i to its unique-scenario slot (first-occurrence
        // order, so everything downstream stays deterministic).
        let mut slot_by_key: HashMap<u64, usize> = HashMap::new();
        for g in groups {
            let Ok(unit) = distinct.binary_search(g) else {
                unreachable!("`distinct` holds every sampled group")
            };
            let slot = *slot_by_key.entry(t.units[unit].key).or_insert_with(|| {
                t.uniq.push(unit);
                t.uniq.len() - 1
            });
            t.slot_of.push(slot);
        }
        // Sampled paths represented by each unique slot (degradation of a
        // slot affects this many of the k samples).
        t.multiplicity = vec![0usize; t.uniq.len()];
        for &s in &t.slot_of {
            t.multiplicity[s] += 1;
        }
        t
    }

    /// This table over the inputs it was keyed from.
    pub(crate) fn view<'a>(
        &'a self,
        topo: &'a Topology,
        flows: &'a [FlowSpec],
        index: &'a PathIndex,
        config: &'a SimConfig,
    ) -> WorkUnits<'a> {
        WorkUnits {
            topo,
            flows,
            index,
            config,
            table: self,
        }
    }

    /// Number of sampled paths.
    pub(crate) fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// Number of unique slots.
    pub(crate) fn slots(&self) -> usize {
        self.uniq.len()
    }

    /// The unit a unique slot stands for.
    pub(crate) fn slot(&self, slot: usize) -> &WorkUnit {
        &self.units[self.uniq[slot]]
    }

    /// Content key per sampled path.
    pub(crate) fn keys(&self) -> Vec<u64> {
        self.slot_of.iter().map(|&s| self.slot(s).key).collect()
    }
}

impl<'a> WorkUnits<'a> {
    /// Touched flow `fi`'s attributes and digest.
    fn attrs(&self, fi: u32) -> &'a (FlowAttrs, u64) {
        let word = &self.table.touched[fi as usize / 64];
        let bit = 1u64 << (fi % 64);
        debug_assert!(word.bits & bit != 0, "flow {fi} is not touched by a unit");
        &self.table.attrs[word.before as usize + (word.bits & (bit - 1)).count_ones() as usize]
    }

    /// Group `g`'s unit: one background merge, whose list the unit keeps,
    /// and the words [`scenario_fingerprint`] hashes, in its order, from
    /// the topology, the index and the flow digests.
    fn key_unit(&self, g: usize) -> WorkUnit {
        let (topo, config) = (self.topo, self.config);
        let path = &self.index.rep_flow(g, self.flows).path;
        let last = path.len() - 1;
        let mut h = KeyHasher::new();
        h.write(path.len() as u64);
        for &l in path {
            h.write(topo.link(l).bandwidth);
        }
        for &l in path {
            h.write(topo.link(l).delay);
        }
        let fg = self.index.foreground_of(g);
        h.write(fg.len() as u64);
        for &fi in fg {
            h.write_flow(self.attrs(fi).1, 0, last);
        }
        let mut bg = Vec::new();
        (self.index).for_each_background(g, |fi, first, last| {
            bg.push((fi, first as u32, last as u32));
        });
        h.write(bg.len() as u64);
        for &(fi, first, last) in &bg {
            h.write_flow(self.attrs(fi).1, first as usize, last as usize);
        }
        let base_rtt = crate::spec::path_base_rtt(topo, path, config);
        let bottleneck = topo.bottleneck_bandwidth(path);
        let spec = spec_vector(config, base_rtt, bottleneck);
        let key = h.finish_scenario(base_rtt, bottleneck, &spec, self.table.use_context);
        WorkUnit {
            group: g,
            bg,
            spec,
            key,
        }
    }

    /// A unique slot's [`PathScenarioData`], built from its unit's kept
    /// background list: what `PathScenarioData::from_group` builds, without
    /// merging the background again. Only the slots the cache misses are
    /// materialized.
    pub(crate) fn materialize(&self, slot: usize) -> PathScenarioData {
        let unit = self.table.slot(slot);
        let attrs_of = |fi: u32| self.attrs(fi).0;
        let mut data = PathScenarioData::without_background(
            self.topo,
            self.flows,
            self.index,
            unit.group,
            self.config,
            attrs_of,
        );
        data.bg = (unit.bg.iter())
            .map(|&(fi, first, last)| {
                let f = &self.flows[fi as usize];
                PathFlow::on_path(fi, f, first as usize, last as usize, attrs_of(fi))
            })
            .collect();
        debug_assert_eq!(
            scenario_fingerprint(&data, &unit.spec, self.table.use_context),
            unit.key,
            "slot {slot}: the materialized scenario does not hash to its streamed key"
        );
        data
    }
}

/// Per-path results of one info-collecting estimate, aligned with the
/// (post-slice) sampled path sequence. The session layer retains these —
/// keyed results merge with future updates; `clean` marks results that got
/// the full m3 treatment (cache hit or fresh fully-corrected prediction)
/// and are therefore safe to retain and pin.
pub(crate) struct RunInfo {
    /// The decomposition index the estimate was computed over.
    pub(crate) index: PathIndex,
    /// Sampled group indices (after any `path_slice` restriction).
    pub(crate) sampled: Vec<usize>,
    /// Content key per sampled path.
    pub(crate) keys: Vec<u64>,
    /// Distribution per sampled path (`None` = dropped by degradation).
    pub(crate) dists: Vec<Option<PathDistribution>>,
    /// Whether the sampled path's result is retainable (not a degraded
    /// fallback, not dropped).
    pub(crate) clean: Vec<bool>,
    /// Model fingerprint the cache keys were computed under (None when no
    /// cache was attached).
    pub(crate) model_fp: Option<u64>,
}

/// The prepare half of an estimate, kept: its inputs, their decomposition
/// index and the keyed work units of its sampled paths. Everything here is
/// a pure function of `(inputs, k_paths, seed, path_slice, use_context)`,
/// so one value answers every repeat of that query through
/// [`M3Estimator::try_estimate_prepared`], which only probes the cache,
/// runs what missed and aggregates. It owns its inputs, so it cannot be
/// resolved against the wrong topology.
pub struct PreparedEstimate {
    topo: Topology,
    flows: Vec<FlowSpec>,
    config: SimConfig,
    index: PathIndex,
    path_slice: Option<PathSlice>,
    table: UnitTable,
}

impl PreparedEstimate {
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn units(&self) -> WorkUnits<'_> {
        (self.table).view(&self.topo, &self.flows, &self.index, &self.config)
    }
}

/// The prepare half's stages: validate every input, build the index, sample
/// `k_paths` paths, cut `path_slice` out of them and key the work units.
/// Returns the index, the (sliced) sampled groups and the unit table.
#[allow(clippy::too_many_arguments)]
fn prepare_stages(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    k_paths: usize,
    seed: u64,
    path_slice: Option<PathSlice>,
    use_context: bool,
    troot: &TraceSpan,
    m: &PipelineMetrics,
) -> Result<(PathIndex, Vec<usize>, UnitTable), M3Error> {
    // Stage 0: validate every input before spending any work.
    config.validate_spec()?;
    validate_workload(topo, flows)?;
    if k_paths == 0 {
        return Err(M3Error::InvalidSpec {
            stage: Stage::Validate,
            reason: "k_paths must be at least 1".into(),
        });
    }

    // Stage 1: decompose, sample, key work units in parallel.
    let span = m.decompose.span();
    let tspan = troot.child("decompose");
    let index = PathIndex::build(topo, flows);
    tspan.finish();
    let tspan = troot.child("sample");
    let sampled = index.sample_paths(k_paths, seed);
    if sampled.is_empty() {
        return Err(M3Error::InvalidSpec {
            stage: Stage::Decompose,
            reason: "workload has no populated paths to sample".into(),
        });
    }
    // Scatter support: restrict to the requested slice of the sampled
    // sequence. The sample itself is always drawn over the full k, so
    // slice indices mean the same thing on every shard.
    let sampled = match path_slice {
        None => sampled,
        Some(sl) => {
            if sl.start >= sl.end || sl.start >= sampled.len() {
                return Err(M3Error::InvalidSpec {
                    stage: Stage::Decompose,
                    reason: format!(
                        "path slice [{}, {}) is empty or out of range (sampled {})",
                        sl.start,
                        sl.end,
                        sampled.len()
                    ),
                });
            }
            sampled[sl.start..sl.end.min(sampled.len())].to_vec()
        }
    };
    let table = UnitTable::key(topo, flows, &index, &sampled, config, use_context);
    tspan.finish();
    span.finish();
    Ok((index, sampled, table))
}

/// What [`M3Estimator::resolve_slots`] returns: per-slot distributions
/// (`None` = dropped), per-slot `clean` flags, and the model fingerprint
/// the cache was keyed under (`None` without a cache).
pub(crate) type SlotResults = (Vec<Option<PathDistribution>>, Vec<bool>, Option<u64>);

/// Enforce a [`DegradationPolicy::Degrade`] ceiling over a report. Shared
/// by the batch pipeline and the incremental session updates.
pub(crate) fn enforce_degradation_ceiling(
    policy: DegradationPolicy,
    report: &DegradationReport,
) -> Result<(), M3Error> {
    let affected = report.degraded_samples + report.dropped_samples;
    if let DegradationPolicy::Degrade { max_degraded_frac } = policy {
        if affected > 0 && affected as f64 / report.total_samples as f64 > max_degraded_frac {
            return Err(M3Error::DegradationLimitExceeded {
                degraded: affected,
                total: report.total_samples,
                max_frac: max_degraded_frac,
            });
        }
    }
    Ok(())
}

/// The m3 estimator: a trained network plus inference options.
pub struct M3Estimator {
    pub net: M3Net,
    /// When false, zero the background context ("m3 w/o context", Fig. 16).
    pub use_context: bool,
    /// Warm fluid-engine workspaces (one per concurrent flowSim slot):
    /// repeated estimates reuse the engine's internal collections instead
    /// of reallocating them per scenario. Lost entries (slot panic while a
    /// workspace is checked out) are replaced lazily by `Default`.
    fluid_scratch: Mutex<Vec<(FluidWorkspace, Vec<FluidFctRecord>)>>,
    /// Warm tensor arenas for the batched forward pass; see
    /// [`m3_nn::arena::ArenaPool`].
    arena_pool: ArenaPool,
}

impl M3Estimator {
    pub fn new(net: M3Net) -> Self {
        M3Estimator {
            net,
            use_context: true,
            fluid_scratch: Mutex::new(Vec::new()),
            arena_pool: ArenaPool::new(),
        }
    }

    /// Predict one already-materialized path scenario.
    pub fn predict_path(&self, data: &PathScenarioData, config: &SimConfig) -> PathDistribution {
        let sim = data.run_flowsim();
        let (fg_map, bg_maps) = data.features(&sim);
        let spec = spec_vector(config, data.fg_base_rtt, data.fg_bottleneck);
        let sample = SampleInput {
            fg: fg_map.encode_log(),
            bg: bg_maps.iter().map(|m| m.encode_log()).collect(),
            spec,
            use_context: self.use_context,
        };
        let out = self.net.predict(&sample);
        let decoded = crate::features::decode_log(&out);
        PathDistribution::from_model_output(&decoded, fg_counts(data))
    }

    /// Full pipeline: decompose the workload, sample `k_paths` paths, run
    /// flowSim on the deduplicated scenarios in parallel, answer them all
    /// with one batched forward pass, aggregate. Panics on any
    /// [`M3Error`]; use [`try_estimate`](Self::try_estimate) to handle
    /// faults as values.
    pub fn estimate(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
    ) -> NetworkEstimate {
        match self.try_estimate(
            topo,
            flows,
            config,
            k_paths,
            seed,
            &EstimateOptions::default(),
        ) {
            Ok(e) => e,
            Err(e) => panic!("estimate failed: {e}"),
        }
    }

    /// [`estimate`](Self::estimate) backed by a cross-run [`ScenarioCache`]:
    /// scenarios whose (content, spec, model) fingerprints were answered in
    /// an earlier call skip both flowSim and the network. The result is
    /// bit-identical to an uncached run — only `timings` differ.
    pub fn estimate_with_cache(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        cache: &mut ScenarioCache,
    ) -> NetworkEstimate {
        match self.try_estimate_with_cache(
            topo,
            flows,
            config,
            k_paths,
            seed,
            cache,
            &EstimateOptions::default(),
        ) {
            Ok(e) => e,
            Err(e) => panic!("estimate failed: {e}"),
        }
    }

    /// Fallible estimate: validates the inputs up front, meters every
    /// flowSim run against `options.budget`, isolates per-sample panics,
    /// and — under a [`DegradationPolicy::Degrade`] policy — absorbs
    /// per-sample faults into the estimate's [`DegradationReport`] instead
    /// of failing. With default options and fault-free inputs the result
    /// is bit-identical to [`estimate`](Self::estimate).
    pub fn try_estimate(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        options: &EstimateOptions,
    ) -> Result<NetworkEstimate, M3Error> {
        self.estimate_inner(
            topo,
            flows,
            config,
            k_paths,
            seed,
            CacheRef::None,
            options,
            false,
        )
        .map(|(e, _)| e)
    }

    /// [`try_estimate`](Self::try_estimate) backed by a [`ScenarioCache`].
    /// Cached entries are integrity-checked before use: a corrupt entry is
    /// evicted and recomputed (recorded in the report, zero samples
    /// affected), never aggregated. Degraded fallback distributions are
    /// never inserted into the cache.
    #[allow(clippy::too_many_arguments)]
    pub fn try_estimate_with_cache(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        cache: &mut ScenarioCache,
        options: &EstimateOptions,
    ) -> Result<NetworkEstimate, M3Error> {
        self.estimate_inner(
            topo,
            flows,
            config,
            k_paths,
            seed,
            CacheRef::Excl(cache),
            options,
            false,
        )
        .map(|(e, _)| e)
    }

    /// [`try_estimate_with_cache`](Self::try_estimate_with_cache) against a
    /// thread-safe [`SharedScenarioCache`]: the cache lock is held only for
    /// the probe and insert phases, so concurrent estimates (e.g. the
    /// workers of an estimation service) share warm entries without
    /// serializing their flowSim or forward-pass work. Results are
    /// bit-identical to the exclusive-cache path.
    #[allow(clippy::too_many_arguments)]
    pub fn try_estimate_with_shared_cache(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        cache: &SharedScenarioCache,
        options: &EstimateOptions,
    ) -> Result<NetworkEstimate, M3Error> {
        self.estimate_inner(
            topo,
            flows,
            config,
            k_paths,
            seed,
            CacheRef::Shared(cache),
            options,
            false,
        )
        .map(|(e, _)| e)
    }

    /// [`try_estimate_with_shared_cache`](Self::try_estimate_with_shared_cache)
    /// that also returns the per-path [`RunInfo`] an incremental session
    /// retains (content keys, distributions, clean flags, model
    /// fingerprint). The estimate itself is bit-identical to the plain
    /// entry point.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn estimate_with_info(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        cache: &SharedScenarioCache,
        options: &EstimateOptions,
    ) -> Result<(NetworkEstimate, RunInfo), M3Error> {
        let (est, info) = self.estimate_inner(
            topo,
            flows,
            config,
            k_paths,
            seed,
            CacheRef::Shared(cache),
            options,
            true,
        )?;
        let Some(info) = info else {
            unreachable!("estimate_inner collects info when asked to")
        };
        Ok((est, info))
    }

    /// One slot's flowSim run, with injected faults applied. Runs inside
    /// `catch_unwind`, so a panic here (injected or real) is isolated to
    /// the slot. Successful runs also return their deterministic budget
    /// consumption for telemetry. When a tracing span is attached, the
    /// fluid engine's per-hop utilization is sampled onto it at
    /// `stride_ns` of virtual time.
    fn run_flowsim_slot(
        &self,
        data: &PathScenarioData,
        slot: usize,
        options: &EstimateOptions,
        span: Option<&TraceSpan>,
        stride_ns: u64,
    ) -> Result<(FlowsimResult, FluidRunStats), (FaultKind, String)> {
        let sink = span.map(|sp| SlotProbeSink::new(sp, data.num_hops()));
        let probe = sink.as_ref().map(|s| FluidProbe::new(stride_ns, s));
        let plan = options.fault_plan.as_ref();
        if plan.is_some_and(|p| p.hits(InjectedFault::FlowsimPanic, slot)) {
            panic!("injected flowSim panic at slot {slot}");
        }
        let budget = if plan.is_some_and(|p| p.hits(InjectedFault::FlowsimBudget, slot)) {
            FluidBudget::events(1)
        } else {
            options.budget.flowsim
        };
        // Check a warm workspace out of the pool (fresh one if the pool is
        // empty or poisoned); a panic mid-run simply loses the checkout.
        let (mut ws, mut raw_records) = match self.fluid_scratch.lock() {
            Ok(mut pool) => pool.pop().unwrap_or_default(),
            Err(_) => Default::default(),
        };
        let staged = data.to_fluid(&mut ws);
        if plan.is_some_and(|p| p.hits(InjectedFault::FlowsimNan, slot)) {
            // Poison one input flow the way a corrupt workload would.
            if let Some(f0) = staged.first_mut() {
                f0.rate_cap_bps = f64::NAN;
            }
        }
        let result = data
            .run_staged(&budget, probe.as_ref(), &mut ws, &mut raw_records)
            .map_err(|e| (fluid_fault_kind(&e), e.to_string()));
        if let Ok(mut pool) = self.fluid_scratch.lock() {
            pool.push((ws, raw_records));
        }
        result
    }

    /// The prepare half of an estimate, kept for repeats: validate the
    /// inputs, build their index, sample `k_paths` paths with `seed`, cut
    /// out `path_slice` and key the work units, exactly as
    /// [`try_estimate`](Self::try_estimate) does before it probes. The
    /// value holds the inputs moved in and this estimator's `use_context`.
    /// Invalid inputs return the same typed error `try_estimate` would.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare(
        &self,
        topo: Topology,
        flows: Vec<FlowSpec>,
        config: SimConfig,
        k_paths: usize,
        seed: u64,
        path_slice: Option<PathSlice>,
    ) -> Result<PreparedEstimate, M3Error> {
        let m = PipelineMetrics::register(&MetricsRegistry::noop());
        let (index, _, table) = prepare_stages(
            &topo,
            &flows,
            &config,
            k_paths,
            seed,
            path_slice,
            self.use_context,
            &TraceCtx::noop().root("prepare"),
            &m,
        )?;
        Ok(PreparedEstimate {
            topo,
            flows,
            config,
            index,
            path_slice,
            table,
        })
    }

    /// The resolve half of an estimate over a [`prepare`](Self::prepare)d
    /// value: probe `cache`, run flowSim and the forward pass on what
    /// missed (materialized from the kept work units), enforce the
    /// degradation ceiling and aggregate. Bit-identical, degradation report
    /// included, to [`try_estimate_with_shared_cache`] of the prepared
    /// inputs; `timings` carry no decompose time. `options.path_slice` and
    /// this estimator's `use_context` must be the prepared ones, else the
    /// call returns [`M3Error::InvalidSpec`].
    ///
    /// [`try_estimate_with_shared_cache`]: Self::try_estimate_with_shared_cache
    pub fn try_estimate_prepared(
        &self,
        prepared: &PreparedEstimate,
        cache: &SharedScenarioCache,
        options: &EstimateOptions,
    ) -> Result<NetworkEstimate, M3Error> {
        let (slice, context) = (prepared.path_slice, prepared.table.use_context);
        if options.path_slice != slice || self.use_context != context {
            return Err(M3Error::InvalidSpec {
                stage: Stage::Validate,
                reason: format!(
                    "path slice {:?} with use_context {} does not match the prepared \
                     {slice:?} with use_context {context}",
                    options.path_slice, self.use_context
                ),
            });
        }
        let call_metrics = MetricsRegistry::new();
        let troot = options.trace.root("estimate");
        let (est, _) = self.resolve_and_aggregate(
            &prepared.units(),
            CacheRef::Shared(cache),
            options,
            &call_metrics,
            &PipelineMetrics::register(&call_metrics),
            troot,
        )?;
        Ok(est)
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate_inner(
        &self,
        topo: &Topology,
        flows: &[FlowSpec],
        config: &SimConfig,
        k_paths: usize,
        seed: u64,
        cache: CacheRef<'_>,
        options: &EstimateOptions,
        collect_info: bool,
    ) -> Result<(NetworkEstimate, Option<RunInfo>), M3Error> {
        // All instrumentation goes through a private per-call registry: it
        // backs the `timings` compatibility view, and its snapshot is
        // absorbed into `options.metrics` (if any) on success. Keeping the
        // hot path on call-local atomics means concurrent estimates never
        // contend on a shared registry.
        let call_metrics = MetricsRegistry::new();
        let m = PipelineMetrics::register(&call_metrics);
        // Causal trace: one root span for the whole call, one child per
        // stage, one per-slot flowSim span. All no-ops when the context is
        // disabled; closed by Drop on every early-return path.
        let troot = options.trace.root("estimate");
        let (index, sampled, table) = prepare_stages(
            topo,
            flows,
            config,
            k_paths,
            seed,
            options.path_slice,
            self.use_context,
            &troot,
            &m,
        )?;
        let (est, (resolved, clean, model_fp)) = self.resolve_and_aggregate(
            &table.view(topo, flows, &index, config),
            cache,
            options,
            &call_metrics,
            &m,
            troot,
        )?;
        let info = collect_info.then(|| RunInfo {
            dists: table.slot_of.iter().map(|&s| resolved[s].clone()).collect(),
            clean: table.slot_of.iter().map(|&s| clean[s]).collect(),
            keys: table.keys(),
            index,
            sampled,
            model_fp,
        });
        Ok((est, info))
    }

    /// The resolve half shared by every entry point: resolve the unique
    /// slots, enforce the degradation ceiling, aggregate the sampled paths'
    /// distributions, and close the call's metrics and root span. Returns
    /// the estimate and [`resolve_slots`](Self::resolve_slots)'s per-slot
    /// results.
    fn resolve_and_aggregate(
        &self,
        u: &WorkUnits<'_>,
        mut cache: CacheRef<'_>,
        options: &EstimateOptions,
        call_metrics: &MetricsRegistry,
        m: &PipelineMetrics,
        troot: TraceSpan,
    ) -> Result<(NetworkEstimate, SlotResults), M3Error> {
        let t = u.table;
        let mut report = DegradationReport {
            total_samples: t.len(),
            ..Default::default()
        };
        m.sampled_paths.add(t.len() as u64);
        m.unique_scenarios.add(t.slots() as u64);

        let (resolved, clean, model_fp) =
            self.resolve_slots(u, &mut cache, options, &troot, m, &mut report)?;

        // Enforce the degradation ceiling before aggregating.
        enforce_degradation_ceiling(options.policy, &report)?;

        // Stage 5: fan the unique distributions back out to the sampled
        // paths (duplicates keep their pooling weight; dropped slots are
        // skipped) and aggregate them where they lie.
        let span = m.aggregate.span();
        let tspan = troot.child("aggregate");
        let dists = t.slot_of.iter().filter_map(|&s| resolved[s].as_ref());
        if dists.clone().next().is_none() {
            return Err(M3Error::NoUsableSamples {
                total: report.total_samples,
            });
        }
        report.events.sort_by_key(|e| e.scenario);
        let mut est = NetworkEstimate::pool(dists);
        tspan.finish();
        span.finish();
        m.degraded_samples.add(report.degraded_samples as u64);
        m.dropped_samples.add(report.dropped_samples as u64);

        // The compatibility view is derived from the call's snapshot; the
        // caller's long-lived registry (if any) absorbs it only on success.
        let snapshot = call_metrics.snapshot();
        est.timings = StageTimings::from_snapshot(&snapshot);
        est.degradation = report;
        if let Some(ext) = &options.metrics {
            ext.absorb(&snapshot);
        }
        troot.finish();
        Ok((est, (resolved, clean, model_fp)))
    }

    /// Resolve every unique work unit to a path distribution: probe the
    /// cache (integrity-checked hits), materialize the misses and run
    /// flowSim + feature maps + one batched forward pass on them, and
    /// insert fully-corrected results back into the cache. Returns
    /// per-slot distributions (`None` = dropped), a per-slot `clean` flag
    /// (cache hit or fresh fully-corrected result — the only things the
    /// cache holds and a session may retain), and the model fingerprint
    /// used for cache keys (`None` when no cache is attached).
    pub(crate) fn resolve_slots(
        &self,
        u: &WorkUnits<'_>,
        cache: &mut CacheRef<'_>,
        options: &EstimateOptions,
        troot: &TraceSpan,
        m: &PipelineMetrics,
        report: &mut DegradationReport,
    ) -> Result<SlotResults, M3Error> {
        let tracing = troot.is_enabled();
        let stride_ns = options.trace.stride_ns();
        let fail_fast = matches!(options.policy, DegradationPolicy::FailFast);
        let t = u.table;
        let multiplicity = &t.multiplicity;

        // Cache probe. The model fingerprint is only computed when a cache
        // is present — it hashes every parameter, which is not free. Hits
        // are integrity-checked: a corrupt entry is evicted and recomputed
        // (exact repair, so it neither counts against the degradation
        // budget nor aborts a fail-fast run).
        let model_fp = cache.present().then(|| self.net.fingerprint());
        let mut resolved: Vec<Option<PathDistribution>> = vec![None; t.slots()];
        let mut clean: Vec<bool> = vec![false; t.slots()];
        if let Some(fp) = model_fp {
            // One lock (shared variant) spans the whole probe loop: the
            // map lookups are cheap next to the flowSim runs a miss costs.
            let events = &mut report.events;
            let clean = &mut clean;
            cache.with(|c| {
                for (slot, cached) in resolved.iter_mut().enumerate() {
                    let key = t.slot(slot).key;
                    match c.get(key, fp) {
                        Some(d) if d.is_sane() => {
                            *cached = Some(d);
                            clean[slot] = true;
                        }
                        Some(_) => {
                            c.remove(key, fp);
                            events.push(DegradationEvent {
                                stage: Stage::Cache,
                                fault: FaultKind::Corruption,
                                scenario: slot,
                                samples_affected: 0,
                                detail: "cached distribution failed integrity check; \
                                         evicted and recomputed"
                                    .into(),
                            });
                        }
                        None => {}
                    }
                }
            });
        }
        m.cache_hits
            .add(resolved.iter().filter(|r| r.is_some()).count() as u64);
        let todo: Vec<usize> = (0..t.slots()).filter(|&s| resolved[s].is_none()).collect();
        if cache.present() {
            m.cache_misses.add(todo.len() as u64);
        }
        if tracing {
            for (slot, r) in resolved.iter().enumerate() {
                if r.is_some() {
                    troot.instant("cache_hit", format!("slot {slot}"));
                }
            }
            for e in report.events.iter() {
                if matches!(e.stage, Stage::Cache) {
                    troot.instant("cache_evict", format!("slot {}: {}", e.scenario, e.detail));
                }
            }
        }

        // Stage 2: materialize the unresolved unique scenarios and flowSim
        // them in parallel, each run isolated (budget + panic barrier).
        // Each slot gets its own trace span on lane `1 + slot` with an
        // explicit child index, so span IDs stay deterministic under rayon
        // scheduling.
        let span = m.flowsim.span();
        let tflow = troot.child("flowsim");
        #[allow(clippy::type_complexity)]
        let sims: Vec<(
            PathScenarioData,
            Result<(FlowsimResult, FluidRunStats), (FaultKind, String)>,
        )> = todo
            .par_iter()
            .map(|&s| {
                let slot_span =
                    tracing.then(|| tflow.child_on_lane("slot", s as u32, 1 + s as u32));
                let data = u.materialize(s);
                let sim = catch_unwind(AssertUnwindSafe(|| {
                    self.run_flowsim_slot(&data, s, options, slot_span.as_ref(), stride_ns)
                }))
                .unwrap_or_else(|p| Err((FaultKind::Panic, panic_detail(p))));
                (data, sim)
            })
            .collect();
        tflow.finish();
        span.finish();
        m.flowsim_runs.add(todo.len() as u64);
        // Budget consumption, summed sequentially over the (deterministic)
        // slot order so the totals are independent of rayon scheduling.
        let mut fluid_stats = FluidRunStats::default();
        for (_, s) in sims.iter().filter_map(|(_, r)| r.as_ref().ok()) {
            fluid_stats.add(*s);
        }
        m.flowsim_events.add(fluid_stats.events);
        m.flowsim_wall_checks.add(fluid_stats.wall_checks);

        // Classify flowSim faults. A faulted slot has no distribution to
        // fall back on, so its samples are dropped from the aggregate.
        for (j, (_, r)) in sims.iter().enumerate() {
            if let Err((fault, detail)) = r {
                if fail_fast {
                    return Err(M3Error::StageFault {
                        stage: Stage::FlowSim,
                        fault: *fault,
                        detail: detail.clone(),
                    });
                }
                let s = todo[j];
                report.dropped_samples += multiplicity[s];
                if tracing {
                    troot.instant("fault", format!("flowsim slot {s}: {detail}"));
                }
                report.events.push(DegradationEvent {
                    stage: Stage::FlowSim,
                    fault: *fault,
                    scenario: s,
                    samples_affected: multiplicity[s],
                    detail: detail.clone(),
                });
            }
        }

        // Stage 3: feature maps + encoding for the surviving slots.
        let span = m.features.span();
        let tspan = troot.child("features");
        let ok: Vec<usize> = (0..todo.len()).filter(|&j| sims[j].1.is_ok()).collect();
        let sim_of = |j: usize| -> &FlowsimResult {
            match &sims[j].1 {
                Ok((s, _)) => s,
                Err(_) => unreachable!("only surviving slots are consulted"),
            }
        };
        let inputs: Vec<SampleInput> = ok
            .par_iter()
            .map(|&j| {
                let (fg_map, bg_maps) = sims[j].0.features(sim_of(j));
                SampleInput {
                    fg: fg_map.encode_log(),
                    bg: bg_maps.iter().map(|m| m.encode_log()).collect(),
                    spec: t.slot(todo[j]).spec.clone(),
                    use_context: self.use_context,
                }
            })
            .collect();
        tspan.finish();
        span.finish();

        // Stage 4: one batched forward pass over the surviving scenarios,
        // behind a panic barrier. Slots whose forward output is unusable
        // (panic, injected poisoning, non-finite values) fall back to the
        // uncorrected flowSim distribution; only fully-corrected results
        // are cacheable.
        let span = m.forward.span();
        let tspan = troot.child("forward");
        let plan = options.fault_plan.as_ref();
        let mut cacheable: Vec<usize> = Vec::new();
        match catch_unwind(AssertUnwindSafe(|| {
            self.net.predict_batch_pooled(&inputs, &self.arena_pool)
        })) {
            Err(p) => {
                let detail = panic_detail(p);
                if fail_fast {
                    return Err(M3Error::StageFault {
                        stage: Stage::Forward,
                        fault: FaultKind::Panic,
                        detail,
                    });
                }
                for &j in &ok {
                    let s = todo[j];
                    resolved[s] = Some(PathDistribution::from_samples(&sim_of(j).fg));
                    report.degraded_samples += multiplicity[s];
                    if tracing {
                        troot.instant("degraded", format!("forward panic: slot {s}: {detail}"));
                    }
                    report.events.push(DegradationEvent {
                        stage: Stage::Forward,
                        fault: FaultKind::Panic,
                        scenario: s,
                        samples_affected: multiplicity[s],
                        detail: detail.clone(),
                    });
                }
            }
            Ok(outputs) => {
                for (row, out) in outputs.iter().enumerate() {
                    let j = ok[row];
                    let s = todo[j];
                    let poisoned = plan.is_some_and(|p| p.hits(InjectedFault::ForwardPoison, s));
                    if !poisoned && out.iter().all(|v| v.is_finite()) {
                        let decoded = crate::features::decode_log(out);
                        resolved[s] = Some(PathDistribution::from_model_output(
                            &decoded,
                            fg_counts(&sims[j].0),
                        ));
                        clean[s] = true;
                        cacheable.push(s);
                    } else {
                        let detail = if poisoned {
                            format!("injected forward-pass poisoning at slot {s}")
                        } else {
                            "forward pass produced non-finite output".to_string()
                        };
                        if fail_fast {
                            return Err(M3Error::StageFault {
                                stage: Stage::Forward,
                                fault: FaultKind::NonFinite,
                                detail,
                            });
                        }
                        resolved[s] = Some(PathDistribution::from_samples(&sim_of(j).fg));
                        report.degraded_samples += multiplicity[s];
                        if tracing {
                            troot.instant(
                                "degraded",
                                format!("forward fallback: slot {s}: {detail}"),
                            );
                        }
                        report.events.push(DegradationEvent {
                            stage: Stage::Forward,
                            fault: FaultKind::NonFinite,
                            scenario: s,
                            samples_affected: multiplicity[s],
                            detail,
                        });
                    }
                }
            }
        }
        if let Some(fp) = model_fp {
            let evicted = cache
                .with(|c| {
                    let before = c.evictions();
                    for &s in &cacheable {
                        if let Some(dist) = resolved[s].clone() {
                            c.insert(t.slot(s).key, fp, dist);
                        }
                    }
                    c.evictions() - before
                })
                .unwrap_or(0);
            m.cache_evictions.add(evicted);
        }
        tspan.finish();
        span.finish();

        Ok((resolved, clean, model_fp))
    }
}

/// flowSim-only estimate over sampled paths (the "no ML" ablation).
pub fn flowsim_estimate(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    k_paths: usize,
    seed: u64,
) -> NetworkEstimate {
    flowsim_estimate_sliced(topo, flows, config, k_paths, seed, None)
}

/// [`flowsim_estimate`] restricted to a [`PathSlice`] of the k sampled
/// paths — the degraded-path twin of the sliced full pipeline, so a
/// breaker-degraded scatter child still answers for exactly its slice.
pub fn flowsim_estimate_sliced(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    k_paths: usize,
    seed: u64,
    slice: Option<PathSlice>,
) -> NetworkEstimate {
    let index = PathIndex::build(topo, flows);
    let sampled = index.sample_paths(k_paths, seed);
    let sampled = match slice {
        None => sampled,
        Some(sl) => {
            let end = sl.end.min(sampled.len());
            let start = sl.start.min(end);
            if start >= end {
                // A degenerate slice has nothing to estimate over; answer
                // for the full sample rather than panic in a worker (the
                // full pipeline rejects such a slice with a typed error
                // long before the degraded path is reached).
                sampled
            } else {
                sampled[start..end].to_vec()
            }
        }
    };
    let dists: Vec<PathDistribution> = sampled
        .par_iter()
        .map(|&g| {
            let data = PathScenarioData::from_group(topo, flows, &index, g, config);
            let sim = data.run_flowsim();
            PathDistribution::from_samples(&sim.fg)
        })
        .collect();
    NetworkEstimate::aggregate(&dists)
}

/// Path-level *packet* simulation per sampled path (ns-3-path): isolates the
/// error of the path-decomposition assumption from the ML approximation.
pub fn ns3_path_estimate(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    k_paths: usize,
    seed: u64,
) -> NetworkEstimate {
    let index = PathIndex::build(topo, flows);
    let sampled = index.sample_paths(k_paths, seed);
    let dists: Vec<PathDistribution> = sampled
        .par_iter()
        .map(|&g| {
            let data = PathScenarioData::from_group(topo, flows, &index, g, config);
            PathDistribution::from_samples(&data.run_ns3_path(*config))
        })
        .collect();
    NetworkEstimate::aggregate(&dists)
}

/// Exact network-wide distribution from full ground-truth records.
pub fn ground_truth_estimate(records: &[FctRecord]) -> NetworkEstimate {
    exact_estimate(records.iter().map(|r| (r.size, r.slowdown())))
}

/// The distribution of every `(size, slowdown)` sample, unsampled: each
/// slowdown in its size's output bucket, every bucket sorted.
fn exact_estimate(samples: impl Iterator<Item = (u64, f64)>) -> NetworkEstimate {
    let mut bucket_samples: Vec<Vec<f64>> = vec![Vec::new(); NUM_OUTPUT_BUCKETS];
    let mut bucket_counts = [0usize; NUM_OUTPUT_BUCKETS];
    for (size, slowdown) in samples {
        let b = output_bucket(size);
        bucket_samples[b].push(slowdown);
        bucket_counts[b] += 1;
    }
    for v in bucket_samples.iter_mut() {
        v.sort_by(|a, b| a.total_cmp(b));
    }
    NetworkEstimate {
        bucket_samples,
        bucket_counts,
        timings: StageTimings::default(),
        degradation: DegradationReport::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SPEC_DIM;
    use m3_workload::prelude::*;

    fn small_workload(n: usize) -> (FatTree, Vec<FlowSpec>, SimConfig) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: n,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed: 17,
        };
        (
            ft.clone(),
            generate(&ft, &routing, &sc).flows,
            SimConfig::default(),
        )
    }

    fn untrained_estimator() -> M3Estimator {
        let cfg = ModelConfig {
            embed: 16,
            heads: 2,
            layers: 1,
            ff_hidden: 16,
            mlp_hidden: 32,
            ..ModelConfig::repro_default(SPEC_DIM)
        };
        M3Estimator::new(M3Net::new(cfg, 3))
    }

    #[test]
    fn m3_pipeline_produces_estimate() {
        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let e = est.estimate(&ft.topo, &flows, &cfg, 20, 1);
        let p99 = e.p99();
        assert!(p99.is_finite() && p99 >= 1.0, "p99 {p99}");
    }

    #[test]
    fn flowsim_estimate_close_to_truth_for_long_flows() {
        let (ft, flows, cfg) = small_workload(1200);
        let fs = flowsim_estimate(&ft.topo, &flows, &cfg, 30, 2);
        // Long-flow bucket (>=50 KB) should be predicted within a loose
        // factor even without ML (§3.3's observation).
        let gt = ground_truth_estimate(&run_simulation(&ft.topo, cfg, flows.clone()).records);
        let b = 3;
        if gt.bucket_counts[b] > 10 && fs.bucket_counts[b] > 10 {
            let (a, c) = (fs.bucket_p99(b), gt.bucket_p99(b));
            assert!(a / c < 4.0 && c / a < 4.0, "flowSim {a} vs truth {c}");
        }
    }

    #[test]
    fn ns3_path_estimate_tracks_ground_truth() {
        let (ft, flows, cfg) = small_workload(1200);
        let gt_out = run_simulation(&ft.topo, cfg, flows.clone());
        let gt = ground_truth_estimate(&gt_out.records);
        let np = ns3_path_estimate(&ft.topo, &flows, &cfg, 40, 3);
        let (a, c) = (np.p99(), gt.p99());
        let err = ((a - c) / c).abs();
        assert!(
            err < 0.6,
            "ns-3-path p99 {a} should be near ground truth {c} (err {err})"
        );
    }

    #[test]
    fn ground_truth_estimate_counts_everything() {
        let (ft, flows, cfg) = small_workload(400);
        let out = run_simulation(&ft.topo, cfg, flows);
        let gt = ground_truth_estimate(&out.records);
        assert_eq!(gt.bucket_counts.iter().sum::<usize>(), out.records.len());
    }

    /// Bitwise equality of the value-carrying fields (timings excluded).
    fn assert_estimates_bit_identical(a: &NetworkEstimate, b: &NetworkEstimate) {
        assert_eq!(a.bucket_counts, b.bucket_counts);
        assert_eq!(a.bucket_samples.len(), b.bucket_samples.len());
        for (x, y) in a.bucket_samples.iter().zip(&b.bucket_samples) {
            let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
            assert_eq!(xb, yb);
        }
    }

    #[test]
    fn estimate_deterministic() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let a = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        let b = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        assert_estimates_bit_identical(&a, &b);
    }

    #[test]
    fn batched_estimate_matches_per_path_pipeline() {
        // The dedupe + batched-forward path must reproduce the naive
        // per-path predict loop bit for bit.
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let index = PathIndex::build(&ft.topo, &flows);
        let sampled = index.sample_paths(10, 5);
        let dists: Vec<PathDistribution> = sampled
            .iter()
            .map(|&g| {
                let data = PathScenarioData::from_group(&ft.topo, &flows, &index, g, &cfg);
                est.predict_path(&data, &cfg)
            })
            .collect();
        let legacy = NetworkEstimate::aggregate(&dists);
        let batched = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        assert_estimates_bit_identical(&legacy, &batched);
    }

    #[test]
    fn materialize_units_equals_per_index_from_group_and_fingerprint() {
        // Few flows and many samples: groups repeat in the sample, and the
        // symmetric fabric makes distinct groups share a content key.
        let (ft, flows, cfg) = small_workload(300);
        let est = untrained_estimator();
        let index = PathIndex::build(&ft.topo, &flows);
        let mut sampled = index.sample_paths(80, 11);
        sampled.extend_from_within(..5);
        let t = UnitTable::key(&ft.topo, &flows, &index, &sampled, &cfg, est.use_context);
        let u = t.view(&ft.topo, &flows, &index, &cfg);

        assert_eq!(t.len(), sampled.len());
        let mut distinct = sampled.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(distinct.len() < sampled.len(), "want repeated groups");
        assert_eq!(t.multiplicity.iter().sum::<usize>(), sampled.len());

        let mut next_slot = 0;
        for (i, &g) in sampled.iter().enumerate() {
            let data = PathScenarioData::from_group(&ft.topo, &flows, &index, g, &cfg);
            let spec = spec_vector(&cfg, data.fg_base_rtt, data.fg_bottleneck);
            let key = scenario_fingerprint(&data, &spec, est.use_context);
            let slot = t.slot_of[i];
            assert_eq!(t.slot(slot).key, key, "sampled path {i}");
            assert_eq!(t.keys()[i], key);
            // Slots are numbered by first occurrence, and a slot
            // materializes its first occurrence's scenario, field for
            // field.
            if slot == next_slot {
                next_slot += 1;
                assert_eq!(u.materialize(slot), data, "sampled path {i}");
                assert_eq!(t.slot(slot).spec, spec);
            } else {
                assert!(slot < next_slot, "slot {slot} skipped ahead at path {i}");
            }
        }
        assert_eq!(next_slot, t.slots());
        assert_eq!(t.units.len(), distinct.len(), "one unit per distinct group");
    }

    /// The byte-wise FNV-1a scenario key the streamed key replaced: the
    /// same fields, each hashed as its little-endian bytes (spec entries
    /// as four, the context flag as one).
    fn fnv_fingerprint(data: &PathScenarioData, spec: &[f32], use_context: bool) -> u64 {
        let mut h = crate::cache::Fnv::new();
        h.write_u64(data.link_bw.len() as u64);
        for &w in data.link_bw.iter().chain(&data.link_delay) {
            h.write_u64(w);
        }
        for flows in [&data.fg, &data.bg] {
            h.write_u64(flows.len() as u64);
            for f in flows {
                let (first, last) = (f.first_hop as u64, f.last_hop as u64);
                for w in [
                    f.size,
                    f.arrival,
                    first,
                    last,
                    f.nic_cap,
                    f.latency,
                    f.ideal_fct,
                ] {
                    h.write_u64(w);
                }
            }
        }
        h.write_u64(data.fg_base_rtt);
        h.write_u64(data.fg_bottleneck);
        h.write_u64(spec.len() as u64);
        for v in spec {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .for_each(|&b| h.write_u8(b));
        }
        h.write_u8(use_context as u8);
        h.finish()
    }

    /// [`UnitTable::key`] over `sampled` against the materializing
    /// definitions, with and without context: every unit's streamed key
    /// and spec are those of `from_group` + [`scenario_fingerprint`], every
    /// slot materializes to `from_group` field for field, and the slots
    /// split the sampled paths exactly as the FNV-1a key did.
    fn check_streamed_keys(
        topo: &Topology,
        flows: &[FlowSpec],
        cfg: &SimConfig,
        sampled: &[usize],
    ) {
        let index = PathIndex::build(topo, flows);
        let from_group = |g| PathScenarioData::from_group(topo, flows, &index, g, cfg);
        let spec_of = |d: &PathScenarioData| spec_vector(cfg, d.fg_base_rtt, d.fg_bottleneck);
        for use_context in [true, false] {
            let t = UnitTable::key(topo, flows, &index, sampled, cfg, use_context);
            let u = t.view(topo, flows, &index, cfg);
            for unit in &t.units {
                let data = from_group(unit.group);
                let spec = spec_of(&data);
                assert_eq!(unit.spec, spec, "group {}", unit.group);
                let key = scenario_fingerprint(&data, &spec, use_context);
                assert_eq!(unit.key, key, "group {}", unit.group);
            }
            for slot in 0..t.slots() {
                assert_eq!(u.materialize(slot), from_group(t.slot(slot).group));
            }
            let mut slot_by_key = HashMap::new();
            let mut multiplicity: Vec<usize> = Vec::new();
            let slot_of: Vec<usize> = (sampled.iter())
                .map(|&g| {
                    let data = from_group(g);
                    let key = fnv_fingerprint(&data, &spec_of(&data), use_context);
                    let slot = *slot_by_key.entry(key).or_insert(multiplicity.len());
                    if slot == multiplicity.len() {
                        multiplicity.push(0);
                    }
                    multiplicity[slot] += 1;
                    slot
                })
                .collect();
            assert_eq!(t.slot_of, slot_of);
            assert_eq!(t.multiplicity, multiplicity);
        }
    }

    /// Four switches in a line, s0 - s1 - s2 - s3, with s4 hanging between
    /// s1 and s2 and host `i` on switch `i`; links of three bandwidths.
    /// Each pick is a route template (a switch sequence), whether to
    /// reverse it, and a flow size. The templates give reverse traffic,
    /// routes sharing only a suffix, and a detour that leaves a route at
    /// s1 and rejoins it at s2 (a non-contiguous intersection).
    fn detour_fabric(picks: &[(usize, bool, u64)]) -> (Topology, Vec<FlowSpec>) {
        const SWITCH_LINKS: [(usize, usize, u64); 5] =
            [(0, 1, 10), (1, 2, 10), (2, 3, 25), (1, 4, 10), (4, 2, 40)];
        const ROUTES: [&[usize]; 5] = [
            &[0, 1, 2, 3],
            &[0, 1, 4, 2, 3],
            &[1, 2, 3],
            &[4, 2, 3],
            &[1, 4],
        ];
        let mut topo = Topology::new();
        let switches: Vec<NodeId> = (0..5).map(|_| topo.add_switch()).collect();
        let hosts: Vec<NodeId> = (0..5).map(|_| topo.add_host()).collect();
        for (a, b, gbps) in SWITCH_LINKS {
            topo.add_link(switches[a], switches[b], gbps * GBPS, USEC);
        }
        for (i, (&h, &sw)) in hosts.iter().zip(&switches).enumerate() {
            topo.add_link(h, sw, [10, 25][i % 2] * GBPS, 2 * USEC);
        }
        let between = |a: usize, b: usize| {
            let l = SWITCH_LINKS
                .iter()
                .position(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a));
            LinkId(l.unwrap() as u32)
        };
        let access = |sw: usize| LinkId((SWITCH_LINKS.len() + sw) as u32);
        let flows = (picks.iter().enumerate())
            .map(|(i, &(route, reverse, size))| {
                let mut hops = ROUTES[route].to_vec();
                if reverse {
                    hops.reverse();
                }
                let (first, last) = (hops[0], hops[hops.len() - 1]);
                let mut path = vec![access(first)];
                path.extend(hops.windows(2).map(|w| between(w[0], w[1])));
                path.push(access(last));
                FlowSpec {
                    id: i as u32,
                    src: hosts[first],
                    dst: hosts[last],
                    size,
                    arrival: 300 * i as u64,
                    path,
                }
            })
            .collect();
        (topo, flows)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        #[test]
        fn streamed_keys_match_materialized_scenarios_on_fat_trees(
            n_flows in 20usize..600,
            load in 0.2f64..0.8,
            workload_seed in 0u64..1_000,
            k in 1usize..60,
            seed in 0u64..1_000,
        ) {
            let ft = FatTree::build(FatTreeSpec::small(2));
            let scenario = Scenario {
                n_flows,
                matrix_name: "B".into(),
                sizes: SizeDistribution::web_server(),
                sigma: 1.0,
                max_load: load,
                seed: workload_seed,
            };
            let flows = generate(&ft, &Routing::new(&ft.topo), &scenario).flows;
            let sampled = PathIndex::build(&ft.topo, &flows).sample_paths(k, seed);
            check_streamed_keys(&ft.topo, &flows, &SimConfig::default(), &sampled);
        }

        #[test]
        fn streamed_keys_match_materialized_scenarios_on_a_detour_fabric(
            picks in proptest::prelude::prop::collection::vec(
                (0usize..5, proptest::prelude::prop::bool::ANY, 1u64..200_000),
                1..80,
            ),
            k in 1usize..40,
            seed in 0u64..1_000,
        ) {
            let (topo, flows) = detour_fabric(&picks);
            assert!(validate_workload(&topo, &flows).is_ok());
            let sampled = PathIndex::build(&topo, &flows).sample_paths(k, seed);
            check_streamed_keys(&topo, &flows, &SimConfig::default(), &sampled);
        }
    }

    /// Both sides of an estimate: bit-equal values and equal degradation
    /// reports, or equal errors.
    fn assert_same_outcome(
        got: &Result<NetworkEstimate, M3Error>,
        want: &Result<NetworkEstimate, M3Error>,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_estimates_bit_identical(g, w);
                assert_eq!(g.degradation, w.degradation);
            }
            (g, w) => assert_eq!(g.as_ref().err(), w.as_ref().err()),
        }
    }

    /// [`M3Estimator::try_estimate_prepared`] against
    /// `try_estimate_with_shared_cache` of the same query, each through its
    /// own cache: cold, then warm, and through a one-entry cache that keeps
    /// (almost) no slot, so every repeat rebuilds its misses from the kept
    /// table.
    fn check_prepared_matches_direct(
        topo: &Topology,
        flows: &[FlowSpec],
        k: usize,
        seed: u64,
        path_slice: Option<PathSlice>,
        fault_plan: Option<crate::faultinject::FaultPlan>,
    ) {
        let est = untrained_estimator();
        let cfg = SimConfig::default();
        let opts = EstimateOptions {
            path_slice,
            fault_plan,
            ..EstimateOptions::default()
        };
        let prepared = est.prepare(topo.clone(), flows.to_vec(), cfg, k, seed, path_slice);
        let Ok(prepared) = prepared else {
            let direct = est.try_estimate(topo, flows, &cfg, k, seed, &opts);
            assert_eq!(
                prepared.err(),
                direct.err(),
                "prepare and estimate disagree"
            );
            return;
        };
        for capacity in [256, 1] {
            let (direct_cache, prepared_cache) = (
                SharedScenarioCache::new(capacity),
                SharedScenarioCache::new(capacity),
            );
            for _cold_then_warm in 0..2 {
                let want = est.try_estimate_with_shared_cache(
                    topo,
                    flows,
                    &cfg,
                    k,
                    seed,
                    &direct_cache,
                    &opts,
                );
                let got = est.try_estimate_prepared(&prepared, &prepared_cache, &opts);
                assert_same_outcome(&got, &want);
            }
        }
    }

    /// The fault plans the prepared-path oracle draws from: none, poisoned
    /// forward rows (degraded slots), or flowSim runs out of budget
    /// (dropped slots).
    fn oracle_faults(which: usize, seed: u64) -> Option<crate::faultinject::FaultPlan> {
        use crate::faultinject::{FaultPlan, InjectedFault};
        match which {
            0 => None,
            1 => Some(FaultPlan::new(seed).with(InjectedFault::ForwardPoison, 0.2)),
            _ => Some(FaultPlan::new(seed).with(InjectedFault::FlowsimBudget, 0.2)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn a_prepared_estimate_equals_the_direct_one_on_fat_trees(
            n_flows in 20usize..400,
            workload_seed in 0u64..1_000,
            many in proptest::prelude::prop::bool::ANY,
            seed in 0u64..1_000,
            sliced in proptest::prelude::prop::bool::ANY,
            start in 0usize..60,
            len in 1usize..60,
            faults in 0usize..3,
        ) {
            let ft = FatTree::build(FatTreeSpec::small(2));
            let scenario = Scenario {
                n_flows,
                matrix_name: "B".into(),
                sizes: SizeDistribution::web_server(),
                sigma: 1.0,
                max_load: 0.4,
                seed: workload_seed,
            };
            let flows = generate(&ft, &Routing::new(&ft.topo), &scenario).flows;
            let k = if many { 100 } else { 1 };
            let slice = sliced.then_some(PathSlice { start, end: start + len });
            check_prepared_matches_direct(&ft.topo, &flows, k, seed, slice, oracle_faults(faults, seed));
        }

        #[test]
        fn a_prepared_estimate_equals_the_direct_one_on_a_detour_fabric(
            picks in proptest::prelude::prop::collection::vec(
                (0usize..5, proptest::prelude::prop::bool::ANY, 1u64..200_000),
                1..60,
            ),
            many in proptest::prelude::prop::bool::ANY,
            seed in 0u64..1_000,
            sliced in proptest::prelude::prop::bool::ANY,
            start in 0usize..60,
            len in 1usize..60,
            faults in 0usize..3,
        ) {
            let (topo, flows) = detour_fabric(&picks);
            let k = if many { 100 } else { 1 };
            let slice = sliced.then_some(PathSlice { start, end: start + len });
            check_prepared_matches_direct(&topo, &flows, k, seed, slice, oracle_faults(faults, seed));
        }
    }

    #[test]
    fn one_prepared_estimate_serves_two_models_and_refuses_a_mismatch() {
        let (ft, flows, cfg) = small_workload(600);
        let first = untrained_estimator();
        let second = {
            let cfg_m = ModelConfig {
                embed: 16,
                heads: 2,
                layers: 1,
                ff_hidden: 16,
                mlp_hidden: 32,
                ..ModelConfig::repro_default(SPEC_DIM)
            };
            M3Estimator::new(M3Net::new(cfg_m, 4))
        };
        let slice = Some(PathSlice { start: 2, end: 9 });
        let prepared = first
            .prepare(ft.topo.clone(), flows.clone(), cfg, 12, 5, slice)
            .expect("a valid workload prepares");
        let opts = EstimateOptions {
            path_slice: slice,
            ..EstimateOptions::default()
        };
        let cache = SharedScenarioCache::new(256);
        let mut answers = Vec::new();
        for est in [&first, &second] {
            let want = est.try_estimate(&ft.topo, &flows, &cfg, 12, 5, &opts);
            let got = est.try_estimate_prepared(&prepared, &cache, &opts);
            assert_same_outcome(&got, &want);
            answers.push(got.expect("fault-free estimate").digest());
        }
        assert_ne!(answers[0], answers[1], "the two models must differ");

        let unsliced = EstimateOptions::default();
        assert!(matches!(
            first.try_estimate_prepared(&prepared, &cache, &unsliced),
            Err(M3Error::InvalidSpec { .. })
        ));
        let mut no_context = untrained_estimator();
        no_context.use_context = false;
        assert!(matches!(
            no_context.try_estimate_prepared(&prepared, &cache, &opts),
            Err(M3Error::InvalidSpec { .. })
        ));
    }

    #[test]
    fn streamed_keys_split_the_hotpath_fixture_as_fnv_did() {
        // The `gate hotpath` fixture: 4 000 flows of matrix B at load 0.5,
        // workload seed 23, k = 100 sampled with seed 13.
        let ft = FatTree::build(FatTreeSpec::small(2));
        let scenario = Scenario {
            n_flows: 4_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.5,
            seed: 23,
        };
        let flows = generate(&ft, &Routing::new(&ft.topo), &scenario).flows;
        let sampled = PathIndex::build(&ft.topo, &flows).sample_paths(100, 13);
        check_streamed_keys(&ft.topo, &flows, &SimConfig::default(), &sampled);
    }

    /// Child half of `estimate_is_bit_identical_at_1_2_and_4_workers`:
    /// prints the worker count the `rayon` stand-in settled on and a digest
    /// of what the parallel sections produce (work-unit keys and slots, and
    /// the estimate).
    #[test]
    #[ignore = "run by estimate_is_bit_identical_at_1_2_and_4_workers, which sets RAYON_NUM_THREADS"]
    fn print_worker_count_and_digest() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let index = PathIndex::build(&ft.topo, &flows);
        let sampled = index.sample_paths(40, 5);
        let t = UnitTable::key(&ft.topo, &flows, &index, &sampled, &cfg, est.use_context);
        let e = est
            .try_estimate(&ft.topo, &flows, &cfg, 40, 5, &EstimateOptions::default())
            .unwrap();
        let mut h = crate::cache::Fnv::new();
        t.keys().iter().for_each(|&k| h.write_u64(k));
        t.slot_of.iter().for_each(|&s| h.write_u64(s as u64));
        e.bucket_counts.iter().for_each(|&c| h.write_u64(c as u64));
        for bucket in &e.bucket_samples {
            h.write_u64(bucket.len() as u64);
            bucket.iter().for_each(|v| h.write_u64(v.to_bits()));
        }
        println!(
            "workers={} digest={:016x}",
            rayon::current_num_threads(),
            h.finish()
        );
    }

    /// Fingerprinting runs inside the parallel section, so its results must
    /// not depend on how the paths are chunked over workers. The stand-in
    /// fixes its worker count per process (as upstream's global pool does),
    /// hence one child process per count.
    #[test]
    fn estimate_is_bit_identical_at_1_2_and_4_workers() {
        let exe = std::env::current_exe().unwrap();
        let digest_at = |workers: usize| {
            let out = std::process::Command::new(&exe)
                .args(["--ignored", "--exact", "--nocapture"])
                .arg("pipeline::tests::print_worker_count_and_digest")
                .env("RAYON_NUM_THREADS", workers.to_string())
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(out.status.success(), "child failed: {stdout}");
            let report = stdout
                .split("workers=")
                .nth(1)
                .and_then(|rest| rest.lines().next())
                .unwrap_or_else(|| panic!("no report in: {stdout}"));
            let (n, digest) = report.split_once(" digest=").unwrap();
            assert_eq!(n, workers.to_string(), "RAYON_NUM_THREADS not honoured");
            digest.to_string()
        };
        let one = digest_at(1);
        assert_eq!(digest_at(2), one);
        assert_eq!(digest_at(4), one);
    }

    #[test]
    fn warm_cache_skips_flowsim_and_is_identical() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let mut cache = crate::cache::ScenarioCache::new(256);

        let uncached = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        let cold = est.estimate_with_cache(&ft.topo, &flows, &cfg, 10, 5, &mut cache);
        assert!(cold.timings.flowsim_runs > 0, "cold run must simulate");
        assert_eq!(cold.timings.cache_hits, 0);
        assert_estimates_bit_identical(&uncached, &cold);

        let warm = est.estimate_with_cache(&ft.topo, &flows, &cfg, 10, 5, &mut cache);
        assert_eq!(warm.timings.flowsim_runs, 0, "warm run must skip flowSim");
        assert_eq!(warm.timings.cache_hits, warm.timings.unique_scenarios);
        assert_estimates_bit_identical(&cold, &warm);

        assert_eq!(warm.timings.sampled_paths, 10);
        assert!(warm.timings.unique_scenarios <= warm.timings.sampled_paths);
    }

    #[test]
    fn shared_cache_matches_exclusive_cache_bit_for_bit() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let opts = EstimateOptions::default();

        let mut excl = crate::cache::ScenarioCache::new(256);
        let excl_cold = est
            .try_estimate_with_cache(&ft.topo, &flows, &cfg, 10, 5, &mut excl, &opts)
            .expect("cold exclusive run");

        let shared = crate::cache::SharedScenarioCache::new(256);
        let shared_cold = est
            .try_estimate_with_shared_cache(&ft.topo, &flows, &cfg, 10, 5, &shared, &opts)
            .expect("cold shared run");
        assert_estimates_bit_identical(&excl_cold, &shared_cold);
        assert_eq!(shared_cold.timings.cache_hits, 0);
        assert_eq!(
            shared_cold.timings.cache_misses,
            shared_cold.timings.unique_scenarios
        );

        let shared_warm = est
            .try_estimate_with_shared_cache(&ft.topo, &flows, &cfg, 10, 5, &shared, &opts)
            .expect("warm shared run");
        assert_eq!(
            shared_warm.timings.flowsim_runs, 0,
            "warm run skips flowSim"
        );
        assert_eq!(shared_warm.timings.cache_misses, 0);
        assert_eq!(
            shared_warm.timings.cache_hits,
            shared_warm.timings.unique_scenarios
        );
        assert_estimates_bit_identical(&shared_cold, &shared_warm);

        let s = shared.stats();
        assert_eq!(s.misses as usize, shared_cold.timings.unique_scenarios);
        assert_eq!(s.hits as usize, shared_warm.timings.cache_hits);
    }

    #[test]
    fn cache_eviction_counter_appears_in_timings_under_pressure() {
        // A one-entry cache forces LRU evictions on any multi-scenario run.
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let mut cache = crate::cache::ScenarioCache::new(1);
        let e = est
            .try_estimate_with_cache(
                &ft.topo,
                &flows,
                &cfg,
                10,
                5,
                &mut cache,
                &EstimateOptions::default(),
            )
            .expect("fault-free run");
        if e.timings.unique_scenarios > 1 {
            assert_eq!(e.timings.cache_evictions, e.timings.unique_scenarios - 1);
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_misses_when_config_or_model_changes() {
        let (ft, flows, cfg) = small_workload(600);
        let est = untrained_estimator();
        let mut cache = crate::cache::ScenarioCache::new(256);
        est.estimate_with_cache(&ft.topo, &flows, &cfg, 6, 5, &mut cache);

        // A different candidate config changes the spec vector -> all miss.
        let mut cfg2 = cfg;
        cfg2.init_window *= 2;
        let other_cfg = est.estimate_with_cache(&ft.topo, &flows, &cfg2, 6, 5, &mut cache);
        assert_eq!(other_cfg.timings.cache_hits, 0, "config change must miss");

        // A different model changes the model fingerprint -> all miss.
        let est2 = {
            let cfg_m = ModelConfig {
                embed: 16,
                heads: 2,
                layers: 1,
                ff_hidden: 16,
                mlp_hidden: 32,
                ..ModelConfig::repro_default(SPEC_DIM)
            };
            M3Estimator::new(M3Net::new(cfg_m, 4))
        };
        let other_model = est2.estimate_with_cache(&ft.topo, &flows, &cfg, 6, 5, &mut cache);
        assert_eq!(other_model.timings.cache_hits, 0, "model change must miss");
    }

    #[test]
    fn try_estimate_default_options_matches_estimate_bit_for_bit() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let classic = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        for policy in [
            DegradationPolicy::default(),
            DegradationPolicy::FailFast,
            DegradationPolicy::Degrade {
                max_degraded_frac: 0.0,
            },
        ] {
            let opts = EstimateOptions {
                policy,
                ..EstimateOptions::default()
            };
            let robust = est
                .try_estimate(&ft.topo, &flows, &cfg, 10, 5, &opts)
                .expect("fault-free run succeeds under every policy");
            assert_estimates_bit_identical(&classic, &robust);
            assert!(robust.degradation.is_clean(), "{:?}", robust.degradation);
            assert_eq!(robust.degradation.total_samples, 10);
            assert_eq!(robust.degradation.degraded_frac(), 0.0);
        }
    }

    #[test]
    fn try_estimate_rejects_bad_inputs_with_typed_errors() {
        let (ft, flows, cfg) = small_workload(300);
        let est = untrained_estimator();
        let opts = EstimateOptions::default();

        let mut bad_cfg = cfg;
        bad_cfg.mtu = 0;
        assert!(matches!(
            est.try_estimate(&ft.topo, &flows, &bad_cfg, 5, 1, &opts),
            Err(M3Error::InvalidSpec { .. })
        ));

        assert!(matches!(
            est.try_estimate(&ft.topo, &[], &cfg, 5, 1, &opts),
            Err(M3Error::InvalidSpec { .. })
        ));

        assert!(matches!(
            est.try_estimate(&ft.topo, &flows, &cfg, 0, 1, &opts),
            Err(M3Error::InvalidSpec { .. })
        ));
    }

    #[test]
    fn timings_are_populated_and_consistent() {
        let (ft, flows, cfg) = small_workload(800);
        let est = untrained_estimator();
        let e = est.estimate(&ft.topo, &flows, &cfg, 10, 5);
        let t = &e.timings;
        assert_eq!(t.sampled_paths, 10);
        assert!(t.unique_scenarios >= 1 && t.unique_scenarios <= 10);
        assert_eq!(t.flowsim_runs, t.unique_scenarios, "no cache: all simulate");
        assert_eq!(t.cache_hits, 0);
        assert!(t.total_s() > 0.0 && t.total_s().is_finite());
    }
}

/// Global flowSim baseline (extension experiment): fluid-simulate the
/// *entire network at once* — every flow over its directed channels — and
/// aggregate all slowdowns. Unlike [`flowsim_estimate`] there is no path
/// sampling and no decomposition error, only the fluid approximation.
pub fn global_flowsim_estimate(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
) -> NetworkEstimate {
    let fluid = flows.iter().map(|f| {
        let ideal = topo.ideal_fct(&f.path, f.size, config.mtu);
        let bottleneck = topo.bottleneck_bandwidth(&f.path) as f64;
        let ser = (f.size.max(1) as f64 * 8e9 / bottleneck).ceil() as Nanos;
        let flow = FluidFlow {
            id: f.id,
            size: f.size,
            arrival: f.arrival,
            first_link: 0,
            last_link: 0,
            rate_cap_bps: f64::INFINITY,
            latency: ideal.saturating_sub(ser),
            ideal_fct: ideal,
        };
        (flow, crate::decompose::directed_ports(topo, f))
    });
    // One fluid link per directed channel: link `l` is ports `2l` and `2l + 1`.
    let link_bps = topo
        .links()
        .flat_map(|(_, link)| [link.bandwidth as f64; 2]);
    let mut ws = FluidWorkspace::new();
    ws.stage_link_sets(link_bps, fluid);
    let mut records = Vec::new();
    if let Err(e) = try_simulate_staged(&FluidBudget::UNLIMITED, None, &mut ws, &mut records) {
        panic!("global flowSim failed: {e}");
    }
    exact_estimate(records.iter().map(|r| (r.size, r.slowdown())))
}

#[cfg(test)]
mod global_tests {
    use super::*;
    use m3_workload::prelude::*;

    #[test]
    fn global_flowsim_covers_all_flows() {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let w = generate(
            &ft,
            &routing,
            &Scenario {
                n_flows: 1_000,
                matrix_name: "B".into(),
                sizes: SizeDistribution::web_server(),
                sigma: 1.0,
                max_load: 0.4,
                seed: 2,
            },
        );
        let est = global_flowsim_estimate(&ft.topo, &w.flows, &SimConfig::default());
        assert_eq!(est.bucket_counts.iter().sum::<usize>(), 1_000);
        let p99 = est.p99();
        assert!(p99.is_finite() && p99 >= 1.0 - 1e-6, "p99 {p99}");
    }

    #[test]
    fn global_flowsim_underestimates_like_path_flowsim() {
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
                seed: 4,
            },
        );
        let cfg = SimConfig::default();
        let gt = ground_truth_estimate(&run_simulation(&ft.topo, cfg, w.flows.clone()).records);
        let gfs = global_flowsim_estimate(&ft.topo, &w.flows, &cfg);
        // Fluid models lack queueing: the small-flow tail must be below truth.
        assert!(
            gfs.bucket_p99(0) <= gt.bucket_p99(0) * 1.1 || gt.bucket_counts[0] < 20,
            "global flowSim small-flow p99 {} vs truth {}",
            gfs.bucket_p99(0),
            gt.bucket_p99(0)
        );
    }
}
