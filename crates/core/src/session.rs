//! Incremental, delta-driven scenario sessions.
//!
//! A [`ScenarioSession`] owns a live scenario (topology + workload + CC
//! configuration) together with the per-path results of its last estimate.
//! A typed [`ScenarioDelta`] describes a what-if edit — a traffic-matrix
//! shift, a link failure/recovery/re-provisioning, or a CC-knob change —
//! and [`ScenarioSession::apply_delta`] re-estimates only the paths the
//! delta can actually touch (the *dirty set*: the test
//! [`PathIndex::dirty_groups`] applies to every group, asked of the
//! sampled paths only). The session's estimate is a retained aggregate: an
//! update swaps the dirty paths' old distributions for the fresh ones in
//! place, in one linear pass per bucket, instead of re-pooling every path.
//!
//! The contract is strict: a fault-free `apply_delta` returns an estimate
//! **bit-identical** to a from-scratch estimate of the post-delta scenario.
//! That holds because per-path distributions are pure functions of the
//! path's content fingerprint, the dirty-set computer is conservative
//! (every path whose fingerprint can change is dirty), and the in-place
//! update ends on the same multiset of samples as the batch aggregate, in
//! the only order that sorts it.
//!
//! Deltas split into two classes:
//!
//! * **surgical** — the effective flow set, routes, and path sampling are
//!   unchanged ([`ScenarioDelta::TrafficShift`],
//!   [`ScenarioDelta::LinkCapacity`], [`ScenarioDelta::CcKnob`]); only the
//!   dirty slots are rematerialized and re-resolved against the existing
//!   [`PathIndex`].
//! * **structural** — the effective flow set changes
//!   ([`ScenarioDelta::LinkDown`]/[`ScenarioDelta::LinkUp`] with crossing
//!   flows, or a model hot-swap under the session): the session rebuilds
//!   its index and re-estimates through the shared cache, where every
//!   unaffected path still hits by content key.
//!
//! Retained clean results are pinned in the session's
//! [`SharedScenarioCache`] so LRU pressure from concurrent work cannot
//! evict state a live session depends on; pins are released on every
//! re-pin and on drop.

use crate::aggregate::{NetworkEstimate, PathDistribution};
use crate::cache::SharedScenarioCache;
use crate::decompose::PathIndex;
use crate::error::{M3Error, SpecValidation, Stage};
use crate::optimizer::Knob;
use crate::pipeline::{CacheRef, CallFrame, EstimateOptions, M3Estimator, SlotResults, UnitTable};
use m3_netsim::prelude::*;
use serde::{Deserialize, Serialize};

/// One typed edit to a live scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ScenarioDelta {
    /// Scale the size of every flow matching the (optional) endpoint
    /// filter by `num / den`, rounding down but never below one byte.
    /// `src`/`dst` are node indices; `None` matches any endpoint.
    TrafficShift {
        #[serde(default)]
        src: Option<u32>,
        #[serde(default)]
        dst: Option<u32>,
        num: u32,
        den: u32,
    },
    /// Fail a link: flows whose path crosses it are blackholed (removed
    /// from the effective scenario; no re-routing is modeled).
    LinkDown { link: u32 },
    /// Recover a previously failed link, restoring its crossing flows.
    LinkUp { link: u32 },
    /// Re-provision a link's per-direction capacity in place.
    LinkCapacity { link: u32, bandwidth: u64 },
    /// Set one congestion-control knob of the scenario's [`SimConfig`].
    CcKnob { knob: Knob, value: f64 },
}

fn invalid(reason: impl Into<String>) -> M3Error {
    M3Error::InvalidSpec {
        stage: Stage::Validate,
        reason: reason.into(),
    }
}

impl SpecValidation for ScenarioDelta {
    /// Context-free validity: every field must be usable on its own terms.
    /// Link/node references are checked against a topology separately by
    /// [`ScenarioDelta::validate_against`].
    fn validate_spec(&self) -> Result<(), M3Error> {
        match self {
            ScenarioDelta::TrafficShift { num, den, .. } => {
                if *den == 0 {
                    return Err(invalid("traffic_shift: den must be positive"));
                }
                if *num == 0 {
                    return Err(invalid("traffic_shift: num must be positive"));
                }
            }
            ScenarioDelta::LinkCapacity { bandwidth, .. } => {
                if *bandwidth == 0 {
                    return Err(invalid("link_capacity: bandwidth must be positive"));
                }
            }
            ScenarioDelta::CcKnob { value, .. } => {
                if !value.is_finite() {
                    return Err(invalid(format!("cc_knob: value {value} is not finite")));
                }
            }
            ScenarioDelta::LinkDown { .. } | ScenarioDelta::LinkUp { .. } => {}
        }
        Ok(())
    }
}

impl ScenarioDelta {
    /// Full validation against a concrete topology: [`validate_spec`]
    /// plus rejection of unknown link/node references with a typed
    /// [`M3Error::InvalidSpec`] (instead of a panic or a silent no-op
    /// downstream in decompose).
    ///
    /// [`validate_spec`]: SpecValidation::validate_spec
    pub fn validate_against(&self, topo: &Topology) -> Result<(), M3Error> {
        self.validate_spec()?;
        let check_link = |link: u32| -> Result<(), M3Error> {
            if (link as usize) >= topo.link_count() {
                return Err(invalid(format!(
                    "delta references link {} but topology has {}",
                    link,
                    topo.link_count()
                )));
            }
            Ok(())
        };
        let check_node = |node: u32| -> Result<(), M3Error> {
            if (node as usize) >= topo.node_count() {
                return Err(invalid(format!(
                    "delta references node {} but topology has {}",
                    node,
                    topo.node_count()
                )));
            }
            Ok(())
        };
        match self {
            ScenarioDelta::TrafficShift { src, dst, .. } => {
                if let Some(s) = src {
                    check_node(*s)?;
                }
                if let Some(d) = dst {
                    check_node(*d)?;
                }
            }
            ScenarioDelta::LinkDown { link }
            | ScenarioDelta::LinkUp { link }
            | ScenarioDelta::LinkCapacity { link, .. } => check_link(*link)?,
            ScenarioDelta::CcKnob { .. } => {}
        }
        Ok(())
    }
}

/// The mutable scenario a session folds deltas into: base workload plus
/// the current topology/configuration and the set of failed links.
#[derive(Clone)]
pub struct ScenarioState {
    /// Current topology (link capacities reflect applied
    /// [`ScenarioDelta::LinkCapacity`] deltas).
    pub topo: Topology,
    /// Base flows with applied traffic shifts folded into their sizes.
    /// Flows crossing a failed link stay here (so recovery can restore
    /// them) but are excluded from [`ScenarioState::effective_flows`].
    pub flows: Vec<FlowSpec>,
    /// Current CC configuration (CC-knob deltas folded in).
    pub config: SimConfig,
    /// Per-link failed flag.
    down: Vec<bool>,
}

impl ScenarioState {
    pub fn new(topo: Topology, flows: Vec<FlowSpec>, config: SimConfig) -> Self {
        let down = vec![false; topo.link_count()];
        ScenarioState {
            topo,
            flows,
            config,
            down,
        }
    }

    /// Does any base flow's path cross `link`?
    fn link_is_crossed(&self, link: u32) -> bool {
        self.flows
            .iter()
            .any(|f| f.path.iter().any(|l| l.index() == link as usize))
    }

    /// Fold one validated delta into the state. Returns `true` when the
    /// delta is *structural* — the effective flow set changed, so an
    /// incremental session must rebuild its decomposition rather than
    /// patch dirty slots. On error the state is left unchanged.
    pub fn apply(&mut self, delta: &ScenarioDelta) -> Result<bool, M3Error> {
        self.fold(delta).map(|(structural, _)| structural)
    }

    /// [`ScenarioState::apply`], also returning what it overwrote, so a
    /// session can fold a delta in place and take it back if the
    /// re-estimate fails instead of folding into a clone of the state.
    fn fold(&mut self, delta: &ScenarioDelta) -> Result<(bool, Undo), M3Error> {
        delta.validate_against(&self.topo)?;
        match *delta {
            ScenarioDelta::TrafficShift { src, dst, num, den } => {
                let sizes = self.flows.iter().map(|f| f.size).collect();
                for f in &mut self.flows {
                    let hit = src.is_none_or(|s| f.src.index() == s as usize)
                        && dst.is_none_or(|d| f.dst.index() == d as usize);
                    if hit {
                        // 128-bit intermediate: size * num cannot overflow.
                        let scaled = (f.size as u128) * (num as u128) / (den as u128);
                        f.size = (scaled as Bytes).max(1);
                    }
                }
                Ok((false, Undo::Sizes(sizes)))
            }
            ScenarioDelta::LinkDown { link } => {
                let was = std::mem::replace(&mut self.down[link as usize], true);
                Ok((!was && self.link_is_crossed(link), Undo::Down(link, was)))
            }
            ScenarioDelta::LinkUp { link } => {
                let was = std::mem::replace(&mut self.down[link as usize], false);
                Ok((was && self.link_is_crossed(link), Undo::Down(link, was)))
            }
            ScenarioDelta::LinkCapacity { link, bandwidth } => {
                let was = self.topo.link(LinkId(link)).bandwidth;
                self.topo.set_link_bandwidth(LinkId(link), bandwidth as Bps);
                Ok((false, Undo::Bandwidth(link, was)))
            }
            ScenarioDelta::CcKnob { knob, value } => {
                let next = knob.apply(&self.config, value);
                // The folded config must still be a valid spec (e.g. a
                // knob pushed below a structural floor), otherwise the
                // pipeline would reject it later with less context.
                next.validate_spec()?;
                let was = std::mem::replace(&mut self.config, next);
                Ok((false, Undo::Config(was)))
            }
        }
    }

    /// Take back the [`ScenarioState::fold`] that returned `undo`.
    fn unfold(&mut self, undo: Undo) {
        match undo {
            Undo::Sizes(sizes) => {
                for (f, size) in self.flows.iter_mut().zip(sizes) {
                    f.size = size;
                }
            }
            Undo::Down(link, was) => self.down[link as usize] = was,
            Undo::Bandwidth(link, was) => self.topo.set_link_bandwidth(LinkId(link), was),
            Undo::Config(was) => self.config = was,
        }
    }

    /// The flows the estimator actually sees: base flows minus those
    /// blackholed by a failed link.
    pub fn effective_flows(&self) -> Vec<FlowSpec> {
        if !self.down.iter().any(|&d| d) {
            return self.flows.clone();
        }
        self.flows
            .iter()
            .filter(|f| !f.path.iter().any(|l| self.down[l.index()]))
            .cloned()
            .collect()
    }

    /// Indices of currently failed links.
    pub fn down_links(&self) -> Vec<u32> {
        self.down
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// What one [`ScenarioState::fold`] overwrote.
enum Undo {
    /// Every flow's size before a traffic shift (the integer scaling does
    /// not invert).
    Sizes(Vec<Bytes>),
    Down(u32, bool),
    Bandwidth(u32, Bps),
    Config(SimConfig),
}

/// Per-sampled-path retained result.
#[derive(Clone)]
struct PathSlot {
    key: u64,
    dist: Option<PathDistribution>,
    /// Fully-corrected (cache hit or fresh prediction): safe to retain
    /// across deltas. Degraded fallbacks and dropped slots are never
    /// clean and are recomputed on the next update.
    clean: bool,
}

impl PathSlot {
    /// Sampled path `i`'s result in a resolved unit table.
    fn resolved(t: &UnitTable, (dists, clean, _): &SlotResults, i: usize) -> PathSlot {
        let s = t.slot_of[i];
        PathSlot {
            key: t.slot(s).key,
            dist: dists[s].clone(),
            clean: clean[s],
        }
    }
}

/// Swap the distributions `gone` for `fresh` in `pooled`, an aggregate
/// that contains `gone`: per bucket, one linear pass drops the values of
/// `gone` (matched by bits) and merges in the sorted values of `fresh`, and
/// the counts move with them. The result is bit-identical to
/// [`NetworkEstimate::aggregate`] over the paths after the swap: both hold
/// the same multiset of values, and a multiset has only one order sorted
/// under `total_cmp`, which tells apart every two distinct bit patterns.
fn splice_paths(
    pooled: &mut NetworkEstimate,
    gone: &[&PathDistribution],
    fresh: &[&PathDistribution],
) {
    let sorted_values = |paths: &[&PathDistribution], b: usize| {
        let mut v: Vec<f64> = paths
            .iter()
            .flat_map(|p| p.buckets[b].iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    for (b, samples) in pooled.bucket_samples.iter_mut().enumerate() {
        for p in gone {
            pooled.bucket_counts[b] -= p.counts[b];
        }
        for p in fresh {
            pooled.bucket_counts[b] += p.counts[b];
        }
        let gone_b = sorted_values(gone, b);
        let fresh_b = sorted_values(fresh, b);
        if gone_b.is_empty() && fresh_b.is_empty() {
            continue;
        }
        let mut out = Vec::with_capacity(samples.len() - gone_b.len() + fresh_b.len());
        let (mut g, mut f) = (0, 0);
        for &v in samples.iter() {
            if gone_b.get(g).is_some_and(|x| x.to_bits() == v.to_bits()) {
                g += 1;
                continue;
            }
            while let Some(&x) = fresh_b.get(f).filter(|x| x.total_cmp(&v).is_lt()) {
                out.push(x);
                f += 1;
            }
            out.push(v);
        }
        out.extend_from_slice(&fresh_b[f..]);
        assert_eq!(
            g,
            gone_b.len(),
            "bucket {b}: a dropped value was not pooled"
        );
        *samples = out;
    }
}

/// What one session open/update produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionUpdate {
    /// The post-delta network estimate (bit-identical to a from-scratch
    /// estimate of the same scenario when the update is fault-free).
    pub estimate: NetworkEstimate,
    /// Sampled paths covered by the session (post path-slice).
    pub total_paths: usize,
    /// Paths invalidated by the delta: all of them on open; on a
    /// structural update, those whose content key did not survive it.
    /// Always `total_paths - reused_paths`.
    pub dirty_paths: usize,
    /// Paths whose retained distribution was reused as-is (on a
    /// structural update: answered by content key from the shared cache).
    pub reused_paths: usize,
    /// Whether the update took the structural (full-rebuild) path.
    pub structural: bool,
}

/// A live incremental estimation session. See the module docs for the
/// surgical/structural split and the bit-identity contract.
pub struct ScenarioSession {
    state: ScenarioState,
    eff_flows: Vec<FlowSpec>,
    index: PathIndex,
    k_paths: usize,
    seed: u64,
    options: EstimateOptions,
    cache: SharedScenarioCache,
    /// Sampled group indices (post path-slice), aligned with `slots`.
    sampled: Vec<usize>,
    slots: Vec<PathSlot>,
    model_fp: Option<u64>,
    last: NetworkEstimate,
    /// (scenario, model) keys currently pinned in the shared cache.
    pinned: Vec<(u64, u64)>,
}

impl ScenarioSession {
    /// Open a session with a full estimate of the base scenario.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        est: &M3Estimator,
        topo: Topology,
        flows: Vec<FlowSpec>,
        config: SimConfig,
        k_paths: usize,
        seed: u64,
        cache: SharedScenarioCache,
        options: EstimateOptions,
    ) -> Result<(Self, SessionUpdate), M3Error> {
        let state = ScenarioState::new(topo, flows, config);
        let eff_flows = state.effective_flows();
        let (estimate, (index, sampled, table), r) = est.estimate_body(
            &state.topo,
            &eff_flows,
            &state.config,
            k_paths,
            seed,
            CacheRef::Shared(&cache),
            &options,
        )?;
        // The estimate's own index is the session's: it is built once.
        let mut session = ScenarioSession {
            slots: (0..table.len())
                .map(|i| PathSlot::resolved(&table, &r, i))
                .collect(),
            state,
            eff_flows,
            index,
            k_paths,
            seed,
            options,
            cache,
            sampled,
            model_fp: r.2,
            last: estimate.clone(),
            pinned: Vec::new(),
        };
        session.repin();
        let total_paths = session.slots.len();
        Ok((
            session,
            SessionUpdate {
                estimate,
                total_paths,
                dirty_paths: total_paths,
                reused_paths: 0,
                structural: true,
            },
        ))
    }

    /// The estimate of the session's current scenario.
    pub fn estimate(&self) -> &NetworkEstimate {
        &self.last
    }

    /// The session's current scenario state.
    pub fn state(&self) -> &ScenarioState {
        &self.state
    }

    /// Validate a delta against the current scenario without applying it.
    pub fn validate_delta(&self, delta: &ScenarioDelta) -> Result<(), M3Error> {
        delta.validate_against(&self.state.topo)
    }

    /// Fold one delta into the scenario and re-estimate only what it can
    /// touch. On error the session is unchanged (the delta is folded in
    /// place and taken back if the re-estimate fails; results are
    /// committed only on success), so a journal replay that re-applies the
    /// same delta sequence converges to the same state.
    pub fn apply_delta(
        &mut self,
        est: &M3Estimator,
        delta: &ScenarioDelta,
    ) -> Result<SessionUpdate, M3Error> {
        let (structural, undo) = self.state.fold(delta)?;
        let update = self.reestimate(est, delta, structural);
        if update.is_err() {
            self.state.unfold(undo);
        }
        update
    }

    /// The re-estimate half of [`ScenarioSession::apply_delta`]: `delta` is
    /// already folded into `self.state`; everything else is committed on
    /// success only.
    fn reestimate(
        &mut self,
        est: &M3Estimator,
        delta: &ScenarioDelta,
        structural: bool,
    ) -> Result<SessionUpdate, M3Error> {
        // A model hot-swap under the session invalidates every retained
        // result (they were computed under the old parameters).
        let model_changed = self.model_fp != Some(est.net.fingerprint());
        if structural || model_changed {
            return self.rebuild(est);
        }

        // Surgical path: flow set, routes, and sampling are unchanged, so
        // the existing index stays valid. Dirty = what the delta can touch
        // plus whatever was not retainable from the previous update.
        let touched = self.index.touched_ports(&self.eff_flows, delta);
        let dirty_pos: Vec<usize> = (0..self.slots.len())
            .filter(|&i| {
                !self.slots[i].clean
                    || touched
                        .as_ref()
                        .is_none_or(|t| self.index.crosses(t, self.sampled[i]))
            })
            .collect();
        // Of the surgical deltas only a traffic shift edits the flows.
        let shifted = matches!(delta, ScenarioDelta::TrafficShift { .. })
            .then(|| self.state.effective_flows());
        let eff = shifted.as_deref().unwrap_or(&self.eff_flows);

        // Re-resolve the dirty slots in the frame every estimate ends in,
        // under a `session.update` root span. Every slot that is not clean
        // is dirty, so the frame's report counts every degraded or dropped
        // path of the updated estimate, and the ceiling divides by all of
        // the session's paths, as a from-scratch estimate does.
        let frame = CallFrame::open(&self.options, "session.update");
        let dirty_sampled: Vec<usize> = dirty_pos.iter().map(|&i| self.sampled[i]).collect();
        let (topo, config) = (&self.state.topo, &self.state.config);
        let t = frame.decompose(|| {
            UnitTable::key(
                topo,
                eff,
                &self.index,
                &dirty_sampled,
                config,
                est.use_context,
            )
        });
        let (slots, last) = (&self.slots, &mut self.last);
        // `last` is the aggregate of the current slots, so swapping the
        // dirty slots' distributions for the fresh ones keeps it so (see
        // `splice_paths`). Nothing in the frame fails after the pooling
        // step, so taking `last` loses nothing: the commit puts it back.
        let splice = |resolved: &[Option<PathDistribution>]| {
            let gone: Vec<&PathDistribution> = (dirty_pos.iter())
                .filter_map(|&i| slots[i].dist.as_ref())
                .collect();
            let fresh: Vec<&PathDistribution> = (t.slot_of.iter())
                .filter_map(|&s| resolved[s].as_ref())
                .collect();
            let held = slots.iter().filter(|s| s.dist.is_some()).count();
            if held - gone.len() + fresh.len() == 0 {
                return None;
            }
            splice_paths(last, &gone, &fresh);
            Some(std::mem::take(last))
        };
        let (estimate, r) = est.resolve_and_pool(
            frame,
            &t.view(topo, eff, &self.index, config),
            CacheRef::Shared(&self.cache),
            &self.options,
            self.slots.len(),
            splice,
        )?;

        // Commit.
        for (j, &i) in dirty_pos.iter().enumerate() {
            self.slots[i] = PathSlot::resolved(&t, &r, j);
        }
        if let Some(eff) = shifted {
            self.eff_flows = eff;
        }
        self.model_fp = r.2;
        self.last = estimate.clone();
        self.repin();

        Ok(SessionUpdate {
            estimate,
            total_paths: self.slots.len(),
            dirty_paths: dirty_pos.len(),
            reused_paths: self.slots.len() - dirty_pos.len(),
            structural: false,
        })
    }

    /// Full re-estimate of the current state, committing index/slots on
    /// success.
    fn rebuild(&mut self, est: &M3Estimator) -> Result<SessionUpdate, M3Error> {
        let eff = self.state.effective_flows();
        let (out, (index, sampled, table), r) = est.estimate_body(
            &self.state.topo,
            &eff,
            &self.state.config,
            self.k_paths,
            self.seed,
            CacheRef::Shared(&self.cache),
            &self.options,
        )?;
        // Reuse accounting: paths whose content key survived the delta
        // were answered from retained state (via the shared cache).
        let mut prev_keys: Vec<u64> = self.slots.iter().map(|s| s.key).collect();
        prev_keys.sort_unstable();
        self.slots = (0..table.len())
            .map(|i| PathSlot::resolved(&table, &r, i))
            .collect();
        let reused = (self.slots.iter())
            .filter(|s| prev_keys.binary_search(&s.key).is_ok())
            .count();
        self.index = index;
        self.eff_flows = eff;
        self.sampled = sampled;
        self.model_fp = r.2;
        self.last = out.clone();
        self.repin();

        Ok(SessionUpdate {
            estimate: out,
            total_paths: self.slots.len(),
            dirty_paths: self.slots.len() - reused,
            reused_paths: reused,
            structural: true,
        })
    }

    /// Pin the current clean results in the shared cache and release the
    /// previous generation's pins. Pinning happens after the results are
    /// resident, so a racing eviction costs at most a recompute on the
    /// next update — never correctness.
    fn repin(&mut self) {
        let Some(fp) = self.model_fp else {
            self.unpin_all();
            return;
        };
        let fresh: Vec<(u64, u64)> = self
            .slots
            .iter()
            .filter(|s| s.clean && s.dist.is_some())
            .map(|s| (s.key, fp))
            .collect();
        let mut cache = self.cache.lock();
        for &(k, m) in &self.pinned {
            cache.unpin(k, m);
        }
        for &(k, m) in &fresh {
            cache.pin(k, m);
        }
        drop(cache);
        self.pinned = fresh;
    }

    fn unpin_all(&mut self) {
        if self.pinned.is_empty() {
            return;
        }
        let mut cache = self.cache.lock();
        for &(k, m) in &self.pinned {
            cache.unpin(k, m);
        }
        drop(cache);
        self.pinned.clear();
    }
}

impl Drop for ScenarioSession {
    fn drop(&mut self) {
        self.unpin_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::scenario_fingerprint;
    use crate::pathsim::PathScenarioData;
    use crate::spec::{spec_vector, SPEC_DIM};
    use m3_nn::prelude::{M3Net, ModelConfig};
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

    /// Value identity: same pooled samples and counts, timings/degradation
    /// bookkeeping aside.
    fn same_value(a: &NetworkEstimate, b: &NetworkEstimate) {
        assert_eq!(a.bucket_counts, b.bucket_counts);
        assert_eq!(a.bucket_samples.len(), b.bucket_samples.len());
        for (va, vb) in a.bucket_samples.iter().zip(&b.bucket_samples) {
            assert_eq!(va.len(), vb.len());
            for (x, y) in va.iter().zip(vb) {
                assert_eq!(x.to_bits(), y.to_bits(), "samples must be bit-identical");
            }
        }
    }

    /// From-scratch estimate of a scenario state, uncached.
    fn scratch(est: &M3Estimator, state: &ScenarioState, k: usize, seed: u64) -> NetworkEstimate {
        est.try_estimate(
            &state.topo,
            &state.effective_flows(),
            &state.config,
            k,
            seed,
            &EstimateOptions::default(),
        )
        .unwrap()
    }

    fn open_session(
        est: &M3Estimator,
        ft: &FatTree,
        flows: &[FlowSpec],
        cfg: &SimConfig,
        k: usize,
        seed: u64,
    ) -> ScenarioSession {
        let cache = SharedScenarioCache::new(4096);
        let (session, update) = ScenarioSession::open(
            est,
            ft.topo.clone(),
            flows.to_vec(),
            *cfg,
            k,
            seed,
            cache,
            EstimateOptions::default(),
        )
        .unwrap();
        assert_eq!(update.total_paths, update.dirty_paths);
        session
    }

    #[test]
    fn surgical_link_capacity_is_bit_identical_to_scratch() {
        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let (k, seed) = (20, 1);
        let mut session = open_session(&est, &ft, &flows, &cfg, k, seed);
        same_value(session.estimate(), &scratch(&est, session.state(), k, seed));

        let link = flows[0].path[0].index() as u32;
        let delta = ScenarioDelta::LinkCapacity {
            link,
            bandwidth: 7 * GBPS,
        };
        let update = session.apply_delta(&est, &delta).unwrap();
        assert!(!update.structural);
        assert!(update.dirty_paths <= update.total_paths);
        same_value(&update.estimate, &scratch(&est, session.state(), k, seed));
        same_value(session.estimate(), &update.estimate);
    }

    #[test]
    fn cc_knob_delta_dirties_every_path_and_matches_scratch() {
        let (ft, flows, cfg) = small_workload(1200);
        let est = untrained_estimator();
        let (k, seed) = (12, 3);
        let mut session = open_session(&est, &ft, &flows, &cfg, k, seed);
        let delta = ScenarioDelta::CcKnob {
            knob: Knob::InitWindow,
            value: 20_000.0,
        };
        let update = session.apply_delta(&est, &delta).unwrap();
        assert!(!update.structural);
        assert_eq!(update.dirty_paths, update.total_paths);
        same_value(&update.estimate, &scratch(&est, session.state(), k, seed));
    }

    #[test]
    fn traffic_shift_matches_scratch() {
        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let (k, seed) = (16, 5);
        let mut session = open_session(&est, &ft, &flows, &cfg, k, seed);
        let src = flows[0].src.index() as u32;
        let delta = ScenarioDelta::TrafficShift {
            src: Some(src),
            dst: None,
            num: 3,
            den: 2,
        };
        let update = session.apply_delta(&est, &delta).unwrap();
        assert!(!update.structural);
        same_value(&update.estimate, &scratch(&est, session.state(), k, seed));
    }

    #[test]
    fn link_down_and_up_are_structural_and_match_scratch() {
        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let (k, seed) = (16, 2);
        let mut session = open_session(&est, &ft, &flows, &cfg, k, seed);
        let link = flows[0].path[0].index() as u32;

        let update = session
            .apply_delta(&est, &ScenarioDelta::LinkDown { link })
            .unwrap();
        assert!(update.structural);
        assert_eq!(session.state().down_links(), vec![link]);
        same_value(&update.estimate, &scratch(&est, session.state(), k, seed));

        let update = session
            .apply_delta(&est, &ScenarioDelta::LinkUp { link })
            .unwrap();
        assert!(update.structural);
        assert!(session.state().down_links().is_empty());
        same_value(&update.estimate, &scratch(&est, session.state(), k, seed));
        // Recovery restores the original scenario's estimate too.
        let base = ScenarioState::new(ft.topo.clone(), flows.clone(), cfg);
        same_value(session.estimate(), &scratch(&est, &base, k, seed));
    }

    /// A structural rebuild keeps the books too: a path whose content key
    /// survived the delta counts as reused, not also as dirty.
    #[test]
    fn structural_update_books_balance() {
        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let mut session = open_session(&est, &ft, &flows, &cfg, 16, 2);
        let link = flows[0].path[0].index() as u32;
        let update = session
            .apply_delta(&est, &ScenarioDelta::LinkDown { link })
            .unwrap();
        assert!(update.structural);
        assert!(update.reused_paths > 0, "want a content key that survives");
        assert_eq!(update.dirty_paths + update.reused_paths, update.total_paths);
    }

    #[test]
    fn dirty_set_is_sound_for_link_capacity() {
        // Every sampled path NOT in the dirty set must keep a bit-identical
        // content fingerprint after the delta is folded in — that is the
        // invariant that lets the session reuse its retained results.
        let (ft, flows, cfg) = small_workload(1500);
        let index = PathIndex::build(&ft.topo, &flows);
        let sampled = index.sample_paths(40, 9);
        let link = flows[0].path[0].index() as u32;
        let delta = ScenarioDelta::LinkCapacity {
            link,
            bandwidth: 5 * GBPS,
        };
        let dirty = index.dirty_groups(&flows, &delta);

        let mut state = ScenarioState::new(ft.topo.clone(), flows.clone(), cfg);
        state.apply(&delta).unwrap();

        let fp_of = |topo: &Topology, config: &SimConfig, g: usize| {
            let d = PathScenarioData::from_group(topo, &flows, &index, g, config);
            let s = spec_vector(config, d.fg_base_rtt, d.fg_bottleneck);
            scenario_fingerprint(&d, &s, true)
        };
        let mut checked_clean = 0;
        for &g in &sampled {
            if !dirty.contains(&g) {
                assert_eq!(
                    fp_of(&ft.topo, &cfg, g),
                    fp_of(&state.topo, &state.config, g),
                    "non-dirty group {g} changed fingerprint"
                );
                checked_clean += 1;
            }
        }
        assert!(checked_clean > 0, "want at least one clean sampled path");
        assert!(!dirty.is_empty(), "a crossed link must dirty something");
    }

    #[test]
    fn invalid_deltas_are_rejected_with_typed_errors() {
        let (ft, flows, cfg) = small_workload(600);
        let est = untrained_estimator();
        let mut session = open_session(&est, &ft, &flows, &cfg, 8, 1);
        let before = session.estimate().clone();

        let bad = [
            ScenarioDelta::LinkDown { link: u32::MAX },
            ScenarioDelta::LinkCapacity {
                link: 0,
                bandwidth: 0,
            },
            ScenarioDelta::LinkCapacity {
                link: 1 << 30,
                bandwidth: GBPS,
            },
            ScenarioDelta::TrafficShift {
                src: Some(u32::MAX),
                dst: None,
                num: 1,
                den: 1,
            },
            ScenarioDelta::TrafficShift {
                src: None,
                dst: None,
                num: 1,
                den: 0,
            },
            ScenarioDelta::CcKnob {
                knob: Knob::HpccEta,
                value: f64::NAN,
            },
        ];
        for delta in &bad {
            let err = session.apply_delta(&est, delta).unwrap_err();
            assert!(
                matches!(
                    err,
                    M3Error::InvalidSpec {
                        stage: Stage::Validate,
                        ..
                    }
                ),
                "{delta:?} -> {err}"
            );
            // Failed deltas leave the session untouched.
            same_value(session.estimate(), &before);
        }
    }

    /// A delta is folded into the state in place; a re-estimate that then
    /// fails must take it back, whatever the delta's kind.
    #[test]
    fn failed_reestimate_takes_the_folded_delta_back() {
        use crate::faultinject::{FaultPlan, InjectedFault};
        use crate::pipeline::DegradationPolicy;

        let (ft, flows, cfg) = small_workload(1200);
        let est = untrained_estimator();
        let (k, seed) = (12, 2);
        let mut session = open_session(&est, &ft, &flows, &cfg, k, seed);
        let link = flows[0].path[0].index() as u32;
        let view = |s: &ScenarioState| {
            let sizes: Vec<Bytes> = s.flows.iter().map(|f| f.size).collect();
            let bandwidth = s.topo.link(LinkId(link)).bandwidth;
            (sizes, bandwidth, format!("{:?}", s.config), s.down_links())
        };
        let deltas = [
            ScenarioDelta::LinkCapacity {
                link,
                bandwidth: 3 * GBPS,
            },
            ScenarioDelta::TrafficShift {
                src: None,
                dst: None,
                num: 1,
                den: 3,
            },
            ScenarioDelta::CcKnob {
                knob: Knob::InitWindow,
                value: 20_000.0,
            },
            ScenarioDelta::LinkDown { link },
        ];

        let before = (view(session.state()), session.estimate().clone());
        let healthy = std::mem::replace(
            &mut session.options,
            EstimateOptions {
                policy: DegradationPolicy::FailFast,
                fault_plan: Some(FaultPlan::new(1).with(InjectedFault::ForwardPoison, 1.0)),
                ..EstimateOptions::default()
            },
        );
        for delta in &deltas {
            session.apply_delta(&est, delta).unwrap_err();
            assert_eq!(view(session.state()), before.0, "{delta:?}");
            same_value(session.estimate(), &before.1);
        }

        // The session is as good as new: the same deltas now apply.
        session.options = healthy;
        for delta in &deltas {
            let update = session.apply_delta(&est, delta).unwrap();
            same_value(&update.estimate, &scratch(&est, session.state(), k, seed));
        }
        assert_ne!(view(session.state()), before.0);
    }

    /// The retained aggregate is the aggregate of the slots: after every
    /// update, degraded and dropped slots included, `estimate()` equals
    /// `NetworkEstimate::aggregate` over the slots' current distributions.
    /// (The faulted proptest compares two incremental runs with each
    /// other, so it cannot see a bookkeeping error both runs share.)
    #[test]
    fn retained_aggregate_matches_the_slots_under_faults() {
        use crate::faultinject::{FaultPlan, InjectedFault};
        use crate::pipeline::DegradationPolicy;

        let from_slots = |s: &ScenarioSession| {
            let dists: Vec<PathDistribution> = s
                .slots
                .iter()
                .filter_map(|slot| slot.dist.clone())
                .collect();
            NetworkEstimate::aggregate(&dists)
        };
        let (ft, flows, cfg) = small_workload(1200);
        let est = untrained_estimator();
        let degrade = EstimateOptions {
            policy: DegradationPolicy::Degrade {
                max_degraded_frac: 1.0,
            },
            fault_plan: Some(
                FaultPlan::new(5)
                    .with(InjectedFault::ForwardPoison, 0.2)
                    .with(InjectedFault::FlowsimBudget, 0.1),
            ),
            ..EstimateOptions::default()
        };
        let (mut session, _) = ScenarioSession::open(
            &est,
            ft.topo.clone(),
            flows.clone(),
            cfg,
            16,
            4,
            SharedScenarioCache::new(4096),
            degrade,
        )
        .unwrap();
        let mut degraded = 0;
        let mut dropped = 0;
        for (i, link) in flows
            .iter()
            .take(8)
            .flat_map(|f| f.path.clone())
            .enumerate()
        {
            let delta = if i % 3 == 2 {
                ScenarioDelta::TrafficShift {
                    src: Some(flows[i].src.index() as u32),
                    dst: None,
                    num: 5,
                    den: 4,
                }
            } else {
                ScenarioDelta::LinkCapacity {
                    link: link.index() as u32,
                    bandwidth: (3 + i as u64 % 5) * GBPS,
                }
            };
            let update = session.apply_delta(&est, &delta).unwrap();
            same_value(&update.estimate, &from_slots(&session));
            same_value(session.estimate(), &update.estimate);
            degraded += update.estimate.degradation.degraded_samples;
            dropped += update.estimate.degradation.dropped_samples;
        }
        assert!(degraded > 0 && dropped > 0, "want both fault kinds in play");

        // A fail-fast update that errors leaves the estimate as it was.
        let before = session.estimate().clone();
        session.options = EstimateOptions {
            policy: DegradationPolicy::FailFast,
            fault_plan: Some(FaultPlan::new(1).with(InjectedFault::ForwardPoison, 1.0)),
            ..EstimateOptions::default()
        };
        let delta = ScenarioDelta::LinkCapacity {
            link: flows[0].path[0].index() as u32,
            bandwidth: 2 * GBPS,
        };
        session.apply_delta(&est, &delta).unwrap_err();
        same_value(session.estimate(), &before);
        same_value(session.estimate(), &from_slots(&session));
    }

    /// An update applies the degradation ceiling over all of the session's
    /// paths, as a from-scratch estimate does, not over its dirty subset:
    /// one degraded path among two dirty ones is not half the estimate.
    #[test]
    fn degradation_ceiling_divides_by_every_path() {
        use crate::faultinject::{FaultPlan, InjectedFault};

        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: 500,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed: 3,
        };
        let flows = generate(&ft, &routing, &sc).flows;
        let est = M3Estimator::new(M3Net::new(ModelConfig::repro_default(SPEC_DIM), 7));
        let options = EstimateOptions {
            fault_plan: Some(FaultPlan::new(0).with(InjectedFault::ForwardPoison, 0.1)),
            ..EstimateOptions::default()
        };
        let (mut session, opened) = ScenarioSession::open(
            &est,
            ft.topo.clone(),
            flows,
            SimConfig::default(),
            20,
            3,
            SharedScenarioCache::new(4096),
            options,
        )
        .unwrap();
        let report = &opened.estimate.degradation;
        assert_eq!((report.degraded_samples, report.total_samples), (3, 20));
        for link in 0..=10u32 {
            let delta = ScenarioDelta::LinkCapacity {
                link,
                bandwidth: session.state().topo.link(LinkId(link)).bandwidth / 2,
            };
            let update = session
                .apply_delta(&est, &delta)
                .unwrap_or_else(|e| panic!("halving link {link}: {e}"));
            let report = &update.estimate.degradation;
            assert_eq!(report.total_samples, 20);
            assert!(report.degraded_frac() <= 0.25, "link {link}: {report:?}");
        }
    }

    /// A surgical update records the counters a from-scratch call records,
    /// counted over the work the update did: `timings.sampled_paths` and
    /// `unique_scenarios` count the dirty paths it resolved and their
    /// distinct scenarios (not all of the session's paths, most of which it
    /// reuses), and the caller's registry gains exactly the update report's
    /// degraded and dropped samples. Every path that is not clean is dirty,
    /// so that report holds every degraded or dropped path of the updated
    /// estimate.
    #[test]
    fn surgical_update_records_the_counters_a_scratch_call_records() {
        use crate::faultinject::{FaultPlan, InjectedFault};
        use crate::metrics::names::{DEGRADED_SAMPLES, DROPPED_SAMPLES};
        use crate::pipeline::DegradationPolicy;
        use m3_telemetry::MetricsRegistry;

        let (ft, flows, cfg) = small_workload(1500);
        let est = untrained_estimator();
        let registry = MetricsRegistry::new();
        let options = EstimateOptions {
            policy: DegradationPolicy::Degrade {
                max_degraded_frac: 1.0,
            },
            fault_plan: Some(FaultPlan::new(3).with(InjectedFault::ForwardPoison, 0.5)),
            metrics: Some(registry.clone()),
            ..EstimateOptions::default()
        };
        let (mut session, _) = ScenarioSession::open(
            &est,
            ft.topo.clone(),
            flows.clone(),
            cfg,
            20,
            1,
            SharedScenarioCache::new(4096),
            options,
        )
        .unwrap();
        let counters = || {
            let snap = registry.snapshot();
            [DEGRADED_SAMPLES, DROPPED_SAMPLES].map(|n| snap.counter(n).unwrap_or(0))
        };
        let before = counters();
        let delta = ScenarioDelta::LinkCapacity {
            link: flows[0].path[0].index() as u32,
            bandwidth: 7 * GBPS,
        };
        let update = session.apply_delta(&est, &delta).unwrap();
        assert!(!update.structural);
        let (timings, report) = (&update.estimate.timings, &update.estimate.degradation);
        assert!(
            report.degraded_samples > 0,
            "want degraded paths: {report:?}"
        );
        assert_eq!(timings.sampled_paths, update.dirty_paths);
        assert!(
            timings.decompose_s > 0.0,
            "the dirty paths' keying is timed"
        );
        assert!(timings.unique_scenarios >= 1);
        assert!(timings.unique_scenarios <= update.dirty_paths);
        let after = counters();
        assert_eq!(after[0] - before[0], report.degraded_samples as u64);
        assert_eq!(after[1] - before[1], report.dropped_samples as u64);
    }

    #[test]
    fn session_pins_retained_results_and_releases_on_drop() {
        let (ft, flows, cfg) = small_workload(1200);
        let est = untrained_estimator();
        let cache = SharedScenarioCache::new(4096);
        let (session, update) = ScenarioSession::open(
            &est,
            ft.topo.clone(),
            flows.clone(),
            cfg,
            16,
            4,
            cache.clone(),
            EstimateOptions::default(),
        )
        .unwrap();
        assert!(update.total_paths > 0);
        assert!(
            cache.lock().pinned() > 0,
            "live session must pin its results"
        );
        drop(session);
        assert_eq!(cache.lock().pinned(), 0, "drop must release every pin");
    }

    #[test]
    fn delta_serde_round_trips() {
        let deltas = [
            ScenarioDelta::TrafficShift {
                src: Some(3),
                dst: None,
                num: 2,
                den: 1,
            },
            ScenarioDelta::LinkDown { link: 7 },
            ScenarioDelta::LinkUp { link: 7 },
            ScenarioDelta::LinkCapacity {
                link: 2,
                bandwidth: 10 * GBPS,
            },
            ScenarioDelta::CcKnob {
                knob: Knob::DctcpK,
                value: 9_000.0,
            },
        ];
        for d in &deltas {
            let json = serde_json::to_string(d).unwrap();
            let back: ScenarioDelta = serde_json::from_str(&json).unwrap();
            assert_eq!(*d, back, "{json}");
        }
    }
}
