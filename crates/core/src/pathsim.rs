//! Materialization of one sampled path into the three path-level artifacts
//! m3 needs (§3.2-§3.4):
//!
//! 1. the **fluid model** consumed by flowSim (feature extraction),
//! 2. the **parking-lot packet topology** ("ns-3-path"): the same
//!    foreground path rebuilt with private attachment hosts for background
//!    flows, used for ground truth and the Fig. 2/15 ablations,
//! 3. the **feature maps** (foreground map + one background map per hop).

use crate::decompose::PathIndex;
use crate::features::FeatureMap;
use m3_flowsim::prelude::*;
use m3_netsim::prelude::*;

/// One flow mapped onto a path: its span `[first_hop, last_hop]` over the
/// path's links, and enough of its original identity to compute slowdowns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathFlow {
    /// Index into the original workload's flow slice.
    pub global_idx: u32,
    pub size: Bytes,
    pub arrival: Nanos,
    pub first_hop: usize,
    pub last_hop: usize,
    /// min(src NIC, dst NIC) of the original endpoints.
    pub nic_cap: Bps,
    /// Propagation latency of the original full route.
    pub latency: Nanos,
    /// Ideal FCT over the original full route (slowdown denominator).
    pub ideal_fct: Nanos,
}

/// A fully materialized path-level scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathScenarioData {
    /// Bandwidth and delay of each path link, in order.
    pub link_bw: Vec<Bps>,
    pub link_delay: Vec<Nanos>,
    /// Foreground flows (all spanning the whole path).
    pub fg: Vec<PathFlow>,
    /// Background flows with partial spans.
    pub bg: Vec<PathFlow>,
    /// Base RTT and bottleneck of the foreground path (spec vector inputs).
    pub fg_base_rtt: Nanos,
    pub fg_bottleneck: Bps,
}

/// Result of running flowSim on a path scenario: (size, slowdown) samples.
#[derive(Debug, Clone)]
pub struct FlowsimResult {
    pub fg: Vec<(u64, f64)>,
    /// Background samples grouped per hop (a flow appears at every hop it
    /// crosses, matching the per-link background maps of §3.4).
    pub bg_per_hop: Vec<Vec<(u64, f64)>>,
}

/// What a flow contributes to every path it is mapped onto, whatever its
/// span there: derived from the topology's bandwidths and delays, the flow's
/// size and the config's `mtu`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlowAttrs {
    nic_cap: Bps,
    latency: Nanos,
    ideal_fct: Nanos,
}

impl FlowAttrs {
    pub(crate) fn of(topo: &Topology, f: &FlowSpec, config: &SimConfig) -> Self {
        FlowAttrs {
            nic_cap: topo
                .host_nic_bandwidth(f.src)
                .min(topo.host_nic_bandwidth(f.dst)),
            latency: f.path.iter().map(|&l| topo.link(l).delay).sum(),
            ideal_fct: topo.ideal_fct(&f.path, f.size, config.mtu),
        }
    }

    /// The [`flow_digest`](crate::cache::flow_digest) of flow `f` with
    /// these attributes: what its [`PathFlow`] on any path hashes to,
    /// besides its span.
    pub(crate) fn digest(&self, f: &FlowSpec) -> u64 {
        crate::cache::flow_digest(
            f.size,
            f.arrival,
            self.nic_cap,
            self.latency,
            self.ideal_fct,
        )
    }
}

impl PathFlow {
    /// Flow `fi` (`f`) spanning hops `first..=last` of a path.
    pub(crate) fn on_path(
        fi: u32,
        f: &FlowSpec,
        first: usize,
        last: usize,
        attrs: FlowAttrs,
    ) -> Self {
        PathFlow {
            global_idx: fi,
            size: f.size,
            arrival: f.arrival,
            first_hop: first,
            last_hop: last,
            nic_cap: attrs.nic_cap,
            latency: attrs.latency,
            ideal_fct: attrs.ideal_fct,
        }
    }
}

impl PathScenarioData {
    /// Build from a decomposition group.
    pub fn from_group(
        topo: &Topology,
        flows: &[FlowSpec],
        index: &PathIndex,
        group_idx: usize,
        config: &SimConfig,
    ) -> Self {
        let attrs_of = |fi: u32| FlowAttrs::of(topo, &flows[fi as usize], config);
        let mut data = Self::without_background(topo, flows, index, group_idx, config, attrs_of);
        index.for_each_background(group_idx, |fi, first, last| {
            let f = &flows[fi as usize];
            data.bg
                .push(PathFlow::on_path(fi, f, first, last, attrs_of(fi)));
        });
        data
    }

    /// A group's scenario with an empty background, the flow attributes
    /// supplied by `attrs_of` (flow index -> attributes): the caller adds
    /// the background, from the index's merge or from a list it kept.
    pub(crate) fn without_background(
        topo: &Topology,
        flows: &[FlowSpec],
        index: &PathIndex,
        group_idx: usize,
        config: &SimConfig,
        attrs_of: impl Fn(u32) -> FlowAttrs,
    ) -> Self {
        let path = &index.rep_flow(group_idx, flows).path;
        let last = path.len() - 1;
        PathScenarioData {
            link_bw: path.iter().map(|&l| topo.link(l).bandwidth).collect(),
            link_delay: path.iter().map(|&l| topo.link(l).delay).collect(),
            fg: (index.foreground_of(group_idx).iter())
                .map(|&fi| PathFlow::on_path(fi, &flows[fi as usize], 0, last, attrs_of(fi)))
                .collect(),
            bg: Vec::new(),
            fg_base_rtt: crate::spec::path_base_rtt(topo, path, config),
            fg_bottleneck: topo.bottleneck_bandwidth(path),
        }
    }

    pub fn num_hops(&self) -> usize {
        self.link_bw.len()
    }

    /// Stage the fluid model in `ws` (no topology or flow vector is
    /// allocated per path): one fluid link per path link; foreground flows
    /// span everything, background flows their segment with a NIC rate cap.
    /// Flow ids are positions in `fg ++ bg`. Returns the staged flows.
    ///
    /// Each flow's fixed latency term is `ideal_fct - bottleneck
    /// serialization` (Appendix A's "topology-specific end-to-end latency
    /// factor"): it folds propagation *and* per-hop packet pipelining into a
    /// constant, so an unloaded fluid flow has slowdown exactly 1.
    pub fn to_fluid<'w>(&self, ws: &'w mut FluidWorkspace) -> &'w mut [FluidFlow] {
        let flows = ws.stage(self.link_bw.iter().map(|&b| b as f64));
        flows.reserve(self.fg.len() + self.bg.len());
        for (i, f) in self.fg.iter().chain(self.bg.iter()).enumerate() {
            let is_fg = i < self.fg.len();
            let cap = if is_fg {
                f64::INFINITY // foreground endpoints are the path's own links
            } else {
                f.nic_cap as f64
            };
            let seg_bw = self.link_bw[f.first_hop..=f.last_hop]
                .iter()
                .copied()
                .min()
                .unwrap_or(GBPS);
            let bottleneck = (seg_bw as f64).min(cap);
            let ser = (f.size.max(1) as f64 * 8e9 / bottleneck).ceil() as Nanos;
            flows.push(FluidFlow {
                id: i as u32,
                size: f.size,
                arrival: f.arrival,
                first_link: f.first_hop as u16,
                last_link: f.last_hop as u16,
                rate_cap_bps: cap,
                latency: f.ideal_fct.saturating_sub(ser),
                ideal_fct: f.ideal_fct,
            });
        }
        flows
    }

    /// Run flowSim and split the samples into foreground and per-hop
    /// background sets. Panics on invalid input; the pipeline uses
    /// [`try_run_flowsim_traced_into`](Self::try_run_flowsim_traced_into).
    pub fn run_flowsim(&self) -> FlowsimResult {
        let mut ws = FluidWorkspace::new();
        match self.try_run_flowsim_traced_into(
            &FluidBudget::UNLIMITED,
            None,
            &mut ws,
            &mut Vec::new(),
        ) {
            Ok((r, _)) => r,
            Err(e) => panic!("flowSim failed: {e}"),
        }
    }

    /// Fallible flowSim under a resource budget: invalid flows, non-finite
    /// event times, and budget exhaustion come back as typed
    /// [`FluidError`]s instead of panics, with the run's deterministic
    /// budget-consumption stats (event count, wall checks) on success. An
    /// optional virtual-time [`FluidProbe`] samples per-link utilization and
    /// active-flow counts at its stride for the tracing flight recorder; it
    /// only observes. The fluid model is staged in the caller-owned `ws`,
    /// the simulation's internal collections come from it and the raw
    /// records land in `records`, so with a warm workspace a run allocates
    /// nothing but its returned [`FlowsimResult`].
    pub fn try_run_flowsim_traced_into(
        &self,
        budget: &FluidBudget,
        probe: Option<&FluidProbe<'_>>,
        ws: &mut FluidWorkspace,
        records: &mut Vec<FluidFctRecord>,
    ) -> Result<(FlowsimResult, FluidRunStats), FluidError> {
        self.to_fluid(ws);
        self.run_staged(budget, probe, ws, records)
    }

    /// Run the model [`to_fluid`](Self::to_fluid) staged in `ws` and split
    /// its records.
    pub(crate) fn run_staged(
        &self,
        budget: &FluidBudget,
        probe: Option<&FluidProbe<'_>>,
        ws: &mut FluidWorkspace,
        records: &mut Vec<FluidFctRecord>,
    ) -> Result<(FlowsimResult, FluidRunStats), FluidError> {
        let stats = try_simulate_staged(budget, probe, ws, records)?;
        Ok((self.split_records(records), stats))
    }

    /// Split raw fluid records (one per flow of `fg ++ bg`, sorted by id)
    /// into the foreground sample set and one background set per hop (a
    /// background flow contributes to every hop it crosses). Every output
    /// vector is allocated once, at its final size.
    fn split_records(&self, records: &[FluidFctRecord]) -> FlowsimResult {
        let n_fg = self.fg.len();
        // Background flows crossing each hop.
        let mut crossing = vec![0usize; self.num_hops()];
        for f in &self.bg {
            for c in &mut crossing[f.first_hop..=f.last_hop] {
                *c += 1;
            }
        }
        let mut bg_per_hop: Vec<Vec<(u64, f64)>> =
            crossing.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut fg = Vec::with_capacity(n_fg);
        for r in records {
            let i = r.id as usize;
            if i < n_fg {
                fg.push((r.size, r.slowdown()));
            } else {
                let f = &self.bg[i - n_fg];
                for hop in &mut bg_per_hop[f.first_hop..=f.last_hop] {
                    hop.push((r.size, r.slowdown()));
                }
            }
        }
        FlowsimResult { fg, bg_per_hop }
    }

    /// Feature maps from a flowSim result: the foreground 10x100 map and one
    /// background map per hop.
    pub fn features(&self, sim: &FlowsimResult) -> (FeatureMap, Vec<FeatureMap>) {
        let fg_map = FeatureMap::feature(&sim.fg);
        let bg_maps = sim
            .bg_per_hop
            .iter()
            .map(|samples| FeatureMap::feature(samples))
            .collect();
        (fg_map, bg_maps)
    }

    /// Rebuild the parking-lot packet topology ("ns-3-path", §2.1): path
    /// nodes are [src host, switches..., dst host]; each background flow
    /// joins/leaves through private attachment links with its original NIC
    /// capacity. Returns the topology, the flow list (foreground first) and
    /// a parallel is-foreground flag vector. Flow ids index into fg ++ bg.
    pub fn to_netsim(&self) -> (Topology, Vec<FlowSpec>, Vec<bool>) {
        let n = self.num_hops();
        assert!(n >= 2, "host-to-host paths have at least two links");
        let mut topo = Topology::new();
        // node 0 = fg src host; nodes 1..n-1 switches; node n = fg dst host.
        let src_host = topo.add_host();
        let mut nodes = vec![src_host];
        for _ in 1..n {
            nodes.push(topo.add_switch());
        }
        let dst_host = topo.add_host();
        nodes.push(dst_host);
        let mut path = Vec::with_capacity(n);
        for i in 0..n {
            path.push(topo.add_link(nodes[i], nodes[i + 1], self.link_bw[i], self.link_delay[i]));
        }
        let mut flows = Vec::with_capacity(self.fg.len() + self.bg.len());
        let mut is_fg = Vec::with_capacity(flows.capacity());
        for (i, f) in self.fg.iter().enumerate() {
            flows.push(FlowSpec {
                id: i as FlowId,
                src: src_host,
                dst: dst_host,
                size: f.size,
                arrival: f.arrival,
                path: path.clone(),
            });
            is_fg.push(true);
        }
        let attach_delay = USEC;
        for (j, f) in self.bg.iter().enumerate() {
            // Entry node index = first_hop; exit node index = last_hop + 1.
            let (src, mut p) = if f.first_hop == 0 {
                (src_host, Vec::new())
            } else {
                let h = topo.add_host();
                let l = topo.add_link(h, nodes[f.first_hop], f.nic_cap, attach_delay);
                (h, vec![l])
            };
            p.extend_from_slice(&path[f.first_hop..=f.last_hop]);
            let dst = if f.last_hop == n - 1 {
                dst_host
            } else {
                let h = topo.add_host();
                let l = topo.add_link(h, nodes[f.last_hop + 1], f.nic_cap, attach_delay);
                p.push(l);
                h
            };
            flows.push(FlowSpec {
                id: (self.fg.len() + j) as FlowId,
                src,
                dst,
                size: f.size,
                arrival: f.arrival,
                path: p,
            });
            is_fg.push(false);
        }
        (topo, flows, is_fg)
    }

    /// Run the path-level packet simulation and return foreground
    /// (size, slowdown) samples — slowdowns computed against the *original*
    /// full-network ideal FCTs so they are comparable with ground truth.
    pub fn run_ns3_path(&self, config: SimConfig) -> Vec<(u64, f64)> {
        let (topo, flows, is_fg) = self.to_netsim();
        let out = run_simulation(&topo, config, flows);
        out.records
            .iter()
            .filter(|r| is_fg[r.id as usize])
            .map(|r| {
                let orig_ideal = self.fg[r.id as usize].ideal_fct.max(1);
                (r.size, r.fct as f64 / orig_ideal as f64)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decompose::PathIndex;
    use m3_workload::prelude::*;

    fn scenario() -> (FatTree, Vec<FlowSpec>, SimConfig) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: 2_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed: 3,
        };
        let w = generate(&ft, &routing, &sc);
        (ft, w.flows, SimConfig::default())
    }

    fn busiest_group(idx: &PathIndex) -> usize {
        (0..idx.num_paths())
            .max_by_key(|&g| idx.foreground_of(g).len())
            .unwrap()
    }

    #[test]
    fn materialization_shapes() {
        let (ft, flows, cfg) = scenario();
        let idx = PathIndex::build(&ft.topo, &flows);
        let g = busiest_group(&idx);
        let data = PathScenarioData::from_group(&ft.topo, &flows, &idx, g, &cfg);
        assert!(!data.fg.is_empty());
        assert!(data.num_hops() >= 2);
        for f in &data.fg {
            assert_eq!(f.first_hop, 0);
            assert_eq!(f.last_hop, data.num_hops() - 1);
        }
        for f in &data.bg {
            assert!(f.last_hop < data.num_hops());
            assert!(f.ideal_fct > 0);
        }
    }

    #[test]
    fn fluid_and_features() {
        let (ft, flows, cfg) = scenario();
        let idx = PathIndex::build(&ft.topo, &flows);
        let g = busiest_group(&idx);
        let data = PathScenarioData::from_group(&ft.topo, &flows, &idx, g, &cfg);
        let sim = data.run_flowsim();
        assert_eq!(sim.fg.len(), data.fg.len(), "every fg flow completes");
        assert_eq!(sim.bg_per_hop.len(), data.num_hops());
        let (fg_map, bg_maps) = data.features(&sim);
        assert_eq!(fg_map.data.len(), crate::features::FEAT_DIM);
        assert_eq!(bg_maps.len(), data.num_hops());
        assert_eq!(fg_map.total_flows(), data.fg.len());
        for (_, s) in &sim.fg {
            assert!(*s >= 1.0 - 1e-6, "fluid slowdown {} below 1", s);
        }
    }

    #[test]
    fn ns3_path_reconstruction_runs() {
        let (ft, flows, cfg) = scenario();
        let idx = PathIndex::build(&ft.topo, &flows);
        let g = busiest_group(&idx);
        let data = PathScenarioData::from_group(&ft.topo, &flows, &idx, g, &cfg);
        let fg_samples = data.run_ns3_path(cfg);
        assert_eq!(fg_samples.len(), data.fg.len());
        for (size, sldn) in &fg_samples {
            assert!(*size > 0);
            assert!(*sldn > 0.5, "slowdown {} suspicious", sldn);
        }
    }

    #[test]
    fn reconstruction_preserves_fg_path_characteristics() {
        let (ft, flows, cfg) = scenario();
        let idx = PathIndex::build(&ft.topo, &flows);
        let g = busiest_group(&idx);
        let data = PathScenarioData::from_group(&ft.topo, &flows, &idx, g, &cfg);
        let (topo, nflows, is_fg) = data.to_netsim();
        // Foreground path in the reconstruction has the same bandwidths and
        // delays as the original.
        let fg_flow = nflows.iter().zip(&is_fg).find(|(_, &f)| f).unwrap().0;
        let bws: Vec<Bps> = fg_flow
            .path
            .iter()
            .map(|&l| topo.link(l).bandwidth)
            .collect();
        assert_eq!(bws, data.link_bw);
        let ideal_orig = data.fg[fg_flow.id as usize].ideal_fct;
        let ideal_recon = topo.ideal_fct(&fg_flow.path, fg_flow.size, cfg.mtu);
        assert_eq!(ideal_orig, ideal_recon, "fg ideal FCT must be identical");
    }
}
