//! # m3-parsimon
//!
//! The Parsimon baseline (Zhao et al., NSDI 2023), reimplemented on top of
//! this workspace's packet-level engine: the network is decomposed into
//! *independent link-level simulations* — one per directed channel — run in
//! parallel, and each flow's end-to-end FCT is estimated as its ideal FCT
//! plus the sum of the extra delays it incurred in every link simulation
//! along its path.
//!
//! This is exactly the assumption m3 improves on (§2.1, §5.3): when the
//! bottleneck is the transport itself (e.g. a small initial window), the
//! per-link decomposition counts the same slowdown once per hop and
//! overestimates tail latency (Fig. 12); at high load, ignoring inter-link
//! correlation degrades accuracy (Fig. 10(b)).
//!
//! Per-link topology (following the Parsimon paper): every flow crossing
//! the target channel enters through a private ingress link whose capacity
//! is the bottleneck of its upstream path segment and leaves through a
//! private egress link with its downstream bottleneck, so only the target
//! channel itself is contended.

use m3_netsim::prelude::*;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-flow Parsimon estimate.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ParsimonRecord {
    pub id: FlowId,
    pub size: Bytes,
    /// Ideal end-to-end FCT over the full path.
    pub ideal_fct: Nanos,
    /// Estimated FCT = ideal + sum of per-link extra delays.
    pub est_fct: Nanos,
}

impl ParsimonRecord {
    pub fn slowdown(&self) -> f64 {
        self.est_fct as f64 / self.ideal_fct.max(1) as f64
    }
}

/// A flow's traversal of one directed channel, with its up/downstream
/// bottlenecks (used to build the link-level topology).
#[derive(Debug, Clone, Copy)]
struct Crossing {
    flow_idx: u32,
    upstream_bw: Bps,
    downstream_bw: Bps,
}

/// Group the flows' crossings by directed channel, each group in flow
/// order, the channels sorted by (link, direction) for reproducibility.
fn channels(topo: &Topology, flows: &[FlowSpec]) -> Vec<(LinkId, Vec<Crossing>)> {
    let mut crossings: HashMap<(LinkId, bool), Vec<Crossing>> = HashMap::new();
    for (i, f) in flows.iter().enumerate() {
        let mut cur = f.src;
        let bws: Vec<Bps> = f.path.iter().map(|&l| topo.link(l).bandwidth).collect();
        for (hop, &l) in f.path.iter().enumerate() {
            let link = topo.link(l);
            let forward = link.a == cur;
            let upstream_bw = bws[..hop].iter().copied().min().unwrap_or(bws[hop]);
            let downstream_bw = bws[hop + 1..].iter().copied().min().unwrap_or(bws[hop]);
            crossings.entry((l, forward)).or_default().push(Crossing {
                flow_idx: i as u32,
                upstream_bw,
                downstream_bw,
            });
            cur = link.other(cur);
        }
    }
    let mut channels: Vec<((LinkId, bool), Vec<Crossing>)> = crossings.into_iter().collect();
    channels.sort_by_key(|&((l, fwd), _)| (l.0, !fwd));
    channels.into_iter().map(|((l, _), c)| (l, c)).collect()
}

/// One record per flow: its ideal FCT over the full path plus `extra[i]`.
fn records(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
    extra: &[Nanos],
) -> Vec<ParsimonRecord> {
    flows
        .iter()
        .zip(extra)
        .map(|(f, &extra)| {
            let ideal = topo.ideal_fct(&f.path, f.size, config.mtu);
            ParsimonRecord {
                id: f.id,
                size: f.size,
                ideal_fct: ideal,
                est_fct: ideal + extra,
            }
        })
        .collect()
}

/// Run the full Parsimon estimation pipeline.
///
/// Note: like the published Rust implementation, accuracy claims in the
/// paper are for DCTCP; this port accepts any of the four CC protocols.
pub fn parsimon_estimate(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
) -> Vec<ParsimonRecord> {
    // Simulate each channel independently and collect per-flow extra delays.
    let delay_sets: Vec<Vec<(u32, Nanos)>> = channels(topo, flows)
        .par_iter()
        .map(|(link, crossing)| simulate_channel(topo, flows, *link, crossing, config))
        .collect();
    let mut extra = vec![0u64; flows.len()];
    for set in &delay_sets {
        for &(fi, d) in set {
            extra[fi as usize] += d;
        }
    }
    records(topo, flows, config, &extra)
}

/// Simulate one directed channel: all crossing flows contend on a copy of
/// the target link only. Returns (flow index, extra delay beyond the
/// link-local ideal FCT) in crossing order.
fn simulate_channel(
    topo: &Topology,
    flows: &[FlowSpec],
    link: LinkId,
    crossings: &[Crossing],
    config: &SimConfig,
) -> Vec<(u32, Nanos)> {
    let target = topo.link(link);
    let mut mini = Topology::new();
    let a = mini.add_switch();
    let b = mini.add_switch();
    let channel = mini.add_link(a, b, target.bandwidth, target.delay);
    let attach_delay = USEC;
    let mut mini_flows = Vec::with_capacity(crossings.len());
    for (j, c) in crossings.iter().enumerate() {
        let f = &flows[c.flow_idx as usize];
        let src = mini.add_host();
        let l_in = mini.add_link(src, a, c.upstream_bw, attach_delay);
        let dst = mini.add_host();
        let l_out = mini.add_link(b, dst, c.downstream_bw, attach_delay);
        mini_flows.push(FlowSpec {
            id: j as FlowId,
            src,
            dst,
            size: f.size,
            arrival: f.arrival,
            path: vec![l_in, channel, l_out],
        });
    }
    let paths: Vec<Vec<LinkId>> = mini_flows.iter().map(|f| f.path.clone()).collect();
    let out = run_simulation(&mini, *config, mini_flows);
    out.records
        .iter()
        .map(|r| {
            let j = r.id as usize;
            let ideal_local = mini.ideal_fct(&paths[j], r.size, config.mtu);
            let extra = r.fct.saturating_sub(ideal_local);
            (crossings[j].flow_idx, extra)
        })
        .collect()
}

/// Slowdown samples `(size, slowdown)` from Parsimon records, for
/// aggregation with `m3_core`'s estimators.
pub fn slowdown_samples(records: &[ParsimonRecord]) -> Vec<(u64, f64)> {
    records.iter().map(|r| (r.size, r.slowdown())).collect()
}

// ---------------------------------------------------------------------------
// Link clustering
// ---------------------------------------------------------------------------

/// Channels with equal workload signatures share one representative
/// simulation (the Parsimon paper's clustering optimization; coarser
/// buckets are faster and less precise). A signature is a channel's
/// bandwidth, its flow count rounded up to a power of two, its offered
/// bytes in buckets of `CLUSTER_BYTES_BUCKET` and its arrival span in
/// buckets of `CLUSTER_SPAN_BUCKET` nanoseconds.
const CLUSTER_BYTES_BUCKET: u64 = 4 << 20;
const CLUSTER_SPAN_BUCKET: Nanos = 20_000_000;

/// Statistics from a clustered run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ClusterStats {
    pub total_channels: usize,
    pub simulated_channels: usize,
}

/// Parsimon with link clustering: channels with matching signatures reuse
/// the representative's *slowdown-by-size-rank* profile instead of being
/// simulated. Returns records plus dedup statistics.
pub fn parsimon_estimate_clustered(
    topo: &Topology,
    flows: &[FlowSpec],
    config: &SimConfig,
) -> (Vec<ParsimonRecord>, ClusterStats) {
    let channels = channels(topo, flows);
    let signature = |link: LinkId, cr: &[Crossing]| -> (u64, u64, u64, u64) {
        let bytes: u64 = cr.iter().map(|c| flows[c.flow_idx as usize].size).sum();
        let (first, last) = cr
            .iter()
            .map(|c| flows[c.flow_idx as usize].arrival)
            .fold((Nanos::MAX, 0), |(lo, hi), a| (lo.min(a), hi.max(a)));
        (
            topo.link(link).bandwidth,
            (cr.len() as u64).next_power_of_two(),
            bytes / CLUSTER_BYTES_BUCKET,
            (last - first) / CLUSTER_SPAN_BUCKET,
        )
    };

    // Each channel's representative: the first channel with its signature.
    let mut rep_of: HashMap<(u64, u64, u64, u64), usize> = HashMap::new();
    let reps: Vec<usize> = channels
        .iter()
        .enumerate()
        .map(|(ci, (link, cr))| *rep_of.entry(signature(*link, cr)).or_insert(ci))
        .collect();
    let mut simulated: Vec<usize> = rep_of.into_values().collect();
    simulated.sort_unstable();

    // Simulate the representatives; keep each one's per-flow delays and
    // those delays ranked by flow size (stable), its profile.
    type Delays = Vec<(u32, Nanos)>;
    let runs: HashMap<usize, (Delays, Delays)> = simulated
        .par_iter()
        .map(|&ri| {
            let (link, cr) = &channels[ri];
            let delays = simulate_channel(topo, flows, *link, cr, config);
            let mut profile = delays.clone();
            profile.sort_by_key(|&(fi, _)| flows[fi as usize].size);
            (ri, (delays, profile))
        })
        .collect();

    // A representative adds its own delays; a member maps each of its
    // flows, by size-rank quantile, into its representative's profile.
    let mut extra = vec![0u64; flows.len()];
    for (ci, (_, cr)) in channels.iter().enumerate() {
        let (delays, profile) = &runs[&reps[ci]];
        if ci == reps[ci] {
            for &(fi, d) in delays {
                extra[fi as usize] += d;
            }
            continue;
        }
        if profile.is_empty() {
            continue;
        }
        let mut ranked: Vec<usize> = (0..cr.len()).collect();
        ranked.sort_by_key(|&j| flows[cr[j].flow_idx as usize].size);
        for (rank, &j) in ranked.iter().enumerate() {
            let q = rank as f64 / cr.len() as f64;
            let pi = ((q * profile.len() as f64) as usize).min(profile.len() - 1);
            extra[cr[j].flow_idx as usize] += profile[pi].1;
        }
    }
    let stats = ClusterStats {
        total_channels: channels.len(),
        simulated_channels: simulated.len(),
    };
    (records(topo, flows, config, &extra), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_workload::prelude::*;

    fn small_workload(n: usize, load: f64) -> (FatTree, Vec<FlowSpec>, SimConfig) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: n,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: load,
            seed: 21,
        };
        (
            ft.clone(),
            generate(&ft, &routing, &sc).flows,
            SimConfig::default(),
        )
    }

    #[test]
    fn estimates_every_flow() {
        let (ft, flows, cfg) = small_workload(800, 0.4);
        let recs = parsimon_estimate(&ft.topo, &flows, &cfg);
        assert_eq!(recs.len(), flows.len());
        for r in &recs {
            assert!(r.est_fct >= r.ideal_fct, "estimate below ideal");
            assert!(r.slowdown() >= 1.0);
        }
    }

    #[test]
    fn single_link_decomposition_is_nearly_exact() {
        // When every flow crosses exactly one contended link, Parsimon's
        // assumption holds and it should track a full simulation closely.
        let mut topo = Topology::new();
        let s = topo.add_switch();
        let dst = topo.add_host();
        let dst_l = topo.add_link(dst, s, 10 * GBPS, USEC);
        let mut flows = Vec::new();
        for i in 0..12u32 {
            let h = topo.add_host();
            let l = topo.add_link(h, s, 10 * GBPS, USEC);
            flows.push(FlowSpec {
                id: i,
                src: h,
                dst,
                size: 80_000,
                arrival: i as u64 * 2_000,
                path: vec![l, dst_l],
            });
        }
        let cfg = SimConfig::default();
        let truth = run_simulation(&topo, cfg, flows.clone());
        let est = parsimon_estimate(&topo, &flows, &cfg);
        let t99: f64 = {
            let mut s: Vec<f64> = truth.records.iter().map(|r| r.slowdown()).collect();
            m3_netsim::stats::percentile_unsorted(&mut s, 99.0)
        };
        let e99: f64 = {
            let mut s: Vec<f64> = est.iter().map(|r| r.slowdown()).collect();
            m3_netsim::stats::percentile_unsorted(&mut s, 99.0)
        };
        let err = ((e99 - t99) / t99).abs();
        assert!(err < 0.5, "single-bottleneck p99: est {e99} vs truth {t99}");
    }

    #[test]
    fn overcounts_with_small_window_on_long_paths() {
        // Table 5 / Fig. 12 pathology: window-limited flows on multi-hop
        // paths get their transport-limited slowdown counted once per link.
        let (ft, flows, _) = small_workload(600, 0.3);
        let cfg = SimConfig {
            init_window: 5 * KB, // well below BDP
            ..SimConfig::default()
        };
        let truth = run_simulation(&ft.topo, cfg, flows.clone());
        let est = parsimon_estimate(&ft.topo, &flows, &cfg);
        // Compare mean slowdown of large flows (window-limited ones).
        let truth_mean: f64 = {
            let v: Vec<f64> = truth
                .records
                .iter()
                .filter(|r| r.size > 30_000)
                .map(|r| r.slowdown())
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        let est_mean: f64 = {
            let v: Vec<f64> = est
                .iter()
                .filter(|r| r.size > 30_000)
                .map(|r| r.slowdown())
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        assert!(
            est_mean > truth_mean,
            "Parsimon should overcount transport-limited slowdown: {est_mean} vs {truth_mean}"
        );
    }

    #[test]
    fn deterministic() {
        let (ft, flows, cfg) = small_workload(300, 0.4);
        let a = parsimon_estimate(&ft.topo, &flows, &cfg);
        let b = parsimon_estimate(&ft.topo, &flows, &cfg);
        assert_eq!(
            a.iter().map(|r| r.est_fct).collect::<Vec<_>>(),
            b.iter().map(|r| r.est_fct).collect::<Vec<_>>()
        );
    }
}

#[cfg(test)]
mod clustering_tests {
    use super::*;
    use m3_workload::prelude::*;

    fn workload() -> (FatTree, Vec<FlowSpec>, SimConfig) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: 2_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed: 33,
        };
        (
            ft.clone(),
            generate(&ft, &routing, &sc).flows,
            SimConfig::default(),
        )
    }

    #[test]
    fn clustering_reduces_simulated_channels() {
        let (ft, flows, cfg) = workload();
        let (_, stats) = parsimon_estimate_clustered(&ft.topo, &flows, &cfg);
        assert!(stats.simulated_channels < stats.total_channels);
        assert!(stats.simulated_channels > 0);
    }

    #[test]
    fn clustered_estimate_tracks_exact_parsimon() {
        let (ft, flows, cfg) = workload();
        let exact = parsimon_estimate(&ft.topo, &flows, &cfg);
        let (clustered, _) = parsimon_estimate_clustered(&ft.topo, &flows, &cfg);
        let p99 = |rs: &[ParsimonRecord]| -> f64 {
            let mut v: Vec<f64> = rs.iter().map(|r| r.slowdown()).collect();
            m3_netsim::stats::percentile_unsorted(&mut v, 99.0)
        };
        let (e, c) = (p99(&exact), p99(&clustered));
        let err = ((c - e) / e).abs();
        assert!(err < 0.5, "clustered p99 {c} vs exact {e} (err {err})");
    }

    #[test]
    fn every_flow_estimated_in_clustered_mode() {
        let (ft, flows, cfg) = workload();
        let (recs, _) = parsimon_estimate_clustered(&ft.topo, &flows, &cfg);
        assert_eq!(recs.len(), flows.len());
        for r in &recs {
            assert!(r.est_fct >= r.ideal_fct);
        }
    }
}
