//! Network topology: nodes, links, and builders for the topologies used in
//! the paper (fat trees for full-network experiments, parking lots for
//! path-level experiments).
//!
//! Links are full duplex: a [`Link`] owns two independent directed channels,
//! addressed by a [`PortId`] = (link, direction). The simulator serializes
//! packets per directed channel.

use crate::units::{Bps, Bytes, Nanos, GBPS, USEC};
use serde::{Deserialize, Serialize};

/// Identifier of a node (host or switch). Dense indices into `Topology::nodes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of an undirected link. Dense indices into `Topology::links`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// A directed channel of a link: `forward` carries traffic from `link.a` to
/// `link.b`, the reverse direction from `link.b` to `link.a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PortId {
    pub link: LinkId,
    pub forward: bool,
}

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is. Hosts source and sink flows; switches forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    Host,
    Switch,
}

/// An undirected full-duplex link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    /// Capacity of each direction, bits per second.
    pub bandwidth: Bps,
    /// One-way propagation delay.
    pub delay: Nanos,
}

impl Link {
    /// The endpoint reached when traversing the link from `from`.
    #[inline]
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else {
            debug_assert_eq!(from, self.b);
            self.a
        }
    }
}

/// A network topology: nodes, links, adjacency.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeKind>,
    links: Vec<Link>,
    /// adjacency[v] = (neighbor, link) pairs.
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(kind);
        self.adj.push(Vec::new());
        id
    }

    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    pub fn add_link(&mut self, a: NodeId, b: NodeId, bandwidth: Bps, delay: Nanos) -> LinkId {
        assert!(a != b, "self-loops are not allowed");
        assert!(bandwidth > 0, "link bandwidth must be positive");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            bandwidth,
            delay,
        });
        self.adj[a.index()].push((b, id));
        self.adj[b.index()].push((a, id));
        id
    }

    /// Re-provision a link's per-direction capacity in place. Used by
    /// incremental scenario sessions to fold `LinkCapacity` deltas without
    /// rebuilding the topology; the same positivity invariant as
    /// [`Topology::add_link`] applies.
    pub fn set_link_bandwidth(&mut self, l: LinkId, bandwidth: Bps) {
        assert!(bandwidth > 0, "link bandwidth must be positive");
        self.links[l.index()].bandwidth = bandwidth;
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[n.index()]
    }

    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeKind)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, &k)| (NodeId(i as u32), k))
    }

    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter_map(|(id, k)| match k {
            NodeKind::Host => Some(id),
            NodeKind::Switch => None,
        })
    }

    /// The switch a host hangs off, and the access link. Hosts in every
    /// topology this crate builds have exactly one link.
    pub fn access_switch(&self, host: NodeId) -> (NodeId, LinkId) {
        debug_assert_eq!(self.kind(host), NodeKind::Host);
        let nbrs = self.neighbors(host);
        assert_eq!(
            nbrs.len(),
            1,
            "host {host:?} must have exactly one access link"
        );
        nbrs[0]
    }

    /// The capacity of a host's NIC (its single access link).
    pub fn host_nic_bandwidth(&self, host: NodeId) -> Bps {
        let (_, l) = self.access_switch(host);
        self.link(l).bandwidth
    }

    /// Minimum bandwidth along a sequence of links.
    pub fn bottleneck_bandwidth(&self, path: &[LinkId]) -> Bps {
        path.iter()
            .map(|&l| self.link(l).bandwidth)
            .min()
            .expect("path must be non-empty")
    }

    /// Analytic unloaded flow completion time for a flow of `size` bytes over
    /// `path`, with per-packet store-and-forward pipelining of `mtu`-byte
    /// packets. This is the denominator of FCT slowdown everywhere in the
    /// repo, so the same definition is used by netsim, flowSim, Parsimon and
    /// m3.
    ///
    /// The flow is chopped into ceil(size/mtu) packets. The last packet's
    /// arrival time at the receiver equals the sum of propagation delays,
    /// plus the serialization of the whole flow on the slowest link, plus the
    /// serialization of one packet on every other link (pipelining).
    pub fn ideal_fct(&self, path: &[LinkId], size: Bytes, mtu: Bytes) -> Nanos {
        assert!(
            !path.is_empty(),
            "flow path must traverse at least one link"
        );
        let size = size.max(1);
        let n_pkts = size.div_ceil(mtu);
        let last_pkt = size - (n_pkts - 1) * mtu; // bytes in final packet
        let min_bw = self.bottleneck_bandwidth(path);
        let mut t: Nanos = 0;
        // Whole flow serialized on the bottleneck link.
        t += crate::units::tx_time(size, min_bw);
        let mut seen_bottleneck = false;
        // The last pipelined term, reused while consecutive links share a
        // rate (a fabric's core links do): it depends on the rate only.
        let mut pipelined: Option<(Bps, Nanos)> = None;
        for &l in path {
            let link = self.link(l);
            t += link.delay;
            if link.bandwidth == min_bw && !seen_bottleneck {
                seen_bottleneck = true; // already counted in full
            } else {
                // Pipelined: only the final packet's serialization adds latency.
                t += match pipelined {
                    Some((bw, term)) if bw == link.bandwidth => term,
                    _ => {
                        let term = crate::units::tx_time(last_pkt, link.bandwidth);
                        pipelined = Some((link.bandwidth, term));
                        term
                    }
                };
            }
        }
        t
    }
}

/// Parameters for a two-tier-pod fat-tree (host – ToR – Agg – Spine), the
/// topology family used in §5.1/§5.2/§5.3 of the paper.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FatTreeSpec {
    pub pods: usize,
    pub racks_per_pod: usize,
    pub hosts_per_rack: usize,
    /// Aggregation switches per pod; every ToR in the pod links to each.
    pub aggs_per_pod: usize,
    /// Spine switches; every agg links to each spine.
    pub spines: usize,
    pub host_bandwidth: Bps,
    /// ToR–Agg and Agg–Spine link capacity.
    pub fabric_bandwidth: Bps,
    /// Per-hop propagation delay.
    pub hop_delay: Nanos,
}

impl FatTreeSpec {
    /// The 32-rack, 256-host topology of §5.2: two pods of 16 racks, eight
    /// hosts per rack, 10 Gbps hosts, 40 Gbps fabric. The paper reflects
    /// oversubscription in the spine count; `oversub` of 1, 2 or 4 maps to
    /// 8, 4 or 2 spines.
    pub fn small(oversub: usize) -> Self {
        assert!(
            matches!(oversub, 1 | 2 | 4),
            "paper uses 1-to-1, 2-to-1 or 4-to-1 oversubscription"
        );
        FatTreeSpec {
            pods: 2,
            racks_per_pod: 16,
            hosts_per_rack: 8,
            aggs_per_pod: 2,
            spines: 8 / oversub,
            host_bandwidth: 10 * GBPS,
            fabric_bandwidth: 40 * GBPS,
            hop_delay: USEC,
        }
    }

    /// The 384-rack, 6144-host topology of §5.3 (Meta fabric inspired):
    /// eight pods of 48 racks, 16 hosts per rack, 2-to-1 core
    /// oversubscription by default.
    pub fn large() -> Self {
        FatTreeSpec {
            pods: 8,
            racks_per_pod: 48,
            hosts_per_rack: 16,
            aggs_per_pod: 4,
            spines: 24,
            host_bandwidth: 10 * GBPS,
            fabric_bandwidth: 40 * GBPS,
            hop_delay: USEC,
        }
    }

    pub fn total_hosts(&self) -> usize {
        self.pods * self.racks_per_pod * self.hosts_per_rack
    }

    pub fn total_racks(&self) -> usize {
        self.pods * self.racks_per_pod
    }
}

/// A built fat tree, retaining the index structure so workloads can address
/// racks and hosts.
#[derive(Debug, Clone)]
pub struct FatTree {
    pub topo: Topology,
    pub spec: FatTreeSpec,
    /// `hosts[rack][i]` = NodeId, racks numbered pod-major.
    pub hosts: Vec<Vec<NodeId>>,
    pub tors: Vec<NodeId>,
    pub aggs: Vec<Vec<NodeId>>,
    pub spines: Vec<NodeId>,
}

impl FatTree {
    pub fn build(spec: FatTreeSpec) -> Self {
        let mut topo = Topology::new();
        let mut tors = Vec::new();
        let mut hosts = Vec::new();
        let mut aggs = Vec::new();
        let spines: Vec<NodeId> = (0..spec.spines).map(|_| topo.add_switch()).collect();

        for _pod in 0..spec.pods {
            let pod_aggs: Vec<NodeId> = (0..spec.aggs_per_pod).map(|_| topo.add_switch()).collect();
            for &agg in &pod_aggs {
                for &spine in &spines {
                    topo.add_link(agg, spine, spec.fabric_bandwidth, spec.hop_delay);
                }
            }
            for _rack in 0..spec.racks_per_pod {
                let tor = topo.add_switch();
                for &agg in &pod_aggs {
                    topo.add_link(tor, agg, spec.fabric_bandwidth, spec.hop_delay);
                }
                let mut rack_hosts = Vec::with_capacity(spec.hosts_per_rack);
                for _h in 0..spec.hosts_per_rack {
                    let host = topo.add_host();
                    topo.add_link(host, tor, spec.host_bandwidth, spec.hop_delay);
                    rack_hosts.push(host);
                }
                tors.push(tor);
                hosts.push(rack_hosts);
            }
            aggs.push(pod_aggs);
        }
        FatTree {
            topo,
            spec,
            hosts,
            tors,
            aggs,
            spines,
        }
    }

    /// All hosts, rack-major.
    pub fn all_hosts(&self) -> Vec<NodeId> {
        self.hosts.iter().flatten().copied().collect()
    }
}

/// A parking-lot topology (Fig. 7(a)): a chain of switches joined by the
/// "original" path links, a foreground source/sink host at the ends, and
/// synthetic attachment links added per background flow endpoint.
#[derive(Debug, Clone)]
pub struct ParkingLot {
    pub topo: Topology,
    /// Switches s_0 .. s_n along the path.
    pub switches: Vec<NodeId>,
    /// The n original links (s_i, s_{i+1}) in order.
    pub path_links: Vec<LinkId>,
    /// Foreground source host (attached to s_0) and sink host (attached to s_n).
    pub fg_src: NodeId,
    pub fg_dst: NodeId,
}

impl ParkingLot {
    /// Build a parking lot whose path crosses `n_hops` switch-to-switch links.
    /// The foreground path is fg_src -> s_0 -> ... -> s_n -> fg_dst, so it
    /// traverses `n_hops + 2` links in total, matching the paper's "2/4/6
    /// hop" scenarios when counting only switch-to-switch links.
    pub fn build(
        n_hops: usize,
        link_bandwidth: Bps,
        host_bandwidth: Bps,
        hop_delay: Nanos,
    ) -> Self {
        assert!(n_hops >= 1, "parking lot needs at least one path link");
        let mut topo = Topology::new();
        let switches: Vec<NodeId> = (0..=n_hops).map(|_| topo.add_switch()).collect();
        let mut path_links = Vec::with_capacity(n_hops);
        for w in switches.windows(2) {
            path_links.push(topo.add_link(w[0], w[1], link_bandwidth, hop_delay));
        }
        let fg_src = topo.add_host();
        topo.add_link(fg_src, switches[0], host_bandwidth, hop_delay);
        let fg_dst = topo.add_host();
        topo.add_link(fg_dst, *switches.last().unwrap(), host_bandwidth, hop_delay);
        ParkingLot {
            topo,
            switches,
            path_links,
            fg_src,
            fg_dst,
        }
    }

    /// Attach a background host at switch `at` (index into `switches`) with
    /// the given NIC capacity; used as the source or sink of one background
    /// flow so background flows never contend artificially with each other
    /// off-path (§3.2).
    pub fn attach_background_host(
        &mut self,
        at: usize,
        nic_bandwidth: Bps,
        delay: Nanos,
    ) -> NodeId {
        let h = self.topo.add_host();
        self.topo
            .add_link(h, self.switches[at], nic_bandwidth, delay);
        h
    }

    /// The full foreground path (access link, path links, egress link).
    pub fn foreground_path(&self) -> Vec<LinkId> {
        let (_, first) = self.topo.access_switch(self.fg_src);
        let (_, last) = self.topo.access_switch(self.fg_dst);
        let mut p = vec![first];
        p.extend_from_slice(&self.path_links);
        p.push(last);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fat_tree_shape() {
        let ft = FatTree::build(FatTreeSpec::small(4));
        assert_eq!(ft.tors.len(), 32);
        assert_eq!(ft.all_hosts().len(), 256);
        assert_eq!(ft.spines.len(), 2);
        // nodes = 2 spines + 2 pods * (2 aggs + 16 tors + 128 hosts)
        assert_eq!(ft.topo.node_count(), 2 + 2 * (2 + 16 + 128));
        // links = aggs*spines + tors*aggs_per_pod + hosts
        assert_eq!(ft.topo.link_count(), 4 * 2 + 32 * 2 + 256);
    }

    #[test]
    fn large_fat_tree_shape() {
        let spec = FatTreeSpec::large();
        assert_eq!(spec.total_racks(), 384);
        assert_eq!(spec.total_hosts(), 6144);
    }

    #[test]
    fn oversub_scales_spines() {
        assert_eq!(FatTreeSpec::small(1).spines, 8);
        assert_eq!(FatTreeSpec::small(2).spines, 4);
        assert_eq!(FatTreeSpec::small(4).spines, 2);
    }

    #[test]
    fn parking_lot_shape() {
        let pl = ParkingLot::build(4, 40 * GBPS, 10 * GBPS, USEC);
        assert_eq!(pl.switches.len(), 5);
        assert_eq!(pl.path_links.len(), 4);
        assert_eq!(pl.foreground_path().len(), 6);
    }

    #[test]
    fn ideal_fct_single_link_single_packet() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        let l = topo.add_link(a, b, 10 * GBPS, 1000);
        // 1000B over one 10G link: 800ns serialization + 1000ns delay.
        assert_eq!(topo.ideal_fct(&[l], 1000, 1000), 1800);
    }

    #[test]
    fn ideal_fct_pipelines_across_hops() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let s = topo.add_switch();
        let b = topo.add_host();
        let l1 = topo.add_link(a, s, 10 * GBPS, 1000);
        let l2 = topo.add_link(s, b, 10 * GBPS, 1000);
        // 2000B = 2 pkts of 1000B. Full serialization on one link (1600ns)
        // + final-packet serialization on the other (800ns) + 2*1000ns delay.
        assert_eq!(topo.ideal_fct(&[l1, l2], 2000, 1000), 1600 + 800 + 2000);
    }

    #[test]
    fn ideal_fct_respects_bottleneck() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let s = topo.add_switch();
        let b = topo.add_host();
        let slow = topo.add_link(a, s, GBPS, 0);
        let fast = topo.add_link(s, b, 10 * GBPS, 0);
        let fct = topo.ideal_fct(&[slow, fast], 10_000, 1000);
        // Whole flow on 1G: 80_000ns; final pkt on 10G: 800ns.
        assert_eq!(fct, 80_000 + 800);
    }

    /// The reused pipelined term against the per-link formula, on paths
    /// mixing rates: runs of equal rates, rates that come back after
    /// another, and a bottleneck rate on several links (one counted in
    /// full, the others pipelined).
    #[test]
    fn ideal_fct_matches_the_per_link_formula_on_mixed_rates() {
        let per_link = |topo: &Topology, path: &[LinkId], size: Bytes, mtu: Bytes| {
            let size = size.max(1);
            let last_pkt = size - (size.div_ceil(mtu) - 1) * mtu;
            let min_bw = topo.bottleneck_bandwidth(path);
            let mut t = crate::units::tx_time(size, min_bw);
            let mut seen_bottleneck = false;
            for &l in path {
                let link = topo.link(l);
                t += link.delay;
                if link.bandwidth == min_bw && !seen_bottleneck {
                    seen_bottleneck = true;
                } else {
                    t += crate::units::tx_time(last_pkt, link.bandwidth);
                }
            }
            t
        };
        let mut topo = Topology::new();
        let rates = [10, 40, 40, 25, 10, 100, 40, 10, 3];
        let nodes: Vec<NodeId> = (0..=rates.len()).map(|_| topo.add_switch()).collect();
        let links: Vec<LinkId> = (rates.iter().enumerate())
            .map(|(i, &r)| topo.add_link(nodes[i], nodes[i + 1], r * GBPS, 100 * i as u64))
            .collect();
        let paths: [&[usize]; 6] = [
            &[0, 1, 2, 3, 4],
            &[1, 2],
            &[0, 4, 7],
            &[5, 6, 6, 1, 0],
            &[3, 8, 3, 8],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],
        ];
        for path in paths {
            let path: Vec<LinkId> = path.iter().map(|&i| links[i]).collect();
            for (size, mtu) in [
                (0, 1000),
                (1, 1000),
                (999, 1000),
                (4_321, 1000),
                (1 << 30, 4096),
            ] {
                assert_eq!(
                    topo.ideal_fct(&path, size, mtu),
                    per_link(&topo, &path, size, mtu),
                    "path {path:?}, size {size}, mtu {mtu}"
                );
            }
        }
    }

    #[test]
    fn host_nic_bandwidth_lookup() {
        let pl = ParkingLot::build(2, 40 * GBPS, 10 * GBPS, USEC);
        assert_eq!(pl.topo.host_nic_bandwidth(pl.fg_src), 10 * GBPS);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        topo.add_link(a, a, GBPS, 0);
    }
}
