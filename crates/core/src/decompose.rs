//! Path-level decomposition (§3.2, Eqs. 1-2) and weighted path sampling.
//!
//! A *path* is the full directed link sequence of some flow's route (host to
//! host). The foreground of a path is every flow with that exact route; the
//! background is every flow sharing at least one *directed* channel with it
//! (full-duplex links mean opposite-direction traffic does not contend).
//!
//! Decomposition is lazy: [`PathIndex::build`] lays the workload out as two
//! CSR tables (flow -> directed ports, directed port -> flows) and groups
//! flows by route; background sets are only materialized for the k sampled
//! paths, by merging the sorted flow lists of the path's ports.
//!
//! The index is purely *structural*: it records routes and ports, never
//! bandwidths, sizes or anything derived from them. An incremental session
//! keeps one index across `LinkCapacity` / `TrafficShift` / `CcKnob` deltas,
//! which change exactly those attributes.

use m3_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The directed ports (`link * 2 + (forward ? 0 : 1)`) of a flow's path, in
/// hop order. Expects a contiguous path, which [`validate_workload`]
/// enforces: a link that does not touch the current node would silently be
/// walked as if it did.
///
/// [`validate_workload`]: crate::error::validate_workload
pub(crate) fn directed_ports<'a>(
    topo: &'a Topology,
    flow: &'a FlowSpec,
) -> impl Iterator<Item = u32> + 'a {
    let mut cur = flow.src;
    flow.path.iter().map(move |&l| {
        let link = topo.link(l);
        let forward = link.a == cur;
        cur = if forward { link.b } else { link.a };
        l.0 * 2 + u32::from(!forward)
    })
}

/// The directed port sequence of a flow's path.
pub fn flow_ports(topo: &Topology, flow: &FlowSpec) -> Vec<usize> {
    directed_ports(topo, flow).map(|p| p as usize).collect()
}

/// Hasher for the route table of [`PathIndex::build`]: one rotate, xor and
/// multiply per 8-byte word of the key (the `FxHash` mix), where the
/// default SipHash is about half of the whole index build. The keys are
/// the directed-port slices of validated routes, already in memory, and the
/// table lives for one `build` call; a colliding workload costs that call
/// time, not correctness.
#[derive(Default)]
struct RouteHasher(u64);

impl RouteHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for RouteHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// The multiply leaves the low bits weakest; the table indexes by them.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// One populated path: its route and foreground flow indices.
#[derive(Debug, Clone)]
pub struct PathGroup {
    /// Indices into the global flow slice, ascending.
    pub foreground: Vec<u32>,
    /// Representative flow index (defines src/dst/route): the group's
    /// lowest flow index.
    pub rep: u32,
}

/// An exhausted port list in the background merge: no flow at its head
/// (flow indices are below `u32::MAX`) and nothing left.
const DONE: (u32, &[u32]) = (u32::MAX, &[]);

/// Paths of at most this many hops merge their background without a heap
/// allocation for the merge cursors (fat-tree routes have at most six).
const INLINE_HOPS: usize = 8;

/// The decomposition index over a workload.
///
/// Ordering invariants, which the bit-identity of estimates rests on:
/// `groups` is ascending in `rep`, every `foreground` list and every
/// port's flow list is ascending in flow index, and a flow's ports are in
/// hop order.
pub struct PathIndex {
    /// Populated paths, keyed by route, ascending in `rep`.
    pub groups: Vec<PathGroup>,
    /// Flow -> index of its group.
    group_of: Vec<u32>,
    /// `cumulative[g]` = foreground flows of groups `0..=g`: the sampling
    /// weights of [`sample_paths`](Self::sample_paths).
    cumulative: Vec<u64>,
    /// CSR flow -> directed ports in hop order: flow `i` owns
    /// `flow_port[flow_off[i]..flow_off[i + 1]]`.
    flow_off: Vec<u32>,
    flow_port: Vec<u32>,
    /// CSR directed port -> flows crossing it, ascending: port `p` owns
    /// `port_flow[port_off[p]..port_off[p + 1]]`.
    port_off: Vec<u32>,
    port_flow: Vec<u32>,
}

impl PathIndex {
    /// Index a workload. The flows must have passed
    /// [`validate_workload`](crate::error::validate_workload) (links in
    /// range, paths contiguous from `src`).
    pub fn build(topo: &Topology, flows: &[FlowSpec]) -> Self {
        assert!(flows.len() < u32::MAX as usize);
        let hops: usize = flows.iter().map(|f| f.path.len()).sum();
        assert!(hops <= u32::MAX as usize, "workload has too many hops");
        let n_ports = topo.link_count() * 2;

        // Pass 1: every flow's ports into one array, counting per port.
        let mut flow_off = Vec::with_capacity(flows.len() + 1);
        let mut flow_port = Vec::with_capacity(hops);
        let mut port_off = vec![0u32; n_ports + 1];
        flow_off.push(0);
        for f in flows {
            for p in directed_ports(topo, f) {
                port_off[p as usize + 1] += 1;
                flow_port.push(p);
            }
            flow_off.push(flow_port.len() as u32);
        }

        // Pass 2: counting sort inverts it. Flows are scattered in index
        // order, so every port's list comes out ascending.
        for p in 0..n_ports {
            port_off[p + 1] += port_off[p];
        }
        let mut cursor = port_off.clone();
        let mut port_flow = vec![0u32; hops];
        for (i, w) in flow_off.windows(2).enumerate() {
            for &p in &flow_port[w[0] as usize..w[1] as usize] {
                let c = &mut cursor[p as usize];
                port_flow[*c as usize] = i as u32;
                *c += 1;
            }
        }

        // Pass 3: group flows by route. The directed ports encode links and
        // direction, so equal port slices are equal routes from equal
        // sources. A new route's first flow is its representative, so
        // groups come out ascending in `rep` and members ascending.
        let mut groups: Vec<PathGroup> = Vec::new();
        let mut group_of = Vec::with_capacity(flows.len());
        {
            let mut by_route: HashMap<&[u32], u32, BuildHasherDefault<RouteHasher>> =
                HashMap::with_capacity_and_hasher(flows.len(), Default::default());
            for (i, w) in flow_off.windows(2).enumerate() {
                let route = &flow_port[w[0] as usize..w[1] as usize];
                let g = *by_route.entry(route).or_insert_with(|| {
                    groups.push(PathGroup {
                        foreground: Vec::new(),
                        rep: i as u32,
                    });
                    (groups.len() - 1) as u32
                });
                groups[g as usize].foreground.push(i as u32);
                group_of.push(g);
            }
        }
        let cumulative = groups
            .iter()
            .scan(0u64, |acc, g| {
                *acc += g.foreground.len() as u64;
                Some(*acc)
            })
            .collect();
        PathIndex {
            groups,
            group_of,
            cumulative,
            flow_off,
            flow_port,
            port_off,
            port_flow,
        }
    }

    pub fn num_paths(&self) -> usize {
        self.groups.len()
    }

    /// Directed ports of a flow's path, in hop order.
    fn ports_of(&self, flow: u32) -> &[u32] {
        let i = flow as usize;
        &self.flow_port[self.flow_off[i] as usize..self.flow_off[i + 1] as usize]
    }

    /// Flows crossing a directed port, ascending.
    fn flows_on(&self, port: u32) -> &[u32] {
        let p = port as usize;
        &self.port_flow[self.port_off[p] as usize..self.port_off[p + 1] as usize]
    }

    /// Weighted sampling of `k` paths with replacement, probability
    /// proportional to foreground flow count (§3.2). Returns group indices.
    pub fn sample_paths(&self, k: usize, seed: u64) -> Vec<usize> {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x736d706c);
        // No populated paths (or gen_range would reject an empty range):
        // return no samples and let the caller report the empty workload.
        let total = self.cumulative.last().copied().unwrap_or(0);
        if total == 0 {
            return Vec::new();
        }
        (0..k)
            .map(|_| {
                let u = rng.gen_range(0..total);
                self.cumulative.partition_point(|&c| c <= u)
            })
            .collect()
    }

    /// Visit the background of one path group, as
    /// [`background_of`](Self::background_of) lists it, without allocating
    /// the list.
    ///
    /// A k-way merge of the path's (already ascending) port lists: each
    /// step takes the lowest flow at any list head and consumes it from
    /// every list it heads, which yields the hops it shares.
    pub(crate) fn for_each_background(
        &self,
        group_idx: usize,
        mut visit: impl FnMut(u32, usize, usize),
    ) {
        let ports = self.ports_of(self.groups[group_idx].rep);
        // Per hop: the flow at the head of its list (`u32::MAX` once the
        // list is exhausted; flow indices are below it) and the rest.
        let mut inline = [DONE; INLINE_HOPS];
        let mut spill: Vec<(u32, &[u32])>;
        let lists: &mut [(u32, &[u32])] = if ports.len() <= INLINE_HOPS {
            &mut inline[..ports.len()]
        } else {
            spill = vec![DONE; ports.len()];
            &mut spill
        };
        fn pop(list: &[u32]) -> (u32, &[u32]) {
            list.split_first().map_or(DONE, |(&f, rest)| (f, rest))
        }
        for (list, &p) in lists.iter_mut().zip(ports) {
            *list = pop(self.flows_on(p));
        }
        loop {
            let flow = lists.iter().fold(u32::MAX, |m, l| m.min(l.0));
            if flow == u32::MAX {
                return;
            }
            let (mut first, mut last) = (usize::MAX, 0);
            for (hop, list) in lists.iter_mut().enumerate() {
                if list.0 == flow {
                    // `while`: a route revisiting a port lists the flow twice.
                    while list.0 == flow {
                        *list = pop(list.1);
                    }
                    first = first.min(hop);
                    last = hop;
                }
            }
            // Exclude foreground: identical route and direction (Eq. 2).
            if self.group_of[flow as usize] as usize != group_idx {
                visit(flow, first, last);
            }
        }
    }

    /// The background of one path group as `(flow, first_hop, last_hop)`,
    /// ascending in flow index: every flow outside the group sharing at
    /// least one directed port with its path, with the first and last
    /// shared hop indices on the path. Contiguity of the shared segment is
    /// the parking-lot abstraction of §3.2; non-contiguous intersections
    /// (rare under shortest-path ECMP) are widened to their span.
    pub fn background_of(&self, group_idx: usize) -> Vec<(u32, usize, usize)> {
        let mut bg = Vec::new();
        self.for_each_background(group_idx, |flow, first, last| bg.push((flow, first, last)));
        bg
    }

    /// The dirty-set computer: map a [`ScenarioDelta`] to exactly the path
    /// groups whose per-path scenario content can change under it, in
    /// ascending order. Groups outside this set keep a bit-identical
    /// [`scenario_fingerprint`] after the delta is folded in, which is what
    /// lets a session reuse their retained distributions.
    ///
    /// A delta that touches a flow's attributes (its size, or the bandwidth
    /// of a link it crosses) can only change a group's content if the flow
    /// is foreground (same route — shares every port) or background
    /// (shares a directed port by definition), so port sharing is exactly
    /// the reach of a flow-attribute change. Out-of-range links touch
    /// nothing (validation of delta targets happens upstream with a typed
    /// error).
    ///
    /// [`ScenarioDelta`]: crate::session::ScenarioDelta
    /// [`scenario_fingerprint`]: crate::cache::scenario_fingerprint
    pub fn dirty_groups(
        &self,
        flows: &[FlowSpec],
        delta: &crate::session::ScenarioDelta,
    ) -> Vec<usize> {
        let Some(touched) = self.touched_ports(flows, delta) else {
            return (0..self.groups.len()).collect();
        };
        (0..self.groups.len())
            .filter(|&g| self.crosses(&touched, g))
            .collect()
    }

    /// The directed ports crossed by any flow `delta` touches, as a bitmap;
    /// `None` when the delta dirties every group (a CC knob lands in the
    /// spec vector of every sampled scenario). Costs the flows the delta
    /// touches, so a caller that then asks [`PathIndex::crosses`] about a
    /// few groups (a session's sampled paths) pays for those only.
    pub(crate) fn touched_ports(
        &self,
        flows: &[FlowSpec],
        delta: &crate::session::ScenarioDelta,
    ) -> Option<Vec<bool>> {
        use crate::session::ScenarioDelta;
        let n_ports = self.port_off.len() - 1;
        let mut touched_port = vec![false; n_ports];
        let mut touch = |flow: u32| {
            for &p in self.ports_of(flow) {
                touched_port[p as usize] = true;
            }
        };
        match delta {
            ScenarioDelta::CcKnob { .. } => return None,
            ScenarioDelta::LinkDown { link }
            | ScenarioDelta::LinkUp { link }
            | ScenarioDelta::LinkCapacity { link, .. } => {
                for port in [*link as usize * 2, *link as usize * 2 + 1] {
                    if port < n_ports {
                        self.flows_on(port as u32).iter().for_each(|&f| touch(f));
                    }
                }
            }
            ScenarioDelta::TrafficShift { src, dst, .. } => {
                for (i, f) in flows.iter().enumerate() {
                    if src.is_none_or(|s| f.src.index() == s as usize)
                        && dst.is_none_or(|d| f.dst.index() == d as usize)
                    {
                        touch(i as u32);
                    }
                }
            }
        }
        Some(touched_port)
    }

    /// Does group `g`'s path cross a port of `touched`
    /// ([`PathIndex::touched_ports`])?
    pub(crate) fn crosses(&self, touched: &[bool], g: usize) -> bool {
        self.ports_of(self.groups[g].rep)
            .iter()
            .any(|&p| touched[p as usize])
    }

    /// Foreground flow indices of a group.
    pub fn foreground_of(&self, group_idx: usize) -> &[u32] {
        &self.groups[group_idx].foreground
    }

    /// The representative flow defining the path of a group.
    pub fn rep_flow<'f>(&self, group_idx: usize, flows: &'f [FlowSpec]) -> &'f FlowSpec {
        &flows[self.groups[group_idx].rep as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_workload::prelude::*;

    fn workload() -> (FatTree, Vec<FlowSpec>) {
        let ft = FatTree::build(FatTreeSpec::small(2));
        let routing = Routing::new(&ft.topo);
        let sc = Scenario {
            n_flows: 3_000,
            matrix_name: "B".into(),
            sizes: SizeDistribution::web_server(),
            sigma: 1.0,
            max_load: 0.4,
            seed: 5,
        };
        let w = generate(&ft, &routing, &sc);
        (ft, w.flows)
    }

    #[test]
    fn groups_partition_flows() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        let total: usize = idx.groups.iter().map(|g| g.foreground.len()).sum();
        assert_eq!(total, flows.len(), "every flow in exactly one group");
        for g in &idx.groups {
            let rep = &flows[g.rep as usize];
            for &fi in &g.foreground {
                let f = &flows[fi as usize];
                assert_eq!(f.path, rep.path);
                assert_eq!(f.src, rep.src);
            }
        }
    }

    #[test]
    fn background_shares_a_directed_port() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        let g = idx
            .groups
            .iter()
            .enumerate()
            .max_by_key(|(_, g)| g.foreground.len())
            .unwrap()
            .0;
        let bg = idx.background_of(g);
        assert!(!bg.is_empty(), "popular path should have background");
        let rep_ports = flow_ports(&ft.topo, idx.rep_flow(g, &flows));
        for (fi, a, b) in &bg {
            assert!(a <= b && *b < rep_ports.len());
            let f = &flows[*fi as usize];
            let fp = flow_ports(&ft.topo, f);
            assert!(
                fp.iter().any(|p| rep_ports.contains(p)),
                "background flow must share a directed port"
            );
            // Background is not foreground.
            assert!(
                !(f.path == idx.rep_flow(g, &flows).path && f.src == idx.rep_flow(g, &flows).src)
            );
        }
    }

    #[test]
    fn opposite_direction_is_not_background() {
        // Two hosts, two flows in opposite directions on the same links.
        let mut topo = Topology::new();
        let a = topo.add_host();
        let s = topo.add_switch();
        let b = topo.add_host();
        let l1 = topo.add_link(a, s, 10 * GBPS, USEC);
        let l2 = topo.add_link(s, b, 10 * GBPS, USEC);
        let flows = vec![
            FlowSpec {
                id: 0,
                src: a,
                dst: b,
                size: 1000,
                arrival: 0,
                path: vec![l1, l2],
            },
            FlowSpec {
                id: 1,
                src: b,
                dst: a,
                size: 1000,
                arrival: 0,
                path: vec![l2, l1],
            },
        ];
        let idx = PathIndex::build(&topo, &flows);
        assert_eq!(idx.num_paths(), 2);
        for g in 0..2 {
            assert!(
                idx.background_of(g).is_empty(),
                "reverse traffic shares no directed channel"
            );
        }
    }

    #[test]
    fn weighted_sampling_prefers_popular_paths() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        let samples = idx.sample_paths(2000, 1);
        // The most popular group should be sampled more often than a
        // singleton group.
        let popular = idx
            .groups
            .iter()
            .enumerate()
            .max_by_key(|(_, g)| g.foreground.len())
            .unwrap();
        let singleton = idx
            .groups
            .iter()
            .enumerate()
            .find(|(_, g)| g.foreground.len() == 1)
            .map(|(i, _)| i);
        let count_pop = samples.iter().filter(|&&s| s == popular.0).count();
        if let Some(single) = singleton {
            let count_single = samples.iter().filter(|&&s| s == single).count();
            assert!(count_pop >= count_single);
        }
        assert!(count_pop >= 1);
    }

    #[test]
    fn sampling_is_deterministic() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        assert_eq!(idx.sample_paths(50, 7), idx.sample_paths(50, 7));
        assert_ne!(idx.sample_paths(50, 7), idx.sample_paths(50, 8));
    }
}
