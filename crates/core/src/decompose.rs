//! Path-level decomposition (§3.2, Eqs. 1-2) and weighted path sampling.
//!
//! A *path* is the full directed link sequence of some flow's route (host to
//! host). The foreground of a path is every flow with that exact route; the
//! background is every flow sharing at least one *directed* channel with it
//! (full-duplex links mean opposite-direction traffic does not contend).
//!
//! Decomposition is lazy: [`PathIndex::build`] lays the workload out as three
//! CSR tables (flow -> directed ports, directed port -> flows, path group ->
//! foreground flows), grouping flows by route through one open-addressed
//! table of group ids. No allocation is made per route or per flow; a
//! background is only read for the sampled paths, by one scan of the flow
//! lists of the path's ports into a flow bitmap (`PathIndex::background`).
//!
//! The index is purely *structural*: it records routes and ports, never
//! bandwidths, sizes or anything derived from them. An incremental session
//! keeps one index across `LinkCapacity` / `TrafficShift` / `CcKnob` deltas,
//! which change exactly those attributes.

use m3_netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;

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

/// One step of the route hash of [`PathIndex::build`]: a rotate, xor and
/// multiply per port (the `FxHash` mix), seeded by the hop count. The
/// route table indexes by the top bits, which the multiply mixes best.
/// Equal routes hash equal; a colliding workload costs probes, not
/// correctness, since a match also compares the port slices.
#[inline]
fn route_mix(h: u64, port: u32) -> u64 {
    (h.rotate_left(5) ^ u64::from(port)).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// An empty slot of the route table.
const NO_GROUP: u32 = u32::MAX;

/// Pass 3 of [`PathIndex::build`]: group flows by route. Flow `i`'s route
/// is `flow_port[flow_off[i]..flow_off[i + 1]]` and `hash[i]` any hash of
/// it under which equal routes are equal. The directed ports encode links
/// and direction, so equal port slices are equal routes from equal
/// sources. A new route's first flow is its representative, so groups come
/// out ascending in `rep`. Returns the groups and flow -> group.
///
/// The table is an open-addressed array of group ids: a power of two of at
/// least `2F` slots, probed linearly from the hash's top bits; a slot
/// matches when its group's representative has an equal hash and an equal
/// port slice.
fn group_routes(flow_off: &[u32], flow_port: &[u32], hash: &[u64]) -> (Vec<PathGroup>, Vec<u32>) {
    let n = hash.len();
    let route = |i: usize| &flow_port[flow_off[i] as usize..flow_off[i + 1] as usize];
    let bits = (2 * n).max(2).next_power_of_two().trailing_zeros();
    let mask = (1usize << bits) - 1;
    let mut table = vec![NO_GROUP; mask + 1];
    let mut groups: Vec<PathGroup> = Vec::new();
    let mut group_of = Vec::with_capacity(n);
    for (i, &h) in hash.iter().enumerate() {
        let mut s = (h >> (64 - bits)) as usize;
        let g = loop {
            let g = table[s];
            if g == NO_GROUP {
                table[s] = groups.len() as u32;
                groups.push(PathGroup { rep: i as u32 });
                break table[s];
            }
            let rep = groups[g as usize].rep as usize;
            if hash[rep] == h && route(rep) == route(i) {
                break g;
            }
            s = (s + 1) & mask;
        };
        group_of.push(g);
    }
    (groups, group_of)
}

/// One populated path, defined by its representative flow. Its foreground
/// is [`PathIndex::foreground_of`].
#[derive(Debug, Clone)]
pub struct PathGroup {
    /// Representative flow index (defines src/dst/route): the group's
    /// lowest flow index.
    pub rep: u32,
}

/// Scratch of [`PathIndex::background`]: per flow, the first and last
/// shared hop of the scan in progress as `first << 16 | last` (hop indices
/// are below 2^16, which
/// [`validate_workload`](crate::error::validate_workload) enforces), valid
/// where the flow's bit in `seen` is set. `seen` is all-zero between scans,
/// so one value serves any number of scans over any index; it grows to the
/// largest flow count it has scanned and never shrinks.
#[derive(Default)]
pub(crate) struct BackgroundScan {
    span: Vec<u32>,
    seen: Vec<u64>,
}

impl BackgroundScan {
    /// Run `f` on this thread's scratch, checked out for the call and put
    /// back after it: a thread that has scanned an index as large before
    /// allocates nothing for it. A nested call, or one after a panic
    /// mid-scan lost the checkout, starts from an empty scratch.
    pub(crate) fn with<R>(f: impl FnOnce(&mut BackgroundScan) -> R) -> R {
        thread_local! {
            static SCAN: Cell<BackgroundScan> = const {
                Cell::new(BackgroundScan { span: Vec::new(), seen: Vec::new() })
            };
        }
        let mut scan = SCAN.take();
        let out = f(&mut scan);
        SCAN.set(scan);
        out
    }
}

/// The background of one path group as a [`BackgroundScan`] holds it
/// ([`PathIndex::background`]): `(flow, first_hop, last_hop)`, ascending
/// in flow index. Reading a bitmap word clears it, and dropping the
/// iterator clears the words left unread, so the scan is all-zero again.
pub(crate) struct Background<'s> {
    span: &'s [u32],
    seen: &'s mut [u64],
    /// The bitmap words not read yet.
    words: std::ops::Range<usize>,
    /// The unvisited flows of the word read last.
    bits: u64,
    /// Flows not visited yet.
    left: usize,
}

impl Background<'_> {
    /// The flow of the lowest bit of `bits`, in word `w - 1`, with its span.
    #[inline]
    fn flow(&self, w: usize, bits: u64) -> (u32, usize, usize) {
        let f = ((w - 1) * 64) as u32 + bits.trailing_zeros();
        let s = self.span[f as usize];
        (f, (s >> 16) as usize, (s & 0xffff) as usize)
    }
}

impl Iterator for Background<'_> {
    type Item = (u32, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        while self.bits == 0 {
            let w = self.words.next()?;
            self.bits = std::mem::take(&mut self.seen[w]);
        }
        let item = self.flow(self.words.start, self.bits);
        self.bits &= self.bits - 1;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }

    /// [`next`](Self::next)'s loop, one word at a time. Keying folds over
    /// every background flow, and with the default `fold` over `next`
    /// `warm_sweep` p50 read ~8 % slower (EXPERIMENTS.md, "Key a path at
    /// the cost of its port lists").
    fn fold<B, F: FnMut(B, Self::Item) -> B>(mut self, init: B, mut f: F) -> B {
        let mut acc = init;
        loop {
            while self.bits != 0 {
                let item = self.flow(self.words.start, self.bits);
                self.bits &= self.bits - 1;
                acc = f(acc, item);
            }
            let Some(w) = self.words.next() else {
                return acc;
            };
            self.bits = std::mem::take(&mut self.seen[w]);
        }
    }
}

impl ExactSizeIterator for Background<'_> {}

impl Drop for Background<'_> {
    fn drop(&mut self) {
        self.seen[self.words.clone()].fill(0);
    }
}

/// The decomposition index over a workload.
///
/// Ordering invariants, which the bit-identity of estimates rests on:
/// `groups` is ascending in `rep`, every foreground list and every port's
/// flow list is ascending in flow index, and a flow's ports are in hop
/// order.
pub struct PathIndex {
    /// Populated paths, keyed by route, ascending in `rep`.
    pub groups: Vec<PathGroup>,
    /// Flow -> index of its group.
    group_of: Vec<u32>,
    /// CSR group -> foreground flows, ascending: group `g` owns
    /// `group_flow[group_off[g]..group_off[g + 1]]`. `group_off[g + 1]` is
    /// the foreground count of groups `0..=g`: the sampling weights of
    /// [`sample_paths`](Self::sample_paths).
    group_off: Vec<u32>,
    group_flow: Vec<u32>,
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

        // Pass 1: every flow's ports into one array, counting per port and
        // hashing each route as it is emitted.
        let mut flow_off = Vec::with_capacity(flows.len() + 1);
        let mut flow_port = Vec::with_capacity(hops);
        let mut hash = Vec::with_capacity(flows.len());
        let mut port_off = vec![0u32; n_ports + 1];
        flow_off.push(0);
        for f in flows {
            let mut h = f.path.len() as u64;
            for p in directed_ports(topo, f) {
                port_off[p as usize + 1] += 1;
                flow_port.push(p);
                h = route_mix(h, p);
            }
            flow_off.push(flow_port.len() as u32);
            hash.push(h);
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

        // Pass 3: group flows by route.
        let (groups, group_of) = group_routes(&flow_off, &flow_port, &hash);
        drop(hash);

        // Pass 4: a counting sort over `group_of` lays out the foregrounds,
        // each ascending since flows are scattered in index order.
        let mut group_off = vec![0u32; groups.len() + 1];
        for &g in &group_of {
            group_off[g as usize + 1] += 1;
        }
        for g in 0..groups.len() {
            group_off[g + 1] += group_off[g];
        }
        let mut cursor = group_off.clone();
        let mut group_flow = vec![0u32; flows.len()];
        for (i, &g) in group_of.iter().enumerate() {
            let c = &mut cursor[g as usize];
            group_flow[*c as usize] = i as u32;
            *c += 1;
        }
        PathIndex {
            groups,
            group_of,
            group_off,
            group_flow,
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
        let weights = &self.group_off[1..];
        let total = weights.last().map_or(0, |&c| u64::from(c));
        if total == 0 {
            return Vec::new();
        }
        (0..k)
            .map(|_| {
                let u = rng.gen_range(0..total);
                weights.partition_point(|&c| u64::from(c) <= u)
            })
            .collect()
    }

    /// The background of one path group, as
    /// [`background_of`](Self::background_of) lists it, read out of
    /// `scan`'s scratch without allocating.
    ///
    /// One pass over the path's port lists, in hop order, marks each flow
    /// on them in a flow bitmap and records its first and last shared hop
    /// (a route revisiting a port lists the flow twice, and the later visit
    /// only moves the last hop). The foreground (identical route and
    /// direction, Eq. 2) is on every port and is unmarked. The returned
    /// iterator reads the bitmap word by word, so it visits the background
    /// ascending in flow index.
    pub(crate) fn background<'s>(
        &self,
        group_idx: usize,
        scan: &'s mut BackgroundScan,
    ) -> Background<'s> {
        let n = self.group_of.len();
        if scan.span.len() < n {
            scan.span.resize(n, 0);
            scan.seen.resize(n.div_ceil(64), 0);
        }
        let (span, seen) = (&mut scan.span[..n], &mut scan.seen[..n.div_ceil(64)]);
        // The bitmap words the port lists reach: each list is ascending.
        let (mut lo, mut hi) = (n, 0);
        for (hop, &p) in self.ports_of(self.groups[group_idx].rep).iter().enumerate() {
            let flows = self.flows_on(p);
            if let (Some(&a), Some(&b)) = (flows.first(), flows.last()) {
                lo = lo.min(a as usize / 64);
                hi = hi.max(b as usize / 64 + 1);
            }
            let hop = hop as u32;
            for &f in flows {
                let (w, bit) = (f as usize / 64, f % 64);
                // All ones if the flow was met at an earlier hop, whose
                // first hop stands; else this hop is its first.
                let met = 0u32.wrapping_sub((seen[w] >> bit) as u32 & 1);
                let s = &mut span[f as usize];
                *s = ((*s >> 16) & met | hop & !met) << 16 | hop;
                seen[w] |= 1 << bit;
            }
        }
        for &f in self.foreground_of(group_idx) {
            seen[f as usize / 64] &= !(1 << (f % 64));
        }
        let words = lo.min(hi)..hi;
        let left = seen[words.clone()]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        Background {
            span,
            seen,
            words,
            bits: 0,
            left,
        }
    }

    /// The background of one path group as `(flow, first_hop, last_hop)`,
    /// ascending in flow index: every flow outside the group sharing at
    /// least one directed port with its path, with the first and last
    /// shared hop indices on the path. Contiguity of the shared segment is
    /// the parking-lot abstraction of §3.2; non-contiguous intersections
    /// (rare under shortest-path ECMP) are widened to their span.
    pub fn background_of(&self, group_idx: usize) -> Vec<(u32, usize, usize)> {
        BackgroundScan::with(|scan| self.background(group_idx, scan).collect())
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

    /// Foreground flow indices of a group, ascending.
    pub fn foreground_of(&self, group_idx: usize) -> &[u32] {
        let (a, b) = (self.group_off[group_idx], self.group_off[group_idx + 1]);
        &self.group_flow[a as usize..b as usize]
    }

    /// Every flow on a port of the routes of `groups`, as a bitmap over flow
    /// indices (bit `i % 64` of word `i / 64`): exactly the union of their
    /// foregrounds and backgrounds. Costs the groups' port lists plus one
    /// zeroed word per 64 flows.
    pub(crate) fn touched_flows(&self, groups: &[usize]) -> Vec<u64> {
        let mut bits = vec![0u64; self.group_of.len().div_ceil(64)];
        for &g in groups {
            for &p in self.ports_of(self.groups[g].rep) {
                for &f in self.flows_on(p) {
                    bits[f as usize / 64] |= 1 << (f % 64);
                }
            }
        }
        bits
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
        let total: usize = (0..idx.num_paths())
            .map(|g| idx.foreground_of(g).len())
            .sum();
        assert_eq!(total, flows.len(), "every flow in exactly one group");
        for (g, group) in idx.groups.iter().enumerate() {
            let rep = &flows[group.rep as usize];
            assert_eq!(idx.foreground_of(g)[0], group.rep);
            for &fi in idx.foreground_of(g) {
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
        let g = (0..idx.num_paths())
            .max_by_key(|&g| idx.foreground_of(g).len())
            .unwrap();
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
        let popular = (0..idx.num_paths())
            .max_by_key(|&g| idx.foreground_of(g).len())
            .unwrap();
        let singleton = (0..idx.num_paths()).find(|&g| idx.foreground_of(g).len() == 1);
        let count_pop = samples.iter().filter(|&&s| s == popular).count();
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

    /// The route table groups by port slice, not by hash: degenerate hashes
    /// (every route in one probe chain, or in two) give the same groups as
    /// the real one.
    #[test]
    fn route_table_groups_the_same_under_colliding_hashes() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        let real: Vec<u64> = (0..flows.len() as u32)
            .map(|i| {
                let ports = idx.ports_of(i);
                (ports.iter()).fold(ports.len() as u64, |h, &p| route_mix(h, p))
            })
            .collect();
        let reps = |groups: &[PathGroup]| groups.iter().map(|g| g.rep).collect::<Vec<_>>();
        let expect = reps(&idx.groups);
        assert!(expect.len() > 100 && expect.len() < flows.len());
        for hash in [
            real.clone(),
            vec![0; flows.len()],
            real.iter().map(|h| h & 1).collect(),
            real.iter().map(|h| h & (1 << 63)).collect(),
        ] {
            let (groups, group_of) = group_routes(&idx.flow_off, &idx.flow_port, &hash);
            assert_eq!(reps(&groups), expect);
            assert_eq!(group_of, idx.group_of);
        }
    }

    /// `touched_flows` marks exactly the foreground and background of the
    /// groups it is given.
    #[test]
    fn touched_flows_is_foreground_plus_background() {
        let (ft, flows) = workload();
        let idx = PathIndex::build(&ft.topo, &flows);
        let marked = |bits: &[u64]| -> Vec<u32> {
            (0..flows.len() as u32)
                .filter(|&f| bits[f as usize / 64] >> (f % 64) & 1 == 1)
                .collect()
        };
        let mut all = Vec::new();
        for g in (0..idx.num_paths()).step_by(37) {
            let mut expect: Vec<u32> = idx.foreground_of(g).to_vec();
            expect.extend(idx.background_of(g).iter().map(|&(f, _, _)| f));
            expect.sort_unstable();
            assert_eq!(marked(&idx.touched_flows(&[g])), expect, "group {g}");
            all.push(g);
        }
        let mut expect: Vec<u32> = (all.iter())
            .flat_map(|&g| marked(&idx.touched_flows(&[g])))
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(marked(&idx.touched_flows(&all)), expect);
        assert!(idx.touched_flows(&[]).iter().all(|&w| w == 0));
    }
}
