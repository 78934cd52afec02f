//! The flowSim engine (Algorithm 1 of the paper).
//!
//! Flows are grouped by (route, rate cap): every flow in a group shares the
//! same link set, so max-min assigns all of them the same rate. The
//! progressive-filling waterfill therefore runs over *groups* (at most
//! O(hops^2 x cap classes) of them on a parking lot), not individual flows.
//!
//! Within a group the engine uses the fair-queueing trick: it tracks the
//! cumulative per-flow service S_g(t); a flow of size `s` joining at time
//! `t0` completes when S_g reaches S_g(t0) + s. Each group keeps a min-heap
//! of `(completion service, flow index)` targets and one stored *next
//! completion time*, recomputed from its head target whenever any group's
//! membership changes (which is when rates change).
//!
//! # Route kinds
//!
//! A route is either a contiguous segment `[first_link, last_link]` of a
//! parking lot — a path scenario, staged with [`FluidWorkspace::stage`] — or
//! any set of links — a whole network, staged with
//! [`FluidWorkspace::stage_link_sets`] and kept sorted and deduplicated in
//! the workspace's link pool. The event loop, the waterfill and the probe
//! are generic over the kind (the private `Routes` trait) and monomorphised
//! per kind, so neither pays a branch per link visit. The arithmetic is
//! shared: a parking lot staged as link sets gives the same records bit for
//! bit.
//!
//! # Cost model
//!
//! A path creates many groups (9-22 on the benchmark's fat-tree paths) but
//! only a few hold flows at any instant (1.5-3 there). The event loop keeps
//! the indices of groups with `n > 0` in an **active list** and drives
//! everything per-event from it: the service advance, the waterfill, the
//! rescheduling and the min-scan that picks the next completion. One event
//! therefore costs O(active groups x waterfill rounds) plus one
//! O(log group size) target-heap operation per arrival or completion; the
//! whole run is O(F log F) for the arrival sort and the target heaps.
//!
//! # Ordering invariant
//!
//! The active list is kept in **ascending group index** (= order of first
//! arrival). The waterfill breaks ties between equal caps and equal link
//! fair shares by first occurrence, and subtracts fixed groups' rates from
//! the link residuals in list order; float subtraction does not commute
//! with the `max(0)` clamp, so that order is part of the engine's
//! bit-for-bit output (pinned by `tests/golden.rs`).

use crate::budget::{BudgetMeter, FluidBudget, FluidError, FluidRunStats};
use crate::probe::FluidProbe;
use crate::types::{FluidFctRecord, FluidFlow, FluidTopology, Nanos};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Tolerance (bytes) when matching completion targets; sub-byte fluid error.
const SERVICE_EPS: f64 = 1e-3;
/// Tolerance (ns) when deciding that a stored completion time is due.
const DUE_EPS: f64 = 1e-9;

/// A pending completion: the flow at input position `flow` finishes when its
/// group's service reaches `service`. Everything else a record needs is read
/// from the input at completion.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Target {
    /// Service level at which the flow completes (bytes).
    service: f64,
    flow: u32,
}

impl Eq for Target {}
impl PartialOrd for Target {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Target {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via `Reverse` at use sites. total_cmp keeps this a strict
        // weak ordering even if a NaN service sneaks in. Targets with equal
        // service always complete at the same event, so the tiebreak only
        // has to be deterministic.
        self.service
            .total_cmp(&other.service)
            .then_with(|| self.flow.cmp(&other.flow))
    }
}

/// A group's route: a segment's first and last link (inclusive), or the
/// `[start, end)` span of a link set in the workspace's link pool.
type Route = (u32, u32);

#[derive(Debug)]
struct Group {
    /// With `cap_bits`, the group's identity.
    route: Route,
    /// The flows' rate cap as given (bits/sec).
    cap_bits: u64,
    /// Per-flow rate cap, bytes/ns.
    cap: f64,
    /// Number of active flows.
    n: u32,
    /// Cumulative per-flow service, bytes. Kept across idle periods.
    service: f64,
    /// Current per-flow rate, bytes/ns. Meaningful only while `n > 0`.
    rate: f64,
    /// When the head target completes at the current rate. Meaningful only
    /// while `n > 0`; set after every membership change.
    next_completion: f64,
    /// Waterfill scratch: the group's rate is final for this waterfill.
    fixed: bool,
    /// Pending completion targets (min-heap).
    targets: BinaryHeap<Reverse<Target>>,
}

impl Group {
    /// Completion time of the head target from the current service and rate.
    fn head_completion(&self, now: f64) -> f64 {
        match self.targets.peek() {
            Some(Reverse(t)) => now + (t.service - self.service).max(0.0) / self.rate,
            None => f64::INFINITY,
        }
    }
}

/// One route kind: everything the engine needs to know about routes.
trait Routes: Copy {
    /// Route of the flow `f` at input position `i`.
    fn route(self, i: usize, f: &FluidFlow) -> Route;
    /// Why `f`, on `route`, is not a valid flow over `n_links` links.
    fn check(self, f: &FluidFlow, route: Route, n_links: usize) -> Result<(), String>;
    /// Routes are the same, and hash alike, when their numbers are equal,
    /// unless a kind says otherwise.
    fn same(self, a: Route, b: Route) -> bool {
        a == b
    }
    fn hash(self, (a, b): Route) -> u64 {
        u64::from(a) << 32 | u64::from(b)
    }
    fn crosses(self, route: Route, link: usize) -> bool;
    /// Apply `f` to every link the route crosses, in ascending link order.
    fn each_link(self, route: Route, links: &mut [Link], f: impl FnMut(&mut Link));
}

/// Parking-lot segments, read from the flows' `first_link..=last_link`.
#[derive(Clone, Copy)]
struct Segments;

impl Routes for Segments {
    fn route(self, _: usize, f: &FluidFlow) -> Route {
        (u32::from(f.first_link), u32::from(f.last_link))
    }

    fn check(self, f: &FluidFlow, _: Route, n_links: usize) -> Result<(), String> {
        f.check_links(n_links)
    }

    fn crosses(self, (first, last): Route, link: usize) -> bool {
        (first as usize..=last as usize).contains(&link)
    }

    fn each_link(self, (first, last): Route, links: &mut [Link], f: impl FnMut(&mut Link)) {
        links[first as usize..=last as usize].iter_mut().for_each(f);
    }
}

/// Link sets: the flow at input position `i` crosses
/// `pool[offsets[i]..offsets[i + 1]]`, sorted and deduplicated.
#[derive(Clone, Copy)]
struct LinkSets<'a> {
    pool: &'a [u32],
    offsets: &'a [u32],
}

impl<'a> LinkSets<'a> {
    fn set(self, (start, end): Route) -> &'a [u32] {
        &self.pool[start as usize..end as usize]
    }
}

impl Routes for LinkSets<'_> {
    fn route(self, i: usize, _: &FluidFlow) -> Route {
        (self.offsets[i], self.offsets[i + 1])
    }

    fn check(self, f: &FluidFlow, route: Route, n_links: usize) -> Result<(), String> {
        match self.set(route).last() {
            None => Err("flow has no links".to_string()),
            Some(&l) if l as usize >= n_links => Err(format!("link {l} outside topology")),
            Some(_) => f.check_cap(),
        }
    }

    fn same(self, a: Route, b: Route) -> bool {
        self.set(a) == self.set(b)
    }

    fn hash(self, route: Route) -> u64 {
        self.set(route).iter().fold(0, |h, &l| {
            (h.rotate_left(5) ^ u64::from(l)).wrapping_mul(HASH_K)
        })
    }

    fn crosses(self, route: Route, link: usize) -> bool {
        u32::try_from(link).is_ok_and(|l| self.set(route).contains(&l))
    }

    fn each_link(self, route: Route, links: &mut [Link], mut f: impl FnMut(&mut Link)) {
        for &l in self.set(route) {
            f(&mut links[l as usize]);
        }
    }
}

/// Sort key of one arrival: `(arrival, id, input position)`. Caching it
/// keeps the arrival sort and the loop's "next arrival" reads off the
/// `flows[i]` indirection; the position makes every key distinct.
type ArrivalKey = (Nanos, u32, u32);

/// Empty slot of the group table.
const NO_GROUP: u32 = u32::MAX;

const HASH_K: u64 = 0x9e37_79b9_7f4a_7c15;

fn group_hash(route_hash: u64, cap_bits: u64) -> u64 {
    (route_hash.wrapping_mul(HASH_K).rotate_left(5) ^ cap_bits).wrapping_mul(HASH_K)
}

/// Everything the event loop needs besides its input and output.
#[derive(Debug, Default)]
struct Scratch {
    order: Vec<ArrivalKey>,
    groups: Vec<Group>,
    /// Emptied target heaps recycled from finished runs; fresh groups pop
    /// one of these and inherit its capacity instead of allocating.
    spare_heaps: Vec<BinaryHeap<Reverse<Target>>>,
    /// Open-addressed (route, cap) -> group index table, linear probing,
    /// power-of-two length kept at least twice the group count. Lookup is
    /// one multiplicative hash and, at path scale, one key compare.
    table: Vec<u32>,
    /// Indices of groups with `n > 0`, ascending (see the module docs).
    active: Vec<u32>,
    links: Vec<Link>,
    rearmed: u64,
}

/// Reusable scratch for the fluid engine.
///
/// Every collection the simulation needs lives here — the cached arrival
/// keys, link capacities, groups (with their completion-target heaps), the
/// group table, the active list and the waterfill scratch — plus a staging
/// area where a caller builds the fluid model in place
/// ([`FluidWorkspace::stage`] for segments,
/// [`FluidWorkspace::stage_link_sets`] for link sets) instead of allocating
/// a topology and a flow vector per run. All of them are cleared, never
/// dropped, between runs, so a warm workspace makes repeated
/// [`try_simulate_staged`] calls allocation-free: after the first run on a
/// given workload shape, steady-state simulation touches the heap zero
/// times. Nothing carries over between runs but capacity.
#[derive(Debug, Default)]
pub struct FluidWorkspace {
    staged_link_bps: Vec<f64>,
    staged_flows: Vec<FluidFlow>,
    /// The staged link sets, each sorted and deduplicated: flow `i` crosses
    /// `link_pool[set_offsets[i]..set_offsets[i + 1]]`. `set_offsets` is
    /// empty when the staged routes are segments.
    link_pool: Vec<u32>,
    set_offsets: Vec<u32>,
    scratch: Scratch,
}

impl FluidWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start staging a segment run in place: records the topology (per-link
    /// capacities in bits/sec, path order) and returns the emptied flow
    /// buffer for the caller to fill. [`try_simulate_staged`] then validates
    /// and runs it.
    pub fn stage(&mut self, link_bps: impl IntoIterator<Item = f64>) -> &mut Vec<FluidFlow> {
        self.staged_link_bps.clear();
        self.staged_link_bps.extend(link_bps);
        self.staged_flows.clear();
        self.link_pool.clear();
        self.set_offsets.clear();
        &mut self.staged_flows
    }

    /// Stage a link-set run in place: the per-link capacities (bits/sec),
    /// and each flow with the links it crosses — indices into those
    /// capacities, in any order; a link listed twice is crossed once. The
    /// links replace the flow's segment: its `first_link` and `last_link`
    /// are not read. [`try_simulate_staged`] then validates and runs it.
    pub fn stage_link_sets<L: IntoIterator<Item = u32>>(
        &mut self,
        link_bps: impl IntoIterator<Item = f64>,
        flows: impl IntoIterator<Item = (FluidFlow, L)>,
    ) {
        self.stage(link_bps);
        let pool = &mut self.link_pool;
        self.set_offsets.push(0);
        for (flow, links) in flows {
            let start = pool.len();
            pool.extend(links);
            pool[start..].sort_unstable();
            let mut end = start;
            for i in start..pool.len() {
                if end == start || pool[i] != pool[end - 1] {
                    pool[end] = pool[i];
                    end += 1;
                }
            }
            pool.truncate(end);
            // `try_simulate_staged` rejects a pool beyond u32 before reading it.
            self.set_offsets.push(end as u32);
            self.staged_flows.push(flow);
        }
    }

    /// How often, over this workspace's lifetime, a due group's head target
    /// was not yet satisfied and the group had to be re-armed (see the
    /// completion step of the event loop). Zero on every committed fixture
    /// and benchmark seed; a non-zero value flags numerically extreme input
    /// (flow sizes beyond ~2^42 bytes), not a wrong result.
    pub fn rearmed_completions(&self) -> u64 {
        self.scratch.rearmed
    }
}

/// Run flowSim over a parking lot: max-min fluid simulation of `flows` over
/// `topo`.
///
/// Flows need not be sorted; results are returned sorted by flow id. Every
/// flow completes (the fluid model cannot lose traffic), so the output
/// length always equals the input length.
///
/// Panics on invalid input; [`try_simulate_staged`] is the fallible,
/// budgeted, probed and allocation-free entry point, for both route kinds.
pub fn simulate_fluid(topo: &FluidTopology, flows: &[FluidFlow]) -> Vec<FluidFctRecord> {
    let mut ws = FluidWorkspace::new();
    ws.stage(topo.link_bps.iter().copied())
        .extend_from_slice(flows);
    let mut records = Vec::new();
    match try_simulate_staged(&FluidBudget::UNLIMITED, None, &mut ws, &mut records) {
        Ok(_) => records,
        Err(e) => panic!("flowSim failed: {e}"),
    }
}

/// Run flowSim over the model staged in `ws` by [`FluidWorkspace::stage`]
/// (segments) or [`FluidWorkspace::stage_link_sets`] (link sets).
///
/// Validates the input — every link capacity positive and finite, every
/// route inside the topology, every rate cap positive — and returns
/// [`FluidError::InvalidInput`] otherwise; bounds the run by `budget`; and
/// turns the engine's invariants (finite event times, waterfill progress)
/// into typed errors. An optional [`FluidProbe`] samples per-link
/// utilization and the active-flow count at its virtual-time stride; it
/// only observes. `records` receives one record per flow, sorted by flow id
/// (it is cleared first), and the returned stats count the events run.
/// With a warm workspace the run performs zero heap allocations.
pub fn try_simulate_staged(
    budget: &FluidBudget,
    probe: Option<&FluidProbe<'_>>,
    ws: &mut FluidWorkspace,
    records: &mut Vec<FluidFctRecord>,
) -> Result<FluidRunStats, FluidError> {
    let (link_bps, flows, scratch) = (&ws.staged_link_bps, &ws.staged_flows, &mut ws.scratch);
    if ws.set_offsets.is_empty() {
        return run(link_bps, flows, Segments, budget, probe, scratch, records);
    }
    let pool = &ws.link_pool;
    if u32::try_from(pool.len()).is_err() {
        let reason = format!("{} staged links exceed the engine's u32 index", pool.len());
        return Err(FluidError::InvalidInput {
            flow: u32::MAX,
            reason,
        });
    }
    let routes = LinkSets {
        pool,
        offsets: &ws.set_offsets,
    };
    run(link_bps, flows, routes, budget, probe, scratch, records)
}

/// The event loop, monomorphised per route kind.
fn run<R: Routes>(
    link_bps: &[f64],
    flows: &[FluidFlow],
    routes: R,
    budget: &FluidBudget,
    probe: Option<&FluidProbe<'_>>,
    scratch: &mut Scratch,
    records: &mut Vec<FluidFctRecord>,
) -> Result<FluidRunStats, FluidError> {
    // Disjoint &mut borrows of every scratch collection.
    let Scratch {
        order,
        groups,
        spare_heaps,
        table,
        active,
        links,
        rearmed,
    } = scratch;
    let mut meter = BudgetMeter::new(*budget);

    FluidTopology::check(link_bps).map_err(|reason| FluidError::InvalidInput {
        flow: u32::MAX,
        reason,
    })?;
    // Targets and arrival keys hold input positions as u32.
    if u32::try_from(flows.len()).is_err() {
        return Err(FluidError::InvalidInput {
            flow: 0,
            reason: format!("{} flows exceed the engine's u32 index", flows.len()),
        });
    }
    let n_links = link_bps.len();
    order.clear();
    for (i, f) in flows.iter().enumerate() {
        routes
            .check(f, routes.route(i, f), n_links)
            .map_err(|reason| FluidError::InvalidInput { flow: f.id, reason })?;
        order.push((f.arrival, f.id, i as u32));
    }
    // Unstable sort allocates nothing; the position tiebreak reproduces the
    // stable (arrival, id) order exactly even if those pairs collide.
    order.sort_unstable();

    links.clear();
    links.extend(link_bps.iter().map(|&b| Link {
        cap: b / 8e9,
        residual: 0.0,
        nflows: 0,
        demand: 0.0,
    }));

    for g in groups.drain(..) {
        let mut heap = g.targets;
        heap.clear();
        spare_heaps.push(heap);
    }
    let table_len = table.len().max(16);
    table.clear();
    table.resize(table_len, NO_GROUP);
    active.clear();
    // Every flow completes, and its record is written at its input
    // position: when ids ascend with position (as a path scenario's do) the
    // final full-key sort sees sorted input and is one linear pass.
    records.clear();
    records.resize(
        flows.len(),
        FluidFctRecord {
            id: 0,
            size: 0,
            arrival: 0,
            fct: 0,
            ideal_fct: 0,
        },
    );

    let mut now: f64 = 0.0;
    let mut next_flow = 0usize;
    let mut active_flows = 0usize;
    // Earliest `next_completion` over the active groups.
    let mut t_completion = f64::INFINITY;
    // Next virtual-time stride boundary at which the probe samples.
    let mut probe_next: u64 = match probe {
        Some(p) => p.stride_ns.max(1),
        None => u64::MAX,
    };

    while next_flow < order.len() || active_flows > 0 {
        meter.tick()?;
        // ---- choose the next event time ----
        let t_arrival = match order.get(next_flow) {
            Some(&(arrival, _, _)) => arrival as f64,
            None => f64::INFINITY,
        };
        let t_next = t_arrival.min(t_completion);
        // Release-mode guard (was a debug_assert): a NaN or infinite next
        // event time with flows still active would spin this loop forever.
        if !t_next.is_finite() {
            return Err(FluidError::NonFiniteEventTime {
                events: meter.events(),
                t: t_next,
            });
        }
        debug_assert!(t_next >= now - 1e-6, "time went backwards");
        let dt = (t_next - now).max(0.0);

        // ---- advance service clocks ----
        if dt > 0.0 {
            for &gi in active.iter() {
                let g = &mut groups[gi as usize];
                g.service += g.rate * dt;
            }
        }
        now = t_next;

        // ---- probe: sample state over the interval that just elapsed ----
        // Rates are constant between events, so the values at the last
        // stride boundary crossed describe the whole interval; emitting
        // only that boundary keeps the sample count bounded.
        if let Some(p) = probe {
            let now_ns = now as u64;
            if now_ns >= probe_next {
                let stride = p.stride_ns.max(1);
                let boundary = (now_ns / stride) * stride;
                for (l, cap) in links.iter().map(|link| link.cap).enumerate() {
                    let mut used = 0.0;
                    for &gi in active.iter() {
                        let g = &groups[gi as usize];
                        if routes.crosses(g.route, l) {
                            used += g.rate * f64::from(g.n);
                        }
                    }
                    let util = if cap > 0.0 {
                        (used / cap).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    p.sink.on_link(boundary, l as u16, util);
                }
                p.sink.on_active_flows(boundary, active_flows as u64);
                probe_next = boundary.saturating_add(stride);
            }
        }

        // ---- completions at `now` ----
        let mut membership_changed = false;
        if t_completion <= now + DUE_EPS {
            let mut emptied = false;
            for &gi in active.iter() {
                let g = &mut groups[gi as usize];
                if g.next_completion > now + DUE_EPS {
                    continue;
                }
                // Pop every target this service level satisfies.
                let before = g.n;
                while let Some(Reverse(t)) = g.targets.peek().copied() {
                    if t.service > g.service + SERVICE_EPS {
                        break;
                    }
                    g.targets.pop();
                    g.n -= 1;
                    let f = &flows[t.flow as usize];
                    let fct_ns = (now - f.arrival as f64).max(0.0).ceil() as Nanos + f.latency;
                    records[t.flow as usize] = FluidFctRecord {
                        id: f.id,
                        size: f.size,
                        arrival: f.arrival,
                        fct: fct_ns.max(1),
                        ideal_fct: f.ideal_fct,
                    };
                }
                if g.n == before {
                    // Invariant: a due group's head target is satisfied —
                    // the service it was advanced by is the one its
                    // completion time was computed from, and SERVICE_EPS
                    // absorbs the rounding for services below ~2^42 bytes.
                    // Beyond that the target can be left a few ulps short;
                    // re-arm the group from its current service (it would
                    // otherwise have no scheduled completion) so the worst
                    // case is an exhausted event budget, never a stranded
                    // flow. `rearmed` counts how often this happens.
                    *rearmed += 1;
                    g.next_completion = g.head_completion(now);
                } else {
                    membership_changed = true;
                    active_flows -= (before - g.n) as usize;
                    emptied |= g.n == 0;
                }
            }
            if emptied {
                active.retain(|&gi| groups[gi as usize].n > 0);
            }
        }

        // ---- arrivals at `now` ----
        while let Some(&(arrival, _, i)) = order.get(next_flow) {
            if arrival as f64 > now {
                break;
            }
            let f = &flows[i as usize];
            next_flow += 1;
            active_flows += 1;
            membership_changed = true;
            let route = routes.route(i as usize, f);
            let gi = find_or_create_group(routes, route, f, groups, table, spare_heaps);
            let g = &mut groups[gi as usize];
            if g.n == 0 {
                // New groups carry the largest index so far; a refilled one
                // goes back to its sorted place.
                let at = active.partition_point(|&a| a < gi);
                active.insert(at, gi);
            }
            g.n += 1;
            g.targets.push(Reverse(Target {
                service: g.service + f.size.max(1) as f64,
                flow: i,
            }));
        }

        if !membership_changed {
            // Only re-armed groups moved.
            t_completion = active
                .iter()
                .map(|&gi| groups[gi as usize].next_completion)
                .fold(f64::INFINITY, f64::min);
            continue;
        }

        // ---- waterfill: recompute max-min rates over active groups ----
        waterfill(routes, links, groups, active).map_err(|()| FluidError::Stalled {
            events: meter.events(),
        })?;

        // ---- store fresh completion times ----
        t_completion = f64::INFINITY;
        for &gi in active.iter() {
            let g = &mut groups[gi as usize];
            debug_assert!(g.rate > 0.0, "active group with zero rate");
            g.next_completion = g.head_completion(now);
            if g.next_completion < t_completion {
                t_completion = g.next_completion;
            }
        }
    }

    // Unstable sort allocates nothing; records with equal full keys are
    // bitwise identical, so this reproduces the stable order exactly.
    records.sort_unstable_by_key(|r| (r.id, r.arrival, r.size, r.fct, r.ideal_fct));
    Ok(meter.stats())
}

/// Slot of a hash in a power-of-two table: its top bits.
fn home_slot(hash: u64, table_len: usize) -> usize {
    (hash >> (64 - table_len.trailing_zeros())) as usize
}

/// Claim the first free slot at or after `gi`'s home slot.
fn table_insert(table: &mut [u32], hash: u64, gi: u32) {
    let mask = table.len() - 1;
    let mut slot = home_slot(hash, table.len());
    while table[slot] != NO_GROUP {
        slot = (slot + 1) & mask;
    }
    table[slot] = gi;
}

/// Index of the group holding `f`'s (route, cap), created on first sight.
/// Group indices therefore ascend in order of first arrival.
fn find_or_create_group<R: Routes>(
    routes: R,
    route: Route,
    f: &FluidFlow,
    groups: &mut Vec<Group>,
    table: &mut Vec<u32>,
    spare_heaps: &mut Vec<BinaryHeap<Reverse<Target>>>,
) -> u32 {
    let cap_bits = f.rate_cap_bps.to_bits();
    let hash = group_hash(routes.hash(route), cap_bits);
    let mask = table.len() - 1;
    let mut slot = home_slot(hash, table.len());
    while table[slot] != NO_GROUP {
        let g = &groups[table[slot] as usize];
        if g.cap_bits == cap_bits && routes.same(g.route, route) {
            return table[slot];
        }
        slot = (slot + 1) & mask;
    }
    let gi = groups.len() as u32;
    groups.push(Group {
        route,
        cap_bits,
        cap: f.rate_cap_bps / 8e9,
        n: 0,
        service: 0.0,
        rate: 0.0,
        next_completion: f64::INFINITY,
        fixed: false,
        targets: spare_heaps.pop().unwrap_or_default(),
    });
    if groups.len() * 2 > table.len() {
        // Keep the load at most one half: probes stay O(1) however many
        // cap classes the input has.
        let doubled = table.len() * 2;
        table.clear();
        table.resize(doubled, NO_GROUP);
        for (gi, g) in groups.iter().enumerate() {
            table_insert(
                table,
                group_hash(routes.hash(g.route), g.cap_bits),
                gi as u32,
            );
        }
    } else {
        table[slot] = gi;
    }
    gi
}

/// One link: its capacity and the state of the current waterfill.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// Capacity, bytes/ns.
    cap: f64,
    /// Capacity not yet given to fixed groups, bytes/ns.
    residual: f64,
    /// Flows of unfixed groups crossing the link.
    nflows: u32,
    /// What the active groups crossing the link would take at their caps.
    demand: f64,
}

/// A link whose `demand` is at most this fraction of its capacity cannot
/// become a bottleneck (see [`waterfill`]). The margin of 2^-20 dwarfs the
/// rounding the progressive filling can accumulate: 2^-53 per operation, a
/// few operations per group, at most [`UNCONGESTED_MAX_GROUPS`] groups.
const UNCONGESTED: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;
const UNCONGESTED_MAX_GROUPS: usize = 1 << 16;

/// Max-min rates of the `active` groups (ascending index; see the module
/// docs) with per-group rate caps. `Err(())` means the filling could not fix
/// any group in an iteration (numerically degenerate input), which would
/// loop forever.
///
/// Most waterfills at path scale are uncongested: every link could carry
/// all its flows at their caps with room to spare. Then the progressive
/// filling provably does nothing but fix the groups at their caps, one per
/// round in ascending cap: when it reaches a group, each link it crosses
/// still holds the demand of the unfixed groups — all capped no lower than
/// this one — plus the margin, so the link's fair share exceeds the cap by
/// far more than rounding can hide, and `cap <= fair share` picks the cap.
/// The result is known without running the rounds; debug builds run them
/// anyway and compare bit for bit.
fn waterfill<R: Routes>(
    routes: R,
    links: &mut [Link],
    groups: &mut [Group],
    active: &[u32],
) -> Result<(), ()> {
    for l in links.iter_mut() {
        l.residual = l.cap;
        l.nflows = 0;
        l.demand = 0.0;
    }
    for &gi in active {
        let g = &mut groups[gi as usize];
        g.fixed = false;
        let (n, demand) = (g.n, g.cap * f64::from(g.n));
        routes.each_link(g.route, links, |l| {
            l.nflows += n;
            l.demand += demand;
        });
    }
    if active.len() <= UNCONGESTED_MAX_GROUPS
        && links.iter().all(|l| l.demand <= l.cap * UNCONGESTED)
    {
        debug_assert!(
            progressive_fill(routes, links, groups, active).is_ok()
                && active.iter().all(|&gi| {
                    let g = &groups[gi as usize];
                    g.rate.to_bits() == g.cap.to_bits()
                }),
            "uncongested waterfill must fix every group at its cap"
        );
        for &gi in active {
            let g = &mut groups[gi as usize];
            g.rate = g.cap;
        }
        return Ok(());
    }
    progressive_fill(routes, links, groups, active)
}

/// Progressive filling over the state [`waterfill`] set up: repeatedly fix
/// the unfixed group with the smallest cap, or — when a link's fair share is
/// smaller still — every unfixed group crossing the tightest link.
fn progressive_fill<R: Routes>(
    routes: R,
    links: &mut [Link],
    groups: &mut [Group],
    active: &[u32],
) -> Result<(), ()> {
    let mut unfixed = active.len();
    while unfixed > 0 {
        // Minimum link fair share among links carrying unfixed flows.
        let mut r_link = f64::INFINITY;
        let mut l_star = usize::MAX;
        for (l, link) in links.iter().enumerate() {
            if link.nflows > 0 {
                let fair = (link.residual / f64::from(link.nflows)).max(0.0);
                if fair < r_link {
                    r_link = fair;
                    l_star = l;
                }
            }
        }
        // Minimum cap among unfixed groups.
        let mut r_cap = f64::INFINITY;
        let mut g_star = None;
        for &gi in active {
            let g = &groups[gi as usize];
            if !g.fixed && g.cap < r_cap {
                r_cap = g.cap;
                g_star = Some(gi);
            }
        }
        match g_star {
            // Cap binds first: fix that single group.
            Some(gi) if r_cap <= r_link => {
                fix(routes, links, &mut groups[gi as usize], r_cap);
                unfixed -= 1;
            }
            // Link saturates: fix every unfixed group crossing it.
            _ => {
                let before = unfixed;
                for &gi in active {
                    let g = &mut groups[gi as usize];
                    if !g.fixed && routes.crosses(g.route, l_star) {
                        fix(routes, links, g, r_link);
                        unfixed -= 1;
                    }
                }
                if unfixed == before {
                    return Err(());
                }
            }
        }
    }
    Ok(())
}

/// Fix `g` at `rate`: take its flows off every link it crosses.
fn fix<R: Routes>(routes: R, links: &mut [Link], g: &mut Group, rate: f64) {
    g.rate = rate;
    g.fixed = true;
    let n = g.n;
    routes.each_link(g.route, links, |l| {
        l.residual = (l.residual - rate * f64::from(n)).max(0.0);
        l.nflows -= n;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::FluidProbeSink;
    use crate::types::fluid_ideal_fct;

    fn flow(id: u32, size: u64, arrival: Nanos, first: u16, last: u16, cap: f64) -> FluidFlow {
        FluidFlow {
            id,
            size,
            arrival,
            first_link: first,
            last_link: last,
            rate_cap_bps: cap,
            latency: 0,
            ideal_fct: 1,
        }
    }

    fn with_ideal(topo: &FluidTopology, mut f: FluidFlow) -> FluidFlow {
        f.ideal_fct = fluid_ideal_fct(topo, &f);
        f
    }

    /// Stage `flows` over `topo` in `ws` and run them.
    fn run_in(
        ws: &mut FluidWorkspace,
        topo: &FluidTopology,
        flows: &[FluidFlow],
        budget: &FluidBudget,
        probe: Option<&FluidProbe<'_>>,
    ) -> Result<(Vec<FluidFctRecord>, FluidRunStats), FluidError> {
        ws.stage(topo.link_bps.iter().copied())
            .extend_from_slice(flows);
        let mut records = Vec::new();
        let stats = try_simulate_staged(budget, probe, ws, &mut records)?;
        Ok((records, stats))
    }

    fn try_run(
        topo: &FluidTopology,
        flows: &[FluidFlow],
        budget: &FluidBudget,
    ) -> Result<Vec<FluidFctRecord>, FluidError> {
        run_in(&mut FluidWorkspace::new(), topo, flows, budget, None).map(|(r, _)| r)
    }

    /// Stage each flow over its link list as a link-set run and run it.
    fn run_link_sets(
        link_bps: &[f64],
        flows: &[(FluidFlow, &[u32])],
        budget: &FluidBudget,
    ) -> Result<Vec<FluidFctRecord>, FluidError> {
        let mut ws = FluidWorkspace::new();
        let sets = flows.iter().map(|&(f, links)| (f, links.iter().copied()));
        ws.stage_link_sets(link_bps.iter().copied(), sets);
        let mut records = Vec::new();
        try_simulate_staged(budget, None, &mut ws, &mut records)?;
        Ok(records)
    }

    fn simulate_link_sets(link_bps: &[f64], flows: &[(FluidFlow, &[u32])]) -> Vec<FluidFctRecord> {
        run_link_sets(link_bps, flows, &FluidBudget::UNLIMITED).unwrap()
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let topo = FluidTopology::new(vec![10e9]);
        let f = with_ideal(&topo, flow(0, 10_000, 0, 0, 0, f64::INFINITY));
        let recs = simulate_fluid(&topo, &[f]);
        assert_eq!(recs.len(), 1);
        // 10_000 bytes at 10G = 8000 ns.
        assert_eq!(recs[0].fct, 8000);
        assert!((recs[0].slowdown() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_equal_flows_halve_rate() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows = vec![
            with_ideal(&topo, flow(0, 10_000, 0, 0, 0, f64::INFINITY)),
            with_ideal(&topo, flow(1, 10_000, 0, 0, 0, f64::INFINITY)),
        ];
        let recs = simulate_fluid(&topo, &flows);
        for r in &recs {
            assert_eq!(r.fct, 16_000, "both flows share the link evenly");
        }
    }

    #[test]
    fn shorter_flow_finishes_then_longer_speeds_up() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows = vec![
            with_ideal(&topo, flow(0, 10_000, 0, 0, 0, f64::INFINITY)),
            with_ideal(&topo, flow(1, 30_000, 0, 0, 0, f64::INFINITY)),
        ];
        let recs = simulate_fluid(&topo, &flows);
        // Short: 10k at 5G -> 16us. Long: 10k at 5G (16us) + 20k at 10G (16us) = 32us.
        assert_eq!(recs[0].fct, 16_000);
        assert_eq!(recs[1].fct, 32_000);
    }

    #[test]
    fn rate_cap_binds() {
        let topo = FluidTopology::new(vec![10e9]);
        let f = with_ideal(&topo, flow(0, 10_000, 0, 0, 0, 1e9));
        let recs = simulate_fluid(&topo, &[f]);
        assert_eq!(recs[0].fct, 80_000);
    }

    #[test]
    fn parking_lot_max_min_rates() {
        // Two links; flow A spans both, flows B and C each use one link.
        // Max-min: B and C get 5G each... actually A competes on both links:
        // fair share on each link = cap/2 = 5G, A is bottlenecked at 5G,
        // B and C get the rest: 5G each.
        let topo = FluidTopology::new(vec![10e9, 10e9]);
        let flows = vec![
            with_ideal(&topo, flow(0, 50_000, 0, 0, 1, f64::INFINITY)), // A spans both
            with_ideal(&topo, flow(1, 50_000, 0, 0, 0, f64::INFINITY)), // B link 0
            with_ideal(&topo, flow(2, 50_000, 0, 1, 1, f64::INFINITY)), // C link 1
        ];
        let recs = simulate_fluid(&topo, &flows);
        // All three run at 5G until they finish simultaneously: 80us.
        for r in &recs {
            assert_eq!(r.fct, 80_000);
        }
    }

    #[test]
    fn unequal_links_make_spanning_flow_slowest() {
        let topo = FluidTopology::new(vec![10e9, 1e9]);
        let flows = vec![
            with_ideal(&topo, flow(0, 10_000, 0, 0, 1, f64::INFINITY)), // bottleneck 1G shared
            with_ideal(&topo, flow(1, 10_000, 0, 1, 1, f64::INFINITY)),
        ];
        let recs = simulate_fluid(&topo, &flows);
        // Both share the 1G link: 0.5G each -> 160us.
        assert_eq!(recs[0].fct, 160_000);
        assert_eq!(recs[1].fct, 160_000);
    }

    #[test]
    fn staggered_arrivals() {
        let topo = FluidTopology::new(vec![8e9]); // 1 byte/ns
        let flows = vec![
            with_ideal(&topo, flow(0, 10_000, 0, 0, 0, f64::INFINITY)),
            with_ideal(&topo, flow(1, 10_000, 5_000, 0, 0, f64::INFINITY)),
        ];
        let recs = simulate_fluid(&topo, &flows);
        // Flow 0: 5000B alone (5us), then shares: remaining 5000B at 0.5B/ns
        // -> total 15us. Flow 1: 5000B shared (10us) then 5000B alone (5us)
        // -> fct 15us.
        assert_eq!(recs[0].fct, 15_000);
        assert_eq!(recs[1].fct, 15_000);
    }

    #[test]
    fn latency_factor_added() {
        let topo = FluidTopology::new(vec![8e9]);
        let mut f = flow(0, 1000, 0, 0, 0, f64::INFINITY);
        f.latency = 12_345;
        f.ideal_fct = fluid_ideal_fct(&topo, &f);
        let recs = simulate_fluid(&topo, &[f]);
        assert_eq!(recs[0].fct, 1000 + 12_345);
    }

    #[test]
    fn all_flows_complete_large_batch() {
        let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
        let mut flows = Vec::new();
        for i in 0..5000u32 {
            let first = (i % 3) as u16;
            let last = first.max(((i * 7) % 3) as u16);
            let (first, last) = (first.min(last), first.max(last));
            flows.push(with_ideal(
                &topo,
                flow(
                    i,
                    500 + (i as u64 * 97) % 50_000,
                    (i as u64) * 300,
                    first,
                    last,
                    10e9,
                ),
            ));
        }
        let recs = simulate_fluid(&topo, &flows);
        assert_eq!(recs.len(), 5000);
        for r in &recs {
            assert!(r.slowdown() >= 1.0 - 1e-6, "slowdown {} < 1", r.slowdown());
        }
    }

    #[test]
    fn zero_size_flow_treated_as_one_byte() {
        let topo = FluidTopology::new(vec![8e9]);
        let f = with_ideal(&topo, flow(0, 0, 0, 0, 0, f64::INFINITY));
        let recs = simulate_fluid(&topo, &[f]);
        assert_eq!(recs.len(), 1);
        assert!(recs[0].fct >= 1);
    }

    #[test]
    fn nan_rate_cap_is_typed_error_not_hang() {
        let topo = FluidTopology::new(vec![10e9]);
        let mut f = with_ideal(&topo, flow(0, 10_000, 0, 0, 0, f64::INFINITY));
        f.rate_cap_bps = f64::NAN;
        let err =
            try_run(&topo, &[f], &FluidBudget::UNLIMITED).expect_err("NaN cap must be rejected");
        assert!(matches!(err, FluidError::InvalidInput { flow: 0, .. }));
    }

    #[test]
    fn bad_link_capacity_is_typed_error_for_both_route_kinds() {
        // Zero and NaN capacities used to reach the event loop: a debug
        // assertion there, a misleading NonFiniteEventTime in release.
        for bps in [0.0, -1e9, f64::NAN, f64::INFINITY] {
            let f = flow(0, 10_000, 0, 0, 0, f64::INFINITY);
            let mut ws = FluidWorkspace::new();
            ws.stage([10e9, bps]).push(f);
            let err = try_simulate_staged(&FluidBudget::UNLIMITED, None, &mut ws, &mut Vec::new())
                .expect_err("segment run over a bad capacity");
            assert!(
                matches!(err, FluidError::InvalidInput { flow: u32::MAX, .. }),
                "segments, {bps}: {err:?}"
            );
            let err = run_link_sets(&[bps], &[(f, &[0])], &FluidBudget::UNLIMITED)
                .expect_err("link-set run over a bad capacity");
            assert!(
                matches!(err, FluidError::InvalidInput { flow: u32::MAX, .. }),
                "link sets, {bps}: {err:?}"
            );
        }
        let err = try_simulate_staged(
            &FluidBudget::UNLIMITED,
            None,
            &mut FluidWorkspace::new(),
            &mut Vec::new(),
        )
        .expect_err("an empty workspace has no links");
        assert!(matches!(err, FluidError::InvalidInput { .. }));
    }

    #[test]
    fn short_service_at_a_due_completion_rearms_instead_of_stranding() {
        // 2^58-byte flows: one ulp of service is 64 bytes, far above
        // SERVICE_EPS, so the service advanced to a completion time can land
        // short of the target. The heap-of-candidates loop dropped the
        // group's only candidate there and failed this input with
        // NonFiniteEventTime; re-arming finishes it an event later.
        let topo = FluidTopology::new(vec![10e9]);
        let big = (1u64 << 58) + 3 * 0x1234_5678_9abc + 12_345;
        let flows = [
            with_ideal(&topo, flow(0, big, 0, 0, 0, f64::INFINITY)),
            with_ideal(&topo, flow(1, big / 3 + 3, 1_003, 0, 0, f64::INFINITY)),
            with_ideal(&topo, flow(2, 5_000, 77, 0, 0, f64::INFINITY)),
        ];
        let mut ws = FluidWorkspace::new();
        let (records, stats) = run_in(&mut ws, &topo, &flows, &FluidBudget::events(1_000), None)
            .expect("every flow completes");
        assert!(
            ws.rearmed_completions() >= 1,
            "input must exercise the re-arm"
        );
        assert_eq!(stats.events, 6 + ws.rearmed_completions());
        assert_eq!(records.len(), 3);
        // All bytes drain at line rate (1.25 B/ns) by the time the last flow
        // finishes.
        let total = (big + big / 3 + 3 + 5_000) as f64 / 1.25;
        let last = records.iter().map(|r| r.arrival + r.fct).max().unwrap() as f64;
        assert!((last - total).abs() <= 1e-9 * total, "{last} vs {total}");
    }

    #[test]
    fn event_budget_trips_on_large_workload() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows: Vec<FluidFlow> = (0..100)
            .map(|i| with_ideal(&topo, flow(i, 10_000, i as u64, 0, 0, f64::INFINITY)))
            .collect();
        let err = try_run(&topo, &flows, &FluidBudget::events(3))
            .expect_err("3 events cannot finish 100 flows");
        assert_eq!(err, FluidError::EventBudgetExceeded { limit: 3 });
    }

    #[test]
    fn try_matches_panicking_entry_point() {
        let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
        let flows: Vec<FluidFlow> = (0..200)
            .map(|i| {
                with_ideal(
                    &topo,
                    flow(
                        i,
                        500 + (i as u64 * 131) % 30_000,
                        (i as u64) * 450,
                        (i % 3) as u16,
                        2,
                        10e9,
                    ),
                )
            })
            .collect();
        let a = simulate_fluid(&topo, &flows);
        let b = try_run(&topo, &flows, &FluidBudget::default()).unwrap();
        assert_eq!(a, b, "budgeted run must be bit-identical when fault-free");
    }

    #[test]
    fn staged_run_accounts_events() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows: Vec<FluidFlow> = (0..50)
            .map(|i| with_ideal(&topo, flow(i, 10_000, i as u64 * 100, 0, 0, f64::INFINITY)))
            .collect();
        let (recs, stats) = run_in(
            &mut FluidWorkspace::new(),
            &topo,
            &flows,
            &FluidBudget::default(),
            None,
        )
        .unwrap();
        assert_eq!(simulate_fluid(&topo, &flows), recs);
        assert!(
            stats.events >= flows.len() as u64,
            "at least one event per flow"
        );
        assert_eq!(stats.wall_checks, 0, "no wall limit set");
    }

    #[test]
    fn probe_samples_are_deterministic_and_do_not_change_records() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Sink {
            samples: Mutex<Vec<(u64, u16, u64, u64)>>, // (vts, link, util_bits, active)
        }
        impl FluidProbeSink for Sink {
            fn on_link(&self, vts_ns: u64, link: u16, utilization: f64) {
                self.samples
                    .lock()
                    .unwrap()
                    .push((vts_ns, link, utilization.to_bits(), u64::MAX));
            }
            fn on_active_flows(&self, vts_ns: u64, active: u64) {
                self.samples.lock().unwrap().push((vts_ns, 0, 0, active));
            }
        }

        let topo = FluidTopology::new(vec![10e9, 10e9]);
        let flows: Vec<FluidFlow> = (0..50)
            .map(|i| {
                with_ideal(
                    &topo,
                    flow(i, 20_000, i as u64 * 700, (i % 2) as u16, 1, f64::INFINITY),
                )
            })
            .collect();

        let run = || {
            let sink = Sink::default();
            let probe = FluidProbe::new(5_000, &sink);
            let mut ws = FluidWorkspace::new();
            let (recs, _) = run_in(
                &mut ws,
                &topo,
                &flows,
                &FluidBudget::default(),
                Some(&probe),
            )
            .unwrap();
            (recs, sink.samples.into_inner().unwrap())
        };
        let (recs_a, samples_a) = run();
        let (recs_b, samples_b) = run();
        assert_eq!(samples_a, samples_b, "probe samples must be deterministic");
        assert!(!samples_a.is_empty(), "stride must fire on this workload");
        assert!(
            samples_a.iter().all(|s| s.0 % 5_000 == 0),
            "samples land on stride boundaries"
        );
        assert_eq!(
            recs_a,
            simulate_fluid(&topo, &flows),
            "probe must not perturb results"
        );
        assert_eq!(recs_a, recs_b);
    }

    #[test]
    fn identical_arrivals_deterministic() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows: Vec<FluidFlow> = (0..100)
            .map(|i| with_ideal(&topo, flow(i, 10_000, 0, 0, 0, f64::INFINITY)))
            .collect();
        let r1 = simulate_fluid(&topo, &flows);
        let r2 = simulate_fluid(&topo, &flows);
        assert_eq!(r1, r2);
    }

    #[test]
    fn link_set_flow_runs_at_line_rate() {
        let mut f = flow(0, 10_000, 0, 0, 0, f64::INFINITY);
        f.latency = 100;
        let recs = simulate_link_sets(&[10e9, 10e9], &[(f, &[0, 1])]);
        assert_eq!(recs[0].fct, 8_000 + 100);
    }

    #[test]
    fn link_sets_match_segments_on_parking_lot() {
        // A parking lot is a network whose routes are contiguous: staged
        // either way, it must give the same records bit for bit.
        let topo = FluidTopology::new(vec![10e9, 40e9, 10e9]);
        let mut state = 99u64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut flows = Vec::new();
        let mut sets = Vec::new();
        for i in 0..200u32 {
            let a = (rng() % 3) as u16;
            let b = (rng() % 3) as u16;
            let (first, last) = (a.min(b), a.max(b));
            let size = 200 + rng() % 80_000;
            let arrival = rng() % 500_000;
            let cap = if rng() % 2 == 0 { 10e9 } else { f64::INFINITY };
            let mut f = with_ideal(&topo, flow(i, size, arrival, first, last, cap));
            f.latency = 55;
            flows.push(f);
            // Descending, so the pool has to sort them.
            sets.push(
                (u32::from(first)..=u32::from(last))
                    .rev()
                    .collect::<Vec<_>>(),
            );
        }
        let as_sets: Vec<(FluidFlow, &[u32])> = flows
            .iter()
            .zip(&sets)
            .map(|(f, s)| (*f, s.as_slice()))
            .collect();
        assert_eq!(
            simulate_fluid(&topo, &flows),
            simulate_link_sets(&topo.link_bps, &as_sets)
        );
    }

    #[test]
    fn non_contiguous_link_sets() {
        // Flow A uses links {0, 2} (skipping 1); B saturates link 1 alone.
        // A and B must not contend.
        let f = |id| {
            let mut f = flow(id, 10_000, 0, 0, 0, f64::INFINITY);
            f.ideal_fct = 8_000;
            f
        };
        let recs = simulate_link_sets(&[10e9, 10e9, 10e9], &[(f(0), &[0, 2]), (f(1), &[1])]);
        assert_eq!(recs[0].fct, 8_000);
        assert_eq!(recs[1].fct, 8_000);
    }

    #[test]
    fn duplicate_links_deduplicated() {
        let f = flow(0, 10_000, 0, 0, 0, f64::INFINITY);
        let recs = simulate_link_sets(&[10e9], &[(f, &[0, 0, 0])]);
        assert_eq!(recs[0].fct, 8_000, "a flow crosses each link once");
    }

    #[test]
    fn star_topology_fairness() {
        // Three flows sharing one hub link pairwise through distinct spokes:
        // hub is the bottleneck, each gets 1/3.
        let caps = [10e9, 10e9, 10e9, 10e9]; // 0 = hub, 1-3 spokes
        let spokes: [[u32; 2]; 3] = [[0, 1], [0, 2], [0, 3]];
        let flows: Vec<(FluidFlow, &[u32])> = (0..3u32)
            .map(|i| {
                let f = flow(i, 30_000, 0, 0, 0, f64::INFINITY);
                (f, spokes[i as usize].as_slice())
            })
            .collect();
        for r in &simulate_link_sets(&caps, &flows) {
            assert_eq!(r.fct, 72_000, "each of 3 flows gets 1/3 of the hub");
        }
    }

    #[test]
    fn invalid_link_sets_are_typed_errors() {
        let mut f = flow(7, 10_000, 0, 0, 0, f64::NAN);
        let err = run_link_sets(&[10e9], &[(f, &[0])], &FluidBudget::UNLIMITED)
            .expect_err("NaN cap must be rejected");
        assert!(matches!(err, FluidError::InvalidInput { flow: 7, .. }));
        f.rate_cap_bps = f64::INFINITY;
        for links in [&[][..], &[0, 3]] {
            let err = run_link_sets(&[10e9, 10e9], &[(f, links)], &FluidBudget::UNLIMITED)
                .expect_err("a set must be non-empty and inside the topology");
            assert!(matches!(err, FluidError::InvalidInput { flow: 7, .. }));
        }

        let many: Vec<(FluidFlow, &[u32])> = (0..50)
            .map(|i| (flow(i, 10_000, i as u64, 0, 0, f64::INFINITY), &[0][..]))
            .collect();
        let err = run_link_sets(&[10e9], &many, &FluidBudget::events(2))
            .expect_err("2 events cannot finish 50 flows");
        assert_eq!(err, FluidError::EventBudgetExceeded { limit: 2 });
    }
}
