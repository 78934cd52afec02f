//! The fast flowSim engine (Algorithm 1 of the paper).
//!
//! Flows are grouped by (segment, rate cap): every flow in a group shares
//! the same link set, so max-min assigns all of them the same rate. The
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

#[derive(Debug)]
struct Group {
    first: u16,
    last: u16,
    /// The flows' rate cap as given (bits/sec); with the segment, the
    /// group's identity.
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
    fn links(&self) -> std::ops::RangeInclusive<usize> {
        usize::from(self.first)..=usize::from(self.last)
    }

    /// Completion time of the head target from the current service and rate.
    fn head_completion(&self, now: f64) -> f64 {
        match self.targets.peek() {
            Some(Reverse(t)) => now + (t.service - self.service).max(0.0) / self.rate,
            None => f64::INFINITY,
        }
    }
}

/// Sort key of one arrival: `(arrival, id, input position)`. Caching it
/// keeps the arrival sort and the loop's "next arrival" reads off the
/// `flows[i]` indirection; the position makes every key distinct.
type ArrivalKey = (Nanos, u32, u32);

/// Empty slot of the group table.
const NO_GROUP: u32 = u32::MAX;

fn group_hash(first: u16, last: u16, cap_bits: u64) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let span = u64::from(first) << 16 | u64::from(last);
    (span.wrapping_mul(K).rotate_left(5) ^ cap_bits).wrapping_mul(K)
}

/// Everything the event loop needs besides its input and output.
#[derive(Debug, Default)]
struct Scratch {
    order: Vec<ArrivalKey>,
    groups: Vec<Group>,
    /// Emptied target heaps recycled from finished runs; fresh groups pop
    /// one of these and inherit its capacity instead of allocating.
    spare_heaps: Vec<BinaryHeap<Reverse<Target>>>,
    /// Open-addressed (segment, cap) -> group index table, linear probing,
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
/// area ([`FluidWorkspace::stage`]) where a caller can build the fluid
/// model in place instead of allocating a topology and a flow vector per
/// run. All of them are cleared, never dropped, between runs, so a warm
/// workspace makes repeated [`try_simulate_fluid_traced_into`] /
/// [`try_simulate_staged`] calls allocation-free: after the first run on a
/// given workload shape, steady-state simulation touches the heap zero
/// times. Nothing carries over between runs but capacity.
#[derive(Debug, Default)]
pub struct FluidWorkspace {
    staged_link_bps: Vec<f64>,
    staged_flows: Vec<FluidFlow>,
    scratch: Scratch,
}

impl FluidWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Release all retained capacity (memory-pressure escape hatch).
    pub fn free_buffers(&mut self) {
        *self = Self::default();
    }

    /// Start staging a run in place: records the topology (per-link
    /// capacities in bits/sec, path order; same contract — and the same
    /// panics — as [`FluidTopology::new`]) and returns the emptied flow
    /// buffer for the caller to fill. [`try_simulate_staged`] then runs it.
    pub fn stage(&mut self, link_bps: impl IntoIterator<Item = f64>) -> &mut Vec<FluidFlow> {
        self.staged_link_bps.clear();
        self.staged_link_bps.extend(link_bps);
        FluidTopology::assert_valid(&self.staged_link_bps);
        self.staged_flows.clear();
        &mut self.staged_flows
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

/// Run flowSim: max-min fluid simulation of `flows` over `topo`.
///
/// Flows need not be sorted; results are returned sorted by flow id. Every
/// flow completes (the fluid model cannot lose traffic), so the output
/// length always equals the input length.
///
/// Panics on invalid input; for a fallible, resource-bounded run use
/// [`try_simulate_fluid`].
pub fn simulate_fluid(topo: &FluidTopology, flows: &[FluidFlow]) -> Vec<FluidFctRecord> {
    match try_simulate_fluid(topo, flows, &FluidBudget::UNLIMITED) {
        Ok(records) => records,
        Err(e) => panic!("flowSim failed: {e}"),
    }
}

/// Fallible flowSim: validates inputs, bounds the run by `budget`, and turns
/// the engine's internal invariants (finite event times, waterfill progress)
/// into typed errors instead of debug-only assertions. Identical results to
/// [`simulate_fluid`] whenever that one succeeds.
pub fn try_simulate_fluid(
    topo: &FluidTopology,
    flows: &[FluidFlow],
    budget: &FluidBudget,
) -> Result<Vec<FluidFctRecord>, FluidError> {
    try_simulate_fluid_stats(topo, flows, budget).map(|(records, _)| records)
}

/// [`try_simulate_fluid`] plus deterministic budget-consumption accounting:
/// how many outer events the run executed and how often the wall clock was
/// sampled. The records are identical to the plain entry point's.
pub fn try_simulate_fluid_stats(
    topo: &FluidTopology,
    flows: &[FluidFlow],
    budget: &FluidBudget,
) -> Result<(Vec<FluidFctRecord>, FluidRunStats), FluidError> {
    try_simulate_fluid_traced(topo, flows, budget, None)
}

/// [`try_simulate_fluid_stats`] with an optional virtual-time
/// [`FluidProbe`]: per-link utilization and active-flow counts are sampled
/// at the probe's stride and forwarded to its sink. Records are identical
/// to the unprobed entry points — the probe only observes.
pub fn try_simulate_fluid_traced(
    topo: &FluidTopology,
    flows: &[FluidFlow],
    budget: &FluidBudget,
    probe: Option<&FluidProbe<'_>>,
) -> Result<(Vec<FluidFctRecord>, FluidRunStats), FluidError> {
    let mut ws = FluidWorkspace::default();
    let mut records = Vec::new();
    let stats = try_simulate_fluid_traced_into(topo, flows, budget, probe, &mut ws, &mut records)?;
    Ok((records, stats))
}

/// [`try_simulate_fluid_traced`] with caller-owned scratch: `ws` supplies
/// every internal collection and `records` receives the sorted results
/// (cleared first). Bit-identical to the owning entry points; with a warm
/// workspace the steady-state run performs zero heap allocations.
pub fn try_simulate_fluid_traced_into(
    topo: &FluidTopology,
    flows: &[FluidFlow],
    budget: &FluidBudget,
    probe: Option<&FluidProbe<'_>>,
    ws: &mut FluidWorkspace,
    records: &mut Vec<FluidFctRecord>,
) -> Result<FluidRunStats, FluidError> {
    run(
        &topo.link_bps,
        flows,
        budget,
        probe,
        &mut ws.scratch,
        records,
    )
}

/// [`try_simulate_fluid_traced_into`] over the input staged in `ws` by
/// [`FluidWorkspace::stage`]: no topology or flow vector is built per run.
pub fn try_simulate_staged(
    budget: &FluidBudget,
    probe: Option<&FluidProbe<'_>>,
    ws: &mut FluidWorkspace,
    records: &mut Vec<FluidFctRecord>,
) -> Result<FluidRunStats, FluidError> {
    let FluidWorkspace {
        staged_link_bps,
        staged_flows,
        scratch,
    } = ws;
    run(
        staged_link_bps,
        staged_flows,
        budget,
        probe,
        scratch,
        records,
    )
}

/// The event loop behind every entry point.
fn run(
    link_bps: &[f64],
    flows: &[FluidFlow],
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
        f.check_links(n_links)
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
                        if g.links().contains(&l) {
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
            let gi = find_or_create_group(f, groups, table, spare_heaps);
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
        waterfill(links, groups, active).map_err(|()| FluidError::Stalled {
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

/// Index of the group holding `f`'s (segment, cap), created on first sight.
/// Group indices therefore ascend in order of first arrival.
fn find_or_create_group(
    f: &FluidFlow,
    groups: &mut Vec<Group>,
    table: &mut Vec<u32>,
    spare_heaps: &mut Vec<BinaryHeap<Reverse<Target>>>,
) -> u32 {
    let cap_bits = f.rate_cap_bps.to_bits();
    let hash = group_hash(f.first_link, f.last_link, cap_bits);
    let mask = table.len() - 1;
    let mut slot = home_slot(hash, table.len());
    while table[slot] != NO_GROUP {
        let g = &groups[table[slot] as usize];
        if g.first == f.first_link && g.last == f.last_link && g.cap_bits == cap_bits {
            return table[slot];
        }
        slot = (slot + 1) & mask;
    }
    let gi = groups.len() as u32;
    groups.push(Group {
        first: f.first_link,
        last: f.last_link,
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
            table_insert(table, group_hash(g.first, g.last, g.cap_bits), gi as u32);
        }
    } else {
        table[slot] = gi;
    }
    gi
}

/// One path link: its capacity and the state of the current waterfill.
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
fn waterfill(links: &mut [Link], groups: &mut [Group], active: &[u32]) -> Result<(), ()> {
    for l in links.iter_mut() {
        l.residual = l.cap;
        l.nflows = 0;
        l.demand = 0.0;
    }
    for &gi in active {
        let g = &mut groups[gi as usize];
        g.fixed = false;
        let demand = g.cap * f64::from(g.n);
        for l in &mut links[g.links()] {
            l.nflows += g.n;
            l.demand += demand;
        }
    }
    if active.len() <= UNCONGESTED_MAX_GROUPS
        && links.iter().all(|l| l.demand <= l.cap * UNCONGESTED)
    {
        debug_assert!(
            progressive_fill(links, groups, active).is_ok()
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
    progressive_fill(links, groups, active)
}

/// Progressive filling over the state [`waterfill`] set up: repeatedly fix
/// the unfixed group with the smallest cap, or — when a link's fair share is
/// smaller still — every unfixed group crossing the tightest link.
fn progressive_fill(links: &mut [Link], groups: &mut [Group], active: &[u32]) -> Result<(), ()> {
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
                fix(links, &mut groups[gi as usize], r_cap);
                unfixed -= 1;
            }
            // Link saturates: fix every unfixed group crossing it.
            _ => {
                let before = unfixed;
                for &gi in active {
                    let g = &mut groups[gi as usize];
                    if !g.fixed && g.links().contains(&l_star) {
                        fix(links, g, r_link);
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
fn fix(links: &mut [Link], g: &mut Group, rate: f64) {
    g.rate = rate;
    g.fixed = true;
    for l in &mut links[g.links()] {
        l.residual = (l.residual - rate * f64::from(g.n)).max(0.0);
        l.nflows -= g.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let err = try_simulate_fluid(&topo, &[f], &FluidBudget::UNLIMITED)
            .expect_err("NaN cap must be rejected");
        assert!(matches!(err, FluidError::InvalidInput { flow: 0, .. }));
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
        let mut records = Vec::new();
        let stats = try_simulate_fluid_traced_into(
            &topo,
            &flows,
            &FluidBudget::events(1_000),
            None,
            &mut ws,
            &mut records,
        )
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
        let err = try_simulate_fluid(&topo, &flows, &FluidBudget::events(3))
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
        let b = try_simulate_fluid(&topo, &flows, &FluidBudget::default()).unwrap();
        assert_eq!(a, b, "budgeted run must be bit-identical when fault-free");
    }

    #[test]
    fn stats_entry_point_matches_and_accounts_events() {
        let topo = FluidTopology::new(vec![10e9]);
        let flows: Vec<FluidFlow> = (0..50)
            .map(|i| with_ideal(&topo, flow(i, 10_000, i as u64 * 100, 0, 0, f64::INFINITY)))
            .collect();
        let plain = try_simulate_fluid(&topo, &flows, &FluidBudget::default()).unwrap();
        let (recs, stats) =
            try_simulate_fluid_stats(&topo, &flows, &FluidBudget::default()).unwrap();
        assert_eq!(plain, recs, "stats variant must not change results");
        assert!(
            stats.events >= flows.len() as u64,
            "at least one event per flow"
        );
        assert_eq!(stats.wall_checks, 0, "no wall limit set");
    }

    #[test]
    fn probe_samples_are_deterministic_and_do_not_change_records() {
        use crate::probe::{FluidProbe, FluidProbeSink};
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
            let (recs, _) =
                try_simulate_fluid_traced(&topo, &flows, &FluidBudget::default(), Some(&probe))
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
        let plain = try_simulate_fluid(&topo, &flows, &FluidBudget::default()).unwrap();
        assert_eq!(recs_a, plain, "probe must not perturb results");
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
}
