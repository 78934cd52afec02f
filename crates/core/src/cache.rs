//! Cross-run scenario cache: content keys for path scenarios and an
//! in-memory LRU keyed by (scenario key, model fingerprint).
//!
//! A prediction for one sampled path depends on exactly three things: the
//! materialized [`PathScenarioData`] (which determines the flowSim result
//! and therefore the feature maps), the spec vector (which folds in the
//! candidate [`SimConfig`](m3_netsim::config::SimConfig)), and the model
//! parameters. [`scenario_fingerprint`] hashes the first two plus the
//! context-ablation flag; the model contributes its own
//! [`fingerprint`](m3_nn::prelude::M3Net::fingerprint). Matching keys
//! therefore imply bit-identical predictions, so repeated `estimate` calls
//! — the counterfactual-query loop and the fig-sweep binaries — skip both
//! flowSim and the network for scenarios they have already answered.
//!
//! The key is a word-at-a-time hash (`KeyHasher`) over one word per
//! field. A foreground flow adds two words, a digest of the flow's own
//! fields (`flow_digest`) and its hop span, in foreground order. The
//! background adds two words whatever its size: its count and the wrapping
//! sum of one term per flow, the hash of that flow's rank in the background
//! list and its two words (a position-indexed sum, AdHash's construction).
//! The rank keeps the background's order in the key: flowSim numbers its
//! flows by position, and with tied arrivals its output depends on that
//! order, so two lists of the same flows in different orders are different
//! scenarios. The terms are still independent of each other, so they
//! pipeline instead of extending one serial chain. The estimate pipeline
//! streams the same words straight from the decomposition index's
//! background scan, so a cache hit never materializes its scenario;
//! `scenario_fingerprint` is the definition that stream is tested against.
//! Keys live only in memory: nothing persists them, so the hash can change
//! without a version bump.

use crate::aggregate::PathDistribution;
use crate::pathsim::{PathFlow, PathScenarioData};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms and runs
/// (unlike `DefaultHasher`, which is randomly keyed per process). Used by
/// [`crate::faultinject`] for deterministic per-slot fault decisions.
pub(crate) struct Fnv(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// `FNV_PRIME^n` (wrapping) for `n` in `0..=8`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut n = 1;
    while n < pow.len() {
        pow[n] = pow[n - 1].wrapping_mul(FNV_PRIME);
        n += 1;
    }
    pow
};

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    /// The eight little-endian bytes of `v`, as eight [`write_u8`] calls
    /// would hash them. A zero byte's step is a bare multiply by the
    /// prime, so the high zero bytes of `v` (most of a size, a hop index
    /// or a latency) fold into one multiply by `prime^zeros`: the hash
    /// chain is serial, and this shortens it without changing its value.
    ///
    /// [`write_u8`]: Self::write_u8
    pub(crate) fn write_u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        for &b in &v.to_le_bytes()[..8 - zeros] {
            self.write_u8(b);
        }
        self.0 = self.0.wrapping_mul(FNV_PRIME_POW[zeros]);
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The low and high halves of the 128-bit product `x * y`, xored: the
/// mixing step of foldhash and wyhash. Flipping bit `i` of `x` moves the
/// product by `2^i * y`, which changes many low bits for small `i` and
/// many high bits for large `i`; the fold keeps both halves.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ ((full >> 64) as u64)
}

/// The scenario-key hash: one folded multiply per 64-bit word. Unlike
/// word-wise FNV-1a, where a product's top bit depends only on the input's
/// top bit (so flipping bit 63 of two consecutive words cancels out), a
/// flip anywhere in a word changes the whole state. One step costs a
/// multiply's latency, against eight serial multiplies of byte-wise FNV-1a.
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    /// Initial state: the fractional digits of pi.
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    /// Odd multiplier: the fractional digits of the golden ratio.
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

    pub(crate) fn new() -> Self {
        KeyHasher(Self::SEED)
    }

    #[inline]
    pub(crate) fn write(&mut self, word: u64) {
        self.0 = folded_multiply(self.0 ^ word, Self::MUL);
    }

    /// One flow on the path: its [`flow_digest`] and its hop span
    /// `first | last << 32` (hop indices are below 2^16, which
    /// [`validate_workload`](crate::error::validate_workload) enforces).
    #[inline]
    pub(crate) fn write_flow(&mut self, digest: u64, first_hop: usize, last_hop: usize) {
        self.write(digest);
        self.write(first_hop as u64 | (last_hop as u64) << 32);
    }

    /// The term of the background sum of the flow at `rank` in the
    /// background list: the key of the rank and the flow's two
    /// [`write_flow`](Self::write_flow) words. Terms of different flows
    /// are independent, so a path's terms pipeline instead of extending one
    /// serial chain, and the rank makes their sum depend on the order.
    #[inline]
    pub(crate) fn background_term(
        rank: usize,
        digest: u64,
        first_hop: usize,
        last_hop: usize,
    ) -> u64 {
        let mut h = KeyHasher::new();
        h.write(rank as u64);
        h.write_flow(digest, first_hop, last_hop);
        h.0
    }

    /// The words after the flows: base RTT, bottleneck, the spec vector's
    /// length and bits, and the context flag. Returns the key.
    pub(crate) fn finish_scenario(
        mut self,
        base_rtt: u64,
        bottleneck: u64,
        spec: &[f32],
        use_context: bool,
    ) -> u64 {
        self.write(base_rtt);
        self.write(bottleneck);
        self.write(spec.len() as u64);
        for &v in spec {
            self.write(u64::from(v.to_bits()));
        }
        self.write(u64::from(use_context));
        self.0
    }
}

/// Everything a flow contributes to a scenario key besides its hop span:
/// size, arrival, NIC cap, latency and ideal FCT, as one word.
pub(crate) fn flow_digest(
    size: u64,
    arrival: u64,
    nic_cap: u64,
    latency: u64,
    ideal_fct: u64,
) -> u64 {
    let mut h = KeyHasher::new();
    for word in [size, arrival, nic_cap, latency, ideal_fct] {
        h.write(word);
    }
    h.0
}

/// Content key of everything one path prediction depends on besides the
/// model parameters. The words, in order: the hop count; each link's
/// bandwidth, then each link's delay; the foreground count, then each
/// foreground flow's `flow_digest` and hop span; the background count,
/// then the wrapping sum of each background flow's
/// `KeyHasher::background_term` at its rank; the foreground base RTT and
/// bottleneck; the spec vector; the context-ablation flag. Both flow lists
/// enter in order, the order flowSim numbers them in. Flow `global_idx` is
/// deliberately excluded — it does not enter flowSim or the feature maps,
/// so scenarios that differ only in workload indices dedupe to one forward
/// pass.
pub fn scenario_fingerprint(data: &PathScenarioData, spec: &[f32], use_context: bool) -> u64 {
    let digest = |f: &PathFlow| flow_digest(f.size, f.arrival, f.nic_cap, f.latency, f.ideal_fct);
    let mut h = KeyHasher::new();
    h.write(data.link_bw.len() as u64);
    for &word in data.link_bw.iter().chain(&data.link_delay) {
        h.write(word);
    }
    h.write(data.fg.len() as u64);
    for f in &data.fg {
        h.write_flow(digest(f), f.first_hop, f.last_hop);
    }
    h.write(data.bg.len() as u64);
    h.write((data.bg.iter().enumerate()).fold(0, |sum, (rank, f)| {
        sum.wrapping_add(KeyHasher::background_term(
            rank,
            digest(f),
            f.first_hop,
            f.last_hop,
        ))
    }));
    h.finish_scenario(data.fg_base_rtt, data.fg_bottleneck, spec, use_context)
}

struct Entry {
    dist: PathDistribution,
    last_used: u64,
    /// Pin refcount. Entries with `pins > 0` are held by live scenario
    /// sessions and are exempt from LRU eviction (but not from explicit
    /// [`ScenarioCache::remove`], which integrity checks use).
    pins: u32,
}

/// In-memory LRU cache of per-path predictions keyed by
/// (scenario fingerprint, model fingerprint).
///
/// Recency is tracked with a monotonic tick; eviction scans for the
/// smallest tick, which is O(len) but runs only on insertion into a full
/// cache — negligible next to the flowSim run a miss implies. Ticks are
/// unique, so eviction order is deterministic.
pub struct ScenarioCache {
    capacity: usize,
    tick: u64,
    map: HashMap<(u64, u64), Entry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    pin_overflows: u64,
}

/// Point-in-time counters of a [`ScenarioCache`], for health/stats
/// snapshots. Counters are cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Entries currently resident.
    pub len: usize,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries removed to make room (LRU) or after failing integrity
    /// checks.
    pub evictions: u64,
    /// Entries currently pinned by live sessions (exempt from LRU).
    #[serde(default)]
    pub pinned: usize,
    /// Eviction-pressure counter: inserts that found every resident entry
    /// pinned and had to overflow past `capacity`. A growing value means
    /// the cache is sized too small for the live session working set.
    #[serde(default)]
    pub pin_overflows: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0.0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.hits + self.misses == 0 {
            return 0.0;
        }
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

impl ScenarioCache {
    /// A cache holding at most `capacity` path distributions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ScenarioCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            pin_overflows: 0,
        }
    }

    /// Look up a prediction, marking it most-recently-used on hit.
    pub fn get(&mut self, scenario: u64, model: u64) -> Option<PathDistribution> {
        self.tick += 1;
        match self.map.get_mut(&(scenario, model)) {
            Some(e) => {
                e.last_used = self.tick;
                self.hits += 1;
                Some(e.dist.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a prediction, evicting the least-recently-used *unpinned*
    /// entry if full. If every resident entry is pinned by a live session,
    /// the insert overflows past capacity (a session's correctness must
    /// never depend on LRU luck) and the pressure is recorded in
    /// [`CacheStats::pin_overflows`].
    pub fn insert(&mut self, scenario: u64, model: u64, dist: PathDistribution) {
        self.tick += 1;
        let key = (scenario, model);
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            match self
                .map
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            {
                Some(victim) => {
                    self.map.remove(&victim);
                    self.evictions += 1;
                }
                None => self.pin_overflows += 1,
            }
        }
        let tick = self.tick;
        self.map
            .entry(key)
            .and_modify(|e| {
                e.dist = dist.clone();
                e.last_used = tick;
            })
            .or_insert(Entry {
                dist,
                last_used: tick,
                pins: 0,
            });
    }

    /// Pin a resident entry so LRU eviction cannot reclaim it while a
    /// session depends on it. Pins are reference counts: each `pin` must be
    /// balanced by one [`ScenarioCache::unpin`]. Returns false (no-op) if
    /// the entry is not resident.
    pub fn pin(&mut self, scenario: u64, model: u64) -> bool {
        match self.map.get_mut(&(scenario, model)) {
            Some(e) => {
                e.pins = e.pins.saturating_add(1);
                true
            }
            None => false,
        }
    }

    /// Drop one pin reference from an entry. Returns false if the entry is
    /// not resident (e.g. it was removed by an integrity check — explicit
    /// [`ScenarioCache::remove`] trumps pinning by design).
    pub fn unpin(&mut self, scenario: u64, model: u64) -> bool {
        match self.map.get_mut(&(scenario, model)) {
            Some(e) => {
                e.pins = e.pins.saturating_sub(1);
                true
            }
            None => false,
        }
    }

    /// Number of entries currently pinned (refcount > 0).
    pub fn pinned(&self) -> usize {
        self.map.values().filter(|e| e.pins > 0).count()
    }

    /// Inserts that overflowed capacity because every entry was pinned.
    pub fn pin_overflows(&self) -> u64 {
        self.pin_overflows
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted so far (LRU pressure plus integrity removals).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Counter snapshot for health/stats reporting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.map.len(),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            pinned: self.pinned(),
            pin_overflows: self.pin_overflows,
        }
    }

    /// Fraction of lookups answered from the cache (NaN before any lookup).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }

    /// Evict a specific entry, e.g. one that failed an integrity check.
    /// Returns true if the entry was present.
    pub fn remove(&mut self, scenario: u64, model: u64) -> bool {
        let removed = self.map.remove(&(scenario, model)).is_some();
        if removed {
            self.evictions += 1;
        }
        removed
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// A cloneable, thread-safe handle to a [`ScenarioCache`], for sharing one
/// cache across the workers of an estimation service (and across service
/// restarts within a process: clone the handle, hand it to the next
/// incarnation, and its warm entries survive).
///
/// The lock is held only for the cache probe and insert phases of an
/// estimate, never across flowSim or the forward pass, so concurrent jobs
/// serialize only on the (cheap) map operations. A panic while the lock is
/// held cannot poison correctness — the cache is a performance layer whose
/// entries are integrity-checked on every hit — so lock poisoning is
/// deliberately ignored.
#[derive(Clone)]
pub struct SharedScenarioCache {
    inner: Arc<Mutex<ScenarioCache>>,
}

impl SharedScenarioCache {
    /// A fresh shared cache holding at most `capacity` path distributions.
    pub fn new(capacity: usize) -> Self {
        SharedScenarioCache {
            inner: Arc::new(Mutex::new(ScenarioCache::new(capacity))),
        }
    }

    /// Lock the underlying cache. Recovers from poisoning (see type docs).
    pub fn lock(&self) -> MutexGuard<'_, ScenarioCache> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counter snapshot without holding the lock beyond the read.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::NUM_OUTPUT_BUCKETS;

    fn dist(tag: f64) -> PathDistribution {
        PathDistribution {
            buckets: vec![vec![tag]; NUM_OUTPUT_BUCKETS],
            counts: [1; NUM_OUTPUT_BUCKETS],
        }
    }

    #[test]
    fn write_u64_hashes_like_eight_byte_writes() {
        // Fault-plan decisions depend on these values: the folded high
        // zero bytes must not change them.
        let mut values = vec![0, 1, 0xff, 0x100, u32::MAX as u64, 1 << 32, u64::MAX];
        values.extend((0..64).map(|s| 0x9E37_79B9_7F4A_7C15u64 >> s));
        values.extend((0..8).map(|b| 0x80u64 << (8 * b)));
        let (mut folded, mut bytewise) = (Fnv::new(), Fnv::new());
        for v in values {
            folded.write_u64(v);
            for b in v.to_le_bytes() {
                bytewise.write_u8(b);
            }
            assert_eq!(folded.finish(), bytewise.finish(), "after {v:#x}");
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = ScenarioCache::new(8);
        assert!(c.get(1, 1).is_none());
        c.insert(1, 1, dist(2.0));
        let d = c.get(1, 1).expect("hit");
        assert_eq!(d.buckets[0], vec![2.0]);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn model_fingerprint_partitions_keys() {
        let mut c = ScenarioCache::new(8);
        c.insert(7, 100, dist(1.0));
        assert!(c.get(7, 200).is_none(), "other model must miss");
        assert!(c.get(7, 100).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ScenarioCache::new(2);
        c.insert(1, 0, dist(1.0));
        c.insert(2, 0, dist(2.0));
        c.get(1, 0); // refresh 1 -> victim is 2
        c.insert(3, 0, dist(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(2, 0).is_none(), "entry 2 was LRU");
        assert!(c.get(1, 0).is_some());
        assert!(c.get(3, 0).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = ScenarioCache::new(2);
        c.insert(1, 0, dist(1.0));
        c.insert(1, 0, dist(9.0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1, 0).unwrap().buckets[0], vec![9.0]);
    }

    #[test]
    fn remove_evicts_only_the_named_entry() {
        let mut c = ScenarioCache::new(8);
        c.insert(1, 0, dist(1.0));
        c.insert(2, 0, dist(2.0));
        assert!(c.remove(1, 0));
        assert!(!c.remove(1, 0), "second removal is a no-op");
        assert!(c.get(1, 0).is_none());
        assert!(c.get(2, 0).is_some(), "other entries untouched");
    }

    #[test]
    fn poisoned_entry_fails_sanity_and_can_be_evicted() {
        // A corrupt distribution (NaN percentile) must be detectable via
        // is_sane() so the estimator can evict and recompute it.
        let mut c = ScenarioCache::new(8);
        let mut bad = dist(1.0);
        bad.buckets[0][0] = f64::NAN;
        assert!(!bad.is_sane());
        c.insert(5, 9, bad);
        let fetched = c.get(5, 9).expect("poisoned entry is stored verbatim");
        assert!(!fetched.is_sane());
        assert!(c.remove(5, 9));
        assert!(c.get(5, 9).is_none(), "evicted, forcing recomputation");

        // Inconsistent count/bucket pairing is also insane.
        let mut skew = dist(1.0);
        skew.counts[0] = 0; // bucket 0 still has a sample
        assert!(!skew.is_sane());
        // A legitimate distribution is sane.
        assert!(dist(3.0).is_sane());
    }

    #[test]
    fn eviction_counters_track_lru_and_integrity_removals() {
        let mut c = ScenarioCache::new(2);
        c.insert(1, 0, dist(1.0));
        c.insert(2, 0, dist(2.0));
        assert_eq!(c.evictions(), 0);
        c.insert(3, 0, dist(3.0)); // LRU eviction
        assert_eq!(c.evictions(), 1);
        assert!(c.remove(3, 0)); // integrity-style removal
        assert_eq!(c.evictions(), 2);
        assert!(!c.remove(3, 0), "absent entry is not an eviction");
        assert_eq!(c.evictions(), 2);
        let s = c.stats();
        assert_eq!((s.len, s.evictions), (1, 2));
    }

    #[test]
    fn pinned_entries_survive_lru_pressure() {
        let mut c = ScenarioCache::new(2);
        c.insert(1, 0, dist(1.0));
        c.insert(2, 0, dist(2.0));
        assert!(c.pin(1, 0));
        c.get(1, 0); // 1 is both pinned AND most recently used
        c.get(2, 0); // ...no: now 2 is MRU, 1 is pinned LRU
        c.insert(3, 0, dist(3.0));
        // Victim must be 2 (unpinned), not 1 (LRU but pinned).
        assert!(c.get(1, 0).is_some(), "pinned entry survives");
        assert!(c.get(2, 0).is_none(), "unpinned MRU entry was the victim");
        assert!(c.get(3, 0).is_some());
        assert_eq!(c.stats().pinned, 1);
        assert_eq!(c.pin_overflows(), 0);
    }

    #[test]
    fn all_pinned_overflows_instead_of_evicting() {
        let mut c = ScenarioCache::new(2);
        c.insert(1, 0, dist(1.0));
        c.insert(2, 0, dist(2.0));
        assert!(c.pin(1, 0));
        assert!(c.pin(2, 0));
        c.insert(3, 0, dist(3.0));
        assert_eq!(c.len(), 3, "insert overflowed rather than evict a pin");
        assert_eq!(c.pin_overflows(), 1);
        assert_eq!(c.evictions(), 0);
        // Unpinning restores normal eviction on the next full insert.
        assert!(c.unpin(1, 0));
        c.insert(4, 0, dist(4.0));
        assert!(c.get(1, 0).is_none(), "unpinned LRU entry evicted");
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn pins_are_refcounted_and_remove_trumps_pinning() {
        let mut c = ScenarioCache::new(4);
        c.insert(1, 0, dist(1.0));
        assert!(c.pin(1, 0));
        assert!(c.pin(1, 0));
        assert!(c.unpin(1, 0));
        assert_eq!(c.stats().pinned, 1, "one reference still held");
        assert!(!c.pin(9, 9), "pinning an absent key is a no-op");
        // Integrity removal works even while pinned.
        assert!(c.remove(1, 0));
        assert!(!c.unpin(1, 0), "entry already gone");
        assert_eq!(c.stats().pinned, 0);
    }

    #[test]
    fn shared_cache_is_safe_and_consistent_across_threads() {
        let shared = SharedScenarioCache::new(1024);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let key = t * 1000 + i;
                    h.lock().insert(key, 0, dist(key as f64));
                    let got = h.lock().get(key, 0).expect("own insert visible");
                    assert_eq!(got.buckets[0], vec![key as f64]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = shared.stats();
        assert_eq!(s.len, 800);
        assert_eq!(s.hits, 800);
        assert_eq!(s.evictions, 0);
        assert!((s.hit_rate() - 1.0).abs() < 1e-12);
    }

    /// A two-hop scenario with one foreground and one background flow.
    fn hand_built() -> PathScenarioData {
        use crate::pathsim::PathFlow;
        let flow = |size, first_hop, last_hop| PathFlow {
            global_idx: 0,
            size,
            arrival: 5,
            first_hop,
            last_hop,
            nic_cap: 10_000_000_000,
            latency: 2000,
            ideal_fct: 3000,
        };
        PathScenarioData {
            link_bw: vec![10_000_000_000, 25_000_000_000],
            link_delay: vec![1000, 1500],
            fg: vec![flow(1000, 0, 1)],
            bg: vec![flow(7000, 1, 1)],
            fg_base_rtt: 8000,
            fg_bottleneck: 10_000_000_000,
        }
    }

    #[test]
    fn scenario_key_value_is_pinned() {
        // Keys are never persisted, but the streamed key and every caller
        // must agree on one definition: a change of the hash shows here.
        // The value was also computed from the definition by an
        // independent implementation outside the crate,
        // `scripts/scenario_key_ref.py`.
        let key = scenario_fingerprint(&hand_built(), &SPEC, true);
        assert_eq!(key, 0x8077_6d09_5915_a221);
    }

    const SPEC: [f32; 4] = [0.5, 0.25, 0.0, 1.0];

    /// The background is keyed in order: moving a flow to another rank
    /// changes the key, as it changes the ids flowSim runs the flows under;
    /// trading two flows whose key fields are equal does not.
    #[test]
    fn background_order_changes_the_key() {
        let mut d = hand_built();
        let template = d.bg[0].clone();
        d.bg = (0..6)
            .map(|i| PathFlow {
                global_idx: i,
                size: 500 + 300 * u64::from(i % 3),
                first_hop: (i % 2) as usize,
                ..template.clone()
            })
            .collect();
        let key = scenario_fingerprint(&d, &SPEC, true);
        let mut perm = d.clone();
        for rotate in 1..6 {
            perm.bg.rotate_left(1);
            assert_ne!(
                scenario_fingerprint(&perm, &SPEC, true),
                key,
                "rotation {rotate}"
            );
        }
        // Flows 0 and 1 trade ranks: the same multiset of flows.
        let mut swapped = d.clone();
        swapped.bg.swap(0, 1);
        assert_ne!(scenario_fingerprint(&swapped, &SPEC, true), key);
        // Flows 0 and 6 differ only in `global_idx`, which is not keyed.
        let mut twin = d.clone();
        twin.bg.push(PathFlow {
            global_idx: 6,
            ..d.bg[0].clone()
        });
        let twin_key = scenario_fingerprint(&twin, &SPEC, true);
        twin.bg.swap(0, 6);
        assert_eq!(scenario_fingerprint(&twin, &SPEC, true), twin_key);
    }

    /// Every full-word hashed field of [`hand_built`]: all but the hop
    /// spans, the spec vector and the context flag.
    fn word_fields(d: &mut PathScenarioData) -> Vec<&mut u64> {
        let mut fields: Vec<&mut u64> = d.link_bw.iter_mut().collect();
        fields.extend(d.link_delay.iter_mut());
        for f in d.fg.iter_mut().chain(d.bg.iter_mut()) {
            fields.extend([
                &mut f.size,
                &mut f.arrival,
                &mut f.nic_cap,
                &mut f.latency,
                &mut f.ideal_fct,
            ]);
        }
        fields.extend([&mut d.fg_base_rtt, &mut d.fg_bottleneck]);
        fields
    }

    #[test]
    fn flipping_any_bit_of_any_hashed_field_changes_the_key() {
        let base = scenario_fingerprint(&hand_built(), &SPEC, true);
        let mut keys = std::collections::HashSet::from([base]);
        let mut flipped = |key: u64, what: String| {
            assert!(keys.insert(key), "{what}: key collides with another flip");
        };
        for field in 0..word_fields(&mut hand_built()).len() {
            for bit in 0..64 {
                let mut d = hand_built();
                *word_fields(&mut d).swap_remove(field) ^= 1 << bit;
                let what = format!("field {field} bit {bit}");
                flipped(scenario_fingerprint(&d, &SPEC, true), what);
            }
        }
        // Hop indices are below 2^16, so 32 bits of each is generous.
        for flow in 0..2 {
            for bit in 0..32 {
                for last in [false, true] {
                    let mut d = hand_built();
                    let f = if flow == 0 {
                        &mut d.fg[0]
                    } else {
                        &mut d.bg[0]
                    };
                    *(if last {
                        &mut f.last_hop
                    } else {
                        &mut f.first_hop
                    }) ^= 1 << bit;
                    let what = format!("flow {flow} hop bit {bit} (last: {last})");
                    flipped(scenario_fingerprint(&d, &SPEC, true), what);
                }
            }
        }
        for i in 0..SPEC.len() {
            for bit in 0..32 {
                let mut spec = SPEC;
                spec[i] = f32::from_bits(spec[i].to_bits() ^ 1 << bit);
                let key = scenario_fingerprint(&hand_built(), &spec, true);
                flipped(key, format!("spec {i} bit {bit}"));
            }
        }
        flipped(
            scenario_fingerprint(&hand_built(), &SPEC, false),
            "context".into(),
        );
    }

    #[test]
    fn flipping_the_top_bit_of_two_words_changes_the_key() {
        // Word-wise FNV-1a, `h = (h ^ w) * prime`, carries a flip of bit 63
        // of the input to bit 63 of the product and nowhere else (the
        // prime is odd), so the same flip in the next word cancels it.
        let fnv_words = |words: &[u64]| {
            (words.iter()).fold(0xcbf2_9ce4_8422_2325u64, |h, &w| {
                (h ^ w).wrapping_mul(0x100_0000_01b3)
            })
        };
        let key_words = |words: &[u64]| {
            let mut h = KeyHasher::new();
            words.iter().for_each(|&w| h.write(w));
            h.0
        };
        let words: Vec<u64> = (1..=12).map(|i| i * 0x1234_5678_9abc).collect();
        let top = 1u64 << 63;
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                let mut w = words.clone();
                w[i] ^= top;
                w[j] ^= top;
                assert_ne!(key_words(&w), key_words(&words), "words {i} and {j}");
                if j == i + 1 {
                    assert_eq!(fnv_words(&w), fnv_words(&words), "the FNV-1a collision");
                }
            }
        }
        // The same pair in a scenario: the top bits of both link rates.
        let mut d = hand_built();
        d.link_bw[0] ^= top;
        d.link_bw[1] ^= top;
        let key = scenario_fingerprint(&d, &SPEC, true);
        assert_ne!(key, scenario_fingerprint(&hand_built(), &SPEC, true));
    }

    #[test]
    fn fingerprint_sensitive_to_content() {
        use crate::pathsim::{PathFlow, PathScenarioData};
        let flow = PathFlow {
            global_idx: 0,
            size: 1000,
            arrival: 5,
            first_hop: 0,
            last_hop: 1,
            nic_cap: 10_000_000_000,
            latency: 2000,
            ideal_fct: 3000,
        };
        let base = PathScenarioData {
            link_bw: vec![10_000_000_000; 2],
            link_delay: vec![1000; 2],
            fg: vec![flow.clone()],
            bg: vec![],
            fg_base_rtt: 8000,
            fg_bottleneck: 10_000_000_000,
        };
        let spec = vec![0.5f32; 4];
        let a = scenario_fingerprint(&base, &spec, true);
        assert_eq!(a, scenario_fingerprint(&base, &spec, true), "stable");
        assert_ne!(a, scenario_fingerprint(&base, &spec, false), "ablation");
        assert_ne!(
            a,
            scenario_fingerprint(&base, &[0.6f32, 0.5, 0.5, 0.5], true),
            "spec (config) change"
        );
        let mut bigger = base.clone();
        bigger.fg[0].size = 2000;
        assert_ne!(a, scenario_fingerprint(&bigger, &spec, true), "flow size");
        // global_idx is excluded on purpose: same content, different
        // workload index, same key.
        let mut renumbered = base.clone();
        renumbered.fg[0].global_idx = 42;
        assert_eq!(a, scenario_fingerprint(&renumbered, &spec, true));
        // fg/bg boundary matters even with identical flat flow lists.
        let mut moved = base.clone();
        moved.bg = std::mem::take(&mut moved.fg);
        assert_ne!(a, scenario_fingerprint(&moved, &spec, true));
    }
}
