//! Rendezvous (highest-random-weight) routing for the estimation cluster.
//!
//! Each request is hashed to a stable 64-bit routing key — the FNV-1a
//! content hash (the same `checksum64` the scenario cache and journal use)
//! of its canonical JSON — and assigned to the live shard with the highest
//! `hash(key ‖ shard)` score. Rendezvous hashing gives the two properties
//! the coordinator's failover depends on, *by construction*:
//!
//! * **Determinism**: placement is a pure function of `(key, live set)` —
//!   no ring state, no rebalancing history. Two coordinators (or one
//!   coordinator before and after a crash) agree on every assignment.
//! * **Minimal disruption**: removing a shard only moves the keys that
//!   were assigned to it (each surviving shard's score for a key is
//!   unchanged), so a shard death reroutes ~1/N of the keyspace instead
//!   of reshuffling everything.
//!
//! `rank` orders *all* live shards by score, giving the dispatch path a
//! deterministic failover sequence: if the top shard's breaker is open or
//! its queue is full, the next-ranked shard is the unique, stable second
//! choice.

use crate::request::EstimateRequest;
use m3_nn::prelude::checksum64;

/// Stable routing key for a request: `checksum64` of its canonical JSON.
///
/// Scatter children of one large scenario differ only in `path_slice`,
/// which is part of the serialized form — so they spread across shards
/// instead of piling onto one.
pub fn routing_key(request: &EstimateRequest) -> u64 {
    match serde_json::to_string(request) {
        Ok(json) => checksum64(json.as_bytes()),
        // Serialization of a plain-data request cannot fail in practice;
        // a zero key still routes (to a deterministic shard).
        Err(_) => 0,
    }
}

/// Rendezvous score of `shard` for `key`.
fn score(key: u64, shard: usize) -> u64 {
    let mut buf = [0u8; 16];
    buf[..8].copy_from_slice(&key.to_le_bytes());
    buf[8..].copy_from_slice(&(shard as u64).to_le_bytes());
    checksum64(&buf)
}

/// The live shard that owns `key`: argmax of the rendezvous score over
/// `live`.
/// Returns `None` when `live` is empty. Pure in `(key, live set)` — the
/// order of `live` does not matter (ties, vanishingly rare with a 64-bit
/// hash, break toward the smaller shard index to stay order-free).
pub fn route(key: u64, live: &[usize]) -> Option<usize> {
    live.iter().copied().max_by(|&a, &b| {
        score(key, a).cmp(&score(key, b)).then(b.cmp(&a)) // prefer the smaller index on a score tie
    })
}

/// All live shards ordered by descending rendezvous score for `key`:
/// `rank(...)[0] == route(...)` and the tail is the deterministic failover
/// order. Pure in `(key, live set)`.
pub fn rank(key: u64, live: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = live.to_vec();
    order.sort_by(|&a, &b| {
        score(key, b).cmp(&score(key, a)).then(a.cmp(&b)) // smaller index first on a score tie
    });
    order.dedup();
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ConfigSpec, ScenarioSpec, TopoSpec, WorkloadSpec};

    fn req(seed: u64) -> EstimateRequest {
        EstimateRequest::new(
            ScenarioSpec {
                topology: TopoSpec::FatTreeSmall { oversub: 2 },
                workload: WorkloadSpec {
                    n_flows: 100,
                    matrix: "B".into(),
                    sizes: "WebServer".into(),
                    sigma: 1.0,
                    max_load: 0.4,
                },
                config: ConfigSpec::default(),
            },
            4,
            seed,
        )
    }

    #[test]
    fn key_is_stable_and_content_sensitive() {
        assert_eq!(routing_key(&req(1)), routing_key(&req(1)));
        assert_ne!(routing_key(&req(1)), routing_key(&req(2)));
        let mut sliced = req(1);
        sliced.path_slice = Some(m3_core::prelude::PathSlice { start: 0, end: 2 });
        assert_ne!(
            routing_key(&req(1)),
            routing_key(&sliced),
            "scatter children must hash differently from their parent"
        );
    }

    #[test]
    fn route_is_rank_head_and_order_free() {
        let live = [0usize, 1, 2, 3, 4];
        let mut shuffled = [3usize, 0, 4, 2, 1];
        for key in 0..200u64 {
            let r = rank(key, &live);
            assert_eq!(route(key, &live), r.first().copied());
            assert_eq!(route(key, &live), route(key, &shuffled));
            assert_eq!(rank(key, &live), rank(key, &shuffled));
            shuffled.rotate_left(1);
        }
        assert_eq!(route(7, &[]), None);
    }

    #[test]
    fn keys_spread_across_shards() {
        let live = [0usize, 1, 2, 3];
        let mut counts = [0usize; 4];
        for key in 0..400u64 {
            counts[route(key, &live).unwrap()] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                c > 400 / 4 / 3,
                "shard {shard} starved: {counts:?} (hash badly skewed)"
            );
        }
    }

    #[test]
    fn removal_only_moves_the_dead_shards_keys() {
        let live = [0usize, 1, 2, 3, 4, 5, 6, 7];
        let survivors: Vec<usize> = live.iter().copied().filter(|&s| s != 3).collect();
        let mut moved = 0usize;
        for key in 0..1000u64 {
            let before = route(key, &live).unwrap();
            let after = route(key, &survivors).unwrap();
            if before == 3 {
                moved += 1;
                assert_ne!(after, 3);
            } else {
                assert_eq!(before, after, "key {key} moved off a surviving shard");
            }
        }
        // ~1/8 of 1000 keys lived on shard 3; all of them (and only them)
        // moved.
        assert!((60..250).contains(&moved), "moved {moved} of 1000");
    }
}
