//! Base units used throughout the simulator.
//!
//! Time is measured in integer nanoseconds, sizes in bytes, and link
//! capacities in bits per second. Keeping time integral makes the
//! discrete-event simulation exactly reproducible across platforms; floating
//! point only appears in derived statistics (rates, slowdowns).

/// Simulation time in nanoseconds.
pub type Nanos = u64;

/// Data size in bytes.
pub type Bytes = u64;

/// Link capacity in bits per second.
pub type Bps = u64;

/// One microsecond in [`Nanos`].
pub const USEC: Nanos = 1_000;
/// One millisecond in [`Nanos`].
pub const MSEC: Nanos = 1_000_000;
/// One second in [`Nanos`].
pub const SEC: Nanos = 1_000_000_000;

/// One kilobyte (10^3 bytes), matching the paper's KB-based flow buckets.
pub const KB: Bytes = 1_000;
/// One megabyte (10^6 bytes).
pub const MB: Bytes = 1_000_000;

/// One gigabit per second.
pub const GBPS: Bps = 1_000_000_000;

/// Time to serialize `bytes` onto a link of capacity `bps`, rounded up to the
/// next nanosecond so a packet is never delivered before its last bit.
///
/// `bytes * 8e9` fits a `u64` for any flow under 2.3 GB, and a 64-bit
/// division is several times cheaper than a 128-bit one; larger sizes take
/// the 128-bit path. Both compute the same value.
#[inline]
pub fn tx_time(bytes: Bytes, bps: Bps) -> Nanos {
    debug_assert!(bps > 0, "link capacity must be positive");
    match bytes.checked_mul(8 * SEC) {
        Some(bits) => bits.div_ceil(bps),
        None => ((bytes as u128) * 8 * 1_000_000_000).div_ceil(bps as u128) as Nanos,
    }
}

/// Bytes transmittable in `dur` nanoseconds at `bps` (rounded down).
#[inline]
pub fn bytes_in(dur: Nanos, bps: Bps) -> Bytes {
    ((dur as u128) * (bps as u128) / (8 * 1_000_000_000)) as Bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_exact() {
        // 1000 bytes at 10 Gbps = 8000 bits / 10 bits-per-ns = 800 ns.
        assert_eq!(tx_time(1000, 10 * GBPS), 800);
        // 1 byte at 10 Gbps: 8 bits / 10 bits-per-ns = 0.8 ns -> rounds up.
        assert_eq!(tx_time(1, 10 * GBPS), 1);
    }

    #[test]
    fn tx_time_rounds_up() {
        // 125 bytes at 3 Gbps: 1000 bits / 3 bits-per-ns = 333.33 -> 334.
        assert_eq!(tx_time(125, 3 * GBPS), 334);
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let bps = 40 * GBPS;
        let t = tx_time(9000, bps);
        assert!(bytes_in(t, bps) >= 9000);
    }

    #[test]
    fn tx_time_matches_the_128_bit_formula_at_the_boundaries() {
        let reference = |bytes: Bytes, bps: Bps| {
            ((bytes as u128) * 8 * 1_000_000_000).div_ceil(bps as u128) as Nanos
        };
        let edge = u64::MAX / (8 * SEC);
        for bytes in [0, 1, 1_000, 9_000, edge - 1, edge, edge + 1, u64::MAX] {
            for bps in [1, 10 * GBPS, u64::MAX] {
                assert_eq!(
                    tx_time(bytes, bps),
                    reference(bytes, bps),
                    "{bytes} B at {bps} bps"
                );
            }
        }
        // The edge is where the 64-bit product stops fitting.
        assert!(edge.checked_mul(8 * SEC).is_some());
        assert!((edge + 1).checked_mul(8 * SEC).is_none());
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(tx_time(0, GBPS), 0);
    }
}
