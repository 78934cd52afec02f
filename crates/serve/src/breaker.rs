//! Per-stage circuit breaker.
//!
//! Tracks consecutive failures of one pipeline stage across jobs. After 3
//! consecutive failures (`FAILURE_THRESHOLD`) the breaker *opens*: workers
//! stop attempting the full ML pipeline and route jobs down the
//! flowSim-only degraded path until the breaker cools down. Cooldown is 2
//! *observations* (`COOLDOWN_OBSERVATIONS`: degraded jobs routed past the
//! open breaker), not wall-clock time, so breaker behavior is
//! deterministic under test and replay. After cooldown the breaker goes
//! *half-open* and admits a single probe job: success closes it, failure
//! re-opens it with a fresh cooldown.

use serde::{Deserialize, Serialize};

/// Consecutive failures that trip a breaker.
const FAILURE_THRESHOLD: u32 = 3;
/// Observations a tripped breaker stays open before admitting a probe.
const COOLDOWN_OBSERVATIONS: u32 = 2;

/// Breaker position, reported on the service stats snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    #[default]
    Closed,
    /// Tripped: route around the stage. `cooldown_left` observations remain
    /// before a probe is admitted.
    Open { cooldown_left: u32 },
    /// Cooldown elapsed; one probe job is (or is about to be) in flight.
    HalfOpen,
}

/// The breaker itself, closed when built. Not internally synchronized: the
/// service keeps it inside its state mutex.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    /// True while a half-open probe is in flight (only one at a time).
    probe_in_flight: bool,
    /// Lifetime trip count, for the stats snapshot.
    trips: u64,
}

impl CircuitBreaker {
    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Should the caller attempt the protected stage right now?
    ///
    /// * `Closed` — yes.
    /// * `HalfOpen` with no probe out — yes, and this call claims the
    ///   probe slot (the caller MUST report the outcome via
    ///   [`on_success`](Self::on_success)/[`on_failure`](Self::on_failure)
    ///   or release it with [`cancel_probe`](Self::cancel_probe)).
    /// * `Open` — no; this call counts one cooldown observation and moves
    ///   the breaker to `HalfOpen` once the cooldown reaches zero (the
    ///   *next* caller gets the probe).
    pub fn try_acquire(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
            BreakerState::Open { cooldown_left } => {
                let left = cooldown_left.saturating_sub(1);
                self.state = if left == 0 {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open {
                        cooldown_left: left,
                    }
                };
                false
            }
        }
    }

    /// Record a successful pass through the protected stage.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.probe_in_flight = false;
        self.state = BreakerState::Closed;
    }

    /// Record a failure of the protected stage.
    pub fn on_failure(&mut self) {
        self.probe_in_flight = false;
        match self.state {
            BreakerState::HalfOpen => self.trip(),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= FAILURE_THRESHOLD {
                    self.trip();
                }
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Release a claimed half-open probe without an outcome (e.g. the job
    /// failed before reaching the protected stage).
    pub fn cancel_probe(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.probe_in_flight = false;
        }
    }

    fn trip(&mut self) {
        self.trips += 1;
        self.consecutive_failures = 0;
        self.state = BreakerState::Open {
            cooldown_left: COOLDOWN_OBSERVATIONS,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::default();
        b.on_failure();
        b.on_failure();
        b.on_success(); // resets the streak
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert!(matches!(b.state(), BreakerState::Open { .. }));
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_counts_observations_then_probes() {
        let mut b = CircuitBreaker::default();
        for _ in 0..3 {
            b.on_failure();
        }
        // Two observations of cooldown: both denied.
        assert!(!b.try_acquire());
        assert!(!b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Exactly one probe is admitted.
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "second probe denied while one in flight");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire());
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut b = CircuitBreaker::default();
        for _ in 0..3 {
            b.on_failure();
        }
        assert!(!b.try_acquire());
        assert!(!b.try_acquire());
        assert!(b.try_acquire()); // probe
        b.on_failure();
        assert_eq!(
            b.state(),
            BreakerState::Open { cooldown_left: 2 },
            "failed probe re-opens"
        );
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn cancelled_probe_frees_the_slot() {
        let mut b = CircuitBreaker::default();
        for _ in 0..3 {
            b.on_failure();
        }
        b.try_acquire();
        b.try_acquire();
        assert!(b.try_acquire()); // probe claimed
        b.cancel_probe();
        assert!(b.try_acquire(), "slot reusable after cancel");
    }
}
