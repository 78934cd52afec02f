//! Resource budgets and typed errors for the fluid engine.
//!
//! The fluid simulator is an event loop whose termination depends on every
//! event time being finite and on the waterfill making progress. A NaN rate
//! (or a numerically degenerate waterfill) in a release build would
//! otherwise spin forever. [`FluidBudget`] bounds a run by event count and
//! wall clock; [`FluidError`] is the typed failure surface consumed by the
//! m3 pipeline's degradation machinery.

use std::fmt;
use std::time::Duration;

/// Default wall-clock sampling stride (every N outer-loop events); keeps
/// the fault-free fast path free of syscalls. Overridable per budget via
/// [`FluidBudget::with_wall_check_stride`].
pub const DEFAULT_WALL_CHECK_STRIDE: u64 = 4096;

/// Resource ceiling for one fluid simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidBudget {
    /// Maximum outer event-loop iterations (arrivals, completions, and
    /// recomputations). A parking-lot run needs roughly `2 x flows` events,
    /// so the default leaves orders of magnitude of headroom.
    pub max_events: u64,
    /// Optional wall-clock ceiling, checked every [`Self::wall_check_stride`]
    /// events.
    pub max_wall: Option<Duration>,
    /// How many outer-loop events pass between `Instant::now()` samples
    /// when a wall ceiling is set. Smaller strides trip wall budgets more
    /// promptly at the cost of more clock syscalls; values below 1 are
    /// treated as 1.
    pub wall_check_stride: u64,
}

impl FluidBudget {
    /// No limits at all (the legacy panicking entry points use this).
    pub const UNLIMITED: FluidBudget = FluidBudget {
        max_events: u64::MAX,
        max_wall: None,
        wall_check_stride: DEFAULT_WALL_CHECK_STRIDE,
    };

    /// A budget bounded only by event count.
    pub fn events(max_events: u64) -> Self {
        FluidBudget {
            max_events,
            max_wall: None,
            wall_check_stride: DEFAULT_WALL_CHECK_STRIDE,
        }
    }

    /// Add a wall-clock ceiling.
    pub fn with_wall(mut self, limit: Duration) -> Self {
        self.max_wall = Some(limit);
        self
    }

    /// Override how often the wall clock is sampled (in events).
    pub fn with_wall_check_stride(mut self, stride: u64) -> Self {
        self.wall_check_stride = stride;
        self
    }
}

impl Default for FluidBudget {
    /// Generous but bounded: far above any real path scenario, low enough
    /// that a runaway loop terminates in seconds rather than never.
    fn default() -> Self {
        FluidBudget {
            max_events: 100_000_000,
            max_wall: None,
            wall_check_stride: DEFAULT_WALL_CHECK_STRIDE,
        }
    }
}

/// Deterministic accounting from one fluid run: how much budget it
/// consumed. Fed into the telemetry registry by the pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FluidRunStats {
    /// Outer event-loop iterations executed.
    pub events: u64,
    /// Wall-clock samples actually taken (0 unless a wall ceiling was set).
    pub wall_checks: u64,
}

impl FluidRunStats {
    /// Element-wise sum (order-independent, for aggregating across runs).
    pub fn add(&mut self, other: FluidRunStats) {
        self.events += other.events;
        self.wall_checks += other.wall_checks;
    }
}

/// Typed failure of a fluid simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum FluidError {
    /// The input failed validation: a flow (bad segment or link set,
    /// non-positive or NaN rate cap, link index out of range) with its id,
    /// or the links (none, or a capacity not positive and finite) with
    /// `flow == u32::MAX`.
    InvalidInput { flow: u32, reason: String },
    /// The next event time became non-finite while flows remain — the
    /// release-mode promotion of the old `debug_assert!(t_next.is_finite())`.
    NonFiniteEventTime { events: u64, t: f64 },
    /// The waterfill failed to fix any group (numerically degenerate rates).
    Stalled { events: u64 },
    /// The event-count ceiling was hit.
    EventBudgetExceeded { limit: u64 },
    /// The wall-clock ceiling was hit.
    WallClockExceeded { limit: Duration, events: u64 },
}

impl fmt::Display for FluidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FluidError::InvalidInput { flow, reason } => {
                write!(f, "invalid fluid input (flow {flow}): {reason}")
            }
            FluidError::NonFiniteEventTime { events, t } => {
                write!(f, "non-finite event time {t} after {events} events")
            }
            FluidError::Stalled { events } => {
                write!(f, "waterfill made no progress after {events} events")
            }
            FluidError::EventBudgetExceeded { limit } => {
                write!(f, "event budget exceeded ({limit} events)")
            }
            FluidError::WallClockExceeded { limit, events } => {
                write!(
                    f,
                    "wall-clock budget exceeded ({limit:?} after {events} events)"
                )
            }
        }
    }
}

impl std::error::Error for FluidError {}

/// Per-run budget accounting.
pub(crate) struct BudgetMeter {
    budget: FluidBudget,
    stride: u64,
    events: u64,
    /// Event count of the next wall-clock sample: the next multiple of
    /// `stride`, or `u64::MAX` when there is no wall limit — so the
    /// fault-free `tick` is two compares and no division.
    next_wall_check: u64,
    wall_checks: u64,
    start: Option<std::time::Instant>,
}

impl BudgetMeter {
    pub(crate) fn new(budget: FluidBudget) -> Self {
        let stride = budget.wall_check_stride.max(1);
        BudgetMeter {
            budget,
            stride,
            events: 0,
            next_wall_check: if budget.max_wall.is_some() {
                stride
            } else {
                u64::MAX
            },
            wall_checks: 0,
            // Only sample the clock when a wall limit is actually set.
            start: budget.max_wall.map(|_| std::time::Instant::now()),
        }
    }

    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Budget consumed so far.
    pub(crate) fn stats(&self) -> FluidRunStats {
        FluidRunStats {
            events: self.events,
            wall_checks: self.wall_checks,
        }
    }

    /// Account one outer-loop event; errors when a ceiling is crossed.
    pub(crate) fn tick(&mut self) -> Result<(), FluidError> {
        self.events += 1;
        if self.events > self.budget.max_events {
            return Err(FluidError::EventBudgetExceeded {
                limit: self.budget.max_events,
            });
        }
        if self.events == self.next_wall_check {
            self.next_wall_check = self.next_wall_check.saturating_add(self.stride);
            if let (Some(limit), Some(start)) = (self.budget.max_wall, self.start) {
                self.wall_checks += 1;
                if start.elapsed() > limit {
                    return Err(FluidError::WallClockExceeded {
                        limit,
                        events: self.events,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_counts_and_trips() {
        let mut m = BudgetMeter::new(FluidBudget::events(3));
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert_eq!(m.tick(), Err(FluidError::EventBudgetExceeded { limit: 3 }));
        assert_eq!(m.events(), 4);
    }

    #[test]
    fn unlimited_never_trips() {
        let mut m = BudgetMeter::new(FluidBudget::UNLIMITED);
        for _ in 0..100_000 {
            assert!(m.tick().is_ok());
        }
    }

    #[test]
    fn wall_clock_trips() {
        let mut m = BudgetMeter::new(FluidBudget::UNLIMITED.with_wall(Duration::from_nanos(1)));
        // Spin past one check interval; the elapsed nanosecond has passed.
        let mut tripped = false;
        for _ in 0..10 * DEFAULT_WALL_CHECK_STRIDE {
            if m.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "wall budget of 1ns must trip within a few ticks");
    }

    #[test]
    fn wall_check_stride_controls_sampling_and_is_counted() {
        // Stride 16: the clock is sampled every 16 events, so a 1ns wall
        // budget must trip on exactly event 16.
        let mut m = BudgetMeter::new(
            FluidBudget::UNLIMITED
                .with_wall(Duration::from_nanos(1))
                .with_wall_check_stride(16),
        );
        for i in 1..16 {
            assert!(m.tick().is_ok(), "event {i} is before the first check");
        }
        assert!(matches!(
            m.tick(),
            Err(FluidError::WallClockExceeded { events: 16, .. })
        ));
        assert_eq!(m.stats().wall_checks, 1);
        assert_eq!(m.stats().events, 16);
    }

    #[test]
    fn wall_checks_land_on_multiples_of_a_stride_that_does_not_divide_the_run() {
        let mut m = BudgetMeter::new(
            FluidBudget::UNLIMITED
                .with_wall(Duration::from_secs(3600))
                .with_wall_check_stride(7),
        );
        for i in 1..=100u64 {
            assert!(m.tick().is_ok());
            assert_eq!(m.stats().wall_checks, i / 7, "after event {i}");
        }
        assert_eq!(m.stats().events, 100);
        assert_eq!(m.stats().wall_checks, 14);
    }

    #[test]
    fn no_wall_limit_means_no_wall_checks() {
        let mut m = BudgetMeter::new(FluidBudget::events(1 << 20).with_wall_check_stride(8));
        for _ in 0..1000 {
            assert!(m.tick().is_ok());
        }
        assert_eq!(
            m.stats().wall_checks,
            0,
            "clock never sampled without a limit"
        );
        assert_eq!(m.stats().events, 1000);
    }

    #[test]
    fn zero_stride_is_clamped_to_one() {
        let mut m = BudgetMeter::new(
            FluidBudget::UNLIMITED
                .with_wall(Duration::from_secs(3600))
                .with_wall_check_stride(0),
        );
        for _ in 0..5 {
            assert!(m.tick().is_ok());
        }
        assert_eq!(m.stats().wall_checks, 5, "stride 0 checks every event");
    }

    #[test]
    fn run_stats_add_is_elementwise() {
        let mut a = FluidRunStats {
            events: 3,
            wall_checks: 1,
        };
        a.add(FluidRunStats {
            events: 4,
            wall_checks: 2,
        });
        assert_eq!(
            a,
            FluidRunStats {
                events: 7,
                wall_checks: 3
            }
        );
    }

    #[test]
    fn display_is_informative() {
        let e = FluidError::NonFiniteEventTime {
            events: 7,
            t: f64::NAN,
        };
        assert!(e.to_string().contains("non-finite"));
    }
}
