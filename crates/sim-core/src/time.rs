//! Virtual time: instants, durations and per-client clocks.
//!
//! Every client of a simulated service owns a [`Clock`]. Remote operations
//! advance the clock by the sampled latency of the operation instead of
//! sleeping, so experiments that would take hours of wall-clock time against
//! real clouds complete in milliseconds while preserving the latency
//! *structure* (sequential vs. parallel accesses, quorum waits, retries).
//!
//! All clocks in one experiment share the same virtual epoch, so instants
//! taken from different clients are directly comparable. Shared services use
//! this to time-index their state (e.g. an object written at instant `t`
//! only becomes visible to reads at `t + visibility_delay`).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point on the shared virtual timeline, in nanoseconds since the epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimInstant {
    /// The virtual epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant `nanos` nanoseconds after the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant(nanos)
    }

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimInstant(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimInstant(secs * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a floating point number.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch, as a floating point number.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero if
    /// `earlier` is in the future.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimInstant) -> SimInstant {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimInstant) -> SimInstant {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((secs * 1e9).round() as u64)
        }
    }

    /// Creates a duration from fractional milliseconds; negative values clamp to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This duration expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of two durations.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Multiplies the duration by an integer factor.
    #[allow(clippy::should_implement_trait, reason = "saturating, unlike `Mul`")]
    pub fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;

    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;

    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A per-client virtual clock.
///
/// Each SCFS agent, baseline file-system client or background upload task
/// owns one `Clock`. Simulated services advance the clock by the latency of
/// each operation. The clock can only move forward.
#[derive(Debug, Clone)]
#[must_use = "a clock nobody reads or advances times nothing"]
pub struct Clock {
    now: SimInstant,
}

impl Clock {
    /// Creates a clock positioned at the virtual epoch.
    pub fn new() -> Self {
        Clock {
            now: SimInstant::EPOCH,
        }
    }

    /// Creates a clock positioned at `start`.
    pub fn starting_at(start: SimInstant) -> Self {
        Clock { now: start }
    }

    /// The current virtual instant of this client.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&mut self, d: SimDuration) -> SimInstant {
        self.now += d;
        self.now
    }

    /// Moves the clock forward to `instant` if it is later than the current
    /// time (waiting for an external event); does nothing otherwise.
    pub fn advance_to(&mut self, instant: SimInstant) -> SimInstant {
        if instant > self.now {
            self.now = instant;
        }
        self.now
    }

    /// Forks a clock for a background task starting at the current instant.
    #[must_use = "an unused fork silently serializes virtual time"]
    pub fn fork(&self) -> Clock {
        Clock { now: self.now }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let t = SimInstant::from_millis(1_500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_nanos(), 1_750_000_000);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_since_saturates() {
        let early = SimInstant::from_secs(1);
        let late = SimInstant::from_secs(3);
        assert_eq!(early.duration_since(late), SimDuration::ZERO);
        assert_eq!(late.duration_since(early), SimDuration::from_secs(2));
    }

    #[test]
    fn duration_display_uses_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(120)), "120ns");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimInstant::EPOCH);
        c.advance(SimDuration::from_millis(10));
        let t1 = c.now();
        c.advance_to(SimInstant::from_millis(5));
        assert_eq!(c.now(), t1, "advance_to must never move backwards");
        c.advance_to(SimInstant::from_millis(50));
        assert_eq!(c.now(), SimInstant::from_millis(50));
    }

    #[test]
    fn fork_starts_at_parent_time() {
        let mut c = Clock::new();
        c.advance(SimDuration::from_secs(4));
        let f = c.fork();
        assert_eq!(f.now(), c.now());
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn min_max_helpers() {
        let a = SimInstant::from_secs(1);
        let b = SimInstant::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let d1 = SimDuration::from_secs(1);
        let d2 = SimDuration::from_secs(2);
        assert_eq!(d1.max(d2), d2);
    }
}
