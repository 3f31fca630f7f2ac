//! Simulation clock types.
//!
//! The simulator uses a discrete 64-bit nanosecond clock. [`SimTime`] is an
//! absolute instant since simulation start; [`SimDuration`] is a span.
//! Both are plain newtypes over `u64`, so arithmetic is exact and event
//! ordering is total — two properties the deterministic replay tests rely
//! on (floating-point clocks make event order seed-dependent).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute simulation instant, in nanoseconds since simulation start.
///
/// # Example
///
/// ```
/// use mafic_netsim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_secs_f64(), 0.005);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from seconds (fractional allowed).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from microseconds.
    #[cfg(test)]
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True for the zero-length span.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the span by a non-negative float factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid factor {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Span between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time went backwards: {self} - {rhs}");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        let u = t + SimDuration::from_millis(5);
        assert_eq!(u - t, SimDuration::from_millis(5));
        assert_eq!(u.saturating_since(SimTime::MAX), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_millis(200));
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 2, SimDuration::from_millis(50));
        assert_eq!(
            d.max(SimDuration::from_millis(150)),
            SimDuration::from_millis(150)
        );
        assert_eq!(d.min(SimDuration::from_millis(150)), d);
    }

    #[test]
    #[should_panic(expected = "invalid duration")]
    fn negative_duration_rejected() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert!(SimDuration::from_nanos(1) < SimDuration::from_nanos(2));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_nanos(10).to_string(), "10ns");
        assert_eq!(SimDuration::from_micros(10).to_string(), "10.0us");
        assert_eq!(SimDuration::from_millis(10).to_string(), "10.0ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs_f64(1.25).to_string(), "1.250000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(1))
            .is_some());
    }
}
