//! Simulated time.
//!
//! All timestamps in the reproduction are [`SimTime`] values: seconds since
//! the start of the simulated measurement window. The paper reports response
//! times in `hh:mm`, so both [`SimTime`] and [`SimDuration`] know how to
//! format themselves that way.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in whole seconds since the simulation epoch.
///
/// The epoch is the start of the measurement window (the paper's November
/// 2022). `SimTime` is a plain wrapper so it can be ordered, hashed and used
/// as an event-queue key with no surprises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in whole seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Construct from whole minutes since the epoch.
    pub const fn from_mins(mins: u64) -> Self {
        SimTime(mins * 60)
    }

    /// Construct from whole hours since the epoch.
    pub const fn from_hours(hours: u64) -> Self {
        SimTime(hours * 3600)
    }

    /// Construct from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * 86_400)
    }

    /// Seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is
    /// actually later (callers comparing independent observation streams may
    /// race by one polling interval).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The enclosing whole day index (0-based) of this instant.
    pub const fn day_index(self) -> u64 {
        self.0 / 86_400
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60)
    }

    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3600)
    }

    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400)
    }

    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// Format as the paper's `hh:mm` notation (hours may exceed 24, e.g.
    /// `148:05` for just over six days).
    ///
    /// ```
    /// use freephish_simclock::SimDuration;
    /// assert_eq!(SimDuration::from_mins(51).as_hhmm(), "0:51");
    /// assert_eq!(SimDuration::from_hours(148).as_hhmm(), "148:00");
    /// ```
    pub fn as_hhmm(self) -> String {
        let total_mins = self.0 / 60;
        format!("{}:{:02}", total_mins / 60, total_mins % 60)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day_index();
        let rem = self.0 % 86_400;
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            d,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_hhmm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_days(1), SimTime::from_hours(24));
        assert_eq!(SimDuration::from_days(1).as_secs(), 86_400);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_hours(5) + SimDuration::from_mins(30);
        assert_eq!(t.as_secs(), 5 * 3600 + 1800);
        assert_eq!(t - SimTime::from_hours(5), SimDuration::from_mins(30));
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_secs(10);
        let late = SimTime::from_secs(50);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_secs(40));
    }

    #[test]
    fn hhmm_formatting() {
        assert_eq!(SimDuration::from_mins(51).as_hhmm(), "0:51");
        assert_eq!(SimDuration::from_mins(6 * 60 + 1).as_hhmm(), "6:01");
        // The paper reports e.g. 148:05 — hours beyond a day stay in hours.
        assert_eq!(SimDuration::from_mins(148 * 60 + 5).as_hhmm(), "148:05");
    }

    #[test]
    fn day_index() {
        assert_eq!(SimTime::from_hours(23).day_index(), 0);
        assert_eq!(SimTime::from_hours(24).day_index(), 1);
        assert_eq!(SimTime::from_days(7).day_index(), 7);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(2) + SimDuration::from_secs(3 * 3600 + 4 * 60 + 5);
        assert_eq!(t.to_string(), "d2+03:04:05");
        assert_eq!(SimDuration::from_mins(90).to_string(), "1:30");
    }
}
