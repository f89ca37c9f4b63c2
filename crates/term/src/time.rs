//! Virtual time.
//!
//! Every component of `reweb` — event queries with temporal windows
//! (Thesis 5), the discrete-event Web simulator (Theses 2/3), volatile-data
//! garbage collection (Thesis 4) — shares this one clock representation so
//! that whole-system runs are deterministic and reproducible. Time is virtual
//! milliseconds since an arbitrary epoch.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in milliseconds since the simulation epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(pub u64);

/// A span of virtual time, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dur(pub u64);

impl Timestamp {
    /// The simulation epoch (time zero).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Milliseconds since the epoch.
    pub fn millis(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: Timestamp) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: Dur) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);

    /// A duration of `ms` milliseconds.
    pub const fn millis(ms: u64) -> Dur {
        Dur(ms)
    }
    /// A duration of `s` seconds.
    pub const fn secs(s: u64) -> Dur {
        Dur(s * 1_000)
    }
    /// A duration of `m` minutes.
    pub const fn mins(m: u64) -> Dur {
        Dur(m * 60_000)
    }
    /// A duration of `h` hours.
    pub const fn hours(h: u64) -> Dur {
        Dur(h * 3_600_000)
    }
    /// A duration of `d` days.
    pub const fn days(d: u64) -> Dur {
        Dur(d * 86_400_000)
    }

    /// The duration in milliseconds.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Fractional seconds, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Parse a duration literal with unit suffix: `"250ms"`, `"3s"`, `"5m"`,
    /// `"2h"`, `"1d"`. A bare number is milliseconds.
    pub fn parse(s: &str) -> Option<Dur> {
        let s = s.trim();
        let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        let (num, unit) = s.split_at(split);
        let n: u64 = num.parse().ok()?;
        match unit {
            "" | "ms" => Some(Dur::millis(n)),
            "s" => Some(Dur::secs(n)),
            "m" => Some(Dur::mins(n)),
            "h" => Some(Dur::hours(n)),
            "d" => Some(Dur::days(n)),
            _ => None,
        }
    }
}

impl Add<Dur> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Dur) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl AddAssign<Dur> for Timestamp {
    fn add_assign(&mut self, d: Dur) {
        self.0 += d.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Dur;
    fn sub(self, rhs: Timestamp) -> Dur {
        self.since(rhs)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0 + d.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ms", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 3_600_000 && self.0 % 3_600_000 == 0 {
            write!(f, "{}h", self.0 / 3_600_000)
        } else if self.0 >= 60_000 && self.0 % 60_000 == 0 {
            write!(f, "{}m", self.0 / 60_000)
        } else if self.0 >= 1_000 && self.0 % 1_000 == 0 {
            write!(f, "{}s", self.0 / 1_000)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Timestamp(1_000);
        assert_eq!(t + Dur::secs(2), Timestamp(3_000));
        assert_eq!(Timestamp(5_000) - Timestamp(2_000), Dur::secs(3));
        // `since` saturates rather than wrapping.
        assert_eq!(Timestamp(1_000).since(Timestamp(9_000)), Dur::ZERO);
    }

    #[test]
    fn constructors() {
        assert_eq!(Dur::secs(1), Dur::millis(1_000));
        assert_eq!(Dur::mins(2), Dur::secs(120));
        assert_eq!(Dur::hours(1), Dur::mins(60));
        assert_eq!(Dur::days(1), Dur::hours(24));
    }

    #[test]
    fn parse_units() {
        assert_eq!(Dur::parse("250ms"), Some(Dur::millis(250)));
        assert_eq!(Dur::parse("3s"), Some(Dur::secs(3)));
        assert_eq!(Dur::parse("5m"), Some(Dur::mins(5)));
        assert_eq!(Dur::parse("2h"), Some(Dur::hours(2)));
        assert_eq!(Dur::parse("1d"), Some(Dur::days(1)));
        assert_eq!(Dur::parse("42"), Some(Dur::millis(42)));
        assert_eq!(Dur::parse("7w"), None);
        assert_eq!(Dur::parse(""), None);
    }

    #[test]
    fn display_picks_largest_exact_unit() {
        assert_eq!(Dur::hours(2).to_string(), "2h");
        assert_eq!(Dur::mins(90).to_string(), "90m");
        assert_eq!(Dur::millis(1_500).to_string(), "1500ms");
        assert_eq!(Dur::secs(45).to_string(), "45s");
    }
}
