//! Simulated time, measured in CPU clock cycles of the modelled machine.
//!
//! The benchmarking platform of the paper is an Intel Pentium P54C running
//! at 100 MHz, so one cycle is exactly 10 ns. All simulated durations are
//! kept as integer cycle counts; floating point only appears at the edges
//! when results are converted to microseconds or bandwidth figures.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// Clock frequency of the simulated Pentium P54C, in Hz.
pub const CPU_HZ: u64 = 100_000_000;

/// One megabyte, as used by the paper's memory and file bandwidth figures.
pub const MEGABYTE: f64 = 1024.0 * 1024.0;

/// One megabit, as used by the paper's network bandwidth tables.
pub const MEGABIT: f64 = 1_000_000.0;

/// A duration (or instant, measured from simulation start) in CPU cycles.
///
/// `#[must_use]`: a dropped `Cycles` is a silently lost charge, which
/// breaks cycle conservation.
#[must_use]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero duration.
    pub const ZERO: Cycles = Cycles(0);

    /// The maximum representable instant; used as an "infinite" timeout.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Converts a duration in microseconds to cycles, rounding to nearest.
    pub fn from_micros(us: f64) -> Cycles {
        Cycles((us * CPU_HZ as f64 / 1e6).round() as u64)
    }

    /// Converts a duration in milliseconds to cycles, rounding to nearest.
    pub fn from_millis(ms: f64) -> Cycles {
        Cycles::from_micros(ms * 1e3)
    }

    /// Converts a duration in seconds to cycles, rounding to nearest.
    pub fn from_secs(s: f64) -> Cycles {
        Cycles::from_micros(s * 1e6)
    }

    /// Converts a duration in nanoseconds to cycles, rounding to nearest.
    pub fn from_nanos(ns: f64) -> Cycles {
        Cycles((ns * CPU_HZ as f64 / 1e9).round() as u64)
    }

    /// This duration expressed in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 as f64 * 1e6 / CPU_HZ as f64
    }

    /// This duration expressed in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.as_micros() / 1e3
    }

    /// This duration expressed in seconds.
    pub fn as_secs(self) -> f64 {
        self.as_micros() / 1e6
    }

    /// Saturating subtraction; clamps at zero instead of wrapping.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition; clamps at `Cycles::MAX` instead of wrapping.
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Scales this duration by a floating point factor, rounding to nearest.
    pub fn scale(self, factor: f64) -> Cycles {
        Cycles((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

impl fmt::Debug for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= CPU_HZ {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= CPU_HZ / 1_000 {
            write!(f, "{:.3}ms", self.as_millis())
        } else {
            write!(f, "{:.2}us", self.as_micros())
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, |a, b| a + b)
    }
}

/// Bandwidth in megabytes per second for `bytes` transferred in `elapsed`.
///
/// Uses 2^20-byte megabytes, matching the paper's memory and file system
/// figures. Returns 0.0 for a zero duration.
pub fn mb_per_sec(bytes: u64, elapsed: Cycles) -> f64 {
    if elapsed.0 == 0 {
        return 0.0;
    }
    bytes as f64 / MEGABYTE / elapsed.as_secs()
}

/// Bandwidth in megabits per second for `bytes` transferred in `elapsed`.
///
/// Uses 10^6-bit megabits, matching the paper's network tables.
pub fn mbit_per_sec(bytes: u64, elapsed: Cycles) -> f64 {
    if elapsed.0 == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 / MEGABIT / elapsed.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_round_trip() {
        let c = Cycles::from_micros(2.31);
        assert_eq!(c.0, 231);
        assert!((c.as_micros() - 2.31).abs() < 1e-9);
    }

    #[test]
    fn millis_and_secs() {
        assert_eq!(Cycles::from_millis(14.0).0, 1_400_000);
        assert_eq!(Cycles::from_secs(1.0).0, CPU_HZ);
        assert!((Cycles(1_400_000).as_millis() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn one_cycle_is_ten_nanoseconds() {
        assert_eq!(Cycles::from_nanos(10.0).0, 1);
        assert_eq!(Cycles::from_nanos(50.0).0, 5);
    }

    #[test]
    fn arithmetic() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        assert_eq!(a * 3, Cycles(300));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
        let total: Cycles = [a, b, Cycles(1)].into_iter().sum();
        assert_eq!(total, Cycles(141));
    }

    #[test]
    fn scale_rounds_and_clamps() {
        assert_eq!(Cycles(100).scale(1.5), Cycles(150));
        assert_eq!(Cycles(100).scale(0.004), Cycles(0));
        assert_eq!(Cycles(3).scale(0.5), Cycles(2)); // round-to-nearest-even is fine
    }

    #[test]
    fn bandwidth_conversions() {
        // 1 MB in 0.01 s = 100 MB/s.
        let t = Cycles::from_millis(10.0);
        assert!((mb_per_sec(1024 * 1024, t) - 100.0).abs() < 1e-9);
        // 1_000_000 bytes in 1 s = 8 Mb/s.
        assert!((mbit_per_sec(1_000_000, Cycles::from_secs(1.0)) - 8.0).abs() < 1e-9);
        assert_eq!(mb_per_sec(123, Cycles::ZERO), 0.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Cycles(231)), "2.31us");
        assert_eq!(format!("{}", Cycles(1_400_000)), "14.000ms");
        assert_eq!(format!("{}", Cycles(250_000_000)), "2.500s");
    }
}
