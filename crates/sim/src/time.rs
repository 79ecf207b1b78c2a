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

/// `x` rounded to the nearest integer, halves away from zero, as a `u64`:
/// exactly `x.round() as u64` for every `f64`, including the saturation
/// of NaN and negatives to 0 and of huge values to `u64::MAX`.
///
/// `f64::round` is a libm call on baseline x86-64, which lacks SSE4.1's
/// `roundsd`; this takes two integer conversions, which are single
/// instructions there. Every jittered charge and per-byte cost rounds
/// through it.
#[inline]
pub fn round_u64(x: f64) -> u64 {
    // 2^53: from here up every f64 is an integer.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if (0.5..EXACT).contains(&x) {
        // `t` is exact and `x - t` is the exact fraction (Sterbenz).
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        // Below a half (NaN included) this is 0; from 2^53 up `x` is
        // already an integer, and the conversion saturates.
        x as u64
    }
}

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
    #[inline]
    pub fn from_micros(us: f64) -> Cycles {
        Cycles(round_u64(us * CPU_HZ as f64 / 1e6))
    }

    /// Converts a duration in milliseconds to cycles, rounding to nearest.
    #[inline]
    pub fn from_millis(ms: f64) -> Cycles {
        Cycles::from_micros(ms * 1e3)
    }

    /// Converts a duration in seconds to cycles, rounding to nearest.
    #[inline]
    pub fn from_secs(s: f64) -> Cycles {
        Cycles::from_micros(s * 1e6)
    }

    /// Converts a duration in nanoseconds to cycles, rounding to nearest.
    #[inline]
    pub fn from_nanos(ns: f64) -> Cycles {
        Cycles(round_u64(ns * CPU_HZ as f64 / 1e9))
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

    /// Scales this duration by a floating point factor, rounding to
    /// nearest; a negative or NaN product is zero.
    #[inline]
    pub fn scale(self, factor: f64) -> Cycles {
        Cycles(round_u64(self.0 as f64 * factor))
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

    /// The libm forms `round_u64` replaced, as its reference.
    #[expect(
        clippy::disallowed_methods,
        reason = "the libm rounding the exact helper replaces, as its reference"
    )]
    mod libm {
        pub fn round(x: f64) -> u64 {
            x.round() as u64
        }

        /// `Cycles::scale` before the exact helper.
        pub fn scale(c: u64, f: f64) -> u64 {
            (c as f64 * f).round().max(0.0) as u64
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn round_u64_equals_libm_round_at_the_edges() {
        let p = |e: i32| 2f64.powi(e);
        let edges = [
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            0.5,
            1.5,
            2.5,
            p(52) - 0.5,
            p(52) + 1.0,
            p(53),
            p(53) + 2.0,
            p(63) - 1024.0,
            p(63),
            p(64),
            1e300,
            f64::from_bits(1),
            -0.5,
            -1e9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for x in edges {
            assert_eq!(round_u64(x), libm::round(x), "{x:e}");
        }
        assert_eq!(round_u64(2.5), 3, "halves round away from zero");
    }

    #[test]
    fn round_u64_equals_libm_round_on_random_values() {
        let mut rng = 1996;
        for _ in 0..1_000_000 {
            let r = splitmix(&mut rng);
            // Every bit pattern, and values whose fraction matters.
            for x in [
                f64::from_bits(r),
                (r >> 11) as f64 / (1u64 << (r % 53)) as f64,
            ] {
                assert_eq!(round_u64(x), libm::round(x), "{x:e} ({:#x})", x.to_bits());
            }
        }
    }

    /// `Cycles::scale` rounds every charge of the run factors the kernels'
    /// jitters (0.012, 0.015 and 0.028 in tnt-os) give seeds 0-20 exactly
    /// as its libm form `(c * f).round().max(0.0)` did.
    #[test]
    fn scale_equals_its_libm_form_at_every_run_factor() {
        for jitter in [0.012, 0.015, 0.028] {
            for seed in 0..=20 {
                let config = crate::SimConfig {
                    seed,
                    jitter,
                    ..crate::SimConfig::default()
                };
                let f = crate::Sim::new(Box::new(crate::FifoPolicy::new()), config).run_factor();
                for c in 0..=100_000u64 {
                    assert_eq!(Cycles(c).scale(f).0, libm::scale(c, f), "{c} x {f}");
                }
            }
        }
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
