//! Open-loop arrival processes: deterministic, seed-salted request
//! schedules.
//!
//! The load generator is *open-loop* (wrk2-style): arrival instants are
//! computed up front from the process definition and a salted seed, so
//! they do not depend on server progress. A saturated server therefore
//! keeps receiving work at the offered rate — queues grow, tails
//! explode — instead of the closed-loop coordination that hides
//! saturation by slowing the clients down.

use tnt_sim::CPU_HZ;

/// A small deterministic generator (splitmix64) private to the load
/// plane: arrival schedules must not perturb the simulation RNG, and
/// the same (seed, salt) must give the same schedule on every host.
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A stream salted so different planes draw independently.
    pub fn new(seed: u64, salt: u64) -> Rng64 {
        Rng64 {
            state: seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// An arrival process: how request instants are laid out in time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Evenly spaced arrivals at `rps` requests/second.
    Fixed {
        /// Offered rate, requests per second.
        rps: f64,
    },
    /// Poisson arrivals (exponential gaps) at mean `rps`.
    Poisson {
        /// Mean offered rate, requests per second.
        rps: f64,
    },
    /// Rate ramping linearly from `from_rps` to `to_rps` across the run
    /// — sweeps the knee inside a single simulation.
    Ramp {
        /// Offered rate at the first request.
        from_rps: f64,
        /// Offered rate at the last request.
        to_rps: f64,
    },
}

impl Arrivals {
    /// The nominal offered rate (mean over the run), requests/second.
    pub fn nominal_rps(&self) -> f64 {
        match *self {
            Arrivals::Fixed { rps } | Arrivals::Poisson { rps } => rps,
            Arrivals::Ramp { from_rps, to_rps } => (from_rps + to_rps) / 2.0,
        }
    }

    /// The first `n` absolute arrival instants in cycles, sorted
    /// non-decreasing. Deterministic in `(self, n, seed, salt)` and
    /// independent of everything the simulation does with them.
    pub fn instants(&self, n: usize, seed: u64, salt: u64) -> Vec<u64> {
        let mut rng = Rng64::new(seed, salt);
        let mut out = Vec::with_capacity(n);
        let mut t = 0.0f64;
        for i in 0..n {
            let rps = match *self {
                Arrivals::Fixed { rps } | Arrivals::Poisson { rps } => rps,
                Arrivals::Ramp { from_rps, to_rps } => {
                    let frac = if n > 1 {
                        i as f64 / (n - 1) as f64
                    } else {
                        0.0
                    };
                    from_rps + (to_rps - from_rps) * frac
                }
            };
            assert!(rps > 0.0, "arrival rate must be positive");
            let gap_secs = match *self {
                Arrivals::Poisson { .. } => {
                    // Exponential inter-arrival; 1 - u is in (0, 1].
                    -(1.0 - rng.next_f64()).ln() / rps
                }
                _ => 1.0 / rps,
            };
            t += gap_secs;
            out.push((t * CPU_HZ as f64) as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_arrivals_are_evenly_spaced() {
        let a = Arrivals::Fixed { rps: 1_000.0 };
        let ts = a.instants(5, 42, 0);
        // 1000 rps at 100 MHz = one arrival per 100_000 cycles.
        assert_eq!(ts, vec![100_000, 200_000, 300_000, 400_000, 500_000]);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_salted() {
        let a = Arrivals::Poisson { rps: 500.0 };
        let x = a.instants(200, 7, 1);
        assert_eq!(x, a.instants(200, 7, 1), "same seed, same schedule");
        assert_ne!(x, a.instants(200, 8, 1), "seed matters");
        assert_ne!(x, a.instants(200, 7, 2), "salt matters");
        assert!(x.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Mean gap within 15% of nominal over 200 draws.
        let mean_gap = *x.last().unwrap() as f64 / x.len() as f64;
        let want = CPU_HZ as f64 / 500.0;
        assert!((mean_gap - want).abs() / want < 0.15, "mean gap {mean_gap}");
    }

    #[test]
    fn ramp_speeds_up_over_the_run() {
        let a = Arrivals::Ramp {
            from_rps: 100.0,
            to_rps: 1_000.0,
        };
        let ts = a.instants(100, 0, 0);
        let first_gap = ts[1] - ts[0];
        let last_gap = ts[99] - ts[98];
        assert!(
            first_gap > 5 * last_gap,
            "ramp must tighten gaps: {first_gap} vs {last_gap}"
        );
        assert!((a.nominal_rps() - 550.0).abs() < 1e-9);
    }
}
