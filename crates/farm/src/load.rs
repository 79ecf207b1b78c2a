//! The open-loop arrival process: a deterministic, seed-salted Poisson
//! request schedule.
//!
//! The load generator is *open-loop* (wrk2-style): arrival instants are
//! computed up front from the offered rate and a salted seed, so
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

/// The first `n` absolute instants, in cycles, of a Poisson arrival
/// process (exponential gaps) at mean rate `rps` requests/second,
/// sorted non-decreasing. Deterministic in `(rps, n, seed, salt)` and
/// independent of everything the simulation does with them.
pub(crate) fn poisson_instants(rps: f64, n: usize, seed: u64, salt: u64) -> Vec<u64> {
    assert!(rps > 0.0, "arrival rate must be positive");
    let mut rng = Rng64::new(seed, salt);
    let mut out = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for _ in 0..n {
        // Exponential inter-arrival; 1 - u is in (0, 1].
        t += -(1.0 - rng.next_f64()).ln() / rps;
        out.push((t * CPU_HZ as f64) as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_seeded_and_salted() {
        let x = poisson_instants(500.0, 200, 7, 1);
        assert_eq!(
            x,
            poisson_instants(500.0, 200, 7, 1),
            "same seed, same schedule"
        );
        assert_ne!(x, poisson_instants(500.0, 200, 8, 1), "seed matters");
        assert_ne!(x, poisson_instants(500.0, 200, 7, 2), "salt matters");
        assert!(x.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Mean gap within 15% of nominal over 200 draws.
        let mean_gap = *x.last().unwrap() as f64 / x.len() as f64;
        let want = CPU_HZ as f64 / 500.0;
        assert!((mean_gap - want).abs() / want < 0.15, "mean gap {mean_gap}");
    }
}
