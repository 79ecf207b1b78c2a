//! A dependency-free fixed-bucket log-scale latency histogram.
//!
//! The farm's output is a distribution, not a mean, so the measurement
//! plane must hold millions of samples without remembering any of them.
//! [`LatHist`] uses HDR-style buckets: values below 8 get exact buckets;
//! above that, each power-of-two octave is split into 8 linear
//! sub-buckets, bounding the relative quantile error at 12.5% while the
//! whole histogram stays a flat array of `u64` counters.
//!
//! Recording is integer arithmetic on a fixed layout, so reports are
//! byte-identical across `--jobs` levels.

/// Sub-buckets per octave (2^3): the quantile resolution knob.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range: 8 exact small-value
/// buckets plus 8 sub-buckets for each octave `2^3 ..= 2^63`.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB;

/// Fixed-bucket log-scale histogram of `u64` samples (cycles, here).
#[derive(Clone)]
pub struct LatHist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

/// The flat bucket index of a value. Zero-cost on the record path: a
/// leading-zeros instruction and two shifts.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    (msb - SUB_BITS + 1) as usize * SUB + sub
}

/// The largest value a bucket can hold — what quantile queries report,
/// so a reported quantile never understates the true one.
fn upper_of(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let msb = (idx / SUB) as u32 + SUB_BITS - 1;
    let sub = (idx % SUB) as u64;
    let width = 1u64 << (msb - SUB_BITS);
    (1u64 << msb) + (sub + 1) * width - 1
}

impl std::fmt::Debug for LatHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatHist")
            .field("count", &self.total)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("p999", &self.p999())
            .finish()
    }
}

impl Default for LatHist {
    fn default() -> LatHist {
        LatHist::new()
    }
}

impl LatHist {
    /// An empty histogram.
    pub fn new() -> LatHist {
        LatHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` sample — at most 12.5% above
    /// the true order statistic, never below it.
    ///
    /// Every input has a defined result: an empty histogram reports 0
    /// for all quantiles; when the count is below `1/(1-q)` (e.g. p999
    /// of fewer than 1000 samples) the rank clamps to the last sample,
    /// so the result is the maximum recorded bucket — never an
    /// interpolation from data that is not there. Out-of-range or
    /// non-finite `q` clamps to the nearest defined quantile (NaN
    /// reports the maximum, the conservative end for a latency gate).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_of(idx);
            }
        }
        upper_of(BUCKETS - 1)
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic value stream for oracle tests (splitmix64).
    fn stream(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                // Latency-shaped: spread over ~6 decades.
                z % 10u64.pow(1 + (z % 6) as u32)
            })
            .collect()
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        // Every value maps into a bucket whose upper bound is >= it, and
        // bucket upper bounds are strictly increasing.
        for idx in 1..BUCKETS {
            assert!(upper_of(idx) > upper_of(idx - 1), "idx {idx}");
        }
        for v in [0, 1, 7, 8, 9, 63, 64, 1000, u32::MAX as u64, u64::MAX / 2] {
            let idx = bucket_of(v);
            assert!(upper_of(idx) >= v, "v={v} idx={idx}");
            if idx > 0 {
                assert!(upper_of(idx - 1) < v, "v={v} idx={idx}");
            }
        }
    }

    #[test]
    fn quantiles_bound_the_sorted_vector_oracle() {
        for seed in [1u64, 7, 42, 1996] {
            let vals = stream(seed, 5_000);
            let mut h = LatHist::new();
            let mut sorted = vals.clone();
            for v in &vals {
                h.record(*v);
            }
            sorted.sort_unstable();
            for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let oracle = sorted[rank - 1];
                let got = h.quantile(q);
                assert!(got >= oracle, "seed {seed} q {q}: {got} < oracle {oracle}");
                let bound = oracle + oracle / 8 + 1;
                assert!(got <= bound, "seed {seed} q {q}: {got} > bound {bound}");
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn p999_with_fewer_than_1000_samples_is_the_maximum() {
        // Regression: a tail quantile finer than the sample count must
        // clamp to the last sample, not invent a value past it.
        for n in [1u64, 2, 10, 999] {
            let mut h = LatHist::new();
            for v in 1..=n {
                h.record(v * 100);
            }
            let max_bucket = upper_of(bucket_of(n * 100));
            assert_eq!(h.p999(), max_bucket, "n={n}");
            assert!(h.p999() >= n * 100, "never understates the max, n={n}");
        }
    }

    #[test]
    fn out_of_range_q_is_defined() {
        let mut h = LatHist::new();
        h.record(5);
        h.record(500);
        let max_bucket = upper_of(bucket_of(500));
        assert_eq!(h.quantile(1.5), max_bucket, "q>1 clamps to the max");
        assert_eq!(h.quantile(-0.3), 5, "q<0 clamps to the min");
        assert_eq!(h.quantile(f64::NAN), max_bucket, "NaN is the max");
        assert_eq!(h.quantile(f64::INFINITY), max_bucket);
        assert_eq!(h.quantile(f64::NEG_INFINITY), 5);
        assert_eq!(LatHist::new().quantile(f64::NAN), 0, "empty stays 0");
    }

    #[test]
    fn extreme_quantiles_hit_min_and_max_buckets() {
        let mut h = LatHist::new();
        h.record(3);
        h.record(1_000_000);
        assert_eq!(h.quantile(0.0), 3, "rank clamps to the first sample");
        assert!(h.quantile(1.0) >= 1_000_000);
    }
}
