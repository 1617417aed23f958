//! Power-of-two bucketed histograms.
//!
//! The generalization of the campaign runner's original latency
//! histogram, with the edge cases made explicit: sub-microsecond
//! observations are clamped into the first bucket and counted as
//! [`Log2Histogram::underflow`], and observations at or past the last
//! bucket edge are clamped into the final bucket and counted as
//! [`Log2Histogram::overflow`] — nothing saturates silently.

use std::time::Duration;

/// Power-of-two bucketed histogram of microsecond durations.
///
/// Bucket `b` counts observations in `[2^b, 2^(b+1))` microseconds; the
/// covered range `[1 µs, ~17.9 min)` spans everything a campaign can
/// produce (watchdog deadlines cap the upper end). Observations outside
/// the range are clamped into the edge buckets and additionally counted
/// by [`Log2Histogram::underflow`] / [`Log2Histogram::overflow`].
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use radcrit_obs::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// h.record(Duration::from_nanos(10)); // clamped: underflow
/// h.record(Duration::from_micros(3));
/// h.record(Duration::from_secs(3600)); // clamped: overflow
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; Self::BUCKETS],
    total: u64,
    underflow: u64,
    overflow: u64,
    sum_micros: u64,
}

impl Log2Histogram {
    /// Number of buckets.
    const BUCKETS: usize = 30;

    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: [0; Self::BUCKETS],
            total: 0,
            underflow: 0,
            overflow: 0,
            sum_micros: 0,
        }
    }

    /// Records one duration observation.
    pub fn record(&mut self, latency: Duration) {
        self.record_micros(latency.as_micros());
    }

    /// Records one observation expressed in microseconds.
    pub fn record_micros(&mut self, micros: u128) {
        if micros < 1 {
            // Clamp explicitly into the first bucket; the underflow
            // count keeps the clamping visible.
            self.underflow += 1;
            self.counts[0] += 1;
        } else {
            let bucket = (u128::BITS - 1 - micros.leading_zeros()) as usize; // floor(log2)
            if bucket >= Self::BUCKETS {
                self.overflow += 1;
                self.counts[Self::BUCKETS - 1] += 1;
            } else {
                self.counts[bucket] += 1;
            }
        }
        self.total += 1;
        self.sum_micros = self
            .sum_micros
            .saturating_add(micros.min(u64::MAX as u128) as u64);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.sum_micros = self.sum_micros.saturating_add(other.sum_micros);
    }

    /// Number of recorded observations (clamped ones included).
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Observations below 1 µs, clamped into the first bucket.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or beyond the last bucket edge (~17.9 min),
    /// clamped into the final bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Sum of all observations in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros
    }

    /// An upper bound on the `q`-quantile (`0.0 ≤ q ≤ 1.0`), as the
    /// upper edge of the bucket the quantile falls in. `None` when the
    /// histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Duration::from_micros(1u64 << (b + 1)));
            }
        }
        None
    }

    /// The non-empty buckets as `(bucket lower edge, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(Duration, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Duration::from_micros(1u64 << b), n))
            .collect()
    }

    /// Cumulative non-empty buckets as `(upper edge in µs, cumulative
    /// count)` pairs — the shape Prometheus histogram exposition wants.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                cum += n;
                out.push((1u64 << (b + 1), cum));
            }
        }
        out
    }
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_by_powers_of_two() {
        let mut h = Log2Histogram::new();
        h.record(Duration::from_micros(3)); // bucket [2, 4)
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(5)); // bucket [4096, 8192)
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (Duration::from_micros(2), 2));
        assert_eq!(buckets[1], (Duration::from_micros(4096), 1));
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn sub_microsecond_is_clamped_and_counted() {
        let mut h = Log2Histogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.count(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.nonzero_buckets()[0].0, Duration::from_micros(1));
    }

    #[test]
    fn past_last_bucket_is_clamped_and_counted() {
        let mut h = Log2Histogram::new();
        // 2^30 µs ≈ 17.9 min is the first duration past the range.
        h.record_micros(1 << 30);
        h.record(Duration::from_secs(86_400));
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 2);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(Duration::from_micros(1 << 29), 2)]);
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..9 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_millis(1)); // bucket [512, 1024)
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(16)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1024)));
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Log2Histogram::new();
        a.record(Duration::from_micros(3));
        a.record(Duration::from_nanos(1));
        let mut b = Log2Histogram::new();
        b.record_micros(1 << 31);
        b.record(Duration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert!(a.sum_micros() > (1 << 31));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = Log2Histogram::new();
        for us in [1u128, 3, 3, 100, 5000] {
            h.record_micros(us);
        }
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 5);
        for w in cum.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }
}
