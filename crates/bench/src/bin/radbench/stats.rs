//! The arithmetic behind every reported number: medians and quartiles,
//! the tail-percentile rule, the summary digest, the daemon clock
//! mapping and the served-latency partition. Pure functions, no I/O.

/// Median of `xs` (mean of the middle pair for an even count), as
/// Python's `statistics.median`. NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// With fewer than two values both quartiles are that value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Candidate tail percentiles, in per mille.
pub const PERCENTILES: [u32; 5] = [500, 900, 950, 990, 999];

/// Samples needed beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Samples strictly beyond the `per_mille` percentile's rank.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<u32> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile. Failed operations enter as `+∞`, so a
/// percentile that reaches them reads `+∞` (it missed any limit).
pub fn percentile(xs: &[f64], per_mille: u32) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank(v.len(), per_mille) - 1]
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One clock probe: local send and receive times around a request
/// that reported the remote clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    pub sent_us: f64,
    pub recv_us: f64,
    pub remote_us: f64,
}

/// The offset that maps remote times onto the local clock
/// (`local = remote + offset`), from the probe with the smallest
/// round trip, assuming the remote read its clock at the midpoint.
pub fn clock_offset(probes: &[Probe]) -> Option<f64> {
    probes
        .iter()
        .min_by(|a, b| (a.recv_us - a.sent_us).total_cmp(&(b.recv_us - b.sent_us)))
        .map(|p| (p.sent_us + p.recv_us) / 2.0 - p.remote_us)
}

/// Names of the served-latency segments, in order.
pub const SEGMENTS: [&str; 6] = [
    "submit",
    "queue_wait",
    "exec",
    "stream_lag",
    "stream_close",
    "result",
];

/// One job's latency split at its seven boundaries: submit start, ack,
/// golden start, last injection end, last SSE frame, stream end and
/// result received. A segment whose boundaries arrive out of order (a
/// clock-mapping error) counts as zero, and the unattributed remainder
/// — latency minus the segment sum — shows that error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Partition {
    pub segments: [f64; 6],
    pub total: f64,
    pub unattributed: f64,
}

pub fn partition(bounds: &[f64; 7]) -> Partition {
    let mut segments = [0.0; 6];
    for (k, s) in segments.iter_mut().enumerate() {
        *s = (bounds[k + 1] - bounds[k]).max(0.0);
    }
    let total = bounds[6] - bounds[0];
    Partition {
        segments,
        total,
        unattributed: total - segments.iter().sum::<f64>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn the_reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(500));
        assert_eq!(supported_percentile(100), Some(900));
        assert_eq!(supported_percentile(199), Some(900));
        assert_eq!(supported_percentile(200), Some(950));
        assert_eq!(beyond(200, 950), 10);
        assert_eq!(beyond(199, 950), 9);
        assert_eq!(supported_percentile(1000), Some(990));
        assert_eq!(supported_percentile(10_000), Some(999));
    }

    #[test]
    fn failures_enter_percentiles_as_infinity() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 950), 190.0);
        assert_eq!(percentile(&xs, 500), 100.0);
        // Eleven failures: p95 now lands on a failed request.
        for x in xs.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&xs, 950), f64::INFINITY);
        assert!(percentile(&xs, 500).is_finite());
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn clock_offset_uses_the_minimum_rtt_midpoint() {
        // Remote clock runs 1000 µs behind local. The fast probe (RTT 20)
        // read it exactly at its midpoint; the slow one (RTT 400) late.
        let probes = [
            Probe {
                sent_us: 5_000.0,
                recv_us: 5_400.0,
                remote_us: 4_390.0,
            },
            Probe {
                sent_us: 6_000.0,
                recv_us: 6_020.0,
                remote_us: 5_010.0,
            },
        ];
        assert_eq!(clock_offset(&probes), Some(1_000.0));
        assert_eq!(clock_offset(&[]), None);
    }

    #[test]
    fn ordered_boundaries_partition_latency_exactly() {
        let p = partition(&[0.0, 2.0, 5.0, 45.0, 90.0, 91.0, 100.0]);
        assert_eq!(p.segments, [2.0, 3.0, 40.0, 45.0, 1.0, 9.0]);
        assert_eq!(p.total, 100.0);
        assert_eq!(p.unattributed, 0.0);
    }

    #[test]
    fn a_misordered_boundary_shows_as_unattributed() {
        // Golden start mapped 4 µs before the ack: queue wait clamps to
        // zero and the overlap surfaces as a negative remainder.
        let p = partition(&[0.0, 6.0, 2.0, 45.0, 90.0, 91.0, 100.0]);
        assert_eq!(p.segments[1], 0.0);
        assert_eq!(p.segments[2], 43.0);
        assert_eq!(p.unattributed, -4.0);
    }
}
