//! Statistical helpers for campaign analysis.
//!
//! Radiation campaigns observe counts of rare events (Poisson arrivals),
//! so uncertainty is usually reported as a Poisson confidence interval on
//! the event count. This module also provides the linear-interpolation
//! quantile that `repro` and the benchmark reports use.

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of `values` using linear
/// interpolation between order statistics.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0, 1], got {q}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Two-sided Poisson confidence interval on the expectation given an
/// observed count, via the chi-square/gamma relationship with the
/// Wilson–Hilferty approximation of chi-square quantiles.
///
/// Returns `(lower, upper)` bounds on the Poisson mean. The lower bound is
/// 0 when the count is 0. Accuracy is within a fraction of a percent of
/// the exact interval for all counts, which is ample for FIT error bars.
///
/// # Panics
///
/// Panics if `confidence` is not in `(0, 1)`.
pub fn poisson_ci(count: usize, confidence: f64) -> (f64, f64) {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1), got {confidence}"
    );
    let alpha = 1.0 - confidence;
    let lower = if count == 0 {
        0.0
    } else {
        0.5 * chi_square_quantile(alpha / 2.0, 2.0 * count as f64)
    };
    let upper = 0.5 * chi_square_quantile(1.0 - alpha / 2.0, 2.0 * (count as f64 + 1.0));
    (lower, upper)
}

/// Wilson–Hilferty approximation to the chi-square quantile function.
fn chi_square_quantile(p: f64, df: f64) -> f64 {
    let z = standard_normal_quantile(p);
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Acklam's rational approximation to the standard normal quantile
/// (inverse CDF). Absolute error below 1.15e-9 over the open unit
/// interval.
///
/// # Panics
///
/// Panics if `p` is not in `(0, 1)`.
fn standard_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probability must be in (0, 1), got {p}");

    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantile_endpoints_and_median() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(3.0));
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0];
        assert!((quantile(&v, 0.25).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_out_of_range_panics() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!(standard_normal_quantile(0.5).abs() < 1e-9);
        assert!((standard_normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.025) + 1.959964).abs() < 1e-4);
        assert!((standard_normal_quantile(0.99) - 2.326348).abs() < 1e-4);
    }

    #[test]
    fn poisson_ci_zero_count() {
        let (lo, hi) = poisson_ci(0, 0.95);
        assert_eq!(lo, 0.0);
        // exact upper bound for 0 events at 95 % is ~3.689
        assert!((hi - 3.689).abs() < 0.05, "got {hi}");
    }

    #[test]
    fn poisson_ci_brackets_count() {
        for &n in &[1usize, 5, 20, 100, 1000] {
            let (lo, hi) = poisson_ci(n, 0.95);
            assert!(lo < n as f64, "lower {lo} !< {n}");
            assert!(hi > n as f64, "upper {hi} !> {n}");
        }
    }

    #[test]
    fn poisson_ci_matches_exact_for_ten() {
        // Exact 95 % CI for 10 events: (4.795, 18.390).
        let (lo, hi) = poisson_ci(10, 0.95);
        assert!((lo - 4.795).abs() < 0.1, "lower {lo}");
        assert!((hi - 18.390).abs() < 0.15, "upper {hi}");
    }

    proptest! {
        #[test]
        fn normal_quantile_is_monotone(p1 in 0.001f64..0.999, p2 in 0.001f64..0.999) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(standard_normal_quantile(lo) <= standard_normal_quantile(hi) + 1e-12);
        }

        #[test]
        fn normal_quantile_is_antisymmetric(p in 0.001f64..0.5) {
            let a = standard_normal_quantile(p);
            let b = standard_normal_quantile(1.0 - p);
            prop_assert!((a + b).abs() < 1e-6);
        }

        #[test]
        fn poisson_ci_widens_with_confidence(n in 0usize..500) {
            let (lo90, hi90) = poisson_ci(n, 0.90);
            let (lo99, hi99) = poisson_ci(n, 0.99);
            prop_assert!(lo99 <= lo90 + 1e-9);
            prop_assert!(hi99 >= hi90 - 1e-9);
        }
    }
}
