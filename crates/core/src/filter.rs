//! Relative-error tolerance filtering.
//!
//! §II-B and §III motivate treating small output deviations as correct:
//! floating-point results have intrinsic variance, wave simulations accept
//! misfits of about 4 %, and imprecise computing tolerates much more. The
//! paper conservatively filters mismatches at **2 %** and publishes raw
//! logs so that users can apply different thresholds — hence the threshold
//! here is a parameter.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::report::ErrorReport;

/// Removes mismatches whose relative error does not exceed a threshold.
///
/// Executions left with zero mismatches after filtering are no longer
/// counted as SDCs ("we remove faulty executions where there are no
/// mismatches left after the filter", §III).
///
/// # Examples
///
/// ```
/// use radcrit_core::{filter::ToleranceFilter, compare::compare_slices,
///                    shape::OutputShape};
///
/// let golden = [1.0, 1.0];
/// let observed = [1.01, 1.50];
/// let report = compare_slices(&golden, &observed, OutputShape::d1(2))?;
/// let strict = ToleranceFilter::paper_default(); // 2 %
/// assert_eq!(strict.apply(&report).incorrect_elements(), 1);
///
/// let seismic = ToleranceFilter::new(4.0)?;      // de la Puente et al. misfit
/// assert_eq!(seismic.apply(&report).incorrect_elements(), 1);
/// # Ok::<(), radcrit_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ToleranceFilter {
    threshold_pct: f64,
}

impl ToleranceFilter {
    /// The threshold used throughout the paper: 2 %.
    pub const PAPER_THRESHOLD_PCT: f64 = 2.0;

    /// Creates a filter keeping only mismatches with relative error
    /// **strictly greater** than `threshold_pct` percent.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidThreshold`] if the threshold is negative
    /// or NaN.
    pub fn new(threshold_pct: f64) -> Result<Self, CoreError> {
        if threshold_pct.is_nan() || threshold_pct < 0.0 {
            return Err(CoreError::InvalidThreshold(threshold_pct));
        }
        Ok(ToleranceFilter { threshold_pct })
    }

    /// The 2 % filter used for every "> 2 %" break-down in the paper.
    pub fn paper_default() -> Self {
        ToleranceFilter {
            threshold_pct: Self::PAPER_THRESHOLD_PCT,
        }
    }

    /// The threshold in percent.
    pub fn threshold_pct(&self) -> f64 {
        self.threshold_pct
    }

    /// Produces a new report containing only the mismatches that exceed
    /// the threshold.
    ///
    /// Note that with a zero threshold a mismatch whose values
    /// differ but whose *relative* error is exactly `0.0` cannot exist
    /// (zero relative error means equal magnitudes), except for the
    /// `-0.0`/`+0.0` pair, which compares equal upstream and never reaches
    /// a report.
    pub fn apply(&self, report: &ErrorReport) -> ErrorReport {
        let kept = report
            .mismatches()
            .iter()
            .copied()
            .filter(|m| m.exceeds(self.threshold_pct))
            .collect();
        ErrorReport::new(report.shape(), kept)
    }

    /// Whether the execution would be dropped from the SDC count entirely
    /// (all mismatches inside tolerance).
    pub fn fully_masks(&self, report: &ErrorReport) -> bool {
        report
            .mismatches()
            .iter()
            .all(|m| !m.exceeds(self.threshold_pct))
    }
}

impl Default for ToleranceFilter {
    /// The paper's 2 % filter.
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_slices;
    use crate::shape::OutputShape;
    use proptest::prelude::*;

    #[test]
    fn rejects_invalid_thresholds() {
        assert!(ToleranceFilter::new(-1.0).is_err());
        assert!(ToleranceFilter::new(f64::NAN).is_err());
        assert!(ToleranceFilter::new(0.0).is_ok());
    }

    #[test]
    fn paper_default_is_two_percent() {
        assert_eq!(ToleranceFilter::paper_default().threshold_pct(), 2.0);
        assert_eq!(ToleranceFilter::default().threshold_pct(), 2.0);
    }

    #[test]
    fn zero_threshold_keeps_every_mismatch() {
        let golden = [1.0, 1.0, 1.0];
        let observed = [1.0001, 1.5, 1.0];
        let r = compare_slices(&golden, &observed, OutputShape::d1(3)).unwrap();
        let keep_all = ToleranceFilter::new(0.0).unwrap();
        assert_eq!(keep_all.apply(&r).incorrect_elements(), 2);
    }

    #[test]
    fn two_percent_boundary_is_strict() {
        let golden = [1.0];
        let observed = [1.02]; // exactly 2 %
        let r = compare_slices(&golden, &observed, OutputShape::d1(1)).unwrap();
        let f = ToleranceFilter::new(2.0 + 1e-9).unwrap();
        assert_eq!(f.apply(&r).incorrect_elements(), 0);
        assert!(f.fully_masks(&r));
    }

    #[test]
    fn fully_masks_detects_surviving_error() {
        let golden = [1.0, 1.0];
        let observed = [1.001, 3.0];
        let r = compare_slices(&golden, &observed, OutputShape::d1(2)).unwrap();
        assert!(!ToleranceFilter::paper_default().fully_masks(&r));
    }

    #[test]
    fn filtering_preserves_shape() {
        let golden = [1.0, 1.0];
        let observed = [1.5, 1.0];
        let shape = OutputShape::d2(1, 2);
        let r = compare_slices(&golden, &observed, shape).unwrap();
        assert_eq!(ToleranceFilter::paper_default().apply(&r).shape(), shape);
    }

    proptest! {
        /// Raising the threshold never increases the surviving mismatch count.
        #[test]
        fn filter_is_monotone(
            values in proptest::collection::vec(0.5f64..2.0, 1..32),
            t1 in 0.0f64..100.0, t2 in 0.0f64..100.0) {
            let golden = vec![1.0; values.len()];
            let r = compare_slices(&golden, &values, OutputShape::d1(values.len())).unwrap();
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            let kept_lo = ToleranceFilter::new(lo).unwrap().apply(&r).incorrect_elements();
            let kept_hi = ToleranceFilter::new(hi).unwrap().apply(&r).incorrect_elements();
            prop_assert!(kept_hi <= kept_lo);
        }

        /// Filtering is idempotent.
        #[test]
        fn filter_is_idempotent(
            values in proptest::collection::vec(0.5f64..2.0, 1..32),
            t in 0.0f64..100.0) {
            let golden = vec![1.0; values.len()];
            let r = compare_slices(&golden, &values, OutputShape::d1(values.len())).unwrap();
            let f = ToleranceFilter::new(t).unwrap();
            let once = f.apply(&r);
            let twice = f.apply(&once);
            prop_assert_eq!(once, twice);
        }

        /// Every surviving mismatch really exceeds the threshold.
        #[test]
        fn survivors_exceed_threshold(
            values in proptest::collection::vec(0.5f64..2.0, 1..32),
            t in 0.0f64..100.0) {
            let golden = vec![1.0; values.len()];
            let r = compare_slices(&golden, &values, OutputShape::d1(values.len())).unwrap();
            let f = ToleranceFilter::new(t).unwrap();
            for m in f.apply(&r).mismatches() {
                prop_assert!(m.relative_error() > t);
            }
        }
    }
}
