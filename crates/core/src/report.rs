//! Per-execution error reports and combined criticality summaries.

use serde::{Deserialize, Serialize};

use crate::filter::ToleranceFilter;
use crate::locality::{LocalityClassifier, SpatialClass};
use crate::mismatch::Mismatch;
use crate::shape::OutputShape;

/// All mismatches observed in one faulty execution, together with the
/// output geometry they live in.
///
/// This is the unit the paper's metrics operate on: one impinging neutron →
/// one execution → one `ErrorReport` (§IV-D tunes the beam so that at most
/// one neutron generates a failure per execution).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReport {
    shape: OutputShape,
    mismatches: Vec<Mismatch>,
}

impl ErrorReport {
    /// Creates a report from an explicit mismatch list.
    ///
    /// Library users normally obtain reports from
    /// [`compare_slices`](crate::compare::compare_slices) instead.
    pub fn new(shape: OutputShape, mismatches: Vec<Mismatch>) -> Self {
        ErrorReport { shape, mismatches }
    }

    /// The geometry of the output the mismatches were found in.
    pub fn shape(&self) -> OutputShape {
        self.shape
    }

    /// The mismatches, in ascending linear-index order when produced by
    /// [`compare_slices`](crate::compare::compare_slices).
    pub fn mismatches(&self) -> &[Mismatch] {
        &self.mismatches
    }

    /// Metric 1 of the paper: the **number of incorrect elements**.
    pub fn incorrect_elements(&self) -> usize {
        self.mismatches.len()
    }

    /// Whether this execution counts as a Silent Data Corruption (at least
    /// one mismatching element).
    pub fn is_sdc(&self) -> bool {
        !self.mismatches.is_empty()
    }

    /// Metric 3 of the paper: the **mean relative error**, i.e. the average
    /// of the relative errors of all corrupted elements, in percent.
    ///
    /// Returns `None` for a report with no mismatches (the mean of an empty
    /// set is undefined). Infinite per-element errors (corruption of a
    /// zero-expected element or NaN reads) make the mean infinite.
    pub fn mean_relative_error(&self) -> Option<f64> {
        if self.mismatches.is_empty() {
            return None;
        }
        let sum: f64 = self.mismatches.iter().map(Mismatch::relative_error).sum();
        Some(sum / self.mismatches.len() as f64)
    }

    /// Mean relative error with every per-element error saturated at `cap`
    /// percent, reproducing the plotting rule of Figs. 2 and 4.
    ///
    /// Returns `None` for a report with no mismatches.
    pub fn mean_relative_error_capped(&self, cap: f64) -> Option<f64> {
        if self.mismatches.is_empty() {
            return None;
        }
        let sum: f64 = self
            .mismatches
            .iter()
            .map(|m| m.relative_error_capped(cap))
            .sum();
        Some(sum / self.mismatches.len() as f64)
    }

    /// The fraction of output elements corrupted, in `[0, 1]`.
    pub fn corrupted_fraction(&self) -> f64 {
        self.mismatches.len() as f64 / self.shape.len() as f64
    }

    /// Renders a 2-D occupancy map of the corrupted elements, the textual
    /// analogue of the paper's Fig. 9 (CLAMR error-locality map).
    ///
    /// The output geometry is down-sampled onto a `rows × cols` character
    /// grid; cells containing at least one mismatch print `marker`, others
    /// print `'.'`. Rank-3 outputs are projected along the last axis.
    pub fn render_map(&self, rows: usize, cols: usize, marker: char) -> String {
        let dims = self.shape.dims();
        let rows = rows.max(1);
        let cols = cols.max(1);
        let mut grid = vec![vec!['.'; cols]; rows];
        for m in &self.mismatches {
            let c = m.coord();
            let r = c[0] * rows / dims[0];
            let k = if self.shape.rank() >= 2 {
                c[1] * cols / dims[1]
            } else {
                0
            };
            grid[r.min(rows - 1)][k.min(cols - 1)] = marker;
        }
        let mut out = String::with_capacity(rows * (cols + 1));
        for row in grid {
            out.extend(row);
            out.push('\n');
        }
        out
    }

    /// Evaluates all four metrics at once, applying `filter` before the
    /// spatial classification exactly as §III prescribes ("the spatial
    /// locality can be deeply affected by the relative error \[filter\]").
    pub fn criticality(
        &self,
        filter: &ToleranceFilter,
        classifier: &LocalityClassifier,
    ) -> CriticalityReport {
        let filtered = filter.apply(self);
        CriticalityReport {
            incorrect_elements: self.incorrect_elements(),
            mean_relative_error: self.mean_relative_error(),
            locality: classifier.classify(self),
            filtered_incorrect_elements: filtered.incorrect_elements(),
            filtered_mean_relative_error: filtered.mean_relative_error(),
            filtered_locality: classifier.classify(&filtered),
            threshold_pct: filter.threshold_pct(),
        }
    }
}

/// The four metrics of §III evaluated over one faulty execution, both raw
/// ("All" in Figs. 3/5/7) and after the tolerance filter ("> 2 %").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalityReport {
    /// Metric 1: number of incorrect elements before filtering.
    pub incorrect_elements: usize,
    /// Metric 3: mean relative error (percent) before filtering.
    pub mean_relative_error: Option<f64>,
    /// Metric 4: spatial locality before filtering.
    pub locality: SpatialClass,
    /// Number of incorrect elements surviving the tolerance filter.
    pub filtered_incorrect_elements: usize,
    /// Mean relative error (percent) of the surviving mismatches.
    pub filtered_mean_relative_error: Option<f64>,
    /// Spatial locality of the surviving mismatches (an execution
    /// classified square may become line or single after filtering, §V-A).
    pub filtered_locality: SpatialClass,
    /// The tolerance threshold applied, in percent.
    pub threshold_pct: f64,
}

impl CriticalityReport {
    /// Whether the execution still counts as an SDC after filtering, i.e.
    /// whether at least one mismatch exceeds the tolerance. Executions for
    /// which this is `false` are removed from the "> 2 %" FIT break-downs.
    pub fn is_critical(&self) -> bool {
        self.filtered_incorrect_elements > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare_slices;
    use proptest::prelude::*;

    fn report_from(golden: &[f64], observed: &[f64], shape: OutputShape) -> ErrorReport {
        compare_slices(golden, observed, shape).unwrap()
    }

    #[test]
    fn empty_report_has_no_mean() {
        let r = ErrorReport::new(OutputShape::d1(4), vec![]);
        assert_eq!(r.mean_relative_error(), None);
        assert!(!r.is_sdc());
    }

    #[test]
    fn mean_relative_error_averages() {
        let golden = [1.0, 1.0, 1.0];
        let observed = [1.1, 1.3, 1.0]; // 10 % and 30 %
        let r = report_from(&golden, &observed, OutputShape::d1(3));
        let mre = r.mean_relative_error().unwrap();
        assert!((mre - 20.0).abs() < 1e-9, "got {mre}");
    }

    #[test]
    fn capped_mean_is_bounded() {
        let golden = [1.0, 1.0];
        let observed = [100.0, 1.05]; // 9900 % and 5 %
        let r = report_from(&golden, &observed, OutputShape::d1(2));
        let capped = r.mean_relative_error_capped(100.0).unwrap();
        assert!((capped - 52.5).abs() < 1e-9, "got {capped}");
    }

    #[test]
    fn corrupted_fraction() {
        let golden = vec![1.0; 10];
        let mut observed = golden.clone();
        observed[3] = 2.0;
        let r = report_from(&golden, &observed, OutputShape::d1(10));
        assert!((r.corrupted_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn render_map_marks_corruption() {
        let shape = OutputShape::d2(4, 4);
        let golden = vec![1.0; 16];
        let mut observed = golden.clone();
        observed[0] = 2.0; // top-left
        observed[15] = 2.0; // bottom-right
        let r = report_from(&golden, &observed, shape);
        let map = r.render_map(4, 4, '#');
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(&lines[0][0..1], "#");
        assert_eq!(&lines[3][3..4], "#");
        assert_eq!(map.matches('#').count(), 2);
    }

    #[test]
    fn criticality_combines_filtered_and_raw() {
        let shape = OutputShape::d1(4);
        let golden = vec![1.0; 4];
        let observed = vec![1.5, 1.001, 1.0, 1.0]; // 50 % and 0.1 %
        let r = report_from(&golden, &observed, shape);
        let c = r.criticality(
            &ToleranceFilter::paper_default(),
            &LocalityClassifier::default(),
        );
        assert_eq!(c.incorrect_elements, 2);
        assert_eq!(c.filtered_incorrect_elements, 1);
        assert!(c.is_critical());
        assert_eq!(c.threshold_pct, 2.0);
        assert_eq!(c.filtered_locality, SpatialClass::Single);
    }

    #[test]
    fn criticality_fully_filtered_is_not_critical() {
        let shape = OutputShape::d1(2);
        let golden = vec![1.0; 2];
        let observed = vec![1.001, 1.002];
        let r = report_from(&golden, &observed, shape);
        let c = r.criticality(
            &ToleranceFilter::paper_default(),
            &LocalityClassifier::default(),
        );
        assert_eq!(c.incorrect_elements, 2);
        assert!(!c.is_critical());
        assert_eq!(c.filtered_mean_relative_error, None);
    }

    proptest! {
        #[test]
        fn mean_relative_error_between_min_and_max(
            errors in proptest::collection::vec(0.0f64..1e4, 1..40)) {
            let mismatches: Vec<Mismatch> = errors.iter().enumerate()
                .map(|(i, &e)| Mismatch::new([i, 0, 0], 1.0 + e / 100.0, 1.0))
                .collect();
            let r = ErrorReport::new(OutputShape::d1(errors.len().max(1)), mismatches);
            let mre = r.mean_relative_error().unwrap();
            let lo = errors.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = errors.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(mre >= lo - 1e-6 && mre <= hi + 1e-6);
        }
    }
}
