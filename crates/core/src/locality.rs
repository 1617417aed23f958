//! Spatial locality of corrupted elements (metric 4, §III).
//!
//! When several elements are corrupted the paper classifies the error
//! pattern by how the corrupted coordinates align with the output axes:
//!
//! * **Single** — exactly one corrupted element;
//! * **Line** — all corrupted elements share their position on all axes
//!   but one (e.g. one row or one column of a matrix);
//! * **Square** — the corrupted elements extend along exactly two axes and
//!   form a dense cluster;
//! * **Cubic** — the corrupted elements extend along three axes and form a
//!   dense cluster (only possible for rank-3 outputs such as LavaMD's);
//! * **Random** — the corrupted elements extend along two or more axes but
//!   are scattered, without the block structure of square/cubic errors.
//!
//! Locality matters because it determines which software hardening
//! strategies apply: ABFT DGEMM corrects single and line errors in linear
//! time but not square or random ones (§III).
//!
//! The square/cubic-versus-random distinction requires a density notion:
//! a block error produced by a corrupted shared structure fills its
//! bounding box densely, while unrelated scattered corruption leaves the
//! box almost empty. [`LocalityClassifier::with_density_threshold`] makes the
//! cut-off explicit and configurable (the paper does not publish its exact
//! rule; the default of 0.05 reproduces its qualitative break-downs).

use serde::{Deserialize, Serialize};

use crate::report::ErrorReport;

/// The spatial-locality classes of §III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SpatialClass {
    /// No corrupted elements (not plotted in the paper; kept so that a
    /// fully-filtered execution still has a well-defined classification).
    None,
    /// Exactly one corrupted element.
    Single,
    /// Corrupted elements aligned along one axis.
    Line,
    /// Corrupted elements spanning two axes as a dense block.
    Square,
    /// Corrupted elements spanning three axes as a dense block.
    Cubic,
    /// Corrupted elements scattered across two or more axes.
    Random,
}

impl SpatialClass {
    /// All classes that appear in the paper's FIT break-downs, in the
    /// stacking order of Figs. 3, 5 and 7.
    pub const PLOTTED: [SpatialClass; 5] = [
        SpatialClass::Cubic,
        SpatialClass::Square,
        SpatialClass::Line,
        SpatialClass::Single,
        SpatialClass::Random,
    ];

    /// Whether ABFT for matrix operations (Huang & Abraham) can correct an
    /// error with this locality: single and line errors are correctable in
    /// linear time on parallel devices, square and random (and cubic)
    /// errors are not (§III, §V-A).
    pub fn abft_correctable(&self) -> bool {
        matches!(self, SpatialClass::Single | SpatialClass::Line)
    }
}

impl std::fmt::Display for SpatialClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SpatialClass::None => "none",
            SpatialClass::Single => "single",
            SpatialClass::Line => "line",
            SpatialClass::Square => "square",
            SpatialClass::Cubic => "cubic",
            SpatialClass::Random => "random",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for SpatialClass {
    type Err = String;

    /// Parses the [`std::fmt::Display`] form back into the class (used by
    /// the campaign log and checkpoint readers).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "none" => SpatialClass::None,
            "single" => SpatialClass::Single,
            "line" => SpatialClass::Line,
            "square" => SpatialClass::Square,
            "cubic" => SpatialClass::Cubic,
            "random" => SpatialClass::Random,
            other => return Err(format!("unknown spatial class {other:?}")),
        })
    }
}

/// Classifies the corrupted coordinates of an [`ErrorReport`] into a
/// [`SpatialClass`].
///
/// # Examples
///
/// ```
/// use radcrit_core::{locality::{LocalityClassifier, SpatialClass},
///                    mismatch::Mismatch, report::ErrorReport,
///                    shape::OutputShape};
///
/// // Three corrupted elements along row 2 of a matrix: a line error.
/// let shape = OutputShape::d2(8, 8);
/// let mismatches = vec![
///     Mismatch::new([2, 1, 0], 9.0, 1.0),
///     Mismatch::new([2, 4, 0], 9.0, 1.0),
///     Mismatch::new([2, 6, 0], 9.0, 1.0),
/// ];
/// let report = ErrorReport::new(shape, mismatches);
/// let class = LocalityClassifier::default().classify(&report);
/// assert_eq!(class, SpatialClass::Line);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalityClassifier {
    density_threshold: f64,
}

impl LocalityClassifier {
    /// Default bounding-box density separating block errors from scattered
    /// ones. A corrupted shared structure (cache line, scheduler entry)
    /// produces a block that fills a sizeable fraction of its bounding
    /// box; unrelated scatter fills a vanishing fraction on realistic
    /// output sizes.
    const DEFAULT_DENSITY_THRESHOLD: f64 = 0.05;

    /// Creates a classifier with an explicit density threshold in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `density_threshold` is not in `(0, 1]` or is NaN.
    pub fn with_density_threshold(density_threshold: f64) -> Self {
        assert!(
            density_threshold > 0.0 && density_threshold <= 1.0,
            "density threshold must be in (0, 1], got {density_threshold}"
        );
        LocalityClassifier { density_threshold }
    }

    /// Classifies a report's mismatch pattern.
    pub fn classify(&self, report: &ErrorReport) -> SpatialClass {
        let coords: Vec<[usize; 3]> = report.mismatches().iter().map(|m| m.coord()).collect();
        self.classify_coords(&coords)
    }

    /// Classifies a raw coordinate set; exposed for callers that already
    /// extracted coordinates (e.g. log replay).
    fn classify_coords(&self, coords: &[[usize; 3]]) -> SpatialClass {
        match coords.len() {
            0 => return SpatialClass::None,
            1 => return SpatialClass::Single,
            _ => {}
        }

        let mut lo = coords[0];
        let mut hi = coords[0];
        for c in coords {
            for a in 0..3 {
                lo[a] = lo[a].min(c[a]);
                hi[a] = hi[a].max(c[a]);
            }
        }
        let spread_axes = (0..3).filter(|&a| hi[a] > lo[a]).count();

        match spread_axes {
            0 => SpatialClass::Single, // duplicate coordinates collapse
            1 => SpatialClass::Line,
            k => {
                let volume: f64 = (0..3).map(|a| (hi[a] - lo[a] + 1) as f64).product();
                let density = coords.len() as f64 / volume;
                if density >= self.density_threshold {
                    if k == 2 {
                        SpatialClass::Square
                    } else {
                        SpatialClass::Cubic
                    }
                } else {
                    SpatialClass::Random
                }
            }
        }
    }
}

impl Default for LocalityClassifier {
    fn default() -> Self {
        LocalityClassifier {
            density_threshold: Self::DEFAULT_DENSITY_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mismatch::Mismatch;
    use crate::shape::OutputShape;
    use proptest::prelude::*;

    fn classify(coords: &[[usize; 3]]) -> SpatialClass {
        LocalityClassifier::default().classify_coords(coords)
    }

    #[test]
    fn display_and_from_str_round_trip() {
        for class in [
            SpatialClass::None,
            SpatialClass::Single,
            SpatialClass::Line,
            SpatialClass::Square,
            SpatialClass::Cubic,
            SpatialClass::Random,
        ] {
            assert_eq!(class.to_string().parse::<SpatialClass>(), Ok(class));
        }
        assert!("triangular".parse::<SpatialClass>().is_err());
    }

    #[test]
    fn empty_is_none() {
        assert_eq!(classify(&[]), SpatialClass::None);
    }

    #[test]
    fn one_element_is_single() {
        assert_eq!(classify(&[[3, 4, 0]]), SpatialClass::Single);
    }

    #[test]
    fn duplicates_collapse_to_single() {
        assert_eq!(classify(&[[3, 4, 0], [3, 4, 0]]), SpatialClass::Single);
    }

    #[test]
    fn row_is_line() {
        assert_eq!(
            classify(&[[2, 0, 0], [2, 5, 0], [2, 9, 0]]),
            SpatialClass::Line
        );
    }

    #[test]
    fn column_is_line() {
        assert_eq!(
            classify(&[[0, 7, 0], [4, 7, 0], [9, 7, 0]]),
            SpatialClass::Line
        );
    }

    #[test]
    fn depth_line_in_3d() {
        assert_eq!(
            classify(&[[1, 1, 0], [1, 1, 5], [1, 1, 9]]),
            SpatialClass::Line
        );
    }

    #[test]
    fn dense_block_is_square() {
        let mut coords = Vec::new();
        for r in 10..14 {
            for c in 20..24 {
                coords.push([r, c, 0]);
            }
        }
        assert_eq!(classify(&coords), SpatialClass::Square);
    }

    #[test]
    fn dense_3d_block_is_cubic() {
        let mut coords = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                for z in 0..3 {
                    coords.push([x, y, z]);
                }
            }
        }
        assert_eq!(classify(&coords), SpatialClass::Cubic);
    }

    #[test]
    fn sparse_scatter_is_random() {
        // 4 elements spread over a 1000x1000 bounding box: density 4e-6.
        let coords = [[0, 0, 0], [999, 999, 0], [17, 903, 0], [764, 51, 0]];
        assert_eq!(classify(&coords), SpatialClass::Random);
    }

    #[test]
    fn sparse_3d_scatter_is_random() {
        let coords = [[0, 0, 0], [99, 99, 99], [5, 80, 3], [60, 2, 97]];
        assert_eq!(classify(&coords), SpatialClass::Random);
    }

    #[test]
    fn density_threshold_controls_cut() {
        // 2x2 box with 2 of 4 elements corrupted: density 0.5.
        let coords = [[0, 0, 0], [1, 1, 0]];
        let lenient = LocalityClassifier::with_density_threshold(0.4);
        let strict = LocalityClassifier::with_density_threshold(0.6);
        assert_eq!(lenient.classify_coords(&coords), SpatialClass::Square);
        assert_eq!(strict.classify_coords(&coords), SpatialClass::Random);
    }

    #[test]
    #[should_panic(expected = "density threshold")]
    fn zero_threshold_rejected() {
        LocalityClassifier::with_density_threshold(0.0);
    }

    #[test]
    fn abft_correctability_matches_paper() {
        assert!(SpatialClass::Single.abft_correctable());
        assert!(SpatialClass::Line.abft_correctable());
        assert!(!SpatialClass::Square.abft_correctable());
        assert!(!SpatialClass::Cubic.abft_correctable());
        assert!(!SpatialClass::Random.abft_correctable());
    }

    #[test]
    fn classify_via_report() {
        let shape = OutputShape::d2(8, 8);
        let report = crate::report::ErrorReport::new(
            shape,
            vec![
                Mismatch::new([1, 2, 0], 2.0, 1.0),
                Mismatch::new([1, 5, 0], 2.0, 1.0),
            ],
        );
        assert_eq!(
            LocalityClassifier::default().classify(&report),
            SpatialClass::Line
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(SpatialClass::Cubic.to_string(), "cubic");
        assert_eq!(SpatialClass::Random.to_string(), "random");
    }

    proptest! {
        /// Translating all coordinates by a constant offset never changes
        /// the classification.
        #[test]
        fn translation_invariance(
            coords in proptest::collection::vec(
                (0usize..50, 0usize..50, 0usize..50), 1..30),
            dx in 0usize..100, dy in 0usize..100, dz in 0usize..100) {
            let base: Vec<[usize; 3]> = coords.iter().map(|&(x, y, z)| [x, y, z]).collect();
            let moved: Vec<[usize; 3]> =
                base.iter().map(|c| [c[0] + dx, c[1] + dy, c[2] + dz]).collect();
            prop_assert_eq!(classify(&base), classify(&moved));
        }

        /// Permuting the axes maps line→line, square→square, etc.
        #[test]
        fn axis_permutation_invariance(
            coords in proptest::collection::vec(
                (0usize..50, 0usize..50, 0usize..50), 1..30)) {
            let base: Vec<[usize; 3]> = coords.iter().map(|&(x, y, z)| [x, y, z]).collect();
            let swapped: Vec<[usize; 3]> = base.iter().map(|c| [c[1], c[2], c[0]]).collect();
            prop_assert_eq!(classify(&base), classify(&swapped));
        }

        /// The classifier never returns None for a non-empty set and never
        /// returns Single for a set with two distinct coordinates.
        #[test]
        fn class_consistency(
            coords in proptest::collection::vec(
                (0usize..20, 0usize..20, 0usize..20), 1..30)) {
            let base: Vec<[usize; 3]> = coords.iter().map(|&(x, y, z)| [x, y, z]).collect();
            let class = classify(&base);
            prop_assert_ne!(class, SpatialClass::None);
            let distinct: std::collections::HashSet<_> = base.iter().collect();
            if distinct.len() > 1 {
                prop_assert_ne!(class, SpatialClass::Single);
            } else {
                prop_assert_eq!(class, SpatialClass::Single);
            }
        }
    }
}
