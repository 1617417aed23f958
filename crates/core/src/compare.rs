//! Golden-vs-observed output comparison.
//!
//! Mirrors the experimental procedure of §IV-D: a host gathers results and
//! compares them with a pre-computed golden output; any differing element
//! becomes a [`Mismatch`] in the resulting [`ErrorReport`]. Every
//! comparison — these entry points and each campaign injection — runs
//! the one scan in [`compare_mapped`].

use crate::dirty::DirtyRegion;
use crate::error::CoreError;
use crate::exec;
use crate::mismatch::Mismatch;
use crate::report::ErrorReport;
use crate::shape::{Coord, OutputShape};

/// Compares an observed output against the golden output element by
/// element and collects every exact mismatch.
///
/// Bitwise-equal elements (including equal NaN payload semantics: two NaNs
/// are treated as matching, since the golden run produced a NaN there too)
/// are considered correct; everything else becomes a [`Mismatch`].
///
/// # Errors
///
/// Returns [`CoreError::LengthMismatch`] when the two slices have different
/// lengths and [`CoreError::ShapeMismatch`] when their length does not
/// match `shape`.
///
/// # Examples
///
/// ```
/// use radcrit_core::{compare::compare_slices, shape::OutputShape};
///
/// let golden = [1.0, 2.0, 3.0, 4.0];
/// let observed = [1.0, 2.5, 3.0, 4.0];
/// let report = compare_slices(&golden, &observed, OutputShape::d2(2, 2))?;
/// assert_eq!(report.incorrect_elements(), 1);
/// assert_eq!(report.mismatches()[0].coord(), [0, 1, 0]);
/// # Ok::<(), radcrit_core::CoreError>(())
/// ```
pub fn compare_slices(
    golden: &[f64],
    observed: &[f64],
    shape: OutputShape,
) -> Result<ErrorReport, CoreError> {
    validate(golden.len(), observed.len(), shape)?;
    Ok(compare_mapped(golden, observed, shape, None, |i| {
        shape.coord_of(i)
    }))
}

fn validate(golden: usize, observed: usize, shape: OutputShape) -> Result<(), CoreError> {
    if golden != observed {
        return Err(CoreError::LengthMismatch { golden, observed });
    }
    shape.check_len(golden)?;
    Ok(())
}

/// The one mismatch scan: compares `golden` with `observed` over the
/// flat index ranges of `dirty` (the whole output when `None`) and
/// records each mismatch at `coord(i)` of its flat index `i`, in index
/// order. A SIMD-dispatched scan ([`exec::next_mismatch_f64`]) skips
/// matching runs; the match rule — equal values match, and a NaN
/// matches a NaN (the golden execution legitimately produced an
/// invalid value there) — lives in `exec` so every ISA shares it.
///
/// Nothing is validated: elements past the shorter slice are not
/// compared, and `shape` only labels the report. That lets a kernel
/// report in a logical space whose size is not its output length —
/// LavaMD's `shape` is its box grid, and `coord` maps element `i` to
/// box `i / (4 × particles per box)`.
///
/// # Examples
///
/// ```
/// use radcrit_core::{compare::compare_mapped, shape::OutputShape};
///
/// let golden = [1.0, 2.0, 3.0, 4.0];
/// let observed = [1.0, 2.0, 3.0, 9.0];
/// // Two elements per logical cell: index 3 lands in cell 1.
/// let report = compare_mapped(&golden, &observed, OutputShape::d1(2), None, |i| [i / 2, 0, 0]);
/// assert_eq!(report.mismatches()[0].coord(), [1, 0, 0]);
/// ```
pub fn compare_mapped(
    golden: &[f64],
    observed: &[f64],
    shape: OutputShape,
    dirty: Option<&DirtyRegion>,
    coord: impl Fn(usize) -> Coord,
) -> ErrorReport {
    let len = golden.len().min(observed.len());
    let whole = [(0, len)];
    let ranges = dirty.map_or(&whole[..], DirtyRegion::ranges);
    let mut mismatches = Vec::new();
    for &(start, end) in ranges {
        let end = end.min(len);
        let (golden, observed) = (&golden[..end], &observed[..end]);
        let mut from = start;
        while let Some(mut i) = exec::next_mismatch_f64(golden, observed, from) {
            // Corruption clusters (a box, a line, a block), and each
            // vector scan costs a dispatch: walk the run of mismatches
            // inline and go back to the scan at the next match.
            while i < end && !exec::values_match_f64(golden[i], observed[i]) {
                mismatches.push(Mismatch::new(coord(i), observed[i], golden[i]));
                i += 1;
            }
            from = i;
        }
    }
    ErrorReport::new(shape, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_outputs_produce_empty_report() {
        let data = [1.0, 2.0, 3.0];
        let report = compare_slices(&data, &data, OutputShape::d1(3)).unwrap();
        assert_eq!(report.incorrect_elements(), 0);
        assert!(!report.is_sdc());
    }

    #[test]
    fn every_mismatch_located() {
        let golden = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let observed = [0.0, 9.0, 2.0, 3.0, 8.0, 5.0];
        let report = compare_slices(&golden, &observed, OutputShape::d2(2, 3)).unwrap();
        assert_eq!(report.incorrect_elements(), 2);
        assert_eq!(report.mismatches()[0].coord(), [0, 1, 0]);
        assert_eq!(report.mismatches()[1].coord(), [1, 1, 0]);
    }

    #[test]
    fn length_mismatch_rejected() {
        let err = compare_slices(&[1.0], &[1.0, 2.0], OutputShape::d1(1)).unwrap_err();
        assert_eq!(
            err,
            CoreError::LengthMismatch {
                golden: 1,
                observed: 2
            }
        );
    }

    #[test]
    fn shape_mismatch_rejected() {
        let err = compare_slices(&[1.0, 2.0], &[1.0, 2.0], OutputShape::d1(3)).unwrap_err();
        assert_eq!(
            err,
            CoreError::ShapeMismatch {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn nan_in_both_matches() {
        let golden = [f64::NAN, 1.0];
        let observed = [f64::NAN, 1.0];
        let report = compare_slices(&golden, &observed, OutputShape::d1(2)).unwrap();
        assert_eq!(report.incorrect_elements(), 0);
    }

    #[test]
    fn nan_in_observed_only_is_a_mismatch() {
        let golden = [2.0, 1.0];
        let observed = [f64::NAN, 1.0];
        let report = compare_slices(&golden, &observed, OutputShape::d1(2)).unwrap();
        assert_eq!(report.incorrect_elements(), 1);
        assert!(report.mismatches()[0].relative_error().is_infinite());
    }

    #[test]
    fn sparse_compare_matches_full_compare_on_covering_region() {
        let golden = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let observed = [0.0, 9.0, 2.0, 3.0, 8.0, 5.0];
        let shape = OutputShape::d2(2, 3);
        let full = compare_slices(&golden, &observed, shape).unwrap();
        let dirty = DirtyRegion::from_spans(vec![(0, 6)], 6);
        let sparse = compare_mapped(&golden, &observed, shape, Some(&dirty), |i| {
            shape.coord_of(i)
        });
        assert_eq!(full.mismatches(), sparse.mismatches());
    }

    #[test]
    fn sparse_compare_skips_elements_outside_the_region() {
        let golden = [0.0, 1.0, 2.0, 3.0];
        let observed = [9.0, 1.0, 2.0, 7.0];
        let shape = OutputShape::d1(4);
        let dirty = DirtyRegion::from_spans(vec![(3, 1)], 4);
        let report = compare_mapped(&golden, &observed, shape, Some(&dirty), |i| {
            shape.coord_of(i)
        });
        assert_eq!(report.incorrect_elements(), 1);
        assert_eq!(report.mismatches()[0].coord(), [3, 0, 0]);
    }

    proptest! {
        #[test]
        fn sparse_equals_full_when_region_covers_all_flips(
            golden in proptest::collection::vec(-1e6f64..1e6, 1..64),
            flips in proptest::collection::vec(any::<bool>(), 1..64)) {
            let n = golden.len().min(flips.len());
            let golden = &golden[..n];
            let observed: Vec<f64> = golden.iter().zip(&flips[..n])
                .map(|(&g, &f)| if f { g + 1.0 } else { g })
                .collect();
            let spans: Vec<(usize, usize)> = flips[..n]
                .iter()
                .enumerate()
                .filter(|(_, &f)| f)
                .map(|(i, _)| (i, 1))
                .collect();
            let shape = OutputShape::d1(n);
            let dirty = DirtyRegion::from_spans(spans, n);
            let full = compare_slices(golden, &observed, shape).unwrap();
            let sparse = compare_mapped(golden, &observed, shape, Some(&dirty), |i| shape.coord_of(i));
            prop_assert_eq!(full.mismatches(), sparse.mismatches());
        }

        #[test]
        fn mismatch_count_equals_differing_positions(
            golden in proptest::collection::vec(-1e6f64..1e6, 1..64),
            flips in proptest::collection::vec(any::<bool>(), 1..64)) {
            let n = golden.len().min(flips.len());
            let golden = &golden[..n];
            let observed: Vec<f64> = golden.iter().zip(&flips[..n])
                .map(|(&g, &f)| if f { g + 1.0 } else { g })
                .collect();
            let expected = flips[..n].iter().filter(|&&f| f).count();
            let report = compare_slices(golden, &observed, OutputShape::d1(n)).unwrap();
            prop_assert_eq!(report.incorrect_elements(), expected);
        }

        #[test]
        fn comparison_is_symmetric_in_count(
            a in proptest::collection::vec(-1e6f64..1e6, 1..32),
            b in proptest::collection::vec(-1e6f64..1e6, 1..32)) {
            let n = a.len().min(b.len());
            let shape = OutputShape::d1(n);
            let fwd = compare_slices(&a[..n], &b[..n], shape).unwrap();
            let rev = compare_slices(&b[..n], &a[..n], shape).unwrap();
            prop_assert_eq!(fwd.incorrect_elements(), rev.incorrect_elements());
        }
    }
}
