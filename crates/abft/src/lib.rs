//! # radcrit-abft
//!
//! Algorithm-Based Fault Tolerance for matrix multiplication after Huang
//! & Abraham, as discussed in §III and §V-A of the criticality paper:
//! checksum rows/columns detect and *correct* single and line errors in
//! linear time, but square and random patterns defeat them. Knowing the
//! spatial locality of radiation-induced errors therefore tells you
//! whether ABFT is worth deploying — the paper estimates that with ABFT,
//! DGEMM "would be affected by only 20 % to 40 % of all errors on K40,
//! and 60 % to 80 % on Xeon Phi".
//!
//! The implementation here is the full checksum scheme on host matrices:
//!
//! * the expected **row-sum vector** `f = A · rowsum(B)` and
//!   **column-sum vector** `e = colsum(A) · B` are computed from the
//!   *inputs*, so they are not themselves affected by an output
//!   corruption;
//! * [`AbftDgemm::check`] compares the corrupted product's row/column
//!   sums against `f`/`e` under a relative tolerance;
//! * single errors are corrected from their row residual, line errors
//!   element-wise from the crossing checksums.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

/// The verdict of one ABFT pass over a (possibly corrupted) product.
#[derive(Debug, Clone, PartialEq)]
pub enum AbftOutcome {
    /// All checksums hold: no (detectable) corruption.
    Clean,
    /// Corruption was located and corrected; the count is the number of
    /// elements repaired.
    Corrected(usize),
    /// Corruption was detected but is not correctable (inconsistent
    /// residual geometry: a square/random pattern).
    DetectedUncorrectable {
        /// Rows whose checksum failed.
        rows: Vec<usize>,
        /// Columns whose checksum failed.
        cols: Vec<usize>,
    },
}

/// Checksum-based fault tolerance for one `n × n` multiplication.
#[derive(Debug, Clone)]
pub struct AbftDgemm {
    n: usize,
    /// Expected row sums of C (`A · rowsum(B)`).
    row_expect: Vec<f64>,
    /// Expected column sums of C (`colsum(A) · B`).
    col_expect: Vec<f64>,
    /// Relative tolerance for checksum comparison (floating-point sums
    /// of `n` products are not exact).
    rel_tol: f64,
}

impl AbftDgemm {
    /// Builds the checker from the *inputs* of `C = A × B` (row-major
    /// `n × n` each).
    ///
    /// # Panics
    ///
    /// Panics if the slices are not `n × n` or `rel_tol` is not positive.
    pub fn from_inputs(a: &[f64], b: &[f64], n: usize, rel_tol: f64) -> Self {
        assert_eq!(a.len(), n * n, "A must be n x n");
        assert_eq!(b.len(), n * n, "B must be n x n");
        assert!(rel_tol > 0.0, "tolerance must be positive");

        // rowsum(B): column vector s with s_k = sum_j b[k][j].
        let mut b_rowsum = vec![0.0f64; n];
        for k in 0..n {
            b_rowsum[k] = b[k * n..(k + 1) * n].iter().sum();
        }
        // f_i = sum_k a[i][k] * s_k = expected row sum of C.
        let mut row_expect = vec![0.0f64; n];
        for (i, slot) in row_expect.iter_mut().enumerate() {
            *slot = (0..n).map(|k| a[i * n + k] * b_rowsum[k]).sum();
        }
        // colsum(A): row vector t with t_k = sum_i a[i][k].
        let mut a_colsum = vec![0.0f64; n];
        for i in 0..n {
            for (k, slot) in a_colsum.iter_mut().enumerate() {
                *slot += a[i * n + k];
            }
        }
        // e_j = sum_k t_k * b[k][j] = expected column sum of C.
        let mut col_expect = vec![0.0f64; n];
        for k in 0..n {
            let t = a_colsum[k];
            for (j, slot) in col_expect.iter_mut().enumerate() {
                *slot += t * b[k * n + j];
            }
        }
        AbftDgemm {
            n,
            row_expect,
            col_expect,
            rel_tol,
        }
    }

    /// The matrix side.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Checks `c` against the checksums; corrects in place when the
    /// residual geometry allows it (single error, or a line along one
    /// row/column).
    ///
    /// # Panics
    ///
    /// Panics if `c` is not `n × n`.
    pub fn check(&self, c: &mut [f64]) -> AbftOutcome {
        assert_eq!(c.len(), self.n * self.n, "C must be n x n");
        let n = self.n;

        let bad_rows: Vec<usize> = (0..n)
            .filter(|&i| {
                let sum: f64 = c[i * n..(i + 1) * n].iter().sum();
                !self.close(sum, self.row_expect[i])
            })
            .collect();
        let bad_cols: Vec<usize> = (0..n)
            .filter(|&j| {
                let sum: f64 = (0..n).map(|i| c[i * n + j]).sum();
                !self.close(sum, self.col_expect[j])
            })
            .collect();

        match (bad_rows.len(), bad_cols.len()) {
            (0, 0) => AbftOutcome::Clean,
            (1, 1) => {
                // Single error at the crossing.
                let (i, j) = (bad_rows[0], bad_cols[0]);
                let sum: f64 = c[i * n..(i + 1) * n].iter().sum();
                c[i * n + j] += self.row_expect[i] - sum;
                AbftOutcome::Corrected(1)
            }
            (1, _) => {
                // A row line: repair each flagged column from its column
                // checksum.
                let i = bad_rows[0];
                for &j in &bad_cols {
                    let sum: f64 = (0..n).map(|r| c[r * n + j]).sum();
                    c[i * n + j] += self.col_expect[j] - sum;
                }
                AbftOutcome::Corrected(bad_cols.len())
            }
            (_, 1) => {
                // A column line: repair each flagged row from its row
                // checksum.
                let j = bad_cols[0];
                for &i in &bad_rows {
                    let sum: f64 = c[i * n..(i + 1) * n].iter().sum();
                    c[i * n + j] += self.row_expect[i] - sum;
                }
                AbftOutcome::Corrected(bad_rows.len())
            }
            // Detected rows without any flagged column (or vice versa)
            // would mean compensating corruptions inside a line — treat
            // as uncorrectable, like multi-row-multi-column patterns.
            _ => AbftOutcome::DetectedUncorrectable {
                rows: bad_rows,
                cols: bad_cols,
            },
        }
    }

    fn close(&self, got: f64, expect: f64) -> bool {
        let scale = expect.abs().max(1.0);
        (got - expect).abs() <= self.rel_tol * scale
    }
}

/// The residual error-rate fraction under ABFT given per-class FIT
/// fractions: everything except single and line errors survives (§V-A).
pub fn residual_fraction(breakdown: &radcrit_core::fit::FitBreakdown) -> f64 {
    1.0 - breakdown.abft_correctable_fraction()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use radcrit_core::fit::{FitBreakdown, FitRate};
    use radcrit_core::locality::SpatialClass;

    const N: usize = 16;
    const TOL: f64 = 1e-9;

    fn inputs() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let a: Vec<f64> = (0..N * N)
            .map(|i| radcrit_kernels::input::unit_value(1, i as u64))
            .collect();
        let b: Vec<f64> = (0..N * N)
            .map(|i| radcrit_kernels::input::unit_value(2, i as u64))
            .collect();
        let mut c = vec![0.0; N * N];
        for i in 0..N {
            for k in 0..N {
                let av = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += av * b[k * N + j];
                }
            }
        }
        (a, b, c)
    }

    #[test]
    fn clean_product_passes() {
        let (a, b, mut c) = inputs();
        let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
        assert_eq!(abft.check(&mut c), AbftOutcome::Clean);
    }

    #[test]
    fn single_error_corrected_exactly() {
        let (a, b, mut c) = inputs();
        let golden = c.clone();
        let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
        c[5 * N + 9] += 123.456;
        assert_eq!(abft.check(&mut c), AbftOutcome::Corrected(1));
        for (i, (&got, &want)) in c.iter().zip(&golden).enumerate() {
            assert!((got - want).abs() < 1e-6, "element {i} not restored");
        }
    }

    #[test]
    fn row_line_error_corrected() {
        let (a, b, mut c) = inputs();
        let golden = c.clone();
        let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
        for j in [2, 7, 11] {
            c[3 * N + j] -= 55.5;
        }
        assert_eq!(abft.check(&mut c), AbftOutcome::Corrected(3));
        for (i, (&got, &want)) in c.iter().zip(&golden).enumerate() {
            assert!((got - want).abs() < 1e-6, "element {i} not restored");
        }
    }

    #[test]
    fn column_line_error_corrected() {
        let (a, b, mut c) = inputs();
        let golden = c.clone();
        let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
        for i in [0, 8, 15] {
            c[i * N + 6] *= 1.5;
        }
        assert_eq!(abft.check(&mut c), AbftOutcome::Corrected(3));
        for (i, (&got, &want)) in c.iter().zip(&golden).enumerate() {
            assert!((got - want).abs() < 1e-5, "element {i} not restored");
        }
    }

    #[test]
    fn square_error_detected_but_uncorrectable() {
        let (a, b, mut c) = inputs();
        let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
        for i in [4, 5] {
            for j in [9, 10] {
                c[i * N + j] += 77.0;
            }
        }
        match abft.check(&mut c) {
            AbftOutcome::DetectedUncorrectable { rows, cols } => {
                assert_eq!(rows, vec![4, 5]);
                assert_eq!(cols, vec![9, 10]);
            }
            other => panic!("expected uncorrectable, got {other:?}"),
        }
    }

    #[test]
    fn tiny_corruption_within_tolerance_is_invisible() {
        // ABFT's practical blind spot: corruption below the checksum
        // tolerance passes as clean (the flip side of FP tolerance).
        let (a, b, mut c) = inputs();
        let abft = AbftDgemm::from_inputs(&a, &b, N, 1e-6);
        c[0] += 1e-10;
        assert_eq!(abft.check(&mut c), AbftOutcome::Clean);
    }

    #[test]
    fn residual_fraction_complements_correctable() {
        let mut b = FitBreakdown::new();
        b.add(SpatialClass::Single, FitRate::from_raw(30.0));
        b.add(SpatialClass::Square, FitRate::from_raw(70.0));
        assert!((residual_fraction(&b) - 0.7).abs() < 1e-12);
    }

    proptest! {
        /// Any single-element corruption of any magnitude above tolerance
        /// is corrected back to the golden value.
        #[test]
        fn prop_single_corrected(i in 0usize..N, j in 0usize..N,
                                 delta in prop::sample::select(
                                     vec![1e-3, 0.5, 3.0, -7.0, 1e6, -1e6])) {
            let (a, b, mut c) = inputs();
            let golden = c.clone();
            let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
            c[i * N + j] += delta;
            prop_assert_eq!(abft.check(&mut c), AbftOutcome::Corrected(1));
            for (k, (&got, &want)) in c.iter().zip(&golden).enumerate() {
                prop_assert!((got - want).abs() < 1e-5, "element {} not restored", k);
            }
        }

        /// Any row-line corruption (distinct columns, one row) is
        /// corrected.
        #[test]
        fn prop_row_line_corrected(row in 0usize..N,
                                   cols in prop::collection::hash_set(0usize..N, 2..6)) {
            let (a, b, mut c) = inputs();
            let golden = c.clone();
            let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
            for &j in &cols {
                c[row * N + j] += 11.0 + j as f64;
            }
            prop_assert_eq!(abft.check(&mut c), AbftOutcome::Corrected(cols.len()));
            for (k, (&got, &want)) in c.iter().zip(&golden).enumerate() {
                prop_assert!((got - want).abs() < 1e-5, "element {} not restored", k);
            }
        }

        /// Any pattern spanning at least two rows and two columns is
        /// never silently mis-corrected: it is reported uncorrectable.
        #[test]
        fn prop_block_uncorrectable(
            r0 in 0usize..N-1, c0 in 0usize..N-1) {
            let (a, b, mut c) = inputs();
            let abft = AbftDgemm::from_inputs(&a, &b, N, TOL);
            for i in [r0, r0 + 1] {
                for j in [c0, c0 + 1] {
                    c[i * N + j] += 42.0;
                }
            }
            match abft.check(&mut c) {
                AbftOutcome::DetectedUncorrectable { rows, cols } => {
                    prop_assert_eq!(rows.len(), 2);
                    prop_assert_eq!(cols.len(), 2);
                }
                other => prop_assert!(false, "expected uncorrectable, got {:?}", other),
            }
        }
    }
}
