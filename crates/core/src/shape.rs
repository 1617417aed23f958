//! Output shapes and coordinates.
//!
//! HPC output data is commonly structured as one-, two- or
//! three-dimensional arrays (§III of the paper). [`OutputShape`] describes
//! the logical geometry of a flat output buffer and converts between linear
//! indices and [`Coord`]inates, which the spatial-locality classifier
//! operates on.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// A coordinate in up to three dimensions.
///
/// Unused trailing axes are fixed at `0`, so a 2-D coordinate `(row, col)`
/// is stored as `[row, col, 0]`. This uniform representation lets the
/// locality classifier treat all ranks with the same code path.
pub type Coord = [usize; 3];

/// The logical geometry of a flat output buffer.
///
/// # Examples
///
/// ```
/// use radcrit_core::shape::OutputShape;
///
/// let shape = OutputShape::d2(3, 4);
/// assert_eq!(shape.len(), 12);
/// assert_eq!(shape.coord_of(7), [1, 3, 0]);
/// assert_eq!(shape.index_of([1, 3, 0]), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OutputShape {
    dims: [usize; 3],
    rank: u8,
}

impl OutputShape {
    /// Creates a one-dimensional shape with `n` elements.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn d1(n: usize) -> Self {
        Self::try_d1(n).expect("dimension must be non-zero")
    }

    /// Creates a two-dimensional (`rows × cols`) shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn d2(rows: usize, cols: usize) -> Self {
        Self::try_d2(rows, cols).expect("dimensions must be non-zero")
    }

    /// Creates a three-dimensional (`x × y × z`) shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn d3(x: usize, y: usize, z: usize) -> Self {
        Self::try_d3(x, y, z).expect("dimensions must be non-zero")
    }

    /// Fallible variant of [`OutputShape::d1`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyShape`] if `n` is zero.
    fn try_d1(n: usize) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::EmptyShape);
        }
        Ok(OutputShape {
            dims: [n, 1, 1],
            rank: 1,
        })
    }

    /// Fallible variant of [`OutputShape::d2`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyShape`] if either dimension is zero.
    fn try_d2(rows: usize, cols: usize) -> Result<Self, CoreError> {
        if rows == 0 || cols == 0 {
            return Err(CoreError::EmptyShape);
        }
        Ok(OutputShape {
            dims: [rows, cols, 1],
            rank: 2,
        })
    }

    /// Fallible variant of [`OutputShape::d3`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyShape`] if any dimension is zero.
    fn try_d3(x: usize, y: usize, z: usize) -> Result<Self, CoreError> {
        if x == 0 || y == 0 || z == 0 {
            return Err(CoreError::EmptyShape);
        }
        Ok(OutputShape {
            dims: [x, y, z],
            rank: 3,
        })
    }

    /// The number of logical axes (1, 2 or 3).
    pub fn rank(&self) -> u8 {
        self.rank
    }

    /// The extent of each axis; trailing unused axes report `1`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// The total number of elements described by this shape.
    pub fn len(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Always `false`: shapes are constructed with non-zero dimensions.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Converts a linear index into a coordinate (row-major / C order).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn coord_of(&self, index: usize) -> Coord {
        assert!(
            index < self.len(),
            "index {index} out of bounds for shape of {} elements",
            self.len()
        );
        let plane = self.dims[1] * self.dims[2];
        let x = index / plane;
        let rem = index % plane;
        let y = rem / self.dims[2];
        let z = rem % self.dims[2];
        [x, y, z]
    }

    /// Converts a coordinate into a linear index (row-major / C order).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate lies outside the shape.
    pub fn index_of(&self, coord: Coord) -> usize {
        assert!(
            coord[0] < self.dims[0] && coord[1] < self.dims[1] && coord[2] < self.dims[2],
            "coordinate {coord:?} out of bounds for dims {:?}",
            self.dims
        );
        (coord[0] * self.dims[1] + coord[1]) * self.dims[2] + coord[2]
    }

    /// Validates that `slice_len` matches this shape's volume.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] when the lengths disagree.
    pub fn check_len(&self, slice_len: usize) -> Result<(), CoreError> {
        if slice_len == self.len() {
            Ok(())
        } else {
            Err(CoreError::ShapeMismatch {
                expected: self.len(),
                actual: slice_len,
            })
        }
    }
}

impl std::fmt::Display for OutputShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            1 => write!(f, "{}", self.dims[0]),
            2 => write!(f, "{}x{}", self.dims[0], self.dims[1]),
            _ => write!(f, "{}x{}x{}", self.dims[0], self.dims[1], self.dims[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn d1_roundtrip() {
        let s = OutputShape::d1(10);
        assert_eq!(s.rank(), 1);
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.coord_of(i), [i, 0, 0]);
            assert_eq!(s.index_of([i, 0, 0]), i);
        }
    }

    #[test]
    fn d2_coord_layout_is_row_major() {
        let s = OutputShape::d2(2, 3);
        assert_eq!(s.coord_of(0), [0, 0, 0]);
        assert_eq!(s.coord_of(2), [0, 2, 0]);
        assert_eq!(s.coord_of(3), [1, 0, 0]);
        assert_eq!(s.coord_of(5), [1, 2, 0]);
    }

    #[test]
    fn d3_roundtrip_all() {
        let s = OutputShape::d3(2, 3, 4);
        assert_eq!(s.len(), 24);
        for i in 0..24 {
            assert_eq!(s.index_of(s.coord_of(i)), i);
        }
    }

    #[test]
    fn zero_dims_rejected() {
        assert_eq!(OutputShape::try_d1(0), Err(CoreError::EmptyShape));
        assert_eq!(OutputShape::try_d2(0, 3), Err(CoreError::EmptyShape));
        assert_eq!(OutputShape::try_d2(3, 0), Err(CoreError::EmptyShape));
        assert_eq!(OutputShape::try_d3(1, 0, 1), Err(CoreError::EmptyShape));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn coord_of_out_of_range_panics() {
        OutputShape::d2(2, 2).coord_of(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_of_out_of_range_panics() {
        OutputShape::d2(2, 2).index_of([2, 0, 0]);
    }

    #[test]
    fn check_len_matches() {
        let s = OutputShape::d2(4, 4);
        assert!(s.check_len(16).is_ok());
        assert_eq!(
            s.check_len(15),
            Err(CoreError::ShapeMismatch {
                expected: 16,
                actual: 15
            })
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(OutputShape::d1(8).to_string(), "8");
        assert_eq!(OutputShape::d2(8, 9).to_string(), "8x9");
        assert_eq!(OutputShape::d3(2, 3, 4).to_string(), "2x3x4");
    }

    proptest! {
        #[test]
        fn roundtrip_index_coord(x in 1usize..20, y in 1usize..20, z in 1usize..20,
                                 frac in 0.0f64..1.0) {
            let s = OutputShape::d3(x, y, z);
            let idx = ((s.len() as f64 - 1.0) * frac) as usize;
            prop_assert_eq!(s.index_of(s.coord_of(idx)), idx);
        }

        #[test]
        fn coords_within_dims(x in 1usize..20, y in 1usize..20, z in 1usize..20,
                              frac in 0.0f64..1.0) {
            let s = OutputShape::d3(x, y, z);
            let idx = ((s.len() as f64 - 1.0) * frac) as usize;
            let c = s.coord_of(idx);
            prop_assert!(c[0] < x && c[1] < y && c[2] < z);
        }
    }
}
