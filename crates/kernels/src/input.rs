//! Deterministic input generation following the paper's rules (§IV-D):
//!
//! * values small enough to avoid overflow but big enough to be
//!   representative;
//! * bit patterns balancing the number of 0s and 1s (a hash gives each
//!   mantissa ~50 % set bits on average);
//! * small input sizes are a subset of big input sizes — a value depends
//!   only on its *global* coordinate, never on the array size.

/// SplitMix64: a tiny, high-quality 64-bit mixer used to derive input
/// values from `(seed, index)` pairs.
#[inline]
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic value in `[1, 2)` for `(seed, index)`: the hash fills
/// the mantissa (balanced bits), the exponent is pinned so sums and
/// products of realistic sizes cannot overflow.
#[inline]
pub fn unit_value(seed: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ index.wrapping_mul(0xD134_2543_DE82_EF95));
    // 0x3FF0... is 1.0; OR-ing 52 hash bits into the mantissa yields [1, 2).
    f64::from_bits(0x3FF0_0000_0000_0000 | (h >> 12))
}

/// A deterministic value in `[0, 1)`.
#[inline]
pub fn fraction(seed: u64, index: u64) -> f64 {
    unit_value(seed, index) - 1.0
}

/// A deterministic value in `[lo, hi)`.
#[inline]
pub fn in_range(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    lo + fraction(seed, index) * (hi - lo)
}

/// The global coordinate stride used so that an `N × N` matrix is a
/// sub-matrix of every larger one (`N ≤ GLOBAL_SIDE`).
const GLOBAL_SIDE: u64 = 1 << 13;

/// Matrix element value at global coordinates `(row, col)`: a random
/// mantissa spread over four octaves (`[0.5, 8)`), approximating the
/// paper's balanced-bit inputs, which vary in magnitude while remaining
/// "small enough to avoid overflow but still big enough to be
/// representative" (§IV-D).
#[inline]
pub fn matrix_value(seed: u64, row: usize, col: usize) -> f64 {
    let idx = row as u64 * GLOBAL_SIDE + col as u64;
    let h = splitmix64(seed ^ idx.wrapping_mul(0xA24B_AED4_963E_E407));
    let octave = (h >> 60) as i32 % 4 - 1; // {-1, 0, 1, 2}
    unit_value(seed, idx) * f64::powi(2.0, octave)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_are_deterministic() {
        assert_eq!(unit_value(1, 42), unit_value(1, 42));
        assert_ne!(unit_value(1, 42), unit_value(1, 43));
        assert_ne!(unit_value(1, 42), unit_value(2, 42));
    }

    #[test]
    fn unit_values_in_range() {
        for i in 0..10_000 {
            let v = unit_value(7, i);
            assert!((1.0..2.0).contains(&v), "value {v} out of [1,2)");
        }
    }

    #[test]
    fn fractions_in_range() {
        for i in 0..1_000 {
            let v = fraction(3, i);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn in_range_respects_bounds() {
        for i in 0..1_000 {
            let v = in_range(5, i, 320.0, 340.0);
            assert!((320.0..340.0).contains(&v));
        }
    }

    #[test]
    fn bits_are_balanced() {
        // Average set-bit count of the mantissa should be ~26 of 52.
        let total: u32 = (0..10_000u64)
            .map(|i| (unit_value(11, i).to_bits() & ((1 << 52) - 1)).count_ones())
            .sum();
        let avg = f64::from(total) / 10_000.0;
        assert!((avg - 26.0).abs() < 0.5, "average set bits {avg}");
    }

    #[test]
    fn small_inputs_are_subsets_of_big_inputs() {
        // The value at (row, col) must not depend on the matrix size used.
        for &(r, c) in &[(0usize, 0usize), (5, 9), (100, 1000), (8000, 8100)] {
            let v = matrix_value(1, r, c);
            assert_eq!(v, matrix_value(1, r, c));
            assert!((0.5..8.0).contains(&v), "value {v} outside [0.5, 8)");
        }
        // Distinct coordinates give distinct values (overwhelmingly).
        assert_ne!(matrix_value(1, 3, 4), matrix_value(1, 4, 3));
    }

    #[test]
    fn matrix_values_span_several_octaves() {
        let values: Vec<f64> = (0..1000).map(|i| matrix_value(3, i / 50, i % 50)).collect();
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(0.0f64, f64::max);
        assert!(lo < 1.0, "smallest octave present, got {lo}");
        assert!(hi > 4.0, "largest octave present, got {hi}");
    }
}
