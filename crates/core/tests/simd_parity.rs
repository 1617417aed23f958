//! Property suite pinning every vectorized executor primitive to the
//! [`Scalar`] bit-identity reference.
//!
//! Each test runs the same inputs through the dispatching free function
//! (which uses the best ISA runtime detection found on this host —
//! AVX2 on x86-64, NEON on aarch64) and through [`Scalar`] directly,
//! and asserts the results are identical down to the bit: same indices,
//! same tie-breaking (first match / first minimum), same NaN payloads
//! in written buffers. On a host with no vector unit both sides run the
//! same scalar code and the suite degenerates to a self-check.
//!
//! Inputs deliberately cover the shapes the kernels produce: empty
//! slices, lengths around every vector-width boundary, unaligned heads
//! and tails (slices taken at an odd offset into a larger buffer), and
//! NaNs with distinct payload bits.

use proptest::prelude::*;

use radcrit_core::compare::{compare_mapped, compare_slices};
use radcrit_core::dirty::DirtyRegion;
use radcrit_core::exec::{self, KernelExecutor, Scalar};
use radcrit_core::shape::OutputShape;

/// f64 entropy that actually exercises the match rule: ordinary values
/// from a small set (so equal pairs are common), signed zeros, infs,
/// and NaNs with different payloads (which must compare as matching).
fn tricky_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-4i32..5).prop_map(f64::from),
        any::<u32>().prop_map(|b| f64::from_bits(0x7ff8_0000_0000_0000 | u64::from(b))),
        any::<u32>().prop_map(|b| f64::from_bits(0xfff8_0000_0000_0000 | u64::from(b))),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        any::<u32>().prop_map(|b| f64::from(b) * 1.5e-3),
    ]
}

/// Pairs of nearly-identical buffers: `observed` starts as a copy of
/// `golden` and gets a few elements flipped, mirroring how injection
/// outputs differ from the golden output in a handful of places.
fn mismatch_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, usize)> {
    (
        prop::collection::vec(tricky_f64(), 0..97),
        prop::collection::vec((0usize..10_000, tricky_f64()), 0..5),
        0usize..10_000,
    )
        .prop_map(|(golden, flips, from)| {
            let mut observed = golden.clone();
            for (idx, v) in flips {
                if !observed.is_empty() {
                    let i = idx % observed.len();
                    observed[i] = v;
                }
            }
            let from = from % (golden.len() + 1);
            (golden, observed, from)
        })
}

proptest! {
    /// Way-scan: first index of the needle, or None — identical over
    /// random haystacks, including ones where the needle repeats.
    #[test]
    fn find_u64_matches_scalar(
        haystack in prop::collection::vec(0u64..16, 0..67),
        needle in 0u64..16,
        off in 0usize..8,
    ) {
        let tail = &haystack[off.min(haystack.len())..];
        prop_assert_eq!(exec::find_u64(tail, needle), Scalar::find_u64(tail, needle));
    }

    /// LRU victim scan: first minimum index, with duplicate minima
    /// resolving to the lowest index on both sides.
    #[test]
    fn min_index_u64_matches_scalar(
        vals in prop::collection::vec(0u64..32, 1..67),
        off in 0usize..8,
    ) {
        let tail = &vals[off.min(vals.len() - 1)..];
        prop_assert_eq!(exec::min_index_u64(tail), Scalar::min_index_u64(tail));
    }

    /// Sparse compare scan: first index past `from` where golden and
    /// observed disagree (NaN matches NaN regardless of payload).
    #[test]
    fn next_mismatch_f64_matches_scalar((golden, observed, from) in mismatch_pair()) {
        prop_assert_eq!(
            exec::next_mismatch_f64(&golden, &observed, from),
            Scalar::next_mismatch_f64(&golden, &observed, from)
        );
    }

    /// Bulk copy (snapshot delta capture/apply): byte-identical
    /// destination, NaN payloads included, at unaligned offsets.
    #[test]
    fn copy_f64_matches_scalar(
        src in prop::collection::vec(tricky_f64(), 0..97),
        off in 0usize..8,
    ) {
        let tail = &src[off.min(src.len())..];
        let mut vec_dst = vec![0.0f64; tail.len()];
        let mut ref_dst = vec![0.0f64; tail.len()];
        exec::copy_f64(tail, &mut vec_dst);
        Scalar::copy_f64(tail, &mut ref_dst);
        let vec_bits: Vec<u64> = vec_dst.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u64> = ref_dst.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(vec_bits, ref_bits);
    }

    /// Dirty-span clamp: same surviving spans in the same order, with
    /// saturating ends, over spans that may be empty or out of range.
    #[test]
    fn clamp_spans_matches_scalar(
        spans in prop::collection::vec((0usize..300, 0usize..40), 0..33),
        len in 0usize..256,
    ) {
        let mut vec_out = Vec::new();
        let mut ref_out = Vec::new();
        exec::clamp_spans(&spans, len, &mut vec_out);
        Scalar::clamp_spans(&spans, len, &mut ref_out);
        prop_assert_eq!(vec_out, ref_out);
    }

    /// End-to-end: the error reports built by the dispatched compares
    /// equal the ones built with dispatch pinned to scalar — the
    /// shape-checked entry and the coordinate-mapped one the campaign
    /// runner uses, under a LavaMD-like `i / k` cell map, dense and
    /// over a dirty range.
    #[test]
    fn compare_slices_report_is_isa_invariant(
        (golden, observed, from) in mismatch_pair(),
        k in 1usize..5,
    ) {
        prop_assume!(!golden.is_empty());
        let len = golden.len();
        let shape = OutputShape::d1(len);
        let cells = OutputShape::d1(len.div_ceil(k));
        let dirty = DirtyRegion::from_spans(vec![(from, len - from)], len);
        let reports = || {
            let full = compare_slices(&golden, &observed, shape).unwrap();
            let mapped = |d| compare_mapped(&golden, &observed, cells, d, |i| [i / k, 0, 0]);
            format!("{full:?} {:?} {:?}", mapped(None), mapped(Some(&dirty)))
        };
        let vectored = reports();
        let pinned = {
            let _g = exec::scalar_scope();
            reports()
        };
        prop_assert_eq!(vectored, pinned);
    }

    /// End-to-end: the dirty-region union (clamp + sort + merge) is
    /// ISA-invariant.
    #[test]
    fn dirty_region_is_isa_invariant(
        spans in prop::collection::vec((0usize..300, 0usize..40), 0..33),
        len in 0usize..256,
    ) {
        let vectored = DirtyRegion::from_spans(spans.clone(), len);
        let pinned = {
            let _g = exec::scalar_scope();
            DirtyRegion::from_spans(spans, len)
        };
        prop_assert_eq!(format!("{vectored:?}"), format!("{pinned:?}"));
    }
}
