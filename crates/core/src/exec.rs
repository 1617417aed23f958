//! SIMD execution core with runtime ISA dispatch.
//!
//! The simulator's hottest loops — the set-associative cache way-scan,
//! the NaN-aware golden-vs-observed mismatch scan, the dirty-span
//! clamp and snapshot delta copies — are expressed once as
//! [`KernelExecutor`] primitives with three implementations:
//!
//! * [`Scalar`] — the bit-identity reference. Plain loops, no
//!   target-feature requirements, runs everywhere.
//! * [`Avx2`] — x86-64 AVX2 intrinsics, selected at runtime when
//!   `is_x86_feature_detected!` reports AVX2 and FMA.
//! * `Neon` — aarch64 NEON (always available on aarch64).
//!
//! The active ISA is detected **once** per process and cached; every
//! dispatching free function (e.g. [`find_u64`], [`next_mismatch_f64`])
//! branches on that cached value. Correctness never depends on the
//! choice: each vectorized primitive is required to produce results
//! byte-identical to [`Scalar`] on every input (asserted by the
//! property suite in `tests/simd_parity.rs`), so outputs, event
//! streams and campaign summaries are the same for a fixed seed no
//! matter which ISA executed them. Only the wall-clock differs.
//!
//! # Forcing the scalar reference
//!
//! Two pins, one per scope:
//!
//! 1. `RADCRIT_FORCE_SCALAR` environment variable (any value except
//!    `0`/empty) — pins detection itself to [`Isa::Scalar`] for the
//!    whole process (a CLI run, a daemon and every job it serves).
//! 2. [`scalar_scope`] — an RAII guard for tests that compare the two
//!    executors inside one process. Guards nest; the scalar override
//!    holds while at least one is alive. The override is process-wide,
//!    not thread-local — safe, because ISA choice never changes bytes,
//!    only speed.

use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};

/// Instruction-set architecture a [`KernelExecutor`] implementation
/// targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// Portable scalar loops — the bit-identity reference.
    Scalar,
    /// x86-64 AVX2 + FMA (runtime-detected).
    Avx2,
    /// aarch64 Advanced SIMD (baseline on aarch64).
    Neon,
}

impl Isa {
    /// Stable lower-case name used in logs, metrics labels and bench
    /// rows (`"scalar"`, `"avx2"`, `"neon"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Neon => "neon",
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Number of live [`ScalarGuard`]s.
static SCALAR_OVERRIDES: AtomicUsize = AtomicUsize::new(0);

/// Cached detection result: 0 = not yet detected, else `Isa` + 1.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// The best ISA this host supports, or [`Isa::Scalar`] when
/// `RADCRIT_FORCE_SCALAR` pins it.
fn detect() -> Isa {
    if std::env::var("RADCRIT_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
        return Isa::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Isa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Isa::Neon;
    }
    #[allow(unreachable_code)]
    Isa::Scalar
}

#[cold]
fn detect_and_store() -> Isa {
    let isa = detect();
    let code = match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
        Isa::Neon => 3,
    };
    DETECTED.store(code, Ordering::Relaxed);
    isa
}

/// The ISA the dispatching free functions will use *right now*:
/// [`Isa::Scalar`] while a [`ScalarGuard`] is alive, else the ISA
/// detected for this process.
#[inline(always)]
#[must_use]
pub fn active() -> Isa {
    if SCALAR_OVERRIDES.load(Ordering::Relaxed) > 0 {
        return Isa::Scalar;
    }
    match DETECTED.load(Ordering::Relaxed) {
        1 => Isa::Scalar,
        2 => Isa::Avx2,
        3 => Isa::Neon,
        _ => detect_and_store(),
    }
}

/// RAII override that pins dispatch to [`Isa::Scalar`] while alive.
///
/// Returned by [`scalar_scope`]; guards nest and may be held across
/// threads (the override is process-wide).
#[derive(Debug)]
pub struct ScalarGuard(());

impl Drop for ScalarGuard {
    fn drop(&mut self) {
        SCALAR_OVERRIDES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Pins dispatch to the scalar reference until the returned guard
/// drops.
#[must_use]
pub fn scalar_scope() -> ScalarGuard {
    SCALAR_OVERRIDES.fetch_add(1, Ordering::Relaxed);
    ScalarGuard(())
}

// ---------------------------------------------------------------------
// The executor trait and its dispatching free functions
// ---------------------------------------------------------------------

/// The SIMD primitives every ISA backend implements.
///
/// Each method must be **bit-identical** to the [`Scalar`]
/// implementation on every input: same return values, same memory
/// contents, including NaN payloads and tie-breaking (first match,
/// first minimum). `tests/simd_parity.rs` asserts this property.
pub trait KernelExecutor {
    /// The ISA this backend targets.
    const ISA: Isa;

    /// Index of the first element equal to `needle` (cache way-scan /
    /// flip-table line lookup).
    fn find_u64(haystack: &[u64], needle: u64) -> Option<usize>;

    /// Index of the first minimum element (LRU victim scan).
    ///
    /// # Panics
    ///
    /// Panics when `vals` is empty.
    fn min_index_u64(vals: &[u64]) -> usize;

    /// First index `>= from` where `golden[i]` and `observed[i]` do
    /// not match under the comparison rule of
    /// [`crate::compare::compare_slices`]: equal values match, and a
    /// NaN matches a NaN.
    fn next_mismatch_f64(golden: &[f64], observed: &[f64], from: usize) -> Option<usize>;

    /// Copies `src` into `dst` (snapshot delta capture/apply, fork
    /// restore).
    ///
    /// # Panics
    ///
    /// Panics when the lengths differ.
    fn copy_f64(src: &[f64], dst: &mut [f64]);

    /// The clamp half of the dirty-span union: appends each span with
    /// `n > 0 && start < len` to `out` as `(start, min(start + n, len))`
    /// (saturating add), preserving input order. Sorting and merging
    /// stay scalar in [`crate::dirty::DirtyRegion::from_spans`].
    fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>);
}

macro_rules! dispatch {
    ($method:ident ( $($arg:expr),* )) => {
        match active() {
            Isa::Scalar => Scalar::$method($($arg),*),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => Avx2::$method($($arg),*),
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => Neon::$method($($arg),*),
            #[allow(unreachable_patterns)]
            _ => Scalar::$method($($arg),*),
        }
    };
}

/// [`KernelExecutor::find_u64`] on the active ISA.
#[inline]
#[must_use]
pub fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
    dispatch!(find_u64(haystack, needle))
}

/// [`KernelExecutor::min_index_u64`] on the active ISA.
///
/// # Panics
///
/// Panics when `vals` is empty.
#[inline]
#[must_use]
pub fn min_index_u64(vals: &[u64]) -> usize {
    dispatch!(min_index_u64(vals))
}

/// [`KernelExecutor::next_mismatch_f64`] on the active ISA.
#[inline]
#[must_use]
pub fn next_mismatch_f64(golden: &[f64], observed: &[f64], from: usize) -> Option<usize> {
    dispatch!(next_mismatch_f64(golden, observed, from))
}

/// [`KernelExecutor::copy_f64`] on the active ISA.
///
/// # Panics
///
/// Panics when the lengths differ.
#[inline]
pub fn copy_f64(src: &[f64], dst: &mut [f64]) {
    dispatch!(copy_f64(src, dst))
}

/// [`KernelExecutor::clamp_spans`] on the active ISA.
#[inline]
pub fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>) {
    dispatch!(clamp_spans(spans, len, out))
}

// ---------------------------------------------------------------------
// Scalar: the bit-identity reference
// ---------------------------------------------------------------------

/// Portable scalar reference implementation — the semantics every
/// vectorized backend must reproduce bit-for-bit.
#[derive(Debug, Clone, Copy)]
pub struct Scalar;

/// The shared match rule: equal values match, and a NaN matches a NaN
/// (the golden run legitimately produced an invalid value there).
#[inline(always)]
pub(crate) fn values_match_f64(golden: f64, observed: f64) -> bool {
    (golden == observed) || (golden.is_nan() && observed.is_nan())
}

impl KernelExecutor for Scalar {
    const ISA: Isa = Isa::Scalar;

    #[inline]
    fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
        haystack.iter().position(|&v| v == needle)
    }

    #[inline]
    fn min_index_u64(vals: &[u64]) -> usize {
        assert!(!vals.is_empty(), "min_index_u64 on empty slice");
        let mut best = 0;
        for (i, &v) in vals.iter().enumerate().skip(1) {
            if v < vals[best] {
                best = i;
            }
        }
        best
    }

    #[inline]
    fn next_mismatch_f64(golden: &[f64], observed: &[f64], from: usize) -> Option<usize> {
        let n = golden.len().min(observed.len());
        (from..n).find(|&i| !values_match_f64(golden[i], observed[i]))
    }

    #[inline]
    fn copy_f64(src: &[f64], dst: &mut [f64]) {
        dst.copy_from_slice(src);
    }

    #[inline]
    fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>) {
        for &(start, n) in spans {
            if n > 0 && start < len {
                out.push((start, start.saturating_add(n).min(len)));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Avx2: x86-64 AVX2 + FMA
// ---------------------------------------------------------------------

/// AVX2 + FMA backend (x86-64, runtime-detected).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    pub unsafe fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
        let n = haystack.len();
        let ptr = haystack.as_ptr();
        let vn = _mm256_set1_epi64x(needle as i64);
        let mut i = 0;
        while i + 4 <= n {
            let v = _mm256_loadu_si256(ptr.add(i).cast());
            let eq = _mm256_cmpeq_epi64(v, vn);
            let m = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
            if m != 0 {
                return Some(i + m.trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < n {
            if *haystack.get_unchecked(i) == needle {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min_index_u64(vals: &[u64]) -> usize {
        let n = vals.len();
        assert!(n > 0, "min_index_u64 on empty slice");
        if n <= 8 {
            // Short scans (a 4-way L1 LRU victim pick, the hot case)
            // lose to three scalar compares once the vector path's
            // spill + re-scan epilogue is counted.
            return super::Scalar_min_index(vals);
        }
        let ptr = vals.as_ptr();
        // Unsigned min via the sign-flip trick: XOR the sign bit so
        // signed 64-bit compares order the flipped values like the
        // unsigned originals.
        let sign = _mm256_set1_epi64x(i64::MIN);
        let mut vmin = _mm256_xor_si256(_mm256_loadu_si256(ptr.cast()), sign);
        let mut i = 4;
        while i + 4 <= n {
            let v = _mm256_xor_si256(_mm256_loadu_si256(ptr.add(i).cast()), sign);
            // Keep the lane-wise smaller of (vmin, v).
            let gt = _mm256_cmpgt_epi64(vmin, v);
            vmin = _mm256_blendv_epi8(vmin, v, gt);
            i += 4;
        }
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast(), vmin);
        let mut min = lanes
            .iter()
            .map(|&l| l ^ (i64::MIN as u64))
            .min()
            .unwrap_or(u64::MAX);
        while i < n {
            let v = *vals.get_unchecked(i);
            if v < min {
                min = v;
            }
            i += 1;
        }
        // First index holding the minimum — reproduces the scalar
        // first-tie choice exactly.
        find_u64(vals, min).unwrap_or(0)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn next_mismatch_f64(
        golden: &[f64],
        observed: &[f64],
        from: usize,
    ) -> Option<usize> {
        let n = golden.len().min(observed.len());
        let (gp, op) = (golden.as_ptr(), observed.as_ptr());
        let mut i = from;
        while i + 4 <= n {
            let g = _mm256_loadu_pd(gp.add(i));
            let o = _mm256_loadu_pd(op.add(i));
            let eq = _mm256_cmp_pd::<_CMP_EQ_OQ>(g, o);
            let g_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(g, g);
            let o_nan = _mm256_cmp_pd::<_CMP_UNORD_Q>(o, o);
            let ok = _mm256_or_pd(eq, _mm256_and_pd(g_nan, o_nan));
            let m = _mm256_movemask_pd(ok);
            if m != 0xF {
                return Some(i + (!m & 0xF).trailing_zeros() as usize);
            }
            i += 4;
        }
        while i < n {
            let (g, o) = (*golden.get_unchecked(i), *observed.get_unchecked(i));
            if !super::values_match_f64(g, o) {
                return Some(i);
            }
            i += 1;
        }
        None
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn copy_f64(src: &[f64], dst: &mut [f64]) {
        assert_eq!(src.len(), dst.len(), "copy_f64 length mismatch");
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let mut i = 0;
        while i + 16 <= n {
            let v0 = _mm256_loadu_pd(sp.add(i));
            let v1 = _mm256_loadu_pd(sp.add(i + 4));
            let v2 = _mm256_loadu_pd(sp.add(i + 8));
            let v3 = _mm256_loadu_pd(sp.add(i + 12));
            _mm256_storeu_pd(dp.add(i), v0);
            _mm256_storeu_pd(dp.add(i + 4), v1);
            _mm256_storeu_pd(dp.add(i + 8), v2);
            _mm256_storeu_pd(dp.add(i + 12), v3);
            i += 16;
        }
        while i + 4 <= n {
            _mm256_storeu_pd(dp.add(i), _mm256_loadu_pd(sp.add(i)));
            i += 4;
        }
        while i < n {
            *dst.get_unchecked_mut(i) = *src.get_unchecked(i);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>) {
        // (usize, usize) pairs are two contiguous u64 lanes, so one
        // 256-bit vector holds two spans as [start0, n0, start1, n1].
        let n = spans.len();
        out.reserve(n);
        let ptr = spans.as_ptr().cast::<u64>();
        let sign = _mm256_set1_epi64x(i64::MIN);
        let vlen = _mm256_set1_epi64x(len as i64);
        let vlen_f = _mm256_xor_si256(vlen, sign);
        let mut i = 0;
        while i + 2 <= n {
            let v = _mm256_loadu_si256(ptr.add(i * 2).cast());
            // end = start + n, saturating: detect unsigned overflow by
            // (end ^ sign) < (start ^ sign) and substitute u64::MAX.
            let starts = v;
            let ends = _mm256_add_epi64(starts, _mm256_srli_si256::<8>(v));
            // lanes: [start0, ?, start1, ?] + [n0, 0, n1, 0] — only the
            // even lanes carry a meaningful end; odd lanes are ignored.
            let of =
                _mm256_cmpgt_epi64(_mm256_xor_si256(starts, sign), _mm256_xor_si256(ends, sign));
            let ends = _mm256_or_si256(ends, of);
            // end = min(end, len) via flipped signed compare.
            let gt_len = _mm256_cmpgt_epi64(_mm256_xor_si256(ends, sign), vlen_f);
            let ends = _mm256_blendv_epi8(ends, vlen, gt_len);
            let mut s = [0u64; 4];
            let mut e = [0u64; 4];
            _mm256_storeu_si256(s.as_mut_ptr().cast(), starts);
            _mm256_storeu_si256(e.as_mut_ptr().cast(), ends);
            for lane in [0usize, 2] {
                let (start, span_n) = (s[lane] as usize, s[lane + 1] as usize);
                if span_n > 0 && start < len {
                    out.push((start, e[lane] as usize));
                }
            }
            i += 2;
        }
        while i < n {
            let (start, span_n) = *spans.get_unchecked(i);
            if span_n > 0 && start < len {
                out.push((start, start.saturating_add(span_n).min(len)));
            }
            i += 1;
        }
    }
}

// Free-function alias so the AVX2 module can borrow the scalar
// reference for short slices without trait syntax noise.
#[cfg(target_arch = "x86_64")]
#[allow(non_snake_case)]
fn Scalar_min_index(vals: &[u64]) -> usize {
    <Scalar as KernelExecutor>::min_index_u64(vals)
}

#[cfg(target_arch = "x86_64")]
impl KernelExecutor for Avx2 {
    const ISA: Isa = Isa::Avx2;

    #[inline]
    fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
        // Safety: constructed only after `is_x86_feature_detected!`
        // confirmed AVX2 (+FMA) — see `detect`.
        unsafe { avx2::find_u64(haystack, needle) }
    }

    #[inline]
    fn min_index_u64(vals: &[u64]) -> usize {
        unsafe { avx2::min_index_u64(vals) }
    }

    #[inline]
    fn next_mismatch_f64(golden: &[f64], observed: &[f64], from: usize) -> Option<usize> {
        unsafe { avx2::next_mismatch_f64(golden, observed, from) }
    }

    #[inline]
    fn copy_f64(src: &[f64], dst: &mut [f64]) {
        unsafe { avx2::copy_f64(src, dst) }
    }

    #[inline]
    fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>) {
        unsafe { avx2::clamp_spans(spans, len, out) }
    }
}

// ---------------------------------------------------------------------
// Neon: aarch64 Advanced SIMD
// ---------------------------------------------------------------------

/// NEON backend (aarch64 baseline — no runtime detection needed).
#[cfg(target_arch = "aarch64")]
#[derive(Debug, Clone, Copy)]
pub struct Neon;

#[cfg(target_arch = "aarch64")]
impl KernelExecutor for Neon {
    const ISA: Isa = Isa::Neon;

    #[inline]
    fn find_u64(haystack: &[u64], needle: u64) -> Option<usize> {
        use std::arch::aarch64::*;
        let n = haystack.len();
        let ptr = haystack.as_ptr();
        // Safety: NEON is baseline on aarch64.
        unsafe {
            let vn = vdupq_n_u64(needle);
            let mut i = 0;
            while i + 2 <= n {
                let eq = vceqq_u64(vld1q_u64(ptr.add(i)), vn);
                if vgetq_lane_u64::<0>(eq) != 0 {
                    return Some(i);
                }
                if vgetq_lane_u64::<1>(eq) != 0 {
                    return Some(i + 1);
                }
                i += 2;
            }
            while i < n {
                if *haystack.get_unchecked(i) == needle {
                    return Some(i);
                }
                i += 1;
            }
        }
        None
    }

    #[inline]
    fn min_index_u64(vals: &[u64]) -> usize {
        // NEON has no unsigned 64-bit min; the scalar scan is already
        // optimal for the short LRU arrays this serves.
        <Scalar as KernelExecutor>::min_index_u64(vals)
    }

    #[inline]
    fn next_mismatch_f64(golden: &[f64], observed: &[f64], from: usize) -> Option<usize> {
        use std::arch::aarch64::*;
        let n = golden.len().min(observed.len());
        let (gp, op) = (golden.as_ptr(), observed.as_ptr());
        unsafe {
            let mut i = from;
            while i + 2 <= n {
                let g = vld1q_f64(gp.add(i));
                let o = vld1q_f64(op.add(i));
                let eq = vceqq_f64(g, o);
                let g_nan = vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(g, g)));
                let o_nan = vmvnq_u32(vreinterpretq_u32_u64(vceqq_f64(o, o)));
                let both_nan = vreinterpretq_u64_u32(vandq_u32(g_nan, o_nan));
                let ok = vorrq_u64(eq, both_nan);
                if vgetq_lane_u64::<0>(ok) == 0 {
                    return Some(i);
                }
                if vgetq_lane_u64::<1>(ok) == 0 {
                    return Some(i + 1);
                }
                i += 2;
            }
            while i < n {
                let (g, o) = (*golden.get_unchecked(i), *observed.get_unchecked(i));
                if !values_match_f64(g, o) {
                    return Some(i);
                }
                i += 1;
            }
        }
        None
    }

    #[inline]
    fn copy_f64(src: &[f64], dst: &mut [f64]) {
        dst.copy_from_slice(src);
    }

    #[inline]
    fn clamp_spans(spans: &[(usize, usize)], len: usize, out: &mut Vec<(usize, usize)>) {
        <Scalar as KernelExecutor>::clamp_spans(spans, len, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(Isa::Scalar.name(), "scalar");
        assert_eq!(Isa::Avx2.name(), "avx2");
        assert_eq!(Isa::Neon.name(), "neon");
        assert_eq!(Isa::Avx2.to_string(), "avx2");
    }

    #[test]
    fn scalar_scope_pins_and_releases() {
        let before = active();
        {
            let _g = scalar_scope();
            assert_eq!(active(), Isa::Scalar);
            {
                let _inner = scalar_scope();
                assert_eq!(active(), Isa::Scalar);
            }
            assert_eq!(active(), Isa::Scalar, "guards must nest");
        }
        assert_eq!(active(), before);
    }

    #[test]
    fn scalar_find_and_min() {
        assert_eq!(Scalar::find_u64(&[3, 1, 3], 3), Some(0));
        assert_eq!(Scalar::find_u64(&[], 3), None);
        assert_eq!(Scalar::min_index_u64(&[5, 2, 2, 7]), 1, "first tie wins");
    }

    #[test]
    fn scalar_mismatch_scan_handles_nan_rule() {
        let g = [1.0, f64::NAN, 3.0];
        let o = [1.0, f64::NAN, 4.0];
        assert_eq!(Scalar::next_mismatch_f64(&g, &o, 0), Some(2));
        assert_eq!(Scalar::next_mismatch_f64(&g, &o, 3), None);
    }

    #[test]
    fn scalar_clamp_spans_matches_doc_rule() {
        let mut out = Vec::new();
        Scalar::clamp_spans(
            &[(0, 4), (5, 0), (60, 10), (70, 4), (usize::MAX, 1)],
            64,
            &mut out,
        );
        assert_eq!(out, vec![(0, 4), (60, 64)]);
    }
}
