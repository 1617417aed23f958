//! DGEMM: dense double-precision matrix multiplication.
//!
//! The paper's representative of Dense Linear Algebra: compute-bound,
//! statically partitioned, regular/coalesced access (Table I), `O(N³)`
//! compute over `O(N²)` space, and the cornerstone of Linpack (§IV-B).
//!
//! The implementation is a blocked `C = A × B` with 16×16 output tiles:
//! each tile streams 16×16 panels of `A` and `B` through the cache
//! hierarchy and accumulates through the instrumented FMA, so that
//!
//! * an L2/L1 strike on a panel of `B` corrupts a (partial) column of `C`
//!   (a *line* error), on `A` a row;
//! * a register/FPU strike corrupts one in-flight partial product (a
//!   *single* error whose relative magnitude is diluted by the remaining
//!   `N − k` accumulations);
//! * a scheduler strike corrupts a whole 16×16 block (*square*).

use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{TileCtx, TileId, TiledProgram};
use radcrit_core::exec;
use radcrit_core::shape::{Coord, OutputShape};

use crate::input::matrix_value;
use crate::profile::KernelClass;
use crate::Workload;

/// Output-tile side length (threads compute 16 elements each, giving the
/// paper's `side² / 16` thread count, Table II).
pub const BLOCK: usize = 16;

/// Blocked dense matrix multiplication `C = A × B` on `N × N` doubles.
///
/// # Examples
///
/// ```
/// use radcrit_accel::{config::DeviceConfig, engine::Engine};
/// use radcrit_kernels::dgemm::Dgemm;
///
/// let engine = Engine::new(DeviceConfig::kepler_k40());
/// let mut kernel = Dgemm::new(32, 1)?;
/// let golden = engine.golden(&mut kernel).map_err(|e| e.to_string())?;
/// assert_eq!(golden.output.len(), 32 * 32);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Dgemm {
    n: usize,
    seed: u64,
    a: Vec<f64>,
    b: Vec<f64>,
    a_buf: Option<BufferId>,
    b_buf: Option<BufferId>,
    c_buf: Option<BufferId>,
}

impl Dgemm {
    /// Creates a DGEMM of side `n` with deterministic inputs derived from
    /// `seed` (§IV-D input rules: bounded values, balanced bits, smaller
    /// inputs are subsets of larger ones).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] unless `n` is a positive
    /// multiple of [`BLOCK`].
    pub fn new(n: usize, seed: u64) -> Result<Self, AccelError> {
        if n == 0 || !n.is_multiple_of(BLOCK) {
            return Err(AccelError::InvalidConfig(format!(
                "DGEMM side {n} must be a positive multiple of {BLOCK}"
            )));
        }
        let mut a = Vec::with_capacity(n * n);
        let mut b = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                a.push(matrix_value(seed, i, j));
                b.push(matrix_value(seed ^ 0xB, i, j));
            }
        }
        Ok(Dgemm {
            n,
            seed,
            a,
            b,
            a_buf: None,
            b_buf: None,
            c_buf: None,
        })
    }

    /// The matrix side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The input seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Host-side reference multiplication, for validating the simulated
    /// golden output in tests. Accumulates in the same blocked order as
    /// the device kernel so results match bit for bit.
    pub fn host_reference(&self) -> Vec<f64> {
        let n = self.n;
        let grid = n / BLOCK;
        let mut c = vec![0.0; n * n];
        for bi in 0..grid {
            for bj in 0..grid {
                let mut acc = [[0.0f64; BLOCK]; BLOCK];
                for kb in 0..grid {
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let i = bi * BLOCK + r;
                        for k in 0..BLOCK {
                            let kk = kb * BLOCK + k;
                            let aval = self.a[i * n + kk];
                            for (cc, slot) in accr.iter_mut().enumerate() {
                                let j = bj * BLOCK + cc;
                                // Fused like the device FMA (single rounding).
                                *slot = aval.mul_add(self.b[kk * n + j], *slot);
                            }
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let i = bi * BLOCK + r;
                    c[i * n + bj * BLOCK..i * n + bj * BLOCK + BLOCK].copy_from_slice(accr);
                }
            }
        }
        c
    }
}

impl TiledProgram for Dgemm {
    fn name(&self) -> &str {
        "dgemm"
    }

    fn tile_count(&self) -> usize {
        let grid = self.n / BLOCK;
        grid * grid
    }

    fn threads_per_tile(&self) -> usize {
        // side²/16 threads in total (Table II): 16 threads per 256-element
        // output tile.
        BLOCK * BLOCK / 16
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.a_buf = Some(mem.alloc_init("A", &self.a));
        self.b_buf = Some(mem.alloc_init("B", &self.b));
        self.c_buf = Some(mem.alloc("C", self.n * self.n));
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        // Multiversioned tile body: on an AVX2 host the whole body —
        // row loads, the `fma_row` inner product, the C store —
        // compiles as one AVX2+FMA region (fused hardware FMAs, the
        // cache way scan and window copies inlined), bit-identical to
        // the portable copy because FMA rounds once on every lowering.
        #[cfg(target_arch = "x86_64")]
        if exec::active() == exec::Isa::Avx2 {
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            return unsafe { self.tile_avx2(tile, ctx) };
        }
        self.tile_body(tile, ctx)
    }

    fn output(&self) -> BufferId {
        self.c_buf.expect("setup ran")
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d2(self.n, self.n)
    }
}

impl Dgemm {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_avx2(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        self.tile_body(tile, ctx)
    }

    #[inline(always)]
    fn tile_body(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        let n = self.n;
        let grid = n / BLOCK;
        let t = tile.index();
        let (bi, bj) = (t / grid, t % grid);
        let a_buf = self.a_buf.expect("setup ran");
        let b_buf = self.b_buf.expect("setup ran");
        let c_buf = self.c_buf.expect("setup ran");

        let mut a_blk = [[0.0f64; BLOCK]; BLOCK];
        let mut b_blk = [[0.0f64; BLOCK]; BLOCK];
        let mut acc = [[0.0f64; BLOCK]; BLOCK];

        for kb in 0..grid {
            // Row r of the A block is A[bi*BLOCK + r][kb*BLOCK ..]; row k
            // of the B block is B[kb*BLOCK + k][bj*BLOCK ..] — both are
            // `n`-strided row sets, loaded in one bulk call each.
            ctx.load_rows(
                a_buf,
                (bi * BLOCK) * n + kb * BLOCK,
                n,
                BLOCK,
                a_blk.as_flattened_mut(),
            )?;
            ctx.load_rows(
                b_buf,
                (kb * BLOCK) * n + bj * BLOCK,
                n,
                BLOCK,
                b_blk.as_flattened_mut(),
            )?;
            ctx.fma_block(&a_blk, &b_blk, &mut acc);
        }

        for (r, accr) in acc.iter().enumerate() {
            let i = bi * BLOCK + r;
            ctx.store(c_buf, i * n + bj * BLOCK, accr)?;
        }
        Ok(())
    }
}

impl Workload for Dgemm {
    fn logical_shape(&self) -> OutputShape {
        OutputShape::d2(self.n, self.n)
    }

    fn error_coord(&self, idx: usize) -> Coord {
        [idx / self.n, idx % self.n, 0]
    }

    fn class(&self) -> KernelClass {
        KernelClass::DGEMM
    }

    fn input_label(&self) -> String {
        format!("{0}x{0}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_accel::config::DeviceConfig;
    use radcrit_accel::engine::Engine;
    use radcrit_accel::strike::{StrikeSpec, StrikeTarget};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rejects_bad_sizes() {
        assert!(Dgemm::new(0, 1).is_err());
        assert!(Dgemm::new(17, 1).is_err());
        assert!(Dgemm::new(32, 1).is_ok());
    }

    #[test]
    fn golden_matches_host_reference_bitwise() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = Dgemm::new(32, 7).unwrap();
        let golden = engine.golden(&mut k).unwrap();
        assert_eq!(golden.output, k.host_reference());
    }

    #[test]
    fn golden_identical_across_devices() {
        // Both devices execute the same arithmetic in the same order.
        let mut k = Dgemm::new(32, 7).unwrap();
        let g1 = Engine::new(DeviceConfig::kepler_k40())
            .golden(&mut k)
            .unwrap();
        let g2 = Engine::new(DeviceConfig::xeon_phi_3120a())
            .golden(&mut k)
            .unwrap();
        assert_eq!(g1.output, g2.output);
    }

    #[test]
    fn small_input_is_subset_of_large() {
        let small = Dgemm::new(16, 3).unwrap();
        let large = Dgemm::new(32, 3).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(small.a[i * 16 + j], large.a[i * 32 + j]);
                assert_eq!(small.b[i * 16 + j], large.b[i * 32 + j]);
            }
        }
    }

    #[test]
    fn thread_count_matches_table_two() {
        let k = Dgemm::new(64, 1).unwrap();
        // side²/16 (Table II).
        assert_eq!(k.total_threads(), 64 * 64 / 16);
    }

    #[test]
    fn fpu_strike_produces_single_diluted_error() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = Dgemm::new(32, 7).unwrap();
        let golden = k.host_reference();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        // Corrupt a low mantissa bit of an early partial product.
        let s = StrikeSpec::new(
            1,
            StrikeTarget::Fpu {
                mask: 1 << 20,
                op_index: 100,
            },
        );
        let out = engine.run(&mut k, &[s], &mut rng, None, None).unwrap();
        let diffs: Vec<usize> = (0..golden.len())
            .filter(|&i| out.output[i] != golden[i])
            .collect();
        assert_eq!(diffs.len(), 1, "one corrupted element");
        let i = diffs[0];
        let rel = ((out.output[i] - golden[i]) / golden[i]).abs() * 100.0;
        assert!(
            rel < 1.0,
            "low mantissa flip diluted by accumulation: {rel}%"
        );
    }

    #[test]
    fn l2_input_strike_produces_partial_line() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = Dgemm::new(32, 7).unwrap();
        let golden = k.host_reference();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 61 });
        let out = engine.run(&mut k, &[s], &mut rng, None, None).unwrap();
        assert!(out.strike_delivered, "tile 0 populated the cache");
        let diffs: Vec<usize> = (0..golden.len())
            .filter(|&i| out.output[i] != golden[i])
            .collect();
        // A corrupted element of A affects (part of) a row of C, of B a
        // column; either way all corrupted elements share one axis value
        // or the strike hit C's own line.
        if diffs.len() > 1 {
            let rows: std::collections::HashSet<_> = diffs.iter().map(|i| i / 32).collect();
            let cols: std::collections::HashSet<_> = diffs.iter().map(|i| i % 32).collect();
            assert!(
                rows.len() == 1 || cols.len() == 1,
                "expected a line pattern, got {} rows x {} cols",
                rows.len(),
                cols.len()
            );
        }
    }

    #[test]
    fn error_coords_are_row_col() {
        let k = Dgemm::new(32, 1).unwrap();
        assert_eq!(k.error_coord(0), [0, 0, 0]);
        assert_eq!(k.error_coord(33), [1, 1, 0]);
        assert_eq!(k.logical_shape(), OutputShape::d2(32, 32));
    }
}
