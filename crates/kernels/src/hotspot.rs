//! HotSpot: iterative 2-D thermal simulation (Rodinia).
//!
//! The paper's Structured Grid representative: at each iteration every
//! cell's temperature is updated from its own temperature, its four
//! neighbours and the local power input (§IV-B). The update is a
//! contraction: any injected perturbation is averaged down each following
//! iteration, which is why the paper finds HotSpot "intrinsically robust"
//! with mean relative errors below 25 % and 80–95 % of faulty runs inside
//! the 2 % tolerance (§V-C).
//!
//! The explicit update per cell is
//!
//! ```text
//! t' = t + cap·(power + cx·(e + w − 2t) + cy·(n + s − 2t) + cz·(amb − t))
//! ```
//!
//! with adiabatic (clamped) borders; `cx + cy < ¼` keeps the explicit
//! scheme stable. State is double-buffered; tiles are row blocks within
//! one iteration.

use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{TileCtx, TileId, TiledProgram};
use radcrit_core::exec;
use radcrit_core::shape::{Coord, OutputShape};

use crate::input::in_range;
use crate::profile::KernelClass;
use crate::Workload;

/// Rows per tile.
pub const BLOCK_ROWS: usize = 8;

/// Thermal coupling east/west.
const CX: f64 = 0.115;
/// Thermal coupling north/south.
const CY: f64 = 0.115;
/// Coupling to the ambient (heat sink). Strong enough that injected
/// perturbations damp out within a few hundred iterations — the
/// "intrinsic robustness" of §V-C.
const CZ: f64 = 0.01;
/// Integration gain (`step / capacitance`).
const CAP: f64 = 1.0;
/// Ambient temperature (°C).
const AMB: f64 = 80.0;

/// The HotSpot thermal stencil on a `rows × cols` grid for `iterations`
/// steps.
#[derive(Debug)]
pub struct HotSpot {
    rows: usize,
    cols: usize,
    iterations: usize,
    seed: u64,
    temp: Vec<f64>,
    power: Vec<f64>,
    buf_a: Option<BufferId>,
    buf_b: Option<BufferId>,
    buf_power: Option<BufferId>,
}

impl HotSpot {
    /// Creates a HotSpot instance with deterministic initial temperatures
    /// (~80–95 °C) and power densities.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] unless `rows` is a positive
    /// multiple of [`BLOCK_ROWS`], `cols > 0` and `iterations > 0`.
    pub fn new(rows: usize, cols: usize, iterations: usize, seed: u64) -> Result<Self, AccelError> {
        if rows == 0 || !rows.is_multiple_of(BLOCK_ROWS) {
            return Err(AccelError::InvalidConfig(format!(
                "rows {rows} must be a positive multiple of {BLOCK_ROWS}"
            )));
        }
        if cols == 0 {
            return Err(AccelError::InvalidConfig("zero columns".into()));
        }
        if iterations == 0 {
            return Err(AccelError::InvalidConfig("zero iterations".into()));
        }
        let n = rows * cols;
        let temp = (0..n)
            .map(|i| in_range(seed, i as u64, 80.0, 95.0))
            .collect();
        let power = (0..n)
            .map(|i| in_range(seed ^ 0x50, i as u64, 0.0, 0.05))
            .collect();
        Ok(HotSpot {
            rows,
            cols,
            iterations,
            seed,
            temp,
            power,
            buf_a: None,
            buf_b: None,
            buf_power: None,
        })
    }

    /// Creates a HotSpot instance from explicit initial temperatures and
    /// power densities (for resuming states or controlled experiments).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] on bad geometry or when the
    /// slices do not hold `rows × cols` elements.
    pub fn with_state(
        rows: usize,
        cols: usize,
        iterations: usize,
        temp: Vec<f64>,
        power: Vec<f64>,
    ) -> Result<Self, AccelError> {
        let mut k = Self::new(rows, cols, iterations, 0)?;
        if temp.len() != rows * cols || power.len() != rows * cols {
            return Err(AccelError::InvalidConfig(format!(
                "state must hold {} elements",
                rows * cols
            )));
        }
        k.temp = temp;
        k.power = power;
        Ok(k)
    }

    /// The initial temperature field.
    pub fn initial_temperatures(&self) -> &[f64] {
        &self.temp
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stencil iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The input seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn tiles_per_step(&self) -> usize {
        self.rows / BLOCK_ROWS
    }

    /// Host-side reference (same arithmetic order as the device kernel).
    pub fn host_reference(&self) -> Vec<f64> {
        let (r, c) = (self.rows, self.cols);
        let mut cur = self.temp.clone();
        let mut next = self.temp.clone();
        for _ in 0..self.iterations {
            for i in 0..r {
                let up = if i == 0 { i } else { i - 1 };
                let dn = if i == r - 1 { i } else { i + 1 };
                for j in 0..c {
                    let lf = if j == 0 { j } else { j - 1 };
                    let rt = if j == c - 1 { j } else { j + 1 };
                    let t = cur[i * c + j];
                    let horiz = CX * (cur[i * c + rt] + cur[i * c + lf] - 2.0 * t);
                    let vert = CY * (cur[up * c + j] + cur[dn * c + j] - 2.0 * t);
                    let sink = CZ * (AMB - t);
                    // Fused like the device FMA (single rounding).
                    next[i * c + j] = CAP.mul_add(self.power[i * c + j] + horiz + vert + sink, t);
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }
}

impl TiledProgram for HotSpot {
    fn name(&self) -> &str {
        "hotspot"
    }

    fn tile_count(&self) -> usize {
        self.tiles_per_step() * self.iterations
    }

    fn tiles_per_launch(&self) -> usize {
        // One stencil iteration = one kernel launch (Table II: #threads =
        // #cells).
        self.tiles_per_step()
    }

    fn threads_per_tile(&self) -> usize {
        // One thread per cell (Table II: #threads = #cells) per tile.
        BLOCK_ROWS * self.cols
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.buf_a = Some(mem.alloc_init("temp_a", &self.temp));
        self.buf_b = Some(mem.alloc_init("temp_b", &self.temp));
        self.buf_power = Some(mem.alloc_init("power", &self.power));
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        // Multiversioned tile body (see `Dgemm::execute_tile`): the
        // stencil arithmetic and halo loads compile as one AVX2+FMA
        // region on hosts that have it, bit-identical to the portable
        // copy.
        #[cfg(target_arch = "x86_64")]
        if exec::active() == exec::Isa::Avx2 {
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            return unsafe { self.tile_avx2(tile, ctx) };
        }
        self.tile_body(tile, ctx)
    }

    fn output(&self) -> BufferId {
        // After an even number of iterations the final state is back in A.
        if self.iterations.is_multiple_of(2) {
            self.buf_a.expect("setup")
        } else {
            self.buf_b.expect("setup")
        }
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d2(self.rows, self.cols)
    }
}

impl HotSpot {
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tile_avx2(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        self.tile_body(tile, ctx)
    }

    #[inline(always)]
    fn tile_body(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        let (r, c) = (self.rows, self.cols);
        let tps = self.tiles_per_step();
        let step = tile.index() / tps;
        let blk = tile.index() % tps;
        let (src, dst) = if step.is_multiple_of(2) {
            (self.buf_a.expect("setup"), self.buf_b.expect("setup"))
        } else {
            (self.buf_b.expect("setup"), self.buf_a.expect("setup"))
        };
        let power = self.buf_power.expect("setup");

        let row0 = blk * BLOCK_ROWS;
        // Load BLOCK_ROWS + 2 halo rows (clamped at grid borders).
        let halo_top = row0.saturating_sub(1);
        let halo_bot = (row0 + BLOCK_ROWS).min(r - 1);
        let span = halo_bot - halo_top + 1;
        let mut rows_in = vec![0.0f64; span * c];
        ctx.load(src, halo_top * c, &mut rows_in)?;
        let mut pw = vec![0.0f64; BLOCK_ROWS * c];
        ctx.load(power, row0 * c, &mut pw)?;

        let at = |i: usize, j: usize, rows_in: &[f64]| rows_in[(i - halo_top) * c + j];

        let mut out = vec![0.0f64; c];
        for bi in 0..BLOCK_ROWS {
            let i = row0 + bi;
            let up = if i == 0 { i } else { i - 1 };
            let dn = if i == r - 1 { i } else { i + 1 };
            for j in 0..c {
                let lf = if j == 0 { j } else { j - 1 };
                let rt = if j == c - 1 { j } else { j + 1 };
                let t = at(i, j, &rows_in);
                let h_lap = ctx.op(at(i, rt, &rows_in) + at(i, lf, &rows_in) - 2.0 * t);
                let horiz = ctx.mul(CX, h_lap);
                let v_lap = ctx.op(at(up, j, &rows_in) + at(dn, j, &rows_in) - 2.0 * t);
                let vert = ctx.mul(CY, v_lap);
                let sink = ctx.mul(CZ, AMB - t);
                let delta = ctx.op(pw[bi * c + j] + horiz + vert + sink);
                out[j] = ctx.fma(CAP, delta, t);
            }
            ctx.store(dst, i * c, &out)?;
        }
        Ok(())
    }
}

impl Workload for HotSpot {
    fn logical_shape(&self) -> OutputShape {
        OutputShape::d2(self.rows, self.cols)
    }

    fn error_coord(&self, idx: usize) -> Coord {
        [idx / self.cols, idx % self.cols, 0]
    }

    fn class(&self) -> KernelClass {
        KernelClass::HOTSPOT
    }

    fn input_label(&self) -> String {
        format!("{}x{}", self.rows, self.cols)
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
    fn rejects_bad_config() {
        assert!(HotSpot::new(0, 8, 4, 1).is_err());
        assert!(HotSpot::new(12, 8, 4, 1).is_err()); // not multiple of 8
        assert!(HotSpot::new(16, 0, 4, 1).is_err());
        assert!(HotSpot::new(16, 8, 0, 1).is_err());
        assert!(HotSpot::new(16, 8, 4, 1).is_ok());
    }

    #[test]
    fn golden_matches_host_reference_bitwise() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        for iters in [1, 2, 5] {
            let mut k = HotSpot::new(16, 16, iters, 3).unwrap();
            let golden = engine.golden(&mut k).unwrap();
            assert_eq!(golden.output, k.host_reference(), "iters={iters}");
        }
    }

    #[test]
    fn temperatures_stay_bounded() {
        // The contraction keeps temperatures near the initial band.
        let k = HotSpot::new(16, 16, 50, 3).unwrap();
        let out = k.host_reference();
        for &t in &out {
            assert!((70.0..110.0).contains(&t), "temperature {t} diverged");
        }
    }

    #[test]
    fn injected_perturbation_dissipates() {
        // §V-C: "errors will eventually dissipate as the result tend to
        // reach an equilibrium". Perturb one cell mid-run and watch the
        // maximum deviation shrink over subsequent iterations.
        let mk = || HotSpot::new(16, 16, 1, 3).unwrap();
        let mut clean = mk().host_reference();
        let mut dirty = clean.clone();
        dirty[8 * 16 + 8] += 10.0;
        // Advance both states manually via fresh kernels seeded with the
        // states (reuse the reference loop by setting temp directly).
        let mut k_clean = mk();
        let mut k_dirty = mk();
        k_clean.temp = clean.clone();
        k_dirty.temp = dirty.clone();
        let mut max_dev = 10.0f64;
        for _ in 0..5 {
            clean = k_clean.host_reference();
            dirty = k_dirty.host_reference();
            let dev = clean
                .iter()
                .zip(&dirty)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(dev < max_dev, "deviation must shrink: {dev} !< {max_dev}");
            max_dev = dev;
            k_clean.temp = clean.clone();
            k_dirty.temp = dirty.clone();
        }
        assert!(max_dev < 5.0, "10-degree spike must halve within 5 iters");
    }

    #[test]
    fn l2_strike_spreads_as_square_with_small_errors() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut k = HotSpot::new(32, 32, 12, 3).unwrap();
        let golden = k.host_reference();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Flip a high mantissa bit early in the run.
        let s = StrikeSpec::new(4, StrikeTarget::L2 { mask: 1 << 51 });
        let out = engine.run(&mut k, &[s], &mut rng, None, None).unwrap();
        assert!(out.strike_delivered);
        let diffs: Vec<usize> = (0..golden.len())
            .filter(|&i| out.output[i] != golden[i])
            .collect();
        if diffs.len() > 4 {
            // The corruption diffused to a 2-D neighbourhood.
            let rows: std::collections::HashSet<_> = diffs.iter().map(|i| i / 32).collect();
            let cols: std::collections::HashSet<_> = diffs.iter().map(|i| i % 32).collect();
            assert!(rows.len() > 1 && cols.len() > 1, "2-D spread expected");
            // And the relative errors are small (contraction).
            let max_rel = diffs
                .iter()
                .map(|&i| ((out.output[i] - golden[i]) / golden[i]).abs() * 100.0)
                .fold(0.0f64, f64::max);
            assert!(max_rel < 50.0, "stencil must attenuate, got {max_rel}%");
        }
    }

    #[test]
    fn thread_count_matches_table_two() {
        let k = HotSpot::new(32, 32, 4, 1).unwrap();
        // #threads = #cells per iteration.
        assert_eq!(k.tiles_per_step() * k.threads_per_tile(), 32 * 32);
    }
}
