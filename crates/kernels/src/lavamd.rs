//! LavaMD: particle potentials and forces over a 3-D box grid.
//!
//! The paper's N-Body / Finite-Difference-Methods representative
//! (Rodinia mini-app): a large 3-D space is divided into boxes assigned to
//! thread blocks; each particle interacts with every particle in the home
//! box and its up to 26 neighbours (§IV-B). The inner kernel follows the
//! Rodinia formulation:
//!
//! ```text
//! r2  = rA.v + rB.v − rA·rB
//! u2  = a2 · r2
//! vij = exp(−u2)             ← the exponentiation that "can turn small
//! fs  = 2 · vij                 value variations into large differences"
//! d   = rA − rB                 (§V-B)
//! fA.v += qB · vij ;  fA.{x,y,z} += qB · fs · d.{x,y,z}
//! ```
//!
//! Border boxes have fewer neighbours, producing the load imbalance of
//! Table I. The per-box output (4 values per particle) lives in a flat
//! buffer; the *logical* geometry for spatial locality is the box grid
//! itself, which is where the paper's cubic/square patterns appear.

use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{self, Clean, Lane, TileBody, TileCtx, TileId, TiledProgram};
use radcrit_core::shape::{Coord, OutputShape};

use crate::input::fraction;
use crate::profile::KernelClass;
use crate::Workload;

/// Maximum particles per box the implementation supports (bounds local
/// scratch arrays).
const MAX_PARTICLES: usize = 192;

/// LavaMD over a `grid³` box space with `particles` particles per box.
///
/// The paper runs 100 particles per box on the Xeon Phi and 192 on the
/// K40 ("selected to best fit the hardware", §IV-C); campaign presets
/// scale these down proportionally.
#[derive(Debug)]
pub struct LavaMd {
    grid: usize,
    particles: usize,
    seed: u64,
    alpha: f64,
    rv: Vec<f64>,
    qv: Vec<f64>,
    rv_buf: Option<BufferId>,
    qv_buf: Option<BufferId>,
    fv_buf: Option<BufferId>,
}

impl LavaMd {
    /// Creates a LavaMD instance.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when `grid` is zero or
    /// `particles` is zero or exceeds 192 (`MAX_PARTICLES`).
    pub fn new(grid: usize, particles: usize, seed: u64) -> Result<Self, AccelError> {
        if grid == 0 {
            return Err(AccelError::InvalidConfig("zero LavaMD grid".into()));
        }
        if particles == 0 || particles > MAX_PARTICLES {
            return Err(AccelError::InvalidConfig(format!(
                "particles per box must be in 1..={MAX_PARTICLES}, got {particles}"
            )));
        }
        let boxes = grid * grid * grid;
        let mut rv = Vec::with_capacity(boxes * particles * 4);
        let mut qv = Vec::with_capacity(boxes * particles);
        for p in 0..boxes * particles {
            let idx = p as u64;
            // Rodinia initializes all four rv components and the charge
            // with uniform randoms in (0, 1].
            rv.push(fraction(seed, idx * 5) + 0.1); // v
            rv.push(fraction(seed, idx * 5 + 1)); // x
            rv.push(fraction(seed, idx * 5 + 2)); // y
            rv.push(fraction(seed, idx * 5 + 3)); // z
            qv.push(fraction(seed, idx * 5 + 4) + 0.1);
        }
        Ok(LavaMd {
            grid,
            particles,
            seed,
            alpha: 0.5,
            rv,
            qv,
            rv_buf: None,
            qv_buf: None,
            fv_buf: None,
        })
    }

    /// The box-grid side length.
    pub fn grid(&self) -> usize {
        self.grid
    }

    /// Particles per box.
    pub fn particles(&self) -> usize {
        self.particles
    }

    /// The input seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn box_coords(&self, b: usize) -> (usize, usize, usize) {
        let g = self.grid;
        (b % g, (b / g) % g, b / (g * g))
    }

    fn box_index(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.grid + y) * self.grid + x
    }

    /// Host-side reference computation for validation (same loop order as
    /// the device kernel, so bitwise identical).
    pub fn host_reference(&self) -> Vec<f64> {
        let boxes = self.grid * self.grid * self.grid;
        let p = self.particles;
        let a2 = 2.0 * self.alpha * self.alpha;
        let mut fv = vec![0.0f64; boxes * p * 4];
        for home in 0..boxes {
            let (hx, hy, hz) = self.box_coords(home);
            for (nx, ny, nz) in neighbor_coords(hx, hy, hz, self.grid) {
                let nb = self.box_index(nx, ny, nz);
                for i in 0..p {
                    let ra = &self.rv[(home * p + i) * 4..(home * p + i) * 4 + 4];
                    let fi = (home * p + i) * 4;
                    for j in 0..p {
                        let rb = &self.rv[(nb * p + j) * 4..(nb * p + j) * 4 + 4];
                        let qb = self.qv[nb * p + j];
                        // Fused like the device FMA chain (single
                        // rounding per term).
                        let dot =
                            ra[1].mul_add(rb[1], ra[2].mul_add(rb[2], ra[3].mul_add(rb[3], 0.0)));
                        // Same association as the device kernel's
                        // `add(rav, rbv - dot)` so results match bitwise.
                        let r2 = ra[0] + (rb[0] - dot);
                        let u2 = a2 * r2;
                        let vij = (-u2).exp();
                        let fs = 2.0 * vij;
                        let dx = ra[1] - rb[1];
                        let dy = ra[2] - rb[2];
                        let dz = ra[3] - rb[3];
                        fv[fi] = qb.mul_add(vij, fv[fi]);
                        fv[fi + 1] = qb.mul_add(fs * dx, fv[fi + 1]);
                        fv[fi + 2] = qb.mul_add(fs * dy, fv[fi + 2]);
                        fv[fi + 3] = qb.mul_add(fs * dz, fv[fi + 3]);
                    }
                }
            }
        }
        fv
    }
}

/// In-bounds neighbour coordinates (including the home box), in
/// deterministic z-major order.
fn neighbor_coords(
    hx: usize,
    hy: usize,
    hz: usize,
    grid: usize,
) -> impl Iterator<Item = (usize, usize, usize)> {
    let g = grid as isize;
    let (hx, hy, hz) = (hx as isize, hy as isize, hz as isize);
    (-1..=1).flat_map(move |dz| {
        (-1..=1).flat_map(move |dy| {
            (-1..=1).filter_map(move |dx| {
                let (x, y, z) = (hx + dx, hy + dy, hz + dz);
                if x >= 0 && x < g && y >= 0 && y < g && z >= 0 && z < g {
                    Some((x as usize, y as usize, z as usize))
                } else {
                    None
                }
            })
        })
    })
}

impl TiledProgram for LavaMd {
    fn name(&self) -> &str {
        "lavamd"
    }

    fn tile_count(&self) -> usize {
        self.grid * self.grid * self.grid
    }

    fn threads_per_tile(&self) -> usize {
        // One thread per particle of the home box (Table II:
        // grid³ × #particles threads in total).
        self.particles
    }

    fn local_mem_per_tile(&self) -> usize {
        // Home rv (4 doubles/particle) + neighbour rv + neighbour charges
        // stay in local memory (§IV-B: "the home box and a neighbor box
        // are kept at all times in local memory; LavaMD stresses local
        // memory the most").
        self.particles * (4 + 4 + 1) * 8
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.rv_buf = Some(mem.alloc_init("rv", &self.rv));
        self.qv_buf = Some(mem.alloc_init("qv", &self.qv));
        self.fv_buf = Some(mem.alloc("fv", self.grid * self.grid * self.grid * self.particles * 4));
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        program::dispatch(self, tile, ctx)
    }

    fn output(&self) -> BufferId {
        self.fv_buf.expect("setup ran")
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d1(self.grid * self.grid * self.grid * self.particles * 4)
    }
}

impl TileBody for LavaMd {
    /// The particle-pair force loop — a chain of per-op FMAs — compiles
    /// to fused hardware FMAs on an AVX2 host instead of libm calls.
    /// Each neighbour box is one span of `9·p²` ops and `p²`
    /// exponentials: the clean and garbled lanes count it once, and an
    /// armed tile runs it on the clean lane unless its fault falls
    /// inside.
    #[inline(always)]
    fn tile_body<L: Lane>(
        &mut self,
        tile: TileId,
        ctx: &mut TileCtx<'_>,
    ) -> Result<(), AccelError> {
        let p = self.particles;
        let a2 = 2.0 * self.alpha * self.alpha;
        let home = tile.index();
        let (hx, hy, hz) = self.box_coords(home);
        let rv_buf = self.rv_buf.expect("setup ran");
        let qv_buf = self.qv_buf.expect("setup ran");
        let fv_buf = self.fv_buf.expect("setup ran");

        let mut ra = vec![0.0f64; p * 4];
        ctx.load(rv_buf, home * p * 4, &mut ra)?;
        let mut fa = vec![0.0f64; p * 4];

        let mut rb = vec![0.0f64; p * 4];
        let mut qb = vec![0.0f64; p];
        let pairs = (p * p) as u64;
        for (nx, ny, nz) in neighbor_coords(hx, hy, hz, self.grid) {
            let nb = self.box_index(nx, ny, nz);
            ctx.load(rv_buf, nb * p * 4, &mut rb)?;
            ctx.load(qv_buf, nb * p, &mut qb)?;
            let first = || ra[3].mul_add(rb[3], 0.0);
            if L::clean_span(ctx, 9 * pairs, pairs, first) {
                neighbour_forces::<Clean>(ctx, a2, &ra, &rb, &qb, &mut fa);
                Clean::count(ctx, 9 * pairs);
                Clean::count_trans(ctx, pairs);
            } else {
                neighbour_forces::<L>(ctx, a2, &ra, &rb, &qb, &mut fa);
                L::count(ctx, 9 * pairs);
                L::count_trans(ctx, pairs);
            }
        }
        ctx.store(fv_buf, home * p * 4, &fa)
    }
}

/// Accumulates into the home box's forces `fa` every home particle's
/// interaction with every particle of one neighbour box (positions `rb`,
/// charges `qb`): `9·p²` ops and `p²` exponentials in reference order,
/// pair `n` (home particle `n / p`, neighbour particle `n % p`) running
/// ops `9·n..9·n + 9` and exponential `n`.
#[inline(always)]
fn neighbour_forces<L: Lane>(
    ctx: &mut TileCtx<'_>,
    a2: f64,
    ra: &[f64],
    rb: &[f64],
    qb: &[f64],
    fa: &mut [f64],
) {
    let p = qb.len();
    for (i, (rai, fai)) in ra.chunks_exact(4).zip(fa.chunks_exact_mut(4)).enumerate() {
        let (rav, rax, ray, raz) = (rai[0], rai[1], rai[2], rai[3]);
        for (j, (rbj, &q)) in rb.chunks_exact(4).zip(qb).enumerate() {
            let (rbv, rbx, rby, rbz) = (rbj[0], rbj[1], rbj[2], rbj[3]);
            let n = i * p + j;
            let at = 9 * n;
            let mut dot = L::fma(ctx, at, raz, rbz, 0.0);
            dot = L::fma(ctx, at + 1, ray, rby, dot);
            dot = L::fma(ctx, at + 2, rax, rbx, dot);
            let r2 = L::add(ctx, at + 3, rav, rbv - dot);
            let u2 = L::mul(ctx, at + 4, a2, r2);
            let vij = L::exp(ctx, n, -u2);
            let fs = 2.0 * vij;
            let dx = rax - rbx;
            let dy = ray - rby;
            let dz = raz - rbz;
            fai[0] = L::fma(ctx, at + 5, q, vij, fai[0]);
            fai[1] = L::fma(ctx, at + 6, q, fs * dx, fai[1]);
            fai[2] = L::fma(ctx, at + 7, q, fs * dy, fai[2]);
            fai[3] = L::fma(ctx, at + 8, q, fs * dz, fai[3]);
        }
    }
}

impl Workload for LavaMd {
    fn logical_shape(&self) -> OutputShape {
        OutputShape::d3(self.grid, self.grid, self.grid)
    }

    fn error_coord(&self, idx: usize) -> Coord {
        let b = idx / (self.particles * 4);
        let (x, y, z) = self.box_coords(b);
        [x, y, z]
    }

    fn class(&self) -> KernelClass {
        KernelClass::LAVAMD
    }

    fn input_label(&self) -> String {
        format!("{}", self.grid)
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
        assert!(LavaMd::new(0, 10, 1).is_err());
        assert!(LavaMd::new(3, 0, 1).is_err());
        assert!(LavaMd::new(3, MAX_PARTICLES + 1, 1).is_err());
        assert!(LavaMd::new(3, 10, 1).is_ok());
    }

    #[test]
    fn neighbor_counts_show_load_imbalance() {
        // Corner box: 8 neighbours incl. itself; interior box: 27.
        let corner = neighbor_coords(0, 0, 0, 4).count();
        let interior = neighbor_coords(1, 1, 1, 4).count();
        assert_eq!(corner, 8);
        assert_eq!(interior, 27);
    }

    #[test]
    fn golden_matches_host_reference_bitwise() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = LavaMd::new(3, 8, 5).unwrap();
        let golden = engine.golden(&mut k).unwrap();
        assert_eq!(golden.output, k.host_reference());
    }

    #[test]
    fn potentials_are_positive() {
        let k = LavaMd::new(2, 6, 9).unwrap();
        let fv = k.host_reference();
        // The v component (every 4th from 0) accumulates q·exp(−u2) > 0.
        for i in (0..fv.len()).step_by(4) {
            assert!(fv[i] > 0.0, "potential at {i} must be positive");
        }
    }

    #[test]
    fn sfu_strike_explodes_relative_error() {
        // §V-B/§V-E: a corrupted exp() argument turns small variations
        // into enormous relative errors.
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = LavaMd::new(3, 8, 5).unwrap();
        let golden = k.host_reference();
        // The sign of the exp argument depends on the struck pair, so at
        // least one of a handful of op indices must hit a pair whose
        // corrupted argument becomes hugely positive and explodes.
        let mut exploded = false;
        for op_index in [0u64, 7, 19, 31, 47, 63] {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let s = StrikeSpec::new(
                13, // interior box of a 3x3x3 grid
                StrikeTarget::Sfu {
                    // Corrupted range reduction: exp(-32x) explodes for
                    // the common negative arguments.
                    scale: -32.0,
                    op_index,
                },
            );
            let out = engine.run(&mut k, &[s], &mut rng, None).unwrap();
            // A golden-equivalent run's output is golden's.
            let output = out.output().unwrap_or(&golden);
            let max_rel = (0..golden.len())
                .filter(|&i| output[i] != golden[i])
                .map(|i| ((output[i] - golden[i]) / golden[i]).abs() * 100.0)
                .fold(0.0f64, f64::max);
            if max_rel > 1000.0 || max_rel.is_nan() {
                exploded = true;
                break;
            }
        }
        assert!(
            exploded,
            "exp-argument corruption must explode for some pair"
        );
    }

    #[test]
    fn error_coords_map_to_box_grid() {
        let k = LavaMd::new(4, 10, 1).unwrap();
        assert_eq!(k.logical_shape(), OutputShape::d3(4, 4, 4));
        // First element of box (1, 0, 0) — boxes are x-major.
        assert_eq!(k.error_coord(40), [1, 0, 0]);
        // First element of box (0, 1, 0).
        assert_eq!(k.error_coord(4 * 40), [0, 1, 0]);
        // First element of box (0, 0, 1).
        assert_eq!(k.error_coord(16 * 40), [0, 0, 1]);
    }

    #[test]
    fn thread_count_matches_table_two() {
        let k = LavaMd::new(4, 25, 1).unwrap();
        assert_eq!(k.total_threads(), 4 * 4 * 4 * 25);
    }
}
