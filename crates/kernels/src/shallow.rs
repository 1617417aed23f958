//! Shallow-water solver: the open substitute for the DOE CLAMR mini-app.
//!
//! CLAMR is LANL-proprietary, so this crate implements an independent
//! solver with the same observable structure (§IV-B): the shallow-water
//! equations (conservation of mass, x momentum and y momentum) over a 2-D
//! grid, flat bottom, negligible vertical flow, one cell per thread, and
//! the standard circular-dam-break test problem. The scheme is a
//! conservative Lax–Friedrichs finite-volume update with reflective
//! walls, so that
//!
//! * total water mass is conserved to rounding — the invariant CLAMR's
//!   mass-consistency check exploits (§V-D, Atkinson et al.);
//! * an injected error changes the total mass and is *advected, not
//!   dissipated*: it propagates outward as a wave of corrupted cells,
//!   reproducing Fig. 9's error-locality map.
//!
//! CLAMR's cell-based adaptive mesh refinement is represented by
//! **activity-driven tiling**: only row blocks the dam-break wave can
//! have reached by a given time step are dispatched (the quiescent far
//! field is exactly stationary under the scheme, so skipping it is
//! lossless). The tile count therefore grows as the simulation proceeds —
//! the same "changes in number of threads between time steps to
//! re-balance the load" the paper attributes to CLAMR, and an imbalanced,
//! irregular workload per Table I.

use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{self, Clean, Lane, TileBody, TileCtx, TileId, TiledProgram};
use radcrit_core::shape::{Coord, OutputShape};

use crate::profile::KernelClass;
use crate::Workload;

/// Rows per tile.
pub const BLOCK_ROWS: usize = 8;
/// Gravitational acceleration.
pub const GRAVITY: f64 = 9.8;
/// Time step (CFL-safe for the default depths with `dx = 1`).
const DT: f64 = 0.1;
/// Undisturbed water depth.
pub const H_LOW: f64 = 1.0;
/// Depth inside the dam.
pub const H_HIGH: f64 = 2.5;
/// Positivity floor for the depth (production shallow-water solvers
/// apply a positivity limiter so dry/corrupted cells cannot divide by
/// zero or go negative).
const H_MIN: f64 = 1.0e-3;
/// Upper depth bound of the limiter.
const H_MAX: f64 = 100.0;
/// Momentum magnitude bound of the limiter (CFL protection).
const MOMENTUM_MAX: f64 = 100.0;

/// The positivity/boundedness limiter applied after every cell update.
/// Fault-free dam-break states never reach the bounds, so the limiter is
/// the identity on clean runs; under injected corruption it keeps the
/// state physical (finite, positive depth), like the limiters in
/// production codes — a real hydro code would otherwise abort on the
/// first NaN.
#[inline]
fn limit_state(h: f64, hu: f64, hv: f64) -> (f64, f64, f64) {
    let h = if h.is_finite() {
        h.clamp(H_MIN, H_MAX)
    } else {
        H_MIN
    };
    let hu = if hu.is_finite() {
        hu.clamp(-MOMENTUM_MAX, MOMENTUM_MAX)
    } else {
        0.0
    };
    let hv = if hv.is_finite() {
        hv.clamp(-MOMENTUM_MAX, MOMENTUM_MAX)
    } else {
        0.0
    };
    (h, hu, hv)
}

/// The circular-dam-break shallow-water simulation.
#[derive(Debug)]
pub struct ShallowWater {
    rows: usize,
    cols: usize,
    steps: usize,
    dam_radius: f64,
    /// `(step, first_row, row_count)` per tile, precomputed from the
    /// maximum wave speed at construction.
    schedule: Vec<(usize, usize, usize)>,
    h0: Vec<f64>,
    bufs: Option<Buffers>,
    scratch: Scratch,
}

#[derive(Debug, Clone, Copy)]
struct Buffers {
    h: [BufferId; 2],
    hu: [BufferId; 2],
    hv: [BufferId; 2],
}

/// A tile's working rows, kept across tiles so a tile allocates
/// nothing: the halo'd `h`, `hu`, `hv` rows and one output row of each.
/// Every tile overwrites what it reads.
#[derive(Debug)]
struct Scratch {
    lh: Vec<f64>,
    lhu: Vec<f64>,
    lhv: Vec<f64>,
    oh: Vec<f64>,
    ohu: Vec<f64>,
    ohv: Vec<f64>,
}

impl ShallowWater {
    /// Creates a dam-break simulation on a `rows × cols` grid for
    /// `steps` time steps. The dam is a centred disc of radius
    /// `min(rows, cols) / 5`.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] unless `rows` is a positive
    /// multiple of [`BLOCK_ROWS`], `cols ≥ 4` and `steps > 0`.
    pub fn new(rows: usize, cols: usize, steps: usize) -> Result<Self, AccelError> {
        if rows == 0 || !rows.is_multiple_of(BLOCK_ROWS) {
            return Err(AccelError::InvalidConfig(format!(
                "rows {rows} must be a positive multiple of {BLOCK_ROWS}"
            )));
        }
        if cols < 4 {
            return Err(AccelError::InvalidConfig("need at least 4 columns".into()));
        }
        if steps == 0 {
            return Err(AccelError::InvalidConfig("zero steps".into()));
        }
        let dam_radius = rows.min(cols) as f64 / 5.0;
        let h0 = initial_depth(rows, cols, dam_radius);
        let schedule = build_schedule(rows, steps, dam_radius);
        Ok(ShallowWater {
            rows,
            cols,
            steps,
            dam_radius,
            schedule,
            h0,
            bufs: None,
            scratch: Scratch {
                lh: vec![0.0; (BLOCK_ROWS + 2) * cols],
                lhu: vec![0.0; (BLOCK_ROWS + 2) * cols],
                lhv: vec![0.0; (BLOCK_ROWS + 2) * cols],
                oh: vec![0.0; cols],
                ohu: vec![0.0; cols],
                ohv: vec![0.0; cols],
            },
        })
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Simulated time steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The dam radius in cells.
    pub fn dam_radius(&self) -> f64 {
        self.dam_radius
    }

    /// Tiles dispatched for time step `s` — grows as the wave expands
    /// (the AMR-like load variation of §IV-B).
    pub fn tiles_in_step(&self, s: usize) -> usize {
        self.schedule.iter().filter(|(st, _, _)| *st == s).count()
    }

    /// Total water mass (Σh) of a depth field — the conserved quantity
    /// behind CLAMR's mass-consistency error detector (§V-D).
    pub fn total_mass(h: &[f64]) -> f64 {
        h.iter().sum()
    }

    /// Host-side reference solution (same arithmetic order as the device
    /// kernel), returning the depth field.
    pub fn host_reference(&self) -> Vec<f64> {
        self.host_reference_full().0
    }

    /// Host-side reference returning the full `(h, hu, hv)` state, for
    /// energy/momentum diagnostics.
    pub fn host_reference_full(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (r, c) = (self.rows, self.cols);
        let mut h = self.h0.clone();
        let mut hu = vec![0.0; r * c];
        let mut hv = vec![0.0; r * c];
        let mut nh = h.clone();
        let mut nhu = hu.clone();
        let mut nhv = hv.clone();
        for s in 0..self.steps {
            let rows_of_step: Vec<(usize, usize)> = self
                .schedule
                .iter()
                .filter(|(st, _, _)| *st == s)
                .map(|&(_, r0, n)| (r0, n))
                .collect();
            for &(r0, n) in &rows_of_step {
                for i in r0..r0 + n {
                    for j in 0..c {
                        let (a, b, d) = lax_friedrichs_cell(&h, &hu, &hv, i, j, r, c);
                        let (a, b, d) = limit_state(a, b, d);
                        nh[i * c + j] = a;
                        nhu[i * c + j] = b;
                        nhv[i * c + j] = d;
                    }
                }
            }
            for &(r0, n) in &rows_of_step {
                let lo = r0 * c;
                let hi = (r0 + n) * c;
                h[lo..hi].copy_from_slice(&nh[lo..hi]);
                hu[lo..hi].copy_from_slice(&nhu[lo..hi]);
                hv[lo..hi].copy_from_slice(&nhv[lo..hi]);
            }
        }
        (h, hu, hv)
    }
}

/// Initial condition: still water with a raised disc at the centre.
fn initial_depth(rows: usize, cols: usize, radius: f64) -> Vec<f64> {
    let (cr, cc) = (rows as f64 / 2.0, cols as f64 / 2.0);
    let mut h = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let d2 = (i as f64 - cr).powi(2) + (j as f64 - cc).powi(2);
            h.push(if d2 <= radius * radius { H_HIGH } else { H_LOW });
        }
    }
    h
}

/// Per-step active-row schedule: blocks intersecting the disc of radius
/// `r0 + s · c_max · DT + margin`, where `c_max = √(g·H_HIGH)` bounds the
/// dam-break wave speed. Quiescent rows outside are exactly stationary.
fn build_schedule(rows: usize, steps: usize, dam_radius: f64) -> Vec<(usize, usize, usize)> {
    let c_max = (GRAVITY * H_HIGH).sqrt();
    let center = rows as f64 / 2.0;
    let mut schedule = Vec::new();
    for s in 0..steps {
        let reach = dam_radius + (s as f64 + 1.0) * c_max * DT + 2.0 * BLOCK_ROWS as f64;
        let lo = ((center - reach).floor().max(0.0)) as usize;
        let hi = ((center + reach).ceil() as usize).min(rows);
        let first_blk = lo / BLOCK_ROWS;
        let last_blk = (hi.max(1) - 1) / BLOCK_ROWS;
        for blk in first_blk..=last_blk {
            schedule.push((s, blk * BLOCK_ROWS, BLOCK_ROWS));
        }
    }
    schedule
}

/// One Lax–Friedrichs update of cell `(i, j)` from state `(h, hu, hv)`.
/// Reflective walls: ghost cells mirror depth and negate the normal
/// momentum.
#[allow(clippy::too_many_arguments)]
fn lax_friedrichs_cell(
    h: &[f64],
    hu: &[f64],
    hv: &[f64],
    i: usize,
    j: usize,
    rows: usize,
    cols: usize,
) -> (f64, f64, f64) {
    let idx = |i: usize, j: usize| i * cols + j;
    // Neighbour states with reflective walls: a wall ghost mirrors the
    // depth and negates the wall-normal momentum.
    let state = |ii: isize, jj: isize| -> (f64, f64, f64) {
        if ii < 0 || ii >= rows as isize {
            let m = idx(i, j);
            (h[m], hu[m], -hv[m])
        } else if jj < 0 || jj >= cols as isize {
            let m = idx(i, j);
            (h[m], -hu[m], hv[m])
        } else {
            let m = idx(ii as usize, jj as usize);
            (h[m], hu[m], hv[m])
        }
    };

    let (ii, jj) = (i as isize, j as isize);
    let e = state(ii, jj + 1);
    let w = state(ii, jj - 1);
    let n = state(ii - 1, jj);
    let s = state(ii + 1, jj);

    // Fluxes along x (east/west neighbours) and y (north/south).
    // Fused like the device FMA (single rounding).
    let fx = |(hh, huu, hvv): (f64, f64, f64)| {
        let u = huu / hh;
        (huu, huu.mul_add(u, 0.5 * GRAVITY * hh * hh), hvv * u)
    };
    let fy = |(hh, huu, hvv): (f64, f64, f64)| {
        let v = hvv / hh;
        (hvv, huu * v, hvv.mul_add(v, 0.5 * GRAVITY * hh * hh))
    };

    let (fe0, fe1, fe2) = fx(e);
    let (fw0, fw1, fw2) = fx(w);
    let (fn0, fn1, fn2) = fy(n);
    let (fs0, fs1, fs2) = fy(s);

    let k = DT / 2.0; // dx = dy = 1
    let avg = |a: f64, b: f64, c: f64, d: f64| 0.25 * (a + b + c + d);

    let nh = avg(e.0, w.0, n.0, s.0) - k * (fe0 - fw0) - k * (fs0 - fn0);
    let nhu = avg(e.1, w.1, n.1, s.1) - k * (fe1 - fw1) - k * (fs1 - fn1);
    let nhv = avg(e.2, w.2, n.2, s.2) - k * (fe2 - fw2) - k * (fs2 - fn2);
    (nh, nhu, nhv)
}

impl TiledProgram for ShallowWater {
    fn name(&self) -> &str {
        "shallow"
    }

    fn tile_count(&self) -> usize {
        self.schedule.len()
    }

    fn tiles_per_launch(&self) -> usize {
        // The widest time step (the AMR-like activity window at its
        // largest).
        (0..self.steps)
            .map(|s| self.tiles_in_step(s))
            .max()
            .unwrap_or(1)
    }

    fn threads_per_tile(&self) -> usize {
        // One thread per cell (Table II: #cells or more with AMR).
        BLOCK_ROWS * self.cols
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        let zeros = vec![0.0; self.rows * self.cols];
        // Both parity buffers start from the initial condition so skipped
        // (quiescent) regions hold identical data in either buffer.
        let bufs = Buffers {
            h: [
                mem.alloc_init("h_a", &self.h0),
                mem.alloc_init("h_b", &self.h0),
            ],
            hu: [
                mem.alloc_init("hu_a", &zeros),
                mem.alloc_init("hu_b", &zeros),
            ],
            hv: [
                mem.alloc_init("hv_a", &zeros),
                mem.alloc_init("hv_b", &zeros),
            ],
        };
        self.bufs = Some(bufs);
        Ok(())
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        program::dispatch(self, tile, ctx)
    }

    fn output(&self) -> BufferId {
        let bufs = self.bufs.expect("setup ran");
        bufs.h[self.steps % 2]
    }

    fn output_shape(&self) -> OutputShape {
        OutputShape::d2(self.rows, self.cols)
    }
}

impl TileBody for ShallowWater {
    /// One scheduled row block of one time step. Each grid row updates
    /// from its north and south rows, or the reflective wall on the
    /// grid's first and last row (`update_row`), and is one span of
    /// `18·cols` ops: the clean lane — where an armed tile runs every row
    /// its fault misses — and the garbled lane count it once.
    #[inline(always)]
    fn tile_body<L: Lane>(
        &mut self,
        tile: TileId,
        ctx: &mut TileCtx<'_>,
    ) -> Result<(), AccelError> {
        let (rows, c) = (self.rows, self.cols);
        let (step, row0, nrows) = self.schedule[tile.index()];
        let bufs = self.bufs.expect("setup ran");
        let src = step % 2;
        let dst = 1 - src;
        let Scratch {
            lh,
            lhu,
            lhv,
            oh,
            ohu,
            ohv,
        } = &mut self.scratch;

        // Load the tile rows plus one halo row on each side, clamped.
        let halo_top = row0.saturating_sub(1);
        let halo_bot = (row0 + nrows).min(rows - 1);
        let span = (halo_bot - halo_top + 1) * c;
        let (lh, lhu, lhv) = (&mut lh[..span], &mut lhu[..span], &mut lhv[..span]);
        ctx.load(bufs.h[src], halo_top * c, lh)?;
        ctx.load(bufs.hu[src], halo_top * c, lhu)?;
        ctx.load(bufs.hv[src], halo_top * c, lhv)?;

        let row = |i: usize| {
            let at = (i - halo_top) * c;
            Row {
                h: &lh[at..at + c],
                hu: &lhu[at..at + c],
                hv: &lhv[at..at + c],
            }
        };
        for i in row0..row0 + nrows {
            let out = [&mut oh[..], &mut ohu[..], &mut ohv[..]];
            // Cell 0's first op: its east neighbour's x velocity.
            let first = || row(i).hu[1] / row(i).h[1];
            if L::clean_span(ctx, 18 * c as u64, 0, first) {
                update_walled_row::<Clean>(ctx, i, rows, &row, out);
                Clean::count(ctx, 18 * c as u64);
            } else {
                update_walled_row::<L>(ctx, i, rows, &row, out);
                L::count(ctx, 18 * c as u64);
            }
            ctx.store(bufs.h[dst], i * c, oh)?;
            ctx.store(bufs.hu[dst], i * c, ohu)?;
            ctx.store(bufs.hv[dst], i * c, ohv)?;
        }
        Ok(())
    }
}

/// One cell's `(h, hu, hv)`.
type State = (f64, f64, f64);

/// One grid row of the three state planes.
#[derive(Debug, Clone, Copy)]
struct Row<'a> {
    h: &'a [f64],
    hu: &'a [f64],
    hv: &'a [f64],
}

impl Row<'_> {
    #[inline(always)]
    fn at(&self, j: usize) -> State {
        (self.h[j], self.hu[j], self.hv[j])
    }

    /// The ghost beyond an east or west wall next to cell `j`: the
    /// cell's depth, its x momentum negated.
    #[inline(always)]
    fn wall_x(&self, j: usize) -> State {
        (self.h[j], -self.hu[j], self.hv[j])
    }

    /// The ghost beyond a north or south wall next to cell `j`: the
    /// cell's depth, its y momentum negated.
    #[inline(always)]
    fn wall_y(&self, j: usize) -> State {
        (self.h[j], self.hu[j], -self.hv[j])
    }
}

/// Updates grid row `i` of a `rows`-row grid, `row` reading the tile's
/// halo'd rows: reflecting at the north wall on the first row and at the
/// south wall on the last.
#[inline(always)]
fn update_walled_row<'a, L: Lane>(
    ctx: &mut TileCtx<'_>,
    i: usize,
    rows: usize,
    row: &impl Fn(usize) -> Row<'a>,
    out: [&mut [f64]; 3],
) {
    if i == 0 {
        update_row::<L, true, false>(ctx, [row(i), row(i), row(i + 1)], out);
    } else if i == rows - 1 {
        update_row::<L, false, true>(ctx, [row(i - 1), row(i), row(i)], out);
    } else {
        update_row::<L, false, false>(ctx, [row(i - 1), row(i), row(i + 1)], out);
    }
}

/// Updates one grid row from its `[north, own, south]` rows into the
/// `[h, hu, hv]` output rows, cells in ascending column order, cell `j`
/// running the row's ops `18·j..18·j + 18`. A
/// `N_WALL` / `S_WALL` row reflects at the grid's north / south wall
/// instead of reading that neighbour row. The west and east wall cells
/// are peeled off, so the interior loop has no index branches.
#[inline(always)]
fn update_row<L: Lane, const N_WALL: bool, const S_WALL: bool>(
    ctx: &mut TileCtx<'_>,
    [north, own, south]: [Row<'_>; 3],
    [oh, ohu, ohv]: [&mut [f64]; 3],
) {
    let c = own.h.len();
    let (oh, ohu, ohv) = (&mut oh[..c], &mut ohu[..c], &mut ohv[..c]);
    let mut cell = |ctx: &mut TileCtx<'_>, j: usize, e: State, w: State| {
        let n = if N_WALL { own.wall_y(j) } else { north.at(j) };
        let s = if S_WALL { own.wall_y(j) } else { south.at(j) };
        (oh[j], ohu[j], ohv[j]) = update_cell::<L>(ctx, 18 * j, [e, w, n, s]);
    };
    cell(ctx, 0, own.at(1), own.wall_x(0));
    for j in 1..c - 1 {
        cell(ctx, j, own.at(j + 1), own.at(j - 1));
    }
    cell(ctx, c - 1, own.wall_x(c - 1), own.at(c - 2));
}

/// The Lax–Friedrichs update of one cell from its east, west, north and
/// south neighbour states, limited: the span's 18 ops from `at`, in the
/// order of [`lax_friedrichs_cell`].
#[inline(always)]
fn update_cell<L: Lane>(ctx: &mut TileCtx<'_>, at: usize, [e, w, n, s]: [State; 4]) -> State {
    let fx = |ctx: &mut TileCtx<'_>, at: usize, (hh, huu, hvv): State| {
        let u = L::div(ctx, at, huu, hh);
        let f1 = L::fma(ctx, at + 1, huu, u, 0.5 * GRAVITY * hh * hh);
        let f2 = L::mul(ctx, at + 2, hvv, u);
        (huu, f1, f2)
    };
    let fy = |ctx: &mut TileCtx<'_>, at: usize, (hh, huu, hvv): State| {
        let v = L::div(ctx, at, hvv, hh);
        let f1 = L::mul(ctx, at + 1, huu, v);
        let f2 = L::fma(ctx, at + 2, hvv, v, 0.5 * GRAVITY * hh * hh);
        (hvv, f1, f2)
    };

    let (fe0, fe1, fe2) = fx(ctx, at, e);
    let (fw0, fw1, fw2) = fx(ctx, at + 3, w);
    let (fn0, fn1, fn2) = fy(ctx, at + 6, n);
    let (fs0, fs1, fs2) = fy(ctx, at + 9, s);

    let k = DT / 2.0;
    let a0 = L::op(ctx, at + 12, 0.25 * (e.0 + w.0 + n.0 + s.0));
    let a1 = L::op(ctx, at + 13, 0.25 * (e.1 + w.1 + n.1 + s.1));
    let a2 = L::op(ctx, at + 14, 0.25 * (e.2 + w.2 + n.2 + s.2));
    let uh = L::op(ctx, at + 15, a0 - k * (fe0 - fw0) - k * (fs0 - fn0));
    let uhu = L::op(ctx, at + 16, a1 - k * (fe1 - fw1) - k * (fs1 - fn1));
    let uhv = L::op(ctx, at + 17, a2 - k * (fe2 - fw2) - k * (fs2 - fn2));
    limit_state(uh, uhu, uhv)
}

impl Workload for ShallowWater {
    fn logical_shape(&self) -> OutputShape {
        OutputShape::d2(self.rows, self.cols)
    }

    fn error_coord(&self, idx: usize) -> Coord {
        [idx / self.cols, idx % self.cols, 0]
    }

    fn class(&self) -> KernelClass {
        KernelClass::CLAMR
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
        assert!(ShallowWater::new(0, 16, 4).is_err());
        assert!(ShallowWater::new(12, 16, 4).is_err());
        assert!(ShallowWater::new(16, 2, 4).is_err());
        assert!(ShallowWater::new(16, 16, 0).is_err());
        assert!(ShallowWater::new(16, 16, 4).is_ok());
    }

    #[test]
    fn golden_matches_host_reference_bitwise() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut k = ShallowWater::new(32, 32, 6).unwrap();
        let golden = engine.golden(&mut k).unwrap();
        assert_eq!(golden.output, k.host_reference());
    }

    /// The smallest legal grids: one row block walled north and south,
    /// four or five columns walled east and west.
    #[test]
    fn smallest_grids_match_host_reference_bitwise() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        for cols in [4, 5] {
            let mut k = ShallowWater::new(8, cols, 6).unwrap();
            let golden = engine.golden(&mut k).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&golden.output),
                bits(&k.host_reference()),
                "cols={cols}"
            );
        }
    }

    #[test]
    fn quiescent_cells_are_exactly_stationary() {
        // Updating a still-water cell must return exactly the same state,
        // which is what makes activity-driven tiling lossless.
        let rows = 16;
        let cols = 16;
        let h = vec![H_LOW; rows * cols];
        let hu = vec![0.0; rows * cols];
        let hv = vec![0.0; rows * cols];
        let (nh, nhu, nhv) = lax_friedrichs_cell(&h, &hu, &hv, 7, 7, rows, cols);
        assert_eq!(nh, H_LOW);
        assert_eq!(nhu, 0.0);
        assert_eq!(nhv, 0.0);
    }

    #[test]
    fn mass_is_conserved() {
        let k = ShallowWater::new(32, 32, 20).unwrap();
        let initial_mass = ShallowWater::total_mass(&k.h0);
        let h = k.host_reference();
        let final_mass = ShallowWater::total_mass(&h);
        let rel = ((final_mass - initial_mass) / initial_mass).abs();
        assert!(rel < 1e-12, "mass drift {rel}");
    }

    #[test]
    fn wave_expands_over_time() {
        // Depth disturbance radius grows with steps.
        let disturbed = |steps: usize| -> usize {
            let k = ShallowWater::new(64, 64, steps).unwrap();
            let h = k.host_reference();
            h.iter().filter(|&&v| (v - H_LOW).abs() > 1e-9).count()
        };
        let early = disturbed(2);
        let late = disturbed(20);
        assert!(late > early, "wave must spread: {early} -> {late}");
    }

    #[test]
    fn tile_count_grows_with_wave() {
        let k = ShallowWater::new(128, 64, 40).unwrap();
        let first = k.tiles_in_step(0);
        let last = k.tiles_in_step(39);
        assert!(
            last > first,
            "activity tiling must widen: {first} -> {last}"
        );
    }

    #[test]
    fn injected_error_propagates_as_wave_and_breaks_mass() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut k = ShallowWater::new(32, 32, 24).unwrap();
        let golden = k.host_reference();
        let golden_mass = ShallowWater::total_mass(&golden);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        // Corrupt an exponent bit of cached state early in the run.
        let tiles_step0 = k.tiles_in_step(0);
        let s = StrikeSpec::new(tiles_step0, StrikeTarget::L2 { mask: 1 << 60 });
        let out = engine.run(&mut k, &[s], &mut rng, None).unwrap();
        assert!(out.strike_delivered);
        let Some(output) = out.output() else {
            // The engine proved the corruption died unobserved and
            // stopped early: masked by construction.
            return;
        };
        let diffs: Vec<usize> = (0..golden.len())
            .filter(|&i| output[i] != golden[i])
            .collect();
        if !diffs.is_empty() {
            // Conservation: the corruption persists in the mass balance.
            let mass = ShallowWater::total_mass(output);
            assert!(
                ((mass - golden_mass) / golden_mass).abs() > 1e-9,
                "conserved-quantity violation must be visible"
            );
            // And it spreads in both dimensions (a wave, not a point).
            if diffs.len() > 8 {
                let rows: std::collections::HashSet<_> = diffs.iter().map(|i| i / 32).collect();
                let cols: std::collections::HashSet<_> = diffs.iter().map(|i| i % 32).collect();
                assert!(rows.len() > 1 && cols.len() > 1);
            }
        }
    }

    #[test]
    fn limiter_is_identity_on_clean_states() {
        let (h, hu, hv) = limit_state(1.5, 0.3, -0.2);
        assert_eq!((h, hu, hv), (1.5, 0.3, -0.2));
    }

    #[test]
    fn limiter_sanitizes_corrupted_states() {
        let (h, _, _) = limit_state(f64::NAN, f64::INFINITY, -1.0e300);
        assert!(h > 0.0 && h.is_finite());
        let (h2, hu2, hv2) = limit_state(-5.0, 1.0e9, f64::NEG_INFINITY);
        assert_eq!(h2, H_MIN);
        assert_eq!(hu2, MOMENTUM_MAX);
        assert_eq!(hv2, 0.0);
    }

    #[test]
    fn cfl_is_respected() {
        // max wave speed * DT must stay below one cell per step.
        let c_max = (GRAVITY * H_HIGH).sqrt();
        assert!(c_max * DT < 1.0, "CFL violated: {}", c_max * DT);
    }
}
