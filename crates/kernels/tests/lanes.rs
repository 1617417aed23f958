//! Every kernel's one tile body gives the same bits and the same counts
//! on every arithmetic lane, and its span boundaries stay where they are.
//!
//! A golden run executes every tile on the clean lane. An armed tile
//! runs on the armed lane — op by op in reference order — only the spans
//! its fault can reach (a DGEMM block, a LavaMD neighbour box, a HotSpot
//! or shallow-water row, a whole `pathological` tile), and the rest on
//! the clean lane. So each span index gets its own run that arms every
//! tile with a fault that cannot change a bit — an FPU flip with a zero
//! mask on the span's first op, or an SFU scale of 1 on its first `exp` —
//! and every such run must agree with golden on the output bits and on
//! every tile's trace. A garbled tile runs every span on the garbled
//! lane, in the clean lane's order with each op blended at its index; a
//! garble of each tile in turn must agree with the same tile body run
//! on the armed lane throughout. Live faults on either side of a span
//! boundary, and garbles, are pinned by the FNV-1a digest of the output,
//! so a boundary that moved by one op fails. The scalar CI step
//! (`RADCRIT_FORCE_SCALAR=1 cargo test --release -p radcrit-accel -p
//! radcrit-kernels`) runs this on the portable arm, a plain run on the
//! host's.

use std::cell::RefCell;
use std::marker::PhantomData;

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::Engine;
use radcrit_accel::error::AccelError;
use radcrit_accel::memory::{BufferId, DeviceMemory};
use radcrit_accel::program::{Armed, Lane, TileBody, TileCtx, TileId, TiledProgram};
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit_accel::ExecutionTrace;
use radcrit_core::shape::OutputShape;
use radcrit_kernels::dgemm::Dgemm;
use radcrit_kernels::hotspot::HotSpot;
use radcrit_kernels::lavamd::LavaMd;
use radcrit_kernels::pathological::{Failure, Pathological};
use radcrit_kernels::shallow::ShallowWater;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `program` with `strikes` from tile 0, returning the output bits
/// and the trace.
fn run(program: &mut dyn TiledProgram, strikes: &[StrikeSpec]) -> (Vec<u64>, ExecutionTrace) {
    let engine = Engine::new(DeviceConfig::kepler_k40());
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut trace = ExecutionTrace::new();
    let out = engine
        .run(program, strikes, &mut rng, Some(&mut trace))
        .expect("run");
    let output = out.output().expect("every strike here reaches the output");
    (output.iter().map(|v| v.to_bits()).collect(), trace)
}

/// FNV-1a over the output bits, little-endian.
fn fnv1a(bits: &[u64]) -> u64 {
    bits.iter()
        .flat_map(|v| v.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Asserts that every span of every tile runs armed in some run and
/// agrees with golden. A span is `ops` arithmetic and `trans`
/// transcendental ops (`trans` is 0 for kernels without `exp`).
fn assert_lanes_agree(name: &str, program: &mut dyn TiledProgram, (ops, trans): (u64, u64)) {
    let tiles = program.tile_count();
    let (golden, golden_trace) = run(program, &[]);
    assert_eq!(golden_trace.tiles().len(), tiles, "{name}: every tile ran");
    let spans = golden_trace.tiles().iter().map(|t| t.ops.div_ceil(ops));
    for s in 0..spans.max().expect("tiles") {
        let fpu = StrikeTarget::Fpu {
            mask: 0,
            op_index: s * ops,
        };
        let sfu = StrikeTarget::Sfu {
            scale: 1.0,
            op_index: s * trans,
        };
        let targets = if trans > 0 { vec![fpu, sfu] } else { vec![fpu] };
        for target in targets {
            // Every tile with a span `s`, armed on that span's first op
            // or first `exp`.
            let strikes: Vec<StrikeSpec> = golden_trace
                .tiles()
                .iter()
                .filter(|t| t.ops > s * ops)
                .map(|t| StrikeSpec::new(t.pos, target))
                .collect();
            let (armed, armed_trace) = run(program, &strikes);
            assert!(
                golden == armed,
                "{name}: {target:?}: armed-lane output bits differ"
            );
            assert_eq!(armed_trace.tiles().len(), tiles, "{name}: every tile ran");
            for (c, a) in golden_trace.tiles().iter().zip(armed_trace.tiles()) {
                assert_eq!(c, a, "{name}: {target:?}: tile {} trace", c.pos);
            }
        }
    }
    // The strikes do reach the armed lane: an unmasked flip of an early
    // op of tile 0 changes the output.
    let live = [StrikeSpec::new(
        0,
        StrikeTarget::Fpu {
            mask: 1 << 62,
            op_index: 12,
        },
    )];
    assert!(run(program, &live).0 != golden, "{name}: a live flip shows");
}

/// A live FPU flip of op `op_index`: its exponent bits, so that a zero
/// result becomes infinite instead of a value a later multiply by zero
/// masks.
fn flip(op_index: u64) -> StrikeTarget {
    StrikeTarget::Fpu {
        mask: 0x7ff0 << 48,
        op_index,
    }
}

/// A live two-lane vector-register flip of ops `op_index` and
/// `op_index + 1`, on the victim tile the strike draws.
fn straddle(op_index: u64) -> StrikeTarget {
    StrikeTarget::VectorRegister {
        mask: 0x7ff0 << 48,
        lanes: 2,
        op_index,
    }
}

/// A garbled tile: every op replays a stale value, on the garbled lane.
const GARBLE: StrikeTarget = StrikeTarget::Scheduler(SchedulerEffect::GarbleTile);

/// A live SFU fault on transcendental op `op_index`.
fn scale(op_index: u64) -> StrikeTarget {
    StrikeTarget::Sfu {
        scale: 1.5,
        op_index,
    }
}

/// Asserts that each live fault `(tile, target)` gives the committed
/// output digest, and that no two of them — nor golden — give the same
/// output.
fn assert_pinned(name: &str, program: &mut dyn TiledProgram, pins: &[(usize, StrikeTarget, u64)]) {
    let mut seen = vec![fnv1a(&run(program, &[]).0)];
    for &(tile, target, digest) in pins {
        let got = fnv1a(&run(program, &[StrikeSpec::new(tile, target)]).0);
        assert!(
            !seen.contains(&got),
            "{name}: {target:?} on tile {tile} must give its own output"
        );
        seen.push(got);
        assert_eq!(
            got, digest,
            "{name}: {target:?} on tile {tile}: {got:#018x}"
        );
    }
}

#[test]
fn hotspot_lanes_agree() {
    for (rows, cols) in [(8, 1), (8, 2), (16, 3), (16, 9)] {
        let mut k = HotSpot::new(rows, cols, 3, 3).expect("valid");
        assert_lanes_agree(
            &format!("hotspot {rows}x{cols}"),
            &mut k,
            (7 * cols as u64, 0),
        );
    }
}

#[test]
fn shallow_water_lanes_agree() {
    for (rows, cols) in [(8, 4), (16, 5), (32, 8)] {
        let mut k = ShallowWater::new(rows, cols, 4).expect("valid");
        assert_lanes_agree(
            &format!("shallow {rows}x{cols}"),
            &mut k,
            (18 * cols as u64, 0),
        );
    }
}

#[test]
fn lavamd_lanes_agree() {
    let mut k = LavaMd::new(2, 5, 1).expect("valid");
    assert_lanes_agree("lavamd", &mut k, (9 * 25, 25));
}

#[test]
fn dgemm_lanes_agree() {
    let mut k = Dgemm::new(32, 7).expect("valid");
    assert_lanes_agree("dgemm", &mut k, (16 * 16 * 16, 0));
}

#[test]
fn pathological_lanes_agree() {
    let mut k = Pathological::new(24, usize::MAX, Failure::Panic).expect("valid");
    assert_lanes_agree("pathological", &mut k, (24, 0));
}

/// Live faults on the last op of one span and the first of the next, a
/// vector flip straddling the two, and a garble — which must keep every
/// span armed — each give their committed digest.
#[test]
fn span_boundaries_are_pinned() {
    // One 9-column HotSpot row is 63 ops.
    let mut k = HotSpot::new(16, 9, 3, 3).expect("valid");
    let pins = [
        (1, flip(62), 0xdb60_5cdc_088c_98c0),
        (1, flip(63), 0xf0e7_1b25_4a6e_ca4f),
        (1, straddle(62), 0x9b87_b2c8_631c_b83d),
        (1, GARBLE, 0x12c9_9f1b_50df_e864),
    ];
    assert_pinned("hotspot", &mut k, &pins);
    // One 8-column shallow-water row is 144 ops; rows 6 and 7 of tile 9
    // carry moving water, where no limiter or zero momentum masks a flip.
    let mut k = ShallowWater::new(32, 8, 4).expect("valid");
    let pins = [
        (9, flip(7 * 144 - 1), 0x8e95_97a6_b45d_14c3),
        (9, flip(7 * 144), 0xc26d_8b70_1232_32ab),
        (9, GARBLE, 0xe63b_d76d_aee2_823e),
    ];
    assert_pinned("shallow", &mut k, &pins);
    // One 5-particle LavaMD neighbour box is 225 ops and 25 `exp`s. Its
    // digests, like radbench's `lavamd-fma` digest, assume the libm
    // `exp` of an FMA host.
    let mut k = LavaMd::new(2, 5, 1).expect("valid");
    let pins = [
        (3, flip(224), 0x95b4_1561_33bd_285c),
        (3, flip(225), 0xdda7_eb24_89c6_d43e),
        (3, scale(24), 0x4081_3303_777d_a9c9),
        (3, scale(25), 0x8ad7_b974_3267_0476),
        (3, scale(49), 0xfb91_2d41_97c2_e51b),
        (3, scale(50), 0x1dd8_2fca_4fed_d7a8),
        (3, GARBLE, 0x7007_b5db_bbaf_ee46),
    ];
    assert_pinned("lavamd", &mut k, &pins);
    // One DGEMM block is 16³ ops.
    let mut k = Dgemm::new(32, 7).expect("valid");
    let pins = [
        (1, flip(4095), 0x1c04_a0b7_00f2_6c7a),
        (1, flip(4096), 0x5172_8a6a_bfa4_1610),
        (1, straddle(4095), 0x2552_2226_bb4e_64a2),
        (1, GARBLE, 0x843e_e7ea_f061_4aec),
    ];
    assert_pinned("dgemm", &mut k, &pins);
    // `pathological` is one span: its first and last op.
    let mut k = Pathological::new(24, usize::MAX, Failure::Panic).expect("valid");
    let pins = [
        (0, flip(0), 0xa5d6_004e_4107_97b8),
        (0, flip(23), 0x1f22_fe73_57ae_f098),
        (0, GARBLE, 0xdd73_9355_8cc7_48a2),
    ];
    assert_pinned("pathological", &mut k, &pins);
}

/// `P` with every tile body on lane `L`, starting a [`TileRecord`] per
/// tile. On [`Armed`], a garbled tile runs op by op in reference order
/// through `TileCtx::op`, which reads the garble sequence at the op
/// counter — the reference the garbled lane must match.
struct OnLane<'a, P, L>(&'a mut P, PhantomData<L>);

fn on_lane<P, L>(program: &mut P) -> OnLane<'_, P, L> {
    OnLane(program, PhantomData)
}

impl<P: TiledProgram + TileBody, L: Lane> TiledProgram for OnLane<'_, P, L> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn tile_count(&self) -> usize {
        self.0.tile_count()
    }

    fn tiles_per_launch(&self) -> usize {
        self.0.tiles_per_launch()
    }

    fn threads_per_tile(&self) -> usize {
        self.0.threads_per_tile()
    }

    fn local_mem_per_tile(&self) -> usize {
        self.0.local_mem_per_tile()
    }

    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
        self.0.setup(mem)
    }

    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
        RECORDS.with_borrow_mut(|r| r.push(TileRecord::default()));
        self.0.tile_body::<L>(tile, ctx)
    }

    fn output(&self) -> BufferId {
        self.0.output()
    }

    fn output_shape(&self) -> OutputShape {
        self.0.output_shape()
    }

    fn resumable(&self) -> bool {
        self.0.resumable()
    }
}

/// Asserts that a garble of each tile in turn, and each strike set of
/// `co_armed`, gives the same output bits and per-tile trace as the
/// tile body on the armed lane throughout.
fn assert_garbles_match_armed<P: TiledProgram + TileBody>(
    name: &str,
    program: &mut P,
    co_armed: &[&[(usize, StrikeTarget)]],
) {
    let golden = run(program, &[]).0;
    let garbles = (0..program.tile_count()).map(|t| vec![StrikeSpec::new(t, GARBLE)]);
    let co_armed = co_armed.iter().map(|set| {
        set.iter()
            .map(|&(t, target)| StrikeSpec::new(t, target))
            .collect()
    });
    for strikes in garbles.chain(co_armed) {
        let (bits, trace) = run(program, &strikes);
        let (want, want_trace) = run(&mut on_lane::<_, Armed>(program), &strikes);
        assert!(bits != golden, "{name}: {strikes:?} changes the output");
        assert!(
            bits == want,
            "{name}: {strikes:?}: garbled-lane bits differ"
        );
        assert_eq!(trace.tiles(), want_trace.tiles(), "{name}: {strikes:?}");
    }
}

thread_local! {
    /// One record per tile an [`OnLane`] program ran.
    static RECORDS: RefCell<Vec<TileRecord>> = const { RefCell::new(Vec::new()) };
}

/// What a recording lane saw in one tile: the bits of each op's value
/// and each `exp`'s argument by op index, and each span's op 0 with the
/// bits its `first()` computed.
#[derive(Debug, Default)]
struct TileRecord {
    ops: Vec<Option<u64>>,
    trans: Vec<Option<u64>>,
    /// Where the current span and the next one start: (op, `exp`).
    span: (usize, usize),
    next: (usize, usize),
    firsts: Vec<(usize, u64)>,
}

/// Files `bits` in the current tile's record by `slots`.
fn record(
    bits: u64,
    slots: impl FnOnce(&mut TileRecord) -> (&mut Vec<Option<u64>>, Option<usize>),
) {
    RECORDS.with_borrow_mut(|r| {
        let (slots, at) = slots(r.last_mut().expect("a tile is running"));
        match at {
            None => slots.push(Some(bits)),
            Some(at) => {
                if slots.len() <= at {
                    slots.resize(at + 1, None);
                }
                assert!(slots[at].replace(bits).is_none(), "op {at} ran twice");
            }
        }
    });
}

/// A lane that records every op in the order the body calls it. It is
/// armed and clears no span, so the body runs the reference order.
enum InOrder {}

impl Lane for InOrder {
    const ARMED: bool = true;

    fn op(_: &mut TileCtx<'_>, _: usize, value: f64) -> f64 {
        record(value.to_bits(), |t| (&mut t.ops, None));
        value
    }

    fn exp(_: &mut TileCtx<'_>, _: usize, x: f64) -> f64 {
        record(x.to_bits(), |t| (&mut t.trans, None));
        x.exp()
    }

    fn clean_span(_: &mut TileCtx<'_>, _: u64, _: u64, _: impl FnOnce() -> f64) -> bool {
        false
    }
}

/// A lane that records every op at the index it names — the span's
/// start plus its in-span index — in the clean lane's order, and each
/// span's `first()`.
enum ByIndex {}

impl Lane for ByIndex {
    const ARMED: bool = false;

    fn op(_: &mut TileCtx<'_>, i: usize, value: f64) -> f64 {
        record(value.to_bits(), |t| (&mut t.ops, Some(t.span.0 + i)));
        value
    }

    fn exp(_: &mut TileCtx<'_>, i: usize, x: f64) -> f64 {
        record(x.to_bits(), |t| (&mut t.trans, Some(t.span.1 + i)));
        x.exp()
    }

    fn clean_span(_: &mut TileCtx<'_>, ops: u64, trans: u64, first: impl FnOnce() -> f64) -> bool {
        let first = (ops > 0).then(first);
        RECORDS.with_borrow_mut(|r| {
            let t = r.last_mut().expect("a tile is running");
            t.span = t.next;
            t.next = (t.span.0 + ops as usize, t.span.1 + trans as usize);
            if let Some(first) = first {
                t.firsts.push((t.span.0, first.to_bits()));
            }
        });
        false
    }
}

/// Asserts that every op's index names the op the reference order runs
/// there: filed by index, every tile's op values and `exp` arguments
/// equal the reference order's, one per index, and every span's
/// `first()` equals its op 0's value. A wrong index that a garble's
/// masking hides from the output digests fails here.
fn assert_indices_name_reference_ops<P: TiledProgram + TileBody>(name: &str, program: &mut P) {
    let records = |program: &mut dyn TiledProgram| {
        RECORDS.take();
        run(program, &[]);
        RECORDS.take()
    };
    let reference = records(&mut on_lane::<_, InOrder>(program));
    let indexed = records(&mut on_lane::<_, ByIndex>(program));
    assert_eq!(
        reference.len(),
        program.tile_count(),
        "{name}: every tile ran"
    );
    assert_eq!(indexed.len(), reference.len(), "{name}: every tile ran");
    for (t, (want, got)) in reference.iter().zip(&indexed).enumerate() {
        for (what, want, got) in [
            ("op", &want.ops, &got.ops),
            ("exp", &want.trans, &got.trans),
        ] {
            assert_eq!(got.len(), want.len(), "{name}: tile {t}: {what}s");
            let wrong = want.iter().zip(got).position(|(w, g)| w != g);
            assert_eq!(wrong, None, "{name}: tile {t}: first wrong {what}");
        }
        for &(at, bits) in &got.firsts {
            assert_eq!(
                want.ops[at],
                Some(bits),
                "{name}: tile {t}: first() at {at}"
            );
        }
    }
}

#[test]
fn op_indices_name_the_reference_ops() {
    for (rows, cols) in [(8, 1), (16, 3), (16, 9)] {
        let mut k = HotSpot::new(rows, cols, 3, 3).expect("valid");
        assert_indices_name_reference_ops(&format!("hotspot {rows}x{cols}"), &mut k);
    }
    let mut k = ShallowWater::new(32, 8, 4).expect("valid");
    assert_indices_name_reference_ops("shallow", &mut k);
    let mut k = LavaMd::new(2, 5, 1).expect("valid");
    assert_indices_name_reference_ops("lavamd", &mut k);
    let mut k = Dgemm::new(48, 7).expect("valid");
    assert_indices_name_reference_ops("dgemm", &mut k);
    let mut k = Pathological::new(24, usize::MAX, Failure::Panic).expect("valid");
    assert_indices_name_reference_ops("pathological", &mut k);
}

#[test]
fn garbles_match_the_armed_lane() {
    for (rows, cols) in [(8, 1), (8, 2), (16, 3), (16, 9)] {
        let mut k = HotSpot::new(rows, cols, 3, 3).expect("valid");
        assert_garbles_match_armed(&format!("hotspot {rows}x{cols}"), &mut k, &[]);
    }
    for (rows, cols) in [(8, 4), (32, 8)] {
        let mut k = ShallowWater::new(rows, cols, 4).expect("valid");
        assert_garbles_match_armed(&format!("shallow {rows}x{cols}"), &mut k, &[]);
    }
    let mut k = LavaMd::new(2, 5, 1).expect("valid");
    assert_garbles_match_armed("lavamd 2x5", &mut k, &[]);
    let mut k = LavaMd::new(3, 8, 1).expect("valid");
    let co_armed = [(13, StrikeTarget::UnitGarble), (13, scale(1703))];
    assert_garbles_match_armed("lavamd 3x8", &mut k, &[&co_armed]);
    let mut k = Dgemm::new(32, 7).expect("valid");
    assert_garbles_match_armed("dgemm 32", &mut k, &[]);
    let mut k = Dgemm::new(48, 7).expect("valid");
    let co_armed = [(4, StrikeTarget::UnitGarble), (4, flip(5000))];
    assert_garbles_match_armed("dgemm 48", &mut k, &[&co_armed]);
    let mut k = Pathological::new(24, usize::MAX, Failure::Panic).expect("valid");
    assert_garbles_match_armed("pathological", &mut k, &[]);
}

/// Garbles of tiles and grids the boundary pins do not cover — DGEMM's
/// first and last tile of three blocks each, one- to three-column
/// HotSpot rows, a shallow-water tile and an interior LavaMD box — and a
/// unit garble co-armed with a live fault on the same tile, each give
/// the digest computed before the garbled lane existed. The SFU fault
/// still scales its `exp` under the garble; the FPU flip is lost in it.
#[test]
fn garbles_are_pinned() {
    let mut k = Dgemm::new(48, 7).expect("valid");
    let pins = [
        (0, GARBLE, 0x77d6_9fe0_5624_5471),
        (8, GARBLE, 0x7f0f_d30f_8cf8_c7a3),
    ];
    assert_pinned("dgemm 48", &mut k, &pins);
    let co_armed = [
        StrikeSpec::new(4, StrikeTarget::UnitGarble),
        StrikeSpec::new(4, flip(5000)),
    ];
    let garbled = fnv1a(&run(&mut k, &[StrikeSpec::new(4, GARBLE)]).0);
    assert_eq!(
        fnv1a(&run(&mut k, &co_armed).0),
        garbled,
        "the flip is lost"
    );
    assert_eq!(garbled, 0x519d_d94d_2f5c_0702);
    for (rows, cols, tile, digest) in [
        (8, 1, 1, 0x1bc4_36b9_8a82_0c97),
        (8, 2, 1, 0x3026_96d1_f16e_0e76),
        (16, 3, 3, 0xcfb3_fda1_fdfb_ec97),
    ] {
        let mut k = HotSpot::new(rows, cols, 3, 3).expect("valid");
        assert_pinned(
            &format!("hotspot {rows}x{cols}"),
            &mut k,
            &[(tile, GARBLE, digest)],
        );
    }
    let mut k = ShallowWater::new(8, 4, 4).expect("valid");
    assert_pinned("shallow 8x4", &mut k, &[(2, GARBLE, 0x5c8d_62d5_372a_5979)]);
    // Box 13 is the interior box of the 3³ grid.
    let mut k = LavaMd::new(3, 8, 1).expect("valid");
    assert_pinned("lavamd 3x8", &mut k, &[(13, GARBLE, 0x7d00_875c_177b_f2c8)]);
    let co_armed = [
        StrikeSpec::new(13, StrikeTarget::UnitGarble),
        StrikeSpec::new(13, scale(1703)),
    ];
    assert_eq!(
        fnv1a(&run(&mut k, &co_armed).0),
        0x8cad_4b53_e8e2_0e90,
        "the SFU fault shows through the garble"
    );
}
