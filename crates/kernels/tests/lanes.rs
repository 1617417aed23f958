//! Every kernel's one tile body gives the same bits and the same counts
//! on both arithmetic lanes, and its span boundaries stay where they are.
//!
//! A golden run executes every tile on the clean lane. An armed tile
//! runs on the armed lane — op by op in reference order — only the spans
//! its fault can reach (a DGEMM block, a LavaMD neighbour box, a HotSpot
//! or shallow-water row, a whole `pathological` tile), and the rest on
//! the clean lane. So each span index gets its own run that arms every
//! tile with a fault that cannot change a bit — an FPU flip with a zero
//! mask on the span's first op, or an SFU scale of 1 on its first `exp` —
//! and every such run must agree with golden on the output bits and on
//! every tile's trace. Live faults on either side of a span boundary are
//! pinned by the FNV-1a digest of the output, so a boundary that moved
//! by one op fails. The scalar CI step (`RADCRIT_FORCE_SCALAR=1 cargo
//! test --release -p radcrit-accel -p radcrit-kernels`) runs this on the
//! portable arm, a plain run on the host's.

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::Engine;
use radcrit_accel::program::TiledProgram;
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit_accel::ExecutionTrace;
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
        .run(program, strikes, &mut rng, None, Some(&mut trace))
        .expect("run");
    (out.output.iter().map(|v| v.to_bits()).collect(), trace)
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

/// A garbled tile, which runs armed throughout.
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
