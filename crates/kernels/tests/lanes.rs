//! Every kernel's one tile body gives the same bits and the same counts
//! on both arithmetic lanes.
//!
//! A golden run executes every tile on the clean lane. A run that arms
//! every tile with a fault that cannot change a bit — an FPU flip with a
//! zero mask, one past the tile's last op, an SFU scale of 1 — executes
//! every tile on the armed lane, op by op in reference order. The two
//! must agree on the output bits and on every tile's trace. The scalar
//! CI step (`RADCRIT_FORCE_SCALAR=1 cargo test --release -p
//! radcrit-accel -p radcrit-kernels`) runs this on the portable arm, a
//! plain run on the host's.

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::Engine;
use radcrit_accel::program::TiledProgram;
use radcrit_accel::strike::{StrikeSpec, StrikeTarget};
use radcrit_accel::ExecutionTrace;
use radcrit_kernels::dgemm::Dgemm;
use radcrit_kernels::hotspot::HotSpot;
use radcrit_kernels::lavamd::LavaMd;
use radcrit_kernels::pathological::{Failure, Pathological};
use radcrit_kernels::shallow::ShallowWater;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fault that arms `tile` without changing a bit, cycling the three
/// kinds of masked fault.
fn masked(tile: usize) -> StrikeTarget {
    match tile % 3 {
        0 => StrikeTarget::Fpu {
            mask: 0,
            op_index: 0,
        },
        1 => StrikeTarget::Fpu {
            mask: 1 << 63,
            op_index: 1 << 40,
        },
        _ => StrikeTarget::Sfu {
            scale: 1.0,
            op_index: 0,
        },
    }
}

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

fn assert_lanes_agree(name: &str, program: &mut dyn TiledProgram) {
    let tiles = program.tile_count();
    let (clean, clean_trace) = run(program, &[]);
    let armed_all: Vec<StrikeSpec> = (0..tiles).map(|t| StrikeSpec::new(t, masked(t))).collect();
    let (armed, armed_trace) = run(program, &armed_all);
    assert!(clean == armed, "{name}: armed-lane output bits differ");
    assert_eq!(clean_trace.tiles().len(), tiles, "{name}: every tile ran");
    assert_eq!(armed_trace.tiles().len(), tiles, "{name}: every tile ran");
    for (c, a) in clean_trace.tiles().iter().zip(armed_trace.tiles()) {
        assert_eq!(
            (c.ops, c.trans_ops, c.loads, c.stores),
            (a.ops, a.trans_ops, a.loads, a.stores),
            "{name}: tile {} counters",
            c.pos
        );
        assert_eq!(c, a, "{name}: tile {} trace", c.pos);
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
    assert!(run(program, &live).0 != clean, "{name}: a live flip shows");
}

#[test]
fn hotspot_lanes_agree() {
    for (rows, cols) in [(8, 1), (8, 2), (16, 3), (16, 9)] {
        let mut k = HotSpot::new(rows, cols, 3, 3).expect("valid");
        assert_lanes_agree(&format!("hotspot {rows}x{cols}"), &mut k);
    }
}

#[test]
fn shallow_water_lanes_agree() {
    for (rows, cols) in [(8, 4), (16, 5), (32, 8)] {
        let mut k = ShallowWater::new(rows, cols, 4).expect("valid");
        assert_lanes_agree(&format!("shallow {rows}x{cols}"), &mut k);
    }
}

#[test]
fn lavamd_lanes_agree() {
    let mut k = LavaMd::new(2, 5, 1).expect("valid");
    assert_lanes_agree("lavamd", &mut k);
}

#[test]
fn dgemm_lanes_agree() {
    let mut k = Dgemm::new(32, 7).expect("valid");
    assert_lanes_agree("dgemm", &mut k);
}

#[test]
fn pathological_lanes_agree() {
    let mut k = Pathological::new(24, usize::MAX, Failure::Panic).expect("valid");
    assert_lanes_agree("pathological", &mut k);
}
