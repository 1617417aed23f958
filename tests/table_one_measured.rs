//! Cross-crate integration: the Table I classification of the kernels is
//! *measured* from execution traces, not just asserted.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::engine::Engine;
use radcrit::accel::{ExecutionTrace, TiledProgram};
use radcrit::campaign::presets;
use radcrit::campaign::KernelSpec;

/// A fault-free run's per-tile trace (no strikes, so the RNG is never
/// consulted).
fn golden_trace<P: TiledProgram + ?Sized>(engine: &Engine, kernel: &mut P) -> ExecutionTrace {
    let mut trace = ExecutionTrace::new();
    engine
        .run(kernel, &[], &mut StdRng::seed_from_u64(0), Some(&mut trace))
        .expect("traced run");
    trace
}

fn trace(spec: KernelSpec) -> ExecutionTrace {
    let engine = Engine::new(presets::k40());
    let mut kernel = spec.build(1).expect("preset kernel");
    golden_trace(&engine, kernel.as_mut())
}

#[test]
fn dgemm_is_compute_bound_hotspot_is_memory_bound() {
    let dgemm = trace(KernelSpec::Dgemm { n: 64 });
    let hotspot = trace(KernelSpec::HotSpot {
        rows: 64,
        cols: 64,
        iterations: 8,
    });
    // Table I: DGEMM bound by CPU, HotSpot by memory. Operational
    // intensity (ops per element moved) is the roofline-style proxy the
    // paper cites.
    assert!(
        dgemm.operational_intensity() > 2.0 * hotspot.operational_intensity(),
        "DGEMM OI {} must dwarf HotSpot OI {}",
        dgemm.operational_intensity(),
        hotspot.operational_intensity()
    );
}

#[test]
fn lavamd_is_imbalanced_dgemm_is_balanced() {
    let dgemm = trace(KernelSpec::Dgemm { n: 64 });
    let lavamd = trace(KernelSpec::LavaMd {
        grid: 4,
        particles: 8,
    });
    // Border boxes have 8-18 neighbours, interior 27: per-tile work
    // varies strongly for LavaMD, hardly at all for DGEMM.
    assert!(
        lavamd.tile_cv() > 5.0 * dgemm.tile_cv().max(1e-6),
        "LavaMD tile CV {} vs DGEMM {}",
        lavamd.tile_cv(),
        dgemm.tile_cv()
    );
}

#[test]
fn clamr_work_varies_across_launches() {
    // The AMR-like activity window: the number of tiles dispatched per
    // step grows as the dam-break wave expands (Table II: "#cells or
    // more (AMR)") — so the work per *unit of simulated time* varies
    // even though each dispatched tile is row-shaped.
    use radcrit::accel::program::TiledProgram;
    use radcrit::kernels::shallow::ShallowWater;

    let mut kernel = ShallowWater::new(128, 64, 60).expect("shallow builds");
    let first = kernel.tiles_in_step(0);
    let last = kernel.tiles_in_step(59);
    assert!(
        last > first,
        "tiles per step must grow with the wave: {first} -> {last}"
    );

    // The trace agrees with the activity schedule tile for tile.
    let engine = Engine::new(presets::xeon_phi());
    let trace = golden_trace(&engine, &mut kernel);
    assert_eq!(trace.tiles().len(), kernel.tile_count());
    // And the per-launch thread count reported to the fault model is the
    // widest step, not the whole run.
    assert_eq!(
        kernel.tiles_per_launch(),
        (0..60).map(|s| kernel.tiles_in_step(s)).max().unwrap()
    );
}

#[test]
fn hotspot_is_perfectly_balanced_across_units() {
    let hotspot = trace(KernelSpec::HotSpot {
        rows: 64,
        cols: 64,
        iterations: 4,
    });
    assert!(
        hotspot.unit_imbalance() < 1.35,
        "HotSpot per-unit imbalance {} should be near 1",
        hotspot.unit_imbalance()
    );
}
