//! The CLAMR error wave: conserved-quantity corruption that grows
//! instead of dissipating (Figs. 8/9 and §V-D).
//!
//! Injects one strike into the shallow-water dam break, renders the
//! corrupted-cell map as the wave expands, and shows the
//! mass-consistency check that CLAMR uses as a detector.
//!
//! ```sh
//! cargo run --release --example error_wave
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::engine::Engine;
use radcrit::accel::strike::{StrikeSpec, StrikeTarget};
use radcrit::campaign::presets;
use radcrit::core::compare::compare_slices;
use radcrit::core::locality::LocalityClassifier;
use radcrit::core::shape::OutputShape;
use radcrit::kernels::shallow::ShallowWater;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = presets::xeon_phi();
    let engine = Engine::new(device.clone());
    let (rows, cols) = (96, 96);

    // Render the corruption footprint at increasing simulation lengths:
    // the same seed and strike, observed earlier and later.
    println!("one L2 strike observed after increasing numbers of time steps:\n");
    let mut detected_once = false;
    for steps in [40usize, 90, 140] {
        let mut kernel = ShallowWater::new(rows, cols, steps)?;
        let golden = engine.golden(&mut kernel)?;

        // An early strike on a resident L2 line: flip an exponent bit of
        // cached simulation state shortly after the dam breaks. Strikes
        // that land on zero-valued momentum cells are numerically masked
        // (the flipped value is denormal-small), so hunt deterministically
        // for a seed whose victim line carries live data.
        let spec = StrikeSpec::new(
            golden.profile.tiles / 20,
            StrikeTarget::L2 { mask: 1 << 55 },
        );
        let mut run = None;
        for attempt in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xD00D ^ attempt);
            let candidate = engine.run(&mut kernel, &[spec], &mut rng, None, None)?;
            if candidate.output != golden.output {
                run = Some(candidate);
                break;
            }
        }
        let Some(run) = run else {
            println!("after {steps:>3} steps: every strike was masked");
            continue;
        };
        let report = compare_slices(&golden.output, &run.output, OutputShape::d2(rows, cols))?;
        let class = LocalityClassifier::default().classify(&report);
        let golden_mass = ShallowWater::total_mass(&golden.output);
        let mass = ShallowWater::total_mass(&run.output);
        let drift = ((mass - golden_mass) / golden_mass).abs();

        println!(
            "after {steps:>3} steps: {:>5} corrupted cells ({class}), relative mass drift {drift:.2e}",
            report.incorrect_elements()
        );
        if report.is_sdc() {
            println!("{}", report.render_map(18, 36, '#'));
            if drift > 1e-12 {
                detected_once = true;
            }
        }
    }

    println!(
        "reading: unlike HotSpot's dissipating stencil, the conservation laws\n\
         advect the corruption outward — the paper's wave of incorrect elements\n\
         (Fig. 9). The broken invariant is also the detector: the mass check\n\
         {} the corruption here (the paper measures 82% coverage for CLAMR).",
        if detected_once { "caught" } else { "missed" }
    );
    Ok(())
}
