//! Imprecise computing: how the accepted misfit changes a device's
//! *measured* reliability.
//!
//! §II-B/§III of the paper: seismic wave simulations accept misfits of
//! about 4 % (de la Puente et al.), while the paper's conservative filter
//! uses 2 %. HotSpot "can be imprecisely classified with a radiation
//! sensitivity up to 95 % higher [when] considering any mismatch as the
//! sole metric" (§V-C). This example replays the same set of injected
//! HotSpot executions under several tolerance thresholds — the workflow
//! the paper enables by publishing its raw corrupted outputs — and
//! reports the SDC rate each application class would observe.
//!
//! ```sh
//! cargo run --release --example seismic_tolerance
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::engine::Engine;
use radcrit::campaign::presets;
use radcrit::campaign::KernelSpec;
use radcrit::core::filter::ToleranceFilter;
use radcrit::core::report::ErrorReport;
use radcrit::core::shape::OutputShape;
use radcrit::faults::sampler::{FaultSampler, InjectionPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = presets::k40();
    let engine = Engine::new(device.clone());
    let spec = KernelSpec::HotSpot {
        rows: 128,
        cols: 128,
        iterations: 24,
    };
    let mut kernel = spec.build(11)?;
    let golden = engine.golden(kernel.as_mut())?;
    let sampler = FaultSampler::new(&device, &golden.profile);
    let shape = OutputShape::d2(128, 128);

    // Collect the corrupted outputs of 200 injected executions (the
    // "publicly accessible repository" of §III, in memory).
    println!("injecting 200 faults into HotSpot on the scaled K40 ...");
    let mut reports: Vec<ErrorReport> = Vec::new();
    let (mut crash, mut hang, mut masked) = (0u32, 0u32, 0u32);
    for i in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x5E15 ^ i);
        match sampler.sample(&mut rng) {
            InjectionPlan::Crash => crash += 1,
            InjectionPlan::Hang => hang += 1,
            InjectionPlan::Strike(strike) => {
                let run = engine.run(kernel.as_mut(), &[strike], &mut rng, None, None)?;
                let report =
                    radcrit::core::compare::compare_slices(&golden.output, &run.output, shape)?;
                if report.is_sdc() {
                    reports.push(report);
                } else {
                    masked += 1;
                }
            }
        }
    }
    println!(
        "outcomes: {} SDC, {masked} masked, {crash} crash, {hang} hang\n",
        reports.len()
    );

    println!("tolerance sweep over the same corrupted outputs:\n");
    println!(
        "{:>12} | {:>10} | {:>20} | note",
        "threshold", "SDC count", "apparent sensitivity"
    );
    println!("{:->12}-+-{:->10}-+-{:->20}-+-----", "", "", "");
    let strict = reports.len().max(1) as f64;
    for (threshold, note) in [
        (0.0, "bit-exact HPC"),
        (0.5, ""),
        (2.0, "paper's conservative filter"),
        (4.0, "seismic misfit budget"),
        (10.0, "aggressive imprecise computing"),
    ] {
        let filter = ToleranceFilter::new(threshold)?;
        let surviving = reports.iter().filter(|r| !filter.fully_masks(r)).count();
        println!(
            "{threshold:>11}% | {surviving:>10} | {:>19.0}% | {note}",
            surviving as f64 / strict * 100.0
        );
    }

    println!(
        "\nreading: demanding bit-exact output makes the device look far less\n\
         reliable than a seismic application with a 4% misfit budget would\n\
         experience — exactly the paper's argument for criticality metrics."
    );
    Ok(())
}
