//! Quickstart: inject one neutron strike into DGEMM on a simulated K40
//! and evaluate the paper's four error-criticality metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::{config::DeviceConfig, engine::Engine};
use radcrit::core::{filter::ToleranceFilter, locality::LocalityClassifier, shape::OutputShape};
use radcrit::faults::sampler::{FaultSampler, InjectionPlan};
use radcrit::kernels::dgemm::Dgemm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A simulated NVIDIA K40 and a 128x128 double-precision matrix
    //    multiplication with deterministic, paper-style inputs.
    let device = DeviceConfig::kepler_k40();
    let engine = Engine::new(device.clone());
    let mut kernel = Dgemm::new(128, 42)?;

    // 2. The golden (fault-free) execution: reference output plus the
    //    dynamic profile that determines what a neutron can hit.
    let golden = engine.golden(&mut kernel)?;
    println!(
        "golden run: {} tiles, {:.1}M arithmetic ops, {:.1} KiB resident in L2",
        golden.profile.tiles,
        golden.profile.total_ops as f64 / 1e6,
        golden.profile.l2_avg_resident_bytes / 1024.0
    );

    // 3. Sample neutron strikes until one produces a silent data
    //    corruption, then evaluate the four metrics of the paper.
    let sampler = FaultSampler::new(&device, &golden.profile);
    let shape = OutputShape::d2(128, 128);
    let tolerance = ToleranceFilter::paper_default(); // 2 %
    let classifier = LocalityClassifier::default();

    let mut rng = StdRng::seed_from_u64(7);
    for attempt in 1..=1000 {
        match sampler.sample(&mut rng) {
            InjectionPlan::Crash => println!("attempt {attempt}: application crash"),
            InjectionPlan::Hang => println!("attempt {attempt}: node hang"),
            InjectionPlan::Strike(spec) => {
                let run = engine.run(&mut kernel, &[spec], &mut rng, None)?;
                let report = run.compare(&golden.output, shape, |i| shape.coord_of(i));
                if !report.is_sdc() {
                    println!(
                        "attempt {attempt}: strike on {} masked",
                        spec.target.site_name()
                    );
                    continue;
                }
                let crit = report.criticality(&tolerance, &classifier);
                println!(
                    "\nattempt {attempt}: SDC from a {} strike!",
                    spec.target.site_name()
                );
                println!("  incorrect elements : {}", crit.incorrect_elements);
                println!(
                    "  mean relative error: {:.3e} %",
                    crit.mean_relative_error.unwrap_or(f64::NAN)
                );
                println!("  spatial locality   : {}", crit.locality);
                println!(
                    "  after 2% filter    : {} elements, locality {}",
                    crit.filtered_incorrect_elements, crit.filtered_locality
                );
                println!(
                    "  critical under imprecise computing? {}",
                    if crit.is_critical() {
                        "yes"
                    } else {
                        "no (tolerable)"
                    }
                );
                return Ok(());
            }
        }
    }
    println!("no SDC in 1000 attempts — try another seed");
    Ok(())
}
