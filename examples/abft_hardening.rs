//! Should you deploy ABFT? Answering §III's question with the locality
//! metric, then proving it with a live checksum correction.
//!
//! "By knowing the spatial locality we can evaluate if it is wise to
//! implement ABFT": single and line errors are correctable, square and
//! random ones are not; the paper estimates ABFT leaves 20-40 % of DGEMM
//! errors on the K40 and 60-80 % on the Xeon Phi.
//!
//! ```sh
//! cargo run --release --example abft_hardening
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::abft::{AbftDgemm, AbftOutcome};
use radcrit::accel::engine::Engine;
use radcrit::campaign::presets;
use radcrit::campaign::{Campaign, KernelSpec};
use radcrit::faults::sampler::{FaultSampler, InjectionPlan};
use radcrit::kernels::dgemm::Dgemm;
use radcrit::kernels::input::matrix_value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: what does the locality metric predict?
    println!("running 150-injection DGEMM campaigns on both devices ...\n");
    for device in [presets::k40(), presets::xeon_phi()] {
        let summary = Campaign::new(device, KernelSpec::Dgemm { n: 128 }, 150, 5)
            .run()?
            .summary();
        let correctable = summary.fit_all.abft_correctable_fraction();
        println!(
            "{:>8}: {:>3} SDCs | single+line {:>3.0}% | residual under ABFT {:>3.0}%",
            summary.device,
            summary.sdc,
            correctable * 100.0,
            radcrit::abft::residual_fraction(&summary.fit_all) * 100.0,
        );
    }

    // Part 2: prove it end to end — checksum-correct real corrupted
    // products.
    println!("\nlive correction of real corrupted products (K40, 64x64):");
    let n = 64;
    let seed = 5;
    let device = presets::k40();
    let engine = Engine::new(device.clone());
    let mut kernel = Dgemm::new(n, seed)?;
    let golden = engine.golden(&mut kernel)?;
    let sampler = FaultSampler::new(&device, &golden.profile);

    let mut a = Vec::with_capacity(n * n);
    let mut b = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            a.push(matrix_value(seed, i, j));
            b.push(matrix_value(seed ^ 0xB, i, j));
        }
    }
    let checker = AbftDgemm::from_inputs(&a, &b, n, 1e-7);

    let (mut corrected, mut uncorrectable, mut invisible, mut shown) = (0, 0, 0, 0);
    for i in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(0xABF7 ^ i);
        let InjectionPlan::Strike(spec) = sampler.sample(&mut rng) else {
            continue;
        };
        let run = engine.run(&mut kernel, &[spec], &mut rng, None, None)?;
        if run.output == golden.output {
            continue;
        }
        let mut c = run.output.clone();
        let verdict = checker.check(&mut c);
        match &verdict {
            AbftOutcome::Corrected(k) => {
                corrected += 1;
                let restored = c
                    .iter()
                    .zip(&golden.output)
                    .all(|(x, y)| (x - y).abs() <= 1e-6 * y.abs().max(1.0));
                if shown < 3 {
                    shown += 1;
                    println!(
                        "  strike on {:<14} -> {k} element(s) corrected, output {}",
                        spec.target.site_name(),
                        if restored {
                            "fully restored"
                        } else {
                            "NOT restored"
                        }
                    );
                }
            }
            AbftOutcome::DetectedUncorrectable { rows, cols } => {
                uncorrectable += 1;
                if shown < 6 {
                    shown += 1;
                    println!(
                        "  strike on {:<14} -> uncorrectable ({} rows x {} cols flagged)",
                        spec.target.site_name(),
                        rows.len(),
                        cols.len()
                    );
                }
            }
            AbftOutcome::Clean => invisible += 1,
        }
    }
    println!(
        "\ntotals: {corrected} corrected, {uncorrectable} detected-but-uncorrectable, \
         {invisible} below checksum tolerance"
    );
    println!(
        "\nreading: on the K40 most radiation-induced DGEMM errors are single\n\
         or (partial-)line patterns that checksums repair in linear time; the\n\
         block/garble patterns remain — matching the locality prediction above."
    );
    Ok(())
}
