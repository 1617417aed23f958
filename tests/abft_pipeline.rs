//! Cross-crate integration: ABFT checksum correction applied to outputs
//! corrupted by the *simulator* (not synthetic patterns), closing the
//! loop of §III's hardening discussion.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::abft::{AbftDgemm, AbftOutcome};
use radcrit::accel::config::DeviceConfig;
use radcrit::accel::engine::Engine;
use radcrit::accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit::kernels::dgemm::Dgemm;
use radcrit::kernels::input::matrix_value;

const N: usize = 32;
const SEED: u64 = 13;

fn checker() -> AbftDgemm {
    let mut a = Vec::with_capacity(N * N);
    let mut b = Vec::with_capacity(N * N);
    for i in 0..N {
        for j in 0..N {
            a.push(matrix_value(SEED, i, j));
            b.push(matrix_value(SEED ^ 0xB, i, j));
        }
    }
    AbftDgemm::from_inputs(&a, &b, N, 1e-7)
}

fn corrupted_output(strike: StrikeSpec, rng_seed: u64) -> (Vec<f64>, Vec<f64>) {
    let engine = Engine::new(DeviceConfig::kepler_k40());
    let mut kernel = Dgemm::new(N, SEED).unwrap();
    let golden = engine.golden(&mut kernel).unwrap();
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let run = engine
        .run(&mut kernel, &[strike], &mut rng, None, None)
        .unwrap();
    (golden.output, run.output)
}

#[test]
fn abft_corrects_simulator_induced_single_error() {
    // Flip the lowest exponent bit: the corrupted partial product moves
    // by O(value) — large enough to trip the checksums, small enough
    // that the additive correction is numerically exact. (A 2^1024-scale
    // corruption would defeat the *correction* through floating-point
    // cancellation even though detection still works — a real limitation
    // of checksum ABFT.)
    let strike = StrikeSpec::new(
        1,
        StrikeTarget::Fpu {
            mask: 1 << 52,
            op_index: 5,
        },
    );
    let (golden, observed) = corrupted_output(strike, 1);
    assert_ne!(golden, observed, "strike must corrupt the product");
    let mut c = observed;
    match checker().check(&mut c) {
        AbftOutcome::Corrected(1) => {}
        other => panic!("expected single-element correction, got {other:?}"),
    }
    for (i, (&got, &want)) in c.iter().zip(&golden).enumerate() {
        assert!(
            (got - want).abs() <= 1e-6 * want.abs().max(1.0),
            "element {i} not restored"
        );
    }
}

#[test]
fn abft_detects_but_cannot_correct_skipped_tile() {
    // A skipped 16x16 tile is a square error: §III says ABFT cannot
    // correct it — and must not silently "fix" it into garbage.
    let strike = StrikeSpec::new(2, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
    let (golden, observed) = corrupted_output(strike, 2);
    assert_ne!(golden, observed);
    let mut c = observed;
    match checker().check(&mut c) {
        AbftOutcome::DetectedUncorrectable { rows, cols } => {
            assert_eq!(rows.len(), 16);
            assert_eq!(cols.len(), 16);
        }
        other => panic!("expected uncorrectable square, got {other:?}"),
    }
}

#[test]
fn abft_passes_untouched_golden_output() {
    let engine = Engine::new(DeviceConfig::kepler_k40());
    let mut kernel = Dgemm::new(N, SEED).unwrap();
    let golden = engine.golden(&mut kernel).unwrap();
    let mut c = golden.output;
    assert_eq!(checker().check(&mut c), AbftOutcome::Clean);
}
