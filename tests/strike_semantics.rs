//! Cross-crate integration: strike targets produce the architecturally
//! expected corruption signatures on real kernels.

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::config::DeviceConfig;
use radcrit::accel::engine::Engine;
use radcrit::accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit::core::compare::compare_slices;
use radcrit::core::locality::{LocalityClassifier, SpatialClass};
use radcrit::core::shape::OutputShape;
use radcrit::kernels::dgemm::Dgemm;
use radcrit::kernels::lavamd::LavaMd;
use radcrit::kernels::Workload;

const N: usize = 48;

fn run_dgemm(device: DeviceConfig, strike: StrikeSpec, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let engine = Engine::new(device);
    let mut kernel = Dgemm::new(N, 7).unwrap();
    let golden = engine.golden(&mut kernel).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let run = engine
        .run(&mut kernel, &[strike], &mut rng, None, None)
        .unwrap();
    (golden.output, run.output)
}

fn classify(golden: &[f64], observed: &[f64]) -> (usize, SpatialClass) {
    let report = compare_slices(golden, observed, OutputShape::d2(N, N)).unwrap();
    (
        report.incorrect_elements(),
        LocalityClassifier::default().classify(&report),
    )
}

#[test]
fn fpu_strike_is_a_single_error() {
    let strike = StrikeSpec::new(
        2,
        StrikeTarget::Fpu {
            mask: 1 << 62,
            op_index: 17,
        },
    );
    let (golden, observed) = run_dgemm(DeviceConfig::kepler_k40(), strike, 1);
    let (count, class) = classify(&golden, &observed);
    assert_eq!(count, 1);
    assert_eq!(class, SpatialClass::Single);
}

#[test]
fn scheduler_skip_is_a_square_error() {
    let strike = StrikeSpec::new(4, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
    let (golden, observed) = run_dgemm(DeviceConfig::kepler_k40(), strike, 2);
    let (count, class) = classify(&golden, &observed);
    assert_eq!(count, 16 * 16, "a whole 16x16 output tile");
    assert_eq!(class, SpatialClass::Square);
}

#[test]
fn phi_unit_garble_is_a_large_block() {
    // Static chunking: a corrupted core loses the contiguous remainder of
    // its chunk — a band of the output matrix.
    let strike = StrikeSpec::new(0, StrikeTarget::UnitGarble);
    let (golden, observed) = run_dgemm(DeviceConfig::xeon_phi_3120a(), strike, 3);
    let (count, class) = classify(&golden, &observed);
    assert!(count > 100, "chunk-sized corruption, got {count}");
    assert!(
        class == SpatialClass::Square || class == SpatialClass::Line,
        "contiguous chunk must form a dense block, got {class}"
    );
}

#[test]
fn vector_strike_hits_consecutive_elements() {
    let strike = StrikeSpec::new(
        1,
        StrikeTarget::VectorRegister {
            mask: 1 << 61,
            lanes: 8,
            op_index: 0,
        },
    );
    let (golden, observed) = run_dgemm(DeviceConfig::xeon_phi_3120a(), strike, 4);
    let report = compare_slices(&golden, &observed, OutputShape::d2(N, N)).unwrap();
    assert!(report.incorrect_elements() <= 8);
    assert!(report.incorrect_elements() >= 1);
}

#[test]
fn lavamd_l2_strike_spreads_over_neighbouring_boxes() {
    // A corrupted cached rv line is read by up to 27 neighbour boxes in
    // the Phi's long-lived L2: the paper's cubic pattern in box space.
    let device = DeviceConfig::xeon_phi_3120a();
    let engine = Engine::new(device);
    let mut kernel = LavaMd::new(4, 6, 3).unwrap();
    let golden = engine.golden(&mut kernel).unwrap();
    let mut found_multibox = false;
    for seed in 0..40u64 {
        let strike = StrikeSpec::new(4, StrikeTarget::L2 { mask: 1 << 61 });
        let mut rng = StdRng::seed_from_u64(seed);
        let run = engine
            .run(&mut kernel, &[strike], &mut rng, None, None)
            .unwrap();
        let boxes: std::collections::HashSet<_> = golden
            .output
            .iter()
            .zip(&run.output)
            .enumerate()
            .filter(|(_, (g, o))| g != o)
            .map(|(i, _)| kernel.error_coord(i))
            .collect();
        if boxes.len() >= 4 {
            found_multibox = true;
            break;
        }
    }
    assert!(
        found_multibox,
        "some input strike must spread over several boxes"
    );
}

#[test]
fn masked_strikes_leave_output_untouched() {
    // An FPU strike with an op index beyond the tile's work never lands.
    let strike = StrikeSpec::new(
        0,
        StrikeTarget::Fpu {
            mask: 1 << 60,
            op_index: u64::MAX / 2,
        },
    );
    let (golden, observed) = run_dgemm(DeviceConfig::kepler_k40(), strike, 5);
    assert_eq!(golden, observed);
}
