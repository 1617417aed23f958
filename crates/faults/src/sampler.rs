//! The fault sampler: from "a neutron struck the die" to a concrete
//! injection plan.
//!
//! Beam statistics sample *which* structure is upset proportionally to
//! its exposed cross-section ([`SiteTable`]), then the structure
//! determines the observable effect: an immediately fatal event (crash or
//! hang), or a [`StrikeSpec`] delivered to the engine. Corruption
//! patterns follow the physics:
//!
//! * SRAM strikes flip one bit, or 2–[`calib::MBU_MAX_BITS`] *adjacent*
//!   bits for multi-bit upsets;
//! * logic/pipeline strikes flip one bit of one in-flight result;
//! * a 512-bit vector-register strike corrupts the same bit in several
//!   consecutive lanes;
//! * core-control strikes replay stale store-queue data over a short
//!   store burst.

use rand::Rng;
use serde::{Deserialize, Serialize};

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};

use crate::calib;
use crate::site::{Site, SiteTable};

/// What one sampled neutron does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectionPlan {
    /// The device crashes: the application is killed and restarted
    /// (detectable, §II-A outcome 3).
    Crash,
    /// The node hangs and must be rebooted (outcome 4).
    Hang,
    /// A corruption is delivered to the machine; whether it becomes an
    /// SDC or is masked is decided by running the program and comparing
    /// outputs.
    Strike(StrikeSpec),
}

impl InjectionPlan {
    /// Whether the plan is immediately fatal.
    pub fn is_fatal(&self) -> bool {
        matches!(self, InjectionPlan::Crash | InjectionPlan::Hang)
    }
}

/// Samples injection plans for one `(device, program)` pair.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    table: SiteTable,
    tiles: usize,
    ops_per_tile: u64,
    trans_per_tile: u64,
    stores_per_tile: u64,
    vector_lanes: u32,
}

impl FaultSampler {
    /// Builds a sampler from the device configuration and the golden
    /// execution profile.
    pub fn new(cfg: &DeviceConfig, profile: &ExecutionProfile) -> Self {
        let tiles = profile.tiles.max(1);
        FaultSampler {
            table: SiteTable::for_program(cfg, profile),
            tiles,
            ops_per_tile: (profile.total_ops / tiles as u64).max(1),
            trans_per_tile: (profile.transcendental_ops / tiles as u64).max(1),
            stores_per_tile: (profile.stores / tiles as u64).max(1),
            vector_lanes: cfg.vector_lanes_f64() as u32,
        }
    }

    /// The underlying cross-section table.
    pub fn table(&self) -> &SiteTable {
        &self.table
    }

    /// Samples one injection plan.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> InjectionPlan {
        let site = self.table.sample(rng);
        self.plan_for(site, rng)
    }

    /// Samples a plan conditioned on a given site (used by per-site
    /// studies and tests).
    fn plan_for<R: Rng + ?Sized>(&self, site: Site, rng: &mut R) -> InjectionPlan {
        let at_tile = rng.gen_range(0..self.tiles);
        match site {
            Site::FatalLogic => self.fatal(rng),
            Site::Scheduler => {
                if rng.gen_bool(calib::SCHEDULER_FATAL) {
                    self.fatal(rng)
                } else {
                    let effect = match rng.gen_range(0..3u8) {
                        0 => SchedulerEffect::SkipTile,
                        1 => SchedulerEffect::RedirectTile,
                        _ => SchedulerEffect::GarbleTile,
                    };
                    InjectionPlan::Strike(StrikeSpec::new(at_tile, StrikeTarget::Scheduler(effect)))
                }
            }
            Site::CacheL2 => InjectionPlan::Strike(StrikeSpec::new(
                at_tile,
                StrikeTarget::L2 {
                    mask: sram_mask(rng),
                },
            )),
            Site::CacheL1 => InjectionPlan::Strike(StrikeSpec::new(
                at_tile,
                StrikeTarget::L1 {
                    mask: sram_mask(rng),
                },
            )),
            Site::RegisterFile => InjectionPlan::Strike(StrikeSpec::new(
                at_tile,
                StrikeTarget::RegisterFile {
                    mask: single_bit(rng),
                    op_index: rng.gen_range(0..self.ops_per_tile),
                },
            )),
            Site::VectorRegister => {
                let lanes = rng.gen_range(2..=self.vector_lanes.max(2));
                InjectionPlan::Strike(StrikeSpec::new(
                    at_tile,
                    StrikeTarget::VectorRegister {
                        mask: single_bit(rng),
                        lanes,
                        op_index: rng.gen_range(0..self.ops_per_tile),
                    },
                ))
            }
            Site::Fpu => InjectionPlan::Strike(StrikeSpec::new(
                at_tile,
                StrikeTarget::Fpu {
                    mask: single_bit(rng),
                    op_index: rng.gen_range(0..self.ops_per_tile),
                },
            )),
            Site::Sfu => InjectionPlan::Strike(StrikeSpec::new(
                at_tile,
                StrikeTarget::Sfu {
                    // Table-based SFUs are dominated by their range-
                    // reduction/exponent stages: an upset there scales
                    // the effective argument by ± powers of two, which is
                    // what makes corrupted transcendentals explode
                    // (§V-B).
                    scale: -(f64::powi(2.0, rng.gen_range(3..8))),
                    op_index: rng.gen_range(0..self.trans_per_tile),
                },
            )),
            Site::CoreControl => {
                if rng.gen_bool(calib::CONTROL_UNIT_GARBLE) {
                    // Task-state corruption: the core's remaining chunk
                    // computes garbage.
                    InjectionPlan::Strike(StrikeSpec::new(at_tile, StrikeTarget::UnitGarble))
                } else {
                    // Store-queue corruption: a short burst of stale
                    // stores.
                    InjectionPlan::Strike(StrikeSpec::new(
                        at_tile,
                        StrikeTarget::CoreControl {
                            elems: rng.gen_range(1..=4),
                            store_index: rng.gen_range(0..self.stores_per_tile),
                        },
                    ))
                }
            }
        }
    }

    /// Samples the strikes of one execution under a flux where the
    /// expected number of state-corrupting neutrons per run is
    /// `mean_strikes` — the quantity §IV-D keeps below 10⁻³. Draws
    /// `k ~ Poisson(mean_strikes)` plans; any fatal plan aborts the run
    /// immediately (crash/hang), otherwise all sampled strikes land in
    /// the same execution.
    ///
    /// # Panics
    ///
    /// Panics if `mean_strikes` is not positive and finite.
    pub fn sample_burst<R: Rng + ?Sized>(&self, rng: &mut R, mean_strikes: f64) -> BurstPlan {
        assert!(
            mean_strikes.is_finite() && mean_strikes > 0.0,
            "mean strikes must be positive, got {mean_strikes}"
        );
        let k = poisson(rng, mean_strikes);
        let mut strikes = Vec::with_capacity(k);
        for _ in 0..k {
            match self.sample(rng) {
                InjectionPlan::Crash => return BurstPlan::Crash,
                InjectionPlan::Hang => return BurstPlan::Hang,
                InjectionPlan::Strike(spec) => strikes.push(spec),
            }
        }
        BurstPlan::Strikes(strikes)
    }

    fn fatal<R: Rng + ?Sized>(&self, rng: &mut R) -> InjectionPlan {
        if rng.gen_bool(calib::CRASH_VS_HANG) {
            InjectionPlan::Crash
        } else {
            InjectionPlan::Hang
        }
    }
}

/// The outcome of sampling one execution's worth of neutron arrivals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BurstPlan {
    /// A fatal event ends the run.
    Crash,
    /// A fatal hang ends the run.
    Hang,
    /// Zero or more strikes land in the same execution.
    Strikes(Vec<StrikeSpec>),
}

/// Knuth's Poisson sampler (adequate for the small means of §IV-D
/// studies; O(mean) time).
fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // guard against pathological means
        }
    }
}

/// One random bit of an f64.
fn single_bit<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    1u64 << rng.gen_range(0..64)
}

/// An SRAM strike pattern: usually one bit, sometimes a burst of
/// adjacent bits (MBU).
fn sram_mask<R: Rng + ?Sized>(rng: &mut R) -> u64 {
    if rng.gen_bool(calib::MBU_PROBABILITY) {
        let bits = rng.gen_range(2..=calib::MBU_MAX_BITS);
        let start = rng.gen_range(0..(64 - bits));
        (((1u128 << bits) - 1) as u64) << start
    } else {
        single_bit(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_accel::cache::CacheStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn profile() -> ExecutionProfile {
        ExecutionProfile {
            tiles: 100,
            threads_per_tile: 16,
            instantiated_threads: 1600,
            resident_threads: 1600,
            wave_size: 100,
            total_ops: 1_000_000,
            transcendental_ops: 100_000,
            loads: 500_000,
            stores: 50_000,
            cache: CacheStats::default(),
            l2_avg_resident_bytes: 1.0e6,
            l1_avg_resident_bytes: 1.0e5,
        }
    }

    fn sampler(cfg: &DeviceConfig) -> FaultSampler {
        FaultSampler::new(cfg, &profile())
    }

    #[test]
    fn plans_are_well_formed() {
        let cfg = DeviceConfig::kepler_k40();
        let s = sampler(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        for _ in 0..10_000 {
            match s.sample(&mut rng) {
                InjectionPlan::Crash | InjectionPlan::Hang => {}
                InjectionPlan::Strike(spec) => {
                    assert!(spec.at_tile < 100);
                    match spec.target {
                        StrikeTarget::L2 { mask } | StrikeTarget::L1 { mask } => {
                            assert_ne!(mask, 0);
                            assert!(mask.count_ones() <= calib::MBU_MAX_BITS);
                        }
                        StrikeTarget::RegisterFile { mask, op_index }
                        | StrikeTarget::Fpu { mask, op_index } => {
                            assert_eq!(mask.count_ones(), 1);
                            assert!(op_index < 10_000);
                        }
                        StrikeTarget::VectorRegister { mask, lanes, .. } => {
                            assert_eq!(mask.count_ones(), 1);
                            assert!((2..=8).contains(&lanes));
                        }
                        StrikeTarget::Sfu { scale, op_index } => {
                            assert!(scale.abs() >= 8.0 && scale.abs() <= 128.0);
                            assert!(op_index < 1_000);
                        }
                        StrikeTarget::CoreControl { elems, store_index } => {
                            assert!((1..=4).contains(&elems));
                            assert!(store_index < 500);
                        }
                        StrikeTarget::UnitGarble => {}
                        StrikeTarget::Scheduler(_) => {}
                    }
                }
            }
        }
    }

    #[test]
    fn mbu_masks_are_adjacent_bits() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..10_000 {
            let m = sram_mask(&mut rng);
            assert_ne!(m, 0);
            // An adjacent-bit burst divided by its lowest set bit is
            // 2^k - 1 (all ones).
            let norm = m >> m.trailing_zeros();
            assert_eq!(norm & (norm + 1), 0, "mask {m:#x} not contiguous");
        }
    }

    #[test]
    fn k40_dgemm_like_profiles_sample_scheduler_strikes() {
        let cfg = DeviceConfig::kepler_k40();
        let s = sampler(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..20_000 {
            match s.sample(&mut rng) {
                InjectionPlan::Crash => kinds.insert("crash"),
                InjectionPlan::Hang => kinds.insert("hang"),
                InjectionPlan::Strike(spec) => kinds.insert(spec.target.site_name()),
            };
        }
        for expected in ["crash", "hang", "l2", "fpu", "register_file"] {
            assert!(kinds.contains(expected), "missing {expected}: {kinds:?}");
        }
    }

    #[test]
    fn phi_samples_vector_and_control_strikes() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let s = sampler(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..20_000 {
            if let InjectionPlan::Strike(spec) = s.sample(&mut rng) {
                kinds.insert(spec.target.site_name());
            }
        }
        assert!(kinds.contains("vector_register"));
        assert!(kinds.contains("core_control") || kinds.contains("unit_garble"));
        assert!(kinds.contains("unit_garble"));
        assert!(!kinds.contains("sfu"), "Phi has no exposed SFU");
    }

    #[test]
    fn burst_sampling_matches_poisson_mean() {
        let cfg = DeviceConfig::kepler_k40();
        let s = sampler(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mean = 0.8f64;
        let (mut total, mut fatal) = (0usize, 0usize);
        let n = 20_000;
        for _ in 0..n {
            match s.sample_burst(&mut rng, mean) {
                BurstPlan::Crash | BurstPlan::Hang => fatal += 1,
                BurstPlan::Strikes(v) => total += v.len(),
            }
        }
        // Fatal runs truncate their bursts, so the surviving strike count
        // sits below n x mean but well above zero.
        assert!(total > 0 && total < n * 2);
        assert!(fatal > 0, "some bursts must hit fatal logic");
        // At the paper's 1e-3 regime, almost every run is strike-free.
        let mut quiet = 0;
        for _ in 0..5_000 {
            if s.sample_burst(&mut rng, 1e-3) == BurstPlan::Strikes(vec![]) {
                quiet += 1;
            }
        }
        assert!(quiet > 4_950, "quiet runs: {quiet}");
    }

    #[test]
    fn crash_hang_ratio_matches_calibration() {
        let cfg = DeviceConfig::kepler_k40();
        let s = sampler(&cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (mut crash, mut hang) = (0u32, 0u32);
        for _ in 0..50_000 {
            match s.plan_for(Site::FatalLogic, &mut rng) {
                InjectionPlan::Crash => crash += 1,
                InjectionPlan::Hang => hang += 1,
                InjectionPlan::Strike(_) => panic!("fatal site cannot strike"),
            }
        }
        let ratio = f64::from(crash) / f64::from(crash + hang);
        assert!((ratio - calib::CRASH_VS_HANG).abs() < 0.01);
    }
}
