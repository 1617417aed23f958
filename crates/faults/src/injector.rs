//! A software fault-injector baseline (SASSIFI / GPU-Qin class).
//!
//! §IV-D: "Fault injectors provide the user with access to only a limited
//! set of GPU resources. Thus, not all the possible sources of errors can
//! be considered. Hardware schedulers and dispatchers as well as the PCIe
//! controller, for instance, are among the inaccessible resources. Due to
//! the limitations of fault injection, we take advantage of the
//! controlled neutron beam."
//!
//! This module implements exactly that limited tool against our simulated
//! machine: an injector that can flip bits only in *architecturally
//! visible* state — register values (instruction outputs) and memory/cache
//! data — and knows nothing of schedulers, dispatch queues, SFU pipelines
//! or core control paths. Comparing an injector campaign with a beam
//! campaign quantifies what the invisible resources contribute, turning
//! the paper's qualitative argument into numbers.

use rand::Rng;

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::strike::{StrikeSpec, StrikeTarget};

use crate::sampler::InjectionPlan;
use crate::site::{Site, SiteTable};

/// Which sites a SASSIFI/GPU-Qin-class tool can reach.
const INJECTABLE_SITES: [Site; 5] = [
    Site::CacheL2,
    Site::CacheL1,
    Site::RegisterFile,
    Site::VectorRegister,
    Site::Fpu,
];

/// A software fault injector: like [`crate::sampler::FaultSampler`], but
/// restricted to the architecturally visible sites and — like real
/// injector studies — sampling them *uniformly per instruction/value*
/// rather than by physical cross-section.
#[derive(Debug, Clone)]
pub struct SoftwareInjector {
    tiles: usize,
    ops_per_tile: u64,
    vector_lanes: u32,
}

impl SoftwareInjector {
    /// Builds an injector for a profiled program.
    pub fn new(cfg: &DeviceConfig, profile: &ExecutionProfile) -> Self {
        let tiles = profile.tiles.max(1);
        SoftwareInjector {
            tiles,
            ops_per_tile: (profile.total_ops / tiles as u64).max(1),
            vector_lanes: cfg.vector_lanes_f64() as u32,
        }
    }

    /// Samples one injection: a single bit flip in a dynamically chosen
    /// destination register value (the SASSIFI "IOV" mode) or in a cached
    /// data element.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> InjectionPlan {
        let at_tile = rng.gen_range(0..self.tiles);
        let mask = 1u64 << rng.gen_range(0..64);
        // Injector studies weight by dynamic instruction/value counts:
        // most visible values are instruction outputs, the rest memory.
        let target = if rng.gen_bool(0.7) {
            if self.vector_lanes > 1 && rng.gen_bool(0.5) {
                StrikeTarget::VectorRegister {
                    mask,
                    lanes: 1,
                    op_index: rng.gen_range(0..self.ops_per_tile),
                }
            } else {
                StrikeTarget::RegisterFile {
                    mask,
                    op_index: rng.gen_range(0..self.ops_per_tile),
                }
            }
        } else if rng.gen_bool(0.7) {
            StrikeTarget::L2 { mask }
        } else {
            StrikeTarget::L1 { mask }
        };
        InjectionPlan::Strike(StrikeSpec::new(at_tile, target))
    }

    /// The fraction of the *physical* cross-section a software injector
    /// can see for this program — the coverage gap of §IV-D. Computed
    /// from the beam model's site table.
    pub fn visible_cross_section_fraction(table: &SiteTable) -> f64 {
        let visible: f64 = INJECTABLE_SITES.iter().map(|&s| table.weight(s)).sum();
        if table.total() == 0.0 {
            0.0
        } else {
            visible / table.total()
        }
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
            tiles: 64,
            threads_per_tile: 16,
            instantiated_threads: 1024,
            resident_threads: 1024,
            wave_size: 64,
            total_ops: 100_000,
            transcendental_ops: 1_000,
            loads: 10_000,
            stores: 1_000,
            cache: CacheStats::default(),
            l2_avg_resident_bytes: 1.0e5,
            l1_avg_resident_bytes: 1.0e4,
        }
    }

    #[test]
    fn injector_never_reaches_hidden_sites() {
        let cfg = DeviceConfig::kepler_k40();
        let injector = SoftwareInjector::new(&cfg, &profile());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20_000 {
            match injector.sample(&mut rng) {
                InjectionPlan::Strike(spec) => {
                    let name = spec.target.site_name();
                    assert!(
                        ["l2", "l1", "register_file", "vector_register", "fpu"].contains(&name),
                        "injector reached hidden site {name}"
                    );
                    assert!(spec.at_tile < 64);
                }
                fatal => panic!("software injection cannot crash the node by itself: {fatal:?}"),
            }
        }
    }

    #[test]
    fn phi_injector_uses_vector_registers() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let injector = SoftwareInjector::new(&cfg, &profile());
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut saw_vector = false;
        for _ in 0..1_000 {
            if let InjectionPlan::Strike(spec) = injector.sample(&mut rng) {
                if spec.target.site_name() == "vector_register" {
                    saw_vector = true;
                    break;
                }
            }
        }
        assert!(saw_vector);
    }

    #[test]
    fn visible_fraction_is_a_proper_fraction_and_misses_coverage() {
        let cfg = DeviceConfig::kepler_k40();
        let table = SiteTable::for_program(&cfg, &profile());
        let frac = SoftwareInjector::visible_cross_section_fraction(&table);
        assert!(frac > 0.0 && frac < 1.0, "visible fraction {frac}");
        // The hidden remainder is exactly the scheduler/control/SFU/fatal
        // share.
        let hidden: f64 = [
            Site::Sfu,
            Site::CoreControl,
            Site::Scheduler,
            Site::FatalLogic,
        ]
        .iter()
        .map(|&s| table.share(s))
        .sum();
        assert!((frac + hidden - 1.0).abs() < 1e-9);
    }
}
