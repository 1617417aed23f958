//! Strike sites and their cross-section table.
//!
//! Beam experiments irradiate *everything* on the die — caches, register
//! files, functional units, scheduler and control logic (§IV-D: fault
//! injectors reach only a subset of these, which is why the paper uses a
//! beam). The probability that a given neutron upsets a given structure
//! is proportional to that structure's exposed sensitive area, which
//! depends on the device *and* on the running program (occupied cache
//! bytes, live registers, pending scheduler entries).

use rand::Rng;
use serde::{Deserialize, Serialize};

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::scheduler::ExposureModel;

use crate::calib::{self, Protection};

/// A machine structure a neutron can upset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Site {
    /// Shared L2 cache data.
    CacheL2,
    /// Per-unit L1 cache data.
    CacheL1,
    /// Register file / operand-collector state (scalar devices).
    RegisterFile,
    /// Wide vector register state (Phi's 512-bit VPU).
    VectorRegister,
    /// FPU pipeline latches.
    Fpu,
    /// Transcendental-unit pipeline latches (devices with an exposed
    /// SFU).
    Sfu,
    /// Core control path (store queues, address generation) — the
    /// complex-core site (§V-E).
    CoreControl,
    /// Scheduler state (hardware queue on the K40, per-core task state on
    /// the Phi).
    Scheduler,
    /// Always-fatal logic (instruction fetch, PCIe, clocking).
    FatalLogic,
}

impl Site {
    /// All sites, for iteration.
    pub const ALL: [Site; 9] = [
        Site::CacheL2,
        Site::CacheL1,
        Site::RegisterFile,
        Site::VectorRegister,
        Site::Fpu,
        Site::Sfu,
        Site::CoreControl,
        Site::Scheduler,
        Site::FatalLogic,
    ];

    /// A short name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            Site::CacheL2 => "l2",
            Site::CacheL1 => "l1",
            Site::RegisterFile => "register_file",
            Site::VectorRegister => "vector_register",
            Site::Fpu => "fpu",
            Site::Sfu => "sfu",
            Site::CoreControl => "core_control",
            Site::Scheduler => "scheduler",
            Site::FatalLogic => "fatal_logic",
        }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Site {
    type Err = String;

    /// Parses the [`Site::name`] form back into the site. The strings are
    /// a stable external ID: they appear in campaign records, event
    /// streams and provenance reports, and parsing is the exact inverse
    /// of [`std::fmt::Display`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Site::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| format!("unknown fault site {s:?}"))
    }
}

/// Per-site cross sections (in byte-equivalents, see
/// [`calib`]) for one `(device, program)` pair.
///
/// # Examples
///
/// ```
/// use radcrit_accel::{config::DeviceConfig, engine::Engine};
/// use radcrit_faults::site::{Site, SiteTable};
/// # use radcrit_accel::{error::AccelError, memory::{BufferId, DeviceMemory},
/// #                     program::{TileCtx, TileId, TiledProgram}};
/// # use radcrit_core::shape::OutputShape;
/// # #[derive(Debug)] struct Noop(Option<BufferId>);
/// # impl TiledProgram for Noop {
/// #     fn name(&self) -> &str { "noop" }
/// #     fn tile_count(&self) -> usize { 1 }
/// #     fn threads_per_tile(&self) -> usize { 1 }
/// #     fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
/// #         self.0 = Some(mem.alloc("o", 1)); Ok(())
/// #     }
/// #     fn execute_tile(&mut self, _: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
/// #         let v = ctx.op(1.0); ctx.write_one(self.0.unwrap(), 0, v)
/// #     }
/// #     fn output(&self) -> BufferId { self.0.unwrap() }
/// #     fn output_shape(&self) -> OutputShape { OutputShape::d1(1) }
/// # }
/// let cfg = DeviceConfig::kepler_k40();
/// let engine = Engine::new(cfg.clone());
/// let mut program = Noop(None);
/// let golden = engine.golden(&mut program).map_err(|e| e.to_string())?;
/// let table = SiteTable::for_program(&cfg, &golden.profile);
/// assert!(table.total() > 0.0);
/// assert!(table.weight(Site::Fpu) > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteTable {
    weights: Vec<(Site, f64)>,
    total: f64,
}

impl SiteTable {
    /// Builds the table for a device and an execution profile (from a
    /// golden run).
    pub fn for_program(cfg: &DeviceConfig, profile: &ExecutionProfile) -> Self {
        let prot = Protection::for_config(cfg);
        let sens = cfg.per_bit_sensitivity();
        let exposure = ExposureModel::for_program(
            cfg,
            // Per-launch thread counts: what one kernel launch exposes.
            profile.instantiated_threads,
            profile.resident_threads,
            profile.l2_avg_resident_bytes,
            profile.l1_avg_resident_bytes,
        );

        let mut weights = Vec::new();
        let mut push = |site: Site, w: f64| {
            if w > 0.0 {
                weights.push((site, w));
            }
        };

        push(Site::CacheL2, exposure.l2 * sens * prot.cache);
        push(
            Site::CacheL1,
            exposure.l1 * sens * prot.cache * calib::L1_FACTOR,
        );

        let rf = exposure.register_file * sens * prot.register_file * (1.0 - cfg.ecc_coverage());
        if cfg.vector_lanes_f64() > 1 {
            push(Site::VectorRegister, rf);
        } else {
            push(Site::RegisterFile, rf);
        }

        let units = cfg.units() as f64;
        push(
            Site::Fpu,
            calib::FPU_AREA_PER_UNIT * units * sens * prot.fpu,
        );

        if cfg.exposed_sfu() && profile.transcendental_ops > 0 {
            let util = (profile.transcendental_fraction() * calib::SFU_UTILIZATION_GAIN).min(1.0);
            push(Site::Sfu, calib::SFU_AREA_PER_UNIT * units * sens * util);
        }

        push(
            Site::CoreControl,
            calib::CONTROL_AREA_PER_UNIT * units * sens * prot.control,
        );

        // ExposureModel carries the per-warp scheduler constant;
        // prot.scheduler scales it per device.
        push(Site::Scheduler, exposure.scheduler * sens * prot.scheduler);

        push(
            Site::FatalLogic,
            calib::FATAL_AREA_PER_UNIT * units * sens * prot.fatal,
        );

        let total = weights.iter().map(|(_, w)| w).sum();
        SiteTable { weights, total }
    }

    /// The weight of one site (0 when absent).
    pub fn weight(&self, site: Site) -> f64 {
        self.weights
            .iter()
            .find(|(s, _)| *s == site)
            .map(|(_, w)| *w)
            .unwrap_or(0.0)
    }

    /// The site's share of the total cross-section.
    pub fn share(&self, site: Site) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.weight(site) / self.total
        }
    }

    /// Total cross-section in byte-equivalents.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Total cross-section in the pseudo-cm² of the single-strike
    /// criterion.
    pub fn total_cm2(&self) -> f64 {
        self.total * calib::BYTE_EQUIV_TO_CM2
    }

    /// Samples a site proportionally to its weight.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty (a program with no exposed state).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Site {
        assert!(self.total > 0.0, "cannot sample from an empty site table");
        let mut x = rng.gen_range(0.0..self.total);
        for (site, w) in &self.weights {
            if x < *w {
                return *site;
            }
            x -= w;
        }
        self.weights.last().expect("non-empty").0
    }

    /// Iterates `(site, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Site, f64)> + '_ {
        self.weights.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_accel::cache::CacheStats;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn profile(tiles: usize, threads: usize, l2_bytes: f64, trans: u64) -> ExecutionProfile {
        ExecutionProfile {
            tiles,
            threads_per_tile: threads,
            instantiated_threads: tiles * threads,
            resident_threads: tiles * threads,
            wave_size: tiles.max(1),
            total_ops: 1_000_000,
            transcendental_ops: trans,
            loads: 100_000,
            stores: 10_000,
            cache: CacheStats::default(),
            l2_avg_resident_bytes: l2_bytes,
            l1_avg_resident_bytes: l2_bytes / 10.0,
        }
    }

    #[test]
    fn site_names_round_trip_through_display_and_from_str() {
        for site in Site::ALL {
            let name = site.to_string();
            assert_eq!(name, site.name());
            assert_eq!(name.parse::<Site>().unwrap(), site, "{name}");
        }
        assert!("l3".parse::<Site>().is_err());
        assert!("".parse::<Site>().is_err());
        assert!("L2".parse::<Site>().is_err(), "IDs are case-sensitive");
    }

    #[test]
    fn k40_has_sfu_and_hw_scheduler_sites() {
        let cfg = DeviceConfig::kepler_k40();
        let t = SiteTable::for_program(&cfg, &profile(4096, 16, 1.0e6, 50_000));
        assert!(t.weight(Site::Sfu) > 0.0, "exposed SFU");
        assert!(t.weight(Site::Scheduler) > 0.0);
        assert!(t.weight(Site::RegisterFile) > 0.0);
        assert_eq!(t.weight(Site::VectorRegister), 0.0, "scalar registers");
    }

    #[test]
    fn phi_has_vector_site_and_no_sfu() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let t = SiteTable::for_program(&cfg, &profile(4096, 4, 1.0e6, 50_000));
        assert_eq!(t.weight(Site::Sfu), 0.0);
        assert!(t.weight(Site::VectorRegister) > 0.0);
        assert_eq!(t.weight(Site::RegisterFile), 0.0);
    }

    #[test]
    fn no_transcendentals_no_sfu_site() {
        let cfg = DeviceConfig::kepler_k40();
        let t = SiteTable::for_program(&cfg, &profile(4096, 16, 1.0e6, 0));
        assert_eq!(t.weight(Site::Sfu), 0.0);
    }

    #[test]
    fn k40_scheduler_weight_grows_with_threads() {
        let cfg = DeviceConfig::kepler_k40();
        let small = SiteTable::for_program(&cfg, &profile(4096, 16, 1.0e6, 0));
        let large = SiteTable::for_program(&cfg, &profile(65536, 16, 1.0e6, 0));
        assert!(
            large.weight(Site::Scheduler) / small.weight(Site::Scheduler) > 10.0,
            "hardware scheduler queue grows with pending blocks"
        );
        // Total cross-section grows markedly: the paper's DGEMM FIT
        // growth driver (§V-A).
        assert!(large.total() / small.total() > 2.0);
    }

    #[test]
    fn phi_total_is_flat_in_threads() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let small = SiteTable::for_program(&cfg, &profile(4096, 4, 1.0e6, 0));
        let large = SiteTable::for_program(&cfg, &profile(65536, 4, 1.0e6, 0));
        let growth = large.total() / small.total();
        assert!(
            growth < 1.3,
            "OS scheduler in DRAM: total must stay nearly flat, grew {growth}"
        );
    }

    #[test]
    fn cache_weight_scales_with_occupancy() {
        let cfg = DeviceConfig::xeon_phi_3120a();
        let a = SiteTable::for_program(&cfg, &profile(4096, 4, 1.0e6, 0));
        let b = SiteTable::for_program(&cfg, &profile(4096, 4, 2.0e6, 0));
        let ratio = b.weight(Site::CacheL2) / a.weight(Site::CacheL2);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn shares_sum_to_one() {
        let cfg = DeviceConfig::kepler_k40();
        let t = SiteTable::for_program(&cfg, &profile(4096, 16, 1.0e6, 100));
        let sum: f64 = Site::ALL.iter().map(|&s| t.share(s)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_weights() {
        let cfg = DeviceConfig::kepler_k40();
        let t = SiteTable::for_program(&cfg, &profile(65536, 16, 1.0e6, 100_000));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(t.sample(&mut rng)).or_insert(0usize) += 1;
        }
        for site in Site::ALL {
            let expected = t.share(site);
            let observed = *counts.get(&site).unwrap_or(&0) as f64 / n as f64;
            assert!(
                (expected - observed).abs() < 0.01,
                "{site}: expected {expected:.3}, observed {observed:.3}"
            );
        }
    }
}
