//! Device configurations.
//!
//! §IV-A of the paper describes the two boards under test. The presets
//! here carry the published microarchitectural parameters so that the
//! simulator's behaviour (cache sharing, scheduler strain, register
//! exposure) is driven by the real geometry of each device.

use serde::{Deserialize, Serialize};

use crate::cache::CacheGeometry;
use crate::error::AccelError;

/// Which real accelerator a configuration models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// NVIDIA Tesla K40 (Kepler GK110b, 28 nm planar TSMC).
    KeplerK40,
    /// Intel Xeon Phi coprocessor 3120A (Knights Corner, 22 nm Tri-gate).
    XeonPhi3120A,
    /// A user-defined device.
    Custom,
}

impl std::fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceKind::KeplerK40 => f.write_str("K40"),
            DeviceKind::XeonPhi3120A => f.write_str("Xeon Phi"),
            DeviceKind::Custom => f.write_str("custom"),
        }
    }
}

/// How parallel work is dispatched to execution units (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// A hardware block scheduler (NVIDIA): an irradiated on-chip resource
    /// whose exposed state grows with the number of managed threads, shown
    /// by the paper to contribute to device sensitivity (§V-A, point 1).
    Hardware,
    /// An operating-system software scheduler (Intel): scheduling state
    /// lives mostly in DRAM, which the beam does not reach, so only small
    /// per-core hardware task state is exposed.
    OperatingSystem,
}

/// Where the data of threads that are active but waiting lives
/// (§V-A, point 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResidencyPolicy {
    /// NVIDIA: waiting threads' data is kept in registers, so exposure
    /// grows with the number of instantiated threads. Register-file ECC
    /// mitigates but does not cover internal queues and flip-flops.
    RegisterResident,
    /// Intel: a core runs up to its hardware-thread count and subsequent
    /// work waits in DRAM, adding no exposed state.
    DramParked,
}

/// Full description of a simulated accelerator.
///
/// Construct one with [`DeviceConfig::kepler_k40`],
/// [`DeviceConfig::xeon_phi_3120a`] or [`DeviceConfig::builder`].
///
/// # Examples
///
/// ```
/// use radcrit_accel::config::DeviceConfig;
///
/// let k40 = DeviceConfig::kepler_k40();
/// assert_eq!(k40.units(), 15);                      // streaming multiprocessors
/// let phi = DeviceConfig::xeon_phi_3120a();
/// assert_eq!(phi.units(), 57);                      // in-order cores
/// assert!(phi.l2().size_bytes > k40.l2().size_bytes); // the paper's key asymmetry
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    kind: DeviceKind,
    name: String,
    units: usize,
    max_threads_per_unit: usize,
    hw_threads_per_unit: usize,
    register_file_bytes_per_unit: usize,
    l1: CacheGeometry,
    l2: CacheGeometry,
    scheduler: SchedulerKind,
    residency: ResidencyPolicy,
    ecc_register_file: bool,
    ecc_coverage: f64,
    vector_lanes_f64: usize,
    exposed_sfu: bool,
    per_bit_sensitivity: f64,
    shared_mem_per_unit: usize,
}

impl DeviceConfig {
    /// The NVIDIA Tesla K40 configuration (§IV-A):
    /// GK110b, 15 SMs, up to 2048 threads/SM, 30 Mbit total register file,
    /// 64 KB L1/shared per SM, 1536 KB L2, hardware scheduler,
    /// ECC-protected registers, 28 nm planar transistors.
    pub fn kepler_k40() -> Self {
        DeviceConfig {
            kind: DeviceKind::KeplerK40,
            name: "NVIDIA Tesla K40 (GK110b)".to_owned(),
            units: 15,
            max_threads_per_unit: 2048,
            hw_threads_per_unit: 2048,
            // 30 Mbit total / 15 SMs = 2 Mbit = 256 KiB per SM.
            register_file_bytes_per_unit: 256 * 1024,
            l1: CacheGeometry::new(64 * 1024, 128, 4).expect("valid K40 L1 geometry"),
            l2: CacheGeometry::new(1536 * 1024, 128, 16).expect("valid K40 L2 geometry"),
            scheduler: SchedulerKind::Hardware,
            residency: ResidencyPolicy::RegisterResident,
            ecc_register_file: true,
            // ECC corrects single-bit upsets in the RF proper; the residual
            // reaches unprotected operand-collector queues and flip-flops
            // (§V-A point 2: "data may still sit in internal queues or
            // flip-flops that are not protected").
            ecc_coverage: 0.9,
            // CUDA cores operate on 32-bit registers; a double occupies a
            // register pair, and an upset perturbs a single value.
            vector_lanes_f64: 1,
            // §V-E hypothesises the K40 transcendental (SFU) unit is more
            // prone to corruption; the Phi has no separate exposed SFU.
            exposed_sfu: true,
            // 28 nm planar bulk: the paper cites a 10x higher per-bit
            // neutron sensitivity than 3-D Tri-gate transistors (§IV-A,
            // citing Noh et al.).
            per_bit_sensitivity: 10.0,
            // 48 KB shared memory per SM: kernels with big per-block
            // local footprints (LavaMD, §V-B) are occupancy-limited by
            // it, not by the thread count.
            shared_mem_per_unit: 48 * 1024,
        }
    }

    /// The Intel Xeon Phi 3120A configuration (§IV-A):
    /// Knights Corner, 57 in-order cores with 4 hardware threads and
    /// 32 × 512-bit vector registers each, 64 KB L1 and 512 KB private
    /// coherent L2 per core (3648 KB / 29184 KB totals), OS scheduler,
    /// 22 nm Tri-gate transistors.
    pub fn xeon_phi_3120a() -> Self {
        DeviceConfig {
            kind: DeviceKind::XeonPhi3120A,
            name: "Intel Xeon Phi 3120A (Knights Corner)".to_owned(),
            units: 57,
            max_threads_per_unit: 4,
            hw_threads_per_unit: 4,
            // 32 vector registers x 64 bytes x 4 threads = 8 KiB, plus
            // scalar state; the VPU file dominates exposure.
            register_file_bytes_per_unit: 32 * 64 * 4,
            l1: CacheGeometry::new(64 * 1024, 64, 8).expect("valid Phi L1 geometry"),
            // L2 is 512 KB per core but fully coherent over the ring: a
            // line cached anywhere serves every core, so the simulator
            // models the aggregate 57 x 512 KB as one shared structure.
            l2: CacheGeometry::new(57 * 512 * 1024, 64, 8).expect("valid Phi L2 geometry"),
            scheduler: SchedulerKind::OperatingSystem,
            residency: ResidencyPolicy::DramParked,
            ecc_register_file: false,
            ecc_coverage: 0.0,
            // A 512-bit vector register holds eight f64 lanes.
            vector_lanes_f64: 8,
            exposed_sfu: false,
            // 22 nm Intel Tri-gate (FinFET-class): reference sensitivity.
            per_bit_sensitivity: 1.0,
            // No CUDA-style software-managed local memory: occupancy is
            // bounded by the 4 hardware threads alone.
            shared_mem_per_unit: 0,
        }
    }

    /// Starts building a custom device.
    pub fn builder(name: impl Into<String>) -> DeviceConfigBuilder {
        DeviceConfigBuilder::new(name)
    }

    /// A geometrically scaled-down variant of this device: caches and the
    /// register file shrink by `divisor`, everything else (unit counts,
    /// scheduler style, ECC, sensitivities — the architectural identity)
    /// stays.
    ///
    /// Campaigns on a software simulator cannot afford the paper's full
    /// input sizes (up to 8192² DGEMM); scaling the inputs *and* the
    /// storage hierarchy by the same factor preserves the ratios that
    /// drive the criticality results — which working sets spill which
    /// cache, and how exposure grows with threads.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when a scaled cache geometry
    /// is not realizable (capacity not divisible into sets).
    pub fn scaled(&self, divisor: usize) -> Result<DeviceConfig, AccelError> {
        if divisor == 0 {
            return Err(AccelError::InvalidConfig("zero scale divisor".into()));
        }
        let mut cfg = self.clone();
        cfg.name = format!("{} (1/{divisor} scale)", self.name);
        cfg.l1 = CacheGeometry::new(
            self.l1.size_bytes / divisor,
            self.l1.line_bytes,
            self.l1.associativity,
        )?;
        cfg.l2 = CacheGeometry::new(
            self.l2.size_bytes / divisor,
            self.l2.line_bytes,
            self.l2.associativity,
        )?;
        cfg.shared_mem_per_unit = self.shared_mem_per_unit / divisor;
        // The register file is per-thread state and scales with the
        // thread count of the (scaled) inputs by itself; shrinking it too
        // would double-count the scaling.
        Ok(cfg)
    }

    /// Which real accelerator this models.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of execution units (SMs for the K40, cores for the Phi).
    pub fn units(&self) -> usize {
        self.units
    }

    /// Maximum concurrently *resident* threads per unit (2048 per SM on
    /// the K40; 4 hardware threads per core on the Phi).
    pub fn max_threads_per_unit(&self) -> usize {
        self.max_threads_per_unit
    }

    /// Register file capacity per unit, in bytes.
    pub fn register_file_bytes_per_unit(&self) -> usize {
        self.register_file_bytes_per_unit
    }

    /// L1 geometry (per unit).
    pub fn l1(&self) -> CacheGeometry {
        self.l1
    }

    /// L2 geometry (shared across units).
    pub fn l2(&self) -> CacheGeometry {
        self.l2
    }

    /// The scheduler implementation style.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Where waiting threads' data resides.
    pub fn residency(&self) -> ResidencyPolicy {
        self.residency
    }

    /// Whether the register file is ECC protected.
    pub fn ecc_register_file(&self) -> bool {
        self.ecc_register_file
    }

    /// Fraction of register-file upsets corrected by ECC (0 when no ECC).
    pub fn ecc_coverage(&self) -> f64 {
        self.ecc_coverage
    }

    /// How many f64 lanes one architectural register holds (8 for the
    /// Phi's 512-bit VPU, 1 for the K40's 32-bit register pairs).
    pub fn vector_lanes_f64(&self) -> usize {
        self.vector_lanes_f64
    }

    /// Whether the device has a separate exposed transcendental unit
    /// (SFU) whose upsets feed corrupted arguments into `exp`/`sqrt`.
    pub fn exposed_sfu(&self) -> bool {
        self.exposed_sfu
    }

    /// Relative per-bit neutron sensitivity of the process technology
    /// (planar ≈ 10 × Tri-gate per the paper's §IV-A).
    pub fn per_bit_sensitivity(&self) -> f64 {
        self.per_bit_sensitivity
    }

    /// How many tiles of `threads_per_tile` threads using
    /// `local_mem_per_tile` bytes of shared memory can be resident on the
    /// whole device at once — the engine's "wave" size.
    ///
    /// Occupancy is the minimum of the thread limit and the shared-memory
    /// limit; §V-B: LavaMD's ~14 KB per block "limits the number of
    /// active threads at any given time on the K40". A tile needing more
    /// threads than a unit supports still occupies one unit.
    pub fn concurrent_tiles(&self, threads_per_tile: usize, local_mem_per_tile: usize) -> usize {
        let by_threads = (self.max_threads_per_unit / threads_per_tile.max(1)).max(1);
        let per_unit = if self.shared_mem_per_unit > 0 && local_mem_per_tile > 0 {
            by_threads.min((self.shared_mem_per_unit / local_mem_per_tile).max(1))
        } else {
            by_threads
        };
        per_unit * self.units
    }

    /// Total resident threads when `tiles` tiles of `threads_per_tile`
    /// threads are launched — capped by occupancy. Drives the
    /// register-exposure model.
    pub fn resident_threads(
        &self,
        tiles: usize,
        threads_per_tile: usize,
        local_mem_per_tile: usize,
    ) -> usize {
        let wanted = tiles.saturating_mul(threads_per_tile);
        wanted
            .min(self.concurrent_tiles(threads_per_tile, local_mem_per_tile) * threads_per_tile)
            // A tile bigger than a unit's thread capacity runs in
            // batches: only the hardware contexts are ever live.
            .min(self.units * self.max_threads_per_unit)
    }
}

/// Builder for custom [`DeviceConfig`]s, for architecture-exploration
/// studies beyond the two paper devices.
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    cfg: DeviceConfig,
}

impl DeviceConfigBuilder {
    fn new(name: impl Into<String>) -> Self {
        let mut cfg = DeviceConfig::kepler_k40();
        cfg.kind = DeviceKind::Custom;
        cfg.name = name.into();
        DeviceConfigBuilder { cfg }
    }

    /// Sets the number of execution units.
    pub fn units(mut self, units: usize) -> Self {
        self.cfg.units = units;
        self
    }

    /// Sets the maximum resident threads per unit.
    pub fn max_threads_per_unit(mut self, n: usize) -> Self {
        self.cfg.max_threads_per_unit = n;
        self.cfg.hw_threads_per_unit = n;
        self
    }

    /// Sets the register-file size per unit in bytes.
    pub fn register_file_bytes_per_unit(mut self, bytes: usize) -> Self {
        self.cfg.register_file_bytes_per_unit = bytes;
        self
    }

    /// Sets the per-unit L1 geometry.
    pub fn l1(mut self, geometry: CacheGeometry) -> Self {
        self.cfg.l1 = geometry;
        self
    }

    /// Sets the shared L2 geometry.
    pub fn l2(mut self, geometry: CacheGeometry) -> Self {
        self.cfg.l2 = geometry;
        self
    }

    /// Sets the scheduler style.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.cfg.scheduler = kind;
        self
    }

    /// Sets the waiting-thread residency policy.
    pub fn residency(mut self, policy: ResidencyPolicy) -> Self {
        self.cfg.residency = policy;
        self
    }

    /// Enables or disables register-file ECC with the given coverage.
    pub fn ecc(mut self, enabled: bool, coverage: f64) -> Self {
        self.cfg.ecc_register_file = enabled;
        self.cfg.ecc_coverage = if enabled { coverage } else { 0.0 };
        self
    }

    /// Sets the vector width in f64 lanes.
    pub fn vector_lanes_f64(mut self, lanes: usize) -> Self {
        self.cfg.vector_lanes_f64 = lanes;
        self
    }

    /// Sets whether an exposed transcendental unit exists.
    pub fn exposed_sfu(mut self, exposed: bool) -> Self {
        self.cfg.exposed_sfu = exposed;
        self
    }

    /// Sets the relative per-bit process sensitivity.
    pub fn per_bit_sensitivity(mut self, s: f64) -> Self {
        self.cfg.per_bit_sensitivity = s;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when a parameter is
    /// non-physical (zero units/threads/lanes, ECC coverage outside
    /// `[0, 1]`, non-positive sensitivity).
    pub fn build(self) -> Result<DeviceConfig, AccelError> {
        let c = &self.cfg;
        if c.units == 0 {
            return Err(AccelError::InvalidConfig("zero execution units".into()));
        }
        if c.max_threads_per_unit == 0 {
            return Err(AccelError::InvalidConfig("zero threads per unit".into()));
        }
        if c.vector_lanes_f64 == 0 {
            return Err(AccelError::InvalidConfig("zero vector lanes".into()));
        }
        if !(0.0..=1.0).contains(&c.ecc_coverage) {
            return Err(AccelError::InvalidConfig(format!(
                "ECC coverage {} outside [0, 1]",
                c.ecc_coverage
            )));
        }
        if c.per_bit_sensitivity <= 0.0 || c.per_bit_sensitivity.is_nan() {
            return Err(AccelError::InvalidConfig(format!(
                "per-bit sensitivity {} must be positive",
                c.per_bit_sensitivity
            )));
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40_matches_published_parameters() {
        let k40 = DeviceConfig::kepler_k40();
        assert_eq!(k40.kind(), DeviceKind::KeplerK40);
        assert_eq!(k40.units(), 15);
        assert_eq!(k40.max_threads_per_unit(), 2048);
        assert_eq!(k40.l1().size_bytes, 64 * 1024);
        assert_eq!(k40.l2().size_bytes, 1536 * 1024);
        assert_eq!(k40.scheduler(), SchedulerKind::Hardware);
        assert_eq!(k40.residency(), ResidencyPolicy::RegisterResident);
        assert!(k40.ecc_register_file());
        assert!(k40.exposed_sfu());
        // 30 Mbit total register file = 15 x 256 KiB.
        assert_eq!(
            k40.register_file_bytes_per_unit() * 15 * 8,
            30 * 1024 * 1024
        );
    }

    #[test]
    fn phi_matches_published_parameters() {
        let phi = DeviceConfig::xeon_phi_3120a();
        assert_eq!(phi.kind(), DeviceKind::XeonPhi3120A);
        assert_eq!(phi.units(), 57);
        assert_eq!(phi.max_threads_per_unit(), 4);
        assert_eq!(phi.l1().size_bytes, 64 * 1024);
        // 29184 KB total coherent L2.
        assert_eq!(phi.l2().size_bytes, 29184 * 1024);
        assert_eq!(phi.scheduler(), SchedulerKind::OperatingSystem);
        assert_eq!(phi.residency(), ResidencyPolicy::DramParked);
        assert_eq!(phi.vector_lanes_f64(), 8);
        assert!(!phi.exposed_sfu());
    }

    #[test]
    fn paper_asymmetries_hold() {
        let k40 = DeviceConfig::kepler_k40();
        let phi = DeviceConfig::xeon_phi_3120a();
        // "Xeon Phi has larger caches than K40" (§V-E).
        assert!(phi.l2().size_bytes > k40.l2().size_bytes);
        // Planar 28 nm is ~10x more per-bit sensitive than Tri-gate.
        assert!(k40.per_bit_sensitivity() > phi.per_bit_sensitivity());
    }

    #[test]
    fn concurrent_tiles_scales_with_threads() {
        let k40 = DeviceConfig::kepler_k40();
        // 256-thread tiles: 8 per SM x 15 SMs.
        assert_eq!(k40.concurrent_tiles(256, 0), 8 * 15);
        // Oversized tiles still occupy one unit each.
        assert_eq!(k40.concurrent_tiles(100_000, 0), 15);
        let phi = DeviceConfig::xeon_phi_3120a();
        assert_eq!(phi.concurrent_tiles(4, 0), 57);
        assert_eq!(phi.concurrent_tiles(1, 0), 4 * 57);
    }

    #[test]
    fn shared_memory_limits_occupancy() {
        let k40 = DeviceConfig::kepler_k40();
        // 32-thread blocks: thread limit allows 64 per SM...
        assert_eq!(k40.concurrent_tiles(32, 0), 64 * 15);
        // ...but 14 KB of local memory allows only 3 (the paper's LavaMD
        // situation, SS V-B).
        assert_eq!(k40.concurrent_tiles(32, 14 * 1024), 3 * 15);
        // The Phi has no software-managed local memory: no effect.
        let phi = DeviceConfig::xeon_phi_3120a();
        assert_eq!(phi.concurrent_tiles(4, 14 * 1024), 57);
    }

    #[test]
    fn resident_threads_is_capped() {
        let phi = DeviceConfig::xeon_phi_3120a();
        assert_eq!(phi.resident_threads(1000, 4, 0), 57 * 4);
        assert_eq!(phi.resident_threads(10, 4, 0), 40);
        let k40 = DeviceConfig::kepler_k40();
        assert_eq!(
            k40.resident_threads(10_000, 32, 14 * 1024),
            3 * 15 * 32,
            "local memory bounds residency"
        );
    }

    #[test]
    fn builder_validates() {
        assert!(DeviceConfig::builder("bad").units(0).build().is_err());
        assert!(DeviceConfig::builder("bad")
            .max_threads_per_unit(0)
            .build()
            .is_err());
        assert!(DeviceConfig::builder("bad")
            .vector_lanes_f64(0)
            .build()
            .is_err());
        assert!(DeviceConfig::builder("bad").ecc(true, 1.5).build().is_err());
        assert!(DeviceConfig::builder("bad")
            .per_bit_sensitivity(0.0)
            .build()
            .is_err());
        let ok = DeviceConfig::builder("mini-gpu")
            .units(2)
            .max_threads_per_unit(64)
            .build()
            .unwrap();
        assert_eq!(ok.kind(), DeviceKind::Custom);
        assert_eq!(ok.name(), "mini-gpu");
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceKind::KeplerK40.to_string(), "K40");
        assert_eq!(DeviceKind::XeonPhi3120A.to_string(), "Xeon Phi");
    }

    #[test]
    fn scaled_devices_keep_identity_and_shrink_storage() {
        for base in [DeviceConfig::kepler_k40(), DeviceConfig::xeon_phi_3120a()] {
            let scaled = base.scaled(8).unwrap();
            assert_eq!(scaled.kind(), base.kind());
            assert_eq!(scaled.units(), base.units());
            assert_eq!(scaled.scheduler(), base.scheduler());
            assert_eq!(scaled.l2().size_bytes, base.l2().size_bytes / 8);
            assert_eq!(scaled.l1().size_bytes, base.l1().size_bytes / 8);
            assert_eq!(scaled.l2().line_bytes, base.l2().line_bytes);
            assert!(scaled.register_file_bytes_per_unit() <= base.register_file_bytes_per_unit());
        }
        // The key asymmetry survives scaling.
        let k40 = DeviceConfig::kepler_k40().scaled(8).unwrap();
        let phi = DeviceConfig::xeon_phi_3120a().scaled(8).unwrap();
        assert!(phi.l2().size_bytes > k40.l2().size_bytes);
    }

    #[test]
    fn zero_divisor_rejected() {
        assert!(DeviceConfig::kepler_k40().scaled(0).is_err());
    }
}
