//! Calibration constants of the sensitivity model.
//!
//! The paper cannot publish absolute cross sections (business-sensitive,
//! §V) and circuit-level sensitivities are proprietary (§IV-A), so this
//! module collects every free constant of the model in one place. Each
//! constant is expressed in *byte-equivalents of exposed SRAM* — the
//! cross-section of one site is
//!
//! ```text
//! σ(site) = exposed_byte_equivalents × per_bit_sensitivity(device) × protection(site, device)
//! ```
//!
//! and only ratios between sites/devices matter (all FIT output is in
//! arbitrary units, like the paper's). Values were tuned so that the
//! relative results of §V hold: who wins, by roughly what factor, where
//! the crossovers fall. They are `pub` so that sensitivity studies can
//! sweep them.

use radcrit_accel::config::{DeviceConfig, DeviceKind};

/// §IV-D: observed output error rates are kept below 10⁻³
/// errors/execution so that at most one neutron corrupts a run.
pub const MAX_ERRORS_PER_EXECUTION: f64 = 1e-3;

/// Conversion from byte-equivalents to the pseudo-cm² used by the
/// single-strike criterion (arbitrary; chosen so realistic kernels pass
/// the §IV-D criterion at LANSCE flux).
pub const BYTE_EQUIV_TO_CM2: f64 = 1e-16;

/// Probability that a fatal event manifests as a crash rather than a
/// hang (the paper reports both, with crashes more common).
pub const CRASH_VS_HANG: f64 = 0.75;

/// Probability that a corrupted scheduler entry kills the kernel instead
/// of mis-dispatching it (§V-A: scheduler corruption "could range from
/// the crash of a device to several improperly scheduled threads").
pub const SCHEDULER_FATAL: f64 = 0.55;

/// Probability that an SRAM strike upsets multiple adjacent bits
/// (multi-bit upsets are a significant fraction at modern nodes, §II-A
/// "single or multiple bit-flips").
pub const MBU_PROBABILITY: f64 = 0.25;

/// Maximum adjacent bits flipped by an MBU.
pub const MBU_MAX_BITS: u32 = 4;

/// Exposed FPU pipeline latch area per execution unit
/// (byte-equivalents).
pub const FPU_AREA_PER_UNIT: f64 = 1500.0;

/// Exposed transcendental-unit (SFU) latch area per unit. Only devices
/// with [`DeviceConfig::exposed_sfu`] have this site; §V-E hypothesises
/// the K40's SFU "is more prone to corruption".
/// Sized so that transcendental-heavy kernels (LavaMD) see the SFU as a
/// major site on the K40, consistent with the paper's ~4x higher LavaMD
/// FIT scale (Fig. 5a vs Fig. 3a) and its "all K40 LavaMD SDCs are
/// significantly different from the expected value" (SS V-B).
pub const SFU_AREA_PER_UNIT: f64 = 20_000.0;

/// Probability that a core-control strike corrupts the unit's task
/// state (garbling its remaining chunk) rather than its store queue.
pub const CONTROL_UNIT_GARBLE: f64 = 0.85;

/// Exposed core control-path area per unit, *before* the per-device
/// complexity factor in [`Protection::control`]. Complex in-order x86
/// cores (Phi) expose far more control state per unit than the K40's
/// simple CUDA cores (§V-E: GPUs "have shortened and faster pipelines
/// compared to CPUs", making purely arithmetic codes more reliable
/// there).
pub const CONTROL_AREA_PER_UNIT: f64 = 600.0;

/// Always-fatal logic area per unit (PCIe interface, instruction fetch,
/// clocking): strikes here crash or hang the device.
pub const FATAL_AREA_PER_UNIT: f64 = 900.0;

/// L1 strikes are less productive than L2 strikes (smaller, refilled
/// constantly, write-through): relative factor on occupied L1 bytes.
pub const L1_FACTOR: f64 = 0.5;

/// SFU utilization saturates quickly: the exposure factor is
/// `min(1, trans_fraction × SFU_UTILIZATION_GAIN)`.
pub const SFU_UTILIZATION_GAIN: f64 = 10.0;

/// Per-device, per-structure protection/derating factors (ECC, parity,
/// hardened latches, interleaving). None of these are published for
/// either device; they are the model's calibration surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Protection {
    /// Residual sensitivity of cache data (after ECC/parity).
    pub cache: f64,
    /// Residual sensitivity of register state beyond the explicit ECC
    /// coverage already modeled in the device config.
    pub register_file: f64,
    /// FPU pipeline latch factor.
    pub fpu: f64,
    /// Control-path complexity factor.
    pub control: f64,
    /// Scheduler state factor.
    pub scheduler: f64,
    /// Always-fatal logic factor.
    pub fatal: f64,
}

impl Protection {
    /// Protection profile for a device kind.
    ///
    /// * **K40**: caches carry ECC but the planar cells' MBU rate leaves
    ///   a residual; its hardware scheduler queue is unprotected; simple
    ///   cores expose little control state.
    /// * **Xeon Phi**: caches carry ECC on robust Tri-gate cells (small
    ///   residual); no hardware scheduler queue; complex in-order x86
    ///   cores with wide vector pipelines expose much more control state
    ///   per unit.
    /// * **Custom**: neutral factors.
    fn for_device(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::KeplerK40 => Protection {
                cache: 0.06,
                register_file: 1.0,
                fpu: 1.0,
                control: 1.0,
                scheduler: 1.0,
                fatal: 1.0,
            },
            DeviceKind::XeonPhi3120A => Protection {
                cache: 0.03,
                register_file: 1.0,
                fpu: 1.0,
                control: 35.0,
                scheduler: 1.0,
                fatal: 8.0,
            },
            DeviceKind::Custom => Protection {
                cache: 0.5,
                register_file: 1.0,
                fpu: 1.0,
                control: 1.0,
                scheduler: 1.0,
                fatal: 1.0,
            },
        }
    }

    /// Convenience: protection for a full configuration.
    pub fn for_config(cfg: &DeviceConfig) -> Self {
        Self::for_device(cfg.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_are_valid() {
        for p in [CRASH_VS_HANG, SCHEDULER_FATAL, MBU_PROBABILITY] {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn phi_control_exceeds_k40_control() {
        // §V-E: complex CPU cores vs. simple GPU cores.
        let k40 = Protection::for_device(DeviceKind::KeplerK40);
        let phi = Protection::for_device(DeviceKind::XeonPhi3120A);
        assert!(phi.control > k40.control);
    }

    #[test]
    fn all_factors_positive() {
        for kind in [
            DeviceKind::KeplerK40,
            DeviceKind::XeonPhi3120A,
            DeviceKind::Custom,
        ] {
            let p = Protection::for_device(kind);
            for v in [
                p.cache,
                p.register_file,
                p.fpu,
                p.control,
                p.scheduler,
                p.fatal,
            ] {
                assert!(v > 0.0);
            }
        }
    }
}
