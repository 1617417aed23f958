//! Campaign presets reproducing the paper's experiment matrix at
//! simulator-affordable scale.
//!
//! The paper's input sizes (Table II) are scaled down by 8× alongside the
//! devices' storage hierarchies ([`DeviceConfig::scaled`]), preserving
//! the working-set/cache ratios that drive the criticality results:
//!
//! | experiment | paper | standard preset |
//! |---|---|---|
//! | DGEMM sides (K40) | 2¹⁰, 2¹¹, 2¹² | 128, 256, 512 |
//! | DGEMM sides (Phi) | 2¹⁰ – 2¹³ | 128 – 1024 |
//! | LavaMD grids (K40) | 15, 19, 23 @ 192 particles | 9, 11, 13 @ 32 |
//! | LavaMD grids (Phi) | 13, 15, 19, 23 @ 100 | 7, 9, 11, 13 @ 16 |
//! | HotSpot | 1024² | 256², 512 iterations |
//! | CLAMR | 512², 5000 steps | 128², 300 steps |

use radcrit_accel::config::DeviceConfig;

use crate::config::{Campaign, KernelSpec};

/// The storage-scaling divisor applied to both devices.
const DEVICE_SCALE: usize = 8;

/// How much compute to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke runs (CI, examples).
    Quick,
    /// The full reproduction matrix (minutes).
    Standard,
}

/// The scaled K40 device used by all presets.
pub fn k40() -> DeviceConfig {
    DeviceConfig::kepler_k40()
        .scaled(DEVICE_SCALE)
        .expect("published K40 geometry scales by 8")
}

/// The scaled Xeon Phi device used by all presets.
pub fn xeon_phi() -> DeviceConfig {
    DeviceConfig::xeon_phi_3120a()
        .scaled(DEVICE_SCALE)
        .expect("published Phi geometry scales by 8")
}

/// One entry of the experiment matrix.
#[derive(Debug, Clone)]
pub struct Preset {
    /// The device to run on.
    pub device: DeviceConfig,
    /// Kernel and input size.
    pub kernel: KernelSpec,
    /// Injection budget.
    pub injections: usize,
}

impl Preset {
    /// Turns the preset into a runnable campaign.
    pub fn campaign(&self, seed: u64) -> Campaign {
        Campaign::new(self.device.clone(), self.kernel, self.injections, seed)
    }
}

/// DGEMM presets for one device (Figs. 2 and 3).
pub fn dgemm(device: &DeviceConfig, scale: Scale) -> Vec<Preset> {
    let phi = device.vector_lanes_f64() > 1;
    let sizes: Vec<(usize, usize)> = match (scale, phi) {
        (Scale::Quick, false) => vec![(32, 60), (64, 40)],
        (Scale::Quick, true) => vec![(32, 60), (64, 40), (128, 25)],
        (Scale::Standard, false) => vec![(128, 400), (256, 250), (512, 120)],
        (Scale::Standard, true) => vec![(128, 400), (256, 250), (512, 120), (1024, 60)],
    };
    sizes
        .into_iter()
        .map(|(n, injections)| Preset {
            device: device.clone(),
            kernel: KernelSpec::Dgemm { n },
            injections,
        })
        .collect()
}

/// LavaMD presets for one device (Figs. 4 and 5). Particle counts keep
/// the paper's ~2:1 K40-to-Phi ratio (192:100).
pub fn lavamd(device: &DeviceConfig, scale: Scale) -> Vec<Preset> {
    let phi = device.vector_lanes_f64() > 1;
    let particles = match (scale, phi) {
        (Scale::Quick, false) => 12,
        (Scale::Quick, true) => 6,
        (Scale::Standard, false) => 32,
        (Scale::Standard, true) => 16,
    };
    let grids: Vec<(usize, usize)> = match (scale, phi) {
        (Scale::Quick, false) => vec![(3, 40), (4, 30)],
        (Scale::Quick, true) => vec![(2, 40), (3, 40), (4, 30)],
        (Scale::Standard, false) => vec![(9, 220), (11, 140), (13, 80)],
        (Scale::Standard, true) => vec![(7, 300), (9, 220), (11, 140), (13, 80)],
    };
    grids
        .into_iter()
        .map(|(grid, injections)| Preset {
            device: device.clone(),
            kernel: KernelSpec::LavaMd { grid, particles },
            injections,
        })
        .collect()
}

/// HotSpot preset (Figs. 6 and 7): a single input size, like the paper.
pub fn hotspot(device: &DeviceConfig, scale: Scale) -> Preset {
    let (rows, cols, iterations, injections) = match scale {
        Scale::Quick => (48, 48, 16, 50),
        Scale::Standard => (256, 256, 512, 180),
    };
    Preset {
        device: device.clone(),
        kernel: KernelSpec::HotSpot {
            rows,
            cols,
            iterations,
        },
        injections,
    }
}

/// CLAMR preset (Figs. 8 and 9). The paper only reports the Xeon Phi
/// (CLAMR targets Trinity); pass the Phi device for the reproduction,
/// though the kernel runs on either.
pub fn clamr(device: &DeviceConfig, scale: Scale) -> Preset {
    let (rows, cols, steps, injections) = match scale {
        Scale::Quick => (48, 48, 40, 50),
        Scale::Standard => (128, 128, 300, 150),
    };
    Preset {
        device: device.clone(),
        kernel: KernelSpec::Shallow { rows, cols, steps },
        injections,
    }
}

/// The whole experiment matrix of the paper (§IV-B/§IV-C): DGEMM and
/// LavaMD on both devices at several sizes, HotSpot on both, CLAMR on
/// the Phi.
pub fn full_matrix(scale: Scale) -> Vec<Preset> {
    let k40 = k40();
    let phi = xeon_phi();
    let mut out = Vec::new();
    out.extend(dgemm(&k40, scale));
    out.extend(dgemm(&phi, scale));
    out.extend(lavamd(&k40, scale));
    out.extend(lavamd(&phi, scale));
    out.push(hotspot(&k40, scale));
    out.push(hotspot(&phi, scale));
    out.push(clamr(&phi, scale));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_devices_build() {
        assert_eq!(k40().units(), 15);
        assert_eq!(xeon_phi().units(), 57);
        assert!(xeon_phi().l2().size_bytes > k40().l2().size_bytes);
    }

    #[test]
    fn phi_gets_one_extra_dgemm_and_lavamd_size() {
        // Table II: the Phi DGEMM matrix goes to 2^13 and LavaMD starts
        // at grid 13.
        assert_eq!(dgemm(&k40(), Scale::Standard).len(), 3);
        assert_eq!(dgemm(&xeon_phi(), Scale::Standard).len(), 4);
        assert_eq!(lavamd(&k40(), Scale::Standard).len(), 3);
        assert_eq!(lavamd(&xeon_phi(), Scale::Standard).len(), 4);
    }

    #[test]
    fn full_matrix_covers_all_experiments() {
        let m = full_matrix(Scale::Quick);
        let dgemm_count = m
            .iter()
            .filter(|p| matches!(p.kernel, KernelSpec::Dgemm { .. }))
            .count();
        let clamr_count = m
            .iter()
            .filter(|p| matches!(p.kernel, KernelSpec::Shallow { .. }))
            .count();
        assert_eq!(dgemm_count, 5); // 2 (K40) + 3 (Phi) quick sizes
        assert_eq!(clamr_count, 1);
    }

    #[test]
    fn quick_presets_actually_run() {
        let p = &dgemm(&k40(), Scale::Quick)[0];
        let result = p.campaign(3).run().unwrap();
        assert_eq!(result.records.len(), p.injections);
    }

    #[test]
    fn particle_ratio_matches_paper() {
        let k = &lavamd(&k40(), Scale::Standard)[0];
        let p = &lavamd(&xeon_phi(), Scale::Standard)[0];
        let (KernelSpec::LavaMd { particles: pk, .. }, KernelSpec::LavaMd { particles: pp, .. }) =
            (k.kernel, p.kernel)
        else {
            panic!("lavamd presets must be lavamd");
        };
        assert_eq!(pk, 2 * pp);
    }
}
