//! Accelerated neutron-beam facilities and campaign bookkeeping (§IV-D).
//!
//! LANSCE (Los Alamos) and ISIS (Rutherford Appleton) provide spallation
//! neutron spectra suitable to mimic the terrestrial flux; error rates
//! measured there, scaled down to the natural flux, predict field FIT
//! rates. The paper accumulated over 400 beam hours per device (800
//! effective hours with two boards in parallel), equivalent to at least
//! 8×10⁸ hours — about 91 000 years — of natural exposure.

use radcrit_core::fit::Fluence;
use serde::{Deserialize, Serialize};

use crate::calib;

/// A neutron-beam facility preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Facility {
    /// Los Alamos Neutron Science Center: ~1×10⁵ n/(cm²·s) (§IV-D lower
    /// bound of the quoted range).
    Lansce,
    /// ISIS, Rutherford Appleton Laboratories: ~2.5×10⁶ n/(cm²·s) (§IV-D
    /// upper bound).
    Isis,
}

impl Facility {
    /// Beam flux in n/(cm²·s).
    pub fn flux_n_cm2_s(&self) -> f64 {
        match self {
            Facility::Lansce => 1.0e5,
            Facility::Isis => 2.5e6,
        }
    }
}

impl std::fmt::Display for Facility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Facility::Lansce => f.write_str("LANSCE"),
            Facility::Isis => f.write_str("ISIS"),
        }
    }
}

/// One beam-time session: a facility, hours of beam, the number of boards
/// irradiated in parallel, and a distance de-rating factor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeamSession {
    facility: Facility,
    hours: f64,
    boards: usize,
    derating: f64,
}

impl BeamSession {
    /// Creates a session.
    ///
    /// # Panics
    ///
    /// Panics when `hours` is not positive, `boards` is zero, or
    /// `derating` is outside `(0, 1]` (a board farther from the source
    /// sees an attenuated flux, §IV-D).
    pub fn new(facility: Facility, hours: f64, boards: usize, derating: f64) -> Self {
        assert!(hours > 0.0, "beam hours must be positive, got {hours}");
        assert!(boards > 0, "at least one board must be irradiated");
        assert!(
            derating > 0.0 && derating <= 1.0,
            "derating must be in (0, 1], got {derating}"
        );
        BeamSession {
            facility,
            hours,
            boards,
            derating,
        }
    }

    /// The paper's reference campaign: 400+ beam hours with two boards in
    /// parallel at LANSCE (800 effective hours per architecture).
    pub fn paper_reference() -> Self {
        BeamSession::new(Facility::Lansce, 400.0, 2, 1.0)
    }

    /// Beam hours of the session.
    pub fn hours(&self) -> f64 {
        self.hours
    }

    /// Accumulated fluence per board after de-rating, in n/cm².
    pub fn fluence(&self) -> Fluence {
        Fluence::from_flux(
            self.facility.flux_n_cm2_s() * self.derating,
            self.hours * 3600.0,
        )
        .expect("positive construction parameters imply positive fluence")
    }

    /// Total fluence summed over the boards (for FIT statistics pooling
    /// the boards' events together).
    pub fn total_fluence(&self) -> Fluence {
        Fluence::new(self.fluence().n_per_cm2() * self.boards as f64)
            .expect("positive fluence times positive boards")
    }

    /// Expected strikes *hitting exposed state* during one execution of
    /// `wall_seconds`, for a device/program with total cross-section
    /// `sigma_cm2`. The experimental design requires this to stay below
    /// ~10⁻³ so that at most one neutron corrupts any single execution
    /// (§IV-D).
    pub fn strikes_per_execution(&self, sigma_cm2: f64, wall_seconds: f64) -> f64 {
        self.facility.flux_n_cm2_s() * self.derating * sigma_cm2 * wall_seconds
    }

    /// Whether the single-strike criterion holds for the given program.
    pub fn single_strike_criterion(&self, sigma_cm2: f64, wall_seconds: f64) -> bool {
        self.strikes_per_execution(sigma_cm2, wall_seconds) < calib::MAX_ERRORS_PER_EXECUTION
    }
}

/// Relative neutron-flux acceleration at `altitude_m` metres above sea
/// level, following the JESD89A exponential model (§II-A: "the number of
/// neutrons increases exponentially with altitude"). Returns the factor
/// to multiply the sea-level flux by: ~1 at sea level, ~2.2 at 1 km,
/// ~10-12 around 3.1 km (Leadville), ~300 at avionics altitudes.
///
/// The scale height used is 1433 g/cm² atmospheric depth converted to a
/// simple exponential in altitude with L ≈ 1000 m / ln(2.2) — adequate
/// below ~5 km, which covers every terrestrial HPC site.
pub fn altitude_acceleration(altitude_m: f64) -> f64 {
    let altitude_m = altitude_m.max(0.0);
    // Flux doubles roughly every 870 m in the lower atmosphere.
    const DOUBLING_M: f64 = 870.0;
    2f64.powf(altitude_m / DOUBLING_M)
}

/// Projected Mean Time Between Failures, in hours, for a fleet of
/// `devices` identical accelerators whose per-device rate is `fit`
/// failures per 10⁹ h, at `altitude_m` metres.
///
/// The paper's motivating example: Titan's ~18 000 K40-class GPUs show a
/// radiation-induced MTBF of dozens of hours. With relative (a.u.) FIT
/// inputs the result is a relative MTBF — only ratios are meaningful,
/// matching the paper's reporting.
pub fn fleet_mtbf_hours(fit: radcrit_core::fit::FitRate, devices: usize, altitude_m: f64) -> f64 {
    let rate_per_hour = fit.value() / radcrit_core::fit::FIT_HOURS
        * devices as f64
        * altitude_acceleration(altitude_m);
    if rate_per_hour <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / rate_per_hour
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_core::fit::SEA_LEVEL_FLUX_N_CM2_H;

    #[test]
    fn facility_fluxes_match_paper_range() {
        assert_eq!(Facility::Lansce.flux_n_cm2_s(), 1.0e5);
        assert_eq!(Facility::Isis.flux_n_cm2_s(), 2.5e6);
    }

    #[test]
    fn acceleration_is_six_to_eight_orders_of_magnitude() {
        for f in [Facility::Lansce, Facility::Isis] {
            let acc = f.flux_n_cm2_s() * 3600.0 / SEA_LEVEL_FLUX_N_CM2_H;
            assert!(
                (1.0e6..1.0e9).contains(&acc),
                "{f} acceleration {acc:.2e} outside the paper's 6-8 orders"
            );
        }
    }

    #[test]
    fn paper_reference_campaign_covers_91000_years() {
        let s = BeamSession::paper_reference();
        assert_eq!(s.hours() * s.boards as f64, 800.0);
        let years = s.total_fluence().n_per_cm2() / SEA_LEVEL_FLUX_N_CM2_H / (24.0 * 365.0);
        // §IV-D: "at least 8x10^8 hours ... about 91,000 years".
        assert!(years > 90_000.0, "only {years:.0} years");
    }

    #[test]
    fn derating_attenuates_fluence() {
        let near = BeamSession::new(Facility::Lansce, 10.0, 1, 1.0);
        let far = BeamSession::new(Facility::Lansce, 10.0, 1, 0.5);
        assert!(far.fluence().n_per_cm2() < near.fluence().n_per_cm2());
        assert!((far.fluence().n_per_cm2() * 2.0 - near.fluence().n_per_cm2()).abs() < 1.0);
    }

    #[test]
    fn single_strike_criterion_detects_violation() {
        let s = BeamSession::new(Facility::Isis, 1.0, 1, 1.0);
        // A tiny cross-section passes, an enormous one fails.
        assert!(s.single_strike_criterion(1e-12, 1.0));
        assert!(!s.single_strike_criterion(1e-6, 10.0));
    }

    #[test]
    #[should_panic(expected = "beam hours")]
    fn zero_hours_rejected() {
        BeamSession::new(Facility::Lansce, 0.0, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "derating")]
    fn bad_derating_rejected() {
        BeamSession::new(Facility::Lansce, 1.0, 1, 1.5);
    }

    #[test]
    fn altitude_acceleration_grows_exponentially() {
        assert!((altitude_acceleration(0.0) - 1.0).abs() < 1e-12);
        let one_km = altitude_acceleration(1000.0);
        assert!((2.0..2.5).contains(&one_km), "1 km factor {one_km}");
        // Los Alamos sits at ~2.2 km: roughly 5-7x sea level.
        let lanl = altitude_acceleration(2230.0);
        assert!((4.0..8.0).contains(&lanl), "LANL factor {lanl}");
        // Negative altitudes clamp to sea level.
        assert_eq!(altitude_acceleration(-100.0), 1.0);
    }

    #[test]
    fn fleet_mtbf_scales_inversely_with_fleet_and_rate() {
        use radcrit_core::fit::FitRate;
        let fit = FitRate::from_raw(1000.0);
        let one = fleet_mtbf_hours(fit, 1, 0.0);
        let fleet = fleet_mtbf_hours(fit, 18_000, 0.0);
        assert!((one / fleet - 18_000.0).abs() < 1e-6);
        let double_rate = fleet_mtbf_hours(FitRate::from_raw(2000.0), 1, 0.0);
        assert!((one / double_rate - 2.0).abs() < 1e-9);
        assert_eq!(fleet_mtbf_hours(FitRate::ZERO, 10, 0.0), f64::INFINITY);
    }
}
