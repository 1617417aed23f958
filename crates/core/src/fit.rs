//! FIT (Failure In Time) accounting.
//!
//! §IV-D: error rates measured under accelerated beams, scaled down to the
//! natural neutron flux, predict realistic error rates expressed in FIT —
//! failures per 10⁹ device-hours. The paper publishes *relative* FIT in
//! arbitrary units (absolute values are business-sensitive); this module
//! supports both the physical conversion and the normalization to a.u.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::locality::SpatialClass;

/// The reference terrestrial neutron flux at sea level (JEDEC JESD89A,
/// cited as 13 n/(cm²·h) in §II-A).
pub const SEA_LEVEL_FLUX_N_CM2_H: f64 = 13.0;

/// Hours per FIT period (FIT = failures per billion device-hours).
pub const FIT_HOURS: f64 = 1.0e9;

/// Accumulated neutron fluence, in n/cm².
///
/// Fluence is the time-integral of flux over a test campaign; dividing an
/// event count by it yields a cross-section.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Fluence(f64);

impl Fluence {
    /// Creates a fluence value in n/cm².
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonPositiveFluence`] if the value is not a
    /// strictly positive finite number.
    pub fn new(n_per_cm2: f64) -> Result<Self, CoreError> {
        if !n_per_cm2.is_finite() || n_per_cm2 <= 0.0 {
            return Err(CoreError::NonPositiveFluence(n_per_cm2));
        }
        Ok(Fluence(n_per_cm2))
    }

    /// Fluence accumulated by a constant `flux` (n/(cm²·s)) over `seconds`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NonPositiveFluence`] if the product is not
    /// strictly positive and finite.
    pub fn from_flux(flux_n_cm2_s: f64, seconds: f64) -> Result<Self, CoreError> {
        Fluence::new(flux_n_cm2_s * seconds)
    }

    /// The raw value in n/cm².
    pub fn n_per_cm2(&self) -> f64 {
        self.0
    }
}

impl std::ops::Add for Fluence {
    type Output = Fluence;

    fn add(self, rhs: Fluence) -> Fluence {
        Fluence(self.0 + rhs.0)
    }
}

/// A FIT rate: expected failures per 10⁹ hours of natural operation.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct FitRate(f64);

impl FitRate {
    /// A zero rate.
    pub const ZERO: FitRate = FitRate(0.0);

    /// Computes the FIT rate implied by observing `events` failures over an
    /// accumulated beam `fluence`, scaled to the JEDEC sea-level flux.
    ///
    /// `FIT = (events / fluence) × natural_flux × 10⁹`
    ///
    /// The first factor is the device/application cross-section in cm²; the
    /// remaining factors convert it to failures per 10⁹ h at ground level.
    pub fn from_events_sea_level(events: usize, fluence: Fluence) -> Self {
        let cross_section_cm2 = events as f64 / fluence.n_per_cm2();
        FitRate(cross_section_cm2 * SEA_LEVEL_FLUX_N_CM2_H * FIT_HOURS)
    }

    /// Creates a rate from a raw value (useful for a.u. data).
    pub fn from_raw(value: f64) -> Self {
        FitRate(value)
    }

    /// The raw numeric value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl std::ops::Add for FitRate {
    type Output = FitRate;

    fn add(self, rhs: FitRate) -> FitRate {
        FitRate(self.0 + rhs.0)
    }
}

impl std::iter::Sum for FitRate {
    fn sum<I: Iterator<Item = FitRate>>(iter: I) -> FitRate {
        iter.fold(FitRate::ZERO, |a, b| a + b)
    }
}

/// A FIT rate broken down by spatial-locality class — one stacked bar of
/// Figs. 3, 5 and 7.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FitBreakdown {
    by_class: BTreeMap<SpatialClass, FitRate>,
}

impl FitBreakdown {
    /// Creates an empty break-down.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `rate` to the bucket of `class`.
    pub fn add(&mut self, class: SpatialClass, rate: FitRate) {
        let slot = self.by_class.entry(class).or_insert(FitRate::ZERO);
        *slot = *slot + rate;
    }

    /// The rate for one class (zero when absent).
    pub fn rate(&self, class: SpatialClass) -> FitRate {
        self.by_class.get(&class).copied().unwrap_or(FitRate::ZERO)
    }

    /// The total rate across all classes (bar height).
    pub fn total(&self) -> FitRate {
        self.by_class.values().copied().sum()
    }

    /// The fraction of the total rate contributed by `class`, or 0 when
    /// the break-down is empty.
    pub fn fraction(&self, class: SpatialClass) -> f64 {
        let total = self.total().value();
        if total == 0.0 {
            0.0
        } else {
            self.rate(class).value() / total
        }
    }

    /// The combined fraction of several classes (e.g. cubic+square in
    /// §V-B).
    pub fn fraction_of(&self, classes: &[SpatialClass]) -> f64 {
        classes.iter().map(|&c| self.fraction(c)).sum()
    }

    /// Iterates over `(class, rate)` pairs in class order.
    pub fn iter(&self) -> impl Iterator<Item = (SpatialClass, FitRate)> + '_ {
        self.by_class.iter().map(|(&c, &r)| (c, r))
    }

    /// The fraction of the total rate that ABFT-correctable classes
    /// (single + line) contribute; `1 − abft_correctable_fraction()` is
    /// the residual error rate under ABFT (§V-A: "DGEMM would be affected
    /// by only 20 % to 40 % of all errors on K40").
    pub fn abft_correctable_fraction(&self) -> f64 {
        self.iter()
            .filter(|(c, _)| c.abft_correctable())
            .map(|(_, r)| r.value())
            .sum::<f64>()
            / self.total().value().max(f64::MIN_POSITIVE)
    }
}

impl std::iter::FromIterator<(SpatialClass, FitRate)> for FitBreakdown {
    fn from_iter<I: IntoIterator<Item = (SpatialClass, FitRate)>>(iter: I) -> Self {
        let mut out = FitBreakdown::new();
        for (c, r) in iter {
            out.add(c, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fluence_rejects_nonpositive() {
        assert!(Fluence::new(0.0).is_err());
        assert!(Fluence::new(-1.0).is_err());
        assert!(Fluence::new(f64::NAN).is_err());
        assert!(Fluence::new(f64::INFINITY).is_err());
        assert!(Fluence::new(1.0).is_ok());
    }

    #[test]
    fn fluence_from_flux_integrates() {
        // LANSCE-like flux of 1e5 n/(cm²·s) over one hour.
        let f = Fluence::from_flux(1e5, 3600.0).unwrap();
        assert!((f.n_per_cm2() - 3.6e8).abs() < 1.0);
    }

    #[test]
    fn fit_physical_conversion() {
        // 10 events over 1e9 n/cm² → σ = 1e-8 cm²;
        // FIT = 1e-8 × 13 × 1e9 = 130.
        let fluence = Fluence::new(1e9).unwrap();
        let fit = FitRate::from_events_sea_level(10, fluence);
        assert!((fit.value() - 130.0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_total_and_fraction() {
        let mut b = FitBreakdown::new();
        b.add(SpatialClass::Single, FitRate::from_raw(10.0));
        b.add(SpatialClass::Line, FitRate::from_raw(30.0));
        b.add(SpatialClass::Square, FitRate::from_raw(60.0));
        assert!((b.total().value() - 100.0).abs() < 1e-12);
        assert!((b.fraction(SpatialClass::Square) - 0.6).abs() < 1e-12);
        assert!((b.fraction_of(&[SpatialClass::Single, SpatialClass::Line]) - 0.4).abs() < 1e-12);
        assert!((b.abft_correctable_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(b.fraction(SpatialClass::Cubic), 0.0);
    }

    #[test]
    fn breakdown_collects_from_iterator() {
        let b: FitBreakdown = vec![
            (SpatialClass::Line, FitRate::from_raw(1.0)),
            (SpatialClass::Line, FitRate::from_raw(2.0)),
        ]
        .into_iter()
        .collect();
        assert!((b.rate(SpatialClass::Line).value() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_fractions_are_zero() {
        let b = FitBreakdown::new();
        assert_eq!(b.total().value(), 0.0);
        assert_eq!(b.fraction(SpatialClass::Single), 0.0);
    }

    proptest! {
        #[test]
        fn fit_is_linear_in_events(n in 1usize..1000, fl in 1e6f64..1e12) {
            let fluence = Fluence::new(fl).unwrap();
            let one = FitRate::from_events_sea_level(1, fluence).value();
            let many = FitRate::from_events_sea_level(n, fluence).value();
            prop_assert!((many - one * n as f64).abs() <= 1e-9 * many.abs().max(1.0));
        }

        #[test]
        fn fractions_sum_to_one(rates in proptest::collection::vec(0.1f64..1e3, 1..6)) {
            let classes = SpatialClass::PLOTTED;
            let mut b = FitBreakdown::new();
            for (i, r) in rates.iter().enumerate() {
                b.add(classes[i % classes.len()], FitRate::from_raw(*r));
            }
            let sum: f64 = classes.iter().map(|&c| b.fraction(c)).sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }
}
