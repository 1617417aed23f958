//! Per-injection outcomes and records.

use radcrit_core::locality::SpatialClass;
use radcrit_core::report::CriticalityReport;
use radcrit_obs::{AnalyticSample, ProvenanceRecord};
use serde::{Deserialize, Serialize};

/// The classification of one injected execution — the four §II-A
/// outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InjectionOutcome {
    /// No effect on the program output (the failure is masked or the
    /// corrupted data is never used).
    Masked,
    /// Silent Data Corruption: the output differs from the golden one.
    Sdc(SdcDetail),
    /// The application crashed.
    Crash,
    /// The node hung.
    Hang,
}

impl InjectionOutcome {
    /// Short outcome tag for logs.
    pub fn tag(&self) -> &'static str {
        match self {
            InjectionOutcome::Masked => "MASKED",
            InjectionOutcome::Sdc(_) => "SDC",
            InjectionOutcome::Crash => "CRASH",
            InjectionOutcome::Hang => "HANG",
        }
    }

    /// Whether this outcome is an SDC.
    pub fn is_sdc(&self) -> bool {
        matches!(self, InjectionOutcome::Sdc(_))
    }
}

/// The §III metrics of one SDC, raw and filtered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdcDetail {
    /// The combined criticality report (all four metrics, raw and under
    /// the tolerance filter).
    pub criticality: CriticalityReport,
    /// Output length in elements (for corrupted-fraction computations —
    /// the logical locality shape may be coarser than the raw output).
    pub output_len: usize,
}

impl SdcDetail {
    /// Fraction of raw output elements corrupted.
    pub fn corrupted_fraction(&self) -> f64 {
        self.criticality.incorrect_elements as f64 / self.output_len.max(1) as f64
    }
}

/// One injected execution: what was injected and what happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// Injection index within the campaign (also its RNG stream).
    pub index: usize,
    /// The struck site's name ("l2", "scheduler", "fatal_logic", …).
    pub site: String,
    /// Dispatch position of the strike, when one was delivered.
    pub at_tile: Option<usize>,
    /// Whether the strike found live state (false ⇒ architecturally
    /// masked before any corruption existed).
    pub delivered: bool,
    /// The outcome.
    pub outcome: InjectionOutcome,
}

impl InjectionRecord {
    /// The analytic essence of this record — the exact sample the
    /// [`radcrit_obs::CriticalityAggregator`] folds, shared by the
    /// runner's live fold, the enriched `replay` marker and
    /// `CampaignResult::summary`, so every path carries the same
    /// criticality detail as a `provenance` event.
    pub(crate) fn analytic_sample(&self) -> AnalyticSample {
        let (mismatches, class, mre, critical, fclass) = match &self.outcome {
            InjectionOutcome::Sdc(d) => {
                let critical = d.criticality.is_critical();
                (
                    d.criticality.incorrect_elements as u64,
                    d.criticality.locality,
                    d.criticality.mean_relative_error,
                    critical,
                    critical.then_some(d.criticality.filtered_locality),
                )
            }
            _ => (0, SpatialClass::None, None, false, None),
        };
        AnalyticSample {
            index: self.index as u64,
            site: self.site.clone(),
            outcome: self.outcome.tag().to_owned(),
            mismatches,
            class,
            mre,
            critical,
            fclass,
        }
    }

    /// The record's `provenance` line without strike facts — the whole
    /// line for a fatal plan or a watchdog hang; a strike adds its
    /// victim, unit, bit and touched tiles.
    pub(crate) fn provenance(&self) -> ProvenanceRecord {
        ProvenanceRecord {
            at_tile: self.at_tile.map(|t| t as u64),
            ..ProvenanceRecord::from_sample(self.analytic_sample(), self.delivered)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdc_detail(incorrect: usize, output_len: usize) -> SdcDetail {
        SdcDetail {
            criticality: CriticalityReport {
                incorrect_elements: incorrect,
                mean_relative_error: Some(10.0),
                locality: SpatialClass::Single,
                filtered_incorrect_elements: incorrect,
                filtered_mean_relative_error: Some(10.0),
                filtered_locality: SpatialClass::Single,
                threshold_pct: 2.0,
            },
            output_len,
        }
    }

    #[test]
    fn tags_cover_paper_outcomes() {
        assert_eq!(InjectionOutcome::Masked.tag(), "MASKED");
        assert_eq!(InjectionOutcome::Crash.tag(), "CRASH");
        assert_eq!(InjectionOutcome::Hang.tag(), "HANG");
        assert_eq!(InjectionOutcome::Sdc(sdc_detail(1, 10)).tag(), "SDC");
        assert!(InjectionOutcome::Sdc(sdc_detail(1, 10)).is_sdc());
        assert!(!InjectionOutcome::Masked.is_sdc());
    }

    #[test]
    fn corrupted_fraction_uses_raw_output_length() {
        let d = sdc_detail(5, 50);
        assert!((d.corrupted_fraction() - 0.1).abs() < 1e-12);
    }
}
