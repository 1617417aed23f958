//! Selective-hardening analysis — the paper's stated future work (§VI):
//! "apply selective hardening to only those procedures, variables, or
//! resources whose corruption is likely to produce the observed critical
//! errors".
//!
//! Given a finished campaign, this module attributes critical SDCs (those
//! surviving the tolerance filter) to their strike sites and predicts the
//! FIT reduction from hardening any subset of sites — e.g. adding ECC to
//! a structure, duplicating a unit, or ABFT-protecting an algorithmic
//! phase.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::outcome::InjectionOutcome;
use crate::runner::CampaignResult;

/// Per-site contribution to the campaign's outcome counts.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SiteImpact {
    /// SDCs attributed to the site (before filtering).
    pub sdc: usize,
    /// SDCs surviving the tolerance filter — the *critical* ones.
    pub critical: usize,
    /// Delivered strikes that were masked.
    pub masked: usize,
}

/// The selective-hardening analysis of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardeningAnalysis {
    per_site: BTreeMap<String, SiteImpact>,
    total_critical: usize,
    injections: usize,
    sigma_total: f64,
}

impl HardeningAnalysis {
    /// Attributes each record of `result` to its strike site.
    pub fn of(result: &CampaignResult) -> Self {
        let mut per_site: BTreeMap<String, SiteImpact> = BTreeMap::new();
        let mut total_critical = 0;
        for r in &result.records {
            let entry = per_site.entry(r.site.clone()).or_default();
            match &r.outcome {
                InjectionOutcome::Sdc(d) => {
                    entry.sdc += 1;
                    if d.criticality.is_critical() {
                        entry.critical += 1;
                        total_critical += 1;
                    }
                }
                InjectionOutcome::Masked => entry.masked += 1,
                InjectionOutcome::Crash | InjectionOutcome::Hang => {}
            }
        }
        HardeningAnalysis {
            per_site,
            total_critical,
            injections: result.records.len(),
            sigma_total: result.sigma_total,
        }
    }

    /// Sites ranked by critical-SDC contribution, highest first — the
    /// hardening priority list.
    pub fn ranked_sites(&self) -> Vec<(&str, &SiteImpact)> {
        let mut v: Vec<(&str, &SiteImpact)> =
            self.per_site.iter().map(|(k, v)| (k.as_str(), v)).collect();
        v.sort_by(|a, b| b.1.critical.cmp(&a.1.critical).then(a.0.cmp(b.0)));
        v
    }

    /// The fraction of critical FIT removed by fully hardening `sites`
    /// (e.g. perfect ECC on those structures).
    pub fn fit_reduction(&self, sites: &[&str]) -> f64 {
        if self.total_critical == 0 {
            return 0.0;
        }
        let removed: usize = self
            .per_site
            .iter()
            .filter(|(name, _)| sites.contains(&name.as_str()))
            .map(|(_, i)| i.critical)
            .sum();
        removed as f64 / self.total_critical as f64
    }

    /// The smallest set of sites (by the ranking) whose hardening removes
    /// at least `target` (0..=1) of the critical FIT — the selective-
    /// hardening answer.
    pub fn sites_for_reduction(&self, target: f64) -> Vec<&str> {
        let target = target.clamp(0.0, 1.0);
        let mut chosen = Vec::new();
        let mut removed = 0usize;
        for (name, impact) in self.ranked_sites() {
            if self.total_critical == 0 || removed as f64 / self.total_critical as f64 >= target {
                break;
            }
            if impact.critical == 0 {
                break;
            }
            chosen.push(name);
            removed += impact.critical;
        }
        chosen
    }

    /// Critical FIT in a.u. (the quantity hardening reduces).
    pub fn critical_fit(&self) -> f64 {
        self.total_critical as f64 / self.injections.max(1) as f64 * self.sigma_total
    }

    /// The Architectural Vulnerability Factor of one site: the
    /// probability that a strike delivered there produces an SDC
    /// (Mukherjee et al., cited in §IV-D). Fatal sites have no AVF here
    /// (crashes are detectable by definition); returns `None` for sites
    /// with no delivered strikes.
    pub fn avf(&self, site: &str) -> Option<f64> {
        let i = self.per_site.get(site)?;
        let delivered = i.sdc + i.masked;
        if delivered == 0 {
            None
        } else {
            Some(i.sdc as f64 / delivered as f64)
        }
    }

    /// AVF restricted to *critical* SDCs (those surviving the tolerance
    /// filter) — the quantity selective hardening actually targets.
    pub fn critical_avf(&self, site: &str) -> Option<f64> {
        let i = self.per_site.get(site)?;
        let delivered = i.sdc + i.masked;
        if delivered == 0 {
            None
        } else {
            Some(i.critical as f64 / delivered as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Campaign, KernelSpec};
    use radcrit_accel::config::DeviceConfig;

    fn analysis() -> HardeningAnalysis {
        let result = Campaign::new(
            DeviceConfig::kepler_k40().scaled(8).unwrap(),
            KernelSpec::Dgemm { n: 32 },
            250,
            3,
        )
        .with_workers(4)
        .run()
        .unwrap();
        HardeningAnalysis::of(&result)
    }

    #[test]
    fn per_site_counts_sum_to_totals() {
        let a = analysis();
        let critical: usize = a.per_site.values().map(|i| i.critical).sum();
        assert_eq!(critical, a.total_critical);
        assert!(a.total_critical > 0, "campaign must see critical SDCs");
    }

    #[test]
    fn ranking_is_descending() {
        let a = analysis();
        let ranked = a.ranked_sites();
        for w in ranked.windows(2) {
            assert!(w[0].1.critical >= w[1].1.critical);
        }
    }

    #[test]
    fn hardening_everything_removes_everything() {
        let a = analysis();
        let all: Vec<&str> = a.per_site.keys().map(String::as_str).collect();
        assert!((a.fit_reduction(&all) - 1.0).abs() < 1e-12);
        assert_eq!(a.fit_reduction(&[]), 0.0);
    }

    #[test]
    fn selective_set_reaches_target() {
        let a = analysis();
        for target in [0.25, 0.5, 0.9] {
            let sites = a.sites_for_reduction(target);
            assert!(
                a.fit_reduction(&sites) >= target - 1e-9,
                "sites {sites:?} reach only {}",
                a.fit_reduction(&sites)
            );
        }
    }

    #[test]
    fn selective_set_is_minimal_prefix() {
        let a = analysis();
        let sites = a.sites_for_reduction(0.5);
        if sites.len() > 1 {
            let fewer = &sites[..sites.len() - 1];
            assert!(
                a.fit_reduction(fewer) < 0.5,
                "dropping one site must miss the target"
            );
        }
    }

    #[test]
    fn critical_fit_scales_with_sigma() {
        let a = analysis();
        assert!(a.critical_fit() > 0.0);
    }

    #[test]
    fn avf_is_a_probability_and_bounds_critical_avf() {
        let a = analysis();
        let mut some_site = false;
        for site in a.per_site.keys() {
            if let Some(avf) = a.avf(site) {
                some_site = true;
                assert!((0.0..=1.0).contains(&avf), "{site}: {avf}");
                let cavf = a.critical_avf(site).expect("same denominator");
                assert!(cavf <= avf + 1e-12);
            }
        }
        assert!(some_site);
        assert_eq!(a.avf("no_such_site"), None);
    }
}
