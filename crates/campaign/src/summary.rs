//! Aggregate campaign statistics: the numbers behind the paper's plots.

use std::collections::BTreeMap;

use radcrit_core::fit::FitBreakdown;
use radcrit_core::locality::SpatialClass;
use radcrit_core::stats::poisson_ci;
use serde::{Deserialize, Serialize};

use crate::telemetry::TelemetrySnapshot;

/// One scatter point of Figs. 2/4/6/8: a faulty execution's number of
/// incorrect elements versus its mean relative error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Number of incorrect elements.
    pub incorrect_elements: usize,
    /// Mean relative error in percent (uncapped).
    pub mean_relative_error: f64,
}

/// Aggregate statistics of one campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Kernel name.
    pub kernel: String,
    /// Input-size label.
    pub input: String,
    /// Device name.
    pub device: String,
    /// Number of injections.
    pub injections: usize,
    /// Masked executions.
    pub masked: usize,
    /// SDC executions (before the tolerance filter).
    pub sdc: usize,
    /// SDC executions that survive the tolerance filter.
    pub critical_sdc: usize,
    /// Crashes.
    pub crash: usize,
    /// Hangs.
    pub hang: usize,
    /// Total cross-section (a.u.) — the FIT scale factor.
    pub sigma_total: f64,
    /// FIT break-down by raw spatial class ("All" bars).
    pub fit_all: FitBreakdown,
    /// FIT break-down by filtered spatial class ("> 2 %" bars).
    pub fit_filtered: FitBreakdown,
    /// Scatter series over raw metrics.
    pub scatter: Vec<ScatterPoint>,
    /// Per-site SDC counts.
    pub sdc_by_site: BTreeMap<String, usize>,
}

impl CampaignSummary {
    /// Renders a [`radcrit_obs::CriticalityAggregator`] fold as a summary — of a
    /// finished campaign's records (`CampaignResult::summary` is
    /// exactly that) or of its event stream.
    ///
    /// Both sides are the same fold over the same samples, so for any
    /// finished campaign with events enabled,
    /// `CampaignSummary::from_analytics(&fold of events.jsonl)` renders
    /// byte-identically to `result.summary()`. Integration tests assert
    /// this across every fixture, including kill → resume streams whose
    /// replayed indices fold from enriched `replay` markers.
    pub fn from_analytics(agg: &radcrit_obs::CriticalityAggregator) -> Self {
        CampaignSummary {
            kernel: agg.kernel().to_owned(),
            input: agg.input().to_owned(),
            device: agg.device().to_owned(),
            injections: agg.injections() as usize,
            masked: agg.masked() as usize,
            sdc: agg.sdc() as usize,
            critical_sdc: agg.critical_sdc() as usize,
            crash: agg.crash() as usize,
            hang: agg.hang() as usize,
            sigma_total: agg.sigma_total(),
            fit_all: agg.fit_all(),
            fit_filtered: agg.fit_filtered(),
            scatter: agg
                .scatter()
                .map(|(_, mismatches, mre)| ScatterPoint {
                    incorrect_elements: mismatches as usize,
                    mean_relative_error: mre,
                })
                .collect(),
            sdc_by_site: agg
                .sdc_by_site()
                .iter()
                .map(|(site, &n)| (site.clone(), n as usize))
                .collect(),
        }
    }

    /// SDC : (crash + hang) ratio (§V intro).
    pub fn sdc_to_crash_hang_ratio(&self) -> f64 {
        let fatal = self.crash + self.hang;
        if fatal == 0 {
            f64::INFINITY
        } else {
            self.sdc as f64 / fatal as f64
        }
    }

    /// Fraction of SDCs fully inside the tolerance (dropped by the
    /// filter) — §V-A reports 50–75 % for K40 DGEMM, ~0 for the Phi;
    /// §V-C reports 80–95 % for HotSpot.
    pub fn filtered_out_fraction(&self) -> f64 {
        if self.sdc == 0 {
            0.0
        } else {
            1.0 - self.critical_sdc as f64 / self.sdc as f64
        }
    }

    /// The total "All" FIT in a.u.
    pub fn fit_all_total(&self) -> f64 {
        self.fit_all.total().value()
    }

    /// The total "> threshold" FIT in a.u.
    pub fn fit_filtered_total(&self) -> f64 {
        self.fit_filtered.total().value()
    }

    /// 95 % Poisson confidence interval on the "All" FIT total, in a.u.
    pub fn fit_all_ci95(&self) -> (f64, f64) {
        let (lo, hi) = poisson_ci(self.sdc, 0.95);
        let scale = self.sigma_total / self.injections.max(1) as f64;
        (lo * scale, hi * scale)
    }

    /// Mean number of incorrect elements over SDCs.
    pub fn mean_incorrect_elements(&self) -> f64 {
        if self.scatter.is_empty() {
            return 0.0;
        }
        self.scatter
            .iter()
            .map(|p| p.incorrect_elements as f64)
            .sum::<f64>()
            / self.scatter.len() as f64
    }

    /// Fraction of SDCs whose mean relative error is at most
    /// `bound_pct` (for statements like "about 75 % of K40 DGEMM errors
    /// have a mean relative error below 10 %").
    pub fn fraction_mre_at_most(&self, bound_pct: f64) -> f64 {
        if self.scatter.is_empty() {
            return 0.0;
        }
        self.scatter
            .iter()
            .filter(|p| p.mean_relative_error <= bound_pct)
            .count() as f64
            / self.scatter.len() as f64
    }

    /// Share of cubic + square locality among filtered SDCs (§V-B's
    /// 55 %→42 % trend for K40 LavaMD).
    pub fn block_locality_fraction(&self) -> f64 {
        self.fit_all
            .fraction_of(&[SpatialClass::Cubic, SpatialClass::Square])
    }

    /// Renders the summary as one canonical JSON line (no trailing
    /// newline).
    ///
    /// The encoding is fully deterministic — fixed field order, sorted
    /// maps, [`radcrit_obs::json::fmt_f64`] float formatting — so two
    /// summaries are equal iff their rendered bytes are equal. This is
    /// the wire format of the campaign service's `result.json` and of
    /// the CLI's `--summary-out`, and the bit-for-bit identity check
    /// between the two paths compares exactly these bytes.
    pub fn to_json(&self) -> String {
        use radcrit_obs::json::{escape, fmt_f64};

        let fit = |b: &FitBreakdown| {
            let fields: Vec<String> = b
                .iter()
                .map(|(class, rate)| {
                    format!(
                        "\"{}\":{}",
                        escape(&class.to_string()),
                        fmt_f64(rate.value())
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let scatter: Vec<String> = self
            .scatter
            .iter()
            .map(|p| {
                format!(
                    "{{\"incorrect_elements\":{},\"mean_relative_error\":{}}}",
                    p.incorrect_elements,
                    fmt_f64(p.mean_relative_error)
                )
            })
            .collect();
        let by_site: Vec<String> = self
            .sdc_by_site
            .iter()
            .map(|(site, n)| format!("\"{}\":{n}", escape(site)))
            .collect();
        format!(
            concat!(
                "{{\"radcrit_summary\":1",
                ",\"kernel\":\"{}\",\"input\":\"{}\",\"device\":\"{}\"",
                ",\"injections\":{},\"masked\":{},\"sdc\":{},\"critical_sdc\":{}",
                ",\"crash\":{},\"hang\":{},\"sigma_total\":{}",
                ",\"fit_all\":{},\"fit_filtered\":{}",
                ",\"scatter\":[{}],\"sdc_by_site\":{{{}}}}}"
            ),
            escape(&self.kernel),
            escape(&self.input),
            escape(&self.device),
            self.injections,
            self.masked,
            self.sdc,
            self.critical_sdc,
            self.crash,
            self.hang,
            fmt_f64(self.sigma_total),
            fit(&self.fit_all),
            fit(&self.fit_filtered),
            scatter.join(","),
            by_site.join(",")
        )
    }
}

/// A human-readable report of one run: the summary's outcome counts
/// joined with the run's telemetry (wall time, throughput, latency,
/// watchdog activity).
///
/// Telemetry is deliberately *not* part of [`CampaignSummary`] — wall
/// clocks differ between runs, and the summary must stay bit-identical
/// between a resumed and an uninterrupted campaign. Pairing them happens
/// only at presentation time, here.
pub fn render_run(summary: &CampaignSummary, telemetry: &TelemetrySnapshot) -> String {
    let mut out = format!(
        "{} x {} on {}: {} injections -> {} masked, {} SDC ({} critical), {} crash, {} hang\n",
        summary.kernel,
        summary.input,
        summary.device,
        summary.injections,
        summary.masked,
        summary.sdc,
        summary.critical_sdc,
        summary.crash,
        summary.hang,
    );
    out.push_str(&format!(
        "run: {} new + {} replayed in {:.1?} ({:.1} inj/s)",
        telemetry.completed,
        telemetry.replayed,
        telemetry.elapsed,
        telemetry.throughput(),
    ));
    if let (Some(p50), Some(p90)) = (
        telemetry.latency.quantile(0.5),
        telemetry.latency.quantile(0.9),
    ) {
        out.push_str(&format!(" | latency p50<{p50:.1?} p90<{p90:.1?}"));
    }
    if telemetry.watchdog_hangs > 0 {
        out.push_str(&format!(
            " | {} hang(s) cut off by the watchdog",
            telemetry.watchdog_hangs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Campaign, KernelSpec};
    use crate::runner::CampaignResult;
    use radcrit_accel::config::DeviceConfig;

    fn result() -> CampaignResult {
        Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            200,
            5,
        )
        .with_workers(4)
        .run()
        .unwrap()
    }

    #[test]
    fn summary_counts_are_consistent() {
        let r = result();
        let s = r.summary();
        assert_eq!(s.injections, 200);
        assert_eq!(s.masked + s.sdc + s.crash + s.hang, 200);
        assert!(s.critical_sdc <= s.sdc);
        assert_eq!(
            s.scatter.len(),
            s.sdc,
            "one scatter point per faulty execution"
        );
        let by_site_total: usize = s.sdc_by_site.values().sum();
        assert_eq!(by_site_total, s.sdc);
    }

    #[test]
    fn fit_totals_scale_with_sigma() {
        let r = result();
        let s = r.summary();
        let expected = s.sdc as f64 / 200.0 * s.sigma_total;
        assert!((s.fit_all_total() - expected).abs() < 1e-9 * expected.max(1.0));
        assert!(s.fit_filtered_total() <= s.fit_all_total() + 1e-9);
    }

    #[test]
    fn ci_brackets_fit() {
        let r = result();
        let s = r.summary();
        if s.sdc > 0 {
            let (lo, hi) = s.fit_all_ci95();
            assert!(lo < s.fit_all_total());
            assert!(hi > s.fit_all_total());
        }
    }

    #[test]
    fn fraction_mre_is_monotone_in_bound() {
        let r = result();
        let s = r.summary();
        assert!(s.fraction_mre_at_most(1.0) <= s.fraction_mre_at_most(100.0));
        assert!(s.fraction_mre_at_most(f64::INFINITY) <= 1.0);
    }

    #[test]
    fn summary_json_is_deterministic_and_parseable() {
        use radcrit_obs::json;

        let s = result().summary();
        let line = s.to_json();
        assert_eq!(line, result().summary().to_json(), "stable across runs");
        assert!(!line.contains('\n'));

        let parsed = json::parse_line(&line).unwrap();
        let top = json::as_obj(&parsed).unwrap();
        assert_eq!(json::get_usize(top, "radcrit_summary"), Ok(1));
        assert_eq!(json::get_str(top, "kernel"), Ok("dgemm"));
        assert_eq!(json::get_usize(top, "injections"), Ok(200));
        assert_eq!(
            json::get_usize(top, "masked").unwrap()
                + json::get_usize(top, "sdc").unwrap()
                + json::get_usize(top, "crash").unwrap()
                + json::get_usize(top, "hang").unwrap(),
            200
        );
    }

    #[test]
    fn render_run_joins_summary_and_telemetry() {
        let r = result();
        let text = render_run(&r.summary(), &r.telemetry);
        assert!(text.contains("dgemm x 32x32"), "{text}");
        assert!(text.contains("200 injections"), "{text}");
        assert!(text.contains("inj/s"), "{text}");
        assert!(text.contains("200 new + 0 replayed"), "{text}");
    }
}
