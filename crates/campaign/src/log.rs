//! Event logs and CSV export.
//!
//! The paper publishes its corrupted outputs "in a publicly accessible
//! repository so to allow users to apply different filters" (§III,
//! the UFRGS-CAROL `HPCA2017-log-data` repository). This module mirrors
//! that practice: one human-readable event line per injection, plus a
//! machine-readable CSV with every metric, so third parties can re-filter
//! the campaign with their own thresholds.

use std::io::{self, Write};

use crate::outcome::{InjectionOutcome, InjectionRecord};
use crate::runner::CampaignResult;

/// Formats one record as a CAROL-style log line.
///
/// ```text
/// #SDC kernel:dgemm device:K40 input:256x256 site:l2 tile:37 delivered:1
///      incorrect:12 mre:43.10 locality:line filt_incorrect:12 filt_mre:43.10
///      filt_locality:line
/// ```
fn event_line(result: &CampaignResult, record: &InjectionRecord) -> String {
    let head = format!(
        "#{} kernel:{} device:{} input:{} site:{} tile:{} delivered:{}",
        record.outcome.tag(),
        result.campaign.kernel.name(),
        result.campaign.device.kind(),
        result.campaign.kernel.input_label(),
        record.site,
        record
            .at_tile
            .map_or_else(|| "-".to_owned(), |t| t.to_string()),
        u8::from(record.delivered),
    );
    match &record.outcome {
        InjectionOutcome::Sdc(d) => {
            let c = &d.criticality;
            format!(
                "{head} incorrect:{} mre:{} locality:{} filt_incorrect:{} filt_mre:{} filt_locality:{}",
                c.incorrect_elements,
                fmt_pct(c.mean_relative_error),
                c.locality,
                c.filtered_incorrect_elements,
                fmt_pct(c.filtered_mean_relative_error),
                c.filtered_locality,
            )
        }
        _ => head,
    }
}

fn fmt_pct(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.4}"),
        Some(_) => "inf".to_owned(),
        None => "-".to_owned(),
    }
}

/// Writes the full campaign log (header + one event line per record).
///
/// # Errors
///
/// Propagates I/O failures of `w` (a `&mut Vec<u8>` or any `Write` can
/// be passed).
pub fn write_log<W: Write>(result: &CampaignResult, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "#HEADER kernel:{} device:{} input:{} injections:{} sigma:{:.3e}",
        result.campaign.kernel.name(),
        result.campaign.device.kind(),
        result.campaign.kernel.input_label(),
        result.records.len(),
        result.sigma_total,
    )?;
    for record in &result.records {
        writeln!(w, "{}", event_line(result, record))?;
    }
    Ok(())
}

/// Writes the campaign as CSV with one row per injection.
///
/// # Errors
///
/// Propagates I/O failures of `w`.
pub fn write_csv<W: Write>(result: &CampaignResult, mut w: W) -> io::Result<()> {
    writeln!(
        w,
        "index,outcome,site,at_tile,delivered,incorrect,mre,locality,\
         filt_incorrect,filt_mre,filt_locality"
    )?;
    for r in &result.records {
        let (incorrect, mre, loc, fi, fmre, floc) = match &r.outcome {
            InjectionOutcome::Sdc(d) => {
                let c = &d.criticality;
                (
                    c.incorrect_elements.to_string(),
                    fmt_pct(c.mean_relative_error),
                    c.locality.to_string(),
                    c.filtered_incorrect_elements.to_string(),
                    fmt_pct(c.filtered_mean_relative_error),
                    c.filtered_locality.to_string(),
                )
            }
            _ => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
        };
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{}",
            r.index,
            r.outcome.tag(),
            r.site,
            r.at_tile.map_or_else(String::new, |t| t.to_string()),
            u8::from(r.delivered),
            incorrect,
            mre,
            loc,
            fi,
            fmre,
            floc,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Campaign, KernelSpec};
    use radcrit_accel::config::DeviceConfig;

    fn result() -> CampaignResult {
        Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            60,
            5,
        )
        .with_workers(2)
        .run()
        .unwrap()
    }

    #[test]
    fn log_has_header_and_one_line_per_record() {
        let r = result();
        let mut buf = Vec::new();
        write_log(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("#HEADER"));
        assert_eq!(lines.len(), 1 + r.records.len());
        assert!(text.contains("kernel:dgemm"));
    }

    #[test]
    fn sdc_lines_carry_all_metrics() {
        let r = result();
        let sdc_line = r
            .records
            .iter()
            .find(|rec| rec.outcome.is_sdc())
            .map(|rec| event_line(&r, rec));
        if let Some(line) = sdc_line {
            for key in ["incorrect:", "mre:", "locality:", "filt_incorrect:"] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
    }

    #[test]
    fn csv_is_rectangular() {
        let r = result();
        let mut buf = Vec::new();
        write_csv(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let header_cols = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), header_cols, "ragged row: {line}");
        }
    }
}
