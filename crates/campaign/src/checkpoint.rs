//! Streaming JSONL checkpoints: crash-safe persistence for long
//! campaigns.
//!
//! A checkpoint file is line-oriented: a header object identifying the
//! campaign, then one object per finished [`InjectionRecord`], appended
//! (and flushed) as workers produce them. Killing a campaign therefore
//! loses at most the line being written; [`crate::Campaign::resume`]
//! replays the completed indices and re-runs only the rest, which —
//! thanks to the per-index RNG streams — yields the same records and a
//! bit-identical summary as an uninterrupted run.
//!
//! ```text
//! {"radcrit_checkpoint":1,"kernel":"Dgemm { n: 32 }","device":"K40",...}
//! {"i":0,"site":"l2","tile":3,"delivered":true,"outcome":"MASKED"}
//! {"i":1,"site":"fatal","tile":null,"delivered":true,"outcome":"CRASH"}
//! {"i":2,"site":"fpu","tile":9,"delivered":true,"outcome":"SDC","sdc":{...}}
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so
//! `inf` and `NaN` appear verbatim — a deliberate deviation from strict
//! JSON (infinite mean relative errors are real data here, see
//! [`radcrit_core::mismatch::Mismatch::relative_error`]) that keeps the
//! codec lossless.
//!
//! The file is a [`radcrit_obs::AppendLog`] with the header pinned (its
//! module docs give the crash rules); a complete line that does not
//! decode is [`AccelError::Corrupt`]. The codec lives in
//! [`radcrit_obs::json`]; this module only defines the line formats.

use std::collections::HashSet;
use std::path::Path;
use std::str::FromStr;

use radcrit_accel::error::AccelError;
use radcrit_core::locality::SpatialClass;
use radcrit_core::report::CriticalityReport;
use radcrit_obs::json::{
    as_obj, escape, fmt_f64, fmt_opt_f64, get, get_bool, get_f64, get_opt_f64, get_opt_usize,
    get_str, get_usize, parse_line, Json,
};
use radcrit_obs::AppendLog;

use crate::config::Campaign;
use crate::outcome::{InjectionOutcome, InjectionRecord, SdcDetail};

/// Format version stamped into the header line.
const FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// The header line identifying the campaign a checkpoint belongs to.
pub fn header_line(campaign: &Campaign) -> String {
    format!(
        "{{\"radcrit_checkpoint\":{FORMAT_VERSION},\"kernel\":\"{}\",\"device\":\"{}\",\
         \"injections\":{},\"seed\":{},\"threshold\":{}}}",
        escape(&format!("{:?}", campaign.kernel)),
        escape(&campaign.device.kind().to_string()),
        campaign.injections,
        campaign.seed,
        fmt_f64(campaign.tolerance.threshold_pct()),
    )
}

/// One record as a single JSONL line (no trailing newline).
fn record_line(r: &InjectionRecord) -> String {
    let tile = r.at_tile.map_or_else(|| "null".into(), |t| t.to_string());
    let mut line = format!(
        "{{\"i\":{},\"site\":\"{}\",\"tile\":{tile},\"delivered\":{},\"outcome\":\"{}\"",
        r.index,
        escape(&r.site),
        r.delivered,
        r.outcome.tag(),
    );
    if let InjectionOutcome::Sdc(d) = &r.outcome {
        let c = &d.criticality;
        line.push_str(&format!(
            ",\"sdc\":{{\"incorrect\":{},\"mre\":{},\"locality\":\"{}\",\
             \"f_incorrect\":{},\"f_mre\":{},\"f_locality\":\"{}\",\
             \"threshold\":{},\"output_len\":{}}}",
            c.incorrect_elements,
            fmt_opt_f64(c.mean_relative_error),
            c.locality,
            c.filtered_incorrect_elements,
            fmt_opt_f64(c.filtered_mean_relative_error),
            c.filtered_locality,
            fmt_f64(c.threshold_pct),
            d.output_len,
        ));
    }
    line.push('}');
    line
}

// ---------------------------------------------------------------------
// Decoding — on top of the shared radcrit_obs::json reader
// ---------------------------------------------------------------------

fn get_class(obj: &[(String, Json)], key: &str) -> Result<SpatialClass, String> {
    SpatialClass::from_str(get_str(obj, key)?)
}

fn record_from_json(v: &Json) -> Result<InjectionRecord, String> {
    let obj = as_obj(v)?;
    let index = get_usize(obj, "i")?;
    let site = get_str(obj, "site")?.to_owned();
    let at_tile = get_opt_usize(obj, "tile")?;
    let delivered = get_bool(obj, "delivered")?;
    let outcome = match get_str(obj, "outcome")? {
        "MASKED" => InjectionOutcome::Masked,
        "CRASH" => InjectionOutcome::Crash,
        "HANG" => InjectionOutcome::Hang,
        "SDC" => {
            let sdc = as_obj(get(obj, "sdc")?)?;
            InjectionOutcome::Sdc(SdcDetail {
                criticality: CriticalityReport {
                    incorrect_elements: get_usize(sdc, "incorrect")?,
                    mean_relative_error: get_opt_f64(sdc, "mre")?,
                    locality: get_class(sdc, "locality")?,
                    filtered_incorrect_elements: get_usize(sdc, "f_incorrect")?,
                    filtered_mean_relative_error: get_opt_f64(sdc, "f_mre")?,
                    filtered_locality: get_class(sdc, "f_locality")?,
                    threshold_pct: get_f64(sdc, "threshold")?,
                },
                output_len: get_usize(sdc, "output_len")?,
            })
        }
        other => return Err(format!("unknown outcome tag {other:?}")),
    };
    Ok(InjectionRecord {
        index,
        site,
        at_tile,
        delivered,
        outcome,
    })
}

// ---------------------------------------------------------------------
// File-level API — the file is an AppendLog with a pinned header
// ---------------------------------------------------------------------

fn corrupt(path: &Path, msg: impl std::fmt::Display) -> AccelError {
    AccelError::Corrupt(format!("checkpoint {}: {msg}", path.display()))
}

/// Opens the checkpoint of `campaign` at `path` for appending.
///
/// A fresh run (`resume == false`) truncates the file and writes the
/// header. A resumed run replays the records already there (none when
/// the file does not exist yet, in which case it is created) after the
/// log has cut off its torn tail.
///
/// # Errors
///
/// [`AccelError::Corrupt`] on I/O failure, when the header belongs to a
/// different campaign, or when a complete record does not decode.
pub fn open(
    path: &Path,
    campaign: &Campaign,
    resume: bool,
) -> Result<(AppendLog, Vec<InjectionRecord>), AccelError> {
    let header = header_line(campaign);
    if !resume {
        let mut log = AppendLog::create(path).map_err(|e| corrupt(path, e))?;
        log.append(&header).map_err(|e| corrupt(path, e))?;
        return Ok((log, Vec::new()));
    }
    let (log, lines) = AppendLog::open_pinned(path, &header).map_err(|e| corrupt(path, e))?;
    let records = decode(path, campaign, &lines)?;
    Ok((log, records))
}

/// Appends one record and writes it to the OS before returning.
///
/// # Errors
///
/// [`AccelError::Corrupt`] on I/O failure.
pub fn append(log: &mut AppendLog, record: &InjectionRecord) -> Result<(), AccelError> {
    log.append(&record_line(record))
        .map_err(|e| corrupt(log.path(), e))
}

/// Reads and validates the records of `path` against `campaign`,
/// ignoring (not cutting) a torn tail. Duplicate indices keep their
/// first record.
///
/// # Errors
///
/// [`AccelError::Corrupt`] when the file is unreadable, its header does
/// not match `campaign`, or a complete record does not decode.
pub fn read_records(path: &Path, campaign: &Campaign) -> Result<Vec<InjectionRecord>, AccelError> {
    let lines = AppendLog::read(path).map_err(|e| corrupt(path, e))?;
    decode(path, campaign, &lines)
}

fn decode(
    path: &Path,
    campaign: &Campaign,
    lines: &[String],
) -> Result<Vec<InjectionRecord>, AccelError> {
    let Some(header) = lines.first() else {
        return Err(corrupt(path, "empty file (missing header)"));
    };
    if *header != header_line(campaign) {
        parse_line(header).map_err(|e| corrupt(path, format!("bad header: {e}")))?;
        return Err(corrupt(
            path,
            "header does not match this campaign (kernel, device, injections, seed or threshold \
             differ)",
        ));
    }
    let mut records = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for (n, line) in lines.iter().enumerate().skip(1) {
        let r = parse_line(line)
            .and_then(|v| record_from_json(&v))
            .map_err(|e| corrupt(path, format!("line {}: {e}", n + 1)))?;
        if r.index >= campaign.injections {
            return Err(corrupt(
                path,
                format!(
                    "line {}: record index {} out of range for {} injections",
                    n + 1,
                    r.index,
                    campaign.injections
                ),
            ));
        }
        if seen.insert(r.index) {
            records.push(r);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelSpec;
    use radcrit_accel::config::DeviceConfig;

    fn campaign() -> Campaign {
        Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            40,
            7,
        )
    }

    fn sdc_record(index: usize, mre: Option<f64>) -> InjectionRecord {
        InjectionRecord {
            index,
            site: "l2".into(),
            at_tile: Some(3),
            delivered: true,
            outcome: InjectionOutcome::Sdc(SdcDetail {
                criticality: CriticalityReport {
                    incorrect_elements: 5,
                    mean_relative_error: mre,
                    locality: SpatialClass::Line,
                    filtered_incorrect_elements: 2,
                    filtered_mean_relative_error: mre.map(|v| v / 2.0),
                    filtered_locality: SpatialClass::Single,
                    threshold_pct: 2.0,
                },
                output_len: 1024,
            }),
        }
    }

    fn torn_tail(path: &Path) {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
        write!(f, "{{\"i\":9,\"site\":\"l").unwrap();
    }

    fn roundtrip(r: &InjectionRecord) -> InjectionRecord {
        let line = record_line(r);
        record_from_json(&parse_line(&line).unwrap()).unwrap()
    }

    #[test]
    fn records_round_trip_losslessly() {
        let masked = InjectionRecord {
            index: 0,
            site: "scheduler".into(),
            at_tile: None,
            delivered: false,
            outcome: InjectionOutcome::Masked,
        };
        assert_eq!(roundtrip(&masked), masked);
        let crash = InjectionRecord {
            index: 1,
            site: "fatal".into(),
            at_tile: None,
            delivered: true,
            outcome: InjectionOutcome::Crash,
        };
        assert_eq!(roundtrip(&crash), crash);
        let sdc = sdc_record(2, Some(1.25));
        assert_eq!(roundtrip(&sdc), sdc);
        let no_mre = sdc_record(3, None);
        assert_eq!(roundtrip(&no_mre), no_mre);
    }

    #[test]
    fn infinite_relative_errors_survive_the_round_trip() {
        let inf = sdc_record(4, Some(f64::INFINITY));
        assert_eq!(roundtrip(&inf), inf);
        // Shortest round-trip formatting must be exact for finite values
        // too, including ones with many digits.
        let precise = sdc_record(5, Some(1.000_000_000_000_000_2));
        assert_eq!(roundtrip(&precise), precise);
    }

    #[test]
    fn sites_with_funny_characters_survive() {
        let mut r = sdc_record(6, Some(1.0));
        r.site = "a \"quoted\"\\\nsite\t".into();
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn file_round_trip_and_truncated_tail() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-test-{}.jsonl",
            std::process::id()
        ));
        let (mut log, _) = open(&path, &c, false).unwrap();
        let mut records = vec![sdc_record(0, Some(3.5)), sdc_record(7, None)];
        for r in &records {
            append(&mut log, r).unwrap();
        }
        drop(log);
        // Simulate a kill mid-write: append half a line.
        torn_tail(&path);
        let read = read_records(&path, &c).unwrap();
        assert_eq!(read, records);
        // Resuming cuts the fragment off, so the next record lands on a
        // clean line and the file still reads back whole.
        let (mut log, replayed) = open(&path, &c, true).unwrap();
        assert_eq!(replayed, records);
        records.push(sdc_record(9, Some(1.0)));
        append(&mut log, &records[2]).unwrap();
        drop(log);
        assert_eq!(read_records(&path, &c).unwrap(), records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-mismatch-{}.jsonl",
            std::process::id()
        ));
        drop(open(&path, &c, false).unwrap());
        let other = Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            40,
            8, // different seed
        );
        let err = read_records(&path, &other).unwrap_err();
        assert!(matches!(err, AccelError::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_middle_line_is_corrupt() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-midline-{}.jsonl",
            std::process::id()
        ));
        let (mut log, _) = open(&path, &c, false).unwrap();
        append(&mut log, &sdc_record(0, Some(1.0))).unwrap();
        drop(log);
        let whole = std::fs::read_to_string(&path).unwrap();
        let line = record_line(&sdc_record(1, Some(1.0)));
        // Damage in the middle or on the last complete line alike: only
        // an unterminated tail is a crash artifact.
        for damaged in [
            format!("{whole}not json at all\n{line}\n"),
            format!("{whole}not json at all\n"),
        ] {
            std::fs::write(&path, &damaged).unwrap();
            let err = read_records(&path, &c).unwrap_err();
            assert!(matches!(err, AccelError::Corrupt(_)), "{err:?}");
            let err = open(&path, &c, true).unwrap_err();
            assert!(err.to_string().contains("line 3"), "{err}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                damaged,
                "left as found"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_indices_keep_the_first_record() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-dup-{}.jsonl",
            std::process::id()
        ));
        let (mut log, _) = open(&path, &c, false).unwrap();
        let first = sdc_record(0, Some(1.0));
        let second = sdc_record(0, Some(99.0));
        append(&mut log, &first).unwrap();
        append(&mut log, &second).unwrap();
        drop(log);
        let read = read_records(&path, &c).unwrap();
        assert_eq!(read, vec![first]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_on_missing_file_starts_fresh() {
        let c = campaign();
        let path = std::env::temp_dir().join(format!(
            "radcrit-checkpoint-fresh-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let (log, replayed) = open(&path, &c, true).unwrap();
        assert!(replayed.is_empty());
        drop(log);
        assert!(path.exists(), "header must have been written");
        assert_eq!(read_records(&path, &c).unwrap(), vec![]);
        std::fs::remove_file(&path).ok();
    }
}
