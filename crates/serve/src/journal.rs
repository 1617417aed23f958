//! The crash-safe job-state journal.
//!
//! One [`AppendLog`] (`journal.jsonl` in the daemon's data directory;
//! its module docs give the crash rules) records every job transition:
//! a pinned versioned header line, then one self-contained JSON line per
//! transition, flushed per append.
//!
//! Replay folds the lines into the latest state per job. Jobs whose last
//! state is `submitted` or `running` were in flight when the previous
//! daemon died; the restarted daemon re-enqueues them, and the campaign
//! checkpoint inside the job directory takes care of not re-running
//! injection indices that already finished.

use std::collections::HashMap;
use std::path::Path;

use radcrit_obs::{json, AppendLog};

use crate::error::ServeError;
use crate::spec::{JobSpec, Priority};

/// Journal format version accepted by this build.
const JOURNAL_VERSION: usize = 1;

/// One job-state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted and queued.
    Submitted,
    /// Claimed by a worker.
    Running,
    /// Finished; `result.json` exists.
    Done,
    /// Failed with an error message.
    Failed(String),
    /// Cancelled by a client.
    Cancelled,
}

impl JobState {
    /// The wire name of the state.
    pub fn wire_name(&self) -> &'static str {
        match self {
            JobState::Submitted => "submitted",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the state is terminal (the job will never run again).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// A job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// The job id (`job-NNNNNN`).
    pub id: String,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Queue priority.
    pub priority: Priority,
    /// The job's latest journaled state.
    pub state: JobState,
}

/// Append handle over the journal file.
#[derive(Debug)]
pub struct Journal {
    log: AppendLog,
}

/// The journal's pinned header record.
fn header_line() -> String {
    format!("{{\"radcrit_job_journal\":{JOURNAL_VERSION}}}")
}

impl Journal {
    /// Opens (or creates) the journal at `path` and replays it.
    ///
    /// Returns the handle positioned for appending plus every job seen,
    /// in first-submission order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem problems, [`ServeError::Protocol`]
    /// when a complete line is damaged or the header version is unknown.
    pub fn open(path: &Path) -> Result<(Self, Vec<ReplayedJob>), ServeError> {
        let io = |e: std::io::Error| ServeError::Io(format!("journal {}: {e}", path.display()));
        let (mut log, lines) = AppendLog::open_pinned(path, &header_line()).map_err(io)?;
        let jobs = replay(&lines, path)?;

        // Compact a journal that has accumulated many transitions per
        // job: rewrite it as one spec-bearing record per job at its
        // latest state. Without this, the append-only file grows without
        // bound and every restart replays the full history.
        if lines.len() > jobs.len() * COMPACT_FACTOR + COMPACT_SLACK {
            let mut records = vec![header_line()];
            records.extend(
                jobs.iter()
                    .map(|job| render_line(&job.id, &job.state, Some((&job.spec, job.priority)))),
            );
            log.compact(&records).map_err(io)?;
        }
        Ok((Journal { log }, jobs))
    }

    /// Appends one transition and flushes it to the OS.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the write fails.
    pub fn append(
        &mut self,
        id: &str,
        state: &JobState,
        submission: Option<(&JobSpec, Priority)>,
    ) -> Result<(), ServeError> {
        self.log
            .append(&render_line(id, state, submission))
            .map_err(|e| ServeError::Io(format!("journal {}: {e}", self.log.path().display())))
    }
}

/// Renders one journal record.
fn render_line(id: &str, state: &JobState, submission: Option<(&JobSpec, Priority)>) -> String {
    let mut line = format!(
        "{{\"job\":\"{}\",\"state\":\"{}\"",
        json::escape(id),
        state.wire_name()
    );
    if let JobState::Failed(error) = state {
        line.push_str(&format!(",\"error\":\"{}\"", json::escape(error)));
    }
    if let Some((spec, priority)) = submission {
        line.push_str(&format!(
            ",\"priority\":\"{}\",\"spec\":{}",
            priority.wire_name(),
            spec.to_json()
        ));
    }
    line.push('}');
    line
}

/// Compaction kicks in when the journal holds more than
/// `jobs * COMPACT_FACTOR + COMPACT_SLACK` lines — roughly "several
/// transitions of history per job", so steady-state daemons rewrite the
/// file rarely and small journals never. [`AppendLog::compact`] swaps
/// the file atomically, so a crash during compaction leaves either the
/// old or the new journal, never a mix.
const COMPACT_FACTOR: usize = 4;
const COMPACT_SLACK: usize = 16;

/// Folds the journal's complete records into per-job latest states; a
/// record that does not decode is an error.
///
/// A state record *preceding* the submission record of its id is
/// tolerated: the concurrent submit/cancel paths serialize journal
/// appends so the spec-bearing record lands first, but journals written
/// by older daemons (which pushed before journaling) can hold a worker's
/// `running` line ahead of the `submitted` one. Such an orphan state
/// wins over the later submission record's state — it was appended by a
/// worker or cancel that acted *after* the submission. An orphan whose
/// spec record never arrives is dropped (it cannot be run).
fn replay(lines: &[String], path: &Path) -> Result<Vec<ReplayedJob>, ServeError> {
    let corrupt = |line_no: usize, m: String| {
        ServeError::Protocol(format!("journal {} line {line_no}: {m}", path.display()))
    };

    let mut jobs: Vec<ReplayedJob> = Vec::new();
    // Index into `jobs` so replay stays O(lines) while keeping
    // first-submission order in the Vec itself.
    let mut by_id: HashMap<String, usize> = HashMap::new();
    // States seen before their id's submission record (see above).
    let mut orphans: HashMap<String, JobState> = HashMap::new();
    for (i, line) in lines.iter().enumerate() {
        let v = json::parse_line(line).map_err(|m| corrupt(i + 1, m))?;
        let obj = json::as_obj(&v).map_err(|m| corrupt(i + 1, m))?;
        if let Ok(version) = json::get_usize(obj, "radcrit_job_journal") {
            if version != JOURNAL_VERSION {
                return Err(corrupt(
                    i + 1,
                    format!("unsupported journal version {version}"),
                ));
            }
            continue;
        }
        let id = json::get_str(obj, "job").map_err(|m| corrupt(i + 1, m))?;
        let state = match json::get_str(obj, "state").map_err(|m| corrupt(i + 1, m))? {
            "submitted" => JobState::Submitted,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed(
                json::get_str(obj, "error")
                    .map(str::to_owned)
                    .unwrap_or_else(|_| "unknown error".to_owned()),
            ),
            "cancelled" => JobState::Cancelled,
            other => return Err(corrupt(i + 1, format!("unknown state {other:?}"))),
        };
        match by_id.get(id) {
            Some(&at) => jobs[at].state = state,
            None => match json::get(obj, "spec") {
                Ok(spec_value) => {
                    let spec = JobSpec::from_value(spec_value)
                        .map_err(|e| corrupt(i + 1, e.to_string()))?;
                    let priority = json::get_str(obj, "priority")
                        .ok()
                        .map_or(Ok(Priority::Normal), Priority::from_wire)
                        .map_err(|e| corrupt(i + 1, e.to_string()))?;
                    by_id.insert(id.to_owned(), jobs.len());
                    jobs.push(ReplayedJob {
                        id: id.to_owned(),
                        spec,
                        priority,
                        // The orphan acted after the submission: it wins.
                        state: orphans.remove(id).unwrap_or(state),
                    });
                }
                Err(_) => {
                    orphans.insert(id.to_owned(), state);
                }
            },
        }
    }
    Ok(jobs)
}

/// The numeric suffix of `job-NNNNNN` ids, for allocating the next one.
pub fn job_number(id: &str) -> Option<u64> {
    id.strip_prefix("job-")?.parse().ok()
}

/// Renders a job id from its number.
pub fn job_id(number: u64) -> String {
    format!("job-{number:06}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_campaign::KernelSpec;
    use std::fs::OpenOptions;
    use std::io::Write as _;
    use std::path::PathBuf;

    use crate::spec::DeviceKind;

    fn temp(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "radcrit-journal-{tag}-{}.jsonl",
            std::process::id()
        ));
        std::fs::remove_file(&p).ok();
        p
    }

    fn spec() -> JobSpec {
        JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n: 32 }, 10, 7)
    }

    #[test]
    fn transitions_fold_to_latest_state() {
        let path = temp("fold");
        {
            let (mut j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            j.append(
                "job-000001",
                &JobState::Submitted,
                Some((&spec(), Priority::High)),
            )
            .unwrap();
            j.append(
                "job-000002",
                &JobState::Submitted,
                Some((&spec(), Priority::Low)),
            )
            .unwrap();
            j.append("job-000001", &JobState::Running, None).unwrap();
            j.append("job-000001", &JobState::Done, None).unwrap();
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].id, "job-000001");
        assert_eq!(replayed[0].state, JobState::Done);
        assert_eq!(replayed[0].priority, Priority::High);
        assert_eq!(replayed[0].spec, spec());
        assert_eq!(replayed[1].state, JobState::Submitted);
        assert_eq!(replayed[1].priority, Priority::Low);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_terminated() {
        let path = temp("torn");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(
                "job-000001",
                &JobState::Submitted,
                Some((&spec(), Priority::Normal)),
            )
            .unwrap();
            j.append("job-000001", &JobState::Running, None).unwrap();
        }
        // Simulate a kill mid-write: append half a line without newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"job\":\"job-0000").unwrap();
        drop(f);

        let (mut j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].state, JobState::Running, "tail ignored");
        // The journal still appends cleanly after the torn tail.
        j.append("job-000001", &JobState::Done, None).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed[0].state, JobState::Done);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn state_record_before_submission_is_tolerated() {
        // Journals written by older daemons (push before journal) can
        // hold a worker's `running` line ahead of the spec-bearing
        // `submitted` one; replay must not refuse to start over it.
        let path = temp("orphan");
        let spec_json = spec().to_json();
        std::fs::write(
            &path,
            format!(
                "{{\"radcrit_job_journal\":{JOURNAL_VERSION}}}\n\
                 {{\"job\":\"job-000001\",\"state\":\"running\"}}\n\
                 {{\"job\":\"job-000001\",\"state\":\"submitted\",\
                   \"priority\":\"high\",\"spec\":{spec_json}}}\n\
                 {{\"job\":\"job-000002\",\"state\":\"running\"}}\n"
            ),
        )
        .unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        // The orphan state wins (the worker acted after the submission),
        // and an orphan whose spec never arrives is dropped.
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].id, "job-000001");
        assert_eq!(replayed[0].state, JobState::Running);
        assert_eq!(replayed[0].priority, Priority::High);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn long_journals_compact_to_one_line_per_job() {
        let path = temp("compact");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            for n in 1..=4u64 {
                j.append(
                    &job_id(n),
                    &JobState::Submitted,
                    Some((&spec(), Priority::Normal)),
                )
                .unwrap();
            }
            // Churn well past the compaction threshold.
            for _ in 0..20 {
                for n in 1..=4u64 {
                    j.append(&job_id(n), &JobState::Running, None).unwrap();
                    j.append(&job_id(n), &JobState::Submitted, None).unwrap();
                }
            }
            for n in 1..=3u64 {
                j.append(&job_id(n), &JobState::Done, None).unwrap();
            }
            j.append(&job_id(4), &JobState::Failed("boom".into()), None)
                .unwrap();
        }
        let before = std::fs::read_to_string(&path).unwrap().lines().count();
        let (mut j, replayed) = Journal::open(&path).unwrap();
        let after = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(after, 1 + 4, "header plus one line per job, had {before}");
        assert!(
            !path.with_extension("jsonl.compact").exists(),
            "temp file renamed"
        );
        assert_eq!(replayed.len(), 4);
        // The compacted journal replays identically and still appends.
        assert_eq!(replayed[2].state, JobState::Done);
        assert_eq!(replayed[3].state, JobState::Failed("boom".into()));
        j.append(
            &job_id(5),
            &JobState::Submitted,
            Some((&spec(), Priority::Low)),
        )
        .unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed[0].state, JobState::Done);
        assert_eq!(replayed[0].spec, spec());
        assert_eq!(replayed[4].state, JobState::Submitted);
        assert_eq!(replayed[4].priority, Priority::Low);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interior_damage_is_an_error() {
        let path = temp("damage");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(
                "job-000001",
                &JobState::Submitted,
                Some((&spec(), Priority::Normal)),
            )
            .unwrap();
            j.append("job-000001", &JobState::Running, None).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let damaged = text.replacen("submitted", "sub\"bad", 1);
        std::fs::write(&path, &damaged).unwrap();
        match Journal::open(&path) {
            Err(ServeError::Protocol(m)) => assert!(m.contains("line 2"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            damaged,
            "left as found"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_state_round_trips_its_message() {
        let path = temp("failed");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(
                "job-000001",
                &JobState::Submitted,
                Some((&spec(), Priority::Normal)),
            )
            .unwrap();
            j.append(
                "job-000001",
                &JobState::Failed("strike \"x\" out of range".into()),
                None,
            )
            .unwrap();
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(
            replayed[0].state,
            JobState::Failed("strike \"x\" out of range".into())
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn job_id_numbering() {
        assert_eq!(job_id(7), "job-000007");
        assert_eq!(job_number("job-000007"), Some(7));
        assert_eq!(job_number("job-1000000"), Some(1_000_000));
        assert_eq!(job_number("nope"), None);
    }
}
