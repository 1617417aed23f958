//! The coordinator's merged event stream: every shard's tail folds into
//! one [`CriticalityAggregator`] and (optionally) one merged JSONL file
//! backing the federated `/jobs/:id/stream`.
//!
//! Idempotence per *global* injection index is the load-bearing
//! property: shard tails reconnect and replay from `Last-Event-ID`, a
//! re-dispatched shard re-delivers the prefix its dead predecessor
//! already streamed, and none of it changes the aggregate — an index is
//! folded and written at most once. The merged file keeps the analytic
//! skeleton of the campaign (the `run_begin` header, one terminal
//! `provenance`/`replay` line per index, and a synthesized `run_end`
//! once every index is covered); per-shard detail events stay on the
//! worker that produced them.

use std::collections::HashSet;
use std::path::Path;

use radcrit_obs::event::parse_event_line;
use radcrit_obs::{AppendLog, CriticalityAggregator};

/// What [`MergedStream::ingest_line`] did with a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// A `run_begin` header (folded; written once).
    Header,
    /// A terminal event covering a previously uncovered index.
    NewIndex(u64),
    /// A terminal event for an index already covered — a re-delivery,
    /// ignored by fold and file alike.
    Duplicate,
    /// Anything else (detail events, shard `run_end` trailers, torn
    /// fragments) — not part of the merged skeleton.
    Other,
}

/// The merged fold of all shard event streams of one campaign.
#[derive(Debug)]
pub struct MergedStream {
    agg: CriticalityAggregator,
    covered: HashSet<u64>,
    total: u64,
    out: Option<AppendLog>,
    header_written: bool,
    end_written: bool,
}

impl MergedStream {
    /// A fresh merge of a campaign with `total` injections, writing the
    /// merged skeleton to `out` when given (truncating any previous
    /// file there).
    ///
    /// # Errors
    ///
    /// Any I/O error creating the output file.
    pub fn create(total: u64, out: Option<&Path>) -> std::io::Result<Self> {
        let out = out.map(AppendLog::create).transpose()?;
        Ok(Self::over(total, out))
    }

    fn over(total: u64, out: Option<AppendLog>) -> Self {
        MergedStream {
            agg: CriticalityAggregator::new(),
            covered: HashSet::new(),
            total,
            out,
            header_written: false,
            end_written: false,
        }
    }

    /// Reopens an existing merged file (a coordinator restart): the
    /// torn tail is cut off and every complete record is re-ingested —
    /// recovering the covered set and the aggregate — before appending
    /// resumes.
    ///
    /// # Errors
    ///
    /// I/O failures, or merged records that no longer parse as events.
    pub fn resume(total: u64, path: &Path) -> Result<Self, String> {
        let (log, lines) = AppendLog::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut merged = Self::over(total, None);
        for (n, line) in lines.iter().enumerate() {
            parse_event_line(line)
                .map_err(|e| format!("{} line {}: {e}", path.display(), n + 1))?;
            merged.ingest_line(line)?;
        }
        // A resumed file may already carry the synthesized run_end.
        merged.end_written = merged.agg.is_finished();
        merged.out = Some(log);
        Ok(merged)
    }

    /// Ingests one event line from any shard's tail. See
    /// [`IngestOutcome`] for the classification; the fold itself is
    /// the aggregator's, so everything `fold_line` tolerates (torn
    /// fragments, unknown kinds) is tolerated here.
    ///
    /// # Errors
    ///
    /// A parseable terminal event with ill-typed fields, or I/O errors
    /// appending to the merged file.
    pub fn ingest_line(&mut self, line: &str) -> Result<IngestOutcome, String> {
        let Ok(event) = parse_event_line(line) else {
            return Ok(IngestOutcome::Other);
        };
        match event.kind.as_str() {
            "run_begin" => {
                self.agg.fold_line(line)?;
                if !self.header_written {
                    self.header_written = true;
                    self.write_line(line)?;
                }
                Ok(IngestOutcome::Header)
            }
            // A shard's own trailer ends that shard, not the campaign;
            // the merged stream synthesizes its own in `finish`.
            "run_end" => Ok(IngestOutcome::Other),
            "provenance" | "replay" => {
                let Some(index) = event.index else {
                    return Ok(IngestOutcome::Other);
                };
                if self.covered.contains(&index) {
                    return Ok(IngestOutcome::Duplicate);
                }
                self.agg.fold_line(line)?;
                self.covered.insert(index);
                self.write_line(line)?;
                Ok(IngestOutcome::NewIndex(index))
            }
            _ => Ok(IngestOutcome::Other),
        }
    }

    /// Synthesizes and writes the `run_end` trailer once every index is
    /// covered (idempotent; a no-op while indices are missing), and
    /// flushes the merged file. Call after every ingest batch — the
    /// tailer serving `/jobs/:id/stream` only sees flushed lines.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn finish_if_complete(&mut self) -> Result<(), String> {
        if self.is_complete() && !self.end_written {
            self.end_written = true;
            let line = format!(
                "{{\"e\":\"run_end\",\"produced\":{},\"masked\":{},\"sdc\":{},\
                 \"crash\":{},\"hang\":{}}}",
                self.covered.len(),
                self.agg.masked(),
                self.agg.sdc(),
                self.agg.crash(),
                self.agg.hang(),
            );
            self.agg.fold_line(&line)?;
            self.write_line(&line)?;
        }
        if let Some(out) = self.out.as_mut() {
            out.flush().map_err(|e| format!("merged stream: {e}"))?;
        }
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> Result<(), String> {
        if let Some(out) = self.out.as_mut() {
            out.push(line).map_err(|e| format!("merged stream: {e}"))?;
        }
        Ok(())
    }

    /// The merged aggregate — the coordinator's `/analytics` body and,
    /// once complete, the source of the federated `CampaignSummary`.
    pub fn aggregator(&self) -> &CriticalityAggregator {
        &self.agg
    }

    /// Indices covered so far.
    pub fn covered(&self) -> u64 {
        self.covered.len() as u64
    }

    /// Indices of `start..end` covered so far.
    pub fn covered_in(&self, start: u64, end: u64) -> u64 {
        (start..end).filter(|i| self.covered.contains(i)).count() as u64
    }

    /// The first index of `start..end` not yet covered (`end` when the
    /// whole range is covered). Shard event files are written in index
    /// order, so this is the exact point a re-dispatched shard resumes
    /// from.
    pub fn next_uncovered(&self, start: u64, end: u64) -> u64 {
        (start..end)
            .find(|i| !self.covered.contains(i))
            .unwrap_or(end)
    }

    /// Whether every index of `0..total` is covered.
    pub fn is_complete(&self) -> bool {
        self.covered.len() as u64 == self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_fabric_merge_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    const HEADER: &str = r#"{"e":"run_begin","device":"K40","injections":3,"seed":7,"kernel":"dgemm","input":"32x32","sigma":100.0}"#;

    fn prov(i: u64, outcome: &str) -> String {
        format!(
            "{{\"e\":\"provenance\",\"i\":{i},\"site\":\"fpu\",\"delivered\":true,\
             \"touched\":[],\"outcome\":\"{outcome}\",\"mismatches\":0,\
             \"class\":\"none\",\"critical\":false}}"
        )
    }

    #[test]
    fn redelivery_is_idempotent_and_completion_synthesizes_run_end() {
        let path = temp_path("idem");
        let mut m = MergedStream::create(3, Some(&path)).unwrap();
        assert_eq!(m.ingest_line(HEADER).unwrap(), IngestOutcome::Header);
        assert_eq!(
            m.ingest_line(&prov(0, "MASKED")).unwrap(),
            IngestOutcome::NewIndex(0)
        );
        // Reconnect replays the whole prefix; nothing changes.
        assert_eq!(m.ingest_line(HEADER).unwrap(), IngestOutcome::Header);
        assert_eq!(
            m.ingest_line(&prov(0, "MASKED")).unwrap(),
            IngestOutcome::Duplicate
        );
        m.ingest_line(&prov(2, "CRASH")).unwrap();
        m.finish_if_complete().unwrap();
        assert!(!m.is_complete());
        assert_eq!(m.next_uncovered(0, 3), 1);
        m.ingest_line(&prov(1, "MASKED")).unwrap();
        m.finish_if_complete().unwrap();
        assert!(m.is_complete());
        assert!(m.aggregator().is_finished());
        assert_eq!(m.aggregator().masked(), 2);
        assert_eq!(m.aggregator().crash(), 1);

        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "header + 3 terminals + run_end: {text}");
        assert!(lines[0].contains("run_begin"));
        assert!(lines[4].contains("run_end"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_run_end_trailers_are_not_campaign_end() {
        let mut m = MergedStream::create(2, None).unwrap();
        m.ingest_line(HEADER).unwrap();
        m.ingest_line(&prov(0, "MASKED")).unwrap();
        assert_eq!(
            m.ingest_line(r#"{"e":"run_end","produced":1,"masked":1,"sdc":0,"crash":0,"hang":0}"#)
                .unwrap(),
            IngestOutcome::Other
        );
        m.finish_if_complete().unwrap();
        assert!(
            !m.aggregator().is_finished(),
            "one shard ending is not the campaign ending"
        );
    }

    #[test]
    fn resume_recovers_coverage_and_truncates_torn_tail() {
        let path = temp_path("resume");
        {
            let mut m = MergedStream::create(3, Some(&path)).unwrap();
            m.ingest_line(HEADER).unwrap();
            m.ingest_line(&prov(0, "MASKED")).unwrap();
            m.finish_if_complete().unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"e\":\"provenance\",\"i\":1").unwrap();
        }
        let mut m = MergedStream::resume(3, &path).unwrap();
        assert_eq!(m.covered(), 1);
        assert!(m.covered.contains(&0));
        assert_eq!(m.next_uncovered(0, 3), 1);
        m.ingest_line(&prov(1, "SDC")).unwrap();
        m.ingest_line(&prov(2, "MASKED")).unwrap();
        m.finish_if_complete().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| parse_event_line(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_in_counts_per_shard_progress() {
        let mut m = MergedStream::create(10, None).unwrap();
        for i in [0u64, 1, 2, 7] {
            m.ingest_line(&prov(i, "MASKED")).unwrap();
        }
        assert_eq!(m.covered_in(0, 5), 3);
        assert_eq!(m.covered_in(5, 10), 1);
        assert_eq!(m.next_uncovered(5, 10), 5);
        assert_eq!(m.next_uncovered(0, 3), 3, "fully covered range");
    }
}
