//! The coordinator's crash-safe shard journal.
//!
//! An [`AppendLog`] (its module docs give the crash rules): a pinned
//! versioned header line naming the campaign, then one record per shard
//! state transition, each written before the transition is acted on.
//! On open the records replay to the latest state per shard, so a
//! restarted coordinator knows which shards were dispatched where and
//! which completed, and can resume tailing / re-dispatch the rest.

use std::collections::BTreeMap;
use std::path::Path;

use radcrit_obs::json::{self, escape};
use radcrit_obs::AppendLog;

/// Journal format version, written in the header line.
const FABRIC_JOURNAL_VERSION: u64 = 1;

/// Lifecycle state of one shard, as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// First assignment to a worker.
    Dispatched,
    /// Remaining range re-assigned after its worker died.
    Redispatched,
    /// The shard's whole index range is covered by the merged stream.
    Completed,
}

impl ShardState {
    /// The state's wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            ShardState::Dispatched => "dispatched",
            ShardState::Redispatched => "redispatched",
            ShardState::Completed => "completed",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "dispatched" => Ok(ShardState::Dispatched),
            "redispatched" => Ok(ShardState::Redispatched),
            "completed" => Ok(ShardState::Completed),
            other => Err(format!("unknown shard state {other:?}")),
        }
    }
}

/// One journaled shard state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Shard ordinal within the campaign's plan.
    pub shard: usize,
    /// Shard range start (inclusive, global injection index).
    pub start: u64,
    /// Shard range end (exclusive).
    pub end: u64,
    /// Worker address the shard is (or was last) assigned to.
    pub worker: String,
    /// Job id on that worker, empty until known.
    pub job: String,
    /// The transition.
    pub state: ShardState,
    /// First index not yet covered by the merged stream at the time of
    /// this transition — where a re-dispatch resumes from.
    pub resume_from: u64,
}

impl ShardRecord {
    fn render(&self) -> String {
        format!(
            "{{\"shard\":{},\"start\":{},\"end\":{},\"worker\":\"{}\",\
             \"job\":\"{}\",\"state\":\"{}\",\"resume_from\":{}}}",
            self.shard,
            self.start,
            self.end,
            escape(&self.worker),
            escape(&self.job),
            self.state.wire_name(),
            self.resume_from,
        )
    }

    fn parse(line: &str) -> Result<Self, String> {
        let v = json::parse_line(line)?;
        let obj = json::as_obj(&v)?;
        Ok(ShardRecord {
            shard: json::get_usize(obj, "shard")?,
            start: json::get_u64(obj, "start")?,
            end: json::get_u64(obj, "end")?,
            worker: json::get_str(obj, "worker")?.to_owned(),
            job: json::get_str(obj, "job")?.to_owned(),
            state: ShardState::parse(json::get_str(obj, "state")?)?,
            resume_from: json::get_u64(obj, "resume_from")?,
        })
    }
}

/// The append-only shard journal.
#[derive(Debug)]
pub struct FabricJournal {
    log: AppendLog,
}

impl FabricJournal {
    /// Opens (or creates) the journal at `path` for the campaign whose
    /// canonical spec line is `campaign_json`, returning the journal,
    /// the campaign line its header pins (`campaign_json` for a fresh
    /// file), the campaign's pinned shard count, and the latest replayed
    /// state per shard (empty for a fresh file).
    ///
    /// A fresh journal writes `planned_shards` into its header; an
    /// existing journal returns the count *it* recorded, ignoring
    /// `planned_shards` — so a restarted coordinator re-derives exactly
    /// the split it first journaled even if the shard-count flag
    /// changed, and replayed records always line up with the plan by
    /// ordinal. The torn final line is cut off. Whether the pinned
    /// campaign is the caller's is the caller's decision: it owns the
    /// spec format, and re-dispatching another campaign's shards would
    /// corrupt both.
    ///
    /// # Errors
    ///
    /// I/O failures, a bad header, or a complete record that does not
    /// decode.
    pub fn open(
        path: &Path,
        campaign_json: &str,
        planned_shards: usize,
    ) -> Result<(Self, String, usize, Vec<ShardRecord>), String> {
        let header = format!(
            "{{\"radcrit_fabric_journal\":{FABRIC_JOURNAL_VERSION},\
             \"campaign\":\"{}\",\"shards\":{planned_shards}}}",
            escape(campaign_json)
        );
        let (log, lines) = AppendLog::open_pinned(path, &header)
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let bad = |e: String| format!("journal header: {e}");
        let v = json::parse_line(&lines[0]).map_err(bad)?;
        let obj = json::as_obj(&v).map_err(bad)?;
        let version = json::get_usize(obj, "radcrit_fabric_journal").map_err(bad)?;
        if version as u64 != FABRIC_JOURNAL_VERSION {
            return Err(format!("unsupported fabric journal version {version}"));
        }
        let campaign = json::get_str(obj, "campaign").map_err(bad)?.to_owned();
        let shards = json::get_usize(obj, "shards").map_err(bad)?;

        let mut latest: BTreeMap<usize, ShardRecord> = BTreeMap::new();
        for (n, line) in lines.iter().enumerate().skip(1) {
            let rec = ShardRecord::parse(line)
                .map_err(|e| format!("journal {} line {}: {e}", path.display(), n + 1))?;
            latest.insert(rec.shard, rec);
        }
        Ok((
            FabricJournal { log },
            campaign,
            shards,
            latest.into_values().collect(),
        ))
    }

    /// Appends one shard transition, flushed to the OS before return —
    /// the coordinator acts on a transition only after it is journaled.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn append(&mut self, record: &ShardRecord) -> std::io::Result<()> {
        self.log.append(&record.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const CAMPAIGN: &str = r#"{"spec":1,"kernel":"dgemm","n":32,"injections":40,"seed":23}"#;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_fabric_journal_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn rec(shard: usize, state: ShardState, worker: &str, resume_from: u64) -> ShardRecord {
        ShardRecord {
            shard,
            start: shard as u64 * 10,
            end: shard as u64 * 10 + 10,
            worker: worker.to_owned(),
            job: format!("job-{shard:06}"),
            state,
            resume_from,
        }
    }

    #[test]
    fn replay_returns_the_latest_state_per_shard() {
        let path = temp_path("replay");
        {
            let (mut j, _, shards, replayed) = FabricJournal::open(&path, CAMPAIGN, 4).unwrap();
            assert_eq!(shards, 4);
            assert!(replayed.is_empty());
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
            j.append(&rec(1, ShardState::Dispatched, "b:2", 10))
                .unwrap();
            j.append(&rec(0, ShardState::Completed, "a:1", 10)).unwrap();
            j.append(&rec(1, ShardState::Redispatched, "a:1", 14))
                .unwrap();
        }
        let (_, _, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 4).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].state, ShardState::Completed);
        assert_eq!(replayed[1].state, ShardState::Redispatched);
        assert_eq!(replayed[1].worker, "a:1");
        assert_eq!(replayed[1].resume_from, 14);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_continues() {
        let path = temp_path("torn");
        {
            let (mut j, _, _, _) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
        }
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"shard\":1,\"start\":10,\"en").unwrap();
        }
        let (mut j, _, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
        assert_eq!(replayed.len(), 1, "torn record dropped");
        j.append(&rec(1, ShardState::Dispatched, "b:2", 10))
            .unwrap();
        drop(j);
        let (_, _, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
        assert_eq!(replayed.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_complete_record_is_an_error_not_a_torn_tail() {
        let path = temp_path("damaged");
        {
            let (mut j, _, _, _) = FabricJournal::open(&path, CAMPAIGN, 2).unwrap();
            j.append(&rec(0, ShardState::Dispatched, "a:1", 0)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let (header, body) = text.split_once('\n').unwrap();
        let damaged = format!("{header}\n{{\"shard\":\n{body}");
        std::fs::write(&path, &damaged).unwrap();
        let err = FabricJournal::open(&path, CAMPAIGN, 2).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            damaged,
            "left as found"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_header_pins_the_campaign_and_shard_count_across_reopens() {
        let path = temp_path("pinned");
        drop(FabricJournal::open(&path, CAMPAIGN, 3).unwrap());
        // A restart with a different shard-count flag keeps the
        // journaled split — otherwise replayed ordinals would index a
        // different plan. The pinned campaign line comes back as written
        // for the caller to check against its own.
        let other = r#"{"spec":1,"kernel":"lava"}"#;
        let (_, campaign, shards, _) = FabricJournal::open(&path, other, 7).unwrap();
        assert_eq!((campaign.as_str(), shards), (CAMPAIGN, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ranges_beyond_u32_survive_a_round_trip() {
        let path = temp_path("u64");
        let big = ShardRecord {
            shard: 0,
            start: 1 << 40,
            end: (1 << 40) + 10,
            worker: "a:1".to_owned(),
            job: "job-000000".to_owned(),
            state: ShardState::Dispatched,
            resume_from: (1 << 40) + 3,
        };
        {
            let (mut j, _, _, _) = FabricJournal::open(&path, CAMPAIGN, 1).unwrap();
            j.append(&big).unwrap();
        }
        let (_, _, _, replayed) = FabricJournal::open(&path, CAMPAIGN, 1).unwrap();
        assert_eq!(replayed, vec![big]);
        std::fs::remove_file(&path).ok();
    }
}
