//! Index-sequenced JSONL event stream writer.
//!
//! The campaign collector receives per-injection results in worker
//! completion order, which varies with thread count and load. The
//! [`EventWriter`] restores determinism: each injection's events are
//! submitted as one block keyed by injection index, blocks are buffered
//! until the next expected index arrives, and the file is written in
//! strict index order — so a fixed-seed campaign produces a
//! byte-identical stream no matter how many workers ran it.
//!
//! The file is an [`AppendLog`] (its module docs give the crash rules).
//! On resume the writer reports which injection indices the stream
//! already covers so the campaign can skip them — no duplicated and no
//! missing indices across kill/resume cycles.
//!
//! A writer with a [`Notifier`] attached ([`EventWriter::with_notifier`])
//! writes each contiguous block through to the file and bumps the
//! notifier, so a live tailer wakes per block. Without one, lines wait
//! in the log's buffer until it fills or [`EventWriter::finish`]. The
//! bytes on disk are the same either way.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::sync::Arc;

use crate::append_log::AppendLog;
use crate::event::{parse_event_line, Event};
use crate::notify::Notifier;

/// Writes an event stream to disk in injection-index order.
#[derive(Debug)]
pub struct EventWriter {
    out: AppendLog,
    /// Indices still awaited, in emission order.
    expected: VecDeque<u64>,
    /// Blocks that arrived ahead of the expected front.
    buffered: BTreeMap<u64, Vec<String>>,
    /// Detail-event sampling stride (1 = every injection).
    sample: u64,
    /// Bumped after every write-through; `None` keeps lines buffered.
    notify: Option<Arc<Notifier>>,
}

impl EventWriter {
    /// Creates a fresh stream expecting injections `0..total`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create(path: &Path, total: u64, sample: u64) -> io::Result<Self> {
        Self::create_range(path, 0, total, sample)
    }

    /// Creates a fresh stream expecting only injections `start..end` —
    /// the shard-range variant. Blocks for the shard flush as soon as
    /// they are contiguous with the shard front, so a live tailer sees
    /// the stream grow instead of everything gapping until `finish`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the file.
    pub fn create_range(path: &Path, start: u64, end: u64, sample: u64) -> io::Result<Self> {
        Ok(Self::over(AppendLog::create(path)?, start..end, sample))
    }

    fn over(out: AppendLog, expected: impl Iterator<Item = u64>, sample: u64) -> Self {
        EventWriter {
            out,
            expected: expected.collect(),
            buffered: BTreeMap::new(),
            sample: sample.max(1),
            notify: None,
        }
    }

    /// Writes every later block, `emit_top` and `finish` through to the
    /// file and bumps `notify` after each, for a live tailer.
    #[must_use]
    pub fn with_notifier(mut self, notify: Option<Arc<Notifier>>) -> Self {
        self.notify = notify;
        self
    }

    /// Makes what was pushed visible to a live tailer, when one listens.
    fn publish(&mut self) -> io::Result<()> {
        if let Some(notify) = &self.notify {
            self.out.flush()?;
            notify.bump();
        }
        Ok(())
    }

    /// Reopens an existing stream (missing → empty) for append, returning
    /// the writer and the injection indices whose terminal `provenance`
    /// or `replay` event is in the file. A block cut short before its
    /// terminal event does not cover its index, so the campaign
    /// re-submits it.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the file, or
    /// [`io::ErrorKind::InvalidData`] for a complete line that is not an
    /// event.
    pub fn resume(path: &Path, total: u64, sample: u64) -> io::Result<(Self, HashSet<u64>)> {
        Self::resume_range(path, 0, total, sample)
    }

    /// Shard-range variant of [`EventWriter::resume`]: only indices in
    /// `start..end` are awaited; everything already in the file is
    /// reported back regardless of range.
    ///
    /// # Errors
    ///
    /// As [`EventWriter::resume`].
    pub fn resume_range(
        path: &Path,
        start: u64,
        end: u64,
        sample: u64,
    ) -> io::Result<(Self, HashSet<u64>)> {
        let (out, lines) = AppendLog::open(path)?;
        let mut have = HashSet::new();
        for (n, line) in lines.iter().enumerate() {
            let event = parse_event_line(line).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{} line {}: {e}", path.display(), n + 1),
                )
            })?;
            if matches!(event.kind.as_str(), "provenance" | "replay") {
                have.extend(event.index);
            }
        }
        let expected = (start..end).filter(|i| !have.contains(i));
        Ok((Self::over(out, expected, sample), have))
    }

    /// Whether the stream holds no complete record yet — a resumed
    /// stream cut inside its `run_begin` header is empty again.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Whether detail events should be collected for this injection
    /// (index falls on the sampling stride).
    pub fn sampled(&self, index: u64) -> bool {
        index.is_multiple_of(self.sample)
    }

    /// Writes a campaign-level event (no index sequencing) immediately.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the line.
    pub fn emit_top(&mut self, event: &Event) -> io::Result<()> {
        self.out.push(&event.line())?;
        self.publish()
    }

    /// Submits one injection's event block; flushes every block that is
    /// now contiguous with the expected-index front.
    ///
    /// # Errors
    ///
    /// Any I/O error writing flushed blocks.
    pub fn submit(&mut self, index: u64, events: &[Event]) -> io::Result<()> {
        self.buffered
            .insert(index, events.iter().map(Event::line).collect());
        let mut wrote = false;
        while let Some(&front) = self.expected.front() {
            let Some(lines) = self.buffered.remove(&front) else {
                break;
            };
            self.expected.pop_front();
            for line in lines {
                self.out.push(&line)?;
                wrote = true;
            }
        }
        if wrote {
            self.publish()?;
        }
        Ok(())
    }

    /// Flushes any out-of-order remainder (in index order) and syncs the
    /// stream. Called once at end of run; a budget-stopped campaign
    /// legitimately leaves gaps, and this writes what it has.
    ///
    /// # Errors
    ///
    /// Any I/O error writing or flushing.
    pub fn finish(&mut self) -> io::Result<()> {
        for (_, lines) in std::mem::take(&mut self.buffered) {
            for line in lines {
                self.out.push(&line)?;
            }
        }
        self.out.flush()?;
        self.publish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuffer;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "radcrit_obs_writer_{tag}_{}_{}.jsonl",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn block(i: u64, site: &str) -> Vec<Event> {
        let mut buf = EventBuffer::for_injection(i);
        buf.emit("strike").str("site", site);
        buf.emit("provenance").str("tag", "MASKED");
        buf.take()
    }

    #[test]
    fn out_of_order_blocks_come_out_in_index_order() {
        let path = temp_path("order");
        let mut w = EventWriter::create(&path, 3, 1).unwrap();
        w.submit(2, &block(2, "l2")).unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.submit(1, &block(1, "sfu")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| parse_event_line(l).unwrap().index.unwrap())
            .collect();
        assert_eq!(indices, [0, 0, 1, 1, 2, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn finish_flushes_gapped_remainder() {
        let path = temp_path("gap");
        let mut w = EventWriter::create(&path, 4, 1).unwrap();
        // Index 0 never arrives (budget stop); 3 and 1 did.
        w.submit(3, &block(3, "l1")).unwrap();
        w.submit(1, &block(1, "fpu")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| parse_event_line(l).unwrap().index.unwrap())
            .collect();
        assert_eq!(indices, [1, 1, 3, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_block_cut_before_its_terminal_event_is_not_covered() {
        let path = temp_path("cutblock");
        let mut w = EventWriter::create(&path, 2, 1).unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.submit(1, &block(1, "l2")).unwrap();
        w.finish().unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: usize = text.split_inclusive('\n').take(3).map(str::len).sum();
        std::fs::write(&path, &text[..cut]).unwrap();
        let (_, have) = EventWriter::resume(&path, 2, 1).unwrap();
        assert_eq!(have, HashSet::from([0]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_reports_emitted_indices_and_truncates_torn_tail() {
        let path = temp_path("resume");
        let mut w = EventWriter::create(&path, 4, 1).unwrap();
        w.emit_top(&EventBuffer::enabled().emit_into("run_begin"))
            .unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.submit(1, &block(1, "l2")).unwrap();
        w.finish().unwrap();
        drop(w);
        // Simulate a kill mid-write: append a torn, newline-less line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(b"{\"e\":\"strike\",\"i\":2,\"si").unwrap();
        }
        let (mut w, have) = EventWriter::resume(&path, 4, 1).unwrap();
        assert_eq!(have, HashSet::from([0, 1]));
        w.submit(3, &block(3, "sfu")).unwrap();
        w.submit(2, &block(2, "l1")).unwrap();
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut seen = Vec::new();
        for line in text.lines() {
            let e = parse_event_line(line).unwrap(); // no torn garbage left
            if let Some(i) = e.index {
                seen.push(i);
            }
        }
        assert_eq!(seen, [0, 0, 1, 1, 2, 2, 3, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_damaged_complete_line_is_an_error_not_a_torn_tail() {
        let path = temp_path("damaged");
        let mut w = EventWriter::create(&path, 2, 1).unwrap();
        w.submit(0, &block(0, "fpu")).unwrap();
        w.finish().unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        let damaged = format!("{first}\nnot an event\n{rest}");
        std::fs::write(&path, &damaged).unwrap();
        let err = EventWriter::resume(&path, 2, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 2"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), damaged);
        std::fs::remove_file(&path).ok();
    }

    /// Writes `order`'s blocks after a `run_begin`, with or without a
    /// notifier, and returns the file's bytes.
    fn written(tag: &str, order: &[u64], notify: Option<Arc<Notifier>>) -> Vec<u8> {
        let path = temp_path(tag);
        let mut w = EventWriter::create(&path, order.len() as u64, 1)
            .unwrap()
            .with_notifier(notify);
        w.emit_top(&EventBuffer::enabled().emit_into("run_begin"))
            .unwrap();
        for &i in order {
            w.submit(i, &block(i, "fpu")).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn a_notifier_changes_no_byte() {
        for order in [[0, 1, 2, 3], [2, 0, 3, 1]] {
            let plain = written("plain", &order, None);
            let notified = written("notified", &order, Some(Arc::new(Notifier::new())));
            assert_eq!(plain, notified, "order {order:?}");
        }
    }

    #[test]
    fn a_notifier_puts_each_contiguous_block_on_disk_before_finish() {
        let path = temp_path("live");
        let notify = Arc::new(Notifier::new());
        let mut w = EventWriter::create(&path, 3, 1)
            .unwrap()
            .with_notifier(Some(Arc::clone(&notify)));
        w.emit_top(&EventBuffer::enabled().emit_into("run_begin"))
            .unwrap();
        assert_eq!(AppendLog::read(&path).unwrap().len(), 1);
        let after_begin = notify.generation();
        assert!(after_begin > 0);
        // Index 1 waits for 0; then both are written through at once.
        w.submit(1, &block(1, "l2")).unwrap();
        assert_eq!(AppendLog::read(&path).unwrap().len(), 1);
        assert_eq!(notify.generation(), after_begin);
        w.submit(0, &block(0, "fpu")).unwrap();
        assert_eq!(AppendLog::read(&path).unwrap().len(), 5);
        assert!(notify.generation() > after_begin);
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sampling_stride() {
        let path = temp_path("sample");
        let w = EventWriter::create(&path, 10, 4).unwrap();
        let sampled: Vec<u64> = (0..10).filter(|&i| w.sampled(i)).collect();
        assert_eq!(sampled, [0, 4, 8]);
        std::fs::remove_file(&path).ok();
    }

    impl EventBuffer {
        /// Test helper: build one event directly.
        fn emit_into(mut self, kind: &str) -> Event {
            self.emit(kind);
            self.take().remove(0)
        }
    }
}
