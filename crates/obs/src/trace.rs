//! Phase-timeline recording and Chrome trace-event export.
//!
//! A [`TraceRecorder`] collects complete wall-clock spans — a
//! campaign's coarse profile scopes from the collector and every worker
//! thread (see [`crate::profile`]), or a coordinator's fleet spans —
//! and serializes them to the Chrome trace-event JSON format that
//! `chrome://tracing` and Perfetto load directly. Timelines are pure
//! presentation: they carry wall-clock data and therefore never enter
//! the deterministic event stream; they live beside the metrics
//! registry as operational output.
//!
//! Timestamps are microseconds relative to the recorder's epoch —
//! by default its creation time, so a trace always starts near
//! `ts = 0`. A daemon that runs many jobs can share one epoch across
//! all of their recorders ([`TraceRecorder::with_epoch`]) so every
//! job's spans live on one process-wide timebase. The span buffer is
//! capped at 100,000 spans (`TRACE_SPAN_CAP`); spans beyond the cap are
//! counted in `dropped_spans` (exported in the trace's top-level
//! metadata) rather than growing without bound on very long campaigns.
//!
//! For federated campaigns, a [`TraceContext`] minted by the
//! coordinator tags every span of a shard's recorder with the shard
//! ordinal and the coordinator-side parent span id, and a
//! [`FleetTrace`] merges many single-process trace documents —
//! rebasing each onto the coordinator's clock via a per-worker offset —
//! into one fleet-wide timeline with named per-process tracks.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::json::{self, escape, Json};

/// Maximum number of spans one recorder buffers before dropping.
const TRACE_SPAN_CAP: usize = 100_000;

/// The distributed trace identity a coordinator mints per dispatched
/// shard and carries through the job-spec wire format into the worker:
/// which campaign the shard belongs to, which slice of the injection
/// range it is, and which coordinator span dispatched it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Campaign identity (the golden content address — identical for
    /// every shard of one campaign, stable across re-dispatch).
    pub campaign_id: String,
    /// Shard ordinal within the campaign's shard plan.
    pub shard: u64,
    /// Span id of the coordinator's dispatch span that launched this
    /// shard job — the parentage edge of the distributed trace.
    pub parent_span: u64,
}

/// One completed span on some thread's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TraceSpan {
    /// Phase name (`golden`, `injection`, `execute`, `compare`, …).
    name: Cow<'static, str>,
    /// Start, µs since the recorder's epoch.
    ts_us: u64,
    /// Duration in µs.
    dur_us: u64,
    /// Logical thread id (0 = collector, 1.. = workers).
    tid: u64,
    /// Extra key/value args rendered into the span's `args` object
    /// (values are unsigned integers — indices, counts).
    args: Vec<(&'static str, u64)>,
}

/// Thread-safe recorder of completed phase spans.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    spans: Mutex<Vec<TraceSpan>>,
    dropped: AtomicU64,
    cap: usize,
    context: Option<TraceContext>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates a recorder whose epoch (`ts = 0`) is now.
    pub fn new() -> Self {
        Self::with_epoch(Instant::now())
    }

    /// Creates a recorder whose `ts = 0` is a caller-supplied instant —
    /// a daemon passes its own start time so every job's spans share
    /// one process-wide timebase and merge without per-job skew.
    pub fn with_epoch(epoch: Instant) -> Self {
        TraceRecorder {
            epoch,
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            cap: TRACE_SPAN_CAP,
            context: None,
        }
    }

    /// Tags the recorder with a distributed-trace context (`None`
    /// leaves it untagged): every serialized span gains `shard`/`parent`
    /// args and the trace metadata names the campaign.
    pub fn with_context(mut self, context: Option<TraceContext>) -> Self {
        self.context = context;
        self
    }

    /// The attached distributed-trace context, if any.
    fn context(&self) -> Option<&TraceContext> {
        self.context.as_ref()
    }

    /// The span buffer, recovering the guard if a panicking recording
    /// thread poisoned it — a worker panic must not cascade into every
    /// later `record()` and lose the whole timeline.
    fn spans_guard(&self) -> MutexGuard<'_, Vec<TraceSpan>> {
        lock_recovering(&self.spans)
    }

    /// Records a completed span that started at `started` and ends now.
    pub fn record(&self, name: &str, tid: u64, started: Instant, args: &[(&'static str, u64)]) {
        self.record_between(name.to_owned(), tid, started, Instant::now(), args);
    }

    /// Records a completed span from `start` to `end` — the profiler's
    /// timeline sink hands over the instants its profile node was timed
    /// with, and a fixed phase name without allocating it.
    pub fn record_between(
        &self,
        name: impl Into<Cow<'static, str>>,
        tid: u64,
        start: Instant,
        end: Instant,
        args: &[(&'static str, u64)],
    ) {
        let span = TraceSpan {
            name: name.into(),
            ts_us: start
                .checked_duration_since(self.epoch)
                .map_or(0, |d| d.as_micros() as u64),
            dur_us: end.saturating_duration_since(start).as_micros() as u64,
            tid,
            args: args.to_vec(),
        };
        let mut spans = self.spans_guard();
        if spans.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(span);
        }
    }

    /// Exports the dropped-span count as
    /// `radcrit_trace_dropped_spans_total` so capped drops are visible
    /// on `/metrics`, not only in-process. Call once, at trace
    /// finalization (the counter is cumulative across calls).
    pub fn export_dropped(&self, metrics: &crate::metrics::MetricsRegistry) {
        metrics.counter_add("radcrit_trace_dropped_spans_total", &[], self.dropped());
    }

    /// Number of spans recorded (excludes dropped ones).
    pub fn len(&self) -> usize {
        self.spans_guard().len()
    }

    /// Whether no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans dropped past the 100,000-span cap (`TRACE_SPAN_CAP`).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Serializes the timeline as Chrome trace-event JSON: complete
    /// (`"ph":"X"`) events sorted by start time (then lane, then longer
    /// span first, so a parent precedes the children it encloses even
    /// when both start in the same microsecond), one `pid`, the
    /// caller's `metadata` key/values under a top-level `"metadata"`
    /// object (numbers rendered verbatim). Ends with a newline.
    ///
    /// With a [`TraceContext`] attached, every span's args gain
    /// `"shard"` and `"parent"`, and the metadata records the
    /// campaign id — without a context the output is byte-identical
    /// to what pre-context recorders produced.
    pub fn to_chrome_json(&self, metadata: &[(&str, String)]) -> String {
        // Rendered straight into one buffer: a long campaign's timeline
        // holds tens of thousands of spans.
        let mut out = String::from("{\"traceEvents\":[\n");
        let ctx = self.context();
        let mut spans = self.spans_guard();
        spans.sort_by_key(|s| (s.ts_us, s.tid, Reverse(s.dur_us)));
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"name\":\"{}\",\"cat\":\"radcrit\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
                escape(&s.name),
                s.ts_us,
                s.dur_us,
                s.tid
            );
            let ctx_args = ctx
                .iter()
                .flat_map(|c| [("shard", c.shard), ("parent", c.parent_span)]);
            for (j, (k, v)) in s.args.iter().copied().chain(ctx_args).enumerate() {
                let sep = if j == 0 { "" } else { "," };
                let _ = write!(out, "{sep}\"{}\":{v}", escape(k));
            }
            out.push_str("}}");
        }
        drop(spans);
        let ctx_meta = ctx.iter().flat_map(|c| {
            [
                format!("\"campaign_id\":\"{}\"", escape(&c.campaign_id)),
                format!("\"shard\":{}", c.shard),
                format!("\"parent_span\":{}", c.parent_span),
            ]
        });
        let meta: Vec<String> = metadata
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .chain(ctx_meta)
            .chain(std::iter::once(format!(
                "\"dropped_spans\":{}",
                self.dropped()
            )))
            .collect();
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{{}}}}}\n",
            meta.join(",")
        );
        out
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// cascading a recording thread's panic into the observer.
fn lock_recovering<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Fleet-wide trace merging
// ---------------------------------------------------------------------

/// Builder for one merged fleet-wide Chrome trace: the coordinator's
/// own timeline plus every reachable worker's job trace, each rebased
/// onto the coordinator's clock and rendered as its own named process
/// track. A torn or unreachable worker trace is recorded as skipped
/// without dropping the rest of the fleet timeline.
#[derive(Debug, Default)]
pub struct FleetTrace {
    /// `(rebased_ts_us, pid, rendered_event)` for deterministic sorting.
    events: Vec<(u64, u64, String)>,
    /// `(pid, display name)` process-track labels.
    processes: Vec<(u64, String)>,
    /// Sources whose trace could not be merged, with the reason.
    skipped: Vec<(String, String)>,
    /// Extra top-level metadata, values rendered verbatim.
    metadata: Vec<(String, String)>,
}

impl FleetTrace {
    /// Creates an empty fleet trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a top-level metadata entry (`value` is rendered verbatim,
    /// so strings must arrive pre-quoted/escaped).
    pub fn set_metadata(&mut self, key: &str, value: String) {
        self.metadata.push((key.to_owned(), value));
    }

    /// Names a process track (rendered as a `process_name` metadata
    /// event, which Perfetto shows as the track title).
    pub fn add_process(&mut self, pid: u64, name: &str) {
        self.processes.push((pid, name.to_owned()));
    }

    /// Merges one single-process Chrome trace document under `pid`,
    /// adding `offset_us` to every timestamp (the worker→coordinator
    /// clock rebase; negative rebases clamp at 0). Returns the number
    /// of spans merged.
    ///
    /// # Errors
    ///
    /// A description of why the document could not be parsed — torn
    /// fetches and truncated files land here; callers record the
    /// source via [`FleetTrace::skip`] and keep the rest of the fleet.
    pub fn add_trace(&mut self, pid: u64, doc: &str, offset_us: i64) -> Result<usize, String> {
        let top = json::parse_line(doc.trim())?;
        let obj = json::as_obj(&top)?;
        let events = match json::get(obj, "traceEvents")? {
            Json::Arr(items) => items,
            _ => return Err("traceEvents is not an array".into()),
        };
        let mut merged = 0usize;
        for item in events {
            let ev = json::as_obj(item)?;
            if json::get_str(ev, "ph").unwrap_or("") != "X" {
                continue;
            }
            let name = json::get_str(ev, "name")?;
            let ts = json::get_u64(ev, "ts")?;
            let dur = json::get_u64(ev, "dur").unwrap_or(0);
            let tid = json::get_u64(ev, "tid").unwrap_or(0);
            let args = json::get(ev, "args")
                .map(json::render)
                .unwrap_or_else(|_| "{}".into());
            let rebased = (ts as i64).saturating_add(offset_us).max(0) as u64;
            self.events.push((
                rebased,
                pid,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"radcrit\",\"ph\":\"X\",\
                     \"ts\":{rebased},\"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                    escape(name)
                ),
            ));
            merged += 1;
        }
        Ok(merged)
    }

    /// Records a source whose trace was not merged (dead worker, torn
    /// fetch, unparseable document) — surfaced in the output metadata.
    pub fn skip(&mut self, source: &str, reason: &str) {
        self.skipped.push((source.to_owned(), reason.to_owned()));
    }

    /// Serializes the merged fleet timeline: `process_name` metadata
    /// events first, then every span sorted by rebased start time.
    /// Skipped sources are listed in the top-level metadata. Ends with
    /// a newline.
    pub fn to_chrome_json(&self) -> String {
        let mut events = self.events.clone();
        events.sort_by_key(|a| (a.0, a.1));
        let labels = self.processes.iter().map(|(pid, name)| {
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape(name)
            )
        });
        let all: Vec<String> = labels
            .chain(events.into_iter().map(|(_, _, e)| e))
            .collect();
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .map(|(src, why)| format!("\"{}\"", escape(&format!("{src}: {why}"))))
            .collect();
        let meta: Vec<String> = self
            .metadata
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .chain(std::iter::once(format!(
                "\"skipped_sources\":[{}]",
                skipped.join(",")
            )))
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{{}}}}}\n",
            all.join(",\n"),
            meta.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn records_and_serializes_spans() {
        let rec = TraceRecorder::new();
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        rec.record("golden", 0, t0, &[]);
        rec.record("injection", 1, Instant::now(), &[("index", 7)]);
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 0);
        let json = rec.to_chrome_json(&[("injections", "8".to_owned())]);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"golden\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"index\":7"));
        assert!(json.contains("\"injections\":8"));
        assert!(json.contains("\"dropped_spans\":0"));
        assert!(json.ends_with('\n'));
    }

    #[test]
    fn spans_come_out_sorted_by_start_time() {
        let rec = TraceRecorder::new();
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        rec.record("late", 2, Instant::now(), &[]);
        rec.record("early", 1, early, &[]);
        let json = rec.to_chrome_json(&[]);
        let early_pos = json.find("\"early\"").unwrap();
        let late_pos = json.find("\"late\"").unwrap();
        assert!(early_pos < late_pos, "{json}");
    }

    #[test]
    fn a_parent_precedes_its_child_from_the_same_start() {
        // A child scope closes, and is recorded, before its parent.
        let rec = TraceRecorder::new();
        let start = Instant::now();
        rec.record_between("fork", 1, start, start + Duration::from_micros(5), &[]);
        rec.record_between("execute", 1, start, start + Duration::from_micros(10), &[]);
        let json = rec.to_chrome_json(&[]);
        let parent = json.find("\"execute\"").unwrap();
        let child = json.find("\"fork\"").unwrap();
        assert!(parent < child, "{json}");
    }

    #[test]
    fn cap_counts_dropped_spans() {
        let rec = TraceRecorder::new();
        let t0 = Instant::now();
        for _ in 0..TRACE_SPAN_CAP + 3 {
            rec.record("x", 0, t0, &[]);
        }
        assert_eq!(rec.len(), TRACE_SPAN_CAP);
        assert_eq!(rec.dropped(), 3);
        assert!(rec.to_chrome_json(&[]).contains("\"dropped_spans\":3"));
    }

    #[test]
    fn dropped_spans_export_to_the_metrics_registry() {
        let rec = TraceRecorder {
            cap: 2,
            ..TraceRecorder::new()
        };
        let t0 = Instant::now();
        for _ in 0..7 {
            rec.record("x", 0, t0, &[]);
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 5);
        let m = crate::metrics::MetricsRegistry::new();
        rec.export_dropped(&m);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("radcrit_trace_dropped_spans_total", &[]),
            Some(5)
        );
        assert!(snap
            .to_prometheus()
            .contains("radcrit_trace_dropped_spans_total 5\n"));
    }

    #[test]
    fn a_poisoned_span_buffer_still_records_and_serializes() {
        // A worker thread that panics while holding the span lock used
        // to poison the buffer and cascade the panic into every later
        // record()/len()/to_chrome_json(). The recorder now recovers
        // the guard: spans recorded before AND after the panic survive.
        let rec = std::sync::Arc::new(TraceRecorder::new());
        rec.record("before-panic", 0, Instant::now(), &[]);
        let poisoner = std::sync::Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.spans.lock().unwrap();
            panic!("worker panicked mid-record");
        })
        .join();
        assert!(rec.spans.is_poisoned(), "the panic must poison the lock");
        rec.record("after-panic", 1, Instant::now(), &[]);
        assert_eq!(rec.len(), 2);
        let json = rec.to_chrome_json(&[]);
        assert!(json.contains("\"before-panic\""), "{json}");
        assert!(json.contains("\"after-panic\""), "{json}");
    }

    #[test]
    fn a_context_tags_every_span_and_the_metadata() {
        let rec = TraceRecorder::new().with_context(Some(TraceContext {
            campaign_id: "sha256:abc".into(),
            shard: 3,
            parent_span: 3_001,
        }));
        rec.record("golden", 0, Instant::now(), &[("index", 9)]);
        let json = rec.to_chrome_json(&[]);
        assert!(
            json.contains("\"index\":9,\"shard\":3,\"parent\":3001"),
            "{json}"
        );
        assert!(json.contains("\"campaign_id\":\"sha256:abc\""), "{json}");
        assert!(json.contains("\"parent_span\":3001"), "{json}");
        assert_eq!(rec.context().unwrap().shard, 3);
    }

    #[test]
    fn a_shared_epoch_offsets_timestamps() {
        let epoch = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let rec = TraceRecorder::with_epoch(epoch);
        rec.record("late-start", 0, Instant::now(), &[]);
        let json = rec.to_chrome_json(&[]);
        let ts: u64 = json
            .split("\"ts\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(
            ts >= 5_000,
            "span must be offset from the shared epoch: {ts}"
        );
    }

    fn worker_doc(ts: &[u64]) -> String {
        let events: Vec<String> = ts
            .iter()
            .map(|t| {
                format!(
                    "{{\"name\":\"injection\",\"cat\":\"radcrit\",\"ph\":\"X\",\
                     \"ts\":{t},\"dur\":10,\"pid\":1,\"tid\":2,\"args\":{{\"shard\":1}}}}"
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{}}}}\n",
            events.join(",\n")
        )
    }

    #[test]
    fn fleet_merge_rebases_and_labels_worker_tracks() {
        let mut fleet = FleetTrace::new();
        fleet.add_process(2, "worker 127.0.0.1:7121");
        fleet.add_process(3, "worker 127.0.0.1:7122");
        assert_eq!(
            fleet.add_trace(2, &worker_doc(&[100, 200]), 500).unwrap(),
            2
        );
        assert_eq!(fleet.add_trace(3, &worker_doc(&[100]), -50).unwrap(), 1);
        let json = fleet.to_chrome_json();
        assert!(
            json.contains("\"ts\":600,") && json.contains("\"ts\":700,"),
            "{json}"
        );
        assert!(json.contains("\"ts\":50,\"dur\":10,\"pid\":3"), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("worker 127.0.0.1:7121"), "{json}");
        assert!(json.contains("\"shard\":1"), "{json}");
        // The merged document itself parses as one JSON value.
        json::parse_line(json.trim()).unwrap();
    }

    #[test]
    fn fleet_merge_clamps_negative_rebased_timestamps() {
        let mut fleet = FleetTrace::new();
        fleet.add_trace(2, &worker_doc(&[100]), -10_000).unwrap();
        let json = fleet.to_chrome_json();
        assert!(json.contains("\"ts\":0,"), "{json}");
    }

    #[test]
    fn a_torn_worker_trace_is_skipped_without_dropping_the_fleet() {
        let whole = worker_doc(&[100, 200]);
        let torn = &whole[..whole.len() / 2];
        let mut fleet = FleetTrace::new();
        fleet.add_process(2, "worker a");
        fleet.add_trace(2, &whole, 0).unwrap();
        let err = fleet.add_trace(3, torn, 0).unwrap_err();
        fleet.skip("127.0.0.1:7199", &err);
        assert_eq!(fleet.events.len(), 2);
        let json = fleet.to_chrome_json();
        assert!(
            json.contains("\"skipped_sources\":[\"127.0.0.1:7199:"),
            "{json}"
        );
        assert!(json.contains("\"name\":\"injection\""), "{json}");
        json::parse_line(json.trim()).unwrap();
    }
}
