//! The traced pass's span recorder: spans kept in memory around each
//! call into the program, written out once as Chrome trace-event JSON
//! (loadable in `chrome://tracing` or Perfetto) when the run ends.

use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Lane: 0 for the driving thread, 1.. for load-generating clients.
    tid: u64,
    start_us: f64,
    dur_us: f64,
    /// Request the span belongs to (a job index), when there is one.
    job: Option<usize>,
}

/// Thread-safe in-memory span buffer on one clock.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Microseconds since the recorder's epoch.
    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn record(
        &self,
        name: &str,
        tid: u64,
        (start, end): (Instant, Instant),
        job: Option<usize>,
    ) {
        let (s, e) = (self.us(start), self.us(end));
        self.record_us(name, tid, s, e, job);
    }

    /// Records a span given in epoch microseconds (e.g. daemon-side
    /// times mapped onto this clock).
    pub fn record_us(&self, name: &str, tid: u64, start_us: f64, end_us: f64, job: Option<usize>) {
        let span = Span {
            name: name.to_owned(),
            tid,
            start_us,
            dur_us: (end_us - start_us).max(0.0),
            job,
        };
        self.spans.lock().expect("span buffer lock").push(span);
    }

    /// Chrome trace-event JSON; `metadata` values are rendered verbatim.
    pub fn to_chrome_json(&self, metadata: &[(String, String)]) -> String {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.tid.cmp(&b.tid)));
        let events: Vec<String> = spans
            .iter()
            .map(|s| {
                let args = s.job.map_or_else(String::new, |j| format!("\"job\":{j}"));
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"radbench\",\"ph\":\"X\",\"ts\":{:.3},\
                     \"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{{args}}}}}",
                    escape(&s.name),
                    s.start_us,
                    s.dur_us,
                    s.tid
                )
            })
            .collect();
        let meta: Vec<String> = metadata
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
            .collect();
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\",\"metadata\":{{{}}}}}\n",
            events.join(",\n"),
            meta.join(",")
        )
    }
}

/// JSON string escaping for the characters span names and metadata
/// keys can contain.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
