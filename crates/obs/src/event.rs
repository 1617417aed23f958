//! Structured events and spans.
//!
//! An [`Event`] is one JSONL line: a `kind`, an optional injection
//! index, and ordered key/value fields. Events carry only *logical*
//! data — indices, sites, bits, coordinates, classes. Wall-clock
//! quantities (latencies, timestamps) belong in the metrics registry,
//! never here; that is what makes a fixed-seed campaign's event stream
//! byte-identical across runs and worker counts.
//!
//! An [`EventBuffer`] is the per-unit-of-work sink. Disabled buffers
//! make every emission a no-op — a single `Option` check, no
//! allocation — so instrumented code paths cost nothing when
//! observability is off.

use crate::json::{escape, fmt_f64, Json};

/// A typed field value on an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (shortest round-trip formatting; `inf`/`NaN` verbatim).
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Array of unsigned integers (tile lists, coordinates).
    Arr(Vec<u64>),
}

impl FieldValue {
    fn encode(&self) -> String {
        match self {
            FieldValue::U64(v) => v.to_string(),
            FieldValue::I64(v) => v.to_string(),
            FieldValue::F64(v) => fmt_f64(*v),
            FieldValue::Str(s) => format!("\"{}\"", escape(s)),
            FieldValue::Bool(b) => b.to_string(),
            FieldValue::Arr(items) => {
                let inner = items
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!("[{inner}]")
            }
        }
    }
}

/// One structured event: a kind, an optional injection index, and
/// ordered key/value fields.
///
/// # Examples
///
/// ```
/// use radcrit_obs::{Event, EventBuffer};
///
/// let mut buf = EventBuffer::for_injection(3);
/// buf.emit("strike").str("site", "fpu").u64("bit", 17);
/// let events: Vec<Event> = buf.take();
/// assert_eq!(events[0].line(), r#"{"e":"strike","i":3,"site":"fpu","bit":17}"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event kind, e.g. `strike`, `diff`, `span_begin`.
    pub kind: String,
    /// Injection index the event belongs to; `None` for campaign-level
    /// events (headers, run lifecycle).
    pub index: Option<u64>,
    /// Ordered key/value payload.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Encodes the event as one JSON line (no trailing newline).
    pub fn line(&self) -> String {
        let mut out = format!("{{\"e\":\"{}\"", escape(&self.kind));
        if let Some(i) = self.index {
            out.push_str(&format!(",\"i\":{i}"));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":{}", escape(k), v.encode()));
        }
        out.push('}');
        out
    }

    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Parses one JSONL line back into an [`Event`].
///
/// Integers that fit a `u64` come back as [`FieldValue::U64`], other
/// integers as [`FieldValue::I64`], and remaining numbers as
/// [`FieldValue::F64`] — so a written event round-trips exactly.
///
/// # Errors
///
/// A description of the first syntax or schema problem.
pub fn parse_event_line(line: &str) -> Result<Event, String> {
    let v = crate::json::parse_line(line)?;
    let obj = crate::json::as_obj(&v)?;
    let kind = crate::json::get_str(obj, "e")?.to_owned();
    let mut index = None;
    let mut fields = Vec::new();
    for (k, v) in obj {
        match k.as_str() {
            "e" => {}
            "i" => match v {
                Json::Num(n) => {
                    index = Some(n.parse().map_err(|_| "bad \"i\" field".to_string())?);
                }
                _ => return Err("field \"i\" is not a number".into()),
            },
            _ => fields.push((k.clone(), parse_field(v)?)),
        }
    }
    Ok(Event {
        kind,
        index,
        fields,
    })
}

fn parse_field(v: &Json) -> Result<FieldValue, String> {
    match v {
        Json::Bool(b) => Ok(FieldValue::Bool(*b)),
        Json::Str(s) => Ok(FieldValue::Str(s.clone())),
        Json::Num(n) => {
            if let Ok(u) = n.parse::<u64>() {
                Ok(FieldValue::U64(u))
            } else if let Ok(i) = n.parse::<i64>() {
                Ok(FieldValue::I64(i))
            } else {
                n.parse::<f64>()
                    .map(FieldValue::F64)
                    .map_err(|_| format!("unparseable number {n:?}"))
            }
        }
        Json::Arr(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Num(n) => out.push(
                        n.parse::<u64>()
                            .map_err(|_| "array item is not a u64".to_string())?,
                    ),
                    _ => return Err("array item is not a number".into()),
                }
            }
            Ok(FieldValue::Arr(out))
        }
        Json::Null => Err("null field values are not part of the event schema".into()),
        Json::Obj(_) => Err("nested objects are not part of the event schema".into()),
    }
}

/// A sink for events produced by one unit of work (one injection run,
/// or the campaign's top level).
///
/// A disabled buffer ignores every emission at the cost of one `Option`
/// check; instrumentation can therefore stay unconditionally in place.
#[derive(Debug, Default)]
pub struct EventBuffer {
    // `None` = disabled; `Some` = collecting.
    events: Option<Vec<Event>>,
    // Default injection index stamped onto emitted events.
    index: Option<u64>,
}

impl EventBuffer {
    /// A disabled buffer: every emission is a no-op.
    pub fn disabled() -> Self {
        EventBuffer {
            events: None,
            index: None,
        }
    }

    /// An enabled buffer for campaign-level events (no injection index).
    pub fn enabled() -> Self {
        EventBuffer {
            events: Some(Vec::new()),
            index: None,
        }
    }

    /// An enabled buffer whose events are stamped with injection
    /// index `i`.
    pub fn for_injection(i: u64) -> Self {
        EventBuffer {
            events: Some(Vec::new()),
            index: Some(i),
        }
    }

    /// Whether emissions are being collected.
    pub fn is_enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Starts an event of the given kind; finish it by chaining field
    /// setters on the returned builder (the event is recorded when the
    /// builder drops).
    pub fn emit(&mut self, kind: &str) -> EventBuilder<'_> {
        let event = self.events.as_mut().map(|sink| {
            (
                sink,
                Event {
                    kind: kind.to_owned(),
                    index: self.index,
                    fields: Vec::new(),
                },
            )
        });
        EventBuilder { inner: event }
    }

    /// Records an already-built event, e.g. a
    /// [`crate::ProvenanceRecord`] encoded with `to_event()`. No-op when
    /// disabled.
    pub fn push(&mut self, event: Event) {
        if let Some(sink) = self.events.as_mut() {
            sink.push(event);
        }
    }

    /// Drains the collected events (empty for disabled buffers).
    pub fn take(&mut self) -> Vec<Event> {
        self.events.as_mut().map(std::mem::take).unwrap_or_default()
    }
}

/// Chained field setters for an in-flight [`Event`]; records the event
/// into its buffer on drop. Obtained from [`EventBuffer::emit`].
#[derive(Debug)]
pub struct EventBuilder<'a> {
    inner: Option<(&'a mut Vec<Event>, Event)>,
}

impl EventBuilder<'_> {
    fn push(mut self, key: &str, value: FieldValue) -> Self {
        if let Some((_, event)) = self.inner.as_mut() {
            event.fields.push((key.to_owned(), value));
        }
        self
    }

    /// Attaches an unsigned integer field.
    pub fn u64(self, key: &str, v: u64) -> Self {
        self.push(key, FieldValue::U64(v))
    }

    /// Attaches an optional unsigned integer field; `None` is omitted.
    pub fn opt_u64(self, key: &str, v: Option<u64>) -> Self {
        match v {
            Some(v) => self.u64(key, v),
            None => self,
        }
    }

    /// Attaches a signed integer field.
    pub fn i64(self, key: &str, v: i64) -> Self {
        self.push(key, FieldValue::I64(v))
    }

    /// Attaches a float field.
    pub fn f64(self, key: &str, v: f64) -> Self {
        self.push(key, FieldValue::F64(v))
    }

    /// Attaches a string field.
    pub fn str(self, key: &str, v: &str) -> Self {
        self.push(key, FieldValue::Str(v.to_owned()))
    }

    /// Attaches a boolean field.
    pub fn bool(self, key: &str, v: bool) -> Self {
        self.push(key, FieldValue::Bool(v))
    }
}

impl Drop for EventBuilder<'_> {
    fn drop(&mut self) {
        if let Some((sink, event)) = self.inner.take() {
            sink.push(event);
        }
    }
}

/// A named span over a stretch of work, bracketed by `span_begin` /
/// `span_end` events.
///
/// Spans do not borrow the buffer between the bracketing events, so the
/// enclosed code is free to emit its own events:
///
/// ```
/// use radcrit_obs::{EventBuffer, Span};
///
/// let mut buf = EventBuffer::for_injection(0);
/// let span = Span::enter(&mut buf, "injection");
/// buf.emit("strike").str("site", "l2");
/// span.exit(&mut buf);
/// let kinds: Vec<String> = buf.take().into_iter().map(|e| e.kind).collect();
/// assert_eq!(kinds, ["span_begin", "strike", "span_end"]);
/// ```
#[derive(Debug)]
#[must_use = "a span must be closed with exit() to emit its span_end event"]
pub struct Span {
    name: String,
}

impl Span {
    /// Emits `span_begin` and returns the span handle.
    pub fn enter(buf: &mut EventBuffer, name: &str) -> Self {
        buf.emit("span_begin").str("span", name);
        Span {
            name: name.to_owned(),
        }
    }

    /// Emits the matching `span_end`.
    pub fn exit(self, buf: &mut EventBuffer) {
        buf.emit("span_end").str("span", &self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_collects_nothing() {
        let mut buf = EventBuffer::disabled();
        assert!(!buf.is_enabled());
        buf.emit("strike").u64("bit", 3).str("site", "fpu");
        let span = Span::enter(&mut buf, "x");
        span.exit(&mut buf);
        assert!(buf.take().is_empty());
    }

    #[test]
    fn events_encode_in_field_order() {
        let mut buf = EventBuffer::for_injection(7);
        buf.emit("diff")
            .u64("mismatches", 2)
            .str("class", "line")
            .f64("mre", 0.5)
            .bool("delivered", true)
            .push("tiles", FieldValue::Arr(vec![1, 4]))
            .i64("delta", -3);
        let events = buf.take();
        assert_eq!(
            events[0].line(),
            r#"{"e":"diff","i":7,"mismatches":2,"class":"line","mre":0.5,"delivered":true,"tiles":[1,4],"delta":-3}"#
        );
    }

    #[test]
    fn events_round_trip_through_parse() {
        let mut buf = EventBuffer::for_injection(12);
        buf.emit("strike")
            .str("site", "register_file")
            .u64("bit", 31)
            .f64("inf_mre", f64::INFINITY)
            .i64("neg", -9)
            .bool("ok", false)
            .push("touched", FieldValue::Arr(vec![0, 5, 6]));
        let original = buf.take().remove(0);
        let parsed = parse_event_line(&original.line()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn campaign_level_events_have_no_index() {
        let mut buf = EventBuffer::enabled();
        buf.emit("run_begin").u64("injections", 100);
        let events = buf.take();
        assert_eq!(events[0].index, None);
        assert_eq!(events[0].line(), r#"{"e":"run_begin","injections":100}"#);
    }

    #[test]
    fn opt_u64_omits_none() {
        let mut buf = EventBuffer::enabled();
        buf.emit("strike")
            .opt_u64("victim", None)
            .opt_u64("unit", Some(2));
        assert_eq!(buf.take()[0].line(), r#"{"e":"strike","unit":2}"#);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_event_line("not json").is_err());
        assert!(parse_event_line(r#"{"no_kind":1}"#).is_err());
        assert!(parse_event_line(r#"{"e":"x","i":"str"}"#).is_err());
        assert!(parse_event_line(r#"{"e":"x","nested":{"a":1}}"#).is_err());
    }
}
