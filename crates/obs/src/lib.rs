//! # radcrit-obs
//!
//! The observability layer of the radcrit stack: everything the pipeline
//! needs to explain *why* an injection produced its outcome and *how* a
//! run is going operationally, without perturbing the science.
//!
//! Three ideas, three modules:
//!
//! * [`metrics`] — a lightweight registry of counters, gauges and
//!   [`hist::Log2Histogram`]s with JSON and Prometheus-text snapshot
//!   export. Operational data (latencies, throughput, phase timings) is
//!   allowed to vary run to run and lives here, never in the event
//!   stream.
//! * [`event`] + [`writer`] — a structured span/event API
//!   ([`event::Span::enter`] with key/value fields, zero-cost when
//!   disabled) emitting a JSONL stream that covers the full injection
//!   lifecycle: dispatch → site selection → bit flip → tile execution →
//!   output diff → spatial classification. Events carry only *logical*
//!   data (indices, sites, bits, classes — no wall-clock), so a
//!   fixed-seed campaign emits a byte-identical stream on every run; the
//!   [`writer::EventWriter`] sequences per-injection blocks by index and
//!   skips already-emitted indices on resume.
//! * [`provenance`] — the joined fault-provenance record: strike (site,
//!   tile, bit) + execution (victim/touched tiles) + result (mismatch
//!   count, [`radcrit_core::locality::SpatialClass`], mean relative
//!   error), and the per-site breakdown that answers "which fault sites
//!   cause `Square` corruption" directly.
//!
//! Two later additions build on those:
//!
//! * [`analytics`] — the live fold: a
//!   [`analytics::CriticalityAggregator`] turns the event stream back
//!   into rolling criticality aggregates (outcome counts, FIT with
//!   Poisson confidence intervals, spatial-class breakdowns, MRE and
//!   corrupted-element histograms) *while the campaign runs*, with the
//!   invariant that folding a finished stream reproduces the campaign
//!   summary exactly.
//! * [`trace`] — wall-clock phase timelines ([`trace::TraceRecorder`])
//!   exported as Chrome trace-event JSON for `chrome://tracing` /
//!   Perfetto.
//! * [`alerts`] — a campaign health rules evaluator
//!   ([`alerts::AlertEngine`]): typed alerts (worker-flapping,
//!   redispatch-storm, shard-stalled, queue-saturated, FIT-CI-stalled)
//!   with severities, firing/resolved edges as structured JSONL log
//!   lines, and `radcrit_alert_*` metric export; time is injected so
//!   every rule is deterministic under test.
//! * [`profile`] — a hierarchical scoped-phase profiler
//!   ([`profile::PhaseId`] registry, per-thread lock-free accumulators,
//!   merged [`profile::ProfileTree`]s) with JSON and collapsed-stack
//!   flamegraph export; zero-cost when disabled, never in the event
//!   stream.
//!
//! [`append_log`] is the crash-safe JSONL log under every persisted
//! stream: event streams, checkpoints and both journals. [`notify`] is
//! the generation counter live readers of those streams wait on.
//!
//! [`json`] is the shared minimal JSON codec (also used by the campaign
//! checkpoint format): floats use Rust's shortest round-trip formatting,
//! so `inf`/`NaN` appear verbatim — a deliberate deviation from strict
//! JSON that keeps infinite relative errors lossless.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod alerts;
pub mod analytics;
pub mod append_log;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod notify;
pub mod profile;
pub mod provenance;
pub mod trace;
pub mod writer;

pub use alerts::{AlertConfig, AlertEngine, AlertEvent, AlertRule, HealthSample, Severity};
pub use analytics::{AnalyticSample, CriticalityAggregator};
pub use append_log::{AppendLog, LogTail};
pub use event::{Event, EventBuffer, FieldValue, Span};
pub use hist::Log2Histogram;
pub use metrics::{MetricHelp, MetricsRegistry, MetricsSnapshot};
pub use notify::Notifier;
pub use profile::{PhaseId, ProfileCollector, ProfileNode, ProfileTree};
pub use provenance::{ProvenanceBreakdown, ProvenanceRecord};
pub use trace::{FleetTrace, TraceContext, TraceRecorder};
pub use writer::EventWriter;
