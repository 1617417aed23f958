//! `radcrit-serve` — the long-running campaign service.
//!
//! Turns the one-shot campaign runner into a daemon: injection
//! campaigns are submitted as jobs over a std-only HTTP/1.1 API, run on
//! a persistent worker pool that shares a [`GoldenCache`] across jobs,
//! and survive crashes through a job-state journal plus the per-job
//! campaign checkpoints introduced in earlier PRs.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /jobs` | submit a [`JobSpec`]; `202` + id, `429` full, `503` draining |
//! | `GET /jobs` | job listing |
//! | `GET /jobs/:id` | job state |
//! | `GET /jobs/:id/result` | canonical summary JSON once done |
//! | `GET /jobs/:id/events` | chunked JSONL event stream |
//! | `GET /jobs/:id/stream` | live SSE tail, resumable via `Last-Event-ID` |
//! | `GET /jobs/:id/analytics` | rolling criticality fold of the job's events |
//! | `GET /jobs/:id/trace` | Chrome trace-event timeline of the job |
//! | `GET /jobs/:id/profile` | hierarchical phase profile of the job |
//! | `GET /jobs/:id/metrics` | the finished job's metrics snapshot JSON |
//! | `POST /jobs/:id/cancel` | cancel queued/running job |
//! | `GET /analytics` | daemon-wide criticality rollup |
//! | `GET /profile` | daemon-wide merged phase profile + hot phases |
//! | `GET /metrics` | Prometheus exposition |
//! | `GET /alerts` | health-rule table (queue saturation) |
//! | `GET /healthz` | liveness, pool occupancy and the trace-epoch clock |
//! | `GET /dashboard` | self-contained live HTML dashboard |
//! | `POST /shutdown` | graceful drain |
//!
//! The [`coord`] module federates many such daemons under one
//! coordinator for a single sharded campaign. The coordinator serves its
//! one merged campaign as the job `merged` (any `:id` names it):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /register` | `{"worker":"host:port"}` joins the fleet |
//! | `GET /shards` | shard table: range, worker, state, coverage |
//! | `GET /jobs` | the one merged job and its state |
//! | `GET /jobs/:id` | merged campaign state (`running` / `done`) |
//! | `GET /jobs/:id/result` | merged canonical summary once done |
//! | `GET /jobs/:id/events` | chunked merged analytic event stream |
//! | `GET /jobs/:id/stream` | federated SSE tail, resumable via `Last-Event-ID` |
//! | `GET /jobs/:id/analytics` | criticality fold of the merged stream |
//! | `GET /analytics` | the merged rollup in the daemon's body shape |
//! | `GET /metrics` | Prometheus exposition, shard-labelled |
//! | `GET /trace` | merged fleet-wide Chrome trace |
//! | `GET /alerts` | fleet health-rule table |
//! | `GET /healthz` | liveness, fleet size and coverage |
//! | `GET /dashboard` | the daemon's dashboard page |
//! | `POST /shutdown` | stop orchestrating and serving |
//!
//! Both servers stand on one HTTP plane ([`http`]): one accept loop,
//! one fallback for `/dashboard`, `404` and `405`, and one responder
//! per answer shape.
//!
//! The crate also owns the `radcrit-campaign` binary (daemon + client +
//! coordinator + one-shot subcommands), moved here so the service and
//! CLI share one spec-to-[`Campaign`](radcrit_campaign::Campaign)
//! construction path.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod client;
pub mod coord;
pub mod daemon;
pub mod dashboard;
pub mod error;
pub mod http;
pub mod journal;
pub mod live;
pub mod queue;
pub mod spec;

pub use client::{Client, JobStatus};
pub use coord::{CoordinatorConfig, CoordinatorHandle};
pub use daemon::{start, DaemonConfig, DaemonHandle};
pub use error::ServeError;
pub use journal::{JobState, Journal};
pub use queue::{JobQueue, PushError};
pub use spec::{DeviceKind, JobSpec, Priority};

// Re-exported so service consumers can size the shared cache without
// depending on the campaign crate directly.
pub use radcrit_campaign::{GoldenCache, GoldenCacheStats};
