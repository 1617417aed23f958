//! # radcrit-campaign
//!
//! Campaign orchestration for the radcrit reproduction of the HPCA 2017
//! error-criticality study: everything needed to run "beam time" against
//! the simulated accelerators and produce the numbers behind the paper's
//! tables and figures.
//!
//! A [`Campaign`] fixes a device, a kernel and an injection budget; its
//! [`Campaign::run`] performs the golden execution, derives the
//! cross-section table, then replays the fault-injection loop in
//! parallel, classifying every injection as masked, SDC, crash or hang —
//! the four outcomes of §II-A. The resulting [`CampaignResult`] exposes
//!
//! * per-injection records with the four §III metrics evaluated both raw
//!   and under the 2 % tolerance filter,
//! * FIT break-downs by spatial class in arbitrary units (the bars of
//!   Figs. 3, 5 and 7),
//! * scatter series of mean relative error versus incorrect elements
//!   (Figs. 2, 4, 6 and 8),
//! * CAROL-style event logs and CSV export mirroring the public
//!   `HPCA2017-log-data` repository.
//!
//! The runner is hardened for long campaigns: a per-injection hang
//! watchdog ([`Campaign::with_deadline`]), panic capture that surfaces
//! as a typed error, streaming JSONL checkpoints with
//! [`Campaign::resume`] (see [`checkpoint`]), and run [`telemetry`]
//! (throughput, latency histogram, progress reporting).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod checkpoint;
pub mod config;
pub mod golden;
pub mod hardening;
pub mod log;
pub mod outcome;
pub mod presets;
pub mod runner;
pub mod summary;
pub mod telemetry;

pub use config::{Campaign, KernelSpec};
pub use golden::{GoldenCache, GoldenCacheStats};
pub use hardening::HardeningAnalysis;
pub use outcome::{InjectionOutcome, InjectionRecord, SdcDetail};
pub use runner::{CampaignResult, RunOptions};
pub use summary::CampaignSummary;
pub use telemetry::TelemetrySnapshot;
