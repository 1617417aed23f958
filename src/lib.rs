//! # radcrit
//!
//! Umbrella crate for the radcrit workspace: a reproduction of
//! *"Radiation-Induced Error Criticality in Modern HPC Parallel
//! Accelerators"* (Oliveira et al., HPCA 2017) built on a simulated
//! accelerator substrate.
//!
//! Re-exports every sub-crate under a short module name:
//!
//! * [`core`] — the four error-criticality metrics and FIT accounting;
//! * [`accel`] — the architectural simulator (K40- and Xeon-Phi-like
//!   device models, caches, schedulers, execution engine);
//! * [`faults`] — the neutron-beam model and fault-injection engine;
//! * [`kernels`] — DGEMM, LavaMD, HotSpot and the CLAMR-equivalent
//!   shallow-water AMR solver;
//! * [`abft`] — checksum-hardened DGEMM (Huang–Abraham ABFT);
//! * [`campaign`] — beam-campaign orchestration, logs and statistics;
//! * [`obs`] — observability: metrics registry, structured event stream
//!   and fault-provenance records.
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(clippy::too_many_lines)]

pub use radcrit_abft as abft;
pub use radcrit_accel as accel;
pub use radcrit_campaign as campaign;
pub use radcrit_core as core;
pub use radcrit_faults as faults;
pub use radcrit_kernels as kernels;
pub use radcrit_obs as obs;
