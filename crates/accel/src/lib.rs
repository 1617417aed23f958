//! # radcrit-accel
//!
//! An architectural simulator of tiled data-parallel HPC accelerators,
//! built as the experimental substrate for reproducing *"Radiation-Induced
//! Error Criticality in Modern HPC Parallel Accelerators"* (Oliveira et
//! al., HPCA 2017) without access to a neutron beam.
//!
//! The simulator models the microarchitectural mechanisms that the paper
//! identifies as responsible for error criticality differences between the
//! NVIDIA Tesla K40 (Kepler GK110b) and the Intel Xeon Phi 3120A (Knights
//! Corner):
//!
//! * a functional, data-carrying **set-associative cache hierarchy**
//!   ([`cache`]) — corruption of a resident line is visible to every
//!   subsequent consumer until eviction, so large shared caches (Phi's
//!   28.5 MB coherent L2) spread single strikes across many output
//!   elements while small ones (K40's 1.5 MB L2) isolate them;
//! * **scheduler models** ([`scheduler`]) — a hardware block scheduler
//!   whose exposed state grows with the number of resident threads (K40)
//!   versus an operating-system scheduler living in unirradiated DRAM
//!   (Phi);
//! * **register-file and vector-lane fault sites** — the K40 register file
//!   is ECC-protected but its operand-collector queues are not; the Phi
//!   exposes 512-bit vector registers whose upset corrupts up to eight
//!   double lanes at once;
//! * a **tiled execution engine** ([`engine`]) that runs [`program`]s
//!   (kernels) tile by tile in dispatch order, resolving abstract strike
//!   specifications ([`strike`]) against live machine state.
//!
//! Device configurations for both accelerators, with the published
//! microarchitectural parameters, are in [`config`].

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod error;
pub mod memory;
pub mod profile;
pub mod program;
pub mod scheduler;
pub mod snapshot;
pub mod strike;
mod taint;
pub mod trace;

pub use cache::{CacheGeometry, CacheHierarchy};
pub use config::{DeviceConfig, DeviceKind, ResidencyPolicy, SchedulerKind};
pub use engine::{Engine, ForkCounts, ForkCursor, GoldenRun, RunOutcome, StrikeResolution};
pub use error::AccelError;
pub use memory::{BufferId, DeviceMemory};
pub use profile::ExecutionProfile;
pub use program::{TileCtx, TileId, TiledProgram};
pub use snapshot::{SnapshotPolicy, SnapshotSet};
pub use strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
pub use trace::{ExecutionTrace, TileTrace};
