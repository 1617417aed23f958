//! # radcrit-kernels
//!
//! The four workloads of *"Radiation-Induced Error Criticality in Modern
//! HPC Parallel Accelerators"* (Oliveira et al., HPCA 2017), implemented
//! as [`radcrit_accel::program::TiledProgram`]s:
//!
//! * [`dgemm::Dgemm`] — dense matrix multiplication (Dense Linear
//!   Algebra; compute-bound, balanced, regular);
//! * [`lavamd::LavaMd`] — particle potentials over a 3-D box grid via the
//!   Rodinia LavaMD formulation (N-Body / FDM; memory-bound, imbalanced,
//!   regular);
//! * [`hotspot::HotSpot`] — the Rodinia 2-D thermal stencil (Structured
//!   Grid; memory-bound, balanced, regular);
//! * [`shallow::ShallowWater`] — a conservative shallow-water solver with
//!   a circular-dam-break workload and activity-driven tiling, the
//!   open substitute for the proprietary DOE CLAMR mini-app
//!   (fluid dynamics; compute-bound, imbalanced, irregular).
//!
//! Each kernel also implements [`Workload`], which adds the logical
//! output geometry used by the spatial-locality metric and the Table I/II
//! classification metadata.
//!
//! [`pathological::Pathological`] is a fifth, diagnostic workload that
//! hangs or panics on demand; the campaign runner's watchdog and panic
//! capture are exercised against it.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod dgemm;
pub mod hotspot;
pub mod input;
pub mod lavamd;
pub mod pathological;
pub mod profile;
pub mod shallow;

use radcrit_accel::program::TiledProgram;
use radcrit_core::shape::{Coord, OutputShape};

pub use profile::{Bound, KernelClass, LoadBalance, MemoryAccess};

/// A paper workload: a tiled program plus the metadata the criticality
/// analysis needs (logical output geometry and kernel classification).
pub trait Workload: TiledProgram {
    /// The coordinate space the spatial-locality classifier operates in
    /// (e.g. the `G × G × G` box grid for LavaMD, the matrix for DGEMM).
    fn logical_shape(&self) -> OutputShape;

    /// Maps a flat output-element index to its logical coordinate.
    fn error_coord(&self, idx: usize) -> Coord;

    /// Table I classification of this kernel.
    fn class(&self) -> KernelClass;

    /// A short label of the input size (e.g. `"1024x1024"`, `"13"`).
    fn input_label(&self) -> String;

    /// Total threads instantiated (Table II's `#Threads`).
    fn total_threads(&self) -> usize {
        self.tile_count() * self.threads_per_tile()
    }

    /// The workload's identity as structured event fields, for the
    /// observability layer's campaign header events: kernel name, input
    /// label, logical output dimensions, tile geometry and thread count.
    fn obs_fields(&self) -> Vec<(String, radcrit_obs::FieldValue)> {
        use radcrit_obs::FieldValue;
        let dims = self.logical_shape().dims();
        vec![
            ("kernel".to_owned(), FieldValue::Str(self.name().to_owned())),
            ("input".to_owned(), FieldValue::Str(self.input_label())),
            (
                "dims".to_owned(),
                FieldValue::Arr(dims.iter().map(|&d| d as u64).collect()),
            ),
            (
                "tiles".to_owned(),
                FieldValue::U64(self.tile_count() as u64),
            ),
            (
                "threads_per_tile".to_owned(),
                FieldValue::U64(self.threads_per_tile() as u64),
            ),
            (
                "threads".to_owned(),
                FieldValue::U64(self.total_threads() as u64),
            ),
        ]
    }
}
