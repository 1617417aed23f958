//! # radcrit-core
//!
//! Error-criticality metrics for HPC accelerator outputs, implementing the
//! methodology of *"Radiation-Induced Error Criticality in Modern HPC
//! Parallel Accelerators"* (Oliveira et al., HPCA 2017).
//!
//! The paper argues that a plain golden-output mismatch count is not enough
//! to evaluate the radiation sensitivity of HPC devices and algorithms, and
//! proposes four metrics that this crate implements:
//!
//! 1. **Number of incorrect elements** — how many output elements differ
//!    from the fault-free output ([`ErrorReport::incorrect_elements`]).
//! 2. **Relative error** — per-element
//!    `|read − expected| / |expected| × 100` ([`Mismatch::relative_error`]).
//! 3. **Mean relative error** — the average relative error over all
//!    corrupted elements of one faulty execution
//!    ([`ErrorReport::mean_relative_error`]).
//! 4. **Spatial locality** — the geometric pattern of the corrupted
//!    elements: single, line, square, cubic or random
//!    ([`locality::LocalityClassifier`]).
//!
//! A parameterized tolerance filter ([`filter::ToleranceFilter`], 2 % in the
//! paper) removes mismatches whose relative error falls inside the accepted
//! imprecision of the application, and FIT accounting ([`fit`]) converts
//! event counts and beam fluence into Failure-In-Time rates expressed in
//! arbitrary units, exactly as the paper reports them.
//!
//! ## Example
//!
//! ```
//! use radcrit_core::{compare::compare_slices, filter::ToleranceFilter,
//!                    locality::LocalityClassifier, shape::OutputShape};
//!
//! let shape = OutputShape::d2(4, 4);
//! let golden = vec![1.0_f64; 16];
//! let mut observed = golden.clone();
//! observed[5] = 1.5;   // 50 % relative error
//! observed[6] = 1.001; // 0.1 % relative error: inside a 2 % tolerance
//!
//! let report = compare_slices(&golden, &observed, shape).expect("same length");
//! assert_eq!(report.incorrect_elements(), 2);
//!
//! let filtered = ToleranceFilter::paper_default().apply(&report);
//! assert_eq!(filtered.incorrect_elements(), 1);
//!
//! let class = LocalityClassifier::default().classify(&filtered);
//! assert_eq!(class, radcrit_core::locality::SpatialClass::Single);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod compare;
pub mod dirty;
pub mod error;
pub mod exec;
pub mod filter;
pub mod fit;
pub mod locality;
pub mod mismatch;
pub mod report;
pub mod shape;
pub mod stats;

pub use compare::compare_slices;
pub use dirty::DirtyRegion;
pub use error::CoreError;
pub use exec::{Isa, KernelExecutor};
pub use filter::ToleranceFilter;
pub use fit::{FitBreakdown, FitRate, Fluence};
pub use locality::{LocalityClassifier, SpatialClass};
pub use mismatch::Mismatch;
pub use report::{CriticalityReport, ErrorReport};
pub use shape::{Coord, OutputShape};
