//! # radcrit-faults
//!
//! The neutron-beam and fault-injection layer of the radcrit workspace:
//! everything between "a neutron arrives" and "a concrete corruption is
//! delivered to the simulated machine".
//!
//! * [`beam`] — accelerated-beam facility presets (LANSCE, ISIS), fluence
//!   bookkeeping, de-rating and the §IV-D single-strike-per-execution
//!   criterion;
//! * [`calib`] — every calibration constant of the sensitivity model, in
//!   one place, each documented with the paper observation motivating it;
//! * [`site`] — the strike-site taxonomy and the per-site cross-section
//!   table derived from a device configuration plus an execution profile;
//! * [`sampler`] — turns cross sections into sampled injection plans:
//!   crash, hang, or a concrete [`radcrit_accel::strike::StrikeSpec`];
//! * [`injector`] — a SASSIFI/GPU-Qin-class *software* fault injector
//!   restricted to architecturally visible sites, the baseline §IV-D
//!   argues beam testing improves upon.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

pub mod beam;
pub mod calib;
pub mod injector;
pub mod sampler;
pub mod site;

pub use beam::{BeamSession, Facility};
pub use injector::SoftwareInjector;
pub use sampler::{FaultSampler, InjectionPlan};
pub use site::{Site, SiteTable};
