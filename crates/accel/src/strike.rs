//! Strike specifications: what a single impinging neutron does to the
//! machine, expressed against *abstract* machine structures.
//!
//! A [`StrikeSpec`] is resolved against live machine state by the
//! [`engine`](crate::engine) when execution reaches the strike instant:
//! an L2 strike picks a random *resident* line at that moment, a
//! register-file strike picks a victim tile among those pending in the
//! current wave, and so on. A strike that finds no live state to corrupt
//! (empty cache, no pending victim, op index beyond the tile's work) is
//! **architecturally masked** — outcome (1) of §II-A.

use serde::{Deserialize, Serialize};

/// What a corrupted scheduler entry does to its victim tile (§V-A: "the
/// outcome could range from the crash of a device to several improperly
/// scheduled threads producing incorrect data").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerEffect {
    /// The victim tile is never dispatched: its output region keeps its
    /// pre-kernel contents.
    SkipTile,
    /// The victim tile is dispatched with another tile's coordinates: it
    /// recomputes (and overwrites) that tile's region while its own region
    /// keeps stale data.
    RedirectTile,
    /// The victim tile's dispatch state is garbled: every arithmetic
    /// operation it performs produces corrupted results.
    GarbleTile,
}

/// The machine structure a neutron upsets, with the corruption pattern.
///
/// Bit masks are XOR patterns over an `f64`'s 64 bits; `op_index` locates
/// the corrupted in-flight operation within the victim tile's arithmetic
/// work (the fault sampler draws it from the golden execution profile).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StrikeTarget {
    /// Bit flip in a random resident line of the shared L2.
    L2 {
        /// XOR mask applied to one element of the line.
        mask: u64,
    },
    /// Bit flip in a random resident line of the executing unit's L1.
    L1 {
        /// XOR mask applied to one element of the line.
        mask: u64,
    },
    /// Upset of register-file state (or the unprotected operand-collector
    /// queues behind it): corrupts the result of one in-flight operation
    /// of a victim tile pending in the current wave.
    RegisterFile {
        /// XOR mask applied to the operation result.
        mask: u64,
        /// Index of the corrupted operation within the victim tile's work
        /// (an index beyond the tile's last operation is architecturally
        /// masked).
        op_index: u64,
    },
    /// Upset of a wide vector register (Phi 512-bit VPU): the same lane
    /// bit corrupts `lanes` consecutive operations of the victim tile.
    VectorRegister {
        /// XOR mask applied to each affected lane's operation result.
        mask: u64,
        /// Number of consecutive operations (vector lanes) corrupted.
        lanes: u32,
        /// Index of the first corrupted operation within the victim tile.
        op_index: u64,
    },
    /// FPU pipeline upset: corrupts the result of one operation of the
    /// tile executing at the strike instant.
    Fpu {
        /// XOR mask applied to the operation result.
        mask: u64,
        /// Index of the corrupted operation within the tile.
        op_index: u64,
    },
    /// Transcendental-unit (SFU) upset: a corrupted range-reduction /
    /// exponent stage feeds the polynomial evaluation a wrongly scaled
    /// argument — the mechanism behind the paper's exploding LavaMD
    /// errors (§V-E: "exponentiation operations can turn small value
    /// variations into large differences").
    Sfu {
        /// Multiplier applied to the transcendental argument (a corrupted
        /// range reduction is off by ± powers of two).
        scale: f64,
        /// Index of the corrupted transcendental op within the tile.
        op_index: u64,
    },
    /// Core control-path upset (complex in-order x86 cores): a burst of
    /// `elems` consecutive stores writes stale store-queue data instead of
    /// the computed values.
    CoreControl {
        /// Number of consecutive stores corrupted.
        elems: u32,
        /// Index of the first corrupted store within the tile.
        store_index: u64,
    },
    /// Corruption of a unit's task/dispatch state: every tile the struck
    /// unit still has to run in its current chunk (OS static scheduling)
    /// or wave (hardware scheduling) computes garbage. On the Phi, whose
    /// OS partitions the iteration space into contiguous per-core chunks,
    /// this produces the paper's signature large square/cubic blocks of
    /// hugely wrong elements.
    UnitGarble,
    /// Scheduler-state corruption affecting the tile dispatched at the
    /// strike instant.
    Scheduler(SchedulerEffect),
}

impl StrikeTarget {
    /// Whether the strike only arms a victim tile later in the wave and
    /// changes no machine state before it (register-file strikes), so a
    /// fork may start at the victim instead of the strike instant.
    pub(crate) fn is_deferrable(&self) -> bool {
        matches!(
            self,
            StrikeTarget::RegisterFile { .. } | StrikeTarget::VectorRegister { .. }
        )
    }

    /// A short site name for logs and summaries.
    pub fn site_name(&self) -> &'static str {
        match self {
            StrikeTarget::L2 { .. } => "l2",
            StrikeTarget::L1 { .. } => "l1",
            StrikeTarget::RegisterFile { .. } => "register_file",
            StrikeTarget::VectorRegister { .. } => "vector_register",
            StrikeTarget::Fpu { .. } => "fpu",
            StrikeTarget::Sfu { .. } => "sfu",
            StrikeTarget::CoreControl { .. } => "core_control",
            StrikeTarget::UnitGarble => "unit_garble",
            StrikeTarget::Scheduler(_) => "scheduler",
        }
    }

    /// The lowest flipped bit position of the strike's XOR mask, for
    /// targets that flip bits (`None` for control-path corruptions and
    /// the SFU's scale corruption).
    pub fn bit_index(&self) -> Option<u32> {
        let mask = match self {
            StrikeTarget::L2 { mask }
            | StrikeTarget::L1 { mask }
            | StrikeTarget::RegisterFile { mask, .. }
            | StrikeTarget::VectorRegister { mask, .. }
            | StrikeTarget::Fpu { mask, .. } => *mask,
            StrikeTarget::Sfu { .. }
            | StrikeTarget::CoreControl { .. }
            | StrikeTarget::UnitGarble
            | StrikeTarget::Scheduler(_) => return None,
        };
        if mask == 0 {
            None
        } else {
            Some(mask.trailing_zeros())
        }
    }

    /// The index of the first corrupted operation (or store, for
    /// [`StrikeTarget::CoreControl`]) within the victim tile's work, for
    /// targets that corrupt in-flight operations.
    pub fn op_index(&self) -> Option<u64> {
        match self {
            StrikeTarget::RegisterFile { op_index, .. }
            | StrikeTarget::VectorRegister { op_index, .. }
            | StrikeTarget::Fpu { op_index, .. }
            | StrikeTarget::Sfu { op_index, .. } => Some(*op_index),
            StrikeTarget::CoreControl { store_index, .. } => Some(*store_index),
            StrikeTarget::L2 { .. }
            | StrikeTarget::L1 { .. }
            | StrikeTarget::UnitGarble
            | StrikeTarget::Scheduler(_) => None,
        }
    }
}

/// One neutron strike: the dispatch position at which it lands and the
/// structure it corrupts.
///
/// §IV-D tunes the beam so that at most one neutron generates a failure
/// per execution; correspondingly the engine accepts at most one
/// `StrikeSpec` per run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrikeSpec {
    /// The dispatch position (tile execution index) just before which the
    /// strike is applied.
    pub at_tile: usize,
    /// What is corrupted.
    pub target: StrikeTarget,
}

impl StrikeSpec {
    /// Creates a strike at dispatch position `at_tile` on `target`.
    pub fn new(at_tile: usize, target: StrikeTarget) -> Self {
        StrikeSpec { at_tile, target }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_are_distinct() {
        let targets = [
            StrikeTarget::L2 { mask: 1 },
            StrikeTarget::L1 { mask: 1 },
            StrikeTarget::RegisterFile {
                mask: 1,
                op_index: 5,
            },
            StrikeTarget::VectorRegister {
                mask: 1,
                lanes: 8,
                op_index: 5,
            },
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 5,
            },
            StrikeTarget::Sfu {
                scale: -16.0,
                op_index: 5,
            },
            StrikeTarget::CoreControl {
                elems: 2,
                store_index: 5,
            },
            StrikeTarget::UnitGarble,
            StrikeTarget::Scheduler(SchedulerEffect::SkipTile),
        ];
        let names: std::collections::HashSet<_> = targets.iter().map(|t| t.site_name()).collect();
        assert_eq!(names.len(), targets.len());
    }

    #[test]
    fn bit_and_op_helpers_cover_the_variants() {
        let fpu = StrikeTarget::Fpu {
            mask: 1 << 52,
            op_index: 7,
        };
        assert_eq!(fpu.bit_index(), Some(52));
        assert_eq!(fpu.op_index(), Some(7));
        let l2 = StrikeTarget::L2 { mask: 0b1100 };
        assert_eq!(l2.bit_index(), Some(2), "lowest flipped bit");
        assert_eq!(l2.op_index(), None);
        let cc = StrikeTarget::CoreControl {
            elems: 3,
            store_index: 11,
        };
        assert_eq!(cc.bit_index(), None);
        assert_eq!(cc.op_index(), Some(11));
        let sched = StrikeTarget::Scheduler(SchedulerEffect::SkipTile);
        assert_eq!(sched.bit_index(), None);
        assert_eq!(sched.op_index(), None);
        assert_eq!(StrikeTarget::L1 { mask: 0 }.bit_index(), None);
    }

    #[test]
    fn spec_debug_is_informative() {
        let spec = StrikeSpec::new(42, StrikeTarget::L2 { mask: 1 << 52 });
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("42") && dbg.contains("L2"));
    }
}
