//! Golden-prefix machine snapshots for differential injection execution.
//!
//! Execution is deterministic and a strike perturbs nothing before its
//! tile, so every faulty run's machine state at tile `r` is *bit-equal*
//! to the golden run's state at `r` for any `r ≤ strike.at_tile`. A
//! [`SnapshotSet`] captures that state (device memory, cache hierarchy,
//! running counters) at a tile stride during the golden run; an
//! injection then forks off the nearest snapshot at or before its
//! strike tile instead of re-executing the whole prefix — see
//! `Engine::warm_restore` and `Engine::run`.
//!
//! Snapshots are byte-bounded: a [`SnapshotPolicy`] caps the whole set,
//! and capture points that would exceed the budget are skipped (and
//! counted), never silently truncating correctness — a strike landing
//! before the first usable snapshot simply runs from tile 0.
//!
//! The same golden run also records a golden ledger: what every tile
//! did (counters, cache statistics, L2 residency, which buffers it
//! loaded and which output spans it stored), the final output, and per
//! cache line the last tile that touches it and the last tile during
//! which the L2 evicts it. A fork whose fault is provably contained
//! stops early and splices the golden suffix from it instead of
//! executing it — see `Engine::run`.

use std::sync::Arc;

use crate::cache::{CacheHierarchy, CacheStats};
use crate::memory::BufferId;
use crate::program::MachineCounters;

/// Default byte budget for one program's snapshot set. Kept below the
/// golden cache's default budget (64 MiB) so snapshot-carrying entries
/// stay cacheable; deltas (not full images) make this budget admit a
/// dense stride even for the largest paper kernels.
pub const DEFAULT_SNAPSHOT_BYTES: usize = 32 * 1024 * 1024;

/// Rough fixed overhead accounted per captured snapshot.
const SNAPSHOT_OVERHEAD_BYTES: usize = 4096;

/// How `Engine::golden_snapshotted` captures snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotPolicy {
    /// Tiles between snapshots; `0` derives the stride from the byte
    /// budget (as many evenly spaced snapshots as fit).
    pub stride: usize,
    /// Byte budget for the whole set; `0` means
    /// [`DEFAULT_SNAPSHOT_BYTES`].
    pub max_bytes: usize,
}

impl SnapshotPolicy {
    pub(crate) fn budget(&self) -> usize {
        if self.max_bytes == 0 {
            DEFAULT_SNAPSHOT_BYTES
        } else {
            self.max_bytes
        }
    }
}

/// Machine state captured immediately before one tile of the golden run
/// executed: resuming from it and executing tiles `at_tile..` replays
/// the golden run's suffix exactly.
///
/// Device memory is stored as a *delta* against the post-setup template:
/// only buffers written since setup (a golden run mutates memory solely
/// through program stores — there are no corrupted write-backs). The
/// engine rebuilds the full image as template ∪ delta on resume, so
/// read-only inputs are never duplicated per snapshot.
#[derive(Debug, Clone)]
pub(crate) struct EngineSnapshot {
    pub(crate) at_tile: usize,
    pub(crate) mem_delta: Vec<(BufferId, Vec<f64>)>,
    pub(crate) caches: CacheHierarchy,
    pub(crate) counters: MachineCounters,
    pub(crate) l2_resident_samples: f64,
}

/// What one tile of the golden run did: the deltas a contained fork
/// adds for each tile it does not execute.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LedgerTile {
    pub(crate) counters: MachineCounters,
    /// The tile's cache hit and miss deltas; `l2_resident_lines` is the
    /// residency after the tile (its `l2_resident_samples` term).
    pub(crate) cache: CacheStats,
    /// Buffers (as [`BufferId::bit`] masks) that any *later* tile loads:
    /// a tainted buffer outside this mask is never read again.
    pub(crate) loaded_after: u64,
}

/// The golden run tile by tile, recorded once by
/// `Engine::golden_snapshotted` and shared by every warm bucket.
#[derive(Debug, Clone, Default)]
pub(crate) struct GoldenLedger {
    /// One entry per dispatch position.
    pub(crate) tiles: Vec<LedgerTile>,
    /// Golden stores into the output buffer as `(tile, start, len)`
    /// element spans, ascending by tile.
    pub(crate) output_spans: Vec<(u32, u32, u32)>,
    /// The golden final output.
    pub(crate) output: Vec<f64>,
    /// Per cache line: one past the last tile whose access touches it
    /// (0: never touched).
    pub(crate) last_touch: Vec<u32>,
    /// Per cache line: one past the last tile during which the L2
    /// evicts it (0: never evicted mid-tile).
    pub(crate) last_l2_evict: Vec<u32>,
}

impl GoldenLedger {
    /// Golden output-store spans of tiles in `tiles`, as `(start, len)`
    /// element spans.
    pub(crate) fn spans_in(
        &self,
        tiles: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let lo = self
            .output_spans
            .partition_point(|&(t, _, _)| (t as usize) < tiles.start);
        let hi = self
            .output_spans
            .partition_point(|&(t, _, _)| (t as usize) < tiles.end);
        self.output_spans[lo..hi]
            .iter()
            .map(|&(_, s, l)| (s as usize, l as usize))
    }

    /// Whether no golden tile after the first `done` touches `line`.
    pub(crate) fn untouched_after(&self, line: u64, done: usize) -> bool {
        Self::at_most(&self.last_touch, line, done)
    }

    /// Whether the golden L2 never evicts `line` after the first `done`
    /// tiles.
    pub(crate) fn unevicted_after(&self, line: u64, done: usize) -> bool {
        Self::at_most(&self.last_l2_evict, line, done)
    }

    fn at_most(index: &[u32], line: u64, done: usize) -> bool {
        usize::try_from(line)
            .ok()
            .and_then(|l| index.get(l))
            .is_none_or(|&t| t as usize <= done)
    }

    fn cost_bytes(&self) -> usize {
        self.tiles.len() * std::mem::size_of::<LedgerTile>()
            + self.output_spans.len() * 12
            + self.output.len() * 8
            + (self.last_touch.len() + self.last_l2_evict.len()) * 4
    }
}

/// A byte-bounded set of golden-prefix snapshots plus the golden run's
/// per-tile ledger (its output-store spans bound the dirty output region
/// of a resumed faulty run; the rest lets a contained fork splice the
/// golden suffix).
#[derive(Debug, Clone, Default)]
pub struct SnapshotSet {
    pub(crate) snaps: Vec<EngineSnapshot>,
    pub(crate) ledger: Arc<GoldenLedger>,
    pub(crate) bytes: usize,
    pub(crate) skipped_tiles: u64,
}

impl SnapshotSet {
    /// Number of captured snapshots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snaps.len()
    }

    /// Whether no snapshot was captured (non-resumable program, zero
    /// tiles, or a budget too small for even one snapshot).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.snaps.is_empty()
    }

    /// Approximate bytes this set occupies, for cache accounting: the
    /// snapshots plus the golden ledger (12 bytes per output span, one
    /// entry per tile, a copy of the golden output and 4 bytes per line
    /// per line index).
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        self.bytes + self.ledger.cost_bytes()
    }

    /// Capture points skipped because they would have exceeded the byte
    /// budget.
    #[must_use]
    pub fn skipped_tiles(&self) -> u64 {
        self.skipped_tiles
    }

    /// The snapshot with the greatest `at_tile` that is `<= tile`, if
    /// any.
    pub(crate) fn resume_point(&self, tile: usize) -> Option<&EngineSnapshot> {
        let i = self.snaps.partition_point(|s| s.at_tile <= tile);
        self.snaps[..i].last()
    }

    /// The tile of the snapshot a strike at `tile` would resume from:
    /// the greatest captured `at_tile <= tile`. This is the batch
    /// scheduler's bucket key — strikes sharing a resume tile share one
    /// warm restore.
    #[must_use]
    pub fn resume_tile(&self, tile: usize) -> Option<usize> {
        self.resume_point(tile).map(|s| s.at_tile)
    }

    pub(crate) fn push(&mut self, snap: EngineSnapshot, budget: usize) -> bool {
        let delta_bytes: usize = snap.mem_delta.iter().map(|(_, d)| d.len() * 8).sum();
        let cost = delta_bytes + snap.caches.approx_heap_bytes() + SNAPSHOT_OVERHEAD_BYTES;
        if self.bytes + cost > budget {
            self.skipped_tiles += 1;
            return false;
        }
        self.bytes += cost;
        self.snaps.push(snap);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(at_tile: usize) -> EngineSnapshot {
        EngineSnapshot {
            at_tile,
            mem_delta: Vec::new(),
            caches: CacheHierarchy::new(&crate::config::DeviceConfig::kepler_k40()),
            counters: MachineCounters::default(),
            l2_resident_samples: 0.0,
        }
    }

    #[test]
    fn resume_point_picks_nearest_at_or_before() {
        let mut set = SnapshotSet::default();
        for t in [0, 8, 16] {
            assert!(set.push(snap(t), usize::MAX));
        }
        assert_eq!(set.resume_point(0).unwrap().at_tile, 0);
        assert_eq!(set.resume_point(7).unwrap().at_tile, 0);
        assert_eq!(set.resume_point(8).unwrap().at_tile, 8);
        assert_eq!(set.resume_point(100).unwrap().at_tile, 16);
    }

    #[test]
    fn budget_skips_and_counts() {
        let mut set = SnapshotSet::default();
        assert!(set.push(snap(0), usize::MAX));
        let used = set.bytes;
        assert!(!set.push(snap(8), used), "second capture exceeds budget");
        assert_eq!(set.len(), 1);
        assert_eq!(set.skipped_tiles(), 1);
    }

    #[test]
    fn whole_schedule_over_budget_counts_every_capture_point() {
        // A budget too small for even one snapshot must skip (and count)
        // every capture point while keeping the set empty and free.
        let mut set = SnapshotSet::default();
        for t in [0, 4, 8, 12] {
            assert!(!set.push(snap(t), 1));
        }
        assert!(set.is_empty());
        assert_eq!(set.skipped_tiles(), 4);
        assert_eq!(set.bytes, 0, "skipped captures must not be charged");
        assert_eq!(set.cost_bytes(), 0);
        assert_eq!(set.resume_tile(100), None);
    }

    #[test]
    fn cost_bytes_charges_snapshots_once_plus_span_index() {
        // `cost_bytes` = accumulated per-snapshot cost (each capture
        // charged exactly once at push time) + 12 bytes per output span.
        let mut set = SnapshotSet::default();
        let mut per_push = Vec::new();
        for t in [0, 8] {
            let before = set.bytes;
            assert!(set.push(snap(t), usize::MAX));
            per_push.push(set.bytes - before);
        }
        assert_eq!(set.bytes, per_push.iter().sum::<usize>());
        assert_eq!(set.cost_bytes(), set.bytes);
        let mut with_spans = set.clone();
        with_spans.ledger = Arc::new(GoldenLedger {
            output_spans: vec![(0, 0, 8), (1, 8, 8)],
            last_touch: vec![0; 5],
            last_l2_evict: vec![0; 3],
            ..GoldenLedger::default()
        });
        assert_eq!(with_spans.cost_bytes(), set.bytes + 2 * 12 + 8 * 4);
    }

    #[test]
    fn resume_tile_matches_resume_point() {
        let mut set = SnapshotSet::default();
        for t in [2, 8, 16] {
            assert!(set.push(snap(t), usize::MAX));
        }
        assert_eq!(set.resume_tile(0), None);
        assert_eq!(set.resume_tile(2), Some(2));
        assert_eq!(set.resume_tile(9), Some(8));
        assert_eq!(set.resume_tile(100), Some(16));
    }

    #[test]
    fn line_index_answers_past_its_end() {
        let ledger = GoldenLedger {
            last_touch: vec![0, 3, 1],
            last_l2_evict: vec![2],
            ..GoldenLedger::default()
        };
        assert!(ledger.untouched_after(0, 0));
        assert!(!ledger.untouched_after(1, 2));
        assert!(ledger.untouched_after(1, 3));
        assert!(
            ledger.untouched_after(9, 0),
            "never recorded: never touched"
        );
        assert!(!ledger.unevicted_after(0, 1));
        assert!(ledger.unevicted_after(0, 2));
        assert!(ledger.unevicted_after(5, 0));
    }

    #[test]
    fn golden_spans_filtered_by_tile() {
        let ledger = GoldenLedger {
            output_spans: vec![(0, 0, 8), (1, 8, 8), (3, 24, 8)],
            ..GoldenLedger::default()
        };
        let from1: Vec<_> = ledger.spans_in(1..usize::MAX).collect();
        assert_eq!(from1, vec![(8, 8), (24, 8)]);
        assert_eq!(ledger.spans_in(4..usize::MAX).count(), 0);
        let upto3: Vec<_> = ledger.spans_in(1..3).collect();
        assert_eq!(upto3, vec![(8, 8)]);
    }
}
