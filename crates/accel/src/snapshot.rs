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
//! loaded and stored and which output spans it stored), the final
//! output, and a `LineIndex`: the lines each tile touches and when
//! each cache evicts a line. A fork whose fault is provably
//! contained stops early and splices the golden suffix from it instead
//! of executing it, and a value-only fork reads each cache flip's fate
//! off the index instead of modelling the caches — see `Engine::run`.

use std::sync::{Arc, OnceLock};

use crate::cache::{CacheHierarchy, CacheStats, Eviction, LineLog};
use crate::error::AccelError;
use crate::memory::{BufferId, DeviceMemory};
use crate::program::MachineCounters;

/// Default byte budget for one program's snapshot set. Kept below the
/// golden cache's default budget (64 MiB) so snapshot-carrying entries
/// stay cacheable; deltas (not full images) make this budget admit a
/// dense stride even for the largest paper kernels.
const DEFAULT_SNAPSHOT_BYTES: usize = 32 * 1024 * 1024;

/// Rough fixed overhead accounted per captured snapshot.
const SNAPSHOT_OVERHEAD_BYTES: usize = 4096;

/// How `Engine::golden_snapshotted` captures snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct SnapshotPolicy {
    /// Tiles between snapshots; `0` derives the stride from the byte
    /// budget (as many evenly spaced snapshots as fit).
    pub stride: usize,
    /// Byte budget for the whole set; `0` means the default budget,
    /// 32 MiB.
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
    /// Buffers the tile itself loads and stores.
    pub(crate) loaded: u64,
    pub(crate) stored: u64,
    /// Whether a later tile stores over any of this tile's output spans:
    /// only a tile whose spans hold their final values can be replaced
    /// by writing the golden output.
    pub(crate) overwritten: bool,
}

/// The golden run's caches line by line, recorded once by
/// `Engine::golden_snapshotted`. A value-only fork issues golden's
/// address stream and flips never change tags, LRU or dirty state, so a
/// flipped line leaves its cache exactly when golden evicts it, with
/// golden's dirty bit: the index gives every flip its fate by lookup.
///
/// It keeps the capture's append-only log (CSR by tile) and derives the
/// per-line and per-tile touch sets the first time a fork asks, so the
/// golden run pays only the appends.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineIndex {
    /// The capture's log, each offset list closed by one past its last
    /// entry: tile `t`'s accesses are
    /// `accesses[access_starts[t]..access_starts[t + 1]]`, and likewise
    /// its L1 evictions.
    log: LineLog,
    /// Per line: one past the last tile during which the L2 evicts it.
    last_l2_evict: Vec<u32>,
    /// L2 lines resident and dirty at the final flush, ascending.
    flush_dirty: Vec<u64>,
    /// Derived from `accesses` on first use.
    touches: OnceLock<Touches>,
}

/// Which lines each tile touches, and the last tile touching each line.
#[derive(Debug, Clone)]
struct Touches {
    /// Tile `t`'s distinct lines, ascending, are
    /// `lines[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
    lines: Vec<u32>,
    /// Per line: one past the last tile touching it (0: never).
    last_touch: Vec<u32>,
}

/// Where a cache flip leaves its cache: during the tile `at.0`, at line
/// touch `at.1` of that tile, or at the final flush (`at == None`); a
/// dirty L2 line writes the flip back to memory then.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FlipEnd {
    pub(crate) at: Option<(usize, u32)>,
    pub(crate) dirty: bool,
}

impl LineIndex {
    /// Builds the index from a finished log; `flush_dirty` are the L2's
    /// dirty lines at the final flush.
    pub(crate) fn new(mut log: LineLog, flush_dirty: Vec<u64>) -> Self {
        log.access_starts.push(log.accesses.len() as u32);
        log.l1_starts.push(log.l1_evictions.len() as u32);
        let mut last_l2_evict = Vec::new();
        for &(line, e) in &log.l2_evictions {
            let l = line as usize;
            if l >= last_l2_evict.len() {
                last_l2_evict.resize(l + 1, 0);
            }
            last_l2_evict[l] = e.tile + 1;
        }
        LineIndex {
            log,
            last_l2_evict,
            flush_dirty,
            touches: OnceLock::new(),
        }
    }

    /// Tile `t`'s entries of a CSR log with offsets `starts`.
    fn of_tile<'a, T>(starts: &[u32], items: &'a [T], t: usize) -> &'a [T] {
        match (starts.get(t), starts.get(t + 1)) {
            (Some(&lo), Some(&hi)) => &items[lo as usize..hi as usize],
            _ => &[],
        }
    }

    fn touches(&self) -> &Touches {
        self.touches.get_or_init(|| {
            let tiles = self.log.access_starts.len().saturating_sub(1);
            let mut t = Touches {
                starts: vec![0],
                lines: Vec::new(),
                last_touch: Vec::new(),
            };
            let mut tile_lines = Vec::new();
            for tile in 0..tiles {
                tile_lines.clear();
                for &(first, last) in
                    Self::of_tile(&self.log.access_starts, &self.log.accesses, tile)
                {
                    tile_lines.extend(first..=last);
                }
                tile_lines.sort_unstable();
                tile_lines.dedup();
                for &l in &tile_lines {
                    let l = l as usize;
                    if l >= t.last_touch.len() {
                        t.last_touch.resize(l + 1, 0);
                    }
                    t.last_touch[l] = tile as u32 + 1;
                }
                t.lines.extend_from_slice(&tile_lines);
                t.starts.push(t.lines.len() as u32);
            }
            t
        })
    }

    /// Whether the tile at dispatch position `tile` touches `line`.
    pub(crate) fn touched_by(&self, line: u64, tile: usize) -> bool {
        let t = self.touches();
        let lines = Self::of_tile(&t.starts, &t.lines, tile);
        u32::try_from(line).is_ok_and(|l| lines.binary_search(&l).is_ok())
    }

    /// Whether no golden tile after the first `done` touches `line`.
    pub(crate) fn untouched_after(&self, line: u64, done: usize) -> bool {
        Self::at_most(&self.touches().last_touch, line, done)
    }

    /// Whether the golden L2 never evicts `line` after the first `done`
    /// tiles.
    pub(crate) fn unevicted_after(&self, line: u64, done: usize) -> bool {
        Self::at_most(&self.last_l2_evict, line, done)
    }

    fn at_most(last: &[u32], line: u64, done: usize) -> bool {
        usize::try_from(line)
            .ok()
            .and_then(|l| last.get(l))
            .is_none_or(|&t| t as usize <= done)
    }

    /// Where a flip on `line`, resident in `unit`'s L1 (or the L2 when
    /// `None`) before the tile at `from` runs, leaves its cache: a scan
    /// of the evictions from `from` on, which for a resident line ends
    /// within about one cache's worth of evictions.
    pub(crate) fn end_of(&self, unit: Option<usize>, line: u64, from: usize) -> FlipEnd {
        let Ok(line32) = u32::try_from(line) else {
            return FlipEnd {
                at: None,
                dirty: false,
            };
        };
        let next = match unit {
            Some(u) => (from..self.log.units.len())
                .filter(|&t| self.log.units[t] as usize == u)
                .find_map(|t| {
                    Self::of_tile(&self.log.l1_starts, &self.log.l1_evictions, t)
                        .iter()
                        .find(|&&(l, _)| l == line32)
                        .map(|&(_, ordinal)| (t, ordinal, false))
                }),
            None => {
                let first = self
                    .log
                    .l2_evictions
                    .partition_point(|(_, e)| (e.tile as usize) < from);
                self.log.l2_evictions[first..]
                    .iter()
                    .find(|&&(l, _)| l == line32)
                    .map(|&(_, e)| (e.tile as usize, e.ordinal, e.dirty))
            }
        };
        match next {
            Some((tile, ordinal, dirty)) => FlipEnd {
                at: Some((tile, ordinal)),
                dirty,
            },
            None => FlipEnd {
                at: None,
                dirty: unit.is_none() && self.flush_dirty.binary_search(&line).is_ok(),
            },
        }
    }

    /// Approximate bytes held; the touch sets derived on first use are
    /// charged at the size of the access log they come from.
    fn cost_bytes(&self) -> usize {
        (self.log.units.len()
            + self.log.access_starts.len()
            + self.log.l1_starts.len()
            + self.last_l2_evict.len())
            * 4
            + (2 * self.log.accesses.len() + self.log.l1_evictions.len()) * 8
            + self.log.l2_evictions.len() * std::mem::size_of::<(u32, Eviction)>()
            + self.flush_dirty.len() * 8
    }
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
    /// The golden caches line by line.
    pub(crate) lines: LineIndex,
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

    /// Writes golden's final values of the output spans the tiles in
    /// `tiles` store into `out`, the output buffer of `mem`.
    pub(crate) fn write_output(
        &self,
        mem: &mut DeviceMemory,
        out: BufferId,
        tiles: std::ops::Range<usize>,
    ) -> Result<(), AccelError> {
        for (s, l) in self.spans_in(tiles) {
            let (_, window) = mem.window_mut(out, s, l)?;
            window.copy_from_slice(&self.output[s..s + l]);
        }
        Ok(())
    }

    /// Completes the ledger once the golden run has ended: each tile's
    /// `loaded_after` and `overwritten`, the final `output` and the line
    /// index.
    pub(crate) fn finish(&mut self, output: &[f64], lines: LineIndex) {
        let mut after = 0;
        for entry in self.tiles.iter_mut().rev() {
            entry.loaded_after = after;
            after |= entry.loaded;
        }
        // A tile's output spans are overwritten when a later tile stores
        // over any of their elements.
        let mut later = vec![false; output.len()];
        let range = |&(_, s, l): &(u32, u32, u32)| s as usize..(s + l) as usize;
        for spans in self.output_spans.chunk_by(|a, b| a.0 == b.0).rev() {
            let overwritten = spans.iter().any(|sp| later[range(sp)].contains(&true));
            self.tiles[spans[0].0 as usize].overwritten = overwritten;
            for sp in spans {
                later[range(sp)].fill(true);
            }
        }
        self.output = output.to_vec();
        self.lines = lines;
    }

    fn cost_bytes(&self) -> usize {
        self.tiles.len() * std::mem::size_of::<LedgerTile>()
            + self.output_spans.len() * 12
            + self.output.len() * 8
            + self.lines.cost_bytes()
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
    /// entry per tile, a copy of the golden output and the line index).
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
        let mut log = LineLog::default();
        log.begin_tile(0, 0);
        log.accesses.push((0, 0));
        log.begin_tile(1, 0);
        log.accesses.push((2, 2));
        with_spans.ledger = Arc::new(GoldenLedger {
            output_spans: vec![(0, 0, 8), (1, 8, 8)],
            lines: LineIndex::new(log, vec![2]),
            ..GoldenLedger::default()
        });
        // Two tile units, two 3-entry tile offset arrays, two accesses
        // (charged twice: the log and the touch sets derived from it) and
        // one flushed line.
        let index_bytes = (2 + 3 + 3) * 4 + 2 * 2 * 8 + 8;
        assert_eq!(with_spans.cost_bytes(), set.bytes + 2 * 12 + index_bytes);
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
        // Tile 0 (unit 0) touches lines 1 and 2, tile 2 (unit 2) line 1.
        // The L2 evicts line 0 dirty at touch 3 of tile 1; unit 2's L1
        // evicts line 1 at touch 0 of tile 2; line 1 is dirty at the
        // flush.
        let mut log = LineLog::default();
        log.begin_tile(0, 0);
        log.accesses.push((1, 2));
        log.begin_tile(1, 1);
        let e = Eviction {
            tile: 1,
            ordinal: 3,
            dirty: true,
        };
        log.l2_evictions.push((0, e));
        log.begin_tile(2, 2);
        log.accesses.push((1, 1));
        log.accesses.push((1, 1));
        log.l1_evictions.push((1, 0));
        let index = LineIndex::new(log, vec![1]);
        assert!(index.untouched_after(0, 0));
        assert!(!index.untouched_after(1, 2));
        assert!(index.untouched_after(1, 3));
        assert!(index.untouched_after(9, 0), "never recorded: never touched");
        assert!(index.touched_by(1, 2) && !index.touched_by(1, 1));
        assert!(!index.unevicted_after(0, 1));
        assert!(index.unevicted_after(0, 2));
        assert!(index.unevicted_after(5, 0));
        let end = |at, dirty| FlipEnd { at, dirty };
        assert_eq!(index.end_of(None, 0, 0), end(Some((1, 3)), true));
        assert_eq!(index.end_of(None, 0, 2), end(None, false));
        assert_eq!(index.end_of(None, 1, 0), end(None, true), "flushed dirty");
        assert_eq!(index.end_of(Some(2), 1, 0), end(Some((2, 0)), false));
        assert_eq!(
            index.end_of(Some(1), 1, 0),
            end(None, false),
            "another unit's L1 eviction"
        );
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
