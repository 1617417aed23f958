//! Golden-prefix machine snapshots for differential injection execution.
//!
//! Execution is deterministic and a strike perturbs nothing before its
//! tile, so every faulty run's machine state at tile `r` is *bit-equal*
//! to the golden run's state at `r` for any `r ≤ strike.at_tile`. A
//! [`SnapshotSet`] captures that state (device memory, cache hierarchy,
//! running counters) at a tile stride during the golden run; an
//! injection then forks off the nearest snapshot at or before its
//! strike tile instead of re-executing the whole prefix — see
//! `ForkCursor`, the one fork path, in `engine`.
//!
//! Snapshots are byte-bounded: a [`SnapshotPolicy`] caps the whole set,
//! and capture points that would exceed the budget are skipped (and
//! counted), never silently truncating correctness — a strike landing
//! before the first usable snapshot simply runs from tile 0.
//!
//! The same golden run also records a golden ledger: what every tile
//! did (counters, cache statistics, L2 residency, which buffers it
//! loaded and which element spans it stored), the final output, a
//! `LineIndex` — the lines each tile loads and stores and when each
//! cache evicts a line — and a store journal: each span's golden values
//! at the end of its tile, except the output spans no later tile stores
//! over, whose values are the final output's. A fork compares what it
//! stores against those values to taint exactly the elements its fault
//! changed, replays a tile that loads none of them by writing its golden
//! values, and stops early, splicing the golden suffix, once its fault
//! is provably contained; a value-only fork reads each cache flip's fate
//! off the index instead of modelling the caches — see the injection
//! driver in `engine`.
//! The journal is charged to the snapshot budget after the snapshots: a
//! tile past what is left of it is replayable only when its stores are
//! final.

use std::sync::{Arc, OnceLock};

use crate::cache::{CacheHierarchy, CacheStats, Eviction, LineLog};
use crate::error::AccelError;
use crate::memory::{BufferId, DeviceMemory};
use crate::program::{MachineCounters, Stored};

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
    /// Buffers the tile itself loads.
    pub(crate) loaded: u64,
    /// Whether the ledger holds the golden values of every span the tile
    /// stores (journaled or final): a fork may then replay the tile by
    /// writing them instead of executing it.
    pub(crate) replayable: bool,
}

/// One golden store span: `len` elements of `buf` from `start`, at
/// global element address `at` (its byte address over 8). Consecutive
/// stores of one tile to one buffer are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StoreSpan {
    pub(crate) buf: BufferId,
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) at: u32,
    /// Where the span's golden values at the end of its tile are:
    /// [`StoreSpan::FINAL`] for an output span no later tile stores over
    /// (the golden output holds them), [`StoreSpan::NONE`] when the
    /// ledger holds none, else its offset in the journal. During capture,
    /// [`StoreSpan::PRESUMED`] marks an output span presumed final.
    pub(crate) journal: u32,
}

impl StoreSpan {
    pub(crate) const FINAL: u32 = u32::MAX;
    pub(crate) const NONE: u32 = u32::MAX - 1;
    pub(crate) const PRESUMED: u32 = u32::MAX - 2;

    /// The span's elements as a global address range.
    pub(crate) fn elems(&self) -> std::ops::Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }
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
                    tile_lines.extend(first..=last & !LineLog::WRITE);
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

    /// The line ranges, `(first, last)` inclusive, of the loads of the
    /// tile at dispatch position `tile`.
    pub(crate) fn loads_of(&self, tile: usize) -> impl Iterator<Item = (u64, u64)> + '_ {
        Self::of_tile(&self.log.access_starts, &self.log.accesses, tile)
            .iter()
            .filter(|&&(_, last)| last & LineLog::WRITE == 0)
            .map(|&(first, last)| (u64::from(first), u64::from(last)))
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
    /// Every golden store span, tile after tile: tile `t`'s are
    /// `stores[store_starts[t]..store_starts[t + 1]]`.
    pub(crate) stores: Vec<StoreSpan>,
    pub(crate) store_starts: Vec<u32>,
    /// The journaled spans' golden values, in span order.
    pub(crate) journal: Vec<f64>,
    /// The output buffer and its golden final contents.
    pub(crate) out_buf: Option<BufferId>,
    pub(crate) output: Vec<f64>,
    /// The golden caches line by line.
    pub(crate) lines: LineIndex,
    /// Capture state: the buffers (as [`BufferId::bit`] masks) the tiles
    /// pushed so far load, and whether the journal has refused a span.
    pub(crate) loaded: u64,
    pub(crate) closed: bool,
}

impl GoldenLedger {
    /// An empty ledger for a golden run whose output buffer is `out`.
    pub(crate) fn new(out: BufferId) -> Self {
        GoldenLedger {
            out_buf: Some(out),
            ..GoldenLedger::default()
        }
    }

    /// The store spans of the tile at dispatch position `tile`.
    pub(crate) fn stores_of(&self, tile: usize) -> &[StoreSpan] {
        LineIndex::of_tile(&self.store_starts, &self.stores, tile)
    }

    /// Golden output-store spans of tiles in `tiles`, as `(start, len)`
    /// element spans.
    pub(crate) fn spans_in(
        &self,
        tiles: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, usize)> + '_ {
        let at = |t: usize| {
            self.store_starts
                .get(t)
                .map_or(self.stores.len(), |&s| s as usize)
        };
        let spans = &self.stores[at(tiles.start).min(self.stores.len())..at(tiles.end)];
        spans
            .iter()
            .filter(|sp| Some(sp.buf) == self.out_buf)
            .map(|sp| (sp.start as usize, sp.len as usize))
    }

    /// The golden values of `span` at the end of its tile, when the
    /// ledger holds them.
    pub(crate) fn golden_of(&self, span: &StoreSpan) -> Option<&[f64]> {
        let (start, len) = (span.start as usize, span.len as usize);
        match span.journal {
            StoreSpan::NONE => None,
            StoreSpan::FINAL => self.output.get(start..start + len),
            at => self.journal.get(at as usize..at as usize + len),
        }
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

    /// Replays the replayable tile at `tile`: writes the golden values
    /// of every span it stores.
    pub(crate) fn write_stores(
        &self,
        mem: &mut DeviceMemory,
        tile: usize,
    ) -> Result<(), AccelError> {
        for span in self.stores_of(tile) {
            let golden = self.golden_of(span).expect("a replayable tile's spans");
            let (_, window) = mem.window_mut(span.buf, span.start as usize, golden.len())?;
            window.copy_from_slice(golden);
        }
        Ok(())
    }

    /// Appends the golden tile at the next dispatch position, its store
    /// spans `stored` (consecutive ones merged), and, while the journal
    /// fits in `room` bytes, their values in `mem` at its end. The first
    /// span that does not fit closes the journal: it and every later span
    /// get none. The journal's allocation never exceeds `room` either;
    /// its first holds one output's values, so that it rarely regrows
    /// (growing it in small steps between snapshot captures doubled
    /// LavaMD's capture time).
    ///
    /// An output span is presumed final, and not journaled, while no tile
    /// has loaded the output buffer: a kernel that never reads its output
    /// (DGEMM, LavaMD) copies none of it. A span the presumption gets
    /// wrong — a later tile stores over it — gets no golden values.
    pub(crate) fn push_tile(
        &mut self,
        tile: LedgerTile,
        stored: impl Iterator<Item = Stored>,
        mem: &DeviceMemory,
        room: usize,
    ) -> Result<(), AccelError> {
        let first = self.stores.len();
        self.loaded |= tile.loaded;
        let presumed = self.out_buf.filter(|out| self.loaded & out.bit() == 0);
        self.store_starts.push(first as u32);
        self.tiles.push(tile);
        for s in stored {
            let (start, len, at) = (s.start as u32, s.len as u32, s.at as u32);
            match self.stores[first..].last_mut() {
                Some(p) if p.buf == s.buf && p.start + p.len == start => p.len += len,
                _ => self.stores.push(StoreSpan {
                    buf: s.buf,
                    start,
                    len,
                    at,
                    journal: StoreSpan::NONE,
                }),
            }
        }
        for span in &mut self.stores[first..] {
            if Some(span.buf) == presumed {
                span.journal = StoreSpan::PRESUMED;
                continue;
            }
            let need = self.journal.len() + span.len as usize;
            self.closed |= need * 8 > room;
            if self.closed {
                continue;
            }
            if need > self.journal.capacity() {
                let output = self.out_buf.map_or(0, |out| mem.len_of(out).unwrap_or(0));
                let cap = (2 * self.journal.capacity()).max(output);
                self.journal
                    .reserve_exact(cap.clamp(need, room / 8) - self.journal.len());
            }
            span.journal = self.journal.len() as u32;
            let (_, values) = mem.window(span.buf, span.start as usize, span.len as usize)?;
            self.journal.extend_from_slice(values);
        }
        Ok(())
    }

    /// Cuts the journal, during capture, to the `room` bytes a snapshot
    /// just left of the budget: the spans past it get none, which closes
    /// the journal, and its allocation shrinks to fit.
    pub(crate) fn cut_journal(&mut self, room: usize) {
        let keep = room / 8;
        if self.journal.len() > keep {
            let mut end = 0;
            for sp in self.stores.iter_mut().rev() {
                let at = sp.journal as usize;
                match sp.journal {
                    StoreSpan::PRESUMED | StoreSpan::NONE => {}
                    _ if at + sp.len as usize <= keep => {
                        end = at + sp.len as usize;
                        break;
                    }
                    _ => sp.journal = StoreSpan::NONE,
                }
            }
            self.journal.truncate(end);
            self.closed = true;
        }
        self.journal.shrink_to(keep);
    }

    /// Completes the ledger once the golden run has ended: each tile's
    /// `loaded_after` and `replayable`, which output spans are final,
    /// the journal cut to `room` bytes, the final `output` and the line
    /// index.
    pub(crate) fn finish(&mut self, output: &[f64], mut room: usize, lines: LineIndex) {
        let out_buf = self.out_buf.expect("a capture ledger names its output");
        self.store_starts.push(self.stores.len() as u32);
        let mut after = 0;
        for entry in self.tiles.iter_mut().rev() {
            entry.loaded_after = after;
            after |= entry.loaded;
        }
        // An output span is final when no later tile stores over any of
        // its elements; its values are then the golden output's.
        let mut later = vec![false; output.len()];
        for t in (0..self.tiles.len()).rev() {
            let (lo, hi) = (
                self.store_starts[t] as usize,
                self.store_starts[t + 1] as usize,
            );
            let range = |sp: &StoreSpan| sp.start as usize..(sp.start + sp.len) as usize;
            for sp in self.stores[lo..hi]
                .iter_mut()
                .filter(|sp| sp.buf == out_buf)
            {
                if !later[range(sp)].contains(&true) {
                    sp.journal = StoreSpan::FINAL;
                }
            }
            for sp in self.stores[lo..hi].iter().filter(|sp| sp.buf == out_buf) {
                later[range(sp)].fill(true);
            }
        }
        // Keep the journal of the spans that need one, tile after tile,
        // while it fits: from the first that does not, none.
        let mut kept = 0;
        for sp in self
            .stores
            .iter_mut()
            .filter(|sp| sp.journal != StoreSpan::FINAL)
        {
            let (at, len) = (sp.journal as usize, sp.len as usize);
            if sp.journal == StoreSpan::PRESUMED {
                // Presumed final, but a later tile stores over it.
                sp.journal = StoreSpan::NONE;
                continue;
            }
            if sp.journal == StoreSpan::NONE || (kept + len) * 8 > room {
                sp.journal = StoreSpan::NONE;
                room = 0;
                continue;
            }
            self.journal.copy_within(at..at + len, kept);
            sp.journal = kept as u32;
            kept += len;
        }
        self.journal.truncate(kept);
        self.journal.shrink_to_fit();
        for t in 0..self.tiles.len() {
            let (lo, hi) = (
                self.store_starts[t] as usize,
                self.store_starts[t + 1] as usize,
            );
            self.tiles[t].replayable = self.stores[lo..hi]
                .iter()
                .all(|sp| sp.journal != StoreSpan::NONE);
        }
        self.output = output.to_vec();
        self.lines = lines;
    }

    /// Bytes the journal holds.
    pub(crate) fn journal_bytes(&self) -> usize {
        self.journal.len() * 8
    }

    fn cost_bytes(&self) -> usize {
        self.tiles.len() * std::mem::size_of::<LedgerTile>()
            + self.stores.len() * std::mem::size_of::<StoreSpan>()
            + self.store_starts.len() * 4
            + self.journal_bytes()
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
    /// snapshots plus the golden ledger (one entry per tile and per store
    /// span, the store journal, a copy of the golden output and the line
    /// index).
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        self.bytes + self.ledger.cost_bytes()
    }

    /// Bytes of the golden store journal, part of
    /// [`SnapshotSet::cost_bytes`]: what the byte budget left after the
    /// snapshots, at most.
    #[must_use]
    pub fn journal_bytes(&self) -> usize {
        self.ledger.journal_bytes()
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
        assert!(set.resume_point(100).is_none());
    }

    #[test]
    fn cost_bytes_charges_snapshots_once_plus_span_index() {
        // `cost_bytes` = accumulated per-snapshot cost (each capture
        // charged exactly once at push time) + the ledger: its store
        // spans, their tile offsets, the journal and the line index.
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
        let span = |start, journal| StoreSpan {
            buf: BufferId(0),
            start,
            len: 8,
            at: start,
            journal,
        };
        with_spans.ledger = Arc::new(GoldenLedger {
            stores: vec![span(0, 0), span(8, StoreSpan::FINAL)],
            store_starts: vec![0, 1, 2],
            journal: vec![0.5; 8],
            lines: LineIndex::new(log, vec![2]),
            ..GoldenLedger::default()
        });
        // Two tile units, two 3-entry tile offset arrays, two accesses
        // (charged twice: the log and the touch sets derived from it) and
        // one flushed line.
        let index_bytes = (2 + 3 + 3) * 4 + 2 * 2 * 8 + 8;
        let ledger_bytes = 2 * std::mem::size_of::<StoreSpan>() + 3 * 4 + 8 * 8;
        assert_eq!(with_spans.journal_bytes(), 8 * 8);
        assert_eq!(
            with_spans.cost_bytes(),
            set.bytes + ledger_bytes + index_bytes
        );
    }

    /// A golden ledger built tile by tile: consecutive stores merge, each
    /// span's values at the end of its tile are journaled while they fit,
    /// and `finish` marks the output spans no later tile stores over
    /// final, drops their journal, cuts the rest to the room left after
    /// the snapshots — from the first span that does not fit, none — and
    /// marks the tiles whose every span is journaled or final replayable.
    /// Output spans stored before any tile loads the output are presumed
    /// final and never journaled.
    #[test]
    fn the_journal_holds_every_non_final_span_that_fits_tile_after_tile() {
        let mut mem = DeviceMemory::new();
        let state = mem.alloc_init("state", &[1.0; 16]);
        let out = mem.alloc_init("out", &[2.0; 16]);
        let stored = |buf: BufferId, start: usize, len: usize| {
            let at = if buf == out { 32 } else { 0 } + start;
            Stored {
                buf,
                start,
                len,
                at,
            }
        };
        // Tile 0 stores state[0..8] in two merging halves and out[0..8];
        // tile 1 out[8..16]; tile 2 state[8..16] and out[0..4] again.
        let tiles: [&[Stored]; 3] = [
            &[stored(state, 0, 4), stored(state, 4, 4), stored(out, 0, 8)],
            &[stored(out, 8, 8)],
            &[stored(state, 8, 8), stored(out, 0, 4)],
        ];
        // Tile 0 loads the output, unless `presume`.
        let tile = |t: usize, presume: bool| LedgerTile {
            loaded: if t == 0 && !presume { out.bit() } else { 0 },
            ..LedgerTile::default()
        };
        let build_with = |presume: bool, room_capture: usize, room: usize| {
            let mut g = GoldenLedger::new(out);
            for (t, spans) in tiles.iter().enumerate() {
                g.push_tile(tile(t, presume), spans.iter().copied(), &mem, room_capture)
                    .unwrap();
            }
            g.finish(&[2.0; 16], room, LineIndex::default());
            g
        };
        let build = |room_capture, room| build_with(false, room_capture, room);
        let g = build(usize::MAX, usize::MAX);
        let spans: Vec<_> = g.stores.iter().map(|s| (s.buf, s.start, s.len)).collect();
        assert_eq!(
            spans,
            [
                (state, 0, 8),
                (out, 0, 8),
                (out, 8, 8),
                (state, 8, 8),
                (out, 0, 4)
            ]
        );
        let journal: Vec<u32> = g.stores.iter().map(|s| s.journal).collect();
        let f = StoreSpan::FINAL;
        assert_eq!(journal, [0, 8, f, 16, f], "out[0..8] is stored over later");
        assert_eq!(g.journal_bytes(), 24 * 8);
        assert_eq!(g.golden_of(&g.stores[1]), Some(&[2.0; 8][..]));
        assert_eq!(g.golden_of(&g.stores[3]), Some(&[1.0; 8][..]));
        assert!(g.tiles.iter().all(|t| t.replayable));
        let out_spans: Vec<_> = g.spans_in(1..3).collect();
        assert_eq!(out_spans, [(8, 8), (0, 4)]);

        // Room for 20 elements: the first two spans fit, the third not.
        let cut = build(usize::MAX, 20 * 8);
        let journal: Vec<u32> = cut.stores.iter().map(|s| s.journal).collect();
        let n = StoreSpan::NONE;
        assert_eq!(journal, [0, 8, f, n, f]);
        assert_eq!(cut.journal_bytes(), 16 * 8);
        let replayable: Vec<bool> = cut.tiles.iter().map(|t| t.replayable).collect();
        assert_eq!(replayable, [true, true, false]);
        // A capture refused for want of room stops the journal there,
        // whatever room is left at the end.
        let refused = build(8 * 8, usize::MAX);
        let journal: Vec<u32> = refused.stores.iter().map(|s| s.journal).collect();
        assert_eq!(journal, [0, n, f, n, f]);
        assert_eq!(refused.journal_bytes(), 8 * 8);
        // A snapshot taken after tile 1 leaves room for 12 elements: the
        // cut keeps state[0..8], drops out[0..8], closes the journal and
        // shrinks its allocation to the room.
        let mut cut = GoldenLedger::new(out);
        for (t, spans) in tiles.iter().enumerate() {
            if t == 2 {
                cut.cut_journal(12 * 8);
                assert!(cut.journal.capacity() <= 12 && cut.journal.len() == 8);
            }
            cut.push_tile(tile(t, false), spans.iter().copied(), &mem, usize::MAX)
                .unwrap();
        }
        cut.finish(&[2.0; 16], usize::MAX, LineIndex::default());
        let journal: Vec<u32> = cut.stores.iter().map(|s| s.journal).collect();
        assert_eq!(journal, [0, n, f, n, f]);
        assert_eq!(cut.journal_bytes(), 8 * 8);
        // No tile loads the output: its spans are presumed final and copy
        // nothing; out[0..8], stored over later, has no golden values, and
        // the journal stays open for state[8..16].
        let presumed = build_with(true, usize::MAX, usize::MAX);
        let journal: Vec<u32> = presumed.stores.iter().map(|s| s.journal).collect();
        assert_eq!(journal, [0, n, f, 8, f]);
        assert_eq!(presumed.journal_bytes(), 16 * 8);
        let replayable: Vec<bool> = presumed.tiles.iter().map(|t| t.replayable).collect();
        assert_eq!(replayable, [false, true, true]);
    }

    #[test]
    fn resume_tile_matches_resume_point() {
        let mut set = SnapshotSet::default();
        for t in [2, 8, 16] {
            assert!(set.push(snap(t), usize::MAX));
        }
        assert_eq!(set.resume_point(0).map(|s| s.at_tile), None);
        assert_eq!(set.resume_point(2).map(|s| s.at_tile), Some(2));
        assert_eq!(set.resume_point(9).map(|s| s.at_tile), Some(8));
        assert_eq!(set.resume_point(100).map(|s| s.at_tile), Some(16));
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
        let span = |buf, start| StoreSpan {
            buf: BufferId(buf),
            start,
            len: 8,
            at: start,
            journal: StoreSpan::FINAL,
        };
        let ledger = GoldenLedger {
            stores: vec![span(1, 0), span(1, 8), span(0, 0), span(1, 24)],
            store_starts: vec![0, 1, 3, 3, 4],
            out_buf: Some(BufferId(1)),
            ..GoldenLedger::default()
        };
        let from1: Vec<_> = ledger.spans_in(1..usize::MAX).collect();
        assert_eq!(from1, vec![(8, 8), (24, 8)]);
        assert_eq!(ledger.spans_in(4..usize::MAX).count(), 0);
        let upto3: Vec<_> = ledger.spans_in(1..3).collect();
        assert_eq!(upto3, vec![(8, 8)]);
    }
}
