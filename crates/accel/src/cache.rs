//! Functional, fault-injectable cache hierarchy.
//!
//! The hierarchy carries **corruption state**, not a duplicate of the
//! data: backing DRAM (which the beam cannot reach, §IV-D) stays clean,
//! and a strike records XOR masks against elements of a *resident* line.
//! Readers observe the masks only while the line stays resident at some
//! level; what happens on eviction follows real write-policy semantics:
//!
//! * **L1 is write-through** (as on Kepler): an L1 line is never dirty, so
//!   evicting a corrupted L1 line silently discards the corruption — the
//!   next miss refetches clean data from L2/DRAM.
//! * **L2 is write-back**: evicting a corrupted line that is *dirty*
//!   (the program stored to it since it was filled) writes the corrupted
//!   bits back to DRAM, making the corruption permanent; evicting a clean
//!   corrupted line discards it.
//!
//! This is the mechanism behind the paper's core observation (§V-E): the
//! Phi's 28.5 MB coherent L2 keeps struck lines resident for most of a
//! kernel, so "corrupted data, once in the caches, will be used by more
//! elements before eviction", while the K40's 1.5 MB L2 evicts quickly and
//! isolates the strike.

use std::collections::HashMap;
use std::sync::Arc;

use radcrit_core::exec::{self, KernelExecutor};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::DeviceConfig;
use crate::error::AccelError;
use crate::snapshot::{FlipEnd, GoldenLedger, LedgerTile};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheGeometry {
    /// Creates a geometry, validating divisibility.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if any parameter is zero or
    /// the capacity is not an integral number of sets of `associativity`
    /// lines.
    pub fn new(
        size_bytes: usize,
        line_bytes: usize,
        associativity: usize,
    ) -> Result<Self, AccelError> {
        if size_bytes == 0 || line_bytes == 0 || associativity == 0 {
            return Err(AccelError::InvalidConfig(
                "cache geometry parameters must be non-zero".into(),
            ));
        }
        if !line_bytes.is_multiple_of(8) {
            return Err(AccelError::InvalidConfig(format!(
                "line size {line_bytes} must hold whole f64 elements"
            )));
        }
        let way_bytes = line_bytes * associativity;
        if !size_bytes.is_multiple_of(way_bytes) {
            return Err(AccelError::InvalidConfig(format!(
                "cache size {size_bytes} is not a whole number of {associativity}-way sets \
                 of {line_bytes}-byte lines"
            )));
        }
        Ok(CacheGeometry {
            size_bytes,
            line_bytes,
            associativity,
        })
    }

    /// Number of sets.
    fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.associativity)
    }
}

/// A corrupted bit pattern pending on one element of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flip {
    /// Byte offset of the element within the line (multiple of 8).
    offset: usize,
    /// XOR mask over the element's 64 bits.
    mask: u64,
}

/// Heap bytes one resident way occupies in the approximate accounting
/// (`line` + `last_use` + padded `dirty`, the fields of the former
/// per-entry struct); also used for the per-set header so snapshot
/// charges stay comparable across layout changes.
const WAY_ACCT_BYTES: usize = 24;

/// Corrupted data leaving the hierarchy towards DRAM (write-back of a
/// dirty corrupted line) — the engine applies these masks permanently to
/// backing memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBack {
    /// Flat byte address of the corrupted element.
    pub byte_addr: usize,
    /// XOR mask to fold into the element.
    pub mask: u64,
}

/// Where a strike landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrikeInfo {
    /// Flat byte address of the corrupted element.
    pub byte_addr: usize,
    /// The XOR mask injected.
    pub mask: u64,
}

/// Strength-reduced `x % d` for a divisor fixed at construction
/// (Lemire's fastmod, exact for 32-bit operands): two multiplies
/// instead of a hardware divide, which would otherwise dominate the
/// per-access cost of set indexing. Operands outside 32 bits (absurd
/// line numbers or set counts) fall back to the plain remainder.
#[derive(Debug, Clone, Copy)]
struct FastMod {
    d: u64,
    m: u64,
}

impl FastMod {
    fn new(d: u64) -> Self {
        debug_assert!(d > 0);
        let m = if d > 1 && d >> 32 == 0 {
            u64::MAX / d + 1
        } else {
            0 // d == 1 (`x % 1` is free) or oversized: plain remainder
        };
        FastMod { d, m }
    }

    #[inline(always)]
    fn rem(&self, x: u64) -> u64 {
        if x >> 32 != 0 || self.m == 0 {
            return x % self.d;
        }
        let low = self.m.wrapping_mul(x);
        ((low as u128 * self.d as u128) >> 64) as u64
    }
}

/// Tag value of an unoccupied way slot. Real line numbers are byte
/// addresses divided by the line size, far below `u64::MAX`, so the
/// sentinel can never match a probed line — which lets the hit scan
/// cover the full associativity width branchlessly instead of only the
/// occupied prefix.
const VACANT: u64 = u64::MAX;

/// One 64-byte-aligned chunk of the per-set tag/use slab. The alignment
/// guarantees a 4-way set's entire hot state (4 tags + 4 use ticks =
/// 64 bytes) occupies exactly one host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct SetBlock([u64; 8]);

/// One set-associative, LRU cache with corruption tracking.
///
/// The tag and LRU state lives in one flat slab of 64-byte-aligned
/// blocks, laid out per set as `[assoc tags][assoc use-ticks]` (padded
/// to a whole number of blocks): a touch — tag scan plus LRU update —
/// stays within one host cache line for a 4-way set instead of hitting
/// separate tag and use slabs. Vacant slots hold the [`VACANT`] tag and
/// use-tick 0; the hit scan compares a contiguous, fixed-width run of
/// `u64` tags — which vectorizes — and snapshot restores are flat
/// `clone_from`s. Slot order within a set mirrors `Vec` semantics
/// exactly (push appends, eviction swap-removes), so LRU victims,
/// strike sampling order and flush order are unchanged.
#[derive(Debug, Clone)]
struct SetAssocCache {
    geom: CacheGeometry,
    assoc: usize,
    /// `u64`s per set in `slab`: `2 * assoc` rounded up to a block.
    stride: usize,
    slab: Vec<SetBlock>,
    dirty: Vec<u8>,
    lens: Vec<u32>,
    set_mod: FastMod,
    flips: HashMap<u64, Vec<Flip>>,
    tick: u64,
    hits: u64,
    misses: u64,
    resident: usize,
    track_dirty: bool,
}

/// Slab `u64`s per set for an associativity: tags + use ticks, padded
/// to whole 64-byte blocks.
#[inline(always)]
const fn set_stride(assoc: usize) -> usize {
    (2 * assoc).next_multiple_of(8)
}

/// Resets a tag/use slab to all-vacant: every tag [`VACANT`], every use
/// tick (and padding) 0 — the state the miss path's combined
/// vacancy/LRU scan expects of an empty set.
fn fill_vacant(slab: &mut [SetBlock], sets: usize, stride: usize, assoc: usize) {
    for b in slab.iter_mut() {
        b.0 = [0; 8];
    }
    // Safety: as in `SetAssocCache::slab_u64`.
    let u64s =
        unsafe { std::slice::from_raw_parts_mut(slab.as_mut_ptr().cast::<u64>(), slab.len() * 8) };
    for set in 0..sets {
        u64s[set * stride..set * stride + assoc].fill(VACANT);
    }
}

impl SetAssocCache {
    fn new(geom: CacheGeometry, track_dirty: bool) -> Self {
        let assoc = geom.associativity;
        let stride = set_stride(assoc);
        let mut slab = vec![SetBlock([0; 8]); geom.sets() * stride / 8];
        fill_vacant(&mut slab, geom.sets(), stride, assoc);
        SetAssocCache {
            geom,
            assoc,
            stride,
            slab,
            dirty: vec![0; geom.sets() * assoc],
            lens: vec![0; geom.sets()],
            set_mod: FastMod::new(geom.sets() as u64),
            flips: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            resident: 0,
            track_dirty,
        }
    }

    /// The slab viewed as flat `u64`s: set `s`'s tags at `[s * stride,
    /// s * stride + assoc)`, its use ticks at `assoc` past that.
    #[inline(always)]
    fn slab_u64(&self) -> &[u64] {
        // Safety: `SetBlock` is a transparent-enough array of 8 u64s
        // (align 64 ≥ align 8), so the reinterpretation is sound.
        unsafe { std::slice::from_raw_parts(self.slab.as_ptr().cast::<u64>(), self.slab.len() * 8) }
    }

    /// Mutable counterpart of [`SetAssocCache::slab_u64`].
    #[inline(always)]
    fn slab_u64_mut(&mut self) -> &mut [u64] {
        // Safety: as in `slab_u64`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.slab.as_mut_ptr().cast::<u64>(),
                self.slab.len() * 8,
            )
        }
    }

    #[inline(always)]
    fn set_of(&self, line: u64) -> usize {
        self.set_mod.rem(line) as usize
    }

    /// Approximate heap bytes of the current state, for snapshot byte
    /// accounting. Counts per-set headers, resident ways and pending
    /// flips (not slab capacity), mirroring the former per-set-`Vec`
    /// accounting so snapshot budgets behave identically.
    fn approx_heap_bytes(&self) -> usize {
        let flips: usize = self
            .flips
            .values()
            .map(|v| 48 + v.len() * std::mem::size_of::<Flip>())
            .sum();
        (self.lens.len() + self.resident) * WAY_ACCT_BYTES + flips
    }

    /// Makes `self` state-identical to `src`, reusing existing heap
    /// allocations (`Vec::clone_from` keeps buffers, `HashMap` keeps its
    /// table) — the hot path of snapshot resume, where a fresh `clone`
    /// per injection would re-allocate every slab.
    fn restore_from(&mut self, src: &SetAssocCache) {
        self.geom = src.geom;
        self.assoc = src.assoc;
        self.stride = src.stride;
        self.set_mod = src.set_mod;
        self.slab.clone_from(&src.slab);
        self.dirty.clone_from(&src.dirty);
        self.lens.clone_from(&src.lens);
        self.flips.clone_from(&src.flips);
        self.tick = src.tick;
        self.hits = src.hits;
        self.misses = src.misses;
        self.resident = src.resident;
        self.track_dirty = src.track_dirty;
    }

    /// Touches `line`; returns the evicted line's `(line, dirty, flips)`
    /// if an eviction happened.
    ///
    /// Generic over the [`KernelExecutor`] backend so the tag scan and
    /// LRU victim scan inline, through [`CacheHierarchy::access_into`],
    /// into the ISA-specific bodies of `TileCtx::load_rows` and
    /// `TileCtx::store` — dispatch happens once per bulk access, not
    /// once per line touch. Dispatches the associativities the paper
    /// devices actually use (4/8/16-way) to a const-width body: the tag
    /// scan and LRU victim pick then fully unroll, with no
    /// data-dependent trip counts left on the per-line hot path.
    #[inline(always)]
    fn touch<E: KernelExecutor>(
        &mut self,
        line: u64,
        write: bool,
    ) -> Option<(u64, bool, Vec<Flip>)> {
        match self.assoc {
            4 => self.touch_impl::<E, 4>(line, write),
            8 => self.touch_impl::<E, 8>(line, write),
            16 => self.touch_impl::<E, 16>(line, write),
            _ => self.touch_impl::<E, 0>(line, write),
        }
    }

    /// [`SetAssocCache::touch`] body, const-specialized per width.
    /// `A` is the set associativity, or 0 to read it at runtime (the
    /// fallback for unusual test geometries).
    #[inline(always)]
    fn touch_impl<E: KernelExecutor, const A: usize>(
        &mut self,
        line: u64,
        write: bool,
    ) -> Option<(u64, bool, Vec<Flip>)> {
        debug_assert_ne!(line, VACANT);
        debug_assert!(A == 0 || A == self.assoc);
        let assoc = if A == 0 { self.assoc } else { A };
        let stride = if A == 0 { self.stride } else { set_stride(A) };
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        // Tags at `tbase`, use ticks right behind them — one host
        // cache line covers both for a 4-way set.
        let tbase = set * stride;
        let ubase = tbase + assoc;
        debug_assert!(ubase + assoc <= self.slab.len() * 8);

        // Full-width tag scan on the SIMD execution core: vacant slots
        // hold `VACANT` and never match, so the scan covers all `assoc`
        // slots with no data-dependent trip count. Tags are unique
        // within a set, so at most one matches.
        //
        // Safety: `set_of` returns a value below `sets()` and the slab
        // holds `sets() * stride` u64s with `2 * assoc <= stride`, so
        // `[tbase, ubase + assoc)` is in bounds; `set * assoc + assoc`
        // is likewise in bounds for `dirty`.
        let tags = unsafe { self.slab_u64().get_unchecked(tbase..tbase + assoc) };
        if let Some(found) = E::find_u64(tags, line) {
            unsafe {
                *self.slab_u64_mut().get_unchecked_mut(ubase + found) = tick;
                if write && self.track_dirty {
                    *self.dirty.get_unchecked_mut(set * assoc + found) = 1;
                }
            }
            self.hits += 1;
            return None;
        }

        self.miss_fill::<E, A>(line, set, tick, write)
    }

    /// The fill half of [`SetAssocCache::touch`]: fill on a miss,
    /// evicting the LRU way of a full set. Inlined into the access
    /// loop alongside the hit scan: on streaming workloads (DGEMM row
    /// loads have no intra-tile line reuse) the private L1s miss on
    /// ~97% of touches, so the fill path IS the hot path and an
    /// out-of-line call here costs a full spill per access. `A` as in
    /// [`SetAssocCache::touch_impl`].
    #[inline(always)]
    fn miss_fill<E: KernelExecutor, const A: usize>(
        &mut self,
        line: u64,
        set: usize,
        tick: u64,
        write: bool,
    ) -> Option<(u64, bool, Vec<Flip>)> {
        let assoc = if A == 0 { self.assoc } else { A };
        let stride = if A == 0 { self.stride } else { set_stride(A) };
        let tbase = set * stride;
        let ubase = tbase + assoc;
        let dbase = set * assoc;
        self.misses += 1;
        // One full-width scan answers both questions: occupied ways
        // hold ticks >= 1 and vacant ways hold 0, so the minimum is a
        // vacant slot when the set has room (the FIRST vacant slot —
        // occupancy is a prefix and ties resolve to the lowest index)
        // and the unique LRU way when it is full. The occupancy slab
        // (`lens`) stays off the miss path entirely; it is only
        // written on fills, which stop once the cache warms up.
        //
        // Safety (all unchecked slab accesses below): in bounds as in
        // `touch_impl`, and `set < sets == lens.len()`.
        let victim =
            unsafe { E::min_index_u64(self.slab_u64().get_unchecked(ubase..ubase + assoc)) };
        debug_assert!(victim < assoc);
        let v_use = unsafe { *self.slab_u64().get_unchecked(ubase + victim) };
        let mut evicted = None;
        let slot;
        if v_use != 0 {
            // Full set: evict the LRU way (`last_use` ticks are unique,
            // so the minimum is the one LRU way regardless of order).
            let (v_line, v_dirty, last) = unsafe {
                let slab = self.slab_u64_mut();
                let v_line = *slab.get_unchecked(tbase + victim);
                // Mirror `Vec::swap_remove` + `push`: the last way
                // moves into the victim slot, the new line lands last.
                let last = assoc - 1;
                *slab.get_unchecked_mut(tbase + victim) = *slab.get_unchecked(tbase + last);
                *slab.get_unchecked_mut(ubase + victim) = *slab.get_unchecked(ubase + last);
                // Write-through levels never set dirty bits; skipping
                // the slab keeps the miss path off that cache line.
                let v_dirty = self.track_dirty && *self.dirty.get_unchecked(dbase + victim) != 0;
                if self.track_dirty {
                    *self.dirty.get_unchecked_mut(dbase + victim) =
                        *self.dirty.get_unchecked(dbase + last);
                }
                (v_line, v_dirty, last)
            };
            // Strikes are rare: skip the hash lookup entirely while no
            // corruption is pending anywhere in this cache.
            let flips = if self.flips.is_empty() {
                Vec::new()
            } else {
                self.flips.remove(&v_line).unwrap_or_default()
            };
            slot = last;
            evicted = Some((v_line, v_dirty, flips));
        } else {
            // Room left: the victim scan found the first vacant slot,
            // which is exactly where the append-order fill goes.
            self.resident += 1;
            unsafe {
                let len = self.lens.get_unchecked_mut(set);
                debug_assert_eq!(*len as usize, victim);
                *len += 1;
            }
            slot = victim;
        }
        unsafe {
            let slab = self.slab_u64_mut();
            *slab.get_unchecked_mut(tbase + slot) = line;
            *slab.get_unchecked_mut(ubase + slot) = tick;
            if self.track_dirty {
                *self.dirty.get_unchecked_mut(dbase + slot) = (write && self.track_dirty) as u8;
            }
        }
        evicted
    }

    fn is_resident(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.stride;
        // Vacant slots hold `VACANT` and can never match.
        exec::find_u64(&self.slab_u64()[base..base + self.assoc], line).is_some()
    }

    fn resident_count(&self) -> usize {
        self.resident
    }

    /// Whether resident `line` is dirty (`false` when not resident).
    fn is_dirty(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.stride;
        exec::find_u64(&self.slab_u64()[base..base + self.assoc], line)
            .is_some_and(|w| self.dirty[set * self.assoc + w] != 0)
    }

    fn add_flip(&mut self, line: u64, offset: usize, mask: u64) {
        let entry = self.flips.entry(line).or_default();
        if let Some(f) = entry.iter_mut().find(|f| f.offset == offset) {
            f.mask ^= mask;
            if f.mask == 0 {
                entry.retain(|f| f.mask != 0);
            }
        } else {
            entry.push(Flip { offset, mask });
        }
        if self.flips.get(&line).is_some_and(Vec::is_empty) {
            self.flips.remove(&line);
        }
    }

    fn corruption_at(&self, line: u64, offset: usize) -> u64 {
        if !self.is_resident(line) {
            return 0;
        }
        self.flips
            .get(&line)
            .map(|v| {
                v.iter()
                    .filter(|f| f.offset == offset)
                    .fold(0u64, |acc, f| acc ^ f.mask)
            })
            .unwrap_or(0)
    }

    fn clear_flip_at(&mut self, line: u64, offset: usize) {
        if let Some(v) = self.flips.get_mut(&line) {
            v.retain(|f| f.offset != offset);
            if v.is_empty() {
                self.flips.remove(&line);
            }
        }
    }

    /// Picks a uniformly random resident line, or `None` when empty.
    fn sample_resident<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<u64> {
        let total = self.resident_count();
        if total == 0 {
            return None;
        }
        let mut target = rng.gen_range(0..total);
        for (set, &len) in self.lens.iter().enumerate() {
            let len = len as usize;
            if target < len {
                return Some(self.slab_u64()[set * self.stride + target]);
            }
            target -= len;
        }
        unreachable!("resident count covered all sets")
    }

    /// Drains all resident lines, returning the corruption-carrying
    /// ones as `(line, dirty, flips)`. Uncorrupted lines drain silently:
    /// writing their bytes back would only re-write what backing memory
    /// already holds, so walking every resident line (tens of thousands
    /// in a warm L2) per run-final flush would be pure overhead. A flip
    /// only ever targets a resident line (eviction removes it with the
    /// line), so the flip table is exactly the corrupted-resident set.
    /// Lines are returned in ascending order for determinism.
    fn flush(&mut self) -> Vec<(u64, bool, Vec<Flip>)> {
        let mut out = Vec::new();
        if !self.flips.is_empty() {
            let mut entries: Vec<_> = std::mem::take(&mut self.flips).into_iter().collect();
            entries.sort_unstable_by_key(|&(line, _)| line);
            for (line, flips) in entries {
                let set = self.set_of(line);
                let base = set * self.stride;
                if let Some(w) = exec::find_u64(&self.slab_u64()[base..base + self.assoc], line) {
                    out.push((line, self.dirty[set * self.assoc + w] != 0, flips));
                }
            }
        }
        let (sets, stride, assoc) = (self.lens.len(), self.stride, self.assoc);
        fill_vacant(&mut self.slab, sets, stride, assoc);
        self.lens.fill(0);
        self.resident = 0;
        out
    }
}

/// Cache access statistics for the execution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// L1 hits summed over units.
    pub l1_hits: u64,
    /// L1 misses summed over units.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Lines resident in L2 right now.
    pub l2_resident_lines: usize,
}

impl CacheStats {
    /// The hits and misses since `before`, with the residency now.
    pub(crate) fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            l1_hits: self.l1_hits - before.l1_hits,
            l1_misses: self.l1_misses - before.l1_misses,
            l2_hits: self.l2_hits - before.l2_hits,
            l2_misses: self.l2_misses - before.l2_misses,
            l2_resident_lines: self.l2_resident_lines,
        }
    }

    /// Adds one tile's hit and miss deltas.
    pub(crate) fn add_deltas(&mut self, d: &CacheStats) {
        self.l1_hits += d.l1_hits;
        self.l1_misses += d.l1_misses;
        self.l2_hits += d.l2_hits;
        self.l2_misses += d.l2_misses;
    }
}

/// An L2 eviction as the golden line log records it: the dispatch
/// position of the tile during which it happened, the touch ordinal
/// within that tile (line touches counted from 0, one per line an access
/// spans), and the line's dirty bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Eviction {
    pub(crate) tile: u32,
    pub(crate) ordinal: u32,
    pub(crate) dirty: bool,
}

/// Access log of a golden run, recorded while `Engine::golden_snapshotted`
/// captures (never on a fork): each tile's unit, the line range of each
/// of its accesses, and when its L1 and the L2 evict a line. Appends
/// only — the ledger's `LineIndex` derives everything else when a fork
/// first needs it.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineLog {
    /// Dispatch position of the tile now executing.
    tile: u32,
    /// Line touches of that tile so far.
    ordinal: u32,
    /// Per tile: its unit, and where its accesses and L1 evictions
    /// start in the logs below.
    pub(crate) units: Vec<u32>,
    pub(crate) access_starts: Vec<u32>,
    pub(crate) l1_starts: Vec<u32>,
    /// Accesses as `(first line, last line)`, tile after tile, the last
    /// line of a store or-ed with [`LineLog::WRITE`].
    pub(crate) accesses: Vec<(u32, u32)>,
    /// L1 evictions as `(line, touch ordinal)`, tile after tile.
    pub(crate) l1_evictions: Vec<(u32, u32)>,
    /// L2 evictions as `(line, eviction)`, in execution order.
    pub(crate) l2_evictions: Vec<(u32, Eviction)>,
}

impl LineLog {
    /// The flag of a store in an access's last line.
    pub(crate) const WRITE: u32 = 1 << 31;

    /// Starts logging the tile at dispatch position `pos`, run by `unit`.
    pub(crate) fn begin_tile(&mut self, pos: usize, unit: usize) {
        self.tile = pos as u32;
        self.ordinal = 0;
        self.units.resize(pos + 1, unit as u32);
        self.access_starts
            .resize(pos + 1, self.accesses.len() as u32);
        self.l1_starts
            .resize(pos + 1, self.l1_evictions.len() as u32);
    }
}

/// A pending flip's line as [`CacheHierarchy::flip_lines`] reports it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FlipLine {
    pub(crate) line: u64,
    /// `None` for a unit's L1, else the L2 line's dirty bit.
    pub(crate) l2_dirty: Option<bool>,
}

/// The per-device cache hierarchy: one private L1 per unit plus a shared
/// L2 (the Phi's per-core L2s are coherent over the ring and act as one
/// shared structure, §IV-A).
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    line_bytes: usize,
    /// `log2(line_bytes)` when the line size is a power of two (both
    /// paper devices), letting [`CacheHierarchy::line_of`] shift instead
    /// of divide on the per-access hot path.
    line_shift: Option<u32>,
    /// Lines that have ever been struck this run. Strikes are rare (at
    /// most one per execution, §IV-D), so a linear scan of this tiny list
    /// is the fast path that lets bulk loads skip per-element corruption
    /// lookups entirely. Entries are conservative: they are not removed on
    /// eviction, only ever added.
    corrupted_watch: Vec<u64>,
    /// Whether corruption has ever *escaped* the flip tables this run:
    /// a load observed a non-zero mask, or a dirty corrupted line wrote
    /// back to DRAM mid-run. While this is `false` and no flips are
    /// pending, every executed tile has computed exactly the golden
    /// values — the basis for the engine's dead-strike early exit.
    pub(crate) corruption_touched: bool,
    /// The golden line log, present only while a capturing golden run
    /// records it (see [`LineLog`]); never part of a snapshot.
    pub(crate) history: Option<Box<LineLog>>,
}

impl CacheHierarchy {
    /// Builds the hierarchy for a device configuration.
    ///
    /// L1 and L2 share the device's line size (the larger of the two
    /// configured line sizes is used for both levels to keep line
    /// addressing uniform; both paper devices use a single line size per
    /// level anyway).
    pub fn new(cfg: &DeviceConfig) -> Self {
        let line_bytes = Self::line_bytes_of(cfg);
        let l1_geom = CacheGeometry::new(cfg.l1().size_bytes, line_bytes, cfg.l1().associativity)
            .unwrap_or_else(|_| cfg.l1());
        let l2_geom = CacheGeometry::new(cfg.l2().size_bytes, line_bytes, cfg.l2().associativity)
            .unwrap_or_else(|_| cfg.l2());
        CacheHierarchy {
            l1: (0..cfg.units())
                .map(|_| SetAssocCache::new(l1_geom, false))
                .collect(),
            l2: SetAssocCache::new(l2_geom, true),
            line_bytes,
            line_shift: line_bytes
                .is_power_of_two()
                .then(|| line_bytes.trailing_zeros()),
            corrupted_watch: Vec::new(),
            corruption_touched: false,
            history: None,
        }
    }

    /// The uniform line size of `cfg`'s hierarchy.
    pub(crate) fn line_bytes_of(cfg: &DeviceConfig) -> usize {
        cfg.l1().line_bytes.max(cfg.l2().line_bytes)
    }

    /// A copy of the machine state for a snapshot: everything but the
    /// golden line history being recorded.
    pub(crate) fn clone_state(&mut self) -> CacheHierarchy {
        let history = self.history.take();
        let state = self.clone();
        self.history = history;
        state
    }

    /// Whether a load has ever observed a corrupted value or a corrupted
    /// dirty line has written back to DRAM this run. See the field doc.
    pub fn corruption_touched(&self) -> bool {
        self.corruption_touched
    }

    /// Element-index ranges of the access span `[byte_addr, byte_addr +
    /// len)` (8-byte elements, `byte_addr` element-aligned) that lie on
    /// ever-struck lines, into `out` (cleared first, so per-row scans
    /// reuse one allocation). Everything outside the ranges is
    /// guaranteed corruption-free, so bulk accesses only pay per-element
    /// corruption checks on the handful of elements sharing a line with
    /// a strike — the watch list holds at most one entry per strike.
    pub fn corrupted_ranges_into(
        &self,
        byte_addr: usize,
        len: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        if self.corrupted_watch.is_empty() || len == 0 {
            return;
        }
        let end = byte_addr + len;
        for &line in &self.corrupted_watch {
            let line_start = line as usize * self.line_bytes;
            let lo = line_start.max(byte_addr);
            let hi = (line_start + self.line_bytes).min(end);
            if lo < hi {
                out.push(((lo - byte_addr) / 8, (hi - byte_addr).div_ceil(8)));
            }
        }
    }

    /// The uniform line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Approximate heap footprint of the hierarchy's current state, used
    /// to account a cloned hierarchy against a snapshot byte budget.
    pub(crate) fn approx_heap_bytes(&self) -> usize {
        self.l1
            .iter()
            .map(SetAssocCache::approx_heap_bytes)
            .sum::<usize>()
            + self.l2.approx_heap_bytes()
            + self.corrupted_watch.len() * 8
    }

    /// Makes `self` state-identical to `src`, reusing heap allocations
    /// where layouts agree (see [`SetAssocCache::restore_from`]).
    pub(crate) fn restore_from(&mut self, src: &CacheHierarchy) {
        if self.l1.len() == src.l1.len() {
            for (dst, s) in self.l1.iter_mut().zip(&src.l1) {
                dst.restore_from(s);
            }
        } else {
            self.l1.clone_from(&src.l1);
        }
        self.l2.restore_from(&src.l2);
        self.line_bytes = src.line_bytes;
        self.line_shift = src.line_shift;
        self.corrupted_watch.clone_from(&src.corrupted_watch);
        self.corruption_touched = src.corruption_touched;
    }

    #[inline(always)]
    fn line_of(&self, byte_addr: usize) -> u64 {
        match self.line_shift {
            Some(s) => (byte_addr >> s) as u64,
            None => (byte_addr / self.line_bytes) as u64,
        }
    }

    /// Touches every line overlapping `[byte_addr, byte_addr + len)` from
    /// `unit`, with `write` marking L2 lines dirty, and appends to `out`
    /// the corrupted write-backs its evictions cause (apply them to
    /// backing memory). Generic over the executor so the caller's one
    /// ISA dispatch covers every line touch.
    #[inline(always)]
    pub(crate) fn access_into<E: KernelExecutor>(
        &mut self,
        unit: usize,
        byte_addr: usize,
        len: usize,
        write: bool,
        out: &mut Vec<WriteBack>,
    ) {
        if len == 0 {
            return;
        }
        let first = self.line_of(byte_addr);
        let last = self.line_of(byte_addr + len - 1);
        if let Some(mut h) = self.history.take() {
            // Golden capture: the same touches, logged.
            let flag = if write { LineLog::WRITE } else { 0 };
            h.accesses.push((first as u32, last as u32 | flag));
            for line in first..=last {
                if let Some((ev_line, _, _)) = self.l1[unit].touch::<E>(line, false) {
                    h.l1_evictions.push((ev_line as u32, h.ordinal));
                }
                if let Some((ev_line, dirty, flips)) = self.l2.touch::<E>(line, write) {
                    let e = Eviction {
                        tile: h.tile,
                        ordinal: h.ordinal,
                        dirty,
                    };
                    h.l2_evictions.push((ev_line as u32, e));
                    self.write_back_line(ev_line, dirty, flips, out);
                }
                h.ordinal += 1;
            }
            self.history = Some(h);
            return;
        }
        for line in first..=last {
            // L1: write-through, never dirty; corrupted evictions vanish.
            let _ = self.l1[unit].touch::<E>(line, false);
            if let Some((ev_line, dirty, flips)) = self.l2.touch::<E>(line, write) {
                self.write_back_line(ev_line, dirty, flips, out);
            }
        }
    }

    /// The L2's resident dirty lines, ascending: the golden line log's
    /// record of which lines the final flush writes back.
    pub(crate) fn l2_dirty_lines(&self) -> Vec<u64> {
        let l2 = &self.l2;
        let slab = l2.slab_u64();
        let mut out: Vec<u64> = (0..l2.lens.len())
            .flat_map(|set| (0..l2.lens[set] as usize).map(move |w| (set, w)))
            .filter(|&(set, w)| l2.dirty[set * l2.assoc + w] != 0)
            .map(|(set, w)| slab[set * l2.stride + w])
            .collect();
        out.sort_unstable();
        out
    }

    /// The write-backs of an L2 line leaving the hierarchy (evicted or
    /// flushed): a dirty line's flips reach DRAM, a clean line's vanish.
    fn write_back_line(&self, line: u64, dirty: bool, flips: Vec<Flip>, out: &mut Vec<WriteBack>) {
        if dirty {
            out.extend(flips.into_iter().map(|f| WriteBack {
                byte_addr: line as usize * self.line_bytes + f.offset,
                mask: f.mask,
            }));
        }
    }

    /// Notes a program write to the element at `byte_addr`: the stored
    /// value supersedes any pending corruption of that element at every
    /// level.
    pub fn note_element_write(&mut self, unit: usize, byte_addr: usize) {
        let line = self.line_of(byte_addr);
        let offset = byte_addr % self.line_bytes;
        self.l1[unit].clear_flip_at(line, offset);
        self.l2.clear_flip_at(line, offset);
    }

    /// The XOR mask a read from `unit` of the element at `byte_addr`
    /// currently observes (0 when uncorrupted). Combines corruption
    /// pending at the unit's L1 and at the shared L2.
    pub fn corruption_for(&self, unit: usize, byte_addr: usize) -> u64 {
        let line = self.line_of(byte_addr);
        let offset = byte_addr % self.line_bytes;
        self.l1[unit].corruption_at(line, offset) ^ self.l2.corruption_at(line, offset)
    }

    /// Whether any corruption is currently pending anywhere.
    ///
    /// The watch list is a superset of ever-struck lines and strikes
    /// are the only way flips enter the hierarchy, so an empty watch
    /// list answers in O(1) — the common case on golden runs and on
    /// every faulty run before its strike lands, where this gate runs
    /// once per bulk load/store.
    pub fn has_pending_corruption(&self) -> bool {
        if self.corrupted_watch.is_empty() {
            return false;
        }
        !self.l2.flips.is_empty() || self.l1.iter().any(|c| !c.flips.is_empty())
    }

    /// Every line holding a pending flip, per level (a line flipped in
    /// both an L1 and the L2 appears once per level).
    pub(crate) fn flip_lines(&self) -> impl Iterator<Item = FlipLine> + '_ {
        let l1 = self.l1.iter().flat_map(|c| {
            c.flips.keys().map(|&line| FlipLine {
                line,
                l2_dirty: None,
            })
        });
        let l2 = self.l2.flips.keys().map(|&line| FlipLine {
            line,
            l2_dirty: Some(self.l2.is_dirty(line)),
        });
        l1.chain(l2)
    }

    /// Strikes a random resident L2 line: flips `bits` in one element of
    /// the line. Returns `None` when the L2 is empty (strike hits an
    /// invalid line — architecturally masked).
    pub fn strike_l2<R: Rng + ?Sized>(&mut self, rng: &mut R, mask: u64) -> Option<StrikeInfo> {
        self.strike(None, rng, mask)
    }

    /// The line and byte offset a strike on `l1_unit`'s L1 (the L2 when
    /// `None`) flips: a uniformly random resident line, then a random
    /// element of it — `None` when the cache is empty. Read-only, so the
    /// per-access model and a value-only fork's [`Overlay`] draw alike.
    pub(crate) fn sample_strike<R: Rng + ?Sized>(
        &self,
        l1_unit: Option<usize>,
        rng: &mut R,
    ) -> Option<(u64, usize)> {
        let cache = match l1_unit {
            Some(unit) => &self.l1[unit],
            None => &self.l2,
        };
        let line = cache.sample_resident(rng)?;
        Some((line, rng.gen_range(0..self.line_bytes / 8) * 8))
    }

    /// Flips `mask` in one random element of a random resident line of
    /// `l1_unit`'s L1, or of the L2 when `None`.
    pub(crate) fn strike<R: Rng + ?Sized>(
        &mut self,
        l1_unit: Option<usize>,
        rng: &mut R,
        mask: u64,
    ) -> Option<StrikeInfo> {
        let (line, offset) = self.sample_strike(l1_unit, rng)?;
        let cache = match l1_unit {
            Some(unit) => &mut self.l1[unit],
            None => &mut self.l2,
        };
        cache.add_flip(line, offset, mask);
        if !self.corrupted_watch.contains(&line) {
            self.corrupted_watch.push(line);
        }
        Some(StrikeInfo {
            byte_addr: line as usize * self.line_bytes + offset,
            mask,
        })
    }

    /// Flushes everything (end of kernel): dirty corrupted L2 lines write
    /// their corruption back to DRAM.
    pub fn flush(&mut self) -> Vec<WriteBack> {
        for l1 in &mut self.l1 {
            let _ = l1.flush(); // write-through: nothing to write back
        }
        let mut out = Vec::new();
        for (line, dirty, flips) in self.l2.flush() {
            self.write_back_line(line, dirty, flips, &mut out);
        }
        out
    }

    /// Aggregated access statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            l1_hits: self.l1.iter().map(|c| c.hits).sum(),
            l1_misses: self.l1.iter().map(|c| c.misses).sum(),
            l2_hits: self.l2.hits,
            l2_misses: self.l2.misses,
            l2_resident_lines: self.l2.resident_count(),
        }
    }

    /// Number of lines currently resident in the shared L2.
    pub fn l2_resident_lines(&self) -> usize {
        self.l2.resident_count()
    }
}

/// A pending flip of a value-only fork's [`Overlay`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct OverlayFlip {
    /// The unit whose L1 holds the flipped line, or `None` for the L2.
    pub(crate) unit: Option<usize>,
    pub(crate) line: u64,
    /// Byte offset of the element within the line.
    pub(crate) offset: usize,
    pub(crate) mask: u64,
    /// Where golden evicts the line from that cache.
    pub(crate) end: FlipEnd,
}

/// The cache state of a value-only fork: only its pending flips.
///
/// Such a fork issues golden's address stream, and flips never change
/// tags, LRU or dirty state, so its caches equal golden's at every
/// access; what they would add to the data is the flips alone. Each flip
/// lives until golden's next eviction of its line (read off the golden
/// ledger's [`LineIndex`](crate::snapshot::LineIndex) at delivery),
/// counted in line touches within a tile, or until a store from a unit
/// that sees it overwrites its element; a dirty L2 flip reaches memory at
/// its end. Readers see it exactly as [`CacheHierarchy::corruption_for`]
/// would. The fork's cache statistics are golden's, tile by tile.
#[derive(Debug)]
pub(crate) struct Overlay {
    pub(crate) flips: Vec<OverlayFlip>,
    /// The golden run the flips ride on.
    pub(crate) ledger: Arc<GoldenLedger>,
    /// The fork's cache statistics: golden's, tile by tile.
    pub(crate) stats: CacheStats,
    line_bytes: usize,
    /// Dispatch position of the tile now executing.
    pos: usize,
    /// Line touches of that tile so far, counted while a flip is live.
    ordinal: u32,
    /// As [`CacheHierarchy::corruption_touched`].
    pub(crate) touched: bool,
}

impl Overlay {
    /// An overlay over `warm`, golden's caches at the fork's instant,
    /// whose flips end where `ledger` says golden evicts their lines.
    pub(crate) fn new(warm: &CacheHierarchy, ledger: Arc<GoldenLedger>) -> Self {
        Overlay {
            flips: Vec::new(),
            ledger,
            stats: warm.stats(),
            line_bytes: warm.line_bytes,
            pos: 0,
            ordinal: 0,
            touched: false,
        }
    }

    /// Delivers a strike on `l1_unit`'s L1 (the L2 when `None`) before
    /// the tile at `pos` runs: draws the victim from `warm` — the golden
    /// caches at that instant — as [`CacheHierarchy::strike`] would, and
    /// records the flip until its end. Whether a line was resident.
    pub(crate) fn strike<R: Rng + ?Sized>(
        &mut self,
        warm: &CacheHierarchy,
        l1_unit: Option<usize>,
        pos: usize,
        rng: &mut R,
        mask: u64,
    ) -> bool {
        let Some((line, offset)) = warm.sample_strike(l1_unit, rng) else {
            return false;
        };
        // A second flip of the same element XORs into the first and
        // cancels it at zero, as `SetAssocCache::add_flip` does.
        let same = |f: &OverlayFlip| f.unit == l1_unit && f.line == line && f.offset == offset;
        match self.flips.iter().position(same) {
            Some(i) => {
                self.flips[i].mask ^= mask;
                if self.flips[i].mask == 0 {
                    self.flips.remove(i);
                }
            }
            None => self.flips.push(OverlayFlip {
                unit: l1_unit,
                line,
                offset,
                mask,
                end: self.ledger.lines.end_of(l1_unit, line, pos),
            }),
        }
        true
    }

    /// Starts the tile at dispatch position `pos`: adds golden's cache
    /// deltas in it to the statistics and returns its golden ledger entry.
    pub(crate) fn begin_tile(&mut self, pos: usize) -> LedgerTile {
        self.pos = pos;
        self.ordinal = 0;
        let t = self.ledger.tiles[pos];
        self.stats.add_deltas(&t.cache);
        t
    }

    /// One access of `len` bytes at `byte_addr`: counts its line
    /// touches and ends every flip whose eviction falls among them,
    /// appending a dirty L2 flip's write-back to `out`.
    pub(crate) fn access(&mut self, byte_addr: usize, len: usize, out: &mut Vec<WriteBack>) {
        if len == 0 || self.flips.is_empty() {
            return;
        }
        let lines = ((byte_addr + len - 1) / self.line_bytes - byte_addr / self.line_bytes) as u32;
        let touches = self.ordinal..=self.ordinal + lines;
        self.ordinal += lines + 1;
        let pos = self.pos;
        self.end_where(out, |at| {
            at.is_some_and(|(t, k)| t == pos && touches.contains(&k))
        });
    }

    /// Removes the flips whose end `ends` picks, in order, appending a
    /// dirty L2 line's write-back to `out`.
    fn end_where(&mut self, out: &mut Vec<WriteBack>, ends: impl Fn(Option<(usize, u32)>) -> bool) {
        let lb = self.line_bytes;
        self.flips.retain(|f| {
            let end = ends(f.end.at);
            if end && f.end.dirty {
                let byte_addr = f.line as usize * lb + f.offset;
                out.push(WriteBack {
                    byte_addr,
                    mask: f.mask,
                });
            }
            !end
        });
    }

    /// Ends every flip whose eviction falls in the tile at `pos` (one
    /// the fork skips rather than executes) and returns the write-backs,
    /// which, as mid-tile ones do, mark corruption as escaped.
    pub(crate) fn end_in_tile(&mut self, pos: usize) -> Vec<WriteBack> {
        let mut out = Vec::new();
        self.end_where(&mut out, |at| at.is_some_and(|(t, _)| t == pos));
        self.touched |= !out.is_empty();
        out
    }

    /// Walks the flips `unit` sees on the `len` elements at byte `base`:
    /// a load (`row` given) XORs each element's combined mask into it
    /// and returns whether a non-zero mask entered the row; a store
    /// supersedes them.
    pub(crate) fn walk(
        &mut self,
        unit: usize,
        base: usize,
        len: usize,
        row: Option<&mut [f64]>,
    ) -> bool {
        let span = base..base + len * 8;
        let seen =
            |f: &OverlayFlip, addr: usize| f.unit.is_none_or(|u| u == unit) && span.contains(&addr);
        let Some(row) = row else {
            let lb = self.line_bytes;
            self.flips
                .retain(|f| !seen(f, f.line as usize * lb + f.offset));
            return false;
        };
        // An element's L1 and L2 masks combine as `corruption_for`
        // combines them; only a non-zero result is observed.
        let mut masks: Vec<(usize, u64)> = Vec::new();
        for f in &self.flips {
            let addr = f.line as usize * self.line_bytes + f.offset;
            if seen(f, addr) {
                match masks.iter_mut().find(|(a, _)| *a == addr) {
                    Some((_, m)) => *m ^= f.mask,
                    None => masks.push((addr, f.mask)),
                }
            }
        }
        let mut observed = false;
        for (addr, mask) in masks.into_iter().filter(|&(_, m)| m != 0) {
            let v = &mut row[(addr - base) / 8];
            *v = f64::from_bits(v.to_bits() ^ mask);
            observed = true;
        }
        self.touched |= observed;
        observed
    }

    /// Every pending flip's line as [`CacheHierarchy::flip_lines`]
    /// reports it; an L2 line's dirty bit is its dirty bit at its end,
    /// which is its dirty bit now while no later tile touches it.
    pub(crate) fn flip_lines(&self) -> impl Iterator<Item = FlipLine> + '_ {
        self.flips.iter().map(|f| FlipLine {
            line: f.line,
            l2_dirty: f.unit.is_none().then_some(f.end.dirty),
        })
    }

    /// Settles every pending flip as the final flush (or a contained
    /// exit's flush) does: dirty L2 flips write back, in line order.
    pub(crate) fn flush(&mut self) -> Vec<WriteBack> {
        let mut out = Vec::new();
        self.flips.sort_by_key(|f| f.line);
        self.end_where(&mut out, |_| true);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng as SmallRng;

    fn tiny_hierarchy() -> CacheHierarchy {
        // 2 units, small caches to force evictions quickly.
        let cfg = DeviceConfig::builder("tiny")
            .units(2)
            .max_threads_per_unit(64)
            .l1(CacheGeometry::new(256, 64, 2).unwrap()) // 4 lines
            .l2(CacheGeometry::new(512, 64, 2).unwrap()) // 8 lines
            .build()
            .unwrap();
        CacheHierarchy::new(&cfg)
    }

    /// One access through the active executor's body, returning its
    /// write-backs.
    fn access_span(
        h: &mut CacheHierarchy,
        unit: usize,
        byte_addr: usize,
        len: usize,
        write: bool,
    ) -> Vec<WriteBack> {
        let mut out = Vec::new();
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            exec::Isa::Avx2 => h.access_into::<exec::Avx2>(unit, byte_addr, len, write, &mut out),
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => h.access_into::<exec::Neon>(unit, byte_addr, len, write, &mut out),
            _ => h.access_into::<exec::Scalar>(unit, byte_addr, len, write, &mut out),
        }
        out
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(0, 64, 8).is_err());
        assert!(CacheGeometry::new(1024, 0, 8).is_err());
        assert!(CacheGeometry::new(1024, 64, 0).is_err());
        assert!(CacheGeometry::new(1000, 64, 8).is_err()); // not divisible
        assert!(CacheGeometry::new(1024, 60, 2).is_err()); // not f64 aligned
        let g = CacheGeometry::new(1024, 64, 2).unwrap();
        assert_eq!(g.sets(), 8);
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut h = tiny_hierarchy();
        access_span(&mut h, 0, 0, 8, false);
        access_span(&mut h, 0, 8, 8, false); // same line: hit
        let s = h.stats();
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn corruption_visible_while_resident() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(1);
        access_span(&mut h, 0, 0, 64, false);
        let info = h.strike_l2(&mut rng, 1 << 52).expect("line resident");
        assert!(h.has_pending_corruption());
        let mask = h.corruption_for(0, info.byte_addr);
        assert_eq!(mask, 1 << 52);
        // Another unit sees the same shared-L2 corruption.
        let mask2 = h.corruption_for(1, info.byte_addr);
        assert_eq!(mask2, 1 << 52);
    }

    #[test]
    fn strike_on_empty_cache_is_masked() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(2);
        assert!(h.strike_l2(&mut rng, 1).is_none());
        assert!(h.strike(Some(0), &mut rng, 1).is_none());
    }

    #[test]
    fn clean_corrupted_line_discards_on_eviction() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(3);
        access_span(&mut h, 0, 0, 8, false); // read-only: clean line
        let info = h.strike_l2(&mut rng, 0xFF).unwrap();
        // Evict by filling the set. L2 has 4 sets (512/64/2): lines
        // mapping to set 0 are line 0, 4, 8...
        let set_stride = 4 * 64;
        let mut wb = Vec::new();
        wb.extend(access_span(&mut h, 0, set_stride, 8, false));
        wb.extend(access_span(&mut h, 0, 2 * set_stride, 8, false));
        assert!(
            wb.is_empty(),
            "clean eviction must not write back corruption"
        );
        assert_eq!(h.corruption_for(0, info.byte_addr), 0, "corruption gone");
    }

    #[test]
    fn dirty_corrupted_line_writes_back_on_eviction() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(4);
        access_span(&mut h, 0, 0, 8, true); // write: dirty line
        let info = h.strike_l2(&mut rng, 0xAB).unwrap();
        let set_stride = 4 * 64;
        let mut wb = Vec::new();
        wb.extend(access_span(&mut h, 0, set_stride, 8, false));
        wb.extend(access_span(&mut h, 0, 2 * set_stride, 8, false));
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].mask, 0xAB);
        assert_eq!(wb[0].byte_addr, info.byte_addr);
    }

    #[test]
    fn flush_writes_back_dirty_corruption() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(5);
        access_span(&mut h, 0, 128, 8, true);
        let info = h.strike_l2(&mut rng, 0x10).unwrap();
        let wb = h.flush();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].byte_addr, info.byte_addr);
        assert!(!h.has_pending_corruption());
    }

    #[test]
    fn program_write_supersedes_corruption() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(6);
        access_span(&mut h, 0, 0, 8, true);
        let info = h.strike_l2(&mut rng, 0xFFFF).unwrap();
        h.note_element_write(0, info.byte_addr);
        assert_eq!(h.corruption_for(0, info.byte_addr), 0);
        assert!(h.flush().is_empty());
    }

    #[test]
    fn l1_corruption_is_private_to_unit() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(7);
        access_span(&mut h, 0, 0, 8, false);
        let info = h.strike(Some(0), &mut rng, 1 << 3).unwrap();
        assert_eq!(h.corruption_for(0, info.byte_addr), 1 << 3);
        assert_eq!(h.corruption_for(1, info.byte_addr), 0, "unit 1 unaffected");
    }

    #[test]
    fn l1_eviction_discards_corruption_write_through() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(8);
        access_span(&mut h, 0, 0, 8, false);
        let info = h.strike(Some(0), &mut rng, 1 << 9).unwrap();
        // L1 has 2 sets (256/64/2): lines 0, 2, 4... map to set 0.
        let set_stride = 2 * 64;
        access_span(&mut h, 0, set_stride, 8, false);
        access_span(&mut h, 0, 2 * set_stride, 8, false);
        assert_eq!(h.corruption_for(0, info.byte_addr), 0);
    }

    #[test]
    fn double_strike_same_element_cancels() {
        let mut h = tiny_hierarchy();
        access_span(&mut h, 0, 0, 64, false);
        // Deterministically strike the same element twice via direct API.
        h.l2.add_flip(0, 0, 0xF0);
        h.l2.add_flip(0, 0, 0xF0);
        assert_eq!(h.corruption_for(0, 0), 0);
        assert!(!h.l2.flips.contains_key(&0), "zero masks must be pruned");
    }

    #[test]
    fn larger_l2_keeps_corruption_longer() {
        // The paper's Phi-vs-K40 spread asymmetry in miniature: stream
        // enough lines to overflow the small L2 but not the big one.
        let small_cfg = DeviceConfig::builder("small")
            .l1(CacheGeometry::new(256, 64, 2).unwrap())
            .l2(CacheGeometry::new(512, 64, 2).unwrap())
            .build()
            .unwrap();
        let big_cfg = DeviceConfig::builder("big")
            .l1(CacheGeometry::new(256, 64, 2).unwrap())
            .l2(CacheGeometry::new(8192, 64, 2).unwrap())
            .build()
            .unwrap();
        for (cfg, expect_surviving) in [(small_cfg, false), (big_cfg, true)] {
            let mut h = CacheHierarchy::new(&cfg);
            let mut rng = SmallRng::seed_from_u64(9);
            access_span(&mut h, 0, 0, 8, false);
            let info = h.strike_l2(&mut rng, 1).unwrap();
            // Stream 32 more distinct lines.
            for i in 1..=32 {
                access_span(&mut h, 0, i * 64, 8, false);
            }
            let survived = h.corruption_for(0, info.byte_addr) != 0;
            assert_eq!(
                survived,
                expect_surviving,
                "L2 of {} bytes",
                cfg.l2().size_bytes
            );
        }
    }

    #[test]
    fn fast_path_flags_struck_lines_only() {
        let mut h = tiny_hierarchy();
        let mut rng = SmallRng::seed_from_u64(10);
        access_span(&mut h, 0, 0, 64, false);
        access_span(&mut h, 0, 4096, 64, false);
        let mut ranges = Vec::new();
        h.corrupted_ranges_into(0, 64, &mut ranges);
        assert!(ranges.is_empty());
        let info = h.strike_l2(&mut rng, 1).unwrap();
        // The watch list is line-granular and conservative: the whole
        // struck line is flagged, the other resident line is not.
        let line_base = info.byte_addr / 64 * 64;
        h.corrupted_ranges_into(line_base, 64, &mut ranges);
        assert_eq!(ranges, vec![(0, 8)]);
        let other = if line_base == 0 { 4096 } else { 0 };
        h.corrupted_ranges_into(other, 64, &mut ranges);
        assert!(ranges.is_empty());
    }

    #[test]
    fn resident_count_tracks_inserts_and_evictions() {
        let geom = CacheGeometry::new(128, 64, 2).unwrap(); // 1 set, 2 ways
        let mut c = SetAssocCache::new(geom, false);
        assert_eq!(c.resident_count(), 0);
        c.touch::<exec::Scalar>(0, false);
        c.touch::<exec::Scalar>(1, false);
        assert_eq!(c.resident_count(), 2);
        c.touch::<exec::Scalar>(2, false); // evicts one
        assert_eq!(c.resident_count(), 2);
        c.flush();
        assert_eq!(c.resident_count(), 0);
    }

    /// Not a correctness test: attribution harness for the simulated
    /// cache hot path (run with `--ignored --nocapture`). Kept in-tree
    /// because it needs access to the private [`SetAssocCache`].
    #[test]
    #[ignore]
    fn bench_touch_attribution() {
        use std::time::Instant;
        let cfg = DeviceConfig::kepler_k40();
        let h = CacheHierarchy::new(&cfg);
        let n_lines: u64 = 256 * 256 * 8 / 128; // one 512 KiB buffer
        for _ in 0..3 {
            let mut l1 = h.l1[0].clone();
            let t = Instant::now();
            for rep in 0..4u64 {
                for line in 0..n_lines {
                    let _ = l1.touch::<exec::Scalar>(line ^ (rep * 7), false);
                }
            }
            let l1_time = t.elapsed();
            let mut l2 = h.l2.clone();
            let t = Instant::now();
            for rep in 0..4u64 {
                for line in 0..n_lines {
                    let _ = l2.touch::<exec::Scalar>(line ^ (rep * 7), false);
                }
            }
            let l2_time = t.elapsed();
            let total = 4 * n_lines;
            eprintln!(
                "scalar: L1 {l1_time:?} ({:.1} ns/touch, {}h/{}m)  L2 {l2_time:?} ({:.1} ns/touch, {}h/{}m)",
                l1_time.as_nanos() as f64 / total as f64,
                l1.hits,
                l1.misses,
                l2_time.as_nanos() as f64 / total as f64,
                l2.hits,
                l2.misses,
            );
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let geom = CacheGeometry::new(128, 64, 2).unwrap(); // 1 set, 2 ways
        let mut c = SetAssocCache::new(geom, true);
        assert!(c.touch::<exec::Scalar>(0, false).is_none());
        assert!(c.touch::<exec::Scalar>(1, false).is_none());
        c.touch::<exec::Scalar>(0, false); // refresh line 0
        let evicted = c.touch::<exec::Scalar>(2, false).expect("eviction");
        assert_eq!(evicted.0, 1, "line 1 was least recently used");
        assert!(c.is_resident(0) && c.is_resident(2));
    }
}
