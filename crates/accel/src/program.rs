//! The program model: tiled kernels and their machine context.
//!
//! A [`TiledProgram`] is a kernel decomposed into *tiles* — units of
//! dispatch corresponding to CUDA thread blocks on the K40 and core tasks
//! on the Xeon Phi. Tiles within one step must be independent; programs
//! with iterative structure (stencils, time-stepped solvers) encode
//! `step × tile` into the tile index and double-buffer their state.
//!
//! All data movement goes through [`TileCtx`] so the cache hierarchy sees
//! every access, and all floating-point arithmetic goes through a
//! [`Lane`] so that in-flight logic upsets can corrupt individual
//! operations. A kernel writes its tile body once, generic over the lane
//! ([`TileBody`]), and [`dispatch`] picks ISA × lane once per tile: the
//! [`Armed`] lane counts and checks every op in reference order, the
//! [`Garbled`] lane blends each op of a garbled tile with the garble
//! sequence at the op's index, and the [`Clean`] lane — every tile that
//! carries no armed logic, SFU or garble fault — is plain IEEE
//! arithmetic that adds its op counts in bulk. A body asks
//! [`Lane::clean_span`] once per span (a block, a row, a neighbour box):
//! an armed tile runs every span its fault cannot reach on [`Clean`], and
//! a garbled tile runs each span in the clean lane's order.

use std::sync::{Arc, PoisonError, RwLock};

use radcrit_core::exec;
use radcrit_core::shape::OutputShape;
use radcrit_obs::profile::{phase_if, tile_sample, PhaseId};

use crate::cache::{Overlay, WriteBack};
use crate::error::AccelError;
use crate::memory::{BufferId, DeviceMemory};

/// Index of a tile within a program's dispatch space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId(pub usize);

impl TileId {
    /// The raw index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A kernel that executes tile by tile on the simulated device.
pub trait TiledProgram {
    /// Kernel name for logs and reports.
    fn name(&self) -> &str;

    /// Total number of tiles (across all steps for iterative kernels).
    fn tile_count(&self) -> usize;

    /// Tiles of one kernel *launch* (one time step for iterative
    /// kernels). Thread-count-driven exposure (scheduler queue, register
    /// residency) sees one launch at a time, not the whole run; Table II
    /// counts threads per launch. Defaults to [`TiledProgram::tile_count`]
    /// for single-launch kernels.
    fn tiles_per_launch(&self) -> usize {
        self.tile_count()
    }

    /// Threads one tile occupies on the device (drives wave width,
    /// scheduler strain and register exposure).
    fn threads_per_tile(&self) -> usize;

    /// Software-managed local/shared memory one tile occupies, in bytes.
    /// Big footprints limit occupancy on devices with shared memory
    /// (§V-B: LavaMD's ~14 KB per block). Defaults to 0.
    fn local_mem_per_tile(&self) -> usize {
        0
    }

    /// Allocates and initializes device buffers. Called once per run on a
    /// fresh [`DeviceMemory`].
    ///
    /// # Errors
    ///
    /// Propagates allocation/initialization failures.
    fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError>;

    /// Executes one tile, with all memory traffic and arithmetic routed
    /// through `ctx`.
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds accesses (which indicate a program bug,
    /// not a simulated fault).
    fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError>;

    /// The buffer holding the kernel's output after the last tile.
    fn output(&self) -> BufferId;

    /// The logical geometry of the output buffer.
    fn output_shape(&self) -> OutputShape;

    /// Whether the engine may resume this program mid-run from a
    /// golden-prefix snapshot and reuse its post-setup memory image
    /// across runs. Requires [`TiledProgram::setup`] and
    /// [`TiledProgram::execute_tile`] to be pure over `self`: all
    /// run-varying state must live in device buffers, so replaying a
    /// suffix of tiles against restored machine state reproduces a full
    /// run bit for bit. Programs with observable per-execution state
    /// (e.g. an execution counter) must return `false`; the engine then
    /// always runs them from tile 0 with a fresh setup. A resumable
    /// program must also derive every address it loads or stores from
    /// the tile id alone, never from loaded values: a forked run that
    /// stops at a contained fault relies on its cache state tracking
    /// golden's tile for tile.
    fn resumable(&self) -> bool {
        true
    }
}

/// How a tile body's arithmetic executes: the one generic parameter of a
/// [`TileBody`], implemented by [`Armed`], [`Garbled`] and [`Clean`].
///
/// Every lane computes the same IEEE results and leaves the same `ops` /
/// `trans_ops` counts at the end of a span. [`Armed`] routes every
/// operation through the [`TileCtx`] op wrappers ([`TileCtx::op`],
/// [`TileCtx::exp`], …), which count it and apply the tile's armed fault
/// at its op index; a body must call them in reference order. [`Clean`]
/// is plain arithmetic, and [`Garbled`] plain arithmetic blended with the
/// garble sequence; on both the body reports its counts with
/// [`Lane::count`] and [`Lane::count_trans`], which the armed lane
/// ignores because its wrappers counted already.
///
/// Each op takes its index `i` within the span — the ops (or, for
/// [`Lane::exp`], the transcendental ops) the span ran before it in
/// reference order — which the body knows from its loop indices. Only
/// [`Garbled`] reads it, so the body may run a span's ops in any order
/// that keeps their data flow.
///
/// A body split into spans (each with a fixed count of ops) asks
/// [`Lane::clean_span`] before each one and runs the span on [`Clean`]
/// when it answers true — on an armed tile, every span outside the
/// fault's window — else on `L`. Lanes then switch mid-tile, so every
/// span must leave the counts the other lane would.
pub trait Lane {
    /// Whether ops are counted one by one and checked against a fault.
    const ARMED: bool;

    /// Whether ops blend with the garble sequence at their index.
    const GARBLED: bool = false;

    /// One counted arithmetic op, the span's `i`-th, producing `value`.
    #[inline(always)]
    fn op(ctx: &mut TileCtx<'_>, i: usize, value: f64) -> f64 {
        if Self::ARMED {
            ctx.op(value)
        } else if Self::GARBLED {
            ctx.garbled_op(i, value)
        } else {
            value
        }
    }

    /// `a + b` as op `i`.
    #[inline(always)]
    fn add(ctx: &mut TileCtx<'_>, i: usize, a: f64, b: f64) -> f64 {
        Self::op(ctx, i, a + b)
    }

    /// `a * b` as op `i`.
    #[inline(always)]
    fn mul(ctx: &mut TileCtx<'_>, i: usize, a: f64, b: f64) -> f64 {
        Self::op(ctx, i, a * b)
    }

    /// `a / b` as op `i`.
    #[inline(always)]
    fn div(ctx: &mut TileCtx<'_>, i: usize, a: f64, b: f64) -> f64 {
        Self::op(ctx, i, a / b)
    }

    /// Fused `a * b + acc` as op `i` (see [`TileCtx::fma`]).
    #[inline(always)]
    fn fma(ctx: &mut TileCtx<'_>, i: usize, a: f64, b: f64, acc: f64) -> f64 {
        Self::op(ctx, i, a.mul_add(b, acc))
    }

    /// `exp(x)` as the span's `i`-th transcendental op (see
    /// [`TileCtx::exp`]).
    #[inline(always)]
    fn exp(ctx: &mut TileCtx<'_>, i: usize, x: f64) -> f64 {
        if Self::ARMED {
            ctx.exp(x)
        } else if Self::GARBLED {
            ctx.sfu(ctx.trans_ops + i as u64, x).exp()
        } else {
            x.exp()
        }
    }

    /// Adds `ops` arithmetic ops the body ran through this lane since
    /// its last count: once per span on a lane that does not count op
    /// by op.
    #[inline(always)]
    fn count(ctx: &mut TileCtx<'_>, ops: u64) {
        if !Self::ARMED {
            ctx.ops += ops;
        }
    }

    /// Adds `ops` transcendental ops, like [`Lane::count`].
    #[inline(always)]
    fn count_trans(ctx: &mut TileCtx<'_>, ops: u64) {
        if !Self::ARMED {
            ctx.trans_ops += ops;
        }
    }

    /// Whether the body's next span — `ops` arithmetic and `trans`
    /// transcendental ops — runs on [`Clean`]: always on the clean lane,
    /// never on the garbled one, and on the armed lane when the span
    /// holds neither an op of the tile's logic window nor its SFU
    /// fault's op. The garbled lane readies the span instead: the garble
    /// sequence covers its ops, and when the span starts the tile the
    /// anchor is `first()`, the value its op 0 computes.
    #[inline(always)]
    fn clean_span(
        ctx: &mut TileCtx<'_>,
        ops: u64,
        trans: u64,
        first: impl FnOnce() -> f64,
    ) -> bool {
        if Self::GARBLED {
            ctx.garble_span(ops, first);
            false
        } else if Self::ARMED && ctx.fault.garble {
            // The span's garbled ops, one by one through `TileCtx::op`.
            ctx.cover_garble((ctx.ops + ops) as usize);
            false
        } else {
            !Self::ARMED || ctx.clean_span(ops, trans)
        }
    }
}

/// The lane of a tile with an armed logic or SFU fault: every op is
/// counted and checked in reference order. The fault corrupts a known
/// window of ops, so only the spans that window reaches run here; the
/// tile's other spans run on [`Clean`].
#[derive(Debug)]
pub enum Armed {}

impl Lane for Armed {
    const ARMED: bool = true;
}

/// The lane of a garbled tile, in the clean lane's order and vector
/// width: op `i` of a span yields the computed value where the garble
/// sequence lets it through and the tile's stale anchor times the
/// sequence's wobble elsewhere, read at the op's index in the tile. An
/// SFU fault still scales its `exp`; a logic fault is lost in the
/// garble, as on [`TileCtx::op`].
#[derive(Debug)]
pub enum Garbled {}

impl Lane for Garbled {
    const ARMED: bool = false;
    const GARBLED: bool = true;
}

/// The lane of every other tile (golden capture, warm advance, almost
/// every fork tile) and of an armed tile's spans outside its fault
/// window: plain IEEE arithmetic the compiler may vectorize.
#[derive(Debug)]
pub enum Clean {}

impl Lane for Clean {
    const ARMED: bool = false;
}

/// A tile body written once, generic over its arithmetic [`Lane`]. A
/// program implements [`TiledProgram::execute_tile`] as
/// `program::dispatch(self, tile, ctx)`.
pub trait TileBody {
    /// Executes one tile with its arithmetic on lane `L`; otherwise as
    /// [`TiledProgram::execute_tile`].
    ///
    /// # Errors
    ///
    /// Propagates out-of-bounds accesses.
    fn tile_body<L: Lane>(&mut self, tile: TileId, ctx: &mut TileCtx<'_>)
        -> Result<(), AccelError>;
}

/// Runs `program`'s tile body for `tile`, picking ISA × lane once: the
/// [`Garbled`] lane when `ctx` carries a garble, the [`Armed`] lane when
/// it carries another armed fault (whose body still runs the spans
/// [`Lane::clean_span`] clears on [`Clean`]), else [`Clean`], and on an
/// AVX2 host the whole body — arithmetic, row loads and stores —
/// compiled as one AVX2+FMA region (fused hardware FMAs instead of libm
/// calls, vectorized clean loops), bit-identical to the portable copy
/// because every op is the same IEEE operation on every lowering.
///
/// # Errors
///
/// Propagates the body's errors.
#[inline]
pub fn dispatch<P: TileBody + ?Sized>(
    program: &mut P,
    tile: TileId,
    ctx: &mut TileCtx<'_>,
) -> Result<(), AccelError> {
    if ctx.fault.garble {
        run_body::<P, Garbled>(program, tile, ctx)
    } else if ctx.fault.is_armed() {
        run_body::<P, Armed>(program, tile, ctx)
    } else {
        run_body::<P, Clean>(program, tile, ctx)
    }
}

/// The body on lane `L`, as one AVX2+FMA region on an AVX2 host.
#[inline(always)]
fn run_body<P: TileBody + ?Sized, L: Lane>(
    program: &mut P,
    tile: TileId,
    ctx: &mut TileCtx<'_>,
) -> Result<(), AccelError> {
    #[cfg(target_arch = "x86_64")]
    if exec::active() == exec::Isa::Avx2 {
        // SAFETY: `exec::active` only reports Avx2 after runtime
        // detection confirmed AVX2 + FMA on this host.
        return unsafe { body_avx2::<P, L>(program, tile, ctx) };
    }
    program.tile_body::<L>(tile, ctx)
}

/// # Safety
///
/// The host must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn body_avx2<P: TileBody + ?Sized, L: Lane>(
    program: &mut P,
    tile: TileId,
    ctx: &mut TileCtx<'_>,
) -> Result<(), AccelError> {
    program.tile_body::<L>(tile, ctx)
}

/// An in-flight fault armed on one tile by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TileFault {
    /// First corrupted arithmetic op (u64::MAX ⇒ none).
    pub logic_at: u64,
    /// Number of consecutive ops corrupted from `logic_at`.
    pub logic_lanes: u64,
    /// XOR mask for corrupted op results.
    pub logic_mask: u64,
    /// Corrupted transcendental op (u64::MAX ⇒ none); the scale applies
    /// to the *argument*.
    pub sfu_at: u64,
    /// Multiplier for the transcendental argument (corrupted range
    /// reduction).
    pub sfu_scale: f64,
    /// First corrupted store (u64::MAX ⇒ none).
    pub store_at: u64,
    /// Number of consecutive stale stores.
    pub store_len: u64,
    /// Garble: every op replays a stale value (see [`GarbleSeq`]).
    pub garble: bool,
}

impl TileFault {
    pub(crate) fn none() -> Self {
        TileFault {
            logic_at: u64::MAX,
            logic_lanes: 0,
            logic_mask: 0,
            sfu_at: u64::MAX,
            sfu_scale: 1.0,
            store_at: u64::MAX,
            store_len: 0,
            garble: false,
        }
    }

    /// A logic upset: `lanes` consecutive ops from `op_index` get their
    /// result XORed with `mask`.
    pub(crate) fn logic(op_index: u64, lanes: u64, mask: u64) -> Self {
        TileFault {
            logic_at: op_index,
            logic_lanes: lanes,
            logic_mask: mask,
            ..TileFault::none()
        }
    }

    pub(crate) fn is_armed(&self) -> bool {
        self.garble || self.logic_at != u64::MAX || self.sfu_at != u64::MAX
    }
}

/// Seed of the garble sequence: every garbled tile replays the same one.
const GARBLE_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Entries an op outside a covered span grows the garble sequence by.
const GARBLE_BLOCK: usize = 4096;

/// The garble sequence indexed by op: entry `i` packs the `i + 1`-th
/// state `x` of one xorshift64 sequence from [`GARBLE_SEED`] into 4
/// bytes — `-1` when `x & 0xF == 0` (op `i` keeps its computed value),
/// else the 24-bit `m = x >> 40` of the wobble `0.75 + m · 2⁻²⁵`, exact
/// in an `f64`, that scales the stale anchor. Op `i` of every garbled
/// tile sees entry `i`, whatever order its lane runs the ops in. The
/// process holds one, shared by every garbled tile ([`GarbleSeq::shared`]).
#[derive(Debug, Clone)]
pub(crate) struct GarbleSeq {
    entries: Vec<i32>,
    /// The xorshift state behind the last entry.
    state: u64,
}

/// The process's garble sequence: grown by the first tile that needs more
/// entries, never shrunk. A tile holds the `Arc` it read, so growing
/// swaps in a longer copy without disturbing a tile that runs on the old.
static GARBLE_SEQ: RwLock<Option<Arc<GarbleSeq>>> = RwLock::new(None);

impl GarbleSeq {
    const fn new() -> Self {
        GarbleSeq {
            entries: Vec::new(),
            state: GARBLE_SEED,
        }
    }

    /// Extends the sequence to at least `len` entries.
    fn cover(&mut self, len: usize) {
        let Some(more) = len.checked_sub(self.entries.len()) else {
            return;
        };
        self.entries.reserve(more);
        let mut x = self.state;
        self.entries.extend((0..more).map(|_| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            if x & 0xF == 0 {
                -1
            } else {
                (x >> 40) as i32
            }
        }));
        self.state = x;
    }

    /// The process's sequence, grown to `len` entries when it is shorter.
    fn shared(len: usize) -> Arc<GarbleSeq> {
        let covers = |s: &&Arc<GarbleSeq>| s.entries.len() >= len;
        let read = GARBLE_SEQ.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(seq) = read.as_ref().filter(covers) {
            return Arc::clone(seq);
        }
        drop(read);
        let mut slot = GARBLE_SEQ.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have grown it in between.
        if let Some(seq) = slot.as_ref().filter(covers) {
            return Arc::clone(seq);
        }
        let mut seq = slot.as_deref().cloned().unwrap_or_else(GarbleSeq::new);
        seq.cover(len);
        let seq = Arc::new(seq);
        *slot = Some(Arc::clone(&seq));
        seq
    }

    /// The result of an op with sequence entry `entry`: its computed
    /// `value` where the entry lets it through, else `anchor` times the
    /// entry's wobble.
    #[inline(always)]
    fn blend(entry: i32, value: f64, anchor: f64) -> f64 {
        if entry < 0 {
            value
        } else {
            anchor * (0.75 + f64::from(entry) * 2f64.powi(-25))
        }
    }
}

/// A garbled span's ops with their garble entries sliced once (see
/// [`TileCtx::garbled_span`]).
#[derive(Debug, Clone, Copy)]
pub struct GarbledSpan<'a> {
    entries: &'a [i32],
    anchor: f64,
}

impl GarbledSpan<'_> {
    /// Op `i` of the span, producing `value`: the [`Garbled`] lane's
    /// [`Lane::op`].
    #[inline(always)]
    pub fn op(&self, i: usize, value: f64) -> f64 {
        self.blend(self.entries[i], value)
    }

    /// The entries of the span's ops `at..at + N`, for a body that runs
    /// them as one group: with `N` known, reading an entry by a constant
    /// index needs no bounds check.
    ///
    /// # Panics
    ///
    /// Panics when the span holds fewer than `at + N` ops.
    #[inline(always)]
    pub fn group<const N: usize>(&self, at: usize) -> &[i32; N] {
        self.entries[at..]
            .first_chunk()
            .expect("the group lies in the span")
    }

    /// The result of an op with garble entry `entry`, one of the span's:
    /// its computed `value` or the anchor's wobble.
    #[inline(always)]
    pub fn blend(&self, entry: i32, value: f64) -> f64 {
        GarbleSeq::blend(entry, value, self.anchor)
    }
}

/// Cumulative machine counters across tiles (engine-owned).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MachineCounters {
    pub ops: u64,
    pub trans_ops: u64,
    pub loads: u64,
    pub stores: u64,
}

impl MachineCounters {
    pub(crate) fn add(&mut self, c: MachineCounters) {
        self.ops += c.ops;
        self.trans_ops += c.trans_ops;
        self.loads += c.loads;
        self.stores += c.stores;
    }
}

/// Records the element spans a run writes — program stores plus
/// corrupted write-backs — to one watched buffer, so differential runs
/// know the candidate dirty region of the output without scanning it, or
/// to every buffer, for the golden ledger's store spans.
#[derive(Debug)]
pub(crate) struct StoreLog {
    /// The buffer whose writes are recorded; `None` records every buffer.
    watched: Option<BufferId>,
    pub(crate) spans: Vec<Stored>,
}

/// One span [`StoreLog`] recorded: `len` elements of `buf` from `start`,
/// at global element address `at` (the byte address over 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stored {
    pub(crate) buf: BufferId,
    pub(crate) start: usize,
    pub(crate) len: usize,
    pub(crate) at: usize,
}

impl StoreLog {
    /// A log of the writes to `watched`, or to every buffer when `None`.
    pub(crate) fn new(watched: Option<BufferId>) -> Self {
        StoreLog {
            watched,
            spans: Vec::new(),
        }
    }

    /// Records a write of `len` elements of `buf` from `start`, whose
    /// first sits at byte address `byte_addr`.
    pub(crate) fn record(&mut self, buf: BufferId, start: usize, len: usize, byte_addr: usize) {
        if self.watched.is_none_or(|w| w == buf) && len > 0 {
            let at = byte_addr / 8;
            self.spans.push(Stored {
                buf,
                start,
                len,
                at,
            });
        }
    }
}

/// The machine context one tile executes against: routed memory access,
/// instrumented arithmetic, and the fault state armed for this tile.
#[derive(Debug)]
pub struct TileCtx<'a> {
    pub(crate) mem: &'a mut DeviceMemory,
    pub(crate) caches: &'a mut crate::cache::CacheHierarchy,
    /// A value-only fork's flips: when set, accesses copy data against
    /// memory and consult only the overlay, never `caches`.
    pub(crate) overlay: Option<&'a mut Overlay>,
    pub(crate) unit: usize,
    pub(crate) fault: TileFault,
    pub(crate) store_log: Option<&'a mut StoreLog>,
    // Per-tile counters (reset each tile).
    pub(crate) ops: u64,
    pub(crate) trans_ops: u64,
    pub(crate) loads: u64,
    pub(crate) stores: u64,
    pub(crate) store_ops: u64,
    pub(crate) last_store: f64,
    /// A garbled tile's stale value: its op 0's computed result.
    pub(crate) garble_anchor: Option<f64>,
    /// The process's garble sequence as this garbled tile last read it.
    garble_seq: Option<Arc<GarbleSeq>>,
    // Which buffers this tile loaded (a `BufferId::bit` set), the
    // elements corrupted lines wrote back into, and whether a load
    // observed a non-zero corruption mask: the engine's taint inputs.
    pub(crate) loaded: u64,
    pub(crate) written_back: Vec<WrittenBack>,
    pub(crate) observed: bool,
    // Whether this tile's per-element memory phases are profiled:
    // decided once per tile (see `TILE_SAMPLE_STRIDE`) so the per-row
    // load/store scopes cost one register test on unprofiled tiles.
    pub(crate) prof: bool,
}

impl<'a> TileCtx<'a> {
    pub(crate) fn new(
        mem: &'a mut DeviceMemory,
        caches: &'a mut crate::cache::CacheHierarchy,
        unit: usize,
        fault: TileFault,
    ) -> Self {
        TileCtx {
            mem,
            caches,
            overlay: None,
            unit,
            fault,
            store_log: None,
            ops: 0,
            trans_ops: 0,
            loads: 0,
            stores: 0,
            store_ops: 0,
            last_store: 0.0,
            garble_anchor: None,
            garble_seq: None,
            loaded: 0,
            written_back: Vec::new(),
            observed: false,
            prof: tile_sample(),
        }
    }

    /// Attaches a store log; subsequent stores and write-backs to the
    /// watched buffer are recorded as dirty spans.
    pub(crate) fn with_store_log(mut self, log: &'a mut StoreLog) -> Self {
        self.store_log = Some(log);
        self
    }

    /// The execution unit (SM / core) running this tile.
    pub fn unit(&self) -> usize {
        self.unit
    }

    /// Records one arithmetic operation and returns its (possibly
    /// corrupted) result: the [`Armed`] lane's op. Outside a garble it is
    /// a counter increment and one inline window check — ops
    /// `logic_at..logic_at + logic_lanes`, which an unarmed tile's empty
    /// window never matches — which is what a program that calls it
    /// directly pays per op; a [`TileBody`] runs unarmed tiles and spans
    /// on the [`Clean`] lane instead.
    #[inline(always)]
    pub fn op(&mut self, value: f64) -> f64 {
        let idx = self.ops;
        self.ops += 1;
        if self.fault.garble {
            return self.op_garble(idx, value);
        }
        if idx.wrapping_sub(self.fault.logic_at) < self.fault.logic_lanes {
            return f64::from_bits(value.to_bits() ^ self.fault.logic_mask);
        }
        value
    }

    /// Whether the tile's next `ops` arithmetic ops and next `trans`
    /// transcendental ops lie wholly outside its armed fault: no op of the
    /// logic window among them, not the SFU fault's op, and no garble.
    /// Such a span computes the same bits on [`Clean`] as on [`Armed`];
    /// a body asks through [`Lane::clean_span`].
    #[inline(always)]
    pub(crate) fn clean_span(&self, ops: u64, trans: u64) -> bool {
        let f = &self.fault;
        // Two index ranges (on the wrapping `u64` circle, like the window
        // check in `op`) meet iff one starts inside the other.
        let logic = (ops > 0 && self.ops.wrapping_sub(f.logic_at) < f.logic_lanes)
            || (f.logic_lanes > 0 && f.logic_at.wrapping_sub(self.ops) < ops);
        let sfu = f.sfu_at.wrapping_sub(self.trans_ops) < trans;
        !(f.garble || logic || sfu)
    }

    /// Op `idx` of a garbled tile. Garbled dispatch/task state makes the
    /// unit compute with wrong operands — data fetched from wrong
    /// addresses or phases. The result is a *plausible-magnitude* wrong
    /// value (an in-flight result from when the state was corrupted), not
    /// a random bit pattern: replay the value latched at corruption time
    /// (op 0's), perturbed per op by a small wobble (±25 %) so outputs
    /// are not all identical, and occasionally let the correct value
    /// through (some lanes still hit the right data).
    ///
    /// A body's span is covered before its first op (see
    /// [`Lane::clean_span`]); an op outside one covers a whole block of
    /// [`GARBLE_BLOCK`] entries, so that a program calling `op` directly
    /// grows the table once per block rather than once per op.
    #[cold]
    fn op_garble(&mut self, idx: u64, value: f64) -> f64 {
        let idx = idx as usize;
        let entry = match self.garble_seq.as_deref().and_then(|s| s.entries.get(idx)) {
            Some(&entry) => entry,
            None => self.cover_garble((idx + 1).next_multiple_of(GARBLE_BLOCK))[idx],
        };
        let anchor = *self.garble_anchor.get_or_insert(value);
        GarbleSeq::blend(entry, value, anchor)
    }

    /// The garble sequence's first `len` entries or more, reading the
    /// process's sequence again when this tile's copy is shorter.
    fn cover_garble(&mut self, len: usize) -> &[i32] {
        if self
            .garble_seq
            .as_ref()
            .is_none_or(|s| s.entries.len() < len)
        {
            self.garble_seq = Some(GarbleSeq::shared(len));
        }
        &self.garble_seq.as_deref().expect("covered above").entries
    }

    /// The garble entries of the current span's `ops` ops, from
    /// `self.ops`, which [`Lane::clean_span`] covered.
    #[inline(always)]
    fn garble_entries(&self, ops: usize) -> &[i32] {
        let seq = self.garble_seq.as_deref().expect("the span is covered");
        &seq.entries[self.ops as usize..][..ops]
    }

    /// Op `i` of the current span on the [`Garbled`] lane: the garbled
    /// op at index `self.ops + i`, which [`Lane::clean_span`] covered.
    #[inline(always)]
    fn garbled_op(&self, i: usize, value: f64) -> f64 {
        self.garbled_span(i + 1).op(i, value)
    }

    /// The current span's first `ops` ops on the [`Garbled`] lane, their
    /// garble entries sliced once: a body that runs a span's ops in bulk
    /// reads them through [`GarbledSpan::op`] instead of [`Lane::op`],
    /// with no per-op lookup through the context. The span must be
    /// readied by [`Lane::clean_span`] first.
    ///
    /// # Panics
    ///
    /// Panics when no span of at least `ops` ops was readied.
    #[inline(always)]
    pub fn garbled_span(&self, ops: usize) -> GarbledSpan<'_> {
        GarbledSpan {
            entries: self.garble_entries(ops),
            anchor: self.garble_anchor.unwrap_or(f64::NAN),
        }
    }

    /// Readies a garbled span of `ops` ops from `self.ops`: covers them in
    /// the garble sequence and, when the span starts the tile, latches the
    /// anchor from `first`, before any op of the span runs.
    #[inline(always)]
    fn garble_span(&mut self, ops: u64, first: impl FnOnce() -> f64) {
        self.cover_garble((self.ops + ops) as usize);
        if self.ops == 0 && ops > 0 {
            self.garble_anchor = Some(first());
        }
    }

    /// Fused multiply-add routed through the op counter: `a * b + acc`
    /// with a *single* rounding, like the hardware FFMA/VFMADD units of
    /// both paper devices (separate multiply-then-add rounds twice and
    /// matches neither). Host reference implementations must mirror the
    /// fusion with `f64::mul_add` to stay bitwise identical.
    #[inline(always)]
    pub fn fma(&mut self, a: f64, b: f64, acc: f64) -> f64 {
        // `mul_add` is correctly rounded on every lowering (hardware
        // FMA via libm's runtime dispatch, or the soft-float fallback),
        // so a single op needs no executor dispatch of its own; bulk
        // blocks go through `fma_block`.
        self.op(a.mul_add(b, acc))
    }

    /// Block fused multiply-add on lane `L`: `acc[r][c] = fma(a[r][k],
    /// b[k][c], acc[r][c])` accumulated over `k` in ascending order — one
    /// op per element update, semantically identical to calling
    /// [`Lane::fma`] in the loop `for r { for k { for c { … } } }`.
    ///
    /// One loop, `fma_rows`, runs `W` output rows at a time with their
    /// accumulators held in locals across the whole `k` loop, so in an
    /// AVX2 tile body the compiler keeps them in vector registers
    /// instead of re-loading `acc` once per `k` — the difference between
    /// a memory-bound and an FMA-bound inner kernel.
    /// The block is one span of `N³` ops, op `r·N² + k·N + c` updating
    /// `acc[r][c]` with `a[r][k]`: it runs on the clean lane unless
    /// [`Lane::clean_span`] finds the tile's fault inside it. The clean
    /// and garbled lanes take two rows per pass, sharing each `b` row;
    /// the armed lane takes one, which is the reference order itself.
    /// Per-element accumulation order over `k` is the same on every
    /// lane, so results are bit-identical.
    #[inline(always)]
    pub fn fma_block<L: Lane, const N: usize>(
        &mut self,
        a: &[[f64; N]; N],
        b: &[[f64; N]; N],
        acc: &mut [[f64; N]; N],
    ) {
        let ops = (N * N * N) as u64;
        if L::clean_span(self, ops, 0, || a[0][0].mul_add(b[0][0], acc[0][0])) {
            self.fma_pairs::<Clean, N>(a, b, acc);
            Clean::count(self, ops);
        } else if L::ARMED {
            for r in 0..N {
                self.fma_rows::<L, N, 1>(a, b, acc, r);
            }
        } else {
            self.fma_pairs::<L, N>(a, b, acc);
            L::count(self, ops);
        }
    }

    /// Every row of [`TileCtx::fma_block`], two per pass.
    #[inline(always)]
    fn fma_pairs<L: Lane, const N: usize>(
        &mut self,
        a: &[[f64; N]; N],
        b: &[[f64; N]; N],
        acc: &mut [[f64; N]; N],
    ) {
        let paired = N / 2 * 2;
        for r in (0..paired).step_by(2) {
            self.fma_rows::<L, N, 2>(a, b, acc, r);
        }
        for r in paired..N {
            self.fma_rows::<L, N, 1>(a, b, acc, r);
        }
    }

    /// Output rows `r..r + W` of [`TileCtx::fma_block`], `W`-way
    /// interleaved per column.
    #[inline(always)]
    fn fma_rows<L: Lane, const N: usize, const W: usize>(
        &mut self,
        a: &[[f64; N]; N],
        b: &[[f64; N]; N],
        acc: &mut [[f64; N]; N],
        r: usize,
    ) {
        let mut rows = [[0.0; N]; W];
        rows.copy_from_slice(&acc[r..r + W]);
        for (k, brow) in b.iter().enumerate() {
            let mut ak = [0.0; W];
            for (w, x) in ak.iter_mut().enumerate() {
                *x = a[r + w][k];
            }
            if L::GARBLED {
                // Each row's ops at this `k` are `N` consecutive entries of
                // the garble sequence: sliced once, they need no per-op
                // bounds check, and the loop vectorizes.
                let span = self.garbled_span((r + W - 1) * N * N + (k + 1) * N);
                let seq: [&[i32; N]; W] = std::array::from_fn(|w| {
                    span.entries[(r + w) * N * N + k * N..]
                        .first_chunk()
                        .expect("the span is covered")
                });
                for (c, &bkc) in brow.iter().enumerate() {
                    for ((row, &awk), seq) in rows.iter_mut().zip(&ak).zip(seq) {
                        row[c] = span.blend(seq[c], awk.mul_add(bkc, row[c]));
                    }
                }
                continue;
            }
            for (c, &bkc) in brow.iter().enumerate() {
                for (w, (row, &awk)) in rows.iter_mut().zip(&ak).enumerate() {
                    let i = (r + w) * N * N + k * N + c;
                    row[c] = L::fma(self, i, awk, bkc, row[c]);
                }
            }
        }
        acc[r..r + W].copy_from_slice(&rows);
    }

    /// Addition routed through the op counter.
    #[inline(always)]
    pub fn add(&mut self, a: f64, b: f64) -> f64 {
        self.op(a + b)
    }

    /// Multiplication routed through the op counter.
    #[inline(always)]
    pub fn mul(&mut self, a: f64, b: f64) -> f64 {
        self.op(a * b)
    }

    /// Division routed through the op counter.
    #[inline(always)]
    pub fn div(&mut self, a: f64, b: f64) -> f64 {
        self.op(a / b)
    }

    /// Exponential through the transcendental (SFU) unit: an armed SFU
    /// fault scales the *argument* (a corrupted range reduction),
    /// modeling the K40's exposed special function unit.
    #[inline(always)]
    pub fn exp(&mut self, x: f64) -> f64 {
        let idx = self.trans_ops;
        self.trans_ops += 1;
        self.sfu(idx, x).exp()
    }

    /// Square root through the transcendental unit (same fault model as
    /// [`TileCtx::exp`]).
    #[inline(always)]
    pub fn sqrt(&mut self, x: f64) -> f64 {
        let idx = self.trans_ops;
        self.trans_ops += 1;
        self.sfu(idx, x).sqrt()
    }

    /// The argument transcendental op `idx` sees: `x`, scaled when the
    /// tile's SFU fault sits on that op.
    #[inline(always)]
    fn sfu(&self, idx: u64, x: f64) -> f64 {
        if idx == self.fault.sfu_at {
            x * self.fault.sfu_scale
        } else {
            x
        }
    }

    /// Loads `dst.len()` consecutive elements starting at `start` from
    /// `buf` through the cache hierarchy, observing any corruption pending
    /// on resident lines: one row of [`TileCtx::load_rows`].
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when the range exceeds the
    /// buffer.
    #[inline]
    pub fn load(&mut self, buf: BufferId, start: usize, dst: &mut [f64]) -> Result<(), AccelError> {
        if dst.is_empty() {
            return Ok(());
        }
        let n = dst.len();
        self.load_rows(buf, start, n, n, dst)
    }

    /// Strided bulk load: row `r` (of `dst.len() / width` rows) reads
    /// `width` consecutive elements starting at `start + r * stride`
    /// into `dst[r * width ..]`, through the cache hierarchy, observing
    /// any corruption pending on resident lines. The one load path:
    /// [`TileCtx::load`] is a one-row call. Rows run in ascending order
    /// — per row one cache access, its write-backs, then the corruption
    /// walk — and the ISA dispatch and `mem-load` phase scope are paid
    /// once per call, not once per row (DGEMM loads 32 rows per
    /// k-step).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when any row exceeds the
    /// buffer; rows before the offending one are already loaded.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or does not divide `dst.len()`.
    #[inline]
    pub fn load_rows(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        assert!(
            width > 0 && dst.len().is_multiple_of(width),
            "load_rows width {width} must divide dst length {}",
            dst.len()
        );
        if dst.is_empty() {
            return Ok(());
        }
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            exec::Isa::Avx2 => unsafe { self.load_rows_avx2(buf, start, stride, width, dst) },
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => self.load_rows_body::<exec::Neon>(buf, start, stride, width, dst),
            _ => self.load_rows_body::<exec::Scalar>(buf, start, stride, width, dst),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load_rows_avx2(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        self.load_rows_body::<exec::Avx2>(buf, start, stride, width, dst)
    }

    #[inline(always)]
    fn load_rows_body<E: exec::KernelExecutor>(
        &mut self,
        buf: BufferId,
        start: usize,
        stride: usize,
        width: usize,
        dst: &mut [f64],
    ) -> Result<(), AccelError> {
        let _scope = phase_if(self.prof, PhaseId::MemLoad);
        self.loads += dst.len() as u64;
        self.loaded |= buf.bit();
        let rows = dst.len() / width;
        // Fast path: while no flip is pending anywhere, no row can
        // observe corruption and no eviction can write one back — cache
        // state cannot affect loaded data, only the other way around.
        // One window borrow covers every row, copies run back to back,
        // and the per-row touch stream (identical order, so ticks, LRU
        // and hit counters match the slow path bit for bit) follows; an
        // overlay has nothing to track. Flips are only added by strikes,
        // never by loads, so the gate cannot flip mid-call.
        if !self.flips_pending() {
            let span = (rows - 1) * stride + width;
            if let Ok((base, window)) = self.mem.window(buf, start, span) {
                for (r, out) in dst.chunks_exact_mut(width).enumerate() {
                    E::copy_f64(&window[r * stride..r * stride + width], out);
                }
                if self.overlay.is_some() {
                    return Ok(());
                }
                let _scope = phase_if(self.prof, PhaseId::CacheAccess);
                let mut wbs = Vec::new();
                for r in 0..rows {
                    self.caches.access_into::<E>(
                        self.unit,
                        base + r * stride * 8,
                        width * 8,
                        false,
                        &mut wbs,
                    );
                }
                debug_assert!(wbs.is_empty(), "write-backs require pending flips");
                return Ok(());
            }
            // Span lookup failed: fall through so the error surfaces
            // with per-row semantics (rows before the bad one load).
        }
        let mut wbs = Vec::new();
        let mut ranges = Vec::new();
        for (r, out) in dst.chunks_exact_mut(width).enumerate() {
            let rstart = start + r * stride;
            let base = {
                let (base, window) = self.mem.window(buf, rstart, width)?;
                E::copy_f64(window, out);
                base
            };
            self.access::<E>(base, width * 8, false, &mut wbs);
            self.write_back(&mut wbs);
            self.walk_corruption(base, width, Some(out), &mut ranges);
        }
        Ok(())
    }

    /// Whether a flip is pending in the cache hierarchy or the overlay.
    #[inline(always)]
    fn flips_pending(&self) -> bool {
        match self.overlay.as_deref() {
            Some(o) => !o.flips.is_empty(),
            None => self.caches.has_pending_corruption(),
        }
    }

    /// One cache access of `len` bytes at `base`, its corrupted
    /// write-backs appended to `wbs`: through the cache hierarchy, or
    /// the overlay's flip ends.
    #[inline(always)]
    fn access<E: exec::KernelExecutor>(
        &mut self,
        base: usize,
        len: usize,
        write: bool,
        wbs: &mut Vec<WriteBack>,
    ) {
        match self.overlay.as_deref_mut() {
            Some(o) => o.access(base, len, wbs),
            None => {
                let _scope = phase_if(self.prof, PhaseId::CacheAccess);
                self.caches
                    .access_into::<E>(self.unit, base, len, write, wbs);
            }
        }
    }

    /// Applies the corrupted write-backs one cache access caused and
    /// clears `wbs` for the next access.
    #[inline(always)]
    fn write_back(&mut self, wbs: &mut Vec<WriteBack>) {
        if wbs.is_empty() {
            return;
        }
        // Corruption reached DRAM mid-run; the run can no longer be
        // proven golden-equivalent.
        match self.overlay.as_deref_mut() {
            Some(o) => o.touched = true,
            None => self.caches.corruption_touched = true,
        }
        let log = self.store_log.as_deref_mut();
        apply_writebacks(self.mem, wbs, log, &mut self.written_back);
        wbs.clear();
    }

    /// Walks the elements of the accessed span of `len` elements at
    /// byte `base` that lie on ever-struck lines. A load (`row` given)
    /// XORs in the mask each element observes; a store supersedes each
    /// element's pending corruption.
    #[inline(always)]
    fn walk_corruption(
        &mut self,
        base: usize,
        len: usize,
        row: Option<&mut [f64]>,
        ranges: &mut Vec<(usize, usize)>,
    ) {
        if !self.flips_pending() {
            return;
        }
        let _scope = phase_if(self.prof, PhaseId::CorruptionScan);
        if let Some(o) = self.overlay.as_deref_mut() {
            self.observed |= o.walk(self.unit, base, len, row);
            return;
        }
        self.caches.corrupted_ranges_into(base, len * 8, ranges);
        match row {
            Some(row) => {
                for &(lo, hi) in ranges.iter() {
                    for (i, v) in row.iter_mut().enumerate().take(hi).skip(lo) {
                        let mask = self.caches.corruption_for(self.unit, base + i * 8);
                        if mask != 0 {
                            *v = f64::from_bits(v.to_bits() ^ mask);
                            // A corrupted value entered the datapath.
                            self.caches.corruption_touched = true;
                            self.observed = true;
                        }
                    }
                }
            }
            None => {
                for &(lo, hi) in ranges.iter() {
                    for i in lo..hi {
                        self.caches.note_element_write(self.unit, base + i * 8);
                    }
                }
            }
        }
    }

    /// Stores `src` to consecutive elements starting at `start` of `buf`
    /// through the cache hierarchy. An armed core-control fault makes the
    /// affected stores write stale store-queue data (the previously stored
    /// value) instead of the computed one.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when the range exceeds the
    /// buffer.
    #[inline]
    pub fn store(&mut self, buf: BufferId, start: usize, src: &[f64]) -> Result<(), AccelError> {
        if src.is_empty() {
            return Ok(());
        }
        // Same single-dispatch structure as [`TileCtx::load_rows`].
        match exec::active() {
            #[cfg(target_arch = "x86_64")]
            // Safety: `exec::active` only reports Avx2 after runtime
            // detection confirmed AVX2 + FMA on this host.
            exec::Isa::Avx2 => unsafe { self.store_avx2(buf, start, src) },
            #[cfg(target_arch = "aarch64")]
            exec::Isa::Neon => self.store_body::<exec::Neon>(buf, start, src),
            _ => self.store_body::<exec::Scalar>(buf, start, src),
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_avx2(
        &mut self,
        buf: BufferId,
        start: usize,
        src: &[f64],
    ) -> Result<(), AccelError> {
        self.store_body::<exec::Avx2>(buf, start, src)
    }

    #[inline(always)]
    fn store_body<E: exec::KernelExecutor>(
        &mut self,
        buf: BufferId,
        start: usize,
        src: &[f64],
    ) -> Result<(), AccelError> {
        let _scope = phase_if(self.prof, PhaseId::MemStore);
        self.stores += src.len() as u64;
        let fault_stores = self.fault.store_at != u64::MAX;
        let base = {
            let (base, window) = self.mem.window_mut(buf, start, src.len())?;
            if fault_stores {
                for (slot, &v) in window.iter_mut().zip(src) {
                    let idx = self.store_ops;
                    self.store_ops += 1;
                    if idx >= self.fault.store_at
                        && idx < self.fault.store_at + self.fault.store_len
                    {
                        *slot = self.last_store; // stale store-queue entry
                    } else {
                        *slot = v;
                        self.last_store = v;
                    }
                }
            } else {
                E::copy_f64(src, window);
                self.store_ops += src.len() as u64;
                if let Some(&last) = src.last() {
                    self.last_store = last;
                }
            }
            base
        };
        if let Some(log) = self.store_log.as_deref_mut() {
            log.record(buf, start, src.len(), base);
        }
        let mut wbs = Vec::new();
        self.access::<E>(base, src.len() * 8, true, &mut wbs);
        self.write_back(&mut wbs);
        // A program store supersedes pending corruption of the element.
        self.walk_corruption(base, src.len(), None, &mut Vec::new());
        Ok(())
    }

    /// Stores a single element through the cache hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::OutOfBounds`] when `index` exceeds the
    /// buffer.
    pub fn write_one(&mut self, buf: BufferId, index: usize, value: f64) -> Result<(), AccelError> {
        self.store(buf, index, &[value])
    }

    pub(crate) fn drain_counters(&self) -> MachineCounters {
        MachineCounters {
            ops: self.ops,
            trans_ops: self.trans_ops,
            loads: self.loads,
            stores: self.stores,
        }
    }
}

/// An element a corrupted write-back landed on: its buffer and global
/// element address.
pub(crate) type WrittenBack = (BufferId, usize);

/// Applies corrupted write-backs (evicted dirty corrupted lines) to
/// backing memory, recording touched elements of a watched buffer, and
/// appends each element written into to `written`.
pub(crate) fn apply_writebacks(
    mem: &mut DeviceMemory,
    wbs: &[WriteBack],
    mut log: Option<&mut StoreLog>,
    written: &mut Vec<WrittenBack>,
) {
    for wb in wbs {
        if let Some(addr) = mem.elem_at_byte(wb.byte_addr) {
            // Ignore failures: a write-back beyond any buffer means the
            // strike corrupted padding bytes, which no element observes.
            let _ = mem.flip_bits(addr.buffer, addr.index, wb.mask);
            written.push((addr.buffer, wb.byte_addr / 8));
            if let Some(l) = log.as_deref_mut() {
                l.record(addr.buffer, addr.index, 1, wb.byte_addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheGeometry, CacheHierarchy};
    use crate::config::DeviceConfig;

    fn machine() -> (DeviceMemory, CacheHierarchy) {
        let cfg = DeviceConfig::builder("t")
            .units(2)
            .max_threads_per_unit(64)
            .build()
            .unwrap();
        (DeviceMemory::new(), CacheHierarchy::new(&cfg))
    }

    #[test]
    fn ops_counted_and_clean_without_fault() {
        let (mut mem, mut caches) = machine();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let r = ctx.fma(2.0, 3.0, 1.0);
        assert_eq!(r, 7.0);
        assert_eq!(ctx.add(1.0, 1.0), 2.0);
        assert_eq!(ctx.mul(2.0, 4.0), 8.0);
        assert_eq!(ctx.div(9.0, 3.0), 3.0);
        assert_eq!(ctx.ops, 4);
        let e = ctx.exp(0.0);
        assert_eq!(e, 1.0);
        assert_eq!(ctx.trans_ops, 1);
    }

    #[test]
    fn logic_fault_hits_exact_op() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.logic_at = 1;
        fault.logic_lanes = 1;
        fault.logic_mask = 1 << 63; // sign flip
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        assert_eq!(ctx.op(5.0), 5.0); // op 0 clean
        assert_eq!(ctx.op(5.0), -5.0); // op 1 corrupted
        assert_eq!(ctx.op(5.0), 5.0); // op 2 clean
    }

    #[test]
    fn vector_fault_hits_lane_burst() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.logic_at = 2;
        fault.logic_lanes = 3;
        fault.logic_mask = 1 << 63;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let got: Vec<f64> = (0..6).map(|_| ctx.op(1.0)).collect();
        assert_eq!(got, vec![1.0, 1.0, -1.0, -1.0, -1.0, 1.0]);
    }

    #[test]
    fn sfu_fault_scales_argument() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.sfu_at = 0;
        // A corrupted range reduction off by -2^5: exp(-32x) explodes
        // for negative arguments.
        fault.sfu_scale = -32.0;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let corrupted = ctx.exp(-1.0);
        assert!(corrupted > 1e13, "exp(32) expected, got {corrupted}");
        let clean = ctx.exp(-1.0); // only trans op 0 was armed
        assert!((clean - (-1.0f64).exp()).abs() < 1e-18);
    }

    /// `clean_span` over a 50-op, 5-`exp` span (ops 100..150, `exp`s
    /// 10..15): clear exactly when the fault's window misses the span.
    #[test]
    fn clean_span_clears_only_spans_the_fault_misses() {
        let (mut mem, mut caches) = machine();
        let mut clean = |fault: TileFault, ops: u64, trans: u64| {
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            (ctx.ops, ctx.trans_ops) = (100, 10);
            ctx.clean_span(ops, trans)
        };
        let logic = |at, lanes| TileFault::logic(at, lanes, 1 << 63);
        let cases = [
            (logic(90, 10), true, "window before the span"),
            (logic(120, 3), false, "window inside"),
            (logic(150, 4), true, "window after"),
            (logic(95, 10), false, "window straddling the first op"),
            (logic(145, 10), false, "window straddling the last op"),
            (logic(100, 1), false, "the first op"),
            (logic(149, 1), false, "the last op"),
            (logic(50, 200), false, "window around the span"),
            (logic(120, 0), true, "no lanes"),
            (TileFault::none(), true, "no fault"),
        ];
        for (fault, want, what) in cases {
            assert_eq!(clean(fault, 50, 5), want, "{what}");
        }
        let sfu = |at| TileFault {
            sfu_at: at,
            sfu_scale: 2.0,
            ..TileFault::none()
        };
        for (at, want) in [(9, true), (10, false), (14, false), (15, true)] {
            assert_eq!(clean(sfu(at), 50, 5), want, "sfu_at {at}");
        }
        assert!(clean(sfu(10), 50, 0), "a span without `exp`s");
        assert!(clean(logic(100, 1), 0, 5), "a span without ops");
        let garble = TileFault {
            garble: true,
            ..TileFault::none()
        };
        assert!(!clean(garble, 50, 5) && !clean(garble, 0, 0), "a garble");
    }

    /// The span query's logic test agrees with `op`'s window check on
    /// every op of the span, near zero and where the index wraps.
    #[test]
    fn clean_span_agrees_with_the_op_window() {
        let (mut mem, mut caches) = machine();
        for base in [0, u64::MAX - 12] {
            for at in (0..20).map(|d| base.wrapping_add(d)) {
                for lanes in 0..5 {
                    for start in (0..16).map(|d| base.wrapping_add(d)) {
                        // The op counter itself never wraps.
                        for ops in (0..6).filter(|&n| start.checked_add(n).is_some()) {
                            let fault = TileFault::logic(at, lanes, 1);
                            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
                            ctx.ops = start;
                            let clear = ctx.clean_span(ops, 0);
                            let hit = (0..ops).any(|i| {
                                let v = ctx.op(0.0);
                                assert_eq!(ctx.ops, start + i + 1);
                                v != 0.0
                            });
                            assert_eq!(clear, !hit, "window {at}+{lanes}, span {start}+{ops}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn garble_replays_stale_values() {
        let (mut mem, mut caches) = machine();
        let mut fault = TileFault::none();
        fault.garble = true;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        let results: Vec<f64> = (0..64).map(|i| ctx.op(10.0 + i as f64)).collect();
        let wrong = results
            .iter()
            .enumerate()
            .filter(|(i, &v)| v != 10.0 + *i as f64)
            .count();
        assert!(wrong > 40, "most op results must be wrong, got {wrong}/64");
        // And every produced value stays near the anchor's magnitude
        // (wrong-address data, not random bit garbage).
        for &v in &results {
            assert!((7.0..80.0).contains(&v), "implausible {v}");
        }
    }

    /// The indexed garble sequence replays the per-op xorshift64 steps it
    /// replaced — pass bit and wobble — across the boundaries where it
    /// grew, and a garbled op reads it by index, not by call order.
    #[test]
    fn garble_seq_matches_the_xorshift_steps() {
        let mut seq = GarbleSeq::new();
        for len in [1, 7, 4096, 4097, 70_000] {
            seq.cover(len);
            assert_eq!(seq.entries.len(), len);
        }
        seq.cover(10);
        assert_eq!(seq.entries.len(), 70_000, "the sequence never shrinks");
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..70_000 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let wobble = 0.75 + (x >> 40) as f64 / (1u64 << 24) as f64 * 0.5;
            let want = if x & 0xF == 0 { 3.0 } else { 2.0 * wobble };
            let got = GarbleSeq::blend(seq.entries[i], 3.0, 2.0);
            assert_eq!(got.to_bits(), want.to_bits(), "op {i}");
        }
        // Ops 4096 and 5 of a garbled tile, out of call order.
        let (mut mem, mut caches) = machine();
        let fault = TileFault {
            garble: true,
            ..TileFault::none()
        };
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        ctx.garble_anchor = Some(2.0);
        ctx.ops = 4096;
        assert_eq!(ctx.op(3.0), GarbleSeq::blend(seq.entries[4096], 3.0, 2.0));
        ctx.ops = 5;
        assert_eq!(ctx.op(3.0), GarbleSeq::blend(seq.entries[5], 3.0, 2.0));
    }

    /// The process holds one garble sequence: a tile that needs no more
    /// entries shares it, and growing extends it, keeping the entries
    /// every tile already read.
    #[test]
    fn the_shared_garble_seq_is_one_grow_only_table() {
        let a = GarbleSeq::shared(100);
        let b = GarbleSeq::shared(a.entries.len());
        assert!(Arc::ptr_eq(&a, &b), "a covered request shares the table");
        let grown = GarbleSeq::shared(a.entries.len() + 1);
        assert!(grown.entries.len() > a.entries.len());
        assert_eq!(grown.entries[..a.entries.len()], a.entries[..]);
        let mut local = GarbleSeq::new();
        local.cover(grown.entries.len());
        assert_eq!(local.entries, grown.entries, "the xorshift sequence");
    }

    #[test]
    fn load_store_roundtrip_through_caches() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("data", 64);
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        ctx.store(buf, 8, &src).unwrap();
        let mut dst = vec![0.0; 16];
        ctx.load(buf, 8, &mut dst).unwrap();
        assert_eq!(dst, src);
        assert_eq!(ctx.loads, 16);
        assert_eq!(ctx.stores, 16);
        assert!(ctx.caches.stats().l2_hits > 0, "reload must hit the cache");
    }

    #[test]
    fn out_of_bounds_load_rejected() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("data", 4);
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let mut dst = vec![0.0; 8];
        assert!(ctx.load(buf, 0, &mut dst).is_err());
        assert!(ctx.store(buf, 2, &[0.0; 4]).is_err());
    }

    #[test]
    fn stale_store_fault_replays_previous_value() {
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("out", 8);
        let mut fault = TileFault::none();
        fault.store_at = 2;
        fault.store_len = 2;
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
        ctx.store(buf, 0, &[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        let mem2 = ctx.mem.to_vec(buf).unwrap();
        // Stores 2 and 3 replay the last good value (20.0).
        assert_eq!(&mem2[..5], &[10.0, 20.0, 20.0, 20.0, 50.0]);
    }

    #[test]
    fn corrupted_line_observed_by_load() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc_init("in", &vec![1.0; 32]);
        let mut rng = SmallRng::seed_from_u64(3);
        {
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            let mut dst = vec![0.0; 32];
            ctx.load(buf, 0, &mut dst).unwrap(); // bring lines in
        }
        let info = caches.strike_l2(&mut rng, 1 << 63).unwrap();
        let victim = mem.elem_at_byte(info.byte_addr).unwrap();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        let mut got = [0.0];
        ctx.load(buf, victim.index, &mut got).unwrap();
        assert_eq!(got[0], -1.0, "sign-flipped while resident");
        // Backing memory itself stays clean.
        assert_eq!(ctx.mem.read(buf, victim.index).unwrap(), 1.0);
    }

    #[test]
    fn store_log_records_only_watched_buffer_spans() {
        let (mut mem, mut caches) = machine();
        let out = mem.alloc("out", 32);
        let other = mem.alloc("other", 32);
        let mut log = StoreLog::new(Some(out));
        {
            let mut ctx =
                TileCtx::new(&mut mem, &mut caches, 0, TileFault::none()).with_store_log(&mut log);
            ctx.store(out, 4, &[1.0; 8]).unwrap();
            ctx.store(other, 0, &[2.0; 4]).unwrap();
            ctx.store(out, 20, &[3.0; 2]).unwrap();
        }
        let spans: Vec<_> = log.spans.iter().map(|s| (s.start, s.len)).collect();
        assert_eq!(spans, vec![(4, 8), (20, 2)]);
        let mut all = StoreLog::new(None);
        all.record(other, 3, 2, 1024);
        assert_eq!(
            all.spans,
            [Stored {
                buf: other,
                start: 3,
                len: 2,
                at: 128
            }]
        );
    }

    #[test]
    fn program_store_clears_pending_corruption() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        let (mut mem, mut caches) = machine();
        let buf = mem.alloc("out", 32);
        let mut rng = SmallRng::seed_from_u64(4);
        {
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            ctx.store(buf, 0, &vec![5.0; 32]).unwrap();
        }
        let info = caches.strike_l2(&mut rng, 0xFF).unwrap();
        let victim = mem.elem_at_byte(info.byte_addr).unwrap();
        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
        ctx.write_one(buf, victim.index, 9.0).unwrap();
        let mut got = [0.0];
        ctx.load(buf, victim.index, &mut got).unwrap();
        assert_eq!(got[0], 9.0);
    }

    /// `load_rows` is a drop-in for one `load` per row: same bytes,
    /// same loads counter, same cache hit/miss stream — in the clean
    /// fast path, with a pending flip forcing the per-row slow path, and
    /// with a flipped dirty L2 line that the rows evict mid-call, so its
    /// write-back lands in another buffer between rows.
    #[test]
    fn load_rows_matches_per_row_loads() {
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng as SmallRng;
        #[derive(Debug, Clone, Copy)]
        enum Case {
            Clean,
            FlipOnLoadedLine,
            FlipEvictedDirty,
        }
        let data: Vec<f64> = (0..96).map(|i| f64::from(i) * 0.5 - 3.0).collect();
        let run = |case: Case, bulk: bool| {
            let (mut mem, mut caches) = match case {
                // 8 L2 lines: the rows below evict every line the store
                // dirtied.
                Case::FlipEvictedDirty => {
                    let cfg = DeviceConfig::builder("small-l2")
                        .units(2)
                        .max_threads_per_unit(64)
                        .l1(CacheGeometry::new(256, 64, 2).unwrap())
                        .l2(CacheGeometry::new(512, 64, 2).unwrap())
                        .build()
                        .unwrap();
                    (DeviceMemory::new(), CacheHierarchy::new(&cfg))
                }
                _ => machine(),
            };
            let buf = mem.alloc_init("in", &data);
            let out = mem.alloc("out", 32);
            let mut rng = SmallRng::seed_from_u64(9);
            match case {
                Case::Clean => {}
                Case::FlipOnLoadedLine => {
                    {
                        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
                        let mut warm = vec![0.0; data.len()];
                        ctx.load(buf, 0, &mut warm).unwrap();
                    }
                    caches.strike_l2(&mut rng, 1 << 62).expect("line resident");
                }
                Case::FlipEvictedDirty => {
                    {
                        let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
                        ctx.store(out, 0, &[4.0; 32]).unwrap();
                    }
                    // Only the stored (dirty) lines are resident.
                    let info = caches.strike_l2(&mut rng, 1 << 62).expect("line resident");
                    assert_eq!(mem.elem_at_byte(info.byte_addr).unwrap().buffer, out);
                }
            }
            if !matches!(case, Case::Clean) {
                assert!(caches.has_pending_corruption());
            }
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, TileFault::none());
            let (stride, width, rows) = (12usize, 5usize, 7usize);
            let mut dst = vec![0.0; rows * width];
            if bulk {
                ctx.load_rows(buf, 2, stride, width, &mut dst).unwrap();
            } else {
                for (r, row) in dst.chunks_exact_mut(width).enumerate() {
                    ctx.load(buf, 2 + r * stride, row).unwrap();
                }
            }
            let (loads, written_back) = (ctx.loads, ctx.written_back.clone());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            let image = bits(&mem.to_vec(out).unwrap());
            if matches!(case, Case::FlipEvictedDirty) {
                assert!(
                    !written_back.is_empty() && written_back.iter().all(|&(b, _)| b == out),
                    "the struck line wrote back"
                );
                assert!(image.iter().any(|&b| b != 4.0f64.to_bits()));
            }
            let touched = caches.corruption_touched();
            (
                bits(&dst),
                loads,
                caches.stats(),
                image,
                written_back,
                touched,
            )
        };
        for case in [Case::Clean, Case::FlipOnLoadedLine, Case::FlipEvictedDirty] {
            assert_eq!(
                run(case, true),
                run(case, false),
                "{case:?}: bulk and per-row loads must agree"
            );
        }
    }

    /// `fma_block` equals the row-by-row reference loop bit for bit on
    /// every lane (an odd side exercises the paired lanes' one-row tail),
    /// counts one op per element update, and lands an armed logic fault
    /// and a garble's per-op sequence on exactly the reference's ops.
    #[test]
    fn fma_block_matches_reference_loop() {
        const N: usize = 5;
        let mut a = [[0.0; N]; N];
        let mut b = [[0.0; N]; N];
        for r in 0..N {
            for c in 0..N {
                a[r][c] = (r * N + c) as f64 * 0.25 - 1.5;
                b[r][c] = 1.0 / ((r + c) as f64 + 1.0);
            }
        }
        let reference = |fault: TileFault| {
            let (mut mem, mut caches) = machine();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            let mut acc = [[0.5; N]; N];
            for r in 0..N {
                for k in 0..N {
                    for c in 0..N {
                        acc[r][c] = ctx.fma(a[r][k], b[k][c], acc[r][c]);
                    }
                }
            }
            (acc, ctx.ops)
        };
        let blocked = |fault: TileFault| {
            let (mut mem, mut caches) = machine();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, 0, fault);
            let mut acc = [[0.5; N]; N];
            if fault.garble {
                ctx.fma_block::<Garbled, N>(&a, &b, &mut acc);
            } else if fault.is_armed() {
                ctx.fma_block::<Armed, N>(&a, &b, &mut acc);
            } else {
                ctx.fma_block::<Clean, N>(&a, &b, &mut acc);
            }
            (acc, ctx.ops)
        };
        let faults = {
            let mut mid = TileFault::none();
            mid.logic_at = (N * N * N / 2) as u64;
            mid.logic_lanes = 3;
            mid.logic_mask = 1 << 63;
            let masked = TileFault::logic(0, 1, 0);
            let garble = TileFault {
                garble: true,
                ..TileFault::none()
            };
            [TileFault::none(), mid, masked, garble]
        };
        for fault in faults {
            let (ref_acc, ref_ops) = reference(fault);
            let (blk_acc, blk_ops) = blocked(fault);
            assert_eq!(blk_ops, ref_ops, "op count");
            for r in 0..N {
                for c in 0..N {
                    assert_eq!(
                        blk_acc[r][c].to_bits(),
                        ref_acc[r][c].to_bits(),
                        "acc[{r}][{c}] under fault at {}",
                        fault.logic_at
                    );
                }
            }
        }
    }
}
