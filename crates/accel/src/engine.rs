//! The tiled execution engine.
//!
//! Executes a [`TiledProgram`] tile by tile in dispatch order on a
//! simulated device, delivering [`StrikeSpec`]s when execution reaches
//! their instants. Execution is deterministic for a given program: a
//! fault-free run reproduces the golden output exactly (the paper
//! computes golden outputs "on the very same device used for
//! experiments" for the same reason, §IV-D).
//!
//! The *golden driver* ([`Engine::golden`], [`Engine::golden_snapshotted`])
//! runs fault-free from tile 0, takes no RNG and, when asked, captures
//! snapshots and the golden ledger. The *injection driver* sets up, runs
//! one tile loop and ends. [`Engine::run`] starts it from tile 0; a
//! [`ForkCursor`], the one fork path, from a warm state — golden state
//! restored from a snapshot and rolled forward, bit-identical by the
//! resumability contract — and a register strike's fork may start at
//! its victim. A value-only fork (no skip or redirect strike, every cache strike at
//! the warm instant) runs its flips in an overlay the golden line index
//! ends. A fork tracks, element by element, where its memory may differ
//! from golden's: each tile's stores are compared with the golden
//! ledger's values at the same instant. Per tile, the loop asks an exit
//! policy whether to skip the tile (a value-only fork replays a tile that
//! loads only golden values by writing its golden stores) and whether to
//! stop after it: at a *dead* strike (nothing observable touched; the
//! caller skips the compare) or, on a fork, a *contained* fault (the
//! golden suffix is spliced). Every rule keeps the outcome the same bit
//! for bit.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use radcrit_core::compare::compare_mapped;
use radcrit_core::report::ErrorReport;
use radcrit_core::shape::{Coord, OutputShape};
use radcrit_core::DirtyRegion;
use radcrit_obs::profile::{phase, phase_if, phase_with, profiling_enabled, PhaseId};
use radcrit_obs::MetricsRegistry;

use crate::cache::{CacheHierarchy, CacheStats, FlipLine, Overlay};
use crate::config::DeviceConfig;
use crate::error::AccelError;
use crate::memory::DeviceMemory;
use crate::profile::ExecutionProfile;
use crate::program::{
    apply_writebacks, MachineCounters, StoreLog, TileCtx, TileFault, TileId, TiledProgram,
    WrittenBack,
};
use crate::scheduler::DispatchPlan;
use crate::snapshot::{
    EngineSnapshot, GoldenLedger, LedgerTile, LineIndex, SnapshotPolicy, SnapshotSet,
};
use crate::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use crate::taint::TaintSet;
use crate::trace::{ExecutionTrace, TileTrace};

/// The result of one engine run.
///
/// The outcome always describes the program run to completion, even when
/// a forked run stopped at a contained fault and spliced the golden
/// suffix; crash/hang outcomes are classified by the fault layer *before*
/// execution (a crashed run has no output to analyze). `strike_delivered`
/// reports whether the strike found live state to corrupt — `false` means
/// the strike was architecturally masked (empty cache set, no pending
/// victim).
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The output buffer after the final cache flush (stale for a
    /// golden-equivalent run).
    output: Vec<f64>,
    /// Dynamic profile of the run.
    pub profile: ExecutionProfile,
    /// Whether the strike corrupted any machine state.
    pub strike_delivered: bool,
    /// How each strike was resolved against live machine state, in
    /// delivery order (empty for golden runs).
    pub resolutions: Vec<StrikeResolution>,
    /// For forked runs: the output elements that could differ from the
    /// golden output — everything outside is bit-equal by the resume
    /// invariant. `None` for runs from tile 0, which need a dense
    /// compare.
    pub dirty: Option<DirtyRegion>,
    /// The engine proved mid-run that every strike died without touching
    /// any observable state (no pending flips, no observed corrupted
    /// load, no write-back, no armed core or scheduler fault) and stopped
    /// executing early: by the resumability contract the finished run's
    /// output would be bit-equal to golden, so [`RunOutcome::compare`]
    /// reports no mismatch and [`RunOutcome::output`] no buffer — the
    /// buffer, profile and trace stop at the exit tile. (A run whose fault *did* reach state but stayed
    /// contained stops early too, on forks only, but splices the golden
    /// suffix and reports `false` here: its outcome is complete.)
    pub golden_equivalent: bool,
}

impl RunOutcome {
    /// The run's output, or `None` for a golden-equivalent run, whose
    /// output is golden's.
    #[must_use]
    pub fn output(&self) -> Option<&[f64]> {
        (!self.golden_equivalent).then_some(&self.output[..])
    }

    /// The one per-injection output compare: the run's mismatches against
    /// `golden` at the coordinates `coord` maps element indices to, over
    /// its dirty region (the whole output from tile 0) — none for a
    /// golden-equivalent run, whose buffer is never read.
    pub fn compare(
        &self,
        golden: &[f64],
        shape: OutputShape,
        coord: impl Fn(usize) -> Coord,
    ) -> ErrorReport {
        if self.golden_equivalent {
            return ErrorReport::new(shape, Vec::new());
        }
        compare_mapped(golden, &self.output, shape, self.dirty.as_ref(), coord)
    }
}

/// The result of a golden (fault-free) run.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The golden output buffer.
    pub output: Vec<f64>,
    /// Dynamic profile of the run: what a neutron can hit.
    pub profile: ExecutionProfile,
}

/// Reusable per-worker state for repeated forks of one program on one
/// engine: the post-setup memory template (so `setup` runs once, not per
/// bucket), the previous fork's memory image and cache tables (so
/// buffers are restored in place instead of reallocated) and its taint
/// set, emptied between forks.
///
/// A scratch is only valid for the `(engine, program)` pair it was first
/// used with: each [`ForkCursor`] owns one.
#[derive(Debug, Default)]
struct RunScratch {
    template: Option<DeviceMemory>,
    spare: Option<DeviceMemory>,
    spare_caches: Option<CacheHierarchy>,
    /// Whether the spare memory synced to the warm state last restored
    /// with this scratch (a cursor forks only off that one): then a fork
    /// restores only the buffers either side has written since instead
    /// of every buffer.
    spare_synced: bool,
    taint: TaintSet,
}

impl RunScratch {
    /// An owned memory image equal to `warm`'s, reusing the spare
    /// allocation from the previous fork. When the spare last synced to
    /// this same warm state, only buffers written on either side since
    /// can differ, so the rest of the image copy is skipped.
    fn memory_of(&mut self, warm: &WarmState) -> DeviceMemory {
        let synced = std::mem::replace(&mut self.spare_synced, true);
        match self.spare.take() {
            Some(mut m) if synced => {
                m.restore_written_from(&warm.mem);
                m
            }
            Some(mut m) => {
                m.restore_from(&warm.mem);
                m
            }
            None => warm.mem.clone(),
        }
    }

    /// An owned cache hierarchy equal to `src`, reusing the previous
    /// run's allocations (set vectors, flip tables) when available —
    /// without `src`, for a value-only fork's tiles to hold but never
    /// touch (they run against an overlay), the spare as it is.
    fn caches_of(&mut self, cfg: &DeviceConfig, src: Option<&CacheHierarchy>) -> CacheHierarchy {
        match (self.spare_caches.take(), src) {
            (Some(mut c), Some(src)) => {
                c.restore_from(src);
                c
            }
            (c, None) => c.unwrap_or_else(|| CacheHierarchy::new(cfg)),
            (None, Some(src)) => src.clone(),
        }
    }
}

/// Restored-and-advanced golden machine state shared by a bucket of
/// injections whose strikes resume from the same snapshot.
///
/// Built once per bucket by [`Engine::warm_restore`], rolled forward
/// tile by tile with [`Engine::warm_advance`], and forked (copied into
/// the scratch spares, never mutated) per strike by the injection driver
/// — all three steps driven by a [`ForkCursor`].
/// Because golden execution is deterministic, the warm state at tile `t`
/// is bit-equal to a run from tile 0 at `t` — which is what makes forked
/// runs bit-identical to reference runs.
#[derive(Debug)]
struct WarmState {
    mem: DeviceMemory,
    caches: CacheHierarchy,
    counters: MachineCounters,
    l2_resident_samples: f64,
    /// The next tile golden execution would run; strikes at
    /// `>= next_tile` can fork from this state as-is.
    next_tile: usize,
    /// The snapshot tile this state was restored from (the bucket key).
    resume_tile: usize,
    /// The golden run tile by tile: its output spans from `resume_tile`
    /// on, unioned with a fork's own store log, bound the fork's dirty
    /// output region, and a contained fork splices its suffix from it.
    ledger: Arc<GoldenLedger>,
}

/// How one strike was resolved against live machine state — the piece of
/// fault provenance only the engine knows, because victim selection
/// consumes the injection's RNG stream at delivery time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrikeResolution {
    /// The dispatch position at which the strike landed.
    pub at_tile: usize,
    /// The struck structure's site name (see
    /// [`StrikeTarget::site_name`]).
    pub site: &'static str,
    /// Whether the strike found live state to corrupt.
    pub delivered: bool,
    /// The dispatch position whose state was corrupted, when the target
    /// resolves to a specific tile (register-file strikes pick a pending
    /// victim in the wave; pipeline strikes hit the executing tile).
    pub victim_tile: Option<usize>,
    /// The execution unit involved, for unit-scoped targets.
    pub unit: Option<usize>,
    /// The destination a scheduler redirect re-dispatched the victim to.
    pub redirect_dest: Option<usize>,
}

/// The simulation engine for one device configuration.
///
/// # Examples
///
/// ```
/// use radcrit_accel::{config::DeviceConfig, engine::Engine};
///
/// let engine = Engine::new(DeviceConfig::kepler_k40());
/// assert_eq!(engine.config().units(), 15);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: DeviceConfig,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Engine {
    /// Creates an engine for `cfg`.
    pub fn new(cfg: DeviceConfig) -> Self {
        Engine { cfg, metrics: None }
    }

    /// Attaches a metrics registry: subsequent runs record run counts,
    /// fork-exit counters, snapshot bytes and dispatch-plan geometry.
    /// Wall time is not timed here: the engine's `radcrit_obs::profile`
    /// scopes (tile execution, memory sub-phases, snapshot capture)
    /// are the one clock, and the campaign drains them into the
    /// registry's `radcrit_phase_*` counters.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The device configuration this engine simulates.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Runs `program` without faults and returns its golden output and
    /// execution profile.
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
    ) -> Result<GoldenRun, AccelError> {
        Ok(self.run_golden(program, None)?.0)
    }

    /// Like [`Engine::golden`], but additionally captures golden-prefix
    /// machine snapshots per `policy` for a [`ForkCursor`] to fork
    /// injections from. The returned run is bit-identical to a plain
    /// golden run; the [`SnapshotSet`] is empty when the program is not
    /// [`TiledProgram::resumable`] or the byte budget admits no snapshot.
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden_snapshotted<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
        policy: &SnapshotPolicy,
    ) -> Result<(GoldenRun, SnapshotSet), AccelError> {
        self.run_golden(program, Some(*policy))
    }

    /// Runs `program` from tile 0 — the reference path every fork
    /// reproduces bit for bit — delivering each of `strikes` when
    /// dispatch reaches its instant. `rng` resolves strike targets
    /// against live machine state (choice of resident line, victim tile,
    /// redirect destination); an empty `strikes` never consults it.
    ///
    /// `trace`, when given, receives one [`TileTrace`] per executed tile
    /// — the join between a strike and the tiles that touched struck
    /// state afterwards. Tracing never consults the RNG, so a traced run
    /// resolves strikes exactly as an untraced one.
    ///
    /// Several strikes in one execution model the regime the paper's
    /// experimental design avoids (§IV-D keeps observed error rates below
    /// 10⁻³/execution so at most one neutron corrupts a run); campaigns
    /// pass exactly one.
    ///
    /// # Errors
    ///
    /// [`AccelError::StrikeOutOfRange`] if a strike instant is past the
    /// last tile; propagates program errors.
    pub fn run<P, R>(
        &self,
        program: &mut P,
        strikes: &[StrikeSpec],
        rng: &mut R,
        trace: Option<&mut ExecutionTrace>,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        self.inject(program, strikes, rng, None, trace)
    }

    /// The injection driver: from tile 0 without `fork`, else a copy of
    /// the warm state in the scratch spares running the suffix from
    /// `warm.next_tile` (or until its fault is contained, splicing the
    /// rest from the golden ledger), bit-identical to the reference path
    /// and with the dirty output region (its own stores union the golden
    /// spans of the tiles it executed). A strike before `next_tile` is
    /// [`AccelError::StrikeOutOfRange`], except a register strike whose
    /// victim has not run: it is delivered before the first tile.
    fn inject<P, R>(
        &self,
        program: &mut P,
        strikes: &[StrikeSpec],
        rng: &mut R,
        fork: Option<(&WarmState, &mut RunScratch)>,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let (warm, mut scratch) = fork.unzip();
        let plan = self.plan_of(program);
        let mut run =
            self.start_injection(program, strikes, &plan, rng, warm, scratch.as_deref_mut())?;
        let mut policy = ExitPolicy {
            plan: &plan,
            ledger: warm.map(|w| &*w.ledger),
            last_strike: strikes.iter().map(|s| s.at_tile).max(),
            resumable: program.resumable(),
            taint: scratch
                .as_deref_mut()
                .map(|sc| std::mem::take(&mut sc.taint))
                .unwrap_or_default(),
            line_elems: CacheHierarchy::line_bytes_of(&self.cfg) / 8,
        };
        let exit = self.inject_tiles(program, rng, &mut run, &mut policy, trace.as_deref_mut());
        if let Some(sc) = scratch.as_deref_mut() {
            policy.taint.reset();
            sc.taint = policy.taint;
        }
        self.end_injection(program, &plan, run, exit?, scratch, trace)
    }

    /// The dispatch plan `program` runs under on this device.
    fn plan_of<P: TiledProgram + ?Sized>(&self, program: &P) -> DispatchPlan {
        let tiles = program.tile_count();
        DispatchPlan::new(
            &self.cfg,
            tiles,
            program.tiles_per_launch().min(tiles).max(1),
            program.threads_per_tile(),
            program.local_mem_per_tile(),
        )
    }

    /// Restores the nearest snapshot at or before `tile` into an owned
    /// [`WarmState`] — a cursor's once-per-bucket restore — sharing the
    /// set's golden ledger. `reuse` recycles a previous bucket's
    /// allocations (memory image, cache tables). The program must be
    /// resumable and a snapshot must cover `tile` (a cursor's bucket).
    fn warm_restore<P>(
        &self,
        program: &mut P,
        snapshots: &SnapshotSet,
        tile: usize,
        scratch: &mut RunScratch,
        reuse: Option<WarmState>,
    ) -> Result<WarmState, AccelError>
    where
        P: TiledProgram + ?Sized,
    {
        let snap = snapshots
            .resume_point(tile)
            .expect("a snapshot covers the tile");
        // `program.setup` runs once per scratch, for the template (and the
        // program's buffer ids).
        if scratch.template.is_none() {
            let mut m = DeviceMemory::new();
            program.setup(&mut m)?;
            scratch.template = Some(m);
        }
        let template = scratch.template.as_ref().expect("set above");
        let (mut mem, caches) = match reuse {
            Some(w) => {
                let mut m = w.mem;
                m.restore_from(template);
                let mut c = w.caches;
                c.restore_from(&snap.caches);
                (m, c)
            }
            None => (template.clone(), snap.caches.clone()),
        };
        mem.apply_delta(&snap.mem_delta)?;
        // Baseline for the dirty-only fork restore: from here on the
        // written flags name the buffers golden advancement touches.
        mem.reset_write_tracking();
        scratch.spare_synced = false;
        Ok(WarmState {
            mem,
            caches,
            counters: snap.counters,
            l2_resident_samples: snap.l2_resident_samples,
            next_tile: snap.at_tile,
            resume_tile: snap.at_tile,
            ledger: Arc::clone(&snapshots.ledger),
        })
    }

    /// Rolls `warm` forward fault-free to `to_tile` (exclusive) — the
    /// prefix work a bucket's strikes share — and returns how many tiles
    /// it executed.
    fn warm_advance<P>(
        &self,
        program: &mut P,
        warm: &mut WarmState,
        to_tile: usize,
    ) -> Result<usize, AccelError>
    where
        P: TiledProgram + ?Sized,
    {
        let to_tile = to_tile.min(program.tile_count());
        if to_tile <= warm.next_tile {
            return Ok(0);
        }
        let plan = self.plan_of(program);
        let advanced = to_tile - warm.next_tile;
        let prof = profiling_enabled();
        for pos in warm.next_tile..to_tile {
            let unit = plan.unit_of(pos);
            let mut ctx = TileCtx::new(&mut warm.mem, &mut warm.caches, unit, TileFault::none());
            {
                let _scope = phase_if(prof, PhaseId::TileExecute);
                program.execute_tile(TileId(pos), &mut ctx)?;
            }
            warm.counters.add(ctx.drain_counters());
            warm.l2_resident_samples += warm.caches.l2_resident_lines() as f64;
        }
        warm.next_tile = to_tile;
        Ok(advanced)
    }

    /// The golden driver: a fault-free run from tile 0 that, with
    /// `capture`, also records a resumable program's snapshots and golden
    /// ledger (per tile its counters, cache deltas, buffers and output
    /// spans, and the line log the line index is built from).
    fn run_golden<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
        capture: Option<SnapshotPolicy>,
    ) -> Result<(GoldenRun, SnapshotSet), AccelError> {
        let tiles = program.tile_count();
        let plan = self.plan_of(program);
        let mut mem = DeviceMemory::new();
        program.setup(&mut mem)?;
        let mut caches = CacheHierarchy::new(&self.cfg);
        if let Some(m) = self.metrics.as_deref() {
            m.counter_add("radcrit_engine_runs_total", &[], 1);
            plan.observe(m);
        }
        // The capture stride: explicit, or as many evenly spaced snapshots
        // as the byte budget admits. A snapshot stores only written
        // buffers (≈ the output) plus cache metadata, bounded by what can
        // be resident at once: no more distinct lines than the footprint.
        let capture = capture.filter(|_| program.resumable() && tiles > 0);
        let capture = capture.map(|policy| {
            let line = caches.line_bytes().max(1);
            let out_bytes = mem.len_of(program.output()).unwrap_or(0) * 8;
            let capacity = self.cfg.l2().size_bytes + self.cfg.units() * self.cfg.l1().size_bytes;
            let resident = mem.total_bytes().min(capacity);
            let est = out_bytes + caches.approx_heap_bytes() + resident / line * 48;
            let max_snaps = (policy.budget() / est.max(1)).max(1);
            let stride = match policy.stride {
                0 => tiles.div_ceil(max_snaps).max(1),
                stride => stride,
            };
            // Delta tracking baseline: the post-setup image.
            mem.reset_write_tracking();
            caches.history = Some(Box::default());
            (stride, policy.budget())
        });
        let mut set = SnapshotSet::default();
        // The ledger, and the stores it attributes to each tile.
        let mut ledger =
            capture.map(|_| (GoldenLedger::new(program.output()), StoreLog::new(None)));
        let mut totals = MachineCounters::default();
        let mut l2_resident_samples = 0.0;
        let prof = profiling_enabled();
        for pos in 0..tiles {
            if let Some((_, budget)) = capture.filter(|&(stride, _)| pos % stride == 0) {
                let _scope = phase_if(prof, PhaseId::SnapshotCapture);
                let snap = EngineSnapshot {
                    at_tile: pos,
                    mem_delta: mem.written_delta(),
                    caches: caches.clone_state(),
                    counters: totals,
                    l2_resident_samples,
                };
                if !set.push(snap, budget) {
                    if let Some(m) = self.metrics.as_deref() {
                        m.counter_add("radcrit_snapshot_skipped_tiles_total", &[], 1);
                    }
                } else if let Some((g, _)) = ledger.as_mut() {
                    // Snapshots come first: the journal keeps what is left.
                    g.cut_journal(budget.saturating_sub(set.bytes));
                }
            }
            let unit = plan.unit_of(pos);
            if let Some(h) = caches.history.as_deref_mut() {
                h.begin_tile(pos, unit);
            }
            let before = caches.stats();
            let mut ctx = TileCtx::new(&mut mem, &mut caches, unit, TileFault::none());
            if let Some((_, log)) = ledger.as_mut() {
                ctx = ctx.with_store_log(log);
            }
            {
                let _scope = phase_if(prof, PhaseId::TileExecute);
                program.execute_tile(TileId(pos), &mut ctx)?;
            }
            let counters = ctx.drain_counters();
            let loaded = ctx.loaded;
            totals.add(counters);
            if let (Some((g, log)), Some((_, budget))) = (ledger.as_mut(), capture) {
                let tile = LedgerTile {
                    counters,
                    cache: caches.stats().since(&before),
                    loaded,
                    ..LedgerTile::default()
                };
                // The journal takes what the snapshots leave of the budget.
                let room = budget.saturating_sub(set.bytes);
                g.push_tile(tile, log.spans.drain(..), &mem, room)?;
            }
            l2_resident_samples += caches.l2_resident_lines() as f64;
        }
        let lines = caches
            .history
            .take()
            .map(|h| LineIndex::new(*h, caches.l2_dirty_lines()));
        // Golden holds no flip, so the final flush would write nothing
        // back; it would only empty the caches.
        let mut cache = caches.stats();
        cache.l2_resident_lines = 0;
        let (output, profile) =
            self.finish(program, &plan, &mut mem, totals, cache, l2_resident_samples)?;
        if let (Some((mut g, _)), Some(lines), Some((_, budget))) = (ledger, lines, capture) {
            let room = budget.saturating_sub(set.bytes);
            g.finish(&output, room, lines);
            set.ledger = Arc::new(g);
            if let Some(m) = self.metrics.as_deref() {
                m.gauge_set("radcrit_snapshot_bytes", &[], set.cost_bytes() as f64);
            }
        }
        Ok((GoldenRun { output, profile }, set))
    }

    /// The setup of an injected run: checks the strike instants, builds
    /// the machine — from tile 0, or for a fork a copy of `warm` in
    /// `scratch`'s spares, with an overlay in place of the caches when
    /// the fork is value-only — and delivers a deferred start's strikes.
    fn start_injection<'w, P, R>(
        &self,
        program: &mut P,
        strikes: &'w [StrikeSpec],
        plan: &DispatchPlan,
        rng: &mut R,
        warm: Option<&'w WarmState>,
        scratch: Option<&mut RunScratch>,
    ) -> Result<Injection<'w>, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let tiles = plan.tiles();
        for s in strikes {
            // A fork replays tiles from `next_tile` on; a strike before
            // that instant could never be delivered — unless it only arms
            // a later victim (checked at delivery below).
            let front = warm.filter(|_| !s.target.is_deferrable());
            let (tile, tiles) = match front.map_or(0, |w| w.next_tile) {
                _ if s.at_tile >= tiles => (s.at_tile, tiles),
                front if s.at_tile < front => (s.at_tile, front),
                _ => continue,
            };
            return Err(AccelError::StrikeOutOfRange { tile, tiles });
        }
        // A value-only fork — no strike changes the address stream, and
        // every cache strike lands at the warm state's instant — runs
        // against an overlay of its flips instead of a copy of the warm
        // caches.
        use SchedulerEffect::{RedirectTile, SkipTile};
        let value_only = |w: &&WarmState| {
            strikes.iter().all(|s| match s.target {
                StrikeTarget::Scheduler(SkipTile | RedirectTile) => false,
                StrikeTarget::L1 { .. } | StrikeTarget::L2 { .. } => s.at_tile == w.next_tile,
                _ => true,
            })
        };
        let overlay = warm.filter(value_only);
        let overlay = overlay.map(|w| Overlay::new(&w.caches, w.ledger.clone()));
        let (mem, caches, totals, l2_resident_samples) = match (warm, scratch) {
            // Fork: copy the bucket's warm state into the scratch spares.
            // It already sits at `next_tile`, prefix replay included.
            (Some(w), Some(sc)) => (
                sc.memory_of(w),
                sc.caches_of(&self.cfg, overlay.is_none().then_some(&w.caches)),
                w.counters,
                w.l2_resident_samples,
            ),
            _ => {
                let mut m = DeviceMemory::new();
                program.setup(&mut m)?;
                let caches = CacheHierarchy::new(&self.cfg);
                (m, caches, MachineCounters::default(), 0.0)
            }
        };
        if let Some(m) = self.metrics.as_deref() {
            m.counter_add("radcrit_engine_runs_total", &[], 1);
            if warm.is_some() {
                m.counter_add("radcrit_engine_forked_runs_total", &[], 1);
            }
            plan.observe(m);
        }
        let mut run = Injection {
            warm,
            strikes,
            mem,
            caches,
            overlay,
            totals,
            l2_resident_samples,
            store_log: warm.map(|_| StoreLog::new(Some(program.output()))),
            pending: PendingFaults::default(),
            resolutions: Vec::new(),
        };
        // Deferred start: register-file strikes before the fork's first
        // tile, delivered in dispatch order with the draws delivery at
        // their instant would make. Their victim must not have run yet.
        let start = warm.map_or(0, |w| w.next_tile);
        let mut early: Vec<&StrikeSpec> = strikes.iter().filter(|s| s.at_tile < start).collect();
        early.sort_by_key(|s| s.at_tile);
        for s in &early {
            if let Some(tile) = run.deliver(s, s.at_tile, plan, rng).filter(|&v| v < start) {
                return Err(AccelError::StrikeOutOfRange { tile, tiles: start });
            }
        }
        if let (Some(m), false) = (self.metrics.as_deref(), early.is_empty()) {
            m.counter_add("radcrit_bucket_deferred_forks_total", &[], 1);
        }
        Ok(run)
    }

    /// The tile loop of an injected run: delivers each strike at its
    /// instant and runs the tiles from the start on, asking `policy`
    /// whether to skip each and whether the run may stop after it.
    /// Returns the exit taken, with the tile it was taken after.
    fn inject_tiles<P, R>(
        &self,
        program: &mut P,
        rng: &mut R,
        run: &mut Injection<'_>,
        policy: &mut ExitPolicy<'_>,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<Option<(usize, Exit)>, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let plan = policy.plan;
        let prof = profiling_enabled();
        let mut skipped = 0u64;
        let mut exit = None;
        for pos in run.warm.map_or(0, |w| w.next_tile)..plan.tiles() {
            for s in run.strikes.iter().filter(|s| s.at_tile == pos) {
                run.deliver(s, pos, plan, rng);
            }
            let Some((effective_tile, fault)) = run.pending.tile_at(pos, plan) else {
                continue;
            };
            let unit = plan.unit_of(pos);
            let carried = fault != TileFault::none();
            // What golden did in this tile, for a value-only fork.
            let golden = run.overlay.as_mut().map(|o| o.begin_tile(pos));
            let clean = !carried && effective_tile == pos;
            let skip = clean
                && run
                    .overlay
                    .as_ref()
                    .is_some_and(|o| policy.skips(pos, unit, o));
            let mut written_back = Vec::new();
            match (golden.filter(|_| skip), run.overlay.as_mut()) {
                // A skipped tile would compute golden's values: write its
                // golden stores, end the flips golden evicts during it, and
                // add its golden counters and trace.
                (Some(t), Some(o)) => {
                    skipped += 1;
                    o.ledger.write_stores(&mut run.mem, pos)?;
                    let wbs = o.end_in_tile(pos);
                    let log = run.store_log.as_mut();
                    apply_writebacks(&mut run.mem, &wbs, log, &mut written_back);
                    run.totals.add(t.counters);
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.push(tile_trace(pos, unit, &t.counters, &t.cache));
                    }
                    policy.after_stores(pos, None, &run.pending, &run.mem, &written_back)?;
                }
                (_, overlay) => {
                    let before = trace.is_some().then(|| run.caches.stats());
                    let mut ctx = TileCtx::new(&mut run.mem, &mut run.caches, unit, fault);
                    if let Some(log) = run.store_log.as_mut() {
                        ctx = ctx.with_store_log(log);
                    }
                    ctx.overlay = overlay;
                    {
                        let _scope = phase_if(prof, PhaseId::TileExecute);
                        program.execute_tile(TileId(effective_tile), &mut ctx)?;
                    }
                    let counters = ctx.drain_counters();
                    let dirty = carried || ctx.observed;
                    written_back = std::mem::take(&mut ctx.written_back);
                    run.totals.add(counters);
                    if let (Some(tr), Some(before)) = (trace.as_deref_mut(), before) {
                        let cache =
                            golden.map_or_else(|| run.caches.stats().since(&before), |t| t.cache);
                        tr.push(tile_trace(pos, unit, &counters, &cache));
                    }
                    let mem = &run.mem;
                    policy.after_stores(pos, Some(dirty), &run.pending, mem, &written_back)?;
                }
            }
            run.l2_resident_samples += match golden {
                Some(t) => t.cache.l2_resident_lines,
                None => run.caches.l2_resident_lines(),
            } as f64;
            let (c, p) = (&run.caches, &run.pending);
            let after = match run.overlay.as_ref() {
                Some(o) => {
                    policy.after_tile(pos, p, o.touched, !o.flips.is_empty(), o.flip_lines())
                }
                None => {
                    let (touched, live) = (c.corruption_touched(), c.has_pending_corruption());
                    policy.after_tile(pos, p, touched, live, c.flip_lines())
                }
            };
            if let Some(e) = after {
                exit = Some((pos, e));
                break;
            }
        }
        if let Some(m) = self.metrics.as_deref() {
            if skipped > 0 {
                m.counter_add("radcrit_run_skipped_tiles_total", &[], skipped);
            }
            match exit {
                Some((_, Exit::Dead)) => {
                    m.counter_add("radcrit_run_dead_strike_exits_total", &[], 1)
                }
                Some((_, Exit::Contained { flips })) => {
                    m.counter_add("radcrit_run_contained_exits_total", &[], 1);
                    if flips {
                        m.counter_add("radcrit_run_flip_exits_total", &[], 1);
                    }
                }
                None => {}
            }
        }
        Ok(exit)
    }

    /// The end of an injected run: flushes, splices the golden suffix
    /// after a contained exit and builds the outcome, handing a fork's
    /// memory and caches back to `scratch` for the next fork to restore.
    fn end_injection<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
        plan: &DispatchPlan,
        mut run: Injection<'_>,
        exit: Option<(usize, Exit)>,
        scratch: Option<&mut RunScratch>,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<RunOutcome, AccelError> {
        // End of kernel: flush the hierarchy; dirty corrupted lines write
        // their corruption back to DRAM where the host reads the output.
        let wbs = match run.overlay.as_mut() {
            Some(o) => o.flush(),
            None => run.caches.flush(),
        };
        apply_writebacks(&mut run.mem, &wbs, run.store_log.as_mut(), &mut Vec::new());
        let mut stats = run
            .overlay
            .as_ref()
            .map_or_else(|| run.caches.stats(), |o| o.stats);
        // Flushed caches hold no lines.
        stats.l2_resident_lines = 0;
        let contained_at = exit.filter(|&(_, e)| e != Exit::Dead).map(|(e, _)| e);
        // Splice the golden suffix after a contained exit at tile `e`:
        // every later tile would have run exactly as in golden, so its
        // output stores land golden final values and its counters, cache
        // statistics, residency sample (added one tile at a time, in
        // order, so the float sum matches) and trace record are golden's.
        if let (Some(e), Some(w)) = (contained_at, run.warm) {
            let g = &w.ledger;
            g.write_output(&mut run.mem, program.output(), e + 1..plan.tiles())?;
            for (t, entry) in g.tiles.iter().enumerate().skip(e + 1) {
                run.totals.add(entry.counters);
                stats.add_deltas(&entry.cache);
                run.l2_resident_samples += entry.cache.l2_resident_lines as f64;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(tile_trace(
                        t,
                        plan.unit_of(t),
                        &entry.counters,
                        &entry.cache,
                    ));
                }
            }
        }
        let samples = run.l2_resident_samples;
        let (output, profile) =
            self.finish(program, plan, &mut run.mem, run.totals, stats, samples)?;
        // The dirty output region of a forked run: elements this run
        // actually stored (plus corrupted write-backs) union the bucket's
        // golden spans of the tiles it executed — a tile the fault
        // skipped keeps golden-at-resume bytes that the golden suffix
        // would have overwritten, so both sides are needed. The fork's
        // store log starts at the strike tile, not the bucket's resume
        // tile, but the golden stores in between are a subset of the
        // bucket's spans, so the union covers them either way. Spliced
        // tiles stored golden final values and add nothing.
        let dirty = run.warm.map(|w| {
            let end = contained_at.map_or(plan.tiles(), |e| e + 1);
            let logged = run.store_log.iter().flat_map(|l| &l.spans);
            let mut spans: Vec<_> = logged.map(|s| (s.start, s.len)).collect();
            spans.extend(w.ledger.spans_in(w.resume_tile..end));
            DirtyRegion::from_spans(spans, output.len())
        });
        if let Some(sc) = scratch {
            sc.spare = Some(run.mem);
            sc.spare_caches = Some(run.caches);
        }
        Ok(RunOutcome {
            output,
            profile,
            strike_delivered: run.resolutions.iter().any(|r| r.delivered),
            resolutions: run.resolutions,
            dirty,
            golden_equivalent: matches!(exit, Some((_, Exit::Dead))),
        })
    }

    /// The output of a finished run, checked against the program's
    /// declared shape, and the run's profile from its counters, cache
    /// statistics and per-tile L2 residency samples.
    fn finish<P: TiledProgram + ?Sized>(
        &self,
        program: &P,
        plan: &DispatchPlan,
        mem: &mut DeviceMemory,
        totals: MachineCounters,
        cache: CacheStats,
        l2_resident_samples: f64,
    ) -> Result<(Vec<f64>, ExecutionProfile), AccelError> {
        let output = mem.take_vec(program.output())?;
        if program.output_shape().check_len(output.len()).is_err() {
            let name = program.name();
            let msg = format!("program {name} declares an output shape not matching its buffer");
            return Err(AccelError::InvalidConfig(msg));
        }
        let tiles = plan.tiles();
        let launch_tiles = program.tiles_per_launch().min(tiles).max(1);
        let threads_per_tile = program.threads_per_tile();
        let local_mem = program.local_mem_per_tile();
        let line_bytes = CacheHierarchy::line_bytes_of(&self.cfg) as f64;
        let profile = ExecutionProfile {
            tiles,
            threads_per_tile,
            // Per *launch* (one step of an iterative kernel): what the
            // scheduler and register file see at once (Table II).
            instantiated_threads: launch_tiles.saturating_mul(threads_per_tile),
            resident_threads: self
                .cfg
                .resident_threads(launch_tiles, threads_per_tile, local_mem),
            wave_size: plan.wave_size(),
            total_ops: totals.ops,
            transcendental_ops: totals.trans_ops,
            loads: totals.loads,
            stores: totals.stores,
            cache,
            l2_avg_resident_bytes: if tiles > 0 {
                l2_resident_samples / tiles as f64 * line_bytes
            } else {
                0.0
            },
            // L1s refill constantly; approximate average occupancy as the
            // lesser of per-unit capacity and the L2 share per unit.
            l1_avg_resident_bytes: (self.cfg.l1().size_bytes as f64).min(
                l2_resident_samples / tiles.max(1) as f64 * line_bytes / self.cfg.units() as f64,
            ) * self.cfg.units() as f64,
        };
        Ok((output, profile))
    }
}

/// The one fork path: runs one program's injections off its golden
/// snapshots, each forked off a warm bucket (golden state restored from
/// the nearest snapshot at or before the fork's start and rolled forward)
/// and bit-identical to the same strikes run from tile 0
/// ([`Engine::run`]), or from tile 0 when no snapshot covers them. It
/// restores only when a run resumes from another snapshot or starts
/// before the warm front, so runs sorted by [`ForkCursor::bucket`] pay
/// one restore per bucket, each under a `bucket-restore` profile scope
/// (the advance and the fork: `warm-advance`, `fork`). Use one cursor
/// per program instance.
#[derive(Debug)]
pub struct ForkCursor {
    engine: Engine,
    snapshots: Arc<SnapshotSet>,
    warm: Option<WarmState>,
    scratch: RunScratch,
    counts: ForkCounts,
}

/// A [`ForkCursor`]'s work since its counts were last taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCounts {
    /// Warm-state restores from a snapshot.
    pub restores: u64,
    /// Runs forked off a warm state.
    pub forks: u64,
    /// Golden tiles advanced through to reach the forks.
    pub advance_tiles: u64,
}

impl std::ops::AddAssign for ForkCounts {
    fn add_assign(&mut self, other: ForkCounts) {
        self.restores += other.restores;
        self.forks += other.forks;
        self.advance_tiles += other.advance_tiles;
    }
}

impl ForkCursor {
    /// A cursor over the `snapshots` `engine` captured for the program.
    pub fn new(engine: Engine, snapshots: Arc<SnapshotSet>) -> Self {
        ForkCursor {
            engine,
            snapshots,
            warm: None,
            scratch: RunScratch::default(),
            counts: ForkCounts::default(),
        }
    }

    /// The bucket a run of `strikes` with `rng` forks from, as
    /// `(resume, start)`: the snapshot tile it restores, and the earliest
    /// strike instant or a lone register strike's victim. `None` when
    /// the run goes from tile 0.
    pub fn bucket(
        &self,
        program: &dyn TiledProgram,
        strikes: &[StrikeSpec],
        rng: &StdRng,
    ) -> Option<(usize, usize)> {
        if !program.resumable() {
            return None;
        }
        // A register strike changes nothing before its victim, drawn as
        // delivery draws it.
        let start = match strikes {
            [s] if s.target.is_deferrable() && s.at_tile < program.tile_count() => {
                draw_victim(&self.engine.plan_of(program), s.at_tile, &mut rng.clone())
            }
            _ => strikes.iter().map(|s| s.at_tile).min()?,
        };
        Some((self.snapshots.resume_point(start)?.at_tile, start))
    }

    /// Runs `program` with `strikes` as [`Engine::run`] does, forked off
    /// its bucket's warm state when it has one; a forked `trace` covers
    /// the tiles from the fork's start on.
    ///
    /// # Errors
    ///
    /// As [`Engine::run`].
    pub fn run(
        &mut self,
        program: &mut dyn TiledProgram,
        strikes: &[StrikeSpec],
        rng: &mut StdRng,
        trace: Option<&mut ExecutionTrace>,
    ) -> Result<RunOutcome, AccelError> {
        let Some((resume, start)) = self.bucket(program, strikes, rng) else {
            return self.engine.inject(program, strikes, rng, None, trace);
        };
        // Stale: another snapshot, or already advanced past this fork.
        let warm = match self.warm.take() {
            Some(w) if w.resume_tile == resume && w.next_tile <= start => w,
            reuse => {
                let _scope = phase_with(PhaseId::BucketRestore, &[("resume", resume as u64)]);
                let (snaps, scratch) = (&self.snapshots, &mut self.scratch);
                let warm = self
                    .engine
                    .warm_restore(program, snaps, start, scratch, reuse)?;
                self.counts.restores += 1;
                warm
            }
        };
        let warm = self.warm.insert(warm);
        let advanced = {
            let _scope = phase(PhaseId::WarmAdvance);
            self.engine.warm_advance(program, warm, start)?
        };
        self.counts.forks += 1;
        self.counts.advance_tiles += advanced as u64;
        let _scope = phase(PhaseId::Fork);
        let fork = Some((&*warm, &mut self.scratch));
        self.engine.inject(program, strikes, rng, fork, trace)
    }

    /// The restores, forks and advanced tiles since the last call.
    pub fn take_counts(&mut self) -> ForkCounts {
        std::mem::take(&mut self.counts)
    }
}

/// An injected run between its setup and its end: the machine it runs
/// on and the state of its strikes.
#[derive(Debug)]
struct Injection<'w> {
    /// A fork's warm state; `None` for a run from tile 0.
    warm: Option<&'w WarmState>,
    strikes: &'w [StrikeSpec],
    mem: DeviceMemory,
    caches: CacheHierarchy,
    /// A value-only fork's flips, run against instead of `caches`.
    overlay: Option<Overlay>,
    totals: MachineCounters,
    l2_resident_samples: f64,
    /// A fork's own output stores (corrupted write-backs and redirects
    /// before the resume point included), for its dirty region.
    store_log: Option<StoreLog>,
    pending: PendingFaults,
    resolutions: Vec<StrikeResolution>,
}

impl Injection<'_> {
    /// Delivers `strike` at dispatch position `pos` (see
    /// [`PendingFaults::deliver`]) to the cache model or, in a value-only
    /// fork, the overlay; returns its victim tile.
    fn deliver<R: Rng + ?Sized>(
        &mut self,
        strike: &StrikeSpec,
        pos: usize,
        plan: &DispatchPlan,
        rng: &mut R,
    ) -> Option<usize> {
        let (caches, overlay, warm) = (&mut self.caches, &mut self.overlay, self.warm);
        let pending = &mut self.pending;
        let resolution = pending.deliver(strike, pos, plan, rng, |unit, mask, rng| {
            match (overlay.as_mut(), warm) {
                (Some(o), Some(w)) => o.strike(&w.caches, unit, pos, rng, mask),
                _ => caches.strike(unit, rng, mask).is_some(),
            }
        });
        self.resolutions.push(resolution);
        resolution.victim_tile
    }
}

/// One effect a delivered strike left pending at a dispatch position.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// A fault armed on the victim tile.
    Armed(TileFault),
    /// The scheduler drops the tile.
    Skip,
    /// The scheduler dispatches the tile as this other tile.
    Redirect(usize),
    /// The struck unit garbles every tile of the rest of its wave.
    UnitGarble,
}

/// The pending effects of a run's delivered strikes, keyed by dispatch
/// position, in delivery order. A single-strike run (the normal case)
/// holds at most one entry. Entries are never drained: a run that ever
/// armed a core or scheduler fault never takes the dead-strike exit.
#[derive(Debug, Default)]
struct PendingFaults(Vec<(usize, Pending)>);

impl PendingFaults {
    /// Delivers `strike` at dispatch position `pos`: corrupts a resident
    /// cache line, or records the effect the strike leaves pending.
    /// Consumes `rng` exactly as the strike target requires (line and
    /// offset, register victim, redirect destination).
    ///
    /// A cache strike goes to `flip(l1_unit, mask, rng)` (the L2 when
    /// `l1_unit` is `None`), which reports whether a line was resident.
    fn deliver<R: Rng + ?Sized>(
        &mut self,
        strike: &StrikeSpec,
        pos: usize,
        plan: &DispatchPlan,
        rng: &mut R,
        mut flip: impl FnMut(Option<usize>, u64, &mut R) -> bool,
    ) -> StrikeResolution {
        let here = plan.unit_of(pos);
        let armed = |at: usize, f: TileFault| Some((at, Pending::Armed(f)));
        let (delivered, effect, unit) = match strike.target {
            StrikeTarget::L2 { mask } => (flip(None, mask, rng), None, None),
            StrikeTarget::L1 { mask } => (flip(Some(here), mask, rng), None, Some(here)),
            StrikeTarget::RegisterFile { mask, op_index } => {
                let victim = draw_victim(plan, pos, rng);
                let f = TileFault::logic(op_index, 1, mask);
                (true, armed(victim, f), None)
            }
            StrikeTarget::VectorRegister {
                mask,
                lanes,
                op_index,
            } => {
                let victim = draw_victim(plan, pos, rng);
                let f = TileFault::logic(op_index, u64::from(lanes.max(1)), mask);
                (true, armed(victim, f), None)
            }
            StrikeTarget::Fpu { mask, op_index } => {
                let f = TileFault::logic(op_index, 1, mask);
                (true, armed(pos, f), Some(here))
            }
            StrikeTarget::Sfu { scale, op_index } => {
                let f = TileFault {
                    sfu_at: op_index,
                    sfu_scale: scale,
                    ..TileFault::none()
                };
                (true, armed(pos, f), Some(here))
            }
            StrikeTarget::CoreControl { elems, store_index } => {
                let f = TileFault {
                    store_at: store_index,
                    store_len: u64::from(elems.max(1)),
                    ..TileFault::none()
                };
                (true, armed(pos, f), Some(here))
            }
            StrikeTarget::UnitGarble => (true, Some((pos, Pending::UnitGarble)), Some(here)),
            StrikeTarget::Scheduler(effect) => {
                let pending = match effect {
                    SchedulerEffect::SkipTile => Pending::Skip,
                    SchedulerEffect::RedirectTile => {
                        Pending::Redirect(rng.gen_range(0..plan.tiles()))
                    }
                    SchedulerEffect::GarbleTile => Pending::Armed(TileFault {
                        garble: true,
                        ..TileFault::none()
                    }),
                };
                (true, Some((pos, pending)), None)
            }
        };
        self.0.extend(effect);
        StrikeResolution {
            at_tile: pos,
            site: strike.target.site_name(),
            delivered,
            // A unit garble names a wave, not a tile.
            victim_tile: match effect {
                Some((_, Pending::UnitGarble)) | None => None,
                Some((at, _)) => Some(at),
            },
            unit,
            redirect_dest: match effect {
                Some((_, Pending::Redirect(dest))) => Some(dest),
                _ => None,
            },
        }
    }

    /// How the tile at dispatch position `pos` runs: `None` when the
    /// scheduler dropped it, else the tile it executes as (a redirect's
    /// destination, or itself) and the fault armed on it — including a
    /// unit garble whose wave covers `pos`.
    fn tile_at(&self, pos: usize, plan: &DispatchPlan) -> Option<(usize, TileFault)> {
        let (mut tile, mut fault, mut garble) = (None, None, false);
        for &(at, e) in &self.0 {
            match e {
                Pending::Skip if at == pos => return None,
                Pending::Redirect(dest) if at == pos => _ = tile.get_or_insert(dest),
                Pending::Armed(f) if at == pos => _ = fault.get_or_insert(f),
                Pending::UnitGarble => garble |= plan.unit_garble_applies(at, pos),
                _ => {}
            }
        }
        let mut fault = fault.unwrap_or_else(TileFault::none);
        fault.garble |= garble;
        Some((tile.unwrap_or(pos), fault))
    }

    /// Whether a skip or redirect is pending: the run's address stream
    /// may no longer be golden's.
    fn reroutes(&self) -> bool {
        (self.0.iter()).any(|&(_, e)| matches!(e, Pending::Skip | Pending::Redirect(_)))
    }

    /// Whether every pending effect is spent once the tile at `pos` has
    /// run — every armed victim behind, every unit-garble wave over — the
    /// contained exit's test. A pending skip or redirect never is: the
    /// run's address stream may differ from golden's, so its cache state
    /// need not track golden's tile for tile.
    fn spent(&self, pos: usize, plan: &DispatchPlan) -> bool {
        self.0.iter().all(|&(at, e)| match e {
            Pending::Armed(_) => at <= pos,
            Pending::UnitGarble => plan.wave_of(pos + 1) != plan.wave_of(at),
            Pending::Skip | Pending::Redirect(_) => false,
        })
    }
}

/// The victim of a register strike at `pos`: a tile still pending in
/// the wave — the one RNG draw [`ForkCursor::bucket`] and delivery share.
fn draw_victim<R: Rng + ?Sized>(plan: &DispatchPlan, pos: usize, rng: &mut R) -> usize {
    let victims = plan.pending_in_wave(pos);
    rng.gen_range(victims.start..victims.end)
}

/// The rules by which an injected run skips tiles and stops early. Each
/// is a proof that the tiles it spares compute golden's values.
#[derive(Debug)]
struct ExitPolicy<'a> {
    plan: &'a DispatchPlan,
    /// A fork's golden ledger; a run from tile 0 takes only the dead exit.
    ledger: Option<&'a GoldenLedger>,
    /// The last strike instant; `None` without strikes.
    last_strike: Option<usize>,
    /// The dead-strike proof needs a resumable program.
    resumable: bool,
    /// A fork's elements that may hold non-golden bits.
    taint: TaintSet,
    /// Elements per cache line: a line `l` holds the global elements
    /// `l · line_elems ..` of the taint set.
    line_elems: usize,
}

/// An early stop of an injected run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exit {
    /// Every strike died without touching observable state: the output
    /// would be golden's, and the caller skips the compare.
    Dead,
    /// The fault is contained and the golden suffix is spliced; `flips`
    /// tells whether flips were still pending.
    Contained { flips: bool },
}

impl ExitPolicy<'_> {
    /// Whether the tile at `pos` loads a line holding a tainted element:
    /// whether it may read a non-golden value.
    fn loads_taint(&self, g: &GoldenLedger, pos: usize) -> bool {
        let le = self.line_elems;
        g.tiles[pos].loaded & self.taint.buffers() != 0
            && (g.lines.loads_of(pos)).any(|(first, last)| {
                self.taint
                    .any(first as usize * le..(last as usize + 1) * le)
            })
    }

    /// Whether a value-only fork (`o`) may skip the tile at dispatch
    /// position `pos`, on `unit`, running as itself with no fault armed:
    /// the ledger holds the golden values of each of its stores (it is
    /// replayable), it loads no tainted element, and it touches no line a
    /// live flip sits on (for an L1 flip, only touches from its unit
    /// count). Such a tile computes exactly golden's values, which the
    /// fork writes in its place.
    fn skips(&self, pos: usize, unit: usize, o: &Overlay) -> bool {
        let g = &*o.ledger;
        g.tiles[pos].replayable
            && !self.loads_taint(g, pos)
            && o.flips
                .iter()
                .all(|f| f.unit.is_some_and(|u| u != unit) || !g.lines.touched_by(f.line, pos))
    }

    /// Takes in the stores of the tile at `pos`, skipped (`ran` is
    /// `None`: memory holds its golden values) or executed (`ran` tells
    /// whether it carried a fault or observed a flipped bit), and the
    /// elements corrupted write-backs landed on during it. Those are
    /// tainted first: a flipped line written back mid-tile ends its flip
    /// unobserved, and the tile may then load its corruption from memory.
    /// A tile that carried nothing, observed nothing and loaded no tainted
    /// element stored golden's values; any other has each span compared
    /// with golden's values at the same instant, or, when the ledger holds
    /// none, tainted whole. A run whose address stream is not golden's
    /// (a pending skip or redirect) never skips or exits, and keeps no
    /// taint.
    fn after_stores(
        &mut self,
        pos: usize,
        ran: Option<bool>,
        pending: &PendingFaults,
        mem: &DeviceMemory,
        written_back: &[WrittenBack],
    ) -> Result<(), AccelError> {
        let Some(g) = self.ledger.filter(|_| !pending.reroutes()) else {
            return Ok(());
        };
        for &(buf, e) in written_back {
            self.taint.fill(buf, e..e + 1, true);
        }
        if ran != Some(true) && self.taint.is_empty() {
            // Nothing to clear, and the tile stored golden's values.
            return Ok(());
        }
        let dirty = ran.is_some_and(|observed| observed || self.loads_taint(g, pos));
        for span in g.stores_of(pos) {
            match g.golden_of(span).filter(|_| dirty) {
                Some(golden) => {
                    let (_, actual) = mem.window(span.buf, span.start as usize, golden.len())?;
                    self.taint
                        .compare(span.buf, span.at as usize, actual, golden);
                }
                None => self.taint.fill(span.buf, span.elems(), dirty),
            }
        }
        for &(buf, e) in written_back {
            self.taint.fill(buf, e..e + 1, true);
        }
        Ok(())
    }

    /// Whether the run may stop after the tile at `pos`; `touched`,
    /// `live` and `flips` tell whether corruption ever escaped the flips,
    /// whether any is pending, and their lines.
    /// Dead strike: every strike tile has passed, no corruption is
    /// pending or was ever observed, and no core or scheduler fault was
    /// ever armed (`pending` is never drained), so by the resumability
    /// contract the remaining tiles compute exactly golden's values.
    ///
    /// Contained (forks only): every fault is spent and no later golden
    /// tile loads a buffer holding a tainted element — in particular,
    /// the taint is empty — so every remaining tile would compute exactly
    /// its golden values; a resumable program derives addresses from the
    /// tile id alone, so cache tags and counters also track golden's.
    /// Flips may still be pending, on lines no later tile touches (see
    /// [`flips_settled`]): the exit's flush settles them.
    fn after_tile(
        &self,
        pos: usize,
        pending: &PendingFaults,
        touched: bool,
        live: bool,
        flips: impl Iterator<Item = FlipLine>,
    ) -> Option<Exit> {
        let struck = self.last_strike.is_none_or(|last| pos >= last);
        let quiet = pending.0.is_empty() && !touched && !live;
        if self.resumable && self.last_strike.is_some() && struck && quiet {
            return Some(Exit::Dead);
        }
        let g = self.ledger?;
        // Spent: every strike delivered, every armed victim and
        // unit-garble wave behind us, no change to the address stream,
        // no flip a later tile can read.
        (pos + 1 < self.plan.tiles()
            && g.tiles[pos].loaded_after & self.taint.buffers() == 0
            && struck
            && pending.spent(pos, self.plan)
            && flips_settled(flips, touched, &g.lines, pos + 1))
        .then_some(Exit::Contained { flips: live })
    }
}

/// Whether every flip still pending (`flips`, in the cache hierarchy or
/// the overlay) once the first `done` tiles have run has a settled fate
/// that a contained exit reproduces, and taking the exit cannot pre-empt
/// a dead-strike exit the full run would take; `touched` is whether
/// corruption ever escaped the flips.
///
/// The fork's address stream is golden's and flips never change tags or
/// LRU state, so a flipped line no later golden tile touches is never
/// read again: a clean one's flip vanishes, a dirty one's XOR reaches
/// DRAM at its eviction or the final flush — exactly what the exit's own
/// flush applies. The full run could still dead-exit only while nothing
/// observed corruption and every flip may yet vanish unseen; a dirty
/// flipped line (its fate is a write-back) or flips on L2 lines golden
/// never evicts again (they stay pending to the end) rule that out.
fn flips_settled(
    flips: impl Iterator<Item = FlipLine>,
    touched: bool,
    lines: &LineIndex,
    done: usize,
) -> bool {
    let mut never_dead = touched;
    let mut all_stay = true;
    for f in flips {
        if !lines.untouched_after(f.line, done) {
            return false;
        }
        match f.l2_dirty {
            Some(true) => never_dead = true,
            Some(false) => all_stay &= lines.unevicted_after(f.line, done),
            None => all_stay = false,
        }
    }
    never_dead || all_stay
}

/// The trace record of the tile at dispatch position `pos`.
fn tile_trace(pos: usize, unit: usize, c: &MachineCounters, cache: &CacheStats) -> TileTrace {
    TileTrace {
        pos,
        unit,
        ops: c.ops,
        trans_ops: c.trans_ops,
        loads: c.loads,
        stores: c.stores,
        l2_hits: cache.l2_hits,
        l2_misses: cache.l2_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng as SmallRng;

    use crate::memory::BufferId;
    use crate::snapshot::StoreSpan;

    /// A minimal test program: out[i] = 2 * in[i] + 1, one tile per 8
    /// elements.
    #[derive(Debug)]
    struct Affine {
        n: usize,
        input: Vec<f64>,
        in_buf: Option<BufferId>,
        out_buf: Option<BufferId>,
    }

    impl Affine {
        fn new(n: usize) -> Self {
            Affine {
                n,
                input: (0..n).map(|i| (i + 1) as f64).collect(),
                in_buf: None,
                out_buf: None,
            }
        }
    }

    impl TiledProgram for Affine {
        fn name(&self) -> &str {
            "affine"
        }

        fn tile_count(&self) -> usize {
            self.n / 8
        }

        fn threads_per_tile(&self) -> usize {
            8
        }

        fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
            self.in_buf = Some(mem.alloc_init("in", &self.input));
            self.out_buf = Some(mem.alloc("out", self.n));
            Ok(())
        }

        fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
            let start = tile.index() * 8;
            let mut x = [0.0; 8];
            ctx.load(self.in_buf.unwrap(), start, &mut x)?;
            let mut y = [0.0; 8];
            for i in 0..8 {
                y[i] = ctx.fma(2.0, x[i], 1.0);
            }
            ctx.store(self.out_buf.unwrap(), start, &y)
        }

        fn output(&self) -> BufferId {
            self.out_buf.unwrap()
        }

        fn output_shape(&self) -> OutputShape {
            OutputShape::d1(self.n)
        }
    }

    fn expected(n: usize) -> Vec<f64> {
        (0..n).map(|i| 2.0 * (i + 1) as f64 + 1.0).collect()
    }

    #[test]
    fn golden_run_is_correct_and_deterministic() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let a = engine.golden(&mut p).unwrap();
        let b = engine.golden(&mut p).unwrap();
        assert_eq!(a.output, expected(64));
        assert_eq!(a.output, b.output);
        assert_eq!(a.profile.tiles, 8);
        assert_eq!(a.profile.total_ops, 64);
        assert_eq!(a.profile.loads, 64);
        assert_eq!(a.profile.stores, 64);
    }

    #[test]
    fn strike_past_end_rejected() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(0);
        let s = StrikeSpec::new(
            100,
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 0,
            },
        );
        assert!(matches!(
            engine.run(&mut p, &[s], &mut rng, None),
            Err(AccelError::StrikeOutOfRange {
                tile: 100,
                tiles: 8
            })
        ));
    }

    #[test]
    fn fpu_strike_corrupts_one_element() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = StrikeSpec::new(
            3,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
        );
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert!(out.strike_delivered);
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert_eq!(diffs, vec![3 * 8 + 2], "exactly op 2 of tile 3 corrupted");
        assert_eq!(out.output[26], -exp[26], "sign flip of the result");
    }

    #[test]
    fn a_dead_exit_stops_its_buffer_early_and_compares_clean() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let golden = engine.golden(&mut p).unwrap();
        // Nothing is resident before tile 0: the L2 strike finds no
        // line, and the run stops after its strike tile.
        let s = StrikeSpec::new(0, StrikeTarget::L2 { mask: 1 << 62 });
        let mut rng = SmallRng::seed_from_u64(3);
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert!(out.golden_equivalent && !out.strike_delivered);
        assert_ne!(bits(&out.output), bits(&golden.output), "a stale buffer");
        let report = out.compare(&golden.output, p.output_shape(), |i| [i, 0, 0]);
        assert!(!report.is_sdc(), "a golden-equivalent run is no SDC");
    }

    #[test]
    fn fpu_strike_past_tile_ops_is_silent() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(2);
        let s = StrikeSpec::new(
            0,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 1000,
            },
        );
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert_eq!(out.output, expected(64), "op index beyond work is masked");
    }

    #[test]
    fn vector_strike_corrupts_lane_burst() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = StrikeSpec::new(
            7,
            StrikeTarget::VectorRegister {
                mask: 1 << 63,
                lanes: 4,
                op_index: 0,
            },
        );
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert_eq!(diffs.len(), 4, "four consecutive lanes corrupted");
        assert_eq!(diffs[3] - diffs[0], 3, "burst is consecutive");
        // With 8 tiles in one Phi wave, the victim pending at position 7
        // is tile 7 itself.
        assert_eq!(diffs[0], 7 * 8);
    }

    #[test]
    fn scheduler_skip_leaves_stale_region() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(4);
        let s = StrikeSpec::new(2, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let exp = expected(64);
        for (i, (&got, &want)) in out.output.iter().zip(&exp).enumerate() {
            if (16..24).contains(&i) {
                assert_eq!(got, 0.0, "skipped tile keeps initial zeros");
            } else {
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn scheduler_garble_trashes_whole_tile() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(5);
        let s = StrikeSpec::new(5, StrikeTarget::Scheduler(SchedulerEffect::GarbleTile));
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let exp = expected(64);
        let diffs = (40..48).filter(|&i| out.output[i] != exp[i]).count();
        // Stale-value garble lets the occasional op through correctly.
        assert!(diffs >= 6, "most elements of tile 5 corrupted, got {diffs}");
        let outside = (0..64)
            .filter(|&i| !(40..48).contains(&i) && out.output[i] != exp[i])
            .count();
        assert_eq!(outside, 0);
    }

    #[test]
    fn scheduler_redirect_overwrites_other_tile_region() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(6);
        let s = StrikeSpec::new(1, StrikeTarget::Scheduler(SchedulerEffect::RedirectTile));
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let exp = expected(64);
        // Tile 1's own region was never written by tile 1: it is either
        // zero (stale) or correct (if the redirect destination was tile 1
        // itself or a later tile overwrote it).
        let region_ok_or_stale = (8..16).all(|i| out.output[i] == exp[i] || out.output[i] == 0.0);
        assert!(region_ok_or_stale);
    }

    #[test]
    fn l2_strike_on_input_corrupts_consumers_but_not_dram() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(7);
        // Strike early so later tiles read corrupted input.
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert!(out.strike_delivered);
        let exp = expected(64);
        let diffs = (0..64).filter(|&i| out.output[i] != exp[i]).count();
        // The strike lands on input or output data; input corruption
        // propagates to at most the elements reading the line after the
        // strike; output corruption persists via dirty write-back.
        assert!(
            diffs <= 16,
            "single line bounds the corruption, got {diffs}"
        );
    }

    #[test]
    fn multi_strike_accumulates_independent_corruptions() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(21);
        let strikes = vec![
            StrikeSpec::new(
                1,
                StrikeTarget::Fpu {
                    mask: 1 << 63,
                    op_index: 0,
                },
            ),
            StrikeSpec::new(
                4,
                StrikeTarget::Fpu {
                    mask: 1 << 63,
                    op_index: 3,
                },
            ),
            StrikeSpec::new(6, StrikeTarget::Scheduler(SchedulerEffect::SkipTile)),
        ];
        let out = engine.run(&mut p, &strikes, &mut rng, None).unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        // Two single-op flips plus one skipped 8-element tile.
        assert_eq!(diffs.len(), 2 + 8, "diffs: {diffs:?}");
        assert!(diffs.contains(&8), "op 0 of tile 1");
        assert!(diffs.contains(&35), "op 3 of tile 4");
        assert!((48..56).all(|i| diffs.contains(&i)), "tile 6 skipped");
    }

    #[test]
    fn strike_at_last_tile_is_legal() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(23);
        let s = StrikeSpec::new(7, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let exp = expected(64);
        assert!((56..64).all(|i| out.output[i] == 0.0));
        assert!((0..56).all(|i| out.output[i] == exp[i]));
    }

    #[test]
    fn faulty_run_profile_matches_golden_profile_shape() {
        // Skipping a tile reduces counted work; everything else in the
        // profile stays structurally identical.
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let golden = engine.golden(&mut p).unwrap();
        let mut rng = SmallRng::seed_from_u64(24);
        let s = StrikeSpec::new(0, StrikeTarget::Scheduler(SchedulerEffect::SkipTile));
        let faulty = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert_eq!(faulty.profile.tiles, golden.profile.tiles);
        assert_eq!(faulty.profile.wave_size, golden.profile.wave_size);
        assert_eq!(faulty.profile.total_ops, golden.profile.total_ops - 8);
    }

    #[test]
    fn empty_strike_list_equals_golden() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(22);
        let out = engine.run(&mut p, &[], &mut rng, None).unwrap();
        assert_eq!(out.output, expected(64));
        assert!(!out.strike_delivered);
    }

    #[test]
    fn resolutions_report_strike_victims() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(1);
        let s = StrikeSpec::new(
            3,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
        );
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert_eq!(out.resolutions.len(), 1);
        let r = out.resolutions[0];
        assert_eq!(r.at_tile, 3);
        assert_eq!(r.site, "fpu");
        assert!(r.delivered);
        assert_eq!(r.victim_tile, Some(3));
        assert_eq!(r.redirect_dest, None);
    }

    #[test]
    fn redirect_resolution_names_the_destination() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(6);
        let s = StrikeSpec::new(1, StrikeTarget::Scheduler(SchedulerEffect::RedirectTile));
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let r = out.resolutions[0];
        assert_eq!(r.site, "scheduler");
        let dest = r.redirect_dest.expect("redirect resolves a destination");
        assert!(dest < 8);
    }

    #[test]
    fn register_strike_resolution_matches_corrupted_region() {
        // The resolution's victim tile is the engine's own account of
        // where the RNG sent the strike; the output corruption must land
        // in exactly that tile's region.
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = StrikeSpec::new(
            7,
            StrikeTarget::VectorRegister {
                mask: 1 << 63,
                lanes: 4,
                op_index: 0,
            },
        );
        let out = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        let victim = out.resolutions[0].victim_tile.unwrap();
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert!(
            diffs.iter().all(|&i| i / 8 == victim),
            "{diffs:?} vs {victim}"
        );
    }

    #[test]
    fn traced_run_matches_untraced_output_and_rng_stream() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let s = StrikeSpec::new(
            2,
            StrikeTarget::RegisterFile {
                mask: 1 << 60,
                op_index: 1,
            },
        );
        let mut rng_a = SmallRng::seed_from_u64(42);
        let plain = engine.run(&mut p, &[s], &mut rng_a, None).unwrap();
        let mut rng_b = SmallRng::seed_from_u64(42);
        let mut trace = ExecutionTrace::new();
        let traced = engine
            .run(&mut p, &[s], &mut rng_b, Some(&mut trace))
            .unwrap();
        assert_eq!(plain.output, traced.output);
        assert_eq!(plain.resolutions, traced.resolutions);
        assert_eq!(trace.tiles().len(), 8);
    }

    #[test]
    fn metrics_record_phases_and_plan_geometry() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        engine.golden(&mut p).unwrap();
        engine.golden(&mut p).unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("radcrit_engine_runs_total", &[]), Some(2));
        assert_eq!(snap.gauge("radcrit_plan_tiles", &[]), Some(8.0));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn snapshotted_golden_matches_plain_golden() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let plain = engine.golden(&mut p).unwrap();
        let (snapped, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        assert_eq!(bits(&plain.output), bits(&snapped.output));
        assert_eq!(plain.profile, snapped.profile);
        assert!(!set.is_empty(), "default policy captures snapshots");
        assert!(set.cost_bytes() > 0);
        assert_eq!(
            set.ledger.spans_in(0..8).count(),
            8,
            "golden stores to the output are indexed"
        );
        assert_eq!(
            set.journal_bytes(),
            0,
            "final output stores need no journal"
        );
        assert!((0..8).all(|t| set.ledger.tiles[t].replayable));
        // Tile 7 loads and stores the last lines; nothing evicts on a K40.
        let lines = &set.ledger.lines;
        assert!((0..4096).any(|l| !lines.untouched_after(l, 7)));
        assert!((0..4096).all(|l| lines.untouched_after(l, 8)));
        assert!((0..4096).all(|l| lines.unevicted_after(l, 0)));
        assert!(
            set.snaps.iter().all(|s| s.caches.history.is_none()),
            "snapshots hold machine state only"
        );
    }

    #[test]
    fn explicit_stride_controls_capture_points() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64); // 8 tiles
        let policy = SnapshotPolicy {
            stride: 2,
            max_bytes: 0,
        };
        let (_, set) = engine.golden_snapshotted(&mut p, &policy).unwrap();
        assert_eq!(set.len(), 4, "tiles 0, 2, 4, 6");
        assert_eq!(set.skipped_tiles(), 0);
    }

    #[test]
    fn tiny_budget_skips_captures() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let policy = SnapshotPolicy {
            stride: 1,
            max_bytes: 1,
        };
        let (_, set) = engine.golden_snapshotted(&mut p, &policy).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.skipped_tiles(), 8);
    }

    /// Forks `s` off a fresh warm bucket restored from `set` and
    /// advanced to the strike tile: a bucket holding a single fork.
    fn fork_once<P: TiledProgram>(
        engine: &Engine,
        p: &mut P,
        set: &SnapshotSet,
        s: StrikeSpec,
        seed: u64,
        scratch: &mut RunScratch,
    ) -> RunOutcome {
        let mut warm = engine
            .warm_restore(p, set, s.at_tile, scratch, None)
            .unwrap();
        engine.warm_advance(p, &mut warm, s.at_tile).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        engine
            .inject(p, &[s], &mut rng, Some((&warm, scratch)), None)
            .unwrap()
    }

    #[test]
    fn forked_run_is_bit_identical_to_reference_run() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let policy = SnapshotPolicy {
            stride: 3,
            max_bytes: 0,
        };
        let (golden, set) = engine.golden_snapshotted(&mut p, &policy).unwrap();
        let targets = [
            StrikeTarget::L2 { mask: 1 << 62 },
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 2,
            },
            StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
            StrikeTarget::Scheduler(SchedulerEffect::SkipTile),
            StrikeTarget::UnitGarble,
        ];
        let mut cursor = ForkCursor::new(engine.clone(), Arc::new(set));
        for (i, target) in targets.iter().enumerate() {
            // Ascending strike tiles: the warm state advances
            // monotonically, as in bucket order, and restores when a
            // strike crosses into the next bucket (snapshots at 0, 3, 6).
            for at_tile in [0, 3, 4, 5, 7] {
                let s = StrikeSpec::new(at_tile, *target);
                let seed = 300 + i as u64;
                let full = engine
                    .run(&mut p, &[s], &mut StdRng::seed_from_u64(seed), None)
                    .unwrap();
                assert!(full.dirty.is_none(), "reference runs have no dirty region");
                let mut rng = StdRng::seed_from_u64(seed);
                assert_eq!(
                    cursor.bucket(&p, &[s], &rng),
                    Some((at_tile / 3 * 3, at_tile))
                );
                let fork = cursor.run(&mut p, &[s], &mut rng, None).unwrap();

                let ctx = format!("{target:?}@{at_tile}");
                assert_eq!(bits(&full.output), bits(&fork.output), "{ctx}");
                assert_eq!(full.resolutions, fork.resolutions);
                assert_eq!(full.profile, fork.profile);
                assert_eq!(full.strike_delivered, fork.strike_delivered);
                // The dirty region must cover every mismatch vs golden.
                let dirty = fork.dirty.expect("forked run reports its dirty region");
                for idx in 0..full.output.len() {
                    if full.output[idx].to_bits() != golden.output[idx].to_bits() {
                        assert!(dirty.contains(idx), "{ctx}: idx {idx} dirty");
                    }
                }
            }
        }
        // Three buckets per target, each entered once; one tile advanced
        // for each strike past its bucket's snapshot.
        let counts = ForkCounts {
            restores: 15,
            forks: 25,
            advance_tiles: 15,
        };
        assert_eq!(cursor.take_counts(), counts);
        assert_eq!(cursor.take_counts(), ForkCounts::default());
    }

    #[test]
    fn cursor_runs_from_tile_0_without_a_covering_snapshot() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let s = StrikeSpec::new(
            5,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 1,
            },
        );
        let full = engine
            .run(&mut p, &[s], &mut StdRng::seed_from_u64(1), None)
            .unwrap();
        let mut cursor = ForkCursor::new(engine, Arc::default());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cursor.bucket(&p, &[s], &rng), None);
        let run = cursor.run(&mut p, &[s], &mut rng, None).unwrap();
        assert!(run.dirty.is_none(), "a run from tile 0");
        assert_eq!(bits(&run.output), bits(&full.output));
        assert_eq!(cursor.take_counts(), ForkCounts::default());
    }

    #[test]
    fn fork_before_warm_front_is_rejected() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 2,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let mut scratch = RunScratch::default();
        let mut warm = engine
            .warm_restore(&mut p, &set, 6, &mut scratch, None)
            .unwrap();
        engine.warm_advance(&mut p, &mut warm, 6).unwrap();
        let s = StrikeSpec::new(
            5,
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 0,
            },
        );
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(matches!(
            engine.inject(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None),
            Err(AccelError::StrikeOutOfRange { tile: 5, tiles: 6 })
        ));
    }

    #[test]
    fn scratch_reuse_keeps_runs_identical() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(
            5,
            StrikeTarget::Fpu {
                mask: 1 << 63,
                op_index: 1,
            },
        );
        let mut scratch = RunScratch::default();
        for _ in 0..3 {
            let a = fork_once(&engine, &mut p, &set, s, 9, &mut scratch);
            let mut rng_b = SmallRng::seed_from_u64(9);
            let b = engine.run(&mut p, &[s], &mut rng_b, None).unwrap();
            assert_eq!(bits(&a.output), bits(&b.output));
            assert_eq!(a.profile, b.profile);
        }
    }

    #[test]
    fn non_resumable_program_gets_no_snapshots_and_no_fork() {
        /// Affine with per-run observable state, like the pathological
        /// test kernel.
        #[derive(Debug)]
        struct Stateful(Affine);
        impl TiledProgram for Stateful {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn tile_count(&self) -> usize {
                self.0.tile_count()
            }
            fn threads_per_tile(&self) -> usize {
                self.0.threads_per_tile()
            }
            fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
                self.0.setup(mem)
            }
            fn execute_tile(
                &mut self,
                tile: TileId,
                ctx: &mut TileCtx<'_>,
            ) -> Result<(), AccelError> {
                self.0.execute_tile(tile, ctx)
            }
            fn output(&self) -> BufferId {
                self.0.output()
            }
            fn output_shape(&self) -> OutputShape {
                self.0.output_shape()
            }
            fn resumable(&self) -> bool {
                false
            }
        }
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Stateful(Affine::new(64));
        let (out, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        assert!(set.is_empty());
        assert_eq!(out.output, expected(64));
        // A foreign snapshot set must not fork it either.
        let mut donor = Affine::new(64);
        let (_, donor_set) = engine
            .golden_snapshotted(&mut donor, &SnapshotPolicy::default())
            .unwrap();
        let cursor = ForkCursor::new(engine, Arc::new(donor_set));
        let s = StrikeSpec::new(7, StrikeTarget::L2 { mask: 1 });
        assert_eq!(cursor.bucket(&p, &[s], &StdRng::seed_from_u64(0)), None);
    }

    #[test]
    fn forked_metrics_counted() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(&mut p, &SnapshotPolicy::default())
            .unwrap();
        let s = StrikeSpec::new(
            6,
            StrikeTarget::Fpu {
                mask: 1,
                op_index: 0,
            },
        );
        fork_once(&engine, &mut p, &set, s, 4, &mut RunScratch::default());
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("radcrit_engine_forked_runs_total", &[]),
            Some(1)
        );
        // Nothing loads the output the struck tile stores into, so the
        // fork stops after tile 6 and splices tile 7.
        assert_eq!(
            snap.counter("radcrit_run_contained_exits_total", &[]),
            Some(1)
        );
        assert!(snap.gauge("radcrit_snapshot_bytes", &[]).unwrap_or(0.0) > 0.0);
    }

    /// One tile of a [`Pipeline`]: loads `len` elements of buffer `src`
    /// (when given) at `at` and stores `2x + 1` into buffer `dst` (when
    /// given) at `to`; without a source the tile stores values of its
    /// own.
    #[derive(Debug, Clone, Copy)]
    struct Stage {
        src: Option<usize>,
        dst: Option<usize>,
        at: usize,
        to: usize,
        len: usize,
        /// A load of `(buffer, at, len)` before the stage's own, whose
        /// values are dropped.
        first: Option<(usize, usize, usize)>,
    }

    impl Stage {
        /// A stage storing at the offset it loads from.
        fn new(src: Option<usize>, dst: Option<usize>, at: usize, len: usize) -> Self {
            Stage {
                src,
                dst,
                at,
                to: at,
                len,
                first: None,
            }
        }

        fn to(self, to: usize) -> Self {
            Stage { to, ..self }
        }

        fn after_loading(self, buf: usize, at: usize, len: usize) -> Self {
            let first = Some((buf, at, len));
            Stage { first, ..self }
        }
    }

    /// A program wired stage by stage, for exercising taint propagation
    /// between buffers. The last buffer is the output.
    #[derive(Debug)]
    struct Pipeline {
        lens: Vec<usize>,
        stages: Vec<Stage>,
        bufs: Vec<BufferId>,
    }

    impl TiledProgram for Pipeline {
        fn name(&self) -> &str {
            "pipeline"
        }

        fn tile_count(&self) -> usize {
            self.stages.len()
        }

        fn threads_per_tile(&self) -> usize {
            8
        }

        fn setup(&mut self, mem: &mut DeviceMemory) -> Result<(), AccelError> {
            self.bufs = self
                .lens
                .iter()
                .enumerate()
                .map(|(b, &n)| {
                    let init: Vec<f64> = (0..n).map(|i| (b * 100 + i + 1) as f64).collect();
                    mem.alloc_init(format!("b{b}"), &init)
                })
                .collect();
            Ok(())
        }

        fn execute_tile(&mut self, tile: TileId, ctx: &mut TileCtx<'_>) -> Result<(), AccelError> {
            let st = self.stages[tile.index()];
            if let Some((buf, at, len)) = st.first {
                ctx.load(self.bufs[buf], at, &mut vec![0.0; len])?;
            }
            let mut x = vec![tile.index() as f64 + 0.5; st.len];
            if let Some(src) = st.src {
                ctx.load(self.bufs[src], st.at, &mut x)?;
            }
            let y: Vec<f64> = x.iter().map(|&v| ctx.fma(2.0, v, 1.0)).collect();
            match st.dst {
                Some(dst) => ctx.store(self.bufs[dst], st.to, &y),
                None => Ok(()),
            }
        }

        fn output(&self) -> BufferId {
            *self.bufs.last().expect("setup ran")
        }

        fn output_shape(&self) -> OutputShape {
            OutputShape::d1(*self.lens.last().expect("at least one buffer"))
        }
    }

    /// What [`reference_and_fork`] ran: the golden, reference and forked
    /// outcomes, both runs' traces, and the fork's exit counters.
    struct Forked {
        golden: GoldenRun,
        reference: RunOutcome,
        fork: RunOutcome,
        reference_trace: ExecutionTrace,
        fork_trace: ExecutionTrace,
        /// Contained exits, of which `flip_exits` left flips pending.
        exits: u64,
        flip_exits: u64,
        dead_exits: u64,
        /// Tiles the fork skipped.
        skipped: u64,
    }

    /// Runs `s` from tile 0 and forked off a stride-1 snapshot set.
    fn reference_and_fork(cfg: DeviceConfig, p: &mut Pipeline, s: StrikeSpec, seed: u64) -> Forked {
        let engine = Engine::new(cfg.clone());
        let policy = SnapshotPolicy {
            stride: 1,
            max_bytes: 0,
        };
        let (golden, set) = engine.golden_snapshotted(p, &policy).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut reference_trace = ExecutionTrace::new();
        let reference = engine
            .run(p, &[s], &mut rng, Some(&mut reference_trace))
            .unwrap();
        // Only the fork counts exits.
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(cfg).with_metrics(metrics.clone());
        let mut scratch = RunScratch::default();
        let mut warm = engine
            .warm_restore(p, &set, s.at_tile, &mut scratch, None)
            .unwrap();
        engine.warm_advance(p, &mut warm, s.at_tile).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fork_trace = ExecutionTrace::new();
        let fork = engine
            .inject(
                p,
                &[s],
                &mut rng,
                Some((&warm, &mut scratch)),
                Some(&mut fork_trace),
            )
            .unwrap();
        let snap = metrics.snapshot();
        let count = |name| snap.counter(name, &[]).unwrap_or(0);
        Forked {
            golden,
            reference,
            fork,
            reference_trace,
            fork_trace,
            exits: count("radcrit_run_contained_exits_total"),
            flip_exits: count("radcrit_run_flip_exits_total"),
            dead_exits: count("radcrit_run_dead_strike_exits_total"),
            skipped: count("radcrit_run_skipped_tiles_total"),
        }
    }

    /// 1 unit, 256-byte L1 (2 sets) and 512-byte L2 (4 sets of 2 ways)
    /// with 64-byte lines: small enough to place every line by hand.
    /// Buffers start on 256-byte (4-line) boundaries.
    fn tiny_device() -> DeviceConfig {
        DeviceConfig::builder("tiny")
            .units(1)
            .max_threads_per_unit(64)
            .l1(crate::cache::CacheGeometry::new(256, 64, 2).unwrap())
            .l2(crate::cache::CacheGeometry::new(512, 64, 2).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn taint_follows_loads_to_a_later_consumer() {
        // Buffers: in, a, b, out. Tile 0 computes a from in, tile 1 b
        // from a, tile 2 out from b: tile 2 consumes tile 0's output
        // through tile 1. The fault in tile 0 must taint a, then b (tile
        // 1 loads tainted a), so the fork never stops before tile 2.
        let stage = |src, dst| Stage::new(Some(src), Some(dst), 0, 8);
        let mut p = Pipeline {
            lens: vec![8; 4],
            stages: vec![stage(0, 1), stage(1, 2), stage(2, 3)],
            bufs: Vec::new(),
        };
        let s = StrikeSpec::new(
            0,
            StrikeTarget::Fpu {
                mask: 1 << 62,
                op_index: 3,
            },
        );
        let r = reference_and_fork(DeviceConfig::kepler_k40(), &mut p, s, 11);
        assert_ne!(bits(&r.reference.output), bits(&r.golden.output));
        assert_eq!(r.exits, 0, "the fault still reaches tile 2");
        assert_eq!(bits(&r.fork.output), bits(&r.reference.output));
        assert_eq!(r.fork.profile, r.reference.profile);
    }

    #[test]
    fn corrupted_write_back_taints_its_buffer() {
        // Tiny caches: 8 L2 lines of 64 bytes. Tile 0 writes buffer `in`
        // (two dirty L2 lines, the only residents), the strike flips one
        // of them, tile 1 streams a 16-line `pad` through the L2 and
        // evicts it — writing the flip back into `in` — and tile 2 reads
        // `in`. No tile of the fork carried or observed the fault; only
        // the write-back can taint `in` and keep the fork running.
        let cfg = tiny_device();
        let mut p = Pipeline {
            lens: vec![16, 128, 16],
            stages: vec![
                Stage::new(None, Some(0), 0, 16),
                Stage::new(Some(1), Some(1), 0, 128),
                Stage::new(Some(0), Some(2), 0, 16),
            ],
            bufs: Vec::new(),
        };
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
        let r = reference_and_fork(cfg, &mut p, s, 5);
        assert!(r.reference.strike_delivered);
        assert_ne!(
            bits(&r.reference.output),
            bits(&r.golden.output),
            "the written-back flip reaches the output through tile 2"
        );
        assert_eq!(r.exits, 0, "the write-back taints `in`, which tile 2 loads");
        assert_eq!(bits(&r.fork.output), bits(&r.reference.output));
        assert_eq!(r.fork.profile, r.reference.profile);
    }

    #[test]
    fn l2_flip_on_a_line_a_later_tile_loads_keeps_the_fork_running() {
        // K40 (128-byte lines, no evictions at this size). Buffers in, a,
        // x of one line each, and out. Tile 0 loads `in` and stores `a`,
        // so at the strike (tile 1) the L2 holds exactly one `in` line
        // (clean) and one `a` line (dirty): the flip lands on one of
        // them. Tile 1 touches neither; tile 2 reads `in`, tile 3 reads
        // `a`. The fork must run until the flipped line's reader has
        // observed it, then may exit.
        let mut p = Pipeline {
            lens: vec![16, 16, 16, 48],
            stages: vec![
                Stage::new(Some(0), Some(1), 0, 16),
                Stage::new(None, Some(2), 0, 16),
                Stage::new(Some(0), Some(3), 0, 16),
                Stage::new(Some(1), Some(3), 0, 16).to(16),
                Stage::new(Some(2), Some(3), 0, 16).to(32),
            ],
            bufs: Vec::new(),
        };
        for seed in 0..8 {
            let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
            let r = reference_and_fork(DeviceConfig::kepler_k40(), &mut p, s, seed);
            assert!(r.reference.strike_delivered);
            assert_ne!(
                bits(&r.reference.output),
                bits(&r.golden.output),
                "seed {seed}: a later tile reads the flip"
            );
            assert_eq!(
                bits(&r.fork.output),
                bits(&r.reference.output),
                "seed {seed}"
            );
            assert_eq!(r.fork.profile, r.reference.profile, "seed {seed}");
            assert_eq!(
                (r.exits, r.flip_exits),
                (1, 1),
                "seed {seed}: observed, the flip settles and the fork exits"
            );
        }
    }

    #[test]
    fn dirty_flipped_line_nobody_touches_again_exits_at_once() {
        // Tiny L2; buffers pad (lines 0..8) and out (lines 8..11). Tile 0
        // stores output line 8 (dirty, the only L2 resident), the strike
        // at tile 1 flips it, tile 1 stores line 9, tile 2 streams `pad`
        // (its line 4 evicts line 8, writing the XOR back) and tile 3
        // stores line 10. No tile touches line 8 again, so its flip's
        // fate is settled — its XOR reaches DRAM — and the fork exits
        // right after tile 1, even though golden evicts the line later.
        let mut p = Pipeline {
            lens: vec![64, 24],
            stages: vec![
                Stage::new(None, Some(1), 0, 8),
                Stage::new(None, Some(1), 8, 8),
                Stage::new(Some(0), None, 0, 64),
                Stage::new(None, Some(1), 16, 8),
            ],
            bufs: Vec::new(),
        };
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
        let r = reference_and_fork(tiny_device(), &mut p, s, 3);
        let diffs: Vec<usize> = (0..24)
            .filter(|&i| r.reference.output[i].to_bits() != r.golden.output[i].to_bits())
            .collect();
        assert_eq!(diffs.len(), 1, "one XORed element: {diffs:?}");
        assert!(diffs[0] < 8, "on line 8");
        assert_eq!((r.exits, r.flip_exits), (1, 1));
        assert_eq!(bits(&r.fork.output), bits(&r.reference.output));
        assert_eq!(r.fork.profile, r.reference.profile);
        let suffix: Vec<_> = r.reference_trace.tiles()[1..].to_vec();
        assert_eq!(r.fork_trace.tiles(), &suffix[..], "spliced trace");
    }

    #[test]
    fn clean_flip_golden_evicts_later_still_dead_exits() {
        // Tiny L2. Tile 0 loads `in` (line 0, set 0, clean) and stores
        // nothing, so the strike at tile 1 flips line 0. Tile 1 stores
        // `out` (line 12, set 0); tile 2 streams `pad` (lines 4..12),
        // whose line 4 evicts line 0 and its flip unseen. Nothing ever
        // observed the flip, so the run dead-exits after tile 2 — and the
        // fork must too, not take a flip exit after tile 1 and splice.
        let mut p = Pipeline {
            lens: vec![8, 64, 8],
            stages: vec![
                Stage::new(Some(0), None, 0, 8),
                Stage::new(None, Some(2), 0, 8),
                Stage::new(Some(1), None, 0, 64),
                Stage::new(None, Some(2), 0, 8),
            ],
            bufs: Vec::new(),
        };
        let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
        let r = reference_and_fork(tiny_device(), &mut p, s, 9);
        assert!(r.reference.strike_delivered);
        assert!(r.reference.golden_equivalent && r.fork.golden_equivalent);
        assert_eq!((r.exits, r.dead_exits), (0, 1));
        assert_eq!(r.reference_trace.tiles().len(), 3, "dead exit after tile 2");
        let suffix: Vec<_> = r.reference_trace.tiles()[1..].to_vec();
        assert_eq!(r.fork_trace.tiles(), &suffix[..], "same truncated trace");
        assert_eq!(r.fork.profile, r.reference.profile);
    }

    /// The fork equals the reference run: output bits, profile and the
    /// trace of the tiles from the strike on.
    fn assert_fork_matches(r: &Forked, at_tile: usize) {
        assert_eq!(bits(&r.fork.output), bits(&r.reference.output));
        assert_eq!(r.fork.profile, r.reference.profile);
        assert_eq!(r.fork.resolutions, r.reference.resolutions);
        assert_eq!(r.fork.golden_equivalent, r.reference.golden_equivalent);
        let suffix: Vec<_> = r.reference_trace.tiles()[at_tile..].to_vec();
        assert_eq!(
            r.fork_trace.tiles(),
            &suffix[..],
            "trace from the strike on"
        );
    }

    #[test]
    fn flip_evicted_mid_row_by_a_later_line_of_the_same_row_is_not_observed() {
        // Tiny L2 (4 sets of 2 ways); `in` spans lines 0..12. Tile 0
        // loads line 0, the only L2 resident, so the strike flips it.
        // Tile 1 loads lines 0..9 as one row: line 0 hits, line 4 fills
        // set 0, line 8 evicts line 0 (now the LRU way) — before the
        // row's corruption walk, which therefore never sees the flip.
        let mut p = Pipeline {
            lens: vec![96, 72],
            stages: vec![
                Stage::new(Some(0), None, 0, 8),
                Stage::new(Some(0), Some(1), 0, 72),
            ],
            bufs: Vec::new(),
        };
        for seed in 0..4 {
            let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
            let r = reference_and_fork(tiny_device(), &mut p, s, seed);
            assert!(r.reference.strike_delivered, "seed {seed}");
            assert!(
                r.reference.golden_equivalent,
                "seed {seed}: the flip left unseen, the run dead-exits"
            );
            assert_eq!(r.dead_exits, 1, "seed {seed}");
            assert_fork_matches(&r, 1);
        }
    }

    #[test]
    fn dirty_flip_evicted_inside_a_skipped_tile_reaches_the_output() {
        // Tiny L2; buffers pad (lines 0..8) and out (lines 8..11). Tile 0
        // stores out line 8 (dirty, the only L2 resident); the strike at
        // tile 1 flips it. Tile 1 streams `pad`, which evicts line 8 and
        // writes the XOR back, but touches no flipped line, loads nothing
        // tainted and stores nothing: the fork skips it and applies the
        // write-back from the index. Tile 2 reads line 8 back into out
        // line 10.
        let mut p = Pipeline {
            lens: vec![64, 24],
            stages: vec![
                Stage::new(None, Some(1), 0, 8),
                Stage::new(Some(0), None, 0, 64),
                Stage::new(Some(1), Some(1), 0, 8).to(16),
            ],
            bufs: Vec::new(),
        };
        for seed in 0..4 {
            let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
            let r = reference_and_fork(tiny_device(), &mut p, s, seed);
            let diffs: Vec<usize> = (0..24)
                .filter(|&i| r.reference.output[i].to_bits() != r.golden.output[i].to_bits())
                .collect();
            assert!(diffs.len() == 2 && diffs[0] < 8, "seed {seed}: {diffs:?}");
            assert!(diffs[1] >= 16, "seed {seed}: propagated to out line 10");
            assert_eq!(r.skipped, 1, "seed {seed}: tile 1 skipped");
            assert_fork_matches(&r, 1);
        }
    }

    #[test]
    fn a_flip_written_back_mid_tile_taints_what_the_tile_stores() {
        // Tiny L2 (4 sets of 2 ways); buffers x (line 0), pad (lines
        // 4..12), y (line 12) and out (line 16). Tile 0 stores x, the only
        // L2 resident (dirty), so the strike at tile 1 flips it. Tile 1
        // loads pad lines 4..9, whose line 8 evicts line 0 and writes the
        // XOR back, then loads x from memory — the flip has ended, so the
        // tile observes nothing — and stores y from it. Tile 2 loads y and
        // is replayable: only the write-back tells the fork that tile 1's
        // stores, and so tile 2's, are not golden's.
        let mut p = Pipeline {
            lens: vec![8, 64, 8, 8],
            stages: vec![
                Stage::new(None, Some(0), 0, 8),
                Stage::new(Some(0), Some(2), 0, 8).after_loading(1, 0, 40),
                Stage::new(Some(2), Some(3), 0, 8),
            ],
            bufs: Vec::new(),
        };
        for seed in 0..4 {
            let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
            let r = reference_and_fork(tiny_device(), &mut p, s, seed);
            assert!(r.reference.strike_delivered, "seed {seed}");
            assert_ne!(
                bits(&r.reference.output),
                bits(&r.golden.output),
                "seed {seed}: the written-back flip reaches the output"
            );
            assert_fork_matches(&r, 1);
            assert_eq!((r.skipped, r.exits), (0, 0), "seed {seed}");
        }
    }

    #[test]
    fn store_clears_a_live_flip() {
        // Tile 0 loads `a` (line 0, the only L2 resident) and the strike
        // at tile 1 flips it; tile 1 then stores all of line 0, which
        // supersedes the flip, so tile 2 reads the stored values and the
        // run dead-exits after tile 1 with nothing observed.
        let mut p = Pipeline {
            lens: vec![8, 8],
            stages: vec![
                Stage::new(Some(0), None, 0, 8),
                Stage::new(None, Some(0), 0, 8),
                Stage::new(Some(0), Some(1), 0, 8),
            ],
            bufs: Vec::new(),
        };
        for seed in 0..4 {
            let s = StrikeSpec::new(1, StrikeTarget::L2 { mask: 1 << 62 });
            let r = reference_and_fork(tiny_device(), &mut p, s, seed);
            assert!(r.reference.strike_delivered);
            assert!(r.reference.golden_equivalent, "seed {seed}");
            assert_eq!(
                r.reference_trace.tiles().len(),
                2,
                "seed {seed}: dead exit after the store"
            );
            assert_eq!(r.dead_exits, 1);
            assert_fork_matches(&r, 1);
        }
    }

    #[test]
    fn l1_flip_is_seen_only_by_its_unit() {
        // Two units. Tile 0 (unit 0) loads `a` (line 0), the only line in
        // unit 0's L1; the L1 strike at tile 2 (unit 0) flips it. Tile 3
        // (unit 1) reads `a` through its own clean L1 — the fork skips it
        // — and tile 4 (unit 0) reads the flip.
        let cfg = DeviceConfig::builder("tiny2")
            .units(2)
            .max_threads_per_unit(64)
            .l1(crate::cache::CacheGeometry::new(256, 64, 2).unwrap())
            .l2(crate::cache::CacheGeometry::new(512, 64, 2).unwrap())
            .build()
            .unwrap();
        let idle = Stage::new(None, None, 0, 1);
        let mut p = Pipeline {
            lens: vec![8, 16],
            stages: vec![
                Stage::new(Some(0), None, 0, 8),
                idle,
                idle,
                Stage::new(Some(0), Some(1), 0, 8),
                Stage::new(Some(0), Some(1), 0, 8).to(8),
            ],
            bufs: Vec::new(),
        };
        let plan = Engine::new(cfg.clone()).plan_of(&p);
        let units: Vec<usize> = (0..5).map(|t| plan.unit_of(t)).collect();
        assert_eq!(units, [0, 1, 0, 1, 0]);
        for seed in 0..4 {
            let s = StrikeSpec::new(2, StrikeTarget::L1 { mask: 1 << 62 });
            let r = reference_and_fork(cfg.clone(), &mut p, s, seed);
            let diffs: Vec<usize> = (0..16)
                .filter(|&i| r.reference.output[i].to_bits() != r.golden.output[i].to_bits())
                .collect();
            assert!(
                diffs.len() == 1 && diffs[0] >= 8,
                "seed {seed}: only unit 0's tile 4 sees the flip: {diffs:?}"
            );
            assert!(r.skipped >= 1, "seed {seed}: tile 3 skipped");
            assert_fork_matches(&r, 2);
        }
    }

    #[test]
    fn cache_strike_after_the_warm_instant_keeps_the_cache_model_and_matches() {
        // The warm state sits at tile 0 and the L2 strike lands at tile
        // 2: the fork copies the warm caches and runs per access, and
        // still equals the reference run.
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 1,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let mut scratch = RunScratch::default();
        let warm = engine
            .warm_restore(&mut p, &set, 0, &mut scratch, None)
            .unwrap();
        assert_eq!(warm.next_tile, 0);
        for seed in 0..4 {
            let s = StrikeSpec::new(2, StrikeTarget::L2 { mask: 1 << 62 });
            let reference = engine
                .run(&mut p, &[s], &mut SmallRng::seed_from_u64(seed), None)
                .unwrap();
            let fork = engine
                .inject(
                    &mut p,
                    &[s],
                    &mut SmallRng::seed_from_u64(seed),
                    Some((&warm, &mut scratch)),
                    None,
                )
                .unwrap();
            assert_eq!(bits(&fork.output), bits(&reference.output), "seed {seed}");
            assert_eq!(fork.profile, reference.profile);
            assert_eq!(fork.resolutions, reference.resolutions);
        }
        let skipped = metrics
            .snapshot()
            .counter("radcrit_run_skipped_tiles_total", &[]);
        assert_eq!(skipped, None, "the per-access path skips nothing");
    }

    #[test]
    fn register_strike_forks_at_its_victim() {
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(metrics.clone());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 1,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let s = StrikeSpec::new(
            2,
            StrikeTarget::RegisterFile {
                mask: 1 << 63,
                op_index: 1,
            },
        );
        let seed = 5;
        let plan = engine.plan_of(&p);
        let victim = draw_victim(&plan, s.at_tile, &mut SmallRng::seed_from_u64(seed));
        assert!(victim > s.at_tile, "seed {seed} draws a later victim");
        let mut rng = SmallRng::seed_from_u64(seed);
        let reference = engine.run(&mut p, &[s], &mut rng, None).unwrap();
        assert_eq!(reference.resolutions[0].victim_tile, Some(victim));

        // Forked at the strike tile, the strike is delivered in the tile
        // loop; forked at its victim (a deferred fork, the one a cursor
        // takes), before the first tile.
        let mut scratch = RunScratch::default();
        let mut warm = engine
            .warm_restore(&mut p, &set, s.at_tile, &mut scratch, None)
            .unwrap();
        for start in [s.at_tile, victim] {
            engine.warm_advance(&mut p, &mut warm, start).unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let fork = engine
                .inject(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None)
                .unwrap();
            assert_eq!(bits(&fork.output), bits(&reference.output), "at {start}");
            assert_eq!(fork.resolutions, reference.resolutions);
            assert_eq!(fork.profile, reference.profile);
        }
        assert_eq!(
            metrics
                .snapshot()
                .counter("radcrit_bucket_deferred_forks_total", &[]),
            Some(1)
        );

        // One tile past the victim, the fault could never land.
        engine.warm_advance(&mut p, &mut warm, victim + 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        assert!(matches!(
            engine.inject(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None),
            Err(AccelError::StrikeOutOfRange { tile, tiles })
                if tile == victim && tiles == victim + 1
        ));
    }

    #[test]
    fn profile_reflects_memory_traffic() {
        let engine = Engine::new(DeviceConfig::xeon_phi_3120a());
        let mut p = Affine::new(128);
        let out = engine.golden(&mut p).unwrap();
        assert_eq!(out.profile.loads, 128);
        assert_eq!(out.profile.stores, 128);
        assert!(out.profile.cache.l2_misses > 0);
        assert!(out.profile.l2_avg_resident_bytes > 0.0);
        assert_eq!(out.profile.wave_size, 57); // 4-thread tiles, 4 hw threads/core... one tile per core
    }

    /// Two units with one tiny L1 each: tile `t` runs on unit `t % 2`.
    fn two_unit_plan(tiles: usize) -> DispatchPlan {
        let cfg = DeviceConfig::builder("tiny2")
            .units(2)
            .max_threads_per_unit(64)
            .l1(crate::cache::CacheGeometry::new(256, 64, 2).unwrap())
            .l2(crate::cache::CacheGeometry::new(512, 64, 2).unwrap())
            .build()
            .unwrap();
        DispatchPlan::new(&cfg, tiles, tiles, 8, 0)
    }

    /// A synthetic golden ledger: `tiles`, and a line log in which tile
    /// `t` loads the lines `touches[t]` (stores those or-ed with
    /// [`LineLog::WRITE`](crate::cache::LineLog::WRITE)) and the L2
    /// evicts each `(line, tile)` of `evictions` clean.
    fn synthetic_ledger(
        tiles: Vec<LedgerTile>,
        touches: &[&[u32]],
        evictions: &[(u32, u32)],
    ) -> GoldenLedger {
        let mut log = crate::cache::LineLog::default();
        for (t, lines) in touches.iter().enumerate() {
            log.begin_tile(t, t % 2);
            let write = crate::cache::LineLog::WRITE;
            log.accesses.extend(lines.iter().map(|&l| (l & !write, l)));
        }
        log.l2_evictions
            .extend(evictions.iter().map(|&(line, tile)| {
                let e = crate::cache::Eviction {
                    tile,
                    ordinal: 0,
                    dirty: false,
                };
                (line, e)
            }));
        GoldenLedger {
            tiles,
            lines: LineIndex::new(log, Vec::new()),
            ..GoldenLedger::default()
        }
    }

    /// The exit policy of a fork over `ledger` on [`two_unit_plan`]'s
    /// device: 64-byte lines of 8 elements.
    fn policy<'a>(plan: &'a DispatchPlan, ledger: Option<&'a GoldenLedger>) -> ExitPolicy<'a> {
        ExitPolicy {
            plan,
            ledger,
            last_strike: Some(0),
            resumable: true,
            taint: TaintSet::default(),
            line_elems: 8,
        }
    }

    /// A value-only fork's overlay over `ledger`, holding a flip on
    /// `line` of `unit`'s L1 (the L2 when `None`) for each of `flips`.
    fn overlay_with(ledger: &GoldenLedger, flips: &[(Option<usize>, u64)]) -> Overlay {
        let caches = CacheHierarchy::new(&DeviceConfig::kepler_k40());
        let mut o = Overlay::new(&caches, Arc::new(ledger.clone()));
        o.flips
            .extend(flips.iter().map(|&(unit, line)| crate::cache::OverlayFlip {
                unit,
                line,
                offset: 0,
                mask: 1,
                end: crate::snapshot::FlipEnd {
                    at: None,
                    dirty: false,
                },
            }));
        o
    }

    #[test]
    fn a_value_only_fork_skips_only_replayable_tiles_that_load_no_tainted_element() {
        // Tile 0 (unit 0) loads line 5 of buffer 0 (elements 40..48) and
        // stores line 7 (elements 56..64).
        let plan = two_unit_plan(2);
        let tile = LedgerTile {
            loaded: 0b01,
            replayable: true,
            ..LedgerTile::default()
        };
        let store = 7 | crate::cache::LineLog::WRITE;
        let skips = |t: LedgerTile, tainted: &[(usize, std::ops::Range<usize>)]| {
            let g = synthetic_ledger(vec![t; 2], &[&[5, store], &[6]], &[]);
            let mut p = policy(&plan, Some(&g));
            for (b, r) in tainted {
                p.taint.fill(BufferId(*b), r.clone(), true);
            }
            p.skips(0, 0, &overlay_with(&g, &[]))
        };
        assert!(skips(tile, &[]));
        assert!(!skips(tile, &[(0, 47..48)]), "a tainted element it loads");
        assert!(skips(tile, &[(0, 48..49)]), "one past the line it loads");
        assert!(skips(tile, &[(0, 56..64)]), "elements it only stores");
        assert!(skips(tile, &[(1, 200..201)]), "a buffer it does not load");
        let unreplayable = LedgerTile {
            replayable: false,
            ..tile
        };
        assert!(
            !skips(unreplayable, &[]),
            "a store the ledger holds no golden values of"
        );
    }

    /// The journal-free case of the skip rule: with no journal bytes, a
    /// tile is replayable only when every span it stores is final.
    #[test]
    fn a_value_only_fork_skips_only_tiles_with_final_stores_and_no_tainted_load() {
        let mut mem = DeviceMemory::new();
        let input = mem.alloc_init("in", &[1.0; 8]);
        let state = mem.alloc_init("state", &[1.0; 8]);
        let out = mem.alloc_init("out", &[2.0; 16]);
        // `in` is line 5 (elements 40..48), `state` line 6 and `out`
        // lines 7 and 8.
        let stored = |buf, start, len| crate::program::Stored {
            buf,
            start,
            len,
            at: if buf == out { 56 } else { 48 } + start,
        };
        // Tiles 0–2 load line 5 of `in`. Tile 0 stores
        // out[0..8], tile 1 out[8..16], which tile 3 stores over, tile 2
        // state[0..8] and tile 3 out[8..12].
        let tiles: [&[crate::program::Stored]; 4] = [
            &[stored(out, 0, 8)],
            &[stored(out, 8, 8)],
            &[stored(state, 0, 8)],
            &[stored(out, 8, 4)],
        ];
        let loads = LedgerTile {
            loaded: input.bit(),
            ..LedgerTile::default()
        };
        let mut g = GoldenLedger::new(out);
        for (t, spans) in tiles.iter().enumerate() {
            let tile = if t < 3 { loads } else { LedgerTile::default() };
            g.push_tile(tile, spans.iter().copied(), &mem, 0).unwrap();
        }
        let lines = synthetic_ledger(Vec::new(), &[&[5], &[5], &[5], &[]], &[]).lines;
        g.finish(&[2.0; 16], 0, lines);
        assert_eq!(g.journal_bytes(), 0);

        let plan = two_unit_plan(4);
        let skips = |pos, tainted: &[(BufferId, std::ops::Range<usize>)]| {
            let mut p = policy(&plan, Some(&g));
            for (b, r) in tainted {
                p.taint.fill(*b, r.clone(), true);
            }
            p.skips(pos, pos % 2, &overlay_with(&g, &[]))
        };
        assert!(skips(0, &[]), "final stores");
        assert!(!skips(0, &[(input, 47..48)]), "a tainted load");
        assert!(
            skips(0, &[(out, 56..64)]),
            "tainted elements it only stores"
        );
        assert!(!skips(1, &[]), "output spans a later tile stores over");
        assert!(!skips(2, &[]), "a store to a buffer other than the output");
        assert!(skips(3, &[]), "the last store over an output span");
    }

    #[test]
    fn a_live_flip_on_a_touched_line_blocks_the_skip_and_an_l1_flip_only_on_its_unit() {
        // Tile 0 (unit 0) touches line 5, tile 1 (unit 1) line 6.
        let plan = two_unit_plan(2);
        let replayable = LedgerTile {
            replayable: true,
            ..LedgerTile::default()
        };
        let g = synthetic_ledger(vec![replayable; 2], &[&[5], &[6]], &[]);
        let skips = |pos, flips: &[(Option<usize>, u64)]| {
            policy(&plan, Some(&g)).skips(pos, pos % 2, &overlay_with(&g, flips))
        };
        assert!(!skips(0, &[(None, 5)]), "an L2 flip on a line it touches");
        assert!(
            skips(1, &[(None, 5)]),
            "an L2 flip on a line it leaves alone"
        );
        assert!(!skips(0, &[(Some(0), 5)]), "its own unit's L1 flip");
        assert!(skips(0, &[(Some(1), 5)]), "another unit's L1 flip");
        assert!(!skips(0, &[(Some(1), 5), (None, 5)]));
    }

    #[test]
    fn flips_settle_unless_a_later_tile_touches_their_line_or_the_run_may_yet_dead_exit() {
        // Tile 1 touches line 2; the L2 evicts line 3 during tile 1.
        let g = synthetic_ledger(vec![LedgerTile::default(); 2], &[&[1], &[2]], &[(3, 1)]);
        let settled = |line, l2_dirty, touched| {
            let f = FlipLine { line, l2_dirty };
            flips_settled(std::iter::once(f), touched, &g.lines, 1)
        };
        assert!(flips_settled(std::iter::empty(), false, &g.lines, 1));
        // A later tile touches the line: never settled.
        assert!(!settled(2, Some(true), true));
        assert!(!settled(2, None, true));
        // A dirty L2 flip's XOR reaches memory: the run can never
        // dead-exit.
        assert!(settled(1, Some(true), false));
        // Every flip stays to the end: the full run ends with it pending.
        assert!(settled(1, Some(false), false));
        // A clean L2 flip golden evicts later, or an L1 flip, may vanish
        // unseen and the full run dead-exit, unless corruption escaped.
        assert!(!settled(3, Some(false), false));
        assert!(settled(3, Some(false), true));
        assert!(!settled(1, None, false));
        assert!(settled(1, None, true));
    }

    #[test]
    fn the_contained_exit_waits_for_spent_faults_and_no_later_tainted_load() {
        // Buffers `a` (elements 0..8, line 0), `b` (32..40, line 4) and
        // `c` (64..72, line 8), golden 1.0 throughout. Tile 0 stores `b`
        // (journaled), tile 1 loads `b` and stores `c` (final output),
        // tile 2 loads `b`; tile 3 does nothing.
        let plan = two_unit_plan(4);
        let mut mem = DeviceMemory::new();
        let bufs = ["a", "b", "c"].map(|name| mem.alloc_init(name, &[1.0; 8]));
        let [_, b, c] = bufs;
        let later = |loaded, loaded_after| LedgerTile {
            loaded,
            loaded_after,
            replayable: true,
            ..LedgerTile::default()
        };
        let tiles = vec![
            later(0, 0b10),
            later(0b10, 0b10),
            later(0b10, 0),
            later(0, 0),
        ];
        let span = |buf: BufferId, at, journal| crate::snapshot::StoreSpan {
            buf,
            start: 0,
            len: 8,
            at,
            journal,
        };
        let g = GoldenLedger {
            stores: vec![span(b, 32, 0), span(c, 64, StoreSpan::FINAL)],
            store_starts: vec![0, 1, 2, 2, 2],
            journal: vec![1.0; 8],
            out_buf: Some(c),
            output: vec![1.0; 8],
            ..synthetic_ledger(tiles, &[&[], &[4], &[4], &[]], &[])
        };
        let armed = |at| PendingFaults(vec![(at, Pending::Armed(TileFault::none()))]);
        let mut p = policy(&plan, Some(&g));
        let quiet = |p: &ExitPolicy<'_>, pos, pending: &PendingFaults| {
            p.after_tile(pos, pending, false, false, std::iter::empty())
        };
        // The faulted tile 0 stores a wrong `b[3]`, which tile 1 loads.
        mem.write(b, 3, 2.0).unwrap();
        p.after_stores(0, Some(true), &armed(0), &mem, &[]).unwrap();
        assert!(p.taint.any(35..36) && !p.taint.any(32..35) && !p.taint.any(36..40));
        assert_eq!(quiet(&p, 0, &armed(0)), None);
        // Tile 1 loads it, so its store to `c` is compared: `c[0]` comes
        // out wrong. An armed victim still ahead keeps the fault unspent.
        mem.write(c, 0, 3.0).unwrap();
        p.after_stores(1, Some(false), &armed(2), &mem, &[])
            .unwrap();
        assert_eq!(p.taint.buffers(), b.bit() | c.bit());
        assert!(p.taint.any(64..65) && !p.taint.any(65..72));
        assert_eq!(quiet(&p, 1, &armed(2)), None);
        // After tile 2 nothing loads a tainted buffer, and the victim is
        // behind: contained.
        p.after_stores(2, Some(false), &armed(2), &mem, &[])
            .unwrap();
        let contained = Some(Exit::Contained { flips: false });
        assert_eq!(quiet(&p, 2, &armed(2)), contained);
        // A pending skip is never spent; the last tile has no suffix.
        let skip = PendingFaults(vec![(0, Pending::Skip)]);
        assert_eq!(quiet(&p, 2, &skip), None);
        assert_eq!(quiet(&p, 3, &armed(0)), None);

        // A fault whose stores match golden's again leaves no taint: the
        // fork exits after the victim although later tiles load `b`.
        mem.write(b, 3, 1.0).unwrap();
        let mut q = policy(&plan, Some(&g));
        q.after_stores(0, Some(true), &armed(0), &mem, &[]).unwrap();
        assert_eq!(q.taint.buffers(), 0);
        assert_eq!(quiet(&q, 0, &armed(0)), contained);
        // A corrupted write-back taints its element even from a clean
        // tile, and a replayed tile clears what it stores.
        let mut r = policy(&plan, Some(&g));
        let written = [(b, 33), (bufs[0], 2)];
        r.after_stores(0, Some(false), &armed(0), &mem, &written)
            .unwrap();
        assert!(r.taint.any(33..34) && r.taint.any(2..3));
        assert_eq!(quiet(&r, 0, &armed(0)), None);
        r.after_stores(0, None, &armed(0), &mem, &[]).unwrap();
        assert_eq!(r.taint.buffers(), bufs[0].bit(), "the replay cleared `b`");
        // A span the ledger holds no values of is tainted whole by a
        // dirty tile, and a fork that reroutes keeps no taint.
        let unjournaled = GoldenLedger {
            stores: vec![span(b, 32, StoreSpan::NONE)],
            store_starts: vec![0, 1, 1, 1, 1],
            ..g.clone()
        };
        let mut u = policy(&plan, Some(&unjournaled));
        u.after_stores(0, Some(true), &skip, &mem, &[]).unwrap();
        assert_eq!(u.taint.buffers(), 0);
        u.after_stores(0, Some(true), &armed(0), &mem, &[]).unwrap();
        assert!((32..40).all(|e| u.taint.any(e..e + 1)));
        // A run from tile 0 never takes the contained exit.
        assert_eq!(quiet(&policy(&plan, None), 2, &armed(0)), None);
    }

    #[test]
    fn the_dead_strike_exit_needs_every_strike_passed_and_nothing_touched_or_pending() {
        let plan = two_unit_plan(4);
        let mut p = ExitPolicy {
            last_strike: Some(1),
            ..policy(&plan, None)
        };
        let none = PendingFaults::default();
        let dead = |p: &mut ExitPolicy<'_>, pos, pending: &PendingFaults, touched, live| {
            p.after_tile(pos, pending, touched, live, std::iter::empty())
        };
        assert_eq!(
            dead(&mut p, 0, &none, false, false),
            None,
            "before the strike"
        );
        assert_eq!(dead(&mut p, 1, &none, false, false), Some(Exit::Dead));
        assert_eq!(dead(&mut p, 3, &none, false, false), Some(Exit::Dead));
        assert_eq!(
            dead(&mut p, 1, &none, true, false),
            None,
            "corruption escaped"
        );
        assert_eq!(dead(&mut p, 1, &none, false, true), None, "a flip pending");
        let garble = PendingFaults(vec![(0, Pending::UnitGarble)]);
        assert_eq!(
            dead(&mut p, 1, &garble, false, false),
            None,
            "a fault armed"
        );
        p.resumable = false;
        assert_eq!(dead(&mut p, 1, &none, false, false), None, "not resumable");
        p.resumable = true;
        p.last_strike = None;
        assert_eq!(dead(&mut p, 1, &none, false, false), None, "no strike");
    }
}
