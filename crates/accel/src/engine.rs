//! The tiled execution engine.
//!
//! Executes a [`TiledProgram`] tile by tile in dispatch order on a
//! simulated device, delivering [`StrikeSpec`]s when execution reaches
//! their instants. Execution is deterministic for a given program: a
//! fault-free run reproduces the golden output exactly (the paper
//! computes golden outputs "on the very same device used for
//! experiments" for the same reason, §IV-D).
//!
//! There is one injection entry point, [`Engine::run`]. It starts either
//! from tile 0 (the reference path) or from a [`WarmState`] — golden
//! machine state restored from a snapshot and rolled forward to the
//! strike instant — and the two starts are bit-identical by the
//! resumability contract. A forked run also stops as soon as its fault is
//! *contained* — spent, and never again loadable by a later tile — and
//! splices the golden suffix from the bucket's [`SnapshotSet`] ledger
//! instead of executing it; the outcome is the same bit for bit. A
//! register-file strike changes no machine state before its victim tile,
//! so its fork may also *start* there ([`Engine::fork_tile`]). A
//! value-only fork — no skip or redirect strike, every cache strike at
//! the warm state's instant — runs without the cache model: its flips
//! live in an overlay that the golden line index ends, and it skips the
//! tiles its fault cannot reach.

use std::sync::Arc;

use rand::Rng;

use radcrit_core::DirtyRegion;
use radcrit_obs::profile::{phase_if, profiling_enabled, PhaseId};
use radcrit_obs::MetricsRegistry;

use crate::cache::{CacheHierarchy, CacheStats, FlipLine, Overlay};
use crate::config::DeviceConfig;
use crate::error::AccelError;
use crate::memory::DeviceMemory;
use crate::profile::ExecutionProfile;
use crate::program::{
    apply_writebacks, MachineCounters, StoreLog, TileCtx, TileFault, TileId, TiledProgram,
};
use crate::scheduler::DispatchPlan;
use crate::snapshot::{
    EngineSnapshot, GoldenLedger, LedgerTile, LineIndex, SnapshotPolicy, SnapshotSet,
};
use crate::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
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
    /// The output buffer contents after the final cache flush.
    pub output: Vec<f64>,
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
    /// output would be bit-equal to golden, so callers must skip the
    /// output compare — the returned buffer, profile and trace stop at
    /// the exit tile. (A run whose fault *did* reach state but stayed
    /// contained stops early too, on forks only, but splices the golden
    /// suffix and reports `false` here: its outcome is complete.)
    pub golden_equivalent: bool,
}

/// Reusable per-worker state for repeated forks of one program on one
/// engine: the post-setup memory template (so `setup` runs once, not per
/// bucket) and the previous fork's memory image and cache tables (so
/// buffers are restored in place instead of reallocated).
///
/// A scratch is only valid for the `(engine, program)` pair it was first
/// used with; use a fresh one per campaign worker.
#[derive(Debug, Default)]
pub struct RunScratch {
    template: Option<DeviceMemory>,
    spare: Option<DeviceMemory>,
    spare_caches: Option<CacheHierarchy>,
    /// When the spare memory's written flags mirror a [`WarmState`]'s
    /// (identified by its unique generation), a fork can restore only
    /// the buffers either side has written since that sync instead of
    /// every buffer.
    spare_origin: Option<u64>,
}

impl RunScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        RunScratch::default()
    }

    /// Runs `program.setup` once to populate the template (and the
    /// program's buffer ids).
    fn ensure_template<P: TiledProgram + ?Sized>(
        &mut self,
        program: &mut P,
    ) -> Result<(), AccelError> {
        if self.template.is_none() {
            let mut m = DeviceMemory::new();
            program.setup(&mut m)?;
            self.template = Some(m);
        }
        Ok(())
    }

    /// An owned memory image equal to `warm`'s, reusing the spare
    /// allocation from the previous fork. When the spare last synced to
    /// this same warm state, only buffers written on either side since
    /// can differ, so the rest of the image copy is skipped.
    fn memory_of(&mut self, warm: &WarmState) -> DeviceMemory {
        match (self.spare_origin == Some(warm.gen), self.spare.take()) {
            (true, Some(mut m)) => {
                m.restore_written_from(&warm.mem);
                m
            }
            (_, Some(mut m)) => {
                self.spare_origin = Some(warm.gen);
                m.restore_from(&warm.mem);
                m
            }
            (_, None) => {
                self.spare_origin = Some(warm.gen);
                warm.mem.clone()
            }
        }
    }

    /// A cache hierarchy for a value-only fork's tiles to hold but never
    /// touch (they run against an overlay): the spare as it is.
    fn idle_caches(&mut self, cfg: &DeviceConfig) -> CacheHierarchy {
        self.spare_caches
            .take()
            .unwrap_or_else(|| CacheHierarchy::new(cfg))
    }

    /// An owned cache hierarchy equal to `src`, reusing the previous
    /// run's allocations (set vectors, flip tables) when available.
    fn caches_of(&mut self, src: &CacheHierarchy) -> CacheHierarchy {
        match self.spare_caches.take() {
            Some(mut c) => {
                c.restore_from(src);
                c
            }
            None => src.clone(),
        }
    }
}

/// Restored-and-advanced golden machine state shared by a bucket of
/// injections whose strikes resume from the same snapshot.
///
/// Built once per bucket by [`Engine::warm_restore`], rolled forward
/// tile by tile with [`Engine::warm_advance`], and forked (copied into
/// the scratch spares, never mutated) per strike by [`Engine::run`].
/// Because golden execution is deterministic, the warm state at tile `t`
/// is bit-equal to a run from tile 0 at `t` — which is what makes forked
/// runs bit-identical to reference runs.
#[derive(Debug)]
pub struct WarmState {
    mem: DeviceMemory,
    caches: CacheHierarchy,
    counters: MachineCounters,
    l2_resident_samples: f64,
    next_tile: usize,
    resume_tile: usize,
    /// The golden run tile by tile: its output spans from `resume_tile`
    /// on, unioned with a fork's own store log, bound the fork's dirty
    /// output region, and a contained fork splices its suffix from it.
    ledger: Arc<GoldenLedger>,
    /// Unique id for the dirty-only fork restore (see
    /// [`RunScratch::spare_origin`]). `mem`'s write tracking is reset
    /// when the state is built, so its written flags name exactly the
    /// buffers golden advancement has touched since.
    gen: u64,
}

/// Source of [`WarmState::gen`] values; never reused, so a scratch's
/// `spare_origin` can only ever match the warm state it last synced to.
static NEXT_WARM_GEN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl WarmState {
    /// The snapshot tile this state was restored from (the bucket key).
    #[must_use]
    pub fn resume_tile(&self) -> usize {
        self.resume_tile
    }

    /// The next tile golden execution would run; strikes at
    /// `>= next_tile` can fork from this state as-is.
    #[must_use]
    pub fn next_tile(&self) -> usize {
        self.next_tile
    }
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
    ) -> Result<RunOutcome, AccelError> {
        // The RNG is never consulted without a strike.
        Ok(self
            .run_internal(program, &[], None, None, &mut NoRng, None)?
            .0)
    }

    /// Like [`Engine::golden`], but additionally captures golden-prefix
    /// machine snapshots per `policy` for later forked injection runs
    /// (see [`Engine::warm_restore`]). The returned outcome is
    /// bit-identical to a plain golden run; the [`SnapshotSet`] is empty
    /// when the program is not [`TiledProgram::resumable`] or the byte
    /// budget admits no snapshot.
    ///
    /// # Errors
    ///
    /// Propagates program setup/execution errors.
    pub fn golden_snapshotted<P: TiledProgram + ?Sized>(
        &self,
        program: &mut P,
        policy: &SnapshotPolicy,
    ) -> Result<(RunOutcome, SnapshotSet), AccelError> {
        self.run_internal(program, &[], Some(*policy), None, &mut NoRng, None)
    }

    /// Runs `program`, delivering each of `strikes` when dispatch reaches
    /// its instant. `rng` resolves strike targets against live machine
    /// state (choice of resident line, victim tile, redirect
    /// destination); an empty `strikes` never consults it.
    ///
    /// `fork` picks the start. `None` is the reference path: setup and
    /// execution from tile 0, with no dirty region (the caller compares
    /// the whole output). `Some((warm, scratch))` copies `warm` into the
    /// scratch spares (`warm` itself is untouched) and runs only the
    /// suffix from `warm.next_tile()`, or only until its fault is
    /// contained, splicing the rest from the golden ledger. A strike's
    /// instant must not precede `warm.next_tile()`, except a register
    /// strike's, which is delivered before the first tile and may start
    /// as late as its victim ([`Engine::fork_tile`]). The outcome
    /// is bit-identical to the reference path — output, resolutions and
    /// profile — and carries the dirty output region (the run's own
    /// stores union the golden spans of the tiles it executed) for a
    /// sparse compare.
    ///
    /// `trace`, when given, receives one [`TileTrace`] per executed tile
    /// — the join between a strike and the tiles that touched struck
    /// state afterwards. Tracing never consults the RNG, so a traced run
    /// resolves strikes exactly as an untraced one. A forked trace
    /// covers only the suffix, which holds every tile a strike at or
    /// after `warm.next_tile()` can touch.
    ///
    /// Several strikes in one execution model the regime the paper's
    /// experimental design avoids (§IV-D keeps observed error rates below
    /// 10⁻³/execution so at most one neutron corrupts a run); campaigns
    /// pass exactly one.
    ///
    /// # Errors
    ///
    /// [`AccelError::StrikeOutOfRange`] if a strike instant is past the
    /// last tile or, for a fork, before `warm.next_tile()` (the fork
    /// would replay past the delivery instant) — for a register strike,
    /// if its victim is; propagates program errors.
    pub fn run<P, R>(
        &self,
        program: &mut P,
        strikes: &[StrikeSpec],
        rng: &mut R,
        fork: Option<(&WarmState, &mut RunScratch)>,
        trace: Option<&mut ExecutionTrace>,
    ) -> Result<RunOutcome, AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        Ok(self
            .run_internal(program, strikes, None, fork, rng, trace)?
            .0)
    }

    /// The first tile at which `strike` can change machine state: the
    /// victim of a register-file or vector-register strike (drawn from
    /// `rng` exactly as delivery draws it — pass a clone of the stream
    /// [`Engine::run`] will get), otherwise the strike instant. A fork
    /// may start from a [`WarmState`] advanced anywhere up to this tile;
    /// the tiles in between replay golden.
    pub fn fork_tile<P, R>(&self, program: &P, strike: &StrikeSpec, rng: &mut R) -> usize
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        if strike.target.is_deferrable() && strike.at_tile < program.tile_count() {
            draw_victim(&self.plan_of(program), strike.at_tile, rng)
        } else {
            strike.at_tile
        }
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
    /// [`WarmState`] — the batch scheduler's once-per-bucket restore —
    /// sharing the set's golden ledger. `reuse` recycles a previous
    /// bucket's allocations (memory image, cache tables) instead of
    /// cloning fresh ones. Returns `None` when the program is not
    /// resumable or no snapshot covers `tile`.
    ///
    /// # Errors
    ///
    /// Propagates program setup errors.
    pub fn warm_restore<P>(
        &self,
        program: &mut P,
        snapshots: &SnapshotSet,
        tile: usize,
        scratch: &mut RunScratch,
        reuse: Option<WarmState>,
    ) -> Result<Option<WarmState>, AccelError>
    where
        P: TiledProgram + ?Sized,
    {
        if !program.resumable() {
            return Ok(None);
        }
        let Some(snap) = snapshots.resume_point(tile) else {
            return Ok(None);
        };
        scratch.ensure_template(program)?;
        let template = scratch.template.as_ref().expect("ensure_template ran");
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
        Ok(Some(WarmState {
            mem,
            caches,
            counters: snap.counters,
            l2_resident_samples: snap.l2_resident_samples,
            next_tile: snap.at_tile,
            resume_tile: snap.at_tile,
            ledger: Arc::clone(&snapshots.ledger),
            gen: NEXT_WARM_GEN.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }))
    }

    /// Rolls `warm` forward fault-free to `to_tile` (exclusive),
    /// replaying the golden tiles in between — the shared prefix work a
    /// bucket's strikes amortize. Returns how many tiles were executed
    /// (`0` when already at or past `to_tile`).
    ///
    /// # Errors
    ///
    /// Propagates program execution errors.
    pub fn warm_advance<P>(
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

    fn run_internal<P, R>(
        &self,
        program: &mut P,
        strikes: &[StrikeSpec],
        capture: Option<SnapshotPolicy>,
        mut fork: Option<(&WarmState, &mut RunScratch)>,
        rng: &mut R,
        mut trace: Option<&mut ExecutionTrace>,
    ) -> Result<(RunOutcome, SnapshotSet), AccelError>
    where
        P: TiledProgram + ?Sized,
        R: Rng + ?Sized,
    {
        let tiles = program.tile_count();
        let launch_tiles = program.tiles_per_launch().min(tiles).max(1);
        let threads_per_tile = program.threads_per_tile();
        let local_mem = program.local_mem_per_tile();
        for s in strikes {
            if s.at_tile >= tiles {
                return Err(AccelError::StrikeOutOfRange {
                    tile: s.at_tile,
                    tiles,
                });
            }
            // A fork replays tiles from `next_tile` on; a strike before
            // that instant could never be delivered — unless it only arms
            // a later victim (checked at delivery below).
            if let Some((w, _)) = &fork {
                if s.at_tile < w.next_tile && !s.target.is_deferrable() {
                    return Err(AccelError::StrikeOutOfRange {
                        tile: s.at_tile,
                        tiles: w.next_tile,
                    });
                }
            }
        }

        let resumable = program.resumable();
        // The fork's warm state on its own (`fork` hands the scratch back
        // at the end).
        let warm: Option<&WarmState> = fork.as_ref().map(|(w, _)| *w);
        // A value-only fork — no strike changes the address stream, and
        // every cache strike lands at the warm state's instant — runs
        // against an overlay of its flips instead of a copy of the warm
        // caches, whose statistics it takes from the golden ledger.
        let mut overlay = warm
            .filter(|w| {
                strikes.iter().all(|s| match s.target {
                    StrikeTarget::Scheduler(
                        SchedulerEffect::SkipTile | SchedulerEffect::RedirectTile,
                    ) => false,
                    StrikeTarget::L1 { .. } | StrikeTarget::L2 { .. } => s.at_tile == w.next_tile,
                    _ => true,
                })
            })
            .map(|w| Overlay::new(w.caches.line_bytes()));
        let mut overlay_stats = warm.filter(|_| overlay.is_some()).map(|w| w.caches.stats());

        let (mut mem, mut caches, mut totals, mut l2_resident_samples, start_tile) =
            match fork.as_mut() {
                // Fork: copy the bucket's warm state into the scratch
                // spares. The warm state already sits at `next_tile`,
                // prefix replay included, so the fork starts right at
                // the strike instant.
                Some((w, sc)) => (
                    sc.memory_of(w),
                    match overlay {
                        Some(_) => sc.idle_caches(&self.cfg),
                        None => sc.caches_of(&w.caches),
                    },
                    w.counters,
                    w.l2_resident_samples,
                    w.next_tile,
                ),
                None => {
                    let mut m = DeviceMemory::new();
                    program.setup(&mut m)?;
                    (
                        m,
                        CacheHierarchy::new(&self.cfg),
                        MachineCounters::default(),
                        0.0,
                        0,
                    )
                }
            };
        let plan = self.plan_of(program);

        if let Some(m) = self.metrics.as_deref() {
            m.counter_add("radcrit_engine_runs_total", &[], 1);
            if fork.is_some() {
                m.counter_add("radcrit_engine_forked_runs_total", &[], 1);
            }
            plan.observe(m);
        }

        // Snapshot capture plan: explicit stride, or as many evenly
        // spaced snapshots as the byte budget admits (estimated from the
        // memory image plus a bound on cache metadata — the hierarchy
        // cannot hold more distinct lines than the memory footprint).
        let mut set = SnapshotSet::default();
        let capture_plan = capture.filter(|_| resumable && tiles > 0).map(|policy| {
            let budget = policy.budget();
            let stride = if policy.stride > 0 {
                policy.stride
            } else {
                // Snapshots store only written buffers (≈ the output) plus
                // cache metadata bounded by what can be resident at once.
                let line = caches.line_bytes().max(1);
                let out_bytes = mem.len_of(program.output()).unwrap_or(0) * 8;
                let capacity =
                    self.cfg.l2().size_bytes + self.cfg.units() * self.cfg.l1().size_bytes;
                let resident = mem.total_bytes().min(capacity);
                let est = out_bytes + caches.approx_heap_bytes() + resident / line * 48;
                let max_snaps = (budget / est.max(1)).max(1);
                tiles.div_ceil(max_snaps).max(1)
            };
            (stride, budget)
        });
        if capture_plan.is_some() {
            // Delta tracking baseline: the post-setup image.
            mem.reset_write_tracking();
            caches.history = Some(Box::default());
        }
        // The golden ledger a capture records alongside its snapshots.
        let mut ledger = capture_plan.map(|_| GoldenLedger::default());

        // Record output-buffer stores when capturing (to know the golden
        // suffix spans) and when forked (to know the faulty run's own
        // dirty spans, including redirects landing before the resume
        // point).
        let mut store_log = if capture_plan.is_some() || fork.is_some() {
            Some(StoreLog::new(program.output()))
        } else {
            None
        };

        let mut strike_delivered = false;
        let mut resolutions: Vec<StrikeResolution> = Vec::new();

        let mut pending = PendingFaults::default();

        // Dead-strike early exit: once every strike tile has passed and
        // no corruption is pending or was ever observed, and no core or
        // scheduler fault was ever armed (the pending table is never
        // drained; such runs are left to the contained exit below), the
        // resumability contract guarantees the remaining tiles compute
        // exactly the golden values. Stop executing; the caller skips
        // the compare. Gated on resumable programs only (pathological
        // kernels fail via cross-tile engine state this proof ignores).
        let last_strike_tile = strikes.iter().map(|s| s.at_tile).max();
        let mut golden_equivalent = false;
        let prof = profiling_enabled();

        // Contained-fault exit (forks only). `tainted` is the set of
        // buffers that may hold non-golden bytes. Once every fault is
        // spent and no later golden tile loads a tainted buffer, every
        // remaining tile would compute exactly its golden values — a
        // resumable program derives addresses from the tile id alone, so
        // cache tags and counters also track golden's — and the rest of
        // the run is spliced from the bucket's golden ledger. Flips may
        // still be pending then, on lines no later tile touches (see
        // `flips_settled`): the exit's flush settles them.
        let mut tainted = 0u64;
        let mut contained_at: Option<usize> = None;
        // Tiles a value-only fork skipped (see `skippable`).
        let mut skipped = 0u64;

        // Deferred start: register-file strikes before the fork's first
        // tile, delivered in dispatch order with the draws delivery at
        // their instant would make. Their victim must not have run yet.
        let mut early: Vec<&StrikeSpec> =
            strikes.iter().filter(|s| s.at_tile < start_tile).collect();
        early.sort_by_key(|s| s.at_tile);
        let deferred = !early.is_empty();
        for s in early {
            let resolution = pending.deliver(s, s.at_tile, &plan, rng, |unit, mask, rng| {
                strike_cache(
                    &mut caches,
                    overlay.as_mut().zip(warm),
                    unit,
                    s.at_tile,
                    rng,
                    mask,
                )
            });
            if let Some(victim) = resolution.victim_tile.filter(|&v| v < start_tile) {
                return Err(AccelError::StrikeOutOfRange {
                    tile: victim,
                    tiles: start_tile,
                });
            }
            strike_delivered |= resolution.delivered;
            resolutions.push(resolution);
        }
        if let (Some(m), true) = (self.metrics.as_deref(), deferred) {
            m.counter_add("radcrit_bucket_deferred_forks_total", &[], 1);
        }

        for pos in start_tile..tiles {
            if let Some((stride, budget)) = capture_plan {
                if pos % stride == 0 {
                    let _scope = phase_if(prof, PhaseId::SnapshotCapture);
                    let captured = set.push(
                        EngineSnapshot {
                            at_tile: pos,
                            mem_delta: mem.written_delta(),
                            caches: caches.clone_state(),
                            counters: totals,
                            l2_resident_samples,
                        },
                        budget,
                    );
                    if !captured {
                        if let Some(m) = self.metrics.as_deref() {
                            m.counter_add("radcrit_snapshot_skipped_tiles_total", &[], 1);
                        }
                    }
                }
            }

            for s in strikes {
                if s.at_tile == pos {
                    let resolution = pending.deliver(s, pos, &plan, rng, |unit, mask, rng| {
                        strike_cache(
                            &mut caches,
                            overlay.as_mut().zip(warm),
                            unit,
                            pos,
                            rng,
                            mask,
                        )
                    });
                    strike_delivered |= resolution.delivered;
                    resolutions.push(resolution);
                }
            }

            let Some((effective_tile, fault)) = pending.tile_at(pos, &plan) else {
                continue;
            };

            let unit = plan.unit_of(pos);
            if let Some(h) = caches.history.as_deref_mut() {
                h.begin_tile(pos, unit);
            }
            let carried = fault != TileFault::none();
            // What golden's caches did in this tile, for a value-only fork.
            let golden_tile = warm
                .filter(|_| overlay.is_some())
                .map(|w| w.ledger.tiles[pos]);
            if let Some(o) = overlay.as_mut() {
                o.begin_tile(pos);
            }
            let skip = match (golden_tile, warm, overlay.as_ref()) {
                (Some(t), Some(w), Some(o))
                    if !carried
                        && effective_tile == pos
                        && skippable(&t, o, &w.ledger.lines, pos, unit, tainted) =>
                {
                    Some((t, w))
                }
                _ => None,
            };
            let (loaded, stored, written_back, observed) = match (skip, overlay.as_mut()) {
                // A skipped tile would compute golden's values: write its
                // golden output spans, end the flips golden evicts during
                // it, and add its golden counters, statistics and trace.
                (Some((t, w)), Some(o)) => {
                    skipped += 1;
                    let out = program.output();
                    for (s, l) in w.ledger.spans_in(pos..pos + 1) {
                        let (_, window) = mem.window_mut(out, s, l)?;
                        window.copy_from_slice(&w.ledger.output[s..s + l]);
                    }
                    let mut wbs = Vec::new();
                    o.end_in_tile(pos, &mut wbs);
                    o.touched |= !wbs.is_empty();
                    let written_back = apply_writebacks(&mut mem, &wbs, store_log.as_mut());
                    totals.add(t.counters);
                    if let Some(stats) = overlay_stats.as_mut() {
                        add_cache_deltas(stats, &t.cache);
                    }
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.push(tile_trace(pos, unit, &t));
                    }
                    (0, 0, written_back, false)
                }
                (_, o) => {
                    let stats_before = caches.stats();
                    let mut ctx = TileCtx::new(&mut mem, &mut caches, unit, fault);
                    if let Some(log) = store_log.as_mut() {
                        ctx = ctx.with_store_log(log);
                    }
                    if let Some(o) = o {
                        ctx = ctx.with_overlay(o);
                    }
                    {
                        let _scope = phase_if(prof, PhaseId::TileExecute);
                        program.execute_tile(TileId(effective_tile), &mut ctx)?;
                    }
                    let c = ctx.drain_counters();
                    let (loaded, stored, written_back, observed) =
                        (ctx.loaded, ctx.stored, ctx.written_back, ctx.observed);
                    totals.add(c);
                    if let (Some(stats), Some(t)) = (overlay_stats.as_mut(), golden_tile) {
                        add_cache_deltas(stats, &t.cache);
                    }
                    if trace.is_some() || ledger.is_some() {
                        let after = caches.stats();
                        let entry = LedgerTile {
                            counters: c,
                            cache: match golden_tile {
                                Some(t) => t.cache,
                                None => CacheStats {
                                    l1_hits: after.l1_hits - stats_before.l1_hits,
                                    l1_misses: after.l1_misses - stats_before.l1_misses,
                                    l2_hits: after.l2_hits - stats_before.l2_hits,
                                    l2_misses: after.l2_misses - stats_before.l2_misses,
                                    l2_resident_lines: after.l2_resident_lines,
                                },
                            },
                            // Set when the run ends, from later tiles' loads.
                            loaded_after: 0,
                            loaded,
                            stored,
                            overwritten: false,
                        };
                        if let Some(tr) = trace.as_deref_mut() {
                            tr.push(tile_trace(pos, unit, &entry));
                        }
                        if let Some(g) = ledger.as_mut() {
                            g.tiles.push(entry);
                            // Attribute this tile's output stores for the
                            // golden span index.
                            if let Some(log) = store_log.as_mut() {
                                for &(s, l) in &log.spans {
                                    g.output_spans.push((pos as u32, s as u32, l as u32));
                                }
                                log.spans.clear();
                            }
                        }
                    }
                    (loaded, stored, written_back, observed)
                }
            };

            l2_resident_samples += match golden_tile {
                Some(t) => t.cache.l2_resident_lines,
                None => caches.l2_resident_lines(),
            } as f64;

            let (touched, flips_pending) = match overlay.as_ref() {
                Some(o) => (o.touched, o.is_live()),
                None => (caches.corruption_touched(), caches.has_pending_corruption()),
            };
            if let Some(last) = last_strike_tile {
                if resumable && pos >= last && pending.is_empty() && !touched && !flips_pending {
                    golden_equivalent = true;
                    if let Some(m) = self.metrics.as_deref() {
                        m.counter_add("radcrit_run_dead_strike_exits_total", &[], 1);
                    }
                    break;
                }
            }

            if let Some(w) = warm {
                // A tile that carried a fault, read a tainted buffer or
                // observed a flipped bit may have stored non-golden
                // bytes; a corrupted write-back taints its target.
                if carried || observed || loaded & tainted != 0 {
                    tainted |= stored;
                }
                tainted |= written_back;
                // Spent: every strike delivered, every armed victim and
                // unit-garble wave behind us, no change to the address
                // stream, no flip a later tile can read.
                if pos + 1 < tiles
                    && w.ledger.tiles[pos].loaded_after & tainted == 0
                    && last_strike_tile.is_none_or(|last| pos >= last)
                    && pending.spent(pos, &plan)
                    && match overlay.as_ref() {
                        Some(o) => flips_settled(o.flip_lines(), touched, &w.ledger.lines, pos + 1),
                        None => {
                            flips_settled(caches.flip_lines(), touched, &w.ledger.lines, pos + 1)
                        }
                    }
                {
                    contained_at = Some(pos);
                    if let Some(m) = self.metrics.as_deref() {
                        m.counter_add("radcrit_run_contained_exits_total", &[], 1);
                        if flips_pending {
                            m.counter_add("radcrit_run_flip_exits_total", &[], 1);
                        }
                    }
                    break;
                }
            }
        }

        if let (Some(m), true) = (self.metrics.as_deref(), skipped > 0) {
            m.counter_add("radcrit_run_skipped_tiles_total", &[], skipped);
        }

        let line_index = caches
            .history
            .take()
            .map(|h| LineIndex::new(*h, caches.l2_dirty_lines()));

        // End of kernel: flush the hierarchy; dirty corrupted lines write
        // their corruption back to DRAM where the host reads the output.
        let wbs = match overlay.as_mut() {
            Some(o) => o.flush(),
            None => caches.flush(),
        };
        apply_writebacks(&mut mem, &wbs, store_log.as_mut());

        let mut output = mem.take_vec(program.output())?;
        program
            .output_shape()
            .check_len(output.len())
            .map_err(|_| {
                AccelError::InvalidConfig(format!(
                    "program {} declares an output shape not matching its buffer",
                    program.name()
                ))
            })?;

        // Flushed caches hold no lines.
        let mut stats = match overlay_stats {
            Some(s) => CacheStats {
                l2_resident_lines: 0,
                ..s
            },
            None => caches.stats(),
        };
        // Splice the golden suffix after a contained exit at tile `e`:
        // every later tile would have run exactly as in golden, so its
        // output stores land golden final values and its counters, cache
        // statistics, residency sample (added one tile at a time, in
        // order, so the float sum matches) and trace record are golden's.
        if let (Some(e), Some(w)) = (contained_at, warm) {
            let g = &w.ledger;
            for (s, l) in g.spans_in(e + 1..tiles) {
                output[s..s + l].copy_from_slice(&g.output[s..s + l]);
            }
            for (t, entry) in g.tiles.iter().enumerate().skip(e + 1) {
                totals.add(entry.counters);
                add_cache_deltas(&mut stats, &entry.cache);
                l2_resident_samples += entry.cache.l2_resident_lines as f64;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.push(tile_trace(t, plan.unit_of(t), entry));
                }
            }
        }

        // The dirty output region of a forked run: elements this run
        // actually stored (plus corrupted write-backs) union the bucket's
        // golden spans of the tiles it executed — a tile the fault
        // skipped keeps golden-at-resume bytes that the golden suffix
        // would have overwritten, so both sides are needed. The fork's
        // store log starts at the strike tile, not the bucket's resume
        // tile, but the golden stores in between are a subset of the
        // bucket's spans, so the union covers them either way. Spliced
        // tiles stored golden final values and add nothing.
        let dirty = warm.map(|w| {
            let end = contained_at.map_or(tiles, |e| e + 1);
            let mut spans = store_log.map(|l| l.spans).unwrap_or_default();
            spans.extend(w.ledger.spans_in(w.resume_tile..end));
            DirtyRegion::from_spans(spans, output.len())
        });
        let line_bytes = caches.line_bytes() as f64;
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
            cache: stats,
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

        // Hand the memory image and cache hierarchy back for the next
        // fork to restore in place (the taken output buffer is the only
        // reallocation).
        if let Some((_, sc)) = fork {
            sc.spare = Some(mem);
            sc.spare_caches = Some(caches);
        }

        if let Some(mut g) = ledger {
            let mut after = 0;
            for entry in g.tiles.iter_mut().rev() {
                entry.loaded_after = after;
                after |= entry.loaded;
            }
            // A tile's output spans are overwritten when a later tile
            // stores over any of their elements.
            let mut later = vec![false; output.len()];
            let spans = &g.output_spans;
            let mut hi = spans.len();
            while hi > 0 {
                let t = spans[hi - 1].0;
                let lo = spans[..hi].partition_point(|&(u, _, _)| u < t);
                let range = |&(_, s, l): &(u32, u32, u32)| s as usize..(s + l) as usize;
                g.tiles[t as usize].overwritten = spans[lo..hi]
                    .iter()
                    .any(|sp| later[range(sp)].contains(&true));
                for sp in &spans[lo..hi] {
                    later[range(sp)].fill(true);
                }
                hi = lo;
            }
            g.output.clone_from(&output);
            g.lines = line_index.unwrap_or_default();
            set.ledger = Arc::new(g);
            if let Some(m) = self.metrics.as_deref() {
                m.gauge_set("radcrit_snapshot_bytes", &[], set.cost_bytes() as f64);
            }
        }

        Ok((
            RunOutcome {
                output,
                profile,
                strike_delivered,
                resolutions,
                dirty,
                golden_equivalent,
            },
            set,
        ))
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
        let at_pos = || self.0.iter().filter(move |&&(at, _)| at == pos);
        if at_pos().any(|(_, e)| matches!(e, Pending::Skip)) {
            return None;
        }
        let tile = at_pos()
            .find_map(|&(_, e)| match e {
                Pending::Redirect(dest) => Some(dest),
                _ => None,
            })
            .unwrap_or(pos);
        let mut fault = at_pos()
            .find_map(|&(_, e)| match e {
                Pending::Armed(f) => Some(f),
                _ => None,
            })
            .unwrap_or_else(TileFault::none);
        if self.0.iter().any(|&(from, e)| {
            matches!(e, Pending::UnitGarble) && plan.unit_garble_applies(from, pos)
        }) {
            fault.garble = true;
        }
        Some((tile, fault))
    }

    /// Whether no strike left any effect pending — with no pending flip
    /// and no corruption ever touched, the dead-strike exit's test.
    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether a skip or redirect is pending: the run's address stream
    /// may differ from golden's, so its cache state need not track
    /// golden's tile for tile.
    fn skip_or_redirect_pending(&self) -> bool {
        self.0
            .iter()
            .any(|(_, e)| matches!(e, Pending::Skip | Pending::Redirect(_)))
    }

    /// Whether every pending effect is spent once the tile at `pos` has
    /// run — every armed victim behind, every unit-garble wave over, no
    /// skip or redirect — the contained exit's test.
    fn spent(&self, pos: usize, plan: &DispatchPlan) -> bool {
        !self.skip_or_redirect_pending()
            && self.0.iter().all(|&(at, e)| match e {
                Pending::Armed(_) => at <= pos,
                Pending::UnitGarble => plan.wave_of(pos + 1) != plan.wave_of(at),
                Pending::Skip | Pending::Redirect(_) => true, // ruled out above
            })
    }
}

/// The victim of a register strike at `pos`: a tile still pending in
/// the wave — the one RNG draw [`Engine::fork_tile`] and delivery share.
fn draw_victim<R: Rng + ?Sized>(plan: &DispatchPlan, pos: usize, rng: &mut R) -> usize {
    let victims = plan.pending_in_wave(pos);
    rng.gen_range(victims.start..victims.end)
}

/// Flips `mask` in a random resident line of `l1_unit`'s L1 (the L2
/// when `None`) before the tile at `pos`: in `caches`, or in a value-only
/// fork's overlay, drawn from its warm caches. Whether a line was
/// resident.
fn strike_cache<R: Rng + ?Sized>(
    caches: &mut CacheHierarchy,
    overlay: Option<(&mut Overlay, &WarmState)>,
    l1_unit: Option<usize>,
    pos: usize,
    rng: &mut R,
    mask: u64,
) -> bool {
    match overlay {
        Some((o, w)) => o.strike(&w.caches, &w.ledger.lines, l1_unit, pos, rng, mask),
        None => caches.strike(l1_unit, rng, mask).is_some(),
    }
}

/// Whether a value-only fork may skip the tile `t` at dispatch position
/// `pos`, running on `unit` with no fault armed: it touches no line a
/// live flip sits on (for an L1 flip, only touches from its unit count),
/// loads no `tainted` buffer, and its stores are final — no later tile
/// loads a buffer it stores or stores over its output spans. Such a
/// tile computes exactly golden's values, and nothing later can tell
/// whether it ran or its golden output was written.
fn skippable(
    t: &LedgerTile,
    overlay: &Overlay,
    lines: &LineIndex,
    pos: usize,
    unit: usize,
    tainted: u64,
) -> bool {
    t.loaded & tainted == 0
        && t.stored & t.loaded_after == 0
        && !t.overwritten
        && overlay
            .flips
            .iter()
            .all(|f| f.unit.is_some_and(|u| u != unit) || !lines.touched_by(f.line, pos))
}

/// Adds one tile's cache hit and miss deltas to `stats`.
fn add_cache_deltas(stats: &mut CacheStats, d: &CacheStats) {
    stats.l1_hits += d.l1_hits;
    stats.l1_misses += d.l1_misses;
    stats.l2_hits += d.l2_hits;
    stats.l2_misses += d.l2_misses;
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
fn tile_trace(pos: usize, unit: usize, t: &LedgerTile) -> TileTrace {
    TileTrace {
        pos,
        unit,
        ops: t.counters.ops,
        trans_ops: t.counters.trans_ops,
        loads: t.counters.loads,
        stores: t.counters.stores,
        l2_hits: t.cache.l2_hits,
        l2_misses: t.cache.l2_misses,
    }
}

/// An RNG that panics if consulted — used for golden runs, which must be
/// deterministic and never sample anything.
#[derive(Debug)]
struct NoRng;

impl rand::RngCore for NoRng {
    fn next_u32(&mut self) -> u32 {
        unreachable!("golden runs must not consume randomness")
    }

    fn next_u64(&mut self) -> u64 {
        unreachable!("golden runs must not consume randomness")
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        unreachable!("golden runs must not consume randomness")
    }

    fn try_fill_bytes(&mut self, _dest: &mut [u8]) -> Result<(), rand::Error> {
        unreachable!("golden runs must not consume randomness")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_core::shape::OutputShape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng as SmallRng;

    use crate::memory::BufferId;

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
        assert!(!a.strike_delivered);
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
            engine.run(&mut p, &[s], &mut rng, None, None),
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
        assert!(out.strike_delivered);
        let exp = expected(64);
        let diffs: Vec<usize> = (0..64).filter(|&i| out.output[i] != exp[i]).collect();
        assert_eq!(diffs, vec![3 * 8 + 2], "exactly op 2 of tile 3 corrupted");
        assert_eq!(out.output[26], -exp[26], "sign flip of the result");
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &strikes, &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let faulty = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
        assert_eq!(faulty.profile.tiles, golden.profile.tiles);
        assert_eq!(faulty.profile.wave_size, golden.profile.wave_size);
        assert_eq!(faulty.profile.total_ops, golden.profile.total_ops - 8);
    }

    #[test]
    fn empty_strike_list_equals_golden() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(22);
        let out = engine.run(&mut p, &[], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
        assert_eq!(out.resolutions.len(), 1);
        let r = out.resolutions[0];
        assert_eq!(r.at_tile, 3);
        assert_eq!(r.site, "fpu");
        assert!(r.delivered);
        assert_eq!(r.victim_tile, Some(3));
        assert_eq!(r.redirect_dest, None);
        assert!(engine.golden(&mut p).unwrap().resolutions.is_empty());
    }

    #[test]
    fn redirect_resolution_names_the_destination() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let mut rng = SmallRng::seed_from_u64(6);
        let s = StrikeSpec::new(1, StrikeTarget::Scheduler(SchedulerEffect::RedirectTile));
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let out = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
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
        let plain = engine.run(&mut p, &[s], &mut rng_a, None, None).unwrap();
        let mut rng_b = SmallRng::seed_from_u64(42);
        let mut trace = ExecutionTrace::new();
        let traced = engine
            .run(&mut p, &[s], &mut rng_b, None, Some(&mut trace))
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
        assert!(
            !set.ledger.output_spans.is_empty(),
            "golden stores to the output are indexed"
        );
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
            .unwrap()
            .expect("a snapshot covers the strike");
        engine.warm_advance(p, &mut warm, s.at_tile).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        engine
            .run(p, &[s], &mut rng, Some((&warm, scratch)), None)
            .unwrap()
    }

    #[test]
    fn forked_run_is_bit_identical_to_reference_run() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let (_, set) = engine
            .golden_snapshotted(
                &mut p,
                &SnapshotPolicy {
                    stride: 3,
                    max_bytes: 0,
                },
            )
            .unwrap();
        let golden = engine.golden(&mut p).unwrap();
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
        let mut scratch = RunScratch::new();
        let mut warm: Option<WarmState> = None;
        for (i, target) in targets.iter().enumerate() {
            // Ascending strike tiles: the warm state advances
            // monotonically like the batch scheduler drives it, and
            // restores when a strike crosses into the next bucket.
            for at_tile in [0, 3, 4, 5, 7] {
                let s = StrikeSpec::new(at_tile, *target);
                let seed = 300 + i as u64;
                let mut rng_full = SmallRng::seed_from_u64(seed);
                let full = engine.run(&mut p, &[s], &mut rng_full, None, None).unwrap();
                assert!(full.dirty.is_none(), "reference runs have no dirty region");

                let need_restore = warm.as_ref().is_none_or(|w| {
                    w.resume_tile() != set.resume_tile(at_tile).unwrap() || w.next_tile() > at_tile
                });
                if need_restore {
                    warm = engine
                        .warm_restore(&mut p, &set, at_tile, &mut scratch, warm.take())
                        .unwrap();
                }
                let w = warm.as_mut().unwrap();
                engine.warm_advance(&mut p, w, at_tile).unwrap();
                let mut rng_fork = SmallRng::seed_from_u64(seed);
                let fork = engine
                    .run(&mut p, &[s], &mut rng_fork, Some((w, &mut scratch)), None)
                    .unwrap();

                assert_eq!(
                    bits(&full.output),
                    bits(&fork.output),
                    "{target:?}@{at_tile}"
                );
                assert_eq!(full.resolutions, fork.resolutions);
                assert_eq!(full.profile, fork.profile);
                assert_eq!(full.strike_delivered, fork.strike_delivered);
                // The dirty region must cover every mismatch vs golden.
                let dirty = fork.dirty.expect("forked run reports its dirty region");
                for idx in 0..full.output.len() {
                    if full.output[idx].to_bits() != golden.output[idx].to_bits() {
                        assert!(dirty.contains(idx), "{target:?}@{at_tile}: idx {idx} dirty");
                    }
                }
            }
            warm = None; // next target restarts the bucket
        }
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
        let mut scratch = RunScratch::new();
        let mut warm = engine
            .warm_restore(&mut p, &set, 6, &mut scratch, None)
            .unwrap()
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
            engine.run(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None),
            Err(AccelError::StrikeOutOfRange { tile: 5, tiles: 6 })
        ));
    }

    #[test]
    fn warm_restore_refuses_non_covered_or_non_resumable() {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut p = Affine::new(64);
        let set = SnapshotSet::default();
        let mut scratch = RunScratch::new();
        assert!(engine
            .warm_restore(&mut p, &set, 7, &mut scratch, None)
            .unwrap()
            .is_none());
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
        let mut scratch = RunScratch::new();
        for _ in 0..3 {
            let a = fork_once(&engine, &mut p, &set, s, 9, &mut scratch);
            let mut rng_b = SmallRng::seed_from_u64(9);
            let b = engine.run(&mut p, &[s], &mut rng_b, None, None).unwrap();
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
        // A foreign snapshot set must not restore either.
        let mut donor = Affine::new(64);
        let (_, donor_set) = engine
            .golden_snapshotted(&mut donor, &SnapshotPolicy::default())
            .unwrap();
        let mut scratch = RunScratch::new();
        assert!(engine
            .warm_restore(&mut p, &donor_set, 7, &mut scratch, None)
            .unwrap()
            .is_none());
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
        fork_once(&engine, &mut p, &set, s, 4, &mut RunScratch::new());
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
            }
        }

        fn to(self, to: usize) -> Self {
            Stage { to, ..self }
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
        golden: RunOutcome,
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
            .run(p, &[s], &mut rng, None, Some(&mut reference_trace))
            .unwrap();
        // Only the fork counts exits.
        let metrics = std::sync::Arc::new(MetricsRegistry::new());
        let engine = Engine::new(cfg).with_metrics(metrics.clone());
        let mut scratch = RunScratch::new();
        let mut warm = engine
            .warm_restore(p, &set, s.at_tile, &mut scratch, None)
            .unwrap()
            .unwrap();
        engine.warm_advance(p, &mut warm, s.at_tile).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fork_trace = ExecutionTrace::new();
        let fork = engine
            .run(
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
        let mut scratch = RunScratch::new();
        let warm = engine
            .warm_restore(&mut p, &set, 0, &mut scratch, None)
            .unwrap()
            .unwrap();
        assert_eq!(warm.next_tile(), 0);
        for seed in 0..4 {
            let s = StrikeSpec::new(2, StrikeTarget::L2 { mask: 1 << 62 });
            let reference = engine
                .run(&mut p, &[s], &mut SmallRng::seed_from_u64(seed), None, None)
                .unwrap();
            let fork = engine
                .run(
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
        let victim = engine.fork_tile(&p, &s, &mut SmallRng::seed_from_u64(seed));
        assert!(victim > s.at_tile, "seed {seed} draws a later victim");
        let mut rng = SmallRng::seed_from_u64(seed);
        let reference = engine.run(&mut p, &[s], &mut rng, None, None).unwrap();
        assert_eq!(reference.resolutions[0].victim_tile, Some(victim));

        let mut scratch = RunScratch::new();
        let mut warm = engine
            .warm_restore(&mut p, &set, victim, &mut scratch, None)
            .unwrap()
            .unwrap();
        engine.warm_advance(&mut p, &mut warm, victim).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let fork = engine
            .run(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None)
            .unwrap();
        assert_eq!(bits(&fork.output), bits(&reference.output));
        assert_eq!(fork.resolutions, reference.resolutions);
        assert_eq!(fork.profile, reference.profile);
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
            engine.run(&mut p, &[s], &mut rng, Some((&warm, &mut scratch)), None),
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
}
