//! The campaign runner: golden run, cross sections, parallel injection —
//! hardened with a hang watchdog, panic capture, streaming checkpoints
//! and run telemetry.
//!
//! ## Execution model
//!
//! Worker threads claim injection indices from a shared cursor and send
//! finished [`InjectionRecord`]s over a bounded channel to the collector
//! (the calling thread), which appends them to the optional JSONL
//! checkpoint, feeds the [`Telemetry`] accumulator, and prints the
//! periodic progress line. Injection `i` always uses its own seeded RNG
//! stream, so records are identical for any worker count — which is what
//! lets [`Campaign::resume`] replay a killed campaign's checkpoint and
//! finish with a bit-identical summary.
//!
//! ## Failure containment
//!
//! * A panic inside an injection is caught ([`std::panic::catch_unwind`])
//!   and surfaces as [`AccelError::WorkerPanic`] instead of aborting.
//! * The first worker error wins and stops further dispatch; later
//!   errors are dropped rather than overwriting it.
//! * With [`Campaign::with_deadline`] armed, an injection still running
//!   past the deadline is recorded as [`InjectionOutcome::Hang`]
//!   (site `"watchdog"`), its worker is abandoned, and a replacement
//!   worker keeps the campaign going. An abandoned worker that
//!   eventually wakes up discards its stale result via a generation
//!   check, so the synthesized record is never duplicated.
//!
//! ## Observability
//!
//! With [`RunOptions::events_out`] set, every injection contributes a
//! block of structured events — lifecycle spans, the sampled strike, its
//! resolution against live machine state, the output diff, and a closing
//! `provenance` record joining all three. Events carry only *logical*
//! data (indices, sites, bits, classes — never wall-clock), and the
//! [`radcrit_obs::EventWriter`] reorders worker-completion-order blocks
//! back into injection-index order, so a fixed-seed campaign writes a
//! byte-identical stream regardless of worker count. On resume, indices
//! already present in the stream are skipped and checkpoint-replayed
//! indices missing from it get a synthetic `replay` marker — the stream
//! never duplicates and never loses an index across kill/resume cycles.
//! Wall-clock quantities (injection latency, outcome counters) go to the
//! [`radcrit_obs::MetricsRegistry`] instead and are written to
//! [`RunOptions::metrics_out`] as JSON plus a Prometheus text rendering.
//!
//! Phase timing has one clock, the [`radcrit_obs::profile`] scopes: with
//! any sink (a profile, a trace or metrics) every run thread profiles,
//! and the profile tree, the Chrome timeline and the `radcrit_phase_*`
//! counters are views of the same scopes.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::engine::{Engine, RunScratch, StrikeResolution, WarmState};
use radcrit_accel::error::AccelError;
use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::snapshot::{SnapshotPolicy, SnapshotSet};
use radcrit_accel::trace::ExecutionTrace;
use radcrit_core::compare::compare_mapped;
use radcrit_core::locality::SpatialClass;
use radcrit_core::report::ErrorReport;
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_kernels::Workload;
use radcrit_obs::profile::{self as phase_profile, Lane, PhaseId, ProfileCollector};
use radcrit_obs::{
    CriticalityAggregator, Event as ObsEvent, EventBuffer, EventWriter, FieldValue,
    MetricsRegistry, Notifier, ProvenanceRecord, Span, TraceRecorder,
};

use crate::checkpoint;
use crate::config::Campaign;
use crate::golden::{GoldenCache, GoldenEntry, GoldenKey};
use crate::outcome::{InjectionOutcome, InjectionRecord, SdcDetail};
use crate::summary::CampaignSummary;
use crate::telemetry::{Telemetry, TelemetrySnapshot};

/// The site name of hang records synthesized by the watchdog.
pub const WATCHDOG_SITE: &str = "watchdog";

/// Per-invocation knobs of [`Campaign::run_with`] — how a run executes,
/// as opposed to the scientific configuration living on [`Campaign`].
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Stream finished records to this JSONL checkpoint file.
    pub checkpoint: Option<PathBuf>,
    /// Replay completed indices from an existing checkpoint before
    /// running (no-op when the file does not exist yet).
    pub resume: bool,
    /// Print a progress line to stderr at this interval.
    pub progress: Option<Duration>,
    /// Stop after producing this many new records, leaving the campaign
    /// resumable — primarily a deterministic stand-in for "killed
    /// mid-run" in tests and a way to slice very long campaigns.
    pub budget: Option<usize>,
    /// Write a one-line JSON metrics snapshot here at end of run, plus a
    /// Prometheus text rendering at the same path with its extension
    /// replaced by `.prom`.
    pub metrics_out: Option<PathBuf>,
    /// Stream structured JSONL events here, in injection-index order.
    pub events_out: Option<PathBuf>,
    /// Detail-event sampling stride: lifecycle detail events (spans,
    /// strike, resolution, diff) are collected for injections whose
    /// index is a multiple of this stride; `0` and `1` both mean every
    /// injection. The `provenance` event is emitted for every injection
    /// regardless, so the stream always covers all indices.
    pub events_sample: u64,
    /// Share golden executions across runs through this cache: a hit
    /// skips the golden phase entirely (the most expensive part of a
    /// short campaign), a miss computes and publishes it. Hit/miss
    /// counts surface as `radcrit_golden_cache_{hits,misses}_total`
    /// when metrics are enabled. See [`crate::golden`].
    pub golden_cache: Option<Arc<GoldenCache>>,
    /// Cooperative cancellation: once this flag turns `true` the run
    /// stops dispatching new injections and returns a resumable partial
    /// [`CampaignResult`], exactly like budget exhaustion.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Record run metrics into this shared external registry (e.g. a
    /// daemon-wide one) instead of a fresh private registry. Implies
    /// metrics collection even without [`RunOptions::metrics_out`].
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Write a Chrome trace-event JSON timeline of the run's coarse
    /// phases (golden execution, per-injection umbrella, engine
    /// execution, bucket restore, fork, output comparison, …) here at
    /// end of run — loadable in `chrome://tracing` / Perfetto.
    /// Wall-clock data: lives beside the metrics, never in the
    /// deterministic event stream.
    pub trace_out: Option<PathBuf>,
    /// Record the phase timeline into this external recorder — e.g. a
    /// daemon's per-job one, built on the process-wide epoch and
    /// carrying a federated shard's trace context. Implies tracing even
    /// without [`RunOptions::trace_out`].
    pub trace: Option<Arc<TraceRecorder>>,
    /// Write the merged phase-profile tree here as one-line JSON at end
    /// of run (see [`radcrit_obs::profile`]). The hierarchical profiler
    /// runs on every run thread whenever the run has any sink (this,
    /// [`RunOptions::profile`], a trace or metrics); with none it stays
    /// zero-cost. Wall-clock data: lives beside the metrics and trace,
    /// never in the deterministic event stream.
    pub profile_out: Option<PathBuf>,
    /// Merge phase profiles into this shared external collector (e.g. a
    /// daemon-wide one). Implies profiling even without
    /// [`RunOptions::profile_out`].
    pub profile: Option<Arc<ProfileCollector>>,
    /// Run only injection indices in `start..end` of the campaign's
    /// `0..injections` range — one shard of a federated campaign. The
    /// golden execution, sampler table and per-index RNG streams are
    /// those of the *whole* campaign (a shard's records are bit-identical
    /// to the same indices of a one-shot run), and the `run_begin`
    /// header still declares the full campaign size so shard event
    /// streams fold into one aggregate with the campaign's context.
    /// `None` runs the whole range.
    pub shard: Option<(usize, usize)>,
    /// Observer hook for a live reader of [`RunOptions::events_out`]
    /// (the daemon's SSE tail): the event writer writes each contiguous
    /// block through to the file and bumps this notifier, instead of
    /// buffering until the end of the run. The bytes written are the
    /// same; only when they reach the file changes.
    pub notify: Option<Arc<Notifier>>,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignResult {
    /// The campaign that was run.
    pub campaign: Campaign,
    /// Golden execution profile.
    pub profile: ExecutionProfile,
    /// Total cross-section in byte-equivalents (drives the FIT scale).
    pub sigma_total: f64,
    /// Raw output length in elements.
    pub output_len: usize,
    /// One record per injection, in index order (fewer than
    /// `campaign.injections` when a budget cut the run short).
    pub records: Vec<InjectionRecord>,
    /// How the run went: throughput, latency, watchdog activity.
    pub telemetry: TelemetrySnapshot,
    /// The shard range this run covered ([`RunOptions::shard`]), when it
    /// was a shard of a federated campaign.
    pub shard: Option<(usize, usize)>,
}

impl CampaignResult {
    /// Builds the aggregate summary (FIT break-downs, scatter series,
    /// outcome counts): the records folded through the same
    /// [`CriticalityAggregator`] the live analytics and the event-stream
    /// fold use, so there is one path from outcome to FIT.
    pub fn summary(&self) -> CampaignSummary {
        let mut fold = CriticalityAggregator::with_context(
            self.campaign.kernel.name(),
            &self.campaign.kernel.input_label(),
            &self.campaign.device.kind().to_string(),
            self.campaign.injections as u64,
            self.sigma_total,
        );
        for r in &self.records {
            fold.fold_sample(&r.analytic_sample());
        }
        CampaignSummary::from_analytics(&fold)
    }

    /// Whether every injection the run was asked for has a record — all
    /// of `0..injections`, or the shard range for a shard run.
    pub fn is_complete(&self) -> bool {
        let asked = match self.shard {
            Some((start, end)) => end - start,
            None => self.campaign.injections,
        };
        self.records.len() == asked
    }
}

/// State shared between the collector and the worker threads.
struct Shared {
    campaign: Campaign,
    sampler: FaultSampler,
    golden: Vec<f64>,
    /// Golden-prefix snapshots injections fork from (empty for a
    /// non-resumable kernel).
    snapshots: Arc<SnapshotSet>,
    /// Indices still to run (already filtered against the checkpoint).
    pending: Vec<usize>,
    /// Cursor into `pending`.
    next: AtomicUsize,
    /// Set on the first error; workers stop claiming new indices.
    stop: AtomicBool,
    /// Metrics registry shared with worker engines, when enabled.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Detail-event sampling stride; `None` disables event collection.
    events_sample: Option<u64>,
    /// Bucket accounting of the batch scheduler.
    buckets: BucketCounters,
    /// Phase-profile merge point, when profiling is enabled. Workers
    /// enable their thread-local accumulator on entry and drain into
    /// this collector once, at exit.
    profile: Option<Arc<ProfileCollector>>,
}

/// Live counters of the batch scheduler, shared between workers (who
/// bump them) and the collector (whose progress line reports them).
#[derive(Default)]
struct BucketCounters {
    /// Warm snapshot restores — one per (worker, bucket) pair.
    restores: AtomicU64,
    /// Forked injection executions off a warm bucket.
    forks: AtomicU64,
}

/// Batch-scheduler context threaded through one worker's injections.
struct BatchCtx<'a> {
    counters: &'a BucketCounters,
    metrics: Option<&'a MetricsRegistry>,
    /// This worker's warm bucket: golden machine state restored from the
    /// bucket's snapshot and advanced to the last fork's start
    /// ([`Engine::fork_tile`]).
    warm: Option<WarmState>,
}

/// The per-injection RNG stream seed — a fixed function of `(campaign
/// seed, index)`, so records are reproducible independent of worker
/// scheduling and of the batch scheduler's execution order.
pub fn stream_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
}

/// The progress line's `(restores, forks)` pair, when the kernel has
/// snapshots to fork from.
fn bucket_stats(shared: &Shared) -> Option<(u64, u64)> {
    let b = &shared.buckets;
    (!shared.snapshots.is_empty()).then(|| {
        (
            b.restores.load(Ordering::Relaxed),
            b.forks.load(Ordering::Relaxed),
        )
    })
}

/// One worker's watchdog slot. The generation counter arbitrates between
/// a worker finishing late and the watchdog having already given up on
/// it: whoever still holds the generation owns the injection's record.
struct Slot {
    generation: u64,
    /// The injection being executed and when it started.
    current: Option<(usize, Instant)>,
    retired: bool,
}

enum Event {
    Done {
        record: InjectionRecord,
        latency: Duration,
        /// The injection's structured events (empty when disabled).
        events: Vec<ObsEvent>,
    },
    Failed {
        error: AccelError,
    },
    Exited,
}

/// Per-injection observability context handed down to
/// [`Campaign::run_one`]: the event sink plus whether this injection is
/// on the detail-sampling stride.
struct ObsCtx<'a> {
    buf: &'a mut EventBuffer,
    detail: bool,
}

impl Campaign {
    /// Runs the campaign: one golden execution, then `injections`
    /// fault-injected executions distributed over worker threads.
    ///
    /// Results are deterministic for a given `(campaign, seed)` pair
    /// regardless of the worker count: injection `i` always uses its own
    /// seeded RNG stream.
    ///
    /// # Errors
    ///
    /// Propagates kernel construction and execution errors; a panicking
    /// injection returns [`AccelError::WorkerPanic`].
    pub fn run(&self) -> Result<CampaignResult, AccelError> {
        self.run_with(&RunOptions::default())
    }

    /// Resumes a campaign from the JSONL checkpoint at `path`: completed
    /// indices are replayed from the file, the rest are run, and new
    /// records are appended to the same file. A missing file starts a
    /// fresh checkpointed run, so calling this in a retry loop is safe.
    ///
    /// # Errors
    ///
    /// [`AccelError::Corrupt`] when the checkpoint belongs to a
    /// different campaign or is damaged beyond its final line; plus
    /// everything [`Campaign::run`] can return.
    pub fn resume<P: AsRef<Path>>(&self, path: P) -> Result<CampaignResult, AccelError> {
        self.run_with(&RunOptions {
            checkpoint: Some(path.as_ref().to_owned()),
            resume: true,
            ..RunOptions::default()
        })
    }

    /// [`Campaign::run`] with explicit [`RunOptions`].
    ///
    /// # Errors
    ///
    /// As [`Campaign::run`], plus [`AccelError::Corrupt`] for checkpoint
    /// I/O and validation failures.
    pub fn run_with(&self, options: &RunOptions) -> Result<CampaignResult, AccelError> {
        // Shard bounds are validated before any expensive work: an
        // empty or out-of-range shard is a caller bug, not a campaign.
        let (shard_start, shard_end) = match options.shard {
            Some((start, end)) => {
                if start >= end || end > self.injections {
                    return Err(AccelError::Corrupt(format!(
                        "shard {start}..{end} out of range for {} injections",
                        self.injections
                    )));
                }
                (start, end)
            }
            None => (0, self.injections),
        };
        let metrics = options.metrics.clone().or_else(|| {
            options
                .metrics_out
                .as_ref()
                .map(|_| Arc::new(MetricsRegistry::new()))
        });
        if let Some(m) = &metrics {
            m.gauge_set(
                "radcrit_simd_isa",
                &[("isa", radcrit_core::exec::active().name())],
                1.0,
            );
        }
        let mut engine = Engine::new(self.device.clone());
        if let Some(m) = &metrics {
            engine = engine.with_metrics(Arc::clone(m));
        }
        let trace = options.trace.clone().or_else(|| {
            options
                .trace_out
                .as_ref()
                .map(|_| Arc::new(TraceRecorder::new()))
        });
        // Phase profiling feeds every sink: per-thread accumulators
        // merged into one collector, timeline lanes, phase counters. The
        // collector thread (this one, lane 0) profiles the golden phase
        // and checkpoint appends; workers profile injections. Disabled,
        // every scope is a flag check.
        let profiler = options.profile.clone().or_else(|| {
            (options.profile_out.is_some() || trace.is_some() || metrics.is_some())
                .then(|| Arc::new(ProfileCollector::new()))
        });
        let thread_profile = ThreadProfile::enable(
            profiler.as_deref(),
            metrics.as_deref(),
            trace.clone().map(|t| (t, 0)),
        );

        // Golden execution: output, profile, cross sections and the
        // golden-prefix snapshot set injections fork from. With a shared
        // cache attached, runs agreeing on (kernel, device, seed) reuse
        // one golden execution instead of recomputing it; cached entries
        // carry their snapshot set, so later jobs fork from snapshots
        // they never captured.
        let compute_golden = |engine: &Engine,
                              kernel: &mut (dyn Workload + Send)|
         -> Result<GoldenEntry, AccelError> {
            let (golden, set) = engine.golden_snapshotted(kernel, &SnapshotPolicy::default())?;
            Ok(GoldenEntry {
                output: golden.output,
                profile: golden.profile,
                snapshots: Arc::new(set),
            })
        };
        let golden_scope = phase_profile::phase(PhaseId::Golden);
        let mut golden_kernel = self.kernel.build(self.seed)?;
        let golden = match &options.golden_cache {
            Some(cache) => {
                let key = GoldenKey::for_campaign(self);
                match cache.get(&key) {
                    Some(hit) => {
                        if let Some(m) = &metrics {
                            m.counter_add("radcrit_golden_cache_hits_total", &[], 1);
                        }
                        hit
                    }
                    None => {
                        if let Some(m) = &metrics {
                            m.counter_add("radcrit_golden_cache_misses_total", &[], 1);
                        }
                        cache.insert(key, compute_golden(&engine, golden_kernel.as_mut())?)
                    }
                }
            }
            None => Arc::new(compute_golden(&engine, golden_kernel.as_mut())?),
        };
        let golden_profile = golden.profile.clone();
        let snapshots = Arc::clone(&golden.snapshots);
        drop(golden_scope);
        let sampler = FaultSampler::new(&self.device, &golden_profile);
        let sigma_total = sampler.table().total();
        // The live analytics fold: the same aggregator that powers the
        // daemon's analytics endpoints also feeds the progress line, so
        // there is exactly one accumulation path from outcome to FIT.
        let mut analytics = CriticalityAggregator::with_context(
            self.kernel.name(),
            &self.kernel.input_label(),
            &self.device.kind().to_string(),
            self.injections as u64,
            sigma_total,
        );

        // Checkpoint: replay what a previous run already finished.
        let mut writer = None;
        let mut records: Vec<InjectionRecord> = Vec::new();
        if let Some(path) = &options.checkpoint {
            let (log, replayed) = checkpoint::open(path, self, options.resume)?;
            writer = Some(log);
            records = replayed;
        }
        let done: HashSet<usize> = records.iter().map(|r| r.index).collect();
        let mut pending: Vec<usize> = (shard_start..shard_end)
            .filter(|i| !done.contains(i))
            .collect();
        let target = options
            .budget
            .map_or(pending.len(), |b| b.min(pending.len()));
        pending.truncate(target);

        // Prefix-sharing batch scheduler: sort the remaining plan into
        // buckets keyed by resume snapshot, then fork tile (the strike
        // tile, or a register strike's victim), so one warm restore
        // serves a whole bucket of forks. Each index's plan and fork tile
        // are pre-sampled here with its own RNG stream — exactly the
        // draws the executing worker repeats — so sorting changes
        // *execution order only*: record content, the event stream and
        // the summary equal an index-order run (the event writer
        // reorders by index, the checkpoint replay tolerates any
        // completion order). Fatal plans and strikes before the first
        // snapshot have no bucket and keep index order at the end of the
        // plan. Budget truncation happens first, so a budgeted run
        // completes the index prefix.
        if !snapshots.is_empty() {
            pending.sort_by_cached_key(|&index| {
                let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, index));
                match sampler.sample(&mut rng) {
                    InjectionPlan::Strike(spec) => {
                        let start = engine.fork_tile(golden_kernel.as_ref(), &spec, &mut rng);
                        match snapshots.resume_tile(start) {
                            Some(resume) => (0u8, resume, start, index),
                            None => (1, 0, 0, index),
                        }
                    }
                    _ => (1, 0, 0, index),
                }
            });
        }

        // Event stream: resumed runs reopen the file, cut its torn tail,
        // and learn which injection indices the stream already covers.
        // A stream without its `run_begin` header (fresh, or cut inside
        // it) starts with one.
        let mut events: Option<(EventWriter, PathBuf)> = None;
        let mut events_have: HashSet<u64> = HashSet::new();
        if let Some(path) = &options.events_out {
            let (start, end) = (shard_start as u64, shard_end as u64);
            let sample = options.events_sample.max(1);
            let w = if options.resume {
                let (w, have) = EventWriter::resume_range(path, start, end, sample)
                    .map_err(|e| events_corrupt(path, e))?;
                events_have = have;
                w
            } else {
                EventWriter::create_range(path, start, end, sample)
                    .map_err(|e| events_corrupt(path, e))?
            };
            let mut w = w.with_notifier(options.notify.clone());
            if w.is_empty() {
                w.emit_top(&run_begin_event(self, golden_kernel.as_ref(), sigma_total))
                    .map_err(|e| events_corrupt(path, e))?;
            }
            events = Some((w, path.clone()));
        }
        // Checkpoint-replayed indices whose events never reached the
        // stream (the checkpoint flushes per record, the event writer
        // buffers — a kill can separate them) get a synthetic `replay`
        // marker so the stream still covers every finished index.
        if let Some((w, path)) = events.as_mut() {
            for r in &records {
                if !events_have.contains(&(r.index as u64)) {
                    w.submit(r.index as u64, &[replay_event(r)])
                        .map_err(|e| events_corrupt(path, e))?;
                }
            }
        }

        for r in &records {
            analytics.fold_sample(&r.analytic_sample());
        }
        let mut telemetry = Telemetry::new();
        telemetry.note_replayed(records.len(), &analytics);
        if let Some(m) = &metrics {
            m.counter_add("radcrit_campaign_replayed_total", &[], records.len() as u64);
        }

        let workers = self.effective_workers().min(target.max(1));
        let shared = Arc::new(Shared {
            campaign: self.clone(),
            sampler,
            golden: golden.output.clone(),
            snapshots,
            pending,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            metrics: metrics.clone(),
            events_sample: options
                .events_out
                .as_ref()
                .map(|_| options.events_sample.max(1)),
            buckets: BucketCounters::default(),
            profile: profiler.clone(),
        });

        // The collector keeps its own sender alive so the watchdog can
        // hand it to replacement workers; termination is tracked via the
        // `active` count rather than channel disconnection.
        let (tx, rx) = mpsc::sync_channel::<Event>(workers * 2 + 4);
        let mut slots: Vec<Arc<Mutex<Slot>>> = Vec::new();
        let mut active = 0usize;
        // Worker timeline ids: 0 is the collector's lane, workers (and
        // watchdog replacements) get 1, 2, … in spawn order.
        let mut next_tid = 1u64;
        let lane = |tid| trace.clone().map(|t| (t, tid));
        if target > 0 {
            for _ in 0..workers {
                slots.push(spawn_worker(&shared, &tx, lane(next_tid)));
                next_tid += 1;
                active += 1;
            }
        }

        // The collector tick bounds both watchdog reaction time and
        // progress-line cadence.
        let mut tick = Duration::from_millis(200);
        if let Some(deadline) = self.deadline {
            tick = tick.min(deadline / 4);
        }
        if let Some(progress) = options.progress {
            tick = tick.min(progress);
        }
        let tick = tick.max(Duration::from_millis(5));

        let mut produced = 0usize;
        let mut first_error: Option<AccelError> = None;
        let mut last_progress = Instant::now();

        while active > 0 && produced < target {
            if let Some(cancel) = &options.cancel {
                if cancel.load(Ordering::SeqCst) {
                    // Stop dispatching; what was not collected is not
                    // checkpointed either, so a later resume replays it.
                    shared.stop.store(true, Ordering::SeqCst);
                    break;
                }
            }
            // Records finished this tick: `(record, latency, event block,
            // synthesized by the watchdog)`.
            let mut finished = Vec::new();
            match rx.recv_timeout(tick) {
                Ok(Event::Done {
                    record,
                    latency,
                    events: block,
                }) => finished.push((record, latency, block, false)),
                Ok(Event::Failed { error }) => {
                    // First error wins; later ones are victims of the
                    // same shutdown, not the cause.
                    if first_error.is_none() {
                        first_error = Some(error);
                    }
                    shared.stop.store(true, Ordering::SeqCst);
                }
                Ok(Event::Exited) => active -= 1,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            if let Some(deadline) = self.deadline {
                let mut hung_indices = Vec::new();
                for slot in &slots {
                    let mut s = slot.lock().expect("slot lock");
                    if let Some((index, started)) = s.current {
                        if started.elapsed() >= deadline {
                            s.generation += 1;
                            s.current = None;
                            s.retired = true;
                            hung_indices.push(index);
                        }
                    }
                }
                for index in hung_indices {
                    active -= 1;
                    let record = InjectionRecord {
                        index,
                        site: WATCHDOG_SITE.into(),
                        at_tile: None,
                        delivered: true,
                        outcome: InjectionOutcome::Hang,
                    };
                    // The hung worker never submitted a block (its
                    // generation was retired), so the watchdog owns this
                    // index's provenance.
                    let block = vec![watchdog_provenance(index).to_event()];
                    finished.push((record, deadline, block, true));
                    if produced + finished.len() < target && !shared.stop.load(Ordering::SeqCst) {
                        // Keep the pool at strength: the hung worker is
                        // abandoned, not joined.
                        slots.push(spawn_worker(&shared, &tx, lane(next_tid)));
                        next_tid += 1;
                        active += 1;
                    }
                }
                slots.retain(|s| !s.lock().expect("slot lock").retired);
            }

            for (record, latency, block, watchdog) in finished {
                telemetry.record(latency, watchdog);
                analytics.fold_sample(&record.analytic_sample());
                if let Some(m) = &metrics {
                    m.counter_add(
                        "radcrit_campaign_outcomes_total",
                        &[("outcome", record.outcome.tag())],
                        1,
                    );
                    if watchdog {
                        m.counter_add("radcrit_campaign_watchdog_hangs_total", &[], 1);
                    }
                }
                if let Some(w) = writer.as_mut() {
                    let _scope = phase_profile::phase(PhaseId::Checkpoint);
                    if let Err(e) = checkpoint::append(w, &record) {
                        shared.stop.store(true, Ordering::SeqCst);
                        telemetry.export_latency(metrics.as_deref());
                        return Err(e);
                    }
                }
                if let Some((w, path)) = events.as_mut() {
                    // Indices the stream already covers (events ahead of
                    // the checkpoint after a kill) are skipped — never
                    // duplicated.
                    if !events_have.contains(&(record.index as u64)) {
                        if let Err(e) = w.submit(record.index as u64, &block) {
                            shared.stop.store(true, Ordering::SeqCst);
                            telemetry.export_latency(metrics.as_deref());
                            return Err(events_corrupt(path, e));
                        }
                    }
                }
                records.push(record);
                produced += 1;
            }

            if let Some(interval) = options.progress {
                if last_progress.elapsed() >= interval {
                    eprintln!(
                        "{}",
                        telemetry.progress_line(target, &analytics, bucket_stats(&shared))
                    );
                    last_progress = Instant::now();
                }
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        telemetry.export_latency(metrics.as_deref());

        // Profiling: workers drain their accumulators into the collector
        // right before their `Exited` event, so wait for the stragglers
        // (bounded — a worker stuck in a hung kernel is abandoned, its
        // thread-local profile with it).
        if profiler.is_some() {
            while active > 0 {
                match rx.recv_timeout(Duration::from_secs(5)) {
                    Ok(Event::Exited) => active -= 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }

        if let Some(e) = first_error {
            return Err(e);
        }
        if options.progress.is_some() {
            eprintln!(
                "{}",
                telemetry.progress_line(target, &analytics, bucket_stats(&shared))
            );
        }
        records.sort_by_key(|r| r.index);

        if let Some((w, path)) = events.as_mut() {
            // Flush gapped blocks first (a budget stop leaves holes), so
            // run_end is the stream's final line.
            w.finish().map_err(|e| events_corrupt(path, e))?;
            w.emit_top(&run_end_event(&telemetry, &analytics))
                .map_err(|e| events_corrupt(path, e))?;
            w.finish().map_err(|e| events_corrupt(path, e))?;
        }
        if let (Some(tr), Some(path)) = (&trace, &options.trace_out) {
            let json = tr.to_chrome_json(&trace_metadata(
                self,
                &golden_profile,
                sigma_total,
                records.len(),
            ));
            std::fs::write(path, json)
                .map_err(|e| AccelError::Corrupt(format!("trace {}: {e}", path.display())))?;
            // Capped drops are operational signal, not just trace
            // metadata: surface them on /metrics too.
            if let Some(m) = &metrics {
                tr.export_dropped(m);
            }
        }
        drop(thread_profile);
        if let (Some(pc), Some(path)) = (&profiler, &options.profile_out) {
            std::fs::write(path, pc.snapshot().to_json())
                .map_err(|e| AccelError::Corrupt(format!("profile {}: {e}", path.display())))?;
        }
        if let (Some(m), Some(path)) = (&metrics, &options.metrics_out) {
            let snap = m.snapshot();
            std::fs::write(path, format!("{}\n", snap.to_json()))
                .map_err(|e| AccelError::Corrupt(format!("metrics {}: {e}", path.display())))?;
            let prom = path.with_extension("prom");
            std::fs::write(&prom, snap.to_prometheus())
                .map_err(|e| AccelError::Corrupt(format!("metrics {}: {e}", prom.display())))?;
        }

        Ok(CampaignResult {
            campaign: self.clone(),
            profile: golden_profile,
            sigma_total,
            output_len: golden.output.len(),
            records,
            telemetry: telemetry.snapshot(),
            shard: options.shard,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &self,
        index: usize,
        engine: &Engine,
        kernel: &mut (dyn Workload + Send),
        sampler: &FaultSampler,
        golden: &[f64],
        snapshots: &SnapshotSet,
        scratch: &mut RunScratch,
        obs: &mut ObsCtx<'_>,
        batch: &mut BatchCtx<'_>,
    ) -> Result<InjectionRecord, AccelError> {
        // A per-injection RNG stream: reproducible independent of worker
        // scheduling.
        let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, index));

        let span = obs.detail.then(|| Span::enter(obs.buf, "injection"));
        let scope = phase_profile::phase_with(PhaseId::Injection, &[("index", index as u64)]);
        let result = self.run_one_inner(
            index, engine, kernel, sampler, golden, snapshots, scratch, obs, batch, &mut rng,
        );
        drop(scope);
        if let Some(span) = span {
            span.exit(obs.buf);
        }
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one_inner(
        &self,
        index: usize,
        engine: &Engine,
        kernel: &mut (dyn Workload + Send),
        sampler: &FaultSampler,
        golden: &[f64],
        snapshots: &SnapshotSet,
        scratch: &mut RunScratch,
        obs: &mut ObsCtx<'_>,
        batch: &mut BatchCtx<'_>,
        rng: &mut StdRng,
    ) -> Result<InjectionRecord, AccelError> {
        let plan = sampler.sample(rng);
        let (record, prov) = match plan {
            InjectionPlan::Crash | InjectionPlan::Hang => {
                let outcome = if matches!(plan, InjectionPlan::Crash) {
                    InjectionOutcome::Crash
                } else {
                    InjectionOutcome::Hang
                };
                if obs.detail {
                    obs.buf.emit("fatal").str("mode", outcome.tag());
                }
                let prov = ProvenanceRecord {
                    index: index as u64,
                    site: "fatal".to_owned(),
                    at_tile: None,
                    victim_tile: None,
                    unit: None,
                    bit: None,
                    delivered: true,
                    touched_tiles: Vec::new(),
                    outcome: outcome.tag().to_owned(),
                    mismatches: 0,
                    class: SpatialClass::None,
                    mre: None,
                    critical: false,
                    fclass: None,
                };
                let record = InjectionRecord {
                    index,
                    site: "fatal".into(),
                    at_tile: None,
                    delivered: true,
                    outcome,
                };
                (record, prov)
            }
            InjectionPlan::Strike(spec) => {
                if obs.detail {
                    obs.buf
                        .emit("strike")
                        .str("site", spec.target.site_name())
                        .u64("at", spec.at_tile as u64)
                        .opt_u64("bit", spec.target.bit_index().map(u64::from))
                        .opt_u64("op", spec.target.op_index());
                }
                // The traced run consumes the RNG stream identically to
                // the untraced one, so records match either way; the
                // trace is only pulled when provenance needs it. The plan
                // is in bucket order, so a strike a snapshot covers forks
                // off this worker's warm bucket state at its fork tile —
                // bit-identical to a run from tile 0 by construction. A
                // strike no snapshot covers (non-resumable kernel) runs
                // from tile 0.
                let execute_scope = phase_profile::phase_with(
                    PhaseId::Execute,
                    &[("index", index as u64), ("at", spec.at_tile as u64)],
                );
                let mut trace = obs.buf.is_enabled().then(ExecutionTrace::new);
                let strikes = std::slice::from_ref(&spec);
                let start = engine.fork_tile(&*kernel, &spec, &mut rng.clone());
                let run = match snapshots.resume_tile(start) {
                    Some(resume) => {
                        // A bucket is stale when it resumes from a
                        // different snapshot or its golden front has
                        // already advanced past this fork (possible when
                        // workers interleave buckets off the shared
                        // cursor).
                        let stale = batch
                            .warm
                            .as_ref()
                            .is_none_or(|w| w.resume_tile() != resume || w.next_tile() > start);
                        if stale {
                            let _scope = phase_profile::phase_with(
                                PhaseId::BucketRestore,
                                &[("resume", resume as u64)],
                            );
                            let reuse = batch.warm.take();
                            batch.warm =
                                engine.warm_restore(kernel, snapshots, start, scratch, reuse)?;
                            batch.counters.restores.fetch_add(1, Ordering::Relaxed);
                            if let Some(m) = batch.metrics {
                                m.counter_add("radcrit_bucket_restores_total", &[], 1);
                            }
                        }
                        let warm = batch
                            .warm
                            .as_mut()
                            .expect("resume_tile implies a usable snapshot");
                        let advanced = {
                            let _scope = phase_profile::phase(PhaseId::WarmAdvance);
                            engine.warm_advance(kernel, warm, start)?
                        };
                        batch.counters.forks.fetch_add(1, Ordering::Relaxed);
                        if let Some(m) = batch.metrics {
                            m.counter_add("radcrit_bucket_forks_total", &[], 1);
                            m.counter_add(
                                "radcrit_bucket_advance_tiles_total",
                                &[],
                                advanced as u64,
                            );
                        }
                        let _scope = phase_profile::phase(PhaseId::Fork);
                        engine.run(kernel, strikes, rng, Some((warm, scratch)), trace.as_mut())?
                    }
                    None => engine.run(kernel, strikes, rng, None, trace.as_mut())?,
                };
                drop(execute_scope);
                let resolution = run.resolutions.first().copied();
                if obs.detail {
                    if let Some(r) = resolution {
                        obs.buf
                            .emit("resolution")
                            .bool("delivered", r.delivered)
                            .opt_u64("victim", r.victim_tile.map(|v| v as u64))
                            .opt_u64("unit", r.unit.map(|u| u as u64))
                            .opt_u64("redirect", r.redirect_dest.map(|d| d as u64));
                    }
                }

                // A forked run knows which output elements *can*
                // differ from golden (its dirty region); everything
                // else is untouched golden-suffix state, so the diff
                // only scans the dirty ranges.
                let mut compare_scope =
                    phase_profile::phase_with(PhaseId::Compare, &[("index", index as u64)]);
                let report = if run.golden_equivalent {
                    // The engine proved the strike died unobserved and
                    // exited early: the completed run's output would be
                    // bit-equal to golden, and the returned buffer may
                    // hold stale bytes past the exit tile, so the diff
                    // is both unnecessary and wrong to perform.
                    ErrorReport::new(kernel.logical_shape(), Vec::new())
                } else {
                    // Mismatches land in the kernel's *logical*
                    // coordinate space (e.g. LavaMD's box grid), which
                    // is what the spatial-locality metric operates on.
                    compare_mapped(
                        golden,
                        &run.output,
                        kernel.logical_shape(),
                        run.dirty.as_ref(),
                        |i| kernel.error_coord(i),
                    )
                };
                let mismatches = report.incorrect_elements() as u64;
                if let Some(scope) = compare_scope.as_mut() {
                    scope.arg("mismatches", mismatches);
                }
                drop(compare_scope);
                let (outcome, class, mre, critical, fclass) = if report.is_sdc() {
                    let criticality = report.criticality(&self.tolerance, &self.classifier);
                    let class = criticality.locality;
                    let mre = criticality.mean_relative_error;
                    let critical = criticality.is_critical();
                    let fclass = critical.then_some(criticality.filtered_locality);
                    (
                        InjectionOutcome::Sdc(SdcDetail {
                            criticality,
                            output_len: golden.len(),
                        }),
                        class,
                        mre,
                        critical,
                        fclass,
                    )
                } else {
                    (
                        InjectionOutcome::Masked,
                        SpatialClass::None,
                        None,
                        false,
                        None,
                    )
                };
                if obs.detail {
                    let b = obs
                        .buf
                        .emit("diff")
                        .u64("mismatches", mismatches)
                        .str("class", &class.to_string());
                    match mre {
                        Some(v) => b.f64("mre", v),
                        None => b,
                    };
                }

                let touched_tiles = match (&resolution, &trace) {
                    (Some(r), Some(t)) => touched_tiles(r, t),
                    _ => Vec::new(),
                };
                let prov = ProvenanceRecord {
                    index: index as u64,
                    site: spec.target.site_name().to_owned(),
                    at_tile: Some(spec.at_tile as u64),
                    victim_tile: resolution.and_then(|r| r.victim_tile).map(|v| v as u64),
                    unit: resolution.and_then(|r| r.unit).map(|u| u as u64),
                    bit: spec.target.bit_index().map(u64::from),
                    delivered: run.strike_delivered,
                    touched_tiles,
                    outcome: outcome.tag().to_owned(),
                    mismatches,
                    class,
                    mre,
                    critical,
                    fclass,
                };
                let record = InjectionRecord {
                    index,
                    site: spec.target.site_name().to_owned(),
                    at_tile: Some(spec.at_tile),
                    delivered: run.strike_delivered,
                    outcome,
                };
                (record, prov)
            }
        };
        obs.buf.push(prov.to_event());
        Ok(record)
    }
}

fn spawn_worker(
    shared: &Arc<Shared>,
    tx: &SyncSender<Event>,
    lane: Option<Lane>,
) -> Arc<Mutex<Slot>> {
    let slot = Arc::new(Mutex::new(Slot {
        generation: 0,
        current: None,
        retired: false,
    }));
    let shared = Arc::clone(shared);
    let slot_for_worker = Arc::clone(&slot);
    let tx = tx.clone();
    thread::spawn(move || worker_loop(shared, slot_for_worker, tx, lane));
    slot
}

/// A run thread's profiling: enabled, on the thread's timeline lane,
/// while the guard lives, and drained into the collector and the phase
/// counters when it drops — by any path, including error returns and
/// the early returns a retired slot takes (the watchdog abandoned us;
/// our timings are still real work worth counting).
struct ThreadProfile<'a> {
    collector: Option<&'a ProfileCollector>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a> ThreadProfile<'a> {
    fn enable(
        collector: Option<&'a ProfileCollector>,
        metrics: Option<&'a MetricsRegistry>,
        lane: Option<Lane>,
    ) -> Self {
        if collector.is_some() {
            phase_profile::enable_thread(lane);
        }
        ThreadProfile { collector, metrics }
    }
}

impl Drop for ThreadProfile<'_> {
    fn drop(&mut self) {
        if let Some(pc) = self.collector {
            let tree = phase_profile::drain_thread();
            if let Some(m) = self.metrics {
                tree.export_metrics(m);
            }
            pc.merge(&tree);
        }
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    slot: Arc<Mutex<Slot>>,
    tx: SyncSender<Event>,
    lane: Option<Lane>,
) {
    let thread_profile =
        ThreadProfile::enable(shared.profile.as_deref(), shared.metrics.as_deref(), lane);
    let mut kernel = match shared.campaign.kernel.build(shared.campaign.seed) {
        Ok(k) => k,
        Err(e) => {
            shared.stop.store(true, Ordering::SeqCst);
            let _ = tx.send(Event::Failed { error: e });
            let _ = tx.send(Event::Exited);
            return;
        }
    };
    let mut engine = Engine::new(shared.campaign.device.clone());
    if let Some(m) = &shared.metrics {
        engine = engine.with_metrics(Arc::clone(m));
    }
    // Per-worker scratch: the kernel's setup runs once and later
    // injections restore device memory in place instead of re-running
    // it and reallocating every buffer.
    let mut scratch = RunScratch::new();
    // Batch-scheduler context: this worker's warm bucket (if any) plus
    // the run-wide bucket counters.
    let mut batch = BatchCtx {
        counters: &shared.buckets,
        metrics: shared.metrics.as_deref(),
        warm: None,
    };

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let cursor = shared.next.fetch_add(1, Ordering::SeqCst);
        let Some(&index) = shared.pending.get(cursor) else {
            break;
        };

        let my_generation = {
            let mut s = slot.lock().expect("slot lock");
            if s.retired {
                return;
            }
            s.current = Some((index, Instant::now()));
            s.generation
        };

        let mut buf = match shared.events_sample {
            Some(_) => EventBuffer::for_injection(index as u64),
            None => EventBuffer::disabled(),
        };
        let detail = shared
            .events_sample
            .is_some_and(|s| (index as u64).is_multiple_of(s));

        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.campaign.run_one(
                index,
                &engine,
                kernel.as_mut(),
                &shared.sampler,
                &shared.golden,
                &shared.snapshots,
                &mut scratch,
                &mut ObsCtx {
                    buf: &mut buf,
                    detail,
                },
                &mut batch,
            )
        }));
        let latency = started.elapsed();
        let events = buf.take();

        // Never send while holding the slot lock: the collector both
        // drains the channel and takes this lock in its watchdog scan.
        let still_owner = {
            let mut s = slot.lock().expect("slot lock");
            if s.generation == my_generation {
                s.current = None;
                true
            } else {
                false
            }
        };
        if !still_owner {
            // The watchdog recorded this injection as a hang and moved
            // on; our late result would be a duplicate.
            return;
        }

        match outcome {
            Ok(Ok(record)) => {
                if tx
                    .send(Event::Done {
                        record,
                        latency,
                        events,
                    })
                    .is_err()
                {
                    return;
                }
            }
            Ok(Err(error)) => {
                shared.stop.store(true, Ordering::SeqCst);
                let _ = tx.send(Event::Failed { error });
                break;
            }
            Err(payload) => {
                shared.stop.store(true, Ordering::SeqCst);
                let _ = tx.send(Event::Failed {
                    error: AccelError::WorkerPanic(panic_message(payload)),
                });
                break;
            }
        }
    }
    // Merge before `Exited`: the collector snapshots the profile as soon
    // as the last worker is accounted for.
    drop(thread_profile);
    let _ = tx.send(Event::Exited);
}

fn events_corrupt(path: &Path, e: impl std::fmt::Display) -> AccelError {
    AccelError::Corrupt(format!("event stream {}: {e}", path.display()))
}

/// The stream's header: campaign identity plus the kernel's geometry
/// (via [`Workload::obs_fields`]) and the total cross-section, so a
/// stream fold can reproduce the summary's FIT scale without access to
/// the fault-site table.
fn run_begin_event(campaign: &Campaign, kernel: &(dyn Workload + Send), sigma: f64) -> ObsEvent {
    let mut fields = vec![
        (
            "device".to_owned(),
            FieldValue::Str(campaign.device.kind().to_string()),
        ),
        (
            "injections".to_owned(),
            FieldValue::U64(campaign.injections as u64),
        ),
        ("seed".to_owned(), FieldValue::U64(campaign.seed)),
        ("sigma".to_owned(), FieldValue::F64(sigma)),
    ];
    fields.extend(kernel.obs_fields());
    ObsEvent {
        kind: "run_begin".to_owned(),
        index: None,
        fields,
    }
}

/// Synthetic marker for an index replayed from the checkpoint whose
/// original events were lost with the killed run's write buffer. The
/// marker carries the record's full analytic fields, so a stream fold
/// across a kill → resume cycle still reproduces the summary exactly.
fn replay_event(r: &InjectionRecord) -> ObsEvent {
    let s = r.analytic_sample();
    let mut fields = vec![
        ("site".to_owned(), FieldValue::Str(s.site)),
        ("outcome".to_owned(), FieldValue::Str(s.outcome)),
        ("delivered".to_owned(), FieldValue::Bool(r.delivered)),
        ("mismatches".to_owned(), FieldValue::U64(s.mismatches)),
        ("class".to_owned(), FieldValue::Str(s.class.to_string())),
    ];
    if let Some(mre) = s.mre {
        fields.push(("mre".to_owned(), FieldValue::F64(mre)));
    }
    if s.critical {
        fields.push(("critical".to_owned(), FieldValue::Bool(true)));
    }
    if let Some(fclass) = s.fclass {
        fields.push(("fclass".to_owned(), FieldValue::Str(fclass.to_string())));
    }
    ObsEvent {
        kind: "replay".to_owned(),
        index: Some(r.index as u64),
        fields,
    }
}

/// Top-level metadata of a Chrome trace: campaign identity plus the
/// golden [`ExecutionProfile`]'s headline figures, pre-rendered as JSON
/// values. The committed-sample trace test asserts these against a
/// fresh deterministic run.
fn trace_metadata(
    campaign: &Campaign,
    profile: &ExecutionProfile,
    sigma_total: f64,
    records: usize,
) -> Vec<(&'static str, String)> {
    let quoted = |s: &str| format!("\"{}\"", radcrit_obs::json::escape(s));
    vec![
        ("kernel", quoted(campaign.kernel.name())),
        ("input", quoted(&campaign.kernel.input_label())),
        ("device", quoted(&campaign.device.kind().to_string())),
        ("injections", records.to_string()),
        ("seed", campaign.seed.to_string()),
        ("sigma_total", radcrit_obs::json::fmt_f64(sigma_total)),
        ("tiles", profile.tiles.to_string()),
        ("threads_per_tile", profile.threads_per_tile.to_string()),
        (
            "instantiated_threads",
            profile.instantiated_threads.to_string(),
        ),
        ("total_ops", profile.total_ops.to_string()),
        ("loads", profile.loads.to_string()),
        ("stores", profile.stores.to_string()),
    ]
}

/// The stream's trailer: this run's outcome counts (logical data only —
/// deterministic for a fixed seed and worker-independent).
fn run_end_event(telemetry: &Telemetry, analytics: &CriticalityAggregator) -> ObsEvent {
    let [masked, sdc, crash, hang] = telemetry.run_outcomes(analytics);
    let produced = telemetry.completed() as u64;
    ObsEvent {
        kind: "run_end".to_owned(),
        index: None,
        fields: [
            ("produced", produced),
            ("masked", masked),
            ("sdc", sdc),
            ("crash", crash),
            ("hang", hang),
        ]
        .map(|(k, v)| (k.to_owned(), FieldValue::U64(v)))
        .to_vec(),
    }
}

/// Provenance of a watchdog-synthesized hang: no strike details exist
/// because the injection never finished.
fn watchdog_provenance(index: usize) -> ProvenanceRecord {
    ProvenanceRecord {
        index: index as u64,
        site: WATCHDOG_SITE.to_owned(),
        at_tile: None,
        victim_tile: None,
        unit: None,
        bit: None,
        delivered: true,
        touched_tiles: Vec::new(),
        outcome: InjectionOutcome::Hang.tag().to_owned(),
        mismatches: 0,
        class: SpatialClass::None,
        mre: None,
        critical: false,
        fclass: None,
    }
}

/// Cap on the `touched` tile list of a provenance event, bounding event
/// line size on large L2-visibility fan-outs.
const TOUCHED_TILES_CAP: usize = 64;

/// Joins a strike resolution to the tiles that touched struck state
/// afterwards, using the execution trace: shared-L2 corruption is
/// visible to every later tile with L2 traffic, L1 lines and unit
/// dispatch state only to later tiles on the struck unit, and register
/// or pipeline strikes only to their victim tile.
fn touched_tiles(res: &StrikeResolution, trace: &ExecutionTrace) -> Vec<u64> {
    if !res.delivered {
        return Vec::new();
    }
    let mut tiles: Vec<u64> = match res.site {
        "l2" => trace
            .tiles()
            .iter()
            .filter(|t| t.pos >= res.at_tile && t.l2_hits + t.l2_misses > 0)
            .map(|t| t.pos as u64)
            .collect(),
        "l1" | "unit_garble" => trace
            .tiles()
            .iter()
            .filter(|t| t.pos >= res.at_tile && Some(t.unit) == res.unit)
            .map(|t| t.pos as u64)
            .collect(),
        "scheduler" => {
            let mut v: Vec<u64> = res.victim_tile.into_iter().map(|t| t as u64).collect();
            v.extend(res.redirect_dest.map(|d| d as u64));
            v
        }
        _ => res.victim_tile.into_iter().map(|t| t as u64).collect(),
    };
    tiles.truncate(TOUCHED_TILES_CAP);
    tiles
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelSpec;
    use radcrit_accel::config::DeviceConfig;

    fn small_campaign(device: DeviceConfig) -> Campaign {
        Campaign::new(device, KernelSpec::Dgemm { n: 32 }, 40, 7).with_workers(2)
    }

    #[test]
    fn campaign_produces_one_record_per_injection() {
        let result = small_campaign(DeviceConfig::kepler_k40()).run().unwrap();
        assert_eq!(result.records.len(), 40);
        for (i, r) in result.records.iter().enumerate() {
            assert_eq!(r.index, i);
        }
        assert_eq!(result.output_len, 32 * 32);
        assert!(result.sigma_total > 0.0);
        assert!(result.is_complete());
        assert_eq!(result.telemetry.completed, 40);
        assert_eq!(result.telemetry.replayed, 0);
        assert_eq!(result.telemetry.latency.count(), 40);
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let base = small_campaign(DeviceConfig::kepler_k40());
        let one = base.clone().with_workers(1).run().unwrap();
        let four = base.with_workers(4).run().unwrap();
        assert_eq!(one.records, four.records);
    }

    #[test]
    fn campaign_observes_all_outcome_kinds_eventually() {
        let c = Campaign::new(
            DeviceConfig::kepler_k40(),
            KernelSpec::Dgemm { n: 32 },
            300,
            11,
        )
        .with_workers(4);
        let result = c.run().unwrap();
        let tags: std::collections::HashSet<_> =
            result.records.iter().map(|r| r.outcome.tag()).collect();
        assert!(tags.contains("SDC"), "tags: {tags:?}");
        assert!(
            tags.contains("CRASH") || tags.contains("HANG"),
            "tags: {tags:?}"
        );
        assert!(tags.contains("MASKED"), "tags: {tags:?}");
    }

    #[test]
    fn logical_coordinates_used_for_lavamd() {
        let c = Campaign::new(
            DeviceConfig::xeon_phi_3120a(),
            KernelSpec::LavaMd {
                grid: 3,
                particles: 6,
            },
            60,
            3,
        )
        .with_workers(2);
        let result = c.run().unwrap();
        for r in &result.records {
            if let InjectionOutcome::Sdc(d) = &r.outcome {
                // Logical shape is the 3x3x3 box grid.
                assert!(
                    d.criticality.incorrect_elements >= 1,
                    "SDC must have mismatches"
                );
            }
        }
    }

    #[test]
    fn a_deadline_does_not_disturb_a_healthy_campaign() {
        let base = small_campaign(DeviceConfig::kepler_k40());
        let plain = base.clone().run().unwrap();
        let watched = base.with_deadline(Duration::from_secs(60)).run().unwrap();
        assert_eq!(plain.records, watched.records);
        assert_eq!(watched.telemetry.watchdog_hangs, 0);
    }

    #[test]
    fn budget_produces_a_resumable_partial_result() {
        let c = small_campaign(DeviceConfig::kepler_k40());
        let partial = c
            .run_with(&RunOptions {
                budget: Some(10),
                ..RunOptions::default()
            })
            .unwrap();
        assert_eq!(partial.records.len(), 10);
        assert!(!partial.is_complete());
        let full = c.run().unwrap();
        // The partial run's records are a subset of the full run's.
        for r in &partial.records {
            assert_eq!(r, &full.records[r.index]);
        }
    }
}
