//! The campaign runner: one golden run, then one strike per execution,
//! each compared against golden and classified into a per-injection
//! record — hardened with a hang watchdog, panic capture, streaming
//! checkpoints and run telemetry.
//!
//! [`Campaign::run_with`] runs five stages: the **sinks** (metrics,
//! trace and profiler, and their three end-of-run artifact writes); the
//! **golden** execution, looked up in a shared [`GoldenCache`] or
//! computed; the **plan** (shard check, checkpoint replay, pending
//! list, budget, bucket sort); the **event stream**, opened or resumed,
//! with a `replay` marker for each replayed index it lacks; and the
//! **collector** (`Collector`), which owns the receive, watchdog, fold
//! and persist loop on the calling thread. Every collector exit — done,
//! cancelled or failed — takes one shutdown: stop dispatch, export the
//! latency and bucket counts once, wait for profiling stragglers.
//!
//! Each worker thread (a `Worker`) owns a kernel instance and a fork
//! cursor over the golden snapshots. It claims indices from a shared
//! cursor over the plan, executes each strike (a fork off the cursor's
//! warm bucket, or a run from tile 0 when no snapshot covers it), compares
//! and classifies the output, and sends the finished
//! [`InjectionRecord`] to the collector. Each record is built once, and
//! its `provenance` line derives from it, for strikes, fatal plans and
//! watchdog hangs alike. Injection `i` always uses its own seeded RNG
//! stream, so records are identical for any worker count — which is
//! what lets [`Campaign::resume`] replay a killed campaign's checkpoint
//! and finish with a bit-identical summary.
//!
//! Failures are contained: a panicking injection surfaces as
//! [`AccelError::WorkerPanic`]; the first worker error wins and stops
//! dispatch; and with [`Campaign::with_deadline`] armed, an injection
//! still running past the deadline is recorded as
//! [`InjectionOutcome::Hang`] (site `"watchdog"`) while a replacement
//! worker takes over — the abandoned one discards its late result by a
//! generation check, so the record is never duplicated.
//!
//! Event blocks carry only logical data and are written in index order
//! (see [`RunOptions::events_out`]), so a fixed-seed stream is
//! byte-identical for any worker count and across kill/resume cycles.
//! Phase timing has one clock, the [`radcrit_obs::profile`] scopes, of
//! which the profile tree, the Chrome trace and the phase counters are
//! views.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::{Engine, ForkCounts, ForkCursor, RunOutcome, StrikeResolution};
use radcrit_accel::error::AccelError;
use radcrit_accel::profile::ExecutionProfile;
use radcrit_accel::snapshot::SnapshotPolicy;
use radcrit_accel::strike::StrikeSpec;
use radcrit_accel::trace::ExecutionTrace;
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_kernels::Workload;
use radcrit_obs::profile::{self as phase_profile, Lane, PhaseId, ProfileCollector};
use radcrit_obs::{
    AppendLog, CriticalityAggregator, Event as ObsEvent, EventBuffer, EventWriter, FieldValue,
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
        let mut fold = aggregator(&self.campaign, self.sigma_total);
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

/// An empty fold in `campaign`'s context.
fn aggregator(campaign: &Campaign, sigma_total: f64) -> CriticalityAggregator {
    CriticalityAggregator::with_context(
        campaign.kernel.name(),
        &campaign.kernel.input_label(),
        &campaign.device.kind().to_string(),
        campaign.injections as u64,
        sigma_total,
    )
}

/// The per-injection RNG stream seed — a fixed function of `(campaign
/// seed, index)`, so records are reproducible independent of worker
/// scheduling and of the batch scheduler's execution order.
pub fn stream_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64)
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
        let range = self.shard_range(options.shard)?;
        let sinks = Sinks::open(options);
        let thread_profile = sinks.profile_thread(sinks.lane(0));
        let engine = sinks.engine(&self.device);
        let (kernel, golden) = self.golden(&engine, options, &sinks)?;
        let sampler = FaultSampler::new(&self.device, &golden.profile);
        let sigma_total = sampler.table().total();
        let (replayed, checkpoint, pending) =
            self.plan(options, range, &engine, kernel.as_ref(), &sampler, &golden)?;
        let header = || run_begin_event(self, kernel.as_ref(), sigma_total);
        let events = EventSink::open(options, range, header, &replayed)?;
        let shared = Shared {
            campaign: self.clone(),
            sampler,
            golden: Arc::clone(&golden),
            pending,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            sinks: sinks.clone(),
            events_sample: options
                .events_out
                .is_some()
                .then_some(options.events_sample.max(1)),
            buckets: Mutex::default(),
        };
        let (records, telemetry) =
            Collector::start(options, shared, replayed, checkpoint, events).run()?;
        sinks.write(options, thread_profile, || {
            trace_metadata(self, &golden.profile, sigma_total, records.len())
        })?;
        Ok(CampaignResult {
            campaign: self.clone(),
            profile: golden.profile.clone(),
            sigma_total,
            output_len: golden.output.len(),
            records,
            telemetry,
            shard: options.shard,
        })
    }

    /// The injection range this run covers, validated before any
    /// expensive work: an empty or out-of-range shard is a caller bug,
    /// not a campaign.
    fn shard_range(&self, shard: Option<(usize, usize)>) -> Result<(usize, usize), AccelError> {
        match shard {
            Some((start, end)) if start >= end || end > self.injections => {
                Err(AccelError::Corrupt(format!(
                    "shard {start}..{end} out of range for {} injections",
                    self.injections
                )))
            }
            Some(range) => Ok(range),
            None => Ok((0, self.injections)),
        }
    }

    /// The golden execution — output, profile and the golden-prefix
    /// snapshot set injections fork from — plus the kernel instance the
    /// planner samples fork tiles against. With a shared cache attached,
    /// runs agreeing on (kernel, device, seed) reuse one golden execution
    /// instead of recomputing it; cached entries carry their snapshot
    /// set, so later jobs fork from snapshots they never captured.
    fn golden(
        &self,
        engine: &Engine,
        options: &RunOptions,
        sinks: &Sinks,
    ) -> Result<(Box<dyn Workload + Send>, Arc<GoldenEntry>), AccelError> {
        let _scope = phase_profile::phase(PhaseId::Golden);
        let mut kernel = self.kernel.build(self.seed)?;
        let mut compute = || -> Result<GoldenEntry, AccelError> {
            let (golden, set) =
                engine.golden_snapshotted(kernel.as_mut(), &SnapshotPolicy::default())?;
            Ok(GoldenEntry {
                output: golden.output,
                profile: golden.profile,
                snapshots: Arc::new(set),
            })
        };
        let golden = match options.golden_cache.as_deref() {
            None => Arc::new(compute()?),
            Some(cache) => {
                let key = GoldenKey::for_campaign(self);
                let hit = cache.get(&key);
                if let Some(m) = &sinks.metrics {
                    let name = match hit {
                        Some(_) => "radcrit_golden_cache_hits_total",
                        None => "radcrit_golden_cache_misses_total",
                    };
                    m.counter_add(name, &[], 1);
                }
                match hit {
                    Some(hit) => hit,
                    None => cache.insert(key, compute()?),
                }
            }
        };
        Ok((kernel, golden))
    }

    /// What this run still has to do: the records a previous run already
    /// checkpointed, the checkpoint to append to, and the rest of
    /// `start..end` cut to the budget (so a budgeted run completes the
    /// index prefix) and sorted into buckets.
    ///
    /// The prefix-sharing batch scheduler keys each index by its fork
    /// cursor bucket ([`ForkCursor::bucket`]: resume snapshot, then fork
    /// tile), so one warm restore serves a whole bucket of forks. Each
    /// index's plan and fork tile are pre-sampled with its own RNG stream
    /// — exactly the draws the executing worker repeats — so sorting
    /// changes *execution order only*: record content, the event stream
    /// and the summary equal an index-order run (the event writer
    /// reorders by index, the checkpoint replay tolerates any completion
    /// order). Fatal plans and strikes before the first snapshot have no
    /// bucket and keep index order at the end of the plan.
    fn plan(
        &self,
        options: &RunOptions,
        (start, end): (usize, usize),
        engine: &Engine,
        kernel: &(dyn Workload + Send),
        sampler: &FaultSampler,
        golden: &GoldenEntry,
    ) -> Result<Plan, AccelError> {
        let (checkpoint, replayed) = match &options.checkpoint {
            Some(path) => {
                let (log, replayed) = checkpoint::open(path, self, options.resume)?;
                (Some(log), replayed)
            }
            None => (None, Vec::new()),
        };
        let done: HashSet<usize> = replayed.iter().map(|r| r.index).collect();
        let mut pending: Vec<usize> = (start..end).filter(|i| !done.contains(i)).collect();
        if let Some(budget) = options.budget {
            pending.truncate(budget);
        }
        let cursor = ForkCursor::new(engine.clone(), Arc::clone(&golden.snapshots));
        pending.sort_by_cached_key(|&index| {
            let mut rng = StdRng::seed_from_u64(stream_seed(self.seed, index));
            let bucket = match sampler.sample(&mut rng) {
                InjectionPlan::Strike(spec) => cursor.bucket(kernel, &[spec], &rng),
                _ => None,
            };
            (bucket.is_none(), bucket, index)
        });
        Ok((replayed, checkpoint, pending))
    }
}

/// The plan stage's output: the replayed records, the checkpoint new
/// records append to, and the indices still to run, in bucket order.
type Plan = (Vec<InjectionRecord>, Option<AppendLog>, Vec<usize>);

/// The run's wall-clock sinks. Any of them turns phase profiling on for
/// every run thread (the collector's lane 0 profiles the golden phase
/// and checkpoint appends); with none, every scope is a flag check.
#[derive(Clone)]
struct Sinks {
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceRecorder>>,
    profiler: Option<Arc<ProfileCollector>>,
}

impl Sinks {
    fn open(options: &RunOptions) -> Self {
        let metrics = options.metrics.clone().or_else(|| {
            options
                .metrics_out
                .is_some()
                .then(|| Arc::new(MetricsRegistry::new()))
        });
        if let Some(m) = &metrics {
            m.gauge_set(
                "radcrit_simd_isa",
                &[("isa", radcrit_core::exec::active().name())],
                1.0,
            );
        }
        let trace = options.trace.clone().or_else(|| {
            options
                .trace_out
                .is_some()
                .then(|| Arc::new(TraceRecorder::new()))
        });
        let profiler = options.profile.clone().or_else(|| {
            (options.profile_out.is_some() || trace.is_some() || metrics.is_some())
                .then(|| Arc::new(ProfileCollector::new()))
        });
        Sinks {
            metrics,
            trace,
            profiler,
        }
    }

    /// An engine reporting into the run's metrics registry.
    fn engine(&self, device: &DeviceConfig) -> Engine {
        let engine = Engine::new(device.clone());
        match &self.metrics {
            Some(m) => engine.with_metrics(Arc::clone(m)),
            None => engine,
        }
    }

    /// Timeline lane `tid`, when the run is traced: 0 is the
    /// collector's, workers get 1, 2, … in spawn order.
    fn lane(&self, tid: u64) -> Option<Lane> {
        self.trace.clone().map(|t| (t, tid))
    }

    /// Profiles the calling thread, on `lane`, until the guard drops.
    fn profile_thread(&self, lane: Option<Lane>) -> ThreadProfile<'_> {
        if self.profiler.is_some() {
            phase_profile::enable_thread(lane);
        }
        ThreadProfile(self)
    }

    /// Writes the end-of-run artifacts: the Chrome trace, then — once the
    /// calling thread's profile is merged — the profile tree and the
    /// metrics snapshot.
    fn write(
        &self,
        options: &RunOptions,
        thread_profile: ThreadProfile<'_>,
        trace_metadata: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> Result<(), AccelError> {
        if let (Some(tr), Some(path)) = (&self.trace, &options.trace_out) {
            write_artifact("trace", path, tr.to_chrome_json(&trace_metadata()))?;
            // Capped drops are operational signal, not just trace
            // metadata: surface them on /metrics too.
            if let Some(m) = &self.metrics {
                tr.export_dropped(m);
            }
        }
        drop(thread_profile);
        if let (Some(pc), Some(path)) = (&self.profiler, &options.profile_out) {
            write_artifact("profile", path, pc.snapshot().to_json())?;
        }
        if let (Some(m), Some(path)) = (&self.metrics, &options.metrics_out) {
            let snap = m.snapshot();
            let prom = path.with_extension("prom");
            write_artifact("metrics", path, format!("{}\n", snap.to_json()))?;
            write_artifact("metrics", &prom, snap.to_prometheus())?;
        }
        Ok(())
    }
}

fn write_artifact(what: &str, path: &Path, contents: impl AsRef<[u8]>) -> Result<(), AccelError> {
    std::fs::write(path, contents)
        .map_err(|e| AccelError::Corrupt(format!("{what} {}: {e}", path.display())))
}

/// A run thread's profiling guard: dropped by any path — error returns
/// and a worker the watchdog abandoned included, whose timings are
/// still real work — it drains the thread's profile into the collector
/// and the phase counters.
struct ThreadProfile<'a>(&'a Sinks);

impl Drop for ThreadProfile<'_> {
    fn drop(&mut self) {
        if let Some(pc) = &self.0.profiler {
            let tree = phase_profile::drain_thread();
            if let Some(m) = &self.0.metrics {
                tree.export_metrics(m);
            }
            pc.merge(&tree);
        }
    }
}

/// The event stream of a run with [`RunOptions::events_out`], plus the
/// indices it covered before this run started. Those (events ahead of
/// the checkpoint after a kill) are skipped — never duplicated.
struct EventSink {
    writer: EventWriter,
    path: PathBuf,
    have: HashSet<u64>,
}

impl EventSink {
    /// Opens the stream — a resume cuts the torn tail and learns which
    /// indices it covers; a stream without its header starts with
    /// `header()` — and marks each replayed index it lacks (the
    /// checkpoint flushes per record, the event writer buffers, so a kill
    /// can separate them) with a `replay` line.
    fn open(
        options: &RunOptions,
        (start, end): (usize, usize),
        header: impl FnOnce() -> ObsEvent,
        replayed: &[InjectionRecord],
    ) -> Result<Option<Self>, AccelError> {
        let Some(path) = &options.events_out else {
            return Ok(None);
        };
        let (start, end) = (start as u64, end as u64);
        let sample = options.events_sample.max(1);
        let (writer, have) = if options.resume {
            EventWriter::resume_range(path, start, end, sample)
        } else {
            EventWriter::create_range(path, start, end, sample).map(|w| (w, HashSet::new()))
        }
        .map_err(|e| events_corrupt(path, e))?;
        let mut sink = EventSink {
            writer: writer.with_notifier(options.notify.clone()),
            path: path.clone(),
            have,
        };
        if sink.writer.is_empty() {
            sink.writer
                .emit_top(&header())
                .map_err(|e| events_corrupt(path, e))?;
        }
        for r in replayed {
            sink.submit(r.index, &[replay_event(r)])?;
        }
        Ok(Some(sink))
    }

    fn submit(&mut self, index: usize, block: &[ObsEvent]) -> Result<(), AccelError> {
        if self.have.contains(&(index as u64)) {
            return Ok(());
        }
        self.writer
            .submit(index as u64, block)
            .map_err(|e| events_corrupt(&self.path, e))
    }

    /// Flushes the gapped blocks first (a budget stop leaves holes), so
    /// `trailer` is the stream's final line.
    fn finish(&mut self, trailer: &ObsEvent) -> Result<(), AccelError> {
        let w = &mut self.writer;
        w.finish()
            .and_then(|()| w.emit_top(trailer))
            .and_then(|()| w.finish())
            .map_err(|e| events_corrupt(&self.path, e))
    }
}

fn events_corrupt(path: &Path, e: impl std::fmt::Display) -> AccelError {
    AccelError::Corrupt(format!("event stream {}: {e}", path.display()))
}

/// State shared between the collector and the worker threads.
struct Shared {
    campaign: Campaign,
    sampler: FaultSampler,
    /// Golden output and the golden-prefix snapshots injections fork
    /// from (empty for a non-resumable kernel).
    golden: Arc<GoldenEntry>,
    /// Indices still to run (already filtered against the checkpoint).
    pending: Vec<usize>,
    /// Cursor into `pending`.
    next: AtomicUsize,
    /// Set on the first error; workers stop claiming new indices.
    stop: AtomicBool,
    sinks: Sinks,
    /// Detail-event sampling stride; `None` disables event collection.
    events_sample: Option<u64>,
    /// The workers' fork cursor counts, added after every strike: the
    /// progress line reads them live, and the collector exports them to
    /// the metrics registry once, at shutdown.
    buckets: Mutex<ForkCounts>,
}

/// Adds a run's bucket counts to `radcrit_bucket_{restores,forks,
/// advance_tiles}_total`: no series for what never happened, but the
/// advance series once a fork ran, even at zero tiles advanced.
fn export_buckets(counts: ForkCounts, m: &MetricsRegistry) {
    if counts.restores > 0 {
        m.counter_add("radcrit_bucket_restores_total", &[], counts.restores);
    }
    if counts.forks > 0 {
        m.counter_add("radcrit_bucket_forks_total", &[], counts.forks);
        m.counter_add(
            "radcrit_bucket_advance_tiles_total",
            &[],
            counts.advance_tiles,
        );
    }
}

/// One worker's watchdog slot. The generation counter arbitrates between
/// a worker finishing late and the watchdog having already given up on
/// it: whoever still holds the generation owns the injection's record.
#[derive(Default)]
struct Slot {
    generation: u64,
    /// The injection being executed and when it started.
    current: Option<(usize, Instant)>,
}

enum Event {
    /// A finished record, its latency and its event block (empty when
    /// events are off).
    Done(InjectionRecord, Duration, Vec<ObsEvent>),
    Failed(AccelError),
    Exited,
}

/// The collector: the calling thread's receive, watchdog, fold and
/// persist loop over the worker pool it starts.
struct Collector<'r> {
    options: &'r RunOptions,
    shared: Arc<Shared>,
    /// Kept alive for watchdog replacements: termination is tracked by
    /// `active` (workers neither exited nor retired), not disconnection.
    tx: SyncSender<Event>,
    rx: Receiver<Event>,
    slots: Vec<Arc<Mutex<Slot>>>,
    active: usize,
    next_lane: u64,
    /// Records this run is to produce.
    target: usize,
    telemetry: Telemetry,
    /// The live fold — the aggregator behind the daemon's analytics
    /// endpoints — feeding the progress line and the `run_end` trailer.
    analytics: CriticalityAggregator,
    /// The replayed records, then every record folded.
    records: Vec<InjectionRecord>,
    checkpoint: Option<AppendLog>,
    events: Option<EventSink>,
    /// The first worker error; later ones are victims of the same
    /// shutdown, not the cause.
    first_error: Option<AccelError>,
}

impl<'r> Collector<'r> {
    /// Folds the replayed records and starts the worker pool.
    fn start(
        options: &'r RunOptions,
        shared: Shared,
        replayed: Vec<InjectionRecord>,
        checkpoint: Option<AppendLog>,
        events: Option<EventSink>,
    ) -> Self {
        let mut analytics = aggregator(&shared.campaign, shared.sampler.table().total());
        for r in &replayed {
            analytics.fold_sample(&r.analytic_sample());
        }
        let mut telemetry = Telemetry::new();
        telemetry.note_replayed(replayed.len(), &analytics);
        if let Some(m) = &shared.sinks.metrics {
            let n = replayed.len() as u64;
            m.counter_add("radcrit_campaign_replayed_total", &[], n);
        }
        let target = shared.pending.len();
        let workers = shared.campaign.effective_workers().min(target);
        let (tx, rx) = mpsc::sync_channel(workers * 2 + 4);
        let mut collector = Collector {
            options,
            shared: Arc::new(shared),
            tx,
            rx,
            slots: Vec::new(),
            active: 0,
            next_lane: 1,
            target,
            telemetry,
            analytics,
            records: replayed,
            checkpoint,
            events,
            first_error: None,
        };
        for _ in 0..workers {
            collector.spawn();
        }
        collector
    }

    fn spawn(&mut self) {
        let lane = self.shared.sinks.lane(self.next_lane);
        self.slots.push(Worker::spawn(&self.shared, &self.tx, lane));
        self.next_lane += 1;
        self.active += 1;
    }

    /// Collects until the plan is done, the run is cancelled or no worker
    /// is left, shuts the pool down, and closes the event stream. Returns
    /// the records in index order and the run's telemetry.
    fn run(mut self) -> Result<(Vec<InjectionRecord>, TelemetrySnapshot), AccelError> {
        let collected = self.collect();
        self.shutdown();
        collected?;
        if let Some(e) = self.first_error.take() {
            return Err(e);
        }
        if self.options.progress.is_some() {
            self.progress();
        }
        self.records.sort_by_key(|r| r.index);
        if let Some(events) = self.events.as_mut() {
            events.finish(&run_end_event(&self.telemetry, &self.analytics))?;
        }
        Ok((self.records, self.telemetry.snapshot()))
    }

    /// The receive loop. Its error is a failed checkpoint or event-stream
    /// write; a worker's error is kept in `first_error` while the loop
    /// goes on collecting what the other workers finish.
    fn collect(&mut self) -> Result<(), AccelError> {
        // The tick bounds both watchdog reaction time and progress-line
        // cadence.
        let deadline = self.shared.campaign.deadline;
        let tick = [deadline.map(|d| d / 4), self.options.progress]
            .into_iter()
            .flatten()
            .fold(Duration::from_millis(200), Duration::min)
            .max(Duration::from_millis(5));
        let cancel = self.options.cancel.as_deref();
        let mut last_progress = Instant::now();
        while self.active > 0 && self.telemetry.completed() < self.target {
            // On cancel, stop dispatching: what was not collected is not
            // checkpointed either, so a later resume replays it.
            if cancel.is_some_and(|c| c.load(Ordering::SeqCst)) {
                break;
            }
            match self.rx.recv_timeout(tick) {
                Ok(Event::Done(record, latency, block)) => {
                    self.fold(record, latency, &block, false)?
                }
                Ok(Event::Failed(error)) => {
                    self.first_error.get_or_insert(error);
                    self.shared.stop.store(true, Ordering::SeqCst);
                }
                Ok(Event::Exited) => self.active -= 1,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if let Some(deadline) = deadline {
                self.watchdog(deadline)?;
            }
            if let Some(interval) = self.options.progress {
                if last_progress.elapsed() >= interval {
                    self.progress();
                    last_progress = Instant::now();
                }
            }
        }
        Ok(())
    }

    /// Retires every worker whose injection has outlived `deadline`,
    /// records that injection as a hang, and keeps the pool at strength:
    /// the hung worker is abandoned, not joined.
    fn watchdog(&mut self, deadline: Duration) -> Result<(), AccelError> {
        let mut hung = Vec::new();
        self.slots.retain(|slot| {
            let mut s = slot.lock().expect("slot lock");
            match s.current {
                Some((index, started)) if started.elapsed() >= deadline => {
                    s.generation += 1;
                    s.current = None;
                    hung.push(index);
                    false
                }
                _ => true,
            }
        });
        for index in hung {
            self.active -= 1;
            let record = InjectionRecord {
                index,
                site: WATCHDOG_SITE.into(),
                at_tile: None,
                delivered: true,
                outcome: InjectionOutcome::Hang,
            };
            // The hung worker never submits a block (its generation was
            // retired), so the watchdog owns this index's provenance.
            let block = [record.provenance().to_event()];
            self.fold(record, deadline, &block, true)?;
            if self.telemetry.completed() < self.target && !self.shared.stop.load(Ordering::SeqCst)
            {
                self.spawn();
            }
        }
        Ok(())
    }

    /// Folds one finished record into the telemetry, the analytics and
    /// the metrics, then persists it to the checkpoint and the event
    /// stream.
    fn fold(
        &mut self,
        record: InjectionRecord,
        latency: Duration,
        block: &[ObsEvent],
        watchdog: bool,
    ) -> Result<(), AccelError> {
        self.telemetry.record(latency, watchdog);
        self.analytics.fold_sample(&record.analytic_sample());
        if let Some(m) = &self.shared.sinks.metrics {
            m.counter_add(
                "radcrit_campaign_outcomes_total",
                &[("outcome", record.outcome.tag())],
                1,
            );
            if watchdog {
                m.counter_add("radcrit_campaign_watchdog_hangs_total", &[], 1);
            }
        }
        if let Some(log) = self.checkpoint.as_mut() {
            let _scope = phase_profile::phase(PhaseId::Checkpoint);
            checkpoint::append(log, &record)?;
        }
        if let Some(events) = self.events.as_mut() {
            events.submit(record.index, block)?;
        }
        self.records.push(record);
        Ok(())
    }

    fn progress(&self) {
        let buckets = (!self.shared.golden.snapshots.is_empty()).then(|| {
            let counts = *self.shared.buckets.lock().expect("bucket counts lock");
            (counts.restores, counts.forks)
        });
        let line = self
            .telemetry
            .progress_line(self.target, &self.analytics, buckets);
        eprintln!("{line}");
    }

    /// The one shutdown every exit takes. Workers merge their profiles
    /// right before `Exited`, so with profiling on it waits for the
    /// stragglers (bounded — a worker stuck in a hung kernel is abandoned,
    /// its profile with it) before the bucket counts, forks in flight at
    /// a cancel included, are exported.
    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let metrics = self.shared.sinks.metrics.as_deref();
        self.telemetry.export_latency(metrics);
        if self.shared.sinks.profiler.is_some() {
            while self.active > 0 {
                match self.rx.recv_timeout(Duration::from_secs(5)) {
                    Ok(Event::Exited) => self.active -= 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        if let Some(m) = metrics {
            export_buckets(*self.shared.buckets.lock().expect("bucket counts lock"), m);
        }
    }
}

/// One worker thread's kernel instance and fork cursor (its warm bucket
/// and run scratch: later injections restore device memory in place
/// instead of re-running the kernel's setup).
struct Worker {
    shared: Arc<Shared>,
    kernel: Box<dyn Workload + Send>,
    cursor: ForkCursor,
}

impl Worker {
    /// Starts a worker thread on the shared plan; returns its watchdog
    /// slot.
    fn spawn(shared: &Arc<Shared>, tx: &SyncSender<Event>, lane: Option<Lane>) -> Arc<Mutex<Slot>> {
        let slot = Arc::new(Mutex::new(Slot::default()));
        let (shared, worker_slot, tx) = (Arc::clone(shared), Arc::clone(&slot), tx.clone());
        thread::spawn(move || {
            let profile = shared.sinks.profile_thread(lane);
            let announce = match Worker::new(Arc::clone(&shared)) {
                Ok(mut worker) => worker.serve(&worker_slot, &tx),
                Err(error) => {
                    shared.stop.store(true, Ordering::SeqCst);
                    let _ = tx.send(Event::Failed(error));
                    true
                }
            };
            // Merge before `Exited`: the collector snapshots the profile
            // as soon as the last worker is accounted for.
            drop(profile);
            if announce {
                let _ = tx.send(Event::Exited);
            }
        });
        slot
    }

    fn new(shared: Arc<Shared>) -> Result<Self, AccelError> {
        let kernel = shared.campaign.kernel.build(shared.campaign.seed)?;
        let engine = shared.sinks.engine(&shared.campaign.device);
        let cursor = ForkCursor::new(engine, Arc::clone(&shared.golden.snapshots));
        Ok(Worker {
            shared,
            kernel,
            cursor,
        })
    }

    /// Claims and runs injections until the plan is exhausted or the run
    /// stops. Returns whether the collector still awaits this worker's
    /// `Exited`: not when the watchdog retired it (the collector already
    /// counted it out) or the collector is gone.
    fn serve(&mut self, slot: &Mutex<Slot>, tx: &SyncSender<Event>) -> bool {
        let shared = Arc::clone(&self.shared);
        while !shared.stop.load(Ordering::SeqCst) {
            let cursor = shared.next.fetch_add(1, Ordering::SeqCst);
            let Some(&index) = shared.pending.get(cursor) else {
                break;
            };
            let generation = {
                let mut s = slot.lock().expect("slot lock");
                s.current = Some((index, Instant::now()));
                s.generation
            };
            let stride = shared.events_sample;
            let mut buf = stride.map_or_else(EventBuffer::disabled, |_| {
                EventBuffer::for_injection(index as u64)
            });
            let detail = stride.is_some_and(|s| (index as u64).is_multiple_of(s));

            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| self.inject(index, &mut buf, detail)));
            let latency = started.elapsed();

            // Never send while holding the slot lock: the collector both
            // drains the channel and takes this lock in its watchdog scan.
            {
                let mut s = slot.lock().expect("slot lock");
                if s.generation != generation {
                    // The watchdog recorded this injection as a hang and
                    // moved on; our late result would be a duplicate.
                    return false;
                }
                s.current = None;
            }
            let error = match outcome {
                Ok(Ok(record)) => {
                    if tx.send(Event::Done(record, latency, buf.take())).is_err() {
                        return false;
                    }
                    continue;
                }
                Ok(Err(error)) => error,
                Err(payload) => AccelError::WorkerPanic(panic_message(payload)),
            };
            shared.stop.store(true, Ordering::SeqCst);
            let _ = tx.send(Event::Failed(error));
            break;
        }
        true
    }

    /// Runs injection `index` under its `injection` span and profile
    /// scope. Its plan comes from the index's own RNG stream, so the
    /// record does not depend on which worker runs it, or when.
    fn inject(
        &mut self,
        index: usize,
        buf: &mut EventBuffer,
        detail: bool,
    ) -> Result<InjectionRecord, AccelError> {
        let mut rng = StdRng::seed_from_u64(stream_seed(self.shared.campaign.seed, index));
        let span = detail.then(|| Span::enter(buf, "injection"));
        let scope = phase_profile::phase_with(PhaseId::Injection, &[("index", index as u64)]);
        let result = match self.shared.sampler.sample(&mut rng) {
            InjectionPlan::Strike(spec) => self.strike(index, &spec, &mut rng, buf, detail),
            fatal => {
                let outcome = match fatal {
                    InjectionPlan::Crash => InjectionOutcome::Crash,
                    _ => InjectionOutcome::Hang,
                };
                if detail {
                    buf.emit("fatal").str("mode", outcome.tag());
                }
                let record = InjectionRecord {
                    index,
                    site: "fatal".into(),
                    at_tile: None,
                    delivered: true,
                    outcome,
                };
                if buf.is_enabled() {
                    buf.push(record.provenance().to_event());
                }
                Ok(record)
            }
        };
        drop(scope);
        if let Some(span) = span {
            span.exit(buf);
        }
        result
    }

    /// One strike: execute, then compare and classify. With events on,
    /// the run is traced (the RNG stream is consumed the same either way)
    /// for the provenance's touched tiles.
    fn strike(
        &mut self,
        index: usize,
        spec: &StrikeSpec,
        rng: &mut StdRng,
        buf: &mut EventBuffer,
        detail: bool,
    ) -> Result<InjectionRecord, AccelError> {
        if detail {
            buf.emit("strike")
                .str("site", spec.target.site_name())
                .u64("at", spec.at_tile as u64)
                .opt_u64("bit", spec.target.bit_index().map(u64::from))
                .opt_u64("op", spec.target.op_index());
        }
        let execute = phase_profile::phase_with(
            PhaseId::Execute,
            &[("index", index as u64), ("at", spec.at_tile as u64)],
        );
        // The worker's fork cursor runs the strike off its warm bucket
        // (the plan is in bucket order, so one restore serves a bucket),
        // or from tile 0 when no snapshot covers it.
        let mut trace = buf.is_enabled().then(ExecutionTrace::new);
        let strikes = std::slice::from_ref(spec);
        let run = self
            .cursor
            .run(self.kernel.as_mut(), strikes, rng, trace.as_mut());
        *self.shared.buckets.lock().expect("bucket counts lock") += self.cursor.take_counts();
        let run = run?;
        drop(execute);
        let resolution = run.resolutions.first().copied();
        if let Some(r) = resolution.filter(|_| detail) {
            buf.emit("resolution")
                .bool("delivered", r.delivered)
                .opt_u64("victim", r.victim_tile.map(|v| v as u64))
                .opt_u64("unit", r.unit.map(|u| u as u64))
                .opt_u64("redirect", r.redirect_dest.map(|d| d as u64));
        }
        let record = InjectionRecord {
            index,
            site: spec.target.site_name().to_owned(),
            at_tile: Some(spec.at_tile),
            delivered: run.strike_delivered,
            outcome: self.classify(index, &run),
        };
        if let Some(trace) = &trace {
            let prov = ProvenanceRecord {
                victim_tile: resolution.and_then(|r| r.victim_tile).map(|v| v as u64),
                unit: resolution.and_then(|r| r.unit).map(|u| u as u64),
                bit: spec.target.bit_index().map(u64::from),
                touched_tiles: resolution.map_or_else(Vec::new, |r| touched_tiles(&r, trace)),
                ..record.provenance()
            };
            if detail {
                let diff = buf
                    .emit("diff")
                    .u64("mismatches", prov.mismatches)
                    .str("class", &prov.class.to_string());
                match prov.mre {
                    Some(v) => diff.f64("mre", v),
                    None => diff,
                };
            }
            buf.push(prov.to_event());
        }
        Ok(record)
    }

    /// Compares a run's output against golden — only its dirty region,
    /// the elements that *can* differ — and classifies it: masked, or an
    /// SDC with its §III criticality.
    fn classify(&self, index: usize, run: &RunOutcome) -> InjectionOutcome {
        let kernel = self.kernel.as_ref();
        let golden = &self.shared.golden.output;
        let mut scope = phase_profile::phase_with(PhaseId::Compare, &[("index", index as u64)]);
        // Mismatches land in the kernel's *logical* coordinate space
        // (e.g. LavaMD's box grid), which is what the spatial-locality
        // metric operates on.
        let report = run.compare(golden, kernel.logical_shape(), |i| kernel.error_coord(i));
        if let Some(scope) = scope.as_mut() {
            scope.arg("mismatches", report.incorrect_elements() as u64);
        }
        drop(scope);
        if !report.is_sdc() {
            return InjectionOutcome::Masked;
        }
        let c = &self.shared.campaign;
        InjectionOutcome::Sdc(SdcDetail {
            criticality: report.criticality(&c.tolerance, &c.classifier),
            output_len: golden.len(),
        })
    }
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
