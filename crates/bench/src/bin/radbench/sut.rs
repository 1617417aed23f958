//! The system under test: every call radbench makes into the radcrit
//! crates (`kernels`, `accel`, `faults`, `core`, `campaign`, `obs`,
//! `serve`, plus the bench crate's run fingerprint) lives in this module
//! and nowhere else.
//!
//! The rest of the benchmark sees plain values — summary JSON strings,
//! durations, byte counts, phase tables — so a change to a program
//! crate's API touches this file only, and a reader can audit exactly
//! what the benchmark exercises. Nothing here sets
//! `RunOptions::full_execution` or `RunOptions::no_batch`: every run
//! takes the default batched execution path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use radcrit_accel::{DeviceConfig, Engine, SnapshotPolicy};
use radcrit_campaign::{CampaignSummary, RunOptions};
use radcrit_faults::sampler::FaultSampler;
use radcrit_obs::json::{self, Json};
use radcrit_obs::{CriticalityAggregator, MetricsRegistry, ProfileCollector, ProfileTree};
use radcrit_serve::daemon::{self, DaemonConfig, DaemonHandle};
use radcrit_serve::{Client, DeviceKind, ServeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use radcrit_campaign::{Campaign, GoldenCache, KernelSpec};
pub use radcrit_serve::JobSpec;

/// Where and on what a run happened: printed with every result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub commit: String,
    pub host: String,
    pub nproc: usize,
    pub isa: String,
}

pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        commit: radcrit_bench::history::commit_fingerprint(),
        host: radcrit_bench::history::host_fingerprint(),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        isa: radcrit_core::exec::active().name().to_owned(),
    }
}

// ---------------------------------------------------------------------
// In-process campaigns
// ---------------------------------------------------------------------

/// A full-size K40 campaign run by one worker thread (the load limit:
/// the collector plus one worker is two threads on a two-core host).
pub fn campaign(kernel: KernelSpec, injections: usize, seed: u64) -> Campaign {
    Campaign::new(DeviceConfig::kepler_k40(), kernel, injections, seed).with_workers(1)
}

/// A golden cache with the default byte budget.
pub fn golden_cache() -> Arc<GoldenCache> {
    GoldenCache::shared_default()
}

/// The program's own observers, read after a traced run.
#[derive(Debug, Default)]
pub struct Observers {
    profile: Arc<ProfileCollector>,
    metrics: Arc<MetricsRegistry>,
}

impl Observers {
    pub fn new() -> Self {
        Self::default()
    }

    /// Self time and entry count per engine phase, hottest first, plus
    /// the summed wall time of the root phases.
    pub fn phases(&self) -> Phases {
        Phases::from_tree(&self.profile.snapshot())
    }

    /// A counter of the run's metrics registry (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.snapshot().counter(name, &[]).unwrap_or(0)
    }
}

/// A merged phase profile, flattened.
#[derive(Debug, Clone, Default)]
pub struct Phases {
    /// `(phase, self_ns, count)` aggregated over every stack position.
    pub hot: Vec<(String, u64, u64)>,
    /// Σ total_ns of the root phases.
    pub root_total_ns: u64,
}

impl Phases {
    fn from_tree(tree: &ProfileTree) -> Self {
        Phases {
            hot: tree.hot_phases(radcrit_obs::profile::PHASE_COUNT),
            root_total_ns: tree.total_ns(),
        }
    }

    /// `(self_ns, count)` of one phase (zeros when it never ran).
    pub fn get(&self, phase: &str) -> (u64, u64) {
        self.hot
            .iter()
            .find(|(p, _, _)| p == phase)
            .map_or((0, 0), |&(_, ns, n)| (ns, n))
    }
}

/// Times every memory sub-phase of every tile from now on (stride 1),
/// the capture `PROFILE_9.json` used. Process-wide; undo with
/// [`sampled_profiling`].
pub fn exhaustive_profiling() {
    radcrit_obs::profile::set_tile_sample_stride(1);
}

/// Restores the profiler's default tile-sampling stride.
pub fn sampled_profiling() {
    radcrit_obs::profile::set_tile_sample_stride(radcrit_obs::profile::TILE_SAMPLE_STRIDE);
}

/// What one `Campaign::run_with` call gets attached.
#[derive(Debug, Default)]
pub struct Attach<'a> {
    /// Shared golden cache; `None` uses a fresh (cold) one.
    pub cache: Option<&'a Arc<GoldenCache>>,
    /// Write the daemon's per-job artifact set (checkpoint, events at
    /// sample 1, trace, profile, a metrics registry) into this
    /// directory, exactly as `serve::daemon::run_job` does.
    pub persist: Option<&'a Path>,
    /// Injection index range to run.
    pub shard: Option<(usize, usize)>,
    /// Stop after this many records.
    pub budget: Option<usize>,
    /// Profile and count into these observers.
    pub observe: Option<&'a Observers>,
}

/// What a run produced.
#[derive(Debug)]
pub struct Product {
    /// Wall time of the `run_with` call alone.
    pub wall: Duration,
    /// `CampaignSummary::to_json()`.
    pub summary: String,
    pub records: usize,
    pub complete: bool,
}

/// One `Campaign::run_with` call.
pub fn run(campaign: &Campaign, attach: &Attach<'_>) -> Result<Product, String> {
    let cache = attach.cache.cloned().unwrap_or_else(golden_cache);
    let mut options = RunOptions {
        golden_cache: Some(cache),
        shard: attach.shard,
        budget: attach.budget,
        ..RunOptions::default()
    };
    if let Some(dir) = attach.persist {
        options.checkpoint = Some(dir.join("checkpoint.jsonl"));
        options.events_out = Some(dir.join("events.jsonl"));
        options.events_sample = 1;
        options.trace_out = Some(dir.join("trace.json"));
        options.profile_out = Some(dir.join("profile.json"));
        options.metrics = Some(Arc::new(MetricsRegistry::new()));
    }
    if let Some(obs) = attach.observe {
        options.profile = Some(Arc::clone(&obs.profile));
        options.metrics = Some(Arc::clone(&obs.metrics));
    }
    let started = Instant::now();
    let result = campaign.run_with(&options).map_err(|e| e.to_string())?;
    let wall = started.elapsed();
    Ok(Product {
        wall,
        summary: result.summary().to_json(),
        records: result.records.len(),
        complete: result.is_complete(),
    })
}

/// Folds an event file back into a summary
/// (`CriticalityAggregator::from_events_path` →
/// `CampaignSummary::from_analytics`).
pub fn fold_events(path: &Path) -> Result<String, String> {
    let agg = CriticalityAggregator::from_events_path(path)?;
    Ok(CampaignSummary::from_analytics(&agg).to_json())
}

/// Folds SSE data frames (event lines) into a summary.
pub fn fold_frames(frames: &[String]) -> Result<String, String> {
    let mut agg = CriticalityAggregator::new();
    for line in frames {
        agg.fold_line(line)?;
    }
    Ok(CampaignSummary::from_analytics(&agg).to_json())
}

/// The campaign's preparation, layer by layer from the outside: each
/// public call the runner makes before its first injection, timed
/// separately.
#[derive(Debug)]
pub struct Preparation {
    pub build: (Instant, Instant),
    pub golden: (Instant, Instant),
    pub sampler: (Instant, Instant),
    /// The loop of `samples` `FaultSampler::sample` calls.
    pub sampling: (Instant, Instant),
    pub samples: usize,
    pub fatal: usize,
    pub snapshot_bytes: usize,
}

/// Runs `KernelSpec::build`, `Engine::golden_snapshotted`,
/// `FaultSampler::new`, then `FaultSampler::sample` once per injection
/// index, each draw from its own seeded RNG like the runner's
/// per-injection streams.
pub fn prepare(campaign: &Campaign, samples: usize) -> Result<Preparation, String> {
    let t0 = Instant::now();
    let mut kernel = campaign
        .kernel
        .build(campaign.seed)
        .map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let engine = Engine::new(campaign.device.clone());
    let (golden, snapshots) = engine
        .golden_snapshotted(kernel.as_mut(), &SnapshotPolicy::default())
        .map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let sampler = FaultSampler::new(&campaign.device, &golden.profile);
    let t3 = Instant::now();
    let mut fatal = 0;
    for i in 0..samples {
        let mut rng = StdRng::seed_from_u64(campaign.seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
        fatal += usize::from(std::hint::black_box(sampler.sample(&mut rng)).is_fatal());
    }
    let t4 = Instant::now();
    Ok(Preparation {
        build: (t0, t1),
        golden: (t1, t2),
        sampler: (t2, t3),
        sampling: (t3, t4),
        samples,
        fatal,
        snapshot_bytes: snapshots.cost_bytes(),
    })
}

// ---------------------------------------------------------------------
// The daemon, over loopback
// ---------------------------------------------------------------------

/// A K40 job spec run by one campaign worker.
pub fn job(kernel: KernelSpec, injections: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(DeviceKind::K40, kernel, injections, seed);
    spec.workers = 1;
    spec
}

/// The canonical wire form of a spec (equal specs, equal bytes).
pub fn job_key(spec: &JobSpec) -> String {
    spec.to_json()
}

/// The summary an in-process run of the spec produces — what the
/// daemon must serve, byte for byte.
pub fn direct_summary(spec: &JobSpec) -> Result<String, String> {
    let campaign = spec.campaign().map_err(|e| e.to_string())?;
    Ok(run(&campaign, &Attach::default())?.summary)
}

/// A failed client call.
#[derive(Debug, Clone)]
pub struct CallError {
    /// The daemon answered 429 (queue full) or 503 (draining).
    pub refused: bool,
    pub message: String,
}

impl From<ServeError> for CallError {
    fn from(e: ServeError) -> Self {
        CallError {
            refused: matches!(
                e,
                ServeError::Http {
                    status: 429 | 503,
                    ..
                }
            ),
            message: e.to_string(),
        }
    }
}

/// An in-process daemon and a client for it.
#[derive(Debug)]
pub struct Daemon {
    handle: DaemonHandle,
    client: Client,
    data_dir: PathBuf,
}

impl Daemon {
    pub fn start(data_dir: &Path, pool: usize, queue_depth: usize) -> Result<Daemon, String> {
        let handle = daemon::start(DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: data_dir.to_owned(),
            pool,
            queue_depth,
            ..DaemonConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let client = Client::new(handle.addr().to_string());
        Ok(Daemon {
            handle,
            client,
            data_dir: data_dir.to_owned(),
        })
    }

    /// `GET /healthz`; returns the daemon clock (`now_us`).
    pub fn healthz(&self) -> Result<f64, CallError> {
        let body = self.client.healthz()?;
        let now = json::parse_line(&body)
            .and_then(|v| json::as_obj(&v).and_then(|o| json::get_u64(o, "now_us")));
        now.map(|us| us as f64).map_err(|message| CallError {
            refused: false,
            message,
        })
    }

    pub fn submit(&self, spec: &JobSpec) -> Result<String, CallError> {
        Ok(self.client.submit(spec)?)
    }

    /// Tails the job's SSE stream to its end frame.
    pub fn stream(&self, id: &str, on_frame: &mut dyn FnMut(&str)) -> Result<(), CallError> {
        Ok(self.client.stream_with(id, None, &mut |_, data| {
            on_frame(data);
            true
        })?)
    }

    pub fn result(&self, id: &str) -> Result<String, CallError> {
        Ok(self.client.result(id)?)
    }

    /// `GET /jobs/:id/trace`, reduced to the start of the job's
    /// `golden` span and the end of its last `injection` span, in
    /// daemon-clock µs.
    pub fn trace_bounds(&self, id: &str) -> Result<(f64, f64), CallError> {
        let doc = self.client.trace(id)?;
        trace_bounds(&doc).map_err(|message| CallError {
            refused: false,
            message,
        })
    }

    /// `GET /metrics` (Prometheus text).
    pub fn metrics(&self) -> Result<String, CallError> {
        Ok(self.client.metrics()?)
    }

    /// `GET /profile`: every finished job's phase profile, merged.
    pub fn phases(&self) -> Result<Phases, CallError> {
        let body = self.client.profile_rollup()?;
        let tree = json::parse_line(&body)
            .and_then(|v| {
                let obj = json::as_obj(&v)?;
                ProfileTree::from_json(&json::render(json::get(obj, "profile")?))
            })
            .map_err(|message| CallError {
                refused: false,
                message,
            })?;
        Ok(Phases::from_tree(&tree))
    }

    /// The daemon's data directory (journal and per-job artifacts).
    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Drains and joins every daemon thread.
    pub fn stop(self) -> Result<(), String> {
        let drained = self.client.shutdown().map_err(|e| e.to_string());
        self.handle.join();
        drained
    }
}

fn trace_bounds(doc: &str) -> Result<(f64, f64), String> {
    let top = json::parse_line(doc.trim())?;
    let events = match json::get(json::as_obj(&top)?, "traceEvents")? {
        Json::Arr(items) => items,
        _ => return Err("traceEvents is not an array".into()),
    };
    let mut golden_start = None;
    let mut last_end: Option<u64> = None;
    for item in events {
        let ev = json::as_obj(item)?;
        let ts = json::get_u64(ev, "ts")?;
        let end = ts + json::get_u64(ev, "dur")?;
        match json::get_str(ev, "name")? {
            "golden" => golden_start = Some(ts),
            "injection" => last_end = Some(last_end.map_or(end, |e| e.max(end))),
            _ => {}
        }
    }
    match (golden_start, last_end) {
        (Some(g), Some(e)) => Ok((g as f64, e as f64)),
        _ => Err("trace lacks a golden or an injection span".into()),
    }
}
