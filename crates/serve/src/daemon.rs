//! The campaign daemon: a persistent worker pool behind an HTTP API.
//!
//! ## Architecture
//!
//! The daemon answers its routes on the shared HTTP plane
//! ([`crate::http::serve`]) until it is stopped, or drained with no job
//! outstanding; then it closes the queue. The change that ends it (a
//! stop, `POST /shutdown` on an idle daemon, the last outstanding job
//! ending under drain) wakes the blocked accept ([`crate::http::wake`]). A fixed pool of job workers
//! blocks on the [`JobQueue`]; each claimed job runs as a normal
//! [`Campaign`] with the runner's own internal parallelism, a
//! cooperative cancel flag, a per-job [`MetricsRegistry`] (folded into
//! the daemon-wide registry when the job ends) and the daemon's shared
//! [`GoldenCache`], so identical specs skip their golden phase.
//!
//! ## Durability
//!
//! Every state transition is appended to the crash-safe [`Journal`];
//! each job's injection records stream to its own checkpoint file. A
//! daemon restarted on the same data directory re-enqueues jobs that
//! were submitted or running when it died, and the checkpoint/event
//! machinery guarantees no injection index is recomputed or duplicated.
//!
//! ## Data layout
//!
//! ```text
//! <data_dir>/journal.jsonl                 job-state journal
//! <data_dir>/jobs/<id>/checkpoint.jsonl    streaming injection records
//! <data_dir>/jobs/<id>/events.jsonl        obs event stream
//! <data_dir>/jobs/<id>/result.json         canonical summary (when done)
//! <data_dir>/jobs/<id>/metrics.json        job metrics snapshot
//! <data_dir>/jobs/<id>/trace.json          Chrome trace-event timeline
//! <data_dir>/jobs/<id>/profile.json        hierarchical phase profile
//! ```
//!
//! ## Live analytics
//!
//! While (and after) a job runs, its event stream is consumable three
//! ways: `GET /jobs/:id/stream` tails it as Server-Sent Events
//! (resumable via `Last-Event-ID`, see [`crate::live`]; the tail
//! sleeps on the job's [`Notifier`], which the job's event writer bumps
//! per written-through block and the worker bumps at the terminal
//! state),
//! `GET /jobs/:id/analytics` folds it into a
//! [`CriticalityAggregator`](radcrit_obs::CriticalityAggregator)
//! snapshot, and `GET /analytics` merges every job's fold into a
//! daemon-wide rollup. `GET /dashboard` serves the self-contained HTML
//! page in [`crate::dashboard`] that renders all of it live.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use radcrit_campaign::golden::GoldenCache;
use radcrit_campaign::{Campaign, RunOptions};
use radcrit_obs::{
    AlertConfig, AlertEngine, HealthSample, MetricsRegistry, Notifier, TraceRecorder,
};

use crate::error::ServeError;
use crate::http::{self, respond, Request};
use crate::journal::{job_id, job_number, JobState, Journal};
use crate::queue::{JobQueue, PushError};
use crate::spec::JobSpec;

/// How a daemon is launched.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Data directory for journal and job artifacts.
    pub data_dir: PathBuf,
    /// Concurrent jobs (the pool size). Each job still parallelizes
    /// internally per its spec's `workers`.
    pub pool: usize,
    /// Maximum queued (not yet running) jobs before `429`.
    pub queue_depth: usize,
    /// Byte budget of the shared golden cache.
    pub cache_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            data_dir: PathBuf::from("radcrit-serve-data"),
            pool: 2,
            queue_depth: 64,
            cache_bytes: GoldenCache::DEFAULT_BYTES,
        }
    }
}

/// One job's in-memory state.
#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    cancel: Arc<AtomicBool>,
    /// Bumped by the job's event writer and at its terminal state; the
    /// job's SSE tails wait on it.
    notify: Arc<Notifier>,
}

impl JobEntry {
    fn new(spec: JobSpec, state: JobState) -> Self {
        JobEntry {
            spec,
            state,
            cancel: Arc::new(AtomicBool::new(false)),
            notify: Arc::new(Notifier::new()),
        }
    }
}

/// Shared daemon state.
#[derive(Debug)]
struct Core {
    config: DaemonConfig,
    /// The listener's address, for waking its blocked accept.
    addr: SocketAddr,
    jobs: Mutex<BTreeMap<String, JobEntry>>,
    next_job: AtomicU64,
    queue: JobQueue,
    journal: Mutex<Journal>,
    cache: Arc<GoldenCache>,
    metrics: Arc<MetricsRegistry>,
    /// Jobs submitted but not yet terminal (queue depth + running).
    outstanding: AtomicUsize,
    /// Workers currently inside `run_job` (for the busy/idle gauges).
    busy: AtomicUsize,
    /// Set by `POST /shutdown`: refuse new jobs, drain, then exit.
    draining: AtomicBool,
    /// Set when the accept loop should exit.
    stop: AtomicBool,
    /// Testing hook: pretend the process died — skip terminal journal
    /// writes and result files for in-flight jobs.
    abrupt: AtomicBool,
    /// Process-wide trace epoch: every job trace measures its
    /// timestamps from this instant, and `/healthz` reports `now_us`
    /// on the same timeline so a coordinator can estimate this clock's
    /// offset from heartbeat round-trips.
    epoch: Instant,
    /// Daemon-local health rules (queue saturation is the daemon-level
    /// signal; fleet rules live on the coordinator). Evaluated lazily
    /// at `/alerts` and `/metrics` scrape time.
    alerts: Mutex<AlertEngine>,
}

impl Core {
    /// Whether the accept loop should go on: not stopped, and not
    /// drained with no job outstanding.
    fn running(&self) -> bool {
        let drained =
            self.draining.load(Ordering::SeqCst) && self.outstanding.load(Ordering::SeqCst) == 0;
        !self.stop.load(Ordering::SeqCst) && !drained
    }

    /// Wakes the accept loop once [`Core::running`] has turned false.
    /// Call after every change that can turn it: a stop, a drain, the
    /// end of an outstanding job.
    fn wake_if_stopped(&self) {
        if !self.running() {
            http::wake(self.addr);
        }
    }

    /// Counts one outstanding job as ended.
    fn release(&self) {
        self.outstanding.fetch_sub(1, Ordering::SeqCst);
        self.wake_if_stopped();
    }
}

/// A running daemon: its address plus the thread handles to join.
#[derive(Debug)]
pub struct DaemonHandle {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon exits (a client must `POST /shutdown`).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Testing hook: stop like a crash. In-flight jobs are interrupted
    /// via their cancel flags but no terminal state is journaled and no
    /// result file is written — exactly what a `kill -9` leaves behind.
    /// A daemon restarted on the same data directory must resume them.
    pub fn shutdown_abrupt(mut self) {
        self.core.abrupt.store(true, Ordering::SeqCst);
        self.core.stop.store(true, Ordering::SeqCst);
        self.core.wake_if_stopped();
        self.core.queue.close();
        for entry in self.core.jobs.lock().expect("jobs lock").values() {
            entry.cancel.store(true, Ordering::SeqCst);
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Starts a daemon from `config`.
///
/// # Errors
///
/// [`ServeError::Io`] when the data directory or listener cannot be set
/// up, [`ServeError::Protocol`] when the journal is corrupt.
pub fn start(config: DaemonConfig) -> Result<DaemonHandle, ServeError> {
    std::fs::create_dir_all(config.data_dir.join("jobs"))
        .map_err(|e| ServeError::Io(format!("data dir {}: {e}", config.data_dir.display())))?;
    let (journal, replayed) = Journal::open(&config.data_dir.join("journal.jsonl"))?;

    let queue = JobQueue::new(config.queue_depth);
    let mut jobs = BTreeMap::new();
    let mut next = 1u64;
    let mut outstanding = 0usize;
    for job in replayed {
        next = next.max(job_number(&job.id).map_or(next, |n| n + 1));
        let state = match job.state {
            // In-flight when the previous daemon died: queue it again.
            // The campaign checkpoint replays finished indices, so the
            // rerun only computes what is missing.
            JobState::Submitted | JobState::Running => {
                // Unbounded on purpose: up to queue_depth + pool jobs can
                // be non-terminal at crash time (and this restart may use
                // a smaller depth); already-accepted work is never shed.
                queue.push_unbounded(&job.id, job.priority);
                outstanding += 1;
                JobState::Submitted
            }
            terminal => terminal,
        };
        jobs.insert(job.id.clone(), JobEntry::new(job.spec, state));
    }

    let (listener, addr) = http::bind(&config.addr)?;

    let pool = config.pool.max(1);
    let alerts = AlertEngine::new(AlertConfig {
        queue_capacity: Some(config.queue_depth as u64),
        ..AlertConfig::default()
    });
    let core = Arc::new(Core {
        cache: Arc::new(GoldenCache::new(config.cache_bytes)),
        config,
        addr,
        jobs: Mutex::new(jobs),
        next_job: AtomicU64::new(next),
        queue,
        journal: Mutex::new(journal),
        metrics: Arc::new(MetricsRegistry::new()),
        outstanding: AtomicUsize::new(outstanding),
        busy: AtomicUsize::new(0),
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        abrupt: AtomicBool::new(false),
        epoch: Instant::now(),
        alerts: Mutex::new(alerts),
    });

    // The host's SIMD dispatch is fixed for the daemon's lifetime
    // (`RADCRIT_FORCE_SCALAR=1` pins it to scalar for every job): log
    // it once and expose it as a labelled constant gauge for
    // fleet-wide scrapes.
    let isa = radcrit_core::exec::active();
    eprintln!("radcrit-serve: listening on {addr}, simd isa {isa}");
    core.metrics
        .gauge_set("radcrit_simd_isa", &[("isa", isa.name())], 1.0);

    let workers = (0..pool)
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker_loop(&core))
        })
        .collect();
    let accept = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || {
            let handler = Arc::clone(&core);
            http::serve(
                &listener,
                || core.running(),
                move |stream, req, segments| route(&handler, stream, req, segments),
            );
            // Stopped or drained: release the workers.
            core.queue.close();
        })
    };

    Ok(DaemonHandle {
        core,
        addr,
        accept: Some(accept),
        workers,
    })
}

fn worker_loop(core: &Arc<Core>) {
    while let Some(id) = core.queue.pop() {
        // Claim: only still-submitted jobs run (a queued job may have
        // been cancelled between push and pop).
        let claimed = {
            let mut jobs = core.jobs.lock().expect("jobs lock");
            match jobs.get_mut(&id) {
                Some(e) if e.state == JobState::Submitted => {
                    e.state = JobState::Running;
                    Some((e.spec.clone(), Arc::clone(&e.cancel), Arc::clone(&e.notify)))
                }
                _ => None,
            }
        };
        let Some((spec, cancel, notify)) = claimed else {
            continue;
        };
        journal_append(core, &id, &JobState::Running, None);

        core.busy.fetch_add(1, Ordering::SeqCst);
        let outcome = run_job(core, &id, &spec, &cancel, &notify);
        core.busy.fetch_sub(1, Ordering::SeqCst);

        if core.abrupt.load(Ordering::SeqCst) {
            // Crash simulation: die without the terminal journal write.
            continue;
        }
        let terminal = match outcome {
            Ok(true) => JobState::Done,
            Ok(false) => JobState::Cancelled,
            Err(e) => JobState::Failed(e.to_string()),
        };
        core.metrics.counter_add(
            "radcrit_serve_jobs_total",
            &[("state", terminal.wire_name())],
            1,
        );
        journal_append(core, &id, &terminal, None);
        core.jobs
            .lock()
            .expect("jobs lock")
            .get_mut(&id)
            .expect("claimed job exists")
            .state = terminal;
        // `result.json` is written by now: a tail that ends on this
        // bump can fetch the result at once.
        notify.bump();
        core.release();
    }
}

/// Runs one job to completion (or cancellation). Returns whether every
/// injection finished.
fn run_job(
    core: &Arc<Core>,
    id: &str,
    spec: &JobSpec,
    cancel: &Arc<AtomicBool>,
    notify: &Arc<Notifier>,
) -> Result<bool, ServeError> {
    let path = |name: &str| job_path(core, id, name);
    let checkpoint = path("checkpoint.jsonl");
    let job_dir = checkpoint.parent().expect("a job artifact has a directory");
    std::fs::create_dir_all(job_dir)
        .map_err(|e| ServeError::Io(format!("job dir {}: {e}", job_dir.display())))?;
    let campaign: Campaign = spec.campaign()?;
    let job_metrics = Arc::new(MetricsRegistry::new());
    let options = RunOptions {
        resume: checkpoint.exists(),
        checkpoint: Some(checkpoint),
        events_out: Some(path("events.jsonl")),
        events_sample: spec.events_sample,
        trace_out: Some(path("trace.json")),
        // The job's timeline lives on the daemon-wide epoch, tagged with
        // a federated shard's trace context, so a coordinator can rebase
        // and merge it into one fleet trace.
        trace: Some(Arc::new(
            TraceRecorder::with_epoch(core.epoch).with_context(spec.trace.clone()),
        )),
        profile_out: Some(path("profile.json")),
        golden_cache: Some(Arc::clone(&core.cache)),
        cancel: Some(Arc::clone(cancel)),
        metrics: Some(Arc::clone(&job_metrics)),
        shard: spec.shard,
        notify: Some(Arc::clone(notify)),
        ..RunOptions::default()
    };
    let result = campaign
        .run_with(&options)
        .map_err(|e| ServeError::Io(format!("campaign: {e}")));

    // Fold the job's metrics into the daemon-wide registry whatever the
    // outcome — failed jobs still spent engine time.
    core.metrics.merge_snapshot(&job_metrics.snapshot());

    let result = result?;
    if !result.is_complete() {
        return Ok(false);
    }
    if core.abrupt.load(Ordering::SeqCst) {
        // Simulated crash between finishing and persisting: the restart
        // replays the checkpoint and rewrites these.
        return Ok(true);
    }
    let summary = result.summary();
    let write = |name: &str, text: String| -> Result<(), ServeError> {
        let path = path(name);
        std::fs::write(&path, text).map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))
    };
    write("result.json", format!("{}\n", summary.to_json()))?;
    write(
        "metrics.json",
        format!("{}\n", job_metrics.snapshot().to_json()),
    )?;
    Ok(true)
}

fn journal_append(
    core: &Arc<Core>,
    id: &str,
    state: &JobState,
    submission: Option<(&JobSpec, crate::spec::Priority)>,
) {
    if let Err(e) = core
        .journal
        .lock()
        .expect("journal lock")
        .append(id, state, submission)
    {
        eprintln!("radcrit-serve: journal write failed: {e}");
    }
}

// ---------------------------------------------------------------------
// HTTP routes
// ---------------------------------------------------------------------

/// `<data_dir>/jobs/<id>/<name>`: where job `id` keeps artifact `name`.
fn job_path(core: &Core, id: &str, name: &str) -> PathBuf {
    core.config.data_dir.join("jobs").join(id).join(name)
}

/// The daemon's own routes; everything else goes to [`http::fallback`].
fn route(
    core: &Arc<Core>,
    stream: &mut TcpStream,
    req: &Request,
    segments: &[&str],
) -> Result<(), ServeError> {
    match (req.method.as_str(), segments) {
        ("POST", ["jobs"]) => post_job(core, stream, &req.body),
        ("GET", ["jobs"]) => get_jobs(core, stream),
        ("GET", ["jobs", id]) => get_status(core, stream, id),
        ("GET", ["jobs", id, "result"]) => get_result(core, stream, id),
        ("GET", ["jobs", id, "events"]) => {
            if known_job(core, stream, id)?.is_none() {
                return Ok(());
            }
            let path = job_path(core, id, "events.jsonl");
            http::respond_file(stream, &path, "no events yet")
        }
        ("GET", ["jobs", id, "stream"]) => get_stream(core, stream, id, req),
        ("GET", ["jobs", id, "analytics"]) => get_analytics(core, stream, id),
        ("GET", ["jobs", id, "trace"]) => {
            get_artifact(core, stream, id, "trace.json", "no trace yet")
        }
        ("GET", ["jobs", id, "profile"]) => {
            get_artifact(core, stream, id, "profile.json", "no profile yet")
        }
        // One finished job's metrics snapshot (the JSON the coordinator
        // pulls per shard to build its labelled federation-wide
        // exposition).
        ("GET", ["jobs", id, "metrics"]) => {
            get_artifact(core, stream, id, "metrics.json", "no metrics yet")
        }
        ("POST", ["jobs", id, "cancel"]) => post_cancel(core, stream, id),
        ("GET", ["analytics"]) => get_rollup(core, stream),
        ("GET", ["profile"]) => get_profile_rollup(core, stream),
        ("GET", ["metrics"]) => get_metrics(core, stream),
        ("GET", ["alerts"]) => {
            evaluate_alerts(core);
            let body = core.alerts.lock().expect("alerts lock").to_json();
            respond(stream, 200, "application/json", &body)
        }
        ("GET", ["healthz"]) => get_healthz(core, stream),
        ("POST", ["shutdown"]) => {
            core.draining.store(true, Ordering::SeqCst);
            let answered = respond(stream, 200, "application/json", "{\"draining\":true}");
            core.wake_if_stopped();
            answered
        }
        _ => http::fallback(stream, req, segments),
    }
}

/// The state of job `id`, or `None` once `404 unknown job` is answered.
fn known_job(
    core: &Core,
    stream: &mut TcpStream,
    id: &str,
) -> Result<Option<JobState>, ServeError> {
    let state = {
        let jobs = core.jobs.lock().expect("jobs lock");
        jobs.get(id).map(|e| e.state.clone())
    };
    if state.is_none() {
        http::respond_error(stream, 404, "unknown job")?;
    }
    Ok(state)
}

/// Enriched liveness: `"ok":true` stays the first key so plain-text
/// consumers (`curl | grep '"ok":true'`) keep working; `now_us` is the
/// daemon's trace-epoch clock the coordinator probes for offset
/// estimation.
fn get_healthz(core: &Core, stream: &mut TcpStream) -> Result<(), ServeError> {
    let busy = core.busy.load(Ordering::SeqCst);
    let pool = core.config.pool.max(1);
    // The daemon's trace epoch is its start time, so uptime and the
    // trace-timeline clock are the same number.
    let now_us = core.epoch.elapsed().as_micros();
    let body = format!(
        "{{\"ok\":true,\"version\":\"{}\",\"isa\":\"{}\",\"uptime_us\":{now_us},\
         \"now_us\":{now_us},\"workers_busy\":{busy},\"workers_idle\":{},\
         \"queue_depth\":{},\"outstanding\":{},\"draining\":{}}}",
        env!("CARGO_PKG_VERSION"),
        radcrit_core::exec::active().name(),
        pool.saturating_sub(busy),
        core.queue.len(),
        core.outstanding.load(Ordering::SeqCst),
        core.draining.load(Ordering::SeqCst),
    );
    respond(stream, 200, "application/json", &body)
}

fn post_job(core: &Arc<Core>, stream: &mut TcpStream, body: &str) -> Result<(), ServeError> {
    const DRAINING: &str = "draining: the daemon is shutting down";
    if core.draining.load(Ordering::SeqCst) {
        return http::respond_error(stream, 503, DRAINING);
    }
    let spec = match JobSpec::parse(body) {
        Ok(s) => s,
        Err(e) => return http::respond_error(stream, 400, &e.to_string()),
    };
    // Reserve the id and register the job *before* queueing it, so a
    // worker can never pop an id the map does not know yet.
    let id = job_id(core.next_job.fetch_add(1, Ordering::SeqCst));
    core.jobs
        .lock()
        .expect("jobs lock")
        .insert(id.clone(), JobEntry::new(spec.clone(), JobState::Submitted));
    core.outstanding.fetch_add(1, Ordering::SeqCst);
    // The Submitted record (the only one carrying the spec) must hit the
    // journal *before* the id becomes poppable: an idle worker claims a
    // pushed job immediately and appends its Running record, and replay
    // needs the spec-bearing record first. A refused push is compensated
    // below with a terminal Cancelled record.
    journal_append(
        core,
        &id,
        &JobState::Submitted,
        Some((&spec, spec.priority)),
    );
    match core.queue.push(&id, spec.priority) {
        Ok(()) => {
            core.metrics
                .counter_add("radcrit_serve_jobs_submitted_total", &[], 1);
            let body = format!("{{\"job\":\"{id}\",\"status\":\"submitted\"}}");
            respond(stream, 202, "application/json", &body)
        }
        Err(refusal) => {
            // Only unwind if a concurrent cancel has not already turned
            // the entry terminal (it journals and decrements itself).
            let still_submitted = {
                let mut jobs = core.jobs.lock().expect("jobs lock");
                match jobs.get(&id) {
                    Some(e) if e.state == JobState::Submitted => {
                        jobs.remove(&id);
                        true
                    }
                    _ => false,
                }
            };
            if still_submitted {
                journal_append(core, &id, &JobState::Cancelled, None);
                core.release();
            }
            match refusal {
                PushError::Full => http::respond_error(stream, 429, "queue full: retry later"),
                PushError::Closed => http::respond_error(stream, 503, DRAINING),
            }
        }
    }
}

fn get_status(core: &Core, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    let Some(state) = known_job(core, stream, id)? else {
        return Ok(());
    };
    let mut body = format!("{{\"job\":\"{id}\",\"status\":\"{}\"", state.wire_name());
    if let JobState::Failed(error) = &state {
        body.push_str(&format!(
            ",\"error\":\"{}\"",
            radcrit_obs::json::escape(error)
        ));
    }
    body.push('}');
    respond(stream, 200, "application/json", &body)
}

fn get_result(core: &Core, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    match known_job(core, stream, id)? {
        None => Ok(()),
        Some(JobState::Done) => match std::fs::read_to_string(job_path(core, id, "result.json")) {
            Ok(body) => respond(stream, 200, "application/json", &body),
            Err(e) => http::respond_error(stream, 500, &format!("result missing: {e}")),
        },
        Some(JobState::Failed(error)) => {
            http::respond_error(stream, 409, &format!("job failed: {error}"))
        }
        Some(state) => http::respond_error(
            stream,
            409,
            &format!("job is {}, result not available", state.wire_name()),
        ),
    }
}

fn get_jobs(core: &Core, stream: &mut TcpStream) -> Result<(), ServeError> {
    let jobs = core.jobs.lock().expect("jobs lock");
    let rows: Vec<String> = jobs
        .iter()
        .map(|(id, e)| {
            format!(
                "{{\"job\":\"{id}\",\"status\":\"{}\"}}",
                e.state.wire_name()
            )
        })
        .collect();
    drop(jobs);
    let body = format!("{{\"jobs\":[{}]}}", rows.join(","));
    respond(stream, 200, "application/json", &body)
}

fn get_stream(
    core: &Core,
    stream: &mut TcpStream,
    id: &str,
    req: &Request,
) -> Result<(), ServeError> {
    let notify = {
        let jobs = core.jobs.lock().expect("jobs lock");
        jobs.get(id).map(|e| Arc::clone(&e.notify))
    };
    let Some(notify) = notify else {
        return http::respond_error(stream, 404, "unknown job");
    };
    let path = job_path(core, id, "events.jsonl");
    crate::live::serve_stream(
        stream,
        &path,
        req,
        &|| {
            // A job deleted mid-stream (never happens today) ends the
            // tail rather than waiting forever.
            let jobs = core.jobs.lock().expect("jobs lock");
            jobs.get(id).is_none_or(|e| e.state.is_terminal())
        },
        &notify,
    )
}

fn get_analytics(core: &Core, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    if known_job(core, stream, id)?.is_none() {
        return Ok(());
    }
    let path = job_path(core, id, "events.jsonl");
    if !path.exists() {
        return http::respond_error(stream, 404, "no events yet");
    }
    match crate::live::fold_events_file(&path) {
        Ok(agg) => respond(stream, 200, "application/json", &agg.to_json()),
        Err(e) => http::respond_error(stream, 500, &e.to_string()),
    }
}

/// A job's fixed-length JSON artifact `name`, or `404 <missing>` while
/// the job has not written it.
fn get_artifact(
    core: &Core,
    stream: &mut TcpStream,
    id: &str,
    name: &str,
    missing: &str,
) -> Result<(), ServeError> {
    if known_job(core, stream, id)?.is_none() {
        return Ok(());
    }
    match std::fs::read_to_string(job_path(core, id, name)) {
        Ok(body) => respond(stream, 200, "application/json", &body),
        Err(_) => http::respond_error(stream, 404, missing),
    }
}

/// Offers every known job's artifact `name` to `fold`, which reports
/// whether it folded that file. Returns `(jobs, folded)`.
fn fold_jobs(core: &Core, name: &str, mut fold: impl FnMut(&Path) -> bool) -> (usize, usize) {
    let ids: Vec<String> = core
        .jobs
        .lock()
        .expect("jobs lock")
        .keys()
        .cloned()
        .collect();
    let mut folded = 0;
    for id in &ids {
        folded += usize::from(fold(&job_path(core, id, name)));
    }
    (ids.len(), folded)
}

fn get_rollup(core: &Core, stream: &mut TcpStream) -> Result<(), ServeError> {
    let mut rollup = radcrit_obs::CriticalityAggregator::new();
    let (jobs, folded) = fold_jobs(core, "events.jsonl", |path| {
        crate::live::fold_events_file(path)
            .map(|agg| rollup.merge(&agg))
            .is_ok()
    });
    let body = format!(
        "{{\"jobs\":{jobs},\"folded\":{folded},\"rollup\":{}}}",
        rollup.to_json()
    );
    respond(stream, 200, "application/json", &body)
}

/// Daemon-wide phase profile: every finished job's `profile.json`
/// merged into one tree, plus the top self-time phases the dashboard's
/// hot-phases panel renders directly.
fn get_profile_rollup(core: &Core, stream: &mut TcpStream) -> Result<(), ServeError> {
    let mut merged = radcrit_obs::ProfileTree::new();
    let (jobs, folded) = fold_jobs(core, "profile.json", |path| {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| radcrit_obs::ProfileTree::from_json(&text).ok())
            .map(|tree| merged.merge(&tree))
            .is_some()
    });
    let hot: Vec<String> = merged
        .hot_phases(8)
        .iter()
        .map(|(phase, self_ns, count)| {
            format!(
                "{{\"phase\":\"{}\",\"self_ns\":{self_ns},\"count\":{count}}}",
                radcrit_obs::json::escape(phase)
            )
        })
        .collect();
    let body = format!(
        "{{\"jobs\":{jobs},\"folded\":{folded},\"hot\":[{}],\"profile\":{}}}",
        hot.join(","),
        merged.to_json()
    );
    respond(stream, 200, "application/json", &body)
}

fn post_cancel(core: &Arc<Core>, stream: &mut TcpStream, id: &str) -> Result<(), ServeError> {
    let verdict = {
        let mut jobs = core.jobs.lock().expect("jobs lock");
        match jobs.get_mut(id) {
            None => None,
            Some(entry) => match &entry.state {
                JobState::Submitted => {
                    core.queue.remove(id);
                    entry.state = JobState::Cancelled;
                    entry.notify.bump();
                    Some(("cancelled", true))
                }
                JobState::Running => {
                    // Cooperative: the worker notices the flag, stops
                    // dispatching, and journals the terminal state.
                    entry.cancel.store(true, Ordering::SeqCst);
                    Some(("cancelling", false))
                }
                terminal => Some((terminal.wire_name(), false)),
            },
        }
    };
    let Some((status, was_queued)) = verdict else {
        return http::respond_error(stream, 404, "unknown job");
    };
    if was_queued {
        journal_append(core, id, &JobState::Cancelled, None);
        core.metrics
            .counter_add("radcrit_serve_jobs_total", &[("state", "cancelled")], 1);
        core.release();
    }
    let body = format!("{{\"job\":\"{id}\",\"status\":\"{status}\"}}");
    respond(stream, 200, "application/json", &body)
}

/// Feeds the daemon's health rules one fresh sample (queue depth is the
/// daemon-level signal; the fleet rules stay idle without coordinator
/// inputs) and publishes the edges and rule states.
fn evaluate_alerts(core: &Core) {
    let sample = HealthSample {
        queue_depth: Some(core.queue.len() as u64),
        ..HealthSample::default()
    };
    let mut engine = core.alerts.lock().expect("alerts lock");
    let edges = engine.observe(Instant::now(), sample);
    engine.publish(&edges, &core.metrics);
}

fn get_metrics(core: &Core, stream: &mut TcpStream) -> Result<(), ServeError> {
    evaluate_alerts(core);
    // Scrape-time gauges: queue, worker occupancy and cache residency.
    let m = &core.metrics;
    let queued = core.queue.len();
    let busy = core.busy.load(Ordering::SeqCst);
    let pool = core.config.pool.max(1);
    m.gauge_set("radcrit_queue_depth", &[], queued as f64);
    m.gauge_set("radcrit_workers_busy", &[], busy as f64);
    m.gauge_set(
        "radcrit_workers_idle",
        &[],
        pool.saturating_sub(busy) as f64,
    );
    m.gauge_set("radcrit_serve_queue_depth", &[], queued as f64);
    m.gauge_set(
        "radcrit_serve_outstanding_jobs",
        &[],
        core.outstanding.load(Ordering::SeqCst) as f64,
    );
    let cache = core.cache.stats();
    m.gauge_set("radcrit_golden_cache_entries", &[], cache.entries as f64);
    m.gauge_set("radcrit_golden_cache_bytes", &[], cache.bytes as f64);
    respond(
        stream,
        200,
        "text/plain; version=0.0.4",
        &m.snapshot().to_prometheus(),
    )
}
