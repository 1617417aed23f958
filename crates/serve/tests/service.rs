//! End-to-end service tests: parallel submissions against a live daemon,
//! bit-for-bit parity with the direct CLI path, cancellation freeing the
//! worker pool, and crash (abrupt stop) → restart resumption without
//! duplicate injection indices.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use radcrit_campaign::{KernelSpec, RunOptions};
use radcrit_obs::event::parse_event_line;
use radcrit_serve::daemon::{self, DaemonConfig};
use radcrit_serve::{Client, DeviceKind, JobSpec};

fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("radcrit-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn config(dir: &std::path::Path, pool: usize) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        pool,
        queue_depth: 16,
        ..DaemonConfig::default()
    }
}

/// A small DGEMM campaign on the scaled K40 (the sweep-test idiom).
fn dgemm_spec(n: usize, injections: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n }, injections, seed);
    spec.scale = 8;
    spec.workers = 2;
    spec
}

/// What the direct (non-daemon) path produces for this spec.
fn direct_summary_json(spec: &JobSpec) -> String {
    let summary = spec
        .campaign()
        .unwrap()
        .run_with(&RunOptions::default())
        .unwrap()
        .summary();
    format!("{}\n", summary.to_json())
}

const POLL: Duration = Duration::from_millis(100);
const WAIT: Duration = Duration::from_secs(120);

#[test]
fn parallel_jobs_match_direct_runs_bit_for_bit() {
    let dir = temp_dir("parallel");
    let handle = daemon::start(config(&dir, 3)).unwrap();
    let client = Client::new(handle.addr().to_string());

    // Four concurrent jobs with distinct science; results must not
    // interleave — each must equal its own direct run exactly.
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| dgemm_spec(32, 20 + i, 40 + i as u64))
        .collect();
    let ids: Vec<String> = specs.iter().map(|s| client.submit(s).unwrap()).collect();
    assert_eq!(ids.len(), 4);
    for (id, spec) in ids.iter().zip(&specs) {
        let status = client.wait(id, POLL, WAIT).unwrap();
        assert_eq!(status.state, "done", "{id}: {:?}", status.error);
        assert_eq!(
            client.result(id).unwrap(),
            direct_summary_json(spec),
            "served result of {id} must be bit-identical to the direct path"
        );
    }

    // Resubmitting an identical spec hits the shared golden cache and
    // still produces the identical summary.
    let again = client.submit(&specs[0]).unwrap();
    assert_eq!(client.wait(&again, POLL, WAIT).unwrap().state, "done");
    assert_eq!(
        client.result(&again).unwrap(),
        direct_summary_json(&specs[0])
    );

    let metrics = client.metrics().unwrap();
    assert!(
        metrics.contains("radcrit_golden_cache_hits_total"),
        "cache hit counter missing from:\n{metrics}"
    );
    assert!(metrics.contains("radcrit_serve_jobs_submitted_total"));
    // The cached golden entry carries snapshots, so jobs fork injections
    // off golden-prefix state instead of re-executing from tile 0.
    assert!(
        metrics.contains("radcrit_engine_forked_runs_total"),
        "forked-run counter missing from:\n{metrics}"
    );
    assert!(
        metrics.contains("radcrit_snapshot_bytes"),
        "snapshot byte gauge missing from:\n{metrics}"
    );
    // Prometheus exposition: every non-comment line is `name{...} value`.
    for line in metrics
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line.rsplit_once(' ').expect("name value pair");
        value.parse::<f64>().expect("numeric sample value");
    }

    // Graceful drain: the daemon finishes everything and exits.
    client.shutdown().unwrap();
    handle.join();
    assert!(client.healthz().is_err(), "daemon must be gone after drain");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cancelling_a_running_job_frees_the_worker() {
    let dir = temp_dir("cancel");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());

    // A job long enough to still be running when the cancel arrives.
    let long = client.submit(&dgemm_spec(64, 200_000, 9)).unwrap();
    let deadline = Instant::now() + WAIT;
    while client.status(&long).unwrap().state != "running" {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(POLL);
    }
    assert_eq!(client.cancel(&long).unwrap(), "cancelling");
    let status = client.wait(&long, POLL, WAIT).unwrap();
    assert_eq!(status.state, "cancelled");

    // The single worker must now be free for new work.
    let small = client.submit(&dgemm_spec(32, 10, 10)).unwrap();
    assert_eq!(client.wait(&small, POLL, WAIT).unwrap().state, "done");

    // Cancelling a finished job is a no-op reported as its final state.
    assert_eq!(client.cancel(&small).unwrap(), "done");

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abrupt_stop_then_restart_resumes_without_duplicate_indices() {
    let dir = temp_dir("restart");
    let total = 2000usize;
    let spec = dgemm_spec(32, total, 77);

    // First daemon: submit, wait for checkpoint progress, then die hard.
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&spec).unwrap();
    let job_dir = dir.join("jobs").join(&id);
    let checkpoint = job_dir.join("checkpoint.jsonl");
    let deadline = Instant::now() + WAIT;
    loop {
        let records = std::fs::read_to_string(&checkpoint)
            .map(|t| t.lines().count().saturating_sub(1))
            .unwrap_or(0);
        if records >= 5 {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.shutdown_abrupt();
    assert!(
        !job_dir.join("result.json").exists(),
        "a crashed daemon must not have persisted a result"
    );
    let checkpointed = std::fs::read_to_string(&checkpoint)
        .unwrap()
        .lines()
        .count()
        .saturating_sub(1);
    assert!(
        checkpointed >= 5 && checkpointed < total,
        "the crash must interrupt a genuinely partial run, got {checkpointed}/{total}"
    );

    // Second daemon on the same data directory: the journaled job is
    // re-enqueued and completes from the checkpoint.
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let status = client.wait(&id, POLL, WAIT).unwrap();
    assert_eq!(status.state, "done", "{:?}", status.error);
    assert_eq!(
        client.result(&id).unwrap(),
        direct_summary_json(&spec),
        "resumed result must be bit-identical to an uninterrupted run"
    );

    // The resumed run must have replayed the checkpointed records, not
    // recomputed them: the runner counts them into this daemon metric.
    let metrics = client.metrics().unwrap();
    let replayed = metrics
        .lines()
        .find_map(|l| l.strip_prefix("radcrit_campaign_replayed_total"))
        .and_then(|rest| rest.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("replayed counter missing from:\n{metrics}"));
    assert!(
        replayed as usize >= checkpointed,
        "expected >= {checkpointed} replayed records, metric says {replayed}"
    );

    // The PR 2 invariant, now across a process "crash": every injection
    // index owns exactly one terminal event (provenance or replay).
    let events = std::fs::read_to_string(job_dir.join("events.jsonl")).unwrap();
    let mut terminal: HashMap<u64, Vec<String>> = HashMap::new();
    for line in events.lines() {
        let event = parse_event_line(line).unwrap();
        if event.kind == "provenance" || event.kind == "replay" {
            terminal
                .entry(event.index.expect("terminal event without index"))
                .or_default()
                .push(event.kind.clone());
        }
    }
    for index in 0..total as u64 {
        let kinds = terminal
            .get(&index)
            .unwrap_or_else(|| panic!("index {index} missing from the event stream"));
        assert_eq!(
            kinds.len(),
            1,
            "index {index} must appear exactly once, got {kinds:?}"
        );
    }
    assert_eq!(terminal.len(), total, "no stray indices");

    // The served event stream equals the on-disk one.
    assert_eq!(client.events(&id).unwrap(), events);

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_resumes_more_inflight_jobs_than_the_queue_depth() {
    // At crash time up to queue_depth + pool jobs are non-terminal, and
    // a restart may even use a smaller --queue-depth; replay must
    // re-enqueue all of them rather than panic on a full queue.
    let dir = temp_dir("replay-depth");
    std::fs::create_dir_all(dir.join("jobs")).unwrap();
    let journal_path = dir.join("journal.jsonl");
    let specs: Vec<JobSpec> = (0..4)
        .map(|i| dgemm_spec(32, 5 + i, 60 + i as u64))
        .collect();
    {
        let (mut journal, _) = radcrit_serve::Journal::open(&journal_path).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            journal
                .append(
                    &radcrit_serve::journal::job_id(i as u64 + 1),
                    &radcrit_serve::JobState::Submitted,
                    Some((spec, spec.priority)),
                )
                .unwrap();
        }
    }

    let handle = daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        pool: 2,
        queue_depth: 1, // smaller than the 4 journaled in-flight jobs
        ..DaemonConfig::default()
    })
    .unwrap();
    let client = Client::new(handle.addr().to_string());
    for i in 0..specs.len() as u64 {
        let id = radcrit_serve::journal::job_id(i + 1);
        let status = client.wait(&id, POLL, WAIT).unwrap();
        assert_eq!(status.state, "done", "{id}: {:?}", status.error);
    }
    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backpressure_and_draining_refuse_new_jobs() {
    let dir = temp_dir("backpressure");
    let handle = daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.clone(),
        pool: 1,
        queue_depth: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let client = Client::new(handle.addr().to_string());

    // Occupy the worker, fill the queue, then overflow it.
    let running = client.submit(&dgemm_spec(64, 200_000, 1)).unwrap();
    let deadline = Instant::now() + WAIT;
    while client.status(&running).unwrap().state != "running" {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(POLL);
    }
    let queued = client.submit(&dgemm_spec(32, 10, 2)).unwrap();
    let overflow = client.submit(&dgemm_spec(32, 10, 3));
    match overflow {
        Err(radcrit_serve::ServeError::Http { status, .. }) => assert_eq!(status, 429),
        other => panic!("expected 429 backpressure, got {other:?}"),
    }

    // A draining daemon refuses new work with 503 but finishes the rest.
    client.shutdown().unwrap();
    match client.submit(&dgemm_spec(32, 10, 4)) {
        Err(radcrit_serve::ServeError::Http { status, .. }) => assert_eq!(status, 503),
        other => panic!("expected 503 while draining, got {other:?}"),
    }
    // Best-effort cancel of the long job to keep the drain quick; the
    // daemon may already have finished everything and exited, in which
    // case the connection error is fine.
    let _ = client.cancel(&running);
    handle.join();
    // The queued job completed during the drain.
    assert!(
        dir.join("jobs").join(&queued).join("result.json").exists(),
        "queued job must finish during a graceful drain"
    );
    std::fs::remove_dir_all(&dir).ok();
}
