//! End-to-end service tests: parallel submissions against a live daemon,
//! bit-for-bit parity with the direct CLI path, cancellation freeing the
//! worker pool, and crash (abrupt stop) → restart resumption without
//! duplicate injection indices.

mod common;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use common::{config, dgemm_spec, temp_dir};
use radcrit_campaign::RunOptions;
use radcrit_obs::event::parse_event_line;
use radcrit_serve::coord::{self, CoordinatorConfig};
use radcrit_serve::daemon::{self, DaemonConfig};
use radcrit_serve::{Client, JobSpec};

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
        let status = client.wait(id, WAIT).unwrap();
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
    assert_eq!(client.wait(&again, WAIT).unwrap().state, "done");
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
    let status = client.wait(&long, WAIT).unwrap();
    assert_eq!(status.state, "cancelled");

    // The single worker must now be free for new work.
    let small = client.submit(&dgemm_spec(32, 10, 10)).unwrap();
    assert_eq!(client.wait(&small, WAIT).unwrap().state, "done");

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
    let status = client.wait(&id, WAIT).unwrap();
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
        let status = client.wait(&id, WAIT).unwrap();
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

/// Joins `handle` on a helper thread; whether it returned within
/// `timeout`.
fn joins_within(handle: daemon::DaemonHandle, timeout: Duration) -> bool {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(timeout).is_ok()
}

#[test]
fn an_idle_daemon_exits_promptly_on_shutdown() {
    let dir = temp_dir("idle-shutdown");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    client.shutdown().unwrap();
    assert!(
        joins_within(handle, Duration::from_secs(2)),
        "join must return within 2 s of an idle daemon's shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_draining_daemon_exits_when_its_last_job_ends() {
    let dir = temp_dir("drain-exit");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(64, 4000, 5)).unwrap();
    let deadline = Instant::now() + WAIT;
    while client.status(&id).unwrap().state != "running" {
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(POLL);
    }
    client.shutdown().unwrap();
    let health = client.healthz().unwrap();
    assert!(
        health.contains("\"outstanding\":1") && health.contains("\"draining\":true"),
        "the drain must still hold the job: {health}"
    );
    // No further request: the worker that ends the job wakes the exit.
    assert!(
        joins_within(handle, WAIT),
        "a draining daemon must exit when its last job ends"
    );
    assert!(dir.join("jobs").join(&id).join("result.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// Sends `request` verbatim and returns the whole raw response (head and
/// body): every answer is `Connection: close`, so EOF delimits it.
fn raw_exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// The exact bytes of a fixed-length JSON error answer.
fn json_error(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn daemon_and_coordinator_answer_the_shared_routes_byte_for_byte() {
    let dir = temp_dir("wire");
    let daemon = daemon::start(config(&dir.join("daemon"), 1)).unwrap();
    // No workers: the coordinator stays up, serving, with nothing to
    // dispatch.
    let coordinator = coord::start(CoordinatorConfig {
        data_dir: dir.join("coord"),
        ..CoordinatorConfig::new(dgemm_spec(32, 10, 7))
    })
    .unwrap();

    let bad_request = json_error("400 Bad Request", "{\"error\":\"bad request\"}");
    let no_route = json_error("404 Not Found", "{\"error\":\"no such route\"}");
    let not_allowed = json_error(
        "405 Method Not Allowed",
        "{\"error\":\"method not allowed\"}",
    );
    let mut dashboards = Vec::new();
    for addr in [daemon.addr(), coordinator.addr()] {
        assert_eq!(raw_exchange(addr, "NOPE\r\n\r\n"), bad_request, "{addr}");
        assert_eq!(
            raw_exchange(addr, "GET /nope HTTP/1.1\r\n\r\n"),
            no_route,
            "{addr}"
        );
        assert_eq!(
            raw_exchange(addr, "PUT /jobs HTTP/1.1\r\n\r\n"),
            not_allowed,
            "{addr}"
        );
        dashboards.push(raw_exchange(
            addr,
            "GET /dashboard?job=job-000001 HTTP/1.1\r\n\r\n",
        ));
    }
    assert_eq!(dashboards[0], dashboards[1], "one dashboard page");
    assert!(
        dashboards[0].starts_with("HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n"),
        "{}",
        &dashboards[0][..80]
    );
    assert!(dashboards[0].ends_with(radcrit_serve::dashboard::DASHBOARD_HTML));

    // Every per-job route of the daemon answers an unknown id alike.
    let unknown_job = json_error("404 Not Found", "{\"error\":\"unknown job\"}");
    for route in [
        "GET /jobs/job-999999",
        "GET /jobs/job-999999/result",
        "GET /jobs/job-999999/events",
        "GET /jobs/job-999999/stream",
        "GET /jobs/job-999999/analytics",
        "GET /jobs/job-999999/trace",
        "GET /jobs/job-999999/profile",
        "GET /jobs/job-999999/metrics",
        "POST /jobs/job-999999/cancel",
    ] {
        assert_eq!(
            raw_exchange(daemon.addr(), &format!("{route} HTTP/1.1\r\n\r\n")),
            unknown_job,
            "{route}"
        );
    }

    // Error messages with JSON metacharacters stay escaped as before.
    assert_eq!(
        raw_exchange(
            coordinator.addr(),
            "POST /register HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        ),
        json_error(
            "400 Bad Request",
            "{\"error\":\"body must be {\\\"worker\\\":\\\"host:port\\\"}\"}"
        )
    );
    assert_eq!(
        raw_exchange(
            coordinator.addr(),
            "GET /jobs/merged/result HTTP/1.1\r\n\r\n"
        ),
        json_error(
            "409 Conflict",
            "{\"error\":\"job is running, result not available\"}"
        )
    );

    coordinator.shutdown().unwrap();
    Client::new(daemon.addr().to_string()).shutdown().unwrap();
    daemon.join();
    std::fs::remove_dir_all(&dir).ok();
}
