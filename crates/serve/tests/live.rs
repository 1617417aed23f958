//! Live-analytics integration tests against a real daemon: SSE id
//! sequencing and `Last-Event-ID` resume, the aggregator-equals-summary
//! invariant over the wire (including across an abrupt kill → restart),
//! the Chrome trace endpoint, the daemon rollup, the worker gauges, and
//! the disconnected-SSE-client regression.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{config, dgemm_spec, temp_dir};
use radcrit_campaign::CampaignSummary;
use radcrit_obs::{json, CriticalityAggregator};
use radcrit_serve::daemon;
use radcrit_serve::Client;

fn fold_text(text: &str) -> CriticalityAggregator {
    let mut agg = CriticalityAggregator::new();
    for line in text.lines() {
        agg.fold_line(line).unwrap();
    }
    agg
}

const POLL: Duration = Duration::from_millis(100);
const WAIT: Duration = Duration::from_secs(120);

#[test]
fn stream_delivers_strictly_increasing_ids_and_resumes_from_last_event_id() {
    let dir = temp_dir("sse");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(32, 200, 7)).unwrap();

    // Tail while the job runs: the stream must block across the live
    // tail and still return the complete, gap-free sequence.
    let frames = client.stream(&id, None).unwrap();
    assert_eq!(client.wait(&id, WAIT).unwrap().state, "done");
    assert!(!frames.is_empty());
    for (ordinal, (frame_id, _)) in frames.iter().enumerate() {
        assert_eq!(
            *frame_id, ordinal as u64,
            "SSE ids must be the contiguous 0-based line ordinals"
        );
    }

    // Every frame is one line of the event file, in order.
    let events = client.events(&id).unwrap();
    let lines: Vec<&str> = events.lines().collect();
    assert_eq!(frames.len(), lines.len());
    for ((_, data), line) in frames.iter().zip(&lines) {
        assert_eq!(data, line);
    }

    // Reconnecting with Last-Event-ID replays only the suffix.
    let mid = frames[frames.len() / 2].0;
    let resumed = client.stream(&id, Some(mid)).unwrap();
    assert_eq!(resumed.first().map(|f| f.0), Some(mid + 1));
    assert_eq!(resumed.len() as u64, frames.len() as u64 - mid - 1);
    assert_eq!(resumed.last(), frames.last());

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analytics_rollup_trace_and_gauges_cover_a_finished_job() {
    let dir = temp_dir("analytics");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(32, 40, 7)).unwrap();
    assert_eq!(client.wait(&id, WAIT).unwrap().state, "done");

    // The analytics endpoint is exactly the local fold of the served
    // event stream, and that fold reproduces the canonical summary.
    let agg = fold_text(&client.events(&id).unwrap());
    assert_eq!(client.analytics(&id).unwrap(), agg.to_json());
    assert_eq!(
        format!("{}\n", CampaignSummary::from_analytics(&agg).to_json()),
        client.result(&id).unwrap(),
        "aggregator-equals-summary must hold over the wire"
    );

    // The daemon-wide rollup folded this one job.
    let rollup = client.rollup().unwrap();
    assert!(rollup.starts_with("{\"jobs\":1,\"folded\":1,"), "{rollup}");
    assert!(rollup.contains("\"radcrit_analytics\":1"), "{rollup}");

    // The trace endpoint serves Chrome trace JSON with the full phase
    // vocabulary.
    let trace = client.trace(&id).unwrap();
    let parsed = json::parse_line(trace.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap();
    let events = match json::get(top, "traceEvents").unwrap() {
        json::Json::Arr(a) => a,
        other => panic!("traceEvents is not an array: {other:?}"),
    };
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .map(|e| json::get_str(json::as_obj(e).unwrap(), "name").unwrap())
        .collect();
    assert!(
        names.len() >= 4,
        "expected >=4 distinct phase names, got {names:?}"
    );
    for required in ["golden", "injection", "execute", "compare"] {
        assert!(names.contains(required), "missing {required}: {names:?}");
    }

    // The profile endpoints serve the job's phase tree and the
    // daemon-wide merge with its hot-phases ranking.
    let profile = client.profile(&id).unwrap();
    assert!(profile.contains("\"radcrit_profile\":1"), "{profile}");
    assert!(profile.contains("\"phase\":\"golden\""), "{profile}");
    assert!(profile.contains("\"phase\":\"tile-execute\""), "{profile}");
    let merged = client.profile_rollup().unwrap();
    assert!(merged.starts_with("{\"jobs\":1,\"folded\":1,"), "{merged}");
    assert!(merged.contains("\"hot\":[{\"phase\":"), "{merged}");

    // Queue/worker gauges appear in the Prometheus exposition.
    let metrics = client.metrics().unwrap();
    for gauge in [
        "radcrit_queue_depth",
        "radcrit_workers_busy",
        "radcrit_workers_idle",
    ] {
        assert!(metrics.contains(gauge), "missing {gauge} in:\n{metrics}");
    }

    // The job listing names the finished job.
    assert_eq!(
        client.jobs().unwrap(),
        vec![(id.clone(), "done".to_owned())]
    );

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_event_tails_are_skipped_by_analytics_like_the_sse_tailer() {
    let dir = temp_dir("torn");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(32, 20, 7)).unwrap();
    assert_eq!(client.wait(&id, WAIT).unwrap().state, "done");
    let analytics_before = client.analytics(&id).unwrap();
    let rollup_before = client.rollup().unwrap();

    // Simulate a writer caught mid-append: first a complete JSON event
    // line that has not received its newline yet (the treacherous case —
    // it *parses*, but the SSE tailer would not serve it), then raw
    // garbage on the same unterminated line.
    let events_path = dir.join("jobs").join(&id).join("events.jsonl");
    let torn_but_parseable = "{\"e\":\"provenance\",\"i\":999,\"site\":\"fpu\",\
         \"delivered\":true,\"touched\":[],\"outcome\":\"masked\",\"mismatches\":0,\
         \"class\":\"none\",\"critical\":false}";
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&events_path)
        .unwrap();
    f.write_all(torn_but_parseable.as_bytes()).unwrap();
    f.flush().unwrap();
    assert_eq!(
        client.analytics(&id).unwrap(),
        analytics_before,
        "a torn-but-parseable tail must not leak a phantom injection"
    );
    assert_eq!(
        client.rollup().unwrap(),
        rollup_before,
        "the daemon rollup must frame torn tails like the SSE tailer"
    );

    f.write_all(b"{\"e\":\"prov").unwrap();
    f.flush().unwrap();
    drop(f);
    assert_eq!(
        client.analytics(&id).unwrap(),
        analytics_before,
        "an unparseable torn tail must be skipped, not an error"
    );
    assert_eq!(client.rollup().unwrap(), rollup_before);

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analytics_invariant_survives_abrupt_restart() {
    let dir = temp_dir("resume");
    // First daemon: submit, wait for checkpoint progress, then die hard.
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(32, 2000, 77)).unwrap();
    let checkpoint = dir.join("jobs").join(&id).join("checkpoint.jsonl");
    let deadline = Instant::now() + WAIT;
    loop {
        let records = std::fs::read_to_string(&checkpoint)
            .map(|t| t.lines().count())
            .unwrap_or(0);
        if records >= 5 {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint progress");
        std::thread::sleep(POLL);
    }
    handle.shutdown_abrupt();

    // Second daemon on the same data dir resumes and finishes the job;
    // the stitched-together event stream (pre-crash provenance + replay
    // markers + post-crash tail) must still fold to the exact summary.
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    assert_eq!(client.wait(&id, WAIT).unwrap().state, "done");
    let agg = fold_text(&client.events(&id).unwrap());
    assert_eq!(client.analytics(&id).unwrap(), agg.to_json());
    assert_eq!(
        format!("{}\n", CampaignSummary::from_analytics(&agg).to_json()),
        client.result(&id).unwrap(),
        "kill → resume stream must fold to the resumed run's summary"
    );

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disconnected_sse_client_does_not_disturb_the_daemon_or_the_job() {
    let dir = temp_dir("disconnect");
    let handle = daemon::start(config(&dir, 1)).unwrap();
    let client = Client::new(handle.addr().to_string());
    let id = client.submit(&dgemm_spec(32, 1000, 21)).unwrap();

    // Open a raw SSE connection, read a little, then vanish mid-stream.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write!(
            raw,
            "GET /jobs/{id}/stream HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut buf = [0u8; 512];
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "expected at least the response head");
        assert!(
            String::from_utf8_lossy(&buf[..n]).contains("200"),
            "stream must start with a 200"
        );
        // Dropping here closes the socket while the server tails.
    }

    // The daemon stays healthy, the job completes, and a fresh stream
    // still serves the full sequence.
    assert!(client.healthz().unwrap().contains("\"ok\":true"));
    assert_eq!(client.wait(&id, WAIT).unwrap().state, "done");
    let frames = client.stream(&id, None).unwrap();
    assert!(!frames.is_empty());
    assert_eq!(frames.first().map(|f| f.0), Some(0));

    client.shutdown().unwrap();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
