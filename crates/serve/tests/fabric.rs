//! Federated-campaign integration tests: a coordinator sharding one
//! campaign over several real worker daemons on loopback.
//!
//! The two invariants under test are the fabric's headline guarantees:
//! the merged summary is bit-identical to a single-node run of the same
//! spec, and killing a worker mid-campaign re-dispatches its remaining
//! range to a survivor without disturbing that identity.

mod common;

use std::time::{Duration, Instant};

use common::{config, dgemm_spec, temp_dir};
use radcrit_campaign::{CampaignSummary, RunOptions};
use radcrit_obs::{json, CriticalityAggregator};
use radcrit_serve::coord::{self, CoordinatorConfig};
use radcrit_serve::daemon;
use radcrit_serve::{Client, JobSpec};

/// The canonical summary a one-shot in-process run of `spec` produces —
/// the identity every federated run must reproduce byte for byte.
fn single_node_summary(spec: &JobSpec) -> String {
    let campaign = spec.campaign().unwrap();
    let result = campaign.run_with(&RunOptions::default()).unwrap();
    format!("{}\n", result.summary().to_json())
}

fn shard_rows(client: &Client) -> Vec<Vec<(String, json::Json)>> {
    let body = client.shards().unwrap();
    let parsed = json::parse_line(body.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap().to_vec();
    match json::get(&top, "shards").unwrap() {
        json::Json::Arr(rows) => rows
            .iter()
            .map(|r| json::as_obj(r).unwrap().to_vec())
            .collect(),
        other => panic!("shards is not an array: {other:?}"),
    }
}

fn alert_rows(client: &Client) -> Vec<Vec<(String, json::Json)>> {
    let body = client.alerts().unwrap();
    let parsed = json::parse_line(body.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap().to_vec();
    match json::get(&top, "alerts").unwrap() {
        json::Json::Arr(rows) => rows
            .iter()
            .map(|r| json::as_obj(r).unwrap().to_vec())
            .collect(),
        other => panic!("alerts is not an array: {other:?}"),
    }
}

fn num(obj: &[(String, json::Json)], key: &str) -> u64 {
    match json::get(obj, key).unwrap() {
        json::Json::Num(n) => n.parse().unwrap(),
        other => panic!("{key} is not a number: {other:?}"),
    }
}

const WAIT: Duration = Duration::from_secs(180);

#[test]
fn a_federated_campaign_matches_the_single_node_summary() {
    let base = temp_dir("merge");
    let spec = dgemm_spec(32, 120, 7);
    let reference = single_node_summary(&spec);

    // Two workers join the (initially empty) fleet over the wire.
    let w0 = daemon::start(config(&base.join("w0"), 1)).unwrap();
    let w1 = daemon::start(config(&base.join("w1"), 1)).unwrap();
    let coordinator = coord::start(CoordinatorConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: base.join("coord"),
        spec: spec.clone(),
        shards: 2,
        workers: Vec::new(),
        heartbeat_interval: Duration::from_millis(200),
        heartbeat_timeout: Duration::from_secs(5),
        summary_out: Some(base.join("merged-summary.json")),
        trace_out: None,
    })
    .unwrap();
    let client = Client::new(coordinator.addr().to_string());
    client.register_worker(&w0.addr().to_string()).unwrap();
    let ack = client.register_worker(&w1.addr().to_string()).unwrap();
    assert!(ack.contains("\"workers_alive\":2"), "{ack}");

    coordinator.wait_done(WAIT).unwrap();

    // The merged result, the summary file, and a fold of the federated
    // SSE stream all agree with the single-node run byte for byte.
    assert_eq!(client.result("merged").unwrap(), reference);
    assert_eq!(
        std::fs::read_to_string(base.join("merged-summary.json")).unwrap(),
        reference
    );
    let frames = client.stream("merged", None).unwrap();
    let mut agg = CriticalityAggregator::new();
    for (_, data) in &frames {
        agg.fold_line(data).unwrap();
    }
    assert_eq!(
        format!("{}\n", CampaignSummary::from_analytics(&agg).to_json()),
        reference,
        "the federated SSE stream must fold to the same summary"
    );

    // The merged rollup speaks the daemon's analytics body shape, and
    // the shard table shows two clean completions.
    let analytics = client.rollup().unwrap();
    assert!(
        analytics.starts_with("{\"jobs\":2,\"folded\":2,\"rollup\":"),
        "{analytics}"
    );
    let rows = shard_rows(&client);
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(json::get_str(row, "state").unwrap(), "completed");
        assert_eq!(num(row, "covered"), num(row, "end") - num(row, "start"));
        assert_eq!(num(row, "redispatches"), 0);
    }
    assert!(client.healthz().unwrap().contains("\"done\":true"));
    coordinator.shutdown().unwrap();

    // A journal header written while specs still rendered the retired
    // `force_scalar` field names the same campaign: a coordinator
    // restarted on it resumes to the same merged summary.
    let journal = base.join("coord").join("fabric.jsonl");
    let current = std::fs::read_to_string(&journal).unwrap();
    let retired = current.replacen(
        r#"\"shard\":null,\"trace\":null"#,
        r#"\"shard\":null,\"force_scalar\":false,\"trace\":null"#,
        1,
    );
    assert_ne!(
        retired, current,
        "the header renders the spec's shard and trace"
    );
    std::fs::write(&journal, retired).unwrap();
    let restarted = coord::start(CoordinatorConfig {
        data_dir: base.join("coord"),
        ..CoordinatorConfig::new(spec)
    })
    .unwrap();
    restarted.wait_done(WAIT).unwrap();
    let restarted_client = Client::new(restarted.addr().to_string());
    assert_eq!(restarted_client.result("merged").unwrap(), reference);
    restarted.shutdown().unwrap();

    for (w, h) in [
        (Client::new(w0.addr().to_string()), w0),
        (Client::new(w1.addr().to_string()), w1),
    ] {
        w.shutdown().unwrap();
        h.join();
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn killing_a_worker_mid_campaign_redispatches_and_merges_bit_identically() {
    let base = temp_dir("kill");
    let spec = dgemm_spec(32, 1200, 2017);
    let reference = single_node_summary(&spec);

    let mut workers: Vec<Option<daemon::DaemonHandle>> = (0..3)
        .map(|i| Some(daemon::start(config(&base.join(format!("w{i}")), 1)).unwrap()))
        .collect();
    let addrs: Vec<String> = workers
        .iter()
        .map(|w| w.as_ref().unwrap().addr().to_string())
        .collect();
    let coordinator = coord::start(CoordinatorConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: base.join("coord"),
        spec,
        shards: 3,
        workers: addrs.clone(),
        heartbeat_interval: Duration::from_millis(200),
        heartbeat_timeout: Duration::from_millis(1000),
        summary_out: Some(base.join("merged-summary.json")),
        trace_out: Some(base.join("fleet-trace.json")),
    })
    .unwrap();
    let client = Client::new(coordinator.addr().to_string());

    // Find a shard that is dispatched but nowhere near covered, and
    // kill the daemon it runs on — abruptly, mid-stream.
    let deadline = Instant::now() + WAIT;
    let victim_addr = loop {
        assert!(
            Instant::now() < deadline,
            "no in-flight shard appeared before the deadline"
        );
        let candidate = shard_rows(&client).into_iter().find(|row| {
            json::get_str(row, "state").unwrap() == "dispatched"
                && num(row, "covered") < (num(row, "end") - num(row, "start")) / 2
        });
        if let Some(row) = candidate {
            break json::get_str(&row, "worker").unwrap().to_owned();
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    let victim = addrs.iter().position(|a| *a == victim_addr).unwrap();
    workers[victim].take().unwrap().shutdown_abrupt();

    coordinator.wait_done(WAIT).unwrap();

    // Bit-identical merge despite the mid-campaign death...
    assert_eq!(client.result("merged").unwrap(), reference);
    assert_eq!(
        std::fs::read_to_string(base.join("merged-summary.json")).unwrap(),
        reference
    );

    // ...and the re-dispatch is visible: the counter advanced and no
    // completed shard still points at the dead worker for its tail.
    let metrics = client.metrics().unwrap();
    let redispatched: f64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("radcrit_fabric_shards_redispatched_total "))
        .expect("redispatch counter missing from coordinator /metrics")
        .trim()
        .parse()
        .unwrap();
    assert!(
        redispatched >= 1.0,
        "expected at least one redispatch, metrics:\n{metrics}"
    );
    let rows = shard_rows(&client);
    assert_eq!(rows.len(), 3);
    assert!(rows
        .iter()
        .all(|row| json::get_str(row, "state").unwrap() == "completed"));
    assert!(
        rows.iter().any(|row| num(row, "redispatches") >= 1),
        "shard table records no redispatch: {:?}",
        client.shards().unwrap()
    );

    // The health engine saw the whole episode: worker-flapping and
    // redispatch-storm both fired during the campaign and resolve once
    // the trailing window drains of deaths and re-dispatches.
    let deadline = Instant::now() + WAIT;
    loop {
        let rows = alert_rows(&client);
        let rule = |name: &str| {
            rows.iter()
                .find(|r| json::get_str(r, "rule").unwrap() == name)
                .unwrap_or_else(|| panic!("rule {name} missing from /alerts"))
                .clone()
        };
        let flap = rule("worker-flapping");
        let storm = rule("redispatch-storm");
        assert!(
            num(&flap, "fired_total") >= 1,
            "worker-flapping never fired"
        );
        assert!(
            num(&storm, "fired_total") >= 1,
            "redispatch-storm never fired"
        );
        if json::get_str(&flap, "state").unwrap() == "ok"
            && json::get_str(&storm, "state").unwrap() == "ok"
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "alerts did not resolve before the deadline: {}",
            client.alerts().unwrap()
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // One merged fleet trace tells the story end to end: dispatches,
    // the death, the re-dispatch and per-shard completion — and the
    // `--trace-out` artifact is the same document.
    let trace = client.fleet_trace().unwrap();
    let parsed = json::parse_line(&trace.replace('\n', "")).unwrap();
    let top = json::as_obj(&parsed).unwrap().to_vec();
    assert!(matches!(
        json::get(&top, "traceEvents").unwrap(),
        json::Json::Arr(_)
    ));
    for needle in [
        "\"dispatch\"",
        "\"redispatch\"",
        "worker-dead",
        "\"shard-complete\"",
        "\"campaign\"",
    ] {
        assert!(trace.contains(needle), "fleet trace missing {needle}");
    }
    // The `--trace-out` artifact is the same document modulo clock-offset
    // refinement between the completion-time write and the fetch above.
    let artifact = std::fs::read_to_string(base.join("fleet-trace.json")).unwrap();
    assert!(artifact.contains("\"traceEvents\""), "{artifact}");
    assert!(artifact.contains("\"redispatch\""), "{artifact}");

    coordinator.shutdown().unwrap();
    for handle in workers.into_iter().flatten() {
        let w = Client::new(handle.addr().to_string());
        w.shutdown().unwrap();
        handle.join();
    }
    std::fs::remove_dir_all(&base).ok();
}
