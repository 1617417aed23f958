//! Fleet-trace integration tests: the merged Chrome trace the
//! coordinator serves at `GET /trace` for a loopback federation.
//!
//! Two properties matter. The span *set* — names, shard tags and
//! parentage — must be a pure function of the spec: two runs of the
//! same fixed-seed campaign produce identical sets even though worker
//! placement, ports and wall-clock timings all differ. And a torn
//! worker fetch (the worker is gone by the time the trace is built)
//! must degrade to a `skipped_sources` entry, never a malformed
//! document.

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use common::{config, temp_dir};
use radcrit_campaign::KernelSpec;
use radcrit_obs::json;
use radcrit_serve::coord::{self, CoordinatorConfig};
use radcrit_serve::daemon;
use radcrit_serve::{Client, DeviceKind, JobSpec};

/// Runs a fixed-seed two-worker federated campaign to completion and
/// returns the coordinator's merged fleet trace. With `torn`, one
/// worker is shut down before the trace is fetched, so its span
/// sources can no longer be reached.
fn federated_trace(tag: &str, torn: bool) -> String {
    let base = temp_dir(tag);
    let mut spec = JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n: 32 }, 60, 11);
    spec.scale = 8;
    spec.workers = 1;

    let w0 = daemon::start(config(&base.join("w0"), 1)).unwrap();
    let w1 = daemon::start(config(&base.join("w1"), 1)).unwrap();
    let coordinator = coord::start(CoordinatorConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: base.join("coord"),
        spec,
        shards: 2,
        workers: vec![w0.addr().to_string(), w1.addr().to_string()],
        heartbeat_interval: Duration::from_millis(200),
        heartbeat_timeout: Duration::from_secs(5),
        summary_out: None,
        trace_out: None,
    })
    .unwrap();
    let client = Client::new(coordinator.addr().to_string());
    coordinator.wait_done(Duration::from_secs(180)).unwrap();

    let mut workers = vec![Some(w0), Some(w1)];
    if torn {
        // Shut down the worker that served shard 0, so at least that
        // shard's span source is unreachable at fetch time. (Rendezvous
        // placement may have put shard 1 on the same worker.)
        let owner = shard_owner(&client, 0);
        let idx = workers
            .iter()
            .position(|w| w.as_ref().unwrap().addr().to_string() == owner)
            .unwrap_or_else(|| panic!("shard 0 owner {owner} is not a known worker"));
        let gone = workers[idx].take().unwrap();
        Client::new(gone.addr().to_string()).shutdown().unwrap();
        gone.join();
    }
    let trace = client.fleet_trace().unwrap();

    coordinator.shutdown().unwrap();
    for handle in workers.into_iter().flatten() {
        Client::new(handle.addr().to_string()).shutdown().unwrap();
        handle.join();
    }
    std::fs::remove_dir_all(&base).ok();
    trace
}

/// The worker address the coordinator's shard table shows for `shard`.
fn shard_owner(client: &Client, shard: usize) -> String {
    let body = client.shards().unwrap();
    let parsed = json::parse_line(body.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap().to_vec();
    match json::get(&top, "shards").unwrap() {
        json::Json::Arr(rows) => {
            let row = json::as_obj(&rows[shard]).unwrap();
            json::get_str(row, "worker").unwrap().to_owned()
        }
        other => panic!("shards is not an array: {other:?}"),
    }
}

fn doc_obj(doc: &str) -> Vec<(String, json::Json)> {
    let parsed = json::parse_line(&doc.replace('\n', "")).unwrap();
    json::as_obj(&parsed).unwrap().to_vec()
}

/// All `"ph":"X"` events of the trace, each as its parsed object.
fn complete_events(doc: &str) -> Vec<Vec<(String, json::Json)>> {
    let top = doc_obj(doc);
    let rows = match json::get(&top, "traceEvents").unwrap() {
        json::Json::Arr(rows) => rows,
        other => panic!("traceEvents is not an array: {other:?}"),
    };
    rows.iter()
        .map(|r| json::as_obj(r).unwrap().to_vec())
        .filter(|e| json::get_str(e, "ph").unwrap() == "X")
        .collect()
}

fn num(obj: &[(String, json::Json)], key: &str) -> u64 {
    match json::get(obj, key).unwrap() {
        json::Json::Num(n) => n.parse().unwrap(),
        other => panic!("{key} is not a number: {other:?}"),
    }
}

fn opt_arg(event: &[(String, json::Json)], key: &str) -> Option<u64> {
    let args = json::get(event, "args").unwrap();
    match json::get(json::as_obj(args).unwrap(), key) {
        Ok(json::Json::Num(n)) => Some(n.parse().unwrap()),
        _ => None,
    }
}

/// One span's placement-independent identity:
/// (name, shard tag, parent span, minted span id).
type SpanSig = (String, Option<u64>, Option<u64>, Option<u64>);

/// The placement-independent identity of a trace: the sorted multiset
/// of [`SpanSig`]s over all spans. Ports, pids, timings and
/// worker→shard placement are all excluded.
fn signature(doc: &str) -> Vec<SpanSig> {
    let mut sig: Vec<_> = complete_events(doc)
        .iter()
        .map(|e| {
            (
                json::get_str(e, "name").unwrap().to_owned(),
                opt_arg(e, "shard"),
                opt_arg(e, "parent"),
                opt_arg(e, "span_id"),
            )
        })
        .collect();
    sig.sort();
    sig
}

#[test]
fn merged_trace_is_deterministic_and_monotone_per_track() {
    let first = federated_trace("det-a", false);
    let second = federated_trace("det-b", false);
    assert_eq!(
        signature(&first),
        signature(&second),
        "span set must be identical across fixed-seed runs"
    );

    let events = complete_events(&first);
    assert!(!events.is_empty());

    // Rebased timestamps are monotone within every track and never
    // pulled below the campaign epoch by a clock-offset estimate.
    let mut last: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        let (pid, ts) = (num(e, "pid"), num(e, "ts"));
        assert!(
            ts >= last.get(&pid).copied().unwrap_or(0),
            "track {pid} went backwards at ts {ts}"
        );
        last.insert(pid, ts);
    }

    // Both worker tracks made it into the merge, each tagged with the
    // shard it executed, and every worker span's parent is a span id
    // the coordinator actually minted on dispatch.
    let worker_shards: BTreeSet<u64> = events
        .iter()
        .filter(|e| num(e, "pid") >= 2)
        .filter_map(|e| opt_arg(e, "shard"))
        .collect();
    assert_eq!(worker_shards, BTreeSet::from([0, 1]), "{first}");
    let minted: BTreeSet<u64> = events
        .iter()
        .filter(|e| json::get_str(e, "name").unwrap() == "dispatch")
        .filter_map(|e| opt_arg(e, "span_id"))
        .collect();
    for e in events.iter().filter(|e| num(e, "pid") >= 2) {
        let parent = opt_arg(e, "parent").expect("worker span without parent");
        assert!(minted.contains(&parent), "orphan parent {parent}");
    }

    // A clean run skips nothing.
    let top = doc_obj(&first);
    let meta = json::get(&top, "metadata").unwrap();
    match json::get(json::as_obj(meta).unwrap(), "skipped_sources").unwrap() {
        json::Json::Arr(rows) => assert!(rows.is_empty(), "{first}"),
        other => panic!("skipped_sources is not an array: {other:?}"),
    }
}

#[test]
fn a_torn_worker_fetch_degrades_to_a_skipped_source() {
    let doc = federated_trace("torn", true);

    // Still a well-formed Chrome trace with the coordinator track...
    let events = complete_events(&doc);
    assert!(events.iter().any(|e| num(e, "pid") == 1));

    // ...the unreachable worker called out, not silently lost...
    let top = doc_obj(&doc);
    let meta = json::get(&top, "metadata").unwrap();
    let skipped = match json::get(json::as_obj(meta).unwrap(), "skipped_sources").unwrap() {
        json::Json::Arr(rows) => rows.len(),
        other => panic!("skipped_sources is not an array: {other:?}"),
    };
    assert!(skipped >= 1, "{doc}");

    // ...and every shard the dead worker did NOT own still merged its
    // shard-tagged spans. (Rendezvous placement may have put both
    // shards on the victim — then both sources are skipped instead.)
    let has_tagged_worker = events
        .iter()
        .any(|e| num(e, "pid") >= 2 && opt_arg(e, "shard").is_some());
    assert!(
        has_tagged_worker || skipped == 2,
        "surviving worker's spans missing with only {skipped} source(s) skipped: {doc}"
    );
}
