//! End-to-end tests for the observability layer: byte-identical event
//! streams, the golden event-sequence fixture, kill → resume index
//! invariants, metrics export, and the provenance breakdown behind
//! `obs-report`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use radcrit_accel::config::DeviceConfig;
use radcrit_campaign::{Campaign, KernelSpec, RunOptions};
use radcrit_obs::event::parse_event_line;
use radcrit_obs::{json, MetricsRegistry, ProvenanceBreakdown};

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("radcrit-obs-{tag}-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    path
}

fn dgemm_campaign(injections: usize, seed: u64, workers: usize) -> Campaign {
    Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        injections,
        seed,
    )
    .with_workers(workers)
}

fn events_options(events: &Path) -> RunOptions {
    RunOptions {
        events_out: Some(events.to_path_buf()),
        events_sample: 1,
        ..RunOptions::default()
    }
}

#[test]
fn fixed_seed_event_streams_are_byte_identical() {
    // Same campaign, twice, with different worker counts: the writer
    // reorders completion-order blocks into index order and events carry
    // no wall-clock data, so the streams must match byte for byte.
    let a = temp_path("identical-a");
    let b = temp_path("identical-b");
    dgemm_campaign(24, 7, 1)
        .run_with(&events_options(&a))
        .unwrap();
    dgemm_campaign(24, 7, 3)
        .run_with(&events_options(&b))
        .unwrap();
    let bytes_a = std::fs::read(&a).unwrap();
    let bytes_b = std::fs::read(&b).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "event streams must be byte-identical");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

#[test]
fn golden_event_sequence_stays_deterministic() {
    // A fixed-seed 8-injection campaign must emit exactly the event
    // sequence blessed into the golden file. Regenerate after an
    // intentional format change with:
    //     RADCRIT_BLESS=1 cargo test -p radcrit-campaign --test obs
    let out = temp_path("golden");
    dgemm_campaign(8, 11, 2)
        .run_with(&events_options(&out))
        .unwrap();
    let produced = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).ok();

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events_dgemm_seed11.jsonl");
    if std::env::var_os("RADCRIT_BLESS").is_some() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &produced).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with RADCRIT_BLESS=1 to create it",
            golden_path.display()
        )
    });
    assert_eq!(
        produced, golden,
        "event stream drifted from the golden fixture; if the change is \
         intentional, regenerate with RADCRIT_BLESS=1"
    );
}

#[test]
fn profiled_run_event_stream_is_byte_identical_to_the_golden_fixture() {
    // The phase profiler is wall-clock-only observability: running the
    // blessed 8-injection campaign with profiling on must reproduce the
    // committed golden event stream byte for byte — and the profile
    // itself must land beside it.
    let out = temp_path("profiled-golden");
    let profile = std::env::temp_dir().join(format!(
        "radcrit-obs-profiled-golden-{}.json",
        std::process::id()
    ));
    let mut options = events_options(&out);
    options.profile_out = Some(profile.clone());
    dgemm_campaign(8, 11, 2).run_with(&options).unwrap();
    let produced = std::fs::read_to_string(&out).unwrap();
    std::fs::remove_file(&out).ok();

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events_dgemm_seed11.jsonl");
    let golden = std::fs::read_to_string(&golden_path).unwrap();
    assert_eq!(
        produced, golden,
        "enabling the profiler must not change a single event byte"
    );

    let tree =
        radcrit_obs::ProfileTree::from_json(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    assert!(!tree.is_empty(), "profile_out must hold a non-empty tree");
    std::fs::remove_file(&profile).ok();
}

#[test]
fn killed_run_resumes_without_duplicating_or_dropping_event_indices() {
    let total = 60;
    let campaign = dgemm_campaign(total, 7, 2);
    let checkpoint = temp_path("resume-ckpt");
    let events = temp_path("resume-events");

    // "Kill" after 25 records, then resume against the same files.
    campaign
        .run_with(&RunOptions {
            checkpoint: Some(checkpoint.clone()),
            events_out: Some(events.clone()),
            events_sample: 1,
            budget: Some(25),
            ..RunOptions::default()
        })
        .unwrap();
    let resumed = campaign
        .run_with(&RunOptions {
            checkpoint: Some(checkpoint.clone()),
            events_out: Some(events.clone()),
            events_sample: 1,
            resume: true,
            ..RunOptions::default()
        })
        .unwrap();
    assert!(resumed.is_complete());

    // Every injection index must own exactly one terminal event — either
    // its provenance record or a replay marker — and the stream must be
    // framed by run_begin/run_end.
    let text = std::fs::read_to_string(&events).unwrap();
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(
        lines.first().map(|l| l.contains("\"e\":\"run_begin\"")),
        Some(true)
    );
    assert!(lines.last().unwrap().contains("\"e\":\"run_end\""));
    let mut terminal: HashMap<u64, Vec<String>> = HashMap::new();
    for line in &lines {
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

    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(&events).ok();
}

#[test]
fn observability_does_not_perturb_records_and_metrics_are_parseable() {
    let campaign = dgemm_campaign(24, 7, 2);
    let plain = campaign.run().unwrap();

    let metrics =
        std::env::temp_dir().join(format!("radcrit-obs-metrics-{}.json", std::process::id()));
    let events = temp_path("passthrough");
    let registry = Arc::new(MetricsRegistry::new());
    let observed = campaign
        .run_with(&RunOptions {
            metrics_out: Some(metrics.clone()),
            metrics: Some(Arc::clone(&registry)),
            events_out: Some(events.clone()),
            events_sample: 4,
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(
        plain.records, observed.records,
        "tracing must not change the science"
    );

    // The JSON snapshot is one parseable line with the campaign counters.
    let snapshot = std::fs::read_to_string(&metrics).unwrap();
    let parsed = json::parse_line(snapshot.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap();
    let counters = json::as_obj(json::get(top, "counters").unwrap()).unwrap();
    assert!(
        counters
            .iter()
            .any(|(k, _)| k.starts_with("radcrit_campaign_outcomes_total")),
        "outcome counters missing from {snapshot}"
    );

    // The Prometheus rendering sits next to it and scrapes as text.
    let prom = std::fs::read_to_string(metrics.with_extension("prom")).unwrap();
    assert!(prom.contains("# TYPE"), "{prom}");
    assert!(prom.contains("radcrit_injection_latency_bucket"), "{prom}");
    assert!(prom.contains("le=\"+Inf\""), "{prom}");

    // Each injection's latency is timed once: the registry's histogram
    // is the run telemetry's, bucket for bucket.
    let snapshot = registry.snapshot();
    let latency = snapshot
        .histogram("radcrit_injection_latency", &[])
        .expect("latency histogram in the registry");
    assert_eq!(latency, &observed.telemetry.latency);
    assert_eq!(latency.count(), observed.telemetry.completed as u64);
    assert_eq!(observed.telemetry.completed, 24);

    // Sampling stride 4 still yields a provenance event per injection.
    let breakdown = ProvenanceBreakdown::from_events_path(&events).unwrap();
    let runs: u64 = breakdown.sites().values().map(|s| s.runs).sum();
    assert_eq!(runs, 24);

    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(metrics.with_extension("prom")).ok();
    std::fs::remove_file(&events).ok();
}

#[test]
fn provenance_breakdown_attributes_spatial_classes_to_sites() {
    // The acceptance bar for `obs-report`: a DGEMM campaign must
    // attribute at least two distinct spatial classes to concrete fault
    // sites.
    let events = temp_path("report");
    dgemm_campaign(120, 7, 2)
        .run_with(&events_options(&events))
        .unwrap();
    let breakdown = ProvenanceBreakdown::from_events_path(&events).unwrap();
    assert!(
        breakdown.sites().len() >= 2,
        "expected several fault sites, got {:?}",
        breakdown.sites().keys().collect::<Vec<_>>()
    );
    let classes = breakdown.class_totals();
    assert!(
        classes.len() >= 2,
        "expected >=2 spatial classes, got {classes:?}"
    );
    // Every class total is attributable to at least one concrete site.
    for class in classes.keys() {
        assert!(
            breakdown
                .sites()
                .iter()
                .any(|(site, s)| !site.is_empty() && s.classes.contains_key(class)),
            "class {class} not attributed to any site"
        );
    }
    let table = breakdown.render();
    assert!(table.contains("site"), "{table}");
    std::fs::remove_file(&events).ok();
}

#[test]
fn a_resumed_stream_marks_checkpoint_only_records_with_exact_replay_lines() {
    // The first run checkpoints without an event stream, so every
    // record it produced reaches the resumed stream as a `replay`
    // marker carrying the record's analytic fields.
    let campaign = dgemm_campaign(24, 7, 2);
    let checkpoint = temp_path("replay-ckpt");
    let events = temp_path("replay-events");
    campaign
        .run_with(&RunOptions {
            checkpoint: Some(checkpoint.clone()),
            budget: Some(12),
            ..RunOptions::default()
        })
        .unwrap();
    campaign
        .run_with(&RunOptions {
            checkpoint: Some(checkpoint.clone()),
            resume: true,
            ..events_options(&events)
        })
        .unwrap();
    let text = std::fs::read_to_string(&events).unwrap();
    let replays: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"e\":\"replay\""))
        .collect();
    assert_eq!(replays.len(), 12);
    assert_eq!(
        replays[1],
        "{\"e\":\"replay\",\"i\":1,\"site\":\"unit_garble\",\"outcome\":\"SDC\",\
         \"delivered\":true,\"mismatches\":256,\"class\":\"square\",\
         \"mre\":99.15206551355692,\"critical\":true,\"fclass\":\"square\"}"
    );
    assert_eq!(
        replays[2],
        "{\"e\":\"replay\",\"i\":2,\"site\":\"fatal\",\"outcome\":\"CRASH\",\
         \"delivered\":true,\"mismatches\":0,\"class\":\"none\"}"
    );
    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(&events).ok();
}

#[test]
fn bucket_counters_reach_the_registry_once_per_event() {
    // One worker: restores depend on how workers interleave buckets.
    let registry = Arc::new(MetricsRegistry::new());
    Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 64 },
        60,
        7,
    )
    .with_workers(1)
    .run_with(&RunOptions {
        metrics: Some(Arc::clone(&registry)),
        ..RunOptions::default()
    })
    .unwrap();
    let snapshot = registry.snapshot();
    let counter = |name: &str| snapshot.counter(name, &[]);
    // DGEMM-64's snapshots cover every tile, so no fork advances; the
    // advance counter still exists once a fork ran.
    assert_eq!(
        [
            "radcrit_bucket_restores_total",
            "radcrit_bucket_forks_total",
            "radcrit_bucket_advance_tiles_total",
        ]
        .map(counter),
        [Some(14), Some(45), Some(0)]
    );
}
