//! The analytics layer's hard invariants, end to end:
//!
//! * folding a finished campaign's event stream reproduces
//!   `CampaignSummary` byte for byte — including across kill → resume
//!   cycles, whose replayed indices fold from enriched `replay` markers;
//! * folding any prefix of a stream and then the whole stream again
//!   equals the one-shot fold (the SSE-resume / `Last-Event-ID` shape);
//! * `--trace-out` produces a Chrome trace whose phase structure matches
//!   the run's records and whose metadata matches its
//!   `ExecutionProfile` — asserted against the committed `TRACE_5.json`
//!   sample at the repo root — and that agrees span for span with the
//!   profile tree and the phase counters of the same run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use radcrit_accel::config::DeviceConfig;
use radcrit_campaign::{Campaign, CampaignSummary, KernelSpec, RunOptions};
use radcrit_obs::profile::PhaseId;
use radcrit_obs::{json, CriticalityAggregator, MetricsRegistry, ProfileNode, ProfileTree};

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "radcrit-analytics-{tag}-{}.jsonl",
        std::process::id()
    ));
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

fn fold_file(path: &Path) -> CriticalityAggregator {
    CriticalityAggregator::from_events_path(path).unwrap()
}

#[test]
fn folding_a_finished_stream_reproduces_the_summary_exactly() {
    let events = temp_path("invariant");
    let result = dgemm_campaign(80, 7, 3)
        .run_with(&RunOptions {
            events_out: Some(events.clone()),
            events_sample: 1,
            ..RunOptions::default()
        })
        .unwrap();
    let agg = fold_file(&events);
    assert!(agg.is_finished());
    assert_eq!(
        CampaignSummary::from_analytics(&agg).to_json(),
        result.summary().to_json(),
        "event-stream fold must reproduce the summary byte for byte"
    );
    std::fs::remove_file(&events).ok();
}

#[test]
fn golden_fixture_fold_matches_the_blessed_campaign_summary() {
    // The blessed 8-injection fixture is the stream of this exact
    // campaign; folding it must reproduce the summary the campaign
    // computes from its in-memory records.
    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/events_dgemm_seed11.jsonl");
    let agg = fold_file(&golden_path);
    let result = dgemm_campaign(8, 11, 2).run().unwrap();
    assert_eq!(
        CampaignSummary::from_analytics(&agg).to_json(),
        result.summary().to_json()
    );
    assert_eq!(agg.injections(), 8);
    assert!(agg.is_finished());
}

#[test]
fn kill_resume_stream_still_folds_to_the_summary() {
    // A budget stop plus resume produces a stream mixing provenance
    // events, enriched replay markers and out-of-sorted-order tails —
    // the fold must not care.
    let campaign = dgemm_campaign(60, 7, 2);
    let checkpoint = temp_path("resume-ckpt");
    let events = temp_path("resume-events");
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
    let agg = fold_file(&events);
    assert_eq!(
        CampaignSummary::from_analytics(&agg).to_json(),
        resumed.summary().to_json(),
        "kill → resume stream must fold to the same summary"
    );
    std::fs::remove_file(&checkpoint).ok();
    std::fs::remove_file(&events).ok();
}

/// One stream, generated once per process, shared by the property test.
fn shared_stream() -> &'static [String] {
    use std::sync::OnceLock;
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let events = temp_path("property-stream");
        dgemm_campaign(40, 13, 2)
            .run_with(&RunOptions {
                events_out: Some(events.clone()),
                events_sample: 1,
                ..RunOptions::default()
            })
            .unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        std::fs::remove_file(&events).ok();
        text.lines().map(str::to_owned).collect()
    })
}

proptest! {
    /// Folding lines[0..k] and then the whole stream from the start —
    /// exactly what an SSE client resuming via `Last-Event-ID`, or a
    /// kill → resume tail, produces — equals the one-shot fold, for
    /// every split point.
    #[test]
    fn prefix_then_resume_fold_equals_one_shot_fold(k in 0usize..200) {
        let lines = shared_stream();
        let split = k % (lines.len() + 1);

        let mut one_shot = CriticalityAggregator::new();
        for line in lines {
            one_shot.fold_line(line).unwrap();
        }

        let mut split_fold = CriticalityAggregator::new();
        for line in &lines[..split] {
            split_fold.fold_line(line).unwrap();
        }
        // Resume from the beginning: overlapping indices must be no-ops.
        for line in lines {
            split_fold.fold_line(line).unwrap();
        }
        prop_assert_eq!(&split_fold, &one_shot);
        prop_assert_eq!(split_fold.to_json(), one_shot.to_json());
    }
}

#[test]
fn trace_out_writes_a_phase_timeline_matching_the_run() {
    // One run with all three views of the phase profiler attached: the
    // Chrome timeline, the profile tree and the phase counters must
    // agree, because they read the same scopes.
    let path = |tag: &str| {
        let p = std::env::temp_dir().join(format!(
            "radcrit-analytics-{tag}-{}.json",
            std::process::id()
        ));
        std::fs::remove_file(&p).ok();
        p
    };
    let (trace_path, profile_path) = (path("trace"), path("profile"));
    let metrics = Arc::new(MetricsRegistry::new());
    let result = dgemm_campaign(8, 11, 2)
        .run_with(&RunOptions {
            trace_out: Some(trace_path.clone()),
            profile_out: Some(profile_path.clone()),
            metrics: Some(Arc::clone(&metrics)),
            ..RunOptions::default()
        })
        .unwrap();
    let text = std::fs::read_to_string(&trace_path).unwrap();
    assert_trace_matches(&text, &result);
    let tree = ProfileTree::from_json(&std::fs::read_to_string(&profile_path).unwrap()).unwrap();
    std::fs::remove_file(&trace_path).ok();
    std::fs::remove_file(&profile_path).ok();

    // Only coarse phases reach the timeline.
    let spans = span_counts(&text);
    for name in spans.keys() {
        let phase = PhaseId::from_name(name).unwrap_or_else(|| panic!("foreign span {name}"));
        assert!(phase.is_coarse(), "per-tile span {name} in the trace");
    }
    // Each coarse scope is one span, one profile entry and one count.
    let snap = metrics.snapshot();
    for phase in PhaseId::ALL.into_iter().filter(|p| p.is_coarse()) {
        let name = phase.name();
        let traced = spans.get(name).copied().unwrap_or(0) as u64;
        let profiled = phase_count(&tree.roots, name);
        let counted = snap
            .counter("radcrit_phase_calls_total", &[("phase", name)])
            .unwrap_or(0);
        assert_eq!(traced, profiled, "phase {name}: trace vs profile");
        assert_eq!(profiled, counted, "phase {name}: profile vs metrics");
    }
    assert!(spans["fork"] > 0, "{spans:?}");
    // Self times sum to the profiled wall time (µs rounding per node).
    let self_us: u64 = PhaseId::ALL
        .iter()
        .filter_map(|p| snap.counter("radcrit_phase_self_us_total", &[("phase", p.name())]))
        .sum();
    let root_us = tree.total_ns() / 1_000;
    let nodes = node_count(&tree.roots) as u64;
    assert!(
        self_us.abs_diff(root_us) <= nodes,
        "Σ self {self_us} µs vs root total {root_us} µs over {nodes} nodes"
    );
    // Forks nest under their injection's execute scope.
    let injection = tree.roots.iter().find(|r| r.phase == "injection").unwrap();
    let execute = injection
        .children
        .iter()
        .find(|c| c.phase == "execute")
        .unwrap();
    assert!(
        execute.children.iter().any(|c| c.phase == "fork"),
        "{tree:?}"
    );
}

/// Span count per name of a Chrome trace document.
fn span_counts(text: &str) -> BTreeMap<String, usize> {
    let parsed = json::parse_line(text.trim()).unwrap();
    let mut by_name = BTreeMap::new();
    if let json::Json::Arr(events) =
        json::get(json::as_obj(&parsed).unwrap(), "traceEvents").unwrap()
    {
        for e in events {
            let name = json::get_str(json::as_obj(e).unwrap(), "name").unwrap();
            *by_name.entry(name.to_owned()).or_default() += 1;
        }
    }
    by_name
}

/// Total entry count of `phase` across every stack position.
fn phase_count(nodes: &[ProfileNode], phase: &str) -> u64 {
    nodes
        .iter()
        .map(|n| (if n.phase == phase { n.count } else { 0 }) + phase_count(&n.children, phase))
        .sum()
}

fn node_count(nodes: &[ProfileNode]) -> usize {
    nodes.iter().map(|n| 1 + node_count(&n.children)).sum()
}

#[test]
fn committed_sample_trace_matches_a_fresh_deterministic_run() {
    // TRACE_5.json at the repo root is a committed `--trace-out` sample
    // of this exact campaign (dgemm n=32, 8 injections, seed 11). Its
    // wall-clock values are historical, but its *structure* — phase
    // span counts and ExecutionProfile metadata — must match what the
    // deterministic campaign produces today.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../TRACE_5.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed trace {}: {e}", path.display()));
    let result = dgemm_campaign(8, 11, 2).run().unwrap();
    assert_trace_matches(&text, &result);
}

/// Asserts a Chrome trace's structure against a fresh campaign result:
/// parseable JSON, ≥4 distinct phase names, per-phase span totals
/// derived from the records, and metadata equal to the run's
/// `ExecutionProfile`.
fn assert_trace_matches(text: &str, result: &radcrit_campaign::CampaignResult) {
    let parsed = json::parse_line(text.trim()).unwrap();
    let top = json::as_obj(&parsed).unwrap();
    let events = match json::get(top, "traceEvents").unwrap() {
        json::Json::Arr(a) => a,
        other => panic!("traceEvents is not an array: {other:?}"),
    };
    let mut by_name: std::collections::BTreeMap<String, usize> = Default::default();
    for e in events {
        let obj = json::as_obj(e).unwrap();
        *by_name
            .entry(json::get_str(obj, "name").unwrap().to_owned())
            .or_default() += 1;
        assert_eq!(json::get_str(obj, "ph"), Ok("X"), "complete spans only");
        assert!(json::get_usize(obj, "ts").is_ok());
        assert!(json::get_usize(obj, "dur").is_ok());
    }
    assert!(
        by_name.len() >= 4,
        "expected >=4 distinct phase names, got {by_name:?}"
    );

    // Per-phase totals follow the record structure: one golden span,
    // one injection umbrella per record, one execute + one compare span
    // per actual strike (fatal-plan injections never reach the engine).
    let strikes = result.records.iter().filter(|r| r.site != "fatal").count();
    assert_eq!(by_name["golden"], 1, "{by_name:?}");
    assert_eq!(by_name["injection"], result.records.len(), "{by_name:?}");
    assert_eq!(by_name["execute"], strikes, "{by_name:?}");
    assert_eq!(by_name["compare"], strikes, "{by_name:?}");

    // Metadata embeds the campaign identity and the golden profile.
    let meta = json::as_obj(json::get(top, "metadata").unwrap()).unwrap();
    assert_eq!(json::get_str(meta, "kernel"), Ok("dgemm"));
    assert_eq!(json::get_str(meta, "input"), Ok("32x32"));
    assert_eq!(
        json::get_usize(meta, "injections"),
        Ok(result.records.len())
    );
    assert_eq!(json::get_usize(meta, "tiles"), Ok(result.profile.tiles));
    assert_eq!(
        json::get_usize(meta, "total_ops"),
        Ok(result.profile.total_ops as usize)
    );
    assert_eq!(
        json::get_usize(meta, "loads"),
        Ok(result.profile.loads as usize)
    );
    assert_eq!(
        json::get_usize(meta, "stores"),
        Ok(result.profile.stores as usize)
    );
    assert_eq!(json::get_usize(meta, "dropped_spans"), Ok(0));
}
