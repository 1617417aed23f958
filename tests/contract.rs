//! The bit-identity contract, checked on every default `cargo test`.
//!
//! A fixed seed must give the same science however radcrit reaches a
//! faulty output. This suite guards the four ways it can get there:
//!
//! * (a) a strike forked off warm golden-prefix state ≡ the same strike
//!   run from tile 0, for every strike target, including the sparse
//!   dirty-region diff ≡ the dense diff. Each fork runs through a
//!   `ForkCursor`, the runner's fork path, so some register strikes
//!   start at their victim, past the strike tile — and some forks take
//!   the contained-fault exit (stop once the spent fault can no longer
//!   reach a loaded buffer, splice the golden suffix), some of them with
//!   an L2 flip still pending on a line no later tile touches; the gate
//!   asserts all three paths are taken;
//! * (b) a campaign pinned to the scalar executor ≡ the vectorized one;
//! * (c) three shard runs folded together ≡ the one-shot summary;
//! * (d) a budget-stopped checkpoint plus resume ≡ an uninterrupted run,
//!   even when each stop leaves a torn final line behind (a kill
//!   mid-write) and the run is resumed twice.
//!
//! The exhaustive versions (both devices, all kernels, proptests) live
//! in the `radcrit-campaign` crate's `differential` and
//! `shard_determinism` suites.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::engine::{Engine, ForkCursor, RunOutcome};
use radcrit::accel::{DeviceConfig, SchedulerEffect, SnapshotPolicy, StrikeSpec, StrikeTarget};
use radcrit::campaign::{Campaign, CampaignSummary, KernelSpec, RunOptions};
use radcrit::core::exec;
use radcrit::core::report::ErrorReport;
use radcrit::obs::{CriticalityAggregator, MetricsRegistry};

const INJECTIONS: usize = 30;

fn campaign() -> Campaign {
    Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        INJECTIONS,
        2017,
    )
    .with_workers(2)
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "radcrit-contract-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn mismatch_bits(report: &ErrorReport) -> Vec<([usize; 3], u64, u64)> {
    report
        .mismatches()
        .iter()
        .map(|m| (m.coord(), m.expected().to_bits(), m.read().to_bits()))
        .collect()
}

#[test]
fn forked_runs_equal_reference_runs_for_every_target() {
    let targets = [
        StrikeTarget::L2 { mask: 1 << 61 },
        StrikeTarget::L1 { mask: 1 << 52 },
        StrikeTarget::RegisterFile {
            mask: 1 << 63,
            op_index: 3,
        },
        StrikeTarget::VectorRegister {
            mask: 1 << 40,
            lanes: 8,
            op_index: 1,
        },
        StrikeTarget::Fpu {
            mask: 1 << 62,
            op_index: 2,
        },
        StrikeTarget::Sfu {
            scale: 4.0,
            op_index: 0,
        },
        StrikeTarget::CoreControl {
            elems: 4,
            store_index: 1,
        },
        StrikeTarget::UnitGarble,
        StrikeTarget::Scheduler(SchedulerEffect::SkipTile),
        StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
        StrikeTarget::Scheduler(SchedulerEffect::GarbleTile),
    ];
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(Arc::clone(&metrics));
    let mut kernel = KernelSpec::Dgemm { n: 32 }.build(7).expect("kernel builds");
    let policy = SnapshotPolicy {
        stride: 2,
        max_bytes: 0,
    };
    let (golden, snaps) = engine
        .golden_snapshotted(kernel.as_mut(), &policy)
        .expect("golden run");
    let tiles = kernel.tile_count();
    let mut cursor = ForkCursor::new(engine.clone(), Arc::new(snaps));
    for (t, target) in targets.into_iter().enumerate() {
        for at_tile in [0, tiles / 2, tiles - 1] {
            let strike = StrikeSpec::new(at_tile, target);
            let seed = 1000 + t as u64;
            let ctx = format!("{target:?} at tile {at_tile}");

            let mut rng = StdRng::seed_from_u64(seed);
            let full = engine
                .run(kernel.as_mut(), &[strike], &mut rng, None)
                .expect("reference run");
            let mut rng = StdRng::seed_from_u64(seed);
            let forked = cursor
                .run(kernel.as_mut(), &[strike], &mut rng, None)
                .expect("forked run");
            assert!(
                forked.dirty.is_some(),
                "a snapshot covers every tile: {ctx}"
            );

            let output = |run: &RunOutcome| run.output().map(bits);
            assert_eq!(output(&full), output(&forked), "output: {ctx}");
            assert_eq!(full.resolutions, forked.resolutions, "resolutions: {ctx}");
            assert_eq!(full.profile, forked.profile, "profile: {ctx}");
            let shape = kernel.logical_shape();
            let coord = |i| kernel.error_coord(i);
            let sparse = forked.compare(&golden.output, shape, coord);
            let dense = full.compare(&golden.output, shape, coord);
            assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense), "diff: {ctx}");
        }
    }
    let snap = metrics.snapshot();
    for (counter, path) in [
        (
            "radcrit_run_contained_exits_total",
            "the contained-fault exit",
        ),
        (
            "radcrit_run_flip_exits_total",
            "the exit with a flip pending",
        ),
        ("radcrit_bucket_deferred_forks_total", "a deferred start"),
        ("radcrit_run_skipped_tiles_total", "a skipped tile"),
    ] {
        let n = snap.counter(counter, &[]).unwrap_or(0);
        assert!(n > 0, "no fork took {path} ({counter} = {n})");
    }
}

#[test]
fn scalar_pinned_campaign_equals_the_vectorized_one() {
    let vectorized = campaign().run().unwrap();
    let pinned = {
        let _scalar = exec::scalar_scope();
        campaign().run().unwrap()
    };
    assert_eq!(vectorized.records, pinned.records);
    assert_eq!(vectorized.summary().to_json(), pinned.summary().to_json());
}

#[test]
fn three_shards_fold_to_the_one_shot_summary() {
    let one_shot = campaign().run().unwrap();
    let mut agg = CriticalityAggregator::new();
    for (s, range) in [(0, 9), (9, 21), (21, INJECTIONS)].into_iter().enumerate() {
        let events = temp_path(&format!("shard{s}"));
        let shard = campaign()
            .run_with(&RunOptions {
                events_out: Some(events.clone()),
                shard: Some(range),
                ..RunOptions::default()
            })
            .unwrap();
        assert_eq!(shard.records, one_shot.records[range.0..range.1]);
        for line in std::fs::read_to_string(&events).unwrap().lines() {
            agg.fold_line(line).unwrap();
        }
        std::fs::remove_file(&events).ok();
    }
    assert_eq!(
        CampaignSummary::from_analytics(&agg).to_json(),
        one_shot.summary().to_json()
    );
}

/// What a kill mid-write leaves at the end of a checkpoint: a record
/// line without its newline.
fn tear(path: &Path) {
    let mut f = OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(br#"{"i":29,"site":"l2","at_ti"#).unwrap();
}

#[test]
fn budget_stop_and_resume_equal_an_uninterrupted_run() {
    let uninterrupted = campaign().run().unwrap();
    let path = temp_path("resume");
    let sliced = |resume| RunOptions {
        checkpoint: Some(path.clone()),
        resume,
        budget: Some(INJECTIONS / 3),
        ..RunOptions::default()
    };
    let partial = campaign().run_with(&sliced(false)).unwrap();
    assert!(!partial.is_complete());
    tear(&path);
    // The first resume must cut the fragment off before appending, or
    // the second one finds a damaged complete line.
    let partial = campaign().run_with(&sliced(true)).unwrap();
    assert!(!partial.is_complete());
    tear(&path);
    let resumed = campaign().resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, uninterrupted.records);
    assert_eq!(
        resumed.summary().to_json(),
        uninterrupted.summary().to_json()
    );
}
