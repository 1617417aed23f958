//! The bit-identity contract, checked on every default `cargo test`.
//!
//! A fixed seed must give the same science however radcrit reaches a
//! faulty output. This suite guards the four ways it can get there:
//!
//! * (a) a strike forked off warm golden-prefix state ≡ the same strike
//!   run from tile 0, for every strike target, including the sparse
//!   dirty-region diff ≡ the dense diff;
//! * (b) a campaign pinned to the scalar executor ≡ the vectorized one;
//! * (c) three shard runs folded together ≡ the one-shot summary;
//! * (d) a budget-stopped checkpoint plus resume ≡ an uninterrupted run.
//!
//! The exhaustive versions (both devices, all kernels, proptests) live
//! in the `radcrit-campaign` crate's `differential` and
//! `shard_determinism` suites.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit::accel::engine::{Engine, RunScratch};
use radcrit::accel::{DeviceConfig, SchedulerEffect, SnapshotPolicy, StrikeSpec, StrikeTarget};
use radcrit::campaign::runner::{compare_with_logical_coords, compare_with_logical_coords_sparse};
use radcrit::campaign::{Campaign, CampaignSummary, KernelSpec, RunOptions};
use radcrit::core::report::ErrorReport;
use radcrit::obs::CriticalityAggregator;

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
    let engine = Engine::new(DeviceConfig::kepler_k40());
    let mut kernel = KernelSpec::Dgemm { n: 32 }.build(7).expect("kernel builds");
    let policy = SnapshotPolicy {
        stride: 2,
        max_bytes: 0,
    };
    let (golden, snaps) = engine
        .golden_snapshotted(kernel.as_mut(), &policy)
        .expect("golden run");
    let tiles = kernel.tile_count();
    let mut scratch = RunScratch::new();
    let mut warm = None;
    for (t, target) in targets.into_iter().enumerate() {
        for at_tile in [0, tiles / 2, tiles - 1] {
            let strike = StrikeSpec::new(at_tile, target);
            let seed = 1000 + t as u64;
            let ctx = format!("{target:?} at tile {at_tile}");

            let mut rng = StdRng::seed_from_u64(seed);
            let full = engine
                .run(kernel.as_mut(), &[strike], &mut rng, None, None)
                .expect("reference run");

            let mut w = engine
                .warm_restore(kernel.as_mut(), &snaps, at_tile, &mut scratch, warm.take())
                .expect("restore")
                .expect("a snapshot covers every tile");
            engine
                .warm_advance(kernel.as_mut(), &mut w, at_tile)
                .expect("advance");
            let mut rng = StdRng::seed_from_u64(seed);
            let forked = engine
                .run(
                    kernel.as_mut(),
                    &[strike],
                    &mut rng,
                    Some((&w, &mut scratch)),
                    None,
                )
                .expect("forked run");
            warm = Some(w);

            assert_eq!(bits(&full.output), bits(&forked.output), "output: {ctx}");
            assert_eq!(full.resolutions, forked.resolutions, "resolutions: {ctx}");
            assert_eq!(full.profile, forked.profile, "profile: {ctx}");
            let dirty = forked
                .dirty
                .as_ref()
                .expect("forked runs carry a dirty region");
            let sparse = compare_with_logical_coords_sparse(
                &golden.output,
                &forked.output,
                kernel.as_ref(),
                dirty,
            );
            let dense = compare_with_logical_coords(&golden.output, &full.output, kernel.as_ref());
            assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense), "diff: {ctx}");
        }
    }
}

#[test]
fn scalar_pinned_campaign_equals_the_vectorized_one() {
    let vectorized = campaign().run().unwrap();
    let pinned = campaign()
        .run_with(&RunOptions {
            force_scalar: true,
            ..RunOptions::default()
        })
        .unwrap();
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

#[test]
fn budget_stop_and_resume_equal_an_uninterrupted_run() {
    let uninterrupted = campaign().run().unwrap();
    let path = temp_path("resume");
    let partial = campaign()
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(INJECTIONS / 3),
            ..RunOptions::default()
        })
        .unwrap();
    assert!(!partial.is_complete());
    let resumed = campaign().resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, uninterrupted.records);
    assert_eq!(
        resumed.summary().to_json(),
        uninterrupted.summary().to_json()
    );
}
