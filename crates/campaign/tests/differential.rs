//! The batched fork path must be invisible to the science. Full
//! re-execution survives here, and only here, as the test oracle:
//!
//! * engine level — a strike forked off a warm golden-prefix bucket is
//!   **bit-identical** to the same strike run from tile 0 (output,
//!   strike resolutions, execution profile) for every strike target, on
//!   both paper devices, across the paper kernels, and the dirty-region
//!   sparse diff produces the identical [`ErrorReport`] as a dense diff;
//! * campaign level — every index replayed from tile 0 with a dense
//!   compare ([`oracle`]) reproduces the batched campaign's records and
//!   summary, for an uninterrupted run and across kill → resume.

use std::path::PathBuf;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::{Engine, RunOutcome, RunScratch, WarmState};
use radcrit_accel::snapshot::{SnapshotPolicy, SnapshotSet};
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit_accel::trace::ExecutionTrace;
use radcrit_campaign::runner::{
    compare_with_logical_coords, compare_with_logical_coords_sparse, stream_seed,
};
use radcrit_campaign::telemetry::Telemetry;
use radcrit_campaign::{
    Campaign, CampaignResult, InjectionOutcome, InjectionRecord, KernelSpec, RunOptions, SdcDetail,
};
use radcrit_core::report::ErrorReport;
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_kernels::Workload;

/// Every [`StrikeTarget`] variant, including each scheduler effect.
fn all_targets() -> Vec<StrikeTarget> {
    vec![
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
    ]
}

fn devices() -> Vec<DeviceConfig> {
    vec![DeviceConfig::kepler_k40(), DeviceConfig::xeon_phi_3120a()]
}

fn kernels() -> Vec<KernelSpec> {
    vec![
        KernelSpec::Dgemm { n: 32 },
        KernelSpec::HotSpot {
            rows: 16,
            cols: 16,
            iterations: 4,
        },
        KernelSpec::LavaMd {
            grid: 3,
            particles: 4,
        },
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Mismatches keyed for bit-exact comparison (`Mismatch` holds `f64`s,
/// and a NaN read would defeat plain `PartialEq` even when the reports
/// agree bit for bit).
fn mismatch_bits(report: &ErrorReport) -> Vec<([usize; 3], u64, u64)> {
    report
        .mismatches()
        .iter()
        .map(|m| (m.coord(), m.expected().to_bits(), m.read().to_bits()))
        .collect()
}

/// Forks `strike` off a bucket restored from `snaps` and advanced to the
/// strike tile, recycling `reuse`'s allocations the way the runner does.
/// Returns the outcome, the warm state for the next restore, and the
/// fork's (suffix-only) execution trace.
fn fork(
    engine: &Engine,
    kernel: &mut (dyn Workload + Send),
    snaps: &SnapshotSet,
    strike: StrikeSpec,
    seed: u64,
    scratch: &mut RunScratch,
    reuse: Option<WarmState>,
) -> (RunOutcome, WarmState, ExecutionTrace) {
    let mut warm = engine
        .warm_restore(kernel, snaps, strike.at_tile, scratch, reuse)
        .expect("restore")
        .expect("a snapshot covers the strike");
    engine
        .warm_advance(kernel, &mut warm, strike.at_tile)
        .expect("advance");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = ExecutionTrace::new();
    let run = engine
        .run(
            kernel,
            &[strike],
            &mut rng,
            Some((&warm, scratch)),
            Some(&mut trace),
        )
        .expect("forked run");
    (run, warm, trace)
}

/// The strike run from tile 0 — the reference path — and its trace.
fn reference(
    engine: &Engine,
    kernel: &mut (dyn Workload + Send),
    strike: StrikeSpec,
    seed: u64,
) -> (RunOutcome, ExecutionTrace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = ExecutionTrace::new();
    let run = engine
        .run(kernel, &[strike], &mut rng, None, Some(&mut trace))
        .expect("reference run");
    assert!(run.dirty.is_none(), "a run from tile 0 has no dirty region");
    (run, trace)
}

/// The tentpole invariant: for every strike target on every device and
/// kernel, forking off warm golden state yields the same `RunOutcome` a
/// run from tile 0 produces — outputs compared bit for bit (so NaNs
/// count), resolutions and profile by structural equality — and the
/// dirty region drives a sparse diff equal to the dense diff.
#[test]
fn forked_runs_are_bit_identical_to_reference_runs_everywhere() {
    for device in devices() {
        for spec in kernels() {
            let engine = Engine::new(device.clone());
            let mut kernel = spec.build(7).expect("kernel builds");
            let policy = SnapshotPolicy {
                stride: 2,
                max_bytes: 0,
            };
            let (golden, snaps) = engine
                .golden_snapshotted(kernel.as_mut(), &policy)
                .expect("golden run");
            assert!(
                !snaps.is_empty(),
                "{spec:?} on {:?} captured no snapshots",
                device.kind()
            );
            let tiles = kernel.tile_count();
            let mut scratch = RunScratch::new();
            let mut warm = None;
            for (t, target) in all_targets().into_iter().enumerate() {
                for at_tile in [0, tiles / 2, tiles - 1] {
                    let strike = StrikeSpec::new(at_tile, target);
                    let seed = 1000 + t as u64;
                    let (full, full_trace) = reference(&engine, kernel.as_mut(), strike, seed);
                    let (forked, w, forked_trace) = fork(
                        &engine,
                        kernel.as_mut(),
                        &snaps,
                        strike,
                        seed,
                        &mut scratch,
                        warm.take(),
                    );
                    let ctx = format!(
                        "{spec:?} on {:?}, {target:?} at tile {at_tile}",
                        device.kind()
                    );
                    // The forked trace holds exactly the reference trace's
                    // tiles from the fork instant on: every tile a strike
                    // there can touch (event provenance reads these).
                    let suffix: Vec<_> = full_trace
                        .tiles()
                        .iter()
                        .filter(|t| t.pos >= w.next_tile())
                        .copied()
                        .collect();
                    assert_eq!(forked_trace.tiles(), &suffix[..], "trace: {ctx}");
                    warm = Some(w);
                    assert_eq!(bits(&full.output), bits(&forked.output), "output: {ctx}");
                    assert_eq!(full.resolutions, forked.resolutions, "resolutions: {ctx}");
                    assert_eq!(full.profile, forked.profile, "profile: {ctx}");
                    assert_eq!(
                        full.strike_delivered, forked.strike_delivered,
                        "delivery: {ctx}"
                    );

                    let dirty = forked
                        .dirty
                        .as_ref()
                        .expect("forked run has a dirty region");
                    let sparse = compare_with_logical_coords_sparse(
                        &golden.output,
                        &forked.output,
                        kernel.as_ref(),
                        dirty,
                    );
                    let dense =
                        compare_with_logical_coords(&golden.output, &full.output, kernel.as_ref());
                    assert_eq!(
                        mismatch_bits(&sparse),
                        mismatch_bits(&dense),
                        "sparse vs dense diff: {ctx}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized corner of the same invariant: arbitrary strike tiles,
    /// RNG seeds, masks and op indices on DGEMM/K40.
    #[test]
    fn forked_dgemm_runs_are_bit_identical(
        at_tile in 0usize..4,
        seed in 0u64..1 << 32,
        bit in 0u32..64,
        op_index in 0u64..600,
        target_kind in 0usize..4,
    ) {
        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut kernel = KernelSpec::Dgemm { n: 32 }.build(seed).expect("kernel builds");
        let (_, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &SnapshotPolicy::default())
            .expect("golden run");
        let mask = 1u64 << bit;
        let target = match target_kind {
            0 => StrikeTarget::L2 { mask },
            1 => StrikeTarget::RegisterFile { mask, op_index },
            2 => StrikeTarget::Fpu { mask, op_index },
            _ => StrikeTarget::Scheduler(SchedulerEffect::RedirectTile),
        };
        let strike = StrikeSpec::new(at_tile, target);
        let (full, _) = reference(&engine, kernel.as_mut(), strike, seed);
        let (forked, _, _) = fork(
            &engine,
            kernel.as_mut(),
            &snaps,
            strike,
            seed,
            &mut RunScratch::new(),
            None,
        );
        prop_assert_eq!(bits(&full.output), bits(&forked.output));
        prop_assert_eq!(full.resolutions, forked.resolutions);
        prop_assert_eq!(full.profile, forked.profile);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch scheduler's compare-setup reuse: one bucket's golden
    /// suffix spans (indexed once by `warm_restore`) unioned with each
    /// fork's own store log must make the sparse compare equivalent to
    /// a full-buffer compare for *every* injection in the bucket —
    /// random masks, sites and op indices.
    #[test]
    fn bucket_dirty_union_makes_sparse_compare_exhaustive(
        seed in 0u64..1 << 32,
        bit in 0u32..64,
        target_kind in 0usize..3,
    ) {
        use radcrit_core::compare::{compare_slices, compare_slices_sparse};

        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut kernel = KernelSpec::Dgemm { n: 32 }.build(7).expect("kernel builds");
        let policy = SnapshotPolicy { stride: 2, max_bytes: 0 };
        let (golden, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &policy)
            .expect("golden run");
        let tiles = kernel.tile_count();
        // One bucket: every strike tile sharing the snapshot nearest the
        // middle of the run, executed fork-by-fork off one warm restore
        // exactly as the runner does.
        let resume = snaps.resume_tile(tiles / 2).expect("snapshot exists");
        let mut scratch = RunScratch::new();
        let mut warm = engine
            .warm_restore(kernel.as_mut(), &snaps, tiles / 2, &mut scratch, None)
            .expect("restore")
            .expect("dgemm is resumable");
        let mask = 1u64 << bit;
        for at_tile in resume..tiles {
            let target = match target_kind {
                0 => StrikeTarget::L2 { mask },
                1 => StrikeTarget::Fpu { mask, op_index: seed % 200 },
                _ => StrikeTarget::RegisterFile { mask, op_index: seed % 97 },
            };
            let strike = StrikeSpec::new(at_tile, target);
            engine
                .warm_advance(kernel.as_mut(), &mut warm, at_tile)
                .expect("advance");
            let mut rng = StdRng::seed_from_u64(seed ^ at_tile as u64);
            let forked = engine
                .run(kernel.as_mut(), &[strike], &mut rng, Some((&warm, &mut scratch)), None)
                .expect("forked run");
            let dirty = forked.dirty.as_ref().expect("forked run has a dirty region");
            let shape = kernel.logical_shape();
            let dense = compare_slices(&golden.output, &forked.output, shape).expect("dense");
            let sparse = compare_slices_sparse(&golden.output, &forked.output, shape, dirty)
                .expect("sparse");
            prop_assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense));
        }
    }
}

/// The campaign-level oracle: replays every index of `campaign` on the
/// reference path — a golden run without snapshots, then per index the
/// runner's RNG stream ([`stream_seed`]), the sampled plan, `Engine::run`
/// from tile 0 and a dense compare of the whole output — in index order
/// on one thread. No batch scheduler, warm state or dirty region is
/// involved.
fn oracle(campaign: &Campaign) -> CampaignResult {
    let engine = Engine::new(campaign.device.clone());
    let mut kernel = campaign.kernel.build(campaign.seed).expect("kernel builds");
    let golden = engine.golden(kernel.as_mut()).expect("golden run");
    let sampler = FaultSampler::new(&campaign.device, &golden.profile);
    let records = (0..campaign.injections)
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(stream_seed(campaign.seed, index));
            let spec = match sampler.sample(&mut rng) {
                InjectionPlan::Strike(spec) => spec,
                fatal => {
                    return InjectionRecord {
                        index,
                        site: "fatal".into(),
                        at_tile: None,
                        delivered: true,
                        outcome: match fatal {
                            InjectionPlan::Crash => InjectionOutcome::Crash,
                            _ => InjectionOutcome::Hang,
                        },
                    }
                }
            };
            let run = engine
                .run(kernel.as_mut(), &[spec], &mut rng, None, None)
                .expect("reference run");
            // A run the engine proved golden-equivalent stopped early and
            // holds stale bytes past its exit tile: it is masked by the
            // engine's contract, not by a compare.
            let report = if run.golden_equivalent {
                ErrorReport::new(kernel.logical_shape(), Vec::new())
            } else {
                compare_with_logical_coords(&golden.output, &run.output, kernel.as_ref())
            };
            let outcome = if report.is_sdc() {
                InjectionOutcome::Sdc(SdcDetail {
                    criticality: report.criticality(&campaign.tolerance, &campaign.classifier),
                    output_len: golden.output.len(),
                })
            } else {
                InjectionOutcome::Masked
            };
            InjectionRecord {
                index,
                site: spec.target.site_name().to_owned(),
                at_tile: Some(spec.at_tile),
                delivered: run.strike_delivered,
                outcome,
            }
        })
        .collect();
    CampaignResult {
        campaign: campaign.clone(),
        sigma_total: sampler.table().total(),
        output_len: golden.output.len(),
        profile: golden.profile,
        records,
        telemetry: Telemetry::new().snapshot(),
        shard: None,
    }
}

fn temp_path(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "radcrit-differential-{tag}-{}.jsonl",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Runs `campaign` to `budget` records into a fresh checkpoint (the
/// deterministic stand-in for a kill), then resumes it to completion.
fn killed_and_resumed(campaign: &Campaign, budget: usize, tag: &str) -> CampaignResult {
    let path = temp_path(tag);
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(budget),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(partial.records.len(), budget);
    assert!(!partial.is_complete());
    let resumed = campaign.resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(resumed.is_complete());
    resumed
}

/// The batch scheduler and the fork path are invisible to the science:
/// a campaign's records and summary equal the reference oracle's, for
/// all three kernels, uninterrupted and across kill → resume.
#[test]
fn batched_campaigns_equal_the_reference_oracle_across_kernels() {
    for spec in kernels() {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let want = oracle(&campaign);
        let batched = campaign.run().unwrap();
        assert_eq!(batched.records, want.records, "{spec:?} records");
        assert_eq!(batched.profile, want.profile, "{spec:?} golden profile");
        assert_eq!(batched.summary(), want.summary(), "{spec:?} summary");
        assert_eq!(
            batched.summary().to_json(),
            want.summary().to_json(),
            "{spec:?} summary JSON bytes"
        );

        let resumed = killed_and_resumed(&campaign, 20, "oracle-kill-resume");
        assert_eq!(resumed.records, want.records, "{spec:?} resumed records");
        assert_eq!(
            resumed.summary(),
            want.summary(),
            "{spec:?} resumed summary"
        );
    }
}

/// The SIMD execution core is invisible to the science: a campaign run
/// with dispatch pinned to the scalar reference (`--scalar`) produces
/// records, event-stream bytes, and a summary bit-identical to the
/// default vectorized run, across all kernels — including a resumed
/// run whose checkpoint was written by the *other* executor.
#[test]
fn scalar_pinned_campaigns_are_bit_identical_to_vectorized() {
    for spec in kernels() {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let run = |force_scalar: bool, tag: &str| {
            let events = temp_path(&format!("scalar-events-{tag}"));
            let result = campaign
                .run_with(&RunOptions {
                    force_scalar,
                    events_out: Some(events.clone()),
                    events_sample: 1,
                    ..RunOptions::default()
                })
                .unwrap();
            let stream = std::fs::read(&events).unwrap();
            std::fs::remove_file(&events).ok();
            (result, stream)
        };
        let (vectorized, vec_events) = run(false, "off");
        let (pinned, pin_events) = run(true, "on");
        assert_eq!(vectorized.records, pinned.records, "{spec:?} records");
        assert_eq!(vec_events, pin_events, "{spec:?} event stream");
        assert_eq!(vectorized.summary(), pinned.summary(), "{spec:?} summary");
        assert_eq!(
            vectorized.summary().to_json(),
            pinned.summary().to_json(),
            "{spec:?} summary JSON bytes"
        );
    }
}

/// A campaign killed mid-run under one executor and resumed under the
/// other reconstructs the uninterrupted summary: checkpoints are
/// ISA-portable.
#[test]
fn checkpoint_resumes_across_executors() {
    let spec = KernelSpec::Dgemm { n: 48 };
    let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 40, 11).with_workers(2);
    let reference = campaign
        .run_with(&RunOptions {
            force_scalar: true,
            ..RunOptions::default()
        })
        .unwrap();
    let path = temp_path("cross-isa-resume");
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(17),
            ..RunOptions::default()
        })
        .unwrap();
    assert!(!partial.is_complete());
    let resumed = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            resume: true,
            force_scalar: true,
            ..RunOptions::default()
        })
        .unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, reference.records);
    assert_eq!(resumed.summary(), reference.summary());
    std::fs::remove_file(&path).ok();
}

/// Under the batch scheduler the checkpoint records completion out of
/// plan order; kill → resume must still reconstruct the oracle's
/// summary bit for bit.
#[test]
fn killed_batched_campaign_resumes_out_of_plan_order_to_the_oracle_summary() {
    let campaign = Campaign::new(
        DeviceConfig::kepler_k40(),
        KernelSpec::Dgemm { n: 32 },
        60,
        7,
    );
    let want = oracle(&campaign);

    let path = temp_path("batched-kill-resume");
    // One worker makes the checkpoint's line order deterministic: the
    // bucket-sorted execution order. Budget truncation happens before
    // the sort, so the completed *set* is still {0..25} — the index
    // prefix — while the *order* the checkpoint records completion in
    // genuinely leaves plan order.
    let partial = campaign
        .clone()
        .with_workers(1)
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(25),
            ..RunOptions::default()
        })
        .unwrap();
    assert_eq!(partial.records.len(), 25);
    let completed: Vec<usize> = partial.records.iter().map(|r| r.index).collect();
    assert_eq!(
        completed,
        (0..25).collect::<Vec<_>>(),
        "a budget stop must complete the index prefix"
    );
    let checkpoint_order: Vec<u64> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix("{\"i\":")?;
            rest.split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .collect();
    assert_eq!(checkpoint_order.len(), 25, "one line per completed index");
    let mut sorted = checkpoint_order.clone();
    sorted.sort_unstable();
    assert_ne!(
        checkpoint_order, sorted,
        "the checkpoint should record completion in bucket order, not plan order"
    );

    let resumed = campaign.with_workers(2).resume(&path).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.records, want.records);
    assert_eq!(resumed.summary(), want.summary());
    std::fs::remove_file(&path).ok();
}
