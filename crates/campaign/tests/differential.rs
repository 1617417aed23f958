//! The batched fork path must be invisible to the science. Full
//! re-execution survives here, and only here, as the test oracle:
//!
//! * engine level — a strike forked off a warm golden-prefix bucket by a
//!   [`ForkCursor`] (the runner's fork path) is **bit-identical** to the
//!   same strike run from tile 0 (output, strike resolutions, execution
//!   profile, trace) for every strike target, on both paper devices,
//!   across the paper kernels, and the dirty-region sparse diff produces
//!   the identical [`ErrorReport`] as a dense diff — with the
//!   contained-fault exit proven to fire (it splices the golden suffix)
//!   exactly where it may, with L2 flips still pending too, and register
//!   strikes forked from their victim tile (the forks a cursor cannot
//!   take — a register strike at its strike tile, one past its victim —
//!   are `radcrit-accel`'s engine unit tests);
//! * campaign level — every index replayed from tile 0 with a dense
//!   compare ([`oracle`]) reproduces the batched campaign's records and
//!   summary, for an uninterrupted run and across kill → resume.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_accel::cache::CacheGeometry;
use radcrit_accel::config::{DeviceConfig, DeviceKind};
use radcrit_accel::engine::{Engine, ForkCursor, RunOutcome};
use radcrit_accel::snapshot::SnapshotPolicy;
use radcrit_accel::strike::{SchedulerEffect, StrikeSpec, StrikeTarget};
use radcrit_accel::trace::ExecutionTrace;
use radcrit_campaign::runner::stream_seed;
use radcrit_campaign::telemetry::Telemetry;
use radcrit_campaign::{
    Campaign, CampaignResult, InjectionOutcome, InjectionRecord, KernelSpec, RunOptions, SdcDetail,
};
use radcrit_core::exec;
use radcrit_core::report::ErrorReport;
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_kernels::Workload;
use radcrit_obs::MetricsRegistry;

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

/// Forks `strike` through `cursor` — off its warm bucket, restored and
/// advanced the way the runner's cursor does it. Returns the outcome,
/// the tile the fork started at (the strike tile, or a register strike's
/// victim) and the fork's (suffix-only) execution trace.
fn fork(
    cursor: &mut ForkCursor,
    kernel: &mut (dyn Workload + Send),
    strike: StrikeSpec,
    seed: u64,
) -> (RunOutcome, usize, ExecutionTrace) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, start) = cursor
        .bucket(kernel, &[strike], &rng)
        .expect("a snapshot covers the strike");
    let mut trace = ExecutionTrace::new();
    let run = cursor
        .run(kernel, &[strike], &mut rng, Some(&mut trace))
        .expect("forked run");
    (run, start, trace)
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
        .run(kernel, &[strike], &mut rng, Some(&mut trace))
        .expect("reference run");
    assert!(run.dirty.is_none(), "a run from tile 0 has no dirty region");
    (run, trace)
}

/// Strikes that corrupt exactly one tile's computation and leave the
/// address stream alone: once the victim tile has run and nothing loads
/// what it stored, the fork may stop and splice the golden suffix.
fn single_tile_target(target: StrikeTarget) -> bool {
    matches!(
        target,
        StrikeTarget::Fpu { .. }
            | StrikeTarget::Sfu { .. }
            | StrikeTarget::RegisterFile { .. }
            | StrikeTarget::VectorRegister { .. }
            | StrikeTarget::CoreControl { .. }
            | StrikeTarget::Scheduler(SchedulerEffect::GarbleTile)
    )
}

fn counter(metrics: &MetricsRegistry, name: &str) -> u64 {
    metrics.snapshot().counter(name, &[]).unwrap_or(0)
}

fn contained_exits(metrics: &MetricsRegistry) -> u64 {
    counter(metrics, "radcrit_run_contained_exits_total")
}

/// Asserts a fork reproduces the reference run: output bits,
/// resolutions, profile and delivery, the reference trace from the
/// fork's start on, and a sparse diff over its dirty region equal to the
/// dense diff.
#[allow(clippy::too_many_arguments)]
fn assert_fork_matches(
    ctx: &str,
    kernel: &(dyn Workload + Send),
    golden: &[f64],
    full: &RunOutcome,
    full_trace: &ExecutionTrace,
    forked: &RunOutcome,
    forked_trace: &ExecutionTrace,
    start: usize,
) {
    // The forked trace holds exactly the reference trace's tiles from
    // the fork instant on: every tile a strike there can touch (event
    // provenance reads these).
    let suffix: Vec<_> = full_trace
        .tiles()
        .iter()
        .filter(|t| t.pos >= start)
        .copied()
        .collect();
    assert_eq!(forked_trace.tiles(), &suffix[..], "trace: {ctx}");
    let output = |run: &RunOutcome| run.output().map(bits);
    assert_eq!(output(full), output(forked), "output: {ctx}");
    assert_eq!(full.resolutions, forked.resolutions, "resolutions: {ctx}");
    assert_eq!(full.profile, forked.profile, "profile: {ctx}");
    assert_eq!(
        full.strike_delivered, forked.strike_delivered,
        "delivery: {ctx}"
    );
    assert!(
        forked.dirty.is_some(),
        "forked run has a dirty region: {ctx}"
    );
    let shape = kernel.logical_shape();
    let coord = |i| kernel.error_coord(i);
    let sparse = forked.compare(golden, shape, coord);
    let dense = full.compare(golden, shape, coord);
    assert_eq!(
        mismatch_bits(&sparse),
        mismatch_bits(&dense),
        "sparse vs dense diff: {ctx}"
    );
}

/// The tentpole invariant: for every strike target on every device and
/// kernel, forking off warm golden state yields the same `RunOutcome` a
/// run from tile 0 produces — outputs compared bit for bit (so NaNs
/// count), resolutions and profile by structural equality — and the
/// dirty region drives a sparse diff equal to the dense diff. Register
/// strikes fork at their victim (the runner's deferred start).
///
/// The contained-fault exit must not make this pass vacuously: on DGEMM
/// and LavaMD (whose output nothing loads) a single-tile fault exits
/// after its victim tile whenever a suffix is left to splice, and it
/// never exits for a skipped or redirected tile. A HotSpot strike before
/// the last iteration exits only once its taint is empty (the ping-pong
/// buffer it perturbs is loaded again by every later iteration), so the
/// run's output is golden's. On DGEMM/K40 some L2 strike exits with its
/// flip still pending, and some L2 fork skips tiles its flip cannot
/// reach; no skip or redirect fork ever skips a tile (its address stream
/// is not golden's, so it keeps the cache model).
#[test]
fn forked_runs_are_bit_identical_to_reference_runs_everywhere() {
    // Contained exits per target over DGEMM and LavaMD on both devices.
    let mut target_exits = vec![0; all_targets().len()];
    let mut dgemm_k40_l2_flip_exits = 0;
    let mut dgemm_k40_l2_skipped_tiles = 0;
    let mut deferred_forks = 0;
    for device in devices() {
        for spec in kernels() {
            let metrics = Arc::new(MetricsRegistry::new());
            let engine = Engine::new(device.clone()).with_metrics(Arc::clone(&metrics));
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
            let last_launch = tiles - kernel.tiles_per_launch();
            let mut cursor = ForkCursor::new(engine.clone(), Arc::new(snaps));
            for (t, target) in all_targets().into_iter().enumerate() {
                for at_tile in [0, tiles / 2, tiles - 1] {
                    let strike = StrikeSpec::new(at_tile, target);
                    let seed = 1000 + t as u64;
                    let (full, full_trace) = reference(&engine, kernel.as_mut(), strike, seed);
                    let exits_before = contained_exits(&metrics);
                    let flips_before = counter(&metrics, "radcrit_run_flip_exits_total");
                    let skipped_before = counter(&metrics, "radcrit_run_skipped_tiles_total");
                    let (forked, start, forked_trace) =
                        fork(&mut cursor, kernel.as_mut(), strike, seed);
                    if start != at_tile {
                        deferred_forks += 1;
                    }
                    let ctx = format!(
                        "{spec:?} on {:?}, {target:?} at tile {at_tile} forked at {start}",
                        device.kind()
                    );
                    let exited = contained_exits(&metrics) - exits_before;
                    assert!(exited <= 1, "one exit per fork: {ctx}");
                    if !matches!(spec, KernelSpec::HotSpot { .. }) {
                        target_exits[t] += exited;
                    }
                    if matches!(
                        (spec, target, device.kind()),
                        (
                            KernelSpec::Dgemm { .. },
                            StrikeTarget::L2 { .. },
                            DeviceKind::KeplerK40
                        )
                    ) {
                        dgemm_k40_l2_flip_exits +=
                            counter(&metrics, "radcrit_run_flip_exits_total") - flips_before;
                        dgemm_k40_l2_skipped_tiles +=
                            counter(&metrics, "radcrit_run_skipped_tiles_total") - skipped_before;
                    }
                    if matches!(
                        target,
                        StrikeTarget::Scheduler(
                            SchedulerEffect::SkipTile | SchedulerEffect::RedirectTile
                        )
                    ) {
                        assert_eq!(
                            counter(&metrics, "radcrit_run_skipped_tiles_total"),
                            skipped_before,
                            "address-stream faults skip no tile: {ctx}"
                        );
                    }
                    let victim = forked.resolutions[0].victim_tile;
                    // Late: struck in the last iteration. Reconverged: the
                    // run's output is golden's, bar a flip left pending at
                    // the exit.
                    let flip_exited =
                        counter(&metrics, "radcrit_run_flip_exits_total") > flips_before;
                    let quiet = at_tile >= last_launch
                        || flip_exited
                        || full
                            .output()
                            .is_none_or(|o| bits(o) == bits(&golden.output));
                    assert_exit_rule(&ctx, spec, target, exited, victim, tiles, quiet);
                    assert_fork_matches(
                        &ctx,
                        kernel.as_ref(),
                        &golden.output,
                        &full,
                        &full_trace,
                        &forked,
                        &forked_trace,
                        start,
                    );
                }
            }
        }
    }
    for (target, exits) in all_targets().into_iter().zip(target_exits) {
        if single_tile_target(target) {
            assert!(exits > 0, "{target:?} never took the contained exit");
        }
    }
    assert!(
        dgemm_k40_l2_flip_exits > 0,
        "no DGEMM/K40 L2 strike exited with its flip pending"
    );
    assert!(
        dgemm_k40_l2_skipped_tiles > 0,
        "no DGEMM/K40 L2 fork skipped a tile"
    );
    assert!(
        deferred_forks > 0,
        "no register strike forked at its victim"
    );
}

/// When a fork may take the contained exit (`exited` is 0 or 1):
/// never for a skipped or redirected tile, for a HotSpot strike only
/// when its taint is empty and its faults are spent — then the run
/// computes golden's output — unless it struck the last iteration
/// (`quiet` holds either), and for a single-tile fault on DGEMM or
/// LavaMD exactly when a suffix is left after its victim.
fn assert_exit_rule(
    ctx: &str,
    spec: KernelSpec,
    target: StrikeTarget,
    exited: u64,
    victim: Option<usize>,
    tiles: usize,
    quiet: bool,
) {
    match (spec, target) {
        (_, StrikeTarget::Scheduler(SchedulerEffect::SkipTile | SchedulerEffect::RedirectTile)) => {
            assert_eq!(exited, 0, "address-stream faults never exit: {ctx}")
        }
        (KernelSpec::HotSpot { .. }, _) if exited == 1 => {
            assert!(quiet, "exit with the ping-pong buffer tainted: {ctx}")
        }
        (KernelSpec::Dgemm { .. } | KernelSpec::LavaMd { .. }, target)
            if single_tile_target(target) =>
        {
            let victim = victim.expect("single-tile faults name a victim");
            assert_eq!(
                exited == 1,
                victim + 1 < tiles,
                "exit after victim tile {victim} iff a suffix is left: {ctx}"
            );
        }
        _ => {}
    }
}

/// Forks `strike` through `cursor` and runs it from tile 0, asserts the two
/// match ([`assert_fork_matches`]) and returns the reference outcome with
/// the fork's contained exits and skipped tiles.
fn fork_and_match(
    engine: &Engine,
    metrics: &MetricsRegistry,
    kernel: &mut (dyn Workload + Send),
    cursor: &mut ForkCursor,
    golden: &[f64],
    strike: StrikeSpec,
    seed: u64,
) -> (RunOutcome, u64, u64) {
    let ctx = format!("{} {strike:?} seed {seed}", kernel.name());
    let (full, full_trace) = reference(engine, kernel, strike, seed);
    let (exits, skipped) = (
        contained_exits(metrics),
        counter(metrics, "radcrit_run_skipped_tiles_total"),
    );
    let (forked, start, forked_trace) = fork(cursor, kernel, strike, seed);
    let (exits, skipped) = (
        contained_exits(metrics) - exits,
        counter(metrics, "radcrit_run_skipped_tiles_total") - skipped,
    );
    assert_fork_matches(
        &ctx,
        kernel,
        golden,
        &full,
        &full_trace,
        &forked,
        &forked_trace,
        start,
    );
    (full, exits, skipped)
}

/// A stencil's perturbation can reconverge bitwise: an FPU strike on a
/// low bit of an op near a stored value perturbs one cell, the fork
/// compares every later store with golden's and skips the tiles that
/// load none of the perturbed cells, and once the contraction has rounded
/// the perturbation away the taint is empty and the fork exits, its
/// output golden's. On HotSpot and on the shallow-water solver some fork
/// does exactly that — it skipped tiles, so its taint outlived the
/// victim — and every fork equals its reference run.
#[test]
fn stencil_forks_whose_perturbation_reconverges_match_the_reference() {
    let specs = [
        KernelSpec::HotSpot {
            rows: 16,
            cols: 16,
            iterations: 12,
        },
        KernelSpec::Shallow {
            rows: 16,
            cols: 16,
            steps: 12,
        },
    ];
    for spec in specs {
        let metrics = Arc::new(MetricsRegistry::new());
        let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(Arc::clone(&metrics));
        let mut kernel = spec.build(7).expect("kernel builds");
        let policy = SnapshotPolicy {
            stride: 2,
            max_bytes: 0,
        };
        let (golden, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &policy)
            .expect("golden run");
        assert!(snaps.journal_bytes() > 0, "{spec:?} journals its stores");
        let mut cursor = ForkCursor::new(engine.clone(), Arc::new(snaps));
        let mut reconverged = 0;
        for at_tile in [0, 2, 4] {
            for op_index in [6, 13, 20, 111] {
                for bit in 0..4 {
                    let target = StrikeTarget::Fpu {
                        mask: 1 << bit,
                        op_index,
                    };
                    let strike = StrikeSpec::new(at_tile, target);
                    let (full, exits, skipped) = fork_and_match(
                        &engine,
                        &metrics,
                        kernel.as_mut(),
                        &mut cursor,
                        &golden.output,
                        strike,
                        at_tile as u64,
                    );
                    if exits == 1
                        && skipped > 0
                        && full
                            .output()
                            .is_some_and(|o| bits(o) == bits(&golden.output))
                    {
                        reconverged += 1;
                    }
                }
            }
        }
        assert!(reconverged > 0, "{spec:?}: no perturbation reconverged");
    }
}

/// A flip that ends inside a skipped tile. The device's caches are so
/// small (four 2-way sets of 64-byte lines) that every HotSpot tile
/// evicts every line resident before it, so an L2 flip at a fork's warm
/// instant ends inside the strike tile. A value-only fork skips that
/// tile when it does not touch the flipped line: it applies the flip's
/// end — a dirty line's XOR written back to memory — from the golden
/// line index, and taints the element it lands on. Some fork skips tiles
/// while its flip reaches the output that way, and every fork equals its
/// reference run.
#[test]
fn a_flip_that_ends_inside_a_skipped_tile_matches_the_reference() {
    let geometry = |bytes| CacheGeometry::new(bytes, 64, 2).expect("geometry");
    let device = DeviceConfig::builder("tiny")
        .units(2)
        .max_threads_per_unit(64)
        .l1(geometry(256))
        .l2(geometry(512))
        .build()
        .expect("device");
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(device).with_metrics(Arc::clone(&metrics));
    let spec = KernelSpec::HotSpot {
        rows: 16,
        cols: 16,
        iterations: 4,
    };
    let mut kernel = spec.build(7).expect("kernel builds");
    let policy = SnapshotPolicy {
        stride: 1,
        max_bytes: 0,
    };
    let (golden, snaps) = engine
        .golden_snapshotted(kernel.as_mut(), &policy)
        .expect("golden run");
    let mut cursor = ForkCursor::new(engine.clone(), Arc::new(snaps));
    let mut written_back_past_a_skip = 0;
    for at_tile in 1..kernel.tile_count() {
        for seed in 0..6 {
            let strike = StrikeSpec::new(at_tile, StrikeTarget::L2 { mask: 1 << 62 });
            let (full, _, skipped) = fork_and_match(
                &engine,
                &metrics,
                kernel.as_mut(),
                &mut cursor,
                &golden.output,
                strike,
                seed,
            );
            if skipped > 0
                && full.strike_delivered
                && full
                    .output()
                    .is_some_and(|o| bits(o) != bits(&golden.output))
            {
                written_back_past_a_skip += 1;
            }
        }
    }
    assert!(
        written_back_past_a_skip > 0,
        "no fork skipped a tile while its flip reached the output"
    );
}

/// A snapshot budget that admits every snapshot but leaves no byte for
/// the store journal: only tiles whose stores are final (HotSpot's last
/// iteration) stay replayable, and every fork still equals its reference
/// run — the journal-free case of the skip rule.
#[test]
fn a_budget_with_room_for_the_snapshots_but_no_journal_keeps_forks_exact() {
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = Engine::new(DeviceConfig::kepler_k40()).with_metrics(Arc::clone(&metrics));
    let spec = KernelSpec::HotSpot {
        rows: 16,
        cols: 16,
        iterations: 4,
    };
    let mut kernel = spec.build(7).expect("kernel builds");
    let capture = |kernel: &mut (dyn Workload + Send), max_bytes| {
        let policy = SnapshotPolicy {
            stride: 2,
            max_bytes,
        };
        engine
            .golden_snapshotted(kernel, &policy)
            .expect("golden run")
    };
    let (golden, full) = capture(kernel.as_mut(), 0);
    assert!(full.journal_bytes() > 0);
    // The smallest budget that still admits every snapshot.
    let (mut lo, mut hi) = (1, 32 << 20);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if capture(kernel.as_mut(), mid).1.len() == full.len() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (_, snaps) = capture(kernel.as_mut(), lo);
    assert_eq!((snaps.len(), snaps.journal_bytes()), (full.len(), 0));
    let mut cursor = ForkCursor::new(engine.clone(), Arc::new(snaps));
    let tiles = kernel.tile_count();
    let mut skipped_any = 0;
    for (t, target) in all_targets().into_iter().enumerate() {
        for at_tile in [0, tiles / 2, tiles - 2, tiles - 1] {
            let strike = StrikeSpec::new(at_tile, target);
            let (_, _, skipped) = fork_and_match(
                &engine,
                &metrics,
                kernel.as_mut(),
                &mut cursor,
                &golden.output,
                strike,
                2000 + t as u64,
            );
            skipped_any += skipped;
        }
    }
    assert!(
        skipped_any > 0,
        "final stores are replayable without a journal"
    );
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
        let mut cursor = ForkCursor::new(engine, Arc::new(snaps));
        let (forked, _, _) = fork(&mut cursor, kernel.as_mut(), strike, seed);
        prop_assert_eq!(full.output().map(bits), forked.output().map(bits));
        prop_assert_eq!(full.resolutions, forked.resolutions);
        prop_assert_eq!(full.profile, forked.profile);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch scheduler's compare-setup reuse: each bucket's golden
    /// suffix spans unioned with each fork's own store log must make the
    /// sparse compare equivalent to a full-buffer compare for *every*
    /// injection in the bucket — random masks, sites and op indices —
    /// with the strikes run in bucket order, one restore per bucket.
    #[test]
    fn bucket_dirty_union_makes_sparse_compare_exhaustive(
        seed in 0u64..1 << 32,
        bit in 0u32..64,
        target_kind in 0usize..3,
    ) {
        use radcrit_core::compare::compare_slices;

        let engine = Engine::new(DeviceConfig::kepler_k40());
        let mut kernel = KernelSpec::Dgemm { n: 32 }.build(7).expect("kernel builds");
        let policy = SnapshotPolicy { stride: 2, max_bytes: 0 };
        let (golden, snaps) = engine
            .golden_snapshotted(kernel.as_mut(), &policy)
            .expect("golden run");
        let mut cursor = ForkCursor::new(engine, Arc::new(snaps));
        let mask = 1u64 << bit;
        let mut plans: Vec<_> = (0..kernel.tile_count())
            .map(|at_tile| {
                let target = match target_kind {
                    0 => StrikeTarget::L2 { mask },
                    1 => StrikeTarget::Fpu { mask, op_index: seed % 200 },
                    _ => StrikeTarget::RegisterFile { mask, op_index: seed % 97 },
                };
                let rng = StdRng::seed_from_u64(seed ^ at_tile as u64);
                let strike = StrikeSpec::new(at_tile, target);
                let bucket = cursor.bucket(kernel.as_ref(), &[strike], &rng);
                (bucket.expect("snapshot exists"), strike, rng)
            })
            .collect();
        plans.sort_by_key(|&(bucket, strike, _)| (bucket, strike.at_tile));
        for (_, strike, mut rng) in plans.iter().cloned() {
            let forked = cursor
                .run(kernel.as_mut(), &[strike], &mut rng, None)
                .expect("forked run");
            prop_assert!(forked.dirty.is_some(), "forked run has a dirty region");
            let shape = kernel.logical_shape();
            let sparse = forked.compare(&golden.output, shape, |i| shape.coord_of(i));
            if let Some(output) = forked.output() {
                let dense = compare_slices(&golden.output, output, shape).expect("dense");
                prop_assert_eq!(mismatch_bits(&sparse), mismatch_bits(&dense));
            }
        }
        let mut resumes: Vec<usize> = plans.iter().map(|&((resume, _), _, _)| resume).collect();
        resumes.dedup();
        prop_assert_eq!(cursor.take_counts().restores, resumes.len() as u64);
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
                .run(kernel.as_mut(), &[spec], &mut rng, None)
                .expect("reference run");
            let report = run.compare(&golden.output, kernel.logical_shape(), |i| {
                kernel.error_coord(i)
            });
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
    // Every early exit is bit-identical by construction, so an engine
    // that stopped taking one would keep every record and show only as
    // lost speed: pin each kernel's per-injection engine counts. Restore
    // and advance counts depend on how the workers interleave buckets;
    // `one_worker_campaigns_restore_once_per_bucket` pins them.
    const PINNED: [&str; 8] = [
        "radcrit_engine_runs_total",
        "radcrit_bucket_forks_total",
        "radcrit_bucket_deferred_forks_total",
        "radcrit_run_dead_strike_exits_total",
        "radcrit_run_contained_exits_total",
        "radcrit_run_flip_exits_total",
        "radcrit_run_skipped_tiles_total",
        "radcrit_snapshot_skipped_tiles_total",
    ];
    let expected: [[u64; 8]; 3] = [
        [39, 38, 0, 1, 19, 0, 21, 0],
        [39, 38, 0, 1, 2, 0, 44, 0],
        [48, 47, 1, 0, 44, 0, 13, 0],
    ];
    for (spec, want_counts) in kernels().into_iter().zip(expected) {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let want = oracle(&campaign);
        let metrics = Arc::new(MetricsRegistry::new());
        let batched = campaign
            .run_with(&RunOptions {
                metrics: Some(Arc::clone(&metrics)),
                ..RunOptions::default()
            })
            .unwrap();
        // Equal records alone would also hold if the scheduler ran every
        // injection from tile 0: the batched run must fork off a warm
        // bucket.
        assert!(
            counter(&metrics, "radcrit_bucket_forks_total") > 0,
            "{spec:?} batched campaign never forked"
        );
        let counts = PINNED.map(|name| counter(&metrics, name));
        assert_eq!(counts, want_counts, "{spec:?} engine counts {PINNED:?}");
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

/// With one worker the plan runs strictly in bucket order, so the fork
/// cursor's restores and advanced tiles are deterministic: pinned here,
/// a cursor that restored more often than once per bucket fails instead
/// of showing only as lost speed.
#[test]
fn one_worker_campaigns_restore_once_per_bucket() {
    const PINNED: [&str; 3] = [
        "radcrit_bucket_restores_total",
        "radcrit_bucket_advance_tiles_total",
        "radcrit_bucket_forks_total",
    ];
    let expected: [[u64; 3]; 3] = [[4, 0, 38], [8, 0, 38], [22, 0, 47]];
    for (spec, want_counts) in kernels().into_iter().zip(expected) {
        let metrics = Arc::new(MetricsRegistry::new());
        Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7)
            .with_workers(1)
            .run_with(&RunOptions {
                metrics: Some(Arc::clone(&metrics)),
                ..RunOptions::default()
            })
            .unwrap();
        let counts = PINNED.map(|name| counter(&metrics, name));
        assert_eq!(counts, want_counts, "{spec:?} bucket counts {PINNED:?}");
    }
}

/// The SIMD execution core is invisible to the science: a campaign run
/// with dispatch pinned to the scalar reference
/// ([`exec::scalar_scope`]) produces records, event-stream bytes, and a
/// summary bit-identical to the default vectorized run, across all kernels — including a resumed
/// run whose checkpoint was written by the *other* executor.
#[test]
fn scalar_pinned_campaigns_are_bit_identical_to_vectorized() {
    for spec in kernels() {
        let campaign = Campaign::new(DeviceConfig::kepler_k40(), spec, 50, 7).with_workers(3);
        let run = |scalar: bool, tag: &str| {
            let _scalar = scalar.then(exec::scalar_scope);
            let events = temp_path(&format!("scalar-events-{tag}"));
            let result = campaign
                .run_with(&RunOptions {
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
    let reference = {
        let _scalar = exec::scalar_scope();
        campaign.run().unwrap()
    };
    let path = temp_path("cross-isa-resume");
    let partial = campaign
        .run_with(&RunOptions {
            checkpoint: Some(path.clone()),
            budget: Some(17),
            ..RunOptions::default()
        })
        .unwrap();
    assert!(!partial.is_complete());
    let resumed = {
        let _scalar = exec::scalar_scope();
        campaign
            .run_with(&RunOptions {
                checkpoint: Some(path.clone()),
                resume: true,
                ..RunOptions::default()
            })
            .unwrap()
    };
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
