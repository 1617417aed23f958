//! Per-layer metrics common to every workload's traced pass: the
//! preparation timed call by call from outside, and the engine,
//! fault, compare and runner layers read from the program's own
//! profiler and metrics registry.

use std::time::Instant;

use crate::report::Report;
use crate::spans::Spans;
use crate::sut::{Phases, Preparation};

/// What a traced pass observed.
pub struct Layers<'a> {
    pub prep: &'a Preparation,
    /// The observed runs' merged phase profile.
    pub phases: &'a Phases,
    /// A counter of the observed runs' metrics registry.
    pub counter: &'a dyn Fn(&str) -> u64,
    /// Summed wall time of the observed campaign runs.
    pub run_ms: f64,
    pub cache_hit_ratio: f64,
    /// Traced over untraced time of the same work, minus one.
    pub trace_overhead_frac: f64,
}

/// Per-layer metric → engine phase whose self time it reports.
const SELF_TIMES: [(&str, &str); 10] = [
    ("accel.mem_load_self_ms", "mem-load"),
    ("accel.cache_access_self_ms", "cache-access"),
    ("accel.mem_store_self_ms", "mem-store"),
    ("accel.corruption_scan_self_ms", "corruption-scan"),
    ("accel.tile_execute_self_ms", "tile-execute"),
    ("accel.fork_self_ms", "fork"),
    ("accel.bucket_restore_self_ms", "bucket-restore"),
    ("accel.warm_advance_self_ms", "warm-advance"),
    ("core.compare_self_ms", "compare"),
    ("campaign.checkpoint_self_ms", "checkpoint"),
];

/// Per-layer metric → engine phase whose entry count it reports.
const COUNTS: [(&str, &str); 3] = [
    ("accel.mem_load_count", "mem-load"),
    ("accel.cache_access_count", "cache-access"),
    ("core.compare_count", "compare"),
];

/// Per-layer metric → metrics-registry counter.
const COUNTERS: [(&str, &str); 3] = [
    ("accel.forks", "radcrit_bucket_forks_total"),
    ("accel.bucket_restores", "radcrit_bucket_restores_total"),
    ("accel.advance_tiles", "radcrit_bucket_advance_tiles_total"),
];

pub fn report(report: &mut Report, l: &Layers<'_>, spans: &Spans) {
    let prep = l.prep;
    let ms = |(a, b): (Instant, Instant)| (b - a).as_secs_f64() * 1e3;
    spans.record("KernelSpec::build", 0, prep.build, None);
    spans.record("Engine::golden_snapshotted", 0, prep.golden, None);
    spans.record("FaultSampler::new", 0, prep.sampler, None);
    spans.record("FaultSampler::sample", 0, prep.sampling, None);
    report.set1("kernels.build_ms", ms(prep.build));
    report.set1("accel.golden_ms", ms(prep.golden));
    report.set1(
        "accel.snapshot_mib",
        prep.snapshot_bytes as f64 / (1u64 << 20) as f64,
    );
    let samples = prep.samples.max(1) as f64;
    report.set1("faults.sample_ns", ms(prep.sampling) * 1e6 / samples);
    report.set1("faults.fatal_frac", prep.fatal as f64 / samples);

    for (metric, phase) in SELF_TIMES {
        report.set1(metric, l.phases.get(phase).0 as f64 / 1e6);
    }
    for (metric, phase) in COUNTS {
        report.set1(metric, l.phases.get(phase).1 as f64);
    }
    for (metric, counter) in COUNTERS {
        report.set1(metric, (l.counter)(counter) as f64);
    }
    let forks = (l.counter)("radcrit_bucket_forks_total").max(1) as f64;
    let dead = (l.counter)("radcrit_run_dead_strike_exits_total") as f64;
    report.set1("accel.dead_strike_exit_ratio", dead / forks);

    report.set1("campaign.run_ms", l.run_ms);
    let root_ms = l.phases.root_total_ns as f64 / 1e6;
    report.set1(
        "campaign.unattributed_frac",
        (l.run_ms - root_ms) / l.run_ms,
    );
    report.set1("campaign.golden_cache_hit_ratio", l.cache_hit_ratio);
    report.set1("bench.trace_overhead_frac", l.trace_overhead_frac);
}
