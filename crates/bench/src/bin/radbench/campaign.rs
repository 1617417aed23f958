//! The three in-process campaign workloads: `dgemm-mem`, `lavamd-fma`
//! and `hotspot-persist`.
//!
//! A run measures one campaign of `shard × MAX_SHARDS` injections in
//! shards of `shard` injections, each one warm-cache `run_with` call,
//! until `--seconds` have passed, and reports the median shard. Every
//! shard runs distinct injection indices, so a run samples thousands of
//! different strike plans and its rate hardly depends on the seed.
//! Shard 0 runs a second time at the end: its summary must come back
//! byte for byte.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{self, Layers};
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats;
use crate::sut::{self, Attach, Campaign, GoldenCache, KernelSpec, Observers, Product};
use crate::workload::{Args, Common, DEFAULT_SEED};

/// Upper bound on shards per run (the campaign's size is this many
/// shards, so a fast host can never run out of fresh indices).
const MAX_SHARDS: usize = 128;

/// One campaign workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSize {
    pub kernel: KernelSpec,
    /// Injections per shard (one timed `run_with` call).
    pub shard: usize,
    /// One-injection runs after each shard.
    pub probes_per_shard: usize,
    /// Write the daemon's per-job artifact set for every call.
    pub persist: bool,
    /// FNV-1a-64 of shard 0's summary at [`DEFAULT_SEED`].
    pub digest: Option<u64>,
}

/// The workload's campaign and the calls it makes against it.
struct Bench<'a> {
    campaign: Campaign,
    size: &'a CampaignSize,
    cache: Arc<GoldenCache>,
    work: &'a Path,
    calls: Cell<usize>,
}

impl Bench<'_> {
    /// A fresh artifact directory for one persisting call (`None` when
    /// the workload does not persist); the previous call's is removed.
    fn dir(&self) -> Option<PathBuf> {
        if !self.size.persist {
            return None;
        }
        let n = self.calls.replace(self.calls.get() + 1);
        if n > 0 {
            let _ = std::fs::remove_dir_all(self.work.join(format!("call-{}", n - 1)));
        }
        let dir = self.work.join(format!("call-{n}"));
        std::fs::create_dir_all(&dir).ok().map(|()| dir)
    }

    /// One `run_with` call with the workload's artifacts, checked.
    fn run(&self, report: &mut Report, attach: Attach<'_>, what: &str) -> Option<Product> {
        let dir = self.dir();
        let attach = Attach {
            persist: dir.as_deref(),
            ..attach
        };
        let product = report.op(what, sut::run(&self.campaign, &attach))?;
        if let (Some((start, end)), None) = (attach.shard, attach.budget) {
            check_product(report, &product, end - start, dir.as_deref());
        }
        Some(product)
    }

    /// Shard `k` against the warm cache.
    fn shard(&self, report: &mut Report, k: usize, observe: Option<&Observers>) -> Option<Product> {
        let m = self.size.shard;
        let attach = Attach {
            cache: Some(&self.cache),
            shard: Some((k * m, (k + 1) * m)),
            observe,
            ..Attach::default()
        };
        self.run(report, attach, "campaign run")
    }
}

/// Runs the workload; returns the traced pass's spans when `--trace 1`.
pub fn run(
    size: &CampaignSize,
    common: &Common,
    args: &Args,
    work: &Path,
    report: &mut Report,
) -> Option<Spans> {
    let bench = Bench {
        campaign: sut::campaign(size.kernel, size.shard * MAX_SHARDS, args.seed),
        size,
        cache: sut::golden_cache(),
        work,
        calls: Cell::new(0),
    };

    // Set-up: cold preparations of one shard, each with a fresh golden
    // cache: kernel build, golden run, snapshot capture and sampler
    // table.
    let cold = || Attach {
        shard: Some((0, size.shard)),
        budget: Some(0),
        ..Attach::default()
    };
    let setup: Vec<f64> = (0..common.setup_reps)
        .filter_map(|_| bench.run(report, cold(), "cold preparation"))
        .map(|p| p.wall.as_secs_f64())
        .collect();
    report.set("setup_s", Metric::median(&setup));
    let warm_up = Attach {
        cache: Some(&bench.cache),
        ..cold()
    };
    bench.run(report, warm_up, "cache warm-up");

    // The measured window: distinct shards, each followed by a batch of
    // one-injection runs (time to first event) over distinct indices,
    // so throughput and first-event latency see the same host load.
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut walls, mut ttfe) = (Vec::new(), Vec::new());
    let mut first: Option<Product> = None;
    let mut k = 0;
    while k < MAX_SHARDS
        && (k < common.min_shards || ttfe.len() < common.min_probes || started.elapsed() < window)
    {
        if let Some(p) = bench.shard(report, k, None) {
            walls.push(p.wall.as_secs_f64());
            first.get_or_insert(p);
        }
        for _ in 0..size.probes_per_shard {
            let j = ttfe.len();
            let attach = Attach {
                cache: Some(&bench.cache),
                shard: Some((j, j + 1)),
                ..Attach::default()
            };
            let probe = bench.run(report, attach, "first-event probe");
            ttfe.push(probe.map_or(f64::INFINITY, |p| p.wall.as_secs_f64()));
        }
        k += 1;
    }
    let rates: Vec<f64> = walls.iter().map(|w| size.shard as f64 / w).collect();
    report.set("inj_per_s", Metric::median(&rates));
    report.set("latency_p50_s", Metric::median(&walls));
    report.set("ttfe_p50_s", Metric::percentile(&ttfe, 500));

    // Determinism: shard 0 again must summarize byte for byte the same.
    let Some(first) = first else {
        report.check(false, || "no shard completed".into());
        return None;
    };
    let again = bench.shard(report, 0, None);
    report.check(
        again.as_ref().is_some_and(|p| p.summary == first.summary),
        || "shard 0 summary changed between reps".into(),
    );
    check_digest(report, first.summary.as_bytes(), size.digest, args.seed);

    if !args.traced {
        return None;
    }
    let untraced = [first.wall, again.map_or(first.wall, |p| p.wall)];
    traced_pass(&bench, &first.summary, &untraced, report)
}

/// The traced pass: the preparation timed call by call from outside,
/// then shard 0 once more with the program's profiler (every tile) and
/// metrics registry attached.
fn traced_pass(
    bench: &Bench<'_>,
    summary: &str,
    untraced: &[Duration],
    report: &mut Report,
) -> Option<Spans> {
    let spans = Spans::new(Instant::now());
    let prep = report.op(
        "preparation",
        sut::prepare(&bench.campaign, bench.size.shard),
    );
    let obs = Observers::new();
    sut::exhaustive_profiling();
    let t0 = Instant::now();
    let traced = bench.shard(report, 0, Some(&obs));
    sut::sampled_profiling();
    let (prep, traced) = (prep?, traced?);
    spans.record("Campaign::run_with", 0, (t0, t0 + traced.wall), None);
    report.check(traced.summary == summary, || {
        "traced shard 0 summary differs from the untraced one".into()
    });

    if bench.size.persist {
        // The traced call's artifacts are the newest call directory.
        let dir = bench.work.join(format!("call-{}", bench.calls.get() - 1));
        let per_inj = |name: &str| file_len(&dir.join(name)) as f64 / bench.size.shard as f64;
        report.set1("obs.event_bytes_per_inj", per_inj("events.jsonl"));
        report.set1("obs.checkpoint_bytes_per_inj", per_inj("checkpoint.jsonl"));
        report.set1("obs.trace_bytes_per_inj", per_inj("trace.json"));
    }
    report.zero_layer("obs.");
    report.zero_layer("serve.");

    let untraced: Vec<f64> = untraced.iter().map(Duration::as_secs_f64).collect();
    let hits = obs.counter("radcrit_golden_cache_hits_total") as f64;
    let misses = obs.counter("radcrit_golden_cache_misses_total") as f64;
    layers::report(
        report,
        &Layers {
            prep: &prep,
            phases: &obs.phases(),
            counter: &|name| obs.counter(name),
            run_ms: traced.wall.as_secs_f64() * 1e3,
            cache_hit_ratio: hits / (hits + misses).max(1.0),
            trace_overhead_frac: traced.wall.as_secs_f64() / stats::median(&untraced) - 1.0,
        },
        &spans,
    );
    Some(spans)
}

/// A shard run is complete, and with persistence its event file folds
/// back into the summary it returned.
fn check_product(report: &mut Report, p: &Product, injections: usize, dir: Option<&Path>) {
    report.check(p.complete && p.records == injections, || {
        format!("shard produced {} of {injections} records", p.records)
    });
    if let Some(dir) = dir {
        let folded = sut::fold_events(&dir.join("events.jsonl"));
        report.check(folded.as_ref() == Ok(&p.summary), || {
            format!("event file does not fold into the summary: {folded:?}")
        });
    }
}

/// Records the digest of the reference summaries; at the default seed
/// it must equal the committed one.
pub fn check_digest(report: &mut Report, bytes: &[u8], expected: Option<u64>, seed: u64) {
    let digest = stats::fnv1a64(bytes);
    report.digest = Some(digest);
    if let (Some(expected), DEFAULT_SEED) = (expected, seed) {
        report.check(digest == expected, || {
            format!("summary digest {digest:016x} != committed {expected:016x}")
        });
    }
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
