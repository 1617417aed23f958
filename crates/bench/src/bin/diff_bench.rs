//! `diff-bench` — injections/sec benchmark of the campaign execution
//! path: the prefix-sharing batch scheduler forking every strike off a
//! warm golden-prefix snapshot, with a dirty-region compare.
//!
//! ```text
//! diff-bench [--injections 60] [--n 256] [--workers 1] [--smoke]
//!            [--out BENCH_6.json] [--history BENCH_HISTORY.jsonl]
//! ```
//!
//! For each paper kernel the campaign runs `--reps` times against a
//! pre-warmed golden cache, so the measured wall time is the injection
//! phase. Exits non-zero when no injection forked off a warm bucket, or
//! when the batched DGEMM injection rate falls below 2.5× the committed
//! pre-batching baseline (`--baseline`, the `full_inj_per_sec` of the
//! DGEMM row in `BENCH_4.json`; skipped when the file is absent).
//! `--smoke` relaxes the gates for tiny CI sizes where constant
//! overheads dominate.
//!
//! Every run also appends one fingerprinted row per kernel (host,
//! commit, active SIMD ISA, rates, top-5 self-time phases of a
//! profiled rep) to the continuous history file (`--history`, default
//! `BENCH_HISTORY.jsonl`) and — outside `--smoke` — gates the batched
//! rates against the committed `--history-baseline` (default the
//! freshly written/committed `BENCH_6.json`): any kernel more than
//! 10 % below its committed `batch_inj_per_sec` exits non-zero. Both
//! gates are like-for-like on the ISA: a run pinned to the scalar
//! executor (`RADCRIT_FORCE_SCALAR=1`) records its rows but is never
//! compared against a vectorized baseline. See
//! [`radcrit_bench::history`].

use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use radcrit_accel::config::DeviceConfig;
use radcrit_bench::history::{self, HistoryRow};
use radcrit_campaign::golden::GoldenCache;
use radcrit_campaign::{Campaign, KernelSpec, RunOptions};
use radcrit_obs::{MetricsRegistry, ProfileCollector};

struct Args {
    injections: usize,
    n: usize,
    workers: usize,
    reps: usize,
    smoke: bool,
    out: PathBuf,
    baseline: PathBuf,
    history: PathBuf,
    history_baseline: PathBuf,
}

const USAGE: &str = "usage: diff-bench [--injections 60] [--n 256] [--workers 1] [--reps 5] \
                     [--smoke] [--out BENCH_6.json] [--baseline BENCH_4.json] \
                     [--history BENCH_HISTORY.jsonl] [--history-baseline BENCH_6.json]";

fn parse_args() -> Args {
    let mut a = Args {
        injections: 60,
        n: 256,
        workers: 1,
        reps: 5,
        smoke: false,
        out: PathBuf::from("BENCH_6.json"),
        baseline: PathBuf::from("BENCH_4.json"),
        history: PathBuf::from("BENCH_HISTORY.jsonl"),
        history_baseline: PathBuf::from("BENCH_6.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{USAGE}\nmissing value for {flag}");
                exit(2)
            })
        };
        match flag.as_str() {
            "--injections" => a.injections = parsed(&flag, &val("--injections")),
            "--n" => a.n = parsed(&flag, &val("--n")),
            "--workers" => a.workers = parsed(&flag, &val("--workers")),
            "--reps" => a.reps = parsed(&flag, &val("--reps")).max(1),
            "--smoke" => a.smoke = true,
            "--out" => a.out = PathBuf::from(val("--out")),
            "--baseline" => a.baseline = PathBuf::from(val("--baseline")),
            "--history" => a.history = PathBuf::from(val("--history")),
            "--history-baseline" => a.history_baseline = PathBuf::from(val("--history-baseline")),
            _ => {
                eprintln!("{USAGE}");
                exit(2)
            }
        }
    }
    a
}

fn parsed(flag: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{USAGE}\nbad value for {flag}: {raw}");
        exit(2)
    })
}

struct Measurement {
    kernel: String,
    /// SIMD executor every mode of this measurement dispatched to.
    isa: String,
    injections: usize,
    batch_secs: f64,
    forked_runs: u64,
    bucket_restores: u64,
    skipped_tiles: u64,
    snapshot_bytes: f64,
    /// Top self-time phases of one profiled rep, hottest first.
    top_phases: Vec<(String, u64)>,
}

impl Measurement {
    fn batch_rate(&self) -> f64 {
        self.injections as f64 / self.batch_secs.max(1e-9)
    }
}

/// Runs `campaign` `reps` times against a pre-warmed golden cache and
/// returns the minimum injection-phase wall time (the repetition least
/// disturbed by scheduler noise — the campaign itself is deterministic,
/// so every repetition does identical work) and the snapshot-set size
/// the warm-up's golden capture reported.
fn timed_run(campaign: &Campaign, reps: usize, metrics: &Arc<MetricsRegistry>) -> (f64, f64) {
    // Warm the cache so the measured run's golden phase is a hit.
    let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
    let warm = Campaign {
        injections: 1,
        ..campaign.clone()
    };
    let options = |metrics: Arc<MetricsRegistry>| RunOptions {
        golden_cache: Some(Arc::clone(&cache)),
        metrics: Some(metrics),
        ..RunOptions::default()
    };
    let warm_metrics = Arc::new(MetricsRegistry::new());
    warm.run_with(&options(Arc::clone(&warm_metrics)))
        .unwrap_or_else(|e| {
            eprintln!("diff-bench: warm-up failed: {e}");
            exit(1)
        });
    let snapshot_bytes = warm_metrics
        .snapshot()
        .gauge("radcrit_snapshot_bytes", &[])
        .unwrap_or(0.0);

    let mut secs = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        campaign
            .run_with(&options(Arc::clone(metrics)))
            .unwrap_or_else(|e| {
                eprintln!("diff-bench: campaign failed: {e}");
                exit(1)
            });
        secs = secs.min(t0.elapsed().as_secs_f64());
    }
    (secs, snapshot_bytes)
}

/// Runs one extra rep with exhaustive phase profiling (against a
/// freshly warmed cache, like the timed reps) and returns the top-5
/// self-time phases. Untimed: the timed reps attach a metrics registry,
/// so they run the sampled profiler, never this rep's stride 1.
fn profiled_phases(campaign: &Campaign) -> Vec<(String, u64)> {
    let cache = Arc::new(GoldenCache::new(GoldenCache::DEFAULT_BYTES));
    let warm = Campaign {
        injections: 1,
        ..campaign.clone()
    };
    let options = |profile| RunOptions {
        golden_cache: Some(Arc::clone(&cache)),
        profile,
        ..RunOptions::default()
    };
    if warm.run_with(&options(None)).is_err() {
        return Vec::new();
    }
    let collector = Arc::new(ProfileCollector::new());
    // This rep is untimed, so exhaustive per-element attribution is
    // free: every memory sub-phase call is timed, not one tile in
    // TILE_SAMPLE_STRIDE. The default is back before the next timed rep.
    radcrit_obs::profile::set_tile_sample_stride(1);
    let profiled = campaign.run_with(&options(Some(Arc::clone(&collector))));
    radcrit_obs::profile::set_tile_sample_stride(radcrit_obs::profile::TILE_SAMPLE_STRIDE);
    if profiled.is_err() {
        return Vec::new();
    }
    collector
        .snapshot()
        .hot_phases(5)
        .into_iter()
        .map(|(name, self_ns, _count)| (name, self_ns))
        .collect()
}

fn measure(
    name: &str,
    spec: KernelSpec,
    injections: usize,
    workers: usize,
    reps: usize,
) -> Measurement {
    let campaign =
        Campaign::new(DeviceConfig::kepler_k40(), spec, injections, 2017).with_workers(workers);

    let metrics = Arc::new(MetricsRegistry::new());
    let (batch_secs, snapshot_bytes) = timed_run(&campaign, reps, &metrics);

    // Counters accumulate across repetitions of the identical campaign;
    // report the per-campaign figure.
    let per_rep = |m: &MetricsRegistry, name: &str| {
        m.snapshot().counter(name, &[]).unwrap_or(0) / reps.max(1) as u64
    };
    Measurement {
        kernel: name.to_owned(),
        isa: radcrit_core::exec::active().name().to_owned(),
        injections,
        batch_secs,
        forked_runs: per_rep(&metrics, "radcrit_engine_forked_runs_total"),
        bucket_restores: per_rep(&metrics, "radcrit_bucket_restores_total"),
        skipped_tiles: per_rep(&metrics, "radcrit_snapshot_skipped_tiles_total"),
        snapshot_bytes,
        top_phases: profiled_phases(&campaign),
    }
}

fn main() {
    let args = parse_args();
    let kernels: Vec<(String, KernelSpec)> = vec![
        (
            format!("dgemm-{0}x{0}", args.n),
            KernelSpec::Dgemm { n: args.n },
        ),
        (
            "hotspot-64x64x8".to_owned(),
            KernelSpec::HotSpot {
                rows: 64,
                cols: 64,
                iterations: 8,
            },
        ),
        (
            "lavamd-5".to_owned(),
            KernelSpec::LavaMd {
                grid: 5,
                particles: 8,
            },
        ),
    ];

    let isa = radcrit_core::exec::active();
    println!(
        "diff-bench: {} injections per kernel, {} worker(s), best of {} rep(s), \
         K40 config, simd isa {isa}",
        args.injections, args.workers, args.reps
    );
    println!(
        "{:<16} {:>9} {:>11} {:>8} {:>9}",
        "kernel", "batch s", "batch in/s", "forks", "restores"
    );

    let mut rows = Vec::new();
    for (name, spec) in kernels {
        let m = measure(&name, spec, args.injections, args.workers, args.reps);
        println!(
            "{:<16} {:>9.3} {:>11.1} {:>8} {:>9}",
            m.kernel,
            m.batch_secs,
            m.batch_rate(),
            m.forked_runs,
            m.bucket_restores,
        );
        if m.forked_runs == 0 {
            eprintln!(
                "diff-bench: no injection forked off a warm bucket on {}",
                m.kernel
            );
            exit(1)
        }
        rows.push(m);
    }

    let json = render_json(&args, &rows);
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("diff-bench: cannot write {}: {e}", args.out.display());
        exit(1)
    }
    println!("wrote {}", args.out.display());

    // Continuous history: one fingerprinted row per kernel, every run —
    // smoke included, so the CI runner's trend line exists at all.
    let host = history::host_fingerprint();
    let commit = history::commit_fingerprint();
    let hist: Vec<HistoryRow> = rows
        .iter()
        .map(|m| HistoryRow {
            host: host.clone(),
            commit: commit.clone(),
            kernel: m.kernel.clone(),
            isa: m.isa.clone(),
            batch_inj_per_sec: m.batch_rate(),
            top_phases: m.top_phases.clone(),
        })
        .collect();
    if let Err(e) = history::append_rows(&args.history, &hist) {
        eprintln!("diff-bench: cannot append history: {e}");
        exit(1)
    }
    println!(
        "appended {} rows to {} (host {host}, commit {commit})",
        hist.len(),
        args.history.display()
    );
    if let Some((phase, self_ns)) = rows[0].top_phases.first() {
        println!(
            "hottest phase on {}: {phase} ({:.1} ms self time)",
            rows[0].kernel,
            *self_ns as f64 / 1e6
        );
    }

    let dgemm = &rows[0];
    if args.smoke {
        return;
    }

    // Perf-history gate: every kernel in the committed baseline must be
    // within 10 % of its committed batched rate — but only like for
    // like on the ISA. Baselines predating the isa column were measured
    // with the native vectorized executor, so they only gate runs that
    // are not pinned away from it (hardware(), not detected(): the
    // RADCRIT_FORCE_SCALAR pin must read as "pinned", not "native").
    let native = radcrit_core::exec::hardware();
    for (kernel, base_isa, base) in history::baseline_batch_rates(&args.history_baseline) {
        let comparable = match &base_isa {
            Some(b) => *b == isa.name(),
            None => isa == native,
        };
        if !comparable {
            println!(
                "skipping history gate for {kernel}: baseline isa {} vs active {isa}",
                base_isa.as_deref().unwrap_or("pre-isa (native)")
            );
            continue;
        }
        if let Some(m) = rows.iter().find(|m| m.kernel == kernel) {
            if let Err(msg) = history::check_regression(&kernel, m.batch_rate(), base) {
                eprintln!("diff-bench: {msg}");
                exit(1)
            }
        }
    }
    // Acceptance floor: 2.5x over the *committed* pre-batching full
    // rate (the baseline the batch scheduler was specified against).
    // The committed baseline was measured with the native executor, so
    // a scalar-pinned run (correctness reference, not a perf claim) is
    // exempt.
    if isa != native {
        println!("skipping acceptance floor: active isa {isa} is pinned below native {native}");
        return;
    }
    let Some(base) = baseline_dgemm_full_rate(&args.baseline) else {
        eprintln!(
            "diff-bench: no committed baseline at {}",
            args.baseline.display()
        );
        exit(1)
    };
    let gain = dgemm.batch_rate() / base.max(1e-9);
    if gain < 2.5 {
        eprintln!(
            "diff-bench: batched DGEMM at {:.1} inj/s is {:.2}x the committed \
             baseline of {:.1} inj/s ({}), below the 2.5x acceptance floor",
            dgemm.batch_rate(),
            gain,
            base,
            args.baseline.display()
        );
        exit(1)
    }
}

/// Pulls `full_inj_per_sec` out of the baseline file's DGEMM row
/// without a JSON dependency: the file is machine-written by this
/// binary's predecessor with one kernel object per line.
fn baseline_dgemm_full_rate(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text
        .lines()
        .find(|l| l.contains("\"kernel\": \"dgemm-") && l.contains("full_inj_per_sec"))?;
    let tail = line.split("\"full_inj_per_sec\":").nth(1)?;
    tail.split([',', '}']).next()?.trim().parse().ok()
}

fn render_json(args: &Args, rows: &[Measurement]) -> String {
    let mut s = String::from("{\n  \"bench\": \"batched-differential-injection-execution\",\n");
    s.push_str("  \"device\": \"K40\",\n  \"seed\": 2017,\n");
    s.push_str(&format!(
        "  \"injections_per_kernel\": {},\n  \"workers\": {},\n  \"reps\": {},\n  \"kernels\": [\n",
        args.injections, args.workers, args.reps
    ));
    for (i, m) in rows.iter().enumerate() {
        s.push_str(&format!(
            concat!(
                "    {{\"kernel\": \"{}\", \"isa\": \"{}\", \"injections\": {}, ",
                "\"batch_secs\": {:.4}, \"batch_inj_per_sec\": {:.2}, ",
                "\"forked_runs\": {}, \"bucket_restores\": {}, ",
                "\"snapshot_skipped_tiles\": {}, \"snapshot_bytes\": {:.0}}}{}\n"
            ),
            m.kernel,
            m.isa,
            m.injections,
            m.batch_secs,
            m.batch_rate(),
            m.forked_runs,
            m.bucket_restores,
            m.skipped_tiles,
            m.snapshot_bytes,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
