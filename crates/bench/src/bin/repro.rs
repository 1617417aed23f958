//! Reproduction harness: regenerates every table and figure of the HPCA
//! 2017 criticality paper from fresh simulated-beam campaigns.
//!
//! ```text
//! repro [--quick] [--seed N] [--out DIR] [EXPERIMENT...]
//!
//! EXPERIMENT: table1 table2 ratios fig2 fig3 fig4 fig5 fig6 fig7
//!             fig8 fig9 abft masscheck ablate hardening injector
//!             multistrike all (default: all)
//! ```
//!
//! An unknown experiment name exits with status 2 before any runs.

#![warn(clippy::too_many_lines)]

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use radcrit_abft::{AbftDgemm, AbftOutcome};
use radcrit_accel::config::DeviceConfig;
use radcrit_accel::engine::{Engine, ForkCursor, GoldenRun, RunOutcome};
use radcrit_accel::snapshot::SnapshotPolicy;
use radcrit_accel::strike::StrikeSpec;
use radcrit_bench::{
    fit_header, fit_row, scatter_grid, scatter_stats, shape_report, table, ShapeCheck,
};
use radcrit_campaign::config::KernelSpec;
use radcrit_campaign::log as clog;
use radcrit_campaign::presets::{self, Preset, Scale};
use radcrit_campaign::runner::CampaignResult;
use radcrit_campaign::summary::CampaignSummary;
use radcrit_core::report::ErrorReport;
use radcrit_faults::sampler::{FaultSampler, InjectionPlan};
use radcrit_kernels::profile::KernelClass;
use radcrit_kernels::shallow::ShallowWater;
use radcrit_kernels::Workload;

/// Every experiment and its entry point, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 17] = [
    ("table1", |_| table1()),
    ("table2", table2),
    ("ratios", ratios),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("abft", abft),
    ("masscheck", masscheck),
    ("ablate", ablate),
    ("hardening", hardening),
    ("injector", injector),
    ("multistrike", multistrike),
];

type Experiment = fn(&mut Ctx);

fn main() {
    let mut scale = Scale::Standard;
    let mut seed = 2017u64;
    let mut out_dir: Option<PathBuf> = None;
    let mut experiments: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_dir = Some(PathBuf::from(
                    args.next().unwrap_or_else(|| die("--out needs a path")),
                ));
            }
            "--help" | "-h" => {
                println!(
                    "repro [--quick] [--seed N] [--out DIR] [EXPERIMENT...]\n\
                     experiments: {} all",
                    EXPERIMENTS.map(|(e, _)| e).join(" ")
                );
                return;
            }
            other => experiments.push(other.to_owned()),
        }
    }
    let find = |name: &str| EXPERIMENTS.iter().find(|(e, _)| *e == name).copied();
    if let Some(e) = experiments
        .iter()
        .find(|e| *e != "all" && find(e).is_none())
    {
        die(&format!("unknown experiment: {e}"));
    }
    let runs = if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        EXPERIMENTS.to_vec()
    } else {
        experiments.iter().filter_map(|e| find(e)).collect()
    };
    let mut ctx = Ctx::new(scale, seed, out_dir);
    for (_, run) in runs {
        run(&mut ctx);
    }
    println!("\n==== overall: {} ====", ctx.tally());
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Campaign cache: each (device, kernel, size) campaign runs once even
/// when several figures need it.
struct Ctx {
    scale: Scale,
    seed: u64,
    out_dir: Option<PathBuf>,
    cache: BTreeMap<String, CampaignResult>,
    checks_pass: usize,
    checks_total: usize,
}

impl Ctx {
    fn new(scale: Scale, seed: u64, out_dir: Option<PathBuf>) -> Self {
        if let Some(d) = &out_dir {
            let _ = fs::create_dir_all(d);
        }
        Ctx {
            scale,
            seed,
            out_dir,
            cache: BTreeMap::new(),
            checks_pass: 0,
            checks_total: 0,
        }
    }

    fn run(&mut self, preset: &Preset) -> &CampaignResult {
        let key = format!(
            "{}-{}-{}",
            preset.device.kind(),
            preset.kernel.name(),
            preset.kernel.input_label()
        );
        if !self.cache.contains_key(&key) {
            eprintln!("[campaign] {key}: {} injections ...", preset.injections);
            let t0 = std::time::Instant::now();
            let result = preset
                .campaign(self.seed)
                .run()
                .unwrap_or_else(|e| die(&format!("campaign {key} failed: {e}")));
            eprintln!("[campaign] {key}: done in {:.1?}", t0.elapsed());
            if let Some(dir) = &self.out_dir {
                let mut logbuf = Vec::new();
                let mut csvbuf = Vec::new();
                let _ = clog::write_log(&result, &mut logbuf);
                let _ = clog::write_csv(&result, &mut csvbuf);
                let _ = fs::write(dir.join(format!("{key}.log")), logbuf);
                let _ = fs::write(dir.join(format!("{key}.csv")), csvbuf);
            }
            self.cache.insert(key.clone(), result);
        }
        &self.cache[&key]
    }

    fn summaries(&mut self, presets: &[Preset]) -> Vec<CampaignSummary> {
        presets.iter().map(|p| self.run(p).summary()).collect()
    }

    fn record(&mut self, checks: &[ShapeCheck]) {
        self.checks_pass += checks.iter().filter(|c| c.pass).count();
        self.checks_total += checks.len();
    }

    fn tally(&self) -> String {
        format!(
            "{} of {} shape checks hold",
            self.checks_pass, self.checks_total
        )
    }
}

fn heading(title: &str) {
    println!("\n==================== {title} ====================");
}

// ---------------------------------------------------------------- tables

fn table1() {
    heading("Table I: classification of parallel kernels");
    // The asserted classification, plus columns *measured* from traced
    // executions: operational intensity (bound-by proxy) and the
    // per-tile work variation (load-balance proxy).
    let specs = [
        ("DGEMM", KernelClass::DGEMM, KernelSpec::Dgemm { n: 64 }),
        (
            "LavaMD",
            KernelClass::LAVAMD,
            KernelSpec::LavaMd {
                grid: 4,
                particles: 8,
            },
        ),
        (
            "HotSpot",
            KernelClass::HOTSPOT,
            KernelSpec::HotSpot {
                rows: 64,
                cols: 64,
                iterations: 8,
            },
        ),
        (
            "CLAMR",
            KernelClass::CLAMR,
            KernelSpec::Shallow {
                rows: 64,
                cols: 64,
                steps: 30,
            },
        ),
    ];
    // A cursor without snapshots runs from tile 0.
    let mut cursor = ForkCursor::new(Engine::new(presets::k40()), Arc::default());
    let rows: Vec<Vec<String>> = specs
        .iter()
        .map(|(name, c, spec)| {
            let mut kernel = spec.build(1).expect("preset kernel");
            // No strikes: the RNG is never consulted.
            let mut trace = radcrit_accel::ExecutionTrace::new();
            cursor
                .run(
                    kernel.as_mut(),
                    &[],
                    &mut StdRng::seed_from_u64(0),
                    Some(&mut trace),
                )
                .expect("traced golden run");
            vec![
                (*name).to_owned(),
                c.bound.to_string(),
                c.balance.to_string(),
                c.access.to_string(),
                format!("{:.1}", trace.operational_intensity()),
                format!("{:.2}", trace.tile_cv()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &[
                "Kernel",
                "Bound by",
                "Load Balance",
                "Memory Access",
                "measured ops/elem",
                "measured tile CV",
            ],
            &rows
        )
    );
}

fn table2(ctx: &mut Ctx) {
    heading("Table II: parallel kernels' details (scaled presets)");
    let mut rows = Vec::new();
    let mut add = |device: &DeviceConfig, spec: KernelSpec| {
        let kernel = spec.build(1).expect("preset kernels build");
        rows.push(vec![
            spec.name().to_owned(),
            device.kind().to_string(),
            spec.input_label(),
            kernel.total_threads().to_string(),
        ]);
    };
    let (k40, phi) = (presets::k40(), presets::xeon_phi());
    for p in presets::dgemm(&k40, ctx.scale) {
        add(&k40, p.kernel);
    }
    for p in presets::dgemm(&phi, ctx.scale) {
        add(&phi, p.kernel);
    }
    for p in presets::lavamd(&k40, ctx.scale) {
        add(&k40, p.kernel);
    }
    for p in presets::lavamd(&phi, ctx.scale) {
        add(&phi, p.kernel);
    }
    add(&k40, presets::hotspot(&k40, ctx.scale).kernel);
    add(&phi, presets::hotspot(&phi, ctx.scale).kernel);
    add(&phi, presets::clamr(&phi, ctx.scale).kernel);
    println!(
        "{}",
        table(&["Kernel", "Device", "Input size", "#Threads"], &rows)
    );
}

// ---------------------------------------------------------------- ratios

fn ratios(ctx: &mut Ctx) {
    heading("SDC : (crash+hang) ratios (Section V intro)");
    let matrix = presets::full_matrix(ctx.scale);
    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for p in &matrix {
        let s = ctx.run(p).summary();
        let ratio = s.sdc_to_crash_hang_ratio();
        rows.push(vec![
            s.kernel.clone(),
            s.device.clone(),
            s.input.clone(),
            s.sdc.to_string(),
            (s.crash + s.hang).to_string(),
            format!("{ratio:.2}"),
        ]);
        checks.push(ShapeCheck::new(
            format!(
                "{} {} {}: SDCs at least as likely as crashes+hangs",
                s.device, s.kernel, s.input
            ),
            format!("{ratio:.2}x"),
            ratio >= 1.0,
        ));
    }
    println!(
        "{}",
        table(
            &["kernel", "device", "input", "SDC", "crash+hang", "ratio"],
            &rows
        )
    );
    println!("{}", shape_report("ratios", &checks));
    ctx.record(&checks);
}

// --------------------------------------------------------------- helpers

fn dgemm_summaries(ctx: &mut Ctx, phi: bool) -> Vec<CampaignSummary> {
    let device = if phi {
        presets::xeon_phi()
    } else {
        presets::k40()
    };
    let presets = presets::dgemm(&device, ctx.scale);
    ctx.summaries(&presets)
}

fn lavamd_summaries(ctx: &mut Ctx, phi: bool) -> Vec<CampaignSummary> {
    let device = if phi {
        presets::xeon_phi()
    } else {
        presets::k40()
    };
    let presets = presets::lavamd(&device, ctx.scale);
    ctx.summaries(&presets)
}

fn hotspot_summary(ctx: &mut Ctx, phi: bool) -> CampaignSummary {
    let device = if phi {
        presets::xeon_phi()
    } else {
        presets::k40()
    };
    let preset = presets::hotspot(&device, ctx.scale);
    ctx.run(&preset).summary()
}

fn clamr_summary(ctx: &mut Ctx) -> CampaignSummary {
    let preset = presets::clamr(&presets::xeon_phi(), ctx.scale);
    ctx.run(&preset).summary()
}

fn print_scatters(title: &str, summaries: &[CampaignSummary], y_cap: f64) {
    for s in summaries {
        println!("\n--- {title} {} {} ---", s.device, s.input);
        println!("{}", scatter_stats(s));
        println!("{}", scatter_grid(&s.scatter, y_cap, 48, 10));
    }
}

fn print_fit(title: &str, summaries: &[CampaignSummary]) {
    println!("\n--- {title}: FIT break-down, All mismatches (a.u.) ---");
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| fit_row(&s.input, &s.fit_all, 1e-3))
        .collect();
    println!("{}", table(&fit_header(), &rows));
    println!("--- {title}: FIT break-down, > 2% tolerance (a.u.) ---");
    let rows: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| fit_row(&s.input, &s.fit_filtered, 1e-3))
        .collect();
    println!("{}", table(&fit_header(), &rows));
}

// ------------------------------------------------------------ figures 2-3

/// A kernel, its golden run and a fork cursor over its snapshots: the
/// experiments below inject on the campaign runner's fork path, each run
/// bit-identical to a run from tile 0.
struct Harness {
    kernel: Box<dyn Workload + Send>,
    golden: GoldenRun,
    sampler: FaultSampler,
    cursor: ForkCursor,
}

impl Harness {
    fn new(device: &DeviceConfig, spec: KernelSpec, seed: u64) -> Self {
        let mut kernel = spec
            .build(seed)
            .unwrap_or_else(|e| die(&format!("{} build failed: {e}", spec.name())));
        let engine = Engine::new(device.clone());
        let (golden, snapshots) = engine
            .golden_snapshotted(kernel.as_mut(), &SnapshotPolicy::default())
            .unwrap_or_else(|e| die(&format!("{} golden run failed: {e}", kernel.name())));
        Harness {
            kernel,
            sampler: FaultSampler::new(device, &golden.profile),
            golden,
            cursor: ForkCursor::new(engine, Arc::new(snapshots)),
        }
    }

    /// Runs `strikes` and compares the outcome with golden.
    fn run(&mut self, strikes: &[StrikeSpec], rng: &mut StdRng) -> (ErrorReport, RunOutcome) {
        let kernel = self.kernel.as_mut();
        let run = self
            .cursor
            .run(kernel, strikes, rng, None)
            .unwrap_or_else(|e| die(&format!("{} run failed: {e}", kernel.name())));
        let report = run.compare(&self.golden.output, kernel.logical_shape(), |i| {
            kernel.error_coord(i)
        });
        (report, run)
    }

    /// Runs every plan — strikes and the RNG stream that resolves them —
    /// in bucket order, as the campaign runner's plan does, so one warm
    /// restore serves a bucket; returns `f` of each run in plan order.
    fn sweep<T>(
        &mut self,
        plans: &[(Vec<StrikeSpec>, StdRng)],
        mut f: impl FnMut(ErrorReport, &RunOutcome) -> T,
    ) -> Vec<T> {
        let mut order: Vec<usize> = (0..plans.len()).collect();
        order.sort_by_cached_key(|&i| {
            let (strikes, rng) = &plans[i];
            let bucket = self.cursor.bucket(self.kernel.as_ref(), strikes, rng);
            (bucket.is_none(), bucket, i)
        });
        let mut results: Vec<Option<T>> = plans.iter().map(|_| None).collect();
        for i in order {
            let (report, run) = self.run(&plans[i].0, &mut plans[i].1.clone());
            results[i] = Some(f(report, &run));
        }
        results.into_iter().flatten().collect()
    }
}

/// The strike plans of injections `0..count`, injection `i` drawn by
/// `sample` from a stream seeded with `seed ^ i`; fatal plans run nothing.
fn strike_plans(
    count: u64,
    seed: u64,
    sample: impl Fn(&mut StdRng) -> InjectionPlan,
) -> Vec<(Vec<StrikeSpec>, StdRng)> {
    (0..count)
        .filter_map(|i| {
            let mut rng = StdRng::seed_from_u64(seed ^ i);
            match sample(&mut rng) {
                InjectionPlan::Strike(spec) => Some((vec![spec], rng)),
                _ => None,
            }
        })
        .collect()
}

fn fig2(ctx: &mut Ctx) {
    heading("Fig. 2: DGEMM mean relative error vs incorrect elements");
    let k40 = dgemm_summaries(ctx, false);
    let phi = dgemm_summaries(ctx, true);
    print_scatters("DGEMM", &k40, 100.0);
    print_scatters("DGEMM", &phi, 100.0);

    let k40_small = mean_of(&k40, |s| s.fraction_mre_at_most(10.0));
    let phi_small = mean_of(&phi, |s| s.fraction_mre_at_most(10.0));
    // Median corrupted fraction at the largest input per device — the
    // paper's "most executions had at most 0.4% of output elements
    // corrupted".
    let median_fraction = |s: &CampaignSummary, n: usize| {
        let elems: Vec<f64> = s
            .scatter
            .iter()
            .map(|p| p.incorrect_elements as f64)
            .collect();
        radcrit_core::stats::quantile(&elems, 0.5).unwrap_or(0.0) / (n * n) as f64
    };
    let k40_frac = k40.last().map(|s| {
        let n = s
            .input
            .split('x')
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap_or(1);
        median_fraction(s, n)
    });
    let phi_frac = phi.last().map(|s| {
        let n = s
            .input
            .split('x')
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap_or(1);
        median_fraction(s, n)
    });
    let checks = vec![
        ShapeCheck::new(
            "K40: most DGEMM SDCs have small (<10%) mean relative error (paper: ~75%)",
            format!("{:.0}%", k40_small * 100.0),
            k40_small > 0.5,
        ),
        ShapeCheck::new(
            "Phi: mostly large relative errors — far fewer small-error SDCs than K40",
            format!(
                "K40 {:.0}% vs Phi {:.0}% small",
                k40_small * 100.0,
                phi_small * 100.0
            ),
            phi_small < k40_small,
        ),
        ShapeCheck::new(
            "the typical execution corrupts a small output fraction (paper: <=0.4%)",
            format!(
                "median corrupted fraction K40 {:.3}%, Phi {:.3}%",
                k40_frac.unwrap_or(0.0) * 100.0,
                phi_frac.unwrap_or(0.0) * 100.0
            ),
            k40_frac.unwrap_or(1.0) <= 0.004 && phi_frac.unwrap_or(1.0) <= 0.004,
        ),
    ];
    println!("{}", shape_report("fig2", &checks));
    ctx.record(&checks);
}

fn fig3(ctx: &mut Ctx) {
    heading("Fig. 3: DGEMM spatial locality and magnitude (FIT a.u.)");
    let k40 = dgemm_summaries(ctx, false);
    let phi = dgemm_summaries(ctx, true);
    print_fit("DGEMM K40", &k40);
    print_fit("DGEMM Xeon Phi", &phi);

    let k40_growth = k40.last().map(|l| l.fit_all_total()).unwrap_or(0.0)
        / k40
            .first()
            .map(|f| f.fit_all_total())
            .unwrap_or(1.0)
            .max(1e-30);
    let phi_growth = phi[phi.len().min(3) - 1].fit_all_total()
        / phi
            .first()
            .map(|f| f.fit_all_total())
            .unwrap_or(1.0)
            .max(1e-30);
    let k40_filtered = mean_of(&k40, CampaignSummary::filtered_out_fraction);
    let phi_filtered = mean_of(&phi, CampaignSummary::filtered_out_fraction);
    let checks = vec![
        ShapeCheck::new(
            "K40 FIT grows strongly with input size (paper: ~7x over 4x side)",
            format!("{k40_growth:.1}x"),
            k40_growth > 3.0,
        ),
        ShapeCheck::new(
            "Phi FIT nearly flat with input size (paper: ~1.8x)",
            format!("{phi_growth:.1}x"),
            phi_growth < 3.0 && phi_growth < k40_growth,
        ),
        ShapeCheck::new(
            "K40 has the higher raw DGEMM FIT",
            format!(
                "K40 {:.1} vs Phi {:.1} a.u.",
                k40.last().map(|s| s.fit_all_total()).unwrap_or(0.0) * 1e-3,
                phi[phi.len().min(3) - 1].fit_all_total() * 1e-3
            ),
            k40.last().map(|s| s.fit_all_total()).unwrap_or(0.0)
                > phi[phi.len().min(3) - 1].fit_all_total(),
        ),
        ShapeCheck::new(
            "K40: 2% tolerance removes a large share of DGEMM SDCs (paper: 50-75%)",
            format!("{:.0}%", k40_filtered * 100.0),
            (0.35..=0.85).contains(&k40_filtered),
        ),
        ShapeCheck::new(
            "Phi: 2% tolerance removes almost nothing (paper: 0%)",
            format!("{:.0}%", phi_filtered * 100.0),
            phi_filtered < 0.25 && phi_filtered < k40_filtered,
        ),
    ];
    println!("{}", shape_report("fig3", &checks));
    ctx.record(&checks);
}

// ------------------------------------------------------------ figures 4-5

fn fig4(ctx: &mut Ctx) {
    heading("Fig. 4: LavaMD mean relative error vs incorrect elements");
    let k40 = lavamd_summaries(ctx, false);
    let phi = lavamd_summaries(ctx, true);
    print_scatters("LavaMD", &k40, 20_000.0);
    print_scatters("LavaMD", &phi, 20_000.0);

    // The paper's LavaMD MREs cluster in the thousands of percent: judge
    // by the errors that survive the tolerance filter (the critical
    // population the figures actually show).
    let huge = |ss: &[CampaignSummary]| {
        let all: usize = ss.iter().map(|s| s.critical_sdc).sum();
        if all == 0 {
            return 0.0;
        }
        ss.iter()
            .flat_map(|s| s.scatter.iter())
            .filter(|p| p.mean_relative_error >= 99.0)
            .count() as f64
            / all as f64
    };
    let p75 = |ss: &[CampaignSummary]| {
        let mres: Vec<f64> = ss
            .iter()
            .flat_map(|s| s.scatter.iter())
            .map(|p| p.mean_relative_error.min(1e12))
            .collect();
        radcrit_core::stats::quantile(&mres, 0.75).unwrap_or(0.0)
    };
    let k40_elems = mean_of(&k40, CampaignSummary::mean_incorrect_elements);
    let phi_elems = mean_of(&phi, CampaignSummary::mean_incorrect_elements);
    let (k40_huge, k40_p75, phi_p75) = (huge(&k40), p75(&k40), p75(&phi));
    let checks = vec![
        ShapeCheck::new(
            "K40 LavaMD criticals are drastically wrong — >=100% MRE (paper: 1e3-1e4 %)",
            format!(
                "{:.0}% of criticals at or beyond 100% MRE",
                k40_huge * 100.0
            ),
            k40_huge > 0.6,
        ),
        ShapeCheck::new(
            "Phi shows more incorrect elements than K40",
            format!("Phi {phi_elems:.1} vs K40 {k40_elems:.1}"),
            phi_elems > k40_elems,
        ),
        ShapeCheck::new(
            "but the Phi's errors are smaller in relative terms",
            format!("p75 MRE: Phi {phi_p75:.0}% vs K40 {k40_p75:.0}%"),
            phi_p75 < k40_p75,
        ),
    ];
    println!("{}", shape_report("fig4", &checks));
    ctx.record(&checks);
}

fn fig5(ctx: &mut Ctx) {
    heading("Fig. 5: LavaMD spatial locality and magnitude (FIT a.u.)");
    let k40 = lavamd_summaries(ctx, false);
    let phi = lavamd_summaries(ctx, true);
    print_fit("LavaMD K40", &k40);
    print_fit("LavaMD Xeon Phi", &phi);

    let k40_blocks: Vec<f64> = k40
        .iter()
        .map(CampaignSummary::block_locality_fraction)
        .collect();
    let phi_block = mean_of(&phi, CampaignSummary::block_locality_fraction);
    let k40_filtered = mean_of(&k40, CampaignSummary::filtered_out_fraction);
    let phi_filtered = mean_of(&phi, CampaignSummary::filtered_out_fraction);
    let k40_growth = growth(&k40);
    let checks =
        vec![
        ShapeCheck::new(
            "Phi LavaMD has a large cubic+square share, far above the K40's (paper: most errors)",
            format!(
                "Phi {:.0}% vs K40 {:.0}%",
                phi_block * 100.0,
                mean_of(&k40, CampaignSummary::block_locality_fraction) * 100.0
            ),
            phi_block > 0.3
                && phi_block > 2.0 * mean_of(&k40, CampaignSummary::block_locality_fraction),
        ),
        ShapeCheck::new(
            "K40 block (cubic+square) share decreases as the grid grows (paper: 55%->42%)",
            format!("{:?}", k40_blocks.iter().map(|v| (v * 100.0).round()).collect::<Vec<_>>()),
            k40_blocks.first().copied().unwrap_or(0.0) >= k40_blocks.last().copied().unwrap_or(0.0),
        ),
        ShapeCheck::new(
            "K40 LavaMD loses far fewer SDCs to the 2% filter than K40 DGEMM (paper: none at all)",
            format!("{:.0}% filtered", k40_filtered * 100.0),
            k40_filtered < 0.45,
        ),
        ShapeCheck::new(
            "Phi: only a small share of LavaMD errors below 2% (paper: ~a tenth)",
            format!("{:.0}% filtered", phi_filtered * 100.0),
            phi_filtered < 0.35,
        ),
        ShapeCheck::new(
            "K40 LavaMD FIT grows gently with input (paper: ~30% per step)",
            format!("{k40_growth:.2}x over the sweep"),
            k40_growth < 3.0,
        ),
    ];
    println!("{}", shape_report("fig5", &checks));
    ctx.record(&checks);
}

// ------------------------------------------------------------ figures 6-7

fn fig6(ctx: &mut Ctx) {
    heading("Fig. 6: HotSpot mean relative error vs incorrect elements");
    let k40 = hotspot_summary(ctx, false);
    let phi = hotspot_summary(ctx, true);
    print_scatters("HotSpot", std::slice::from_ref(&k40), 25.0);
    print_scatters("HotSpot", std::slice::from_ref(&phi), 25.0);

    let k40_small = k40.fraction_mre_at_most(25.0);
    let phi_small = phi.fraction_mre_at_most(25.0);
    let checks = vec![
        ShapeCheck::new(
            "HotSpot mean relative errors are small on both devices (paper: <25%)",
            format!(
                "K40 {:.0}% / Phi {:.0}% of SDCs below 25%",
                k40_small * 100.0,
                phi_small * 100.0
            ),
            k40_small > 0.7 && phi_small > 0.7,
        ),
        ShapeCheck::new(
            "Phi tends to more incorrect elements than K40 (paper: 130k vs 50k max)",
            format!(
                "mean Phi {:.0} vs K40 {:.0}",
                phi.mean_incorrect_elements(),
                k40.mean_incorrect_elements()
            ),
            phi.mean_incorrect_elements() > k40.mean_incorrect_elements(),
        ),
    ];
    println!("{}", shape_report("fig6", &checks));
    ctx.record(&checks);
}

fn fig7(ctx: &mut Ctx) {
    heading("Fig. 7: HotSpot spatial locality and magnitude (FIT a.u.)");
    let k40 = hotspot_summary(ctx, false);
    let phi = hotspot_summary(ctx, true);
    print_fit("HotSpot K40", std::slice::from_ref(&k40));
    print_fit("HotSpot Xeon Phi", std::slice::from_ref(&phi));

    let block_line = |s: &CampaignSummary| {
        s.fit_all.fraction_of(&[
            radcrit_core::locality::SpatialClass::Square,
            radcrit_core::locality::SpatialClass::Line,
            radcrit_core::locality::SpatialClass::Single,
        ])
    };
    let checks = vec![
        ShapeCheck::new(
            "HotSpot locality is square/line dominated (paper: only square and line)",
            format!(
                "K40 {:.0}%, Phi {:.0}% square+line+single",
                block_line(&k40) * 100.0,
                block_line(&phi) * 100.0
            ),
            block_line(&k40) > 0.8 && block_line(&phi) > 0.8,
        ),
        ShapeCheck::new(
            "the 2% filter removes most HotSpot SDCs (paper: 80-95%)",
            format!(
                "K40 {:.0}%, Phi {:.0}%",
                k40.filtered_out_fraction() * 100.0,
                phi.filtered_out_fraction() * 100.0
            ),
            k40.filtered_out_fraction() > 0.5 && phi.filtered_out_fraction() > 0.5,
        ),
    ];
    println!("{}", shape_report("fig7", &checks));
    ctx.record(&checks);
}

// ------------------------------------------------------------ figures 8-9

fn fig8(ctx: &mut Ctx) {
    heading("Fig. 8: CLAMR mean relative error vs incorrect elements (Xeon Phi)");
    let s = clamr_summary(ctx);
    print_scatters("CLAMR", std::slice::from_ref(&s), 100.0);
    let mres: Vec<f64> = s
        .scatter
        .iter()
        .map(|p| p.mean_relative_error)
        .filter(|v| v.is_finite())
        .collect();
    let med = radcrit_core::stats::quantile(&mres, 0.5).unwrap_or(0.0);
    let checks = vec![
        ShapeCheck::new(
            "CLAMR mean relative errors are moderate-to-large (paper: 25-50%)",
            format!("median {med:.0}%"),
            med > 5.0,
        ),
        ShapeCheck::new(
            "no CLAMR errors filtered at 2% (conserved error keeps growing)",
            format!("{:.0}% filtered", s.filtered_out_fraction() * 100.0),
            s.filtered_out_fraction() < 0.2,
        ),
        ShapeCheck::new(
            "CLAMR locality is overwhelmingly square (paper: 99%)",
            format!("{:.0}% square(+cubic)", s.block_locality_fraction() * 100.0),
            s.block_locality_fraction() > 0.6,
        ),
    ];
    println!("{}", shape_report("fig8", &checks));
    ctx.record(&checks);
}

fn fig9(ctx: &mut Ctx) {
    heading("Fig. 9: CLAMR error-locality map (wave of corrupted cells)");
    // Re-run injections with full mismatch retention until one SDC has a
    // sizeable footprint, then render its map like the paper's red-dot
    // plot.
    let preset = presets::clamr(&presets::xeon_phi(), ctx.scale);
    let mut h = Harness::new(&preset.device, preset.kernel, ctx.seed);
    let plans = strike_plans(200, ctx.seed ^ (0xF19 << 32), |r| h.sampler.sample(r));

    // Index order: the search stops at the first large footprint.
    let mut best: Option<(usize, ErrorReport)> = None;
    for (strikes, mut rng) in plans {
        let (report, _) = h.run(&strikes, &mut rng);
        let n = report.incorrect_elements();
        if best.as_ref().is_none_or(|(bn, _)| n > *bn) {
            best = Some((n, report));
        }
        if n > 400 {
            break;
        }
    }
    match best {
        Some((n, report)) => {
            println!("{n} corrupted cells; map (rows x cols downsampled):\n");
            println!("{}", report.render_map(24, 48, '#'));
            let class = radcrit_core::locality::LocalityClassifier::default().classify(&report);
            let checks = vec![ShapeCheck::new(
                "the corruption forms a contiguous wave (square locality, Fig. 9)",
                format!("{n} cells, classified {class}"),
                n > 16 && class == radcrit_core::locality::SpatialClass::Square,
            )];
            println!("{}", shape_report("fig9", &checks));
            ctx.record(&checks);
        }
        None => println!("no SDC found in 200 attempts (unexpected)"),
    }
}

// ------------------------------------------------------------------ abft

fn abft(ctx: &mut Ctx) {
    heading("ABFT DGEMM: residual error rate by spatial class (Sections III, V-A)");
    let k40 = dgemm_summaries(ctx, false);
    let phi = dgemm_summaries(ctx, true);
    let mut rows = Vec::new();
    for s in k40.iter().chain(phi.iter()) {
        let residual = radcrit_abft::residual_fraction(&s.fit_all);
        rows.push(vec![
            s.device.clone(),
            s.input.clone(),
            format!("{:.0}%", s.fit_all.abft_correctable_fraction() * 100.0),
            format!("{:.0}%", residual * 100.0),
        ]);
    }
    println!(
        "{}",
        table(
            &["device", "input", "ABFT-correctable", "residual errors"],
            &rows
        )
    );

    // Live demonstration: run real corrupted products through the real
    // checksum checker.
    let n = 64;
    let device = presets::k40();
    let mut h = Harness::new(&device, KernelSpec::Dgemm { n }, ctx.seed);
    let (a, b) = dgemm_inputs(n, ctx.seed);
    let checker = AbftDgemm::from_inputs(&a, &b, n, 1e-7);
    let golden = h.golden.output.clone();
    let plans = strike_plans(400, ctx.seed ^ (0xAB << 40), |r| h.sampler.sample(r));
    let restored = |c: &[f64]| {
        c.iter()
            .zip(&golden)
            .all(|(x, y)| (x - y).abs() <= 1e-6 * y.abs().max(1.0))
    };
    // SDCs corrected, detected-uncorrectable and below tolerance.
    let mut counts = [0usize; 3];
    h.sweep(&plans, |report, run| {
        if let Some(output) = run.output().filter(|_| report.is_sdc()) {
            let mut c = output.to_vec();
            counts[match checker.check(&mut c) {
                AbftOutcome::Corrected(_) if restored(&c) => 0,
                AbftOutcome::Corrected(_) | AbftOutcome::DetectedUncorrectable { .. } => 1,
                AbftOutcome::Clean => 2,
            }] += 1;
        }
    });
    let [corrected, uncorrectable, undetected] = counts;
    let sdc_total = corrected + uncorrectable + undetected;
    println!(
        "live ABFT on {sdc_total} corrupted products: {corrected} corrected, \
         {uncorrectable} detected-uncorrectable, {undetected} below checksum tolerance"
    );
    let checks = vec![ShapeCheck::new(
        "ABFT corrects a substantial share of real corrupted products",
        format!("{corrected}/{sdc_total}"),
        sdc_total == 0 || corrected * 5 >= sdc_total,
    )];
    println!("{}", shape_report("abft", &checks));
    ctx.record(&checks);
}

fn dgemm_inputs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    use radcrit_kernels::input::matrix_value;
    let mut a = Vec::with_capacity(n * n);
    let mut b = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            a.push(matrix_value(seed, i, j));
            b.push(matrix_value(seed ^ 0xB, i, j));
        }
    }
    (a, b)
}

// ------------------------------------------------------------- masscheck

fn masscheck(ctx: &mut Ctx) {
    heading("CLAMR mass-consistency check coverage (Section V-D)");
    let preset = presets::clamr(&presets::xeon_phi(), ctx.scale);
    let campaign_sdc = ctx.run(&preset).summary().sdc;
    // Recompute detection over fresh injections with output access.
    let mut h = Harness::new(&preset.device, preset.kernel, ctx.seed);
    let golden_mass = ShallowWater::total_mass(&h.golden.output);
    let plans = strike_plans(300, ctx.seed ^ (0x3A55 << 24), |r| h.sampler.sample(r));
    let (mut detected, mut sdc) = (0usize, 0usize);
    h.sweep(&plans, |report, run| {
        if let Some(output) = run.output().filter(|_| report.is_sdc()) {
            let mass = ShallowWater::total_mass(output);
            sdc += 1;
            detected += usize::from(((mass - golden_mass) / golden_mass).abs() > 1e-12);
        }
    });
    let coverage = if sdc == 0 {
        0.0
    } else {
        detected as f64 / sdc as f64
    };
    println!(
        "mass check detected {detected} of {sdc} SDCs ({:.0}% coverage; paper reports 82%)",
        coverage * 100.0
    );
    let checks = vec![ShapeCheck::new(
        "the mass check catches most but not all SDCs (paper: 82%)",
        format!("{:.0}%", coverage * 100.0),
        sdc == 0 || ((0.3..1.0).contains(&coverage)),
    )];
    println!("{}", shape_report("masscheck", &checks));
    ctx.record(&checks);
    let _ = writeln!(
        std::io::stdout(),
        "(campaign had {campaign_sdc} SDC records overall)"
    );
}

// ---------------------------------------------------------------- ablate

/// Ablations of the reproduction's own design choices (DESIGN.md §8):
/// the tolerance threshold, the locality classifier's density cut, and
/// the device-scaling substitution.
fn ablate(ctx: &mut Ctx) {
    heading("Ablations: tolerance threshold, density cut, device scaling");

    // (A) Tolerance threshold: how the apparent SDC rate of HotSpot
    // changes with the accepted imprecision (§II-B's argument).
    let hotspot = presets::hotspot(&presets::k40(), ctx.scale);
    let mut h = Harness::new(&hotspot.device, hotspot.kernel, ctx.seed);
    let plans = strike_plans(120, ctx.seed ^ (0xAB1A << 32), |r| h.sampler.sample(r));
    let reports: Vec<ErrorReport> = h
        .sweep(&plans, |report, _| report.is_sdc().then_some(report))
        .into_iter()
        .flatten()
        .collect();
    println!(
        "\n(A) tolerance sweep over {} corrupted HotSpot outputs:",
        reports.len()
    );
    let mut rows = Vec::new();
    let mut prev_surviving = usize::MAX;
    let mut monotone = true;
    for threshold in [0.0, 0.5, 1.0, 2.0, 4.0, 10.0] {
        let filter =
            radcrit_core::filter::ToleranceFilter::new(threshold).expect("non-negative threshold");
        let surviving = reports.iter().filter(|r| !filter.fully_masks(r)).count();
        monotone &= surviving <= prev_surviving;
        prev_surviving = surviving;
        rows.push(vec![
            format!("{threshold}%"),
            surviving.to_string(),
            format!(
                "{:.0}%",
                surviving as f64 / reports.len().max(1) as f64 * 100.0
            ),
        ]);
    }
    println!("{}", table(&["threshold", "critical SDCs", "share"], &rows));

    // (B) Locality density cut: how the square/random boundary moves.
    println!("(B) locality classifier density-threshold sweep (same reports):");
    let mut rows = Vec::new();
    for density in [0.01, 0.05, 0.25, 0.75] {
        let classifier =
            radcrit_core::locality::LocalityClassifier::with_density_threshold(density);
        let mut counts = std::collections::BTreeMap::new();
        for r in &reports {
            *counts.entry(classifier.classify(r)).or_insert(0usize) += 1;
        }
        rows.push(vec![
            format!("{density}"),
            counts
                .iter()
                .map(|(c, n)| format!("{c}:{n}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    println!("{}", table(&["density cut", "class distribution"], &rows));

    // (C) Device-scaling substitution: the K40 DGEMM FIT growth ratio
    // must be stable when device storage and inputs scale together.
    println!("(C) scaling substitution: K40 DGEMM FIT growth at several joint scales:");
    let mut rows = Vec::new();
    let mut growths = Vec::new();
    let scaling_matrix: [(usize, [usize; 2], usize); 3] = match ctx.scale {
        Scale::Quick => [(4, [64, 128], 40), (8, [32, 64], 60), (16, [16, 32], 80)],
        Scale::Standard => [
            (4, [256, 1024], 60),
            (8, [128, 512], 120),
            (16, [64, 256], 200),
        ],
    };
    for (divisor, sizes, injections) in scaling_matrix {
        let device = radcrit_accel::config::DeviceConfig::kepler_k40()
            .scaled(divisor)
            .expect("K40 scales");
        let mut fits = Vec::new();
        for n in sizes {
            let summary = radcrit_campaign::Campaign::new(
                device.clone(),
                KernelSpec::Dgemm { n },
                injections,
                ctx.seed,
            )
            .run()
            .unwrap_or_else(|e| die(&format!("scaling ablation failed: {e}")))
            .summary();
            fits.push(summary.fit_all_total());
        }
        let growth = if fits[0] > 0.0 {
            fits[1] / fits[0]
        } else {
            0.0
        };
        growths.push(growth);
        rows.push(vec![
            format!("1/{divisor}"),
            format!("{}..{}", sizes[0], sizes[1]),
            format!("{:.2}", fits[0] * 1e-3),
            format!("{:.2}", fits[1] * 1e-3),
            format!("{growth:.1}x"),
        ]);
    }
    println!(
        "{}",
        table(
            &["scale", "sides", "FIT small", "FIT large", "growth"],
            &rows
        )
    );

    let spread = growths.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / growths
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .max(1e-9);
    let checks = vec![
        ShapeCheck::new(
            "raising the tolerance never increases the critical SDC count",
            "sweep (A)".to_owned(),
            monotone,
        ),
        ShapeCheck::new(
            // Growth is a ratio of Poisson-noisy totals and depends on the
            // absolute thread counts of each row, so only its direction
            // and rough magnitude are expected to be stable.
            "FIT grows substantially with input size at every joint device/input scale",
            format!("growths {growths:?}"),
            spread < 3.5 && growths.iter().all(|&g| g > 1.2),
        ),
    ];
    println!("{}", shape_report("ablate", &checks));
    ctx.record(&checks);
}

// -------------------------------------------------------------- injector

/// Beam vs software fault injector (§IV-D): what a SASSIFI/GPU-Qin-class
/// tool would have measured, next to the beam ground truth.
fn injector(ctx: &mut Ctx) {
    heading("Beam vs software fault injector (Section IV-D)");
    use radcrit_core::locality::SpatialClass;
    use radcrit_faults::injector::SoftwareInjector;

    let n = match ctx.scale {
        Scale::Quick => 64,
        Scale::Standard => 256,
    };
    let injections = match ctx.scale {
        Scale::Quick => 60u64,
        Scale::Standard => 250,
    };
    let mut checks = Vec::new();
    for device in [presets::k40(), presets::xeon_phi()] {
        let mut h = Harness::new(&device, KernelSpec::Dgemm { n }, ctx.seed);
        let tool = SoftwareInjector::new(&device, &h.golden.profile);
        let visible = SoftwareInjector::visible_cross_section_fraction(h.sampler.table());

        // Identical analysis over both samplers.
        let classify = radcrit_core::locality::LocalityClassifier::default();
        let mut run_campaign = |use_tool: bool| -> (usize, usize, f64) {
            // (sdc, block_class_sdc, mean of per-run MRE capped)
            let seed = ctx.seed ^ (0x17EC << 32);
            let plans = if use_tool {
                strike_plans(injections, seed, |r| tool.sample(r))
            } else {
                strike_plans(injections, seed, |r| h.sampler.sample(r))
            };
            let sdcs = h.sweep(&plans, |report, _| {
                report.is_sdc().then(|| {
                    let mre = report.mean_relative_error_capped(1e4).unwrap_or(0.0);
                    (mre, classify.classify(&report))
                })
            });
            let (mut sdc, mut blocks, mut mre_sum) = (0usize, 0usize, 0.0f64);
            for (mre, class) in sdcs.into_iter().flatten() {
                sdc += 1;
                mre_sum += mre;
                if class == SpatialClass::Square || class == SpatialClass::Random {
                    blocks += 1;
                }
            }
            (sdc, blocks, mre_sum / sdc.max(1) as f64)
        };

        let (beam_sdc, beam_blocks, beam_mre) = run_campaign(false);
        let (tool_sdc, tool_blocks, tool_mre) = run_campaign(true);
        println!(
            "
{} DGEMM {n}x{n}: injector sees {:.0}% of the physical cross-section",
            device.kind(),
            visible * 100.0
        );
        println!(
            "{}",
            table(
                &["method", "SDCs", "square/random SDCs", "mean capped MRE"],
                &[
                    vec![
                        "beam".into(),
                        beam_sdc.to_string(),
                        beam_blocks.to_string(),
                        format!("{beam_mre:.1}%"),
                    ],
                    vec![
                        "injector".into(),
                        tool_sdc.to_string(),
                        tool_blocks.to_string(),
                        format!("{tool_mre:.1}%"),
                    ],
                ],
            )
        );
        checks.push(ShapeCheck::new(
            format!(
                "{}: the injector misses a large share of the physical cross-section",
                device.kind()
            ),
            format!("sees {:.0}%", visible * 100.0),
            visible < 0.8,
        ));
        checks.push(ShapeCheck::new(
            format!(
                "{}: the injector under-observes block (scheduler/control) error patterns",
                device.kind()
            ),
            format!("beam {beam_blocks} vs injector {tool_blocks}"),
            tool_blocks <= beam_blocks,
        ));
    }
    println!("{}", shape_report("injector", &checks));
    ctx.record(&checks);
}

// ------------------------------------------------------------ multistrike

/// Why the paper keeps error rates below 1e-3 per execution (§IV-D):
/// at higher flux, multiple neutrons land in one run and the per-strike
/// statistics become biased — SDCs merge, magnitudes mix, locality
/// patterns overlap.
fn multistrike(ctx: &mut Ctx) {
    heading("Single-strike design rule: statistics vs strikes-per-execution (Section IV-D)");
    use radcrit_core::locality::SpatialClass;
    use radcrit_faults::sampler::BurstPlan;

    let n = match ctx.scale {
        Scale::Quick => 48,
        Scale::Standard => 128,
    };
    let runs = match ctx.scale {
        Scale::Quick => 80,
        Scale::Standard => 400,
    };
    let device = presets::k40();
    let mut h = Harness::new(&device, KernelSpec::Dgemm { n }, ctx.seed);
    let classifier = radcrit_core::locality::LocalityClassifier::default();

    let mut rows = Vec::new();
    let mut per_strike_rates = Vec::new();
    for mean in [0.001f64, 0.5, 1.0, 2.0, 4.0] {
        // The paper's regime strikes about one execution in a thousand:
        // draw until `runs` executions were struck, the rest quiet.
        let sparse = mean < 0.01;
        let (mut strikes_total, mut fatal, mut quiet) = (0usize, 0usize, 0usize);
        let mut plans = Vec::new();
        for i in 0u64.. {
            let counted = if sparse {
                i as usize - quiet
            } else {
                i as usize
            };
            if counted == runs {
                break;
            }
            let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0x3157 << 28) ^ i);
            match h.sampler.sample_burst(&mut rng, mean) {
                BurstPlan::Crash | BurstPlan::Hang => fatal += 1,
                BurstPlan::Strikes(strikes) if strikes.is_empty() => quiet += 1,
                BurstPlan::Strikes(strikes) => {
                    strikes_total += strikes.len();
                    plans.push((strikes, rng));
                }
            }
        }
        let (mut sdc_runs, mut incorrect_sum, mut multi_class) = (0usize, 0usize, 0usize);
        h.sweep(&plans, |report, _| {
            if report.is_sdc() {
                sdc_runs += 1;
                incorrect_sum += report.incorrect_elements();
                multi_class += usize::from(classifier.classify(&report) == SpatialClass::Random);
            }
        });
        let per_strike = if strikes_total == 0 {
            0.0
        } else {
            sdc_runs as f64 / strikes_total as f64
        };
        if strikes_total > 0 {
            per_strike_rates.push((mean, per_strike));
        }
        rows.push(vec![
            format!("{mean}"),
            strikes_total.to_string(),
            quiet.to_string(),
            fatal.to_string(),
            sdc_runs.to_string(),
            format!("{per_strike:.3}"),
            format!("{:.0}", incorrect_sum as f64 / sdc_runs.max(1) as f64),
            multi_class.to_string(),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "strikes/exec",
                "strikes",
                "quiet runs",
                "fatal",
                "SDC runs",
                "SDCs/strike",
                "mean elems",
                "random-class",
            ],
            &rows
        )
    );

    // At high flux the apparent per-strike SDC rate must fall (strikes
    // share runs), which would corrupt FIT estimates computed per event.
    let rate = |mean: f64| {
        per_strike_rates
            .iter()
            .find(|(m, _)| *m == mean)
            .map_or(0.0, |&(_, r)| r)
    };
    let (low, high) = (rate(0.001), rate(4.0));
    let checks = vec![ShapeCheck::new(
        "beyond the 1e-3 regime, per-strike SDC statistics deflate (strikes merge)",
        format!("{low:.3} at 1e-3 strikes/exec vs {high:.3} at 4"),
        high < low,
    )];
    println!("{}", shape_report("multistrike", &checks));
    ctx.record(&checks);
}

// ------------------------------------------------------------- hardening

/// Selective hardening (the paper's §VI future work): which resources to
/// protect first, per device, from the DGEMM campaigns.
fn hardening(ctx: &mut Ctx) {
    heading("Selective hardening: critical-SDC attribution by site (Section VI)");
    for phi in [false, true] {
        let device = if phi {
            presets::xeon_phi()
        } else {
            presets::k40()
        };
        let presets_list = presets::dgemm(&device, ctx.scale);
        let preset = presets_list.last().expect("at least one DGEMM size");
        let analysis = radcrit_campaign::HardeningAnalysis::of(ctx.run(preset));
        println!(
            "\n{} DGEMM {} — critical FIT {:.2} a.u.:",
            preset.device.kind(),
            preset.kernel.input_label(),
            analysis.critical_fit() * 1e-3
        );
        let rows: Vec<Vec<String>> = analysis
            .ranked_sites()
            .into_iter()
            .map(|(site, impact)| {
                vec![
                    site.to_owned(),
                    impact.sdc.to_string(),
                    impact.critical.to_string(),
                    impact.masked.to_string(),
                    analysis
                        .avf(site)
                        .map_or_else(|| "-".into(), |v| format!("{:.2}", v)),
                    analysis
                        .critical_avf(site)
                        .map_or_else(|| "-".into(), |v| format!("{:.2}", v)),
                ]
            })
            .collect();
        println!(
            "{}",
            table(
                &["site", "SDC", "critical", "masked", "AVF", "critical AVF"],
                &rows
            )
        );
        let half = analysis.sites_for_reduction(0.5);
        println!(
            "hardening {:?} removes {:.0}% of the critical FIT",
            half,
            analysis.fit_reduction(&half) * 100.0
        );
        let checks = vec![ShapeCheck::new(
            format!(
                "{}: a small set of sites concentrates half the critical FIT",
                preset.device.kind()
            ),
            format!("{} site(s)", half.len()),
            !half.is_empty() && half.len() <= 3,
        )];
        println!("{}", shape_report("hardening", &checks));
        ctx.record(&checks);
    }
}

// --------------------------------------------------------------- numeric

fn mean_of(summaries: &[CampaignSummary], f: impl Fn(&CampaignSummary) -> f64) -> f64 {
    if summaries.is_empty() {
        return 0.0;
    }
    summaries.iter().map(f).sum::<f64>() / summaries.len() as f64
}

fn growth(summaries: &[CampaignSummary]) -> f64 {
    let first = summaries.first().map(|s| s.fit_all_total()).unwrap_or(0.0);
    let last = summaries.last().map(|s| s.fit_all_total()).unwrap_or(0.0);
    if first <= 0.0 {
        0.0
    } else {
        last / first
    }
}
