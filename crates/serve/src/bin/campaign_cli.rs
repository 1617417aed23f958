//! `radcrit-campaign` — run injection campaigns directly or against the
//! campaign daemon.
//!
//! ```text
//! radcrit-campaign [run] --device k40|phi --kernel dgemm|lavamd|hotspot|clamr ...
//! radcrit-campaign obs-report EVENTS_FILE
//! radcrit-campaign obs-report flamegraph PROFILE_JSON
//! radcrit-campaign serve   [--addr A] [--data-dir D] [--pool N] [--queue-depth N] [--cache-mb N]
//! radcrit-campaign submit  --addr A <campaign flags> [--priority P] [--wait [--timeout SECS]]
//! radcrit-campaign status  --addr A JOB
//! radcrit-campaign fetch   --addr A JOB [--out FILE]
//! radcrit-campaign cancel  --addr A JOB
//! radcrit-campaign shutdown --addr A
//! radcrit-campaign coordinate --addr A --data-dir D --worker W [--worker W ...]
//!     [--shards K] <campaign flags> [--summary-out FILE] [--trace-out FILE]
//! radcrit-campaign register --addr COORD WORKER
//! radcrit-campaign shards  --addr COORD
//! ```
//!
//! The default (no subcommand / `run`) executes one campaign in-process
//! and prints the summary; `serve` starts the long-running daemon, and
//! the client subcommands talk to it over HTTP. Both paths build their
//! campaign through the same [`JobSpec::campaign`] constructor, so a
//! daemon job and a direct run of the same spec produce bit-for-bit
//! identical summaries (`--summary-out` writes the canonical JSON form
//! for comparison). `coordinate` federates one campaign across several
//! `serve` daemons: it shards the injection range, dispatches shard
//! jobs, merges every shard's live stream, survives worker death by
//! re-dispatching the remaining range, and writes the same canonical
//! summary a single-node run of the spec would.
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success |
//! | 1 | runtime failure (engine error, I/O, HTTP error from the daemon) |
//! | 2 | configuration / usage error (bad flags, invalid spec) |
//! | 130 | interrupted (e.g. `--wait` timed out before the job finished) |

#![warn(clippy::too_many_lines)]

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

use radcrit_campaign::log::{write_csv, write_log};
use radcrit_campaign::summary::render_run;
use radcrit_campaign::{HardeningAnalysis, KernelSpec, RunOptions};
use radcrit_core::filter::ToleranceFilter;
use radcrit_core::locality::SpatialClass;
use radcrit_obs::ProvenanceBreakdown;
use radcrit_serve::coord::{self, CoordinatorConfig};
use radcrit_serve::daemon::{self, DaemonConfig};
use radcrit_serve::{Client, DeviceKind, JobSpec, Priority, ServeError};

const USAGE: &str =
    "usage: radcrit-campaign [run] --device k40|phi --kernel dgemm|lavamd|hotspot|clamr
       [--scale 8] [--n 128] [--grid 7] [--particles 16]
       [--rows 128] [--cols 128] [--steps 200] [--iterations 128]
       [--injections 200] [--seed 2017] [--tolerance 2.0]
       [--workers 0] [--csv out.csv] [--log out.log] [--hardening]
       [--deadline-ms 120000] [--checkpoint run.jsonl] [--resume]
       [--progress 5] [--summary-out summary.json]
       [--metrics-out metrics.json] [--events-out events.jsonl]
       [--events-sample 1]
       [--trace-out trace.json] [--profile-out profile.json]
   radcrit-campaign obs-report EVENTS_FILE
   radcrit-campaign obs-report flamegraph PROFILE_JSON
   radcrit-campaign serve [--addr 127.0.0.1:7117] [--data-dir DIR]
       [--pool 2] [--queue-depth 64] [--cache-mb 64]
   radcrit-campaign submit --addr HOST:PORT <campaign flags>
       [--priority high|normal|low] [--wait] [--timeout 600]
   radcrit-campaign status --addr HOST:PORT JOB
   radcrit-campaign fetch --addr HOST:PORT JOB [--out FILE]
   radcrit-campaign cancel --addr HOST:PORT JOB
   radcrit-campaign shutdown --addr HOST:PORT
   radcrit-campaign coordinate --addr 127.0.0.1:7118 --data-dir DIR
       --worker HOST:PORT [--worker HOST:PORT ...] [--shards K]
       <campaign flags> [--summary-out FILE] [--trace-out FILE]
       [--heartbeat-ms 500] [--heartbeat-timeout-ms 5000]
   radcrit-campaign register --addr COORD_HOST:PORT WORKER_HOST:PORT
   radcrit-campaign shards --addr COORD_HOST:PORT

exit codes: 0 success | 1 runtime failure | 2 config/usage error
            130 interrupted (--wait timeout)
RADCRIT_FORCE_SCALAR=1 pins the process to the scalar SIMD reference
(same bytes, slower)";

/// Maps error kinds to the documented exit codes.
fn exit_code(e: &ServeError) -> i32 {
    match e {
        ServeError::Config(_) => 2,
        ServeError::Interrupted(_) => 130,
        _ => 1,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        exit(0);
    }
    let outcome = match argv.first().map(String::as_str) {
        Some("obs-report") => obs_report(&argv[1..]),
        Some("serve") => cmd_serve(&argv[1..]),
        Some("submit") => cmd_submit(&argv[1..]),
        Some("status") => cmd_status(&argv[1..]),
        Some("fetch") => cmd_fetch(&argv[1..]),
        Some("cancel") => cmd_cancel(&argv[1..]),
        Some("shutdown") => cmd_shutdown(&argv[1..]),
        Some("coordinate") => cmd_coordinate(&argv[1..]),
        Some("register") => cmd_register(&argv[1..]),
        Some("shards") => cmd_shards(&argv[1..]),
        Some("run") => cmd_run(&argv[1..]),
        _ => cmd_run(&argv),
    };
    if let Err(e) = outcome {
        eprintln!("radcrit-campaign: {e}");
        if matches!(e, ServeError::Config(_)) {
            eprintln!("{USAGE}");
        }
        exit(exit_code(&e));
    }
}

// ---------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------

/// Campaign-shaping flags shared by `run` and `submit`.
#[derive(Debug)]
struct CampaignArgs {
    device: Option<String>,
    scale: usize,
    kernel: Option<String>,
    n: usize,
    grid: usize,
    particles: usize,
    rows: usize,
    cols: usize,
    steps: usize,
    iterations: usize,
    injections: usize,
    seed: u64,
    tolerance: Option<f64>,
    workers: usize,
    deadline_ms: Option<u64>,
    events_sample: u64,
}

impl Default for CampaignArgs {
    fn default() -> Self {
        CampaignArgs {
            device: None,
            scale: 8,
            kernel: None,
            n: 128,
            grid: 7,
            particles: 16,
            rows: 128,
            cols: 128,
            steps: 200,
            iterations: 128,
            injections: 200,
            seed: 2017,
            tolerance: None,
            workers: 0,
            deadline_ms: None,
            events_sample: 1,
        }
    }
}

fn config(m: impl Into<String>) -> ServeError {
    ServeError::Config(m.into())
}

/// Pulls the value of flag `flag` out of the iterator.
fn value(flag: &str, it: &mut dyn Iterator<Item = String>) -> Result<String, ServeError> {
    it.next()
        .ok_or_else(|| config(format!("missing value for {flag}")))
}

/// Parses the value of flag `flag`.
fn parsed<T: std::str::FromStr>(
    flag: &str,
    it: &mut dyn Iterator<Item = String>,
) -> Result<T, ServeError> {
    value(flag, it)?
        .parse()
        .map_err(|_| config(format!("bad value for {flag}")))
}

impl CampaignArgs {
    /// Consumes one flag if it belongs to the campaign-shaping set.
    fn accept(
        &mut self,
        flag: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, ServeError> {
        match flag {
            "--device" => self.device = Some(value(flag, it)?),
            "--scale" => self.scale = parsed(flag, it)?,
            "--kernel" => self.kernel = Some(value(flag, it)?),
            "--n" => self.n = parsed(flag, it)?,
            "--grid" => self.grid = parsed(flag, it)?,
            "--particles" => self.particles = parsed(flag, it)?,
            "--rows" => self.rows = parsed(flag, it)?,
            "--cols" => self.cols = parsed(flag, it)?,
            "--steps" => self.steps = parsed(flag, it)?,
            "--iterations" => self.iterations = parsed(flag, it)?,
            "--injections" => self.injections = parsed(flag, it)?,
            "--seed" => self.seed = parsed(flag, it)?,
            "--tolerance" => self.tolerance = Some(parsed(flag, it)?),
            "--workers" => self.workers = parsed(flag, it)?,
            "--deadline-ms" => self.deadline_ms = Some(parsed(flag, it)?),
            "--events-sample" => self.events_sample = parsed(flag, it)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the wire spec these flags describe.
    fn spec(&self) -> Result<JobSpec, ServeError> {
        let device = DeviceKind::from_wire(
            self.device
                .as_deref()
                .ok_or_else(|| config("--device is required (k40 or phi)"))?,
        )?;
        let kernel = match self.kernel.as_deref() {
            Some("dgemm") => KernelSpec::Dgemm { n: self.n },
            Some("lavamd") => KernelSpec::LavaMd {
                grid: self.grid,
                particles: self.particles,
            },
            Some("hotspot") => KernelSpec::HotSpot {
                rows: self.rows,
                cols: self.cols,
                iterations: self.iterations,
            },
            Some("clamr") => KernelSpec::Shallow {
                rows: self.rows,
                cols: self.cols,
                steps: self.steps,
            },
            Some(other) => return Err(config(format!("unknown kernel {other:?}"))),
            None => {
                return Err(config(
                    "--kernel is required (dgemm, lavamd, hotspot or clamr)",
                ))
            }
        };
        let spec = JobSpec {
            device,
            scale: self.scale,
            kernel,
            injections: self.injections,
            seed: self.seed,
            tolerance_pct: self.tolerance,
            workers: self.workers,
            deadline_ms: self.deadline_ms,
            priority: Priority::Normal,
            events_sample: self.events_sample,
            shard: None,
            trace: None,
        };
        spec.validate()?;
        Ok(spec)
    }
}

// ---------------------------------------------------------------------
// run (direct, in-process)
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct RunArgs {
    campaign: CampaignArgs,
    csv: Option<String>,
    log: Option<String>,
    hardening: bool,
    checkpoint: Option<PathBuf>,
    resume: bool,
    progress: Option<f64>,
    summary_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
}

fn cmd_run(argv: &[String]) -> Result<(), ServeError> {
    let mut a = RunArgs::default();
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        if a.campaign.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--csv" => a.csv = Some(value(&flag, &mut it)?),
            "--log" => a.log = Some(value(&flag, &mut it)?),
            "--hardening" => a.hardening = true,
            "--checkpoint" => a.checkpoint = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--resume" => a.resume = true,
            "--progress" => a.progress = Some(parsed(&flag, &mut it)?),
            "--summary-out" => a.summary_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--metrics-out" => a.metrics_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--events-out" => a.events_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--profile-out" => a.profile_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            other => return Err(config(format!("unknown flag {other}"))),
        }
    }
    if a.resume && a.checkpoint.is_none() {
        return Err(config("--resume needs --checkpoint FILE"));
    }
    if a.progress.is_some_and(|p| p <= 0.0 || !p.is_finite()) {
        return Err(config("--progress must be a positive number of seconds"));
    }

    let spec = a.campaign.spec()?;
    let campaign = spec.campaign()?;
    let isa = radcrit_core::exec::active();
    eprintln!(
        "running {} x {} on {} ({} injections, seed {}, simd isa {isa}) ...",
        spec.kernel.name(),
        spec.kernel.input_label(),
        campaign.device.kind(),
        spec.injections,
        spec.seed
    );

    let options = RunOptions {
        checkpoint: a.checkpoint,
        resume: a.resume,
        progress: a.progress.map(Duration::from_secs_f64),
        metrics_out: a.metrics_out.clone(),
        events_out: a.events_out.clone(),
        events_sample: spec.events_sample,
        trace_out: a.trace_out.clone(),
        profile_out: a.profile_out.clone(),
        ..RunOptions::default()
    };
    let result = campaign
        .run_with(&options)
        .map_err(|e| ServeError::Io(format!("campaign failed: {e}")))?;

    let s = result.summary();
    eprintln!("{}", render_run(&s, &result.telemetry));
    println!(
        "outcomes: {} SDC ({} critical at >{}%), {} masked, {} crash, {} hang",
        s.sdc,
        s.critical_sdc,
        spec.tolerance_pct
            .unwrap_or(ToleranceFilter::PAPER_THRESHOLD_PCT),
        s.masked,
        s.crash,
        s.hang
    );
    println!(
        "SDC:(crash+hang) ratio: {:.2} | filtered out: {:.0}% | sigma {:.3e} a.u.",
        s.sdc_to_crash_hang_ratio(),
        s.filtered_out_fraction() * 100.0,
        s.sigma_total
    );
    println!("FIT (a.u., scaled 1e-3):");
    for (label, b) in [("All", &s.fit_all), (">tol", &s.fit_filtered)] {
        let classes = SpatialClass::PLOTTED
            .iter()
            .map(|&c| format!("{c}:{:.2}", b.rate(c).value() * 1e-3))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "  {label:>4}: total {:.2} | {classes}",
            b.total().value() * 1e-3
        );
    }
    let (lo, hi) = s.fit_all_ci95();
    println!(
        "  95% CI on All total: [{:.2}, {:.2}]",
        lo * 1e-3,
        hi * 1e-3
    );

    if a.hardening {
        let analysis = HardeningAnalysis::of(&result);
        println!("hardening priority (site: critical SDCs, AVF):");
        for (site, impact) in analysis.ranked_sites() {
            println!(
                "  {site:>16}: {:>4} critical, AVF {}",
                impact.critical,
                analysis
                    .avf(site)
                    .map_or_else(|| "-".into(), |v| format!("{v:.2}"))
            );
        }
    }

    if let Some(path) = &a.summary_out {
        write_text(path, &format!("{}\n", s.to_json()))?;
        eprintln!("summary JSON written to {}", path.display());
    }
    if let Some(path) = &a.log {
        let f = create(path.as_ref())?;
        write_log(&result, BufWriter::new(f))
            .map_err(|e| ServeError::Io(format!("log write {path}: {e}")))?;
        eprintln!("log written to {path}");
    }
    if let Some(path) = &a.csv {
        let f = create(path.as_ref())?;
        write_csv(&result, BufWriter::new(f))
            .map_err(|e| ServeError::Io(format!("csv write {path}: {e}")))?;
        eprintln!("csv written to {path}");
    }
    if let Some(path) = &a.metrics_out {
        eprintln!(
            "metrics written to {} (Prometheus text: {})",
            path.display(),
            path.with_extension("prom").display()
        );
    }
    if let Some(path) = &a.events_out {
        eprintln!(
            "events written to {} (aggregate with: radcrit-campaign obs-report {})",
            path.display(),
            path.display()
        );
    }
    if let Some(path) = &a.trace_out {
        eprintln!(
            "Chrome trace written to {} (load in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    if let Some(path) = &a.profile_out {
        eprintln!(
            "phase profile written to {} (flamegraph: radcrit-campaign obs-report flamegraph {})",
            path.display(),
            path.display()
        );
    }
    Ok(())
}

fn create(path: &Path) -> Result<File, ServeError> {
    File::create(path).map_err(|e| ServeError::Io(format!("cannot create {}: {e}", path.display())))
}

fn write_text(path: &Path, text: &str) -> Result<(), ServeError> {
    std::fs::write(path, text).map_err(|e| ServeError::Io(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// obs-report
// ---------------------------------------------------------------------

/// `obs-report EVENTS_FILE`: aggregate an event stream's provenance
/// records into the per-site breakdown table.
///
/// `obs-report flamegraph PROFILE_JSON`: print a phase profile in
/// Brendan-Gregg collapsed-stack form (`a;b;c self_us`) for
/// `flamegraph.pl` / speedscope / inferno.
fn obs_report(args: &[String]) -> Result<(), ServeError> {
    if args.first().map(String::as_str) == Some("flamegraph") {
        let [_, path] = args else {
            return Err(config(
                "obs-report flamegraph needs exactly one PROFILE_JSON argument",
            ));
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServeError::Io(format!("obs-report flamegraph {path}: {e}")))?;
        let tree = radcrit_obs::ProfileTree::from_json(&text)
            .map_err(|e| ServeError::Io(format!("obs-report flamegraph {path}: {e}")))?;
        if tree.is_empty() {
            return Err(ServeError::Io(format!("no profiled phases in {path}")));
        }
        print!("{}", tree.to_collapsed());
        return Ok(());
    }
    let [path] = args else {
        return Err(config("obs-report needs exactly one EVENTS_FILE argument"));
    };
    let b = ProvenanceBreakdown::from_events_path(Path::new(path))
        .map_err(|e| ServeError::Io(format!("obs-report: {e}")))?;
    if b.sites().is_empty() {
        return Err(ServeError::Io(format!(
            "no provenance events found in {path}"
        )));
    }
    print!("{}", b.render());
    let totals = b
        .class_totals()
        .iter()
        .map(|(class, n)| format!("{class}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("spatial-class totals: {totals}");
    Ok(())
}

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

fn cmd_serve(argv: &[String]) -> Result<(), ServeError> {
    let mut cfg = DaemonConfig {
        addr: "127.0.0.1:7117".to_owned(),
        ..DaemonConfig::default()
    };
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => cfg.addr = value(&flag, &mut it)?,
            "--data-dir" => cfg.data_dir = PathBuf::from(value(&flag, &mut it)?),
            "--pool" => cfg.pool = parsed(&flag, &mut it)?,
            "--queue-depth" => cfg.queue_depth = parsed(&flag, &mut it)?,
            "--cache-mb" => {
                let mb: usize = parsed(&flag, &mut it)?;
                cfg.cache_bytes = mb * 1024 * 1024;
            }
            other => return Err(config(format!("unknown flag {other}"))),
        }
    }
    if cfg.pool == 0 {
        return Err(config("--pool must be >= 1"));
    }
    let handle = daemon::start(cfg.clone())?;
    eprintln!(
        "radcrit-serve listening on {} (pool {}, queue depth {}, cache {} MiB, data in {})",
        handle.addr(),
        cfg.pool,
        cfg.queue_depth,
        cfg.cache_bytes / (1024 * 1024),
        cfg.data_dir.display()
    );
    eprintln!(
        "stop with: radcrit-campaign shutdown --addr {}",
        handle.addr()
    );
    handle.join();
    eprintln!("radcrit-serve drained, exiting");
    Ok(())
}

// ---------------------------------------------------------------------
// client subcommands
// ---------------------------------------------------------------------

/// An extra-flag handler: given a flag and the remaining argument
/// stream, consumes its value and reports whether it recognised the flag.
type ExtraFlag<'f> = &'f mut dyn FnMut(&str, &mut dyn Iterator<Item = String>) -> FlagResult;
type FlagResult = Result<bool, ServeError>;

/// Parses `--addr HOST:PORT` plus at most one positional (the job id).
fn client_args(
    argv: &[String],
    extra: ExtraFlag<'_>,
    positional_name: Option<&str>,
) -> Result<(Client, Option<String>), ServeError> {
    let mut addr: Option<String> = None;
    let mut positional: Option<String> = None;
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--addr" => addr = Some(value(&flag, &mut it)?),
            other if other.starts_with("--") => {
                if !extra(other, &mut it)? {
                    return Err(config(format!("unknown flag {other}")));
                }
            }
            other => {
                if positional_name.is_none() || positional.is_some() {
                    return Err(config(format!("unexpected argument {other:?}")));
                }
                positional = Some(other.to_owned());
            }
        }
    }
    let addr = addr.ok_or_else(|| config("--addr HOST:PORT is required"))?;
    if let Some(name) = positional_name {
        if positional.is_none() {
            return Err(config(format!("missing {name} argument")));
        }
    }
    Ok((Client::new(addr), positional))
}

fn cmd_submit(argv: &[String]) -> Result<(), ServeError> {
    let mut campaign = CampaignArgs::default();
    let mut priority = Priority::Normal;
    let mut wait = false;
    let mut timeout_s = 600.0f64;
    let (client, _) = client_args(
        argv,
        &mut |flag, it| {
            if campaign.accept(flag, it)? {
                return Ok(true);
            }
            match flag {
                "--priority" => priority = Priority::from_wire(&value(flag, it)?)?,
                "--wait" => wait = true,
                "--timeout" => timeout_s = parsed(flag, it)?,
                _ => return Ok(false),
            }
            Ok(true)
        },
        None,
    )?;
    let mut spec = campaign.spec()?;
    spec.priority = priority;
    let id = client.submit(&spec)?;
    eprintln!("submitted {id} to {}", client.addr());
    if wait {
        let status = client.wait(&id, Duration::from_secs_f64(timeout_s))?;
        match status.state.as_str() {
            "done" => {
                print!("{}", client.result(&id)?);
                Ok(())
            }
            "cancelled" => Err(ServeError::Interrupted(format!("job {id} was cancelled"))),
            _ => Err(ServeError::Io(format!(
                "job {id} failed: {}",
                status.error.unwrap_or_else(|| "unknown error".into())
            ))),
        }
    } else {
        println!("{id}");
        Ok(())
    }
}

fn cmd_status(argv: &[String]) -> Result<(), ServeError> {
    let (client, id) = client_args(argv, &mut |_, _| Ok(false), Some("JOB"))?;
    let id = id.expect("positional enforced");
    let status = client.status(&id)?;
    match status.error {
        Some(error) => println!("{id}: {} ({error})", status.state),
        None => println!("{id}: {}", status.state),
    }
    Ok(())
}

fn cmd_fetch(argv: &[String]) -> Result<(), ServeError> {
    let mut out: Option<PathBuf> = None;
    let (client, id) = client_args(
        argv,
        &mut |flag, it| match flag {
            "--out" => {
                out = Some(PathBuf::from(value(flag, it)?));
                Ok(true)
            }
            _ => Ok(false),
        },
        Some("JOB"),
    )?;
    let id = id.expect("positional enforced");
    let body = client.result(&id)?;
    match out {
        Some(path) => {
            write_text(&path, &body)?;
            eprintln!("result written to {}", path.display());
        }
        None => {
            print!("{body}");
            std::io::stdout().flush().ok();
        }
    }
    Ok(())
}

fn cmd_cancel(argv: &[String]) -> Result<(), ServeError> {
    let (client, id) = client_args(argv, &mut |_, _| Ok(false), Some("JOB"))?;
    let id = id.expect("positional enforced");
    let state = client.cancel(&id)?;
    println!("{id}: {state}");
    Ok(())
}

fn cmd_shutdown(argv: &[String]) -> Result<(), ServeError> {
    let (client, _) = client_args(argv, &mut |_, _| Ok(false), None)?;
    client.shutdown()?;
    eprintln!("daemon at {} is draining", client.addr());
    Ok(())
}

// ---------------------------------------------------------------------
// coordinator subcommands
// ---------------------------------------------------------------------

fn cmd_coordinate(argv: &[String]) -> Result<(), ServeError> {
    let mut campaign = CampaignArgs::default();
    let mut addr = "127.0.0.1:7118".to_owned();
    let mut data_dir: Option<PathBuf> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut shards = 0usize;
    let mut summary_out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut heartbeat_ms = 500u64;
    let mut heartbeat_timeout_ms = 5000u64;
    let mut it = argv.iter().cloned();
    while let Some(flag) = it.next() {
        if campaign.accept(&flag, &mut it)? {
            continue;
        }
        match flag.as_str() {
            "--addr" => addr = value(&flag, &mut it)?,
            "--data-dir" => data_dir = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--worker" => workers.push(value(&flag, &mut it)?),
            "--shards" => shards = parsed(&flag, &mut it)?,
            "--summary-out" => summary_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value(&flag, &mut it)?)),
            "--heartbeat-ms" => heartbeat_ms = parsed(&flag, &mut it)?,
            "--heartbeat-timeout-ms" => heartbeat_timeout_ms = parsed(&flag, &mut it)?,
            other => return Err(config(format!("unknown flag {other}"))),
        }
    }
    let data_dir = data_dir.ok_or_else(|| config("--data-dir DIR is required"))?;
    if workers.is_empty() && shards == 0 {
        return Err(config(
            "coordinate needs at least one --worker (or --shards K plus later POST /register)",
        ));
    }
    if heartbeat_ms == 0 || heartbeat_timeout_ms == 0 {
        return Err(config("heartbeat periods must be > 0 ms"));
    }
    let spec = campaign.spec()?;
    let cfg = CoordinatorConfig {
        addr,
        data_dir,
        spec,
        shards,
        workers,
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        heartbeat_timeout: Duration::from_millis(heartbeat_timeout_ms),
        summary_out: summary_out.clone(),
        trace_out: trace_out.clone(),
    };
    let handle = coord::start(cfg)?;
    eprintln!(
        "radcrit-coordinator listening on {} (register workers with: \
         radcrit-campaign register --addr {} HOST:PORT)",
        handle.addr(),
        handle.addr()
    );
    // Run to completion: the coordinator exits once the merged campaign
    // is done (the HTTP API stays up until then).
    let forever = Duration::from_secs(u64::MAX / 4);
    handle.wait_done(forever)?;
    let client = Client::new(handle.addr().to_string());
    let result = client.result("merged")?;
    handle.shutdown()?;
    print!("{result}");
    std::io::stdout().flush().ok();
    if let Some(path) = summary_out {
        eprintln!("merged summary written to {}", path.display());
    }
    if let Some(path) = trace_out {
        eprintln!("fleet trace written to {}", path.display());
    }
    Ok(())
}

fn cmd_register(argv: &[String]) -> Result<(), ServeError> {
    let (client, worker) = client_args(argv, &mut |_, _| Ok(false), Some("WORKER"))?;
    let worker = worker.expect("positional enforced");
    let body = client.register_worker(&worker)?;
    println!("{body}");
    Ok(())
}

fn cmd_shards(argv: &[String]) -> Result<(), ServeError> {
    let (client, _) = client_args(argv, &mut |_, _| Ok(false), None)?;
    println!("{}", client.shards()?);
    Ok(())
}
