//! `serve-bench` — throughput and golden-cache benchmark of the campaign
//! daemon.
//!
//! ```text
//! serve-bench [--jobs 6] [--n 320] [--injections 2] [--pool 2]
//! ```
//!
//! Starts an in-process daemon on an ephemeral port, submits `--jobs`
//! *identical* DGEMM campaigns over HTTP and reports per-job wall time,
//! end-to-end throughput and the golden-cache hit ratio. The spec is
//! deliberately golden-dominated (large matrix, few injections): the
//! first job pays the golden execution, every later one should hit the
//! shared cache — the cold-vs-warm wall-time gap is the number this
//! benchmark exists to show.

use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

use radcrit_campaign::KernelSpec;
use radcrit_serve::daemon::{self, DaemonConfig};
use radcrit_serve::{Client, DeviceKind, JobSpec};

struct Args {
    jobs: usize,
    n: usize,
    injections: usize,
    pool: usize,
}

fn parse_args() -> Args {
    let mut a = Args {
        jobs: 6,
        n: 320,
        injections: 2,
        pool: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!(
                        "usage: serve-bench [--jobs 6] [--n 320] [--injections 2] [--pool 2]"
                    );
                    eprintln!("bad or missing value for {flag}");
                    exit(2)
                })
        };
        match flag.as_str() {
            "--jobs" => a.jobs = val("--jobs"),
            "--n" => a.n = val("--n"),
            "--injections" => a.injections = val("--injections"),
            "--pool" => a.pool = val("--pool"),
            _ => {
                eprintln!("usage: serve-bench [--jobs 6] [--n 320] [--injections 2] [--pool 2]");
                exit(2)
            }
        }
    }
    a
}

/// Reads one un-labelled counter from a Prometheus exposition.
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0.0)
}

fn main() {
    let args = parse_args();
    let data_dir = std::env::temp_dir().join(format!("radcrit-serve-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();

    let handle = daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: PathBuf::from(&data_dir),
        pool: args.pool,
        queue_depth: args.jobs.max(8),
        ..DaemonConfig::default()
    })
    .unwrap_or_else(|e| {
        eprintln!("serve-bench: cannot start daemon: {e}");
        exit(1)
    });
    let client = Client::new(handle.addr().to_string());
    println!(
        "daemon on {} | pool {} | {} identical jobs: dgemm n={} x {} injections",
        handle.addr(),
        args.pool,
        args.jobs,
        args.n,
        args.injections
    );

    let mut spec = JobSpec::new(
        DeviceKind::K40,
        KernelSpec::Dgemm { n: args.n },
        args.injections,
        2017,
    );
    spec.scale = 8;
    spec.events_sample = 0; // no detail events; this measures the service

    // Submit sequentially and wait each one out: per-job wall times stay
    // attributable, and job 1 is guaranteed to be the cold one.
    let mut walls: Vec<Duration> = Vec::with_capacity(args.jobs);
    let started = Instant::now();
    for i in 0..args.jobs {
        let t0 = Instant::now();
        let id = client.submit(&spec).unwrap_or_else(|e| {
            eprintln!("serve-bench: submit failed: {e}");
            exit(1)
        });
        let status = client
            .wait(&id, Duration::from_secs(600))
            .unwrap_or_else(|e| {
                eprintln!("serve-bench: wait failed: {e}");
                exit(1)
            });
        if status.state != "done" {
            eprintln!(
                "serve-bench: job {id} ended {}: {:?}",
                status.state, status.error
            );
            exit(1)
        }
        let wall = t0.elapsed();
        println!(
            "  job {:>2} ({}): {:>8.1} ms {}",
            i + 1,
            id,
            wall.as_secs_f64() * 1e3,
            if i == 0 {
                "(cold: computes golden)"
            } else {
                ""
            }
        );
        walls.push(wall);
    }
    let elapsed = started.elapsed();

    let metrics = client.metrics().unwrap_or_else(|e| {
        eprintln!("serve-bench: metrics fetch failed: {e}");
        exit(1)
    });
    let hits = counter(&metrics, "radcrit_golden_cache_hits_total");
    let misses = counter(&metrics, "radcrit_golden_cache_misses_total");

    let cold = walls[0].as_secs_f64() * 1e3;
    let warm = if walls.len() > 1 {
        walls[1..].iter().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / (walls.len() - 1) as f64
    } else {
        cold
    };
    println!("----");
    println!(
        "total {:.2} s | {:.2} jobs/s | cold {:.1} ms | warm avg {:.1} ms | speedup {:.2}x",
        elapsed.as_secs_f64(),
        args.jobs as f64 / elapsed.as_secs_f64(),
        cold,
        warm,
        cold / warm.max(1e-9),
    );
    println!(
        "golden cache: {hits:.0} hits / {misses:.0} misses ({:.0}% hit rate)",
        100.0 * hits / (hits + misses).max(1.0),
    );

    client.shutdown().ok();
    handle.join();
    std::fs::remove_dir_all(&data_dir).ok();

    if args.jobs > 1 && hits < 1.0 {
        eprintln!("serve-bench: expected at least one cache hit for identical jobs");
        exit(1)
    }
}
