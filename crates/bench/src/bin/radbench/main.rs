//! `radbench` — the repository benchmark.
//!
//! ```text
//! radbench --workload dgemm-mem|lavamd-fma|hotspot-persist|serve-mix
//!          [--seed 2017] [--seconds 30] [--trace 0|1] [--out .radbench]
//! ```
//!
//! Runs one workload in this process, checks that the program's outputs
//! are correct, and prints every metric by name with its unit, value,
//! quartiles and sample count; the last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` carrying the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`,
//! which adds a traced pass and writes its spans as Chrome trace JSON
//! under `--out`). Exit codes: 0 success, 1 a failed operation or
//! check, 2 usage. See README.md beside this file.

mod campaign;
mod layers;
mod report;
mod serve;
mod spans;
mod stats;
mod sut;
mod workload;

use std::path::PathBuf;
use std::process::exit;

use workload::{Args, Sizes, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: radbench --workload dgemm-mem|lavamd-fma|hotspot-persist|serve-mix \
                     [--seed 2017] [--seconds 30] [--trace 0|1] [--out .radbench]";

fn usage(problem: &str) -> ! {
    eprintln!("{USAGE}\n{problem}");
    exit(2)
}

fn bad(flag: &str, value: &str) -> ! {
    usage(&format!("bad value for {flag}: {value}"))
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::DgemmMem,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        traced: false,
        out: PathBuf::from(".radbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).unwrap_or_else(|| bad(&flag, &value)))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| bad(&flag, &value))
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--out" => args.out = PathBuf::from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

fn main() {
    let args = parse_args();
    let fp = sut::fingerprint();
    let fingerprint = [
        ("workload", args.workload.name().to_owned()),
        ("seed", args.seed.to_string()),
        ("traced", args.traced.to_string()),
        ("commit", fp.commit),
        ("host", fp.host),
        ("nproc", fp.nproc.to_string()),
        ("isa", fp.isa),
    ];
    let line: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{k} {v}"))
        .collect();
    println!("radbench {}", line.join(" | "));

    let outcome = workload::run(&args, &Sizes::full());
    let report = &outcome.report;
    let rendered = report.render(args.traced);
    if let Some(spans) = &outcome.spans {
        let path = args
            .out
            .join(format!("{}-trace.json", args.workload.name()));
        let metadata: Vec<(String, String)> = fingerprint
            .iter()
            .map(|(k, v)| (k.to_string(), format!("\"{}\"", spans::escape(v))))
            .chain(std::iter::once((
                "metrics".to_owned(),
                format!("\"{}\"", spans::escape(&rendered).replace('\n', "\\n")),
            )))
            .collect();
        match std::fs::write(&path, spans.to_chrome_json(&metadata)) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("radbench: cannot write {}: {e}", path.display()),
        }
    }
    print!("{rendered}");
    exit(if report.failures.is_empty() { 0 } else { 1 })
}
