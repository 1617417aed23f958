//! `serve-mix`: campaigns through the daemon over loopback.
//!
//! An in-process daemon (pool 1, queue depth 16) serves two closed-loop
//! clients, so at most two threads generate load over at most two open
//! connections. Each client submits a job, tails its SSE stream to the
//! end frame, then fetches the result, and only then submits its next
//! job. Seven jobs in ten re-run one of four HotSpot specs (their
//! golden executions hit the daemon's cache); three in ten are DGEMM
//! jobs with a fresh seed that each pay a golden run. Which slots of
//! each ten are DGEMM, and every seed, derive from `--seed`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::campaign::{check_digest, file_len};
use crate::layers::{self, Layers};
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats::{self, Probe, SEGMENTS};
use crate::sut::{self, CallError, Daemon, JobSpec, KernelSpec};
use crate::workload::{Args, Common};

/// Concurrent closed-loop clients (and so open connections).
const CLIENTS: usize = 2;
const POOL: usize = 1;
const QUEUE_DEPTH: usize = 16;
/// Distinct HotSpot specs the cache-hitting jobs draw from.
const POOL_SEEDS: u64 = 4;
/// DGEMM jobs in every ten.
const DGEMM_PER_TEN: usize = 3;
/// Upper bound on jobs per run.
const MAX_JOBS: usize = 100_000;
/// Jobs whose results make up the digest.
const DIGEST_JOBS: usize = 10;
/// DGEMM jobs re-run in-process to check served == direct (all four
/// HotSpot specs are checked too).
const DIRECT_DGEMM: usize = 2;

/// The workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct ServeSize {
    pub hotspot: KernelSpec,
    pub hotspot_injections: usize,
    pub dgemm: KernelSpec,
    pub dgemm_injections: usize,
    /// Jobs a run completes at least, however short `--seconds`.
    pub min_jobs: usize,
    /// FNV-1a-64 of the first ten results at the default seed.
    pub digest: Option<u64>,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Job seeds stay well inside the range every JSON reader keeps exact.
const SEED_MASK: u64 = (1 << 48) - 1;

/// Job `i`'s spec.
fn spec_for(size: &ServeSize, seed: u64, i: usize) -> JobSpec {
    let key = |j: usize| splitmix64(seed ^ splitmix64(j as u64));
    let block = i - i % 10;
    let rank = (block..block + 10).filter(|&j| key(j) < key(i)).count();
    if rank < DGEMM_PER_TEN {
        let job_seed = splitmix64(key(i)) & SEED_MASK;
        sut::job(size.dgemm, size.dgemm_injections, job_seed)
    } else {
        let k = key(i) % POOL_SEEDS;
        sut::job(size.hotspot, size.hotspot_injections, pool_seed(seed, k))
    }
}

fn pool_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed.wrapping_mul(31).wrapping_add(k)) & SEED_MASK
}

/// One job's round trip as the client saw it.
struct JobRun {
    index: usize,
    /// The client that ran it (its span lane).
    lane: u64,
    spec: JobSpec,
    id: Option<String>,
    t0: Instant,
    ack: Option<Instant>,
    first_frame: Option<Instant>,
    last_frame: Option<Instant>,
    stream_end: Option<Instant>,
    done: Option<Instant>,
    result: Option<String>,
    /// The SSE frames folded into a summary.
    folded: Option<Result<String, String>>,
    error: Option<CallError>,
}

impl JobRun {
    /// Submit to result, seconds; a failed job never met any limit.
    fn latency(&self) -> f64 {
        match (self.result.is_some(), self.done) {
            (true, Some(done)) => (done - self.t0).as_secs_f64(),
            _ => f64::INFINITY,
        }
    }

    /// Submit to first SSE data frame, seconds.
    fn ttfe(&self) -> f64 {
        match (self.result.is_some(), self.first_frame) {
            (true, Some(first)) => (first - self.t0).as_secs_f64(),
            _ => f64::INFINITY,
        }
    }
}

fn one_job(
    daemon: &Daemon,
    index: usize,
    spec: JobSpec,
    lane: u64,
    spans: Option<&Spans>,
) -> JobRun {
    let mut job = JobRun {
        index,
        lane,
        spec,
        id: None,
        t0: Instant::now(),
        ack: None,
        first_frame: None,
        last_frame: None,
        stream_end: None,
        done: None,
        result: None,
        folded: None,
        error: None,
    };
    let mut frames = Vec::new();
    let outcome = (|| -> Result<(), CallError> {
        let id = daemon.submit(&job.spec)?;
        job.ack = Some(Instant::now());
        job.id = Some(id.clone());
        daemon.stream(&id, &mut |data| {
            let now = Instant::now();
            job.first_frame.get_or_insert(now);
            job.last_frame = Some(now);
            frames.push(data.to_owned());
        })?;
        job.stream_end = Some(Instant::now());
        let result = daemon.result(&id)?;
        job.done = Some(Instant::now());
        job.result = Some(result.trim_end().to_owned());
        Ok(())
    })();
    job.error = outcome.err();
    if job.result.is_some() {
        job.folded = Some(sut::fold_frames(&frames));
    }
    if let (Some(spans), Some(ack)) = (spans, job.ack) {
        let at = Some(index);
        spans.record("Client::submit", lane, (job.t0, ack), at);
        if let Some(end) = job.stream_end {
            spans.record("Client::stream_with", lane, (ack, end), at);
            if let (Some(first), Some(last)) = (job.first_frame, job.last_frame) {
                spans.record("sse.first_frame", lane, (ack, first), at);
                spans.record("sse.last_frame", lane, (first, last), at);
            }
            if let Some(done) = job.done {
                spans.record("Client::result", lane, (end, done), at);
            }
        }
    }
    job
}

/// When a closed loop stops claiming jobs.
#[derive(Clone, Copy)]
enum Stop {
    /// After `seconds`, once at least `min_jobs` were claimed.
    Window { seconds: f64, min_jobs: usize },
    /// After exactly this many jobs.
    Count(usize),
}

/// Runs the closed loop; returns the jobs in index order and the wall
/// time from the first submit to the last result.
fn drive(
    daemon: &Daemon,
    size: &ServeSize,
    seed: u64,
    stop: Stop,
    spans: Option<&Spans>,
) -> (Vec<JobRun>, f64) {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let claim = || {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let more = match stop {
            Stop::Window { seconds, min_jobs } => {
                i < min_jobs || started.elapsed() < Duration::from_secs_f64(seconds)
            }
            Stop::Count(n) => i < n,
        };
        (more && i < MAX_JOBS).then_some(i)
    };
    let mut jobs: Vec<JobRun> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let claim = &claim;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(i) = claim() {
                        let spec = spec_for(size, seed, i);
                        mine.push(one_job(daemon, i, spec, c as u64 + 1, spans));
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    jobs.sort_by_key(|j| j.index);
    (jobs, wall)
}

/// `n` `/healthz` probes of the daemon clock, in `spans` time.
fn probe_clock(daemon: &Daemon, n: usize, spans: &Spans, report: &mut Report) -> Vec<Probe> {
    (0..n)
        .filter_map(|_| {
            let sent = Instant::now();
            let remote = daemon.healthz().map_err(|e| e.message);
            let recv = Instant::now();
            spans.record("Client::healthz", 0, (sent, recv), None);
            report.op("healthz", remote).map(|remote_us| Probe {
                sent_us: spans.us(sent),
                recv_us: spans.us(recv),
                remote_us,
            })
        })
        .collect()
}

/// Runs the workload; returns the traced pass's spans when `--trace 1`.
pub fn run(
    size: &ServeSize,
    common: &Common,
    args: &Args,
    work: &Path,
    report: &mut Report,
) -> Option<Spans> {
    // Set-up: a daemon on a fresh data directory, up and answering its
    // clock probes.
    let mut setup = Vec::new();
    for r in 0..common.setup_reps {
        let t0 = Instant::now();
        let daemon = report.op(
            "daemon start",
            Daemon::start(&work.join(format!("setup-{r}")), POOL, QUEUE_DEPTH),
        )?;
        let probes = probe_clock(&daemon, common.clock_probes, &Spans::new(t0), report);
        if probes.len() == common.clock_probes {
            setup.push(t0.elapsed().as_secs_f64());
        }
        report.op("daemon stop", daemon.stop());
    }
    report.set("setup_s", Metric::median(&setup));

    let daemon = report.op(
        "daemon start",
        Daemon::start(&work.join("measure"), POOL, QUEUE_DEPTH),
    )?;
    let stop = Stop::Window {
        seconds: args.seconds,
        min_jobs: size.min_jobs,
    };
    let (jobs, wall) = drive(&daemon, size, args.seed, stop, None);
    report.op("daemon stop", daemon.stop());

    let injections: usize = jobs
        .iter()
        .filter(|j| j.result.is_some())
        .map(|j| j.spec.injections)
        .sum();
    let latency: Vec<f64> = jobs.iter().map(JobRun::latency).collect();
    let ttfe: Vec<f64> = jobs.iter().map(JobRun::ttfe).collect();
    report.set("inj_per_s", Metric::single(injections as f64 / wall));
    report.set("latency_p50_s", Metric::percentile(&latency, 500));
    report.set("ttfe_p50_s", Metric::percentile(&ttfe, 500));

    let results = check_jobs(report, &jobs, None);
    check_direct(report, &jobs);
    let reference: String = (0..DIGEST_JOBS)
        .map(|i| results.get(&i).map_or("", String::as_str))
        .collect::<Vec<_>>()
        .join("\n");
    check_digest(report, reference.as_bytes(), size.digest, args.seed);

    if !args.traced {
        return None;
    }
    traced_pass(size, common, args, work, report, &results, &latency)
}

/// Every job succeeded, its SSE frames fold into its result, equal
/// specs served equal bytes, and (when given) each result equals the
/// reference run's result for the same job index. Returns the results
/// by job index.
fn check_jobs(
    report: &mut Report,
    jobs: &[JobRun],
    reference: Option<&BTreeMap<usize, String>>,
) -> BTreeMap<usize, String> {
    let mut by_spec: BTreeMap<String, &str> = BTreeMap::new();
    let mut results = BTreeMap::new();
    for job in jobs {
        let what = |e: &str| format!("job {}: {e}", job.index);
        report.check(job.error.is_none(), || {
            what(
                &job.error
                    .as_ref()
                    .map_or(String::new(), |e| e.message.clone()),
            )
        });
        let Some(result) = &job.result else { continue };
        let folded = job.folded.as_ref().and_then(|f| f.as_ref().ok());
        report.check(folded == Some(result), || {
            what("SSE frames do not fold into the result")
        });
        let first = by_spec.entry(sut::job_key(&job.spec)).or_insert(result);
        report.check(*first == result.as_str(), || {
            what("an equal spec served different bytes")
        });
        if let Some(reference) = reference {
            let same = reference.get(&job.index).is_some_and(|r| r == result);
            report.check(same, || what("result differs from the untraced pass"));
        }
        results.insert(job.index, result.clone());
    }
    results
}

/// Served == direct: the four HotSpot specs and the first DGEMM jobs,
/// re-run in-process, give the served bytes.
fn check_direct(report: &mut Report, jobs: &[JobRun]) {
    let mut checked = BTreeSet::new();
    let mut dgemm = 0;
    for job in jobs {
        let Some(result) = &job.result else { continue };
        let key = sut::job_key(&job.spec);
        let is_dgemm = key.contains("\"dgemm\"");
        if checked.contains(&key) || (is_dgemm && dgemm == DIRECT_DGEMM) {
            continue;
        }
        dgemm += usize::from(is_dgemm);
        if let Some(direct) = report.op("direct run", sut::direct_summary(&job.spec)) {
            report.check(&direct == result, || {
                format!("job {}: served result differs from a direct run", job.index)
            });
        }
        checked.insert(key);
    }
}

/// The traced pass: a fresh daemon serves the first `min_jobs` jobs
/// again while radbench records spans around every client call, so its
/// length does not grow with `--seconds`; afterwards each job's
/// daemon-side trace splits its latency into layers.
fn traced_pass(
    size: &ServeSize,
    common: &Common,
    args: &Args,
    work: &Path,
    report: &mut Report,
    untraced: &BTreeMap<usize, String>,
    untraced_latency: &[f64],
) -> Option<Spans> {
    let spans = Spans::new(Instant::now());
    let daemon = report.op(
        "daemon start",
        Daemon::start(&work.join("traced"), POOL, QUEUE_DEPTH),
    )?;
    let probes = probe_clock(&daemon, common.clock_probes, &spans, report);
    let rtt_ms: Vec<f64> = probes
        .iter()
        .map(|p| (p.recv_us - p.sent_us) / 1e3)
        .collect();
    let offset = stats::clock_offset(&probes);
    sut::exhaustive_profiling();
    let (jobs, _) = drive(
        &daemon,
        size,
        args.seed,
        Stop::Count(untraced.len().min(size.min_jobs)),
        Some(&spans),
    );
    sut::sampled_profiling();
    check_jobs(report, &jobs, Some(untraced));

    // Per-job partition on radbench's clock.
    let mut seg: [Vec<f64>; 6] = Default::default();
    let mut first_frame_lag = Vec::new();
    let (mut unattributed, mut total, mut exec_ms) = (0.0, 0.0, 0.0);
    for job in jobs.iter().filter(|j| j.result.is_some()) {
        let id = job.id.as_deref().unwrap_or_default();
        let t = Instant::now();
        let bounds = report.op("job trace", daemon.trace_bounds(id).map_err(|e| e.message));
        spans.record("Client::trace", 0, (t, Instant::now()), Some(job.index));
        let (Some((golden, injected)), Some(offset)) = (bounds, offset) else {
            continue;
        };
        let us = |at: Option<Instant>| at.map_or(f64::NAN, |a| spans.us(a));
        let b = [
            spans.us(job.t0),
            us(job.ack),
            golden + offset,
            injected + offset,
            us(job.last_frame),
            us(job.stream_end),
            us(job.done),
        ];
        let p = stats::partition(&b);
        // The client's segments, on a lane beside its own call spans.
        let lane = job.lane + CLIENTS as u64;
        let mut at = b[0];
        for (k, name) in SEGMENTS.iter().enumerate() {
            seg[k].push(p.segments[k] / 1e3);
            spans.record_us(
                &format!("serve.{name}"),
                lane,
                at,
                at + p.segments[k],
                Some(job.index),
            );
            at += p.segments[k];
        }
        first_frame_lag.push(((us(job.first_frame) - b[2]) / 1e3).max(0.0));
        unattributed += p.unattributed;
        total += p.total;
        exec_ms += p.segments[2] / 1e3;
    }
    let t = Instant::now();
    let metrics = report.op("metrics", daemon.metrics().map_err(|e| e.message));
    spans.record("Client::metrics", 0, (t, Instant::now()), None);
    let phases = report.op("profile", daemon.phases().map_err(|e| e.message));

    // Artifact sizes, read from the daemon's data directory.
    let data = daemon.data_dir().to_owned();
    let injections: usize = jobs.iter().map(|j| j.spec.injections).sum();
    let per_inj = |name: &str| {
        let bytes: u64 = jobs
            .iter()
            .filter_map(|j| j.id.as_deref())
            .map(|id| file_len(&data.join("jobs").join(id).join(name)))
            .sum();
        bytes as f64 / injections.max(1) as f64
    };
    report.set1("obs.event_bytes_per_inj", per_inj("events.jsonl"));
    report.set1("obs.checkpoint_bytes_per_inj", per_inj("checkpoint.jsonl"));
    report.set1("obs.trace_bytes_per_inj", per_inj("trace.json"));
    let journal = file_len(&data.join("journal.jsonl")) as f64;
    report.set1(
        "serve.journal_bytes_per_job",
        journal / jobs.len().max(1) as f64,
    );
    report.op("daemon stop", daemon.stop());

    let pct = |xs: &[f64], p| Metric::percentile(xs, p);
    report.set("serve.healthz_ms_p50", Metric::median(&rtt_ms));
    report.set("serve.submit_ms_p50", pct(&seg[0], 500));
    report.set("serve.submit_ms_p95", pct(&seg[0], 950));
    report.set("serve.queue_wait_ms_p50", pct(&seg[1], 500));
    report.set("serve.queue_wait_ms_p95", pct(&seg[1], 950));
    report.set("serve.exec_ms_p50", pct(&seg[2], 500));
    report.set("serve.first_frame_lag_ms_p50", pct(&first_frame_lag, 500));
    report.set("serve.stream_lag_ms_p50", pct(&seg[3], 500));
    report.set("serve.stream_lag_ms_p95", pct(&seg[3], 950));
    report.set("serve.stream_close_ms_p50", pct(&seg[4], 500));
    report.set("serve.result_ms_p50", pct(&seg[5], 500));
    let refused = jobs
        .iter()
        .filter(|j| j.error.as_ref().is_some_and(|e| e.refused))
        .count();
    report.set1("serve.refused", refused as f64);
    report.set1("serve.unattributed_frac", unattributed / total);

    let (Some(metrics), Some(phases)) = (metrics, phases) else {
        return Some(spans);
    };
    let counter = |name: &str| prometheus_counter(&metrics, name);
    let hits = counter("radcrit_golden_cache_hits_total") as f64;
    let misses = counter("radcrit_golden_cache_misses_total") as f64;
    let reference = sut::campaign(
        size.hotspot,
        size.hotspot_injections,
        pool_seed(args.seed, 0),
    );
    let prep = report.op(
        "preparation",
        sut::prepare(&reference, size.hotspot_injections),
    )?;
    let traced_latency: Vec<f64> = jobs.iter().map(JobRun::latency).collect();
    layers::report(
        report,
        &Layers {
            prep: &prep,
            phases: &phases,
            counter: &counter,
            run_ms: exec_ms,
            cache_hit_ratio: hits / (hits + misses).max(1.0),
            trace_overhead_frac: stats::median(&traced_latency) / stats::median(untraced_latency)
                - 1.0,
        },
        &spans,
    );
    Some(spans)
}

/// An unlabelled counter from a Prometheus text exposition (0 when
/// absent).
fn prometheus_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .find_map(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_jobs_in_every_ten_are_dgemm_whatever_the_seed() {
        let size = crate::workload::Sizes::full().serve_mix;
        for seed in [1, 2017, u64::MAX] {
            for block in 0..5 {
                let dgemm = (block * 10..block * 10 + 10)
                    .filter(|&i| sut::job_key(&spec_for(&size, seed, i)).contains("\"dgemm\""))
                    .count();
                assert_eq!(dgemm, DGEMM_PER_TEN, "seed {seed} block {block}");
            }
        }
    }

    #[test]
    fn prometheus_counters_parse_by_exact_name() {
        let text = "# TYPE a_total counter\na_total 7\na_total_x 9\nb_total{k=\"v\"} 3\n";
        assert_eq!(prometheus_counter(text, "a_total"), 7);
        assert_eq!(prometheus_counter(text, "b_total"), 0);
    }
}
