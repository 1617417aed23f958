//! Run telemetry: a per-injection latency histogram, throughput,
//! watchdog activity, and the periodic progress line.
//!
//! Telemetry describes *how a run went* (wall time, injections/s, hang
//! watchdog activity), never *what it computed* — it lives on
//! [`crate::runner::CampaignResult`] beside the records, and is kept out
//! of [`crate::summary::CampaignSummary`] on purpose so that a resumed
//! campaign still produces a summary bit-identical to an uninterrupted
//! run.

use std::time::{Duration, Instant};

use radcrit_obs::{CriticalityAggregator, MetricsRegistry};

/// Power-of-two bucketed histogram of per-injection wall times.
///
/// Since the observability layer landed this is the shared
/// [`radcrit_obs::Log2Histogram`]: bucket `b` still counts latencies in
/// `[2^b, 2^(b+1))` microseconds, but sub-microsecond and
/// beyond-last-bucket observations are now tracked explicitly
/// ([`Log2Histogram::underflow`](radcrit_obs::Log2Histogram::underflow) /
/// [`overflow`](radcrit_obs::Log2Histogram::overflow)) instead of being
/// silently clamped, and the histogram exports to the metrics snapshot's
/// JSON and Prometheus formats.
pub use radcrit_obs::Log2Histogram as LatencyHistogram;

/// Mutable telemetry accumulator owned by the campaign's collector loop.
///
/// Outcome counts are not kept here: the collector's
/// [`CriticalityAggregator`] folds every record, so this run's counts
/// are the aggregator's minus the counts it held right after the
/// checkpoint replay ([`Telemetry::note_replayed`]).
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    watchdog_hangs: usize,
    replayed: usize,
    /// `[masked, sdc, crash, hang]` folded from the replayed records.
    replayed_outcomes: [u64; 4],
    latency: LatencyHistogram,
}

impl Telemetry {
    /// Starts the clock.
    pub fn new() -> Self {
        Telemetry {
            started: Instant::now(),
            watchdog_hangs: 0,
            replayed: 0,
            replayed_outcomes: [0; 4],
            latency: LatencyHistogram::new(),
        }
    }

    /// Notes `n` records replayed from a checkpoint (they count toward
    /// the campaign's progress but not toward this run's throughput)
    /// and the outcome counts `analytics` holds once they are folded.
    pub fn note_replayed(&mut self, n: usize, analytics: &CriticalityAggregator) {
        self.replayed = n;
        self.replayed_outcomes = outcome_counts(analytics);
    }

    /// Records one freshly produced injection's latency. `watchdog`
    /// marks hangs synthesized by the watchdog rather than observed by
    /// a worker.
    pub fn record(&mut self, latency: Duration, watchdog: bool) {
        if watchdog {
            self.watchdog_hangs += 1;
        }
        self.latency.record(latency);
    }

    /// Flushes this run's latency histogram into `metrics` as
    /// `radcrit_injection_latency`, once, when the collector stops. A
    /// run that recorded nothing adds no series.
    pub fn export_latency(&self, metrics: Option<&MetricsRegistry>) {
        if let Some(m) = metrics.filter(|_| self.latency.count() > 0) {
            m.merge_histogram("radcrit_injection_latency", &[], &self.latency);
        }
    }

    /// Records produced by this run so far (excludes replayed ones).
    pub fn completed(&self) -> usize {
        self.latency.count() as usize
    }

    /// This run's `[masked, sdc, crash, hang]`: what `analytics` (the
    /// collector's fold of every record) counts beyond the replay.
    pub fn run_outcomes(&self, analytics: &CriticalityAggregator) -> [u64; 4] {
        let all = outcome_counts(analytics);
        std::array::from_fn(|i| all[i] - self.replayed_outcomes[i])
    }

    /// Freezes the current state into an immutable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            watchdog_hangs: self.watchdog_hangs,
            replayed: self.replayed,
            completed: self.completed(),
            elapsed: self.started.elapsed(),
            latency: self.latency.clone(),
        }
    }

    /// The one-line progress report printed under `--progress`.
    /// `target` is the number of records this run set out to produce.
    ///
    /// `analytics` is the collector's live [`CriticalityAggregator`] —
    /// the same fold that powers the daemon's analytics endpoints,
    /// never a second counting path. The line reports this run's
    /// outcome counts from it, the tolerance-filtered SDC count and the
    /// converging FIT estimate with its 95 % CI width.
    ///
    /// `buckets` is the batch scheduler's live `(restores, forks)` pair,
    /// absent when the kernel has no snapshots to fork from; when present
    /// the line reports how many warm-bucket restores the forked
    /// injections amortized. It is passed alongside the snapshot (not
    /// stored in it) because bucket counts are an execution-order
    /// artifact: runs of the same campaign with different worker counts
    /// must stay comparable snapshot-for-snapshot.
    pub fn progress_line(
        &self,
        target: usize,
        analytics: &CriticalityAggregator,
        buckets: Option<(u64, u64)>,
    ) -> String {
        let s = self.snapshot();
        let pct = if target == 0 {
            100.0
        } else {
            s.completed as f64 / target as f64 * 100.0
        };
        let rate = s.throughput();
        let eta = if rate > 0.0 && target > s.completed {
            format!("{:.1}s", (target - s.completed) as f64 / rate)
        } else {
            "-".into()
        };
        let quantiles = match (s.latency.quantile(0.5), s.latency.quantile(0.9)) {
            (Some(p50), Some(p90)) => format!("p50<{p50:.1?} p90<{p90:.1?}"),
            _ => "p50<- p90<-".into(),
        };
        let bucket = match buckets {
            Some((restores, forks)) => format!(" buckets {restores} forks {forks} |"),
            None => String::new(),
        };
        let [masked, sdc, crash, hang] = self.run_outcomes(analytics);
        format!(
            "[campaign] {}/{} ({pct:.1}%) | {rate:.1} inj/s | masked {masked} sdc {sdc} \
             crash {crash} hang {hang} (watchdog {}) | crit {} | fit {:.3e} ±{:.1e} |{bucket} \
             {quantiles} | eta {eta}",
            s.completed,
            target,
            s.watchdog_hangs,
            analytics.critical_sdc(),
            analytics.fit_all().total().value(),
            analytics.fit_ci_width() / 2.0,
        )
    }
}

/// `[masked, sdc, crash, hang]` as the aggregator `a` counts them.
fn outcome_counts(a: &CriticalityAggregator) -> [u64; 4] {
    [a.masked(), a.sdc(), a.crash(), a.hang()]
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// Immutable telemetry of one (possibly partial) campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Hangs synthesized by the watchdog.
    pub watchdog_hangs: usize,
    /// Records replayed from the checkpoint instead of being re-run.
    pub replayed: usize,
    /// Records produced by this run (excludes `replayed`).
    pub completed: usize,
    /// Wall time since the run started.
    pub elapsed: Duration,
    /// Per-injection latency histogram.
    pub latency: LatencyHistogram,
}

impl TelemetrySnapshot {
    /// Injections per second of wall time for this run.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radcrit_core::locality::SpatialClass;
    use radcrit_obs::analytics::AnalyticSample;

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_micros(3)); // bucket [2, 4)
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(5)); // bucket [4096, 8192)
        assert_eq!(h.count(), 3);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (Duration::from_micros(2), 2));
        assert_eq!(buckets[1], (Duration::from_micros(4096), 1));
    }

    #[test]
    fn quantiles_are_upper_bounds() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..9 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_millis(1)); // bucket [512, 1024) µs... (1000 µs → [512, 1024))
        assert_eq!(h.quantile(0.5), Some(Duration::from_micros(16)));
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1024)));
        assert!(h.quantile(0.5).unwrap() >= Duration::from_micros(10));
    }

    #[test]
    fn sub_microsecond_latencies_land_in_the_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(10));
        assert_eq!(h.nonzero_buckets()[0].0, Duration::from_micros(1));
        // ... and are counted explicitly rather than silently clamped.
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn beyond_range_latencies_are_counted_as_overflow() {
        let mut h = LatencyHistogram::new();
        // 2^30 µs ≈ 17.9 min is the top edge; an hour-long injection
        // overflows but is still counted (clamped into the last bucket).
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.quantile(1.0), Some(Duration::from_micros(1 << 30)));
    }

    fn sample(index: u64, outcome: &str) -> AnalyticSample {
        AnalyticSample {
            index,
            site: "fpu".to_owned(),
            outcome: outcome.to_owned(),
            mismatches: u64::from(outcome == "SDC") * 2,
            class: if outcome == "SDC" {
                SpatialClass::Line
            } else {
                SpatialClass::None
            },
            mre: (outcome == "SDC").then_some(5.0),
            critical: outcome == "SDC",
            fclass: (outcome == "SDC").then_some(SpatialClass::Line),
        }
    }

    #[test]
    fn this_runs_outcomes_come_from_the_aggregator_past_the_replay() {
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 10, 100.0);
        agg.fold_sample(&sample(0, "MASKED"));
        agg.fold_sample(&sample(1, "SDC"));
        let mut t = Telemetry::new();
        t.note_replayed(2, &agg);
        for (i, outcome) in [(2, "MASKED"), (3, "CRASH"), (4, "HANG")] {
            agg.fold_sample(&sample(i, outcome));
            t.record(Duration::from_micros(50), outcome == "HANG");
        }
        assert_eq!(t.run_outcomes(&agg), [1, 0, 1, 1]);
        let s = t.snapshot();
        assert_eq!(s.watchdog_hangs, 1);
        assert_eq!(s.replayed, 2);
        assert_eq!(s.completed, 3);
        assert_eq!(s.latency.count(), 3);
        assert!(s.throughput() > 0.0);
    }

    #[test]
    fn progress_line_mentions_the_essentials() {
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 10, 100.0);
        let mut t = Telemetry::new();
        t.note_replayed(0, &agg);
        agg.fold_sample(&sample(0, "MASKED"));
        t.record(Duration::from_micros(50), false);
        let line = t.progress_line(10, &agg, None);
        assert!(line.contains("1/10"), "{line}");
        assert!(line.contains("inj/s"), "{line}");
        assert!(line.contains("masked 1 sdc 0"), "{line}");
        assert!(!line.contains("buckets"), "no buckets: {line}");
    }

    #[test]
    fn progress_line_reports_bucket_stats_when_batched() {
        let agg = CriticalityAggregator::new();
        let mut t = Telemetry::new();
        t.record(Duration::from_micros(50), false);
        let line = t.progress_line(10, &agg, Some((3, 27)));
        assert!(line.contains("buckets 3 forks 27"), "{line}");
    }

    #[test]
    fn progress_line_reports_live_criticality() {
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 10, 100.0);
        let mut t = Telemetry::new();
        agg.fold_sample(&sample(0, "SDC"));
        t.record(Duration::from_micros(50), false);
        let line = t.progress_line(10, &agg, None);
        assert!(line.contains("sdc 1"), "{line}");
        assert!(line.contains("crit 1"), "{line}");
        assert!(line.contains("fit "), "{line}");
        assert!(line.contains('±'), "{line}");
    }
}
