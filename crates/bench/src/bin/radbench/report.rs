//! Metric names and units, and the report one run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric catalog;
//! `BENCHMARK.json` at the repository root lists the same names (a unit
//! test keeps the two in step). Every workload reports every catalog
//! metric: an untraced run the end-to-end ones, a traced run the
//! per-layer ones, with a layer the workload never enters reading 0.

use std::collections::BTreeMap;

use crate::stats;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user sees, measured with the benchmark's tracing off.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s"),
    def("inj_per_s", "inj/s"),
    def("latency_p50_s", "s"),
    def("ttfe_p50_s", "s"),
    def("peak_rss_mib", "MiB"),
];

/// Single layers, from the traced pass.
pub const PER_LAYER: [Def; 43] = [
    def("kernels.build_ms", "ms"),
    def("accel.golden_ms", "ms"),
    def("accel.snapshot_mib", "MiB"),
    def("accel.mem_load_self_ms", "ms"),
    def("accel.mem_load_count", "count"),
    def("accel.cache_access_self_ms", "ms"),
    def("accel.cache_access_count", "count"),
    def("accel.mem_store_self_ms", "ms"),
    def("accel.corruption_scan_self_ms", "ms"),
    def("accel.tile_execute_self_ms", "ms"),
    def("accel.fork_self_ms", "ms"),
    def("accel.bucket_restore_self_ms", "ms"),
    def("accel.warm_advance_self_ms", "ms"),
    def("accel.forks", "count"),
    def("accel.bucket_restores", "count"),
    def("accel.advance_tiles", "count"),
    def("accel.dead_strike_exit_ratio", "fraction"),
    def("faults.sample_ns", "ns"),
    def("faults.fatal_frac", "fraction"),
    def("core.compare_self_ms", "ms"),
    def("core.compare_count", "count"),
    def("campaign.run_ms", "ms"),
    def("campaign.checkpoint_self_ms", "ms"),
    def("campaign.unattributed_frac", "fraction"),
    def("campaign.golden_cache_hit_ratio", "fraction"),
    def("obs.event_bytes_per_inj", "B/inj"),
    def("obs.checkpoint_bytes_per_inj", "B/inj"),
    def("obs.trace_bytes_per_inj", "B/inj"),
    def("serve.healthz_ms_p50", "ms"),
    def("serve.submit_ms_p50", "ms"),
    def("serve.submit_ms_p95", "ms"),
    def("serve.queue_wait_ms_p50", "ms"),
    def("serve.queue_wait_ms_p95", "ms"),
    def("serve.exec_ms_p50", "ms"),
    def("serve.first_frame_lag_ms_p50", "ms"),
    def("serve.stream_lag_ms_p50", "ms"),
    def("serve.stream_lag_ms_p95", "ms"),
    def("serve.stream_close_ms_p50", "ms"),
    def("serve.result_ms_p50", "ms"),
    def("serve.refused", "count"),
    def("serve.journal_bytes_per_job", "B/job"),
    def("serve.unattributed_frac", "fraction"),
    def("bench.trace_overhead_frac", "fraction"),
];

/// One reported value with the spread of the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
    /// The highest percentile (per mille) the samples support, with its
    /// value.
    pub tail: Option<(u32, f64)>,
}

impl Metric {
    /// The median of `samples`.
    pub fn median(samples: &[f64]) -> Metric {
        Metric::from(stats::median(samples), samples)
    }

    /// The nearest-rank `per_mille` percentile of `samples`.
    pub fn percentile(samples: &[f64], per_mille: u32) -> Metric {
        Metric::from(stats::percentile(samples, per_mille), samples)
    }

    /// `value` derived from `samples` (an aggregate rate, say), reported
    /// with the samples' quartiles and supported tail.
    pub fn from(value: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = stats::quartiles(samples);
        let tail =
            stats::supported_percentile(samples.len()).map(|p| (p, stats::percentile(samples, p)));
        Metric {
            value,
            q1,
            q3,
            n: samples.len(),
            tail,
        }
    }

    /// A single measurement or count.
    pub fn single(value: f64) -> Metric {
        Metric {
            value,
            q1: value,
            q3: value,
            n: 1,
            tail: None,
        }
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// FNV-1a-64 of the workload's reference summaries.
    pub digest: Option<u64>,
}

impl Report {
    /// Records a catalog metric.
    pub fn set(&mut self, name: &'static str, metric: Metric) {
        assert!(
            unit_of(name).is_some(),
            "{name} is not in the metric catalog"
        );
        self.values.insert(name, metric);
    }

    /// Records a catalog metric as one value.
    pub fn set1(&mut self, name: &'static str, value: f64) {
        self.set(name, Metric::single(value));
    }

    /// Sets every per-layer metric under `prefix` the run left unset to
    /// 0: the workload never enters that layer.
    pub fn zero_layer(&mut self, prefix: &str) {
        for d in PER_LAYER.iter().filter(|d| d.name.starts_with(prefix)) {
            self.values.entry(d.name).or_insert(Metric::single(0.0));
        }
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.values.get(name).copied()
    }

    /// Counts one attempted operation; an `Err` counts as failed.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|e| self.failures.push(format!("{what}: {e}")))
            .ok()
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Fails the run for every catalog metric of the pass that was not
    /// recorded.
    pub fn require(&mut self, traced: bool) {
        for d in catalog(traced) {
            if !self.values.contains_key(d.name) {
                self.failures
                    .push(format!("metric {} was not measured", d.name));
            }
        }
    }

    /// One line per metric, then the result object as the last line.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let line = |out: &mut String, name: &str, unit: &str, m: &Metric| {
            let mut l = format!("metric {name:<34} {:>22} {unit:<8}", fmt(m.value));
            if m.n > 1 {
                l.push_str(&format!(" q1 {} q3 {} n {}", fmt(m.q1), fmt(m.q3), m.n));
            }
            if let Some((p, v)) = m.tail {
                l.push_str(&format!(" p{} {}", f64::from(p) / 10.0, fmt(v)));
            }
            out.push_str(l.trim_end());
            out.push('\n');
        };
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(m) = self.values.get(d.name) {
                line(&mut out, d.name, d.unit, m);
            }
        }
        let error_rate = self.failed() as f64 / self.attempted.max(1) as f64;
        line(
            &mut out,
            "error_rate",
            "fraction",
            &Metric::single(error_rate),
        );
        if let Some(d) = self.digest {
            out.push_str(&format!("digest {d:016x}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED {f}\n"));
        }
        let metrics: Vec<String> = catalog(traced)
            .iter()
            .filter_map(|d| {
                self.values.get(d.name).map(|m| {
                    format!(
                        "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                        d.name,
                        fmt(m.value),
                        d.unit
                    )
                })
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}\n",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(",")
        ));
        out
    }
}

/// The metrics a pass reports.
pub fn catalog(traced: bool) -> &'static [Def] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map(|d| d.unit)
}

/// A JSON number with every digit; a value that is not finite (a
/// percentile that reached a failed operation) prints as the largest
/// finite double.
fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    #[test]
    fn the_catalog_matches_benchmark_json() {
        let listed = BENCHMARK_JSON.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
    }

    #[test]
    fn the_result_object_is_the_last_line_and_names_every_metric() {
        let mut r = Report::default();
        for d in END_TO_END {
            r.set1(d.name, 1.5);
        }
        r.check(true, String::new);
        let text = r.render(false);
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,"));
        assert!(last.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert_eq!(last.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check(false, || "summary mismatch".into());
        let _ = r.op::<()>("submit", Err("429".into()));
        assert_eq!((r.attempted, r.failed()), (2, 2));
        assert!(r
            .render(false)
            .lines()
            .last()
            .unwrap()
            .starts_with("{\"correct\":false"));
        r.require(false);
        assert_eq!(r.failed(), 2 + END_TO_END.len() as u64);
    }
}
