//! Live campaign analytics: an incremental fold of the event stream
//! into the same criticality aggregates a finished campaign reports.
//!
//! The [`CriticalityAggregator`] consumes terminal per-injection events
//! (`provenance` and `replay` markers) plus the `run_begin` header and
//! maintains rolling outcome counts, FIT point estimates with Poisson
//! 95 % confidence intervals, spatial-class breakdowns (raw and
//! tolerance-filtered), MRE / corrupted-element [`Log2Histogram`]s, the
//! scatter series and per-site SDC counts — everything
//! `CampaignSummary` derives after the fact, but available while the
//! campaign is still running.
//!
//! Two properties make it safe to drive dashboards and progress lines
//! from the same fold that validates the final summary:
//!
//! * **Idempotent per index** — each injection index is folded at most
//!   once ([`CriticalityAggregator::fold_sample`] ignores repeats), so
//!   replaying a prefix of the stream and then the whole stream again
//!   (exactly what an SSE client resuming via `Last-Event-ID`, or a
//!   kill → resume cycle, produces) yields the same aggregate as one
//!   clean pass.
//! * **Summary-exact** — the campaign summary *is* this fold:
//!   `CampaignResult::summary` folds the campaign's records through an
//!   aggregator and renders it with `CampaignSummary::from_analytics`,
//!   so folding the finished campaign's event stream reproduces the
//!   summary field for field. The campaign crate asserts the invariant
//!   against every integration fixture.

use std::collections::{BTreeMap, HashSet};

use radcrit_core::fit::{FitBreakdown, FitRate};
use radcrit_core::locality::SpatialClass;
use radcrit_core::stats::poisson_ci;

use crate::event::{Event, FieldValue};
use crate::hist::Log2Histogram;
use crate::json::{escape, fmt_f64};
use crate::provenance::ProvenanceRecord;

/// The analytic essence of one terminal injection event — the subset of
/// a [`ProvenanceRecord`] the aggregator folds, also constructible from
/// a campaign's in-memory record so the runner's live progress line and
/// the offline event-stream fold share a single accumulation path.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticSample {
    /// Injection index (the idempotence key).
    pub index: u64,
    /// Fault-site name.
    pub site: String,
    /// Outcome tag: `MASKED`, `SDC`, `CRASH` or `HANG`.
    pub outcome: String,
    /// Mismatched output elements.
    pub mismatches: u64,
    /// Spatial class of the corruption.
    pub class: SpatialClass,
    /// Mean relative error, when an SDC produced one.
    pub mre: Option<f64>,
    /// Whether the SDC survives the tolerance filter.
    pub critical: bool,
    /// Filtered spatial class, when `critical`.
    pub fclass: Option<SpatialClass>,
}

impl AnalyticSample {
    /// Extracts the sample carried by a terminal event (`provenance` or
    /// `replay`), or `None` for any other event kind.
    ///
    /// `replay` markers written before the analytics layer existed lack
    /// the mismatch fields; they decode with zeroed criticality rather
    /// than failing, so old streams still fold (their outcome counts
    /// stay exact, only SDC detail degrades).
    ///
    /// # Errors
    ///
    /// A terminal event with a missing index or ill-typed fields.
    pub fn from_event(event: &Event) -> Result<Option<Self>, String> {
        match event.kind.as_str() {
            "provenance" => {
                let rec = ProvenanceRecord::from_event(event)?;
                Ok(Some(AnalyticSample {
                    index: rec.index,
                    site: rec.site,
                    outcome: rec.outcome,
                    mismatches: rec.mismatches,
                    class: rec.class,
                    mre: rec.mre,
                    critical: rec.critical,
                    fclass: rec.fclass,
                }))
            }
            "replay" => {
                let index = event.index.ok_or("replay event without index")?;
                let str_field = |k: &str| -> Result<String, String> {
                    match event.field(k) {
                        Some(FieldValue::Str(s)) => Ok(s.clone()),
                        _ => Err(format!("missing or ill-typed field {k:?}")),
                    }
                };
                let class = match event.field("class") {
                    Some(FieldValue::Str(s)) => s
                        .parse::<SpatialClass>()
                        .map_err(|e| format!("bad spatial class {s:?}: {e}"))?,
                    _ => SpatialClass::None,
                };
                let fclass = match event.field("fclass") {
                    Some(FieldValue::Str(s)) => Some(
                        s.parse::<SpatialClass>()
                            .map_err(|e| format!("bad filtered spatial class {s:?}: {e}"))?,
                    ),
                    _ => None,
                };
                Ok(Some(AnalyticSample {
                    index,
                    site: str_field("site")?,
                    outcome: str_field("outcome")?,
                    mismatches: match event.field("mismatches") {
                        Some(FieldValue::U64(v)) => *v,
                        _ => 0,
                    },
                    class,
                    mre: match event.field("mre") {
                        Some(FieldValue::F64(v)) => Some(*v),
                        Some(FieldValue::U64(v)) => Some(*v as f64),
                        _ => None,
                    },
                    critical: matches!(event.field("critical"), Some(FieldValue::Bool(true))),
                    fclass,
                }))
            }
            _ => Ok(None),
        }
    }
}

/// Incremental fold of a campaign event stream into rolling criticality
/// aggregates. See the module docs for the idempotence and
/// summary-exactness guarantees.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CriticalityAggregator {
    /// Kernel name from `run_begin` (empty until the header is folded).
    kernel: String,
    /// Input-size label from `run_begin`.
    input: String,
    /// Device name from `run_begin`.
    device: String,
    /// Declared campaign size from `run_begin` (0 when unknown).
    declared_injections: u64,
    /// Total cross-section from `run_begin` — the FIT scale factor.
    sigma_total: f64,
    masked: u64,
    sdc: u64,
    critical_sdc: u64,
    crash: u64,
    hang: u64,
    all_counts: BTreeMap<SpatialClass, u64>,
    filt_counts: BTreeMap<SpatialClass, u64>,
    /// Scatter points keyed by injection index: resumed streams emit
    /// indices out of sorted order, and the summary's scatter series is
    /// index-ordered.
    scatter: BTreeMap<u64, (u64, f64)>,
    sdc_by_site: BTreeMap<String, u64>,
    /// Indices already folded — the idempotence set.
    seen: HashSet<u64>,
    /// Injections absorbed via [`CriticalityAggregator::merge`], whose
    /// indices cannot join `seen` (they collide across jobs).
    merged_injections: u64,
    /// Histogram of SDC mean relative errors (percent, magnitude ⌊v⌋).
    mre_hist: Log2Histogram,
    /// Same, restricted to SDCs surviving the tolerance filter.
    mre_filtered_hist: Log2Histogram,
    /// Histogram of corrupted-element counts per SDC.
    elems_hist: Log2Histogram,
    /// Whether a `run_end` trailer has been folded.
    finished: bool,
}

impl CriticalityAggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-seeds the campaign context normally learned from the
    /// `run_begin` header — used by the runner, which knows its own
    /// campaign before any event exists.
    pub fn with_context(
        kernel: &str,
        input: &str,
        device: &str,
        injections: u64,
        sigma_total: f64,
    ) -> Self {
        CriticalityAggregator {
            kernel: kernel.to_owned(),
            input: input.to_owned(),
            device: device.to_owned(),
            declared_injections: injections,
            sigma_total,
            ..Self::default()
        }
    }

    /// Folds one event stream line; a line that is not an event (a torn
    /// SSE fragment, non-event JSONL) is ignored.
    ///
    /// # Errors
    ///
    /// A parseable terminal event with ill-typed fields.
    pub fn fold_line(&mut self, line: &str) -> Result<(), String> {
        match crate::event::parse_event_line(line) {
            Ok(event) => self.fold_event(&event),
            Err(_) => Ok(()),
        }
    }

    /// Folds one event: `run_begin` sets the campaign context,
    /// `provenance`/`replay` fold a sample, `run_end` marks the stream
    /// finished, everything else is ignored.
    ///
    /// # Errors
    ///
    /// As [`AnalyticSample::from_event`].
    fn fold_event(&mut self, event: &Event) -> Result<(), String> {
        match event.kind.as_str() {
            "run_begin" => {
                let str_field = |k: &str| match event.field(k) {
                    Some(FieldValue::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                if let Some(kernel) = str_field("kernel") {
                    self.kernel = kernel;
                }
                if let Some(input) = str_field("input") {
                    self.input = input;
                }
                if let Some(device) = str_field("device") {
                    self.device = device;
                }
                if let Some(FieldValue::U64(n)) = event.field("injections") {
                    self.declared_injections = *n;
                }
                match event.field("sigma") {
                    Some(FieldValue::F64(v)) => self.sigma_total = *v,
                    Some(FieldValue::U64(v)) => self.sigma_total = *v as f64,
                    _ => {}
                }
                Ok(())
            }
            "run_end" => {
                self.finished = true;
                Ok(())
            }
            _ => {
                if let Some(sample) = AnalyticSample::from_event(event)? {
                    self.fold_sample(&sample);
                }
                Ok(())
            }
        }
    }

    /// Folds one terminal sample. Repeats of an already-seen index are
    /// ignored, which is what makes prefix-then-resume folds equal the
    /// one-shot fold.
    pub fn fold_sample(&mut self, sample: &AnalyticSample) {
        if !self.seen.insert(sample.index) {
            return;
        }
        match sample.outcome.as_str() {
            "MASKED" => self.masked += 1,
            "CRASH" => self.crash += 1,
            "HANG" => self.hang += 1,
            "SDC" => {
                self.sdc += 1;
                *self.sdc_by_site.entry(sample.site.clone()).or_default() += 1;
                *self.all_counts.entry(sample.class).or_default() += 1;
                if sample.critical {
                    self.critical_sdc += 1;
                    let fclass = sample.fclass.unwrap_or(sample.class);
                    *self.filt_counts.entry(fclass).or_default() += 1;
                }
                let mre = sample.mre.unwrap_or(f64::INFINITY);
                self.scatter.insert(sample.index, (sample.mismatches, mre));
                record_magnitude(&mut self.elems_hist, sample.mismatches as f64);
                record_magnitude(&mut self.mre_hist, mre);
                if sample.critical {
                    record_magnitude(&mut self.mre_filtered_hist, mre);
                }
            }
            _ => {} // unknown tag: counted nowhere, by design
        }
    }

    /// Merges `other` into `self` for the daemon-wide rollup: counts,
    /// class breakdowns, site table and histograms add up; the scatter
    /// series and idempotence set are per-campaign (indices collide
    /// across jobs) and are deliberately not merged; context fields are
    /// kept when equal and blanked when jobs disagree.
    pub fn merge(&mut self, other: &CriticalityAggregator) {
        let keep = |mine: &mut String, theirs: &str| {
            if theirs.is_empty() {
                // nothing to learn from a context-less aggregator
            } else if mine.is_empty() {
                *mine = theirs.to_owned();
            } else if mine != theirs {
                *mine = "mixed".to_owned();
            }
        };
        keep(&mut self.kernel, &other.kernel);
        keep(&mut self.input, &other.input);
        keep(&mut self.device, &other.device);
        self.declared_injections += other.declared_injections;
        // Cross-sections add across campaigns; the rolled-up FIT is a
        // coarse fleet-level figure, not a per-kernel estimate.
        self.sigma_total += other.sigma_total;
        self.merged_injections += other.injections();
        self.masked += other.masked;
        self.sdc += other.sdc;
        self.critical_sdc += other.critical_sdc;
        self.crash += other.crash;
        self.hang += other.hang;
        for (&class, &n) in &other.all_counts {
            *self.all_counts.entry(class).or_default() += n;
        }
        for (&class, &n) in &other.filt_counts {
            *self.filt_counts.entry(class).or_default() += n;
        }
        for (site, &n) in &other.sdc_by_site {
            *self.sdc_by_site.entry(site.clone()).or_default() += n;
        }
        self.mre_hist.merge(&other.mre_hist);
        self.mre_filtered_hist.merge(&other.mre_filtered_hist);
        self.elems_hist.merge(&other.elems_hist);
    }

    /// Injections folded so far (including merged-in campaigns).
    pub fn injections(&self) -> u64 {
        self.seen.len() as u64 + self.merged_injections
    }

    /// Declared campaign size from the `run_begin` header (0 unknown).
    pub fn declared_injections(&self) -> u64 {
        self.declared_injections
    }

    /// Masked outcomes folded so far.
    pub fn masked(&self) -> u64 {
        self.masked
    }

    /// SDC outcomes folded so far (before the tolerance filter).
    pub fn sdc(&self) -> u64 {
        self.sdc
    }

    /// SDCs surviving the tolerance filter.
    pub fn critical_sdc(&self) -> u64 {
        self.critical_sdc
    }

    /// Crash outcomes folded so far.
    pub fn crash(&self) -> u64 {
        self.crash
    }

    /// Hang outcomes folded so far.
    pub fn hang(&self) -> u64 {
        self.hang
    }

    /// Total cross-section (the FIT scale), from `run_begin`.
    pub fn sigma_total(&self) -> f64 {
        self.sigma_total
    }

    /// Kernel name from the stream header.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Input-size label from the stream header.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// Device name from the stream header.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// Whether a `run_end` trailer has been folded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Scatter series in index order: (index, mismatches, mre).
    pub fn scatter(&self) -> impl Iterator<Item = (u64, u64, f64)> + '_ {
        self.scatter.iter().map(|(&i, &(n, mre))| (i, n, mre))
    }

    /// Per-site SDC counts.
    pub fn sdc_by_site(&self) -> &BTreeMap<String, u64> {
        &self.sdc_by_site
    }

    /// The FIT rate of `count` events at the current sample size: the
    /// event share scaled by the total cross-section, so ratios across
    /// campaigns behave like the paper's relative FIT. The one FIT
    /// arithmetic — `CampaignSummary` takes its breakdowns from here.
    fn to_fit(&self, count: u64) -> FitRate {
        let injections = self.injections().max(1) as f64;
        FitRate::from_raw(count as f64 / injections * self.sigma_total)
    }

    /// FIT break-down by raw spatial class ("All" bars).
    pub fn fit_all(&self) -> FitBreakdown {
        self.all_counts
            .iter()
            .map(|(&class, &n)| (class, self.to_fit(n)))
            .collect()
    }

    /// FIT break-down by tolerance-filtered spatial class.
    pub fn fit_filtered(&self) -> FitBreakdown {
        self.filt_counts
            .iter()
            .map(|(&class, &n)| (class, self.to_fit(n)))
            .collect()
    }

    /// 95 % Poisson confidence interval on the "All" FIT total, in the
    /// same arbitrary units as [`CriticalityAggregator::fit_all`].
    pub fn fit_all_ci95(&self) -> (f64, f64) {
        let (lo, hi) = poisson_ci(self.sdc as usize, 0.95);
        let scale = self.sigma_total / self.injections().max(1) as f64;
        (lo * scale, hi * scale)
    }

    /// Width of the 95 % CI — the convergence indicator the progress
    /// line and dashboard track toward zero.
    pub fn fit_ci_width(&self) -> f64 {
        let (lo, hi) = self.fit_all_ci95();
        hi - lo
    }

    /// Renders the rolling aggregates as one deterministic JSON line
    /// (no trailing newline) — the body of the daemon's analytics
    /// endpoints.
    pub fn to_json(&self) -> String {
        let fit = |b: &FitBreakdown| {
            let fields: Vec<String> = b
                .iter()
                .map(|(class, rate)| {
                    format!(
                        "\"{}\":{}",
                        escape(&class.to_string()),
                        fmt_f64(rate.value())
                    )
                })
                .collect();
            format!("{{{}}}", fields.join(","))
        };
        let hist = |h: &Log2Histogram| {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .iter()
                .map(|(lo, n)| format!("[{},{}]", lo.as_micros(), n))
                .collect();
            format!(
                "{{\"count\":{},\"underflow\":{},\"overflow\":{},\"buckets\":[{}]}}",
                h.count(),
                h.underflow(),
                h.overflow(),
                buckets.join(",")
            )
        };
        let by_site: Vec<String> = self
            .sdc_by_site
            .iter()
            .map(|(site, n)| format!("\"{}\":{n}", escape(site)))
            .collect();
        let (ci_lo, ci_hi) = self.fit_all_ci95();
        format!(
            concat!(
                "{{\"radcrit_analytics\":1",
                ",\"kernel\":\"{}\",\"input\":\"{}\",\"device\":\"{}\"",
                ",\"injections\":{},\"declared_injections\":{},\"finished\":{}",
                ",\"masked\":{},\"sdc\":{},\"critical_sdc\":{},\"crash\":{},\"hang\":{}",
                ",\"sigma_total\":{}",
                ",\"fit_all\":{},\"fit_filtered\":{}",
                ",\"fit_all_total\":{},\"fit_filtered_total\":{}",
                ",\"fit_ci95\":[{},{}]",
                ",\"sdc_by_site\":{{{}}}",
                ",\"mre_hist\":{},\"mre_filtered_hist\":{},\"corrupted_elems_hist\":{}}}"
            ),
            escape(&self.kernel),
            escape(&self.input),
            escape(&self.device),
            self.injections(),
            self.declared_injections,
            self.finished,
            self.masked,
            self.sdc,
            self.critical_sdc,
            self.crash,
            self.hang,
            fmt_f64(self.sigma_total),
            fit(&self.fit_all()),
            fit(&self.fit_filtered()),
            fmt_f64(self.fit_all().total().value()),
            fmt_f64(self.fit_filtered().total().value()),
            fmt_f64(ci_lo),
            fmt_f64(ci_hi),
            by_site.join(","),
            hist(&self.mre_hist),
            hist(&self.mre_filtered_hist),
            hist(&self.elems_hist),
        )
    }

    /// Folds the complete lines of an events JSONL file
    /// ([`crate::AppendLog::read`]), so a file caught mid-write folds
    /// exactly like the stream a live tailer would have seen.
    ///
    /// # Errors
    ///
    /// I/O errors, or a malformed terminal event (with its line number).
    pub fn from_events_path(path: &std::path::Path) -> Result<Self, String> {
        let lines = crate::AppendLog::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut agg = Self::new();
        for (n, line) in lines.iter().enumerate() {
            agg.fold_line(line)
                .map_err(|e| format!("line {}: {e}", n + 1))?;
        }
        Ok(agg)
    }
}

/// Records a non-negative magnitude into a [`Log2Histogram`], reusing
/// its µs-oriented buckets as generic log2 bins: value `v` lands in
/// bucket ⌊log2 v⌋; zero is underflow, `inf` is overflow — both remain
/// visible as explicit counts rather than being dropped.
fn record_magnitude(hist: &mut Log2Histogram, v: f64) {
    if v.is_infinite() || v >= u128::MAX as f64 {
        hist.record_micros(u128::MAX);
    } else if v.is_nan() {
        hist.record_micros(0);
    } else {
        hist.record_micros(v as u128);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdc_sample(index: u64, site: &str, critical: bool) -> AnalyticSample {
        AnalyticSample {
            index,
            site: site.to_owned(),
            outcome: "SDC".to_owned(),
            mismatches: 4,
            class: SpatialClass::Square,
            mre: Some(12.5),
            critical,
            fclass: critical.then_some(SpatialClass::Line),
        }
    }

    fn masked_sample(index: u64) -> AnalyticSample {
        AnalyticSample {
            index,
            site: "l2".to_owned(),
            outcome: "MASKED".to_owned(),
            mismatches: 0,
            class: SpatialClass::None,
            mre: None,
            critical: false,
            fclass: None,
        }
    }

    #[test]
    fn folding_is_idempotent_per_index() {
        let mut agg = CriticalityAggregator::new();
        agg.fold_sample(&sdc_sample(3, "fpu", true));
        let once = agg.clone();
        agg.fold_sample(&sdc_sample(3, "fpu", true));
        assert_eq!(agg, once, "re-folding a seen index must be a no-op");
        assert_eq!(agg.sdc(), 1);
        assert_eq!(agg.critical_sdc(), 1);
    }

    #[test]
    fn counts_and_breakdowns_accumulate() {
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 4, 100.0);
        agg.fold_sample(&sdc_sample(0, "fpu", true));
        agg.fold_sample(&sdc_sample(1, "l2", false));
        agg.fold_sample(&masked_sample(2));
        agg.fold_sample(&AnalyticSample {
            outcome: "CRASH".to_owned(),
            ..masked_sample(3)
        });
        assert_eq!(agg.injections(), 4);
        assert_eq!(agg.sdc(), 2);
        assert_eq!(agg.critical_sdc(), 1);
        assert_eq!(agg.masked(), 1);
        assert_eq!(agg.crash(), 1);
        // 2 SDCs out of 4 injections at σ=100 → FIT_all total 50.
        assert!((agg.fit_all().total().value() - 50.0).abs() < 1e-12);
        // Filtered breakdown follows the *filtered* class.
        assert!((agg.fit_filtered().rate(SpatialClass::Line).value() - 25.0).abs() < 1e-12);
        assert_eq!(agg.sdc_by_site()["fpu"], 1);
        let (lo, hi) = agg.fit_all_ci95();
        assert!(lo < agg.fit_all().total().value());
        assert!(hi > agg.fit_all().total().value());
        assert!(agg.fit_ci_width() > 0.0);
        assert_eq!(agg.elems_hist.count(), 2);
        assert_eq!(agg.mre_filtered_hist.count(), 1);
    }

    #[test]
    fn provenance_and_replay_events_fold_alike() {
        let rec = ProvenanceRecord {
            index: 7,
            site: "fpu".to_owned(),
            at_tile: Some(2),
            victim_tile: None,
            unit: None,
            bit: Some(5),
            delivered: true,
            touched_tiles: vec![2],
            outcome: "SDC".to_owned(),
            mismatches: 3,
            class: SpatialClass::Line,
            mre: Some(7.0),
            critical: true,
            fclass: Some(SpatialClass::Single),
        };
        let mut from_prov = CriticalityAggregator::new();
        from_prov.fold_event(&rec.to_event()).unwrap();

        // A replay marker carrying the same analytic fields.
        let replay = Event {
            kind: "replay".to_owned(),
            index: Some(7),
            fields: vec![
                ("site".to_owned(), FieldValue::Str("fpu".to_owned())),
                ("outcome".to_owned(), FieldValue::Str("SDC".to_owned())),
                ("delivered".to_owned(), FieldValue::Bool(true)),
                ("mismatches".to_owned(), FieldValue::U64(3)),
                ("class".to_owned(), FieldValue::Str("line".to_owned())),
                ("mre".to_owned(), FieldValue::F64(7.0)),
                ("critical".to_owned(), FieldValue::Bool(true)),
                ("fclass".to_owned(), FieldValue::Str("single".to_owned())),
            ],
        };
        let mut from_replay = CriticalityAggregator::new();
        from_replay.fold_event(&replay).unwrap();
        assert_eq!(from_prov, from_replay);
    }

    #[test]
    fn run_begin_sets_context_and_run_end_finishes() {
        let mut agg = CriticalityAggregator::new();
        agg.fold_line(
            r#"{"e":"run_begin","device":"K40","injections":8,"seed":11,"kernel":"dgemm","input":"32x32","sigma":2048.5}"#,
        )
        .unwrap();
        assert_eq!(agg.kernel(), "dgemm");
        assert_eq!(agg.input(), "32x32");
        assert_eq!(agg.device(), "K40");
        assert_eq!(agg.declared_injections(), 8);
        assert!((agg.sigma_total() - 2048.5).abs() < 1e-12);
        assert!(!agg.is_finished());
        agg.fold_line(r#"{"e":"run_end","produced":8,"masked":5,"sdc":2,"crash":1,"hang":0}"#)
            .unwrap();
        assert!(agg.is_finished());
        // Torn tail lines are ignored, not errors.
        agg.fold_line("{\"e\":\"prov").unwrap();
    }

    #[test]
    fn merge_adds_counts_and_drops_scatter() {
        let mut a = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 2, 10.0);
        a.fold_sample(&sdc_sample(0, "fpu", true));
        let mut b = CriticalityAggregator::with_context("hotspot", "64x64", "K40", 2, 10.0);
        b.fold_sample(&sdc_sample(0, "l2", false));
        let mut total = CriticalityAggregator::new();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total.sdc(), 2);
        assert_eq!(total.critical_sdc(), 1);
        assert_eq!(total.kernel(), "mixed");
        assert_eq!(total.device(), "K40");
        assert_eq!(total.scatter().count(), 0, "rollup carries no scatter");
        assert_eq!(total.sdc_by_site()["fpu"] + total.sdc_by_site()["l2"], 2);
    }

    #[test]
    fn json_rendering_is_parseable_and_deterministic() {
        let mut agg = CriticalityAggregator::with_context("dgemm", "32x32", "K40", 4, 64.0);
        agg.fold_sample(&sdc_sample(0, "fpu", true));
        agg.fold_sample(&masked_sample(1));
        let line = agg.to_json();
        assert_eq!(line, agg.clone().to_json());
        let parsed = crate::json::parse_line(&line).unwrap();
        let top = crate::json::as_obj(&parsed).unwrap();
        assert_eq!(crate::json::get_usize(top, "radcrit_analytics"), Ok(1));
        assert_eq!(crate::json::get_str(top, "kernel"), Ok("dgemm"));
        assert_eq!(crate::json::get_usize(top, "sdc"), Ok(1));
        assert_eq!(crate::json::get_usize(top, "critical_sdc"), Ok(1));
    }
}
