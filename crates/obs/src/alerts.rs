//! Campaign health rules: typed alerts with firing/resolved edges.
//!
//! An [`AlertEngine`] folds periodic [`HealthSample`]s — cumulative
//! fabric counters, shard coverage, queue depth, live-analytics CI
//! width — into the state of five typed rules:
//!
//! | rule | severity | fires when |
//! |---|---|---|
//! | `worker-flapping` | critical | ≥ N worker deaths in the trailing window |
//! | `redispatch-storm` | warning | ≥ N shard re-dispatches in the trailing window |
//! | `shard-stalled` | critical | coverage unchanged for N consecutive sweeps mid-campaign |
//! | `queue-saturated` | warning | queue depth at the configured capacity |
//! | `fit-ci-stalled` | warning | FIT 95 % CI width not shrinking over N sweeps despite new injections |
//!
//! Every state flip is an [`AlertEvent`] edge, and
//! [`AlertEngine::publish`] turns each batch into structured JSONL log
//! lines, `radcrit_alerts_fired_total{rule}` counters and
//! `radcrit_alert_active{rule}` gauges. Time is injected
//! ([`std::time::Instant`] parameters, mirroring the fabric's worker
//! registry), so every rule is deterministic under test.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::json::{escape, fmt_f64};
use crate::metrics::MetricsRegistry;

/// Samples the trailing-window ring buffer keeps at most (a pure
/// backstop — pruning by window age is what bounds it in practice).
const HISTORY_CAP: usize = 4_096;

/// The five health rules the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertRule {
    /// Workers dying (alive→dead heartbeat transitions) in the window.
    WorkerFlapping,
    /// Shard remainders re-dispatched to survivors in the window.
    RedispatchStorm,
    /// Shard coverage frozen mid-campaign for N consecutive sweeps.
    ShardStalled,
    /// Job queue at capacity.
    QueueSaturated,
    /// FIT confidence interval no longer converging despite new data.
    FitCiStalled,
}

/// Alert severity, ordered: warnings degrade, criticals endanger the
/// campaign's result or deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Degraded but self-healing or cosmetic.
    Warning,
    /// The campaign's completion or statistical validity is at risk.
    Critical,
}

impl Severity {
    /// Wire name (`warning`, `critical`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }
}

impl AlertRule {
    /// Every rule, in evaluation and display order.
    pub const ALL: [AlertRule; 5] = [
        AlertRule::WorkerFlapping,
        AlertRule::RedispatchStorm,
        AlertRule::ShardStalled,
        AlertRule::QueueSaturated,
        AlertRule::FitCiStalled,
    ];

    /// Kebab-case wire name, used in JSON bodies, log lines and the
    /// `rule` metric label.
    pub fn name(self) -> &'static str {
        match self {
            AlertRule::WorkerFlapping => "worker-flapping",
            AlertRule::RedispatchStorm => "redispatch-storm",
            AlertRule::ShardStalled => "shard-stalled",
            AlertRule::QueueSaturated => "queue-saturated",
            AlertRule::FitCiStalled => "fit-ci-stalled",
        }
    }

    /// The rule's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            AlertRule::WorkerFlapping | AlertRule::ShardStalled => Severity::Critical,
            _ => Severity::Warning,
        }
    }

    fn index(self) -> usize {
        AlertRule::ALL
            .iter()
            .position(|r| *r == self)
            .expect("rule in ALL")
    }
}

/// Rule thresholds. The defaults are tuned for the coordinator's
/// heartbeat cadence; daemons override `queue_capacity`, coordinators
/// override `window` (from their heartbeat timeout).
#[derive(Debug, Clone)]
pub struct AlertConfig {
    /// Trailing window for flap / storm evaluation.
    pub window: Duration,
    /// Worker deaths within the window that mean flapping.
    pub flap_deaths: u64,
    /// Re-dispatches within the window that mean a storm.
    pub storm_redispatches: u64,
    /// Consecutive sweeps with frozen coverage that mean a stall.
    pub stall_sweeps: u32,
    /// Queue capacity; `None` disables `queue-saturated`.
    pub queue_capacity: Option<u64>,
    /// Consecutive non-converging sweeps that mean a CI stall.
    pub ci_stall_sweeps: u32,
    /// Minimum relative CI-width shrink per sweep-with-new-data below
    /// which the sweep counts as non-converging.
    pub ci_min_shrink: f64,
}

impl Default for AlertConfig {
    fn default() -> Self {
        AlertConfig {
            window: Duration::from_secs(10),
            flap_deaths: 1,
            storm_redispatches: 1,
            stall_sweeps: 400,
            queue_capacity: None,
            ci_stall_sweeps: 400,
            ci_min_shrink: 0.0,
        }
    }
}

/// One periodic health observation. Counters are cumulative (the
/// engine computes trailing-window deltas itself); optional fields
/// disable the rules that need them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthSample {
    /// Cumulative worker alive→dead transitions.
    pub worker_deaths_total: u64,
    /// Cumulative shard re-dispatches.
    pub redispatches_total: u64,
    /// Injection indices covered by the merged stream so far.
    pub covered: u64,
    /// Total injection indices in the campaign (0 when not sharded).
    pub total: u64,
    /// Whether the campaign has finished (suppresses stall rules).
    pub done: bool,
    /// Current job-queue depth, when the observer has a queue.
    pub queue_depth: Option<u64>,
    /// Width of the live FIT 95 % confidence interval.
    pub fit_ci_width: Option<f64>,
    /// Injections folded into the live analytics so far.
    pub injections_folded: u64,
}

/// One firing/resolved edge of one rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// The rule that flipped.
    pub rule: AlertRule,
    /// `true` on firing, `false` on resolution.
    pub firing: bool,
    /// µs since the engine's first observation.
    pub at_us: u64,
    /// Human-readable cause with the numbers that tripped it.
    pub message: String,
}

impl AlertEvent {
    /// Renders the edge as one structured JSONL log line.
    fn to_json_line(&self) -> String {
        format!(
            "{{\"radcrit_alert\":1,\"edge\":\"{}\",\"rule\":\"{}\",\"severity\":\"{}\",\
             \"at_us\":{},\"message\":\"{}\"}}",
            if self.firing { "firing" } else { "resolved" },
            self.rule.name(),
            self.rule.severity().name(),
            self.at_us,
            escape(&self.message)
        )
    }
}

/// Per-rule engine state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    active: bool,
    since_us: u64,
    fired_total: u64,
    message: String,
}

/// The health rules evaluator. Feed it one [`HealthSample`] per sweep
/// with [`AlertEngine::observe`]; re-evaluate lazily (e.g. at scrape
/// time, after the campaign stops sweeping) with
/// [`AlertEngine::evaluate_at`].
#[derive(Debug)]
pub struct AlertEngine {
    config: AlertConfig,
    epoch: Option<Instant>,
    history: VecDeque<(Instant, HealthSample)>,
    states: [RuleState; 5],
    stall_streak: u32,
    ci_streak: u32,
    last_covered: Option<u64>,
    last_ci: Option<(u64, f64)>,
}

impl AlertEngine {
    /// Creates an engine with the given thresholds.
    pub fn new(config: AlertConfig) -> Self {
        AlertEngine {
            config,
            epoch: None,
            history: VecDeque::new(),
            states: Default::default(),
            stall_streak: 0,
            ci_streak: 0,
            last_covered: None,
            last_ci: None,
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &AlertConfig {
        &self.config
    }

    fn at_us(&self, now: Instant) -> u64 {
        self.epoch
            .and_then(|e| now.checked_duration_since(e))
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// Folds a fresh sample taken at `now` and returns the edges it
    /// produced. Consecutive-sweep streaks (stall rules) only advance
    /// here, never on lazy re-evaluation.
    pub fn observe(&mut self, now: Instant, sample: HealthSample) -> Vec<AlertEvent> {
        self.epoch.get_or_insert(now);

        // Coverage-stall streak: frozen mid-campaign coverage.
        let mid_campaign = !sample.done && sample.covered > 0 && sample.covered < sample.total;
        if mid_campaign && self.last_covered == Some(sample.covered) {
            self.stall_streak = self.stall_streak.saturating_add(1);
        } else {
            self.stall_streak = 0;
        }
        self.last_covered = Some(sample.covered);

        // CI-convergence streak: new injections folded, width stuck.
        if let (Some(width), Some((prev_folded, prev_width))) = (sample.fit_ci_width, self.last_ci)
        {
            let new_data = sample.injections_folded > prev_folded;
            let shrink = prev_width - width;
            if !sample.done && new_data && shrink <= prev_width * self.config.ci_min_shrink {
                self.ci_streak = self.ci_streak.saturating_add(1);
            } else if new_data || sample.done {
                self.ci_streak = 0;
            }
        }
        if let Some(width) = sample.fit_ci_width {
            self.last_ci = Some((sample.injections_folded, width));
        }

        self.history.push_back((now, sample));
        if self.history.len() > HISTORY_CAP {
            self.history.pop_front();
        }
        self.evaluate_at(now)
    }

    /// Re-evaluates every rule at `now` without a fresh sample: the
    /// trailing window slides forward, so flap/storm alerts resolve
    /// once their window drains even after sweeps stop.
    pub fn evaluate_at(&mut self, now: Instant) -> Vec<AlertEvent> {
        let Some((_, latest)) = self.history.back() else {
            return Vec::new();
        };
        let latest = latest.clone();
        // The counter baseline is the newest sample from before the
        // window (else the oldest inside it): a counter increment counts
        // from the first sample that observes it inside the window, even
        // when a sweep gap longer than the window preceded that sample.
        // Once every sample predates the window, the baseline is the
        // latest one and nothing happened inside it.
        while self.history.len() > 1 && self.history[1].0 + self.config.window < now {
            self.history.pop_front();
        }
        let (_, counters) = self.history.front().expect("non-empty history");
        let deaths = latest
            .worker_deaths_total
            .saturating_sub(counters.worker_deaths_total);
        let redispatches = latest
            .redispatches_total
            .saturating_sub(counters.redispatches_total);

        let cfg = &self.config;
        let mut desired: [(bool, String); 5] = Default::default();
        desired[AlertRule::WorkerFlapping.index()] = (
            deaths >= cfg.flap_deaths,
            format!(
                "{deaths} worker death(s) in the trailing {:?} window",
                cfg.window
            ),
        );
        desired[AlertRule::RedispatchStorm.index()] = (
            redispatches >= cfg.storm_redispatches,
            format!(
                "{redispatches} shard re-dispatch(es) in the trailing {:?} window",
                cfg.window
            ),
        );
        desired[AlertRule::ShardStalled.index()] = (
            self.stall_streak >= cfg.stall_sweeps,
            format!(
                "coverage frozen at {}/{} for {} consecutive sweeps",
                latest.covered, latest.total, self.stall_streak
            ),
        );
        let queue_full = matches!(
            (latest.queue_depth, cfg.queue_capacity),
            (Some(depth), Some(cap)) if cap > 0 && depth >= cap
        );
        desired[AlertRule::QueueSaturated.index()] = (
            queue_full,
            format!(
                "queue depth {} at capacity {}",
                latest.queue_depth.unwrap_or(0),
                cfg.queue_capacity.unwrap_or(0)
            ),
        );
        desired[AlertRule::FitCiStalled.index()] = (
            self.ci_streak >= cfg.ci_stall_sweeps,
            format!(
                "FIT 95% CI width stuck at {} for {} sweeps with new injections",
                fmt_f64(latest.fit_ci_width.unwrap_or(f64::NAN)),
                self.ci_streak
            ),
        );

        let at_us = self.at_us(now);
        let mut edges = Vec::new();
        for rule in AlertRule::ALL {
            let (want, message) = desired[rule.index()].clone();
            let state = &mut self.states[rule.index()];
            if want == state.active {
                continue;
            }
            state.active = want;
            state.since_us = at_us;
            state.message = message.clone();
            if want {
                state.fired_total += 1;
            }
            edges.push(AlertEvent {
                rule,
                firing: want,
                at_us,
                message,
            });
        }
        edges
    }

    /// Whether `rule` is currently firing.
    fn is_active(&self, rule: AlertRule) -> bool {
        self.states[rule.index()].active
    }

    /// How many times `rule` has fired since the engine started.
    pub fn fired_total(&self, rule: AlertRule) -> u64 {
        self.states[rule.index()].fired_total
    }

    /// Publishes one batch of `edges` this engine just returned from
    /// [`AlertEngine::observe`] or [`AlertEngine::evaluate_at`]: each
    /// edge goes to stderr as a JSONL line, each firing edge bumps
    /// `radcrit_alerts_fired_total{rule}`, and every rule's
    /// `radcrit_alert_active{rule}` gauge is refreshed.
    pub fn publish(&self, edges: &[AlertEvent], metrics: &MetricsRegistry) {
        for edge in edges {
            eprintln!("{}", edge.to_json_line());
            if edge.firing {
                metrics.counter_add(
                    "radcrit_alerts_fired_total",
                    &[("rule", edge.rule.name())],
                    1,
                );
            }
        }
        for rule in AlertRule::ALL {
            metrics.gauge_set(
                "radcrit_alert_active",
                &[("rule", rule.name())],
                if self.is_active(rule) { 1.0 } else { 0.0 },
            );
        }
    }

    /// Renders the full rule table as the `GET /alerts` body: one entry
    /// per rule with state, severity, firing edge timestamp, cumulative
    /// fire count and the last edge's message.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = AlertRule::ALL
            .iter()
            .map(|&rule| {
                let s = &self.states[rule.index()];
                format!(
                    "{{\"rule\":\"{}\",\"severity\":\"{}\",\"state\":\"{}\",\
                     \"since_us\":{},\"fired_total\":{},\"message\":\"{}\"}}",
                    rule.name(),
                    rule.severity().name(),
                    if s.active { "firing" } else { "ok" },
                    s.since_us,
                    s.fired_total,
                    escape(&s.message)
                )
            })
            .collect();
        format!("{{\"radcrit_alerts\":1,\"alerts\":[{}]}}", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Instant {
        Instant::now()
    }

    fn engine(config: AlertConfig) -> AlertEngine {
        AlertEngine::new(config)
    }

    fn sample() -> HealthSample {
        HealthSample {
            total: 1_000,
            covered: 10,
            ..HealthSample::default()
        }
    }

    #[test]
    fn a_worker_death_fires_flapping_and_the_window_resolves_it() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            window: Duration::from_secs(2),
            ..AlertConfig::default()
        });
        assert!(e.observe(t0, sample()).is_empty());
        let edges = e.observe(
            t0 + Duration::from_millis(200),
            HealthSample {
                worker_deaths_total: 1,
                ..sample()
            },
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, AlertRule::WorkerFlapping);
        assert!(edges[0].firing);
        assert!(e.is_active(AlertRule::WorkerFlapping));
        assert_eq!(e.fired_total(AlertRule::WorkerFlapping), 1);

        // No new deaths: once the window drains, the alert resolves —
        // even via lazy re-evaluation with no fresh sample.
        let edges = e.evaluate_at(t0 + Duration::from_secs(5));
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].firing);
        assert!(!e.is_active(AlertRule::WorkerFlapping));
        assert_eq!(e.fired_total(AlertRule::WorkerFlapping), 1);
    }

    #[test]
    fn a_death_first_seen_after_a_sweep_gap_fires_flapping() {
        // Two samples more than a window apart: the older one is the
        // baseline, so the death first observed in the newer one counts.
        let t0 = base();
        let window = Duration::from_secs(2);
        let mut e = engine(AlertConfig {
            window,
            ..AlertConfig::default()
        });
        assert!(e.observe(t0, sample()).is_empty());
        let t1 = t0 + window + Duration::from_secs(1);
        let edges = e.observe(
            t1,
            HealthSample {
                worker_deaths_total: 1,
                ..sample()
            },
        );
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].rule, AlertRule::WorkerFlapping);
        assert!(edges[0].firing);

        // One more window without new deaths resolves it.
        let edges = e.evaluate_at(t1 + window + Duration::from_secs(1));
        assert_eq!(edges.len(), 1, "{edges:?}");
        assert_eq!(edges[0].rule, AlertRule::WorkerFlapping);
        assert!(!edges[0].firing);
        assert_eq!(e.fired_total(AlertRule::WorkerFlapping), 1);
    }

    #[test]
    fn redispatches_fire_and_resolve_the_storm_rule() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            window: Duration::from_secs(2),
            storm_redispatches: 2,
            ..AlertConfig::default()
        });
        e.observe(t0, sample());
        let edges = e.observe(
            t0 + Duration::from_millis(100),
            HealthSample {
                redispatches_total: 1,
                ..sample()
            },
        );
        assert!(edges.is_empty(), "one redispatch is under the threshold");
        let edges = e.observe(
            t0 + Duration::from_millis(200),
            HealthSample {
                redispatches_total: 2,
                ..sample()
            },
        );
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, AlertRule::RedispatchStorm);
        assert!(edges[0].firing);
        let edges = e.evaluate_at(t0 + Duration::from_secs(10));
        assert!(edges
            .iter()
            .any(|ev| ev.rule == AlertRule::RedispatchStorm && !ev.firing));
    }

    #[test]
    fn frozen_coverage_stalls_and_progress_resolves() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            stall_sweeps: 3,
            ..AlertConfig::default()
        });
        let mut edges = Vec::new();
        for i in 0..5 {
            edges = e.observe(t0 + Duration::from_millis(100 * i), sample());
        }
        assert!(e.is_active(AlertRule::ShardStalled), "{edges:?}");
        let edges = e.observe(
            t0 + Duration::from_millis(600),
            HealthSample {
                covered: 11,
                ..sample()
            },
        );
        assert!(edges
            .iter()
            .any(|ev| ev.rule == AlertRule::ShardStalled && !ev.firing));
        // A finished campaign never counts as stalled.
        let mut done = sample();
        done.covered = 1_000;
        done.done = true;
        for i in 0..5 {
            e.observe(t0 + Duration::from_millis(700 + 100 * i), done.clone());
        }
        assert!(!e.is_active(AlertRule::ShardStalled));
    }

    #[test]
    fn queue_saturation_tracks_the_configured_capacity() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            queue_capacity: Some(4),
            ..AlertConfig::default()
        });
        let mut s = HealthSample {
            queue_depth: Some(4),
            ..HealthSample::default()
        };
        let edges = e.observe(t0, s.clone());
        assert!(edges
            .iter()
            .any(|ev| ev.rule == AlertRule::QueueSaturated && ev.firing));
        s.queue_depth = Some(1);
        let edges = e.observe(t0 + Duration::from_millis(100), s);
        assert!(edges
            .iter()
            .any(|ev| ev.rule == AlertRule::QueueSaturated && !ev.firing));
    }

    #[test]
    fn a_non_converging_ci_fires_and_convergence_resolves() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            ci_stall_sweeps: 3,
            ..AlertConfig::default()
        });
        for i in 0..5u64 {
            e.observe(
                t0 + Duration::from_millis(100 * i),
                HealthSample {
                    covered: 10 + i,
                    total: 1_000,
                    injections_folded: 10 * (i + 1),
                    fit_ci_width: Some(4.2),
                    ..HealthSample::default()
                },
            );
        }
        assert!(e.is_active(AlertRule::FitCiStalled));
        let edges = e.observe(
            t0 + Duration::from_millis(600),
            HealthSample {
                covered: 100,
                total: 1_000,
                injections_folded: 100,
                fit_ci_width: Some(2.0),
                ..HealthSample::default()
            },
        );
        assert!(edges
            .iter()
            .any(|ev| ev.rule == AlertRule::FitCiStalled && !ev.firing));
    }

    #[test]
    fn edges_render_as_structured_jsonl_and_states_as_the_alerts_body() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            window: Duration::from_secs(2),
            ..AlertConfig::default()
        });
        e.observe(t0, sample());
        let edges = e.observe(
            t0 + Duration::from_millis(50),
            HealthSample {
                worker_deaths_total: 2,
                redispatches_total: 1,
                ..sample()
            },
        );
        assert_eq!(edges.len(), 2);
        let line = edges[0].to_json_line();
        assert!(line.contains("\"radcrit_alert\":1"), "{line}");
        assert!(line.contains("\"edge\":\"firing\""), "{line}");
        assert!(line.contains("\"rule\":\"worker-flapping\""), "{line}");
        assert!(line.contains("\"severity\":\"critical\""), "{line}");
        crate::json::parse_line(&line).unwrap();

        let body = e.to_json();
        assert!(body.contains("\"radcrit_alerts\":1"), "{body}");
        assert!(
            body.contains(
                "\"rule\":\"worker-flapping\",\"severity\":\"critical\",\"state\":\"firing\""
            ),
            "{body}"
        );
        assert!(
            body.contains("\"rule\":\"queue-saturated\",\"severity\":\"warning\",\"state\":\"ok\""),
            "{body}"
        );
        crate::json::parse_line(&body).unwrap();
        for rule in AlertRule::ALL {
            assert!(body.contains(rule.name()), "{body} missing {}", rule.name());
        }
    }

    #[test]
    fn gauges_and_fired_counters_export_to_the_registry() {
        let t0 = base();
        let mut e = engine(AlertConfig {
            window: Duration::from_secs(2),
            ..AlertConfig::default()
        });
        e.observe(t0, sample());
        let edges = e.observe(
            t0 + Duration::from_millis(50),
            HealthSample {
                worker_deaths_total: 1,
                ..sample()
            },
        );
        let m = MetricsRegistry::new();
        e.publish(&edges, &m);
        let snap = m.snapshot();
        assert_eq!(
            snap.counter("radcrit_alerts_fired_total", &[("rule", "worker-flapping")]),
            Some(1)
        );
        let prom = snap.to_prometheus();
        assert!(
            prom.contains("radcrit_alert_active{rule=\"worker-flapping\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("radcrit_alert_active{rule=\"queue-saturated\"} 0"),
            "{prom}"
        );
    }
}
