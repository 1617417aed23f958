//! Worker health tracking: registration, heartbeat recency and the
//! sweep that declares silent workers dead.
//!
//! All time flows in through explicit [`Instant`] parameters — the
//! registry never reads the clock itself — so the heartbeat-timeout
//! state machine is testable without sleeping.

use std::time::{Duration, Instant};

/// Clock probes each worker keeps at most; older probes age out. The
/// best (lowest-RTT) estimate wins, so a short recent history is
/// enough while staying bounded on week-long campaigns.
const PROBE_CAP: usize = 64;

/// One heartbeat round-trip measurement against a worker's clock: the
/// coordinator records the probe's RTT and the midpoint-method offset
/// (worker µs-since-epoch → coordinator µs-since-epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockProbe {
    /// When the probe completed (coordinator clock).
    pub at: Instant,
    /// Round-trip time of the healthz probe.
    pub rtt: Duration,
    /// Microseconds to add to a worker timestamp to land it on the
    /// coordinator timeline: `coordinator_midpoint_us - worker_now_us`.
    pub offset_us: i64,
}

/// The registry's best clock-offset estimate for one worker: the
/// lowest-RTT probe in the trailing history, whose symmetric-delay
/// error bound is half its RTT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockEstimate {
    /// Microseconds to add to worker timestamps (may be negative).
    pub offset_us: i64,
    /// Error bound of the estimate: the chosen probe's `rtt / 2`.
    pub error_us: u64,
}

/// One registered worker daemon.
#[derive(Debug, Clone)]
pub struct Worker {
    /// The worker's HTTP address, `host:port` — its identity.
    pub addr: String,
    /// Last successful heartbeat (or registration) time.
    pub last_seen: Instant,
    /// Whether the worker is currently considered alive.
    pub alive: bool,
    /// Recent clock probes, oldest first (at most 64, `PROBE_CAP`).
    pub probes: Vec<ClockProbe>,
    /// Alive→dead transitions this worker has suffered.
    pub deaths: u64,
}

/// The coordinator's view of its worker fleet.
#[derive(Debug)]
pub struct WorkerRegistry {
    workers: Vec<Worker>,
    timeout: Duration,
}

impl WorkerRegistry {
    /// An empty registry declaring workers dead after `timeout` without
    /// a heartbeat.
    pub fn new(timeout: Duration) -> Self {
        WorkerRegistry {
            workers: Vec::new(),
            timeout,
        }
    }

    /// The configured heartbeat timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Registers a worker (idempotent by address). Re-registering a
    /// dead worker revives it — a restarted daemon re-joins the fleet.
    /// Returns the worker's index.
    pub fn register(&mut self, addr: &str, now: Instant) -> usize {
        if let Some(i) = self.workers.iter().position(|w| w.addr == addr) {
            self.workers[i].last_seen = now;
            self.workers[i].alive = true;
            return i;
        }
        self.workers.push(Worker {
            addr: addr.to_owned(),
            last_seen: now,
            alive: true,
            probes: Vec::new(),
            deaths: 0,
        });
        self.workers.len() - 1
    }

    /// Records one heartbeat clock probe for `addr` (no-op for unknown
    /// addresses), keeping at most 64 (`PROBE_CAP`) recent probes.
    pub fn record_probe(&mut self, addr: &str, probe: ClockProbe) {
        if let Some(w) = self.workers.iter_mut().find(|w| w.addr == addr) {
            if w.probes.len() >= PROBE_CAP {
                w.probes.remove(0);
            }
            w.probes.push(probe);
        }
    }

    /// The best clock-offset estimate for `addr`: the lowest-RTT probe
    /// in the trailing history (symmetric-delay midpoint method, error
    /// bound RTT/2). `None` until a probe has been recorded.
    pub fn clock_offset(&self, addr: &str) -> Option<ClockEstimate> {
        let w = self.workers.iter().find(|w| w.addr == addr)?;
        let best = w.probes.iter().min_by_key(|p| p.rtt)?;
        Some(ClockEstimate {
            offset_us: best.offset_us,
            error_us: (best.rtt.as_micros() / 2) as u64,
        })
    }

    /// Cumulative alive→dead transitions across the whole fleet — the
    /// input of the `worker-flapping` alert rule.
    pub fn deaths_total(&self) -> u64 {
        self.workers.iter().map(|w| w.deaths).sum()
    }

    /// Records a successful heartbeat for `addr` (no-op for unknown
    /// addresses). A heartbeat does *not* revive a worker already swept
    /// dead: its shards are being re-dispatched, and a zombie answering
    /// probes must not be handed work until it re-registers.
    pub fn mark_seen(&mut self, addr: &str, now: Instant) {
        if let Some(w) = self.workers.iter_mut().find(|w| w.addr == addr) {
            if w.alive {
                w.last_seen = now;
            }
        }
    }

    /// Declares a worker dead immediately (a connection actively
    /// refused is stronger evidence than a missed heartbeat). Returns
    /// whether this call flipped a live worker — `false` for unknown
    /// addresses and workers already struck, so callers can act on the
    /// death edge exactly once.
    pub fn mark_dead(&mut self, addr: &str) -> bool {
        if let Some(w) = self.workers.iter_mut().find(|w| w.addr == addr) {
            if w.alive {
                w.deaths += 1;
                w.alive = false;
                return true;
            }
        }
        false
    }

    /// Sweeps the fleet at time `now`: every live worker whose last
    /// heartbeat is older than the timeout flips to dead, and the newly
    /// dead addresses are returned (each exactly once) so the caller can
    /// re-dispatch their shards.
    pub fn sweep_at(&mut self, now: Instant) -> Vec<String> {
        let mut newly_dead = Vec::new();
        for w in &mut self.workers {
            if w.alive && now.duration_since(w.last_seen) > self.timeout {
                w.alive = false;
                w.deaths += 1;
                newly_dead.push(w.addr.clone());
            }
        }
        newly_dead
    }

    /// Addresses of all currently live workers, in registration order.
    pub fn alive(&self) -> Vec<String> {
        self.workers
            .iter()
            .filter(|w| w.alive)
            .map(|w| w.addr.clone())
            .collect()
    }

    /// Number of currently live workers.
    pub fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive).count()
    }

    /// All workers, live and dead, in registration order.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(2);

    fn is_alive(reg: &WorkerRegistry, addr: &str) -> bool {
        reg.workers().iter().any(|w| w.addr == addr && w.alive)
    }

    #[test]
    fn registration_is_idempotent_by_address() {
        let now = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        assert_eq!(reg.register("a:1", now), 0);
        assert_eq!(reg.register("b:2", now), 1);
        assert_eq!(reg.register("a:1", now), 0, "same index on re-register");
        assert_eq!(reg.alive_count(), 2);
    }

    #[test]
    fn sweep_kills_silent_workers_once() {
        let t0 = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        reg.register("a:1", t0);
        reg.register("b:2", t0);
        reg.mark_seen("b:2", t0 + Duration::from_secs(3));
        let dead = reg.sweep_at(t0 + Duration::from_secs(4));
        assert_eq!(dead, ["a:1"], "only the silent worker dies");
        assert!(!is_alive(&reg, "a:1"));
        assert!(is_alive(&reg, "b:2"));
        assert!(
            reg.sweep_at(t0 + Duration::from_secs(5)).is_empty(),
            "a dead worker is reported exactly once"
        );
    }

    #[test]
    fn heartbeats_do_not_revive_the_dead_but_reregistration_does() {
        let t0 = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        reg.register("a:1", t0);
        reg.mark_dead("a:1");
        reg.mark_seen("a:1", t0 + Duration::from_secs(1));
        assert!(!is_alive(&reg, "a:1"), "zombie heartbeat must not revive");
        reg.register("a:1", t0 + Duration::from_secs(1));
        assert!(is_alive(&reg, "a:1"), "explicit re-registration revives");
        assert_eq!(reg.workers().len(), 1);
    }

    #[test]
    fn clock_probes_prefer_the_lowest_rtt_and_stay_bounded() {
        let t0 = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        reg.register("a:1", t0);
        assert_eq!(reg.clock_offset("a:1"), None, "no probe yet");
        reg.record_probe(
            "a:1",
            ClockProbe {
                at: t0,
                rtt: Duration::from_micros(900),
                offset_us: 5_000,
            },
        );
        reg.record_probe(
            "a:1",
            ClockProbe {
                at: t0 + Duration::from_secs(1),
                rtt: Duration::from_micros(200),
                offset_us: 4_700,
            },
        );
        let est = reg.clock_offset("a:1").unwrap();
        assert_eq!(est.offset_us, 4_700, "the lowest-RTT probe wins");
        assert_eq!(est.error_us, 100, "error bound is RTT/2");
        for i in 0..(PROBE_CAP * 2) {
            reg.record_probe(
                "a:1",
                ClockProbe {
                    at: t0,
                    rtt: Duration::from_millis(10),
                    offset_us: i as i64,
                },
            );
        }
        assert_eq!(reg.workers()[0].probes.len(), PROBE_CAP);
        assert!(reg.clock_offset("nope").is_none());
    }

    #[test]
    fn deaths_accumulate_once_per_transition() {
        let t0 = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        reg.register("a:1", t0);
        reg.register("b:2", t0);
        assert_eq!(reg.deaths_total(), 0);
        reg.mark_dead("a:1");
        reg.mark_dead("a:1"); // already dead: not a second transition
        assert_eq!(reg.deaths_total(), 1);
        let dead = reg.sweep_at(t0 + Duration::from_secs(10));
        assert_eq!(dead, ["b:2"]);
        assert_eq!(reg.deaths_total(), 2);
        // Revival and a second death count again.
        reg.register("a:1", t0 + Duration::from_secs(10));
        reg.mark_dead("a:1");
        assert_eq!(reg.deaths_total(), 3);
    }

    #[test]
    fn alive_listing_follows_registration_order() {
        let t0 = Instant::now();
        let mut reg = WorkerRegistry::new(T);
        reg.register("c:3", t0);
        reg.register("a:1", t0);
        reg.register("b:2", t0);
        reg.mark_dead("a:1");
        assert_eq!(reg.alive(), ["c:3", "b:2"]);
    }
}
