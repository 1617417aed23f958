//! The job-spec wire format: what a client POSTs to `/jobs`.
//!
//! One JSON object describes one campaign. The canonical serializer
//! ([`JobSpec::to_json`]) always writes *every* field (optional ones as
//! `null`), and the parser rejects unknown versions, so API evolution
//! cannot silently drop fields — the round-trip property test in
//! `tests/spec_roundtrip.rs` holds the two sides together.
//!
//! Both the daemon and the direct CLI path build their [`Campaign`]
//! through [`JobSpec::campaign`], which is what makes the service's
//! results bit-for-bit identical to a local run of the same spec.

use std::time::Duration;

use radcrit_accel::config::DeviceConfig;
use radcrit_campaign::{Campaign, KernelSpec};
use radcrit_core::filter::ToleranceFilter;
use radcrit_kernels::pathological::Failure;
use radcrit_obs::json::{self, Json};
use radcrit_obs::TraceContext;

use crate::error::ServeError;

/// Wire-format version accepted by this build.
const SPEC_VERSION: usize = 1;

/// Which physical device preset a job simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// NVIDIA Kepler K40 preset.
    K40,
    /// Intel Xeon Phi 3120A preset.
    XeonPhi,
}

impl DeviceKind {
    /// The wire name (`"k40"` / `"phi"`, as the CLI flags spell them).
    pub fn wire_name(self) -> &'static str {
        match self {
            DeviceKind::K40 => "k40",
            DeviceKind::XeonPhi => "phi",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an unknown device name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "k40" => Ok(DeviceKind::K40),
            "phi" => Ok(DeviceKind::XeonPhi),
            other => Err(ServeError::Config(format!(
                "unknown device {other:?} (expected \"k40\" or \"phi\")"
            ))),
        }
    }
}

/// Job priority: higher classes are dequeued first; FIFO within one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Served before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Served only when nothing else waits.
    Low,
}

impl Priority {
    /// The wire name.
    pub fn wire_name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an unknown priority name.
    pub fn from_wire(name: &str) -> Result<Self, ServeError> {
        match name {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            other => Err(ServeError::Config(format!(
                "unknown priority {other:?} (expected \"high\", \"normal\" or \"low\")"
            ))),
        }
    }
}

/// One submittable campaign: the wire form of [`Campaign`] plus
/// service-level knobs (priority, event sampling).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The device preset.
    pub device: DeviceKind,
    /// Device scale divisor (1 = full size; presets usually use 8).
    pub scale: usize,
    /// The kernel and input size.
    pub kernel: KernelSpec,
    /// Number of injected executions.
    pub injections: usize,
    /// Base seed.
    pub seed: u64,
    /// Relative-error tolerance in percent (`None` = paper default 2 %).
    pub tolerance_pct: Option<f64>,
    /// Worker threads inside the campaign (0 = one per core).
    pub workers: usize,
    /// Per-injection watchdog deadline in milliseconds (`None` = off).
    pub deadline_ms: Option<u64>,
    /// Queue priority.
    pub priority: Priority,
    /// Detail-event sampling stride for the job's event stream.
    pub events_sample: u64,
    /// Injection index range `[start, end)` this job runs — one shard
    /// of a federated campaign. `None` (the wire's `null`) runs the
    /// whole `0..injections` range. The golden execution and per-index
    /// RNG streams stay those of the full campaign, so a shard's records
    /// are bit-identical to the same indices of an unsharded run.
    pub shard: Option<(usize, usize)>,
    /// Distributed-trace context minted by a coordinator: campaign
    /// identity, shard ordinal and the dispatching span's id. `None`
    /// (the wire's `null`) for direct submissions — the science is
    /// identical either way; the context only tags the job's trace.
    pub trace: Option<TraceContext>,
}

impl JobSpec {
    /// A spec with the service defaults for everything but the science
    /// (scale 1, auto workers, normal priority, full event detail).
    pub fn new(device: DeviceKind, kernel: KernelSpec, injections: usize, seed: u64) -> Self {
        JobSpec {
            device,
            scale: 1,
            kernel,
            injections,
            seed,
            tolerance_pct: None,
            workers: 0,
            deadline_ms: None,
            priority: Priority::Normal,
            events_sample: 1,
            shard: None,
            trace: None,
        }
    }

    /// Renders the canonical wire form: one JSON line, every field
    /// present, optional fields as `null`.
    pub fn to_json(&self) -> String {
        let kernel = match self.kernel {
            KernelSpec::Dgemm { n } => format!("{{\"type\":\"dgemm\",\"n\":{n}}}"),
            KernelSpec::LavaMd { grid, particles } => {
                format!("{{\"type\":\"lavamd\",\"grid\":{grid},\"particles\":{particles}}}")
            }
            KernelSpec::HotSpot {
                rows,
                cols,
                iterations,
            } => format!(
                "{{\"type\":\"hotspot\",\"rows\":{rows},\"cols\":{cols},\"iterations\":{iterations}}}"
            ),
            KernelSpec::Shallow { rows, cols, steps } => {
                format!("{{\"type\":\"clamr\",\"rows\":{rows},\"cols\":{cols},\"steps\":{steps}}}")
            }
            KernelSpec::Pathological { n, after, mode } => format!(
                "{{\"type\":\"pathological\",\"n\":{n},\"after\":{after},\"mode\":\"{mode:?}\"}}"
            ),
        };
        format!(
            concat!(
                "{{\"radcrit_job\":{}",
                ",\"device\":\"{}\",\"scale\":{},\"kernel\":{}",
                ",\"injections\":{},\"seed\":{},\"tolerance_pct\":{}",
                ",\"workers\":{},\"deadline_ms\":{}",
                ",\"priority\":\"{}\",\"events_sample\":{}",
                ",\"shard\":{},\"trace\":{}}}"
            ),
            SPEC_VERSION,
            self.device.wire_name(),
            self.scale,
            kernel,
            self.injections,
            self.seed,
            json::fmt_opt_f64(self.tolerance_pct),
            self.workers,
            self.deadline_ms
                .map_or_else(|| "null".to_owned(), |ms| ms.to_string()),
            self.priority.wire_name(),
            self.events_sample,
            self.shard.map_or_else(
                || "null".to_owned(),
                |(start, end)| format!("[{start},{end}]")
            ),
            self.trace.as_ref().map_or_else(
                || "null".to_owned(),
                |t| format!(
                    "{{\"campaign_id\":\"{}\",\"shard\":{},\"parent_span\":{}}}",
                    json::escape(&t.campaign_id),
                    t.shard,
                    t.parent_span
                )
            ),
        )
    }

    /// Parses the wire form. Optional fields may be absent *or* `null`;
    /// unknown versions and malformed fields are rejected. Fields this
    /// build does not read are ignored, so a spec an older build wrote
    /// (one carrying the retired per-job scalar pin, say) still parses.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] describing the first problem found.
    pub fn parse(body: &str) -> Result<Self, ServeError> {
        let v = json::parse_line(body.trim())
            .map_err(|m| ServeError::Config(format!("job spec: {m}")))?;
        Self::from_value(&v)
    }

    /// Parses an already-decoded JSON value (e.g. a `spec` field nested
    /// inside a journal line) with the same rules as [`JobSpec::parse`].
    ///
    /// # Errors
    ///
    /// As [`JobSpec::parse`].
    pub fn from_value(v: &Json) -> Result<Self, ServeError> {
        let bad = |m: String| ServeError::Config(format!("job spec: {m}"));
        let obj = json::as_obj(v).map_err(bad)?;
        let version = json::get_usize(obj, "radcrit_job").map_err(bad)?;
        if version != SPEC_VERSION {
            return Err(ServeError::Config(format!(
                "job spec: unsupported version {version} (this build speaks {SPEC_VERSION})"
            )));
        }
        let device = DeviceKind::from_wire(json::get_str(obj, "device").map_err(bad)?)?;
        let kernel_obj = json::as_obj(json::get(obj, "kernel").map_err(bad)?).map_err(bad)?;
        let kernel = parse_kernel(kernel_obj).map_err(bad)?;
        let spec = JobSpec {
            device,
            scale: opt_usize(obj, "scale").map_err(bad)?.unwrap_or(1),
            kernel,
            injections: json::get_usize(obj, "injections").map_err(bad)?,
            seed: json::get_usize(obj, "seed").map_err(bad)? as u64,
            tolerance_pct: opt_f64(obj, "tolerance_pct").map_err(bad)?,
            workers: opt_usize(obj, "workers").map_err(bad)?.unwrap_or(0),
            deadline_ms: opt_usize(obj, "deadline_ms")
                .map_err(bad)?
                .map(|v| v as u64),
            priority: match opt_str(obj, "priority").map_err(bad)? {
                Some(name) => Priority::from_wire(name)?,
                None => Priority::Normal,
            },
            events_sample: opt_usize(obj, "events_sample")
                .map_err(bad)?
                .map_or(1, |v| v as u64),
            shard: opt_shard(obj).map_err(bad)?,
            trace: opt_trace(obj).map_err(bad)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Structural validation beyond JSON well-formedness.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for out-of-range values.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.scale == 0 {
            return Err(ServeError::Config("job spec: scale must be >= 1".into()));
        }
        if self.injections == 0 {
            return Err(ServeError::Config(
                "job spec: injections must be >= 1".into(),
            ));
        }
        if self.deadline_ms == Some(0) {
            return Err(ServeError::Config(
                "job spec: deadline_ms must be positive".into(),
            ));
        }
        if let Some(t) = self.tolerance_pct {
            if t.is_nan() || t < 0.0 {
                return Err(ServeError::Config(format!(
                    "job spec: tolerance_pct {t} is not a valid percentage"
                )));
            }
        }
        if let Some((start, end)) = self.shard {
            if start >= end || end > self.injections {
                return Err(ServeError::Config(format!(
                    "job spec: shard [{start},{end}) out of range for {} injections",
                    self.injections
                )));
            }
        }
        Ok(())
    }

    /// Builds the runnable [`Campaign`] — the single construction path
    /// shared by the daemon and the direct CLI, so both produce the
    /// same science for the same spec.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the device cannot be scaled or the
    /// tolerance is invalid.
    pub fn campaign(&self) -> Result<Campaign, ServeError> {
        self.validate()?;
        let device = match self.device {
            DeviceKind::K40 => DeviceConfig::kepler_k40(),
            DeviceKind::XeonPhi => DeviceConfig::xeon_phi_3120a(),
        };
        let device = if self.scale > 1 {
            device
                .scaled(self.scale)
                .map_err(|e| ServeError::Config(format!("cannot scale device: {e}")))?
        } else {
            device
        };
        let tolerance = match self.tolerance_pct {
            Some(pct) => ToleranceFilter::new(pct)
                .map_err(|e| ServeError::Config(format!("bad tolerance: {e}")))?,
            None => ToleranceFilter::paper_default(),
        };
        let mut campaign = Campaign::new(device, self.kernel, self.injections, self.seed)
            .with_tolerance(tolerance)
            .with_workers(self.workers);
        if let Some(ms) = self.deadline_ms {
            campaign = campaign.with_deadline(Duration::from_millis(ms));
        }
        Ok(campaign)
    }
}

/// An optional field: absent and `null` both read as `None`.
fn opt_usize(obj: &[(String, Json)], key: &str) -> Result<Option<usize>, String> {
    match json::get(obj, key) {
        Err(_) => Ok(None),
        Ok(Json::Null) => Ok(None),
        Ok(Json::Num(n)) => n
            .parse()
            .map(Some)
            .map_err(|_| format!("field {key:?} is not an integer")),
        Ok(_) => Err(format!("field {key:?} is not a number or null")),
    }
}

/// An optional float field: absent and `null` both read as `None`.
fn opt_f64(obj: &[(String, Json)], key: &str) -> Result<Option<f64>, String> {
    match json::get(obj, key) {
        Err(_) => Ok(None),
        Ok(Json::Null) => Ok(None),
        Ok(Json::Num(n)) => n
            .parse()
            .map(Some)
            .map_err(|_| format!("field {key:?} is not a float")),
        Ok(_) => Err(format!("field {key:?} is not a number or null")),
    }
}

/// The optional shard range: absent and `null` both read as `None`;
/// otherwise a two-element `[start, end]` array.
fn opt_shard(obj: &[(String, Json)]) -> Result<Option<(usize, usize)>, String> {
    match json::get(obj, "shard") {
        Err(_) => Ok(None),
        Ok(Json::Null) => Ok(None),
        Ok(Json::Arr(items)) => {
            let num = |v: &Json| -> Result<usize, String> {
                match v {
                    Json::Num(n) => n
                        .parse()
                        .map_err(|_| "shard bound is not an integer".to_owned()),
                    _ => Err("shard bound is not a number".into()),
                }
            };
            match items.as_slice() {
                [start, end] => Ok(Some((num(start)?, num(end)?))),
                _ => Err(format!(
                    "field \"shard\" must be a [start, end] pair, got {} elements",
                    items.len()
                )),
            }
        }
        Ok(_) => Err("field \"shard\" is not an array or null".into()),
    }
}

/// The optional trace context: absent and `null` both read as `None`;
/// otherwise an object with `campaign_id`, `shard` and `parent_span`.
fn opt_trace(obj: &[(String, Json)]) -> Result<Option<TraceContext>, String> {
    match json::get(obj, "trace") {
        Err(_) => Ok(None),
        Ok(Json::Null) => Ok(None),
        Ok(Json::Obj(fields)) => Ok(Some(TraceContext {
            campaign_id: json::get_str(fields, "campaign_id")?.to_owned(),
            shard: json::get_u64(fields, "shard")?,
            parent_span: json::get_u64(fields, "parent_span")?,
        })),
        Ok(_) => Err("field \"trace\" is not an object or null".into()),
    }
}

/// An optional string field: absent and `null` both read as `None`.
fn opt_str<'a>(obj: &'a [(String, Json)], key: &str) -> Result<Option<&'a str>, String> {
    match json::get(obj, key) {
        Err(_) => Ok(None),
        Ok(Json::Null) => Ok(None),
        Ok(Json::Str(s)) => Ok(Some(s)),
        Ok(_) => Err(format!("field {key:?} is not a string or null")),
    }
}

fn parse_kernel(obj: &[(String, Json)]) -> Result<KernelSpec, String> {
    match json::get_str(obj, "type")? {
        "dgemm" => Ok(KernelSpec::Dgemm {
            n: json::get_usize(obj, "n")?,
        }),
        "lavamd" => Ok(KernelSpec::LavaMd {
            grid: json::get_usize(obj, "grid")?,
            particles: json::get_usize(obj, "particles")?,
        }),
        "hotspot" => Ok(KernelSpec::HotSpot {
            rows: json::get_usize(obj, "rows")?,
            cols: json::get_usize(obj, "cols")?,
            iterations: json::get_usize(obj, "iterations")?,
        }),
        "clamr" => Ok(KernelSpec::Shallow {
            rows: json::get_usize(obj, "rows")?,
            cols: json::get_usize(obj, "cols")?,
            steps: json::get_usize(obj, "steps")?,
        }),
        "pathological" => Ok(KernelSpec::Pathological {
            n: json::get_usize(obj, "n")?,
            after: json::get_usize(obj, "after")?,
            mode: match json::get_str(obj, "mode")? {
                "Hang" | "hang" => Failure::Hang,
                "Panic" | "panic" => Failure::Panic,
                other => return Err(format!("unknown pathological mode {other:?}")),
            },
        }),
        other => Err(format!("unknown kernel type {other:?}")),
    }
}
