//! The four workloads, their sizes, and the one function every run —
//! full size or the smoke test's reduced one, untraced or traced — goes
//! through.

use std::path::PathBuf;

use crate::campaign::{self, CampaignSize};
use crate::report::{Metric, Report};
use crate::serve::{self, ServeSize};
use crate::spans::Spans;
use crate::sut::KernelSpec;

/// The seed the committed digests were taken at.
pub const DEFAULT_SEED: u64 = 2017;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DgemmMem,
    LavamdFma,
    HotspotPersist,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DgemmMem,
        Workload::LavamdFma,
        Workload::HotspotPersist,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DgemmMem => "dgemm-mem",
            Workload::LavamdFma => "lavamd-fma",
            Workload::HotspotPersist => "hotspot-persist",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's request.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the traced pass too and report the per-layer metrics.
    pub traced: bool,
    /// Where work files go while the run lasts, and the trace after.
    pub out: PathBuf,
}

/// Repetition counts shared by the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Common {
    /// Cold preparations behind `setup_s`.
    pub setup_reps: usize,
    /// Shards a campaign run measures at least.
    pub min_shards: usize,
    /// One-injection runs a campaign run measures at least (a p95 with
    /// ten samples beyond it needs 200).
    pub min_probes: usize,
    /// `/healthz` probes per daemon start.
    pub clock_probes: usize,
}

/// Every workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub common: Common,
    pub dgemm_mem: CampaignSize,
    pub lavamd_fma: CampaignSize,
    pub hotspot_persist: CampaignSize,
    pub serve_mix: ServeSize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Sizes {
        Sizes {
            common: Common {
                setup_reps: 11,
                min_shards: 3,
                min_probes: 200,
                clock_probes: 20,
            },
            dgemm_mem: CampaignSize {
                kernel: KernelSpec::Dgemm { n: 256 },
                shard: 200,
                probes_per_shard: 30,
                persist: false,
                digest: Some(0xba57_f448_d882_0078),
            },
            lavamd_fma: CampaignSize {
                kernel: KernelSpec::LavaMd {
                    grid: 5,
                    particles: 8,
                },
                shard: 500,
                probes_per_shard: 60,
                persist: false,
                digest: Some(0xfec6_8788_da09_cd4d),
            },
            hotspot_persist: CampaignSize {
                kernel: KernelSpec::HotSpot {
                    rows: 64,
                    cols: 64,
                    iterations: 8,
                },
                shard: 4000,
                probes_per_shard: 10,
                persist: true,
                digest: Some(0x78c8_93f9_cdcb_9199),
            },
            serve_mix: ServeSize {
                hotspot: KernelSpec::HotSpot {
                    rows: 64,
                    cols: 64,
                    iterations: 8,
                },
                hotspot_injections: 50,
                dgemm: KernelSpec::Dgemm { n: 64 },
                dgemm_injections: 25,
                min_jobs: 200,
                digest: Some(0x8289_9449_0197_08b7),
            },
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub report: Report,
    /// The traced pass's spans.
    pub spans: Option<Spans>,
}

/// Runs one workload: measures, checks, and (traced) attributes.
pub fn run(args: &Args, sizes: &Sizes) -> Outcome {
    let mut report = Report::default();
    let work = args.out.join(format!(
        "work-{}-{}",
        std::process::id(),
        args.workload.name()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let made = std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()));
    let spans = report.op("work directory", made).and_then(|()| {
        let common = &sizes.common;
        let w = &mut report;
        match args.workload {
            Workload::DgemmMem => campaign::run(&sizes.dgemm_mem, common, args, &work, w),
            Workload::LavamdFma => campaign::run(&sizes.lavamd_fma, common, args, &work, w),
            Workload::HotspotPersist => {
                campaign::run(&sizes.hotspot_persist, common, args, &work, w)
            }
            Workload::ServeMix => serve::run(&sizes.serve_mix, common, args, &work, w),
        }
    });
    let _ = std::fs::remove_dir_all(&work);
    if let Some(mib) = report.op("peak RSS", peak_rss_mib()) {
        report.set("peak_rss_mib", Metric::single(mib));
    }
    report.require(false);
    if args.traced {
        report.require(true);
    }
    Outcome { report, spans }
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    /// About 1/50 of the benchmark: small kernels, few injections and
    /// jobs, no measured window.
    fn smoke() -> Sizes {
        let full = Sizes::full();
        let hotspot = KernelSpec::HotSpot {
            rows: 16,
            cols: 16,
            iterations: 2,
        };
        Sizes {
            common: Common {
                setup_reps: 2,
                min_shards: 2,
                min_probes: 4,
                clock_probes: 4,
            },
            dgemm_mem: CampaignSize {
                kernel: KernelSpec::Dgemm { n: 32 },
                shard: 6,
                probes_per_shard: 2,
                digest: Some(0x9a27_7543_7b06_629f),
                ..full.dgemm_mem
            },
            lavamd_fma: CampaignSize {
                kernel: KernelSpec::LavaMd {
                    grid: 2,
                    particles: 4,
                },
                shard: 20,
                probes_per_shard: 2,
                digest: Some(0x01e2_e011_47cc_daea),
                ..full.lavamd_fma
            },
            hotspot_persist: CampaignSize {
                kernel: hotspot,
                shard: 80,
                probes_per_shard: 2,
                digest: Some(0x5e7e_1c94_0818_b968),
                ..full.hotspot_persist
            },
            serve_mix: ServeSize {
                hotspot,
                hotspot_injections: 4,
                dgemm: KernelSpec::Dgemm { n: 16 },
                dgemm_injections: 2,
                min_jobs: 10,
                digest: Some(0x3d97_5a7d_4cf3_23ed),
            },
        }
    }

    #[test]
    fn every_workload_runs_untraced_and_traced_at_smoke_size() {
        let out = std::env::temp_dir().join(format!("radbench-smoke-{}", std::process::id()));
        let sizes = smoke();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let args = Args {
                    workload,
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    traced,
                    out: out.clone(),
                };
                let outcome = run(&args, &sizes);
                let r = &outcome.report;
                assert!(
                    r.failures.is_empty(),
                    "{}: {:?}",
                    workload.name(),
                    r.failures
                );
                assert!(r.attempted > 0);
                let names = if traced {
                    &PER_LAYER[..]
                } else {
                    &END_TO_END[..]
                };
                for d in names {
                    assert!(
                        r.get(d.name).is_some(),
                        "{} lacks {}",
                        workload.name(),
                        d.name
                    );
                }
                assert_eq!(outcome.spans.is_some(), traced);
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
    }
}
