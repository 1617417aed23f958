//! Fixtures shared by the service integration suites: a scratch data
//! directory, a loopback daemon config and a small DGEMM spec.

// Each suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use radcrit_campaign::KernelSpec;
use radcrit_serve::daemon::DaemonConfig;
use radcrit_serve::{DeviceKind, JobSpec};

/// A fresh, empty scratch directory for `tag` under the system temp dir.
pub fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("radcrit-serve-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

/// A daemon on an ephemeral loopback port with `pool` job workers.
pub fn config(dir: &Path, pool: usize) -> DaemonConfig {
    DaemonConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: dir.to_path_buf(),
        pool,
        queue_depth: 16,
        ..DaemonConfig::default()
    }
}

/// A small DGEMM campaign on the scaled K40 (the sweep-test idiom).
pub fn dgemm_spec(n: usize, injections: usize, seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(DeviceKind::K40, KernelSpec::Dgemm { n }, injections, seed);
    spec.scale = 8;
    spec.workers = 2;
    spec
}
