//! Run fingerprints: which host and which commit produced a measurement.
//!
//! radbench prints both with every result, so a number read later can be
//! compared like for like (same host, same commit) or not at all.

/// The host fingerprint: `$HOSTNAME`, else `/etc/hostname`, else
/// `unknown`. Never fails — a result with an unknown host is better
/// than no result.
pub fn host_fingerprint() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.trim().is_empty() {
            return h.trim().to_owned();
        }
    }
    if let Ok(h) = std::fs::read_to_string("/etc/hostname") {
        if !h.trim().is_empty() {
            return h.trim().to_owned();
        }
    }
    "unknown".to_owned()
}

/// The commit fingerprint: `git rev-parse --short HEAD` in the current
/// directory, else `unknown`.
pub fn commit_fingerprint() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_are_nonempty() {
        assert!(!host_fingerprint().is_empty());
        assert!(!commit_fingerprint().is_empty());
    }
}
