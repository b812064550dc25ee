//! The machine and build a document was measured on.

use std::process::Command;

use crate::json::Json;

/// Cores the OS offers this process; 0 when it will not say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// `git rev-parse HEAD` of the checkout the benchmark was built from,
/// or `unknown` (the driver's checkouts are not git repositories).
fn git_commit() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn host_block() -> Json {
    Json::obj([
        ("available_parallelism", Json::from(available_parallelism())),
        ("rustc", Json::str(env!("PERF_RUSTC_VERSION"))),
        ("cargo_profile", Json::str(env!("PERF_CARGO_PROFILE"))),
        ("git_commit", Json::str(git_commit())),
    ])
}

/// `VmHWM` of this process: the most resident memory it has held.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}
