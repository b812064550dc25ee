//! Records which compiler and profile built the benchmark, for the
//! `host` block of every document.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    println!("cargo:rustc-env=PERF_RUSTC_VERSION={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_owned());
    println!("cargo:rustc-env=PERF_CARGO_PROFILE={profile} (opt-level {opt})");
    println!("cargo:rerun-if-changed=build.rs");
}
