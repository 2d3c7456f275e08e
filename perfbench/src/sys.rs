//! Process and build facts: peak resident memory and the environment
//! fingerprint every result carries.

use crate::json::J;
use std::process::Command;

/// Peak resident set (`VmHWM`) in kB from the text of
/// `/proc/<pid>/status`; `None` when the line is missing or malformed.
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's stdout, or `"unknown"` when it cannot run.
/// The child is always waited for.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a result was measured in. Workload-specific facts
/// (cluster shape, seeds, offered rates) are appended by the caller.
pub fn fingerprint() -> Vec<(String, J)> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    // Ask git only inside a git checkout of this repository, so git
    // never walks up into an enclosing one.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git_rev = if std::path::Path::new(root).join(".git").exists() {
        command_line("git", &["-C", root, "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("nproc".into(), J::Int(nproc() as u64)),
        ("rustc".into(), J::Str(command_line("rustc", &["-V"]))),
        ("profile".into(), J::Str(profile.into())),
        ("git_rev".into(), J::Str(git_rev)),
    ]
}
