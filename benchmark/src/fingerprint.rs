//! What a result was measured on: code revision, machine, toolchain,
//! and a fixed spin loop timed around each workload so that a machine
//! phase shift shows in the file instead of passing for a regression.

use crate::data::nproc;
use crate::json::Json;
use std::process::Command;
use std::time::Instant;

/// First line of `program args…`'s output, if it ran and succeeded.
fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| {
            String::from_utf8_lossy(&output.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .flatten()
}

/// Nanoseconds a fixed xorshift loop takes on one core right now.
pub fn calibration_ns() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64
}

pub fn fingerprint(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    // A checkout without `.git` (the driver's) has no revision to name.
    let rev = first_line("git", &["rev-parse", "--short", "HEAD"]);
    let dirty = rev.is_some()
        && Command::new("git")
            .args(["status", "--porcelain"])
            .output()
            .is_ok_and(|o| !o.stdout.is_empty());
    Json::obj([
        ("git_rev", Json::Str(rev.unwrap_or_else(unknown))),
        ("git_dirty", Json::Bool(dirty)),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_features",
            Json::Arr(
                pprl_similarity::kernel::cpu_features()
                    .into_iter()
                    .map(Json::str)
                    .collect(),
            ),
        ),
        (
            "scan_kernel",
            Json::str(pprl_similarity::kernel::kernel_name()),
        ),
        (
            "rustc",
            Json::Str(first_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
    ])
}
