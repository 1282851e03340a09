//! Host fingerprint and process memory high-water mark.

use std::fmt::Write as _;

/// Where a result was measured, as a JSON object: hardware threads,
/// architecture, CPU model and the compiler that built the benchmark.
pub fn fingerprint_json() -> String {
    format!(
        "{{\"nproc\": {}, \"arch\": {}, \"cpu\": {}, \"rustc\": {}}}",
        nproc(),
        quote(std::env::consts::ARCH),
        quote(&cpu_model()),
        quote(env!("PERFBENCH_RUSTC_VERSION"))
    )
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The CPU model as the kernel names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this program image so far, in MiB: the
/// kernel's `VmHWM`. (`getrusage` would also count the memory of a
/// parent such as `cargo run`, which the kernel folds in across
/// `exec`.) `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
