//! The run record printed with every result: host, kernel tier, commit,
//! seeds and thread counts — what a figure needs to be compared with
//! another.

use std::path::Path;

/// Host CPU model as `/proc/cpuinfo` names it.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` when the benchmark runs from an exported tree.
fn git_commit() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Renders the record as one JSON object. `extra` carries the
/// workload's own seeds and thread counts as `(key, rendered JSON)`.
pub fn render(workload: &str, seed: u64, trace: bool, extra: &[(&str, String)]) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let force_scalar = std::env::var(realm_simd::FORCE_SCALAR_ENV).ok();
    let mut members = vec![
        ("workload", realm_obs::json_string(workload)),
        ("seed", seed.to_string()),
        ("traced", trace.to_string()),
        ("cpu", realm_obs::json_string(&cpu_model())),
        ("nproc", nproc.to_string()),
        (
            "kernel_tier",
            realm_obs::json_string(realm_simd::active_tier().name()),
        ),
        (
            "force_scalar",
            force_scalar.map_or("null".into(), |v| realm_obs::json_string(&v)),
        ),
        ("commit", realm_obs::json_string(&git_commit())),
    ];
    members.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    realm_obs::json::object(&members)
}
