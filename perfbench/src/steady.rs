//! The steadiness command: runs each workload N times with distinct
//! seeds (each run its own process, as the benchmark is run), then
//! prints every metric's median and quartiles and flags each metric
//! whose spread — the interquartile distance as a share of the median
//! — exceeds its bound in `BENCHMARK.json` (or a third of it, the
//! margin the bounds are set with).
//!
//! ```text
//! perfbench steady --runs 10 --seconds 10 --workloads table1-campaign,dnn-sweep
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use realm_obs::Json;

use crate::util::{median, quartiles};
use crate::WORKLOADS;

struct Options {
    runs: u64,
    seconds: String,
    workloads: Vec<String>,
    seed_base: u64,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 10,
        seconds: "10".into(),
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed_base: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--runs" => o.runs = value.parse().map_err(|_| "--runs takes a count")?,
            "--seconds" => o.seconds = value.clone(),
            "--workloads" => o.workloads = value.split(',').map(str::to_string).collect(),
            "--seed-base" => o.seed_base = value.parse().map_err(|_| "--seed-base takes a u64")?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if o.runs < 2 {
        return Err("--runs needs at least 2 for quartiles".into());
    }
    if let Some(w) = o
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {w}"));
    }
    Ok(o)
}

/// The end-to-end bounds declared in `BENCHMARK.json` (read from the
/// working directory, the repository root).
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// One run's parsed result line.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_once(workload: &str, seed: u64, seconds: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc =
        Json::parse(last).map_err(|e| format!("{workload} seed {seed}: bad result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    for name in metric_names(&doc) {
        if let Some(v) = doc
            .get("metrics")
            .and_then(|m| m.get(&name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
        {
            metrics.insert(name, v);
        }
    }
    Ok(RunResult {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true)
            && output.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// The metric names of a result line, in the order printed.
fn metric_names(doc: &Json) -> Vec<String> {
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    }
}

pub fn main(args: &[String]) -> i32 {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let bounds = bounds();
    let mut results: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    let mut healthy = true;
    // Seed-major order, so slow drift on the host touches every
    // workload alike.
    for i in 0..o.runs {
        let seed = o.seed_base + i;
        for w in &o.workloads {
            match run_once(w, seed, &o.seconds) {
                Ok(r) => {
                    eprintln!(
                        "{w} seed {seed}: correct={} attempted={} failed={}",
                        r.correct, r.attempted, r.failed
                    );
                    healthy &= r.correct;
                    results.entry(w.as_str()).or_default().push(r);
                }
                Err(e) => {
                    eprintln!("{e}");
                    healthy = false;
                }
            }
        }
    }
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>14} {:>8} {:>7}  flag",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (w, runs) in &results {
        let names: Vec<&String> = runs
            .first()
            .map(|r| r.metrics.keys().collect())
            .unwrap_or_default();
        for name in names {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            let m = median(&values);
            let (q1, q3) = quartiles(&values);
            let spread = (q3 - q1) / m.abs();
            let bound = bounds.get(name.as_str()).copied();
            let flag = match bound {
                Some(b) if name != "setup_s" && spread > b => {
                    healthy = false;
                    "OVER BOUND"
                }
                Some(b) if spread > b / 3.0 => "over bound/3",
                _ => "",
            };
            println!(
                "{w:<18} {name:<28} {m:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}% {:>7}  {flag}",
                spread * 100.0,
                bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0))
            );
        }
        let shares: Vec<(u64, u64)> = runs.iter().map(|r| (r.failed, r.attempted)).collect();
        let same_share = shares
            .windows(2)
            .all(|p| p[0].0 as u128 * p[1].1 as u128 == p[1].0 as u128 * p[0].1 as u128);
        if !same_share {
            healthy = false;
        }
        println!(
            "{w:<18} failed/attempted per run: {shares:?}{}",
            if same_share { "" } else { "  SHARE DIFFERS" }
        );
    }
    if healthy {
        0
    } else {
        1
    }
}
