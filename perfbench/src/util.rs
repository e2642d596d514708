//! Small shared helpers: metrics, order statistics, timing, memory and
//! the run directory.

use std::path::PathBuf;
use std::time::Instant;

/// One reported metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run (measured or traced) of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (whole rounds only).
    pub attempted: u64,
    /// Operations that failed (a 429/5xx, a deadline, an error).
    pub failed: u64,
    /// Failed output checks; empty on a correct run.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its value with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Set-up measurements per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Each set-up measurement repeats the set-up until this many seconds
/// have passed, so a set-up of microseconds is timed as precisely as
/// one of a tenth of a second.
const SETUP_MEASURE_S: f64 = 0.05;

/// A measured run: the state its rounds used, each round's wall time
/// in seconds, and the median time of one set-up.
pub struct Measured<S> {
    pub state: S,
    pub walls: Vec<f64>,
    pub setup_s: f64,
}

impl<S> Measured<S> {
    /// Mean round wall: throughputs divide a round's work by it. The
    /// host's speed drifts in phases of seconds, and a mean over the
    /// whole run averages them where a median round would pick one.
    pub fn mean_round(&self) -> f64 {
        self.walls.iter().sum::<f64>() / self.walls.len() as f64
    }
}

/// Times the set-up `make` `SETUPS` times (the median is `setup_s`),
/// then runs whole rounds `round(&state, i)` for i = 0, 1, … on the
/// last state built until `seconds` have passed (always at least one
/// round). Each set-up measurement repeats `make` until
/// `SETUP_MEASURE_S` has passed; a state is dropped before the next is
/// built, so the peak resident set stays the workload's own.
pub fn measure_rounds<S>(
    seconds: f64,
    make: impl Fn() -> S,
    mut round: impl FnMut(&S, u64),
) -> Measured<S> {
    let mut built = None;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let mut n = 0u32;
        while n == 0 || secs(start) < SETUP_MEASURE_S {
            drop(built.take());
            built = Some(std::hint::black_box(make()));
            n += 1;
        }
        setups.push(secs(start) / f64::from(n));
    }
    let state = built.expect("at least one set-up");
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.is_empty() || secs(start) < seconds {
        let t = Instant::now();
        round(&state, walls.len() as u64);
        walls.push(secs(t));
    }
    Measured {
        state,
        walls,
        setup_s: median(&setups),
    }
}

/// `min / median / max` of round walls, for the run's notes.
pub fn describe_rounds(walls: &[f64]) -> String {
    let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let max = walls.iter().copied().fold(0.0, f64::max);
    format!(
        "{} rounds, round wall min/median/max {min:.3}/{:.3}/{max:.3} s",
        walls.len(),
        median(walls)
    )
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) by linear interpolation between
/// order statistics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The `p`-quantile of job latencies taken within each round (every
/// round runs the same jobs, `per_round` of them, in order), then the
/// median over rounds: a percentile that falls between two groups of
/// jobs does not follow the extreme of either group over the run.
pub fn round_percentile(latencies: &[f64], per_round: usize, p: f64) -> f64 {
    let per: Vec<f64> = latencies
        .chunks(per_round)
        .map(|round| percentile(round, p))
        .collect();
    median(&per)
}

/// The first and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method) computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let n = 4i64;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (v[(j - 1) as usize] * (n - delta) as f64 + v[j as usize] * delta as f64) / n as f64
    };
    (q(1), q(3))
}

/// The process's peak resident set (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Engine threads of the measured campaign and sweep runs. One thread:
/// a second one makes every round wait for whatever else runs on the
/// host's other CPU — on a 2-vCPU Xeon host two threads have run at
/// 0.74× one (README). The thread speed-up is reported per layer by
/// the traced run instead.
pub const ENGINE_THREADS: usize = 1;

/// Threads of the parallel probes and the service pools: two, never
/// more than the machine's hardware threads.
pub fn parallel_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// The directory runs write scratch state (service directories, span
/// files) into: `perfbench-runs/` beside the build's `release/`
/// directory, i.e. inside the cargo target directory of the checkout.
pub fn run_dir() -> PathBuf {
    let base = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent()?.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    base.join("perfbench-runs")
}

/// A fresh, empty directory under [`run_dir`] unique to this process.
pub fn fresh_dir(tag: &str) -> std::io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = run_dir().join(format!("{tag}-{}-{k}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 0.9), 9.0);
    }
}
