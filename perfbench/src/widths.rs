//! `width-sweep`: REALM (M = 8, t = 0), scaleTRIM (t = 6, c = 1) and
//! ILM (2 iterations) at N ∈ {8, 12, 16, 24, 32, 64} — exhaustive at
//! N ≤ 12, Monte-Carlo above. The N = 64 rows score through the
//! per-pair `u128` `multiply_wide` path.

use realm_baselines::{Ilm, ScaleTrim};
use realm_core::multiplier::MultiplierExt;
use realm_core::{Multiplier, Realm, RealmConfig};
use realm_metrics::{characterize_range_threaded, ErrorSummary, MonteCarlo, Threads};

use crate::reference;
use crate::reference::{mean_error_se, summary_properties};
use crate::util::{describe_rounds, measure_rounds, round_percentile, timed, Outcome};

pub const WIDTHS: [u32; 6] = [8, 12, 16, 24, 32, 64];
/// Widths swept exhaustively over `1..=2^N − 1` squared.
pub const EXHAUSTIVE_MAX_WIDTH: u32 = 12;
/// Monte-Carlo operand pairs per row above the exhaustive widths.
pub const SAMPLES: u64 = 1 << 19;

/// One row of the sweep: a design at a width.
pub struct Row {
    pub width: u32,
    pub design: Box<dyn Multiplier>,
}

impl Row {
    pub fn exhaustive(&self) -> bool {
        self.width <= EXHAUSTIVE_MAX_WIDTH
    }

    /// Operand pairs the row scores (zero products included).
    pub fn pairs(&self) -> u64 {
        if self.exhaustive() {
            self.design.max_operand() * self.design.max_operand()
        } else {
            SAMPLES
        }
    }
}

/// The three designs at every width, width-major.
pub fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for width in WIDTHS {
        let designs: [Box<dyn Multiplier>; 3] = [
            Box::new(Realm::new(RealmConfig::new(width, 8, 0, 6)).expect("valid REALM width")),
            Box::new(ScaleTrim::new(width, 6, true).expect("valid scaleTRIM width")),
            Box::new(Ilm::new(width, 2).expect("valid ILM width")),
        ];
        rows.extend(designs.into_iter().map(|design| Row { width, design }));
    }
    rows
}

/// Runs one row at `threads` engine threads.
pub fn run_row(row: &Row, seed: u64, threads: usize) -> ErrorSummary {
    let threads = Threads::Fixed(threads);
    if row.exhaustive() {
        let max = row.design.max_operand();
        characterize_range_threaded(row.design.as_ref(), 1..=max, 1..=max, threads)
    } else {
        MonteCarlo::new(SAMPLES, seed)
            .with_threads(threads)
            .characterize(row.design.as_ref())
    }
}

pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut first: Vec<ErrorSummary> = Vec::new();
    let mut latencies = Vec::new();
    let run = measure_rounds(seconds, rows, |rows, round| {
        for (i, row) in rows.iter().enumerate() {
            let (s, t) = timed(|| run_row(row, seed, threads));
            latencies.push(t * 1e3);
            if round == 0 {
                first.push(s);
            } else if s != first[i] {
                out.problems.push(format!(
                    "{} @{}: round {round} differs from round 0",
                    row.design.label(),
                    row.width
                ));
            }
        }
    });
    let (rows, round_wall) = (&run.state, run.mean_round());
    let pairs: u64 = rows.iter().map(Row::pairs).sum();
    let jobs = rows.len() as u64;
    out.attempted = run.walls.len() as u64 * jobs;
    out.metric("setup_s", run.setup_s, "s");
    out.metric("samples_per_s", pairs as f64 / round_wall, "1/s");
    out.metric("jobs_per_s", jobs as f64 / round_wall, "1/s");
    let n = rows.len();
    out.metric(
        "job_latency_p50_ms",
        round_percentile(&latencies, n, 0.5),
        "ms",
    );
    out.metric(
        "job_latency_p90_ms",
        round_percentile(&latencies, n, 0.9),
        "ms",
    );
    out.note(format!(
        "width-sweep: {} of {jobs} rows ({pairs} pairs per round, {threads} engine threads)",
        describe_rounds(&run.walls)
    ));
    check(&mut out, rows, &first);
    out
}

/// Width-sweep checks: the N = 8 rows equal the reference
/// enumeration, every summary is well-formed, and each design's mean
/// error agrees across the Monte-Carlo widths (N ≥ 16) within 4
/// combined standard errors plus one unit in the last fraction bit of
/// the narrower datapath: the fraction-domain error does not depend on
/// N beyond that quantization (scaleTRIM at N = 16 sits ~2.5 standard
/// errors of 2^19 samples above its wider rows).
pub fn check(out: &mut Outcome, rows: &[Row], results: &[ErrorSummary]) {
    for (row, s) in rows.iter().zip(results) {
        let what = format!("{} @{}", row.design.label(), row.width);
        if let Err(e) = summary_properties(&what, s) {
            out.problems.push(e);
        }
        if row.width == 8 {
            let max = row.design.max_operand();
            let want = reference::exhaustive(row.design.as_ref(), (1, max), (1, max));
            if let Err(e) = reference::compare(&what, s, &want) {
                out.problems.push(e);
            }
        }
    }
    for design in 0..3 {
        let mc: Vec<(&Row, &ErrorSummary)> = rows
            .iter()
            .zip(results)
            .skip(design)
            .step_by(3)
            .filter(|(r, _)| r.width >= 16)
            .collect();
        for (i, (ra, a)) in mc.iter().enumerate() {
            for (rb, b) in &mc[i + 1..] {
                let se = mean_error_se(a).hypot(mean_error_se(b));
                // The narrower datapath keeps N − 1 fraction bits, so
                // its error may differ by up to one unit there.
                let ulp = (-(ra.width.min(rb.width) as f64 - 1.0)).exp2();
                let diff = (a.mean_error - b.mean_error).abs();
                out.check(diff <= 4.0 * se + ulp, || {
                    format!(
                        "{}: mean error at N={} ({:e}) and N={} ({:e}) differ by {diff:e}, \
                         more than 4 standard errors ({se:e} each) plus 2^-{}",
                        ra.design.label(),
                        ra.width,
                        a.mean_error,
                        rb.width,
                        b.mean_error,
                        ra.width.min(rb.width) - 1
                    )
                });
            }
        }
    }
}
