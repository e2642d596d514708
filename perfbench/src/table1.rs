//! `table1-campaign`: the paper's Table I — all 69 16-bit designs
//! through `MonteCarlo` at a fixed per-design sample count and thread
//! count, plus one `Reporter::paper_setup` area/power report each.

use realm_core::multiplier::MultiplierExt;
use realm_metrics::montecarlo::DEFAULT_CHUNK;
use realm_metrics::{ErrorSummary, MonteCarlo, Threads};
use realm_synth::designs::{table1_pairs, DesignPair};
use realm_synth::{Reporter, SynthesisReport};

use crate::reference::{self, mean_error_se, summary_properties};
use crate::util::{describe_rounds, measure_rounds, round_percentile, timed, Outcome};

/// Monte-Carlo operand pairs per design and round.
pub const SAMPLES: u64 = 1 << 20;
/// Power-simulation cycles per netlist (the `table1` bench binary's default).
pub const CYCLES: u32 = 2000;

/// Whether a Table I design multiplies through an AVX2 kernel (REALM,
/// cALM, DRUM); every other row runs a scalar-only batch loop.
pub fn has_simd_kernel(label: &str) -> bool {
    label.starts_with("REALM") || label.starts_with("cALM") || label.starts_with("DRUM")
}

/// Everything a round needs: the design pairs and the calibrated
/// reporter.
pub struct Setup {
    pub pairs: Vec<DesignPair>,
    pub reporter: Reporter,
}

pub fn setup(seed: u64) -> Setup {
    Setup {
        pairs: table1_pairs(),
        reporter: Reporter::paper_setup(CYCLES, seed),
    }
}

/// One Table I row as the program computes it.
pub type Row = (ErrorSummary, SynthesisReport);

/// Runs one design row; the unit of work ("job") of this workload.
pub fn row(campaign: &MonteCarlo, setup: &Setup, i: usize) -> Row {
    let pair = &setup.pairs[i];
    (
        campaign.characterize(pair.model.as_ref()),
        setup.reporter.report(&pair.netlist),
    )
}

pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let campaign = MonteCarlo::new(SAMPLES, seed).with_threads(Threads::Fixed(threads));
    let mut first: Vec<Row> = Vec::new();
    let mut latencies = Vec::new();
    let run = measure_rounds(
        seconds,
        || setup(seed),
        |setup, round| {
            for i in 0..setup.pairs.len() {
                let (r, t) = timed(|| row(&campaign, setup, i));
                latencies.push(t * 1e3);
                if round == 0 {
                    first.push(r);
                } else if r != first[i] {
                    out.problems.push(format!(
                        "{}: round {round} differs from round 0 at the same seed",
                        setup.pairs[i].model.label()
                    ));
                }
            }
        },
    );
    let (setup, round_wall) = (&run.state, run.mean_round());
    let designs = setup.pairs.len() as u64;
    out.attempted = run.walls.len() as u64 * designs;
    out.metric("setup_s", run.setup_s, "s");
    out.metric(
        "samples_per_s",
        (designs * SAMPLES) as f64 / round_wall,
        "1/s",
    );
    out.metric("jobs_per_s", designs as f64 / round_wall, "1/s");
    let n = designs as usize;
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
        "table1-campaign: {} of {designs} designs x {SAMPLES} samples \
         ({threads} engine threads, {CYCLES} power cycles)",
        describe_rounds(&run.walls)
    ));
    check(&mut out, setup, seed, &first);
    out
}

/// The output checks of one round's rows.
pub fn check(out: &mut Outcome, setup: &Setup, seed: u64, rows: &[Row]) {
    out.check(rows.len() == 69, || {
        format!("expected 69 Table I rows, got {}", rows.len())
    });
    // One-chunk campaigns against the scalar reference, per design.
    let one_chunk = MonteCarlo::new(DEFAULT_CHUNK, seed).with_threads(Threads::Fixed(1));
    for pair in &setup.pairs {
        let label = pair.model.label();
        let got = one_chunk.characterize(pair.model.as_ref());
        let want = reference::monte_carlo_chunk0(pair.model.as_ref(), seed, DEFAULT_CHUNK);
        if let Err(e) = reference::compare(&label, &got, &want) {
            out.problems.push(e);
        }
    }
    for (pair, (s, report)) in setup.pairs.iter().zip(rows) {
        let label = pair.model.label();
        if let Err(e) = summary_properties(&label, s) {
            out.problems.push(e);
        }
        out.check(
            report.area_um2.is_finite() && report.area_um2 > 0.0 && report.power_uw.is_finite(),
            || format!("{label}: synthesis report is not finite and positive: {report:?}"),
        );
    }
    // Paper Table I values. Table I prints two decimals (±0.005 %);
    // on top of that a mean may differ by 6 standard errors and a
    // sampled peak by 1/sqrt(n) (it approaches the supremum from below
    // as n grows).
    let find = |label: &str| {
        setup
            .pairs
            .iter()
            .position(|p| p.model.label() == label)
            .map(|i| rows[i].0)
    };
    let rounding = 0.00005;
    let mut paper = |label: &str, field: &str, got: f64, want: f64, tol: f64| {
        out.note(format!(
            "  paper check {label} {field}: {:.4}% (paper {:.2}%, tolerance {:.4}%)",
            got * 100.0,
            want * 100.0,
            tol * 100.0
        ));
        out.check((got - want).abs() <= tol, || {
            format!("{label} {field} {got:e} is outside {want} +- {tol:e}")
        });
    };
    match (find("REALM16 (t=0)"), find("cALM")) {
        (Some(realm), Some(calm)) => {
            let peak_tol = rounding + 1.0 / (realm.samples as f64).sqrt();
            paper(
                "REALM16 (t=0)",
                "mean",
                realm.mean_error,
                0.0042,
                rounding + 6.0 * mean_error_se(&realm),
            );
            paper(
                "REALM16 (t=0)",
                "peak",
                realm.peak_error(),
                0.0208,
                peak_tol,
            );
            let se_bias = (calm.variance / calm.samples as f64).sqrt();
            paper("cALM", "bias", calm.bias, -0.0385, rounding + 6.0 * se_bias);
        }
        _ => out
            .problems
            .push("Table I lacks the REALM16 (t=0) or cALM row".into()),
    }
}
