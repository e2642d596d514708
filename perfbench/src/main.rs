//! The REALM workspace benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--runs N] [--seconds S] [--workloads a,b] [--seed-base B]
//! ```
//!
//! A measured run (`--trace 0`) sets the workload up several times,
//! then runs whole rounds of it for `--seconds`, checks every output
//! against an independent computation and prints the end-to-end
//! metrics. A traced run (`--trace 1`) times the calls into each
//! layer's public functions, writes the spans out and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `README.md` beside this file.

mod dnn;
mod probes;
mod record;
mod reference;
mod serve;
mod steady;
mod table1;
mod trace;
mod util;
mod widths;

use util::{parallel_threads, Outcome, ENGINE_THREADS};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "table1-campaign",
    "width-sweep",
    "dnn-sweep",
    "serve-closed-loop",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench steady [--runs N] [--seconds S] [--workloads a,b] [--seed-base B]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace,
    }
}

/// Workload-specific entries of the run record: seeds and thread
/// counts.
fn record_extra(workload: &str, seed: u64, trace: bool) -> Vec<(&'static str, String)> {
    let threads = parallel_threads();
    let mut extra = vec![("engine_threads", ENGINE_THREADS.to_string())];
    if trace {
        extra.push(("parallel_probe_threads", threads.to_string()));
    }
    match workload {
        "table1-campaign" => {
            extra.push(("campaign_seed", seed.to_string()));
            extra.push(("samples_per_design", table1::SAMPLES.to_string()));
            extra.push(("power_cycles", table1::CYCLES.to_string()));
        }
        "width-sweep" => {
            extra.push(("campaign_seed", seed.to_string()));
            extra.push(("samples_per_row", widths::SAMPLES.to_string()));
        }
        "dnn-sweep" => {
            extra.push(("eval_seed", seed.to_string()));
            extra.push(("eval_images", dnn::EVAL_N.to_string()));
        }
        _ => {
            extra.push(("job_mix_seed", seed.to_string()));
            extra.push(("clients", serve::CLIENTS.to_string()));
            extra.push(("serve_workers", threads.to_string()));
            extra.push(("serve_acceptors", threads.to_string()));
            extra.push(("job_chunk_threads", "1".into()));
        }
    }
    extra
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|m| {
            // Non-finite values are not JSON; a missing measurement
            // prints null and the run is not correct.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            (
                m.name,
                realm_obs::json::object(&[
                    ("value", value),
                    ("unit", realm_obs::json_string(m.unit)),
                ]),
            )
        })
        .collect();
    realm_obs::json::object(&[
        ("correct", outcome.problems.is_empty().to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        ("metrics", realm_obs::json::object(&metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        std::process::exit(steady::main(&args[1..]));
    }
    let args = parse_args(&args);
    let threads = parallel_threads();
    let seconds = args.seconds;
    println!(
        "record: {}",
        record::render(
            &args.workload,
            args.seed,
            args.trace,
            &record_extra(&args.workload, args.seed, args.trace)
        )
    );

    let mut outcome = if args.trace {
        probes::traced_run(&args.workload, args.seed, threads)
    } else {
        let mut outcome = match args.workload.as_str() {
            "table1-campaign" => table1::measure(args.seed, seconds, ENGINE_THREADS),
            "width-sweep" => widths::measure(args.seed, seconds, ENGINE_THREADS),
            "dnn-sweep" => dnn::measure(args.seed, seconds, ENGINE_THREADS),
            _ => serve::measure(args.seed, seconds, threads),
        };
        outcome.metric(
            "peak_rss_mib",
            util::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        );
        outcome
    };
    // Every metric is a finite number; end-to-end ones are never 0.
    for m in &outcome.metrics {
        if !m.value.is_finite() || (!args.trace && m.value == 0.0) {
            outcome
                .problems
                .push(format!("metric {} is {}", m.name, m.value));
        }
    }
    if outcome.attempted == 0 {
        outcome.problems.push("no operation was attempted".into());
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    let _ = std::fs::remove_dir(util::run_dir());
    println!("{}", result_line(&outcome));
    if !outcome.problems.is_empty() {
        std::process::exit(1);
    }
}
