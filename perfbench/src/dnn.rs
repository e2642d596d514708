//! `dnn-sweep`: the `DnnSweep` workload over the `dnn` bench binary's 16
//! per-layer configurations (11 uniform, 5 mixed) on `tiny_net()` with
//! a fixed-size evaluation set, on the supervised engine path the
//! binary uses.

use std::sync::{Arc, Mutex};

use realm_core::rng::SplitMix64;
use realm_core::Multiplier;
use realm_dsp::{orientation_dataset, tiny_net, QuantNet};
use realm_metrics::dnn::{parse_layer_bindings, DnnConfig, DnnPoint, DnnSweep};
use realm_metrics::{parse_design, Engine, Supervisor, Threads};
use realm_obs::{Collector, Event};

use crate::reference;
use crate::util::{describe_rounds, measure_rounds, round_percentile, Outcome};

/// Evaluation images per configuration.
pub const EVAL_N: usize = 512;
/// Images per configuration whose logits are compared bit for bit.
const LOGIT_SAMPLE: usize = 32;

/// The `dnn` bench binary's slate: uniform bindings, then mixed ones that
/// spend the error budget on the convolution and protect the head.
const UNIFORM: [&str; 11] = [
    "accurate",
    "realm:m=16,t=0",
    "realm:m=16,t=3",
    "realm:m=8,t=3",
    "realm:m=8,t=6",
    "realm:m=4,t=9",
    "calm",
    "drum:k=6",
    "mbm:t=0",
    "scaletrim:t=6,c=1",
    "ilm:i=2",
];
const MIXED: [&str; 5] = [
    "conv1=realm:m=8,t=3,dense1=realm:m=16,t=0",
    "conv1=realm:m=4,t=9,dense1=realm:m=16,t=0",
    "conv1=realm:m=8,t=6,dense1=realm:m=16,t=3",
    "conv1=drum:k=6,dense1=realm:m=16,t=0",
    "conv1=scaletrim:t=6,c=1,dense1=realm:m=16,t=0",
];

pub fn configs(net: &QuantNet) -> Vec<DnnConfig> {
    let mac_layers = net.mac_layers();
    let mut configs: Vec<DnnConfig> = UNIFORM
        .iter()
        .map(|d| DnnConfig::uniform(d, mac_layers.len()).expect("valid slate design"))
        .collect();
    for spec in MIXED {
        let bindings = parse_layer_bindings(spec).expect("valid slate spec");
        configs.push(
            DnnConfig::from_bindings("accurate", &bindings, &mac_layers).expect("valid slate spec"),
        );
    }
    configs
}

pub fn setup(seed: u64) -> DnnSweep {
    let net = tiny_net();
    let configs = configs(&net);
    DnnSweep::new(net, configs, EVAL_N, seed).expect("valid sweep")
}

/// The designs a configuration binds, in MAC-layer order.
pub fn bindings(config: &DnnConfig) -> Vec<Box<dyn Multiplier>> {
    config
        .designs
        .iter()
        .map(|d| parse_design(d).expect("validated design"))
        .collect()
}

/// Keeps the wall time of every completed chunk (one configuration)
/// from the engine's own event stream.
#[derive(Default)]
struct ChunkWalls(Mutex<Vec<u64>>);

impl Collector for ChunkWalls {
    fn record(&self, event: &Event) {
        if let Event::ChunkEnd {
            ok: true, wall_ns, ..
        } = event
        {
            if let Ok(mut walls) = self.0.lock() {
                walls.push(*wall_ns);
            }
        }
    }
}

fn walls_ns_to_ms(walls: &ChunkWalls) -> Vec<f64> {
    walls
        .0
        .lock()
        .expect("chunk walls")
        .iter()
        .map(|&ns| ns as f64 / 1e6)
        .collect()
}

/// Runs the sweep once on the supervised engine at `threads`.
pub fn run_sweep(sweep: &DnnSweep, supervisor: &Supervisor) -> Option<Vec<DnnPoint>> {
    let run = Engine::supervised(sweep, supervisor).ok()?;
    run.report.is_complete().then_some(run.value).flatten()
}

pub fn measure(seed: u64, seconds: f64, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let chunk_walls = Arc::new(ChunkWalls::default());
    let supervisor = Supervisor::new()
        .with_threads(Threads::Fixed(threads))
        .with_collector(chunk_walls.clone());
    let mut first: Option<Vec<DnnPoint>> = None;
    let run = measure_rounds(
        seconds,
        || setup(seed),
        |sweep, round| match run_sweep(sweep, &supervisor) {
            Some(points) if first.is_none() => first = Some(points),
            Some(points) => out.check(first.as_ref() == Some(&points), || {
                format!("sweep round {round} differs from round 0")
            }),
            None => out.failed += sweep.configs().len() as u64,
        },
    );
    let (sweep, round_wall) = (&run.state, run.mean_round());
    let configs = sweep.configs().len() as u64;
    let latencies: Vec<f64> = walls_ns_to_ms(&chunk_walls);
    out.attempted = run.walls.len() as u64 * configs;
    out.metric("setup_s", run.setup_s, "s");
    out.metric(
        "samples_per_s",
        (configs * EVAL_N as u64) as f64 / round_wall,
        "1/s",
    );
    out.metric("jobs_per_s", configs as f64 / round_wall, "1/s");
    let n = configs as usize;
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
        "dnn-sweep: {} of {configs} configurations x {EVAL_N} images ({threads} engine threads)",
        describe_rounds(&run.walls)
    ));
    match first {
        Some(points) => check(&mut out, sweep, seed, &points),
        None => out.problems.push("no sweep round completed".into()),
    }
    out
}

/// DNN checks against the plain-loop forward pass: every
/// configuration's accuracy equals the reference accuracy exactly
/// (the `accurate` one included), and its logits match bit for bit on
/// a seeded sample of images.
pub fn check(out: &mut Outcome, sweep: &DnnSweep, seed: u64, points: &[DnnPoint]) {
    let net = sweep.net();
    let data = orientation_dataset(EVAL_N, seed);
    out.check(points.len() == sweep.configs().len(), || {
        format!(
            "{} of {} configurations evaluated",
            points.len(),
            sweep.configs().len()
        )
    });
    let mut pick = SplitMix64::stream(seed, 1);
    for point in points {
        let config = &sweep.configs()[point.config_index];
        let designs = bindings(config);
        let refs: Vec<&dyn Multiplier> = designs.iter().map(|d| d.as_ref()).collect();
        let correct = data
            .iter()
            .filter(|(img, label)| {
                reference::argmax(&reference::forward(net, &refs, img)) == *label
            })
            .count();
        let want = correct as f64 / data.len() as f64;
        out.check(point.accuracy == want, || {
            format!(
                "{}: accuracy {} differs from the reference forward pass ({want})",
                config.label, point.accuracy
            )
        });
        for _ in 0..LOGIT_SAMPLE {
            let (img, _) = &data[pick.index(data.len())];
            let got = net.forward(&refs, img);
            let want = reference::forward(net, &refs, img);
            if got != want {
                out.problems.push(format!(
                    "{}: logits {got:?} differ from the reference {want:?}",
                    config.label
                ));
                break;
            }
        }
    }
    if let Some(accurate) = points
        .iter()
        .find(|p| sweep.configs()[p.config_index].label == "uniform:accurate")
    {
        out.note(format!(
            "  accurate configuration accuracy {:.4}",
            accurate.accuracy
        ));
    } else {
        out.problems
            .push("the sweep has no uniform:accurate configuration".into());
    }
}
