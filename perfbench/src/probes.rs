//! The traced run: probes that time the calls into each layer's public
//! functions (spans from the benchmark's own files), the per-layer
//! metrics derived from them, and the named workload's layer sum
//! against its measured wall.
//!
//! Every probe passes its outputs through `std::hint::black_box` and
//! checks them, so the compiler cannot skip the measured work.

use std::hint::black_box;
use std::time::Duration;

use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::{FixedBatch, Multiplier};
use realm_dsp::im2col::im2col;
use realm_dsp::{matmul, orientation_dataset, tiny_net, Matrix, Op, QuantNet};
use realm_metrics::montecarlo::DEFAULT_CHUNK;
use realm_metrics::{
    characterize_range_threaded, CampaignSpec, Engine, ErrorAccumulator, ErrorSla, ErrorSummary,
    MonteCarlo, Supervisor, Threads,
};
use realm_qos::{Controller, ControllerConfig, QosTable, TableConfig};
use realm_serve::{Job, JobRequest, Ledgers};

use crate::reference;
use crate::serve::{self, JobSpec, Kind};
use crate::table1::{self, has_simd_kernel};
use crate::trace::Tracer;
use crate::util::{fresh_dir, median, percentile, run_dir, timed, Outcome};
use crate::widths;

/// Repetitions of each timed probe; the median is kept.
const REPEATS: usize = 3;
/// Monte-Carlo samples of the engine probes.
const ENGINE_SAMPLES: u64 = 1 << 21;
/// Images per configuration in the inference-layer probes.
const DSP_IMAGES: usize = 64;

/// Per-pair layer costs of one design, from the campaign-layer probe.
#[derive(Debug, Clone, Copy, Default)]
struct PairCosts {
    draw: f64,
    kernel: f64,
    score: f64,
}

/// What the probes measured that the layer sums need beyond the
/// reported metrics.
#[derive(Default)]
struct Costs {
    table1: Vec<PairCosts>,
    table1_report_ns: Vec<f64>,
    width_rows: Vec<PairCosts>,
    /// `QuantNet::forward` ns per inference, per configuration.
    forward_ns: Vec<f64>,
    dataset_ns: f64,
    serve_path_ms: f64,
    serve_latency_p50_ms: f64,
}

pub fn traced_run(workload: &str, seed: u64, threads: usize) -> Outcome {
    let tracer = Tracer::new(workload);
    let mut out = Outcome::default();
    let mut costs = Costs::default();
    let (_, wall) = timed(|| {
        campaign_layers(&tracer, &mut out, &mut costs, seed);
        engine_probes(&tracer, &mut out, seed, threads);
        synth_probes(&tracer, &mut out, &mut costs, seed);
        dsp_probes(&tracer, &mut out, &mut costs, seed, threads);
        serve_probes(&tracer, &mut out, &mut costs, seed, threads);
        layer_sum(&tracer, &mut out, &costs, workload, seed);
    });
    out.attempted = tracer.len();
    let path = run_dir().join(format!("trace-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(run_dir()).and_then(|_| tracer.write_jsonl(&path));
    match written {
        Ok(()) => out.note(format!(
            "traced run: {} spans in {wall:.1} s written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => out.problems.push(format!("cannot write spans: {e}")),
    }
    out
}

/// Draw → kernel → score, decomposed per design over one 65536-pair
/// chunk (chunk 0 of the campaign geometry), for the 69 Table I
/// designs and the 18 width-sweep rows. The decomposition must equal
/// the program's own one-chunk `MonteCarlo` campaign.
fn campaign_layers(tracer: &Tracer, out: &mut Outcome, costs: &mut Costs, seed: u64) {
    let pairs_t1 = realm_synth::designs::table1_pairs();
    let rows = widths::rows();
    let designs: Vec<(&dyn Multiplier, &'static str, bool)> = pairs_t1
        .iter()
        .map(|p| {
            let label = p.model.label();
            let layer = if has_simd_kernel(&label) {
                "realm-simd"
            } else {
                "realm-baselines"
            };
            (p.model.as_ref(), layer, false)
        })
        .chain(rows.iter().map(|r| {
            let layer = if r.width > 32 {
                "realm-core"
            } else if has_simd_kernel(&r.design.label()) {
                "realm-simd"
            } else {
                "realm-baselines"
            };
            (r.design.as_ref(), layer, r.exhaustive())
        }))
        .collect();
    let n = DEFAULT_CHUNK as usize;
    let mut per_design = vec![Vec::new(); designs.len()];
    tracer.span(None, "bench", "probe campaign layers", |probe| {
        for _ in 0..REPEATS {
            for (i, &(design, layer, exhaustive)) in designs.iter().enumerate() {
                let label = design.label();
                let c = tracer.span(Some(probe), "bench", format!("design {label}"), |parent| {
                    decompose(tracer, out, parent, design, layer, exhaustive, seed, n)
                });
                per_design[i].push(c.0);
            }
        }
    });
    let med = |v: &[PairCosts]| PairCosts {
        draw: median(&v.iter().map(|c| c.draw).collect::<Vec<_>>()),
        kernel: median(&v.iter().map(|c| c.kernel).collect::<Vec<_>>()),
        score: median(&v.iter().map(|c| c.score).collect::<Vec<_>>()),
    };
    let all: Vec<PairCosts> = per_design.iter().map(|v| med(v)).collect();
    costs.table1 = all[..pairs_t1.len()].to_vec();
    costs.width_rows = all[pairs_t1.len()..].to_vec();

    let mean = |f: &dyn Fn(&PairCosts) -> f64, pick: &dyn Fn(usize) -> bool| {
        let picked: Vec<f64> = costs
            .table1
            .iter()
            .enumerate()
            .filter(|(i, _)| pick(*i))
            .map(|(_, c)| f(c))
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let simd = |i: usize| has_simd_kernel(&pairs_t1[i].model.label());
    out.metric("core.draw_ns_per_pair", mean(&|c| c.draw, &|_| true), "ns");
    out.metric("simd.kernel_ns_per_pair", mean(&|c| c.kernel, &simd), "ns");
    out.metric(
        "baselines.kernel_ns_per_pair",
        mean(&|c| c.kernel, &|i| !simd(i)),
        "ns",
    );
    out.metric(
        "metrics.score_ns_per_pair",
        mean(&|c| c.score, &|_| true),
        "ns",
    );
    let wide: Vec<f64> = rows
        .iter()
        .zip(&costs.width_rows)
        .filter(|(r, _)| r.width > 32)
        .map(|(_, c)| c.kernel)
        .collect();
    out.metric(
        "core.wide_ns_per_pair",
        wide.iter().sum::<f64>() / wide.len() as f64,
        "ns",
    );
}

/// One design's draw, kernel and score spans over `n` pairs; returns
/// the per-pair costs. An exhaustive row is timed on a block of whole
/// sweep rows (`b` running over the full range, as the sweep does)
/// instead of drawn pairs, and has no draw cost.
#[allow(clippy::too_many_arguments)]
fn decompose(
    tracer: &Tracer,
    out: &mut Outcome,
    parent: u64,
    design: &dyn Multiplier,
    kernel_layer: &'static str,
    exhaustive: bool,
    seed: u64,
    n: usize,
) -> PairCosts {
    let label = design.label();
    let max = design.max_operand();
    let rows = (n as u64 / max).clamp(1, max);
    let (pairs, draw) = if exhaustive {
        let a_lo = max - rows + 1;
        let pairs: Vec<(u64, u64)> = (a_lo..=max)
            .flat_map(|a| (1..=max).map(move |b| (a, b)))
            .collect();
        (pairs, 0.0)
    } else {
        let drawn = tracer.span(
            Some(parent),
            "realm-core",
            "SplitMix64::range_inclusive",
            |_| {
                let mut rng = SplitMix64::stream(seed, 0);
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = rng.range_inclusive(0, max);
                    let b = rng.range_inclusive(0, max);
                    pairs.push((a, b));
                }
                black_box(pairs)
            },
        );
        // A power-of-two range never rejects, so every draw is the raw
        // word masked to the range.
        let mut raw = SplitMix64::stream(seed, 0);
        let masked = drawn
            .0
            .iter()
            .take(1024)
            .all(|&(a, b)| a == raw.next_u64() & max && b == raw.next_u64() & max);
        out.check(masked, || {
            format!("{label}: draws differ from the masked raw stream")
        });
        drawn
    };
    let n = pairs.len();

    // Narrow designs multiply in one batch into u64 products, as the
    // campaigns do; wide ones (N > 32) score the per-pair u128 path.
    let (kernel, score, acc) = if design.width() > 32 {
        let (products, kernel) = tracer.span(Some(parent), kernel_layer, "multiply_wide", |_| {
            black_box(
                pairs
                    .iter()
                    .map(|&(a, b)| design.multiply_wide(a, b))
                    .collect::<Vec<u128>>(),
            )
        });
        let bounded = pairs.iter().zip(&products).all(|(&(a, b), &p)| {
            let exact = a as u128 * b as u128;
            exact == 0 || (p as f64 - exact as f64).abs() <= 0.25 * exact as f64
        });
        out.check(bounded, || {
            format!("{label}: a wide product is off by more than 25 %")
        });
        let (acc, score) = score_span(tracer, parent, &pairs, &products);
        (kernel, score, acc)
    } else {
        let (products, kernel) = tracer.span(Some(parent), kernel_layer, "multiply_batch", |_| {
            let mut products = vec![0u64; n];
            design.multiply_batch(&pairs, &mut products);
            black_box(products)
        });
        let scalar = pairs
            .iter()
            .zip(&products)
            .take(512)
            .all(|(&(a, b), &p)| design.multiply(a, b) == p);
        out.check(scalar, || {
            format!("{label}: multiply_batch differs from scalar multiply")
        });
        let (acc, score) = score_span(tracer, parent, &pairs, &products);
        (kernel, score, acc)
    };
    // The decomposition must be the program's own computation.
    let engine = if exhaustive {
        characterize_range_threaded(design, max - rows + 1..=max, 1..=max, Threads::Fixed(1))
    } else {
        MonteCarlo::new(n as u64, seed)
            .with_threads(Threads::Fixed(1))
            .characterize(design)
    };
    if let Err(e) = reference::compare_summaries(&label, &acc.finish(), &engine) {
        out.problems.push(e);
    }
    let per = |ns: f64| ns / n as f64;
    PairCosts {
        draw: per(draw),
        kernel: per(kernel),
        score: per(score),
    }
}

/// Relative error + `ErrorAccumulator::push` over a batch, as a span.
fn score_span<P: Copy + Into<u128>>(
    tracer: &Tracer,
    parent: u64,
    pairs: &[(u64, u64)],
    products: &[P],
) -> (ErrorAccumulator, f64) {
    tracer.span(
        Some(parent),
        "realm-metrics",
        "ErrorAccumulator::push",
        |_| {
            let mut acc = ErrorAccumulator::new();
            for (&(a, b), &p) in pairs.iter().zip(products) {
                let exact = a as u128 * b as u128;
                if exact == 0 {
                    continue;
                }
                acc.push((p.into() as f64 - exact as f64) / exact as f64);
            }
            black_box(acc)
        },
    )
}

/// Engine-level probes: the whole Monte-Carlo path at one thread, its
/// two-thread speed-up, and the exhaustive sweep at N = 12.
fn engine_probes(tracer: &Tracer, out: &mut Outcome, seed: u64, threads: usize) {
    let realm16 = realm_core::Realm::new(realm_core::RealmConfig::n16(16, 0)).expect("REALM16 t=0");
    let campaign = MonteCarlo::new(ENGINE_SAMPLES, seed);
    let run = |layer: &'static str, t: usize| {
        let mut times = Vec::new();
        let mut summary = None;
        for _ in 0..REPEATS {
            let (s, ns) = tracer.span(
                None,
                layer,
                format!("MonteCarlo::characterize ({t} threads)"),
                |_| {
                    black_box(
                        campaign
                            .with_threads(Threads::Fixed(t))
                            .characterize(&realm16),
                    )
                },
            );
            times.push(ns);
            summary = Some(s);
        }
        (summary.expect("repeats"), median(&times))
    };
    let (one, one_ns) = run("realm-metrics", 1);
    let (two, two_ns) = run("realm-par", threads);
    out.check(one == two, || {
        format!("MonteCarlo differs between 1 and {threads} threads")
    });
    if let Err(e) = reference::summary_properties("REALM16 t=0 engine probe", &one) {
        out.problems.push(e);
    }
    out.metric(
        "metrics.mc_ns_per_sample",
        one_ns / ENGINE_SAMPLES as f64,
        "ns",
    );
    out.metric("par.mc_speedup_2t", one_ns / two_ns, "x");

    // Exhaustive sweep at N = 12: 256 rows of the full b axis.
    let rows = widths::rows();
    let row = rows.iter().find(|r| r.width == 12).expect("an N=12 row");
    let a = (1u64, 256u64);
    let b = (1u64, row.design.max_operand());
    let mut times = Vec::new();
    let mut got = None;
    for _ in 0..REPEATS {
        let (s, ns) = tracer.span(None, "realm-metrics", "characterize_range (N=12)", |_| {
            black_box(characterize_range_threaded(
                row.design.as_ref(),
                a.0..=a.1,
                b.0..=b.1,
                Threads::Fixed(1),
            ))
        });
        times.push(ns);
        got = Some(s);
    }
    let want = reference::exhaustive(row.design.as_ref(), a, b);
    if let Err(e) = reference::compare("exhaustive probe N=12", &got.expect("repeats"), &want) {
        out.problems.push(e);
    }
    out.metric(
        "metrics.exhaustive_ns_per_pair",
        median(&times) / ((a.1 - a.0 + 1) * (b.1 - b.0 + 1)) as f64,
        "ns",
    );
}

/// Synthesis probes: Table I set-up (design pairs + calibrated
/// reporter) and one area/power report per design.
fn synth_probes(tracer: &Tracer, out: &mut Outcome, costs: &mut Costs, seed: u64) {
    let mut times = Vec::new();
    let mut setup = None;
    for _ in 0..REPEATS {
        let (s, ns) = tracer.span(
            None,
            "realm-synth",
            "table1_pairs + Reporter::paper_setup",
            |_| black_box(table1::setup(seed)),
        );
        times.push(ns);
        setup = Some(s);
    }
    let setup = setup.expect("repeats");
    out.check(setup.pairs.len() == 69, || {
        format!("{} Table I pairs", setup.pairs.len())
    });
    out.metric("synth.setup_ms", median(&times) / 1e6, "ms");
    tracer.span(None, "bench", "probe synthesis reports", |probe| {
        for pair in &setup.pairs {
            let (report, ns) = tracer.span(Some(probe), "realm-synth", "Reporter::report", |_| {
                black_box(setup.reporter.report(&pair.netlist))
            });
            out.check(report.area_um2 > 0.0 && report.power_uw.is_finite(), || {
                format!("{}: report {report:?}", pair.model.label())
            });
            costs.table1_report_ns.push(ns);
        }
    });
    let n = costs.table1_report_ns.len() as f64;
    out.metric(
        "synth.report_ms_per_design",
        costs.table1_report_ns.iter().sum::<f64>() / n / 1e6,
        "ms",
    );
}

/// The net's two MAC layers as GEMM operands.
struct NetShapes {
    /// Conv weights as a `taps × filters` GEMM operand, and as one
    /// tap vector per filter.
    conv_w: Matrix,
    filters: Vec<Vec<i32>>,
    conv_bias: Vec<i32>,
    conv_shift: u32,
    dense_w: Matrix,
    dense_bias: Vec<i32>,
    dense_shift: u32,
    pool: usize,
}

fn net_shapes(net: &QuantNet) -> NetShapes {
    let mut conv = None;
    let mut dense = None;
    let mut pool = 1;
    for layer in net.layers() {
        match &layer.op {
            Op::Conv {
                in_ch,
                out_ch,
                ksize,
                weights,
                bias,
                shift,
            } => {
                let taps = in_ch * ksize * ksize;
                let w = Matrix::from_fn(taps, *out_ch, |r, c| weights[c * taps + r]);
                let filters = weights.chunks(taps).map(<[i32]>::to_vec).collect();
                conv = Some((w, filters, bias.clone(), *shift));
            }
            Op::Dense {
                inputs,
                outputs,
                weights,
                bias,
                shift,
            } => {
                let w = Matrix::from_fn(*inputs, *outputs, |r, c| weights[c * inputs + r]);
                dense = Some((w, bias.clone(), *shift));
            }
            Op::AvgPool { k } => pool = *k,
            Op::Relu => {}
        }
    }
    let (conv_w, filters, conv_bias, conv_shift) = conv.expect("tiny_net has a conv layer");
    let (dense_w, dense_bias, dense_shift) = dense.expect("tiny_net has a dense layer");
    NetShapes {
        conv_w,
        filters,
        conv_bias,
        conv_shift,
        dense_w,
        dense_bias,
        dense_shift,
        pool,
    }
}

/// realm-dsp probes: net construction, the evaluation set, and one
/// inference split into im2col, conv GEMM and dense GEMM next to the
/// whole `QuantNet::forward`, per sweep configuration; the signed dot
/// product on the net's shapes; and the sweep's thread speed-up.
fn dsp_probes(tracer: &Tracer, out: &mut Outcome, costs: &mut Costs, seed: u64, threads: usize) {
    let mut times = Vec::new();
    let mut net = None;
    for _ in 0..REPEATS {
        let (n, ns) = tracer.span(None, "realm-dsp", "tiny_net", |_| black_box(tiny_net()));
        times.push(ns);
        if let Some(prev) = &net {
            out.check(*prev == n, || "tiny_net() is not deterministic".into());
        }
        net = Some(n);
    }
    let net = net.expect("repeats");
    out.metric("dsp.tiny_net_ms", median(&times) / 1e6, "ms");

    let mut times = Vec::new();
    let mut data = Vec::new();
    for _ in 0..REPEATS {
        let (d, ns) = tracer.span(None, "realm-dsp", "orientation_dataset", |_| {
            black_box(orientation_dataset(crate::dnn::EVAL_N, seed))
        });
        times.push(ns);
        data = d;
    }
    out.check(
        data.len() == crate::dnn::EVAL_N && data.iter().all(|(img, l)| img.len() == 64 && *l < 4),
        || "orientation_dataset shape".into(),
    );
    costs.dataset_ns = median(&times);
    out.metric("dsp.dataset_ms", costs.dataset_ns / 1e6, "ms");

    let shapes = net_shapes(&net);
    let mut t = DspTimes::default();
    let mut batch = FixedBatch::new();
    for config in crate::dnn::configs(&net) {
        let designs = crate::dnn::bindings(&config);
        let refs: Vec<&dyn Multiplier> = designs.iter().map(|d| d.as_ref()).collect();
        let before = t.forward;
        tracer.span(
            None,
            "bench",
            format!("probe inference {}", config.label),
            |probe| {
                for (img, _) in data.iter().take(DSP_IMAGES) {
                    let inference = Inference {
                        net: &net,
                        shapes: &shapes,
                        refs: &refs,
                        img,
                    };
                    if let Err(e) = inference.probe(tracer, probe, &mut batch, &mut t) {
                        out.problems.push(format!("{}: {e}", config.label));
                    }
                }
            },
        );
        costs
            .forward_ns
            .push((t.forward - before) / DSP_IMAGES as f64);
    }
    let per = |ns: f64| ns / t.inferences as f64 / 1e3;
    out.metric("dsp.im2col_us_per_inference", per(t.im2col), "us");
    out.metric("dsp.gemm_conv_us_per_inference", per(t.conv), "us");
    out.metric("dsp.gemm_dense_us_per_inference", per(t.dense), "us");
    out.metric("dsp.forward_us_per_inference", per(t.forward), "us");
    out.metric(
        "core.signed_dot_ns_per_mac",
        t.dot / t.dot_macs as f64,
        "ns",
    );

    // The sweep at one thread against `threads`.
    let sweep = crate::dnn::setup(seed);
    let run = |t: usize, layer: &'static str| {
        let mut times = Vec::new();
        let mut points = None;
        for _ in 0..REPEATS {
            let (p, ns) = tracer.span(None, layer, format!("DnnSweep ({t} threads)"), |_| {
                black_box(Engine::new(Threads::Fixed(t)).run(&sweep))
            });
            times.push(ns);
            points = p;
        }
        (points, median(&times))
    };
    let (one, one_ns) = run(1, "realm-metrics");
    let (two, two_ns) = run(threads, "realm-par");
    out.check(one.is_some() && one == two, || {
        format!("DnnSweep differs between 1 and {threads} threads")
    });
    out.metric("par.dnn_speedup_2t", one_ns / two_ns, "x");
}

/// Accumulated span times (ns) of the inference-layer probes.
#[derive(Default)]
struct DspTimes {
    im2col: f64,
    conv: f64,
    dense: f64,
    forward: f64,
    dot: f64,
    dot_macs: u64,
    inferences: u64,
}

/// One image through one configuration's bindings.
struct Inference<'a> {
    net: &'a QuantNet,
    shapes: &'a NetShapes,
    refs: &'a [&'a dyn Multiplier],
    img: &'a [u8],
}

impl Inference<'_> {
    /// Times im2col, the conv GEMM, the dense GEMM, the whole forward
    /// pass and the conv layer's signed dot products; checks that the
    /// layer-by-layer recomposition, the forward pass and the dot
    /// products all equal the scalar reference.
    fn probe(
        &self,
        tracer: &Tracer,
        probe: u64,
        batch: &mut FixedBatch,
        t: &mut DspTimes,
    ) -> Result<(), String> {
        let (shapes, refs, side) = (self.shapes, self.refs, reference::IMAGE_SIDE);
        let centred: Vec<i32> = self.img.iter().map(|&p| p as i32 - 128).collect();
        let (windows, ns) = tracer.span(Some(probe), "realm-dsp", "im2col", |_| {
            black_box(im2col(1, side, side, 3, |_, x, y| centred[y * side + x]))
        });
        t.im2col += ns;
        let (response, ns) = tracer.span(Some(probe), "realm-dsp", "matmul conv1", |_| {
            black_box(matmul(refs[0], &windows, &shapes.conv_w, shapes.conv_shift))
        });
        t.conv += ns;
        let pooled = relu_pool(&response, shapes, side);
        let a = Matrix::from_data(1, pooled.len(), pooled);
        let (z, ns) = tracer.span(Some(probe), "realm-dsp", "matmul dense1", |_| {
            black_box(matmul(refs[1], &a, &shapes.dense_w, shapes.dense_shift))
        });
        t.dense += ns;
        let composed: Vec<i64> = (0..shapes.dense_bias.len())
            .map(|o| (z.get(0, o) + shapes.dense_bias[o]) as i64)
            .collect();
        let (logits, ns) = tracer.span(Some(probe), "realm-dsp", "QuantNet::forward", |_| {
            black_box(self.net.forward(refs, self.img))
        });
        t.forward += ns;
        t.inferences += 1;
        let want = reference::forward(self.net, refs, self.img);
        if logits != want || composed != want {
            return Err(format!(
                "forward {logits:?} / layer by layer {composed:?} differ from the reference {want:?}"
            ));
        }
        // The conv layer as signed dot products: one per window and
        // filter.
        let (sum, ns) = tracer.span(Some(probe), "realm-core", "FixedBatch::dot_i32", |_| {
            let mut sum = 0i64;
            for r in 0..windows.rows() {
                for filter in &shapes.filters {
                    sum += batch.dot_i32(refs[0], windows.row(r), filter);
                }
            }
            black_box(sum)
        });
        t.dot += ns;
        t.dot_macs += (windows.rows() * windows.cols() * shapes.filters.len()) as u64;
        let want: i64 = (0..windows.rows())
            .flat_map(|r| shapes.filters.iter().map(move |f| (r, f)))
            .flat_map(|(r, f)| windows.row(r).iter().zip(f))
            .map(|(&x, &w)| reference::signed_product(refs[0], x, w))
            .sum();
        if sum != want {
            return Err(format!("FixedBatch::dot_i32 sum {sum} != reference {want}"));
        }
        Ok(())
    }
}

/// ReLU, floor average pooling and CHW flattening of a conv response
/// (`pixels × channels`, before bias).
fn relu_pool(response: &Matrix, shapes: &NetShapes, side: usize) -> Vec<i32> {
    let k = shapes.pool;
    let out_side = side / k;
    let mut pooled = Vec::new();
    for (c, bias) in shapes.conv_bias.iter().enumerate() {
        for y in 0..out_side {
            for x in 0..out_side {
                let mut sum = 0i64;
                for dy in 0..k {
                    for dx in 0..k {
                        let p = (y * k + dy) * side + x * k + dx;
                        sum += (response.get(p, c) + bias).clamp(0, 127) as i64;
                    }
                }
                pooled.push(sum.div_euclid((k * k) as i64) as i32);
            }
        }
    }
    pooled
}

/// The table the service characterizes when it has none on disk (see
/// `realm-serve`'s admission path): 4096 samples, 32 power cycles.
fn serve_table_config() -> TableConfig {
    TableConfig {
        samples: 1 << 12,
        seed: 0xEA51_1AB5,
        cycles: 32,
        threads: Threads::Auto,
    }
}

/// Service-path probes: QoS characterization, request parsing, ledger
/// appends, checkpoint cost, in-process job compute, and client round
/// trips against a live server.
fn serve_probes(tracer: &Tracer, out: &mut Outcome, costs: &mut Costs, seed: u64, threads: usize) {
    let cfg = serve_table_config();
    let mut times = Vec::new();
    let mut table = None;
    for _ in 0..REPEATS {
        let (t, ns) = tracer.span(None, "realm-qos", "QosTable::characterize", |_| {
            black_box(QosTable::characterize(&cfg))
        });
        times.push(ns);
        table = t.ok();
    }
    let Some(table) = table else {
        out.problems.push("QoS characterization failed".into());
        return;
    };
    out.check(
        !table.entries.is_empty() && table.fingerprint == cfg.fingerprint(),
        || "QoS table is empty or carries the wrong fingerprint".into(),
    );
    out.metric("qos.characterize_ms", median(&times) / 1e6, "ms");

    let mixes: Vec<Vec<JobSpec>> = (0..serve::CLIENTS)
        .map(|c| serve::job_mix(seed, c))
        .collect();
    let specs: Vec<&JobSpec> = mixes.iter().flatten().collect();

    // Request parsing.
    let mut requests = Vec::new();
    let (_, ns) = tracer.span(
        None,
        "realm-serve",
        "Json::parse + JobRequest::from_json",
        |_| {
            for _ in 0..100 {
                requests.clear();
                for spec in &specs {
                    let parsed = realm_serve::json::Json::parse(&spec.body)
                        .map_err(|e| e.to_string())
                        .and_then(|doc| JobRequest::from_json(&doc));
                    requests.push(black_box(parsed));
                }
            }
        },
    );
    out.metric(
        "serve.request_parse_us",
        ns / (100 * specs.len()) as f64 / 1e3,
        "us",
    );
    let requests: Vec<JobRequest> = match requests.into_iter().collect::<Result<_, _>>() {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("job mix does not parse: {e}"));
            return;
        }
    };

    // Accepted-ledger appends (fsynced) on the run directory's file
    // system.
    match fresh_dir("ledger") {
        Ok(dir) => {
            let appended: Result<Vec<f64>, String> = Ledgers::open(&dir)
                .map_err(|e| e.to_string())
                .and_then(|(ledgers, _)| {
                    (0..32u64)
                        .map(|id| {
                            let job = Job {
                                id,
                                request: requests[id as usize % requests.len()].clone(),
                                attempts: 0,
                                recovered: false,
                            };
                            let (r, ns) = tracer.span(
                                None,
                                "realm-harness",
                                "Ledgers::record_accepted",
                                |_| ledgers.record_accepted(&job),
                            );
                            r.map(|_| ns).map_err(|e| e.to_string())
                        })
                        .collect()
                });
            let reopened = Ledgers::open(&dir).map(|(_, rec)| rec.incomplete.len());
            let _ = std::fs::remove_dir_all(&dir);
            match appended {
                Ok(times) => {
                    out.check(matches!(reopened, Ok(32)), || {
                        format!("ledger replay found {reopened:?} of 32 jobs")
                    });
                    out.metric("harness.ledger_append_ms", median(&times) / 1e6, "ms");
                }
                Err(e) => out.problems.push(format!("ledger append: {e}")),
            }
        }
        Err(e) => out.problems.push(format!("ledger directory: {e}")),
    }

    // Concrete specs of the mix ("auto" bound as the service's first
    // binding for the SLA would be).
    let auto_design = ErrorSla::parse(serve::SLA)
        .ok()
        .and_then(|sla| Controller::new(&table, sla, ControllerConfig::default()).ok())
        .map(|c| c.current().design.clone())
        .unwrap_or_else(|| "realm:m=16,t=0".into());
    let concrete: Vec<(CampaignSpec, &Kind, String)> = specs
        .iter()
        .zip(&requests)
        .map(|(spec, request)| {
            let mut campaign = request.spec.clone();
            if campaign.design == "auto" {
                campaign.design = auto_design.clone();
            }
            let design = campaign.design.clone();
            (campaign, &spec.kind, design)
        })
        .collect();

    // Checkpointing: the same 8-chunk campaign with and without a
    // journal.
    let mut checkpointed = CampaignSpec {
        chunk: Some(512),
        ..concrete[0].0.clone()
    };
    checkpointed.family = realm_metrics::FamilySpec::MonteCarlo {
        samples: serve::MC_SAMPLES,
    };
    match fresh_dir("checkpoint") {
        Ok(dir) => {
            let (mut with, mut without) = (Vec::new(), Vec::new());
            let mut summaries: Vec<Option<ErrorSummary>> = Vec::new();
            for rep in 0..10 {
                let plain = Supervisor::new().with_threads(Threads::Fixed(1));
                let journaled = plain.clone().checkpoint_to(&dir);
                let scope = format!("probe-{rep}");
                let (a, ns) = tracer.span(
                    None,
                    "realm-metrics",
                    "CampaignSpec::run_supervised",
                    |_| checkpointed.run_supervised(Some(&scope), &plain),
                );
                without.push(ns);
                let (b, ns) = tracer.span(
                    None,
                    "realm-harness",
                    "run_supervised + checkpoint_to",
                    |_| checkpointed.run_supervised(Some(&scope), &journaled),
                );
                with.push(ns);
                summaries.push(a.ok().and_then(|s| s.value));
                summaries.push(b.ok().and_then(|s| s.value));
            }
            let _ = std::fs::remove_dir_all(&dir);
            out.check(
                summaries.iter().all(|s| s.is_some() && *s == summaries[0]),
                || "checkpointed and plain campaigns differ".into(),
            );
            let chunks = serve::MC_SAMPLES / 512;
            out.metric(
                "harness.checkpoint_ms_per_chunk",
                (median(&with) - median(&without)) / chunks as f64 / 1e6,
                "ms",
            );
        }
        Err(e) => out.problems.push(format!("checkpoint directory: {e}")),
    }

    // The mix's jobs computed in-process, outside the service.
    let mut compute = Vec::new();
    for (campaign, kind, design) in &concrete {
        let supervisor = Supervisor::new().with_threads(Threads::Fixed(1));
        let (run, ns) = tracer.span(None, "realm-metrics", "job compute", |_| {
            black_box(campaign.run_supervised(None, &supervisor))
        });
        compute.push(ns);
        match (
            run.ok().and_then(|r| r.value),
            serve::reference_for(kind, design),
        ) {
            (Some(summary), Ok(want)) => {
                if let Err(e) = reference::compare(design, &summary, &want) {
                    out.problems.push(e);
                }
            }
            _ => out.problems.push(format!("job {kind:?} did not compute")),
        }
    }
    let job_compute_ms = median(&compute) / 1e6;
    out.metric("metrics.job_compute_ms", job_compute_ms, "ms");

    // A live service: idle accept path, then the closed loop for two
    // rounds per client with every request traced.
    let service = match serve::Service::start(threads) {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(e);
            return;
        }
    };
    if let Err(e) = table.save(&service.dir.join("qos_tables.json")) {
        out.problems
            .push(format!("cannot seed the service's QoS table: {e}"));
    }
    let addr = service.addr();
    for _ in 0..40 {
        let (r, _) = tracer.span(None, "realm-serve", "GET /healthz", |_| {
            realm_serve::http_request(addr, "GET", "/healthz", None)
        });
        out.check(matches!(r, Ok((200, _))), || {
            format!("healthz answered {r:?}")
        });
        std::thread::sleep(Duration::from_millis(2));
    }
    let logs = serve::run_clients(addr, &mixes, 0.0, Some(2), Some(tracer));
    if let Err(e) = service.stop() {
        out.problems.push(e);
    }
    // A job stuck by the known fault (README) is reported, not counted:
    // this loop only times the layers. Any other failure fails the run.
    let stuck: u64 = logs.iter().map(|l| l.stuck).sum();
    let failed = logs.iter().map(|l| l.failed).sum::<u64>() - stuck;
    if stuck > 0 {
        out.note(format!(
            "  known fault seen: {stuck} traced service job(s) left 'queued' after completing"
        ));
    }
    let errors: Vec<&String> = logs.iter().flat_map(|l| &l.errors).collect();
    out.check(failed == 0, || {
        format!("{failed} traced service jobs failed: {errors:?}")
    });
    serve::check_results(out, &mixes, &logs);
    let p50 = |layer: &str, name: &str| {
        let d = tracer.durations(layer, name);
        if d.is_empty() {
            f64::NAN
        } else {
            percentile(&d, 0.5) / 1e6
        }
    };
    let healthz = p50("realm-serve", "GET /healthz");
    let submit = p50("realm-serve", "POST /jobs");
    let poll = p50("realm-serve", "GET /jobs/<id>");
    out.metric("serve.submit_ms_p50", submit, "ms");
    out.metric("serve.poll_ms_p50", poll, "ms");
    out.metric("serve.healthz_ms_p50", healthz, "ms");
    out.metric(
        "serve.queue_run_ms_p50",
        p50("realm-serve", "queue_run"),
        "ms",
    );
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_ms.clone()).collect();
    costs.serve_latency_p50_ms = if latencies.is_empty() {
        f64::NAN
    } else {
        percentile(&latencies, 0.5)
    };
    // One job's blocking path: accept + parse + accepted-ledger fsync,
    // the campaign with its checkpoint, the done-ledger fsync, and the
    // poll that sees it terminal.
    let metric = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    costs.serve_path_ms = healthz
        + metric("serve.request_parse_us") / 1e3
        + 2.0 * metric("harness.ledger_append_ms")
        + job_compute_ms
        + metric("harness.checkpoint_ms_per_chunk").max(0.0)
        + poll;
}

/// The named workload's layer sum against its measured wall: one round
/// at one engine thread, timed whole, against the sum of the per-layer
/// costs the probes measured times the round's work.
fn layer_sum(tracer: &Tracer, out: &mut Outcome, costs: &Costs, workload: &str, seed: u64) {
    let (sum_ns, wall_ns, what) = match workload {
        "table1-campaign" => {
            let setup = table1::setup(seed);
            let campaign = MonteCarlo::new(table1::SAMPLES, seed).with_threads(Threads::Fixed(1));
            let (rows, wall) = tracer.span(None, "bench", "table1 round (1 thread)", |_| {
                (0..setup.pairs.len())
                    .map(|i| black_box(table1::row(&campaign, &setup, i)))
                    .collect::<Vec<_>>()
            });
            table1::check(out, &setup, seed, &rows);
            let pairs = table1::SAMPLES as f64;
            let sum: f64 = costs
                .table1
                .iter()
                .map(|c| pairs * (c.draw + c.kernel + c.score))
                .sum::<f64>()
                + costs.table1_report_ns.iter().sum::<f64>();
            (
                sum,
                wall,
                "draw + kernel + score per pair, plus one synthesis report per design",
            )
        }
        "width-sweep" => {
            let rows = widths::rows();
            let (results, wall) = tracer.span(None, "bench", "width round (1 thread)", |_| {
                rows.iter()
                    .map(|r| black_box(widths::run_row(r, seed, 1)))
                    .collect::<Vec<_>>()
            });
            widths::check(out, &rows, &results);
            let sum = rows
                .iter()
                .zip(&costs.width_rows)
                .map(|(r, c)| {
                    let draw = if r.exhaustive() { 0.0 } else { c.draw };
                    r.pairs() as f64 * (draw + c.kernel + c.score)
                })
                .sum();
            (
                sum,
                wall,
                "per row: pairs x (draw if sampled + kernel or wide product + score)",
            )
        }
        "dnn-sweep" => {
            let sweep = crate::dnn::setup(seed);
            let supervisor = Supervisor::new().with_threads(Threads::Fixed(1));
            let (points, wall) = tracer.span(None, "bench", "dnn round (1 thread)", |_| {
                black_box(crate::dnn::run_sweep(&sweep, &supervisor))
            });
            match points {
                Some(p) => crate::dnn::check(out, &sweep, seed, &p),
                None => out
                    .problems
                    .push("traced sweep round did not complete".into()),
            }
            let sum = costs
                .forward_ns
                .iter()
                .map(|f| crate::dnn::EVAL_N as f64 * f + costs.dataset_ns)
                .sum();
            (
                sum,
                wall,
                "per configuration: images x QuantNet::forward + orientation_dataset",
            )
        }
        _ => (
            costs.serve_path_ms * 1e6,
            costs.serve_latency_p50_ms * 1e6,
            "per job: accept + parse + 2 ledger fsyncs + compute + checkpoint + one poll, \
             against the traced loop's job latency p50",
        ),
    };
    let share = sum_ns / wall_ns * 100.0;
    out.note(format!(
        "layers: {workload}: layer sum {:.3} ms vs measured wall {:.3} ms ({share:.1}%) — {what}",
        sum_ns / 1e6,
        wall_ns / 1e6
    ));
    out.metric("trace.layer_share", share, "%");
}
