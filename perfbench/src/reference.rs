//! Independent scalar references for the output checks, shared by all
//! four workloads. Each is a plain loop over scalar
//! `Multiplier::multiply` (or `multiply_wide`) with its own error
//! arithmetic — no engine, no batch kernel, no im2col, GEMM or
//! `FixedBatch`.

use realm_core::multiplier::MultiplierExt;
use realm_core::rng::SplitMix64;
use realm_core::Multiplier;
use realm_dsp::{Op, QuantNet};
use realm_metrics::ErrorSummary;

/// Running relative-error statistics kept by the reference loops.
#[derive(Debug, Clone, Copy)]
pub struct RefStats {
    pub count: u64,
    pub sum: f64,
    pub sum_abs: f64,
    pub sum_sq: f64,
    pub min: f64,
    pub max: f64,
}

impl RefStats {
    fn new() -> Self {
        RefStats {
            count: 0,
            sum: 0.0,
            sum_abs: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Scores one product against the exact one (zero products are
    /// skipped: relative error is undefined there).
    fn score(&mut self, a: u64, b: u64, product: u128) {
        let exact = a as u128 * b as u128;
        if exact == 0 {
            return;
        }
        let e = (product as f64 - exact as f64) / exact as f64;
        self.count += 1;
        self.sum += e;
        self.sum_abs += e.abs();
        self.sum_sq += e * e;
        if e < self.min {
            self.min = e;
        }
        if e > self.max {
            self.max = e;
        }
    }

    fn mean_of(&self, x: f64) -> f64 {
        x / self.count as f64
    }
}

/// The scalar product the campaigns score: the register product up to
/// 32-bit operands, the true wide product above.
fn scalar_product(design: &dyn Multiplier, a: u64, b: u64) -> u128 {
    if design.width() > 32 {
        design.multiply_wide(a, b)
    } else {
        design.multiply(a, b) as u128
    }
}

/// A one-chunk Monte-Carlo campaign recomputed by hand: `samples`
/// pairs drawn from `SplitMix64::stream(seed, 0)` (chunk 0 of every
/// campaign), each operand uniform over the design's range.
pub fn monte_carlo_chunk0(design: &dyn Multiplier, seed: u64, samples: u64) -> RefStats {
    let max = design.max_operand();
    let mut rng = SplitMix64::stream(seed, 0);
    let mut stats = RefStats::new();
    for _ in 0..samples {
        let a = rng.range_inclusive(0, max);
        let b = rng.range_inclusive(0, max);
        stats.score(a, b, scalar_product(design, a, b));
    }
    stats
}

/// Exhaustive enumeration of `a_range × b_range`.
pub fn exhaustive(design: &dyn Multiplier, a: (u64, u64), b: (u64, u64)) -> RefStats {
    let mut stats = RefStats::new();
    for x in a.0..=a.1 {
        for y in b.0..=b.1 {
            stats.score(x, y, scalar_product(design, x, y));
        }
    }
    stats
}

/// Checks a program summary against a reference: count, min and max
/// exactly, the moment sums within a floating tolerance (the engine
/// merges per-chunk partial sums, so its rounding differs).
pub fn compare(what: &str, got: &ErrorSummary, want: &RefStats) -> Result<(), String> {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * y.abs().max(1e-6);
    let bias = want.mean_of(want.sum);
    let mean = want.mean_of(want.sum_abs);
    let variance = (want.mean_of(want.sum_sq) - bias * bias).max(0.0);
    let checks = [
        ("count", got.samples == want.count),
        ("min", got.min_error.to_bits() == want.min.to_bits()),
        ("max", got.max_error.to_bits() == want.max.to_bits()),
        ("bias", close(got.bias, bias)),
        ("mean", close(got.mean_error, mean)),
        ("variance", close(got.variance, variance)),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        None => Ok(()),
        Some((field, _)) => Err(format!(
            "{what}: {field} differs from the scalar reference \
             (program n={} bias={:e} mean={:e} min={:e} max={:e}; \
             reference n={} bias={bias:e} mean={mean:e} min={:e} max={:e})",
            got.samples,
            got.bias,
            got.mean_error,
            got.min_error,
            got.max_error,
            want.count,
            want.min,
            want.max
        )),
    }
}

/// [`compare`] for two program summaries of the same samples (folded
/// in different orders).
pub fn compare_summaries(
    what: &str,
    got: &ErrorSummary,
    want: &ErrorSummary,
) -> Result<(), String> {
    let stats = RefStats {
        count: want.samples,
        sum: want.bias * want.samples as f64,
        sum_abs: want.mean_error * want.samples as f64,
        sum_sq: (want.variance + want.bias * want.bias) * want.samples as f64,
        min: want.min_error,
        max: want.max_error,
    };
    compare(what, got, &stats)
}

/// Properties every error summary must have: `min ≤ bias ≤ max` and
/// `|bias| ≤ mean ≤ peak`.
pub fn summary_properties(what: &str, s: &ErrorSummary) -> Result<(), String> {
    let ok = s.min_error <= s.bias
        && s.bias <= s.max_error
        && s.bias.abs() <= s.mean_error * (1.0 + 1e-12)
        && s.mean_error <= s.peak_error();
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{what}: summary violates min<=bias<=max, |bias|<=mean<=peak: {s}"
        ))
    }
}

/// Standard error of the mean |error| estimate, from a summary's
/// moments (`E[e²] = variance + bias²`).
pub fn mean_error_se(s: &ErrorSummary) -> f64 {
    let second = s.variance + s.bias * s.bias;
    ((second - s.mean_error * s.mean_error).max(0.0) / s.samples as f64).sqrt()
}

/// Side length of the orientation-task images.
pub const IMAGE_SIDE: usize = 8;

/// Sign-magnitude product through the unsigned core, operands in the
/// net's order (activation, weight).
pub fn signed_product(m: &dyn Multiplier, activation: i32, weight: i32) -> i64 {
    let mag = m.multiply(
        activation.unsigned_abs() as u64,
        weight.unsigned_abs() as u64,
    ) as i64;
    if (activation < 0) != (weight < 0) {
        -mag
    } else {
        mag
    }
}

/// Rounded re-quantization: `(acc + half) >> shift`.
fn requantize(acc: i64, shift: u32) -> i64 {
    let half = if shift == 0 { 0 } else { 1i64 << (shift - 1) };
    (acc + half) >> shift
}

/// A plain-loop int8 forward pass over the net's public layer list:
/// direct convolution with edge-replicated borders, ReLU clamp to
/// `[0, 127]`, floor average pooling and the dense head. One
/// multiplier per MAC layer, in layer order.
pub fn forward(net: &QuantNet, bindings: &[&dyn Multiplier], image: &[u8]) -> Vec<i64> {
    assert_eq!(image.len(), IMAGE_SIDE * IMAGE_SIDE, "image size");
    // Feature map as [channel][y][x].
    let (mut w, mut h) = (IMAGE_SIDE, IMAGE_SIDE);
    let mut map: Vec<Vec<Vec<i64>>> = vec![(0..h)
        .map(|y| (0..w).map(|x| image[y * w + x] as i64 - 128).collect())
        .collect()];
    let mut binding = bindings.iter();
    for layer in net.layers() {
        map = match &layer.op {
            Op::Conv {
                in_ch,
                out_ch,
                ksize,
                weights,
                bias,
                shift,
            } => {
                let m = *binding.next().expect("one binding per MAC layer");
                let half = (*ksize / 2) as isize;
                let clamp = |v: isize, n: usize| v.clamp(0, n as isize - 1) as usize;
                (0..*out_ch)
                    .map(|oc| {
                        (0..h)
                            .map(|y| {
                                (0..w)
                                    .map(|x| {
                                        let mut acc = 0i64;
                                        for ic in 0..*in_ch {
                                            for ky in 0..*ksize {
                                                let sy = clamp(y as isize + ky as isize - half, h);
                                                for kx in 0..*ksize {
                                                    let sx =
                                                        clamp(x as isize + kx as isize - half, w);
                                                    let tap = weights[oc * in_ch * ksize * ksize
                                                        + (ic * ksize + ky) * ksize
                                                        + kx];
                                                    acc += signed_product(
                                                        m,
                                                        map[ic][sy][sx] as i32,
                                                        tap,
                                                    );
                                                }
                                            }
                                        }
                                        requantize(acc, *shift) + bias[oc] as i64
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            }
            Op::Relu => map
                .iter()
                .map(|ch| {
                    ch.iter()
                        .map(|row| row.iter().map(|&v| v.clamp(0, 127)).collect())
                        .collect()
                })
                .collect(),
            Op::AvgPool { k } => {
                let (pw, ph) = (w / k, h / k);
                let pooled = map
                    .iter()
                    .map(|ch| {
                        (0..ph)
                            .map(|y| {
                                (0..pw)
                                    .map(|x| {
                                        let mut sum = 0i64;
                                        for dy in 0..*k {
                                            for dx in 0..*k {
                                                sum += ch[y * k + dy][x * k + dx];
                                            }
                                        }
                                        sum.div_euclid((k * k) as i64)
                                    })
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                (w, h) = (pw, ph);
                pooled
            }
            Op::Dense {
                inputs,
                outputs,
                weights,
                bias,
                shift,
            } => {
                let m = *binding.next().expect("one binding per MAC layer");
                // Flatten channel-major, then row, then column (CHW).
                let flat: Vec<i64> = map.iter().flatten().flatten().copied().collect();
                assert_eq!(flat.len(), *inputs, "dense input length");
                let logits = (0..*outputs)
                    .map(|o| {
                        let acc: i64 = flat
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| signed_product(m, v as i32, weights[o * inputs + i]))
                            .sum();
                        requantize(acc, *shift) + bias[o] as i64
                    })
                    .collect();
                (w, h) = (1, 1);
                vec![vec![logits]]
            }
        };
    }
    map.into_iter().flatten().flatten().collect()
}

/// Index of the first maximum.
pub fn argmax(logits: &[i64]) -> usize {
    let mut best = 0;
    for (i, &z) in logits.iter().enumerate() {
        if z > logits[best] {
            best = i;
        }
    }
    best
}
