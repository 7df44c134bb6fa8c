//! Emits `BENCH_kernels.json` — the compute-kernel performance baseline the
//! repository tracks across PRs:
//!
//! 1. 512³ GEMM, naive jik reference vs the blocked/packed kernel.
//! 2. The skinny GEMMs a conv layer issues per sample (`conv2` of the
//!    benchmark's `mini_vgg`: `c_out = 32`, `D = 800`, `L = 256`), one per
//!    multiply flavour, as µs and GFLOP/s.
//! 3. `Conv2d` forward and backward, per layer, on the three `mini_vgg`
//!    shapes at K = 16 and one compute thread, as ms and GFLOP/s.
//! 4. The SFB receive side: reconstructing a 1024×1024 gradient from
//!    P·K = 32 sufficient factors.
//! 5. Conv2d forward+backward over a 32-sample CIFAR-shaped batch and a full
//!    CIFAR-10-quick training step, at one compute thread and — only when
//!    the host has more than one core — at `cores` threads. A thread count
//!    the host cannot run in parallel is not recorded.
//!
//! Run from the repo root: `cargo run --release -p poseidon-bench --bin
//! kernel_baseline` (writes `BENCH_kernels.json` into the current
//! directory). Timings are min-of-N wall clock; the JSON is hand-rolled so
//! the binary stays dependency-free.

use poseidon::syncer::reconstruct_sf_batches;
use poseidon_nn::layer::{Layer, TensorShape};
use poseidon_nn::layers::Conv2d;
use poseidon_nn::loss::SoftmaxCrossEntropy;
use poseidon_nn::{parallel, presets};
use poseidon_tensor::{Matrix, SfBatch, SufficientFactor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut state = seed;
    for v in m.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((state >> 40) as f32) / (1u64 << 24) as f32 - 0.5;
    }
    m
}

/// The seed revision's GEMM (ikj loop order with a zero-skip fast path),
/// kept here so the baseline records speedup against the exact kernel this
/// PR replaced, not just the jik oracle.
fn seed_style_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for k in 0..a.cols() {
            let av = a[(i, k)];
            if av == 0.0 {
                continue;
            }
            let brow = b.row(k);
            let orow = &mut out.as_mut_slice()[i * brow.len()..(i + 1) * brow.len()];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Min-of-`reps` wall-clock seconds for `f`.
fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Thread counts this host can resolve: serial, and every core.
    let thread_counts: Vec<usize> = if cores > 1 { vec![1, cores] } else { vec![1] };

    // 1. 512^3 GEMM: naive vs blocked.
    let a = lcg_matrix(512, 512, 1);
    let b = lcg_matrix(512, 512, 2);
    let flops = 2.0 * 512f64.powi(3);
    let naive_s = time(3, || {
        std::hint::black_box(a.matmul_naive(&b));
    });
    let seed_s = time(3, || {
        std::hint::black_box(seed_style_matmul(&a, &b));
    });
    let blocked_s = time(5, || {
        std::hint::black_box(a.matmul(&b));
    });

    // 2. The per-sample conv GEMMs: forward `W·col` (NN), `dW = G·colᵀ`
    // (NT, k = L) and `dcol = Wᵀ·G` (TN, k = c_out).
    let (c_out, d, l) = (32usize, 800usize, 256usize);
    let weights = lcg_matrix(c_out, d, 5);
    let col = lcg_matrix(d, l, 6);
    let g = lcg_matrix(c_out, l, 7);
    let conv_flops = 2.0 * (c_out * d * l) as f64;
    let mut gemm_rows = Vec::new();
    let mut out = vec![0.0f32; c_out * l];
    let s = time(200, || {
        out.fill(0.0);
        weights.matmul_rows_into(&col, 0..c_out, &mut out);
        std::hint::black_box(&out);
    });
    gemm_rows.push(("nn_32x800x256", s));
    let mut out = vec![0.0f32; c_out * d];
    let s = time(200, || {
        out.fill(0.0);
        g.matmul_nt_rows_into(&col, 0..c_out, &mut out);
        std::hint::black_box(&out);
    });
    gemm_rows.push(("nt_32x256x800", s));
    let mut out = vec![0.0f32; d * l];
    let s = time(200, || {
        out.fill(0.0);
        weights.matmul_tn_rows_into(&g, 0..d, &mut out);
        std::hint::black_box(&out);
    });
    gemm_rows.push(("tn_800x32x256", s));

    // 3. Conv2d per layer on the mini_vgg shapes, K = 16, one thread.
    parallel::set_compute_threads(1);
    let mut layer_rows = Vec::new();
    let mut shape = TensorShape::new(3, 32, 32);
    for (i, channels) in [32usize, 32, 64].into_iter().enumerate() {
        let mut conv = Conv2d::new(
            format!("conv{}", i + 1),
            shape,
            channels,
            5,
            1,
            2,
            &mut StdRng::seed_from_u64(7),
        );
        let out_shape = conv.output_shape();
        let x = lcg_matrix(16, shape.len(), 3);
        let gout = lcg_matrix(16, out_shape.len(), 4);
        let fwd_s = time(20, || {
            std::hint::black_box(conv.forward(&x));
        });
        let bwd_s = time(20, || {
            std::hint::black_box(conv.backward(&gout));
        });
        // One GEMM forward, two backward, each 2·c_out·D·L per sample.
        let gemm = 2.0 * 16.0 * (channels * shape.c * 25 * out_shape.h * out_shape.w) as f64;
        layer_rows.push((conv.name().to_string(), fwd_s, gemm, bwd_s, 2.0 * gemm));
        shape = TensorShape::new(out_shape.c, out_shape.h / 2, out_shape.w / 2);
    }

    // 4. SFB reconstruction: 2 workers x 16 factors of a 1024x1024 layer.
    let batches: Vec<SfBatch> = (0..2)
        .map(|w| {
            SfBatch::from_factors(
                (0..16)
                    .map(|k| {
                        SufficientFactor::new(
                            lcg_matrix(1, 1024, 100 + 16 * w + k).as_slice().to_vec(),
                            lcg_matrix(1, 1024, 200 + 16 * w + k).as_slice().to_vec(),
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let sf_s = time(20, || {
        std::hint::black_box(reconstruct_sf_batches(&batches, 1024, 1024));
    });
    let sf_flops = 2.0 * 32.0 * 1024.0 * 1024.0;

    // 5a. Conv2d fwd+bwd, batch 32, CIFAR conv1 shape (3x32x32 -> 32 @ 5x5).
    let mut conv_ms = Vec::new();
    let x = lcg_matrix(32, 3 * 32 * 32, 3);
    for &threads in &thread_counts {
        parallel::set_compute_threads(threads);
        let mut conv = Conv2d::new(
            "conv1",
            TensorShape::new(3, 32, 32),
            32,
            5,
            1,
            2,
            &mut StdRng::seed_from_u64(7),
        );
        let gout = lcg_matrix(32, conv.output_shape().len(), 4);
        let s = time(10, || {
            conv.forward(&x);
            std::hint::black_box(conv.backward(&gout));
        });
        conv_ms.push((threads, s * 1e3));
    }

    // 5b. Full CIFAR-10-quick training step, batch 32.
    let mut step_rows = Vec::new();
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let head = SoftmaxCrossEntropy;
    for &threads in &thread_counts {
        parallel::set_compute_threads(threads);
        let mut net = presets::cifar_quick(10, 42);
        let s = time(10, || {
            let logits = net.forward(&x);
            let out = head.evaluate(&logits, &labels);
            net.backward(&out.grad);
            net.apply_own_grads(-0.001);
        });
        step_rows.push((threads, s * 1e3, 32.0 / s));
    }
    parallel::reset_compute_threads();

    let gemm_json: Vec<String> = gemm_rows
        .iter()
        .map(|(name, s)| {
            format!(
                "    {{\"shape\": \"{name}\", \"us\": {:.1}, \"gflops\": {:.2}}}",
                s * 1e6,
                conv_flops / s * 1e-9
            )
        })
        .collect();
    let layer_json: Vec<String> = layer_rows
        .iter()
        .map(|(name, fwd_s, fwd_flops, bwd_s, bwd_flops)| {
            format!(
                "    {{\"layer\": \"{name}\", \"fwd_ms\": {:.2}, \"fwd_gflops\": {:.2}, \"bwd_ms\": {:.2}, \"bwd_gflops\": {:.2}}}",
                fwd_s * 1e3,
                fwd_flops / fwd_s * 1e-9,
                bwd_s * 1e3,
                bwd_flops / bwd_s * 1e-9
            )
        })
        .collect();
    let conv_json: Vec<String> = conv_ms
        .iter()
        .map(|(t, ms)| format!("    {{\"threads\": {t}, \"fwd_bwd_ms\": {ms:.2}}}"))
        .collect();
    let step_json: Vec<String> = step_rows
        .iter()
        .map(|(t, ms, ips)| {
            format!("    {{\"threads\": {t}, \"step_ms\": {ms:.2}, \"img_per_s\": {ips:.1}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"host\": {{\"cores\": {cores}}},\n  \"gemm_512\": {{\n    \"naive_ms\": {:.2},\n    \"seed_ikj_ms\": {:.2},\n    \"blocked_ms\": {:.2},\n    \"blocked_gflops\": {:.2},\n    \"speedup_vs_naive\": {:.2},\n    \"speedup_vs_seed\": {:.2}\n  }},\n  \"conv_gemm_per_sample\": [\n{}\n  ],\n  \"mini_vgg_conv_k16\": [\n{}\n  ],\n  \"sf_reconstruct_1024x1024_pk32\": {{\"ms\": {:.2}, \"gflops\": {:.2}}},\n  \"conv2d_cifar_batch32\": [\n{}\n  ],\n  \"cifar_quick_step_batch32\": [\n{}\n  ]\n}}\n",
        naive_s * 1e3,
        seed_s * 1e3,
        blocked_s * 1e3,
        flops / blocked_s * 1e-9,
        naive_s / blocked_s,
        seed_s / blocked_s,
        gemm_json.join(",\n"),
        layer_json.join(",\n"),
        sf_s * 1e3,
        sf_flops / sf_s * 1e-9,
        conv_json.join(",\n"),
        step_json.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    eprintln!("wrote BENCH_kernels.json");
}
