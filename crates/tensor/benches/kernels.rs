//! Microbenchmarks for the tensor kernels used on the hot paths of the
//! threaded runtime: dense GEMM (FC forward/backward), rank-1 reconstruction
//! (the SFB receive path) and 1-bit quantization (the CNTK baseline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poseidon_tensor::compress::{make_compressor, Codec};
use poseidon_tensor::quantize::OneBitQuantizer;
use poseidon_tensor::{Matrix, SfBatch, SufficientFactor};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    poseidon_tensor::init::gaussian(&mut m, 0.0, 1.0, &mut StdRng::seed_from_u64(seed));
    m
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    for &n in &[64usize, 128, 256] {
        let a = random(n, n, 1);
        let b = random(n, n, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

/// The three GEMMs a conv layer issues per sample (`c_out = 32`, `D = 800`,
/// `L = 256`): forward `W·col`, `dW = G·colᵀ` and `dcol = Wᵀ·G`.
fn bench_conv_gemms(c: &mut Criterion) {
    let (c_out, d, l) = (32usize, 800usize, 256usize);
    let weights = random(c_out, d, 4);
    let col = random(d, l, 5);
    let grad = random(c_out, l, 6);
    let mut g = c.benchmark_group("conv_gemm_per_sample");
    g.bench_function("nn_32x800x256", |bench| {
        bench.iter(|| std::hint::black_box(weights.matmul(&col)));
    });
    g.bench_function("nt_32x256x800", |bench| {
        bench.iter(|| std::hint::black_box(grad.matmul_nt(&col)));
    });
    g.bench_function("tn_800x32x256", |bench| {
        bench.iter(|| std::hint::black_box(weights.matmul_tn(&grad)));
    });
    g.finish();
}

fn bench_sf_reconstruct(c: &mut Criterion) {
    let mut g = c.benchmark_group("sf_reconstruct");
    for &(m, n, k) in &[(256usize, 256usize, 32usize), (1024, 1024, 32)] {
        let batch = SfBatch::from_factors(
            (0..k)
                .map(|i| {
                    SufficientFactor::new(
                        random(1, m, i as u64).as_slice().to_vec(),
                        random(1, n, 100 + i as u64).as_slice().to_vec(),
                    )
                })
                .collect(),
        );
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}x{n}xK{k}")),
            &batch,
            |bench, batch| {
                bench.iter(|| std::hint::black_box(batch.reconstruct()));
            },
        );
    }
    g.finish();
}

fn bench_quantize(c: &mut Criterion) {
    let grad = random(512, 512, 3);
    // The scalar reference the codec plane is tested against...
    c.bench_function("one_bit_quantize_512x512", |b| {
        let mut q = OneBitQuantizer::new(512, 512);
        b.iter(|| std::hint::black_box(q.quantize(&grad)));
    });
    // ...and the in-place encoder the codec plane runs, on the same input.
    c.bench_function("one_bit_encode_in_place_512x512", |b| {
        let mut comp = make_compressor(Codec::OneBit, grad.len());
        let mut out = vec![0u8; Codec::OneBit.payload_bytes(grad.len())];
        b.iter(|| comp.compress_into(std::hint::black_box(grad.as_slice()), &mut out));
    });
}

criterion_group!(
    benches,
    bench_gemm,
    bench_conv_gemms,
    bench_sf_reconstruct,
    bench_quantize
);
criterion_main!(benches);
