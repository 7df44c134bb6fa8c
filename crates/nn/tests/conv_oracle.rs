//! `Conv2d` against a direct seven-loop convolution, bit for bit.
//!
//! The oracle below never builds a column matrix. It spells out the fold
//! order each result element is documented to have (DESIGN §2.3):
//!
//! * forward: `0 + Σ w·x` over ascending `(ch, ky, kx)` — padding taps are
//!   explicit `w·0` products — and then `+ bias`;
//! * `dX`: per input pixel, `0 + Σ` over ascending `(oy, ox)` of the column
//!   gradient `0 + Σ_co w·g` (ascending `co`) of the tap that reads the pixel;
//! * `dW`: per sample `0 + Σ g·x` over ascending output position `l`, then
//!   the fixed stride-doubling tree over the sample index;
//! * `db`: per sample the left-to-right row sum of `g`, then the same tree.
//!
//! `Conv2d` must reproduce every bit at 1, 2 and 7 compute threads, on the
//! first pass and on a second one that reuses the layer's scratch — and `dW`
//! and `db` also on a pass that was told nobody reads `dX` and skips it.

use poseidon_nn::layer::{BackwardNeeds, Layer, TensorShape};
use poseidon_nn::layers::Conv2d;
use poseidon_nn::parallel;
use poseidon_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Clone, Copy, Debug)]
struct Case {
    c: usize,
    h: usize,
    w: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    batch: usize,
}

const fn case(
    (c, h, w): (usize, usize, usize),
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    batch: usize,
) -> Case {
    Case {
        c,
        h,
        w,
        c_out,
        k,
        stride,
        pad,
        batch,
    }
}

const CASES: [Case; 15] = [
    // The three `mini_vgg` layers of the `vgg_hybrid_tcp` workload.
    case((3, 32, 32), 32, 5, 1, 2, 16),
    case((32, 16, 16), 32, 5, 1, 2, 16),
    case((32, 8, 8), 64, 5, 1, 2, 16),
    // Non-square input, stride 2, `c_out` not a multiple of any tile height.
    case((2, 7, 11), 5, 3, 2, 1, 5),
    // Stride 3, no padding, one sample.
    case((3, 10, 9), 9, 3, 3, 0, 1),
    // Padding wider than the kernel's half: whole tap rows read only zeros.
    case((1, 6, 6), 33, 3, 1, 4, 5),
    // 1×1 kernel, `L = 35` not a multiple of the tile width.
    case((4, 5, 7), 7, 1, 1, 0, 3),
    // Stride 2 under padding 3 with a 5×5 kernel.
    case((2, 9, 9), 3, 5, 2, 3, 2),
    // The smallest interesting convolution.
    case((1, 3, 3), 1, 3, 1, 1, 1),
    // A single output column and row: every tap but one is padding.
    case((2, 2, 2), 4, 5, 3, 2, 5),
    // Wide and flat: one output row, `L = 38`.
    case((3, 3, 40), 10, 3, 1, 0, 2),
    // Stride-1 tap rows are copied and added eight lanes at a time plus a
    // tail: output widths 1 and 7 (tail only) and 33 (four steps and a
    // tail of one).
    case((2, 4, 3), 3, 3, 1, 0, 3),
    case((3, 6, 7), 4, 3, 1, 1, 2),
    case((2, 5, 33), 5, 3, 1, 1, 2),
    // Stride 2 under padding 2 with a 3×3 kernel.
    case((3, 8, 10), 4, 3, 2, 2, 3),
];

fn lcg(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

/// The stride-doubling tree of `parallel::tree_reduce`, written out again so
/// the oracle shares no code with the layer: `0+=1, 2+=3, …`, then
/// `0+=2, 4+=6, …`.
fn tree_sum(mut parts: Vec<Vec<f32>>) -> Vec<f32> {
    let n = parts.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let right = parts[i + stride].clone();
            for (a, b) in parts[i].iter_mut().zip(&right) {
                *a += b;
            }
            i += 2 * stride;
        }
        stride *= 2;
    }
    parts.swap_remove(0)
}

struct Oracle {
    out: Vec<f32>,
    grad_in: Vec<f32>,
    grad_w: Vec<f32>,
    grad_b: Vec<f32>,
}

/// Direct convolution and its gradients for `x` (batch × c·h·w) and the top
/// gradient `g` (batch × c_out·ho·wo), weights `wt` (c_out × c·k·k).
fn oracle(cs: Case, wt: &[f32], bias: &[f32], x: &[f32], g: &[f32]) -> Oracle {
    let Case {
        c,
        h,
        w,
        c_out,
        k,
        stride,
        pad,
        batch,
    } = cs;
    let ho = (h + 2 * pad - k) / stride + 1;
    let wo = (w + 2 * pad - k) / stride + 1;
    let (d, l, in_len) = (c * k * k, ho * wo, c * h * w);
    // The input pixel tap (ky, kx) reads at output (oy, ox), if any.
    let pixel = |oy: usize, ox: usize, ky: usize, kx: usize| -> Option<(usize, usize)> {
        let iy = (oy * stride + ky).checked_sub(pad).filter(|&iy| iy < h)?;
        let ix = (ox * stride + kx).checked_sub(pad).filter(|&ix| ix < w)?;
        Some((iy, ix))
    };

    let mut out = vec![0.0f32; batch * c_out * l];
    let mut grad_in = vec![0.0f32; batch * in_len];
    let mut gw_parts = Vec::new();
    let mut gb_parts = Vec::new();
    for s in 0..batch {
        let xs = &x[s * in_len..(s + 1) * in_len];
        let gs = &g[s * c_out * l..(s + 1) * c_out * l];
        let tap_input = |ch: usize, ky: usize, kx: usize, oy: usize, ox: usize| -> f32 {
            pixel(oy, ox, ky, kx).map_or(0.0, |(iy, ix)| xs[(ch * h + iy) * w + ix])
        };

        // Forward.
        for co in 0..c_out {
            for oy in 0..ho {
                for ox in 0..wo {
                    let mut acc = 0.0f32;
                    for ch in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let wv = wt[co * d + (ch * k + ky) * k + kx];
                                acc += wv * tap_input(ch, ky, kx, oy, ox);
                            }
                        }
                    }
                    out[(s * c_out + co) * l + oy * wo + ox] = acc + bias[co];
                }
            }
        }

        // dW_s and db_s.
        let mut gw = vec![0.0f32; c_out * d];
        let mut gb = vec![0.0f32; c_out];
        for co in 0..c_out {
            let grow = &gs[co * l..(co + 1) * l];
            for ch in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        let mut acc = 0.0f32;
                        for oy in 0..ho {
                            for ox in 0..wo {
                                acc += grow[oy * wo + ox] * tap_input(ch, ky, kx, oy, ox);
                            }
                        }
                        gw[co * d + (ch * k + ky) * k + kx] = acc;
                    }
                }
            }
            let mut acc = grow[0];
            for &v in &grow[1..] {
                acc += v;
            }
            gb[co] = acc;
        }
        gw_parts.push(gw);
        gb_parts.push(gb);

        // dX: every pixel folds its (oy, ox) contributions ascending.
        for ch in 0..c {
            for iy in 0..h {
                for ix in 0..w {
                    let mut acc = 0.0f32;
                    for oy in 0..ho {
                        for ox in 0..wo {
                            // At most one tap of this output position reads
                            // the pixel.
                            let Some(ky) = (iy + pad).checked_sub(oy * stride).filter(|&ky| ky < k)
                            else {
                                continue;
                            };
                            let Some(kx) = (ix + pad).checked_sub(ox * stride).filter(|&kx| kx < k)
                            else {
                                continue;
                            };
                            let tap = (ch * k + ky) * k + kx;
                            let mut dcol = 0.0f32;
                            for co in 0..c_out {
                                dcol += wt[co * d + tap] * gs[co * l + oy * wo + ox];
                            }
                            acc += dcol;
                        }
                    }
                    grad_in[s * in_len + (ch * h + iy) * w + ix] = acc;
                }
            }
        }
    }
    Oracle {
        out,
        grad_in,
        grad_w: tree_sum(gw_parts),
        grad_b: tree_sum(gb_parts),
    }
}

/// Bitwise equality, except that any NaN equals any NaN: which payload a
/// NaN·NaN or NaN + NaN keeps depends on operand order, which is the
/// compiler's choice and not part of the fold-order contract.
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#x}), the direct convolution gives {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Runs `Conv2d` on `cs` at `threads` compute threads and compares four
/// consecutive forward/backward passes with `want`: two full ones, one
/// without the input gradient, and a full one over what that left behind.
fn check(
    cs: Case,
    threads: usize,
    wt: &[f32],
    bias: &[f32],
    x: &Matrix,
    g: &Matrix,
    want: &Oracle,
) {
    // The thread-count knob is thread-local: a fresh thread per configuration.
    std::thread::scope(|scope| {
        scope.spawn(|| {
            parallel::set_compute_threads(threads);
            let shape = TensorShape::new(cs.c, cs.h, cs.w);
            let mut rng = StdRng::seed_from_u64(1);
            let mut conv = Conv2d::new("conv", shape, cs.c_out, cs.k, cs.stride, cs.pad, &mut rng);
            let params = conv.params_mut().expect("conv has parameters");
            params.weights.as_mut_slice().copy_from_slice(wt);
            params.bias.as_mut_slice().copy_from_slice(bias);
            let no_input_grad = BackwardNeeds {
                input_grad: false,
                ..BackwardNeeds::ALL
            };
            let passes = [
                BackwardNeeds::ALL,
                BackwardNeeds::ALL,
                no_input_grad,
                BackwardNeeds::ALL,
            ];
            for (pass, needs) in passes.into_iter().enumerate() {
                let what = |part: &str| format!("{cs:?} threads={threads} pass={pass}: {part}");
                conv.set_backward_needs(needs);
                let out = conv.forward(x);
                assert_same(out.as_slice(), &want.out, &what("forward"));
                let grad_in = conv.backward(g);
                if needs.input_grad {
                    assert_same(grad_in.as_slice(), &want.grad_in, &what("dX"));
                } else {
                    assert_eq!(grad_in.shape(), (1, 1), "{}", what("dX placeholder"));
                }
                let p = conv.params().expect("conv has parameters");
                assert_same(p.grad_weights.as_slice(), &want.grad_w, &what("dW"));
                assert_same(p.grad_bias.as_slice(), &want.grad_b, &what("db"));
            }
        });
    });
}

#[test]
fn conv2d_matches_the_direct_convolution_bit_for_bit_at_every_thread_count() {
    for (i, &cs) in CASES.iter().enumerate() {
        let ho = (cs.h + 2 * cs.pad - cs.k) / cs.stride + 1;
        let wo = (cs.w + 2 * cs.pad - cs.k) / cs.stride + 1;
        let (d, in_len, out_len) = (cs.c * cs.k * cs.k, cs.c * cs.h * cs.w, cs.c_out * ho * wo);
        let seed = 100 + 10 * i as u64;
        let wt = lcg(cs.c_out * d, seed);
        let bias = lcg(cs.c_out, seed + 1);
        let x = Matrix::from_vec(cs.batch, in_len, lcg(cs.batch * in_len, seed + 2));
        let g = Matrix::from_vec(cs.batch, out_len, lcg(cs.batch * out_len, seed + 3));
        let want = oracle(cs, &wt, &bias, x.as_slice(), g.as_slice());
        for threads in [1, 2, 7] {
            check(cs, threads, &wt, &bias, &x, &g, &want);
        }
    }
}

#[test]
fn non_finite_weights_and_inputs_meet_the_padding_zeros_like_the_direct_convolution() {
    // An infinite weight times a padding zero is NaN at the border and
    // ±Inf inside; a NaN pixel poisons exactly the outputs whose window
    // holds it. No zero-skip may hide either.
    let cs = case((2, 5, 6), 3, 3, 1, 1, 3);
    let (d, in_len, out_len) = (2 * 9, 2 * 5 * 6, 3 * 5 * 6);
    let mut wt = lcg(3 * d, 7);
    wt[4] = f32::INFINITY;
    wt[d + 9] = f32::NEG_INFINITY;
    let bias = lcg(3, 8);
    let mut xv = lcg(3 * in_len, 9);
    xv[in_len + 14] = f32::NAN;
    let mut gv = lcg(3 * out_len, 10);
    gv[2 * out_len + 3] = f32::INFINITY;
    let x = Matrix::from_vec(3, in_len, xv);
    let g = Matrix::from_vec(3, out_len, gv);
    let want = oracle(cs, &wt, &bias, x.as_slice(), g.as_slice());
    assert!(want.out.iter().any(|v| v.is_nan()) && want.out.iter().any(|v| v.is_finite()));
    for threads in [1, 2, 7] {
        check(cs, threads, &wt, &bias, &x, &g, &want);
    }
}
