//! Cache-blocked, panel-packed f32 GEMM kernel.
//!
//! One routine computes `C += A·B` over views of row-major storage that are
//! either row-major or transposed in place (one unit stride per operand), so
//! the three public multiply flavours (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are a single
//! kernel with swapped strides — no transpose is ever materialised outside
//! the pack panels.
//!
//! Layout follows the classic BLIS/GotoBLAS decomposition: the shared
//! dimension is split into `KC`-deep slabs, `B` slabs are packed into
//! `NR`-wide column panels and `A` slabs into `MR`-tall row panels, and a
//! fixed-size, branch-free microkernel accumulates an `MR × NR` register
//! tile. Packing is one routine with two bodies, chosen from the operand's
//! strides: where a panel's lanes are contiguous in memory it copies one
//! panel row per depth step, where the depth is contiguous it gathers one
//! element per lane into each panel row. The panels live in thread-local
//! scratch that is reused from call to call; every element the microkernel
//! reads is rewritten by the pack before it, so a reused panel cannot leak
//! into a result. The microkernel contains only ordinary `*`/`+` arithmetic on
//! fixed-size arrays; it is compiled three times — baseline, AVX2 and
//! AVX-512 — and the widest version the CPU supports is selected at runtime.
//! The `#[target_feature]` copies merely give the autovectorizer wider
//! registers: there are no intrinsics, and no FMA contraction, so all three
//! produce bitwise identical results.
//!
//! # Determinism and float semantics
//!
//! The microkernel seeds its accumulator tile from `C` and writes the tile
//! back, and the shared dimension advances in the middle loop, so each
//! output element accumulates its `k` products **strictly in ascending-k
//! order**, one multiply and one add per product — exactly the fold order
//! of the naive triple loop. The blocked kernel is therefore bitwise
//! identical to the naive reference on every shape (the tests assert
//! this), and NaN/Inf propagate like plain IEEE arithmetic: there is no
//! zero-skipping fast path.

use crate::isa::{detect_isa, Isa};
use std::cell::RefCell;

/// Depth of one packed slab of the shared dimension.
const KC: usize = 256;
/// Rows of `A` packed per pass (one `A` block stays L2-resident).
const MC: usize = 96;
/// Columns of `B` packed per pass (one `B` slab stays cache-resident).
const NC: usize = 1024;

/// A microkernel: multiplies one packed `A` row panel by one packed `B`
/// column panel, accumulating into the `C` tile at the head of the third
/// argument (`ldc` row stride).
///
/// # Safety
///
/// Implementations compiled with `#[target_feature]` must only be invoked
/// after the corresponding CPU feature has been detected at runtime.
type MicroKernel = unsafe fn(&[f32], &[f32], &mut [f32], usize);

/// `C += A·B` for views with one unit stride each.
///
/// * `A` is `m × k`: element `(i, p)` lives at `a[i*a_rs + p*a_cs]`.
/// * `B` is `k × n`: element `(p, j)` lives at `b[p*b_rs + j*b_cs]`.
/// * `C` is `m × n`, row-major and contiguous (`c.len() == m*n`).
///
/// Passing `(a_rs, a_cs) = (1, lda)` reads `A` transposed in place; the same
/// trick on `B` yields `A·Bᵀ`.
///
/// # Panics
///
/// Panics if neither stride of an operand is 1 (a row-major matrix and its
/// in-place transpose are the only layouts the packers read), if a
/// stride/dimension combination addresses past the end of `a` or `b` (via
/// slice indexing), or if `c.len() != m*n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    c: &mut [f32],
) {
    assert_eq!(
        c.len(),
        m * n,
        "gemm: C buffer is {} elements, want {m}x{n}",
        c.len()
    );
    assert!(
        a_rs == 1 || a_cs == 1,
        "gemm: operand A has strides ({a_rs}, {a_cs}); one of them must be 1"
    );
    assert!(
        b_rs == 1 || b_cs == 1,
        "gemm: operand B has strides ({b_rs}, {b_cs}); one of them must be 1"
    );
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // A panel's lanes are rows of `A` and columns of `B`; its depth is `k`.
    let view_a = View {
        data: a,
        lane: a_rs,
        depth: a_cs,
    };
    let view_b = View {
        data: b,
        lane: b_cs,
        depth: b_rs,
    };
    match detect_isa() {
        // Safety: `detect_isa` returned a variant only if the matching CPU
        // feature is present, which is the contract of each microkernel.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => gemm_blocked::<8, 32>(m, n, k, view_a, view_b, c, mk_avx512),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => gemm_blocked::<4, 16>(m, n, k, view_a, view_b, c, mk_avx2),
        Isa::Baseline => gemm_blocked::<4, 16>(m, n, k, view_a, view_b, c, mk_baseline),
    }
}

/// A read-only operand as the packers see it: the element in panel lane `x`
/// at depth `p` lives at `data[x*lane + p*depth]`, and one of the two
/// strides is 1 (asserted by [`gemm`]).
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    lane: usize,
    depth: usize,
}

thread_local! {
    /// The calling thread's `A` and `B` pack panels, grown on demand and
    /// kept between calls: a conv layer issues three GEMMs per sample, and
    /// allocating and zero-filling up to 1 MiB for each cost as much as the
    /// arithmetic at `m = 32`.
    static PANELS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The blocked driver, generic over the microkernel tile shape.
fn gemm_blocked<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
    mk: MicroKernel,
) {
    PANELS.with_borrow_mut(|(apack, bpack)| {
        let kc_max = k.min(KC);
        let a_len = pad_to(m.min(MC), MR) * kc_max;
        let b_len = pad_to(n.min(NC), NR) * kc_max;
        if apack.len() < a_len {
            apack.resize(a_len, 0.0);
        }
        if bpack.len() < b_len {
            bpack.resize(b_len, 0.0);
        }

        let mut jc = 0;
        while jc < n {
            let nc = (n - jc).min(NC);
            // The shared dimension advances in the *middle* loop so every C
            // tile sees its k-slabs in ascending order — the determinism
            // contract.
            let mut pc = 0;
            while pc < k {
                let kc = (k - pc).min(KC);
                pack::<NR>(bpack, b, jc, nc, pc, kc);
                let mut ic = 0;
                while ic < m {
                    let mc = (m - ic).min(MC);
                    pack::<MR>(apack, a, ic, mc, pc, kc);
                    run_tiles::<MR, NR>(apack, bpack, c, n, ic, mc, jc, nc, kc, mk);
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
}

/// Rounds `x` up to a multiple of `to`.
fn pad_to(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Packs lanes `x0..x0+lanes` of `src` over depth `p0..p0+kc` into `W`-wide
/// panels, depth-major within each panel (`[p][x]`). Only the ragged last
/// panel is padded (with zeros), and every element of the `lanes.div_ceil(W)`
/// panels is written, so `dst` may hold anything on entry.
fn pack<const W: usize>(
    dst: &mut [f32],
    src: View<'_>,
    x0: usize,
    lanes: usize,
    p0: usize,
    kc: usize,
) {
    let origin = x0 * src.lane + p0 * src.depth;
    for (i, panel) in dst
        .chunks_exact_mut(W * kc)
        .enumerate()
        .take(lanes.div_ceil(W))
    {
        let w = (lanes - i * W).min(W);
        let data = &src.data[origin + i * W * src.lane..];
        // One range check per panel instead of one per element.
        assert!(
            (w - 1) * src.lane + (kc - 1) * src.depth < data.len(),
            "gemm: operand view addresses past the end of its buffer"
        );
        for (p, row) in panel.chunks_exact_mut(W).enumerate() {
            let at = p * src.depth;
            if w < W {
                for (x, slot) in row[..w].iter_mut().enumerate() {
                    *slot = data[at + x * src.lane];
                }
                row[w..].fill(0.0);
            } else if src.lane == 1 {
                // The panel's lanes are contiguous in memory: a row copy.
                row.copy_from_slice(&data[at..at + W]);
            } else {
                // The depth is contiguous (`src.depth == 1`): gather one
                // element from each lane's run, writing whole panel rows.
                for (x, slot) in row.iter_mut().enumerate() {
                    *slot = data[at + x * src.lane];
                }
            }
        }
    }
}

/// Sweeps the microkernel over every `MR × NR` tile of the packed block.
#[allow(clippy::too_many_arguments)]
fn run_tiles<const MR: usize, const NR: usize>(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    mk: MicroKernel,
) {
    let mut r0 = 0;
    let mut apanel_idx = 0;
    while r0 < mc {
        let mr = (mc - r0).min(MR);
        let apanel = &apack[apanel_idx * kc * MR..(apanel_idx + 1) * kc * MR];
        let mut j0 = 0;
        let mut bpanel_idx = 0;
        while j0 < nc {
            let nr = (nc - j0).min(NR);
            let bpanel = &bpack[bpanel_idx * kc * NR..(bpanel_idx + 1) * kc * NR];
            let coff = (ic + r0) * ldc + jc + j0;
            if mr == MR && nr == NR {
                // Safety: `mk` matches the ISA verified by `detect_isa`.
                unsafe { mk(apanel, bpanel, &mut c[coff..], ldc) };
            } else {
                microkernel_edge::<MR, NR>(apanel, bpanel, &mut c[coff..], ldc, mr, nr);
            }
            j0 += NR;
            bpanel_idx += 1;
        }
        r0 += MR;
        apanel_idx += 1;
    }
}

/// The register-tiled inner loop on a full `MR × NR` tile. The accumulator
/// is seeded from `C` and written back whole, so the per-element fold order
/// is ascending k with one mul and one add per product.
#[inline(always)]
fn microkernel_body<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
    }
    for (ak, bk) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (r, row) in acc.iter_mut().enumerate() {
            let a = ak[r];
            for (j, x) in row.iter_mut().enumerate() {
                *x += a * bk[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + NR].copy_from_slice(row);
    }
}

/// Baseline microkernel (no feature requirements; `unsafe fn` only to share
/// the [`MicroKernel`] signature).
unsafe fn mk_baseline(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body::<4, 16>(apanel, bpanel, c, ldc);
}

/// AVX2 compilation of the identical arithmetic (wider autovectorization,
/// same operations in the same order — bitwise identical results).
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk_avx2(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body::<4, 16>(apanel, bpanel, c, ldc);
}

/// AVX-512 compilation of the identical arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mk_avx512(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize) {
    microkernel_body::<8, 32>(apanel, bpanel, c, ldc);
}

/// Ragged edge tiles: same arithmetic through a local tile, touching only
/// the `mr × nr` valid region of `C`. Zero-padded packing lanes multiply
/// into accumulator lanes that are never written back (a padding zero times
/// a NaN stays in a dead lane, so padding cannot leak into results).
fn microkernel_edge<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
    }
    for (ak, bk) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)) {
        for (r, row) in acc.iter_mut().enumerate() {
            let a = ak[r];
            for (j, x) in row.iter_mut().enumerate() {
                *x += a * bk[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&row[..nr]);
    }
}
