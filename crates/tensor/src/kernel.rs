//! Cache-blocked, panel-packed f32 GEMM kernel.
//!
//! One routine computes `C = A·B` over views of row-major storage that are
//! either row-major or transposed in place (one unit stride per operand), so
//! the three public multiply flavours (`A·B`, `Aᵀ·B`, `A·Bᵀ`) are a single
//! kernel with swapped strides — no transpose is ever materialised outside
//! the pack panels.
//!
//! Layout follows the classic BLIS/GotoBLAS decomposition: the shared
//! dimension is split into `KC`-deep slabs, `B` slabs are packed into
//! `NR`-wide column panels and `A` slabs into `MR`-tall row panels, and a
//! fixed-size, branch-free microkernel accumulates an `MR × NR` register
//! tile. Packing is one routine with three bodies, chosen from the operand's
//! strides: where a panel's lanes are contiguous in memory it copies one
//! panel row per depth step, where the depth is contiguous it transposes
//! 4 × 4 blocks in registers, and a ragged last panel is gathered and padded
//! with zeros. The panels live in thread-local scratch that is reused from
//! call to call; every element the microkernel reads is rewritten by the
//! pack before it, so a reused panel cannot leak into a result. The
//! microkernel contains only ordinary `*`/`+` arithmetic on fixed-size
//! arrays; it is compiled three times — baseline, AVX2 and AVX-512 — and the
//! widest version the CPU supports is selected at runtime. A ragged edge
//! tile runs that same microkernel on a local, zero-padded `MR × NR` copy of
//! its part of `C`. The `#[target_feature]` copies merely give the
//! autovectorizer wider registers: there are no intrinsics in the
//! arithmetic, and no FMA contraction, so all three produce bitwise
//! identical results.
//!
//! A product of at most 16 rows with a depth-contiguous `B` — an FC layer's
//! `x·Wᵀ` at a batch of 16 — skips the blocked loops. There the transposing
//! `B` pack would stream the whole weight matrix through a second copy to
//! feed 16 rows of arithmetic. Instead `A` is packed once into 16-lane depth
//! rows, each output column keeps one accumulator across those rows, and
//! `B` is broadcast straight from its contiguous runs, so the weights are
//! read once. That body is compiled per tier in the same way.
//!
//! # Determinism and float semantics
//!
//! The microkernel seeds its accumulator tile with `+0.0` on the first
//! `k`-slab and from `C` on every later one, writes the tile back, and the
//! shared dimension advances in the middle loop, so each output element
//! accumulates its `k` products **strictly in ascending-k order** starting
//! from `+0.0`, one multiply and one add per product — exactly the fold
//! order of the naive triple loop. The small-`m` body folds each element
//! the same way in one pass. Both are therefore bitwise identical to the
//! naive reference on every shape (the tests assert this), and NaN/Inf
//! propagate like plain IEEE arithmetic: there is no zero-skipping fast
//! path.

#![deny(clippy::undocumented_unsafe_blocks)]

use crate::isa::Isa;
pub use crate::isa::Tier;
use std::cell::RefCell;

/// Depth of one packed slab of the shared dimension.
const KC: usize = 256;
/// Rows of `A` packed per pass (one `A` block stays L2-resident).
const MC: usize = 96;
/// Columns of `B` packed per pass (one `B` slab stays cache-resident).
const NC: usize = 1024;

/// A microkernel: multiplies one packed `A` row panel by one packed `B`
/// column panel into the `C` tile at the head of the third argument (`ldc`
/// row stride), onto the tile's contents when the last argument is `true`
/// and onto `+0.0` otherwise.
///
/// # Safety
///
/// Implementations compiled with `#[target_feature]` must only be invoked
/// after the corresponding CPU feature has been detected at runtime.
type MicroKernel = unsafe fn(&[f32], &[f32], &mut [f32], usize, bool);

/// `C = A·B` for views with one unit stride each, on the widest [`Tier`]
/// this CPU runs.
///
/// * `A` is `m × k`: element `(i, p)` lives at `a[i*a_rs + p*a_cs]`.
/// * `B` is `k × n`: element `(p, j)` lives at `b[p*b_rs + j*b_cs]`.
/// * `C` is `m × n`, row-major and contiguous (`c.len() == m*n`); what it
///   holds on entry is never read.
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
    gemm_on(Tier::widest(), m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, c);
}

/// [`gemm`] through one named compiled copy of the microkernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_on(
    tier: Tier,
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
    if k == 0 {
        // The empty sum.
        c.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
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
    if m <= SMALL_M && view_b.depth == 1 {
        let body: SmallMBody = match tier.isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => small_m_avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => small_m_avx2,
            Isa::Baseline => small_m_baseline,
        };
        return gemm_small_m(m, n, k, view_a, view_b, c, body);
    }
    match tier.isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => gemm_blocked::<8, 32>(m, n, k, view_a, view_b, c, mk_avx512),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => gemm_blocked::<4, 16>(m, n, k, view_a, view_b, c, mk_avx2),
        Isa::Baseline => gemm_blocked::<4, 16>(m, n, k, view_a, view_b, c, mk_baseline),
    }
}

/// A read-only operand as the packers see it: the element in panel lane `x`
/// at depth `p` lives at `data[x*lane + p*depth]`, and one of the two
/// strides is 1 (asserted by [`gemm_on`]).
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
    /// arithmetic at `m = 32`. The small-`m` body packs its `A` into the
    /// first.
    static PANELS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The blocked driver, generic over the microkernel tile shape. `mk` must
/// be a microkernel of the tier [`gemm_on`] was handed.
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
                    let block = Block {
                        ic,
                        mc,
                        jc,
                        nc,
                        kc,
                        onto_c: pc > 0,
                    };
                    run_tiles::<MR, NR>(apack, bpack, c, n, block, mk);
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    });
}

/// Rows of `A` up to which a product with a depth-contiguous `B` skips the
/// blocked loops: the register-tiled body holds one output column's `m`
/// rows in one accumulator of this many lanes.
const SMALL_M: usize = 16;

/// A small-`m` body: `C = A·B` from `A` packed as one [`SMALL_M`]-lane row
/// per depth step and a depth-contiguous `B`, for `m` rows and `n` columns.
///
/// # Safety
///
/// As for [`MicroKernel`].
type SmallMBody = unsafe fn(&[[f32; SMALL_M]], View<'_>, usize, usize, &mut [f32]);

/// The product of `m ≤ SMALL_M` rows and a depth-contiguous `B` (the
/// `x·Wᵀ` of an FC layer at a batch of 16): `A` is packed once into `k`
/// lane rows, zero past row `m`, and `B` is read where it lies, each of its
/// values once, so the weights stream through once per product instead of
/// through the transposing pack. `body` must be a small-`m` body of the
/// tier [`gemm_on`] was handed.
fn gemm_small_m(
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
    body: SmallMBody,
) {
    PANELS.with_borrow_mut(|(apack, _)| {
        if apack.len() < k * SMALL_M {
            apack.resize(k * SMALL_M, 0.0);
        }
        let (lanes, _) = apack[..k * SMALL_M].as_chunks_mut::<SMALL_M>();
        for (p, lane) in lanes.iter_mut().enumerate() {
            for (i, x) in lane.iter_mut().enumerate() {
                *x = if i < m {
                    a.data[i * a.lane + p * a.depth]
                } else {
                    0.0
                };
            }
        }
        // SAFETY: `body` is the small-`m` body of the tier `gemm_on` was
        // handed, and a `Tier` exists only for a detected ISA.
        unsafe { body(lanes, b, m, n, c) };
    });
}

/// The small-`m` arithmetic, `NJ` output columns at a time: column `j`'s
/// accumulator holds its `SMALL_M` rows, starts at `+0.0` and adds
/// `A(·, p)·B(p, j)` for `p = 0, 1, …, k-1` — one multiply and one add per
/// product, the naive loop's fold. `B(p, j)` is broadcast from column `j`'s
/// contiguous run. Lanes past row `m` multiply padding zeros and are never
/// written back, so the NaN that `0·∞` leaves there goes nowhere.
#[inline(always)]
fn small_m_body<const NJ: usize>(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
) {
    let k = lanes.len();
    let column = |j: usize| &b.data[j * b.lane..][..k];
    let mut j0 = 0;
    while j0 < n {
        let nj = (n - j0).min(NJ);
        let mut acc = [[0.0f32; SMALL_M]; NJ];
        if nj == NJ {
            acc = small_m_columns(lanes, std::array::from_fn(|x| column(j0 + x)));
        } else {
            for (x, acc) in acc[..nj].iter_mut().enumerate() {
                [*acc] = small_m_columns(lanes, [column(j0 + x)]);
            }
        }
        for (x, acc) in acc[..nj].iter().enumerate() {
            for (i, &v) in acc[..m].iter().enumerate() {
                c[i * n + j0 + x] = v;
            }
        }
        j0 += NJ;
    }
}

/// `Σₚ A(·, p)·cols[x][p]` for each column `x`, over every depth step `p`
/// in ascending order from `+0.0`.
#[inline(always)]
fn small_m_columns<const NJ: usize>(
    lanes: &[[f32; SMALL_M]],
    cols: [&[f32]; NJ],
) -> [[f32; SMALL_M]; NJ] {
    let mut acc = [[0.0f32; SMALL_M]; NJ];
    for (p, a) in lanes.iter().enumerate() {
        for (acc, col) in acc.iter_mut().zip(&cols) {
            let w = col[p];
            for (x, &a) in acc.iter_mut().zip(a) {
                *x += a * w;
            }
        }
    }
    acc
}

/// Baseline small-`m` body (no feature requirements).
///
/// # Safety
///
/// None: every CPU of the target runs it.
unsafe fn small_m_baseline(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
) {
    small_m_body::<2>(lanes, b, m, n, c);
}

/// AVX2 compilation of the identical small-`m` arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn small_m_avx2(lanes: &[[f32; SMALL_M]], b: View<'_>, m: usize, n: usize, c: &mut [f32]) {
    small_m_body::<4>(lanes, b, m, n, c);
}

/// AVX-512 compilation of the identical small-`m` arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn small_m_avx512(lanes: &[[f32; SMALL_M]], b: View<'_>, m: usize, n: usize, c: &mut [f32]) {
    small_m_body::<8>(lanes, b, m, n, c);
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
        if w < W {
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                let at = p * src.depth;
                for (x, slot) in row[..w].iter_mut().enumerate() {
                    *slot = data[at + x * src.lane];
                }
                row[w..].fill(0.0);
            }
        } else if src.lane == 1 {
            // The panel's lanes are contiguous in memory: a row copy.
            for (p, row) in panel.chunks_exact_mut(W).enumerate() {
                let at = p * src.depth;
                row.copy_from_slice(&data[at..at + W]);
            }
        } else {
            // The depth is contiguous (`src.depth == 1`): each lane's run
            // becomes a panel column.
            pack_transposed::<W>(panel, data, src.lane, kc);
        }
    }
}

/// Packs one full `W`-lane panel of a depth-contiguous operand: lane `x`'s
/// `kc` values are `data[x*lane..][..kc]`, and they become column `x` of
/// the `kc × W` panel. Four lanes by four depth steps at a time are loaded
/// as four vectors, transposed in registers and stored as four panel-row
/// pieces; the depth steps past the last multiple of four are gathered.
///
/// # Panics
///
/// Panics unless `panel` is `kc × W` and `data` reaches lane `W - 1` at
/// depth `kc - 1` — the bounds every load below relies on.
#[cfg(target_arch = "x86_64")]
fn pack_transposed<const W: usize>(panel: &mut [f32], data: &[f32], lane: usize, kc: usize) {
    use std::arch::x86_64::{
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    const { assert!(W.is_multiple_of(4), "panel widths are multiples of 4") };
    assert_eq!(panel.len(), kc * W, "gemm: panel is kc x W");
    assert!(
        (W - 1) * lane + kc - 1 < data.len(),
        "gemm: operand view addresses past the end of its buffer"
    );
    let quads = kc / 4 * 4;
    let src = data.as_ptr();
    for (p, rows) in panel[..quads * W].chunks_exact_mut(4 * W).enumerate() {
        let p = 4 * p;
        let dst = rows.as_mut_ptr();
        for x in (0..W).step_by(4) {
            let run = |j: usize| (x + j) * lane + p;
            // SAFETY: SSE is part of every x86_64 CPU. Lane `x + j < W` at
            // depths `p..p + 4 <= kc` ends at `(x + j) * lane + p + 3 <=
            // (W - 1) * lane + kc - 1`, inside `data` by the assertion
            // above; panel row `j < 4` of `rows` (4 rows of `W`) holds
            // columns `x..x + 4 <= W` at `j * W + x`, inside `rows`. The
            // unaligned loads and stores take any alignment.
            unsafe {
                let [r0, r1, r2, r3] = [0, 1, 2, 3].map(|j| _mm_loadu_ps(src.add(run(j))));
                let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
                let (t2, t3) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
                _mm_storeu_ps(dst.add(x), _mm_movelh_ps(t0, t1));
                _mm_storeu_ps(dst.add(W + x), _mm_movehl_ps(t1, t0));
                _mm_storeu_ps(dst.add(2 * W + x), _mm_movelh_ps(t2, t3));
                _mm_storeu_ps(dst.add(3 * W + x), _mm_movehl_ps(t3, t2));
            }
        }
    }
    for (p, row) in panel.chunks_exact_mut(W).enumerate().skip(quads) {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = data[x * lane + p];
        }
    }
}

/// Packs one full `W`-lane panel of a depth-contiguous operand by gathering
/// one element from each lane's run into each panel row.
#[cfg(not(target_arch = "x86_64"))]
fn pack_transposed<const W: usize>(panel: &mut [f32], data: &[f32], lane: usize, _kc: usize) {
    for (p, row) in panel.chunks_exact_mut(W).enumerate() {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = data[x * lane + p];
        }
    }
}

/// Where one packed block sits in `C`, how deep its slab is, and whether
/// an earlier slab already wrote it.
#[derive(Clone, Copy)]
struct Block {
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    onto_c: bool,
}

/// Sweeps the microkernel over every `MR × NR` tile of the packed block.
fn run_tiles<const MR: usize, const NR: usize>(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    Block {
        ic,
        mc,
        jc,
        nc,
        kc,
        onto_c,
    }: Block,
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
                // SAFETY: `mk` is the microkernel of the tier `gemm_on` was
                // handed, and a `Tier` exists only for a detected ISA.
                unsafe { mk(apanel, bpanel, &mut c[coff..], ldc, onto_c) };
            } else {
                // A ragged tile: the same microkernel on a local tile whose
                // lanes past `mr × nr` are never written back. A padding
                // zero times a NaN stays in such a dead lane.
                let mut tile = [[0.0f32; NR]; MR];
                let rows = c[coff..].chunks_mut(ldc).take(mr);
                if onto_c {
                    for (t, row) in tile.iter_mut().zip(rows) {
                        t[..nr].copy_from_slice(&row[..nr]);
                    }
                }
                // SAFETY: as for the full tile above.
                unsafe { mk(apanel, bpanel, tile.as_flattened_mut(), NR, onto_c) };
                let rows = c[coff..].chunks_mut(ldc).take(mr);
                for (row, t) in rows.zip(&tile) {
                    row[..nr].copy_from_slice(&t[..nr]);
                }
            }
            j0 += NR;
            bpanel_idx += 1;
        }
        r0 += MR;
        apanel_idx += 1;
    }
}

/// The register-tiled inner loop on a full `MR × NR` tile. The accumulator
/// is seeded from `C` when `onto_c` and with `+0.0` otherwise, and written
/// back whole, so the per-element fold order is ascending k with one mul
/// and one add per product.
#[inline(always)]
fn microkernel_body<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    ldc: usize,
    onto_c: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if onto_c {
        for (r, row) in acc.iter_mut().enumerate() {
            row.copy_from_slice(&c[r * ldc..r * ldc + NR]);
        }
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
///
/// # Safety
///
/// None: every CPU of the target runs it.
unsafe fn mk_baseline(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, onto_c: bool) {
    microkernel_body::<4, 16>(apanel, bpanel, c, ldc, onto_c);
}

/// AVX2 compilation of the identical arithmetic (wider autovectorization,
/// same operations in the same order — bitwise identical results).
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk_avx2(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, onto_c: bool) {
    microkernel_body::<4, 16>(apanel, bpanel, c, ldc, onto_c);
}

/// AVX-512 compilation of the identical arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mk_avx512(apanel: &[f32], bpanel: &[f32], c: &mut [f32], ldc: usize, onto_c: bool) {
    microkernel_body::<8, 32>(apanel, bpanel, c, ldc, onto_c);
}
