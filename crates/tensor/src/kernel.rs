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
//! A product of at most 16 rows — an FC layer's `x·Wᵀ` or `δ·W` at a batch
//! of 16 — skips the blocked loops. There the `B` pack would stream the
//! whole weight matrix through a second copy to feed 16 rows of
//! arithmetic. Instead `A` is packed once into 16-lane depth rows, each
//! output column keeps one accumulator across those rows, and `B` is
//! broadcast from where it lies, so the weights are read once. That body
//! is compiled per tier in the same way.
//!
//! A convolution's `B` may also be its zero-padded input sample
//! ([`gemm_lowered`]): the pack gathers the im2col matrix `col`, or its
//! transpose, tap by tap from the sample into its panels, so `col` is
//! never written out. The panels hold the values an explicit `col`'s pack
//! would, and everything after the pack is shared.
//!
//! # Determinism and float semantics
//!
//! The microkernel seeds its accumulator tile with `+0.0` on the first
//! `k`-slab and from `C` on every later one, writes the tile back, and the
//! shared dimension advances in the middle loop, so each output element
//! accumulates its `k` products **strictly in ascending-k order** starting
//! from `+0.0`, one multiply and one add per product — exactly the fold
//! order of the naive triple loop. The small-`m` body folds each element
//! the same way, its running sums stored and reloaded unchanged between
//! depth blocks. Both are therefore bitwise identical to the
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
    // A lane-contiguous `B` streams through the small-`m` body only when it
    // is deeper than `C` is tall: that body writes `C` one lane at a time,
    // which below that depth costs more than the blocked path's row-copy
    // pack of `B`.
    if m <= SMALL_M && (view_b.depth == 1 || k > SMALL_M) {
        let body: SmallMBody = match tier.isa() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => small_m_avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => small_m_avx2,
            Isa::Baseline => small_m_baseline,
        };
        return gemm_small_m(m, n, k, view_a, view_b, c, body);
    }
    gemm_blocked_on(tier, m, n, k, view_a, Operand::Strided(view_b), c);
}

/// The blocked driver on `tier`'s microkernel.
fn gemm_blocked_on(
    tier: Tier,
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: Operand<'_>,
    c: &mut [f32],
) {
    match tier.isa() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => gemm_blocked::<8, 32>(m, n, k, a, b, c, mk_avx512),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => gemm_blocked::<4, 16>(m, n, k, a, b, c, mk_avx2),
        Isa::Baseline => gemm_blocked::<4, 16>(m, n, k, a, b, c, mk_baseline),
    }
}

/// A convolution's input sample inside its zero border, read as a GEMM
/// operand without being lowered: [`gemm_lowered`] gathers the im2col
/// matrix `col`, or its transpose, tap by tap straight into its pack panels.
///
/// `data` holds `channels` planes of `height × width`, each one input
/// channel with its padding (zeros) already around it, and a `kh × kw`
/// kernel slides over them with `stride`, giving `h_out × w_out` output
/// positions. `col` is `D × L`, with `D = channels·kh·kw` taps in ascending
/// `(ch, ky, kx)` and `L = h_out·w_out` positions in ascending `(oy, ox)`:
/// its element at tap `(ch, ky, kx)` and position `(oy, ox)` is plane `ch`
/// at row `oy·stride + ky`, column `ox·stride + kx`.
#[derive(Clone, Copy, Debug)]
pub struct PaddedSample<'a> {
    data: &'a [f32],
    channels: usize,
    plane: (usize, usize),
    kernel: (usize, usize),
    stride: usize,
}

impl<'a> PaddedSample<'a> {
    /// `channels` padded planes of `plane = (height, width)` in `data`,
    /// read by a `kernel = (kh, kw)` window moving by `stride`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not `channels·height·width` long, if `stride` or
    /// a kernel side is 0, or if the kernel does not fit in a plane.
    pub fn new(
        data: &'a [f32],
        channels: usize,
        plane: (usize, usize),
        kernel: (usize, usize),
        stride: usize,
    ) -> Self {
        let ((height, width), (kh, kw)) = (plane, kernel);
        assert_eq!(
            data.len(),
            channels * height * width,
            "padded sample: {} elements, want {channels} planes of {height}x{width}",
            data.len()
        );
        assert!(
            stride >= 1 && kh >= 1 && kw >= 1 && kh <= height && kw <= width,
            "padded sample: a {kh}x{kw} kernel at stride {stride} does not fit a {height}x{width} plane"
        );
        Self {
            data,
            channels,
            plane,
            kernel,
            stride,
        }
    }

    /// `D = channels·kh·kw`: the rows of `col`.
    pub fn taps(&self) -> usize {
        self.channels * self.kernel.0 * self.kernel.1
    }

    /// `L = h_out·w_out`: the columns of `col`.
    pub fn positions(&self) -> usize {
        let (h_out, w_out) = self.out_dims();
        h_out * w_out
    }

    /// `(h_out, w_out)`.
    fn out_dims(&self) -> (usize, usize) {
        let ((height, width), (kh, kw)) = (self.plane, self.kernel);
        (
            (height - kh) / self.stride + 1,
            (width - kw) / self.stride + 1,
        )
    }

    /// Writes where each tap's window corner sits in `data` (`D` offsets,
    /// ascending), then where each output position's window starts relative
    /// to it (`L` offsets, ascending): `col`'s element at tap `t` and
    /// position `l` is `data[tap[t] + position[l]]`.
    fn offsets(&self, out: &mut Vec<usize>) {
        let ((height, width), (kh, kw)) = (self.plane, self.kernel);
        let (h_out, w_out) = self.out_dims();
        out.clear();
        for ch in 0..self.channels {
            for ky in 0..kh {
                out.extend((0..kw).map(|kx| (ch * height + ky) * width + kx));
            }
        }
        for oy in 0..h_out {
            out.extend((0..w_out).map(|ox| (oy * width + ox) * self.stride));
        }
    }
}

/// The lowered matrix of a [`PaddedSample`] that a [`gemm_lowered`] product
/// reads as its `B`.
#[derive(Clone, Copy, Debug)]
pub enum Lowered<'a> {
    /// `col` (`D × L`), as in a convolution's forward `W·col`.
    Col(PaddedSample<'a>),
    /// `colᵀ` (`L × D`), as in a convolution's weight gradient `G·colᵀ`.
    ColT(PaddedSample<'a>),
}

thread_local! {
    /// The calling thread's offset tables of the last [`gemm_lowered`]
    /// operand, kept between calls like the pack panels.
    static OFFSETS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// `C = A·B` with `B` the lowered matrix of a convolution sample, on the
/// widest [`Tier`] this CPU runs. `B` is `k × n`, which is `D × L` for
/// [`Lowered::Col`] and `L × D` for [`Lowered::ColT`]; `A` (`m × k`) and `C`
/// (`m × n`) are as in [`gemm`]. The product reads `B` through the same
/// blocked loops and microkernel as [`gemm`] reads an explicitly lowered
/// `col`, so the two give the same bits.
///
/// # Panics
///
/// As [`gemm`] does for `A` and `C`.
pub fn gemm_lowered(m: usize, a: &[f32], a_rs: usize, a_cs: usize, b: Lowered<'_>, c: &mut [f32]) {
    gemm_lowered_on(Tier::widest(), m, a, a_rs, a_cs, b, c);
}

/// [`gemm_lowered`] through one named compiled copy of the microkernel.
pub fn gemm_lowered_on(
    tier: Tier,
    m: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: Lowered<'_>,
    c: &mut [f32],
) {
    let (sample, transposed) = match b {
        Lowered::Col(sample) => (sample, false),
        Lowered::ColT(sample) => (sample, true),
    };
    let (d, l) = (sample.taps(), sample.positions());
    let (k, n) = if transposed { (l, d) } else { (d, l) };
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
    if k == 0 {
        // The empty sum.
        c.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    OFFSETS.with_borrow_mut(|offsets| {
        sample.offsets(offsets);
        let (taps, positions) = offsets.split_at(d);
        let (lane, depth) = if transposed {
            (taps, positions)
        } else {
            (positions, taps)
        };
        // Output positions are the sample's contiguous runs (at stride 1).
        let b = Gather {
            data: sample.data,
            lane,
            depth,
            runs_along_lanes: !transposed,
        };
        let a = View {
            data: a,
            lane: a_rs,
            depth: a_cs,
        };
        gemm_blocked_on(tier, m, n, k, a, Operand::Gathered(b), c);
    });
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

/// A read-only operand through two offset tables: the element in panel lane
/// `x` at depth `p` lives at `data[lane[x] + depth[p]]`. A lowered
/// convolution sample is one ([`gemm_lowered`]); `runs_along_lanes` says
/// which table holds its contiguous runs, the output positions of one
/// output row at stride 1: the lanes for `col`, the depth for `colᵀ`.
#[derive(Clone, Copy)]
struct Gather<'a> {
    data: &'a [f32],
    lane: &'a [usize],
    depth: &'a [usize],
    runs_along_lanes: bool,
}

/// A `B` operand of the blocked driver.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Strided(View<'a>),
    Gathered(Gather<'a>),
}

thread_local! {
    /// The calling thread's `A` and `B` pack panels, grown on demand and
    /// kept between calls: a conv layer issues three GEMMs per sample, and
    /// allocating and zero-filling up to 1 MiB for each cost as much as the
    /// arithmetic at `m = 32`. The small-`m` body packs its `A` into the
    /// first and keeps its running sums in the second.
    static PANELS: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The blocked driver, generic over the microkernel tile shape. `mk` must
/// be a microkernel of the tier [`gemm_on`] was handed.
fn gemm_blocked<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: Operand<'_>,
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
                match b {
                    Operand::Strided(b) => pack::<NR>(bpack, b, jc, nc, pc, kc),
                    Operand::Gathered(b) => pack_gathered::<NR>(bpack, b, jc, nc, pc, kc),
                }
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

/// Rows of `A` up to which a product skips the blocked loops: the
/// register-tiled body holds one output column's `m` rows in one
/// accumulator of this many lanes.
const SMALL_M: usize = 16;

/// A small-`m` body: `C = A·B` from `A` packed as one [`SMALL_M`]-lane row
/// per depth step and `B` read where it lies, for `m` rows and `n` columns.
/// The last argument holds the running sums of a lane-contiguous `B`'s
/// pass, [`SMALL_M_NC`] of them.
///
/// # Safety
///
/// As for [`MicroKernel`].
type SmallMBody =
    unsafe fn(&[[f32; SMALL_M]], View<'_>, usize, usize, &mut [f32], &mut [[f32; SMALL_M]]);

/// The product of `m ≤ SMALL_M` rows and any `B` (an FC layer's `x·Wᵀ` or
/// `δ·W` at a batch of 16): `A` is packed once into `k` lane rows, zero past
/// row `m`, and `B` is read where it lies, each of its values once, so the
/// weights stream through once per product instead of through a pack.
/// `body` must be a small-`m` body of the tier [`gemm_on`] was handed.
fn gemm_small_m(
    m: usize,
    n: usize,
    k: usize,
    a: View<'_>,
    b: View<'_>,
    c: &mut [f32],
    body: SmallMBody,
) {
    PANELS.with_borrow_mut(|(apack, bpack)| {
        if apack.len() < k * SMALL_M {
            apack.resize(k * SMALL_M, 0.0);
        }
        if bpack.len() < SMALL_M_NC * SMALL_M {
            bpack.resize(SMALL_M_NC * SMALL_M, 0.0);
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
        let (sums, _) = bpack[..SMALL_M_NC * SMALL_M].as_chunks_mut::<SMALL_M>();
        // SAFETY: `body` is the small-`m` body of the tier `gemm_on` was
        // handed, and a `Tier` exists only for a detected ISA.
        unsafe { body(lanes, b, m, n, c, sums) };
    });
}

/// Columns of a lane-contiguous `B` per small-`m` pass: their running
/// sums (16 KiB) stay in L1 from one depth block to the next.
const SMALL_M_NC: usize = 256;

/// Depth steps per visit of a small-`m` pass's running sums: `B`'s rows are
/// read this many at a time, each along its contiguous run.
const SMALL_M_KC: usize = 32;

/// The small-`m` arithmetic, `NJ` output columns at a time: column `j`'s
/// accumulator holds its `SMALL_M` rows, starts at `+0.0` and adds
/// `A(·, p)·B(p, j)` for `p = 0, 1, …, k-1` — one multiply and one add per
/// product, the naive loop's fold — with `B(p, j)` broadcast from column
/// `j`. Where `B`'s depth is contiguous (`x·Wᵀ`), each column group folds
/// all of `k` in one go; where its lanes are (`δ·W`), see
/// [`small_m_by_rows`]. Lanes past row `m` multiply padding zeros and are
/// never written back, so the NaN that `0·∞` leaves there goes nowhere.
#[inline(always)]
fn small_m_body<const NJ: usize>(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
    sums: &mut [[f32; SMALL_M]],
) {
    if b.depth != 1 {
        return small_m_by_rows::<NJ>(lanes, b, m, n, c, sums);
    }
    let k = lanes.len();
    let column = |j: usize| &b.data[j * b.lane..][..k];
    let mut j0 = 0;
    while j0 < n {
        let nj = (n - j0).min(NJ);
        let mut acc = [[0.0f32; SMALL_M]; NJ];
        if nj == NJ {
            let cols = std::array::from_fn(|x| column(j0 + x));
            acc = small_m_columns(lanes, cols, 1, acc);
        } else {
            for (x, acc) in acc[..nj].iter_mut().enumerate() {
                [*acc] = small_m_columns(lanes, [column(j0 + x)], 1, [[0.0; SMALL_M]]);
            }
        }
        write_lanes(&acc[..nj], m, n, j0, c);
        j0 += NJ;
    }
}

/// The small-`m` product with a lane-contiguous `B` (row `p` is
/// `b.data[p·depth..][..n]`). Walking a column group down all of `k` would
/// touch a new row, and a new page, per depth step. Instead each pass
/// takes [`SMALL_M_NC`] columns, keeps their running sums in `sums`, and
/// sweeps them [`SMALL_M_KC`] rows at a time, so every row is read along
/// its run. A sum stored after one depth block and loaded before the next
/// keeps its bits, so each element still folds ascending `p` from `+0.0`.
#[inline(always)]
fn small_m_by_rows<const NJ: usize>(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
    sums: &mut [[f32; SMALL_M]],
) {
    let blocks = lanes.len().div_ceil(SMALL_M_KC);
    let mut jc = 0;
    while jc < n {
        let sums = &mut sums[..(n - jc).min(SMALL_M_NC)];
        for (q, block) in lanes.chunks(SMALL_M_KC).enumerate() {
            let rows = &b.data[q * SMALL_M_KC * b.depth + jc..];
            let span = (block.len() - 1) * b.depth + 1;
            let column = |x: usize| &rows[x..][..span];
            // The first block starts from `+0.0`, the last writes `C`.
            let (first, last) = (q == 0, q + 1 == blocks);
            let (groups, ragged) = sums.as_chunks_mut::<NJ>();
            for (g, sums) in groups.iter_mut().enumerate() {
                let cols = std::array::from_fn(|x| column(g * NJ + x));
                let seed = if first { [[0.0; SMALL_M]; NJ] } else { *sums };
                let acc = small_m_columns(block, cols, b.depth, seed);
                if last {
                    write_lanes(&acc, m, n, jc + g * NJ, c);
                } else {
                    *sums = acc;
                }
            }
            let done = groups.len() * NJ;
            for (x, sum) in ragged.iter_mut().enumerate() {
                let seed = if first { [0.0; SMALL_M] } else { *sum };
                let [acc] = small_m_columns(block, [column(done + x)], b.depth, [seed]);
                if last {
                    write_lanes(&[acc], m, n, jc + done + x, c);
                } else {
                    *sum = acc;
                }
            }
        }
        jc += SMALL_M_NC;
    }
}

/// Writes the first `m` lanes of each column's sums `acc[x]` to
/// `C(·, j0 + x)` (`C` is `m × n`).
#[inline(always)]
fn write_lanes(acc: &[[f32; SMALL_M]], m: usize, n: usize, j0: usize, c: &mut [f32]) {
    for (x, acc) in acc.iter().enumerate() {
        for (i, &v) in acc[..m].iter().enumerate() {
            c[i * n + j0 + x] = v;
        }
    }
}

/// `seed[x] + Σₚ A(·, p)·cols[x][p·step]` for each column `x`, over every
/// depth step `p` of `lanes` in ascending order.
#[inline(always)]
fn small_m_columns<const NJ: usize>(
    lanes: &[[f32; SMALL_M]],
    cols: [&[f32]; NJ],
    step: usize,
    seed: [[f32; SMALL_M]; NJ],
) -> [[f32; SMALL_M]; NJ] {
    let mut acc = seed;
    for (p, a) in lanes.iter().enumerate() {
        for (acc, col) in acc.iter_mut().zip(&cols) {
            let w = col[p * step];
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
    sums: &mut [[f32; SMALL_M]],
) {
    small_m_body::<2>(lanes, b, m, n, c, sums);
}

/// AVX2 compilation of the identical small-`m` arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx2` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn small_m_avx2(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
    sums: &mut [[f32; SMALL_M]],
) {
    small_m_body::<4>(lanes, b, m, n, c, sums);
}

/// AVX-512 compilation of the identical small-`m` arithmetic.
///
/// # Safety
///
/// Caller must have verified `avx512f` via `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn small_m_avx512(
    lanes: &[[f32; SMALL_M]],
    b: View<'_>,
    m: usize,
    n: usize,
    c: &mut [f32],
    sums: &mut [[f32; SMALL_M]],
) {
    small_m_body::<8>(lanes, b, m, n, c, sums);
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
/// the `kc × W` panel. Four lanes by four depth steps at a time are
/// transposed in registers ([`transpose_quad`]); the depth steps past the
/// last multiple of four are gathered.
///
/// # Panics
///
/// Panics unless `panel` is `kc × W` and `data` reaches lane `W - 1` at
/// depth `kc - 1` — the bounds every load below relies on.
#[cfg(target_arch = "x86_64")]
fn pack_transposed<const W: usize>(panel: &mut [f32], data: &[f32], lane: usize, kc: usize) {
    const { assert!(W.is_multiple_of(4), "panel widths are multiples of 4") };
    assert_eq!(panel.len(), kc * W, "gemm: panel is kc x W");
    assert!(
        (W - 1) * lane + kc - 1 < data.len(),
        "gemm: operand view addresses past the end of its buffer"
    );
    let quads = kc / 4 * 4;
    for (p, rows) in panel[..quads * W].chunks_exact_mut(4 * W).enumerate() {
        let p = 4 * p;
        for x in (0..W).step_by(4) {
            // SAFETY: lane `x + j < W` at depths `p..p + 4 <= kc` ends at
            // `(x + j) * lane + p + 3 <= (W - 1) * lane + kc - 1`, inside
            // `data` by the assertion above; columns `x..x + 4 <= W` of the
            // four rows of `rows` lie inside it.
            unsafe { transpose_quad::<W>(rows, x, data, [0, 1, 2, 3].map(|j| (x + j) * lane + p)) };
        }
    }
    for (p, row) in panel.chunks_exact_mut(W).enumerate().skip(quads) {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = data[x * lane + p];
        }
    }
}

/// Stores the 4 × 4 block whose column `j` is `data[runs[j]..][..4]` at
/// columns `x..x + 4` of the four `W`-wide rows of `rows`: four loads, a
/// register transpose and four stores (SSE, part of every x86_64 CPU; data
/// movement only).
///
/// # Safety
///
/// Every `runs[j] + 3` must index inside `data`, and `x + 4 <= W` with
/// `rows` at least `4 × W` long.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose_quad<const W: usize>(
    rows: &mut [f32],
    x: usize,
    data: &[f32],
    runs: [usize; 4],
) {
    use std::arch::x86_64::{
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    let (src, dst) = (data.as_ptr(), rows.as_mut_ptr().wrapping_add(x));
    // SAFETY: the caller keeps every load inside `data` and every store
    // inside `rows`; the unaligned loads and stores take any alignment.
    unsafe {
        let [r0, r1, r2, r3] = runs.map(|at| _mm_loadu_ps(src.add(at)));
        let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
        let (t2, t3) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
        _mm_storeu_ps(dst, _mm_movelh_ps(t0, t1));
        _mm_storeu_ps(dst.add(W), _mm_movehl_ps(t1, t0));
        _mm_storeu_ps(dst.add(2 * W), _mm_movelh_ps(t2, t3));
        _mm_storeu_ps(dst.add(3 * W), _mm_movehl_ps(t3, t2));
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

/// [`pack`] for a gathered operand: lanes `x0..x0+lanes` over depth
/// `p0..p0+kc` into `W`-wide panels, every element of every panel written.
/// A full panel whose runs lie along its lanes (`col`) is copied one run
/// at a time per panel row; one whose runs lie along the depth (`colᵀ`) is
/// transposed four lanes by four depth steps wherever those steps are one
/// run. What is left — a ragged last panel, depth steps that cross a run,
/// any stride past 1 — is gathered element by element.
fn pack_gathered<const W: usize>(
    dst: &mut [f32],
    src: Gather<'_>,
    x0: usize,
    lanes: usize,
    p0: usize,
    kc: usize,
) {
    let depth = &src.depth[p0..p0 + kc];
    // Where each group of four depth steps starts, if it is one run.
    let mut quads = [None; KC / 4];
    for (start, d) in quads.iter_mut().zip(depth.chunks_exact(4)) {
        *start = (d[1] == d[0] + 1 && d[2] == d[0] + 2 && d[3] == d[0] + 3).then_some(d[0]);
    }
    let quads = &quads[..kc / 4];
    let deepest = depth.iter().max().copied().unwrap_or(0);
    for (i, panel) in dst
        .chunks_exact_mut(W * kc)
        .enumerate()
        .take(lanes.div_ceil(W))
    {
        let lane = &src.lane[x0 + i * W..][..(lanes - i * W).min(W)];
        match <&[usize; W]>::try_from(lane) {
            Ok(lane) if src.runs_along_lanes => pack_runs(panel, src.data, lane, depth),
            Ok(lane) => pack_depth_runs(panel, src.data, lane, depth, quads, deepest),
            Err(_) => {
                // The ragged last panel.
                for (row, &d) in panel.chunks_exact_mut(W).zip(depth) {
                    for (slot, &l) in row.iter_mut().zip(lane) {
                        *slot = src.data[l + d];
                    }
                    row[lane.len()..].fill(0.0);
                }
            }
        }
    }
}

/// One full panel of a gathered operand whose runs lie along the lanes:
/// the panel's lanes are split once into runs of adjacent offsets, and
/// each run is copied into every panel row ([`copy_run`]).
fn pack_runs<const W: usize>(panel: &mut [f32], data: &[f32], lane: &[usize; W], depth: &[usize]) {
    let mut runs = [(0usize, 0usize); W];
    let mut count = 0;
    for (x, &l) in lane.iter().enumerate() {
        if x > 0 && l == lane[x - 1] + 1 {
            runs[count - 1].1 += 1;
        } else {
            runs[count] = (x, 1);
            count += 1;
        }
    }
    for &(x, len) in &runs[..count] {
        let data = &data[lane[x]..];
        for (row, &d) in panel.chunks_exact_mut(W).zip(depth) {
            copy_run(&mut row[x..x + len], &data[d..d + len]);
        }
    }
}

/// `dst = src`, eight elements per fixed-width step: a run is one output
/// row of a convolution, too short for a `memcpy` call to pay off.
#[inline(always)]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    let (dst8, dst_tail) = dst.as_chunks_mut::<8>();
    let (src8, src_tail) = src.as_chunks::<8>();
    for (d, s) in dst8.iter_mut().zip(src8) {
        *d = *s;
    }
    for (d, s) in dst_tail.iter_mut().zip(src_tail) {
        *d = *s;
    }
}

/// One full panel of a gathered operand whose runs lie along the depth,
/// four lanes at a time: where `quads` says four depth steps are one run
/// starting at that offset, they are transposed in registers
/// ([`transpose_quad`]); other depth steps are gathered.
///
/// # Panics
///
/// Panics unless every offset the panel names, `lane[x] + deepest` at
/// most, lies inside `data`.
fn pack_depth_runs<const W: usize>(
    panel: &mut [f32],
    data: &[f32],
    lane: &[usize; W],
    depth: &[usize],
    quads: &[Option<usize>],
    deepest: usize,
) {
    const { assert!(W.is_multiple_of(4), "panel widths are multiples of 4") };
    let widest = lane.iter().max().copied().unwrap_or(0);
    assert!(
        widest + deepest < data.len(),
        "gemm: operand offsets address past the end of its buffer"
    );
    let steps = panel
        .chunks_exact_mut(4 * W)
        .zip(quads)
        .zip(depth.chunks_exact(4));
    for ((rows, start), d) in steps {
        for x in (0..W).step_by(4) {
            let four: [usize; 4] = std::array::from_fn(|j| lane[x + j]);
            match start {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: lane `x + j`'s four loads end at `lane[x + j] +
                // start + 3 <= widest + deepest`, inside `data` by the
                // assertion above; columns `x..x + 4 <= W` of the four rows
                // of `rows` lie inside it.
                Some(start) => unsafe {
                    transpose_quad::<W>(rows, x, data, four.map(|l| l + start))
                },
                _ => {
                    for (row, &d) in rows.chunks_exact_mut(W).zip(d) {
                        for (slot, l) in row[x..x + 4].iter_mut().zip(four) {
                            *slot = data[l + d];
                        }
                    }
                }
            }
        }
    }
    for (row, &d) in panel.chunks_exact_mut(W).zip(depth).skip(4 * quads.len()) {
        for (slot, &l) in row.iter_mut().zip(lane) {
            *slot = data[l + d];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// Deterministic values in ±0.5 with a few exact zeros and negative
    /// zeros.
    fn lcg(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                match (state >> 33) % 61 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((state >> 40) as f32) / (1u64 << 24) as f32 - 0.5,
                }
            })
            .collect()
    }

    /// Bitwise equality, except that any NaN equals any NaN (which
    /// operand's payload a NaN + NaN keeps is not part of the fold order).
    fn assert_same(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?}, the naive fold gives {w:?}"
            );
        }
    }

    /// `(c, h, w, c_out, k, stride, pad)`: the geometries of the conv
    /// oracle (`crates/nn/tests/conv_oracle.rs`), and one whose `L = 1600`
    /// spans two `NC` passes of `col`'s width. The second is mini_vgg's
    /// conv2, whose `D = 800` spans four `KC` slabs of `col`'s depth.
    const GEOMETRIES: [(usize, usize, usize, usize, usize, usize, usize); 16] = [
        (3, 32, 32, 32, 5, 1, 2),
        (32, 16, 16, 32, 5, 1, 2),
        (32, 8, 8, 64, 5, 1, 2),
        (2, 7, 11, 5, 3, 2, 1),
        (3, 10, 9, 9, 3, 3, 0),
        (1, 6, 6, 33, 3, 1, 4),
        (4, 5, 7, 7, 1, 1, 0),
        (2, 9, 9, 3, 5, 2, 3),
        (1, 3, 3, 1, 3, 1, 1),
        (2, 2, 2, 4, 5, 3, 2),
        (3, 3, 40, 10, 3, 1, 0),
        (2, 4, 3, 3, 3, 1, 0),
        (3, 6, 7, 4, 3, 1, 1),
        (2, 5, 33, 5, 3, 1, 1),
        (3, 8, 10, 4, 3, 2, 2),
        (1, 40, 40, 3, 3, 1, 1),
    ];

    #[test]
    fn a_padded_sample_reads_as_its_explicitly_lowered_col_and_col_t() {
        for (g, &(c, h, w, c_out, k, stride, pad)) in GEOMETRIES.iter().enumerate() {
            let (hp, wp) = (h + 2 * pad, w + 2 * pad);
            let (h_out, w_out) = ((hp - k) / stride + 1, (wp - k) / stride + 1);
            let (d, l) = (c * k * k, h_out * w_out);
            // The sample inside its zero border, with non-finite values in
            // the pixels next to the padding.
            let mut x = lcg(c * h * w, g as u64);
            for ch in 0..c {
                let plane = &mut x[ch * h * w..][..h * w];
                plane[0] = f32::NAN;
                plane[w - 1] = f32::INFINITY;
                plane[(h - 1) * w] = f32::NEG_INFINITY;
                plane[h * w - 1] = f32::NAN;
            }
            let mut padded = vec![0.0f32; c * hp * wp];
            for ch in 0..c {
                for y in 0..h {
                    let row = &x[(ch * h + y) * w..][..w];
                    padded[(ch * hp + y + pad) * wp + pad..][..w].copy_from_slice(row);
                }
            }
            let mut col = Matrix::zeros(d, l);
            for (t, (ch, ky, kx)) in (0..c)
                .flat_map(|ch| (0..k).flat_map(move |ky| (0..k).map(move |kx| (ch, ky, kx))))
                .enumerate()
            {
                for (oy, ox) in (0..h_out).flat_map(|oy| (0..w_out).map(move |ox| (oy, ox))) {
                    let (y, x) = (oy * stride + ky, ox * stride + kx);
                    col[(t, oy * w_out + ox)] = padded[(ch * hp + y) * wp + x];
                }
            }
            let col_t = col.transposed();
            let weights = Matrix::from_vec(c_out, d, lcg(c_out * d, 100 + g as u64));
            let grad = Matrix::from_vec(c_out, l, lcg(c_out * l, 200 + g as u64));
            let want_fwd = weights.matmul_naive(&col);
            let want_dw = grad.matmul_naive(&col_t);
            let sample = PaddedSample::new(&padded, c, (hp, wp), (k, k), stride);
            assert_eq!((sample.taps(), sample.positions()), (d, l));
            for tier in Tier::available() {
                let what = |op: &str| format!("geometry {g}, {op}, {}", tier.name());
                // Twice, into a `C` of NaN the kernel must never read, so
                // panels and offset tables left by the last call cannot
                // leak into this one.
                for _ in 0..2 {
                    let mut out = vec![f32::NAN; c_out * l];
                    let fwd = Lowered::Col(sample);
                    gemm_lowered_on(tier, c_out, weights.as_slice(), d, 1, fwd, &mut out);
                    assert_same(&out, want_fwd.as_slice(), &what("W·col"));
                    let mut dw = vec![f32::NAN; c_out * d];
                    let back = Lowered::ColT(sample);
                    gemm_lowered_on(tier, c_out, grad.as_slice(), l, 1, back, &mut dw);
                    assert_same(&dw, want_dw.as_slice(), &what("G·colᵀ"));
                }
            }
        }
    }

    #[test]
    fn small_m_with_a_lane_contiguous_b_is_the_naive_fold() {
        for m in [1, 7, 16] {
            // Depths at and past `C`'s height, across `SMALL_M_KC` blocks
            // with a ragged last one; widths with ragged column groups and
            // a pass past `SMALL_M_NC`.
            for k in [5, 16, 17, 40, 100] {
                for n in [1, 7, 33, 300] {
                    let mut a = Matrix::from_vec(m, k, lcg(m * k, (m * k) as u64));
                    let mut b = Matrix::from_vec(k, n, lcg(k * n, (k * n + 1) as u64));
                    a[(m - 1, k - 1)] = f32::NAN;
                    a[(m / 2, 0)] = f32::INFINITY;
                    b[(k - 1, n - 1)] = f32::NEG_INFINITY;
                    b[(k / 2, n / 2)] = f32::NAN;
                    let want = a.matmul_naive(&b);
                    let a_t = a.transposed();
                    for tier in Tier::available() {
                        let what = format!("m={m} k={k} n={n}, {}", tier.name());
                        let mut c = vec![f32::NAN; m * n];
                        let (a, b) = (a.as_slice(), b.as_slice());
                        gemm_on(tier, m, n, k, a, k, 1, b, n, 1, &mut c);
                        assert_same(&c, want.as_slice(), &format!("A·B, {what}"));
                        // `A` read transposed in place, as `Uᵀ·V` does.
                        let mut c = vec![f32::NAN; m * n];
                        gemm_on(tier, m, n, k, a_t.as_slice(), 1, m, b, n, 1, &mut c);
                        assert_same(&c, want.as_slice(), &format!("(Aᵀ)ᵀ·B, {what}"));
                    }
                }
            }
        }
    }
}
