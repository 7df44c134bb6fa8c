//! The packed GEMM against the naive triple loop, bit for bit.
//!
//! All three multiply flavours and their `*_rows_into` ranges, over shapes
//! that straddle every blocking boundary of `poseidon_tensor::kernel` — the
//! microkernel tile (`m` around 8, `n` around 32; `m = 10` and `n = 75`
//! leave ragged tiles on every tier), one `KC` slab (`k` around 256) and one
//! `NC` pass (`n = 1025`) — with NaN and ±Inf planted in the ragged edge
//! tiles. Each flavour also runs through `kernel::gemm_on` on every compiled
//! ISA tier this CPU executes, into a `C` filled with NaN that the kernel
//! must never read. Everything runs on one thread and every product is
//! computed twice in a row, so a pack panel reused from a previous, larger,
//! NaN-bearing call would show up as a difference.

use poseidon_tensor::kernel::{self, Tier};
use poseidon_tensor::Matrix;

const MS: [usize; 7] = [1, 7, 8, 9, 10, 32, 97];
const KS: [usize; 6] = [1, 32, 255, 256, 257, 600];
const NS: [usize; 6] = [1, 31, 32, 33, 75, 1025];

/// Deterministic values in ±0.5 with a few exact zeros and negative zeros.
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..rows * cols)
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
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Bitwise equality, except that any NaN equals any NaN: which operand's
/// payload a NaN + NaN keeps is the compiler's choice of operand order, not
/// part of the fold-order contract.
fn assert_same(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}: element {i} is {g:?} ({:#x}), the naive fold gives {w:?} ({:#x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Plants NaN / ±Inf where the ragged last tile and the last `k` slab read.
fn poison(a: &mut Matrix, b: &mut Matrix) {
    let (ar, ac) = a.shape();
    let (br, bc) = b.shape();
    a[(ar - 1, ac - 1)] = f32::NAN;
    a[(ar / 2, 0)] = f32::INFINITY;
    b[(br - 1, bc - 1)] = f32::NEG_INFINITY;
    b[(0, bc / 2)] = f32::NAN;
}

type Product = fn(&Matrix, &Matrix) -> Matrix;
type RowsInto = fn(&Matrix, &Matrix, std::ops::Range<usize>, &mut [f32]);
/// How a flavour hands its stored operands to `kernel::gemm_on`:
/// `(m, n, k, [a_rs, a_cs, b_rs, b_cs])`.
type Strides = fn(&Matrix, &Matrix) -> (usize, usize, usize, [usize; 4]);

fn nn_strides(a: &Matrix, b: &Matrix) -> (usize, usize, usize, [usize; 4]) {
    (a.rows(), b.cols(), a.cols(), [a.cols(), 1, b.cols(), 1])
}

fn tn_strides(at: &Matrix, b: &Matrix) -> (usize, usize, usize, [usize; 4]) {
    (at.cols(), b.cols(), at.rows(), [1, at.cols(), b.cols(), 1])
}

fn nt_strides(a: &Matrix, bt: &Matrix) -> (usize, usize, usize, [usize; 4]) {
    (a.rows(), bt.rows(), a.cols(), [a.cols(), 1, 1, bt.cols()])
}

/// Checks one flavour on operands `a`, `b` whose product has `m` rows.
#[allow(clippy::too_many_arguments)]
fn check(
    name: &str,
    a: &Matrix,
    b: &Matrix,
    m: usize,
    fast: Product,
    naive: Product,
    rows: RowsInto,
    strides: Strides,
) {
    let want = naive(a, b);
    assert_eq!(want.rows(), m);
    let n = want.cols();
    for round in 0..2 {
        let got = fast(a, b);
        assert_eq!(got.shape(), want.shape(), "{name}");
        assert_same(
            got.as_slice(),
            want.as_slice(),
            &format!("{name} round {round}"),
        );
    }
    for tier in Tier::available() {
        let (m, n, k, [a_rs, a_cs, b_rs, b_cs]) = strides(a, b);
        let mut c = vec![f32::NAN; m * n];
        let (a, b) = (a.as_slice(), b.as_slice());
        kernel::gemm_on(tier, m, n, k, a, a_rs, a_cs, b, b_rs, b_cs, &mut c);
        assert_same(
            &c,
            want.as_slice(),
            &format!("{name} on the {} tier", tier.name()),
        );
    }
    // A strict sub-range, the empty range, and the full range.
    for range in [m / 3..m - m / 4, 0..0, 0..m] {
        let mut out = vec![0.0f32; range.len() * n];
        rows(a, b, range.clone(), &mut out);
        assert_same(
            &out,
            &want.as_slice()[range.start * n..range.end * n],
            &format!("{name} rows {range:?}"),
        );
    }
}

fn sweep(poisoned: bool) {
    for &m in &MS {
        for &k in &KS {
            for &n in &NS {
                let seed = (m * 1_000_003 + k * 1009 + n) as u64;
                let shape = format!("{m}x{k}x{n}{}", if poisoned { " poisoned" } else { "" });

                let (mut a, mut b) = (lcg_matrix(m, k, seed), lcg_matrix(k, n, seed + 1));
                if poisoned {
                    poison(&mut a, &mut b);
                }
                check(
                    &format!("matmul {shape}"),
                    &a,
                    &b,
                    m,
                    Matrix::matmul,
                    Matrix::matmul_naive,
                    Matrix::matmul_rows_into,
                    nn_strides,
                );

                let (mut at, mut b) = (lcg_matrix(k, m, seed + 2), lcg_matrix(k, n, seed + 3));
                if poisoned {
                    poison(&mut at, &mut b);
                }
                check(
                    &format!("matmul_tn {shape}"),
                    &at,
                    &b,
                    m,
                    Matrix::matmul_tn,
                    Matrix::matmul_tn_naive,
                    Matrix::matmul_tn_rows_into,
                    tn_strides,
                );

                let (mut a, mut bt) = (lcg_matrix(m, k, seed + 4), lcg_matrix(n, k, seed + 5));
                if poisoned {
                    poison(&mut a, &mut bt);
                }
                check(
                    &format!("matmul_nt {shape}"),
                    &a,
                    &bt,
                    m,
                    Matrix::matmul_nt,
                    Matrix::matmul_nt_naive,
                    Matrix::matmul_nt_rows_into,
                    nt_strides,
                );
            }
        }
    }
}

#[test]
fn every_flavour_matches_the_naive_fold_bit_for_bit() {
    sweep(false);
}

#[test]
fn nan_and_inf_in_edge_tiles_propagate_like_the_naive_fold() {
    sweep(true);
}

/// Every row count of the small-`m` body (`m ≤ 16`) on both `B` layouts —
/// `A·Bᵀ` reads `B` depth-contiguous and takes the body, `A·B` reads it
/// lane-contiguous and takes the blocked loops — over ragged `n` (around
/// the AVX-512 body's eight columns) and ragged `k` (around one `KC` slab),
/// clean and with NaN / ±Inf planted.
#[test]
fn every_small_row_count_matches_the_naive_fold_on_both_b_layouts() {
    for m in 1..=16 {
        for &k in &[1usize, 5, 255, 257] {
            for &n in &[1usize, 7, 8, 9, 19] {
                for poisoned in [false, true] {
                    let seed = (m * 7919 + k * 31 + n) as u64;
                    let shape = format!("{m}x{k}x{n}{}", if poisoned { " poisoned" } else { "" });
                    let (mut a, mut bt) = (lcg_matrix(m, k, seed), lcg_matrix(n, k, seed + 1));
                    if poisoned {
                        poison(&mut a, &mut bt);
                    }
                    check(
                        &format!("matmul_nt {shape}"),
                        &a,
                        &bt,
                        m,
                        Matrix::matmul_nt,
                        Matrix::matmul_nt_naive,
                        Matrix::matmul_nt_rows_into,
                        nt_strides,
                    );
                    let b = bt.transposed();
                    check(
                        &format!("matmul {shape}"),
                        &a,
                        &b,
                        m,
                        Matrix::matmul,
                        Matrix::matmul_naive,
                        Matrix::matmul_rows_into,
                        nn_strides,
                    );
                }
            }
        }
    }
}

/// The small-`m` body pads `A` to 16 lanes, so the lanes past row `m`
/// multiply every `B` value too: an infinity in `B` makes them NaN, and
/// rows of the operand's storage past `m` may hold anything. Neither may
/// reach `C`, which the kernel must not read either (it starts as NaN).
#[test]
fn nan_and_inf_past_the_last_row_never_reach_c() {
    for m in 1..16 {
        for &(k, n) in &[(3usize, 9usize), (64, 17), (300, 8)] {
            let seed = (m * 131 + k + n) as u64;
            // Storage for 16 rows; rows `m..` are NaN and ±Inf.
            let mut storage = lcg_matrix(16, k, seed);
            for (r, row) in (m..16).zip([f32::NAN, f32::INFINITY, f32::NEG_INFINITY].iter().cycle())
            {
                storage.row_mut(r).fill(*row);
            }
            let a = Matrix::from_vec(m, k, storage.as_slice()[..m * k].to_vec());
            // Every column of `Bᵀ` holds an infinity, so every padding lane
            // computes `0·∞ = NaN`.
            let mut bt = lcg_matrix(n, k, seed + 1);
            for j in 0..n {
                bt[(j, (j * 7) % k)] = if j % 2 == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
            let want = a.matmul_nt_naive(&bt);
            for tier in Tier::available() {
                let mut c = vec![f32::NAN; m * n];
                let b = bt.as_slice();
                kernel::gemm_on(tier, m, n, k, storage.as_slice(), k, 1, b, 1, k, &mut c);
                assert_same(
                    &c,
                    want.as_slice(),
                    &format!("{m}x{k}x{n} on the {} tier", tier.name()),
                );
            }
        }
    }
}

#[test]
fn a_panel_dirtied_by_a_poisoned_product_does_not_leak_into_the_next() {
    // Largest shapes first, full of NaN, so both thread-local panels end up
    // holding NaN everywhere a later call could read; then clean products of
    // every smaller ragged shape must contain no NaN and match the oracle.
    let nan = Matrix::filled(97, 600, f32::NAN);
    let wide = Matrix::filled(600, 1025, f32::NAN);
    assert!(nan.matmul(&wide).as_slice().iter().all(|x| x.is_nan()));
    assert!(nan.matmul_nt(&Matrix::filled(1025, 600, f32::NAN))[(0, 0)].is_nan());
    assert!(Matrix::filled(600, 97, f32::NAN).matmul_tn(&wide)[(0, 0)].is_nan());
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (7, 255, 31),
        (9, 257, 33),
        (33, 5, 47),
    ] {
        let (a, b) = (lcg_matrix(m, k, 11), lcg_matrix(k, n, 12));
        let got = a.matmul(&b);
        assert!(got.as_slice().iter().all(|x| x.is_finite()), "{m}x{k}x{n}");
        assert_same(
            got.as_slice(),
            a.matmul_naive(&b).as_slice(),
            "after poison",
        );
        let bt = b.transposed();
        assert_same(
            a.matmul_nt(&bt).as_slice(),
            a.matmul_nt_naive(&bt).as_slice(),
            "nt after poison",
        );
        let at = a.transposed();
        assert_same(
            at.matmul_tn(&b).as_slice(),
            at.matmul_tn_naive(&b).as_slice(),
            "tn after poison",
        );
    }
}

#[test]
#[should_panic(expected = "operand A")]
fn a_view_with_two_non_unit_strides_is_rejected_by_name() {
    // Every other element of every other row: no packer reads that.
    let a = vec![0.0f32; 64];
    let b = vec![0.0f32; 16];
    let mut c = vec![0.0f32; 16];
    poseidon_tensor::kernel::gemm(4, 4, 4, &a, 16, 2, &b, 4, 1, &mut c);
}
