//! Row-major dense `f32` matrices and the kernels used by the NN engine.
//!
//! The multiply family (`matmul`, `matmul_tn`, `matmul_nt`) routes through
//! the blocked GEMM in [`crate::kernel`], which folds each output element in
//! ascending-`k` order — the same order as the retained `*_naive` reference
//! kernels — so blocked and naive results are bitwise identical. The
//! `*_rows_into` variants compute a contiguous range of output rows into a
//! caller-provided slice; they are the building block of the batch-parallel
//! layer kernels, which partition output rows across threads without
//! changing any per-element fold order.

use crate::kernel;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// A dense, row-major `f32` matrix.
///
/// Vectors are represented as `1×n` or `n×1` matrices; the neural-network
/// engine stores parameters, activations and gradients in this type. All
/// kernels are deterministic: given identical inputs they produce bitwise
/// identical outputs, which the distributed-equals-serial tests rely on.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a zero-filled matrix of shape `rows × cols`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the matrix has no elements (never true for a constructed matrix).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The backing row-major data, without a copy.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    pub fn col(&self, c: usize) -> Vec<f32> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Sets every element to zero.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Element-wise addition: `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "add_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise subtraction: `self -= other`.
    pub fn sub_assign(&mut self, other: &Matrix) {
        self.assert_same_shape(other, "sub_assign");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// AXPY: `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        self.assert_same_shape(other, "axpy");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Returns the transpose as a new matrix (cache-blocked copy).
    pub fn transposed(&self) -> Matrix {
        const TB: usize = 32;
        let mut t = Matrix::zeros(self.cols, self.rows);
        let mut rb = 0;
        while rb < self.rows {
            let re = (rb + TB).min(self.rows);
            let mut cb = 0;
            while cb < self.cols {
                let ce = (cb + TB).min(self.cols);
                for r in rb..re {
                    for c in cb..ce {
                        t.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
                cb = ce;
            }
            rb = re;
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0..self.rows, out.as_mut_slice());
        out
    }

    /// Writes rows `rows` of `self * other` into `out`, which must hold
    /// exactly `rows.len() * other.cols()` elements (the corresponding output
    /// rows; what they hold on entry is never read). An empty range is a
    /// no-op.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, an out-of-bounds range, or a wrong-sized
    /// `out`.
    pub fn matmul_rows_into(&self, other: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(rows.end <= self.rows, "matmul_rows_into: row range OOB");
        let m = rows.len();
        kernel::gemm(
            m,
            other.cols,
            self.cols,
            &self.data[rows.start * self.cols..],
            self.cols,
            1,
            &other.data,
            other.cols,
            1,
            out,
        );
    }

    /// Matrix product `selfᵀ * other` without materialising the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.matmul_tn_rows_into(other, 0..self.cols, out.as_mut_slice());
        out
    }

    /// Writes rows `rows` of `selfᵀ * other` into `out` (output rows
    /// correspond to *columns* of `self`). `out` must hold exactly
    /// `rows.len() * other.cols()` elements; an empty range is a no-op.
    pub fn matmul_tn_rows_into(&self, other: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(rows.end <= self.cols, "matmul_tn_rows_into: row range OOB");
        let m = rows.len();
        if m == 0 {
            return;
        }
        // Row `i` of the transposed view starts at element `i` with the
        // original column stride, so offsetting the data by `rows.start`
        // shifts the view down without copying.
        kernel::gemm(
            m,
            other.cols,
            self.rows,
            &self.data[rows.start..],
            1,
            self.cols,
            &other.data,
            other.cols,
            1,
            out,
        );
    }

    /// Matrix product `self * otherᵀ` without materialising the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.matmul_nt_rows_into(other, 0..self.rows, out.as_mut_slice());
        out
    }

    /// Writes rows `rows` of `self * otherᵀ` into `out`, which must hold
    /// exactly `rows.len() * other.rows()` elements; an empty range is a
    /// no-op.
    pub fn matmul_nt_rows_into(&self, other: &Matrix, rows: Range<usize>, out: &mut [f32]) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert!(rows.end <= self.rows, "matmul_nt_rows_into: row range OOB");
        let m = rows.len();
        kernel::gemm(
            m,
            other.rows,
            self.cols,
            &self.data[rows.start * self.cols..],
            self.cols,
            1,
            &other.data,
            1,
            other.cols,
            out,
        );
    }

    /// Naive `self * other` reference: plain triple loop, ascending-`k`
    /// fold, no fast paths. Retained as the differential-test oracle for the
    /// blocked kernel — the blocked result must match it bitwise.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * other.data[k * other.cols + j];
                }
                out.data[i * other.cols + j] = acc;
            }
        }
        out
    }

    /// Naive `selfᵀ * other` reference (see [`Matrix::matmul_naive`]).
    pub fn matmul_tn_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        for i in 0..self.cols {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.rows {
                    acc += self.data[k * self.cols + i] * other.data[k * other.cols + j];
                }
                out.data[i * other.cols + j] = acc;
            }
        }
        out
    }

    /// Naive `self * otherᵀ` reference (see [`Matrix::matmul_naive`]).
    pub fn matmul_nt_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * other.data[j * other.cols + k];
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// Rank-1 update: `self += alpha * u * vᵀ`.
    ///
    /// `u` must have `self.rows()` elements and `v` must have `self.cols()`.
    /// This is the reconstruction kernel of sufficient-factor broadcasting.
    /// The loop body is branch-free: a zero in `u` still multiplies through,
    /// so NaN/Inf in `v` propagate per IEEE semantics.
    pub fn rank1_update(&mut self, alpha: f32, u: &[f32], v: &[f32]) {
        assert_eq!(u.len(), self.rows, "rank1_update: u length mismatch");
        assert_eq!(v.len(), self.cols, "rank1_update: v length mismatch");
        for (r, &uu) in u.iter().enumerate() {
            let s = alpha * uu;
            let row = self.row_mut(r);
            for (o, &vv) in row.iter_mut().zip(v) {
                *o += s * vv;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute element value (0 for an all-zero matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    /// Maximum absolute element-wise difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Index of the maximum element in row `r` (ties resolve to the first).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_rejected() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_checked() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn indexing_is_row_major() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(0, 2)], 3.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(1, 2)], 6.0);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = m(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let fast = a.matmul_tn(&b);
        let slow = a.transposed().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(
            4,
            3,
            &[1.0, 0.0, 2.0, 3.0, 1.0, 1.0, 0.0, 2.0, 5.0, 1.0, 1.0, 1.0],
        );
        let fast = a.matmul_nt(&b);
        let slow = a.matmul(&b.transposed());
        assert_eq!(fast, slow);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn rank1_update_is_outer_product() {
        let mut g = Matrix::zeros(2, 3);
        g.rank1_update(1.0, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(g.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        g.rank1_update(-1.0, &[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert!(g.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0, 36.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let orig = a.clone();
        a.add_assign(&b);
        a.sub_assign(&b);
        assert_eq!(a, orig);
    }

    #[test]
    fn norms_and_argmax() {
        let a = m(2, 2, &[3.0, -4.0, 0.0, 0.0]);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.argmax_row(0), 0);
        let b = m(1, 4, &[0.1, 0.9, 0.5, 0.9]);
        assert_eq!(b.argmax_row(0), 1, "ties resolve to first occurrence");
    }

    #[test]
    fn transpose_is_involutive() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn max_abs_diff_detects_deviation() {
        let a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[1.0, 2.5, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn map_inplace_applies_function() {
        let mut a = m(1, 3, &[-1.0, 0.0, 2.0]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.as_slice(), &[0.0, 0.0, 2.0]);
    }
}
