use crate::SigStatError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Columns per output block in the matmul kernel: one output-row segment
/// (`NB · 8` bytes = 1 KiB) plus the matching right-hand-side row segments
/// stay L1-resident while a depth block is swept.
const BLOCK_COLS: usize = 128;
/// Depth (inner-dimension) per block: right-hand-side rows are revisited
/// `rows(A)` times while hot instead of streaming the full inner dimension.
const BLOCK_DEPTH: usize = 64;

/// Dot product of two equal-length slices with four independent `mul_add`
/// accumulator lanes, so the reduction carries no loop-order dependency and
/// autovectorizes to fused multiply-adds.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot requires equal lengths");
    let mut acc = [0.0f64; 4];
    let mut ai = a.chunks_exact(4);
    let mut bi = b.chunks_exact(4);
    for (ca, cb) in ai.by_ref().zip(bi.by_ref()) {
        acc[0] = ca[0].mul_add(cb[0], acc[0]);
        acc[1] = ca[1].mul_add(cb[1], acc[1]);
        acc[2] = ca[2].mul_add(cb[2], acc[2]);
        acc[3] = ca[3].mul_add(cb[3], acc[3]);
    }
    let mut tail = 0.0;
    for (x, y) in ai.remainder().iter().zip(bi.remainder()) {
        tail = x.mul_add(*y, tail);
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// `y += a · x` over equal-length slices, 4-wide-chunked `mul_add`.
#[inline]
pub(crate) fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy requires equal lengths");
    let mut xi = x.chunks_exact(4);
    let mut yi = y.chunks_exact_mut(4);
    for (xc, yc) in xi.by_ref().zip(yi.by_ref()) {
        yc[0] = a.mul_add(xc[0], yc[0]);
        yc[1] = a.mul_add(xc[1], yc[1]);
        yc[2] = a.mul_add(xc[2], yc[2]);
        yc[3] = a.mul_add(xc[3], yc[3]);
    }
    for (xv, yv) in xi.remainder().iter().zip(yi.into_remainder()) {
        *yv = a.mul_add(*xv, *yv);
    }
}

/// `‖y‖²` of a forward-solved vector, the last step of a quadratic form.
fn squared_norm(y: &[f64]) -> f64 {
    let q = dot(y, y);
    debug_assert!(
        q >= 0.0 || q.is_nan(),
        "quadratic form is a sum of squares and cannot be negative"
    );
    q
}

/// Columns `col..col + C` of `W = L⁻¹`, for [`Cholesky::inverse_factor_into`]:
/// row `i` of column `c` is `(e_c[i] − Σ_k L[i,k]·W[k,c]) / L[i,i]`, the sum
/// in [`dot`]'s lane order from `col & !3`. `w` is row-major `n × n` and
/// zero above the diagonal on entry; rows above the diagonal of a column
/// solve to exact zeros and are written back as such.
fn inverse_factor_columns<const C: usize>(l: &[f64], w: &mut [f64], n: usize, col: usize) {
    let start = col & !3;
    for i in col..n {
        let (solved, rest) = w.split_at_mut(i * n);
        let l_row = &l[i * n..i * n + i];
        let lanes_end = i & !3;
        let mut acc = [[0.0f64; C]; 4];
        let mut tail = [0.0f64; C];
        for k in (start..lanes_end).step_by(4) {
            for (lane, acc) in acc.iter_mut().enumerate() {
                let lik = l_row[k + lane];
                let y = &solved[(k + lane) * n + col..][..C];
                for (a, &yk) in acc.iter_mut().zip(y) {
                    *a = lik.mul_add(yk, *a);
                }
            }
        }
        for k in lanes_end..i {
            let lik = l_row[k];
            let y = &solved[k * n + col..][..C];
            for (t, &yk) in tail.iter_mut().zip(y) {
                *t = lik.mul_add(yk, *t);
            }
        }
        let lii = l[i * n + i];
        for (c, out) in rest[col..col + C].iter_mut().enumerate() {
            let dot = (acc[0][c] + acc[2][c]) + (acc[1][c] + acc[3][c]) + tail[c];
            let e = if i == col + c { 1.0 } else { 0.0 };
            *out = (e - dot) / lii;
        }
    }
}

/// Cache-blocked row-major matmul kernel: `out = a · b` with
/// `a: m × k`, `b: k × n`, all row-major. The loop nest is
/// (depth block, column block, row, depth): each `BLOCK_COLS`-wide output
/// segment accumulates a `BLOCK_DEPTH`-deep partial product via the 4-wide
/// [`axpy`], so the inner loop is a pure streaming fused multiply-add over
/// contiguous memory. Exact zeros in `a` skip their row pass — the stacked
/// whitening factors of the batched Mahalanobis kernel are half zeros.
fn matmul_into(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    out.fill(0.0);
    let mut kb = 0;
    while kb < k {
        let kend = (kb + BLOCK_DEPTH).min(k);
        let mut jb = 0;
        while jb < n {
            let jend = (jb + BLOCK_COLS).min(n);
            for i in 0..m {
                let a_row = &a[i * k..(i + 1) * k];
                let out_seg = &mut out[i * n + jb..i * n + jend];
                for kk in kb..kend {
                    let aik = a_row[kk];
                    if crate::exactly_zero(aik) {
                        continue;
                    }
                    axpy(aik, &b[kk * n + jb..kk * n + jend], out_seg);
                }
            }
            jb = jend;
        }
        kb = kend;
    }
}

/// A dense, row-major, heap-allocated matrix of `f64`.
///
/// Sized for the vProfile workload: edge sets are a few dozen samples long,
/// so covariance matrices are on the order of 32×32 up to ~200×200 for the
/// high-sample-rate sweeps. Simple dense algorithms are used throughout.
///
/// # Example
///
/// ```
/// use vprofile_sigstat::Matrix;
///
/// let identity = Matrix::identity(3);
/// let scaled = &identity * 2.0;
/// assert_eq!(scaled[(1, 1)], 2.0);
/// ```
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

crate::clone_in_place!(Matrix { rows, cols, data });

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, SigStatError> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(SigStatError::DimensionMismatch {
                expected: rows.saturating_mul(cols),
                actual: data.len(),
                context: "Matrix::from_row_major",
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::EmptyInput`] for an empty row set and
    /// [`SigStatError::DimensionMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, SigStatError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(SigStatError::EmptyInput {
                context: "Matrix::from_rows",
            });
        }
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(SigStatError::DimensionMismatch {
                    expected: ncols,
                    actual: row.len(),
                    context: "Matrix::from_rows",
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow a row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The raw row-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing storage, for the in-place kernels.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The `0 × 0` placeholder a reusable buffer starts as: the in-place
    /// writers ([`Matrix::assign_scaled`], [`Matrix::cholesky_into`]) take
    /// their operand's shape on first use.
    pub(crate) fn empty() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Overwrites `self` with `src * scalar`, taking `src`'s shape. The
    /// same per-entry product as `&src * scalar`, without an allocation
    /// once `self` has the capacity.
    pub(crate) fn assign_scaled(&mut self, src: &Matrix, scalar: f64) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend(src.data.iter().map(|v| v * scalar));
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut out = Vec::with_capacity(self.rows);
        self.mul_vec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `self * x` written into `out` (cleared first),
    /// so a reused output buffer makes the product allocation-free. Each
    /// output entry is one 4-wide [`dot`] over a contiguous row.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), SigStatError> {
        if x.len() != self.cols {
            return Err(SigStatError::DimensionMismatch {
                expected: self.cols,
                actual: x.len(),
                context: "Matrix::mul_vec",
            });
        }
        out.clear();
        out.extend(self.data.chunks_exact(self.cols).map(|row| dot(row, x)));
        Ok(())
    }

    /// Matrix product `self * rhs` written into `out` (overwritten), using
    /// the cache-blocked `mul_add` kernel. With a reused `out` the product
    /// is allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if the inner dimensions
    /// disagree or `out` is not `self.rows() × rhs.cols()`.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), SigStatError> {
        if self.cols != rhs.rows {
            return Err(SigStatError::DimensionMismatch {
                expected: self.cols,
                actual: rhs.rows,
                context: "Matrix::mul_into",
            });
        }
        if out.rows != self.rows || out.cols != rhs.cols {
            return Err(SigStatError::DimensionMismatch {
                expected: self.rows * rhs.cols,
                actual: out.rows * out.cols,
                context: "Matrix::mul_into",
            });
        }
        matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        Ok(())
    }

    /// Accumulates the upper triangle of the outer product `v vᵀ` into
    /// `self` (a symmetric rank-1 update touching only `j ≥ i`), with the
    /// 4-wide [`axpy`] kernel on each contiguous row tail. Exact zeros in
    /// `v` contribute nothing and skip their row.
    pub(crate) fn add_upper_triangle_outer(&mut self, v: &[f64]) {
        debug_assert!(
            self.is_square() && self.rows == v.len(),
            "rank-1 update requires a square matrix matching the vector"
        );
        for (i, &vi) in v.iter().enumerate() {
            if crate::exactly_zero(vi) {
                continue;
            }
            let row = &mut self.data[i * self.cols + i..(i + 1) * self.cols];
            axpy(vi, &v[i..], row);
        }
    }

    /// Adds `lambda` to every diagonal entry, in place.
    ///
    /// This is the ridge ("shrinkage") regularization used when a sample
    /// covariance is numerically singular, e.g. for heavily quantized
    /// low-resolution traces (thesis §4.3).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_ridge(&mut self, lambda: f64) {
        assert!(self.is_square(), "ridge requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += lambda;
        }
    }

    /// `true` when the matrix is square and symmetric to within `tol`
    /// (absolute, per entry).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                if (self[(r, c)] - self[(c, r)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// `true` when the matrix is square and symmetric to within the
    /// tolerance [`Matrix::cholesky`] assumes of its input: `1e-9` of the
    /// largest diagonal magnitude, and at least `1e-9`. The factorization
    /// reads only the lower triangle, so it would factor a matrix outside
    /// this tolerance as a different matrix than the one stored.
    pub fn is_cholesky_symmetric(&self) -> bool {
        self.is_square() && self.is_symmetric(1e-9 * self.max_abs_diagonal().max(1.0))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute diagonal entry. Zero-dimension matrices cannot exist.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn max_abs_diagonal(&self) -> f64 {
        assert!(self.is_square(), "diagonal requires a square matrix");
        (0..self.rows)
            .map(|i| self[(i, i)].abs())
            .fold(0.0, f64::max)
    }

    /// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite
    /// matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::NotPositiveDefinite`] if a pivot is
    /// non-positive (within a tiny relative tolerance) or not finite, which
    /// is exactly how the singular covariance matrices of thesis §4.3
    /// manifest and where a non-finite entry of the lower triangle
    /// surfaces, and [`SigStatError::DimensionMismatch`] for non-square
    /// input.
    pub fn cholesky(&self) -> Result<Cholesky, SigStatError> {
        let mut chol = Cholesky::empty();
        self.cholesky_into(&mut chol)?;
        Ok(chol)
    }

    /// [`Matrix::cholesky`] into a reused factor, allocation-free once
    /// `out` has this matrix's shape. On error `out` holds a partial factor
    /// and must be refilled before use.
    ///
    /// The factor is built column by column (left-looking), reading only
    /// the lower triangle of `self`. Each entry keeps its unfused
    /// `v -= l_ik · l_jk` chain in increasing `k`, so the bits do not
    /// depend on the loop structure; the rows below a pivot are
    /// independent of one another, so four of them run interleaved for
    /// instruction-level parallelism.
    pub(crate) fn cholesky_into(&self, out: &mut Cholesky) -> Result<(), SigStatError> {
        if !self.is_square() {
            return Err(SigStatError::DimensionMismatch {
                expected: self.rows,
                actual: self.cols,
                context: "Matrix::cholesky",
            });
        }
        let n = self.rows;
        debug_assert!(
            self.is_cholesky_symmetric(),
            "cholesky input must be symmetric"
        );
        if out.l.rows != n || out.l.cols != n {
            out.l = Matrix::zeros(n, n);
        }
        // Tolerance scaled to the matrix magnitude: pivots smaller than this
        // are treated as zero, i.e. the matrix is singular.
        let tol = 1e-12 * self.max_abs_diagonal().max(f64::MIN_POSITIVE);
        let a = &self.data;
        let l = &mut out.l.data;
        for j in 0..n {
            let (done, below) = l.split_at_mut((j + 1) * n);
            let (lj, pivot_row) = done[j * n..].split_at_mut(j);
            let mut diag = a[j * n + j];
            for &v in lj.iter() {
                diag -= v * v;
            }
            if diag <= tol || !diag.is_finite() {
                return Err(SigStatError::NotPositiveDefinite {
                    pivot: j,
                    diagonal: diag,
                });
            }
            let ljj = diag.sqrt();
            pivot_row[0] = ljj;
            pivot_row[1..].fill(0.0);
            let lj = &*lj;
            let mut i = j + 1;
            let mut quads = below.chunks_exact_mut(4 * n);
            for quad in quads.by_ref() {
                let (r0, rest) = quad.split_at_mut(n);
                let (r1, rest) = rest.split_at_mut(n);
                let (r2, r3) = rest.split_at_mut(n);
                let mut v = [
                    a[i * n + j],
                    a[(i + 1) * n + j],
                    a[(i + 2) * n + j],
                    a[(i + 3) * n + j],
                ];
                let (p0, p1, p2, p3) = (&r0[..j], &r1[..j], &r2[..j], &r3[..j]);
                for (k, &x) in lj.iter().enumerate() {
                    v[0] -= p0[k] * x;
                    v[1] -= p1[k] * x;
                    v[2] -= p2[k] * x;
                    v[3] -= p3[k] * x;
                }
                r0[j] = v[0] / ljj;
                r1[j] = v[1] / ljj;
                r2[j] = v[2] / ljj;
                r3[j] = v[3] / ljj;
                i += 4;
            }
            for row in quads.into_remainder().chunks_exact_mut(n) {
                let mut v = a[i * n + j];
                for (&p, &x) in row[..j].iter().zip(lj) {
                    v -= p * x;
                }
                row[j] = v / ljj;
                i += 1;
            }
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>12.6}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition requires equal shapes"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction requires equal shapes"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product requires inner dimensions to match"
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        matmul_into(
            &self.data,
            self.rows,
            self.cols,
            &rhs.data,
            rhs.cols,
            &mut out.data,
        );
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, scalar: f64) -> Matrix {
        let mut out = Matrix::empty();
        out.assign_scaled(self, scalar);
        out
    }
}

/// The lower-triangular Cholesky factor `L` of a symmetric positive-definite
/// matrix `A = L Lᵀ`, with solvers built on forward/back substitution.
///
/// Mahalanobis distances are computed through this factor rather than an
/// explicit inverse covariance: `d²(x) = ‖L⁻¹ (x − μ)‖²`, which is cheaper
/// and numerically better behaved.
///
/// # Example
///
/// ```
/// use vprofile_sigstat::Matrix;
///
/// # fn main() -> Result<(), vprofile_sigstat::SigStatError> {
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&[1.0, 1.0])?;
/// // A * x == [1, 1]
/// let back = a.mul_vec(&x)?;
/// assert!((back[0] - 1.0).abs() < 1e-12);
/// assert!((back[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct Cholesky {
    l: Matrix,
}

crate::clone_in_place!(Cholesky { l });

impl Cholesky {
    /// An empty factor buffer for [`Matrix::cholesky_into`] to fill.
    pub(crate) fn empty() -> Self {
        Cholesky { l: Matrix::empty() }
    }

    /// The dimension `n` of the factored `n × n` matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `L y = b` by forward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn forward_solve(&self, b: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut y = Vec::with_capacity(self.dim());
        self.forward_solve_into(b, &mut y)?;
        Ok(y)
    }

    /// Forward substitution into a reusable buffer (cleared first): row `i`
    /// subtracts the 4-wide [`dot`] of `L`'s contiguous row prefix with the
    /// already-solved prefix of `y`, so the solve is allocation-free once
    /// `y` has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn forward_solve_into(&self, b: &[f64], y: &mut Vec<f64>) -> Result<(), SigStatError> {
        let n = self.dim();
        if b.len() != n {
            return Err(SigStatError::DimensionMismatch {
                expected: n,
                actual: b.len(),
                context: "Cholesky::forward_solve",
            });
        }
        y.clear();
        y.extend_from_slice(b);
        self.forward_solve_in_place(y);
        Ok(())
    }

    /// Forward substitution over `y` in place: on entry `y` holds `b`, on
    /// return `L⁻¹ b`. Entry `i` is replaced only after the solved prefix
    /// `y[..i]` it reads is final, so the arithmetic is exactly that of
    /// [`Cholesky::forward_solve_into`]. `y.len()` must be `self.dim()`.
    pub(crate) fn forward_solve_in_place(&self, y: &mut [f64]) {
        debug_assert_eq!(y.len(), self.dim(), "forward solve dimension");
        for (i, row) in self.l.data.chunks_exact(self.l.cols).enumerate() {
            let (solved, rest) = y.split_at_mut(i);
            rest[0] = (rest[0] - dot(&row[..i], solved)) / row[i];
        }
    }

    /// Solves `Lᵀ x = y` by back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `y.len() != self.dim()`.
    pub fn backward_solve(&self, y: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let mut x = Vec::with_capacity(self.dim());
        self.backward_solve_into(y, &mut x)?;
        Ok(x)
    }

    /// Back substitution into a reusable buffer (cleared first). `Lᵀ` has
    /// stride-`n` columns, so instead of strided dots this uses the
    /// column-sweep formulation: once `x_i` is fixed, `x_i · L[i, ..i]`
    /// (a contiguous row prefix) is subtracted from the remaining partial
    /// sums with the 4-wide [`axpy`].
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `y.len() != self.dim()`.
    pub fn backward_solve_into(&self, y: &[f64], x: &mut Vec<f64>) -> Result<(), SigStatError> {
        let n = self.dim();
        if y.len() != n {
            return Err(SigStatError::DimensionMismatch {
                expected: n,
                actual: y.len(),
                context: "Cholesky::backward_solve",
            });
        }
        x.clear();
        x.extend_from_slice(y);
        for i in (0..n).rev() {
            let row = self.l.row(i);
            let xi = x[i] / row[i];
            x[i] = xi;
            axpy(-xi, &row[..i], &mut x[..i]);
        }
        Ok(())
    }

    /// Solves `A x = b` where `A = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SigStatError> {
        let y = self.forward_solve(b)?;
        self.backward_solve(&y)
    }

    /// The squared Mahalanobis norm `bᵀ A⁻¹ b = ‖L⁻¹ b‖²`.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn quadratic_form(&self, b: &[f64]) -> Result<f64, SigStatError> {
        let mut scratch = Vec::with_capacity(self.dim());
        self.quadratic_form_with(b, &mut scratch)
    }

    /// [`Cholesky::quadratic_form`] with a caller-provided solve buffer, so
    /// repeated distance evaluations are allocation-free once the buffer
    /// has capacity.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn quadratic_form_with(
        &self,
        b: &[f64],
        scratch: &mut Vec<f64>,
    ) -> Result<f64, SigStatError> {
        self.forward_solve_into(b, scratch)?;
        Ok(squared_norm(scratch))
    }

    /// The quadratic form of the vector `y` holds on entry, solved in place
    /// (on return `y` holds `L⁻¹ b`): [`Cholesky::quadratic_form_with`]
    /// without the copy into a second buffer. `y.len()` must be
    /// `self.dim()`.
    pub(crate) fn quadratic_form_in_place(&self, y: &mut [f64]) -> f64 {
        self.forward_solve_in_place(y);
        squared_norm(y)
    }

    /// Cheap condition estimate `(max L_ii / min L_ii)²` from the factor's
    /// diagonal. A lower bound on the true 2-norm condition number of `A`,
    /// adequate for "is this covariance numerically usable" gating.
    pub fn condition_estimate(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..self.dim() {
            let d = self.l[(i, i)].abs();
            lo = lo.min(d);
            hi = hi.max(d);
        }
        if lo <= f64::MIN_POSITIVE {
            return f64::INFINITY;
        }
        let r = hi / lo;
        r * r
    }

    /// Reconstructs the explicit inverse `A⁻¹`.
    ///
    /// The detection hot path never needs this (it uses [`Cholesky::solve`]),
    /// but the thesis' Algorithm 4 stores `clustInvCovs` explicitly, so the
    /// model-serialization code exposes it.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] only if an internal
    /// invariant is violated; propagated rather than unwrapped so the
    /// numeric error path stays typed end to end.
    pub fn inverse(&self) -> Result<Matrix, SigStatError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        Ok(inv)
    }

    /// The explicit inverse factor `W = L⁻¹` (lower triangular), so that
    /// `A⁻¹ = Wᵀ W` and `‖W b‖² = bᵀ A⁻¹ b`, written row-major into `w`
    /// (`n × n`, overwritten) without allocating.
    ///
    /// This is the building block of the batched Mahalanobis kernel
    /// ([`crate::BatchedMahalanobis`]): stacking the `W` factors of many
    /// clusters turns a per-cluster triangular solve into one dense
    /// matrix–vector (or matrix–matrix, for frame batches) product.
    ///
    /// Column `j` of `W` is the forward solve of the unit vector `e_j`,
    /// bit for bit: every entry keeps the solve's dot-product lanes
    /// (`k mod 4`), its tail split at `4⌊i/4⌋` and its
    /// `(l0 + l2) + (l1 + l3) + tail` reduction. Two things make it cheap. The solved prefix `y[..j]` of
    /// column `j` is exactly zero, and adding `l · 0` to a lane that is
    /// still `+0` leaves it `+0`, so each dot starts at `j & !3` instead of
    /// 0. And four adjacent columns share a start, so they are solved
    /// together: each `L` entry is loaded once for four columns, and the
    /// four divisions per row are independent.
    ///
    /// # Errors
    ///
    /// Returns [`SigStatError::DimensionMismatch`] if `w.len() != n²`.
    pub fn inverse_factor_into(&self, w: &mut [f64]) -> Result<(), SigStatError> {
        let n = self.dim();
        if w.len() != n * n {
            return Err(SigStatError::DimensionMismatch {
                expected: n * n,
                actual: w.len(),
                context: "Cholesky::inverse_factor_into",
            });
        }
        // The solves read the zeros above the diagonal as the solved prefix
        // of each column.
        w.fill(0.0);
        let l = self.l.as_slice();
        let blocked = n & !3;
        for col in (0..blocked).step_by(4) {
            inverse_factor_columns::<4>(l, w, n, col);
        }
        for col in blocked..n {
            inverse_factor_columns::<1>(l, w, n, col);
        }
        Ok(())
    }

    /// Log-determinant of `A`, `log det A = 2 Σ log L_ii`.
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_round_trips_through_mul() {
        let i3 = Matrix::identity(3);
        let m = Matrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 9.0],
        ])
        .unwrap();
        assert_eq!(&m * &i3, m);
        assert_eq!(&i3 * &m, m);
    }

    #[test]
    fn clone_from_matches_clone_when_shrinking_or_growing() {
        let small = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 4.0]]).unwrap();
        let large = Matrix::from_row_major(3, 4, (0..12).map(f64::from).collect()).unwrap();
        for (target, source) in [(&large, &small), (&small, &large), (&small, &small)] {
            let mut copy = target.clone();
            copy.clone_from(source);
            assert_eq!(copy, source.clone());
            assert_eq!(format!("{copy:?}"), format!("{:?}", source.clone()));
            assert_eq!((copy.rows(), copy.cols()), (source.rows(), source.cols()));
        }
        // Shrinking copies into the existing buffer.
        let mut copy = large.clone();
        let buffer = copy.data.as_ptr();
        copy.clone_from(&small);
        assert_eq!(copy.data.as_ptr(), buffer);
    }

    #[test]
    fn from_row_major_validates_length() {
        let err = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, SigStatError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, SigStatError::DimensionMismatch { .. }));
        let err = Matrix::from_rows(&[]).unwrap_err();
        assert!(matches!(err, SigStatError::EmptyInput { .. }));
    }

    #[test]
    fn transpose_is_involutive() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().rows(), 3);
    }

    #[test]
    fn mul_vec_matches_manual_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let y = m.mul_vec(&[5.0, 6.0]).unwrap();
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn mul_vec_rejects_wrong_length() {
        let m = Matrix::identity(2);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        assert!(approx(chol.factor()[(0, 0)], 2.0, 1e-12));
        assert!(approx(chol.factor()[(1, 0)], 1.0, 1e-12));
        assert!(approx(chol.factor()[(1, 1)], 2.0_f64.sqrt(), 1e-12));
    }

    #[test]
    fn cholesky_rejects_singular_matrix() {
        // Rank-1 matrix.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let err = a.cholesky().unwrap_err();
        assert!(matches!(
            err,
            SigStatError::NotPositiveDefinite { pivot: 1, .. }
        ));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            a.cholesky().unwrap_err(),
            SigStatError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn ridge_restores_positive_definiteness() {
        let mut a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(a.cholesky().is_err());
        a.add_ridge(1e-6);
        assert!(a.cholesky().is_ok());
    }

    #[test]
    fn solve_inverts_known_system() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]).unwrap();
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[8.0, 7.0]).unwrap();
        let b = a.mul_vec(&x).unwrap();
        assert!(approx(b[0], 8.0, 1e-12));
        assert!(approx(b[1], 7.0, 1e-12));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ])
        .unwrap();
        let inv = a.cholesky().unwrap().inverse().unwrap();
        let prod = &a * &inv;
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    approx(prod[(i, j)], want, 1e-10),
                    "({i},{j}) = {}",
                    prod[(i, j)]
                );
            }
        }
    }

    #[test]
    fn log_determinant_matches_known_value() {
        let a = Matrix::from_diagonal(&[2.0, 3.0, 4.0]);
        let chol = a.cholesky().unwrap();
        assert!(approx(chol.log_determinant(), (24.0_f64).ln(), 1e-12));
    }

    #[test]
    fn quadratic_form_on_identity_is_squared_norm() {
        let chol = Matrix::identity(3).cholesky().unwrap();
        let q = chol.quadratic_form(&[1.0, 2.0, 2.0]).unwrap();
        assert!(approx(q, 9.0, 1e-12));
    }

    #[test]
    fn display_renders_all_entries() {
        let m = Matrix::identity(2);
        let s = m.to_string();
        assert!(s.lines().count() == 2);
        assert!(s.contains("1.000000"));
    }

    /// Textbook triple-loop reference matmul: the blocked `mul_add` kernel
    /// is property-tested against this.
    fn reference_mul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for r in 0..a.rows() {
            for c in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(r, k)] * b[(k, c)];
                }
                out[(r, c)] = acc;
            }
        }
        out
    }

    /// Scalar-reference forward substitution (the pre-kernel formulation).
    fn reference_forward_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for (k, yk) in y.iter().enumerate().take(i) {
                v -= l[(i, k)] * yk;
            }
            y[i] = v / l[(i, i)];
        }
        y
    }

    /// Scalar-reference back substitution (the pre-kernel formulation).
    fn reference_backward_solve(l: &Matrix, y: &[f64]) -> Vec<f64> {
        let n = l.rows();
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for k in (i + 1)..n {
                v -= l[(k, i)] * x[k];
            }
            x[i] = v / l[(i, i)];
        }
        x
    }

    /// The index-based Cholesky this module shipped before the row-slice
    /// kernel: the bit-identity reference for [`Matrix::cholesky`].
    fn reference_cholesky(a: &Matrix) -> Result<Matrix, SigStatError> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        let tol = 1e-12 * a.max_abs_diagonal().max(f64::MIN_POSITIVE);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= tol || !diag.is_finite() {
                return Err(SigStatError::NotPositiveDefinite {
                    pivot: j,
                    diagonal: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(l)
    }

    /// The per-column inverse factor this module shipped before
    /// [`Cholesky::inverse_factor_into`]: one full forward solve of each
    /// unit vector, with the forward solve it used.
    fn reference_inverse_factor(chol: &Cholesky) -> Matrix {
        let n = chol.dim();
        let mut w = Matrix::zeros(n, n);
        for j in 0..n {
            let mut y: Vec<f64> = Vec::with_capacity(n);
            for i in 0..n {
                let row = chol.factor().row(i);
                let b = if i == j { 1.0 } else { 0.0 };
                let v = b - dot(&row[..i], &y[..i]);
                y.push(v / row[i]);
            }
            for i in j..n {
                w[(i, j)] = y[i];
            }
        }
        w
    }

    /// Seeded SPD matrix `B Bᵀ + ridge·I` whose upper triangle is nudged by
    /// a few ulps, as a Welford covariance is: only the lower triangle may
    /// be read.
    fn random_spd(seed: u64, n: usize) -> Matrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_row_major(
            n,
            n,
            (0..n * n).map(|_| rng.random_range(-3.0..3.0)).collect(),
        )
        .unwrap();
        let mut spd = &b * &b.transpose();
        spd.add_ridge(rng.random_range(1e-3..1.0));
        for i in 0..n {
            for j in (i + 1)..n {
                spd[(i, j)] *= 1.0 + rng.random_range(-1e-13..1e-13);
            }
        }
        spd
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn cholesky_failure_matches_reference() {
        // Rank-deficient B Bᵀ (a zero column in B) fails at the same pivot
        // with the same diagonal bits; a NaN in the lower triangle fails
        // instead of propagating.
        for n in [3usize, 7, 12] {
            let mut b = random_spd(n as u64, n);
            for j in 0..n {
                b[(n - 1, j)] = b[(n - 2, j)];
                b[(j, n - 1)] = b[(j, n - 2)];
            }
            let got = b.cholesky().unwrap_err();
            let want = reference_cholesky(&b).unwrap_err();
            match (got, want) {
                (
                    SigStatError::NotPositiveDefinite { pivot, diagonal },
                    SigStatError::NotPositiveDefinite {
                        pivot: p,
                        diagonal: d,
                    },
                ) => {
                    assert_eq!(pivot, p);
                    assert_eq!(diagonal.to_bits(), d.to_bits());
                }
                (got, want) => panic!("{got:?} vs {want:?}"),
            }
        }
        let mut nan = Matrix::identity(5);
        nan[(3, 1)] = f64::NAN;
        assert!(matches!(
            nan.cholesky().unwrap_err(),
            SigStatError::NotPositiveDefinite { pivot: 3, .. }
        ));
    }

    #[test]
    fn inverse_factor_into_validates_length() {
        let chol = Matrix::identity(3).cholesky().unwrap();
        let mut short = vec![0.0; 8];
        assert!(chol.inverse_factor_into(&mut short).is_err());
    }

    #[test]
    fn mul_into_validates_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 4);
        let mut bad = Matrix::zeros(2, 3);
        assert!(a.mul_into(&b, &mut bad).is_err());
        assert!(b.mul_into(&a, &mut bad).is_err());
        let mut ok = Matrix::zeros(2, 4);
        assert!(a.mul_into(&b, &mut ok).is_ok());
    }

    #[test]
    fn blocked_kernel_crosses_block_boundaries() {
        // 150×150: exercises both the depth (64) and column (128) block
        // seams plus non-multiple-of-4 tails.
        let n = 150;
        let a = Matrix::from_row_major(
            n,
            n,
            (0..n * n).map(|i| ((i * 37 % 113) as f64) - 56.0).collect(),
        )
        .unwrap();
        let b = Matrix::from_row_major(
            n,
            n,
            (0..n * n).map(|i| ((i * 53 % 97) as f64) - 48.0).collect(),
        )
        .unwrap();
        let got = &a * &b;
        let want = reference_mul(&a, &b);
        for r in 0..n {
            for c in 0..n {
                assert!(
                    approx(got[(r, c)], want[(r, c)], 1e-9),
                    "({r},{c}): {} vs {}",
                    got[(r, c)],
                    want[(r, c)]
                );
            }
        }
    }

    proptest! {
        /// Blocked `mul_add` matmul agrees with the scalar triple loop to
        /// ≤ 1e-9 (relative) on arbitrary shapes, including tails that do
        /// not divide the 4-wide chunking or the block sizes.
        #[test]
        fn prop_blocked_mul_matches_reference(
            m in 1usize..12,
            k in 1usize..12,
            n in 1usize..12,
            seed in proptest::collection::vec(-10.0f64..10.0, 144 * 2),
        ) {
            let a = Matrix::from_row_major(m, k, seed[..m * k].to_vec()).unwrap();
            let b = Matrix::from_row_major(k, n, seed[144..144 + k * n].to_vec()).unwrap();
            let got = &a * &b;
            let want = reference_mul(&a, &b);
            for r in 0..m {
                for c in 0..n {
                    prop_assert!(approx(got[(r, c)], want[(r, c)], 1e-9));
                }
            }
        }

        /// `mul_vec` (4-wide dot kernel) agrees with the scalar reference.
        #[test]
        fn prop_mul_vec_matches_reference(
            m in 1usize..10,
            k in 1usize..32,
            seed in proptest::collection::vec(-10.0f64..10.0, 10 * 32 + 32),
        ) {
            let a = Matrix::from_row_major(m, k, seed[..m * k].to_vec()).unwrap();
            let x = &seed[10 * 32..10 * 32 + k];
            let got = a.mul_vec(x).unwrap();
            for (r, g) in got.iter().enumerate() {
                let want: f64 = (0..k).map(|c| a[(r, c)] * x[c]).sum();
                prop_assert!(approx(*g, want, 1e-9));
            }
        }

        /// Kernelized triangular solves agree with the scalar-reference
        /// substitutions to ≤ 1e-9 on random SPD factors.
        #[test]
        fn prop_solves_match_reference(
            vals in proptest::collection::vec(-3.0f64..3.0, 36),
            b in proptest::collection::vec(-10.0f64..10.0, 6),
        ) {
            let bmat = Matrix::from_row_major(6, 6, vals).unwrap();
            let mut spd = &bmat * &bmat.transpose();
            spd.add_ridge(1e-2);
            let chol = spd.cholesky().unwrap();
            let fwd = chol.forward_solve(&b).unwrap();
            let fwd_ref = reference_forward_solve(chol.factor(), &b);
            for (g, w) in fwd.iter().zip(&fwd_ref) {
                prop_assert!(approx(*g, *w, 1e-9));
            }
            let bwd = chol.backward_solve(&fwd).unwrap();
            let bwd_ref = reference_backward_solve(chol.factor(), &fwd_ref);
            for (g, w) in bwd.iter().zip(&bwd_ref) {
                prop_assert!(approx(*g, *w, 1e-9));
            }
        }

        /// The scratch-buffer entry points return bit-identical results when
        /// the buffer is reused across calls (no state leaks between solves).
        #[test]
        fn prop_scratch_reuse_is_identical(
            vals in proptest::collection::vec(-3.0f64..3.0, 16),
            b1 in proptest::collection::vec(-10.0f64..10.0, 4),
            b2 in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let bmat = Matrix::from_row_major(4, 4, vals).unwrap();
            let mut spd = &bmat * &bmat.transpose();
            spd.add_ridge(1e-2);
            let chol = spd.cholesky().unwrap();
            let mut scratch = Vec::new();
            let first = chol.quadratic_form_with(&b2, &mut scratch).unwrap();
            // Dirty the scratch with a different solve, then repeat.
            let _ = chol.quadratic_form_with(&b1, &mut scratch).unwrap();
            let again = chol.quadratic_form_with(&b2, &mut scratch).unwrap();
            prop_assert_eq!(first.to_bits(), again.to_bits());
            prop_assert_eq!(chol.quadratic_form(&b2).unwrap().to_bits(), first.to_bits());
        }
    }

    proptest! {
        /// The row-slice Cholesky and the column-blocked inverse factor are
        /// bit-identical to the index-based factorization and the
        /// per-column forward solves, on dimensions 1 to 40 (multiples of
        /// four and not), with the factor buffer reused across sizes.
        #[test]
        fn prop_kernels_match_reference_bits(seed in any::<u64>(), n in 1usize..=40) {
            let spd = random_spd(seed, n);
            let chol = spd.cholesky().unwrap();
            let want = reference_cholesky(&spd).unwrap();
            prop_assert!(same_bits(chol.factor().as_slice(), want.as_slice()));

            let mut reused = Matrix::identity(7).cholesky().unwrap();
            spd.cholesky_into(&mut reused).unwrap();
            prop_assert!(same_bits(reused.factor().as_slice(), want.as_slice()));

            let mut w = vec![f64::NAN; n * n];
            chol.inverse_factor_into(&mut w).unwrap();
            prop_assert!(same_bits(&w, reference_inverse_factor(&chol).as_slice()));
        }
    }

    proptest! {
        /// For any SPD matrix built as B Bᵀ + εI, Cholesky must succeed and
        /// solving must reproduce the right-hand side.
        #[test]
        fn prop_cholesky_solve_round_trip(
            vals in proptest::collection::vec(-5.0f64..5.0, 9),
            b in proptest::collection::vec(-10.0f64..10.0, 3),
        ) {
            let bmat = Matrix::from_row_major(3, 3, vals).unwrap();
            let mut spd = &bmat * &bmat.transpose();
            spd.add_ridge(1e-3);
            let chol = spd.cholesky().unwrap();
            let x = chol.solve(&b).unwrap();
            let back = spd.mul_vec(&x).unwrap();
            for (got, want) in back.iter().zip(&b) {
                prop_assert!((got - want).abs() < 1e-6 * (1.0 + want.abs()));
            }
        }

        /// L Lᵀ must reconstruct the original matrix.
        #[test]
        fn prop_factor_reconstructs(
            vals in proptest::collection::vec(-3.0f64..3.0, 16),
        ) {
            let bmat = Matrix::from_row_major(4, 4, vals).unwrap();
            let mut spd = &bmat * &bmat.transpose();
            spd.add_ridge(1e-2);
            let l = spd.cholesky().unwrap();
            let rebuilt = &(l.factor().clone()) * &l.factor().transpose();
            for i in 0..4 {
                for j in 0..4 {
                    prop_assert!((rebuilt[(i, j)] - spd[(i, j)]).abs() < 1e-8 * (1.0 + spd[(i, j)].abs()));
                }
            }
        }

        /// The quadratic form through the factor equals bᵀ A⁻¹ b via the
        /// explicit inverse.
        #[test]
        fn prop_quadratic_form_matches_inverse(
            vals in proptest::collection::vec(-3.0f64..3.0, 9),
            b in proptest::collection::vec(-5.0f64..5.0, 3),
        ) {
            let bmat = Matrix::from_row_major(3, 3, vals).unwrap();
            let mut spd = &bmat * &bmat.transpose();
            spd.add_ridge(1e-2);
            let chol = spd.cholesky().unwrap();
            let q = chol.quadratic_form(&b).unwrap();
            let inv = chol.inverse().unwrap();
            let ib = inv.mul_vec(&b).unwrap();
            let q2: f64 = b.iter().zip(&ib).map(|(a, c)| a * c).sum();
            prop_assert!((q - q2).abs() < 1e-6 * (1.0 + q.abs()));
        }
    }
}
