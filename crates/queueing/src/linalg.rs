//! Small dense matrices.
//!
//! The QBD blocks are at most `(MPL+1) × (MPL+1)` (about a hundred rows at
//! the MPLs the jump-start visits), so a simple row-major dense matrix with
//! partial-pivot LU is all we need — no external linear-algebra dependency.
//! [`Mat::inverse`] factors once and substitutes against the same factors,
//! so an inverse costs one O(n³) factorisation rather than `n` of them.
//!
//! The O(n³) kernels — [`Mat::mul`], the LU elimination and the
//! inverse's substitutions — are written as row-slice axpy loops
//! (`row_r += f · row_k`), which the compiler vectorises. They compute
//! exactly the bits of the textbook element-by-element loops: every
//! output element still sees the same multiplications and additions in
//! the same order, and only which elements are in flight together
//! changes. So
//! `out[i][j]` of a product accumulates `a[i][k]·b[k][j]` in ascending
//! `k` (skipping `a[i][k] = 0` as before), and the inverse solves all
//! `n` right-hand sides at once, `X[r] -= L[r][j]·X[j]` for ascending
//! `j` and then `X[r] -= U[r][j]·X[j]` and `X[r] /= U[r][r]`, which is
//! column `c`'s own forward and back substitution, element by element.
//! Rust never contracts `a·b + c` into a fused multiply-add, so
//! vectorising cannot change a rounding either.

use std::ops::{Index, IndexMut};

/// A row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Mat {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// An `n × n` diagonal matrix with the given diagonal.
    pub fn diag(d: &[f64]) -> Mat {
        let mut m = Mat::zeros(d.len(), d.len());
        for (i, &x) in d.iter().enumerate() {
            m[(i, i)] = x;
        }
        m
    }

    /// Build from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Mat {
        let mut m = Mat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
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

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in mul");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        if self.cols == 0 || rhs.cols == 0 {
            return out;
        }
        for (row, a_row) in out
            .data
            .chunks_exact_mut(rhs.cols)
            .zip(self.data.chunks_exact(self.cols))
        {
            for (&a, b_row) in a_row.iter().zip(rhs.data.chunks_exact(rhs.cols)) {
                if a != 0.0 {
                    axpy::<false>(row, a, b_row);
                }
            }
        }
        out
    }

    /// Row-vector × matrix: `v · self`.
    pub fn vec_mul(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch in vec_mul");
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += vi * self[(i, j)];
            }
        }
        out
    }

    /// Matrix × column-vector: `self · v`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in mul_vec");
        let mut out = vec![0.0; self.rows];
        for i in 0..self.rows {
            let mut s = 0.0;
            for j in 0..self.cols {
                s += self[(i, j)] * v[j];
            }
            out[i] = s;
        }
        out
    }

    /// Element-wise `self + rhs`.
    pub fn add(&self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }

    /// Element-wise `self - rhs`.
    pub fn sub(&self, rhs: &Mat) -> Mat {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Mat {
        let mut out = self.clone();
        for a in out.data.iter_mut() {
            *a *= s;
        }
        out
    }

    /// Maximum absolute element (∞ norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, x| m.max(x.abs()))
    }

    /// Solve `x · self = b` for the row vector `x` (i.e. solve
    /// `selfᵀ xᵀ = bᵀ`). Panics if the matrix is singular.
    pub fn solve_left(&self, b: &[f64]) -> Vec<f64> {
        let t = self.transpose();
        t.solve(b)
    }

    /// Solve `self · x = b` by LU with partial pivoting. Panics if the
    /// matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.rows);
        let mut x = b.to_vec();
        self.lu().solve_in_place(&mut x);
        x
    }

    /// Matrix inverse: one LU factorisation, then one forward and one
    /// back substitution over all `n` right-hand sides at once, O(n³) in
    /// total. Panics if singular.
    pub fn inverse(&self) -> Mat {
        let Lu { n, a, perm } = self.lu();
        // X = P·I: row r is the unit vector of column perm[r].
        let mut x = Mat::zeros(n, n);
        for (r, &p) in perm.iter().enumerate() {
            x.data[r * n + p] = 1.0;
        }
        // Forward substitution with the unit-diagonal L, rows top down.
        for r in 1..n {
            let (done, rest) = x.data.split_at_mut(r * n);
            substitute(&mut rest[..n], &a[r * n..r * n + r], done);
        }
        // Back substitution with U, rows bottom up.
        for r in (0..n).rev() {
            let (head, done) = x.data.split_at_mut((r + 1) * n);
            let row = &mut head[r * n..];
            substitute(row, &a[r * n + r + 1..(r + 1) * n], done);
            let d = a[r * n + r];
            row.iter_mut().for_each(|v| *v /= d);
        }
        x
    }

    /// Partial-pivot LU factorisation `P·self = L·U` (unit-diagonal `L`
    /// below the diagonal, `U` on and above it, packed in one buffer).
    fn lu(&self) -> Lu {
        assert_eq!(self.rows, self.cols, "LU requires a square matrix");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            assert!(best > 1e-300, "singular matrix in solve (col {col})");
            let (top, below) = a.split_at_mut((col + 1) * n);
            let pivot_row = &mut top[col * n..];
            if piv != col {
                pivot_row.swap_with_slice(&mut below[(piv - col - 1) * n..(piv - col) * n]);
                perm.swap(col, piv);
            }
            let d = pivot_row[col];
            let pivot_tail = &pivot_row[col + 1..];
            for row in below.chunks_exact_mut(n) {
                let f = row[col] / d;
                row[col] = f;
                if f != 0.0 {
                    axpy::<true>(&mut row[col + 1..], f, pivot_tail);
                }
            }
        }
        Lu { n, a, perm }
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

/// `y -= Σ_j coef[j]·rows[j]` for the rows of `rows` (each `y.len()`
/// long), the terms subtracted one by one in ascending `j`.
#[inline]
fn substitute(y: &mut [f64], coef: &[f64], rows: &[f64]) {
    for (&c, x) in coef.iter().zip(rows.chunks_exact(y.len())) {
        axpy::<true>(y, c, x);
    }
}

/// `y += a·x` (`y -= a·x` when `SUB`), element by element.
#[inline]
fn axpy<const SUB: bool>(y: &mut [f64], a: f64, x: &[f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        if SUB {
            *y -= a * x;
        } else {
            *y += a * x;
        }
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// A packed LU factorisation with its row permutation (see [`Mat::lu`]).
struct Lu {
    n: usize,
    a: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Overwrite `x` (holding `b`) with the solution of `A·x = b`.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        let a = &self.a;
        let b: Vec<f64> = self.perm.iter().map(|&p| x[p]).collect();
        x.copy_from_slice(&b);
        // Forward substitution with the unit-diagonal L.
        for r in 1..n {
            let mut s = x[r];
            for j in 0..r {
                s -= a[r * n + j] * x[j];
            }
            x[r] = s;
        }
        // Back substitution with U.
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in (col + 1)..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The kernels as they stood before the row-slice rewrite, kept
    /// verbatim as bit-for-bit references.
    mod reference {
        use super::super::{Lu, Mat};

        pub fn mul(lhs: &Mat, rhs: &Mat) -> Mat {
            assert_eq!(lhs.cols, rhs.rows, "dimension mismatch in mul");
            let mut out = Mat::zeros(lhs.rows, rhs.cols);
            for i in 0..lhs.rows {
                for k in 0..lhs.cols {
                    let a = lhs[(i, k)];
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..rhs.cols {
                        out[(i, j)] += a * rhs[(k, j)];
                    }
                }
            }
            out
        }

        pub fn inverse(m: &Mat) -> Mat {
            let lu = lu(m);
            let n = m.rows;
            let mut out = Mat::zeros(n, n);
            let mut col = vec![0.0; n];
            for j in 0..n {
                col.iter_mut().for_each(|x| *x = 0.0);
                col[j] = 1.0;
                lu.solve_in_place(&mut col);
                for (i, &x) in col.iter().enumerate() {
                    out[(i, j)] = x;
                }
            }
            out
        }

        pub fn lu(m: &Mat) -> Lu {
            assert_eq!(m.rows, m.cols, "LU requires a square matrix");
            let n = m.rows;
            let mut a = m.data.clone();
            let mut perm: Vec<usize> = (0..n).collect();
            for col in 0..n {
                let mut piv = col;
                let mut best = a[col * n + col].abs();
                for r in (col + 1)..n {
                    let v = a[r * n + col].abs();
                    if v > best {
                        best = v;
                        piv = r;
                    }
                }
                assert!(best > 1e-300, "singular matrix in solve (col {col})");
                if piv != col {
                    for j in 0..n {
                        a.swap(col * n + j, piv * n + j);
                    }
                    perm.swap(col, piv);
                }
                let d = a[col * n + col];
                for r in (col + 1)..n {
                    let f = a[r * n + col] / d;
                    a[r * n + col] = f;
                    if f == 0.0 {
                        continue;
                    }
                    for j in (col + 1)..n {
                        a[r * n + j] -= f * a[col * n + j];
                    }
                }
            }
            Lu { n, a, perm }
        }
    }

    /// A `rows × cols` matrix with about a third structural zeros, signed
    /// entries spread over six orders of magnitude, and (when `transversal`)
    /// a nonzero entry on a random permutation, so it is nonsingular yet
    /// still needs pivoting.
    fn sample(rows: usize, cols: usize, transversal: bool, seed: u64) -> Mat {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut m = Mat::from_fn(rows, cols, |_, _| {
            let bits = next();
            if bits % 3 == 0 {
                return 0.0;
            }
            let unit = (bits >> 8) as f64 / (1u64 << 45) as f64; // [0, 1)
            let sign = if bits & 4 == 0 { 1.0 } else { -1.0 };
            sign * unit * 10f64.powi((bits >> 3) as i32 % 6 - 3)
        });
        if transversal {
            let mut cols_left: Vec<usize> = (0..cols).collect();
            for i in 0..rows {
                let j = cols_left.swap_remove(next() as usize % cols_left.len());
                let sign = if next() & 1 == 0 { 1.0 } else { -1.0 };
                m[(i, j)] = sign * (0.5 + (next() % 1000) as f64 / 500.0);
            }
        }
        m
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.data.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Products of random rectangular matrices, with zeros to skip
        /// and negative entries, match the element-wise loop bit for bit.
        #[test]
        fn mul_matches_the_reference_bit_for_bit(
            r in 0usize..=40,
            k in 0usize..=40,
            c in 0usize..=40,
            seed in any::<u64>(),
        ) {
            let a = sample(r, k, false, seed);
            let b = sample(k, c, false, seed ^ 0x9e37_79b9_7f4a_7c15);
            prop_assert_eq!(bits(&a.mul(&b)), bits(&reference::mul(&a, &b)));
        }

        /// The LU factors, the permutation and the inverse of random
        /// nonsingular matrices match the per-column reference bit for bit.
        #[test]
        fn lu_and_inverse_match_the_reference_bit_for_bit(
            n in 0usize..=40,
            seed in any::<u64>(),
        ) {
            let a = sample(n, n, true, seed);
            let (got, want) = (a.lu(), reference::lu(&a));
            prop_assert_eq!(&got.perm, &want.perm);
            prop_assert_eq!(bits(&Mat { rows: n, cols: n, data: got.a }),
                            bits(&Mat { rows: n, cols: n, data: want.a }));
            prop_assert_eq!(bits(&a.inverse()), bits(&reference::inverse(&a)));
        }
    }

    #[test]
    fn identity_mul() {
        let i = Mat::identity(3);
        let a = Mat::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        assert_eq!(i.mul(&a), a);
        assert_eq!(a.mul(&i), a);
    }

    #[test]
    fn solve_known_system() {
        // [2 1; 1 3] x = [3; 5] -> x = [4/5, 7/5]
        let mut a = Mat::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = a.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the diagonal forces a pivot swap.
        let mut a = Mat::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Mat::from_fn(4, 4, |i, j| {
            if i == j {
                4.0
            } else {
                1.0 / (1.0 + (i + 2 * j) as f64)
            }
        });
        let inv = a.inverse();
        let prod = a.mul(&inv);
        let err = prod.sub(&Mat::identity(4)).max_abs();
        assert!(err < 1e-10, "err {err}");
    }

    #[test]
    fn vec_mul_matches_mul() {
        let a = Mat::from_fn(3, 4, |i, j| (i + j) as f64);
        let v = [1.0, 2.0, 3.0];
        let got = a.vec_mul(&v);
        for j in 0..4 {
            let want: f64 = (0..3).map(|i| v[i] * a[(i, j)]).sum();
            assert!((got[j] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_left_is_transpose_solve() {
        let a = Mat::from_fn(3, 3, |i, j| if i == j { 3.0 } else { 0.5 });
        let b = [1.0, 2.0, 3.0];
        let x = a.solve_left(&b);
        let back = a.vec_mul(&x);
        for (g, w) in back.iter().zip(b.iter()) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_panics() {
        let a = Mat::zeros(2, 2);
        a.solve(&[1.0, 1.0]);
    }

    #[test]
    fn transpose_diag_scale() {
        let d = Mat::diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d.transpose(), d);
        assert_eq!(d.scale(2.0)[(1, 1)], 4.0);
        assert_eq!(d.add(&d)[(0, 0)], 2.0);
        assert_eq!(d.sub(&d).max_abs(), 0.0);
    }
}
