//! Small dense matrices.
//!
//! The QBD blocks are at most `(MPL+1) × (MPL+1)` (about a hundred rows at
//! the MPLs the jump-start visits), so a simple row-major dense matrix with
//! partial-pivot LU is all we need — no external linear-algebra dependency.
//! [`Mat::inverse`] factors once and back-substitutes every column against
//! the same factors, so an inverse costs one O(n³) factorisation rather
//! than `n` of them.

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
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
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

    /// Matrix inverse: one LU factorisation reused for all `n` columns,
    /// O(n³) in total. Panics if singular.
    pub fn inverse(&self) -> Mat {
        let lu = self.lu();
        let n = self.rows;
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

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
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
