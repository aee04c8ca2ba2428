//! Dense, row-major matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Result, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// The matrix is stored as a single contiguous buffer (`rows * cols` entries),
/// which keeps the hot loops (matrix multiplication, repeated squaring for
/// chain marginals) cache-friendly.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Errors
    /// Returns [`LinalgError::Empty`] for an empty row set and
    /// [`LinalgError::RaggedRows`] when rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::RaggedRows {
                    first: cols,
                    row: i,
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`
    /// and [`LinalgError::Empty`] when either dimension is zero.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "from_flat",
                expected: rows * cols,
                found: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
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

    /// `true` when the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns a view of row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns a mutable view of row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    pub fn column(&self, j: usize) -> Vector {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-matrix product `self * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matmul",
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (j, &b_kj) in b_row.iter().enumerate() {
                    out_row[j] += a_ik * b_kj;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v` (treating `v` as a column vector).
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn mul_vector(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix-vector product",
                expected: self.cols,
                found: v.len(),
            });
        }
        let mut out = Vector::zeros(self.rows);
        for i in 0..self.rows {
            out[i] = self
                .row(i)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum();
        }
        Ok(out)
    }

    /// Row-vector product `v^T * self`, i.e. one step of a distribution through
    /// a row-stochastic transition matrix.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.rows()`.
    pub fn left_mul(&self, v: &Vector) -> Result<Vector> {
        if self.rows != v.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "vector-matrix product",
                expected: self.rows,
                found: v.len(),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (j, &m_ij) in self.row(i).iter().enumerate() {
                out[j] += vi * m_ij;
            }
        }
        Ok(out)
    }

    /// Matrix power `self^k` by repeated squaring (`self^0` is the identity).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] if the matrix is not square.
    pub fn pow(&self, mut k: u32) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                rows: self.rows,
                cols: self.cols,
            });
        }
        let mut result = Matrix::identity(self.rows);
        let mut base = self.clone();
        while k > 0 {
            if k & 1 == 1 {
                result = result.matmul(&base)?;
            }
            k >>= 1;
            if k > 0 {
                base = base.matmul(&base)?;
            }
        }
        Ok(result)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the shapes differ.
    pub fn try_add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b, "matrix addition")
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    /// Returns [`LinalgError::DimensionMismatch`] when the shapes differ.
    pub fn try_sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b, "matrix subtraction")
    }

    fn zip_with(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
        operation: &'static str,
    ) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation,
                expected: self.rows * self.cols,
                found: other.rows * other.cols,
            });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| f(*a, *b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with every entry multiplied by `scalar`.
    pub fn scaled(&self, scalar: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * scalar).collect(),
        }
    }

    /// Maximum absolute entry (the max-norm), 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Spectral norm (largest singular value): the square root of the largest
    /// eigenvalue of `A^T A`, found by the Jacobi sweep of
    /// [`symmetric_eigenvalues`](crate::eigen::symmetric_eigenvalues).
    /// Intended for the small matrices used in this workspace.
    pub fn spectral_norm(&self) -> Result<f64> {
        let ata = self.transpose().matmul(self)?;
        let lambda = crate::eigen::largest_eigenvalue_symmetric(&ata)?;
        Ok(lambda.max(0.0).sqrt())
    }

    /// `true` if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// `true` if the matrix is symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{approx_eq, approx_eq_slice};

    #[test]
    fn construction() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());

        let id = Matrix::identity(3);
        assert!(id.is_square());
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);

        let d = Matrix::diagonal(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);

        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[vec![]]).is_err());
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_flat(0, 2, vec![]).is_err());
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn rows_columns_and_transpose() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.column(0).as_slice(), &[1.0, 3.0]);
        let t = m.transpose();
        assert_eq!(t[(0, 1)], 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx_eq_slice(
            c.as_slice(),
            &[19.0, 22.0, 43.0, 50.0],
            1e-12
        ));
        assert!(a.matmul(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn matrix_vector_products() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let v = Vector::from(vec![1.0, 1.0]);
        let mv = m.mul_vector(&v).unwrap();
        assert!(approx_eq_slice(mv.as_slice(), &[3.0, 7.0], 1e-12));
        let vm = m.left_mul(&v).unwrap();
        assert!(approx_eq_slice(vm.as_slice(), &[4.0, 6.0], 1e-12));
        assert!(m.mul_vector(&Vector::zeros(3)).is_err());
        assert!(m.left_mul(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn powers() {
        let p = Matrix::from_rows(&[vec![0.9, 0.1], vec![0.4, 0.6]]).unwrap();
        let p0 = p.pow(0).unwrap();
        assert_eq!(p0, Matrix::identity(2));
        let p1 = p.pow(1).unwrap();
        assert_eq!(p1, p);
        let p3 = p.pow(3).unwrap();
        let expected = p.matmul(&p).unwrap().matmul(&p).unwrap();
        assert!(approx_eq_slice(p3.as_slice(), expected.as_slice(), 1e-12));
        assert!(Matrix::zeros(2, 3).pow(2).is_err());
    }

    #[test]
    fn arithmetic_and_norms() {
        let a = Matrix::from_rows(&[vec![1.0, -2.0], vec![0.0, 3.0]]).unwrap();
        let b = Matrix::identity(2);
        let sum = a.try_add(&b).unwrap();
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = a.try_sub(&b).unwrap();
        assert_eq!(diff[(1, 1)], 2.0);
        assert!(a.try_add(&Matrix::zeros(3, 3)).is_err());
        assert!(a.try_sub(&Matrix::zeros(3, 3)).is_err());

        assert!(approx_eq(a.max_abs(), 3.0, 1e-12));
        assert!(approx_eq(
            a.frobenius_norm(),
            (1.0f64 + 4.0 + 9.0).sqrt(),
            1e-12
        ));
        let s = a.scaled(2.0);
        assert_eq!(s[(0, 1)], -4.0);
        assert!(a.is_finite());
    }

    #[test]
    fn spectral_norm_of_diagonal_matrix() {
        let d = Matrix::diagonal(&[3.0, -5.0, 1.0]);
        let norm = d.spectral_norm().unwrap();
        assert!(approx_eq(norm, 5.0, 1e-6), "norm was {norm}");
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]).unwrap();
        assert!(!a.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn debug_output_contains_dimensions() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
    }
}
