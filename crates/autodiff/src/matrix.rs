//! A minimal dense row-major `f64` matrix.
//!
//! Kept deliberately small: the training code needs allocation-light
//! elementwise arithmetic, row access, and a plain triple-loop matmul (the
//! neural baselines use weight matrices of at most a few thousand entries).

use std::fmt;

/// Dense row-major matrix of `f64`. The default is the empty `0×0`
/// matrix.
#[derive(Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Builds a `1×1` matrix holding a scalar.
    pub fn scalar(v: f64) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Gives up the flat row-major storage (capacity included).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reserves room for exactly `rows` rows in total (never less than
    /// the current shape), so that growing to that many rows appends in
    /// place instead of reallocating. A no-op when capacity suffices.
    pub fn reserve_rows(&mut self, rows: usize) {
        let target = rows.saturating_mul(self.cols);
        self.data
            .reserve_exact(target.saturating_sub(self.data.len()));
    }

    /// Makes `self` a copy of `other` (shape and entries), keeping the
    /// allocation when its capacity suffices.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.copy_rows_from(other, 0..other.rows);
    }

    /// Becomes a copy of rows `rows` of `other`, reusing this matrix's
    /// allocation.
    pub fn copy_rows_from(&mut self, other: &Matrix, rows: std::ops::Range<usize>) {
        let c = other.cols;
        self.rows = rows.len();
        self.cols = c;
        self.data.clear();
        self.data
            .extend_from_slice(&other.data[rows.start * c..rows.end * c]);
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts the scalar of a `1×1` matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not `1×1`.
    pub fn as_scalar(&self) -> f64 {
        assert_eq!((self.rows, self.cols), (1, 1), "not a scalar matrix");
        self.data[0]
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place `self += c * other`.
    pub fn axpy_assign(&mut self, c: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape());
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += c * b;
        }
    }

    /// Dense matmul `self (n×k) · other (k×m) → (n×m)`.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dim mismatch");
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            let arow = self.row(i);
            let orow = out.row_mut(i);
            for (p, &a) in arow.iter().enumerate().take(k) {
                if a == 0.0 {
                    continue;
                }
                let brow = &other.data[p * m..(p + 1) * m];
                for j in 0..m {
                    orow[j] += a * brow[j];
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute entry (0 for empty matrices).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > show {
            writeln!(f, "  ... ({} more rows)", self.rows - show)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(m.shape(), (2, 3));
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_rejects_bad_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i = Matrix::from_vec(3, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).data(), a.data());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose().data(), a.data());
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.all_finite());
        let b = Matrix::from_vec(1, 1, vec![f64::NAN]);
        assert!(!b.all_finite());
    }

    #[test]
    fn copy_from_takes_shape_and_keeps_storage() {
        let mut a = Matrix::zeros(4, 4);
        let before = a.data().as_ptr();
        let b = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.copy_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.data().as_ptr(), before, "smaller copy reuses the buffer");
        assert_eq!(a.into_vec(), b.data());
    }

    #[test]
    fn arithmetic_assign() {
        let mut a = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let b = Matrix::from_vec(1, 2, vec![10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        a.axpy_assign(0.5, &b);
        assert_eq!(a.data(), &[16.0, 32.0]);
    }
}
