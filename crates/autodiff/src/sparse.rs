//! Compressed sparse row (CSR) matrices for graph propagation.
//!
//! The GCN global-aggregation step of the paper (Eq. 13) multiplies a
//! normalized bipartite adjacency by dense embedding matrices every forward
//! pass; CSR × dense is the only sparse kernel required. Matrices here are
//! *constants* of the computation graph (graph structure and item–tag
//! weights), so no gradient flows into them — the tape only needs the
//! transpose for back-propagating through the dense operand, which each
//! matrix builds once on first request ([`Csr::transposed`]).
//!
//! The product keeps each output row in registers while it walks the
//! row's entries — 8-column blocks plus a tail, stored once at the end —
//! instead of adding every entry into the output row in memory. Each
//! entry `(j, v)` still adds `v·x[j][c]` to column `c`'s running sum in
//! entry order from `0.0`, so the bits are the in-memory loop's. The body
//! is compiled three times (baseline, AVX2, AVX-512F) by
//! `taxorec_geometry::multiversion!`; a product runs the widest clone the
//! CPU supports, and a unit test holds every clone to the baseline's bits.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::matrix::Matrix;
use taxorec_geometry::isa::Isa;
use taxorec_geometry::multiversion;

/// Rows per parallel spmm job. Large enough to amortize job claiming,
/// small enough that skewed row lengths still load-balance.
const SPMM_ROW_BLOCK: usize = 64;

/// Columns per register block of the spmm kernel.
const COL_BLOCK: usize = 8;

/// Register blocks the spmm kernel holds at most: products 8 to
/// `MAX_COL_BLOCKS · COL_BLOCK` = 40 columns wide (the widths the default
/// model propagates) keep their output row in registers; narrower and
/// wider ones add into the output row in memory, in the same order.
const MAX_COL_BLOCKS: usize = 5;

/// Immutable CSR matrix.
#[derive(Clone)]
pub struct Csr {
    rows: usize,
    cols: usize,
    /// Row pointers, length `rows + 1`.
    indptr: Vec<usize>,
    /// Column indices, length = nnz.
    indices: Vec<u32>,
    /// Non-zero values, length = nnz.
    values: Vec<f64>,
    /// `selfᵀ`, built by the first [`Csr::transposed`] call. Derived data:
    /// left out of `Debug`, emptied by whatever changes `values`.
    transposed: OnceLock<Arc<Csr>>,
}

impl fmt::Debug for Csr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Csr")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("indptr", &self.indptr)
            .field("indices", &self.indices)
            .field("values", &self.values)
            .finish_non_exhaustive()
    }
}

impl Csr {
    /// Builds a CSR matrix from unsorted `(row, col, value)` triplets.
    /// Duplicate coordinates are summed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(
                r < rows && c < cols,
                "triplet ({r},{c}) out of bounds {rows}x{cols}"
            );
        }
        let mut per_row: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            per_row[r].push((c as u32, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        indptr.push(0);
        for row in &mut per_row {
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < row.len() {
                let c = row[i].0;
                let mut v = row[i].1;
                let mut j = i + 1;
                while j < row.len() && row[j].0 == c {
                    v += row[j].1;
                    j += 1;
                }
                indices.push(c);
                values.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
            transposed: OnceLock::new(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![1.0; n],
            transposed: OnceLock::new(),
        }
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

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(column, value)` pairs of row `r`.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.indices[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Sum of values in row `r`.
    pub fn row_sum(&self, r: usize) -> f64 {
        let lo = self.indptr[r];
        let hi = self.indptr[r + 1];
        self.values[lo..hi].iter().sum()
    }

    /// Sparse × dense product `self (n×k) · x (k×m) → (n×m)`.
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()`.
    ///
    /// Output rows are independent, so large products are computed across
    /// the [`taxorec_parallel`] pool in contiguous row blocks; each row's
    /// accumulation order is unchanged, so the result is bit-identical to
    /// the sequential loop for any `TAXOREC_THREADS`.
    pub fn matmul(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, x.cols());
        self.matmul_into(x, &mut out);
        out
    }

    /// [`Csr::matmul`] into a caller-provided `out`, every entry of which
    /// is overwritten (its previous contents are never read).
    ///
    /// # Panics
    /// Panics if `x.rows() != self.cols()` or `out` is not
    /// `self.rows() × x.cols()`.
    pub fn matmul_into(&self, x: &Matrix, out: &mut Matrix) {
        self.product_into(x, out, false);
    }

    /// [`Csr::matmul_into`], or with `add` `out += self·x`: each entry of
    /// the product is added into `out` once it is complete — the bits of
    /// `out.add_assign(&self.matmul(x))` without the product's matrix.
    pub(crate) fn product_into(&self, x: &Matrix, out: &mut Matrix, add: bool) {
        assert_eq!(x.rows(), self.cols, "spmm inner dim mismatch");
        let m = x.cols();
        assert_eq!(out.shape(), (self.rows, m), "spmm output shape");
        if m == 0 {
            return;
        }
        // Pool spin-up only pays off for substantial products; the cutoff
        // affects scheduling, never values.
        let flops = self.nnz().saturating_mul(m);
        let isa = Isa::detected();
        if self.rows >= 2 * SPMM_ROW_BLOCK && flops >= 1 << 15 {
            taxorec_parallel::par_chunks(
                "autodiff.spmm",
                out.data_mut(),
                SPMM_ROW_BLOCK * m,
                |offset, block| fill_rows(isa, self, x, offset / m, block, add),
            );
        } else {
            fill_rows(isa, self, x, 0, out.data_mut(), add);
        }
    }

    /// `selfᵀ`, computed on the first call and shared by every later one
    /// (the backward pass of [`crate::Tape::spmm`] asks once per step).
    pub fn transposed(&self) -> &Arc<Csr> {
        self.transposed.get_or_init(|| Arc::new(self.transpose()))
    }

    /// Transposed copy (`CSR` of the transpose).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols];
        for &c in &self.indices {
            counts[c as usize] += 1;
        }
        let mut indptr = vec![0usize; self.cols + 1];
        for i in 0..self.cols {
            indptr[i + 1] = indptr[i] + counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = indptr.clone();
        for r in 0..self.rows {
            for p in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[p] as usize;
                let slot = next[c];
                indices[slot] = r as u32;
                values[slot] = self.values[p];
                next[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            transposed: OnceLock::new(),
        }
    }

    /// Row-normalizes in place: each row is divided by its sum (rows with a
    /// zero sum are left untouched). Produces the `1/|N_u|` mean-aggregation
    /// weights of paper Eq. 13.
    pub fn normalize_rows(&mut self) {
        self.transposed = OnceLock::new();
        for r in 0..self.rows {
            let s = self.row_sum(r);
            if s.abs() < 1e-15 {
                continue;
            }
            for p in self.indptr[r]..self.indptr[r + 1] {
                self.values[p] /= s;
            }
        }
    }

    /// Converts to a dense matrix (tests / tiny inputs only).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_iter(r) {
                out.set(r, c, out.get(r, c) + v);
            }
        }
        out
    }
}

multiversion! {
    /// The one body of the spmm kernel: rows `r0..` of `m·x` written into
    /// `out` (whole rows, every entry), or added into it with `add`,
    /// dispatched on the product's width to the register kernel, or —
    /// below one block or above [`MAX_COL_BLOCKS`] — to the in-memory loop.
    pub(crate) fn fill_rows(isa: Isa, m: &Csr, x: &Matrix, r0: usize, out: &mut [f64], add: bool) {
        let tail = !x.cols().is_multiple_of(COL_BLOCK);
        match (x.cols() / COL_BLOCK, tail) {
            (1, false) => fill_rows_blocked::<1, false>(m, x, r0, out, add),
            (1, true) => fill_rows_blocked::<1, true>(m, x, r0, out, add),
            (2, false) => fill_rows_blocked::<2, false>(m, x, r0, out, add),
            (2, true) => fill_rows_blocked::<2, true>(m, x, r0, out, add),
            (3, false) => fill_rows_blocked::<3, false>(m, x, r0, out, add),
            (3, true) => fill_rows_blocked::<3, true>(m, x, r0, out, add),
            (4, false) => fill_rows_blocked::<4, false>(m, x, r0, out, add),
            (4, true) => fill_rows_blocked::<4, true>(m, x, r0, out, add),
            (MAX_COL_BLOCKS, false) => {
                fill_rows_blocked::<MAX_COL_BLOCKS, false>(m, x, r0, out, add)
            }
            _ => fill_rows_in_memory(m, x, r0, out, add),
        }
    }
}

/// Rows of `m·x` with `x` `B` blocks wide, plus a partial block when
/// `TAIL`: each output row is summed in registers over the row's entries
/// in order, then stored (or added) once. The partial block is summed as
/// the row's *last* 8 columns, overlapping block `B − 1`; the overlapped
/// columns see the same additions in the same order in both, so a store
/// may write them twice, while an add takes only the columns past block
/// `B − 1` from it.
#[inline(always)]
fn fill_rows_blocked<const B: usize, const TAIL: bool>(
    m: &Csr,
    x: &Matrix,
    r0: usize,
    out: &mut [f64],
    add: bool,
) {
    let w = x.cols();
    let (last, split) = (w - COL_BLOCK, B * COL_BLOCK);
    let store = |o: &mut [f64], sum: &[f64]| {
        if add {
            for (o, &s) in o.iter_mut().zip(sum) {
                *o += s;
            }
        } else {
            o.copy_from_slice(sum);
        }
    };
    for (i, orow) in out.chunks_exact_mut(w).enumerate() {
        let r = r0 + i;
        let (lo, hi) = (m.indptr[r], m.indptr[r + 1]);
        let mut blocks = [[0.0f64; COL_BLOCK]; B];
        let mut end = [0.0f64; COL_BLOCK];
        for (&c, &v) in m.indices[lo..hi].iter().zip(&m.values[lo..hi]) {
            let xrow = x.row(c as usize);
            for (acc, xb) in blocks.iter_mut().zip(xrow.chunks_exact(COL_BLOCK)) {
                for k in 0..COL_BLOCK {
                    acc[k] += v * xb[k];
                }
            }
            if TAIL {
                let xb = &xrow[last..];
                for k in 0..COL_BLOCK {
                    end[k] += v * xb[k];
                }
            }
        }
        for (o, sum) in orow.chunks_exact_mut(COL_BLOCK).zip(&blocks) {
            store(o, sum);
        }
        if TAIL {
            if add {
                for (o, &s) in orow[split..].iter_mut().zip(&end[split - last..]) {
                    *o += s;
                }
            } else {
                orow[last..].copy_from_slice(&end);
            }
        }
    }
}

/// Rows of `m·x` outside the register kernel's widths, each summed in
/// memory in entry order from zero: into its output row, or — with `add`
/// — into a row of scratch that is then added into the output row.
fn fill_rows_in_memory(m: &Csr, x: &Matrix, r0: usize, out: &mut [f64], add: bool) {
    let row_into = |r: usize, dst: &mut [f64]| {
        dst.fill(0.0);
        for (c, v) in m.row_iter(r) {
            for (o, xv) in dst.iter_mut().zip(x.row(c)) {
                *o += v * xv;
            }
        }
    };
    let mut sum = vec![0.0; if add { x.cols() } else { 0 }];
    for (i, orow) in out.chunks_exact_mut(x.cols()).enumerate() {
        if add {
            row_into(r0 + i, &mut sum);
            for (o, &s) in orow.iter_mut().zip(&sum) {
                *o += s;
            }
        } else {
            row_into(r0 + i, orow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        Csr::from_triplets(3, 4, &[(0, 1, 2.0), (0, 3, 1.0), (2, 0, 5.0), (1, 2, -1.0)])
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.to_dense().get(0, 0), 3.5);
    }

    #[test]
    fn row_iter_sorted() {
        let m = sample();
        let row0: Vec<_> = m.row_iter(0).collect();
        assert_eq!(row0, vec![(1, 2.0), (3, 1.0)]);
        assert_eq!(m.row_sum(0), 3.0);
        assert_eq!(m.row_iter(1).count(), 1);
    }

    #[test]
    fn matmul_matches_dense() {
        let m = sample();
        let x = Matrix::from_vec(4, 2, (1..=8).map(f64::from).collect());
        let sparse = m.matmul(&x);
        let dense = m.to_dense().matmul(&x);
        assert_eq!(sparse.data(), dense.data());
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        assert_eq!(
            m.transpose().to_dense().data(),
            m.to_dense().transpose().data()
        );
        assert_eq!(m.transpose().rows(), 4);
    }

    #[test]
    fn transposed_is_cached_and_dropped_by_normalize_rows() {
        let mut m = sample();
        let first = Arc::clone(m.transposed());
        assert!(Arc::ptr_eq(&first, m.transposed()), "built once");
        assert_eq!(first.to_dense().data(), m.transpose().to_dense().data());
        m.normalize_rows();
        assert_eq!(
            m.transposed().to_dense().data(),
            m.to_dense().transpose().data(),
            "a stale transpose would still hold the unnormalized values"
        );
    }

    #[test]
    fn matmul_into_overwrites_whatever_was_there() {
        let m = sample();
        let x = Matrix::from_vec(4, 2, (1..=8).map(f64::from).collect());
        let mut out = Matrix::full(3, 2, f64::NAN);
        m.matmul_into(&x, &mut out);
        assert_eq!(out.data(), m.matmul(&x).data());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let i = Csr::identity(3);
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(i.matmul(&x).data(), x.data());
    }

    #[test]
    fn normalize_rows_makes_row_sums_one() {
        let mut m = sample();
        m.normalize_rows();
        assert!((m.row_sum(0) - 1.0).abs() < 1e-12);
        assert!((m.row_sum(1) - 1.0).abs() < 1e-12); // single −1 entry → −1/−1 = 1
        assert!((m.row_sum(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rows_are_fine() {
        let m = Csr::from_triplets(3, 3, &[(0, 0, 1.0)]);
        assert_eq!(m.row_iter(1).count(), 0);
        let x = Matrix::zeros(3, 2);
        let y = m.matmul(&x);
        assert_eq!(y.shape(), (3, 2));
    }
}
