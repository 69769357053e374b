//! Reverse-mode matrix automatic differentiation for TaxoRec.
//!
//! The paper's reference implementation relies on PyTorch; this crate is the
//! from-scratch substrate that replaces it. It provides:
//!
//! * [`Matrix`] — a minimal dense row-major `f64` matrix,
//! * [`Csr`] — compressed-sparse-row constants for graph propagation
//!   (paper Eq. 13) and item–tag weighting (Eq. 10),
//! * [`Tape`] / [`Var`] — an arena-based autodiff tape with elementwise,
//!   linear-algebra, reduction, and *hyperbolic composite* ops
//!   (Lorentz/Poincaré distances, model conversions, Einstein-midpoint
//!   aggregation, and the two nodes of a training step:
//!   [`Tape::global_aggregation`] and [`Tape::triplet_hinge`]) whose
//!   backward passes are hand-derived in [`hyper`] and
//!   finite-difference-verified in `tests/gradcheck.rs`.
//!
//! A one-off computation records on a fresh tape and drops it:
//!
//! ```
//! use taxorec_autodiff::{Matrix, Tape};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(1, 2, vec![0.5, -1.0]));
//! let sq = tape.hadamard(x, x);
//! let loss = tape.sum_all(sq);
//! let grads = tape.backward(loss);
//! assert_eq!(grads.wrt(x).unwrap().data(), &[1.0, -2.0]);
//! ```
//!
//! # Storage: a training loop keeps one tape
//!
//! A mini-batch of the model is ~60 matrices of up to a megabyte each,
//! values and gradients; asking the allocator for them afresh every step
//! costs more (page faults on zeroed memory) than computing them. So the
//! tape owns its storage, and a loop reuses one tape:
//!
//! ```
//! use taxorec_autodiff::{Matrix, Tape};
//!
//! let mut param = Matrix::from_vec(1, 2, vec![0.5, -1.0]);
//! let mut tape = Tape::new();
//! for _step in 0..3 {
//!     tape.reset();                          // nodes → free list
//!     let x = tape.leaf_copy(&param);        // written into a free buffer
//!     let sq = tape.hadamard(x, x);
//!     let loss = tape.sum_all(sq);
//!     let grads = tape.backward(loss);
//!     param.axpy_assign(-0.1, grads.wrt(x).unwrap());
//!     tape.recycle(grads);                   // gradients → free list
//! }
//! assert!(param.data()[0] < 0.5);
//! ```
//!
//! The contract:
//!
//! * **What [`Tape::reset`] keeps.** The storage of every node value goes to
//!   the tape's free list (and [`Tape::recycle`] adds a finished
//!   [`Gradients`]); the recorded program, and every [`Var`] into it, is
//!   gone. Each op output, each gradient and each [`Tape::leaf_copy`] then
//!   takes the free buffer of the smallest *capacity* that fits — a shorter
//!   last batch shrinks into the buffers of a full one instead of keeping a
//!   second set — and allocates only when none does. The free list never
//!   holds more than the tape once held live, and dies with the tape: there
//!   is no global or per-thread pool, and `Matrix` itself knows nothing of
//!   this (it is also the serving tier's artifact type).
//! * **Which buffers are zeroed.** None by default: a reused buffer holds
//!   stale numbers (NaN in debug builds, so a violation fails tests), and
//!   every op that writes each entry of its output — elementwise ops,
//!   gathers, `concat`/`slice`, `spmm`, the `hyper::*_fwd` kernels — just
//!   overwrites them. Only what *accumulates* asks for zeros: the
//!   scatter-adds of `gather_rows`' backward, the `hyper::*_bwd`
//!   kernels that `+=` into their gradient arguments, and the per-row
//!   sums of `triplet_hinge`'s backward. A backward that is
//!   the only writer of its gradient's entries gets an unzeroed buffer and
//!   writes each entry as `0.0 + t`: the bits of adding `t` into a zero,
//!   `−0.0` turned to `+0.0` included. Where a gradient already exists,
//!   the backward of `spmm` adds each finished entry of its contribution
//!   into it instead of writing the contribution out to be summed in —
//!   the same sums.
//! * **Forward scalars (`aux`).** The two fused ops keep per-row scalars
//!   of their forward in a second buffer from the free list, which their
//!   backward reads instead of recomputing: `global_aggregation` the log
//!   maps' `‖x_s‖` and `arcosh x₀` and the exp map's `sinh`/`cosh`
//!   factors (and, in its node, the layer sum `exp_o` was applied to);
//!   `triplet_hinge` each triplet's hinge argument and value, both sides'
//!   `s` and `arcosh s` per channel, and its tag weight. `reset` returns
//!   all of them with the values.
//! * **Who may reset.** Whoever owns the tape. `reset` takes `&mut self`, so
//!   a `Var` can only outlive its program if its holder also gave the tape
//!   away; the trainer's `Forward` struct owns the tape together with the
//!   `Var`s for exactly this reason, and no generation stamp is needed.
//! * **Same bits.** Reuse changes where a number is stored, never how it is
//!   computed: values and gradients on a reset tape equal a fresh tape's
//!   bit for bit (`tests/tape_reuse.rs`). `Tape::new()` is the same code
//!   with an empty free list.

pub mod hyper;
pub mod matrix;
pub mod sparse;
pub mod tape;

pub use matrix::Matrix;
pub use sparse::Csr;
pub use tape::{Channel, Gradients, Hinge, OpTime, TagChannel, Tape, Triplets, Var};

#[cfg(test)]
mod tests {
    //! Every clone of every `multiversion!` kernel against the baseline
    //! clone, on inputs that reach the edges `tests/kernel_bits.rs` does:
    //! widths on both sides of the 8-column blocks, empty rows, the small
    //! radius series, degenerate rows, signed zeros and non-finite values.

    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use taxorec_geometry::isa::Isa;
    use taxorec_geometry::lorentz;

    /// `v`'s bits, with every NaN mapped to one value: Rust leaves the
    /// sign and payload of a NaN result unspecified.
    fn key(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    const EDGES: [f64; 6] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1e-300,
    ];

    /// `rows × cols` values in `±scale`, about one in ten of them one of
    /// [`EDGES`].
    fn edgy(rng: &mut StdRng, rows: usize, cols: usize, scale: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| match rng.random_range(0..10usize) {
                0 => EDGES[rng.random_range(0..EDGES.len())],
                _ => (rng.random::<f64>() - 0.5) * 2.0 * scale,
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// `len` values cycling through [`EDGES`] from its `from`-th.
    fn edge_row(len: usize, from: usize) -> impl Iterator<Item = f64> {
        (from..from + len).map(|j| EDGES[j % EDGES.len()])
    }

    /// Hyperboloid rows of `d` spatial coordinates at each radius of
    /// `scales`, then two rows of [`EDGES`].
    fn hyperboloid(rng: &mut StdRng, d: usize, scales: &[f64]) -> Matrix {
        let mut rows = Vec::new();
        for &scale in scales {
            let spatial: Vec<f64> = (0..d)
                .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
                .collect();
            rows.extend(lorentz::from_spatial(&spatial));
        }
        rows.extend(edge_row(d + 1, 0).chain(edge_row(d + 1, 3)));
        Matrix::from_vec(rows.len() / (d + 1), d + 1, rows)
    }

    /// Asserts that `run` returns the baseline clone's bits on every clone.
    fn each_clone(what: &str, run: impl Fn(Isa) -> Vec<f64>) {
        let want: Vec<u64> = run(Isa::BASELINE).into_iter().map(key).collect();
        for isa in Isa::supported() {
            let got: Vec<u64> = run(isa).into_iter().map(key).collect();
            assert_eq!(got, want, "{what} on {}", isa.name());
        }
    }

    #[test]
    fn every_clone_of_every_kernel_returns_the_baseline_bits() {
        let clones: Vec<&str> = Isa::supported().iter().map(|i| i.name()).collect();
        println!("autodiff clones: {clones:?}");
        let mut rng = StdRng::seed_from_u64(61);
        // The spmm body, below one block, at and between multiples of
        // 8 columns and past the widest register kernel; every fifth row
        // empty; writing and adding, from the first row and from a later one.
        for width in 1..=41 {
            let (rows, cols) = (23, 17);
            let mut triplets = Vec::new();
            for r in (0..rows).filter(|r| r % 5 != 2) {
                for _ in 0..rng.random_range(1..7usize) {
                    let v = edgy(&mut rng, 1, 1, 1.0).get(0, 0);
                    triplets.push((r, rng.random_range(0..cols), v));
                }
            }
            let m = Csr::from_triplets(rows, cols, &triplets);
            let x = edgy(&mut rng, cols, width, 2.0);
            let init = edgy(&mut rng, rows, width, 1.0);
            for (add, r0) in [(false, 0), (true, 0), (false, 5), (true, 5)] {
                each_clone(
                    &format!("fill_rows width {width}, add {add}, r0 {r0}"),
                    |isa| {
                        let mut out = init.data()[r0 * width..].to_vec();
                        sparse::fill_rows(isa, &m, &x, r0, &mut out, add);
                        out
                    },
                );
            }
        }
        for d in [1, 2, 5, 8, 9, 17, 32] {
            // A row of edge values, a row of signed zeros, then radius
            // 0, below the sinh series cut (1e-7), below the residual
            // series cut (1e-4), ordinary and large.
            let mut rows: Vec<f64> = edge_row(d, 0).collect();
            rows.extend((0..d).map(|j| if j % 2 == 0 { -0.0 } else { 0.0 }));
            for scale in [0.0, 3e-9, 2e-6, 0.3, 1.7, 6.0] {
                rows.extend((0..d).map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale));
            }
            let z = Matrix::from_vec(rows.len() / d, d, rows);
            let n = z.rows();
            let (mut out, mut aux) = (Matrix::zeros(n, d + 1), Matrix::zeros(n, 2));
            hyper::lorentz_exp_origin_fwd(&z, &mut out, aux.data_mut());
            let g = edgy(&mut rng, n, d + 1, 1.0);
            each_clone(&format!("lorentz_exp_origin_bwd d {d}"), |isa| {
                let mut gz = Matrix::full(n, d, f64::NAN);
                hyper::lorentz_exp_origin_bwd(isa, &z, aux.data(), &g, &mut gz);
                gz.into_vec()
            });

            // ‖x_s‖ = 0, below EPS_DIV, just above it, small, ordinary, far.
            let x = hyperboloid(&mut rng, d, &[0.0, 1e-14, 3e-12, 1e-5, 0.4, 5.0]);
            let n = x.rows();
            let (mut out, mut aux) = (Matrix::zeros(n, d), Matrix::zeros(n, 2));
            hyper::lorentz_log_origin_fwd(&x, out.data_mut(), aux.data_mut());
            let g = edgy(&mut rng, n, d, 1.0);
            each_clone(&format!("lorentz_log_origin_bwd d {d}"), |isa| {
                let mut gx = Matrix::full(n, d + 1, f64::NAN);
                hyper::lorentz_log_origin_bwd(isa, &x, aux.data(), g.data(), &mut gx);
                gx.into_vec()
            });

            // Rows equal to, next to and far from the row they are paired
            // with; row 0 of `y` read by many, its last row by none.
            let y = hyperboloid(&mut rng, d, &[0.2, 0.9, 2.5, 0.5, 1e-9]);
            let mut x = hyperboloid(&mut rng, d, &[0.3; 11]);
            let idx: Vec<usize> = (0..x.rows())
                .map(|r| {
                    if r % 4 == 1 {
                        0
                    } else {
                        rng.random_range(0..y.rows() - 1)
                    }
                })
                .collect();
            for (r, &yr) in idx.iter().enumerate().filter(|(r, _)| r % 3 == 0) {
                x.row_mut(r).copy_from_slice(y.row(yr));
                x.row_mut(r)[1] += if r % 2 == 0 { 1e-9 } else { 0.0 };
            }

            // A triplet batch over the same rows: users stacked above the
            // items, user 0 and item 0 read by many, coincident pairs.
            let (nu, nv) = (x.rows(), y.rows());
            let mut stacked = x.data().to_vec();
            stacked.extend_from_slice(y.data());
            let stacked = Matrix::from_vec(nu + nv, d + 1, stacked);
            let len = 3 * nu + 1;
            let t = Triplets {
                users: (0..len)
                    .map(|r| {
                        if r % 3 == 0 {
                            0
                        } else {
                            rng.random_range(0..nu)
                        }
                    })
                    .collect(),
                pos: (0..len)
                    .map(|r| if r % 4 == 0 { 0 } else { idx[r % nu] })
                    .collect(),
                neg: (0..len)
                    .map(|r| {
                        if r % 5 == 0 {
                            0
                        } else {
                            rng.random_range(0..nv)
                        }
                    })
                    .collect(),
            };
            let mut aux = Matrix::zeros(len, 4);
            hyper::triplet_dists_fwd(&stacked, &stacked, nu, &t, &mut aux, 0);
            let w = edgy(&mut rng, len, 2, 1.0);
            let (gu0, gv0) = (
                edgy(&mut rng, nu, d + 1, 1.0),
                edgy(&mut rng, nv, d + 1, 1.0),
            );
            each_clone(&format!("triplet_channel_bwd d {d}"), |isa| {
                let (mut gu, mut gneg, mut gpos) = (gu0.clone(), gv0.clone(), gv0.clone());
                let mut scratch = vec![f64::NAN; 2 * (d + 1)];
                hyper::triplet_channel_bwd(
                    isa,
                    &stacked,
                    &stacked,
                    nu,
                    &t,
                    &aux,
                    0,
                    w.data(),
                    gu.data_mut(),
                    gneg.data_mut(),
                    gpos.data_mut(),
                    &mut scratch,
                );
                [gu, gneg, gpos]
                    .into_iter()
                    .flat_map(Matrix::into_vec)
                    .collect()
            });
        }
    }
}
