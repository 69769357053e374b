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
//!   (Lorentz exp/log at the origin, Lorentz/Poincaré distances, model
//!   conversions, Einstein-midpoint aggregation) whose backward passes are
//!   hand-derived in [`hyper`] and finite-difference-verified in
//!   `tests/gradcheck.rs`.
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
//!   scatter-adds of `gather_rows`' backward and the `hyper::*_bwd`
//!   kernels that `+=` into their gradient arguments. A backward that is
//!   the only writer of its gradient's entries gets an unzeroed buffer and
//!   writes each entry as `0.0 + t`: the bits of adding `t` into a zero,
//!   `−0.0` turned to `+0.0` included. Where a gradient already exists,
//!   the backward of `spmm` and of `lorentz_dist_sq_rows` adds each
//!   finished entry of its contribution into it instead of writing the
//!   contribution out to be summed in — the same sums.
//! * **Forward scalars (`aux`).** `lorentz_exp_origin`, `lorentz_log_origin`
//!   and `lorentz_dist_sq_rows` keep a few per-row scalars of their forward
//!   (the `sinh`/`cosh` factors, `‖x_s‖` and `arcosh x₀`, `s` and
//!   `arcosh s`) in a second buffer from the free list, which their
//!   backward reads instead of recomputing; `reset` returns it with the
//!   value.
//! * **Who may reset.** Whoever owns the tape. `reset` takes `&mut self`, so
//!   a `Var` can only outlive its program if its holder also gave the tape
//!   away; the trainer's `Forward` struct owns the tape together with the
//!   `Var`s for exactly this reason, and no generation stamp is needed.
//! * **Same bits.** Reuse changes where a number is stored, never how it is
//!   computed: values and gradients on a reset tape equal a fresh tape's
//!   bit for bit (`tests/tape_reuse.rs`). `Tape::new()` is the same code
//!   with an empty free list.

#[macro_use]
mod isa;

pub mod hyper;
pub mod matrix;
pub mod sparse;
pub mod tape;

pub use matrix::Matrix;
pub use sparse::Csr;
pub use tape::{Gradients, OpTime, Tape, Var};
