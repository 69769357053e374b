//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] is an append-only arena of computation nodes. Forward ops are
//! methods on the tape that record the op and its value; [`Tape::backward`]
//! walks the arena in reverse, accumulating gradients.
//!
//! Design notes:
//!
//! * **The tape owns its storage.** Op outputs and gradients are written
//!   into buffers from the tape's free list, which [`Tape::reset`] and
//!   [`Tape::recycle`] fill; a loop that resets one tape per step stops
//!   allocating after its first steps. The crate docs state the contract
//!   (what is kept, what is zeroed, who may reset).
//! * **Values are eager** — each op computes its result immediately, so
//!   `tape.value(v)` is always available (used by the training loop for
//!   inference without a second code path).
//! * **Constants vs. parameters** — graph structure (adjacency, item–tag
//!   weights, gather indices) enters as `Arc`-shared constants inside ops;
//!   only dense matrices become differentiable [`Var`]s.
//! * **Binary ops with aliased parents** (e.g. `hadamard(x, x)`) are
//!   handled by accumulating each parent's contribution separately.
//! * The hyperbolic composite ops delegate to [`crate::hyper`]; everything
//!   is finite-difference-checked in `tests/gradcheck.rs`.

use std::sync::Arc;
use std::time::Instant;

use crate::hyper;
use crate::matrix::Matrix;
use crate::sparse::Csr;
use taxorec_geometry::isa::Isa;

/// Handle to a tape node. Cheap to copy; only valid for the tape that
/// created it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Raw node index (for diagnostics).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded operation, with parent handles and any constant payloads.
enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Neg(Var),
    Scale(Var, f64),
    AddScalar(Var),
    Hadamard(Var, Var),
    MatMul(Var, Var),
    /// `y = M·x` with constant sparse `M`; backward multiplies by
    /// [`Csr::transposed`].
    Spmm {
        m: Arc<Csr>,
        x: Var,
    },
    GatherRows {
        x: Var,
        idx: Arc<Vec<usize>>,
    },
    ConcatRows(Var, Var),
    SliceRows {
        x: Var,
        start: usize,
    },
    SumAll(Var),
    MeanAll(Var),
    Relu(Var),
    LeakyRelu(Var, f64),
    Softplus(Var),
    Sqrt(Var),
    RowDot(Var, Var),
    RowSqNorm(Var),
    SoftmaxRows(Var),
    LorentzDistSq(Var, Var),
    PoincareDist(Var, Var),
    PoincareToKlein(Var),
    KleinToPoincare(Var),
    PoincareToLorentz(Var),
    EinsteinMidpoint {
        tags: Var,
        item_tag: Arc<Csr>,
    },
    /// `exp_o(Σ_l Pˡ·log_o[users; items])`; `sum` is `exp_o`'s input.
    GlobalAggregation {
        users: Var,
        items: Var,
        propagate: Arc<Csr>,
        layers: usize,
        sum: Matrix,
    },
    TripletHinge {
        ir: Channel,
        tag: Option<Channel>,
        triplets: Arc<Triplets>,
        hinge: Hinge,
    },
}

/// Name of every op kind, indexed by `Op::kind`: the tape method that
/// records it.
const OP_NAMES: [&str; 29] = [
    "leaf",
    "add",
    "sub",
    "neg",
    "scale",
    "add_scalar",
    "hadamard",
    "matmul",
    "spmm",
    "gather_rows",
    "concat_rows",
    "slice_rows",
    "sum_all",
    "mean_all",
    "relu",
    "leaky_relu",
    "softplus",
    "sqrt",
    "row_dot",
    "row_sqnorm",
    "softmax_rows",
    "lorentz_dist_sq",
    "poincare_dist",
    "poincare_to_klein",
    "klein_to_poincare",
    "poincare_to_lorentz",
    "einstein_midpoint",
    "global_aggregation",
    "triplet_hinge",
];

impl Op {
    /// This op's index into [`OP_NAMES`].
    fn kind(&self) -> usize {
        match self {
            Op::Leaf => 0,
            Op::Add(..) => 1,
            Op::Sub(..) => 2,
            Op::Neg(..) => 3,
            Op::Scale(..) => 4,
            Op::AddScalar(..) => 5,
            Op::Hadamard(..) => 6,
            Op::MatMul(..) => 7,
            Op::Spmm { .. } => 8,
            Op::GatherRows { .. } => 9,
            Op::ConcatRows(..) => 10,
            Op::SliceRows { .. } => 11,
            Op::SumAll(..) => 12,
            Op::MeanAll(..) => 13,
            Op::Relu(..) => 14,
            Op::LeakyRelu(..) => 15,
            Op::Softplus(..) => 16,
            Op::Sqrt(..) => 17,
            Op::RowDot(..) => 18,
            Op::RowSqNorm(..) => 19,
            Op::SoftmaxRows(..) => 20,
            Op::LorentzDistSq(..) => 21,
            Op::PoincareDist(..) => 22,
            Op::PoincareToKlein(..) => 23,
            Op::KleinToPoincare(..) => 24,
            Op::PoincareToLorentz(..) => 25,
            Op::EinsteinMidpoint { .. } => 26,
            Op::GlobalAggregation { .. } => 27,
            Op::TripletHinge { .. } => 28,
        }
    }
}

/// What a timed tape ([`Tape::set_timed`]) spent in one op kind: nodes
/// recorded and the nanoseconds their forward values took, nodes whose
/// gradient was pushed to their parents and the nanoseconds that took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpTime {
    /// Nodes recorded.
    pub fwd_nodes: u64,
    /// Nanoseconds computing their values.
    pub fwd_ns: u64,
    /// Nodes a backward pass went through.
    pub bwd_nodes: u64,
    /// Nanoseconds pushing their gradients to their parents.
    pub bwd_ns: u64,
}

/// Per-op accounting: off unless [`Tape::set_timed`] turned it on, in a
/// fixed array indexed by op kind, so a timed step allocates nothing.
struct OpClock {
    on: bool,
    times: [OpTime; OP_NAMES.len()],
}

impl Default for OpClock {
    fn default() -> Self {
        Self {
            on: false,
            times: [OpTime::default(); OP_NAMES.len()],
        }
    }
}

impl OpClock {
    /// The start of a timed interval, when timing is on.
    #[inline]
    fn start(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    fn ns_since(started: Instant) -> u64 {
        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    #[inline]
    fn forward(&mut self, op: &Op, started: Option<Instant>) {
        if let Some(t) = started {
            let e = &mut self.times[op.kind()];
            e.fwd_nodes += 1;
            e.fwd_ns += Self::ns_since(t);
        }
    }

    #[inline]
    fn backward(&mut self, op: &Op, started: Option<Instant>) {
        if let Some(t) = started {
            let e = &mut self.times[op.kind()];
            e.bwd_nodes += 1;
            e.bwd_ns += Self::ns_since(t);
        }
    }
}

struct Node {
    value: Matrix,
    /// Per-row scalars the forward computed and the backward reads
    /// instead of recomputing them (empty for most ops).
    aux: Matrix,
    op: Op,
}

/// Gradient bundle returned by [`Tape::backward`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// Gradient with respect to `v`, if any gradient reached it.
    pub fn wrt(&self, v: Var) -> Option<&Matrix> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `v`, leaving none behind.
    /// `None` when no gradient reached `v` — a zero matrix is not made up.
    pub fn take(&mut self, v: Var) -> Option<Matrix> {
        self.grads.get_mut(v.0).and_then(|g| g.take())
    }
}

/// One embedding space a triplet batch is scored in: user `u` is row `u`
/// of `users`, item `v` is row `item_offset + v` of `items`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Channel {
    /// Holds the user rows, from row 0.
    pub users: Var,
    /// Holds the item rows, from row `item_offset`.
    pub items: Var,
    /// The row of `items` that holds item 0.
    pub item_offset: usize,
}

impl Channel {
    /// Users in rows `0..n_users` of `v` and the items after them, as
    /// [`Tape::global_aggregation`] stacks them.
    pub fn stacked(v: Var, n_users: usize) -> Self {
        Self {
            users: v,
            items: v,
            item_offset: n_users,
        }
    }

    /// Users and items in matrices of their own.
    pub fn split(users: Var, items: Var) -> Self {
        Self {
            users,
            items,
            item_offset: 0,
        }
    }
}

/// A triplet batch: triplet `r` is user `users[r]`, positive item `pos[r]`
/// and negative item `neg[r]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Triplets {
    /// Each triplet's user.
    pub users: Vec<usize>,
    /// Each triplet's positive item.
    pub pos: Vec<usize>,
    /// Each triplet's negative item.
    pub neg: Vec<usize>,
}

impl Triplets {
    /// Number of triplets.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// True when the batch holds no triplet.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// The per-triplet loss of [`Tape::triplet_hinge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hinge {
    /// `max(x, 0)`, paper Eq. 18's `[·]₊`.
    Relu,
    /// `ln(1 + eˣ)`, as [`Tape::softplus`] computes it.
    Softplus,
}

/// The tag channel of [`Tape::triplet_hinge`]: its squared distances count
/// `gain · alpha[u]` times for a triplet of user `u` (paper Eq. 17's
/// `α_u`; a constant, with no gradient).
#[derive(Clone, Copy, Debug)]
pub struct TagChannel<'a> {
    /// Where the tag-space rows are.
    pub channel: Channel,
    /// Multiplies every user's weight.
    pub gain: f64,
    /// One weight per user.
    pub alpha: &'a [f64],
}

/// Columns of a [`Tape::triplet_hinge`] node's `aux`, one row per triplet:
/// the hinge's argument and value, each channel's four distance scalars
/// (see [`hyper::triplet_dists_fwd`]), and the tag weight `gain·α_u`.
const HINGE_X: usize = 0;
const HINGE_H: usize = 1;
const HINGE_IR: usize = 2;
const HINGE_TAG: usize = 6;
const HINGE_WEIGHT: usize = 10;

/// The tape's free list: storage of matrices it no longer needs, handed
/// out again to whatever asks for at most that much.
///
/// A request takes the free buffer of the **smallest capacity that fits**
/// (never an exact-length match: the last mini-batch of an epoch is
/// shorter than the others, and must shrink into their buffers instead of
/// keeping a second set alive). Nothing is ever handed out zeroed unless
/// asked for: in debug builds a recycled buffer is filled with NaN, so an
/// op that reads what it did not write fails its tests.
#[derive(Default)]
struct Pool {
    free: Vec<Vec<f64>>,
    /// Emptied per-node slot vectors of recycled [`Gradients`].
    free_slots: Vec<Vec<Option<Matrix>>>,
}

impl Pool {
    fn buffer(&mut self, n: usize, zeroed: bool) -> Vec<f64> {
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= n)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let Some(i) = best else {
            return vec![0.0; n];
        };
        let mut buf = self.free.swap_remove(i);
        if zeroed {
            buf.clear();
            buf.resize(n, 0.0);
        } else {
            if cfg!(debug_assertions) {
                buf.clear();
            }
            // Shrinks without a write; a grown tail is as stale as the rest.
            buf.resize(n, f64::NAN);
        }
        buf
    }

    /// A `rows×cols` matrix with unspecified entries: the caller writes
    /// every one of them.
    fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.buffer(rows * cols, false))
    }

    /// A `rows×cols` zero matrix, for the kernels that accumulate.
    fn take_zeroed(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, self.buffer(rows * cols, true))
    }

    fn give(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    fn full(&mut self, rows: usize, cols: usize, v: f64) -> Matrix {
        let mut m = self.take(rows, cols);
        m.data_mut().fill(v);
        m
    }

    fn copy(&mut self, src: &Matrix) -> Matrix {
        let mut m = self.take(src.rows(), src.cols());
        m.data_mut().copy_from_slice(src.data());
        m
    }

    fn map(&mut self, src: &Matrix, f: impl Fn(f64) -> f64) -> Matrix {
        let mut m = self.take(src.rows(), src.cols());
        for (o, &x) in m.data_mut().iter_mut().zip(src.data()) {
            *o = f(x);
        }
        m
    }

    /// Elementwise `f(a, b)` in the shape of `a`.
    fn zip(&mut self, a: &Matrix, b: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let mut m = self.take(a.rows(), a.cols());
        for ((o, &x), &y) in m.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
            *o = f(x, y);
        }
        m
    }
}

/// Append-only autodiff tape that keeps its storage.
///
/// Every op output, every gradient and every [`Tape::leaf_copy`] is written
/// into a buffer from the tape's free list; [`Tape::reset`] and
/// [`Tape::recycle`] are what put buffers there. A tape that is never reset
/// (`Tape::new()`, one program, drop) runs the same code with an empty
/// list. See the crate docs for the reuse contract.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    pool: Pool,
    clock: OpClock,
}

impl Tape {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the recorded program and keeps its storage: every node's
    /// value goes to the free list, so the next program of the same shape
    /// allocates nothing. Every [`Var`] handed out so far is dead
    /// afterwards — `&mut self` is the guard: whoever holds `Var`s to use
    /// them also holds the tape.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.give(node.value);
            self.pool.give(node.aux);
            if let Op::GlobalAggregation { sum, .. } = node.op {
                self.pool.give(sum);
            }
        }
    }

    /// Returns the matrices of a finished [`Tape::backward`] to the free
    /// list (whatever [`Gradients::take`] has not removed).
    pub fn recycle(&mut self, mut grads: Gradients) {
        for g in grads.grads.drain(..).flatten() {
            self.pool.give(g);
        }
        self.pool.free_slots.push(grads.grads);
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Handles of every recorded node, in recording order.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.nodes.len()).map(Var)
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Turns per-op accounting on or off. While on, every recorded node
    /// and every node a backward pass goes through adds its wall time to
    /// its op kind's [`OpTime`]: one `Instant` pair per node, no
    /// allocation. Off (the default), a node costs one branch more.
    pub fn set_timed(&mut self, on: bool) {
        self.clock.on = on;
    }

    /// What each op kind has cost while timing was on, over the tape's
    /// life (a reset keeps the totals). Kinds that never ran are left out.
    pub fn op_times(&self) -> impl Iterator<Item = (&'static str, OpTime)> + '_ {
        OP_NAMES
            .iter()
            .zip(&self.clock.times)
            .filter(|(_, t)| t.fwd_nodes + t.bwd_nodes > 0)
            .map(|(&name, &t)| (name, t))
    }

    /// Appends a node whose value took from `started` (see
    /// [`OpClock::start`]) to compute.
    fn push(&mut self, value: Matrix, op: Op, started: Option<Instant>) -> Var {
        self.push_with_aux(value, Matrix::zeros(0, 0), op, started)
    }

    /// [`Tape::push`] of an op that keeps per-row scalars for its backward.
    fn push_with_aux(
        &mut self,
        value: Matrix,
        aux: Matrix,
        op: Op,
        started: Option<Instant>,
    ) -> Var {
        self.clock.forward(&op, started);
        self.nodes.push(Node { value, aux, op });
        Var(self.nodes.len() - 1)
    }

    /// Registers a leaf (parameter or input) matrix, taking its storage.
    pub fn leaf(&mut self, m: Matrix) -> Var {
        let t0 = self.clock.start();
        self.push(m, Op::Leaf, t0)
    }

    /// Registers a copy of `m` as a leaf, written into recycled storage —
    /// the per-step way to enter a parameter the caller keeps.
    pub fn leaf_copy(&mut self, m: &Matrix) -> Var {
        let t0 = self.clock.start();
        let value = self.pool.copy(m);
        self.push(value, Op::Leaf, t0)
    }

    fn unary(&mut self, a: Var, op: Op, f: impl Fn(f64) -> f64) -> Var {
        let t0 = self.clock.start();
        let m = self.pool.map(&self.nodes[a.0].value, f);
        self.push(m, op, t0)
    }

    fn binary(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f64, f64) -> f64) -> Var {
        let t0 = self.clock.start();
        let m = self
            .pool
            .zip(&self.nodes[a.0].value, &self.nodes[b.0].value, f);
        self.push(m, op, t0)
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "add shape");
        self.binary(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.value(a).shape(), self.value(b).shape(), "sub shape");
        self.binary(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.unary(a, Op::Neg(a), |x| -x)
    }

    /// Multiplication by a constant scalar.
    pub fn scale(&mut self, a: Var, c: f64) -> Var {
        self.unary(a, Op::Scale(a, c), |x| c * x)
    }

    /// Addition of a constant scalar to every entry.
    pub fn add_scalar(&mut self, a: Var, c: f64) -> Var {
        self.unary(a, Op::AddScalar(a), |x| x + c)
    }

    /// Elementwise (Hadamard) product.
    pub fn hadamard(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "hadamard shape"
        );
        self.binary(a, b, Op::Hadamard(a, b), |x, y| x * y)
    }

    /// Dense matrix product `a·b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.clock.start();
        let m = self.value(a).matmul(self.value(b));
        self.push(m, Op::MatMul(a, b), t0)
    }

    /// Sparse-constant × dense product `M·x` (graph propagation, Eq. 13).
    /// Backward multiplies by [`Csr::transposed`], which `m` builds once
    /// however many steps and tapes share it.
    pub fn spmm(&mut self, m: &Arc<Csr>, x: Var) -> Var {
        let t0 = self.clock.start();
        let mut value = self.pool.take(m.rows(), self.value(x).cols());
        m.matmul_into(self.value(x), &mut value);
        self.push(
            value,
            Op::Spmm {
                m: Arc::clone(m),
                x,
            },
            t0,
        )
    }

    /// Row gather: `out[i] = x[idx[i]]`.
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<usize>>) -> Var {
        let t0 = self.clock.start();
        let mut m = self.pool.take(idx.len(), self.value(x).cols());
        let vx = self.value(x);
        for (i, &r) in idx.iter().enumerate() {
            m.row_mut(i).copy_from_slice(vx.row(r));
        }
        self.push(m, Op::GatherRows { x, idx }, t0)
    }

    /// Vertical concatenation (`a` on top of `b`). Column counts must match.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.clock.start();
        let (na, d) = self.value(a).shape();
        let nb = self.value(b).rows();
        assert_eq!(d, self.value(b).cols(), "concat_rows column mismatch");
        let mut m = self.pool.take(na + nb, d);
        let (top, bottom) = m.data_mut().split_at_mut(na * d);
        top.copy_from_slice(self.value(a).data());
        bottom.copy_from_slice(self.value(b).data());
        self.push(m, Op::ConcatRows(a, b), t0)
    }

    /// Contiguous row slice `x[start..start+len]`.
    pub fn slice_rows(&mut self, x: Var, start: usize, len: usize) -> Var {
        let t0 = self.clock.start();
        let (rows, d) = self.value(x).shape();
        assert!(start + len <= rows, "slice_rows out of range");
        let mut m = self.pool.take(len, d);
        m.data_mut()
            .copy_from_slice(&self.value(x).data()[start * d..(start + len) * d]);
        self.push(m, Op::SliceRows { x, start }, t0)
    }

    /// Sum of all entries → `1×1`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let t0 = self.clock.start();
        let s = self.value(a).sum();
        let m = self.pool.full(1, 1, s);
        self.push(m, Op::SumAll(a), t0)
    }

    /// Mean of all entries → `1×1`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let t0 = self.clock.start();
        let va = self.value(a);
        let n = (va.rows() * va.cols()) as f64;
        let mean = va.sum() / n;
        let m = self.pool.full(1, 1, mean);
        self.push(m, Op::MeanAll(a), t0)
    }

    /// Elementwise `max(x, 0)` — the hinge of the LMNN loss (Eq. 18).
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Elementwise LeakyReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f64) -> Var {
        self.unary(a, Op::LeakyRelu(a, alpha), |x| {
            if x > 0.0 {
                x
            } else {
                alpha * x
            }
        })
    }

    /// Elementwise softplus `ln(1 + eˣ)`, computed stably as
    /// `max(x, 0) + ln(1 + e^(−|x|))`. `-softplus(-x)` is the BPR
    /// log-sigmoid objective.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.unary(a, Op::Softplus(a), |x| {
            x.max(0.0) + (-x.abs()).exp().ln_1p()
        })
    }

    /// Elementwise square root of `max(x, 0)`; the gradient is clamped
    /// near zero (`1/(2·max(√x, 1e−6))`).
    pub fn sqrt(&mut self, a: Var) -> Var {
        self.unary(a, Op::Sqrt(a), |x| x.max(0.0).sqrt())
    }

    /// Rowwise dot product `(n×d, n×d) → (n×1)`.
    pub fn row_dot(&mut self, a: Var, b: Var) -> Var {
        let t0 = self.clock.start();
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "row_dot shape"
        );
        let n = self.value(a).rows();
        let mut m = self.pool.take(n, 1);
        let (va, vb) = (self.value(a), self.value(b));
        for r in 0..n {
            m.set(r, 0, taxorec_geometry::vecops::dot(va.row(r), vb.row(r)));
        }
        self.push(m, Op::RowDot(a, b), t0)
    }

    /// Rowwise squared norm `(n×d) → (n×1)`.
    pub fn row_sqnorm(&mut self, a: Var) -> Var {
        let t0 = self.clock.start();
        let n = self.value(a).rows();
        let mut m = self.pool.take(n, 1);
        let va = self.value(a);
        for r in 0..n {
            m.set(r, 0, taxorec_geometry::vecops::sqnorm(va.row(r)));
        }
        self.push(m, Op::RowSqNorm(a), t0)
    }

    /// Rowwise softmax (max-shifted for stability).
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let t0 = self.clock.start();
        let (n, d) = self.value(a).shape();
        let mut m = self.pool.take(n, d);
        let va = self.value(a);
        for r in 0..n {
            let row = va.row(r);
            let mx = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut z = 0.0;
            let orow = m.row_mut(r);
            for j in 0..d {
                let e = (row[j] - mx).exp();
                orow[j] = e;
                z += e;
            }
            for o in orow.iter_mut() {
                *o /= z;
            }
        }
        self.push(m, Op::SoftmaxRows(a), t0)
    }

    /// Rowwise squared Lorentz distance (paper Eq. 17 terms).
    pub fn lorentz_dist_sq(&mut self, x: Var, y: Var) -> Var {
        let t0 = self.clock.start();
        let mut m = self.pool.take(self.value(x).rows(), 1);
        hyper::lorentz_dist_sq_fwd(self.value(x), self.value(y), &mut m);
        self.push(m, Op::LorentzDistSq(x, y), t0)
    }

    /// Rowwise Poincaré distance (paper Eq. 8 terms).
    pub fn poincare_dist(&mut self, x: Var, y: Var) -> Var {
        let t0 = self.clock.start();
        let mut m = self.pool.take(self.value(x).rows(), 1);
        hyper::poincare_dist_fwd(self.value(x), self.value(y), &mut m);
        self.push(m, Op::PoincareDist(x, y), t0)
    }

    /// Poincaré → Klein conversion (paper Eq. 9), rowwise.
    pub fn poincare_to_klein(&mut self, p: Var) -> Var {
        let t0 = self.clock.start();
        let (n, d) = self.value(p).shape();
        let mut m = self.pool.take(n, d);
        hyper::poincare_to_klein_fwd(self.value(p), &mut m);
        self.push(m, Op::PoincareToKlein(p), t0)
    }

    /// Klein → Poincaré conversion (inner map of paper Eq. 11), rowwise.
    pub fn klein_to_poincare(&mut self, k: Var) -> Var {
        let t0 = self.clock.start();
        let (n, d) = self.value(k).shape();
        let mut m = self.pool.take(n, d);
        hyper::klein_to_poincare_fwd(self.value(k), &mut m);
        self.push(m, Op::KleinToPoincare(k), t0)
    }

    /// Poincaré → Lorentz lift (paper Eq. 3), rowwise.
    pub fn poincare_to_lorentz(&mut self, p: Var) -> Var {
        let t0 = self.clock.start();
        let (n, d) = self.value(p).shape();
        let mut m = self.pool.take(n, d + 1);
        hyper::poincare_to_lorentz_fwd(self.value(p), &mut m);
        self.push(m, Op::PoincareToLorentz(p), t0)
    }

    /// Weighted Einstein-midpoint aggregation of Klein tag embeddings into
    /// item embeddings (paper Eq. 10).
    pub fn einstein_midpoint(&mut self, tags: Var, item_tag: &Arc<Csr>) -> Var {
        let t0 = self.clock.start();
        let mut m = self.pool.take(item_tag.rows(), self.value(tags).cols());
        hyper::einstein_midpoint_fwd(self.value(tags), item_tag, &mut m);
        self.push(
            m,
            Op::EinsteinMidpoint {
                tags,
                item_tag: Arc::clone(item_tag),
            },
            t0,
        )
    }

    /// Global aggregation (paper Eqs. 12–15) as one node. The hyperboloid
    /// rows of `users` and `items` (`d+1` columns each) are mapped to the
    /// tangent space at the origin into one stacked buffer (Eq. 12),
    /// propagated `layers` times by the `(n_u + n_v)²` matrix `propagate`
    /// (Eq. 13), summed over the layer outputs as each is written (Eq. 14)
    /// and mapped back (Eq. 15). The output stays stacked: users in rows
    /// `0..n_u`, items after them ([`Channel::stacked`]).
    ///
    /// Value and gradients are the bits of the primitive chain it replaced
    /// (log maps, `concat_rows`, `spmm` and `add` per layer, exp map, two
    /// `slice_rows`), which `tests/kernel_bits.rs` states as scalar code.
    /// The backward forms `g_L = g` and `g_l = g + Pᵀg_{l+1}` (the chain's
    /// own two-operand sums: addition commutes) through
    /// [`Csr::product_into`]'s add mode, then `Pᵀg_1` for the two log maps.
    pub fn global_aggregation(
        &mut self,
        users: Var,
        items: Var,
        propagate: &Arc<Csr>,
        layers: usize,
    ) -> Var {
        let t0 = self.clock.start();
        let layers = layers.max(1);
        let (nu, dc) = self.value(users).shape();
        let nv = self.value(items).rows();
        assert_eq!(self.value(items).cols(), dc, "global_aggregation columns");
        let (n, d) = (nu + nv, dc - 1);
        assert_eq!(
            (propagate.rows(), propagate.cols()),
            (n, n),
            "global_aggregation propagation shape"
        );
        // Per-row scalars: log_o's two of every row, then exp_o's two.
        let mut aux = self.pool.take(n, 4);
        let (log_aux, exp_aux) = aux.data_mut().split_at_mut(2 * n);
        let mut z = self.pool.take(n, d);
        let (zu, zv) = z.data_mut().split_at_mut(nu * d);
        let (au, av) = log_aux.split_at_mut(2 * nu);
        hyper::lorentz_log_origin_fwd(self.value(users), zu, au);
        hyper::lorentz_log_origin_fwd(self.value(items), zv, av);
        let sum = layer_sum(&mut self.pool, propagate, z, layers);
        let mut value = self.pool.take(n, dc);
        hyper::lorentz_exp_origin_fwd(&sum, &mut value, exp_aux);
        let op = Op::GlobalAggregation {
            users,
            items,
            propagate: Arc::clone(propagate),
            layers,
            sum,
        };
        self.push_with_aux(value, aux, op, t0)
    }

    /// The triplet loss of a batch (paper Eqs. 17–19) as one node:
    /// `mean_r h(g(u,p) − g(u,q) + margin)` over the triplets `(u, p, q)`,
    /// with `g(u,v) = d²(u,v) + gain·α_u·d²_tag(u,v)` (the tag term only
    /// with a `tag` channel), `d²` the squared Lorentz distance and `h`
    /// the `hinge`. Every row is read in place by index, and the backward
    /// adds each triplet's gradient straight into its channels'
    /// gradients; `α` gets none.
    ///
    /// Value and gradients are the bits of the primitive chain it replaced,
    /// which `tests/kernel_bits.rs` states as scalar code: per channel, a
    /// user row gathered once and its distances to the positive and the
    /// negative items, the tag side weighted by `gain·α_u` and added, then
    /// `sub`, `add_scalar`, the hinge and `mean_all`. Each channel's item
    /// gradient is the negative side's sum plus the positive side's, each
    /// formed on its own, as the chain's two distance ops formed them.
    pub fn triplet_hinge(
        &mut self,
        triplets: &Arc<Triplets>,
        ir: Channel,
        tag: Option<TagChannel<'_>>,
        margin: f64,
        hinge: Hinge,
    ) -> Var {
        let t0 = self.clock.start();
        let t = triplets.as_ref();
        let n = t.len();
        let width = if tag.is_some() {
            HINGE_WEIGHT + 1
        } else {
            HINGE_TAG
        };
        let mut aux = self.pool.take(n, width);
        let rows = |c: &Channel| (&self.nodes[c.users.0].value, &self.nodes[c.items.0].value);
        let (users, items) = rows(&ir);
        hyper::triplet_dists_fwd(users, items, ir.item_offset, t, &mut aux, HINGE_IR);
        if let Some(tag) = &tag {
            let (users, items) = rows(&tag.channel);
            let offset = tag.channel.item_offset;
            hyper::triplet_dists_fwd(users, items, offset, t, &mut aux, HINGE_TAG);
            for (r, &u) in t.users.iter().enumerate() {
                aux.set(r, HINGE_WEIGHT, tag.gain * tag.alpha[u]);
            }
        }
        for r in 0..n {
            let a = aux.row_mut(r);
            let mut g_pos = a[HINGE_IR + 1] * a[HINGE_IR + 1];
            let mut g_neg = a[HINGE_IR + 3] * a[HINGE_IR + 3];
            if tag.is_some() {
                let c = a[HINGE_WEIGHT];
                g_pos += a[HINGE_TAG + 1] * a[HINGE_TAG + 1] * c;
                g_neg += a[HINGE_TAG + 3] * a[HINGE_TAG + 3] * c;
            }
            let x = g_pos - g_neg + margin;
            a[HINGE_X] = x;
            a[HINGE_H] = match hinge {
                Hinge::Relu => x.max(0.0),
                Hinge::Softplus => x.max(0.0) + (-x.abs()).exp().ln_1p(),
            };
        }
        // `mean_all`'s sum: `Iterator::sum`, in triplet order.
        let total: f64 = (0..n).map(|r| aux.get(r, HINGE_H)).sum();
        let value = self.pool.full(1, 1, total / n as f64);
        let op = Op::TripletHinge {
            ir,
            tag: tag.map(|t| t.channel),
            triplets: Arc::clone(triplets),
            hinge,
        };
        self.push_with_aux(value, aux, op, t0)
    }

    /// Runs reverse-mode accumulation from the scalar node `loss`
    /// (seeded with gradient 1). The gradient matrices come from the
    /// tape's free list; [`Tape::recycle`] returns them to it.
    ///
    /// # Panics
    /// Panics if `loss` is not `1×1`.
    pub fn backward(&mut self, loss: Var) -> Gradients {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward from non-scalar");
        let Tape { nodes, pool, clock } = self;
        let mut grads = pool.free_slots.pop().unwrap_or_default();
        grads.resize_with(nodes.len(), || None);
        grads[loss.0] = Some(pool.full(1, 1, 1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            let t0 = clock.start();
            accumulate_parents(nodes, pool, i, &g, &mut grads);
            clock.backward(&nodes[i].op, t0);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }
}

/// Adds `contribution` into the gradient slot for `v`; a contribution that
/// was summed into an existing slot has served and goes back to the pool.
fn add_grad(grads: &mut [Option<Matrix>], pool: &mut Pool, v: Var, contribution: Matrix) {
    match &mut grads[v.0] {
        Some(g) => {
            g.add_assign(&contribution);
            pool.give(contribution);
        }
        slot @ None => *slot = Some(contribution),
    }
}

/// [`add_grad`] for a kernel that can add its contribution into a matrix
/// directly: `write(dest, add)` writes a fresh `shape` buffer that
/// becomes `v`'s gradient (`add` false) or, when `v` has one, adds each
/// finished entry of the contribution into it (`add` true) — the sums
/// `add_grad` forms, without a matrix for the contribution.
fn contribute(
    grads: &mut [Option<Matrix>],
    pool: &mut Pool,
    v: Var,
    shape: (usize, usize),
    write: impl FnOnce(&mut Matrix, bool),
) {
    let (mut dest, add) = match grads[v.0].take() {
        Some(slot) => (slot, true),
        None => (pool.take(shape.0, shape.1), false),
    };
    write(&mut dest, add);
    grads[v.0] = Some(dest);
}

/// `Σ_{l=1..L} Pˡ·z` (`L = layers ≥ 1`), each layer written from the one
/// before and added into the sum as it is formed, left to right:
/// `((z₁ + z₂) + z₃) + …`, the last layer through the product's add mode.
/// Takes `z`'s storage; the layers' buffers go back to the pool.
fn layer_sum(pool: &mut Pool, p: &Csr, z: Matrix, layers: usize) -> Matrix {
    let (n, d) = z.shape();
    let (mut prev, mut next) = (z, pool.take(n, d));
    p.matmul_into(&prev, &mut next);
    if layers == 1 {
        pool.give(prev);
        return next;
    }
    std::mem::swap(&mut prev, &mut next);
    p.matmul_into(&prev, &mut next);
    let mut sum = pool.zip(&prev, &next, |a, b| a + b);
    for l in 3..=layers {
        std::mem::swap(&mut prev, &mut next);
        if l == layers {
            p.product_into(&prev, &mut sum, true);
        } else {
            p.matmul_into(&prev, &mut next);
            sum.add_assign(&next);
        }
    }
    pool.give(prev);
    pool.give(next);
    sum
}

/// The gradient of [`layer_sum`]'s input given `g`, its output's: with
/// `g_L = g` and `g_l = g + Pᵀg_{l+1}`, it is `Pᵀg_1`. Takes `g`'s storage.
fn layer_sum_bwd(pool: &mut Pool, pt: &Csr, g: Matrix, layers: usize) -> Matrix {
    let mut below: Option<Matrix> = None;
    for _ in 1..layers {
        let mut gl = pool.copy(&g);
        pt.product_into(below.as_ref().unwrap_or(&g), &mut gl, true);
        if let Some(done) = below.replace(gl) {
            pool.give(done);
        }
    }
    let mut out = pool.take(g.rows(), g.cols());
    pt.matmul_into(below.as_ref().unwrap_or(&g), &mut out);
    if let Some(done) = below {
        pool.give(done);
    }
    pool.give(g);
    out
}

/// One channel's share of a [`Tape::triplet_hinge`] backward, given the
/// per-triplet distance weights `w`: [`hyper::triplet_channel_bwd`] into
/// zeroed buffers, the positive side's item sums added into the negative
/// side's, and the results added to the channel's gradient slots.
#[allow(clippy::too_many_arguments)]
fn triplet_channel_grads(
    nodes: &[Node],
    pool: &mut Pool,
    grads: &mut [Option<Matrix>],
    c: Channel,
    t: &Triplets,
    aux: &Matrix,
    col: usize,
    w: &[f64],
) {
    let (users, items) = (&nodes[c.users.0].value, &nodes[c.items.0].value);
    let (dc, off) = (users.cols(), c.item_offset);
    let mut pos = pool.take_zeroed(items.rows() - off, dc);
    let mut scratch = pool.take(2, dc);
    let mut gi = pool.take_zeroed(items.rows(), dc);
    let isa = Isa::detected();
    if c.users == c.items {
        let (gu, gv) = gi.data_mut().split_at_mut(off * dc);
        let (gp, s) = (pos.data_mut(), scratch.data_mut());
        hyper::triplet_channel_bwd(isa, users, items, off, t, aux, col, w, gu, gv, gp, s);
    } else {
        let mut gu = pool.take_zeroed(users.rows(), dc);
        let gv = &mut gi.data_mut()[off * dc..];
        let (gp, s) = (pos.data_mut(), scratch.data_mut());
        hyper::triplet_channel_bwd(
            isa,
            users,
            items,
            off,
            t,
            aux,
            col,
            w,
            gu.data_mut(),
            gv,
            gp,
            s,
        );
        add_grad(grads, pool, c.users, gu);
    }
    for (g, &p) in gi.data_mut()[off * dc..].iter_mut().zip(pos.data()) {
        *g += p;
    }
    add_grad(grads, pool, c.items, gi);
    pool.give(pos);
    pool.give(scratch);
}

/// Pushes the gradient `g` of node `i` to its parents. Contributions that
/// are written entry by entry come from [`Pool::take`]; the ones a kernel
/// accumulates into (`+=`) from [`Pool::take_zeroed`]. Node `i`'s `aux`
/// holds whatever its forward kept for this.
#[allow(clippy::too_many_lines)]
fn accumulate_parents(
    nodes: &[Node],
    pool: &mut Pool,
    i: usize,
    g: &Matrix,
    grads: &mut [Option<Matrix>],
) {
    let value = |v: Var| &nodes[v.0].value;
    let out = &nodes[i].value;
    let aux = &nodes[i].aux;
    match &nodes[i].op {
        Op::Leaf => {}
        Op::Add(a, b) => {
            let ga = pool.copy(g);
            add_grad(grads, pool, *a, ga);
            let gb = pool.copy(g);
            add_grad(grads, pool, *b, gb);
        }
        Op::Sub(a, b) => {
            let ga = pool.copy(g);
            add_grad(grads, pool, *a, ga);
            let gb = pool.map(g, |x| -x);
            add_grad(grads, pool, *b, gb);
        }
        Op::Neg(a) => {
            let ga = pool.map(g, |x| -x);
            add_grad(grads, pool, *a, ga);
        }
        Op::Scale(a, c) => {
            let c = *c;
            let ga = pool.map(g, |x| c * x);
            add_grad(grads, pool, *a, ga);
        }
        Op::AddScalar(a) => {
            let ga = pool.copy(g);
            add_grad(grads, pool, *a, ga);
        }
        Op::Hadamard(a, b) => {
            let ga = pool.zip(g, value(*b), |x, y| x * y);
            let gb = pool.zip(g, value(*a), |x, y| x * y);
            add_grad(grads, pool, *a, ga);
            add_grad(grads, pool, *b, gb);
        }
        Op::MatMul(a, b) => {
            let ga = g.matmul(&value(*b).transpose());
            let gb = value(*a).transpose().matmul(g);
            add_grad(grads, pool, *a, ga);
            add_grad(grads, pool, *b, gb);
        }
        Op::Spmm { m, x } => {
            contribute(grads, pool, *x, (m.cols(), g.cols()), |gx, add| {
                m.transposed().product_into(g, gx, add);
            });
        }
        Op::GatherRows { x, idx } => {
            let vx = value(*x);
            let mut gx = pool.take_zeroed(vx.rows(), vx.cols());
            for (i, &r) in idx.iter().enumerate() {
                for (d, s) in gx.row_mut(r).iter_mut().zip(g.row(i)) {
                    *d += s;
                }
            }
            add_grad(grads, pool, *x, gx);
        }
        Op::ConcatRows(a, b) => {
            let na = value(*a).rows();
            let d = g.cols();
            let (top, bottom) = g.data().split_at(na * d);
            let mut ga = pool.take(na, d);
            ga.data_mut().copy_from_slice(top);
            let mut gb = pool.take(g.rows() - na, d);
            gb.data_mut().copy_from_slice(bottom);
            add_grad(grads, pool, *a, ga);
            add_grad(grads, pool, *b, gb);
        }
        Op::SliceRows { x, start } => {
            let vx = value(*x);
            let d = vx.cols();
            // Zeros outside the slice, `g` inside: each entry written once.
            let mut gx = pool.take(vx.rows(), d);
            let (head, rest) = gx.data_mut().split_at_mut(start * d);
            let (mid, tail) = rest.split_at_mut(g.rows() * d);
            head.fill(0.0);
            mid.copy_from_slice(g.data());
            tail.fill(0.0);
            add_grad(grads, pool, *x, gx);
        }
        Op::SumAll(a) => {
            let va = value(*a);
            let ga = pool.full(va.rows(), va.cols(), g.as_scalar());
            add_grad(grads, pool, *a, ga);
        }
        Op::MeanAll(a) => {
            let va = value(*a);
            let n = (va.rows() * va.cols()) as f64;
            let ga = pool.full(va.rows(), va.cols(), g.as_scalar() / n);
            add_grad(grads, pool, *a, ga);
        }
        Op::Relu(a) => {
            let ga = pool.zip(g, value(*a), |gi, xi| if xi > 0.0 { gi } else { 0.0 });
            add_grad(grads, pool, *a, ga);
        }
        Op::LeakyRelu(a, alpha) => {
            let alpha = *alpha;
            let ga = pool.zip(
                g,
                value(*a),
                |gi, xi| if xi > 0.0 { gi } else { alpha * gi },
            );
            add_grad(grads, pool, *a, ga);
        }
        Op::Softplus(a) => {
            let ga = pool.zip(g, value(*a), |gi, x| gi / (1.0 + (-x).exp()));
            add_grad(grads, pool, *a, ga);
        }
        Op::Sqrt(a) => {
            let ga = pool.zip(g, out, |gi, s| gi / (2.0 * s.max(1e-6)));
            add_grad(grads, pool, *a, ga);
        }
        Op::RowDot(a, b) => {
            let (va, vb) = (value(*a), value(*b));
            let (n, d) = va.shape();
            let mut ga = pool.take(n, d);
            let mut gb = pool.take(n, d);
            for r in 0..n {
                let c = g.get(r, 0);
                for (o, &bv) in ga.row_mut(r).iter_mut().zip(vb.row(r)) {
                    *o = c * bv;
                }
                for (o, &av) in gb.row_mut(r).iter_mut().zip(va.row(r)) {
                    *o = c * av;
                }
            }
            add_grad(grads, pool, *a, ga);
            add_grad(grads, pool, *b, gb);
        }
        Op::RowSqNorm(a) => {
            let va = value(*a);
            let (n, d) = va.shape();
            let mut ga = pool.take(n, d);
            for r in 0..n {
                let c = 2.0 * g.get(r, 0);
                for (o, &av) in ga.row_mut(r).iter_mut().zip(va.row(r)) {
                    *o = c * av;
                }
            }
            add_grad(grads, pool, *a, ga);
        }
        Op::SoftmaxRows(a) => {
            let (n, d) = out.shape();
            let mut ga = pool.take(n, d);
            for r in 0..n {
                let orow = out.row(r);
                let grow = g.row(r);
                let dotv = taxorec_geometry::vecops::dot(orow, grow);
                let gr = ga.row_mut(r);
                for j in 0..d {
                    gr[j] = orow[j] * (grow[j] - dotv);
                }
            }
            add_grad(grads, pool, *a, ga);
        }
        Op::LorentzDistSq(x, y) => {
            let (vx, vy) = (value(*x), value(*y));
            let mut gx = pool.take_zeroed(vx.rows(), vx.cols());
            let mut gy = pool.take_zeroed(vy.rows(), vy.cols());
            hyper::lorentz_dist_sq_bwd(vx, vy, g, &mut gx, &mut gy);
            add_grad(grads, pool, *x, gx);
            add_grad(grads, pool, *y, gy);
        }
        Op::PoincareDist(x, y) => {
            let (vx, vy) = (value(*x), value(*y));
            let mut gx = pool.take_zeroed(vx.rows(), vx.cols());
            let mut gy = pool.take_zeroed(vy.rows(), vy.cols());
            hyper::poincare_dist_bwd(vx, vy, g, &mut gx, &mut gy);
            add_grad(grads, pool, *x, gx);
            add_grad(grads, pool, *y, gy);
        }
        Op::PoincareToKlein(p) => {
            let vp = value(*p);
            let mut gp = pool.take_zeroed(vp.rows(), vp.cols());
            hyper::poincare_to_klein_bwd(vp, g, &mut gp);
            add_grad(grads, pool, *p, gp);
        }
        Op::KleinToPoincare(k) => {
            let vk = value(*k);
            let mut gk = pool.take_zeroed(vk.rows(), vk.cols());
            hyper::klein_to_poincare_bwd(vk, g, &mut gk);
            add_grad(grads, pool, *k, gk);
        }
        Op::PoincareToLorentz(p) => {
            let vp = value(*p);
            let mut gp = pool.take_zeroed(vp.rows(), vp.cols());
            hyper::poincare_to_lorentz_bwd(vp, g, &mut gp);
            add_grad(grads, pool, *p, gp);
        }
        Op::EinsteinMidpoint { tags, item_tag } => {
            let vt = value(*tags);
            let mut gt = pool.take_zeroed(vt.rows(), vt.cols());
            hyper::einstein_midpoint_bwd(vt, item_tag, out, g, &mut gt);
            add_grad(grads, pool, *tags, gt);
        }
        Op::GlobalAggregation {
            users,
            items,
            propagate,
            layers,
            sum,
        } => {
            let (n, d) = sum.shape();
            let nu = value(*users).rows();
            let isa = Isa::detected();
            let (log_aux, exp_aux) = aux.data().split_at(2 * n);
            let mut g_sum = pool.take(n, d);
            hyper::lorentz_exp_origin_bwd(isa, sum, exp_aux, g, &mut g_sum);
            let gz = layer_sum_bwd(pool, propagate.transposed(), g_sum, *layers);
            let (gzu, gzv) = gz.data().split_at(nu * d);
            let (au, av) = log_aux.split_at(2 * nu);
            // The item rows' log map was recorded second: its backward first.
            for (x, a, gzx) in [(*items, av, gzv), (*users, au, gzu)] {
                let vx = value(x);
                let mut gx = pool.take(vx.rows(), vx.cols());
                hyper::lorentz_log_origin_bwd(isa, vx, a, gzx, &mut gx);
                add_grad(grads, pool, x, gx);
            }
            pool.give(gz);
        }
        Op::TripletHinge {
            ir,
            tag,
            triplets,
            hinge,
        } => {
            // The chain's gradients of each triplet's two distances:
            // `mean_all` and the hinge give `gd`, `sub` sends `gd` to the
            // positive side and `−gd` to the negative; the tag channel
            // multiplies both by `gain·α_u`.
            let n = triplets.len();
            let gm = g.as_scalar() / n as f64;
            let mut w = pool.take(n, 2);
            for (r, wr) in w.data_mut().chunks_exact_mut(2).enumerate() {
                let x = aux.get(r, HINGE_X);
                let gd = match hinge {
                    Hinge::Relu => {
                        if x > 0.0 {
                            gm
                        } else {
                            0.0
                        }
                    }
                    Hinge::Softplus => gm / (1.0 + (-x).exp()),
                };
                wr.copy_from_slice(&[gd, -gd]);
            }
            // The tag channel was recorded later in the chain: it goes first.
            if let Some(tag) = tag {
                let mut wt = pool.take(n, 2);
                for (r, (o, wr)) in wt
                    .data_mut()
                    .chunks_exact_mut(2)
                    .zip(w.data().chunks_exact(2))
                    .enumerate()
                {
                    let c = aux.get(r, HINGE_WEIGHT);
                    o.copy_from_slice(&[wr[0] * c, wr[1] * c]);
                }
                let wt_data = wt.data();
                triplet_channel_grads(nodes, pool, grads, *tag, triplets, aux, HINGE_TAG, wt_data);
                pool.give(wt);
            }
            triplet_channel_grads(nodes, pool, grads, *ir, triplets, aux, HINGE_IR, w.data());
            pool.give(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_chain_gradient() {
        // f(x) = sum(3x + 2) over a 2×2 ⇒ df/dx = 3 everywhere.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = t.scale(x, 3.0);
        let z = t.add_scalar(y, 2.0);
        let loss = t.sum_all(z);
        assert_eq!(t.value(loss).as_scalar(), 38.0);
        let g = t.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[3.0; 4]);
    }

    #[test]
    fn hadamard_with_aliased_parents_gives_2x() {
        // f(x) = sum(x ⊙ x) ⇒ df/dx = 2x.
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![1.0, -2.0, 0.5]));
        let sq = t.hadamard(x, x);
        let loss = t.sum_all(sq);
        let g = t.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[2.0, -4.0, 1.0]);
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::scalar(1.0));
        let y = t.leaf(Matrix::scalar(2.0));
        let loss = t.sum_all(x);
        let g = t.backward(loss);
        assert!(g.wrt(y).is_none());
        assert!(g.wrt(x).is_some());
    }

    #[test]
    fn matmul_gradient_matches_known_formula() {
        // loss = sum(A·B): dA = 1·Bᵀ (row sums of B broadcast), dB = Aᵀ·1.
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = t.matmul(a, b);
        let loss = t.sum_all(c);
        let g = t.backward(loss);
        assert_eq!(g.wrt(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(g.wrt(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let idx = Arc::new(vec![2usize, 0, 2]);
        let gthr = t.gather_rows(x, idx);
        assert_eq!(t.value(gthr).row(0), &[5.0, 6.0]);
        let loss = t.sum_all(gthr);
        let g = t.backward(loss);
        // Row 2 gathered twice ⇒ gradient 2; row 1 never ⇒ 0.
        assert_eq!(g.wrt(x).unwrap().data(), &[1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn spmm_backward_uses_transpose() {
        let mut t = Tape::new();
        let m = Arc::new(Csr::from_triplets(2, 3, &[(0, 0, 2.0), (1, 2, 3.0)]));
        let x = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 1.0, 1.0]));
        let y = t.spmm(&m, x);
        assert_eq!(t.value(y).data(), &[2.0, 3.0]);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[2.0, 0.0, 3.0]);
    }

    #[test]
    fn concat_slice_roundtrip() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let c = t.concat_rows(a, b);
        let back = t.slice_rows(c, 1, 2);
        assert_eq!(t.value(back).data(), &[3.0, 4.0, 5.0, 6.0]);
        let loss = t.sum_all(back);
        let g = t.backward(loss);
        assert!(g.wrt(a).unwrap().data().iter().all(|&x| x == 0.0));
        assert!(g.wrt(b).unwrap().data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![-1.0, 0.0, 2.0]));
        let y = t.relu(x);
        let loss = t.sum_all(y);
        let g = t.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_grad_sums_to_zero() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        let s = t.softmax_rows(x);
        let total: f64 = t.value(s).data().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // loss = first component of softmax: gradient rows sum to ~0.
        let w = t.leaf(Matrix::from_vec(1, 3, vec![1.0, 0.0, 0.0]));
        let h = t.hadamard(s, w);
        let loss = t.sum_all(h);
        let g = t.backward(loss);
        let gsum: f64 = g.wrt(x).unwrap().data().iter().sum();
        assert!(gsum.abs() < 1e-12);
    }

    #[test]
    fn mean_all_divides_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let loss = t.mean_all(x);
        assert_eq!(t.value(loss).as_scalar(), 2.5);
        let g = t.backward(loss);
        assert_eq!(g.wrt(x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn a_timed_tape_counts_every_node_and_computes_the_same_bits() {
        let run = |timed: bool| {
            let mut t = Tape::new();
            t.set_timed(timed);
            let x = t.leaf(Matrix::from_vec(2, 2, vec![0.3, -0.1, 0.7, 0.2]));
            let y = t.poincare_to_klein(x);
            let z = t.klein_to_poincare(y);
            let s = t.add(z, x);
            let loss = t.sum_all(s);
            let g = t.backward(loss);
            let bits = g.wrt(x).unwrap().data().iter().map(|v| v.to_bits());
            (bits.collect::<Vec<_>>(), t.op_times().collect::<Vec<_>>())
        };
        let (untimed, none) = run(false);
        let (timed, times) = run(true);
        assert_eq!(untimed, timed);
        assert!(none.is_empty(), "an untimed tape records nothing");
        let count = |name: &str| {
            let t = times.iter().find(|(n, _)| *n == name).expect(name).1;
            (t.fwd_nodes, t.bwd_nodes)
        };
        assert_eq!(count("leaf"), (1, 1));
        assert_eq!(count("poincare_to_klein"), (1, 1));
        assert_eq!(count("klein_to_poincare"), (1, 1));
        assert_eq!(count("add"), (1, 1));
        assert_eq!(count("sum_all"), (1, 1));
        assert_eq!(times.len(), 5, "kinds that never ran are left out");
    }

    #[test]
    #[should_panic(expected = "backward from non-scalar")]
    fn backward_rejects_non_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::zeros(2, 2));
        let _ = t.backward(x);
    }
}
