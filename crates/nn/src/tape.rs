//! Tape-based reverse-mode automatic differentiation over a closed set of
//! ops — exactly the ops the m3 model needs (matmuls, residual adds, SiLU,
//! RMSNorm, causal softmax, concatenation, L1 loss). Each forward call
//! appends a node; `backward` walks the tape in reverse and accumulates
//! parameter gradients into caller-provided buffers.
//!
//! Allocation discipline: parameter nodes borrow their value from the
//! [`ParamStore`] (no per-sample clone of the weights), and every op output
//! is drawn from a [`TensorArena`] owned by the tape. [`Tape::reset`]
//! retires all node buffers back to the arena, so a tape reused across
//! batch members reaches zero steady-state allocation after one warmup
//! sample.

use crate::arena::TensorArena;
use crate::params::{ParamId, ParamStore};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// Constant input (no gradient).
    Input,
    /// Reference to a learnable parameter.
    Param(ParamId),
    /// [n,k] x [k,m]
    MatMul(Var, Var),
    /// [n,k] x [m,k]^T
    MatMulNT(Var, Var),
    /// Elementwise add, same shape.
    Add(Var, Var),
    /// [n,m] + bias row [1,m]
    AddBias(Var, Var),
    /// Elementwise multiply, same shape.
    Mul(Var, Var),
    /// Scalar multiply.
    Scale(Var, f32),
    Relu(Var),
    Silu(Var),
    /// Row-wise softmax over a square matrix with entries above the
    /// diagonal masked out (causal attention).
    CausalSoftmax(Var),
    /// Row-wise RMS normalization with a learnable gain row: (x, gain).
    RmsNorm(Var, Var),
    /// Horizontal concatenation of two row-compatible matrices.
    ConcatCols(Var, Var),
    /// Extract one row as a [1, m] matrix.
    SliceRow(Var, usize),
    /// Mean absolute error against a constant target: (pred, target).
    L1Loss(Var, Var),
}

struct Node {
    op: Op,
    /// `None` only for `Param` nodes, whose value lives in the store.
    value: Option<Tensor>,
}

pub(crate) const RMS_EPS: f32 = 1e-5;

/// One forward/backward tape. Reusable via [`Tape::reset`]; cheap to drop.
pub struct Tape<'p> {
    store: &'p ParamStore,
    nodes: Vec<Node>,
    arena: TensorArena,
    /// Pre-overhaul cost model: scalar reference matmul kernels, a fresh
    /// heap allocation per node, and parameter values cloned onto the
    /// tape. Numerically (bitwise) identical to the fast configuration;
    /// retained as the "before" side of the hotpath benchmark gate.
    reference_kernels: bool,
}

impl<'p> Tape<'p> {
    pub fn new(store: &'p ParamStore) -> Self {
        Tape::with_arena(store, TensorArena::new())
    }

    /// Build a tape around a warm arena (e.g. one recycled from a previous
    /// sample of the same batch).
    pub fn with_arena(store: &'p ParamStore, arena: TensorArena) -> Self {
        Tape {
            store,
            nodes: Vec::with_capacity(256),
            arena,
            reference_kernels: false,
        }
    }

    /// A tape that faithfully reproduces the pre-overhaul implementation:
    /// scalar reference kernels, per-op heap allocation, param clones.
    pub fn new_reference(store: &'p ParamStore) -> Self {
        Tape {
            reference_kernels: true,
            ..Tape::new(store)
        }
    }

    /// A fresh value buffer: from the arena normally, from the heap in
    /// reference mode (replicating the pre-overhaul per-op allocation).
    fn fresh(&mut self, rows: usize, cols: usize) -> Tensor {
        if self.reference_kernels {
            Tensor::zeros(rows, cols)
        } else {
            self.arena.take(rows, cols)
        }
    }

    /// Clear the graph, retiring every node buffer into the arena. The
    /// next forward pass over similar shapes allocates nothing.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if let Some(t) = node.value {
                self.arena.give(t);
            }
        }
    }

    /// Tear down the tape, recovering its warm arena for the next tape.
    pub fn recycle(mut self) -> TensorArena {
        self.reset();
        self.arena
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node {
            op,
            value: Some(value),
        });
        Var(self.nodes.len() - 1)
    }

    /// Resolve a node's value (parameters resolve into the store).
    fn val(&self, v: Var) -> &Tensor {
        let node = &self.nodes[v.0];
        match (&node.op, &node.value) {
            (_, Some(t)) => t,
            (Op::Param(id), None) => self.store.get(*id),
            _ => unreachable!("non-param node without a value"),
        }
    }

    pub fn value(&self, v: Var) -> &Tensor {
        self.val(v)
    }

    // ---- graph constructors -------------------------------------------------

    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(Op::Input, t)
    }

    pub fn param(&mut self, id: ParamId) -> Var {
        // No clone: the value is read from the store on demand (reference
        // mode keeps the pre-overhaul per-use clone).
        let value = if self.reference_kernels {
            Some(self.store.get(id).clone())
        } else {
            None
        };
        self.nodes.push(Node {
            op: Op::Param(id),
            value,
        });
        Var(self.nodes.len() - 1)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = (self.val(a).rows, self.val(b).cols);
        let mut out = self.fresh(r, c);
        if self.reference_kernels {
            Tensor::matmul_into_reference(self.val(a), self.val(b), &mut out);
        } else {
            Tensor::matmul_into(self.val(a), self.val(b), &mut out);
        }
        self.push(Op::MatMul(a, b), out)
    }

    pub fn matmul_nt(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = (self.val(a).rows, self.val(b).rows);
        let mut out = self.fresh(r, c);
        Tensor::matmul_nt_into(self.val(a), self.val(b), &mut out);
        self.push(Op::MatMulNT(a, b), out)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = {
            let (av, bv) = (self.val(a), self.val(b));
            assert_eq!(av.shape(), bv.shape(), "add shape mismatch");
            av.shape()
        };
        let mut v = self.fresh(r, c);
        for ((o, &x), &y) in v
            .data
            .iter_mut()
            .zip(&self.val(a).data)
            .zip(&self.val(b).data)
        {
            *o = x + y;
        }
        self.push(Op::Add(a, b), v)
    }

    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (r, c) = {
            let (av, bv) = (self.val(a), self.val(bias));
            assert_eq!(bv.rows, 1, "bias must be a row vector");
            assert_eq!(av.cols, bv.cols, "bias width mismatch");
            av.shape()
        };
        let mut v = self.fresh(r, c);
        {
            let (av, bv) = (self.val(a), self.val(bias));
            for row in 0..r {
                let src = &av.data[row * c..(row + 1) * c];
                let dst = &mut v.data[row * c..(row + 1) * c];
                for ((o, &x), &b) in dst.iter_mut().zip(src).zip(&bv.data) {
                    *o = x + b;
                }
            }
        }
        self.push(Op::AddBias(a, bias), v)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (r, c) = {
            let (av, bv) = (self.val(a), self.val(b));
            assert_eq!(av.shape(), bv.shape(), "mul shape mismatch");
            av.shape()
        };
        let mut v = self.fresh(r, c);
        for ((o, &x), &y) in v
            .data
            .iter_mut()
            .zip(&self.val(a).data)
            .zip(&self.val(b).data)
        {
            *o = x * y;
        }
        self.push(Op::Mul(a, b), v)
    }

    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.fresh(rows, cols);
        for (o, &x) in v.data.iter_mut().zip(&self.val(a).data) {
            *o = x * c;
        }
        self.push(Op::Scale(a, c), v)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.fresh(rows, cols);
        for (o, &x) in v.data.iter_mut().zip(&self.val(a).data) {
            *o = x.max(0.0);
        }
        self.push(Op::Relu(a), v)
    }

    pub fn silu(&mut self, a: Var) -> Var {
        let (rows, cols) = self.val(a).shape();
        let mut v = self.fresh(rows, cols);
        for (o, &x) in v.data.iter_mut().zip(&self.val(a).data) {
            *o = x * sigmoid(x);
        }
        self.push(Op::Silu(a), v)
    }

    pub fn causal_softmax(&mut self, a: Var) -> Var {
        let n = {
            let av = self.val(a);
            assert_eq!(av.rows, av.cols, "causal softmax expects square scores");
            av.rows
        };
        let mut v = self.fresh(n, n);
        causal_softmax_into(&self.val(a).data, n, 0, &mut v.data);
        self.push(Op::CausalSoftmax(a), v)
    }

    pub fn rms_norm(&mut self, a: Var, gain: Var) -> Var {
        let (r, c) = {
            let (av, gv) = (self.val(a), self.val(gain));
            assert_eq!(gv.rows, 1, "rmsnorm gain must be a row");
            assert_eq!(gv.cols, av.cols, "rmsnorm gain width mismatch");
            av.shape()
        };
        let mut v = self.fresh(r, c);
        rms_norm_into(&self.val(a).data, &self.val(gain).data, &mut v.data);
        self.push(Op::RmsNorm(a, gain), v)
    }

    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (r, ac, bc) = {
            let (av, bv) = (self.val(a), self.val(b));
            assert_eq!(av.rows, bv.rows, "concat row mismatch");
            (av.rows, av.cols, bv.cols)
        };
        let mut v = self.fresh(r, ac + bc);
        {
            let (av, bv) = (self.val(a), self.val(b));
            for row in 0..r {
                let dst = &mut v.data[row * (ac + bc)..(row + 1) * (ac + bc)];
                dst[..ac].copy_from_slice(&av.data[row * ac..(row + 1) * ac]);
                dst[ac..].copy_from_slice(&bv.data[row * bc..(row + 1) * bc]);
            }
        }
        self.push(Op::ConcatCols(a, b), v)
    }

    pub fn slice_row(&mut self, a: Var, row: usize) -> Var {
        let cols = {
            let av = self.val(a);
            assert!(row < av.rows, "row out of range");
            av.cols
        };
        let mut v = self.fresh(1, cols);
        v.data
            .copy_from_slice(&self.val(a).data[row * cols..(row + 1) * cols]);
        self.push(Op::SliceRow(a, row), v)
    }

    /// Mean absolute error; `target` must be an Input of the same shape.
    pub fn l1_loss(&mut self, pred: Var, target: Var) -> Var {
        let loss = {
            let (pv, tv) = (self.val(pred), self.val(target));
            assert_eq!(pv.shape(), tv.shape(), "loss shape mismatch");
            let n = pv.len() as f32;
            pv.data
                .iter()
                .zip(&tv.data)
                .map(|(p, t)| (p - t).abs())
                .sum::<f32>()
                / n
        };
        let mut v = self.fresh(1, 1);
        v.data[0] = loss;
        self.push(Op::L1Loss(pred, target), v)
    }

    // ---- backward -----------------------------------------------------------

    /// Reverse-mode sweep from `root` (a scalar). Parameter gradients are
    /// *accumulated* into `param_grads` (aligned with the store), enabling
    /// gradient accumulation across samples.
    pub fn backward(&self, root: Var, param_grads: &mut [Tensor]) {
        assert_eq!(param_grads.len(), self.store.len(), "grad buffer mismatch");
        assert_eq!(self.val(root).len(), 1, "backward root must be scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[root.0] = Some(Tensor::from_vec(1, 1, vec![1.0]));

        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &self.nodes[idx];
            match &node.op {
                Op::Input => {}
                Op::Param(pid) => {
                    let buf = &mut param_grads[pid.0];
                    for (b, &gv) in buf.data.iter_mut().zip(&g.data) {
                        *b += gv;
                    }
                }
                Op::MatMul(a, b) => {
                    // dA += G B^T ; dB += A^T G
                    let (av, bv) = (self.val(*a), self.val(*b));
                    {
                        let da = ensure(&mut grads, *a, av.rows, av.cols);
                        Tensor::matmul_nt_into(&g, bv, da);
                    }
                    {
                        let db = ensure(&mut grads, *b, bv.rows, bv.cols);
                        Tensor::matmul_tn_into(av, &g, db);
                    }
                }
                Op::MatMulNT(a, b) => {
                    // C = A B^T: dA += G B ; dB += G^T A
                    let (av, bv) = (self.val(*a), self.val(*b));
                    {
                        let da = ensure(&mut grads, *a, av.rows, av.cols);
                        Tensor::matmul_into(&g, bv, da);
                    }
                    {
                        let db = ensure(&mut grads, *b, bv.rows, bv.cols);
                        Tensor::matmul_tn_into(&g, av, db);
                    }
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, &g);
                    accumulate(&mut grads, *b, &g);
                }
                Op::AddBias(a, bias) => {
                    accumulate(&mut grads, *a, &g);
                    let bv = self.val(*bias);
                    let db = ensure(&mut grads, *bias, 1, bv.cols);
                    for r in 0..g.rows {
                        for c in 0..g.cols {
                            db.data[c] += g.at(r, c);
                        }
                    }
                }
                Op::Mul(a, b) => {
                    let (av, bv) = (self.val(*a), self.val(*b));
                    {
                        let da = ensure(&mut grads, *a, av.rows, av.cols);
                        for ((d, &gv), &o) in da.data.iter_mut().zip(&g.data).zip(&bv.data) {
                            *d += gv * o;
                        }
                    }
                    {
                        let db = ensure(&mut grads, *b, bv.rows, bv.cols);
                        for ((d, &gv), &o) in db.data.iter_mut().zip(&g.data).zip(&av.data) {
                            *d += gv * o;
                        }
                    }
                }
                Op::Scale(a, c) => {
                    let av = self.val(*a);
                    let da = ensure(&mut grads, *a, av.rows, av.cols);
                    for (d, &gv) in da.data.iter_mut().zip(&g.data) {
                        *d += gv * c;
                    }
                }
                Op::Relu(a) => {
                    let av = self.val(*a);
                    let da = ensure(&mut grads, *a, av.rows, av.cols);
                    for ((d, &gv), &x) in da.data.iter_mut().zip(&g.data).zip(&av.data) {
                        if x > 0.0 {
                            *d += gv;
                        }
                    }
                }
                Op::Silu(a) => {
                    let av = self.val(*a);
                    let da = ensure(&mut grads, *a, av.rows, av.cols);
                    for ((d, &gv), &x) in da.data.iter_mut().zip(&g.data).zip(&av.data) {
                        let s = sigmoid(x);
                        *d += gv * (s + x * s * (1.0 - s));
                    }
                }
                Op::CausalSoftmax(a) => {
                    let y = self.val(Var(idx));
                    let n = y.rows;
                    let av = self.val(*a);
                    let da = ensure(&mut grads, *a, av.rows, av.cols);
                    for i in 0..n {
                        let yr = &y.data[i * n..(i + 1) * n];
                        let gr = &g.data[i * n..(i + 1) * n];
                        let dot: f32 = yr.iter().zip(gr).map(|(y, g)| y * g).sum();
                        for j in 0..=i {
                            da.data[i * n + j] += yr[j] * (gr[j] - dot);
                        }
                    }
                }
                Op::RmsNorm(a, gain) => {
                    let av = self.val(*a);
                    let gv = self.val(*gain);
                    let cols = av.cols;
                    // Gradients w.r.t. x and gain, row by row.
                    let mut dx = Tensor::zeros(av.rows, cols);
                    let mut dgain = Tensor::zeros(1, cols);
                    for r in 0..av.rows {
                        let x = &av.data[r * cols..(r + 1) * cols];
                        let gr = &g.data[r * cols..(r + 1) * cols];
                        let ms = x.iter().map(|v| v * v).sum::<f32>() / cols as f32;
                        let inv = 1.0 / (ms + RMS_EPS).sqrt();
                        // s = sum_i g_i * gain_i * x_i
                        let s: f32 = (0..cols).map(|c| gr[c] * gv.data[c] * x[c]).sum();
                        for c in 0..cols {
                            dx.data[r * cols + c] +=
                                gr[c] * gv.data[c] * inv - x[c] * inv * inv * inv * s / cols as f32;
                            dgain.data[c] += gr[c] * x[c] * inv;
                        }
                    }
                    accumulate(&mut grads, *a, &dx);
                    accumulate(&mut grads, *gain, &dgain);
                }
                Op::ConcatCols(a, b) => {
                    let (av, bv) = (self.val(*a), self.val(*b));
                    let mut da = Tensor::zeros(av.rows, av.cols);
                    let mut db = Tensor::zeros(bv.rows, bv.cols);
                    for r in 0..g.rows {
                        for c in 0..av.cols {
                            *da.at_mut(r, c) = g.at(r, c);
                        }
                        for c in 0..bv.cols {
                            *db.at_mut(r, c) = g.at(r, av.cols + c);
                        }
                    }
                    accumulate(&mut grads, *a, &da);
                    accumulate(&mut grads, *b, &db);
                }
                Op::SliceRow(a, row) => {
                    let av = self.val(*a);
                    let da = ensure(&mut grads, *a, av.rows, av.cols);
                    for c in 0..av.cols {
                        da.data[row * av.cols + c] += g.at(0, c);
                    }
                }
                Op::L1Loss(pred, target) => {
                    let (pv, tv) = (self.val(*pred), self.val(*target));
                    let n = pv.len() as f32;
                    let scale = g.data[0] / n;
                    let dp = ensure(&mut grads, *pred, pv.rows, pv.cols);
                    for ((d, &p), &t) in dp.data.iter_mut().zip(&pv.data).zip(&tv.data) {
                        *d += scale * (p - t).signum();
                    }
                }
            }
        }
    }
}

#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Row-wise causal softmax of rows `start..n` of an `[n, n]` score matrix
/// into `out` (which must be zeroed: entries above the diagonal are left
/// untouched, and so are rows before `start`). Shared by the tape op
/// (`start` 0) and the no-tape inference fast path so the two are
/// bit-identical by construction.
pub(crate) fn causal_softmax_into(scores: &[f32], n: usize, start: usize, out: &mut [f32]) {
    for i in start..n {
        let row = &scores[i * n..(i + 1) * n];
        let max = row[..=i].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        let o = &mut out[i * n..i * n + i + 1];
        for (o, &x) in o.iter_mut().zip(&row[..=i]) {
            let e = (x - max).exp();
            *o = e;
            denom += e;
        }
        for o in o.iter_mut() {
            *o /= denom;
        }
    }
}

/// Row-wise RMS norm with a gain row over the `gain.len()`-wide rows of
/// `a`, shared by the tape op and the inference fast path (overwrites
/// `out`).
pub(crate) fn rms_norm_into(a: &[f32], gain: &[f32], out: &mut [f32]) {
    let cols = gain.len();
    for (r, row) in a.chunks_exact(cols).enumerate() {
        let ms = row.iter().map(|x| x * x).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + RMS_EPS).sqrt();
        let o = &mut out[r * cols..(r + 1) * cols];
        for ((o, &x), &g) in o.iter_mut().zip(row).zip(gain) {
            *o = x * inv * g;
        }
    }
}

fn ensure(grads: &mut [Option<Tensor>], v: Var, rows: usize, cols: usize) -> &mut Tensor {
    grads[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols))
}

fn accumulate(grads: &mut [Option<Tensor>], v: Var, delta: &Tensor) {
    match &mut grads[v.0] {
        Some(g) => {
            for (a, &b) in g.data.iter_mut().zip(&delta.data) {
                *a += b;
            }
        }
        slot @ None => *slot = Some(delta.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;

    /// Finite-difference check of d(loss)/d(param) for a builder closure.
    fn check_param_grad<F>(store: &mut ParamStore, pid: ParamId, build: F, tol: f32)
    where
        F: Fn(&mut Tape) -> Var,
    {
        let mut grads = store.zero_grads();
        {
            let tape_store = store.clone();
            let mut tape = Tape::new(&tape_store);
            let loss = build(&mut tape);
            tape.backward(loss, &mut grads);
        }
        let eps = 1e-3f32;
        let n = store.get(pid).len();
        for i in (0..n).step_by((n / 7).max(1)) {
            let orig = store.get(pid).data[i];
            store.get_mut(pid).data[i] = orig + eps;
            let plus = {
                let s = store.clone();
                let mut t = Tape::new(&s);
                let l = build(&mut t);
                t.value(l).data[0]
            };
            store.get_mut(pid).data[i] = orig - eps;
            let minus = {
                let s = store.clone();
                let mut t = Tape::new(&s);
                let l = build(&mut t);
                t.value(l).data[0]
            };
            store.get_mut(pid).data[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads[pid.0].data[i];
            assert!(
                (numeric - analytic).abs() <= tol * (1.0 + numeric.abs().max(analytic.abs())),
                "index {i}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    fn fixed_input(rows: usize, cols: usize, seed: f32) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i as f32 * 0.37 + seed).sin()) * 0.8)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn grad_matmul_chain() {
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(1);
        let w = store.add_xavier("w", 4, 3, &mut rng);
        check_param_grad(
            &mut store,
            w,
            |tape| {
                let x = tape.input(fixed_input(2, 4, 0.1));
                let wv = tape.param(w);
                let y = tape.matmul(x, wv);
                let target = tape.input(fixed_input(2, 3, 0.9));
                tape.l1_loss(y, target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_silu_mul_swiglu_shape() {
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(2);
        let w1 = store.add_xavier("w1", 4, 6, &mut rng);
        let w3 = store.add_xavier("w3", 4, 6, &mut rng);
        for pid in [w1, w3] {
            check_param_grad(
                &mut store,
                pid,
                |tape| {
                    let x = tape.input(fixed_input(3, 4, 0.3));
                    let a = tape.param(w1);
                    let b = tape.param(w3);
                    let xa = tape.matmul(x, a);
                    let xs = tape.silu(xa);
                    let xb = tape.matmul(x, b);
                    let h = tape.mul(xs, xb);
                    let target = tape.input(fixed_input(3, 6, 0.7));
                    tape.l1_loss(h, target)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_rmsnorm() {
        let mut store = ParamStore::new();
        let gain = store.add_ones("g", 1, 5);
        check_param_grad(
            &mut store,
            gain,
            |tape| {
                let x = tape.input(fixed_input(3, 5, 0.2));
                let g = tape.param(gain);
                let y = tape.rms_norm(x, g);
                let target = tape.input(fixed_input(3, 5, 1.4));
                tape.l1_loss(y, target)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_attention_block() {
        // Full single-head attention: q k^T -> causal softmax -> weights v.
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(3);
        let wq = store.add_xavier("wq", 4, 4, &mut rng);
        let wk = store.add_xavier("wk", 4, 4, &mut rng);
        let wv = store.add_xavier("wv", 4, 4, &mut rng);
        for pid in [wq, wk, wv] {
            check_param_grad(
                &mut store,
                pid,
                |tape| {
                    let x = tape.input(fixed_input(3, 4, 0.5));
                    let q = tape.param(wq);
                    let k = tape.param(wk);
                    let v = tape.param(wv);
                    let xq = tape.matmul(x, q);
                    let xk = tape.matmul(x, k);
                    let xv = tape.matmul(x, v);
                    let scores = tape.matmul_nt(xq, xk);
                    let scaled = tape.scale(scores, 0.5);
                    let attn = tape.causal_softmax(scaled);
                    let out = tape.matmul(attn, xv);
                    let target = tape.input(fixed_input(3, 4, 2.2));
                    tape.l1_loss(out, target)
                },
                3e-2,
            );
        }
    }

    #[test]
    fn grad_bias_and_concat_and_slice() {
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(4);
        let w = store.add_xavier("w", 6, 2, &mut rng);
        let b = store.add_zeros("b", 1, 2);
        for pid in [w, b] {
            check_param_grad(
                &mut store,
                pid,
                |tape| {
                    let x1 = tape.input(fixed_input(3, 2, 0.1));
                    let x2 = tape.input(fixed_input(3, 4, 0.6));
                    let x = tape.concat_cols(x1, x2);
                    let wv = tape.param(w);
                    let bv = tape.param(b);
                    let y = tape.matmul(x, wv);
                    let y = tape.add_bias(y, bv);
                    let last = tape.slice_row(y, 2);
                    let target = tape.input(fixed_input(1, 2, 0.4));
                    tape.l1_loss(last, target)
                },
                2e-2,
            );
        }
    }

    #[test]
    fn causal_softmax_masks_future() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(Tensor::from_vec(
            3,
            3,
            vec![1., 9., 9., 1., 2., 9., 1., 2., 3.],
        ));
        let y = tape.causal_softmax(x);
        let v = tape.value(y);
        // Upper triangle zero; rows sum to 1.
        assert_eq!(v.at(0, 1), 0.0);
        assert_eq!(v.at(0, 2), 0.0);
        assert_eq!(v.at(1, 2), 0.0);
        for r in 0..3 {
            let sum: f32 = (0..3).map(|c| v.at(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_gradient_zero_for_negatives() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::from_vec(1, 2, vec![-1.0, 2.0]));
        let mut grads = store.zero_grads();
        let s = store.clone();
        let mut tape = Tape::new(&s);
        let wv = tape.param(w);
        let y = tape.relu(wv);
        let target = tape.input(Tensor::from_vec(1, 2, vec![5.0, 5.0]));
        let loss = tape.l1_loss(y, target);
        tape.backward(loss, &mut grads);
        assert_eq!(grads[0].data[0], 0.0, "negative input blocks gradient");
        assert!(grads[0].data[1] != 0.0);
    }

    #[test]
    fn reset_recycles_node_buffers() {
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let x = tape.input(fixed_input(2, 3, 0.1));
        let y = tape.relu(x);
        let _ = tape.scale(y, 2.0);
        tape.reset();
        let arena = tape.recycle();
        assert!(
            arena.free_buffers() >= 3,
            "node buffers must return to the arena"
        );
    }
}
