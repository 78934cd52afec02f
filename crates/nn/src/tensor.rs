//! A minimal 2-D tensor: every value in the m3 model is a matrix (a
//! sequence of embeddings `[L, D]`, a feature map `[1, 1000]`, a weight
//! `[in, out]`). Row-major `Vec<f32>` storage, no strides, no views —
//! simplicity over cleverness, per this repo's networking-guide idioms.
//!
//! # Kernel design
//!
//! The matmul kernels are register-blocked over output-column panels of
//! `JB = 64` floats: for one row of `C`, a `[f32; JB]` accumulator panel is
//! loaded once, the whole `k` loop runs against it (one broadcast of
//! `a[i,k]` multiplied and added into the panel per step), and the panel is
//! stored once. The naive ikj loop instead re-loads and re-stores the `C`
//! row on every `k` step — three memory streams per sweep versus one —
//! which is what made it memory-bound. The fixed-size panel is the whole
//! trick: the autovectorizer keeps it in vector registers across the `k`
//! loop. Columns past the last full panel go through fixed 16- and 8-wide
//! sub-panels and then single columns, so no vectorised loop has a run-time
//! trip count. Each output element still accumulates its `k` terms in
//! ascending order from its initial value, so blocked results are
//! bit-identical to the retained scalar reference kernels (see
//! `matmul_into_reference` and the proptest suite).
//!
//! Run-time dispatch: the workspace is built for baseline x86-64, where a
//! 64-float panel is all sixteen `xmm` registers. The kernel source is
//! safe code instantiated three times, and a [`Kernel`] picks one: once
//! per forward call on the inference path (`infer.rs`), once per matmul
//! through [`Tensor::matmul_into`], the tape and training entry (the
//! detection is a cached atomic load, and that entry scans `B` for
//! finiteness per matmul anyway).
//!
//! * *portable*: `gemm_body` (`#[inline(always)]`) as is;
//! * *avx2*: the same `gemm_body` inside an `avx2` `#[target_feature]`
//!   function (a two-row body measured slower there);
//! * *avx512*: `gemm_pairs_body` inside an `avx512f` `#[target_feature]`
//!   function. It runs rows of `A` in pairs through one 64-wide panel
//!   (eight `zmm` accumulators), so each load of a `B` block feeds two
//!   rows instead of one: the weight panel is streamed once per row pair,
//!   not once per row. An odd last row and the column tails run the
//!   one-row panels.
//!
//! `mul_add` is never written, and Rust never contracts `a * b + c` into
//! a fused multiply-add (not even under `avx512f`, which implies the `fma`
//! feature), so on every path every lane is one IEEE
//! multiply and one IEEE add per `k` step, in ascending `k`, independent
//! of its neighbours. Vector width changes how many lanes move per
//! instruction, not what any lane computes. The two-row panel keeps each
//! row's zero-skip exactly: it skips a `k` step only when *both* rows skip
//! it, and when only one row's activation is a skipped zero, that row keeps
//! its accumulator through a branchless select
//! (`x = if keep { x + a·b } else { x }`), so it takes the same terms the
//! one-row panel gives it — which is what keeps it equal to portable under
//! an unsound skip over a poisoned `B` and on a `-0.0` in `C` (skipping
//! only when both rows are zero would add a `0·b` the one-row panel
//! skips). All paths agree bit for bit. (One caveat, as old as the
//! portable kernel: when two NaNs with *different* payloads meet in one
//! add, x86 keeps the first operand's, and operand order is the compiler's
//! choice. A poisoned run is NaN on every path; which NaN is not pinned.)
//!
//! Sparsity fast path: feature maps are mostly exact zeros (empty
//! percentile buckets), so skipping `a[i,k] == 0.0` rows of `B` is a large
//! win — but `0.0 * NaN` must be `NaN`, and an unconditional skip would
//! silently swallow a poisoned weight. The skip is therefore gated on a
//! branchless finiteness scan of `B`: when `B` contains any NaN/Inf the
//! kernel runs dense and the poison propagates IEEE-correctly. When `B` is
//! finite the skipped terms are exact `±0.0` products which provably never
//! change the accumulator (it starts at `+0.0` and `x + ±0.0 == x` for all
//! `x != -0.0`; the accumulator can never become `-0.0` because round-to-
//! nearest only yields `-0.0` from `-0.0 + -0.0`), so gating the skip on
//! finiteness changes no bits.

use std::fmt;

/// Output-column panel width for the register-blocked kernels: one panel
/// of `f32` accumulators (8 AVX2 or 4 AVX-512 vectors' worth) held in
/// registers across the entire `k` loop.
const JB: usize = 64;

/// What every matmul of one forward call shares: which instantiation of
/// the panel kernel runs, and whether the zero-skip is sound (it must only
/// be on when the `B` side is known finite; the inference fast path reads
/// one memoized finiteness flag for all weights).
///
/// The fields are private because the `unsafe` calls into the AVX2 and
/// AVX-512 instantiations rely on `avx2` and `avx512` being set from
/// [`Kernel::detect`] alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel {
    avx2: bool,
    avx512: bool,
    zero_skip: bool,
}

impl Kernel {
    /// The widest instantiation this CPU runs.
    pub fn detect(zero_skip: bool) -> Self {
        #[cfg(target_arch = "x86_64")]
        let (avx2, avx512) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, avx512) = (false, false);
        Kernel {
            avx2,
            avx512,
            zero_skip,
        }
    }

    /// The baseline instantiation, whatever the CPU: what a host without
    /// AVX2 runs. Tests compare it against [`Kernel::detect`].
    #[doc(hidden)]
    pub fn portable(zero_skip: bool) -> Self {
        Kernel {
            avx2: false,
            avx512: false,
            zero_skip,
        }
    }

    /// Every instantiation this CPU runs, narrowest first: portable, then
    /// AVX2 and AVX-512 where detected. [`Kernel::detect`] picks the last
    /// one, so on an AVX-512 host the AVX2 body is reachable only from
    /// here; tests compare each entry against the portable one.
    #[doc(hidden)]
    pub fn instantiations(zero_skip: bool) -> Vec<Self> {
        let widest = Kernel::detect(zero_skip);
        let mut all = vec![Kernel::portable(zero_skip)];
        if widest.avx2 {
            all.push(Kernel {
                avx512: false,
                ..widest
            });
        }
        if widest.avx512 {
            all.push(widest);
        }
        all
    }

    /// `"avx512"`, `"avx2"` or `"portable"`, for bench fingerprints.
    pub fn path(self) -> &'static str {
        if self.avx512 {
            "avx512"
        } else if self.avx2 {
            "avx2"
        } else {
            "portable"
        }
    }
}

/// One `W`-wide panel of one output row, starting at column `jb`: the
/// accumulators start at the row's current values and take `a[k] * b[k, j]`
/// in ascending `k`. `b` has `ldb` floats between consecutive rows.
#[inline(always)]
fn panel<const W: usize>(
    a_row: &[f32],
    b: &[f32],
    ldb: usize,
    jb: usize,
    c_row: &mut [f32],
    zero_skip: bool,
) {
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&c_row[jb..jb + W]);
    for (k, &aik) in a_row.iter().enumerate() {
        if zero_skip && aik == 0.0 {
            continue;
        }
        let b_blk = &b[k * ldb + jb..k * ldb + jb + W];
        for (c, &bv) in acc.iter_mut().zip(b_blk) {
            *c += aik * bv;
        }
    }
    c_row[jb..jb + W].copy_from_slice(&acc);
}

/// Columns `jb..m` of one output row: full panels, then the fixed 16- and
/// 8-wide sub-panels, then single columns.
#[inline(always)]
fn row_panels(
    a_row: &[f32],
    b: &[f32],
    ldb: usize,
    mut jb: usize,
    m: usize,
    c_row: &mut [f32],
    zero_skip: bool,
) {
    while jb + JB <= m {
        panel::<JB>(a_row, b, ldb, jb, c_row, zero_skip);
        jb += JB;
    }
    while jb + 16 <= m {
        panel::<16>(a_row, b, ldb, jb, c_row, zero_skip);
        jb += 16;
    }
    if jb + 8 <= m {
        panel::<8>(a_row, b, ldb, jb, c_row, zero_skip);
        jb += 8;
    }
    while jb < m {
        panel::<1>(a_row, b, ldb, jb, c_row, zero_skip);
        jb += 1;
    }
}

/// The kernel body the portable and AVX2 instantiations share: `C += A * B`,
/// one row of `A` (and `m` floats of `out`) at a time, panels widest first.
#[inline(always)]
fn gemm_body<'a>(
    a_rows: impl Iterator<Item = &'a [f32]>,
    b: &[f32],
    ldb: usize,
    m: usize,
    out: &mut [f32],
    zero_skip: bool,
) {
    for (a_row, c_row) in a_rows.zip(out.chunks_exact_mut(m)) {
        row_panels(a_row, b, ldb, 0, m, c_row, zero_skip);
    }
}

/// One [`JB`]-wide panel of two output rows at once, so each load of a `B`
/// block feeds both rows. A `k` step is skipped when both rows skip it;
/// when only one does, that row keeps its accumulator through a select, so
/// each row takes exactly the terms [`panel`] would give it, one IEEE
/// multiply and one add per lane, in ascending `k`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn panel_pair(
    a0: &[f32],
    a1: &[f32],
    b: &[f32],
    ldb: usize,
    jb: usize,
    c0: &mut [f32],
    c1: &mut [f32],
    zero_skip: bool,
) {
    let mut acc0 = [0.0f32; JB];
    let mut acc1 = [0.0f32; JB];
    acc0.copy_from_slice(&c0[jb..jb + JB]);
    acc1.copy_from_slice(&c1[jb..jb + JB]);
    for (k, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
        let keep0 = !(zero_skip && x0 == 0.0);
        let keep1 = !(zero_skip && x1 == 0.0);
        if !keep0 && !keep1 {
            continue;
        }
        let b_blk = &b[k * ldb + jb..k * ldb + jb + JB];
        for ((s0, s1), &bv) in acc0.iter_mut().zip(acc1.iter_mut()).zip(b_blk) {
            let (t0, t1) = (*s0 + x0 * bv, *s1 + x1 * bv);
            *s0 = if keep0 { t0 } else { *s0 };
            *s1 = if keep1 { t1 } else { *s1 };
        }
    }
    c0[jb..jb + JB].copy_from_slice(&acc0);
    c1[jb..jb + JB].copy_from_slice(&acc1);
}

/// The AVX-512 kernel body: rows of `A` in pairs through [`panel_pair`]
/// over the full panels, each row's column tail through [`row_panels`];
/// an odd last row runs [`row_panels`] alone.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn gemm_pairs_body<'a>(
    a_rows: impl Iterator<Item = &'a [f32]>,
    b: &[f32],
    ldb: usize,
    m: usize,
    out: &mut [f32],
    zero_skip: bool,
) {
    let full = m / JB * JB;
    let mut rows = a_rows.zip(out.chunks_exact_mut(m));
    while let Some((a0, c0)) = rows.next() {
        let Some((a1, c1)) = rows.next() else {
            row_panels(a0, b, ldb, 0, m, c0, zero_skip);
            break;
        };
        assert_eq!(a0.len(), a1.len(), "matmul inner dims");
        for jb in (0..full).step_by(JB) {
            panel_pair(a0, a1, b, ldb, jb, c0, c1, zero_skip);
        }
        row_panels(a0, b, ldb, full, m, c0, zero_skip);
        row_panels(a1, b, ldb, full, m, c1, zero_skip);
    }
}

/// [`gemm_body`] compiled with 256-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2<'a>(
    a_rows: impl Iterator<Item = &'a [f32]>,
    b: &[f32],
    ldb: usize,
    m: usize,
    out: &mut [f32],
    zero_skip: bool,
) {
    gemm_body(a_rows, b, ldb, m, out, zero_skip);
}

/// [`gemm_pairs_body`] compiled with 512-bit vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512<'a>(
    a_rows: impl Iterator<Item = &'a [f32]>,
    b: &[f32],
    ldb: usize,
    m: usize,
    out: &mut [f32],
    zero_skip: bool,
) {
    gemm_pairs_body(a_rows, b, ldb, m, out, zero_skip);
}

/// `C += A * B` over slices: `a_rows` yields the rows of `A`, row `k` of
/// `B` is `b[k * ldb..][..m]` (so `B` may be a column range of a wider
/// matrix), and `out` is `[rows, m]` row-major. Out-of-range operands
/// panic on the slice bounds.
pub(crate) fn gemm<'a>(
    kern: Kernel,
    a_rows: impl Iterator<Item = &'a [f32]>,
    b: &[f32],
    ldb: usize,
    m: usize,
    out: &mut [f32],
) {
    if m == 0 {
        return;
    }
    assert!(ldb >= m, "matmul B row stride");
    #[cfg(target_arch = "x86_64")]
    if kern.avx512 {
        // SAFETY: `gemm_avx512` is safe code whose only requirement is
        // that the CPU supports AVX-512F. `Kernel`'s fields are private and
        // `avx512` is set only from `Kernel::detect`'s
        // `is_x86_feature_detected!("avx512f")` (`Kernel::instantiations`
        // copies a detected kernel).
        return unsafe { gemm_avx512(a_rows, b, ldb, m, out, kern.zero_skip) };
    }
    #[cfg(target_arch = "x86_64")]
    if kern.avx2 {
        // SAFETY: `gemm_avx2` is safe code whose only requirement is that
        // the CPU supports AVX2. `Kernel`'s fields are private and `avx2`
        // is set only from `Kernel::detect`'s
        // `is_x86_feature_detected!("avx2")` (`Kernel::instantiations`
        // copies a detected kernel).
        return unsafe { gemm_avx2(a_rows, b, ldb, m, out, kern.zero_skip) };
    }
    gemm_body(a_rows, b, ldb, m, out, kern.zero_skip);
}

/// Typed construction errors (shape arithmetic is checked so overflow
/// behaves identically in debug and release, matching the hardened
/// checkpoint-load path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// `rows * cols` overflows `usize`.
    ShapeOverflow { rows: usize, cols: usize },
    /// Provided buffer length does not match `rows * cols`.
    DataLenMismatch {
        rows: usize,
        cols: usize,
        len: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeOverflow { rows, cols } => {
                write!(f, "tensor shape {rows}x{cols} overflows usize")
            }
            TensorError::DataLenMismatch { rows, cols, len } => {
                write!(
                    f,
                    "tensor shape {rows}x{cols} expects {} values, got {len}",
                    { rows.saturating_mul(*cols) }
                )
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    /// Checked constructor: rejects shapes whose element count overflows.
    pub fn try_zeros(rows: usize, cols: usize) -> Result<Self, TensorError> {
        let n = rows
            .checked_mul(cols)
            .ok_or(TensorError::ShapeOverflow { rows, cols })?;
        Ok(Tensor {
            rows,
            cols,
            data: vec![0.0; n],
        })
    }

    pub fn zeros(rows: usize, cols: usize) -> Self {
        match Tensor::try_zeros(rows, cols) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked constructor from an existing buffer.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        let n = rows
            .checked_mul(cols)
            .ok_or(TensorError::ShapeOverflow { rows, cols })?;
        if data.len() != n {
            return Err(TensorError::DataLenMismatch {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        match Tensor::try_from_vec(rows, cols, data) {
            Ok(t) => t,
            Err(e) => panic!("shape/data mismatch: {e}"),
        }
    }

    pub fn row_vector(data: Vec<f32>) -> Self {
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// C = A * B (`[n,k] x [k,m] -> [n,m]`), accumulating into `out`.
    /// Register-blocked on the widest kernel the CPU runs; the zero-skip is
    /// gated on `B` being finite (see the module docs for why that is
    /// required for IEEE NaN propagation and why it cannot change any
    /// bits).
    pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        Tensor::matmul_into_gated(a, b, out, Kernel::detect(all_finite(&b.data)));
    }

    /// Blocked kernel with the caller choosing the [`Kernel`]: the
    /// instantiation, and whether the zero-skip is sound.
    pub fn matmul_into_gated(a: &Tensor, b: &Tensor, out: &mut Tensor, kern: Kernel) {
        assert_eq!(a.cols, b.rows, "matmul inner dims");
        assert_eq!((out.rows, out.cols), (a.rows, b.cols));
        if a.cols == 0 {
            return;
        }
        let a_rows = a.data.chunks_exact(a.cols);
        gemm(kern, a_rows, &b.data, b.cols, b.cols, &mut out.data);
    }

    /// Retained scalar reference kernel (pre-blocking ikj loop). The
    /// proptest suite asserts the blocked kernel matches this bit-for-bit;
    /// the hotpath bench uses it as the "before" implementation.
    pub fn matmul_into_reference(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(a.cols, b.rows, "matmul inner dims");
        assert_eq!((out.rows, out.cols), (a.rows, b.cols));
        let zero_skip = all_finite(&b.data);
        for i in 0..a.rows {
            let c_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for k in 0..a.cols {
                let aik = a.data[i * a.cols + k];
                if zero_skip && aik == 0.0 {
                    continue;
                }
                let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c += aik * bv;
                }
            }
        }
    }

    /// C = rows(A) * B where A is given as a slice of row buffers (each of
    /// length `b.rows`). Identical arithmetic to [`Tensor::matmul_into_gated`]
    /// on the stacked matrix, without materialising the stack — this is the
    /// batching primitive that lets `predict_batch` consume per-hop feature
    /// maps in place (no O(L·D) copy).
    pub fn matmul_rows_into_gated(a_rows: &[Vec<f32>], b: &Tensor, out: &mut Tensor, kern: Kernel) {
        for r in a_rows {
            assert_eq!(r.len(), b.rows, "matmul inner dims");
        }
        assert_eq!((out.rows, out.cols), (a_rows.len(), b.cols));
        let a_rows = a_rows.iter().map(Vec::as_slice);
        gemm(kern, a_rows, &b.data, b.cols, b.cols, &mut out.data);
    }

    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        Tensor::matmul_into(a, b, &mut out);
        out
    }

    /// Stack row vectors (each `[1, cols]`) into one `[n, cols]` matrix.
    ///
    /// This is the batching primitive: because [`Tensor::matmul_into`]
    /// computes each output row from the matching input row alone, with a
    /// fixed k-accumulation order, `matmul(stack_rows(xs), w)` is
    /// bit-for-bit identical to stacking the per-row `matmul(x, w)`
    /// results.
    pub fn stack_rows(rows: &[&Tensor]) -> Tensor {
        assert!(!rows.is_empty(), "stack_rows: empty input");
        let cols = rows[0].cols;
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.rows, 1, "stack_rows expects row vectors");
            assert_eq!(r.cols, cols, "stack_rows width mismatch");
            data.extend_from_slice(&r.data);
        }
        Tensor::from_vec(rows.len(), cols, data)
    }

    /// Copy of one row as a `[1, cols]` tensor.
    pub fn row(&self, r: usize) -> Tensor {
        assert!(r < self.rows, "row out of range");
        Tensor::from_vec(
            1,
            self.cols,
            self.data[r * self.cols..(r + 1) * self.cols].to_vec(),
        )
    }

    /// Borrow one row as a slice (no copy).
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// C = A * B^T (`[n,k] x [m,k]^T -> [n,m]`), accumulating into `out`.
    pub fn matmul_nt_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(a.cols, b.cols, "matmul_nt inner dims");
        assert_eq!((out.rows, out.cols), (a.rows, b.rows));
        for i in 0..a.rows {
            for j in 0..b.rows {
                out.data[i * b.rows + j] += dot(a.row_slice(i), b.row_slice(j));
            }
        }
    }

    /// C = A^T * B (`[k,n]^T x [k,m] -> [n,m]`), accumulating into `out`.
    /// The zero-skip is finite-gated exactly like [`Tensor::matmul_into`].
    pub fn matmul_tn_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
        assert_eq!(a.rows, b.rows, "matmul_tn inner dims");
        assert_eq!((out.rows, out.cols), (a.cols, b.cols));
        let zero_skip = all_finite(&b.data);
        for k in 0..a.rows {
            let a_row = &a.data[k * a.cols..(k + 1) * a.cols];
            let b_row = &b.data[k * b.cols..(k + 1) * b.cols];
            for (i, &av) in a_row.iter().enumerate() {
                if zero_skip && av == 0.0 {
                    continue;
                }
                let c_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c += av * bv;
                }
            }
        }
    }
}

/// The dot product of [`Tensor::matmul_nt_into`]: one left-to-right sum,
/// shared with the inference fast path's attention scores so both round
/// identically.
#[inline]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Branchless finiteness scan: OR-reduces the "exponent is all ones" bit of
/// every element, which the autovectorizer turns into a wide integer
/// reduction (no FP compares, no short-circuit branches).
#[inline]
pub fn all_finite(xs: &[f32]) -> bool {
    let mut acc = 0u32;
    for v in xs {
        acc |= ((v.to_bits() & 0x7f80_0000) == 0x7f80_0000) as u32;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = Tensor::matmul(&a, &b);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_matches_matmul() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        // b = [[7,9,11],[8,10,12]] so that b^T equals the b above.
        let b = Tensor::from_vec(2, 3, vec![7., 9., 11., 8., 10., 12.]);
        let mut c = Tensor::zeros(2, 2);
        Tensor::matmul_nt_into(&a, &b, &mut c);
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_matches_matmul() {
        // a^T where a is [3,2]: compare against direct matmul of transpose.
        let a = Tensor::from_vec(3, 2, vec![1., 4., 2., 5., 3., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let mut c = Tensor::zeros(2, 2);
        Tensor::matmul_tn_into(&a, &b, &mut c);
        // a^T = [[1,2,3],[4,5,6]]
        assert_eq!(c.data, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn batched_matmul_rows_bit_identical() {
        // The property predict_batch relies on: stacking rows and doing one
        // matmul gives exactly the same bits as one matmul per row.
        let w = Tensor::from_vec(3, 4, (0..12).map(|i| ((i as f32) * 0.71).sin()).collect());
        let rows: Vec<Tensor> = (0..5)
            .map(|r| {
                Tensor::row_vector((0..3).map(|c| ((r * 3 + c) as f32 * 0.33).cos()).collect())
            })
            .collect();
        let stacked = Tensor::stack_rows(&rows.iter().collect::<Vec<_>>());
        let batched = Tensor::matmul(&stacked, &w);
        for (r, row) in rows.iter().enumerate() {
            let single = Tensor::matmul(row, &w);
            let got: Vec<u32> = batched.row(r).data.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = single.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        Tensor::matmul(&a, &b);
    }

    #[test]
    fn try_zeros_rejects_overflowing_shape() {
        let e = Tensor::try_zeros(usize::MAX, 2).unwrap_err();
        assert_eq!(
            e,
            TensorError::ShapeOverflow {
                rows: usize::MAX,
                cols: 2
            }
        );
        assert!(e.to_string().contains("overflows"));
    }

    #[test]
    fn try_from_vec_rejects_overflow_and_len_mismatch() {
        assert_eq!(
            Tensor::try_from_vec(usize::MAX, 4, vec![0.0]).unwrap_err(),
            TensorError::ShapeOverflow {
                rows: usize::MAX,
                cols: 4
            }
        );
        assert_eq!(
            Tensor::try_from_vec(2, 2, vec![0.0; 3]).unwrap_err(),
            TensorError::DataLenMismatch {
                rows: 2,
                cols: 2,
                len: 3
            }
        );
        assert!(Tensor::try_from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn nan_in_weight_propagates_through_zero_activation() {
        // 0 * NaN must be NaN: a zero activation row may not mask a
        // poisoned weight (the pre-fix kernel skipped aik == 0.0
        // unconditionally and emitted a clean-looking zero).
        let a = Tensor::from_vec(1, 2, vec![0.0, 0.0]);
        let b = Tensor::from_vec(2, 2, vec![1.0, f32::NAN, 2.0, 3.0]);
        let c = Tensor::matmul(&a, &b);
        assert!(
            c.data.iter().any(|v| v.is_nan()),
            "NaN swallowed: {:?}",
            c.data
        );

        // Same property for the transposed kernel: A^T has a zero column.
        let bt = Tensor::from_vec(1, 2, vec![f32::NAN, 3.0]);
        let mut out = Tensor::zeros(2, 2);
        Tensor::matmul_tn_into(&a, &bt, &mut out);
        assert!(out.data.iter().any(|v| v.is_nan()));

        // Inf is equally non-skippable (0 * Inf = NaN).
        let binf = Tensor::from_vec(2, 1, vec![f32::INFINITY, 1.0]);
        let cinf = Tensor::matmul(&a, &binf);
        assert!(
            cinf.data[0].is_nan(),
            "0*Inf must be NaN, got {}",
            cinf.data[0]
        );
    }

    #[test]
    fn finite_gated_skip_is_bit_identical_to_dense() {
        // With a finite B, skipping zero activations changes no bits.
        let a = Tensor::from_vec(2, 3, vec![0.0, -2.0, 0.0, 1.5, 0.0, -0.0]);
        let b = Tensor::from_vec(3, 2, vec![0.3, -0.7, 1.1, 0.0, -2.2, 5.0]);
        let skipped = Tensor::matmul(&a, &b);
        let mut dense = Tensor::zeros(2, 2);
        Tensor::matmul_into_gated(&a, &b, &mut dense, Kernel::detect(false));
        let sb: Vec<u32> = skipped.data.iter().map(|v| v.to_bits()).collect();
        let db: Vec<u32> = dense.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, db);
    }

    #[test]
    fn all_finite_flags_every_poison() {
        assert!(all_finite(&[0.0, -1.5, 3.4e38]));
        assert!(!all_finite(&[0.0, f32::NAN]));
        assert!(!all_finite(&[f32::INFINITY]));
        assert!(!all_finite(&[f32::NEG_INFINITY, 1.0]));
        assert!(all_finite(&[]));
    }
}
