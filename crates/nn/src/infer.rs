//! No-tape inference fast path.
//!
//! [`crate::tape::Tape`]-based prediction records a graph node (and clones
//! every parameter tensor it touches) purely to enable `backward` — dead
//! weight for inference. This module re-implements the forward pass as
//! straight-line code over the same kernels:
//!
//! * parameters are read by reference from the [`crate::params::ParamStore`],
//! * every intermediate draws from a [`TensorArena`] (zero steady-state
//!   allocation after warmup),
//! * per layer, the `wq`/`wk`/`wv` weights of all heads are packed side by
//!   side into one `[embed, 3·embed]` matrix, once per call (every chunk
//!   of a pooled call borrows it read-only), so Q, K and V of every head
//!   come from one full-panel matmul; heads read their `dh`-column slices
//!   of the product. Column `j` of the packed product is the same
//!   ascending-`k` dot product as column `j` of the per-head product.
//!   `wo` stays per head: the heads' projections combine by the
//!   left-to-right fold `((p0 + p1) + p2) + p3`, which is not the
//!   association one `[embed, embed]` matmul would produce,
//! * only what reaches the output is computed: the output reads row
//!   `l - 1` of the last layer, so that layer runs `norm1` and the QKV
//!   matmul over every row (the last query attends to every row's K and
//!   V) and everything after them — scores, softmax, `attn·V`, `wo`, the
//!   residuals, `norm2`, the SwiGLU feed-forward and the final norm — over
//!   row `l - 1` alone. Every pruned op is row-local, so that row's bits
//!   are unchanged; the tape still computes every row and is the oracle,
//! * the SwiGLU gate is fused into one elementwise pass
//!   (`silu(a) * b`, same two multiplies in the same order as the chained
//!   `silu` + `mul` tape ops),
//! * one [`Kernel`] per call: the panel-kernel instantiation is detected
//!   once, and the sparsity zero-skip is gated on the store's memoized
//!   finiteness flag instead of per-matmul scans,
//! * one parallel section over fixed chunks of 8 samples (`CHUNK_SAMPLES`):
//!   the `rayon` workers claim chunks one at a time, each with an arena
//!   from the pool, and run `forward_chunk` — contexts *and* the MLP head —
//!   on it, so a worker that drew short sequences claims more chunks
//!   instead of idling behind a static split.
//!
//! Bit-identity with the tape path holds by construction: matmuls call the
//! same blocked kernels on the same operand values, and the elementwise
//! stages (`rms_norm_into`, `causal_softmax_into`, bias/residual adds,
//! SiLU) are either shared helpers or replicate the tape ops' exact
//! per-element expressions, and each row of a pruned op is computed as the
//! tape computes it. `predict_batch_bit_identical_to_predict` and the
//! proptest suite (`tests/prop.rs`) verify this against the retained
//! tape-based reference implementations in `model.rs`.

use crate::arena::{ArenaPool, TensorArena};
use crate::model::{M3Net, SampleInput};
use crate::tape::{causal_softmax_into, rms_norm_into, sigmoid};
use crate::tensor::{dot, gemm, Kernel, Tensor};
use rayon::prelude::*;

/// Samples per chunk of [`M3Net::predict_batch_pooled`]: small enough that
/// a batch of a few dozen samples keeps every worker busy until the end,
/// large enough that the MLP head still runs as a batched matmul.
const CHUNK_SAMPLES: usize = 8;

/// Reusable scratch for the sequential batched forward pass. Hold one per
/// call site and the second call performs zero heap allocations.
#[derive(Debug, Default)]
pub struct InferScratch {
    arena: TensorArena,
}

impl InferScratch {
    pub fn new() -> Self {
        InferScratch::default()
    }
}

impl M3Net {
    /// The [`Kernel`] of one forward call: CPU detection and the store's
    /// memoized finiteness flag, both read once here and not per matmul.
    fn kernel(&self) -> Kernel {
        Kernel::detect(self.store.all_finite())
    }

    /// Every layer's packed QKV weight, stacked: rows
    /// `[li * embed, (li + 1) * embed)` are layer `li`'s `[embed, 3·embed]`
    /// matrix, whose columns are `wq` of heads `0..`, then `wk`, then `wv`
    /// (head `h` of each third at column `h * dh`).
    ///
    /// Runs once per forward call, and every chunk of a pooled call borrows
    /// the result read-only, so a call copies `layers · 3 · embed²` floats
    /// whatever the batch size and worker count: 96 KiB and 0.01 ms for
    /// `repro_default`, 15 MiB and 2.2 ms for `paper_scale` — there a
    /// quarter of a single-sample `predict` (7.9 ms), noise from a few
    /// dozen samples on. Packing at load time instead would be a cache
    /// keyed on the store's content, invalidated by every training step.
    fn pack_qkv(&self, arena: &mut TensorArena) -> Tensor {
        let embed = self.cfg.embed;
        let dh = self.cfg.head_dim();
        let mut packed = arena.take(self.layers.len() * embed, 3 * embed);
        for (li, layer) in self.layers.iter().enumerate() {
            for (third, ids) in [&layer.wq, &layer.wk, &layer.wv].into_iter().enumerate() {
                for (h, &id) in ids.iter().enumerate() {
                    let w = self.store.get(id);
                    let col = third * embed + h * dh;
                    for r in 0..embed {
                        let at = (li * embed + r) * 3 * embed + col;
                        packed.data[at..at + dh].copy_from_slice(w.row_slice(r));
                    }
                }
            }
        }
        packed
    }

    /// Transformer context of one sample written into `out` (`[embed]`),
    /// mirroring the tape-built graph in `M3Net::context` op for op on
    /// every value that reaches row `l - 1` of the final norm, the only row
    /// the output reads. `qkv_w` is [`M3Net::pack_qkv`]'s matrix.
    fn context_into(
        &self,
        sample: &SampleInput,
        qkv_w: &Tensor,
        arena: &mut TensorArena,
        kern: Kernel,
        out: &mut [f32],
    ) {
        let embed = self.cfg.embed;
        debug_assert_eq!(out.len(), embed);
        if !sample.use_context || sample.bg.is_empty() {
            out.fill(0.0);
            return;
        }
        let l = sample.bg.len().min(self.cfg.block);
        for hop in sample.bg.iter().take(l) {
            assert_eq!(hop.len(), self.cfg.feat_dim, "background map width");
        }

        // x = bg · proj_w, consumed straight from the per-hop buffers (no
        // stack_rows copy), then bias and learned positions. The tape's
        // one-hot selector matmul reduces to the first `l` rows of `pos`.
        let mut x = arena.take(l, embed);
        Tensor::matmul_rows_into_gated(&sample.bg[..l], self.store.get(self.proj_w), &mut x, kern);
        {
            let bias = self.store.get(self.proj_b);
            let pos = self.store.get(self.pos);
            for r in 0..l {
                let row = &mut x.data[r * embed..(r + 1) * embed];
                for ((v, &b), &p) in row.iter_mut().zip(&bias.data).zip(pos.row_slice(r)) {
                    *v = (*v + b) + p;
                }
            }
        }

        let (dh, ff_hidden) = (self.cfg.head_dim(), self.cfg.ff_hidden);
        let scale = 1.0 / (dh as f32).sqrt();
        let e3 = 3 * embed;
        // Scratch of every layer and head, taken once. The matmul kernels
        // accumulate, so their outputs are re-zeroed before each use;
        // `scores` is overwritten where it is read; `attn` is zeroed here
        // only: `causal_softmax_into` rewrites the lower triangle and never
        // touches the upper one.
        let mut normed = arena.take(l, embed);
        let mut qkv = arena.take(l, e3);
        let mut scores = arena.take(l, l);
        let mut attn = arena.take(l, l);
        let mut out_h = arena.take(l, dh);
        let mut proj = arena.take(l, embed);
        let mut attn_acc = arena.take(l, embed);
        let mut a = arena.take(l, ff_hidden);
        let mut b = arena.take(l, ff_hidden);
        let mut ff = arena.take(l, embed);
        for (li, layer) in self.layers.iter().enumerate() {
            // Rows `r0..l` are the ones this layer must produce. The last
            // layer's output is read at row `l - 1` only, and every op
            // but the attention's K and V is row-local, so there `norm1`
            // and the QKV matmul run over every row (the last query attends
            // to all of them) and everything after them over row `l - 1`.
            let r0 = if li + 1 == self.layers.len() {
                l - 1
            } else {
                0
            };

            // Attention sublayer: Q, K and V of all heads in one matmul.
            rms_norm_into(&x.data, &self.store.get(layer.norm1).data, &mut normed.data);
            qkv.data.fill(0.0);
            let w = &qkv_w.data[li * embed * e3..(li + 1) * embed * e3];
            gemm(
                kern,
                normed.data.chunks_exact(embed),
                w,
                e3,
                e3,
                &mut qkv.data,
            );
            for h in 0..self.cfg.heads {
                let (q_col, k_col, v_col) = (h * dh, embed + h * dh, 2 * embed + h * dh);
                // Causal: the softmax reads row `i` up to column `i` only.
                for i in r0..l {
                    let q = &qkv.data[i * e3 + q_col..][..dh];
                    for j in 0..=i {
                        let k = &qkv.data[j * e3 + k_col..][..dh];
                        // `0.0 +` is the tape's accumulate-into-zeros; it
                        // turns a `-0.0` dot product into `+0.0`.
                        scores.data[i * l + j] = (0.0 + dot(q, k)) * scale;
                    }
                }
                causal_softmax_into(&scores.data, l, r0, &mut attn.data);
                // attn · V_h, with V_h read in place as a column range of
                // the packed product.
                out_h.data[r0 * dh..].fill(0.0);
                let v = &qkv.data[v_col..];
                let attn_rows = from_row(&attn, r0).chunks_exact(l);
                gemm(kern, attn_rows, v, e3, dh, &mut out_h.data[r0 * dh..]);
                // Heads combine left to right, matching the tape's fold:
                // head 0 lands in the zeroed accumulator, later heads in
                // `proj` and are then added.
                let wo = &self.store.get(layer.wo[h]).data;
                let dst = if h == 0 { &mut attn_acc } else { &mut proj };
                dst.data[r0 * embed..].fill(0.0);
                let head_rows = from_row(&out_h, r0).chunks_exact(dh);
                gemm(
                    kern,
                    head_rows,
                    wo,
                    embed,
                    embed,
                    &mut dst.data[r0 * embed..],
                );
                if h > 0 {
                    for (acc, &p) in attn_acc.data[r0 * embed..]
                        .iter_mut()
                        .zip(from_row(&proj, r0))
                    {
                        *acc += p;
                    }
                }
            }
            for (xv, &a) in x.data[r0 * embed..].iter_mut().zip(from_row(&attn_acc, r0)) {
                *xv += a;
            }

            // SwiGLU feed-forward sublayer, gate fused into one pass.
            let norm2 = &self.store.get(layer.norm2).data;
            rms_norm_into(from_row(&x, r0), norm2, &mut normed.data[r0 * embed..]);
            a.data[r0 * ff_hidden..].fill(0.0);
            b.data[r0 * ff_hidden..].fill(0.0);
            for (w, dst) in [(layer.w1, &mut a), (layer.w3, &mut b)] {
                let normed_rows = from_row(&normed, r0).chunks_exact(embed);
                let w = &self.store.get(w).data;
                gemm(
                    kern,
                    normed_rows,
                    w,
                    ff_hidden,
                    ff_hidden,
                    &mut dst.data[r0 * ff_hidden..],
                );
            }
            for (av, &bv) in a.data[r0 * ff_hidden..].iter_mut().zip(from_row(&b, r0)) {
                let xv = *av;
                *av = (xv * sigmoid(xv)) * bv;
            }
            ff.data[r0 * embed..].fill(0.0);
            let w2 = &self.store.get(layer.w2).data;
            let gated_rows = from_row(&a, r0).chunks_exact(ff_hidden);
            gemm(
                kern,
                gated_rows,
                w2,
                embed,
                embed,
                &mut ff.data[r0 * embed..],
            );
            for (xv, &f) in x.data[r0 * embed..].iter_mut().zip(from_row(&ff, r0)) {
                *xv += f;
            }
        }

        let last = &x.data[(l - 1) * embed..];
        rms_norm_into(last, &self.store.get(self.final_norm).data, out);
        for t in [
            x, normed, qkv, scores, attn, out_h, proj, attn_acc, a, b, ff,
        ] {
            arena.give(t);
        }
    }

    /// The whole forward pass over one contiguous run of samples —
    /// contexts, then the batched MLP head over the rows
    /// `[fg ∥ context ∥ spec]` — writing sample `i`'s output into `out[i]`.
    /// `qkv_w` is [`M3Net::pack_qkv`]'s matrix, packed once per call and
    /// shared by every chunk. Every output row depends on its own sample
    /// alone, so how a batch is cut into chunks changes no bits.
    fn forward_chunk(
        &self,
        samples: &[SampleInput],
        qkv_w: &Tensor,
        arena: &mut TensorArena,
        kern: Kernel,
        out: &mut [Vec<f32>],
    ) {
        let (feat, embed) = (self.cfg.feat_dim, self.cfg.embed);
        let mlp_in = feat + embed + self.cfg.spec_dim;
        let mut joined = arena.take(samples.len(), mlp_in);
        for (s, row) in samples.iter().zip(joined.data.chunks_exact_mut(mlp_in)) {
            row[..feat].copy_from_slice(&s.fg);
            self.context_into(s, qkv_w, arena, kern, &mut row[feat..feat + embed]);
            row[feat + embed..].copy_from_slice(&s.spec);
        }

        let mut h = arena.take(samples.len(), self.cfg.mlp_hidden);
        Tensor::matmul_into_gated(&joined, self.store.get(self.mlp_w1), &mut h, kern);
        let b1 = self.store.get(self.mlp_b1);
        for row in h.data.chunks_exact_mut(self.cfg.mlp_hidden) {
            for (v, &b) in row.iter_mut().zip(&b1.data) {
                *v = (*v + b).max(0.0);
            }
        }
        let mut o = arena.take(samples.len(), self.cfg.out_dim);
        Tensor::matmul_into_gated(&h, self.store.get(self.mlp_w2), &mut o, kern);
        let b2 = self.store.get(self.mlp_b2);
        for (dst, row) in out.iter_mut().zip(o.data.chunks_exact(self.cfg.out_dim)) {
            dst.clear();
            dst.extend(row.iter().zip(&b2.data).map(|(&v, &b)| v + b));
        }
        for t in [joined, h, o] {
            arena.give(t);
        }
    }

    fn check_sample_widths(&self, samples: &[SampleInput]) {
        for s in samples {
            assert_eq!(s.fg.len(), self.cfg.feat_dim, "foreground map width");
            assert_eq!(s.spec.len(), self.cfg.spec_dim, "spec vector width");
        }
    }

    /// Inference: run the forward pass and return the output vector.
    /// Bit-identical to the retained tape path ([`M3Net::predict_reference`]).
    pub fn predict(&self, sample: &SampleInput) -> Vec<f32> {
        let mut scratch = InferScratch::new();
        let mut out = Vec::new();
        self.predict_batch_into(std::slice::from_ref(sample), &mut scratch, &mut out);
        out.pop().unwrap_or_default()
    }

    /// Sequential batched inference into reused buffers: with a warm
    /// `scratch` and `out`, a repeat call over the same shapes performs
    /// zero heap allocations (asserted by `tests/alloc.rs`).
    pub fn predict_batch_into(
        &self,
        samples: &[SampleInput],
        scratch: &mut InferScratch,
        out: &mut Vec<Vec<f32>>,
    ) {
        self.predict_batch_into_on(self.kernel(), samples, scratch, out);
    }

    /// [`M3Net::predict_batch_into`] on the baseline kernel instantiation,
    /// whatever the CPU: how tests run, on an AVX2 or AVX-512 host, the
    /// forward pass of a host without either.
    #[doc(hidden)]
    pub fn predict_batch_into_portable(
        &self,
        samples: &[SampleInput],
        scratch: &mut InferScratch,
        out: &mut Vec<Vec<f32>>,
    ) {
        let kern = Kernel::portable(self.store.all_finite());
        self.predict_batch_into_on(kern, samples, scratch, out);
    }

    fn predict_batch_into_on(
        &self,
        kern: Kernel,
        samples: &[SampleInput],
        scratch: &mut InferScratch,
        out: &mut Vec<Vec<f32>>,
    ) {
        self.check_sample_widths(samples);
        out.resize_with(samples.len(), Vec::new);
        if !samples.is_empty() {
            let arena = &mut scratch.arena;
            let qkv_w = self.pack_qkv(arena);
            self.forward_chunk(samples, &qkv_w, arena, kern, out);
            arena.give(qkv_w);
        }
    }

    /// Batched inference: one output vector per sample, bit-for-bit equal
    /// to calling [`M3Net::predict`] on each sample individually.
    pub fn predict_batch(&self, samples: &[SampleInput]) -> Vec<Vec<f32>> {
        self.predict_batch_pooled(samples, &ArenaPool::new())
    }

    /// [`M3Net::predict_batch`] drawing all scratch from a caller-held
    /// [`ArenaPool`], so repeated estimates reuse warm buffers. The QKV
    /// weights are packed once; the batch is cut into chunks of 8 samples
    /// (`CHUNK_SAMPLES`), which the `rayon` workers claim one at a time,
    /// each running the whole forward pass on its chunk with an arena from
    /// the pool; the vendored rayon returns the chunks' outputs in order.
    pub fn predict_batch_pooled(&self, samples: &[SampleInput], pool: &ArenaPool) -> Vec<Vec<f32>> {
        if samples.is_empty() {
            return Vec::new();
        }
        self.check_sample_widths(samples);
        let kern = self.kernel();
        let mut arena = pool.take();
        let qkv_w = self.pack_qkv(&mut arena);
        let chunks: Vec<&[SampleInput]> = samples.chunks(CHUNK_SAMPLES).collect();
        let parts: Vec<Vec<Vec<f32>>> = chunks
            .par_iter()
            .map(|part| {
                let mut arena = pool.take();
                let mut rows = vec![Vec::new(); part.len()];
                self.forward_chunk(part, &qkv_w, &mut arena, kern, &mut rows);
                pool.put(arena);
                rows
            })
            .collect();
        arena.give(qkv_w);
        pool.put(arena);
        parts.into_iter().flatten().collect()
    }
}

/// Rows `r..` of `t`, as one slice.
fn from_row(t: &Tensor, r: usize) -> &[f32] {
    &t.data[r * t.cols..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::{sample, tiny_cfg};
    use crate::model::ModelConfig;

    /// The zero-skip gate is a memo now: a NaN planted after a forward
    /// call has cached "finite" must clear it, or a zero activation would
    /// swallow the poison (`0 * NaN` skipped instead of NaN).
    #[test]
    fn planted_nan_clears_the_memo_and_propagates_through_zero_activations() {
        let mut net = M3Net::new(tiny_cfg(), 9);
        let s = sample(3, &net.cfg);
        assert!(net.predict(&s).iter().all(|v| v.is_finite()));
        assert!(net.store.all_finite());
        // Every hidden unit far below zero: the ReLU output is all exact
        // zeros, so the output layer sees nothing but zero activations.
        net.store.get_mut(net.mlp_b1).data.fill(-1e6);
        assert!(net.predict(&s).iter().all(|v| v.is_finite()));
        net.store.get_mut(net.mlp_w2).data[0] = f32::NAN;
        assert!(!net.store.all_finite());
        let out = net.predict(&s);
        assert!(out[0].is_nan(), "NaN swallowed: {out:?}");
        assert!(out[1..].iter().all(|v| v.is_finite()));
        assert!(net.clone().predict(&s)[0].is_nan(), "clone lost the flag");
    }

    /// In a one-layer pass row 0 reaches the last row only through the
    /// pruned layer's K and V, so a NaN planted in hop 0's background map
    /// must still poison the context. The context is checked rather than
    /// the output: the head's ReLU (`NaN.max(0.0) == 0.0`) swallows a NaN,
    /// on the tape as here.
    #[test]
    fn nan_in_hop_0_reaches_the_context_through_the_last_layer() {
        let cfg = ModelConfig {
            layers: 1,
            ..tiny_cfg()
        };
        let net = M3Net::new(cfg, 9);
        let mut s = sample(net.cfg.block, &net.cfg);
        s.bg[0][3] = f32::NAN;
        let mut arena = TensorArena::new();
        let qkv_w = net.pack_qkv(&mut arena);
        let mut ctx = vec![0.0; net.cfg.embed];
        net.context_into(&s, &qkv_w, &mut arena, net.kernel(), &mut ctx);
        assert!(ctx.iter().all(|v| v.is_nan()), "NaN lost: {ctx:?}");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&net.predict(&s)), bits(&net.predict_reference(&s)));
    }

    /// Child half of `pooled_forward_is_bit_identical_at_1_2_and_4_workers`:
    /// checks the pooled batch against per-sample `predict` and prints the
    /// worker count with a digest of every output bit. 56 samples are
    /// seven `CHUNK_SAMPLES` chunks, several per worker at 2 and 4.
    #[test]
    #[ignore = "run by pooled_forward_is_bit_identical_at_1_2_and_4_workers, which sets RAYON_NUM_THREADS"]
    fn print_worker_count_and_forward_digest() {
        let net = M3Net::new(tiny_cfg(), 9);
        let hops = [0usize, 1, 3, 6, 2, 4, 9, 5, 1, 2, 6];
        let samples: Vec<SampleInput> = (0..56)
            .map(|i| {
                let mut s = sample(hops[i % hops.len()], &net.cfg);
                s.fg[i % net.cfg.feat_dim] += i as f32 * 0.01;
                s.use_context = i % 11 != 4;
                s
            })
            .collect();
        let pool = ArenaPool::new();
        let batched = net.predict_batch_pooled(&samples, &pool);
        assert_eq!(batched.len(), samples.len());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (s, row) in samples.iter().zip(&batched) {
            let single = net.predict(s);
            assert_eq!(single.len(), row.len());
            for (a, b) in single.iter().zip(row) {
                assert_eq!(a.to_bits(), b.to_bits());
                digest = (digest ^ b.to_bits() as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        println!(
            "workers={} digest={digest:016x}",
            rayon::current_num_threads()
        );
    }

    /// `predict_batch_pooled`'s workers claim its chunks one at a time, so
    /// which worker runs which chunk follows `RAYON_NUM_THREADS` (and the
    /// scheduler); the outputs must not. The stand-in fixes its worker count per process, hence
    /// one child process per count (the pattern of `m3-core`'s
    /// `estimate_is_bit_identical_at_1_2_and_4_workers`).
    #[test]
    fn pooled_forward_is_bit_identical_at_1_2_and_4_workers() {
        let exe = std::env::current_exe().unwrap();
        let digest_at = |workers: usize| {
            let out = std::process::Command::new(&exe)
                .args(["--ignored", "--exact", "--nocapture"])
                .arg("infer::tests::print_worker_count_and_forward_digest")
                .env("RAYON_NUM_THREADS", workers.to_string())
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            assert!(out.status.success(), "child failed: {stdout}");
            let report = stdout
                .split("workers=")
                .nth(1)
                .and_then(|rest| rest.lines().next())
                .unwrap_or_else(|| panic!("no report in: {stdout}"));
            let (n, digest) = report.split_once(" digest=").unwrap();
            assert_eq!(n, workers.to_string(), "RAYON_NUM_THREADS not honoured");
            digest.to_string()
        };
        let one = digest_at(1);
        assert_eq!(digest_at(2), one);
        assert_eq!(digest_at(4), one);
    }
}
