//! The m3 neural model (§3.4, Fig. 7(b)):
//!
//! * a tiny-Llama-style causal transformer (RMSNorm, multi-head attention,
//!   SwiGLU feed-forward, learned positions) encodes the sequence of
//!   per-hop *background* feature maps into a fixed-length context vector
//!   (the last token's hidden state), and
//! * a two-layer MLP maps [foreground feature map ∥ background context ∥
//!   network-spec vector] to the corrected slowdown distribution
//!   (4 size buckets x 100 percentiles = 400 outputs).
//!
//! Dimensions are configurable: [`ModelConfig::repro_default`] is small
//! enough to train on CPU in minutes; [`ModelConfig::paper_scale`] matches
//! the paper's 4-layer / 4-head / d=576 setup (~16.8 M parameters).

use crate::params::{ParamId, ParamStore};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Model dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Flattened feature-map width (10 size buckets x 100 percentiles).
    pub feat_dim: usize,
    /// Network-specification vector width.
    pub spec_dim: usize,
    /// Output width (4 buckets x 100 percentiles).
    pub out_dim: usize,
    pub embed: usize,
    pub heads: usize,
    pub layers: usize,
    /// Maximum sequence length (hops); the paper uses block size 16.
    pub block: usize,
    /// SwiGLU inner width.
    pub ff_hidden: usize,
    /// MLP hidden width.
    pub mlp_hidden: usize,
}

impl ModelConfig {
    /// CPU-trainable default used by the reproduction experiments.
    pub fn repro_default(spec_dim: usize) -> Self {
        ModelConfig {
            feat_dim: 1000,
            spec_dim,
            out_dim: 400,
            embed: 64,
            heads: 4,
            layers: 2,
            block: 16,
            ff_hidden: 128,
            mlp_hidden: 128,
        }
    }

    /// The paper's architecture (§5.1): 4 layers, 4 heads, embedding 576,
    /// block 16; MLP hidden 512.
    pub fn paper_scale(spec_dim: usize) -> Self {
        ModelConfig {
            feat_dim: 1000,
            spec_dim,
            out_dim: 400,
            embed: 576,
            heads: 4,
            layers: 4,
            block: 16,
            ff_hidden: 1536,
            mlp_hidden: 512,
        }
    }

    pub fn head_dim(&self) -> usize {
        assert_eq!(self.embed % self.heads, 0, "embed must divide by heads");
        self.embed / self.heads
    }

    /// Structural validation with hard dimension caps. Used before
    /// constructing a net from untrusted data (checkpoint headers), so a
    /// corrupt or hostile config cannot trigger an enormous allocation.
    pub fn validate(&self) -> Result<(), String> {
        const MAX_IO_DIM: usize = 1 << 20; // feature / output widths
        const MAX_HIDDEN: usize = 1 << 14; // embed / ff / mlp widths
        const MAX_SCALARS: u128 = 1 << 27; // ~512 MB of f32 parameters
        let caps: [(&str, usize, usize); 9] = [
            ("feat_dim", self.feat_dim, MAX_IO_DIM),
            ("spec_dim", self.spec_dim, MAX_IO_DIM),
            ("out_dim", self.out_dim, MAX_IO_DIM),
            ("embed", self.embed, MAX_HIDDEN),
            ("heads", self.heads, 256),
            ("layers", self.layers, 128),
            ("block", self.block, 1 << 12),
            ("ff_hidden", self.ff_hidden, MAX_HIDDEN),
            ("mlp_hidden", self.mlp_hidden, MAX_HIDDEN),
        ];
        for (name, v, cap) in caps {
            if v == 0 {
                return Err(format!("{name} must be nonzero"));
            }
            if v > cap {
                return Err(format!("{name} = {v} exceeds cap {cap}"));
            }
        }
        if !self.embed.is_multiple_of(self.heads) {
            return Err(format!(
                "embed {} not divisible by heads {}",
                self.embed, self.heads
            ));
        }
        // Upper bound on total parameter scalars (overestimates are fine;
        // this only guards allocation size).
        let (f, s, o) = (
            self.feat_dim as u128,
            self.spec_dim as u128,
            self.out_dim as u128,
        );
        let (e, l, b) = (self.embed as u128, self.layers as u128, self.block as u128);
        let (ff, mh) = (self.ff_hidden as u128, self.mlp_hidden as u128);
        let per_layer = 4 * e * e + 3 * e * ff + 2 * e;
        let mlp_in = f + e + s;
        let total = f * e + e + b * e + l * per_layer + e + mlp_in * mh + mh + mh * o + o;
        if total > MAX_SCALARS {
            return Err(format!(
                "architecture implies ~{total} parameters, over the {MAX_SCALARS} cap"
            ));
        }
        Ok(())
    }
}

/// Parameter layout of one transformer layer.
#[derive(Debug, Clone)]
pub(crate) struct LayerIds {
    pub(crate) norm1: ParamId,
    pub(crate) wq: Vec<ParamId>,
    pub(crate) wk: Vec<ParamId>,
    pub(crate) wv: Vec<ParamId>,
    pub(crate) wo: Vec<ParamId>,
    pub(crate) norm2: ParamId,
    pub(crate) w1: ParamId,
    pub(crate) w3: ParamId,
    pub(crate) w2: ParamId,
}

/// One training/inference sample.
#[derive(Debug, Clone)]
pub struct SampleInput {
    /// Foreground feature map, length `feat_dim`.
    pub fg: Vec<f32>,
    /// Per-hop background feature maps, each length `feat_dim`.
    pub bg: Vec<Vec<f32>>,
    /// Network-spec vector, length `spec_dim`.
    pub spec: Vec<f32>,
    /// When false, the background context is zeroed ("m3 w/o context"
    /// ablation, Fig. 16).
    pub use_context: bool,
}

/// The m3 model: transformer + MLP over a shared [`ParamStore`].
#[derive(Debug, Clone)]
pub struct M3Net {
    pub cfg: ModelConfig,
    pub store: ParamStore,
    pub(crate) proj_w: ParamId,
    pub(crate) proj_b: ParamId,
    pub(crate) pos: ParamId,
    pub(crate) layers: Vec<LayerIds>,
    pub(crate) final_norm: ParamId,
    pub(crate) mlp_w1: ParamId,
    pub(crate) mlp_b1: ParamId,
    pub(crate) mlp_w2: ParamId,
    pub(crate) mlp_b2: ParamId,
}

impl M3Net {
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(seed);
        let dh = cfg.head_dim();
        let proj_w = store.add_xavier("proj.w", cfg.feat_dim, cfg.embed, &mut rng);
        let proj_b = store.add_zeros("proj.b", 1, cfg.embed);
        let pos = store.add_xavier("pos", cfg.block, cfg.embed, &mut rng);
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let mut wq = Vec::new();
            let mut wk = Vec::new();
            let mut wv = Vec::new();
            let mut wo = Vec::new();
            for h in 0..cfg.heads {
                wq.push(store.add_xavier(format!("l{l}.h{h}.wq"), cfg.embed, dh, &mut rng));
                wk.push(store.add_xavier(format!("l{l}.h{h}.wk"), cfg.embed, dh, &mut rng));
                wv.push(store.add_xavier(format!("l{l}.h{h}.wv"), cfg.embed, dh, &mut rng));
                wo.push(store.add_xavier(format!("l{l}.h{h}.wo"), dh, cfg.embed, &mut rng));
            }
            layers.push(LayerIds {
                norm1: store.add_ones(format!("l{l}.norm1"), 1, cfg.embed),
                wq,
                wk,
                wv,
                wo,
                norm2: store.add_ones(format!("l{l}.norm2"), 1, cfg.embed),
                w1: store.add_xavier(format!("l{l}.ffn.w1"), cfg.embed, cfg.ff_hidden, &mut rng),
                w3: store.add_xavier(format!("l{l}.ffn.w3"), cfg.embed, cfg.ff_hidden, &mut rng),
                w2: store.add_xavier(format!("l{l}.ffn.w2"), cfg.ff_hidden, cfg.embed, &mut rng),
            });
        }
        let final_norm = store.add_ones("final_norm", 1, cfg.embed);
        let mlp_in = cfg.feat_dim + cfg.embed + cfg.spec_dim;
        let mlp_w1 = store.add_xavier("mlp.w1", mlp_in, cfg.mlp_hidden, &mut rng);
        let mlp_b1 = store.add_zeros("mlp.b1", 1, cfg.mlp_hidden);
        let mlp_w2 = store.add_xavier("mlp.w2", cfg.mlp_hidden, cfg.out_dim, &mut rng);
        let mlp_b2 = store.add_zeros("mlp.b2", 1, cfg.out_dim);
        M3Net {
            cfg,
            store,
            proj_w,
            proj_b,
            pos,
            layers,
            final_norm,
            mlp_w1,
            mlp_b1,
            mlp_w2,
            mlp_b2,
        }
    }

    /// Encode the background maps into a context vector node ([1, embed]).
    fn context<'t>(&self, tape: &mut Tape<'t>, sample: &SampleInput) -> Var {
        if !sample.use_context || sample.bg.is_empty() {
            return tape.input(Tensor::zeros(1, self.cfg.embed));
        }
        let l = sample.bg.len().min(self.cfg.block);
        let mut data = Vec::with_capacity(l * self.cfg.feat_dim);
        for hop in sample.bg.iter().take(l) {
            assert_eq!(hop.len(), self.cfg.feat_dim, "background map width");
            data.extend_from_slice(hop);
        }
        let x = tape.input(Tensor::from_vec(l, self.cfg.feat_dim, data));
        let proj_w = tape.param(self.proj_w);
        let proj_b = tape.param(self.proj_b);
        let x = tape.matmul(x, proj_w);
        let mut x = tape.add_bias(x, proj_b);
        // Learned positions: selector [L, block] x pos [block, embed].
        let mut sel = Tensor::zeros(l, self.cfg.block);
        for i in 0..l {
            *sel.at_mut(i, i) = 1.0;
        }
        let sel = tape.input(sel);
        let pos = tape.param(self.pos);
        let posx = tape.matmul(sel, pos);
        x = tape.add(x, posx);

        let scale = 1.0 / (self.cfg.head_dim() as f32).sqrt();
        for layer in &self.layers {
            // Attention sublayer.
            let g1 = tape.param(layer.norm1);
            let normed = tape.rms_norm(x, g1);
            let mut attn_out: Option<Var> = None;
            for h in 0..self.cfg.heads {
                let wq = tape.param(layer.wq[h]);
                let wk = tape.param(layer.wk[h]);
                let wv = tape.param(layer.wv[h]);
                let wo = tape.param(layer.wo[h]);
                let q = tape.matmul(normed, wq);
                let k = tape.matmul(normed, wk);
                let v = tape.matmul(normed, wv);
                let scores = tape.matmul_nt(q, k);
                let scores = tape.scale(scores, scale);
                let attn = tape.causal_softmax(scores);
                let out = tape.matmul(attn, v);
                let proj = tape.matmul(out, wo);
                attn_out = Some(match attn_out {
                    Some(acc) => tape.add(acc, proj),
                    None => proj,
                });
            }
            // `heads >= 1` (asserted at construction), so the fold above
            // always produced a value.
            x = match attn_out {
                Some(attn) => tape.add(x, attn),
                None => unreachable!("model has at least one attention head"),
            };
            // SwiGLU feed-forward sublayer.
            let g2 = tape.param(layer.norm2);
            let normed = tape.rms_norm(x, g2);
            let w1 = tape.param(layer.w1);
            let w3 = tape.param(layer.w3);
            let w2 = tape.param(layer.w2);
            let a = tape.matmul(normed, w1);
            let a = tape.silu(a);
            let b = tape.matmul(normed, w3);
            let hmul = tape.mul(a, b);
            let ff = tape.matmul(hmul, w2);
            x = tape.add(x, ff);
        }
        let gf = tape.param(self.final_norm);
        let x = tape.rms_norm(x, gf);
        tape.slice_row(x, l - 1)
    }

    /// Build the forward graph; returns the prediction node ([1, out_dim]).
    pub fn forward<'t>(&self, tape: &mut Tape<'t>, sample: &SampleInput) -> Var {
        assert_eq!(sample.fg.len(), self.cfg.feat_dim, "foreground map width");
        assert_eq!(sample.spec.len(), self.cfg.spec_dim, "spec vector width");
        let ctx = self.context(tape, sample);
        let fg = tape.input(Tensor::row_vector(sample.fg.clone()));
        let spec = tape.input(Tensor::row_vector(sample.spec.clone()));
        let joined = tape.concat_cols(fg, ctx);
        let joined = tape.concat_cols(joined, spec);
        let w1 = tape.param(self.mlp_w1);
        let b1 = tape.param(self.mlp_b1);
        let w2 = tape.param(self.mlp_w2);
        let b2 = tape.param(self.mlp_b2);
        let h = tape.matmul(joined, w1);
        let h = tape.add_bias(h, b1);
        let h = tape.relu(h);
        let out = tape.matmul(h, w2);
        tape.add_bias(out, b2)
    }

    /// Forward + L1 loss; returns (prediction, loss) nodes.
    pub fn loss<'t>(
        &self,
        tape: &mut Tape<'t>,
        sample: &SampleInput,
        target: &[f32],
    ) -> (Var, Var) {
        assert_eq!(target.len(), self.cfg.out_dim, "target width");
        let pred = self.forward(tape, sample);
        let t = tape.input(Tensor::row_vector(target.to_vec()));
        let loss = tape.l1_loss(pred, t);
        (pred, loss)
    }

    /// Retained tape-based inference path. Semantically (and bit-for-bit)
    /// equal to [`M3Net::predict`]; kept as the reference implementation
    /// for the proptest bit-identity suite and as the "before" side of the
    /// hotpath benchmark gate.
    pub fn predict_reference(&self, sample: &SampleInput) -> Vec<f32> {
        let mut tape = Tape::new_reference(&self.store);
        let pred = self.forward(&mut tape, sample);
        tape.value(pred).data.clone()
    }

    /// The transformer context of one sample as a plain `[embed]` vector.
    fn context_vector(&self, sample: &SampleInput) -> Vec<f32> {
        let mut tape = Tape::new_reference(&self.store);
        let ctx = self.context(&mut tape, sample);
        tape.value(ctx).data.clone()
    }

    /// Retained pre-overhaul batched inference path: reference-mode tape
    /// contexts (scalar kernels, per-op heap allocation, param clones)
    /// plus a stacked MLP through the scalar reference kernels; the
    /// "before" side of the hotpath benchmark gate. Bit-identical to
    /// [`M3Net::predict_batch`].
    ///
    /// The per-hop background sequences have different lengths, so the
    /// transformer contexts are computed per sample (in parallel); the
    /// sample rows `[fg ∥ context ∥ spec]` are then stacked into one
    /// `[k, mlp_in]` matrix and pushed through a single batched MLP
    /// forward. Equivalence holds because every matmul/bias/ReLU output row
    /// depends only on its own input row, evaluated in the same order as
    /// the single-sample path (see `Tensor::stack_rows`).
    pub fn predict_batch_reference(&self, samples: &[SampleInput]) -> Vec<Vec<f32>> {
        if samples.is_empty() {
            return Vec::new();
        }
        for s in samples {
            assert_eq!(s.fg.len(), self.cfg.feat_dim, "foreground map width");
            assert_eq!(s.spec.len(), self.cfg.spec_dim, "spec vector width");
        }
        let contexts: Vec<Vec<f32>> = samples.par_iter().map(|s| self.context_vector(s)).collect();

        let mlp_in = self.cfg.feat_dim + self.cfg.embed + self.cfg.spec_dim;
        let mut joined = Tensor::zeros(samples.len(), mlp_in);
        for (i, (s, ctx)) in samples.iter().zip(&contexts).enumerate() {
            let row = &mut joined.data[i * mlp_in..(i + 1) * mlp_in];
            row[..self.cfg.feat_dim].copy_from_slice(&s.fg);
            row[self.cfg.feat_dim..self.cfg.feat_dim + self.cfg.embed].copy_from_slice(ctx);
            row[self.cfg.feat_dim + self.cfg.embed..].copy_from_slice(&s.spec);
        }

        let w1 = self.store.get(self.mlp_w1);
        let b1 = self.store.get(self.mlp_b1);
        let w2 = self.store.get(self.mlp_w2);
        let b2 = self.store.get(self.mlp_b2);
        let mut h = Tensor::zeros(joined.rows, w1.cols);
        Tensor::matmul_into_reference(&joined, w1, &mut h);
        for r in 0..h.rows {
            for c in 0..h.cols {
                *h.at_mut(r, c) += b1.at(0, c);
            }
        }
        for v in h.data.iter_mut() {
            *v = v.max(0.0);
        }
        let mut out = Tensor::zeros(h.rows, w2.cols);
        Tensor::matmul_into_reference(&h, w2, &mut out);
        for r in 0..out.rows {
            for c in 0..out.cols {
                *out.at_mut(r, c) += b2.at(0, c);
            }
        }
        (0..out.rows).map(|r| out.row(r).data).collect()
    }

    /// Content fingerprint of the model: hashes the architecture and every
    /// parameter value. Two nets with equal fingerprints produce identical
    /// predictions, so the fingerprint is a sound cache key component.
    ///
    /// The parameter portion is memoized inside the store
    /// ([`ParamStore::content_hash`]) and only re-hashed after a mutable
    /// access, so calling this per incremental-session update is O(1)
    /// rather than a walk over millions of scalars.
    ///
    /// [`ParamStore::content_hash`]: crate::params::ParamStore::content_hash
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.cfg.feat_dim as u64);
        h.write_u64(self.cfg.spec_dim as u64);
        h.write_u64(self.cfg.out_dim as u64);
        h.write_u64(self.cfg.embed as u64);
        h.write_u64(self.cfg.heads as u64);
        h.write_u64(self.cfg.layers as u64);
        h.write_u64(self.cfg.block as u64);
        h.write_u64(self.cfg.ff_hidden as u64);
        h.write_u64(self.cfg.mlp_hidden as u64);
        h.write_u64(self.store.content_hash());
        h.finish()
    }

    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Compute summed gradients and mean loss over a batch, in parallel across
/// samples (each rayon worker owns its own tape).
///
/// Determinism: per-sample gradients are collected *indexed* (in batch
/// order) and then combined by a fixed-shape pairwise tree reduction whose
/// structure depends only on the batch size — never on thread scheduling —
/// so the floating-point accumulation order, and therefore every trained
/// parameter, is bit-for-bit reproducible across runs and thread counts.
pub fn batch_gradients(net: &M3Net, batch: &[(SampleInput, Vec<f32>)]) -> (Vec<Tensor>, f64) {
    batch_gradients_pooled(net, batch, &crate::arena::ArenaPool::new())
}

/// [`batch_gradients`] with tape scratch drawn from a caller-held arena
/// pool: each worker's tape recycles its node buffers through the pool, so
/// batch members (and repeated steps sharing the pool) reuse warm buffers.
/// Per-sample values and the reduction order are unchanged, so results are
/// bit-identical to the unpooled path.
pub fn batch_gradients_pooled(
    net: &M3Net,
    batch: &[(SampleInput, Vec<f32>)],
    pool: &crate::arena::ArenaPool,
) -> (Vec<Tensor>, f64) {
    assert!(!batch.is_empty());
    let mut partial: Vec<(Vec<Tensor>, f64)> = batch
        .par_iter()
        .map(|(sample, target)| {
            let mut grads = net.store.zero_grads();
            let mut tape = Tape::with_arena(&net.store, pool.take());
            let (_, loss) = net.loss(&mut tape, sample, target);
            tape.backward(loss, &mut grads);
            let loss_val = tape.value(loss).data[0] as f64;
            pool.put(tape.recycle());
            (grads, loss_val)
        })
        .collect();

    // Fixed-order tree reduction: round r combines slot i with slot
    // i + stride for every even multiple i of stride.
    let mut stride = 1;
    while stride < partial.len() {
        let mut i = 0;
        while i + stride < partial.len() {
            let (gb, lb) = std::mem::replace(&mut partial[i + stride], (Vec::new(), 0.0));
            let (ga, la) = &mut partial[i];
            for (a, b) in ga.iter_mut().zip(&gb) {
                for (x, &y) in a.data.iter_mut().zip(&b.data) {
                    *x += y;
                }
            }
            *la += lb;
            i += stride * 2;
        }
        stride *= 2;
    }
    let (mut grads, loss_sum) = partial.swap_remove(0);

    // Average over the batch.
    let n = batch.len() as f32;
    for g in grads.iter_mut() {
        for v in g.data.iter_mut() {
            *v /= n;
        }
    }
    (grads, loss_sum / batch.len() as f64)
}

/// Global L2 norm of a gradient set, accumulated in f64 so the result is
/// stable across parameter counts. Useful as a training-health telemetry
/// signal (exploding/vanishing gradients).
pub fn grad_l2_norm(grads: &[Tensor]) -> f64 {
    grads
        .iter()
        .flat_map(|g| g.data.iter())
        .map(|&v| v as f64 * v as f64)
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            feat_dim: 20,
            spec_dim: 5,
            out_dim: 8,
            embed: 8,
            heads: 2,
            layers: 2,
            block: 6,
            ff_hidden: 16,
            mlp_hidden: 12,
        }
    }

    pub(crate) fn sample(bg_hops: usize, cfg: &ModelConfig) -> SampleInput {
        SampleInput {
            fg: (0..cfg.feat_dim).map(|i| (i as f32 * 0.1).sin()).collect(),
            bg: (0..bg_hops)
                .map(|h| {
                    (0..cfg.feat_dim)
                        .map(|i| ((i + h * 3) as f32 * 0.07).cos())
                        .collect()
                })
                .collect(),
            spec: vec![0.3; cfg.spec_dim],
            use_context: true,
        }
    }

    #[test]
    fn forward_shapes() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 1);
        for hops in [0, 1, 3, 6] {
            let out = net.predict(&sample(hops, &cfg));
            assert_eq!(out.len(), cfg.out_dim);
            assert!(out.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn variable_hop_counts_change_output() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 1);
        let o2 = net.predict(&sample(2, &cfg));
        let o4 = net.predict(&sample(4, &cfg));
        assert_ne!(o2, o4, "context must depend on the hop sequence");
    }

    #[test]
    fn no_context_ablation_ignores_background() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 1);
        let mut s2 = sample(2, &cfg);
        let mut s5 = sample(5, &cfg);
        s2.use_context = false;
        s5.use_context = false;
        assert_eq!(net.predict(&s2), net.predict(&s5));
    }

    #[test]
    fn deterministic_construction_and_inference() {
        let cfg = tiny_cfg();
        let a = M3Net::new(cfg.clone(), 42);
        let b = M3Net::new(cfg.clone(), 42);
        assert_eq!(a.predict(&sample(3, &cfg)), b.predict(&sample(3, &cfg)));
        let c = M3Net::new(cfg.clone(), 43);
        assert_ne!(a.predict(&sample(3, &cfg)), c.predict(&sample(3, &cfg)));
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = tiny_cfg();
        let mut net = M3Net::new(cfg.clone(), 5);
        let batch: Vec<(SampleInput, Vec<f32>)> = (0..4)
            .map(|i| {
                (
                    sample(2 + i % 3, &cfg),
                    (0..cfg.out_dim)
                        .map(|j| (j as f32 + i as f32) * 0.1)
                        .collect(),
                )
            })
            .collect();
        let mut opt = crate::optim::Adam::new(&net.store, 1e-2);
        let (_, first_loss) = batch_gradients(&net, &batch);
        let mut last = first_loss;
        for _ in 0..30 {
            let (grads, loss) = batch_gradients(&net, &batch);
            opt.step(&mut net.store, &grads);
            last = loss;
        }
        assert!(
            last < first_loss * 0.5,
            "loss should halve: {first_loss} -> {last}"
        );
    }

    #[test]
    fn predict_batch_bit_identical_to_predict() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 9);
        // Mixed hop counts (including 0: zero context) and an ablation row.
        let mut samples: Vec<SampleInput> = [0usize, 1, 3, 6, 2, 4]
            .iter()
            .map(|&h| sample(h, &cfg))
            .collect();
        samples[4].use_context = false;
        let batched = net.predict_batch(&samples);
        assert_eq!(batched.len(), samples.len());
        for (i, s) in samples.iter().enumerate() {
            let single = net.predict(s);
            let got: Vec<u32> = batched[i].iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "sample {i}");
            // The no-tape fast path must match the retained tape path.
            let reference = net.predict_reference(s);
            let refb: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, refb, "fast path diverged from tape path, sample {i}");
        }
        let ref_batched = net.predict_batch_reference(&samples);
        assert_eq!(batched, ref_batched);
        assert!(net.predict_batch(&[]).is_empty());
    }

    #[test]
    fn batch_gradients_deterministic_across_runs() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 5);
        // Odd batch size exercises the unpaired-tail path of the tree.
        let batch: Vec<(SampleInput, Vec<f32>)> = (0..7)
            .map(|i| {
                (
                    sample(1 + i % 4, &cfg),
                    (0..cfg.out_dim).map(|j| (j + i) as f32 * 0.1).collect(),
                )
            })
            .collect();
        let (ga, la) = batch_gradients(&net, &batch);
        let (gb, lb) = batch_gradients(&net, &batch);
        assert_eq!(la.to_bits(), lb.to_bits());
        for (a, b) in ga.iter().zip(&gb) {
            let ab: Vec<u32> = a.data.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.data.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb);
        }
    }

    #[test]
    fn fingerprint_tracks_parameters_and_config() {
        let cfg = tiny_cfg();
        let a = M3Net::new(cfg.clone(), 42);
        let b = M3Net::new(cfg.clone(), 42);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = M3Net::new(cfg.clone(), 43);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = M3Net::new(cfg, 42);
        d.store.get_mut(crate::params::ParamId(0)).data[0] += 1.0;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn paper_scale_param_count() {
        // The paper reports ~16.8M transformer parameters; our paper-scale
        // config should land in that ballpark (within 2x).
        let cfg = ModelConfig::paper_scale(16);
        let net = M3Net::new(cfg, 0);
        let n = net.num_params();
        assert!(
            (8_000_000..40_000_000).contains(&n),
            "paper-scale params {n}"
        );
    }

    #[test]
    fn long_sequences_truncate_to_block() {
        let cfg = tiny_cfg();
        let net = M3Net::new(cfg.clone(), 1);
        let out = net.predict(&sample(32, &cfg)); // > block
        assert_eq!(out.len(), cfg.out_dim);
    }

    #[test]
    fn grad_l2_norm_matches_hand_computation() {
        let grads = vec![
            Tensor::from_vec(1, 2, vec![3.0, 0.0]),
            Tensor::from_vec(2, 1, vec![0.0, 4.0]),
        ];
        assert!((grad_l2_norm(&grads) - 5.0).abs() < 1e-12);
        assert_eq!(grad_l2_norm(&[]), 0.0);
    }
}
