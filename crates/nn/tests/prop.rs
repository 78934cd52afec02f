//! Property tests for the autograd engine: analytic gradients must match
//! central finite differences for randomly-shaped compositions, and model
//! outputs must be finite and deterministic for arbitrary inputs.
//!
//! The kernel suites compare every instantiation of the panel kernel this
//! host runs (`Kernel::instantiations`: portable, and AVX2 and the two-row
//! AVX-512 body where the CPU has them) against the portable one bit for
//! bit. On a host with neither, only portable runs, so those suites print
//! a note and pass without comparing anything.

use m3_nn::prelude::*;
use proptest::prelude::*;

/// Build a random but well-conditioned input tensor.
fn tensor_from(vals: &[f32], rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| vals[i % vals.len()].clamp(-2.0, 2.0))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Values with plenty of exact zeros so the sparsity skip actually fires.
fn sparse_tensor_from(vals: &[f32], rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let v = vals[i % vals.len()];
            if (i / 3) % 2 == 0 {
                0.0
            } else {
                v.clamp(-2.0, 2.0)
            }
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Whether this host runs an instantiation other than the portable one;
/// names the instantiations found, once.
fn dispatch_differs() -> bool {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let found = Kernel::instantiations(false);
    let differs = found.len() > 1;
    NOTE.call_once(|| {
        let names: Vec<&str> = found.iter().map(|k| k.path()).collect();
        let skipped = if differs {
            ""
        } else {
            "; kernel comparisons skipped"
        };
        eprintln!(
            "kernel instantiations on this host: {}{skipped}",
            names.join(", ")
        );
    });
    differs
}

/// Activations with exact `0.0` and `-0.0` entries among the values.
fn signed_zero_tensor_from(vals: &[f32], rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| match i % 5 {
            0 => 0.0,
            3 => -0.0,
            _ => vals[i % vals.len()],
        })
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Every instantiation of the panel kernel this host runs equals the
/// portable one bit for bit on `C += A * B` with `-0.0` and `0.0`
/// activations, a non-zero `C` with planted `-0.0`s, the zero-skip on or
/// off, and `poison` (unless `0.0`) planted in `B` — where a sound caller
/// turns the skip off, but the instantiations must agree either way.
fn assert_dispatched_equals_portable(
    n: usize,
    k: usize,
    m: usize,
    vals: &[f32],
    zero_skip: bool,
    poison: f32,
    poison_at: usize,
) {
    let a = signed_zero_tensor_from(vals, n, k);
    let mut b = tensor_from(&vals[1..], k, m);
    if poison != 0.0 {
        let at = poison_at % b.data.len();
        b.data[at] = poison;
    }
    // Accumulate into a non-zero C, as the backward pass does, with a few
    // `-0.0`s: a skipped step must leave them `-0.0`, an added `+0.0`
    // product turns them `+0.0`.
    let mut c0 = tensor_from(&vals[2..], n, m);
    for v in c0.data.iter_mut().step_by(7) {
        *v = -0.0;
    }
    let mut portable = c0.clone();
    Tensor::matmul_into_gated(&a, &b, &mut portable, Kernel::portable(zero_skip));
    let mut reference = c0.clone();
    Tensor::matmul_into_reference(&a, &b, &mut reference);
    for kern in Kernel::instantiations(zero_skip) {
        let mut got = c0.clone();
        Tensor::matmul_into_gated(&a, &b, &mut got, kern);
        let shape = format!(
            "{} ({n},{k},{m}) zero_skip {zero_skip} poison {poison}",
            kern.path()
        );
        assert_eq!(bits(&portable), bits(&got), "{shape}");
        // And each is the reference kernel when the skip is set the way
        // `matmul_into` sets it.
        if zero_skip == (poison == 0.0) {
            assert_eq!(bits(&reference), bits(&got), "{shape}");
        }
    }
}

fn model_cfg(heads: usize) -> ModelConfig {
    ModelConfig {
        feat_dim: 12,
        spec_dim: 4,
        out_dim: 6,
        embed: 8,
        heads,
        layers: 2,
        block: 5,
        ff_hidden: 8,
        mlp_hidden: 8,
    }
}

fn model_sample(cfg: &ModelConfig, hops: usize, fill: f32) -> SampleInput {
    SampleInput {
        fg: (0..cfg.feat_dim).map(|j| fill + j as f32 * 0.03).collect(),
        bg: (0..hops)
            .map(|h| {
                (0..cfg.feat_dim)
                    .map(|j| {
                        if j % 4 == 0 {
                            0.0
                        } else {
                            fill * 0.5 - (h + j) as f32 * 0.02
                        }
                    })
                    .collect()
            })
            .collect(),
        spec: vec![fill.abs().min(1.0); cfg.spec_dim],
        use_context: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// d(loss)/d(W) for x->matmul->silu->matmul->L1 matches finite
    /// differences for random shapes and values.
    #[test]
    fn mlp_gradient_matches_finite_difference(
        rows in 1usize..4,
        inner in 1usize..6,
        out_w in 1usize..5,
        vals in prop::collection::vec(-1.0f32..1.0, 8..32),
    ) {
        let mut store = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(9);
        let w1 = store.add_xavier("w1", 3, inner, &mut rng);
        let w2 = store.add_xavier("w2", inner, out_w, &mut rng);
        let x = tensor_from(&vals, rows, 3);
        let t = tensor_from(&vals[1..], rows, out_w);
        let run = |store: &ParamStore| -> f32 {
            let mut tape = Tape::new(store);
            let xv = tape.input(x.clone());
            let a = tape.param(w1);
            let b = tape.param(w2);
            let h = tape.matmul(xv, a);
            let h = tape.silu(h);
            let y = tape.matmul(h, b);
            let tv = tape.input(t.clone());
            let l = tape.l1_loss(y, tv);
            tape.value(l).data[0]
        };
        let mut grads = store.zero_grads();
        {
            let s = store.clone();
            let mut tape = Tape::new(&s);
            let xv = tape.input(x.clone());
            let a = tape.param(w1);
            let b = tape.param(w2);
            let h = tape.matmul(xv, a);
            let h = tape.silu(h);
            let y = tape.matmul(h, b);
            let tv = tape.input(t.clone());
            let l = tape.l1_loss(y, tv);
            tape.backward(l, &mut grads);
        }
        let eps = 1e-2f32;
        for pid in [w1, w2] {
            let n = store.get(pid).len();
            let i = n / 2;
            let orig = store.get(pid).data[i];
            store.get_mut(pid).data[i] = orig + eps;
            let plus = run(&store);
            store.get_mut(pid).data[i] = orig - eps;
            let minus = run(&store);
            store.get_mut(pid).data[i] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grads[pid.0].data[i];
            // L1 has kinks; allow a loose bound plus an absolute floor.
            prop_assert!(
                (numeric - analytic).abs() <= 0.15 + 0.3 * numeric.abs().max(analytic.abs()),
                "param {:?} idx {}: numeric {} vs analytic {}", pid, i, numeric, analytic
            );
        }
    }

    /// The full m3 model produces finite, deterministic outputs for any
    /// input values and any hop count.
    #[test]
    fn model_total_function(
        hops in 0usize..8,
        fill in -3.0f32..3.0,
        spec_fill in 0.0f32..1.5,
    ) {
        let cfg = ModelConfig {
            feat_dim: 12,
            spec_dim: 4,
            out_dim: 6,
            embed: 8,
            heads: 2,
            layers: 1,
            block: 8,
            ff_hidden: 8,
            mlp_hidden: 8,
        };
        let net = M3Net::new(cfg.clone(), 3);
        let sample = SampleInput {
            fg: vec![fill; cfg.feat_dim],
            bg: vec![vec![fill * 0.5; cfg.feat_dim]; hops],
            spec: vec![spec_fill; cfg.spec_dim],
            use_context: true,
        };
        let a = net.predict(&sample);
        let b = net.predict(&sample);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        prop_assert_eq!(a.len(), cfg.out_dim);
    }

    /// Batched inference equals the per-sample path bit for bit, for any
    /// batch size, mix of hop counts, and context ablation flags.
    #[test]
    fn predict_batch_matches_sequential_predict(
        hop_counts in prop::collection::vec(0usize..7, 0..9),
        fills in prop::collection::vec(-2.0f32..2.0, 1..8),
        no_ctx_stride in 1usize..4,
    ) {
        let cfg = ModelConfig {
            feat_dim: 12,
            spec_dim: 4,
            out_dim: 6,
            embed: 8,
            heads: 2,
            layers: 1,
            block: 8,
            ff_hidden: 8,
            mlp_hidden: 8,
        };
        let net = M3Net::new(cfg.clone(), 5);
        let samples: Vec<SampleInput> = hop_counts
            .iter()
            .enumerate()
            .map(|(i, &hops)| {
                let fill = fills[i % fills.len()];
                SampleInput {
                    fg: (0..cfg.feat_dim).map(|j| fill + j as f32 * 0.01).collect(),
                    bg: (0..hops)
                        .map(|h| vec![fill * 0.5 - h as f32 * 0.02; cfg.feat_dim])
                        .collect(),
                    spec: vec![fill.abs().min(1.0); cfg.spec_dim],
                    use_context: i % no_ctx_stride != 0,
                }
            })
            .collect();
        let batched = net.predict_batch(&samples);
        prop_assert_eq!(batched.len(), samples.len());
        for (s, out) in samples.iter().zip(&batched) {
            let single = net.predict(s);
            let a: Vec<u32> = single.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// The cache-blocked matmul kernel is bit-identical to the retained
    /// scalar reference kernel across randomized shapes, for both dense and
    /// zero-heavy operands (the latter exercises the sparsity skip), with
    /// the skip both enabled and disabled.
    #[test]
    fn blocked_matmul_bit_identical_to_reference(
        n in 1usize..20,
        k in 1usize..34,
        m in 1usize..18,
        vals in prop::collection::vec(-3.0f32..3.0, 4..32),
        sparse in prop::bool::ANY,
    ) {
        let a = if sparse {
            sparse_tensor_from(&vals, n, k)
        } else {
            tensor_from(&vals, n, k)
        };
        let b = tensor_from(&vals[1..], k, m);
        let mut reference = Tensor::zeros(n, m);
        Tensor::matmul_into_reference(&a, &b, &mut reference);
        let mut blocked = Tensor::zeros(n, m);
        Tensor::matmul_into(&a, &b, &mut blocked);
        prop_assert_eq!(bits(&reference), bits(&blocked));
        // Disabling the sparsity skip must not change a single bit either
        // (the +-0.0 accumulator argument in tensor.rs).
        let mut dense = Tensor::zeros(n, m);
        Tensor::matmul_into_gated(&a, &b, &mut dense, Kernel::detect(false));
        prop_assert_eq!(bits(&blocked), bits(&dense));
    }

    /// The rows-slice kernel (batched context path, no stacking copy) is
    /// bit-identical to stacking the rows into a tensor and multiplying.
    #[test]
    fn rows_kernel_matches_stacked_matmul(
        n in 1usize..12,
        k in 1usize..20,
        m in 1usize..12,
        vals in prop::collection::vec(-2.0f32..2.0, 4..24),
        zero_skip in prop::bool::ANY,
    ) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..k)
                    .map(|j| {
                        let v = vals[(i * k + j) % vals.len()];
                        if (i + j) % 3 == 0 { 0.0 } else { v }
                    })
                    .collect()
            })
            .collect();
        let stacked = Tensor::from_vec(n, k, rows.concat());
        let b = tensor_from(&vals, k, m);
        let mut expect = Tensor::zeros(n, m);
        Tensor::matmul_into_gated(&stacked, &b, &mut expect, Kernel::detect(zero_skip));
        let mut got = Tensor::zeros(n, m);
        Tensor::matmul_rows_into_gated(&rows, &b, &mut got, Kernel::detect(zero_skip));
        prop_assert_eq!(bits(&expect), bits(&got));
    }

    /// The no-tape arena fast path produces bit-identical outputs to the
    /// retained tape-based reference forward pass, for any hop count and
    /// context ablation flag.
    #[test]
    fn fast_predict_matches_tape_reference(
        hops in 0usize..8,
        fill in -2.0f32..2.0,
        use_context in prop::bool::ANY,
        seed in 0u64..40,
    ) {
        let cfg = ModelConfig {
            feat_dim: 12,
            spec_dim: 4,
            out_dim: 6,
            embed: 8,
            heads: 2,
            layers: 1,
            block: 8,
            ff_hidden: 8,
            mlp_hidden: 8,
        };
        let net = M3Net::new(cfg.clone(), seed);
        let sample = SampleInput {
            fg: (0..cfg.feat_dim).map(|j| fill + j as f32 * 0.03).collect(),
            bg: (0..hops)
                .map(|h| {
                    (0..cfg.feat_dim)
                        .map(|j| if j % 4 == 0 { 0.0 } else { fill * 0.5 - h as f32 * 0.02 })
                        .collect()
                })
                .collect(),
            spec: vec![fill.abs().min(1.0); cfg.spec_dim],
            use_context,
        };
        let fast = net.predict(&sample);
        let reference = net.predict_reference(&sample);
        let a: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(a, b);
    }

    /// [`assert_dispatched_equals_portable`] over random shapes and values.
    #[test]
    fn dispatched_kernel_bit_identical_to_portable(
        n in 1usize..5,
        k in 1usize..40,
        m in 1usize..130,
        vals in prop::collection::vec(-3.0f32..3.0, 4..32),
        zero_skip in prop::bool::ANY,
        poison in prop::sample::select(vec![0.0f32, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]),
        poison_at in 0usize..1000,
    ) {
        if dispatch_differs() {
            assert_dispatched_equals_portable(n, k, m, &vals, zero_skip, poison, poison_at);
        }
    }

    /// The packed-QKV forward pass (one `[embed, 3·embed]` matmul per layer,
    /// heads reading column slices) equals the retained per-head tape path
    /// bit for bit, for one, two and four heads and for the shortest and
    /// the longest sequence; the portable forward pass — what a host
    /// without AVX2 or AVX-512 runs — equals the dispatched one.
    #[test]
    fn packed_qkv_forward_matches_tape_reference(
        heads in prop::sample::select(vec![1usize, 2, 4]),
        full_block in prop::bool::ANY,
        fill in -2.0f32..2.0,
        seed in 0u64..40,
    ) {
        let cfg = model_cfg(heads);
        let net = M3Net::new(cfg.clone(), seed);
        // One hop over the block also covers truncation to `block`.
        let hops = if full_block { cfg.block + 1 } else { 1 };
        let sample = model_sample(&cfg, hops, fill);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let reference = to_bits(&net.predict_reference(&sample));
        prop_assert_eq!(&to_bits(&net.predict(&sample)), &reference);
        let mut out = Vec::new();
        net.predict_batch_into_portable(
            std::slice::from_ref(&sample),
            &mut InferScratch::new(),
            &mut out,
        );
        prop_assert_eq!(&to_bits(&out[0]), &reference);
    }

    /// The pruned last layer — everything after its QKV matmul on row
    /// `l - 1` only — equals the tape, which computes every row, bit for
    /// bit: at every sequence length around the block edge, with the
    /// context ablated, for one to three layers (with one, the only layer
    /// is the pruned one), and through `predict`, the pooled batch and the
    /// portable kernel.
    #[test]
    fn pruned_forward_matches_tape_reference_at_every_length(
        heads in prop::sample::select(vec![1usize, 2, 4]),
        layers in 1usize..4,
        fill in -2.0f32..2.0,
        seed in 0u64..40,
    ) {
        let cfg = ModelConfig { layers, ..model_cfg(heads) };
        let net = M3Net::new(cfg.clone(), seed);
        let block = cfg.block;
        let mut samples: Vec<SampleInput> = [0, 1, 2, block - 1, block, block + 3]
            .iter()
            .map(|&hops| model_sample(&cfg, hops, fill))
            .collect();
        let mut ablated = model_sample(&cfg, block, fill);
        ablated.use_context = false;
        samples.push(ablated);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let pooled = net.predict_batch_pooled(&samples, &ArenaPool::new());
        let mut portable = Vec::new();
        net.predict_batch_into_portable(&samples, &mut InferScratch::new(), &mut portable);
        for (i, s) in samples.iter().enumerate() {
            let reference = to_bits(&net.predict_reference(s));
            prop_assert_eq!(&to_bits(&net.predict(s)), &reference, "sample {}", i);
            prop_assert_eq!(&to_bits(&pooled[i]), &reference, "sample {}", i);
            prop_assert_eq!(&to_bits(&portable[i]), &reference, "sample {}", i);
        }
    }

    /// Checkpoint roundtrips preserve every prediction bit-exactly.
    #[test]
    fn checkpoint_preserves_predictions(seed in 0u64..50, fill in -1.0f32..1.0) {
        let cfg = ModelConfig {
            feat_dim: 10,
            spec_dim: 3,
            out_dim: 4,
            embed: 8,
            heads: 2,
            layers: 1,
            block: 4,
            ff_hidden: 8,
            mlp_hidden: 8,
        };
        let net = M3Net::new(cfg.clone(), seed);
        let mut buf = Vec::new();
        m3_nn::checkpoint::save(&net, seed, &mut buf).unwrap();
        let loaded = m3_nn::checkpoint::load(&buf[..]).unwrap();
        let sample = SampleInput {
            fg: vec![fill; 10],
            bg: vec![vec![fill; 10]; 2],
            spec: vec![fill.abs(); 3],
            use_context: true,
        };
        prop_assert_eq!(net.predict(&sample), loaded.predict(&sample));
    }
}

/// Explicit edge shapes the blocked kernel must handle: 1x1, 1xk, kx1,
/// tall/skinny (rows far exceeding the 8-row tile), and a non-multiple of
/// the tile height. Each must match the reference kernel bit for bit.
#[test]
fn blocked_matmul_edge_shapes_match_reference() {
    let shapes = [
        (1, 1, 1),
        (1, 7, 1),
        (1, 1, 9),
        (1, 13, 5),
        (33, 2, 1),
        (40, 1, 3),
        (9, 3, 2),
        (8, 8, 8),
        (17, 5, 4),
    ];
    for (n, k, m) in shapes {
        let a = Tensor::from_vec(
            n,
            k,
            (0..n * k)
                .map(|i| if i % 3 == 0 { 0.0 } else { (i as f32).sin() })
                .collect(),
        );
        let b = Tensor::from_vec(k, m, (0..k * m).map(|i| (i as f32 * 0.7).cos()).collect());
        let mut reference = Tensor::zeros(n, m);
        Tensor::matmul_into_reference(&a, &b, &mut reference);
        let mut blocked = Tensor::zeros(n, m);
        Tensor::matmul_into(&a, &b, &mut blocked);
        let rb: Vec<u32> = reference.data.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = blocked.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(rb, bb, "shape ({n},{k},{m}) diverged");
    }
}

/// Every panel width of every instantiation — full 64s, the 16- and 8-wide
/// sub-panels, single columns, and their combinations — against the
/// portable one, with every kind of poison and the skip both ways, at odd
/// and even row counts: the AVX-512 body runs rows in pairs, so 1, 3, 5
/// and 17 rows end on a lone row through the one-row panels. With `k = 20`
/// both rows of a pair have their zero activations at the same steps (the
/// pair skips them); with `k = 19` and `k = 21` the zeros shift from row
/// to row (one row keeps its accumulator through the select).
#[test]
fn dispatched_kernel_edge_widths_match_portable() {
    if !dispatch_differs() {
        return;
    }
    let vals: Vec<f32> = (0..29).map(|i| (i as f32 * 0.37).sin() * 2.5).collect();
    for n in [1, 2, 3, 5, 17] {
        for k in [19, 20, 21] {
            for m in [1, 7, 8, 15, 16, 17, 63, 64, 65, 400] {
                for zero_skip in [false, true] {
                    for poison in [0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        let at = 5 * m + n;
                        assert_dispatched_equals_portable(n, k, m, &vals, zero_skip, poison, at);
                    }
                }
            }
        }
    }
}

/// A NaN anywhere in the weight operand forces both kernels dense, and they
/// agree bit for bit on the poisoned output — including which outputs went
/// non-finite.
#[test]
fn blocked_and_reference_agree_under_nan_poison() {
    let n = 11;
    let k = 6;
    let m = 5;
    let a = Tensor::from_vec(
        n,
        k,
        (0..n * k)
            .map(|i| if i % 2 == 0 { 0.0 } else { i as f32 * 0.1 })
            .collect(),
    );
    let mut b = Tensor::from_vec(k, m, vec![0.25; k * m]);
    b.data[7] = f32::NAN;
    let mut reference = Tensor::zeros(n, m);
    Tensor::matmul_into_reference(&a, &b, &mut reference);
    let mut blocked = Tensor::zeros(n, m);
    Tensor::matmul_into(&a, &b, &mut blocked);
    assert!(reference.data.iter().any(|v| v.is_nan()));
    let rb: Vec<u32> = reference.data.iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u32> = blocked.data.iter().map(|v| v.to_bits()).collect();
    assert_eq!(rb, bb);
}
