//! Learnable parameter storage, separated from gradients so the store can be
//! shared read-only across rayon workers during batched forward/backward.

use crate::tensor::{all_finite, Tensor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// States of the [`ParamStore::all_finite`] memo.
const FINITE_UNKNOWN: u8 = 0;
const FINITE_YES: u8 = 1;
const FINITE_NO: u8 = 2;

/// Handle to one parameter tensor in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

#[derive(Debug, Clone)]
pub struct Param {
    pub name: String,
    pub value: Tensor,
}

/// All learnable parameters of a model, in registration order. Checkpoints
/// serialize the store; optimizers keep per-parameter state aligned by index.
#[derive(Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Memoized [`content_hash`](Self::content_hash). Every mutable access
    /// (`add*`, `get_mut`) clears the flag; concurrent shared readers can
    /// only race to store the same value, so relaxed ordering on the value
    /// plus acquire/release on the flag is enough.
    hash_valid: AtomicBool,
    hash_memo: AtomicU64,
    /// Memoized [`all_finite`](Self::all_finite), cleared with the hash
    /// memo. One self-contained value, so relaxed ordering is enough:
    /// racing readers can only store the same answer.
    finite_memo: AtomicU8,
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        let valid = self.hash_valid.load(Ordering::Acquire);
        ParamStore {
            params: self.params.clone(),
            hash_valid: AtomicBool::new(valid),
            hash_memo: AtomicU64::new(if valid {
                self.hash_memo.load(Ordering::Relaxed)
            } else {
                0
            }),
            finite_memo: AtomicU8::new(self.finite_memo.load(Ordering::Relaxed)),
        }
    }
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Every mutable access goes through here: both memos are stale.
    fn invalidate_memos(&mut self) {
        *self.hash_valid.get_mut() = false;
        *self.finite_memo.get_mut() = FINITE_UNKNOWN;
    }

    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        self.invalidate_memos();
        self.params.push(Param {
            name: name.into(),
            value,
        });
        ParamId(self.params.len() - 1)
    }

    /// Xavier/Glorot-uniform initialized matrix.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        rng: &mut SmallRng,
    ) -> ParamId {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        // Allocate through the checked constructor first so an overflowing
        // shape panics identically in debug and release.
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data.iter_mut() {
            *v = rng.gen_range(-bound..bound);
        }
        self.add(name, t)
    }

    pub fn add_zeros(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        self.add(name, Tensor::zeros(rows, cols))
    }

    pub fn add_ones(&mut self, name: impl Into<String>, rows: usize, cols: usize) -> ParamId {
        let mut t = Tensor::zeros(rows, cols);
        t.data.fill(1.0);
        self.add(name, t)
    }

    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.params[id.0].value
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        self.invalidate_memos();
        &mut self.params[id.0].value
    }

    /// FNV-1a content hash over every parameter's name, shape, and value
    /// bits. Memoized: recomputed only after a mutable access, so hot paths
    /// that key caches on model content (e.g. incremental session updates)
    /// pay O(1) instead of re-hashing millions of scalars per call.
    pub fn content_hash(&self) -> u64 {
        if self.hash_valid.load(Ordering::Acquire) {
            return self.hash_memo.load(Ordering::Relaxed);
        }
        // FNV-1a 64-bit, matching the model fingerprint hasher.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut write = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        for p in &self.params {
            for b in p.name.bytes() {
                write(b);
            }
            for b in (p.value.rows as u64).to_le_bytes() {
                write(b);
            }
            for b in (p.value.cols as u64).to_le_bytes() {
                write(b);
            }
            for v in &p.value.data {
                for b in v.to_bits().to_le_bytes() {
                    write(b);
                }
            }
        }
        self.hash_memo.store(h, Ordering::Relaxed);
        self.hash_valid.store(true, Ordering::Release);
        h
    }

    /// Whether every parameter value is finite — the condition under which
    /// the matmul zero-skip is sound (see `tensor.rs`). Memoized like
    /// [`content_hash`](Self::content_hash), so a forward call pays one
    /// load instead of a scan over every weight.
    pub fn all_finite(&self) -> bool {
        match self.finite_memo.load(Ordering::Relaxed) {
            FINITE_YES => true,
            FINITE_NO => false,
            _ => {
                let finite = self.params.iter().all(|p| all_finite(&p.value.data));
                let memo = if finite { FINITE_YES } else { FINITE_NO };
                self.finite_memo.store(memo, Ordering::Relaxed);
                finite
            }
        }
    }

    pub fn len(&self) -> usize {
        self.params.len()
    }

    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Total scalar parameter count (for the "16.8M parameters" style report).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Fresh zeroed gradient buffers aligned with this store.
    pub fn zero_grads(&self) -> Vec<Tensor> {
        self.params
            .iter()
            .map(|p| Tensor::zeros(p.value.rows, p.value.cols))
            .collect()
    }

    /// Make a deterministic RNG for initialization.
    pub fn seeded_rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_order_and_counts() {
        let mut s = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(0);
        let a = s.add_xavier("a", 3, 4, &mut rng);
        let b = s.add_zeros("b", 2, 2);
        assert_eq!(a, ParamId(0));
        assert_eq!(b, ParamId(1));
        assert_eq!(s.num_scalars(), 16);
        assert_eq!(s.zero_grads().len(), 2);
    }

    #[test]
    fn xavier_within_bound() {
        let mut s = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(1);
        let id = s.add_xavier("w", 10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(s.get(id).data.iter().all(|&v| v.abs() <= bound));
        // Not all zero.
        assert!(s.get(id).data.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn content_hash_memo_tracks_mutation() {
        let mut s = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(3);
        let id = s.add_xavier("w", 4, 4, &mut rng);
        let h0 = s.content_hash();
        assert_eq!(h0, s.content_hash(), "memoized hash is stable");
        // Clone carries the memo and the same content.
        assert_eq!(s.clone().content_hash(), h0);
        // Any mutable access invalidates the memo.
        s.get_mut(id).data[0] += 1.0;
        let h1 = s.content_hash();
        assert_ne!(h0, h1, "value change must change the hash");
        // A mutable access that writes nothing still recomputes to the
        // same hash.
        let _ = s.get_mut(id);
        assert_eq!(s.content_hash(), h1);
        // Adding a parameter changes the hash.
        s.add_zeros("b", 1, 1);
        assert_ne!(s.content_hash(), h1);
    }

    #[test]
    fn all_finite_memo_tracks_mutation() {
        let mut s = ParamStore::new();
        let mut rng = ParamStore::seeded_rng(3);
        let id = s.add_xavier("w", 4, 4, &mut rng);
        assert!(s.all_finite());
        assert!(s.clone().all_finite(), "clone carries the memo");
        s.get_mut(id).data[5] = f32::NAN;
        assert!(!s.all_finite(), "get_mut must clear the memo");
        assert!(!s.clone().all_finite());
        s.get_mut(id).data[5] = 0.0;
        assert!(s.all_finite());
        // `add` clears it too.
        s.add("inf", Tensor::from_vec(1, 1, vec![f32::INFINITY]));
        assert!(!s.all_finite());
    }

    #[test]
    fn deterministic_init() {
        let build = || {
            let mut s = ParamStore::new();
            let mut rng = ParamStore::seeded_rng(7);
            s.add_xavier("w", 5, 5, &mut rng);
            s
        };
        assert_eq!(build().get(ParamId(0)).data, build().get(ParamId(0)).data);
    }
}
