//! # m3-nn
//!
//! A minimal pure-Rust neural-network stack built for the m3 model: 2-D
//! tensors, tape-based reverse-mode autodiff over a closed op set, a
//! tiny-Llama-style transformer encoder + two-layer MLP ([`model::M3Net`]),
//! the Adam optimizer, and a compact binary checkpoint format.
//!
//! The paper trains with PyTorch Lightning on four A100s; this crate
//! substitutes a CPU-only from-scratch implementation with identical
//! architecture and objective (per-percentile L1), at configurable scale
//! (see `ModelConfig::{repro_default, paper_scale}` and DESIGN.md).
//!
//! ```
//! use m3_nn::prelude::*;
//!
//! let cfg = ModelConfig { feat_dim: 10, spec_dim: 2, out_dim: 4, embed: 8,
//!     heads: 2, layers: 1, block: 4, ff_hidden: 8, mlp_hidden: 8 };
//! let net = M3Net::new(cfg, 7);
//! let out = net.predict(&SampleInput {
//!     fg: vec![0.5; 10],
//!     bg: vec![vec![0.1; 10], vec![0.2; 10]],
//!     spec: vec![0.0, 1.0],
//!     use_context: true,
//! });
//! assert_eq!(out.len(), 4);
//! ```

// Robustness policy: non-test library code must not unwrap/expect — errors
// either propagate as typed Results or use an explicitly justified panic.
// scripts/check.sh runs clippy with -D warnings, making these hard errors.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// The crate's two `unsafe` blocks are the calls into the AVX2 and AVX-512
// instantiations of the matmul kernel (`tensor.rs`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod arena;
pub mod checkpoint;
pub mod infer;
pub mod integrity;
pub mod model;
pub mod optim;
pub mod params;
pub mod registry;
pub mod tape;
pub mod tensor;

pub mod prelude {
    pub use crate::arena::{ArenaPool, TensorArena};
    pub use crate::checkpoint::{load_file, save_file};
    pub use crate::infer::InferScratch;
    pub use crate::integrity::{
        checksum64, encode_record, scan_records, scan_records_lenient, write_atomic, CorruptFrame,
        LenientScanResult, ScanResult,
    };
    pub use crate::model::{
        batch_gradients, batch_gradients_pooled, grad_l2_norm, M3Net, ModelConfig, SampleInput,
    };
    pub use crate::optim::Adam;
    pub use crate::params::{Param, ParamId, ParamStore};
    pub use crate::registry::{Lineage, ModelRef, ModelRegistry, ModelVersion};
    pub use crate::tape::{Tape, Var};
    pub use crate::tensor::{Kernel, Tensor, TensorError};
}
