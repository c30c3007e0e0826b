//! # ds-nn — the neural-network substrate for DeepSqueeze
//!
//! A from-scratch dense neural-network framework implementing exactly what
//! the paper's model construction stage (§5) needs:
//!
//! * [`mat`] — row-major `f32` matrices with the handful of BLAS-like
//!   operations backpropagation requires, backed by micro-kernels written
//!   once over eight `f32` lanes, run as AVX2 registers or plain Rust as
//!   `ds-simd` selects at runtime (one fixed accumulation schedule either
//!   way, so the selection never changes an output bit).
//! * [`dense`] — fully connected layers with Xavier initialization.
//! * [`adam`] — the Adam optimizer.
//! * [`autoencoder`] — the paper's autoencoder: a symmetric encoder/decoder
//!   with per-column heads (sigmoid+MSE for numerics, sigmoid+BCE for
//!   binary, and the **parameter-shared categorical output layer with a
//!   signal node** of §5.1 / Fig. 3).
//! * [`moe`] — the sparsely-gated **mixture of experts** (§5.2): a gate
//!   network trained end-to-end with the experts via the differentiable
//!   weighted loss, hard top-1 routing at inference.
//! * [`serialize`] — compact little-endian weight export for the
//!   materialized decoder (§6.1), including the final gzip-like pass.
//!
//! Deliberately not a general DL framework: no autograd graph, no GPU —
//! the models here are small MLPs (hidden width 2× the column count), and
//! a hand-derived backward pass keeps the whole substrate dependency-free
//! and auditable.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels read clearer with explicit loops

pub mod adam;
pub mod autoencoder;
pub mod dense;
pub mod mat;
pub mod moe;
pub mod serialize;
mod simd;

pub use autoencoder::{Autoencoder, DecodedBatch, Head, ModelSpec};
pub use mat::Mat;
pub use moe::{train_pass_data_parallel, Assignment, MoeAutoencoder, MoeConfig, TrainReport};

/// Errors surfaced by model construction and weight (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A dimension or hyperparameter was invalid (with detail).
    InvalidSpec(&'static str),
    /// Serialized weights were malformed.
    Corrupt(&'static str),
    /// Input data did not match the model's expected shape.
    ShapeMismatch(&'static str),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::InvalidSpec(what) => write!(f, "invalid model spec: {what}"),
            NnError::Corrupt(what) => write!(f, "corrupt weights: {what}"),
            NnError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NnError>;
