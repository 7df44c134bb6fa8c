//! Dense numeric kernels for the Poseidon reproduction.
//!
//! This crate is the lowest layer of the workspace: it provides the row-major
//! [`Matrix`] type with the linear-algebra kernels the neural-network engine
//! needs (GEMM variants, AXPY, outer products), deterministic random
//! initialisation, [`sf::SufficientFactor`] pairs used by sufficient-factor
//! broadcasting, the [`quantize::OneBitQuantizer`] gradient compressor used by
//! the CNTK-style baseline, and byte-level serialisation used by the
//! in-process transport to account for every byte that would cross the
//! network.
//!
//! The GEMM family is backed by the cache-blocked, panel-packed kernel in
//! [`kernel`]. It contains no SIMD intrinsics — only fixed-size safe
//! arithmetic compiled per ISA tier and selected at runtime — and it
//! preserves the naive ascending-`k` fold order, so results stay bitwise
//! deterministic and the distributed-equals-serial equivalence tests remain
//! meaningful. The naive reference kernels are retained on [`Matrix`]
//! (`*_naive`) as differential-test oracles.

pub mod bytesio;
pub mod compress;
pub mod init;
mod isa;
pub mod kernel;
pub mod matrix;
pub mod quantize;
pub mod sf;

pub use matrix::Matrix;
pub use sf::{SfBatch, SufficientFactor};
