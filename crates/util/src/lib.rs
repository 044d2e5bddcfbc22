//! # bow-util — dependency-free support code for the BOW workspace
//!
//! This workspace builds with `cargo build --offline` on machines that
//! have never reached crates.io, so everything that would normally come
//! from a small external crate lives here instead:
//!
//! * [`json`] — a hand-rolled JSON tree, writer and parser (replaces
//!   `serde`/`serde_json` for the harness's machine-readable outputs);
//! * [`rng`] — a seeded xorshift generator (replaces `rand`/`proptest`
//!   for randomized testing and input generation);
//! * [`hash`] — SHA-256 (replaces `sha2` for the content-addressed
//!   result store's fingerprint keys);
//! * [`names`] — the name-table helper every configuration axis declares
//!   its value names with;
//! * [`inline`] — a fixed-capacity inline vector (replaces `arrayvec`
//!   for the simulator's heap-free per-instruction lists).

pub mod hash;
pub mod inline;
pub mod json;
pub mod names;
pub mod rng;

pub use hash::{sha256, sha256_hex, Sha256};
pub use inline::InlineVec;
pub use json::{parse as parse_json, DecodeError, Json, ParseError};
pub use names::{parse_name, UnknownName};
pub use rng::XorShift;
