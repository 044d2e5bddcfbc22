//! # bow-mem — memory substrate for the BOW GPU model
//!
//! This crate provides everything below the SM pipeline that stores or moves
//! data:
//!
//! * [`GlobalMemory`] — a sparse, paged, functionally-correct global address
//!   space (device memory) with word-level accessors and host-side bulk
//!   helpers;
//! * [`SharedMemory`] — per-thread-block scratchpad with the 32-bank
//!   conflict model;
//! * [`Cache`] — a set-associative, LRU tag array used for L1/L2 timing;
//! * [`mod@coalesce`] — the access coalescer that folds a warp's 32 addresses
//!   into 128-byte memory transactions;
//! * [`MemSystem`] — the timing hierarchy (L1 → L2 → DRAM) that converts a
//!   warp access into a completion cycle plus statistics.
//!
//! Data and timing are deliberately separate: functional state always lives
//! in [`GlobalMemory`]/[`SharedMemory`] (so results are exact and easily
//! checkable), while the caches are tag-only and produce latencies.

pub mod cache;
pub mod coalesce;
pub mod global;
pub mod hierarchy;
pub mod shared;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use coalesce::{coalesce, Transaction, Transactions, SEGMENT_BYTES};
pub use global::GlobalMemory;
pub use hierarchy::{AccessKind, MemConfig, MemStats, MemSystem};
pub use shared::{bank_conflict_degree, SharedMemory, SMEM_BANKS};
