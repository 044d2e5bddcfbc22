//! # bow-isa — the instruction set of the BOW GPU model
//!
//! This crate defines a small SASS-like GPU instruction set used throughout
//! the BOW reproduction: typed registers and predicates, an opcode set with
//! up to three register sources and one destination per instruction (the
//! constraint the paper's operand collectors are sized for), kernels, a
//! fluent [`KernelBuilder`], and a text [assembler](crate::asm) /
//! disassembler pair.
//!
//! The ISA is *functional*: every opcode has well-defined semantics over
//! 32-bit register values, so kernels written in it can be executed for real
//! by `bow-sim` and their outputs checked against host references.
//!
//! ## Example
//!
//! ```
//! use bow_isa::{KernelBuilder, Reg, Operand};
//!
//! // d[i] = a + b  for one warp's worth of threads
//! let r = Reg::r;
//! let k = KernelBuilder::new("add_const")
//!     .s2r(r(0), bow_isa::Special::TidX)
//!     .mov_imm(r(1), 7)
//!     .iadd(r(2), Operand::Reg(r(0)), Operand::Reg(r(1)))
//!     .exit()
//!     .build()
//!     .unwrap();
//! assert_eq!(k.insts.len(), 4);
//! ```

pub mod asm;
pub mod builder;
pub mod ctrl;
pub mod encode;
pub mod error;
pub mod fuzz;
pub mod inst;
pub mod kernel;
pub mod opcode;
pub mod operand;
pub mod reg;

pub use builder::KernelBuilder;
pub use ctrl::CtrlBits;
pub use encode::{decode_kernel, encode_kernel, DecodeError};
pub use error::{AsmError, KernelError};
pub use fuzz::FuzzKernel;
pub use inst::{Dst, Instruction, MemRef, PredGuard, PredList, RegList, SrcList, WritebackHint};
pub use kernel::{Kernel, KernelDims};
pub use opcode::{CmpOp, FuClass, Opcode};
pub use operand::{Operand, Special};
pub use reg::{Pred, Reg};

/// Maximum number of register source operands a single instruction may carry.
///
/// NVIDIA SASS instructions read at most three register sources (e.g. FFMA);
/// the paper's operand collectors provide exactly three source entries and
/// BOW's bypassing operand collectors reserve `3 + 1` entries per windowed
/// instruction. The whole pipeline model relies on this bound.
pub const MAX_SRC_OPERANDS: usize = 3;

/// Number of threads in a warp (NVIDIA lock-step SIMT width).
pub const WARP_SIZE: usize = 32;

/// Number of per-warp convergence-barrier registers (`b0..b7`) available to
/// the stack-less divergence model's `bssy`/`bsync` instructions. Volta
/// exposes 16; 8 covers every nesting depth the compiler's barrier-placement
/// pass can produce for kernels within this ISA's branch-structure limits
/// and keeps the id inside a 3-bit immediate.
pub const NUM_CBARS: usize = 8;
