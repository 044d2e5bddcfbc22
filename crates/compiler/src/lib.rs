//! # bow-compiler — the analyses behind BOW-WR's write-back hints
//!
//! BOW-WR relies on the compiler to decide, per destination register, where
//! a computed value should be written (§IV-B of the paper): only to the
//! register-file banks (no reuse inside the instruction window), only to the
//! bypassing operand collector (a *transient* value, consumed entirely
//! inside the window), or to both (reused in the window but live beyond it).
//!
//! This crate provides that pipeline from scratch:
//!
//! * [`analysis`] — the per-kernel bundle every pass below reads: CFG,
//!   dominators, the operand table and may-live, built once per kernel;
//! * [`mod@cfg`] — basic-block construction over the BOW ISA, with
//!   dominator and post-dominator trees;
//! * [`mod@barrier`] — the stack-less divergence lowering: `ssy`/`sync`
//!   rewritten to convergence barriers (`bssy`/`bsync`), validated against
//!   the post-dominator tree;
//! * [`liveness`] — classic backward may-live dataflow to a fixpoint;
//! * [`hints`] — the sliding-extended-window reuse analysis that assigns
//!   each instruction its 2-bit [`WritebackHint`](bow_isa::WritebackHint),
//!   plus the transient-register accounting that shrinks the effective RF;
//! * [`regset`] — a dense 256-bit register set used by the dataflow;
//! * [`reorder`] — the bypass-aware scheduler the paper's footnote 1 leaves
//!   as future work: shrinks producer→consumer distances inside blocks so
//!   more reuse falls within the window;
//! * [`mod@ctrl`] — the post-Volta control-bits emitter: stall counts and
//!   wait/read/write dependence barriers for the modern core's
//!   scoreboard-free issue stage ([`bow_isa::Kernel::ctrl`]);
//! * [`verify`] — the independent static-analysis framework: a generic
//!   dataflow engine, the path-sensitive hint-soundness verifier, and the
//!   `B001..` lint suite behind `bow-cli lint` (see `docs/ANALYSIS.md`).
//!
//! The entry point is [`annotate`]:
//!
//! ```
//! use bow_isa::{KernelBuilder, Reg, Operand, WritebackHint};
//! let r = Reg::r;
//! let k = KernelBuilder::new("snippet")
//!     .mov_imm(r(2), 10)
//!     .iadd(r(1), r(2).into(), Operand::Imm(1)) // r2's only use: next inst
//!     .ldc(r(0), 0)
//!     .stg(r(0), 0, r(1).into())
//!     .exit()
//!     .build()?;
//! let (annotated, report) = bow_compiler::annotate(&k, 3);
//! assert_eq!(annotated.insts[0].hint, WritebackHint::BocOnly);
//! assert!(report.transient_regs.contains(&r(2)));
//! # Ok::<(), bow_isa::KernelError>(())
//! ```

pub mod analysis;
pub mod barrier;
pub mod cfg;
pub mod characterize;
pub mod ctrl;
pub mod divergence;
pub mod hints;
pub mod liveness;
pub mod regset;
pub mod reorder;
pub mod verify;

pub use analysis::Analysis;
pub use barrier::{lower_to_barriers, LowerError};
pub use cfg::{Cfg, Dominators, PostDominators};
pub use characterize::{characterize, characterize_with, KernelTraits};
pub use ctrl::{ctrl_bits, emit_ctrl, CtrlLatencies};
pub use divergence::{check_structure, StructureIssue, StructureReport};
pub use hints::{annotate, annotate_with, classify_kernel, CompilerReport, HintClass};
pub use liveness::Liveness;
pub use regset::RegSet;
pub use reorder::reorder_for_bypass;
pub use verify::{
    annotate_checked, explain, lint_kernel, lint_with, verify_hints, verify_hints_with, Diagnostic,
    HintAudit, HintVerdict, LintDoc, LintOptions, LintReport, Severity, LINT_DOCS,
};
