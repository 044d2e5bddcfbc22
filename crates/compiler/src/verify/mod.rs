//! Static-analysis framework over `bow-isa` kernels.
//!
//! Three layers, each usable on its own (see `docs/ANALYSIS.md`):
//!
//! * [`dataflow`] — a generic forward/backward dataflow engine over
//!   [`Cfg`](crate::cfg::Cfg) + [`RegSet`](crate::regset::RegSet) lattices;
//!   `Liveness` is now one instantiation of it.
//! * [`residency`] — the hint-soundness verifier: a path-sensitive abstract
//!   interpretation of operand-window residency, algorithmically independent
//!   of the hint *producer* in `hints.rs`.
//! * [`lints`] — the `B001..` lint suite, reported through [`diag`] in
//!   rustc style or JSON.
//!
//! [`annotate_checked`] composes producer and verifier: annotate, then
//! refuse the result unless the independent audit agrees it is sound.

pub mod dataflow;
pub mod diag;
pub mod interval;
pub mod lints;
pub mod residency;

pub use diag::{BlockPressure, Diagnostic, LintReport, Severity};
pub use lints::{explain, lint_kernel, lint_with, LintDoc, LintOptions, LINT_DOCS};
pub use residency::{verify_hints, verify_hints_with, HintAudit, HintFinding, HintVerdict};

use crate::analysis::Analysis;
use crate::hints::{annotate_with, CompilerReport};
use bow_isa::Kernel;

/// Annotates `kernel` with write-back hints and then verifies the result
/// with the independent residency audit.
///
/// # Errors
///
/// Returns the failing [`HintAudit`] if the verifier finds any unsound hint
/// in the annotated kernel — which would mean the producer and the verifier
/// disagree about the window semantics and the kernel must not be trusted
/// to simulate correctly under BOW-WR.
pub fn annotate_checked(
    kernel: &Kernel,
    window: u32,
) -> Result<(Kernel, CompilerReport), Box<HintAudit>> {
    let an = Analysis::new(kernel);
    let (annotated, report) = annotate_with(kernel, &an, window);
    let audit = verify_hints_with(&annotated, &an, window as usize);
    if audit.is_sound() {
        Ok((annotated, report))
    } else {
        Err(Box::new(audit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Reg};

    #[test]
    fn annotate_checked_accepts_its_own_producer() {
        let r = Reg::r;
        let k = KernelBuilder::new("ok")
            .mov_imm(r(0), 3)
            .iadd(r(1), r(0).into(), Operand::Imm(4))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        for w in [1, 2, 3, 8, 64] {
            let res = annotate_checked(&k, w);
            assert!(res.is_ok(), "window {w}: {:?}", res.err());
        }
    }

    #[test]
    fn annotate_checked_rejects_a_corrupted_annotation() {
        use bow_isa::WritebackHint;
        let r = Reg::r;
        let mut b = KernelBuilder::new("bad").mov_imm(r(0), 3);
        for _ in 0..6 {
            b = b.nop();
        }
        let k = b
            .iadd(r(1), r(0).into(), Operand::Imm(4))
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        // The producer is sound; corrupt its output the way the mutation
        // sanitizer does and re-verify directly.
        let (mut annotated, _) = crate::hints::annotate(&k, 3);
        annotated.insts[0].hint = WritebackHint::BocOnly;
        let audit = verify_hints(&annotated, 3);
        assert!(!audit.is_sound(), "stale read at distance 7 > window 3");
    }
}
