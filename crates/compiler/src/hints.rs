//! Window-reuse classification and write-back hint assignment (§IV-B).
//!
//! For every instruction that produces a register value, the pass walks
//! forward through the enclosing basic block simulating the *sliding
//! extended instruction window*: the value is forwardable for `window`
//! instructions after its last touch, and each in-window read extends its
//! presence. The walk ends in one of four ways and yields the hint:
//!
//! | outcome                              | reuse in window | hint      |
//! |--------------------------------------|-----------------|-----------|
//! | overwritten while still present      | any             | `BocOnly` |
//! | expires, dead afterwards             | any             | `BocOnly` |
//! | expires, still live                  | yes             | `Both`    |
//! | expires, still live                  | no              | `RfOnly`  |
//!
//! Guarded (`@p`) instructions are handled conservatively on both sides of
//! the walk: a guarded redefinition of the tracked register is only a
//! *may*-kill (squashed when the predicate is false, leaving the old value
//! architectural), so it neither classifies the earlier write `BocOnly`
//! nor stops the scan — the old value's later reads still count.
//!
//! At a block boundary the analysis is conservative: a value still present
//! when the block ends is treated as escaping with unknown distance, so it
//! keeps an RF write unless it is dead on every successor path. This is the
//! same conservatism the paper adopts for branches, and it is what makes
//! `BocOnly` *safe*: a transient value is never needed from the RF.
//!
//! A write may land while an *older* value of the same register is still
//! buffered in the window (classified independently, e.g. across blocks).
//! That is safe regardless of the hints involved because the write-back
//! port consolidates same-register entries: `Both`/`BocOnly` write-backs
//! upsert the buffered entry in place, and an `RfOnly` write-back
//! invalidates it, so a superseded copy can neither forward to a later
//! read nor write back over the newer value.

use crate::analysis::Analysis;
use crate::regset::RegSet;
use bow_isa::{Kernel, Reg, WritebackHint};

/// The classification of one static write (mirrors [`WritebackHint`] but
/// carries the reporting name used by Fig. 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HintClass {
    /// No reuse inside the window: write only to the RF banks.
    RfOnly,
    /// Reused inside the window and live after it: OC then RF.
    Persistent,
    /// Transient: consumed entirely inside the window.
    Transient,
}

impl HintClass {
    /// The hardware hint this class encodes to.
    pub fn to_hint(self) -> WritebackHint {
        match self {
            HintClass::RfOnly => WritebackHint::RfOnly,
            HintClass::Persistent => WritebackHint::Both,
            HintClass::Transient => WritebackHint::BocOnly,
        }
    }
}

/// Static summary of the hint pass.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CompilerReport {
    /// Static writes classified `RfOnly`.
    pub rf_only: usize,
    /// Static writes classified persistent (`Both`).
    pub persistent: usize,
    /// Static writes classified transient (`BocOnly`).
    pub transient: usize,
    /// Registers whose every write is transient and that are never read
    /// before being written — they need no RF allocation at all.
    pub transient_regs: Vec<Reg>,
    /// Registers the kernel uses in total.
    pub used_regs: usize,
}

impl CompilerReport {
    /// Total classified writes.
    pub fn total_writes(&self) -> usize {
        self.rf_only + self.persistent + self.transient
    }

    /// Fraction of the architectural registers that need no RF storage —
    /// the "effective RF size" reduction of §IV-B.
    pub fn rf_reduction(&self) -> f64 {
        if self.used_regs == 0 {
            0.0
        } else {
            self.transient_regs.len() as f64 / self.used_regs as f64
        }
    }
}

/// Classifies one write: the instruction at `pc` (which defines `d`),
/// walked forward within its block under window size `w`.
fn classify_write(an: &Analysis, pc: usize, d: Reg, w: usize) -> HintClass {
    let bi = an.cfg().block_of(pc);
    let end = an.cfg().blocks()[bi].end;
    let ops = an.ops();
    let mut last_touch = pc;
    let mut read_in_window = false;
    for (j, op) in ops.iter().enumerate().take(end).skip(pc + 1) {
        if j - last_touch >= w {
            // The value expired at instruction `last_touch + w`. Is it still
            // live there? Scan on from j for the next access in-block.
            return expiry_class(an, bi, j, d, read_in_window);
        }
        if op.reads(d) {
            read_in_window = true;
            last_touch = j;
        }
        // A guarded redefinition is only a may-kill: when its predicate is
        // false the old value is still the architectural one and later
        // reads demand it, so it neither ends the walk nor re-touches.
        if op.kill() == Some(d) {
            // Overwritten while still present: every prior use was captured
            // by the window, the RF never needs this value.
            return HintClass::Transient;
        }
    }
    // Block ended with the value still present.
    escape_class(an, bi, d, read_in_window)
}

/// The value of `d` expired at in-block position `j`. Decide by its next
/// in-block access (or block liveness when there is none).
fn expiry_class(an: &Analysis, bi: usize, j: usize, d: Reg, read_in_window: bool) -> HintClass {
    let end = an.cfg().blocks()[bi].end;
    for op in &an.ops()[j..end] {
        if op.reads(d) {
            // Read after expiry: the RF must hold the value.
            return if read_in_window {
                HintClass::Persistent
            } else {
                HintClass::RfOnly
            };
        }
        if op.kill() == Some(d) {
            // Overwritten without an intervening read: dead after expiry.
            // (A guarded overwrite may not execute and is no kill.)
            return HintClass::Transient;
        }
    }
    escape_class(an, bi, d, read_in_window)
}

/// A value of `d` still unresolved at the end of block `bi`: it needs the
/// RF exactly when it is live out.
fn escape_class(an: &Analysis, bi: usize, d: Reg, read_in_window: bool) -> HintClass {
    if !an.live_out(bi).contains(d) {
        HintClass::Transient
    } else if read_in_window {
        HintClass::Persistent
    } else {
        HintClass::RfOnly
    }
}

/// Classifies every register-writing instruction of `kernel` under window
/// size `window`, without modifying the kernel.
pub fn classify_kernel(kernel: &Kernel, window: u32) -> Vec<(usize, HintClass)> {
    classify_with(&Analysis::new(kernel), window).collect()
}

/// [`classify_kernel`] over a kernel's analysis bundle, in pc order.
fn classify_with(an: &Analysis, window: u32) -> impl Iterator<Item = (usize, HintClass)> + '_ {
    let w = window as usize;
    an.ops()
        .iter()
        .enumerate()
        .filter_map(move |(pc, op)| op.def.map(|d| (pc, classify_write(an, pc, d, w))))
}

/// Runs the full §IV-B pass: returns a copy of `kernel` with every
/// destination's [`WritebackHint`] set for window size `window`, plus the
/// static [`CompilerReport`].
pub fn annotate(kernel: &Kernel, window: u32) -> (Kernel, CompilerReport) {
    annotate_with(kernel, &Analysis::new(kernel), window)
}

/// [`annotate`] over `kernel`'s analysis bundle.
pub fn annotate_with(kernel: &Kernel, an: &Analysis, window: u32) -> (Kernel, CompilerReport) {
    debug_assert!(an.describes(kernel), "the bundle of another kernel");
    let mut out = kernel.clone();
    let mut report = CompilerReport::default();

    // Per register: used at all, written, written non-transiently.
    let mut written = RegSet::new();
    let mut nontransient_write = RegSet::new();
    let mut used = RegSet::new();

    for (pc, class) in classify_with(an, window) {
        out.insts[pc].hint = class.to_hint();
        match class {
            HintClass::RfOnly => report.rf_only += 1,
            HintClass::Persistent => report.persistent += 1,
            HintClass::Transient => report.transient += 1,
        }
        let d = an.ops()[pc].def.expect("classified writes have a dst");
        written.insert(d);
        if class != HintClass::Transient {
            nontransient_write.insert(d);
        }
    }
    for op in an.ops() {
        used.union_with(&op.reads);
    }
    used.union_with(&written);
    report.used_regs = used.len();
    let mut transient = written;
    transient.subtract(&nontransient_write);
    transient.subtract(&an.entry_live());
    report.transient_regs = transient.iter().collect();
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    #[test]
    fn overwrite_within_window_is_transient() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1)
            .iadd(r(1), r(1).into(), Operand::Imm(1))
            .ldc(r(0), 0)
            .stg(r(0), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0], (0, HintClass::Transient), "r1 overwritten next inst");
    }

    #[test]
    fn reuse_beyond_window_is_rf_only() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1) //   0: def r1
            .mov_imm(r(2), 2) //   1
            .mov_imm(r(3), 3) //   2
            .mov_imm(r(4), 4) //   3
            .iadd(r(5), r(1).into(), Operand::Imm(0)) // 4: first use, distance 4
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0].1, HintClass::RfOnly);
    }

    #[test]
    fn reuse_inside_then_outside_is_persistent() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1) //   0: def r1
            .iadd(r(2), r(1).into(), Operand::Imm(0)) // 1: in-window use
            .mov_imm(r(3), 3) //   2
            .mov_imm(r(4), 4) //   3
            .mov_imm(r(5), 5) //   4
            .iadd(r(6), r(1).into(), Operand::Imm(0)) // 5: beyond extension
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0].1, HintClass::Persistent);
    }

    #[test]
    fn extension_keeps_chains_transient() {
        // Reads at distance 2 repeatedly, dead at the end: the extended
        // window covers the whole chain.
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1) // 0
            .nop() //            1
            .iadd(r(2), r(1).into(), Operand::Imm(0)) // 2
            .nop() //            3
            .iadd(r(3), r(1).into(), Operand::Imm(0)) // 4
            .ldc(r(0), 0)
            .stg(r(0), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(
            c[0].1,
            HintClass::Transient,
            "chain reads keep it present; dead after"
        );
    }

    #[test]
    fn live_out_of_block_forces_rf() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1) // B0: def r1, then branch
            .bra_if(Pred::p(0), false, "far")
            .nop()
            .label("far")
            .iadd(r(2), r(1).into(), Operand::Imm(0)) // use in another block
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0].1, HintClass::RfOnly, "conservative across blocks");
    }

    #[test]
    fn annotate_sets_hints_and_counts() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .ldc(r(0), 0)
            .stg(r(0), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        let (annotated, report) = annotate(&k, 3);
        assert_eq!(annotated.insts[0].hint, WritebackHint::BocOnly);
        assert_eq!(report.total_writes(), 3); // mov, iadd, ldc (stg has no dst)
        assert!(report.transient > 0);
        assert!(report.transient_regs.contains(&r(1)));
        assert!(report.rf_reduction() > 0.0);
    }

    #[test]
    fn loop_carried_registers_are_not_transient() {
        let k = KernelBuilder::new("loop")
            .mov_imm(r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(10))
            .bra_if(Pred::p(0), false, "top")
            .ldc(r(1), 0)
            .stg(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let (_, report) = annotate(&k, 3);
        assert!(
            !report.transient_regs.contains(&r(0)),
            "r0 crosses the back edge and must live in the RF"
        );
    }

    #[test]
    fn table_one_structure_holds() {
        // A condensed version of the paper's Fig. 6 dataflow: r1 updated
        // three times in a row then used once later; with hints only the
        // final value (plus genuinely persistent ones) reaches the RF.
        let k = KernelBuilder::new("fig6")
            .mov_imm(r(1), 1) //  overwritten at +1 -> transient
            .iadd(r(1), r(1).into(), Operand::Imm(1)) // overwritten at +1 -> transient
            .iadd(r(1), r(1).into(), Operand::Imm(1)) // used at +4 -> rf-only/persistent
            .mov_imm(r(2), 0)
            .mov_imm(r(3), 0)
            .mov_imm(r(4), 0)
            .iadd(r(5), r(1).into(), Operand::Imm(0))
            .ldc(r(0), 0)
            .stg(r(0), 0, r(5).into())
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0].1, HintClass::Transient);
        assert_eq!(c[1].1, HintClass::Transient);
        assert_eq!(c[2].1, HintClass::RfOnly);
    }

    #[test]
    fn cross_block_rf_only_overwrite_of_a_buffered_value_is_annotated() {
        // B0 defines r1 (in-window read, live-out via the fallthrough arm's
        // read -> Persistent/Both); the join block redefines r1 with no
        // in-window reuse and a late read (-> RfOnly). On the taken path
        // the redef lands while the B0 entry is still buffered — safe only
        // because the write-back port invalidates the superseded entry
        // (see the module docs); the verifier must agree.
        let k = KernelBuilder::new("waw")
            .mov_imm(r(1), 1) //                           0: def, Both
            .iadd(r(2), r(1).into(), Operand::Imm(0)) //   1: in-window read
            .bra_if(Pred::p(0), false, "skip") //          2
            .iadd(r(3), r(1).into(), Operand::Imm(0)) //   3: keeps r1 live-out
            .label("skip")
            .mov_imm(r(1), 2) //                           4: redef at age 2 (taken path)
            .nop()
            .nop()
            .nop()
            .nop()
            .nop()
            .ldc(r(0), 0)
            .stg(r(0), 0, r(1).into()) //                 11: read past window
            .exit()
            .build()
            .unwrap();
        let (out, _) = annotate(&k, 4);
        assert_eq!(out.insts[0].hint, WritebackHint::Both);
        assert_eq!(out.insts[4].hint, WritebackHint::RfOnly);
        assert!(crate::verify::verify_hints(&out, 4).is_sound());
    }

    #[test]
    fn guarded_overwrite_does_not_make_the_prior_def_transient() {
        // def r1, then a *guarded* redefinition inside the window, then a
        // read far past it. If the predicate is false at runtime the read
        // needs the first def's value from the RF, so the first def must
        // keep its RF write — classifying it Transient (as an unguarded
        // overwrite would) loses the value.
        let k = KernelBuilder::new("gkill")
            .mov_imm(r(1), 1) // 0: def under scrutiny
            .guard(Pred::p(3), false)
            .mov_imm(r(1), 2) // 1: @p3 may-kill only
            .nop() //            2
            .nop() //            3
            .nop() //            4
            .iadd(r(2), r(1).into(), Operand::Imm(0)) // 5: read past window
            .ldc(r(0), 0)
            .stg(r(0), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        let c = classify_kernel(&k, 3);
        assert_eq!(c[0].1, HintClass::RfOnly, "guarded redef must not kill");
        // The same shape with the guard removed is a genuine kill.
        let k2 = KernelBuilder::new("ukill")
            .mov_imm(r(1), 1)
            .mov_imm(r(1), 2)
            .nop()
            .nop()
            .nop()
            .iadd(r(2), r(1).into(), Operand::Imm(0))
            .ldc(r(0), 0)
            .stg(r(0), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        assert_eq!(classify_kernel(&k2, 3)[0].1, HintClass::Transient);
    }

    #[test]
    fn annotated_guarded_kernels_pass_the_independent_verifier() {
        // Producer/verifier agreement on the predicated-kill corner: the
        // annotator's output must be accepted by `verify_hints` even when
        // guarded redefinitions sit between defs and distant reads (the
        // fuzz corpus exercises exactly this shape).
        let k = KernelBuilder::new("agree")
            .mov_imm(r(1), 1)
            .guard(Pred::p(3), true)
            .iadd(r(1), r(1).into(), Operand::Imm(5))
            .nop()
            .nop()
            .nop()
            .ldc(r(0), 0)
            .stg(r(0), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let (out, _) = annotate(&k, 3);
        assert!(crate::verify::verify_hints(&out, 3).is_sound());
    }

    #[test]
    fn window_size_changes_classification() {
        let k = KernelBuilder::new("t")
            .mov_imm(r(1), 1) // def
            .nop()
            .nop()
            .iadd(r(2), r(1).into(), Operand::Imm(0)) // distance 3
            .ldc(r(0), 0)
            .stg(r(0), 0, r(2).into())
            .exit()
            .build()
            .unwrap();
        assert_eq!(classify_kernel(&k, 3)[0].1, HintClass::RfOnly);
        assert_eq!(classify_kernel(&k, 4)[0].1, HintClass::Transient);
    }
}
