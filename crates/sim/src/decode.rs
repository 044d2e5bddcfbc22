//! Per-launch instruction decode: everything the per-cycle path asks of
//! an instruction, computed once.
//!
//! The issue scan visits every resident warp several times per SM-cycle
//! and each visit needs the instruction's hazard footprint; collection,
//! dispatch and writeback need its register lists, destination and
//! functional unit. All of that is a pure function of the instruction, so
//! a launch decodes its kernel into one read-only [`InstMeta`] table
//! ([`DecodedKernel`]) that every SM — and every engine thread — shares.
//! The footprint is kept as bit masks so a scoreboard check is a handful
//! of `AND`s, and the lists are inline, so nothing past the decode
//! touches the heap.

use bow_isa::{FuClass, Instruction, Kernel, Opcode, Pred, Reg, RegList};
use std::ops::Deref;

/// A set of architectural registers, one bit each (`R0`..`R254`).
pub type RegSet = [u64; 4];

/// Whether `r` is in `s`.
pub fn set_get(s: &RegSet, r: Reg) -> bool {
    let i = usize::from(r.index());
    s[i / 64] >> (i % 64) & 1 == 1
}

/// Adds `r` to `s` (`val`) or removes it.
pub fn set_put(s: &mut RegSet, r: Reg, val: bool) {
    let i = usize::from(r.index());
    if val {
        s[i / 64] |= 1 << (i % 64);
    } else {
        s[i / 64] &= !(1 << (i % 64));
    }
}

/// The decoded form of one [`Instruction`]: each field equals the
/// accessor it is named after.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstMeta {
    /// [`Instruction::src_regs`]: every register read, duplicates kept.
    pub src_regs: RegList,
    /// [`Instruction::unique_src_regs`], first-occurrence order — the
    /// collector's fetch list and the bypass window's touch order.
    pub unique_src_regs: RegList,
    /// `src_regs` as a set.
    pub src_mask: RegSet,
    /// `dst_reg` as a set (empty or one bit).
    pub dst_mask: RegSet,
    /// [`Instruction::src_preds`] (guard included) as a bit per predicate.
    pub src_preds: u8,
    /// `dst_pred` as a bit (zero when there is none).
    pub dst_pred_mask: u8,
    /// [`Instruction::dst_reg`].
    pub dst_reg: Option<Reg>,
    /// The destination predicate (`dst.pred()`).
    pub dst_pred: Option<Pred>,
    /// The functional unit (`op.fu_class()`).
    pub fu: FuClass,
    /// `op.is_control()`: resolves at issue, never enters a collector.
    pub is_control: bool,
    /// `op.is_memory()`.
    pub is_memory: bool,
    /// A control op (`exit`, `bar`) that waits for its warp's in-flight
    /// instructions to drain before it issues.
    pub needs_drain: bool,
}

impl InstMeta {
    /// Decodes `inst`.
    pub fn of(inst: &Instruction) -> InstMeta {
        let src_regs = inst.src_regs();
        let mut src_mask = [0; 4];
        for &r in &src_regs {
            set_put(&mut src_mask, r, true);
        }
        let dst_reg = inst.dst_reg();
        let mut dst_mask = [0; 4];
        if let Some(d) = dst_reg {
            set_put(&mut dst_mask, d, true);
        }
        let dst_pred = inst.dst.pred();
        InstMeta {
            src_regs,
            unique_src_regs: inst.unique_src_regs(),
            src_mask,
            dst_mask,
            src_preds: inst.src_preds().iter().fold(0, |m, p| m | 1 << p.index()),
            dst_pred_mask: dst_pred.map_or(0, |p| 1 << p.index()),
            dst_reg,
            dst_pred,
            fu: inst.op.fu_class(),
            is_control: inst.op.is_control(),
            is_memory: inst.op.is_memory(),
            needs_drain: matches!(inst.op, Opcode::Exit | Opcode::Bar),
        }
    }
}

/// A kernel with its decode table: what a launch hands the SMs. It
/// dereferences to the [`Kernel`], so code that only reads the kernel
/// takes it as is.
#[derive(Clone, Debug)]
pub struct DecodedKernel<'k> {
    kernel: &'k Kernel,
    /// `meta[pc]` decodes `kernel.insts[pc]`.
    pub meta: Vec<InstMeta>,
}

impl<'k> DecodedKernel<'k> {
    /// Decodes every instruction of `kernel`.
    pub fn new(kernel: &'k Kernel) -> DecodedKernel<'k> {
        DecodedKernel {
            kernel,
            meta: kernel.insts.iter().map(InstMeta::of).collect(),
        }
    }
}

impl Deref for DecodedKernel<'_> {
    type Target = Kernel;

    fn deref(&self) -> &Kernel {
        self.kernel
    }
}
