//! A fluent builder for constructing kernels programmatically.

use crate::error::KernelError;
use crate::inst::{Dst, Instruction, MemRef, PredGuard, WritebackHint};
use crate::kernel::Kernel;
use crate::opcode::{CmpOp, Opcode};
use crate::operand::{Operand, Special};
use crate::reg::{Pred, Reg};
use std::collections::HashMap;

/// Builds a [`Kernel`] incrementally, resolving symbolic labels to
/// instruction indices at [`build`](KernelBuilder::build) time.
///
/// The builder is the main programmatic entry point: the workload suite uses
/// it for every kernel. Each emitter appends one instruction and returns
/// `self` for chaining. `num_regs` and `param_words` are inferred from the
/// instructions unless set explicitly.
///
/// # Example
///
/// ```
/// use bow_isa::{KernelBuilder, Reg, Operand, CmpOp, Pred};
/// let r = Reg::r;
/// let k = KernelBuilder::new("count")
///     .mov_imm(r(0), 0)
///     .label("loop")
///     .iadd(r(0), r(0).into(), Operand::Imm(1))
///     .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(10))
///     .bra_if(Pred::p(0), false, "loop")
///     .exit()
///     .build()?;
/// assert_eq!(k.num_regs, 1);
/// # Ok::<(), bow_isa::KernelError>(())
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    insts: Vec<Instruction>,
    labels: HashMap<String, usize>,
    pending_targets: Vec<(usize, String)>,
    shared_bytes: u32,
    num_regs: Option<u16>,
    param_words: Option<u16>,
    guard_next: Option<PredGuard>,
}

impl KernelBuilder {
    /// Starts a new kernel with the given name.
    pub fn new(name: impl Into<String>) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            insts: Vec::new(),
            labels: HashMap::new(),
            pending_targets: Vec::new(),
            shared_bytes: 0,
            num_regs: None,
            param_words: None,
            guard_next: None,
        }
    }

    /// Declares the shared-memory bytes each block allocates.
    pub fn shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Overrides the inferred per-thread register count.
    pub fn num_regs(mut self, n: u16) -> Self {
        self.num_regs = Some(n);
        self
    }

    /// Overrides the inferred parameter-word count.
    pub fn param_words(mut self, n: u16) -> Self {
        self.param_words = Some(n);
        self
    }

    /// Binds a label to the next emitted instruction.
    pub fn label(mut self, name: impl Into<String>) -> Self {
        self.labels.insert(name.into(), self.insts.len());
        self
    }

    /// Guards the *next* emitted instruction with `@p` (or `@!p`).
    pub fn guard(mut self, pred: Pred, negated: bool) -> Self {
        self.guard_next = Some(PredGuard { pred, negated });
        self
    }

    fn push(mut self, mut inst: Instruction) -> Self {
        if let Some(g) = self.guard_next.take() {
            inst.guard = Some(g);
        }
        self.insts.push(inst);
        self
    }

    /// Emits a raw, fully-formed instruction.
    pub fn raw(self, inst: Instruction) -> Self {
        self.push(inst)
    }

    // ----- data movement -----

    /// `mov d, src`.
    pub fn mov(self, d: Reg, src: Operand) -> Self {
        self.push(Instruction::new(Opcode::Mov, Dst::Reg(d), [src]))
    }

    /// `mov d, imm`.
    pub fn mov_imm(self, d: Reg, imm: u32) -> Self {
        self.mov(d, Operand::Imm(imm))
    }

    /// `s2r d, %special`.
    pub fn s2r(self, d: Reg, sp: Special) -> Self {
        self.push(Instruction::new(
            Opcode::S2R,
            Dst::Reg(d),
            vec![Operand::Special(sp)],
        ))
    }

    /// `sel d, a, b, p` — `d = p ? a : b`.
    pub fn sel(self, d: Reg, a: Operand, b: Operand, p: Pred) -> Self {
        self.push(Instruction::new(
            Opcode::Sel,
            Dst::Reg(d),
            vec![a, b, Operand::Pred(p)],
        ))
    }

    // ----- integer -----

    /// `iadd d, a, b`.
    pub fn iadd(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::IAdd, Dst::Reg(d), [a, b]))
    }

    /// `isub d, a, b`.
    pub fn isub(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::ISub, Dst::Reg(d), [a, b]))
    }

    /// `imul d, a, b`.
    pub fn imul(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::IMul, Dst::Reg(d), [a, b]))
    }

    /// `imad d, a, b, c` — `d = a*b + c`.
    pub fn imad(self, d: Reg, a: Operand, b: Operand, c: Operand) -> Self {
        self.push(Instruction::new(Opcode::IMad, Dst::Reg(d), [a, b, c]))
    }

    /// `imin d, a, b`.
    pub fn imin(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::IMin, Dst::Reg(d), [a, b]))
    }

    /// `imax d, a, b`.
    pub fn imax(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::IMax, Dst::Reg(d), [a, b]))
    }

    /// `iabs d, a`.
    pub fn iabs(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::IAbs, Dst::Reg(d), [a]))
    }

    /// `isad d, a, b, c` — `d = |a-b| + c`.
    pub fn isad(self, d: Reg, a: Operand, b: Operand, c: Operand) -> Self {
        self.push(Instruction::new(Opcode::ISad, Dst::Reg(d), [a, b, c]))
    }

    // ----- logic & shift -----

    /// `and d, a, b`.
    pub fn and(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::And, Dst::Reg(d), [a, b]))
    }

    /// `or d, a, b`.
    pub fn or(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::Or, Dst::Reg(d), [a, b]))
    }

    /// `xor d, a, b`.
    pub fn xor(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::Xor, Dst::Reg(d), [a, b]))
    }

    /// `not d, a`.
    pub fn not(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::Not, Dst::Reg(d), [a]))
    }

    /// `shl d, a, b`.
    pub fn shl(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::Shl, Dst::Reg(d), [a, b]))
    }

    /// `shr d, a, b` (logical).
    pub fn shr(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::Shr, Dst::Reg(d), [a, b]))
    }

    /// `sar d, a, b` (arithmetic).
    pub fn sar(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::Sar, Dst::Reg(d), [a, b]))
    }

    // ----- float -----

    /// `fadd d, a, b`.
    pub fn fadd(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::FAdd, Dst::Reg(d), [a, b]))
    }

    /// `fsub d, a, b`.
    pub fn fsub(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::FSub, Dst::Reg(d), [a, b]))
    }

    /// `fmul d, a, b`.
    pub fn fmul(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::FMul, Dst::Reg(d), [a, b]))
    }

    /// `ffma d, a, b, c` — `d = a*b + c`.
    pub fn ffma(self, d: Reg, a: Operand, b: Operand, c: Operand) -> Self {
        self.push(Instruction::new(Opcode::FFma, Dst::Reg(d), [a, b, c]))
    }

    /// `fmin d, a, b`.
    pub fn fmin(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::FMin, Dst::Reg(d), [a, b]))
    }

    /// `fmax d, a, b`.
    pub fn fmax(self, d: Reg, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(Opcode::FMax, Dst::Reg(d), [a, b]))
    }

    /// `frcp d, a`.
    pub fn frcp(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::FRcp, Dst::Reg(d), [a]))
    }

    /// `fsqrt d, a`.
    pub fn fsqrt(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::FSqrt, Dst::Reg(d), [a]))
    }

    /// `flog2 d, a`.
    pub fn flog2(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::FLog2, Dst::Reg(d), [a]))
    }

    /// `fexp2 d, a`.
    pub fn fexp2(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::FExp2, Dst::Reg(d), [a]))
    }

    /// `i2f d, a`.
    pub fn i2f(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::I2F, Dst::Reg(d), [a]))
    }

    /// `f2i d, a`.
    pub fn f2i(self, d: Reg, a: Operand) -> Self {
        self.push(Instruction::new(Opcode::F2I, Dst::Reg(d), [a]))
    }

    // ----- compares -----

    /// `isetp.<op> p, a, b`.
    pub fn isetp(self, op: CmpOp, p: Pred, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(
            Opcode::ISetp(op),
            Dst::Pred(p),
            vec![a, b],
        ))
    }

    /// `fsetp.<op> p, a, b`.
    pub fn fsetp(self, op: CmpOp, p: Pred, a: Operand, b: Operand) -> Self {
        self.push(Instruction::new(
            Opcode::FSetp(op),
            Dst::Pred(p),
            vec![a, b],
        ))
    }

    // ----- memory -----

    /// `ldg d, [base+off]` — global load.
    pub fn ldg(self, d: Reg, base: Reg, off: i32) -> Self {
        let mut i = Instruction::new(Opcode::Ldg, Dst::Reg(d), []);
        i.mem = Some(MemRef { base, offset: off });
        self.push(i)
    }

    /// `stg [base+off], v` — global store.
    pub fn stg(self, base: Reg, off: i32, v: Operand) -> Self {
        let mut i = Instruction::new(Opcode::Stg, Dst::None, [v]);
        i.mem = Some(MemRef { base, offset: off });
        self.push(i)
    }

    /// `lds d, [base+off]` — shared-memory load.
    pub fn lds(self, d: Reg, base: Reg, off: i32) -> Self {
        let mut i = Instruction::new(Opcode::Lds, Dst::Reg(d), []);
        i.mem = Some(MemRef { base, offset: off });
        self.push(i)
    }

    /// `sts [base+off], v` — shared-memory store.
    pub fn sts(self, base: Reg, off: i32, v: Operand) -> Self {
        let mut i = Instruction::new(Opcode::Sts, Dst::None, [v]);
        i.mem = Some(MemRef { base, offset: off });
        self.push(i)
    }

    /// `ldc d, c[byte_off]` — kernel-parameter load.
    pub fn ldc(self, d: Reg, byte_off: i32) -> Self {
        let mut i = Instruction::new(Opcode::Ldc, Dst::Reg(d), []);
        i.mem = Some(MemRef {
            base: Reg::RZ,
            offset: byte_off,
        });
        self.push(i)
    }

    // ----- control -----

    /// Unconditional `bra label`.
    pub fn bra(mut self, label: impl Into<String>) -> Self {
        let pc = self.insts.len();
        self.pending_targets.push((pc, label.into()));
        self.push(Instruction::new(Opcode::Bra, Dst::None, []))
    }

    /// Guarded `@p bra label` (or `@!p` when `negated`).
    pub fn bra_if(mut self, pred: Pred, negated: bool, label: impl Into<String>) -> Self {
        let pc = self.insts.len();
        self.pending_targets.push((pc, label.into()));
        let mut i = Instruction::new(Opcode::Bra, Dst::None, []);
        i.guard = Some(PredGuard { pred, negated });
        self.push(i)
    }

    /// `ssy label` — push the reconvergence point for the divergent region
    /// that follows.
    pub fn ssy(mut self, label: impl Into<String>) -> Self {
        let pc = self.insts.len();
        self.pending_targets.push((pc, label.into()));
        self.push(Instruction::new(Opcode::Ssy, Dst::None, []))
    }

    /// `sync` — reconverge with the innermost `ssy`.
    pub fn sync(self) -> Self {
        self.push(Instruction::new(Opcode::Sync, Dst::None, []))
    }

    /// `bssy bN, label` — arm convergence barrier `bar` for the divergent
    /// region whose reconvergence point is `label` (stack-less model).
    pub fn bssy(mut self, bar: u8, label: impl Into<String>) -> Self {
        let pc = self.insts.len();
        self.pending_targets.push((pc, label.into()));
        self.push(Instruction::new(
            Opcode::Bssy,
            Dst::None,
            vec![Operand::Imm(u32::from(bar))],
        ))
    }

    /// `bsync bN` — wait on convergence barrier `bar` and reconverge.
    pub fn bsync(self, bar: u8) -> Self {
        self.push(Instruction::new(
            Opcode::Bsync,
            Dst::None,
            vec![Operand::Imm(u32::from(bar))],
        ))
    }

    /// `bar` — block-wide barrier.
    pub fn bar(self) -> Self {
        self.push(Instruction::new(Opcode::Bar, Dst::None, []))
    }

    /// `exit`.
    pub fn exit(self) -> Self {
        self.push(Instruction::new(Opcode::Exit, Dst::None, []))
    }

    /// `nop`.
    pub fn nop(self) -> Self {
        self.push(Instruction::new(Opcode::Nop, Dst::None, []))
    }

    /// Sets the write-back hint on the most recently emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if no instruction has been emitted yet.
    pub fn hint(mut self, hint: WritebackHint) -> Self {
        self.insts
            .last_mut()
            .expect("hint() requires a previously emitted instruction")
            .hint = hint;
        self
    }

    /// Resolves labels, infers resource counts and validates the kernel.
    ///
    /// # Errors
    ///
    /// Returns [`KernelError`] if a label is undefined or validation fails.
    pub fn build(mut self) -> Result<Kernel, KernelError> {
        for (pc, label) in std::mem::take(&mut self.pending_targets) {
            let Some(&t) = self.labels.get(&label) else {
                return Err(KernelError::Instruction {
                    kernel: self.name.clone(),
                    pc,
                    msg: format!("undefined label `{label}`"),
                });
            };
            self.insts[pc].target = Some(t);
        }
        let inferred_regs = self
            .insts
            .iter()
            .flat_map(|i| i.src_regs().into_iter().chain(i.dst_reg()))
            .map(|r| u16::from(r.index()) + 1)
            .max()
            .unwrap_or(0);
        let inferred_params = self
            .insts
            .iter()
            .filter(|i| i.op == Opcode::Ldc)
            .filter_map(|i| i.mem.map(|m| (m.offset / 4 + 1) as u16))
            .max()
            .unwrap_or(0);
        let kernel = Kernel {
            name: self.name,
            insts: self.insts,
            num_regs: self.num_regs.unwrap_or(inferred_regs),
            shared_bytes: self.shared_bytes,
            param_words: self.param_words.unwrap_or(inferred_params),
            ctrl: Vec::new(),
        };
        kernel.validate()?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let r = Reg::r;
        let k = KernelBuilder::new("labels")
            .bra("end")
            .label("back")
            .iadd(r(0), r(0).into(), Operand::Imm(1))
            .bra("back")
            .label("end")
            .exit()
            .build()
            .unwrap();
        assert_eq!(k.insts[0].target, Some(3));
        assert_eq!(k.insts[2].target, Some(1));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let err = KernelBuilder::new("bad")
            .bra("nowhere")
            .exit()
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("undefined label"));
    }

    #[test]
    fn resources_are_inferred() {
        let r = Reg::r;
        let k = KernelBuilder::new("inferred")
            .ldc(r(9), 12)
            .iadd(r(3), r(9).into(), Operand::Imm(1))
            .exit()
            .build()
            .unwrap();
        assert_eq!(k.num_regs, 10); // r9 is the highest register
        assert_eq!(k.param_words, 4); // c[12] => params 0..=3
    }

    #[test]
    fn guard_applies_to_next_instruction_only() {
        let r = Reg::r;
        let k = KernelBuilder::new("guarded")
            .guard(Pred::p(0), false)
            .mov_imm(r(0), 1)
            .mov_imm(r(1), 2)
            .exit()
            .build()
            .unwrap();
        assert!(k.insts[0].guard.is_some());
        assert!(k.insts[1].guard.is_none());
    }

    #[test]
    fn hint_tags_last_instruction() {
        let r = Reg::r;
        let k = KernelBuilder::new("hinted")
            .mov_imm(r(0), 1)
            .hint(WritebackHint::BocOnly)
            .exit()
            .build()
            .unwrap();
        assert_eq!(k.insts[0].hint, WritebackHint::BocOnly);
    }

    #[test]
    fn built_kernels_are_valid() {
        let r = Reg::r;
        let k = KernelBuilder::new("all")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .shl(r(2), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(2).into())
            .ldg(r(3), r(1), 0)
            .ffma(r(3), r(3).into(), Operand::fimm(2.0), Operand::fimm(1.0))
            .stg(r(1), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        assert!(k.validate().is_ok());
        assert_eq!(k.len(), 8);
    }
}
