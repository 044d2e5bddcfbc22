//! Instructions: destination kinds, memory references, predicate guards and
//! the compiler-facing write-back hint.

use crate::opcode::Opcode;
use crate::operand::Operand;
use crate::reg::{Pred, Reg};
use bow_util::InlineVec;
use std::fmt;

/// The registers one instruction reads, held inline: at most
/// [`MAX_SRC_OPERANDS`](crate::MAX_SRC_OPERANDS) data sources plus the
/// memory base. Reads like a `[Reg]` slice and iterates by value.
pub type RegList = InlineVec<Reg, { crate::MAX_SRC_OPERANDS + 1 }>;

/// The source operands of one instruction, held inline: at most
/// [`MAX_SRC_OPERANDS`](crate::MAX_SRC_OPERANDS), so cloning an
/// instruction (or a whole kernel's stream) never allocates per
/// instruction.
pub type SrcList = InlineVec<Operand, { crate::MAX_SRC_OPERANDS }>;

/// The predicates one instruction reads, held inline: the guard plus
/// at most [`MAX_SRC_OPERANDS`](crate::MAX_SRC_OPERANDS) predicate sources.
pub type PredList = InlineVec<Pred, { crate::MAX_SRC_OPERANDS + 1 }>;

/// Compiler-assigned write-back destination for a computed value (§IV-B).
///
/// BOW-WR encodes this with two bits in every instruction that has a
/// destination register: one enables the write to the bypassing operand
/// collector (BOC), the other enables the write-back to the register file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WritebackHint {
    /// Write to the BOC; write back to the RF on window eviction if still
    /// dirty. The default (un-annotated) behaviour of BOW-WR.
    #[default]
    Both,
    /// The value is not reused inside the instruction window: write it
    /// straight to the register file and skip the BOC entry.
    RfOnly,
    /// The value is *transient* — consumed entirely within the window — so
    /// it never needs a register-file write (or even an RF allocation).
    BocOnly,
}

impl WritebackHint {
    /// Whether the value should be placed in the bypass buffer.
    pub fn to_boc(self) -> bool {
        matches!(self, WritebackHint::Both | WritebackHint::BocOnly)
    }

    /// Whether the value must (eventually) reach the register file.
    pub fn to_rf(self) -> bool {
        matches!(self, WritebackHint::Both | WritebackHint::RfOnly)
    }

    /// The two-bit hardware encoding `(boc_enable, rf_enable)`.
    pub fn encode(self) -> (bool, bool) {
        (self.to_boc(), self.to_rf())
    }

    /// Decodes the two-bit encoding; `(false, false)` is not a meaningful
    /// hint (a value that goes nowhere) and decodes to `None`.
    pub fn decode(boc: bool, rf: bool) -> Option<WritebackHint> {
        match (boc, rf) {
            (true, true) => Some(WritebackHint::Both),
            (false, true) => Some(WritebackHint::RfOnly),
            (true, false) => Some(WritebackHint::BocOnly),
            (false, false) => None,
        }
    }
}

impl fmt::Display for WritebackHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WritebackHint::Both => "both",
            WritebackHint::RfOnly => "rf",
            WritebackHint::BocOnly => "boc",
        })
    }
}

/// The destination of an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Dst {
    /// No destination (stores, control flow).
    #[default]
    None,
    /// A general-purpose register.
    Reg(Reg),
    /// A predicate register (`isetp`/`fsetp`).
    Pred(Pred),
}

impl Dst {
    /// The destination register, if any (RZ writes are discarded and
    /// reported as `None`).
    pub fn reg(self) -> Option<Reg> {
        match self {
            Dst::Reg(r) if !r.is_zero() => Some(r),
            _ => None,
        }
    }

    /// The destination predicate, if any (PT writes are discarded).
    pub fn pred(self) -> Option<Pred> {
        match self {
            Dst::Pred(p) if !p.is_true_reg() => Some(p),
            _ => None,
        }
    }
}

/// A `[base + offset]` memory reference used by loads and stores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Register holding the per-thread base address.
    pub base: Reg,
    /// Signed byte offset added to the base.
    pub offset: i32,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.offset == 0 {
            write!(f, "[{}]", self.base)
        } else if self.offset < 0 {
            write!(f, "[{}-{}]", self.base, -(self.offset as i64))
        } else {
            write!(f, "[{}+{}]", self.base, self.offset)
        }
    }
}

/// An `@p` / `@!p` guard that predicates an instruction per thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PredGuard {
    /// The predicate register consulted.
    pub pred: Pred,
    /// If true the guard is `@!p` (execute where the predicate is false).
    pub negated: bool,
}

impl fmt::Display for PredGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negated {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// One machine instruction.
///
/// Construct instructions through [`KernelBuilder`](crate::KernelBuilder) or
/// the [assembler](crate::asm); direct construction is possible but
/// [`Instruction::validate`] should then be called (the kernel-level
/// validator does so for every instruction).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Instruction {
    /// The operation.
    pub op: Opcode,
    /// Optional per-thread predicate guard.
    pub guard: Option<PredGuard>,
    /// Destination register or predicate.
    pub dst: Dst,
    /// Data source operands (at most [`MAX_SRC_OPERANDS`], held inline).
    ///
    /// [`MAX_SRC_OPERANDS`]: crate::MAX_SRC_OPERANDS
    pub srcs: SrcList,
    /// Memory reference for loads/stores (`None` otherwise). For `ldc` the
    /// base is ignored and `offset` indexes the kernel parameter block.
    pub mem: Option<MemRef>,
    /// Branch / SSY target as an instruction index within the kernel.
    pub target: Option<usize>,
    /// Compiler-assigned write-back destination (meaningful only for
    /// instructions with a register destination; BOW-WR consumes it).
    pub hint: WritebackHint,
}

impl Instruction {
    /// Creates an instruction with no guard, no memory reference, no target
    /// and the default write-back hint.
    ///
    /// # Panics
    ///
    /// Panics if `srcs` yields more than
    /// [`MAX_SRC_OPERANDS`](crate::MAX_SRC_OPERANDS) operands.
    pub fn new(op: Opcode, dst: Dst, srcs: impl IntoIterator<Item = Operand>) -> Instruction {
        Instruction {
            op,
            guard: None,
            dst,
            srcs: srcs.into_iter().collect(),
            mem: None,
            target: None,
            hint: WritebackHint::default(),
        }
    }

    /// All general-purpose registers this instruction *reads*: data sources,
    /// the memory base register, and nothing else. RZ never appears.
    ///
    /// This is the set the operand collectors must fetch and therefore the
    /// set the bypass statistics count.
    pub fn src_regs(&self) -> RegList {
        let mut v: RegList = self.srcs.iter().filter_map(|o| o.reg()).collect();
        if let Some(m) = self.mem {
            if self.op != Opcode::Ldc && !m.base.is_zero() {
                v.push(m.base);
            }
        }
        v
    }

    /// Like [`src_regs`](Self::src_regs) but with duplicates removed,
    /// preserving first-occurrence order. An instruction reading `r2 * r2`
    /// occupies one collector entry and performs one RF read, not two.
    pub fn unique_src_regs(&self) -> RegList {
        let mut v = RegList::new();
        for r in self.src_regs() {
            if !v.contains(&r) {
                v.push(r);
            }
        }
        v
    }

    /// The general-purpose register this instruction writes, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        self.dst.reg()
    }

    /// Predicate registers read: the guard plus any predicate data source.
    pub fn src_preds(&self) -> PredList {
        let mut v = PredList::new();
        if let Some(g) = self.guard {
            if !g.pred.is_true_reg() {
                v.push(g.pred);
            }
        }
        for o in &self.srcs {
            if let Operand::Pred(p) = o {
                if !p.is_true_reg() {
                    v.push(*p);
                }
            }
        }
        v
    }

    /// Checks the structural invariants: operand count matches the opcode's
    /// arity, memory ops carry a [`MemRef`], branches carry a target, and
    /// destination kind matches what the opcode produces.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        use Opcode::*;
        if self.srcs.len() != self.op.arity() {
            return Err(format!(
                "{}: expected {} source operands, got {}",
                self.op,
                self.op.arity(),
                self.srcs.len()
            ));
        }
        let needs_mem = matches!(self.op, Ldg | Stg | Lds | Sts | Ldc);
        if needs_mem != self.mem.is_some() {
            return Err(format!(
                "{}: memory reference {}",
                self.op,
                if needs_mem { "missing" } else { "unexpected" }
            ));
        }
        let needs_target = matches!(self.op, Bra | Ssy | Bssy);
        if needs_target && self.target.is_none() {
            return Err(format!("{}: missing branch target", self.op));
        }
        if !needs_target && self.target.is_some() {
            return Err(format!("{}: unexpected branch target", self.op));
        }
        match self.dst {
            Dst::Reg(_) if !self.op.writes_reg() => {
                return Err(format!("{}: cannot write a register", self.op))
            }
            Dst::Pred(_) if !self.op.writes_pred() => {
                return Err(format!("{}: cannot write a predicate", self.op))
            }
            Dst::None if self.op.writes_reg() || self.op.writes_pred() => {
                return Err(format!("{}: missing destination", self.op))
            }
            _ => {}
        }
        if self.op == S2R && !matches!(self.srcs[0], Operand::Special(_)) {
            return Err("s2r: source must be a special register".into());
        }
        if matches!(self.op, Bssy | Bsync) {
            match self.srcs[0] {
                Operand::Imm(b) if (b as usize) < crate::NUM_CBARS => {}
                Operand::Imm(b) => {
                    return Err(format!(
                        "{}: barrier id {b} exceeds b{}",
                        self.op,
                        crate::NUM_CBARS - 1
                    ))
                }
                _ => return Err(format!("{}: barrier id must be an immediate", self.op)),
            }
        }
        if self.op == Sel && !matches!(self.srcs[2], Operand::Pred(_)) {
            return Err("sel: third source must be a predicate".into());
        }
        Ok(())
    }

    /// Number of collector entries the instruction's sources occupy
    /// (unique register sources only) — the quantity Fig. 8 histograms.
    pub fn rf_read_count(&self) -> usize {
        self.unique_src_regs().len()
    }

    /// The convergence-barrier id a `bssy`/`bsync` names, `None` for every
    /// other opcode (the id rides in the immediate source operand).
    pub fn cbar(&self) -> Option<u8> {
        if !matches!(self.op, Opcode::Bssy | Opcode::Bsync) {
            return None;
        }
        match self.srcs.first() {
            Some(&Operand::Imm(b)) => Some(b as u8),
            _ => None,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            write!(f, "{g} ")?;
        }
        write!(f, "{}", self.op)?;
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if std::mem::take(&mut first) {
                write!(f, " ")
            } else {
                write!(f, ", ")
            }
        };
        match self.dst {
            Dst::None => {}
            Dst::Reg(r) => {
                sep(f)?;
                write!(f, "{r}")?;
            }
            Dst::Pred(p) => {
                sep(f)?;
                write!(f, "{p}")?;
            }
        }
        // Stores print the memory reference before the value, loads after
        // the destination, matching conventional assembly order.
        if matches!(self.op, Opcode::Ldg | Opcode::Lds) {
            if let Some(m) = self.mem {
                sep(f)?;
                write!(f, "{m}")?;
            }
        }
        if self.op == Opcode::Ldc {
            if let Some(m) = self.mem {
                sep(f)?;
                write!(f, "c[{}]", m.offset)?;
            }
        }
        if matches!(self.op, Opcode::Stg | Opcode::Sts) {
            if let Some(m) = self.mem {
                sep(f)?;
                write!(f, "{m}")?;
            }
        }
        for s in &self.srcs {
            sep(f)?;
            // Convergence-barrier ids print SASS-style (`b0..b7`) rather
            // than as bare immediates.
            if matches!(self.op, Opcode::Bssy | Opcode::Bsync) {
                if let Operand::Imm(b) = s {
                    write!(f, "b{b}")?;
                    continue;
                }
            }
            write!(f, "{s}")?;
        }
        if let Some(t) = self.target {
            sep(f)?;
            write!(f, "#{t}")?;
        }
        if self.hint != WritebackHint::Both && self.dst_reg().is_some() {
            write!(f, " .wb.{}", self.hint)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::Special;

    fn iadd(d: u8, a: u8, b: u8) -> Instruction {
        Instruction::new(
            Opcode::IAdd,
            Dst::Reg(Reg::r(d)),
            vec![Operand::Reg(Reg::r(a)), Operand::Reg(Reg::r(b))],
        )
    }

    #[test]
    fn hint_encoding_roundtrip() {
        for h in [
            WritebackHint::Both,
            WritebackHint::RfOnly,
            WritebackHint::BocOnly,
        ] {
            let (b, r) = h.encode();
            assert_eq!(WritebackHint::decode(b, r), Some(h));
        }
        assert_eq!(WritebackHint::decode(false, false), None);
    }

    #[test]
    fn src_regs_includes_mem_base() {
        let mut ld = Instruction::new(Opcode::Ldg, Dst::Reg(Reg::r(5)), vec![]);
        ld.mem = Some(MemRef {
            base: Reg::r(4),
            offset: 8,
        });
        assert_eq!(ld.src_regs(), vec![Reg::r(4)]);
        assert_eq!(ld.dst_reg(), Some(Reg::r(5)));
    }

    #[test]
    fn ldc_base_is_not_an_rf_read() {
        let mut ldc = Instruction::new(Opcode::Ldc, Dst::Reg(Reg::r(5)), vec![]);
        ldc.mem = Some(MemRef {
            base: Reg::RZ,
            offset: 0,
        });
        assert!(ldc.src_regs().is_empty());
    }

    #[test]
    fn unique_src_regs_dedups() {
        let i = iadd(0, 1, 1);
        assert_eq!(i.src_regs().len(), 2);
        assert_eq!(i.unique_src_regs(), vec![Reg::r(1)]);
        assert_eq!(i.rf_read_count(), 1);
    }

    #[test]
    fn validate_checks_arity() {
        let mut i = iadd(0, 1, 2);
        assert!(i.validate().is_ok());
        i.srcs.pop();
        assert!(i.validate().unwrap_err().contains("source operands"));
    }

    #[test]
    fn validate_checks_memref_and_target() {
        let ld = Instruction::new(Opcode::Ldg, Dst::Reg(Reg::r(1)), vec![]);
        assert!(ld.validate().unwrap_err().contains("memory reference"));

        let bra = Instruction::new(Opcode::Bra, Dst::None, vec![]);
        assert!(bra.validate().unwrap_err().contains("branch target"));

        let mut ok = Instruction::new(Opcode::Bra, Dst::None, vec![]);
        ok.target = Some(3);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_checks_dst_kind() {
        let bad = Instruction::new(
            Opcode::ISetp(crate::CmpOp::Ne),
            Dst::Reg(Reg::r(0)),
            vec![Operand::Reg(Reg::r(1)), Operand::Reg(Reg::r(2))],
        );
        assert!(bad.validate().unwrap_err().contains("register"));
    }

    #[test]
    fn rz_writes_are_discarded() {
        let i = iadd(0, 1, 2);
        assert!(i.dst_reg().is_some());
        let mut z = i.clone();
        z.dst = Dst::Reg(Reg::RZ);
        assert_eq!(z.dst_reg(), None);
    }

    #[test]
    fn display_is_readable() {
        let mut i = iadd(3, 1, 2);
        i.guard = Some(PredGuard {
            pred: Pred::p(0),
            negated: true,
        });
        assert_eq!(i.to_string(), "@!p0 iadd r3, r1, r2");

        let mut s2r = Instruction::new(
            Opcode::S2R,
            Dst::Reg(Reg::r(0)),
            vec![Operand::Special(Special::TidX)],
        );
        s2r.hint = WritebackHint::BocOnly;
        assert_eq!(s2r.to_string(), "s2r r0, %tid.x .wb.boc");
    }

    #[test]
    fn src_preds_collects_guard_and_sel() {
        let mut sel = Instruction::new(
            Opcode::Sel,
            Dst::Reg(Reg::r(0)),
            vec![
                Operand::Reg(Reg::r(1)),
                Operand::Reg(Reg::r(2)),
                Operand::Pred(Pred::p(2)),
            ],
        );
        sel.guard = Some(PredGuard {
            pred: Pred::p(1),
            negated: false,
        });
        assert_eq!(sel.src_preds(), vec![Pred::p(1), Pred::p(2)]);
    }
}
