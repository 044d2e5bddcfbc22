//! Opcodes, comparison operators and functional-unit classes.

use std::fmt;

/// Comparison operator used by `isetp` / `fsetp`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Assembler suffix (`eq`, `ne`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// Parses the assembler suffix.
    pub fn from_suffix(s: &str) -> Option<CmpOp> {
        Some(match s {
            "eq" => CmpOp::Eq,
            "ne" => CmpOp::Ne,
            "lt" => CmpOp::Lt,
            "le" => CmpOp::Le,
            "gt" => CmpOp::Gt,
            "ge" => CmpOp::Ge,
            _ => return None,
        })
    }

    /// Evaluates the comparison on signed integers.
    pub fn eval_i32(self, a: i32, b: i32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// Evaluates the comparison on floats (IEEE semantics: comparisons with
    /// NaN are false except `Ne`).
    pub fn eval_f32(self, a: f32, b: f32) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// Functional-unit class an opcode executes on; determines pipeline latency
/// in the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuClass {
    /// Simple integer/logic ALU operation.
    Alu,
    /// Multiply / multiply-add (integer or float) — slightly deeper pipe.
    Mul,
    /// Special-function unit (reciprocal, sqrt, transcendental).
    Sfu,
    /// Load/store unit; latency comes from the memory model.
    Mem,
    /// Control (branches, barriers, exit) — handled by the front-end.
    Ctrl,
}

/// The operation an [`Instruction`](crate::Instruction) performs.
///
/// Opcodes are grouped to mirror SASS: integer ALU, float ALU, fused
/// multiply-add forms, special-function ops, conversions, data movement,
/// predicate-setting compares, memory and control flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Opcode {
    // --- integer ---
    /// `d = a + b` (wrapping).
    IAdd,
    /// `d = a - b` (wrapping).
    ISub,
    /// `d = a * b` (wrapping, low 32 bits).
    IMul,
    /// `d = a * b + c` (wrapping) — the 3-source integer workhorse.
    IMad,
    /// `d = min(a, b)` signed.
    IMin,
    /// `d = max(a, b)` signed.
    IMax,
    /// `d = |a|` signed.
    IAbs,
    /// `d = |a - b| + c` — sum of absolute differences (SASS `VABSDIFF`/SAD).
    ISad,
    // --- logic & shift ---
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not of the single source.
    Not,
    /// Logical shift left by `b & 31`.
    Shl,
    /// Logical shift right by `b & 31`.
    Shr,
    /// Arithmetic shift right by `b & 31`.
    Sar,
    // --- float ---
    /// `d = a + b`.
    FAdd,
    /// `d = a - b`.
    FSub,
    /// `d = a * b`.
    FMul,
    /// `d = a * b + c` fused multiply-add.
    FFma,
    /// `d = min(a, b)`.
    FMin,
    /// `d = max(a, b)`.
    FMax,
    // --- SFU ---
    /// `d = 1 / a`.
    FRcp,
    /// `d = sqrt(a)`.
    FSqrt,
    /// `d = log2(a)`.
    FLog2,
    /// `d = 2^a`.
    FExp2,
    // --- conversion ---
    /// Signed int to float.
    I2F,
    /// Float to signed int (truncating).
    F2I,
    // --- movement / select ---
    /// `d = a` (register, immediate or predicate-as-value source).
    Mov,
    /// `d = p ? a : b` where `p` is a predicate source.
    Sel,
    /// Read a special hardware register.
    S2R,
    // --- compares (write a predicate) ---
    /// Integer compare, writes predicate destination.
    ISetp(CmpOp),
    /// Float compare, writes predicate destination.
    FSetp(CmpOp),
    // --- memory ---
    /// Global load: `d = mem[base + offset]`.
    Ldg,
    /// Global store: `mem[base + offset] = src`.
    Stg,
    /// Shared-memory load.
    Lds,
    /// Shared-memory store.
    Sts,
    /// Constant/parameter load: `d = params[offset/4]`.
    Ldc,
    // --- control ---
    /// Branch to the instruction-index target (optionally guarded).
    Bra,
    /// Push the reconvergence point for a potentially divergent region.
    Ssy,
    /// Reconverge with the stack entry pushed by the matching `ssy`.
    Sync,
    /// Block-wide barrier (`bar.sync`).
    Bar,
    /// Terminate the thread (warp exits when all threads have).
    Exit,
    /// No operation.
    Nop,
    // --- convergence barriers (post-Volta stack-less divergence) ---
    /// Arm convergence barrier `bN` with the current active mask and record
    /// the reconvergence point (the target). The barrier-model analogue of
    /// [`Ssy`](Opcode::Ssy); the barrier id is an immediate source operand.
    Bssy,
    /// Wait on convergence barrier `bN` until every participating thread
    /// arrives, then reconverge. The barrier-model analogue of
    /// [`Sync`](Opcode::Sync).
    Bsync,
}

impl Opcode {
    /// The functional-unit class this opcode executes on.
    pub fn fu_class(self) -> FuClass {
        use Opcode::*;
        match self {
            IAdd | ISub | IMin | IMax | IAbs | And | Or | Xor | Not | Shl | Shr | Sar | FAdd
            | FSub | FMin | FMax | I2F | F2I | Mov | Sel | S2R | ISetp(_) | FSetp(_) => {
                FuClass::Alu
            }
            IMul | IMad | ISad | FMul | FFma => FuClass::Mul,
            FRcp | FSqrt | FLog2 | FExp2 => FuClass::Sfu,
            Ldg | Stg | Lds | Sts | Ldc => FuClass::Mem,
            Bra | Ssy | Sync | Bar | Exit | Nop | Bssy | Bsync => FuClass::Ctrl,
        }
    }

    /// Whether the opcode accesses a memory space (the paper's
    /// "memory instruction" class in Fig. 4).
    pub fn is_memory(self) -> bool {
        self.fu_class() == FuClass::Mem
    }

    /// Whether the opcode is a control-flow / pipeline-control instruction.
    pub fn is_control(self) -> bool {
        self.fu_class() == FuClass::Ctrl
    }

    /// Whether the opcode writes a general-purpose destination register.
    pub fn writes_reg(self) -> bool {
        use Opcode::*;
        !matches!(
            self,
            Stg | Sts | Bra | Ssy | Sync | Bar | Exit | Nop | Bssy | Bsync | ISetp(_) | FSetp(_)
        )
    }

    /// Whether the opcode writes a predicate destination.
    pub fn writes_pred(self) -> bool {
        matches!(self, Opcode::ISetp(_) | Opcode::FSetp(_))
    }

    /// Number of *data* source operands the opcode expects (excluding the
    /// memory base register, which lives in the instruction's [`MemRef`]).
    ///
    /// [`MemRef`]: crate::inst::MemRef
    pub fn arity(self) -> usize {
        use Opcode::*;
        match self {
            IMad | ISad | FFma | Sel => 3,
            IAdd | ISub | IMul | IMin | IMax | And | Or | Xor | Shl | Shr | Sar | FAdd | FSub
            | FMul | FMin | FMax | ISetp(_) | FSetp(_) => 2,
            IAbs | Not | FRcp | FSqrt | FLog2 | FExp2 | I2F | F2I | Mov | S2R | Stg | Sts
            | Bssy | Bsync => 1,
            Ldg | Lds | Ldc | Bra | Ssy | Sync | Bar | Exit | Nop => 0,
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> String {
        use Opcode::*;
        match self {
            IAdd => "iadd".into(),
            ISub => "isub".into(),
            IMul => "imul".into(),
            IMad => "imad".into(),
            IMin => "imin".into(),
            IMax => "imax".into(),
            IAbs => "iabs".into(),
            ISad => "isad".into(),
            And => "and".into(),
            Or => "or".into(),
            Xor => "xor".into(),
            Not => "not".into(),
            Shl => "shl".into(),
            Shr => "shr".into(),
            Sar => "sar".into(),
            FAdd => "fadd".into(),
            FSub => "fsub".into(),
            FMul => "fmul".into(),
            FFma => "ffma".into(),
            FMin => "fmin".into(),
            FMax => "fmax".into(),
            FRcp => "frcp".into(),
            FSqrt => "fsqrt".into(),
            FLog2 => "flog2".into(),
            FExp2 => "fexp2".into(),
            I2F => "i2f".into(),
            F2I => "f2i".into(),
            Mov => "mov".into(),
            Sel => "sel".into(),
            S2R => "s2r".into(),
            ISetp(c) => format!("isetp.{}", c.suffix()),
            FSetp(c) => format!("fsetp.{}", c.suffix()),
            Ldg => "ldg".into(),
            Stg => "stg".into(),
            Lds => "lds".into(),
            Sts => "sts".into(),
            Ldc => "ldc".into(),
            Bra => "bra".into(),
            Ssy => "ssy".into(),
            Sync => "sync".into(),
            Bar => "bar".into(),
            Exit => "exit".into(),
            Nop => "nop".into(),
            Bssy => "bssy".into(),
            Bsync => "bsync".into(),
        }
    }

    /// Parses an assembler mnemonic (the inverse of [`Opcode::mnemonic`]).
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        use Opcode::*;
        if let Some(rest) = s.strip_prefix("isetp.") {
            return CmpOp::from_suffix(rest).map(ISetp);
        }
        if let Some(rest) = s.strip_prefix("fsetp.") {
            return CmpOp::from_suffix(rest).map(FSetp);
        }
        Some(match s {
            "iadd" => IAdd,
            "isub" => ISub,
            "imul" => IMul,
            "imad" => IMad,
            "imin" => IMin,
            "imax" => IMax,
            "iabs" => IAbs,
            "isad" => ISad,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "not" => Not,
            "shl" => Shl,
            "shr" => Shr,
            "sar" => Sar,
            "fadd" => FAdd,
            "fsub" => FSub,
            "fmul" => FMul,
            "ffma" => FFma,
            "fmin" => FMin,
            "fmax" => FMax,
            "frcp" => FRcp,
            "fsqrt" => FSqrt,
            "flog2" => FLog2,
            "fexp2" => FExp2,
            "i2f" => I2F,
            "f2i" => F2I,
            "mov" => Mov,
            "sel" => Sel,
            "s2r" => S2R,
            "ldg" => Ldg,
            "stg" => Stg,
            "lds" => Lds,
            "sts" => Sts,
            "ldc" => Ldc,
            "bra" => Bra,
            "ssy" => Ssy,
            "sync" => Sync,
            "bar" => Bar,
            "exit" => Exit,
            "nop" => Nop,
            "bssy" => Bssy,
            "bsync" => Bsync,
            _ => return None,
        })
    }

    /// Every opcode, in binary-id order: an opcode's id in the encoding
    /// ([`crate::encode`]) is its position here.
    pub fn all() -> &'static [Opcode] {
        &ALL_OPCODES
    }
}

/// The opcode id table behind [`Opcode::all`]: the plain opcodes, one
/// isetp/fsetp pair per comparison, then `bssy`/`bsync` — appended last so
/// the binary opcode ids of every pre-existing opcode stay stable.
#[rustfmt::skip]
static ALL_OPCODES: [Opcode; 55] = {
    use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
    use Opcode::*;
    [
        IAdd, ISub, IMul, IMad, IMin, IMax, IAbs, ISad, And, Or, Xor, Not, Shl, Shr, Sar, FAdd,
        FSub, FMul, FFma, FMin, FMax, FRcp, FSqrt, FLog2, FExp2, I2F, F2I, Mov, Sel, S2R, Ldg, Stg,
        Lds, Sts, Ldc, Bra, Ssy, Sync, Bar, Exit, Nop,
        ISetp(Eq), FSetp(Eq), ISetp(Ne), FSetp(Ne), ISetp(Lt), FSetp(Lt),
        ISetp(Le), FSetp(Le), ISetp(Gt), FSetp(Gt), ISetp(Ge), FSetp(Ge),
        Bssy, Bsync,
    ]
};

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonic_roundtrip_for_all_opcodes() {
        for &op in Opcode::all() {
            assert_eq!(
                Opcode::from_mnemonic(&op.mnemonic()),
                Some(op),
                "roundtrip failed for {op}"
            );
        }
    }

    #[test]
    fn arity_is_bounded_by_max_operands() {
        for op in Opcode::all() {
            assert!(op.arity() <= crate::MAX_SRC_OPERANDS);
        }
    }

    #[test]
    fn classes_are_consistent() {
        assert!(Opcode::Ldg.is_memory());
        assert!(Opcode::Stg.is_memory());
        assert!(!Opcode::IAdd.is_memory());
        assert!(Opcode::Bra.is_control());
        assert!(Opcode::ISetp(CmpOp::Ne).writes_pred());
        assert!(!Opcode::ISetp(CmpOp::Ne).writes_reg());
        assert!(Opcode::Ldg.writes_reg());
        assert!(!Opcode::Stg.writes_reg());
    }

    #[test]
    fn cmp_eval_matches_rust_semantics() {
        assert!(CmpOp::Lt.eval_i32(-1, 0));
        assert!(!CmpOp::Lt.eval_i32(0, -1));
        assert!(CmpOp::Ne.eval_f32(f32::NAN, 1.0));
        assert!(!CmpOp::Eq.eval_f32(f32::NAN, f32::NAN));
        assert!(CmpOp::Ge.eval_i32(3, 3));
    }

    #[test]
    fn fu_classes_cover_latency_model() {
        assert_eq!(Opcode::IAdd.fu_class(), FuClass::Alu);
        assert_eq!(Opcode::FFma.fu_class(), FuClass::Mul);
        assert_eq!(Opcode::FSqrt.fu_class(), FuClass::Sfu);
        assert_eq!(Opcode::Lds.fu_class(), FuClass::Mem);
        assert_eq!(Opcode::Exit.fu_class(), FuClass::Ctrl);
    }
}
