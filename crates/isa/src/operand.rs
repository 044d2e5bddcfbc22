//! Source operands and special (hardware) registers.

use crate::reg::{Pred, Reg};
use std::fmt;

/// A special hardware register readable through `s2r`.
///
/// These mirror the PTX/SASS special registers the workloads need to locate
/// themselves within the launch grid.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Special {
    /// Thread index within the block, x dimension (`%tid.x`).
    TidX,
    /// Thread index within the block, y dimension.
    TidY,
    /// Block index within the grid, x dimension (`%ctaid.x`).
    CtaidX,
    /// Block index within the grid, y dimension.
    CtaidY,
    /// Threads per block, x dimension (`%ntid.x`).
    NtidX,
    /// Threads per block, y dimension.
    NtidY,
    /// Blocks per grid, x dimension (`%nctaid.x`).
    NctaidX,
    /// Blocks per grid, y dimension.
    NctaidY,
    /// Lane index within the warp (0..31).
    LaneId,
    /// Warp index within the block.
    WarpId,
}

impl Special {
    /// All special registers, in parse order.
    pub const ALL: [Special; 10] = [
        Special::TidX,
        Special::TidY,
        Special::CtaidX,
        Special::CtaidY,
        Special::NtidX,
        Special::NtidY,
        Special::NctaidX,
        Special::NctaidY,
        Special::LaneId,
        Special::WarpId,
    ];

    /// The assembler mnemonic for this special register.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Special::TidX => "tid.x",
            Special::TidY => "tid.y",
            Special::CtaidX => "ctaid.x",
            Special::CtaidY => "ctaid.y",
            Special::NtidX => "ntid.x",
            Special::NtidY => "ntid.y",
            Special::NctaidX => "nctaid.x",
            Special::NctaidY => "nctaid.y",
            Special::LaneId => "laneid",
            Special::WarpId => "warpid",
        }
    }

    /// Parses an assembler mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Special> {
        Special::ALL.into_iter().find(|sp| sp.mnemonic() == s)
    }
}

impl fmt::Display for Special {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A source operand of an instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A general-purpose register. The only operand kind that touches the
    /// register file (and hence the only kind the bypass window tracks).
    Reg(Reg),
    /// A 32-bit immediate. Float immediates are stored as their IEEE-754 bit
    /// pattern.
    Imm(u32),
    /// A predicate register read as a data value (0 or 1), used by `sel`.
    Pred(Pred),
    /// A special hardware register (thread/block coordinates).
    Special(Special),
}

/// `Imm(0)`: only the unused tail of an inline source list
/// ([`SrcList`](crate::inst::SrcList)) holds it, and no instruction
/// reads that tail.
impl Default for Operand {
    fn default() -> Operand {
        Operand::Imm(0)
    }
}

impl Operand {
    /// Convenience constructor for a float immediate.
    pub fn fimm(v: f32) -> Operand {
        Operand::Imm(v.to_bits())
    }

    /// Convenience constructor for a signed integer immediate.
    pub fn simm(v: i32) -> Operand {
        Operand::Imm(v as u32)
    }

    /// The register this operand reads, if it is a register operand.
    ///
    /// [`Reg::RZ`] is *not* reported: it costs no register-file access, so
    /// neither the collector model nor the bypass statistics should see it.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) if !r.is_zero() => Some(r),
            _ => None,
        }
    }

    /// Whether this operand requires a register-file read.
    pub fn reads_rf(self) -> bool {
        self.reg().is_some()
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<u32> for Operand {
    fn from(v: u32) -> Operand {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => {
                if *v > 0xffff && (*v as i32) > 0 {
                    write!(f, "0x{v:x}")
                } else {
                    write!(f, "{}", *v as i32)
                }
            }
            Operand::Pred(p) => write!(f, "{p}"),
            Operand::Special(s) => write!(f, "%{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_mnemonic_roundtrip() {
        for sp in Special::ALL {
            assert_eq!(Special::from_mnemonic(sp.mnemonic()), Some(sp));
        }
        assert_eq!(Special::from_mnemonic("tid.w"), None);
    }

    #[test]
    fn operand_reg_extraction_skips_rz() {
        assert_eq!(Operand::Reg(Reg::r(4)).reg(), Some(Reg::r(4)));
        assert_eq!(Operand::Reg(Reg::RZ).reg(), None);
        assert!(!Operand::Reg(Reg::RZ).reads_rf());
        assert_eq!(Operand::Imm(3).reg(), None);
        assert_eq!(Operand::Special(Special::TidX).reg(), None);
    }

    #[test]
    fn float_imm_is_bitcast() {
        assert_eq!(Operand::fimm(1.0), Operand::Imm(0x3f80_0000));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Operand::Reg(Reg::r(7)).to_string(), "r7");
        assert_eq!(Operand::simm(-4).to_string(), "-4");
        assert_eq!(Operand::Special(Special::CtaidX).to_string(), "%ctaid.x");
        assert_eq!(Operand::Pred(Pred::p(1)).to_string(), "p1");
    }
}
