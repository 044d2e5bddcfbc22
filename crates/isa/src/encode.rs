//! Binary instruction encoding.
//!
//! Instructions encode to a fixed 96-bit format (two `u64` words would
//! waste 32 bits; we use a `[u32; 3]` triple), mirroring how SASS packs
//! opcode, guard, destinations, sources and the 2-bit write-back hint the
//! paper adds. The encoding exists so kernels can be stored, hashed and
//! shipped like real binaries; [`decode`] is the exact inverse of
//! [`encode`] for every valid instruction (property-tested).
//!
//! Layout (word 0):
//! ```text
//!  31..24  opcode id
//!  23..21  cmp-op (for setp opcodes)
//!  20..13  dst register / predicate
//!  12..11  dst kind (0 none, 1 reg, 2 pred)
//!  10..7   guard predicate (0b1111 = none; bit 3 of field unused by PT)
//!   6      guard negated
//!   5..4   write-back hint (BOC enable, RF enable)
//!   3..2   number of sources
//!   1      has memory reference
//!   0      has branch target
//! ```
//! Word 1 packs the source descriptors (kind + payload index); word 2
//! carries the first immediate/offset/target payload. Instructions with
//! more than one 32-bit payload spill into extension words, so an encoded
//! kernel is a `Vec<u32>` stream with self-describing lengths.

use crate::ctrl::CtrlBits;
use crate::inst::{Dst, Instruction, MemRef, PredGuard, SrcList, WritebackHint};
use crate::kernel::Kernel;
use crate::opcode::{CmpOp, Opcode};
use crate::operand::{Operand, Special};
use crate::reg::{Pred, Reg};

/// Errors produced by [`decode`] / [`decode_kernel`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The stream ended in the middle of an instruction.
    Truncated,
    /// An opcode id that no opcode maps to.
    BadOpcode(u8),
    /// A field combination that no valid instruction produces.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "instruction stream truncated"),
            DecodeError::BadOpcode(id) => write!(f, "unknown opcode id {id}"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn opcode_id(op: Opcode) -> u8 {
    Opcode::all()
        .iter()
        .position(|&o| o == op)
        .expect("all opcodes enumerated") as u8
}

fn opcode_from_id(id: u8) -> Option<Opcode> {
    Opcode::all().get(id as usize).copied()
}

fn cmp_id(op: Opcode) -> u32 {
    match op {
        Opcode::ISetp(c) | Opcode::FSetp(c) => match c {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        },
        _ => 0,
    }
}

/// Encodes one instruction, appending to `out`. Returns the number of
/// words written.
pub fn encode(inst: &Instruction, out: &mut Vec<u32>) -> usize {
    let start = out.len();
    let mut w0 = u32::from(opcode_id(inst.op)) << 24;
    w0 |= cmp_id(inst.op) << 21;
    let (dst_kind, dst_idx) = match inst.dst {
        Dst::None => (0u32, 0u32),
        Dst::Reg(r) => (1, u32::from(r.index())),
        Dst::Pred(p) => (2, u32::from(p.index())),
    };
    w0 |= dst_idx << 13;
    w0 |= dst_kind << 11;
    match inst.guard {
        Some(g) => {
            w0 |= u32::from(g.pred.index()) << 7;
            if g.negated {
                w0 |= 1 << 6;
            }
        }
        None => w0 |= 0b1111 << 7,
    }
    let (boc, rf) = inst.hint.encode();
    w0 |= u32::from(boc) << 5;
    w0 |= u32::from(rf) << 4;
    w0 |= (inst.srcs.len() as u32) << 2;
    if inst.mem.is_some() {
        w0 |= 1 << 1;
    }
    if inst.target.is_some() {
        w0 |= 1;
    }
    out.push(w0);

    // Word 1: source descriptors, 8 bits each: kind(2) + small payload(6)
    // for regs/preds/specials; immediates take a payload slot. The
    // payloads follow it, so it is patched once they are out.
    let w1_at = out.len();
    out.push(0);
    let mut w1 = 0u32;
    for (i, s) in inst.srcs.iter().enumerate() {
        let (desc, payload) = match *s {
            Operand::Reg(r) => (0u32, u32::from(r.index())),
            Operand::Imm(v) => (1, v),
            Operand::Pred(p) => (2, u32::from(p.index())),
            Operand::Special(sp) => (
                3,
                Special::ALL.iter().position(|&x| x == sp).unwrap() as u32,
            ),
        };
        out.push(payload);
        w1 |= desc << (i * 2);
    }
    out[w1_at] = w1;
    if let Some(m) = inst.mem {
        out.push(u32::from(m.base.index()));
        out.push(m.offset as u32);
    }
    if let Some(t) = inst.target {
        out.push(t as u32);
    }
    out.len() - start
}

/// Decodes one instruction starting at `words[pos]`, returning it and the
/// new position.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation or field values no valid
/// instruction produces.
pub fn decode(words: &[u32], pos: usize) -> Result<(Instruction, usize), DecodeError> {
    let take = |i: usize| words.get(i).copied().ok_or(DecodeError::Truncated);
    let w0 = take(pos)?;
    let w1 = take(pos + 1)?;
    let mut cursor = pos + 2;

    let op_id = (w0 >> 24) as u8;
    let mut op = opcode_from_id(op_id).ok_or(DecodeError::BadOpcode(op_id))?;
    // Restore the comparison operator for setp opcodes.
    let cmp = match (w0 >> 21) & 0b111 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return Err(DecodeError::Malformed("cmp op")),
    };
    op = match op {
        Opcode::ISetp(_) => Opcode::ISetp(cmp),
        Opcode::FSetp(_) => Opcode::FSetp(cmp),
        other => other,
    };

    let dst_idx = ((w0 >> 13) & 0xff) as u8;
    let dst = match (w0 >> 11) & 0b11 {
        0 => Dst::None,
        1 => Dst::Reg(Reg::try_new(dst_idx).unwrap_or(Reg::RZ)),
        2 => Dst::Pred(Pred::try_new(dst_idx).unwrap_or(Pred::PT)),
        _ => return Err(DecodeError::Malformed("dst kind")),
    };
    let guard_bits = (w0 >> 7) & 0b1111;
    let guard = if guard_bits == 0b1111 {
        None
    } else {
        Some(PredGuard {
            pred: Pred::try_new(guard_bits as u8).unwrap_or(Pred::PT),
            negated: (w0 >> 6) & 1 == 1,
        })
    };
    let hint = WritebackHint::decode((w0 >> 5) & 1 == 1, (w0 >> 4) & 1 == 1)
        .ok_or(DecodeError::Malformed("writeback hint"))?;
    let n_srcs = ((w0 >> 2) & 0b11) as usize;
    let has_mem = (w0 >> 1) & 1 == 1;
    let has_target = w0 & 1 == 1;

    let mut srcs = SrcList::new();
    for i in 0..n_srcs {
        let payload = take(cursor)?;
        cursor += 1;
        let src = match (w1 >> (i * 2)) & 0b11 {
            0 => Operand::Reg(if payload == 255 {
                Reg::RZ
            } else {
                Reg::try_new(payload as u8).ok_or(DecodeError::Malformed("reg"))?
            }),
            1 => Operand::Imm(payload),
            2 => Operand::Pred(if payload == 7 {
                Pred::PT
            } else {
                Pred::try_new(payload as u8).ok_or(DecodeError::Malformed("pred"))?
            }),
            3 => Operand::Special(
                *Special::ALL
                    .get(payload as usize)
                    .ok_or(DecodeError::Malformed("special"))?,
            ),
            _ => unreachable!("two-bit field"),
        };
        srcs.push(src);
    }
    let mem = if has_mem {
        let base = take(cursor)?;
        let offset = take(cursor + 1)? as i32;
        cursor += 2;
        let base = if base == 255 {
            Reg::RZ
        } else {
            Reg::try_new(base as u8).ok_or(DecodeError::Malformed("mem base"))?
        };
        Some(MemRef { base, offset })
    } else {
        None
    };
    let target = if has_target {
        let t = take(cursor)? as usize;
        cursor += 1;
        Some(t)
    } else {
        None
    };

    let mut inst = Instruction::new(op, dst, srcs);
    inst.guard = guard;
    inst.hint = hint;
    inst.mem = mem;
    inst.target = target;
    Ok((inst, cursor))
}

/// Marker word introducing the control-bits sidecar section ("CTRL").
///
/// Annotated kernels append it after the instruction stream, followed by
/// one packed [`CtrlBits`] word per instruction. Decoders that predate the
/// sidecar treated trailing words as padding, so the section is backward
/// and forward compatible: old binaries decode with an empty sidecar, and
/// unannotated kernels encode byte-identically to the legacy format.
pub const CTRL_MAGIC: u32 = 0x4354_524c;

/// Encodes a whole kernel: header (register count, shared bytes, parameter
/// words, instruction count) followed by the instruction stream and, for
/// annotated kernels, the [`CTRL_MAGIC`] control-bits sidecar.
pub fn encode_kernel(kernel: &Kernel) -> Vec<u32> {
    let sidecar = if kernel.ctrl.is_empty() {
        0
    } else {
        1 + kernel.ctrl.len()
    };
    let len = 4 + kernel.insts.iter().map(encoded_len).sum::<usize>() + sidecar;
    let mut out = Vec::with_capacity(len);
    out.extend([
        u32::from(kernel.num_regs),
        kernel.shared_bytes,
        u32::from(kernel.param_words),
        kernel.insts.len() as u32,
    ]);
    for inst in &kernel.insts {
        encode(inst, &mut out);
    }
    if !kernel.ctrl.is_empty() {
        out.push(CTRL_MAGIC);
        out.extend(kernel.ctrl.iter().map(|c| c.pack()));
    }
    debug_assert_eq!(out.len(), len, "encoded_len agrees with encode");
    out
}

/// The number of words [`encode`] writes for `inst`: the two fixed words,
/// one payload per source, base and offset of a memory reference, and a
/// branch target.
fn encoded_len(inst: &Instruction) -> usize {
    2 + inst.srcs.len() + 2 * usize::from(inst.mem.is_some()) + usize::from(inst.target.is_some())
}

/// Decodes a kernel produced by [`encode_kernel`]. The name is not part of
/// the binary format and must be supplied.
///
/// # Errors
///
/// Returns [`DecodeError`] on truncation or malformed fields; the decoded
/// kernel is additionally validated.
pub fn decode_kernel(name: &str, words: &[u32]) -> Result<Kernel, DecodeError> {
    if words.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    let count = words[3] as usize;
    let mut insts = Vec::with_capacity(count);
    let mut pos = 4;
    for _ in 0..count {
        let (inst, next) = decode(words, pos)?;
        insts.push(inst);
        pos = next;
    }
    let ctrl = if words.get(pos) == Some(&CTRL_MAGIC) {
        let tail = &words[pos + 1..];
        if tail.len() < count {
            return Err(DecodeError::Truncated);
        }
        tail[..count].iter().map(|&w| CtrlBits::unpack(w)).collect()
    } else {
        Vec::new()
    };
    let kernel = Kernel {
        name: name.to_string(),
        insts,
        num_regs: words[0] as u16,
        shared_bytes: words[1],
        param_words: words[2] as u16,
        ctrl,
    };
    kernel
        .validate()
        .map_err(|_| DecodeError::Malformed("kernel validation"))?;
    Ok(kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn sample() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("sample")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 4)
            .guard(Pred::p(2), true)
            .imad(r(2), r(0).into(), Operand::Imm(0xdead_beef), r(1).into())
            .ldg(r(3), r(2), -64)
            .isetp(CmpOp::Ge, Pred::p(0), r(3).into(), Operand::Reg(Reg::RZ))
            .bra_if(Pred::p(0), false, "end")
            .stg(r(2), 8, r(3).into())
            .hint(WritebackHint::BocOnly)
            .label("end")
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn instruction_roundtrip() {
        let k = sample();
        for inst in &k.insts {
            let mut words = Vec::new();
            encode(inst, &mut words);
            let (back, used) = decode(&words, 0).expect("decodes");
            assert_eq!(&back, inst, "mismatch for {inst}");
            assert_eq!(used, words.len());
        }
    }

    #[test]
    fn kernel_roundtrip() {
        let k = sample();
        let words = encode_kernel(&k);
        let back = decode_kernel("sample", &words).expect("kernel decodes");
        assert_eq!(back, k);
    }

    #[test]
    fn ctrl_sidecar_roundtrips() {
        let mut k = sample();
        let legacy = encode_kernel(&k);
        k.ctrl = (0..k.insts.len())
            .map(|i| CtrlBits {
                stall: (i as u8) % 7,
                wr_bar: (i % 2 == 0).then_some((i % 6) as u8),
                rd_bar: None,
                wait_mask: (1 << (i % 6)) as u8,
            })
            .collect();
        let words = encode_kernel(&k);
        assert_eq!(&words[..legacy.len()], &legacy[..], "stream is a prefix");
        assert_eq!(words.len(), legacy.len() + 1 + k.insts.len());
        let back = decode_kernel("sample", &words).expect("decodes");
        assert_eq!(back, k);
        // Legacy binaries (no sidecar) decode with an empty sidecar.
        let old = decode_kernel("sample", &legacy).expect("decodes");
        assert!(old.ctrl.is_empty());
        // A truncated sidecar is an error, not silently dropped.
        assert_eq!(
            decode_kernel("sample", &words[..words.len() - 1]),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn truncated_stream_errors() {
        let k = sample();
        let words = encode_kernel(&k);
        assert_eq!(decode_kernel("x", &words[..3]), Err(DecodeError::Truncated));
        assert!(matches!(
            decode_kernel("x", &words[..words.len() - 1]),
            Err(DecodeError::Truncated)
        ));
    }

    #[test]
    fn bad_opcode_errors() {
        let mut words = Vec::new();
        encode(
            &Instruction::new(Opcode::Nop, Dst::None, vec![]),
            &mut words,
        );
        words[0] |= 0xff << 24;
        assert!(matches!(decode(&words, 0), Err(DecodeError::BadOpcode(_))));
    }

    #[test]
    fn encoding_is_compact() {
        // A nop is exactly two words; a three-source fma with immediates is
        // at most five.
        let mut words = Vec::new();
        let n = encode(
            &Instruction::new(Opcode::Nop, Dst::None, vec![]),
            &mut words,
        );
        assert_eq!(n, 2);
        let fma = Instruction::new(
            Opcode::FFma,
            Dst::Reg(Reg::r(1)),
            vec![
                Operand::fimm(1.0),
                Operand::fimm(2.0),
                Operand::Reg(Reg::r(2)),
            ],
        );
        let mut words = Vec::new();
        assert_eq!(encode(&fma, &mut words), 5);
    }
}
