//! Functional execution of instructions over warp state.
//!
//! The pipeline models *timing*; this module provides the *semantics*.
//! Control instructions execute at issue ([`execute_control`]); data and
//! memory instructions execute when the operand collector dispatches them
//! ([`execute_data`]), reading architectural registers directly — the
//! scoreboard guarantees those equal the values the collector gathered.

use crate::warp::{lanes_in, Lanes, Split, StackEntry, StackKind, Warp};
use bow_isa::{Instruction, Opcode, Operand, Special, NUM_CBARS, WARP_SIZE};
use bow_mem::{GlobalMemory, SharedMemory};
use std::array::from_fn as lanes;

/// Geometry context a warp needs to evaluate special registers.
#[derive(Clone, Copy, Debug)]
pub struct BlockInfo {
    /// This block's coordinates in the grid.
    pub ctaid: (u32, u32),
    /// Threads per block.
    pub ntid: (u32, u32),
    /// Blocks per grid.
    pub nctaid: (u32, u32),
}

/// Everything [`execute_data`] may touch besides the warp itself.
///
/// The SM pipeline and the architectural oracle both pass the device's
/// one [`GlobalMemory`]: a global store lands when it executes.
pub struct ExecCtx<'a> {
    /// Device global memory.
    pub global: &'a mut GlobalMemory,
    /// The warp's block's shared memory.
    pub shared: &'a mut SharedMemory,
    /// Kernel parameters (`ldc` source).
    pub params: &'a [u32],
    /// Block geometry (`s2r` source).
    pub block: BlockInfo,
    /// Scratch the caller owns and reuses: a memory instruction leaves the
    /// byte address of each active lane here, in ascending lane order.
    pub addrs: &'a mut Vec<u64>,
}

/// Memory space an access touched, for the timing model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Space {
    /// Global memory — goes through the cache hierarchy.
    Global,
    /// Shared memory — fixed latency plus bank conflicts.
    Shared,
    /// Parameter/constant space — fixed small latency.
    Param,
}

/// Description of a memory access for the timing model; the lane
/// addresses are in [`ExecCtx::addrs`].
#[derive(Clone, Copy, Debug)]
pub struct MemAccess {
    /// Load or store.
    pub is_store: bool,
    /// Which space.
    pub space: Space,
}

/// What a control instruction did, so the SM can update barrier state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlOutcome {
    /// Plain control flow (branch, ssy, sync, nop) — warp continues.
    Plain,
    /// The warp reached a block-wide barrier.
    Barrier,
    /// Active lanes exited (the warp may or may not be done).
    Exit,
}

fn as_f32(v: u32) -> f32 {
    f32::from_bits(v)
}

/// The canonical f32 quiet NaN all float results collapse to, matching
/// NVIDIA hardware (PTX: "single-precision NaN payloads are not
/// preserved; the canonical NaN 0x7fffffff is returned"). Besides
/// fidelity, this keeps the model deterministic: Rust/LLVM make no
/// promise about which payload survives a two-NaN operation, so without
/// canonicalization identical source code can produce different NaN bits
/// in different compilation contexts.
pub const CANONICAL_NAN: u32 = 0x7fff_ffff;

fn from_f32(v: f32) -> u32 {
    if v.is_nan() {
        CANONICAL_NAN
    } else {
        v.to_bits()
    }
}

fn special_value(warp: &Warp, lane: usize, s: Special, block: &BlockInfo) -> u32 {
    let flat = warp.warp_in_block * WARP_SIZE as u32 + lane as u32;
    match s {
        Special::TidX => flat % block.ntid.0,
        Special::TidY => flat / block.ntid.0,
        Special::CtaidX => block.ctaid.0,
        Special::CtaidY => block.ctaid.1,
        Special::NtidX => block.ntid.0,
        Special::NtidY => block.ntid.1,
        Special::NctaidX => block.nctaid.0,
        Special::NctaidY => block.nctaid.1,
        Special::LaneId => lane as u32,
        Special::WarpId => warp.warp_in_block,
    }
}

/// Evaluates a source operand for every lane, resolving its kind once: a
/// register operand is a copy of its row, a predicate one bit per lane.
pub(crate) fn operand_lanes(warp: &Warp, op: Operand, block: &BlockInfo) -> Lanes {
    match op {
        Operand::Reg(r) => warp.lanes_of(r),
        Operand::Imm(v) => [v; WARP_SIZE],
        Operand::Pred(p) => {
            let bits = warp.pred_bits(p);
            lanes(|lane| bits >> lane & 1)
        }
        Operand::Special(s) => lanes(|lane| special_value(warp, lane, s, block)),
    }
}

/// Executes a data or memory instruction for the lanes in `mask`
/// (captured at issue time), applying all register/predicate/memory
/// effects. Returns the memory-access description for memory opcodes.
///
/// The opcode and the operand kinds are resolved once per instruction,
/// not per lane: each source is one 32-lane row, one per-opcode loop
/// computes every lane's result, and the destination takes the lanes under
/// `mask` in one masked blend (or one predicate-mask update). A lane reads
/// and writes only its own registers, so this equals executing lane by
/// lane.
///
/// # Panics
///
/// Panics if called with a control opcode — those go through
/// [`execute_control`] at issue.
pub fn execute_data(
    warp: &mut Warp,
    inst: &Instruction,
    mask: u32,
    ctx: &mut ExecCtx<'_>,
) -> Option<MemAccess> {
    use Opcode::*;
    assert!(
        !inst.op.is_control(),
        "control op {} in execute_data",
        inst.op
    );

    if inst.op.is_memory() {
        return Some(execute_memory(warp, inst, mask, ctx));
    }

    let src = |i: usize| match inst.srcs.get(i) {
        Some(&op) => operand_lanes(warp, op, &ctx.block),
        None => [0; WARP_SIZE],
    };
    let (a, b, c) = (src(0), src(1), src(2));
    let f = as_f32;
    let out: Lanes = match inst.op {
        IAdd => lanes(|l| a[l].wrapping_add(b[l])),
        ISub => lanes(|l| a[l].wrapping_sub(b[l])),
        IMul => lanes(|l| a[l].wrapping_mul(b[l])),
        IMad => lanes(|l| a[l].wrapping_mul(b[l]).wrapping_add(c[l])),
        IMin => lanes(|l| (a[l] as i32).min(b[l] as i32) as u32),
        IMax => lanes(|l| (a[l] as i32).max(b[l] as i32) as u32),
        IAbs => lanes(|l| (a[l] as i32).unsigned_abs()),
        ISad => lanes(|l| (a[l] as i32).abs_diff(b[l] as i32).wrapping_add(c[l])),
        And => lanes(|l| a[l] & b[l]),
        Or => lanes(|l| a[l] | b[l]),
        Xor => lanes(|l| a[l] ^ b[l]),
        Not => lanes(|l| !a[l]),
        Shl => lanes(|l| a[l].wrapping_shl(b[l])),
        Shr => lanes(|l| a[l].wrapping_shr(b[l])),
        Sar => lanes(|l| (a[l] as i32).wrapping_shr(b[l]) as u32),
        FAdd => lanes(|l| from_f32(f(a[l]) + f(b[l]))),
        FSub => lanes(|l| from_f32(f(a[l]) - f(b[l]))),
        FMul => lanes(|l| from_f32(f(a[l]) * f(b[l]))),
        FFma => lanes(|l| from_f32(f(a[l]).mul_add(f(b[l]), f(c[l])))),
        FMin => lanes(|l| from_f32(f(a[l]).min(f(b[l])))),
        FMax => lanes(|l| from_f32(f(a[l]).max(f(b[l])))),
        FRcp => lanes(|l| from_f32(1.0 / f(a[l]))),
        FSqrt => lanes(|l| from_f32(f(a[l]).sqrt())),
        FLog2 => lanes(|l| from_f32(f(a[l]).log2())),
        FExp2 => lanes(|l| from_f32(f(a[l]).exp2())),
        I2F => lanes(|l| from_f32(a[l] as i32 as f32)),
        F2I => lanes(|l| (f(a[l]) as i32) as u32),
        Mov | S2R => a,
        // A validated `sel` has a predicate third source, read as 0/1.
        Sel => lanes(|l| if c[l] != 0 { a[l] } else { b[l] }),
        // Compares produce the predicate value per lane. The comparison is
        // resolved once, as the orderings it accepts; a lane only orders
        // its pair (a per-lane `match` on `cmp` does not vectorize).
        ISetp(cmp) => {
            let [lt, eq, gt] = [(0, 1), (0, 0), (1, 0)].map(|(x, y)| cmp.eval_i32(x, y));
            lanes(|l| {
                let (x, y) = (a[l] as i32, b[l] as i32);
                u32::from((x < y) & lt | (x == y) & eq | (x > y) & gt)
            })
        }
        FSetp(cmp) => {
            let [lt, eq, gt, unordered] = [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0), (f32::NAN, 0.0)]
                .map(|(x, y)| cmp.eval_f32(x, y));
            lanes(|l| {
                let (x, y) = (f(a[l]), f(b[l]));
                let nan = x.is_nan() | y.is_nan();
                u32::from((x < y) & lt | (x == y) & eq | (x > y) & gt | nan & unordered)
            })
        }
        Ldg | Stg | Lds | Sts | Ldc | Bra | Ssy | Sync | Bar | Exit | Nop | Bssy | Bsync => {
            unreachable!()
        }
    };
    match inst.dst {
        bow_isa::Dst::Reg(r) => warp.write_lanes(r, mask, &out),
        bow_isa::Dst::Pred(p) => {
            let bits = out
                .iter()
                .enumerate()
                .fold(0, |bits, (lane, &v)| bits | u32::from(v != 0) << lane);
            warp.write_pred_bits(p, mask, bits);
        }
        bow_isa::Dst::None => {}
    }
    None
}

fn execute_memory(
    warp: &mut Warp,
    inst: &Instruction,
    mask: u32,
    ctx: &mut ExecCtx<'_>,
) -> MemAccess {
    use Opcode::*;
    let mem = inst.mem.expect("validated memory op has a MemRef");
    // `ldc` addresses the parameter space directly; every other memory op
    // adds the offset to each lane of its base register's row.
    let (base, offset) = if inst.op == Ldc {
        ([0; WARP_SIZE], mem.offset as u64)
    } else {
        (warp.lanes_of(mem.base), mem.offset as i64 as u64)
    };
    ctx.addrs.clear();
    ctx.addrs
        .extend(lanes_in(mask).map(|lane| u64::from(base[lane]).wrapping_add(offset)));
    let accesses = lanes_in(mask).zip(ctx.addrs.iter().copied());
    // Loads gather into one row and write the destination register in one
    // masked blend (stores have none).
    let mut loaded = [0; WARP_SIZE];
    let (is_store, space) = match inst.op {
        Ldg => {
            for (lane, addr) in accesses {
                loaded[lane] = ctx.global.read_u32(addr);
            }
            (false, Space::Global)
        }
        Stg => {
            let v = operand_lanes(warp, inst.srcs[0], &ctx.block);
            for (lane, addr) in accesses {
                ctx.global.write_u32(addr, v[lane]);
            }
            (true, Space::Global)
        }
        Lds => {
            for (lane, addr) in accesses {
                loaded[lane] = ctx.shared.read_u32(addr);
            }
            (false, Space::Shared)
        }
        Sts => {
            let v = operand_lanes(warp, inst.srcs[0], &ctx.block);
            for (lane, addr) in accesses {
                ctx.shared.write_u32(addr, v[lane]);
            }
            (true, Space::Shared)
        }
        Ldc => {
            for (lane, addr) in accesses {
                loaded[lane] = ctx.params.get((addr / 4) as usize).copied().unwrap_or(0);
            }
            (false, Space::Param)
        }
        _ => unreachable!(),
    };
    if let bow_isa::Dst::Reg(dst) = inst.dst {
        if !is_store {
            warp.write_lanes(dst, mask, &loaded);
        }
    }
    MemAccess { is_store, space }
}

/// Executes a control instruction at issue time, updating the PC, SIMT
/// stack and barrier/exit state.
///
/// # Panics
///
/// Panics if called with a non-control opcode.
pub fn execute_control(warp: &mut Warp, inst: &Instruction) -> ControlOutcome {
    use Opcode::*;
    assert!(
        inst.op.is_control(),
        "data op {} in execute_control",
        inst.op
    );
    match inst.op {
        Nop => {
            warp.pc += 1;
            ControlOutcome::Plain
        }
        Bar => {
            warp.pc += 1;
            warp.at_barrier = true;
            ControlOutcome::Barrier
        }
        Exit => {
            warp.retire_active();
            ControlOutcome::Exit
        }
        Ssy => {
            let target = inst.target.expect("validated ssy has a target");
            warp.stack.push(StackEntry {
                kind: StackKind::Sync,
                pc: target,
                mask: warp.active,
            });
            warp.pc += 1;
            ControlOutcome::Plain
        }
        Sync => {
            match warp.stack.pop() {
                Some(e) if e.kind == StackKind::Div => {
                    // Switch to the deferred not-taken path; the sync entry
                    // beneath stays for the final reconvergence.
                    warp.active = e.mask & !warp.exited;
                    warp.pc = e.pc;
                }
                Some(e) => {
                    // Reconverge: restore the pre-divergence mask, continue
                    // past the sync point.
                    warp.active = e.mask & !warp.exited;
                    warp.pc += 1;
                }
                None => {
                    // Sync without ssy: treat as nop (uniform code path).
                    warp.pc += 1;
                }
            }
            ControlOutcome::Plain
        }
        Bra => {
            let target = inst.target.expect("validated bra has a target");
            let taken = warp.guard_mask(inst.guard);
            let not_taken = warp.active & !taken;
            if not_taken == 0 {
                warp.pc = target;
            } else if taken == 0 {
                warp.pc += 1;
            } else if warp.barrier_mode {
                // Divergence, stack-less model: park the not-taken lanes as
                // a runnable split. LIFO resume keeps the stack model's
                // taken-arm-first serialization order.
                warp.splits.push(Split {
                    pc: warp.pc + 1,
                    mask: not_taken,
                    waiting_on: None,
                });
                warp.active = taken;
                warp.pc = target;
            } else {
                // Divergence: run the taken side first, queue the rest.
                warp.stack.push(StackEntry {
                    kind: StackKind::Div,
                    pc: warp.pc + 1,
                    mask: not_taken,
                });
                warp.active = taken;
                warp.pc = target;
            }
            ControlOutcome::Plain
        }
        Bssy => {
            // Arm the convergence barrier: the current group participates;
            // nobody has arrived yet. The reconvergence target is implied by
            // the matching `bsync`'s position, so it needs no recording.
            let b = cbar_index(inst);
            warp.cbar_part[b] = warp.active;
            warp.cbar_arrived[b] = 0;
            warp.pc += 1;
            ControlOutcome::Plain
        }
        Bsync => {
            let b = cbar_index(inst);
            let pending = warp.cbar_part[b] & !warp.exited;
            if warp.cbar_part[b] == 0 || pending == 0 {
                // Unarmed (or all participants dead): behaves like a nop,
                // mirroring sync-without-ssy in the stack model.
                warp.cbar_part[b] = 0;
                warp.cbar_arrived[b] = 0;
                warp.pc += 1;
                return ControlOutcome::Plain;
            }
            let arrived = warp.cbar_arrived[b] | warp.active;
            if pending & !arrived == 0 {
                // Every live participant has arrived: reconverge. Waiting
                // splits on this barrier are absorbed into the released
                // group (their lanes are in `pending`).
                warp.splits.retain(|s| s.waiting_on != Some(b as u8));
                warp.cbar_part[b] = 0;
                warp.cbar_arrived[b] = 0;
                warp.active = (pending | warp.active) & !warp.exited;
                warp.pc += 1;
                return ControlOutcome::Plain;
            }
            // Some participants are still on the way: park this group at
            // the bsync and switch to another split.
            warp.cbar_arrived[b] = arrived;
            warp.splits.push(Split {
                pc: warp.pc,
                mask: warp.active,
                waiting_on: Some(b as u8),
            });
            warp.active = 0;
            if warp.schedule_next_group() {
                ControlOutcome::Plain
            } else {
                // Every live lane waits on a barrier that cannot release:
                // a convergence deadlock (malformed kernel). Terminate the
                // warp like the stack model's malformed-kernel path so the
                // pipeline can drain and finalize it.
                debug_assert!(
                    false,
                    "convergence deadlock: live lanes {:#x} all parked",
                    warp.valid & !warp.exited
                );
                warp.done = true;
                ControlOutcome::Exit
            }
        }
        _ => unreachable!(),
    }
}

fn cbar_index(inst: &Instruction) -> usize {
    inst.cbar()
        .expect("validated bssy/bsync carries a barrier id") as usize
        % NUM_CBARS
}

/// Whether executing `inst` on `warp` *now* would be a reconvergence
/// underflow: a `sync` with an empty SIMT stack or a `bsync` on an unarmed
/// convergence barrier. Both execute as nops; the sanitizer reports them as
/// broken reconvergence structure. Must be evaluated *before*
/// [`execute_control`].
pub fn sync_underflows(warp: &Warp, inst: &Instruction) -> bool {
    match inst.op {
        Opcode::Sync => warp.stack.is_empty(),
        Opcode::Bsync => warp.cbar_part[cbar_index(inst)] == 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{Dst, KernelBuilder, MemRef, Pred, Reg};
    use bow_util::rng::XorShift;

    fn ctx<'a>(
        global: &'a mut GlobalMemory,
        shared: &'a mut SharedMemory,
        params: &'a [u32],
        addrs: &'a mut Vec<u64>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            global,
            shared,
            params,
            addrs,
            block: BlockInfo {
                ctaid: (2, 0),
                ntid: (64, 1),
                nctaid: (4, 1),
            },
        }
    }

    fn run_one(warp: &mut Warp, inst: &Instruction) {
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(64);
        let mask = warp.active;
        execute_data(
            warp,
            inst,
            mask,
            &mut ctx(&mut g, &mut s, &[], &mut Vec::new()),
        );
    }

    #[test]
    fn integer_alu_semantics() {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        w.write_reg(0, Reg::r(1), 10);
        w.write_reg(0, Reg::r(2), 3);
        let k = KernelBuilder::new("t")
            .imad(
                Reg::r(3),
                Reg::r(1).into(),
                Reg::r(2).into(),
                Operand::Imm(5),
            )
            .isad(
                Reg::r(4),
                Reg::r(1).into(),
                Reg::r(2).into(),
                Operand::Imm(1),
            )
            .sar(Reg::r(5), Operand::simm(-8), Operand::Imm(1))
            .exit()
            .build()
            .unwrap();
        run_one(&mut w, &k.insts[0]);
        run_one(&mut w, &k.insts[1]);
        run_one(&mut w, &k.insts[2]);
        assert_eq!(w.read_reg(0, Reg::r(3)), 35);
        assert_eq!(w.read_reg(0, Reg::r(4)), 8); // |10-3| + 1
        assert_eq!(w.read_reg(0, Reg::r(5)) as i32, -4);
    }

    #[test]
    fn float_semantics_via_bits() {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        w.write_reg(0, Reg::r(1), 2.5f32.to_bits());
        let k = KernelBuilder::new("t")
            .ffma(
                Reg::r(2),
                Reg::r(1).into(),
                Operand::fimm(2.0),
                Operand::fimm(1.0),
            )
            .fsqrt(Reg::r(3), Operand::fimm(9.0))
            .exit()
            .build()
            .unwrap();
        run_one(&mut w, &k.insts[0]);
        run_one(&mut w, &k.insts[1]);
        assert_eq!(f32::from_bits(w.read_reg(0, Reg::r(2))), 6.0);
        assert_eq!(f32::from_bits(w.read_reg(0, Reg::r(3))), 3.0);
    }

    #[test]
    fn setp_and_sel() {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        w.write_reg(0, Reg::r(1), 5);
        let k = KernelBuilder::new("t")
            .isetp(
                bow_isa::CmpOp::Gt,
                Pred::p(0),
                Reg::r(1).into(),
                Operand::Imm(3),
            )
            .sel(Reg::r(2), Operand::Imm(111), Operand::Imm(222), Pred::p(0))
            .exit()
            .build()
            .unwrap();
        run_one(&mut w, &k.insts[0]);
        run_one(&mut w, &k.insts[1]);
        assert!(w.read_pred(0, Pred::p(0)));
        assert_eq!(w.read_reg(0, Reg::r(2)), 111);
        // Lane 1 has r1 == 0, so the predicate is false there.
        assert!(!w.read_pred(1, Pred::p(0)));
        assert_eq!(w.read_reg(1, Reg::r(2)), 222);
    }

    #[test]
    fn special_registers_follow_geometry() {
        let mut w = Warp::new(0, 0, 1, 32, 4); // second warp of the block
        let k = KernelBuilder::new("t")
            .s2r(Reg::r(0), Special::TidX)
            .s2r(Reg::r(1), Special::CtaidX)
            .s2r(Reg::r(2), Special::TidY)
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(0);
        let mut a = Vec::new();
        let mut c = ctx(&mut g, &mut s, &[], &mut a);
        let mask = w.active;
        execute_data(&mut w, &k.insts[0], mask, &mut c);
        execute_data(&mut w, &k.insts[1], mask, &mut c);
        execute_data(&mut w, &k.insts[2], mask, &mut c);
        // warp 1 lane 0 = flat thread 32; ntid.x = 64 so tid.x = 32, tid.y = 0.
        assert_eq!(w.read_reg(0, Reg::r(0)), 32);
        assert_eq!(w.read_reg(0, Reg::r(1)), 2);
        assert_eq!(w.read_reg(0, Reg::r(2)), 0);
    }

    #[test]
    fn global_load_store_roundtrip() {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        for lane in 0..32 {
            w.write_reg(lane, Reg::r(1), 0x100 + 4 * lane as u32);
            w.write_reg(lane, Reg::r(2), lane as u32 * 7);
        }
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(0);
        let mut store = Instruction::new(Opcode::Stg, Dst::None, vec![Reg::r(2).into()]);
        store.mem = Some(MemRef {
            base: Reg::r(1),
            offset: 0,
        });
        let mut load = Instruction::new(Opcode::Ldg, Dst::Reg(Reg::r(3)), vec![]);
        load.mem = Some(MemRef {
            base: Reg::r(1),
            offset: 0,
        });

        let mask = w.active;
        let mut addrs = Vec::new();
        let acc = execute_data(
            &mut w,
            &store,
            mask,
            &mut ctx(&mut g, &mut s, &[], &mut addrs),
        )
        .unwrap();
        assert!(acc.is_store);
        assert_eq!(addrs.len(), 32);
        execute_data(
            &mut w,
            &load,
            mask,
            &mut ctx(&mut g, &mut s, &[], &mut addrs),
        );
        for lane in 0..32 {
            assert_eq!(w.read_reg(lane, Reg::r(3)), lane as u32 * 7);
        }
    }

    #[test]
    fn masked_lanes_do_nothing() {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        let k = KernelBuilder::new("t")
            .mov_imm(Reg::r(0), 9)
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(0);
        execute_data(
            &mut w,
            &k.insts[0],
            0b1,
            &mut ctx(&mut g, &mut s, &[], &mut Vec::new()),
        );
        assert_eq!(w.read_reg(0, Reg::r(0)), 9);
        assert_eq!(w.read_reg(1, Reg::r(0)), 0);
    }

    #[test]
    fn ldc_reads_params() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let k = KernelBuilder::new("t")
            .ldc(Reg::r(0), 4)
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(0);
        let params = [11, 22, 33];
        execute_data(
            &mut w,
            &k.insts[0],
            1,
            &mut ctx(&mut g, &mut s, &params, &mut Vec::new()),
        );
        assert_eq!(w.read_reg(0, Reg::r(0)), 22);
    }

    /// The scalar semantics of a data opcode, restated one lane at a time
    /// for [`reference_data`].
    fn scalar(op: Opcode, a: u32, b: u32, c: u32) -> u32 {
        use Opcode::*;
        let (fa, fb, fc) = (as_f32(a), as_f32(b), as_f32(c));
        let (sa, sb) = (a as i32, b as i32);
        match op {
            IAdd => a.wrapping_add(b),
            ISub => a.wrapping_sub(b),
            IMul => a.wrapping_mul(b),
            IMad => a.wrapping_mul(b).wrapping_add(c),
            IMin => sa.min(sb) as u32,
            IMax => sa.max(sb) as u32,
            IAbs => sa.unsigned_abs(),
            ISad => ((i64::from(sa) - i64::from(sb)).unsigned_abs() as u32).wrapping_add(c),
            And => a & b,
            Or => a | b,
            Xor => a ^ b,
            Not => !a,
            Shl => a << (b & 31),
            Shr => a >> (b & 31),
            Sar => (sa >> (b & 31)) as u32,
            FAdd => from_f32(fa + fb),
            FSub => from_f32(fa - fb),
            FMul => from_f32(fa * fb),
            FFma => from_f32(fa.mul_add(fb, fc)),
            FMin => from_f32(fa.min(fb)),
            FMax => from_f32(fa.max(fb)),
            FRcp => from_f32(1.0 / fa),
            FSqrt => from_f32(fa.sqrt()),
            FLog2 => from_f32(fa.log2()),
            FExp2 => from_f32(fa.exp2()),
            I2F => from_f32(sa as f32),
            F2I => fa as i32 as u32,
            Mov | S2R => a,
            Sel => {
                if c != 0 {
                    a
                } else {
                    b
                }
            }
            ISetp(cmp) => u32::from(cmp.eval_i32(sa, sb)),
            FSetp(cmp) => u32::from(cmp.eval_f32(fa, fb)),
            _ => unreachable!("{op} is no data op"),
        }
    }

    /// The lane-by-lane reference for [`execute_data`]: each lane in
    /// `mask`, ascending, reads its sources, computes and writes its
    /// result through the per-lane accessors (`read_reg` / `write_reg` /
    /// `read_pred` / `write_pred`) alone. `execute_data` moves whole rows,
    /// so a slip in a gather, a blend or a predicate mask shows as a
    /// difference from this.
    fn reference_data(warp: &mut Warp, inst: &Instruction, mask: u32, ctx: &mut ExecCtx<'_>) {
        let block = ctx.block;
        ctx.addrs.clear();
        for lane in (0..WARP_SIZE).filter(|&l| mask >> l & 1 == 1) {
            let src = |warp: &Warp, i: usize| match inst.srcs.get(i) {
                Some(&Operand::Reg(r)) => warp.read_reg(lane, r),
                Some(&Operand::Imm(v)) => v,
                Some(&Operand::Pred(p)) => u32::from(warp.read_pred(lane, p)),
                Some(&Operand::Special(s)) => special_value(warp, lane, s, &block),
                None => 0,
            };
            let Some(m) = inst.mem else {
                let v = scalar(inst.op, src(warp, 0), src(warp, 1), src(warp, 2));
                match inst.dst {
                    Dst::Reg(r) => warp.write_reg(lane, r, v),
                    Dst::Pred(p) => warp.write_pred(lane, p, v != 0),
                    Dst::None => {}
                }
                continue;
            };
            let offset = i64::from(m.offset) as u64;
            let addr = match inst.op {
                Opcode::Ldc => offset,
                _ => u64::from(warp.read_reg(lane, m.base)).wrapping_add(offset),
            };
            ctx.addrs.push(addr);
            let loaded = match inst.op {
                Opcode::Ldg => ctx.global.read_u32(addr),
                Opcode::Lds => ctx.shared.read_u32(addr),
                Opcode::Ldc => ctx.params.get((addr / 4) as usize).copied().unwrap_or(0),
                Opcode::Stg => {
                    ctx.global.write_u32(addr, src(warp, 0));
                    continue;
                }
                Opcode::Sts => {
                    ctx.shared.write_u32(addr, src(warp, 0));
                    continue;
                }
                op => unreachable!("{op} is no memory op"),
            };
            if let Dst::Reg(r) = inst.dst {
                warp.write_reg(lane, r, loaded);
            }
        }
    }

    const REF_REGS: u8 = 8;
    /// The 64 KiB page boundary global accesses straddle.
    const REF_PAGE: u64 = 64 * 1024;
    const REF_SHARED_BYTES: u32 = 256;

    /// A register that is RZ one time in five.
    fn any_reg(rng: &mut XorShift) -> Reg {
        if rng.below(5) == 0 {
            Reg::RZ
        } else {
            Reg::r(rng.below_u8(REF_REGS))
        }
    }

    /// A predicate that is PT one time in four.
    fn any_pred(rng: &mut XorShift) -> Pred {
        if rng.below(4) == 0 {
            Pred::PT
        } else {
            Pred::p(rng.below_u8(7))
        }
    }

    fn any_operand(rng: &mut XorShift) -> Operand {
        match rng.below(4) {
            0 => Operand::Reg(any_reg(rng)),
            1 => Operand::Imm(rng.next_u32()),
            2 => Operand::Pred(any_pred(rng)),
            _ => Operand::Special(*rng.choose(&Special::ALL)),
        }
    }

    /// Raw bits, small integers, ordinary floats or the float edge values
    /// (NaN, both zeros, both infinities), so that both the integer and
    /// the float paths see values they act on.
    fn any_value(rng: &mut XorShift) -> u32 {
        match rng.below(4) {
            0 => rng.next_u32(),
            1 => rng.below(64) as u32,
            2 => ((rng.below(4000) as f32 - 2000.0) / 16.0).to_bits(),
            _ => rng
                .choose(&[f32::NAN, -0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY])
                .to_bits(),
        }
    }

    /// The execution masks a case may take: none, one lane, a random
    /// partial mask and the full warp.
    fn any_mask(rng: &mut XorShift) -> u32 {
        match rng.below(4) {
            0 => 0,
            1 => 1 << rng.below(32),
            2 => rng.next_u32(),
            _ => u32::MAX,
        }
    }

    /// A random data or memory instruction over every operand kind, RZ and
    /// PT among sources and destinations. Before a memory instruction the
    /// base register's row is pointed at the words either side of a page
    /// boundary (global) or anywhere (shared: addresses wrap).
    fn any_instruction(rng: &mut XorShift, warp: &mut Warp) -> Instruction {
        let ops: Vec<Opcode> = Opcode::all()
            .iter()
            .copied()
            .filter(|op| !op.is_control())
            .collect();
        let op = *rng.choose(&ops);
        let nsrc = rng.below(4) as usize;
        let mut inst = match op {
            Opcode::Stg | Opcode::Sts => Instruction::new(op, Dst::None, vec![any_operand(rng)]),
            Opcode::Ldg | Opcode::Lds | Opcode::Ldc => {
                Instruction::new(op, Dst::Reg(any_reg(rng)), vec![])
            }
            _ => {
                let dst = match rng.below(4) {
                    0 => Dst::None,
                    1 => Dst::Pred(any_pred(rng)),
                    _ => Dst::Reg(any_reg(rng)),
                };
                Instruction::new(op, dst, (0..nsrc).map(|_| any_operand(rng)))
            }
        };
        if op.is_memory() {
            let base = any_reg(rng);
            let offset = rng.range(0, 24) as i32 - 12;
            for lane in 0..WARP_SIZE {
                let addr = match op {
                    Opcode::Ldg | Opcode::Stg => REF_PAGE - 96 + rng.below(192),
                    _ => rng.next_u64(),
                };
                warp.write_reg(lane, base, addr as u32);
            }
            inst.mem = Some(MemRef { base, offset });
        }
        inst
    }

    /// Every register row and all seven predicates, lane by lane.
    fn assert_same_warp(row: &Warp, reference: &Warp, what: &str) {
        for r in 0..REF_REGS {
            for lane in 0..WARP_SIZE {
                assert_eq!(
                    row.read_reg(lane, Reg::r(r)),
                    reference.read_reg(lane, Reg::r(r)),
                    "{what}: r{r} lane {lane}"
                );
            }
        }
        for p in 0..7 {
            for lane in 0..WARP_SIZE {
                assert_eq!(
                    row.read_pred(lane, Pred::p(p)),
                    reference.read_pred(lane, Pred::p(p)),
                    "{what}: p{p} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn row_execution_matches_the_lane_by_lane_reference() {
        let params = [7, 0xdead_beef, 42, u32::MAX];
        let (mut kinds, mut rz_pt, mut masks) = ([0u32; 4], [0u32; 4], [0u32; 4]);
        for seed in 1..=4 {
            let mut rng = XorShift::new(seed);
            let mut warp = Warp::new(0, 0, rng.below(4) as u32, 32, u16::from(REF_REGS));
            for r in 0..REF_REGS {
                for lane in 0..WARP_SIZE {
                    warp.write_reg(lane, Reg::r(r), any_value(&mut rng));
                }
            }
            for p in 0..7 {
                for lane in 0..WARP_SIZE {
                    warp.write_pred(lane, Pred::p(p), rng.next_bool());
                }
            }
            let mut global = GlobalMemory::new();
            for word in 0..64 {
                global.write_u32(REF_PAGE - 128 + 4 * word, rng.next_u32());
            }
            let mut shared = SharedMemory::new(REF_SHARED_BYTES);
            for word in 0..u64::from(REF_SHARED_BYTES / 4) {
                shared.write_u32(4 * word, rng.next_u32());
            }
            for case in 0..600 {
                let inst = any_instruction(&mut rng, &mut warp);
                let mask = any_mask(&mut rng);
                let what = format!("seed {seed} case {case}: {inst} under {mask:#010x}");
                for &op in &inst.srcs {
                    kinds[match op {
                        Operand::Reg(_) => 0,
                        Operand::Imm(_) => 1,
                        Operand::Pred(_) => 2,
                        Operand::Special(_) => 3,
                    }] += 1;
                    rz_pt[0] += u32::from(op == Operand::Reg(Reg::RZ));
                    rz_pt[1] += u32::from(op == Operand::Pred(Pred::PT));
                }
                rz_pt[2] += u32::from(inst.dst == Dst::Reg(Reg::RZ));
                rz_pt[3] += u32::from(inst.dst == Dst::Pred(Pred::PT));
                masks[match mask {
                    0 => 0,
                    u32::MAX => 3,
                    m if m.is_power_of_two() => 1,
                    _ => 2,
                }] += 1;

                let mut reference = warp.clone();
                let (mut ref_global, mut ref_shared) = (global.clone(), shared.clone());
                let (mut addrs, mut ref_addrs) = (Vec::new(), Vec::new());
                let access = execute_data(
                    &mut warp,
                    &inst,
                    mask,
                    &mut ctx(&mut global, &mut shared, &params, &mut addrs),
                );
                reference_data(
                    &mut reference,
                    &inst,
                    mask,
                    &mut ctx(&mut ref_global, &mut ref_shared, &params, &mut ref_addrs),
                );
                assert_same_warp(&warp, &reference, &what);
                assert_eq!(access.is_some(), inst.op.is_memory(), "{what}");
                assert_eq!(addrs, ref_addrs, "{what}: lane addresses");
                // Every word a case can store to: both sides of the page
                // boundary, and the words an RZ base reaches (the offset
                // alone, wrapping below zero).
                let near_boundary = (0..128).map(|w| REF_PAGE - 256 + 4 * w);
                let off_rz = (-4..4i64).map(|w| (4 * w) as u64);
                for a in near_boundary.chain(off_rz) {
                    assert_eq!(
                        global.read_u32(a),
                        ref_global.read_u32(a),
                        "{what}: global {a:#x}"
                    );
                }
                for word in 0..u64::from(REF_SHARED_BYTES / 4) {
                    let a = 4 * word;
                    assert_eq!(
                        shared.read_u32(a),
                        ref_shared.read_u32(a),
                        "{what}: shared {a}"
                    );
                }
            }
        }
        for (what, counts) in [
            ("operand kinds", kinds),
            ("RZ/PT sources and destinations", rz_pt),
            ("mask classes", masks),
        ] {
            assert!(
                counts.iter().all(|&n| n > 0),
                "{what} not all covered: {counts:?}"
            );
        }
    }

    #[test]
    fn uniform_branch_jumps_without_divergence() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let mut bra = Instruction::new(Opcode::Bra, Dst::None, vec![]);
        bra.target = Some(7);
        execute_control(&mut w, &bra);
        assert_eq!(w.pc, 7);
        assert!(w.stack.is_empty());
    }

    #[test]
    fn divergent_branch_pushes_and_reconverges() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        // Lanes 0..16 have p0 = true.
        for lane in 0..16 {
            w.write_pred(lane, Pred::p(0), true);
        }
        // ssy to the sync at pc 5.
        let mut ssy = Instruction::new(Opcode::Ssy, Dst::None, vec![]);
        ssy.target = Some(5);
        execute_control(&mut w, &ssy);
        assert_eq!(w.pc, 1);

        let mut bra = Instruction::new(Opcode::Bra, Dst::None, vec![]);
        bra.target = Some(3);
        bra.guard = Some(bow_isa::PredGuard {
            pred: Pred::p(0),
            negated: false,
        });
        execute_control(&mut w, &bra);
        // Taken side first.
        assert_eq!(w.pc, 3);
        assert_eq!(w.active, 0x0000_ffff);
        assert_eq!(w.stack.len(), 2);

        // Taken side reaches the sync at 5: switch to the deferred path.
        w.pc = 5;
        let sync = Instruction::new(Opcode::Sync, Dst::None, vec![]);
        execute_control(&mut w, &sync);
        assert_eq!(w.pc, 2); // fallthrough of the branch
        assert_eq!(w.active, 0xffff_0000);

        // Other side reaches the sync too: reconverge past it.
        w.pc = 5;
        execute_control(&mut w, &sync);
        assert_eq!(w.pc, 6);
        assert_eq!(w.active, u32::MAX);
        assert!(w.stack.is_empty());
    }

    /// Runs a kernel's control/ALU skeleton on one warp of the functional
    /// model until done, returning the trace of (pc, active) per step.
    fn run_barrier_kernel(k: &bow_isa::Kernel, preds: &[(usize, Pred, bool)]) -> Vec<(usize, u32)> {
        let mut w = Warp::new(0, 0, 0, 32, k.num_regs.max(1));
        w.barrier_mode = k.uses_convergence_barriers();
        for &(lane, p, v) in preds {
            w.write_pred(lane, p, v);
        }
        let mut g = GlobalMemory::new();
        let mut s = SharedMemory::new(0);
        let mut trace = Vec::new();
        let mut steps = 0;
        while !w.done {
            assert!(steps < 10_000, "kernel did not terminate");
            steps += 1;
            let inst = &k.insts[w.pc];
            trace.push((w.pc, w.active));
            if inst.op.is_control() {
                execute_control(&mut w, inst);
            } else {
                let mask = w.guard_mask(inst.guard);
                w.pc += 1;
                execute_data(
                    &mut w,
                    inst,
                    mask,
                    &mut ctx(&mut g, &mut s, &[], &mut Vec::new()),
                );
            }
        }
        trace
    }

    #[test]
    fn barrier_diamond_reconverges() {
        // if (p0) { r0 = 1 } else { r0 = 2 }; join
        let k = KernelBuilder::new("diamond")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(Reg::r(0), 2)
            .bra("join_sync")
            .label("then")
            .mov_imm(Reg::r(0), 1)
            .label("join_sync")
            .bsync(0)
            .label("join")
            .mov_imm(Reg::r(1), 3)
            .exit()
            .build()
            .unwrap();
        let low = 0x0000_ffffu32;
        let preds: Vec<_> = (0..16).map(|l| (l, Pred::p(0), true)).collect();
        let trace = run_barrier_kernel(&k, &preds);
        // Taken arm runs first (lanes 0..16), then the not-taken arm, then
        // both bsync executions, then the reconverged join with a full mask.
        let then_pc = 4; // mov r0, 1
        let else_pc = 2; // mov r0, 2
        let then_pos = trace.iter().position(|&(pc, _)| pc == then_pc).unwrap();
        let else_pos = trace.iter().position(|&(pc, _)| pc == else_pc).unwrap();
        assert!(then_pos < else_pos, "taken arm serializes first");
        assert_eq!(trace[then_pos].1, low);
        assert_eq!(trace[else_pos].1, !low);
        let join = trace.iter().find(|&&(pc, _)| pc == 6).unwrap();
        assert_eq!(join.1, u32::MAX, "join runs with the reconverged mask");
    }

    #[test]
    fn barrier_nested_diamonds_reconverge_inside_out() {
        // Outer diamond on p0; the taken arm contains an inner diamond on p1.
        let k = KernelBuilder::new("nested")
            .bssy(0, "ojoin")
            .bra_if(Pred::p(0), false, "othen")
            .mov_imm(Reg::r(0), 9)
            .bra("osync")
            .label("othen")
            .bssy(1, "ijoin")
            .bra_if(Pred::p(1), false, "ithen")
            .mov_imm(Reg::r(1), 8)
            .bra("isync")
            .label("ithen")
            .mov_imm(Reg::r(1), 7)
            .label("isync")
            .bsync(1)
            .label("ijoin")
            .label("osync")
            .bsync(0)
            .label("ojoin")
            .mov_imm(Reg::r(2), 1)
            .exit()
            .build()
            .unwrap();
        // p0 true on lanes 0..16; within those, p1 true on lanes 0..8.
        let mut preds: Vec<_> = (0..16).map(|l| (l, Pred::p(0), true)).collect();
        preds.extend((0..8).map(|l| (l, Pred::p(1), true)));
        let trace = run_barrier_kernel(&k, &preds);
        let at = |pc: usize| trace.iter().find(|&&(p, _)| p == pc).unwrap().1;
        assert_eq!(at(8), 0x0000_00ff, "inner taken arm: p0 & p1 lanes");
        assert_eq!(at(6), 0x0000_ff00, "inner not-taken arm");
        assert_eq!(at(2), 0xffff_0000, "outer not-taken arm");
        // First arrival at the outer bsync is the fully reconverged inner
        // group: the inner diamond joined before the outer sync.
        assert_eq!(at(10), 0x0000_ffff, "inner join completes first");
        assert_eq!(at(11), u32::MAX, "outer join reconverges everyone");
    }

    #[test]
    fn barrier_exit_in_arm_releases_waiters() {
        // The not-taken arm exits without ever reaching the bsync; the
        // waiting taken arm must still be released.
        let k = KernelBuilder::new("armexit")
            .bssy(0, "join")
            .bra_if(Pred::p(0), false, "then")
            .exit()
            .label("then")
            .mov_imm(Reg::r(0), 1)
            .bsync(0)
            .label("join")
            .mov_imm(Reg::r(1), 2)
            .exit()
            .build()
            .unwrap();
        let preds: Vec<_> = (0..16).map(|l| (l, Pred::p(0), true)).collect();
        let trace = run_barrier_kernel(&k, &preds);
        let join = trace.iter().find(|&&(pc, _)| pc == 5).unwrap();
        assert_eq!(join.1, 0x0000_ffff, "survivors continue past the join");
    }

    #[test]
    fn bsync_on_unarmed_barrier_is_a_nop_and_flagged() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        w.barrier_mode = true;
        let k = KernelBuilder::new("t").bsync(3).exit().build().unwrap();
        assert!(sync_underflows(&w, &k.insts[0]));
        execute_control(&mut w, &k.insts[0]);
        assert_eq!(w.pc, 1);
        assert_eq!(w.active, u32::MAX);
    }

    #[test]
    fn exit_and_barrier_outcomes() {
        let mut w = Warp::new(0, 0, 0, 32, 4);
        let bar = Instruction::new(Opcode::Bar, Dst::None, vec![]);
        assert_eq!(execute_control(&mut w, &bar), ControlOutcome::Barrier);
        assert!(w.at_barrier);
        let exit = Instruction::new(Opcode::Exit, Dst::None, vec![]);
        assert_eq!(execute_control(&mut w, &exit), ControlOutcome::Exit);
        assert!(w.done);
    }
}
