//! Functional execution of instructions over warp state.
//!
//! The pipeline models *timing*; this module provides the *semantics*.
//! Control instructions execute at issue ([`execute_control`]); data and
//! memory instructions execute when the operand collector dispatches them
//! ([`execute_data`]), reading architectural registers directly — the
//! scoreboard guarantees those equal the values the collector gathered.

use crate::warp::{Split, StackEntry, StackKind, Warp};
use bow_isa::{Instruction, Opcode, Operand, Special, NUM_CBARS, WARP_SIZE};
use bow_mem::{GlobalAccess, GlobalMemory, SharedMemory};
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
/// Generic over the device-memory view: the SM pipeline passes its
/// [`SmView`](bow_mem::SmView) of the store buffer, the architectural
/// oracle the bare [`GlobalMemory`].
pub struct ExecCtx<'a, G: GlobalAccess = GlobalMemory> {
    /// Device global memory.
    pub global: &'a mut G,
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

/// Evaluates a source operand for one lane.
pub(crate) fn operand_value(warp: &Warp, lane: usize, op: Operand, block: &BlockInfo) -> u32 {
    match op {
        Operand::Reg(r) => warp.read_reg(lane, r),
        Operand::Imm(v) => v,
        Operand::Pred(p) => u32::from(warp.read_pred(lane, p)),
        Operand::Special(s) => special_value(warp, lane, s, block),
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

/// One value per lane of a warp.
type Lanes = [u32; WARP_SIZE];

/// Evaluates a source operand for every lane, resolving its kind once.
fn operand_lanes(warp: &Warp, op: Operand, block: &BlockInfo) -> Lanes {
    match op {
        Operand::Reg(r) => lanes(|lane| warp.read_reg(lane, r)),
        Operand::Imm(v) => [v; WARP_SIZE],
        Operand::Pred(p) => lanes(|lane| u32::from(warp.read_pred(lane, p))),
        Operand::Special(s) => lanes(|lane| special_value(warp, lane, s, block)),
    }
}

/// Executes a data or memory instruction for the lanes in `mask`
/// (captured at issue time), applying all register/predicate/memory
/// effects. Returns the memory-access description for memory opcodes.
///
/// The opcode and the operand kinds are resolved once per instruction,
/// not per lane: the sources are gathered for all 32 lanes, one
/// per-opcode loop computes every lane's result, and the lanes under
/// `mask` are written. A lane reads and writes only its own registers,
/// so this equals executing lane by lane.
///
/// # Panics
///
/// Panics if called with a control opcode — those go through
/// [`execute_control`] at issue.
pub fn execute_data<G: GlobalAccess>(
    warp: &mut Warp,
    inst: &Instruction,
    mask: u32,
    ctx: &mut ExecCtx<'_, G>,
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
        // Compares produce the predicate value per lane.
        ISetp(cmp) => lanes(|l| u32::from(cmp.eval_i32(a[l] as i32, b[l] as i32))),
        FSetp(cmp) => lanes(|l| u32::from(cmp.eval_f32(f(a[l]), f(b[l])))),
        Ldg | Stg | Lds | Sts | Ldc | Bra | Ssy | Sync | Bar | Exit | Nop | Bssy | Bsync => {
            unreachable!()
        }
    };
    for lane in active_lanes(mask) {
        match inst.dst {
            bow_isa::Dst::Reg(r) => warp.write_reg(lane, r, out[lane]),
            bow_isa::Dst::Pred(p) => warp.write_pred(lane, p, out[lane] != 0),
            bow_isa::Dst::None => {}
        }
    }
    None
}

/// The lanes set in `mask`, ascending.
fn active_lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |lane| mask & (1 << lane) != 0)
}

fn execute_memory<G: GlobalAccess>(
    warp: &mut Warp,
    inst: &Instruction,
    mask: u32,
    ctx: &mut ExecCtx<'_, G>,
) -> MemAccess {
    use Opcode::*;
    let mem = inst.mem.expect("validated memory op has a MemRef");
    let addr_of = |warp: &Warp, lane: usize| {
        if inst.op == Ldc {
            mem.offset as u64
        } else {
            (warp.read_reg(lane, mem.base) as u64).wrapping_add(mem.offset as i64 as u64)
        }
    };
    ctx.addrs.clear();
    ctx.addrs
        .extend(active_lanes(mask).map(|lane| addr_of(warp, lane)));
    let accesses = active_lanes(mask).zip(ctx.addrs.iter().copied());
    // Loads write the destination register (stores have none).
    let dst = match inst.dst {
        bow_isa::Dst::Reg(r) => r,
        _ => bow_isa::Reg::RZ,
    };
    let (is_store, space) = match inst.op {
        Ldg => {
            for (lane, addr) in accesses {
                warp.write_reg(lane, dst, ctx.global.read_u32(addr));
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
                warp.write_reg(lane, dst, ctx.shared.read_u32(addr));
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
                let v = ctx.params.get((addr / 4) as usize).copied().unwrap_or(0);
                warp.write_reg(lane, dst, v);
            }
            (false, Space::Param)
        }
        _ => unreachable!(),
    };
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
