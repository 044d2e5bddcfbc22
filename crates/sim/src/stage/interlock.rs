//! The issue interlock: the policy that separates the two cores.
//!
//! Everything else about instruction flow — warp selection, collector
//! admission, dispatch, writeback — is the one [`Pipeline`](super::Pipeline);
//! what keeps a dependent instruction from issuing too early is an
//! [`Interlock`] the pipeline calls at fixed points of an instruction's
//! life (issue → dispatch → writeback):
//!
//! * [`Scoreboards`] (`pascal`) — the hardware [`Scoreboard`]: per-warp
//!   pending-write and pending-read reservations that block RAW, WAW and
//!   WAR hazards exactly.
//! * [`ControlBits`] (`modern`) — the compiler's [`CtrlBits`] sidecar,
//!   after "Analyzing Modern NVIDIA GPU cores" (arXiv 2503.20481): a stall
//!   count and six counting dependence barriers per warp, plus the
//!   uniform-register sets the same issue logic maintains. Kernels without
//!   the sidecar run under a conservative one-in-flight interlock, so the
//!   bits are a timing contract, never a correctness one.
//!
//! Both report a blocked warp as `StallKind::Scoreboard`: the control bits
//! play exactly the scoreboard's role, and reusing the counter keeps the
//! statistics schema frozen.
//!
//! [`CtrlBits`]: bow_isa::CtrlBits

use super::writeback::Completion;
use crate::decode::{set_get, set_put, DecodedKernel, RegSet};
use crate::scoreboard::Scoreboard;
use crate::warp::Warp;
use bow_isa::ctrl::NUM_BARRIERS;
use bow_isa::{Instruction, Opcode, Operand, Reg, Special};

/// The hazard policy of one SM, hooked into the shared pipeline. `w` is
/// always a warp slot index, `pc` the instruction's index in `kernel`.
pub(crate) trait Interlock {
    /// Whether [`blocks`](Self::blocks) is tested before collector
    /// admission (and before a control op's drain waits) rather than
    /// after. A warp held by both is charged to whichever is tested
    /// first, so this order is part of the stats fingerprint.
    const BLOCKS_BEFORE_ADMISSION: bool;

    /// Whether `blocks` alone rules out every register hazard. An exact
    /// interlock lets slots dispatch out of order. Under an inexact one
    /// (a timing contract the compiler may get wrong) correctness rests on the
    /// pipeline instead: each warp dispatches strictly in program order,
    /// one instruction per cycle, re-reading its guard at dispatch, and
    /// control ops wait for the warp's collector slots to drain.
    const EXACT: bool;

    /// `cycles` cycles began: once per ticked cycle, before any issue
    /// check, and once for a whole span of skipped quiet cycles.
    fn advance(&mut self, cycles: u64);

    /// Whether `warp` (in slot `w`) must not issue the instruction at
    /// its `pc` this cycle.
    fn blocks(&self, w: usize, warp: &Warp, kernel: &DecodedKernel<'_>) -> bool;

    /// For how many more cycles a count that only time releases holds
    /// slot `w` whatever else happens (0 when none does). The issue
    /// stage's ready set re-checks such a warp once this runs out instead
    /// of at every scan.
    fn stall_left(&self, _w: usize) -> u64 {
        0
    }

    /// Whether a read of `reg` is served by the uniform register file
    /// (it then skips the banked RF and the bypass window).
    fn is_uniform(&self, w: usize, reg: Reg) -> bool;

    /// The instruction at `pc` issued (control ops included).
    fn on_issue(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>);

    /// It left the collector with its operands: sources are consumed.
    fn on_dispatch(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>);

    /// A result became architecturally visible.
    fn on_writeback(&mut self, c: &Completion, kernel: &DecodedKernel<'_>);

    /// Whether slot `w` holds no reservation. A warp that exited with
    /// nothing in flight must be drained: the pipeline asserts it (debug
    /// builds) when it retires the warp, so a leaked reservation fails
    /// loudly.
    fn drained(&self, _w: usize) -> bool {
        true
    }

    /// Slot `w` is handed to a fresh warp.
    fn reset_warp(&mut self, w: usize);
}

/// The scoreboard interlock: one [`Scoreboard`] per warp slot.
pub(crate) struct Scoreboards(Vec<Scoreboard>);

impl Scoreboards {
    pub(crate) fn new(max_warps: usize) -> Scoreboards {
        Scoreboards(vec![Scoreboard::new(); max_warps])
    }
}

impl Interlock for Scoreboards {
    const BLOCKS_BEFORE_ADMISSION: bool = false;
    const EXACT: bool = true;

    fn advance(&mut self, _cycles: u64) {}

    fn blocks(&self, w: usize, warp: &Warp, kernel: &DecodedKernel<'_>) -> bool {
        !self.0[w].can_issue(&kernel.meta[warp.pc])
    }

    fn is_uniform(&self, _w: usize, _reg: Reg) -> bool {
        false
    }

    fn on_issue(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>) {
        // Control ops resolve at issue: they reserve nothing.
        let meta = &kernel.meta[pc];
        if !meta.is_control {
            self.0[w].issue(meta);
        }
    }

    fn on_dispatch(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>) {
        self.0[w].dispatch(&kernel.meta[pc]);
    }

    fn on_writeback(&mut self, c: &Completion, _kernel: &DecodedKernel<'_>) {
        if let Some(reg) = c.dst_reg {
            self.0[c.warp].writeback_reg(reg);
        }
        if let Some(p) = c.dst_pred {
            self.0[c.warp].writeback_pred(p);
        }
    }

    fn drained(&self, w: usize) -> bool {
        self.0[w].is_clear()
    }

    fn reset_warp(&mut self, w: usize) {
        self.0[w] = Scoreboard::new();
    }
}

/// Per-warp control-bit interlock state.
#[derive(Clone, Debug, Default)]
struct WarpCtrl {
    /// The first cycle (of [`ControlBits::now`]) this warp may issue again:
    /// the issuing cycle plus the stall field.
    stall_until: u64,
    /// Outstanding set-count per dependence barrier. A barrier blocks
    /// waiters while its count is non-zero; counting (rather than a
    /// plain flag) makes compiler barrier reuse sound.
    bar_pending: [u32; NUM_BARRIERS as usize],
    /// The barriers with a non-zero count, one bit each: what a wait mask
    /// is tested against on every issue scan.
    pending_mask: u8,
}

impl WarpCtrl {
    fn set(&mut self, bar: u8) {
        self.bar_pending[bar as usize] += 1;
        self.pending_mask |= 1 << bar;
    }

    fn release(&mut self, bar: Option<u8>) {
        if let Some(b) = bar {
            let p = &mut self.bar_pending[b as usize];
            *p = p.saturating_sub(1);
            if *p == 0 {
                self.pending_mask &= !(1 << b);
            }
        }
    }
}

/// Whether `inst` produces a block-uniform value every lane agrees on:
/// an unguarded constant load, immediate move, or block-level special.
/// These are what the uniform register file captures.
fn is_uniform_producer(inst: &Instruction) -> bool {
    if inst.guard.is_some() {
        return false;
    }
    match inst.op {
        Opcode::Ldc => true,
        Opcode::Mov => matches!(inst.srcs.first(), Some(Operand::Imm(_))),
        Opcode::S2R => matches!(
            inst.srcs.first(),
            Some(Operand::Special(
                Special::CtaidX
                    | Special::CtaidY
                    | Special::NtidX
                    | Special::NtidY
                    | Special::NctaidX
                    | Special::NctaidY
                    | Special::WarpId
            ))
        ),
        _ => false,
    }
}

/// The control-bit interlock: stall/barrier counts and the
/// uniform-resident register set of every warp slot.
pub(crate) struct ControlBits {
    /// Cycles begun so far: the clock stall deadlines are kept against.
    now: u64,
    ctrls: Vec<WarpCtrl>,
    /// Uniform-resident registers, one set per warp slot.
    uniform: Vec<RegSet>,
}

impl ControlBits {
    pub(crate) fn new(max_warps: usize) -> ControlBits {
        ControlBits {
            now: 0,
            ctrls: vec![WarpCtrl::default(); max_warps],
            uniform: vec![[0; 4]; max_warps],
        }
    }
}

impl Interlock for ControlBits {
    const BLOCKS_BEFORE_ADMISSION: bool = true;
    const EXACT: bool = false;

    fn advance(&mut self, cycles: u64) {
        self.now += cycles;
    }

    fn blocks(&self, w: usize, warp: &Warp, kernel: &DecodedKernel<'_>) -> bool {
        let ctrl = &self.ctrls[w];
        if ctrl.stall_until > self.now {
            return true;
        }
        match kernel.ctrl.get(warp.pc) {
            Some(cb) => ctrl.pending_mask & cb.wait_mask != 0,
            // Unannotated kernel: conservative one-in-flight interlock per
            // warp (the fallback the control bits exist to beat).
            None => warp.inflight > 0,
        }
    }

    fn stall_left(&self, w: usize) -> u64 {
        self.ctrls[w].stall_until.saturating_sub(self.now)
    }

    fn is_uniform(&self, w: usize, reg: Reg) -> bool {
        set_get(&self.uniform[w], reg)
    }

    fn on_issue(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>) {
        // Track uniform residency: a uniform producer parks its result in
        // the uniform RF; any other write to the register evicts it (the
        // value is no longer lane-invariant).
        let meta = &kernel.meta[pc];
        if let Some(d) = meta.dst_reg {
            set_put(
                &mut self.uniform[w],
                d,
                is_uniform_producer(&kernel.insts[pc]),
            );
        }
        if let Some(cb) = kernel.ctrl.get(pc) {
            let ctrl = &mut self.ctrls[w];
            ctrl.stall_until = self.now + u64::from(cb.stall);
            // Control instructions honour their stall field (it carries
            // residual latency across block boundaries) but never set
            // barriers: they do not dispatch or write back, so nothing
            // would ever release them.
            if !meta.is_control {
                for b in [cb.wr_bar, cb.rd_bar].into_iter().flatten() {
                    ctrl.set(b);
                }
            }
        }
    }

    /// The read barrier clears at dispatch: the operands are consumed, so
    /// overwriting the sources is now safe.
    fn on_dispatch(&mut self, w: usize, pc: usize, kernel: &DecodedKernel<'_>) {
        if let Some(cb) = kernel.ctrl.get(pc) {
            self.ctrls[w].release(cb.rd_bar);
        }
    }

    /// The write barrier clears at writeback: the result is
    /// architecturally visible to waiters.
    fn on_writeback(&mut self, c: &Completion, kernel: &DecodedKernel<'_>) {
        if let Some(cb) = kernel.ctrl.get(c.pc) {
            self.ctrls[c.warp].release(cb.wr_bar);
        }
    }

    fn reset_warp(&mut self, w: usize) {
        self.ctrls[w] = WarpCtrl::default();
        self.uniform[w] = [0; 4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::ctrl::CtrlBits;
    use bow_isa::{Kernel, KernelBuilder, WritebackHint};

    /// 0: ldg r1,[r0]   1: iadd r2,r1,1   2: mov r0,7   3: bra   4: exit
    fn kernel() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("k")
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .mov_imm(r(0), 7)
            .label("end")
            .bra("end")
            .exit()
            .build()
            .unwrap()
    }

    fn warp_at(pc: usize, inflight: u32) -> Warp {
        let mut w = Warp::new(0, 0, 0, 32, 8);
        w.pc = pc;
        w.inflight = inflight;
        w
    }

    fn completion_of(kernel: &Kernel, pc: usize) -> Completion {
        let inst = &kernel.insts[pc];
        Completion {
            time: 0,
            ord: 0,
            warp: 0,
            pc,
            dst_reg: inst.dst_reg(),
            dst_pred: inst.dst.pred(),
            hint: WritebackHint::Both,
            seq: pc as u64,
            issue_cycle: 0,
            is_mem: inst.op.is_memory(),
        }
    }

    fn blocks<I: Interlock>(il: &I, k: &DecodedKernel<'_>, pc: usize, inflight: u32) -> bool {
        il.blocks(0, &warp_at(pc, inflight), k)
    }

    #[test]
    fn scoreboard_holds_raw_to_writeback_and_war_to_dispatch() {
        let k = kernel();
        let k = DecodedKernel::new(&k);
        let mut il = Scoreboards::new(2);
        assert!(!blocks(&il, &k, 0, 0));
        il.on_issue(0, 0, &k);
        assert!(blocks(&il, &k, 1, 1), "RAW on r1");
        assert!(blocks(&il, &k, 2, 1), "WAR on r0");
        assert!(!il.is_uniform(0, Reg::r(1)));
        il.on_dispatch(0, 0, &k);
        assert!(!blocks(&il, &k, 2, 1), "sources consumed at dispatch");
        assert!(blocks(&il, &k, 1, 1), "result still pending");
        il.on_writeback(&completion_of(&k, 0), &k);
        assert!(!blocks(&il, &k, 1, 0));
        // Control ops reserve nothing; a fresh warp starts clear.
        il.on_issue(0, 3, &k);
        il.on_issue(0, 1, &k);
        il.reset_warp(0);
        assert!((0..k.insts.len()).all(|pc| !blocks(&il, &k, pc, 0)));
    }

    #[test]
    fn control_bits_release_read_barriers_at_dispatch_and_write_barriers_at_writeback() {
        let mut k = kernel();
        k.ctrl = vec![
            CtrlBits {
                stall: 2,
                wr_bar: Some(0),
                rd_bar: Some(1),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b01,
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b10,
                ..Default::default()
            },
            CtrlBits {
                stall: 3,
                wr_bar: Some(2),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b100,
                ..Default::default()
            },
        ];
        let k = DecodedKernel::new(&k);
        let mut il = ControlBits::new(2);
        il.on_issue(0, 0, &k);
        // The stall field holds every instruction of the warp, barriers or not.
        assert!(blocks(&il, &k, 3, 1));
        il.advance(1);
        assert!(blocks(&il, &k, 3, 1));
        il.advance(1);
        assert!(!blocks(&il, &k, 3, 1));
        assert!(blocks(&il, &k, 1, 1), "waits on the write barrier");
        assert!(blocks(&il, &k, 2, 1), "waits on the read barrier");
        il.on_dispatch(0, 0, &k);
        assert!(!blocks(&il, &k, 2, 1));
        assert!(blocks(&il, &k, 1, 1));
        il.on_writeback(&completion_of(&k, 0), &k);
        assert!(!blocks(&il, &k, 1, 0));
        // A control op honours its stall field but sets no barrier.
        il.on_issue(0, 3, &k);
        assert!(blocks(&il, &k, 4, 0), "stalled");
        for _ in 0..3 {
            il.advance(1);
        }
        assert!(!blocks(&il, &k, 4, 0), "barrier 2 was never set");
        // Other slots are independent, and a reset clears this one.
        il.on_issue(0, 0, &k);
        assert!(!il.blocks(1, &warp_at(1, 0), &k));
        il.reset_warp(0);
        assert!(!blocks(&il, &k, 1, 0));
    }

    #[test]
    fn a_reused_barrier_blocks_until_every_setter_clears() {
        let mut k = kernel();
        let setter = CtrlBits {
            wr_bar: Some(3),
            ..Default::default()
        };
        let waiter = CtrlBits {
            wait_mask: 0b1000,
            ..Default::default()
        };
        k.ctrl = vec![setter, setter, waiter, waiter, waiter];
        let k = DecodedKernel::new(&k);
        let mut il = ControlBits::new(1);
        il.on_issue(0, 0, &k);
        il.on_issue(0, 1, &k);
        assert!(blocks(&il, &k, 2, 2));
        il.on_writeback(&completion_of(&k, 1), &k);
        assert!(blocks(&il, &k, 2, 1), "the other setter is outstanding");
        il.on_writeback(&completion_of(&k, 0), &k);
        assert!(!blocks(&il, &k, 2, 0));
        // A spurious release saturates instead of wrapping.
        il.on_writeback(&completion_of(&k, 0), &k);
        assert!(!blocks(&il, &k, 2, 0));
    }

    #[test]
    fn an_unannotated_kernel_runs_one_instruction_in_flight() {
        let k = kernel();
        assert!(k.ctrl.is_empty());
        let k = DecodedKernel::new(&k);
        let mut il = ControlBits::new(1);
        assert!(!blocks(&il, &k, 0, 0));
        il.on_issue(0, 0, &k);
        il.advance(1);
        assert!(blocks(&il, &k, 2, 1), "independent, but one is in flight");
        il.on_dispatch(0, 0, &k);
        assert!(blocks(&il, &k, 2, 1), "dispatch does not retire it");
        il.on_writeback(&completion_of(&k, 0), &k);
        assert!(!blocks(&il, &k, 2, 0));
    }

    #[test]
    fn uniform_residency_follows_the_last_writer() {
        let r = Reg::r;
        let k = KernelBuilder::new("u")
            .ldc(r(1), 0)
            .s2r(r(2), Special::TidX)
            .s2r(r(3), Special::CtaidX)
            .iadd(r(1), r(1).into(), r(2).into())
            .exit()
            .build()
            .unwrap();
        let k = DecodedKernel::new(&k);
        let mut il = ControlBits::new(1);
        for pc in 0..3 {
            il.on_issue(0, pc, &k);
        }
        assert!(il.is_uniform(0, r(1)), "constant load");
        assert!(!il.is_uniform(0, r(2)), "tid differs per lane");
        assert!(il.is_uniform(0, r(3)), "block-level special");
        il.on_issue(0, 3, &k);
        assert!(!il.is_uniform(0, r(1)), "overwritten by a per-lane value");
        il.reset_warp(0);
        assert!(!il.is_uniform(0, r(3)));
    }
}
