//! Control-bits emission for the post-Volta "modern" core.
//!
//! Volta dropped the issue-stage scoreboard: every SASS instruction since
//! carries compiler-emitted control bits — a stall count for fixed-latency
//! producers and wait/read/write dependence barriers for variable-latency
//! ones. This pass reproduces that scheduler-side contract for the BOW ISA
//! so [`bow_isa::Kernel::ctrl`] can drive the modern core's issue gate.
//!
//! Per basic block, a greedy forward scan models issue time (the stall
//! count on instruction *i* delays instruction *i+1*, matching the core's
//! `max(1, stall)` issue-gap semantics) and tracks when each fixed-latency
//! destination becomes ready; RAW gaps are closed by raising the stall of
//! the *previous* instruction. Variable-latency producers (global/shared
//! accesses, whose timing the memory hierarchy decides) allocate a write
//! barrier round-robin over the six counters — reuse merges soundly
//! because the hardware side is a counter, not a flag — and consumers wait
//! on the barrier bit instead of stalling. Memory reads of a register
//! guard later writers of it (WAR) through a read barrier released at
//! operand dispatch.
//!
//! Across blocks the pass is conservative: the last instruction of a block
//! absorbs the residual fixed latency still outstanding (capped at
//! [`MAX_STALL`]), and the first instruction of every non-entry block
//! waits on the union of barriers that may still be pending at any
//! predecessor's exit — waiting on an already-released barrier is free, so
//! over-waiting only costs cycles, never correctness.
//!
//! Guard predicates are not serialized through control bits: the encoding
//! (like SASS) has no predicate barriers, and the modern core resolves
//! guards at issue. This mirrors real hardware, where predicate writes are
//! fixed-latency and covered by the ordinary stall path.

use crate::analysis::Analysis;
use crate::regset::{BarrierGuards, RegSet};
use bow_isa::ctrl::{CtrlBits, MAX_STALL, NUM_BARRIERS};
use bow_isa::{FuClass, Kernel, Opcode};

/// Fixed pipeline latencies the emitter assumes, in cycles. Defaults match
/// the simulator's TITAN X model (`GpuConfig`); the bits stay *sound* under
/// any real latency because the modern core's dispatch gate is in-order
/// regardless — smaller assumed latencies only cost issue-stage stalls.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CtrlLatencies {
    /// Simple integer/logic ALU pipe depth.
    pub alu: u32,
    /// Multiply / multiply-add pipe depth.
    pub mul: u32,
    /// Special-function-unit pipe depth.
    pub sfu: u32,
    /// Constant/parameter load (`ldc`) — served from the constant cache at
    /// a fixed depth, unlike the barrier-guarded global/shared accesses.
    pub ldc: u32,
}

impl Default for CtrlLatencies {
    fn default() -> CtrlLatencies {
        CtrlLatencies {
            alu: 4,
            mul: 6,
            sfu: 16,
            ldc: 4,
        }
    }
}

impl CtrlLatencies {
    /// The fixed latency of `op`, or `None` for variable-latency (memory
    /// hierarchy) and control operations.
    pub fn fixed(&self, op: Opcode) -> Option<u32> {
        match op.fu_class() {
            FuClass::Alu => Some(self.alu),
            FuClass::Mul => Some(self.mul),
            FuClass::Sfu => Some(self.sfu),
            FuClass::Mem => (op == Opcode::Ldc).then_some(self.ldc),
            FuClass::Ctrl => None,
        }
    }
}

/// Returns `kernel` with a full control-bits sidecar
/// ([`bow_isa::Kernel::ctrl`]) computed under `lat`. Purely additive: the
/// instruction stream, hints and existing metadata are untouched, so
/// Pascal-model runs and legacy binary fingerprints are unaffected.
pub fn emit_ctrl(kernel: &Kernel, lat: &CtrlLatencies) -> Kernel {
    let mut out = kernel.clone();
    out.ctrl = ctrl_bits(kernel, &Analysis::new(kernel), lat);
    out
}

/// The control-bits sidecar [`emit_ctrl`] attaches, computed over
/// `kernel`'s analysis bundle (one [`CtrlBits`] per instruction).
pub fn ctrl_bits(kernel: &Kernel, an: &Analysis, lat: &CtrlLatencies) -> Vec<CtrlBits> {
    debug_assert!(an.describes(kernel), "the bundle of another kernel");
    let n = kernel.insts.len();
    let cfg = an.cfg();
    let ops = an.ops();
    let mut ctrl = vec![CtrlBits::default(); n];

    // Forward fixpoint of may-be-pending barrier masks: a block's exit
    // carries everything pending at entry plus everything it allocates.
    let nb = cfg.len();
    let mut alloc_mask = vec![0u8; nb];
    let mut next_bar: u8 = 0;
    let mut bar_at = vec![(0u8, false); n]; // (barrier, allocates) per pc
    for (bi, block) in cfg.blocks().iter().enumerate() {
        for pc in block.range() {
            let inst = &kernel.insts[pc];
            let variable_producer =
                inst.op.fu_class() == FuClass::Mem && lat.fixed(inst.op).is_none();
            if variable_producer {
                bar_at[pc] = (next_bar, true);
                alloc_mask[bi] |= 1 << next_bar;
                next_bar = (next_bar + 1) % NUM_BARRIERS;
            }
        }
    }
    let mut entry_pending = vec![0u8; nb];
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, block) in cfg.blocks().iter().enumerate() {
            for &p in &block.preds {
                let from_pred = entry_pending[p] | alloc_mask[p];
                if entry_pending[bi] | from_pred != entry_pending[bi] {
                    entry_pending[bi] |= from_pred;
                    changed = true;
                }
            }
        }
    }

    // Per-register facts. `ready[r]` (indexed by Reg::index()) is the
    // block-local cycle the latest fixed-latency write of r completes,
    // non-zero only for the registers in the block's `timed` set (cleared
    // again at the block's end); `wr_guard` / `rd_guard` the barrier
    // guarding r's pending variable write / pending memory read.
    let mut ready = [0u64; 256];
    for (bi, block) in cfg.blocks().iter().enumerate() {
        let mut timed = RegSet::new();
        let mut wr_guard = BarrierGuards::new();
        let mut rd_guard = BarrierGuards::new();
        let mut t: u64 = 0; // issue time of the current instruction
        let mut prev: Option<usize> = None;

        for pc in block.range() {
            let inst = &kernel.insts[pc];
            let mut wait: u8 = 0;
            if pc == block.start {
                wait |= entry_pending[bi];
            }

            // RAW: wait on barrier-guarded sources, stall for fixed-latency
            // ones. WAR through memory: a write to a register a pending
            // memory read still needs must wait its read barrier.
            let mut need: u64 = t;
            for &s in &ops[pc].unique {
                if let Some(b) = wr_guard.of(s) {
                    wait |= 1 << b;
                }
                need = need.max(ready[s.index() as usize]);
            }
            if let Some(d) = ops[pc].def {
                if let Some(b) = rd_guard.of(d) {
                    wait |= 1 << b;
                }
                // WAW on a pending variable write: wait for it too.
                if let Some(b) = wr_guard.of(d) {
                    wait |= 1 << b;
                }
            }

            // Close the fixed-latency gap by stalling the previous
            // instruction: it issued at `t - 1` (its stall was still 0
            // when `t` advanced past it), and a stall of `s` makes this
            // instruction issue at `(t - 1) + max(1, s)`.
            if need > t {
                if let Some(p) = prev {
                    let prev_t = t - 1;
                    let gap = (need - prev_t).min(u64::from(MAX_STALL)) as u8;
                    ctrl[p].stall = ctrl[p].stall.max(gap);
                    t = prev_t + u64::from(ctrl[p].stall.max(1));
                } else {
                    // Block-leading consumer: predecessors absorbed the
                    // residual latency (see block exit below).
                    t = need;
                }
            }

            ctrl[pc].wait_mask |= wait;
            // A satisfied wait clears the guarded facts for later readers.
            wr_guard.release(wait);
            rd_guard.release(wait);

            // Record this instruction's own production.
            let (bar, allocates) = bar_at[pc];
            if allocates {
                if let Some(d) = ops[pc].def {
                    ctrl[pc].wr_bar = Some(bar);
                    wr_guard.set(d, Some(bar));
                    ready[d.index() as usize] = 0;
                } else {
                    // A store: guard its register reads against later
                    // overwrites until operands are dispatched.
                    ctrl[pc].rd_bar = Some(bar);
                    for &s in &ops[pc].unique {
                        rd_guard.set(s, Some(bar));
                    }
                }
            } else if let Some(d) = ops[pc].def {
                if let Some(l) = lat.fixed(inst.op) {
                    ready[d.index() as usize] = t + u64::from(l);
                    timed.insert(d);
                    wr_guard.set(d, None);
                }
            }

            prev = Some(pc);
            t += u64::from(ctrl[pc].stall.max(1));
        }

        // Let the block's last instruction absorb whatever fixed latency is
        // still in flight, so successors can start from a clean slate. The
        // last instruction issued at `t - 1`; a successor issues at
        // `(t - 1) + max(1, stall)` and must not beat the readiness front.
        let ready_max = timed.iter().map(|r| ready[r.index() as usize]).max();
        if let (Some(last), Some(ready_max)) = (prev, ready_max) {
            if ready_max > t {
                let gap = (ready_max - (t - 1)).min(u64::from(MAX_STALL)) as u8;
                ctrl[last].stall = ctrl[last].stall.max(gap);
            }
        }
        for r in timed.iter() {
            ready[r.index() as usize] = 0;
        }
    }

    debug_assert!(ctrl.iter().all(|c| c.validate().is_ok()));
    ctrl
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg};

    fn r(i: u8) -> Reg {
        Reg::r(i)
    }

    #[test]
    fn raw_gap_raises_previous_stall() {
        let k = KernelBuilder::new("raw")
            .mov_imm(r(0), 3)
            .iadd(r(1), r(0).into(), Operand::Imm(1)) // needs r0: alu gap
            .stg(r(1), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        assert_eq!(out.ctrl.len(), k.insts.len());
        // mov issues at 0, its result is ready at 4; iadd would issue at 1
        // without help, so the mov's stall must close a 3-cycle gap.
        assert_eq!(out.ctrl[0].stall, 4);
        // iadd -> stg likewise.
        assert_eq!(out.ctrl[1].stall, 4);
        assert!(out.ctrl[0].wr_bar.is_none(), "fixed latency needs no bar");
    }

    #[test]
    fn load_consumer_waits_on_the_write_barrier() {
        let k = KernelBuilder::new("load")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .stg(r(0), 4, r(2).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        let bar = out.ctrl[1].wr_bar.expect("ldg allocates a write barrier");
        assert_eq!(
            out.ctrl[2].wait_mask & (1 << bar),
            1 << bar,
            "the consumer waits on the load's barrier"
        );
        assert!(out.ctrl[0].wr_bar.is_none(), "ldc is fixed-latency");
        let rd = out.ctrl[3].rd_bar.expect("the store takes a read barrier");
        assert_ne!(rd, bar, "round-robin allocation");
    }

    #[test]
    fn war_on_a_store_source_waits_the_read_barrier() {
        let k = KernelBuilder::new("war")
            .mov_imm(r(0), 9)
            .stg(r(0), 0, r(0).into())
            .mov_imm(r(0), 10) // overwrites the store's operand
            .stg(r(0), 4, r(0).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        let rd = out.ctrl[1].rd_bar.expect("store takes a read barrier");
        assert_eq!(out.ctrl[2].wait_mask & (1 << rd), 1 << rd);
    }

    #[test]
    fn block_boundaries_absorb_residual_latency_and_entry_waits() {
        let k = KernelBuilder::new("blocks")
            .mov_imm(r(0), 0)
            .ldg(r(1), r(0), 0)
            .label("top")
            .iadd(r(0), r(0).into(), r(1).into()) // reads the load across the edge
            .isetp(CmpOp::Lt, Pred::p(0), r(0).into(), Operand::Imm(4))
            .bra_if(Pred::p(0), false, "top")
            .stg(r(0), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        let bar = out.ctrl[1].wr_bar.expect("ldg barrier");
        // The loop header is a non-entry block whose predecessors may have
        // the load pending: its first instruction waits the barrier.
        assert_eq!(out.ctrl[2].wait_mask & (1 << bar), 1 << bar);
        // The mov's result feeds the ldg's address: its stall covers the
        // full ALU latency before the load issues.
        assert_eq!(out.ctrl[0].stall, 4);
        for c in &out.ctrl {
            c.validate().unwrap();
        }
    }

    #[test]
    fn trailing_producer_stalls_the_block_exit() {
        // The branch is the last chance to cover the mov's latency before
        // the successor block consumes r0.
        let k = KernelBuilder::new("resid")
            .mov_imm(r(0), 7)
            .bra("end")
            .label("end")
            .stg(r(0), 0, r(0).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        // mov at 0 (ready at 4), bra at 1; a successor would issue at 2,
        // so the bra holds it back: 1 + stall >= 4.
        assert_eq!(out.ctrl[1].stall, 3);
    }

    #[test]
    fn independent_stream_keeps_default_bits() {
        let k = KernelBuilder::new("indep")
            .mov_imm(r(0), 1)
            .mov_imm(r(1), 2)
            .mov_imm(r(2), 3)
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        assert_eq!(out.ctrl[0], CtrlBits::default());
        assert_eq!(out.ctrl[1], CtrlBits::default());
    }

    /// Seven loads and a store over six barriers: barrier 0 is handed out
    /// twice, and `r1` moves from barrier 0 to barrier 5.
    pub(crate) fn barrier_reuse_kernel() -> Kernel {
        KernelBuilder::new("reuse")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0) // 1: bar 0
            .ldg(r(2), r(0), 4) // 2: bar 1
            .ldg(r(3), r(0), 8) // 3: bar 2
            .ldg(r(4), r(0), 12) // 4: bar 3
            .ldg(r(5), r(0), 16) // 5: bar 4
            .ldg(r(1), r(0), 20) // 6: bar 5, r1 re-guarded
            .ldg(r(6), r(0), 24) // 7: bar 0 again
            .iadd(r(7), r(6).into(), Operand::Imm(1)) // 8: waits bar 0
            .iadd(r(8), r(1).into(), Operand::Imm(1)) // 9: r1 is under bar 5
            .stg(r(0), 28, r(2).into()) // 10: read bar 1 over r0 and r2
            .mov_imm(r(0), 1) // 11: WAR on r0 waits bar 1
            .mov_imm(r(2), 2) // 12: r2 was released by that wait
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn reused_barriers_release_exactly_their_registers() {
        let out = emit_ctrl(&barrier_reuse_kernel(), &CtrlLatencies::default());
        assert_eq!(out.ctrl[1].wr_bar, Some(0));
        assert_eq!(out.ctrl[6].wr_bar, Some(5));
        assert_eq!(out.ctrl[7].wr_bar, Some(0), "barrier 0 is reused");
        assert_eq!(
            out.ctrl[6].wait_mask,
            1 << 0,
            "WAW on r1 waits its old barrier"
        );
        assert_eq!(out.ctrl[8].wait_mask, 1 << 0);
        // The wait on barrier 0 at #8 must not release r1, which moved to
        // barrier 5 at #6.
        assert_eq!(out.ctrl[9].wait_mask, 1 << 5);
        assert_eq!(out.ctrl[10].rd_bar, Some(1));
        assert_eq!(out.ctrl[11].wait_mask, 1 << 1);
        // One wait releases every register under its barrier: r2 needs
        // no second wait.
        assert_eq!(out.ctrl[12].wait_mask, 0);
    }

    #[test]
    fn annotated_kernel_still_validates() {
        let k = KernelBuilder::new("v")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .ldg(r(2), r(0), 4)
            .iadd(r(3), r(1).into(), r(2).into())
            .stg(r(0), 8, r(3).into())
            .exit()
            .build()
            .unwrap();
        let out = emit_ctrl(&k, &CtrlLatencies::default());
        out.validate().unwrap();
        // Two distinct loads, two distinct barriers, both awaited.
        let b1 = out.ctrl[1].wr_bar.unwrap();
        let b2 = out.ctrl[2].wr_bar.unwrap();
        assert_ne!(b1, b2);
        let m = out.ctrl[3].wait_mask;
        assert_eq!(m & (1 << b1), 1 << b1);
        assert_eq!(m & (1 << b2), 1 << b2);
    }
}
