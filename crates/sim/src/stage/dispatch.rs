//! The dispatch stage: picks ready slots under the functional-unit
//! budgets, executes them functionally and schedules their completions.

use super::interlock::Interlock;
use super::writeback::Completion;
use super::{SmCtx, Stages};
use crate::decode::DecodedKernel;
use crate::exec::{self, ExecCtx, Space};
use crate::probe::{emit, PipeEvent, Probe};
use crate::warp::lanes_in;
use bow_isa::FuClass;
use bow_mem::{bank_conflict_degree, AccessKind, GlobalMemory};

/// The collect → dispatch latch: indices of collector slots whose
/// operands were all ready when the collect stage last ticked.
#[derive(Debug, Default)]
pub struct DispatchLatch {
    ready: Vec<usize>,
}

impl DispatchLatch {
    /// Refills the latched ready set in place, reusing the buffer's
    /// capacity across cycles.
    pub(crate) fn fill(&mut self, oc: &crate::collector::OperandStage, cycle: u64) {
        self.ready.clear();
        oc.ready_slots_into(cycle, &mut self.ready);
    }

    /// Drains the latched ready set. Pair with [`DispatchLatch::restore`]
    /// to hand the emptied buffer back.
    pub(crate) fn take_ready(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.ready)
    }

    /// Returns a drained buffer so its capacity survives to next cycle.
    pub(crate) fn restore(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.ready = buf;
    }
}

impl Stages {
    pub(super) fn dispatch<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        global: &mut GlobalMemory,
        probe: &mut P,
    ) {
        // The functional-unit budgets (indexed by `FuClass as usize`) are
        // SM-wide: partitions draw on them in index order.
        let mut budget = [
            FuClass::Alu,
            FuClass::Mul,
            FuClass::Sfu,
            FuClass::Mem,
            FuClass::Ctrl,
        ]
        .map(|c| ctx.config.fu_width(c));
        let mut picked = std::mem::take(&mut self.picked_buf);
        for (p, part) in self.parts.iter_mut().enumerate() {
            let ready = part.latch.take_ready();
            for &idx in &ready {
                let slot = part.oc.slot(idx);
                let (warp, seq, class) = (slot.warp, slot.seq, kernel.meta[slot.pc].fu);
                // Strict per-warp program order: only the warp's oldest
                // resident instruction may leave, one per cycle. This is
                // what keeps functional execution at dispatch correct
                // even under unsound control bits.
                if !I::EXACT
                    && (self.warp_dispatched[warp] || part.oc.min_seq_of(warp) != Some(seq))
                {
                    continue;
                }
                let b = &mut budget[class as usize];
                if *b == 0 {
                    continue;
                }
                *b -= 1;
                if !I::EXACT {
                    self.warp_dispatched[warp] = true;
                }
                picked.push(idx);
            }
            part.latch.restore(ready);
            let was_full = part.oc.pool_full();
            // Remove highest-index first so indices stay valid.
            for &idx in picked.iter().rev() {
                let mut slot = part.oc.remove(idx);
                self.ready.mark(slot.warp);
                // A warp lives in one partition, so the gate is done with
                // it once this partition's picks have left.
                self.warp_dispatched[slot.warp] = false;
                // Re-read the guard predicate now: the issue-time read can
                // precede the producer's execute under tight control bits,
                // and dispatch is where in-order execution makes the warp
                // state current. (The divergence mask cannot have moved:
                // control instructions wait for the collector to drain.)
                let guard = kernel.insts[slot.pc].guard;
                if !I::EXACT && guard.is_some() {
                    if let Some(warp) = ctx.warps[slot.warp].as_ref() {
                        slot.mask = warp.guard_mask(guard);
                    }
                }
                il.on_dispatch(slot.warp, slot.pc, kernel);
                let completion = execute_and_complete(
                    ctx,
                    slot,
                    kernel,
                    &mut self.values_buf,
                    &mut self.addr_buf,
                    global,
                    probe,
                );
                self.completions.push(completion);
            }
            if part.oc.pool_full() != was_full {
                self.ready.mark_partition(p);
            }
            picked.clear();
        }
        self.picked_buf = picked;
    }
}

/// Dispatches one slot: emits the `Dispatch` event, executes the slot
/// functionally, snapshots the result for an active probe (the lockstep
/// oracle) and returns the completion to schedule.
fn execute_and_complete<P: Probe>(
    ctx: &mut SmCtx,
    slot: crate::collector::Slot,
    kernel: &DecodedKernel<'_>,
    values_buf: &mut Vec<u32>,
    addr_buf: &mut Vec<u64>,
    global: &mut GlobalMemory,
    probe: &mut P,
) -> Completion {
    {
        let wslot = slot.warp;
        let slot_pc = slot.pc;
        let (inst, meta) = (&kernel.insts[slot_pc], &kernel.meta[slot_pc]);
        let oc_cycles = ctx.cycle - slot.insert_cycle;
        let is_mem = meta.is_memory;
        emit(
            &mut ctx.stats,
            probe,
            PipeEvent::Dispatch {
                cycle: ctx.cycle,
                sm: ctx.id,
                warp: wslot,
                pc: slot_pc,
                seq: slot.seq,
                oc_cycles,
                is_mem,
                inst,
            },
        );

        let warp = ctx.warps[wslot].as_mut().expect("dispatch for live warp");
        let bslot = warp.block_slot;
        let block = ctx.blocks[bslot].as_mut().expect("block resident");
        let mut ectx = ExecCtx {
            global,
            shared: &mut block.shared,
            params: &ctx.params,
            block: block.info,
            addrs: addr_buf,
        };
        let access = exec::execute_data(warp, inst, slot.mask, &mut ectx);

        if P::ACTIVE {
            // Snapshot the architectural result for the lockstep oracle
            // checker. `ExecResult` is a statistics no-op, so skipping the
            // emission entirely under `NullProbe` keeps counters identical.
            let warp = ctx.warps[wslot].as_ref().expect("live warp");
            values_buf.clear();
            if let Some(reg) = meta.dst_reg {
                values_buf.extend_from_slice(&warp.lanes_of(reg));
            }
            let pred_bits = meta.dst_pred.map_or(0, |p| warp.pred_bits(p));
            let uid = ctx.uid_of(warp);
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::ExecResult {
                    uid,
                    pc: slot_pc,
                    seq: slot.seq,
                    dst_reg: meta.dst_reg,
                    dst_pred: meta.dst_pred,
                    mask: slot.mask,
                    pred_bits,
                    values: values_buf,
                },
            );

            // Snapshot the memory access for the race sanitizer. Store
            // values come from the source operand per lane — stores never
            // write registers, so reading it post-execute is exact.
            if let Some(a) = &access {
                if a.space != Space::Param {
                    values_buf.clear();
                    if a.is_store {
                        let warp = ctx.warps[wslot].as_ref().expect("live warp");
                        let block = ctx.blocks[bslot].as_ref().expect("block resident");
                        let v = exec::operand_lanes(warp, inst.srcs[0], &block.info);
                        values_buf.extend(lanes_in(slot.mask).map(|lane| v[lane]));
                    }
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::MemTrace {
                            uid,
                            pc: slot_pc,
                            seq: slot.seq,
                            is_store: a.is_store,
                            shared: a.space == Space::Shared,
                            mask: slot.mask,
                            addrs: addr_buf,
                            values: values_buf,
                        },
                    );
                }
            }
        }

        let complete = match access {
            Some(a) => match a.space {
                Space::Global => {
                    let kind = if a.is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    ctx.mem.access(kind, addr_buf, ctx.cycle)
                }
                Space::Shared => {
                    let degree = bank_conflict_degree(addr_buf);
                    ctx.cycle
                        + u64::from(ctx.config.smem_latency)
                        + u64::from(degree.saturating_sub(1))
                }
                Space::Param => ctx.cycle + 4,
            },
            None => ctx.cycle + u64::from(ctx.config.fu_latency(meta.fu)),
        }
        .max(ctx.cycle + 1);

        Completion {
            time: complete,
            ord: 0, // stamped by the queue
            warp: wslot,
            pc: slot_pc,
            dst_reg: meta.dst_reg,
            dst_pred: meta.dst_pred,
            hint: inst.hint,
            seq: slot.seq,
            issue_cycle: slot.insert_cycle,
            is_mem,
        }
    }
}
