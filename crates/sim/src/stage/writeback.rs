//! The writeback stage: drains due completions, routes results through
//! the collector model's write policy and releases the interlock.

use super::interlock::Interlock;
use super::{SmCtx, Stages};
use crate::decode::DecodedKernel;
use crate::probe::{emit, PipeEvent, Probe};
use bow_isa::{Pred, Reg, WritebackHint, WARP_SIZE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A completed instruction waiting for its writeback moment.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Completion {
    pub(crate) time: u64,
    pub(crate) ord: u64,
    pub(crate) warp: usize,
    pub(crate) pc: usize,
    pub(crate) dst_reg: Option<Reg>,
    pub(crate) dst_pred: Option<Pred>,
    pub(crate) hint: WritebackHint,
    pub(crate) seq: u64,
    pub(crate) issue_cycle: u64,
    pub(crate) is_mem: bool,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.ord).cmp(&(other.time, other.ord))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The dispatch → writeback latch: in-flight results ordered by
/// `(finish time, dispatch order)` so ties resolve deterministically.
#[derive(Debug, Default)]
pub struct CompletionQueue {
    heap: BinaryHeap<Reverse<Completion>>,
    /// Monotone dispatch counter used as the tie-break key.
    ord: u64,
}

impl CompletionQueue {
    /// Enqueues a completion, stamping its dispatch order.
    pub(crate) fn push(&mut self, mut c: Completion) {
        self.ord += 1;
        c.ord = self.ord;
        self.heap.push(Reverse(c));
    }

    /// Pops the earliest completion due at or before `cycle`.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<Completion> {
        if self.heap.peek().is_some_and(|Reverse(c)| c.time <= cycle) {
            Some(self.heap.pop().expect("peeked").0)
        } else {
            None
        }
    }

    /// Whether any completion is still in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl Stages {
    pub(super) fn writeback<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
    ) {
        while let Some(c) = self.completions.pop_due(ctx.cycle) {
            let span = ctx.cycle - c.issue_cycle;
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::ExecSpan {
                    is_mem: c.is_mem,
                    span,
                },
            );
            let Some(warp) = ctx.warps[c.warp].as_mut() else {
                debug_assert!(false, "completion for retired warp");
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::RetiredCompletion {
                        cycle: ctx.cycle,
                        warp: c.warp,
                        pc: c.pc,
                    },
                );
                continue;
            };
            warp.inflight -= 1;
            let retired = warp.done && warp.inflight == 0;
            let current_seq = warp.seq;
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Writeback {
                    cycle: ctx.cycle,
                    sm: ctx.id,
                    warp: c.warp,
                    pc: c.pc,
                    seq: c.seq,
                },
            );
            let oc = self.oc_of(c.warp);
            if let Some(reg) = c.dst_reg {
                // Stage the architectural result for the shadow RF:
                // warp.regs already holds what this completion computed,
                // and whether it ever reaches the banks is exactly what
                // the write policy below decides (via
                // `RegFile::enqueue_write`, or never). Like the issue-time
                // shadow read, only an exact interlock supports it.
                if I::EXACT && ctx.rf.shadow_enabled() {
                    let mut lanes = [0u32; WARP_SIZE];
                    for (lane, v) in lanes.iter_mut().enumerate() {
                        *v = warp.read_reg(lane, reg);
                    }
                    ctx.rf.shadow_stage(c.warp, reg, lanes);
                }
                oc.writeback(
                    c.warp,
                    reg,
                    c.seq,
                    c.hint,
                    current_seq,
                    &mut ctx.rf,
                    &mut ctx.stats,
                    probe,
                );
            }
            il.on_writeback(&c, kernel);
            if retired {
                ctx.finalize_warp(oc, c.warp, probe);
            }
        }
    }
}
