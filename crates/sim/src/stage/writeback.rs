//! The writeback stage: drains due completions, routes results through
//! the collector model's write policy and releases the interlock.

use super::interlock::Interlock;
use super::{SmCtx, Stages};
use crate::decode::DecodedKernel;
use crate::probe::{emit, PipeEvent, Probe};
use bow_isa::{Pred, Reg, WritebackHint};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A completed instruction waiting for its writeback moment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

/// Buckets of the timing wheel: a completion due fewer than this many
/// cycles past the wheel's base (every ALU, SFU and shared-memory result,
/// and L1 hits) waits in a bucket; a later one (L2 and DRAM) in the heap.
const WHEEL: u64 = 64;

/// The empty link.
const NIL: u32 = u32::MAX;

/// A queued completion and the next node of its bucket (or of the free
/// list once popped).
#[derive(Debug)]
struct Node {
    c: Completion,
    next: u32,
}

/// The dispatch → writeback latch: in-flight results popped in `(finish
/// time, dispatch order)` order, so ties resolve deterministically.
///
/// Completions live in one slab of nodes that grows to the launch's
/// high-water mark and is then recycled through a free list. Near ones are
/// linked into a timing wheel, one bucket per cycle, appended in dispatch
/// order; far ones are keyed `(time, ord, node)` in a binary heap. A pop
/// takes the smaller key of the first non-empty bucket and the heap top.
#[derive(Debug)]
pub struct CompletionQueue {
    slab: Vec<Node>,
    /// Head of the free list threaded through `slab`.
    free: u32,
    /// Bucket `t % WHEEL` links the completions due at `t`, for every `t`
    /// in `base..base + WHEEL`: first and last node.
    head: [u32; WHEEL as usize],
    tail: [u32; WHEEL as usize],
    /// The non-empty buckets, one bit each.
    occupied: u64,
    /// No bucket holds a completion due before this cycle.
    base: u64,
    /// Completions that did not fit the wheel when pushed.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Monotone dispatch counter used as the tie-break key.
    ord: u64,
    /// Pushes that went to `far`.
    #[cfg(test)]
    pub(super) far_pushes: u64,
}

impl Default for CompletionQueue {
    fn default() -> CompletionQueue {
        CompletionQueue {
            slab: Vec::new(),
            free: NIL,
            head: [NIL; WHEEL as usize],
            tail: [NIL; WHEEL as usize],
            occupied: 0,
            base: 0,
            far: BinaryHeap::new(),
            ord: 0,
            #[cfg(test)]
            far_pushes: 0,
        }
    }
}

impl CompletionQueue {
    /// Enqueues a completion, stamping its dispatch order.
    pub(crate) fn push(&mut self, mut c: Completion) {
        self.ord += 1;
        c.ord = self.ord;
        let node = Node { c, next: NIL };
        let n = if self.free == NIL {
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = self.slab[n as usize].next;
            self.slab[n as usize] = node;
            n
        };
        if (self.base..self.base + WHEEL).contains(&c.time) {
            let b = (c.time % WHEEL) as usize;
            if self.occupied >> b & 1 == 0 {
                self.occupied |= 1 << b;
                self.head[b] = n;
            } else {
                self.slab[self.tail[b] as usize].next = n;
            }
            self.tail[b] = n;
        } else {
            self.far.push(Reverse((c.time, c.ord, n)));
            #[cfg(test)]
            {
                self.far_pushes += 1;
            }
        }
    }

    /// Moves the empty wheel back to cycle 0, where the SM clock restarts
    /// for a new launch; left at the last launch's clock, it would send
    /// every completion of the next one to the heap until the clock caught
    /// up.
    pub(crate) fn restart(&mut self) {
        debug_assert!(self.is_empty(), "restart with completions in flight");
        self.base = 0;
    }

    /// The due time of the first non-empty bucket.
    fn first_near(&self) -> Option<u64> {
        // Bucket b holds time base + ((b - base) mod WHEEL).
        (self.occupied != 0).then(|| {
            let skip = self.occupied.rotate_right((self.base % WHEEL) as u32);
            self.base + u64::from(skip.trailing_zeros())
        })
    }

    /// The earliest due time of any queued completion.
    pub(crate) fn next_due(&self) -> Option<u64> {
        let far = self.far.peek().map(|&Reverse((t, _, _))| t);
        match (self.first_near(), far) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Nothing was due through `cycle`: lets the wheel follow the clock
    /// (never past a queued bucket) so what dispatches next lands in it.
    pub(crate) fn idle_through(&mut self, cycle: u64) {
        let horizon = self.first_near().unwrap_or(u64::MAX).min(cycle + 1);
        self.base = self.base.max(horizon);
    }

    /// Pops the earliest completion due at or before `cycle`.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<Completion> {
        let near = self.first_near().filter(|&t| t <= cycle).map(|t| {
            let n = self.head[(t % WHEEL) as usize];
            (t, self.slab[n as usize].c.ord)
        });
        let far = self
            .far
            .peek()
            .map(|&Reverse(k)| k)
            .filter(|k| k.0 <= cycle);
        let n = match (near, far) {
            (None, None) => {
                self.idle_through(cycle);
                return None;
            }
            (Some(key), far) if far.is_none_or(|(t, ord, _)| key < (t, ord)) => {
                let (t, _) = key;
                let b = (t % WHEEL) as usize;
                let n = self.head[b];
                self.head[b] = self.slab[n as usize].next;
                if self.head[b] == NIL {
                    self.occupied &= !(1 << b);
                }
                self.base = t;
                n
            }
            _ => self.far.pop().expect("peeked").0 .2,
        };
        self.slab[n as usize].next = self.free;
        self.free = n;
        Some(self.slab[n as usize].c)
    }

    /// Whether any completion is still in flight.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
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
            self.ready.mark(c.warp);
            let nparts = self.parts.len();
            let oc = &mut self.parts[c.warp % nparts].oc;
            if let Some(reg) = c.dst_reg {
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
                debug_assert!(
                    il.drained(c.warp),
                    "warp {} retired holding a reservation",
                    c.warp
                );
                ctx.finalize_warp(oc, c.warp, probe);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_util::XorShift;
    use std::collections::BinaryHeap;

    fn completion(time: u64, warp: usize) -> Completion {
        Completion {
            time,
            ord: 0,
            warp,
            pc: 0,
            dst_reg: None,
            dst_pred: None,
            hint: WritebackHint::Both,
            seq: 0,
            issue_cycle: 0,
            is_mem: false,
        }
    }

    /// The queue this one replaced: every completion in one binary heap
    /// keyed `(time, ord)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
        ord: u64,
    }

    impl Reference {
        fn push(&mut self, time: u64, warp: usize) {
            self.ord += 1;
            self.heap.push(Reverse((time, self.ord, warp)));
        }

        fn pop_due(&mut self, cycle: u64) -> Option<(u64, u64, usize)> {
            let due = self.heap.peek().is_some_and(|Reverse(k)| k.0 <= cycle);
            due.then(|| self.heap.pop().expect("peeked").0)
        }
    }

    #[test]
    fn pops_the_same_sequence_as_a_binary_heap() {
        // Latencies from 1 cycle to well past the wheel (DRAM-like), with
        // bursts of equal finish times, popped the way writeback does: at
        // every cycle, everything due, before that cycle's pushes.
        for seed in 1..=4u64 {
            let mut rng = XorShift::new(seed);
            let (mut queue, mut reference) = (CompletionQueue::default(), Reference::default());
            let (mut popped, mut far) = (0, 0);
            for cycle in 1..4000u64 {
                loop {
                    let got = queue.pop_due(cycle).map(|c| (c.time, c.ord, c.warp));
                    assert_eq!(got, reference.pop_due(cycle), "seed {seed} cycle {cycle}");
                    if got.is_none() {
                        break;
                    }
                    popped += 1;
                }
                assert_eq!(queue.is_empty(), reference.heap.is_empty());
                let due = reference.heap.peek().map(|Reverse(k)| k.0);
                assert_eq!(queue.next_due(), due, "seed {seed} cycle {cycle}");
                if cycle > 3500 {
                    continue; // drain
                }
                for _ in 0..rng.below(4) {
                    let latency = match rng.below(4) {
                        0 => 1 + rng.below(8),
                        1 => 24,
                        2 => 1 + rng.below(2 * WHEEL),
                        _ => 190 + rng.below(200),
                    };
                    far += u64::from(latency >= WHEEL);
                    let warp = rng.below(64) as usize;
                    queue.push(completion(cycle + latency, warp));
                    reference.push(cycle + latency, warp);
                }
            }
            assert!(
                queue.is_empty() && popped > 4000 && far > 1000,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn late_and_past_due_pushes_still_pop_in_order() {
        // Off the writeback pattern: pops skipped for many cycles, then a
        // push already due, then a push between two queued times.
        let mut queue = CompletionQueue::default();
        let mut reference = Reference::default();
        for (time, warp) in [(10, 0), (500, 1), (10, 2), (70, 3)] {
            queue.push(completion(time, warp));
            reference.push(time, warp);
        }
        let pop = |q: &mut CompletionQueue, r: &mut Reference, cycle| {
            let got = q.pop_due(cycle).map(|c| (c.time, c.ord, c.warp));
            assert_eq!(got, r.pop_due(cycle), "cycle {cycle}");
            got
        };
        while pop(&mut queue, &mut reference, 100).is_some() {}
        for (time, warp) in [(50, 4), (300, 5), (150, 6)] {
            queue.push(completion(time, warp));
            reference.push(time, warp);
        }
        for cycle in [120, 200, 1000] {
            while pop(&mut queue, &mut reference, cycle).is_some() {}
        }
        assert!(queue.is_empty());
    }
}
