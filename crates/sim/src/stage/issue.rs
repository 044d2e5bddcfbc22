//! The issue stage: per-scheduler warp selection over an event-maintained
//! ready set, control resolution and barrier release.
//!
//! Each scheduler scans its warps up to `issue_per_scheduler` times a
//! cycle, and a scan charges one rejected issue attempt per held warp.
//! Rather than
//! re-deriving every warp's standing per scan, the stage keeps each warp's
//! [`Class`] in a [`ReadySet`] and re-runs [`classify`] only for warps an
//! event has marked dirty since their scheduler's last scan: the warp's
//! own issue, the dispatch of one of its slots, its writeback,
//! `reset_warp`, a block-barrier release (every released warp), a shared
//! OCU pool filling or draining below full (every warp of that
//! partition), `reset_for_launch` (every warp), and the expiry of a
//! control-bit stall count. A scan then charges the scheduler's two stall
//! counts, which the set keeps as classes change, and picks among the
//! ready bits, so its cost follows what changed, not how many warps there
//! are.

use super::interlock::Interlock;
use super::{Part, SmCtx, Stages};
use crate::bits::{BitRows, Bits};
use crate::decode::DecodedKernel;
use crate::exec::{self, ControlOutcome};
use crate::probe::{emit, PipeEvent, Probe, StallKind};
use crate::stats::SimStats;

/// What an issue scan makes of one warp slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Class {
    /// Not a candidate and charged nothing: no live warp, done, waiting at
    /// a block barrier, past the end, or a control op waiting for the
    /// warp's collector slots or pipeline to drain.
    Skip,
    /// May issue.
    Ready,
    /// Held by the interlock (`StallKind::Scoreboard`).
    Scoreboard,
    /// No collector slot (`StallKind::NoCollector`).
    NoCollector,
}

/// The one readiness rule: what a scan of `w`'s scheduler makes of it,
/// and for how many cycles a control-bit stall count alone keeps it so (0
/// when only an event can change it). The interlock is consulted before
/// or after collector admission as its `BLOCKS_BEFORE_ADMISSION` says; a
/// warp held by both is charged to whichever comes first.
fn classify<I: Interlock>(
    parts: &[Part],
    il: &I,
    ctx: &SmCtx,
    w: usize,
    kernel: &DecodedKernel<'_>,
) -> (Class, u64) {
    let Some(warp) = ctx.warps[w].as_ref() else {
        return (Class::Skip, 0);
    };
    if warp.done || warp.at_barrier || warp.pc >= kernel.insts.len() {
        return (Class::Skip, 0);
    }
    let meta = &kernel.meta[warp.pc];
    if I::BLOCKS_BEFORE_ADMISSION && il.blocks(w, warp, kernel) {
        return (Class::Scoreboard, il.stall_left(w));
    }
    let oc = &parts[w % parts.len()].oc;
    if meta.is_control {
        // Control executes at issue, ahead of dispatch. Where dispatch
        // order is what keeps execution correct, it must wait until every
        // older instruction of this warp has left the collector (their
        // architectural writes land at dispatch): a guarded branch reading
        // its predicate early would be a correctness bug.
        if !I::EXACT && oc.min_seq_of(w).is_some() {
            return (Class::Skip, 0);
        }
        // Barriers and exits additionally wait for the warp's pipeline to
        // drain so block release and flushes see a quiet machine.
        if meta.needs_drain && warp.inflight > 0 {
            return (Class::Skip, 0);
        }
    } else if !oc.can_accept(w) {
        return (Class::NoCollector, 0);
    }
    // Branch guards, like any source, must not be pending.
    if !I::BLOCKS_BEFORE_ADMISSION && il.blocks(w, warp, kernel) {
        return (Class::Scoreboard, il.stall_left(w));
    }
    (Class::Ready, 0)
}

/// Rows of the stall-expiry wheel: one more than the longest control-bit
/// stall count ([`bow_isa::ctrl::MAX_STALL`]).
const STALL_ROWS: u64 = 64;

/// The [`Class`] of every warp slot, kept current by the events that can
/// change one (module docs).
pub(super) struct ReadySet {
    class: Vec<Class>,
    /// The `Ready` slots.
    ready: Bits,
    /// Per scheduler: its slots in `Scoreboard` and in `NoCollector`.
    held: Vec<[u64; 2]>,
    /// Slots to re-classify before their scheduler's next scan.
    dirty: Bits,
    /// Row `t % STALL_ROWS`: slots a stall count held when classified,
    /// due for a re-check at cycle `t`. A row may name a slot an event has
    /// re-classified since; re-checking it again costs time, not exactness.
    expiring: BitRows,
    /// The slots of each scheduler (`w % nsched`) and of each collector
    /// partition (`w % nparts`).
    sched: Vec<Bits>,
    part: Vec<Bits>,
}

impl ReadySet {
    pub(super) fn new(max_warps: usize, nsched: usize, nparts: usize) -> ReadySet {
        let every = |n: usize| -> Vec<Bits> {
            (0..n)
                .map(|i| Bits::from_fn(max_warps, |w| w % n == i))
                .collect()
        };
        let mut set = ReadySet {
            class: vec![Class::Skip; max_warps],
            ready: Bits::new(max_warps),
            held: vec![[0; 2]; nsched],
            dirty: Bits::new(max_warps),
            expiring: BitRows::new(STALL_ROWS as usize, max_warps),
            sched: every(nsched),
            part: every(nparts),
        };
        set.reset();
        set
    }

    /// Forgets every class: each slot is re-classified at its next scan.
    pub(super) fn reset(&mut self) {
        self.class.fill(Class::Skip);
        self.ready.clear_all();
        self.held.fill([0; 2]);
        self.expiring.clear_all();
        for part in &self.part {
            self.dirty.union_with(part);
        }
    }

    /// Slot `w`'s class may have changed.
    pub(super) fn mark(&mut self, w: usize) {
        self.dirty.set(w);
    }

    /// Collector partition `p`'s shared pool filled or drained below full:
    /// every warp of it may have changed class.
    pub(super) fn mark_partition(&mut self, p: usize) {
        self.dirty.union_with(&self.part[p]);
    }

    /// Marks the slots whose stall count runs out at `cycle`. Called at
    /// every ticked SM-cycle; a skipped one has an empty row.
    fn expire(&mut self, cycle: u64) {
        let row = (cycle % STALL_ROWS) as usize;
        self.expiring.drain_row_into(row, &mut self.dirty);
    }

    /// Whether no slot is ready and none awaits re-classification: until
    /// a stall count runs out or an event marks a slot, every scan finds
    /// exactly what the last one did.
    pub(super) fn is_settled(&self) -> bool {
        self.ready.is_empty() && self.dirty.is_empty()
    }

    /// The first cycle after `cycle` at which a stall count runs out, if
    /// any slot waits on one.
    pub(super) fn next_expiry(&self, cycle: u64) -> Option<u64> {
        let from = cycle + 1;
        let ahead = self.expiring.next_nonempty((from % STALL_ROWS) as usize)?;
        Some(from + ahead as u64)
    }

    /// Re-classifies scheduler `s`'s dirty slots at `cycle`.
    fn refresh(&mut self, s: usize, cycle: u64, mut classify: impl FnMut(usize) -> (Class, u64)) {
        let (class, ready, held) = (&mut self.class, &mut self.ready, &mut self.held[s]);
        let expiring = &mut self.expiring;
        self.dirty.drain_in(&self.sched[s], |w| {
            let (new, retry_in) = classify(w);
            if retry_in > 0 {
                let due = cycle + retry_in.min(STALL_ROWS - 1);
                expiring.set((due % STALL_ROWS) as usize, w);
            }
            match std::mem::replace(&mut class[w], new) {
                Class::Skip => {}
                Class::Ready => ready.clear(w),
                Class::Scoreboard => held[0] -= 1,
                Class::NoCollector => held[1] -= 1,
            }
            match new {
                Class::Skip => {}
                Class::Ready => ready.set(w),
                Class::Scoreboard => held[0] += 1,
                Class::NoCollector => held[1] += 1,
            }
        });
    }

    /// The exactness net: a full classification of scheduler `s`'s slots
    /// must agree with the maintained classes, warp by warp and in the
    /// scan's stall counts.
    fn cross_check(&self, s: usize, classify: impl Fn(usize) -> (Class, u64)) {
        let mut held = [0; 2];
        for w in self.sched[s].iter() {
            let (full, _) = classify(w);
            debug_assert_eq!(self.class[w], full, "warp slot {w}");
            debug_assert_eq!(self.ready.get(w), full == Class::Ready, "warp slot {w}");
            match full {
                Class::Scoreboard => held[0] += 1,
                Class::NoCollector => held[1] += 1,
                Class::Skip | Class::Ready => {}
            }
        }
        debug_assert_eq!(self.held[s], held, "stall counts of scheduler {s}");
    }

    /// Scheduler `s`'s ready slots, ascending, into `out`.
    fn ready_into(&self, s: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.ready.iter_in(&self.sched[s]));
    }

    /// Charges `scans` scans of scheduler `s` that all found the same
    /// warps held: a `Stalls` event per stall kind that holds a warp,
    /// carrying the scheduler's count of such warps times `scans`.
    pub(super) fn charge_stalls<P: Probe>(
        &self,
        s: usize,
        scans: u64,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        let [scoreboard, no_collector] = self.held[s];
        for (kind, held) in [
            (StallKind::Scoreboard, scoreboard),
            (StallKind::NoCollector, no_collector),
        ] {
            if held > 0 {
                let count = held.saturating_mul(scans);
                emit(stats, probe, PipeEvent::Stalls { kind, count });
            }
        }
    }
}

impl Stages {
    pub(super) fn issue<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
    ) {
        il.advance(1);
        let cycle = ctx.cycle;
        self.ready.expire(cycle);
        let mut ready = std::mem::take(&mut self.ready_buf);
        for s in 0..self.schedulers.len() {
            for _ in 0..ctx.config.issue_per_scheduler {
                let (parts, il_ref, ctx_ref) = (&self.parts, &*il, &*ctx);
                let full = |w| classify(parts, il_ref, ctx_ref, w, kernel);
                self.ready.refresh(s, cycle, full);
                if cfg!(debug_assertions) {
                    self.ready.cross_check(s, full);
                }
                self.ready.charge_stalls(s, 1, &mut ctx.stats, probe);
                self.ready.ready_into(s, &mut ready);
                let age = &ctx.warp_age;
                let pick = self.schedulers[s].pick(&ready, |w| age[w]);
                let Some(w) = pick else { break };
                self.issue_one(il, ctx, w, kernel, probe);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }

    fn issue_one<I: Interlock, P: Probe>(
        &mut self,
        il: &mut I,
        ctx: &mut SmCtx,
        w: usize,
        kernel: &DecodedKernel<'_>,
        probe: &mut P,
    ) {
        self.ready.mark(w);
        let warp = ctx.warps[w].as_ref().expect("ready warp is live");
        let (pc, seq, cycle) = (warp.pc, warp.seq, ctx.cycle);
        let (inst, meta) = (&kernel.insts[pc], &kernel.meta[pc]);
        let uid = ctx.uid_of(warp);
        emit(
            &mut ctx.stats,
            probe,
            PipeEvent::Issued {
                uid,
                pc,
                active: warp.active.count_ones(),
                inst,
            },
        );
        let warp = ctx.warps[w].as_mut().expect("live");
        warp.seq += 1;
        let p = w % self.parts.len();
        let oc = &mut self.parts[p].oc;

        if meta.is_control {
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Control {
                    cycle,
                    sm: ctx.id,
                    warp: w,
                    pc,
                    seq,
                    inst,
                },
            );
            oc.note_control(w, seq, &mut ctx.rf, &mut ctx.stats, probe);
            il.on_issue(w, pc, kernel);
            let (arrive, live, sync_underflow) = if P::ACTIVE {
                (
                    warp.guard_mask(inst.guard),
                    warp.valid & !warp.exited,
                    exec::sync_underflows(warp, inst),
                )
            } else {
                (0, 0, false)
            };
            let outcome = exec::execute_control(warp, inst);
            if P::ACTIVE {
                let depth = (warp.stack.len() + warp.splits.len()) as u32;
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::CtrlTrace {
                        uid,
                        pc,
                        seq,
                        arrive,
                        live,
                        depth,
                        sync_underflow,
                        inst,
                    },
                );
            }
            match outcome {
                ControlOutcome::Exit => {
                    if warp.done {
                        emit(&mut ctx.stats, probe, PipeEvent::WarpExit { uid });
                        if warp.inflight == 0 {
                            debug_assert!(il.drained(w), "warp {w} retired holding a reservation");
                            ctx.finalize_warp(oc, w, probe);
                        }
                    }
                }
                ControlOutcome::Barrier => {
                    let ready = &mut self.ready;
                    ctx.maybe_release_barrier(w, |released| ready.mark(released));
                }
                ControlOutcome::Plain => {}
            }
        } else {
            let mask = warp.guard_mask(inst.guard);
            warp.pc += 1;
            warp.inflight += 1;
            let was_full = oc.pool_full();
            oc.insert_uniform(
                w,
                pc,
                meta,
                mask,
                seq,
                cycle,
                &mut ctx.rf,
                &mut ctx.stats,
                probe,
                |r| il.is_uniform(w, r),
            );
            if oc.pool_full() != was_full {
                self.ready.mark_partition(p);
            }
            il.on_issue(w, pc, kernel);
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Issue {
                    cycle,
                    sm: ctx.id,
                    warp: w,
                    pc,
                    seq,
                    inst,
                },
            );
        }
    }
}
