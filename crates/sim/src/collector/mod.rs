//! The operand-collection stage with its four interchangeable models:
//! baseline OCUs, BOW, BOW-WR and the RFC comparison baseline.
//!
//! The stage owns the in-flight instruction *slots* (issued, waiting for
//! operands) and — in the BOW modes — the per-warp *bypass windows* that
//! hold recently touched register values ([`window`]). The RFC mode owns a
//! per-warp register-file cache ([`rfc`]).
//!
//! Port modelling follows the paper:
//! * baseline/RFC OCUs are single-ported: one operand lands per OCU per
//!   cycle, whether it comes from a bank or the RFC;
//! * each BOC has a single port *from the register file* (one fetched
//!   operand per warp per cycle), but its forwarding logic can deliver any
//!   number of already-buffered operands instantly at insert.

pub mod rfc;
pub mod window;

use crate::bits::Bits;
use crate::decode::InstMeta;
use crate::probe::{emit, PipeEvent, Probe};
use crate::regfile::RegFile;
use crate::stats::{SimStats, WriteDest};
use bow_isa::{Reg, WritebackHint};
use bow_util::InlineVec;
use rfc::RfcCache;
use window::WarpWindow;

/// Which operand-collector organization to simulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectorKind {
    /// Conventional operand collector units (the paper's baseline GPU).
    Baseline,
    /// BOW: read bypassing with write-through write-back (§IV-A).
    Bow {
        /// Instruction-window size (IW).
        window: u32,
        /// Use the half-size shared-entry buffer of §IV-C.
        half_size: bool,
    },
    /// BOW-WR: read + write bypassing, write-back policy steered by
    /// compiler hints (§IV-B).
    BowWr {
        /// Instruction-window size (IW).
        window: u32,
        /// Use the half-size shared-entry buffer of §IV-C.
        half_size: bool,
    },
    /// Register-file cache in front of the RF (the related-work comparison
    /// of §V-A, after Gebhart et al.).
    Rfc {
        /// Cache entries per warp.
        entries: u32,
    },
    /// The paper's stated future work (§IV-C): bypassing bounded only by
    /// the buffer capacity, not a nominal instruction window. Write-back
    /// without compiler hints (the compiler cannot bound reuse distances
    /// without a fixed window), FIFO eviction when the buffer fills.
    BowFlex {
        /// Value-buffer entries per BOC.
        capacity: u32,
    },
}

impl CollectorKind {
    /// Full-size BOW with the given window.
    pub fn bow(window: u32) -> CollectorKind {
        CollectorKind::Bow {
            window,
            half_size: false,
        }
    }

    /// Full-size BOW-WR with the given window.
    pub fn bow_wr(window: u32) -> CollectorKind {
        CollectorKind::BowWr {
            window,
            half_size: false,
        }
    }

    /// The RFC configuration the paper compares against (6 entries/warp).
    pub fn rfc6() -> CollectorKind {
        CollectorKind::Rfc { entries: 6 }
    }

    /// Buffer-bounded bypassing (the paper's future-work design).
    pub fn bow_flex(capacity: u32) -> CollectorKind {
        CollectorKind::BowFlex { capacity }
    }

    /// The instruction-window size, if this is a BOW mode.
    pub fn window(&self) -> Option<u32> {
        match self {
            CollectorKind::Bow { window, .. } | CollectorKind::BowWr { window, .. } => {
                Some(*window)
            }
            _ => None,
        }
    }

    /// Whether this mode buffers values for bypassing (any BOW variant).
    pub fn is_bow(&self) -> bool {
        matches!(
            self,
            CollectorKind::Bow { .. } | CollectorKind::BowWr { .. } | CollectorKind::BowFlex { .. }
        )
    }

    /// Value-buffer capacity per BOC: `4 × IW` entries full-size
    /// (3 sources + 1 destination per windowed instruction), halved in the
    /// shared-entry configuration.
    pub fn boc_capacity(&self) -> usize {
        match *self {
            CollectorKind::Bow { window, half_size }
            | CollectorKind::BowWr { window, half_size } => {
                let full = 4 * window as usize;
                if half_size {
                    full / 2
                } else {
                    full
                }
            }
            CollectorKind::BowFlex { capacity } => capacity as usize,
            _ => 0,
        }
    }
}

/// State of one source-operand fetch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum OpState {
    /// Must claim a register-bank port.
    #[default]
    NeedRf,
    /// Shares an in-flight fetch issued by an earlier instruction (BOW).
    WaitShared,
    /// Hit in the register-file cache; needs only the OCU port (RFC).
    RfcHit,
    /// Value lands in the collector at the given cycle (bank grant +
    /// crossbar transfer, or immediately for forwarded operands).
    ReadyAt(u64),
}

#[derive(Clone, Copy, Debug, Default)]
struct OperandReq {
    reg: Reg,
    state: OpState,
}

/// One issued instruction waiting in the collection stage. The
/// instruction itself stays in the kernel: the slot names it by `pc`.
#[derive(Clone, Debug)]
pub struct Slot {
    /// Warp slot index.
    pub warp: usize,
    /// Program counter of the instruction within its kernel.
    pub pc: usize,
    /// Execution mask captured at issue.
    pub mask: u32,
    /// Per-warp dynamic sequence number.
    pub seq: u64,
    /// Cycle the instruction entered the stage.
    pub insert_cycle: u64,
    /// One fetch per unique register source.
    operands: InlineVec<OperandReq, { bow_isa::MAX_SRC_OPERANDS + 1 }>,
    /// Operands not yet `ReadyAt`: collection has nothing left to do for
    /// the slot once this is zero.
    waiting: u8,
    /// The latest arrival among the `ReadyAt` operands: with `waiting`
    /// zero, the slot may dispatch from this cycle on.
    ready_at: u64,
}

impl Slot {
    /// Operand `k`'s value lands at cycle `at`. Returns whether that was
    /// the last operand the slot waited for.
    fn land(&mut self, k: usize, at: u64) -> bool {
        self.operands[k].state = OpState::ReadyAt(at);
        self.waiting -= 1;
        self.ready_at = self.ready_at.max(at);
        self.waiting == 0
    }
}

/// The operand-collection stage of one SM.
#[derive(Clone, Debug)]
pub struct OperandStage {
    kind: CollectorKind,
    /// Issued, not-yet-dispatched instructions, oldest first: the order
    /// bank ports are arbitrated in and slots dispatch in.
    slots: Vec<Slot>,
    /// Per warp slot: how many of `slots` are its own, and the oldest
    /// `seq` among them (meaningful while the count is non-zero). Kept at
    /// insert/remove so the issue scan never walks `slots`.
    resident: Vec<u32>,
    oldest_seq: Vec<u64>,
    /// The warps whose `resident` count is non-zero.
    busy_warps: Bits,
    /// Slots with an operand not yet `ReadyAt`: `collect` has work only
    /// while this is non-zero.
    waiting_slots: usize,
    /// BOW modes: `WaitShared` operands over all slots (the waiter-wake
    /// walks of `collect` run only while some wait).
    shared_waiters: usize,
    /// BOW modes, scratch of `collect`: warps granted their BOC's one
    /// register-file port this cycle.
    warp_granted: Bits,
    /// Baseline/RFC: number of OCUs in the shared pool.
    num_ocus: usize,
    /// BOW modes: per-warp bypass windows.
    windows: Vec<WarpWindow>,
    /// RFC mode: per-warp caches.
    rfcs: Vec<RfcCache>,
    /// Cycles from bank grant to operand arrival in the collector.
    rf_read_latency: u64,
    /// Operands the bank→collector crossbar delivers per cycle.
    xbar_width: u32,
}

impl OperandStage {
    /// Creates the stage for `max_warps` resident warps with a
    /// grant-to-arrival read latency of `rf_read_latency` cycles.
    pub fn new(
        kind: CollectorKind,
        max_warps: usize,
        num_ocus: usize,
        rf_read_latency: u64,
        xbar_width: u32,
    ) -> OperandStage {
        let windows = if kind.is_bow() {
            // Flex mode has no nominal window: presence is bounded only by
            // the buffer, so sliding never evicts.
            let w = kind.window().map_or(u64::MAX, u64::from);
            (0..max_warps)
                .map(|_| WarpWindow::new(w, kind.boc_capacity()))
                .collect()
        } else {
            Vec::new()
        };
        let rfcs = if let CollectorKind::Rfc { entries } = kind {
            (0..max_warps)
                .map(|_| RfcCache::new(entries as usize))
                .collect()
        } else {
            Vec::new()
        };
        OperandStage {
            kind,
            slots: Vec::new(),
            resident: vec![0; max_warps],
            oldest_seq: vec![0; max_warps],
            busy_warps: Bits::new(max_warps),
            waiting_slots: 0,
            shared_waiters: 0,
            warp_granted: Bits::new(max_warps),
            num_ocus,
            windows,
            rfcs,
            rf_read_latency,
            xbar_width,
        }
    }

    /// Empties the stage in place between launches: the state
    /// [`new`](Self::new) builds, keeping every buffer's capacity.
    pub(crate) fn reset(&mut self) {
        self.slots.clear();
        self.resident.fill(0);
        self.oldest_seq.fill(0);
        self.busy_warps.clear_all();
        self.waiting_slots = 0;
        self.shared_waiters = 0;
        self.warp_granted.clear_all();
        self.windows.iter_mut().for_each(WarpWindow::clear);
        self.rfcs.iter_mut().for_each(RfcCache::clear);
    }

    /// The collector model being simulated.
    pub fn kind(&self) -> CollectorKind {
        self.kind
    }

    /// Whether the shared OCU pool (baseline, RFC) is full, so that no
    /// warp can enter. The per-warp BOCs of the BOW modes never are.
    pub fn pool_full(&self) -> bool {
        matches!(
            self.kind,
            CollectorKind::Baseline | CollectorKind::Rfc { .. }
        ) && self.slots.len() >= self.num_ocus
    }

    /// Whether a new instruction of `warp` can enter the stage.
    pub fn can_accept(&self, warp: usize) -> bool {
        match self.kind {
            CollectorKind::Baseline | CollectorKind::Rfc { .. } => !self.pool_full(),
            CollectorKind::Bow { window, .. } | CollectorKind::BowWr { window, .. } => {
                self.resident[warp] < window
            }
            CollectorKind::BowFlex { capacity } => self.resident[warp] < (capacity / 3).max(2),
        }
    }

    /// Inserts an issued instruction, performing the forwarding check
    /// (BOW) or RFC lookup. Control instructions never come here.
    #[allow(clippy::too_many_arguments)]
    pub fn insert<P: Probe>(
        &mut self,
        warp: usize,
        pc: usize,
        inst: &InstMeta,
        mask: u32,
        seq: u64,
        cycle: u64,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        self.insert_uniform(warp, pc, inst, mask, seq, cycle, rf, stats, probe, |_| {
            false
        })
    }

    /// [`insert`](Self::insert) with a uniform-register filter: sources for
    /// which `uniform` returns true are served by the uniform register
    /// file at issue — they arrive immediately and touch neither the banks
    /// nor the warp's bypass window. The issue stage passes its
    /// interlock's filter; the scoreboard's is constant-false, which
    /// compiles down to plain `insert`.
    #[allow(clippy::too_many_arguments)]
    pub fn insert_uniform<P: Probe>(
        &mut self,
        warp: usize,
        pc: usize,
        inst: &InstMeta,
        mask: u32,
        seq: u64,
        cycle: u64,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
        uniform: impl Fn(Reg) -> bool,
    ) {
        let unique = inst.unique_src_regs;
        emit(stats, probe, PipeEvent::SrcRegs(unique.len()));

        let mut operands = InlineVec::new();
        match self.kind {
            CollectorKind::Baseline => {
                for reg in unique {
                    if uniform(reg) {
                        operands.push(OperandReq {
                            reg,
                            state: OpState::ReadyAt(cycle),
                        });
                        continue;
                    }
                    operands.push(OperandReq {
                        reg,
                        state: OpState::NeedRf,
                    });
                }
            }
            CollectorKind::Rfc { .. } => {
                for reg in unique {
                    if uniform(reg) {
                        operands.push(OperandReq {
                            reg,
                            state: OpState::ReadyAt(cycle),
                        });
                        continue;
                    }
                    let state = if self.rfcs[warp].lookup(reg) {
                        emit(stats, probe, PipeEvent::RfcRead);
                        OpState::RfcHit
                    } else {
                        OpState::NeedRf
                    };
                    operands.push(OperandReq { reg, state });
                }
            }
            CollectorKind::Bow { .. }
            | CollectorKind::BowWr { .. }
            | CollectorKind::BowFlex { .. } => {
                let win = &mut self.windows[warp];
                win.slide(seq, warp, rf, stats, probe);
                for reg in unique {
                    if uniform(reg) {
                        operands.push(OperandReq {
                            reg,
                            state: OpState::ReadyAt(cycle),
                        });
                        continue;
                    }
                    let state = match win.touch_read(reg, seq) {
                        window::ReadHit::Arrived(at) => {
                            emit(stats, probe, PipeEvent::BypassedRead);
                            OpState::ReadyAt(at.max(cycle))
                        }
                        window::ReadHit::InFlight => {
                            emit(stats, probe, PipeEvent::BypassedRead);
                            OpState::WaitShared
                        }
                        window::ReadHit::Miss => {
                            win.add_fetch(reg, seq, warp, rf, stats, probe);
                            OpState::NeedRf
                        }
                    };
                    operands.push(OperandReq { reg, state });
                }
            }
        }
        self.oldest_seq[warp] = if self.resident[warp] == 0 {
            seq
        } else {
            self.oldest_seq[warp].min(seq)
        };
        self.resident[warp] += 1;
        self.busy_warps.set(warp);
        let mut slot = Slot {
            warp,
            pc,
            mask,
            seq,
            insert_cycle: cycle,
            operands,
            waiting: 0,
            ready_at: 0,
        };
        for op in slot.operands.iter() {
            match op.state {
                OpState::ReadyAt(at) => slot.ready_at = slot.ready_at.max(at),
                OpState::WaitShared => {
                    slot.waiting += 1;
                    self.shared_waiters += 1;
                }
                OpState::NeedRf | OpState::RfcHit => slot.waiting += 1,
            }
        }
        self.waiting_slots += usize::from(slot.waiting > 0);
        self.slots.push(slot);
    }

    /// Advances a warp's window past a control instruction (control ops
    /// occupy a window position but carry no operands).
    pub fn note_control<P: Probe>(
        &mut self,
        warp: usize,
        seq: u64,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        if self.kind.is_bow() {
            self.windows[warp].slide(seq, warp, rf, stats, probe);
        }
    }

    /// One cycle of operand gathering: claims bank ports for pending
    /// fetches, honours OCU/BOC port limits and wakes shared waiters.
    /// Call after [`RegFile::begin_cycle`].
    pub fn collect(&mut self, cycle: u64, rf: &mut RegFile) {
        if self.waiting_slots == 0 {
            return;
        }
        let arrival = cycle + self.rf_read_latency;
        let mut xbar_budget = self.xbar_width;
        match self.kind {
            CollectorKind::Baseline | CollectorKind::Rfc { .. } => {
                // One operand per OCU (slot) per cycle, bounded by the
                // crossbar's total delivery bandwidth.
                for slot in &mut self.slots {
                    if xbar_budget == 0 {
                        break;
                    }
                    if slot.waiting == 0 {
                        continue;
                    }
                    let Some(k) = slot
                        .operands
                        .iter()
                        .position(|o| matches!(o.state, OpState::NeedRf | OpState::RfcHit))
                    else {
                        continue;
                    };
                    let op = slot.operands[k];
                    match op.state {
                        // RFC hits skip the banks (no conflicts, little
                        // energy) but the cache sits behind the same OCU
                        // port and crossbar, so they pay the same
                        // grant-to-arrival latency — §V-A's reason the RFC
                        // barely improves IPC.
                        OpState::RfcHit => {
                            self.waiting_slots -= usize::from(slot.land(k, arrival.max(cycle + 1)));
                            xbar_budget -= 1;
                        }
                        OpState::NeedRf => {
                            if rf.try_read(slot.warp, op.reg) {
                                self.waiting_slots -= usize::from(slot.land(k, arrival));
                                xbar_budget -= 1;
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
            CollectorKind::Bow { .. }
            | CollectorKind::BowWr { .. }
            | CollectorKind::BowFlex { .. } => {
                // Wake shared waiters whose fetch has arrived (forwarding
                // logic: any number per cycle).
                if self.shared_waiters > 0 {
                    for slot in &mut self.slots {
                        if slot.waiting == 0 {
                            continue;
                        }
                        let window = &self.windows[slot.warp];
                        for k in 0..slot.operands.len() {
                            let op = slot.operands[k];
                            if op.state == OpState::WaitShared {
                                if let Some(at) = window.arrival_of(op.reg) {
                                    self.waiting_slots -= usize::from(slot.land(k, at));
                                    self.shared_waiters -= 1;
                                }
                            }
                        }
                    }
                }
                // One RF-fetched operand per warp (BOC port) per cycle,
                // bounded by the crossbar's total delivery bandwidth.
                self.warp_granted.clear_all();
                for i in 0..self.slots.len() {
                    if xbar_budget == 0 {
                        break;
                    }
                    let slot = &mut self.slots[i];
                    let warp = slot.warp;
                    if slot.waiting == 0 || self.warp_granted.get(warp) {
                        continue;
                    }
                    let Some(k) = slot
                        .operands
                        .iter()
                        .position(|o| o.state == OpState::NeedRf)
                    else {
                        continue;
                    };
                    let reg = slot.operands[k].reg;
                    if rf.try_read(warp, reg) {
                        self.waiting_slots -= usize::from(slot.land(k, arrival));
                        self.warp_granted.set(warp);
                        xbar_budget -= 1;
                        self.windows[warp].mark_arrived(reg, arrival);
                        if self.shared_waiters == 0 {
                            continue;
                        }
                        // Wake this warp's sharers of the same register.
                        for s in self.slots.iter_mut().filter(|s| s.warp == warp) {
                            for k in 0..s.operands.len() {
                                let o = s.operands[k];
                                if o.reg == reg && o.state == OpState::WaitShared {
                                    self.waiting_slots -= usize::from(s.land(k, arrival));
                                    self.shared_waiters -= 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Appends the indices of slots whose operands are all ready at
    /// `cycle` to `out`, oldest first, reusing its capacity.
    pub fn ready_slots_into(&self, cycle: u64, out: &mut Vec<usize>) {
        let ready = |s: &Slot| s.waiting == 0 && s.ready_at <= cycle;
        out.extend((0..self.slots.len()).filter(|&i| ready(&self.slots[i])));
    }

    /// Removes and returns a dispatched slot.
    pub fn remove(&mut self, index: usize) -> Slot {
        let slot = self.slots.remove(index);
        debug_assert_eq!(slot.waiting, 0, "dispatched with operands missing");
        let w = slot.warp;
        self.resident[w] -= 1;
        if self.resident[w] == 0 {
            self.busy_warps.clear(w);
        } else if slot.seq == self.oldest_seq[w] {
            let rest = self.slots.iter().filter(|s| s.warp == w);
            self.oldest_seq[w] = rest.map(|s| s.seq).min().expect("resident slots");
        }
        slot
    }

    /// Read-only access to a slot.
    pub fn slot(&self, index: usize) -> &Slot {
        &self.slots[index]
    }

    /// Number of occupied slots.
    pub fn occupied(&self) -> usize {
        self.slots.len()
    }

    /// The smallest (oldest) sequence number among `warp`'s occupied
    /// slots, if any. The modern core's dispatch gate uses this to keep
    /// each warp's dispatches in strict program order — the property that
    /// makes functional execution at dispatch correct independently of
    /// the compiler's control bits.
    pub fn min_seq_of(&self, warp: usize) -> Option<u64> {
        (self.resident[warp] > 0).then(|| self.oldest_seq[warp])
    }

    /// Routes a completed instruction's register result according to the
    /// collector model (§IV-A/§IV-B write policies).
    #[allow(clippy::too_many_arguments)]
    pub fn writeback<P: Probe>(
        &mut self,
        warp: usize,
        reg: Reg,
        seq: u64,
        hint: WritebackHint,
        current_seq: u64,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        emit(stats, probe, PipeEvent::WriteProduced);
        match self.kind {
            CollectorKind::Baseline => {
                rf.enqueue_write(warp, reg);
                emit(stats, probe, PipeEvent::RfWriteRouted);
            }
            CollectorKind::Rfc { .. } => {
                emit(stats, probe, PipeEvent::RfcWrite);
                match self.rfcs[warp].insert_write(reg) {
                    rfc::WriteOutcome::Overwrote => emit(stats, probe, PipeEvent::BypassedWrite),
                    rfc::WriteOutcome::EvictedDirty(_victim) => {
                        rf.enqueue_write(warp, reg); // victim value leaves the cache
                        emit(stats, probe, PipeEvent::RfWriteRouted);
                    }
                    rfc::WriteOutcome::Inserted => {}
                }
            }
            CollectorKind::Bow { .. } => {
                // Write-through: BOC copy for forwarding + RF write always.
                emit(stats, probe, PipeEvent::BocWrite);
                self.windows[warp].upsert_clean(reg, seq, warp, rf, stats, probe);
                rf.enqueue_write(warp, reg);
                emit(stats, probe, PipeEvent::RfWriteRouted);
            }
            CollectorKind::BowFlex { .. } => {
                // Write-back without hints: every value lands dirty in the
                // buffer; capacity eviction routes it to the RF.
                emit(
                    stats,
                    probe,
                    PipeEvent::WriteDestClass(WriteDest::BocThenRf),
                );
                emit(stats, probe, PipeEvent::BocWrite);
                self.windows[warp].upsert_dirty(
                    reg,
                    seq,
                    WritebackHint::Both,
                    warp,
                    rf,
                    stats,
                    probe,
                );
                let _ = current_seq;
            }
            CollectorKind::BowWr { window, .. } => match hint {
                WritebackHint::RfOnly => {
                    emit(stats, probe, PipeEvent::WriteDestClass(WriteDest::RfOnly));
                    // The write-back port CAM-matches the window: a buffered
                    // copy of this register is superseded and must neither
                    // forward to a later read nor write back over the value
                    // routed here (the WAW eviction regression).
                    self.windows[warp].invalidate(reg, stats, probe);
                    rf.enqueue_write(warp, reg);
                    emit(stats, probe, PipeEvent::RfWriteRouted);
                }
                WritebackHint::Both | WritebackHint::BocOnly => {
                    let dest = if hint == WritebackHint::Both {
                        WriteDest::BocThenRf
                    } else {
                        WriteDest::BocOnly
                    };
                    emit(stats, probe, PipeEvent::WriteDestClass(dest));
                    if current_seq.saturating_sub(seq) >= u64::from(window) {
                        // The window slid past before the value arrived (no
                        // pending in-window consumer, or a conservative
                        // hint): route straight to the RF.
                        rf.enqueue_write(warp, reg);
                        emit(stats, probe, PipeEvent::RfWriteRouted);
                    } else {
                        emit(stats, probe, PipeEvent::BocWrite);
                        self.windows[warp].upsert_dirty(reg, seq, hint, warp, rf, stats, probe);
                    }
                }
            },
        }
    }

    /// Flushes a finished warp's buffered state (dirty window/RFC entries
    /// go to the register file per their policy).
    pub fn flush_warp<P: Probe>(
        &mut self,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        if self.kind.is_bow() {
            self.windows[warp].flush(warp, rf, stats, probe);
        }
        if let CollectorKind::Rfc { .. } = self.kind {
            for victim in self.rfcs[warp].flush_dirty() {
                rf.enqueue_write(warp, victim);
                emit(stats, probe, PipeEvent::RfWriteRouted);
            }
        }
    }

    /// Samples BOC occupancy for Fig. 9: one sample per warp that currently
    /// has work in the stage.
    pub fn sample_occupancy<P: Probe>(&self, stats: &mut SimStats, probe: &mut P) {
        if !self.kind.is_bow() {
            return;
        }
        let cap = self.kind.boc_capacity();
        for w in self.busy_warps.iter() {
            emit(
                stats,
                probe,
                PipeEvent::OccupancySample {
                    live: self.windows[w].live_entries(),
                    cap: cap.max(12),
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NullProbe;
    use bow_isa::KernelBuilder;

    fn iadd(d: u8, a: u8, b: u8) -> InstMeta {
        let k = KernelBuilder::new("t")
            .iadd(Reg::r(d), Reg::r(a).into(), Reg::r(b).into())
            .exit()
            .build()
            .unwrap();
        InstMeta::of(&k.insts[0])
    }

    fn mov_imm(d: u8) -> InstMeta {
        let k = KernelBuilder::new("t")
            .mov_imm(Reg::r(d), 1)
            .exit()
            .build()
            .unwrap();
        InstMeta::of(&k.insts[0])
    }

    impl OperandStage {
        fn ready_slots(&self, cycle: u64) -> Vec<usize> {
            let mut out = Vec::new();
            self.ready_slots_into(cycle, &mut out);
            out
        }
    }

    #[test]
    fn baseline_fetches_every_operand_from_rf() {
        let mut stage = OperandStage::new(CollectorKind::Baseline, 32, 4, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        let i = iadd(2, 0, 1);
        stage.insert(0, 0, &i, u32::MAX, 0, 0, &mut rf, &mut st, &mut NullProbe);
        assert!(stage.ready_slots(9).is_empty());
        rf.begin_cycle();
        stage.collect(9, &mut rf); // first operand
        assert!(stage.ready_slots(9).is_empty(), "single-ported OCU");
        rf.begin_cycle();
        stage.collect(9, &mut rf); // second operand
        assert_eq!(stage.ready_slots(9), vec![0]);
        assert_eq!(rf.stats().reads, 2);
        assert_eq!(st.bypassed_reads, 0);
    }

    #[test]
    fn baseline_capacity_limits_acceptance() {
        let mut stage = OperandStage::new(CollectorKind::Baseline, 32, 2, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.insert(
            0,
            0,
            &iadd(2, 0, 1),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.insert(
            1,
            0,
            &iadd(2, 0, 1),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert!(!stage.can_accept(2), "pool exhausted");
    }

    #[test]
    fn bow_bypasses_second_read_of_same_register() {
        let mut stage = OperandStage::new(CollectorKind::bow(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        // Instruction 1 reads r0, r1; instruction 2 reads r1, r3.
        stage.insert(
            0,
            0,
            &iadd(2, 0, 1),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        rf.begin_cycle();
        stage.collect(9, &mut rf);
        rf.begin_cycle();
        stage.collect(9, &mut rf);
        assert_eq!(rf.stats().reads, 2);
        stage.insert(
            0,
            0,
            &iadd(4, 1, 3),
            u32::MAX,
            1,
            2,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.bypassed_reads, 1, "r1 forwarded from the window");
        rf.begin_cycle();
        stage.collect(9, &mut rf); // fetch r3 only
        assert_eq!(rf.stats().reads, 3);
        assert_eq!(stage.ready_slots(9).len(), 2);
    }

    #[test]
    fn bow_shares_inflight_fetch() {
        let mut stage = OperandStage::new(CollectorKind::bow(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.insert(
            0,
            0,
            &iadd(2, 0, 1),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        // Before any collect cycle, a second instruction also wants r0.
        stage.insert(
            0,
            0,
            &iadd(3, 0, 0),
            u32::MAX,
            1,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.bypassed_reads, 1, "r0 fetch shared while in flight");
        rf.begin_cycle();
        stage.collect(9, &mut rf); // grants r0 (one per warp/cycle)
        rf.begin_cycle();
        stage.collect(9, &mut rf); // grants r1
        assert_eq!(rf.stats().reads, 2);
        assert_eq!(
            stage.ready_slots(9).len(),
            2,
            "sharer woke up with the fetch"
        );
    }

    #[test]
    fn bow_wr_consolidates_overwrites_and_discards_transients() {
        let mut stage = OperandStage::new(CollectorKind::bow_wr(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        // Two writes to r2 one instruction apart: the first is bypassed.
        stage.writeback(
            0,
            Reg::r(2),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.writeback(
            0,
            Reg::r(2),
            1,
            WritebackHint::Both,
            1,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.bypassed_writes, 1);
        assert_eq!(st.rf_writes_routed, 0, "write-back defers the RF write");
        // Window slides far: the surviving dirty value goes to the RF.
        stage.note_control(0, 10, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.rf_writes_routed, 1);
        // A transient (BocOnly) value never reaches the RF.
        stage.writeback(
            0,
            Reg::r(5),
            10,
            WritebackHint::BocOnly,
            10,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.note_control(0, 20, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.rf_writes_routed, 1);
        assert_eq!(st.bypassed_writes, 2);
        assert_eq!(st.write_dest, [0, 2, 1]);
    }

    #[test]
    fn bow_wr_rf_only_hint_skips_the_boc() {
        let mut stage = OperandStage::new(CollectorKind::bow_wr(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.writeback(
            0,
            Reg::r(1),
            0,
            WritebackHint::RfOnly,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.boc_writes, 0);
        assert_eq!(st.rf_writes_routed, 1);
        assert_eq!(st.write_dest, [1, 0, 0]);
    }

    #[test]
    fn bow_write_through_always_writes_rf() {
        let mut stage = OperandStage::new(CollectorKind::bow(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.writeback(
            0,
            Reg::r(1),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.writeback(
            0,
            Reg::r(1),
            1,
            WritebackHint::Both,
            1,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.rf_writes_routed, 2, "write-through never consolidates");
        assert_eq!(st.bypassed_writes, 0);
        assert_eq!(st.boc_writes, 2);
    }

    #[test]
    fn bow_window_limits_per_warp_slots() {
        let mut stage = OperandStage::new(CollectorKind::bow(2), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.insert(
            0,
            0,
            &mov_imm(0),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.insert(
            0,
            0,
            &mov_imm(1),
            u32::MAX,
            1,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert!(!stage.can_accept(0), "window-size instructions in flight");
        assert!(stage.can_accept(1), "other warps unaffected");
    }

    #[test]
    fn rfc_hits_avoid_banks_but_use_the_port() {
        let mut stage = OperandStage::new(CollectorKind::rfc6(), 32, 8, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        // Fill the cache via a writeback of r1.
        stage.writeback(
            0,
            Reg::r(1),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.insert(
            0,
            0,
            &iadd(2, 1, 1),
            u32::MAX,
            1,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.rfc_reads, 1);
        rf.begin_cycle();
        stage.collect(9, &mut rf);
        // RFC hits cross the OCU port: ready one cycle after collection.
        assert!(stage.ready_slots(9).is_empty());
        assert_eq!(
            stage.ready_slots(9 + 2),
            vec![0],
            "rfc hit pays read latency"
        );
        assert_eq!(rf.stats().reads, 0, "hit never touched a bank");
    }

    #[test]
    fn flush_writes_back_dirty_state() {
        let mut stage = OperandStage::new(CollectorKind::bow_wr(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.writeback(
            0,
            Reg::r(1),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.flush_warp(0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.rf_writes_routed, 1);
    }

    #[test]
    fn bow_flex_bypasses_without_a_window_bound() {
        let mut stage = OperandStage::new(CollectorKind::bow_flex(8), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        // Produce r1, then read it 20 "instructions" later: a windowed BOW
        // would have evicted it, flex keeps it while capacity lasts.
        stage.writeback(
            0,
            Reg::r(1),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.note_control(0, 20, &mut rf, &mut st, &mut NullProbe);
        stage.insert(
            0,
            0,
            &iadd(2, 1, 1),
            u32::MAX,
            21,
            21,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.bypassed_reads, 1, "no sliding eviction in flex mode");
        assert_eq!(st.rf_writes_routed, 0, "value still buffered");
    }

    #[test]
    fn bow_flex_capacity_eviction_writes_back() {
        let mut stage = OperandStage::new(CollectorKind::bow_flex(2), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        for (i, r) in [1u8, 2, 3].iter().enumerate() {
            stage.writeback(
                0,
                Reg::r(*r),
                i as u64,
                WritebackHint::Both,
                i as u64,
                &mut rf,
                &mut st,
                &mut NullProbe,
            );
            stage.note_control(0, i as u64 + 1, &mut rf, &mut st, &mut NullProbe);
        }
        assert_eq!(st.rf_writes_routed, 1, "oldest value spilled at capacity");
        assert_eq!(st.forced_evictions, 1);
    }

    #[test]
    fn occupancy_sampling_counts_busy_bocs_only() {
        let mut stage = OperandStage::new(CollectorKind::bow(3), 32, 32, 0, 32);
        let mut rf = RegFile::new(32);
        let mut st = SimStats::default();
        stage.sample_occupancy(&mut st, &mut NullProbe);
        assert_eq!(st.occupancy_samples, 0);
        stage.insert(
            0,
            0,
            &iadd(2, 0, 1),
            u32::MAX,
            0,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        stage.sample_occupancy(&mut st, &mut NullProbe);
        assert_eq!(st.occupancy_samples, 1);
    }
}
