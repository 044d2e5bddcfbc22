//! The per-warp bypass window of a Bypassing Operand Collector (BOC).
//!
//! A window entry is one buffered warp-register value tagged with the
//! sequence number of the last instruction that touched it. An entry is
//! *present* (forwardable) for `window` instructions after its last touch —
//! the paper's sliding *Extended Instruction Window* — and is evicted when
//! the window slides past it. In BOW-WR, a dirty evicted entry is written
//! back to the register file unless its compiler hint says the value is
//! transient.
//!
//! Write-routing outcomes leave through the probe bus
//! ([`PipeEvent::BypassedWrite`], [`PipeEvent::RfWriteRouted`],
//! [`PipeEvent::ForcedEviction`]).

use crate::probe::{emit, PipeEvent, Probe};
use crate::regfile::RegFile;
use crate::stats::SimStats;
use bow_isa::{Reg, WritebackHint};

/// Result of the forwarding-logic lookup for a source operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadHit {
    /// Value buffered and available (or arriving at the carried cycle):
    /// bypass immediately.
    Arrived(u64),
    /// An earlier instruction's fetch for this register is still in flight:
    /// share it instead of issuing another RF read.
    InFlight,
    /// Not in the window: a register-file read is required.
    Miss,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    reg: Reg,
    /// Sequence number of the last touching instruction (drives sliding).
    last_touch: u64,
    /// The buffered value is newer than the RF copy.
    dirty: bool,
    /// Cycle the value is physically present from (`None` while a fetch is
    /// still in flight).
    ready_at: Option<u64>,
    /// Compiler write-back hint attached to the dirty value.
    hint: WritebackHint,
}

/// One warp's bypass window.
#[derive(Clone, Debug)]
pub struct WarpWindow {
    window: u64,
    capacity: usize,
    entries: Vec<Entry>,
}

impl WarpWindow {
    /// Creates an empty window of `window` instructions with room for
    /// `capacity` buffered values.
    pub fn new(window: u64, capacity: usize) -> WarpWindow {
        WarpWindow {
            window,
            capacity,
            entries: Vec::new(),
        }
    }

    /// Drops every buffered value: the window [`new`](Self::new) builds.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of buffered values (the Fig. 9 occupancy metric).
    pub fn live_entries(&self) -> usize {
        self.entries.len()
    }

    fn find(&self, reg: Reg) -> Option<usize> {
        self.entries.iter().position(|e| e.reg == reg)
    }

    /// The cycle `reg`'s value arrives, if its fetch has been granted (or
    /// it was produced by a writeback).
    pub fn arrival_of(&self, reg: Reg) -> Option<u64> {
        self.find(reg).and_then(|i| self.entries[i].ready_at)
    }

    /// Marks `reg`'s fetch as granted, arriving at cycle `at`.
    pub fn mark_arrived(&mut self, reg: Reg, at: u64) {
        if let Some(i) = self.find(reg) {
            self.entries[i].ready_at = Some(at);
        }
    }

    /// Forwarding-logic lookup for a source read by the instruction at
    /// `seq`; touching extends the entry's presence.
    pub fn touch_read(&mut self, reg: Reg, seq: u64) -> ReadHit {
        match self.find(reg) {
            Some(i) => {
                let e = &mut self.entries[i];
                e.last_touch = e.last_touch.max(seq);
                match e.ready_at {
                    Some(at) => ReadHit::Arrived(at),
                    None => ReadHit::InFlight,
                }
            }
            None => ReadHit::Miss,
        }
    }

    /// Drops the buffered value for `reg` without a write-back: the caller
    /// has just routed a newer architectural value for the same register
    /// straight to the RF (an `RfOnly` write-back), superseding the
    /// buffered copy — the write-back port CAM-matches the window like any
    /// real result buffer, so the stale copy can neither be forwarded to a
    /// later read nor written back over the newer value. A dropped dirty
    /// value counts as a bypassed write (it was consolidated away). An
    /// in-flight fetch entry is left alone: an *older* instruction's
    /// collector slot still waits on its grant, and that read predates the
    /// superseding write.
    pub fn invalidate<P: Probe>(&mut self, reg: Reg, stats: &mut SimStats, probe: &mut P) {
        if let Some(i) = self.find(reg) {
            if self.entries[i].ready_at.is_some() {
                let e = self.entries.remove(i);
                if e.dirty {
                    emit(stats, probe, PipeEvent::BypassedWrite);
                }
            }
        }
    }

    /// Registers an in-flight fetch for `reg` (a window miss being read
    /// from the RF into the BOC).
    pub fn add_fetch<P: Probe>(
        &mut self,
        reg: Reg,
        seq: u64,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        debug_assert!(self.find(reg).is_none(), "add_fetch on present entry");
        self.make_room(warp, rf, stats, probe);
        self.entries.push(Entry {
            reg,
            last_touch: seq,
            dirty: false,
            ready_at: None,
            hint: WritebackHint::Both,
        });
    }

    /// Buffers a clean computed value (BOW write-through: the RF is written
    /// separately, so eviction never writes back).
    pub fn upsert_clean<P: Probe>(
        &mut self,
        reg: Reg,
        seq: u64,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        match self.find(reg) {
            Some(i) => {
                let e = &mut self.entries[i];
                e.last_touch = e.last_touch.max(seq);
                e.dirty = false;
                e.ready_at = Some(0);
            }
            None => {
                self.make_room(warp, rf, stats, probe);
                self.entries.push(Entry {
                    reg,
                    last_touch: seq,
                    dirty: false,
                    ready_at: Some(0),
                    hint: WritebackHint::Both,
                });
            }
        }
    }

    /// Buffers a dirty computed value (BOW-WR write-back). Overwriting an
    /// existing dirty value consolidates it: that earlier write is bypassed.
    /// A new entry evicts the oldest arrived value first if the buffer is
    /// full (the half-size design's forced eviction).
    #[allow(clippy::too_many_arguments)]
    pub fn upsert_dirty<P: Probe>(
        &mut self,
        reg: Reg,
        seq: u64,
        hint: WritebackHint,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        match self.find(reg) {
            Some(i) => {
                let e = &mut self.entries[i];
                if e.dirty {
                    emit(stats, probe, PipeEvent::BypassedWrite);
                }
                e.last_touch = e.last_touch.max(seq);
                e.dirty = true;
                e.ready_at = Some(0);
                e.hint = hint;
            }
            None => {
                self.make_room(warp, rf, stats, probe);
                self.entries.push(Entry {
                    reg,
                    last_touch: seq,
                    dirty: true,
                    ready_at: Some(0),
                    hint,
                });
            }
        }
    }

    /// Evicts entries the window at `seq` has slid past, writing dirty
    /// persistent values back to the register file.
    pub fn slide<P: Probe>(
        &mut self,
        seq: u64,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        let window = self.window;
        let mut i = 0;
        while i < self.entries.len() {
            let e = self.entries[i];
            // Un-arrived entries are pinned: a collector slot still waits on
            // their fetch.
            if e.ready_at.is_some() && seq.saturating_sub(e.last_touch) >= window {
                self.evict(i, warp, rf, stats, false, probe);
            } else {
                i += 1;
            }
        }
        self.enforce_capacity(warp, rf, stats, probe);
    }

    /// Writes back / discards everything (warp completion).
    pub fn flush<P: Probe>(
        &mut self,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        while !self.entries.is_empty() {
            self.evict(0, warp, rf, stats, false, probe);
        }
    }

    fn evict<P: Probe>(
        &mut self,
        i: usize,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        forced: bool,
        probe: &mut P,
    ) {
        let e = self.entries.remove(i);
        if e.dirty {
            if forced || e.hint.to_rf() {
                // Persistent value (or unsafe forced eviction): the RF must
                // receive it.
                rf.enqueue_write(warp, e.reg);
                emit(stats, probe, PipeEvent::RfWriteRouted);
            } else {
                // Transient value consumed entirely in the window: the RF
                // write is eliminated.
                emit(stats, probe, PipeEvent::BypassedWrite);
            }
        }
    }

    fn make_room<P: Probe>(
        &mut self,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        // A warp's first buffered value reserves the whole buffer, so a
        // window never grows on the per-cycle path once its warp has run.
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(self.capacity);
        }
        self.enforce_capacity(warp, rf, stats, probe);
        if self.entries.len() >= self.capacity {
            self.evict_oldest_arrived(warp, rf, stats, probe);
        }
    }

    fn enforce_capacity<P: Probe>(
        &mut self,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) {
        while self.entries.len() > self.capacity {
            if !self.evict_oldest_arrived(warp, rf, stats, probe) {
                break; // everything pinned; allow transient over-capacity
            }
        }
    }

    fn evict_oldest_arrived<P: Probe>(
        &mut self,
        warp: usize,
        rf: &mut RegFile,
        stats: &mut SimStats,
        probe: &mut P,
    ) -> bool {
        let Some(victim) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ready_at.is_some())
            .min_by_key(|(_, e)| e.last_touch)
            .map(|(i, _)| i)
        else {
            return false;
        };
        if self.entries[victim].dirty {
            emit(stats, probe, PipeEvent::ForcedEviction);
        }
        self.evict(victim, warp, rf, stats, true, probe);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NullProbe;

    fn fixtures() -> (RegFile, SimStats) {
        (RegFile::new(32), SimStats::default())
    }

    #[test]
    fn miss_then_hit_after_fetch_arrives() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        assert_eq!(w.touch_read(Reg::r(1), 0), ReadHit::Miss);
        w.add_fetch(Reg::r(1), 0, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.touch_read(Reg::r(1), 1), ReadHit::InFlight);
        w.mark_arrived(Reg::r(1), 5);
        assert_eq!(w.touch_read(Reg::r(1), 2), ReadHit::Arrived(5));
    }

    #[test]
    fn sliding_evicts_untouched_entries() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_clean(Reg::r(1), 0, 0, &mut rf, &mut st, &mut NullProbe);
        w.slide(2, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 1, "still inside the window");
        w.slide(3, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 0, "seq 3 - touch 0 >= window 3");
    }

    #[test]
    fn reads_extend_presence() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_clean(Reg::r(1), 0, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.touch_read(Reg::r(1), 2), ReadHit::Arrived(0));
        // Touched at 2, so the entry lives until seq 5 (extended window).
        w.slide(4, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 1);
        w.slide(5, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 0);
    }

    #[test]
    fn dirty_persistent_eviction_writes_rf() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_dirty(
            Reg::r(2),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.slide(3, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.rf_writes_routed, 1);
        assert_eq!(st.bypassed_writes, 0);
        assert_eq!(rf.queued_writes(), 1);
    }

    #[test]
    fn dirty_transient_eviction_is_bypassed() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_dirty(
            Reg::r(2),
            0,
            WritebackHint::BocOnly,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.slide(3, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.rf_writes_routed, 0);
        assert_eq!(st.bypassed_writes, 1);
    }

    #[test]
    fn overwrite_consolidates_dirty_write() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_dirty(
            Reg::r(2),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.upsert_dirty(
            Reg::r(2),
            1,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        assert_eq!(st.bypassed_writes, 1);
        w.slide(4, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(
            st.rf_writes_routed, 1,
            "only the final value reaches the RF"
        );
    }

    #[test]
    fn forced_eviction_writes_back_even_transients() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 2);
        w.upsert_dirty(
            Reg::r(1),
            0,
            WritebackHint::BocOnly,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.upsert_dirty(
            Reg::r(2),
            0,
            WritebackHint::BocOnly,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        // Third value forces the oldest out despite its BocOnly hint.
        w.slide(1, 0, &mut rf, &mut st, &mut NullProbe);
        w.upsert_dirty(
            Reg::r(3),
            1,
            WritebackHint::BocOnly,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.slide(1, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(st.forced_evictions, 1);
        assert_eq!(st.rf_writes_routed, 1, "safety write-back");
    }

    #[test]
    fn invalidate_drops_arrived_entries_but_not_inflight_fetches() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_dirty(
            Reg::r(2),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.invalidate(Reg::r(2), &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 0, "superseded dirty value dropped");
        assert_eq!(st.bypassed_writes, 1, "the consolidated write is counted");
        assert_eq!(rf.queued_writes(), 0, "and never reaches the RF");

        w.add_fetch(Reg::r(3), 1, 0, &mut rf, &mut st, &mut NullProbe);
        w.invalidate(Reg::r(3), &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 1, "a pinned fetch survives");
    }

    #[test]
    fn unarrived_entries_are_pinned() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(2, 12);
        w.add_fetch(Reg::r(1), 0, 0, &mut rf, &mut st, &mut NullProbe);
        w.slide(10, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 1, "in-flight fetch survives sliding");
        w.mark_arrived(Reg::r(1), 5);
        w.slide(10, 0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 0);
    }

    #[test]
    fn flush_drains_everything() {
        let (mut rf, mut st) = fixtures();
        let mut w = WarpWindow::new(3, 12);
        w.upsert_dirty(
            Reg::r(1),
            0,
            WritebackHint::Both,
            0,
            &mut rf,
            &mut st,
            &mut NullProbe,
        );
        w.upsert_clean(Reg::r(2), 0, 0, &mut rf, &mut st, &mut NullProbe);
        w.flush(0, &mut rf, &mut st, &mut NullProbe);
        assert_eq!(w.live_entries(), 0);
        assert_eq!(st.rf_writes_routed, 1);
    }
}
