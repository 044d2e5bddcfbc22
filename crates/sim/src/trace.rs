//! The architectural operand window, and the Fig. 3 analyzer built on it.
//!
//! [`ArchWindow`] is the one dynamic encoding of BOW's window rule:
//! `age = seq − last_touch`, a value is resident iff `age < window`, and
//! reads re-touch it — the paper's sliding extended instruction window and
//! [`WarpWindow::slide`]'s eviction rule, without the timing model's ports,
//! in-flight fetches or capacity. Three consumers replay per-warp streams
//! through it: [`BypassAnalyzer`] (Fig. 3, "all bypassing opportunities for
//! read and write requests to the register file, for different window
//! instruction sizes"), the race sanitizer's hint check
//! ([`crate::sanitize`]) and the mutation campaign's ground truth
//! (`bow::mutate`), to which a stale read is a `hint-violation` and an
//! unsound mutant respectively.
//!
//! [`WarpWindow::slide`]: crate::collector::window::WarpWindow::slide

use bow_isa::{Instruction, Kernel, WritebackHint, WARP_SIZE};
use std::collections::HashMap;

/// A register definition: the defining instruction's pc and per-warp
/// sequence number.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Def {
    /// Program counter.
    pub pc: usize,
    /// Per-warp sequence number.
    pub seq: u64,
}

/// What one [`ArchWindow::read`] observed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WindowRead {
    /// Served from the window; a miss fetches the RF copy into it, clean.
    pub hit: bool,
    /// Some active lane observed a snapshot older than its newest write:
    /// the def whose value was lost (a dirty `BocOnly` value evicted).
    pub stale: Option<Def>,
}

/// Per-register architectural state. Write *versions* stand in for
/// values; staleness is judged per lane, because a divergent warp's arms
/// write disjoint lane sets and a read in one arm is entitled to a
/// register-file copy that predates the other arm's writes.
///
/// Both the window entry and the RF hold full-register *snapshots*: a
/// write-back moves the whole 32-lane warp register, the lanes the write
/// left alone included, so a snapshot taken at version `v` is correct
/// for lane `l` exactly while no later write has touched `l` — i.e.
/// while `lane_ver[l] <= v` — and the lanes the write left alone came
/// from a copy that held them. A write merges those lanes from the
/// buffered snapshot, or from the RF's when none is buffered; a lane
/// whose newest value is in neither is *lost*, and stays lost until a
/// write covers it.
#[derive(Clone, Copy, Debug, Default)]
struct RegState {
    /// Version counter: increments on every architectural write.
    ver: u64,
    /// Per-lane version of the last write covering that lane.
    lane_ver: [u64; WARP_SIZE],
    /// Version of the snapshot the register-file banks hold.
    rf_ver: u64,
    /// The newest write, the only one a current snapshot can lose: it
    /// carries every older write's lanes.
    def: Def,
    /// Lanes no snapshot holds the newest value of, and the write whose
    /// value they lost.
    lost: u32,
    lost_def: Def,
    /// The buffered window entry, if any.
    win: Option<WinEntry>,
}

#[derive(Clone, Copy, Debug)]
struct WinEntry {
    /// Version of the buffered snapshot.
    ver: u64,
    /// Sequence number of the last touching instruction.
    last_touch: u64,
    /// The buffered value is newer than the RF copy.
    dirty: bool,
    /// A dirty eviction writes back unless the def was `BocOnly`.
    hint: WritebackHint,
}

/// One warp's architectural operand window at one size. Per instruction,
/// in program order, [`read`](ArchWindow::read) each unique source, then
/// [`write`](ArchWindow::write) the destination, at the instruction's
/// per-warp sequence number (control instructions consume one too).
#[derive(Clone, Debug)]
pub struct ArchWindow {
    window: u64,
    /// Indexed by register, grown to the highest register accessed.
    regs: Vec<RegState>,
}

impl ArchWindow {
    /// An empty window of `window` instructions.
    pub fn new(window: u32) -> ArchWindow {
        ArchWindow {
            window: u64::from(window),
            regs: Vec::new(),
        }
    }

    /// `reg`'s state at `seq`, with a pending eviction resolved. Evictions
    /// only affect later accesses of the *same* register, so resolving them
    /// lazily at the next access is exact.
    fn reg(&mut self, reg: u8, seq: u64) -> &mut RegState {
        let i = usize::from(reg);
        if i >= self.regs.len() {
            self.regs.resize(i + 1, RegState::default());
        }
        let st = &mut self.regs[i];
        if let Some(e) = st.win {
            if seq.saturating_sub(e.last_touch) >= self.window {
                if e.dirty && e.hint.to_rf() {
                    st.rf_ver = e.ver;
                }
                st.win = None;
            }
        }
        st
    }

    /// A read of `reg` at `seq` under lane `mask`; it re-touches the entry.
    pub fn read(&mut self, reg: u8, seq: u64, mask: u32) -> WindowRead {
        let st = self.reg(reg, seq);
        let hit = st.win.is_some();
        let entry = st.win.get_or_insert(WinEntry {
            ver: st.rf_ver,
            last_touch: seq,
            dirty: false,
            hint: WritebackHint::Both,
        });
        entry.last_touch = seq;
        let ver = entry.ver;
        let stale = if (0..WARP_SIZE).any(|l| mask & (1 << l) != 0 && st.lane_ver[l] > ver) {
            Some(st.def)
        } else {
            (mask & st.lost != 0).then_some(st.lost_def)
        };
        WindowRead { hit, stale }
    }

    /// A write of `reg` by the instruction at `pc` / `seq` under lane
    /// `mask`, routed by `hint`. Returns whether it consolidated an
    /// in-window dirty value (that earlier write never reaches the RF).
    pub fn write(&mut self, reg: u8, seq: u64, mask: u32, hint: WritebackHint, pc: usize) -> bool {
        let st = self.reg(reg, seq);
        let consolidated = st.win.is_some_and(|e| e.dirty);
        // The lanes outside `mask` merge from the buffered snapshot, or
        // from the RF's when none is buffered.
        let merged_from = st.win.map_or(st.rf_ver, |e| e.ver);
        let dropped = (0..WARP_SIZE)
            .filter(|&l| mask & (1 << l) == 0 && st.lane_ver[l] > merged_from)
            .fold(0u32, |m, l| m | 1 << l);
        if dropped != 0 {
            st.lost_def = st.def;
        }
        st.lost = (st.lost | dropped) & !mask;
        st.ver += 1;
        for l in (0..WARP_SIZE).filter(|l| mask & (1 << l) != 0) {
            st.lane_ver[l] = st.ver;
        }
        st.def = Def { pc, seq };
        st.win = if hint == WritebackHint::RfOnly {
            // Straight to the RF; a buffered copy is superseded and
            // invalidated (`WarpWindow::invalidate`).
            st.rf_ver = st.ver;
            None
        } else {
            Some(WinEntry {
                ver: st.ver,
                last_touch: seq,
                dirty: true,
                hint,
            })
        };
        consolidated
    }

    /// Replays one warp's `(seq, pc, mask)` stream of `kernel`, in program
    /// order, through a fresh window under the kernel's write-back hints;
    /// `on_stale(reg, pc, seq, lost)` sees every stale read.
    pub fn replay(
        window: u32,
        kernel: &Kernel,
        stream: &[(u64, usize, u32)],
        mut on_stale: impl FnMut(u8, usize, u64, Def),
    ) {
        let mut win = ArchWindow::new(window);
        for &(seq, pc, mask) in stream {
            let inst = &kernel.insts[pc];
            for r in inst.unique_src_regs() {
                if let Some(lost) = win.read(r.index(), seq, mask).stale {
                    on_stale(r.index(), pc, seq, lost);
                }
            }
            if let Some(d) = inst.dst_reg() {
                win.write(d.index(), seq, mask, inst.hint, pc);
            }
        }
    }
}

/// Eliminated-request counts for one window size.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WindowReport {
    /// Window size (instructions).
    pub window: u32,
    /// Total source-register read requests observed.
    pub total_reads: u64,
    /// Reads that would be served from the window.
    pub bypassed_reads: u64,
    /// Total register write-backs observed.
    pub total_writes: u64,
    /// Writes that would never reach the register file.
    pub bypassed_writes: u64,
}

impl WindowReport {
    /// Fraction of reads eliminated (Fig. 3, top).
    pub fn read_rate(&self) -> f64 {
        if self.total_reads == 0 {
            0.0
        } else {
            self.bypassed_reads as f64 / self.total_reads as f64
        }
    }

    /// Fraction of writes eliminated (Fig. 3, bottom).
    pub fn write_rate(&self) -> f64 {
        if self.total_writes == 0 {
            0.0
        } else {
            self.bypassed_writes as f64 / self.total_writes as f64
        }
    }
}

/// The per-kernel analyzer. Feed it every issued instruction of every warp
/// (in per-warp program order) via [`BypassAnalyzer::record`]; finish each
/// warp with [`BypassAnalyzer::flush_warp`]; read the totals with
/// [`BypassAnalyzer::reports`].
#[derive(Clone, Debug)]
pub struct BypassAnalyzer {
    /// Per warp uid: its next sequence number and one [`ArchWindow`] per
    /// tracked size.
    warps: HashMap<u64, (u64, Vec<ArchWindow>)>,
    reports: Vec<WindowReport>,
}

impl BypassAnalyzer {
    /// Creates an analyzer tracking the given window sizes.
    pub fn new(windows: &[u32]) -> BypassAnalyzer {
        BypassAnalyzer {
            warps: HashMap::new(),
            reports: windows
                .iter()
                .map(|&w| WindowReport {
                    window: w,
                    ..Default::default()
                })
                .collect(),
        }
    }

    /// Whether any window is being tracked.
    pub fn is_enabled(&self) -> bool {
        !self.reports.is_empty()
    }

    /// Records one issued instruction for the warp identified by
    /// `warp_uid` (unique across blocks and SMs). Fig. 3 is
    /// hint-independent, so every write is replayed as `Both` and no read
    /// is ever stale; lanes and the def's pc do not matter.
    pub fn record(&mut self, warp_uid: u64, inst: &Instruction) {
        let reports = &self.reports;
        let (seq, wins) = self.warps.entry(warp_uid).or_insert_with(|| {
            (
                0,
                reports.iter().map(|r| ArchWindow::new(r.window)).collect(),
            )
        });
        let srcs = inst.unique_src_regs();
        for (win, rep) in wins.iter_mut().zip(&mut self.reports) {
            for r in srcs.iter() {
                rep.total_reads += 1;
                if win.read(r.index(), *seq, u32::MAX).hit {
                    rep.bypassed_reads += 1;
                }
            }
            if let Some(d) = inst.dst_reg() {
                rep.total_writes += 1;
                // Overwritten while in window: the previous write never
                // needed the RF.
                if win.write(d.index(), *seq, u32::MAX, WritebackHint::Both, 0) {
                    rep.bypassed_writes += 1;
                }
            }
        }
        *seq += 1;
    }

    /// Closes out a finished warp. The paper's write-bypass metric also
    /// counts *transient* values — writes whose value dies inside the window
    /// — but detecting death requires the compiler view; the analyzer's
    /// dynamic view only consolidates overwrites, so the dirty values still
    /// buffered here drain to the RF (not bypassed).
    pub fn flush_warp(&mut self, warp_uid: u64) {
        self.warps.remove(&warp_uid);
    }

    /// The accumulated per-window reports.
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }
}

impl crate::probe::Probe for BypassAnalyzer {
    #[inline]
    fn on_event(&mut self, ev: &crate::probe::PipeEvent<'_>) {
        use crate::probe::PipeEvent;
        if !self.is_enabled() {
            return;
        }
        match *ev {
            PipeEvent::Issued { uid, inst, .. } => self.record(uid, inst),
            PipeEvent::WarpExit { uid } => self.flush_warp(uid),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_isa::{KernelBuilder, Operand, Reg};
    use WritebackHint::{BocOnly, Both, RfOnly};

    const ALL: u32 = u32::MAX;

    #[test]
    fn replayer_models_the_window_exactly() {
        // def r0 (BocOnly) at 0, read at distance 2 (hit, re-touch), then
        // at distance 4 from the re-touch (miss -> stale: the value was
        // dropped).
        let replay = |window, hint| {
            let mut w = ArchWindow::new(window);
            w.write(0, 0, ALL, hint, 0);
            [w.read(0, 2, ALL), w.read(0, 6, ALL)].map(|r| (r.hit, r.stale))
        };
        let lost = Some(Def { pc: 0, seq: 0 });
        assert_eq!(replay(3, BocOnly), [(true, None), (false, lost)]);
        assert_eq!(replay(8, BocOnly), [(true, None); 2], "window 8 keeps it");
        // Both writes back on eviction: no staleness at any window.
        assert_eq!(replay(3, Both), [(true, None), (false, None)]);
    }

    #[test]
    fn replayer_sees_rf_only_invalidation_as_a_kill() {
        // Both def buffered dirty, RfOnly redef supersedes (consolidates)
        // it, read after the old entry would have evicted: the RF must hold
        // the new value.
        let mut w = ArchWindow::new(3);
        assert!(!w.write(0, 0, ALL, Both, 0));
        assert!(w.write(0, 1, ALL, RfOnly, 1));
        assert_eq!(w.read(0, 5, ALL).stale, None, "no WAW regression");
    }

    #[test]
    fn a_partial_write_does_not_revive_a_dropped_value() {
        // r0 (BocOnly) is written, then rewritten under a mask that leaves
        // lanes 16..31 alone. Past the window the first value is already
        // dropped, so those lanes merge the RF's older copy and stay stale
        // until a write covers them; inside it they merge the buffered
        // value.
        let reads = |at| {
            let mut w = ArchWindow::new(3);
            w.write(0, 0, ALL, BocOnly, 0);
            w.write(0, at, 0x0000_ffff, Both, 1);
            [0xffff_0000, 0x0000_ffff].map(|mask| w.read(0, at + 4, mask).stale)
        };
        let lost = Some(Def { pc: 0, seq: 0 });
        assert_eq!(reads(5), [lost, None], "dropped before the rewrite");
        assert_eq!(reads(1), [None, None], "merged from the window");
    }

    #[test]
    fn staleness_is_judged_per_lane() {
        // A BocOnly write under the lower half-warp's mask is dropped on
        // eviction. A later read by the *other* half is entitled to the
        // old RF snapshot — not stale; the same read by the writing half
        // observes the loss.
        let read_at_4 = |mask| {
            let mut w = ArchWindow::new(3);
            w.write(0, 0, 0x0000_ffff, BocOnly, 0);
            w.read(0, 4, mask).stale.is_some()
        };
        assert!(!read_at_4(0xffff_0000), "disjoint lanes");
        assert!(read_at_4(0x0000_0001), "writing lane is stale");
    }

    fn record_all(an: &mut BypassAnalyzer, insts: &[Instruction]) {
        for i in insts {
            an.record(0, i);
        }
        an.flush_warp(0);
    }

    #[test]
    fn adjacent_reuse_bypasses_with_iw2() {
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1) //         w r0
            .iadd(r(1), r(0).into(), Operand::Imm(2)) // r r0
            .exit()
            .build()
            .unwrap();
        let mut an = BypassAnalyzer::new(&[2]);
        record_all(&mut an, &k.insts);
        let rep = an.reports()[0];
        assert_eq!(rep.total_reads, 1);
        assert_eq!(rep.bypassed_reads, 1, "r0 produced one instruction earlier");
    }

    #[test]
    fn distance_beyond_window_is_not_bypassed() {
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1)
            .mov_imm(r(1), 2)
            .mov_imm(r(2), 3)
            .iadd(r(3), r(0).into(), Operand::Imm(0)) // distance 3 from the def
            .exit()
            .build()
            .unwrap();
        let mut an = BypassAnalyzer::new(&[2, 7]);
        record_all(&mut an, &k.insts);
        assert_eq!(an.reports()[0].bypassed_reads, 0, "IW2 misses distance 3");
        assert_eq!(an.reports()[1].bypassed_reads, 1, "IW7 catches it");
    }

    #[test]
    fn sliding_extension_keeps_values_alive() {
        // r0 written at 0, read at 2, read again at 4: with IW3 the second
        // read (distance 2 from the first read's touch) still hits.
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1) //                        0
            .mov_imm(r(1), 2) //                        1
            .iadd(r(2), r(0).into(), Operand::Imm(0)) // 2: touch r0
            .mov_imm(r(3), 3) //                        3
            .iadd(r(4), r(0).into(), Operand::Imm(0)) // 4: r0 touched at 2
            .exit()
            .build()
            .unwrap();
        let mut an = BypassAnalyzer::new(&[3]);
        record_all(&mut an, &k.insts);
        assert_eq!(an.reports()[0].bypassed_reads, 2);
    }

    #[test]
    fn overwrite_within_window_bypasses_the_write() {
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1)
            .mov_imm(r(0), 2) // consolidates the first write
            .exit()
            .build()
            .unwrap();
        let mut an = BypassAnalyzer::new(&[3]);
        record_all(&mut an, &k.insts);
        let rep = an.reports()[0];
        assert_eq!(rep.total_writes, 2);
        assert_eq!(rep.bypassed_writes, 1);
    }

    #[test]
    fn rates_monotonically_increase_with_window() {
        // A little loop body with mixed distances.
        let r = Reg::r;
        let mut b = KernelBuilder::new("t");
        for i in 0..6u8 {
            b = b.iadd(r(i % 3), r((i + 1) % 3).into(), r((i + 2) % 3).into());
        }
        let k = b.exit().build().unwrap();
        let mut an = BypassAnalyzer::new(&[2, 3, 4, 5, 6, 7]);
        record_all(&mut an, &k.insts);
        let rates: Vec<f64> = an.reports().iter().map(|r| r.read_rate()).collect();
        for pair in rates.windows(2) {
            assert!(pair[1] >= pair[0], "read rate must grow with IW: {rates:?}");
        }
    }

    #[test]
    fn warps_are_independent() {
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1)
            .iadd(r(1), r(0).into(), Operand::Imm(2))
            .exit()
            .build()
            .unwrap();
        let mut an = BypassAnalyzer::new(&[2]);
        // Interleave two warps: per-warp distances stay 1.
        an.record(0, &k.insts[0]);
        an.record(1, &k.insts[0]);
        an.record(0, &k.insts[1]);
        an.record(1, &k.insts[1]);
        assert_eq!(an.reports()[0].bypassed_reads, 2);
    }
}
