//! Online characterization of bypass opportunity (Fig. 3).
//!
//! The analyzer replays the *architectural* operand stream — independent of
//! any collector's timing — through an exact model of the sliding extended
//! instruction window at several window sizes at once, counting how many
//! read and write requests a BOW/BOW-WR machine with that window would
//! eliminate. This is exactly the paper's motivation experiment: "all
//! bypassing opportunities for read and write requests to the register
//! file, for different window instruction sizes".

use bow_isa::Instruction;
use std::collections::HashMap;

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

/// Window state for one (warp, window-size) pair.
#[derive(Clone, Debug, Default)]
struct WindowState {
    /// reg -> (last_touch_seq, dirty)
    entries: HashMap<u8, (u64, bool)>,
    seq: u64,
}

/// The per-kernel analyzer. Feed it every issued instruction of every warp
/// (in per-warp program order) via [`BypassAnalyzer::record`]; finish each
/// warp with [`BypassAnalyzer::flush_warp`]; read the totals with
/// [`BypassAnalyzer::reports`].
#[derive(Clone, Debug)]
pub struct BypassAnalyzer {
    windows: Vec<u32>,
    /// `states[warp_uid][window_index]`.
    states: HashMap<u64, Vec<WindowState>>,
    reports: Vec<WindowReport>,
}

impl BypassAnalyzer {
    /// Creates an analyzer tracking the given window sizes.
    pub fn new(windows: &[u32]) -> BypassAnalyzer {
        BypassAnalyzer {
            windows: windows.to_vec(),
            states: HashMap::new(),
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
        !self.windows.is_empty()
    }

    /// Records one issued instruction for the warp identified by
    /// `warp_uid` (unique across blocks and SMs).
    pub fn record(&mut self, warp_uid: u64, inst: &Instruction) {
        let srcs: Vec<u8> = inst.unique_src_regs().iter().map(|r| r.index()).collect();
        let dst = inst.dst_reg().map(|r| r.index());
        self.record_raw(warp_uid, &srcs, dst);
    }

    /// Records one dynamic instruction given only its operand identities.
    pub fn record_raw(&mut self, warp_uid: u64, srcs: &[u8], dst: Option<u8>) {
        if self.windows.is_empty() {
            return;
        }
        let n = self.windows.len();
        let states = self
            .states
            .entry(warp_uid)
            .or_insert_with(|| vec![WindowState::default(); n]);
        for (wi, state) in states.iter_mut().enumerate() {
            let w = u64::from(self.windows[wi]);
            let rep = &mut self.reports[wi];
            let seq = state.seq;
            state.seq += 1;
            // Slide: evict entries the window has passed; dirty evictions
            // are the writes that *do* reach the RF.
            state.entries.retain(|_, (touch, dirty)| {
                let live = seq.saturating_sub(*touch) < w;
                if !live && *dirty {
                    // Dirty eviction: counted as a real RF write (it was
                    // already counted in total_writes when produced).
                }
                live
            });
            for &r in srcs {
                rep.total_reads += 1;
                if let Some((touch, _)) = state.entries.get_mut(&r) {
                    rep.bypassed_reads += 1;
                    *touch = seq;
                } else {
                    state.entries.insert(r, (seq, false));
                }
            }
            if let Some(d) = dst {
                rep.total_writes += 1;
                if let Some((touch, dirty)) = state.entries.get_mut(&d) {
                    if *dirty {
                        // Overwritten while in window: the previous write
                        // never needed the RF.
                        rep.bypassed_writes += 1;
                    }
                    *touch = seq;
                    *dirty = true;
                } else {
                    state.entries.insert(d, (seq, true));
                }
            }
        }
    }

    /// Closes out a finished warp. The paper's write-bypass metric also
    /// counts *transient* values — writes whose value dies inside the window
    /// — but detecting death requires the compiler view; the analyzer's
    /// dynamic view only consolidates overwrites, so the dirty values still
    /// buffered here drain to the RF (not bypassed).
    pub fn flush_warp(&mut self, warp_uid: u64) {
        self.states.remove(&warp_uid);
    }

    /// The accumulated per-window reports.
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }

    /// Adds another analyzer's totals into this one (cross-SM merge).
    pub fn merge(&mut self, other: &BypassAnalyzer) {
        assert_eq!(self.windows, other.windows, "mismatched window sets");
        for (a, b) in self.reports.iter_mut().zip(other.reports.iter()) {
            a.total_reads += b.total_reads;
            a.bypassed_reads += b.bypassed_reads;
            a.total_writes += b.total_writes;
            a.bypassed_writes += b.bypassed_writes;
        }
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

    #[test]
    fn merge_adds_totals() {
        let mut a = BypassAnalyzer::new(&[3]);
        let mut b = BypassAnalyzer::new(&[3]);
        let r = Reg::r;
        let k = KernelBuilder::new("t")
            .mov_imm(r(0), 1)
            .iadd(r(1), r(0).into(), Operand::Imm(2))
            .exit()
            .build()
            .unwrap();
        record_all(&mut a, &k.insts);
        record_all(&mut b, &k.insts);
        a.merge(&b);
        assert_eq!(a.reports()[0].total_reads, 2);
    }
}
