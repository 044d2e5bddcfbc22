//! The banked register file: bank mapping, queued writes and per-cycle
//! port accounting.
//!
//! Each of the (typically 32) banks has a single port serving one access per
//! cycle, writes taking priority over reads — the structural hazard at the
//! core of the paper's performance argument. Warp registers are swizzled
//! across banks with the standard `(warp + reg) % banks` mapping so
//! different warps' hot registers spread out.

use crate::bits::Bits;
use bow_isa::Reg;

/// Register-file access counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegFileStats {
    /// Warp-register reads served by the banks.
    pub reads: u64,
    /// Warp-register writes performed on the banks.
    pub writes: u64,
    /// Read grants that had to wait at least one cycle for a port.
    pub read_conflicts: u64,
    /// Cycles any write sat queued behind a busy port.
    pub write_queue_cycles: u64,
}

/// The banked register file (timing side).
#[derive(Clone, Debug)]
pub struct RegFile {
    banks: usize,
    /// Bank groups. With one group (Pascal) every warp spreads over every
    /// bank; with `g` groups (the modern core's sub-core-private banks)
    /// warp `w` only ever touches the `banks / g` banks of group `w % g`,
    /// so sub-cores never contend for each other's ports.
    groups: usize,
    /// Writes queued per bank. Which warp-register a queued write carries
    /// never matters to timing (the values live in `Warp::regs`), so a
    /// count is the whole queue.
    queued: Vec<u32>,
    /// The banks with a queued write, and the total queued over all banks.
    queued_banks: Bits,
    queued_total: u64,
    /// Banks whose port is consumed this cycle.
    busy: Bits,
    stats: RegFileStats,
}

impl RegFile {
    /// Creates a register file with `banks` single-ported banks shared by
    /// all warps (one group).
    pub fn new(banks: usize) -> RegFile {
        RegFile::new_clustered(banks, 1)
    }

    /// Creates a register file whose banks are split into `groups`
    /// sub-core-private clusters; `banks` must divide evenly.
    pub fn new_clustered(banks: usize, groups: usize) -> RegFile {
        assert!(banks > 0, "at least one bank required");
        assert!(
            groups > 0 && banks.is_multiple_of(groups),
            "banks ({banks}) must split evenly into {groups} groups"
        );
        RegFile {
            banks,
            groups,
            queued: vec![0; banks],
            queued_banks: Bits::new(banks),
            queued_total: 0,
            busy: Bits::new(banks),
            stats: RegFileStats::default(),
        }
    }

    /// Empties every bank queue and port and zeroes the statistics in
    /// place: the state [`new_clustered`](Self::new_clustered) builds, with
    /// no allocation.
    pub(crate) fn reset(&mut self) {
        self.queued.fill(0);
        self.queued_banks.clear_all();
        self.queued_total = 0;
        self.busy.clear_all();
        self.stats = RegFileStats::default();
    }

    /// The bank a warp's register lives in: the standard
    /// `(warp + reg) % banks` swizzle within the warp's bank group. With
    /// one group this is exactly the flat Pascal mapping.
    pub fn bank_of(&self, warp: usize, reg: Reg) -> usize {
        let per = self.banks / self.groups;
        (warp % self.groups) * per + (warp + usize::from(reg.index())) % per
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RegFileStats {
        self.stats
    }

    /// Queues a write-back to the banks.
    pub fn enqueue_write(&mut self, warp: usize, reg: Reg) {
        let b = self.bank_of(warp, reg);
        self.queued[b] += 1;
        self.queued_banks.set(b);
        self.queued_total += 1;
    }

    /// Starts a new cycle: drains one queued write per bank (consuming that
    /// bank's port) and resets port availability for reads. Every write
    /// still queued after the drain waits this cycle out.
    pub fn begin_cycle(&mut self) {
        self.busy.copy_from(&self.queued_banks);
        let drained = self.busy.count();
        self.stats.writes += drained;
        self.queued_total -= drained;
        self.stats.write_queue_cycles += self.queued_total;
        for b in self.busy.iter() {
            self.queued[b] -= 1;
            if self.queued[b] == 0 {
                self.queued_banks.clear(b);
            }
        }
    }

    /// Tries to claim `warp`/`reg`'s bank port for a read this cycle.
    /// Returns true (and counts the read) on success.
    pub fn try_read(&mut self, warp: usize, reg: Reg) -> bool {
        let b = self.bank_of(warp, reg);
        if self.busy.get(b) {
            self.stats.read_conflicts += 1;
            false
        } else {
            self.busy.set(b);
            self.stats.reads += 1;
            true
        }
    }

    /// Outstanding queued writes across all banks.
    pub fn queued_writes(&self) -> u64 {
        self.queued_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_mapping_swizzles_by_warp() {
        let rf = RegFile::new(32);
        assert_eq!(rf.bank_of(0, Reg::r(0)), 0);
        assert_eq!(rf.bank_of(1, Reg::r(0)), 1);
        assert_eq!(rf.bank_of(0, Reg::r(33)), 1);
    }

    #[test]
    fn clustered_mapping_confines_warps_to_their_group() {
        let rf = RegFile::new_clustered(32, 4);
        for warp in 0..16 {
            let group = warp % 4;
            for r in 0..32u8 {
                let b = rf.bank_of(warp, Reg::r(r));
                assert_eq!(b / 8, group, "warp {warp} reg {r} left its group");
            }
        }
        // Within a group the swizzle still spreads registers over banks.
        let banks: std::collections::HashSet<_> =
            (0..8u8).map(|r| rf.bank_of(0, Reg::r(r))).collect();
        assert_eq!(banks.len(), 8);
    }

    #[test]
    fn one_group_matches_flat_mapping() {
        let flat = RegFile::new(32);
        let clustered = RegFile::new_clustered(32, 1);
        for warp in 0..64 {
            for r in 0..64u8 {
                assert_eq!(
                    flat.bank_of(warp, Reg::r(r)),
                    clustered.bank_of(warp, Reg::r(r))
                );
            }
        }
    }

    #[test]
    fn one_read_per_bank_per_cycle() {
        let mut rf = RegFile::new(4);
        rf.begin_cycle();
        assert!(rf.try_read(0, Reg::r(0)));
        assert!(!rf.try_read(4, Reg::r(0)), "same bank, port taken");
        assert!(rf.try_read(0, Reg::r(1)), "different bank is fine");
        assert_eq!(rf.stats().reads, 2);
        assert_eq!(rf.stats().read_conflicts, 1);
    }

    #[test]
    fn writes_beat_reads() {
        let mut rf = RegFile::new(4);
        rf.enqueue_write(0, Reg::r(0));
        rf.begin_cycle();
        assert!(!rf.try_read(0, Reg::r(0)), "write drained first");
        assert_eq!(rf.stats().writes, 1);
        rf.begin_cycle();
        assert!(rf.try_read(0, Reg::r(0)), "port free next cycle");
    }

    #[test]
    fn all_banks_serve_reads_in_the_same_cycle() {
        // Bank-level parallelism: with no conflicts, N banks serve N reads
        // per cycle — the baseline the conflict cases degrade from.
        let mut rf = RegFile::new(8);
        rf.begin_cycle();
        for i in 0..8 {
            assert!(rf.try_read(0, Reg::r(i)), "bank {i}");
        }
        assert_eq!(rf.stats().reads, 8);
        assert_eq!(rf.stats().read_conflicts, 0);
    }

    #[test]
    fn queued_writes_starve_reads_for_their_full_depth() {
        // Three writes queued to one bank consume that bank's port for
        // three consecutive cycles; a read attempt each cycle loses the
        // arbitration every time until the queue drains.
        let mut rf = RegFile::new(4);
        for _ in 0..3 {
            rf.enqueue_write(0, Reg::r(0));
        }
        let mut denied = 0;
        for _ in 0..3 {
            rf.begin_cycle();
            if !rf.try_read(4, Reg::r(0)) {
                denied += 1;
            }
        }
        assert_eq!(denied, 3, "write priority holds for the queue depth");
        rf.begin_cycle();
        assert!(rf.try_read(4, Reg::r(0)), "port free once drained");
        assert_eq!(rf.stats().read_conflicts, 3);
        assert_eq!(rf.stats().writes, 3);
        // Queue-occupancy integral: 2 behind the first drain + 1 behind
        // the second + 0 behind the third.
        assert_eq!(rf.stats().write_queue_cycles, 3);
    }

    #[test]
    fn conflicts_count_per_denied_attempt() {
        let mut rf = RegFile::new(2);
        rf.begin_cycle();
        assert!(rf.try_read(0, Reg::r(0)));
        assert!(!rf.try_read(2, Reg::r(0)), "same bank via warp swizzle");
        assert!(!rf.try_read(0, Reg::r(2)), "same bank via reg swizzle");
        assert_eq!(rf.stats().read_conflicts, 2);
        assert_eq!(rf.stats().reads, 1);
    }

    /// The walk `begin_cycle` replaced: one write deque per bank, every
    /// bank visited every cycle.
    struct ReferenceBanks {
        queues: Vec<std::collections::VecDeque<(usize, Reg)>>,
        busy: Vec<bool>,
        stats: RegFileStats,
    }

    impl ReferenceBanks {
        fn begin_cycle(&mut self) {
            for (q, busy) in self.queues.iter_mut().zip(&mut self.busy) {
                *busy = q.pop_front().is_some();
                self.stats.writes += u64::from(*busy);
                self.stats.write_queue_cycles += q.len() as u64;
            }
        }

        fn try_read(&mut self, b: usize) -> bool {
            if self.busy[b] {
                self.stats.read_conflicts += 1;
                false
            } else {
                self.busy[b] = true;
                self.stats.reads += 1;
                true
            }
        }
    }

    #[test]
    fn begin_cycle_matches_the_per_bank_walk_it_replaced() {
        // Bursty writes (queues build up and drain) and reads that collide,
        // at bank counts below, at and above one 64-bit word, and on a
        // clustered file.
        for (banks, groups) in [(30, 1), (32, 1), (32, 4), (96, 1), (96, 3)] {
            let mut rng = bow_util::XorShift::new(banks as u64 * 7 + groups as u64);
            let mut rf = RegFile::new_clustered(banks, groups);
            let mut reference = ReferenceBanks {
                queues: vec![Default::default(); banks],
                busy: vec![false; banks],
                stats: RegFileStats::default(),
            };
            for cycle in 0..3000 {
                let burst = if cycle % 200 < 50 {
                    banks as u64 * 2
                } else {
                    2
                };
                for _ in 0..rng.below(burst) {
                    let (warp, reg) = (rng.below(96) as usize, Reg::r(rng.below_u8(64)));
                    rf.enqueue_write(warp, reg);
                    reference.queues[rf.bank_of(warp, reg)].push_back((warp, reg));
                }
                rf.begin_cycle();
                reference.begin_cycle();
                for _ in 0..rng.below(24) {
                    let (warp, reg) = (rng.below(96) as usize, Reg::r(rng.below_u8(64)));
                    let b = rf.bank_of(warp, reg);
                    assert_eq!(rf.try_read(warp, reg), reference.try_read(b));
                }
                let queued: usize = reference.queues.iter().map(|q| q.len()).sum();
                assert_eq!(rf.queued_writes(), queued as u64, "{banks} banks");
                assert_eq!(rf.stats(), reference.stats, "{banks} banks, cycle {cycle}");
            }
            let st = rf.stats();
            assert!(st.write_queue_cycles > st.writes && st.read_conflicts > 5000);
        }
    }

    #[test]
    fn write_queue_drains_one_per_cycle() {
        let mut rf = RegFile::new(2);
        for _ in 0..3 {
            rf.enqueue_write(0, Reg::r(0)); // all to bank 0
        }
        assert_eq!(rf.queued_writes(), 3);
        rf.begin_cycle();
        assert_eq!(rf.queued_writes(), 2);
        rf.begin_cycle();
        rf.begin_cycle();
        assert_eq!(rf.queued_writes(), 0);
        assert_eq!(rf.stats().writes, 3);
        assert!(rf.stats().write_queue_cycles > 0);
    }
}
