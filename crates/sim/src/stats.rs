//! Simulation statistics: every counter a paper figure needs.
//!
//! Counters accumulate exclusively through the probe bus: stages and
//! collectors emit [`PipeEvent`]s and [`SimStats::apply`] folds each one
//! into its counter. [`SimStats`] also implements [`Probe`], so a stats
//! block can sit on any probe composition like every other subscriber.

use crate::probe::{PipeEvent, Probe, StallKind};
use crate::regfile::RegFileStats;
use bow_energy::AccessCounts;
use bow_mem::MemStats;
use bow_util::json::{DecodeError, Json};

/// The three write-destination classes of Fig. 7 (§IV-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteDest {
    /// Written straight to the register-file banks (no reuse in window).
    RfOnly,
    /// Written to the operand collector, then the banks (persistent reuse).
    BocThenRf,
    /// Written only to the operand collector (transient value).
    BocOnly,
}

/// Counters accumulated by one SM (merge across SMs with
/// [`SimStats::merge`]).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimStats {
    /// Cycles this SM ran.
    pub cycles: u64,
    /// Warp instructions committed (including control instructions).
    pub warp_instructions: u64,
    /// Thread instructions committed (warp instructions × active lanes).
    pub thread_instructions: u64,
    /// Register-file port/traffic counters.
    pub rf: RegFileStats,
    /// Source-operand reads satisfied by the bypass buffers instead of the
    /// register file (BOW's "eliminated read requests").
    pub bypassed_reads: u64,
    /// Values written into the bypass buffers (BOC) at writeback.
    pub boc_writes: u64,
    /// Register writebacks produced by the pipeline (before routing).
    pub writes_total: u64,
    /// Writebacks that reached the register-file banks.
    pub rf_writes_routed: u64,
    /// Writebacks that never reached the banks ("eliminated writes").
    pub bypassed_writes: u64,
    /// Fig. 7 classification: `[RfOnly, BocThenRf, BocOnly]` dynamic counts.
    pub write_dest: [u64; 3],
    /// Dirty window entries evicted early because the (half-size) buffer
    /// was full.
    pub forced_evictions: u64,
    /// Fig. 8: instructions by number of unique register sources (0..=3).
    pub src_count_hist: [u64; 4],
    /// Fig. 9: cycles observed at each BOC entry-occupancy level
    /// (index = number of live entries; saturates at the last bucket).
    pub boc_occupancy_hist: Vec<u64>,
    /// Number of (cycle × active-BOC) occupancy samples taken.
    pub occupancy_samples: u64,
    /// RFC baseline: reads served by the register-file cache.
    pub rfc_reads: u64,
    /// RFC baseline: writes into the register-file cache.
    pub rfc_writes: u64,
    /// Cycles memory instructions spent in the operand-collection stage.
    pub oc_cycles_mem: u64,
    /// Cycles non-memory instructions spent in the operand-collection stage.
    pub oc_cycles_nonmem: u64,
    /// Issue→writeback cycles of memory instructions.
    pub exec_cycles_mem: u64,
    /// Issue→writeback cycles of non-memory instructions.
    pub exec_cycles_nonmem: u64,
    /// Memory instructions dispatched.
    pub insts_mem: u64,
    /// Non-memory (data) instructions dispatched.
    pub insts_nonmem: u64,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Issue attempts rejected because no collector slot was free.
    pub stall_no_collector: u64,
    /// Issue attempts rejected by the scoreboard.
    pub stall_scoreboard: u64,
    /// Completions that arrived for a warp slot already retired. Should be
    /// zero in a well-formed pipeline; counted (not silently dropped) so a
    /// model bug is visible in release statistics.
    pub retired_completions: u64,
}

impl SimStats {
    /// Folds one pipeline event into the counter block. Every variant a
    /// counter cares about is matched here; milestone events that only
    /// exist for the trace/analyzer subscribers fall through unchanged.
    #[inline(always)]
    pub fn apply(&mut self, ev: &PipeEvent<'_>) {
        match *ev {
            PipeEvent::Issued { active, .. } => {
                self.warp_instructions += 1;
                self.thread_instructions += u64::from(active);
            }
            PipeEvent::Dispatch {
                oc_cycles, is_mem, ..
            } => {
                if is_mem {
                    self.oc_cycles_mem += oc_cycles;
                    self.insts_mem += 1;
                } else {
                    self.oc_cycles_nonmem += oc_cycles;
                    self.insts_nonmem += 1;
                }
            }
            PipeEvent::ExecSpan { is_mem, span } => {
                if is_mem {
                    self.exec_cycles_mem += span;
                } else {
                    self.exec_cycles_nonmem += span;
                }
            }
            PipeEvent::RetiredCompletion { .. } => self.retired_completions += 1,
            PipeEvent::Stalls {
                kind: StallKind::NoCollector,
                count,
            } => self.stall_no_collector += count,
            PipeEvent::Stalls {
                kind: StallKind::Scoreboard,
                count,
            } => self.stall_scoreboard += count,
            PipeEvent::SrcRegs(n) => self.src_count_hist[n.min(3)] += 1,
            PipeEvent::BypassedRead => self.bypassed_reads += 1,
            PipeEvent::RfcRead => self.rfc_reads += 1,
            PipeEvent::RfcWrite => self.rfc_writes += 1,
            PipeEvent::WriteProduced => self.writes_total += 1,
            PipeEvent::RfWriteRouted => self.rf_writes_routed += 1,
            PipeEvent::BypassedWrite => self.bypassed_writes += 1,
            PipeEvent::BocWrite => self.boc_writes += 1,
            PipeEvent::WriteDestClass(dest) => self.count_write_dest(dest),
            PipeEvent::ForcedEviction => self.forced_evictions += 1,
            PipeEvent::OccupancySample { live, cap } => self.sample_occupancy(live, cap),
            PipeEvent::Issue { .. }
            | PipeEvent::Control { .. }
            | PipeEvent::Writeback { .. }
            | PipeEvent::WarpExit { .. }
            | PipeEvent::ExecResult { .. }
            | PipeEvent::CtrlTrace { .. }
            | PipeEvent::MemTrace { .. } => {}
        }
    }

    /// Records a Fig. 7 classification.
    pub fn count_write_dest(&mut self, dest: WriteDest) {
        let i = match dest {
            WriteDest::RfOnly => 0,
            WriteDest::BocThenRf => 1,
            WriteDest::BocOnly => 2,
        };
        self.write_dest[i] += 1;
    }

    /// Records a BOC occupancy sample (Fig. 9).
    pub fn sample_occupancy(&mut self, entries: usize, max_entries: usize) {
        if self.boc_occupancy_hist.len() <= max_entries {
            self.boc_occupancy_hist.resize(max_entries + 1, 0);
        }
        self.boc_occupancy_hist[entries.min(max_entries)] += 1;
        self.occupancy_samples += 1;
    }

    /// Instructions per cycle (warp granularity).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.warp_instructions as f64 / self.cycles as f64
        }
    }

    /// Fraction of source-register reads served by bypassing.
    pub fn read_bypass_rate(&self) -> f64 {
        let total = self.bypassed_reads + self.rf.reads;
        if total == 0 {
            0.0
        } else {
            self.bypassed_reads as f64 / total as f64
        }
    }

    /// Fraction of register writebacks that never reached the RF banks.
    pub fn write_bypass_rate(&self) -> f64 {
        if self.writes_total == 0 {
            0.0
        } else {
            self.bypassed_writes as f64 / self.writes_total as f64
        }
    }

    /// Total operand-collection-stage cycles (mem + non-mem).
    pub fn oc_cycles(&self) -> u64 {
        self.oc_cycles_mem + self.oc_cycles_nonmem
    }

    /// The access counts the energy model consumes.
    pub fn access_counts(&self) -> AccessCounts {
        AccessCounts {
            rf_reads: self.rf.reads,
            rf_writes: self.rf.writes,
            boc_reads: self.bypassed_reads,
            boc_writes: self.boc_writes,
            rfc_reads: self.rfc_reads,
            rfc_writes: self.rfc_writes,
        }
    }

    /// The full counter block as a JSON object — the form a `RunRecord`
    /// carries and `bow-cli figure` exports next to its textual tables.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("warp_instructions", Json::from(self.warp_instructions)),
            ("thread_instructions", Json::from(self.thread_instructions)),
            (
                "rf",
                Json::obj([
                    ("reads", Json::from(self.rf.reads)),
                    ("writes", Json::from(self.rf.writes)),
                    ("read_conflicts", Json::from(self.rf.read_conflicts)),
                    ("write_queue_cycles", Json::from(self.rf.write_queue_cycles)),
                ]),
            ),
            ("bypassed_reads", Json::from(self.bypassed_reads)),
            ("boc_writes", Json::from(self.boc_writes)),
            ("writes_total", Json::from(self.writes_total)),
            ("rf_writes_routed", Json::from(self.rf_writes_routed)),
            ("bypassed_writes", Json::from(self.bypassed_writes)),
            (
                "write_dest",
                Json::Arr(self.write_dest.iter().map(|&n| Json::from(n)).collect()),
            ),
            ("forced_evictions", Json::from(self.forced_evictions)),
            (
                "src_count_hist",
                Json::Arr(self.src_count_hist.iter().map(|&n| Json::from(n)).collect()),
            ),
            (
                "boc_occupancy_hist",
                Json::Arr(
                    self.boc_occupancy_hist
                        .iter()
                        .map(|&n| Json::from(n))
                        .collect(),
                ),
            ),
            ("occupancy_samples", Json::from(self.occupancy_samples)),
            ("rfc_reads", Json::from(self.rfc_reads)),
            ("rfc_writes", Json::from(self.rfc_writes)),
            ("oc_cycles_mem", Json::from(self.oc_cycles_mem)),
            ("oc_cycles_nonmem", Json::from(self.oc_cycles_nonmem)),
            ("exec_cycles_mem", Json::from(self.exec_cycles_mem)),
            ("exec_cycles_nonmem", Json::from(self.exec_cycles_nonmem)),
            ("insts_mem", Json::from(self.insts_mem)),
            ("insts_nonmem", Json::from(self.insts_nonmem)),
            (
                "mem",
                Json::obj([
                    ("loads", Json::from(self.mem.loads)),
                    ("stores", Json::from(self.mem.stores)),
                    ("transactions", Json::from(self.mem.transactions)),
                    ("l1_hits", Json::from(self.mem.l1.hits)),
                    ("l1_misses", Json::from(self.mem.l1.misses)),
                    ("l2_hits", Json::from(self.mem.l2.hits)),
                    ("l2_misses", Json::from(self.mem.l2.misses)),
                    ("dram_accesses", Json::from(self.mem.dram_accesses)),
                    ("dram_writebacks", Json::from(self.mem.dram_writebacks)),
                    ("total_latency", Json::from(self.mem.total_latency)),
                ]),
            ),
            ("stall_no_collector", Json::from(self.stall_no_collector)),
            ("stall_scoreboard", Json::from(self.stall_scoreboard)),
            ("retired_completions", Json::from(self.retired_completions)),
        ])
    }

    /// Decodes a counter block from the object [`SimStats::to_json`]
    /// writes. Strict: every counter field must be present, so a decoded
    /// block re-serializes byte-identically (the schema-v1 round-trip
    /// contract).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the first missing or mistyped
    /// field.
    pub fn from_json(v: &Json) -> Result<SimStats, DecodeError> {
        let u64_arr = |key: &str| -> Result<Vec<u64>, DecodeError> {
            v.req_arr(key)?
                .iter()
                .map(|n| {
                    n.as_u64()
                        .ok_or_else(|| DecodeError::new(format!("non-integer entry in `{key}`")))
                })
                .collect()
        };
        let write_dest_v = u64_arr("write_dest")?;
        let write_dest: [u64; 3] = write_dest_v
            .try_into()
            .map_err(|_| DecodeError::new("`write_dest` must have 3 entries"))?;
        let src_hist_v = u64_arr("src_count_hist")?;
        let src_count_hist: [u64; 4] = src_hist_v
            .try_into()
            .map_err(|_| DecodeError::new("`src_count_hist` must have 4 entries"))?;
        let rf = v.req("rf")?;
        let mem = v.req("mem")?;
        Ok(SimStats {
            cycles: v.req_u64("cycles")?,
            warp_instructions: v.req_u64("warp_instructions")?,
            thread_instructions: v.req_u64("thread_instructions")?,
            rf: RegFileStats {
                reads: rf.req_u64("reads").map_err(|e| e.context("rf"))?,
                writes: rf.req_u64("writes").map_err(|e| e.context("rf"))?,
                read_conflicts: rf.req_u64("read_conflicts").map_err(|e| e.context("rf"))?,
                write_queue_cycles: rf
                    .req_u64("write_queue_cycles")
                    .map_err(|e| e.context("rf"))?,
            },
            bypassed_reads: v.req_u64("bypassed_reads")?,
            boc_writes: v.req_u64("boc_writes")?,
            writes_total: v.req_u64("writes_total")?,
            rf_writes_routed: v.req_u64("rf_writes_routed")?,
            bypassed_writes: v.req_u64("bypassed_writes")?,
            write_dest,
            forced_evictions: v.req_u64("forced_evictions")?,
            src_count_hist,
            boc_occupancy_hist: u64_arr("boc_occupancy_hist")?,
            occupancy_samples: v.req_u64("occupancy_samples")?,
            rfc_reads: v.req_u64("rfc_reads")?,
            rfc_writes: v.req_u64("rfc_writes")?,
            oc_cycles_mem: v.req_u64("oc_cycles_mem")?,
            oc_cycles_nonmem: v.req_u64("oc_cycles_nonmem")?,
            exec_cycles_mem: v.req_u64("exec_cycles_mem")?,
            exec_cycles_nonmem: v.req_u64("exec_cycles_nonmem")?,
            insts_mem: v.req_u64("insts_mem")?,
            insts_nonmem: v.req_u64("insts_nonmem")?,
            mem: {
                let m = |key: &str| mem.req_u64(key).map_err(|e| e.context("mem"));
                bow_mem::MemStats {
                    loads: m("loads")?,
                    stores: m("stores")?,
                    transactions: m("transactions")?,
                    l1: bow_mem::CacheStats {
                        hits: m("l1_hits")?,
                        misses: m("l1_misses")?,
                    },
                    l2: bow_mem::CacheStats {
                        hits: m("l2_hits")?,
                        misses: m("l2_misses")?,
                    },
                    dram_accesses: m("dram_accesses")?,
                    dram_writebacks: m("dram_writebacks")?,
                    total_latency: m("total_latency")?,
                }
            },
            stall_no_collector: v.req_u64("stall_no_collector")?,
            stall_scoreboard: v.req_u64("stall_scoreboard")?,
            retired_completions: v.req_u64("retired_completions")?,
        })
    }

    /// A deterministic 64-bit digest of every counter in the block, used by
    /// the golden-fingerprint regression suite. FNV-1a over the fields in
    /// declaration order — integers only, so the digest is identical across
    /// debug/release builds and platforms. Any new counter must be folded in
    /// here (and the goldens re-blessed) to stay visible to the suite.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1_0000_01b3;
        let mut h = OFFSET;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        fold(self.cycles);
        fold(self.warp_instructions);
        fold(self.thread_instructions);
        fold(self.rf.reads);
        fold(self.rf.writes);
        fold(self.rf.read_conflicts);
        fold(self.rf.write_queue_cycles);
        fold(self.bypassed_reads);
        fold(self.boc_writes);
        fold(self.writes_total);
        fold(self.rf_writes_routed);
        fold(self.bypassed_writes);
        for v in self.write_dest {
            fold(v);
        }
        fold(self.forced_evictions);
        for v in self.src_count_hist {
            fold(v);
        }
        fold(self.boc_occupancy_hist.len() as u64);
        for &v in &self.boc_occupancy_hist {
            fold(v);
        }
        fold(self.occupancy_samples);
        fold(self.rfc_reads);
        fold(self.rfc_writes);
        fold(self.oc_cycles_mem);
        fold(self.oc_cycles_nonmem);
        fold(self.exec_cycles_mem);
        fold(self.exec_cycles_nonmem);
        fold(self.insts_mem);
        fold(self.insts_nonmem);
        fold(self.mem.loads);
        fold(self.mem.stores);
        fold(self.mem.transactions);
        fold(self.mem.l1.hits);
        fold(self.mem.l1.misses);
        fold(self.mem.l2.hits);
        fold(self.mem.l2.misses);
        fold(self.mem.dram_accesses);
        fold(self.mem.dram_writebacks);
        fold(self.mem.total_latency);
        fold(self.stall_no_collector);
        fold(self.stall_scoreboard);
        fold(self.retired_completions);
        h
    }

    /// Folds another SM's counters into this one. Cycle counts take the
    /// maximum (SMs run concurrently); everything else sums.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.rf.reads += other.rf.reads;
        self.rf.writes += other.rf.writes;
        self.rf.read_conflicts += other.rf.read_conflicts;
        self.rf.write_queue_cycles += other.rf.write_queue_cycles;
        self.bypassed_reads += other.bypassed_reads;
        self.boc_writes += other.boc_writes;
        self.writes_total += other.writes_total;
        self.rf_writes_routed += other.rf_writes_routed;
        self.bypassed_writes += other.bypassed_writes;
        for i in 0..3 {
            self.write_dest[i] += other.write_dest[i];
        }
        self.forced_evictions += other.forced_evictions;
        for i in 0..4 {
            self.src_count_hist[i] += other.src_count_hist[i];
        }
        if self.boc_occupancy_hist.len() < other.boc_occupancy_hist.len() {
            self.boc_occupancy_hist
                .resize(other.boc_occupancy_hist.len(), 0);
        }
        for (i, v) in other.boc_occupancy_hist.iter().enumerate() {
            self.boc_occupancy_hist[i] += v;
        }
        self.occupancy_samples += other.occupancy_samples;
        self.rfc_reads += other.rfc_reads;
        self.rfc_writes += other.rfc_writes;
        self.oc_cycles_mem += other.oc_cycles_mem;
        self.oc_cycles_nonmem += other.oc_cycles_nonmem;
        self.exec_cycles_mem += other.exec_cycles_mem;
        self.exec_cycles_nonmem += other.exec_cycles_nonmem;
        self.insts_mem += other.insts_mem;
        self.insts_nonmem += other.insts_nonmem;
        self.mem.loads += other.mem.loads;
        self.mem.stores += other.mem.stores;
        self.mem.transactions += other.mem.transactions;
        self.mem.l1.hits += other.mem.l1.hits;
        self.mem.l1.misses += other.mem.l1.misses;
        self.mem.l2.hits += other.mem.l2.hits;
        self.mem.l2.misses += other.mem.l2.misses;
        self.mem.dram_accesses += other.mem.dram_accesses;
        self.mem.dram_writebacks += other.mem.dram_writebacks;
        self.mem.total_latency += other.mem.total_latency;
        self.stall_no_collector += other.stall_no_collector;
        self.stall_scoreboard += other.stall_scoreboard;
        self.retired_completions += other.retired_completions;
    }
}

impl Probe for SimStats {
    #[inline]
    fn on_event(&mut self, ev: &PipeEvent<'_>) {
        self.apply(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_well_defined_on_empty_stats() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.read_bypass_rate(), 0.0);
        assert_eq!(s.write_bypass_rate(), 0.0);
    }

    #[test]
    fn bypass_rates() {
        let mut s = SimStats {
            bypassed_reads: 59,
            ..Default::default()
        };
        s.rf.reads = 41;
        assert!((s.read_bypass_rate() - 0.59).abs() < 1e-12);
        s.writes_total = 100;
        s.bypassed_writes = 52;
        assert!((s.write_bypass_rate() - 0.52).abs() < 1e-12);
    }

    #[test]
    fn occupancy_sampling_saturates() {
        let mut s = SimStats::default();
        s.sample_occupancy(2, 12);
        s.sample_occupancy(30, 12);
        assert_eq!(s.boc_occupancy_hist[2], 1);
        assert_eq!(s.boc_occupancy_hist[12], 1);
        assert_eq!(s.occupancy_samples, 2);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = SimStats {
            cycles: 10,
            warp_instructions: 5,
            ..Default::default()
        };
        let b = SimStats {
            cycles: 20,
            warp_instructions: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.warp_instructions, 12);
    }

    #[test]
    fn fingerprint_is_sensitive_and_stable() {
        let a = SimStats::default();
        assert_eq!(a.fingerprint(), SimStats::default().fingerprint());
        let b = SimStats {
            retired_completions: 1,
            ..Default::default()
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        let c = SimStats {
            boc_occupancy_hist: vec![0, 0],
            ..Default::default()
        };
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "histogram length is part of the digest"
        );
    }

    #[test]
    fn access_counts_map_straight_through() {
        let mut s = SimStats::default();
        s.rf.reads = 3;
        s.rf.writes = 4;
        s.bypassed_reads = 5;
        s.boc_writes = 6;
        let c = s.access_counts();
        assert_eq!(c.rf_reads, 3);
        assert_eq!(c.rf_writes, 4);
        assert_eq!(c.boc_reads, 5);
        assert_eq!(c.boc_writes, 6);
    }
}
