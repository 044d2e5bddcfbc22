//! The L1 → L2 → DRAM timing hierarchy.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::coalesce::coalesce;

/// Whether an access reads or writes (write policies differ per level).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// Global load.
    Load,
    /// Global store.
    Store,
}

/// Latency and geometry parameters of the memory hierarchy.
///
/// Defaults follow the GPGPU-Sim Pascal model the paper simulates: ~28-cycle
/// L1 hits, ~190-cycle L2 hits and ~350-cycle DRAM round trips.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MemConfig {
    /// Per-SM L1 data cache geometry.
    pub l1: CacheConfig,
    /// Device-wide L2 geometry (modelled per SM slice for simplicity).
    pub l2: CacheConfig,
    /// Cycles for an L1 hit.
    pub l1_latency: u32,
    /// Cycles for an L2 hit (on an L1 miss).
    pub l2_latency: u32,
    /// Cycles for a DRAM access (on an L2 miss).
    pub dram_latency: u32,
    /// Additional serialization cycles per extra transaction in one warp
    /// access (the LSU issues one transaction per cycle).
    pub tx_serialization: u32,
    /// Maximum outstanding misses (MSHR entries); extra misses queue.
    pub mshr_entries: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig {
                size_bytes: 48 * 1024,
                line_bytes: 128,
                ways: 4,
            },
            l2: CacheConfig {
                size_bytes: 3 * 1024 * 1024 / 56,
                line_bytes: 128,
                ways: 8,
            },
            l1_latency: 28,
            l2_latency: 190,
            dram_latency: 350,
            tx_serialization: 1,
            mshr_entries: 32,
        }
    }
}

/// Traffic and latency statistics for a [`MemSystem`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Warp-level load accesses.
    pub loads: u64,
    /// Warp-level store accesses.
    pub stores: u64,
    /// Coalesced transactions issued.
    pub transactions: u64,
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// DRAM accesses (L2 misses).
    pub dram_accesses: u64,
    /// Dirty L2 lines written back to DRAM (write-back policy).
    pub dram_writebacks: u64,
    /// Sum of access latencies (cycles), for averaging.
    pub total_latency: u64,
}

impl MemStats {
    /// Mean warp-access latency in cycles.
    pub fn avg_latency(&self) -> f64 {
        let n = self.loads + self.stores;
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }
}

/// The timing-side memory hierarchy for one SM.
///
/// [`MemSystem::access`] converts a warp's lane addresses into a completion
/// latency: the addresses are coalesced, each transaction probes L1 then L2,
/// misses pay DRAM latency, and transactions serialize on the LSU port.
/// MSHR occupancy adds back-pressure: when all entries are busy the access
/// queues behind the oldest one.
#[derive(Clone, Debug)]
pub struct MemSystem {
    config: MemConfig,
    l1: Cache,
    l2: Cache,
    stats: MemStats,
    /// Completion cycles of in-flight misses (bounded by `mshr_entries`).
    inflight: Vec<u64>,
}

impl MemSystem {
    /// Creates a hierarchy with the given parameters.
    pub fn new(config: MemConfig) -> MemSystem {
        MemSystem {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            stats: MemStats::default(),
            inflight: Vec::new(),
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> MemConfig {
        self.config
    }

    /// Accumulated statistics (cache counters folded in).
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1: self.l1.stats(),
            l2: self.l2.stats(),
            ..self.stats
        }
    }

    /// Simulates one warp access issued at `now`, returning the cycle at
    /// which the value is available (loads) or retired (stores).
    ///
    /// `addrs` holds the byte address of every *active* lane; inactive lanes
    /// are simply absent. An empty access completes immediately.
    pub fn access(&mut self, kind: AccessKind, addrs: &[u64], now: u64) -> u64 {
        match kind {
            AccessKind::Load => self.stats.loads += 1,
            AccessKind::Store => self.stats.stores += 1,
        }
        if addrs.is_empty() {
            return now;
        }
        let txs = coalesce(addrs);
        self.stats.transactions += txs.len() as u64;
        let mut worst = now + u64::from(self.config.l1_latency);
        for (i, tx) in txs.iter().enumerate() {
            let issue = now + u64::from(self.config.tx_serialization) * i as u64;
            // L1 is write-through / no-allocate for stores (Pascal-style),
            // allocate-on-read for loads.
            let l1_hit = self.l1.access(tx.addr, kind == AccessKind::Load);
            let done = if l1_hit && kind == AccessKind::Load {
                issue + u64::from(self.config.l1_latency)
            } else {
                // L2 is write-back / write-allocate: stores dirty the line,
                // and displacing a dirty victim costs a DRAM write.
                let (l2_hit, evicted_dirty) =
                    self.l2
                        .access_write(tx.addr, true, kind == AccessKind::Store);
                if evicted_dirty {
                    self.stats.dram_writebacks += 1;
                }
                let raw = if l2_hit {
                    issue + u64::from(self.config.l2_latency)
                } else {
                    self.stats.dram_accesses += 1;
                    issue + u64::from(self.config.dram_latency)
                };
                self.queue_miss(raw, now)
            };
            worst = worst.max(done);
        }
        self.stats.total_latency += worst - now;
        worst
    }

    /// Applies MSHR back-pressure to a miss that would complete at `raw`.
    fn queue_miss(&mut self, raw: u64, now: u64) -> u64 {
        self.inflight.retain(|&c| c > now);
        let done = if self.inflight.len() >= self.config.mshr_entries as usize {
            // Wait for the oldest outstanding miss to retire first.
            let oldest = self
                .inflight
                .iter()
                .copied()
                .min()
                .expect("inflight nonempty when at MSHR capacity");
            self.inflight.retain(|&c| c != oldest);
            oldest.max(raw)
        } else {
            raw
        };
        self.inflight.push(done);
        done
    }

    /// Returns the hierarchy to the state [`new`](Self::new) builds with
    /// its configuration, in place and without touching the heap: both
    /// cache levels empty, the statistics at zero, no miss in flight.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.stats = MemStats::default();
        self.inflight.clear();
    }

    /// Invalidates both cache levels (between kernel launches), draining
    /// dirty L2 lines to DRAM.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.stats.dram_writebacks += self.l2.flush();
        self.inflight.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(MemConfig::default())
    }

    #[test]
    fn first_touch_pays_dram_second_hits_l1() {
        let mut m = sys();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let t1 = m.access(AccessKind::Load, &addrs, 0);
        assert_eq!(t1, u64::from(m.config().dram_latency));
        let t2 = m.access(AccessKind::Load, &addrs, t1);
        assert_eq!(t2 - t1, u64::from(m.config().l1_latency));
        assert_eq!(m.stats().dram_accesses, 1);
        assert_eq!(m.stats().l1.hits, 1);
    }

    #[test]
    fn scattered_access_serializes_transactions() {
        let mut m = sys();
        let unit: Vec<u64> = (0..32).map(|i| i * 4).collect();
        let scatter: Vec<u64> = (0..32).map(|i| i * 4096).collect();
        let t_unit = m.access(AccessKind::Load, &unit, 0);
        m.flush();
        let t_scatter = m.access(AccessKind::Load, &scatter, 0);
        assert!(t_scatter > t_unit, "32 transactions must outlast 1");
        assert_eq!(m.stats().transactions, 33);
    }

    #[test]
    fn stores_do_not_allocate_l1() {
        let mut m = sys();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        m.access(AccessKind::Store, &addrs, 0);
        // A following load misses L1 (write-through no-allocate) but hits L2.
        let t = m.access(AccessKind::Load, &addrs, 1000);
        assert_eq!(t - 1000, u64::from(m.config().l2_latency));
    }

    #[test]
    fn empty_access_is_instant() {
        let mut m = sys();
        assert_eq!(m.access(AccessKind::Load, &[], 5), 5);
    }

    #[test]
    fn mshr_pressure_delays_bursts() {
        let cfg = MemConfig {
            mshr_entries: 2,
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(cfg);
        // Three scattered misses at the same cycle: the third queues.
        let a: Vec<u64> = vec![0];
        let b: Vec<u64> = vec![1 << 20];
        let c: Vec<u64> = vec![2 << 20];
        let t1 = m.access(AccessKind::Load, &a, 0);
        let t2 = m.access(AccessKind::Load, &b, 0);
        let t3 = m.access(AccessKind::Load, &c, 0);
        assert_eq!(t1, t2);
        assert!(t3 >= t1, "third miss waits for an MSHR");
    }

    #[test]
    fn store_flush_produces_dram_writebacks() {
        let mut m = sys();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        m.access(AccessKind::Store, &addrs, 0);
        assert_eq!(m.stats().dram_writebacks, 0, "dirty line still resident");
        m.flush();
        assert_eq!(m.stats().dram_writebacks, 1, "flush drains the dirty line");
    }

    /// A seeded mix of warp loads and stores: unit-stride, strided and
    /// scattered lane addresses over 4 MiB, issued at non-decreasing
    /// cycles, so L1 and L2 hits, DRAM misses, dirty write-backs and MSHR
    /// queueing all occur.
    fn accesses(seed: u64, n: usize) -> Vec<(AccessKind, Vec<u64>, u64)> {
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0;
        (0..n)
            .map(|_| {
                let r = next();
                let kind = if r & 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                let base = (r >> 8) % (4 << 20);
                let stride = [4, 128, 4096][(r >> 40) as usize % 3];
                let lanes = 1 + (r >> 50) % 32;
                now += (r >> 60) % 8;
                (kind, (0..lanes).map(|l| base + stride * l).collect(), now)
            })
            .collect()
    }

    #[test]
    fn reset_equals_new() {
        let config = MemConfig {
            mshr_entries: 4,
            ..MemConfig::default()
        };
        let mut used = MemSystem::new(config);
        for (kind, addrs, now) in accesses(5, 400) {
            used.access(kind, &addrs, now);
        }
        assert!(
            used.stats().dram_writebacks > 0,
            "the warm-up left dirty victims"
        );
        used.reset();
        assert_eq!(used.stats(), MemStats::default());
        let mut fresh = MemSystem::new(config);
        for (i, (kind, addrs, now)) in accesses(9, 400).into_iter().enumerate() {
            assert_eq!(
                used.access(kind, &addrs, now),
                fresh.access(kind, &addrs, now),
                "access {i} ({kind:?} at cycle {now})"
            );
        }
        assert_eq!(used.stats(), fresh.stats());
    }

    #[test]
    fn avg_latency_accumulates() {
        let mut m = sys();
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        m.access(AccessKind::Load, &addrs, 0);
        assert!(m.stats().avg_latency() >= f64::from(m.config().l1_latency));
    }
}
