//! A set-associative, LRU, tag-only cache used for L1/L2 timing.

/// Geometry of a [`Cache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes: a power of two that divides the capacity.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u32 {
        (self.size_bytes / self.line_bytes / self.ways).max(1)
    }
}

/// Hit/miss counters for a [`Cache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when the cache was never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
}

/// A tag-only set-associative cache with true-LRU replacement.
///
/// The cache decides hit/miss and victim selection; it holds no data (the
/// functional state lives in [`GlobalMemory`](crate::GlobalMemory)), which
/// is exactly what a timing model needs and keeps coherence trivial in a
/// single-clock-domain simulation.
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: the line index is a shift, not a division.
    line_shift: u32,
    /// [`CacheConfig::sets`], computed once.
    sets: u64,
    lines: Vec<Line>,
    tick: u64,
    stats: CacheStats,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        last_used: 0,
    };
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// If `config.line_bytes` is not a power of two.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "cache line size {} is not a power of two",
            config.line_bytes
        );
        let n = (config.sets() * config.ways) as usize;
        Cache {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            sets: u64::from(config.sets()),
            lines: vec![Line::INVALID; n],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns the cache to the state [`new`](Self::new) builds, in place:
    /// every line invalid, the LRU clock and the statistics at zero. Dirty
    /// lines are dropped uncounted (see [`flush`](Self::flush)).
    pub fn reset(&mut self) {
        self.lines.fill(Line::INVALID);
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The ways of the set `addr` maps to, and its tag: a shift for the
    /// line and one division by the set count, which is no power of two
    /// in the default geometries (96 L1 sets, 54 in an L2 slice).
    fn set_range(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let ways = self.config.ways as usize;
        (set * ways..(set + 1) * ways, tag)
    }

    /// Probes the cache for the line containing `addr`, allocating it on a
    /// miss (evicting the LRU way). Returns `true` on hit. Equivalent to
    /// [`access_write`](Self::access_write) with `mark_dirty = false`.
    pub fn access(&mut self, addr: u64, allocate_on_miss: bool) -> bool {
        self.access_write(addr, allocate_on_miss, false).0
    }

    /// Probes the cache; on a write (`mark_dirty`) the line is marked
    /// dirty. Returns `(hit, evicted_dirty_line)` — the second component is
    /// `true` when the allocation displaced a dirty victim that a
    /// write-back cache must flush downstream.
    pub fn access_write(
        &mut self,
        addr: u64,
        allocate_on_miss: bool,
        mark_dirty: bool,
    ) -> (bool, bool) {
        self.tick += 1;
        let (range, tag) = self.set_range(addr);
        let mut victim = range.start;
        let mut victim_used = u64::MAX;
        for i in range {
            let l = &mut self.lines[i];
            if l.valid && l.tag == tag {
                l.last_used = self.tick;
                l.dirty |= mark_dirty;
                self.stats.hits += 1;
                return (true, false);
            }
            let used = if l.valid { l.last_used } else { 0 };
            if used < victim_used {
                victim_used = used;
                victim = i;
            }
        }
        self.stats.misses += 1;
        let mut evicted_dirty = false;
        if allocate_on_miss {
            let v = &mut self.lines[victim];
            evicted_dirty = v.valid && v.dirty;
            *v = Line {
                tag,
                valid: true,
                dirty: mark_dirty,
                last_used: self.tick,
            };
        }
        (false, evicted_dirty)
    }

    /// Invalidates everything, returning how many dirty lines were dropped
    /// (a write-back owner should count them as downstream writes).
    pub fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for l in &mut self.lines {
            if l.valid && l.dirty {
                dirty += 1;
            }
            l.valid = false;
            l.dirty = false;
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 16B lines = 64B.
        Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn geometry_math() {
        assert_eq!(tiny().config().sets(), 2);
    }

    #[test]
    fn second_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0, true));
        assert!(c.access(4, true)); // same 16B line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with line-index even: addresses 0, 32, 64 map to set 0.
        c.access(0, true);
        c.access(32, true);
        c.access(0, true); // refresh line 0
        c.access(64, true); // evicts line at 32
        assert!(c.access(0, true), "line 0 should survive");
        assert!(!c.access(32, true), "line 32 was the LRU victim");
    }

    #[test]
    fn no_allocate_misses_stay_misses() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(!c.access(0, false));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0, true);
        c.flush();
        assert!(!c.access(0, true));
    }

    #[test]
    fn dirty_eviction_is_reported() {
        let mut c = tiny();
        // Write to set 0 (dirty), then displace it with two more lines.
        let (_, ev) = c.access_write(0, true, true);
        assert!(!ev);
        c.access_write(32, true, false);
        let (_, ev) = c.access_write(64, true, false);
        assert!(ev, "dirty victim must be surfaced");
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = tiny();
        c.access_write(0, true, true);
        c.access_write(16, true, false);
        assert_eq!(c.flush(), 1);
        assert_eq!(c.flush(), 0, "second flush finds nothing dirty");
    }

    /// A seeded stream of `(address, allocate, dirty)` probes over a few
    /// times the cache's lines, so hits, misses and dirty evictions mix.
    fn probes(seed: u64, n: usize) -> Vec<(u64, bool, bool)> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 4096, x >> 20 & 3 != 0, x >> 30 & 1 == 1)
            })
            .collect()
    }

    #[test]
    fn reset_equals_new() {
        let config = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 4,
        };
        let mut used = Cache::new(config);
        for (addr, allocate, dirty) in probes(3, 500) {
            used.access_write(addr, allocate, dirty);
        }
        used.reset();
        assert_eq!(used.stats(), CacheStats::default());
        let mut fresh = Cache::new(config);
        for (i, (addr, allocate, dirty)) in probes(11, 500).into_iter().enumerate() {
            assert_eq!(
                used.access_write(addr, allocate, dirty),
                fresh.access_write(addr, allocate, dirty),
                "probe {i} at {addr:#x}"
            );
        }
        assert_eq!(used.stats(), fresh.stats());
        assert_eq!(used.flush(), fresh.flush(), "the same lines are dirty");
    }

    /// The set and tag of `addr` as `set_range` computed them before the
    /// geometry was precomputed: every quantity divided out per access.
    fn divided(config: CacheConfig, addr: u64) -> (usize, u64) {
        let line = addr / u64::from(config.line_bytes);
        let sets = u64::from(config.sets());
        ((line % sets) as usize, line / sets)
    }

    #[test]
    fn set_and_tag_match_the_divided_geometry() {
        let geometry = |size_bytes, line_bytes, ways| CacheConfig {
            size_bytes,
            line_bytes,
            ways,
        };
        for config in [
            // The default L1 (96 sets) and L2 slice (54 sets).
            crate::MemConfig::default().l1,
            crate::MemConfig::default().l2,
            // 438 sets, and powers of two from one set up.
            geometry(438 * 128 * 8, 128, 8),
            geometry(64 * 1024, 128, 4),
            geometry(128, 128, 1),
        ] {
            let cache = Cache::new(config);
            let ways = config.ways as usize;
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let edges = [0, 1, 127, 128, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
            for i in 0..10_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = edges.get(i).copied().unwrap_or(x >> (x % 40));
                let (set, tag) = divided(config, addr);
                let got = cache.set_range(addr);
                assert_eq!(
                    got,
                    (set * ways..(set + 1) * ways, tag),
                    "{config:?} {addr:#x}"
                );
            }
        }
    }

    #[test]
    fn miss_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, true);
        c.access(0, true);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
    }
}
