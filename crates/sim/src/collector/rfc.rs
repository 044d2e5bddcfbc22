//! The register-file cache (RFC) comparison baseline (§V-A, after
//! Gebhart et al., ISCA 2011).
//!
//! A small per-warp cache sits in front of the register file. All computed
//! results allocate in it (write-allocate, FIFO replacement, dirty
//! write-back); reads probe it and hit without touching a bank. Unlike BOW,
//! the RFC is organized like a miniature register file: hits still pay the
//! operand-collector port serialization, so it saves energy but resolves
//! no port contention — the distinction the paper draws in §V-A.

use bow_isa::Reg;

#[derive(Clone, Copy, Debug)]
struct RfcEntry {
    reg: Reg,
    dirty: bool,
    fifo: u64,
}

/// Outcome of a write insertion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteOutcome {
    /// The register was already cached; its previous dirty value was
    /// consolidated (never reached the RF).
    Overwrote,
    /// Allocated a new entry, evicting a dirty victim that must be written
    /// to the register file.
    EvictedDirty(Reg),
    /// Allocated a new entry without any dirty eviction.
    Inserted,
}

/// One warp's register-file cache.
#[derive(Clone, Debug)]
pub struct RfcCache {
    entries: Vec<RfcEntry>,
    capacity: usize,
    clock: u64,
}

impl RfcCache {
    /// Creates an empty cache with `capacity` warp-register entries.
    pub fn new(capacity: usize) -> RfcCache {
        RfcCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            clock: 0,
        }
    }

    /// Drops every entry and restarts the FIFO clock: the cache
    /// [`new`](Self::new) builds.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.clock = 0;
    }

    /// Probes the cache for a source read. Hits do not update FIFO order.
    pub fn lookup(&self, reg: Reg) -> bool {
        self.entries.iter().any(|e| e.reg == reg)
    }

    /// Inserts a computed result (write-allocate).
    pub fn insert_write(&mut self, reg: Reg) -> WriteOutcome {
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.reg == reg) {
            let was_dirty = e.dirty;
            e.dirty = true;
            e.fifo = self.clock;
            return if was_dirty {
                WriteOutcome::Overwrote
            } else {
                WriteOutcome::Inserted
            };
        }
        let mut outcome = WriteOutcome::Inserted;
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.fifo)
                .map(|(i, _)| i)
                .expect("nonempty at capacity");
            let v = self.entries.remove(victim);
            if v.dirty {
                outcome = WriteOutcome::EvictedDirty(v.reg);
            }
        }
        self.entries.push(RfcEntry {
            reg,
            dirty: true,
            fifo: self.clock,
        });
        outcome
    }

    /// Empties the cache (warp completion), yielding the dirty registers
    /// that must be written back to the RF.
    pub fn flush_dirty(&mut self) -> impl Iterator<Item = Reg> + '_ {
        self.entries.drain(..).filter(|e| e.dirty).map(|e| e.reg)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_hits() {
        let mut c = RfcCache::new(6);
        assert!(!c.lookup(Reg::r(1)));
        assert_eq!(c.insert_write(Reg::r(1)), WriteOutcome::Inserted);
        assert!(c.lookup(Reg::r(1)));
    }

    #[test]
    fn overwrite_consolidates() {
        let mut c = RfcCache::new(6);
        c.insert_write(Reg::r(1));
        assert_eq!(c.insert_write(Reg::r(1)), WriteOutcome::Overwrote);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_eviction_surfaces_dirty_victim() {
        let mut c = RfcCache::new(2);
        c.insert_write(Reg::r(1));
        c.insert_write(Reg::r(2));
        match c.insert_write(Reg::r(3)) {
            WriteOutcome::EvictedDirty(v) => assert_eq!(v, Reg::r(1)),
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert!(!c.lookup(Reg::r(1)));
        assert!(c.lookup(Reg::r(3)));
    }

    #[test]
    fn flush_returns_dirty_registers() {
        let mut c = RfcCache::new(4);
        c.insert_write(Reg::r(1));
        c.insert_write(Reg::r(2));
        let mut d: Vec<Reg> = c.flush_dirty().collect();
        d.sort();
        assert_eq!(d, vec![Reg::r(1), Reg::r(2)]);
        assert!(c.is_empty());
    }
}
