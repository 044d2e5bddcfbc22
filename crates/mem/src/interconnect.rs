//! The SM ↔ device-memory interconnect: the store buffer.
//!
//! Global stores do not land in [`GlobalMemory`] when they execute: the
//! device loop (`bow-sim`'s `gpu::run_device`) hands every SM an
//! [`SmView`] of memory, and a store through it goes into the
//! [`StoreBuffer`] instead. Until the next [`commit`](StoreBuffer::commit)
//! an SM therefore reads
//!
//! * device memory as of the last commit, plus
//! * its **own** buffered stores (read-your-writes, per-SM overlay);
//!
//! another SM's stores become visible at the commit. This cross-SM
//! visibility rule is part of the model — it is observable by kernels
//! that race across SMs (`bfs` at paper scale) and pinned by their
//! results.
//!
//! All SMs append to one journal, in the order they execute. The device
//! loop ticks SMs in index order within a device cycle, so the journal is
//! already in `(cycle, sm, issue order)` order and a commit applies it as
//! it stands.
//!
//! The pipeline's functional stages reach memory through
//! [`GlobalAccess`]: [`SmView`] for the SM pipeline, the bare
//! [`GlobalMemory`] for the architectural oracle, which has no SMs and no
//! buffering.

use crate::global::{GlobalMemory, IndexMap};

/// The functional device-memory interface instruction execution uses.
///
/// Word-granular, little-endian, zero-filled; unaligned addresses round
/// down to the containing word (see [`GlobalMemory`]).
pub trait GlobalAccess {
    /// Reads the 32-bit word containing `addr`.
    fn read_u32(&self, addr: u64) -> u32;

    /// Writes the 32-bit word containing `addr`.
    fn write_u32(&mut self, addr: u64, value: u32);
}

impl GlobalAccess for GlobalMemory {
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        GlobalMemory::read_u32(self, addr)
    }

    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        GlobalMemory::write_u32(self, addr, value)
    }
}

/// Word index (`addr / 4`) → the last value one SM stored there since the
/// last commit.
type Overlay = IndexMap<u32>;

/// Every global store since the last commit: one overlay per SM for
/// read-your-writes and one device-wide journal in execution order.
#[derive(Debug)]
pub struct StoreBuffer {
    overlays: Vec<Overlay>,
    /// `(byte address, word)` per store, in execution order.
    journal: Vec<(u64, u32)>,
}

impl StoreBuffer {
    /// An empty buffer for a device of `num_sms` SMs.
    pub fn new(num_sms: usize) -> StoreBuffer {
        StoreBuffer {
            overlays: (0..num_sms).map(|_| Overlay::default()).collect(),
            journal: Vec::new(),
        }
    }

    /// SM `sm`'s view of device memory: `base` overlaid with the stores
    /// that SM has buffered.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is not below the SM count given to
    /// [`new`](Self::new).
    pub fn view<'a>(&'a mut self, sm: usize, base: &'a GlobalMemory) -> SmView<'a> {
        SmView {
            base,
            overlay: &mut self.overlays[sm],
            journal: &mut self.journal,
        }
    }

    /// Drains the buffered stores into `base` in execution order. The
    /// maps and the journal keep their capacity, so a buffer that has
    /// grown to a launch's store rate commits without touching the heap.
    pub fn commit(&mut self, base: &mut GlobalMemory) {
        if self.journal.is_empty() {
            return;
        }
        for &(addr, value) in &self.journal {
            base.write_u32(addr, value);
        }
        self.journal.clear();
        for overlay in &mut self.overlays {
            overlay.clear();
        }
    }
}

/// One SM's view of device memory between two commits.
pub struct SmView<'a> {
    base: &'a GlobalMemory,
    overlay: &'a mut Overlay,
    journal: &'a mut Vec<(u64, u32)>,
}

impl GlobalAccess for SmView<'_> {
    #[inline]
    fn read_u32(&self, addr: u64) -> u32 {
        if !self.overlay.is_empty() {
            if let Some(&v) = self.overlay.get(&(addr / 4)) {
                return v;
            }
        }
        self.base.read_u32(addr)
    }

    #[inline]
    fn write_u32(&mut self, addr: u64, value: u32) {
        self.overlay.insert(addr / 4, value);
        self.journal.push((addr, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_view_reads_through_to_base() {
        let mut base = GlobalMemory::new();
        base.write_u32(0x100, 7);
        let mut stores = StoreBuffer::new(1);
        let view = stores.view(0, &base);
        assert_eq!(view.read_u32(0x100), 7);
        assert_eq!(view.read_u32(0x200), 0);
    }

    #[test]
    fn windowed_view_sees_own_writes_not_base() {
        let mut base = GlobalMemory::new();
        base.write_u32(0x100, 7);
        let mut stores = StoreBuffer::new(2);
        stores.view(0, &base).write_u32(0x100, 42);
        // Read-your-writes, including unaligned aliasing to the same word.
        assert_eq!(stores.view(0, &base).read_u32(0x100), 42);
        assert_eq!(stores.view(0, &base).read_u32(0x102), 42);
        // The other SM and the base still see the committed value.
        assert_eq!(stores.view(1, &base).read_u32(0x100), 7);
        assert_eq!(base.read_u32(0x100), 7);
        stores.commit(&mut base);
        assert_eq!(base.read_u32(0x100), 42);
        assert_eq!(stores.view(1, &base).read_u32(0x100), 42);
    }

    /// One warp's 32 lane addresses, 16 on each side of the 64 KiB page
    /// boundary, read and written through an SM's view: with the overlay
    /// empty every lane reads its own page; with half the lanes stored,
    /// those read the overlay and the rest still their page, and the
    /// commit lands each word on the right page.
    #[test]
    fn warp_access_straddling_a_page_boundary() {
        const PAGE: u64 = 64 * 1024;
        let lanes: Vec<u64> = (0..32).map(|l| PAGE - 64 + 4 * l).collect();
        let mut base = GlobalMemory::new();
        for (l, &a) in lanes.iter().enumerate() {
            base.write_u32(a, 100 + l as u32);
        }
        assert_eq!(base.resident_pages(), 2);
        let mut stores = StoreBuffer::new(2);

        let view = stores.view(0, &base);
        for (l, &a) in lanes.iter().enumerate() {
            assert_eq!(view.read_u32(a), 100 + l as u32, "lane {l}, empty overlay");
        }

        let stored = |l: usize| l.is_multiple_of(3);
        let want = |l: usize| if stored(l) { 200 } else { 100 } + l as u32;
        let mut view = stores.view(0, &base);
        for (l, &a) in lanes.iter().enumerate().filter(|&(l, _)| stored(l)) {
            view.write_u32(a, 200 + l as u32);
        }
        for (l, &a) in lanes.iter().enumerate() {
            assert_eq!(view.read_u32(a), want(l), "lane {l}, own stores");
        }
        let other = stores.view(1, &base);
        for (l, &a) in lanes.iter().enumerate() {
            assert_eq!(other.read_u32(a), 100 + l as u32, "lane {l}, other SM");
        }

        stores.commit(&mut base);
        for (l, &a) in lanes.iter().enumerate() {
            assert_eq!(base.read_u32(a), want(l), "lane {l}, committed");
        }
        assert_eq!(base.read_u32(PAGE - 68), 0, "below the warp");
        assert_eq!(base.read_u32(PAGE + 64), 0, "above the warp");
        assert_eq!(base.resident_pages(), 2);
    }

    #[test]
    fn commit_applies_stores_in_execution_order() {
        let mut base = GlobalMemory::new();
        let mut stores = StoreBuffer::new(2);
        stores.view(1, &base).write_u32(0x20, 1);
        stores.view(0, &base).write_u32(0x20, 2);
        stores.view(1, &base).write_u32(0x40, 3);
        stores.commit(&mut base);
        assert_eq!(base.read_u32(0x20), 2, "the later store lands last");
        assert_eq!(base.read_u32(0x40), 3);
        // Nothing is left to apply a second time.
        base.write_u32(0x40, 9);
        stores.commit(&mut base);
        assert_eq!(base.read_u32(0x40), 9);
    }

    #[test]
    fn drain_clears_overlay() {
        let mut base = GlobalMemory::new();
        let mut stores = StoreBuffer::new(2);
        stores.view(1, &base).write_u32(0x20, 1);
        stores.commit(&mut base);
        stores.view(0, &base).write_u32(0x20, 2);
        stores.commit(&mut base);
        assert_eq!(
            stores.view(1, &base).read_u32(0x20),
            2,
            "SM 1's committed store must stop shadowing the base"
        );
    }
}
