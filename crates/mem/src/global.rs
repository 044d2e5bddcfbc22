//! Sparse, paged global (device) memory with functional word semantics.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BYTES: usize = 4 * 1024;
const PAGE_WORDS: usize = PAGE_BYTES / 4;

/// A fast, non-cryptographic hasher for `u64` page indices: the
/// multiply-rotate mix of rustc's own hash maps. The page table is on the
/// path of every global access; `DefaultHasher`'s SipHash latency would
/// dominate it.
///
/// The keys come from kernel addresses, so a crafted kernel chooses them.
/// That is bounded: a lane address is a 32-bit register plus a signed
/// 32-bit offset, a span of 2^33 bytes, which reaches under 2^22 pages of
/// 4 KiB, and two keys share a table's bucket bits only when they differ
/// by a multiple of the table size. A table of `n` pages thus holds at
/// most `min(n, 2^22 / n)` keys per bucket chain, 2^11 at worst (at
/// `n = 2^11`), each a 4 KiB page the kernel had to touch.
#[derive(Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

/// A map keyed by a page index, hashed by [`IndexHasher`].
type IndexMap<V> = HashMap<u64, V, BuildHasherDefault<IndexHasher>>;

/// The GPU's global address space.
///
/// Storage is allocated lazily in 4 KiB pages, so kernels may scatter their
/// buffers across a large virtual range without cost. All ISA-level accesses
/// are 4-byte words; unaligned addresses are rounded down to the containing
/// word, matching the word-striped register/lane layout the rest of the model
/// assumes. Untouched memory reads as zero.
///
/// # Example
///
/// ```
/// use bow_mem::GlobalMemory;
/// let mut m = GlobalMemory::new();
/// m.write_u32(0x1000, 42);
/// assert_eq!(m.read_u32(0x1000), 42);
/// assert_eq!(m.read_u32(0x2000), 0); // untouched => zero
/// ```
#[derive(Clone, Debug, Default)]
pub struct GlobalMemory {
    pages: IndexMap<Box<[u32; PAGE_WORDS]>>,
}

impl GlobalMemory {
    /// Creates an empty address space.
    pub fn new() -> GlobalMemory {
        GlobalMemory::default()
    }

    fn split(addr: u64) -> (u64, usize) {
        let word = addr / 4;
        (
            word / PAGE_WORDS as u64,
            (word % PAGE_WORDS as u64) as usize,
        )
    }

    /// Reads the 32-bit word containing `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let (page, idx) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[idx])
    }

    /// Writes the 32-bit word containing `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let (page, idx) = Self::split(addr);
        self.page_mut(page)[idx] = value;
    }

    /// Page `page`, allocated (zeroed) on first touch.
    fn page_mut(&mut self, page: u64) -> &mut [u32; PAGE_WORDS] {
        self.pages.entry(page).or_insert_with(|| {
            vec![0u32; PAGE_WORDS]
                .into_boxed_slice()
                .try_into()
                .unwrap()
        })
    }

    /// Reads the word containing each `(index, addr)` into `out[index]`,
    /// as [`read_u32`](Self::read_u32) would, looking a page up once per
    /// run of consecutive reads on it: a warp's gather.
    pub fn gather(&self, reads: impl IntoIterator<Item = (usize, u64)>, out: &mut [u32]) {
        let mut run: Option<(u64, Option<&[u32; PAGE_WORDS]>)> = None;
        for (index, addr) in reads {
            let (page, idx) = Self::split(addr);
            if run.is_none_or(|(p, _)| p != page) {
                run = Some((page, self.pages.get(&page).map(|p| &**p)));
            }
            out[index] = run.and_then(|(_, words)| words).map_or(0, |w| w[idx]);
        }
    }

    /// Writes each `(addr, value)` in order, as
    /// [`write_u32`](Self::write_u32) would (a later write to a word wins),
    /// looking a page up once per run of consecutive writes on it: a
    /// warp's scatter.
    pub fn scatter(&mut self, writes: impl IntoIterator<Item = (u64, u32)>) {
        let mut run: Option<(u64, &mut [u32; PAGE_WORDS])> = None;
        for (addr, value) in writes {
            let (page, idx) = Self::split(addr);
            if run.as_ref().is_none_or(|(p, _)| *p != page) {
                run = Some((page, self.page_mut(page)));
            }
            if let Some((_, words)) = &mut run {
                words[idx] = value;
            }
        }
    }

    /// Reads the word at `addr` as an IEEE-754 float.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes a float as its bit pattern.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Bulk-writes a slice of words starting at `addr` (host-side setup).
    pub fn write_slice_u32(&mut self, addr: u64, values: &[u32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u32(addr + 4 * i as u64, *v);
        }
    }

    /// Bulk-writes floats starting at `addr`.
    pub fn write_slice_f32(&mut self, addr: u64, values: &[f32]) {
        for (i, v) in values.iter().enumerate() {
            self.write_f32(addr + 4 * i as u64, *v);
        }
    }

    /// Bulk-reads `n` words starting at `addr` (host-side verification).
    pub fn read_vec_u32(&self, addr: u64, n: usize) -> Vec<u32> {
        let mut words = vec![0; n];
        self.gather((0..n).map(|i| (i, addr + 4 * i as u64)), &mut words);
        words
    }

    /// Bulk-reads `n` floats starting at `addr`.
    pub fn read_vec_f32(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + 4 * i as u64)).collect()
    }

    /// Number of resident (allocated) pages — a footprint diagnostic.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Two address spaces are equal when every word reads the same: a page
/// only one side has allocated must be all zeros, like the page it stands
/// for on the other side. Pages both sides hold compare word for word.
impl PartialEq for GlobalMemory {
    fn eq(&self, other: &GlobalMemory) -> bool {
        let zero = |page: &[u32; PAGE_WORDS]| page.iter().all(|&w| w == 0);
        let ours = self
            .pages
            .iter()
            .all(|(index, page)| match other.pages.get(index) {
                Some(theirs) => page == theirs,
                None => zero(page),
            });
        ours && (other.pages.iter())
            .all(|(index, page)| self.pages.contains_key(index) || zero(page))
    }
}

impl Eq for GlobalMemory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = GlobalMemory::new();
        assert_eq!(m.read_u32(0), 0);
        assert_eq!(m.read_u32(u64::MAX - 7), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn word_roundtrip_and_alignment() {
        let mut m = GlobalMemory::new();
        m.write_u32(100, 7);
        assert_eq!(m.read_u32(100), 7);
        // Unaligned reads hit the containing word.
        assert_eq!(m.read_u32(102), 7);
        m.write_u32(103, 9);
        assert_eq!(m.read_u32(100), 9);
    }

    #[test]
    fn pages_allocate_lazily_across_boundaries() {
        let mut m = GlobalMemory::new();
        m.write_u32(PAGE_BYTES as u64 - 4, 1);
        m.write_u32(PAGE_BYTES as u64, 2);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_u32(PAGE_BYTES as u64 - 4), 1);
        assert_eq!(m.read_u32(PAGE_BYTES as u64), 2);
    }

    /// Seeded word addresses within two words of the edges of four
    /// adjacent pages, repeating now and then.
    fn edge_addrs(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        let mut addrs: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = 0x40_0000 + (x % 4) * PAGE_BYTES as u64;
            let near = (x >> 8) % 4 * 4;
            let addr = match (x >> 16) % 4 {
                0 => page + near,
                1 => page - 4 - near,
                2 => addrs.last().copied().unwrap_or(page),
                _ => page + (x >> 24) % PAGE_BYTES as u64,
            };
            addrs.push(addr);
        }
        addrs
    }

    #[test]
    fn scatter_and_gather_match_word_accesses() {
        for seed in 1..=8u64 {
            // A warp's 32 lanes, several times over, with a later lane's
            // store to a word the winner over an earlier one.
            let addrs = edge_addrs(seed, 32 * 8);
            let (mut scattered, mut written) = (GlobalMemory::new(), GlobalMemory::new());
            for (warp, lanes) in addrs.chunks(32).enumerate() {
                let value = |lane: usize| (warp * 32 + lane) as u32 + 1;
                scattered.scatter(lanes.iter().enumerate().map(|(l, &a)| (a, value(l))));
                for (lane, &addr) in lanes.iter().enumerate() {
                    written.write_u32(addr, value(lane));
                }
            }
            assert_eq!(scattered, written, "seed {seed}");
            assert_eq!(scattered.resident_pages(), written.resident_pages());
            for lanes in edge_addrs(seed + 100, 32 * 8).chunks(32) {
                let mut gathered = [u32::MAX; 32];
                scattered.gather(lanes.iter().copied().enumerate(), &mut gathered);
                let read: Vec<u32> = lanes.iter().map(|&a| scattered.read_u32(a)).collect();
                assert_eq!(gathered[..], read[..], "seed {seed}");
            }
        }
        // A gather over untouched pages reads zeros, allocating nothing.
        let empty = GlobalMemory::new();
        let mut out = [7u32; 4];
        empty.gather([(0, 0), (3, 1 << 40), (1, 4), (2, 0)], &mut out);
        assert_eq!((out, empty.resident_pages()), ([0, 0, 0, 0], 0));
        let n = PAGE_WORDS + 3;
        let mut m = GlobalMemory::new();
        let words: Vec<u32> = (1..=n as u32).collect();
        m.write_slice_u32(PAGE_BYTES as u64 - 8, &words);
        assert_eq!(m.read_vec_u32(PAGE_BYTES as u64 - 8, n), words);
    }

    #[test]
    fn float_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_f32(16, 3.25);
        assert_eq!(m.read_f32(16), 3.25);
    }

    #[test]
    fn bulk_helpers_roundtrip() {
        let mut m = GlobalMemory::new();
        m.write_slice_u32(0x4000, &[1, 2, 3, 4]);
        assert_eq!(m.read_vec_u32(0x4000, 4), vec![1, 2, 3, 4]);
        m.write_slice_f32(0x8000, &[1.0, 2.0]);
        assert_eq!(m.read_vec_f32(0x8000, 2), vec![1.0, 2.0]);
    }

    #[test]
    fn equality_ignores_page_insertion_order() {
        // Words on pages far apart and adjacent, touched first to last and
        // last to first, so the two maps grow and may iterate differently.
        let words: Vec<(u64, u32)> = (0..40u64)
            .map(|i| (i * i * PAGE_BYTES as u64 / 3 + 4 * i, 1 + i as u32))
            .collect();
        let (mut forward, mut backward) = (GlobalMemory::new(), GlobalMemory::new());
        for &(addr, value) in &words {
            forward.write_u32(addr, value);
        }
        for &(addr, value) in words.iter().rev() {
            backward.write_u32(addr, value);
        }
        assert_eq!(forward.resident_pages(), backward.resident_pages());
        assert_eq!(forward, backward);
        backward.write_u32(words[7].0, 0);
        assert_ne!(forward, backward);
    }

    #[test]
    fn equality_detects_differences_and_ignores_zero_pages() {
        let mut a = GlobalMemory::new();
        let mut b = GlobalMemory::new();
        a.write_u32(0x100, 5);
        b.write_u32(0x100, 5);
        // b additionally touches a page with zeros only.
        b.write_u32(0x9_0000, 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
        b.write_u32(0x100, 6);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn a_nonzero_word_on_a_page_only_one_side_has_is_a_difference() {
        let mut a = GlobalMemory::new();
        a.write_u32(0x100, 5);
        let mut b = a.clone();
        // The last word of a page a never allocated.
        b.write_u32(0x9_0000 + PAGE_BYTES as u64 - 4, 1);
        assert_eq!(b.resident_pages(), a.resident_pages() + 1);
        assert_ne!(a, b);
        assert_ne!(b, a);
        // A zero page on each side, at different indices: still equal.
        a.write_u32(0x20_0000, 0);
        b.write_u32(0x9_0000 + PAGE_BYTES as u64 - 4, 0);
        assert_eq!(a, b);
        assert_eq!(b, a);
    }
}
