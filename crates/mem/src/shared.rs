//! Per-thread-block shared memory with the 32-bank conflict model.

/// Number of shared-memory banks (4-byte wide each) in a modern SM.
pub const SMEM_BANKS: usize = 32;

/// Computes the bank-conflict degree of a set of per-lane byte addresses.
///
/// The degree is the maximum number of *distinct* words mapping to the same
/// bank: it is the number of cycles the shared-memory access serializes
/// into. Lanes reading the same word broadcast and do not conflict. An
/// access with no active lanes has degree 0; a conflict-free access has
/// degree 1.
pub fn bank_conflict_degree(addrs: &[u64]) -> u32 {
    // Distinct words per bank. A word counts where it first appears: a
    // warp has at most 32 lanes, so looking back beats keeping a set.
    let mut per_bank = [0u32; SMEM_BANKS];
    for (i, &a) in addrs.iter().enumerate() {
        let word = a / 4;
        if !addrs[..i].iter().any(|&b| b / 4 == word) {
            per_bank[word as usize % SMEM_BANKS] += 1;
        }
    }
    per_bank.into_iter().max().unwrap_or(0)
}

/// A thread block's shared-memory scratchpad.
///
/// Byte-addressed, word-granular (like [`GlobalMemory`]); reads of untouched
/// locations return zero. Out-of-bounds accesses wrap modulo the allocation,
/// which keeps randomly generated property-test kernels well-defined without
/// needing traps.
///
/// [`GlobalMemory`]: crate::GlobalMemory
#[derive(Clone, Debug)]
pub struct SharedMemory {
    words: Vec<u32>,
}

impl SharedMemory {
    /// Allocates `bytes` of shared memory (rounded up to a word multiple;
    /// a zero-byte allocation still provides one word so wrapping stays
    /// well-defined).
    pub fn new(bytes: u32) -> SharedMemory {
        let words = (bytes as usize).div_ceil(4).max(1);
        SharedMemory {
            words: vec![0; words],
        }
    }

    fn index(&self, addr: u64) -> usize {
        (addr as usize / 4) % self.words.len()
    }

    /// Reads the word containing `addr`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        self.words[self.index(addr)]
    }

    /// Writes the word containing `addr`.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let i = self.index(addr);
        self.words[i] = value;
    }

    /// The allocation size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflict_free_unit_stride() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(bank_conflict_degree(&addrs), 1);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![16u64; 32];
        assert_eq!(bank_conflict_degree(&addrs), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 8).collect();
        assert_eq!(bank_conflict_degree(&addrs), 2);
    }

    #[test]
    fn stride_32_words_serializes_fully() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4 * 32).collect();
        assert_eq!(bank_conflict_degree(&addrs), 32);
    }

    #[test]
    fn empty_access_has_degree_zero() {
        assert_eq!(bank_conflict_degree(&[]), 0);
    }

    #[test]
    fn shared_memory_roundtrip_and_wrap() {
        let mut s = SharedMemory::new(64);
        s.write_u32(0, 5);
        assert_eq!(s.read_u32(0), 5);
        assert_eq!(s.read_u32(64), 5); // wraps modulo 64 bytes
        assert_eq!(s.size_bytes(), 64);
    }

    #[test]
    fn zero_allocation_is_still_usable() {
        let mut s = SharedMemory::new(0);
        s.write_u32(0, 1);
        assert_eq!(s.read_u32(0), 1);
    }
}
